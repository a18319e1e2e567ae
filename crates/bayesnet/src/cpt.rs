//! Conditional probability tables (CPTs).
//!
//! Each node of the Bayesian network carries a CPT `θ` giving
//! `Pr[A = v | parents(A) = u]`. Tables are learned by maximum likelihood
//! with Laplace (additive) smoothing so that unseen value/parent
//! combinations keep a small non-zero probability — essential when the
//! observed data is dirty.
//!
//! [`Cpt`] tallies its counts in `Value`-keyed hash maps; it backs the
//! reference oracle's [`crate::BayesianNetwork`]. The product never builds
//! one: it counts codes ([`crate::NodeCounts`]) and compiles those counts
//! into the same probabilities ([`crate::CompiledCpt::from_counts`]).

use std::collections::HashMap;

use bclean_data::{Dataset, Value};

/// A learned conditional probability table for one node.
#[derive(Debug, Clone)]
pub struct Cpt {
    node: usize,
    parents: Vec<usize>,
    /// parent assignment -> (value counts, total count)
    ///
    /// `pub(crate)` so [`crate::compiled::CompiledCpt`] can compile the
    /// learned counts into code-indexed tables.
    pub(crate) table: HashMap<Vec<Value>, (HashMap<Value, usize>, usize)>,
    /// marginal value counts (used for parentless nodes and unseen parents)
    pub(crate) marginal: HashMap<Value, usize>,
    pub(crate) marginal_total: usize,
    /// number of distinct values of the node's attribute (for smoothing)
    domain_size: usize,
    /// Laplace smoothing constant
    pub(crate) alpha: f64,
}

impl Cpt {
    /// Learn the CPT of `node` given `parents` from the dataset.
    pub fn learn(dataset: &Dataset, node: usize, parents: &[usize], alpha: f64) -> Cpt {
        let mut table: HashMap<Vec<Value>, (HashMap<Value, usize>, usize)> = HashMap::new();
        let mut marginal: HashMap<Value, usize> = HashMap::new();
        let mut marginal_total = 0usize;
        for row in dataset.rows() {
            let v = row[node].clone();
            *marginal.entry(v.clone()).or_insert(0) += 1;
            marginal_total += 1;
            if !parents.is_empty() {
                let key: Vec<Value> = parents.iter().map(|&p| row[p].clone()).collect();
                let entry = table.entry(key).or_insert_with(|| (HashMap::new(), 0));
                *entry.0.entry(v).or_insert(0) += 1;
                entry.1 += 1;
            }
        }
        let domain_size = marginal.len().max(1);
        Cpt { node, parents: parents.to_vec(), table, marginal, marginal_total, domain_size, alpha }
    }

    /// The node this table belongs to.
    pub fn node(&self) -> usize {
        self.node
    }

    /// The parent set of the node.
    pub fn parents(&self) -> &[usize] {
        &self.parents
    }

    /// Number of distinct parent configurations observed.
    pub fn num_parent_configs(&self) -> usize {
        self.table.len()
    }

    /// Number of distinct values observed for the node.
    pub fn domain_size(&self) -> usize {
        self.domain_size
    }

    /// Marginal (prior) probability `Pr[A = value]` with Laplace smoothing.
    pub fn marginal_prob(&self, value: &Value) -> f64 {
        let count = self.marginal.get(value).copied().unwrap_or(0) as f64;
        let denom = self.marginal_total as f64 + self.alpha * self.domain_size as f64;
        if denom <= 0.0 {
            return 1.0 / self.domain_size as f64;
        }
        (count + self.alpha) / denom
    }

    /// Conditional probability `Pr[A = value | parents = parent_values]`.
    ///
    /// Falls back to the marginal when the node has no parents or the parent
    /// configuration was never observed.
    pub fn prob(&self, value: &Value, parent_values: &[Value]) -> f64 {
        if self.parents.is_empty() {
            return self.marginal_prob(value);
        }
        debug_assert_eq!(parent_values.len(), self.parents.len());
        match self.table.get(parent_values) {
            None => self.marginal_prob(value),
            Some((counts, total)) => {
                let count = counts.get(value).copied().unwrap_or(0) as f64;
                (count + self.alpha) / (*total as f64 + self.alpha * self.domain_size as f64)
            }
        }
    }

    /// Conditional probability given a full tuple: extracts the parent values
    /// from `row` before delegating to [`Cpt::prob`].
    pub fn prob_given_row(&self, value: &Value, row: &[Value]) -> f64 {
        if self.parents.is_empty() {
            return self.marginal_prob(value);
        }
        let parent_values: Vec<Value> = self.parents.iter().map(|&p| row[p].clone()).collect();
        self.prob(value, &parent_values)
    }

    /// Natural log of [`Cpt::prob`], floored to avoid `-inf`.
    pub fn log_prob(&self, value: &Value, parent_values: &[Value]) -> f64 {
        self.prob(value, parent_values).max(1e-300).ln()
    }

    /// The most probable value under a given parent configuration.
    pub fn argmax(&self, parent_values: &[Value]) -> Option<Value> {
        let counts: Box<dyn Iterator<Item = (&Value, &usize)>> = if self.parents.is_empty() {
            Box::new(self.marginal.iter())
        } else {
            match self.table.get(parent_values) {
                Some((counts, _)) => Box::new(counts.iter()),
                None => Box::new(self.marginal.iter()),
            }
        };
        counts.max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0))).map(|(v, _)| v.clone())
    }

    /// Distinct observed values of the node (the CPT's support).
    pub fn support(&self) -> Vec<&Value> {
        let mut values: Vec<&Value> = self.marginal.keys().collect();
        values.sort();
        values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bclean_data::dataset_from;

    fn ds() -> Dataset {
        // Zip -> State functional dependency with one error (row 3).
        dataset_from(
            &["Zip", "State"],
            &[
                vec!["35150", "CA"],
                vec!["35150", "CA"],
                vec!["35150", "CA"],
                vec!["35150", "KT"],
                vec!["35960", "KT"],
                vec!["35960", "KT"],
            ],
        )
    }

    #[test]
    fn marginal_probabilities_sum_to_one() {
        let cpt = Cpt::learn(&ds(), 1, &[], 1.0);
        let total: f64 = cpt.support().iter().map(|v| cpt.marginal_prob(v)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(cpt.marginal_prob(&Value::text("CA")) > cpt.marginal_prob(&Value::text("NY")));
    }

    #[test]
    fn conditional_prefers_majority_value() {
        let cpt = Cpt::learn(&ds(), 1, &[0], 0.1);
        let zip = vec![Value::parse("35150")];
        assert!(cpt.prob(&Value::text("CA"), &zip) > cpt.prob(&Value::text("KT"), &zip));
        let zip2 = vec![Value::parse("35960")];
        assert!(cpt.prob(&Value::text("KT"), &zip2) > cpt.prob(&Value::text("CA"), &zip2));
    }

    #[test]
    fn conditional_probabilities_sum_to_one_over_support() {
        let cpt = Cpt::learn(&ds(), 1, &[0], 0.5);
        let zip = vec![Value::parse("35150")];
        let total: f64 = cpt.support().iter().map(|v| cpt.prob(v, &zip)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn unseen_parent_config_falls_back_to_marginal() {
        let cpt = Cpt::learn(&ds(), 1, &[0], 1.0);
        let unseen = vec![Value::parse("99999")];
        let p = cpt.prob(&Value::text("CA"), &unseen);
        assert!((p - cpt.marginal_prob(&Value::text("CA"))).abs() < 1e-12);
    }

    #[test]
    fn unseen_value_gets_smoothed_probability() {
        let cpt = Cpt::learn(&ds(), 1, &[0], 1.0);
        let zip = vec![Value::parse("35150")];
        let p = cpt.prob(&Value::text("TX"), &zip);
        assert!(p > 0.0 && p < 0.3);
    }

    #[test]
    fn zero_alpha_gives_pure_mle() {
        let cpt = Cpt::learn(&ds(), 1, &[0], 0.0);
        let zip = vec![Value::parse("35960")];
        assert!((cpt.prob(&Value::text("KT"), &zip) - 1.0).abs() < 1e-12);
        assert_eq!(cpt.prob(&Value::text("CA"), &zip), 0.0);
        // log_prob stays finite even with zero probability.
        assert!(cpt.log_prob(&Value::text("CA"), &zip).is_finite());
    }

    #[test]
    fn prob_given_row_extracts_parents() {
        let cpt = Cpt::learn(&ds(), 1, &[0], 0.1);
        let row = vec![Value::parse("35960"), Value::text("??")];
        assert!(cpt.prob_given_row(&Value::text("KT"), &row) > 0.5);
    }

    #[test]
    fn argmax_and_metadata() {
        let cpt = Cpt::learn(&ds(), 1, &[0], 1.0);
        assert_eq!(cpt.argmax(&[Value::parse("35150")]), Some(Value::text("CA")));
        assert_eq!(cpt.argmax(&[Value::text("nope")]), Some(Value::text("CA"))); // marginal mode (CA=3 vs KT=3 -> tie broken towards the smaller value)
        assert_eq!(cpt.node(), 1);
        assert_eq!(cpt.parents(), &[0]);
        assert_eq!(cpt.num_parent_configs(), 2);
        assert_eq!(cpt.domain_size(), 2);
    }

    #[test]
    fn empty_dataset_is_safe() {
        let empty = Dataset::new(bclean_data::Schema::from_names(&["a", "b"]).unwrap());
        let cpt = Cpt::learn(&empty, 0, &[1], 1.0);
        let p = cpt.prob(&Value::text("x"), &[Value::text("y")]);
        assert!(p > 0.0 && p <= 1.0);
        assert_eq!(cpt.argmax(&[Value::text("y")]), None);
    }

    #[test]
    fn marginal_mode_tie_break_is_deterministic() {
        let d = dataset_from(&["a"], &[vec!["x"], vec!["y"]]);
        let cpt = Cpt::learn(&d, 0, &[], 1.0);
        // Both occur once; max_by with value tie-break picks the smaller value.
        assert_eq!(cpt.argmax(&[]), Some(Value::text("x")));
    }
}
