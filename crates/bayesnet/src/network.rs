//! The `Value`-keyed Bayesian network: a DAG plus one [`Cpt`] per node.
//!
//! The product scores through [`crate::CompiledNetwork`], built straight
//! from code-space counts; this network is learned by hashing `Value`s and
//! exists for the reference oracle in `bclean-core` (`fit_reference` /
//! `clean_reference`), against which the compiled path is checked
//! bit-for-bit.

use bclean_data::{Dataset, Value};

use crate::cpt::Cpt;
use crate::graph::Dag;

/// Default Laplace smoothing constant for CPT learning.
pub const DEFAULT_ALPHA: f64 = 0.1;

/// A fully parameterised Bayesian network over the attributes of a dataset.
#[derive(Debug, Clone)]
pub struct BayesianNetwork {
    dag: Dag,
    cpts: Vec<Cpt>,
    attribute_names: Vec<String>,
}

impl BayesianNetwork {
    /// Learn CPTs for every node of `dag` from `dataset`.
    pub fn learn(dataset: &Dataset, dag: Dag, alpha: f64) -> BayesianNetwork {
        assert_eq!(
            dag.num_nodes(),
            dataset.num_columns(),
            "DAG node count must match the dataset's attribute count"
        );
        let cpts =
            (0..dag.num_nodes()).map(|node| Cpt::learn(dataset, node, &dag.parents(node), alpha)).collect();
        let attribute_names = dataset.schema().names().iter().map(|s| s.to_string()).collect();
        BayesianNetwork { dag, cpts, attribute_names }
    }

    /// The network structure.
    pub fn dag(&self) -> &Dag {
        &self.dag
    }

    /// Attribute names, indexed by node.
    pub fn attribute_names(&self) -> &[String] {
        &self.attribute_names
    }

    /// The CPT of a node.
    pub fn cpt(&self, node: usize) -> &Cpt {
        &self.cpts[node]
    }

    /// Number of nodes (attributes).
    pub fn num_nodes(&self) -> usize {
        self.dag.num_nodes()
    }

    /// Log joint probability of a complete tuple under the network:
    /// `Σ_i log Pr[A_i = t_i | parents(A_i)]` (paper §2).
    pub fn log_joint(&self, row: &[Value]) -> f64 {
        (0..self.num_nodes())
            .map(|node| self.cpts[node].prob_given_row(&row[node], row).max(1e-300).ln())
            .sum()
    }

    /// Log joint probability of the tuple with `row[node]` replaced by
    /// `candidate`. This is the scoring used by the *unpartitioned* inference:
    /// every factor of the joint participates.
    pub fn log_joint_with(&self, row: &[Value], node: usize, candidate: &Value) -> f64 {
        let mut modified = row.to_vec();
        modified[node] = candidate.clone();
        self.log_joint(&modified)
    }

    /// Markov-blanket (partitioned) log score of a candidate value for `node`
    /// given the rest of the tuple (paper §6.1):
    /// `log Pr[c | parents(node)] + Σ_{k ∈ children(node)} log Pr[t_k | parents(k) with node := c]`.
    ///
    /// Only the factors inside the node's one-hop sub-network are evaluated,
    /// which is what makes the `BCleanPI` variant fast.
    pub fn blanket_log_score(&self, row: &[Value], node: usize, candidate: &Value) -> f64 {
        let mut score = {
            let parents = self.dag.parents(node);
            if parents.is_empty() {
                self.cpts[node].marginal_prob(candidate).max(1e-300).ln()
            } else {
                let parent_values: Vec<Value> = parents.iter().map(|&p| row[p].clone()).collect();
                self.cpts[node].prob(candidate, &parent_values).max(1e-300).ln()
            }
        };
        for child in self.dag.children(node) {
            let parents = self.dag.parents(child);
            let parent_values: Vec<Value> =
                parents.iter().map(|&p| if p == node { candidate.clone() } else { row[p].clone() }).collect();
            score += self.cpts[child].prob(&row[child], &parent_values).max(1e-300).ln();
        }
        score
    }

    /// Sum of the children's log likelihoods when `node` is set to `candidate`:
    /// `Σ_{k ∈ children(node)} log Pr[t_k | parents(k) with node := c]`.
    ///
    /// This is the discriminative part of the Markov-blanket score that does
    /// not involve the node's own prior; BClean scores parentless nodes with
    /// this term only, treating their prior as uniform (paper §6.1).
    pub fn children_log_likelihood(&self, row: &[Value], node: usize, candidate: &Value) -> f64 {
        let mut score = 0.0;
        for child in self.dag.children(node) {
            let parents = self.dag.parents(child);
            let parent_values: Vec<Value> =
                parents.iter().map(|&p| if p == node { candidate.clone() } else { row[p].clone() }).collect();
            score += self.cpts[child].prob(&row[child], &parent_values).max(1e-300).ln();
        }
        score
    }

    /// Normalised conditional distribution of `node` over `candidates`, given
    /// the observed tuple, using the Markov-blanket score.
    pub fn conditional_distribution(&self, row: &[Value], node: usize, candidates: &[Value]) -> Vec<f64> {
        if candidates.is_empty() {
            return Vec::new();
        }
        let scores: Vec<f64> = candidates.iter().map(|c| self.blanket_log_score(row, node, c)).collect();
        log_softmax_to_probs(&scores)
    }
}

/// Convert log scores to a normalised probability vector (softmax in log space).
pub fn log_softmax_to_probs(log_scores: &[f64]) -> Vec<f64> {
    if log_scores.is_empty() {
        return Vec::new();
    }
    let max = log_scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = log_scores.iter().map(|s| (s - max).exp()).collect();
    let total: f64 = exps.iter().sum();
    if total <= 0.0 {
        return vec![1.0 / log_scores.len() as f64; log_scores.len()];
    }
    exps.iter().map(|e| e / total).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bclean_data::dataset_from;

    fn fd_dataset() -> Dataset {
        dataset_from(
            &["Zip", "State", "Other"],
            &[
                vec!["35150", "CA", "a"],
                vec!["35150", "CA", "b"],
                vec!["35150", "CA", "a"],
                vec!["35960", "KT", "b"],
                vec!["35960", "KT", "a"],
                vec!["35960", "KT", "b"],
            ],
        )
    }

    fn fd_network() -> BayesianNetwork {
        let mut dag = Dag::new(3);
        dag.add_edge(0, 1).unwrap(); // Zip -> State
        BayesianNetwork::learn(&fd_dataset(), dag, 0.1)
    }

    #[test]
    fn log_joint_prefers_consistent_tuples() {
        let bn = fd_network();
        let good = vec![Value::parse("35150"), Value::text("CA"), Value::text("a")];
        let bad = vec![Value::parse("35150"), Value::text("KT"), Value::text("a")];
        assert!(bn.log_joint(&good) > bn.log_joint(&bad));
    }

    #[test]
    fn blanket_score_matches_joint_ordering() {
        let bn = fd_network();
        let row = vec![Value::parse("35150"), Value::text("KT"), Value::text("a")];
        // Candidate repairs for State.
        let ca = Value::text("CA");
        let kt = Value::text("KT");
        assert!(bn.blanket_log_score(&row, 1, &ca) > bn.blanket_log_score(&row, 1, &kt));
        assert!(bn.log_joint_with(&row, 1, &ca) > bn.log_joint_with(&row, 1, &kt));
    }

    #[test]
    fn blanket_score_uses_children_evidence() {
        // State depends on Zip; repairing Zip must take the observed State into account.
        let bn = fd_network();
        let row = vec![Value::parse("3515x"), Value::text("CA"), Value::text("a")];
        let right = Value::parse("35150");
        let wrong = Value::parse("35960");
        assert!(bn.blanket_log_score(&row, 0, &right) > bn.blanket_log_score(&row, 0, &wrong));
    }

    #[test]
    fn conditional_distribution_normalises() {
        let bn = fd_network();
        let row = vec![Value::parse("35150"), Value::text("KT"), Value::text("a")];
        let candidates = vec![Value::text("CA"), Value::text("KT")];
        let dist = bn.conditional_distribution(&row, 1, &candidates);
        assert_eq!(dist.len(), 2);
        assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(dist[0] > dist[1]);
        assert!(bn.conditional_distribution(&row, 1, &[]).is_empty());
    }

    #[test]
    fn isolated_node_uses_marginal() {
        let bn = fd_network();
        let row = vec![Value::parse("35150"), Value::text("CA"), Value::text("a")];
        let pa = bn.blanket_log_score(&row, 2, &Value::text("a"));
        let pb = bn.blanket_log_score(&row, 2, &Value::text("b"));
        // Equal marginal counts -> equal scores.
        assert!((pa - pb).abs() < 1e-9);
    }

    #[test]
    fn softmax_helper() {
        let probs = log_softmax_to_probs(&[0.0, 0.0]);
        assert!((probs[0] - 0.5).abs() < 1e-12);
        let probs = log_softmax_to_probs(&[1.0, 0.0]);
        assert!(probs[0] > probs[1]);
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(log_softmax_to_probs(&[]).is_empty());
        // Extreme scores do not produce NaN.
        let probs = log_softmax_to_probs(&[-1e308, 0.0]);
        assert!((probs[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "node count")]
    fn mismatched_dag_panics() {
        let _ = BayesianNetwork::learn(&fd_dataset(), Dag::new(2), 0.1);
    }

    #[test]
    fn attribute_names_preserved() {
        let bn = fd_network();
        assert_eq!(bn.attribute_names(), &["Zip".to_string(), "State".into(), "Other".into()]);
        assert_eq!(bn.num_nodes(), 3);
    }
}
