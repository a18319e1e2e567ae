//! Property-based tests for the Bayesian network crate.

use bclean_bayesnet::{
    edit_similarity, learn_structure, levenshtein, numeric_similarity, BayesianNetwork, Dag, StructureConfig,
};
use bclean_data::{dataset_from, Value};
use proptest::prelude::*;

fn word() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z0-9]{0,10}").unwrap()
}

proptest! {
    /// Levenshtein is a metric: identity, symmetry, triangle inequality.
    #[test]
    fn levenshtein_is_a_metric(a in word(), b in word(), c in word()) {
        prop_assert_eq!(levenshtein(&a, &a), 0);
        prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
        prop_assert!(levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c));
        // Bounded by the longer string's length.
        prop_assert!(levenshtein(&a, &b) <= a.chars().count().max(b.chars().count()));
    }

    /// Edit and numeric similarities always fall in [0, 1] and are symmetric.
    #[test]
    fn similarities_bounded_and_symmetric(a in word(), b in word(), x in -1e6f64..1e6, y in -1e6f64..1e6) {
        let s = edit_similarity(&a, &b);
        prop_assert!((0.0..=1.0).contains(&s));
        prop_assert_eq!(s, edit_similarity(&b, &a));
        prop_assert_eq!(edit_similarity(&a, &a), 1.0);
        let ns = numeric_similarity(x, y);
        prop_assert!((0.0..=1.0).contains(&ns));
        prop_assert!((ns - numeric_similarity(y, x)).abs() < 1e-12);
    }

    /// Random edge insertions never produce a cyclic graph, and the
    /// topological order is always consistent with the edges.
    #[test]
    fn dag_stays_acyclic(edges in proptest::collection::vec((0usize..6, 0usize..6), 0..30)) {
        let mut dag = Dag::new(6);
        for (from, to) in edges {
            let _ = dag.add_edge(from, to); // errors (cycles, self-loops) are allowed
        }
        prop_assert!(dag.is_acyclic());
        let order = dag.topological_order();
        let mut pos = [0usize; 6];
        for (i, &n) in order.iter().enumerate() { pos[n] = i; }
        for (from, to) in dag.edges() {
            prop_assert!(pos[from] < pos[to]);
        }
    }

    /// CPT probabilities are valid probabilities and conditional
    /// distributions over observed support sum to ≤ 1 + ε.
    #[test]
    fn cpt_probabilities_valid(
        rows in proptest::collection::vec((0usize..3, 0usize..3), 2..30),
        alpha in 0.01f64..2.0,
    ) {
        let raw: Vec<Vec<String>> = rows.iter().map(|(a, b)| vec![format!("a{a}"), format!("b{b}")]).collect();
        let refs: Vec<Vec<&str>> = raw.iter().map(|r| r.iter().map(|s| s.as_str()).collect()).collect();
        let data = dataset_from(&["x", "y"], &refs);
        let mut dag = Dag::new(2);
        dag.add_edge(0, 1).unwrap();
        let bn = BayesianNetwork::learn(&data, dag, alpha);
        for row in data.rows() {
            let p = bn.cpt(1).prob_given_row(&row[1], row);
            prop_assert!(p > 0.0 && p <= 1.0 + 1e-9);
            let joint = bn.log_joint(row);
            prop_assert!(joint.is_finite());
            prop_assert!(joint <= 1e-9);
        }
        // Conditional distribution over candidates is a probability vector.
        let candidates: Vec<Value> = (0..3).map(|b| Value::text(format!("b{b}"))).collect();
        let row = data.row(0).unwrap();
        let dist = bn.conditional_distribution(row, 1, &candidates);
        let sum: f64 = dist.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6);
        prop_assert!(dist.iter().all(|p| *p >= 0.0));
    }

    /// Structure learning always yields an acyclic graph whose node count
    /// matches the dataset's attribute count, regardless of data content.
    #[test]
    fn learned_structure_is_well_formed(
        rows in proptest::collection::vec((0usize..4, 0usize..4, 0usize..2), 2..40),
    ) {
        let raw: Vec<Vec<String>> = rows
            .iter()
            .map(|(a, b, c)| vec![format!("z{a}"), format!("s{b}"), format!("n{c}")])
            .collect();
        let refs: Vec<Vec<&str>> = raw.iter().map(|r| r.iter().map(|s| s.as_str()).collect()).collect();
        let data = dataset_from(&["Zip", "State", "Noise"], &refs);
        let learned = learn_structure(&data, StructureConfig::default());
        prop_assert_eq!(learned.dag.num_nodes(), 3);
        prop_assert!(learned.dag.is_acyclic());
        for node in 0..3 {
            prop_assert!(learned.dag.parents(node).len() <= 3);
        }
    }
}
