//! Bayesian-network skeleton construction from the inverse covariance matrix.
//!
//! Pipeline (paper §4):
//! 1. similarity samples (see [`crate::structure::fdx`]);
//! 2. empirical covariance `Σ` of the samples (standardised to a correlation
//!    matrix so the graphical-lasso penalty is scale-free);
//! 3. graphical lasso ⇒ sparse precision matrix `Θ = Σ⁻¹`;
//! 4. decomposition `Θ = (I − B) Ω (I − B)ᵀ` under an attribute ordering,
//!    realised as an LDLᵀ factorisation of the permuted `Θ`: with
//!    `Θ_π = L D Lᵀ` and `L` unit lower triangular, `B = I − L` is the
//!    weighted adjacency (autoregression) matrix of the skeleton;
//! 5. thresholding: only edges whose |weight| exceeds `weight_threshold` are
//!    kept, and each node keeps at most `max_parents` strongest parents.
//!
//! The attribute ordering is a heuristic (higher-cardinality attributes
//! first), which matches the intuition that FD determinants such as `ZipCode`
//! have more distinct values than their dependents such as `State`. Users can
//! always repair a wrong orientation through the network editor, exactly as
//! the paper's user-interaction step does.

use bclean_data::{cooc, mode_share, AttrType, Dataset, Domains, EncodedDataset};
use bclean_linalg::{correlation_matrix, graphical_lasso, ldl, GlassoConfig, Matrix};

use crate::graph::Dag;
use crate::structure::fdx::{similarity_samples, similarity_samples_encoded, FdxConfig};

/// Configuration for structure learning.
#[derive(Debug, Clone, Copy)]
pub struct StructureConfig {
    /// Similarity sampling configuration.
    pub fdx: FdxConfig,
    /// Graphical-lasso configuration.
    pub glasso: GlassoConfig,
    /// Minimum |B| weight for an edge to be kept.
    pub weight_threshold: f64,
    /// Maximum number of parents per node.
    pub max_parents: usize,
    /// Minimum *lift* of an edge over the child's unconditional majority
    /// share: an edge `X → Y` is only kept when knowing `X` makes `Y` at
    /// least this much more predictable than its marginal mode already does.
    /// This removes spurious edges between attributes that merely co-vary
    /// through a shared key (both functionally determined by the same entity)
    /// without one actually determining the other.
    pub min_fd_lift: f64,
}

impl Default for StructureConfig {
    fn default() -> Self {
        StructureConfig {
            fdx: FdxConfig::default(),
            glasso: GlassoConfig { rho: 0.05, ..Default::default() },
            weight_threshold: 0.15,
            max_parents: 3,
            min_fd_lift: 0.05,
        }
    }
}

/// Result of structure learning.
#[derive(Debug, Clone)]
pub struct LearnedStructure {
    /// The thresholded skeleton as a DAG.
    pub dag: Dag,
    /// The full weighted adjacency matrix `B` (entry `(i, j)` is the weight of
    /// edge `i → j` before thresholding).
    pub weights: Matrix,
    /// The estimated precision matrix `Θ`.
    pub precision: Matrix,
    /// The attribute ordering used by the decomposition (parents first).
    pub ordering: Vec<usize>,
}

/// Learn a Bayesian-network skeleton from a (possibly dirty) dataset.
pub fn learn_structure(dataset: &Dataset, config: StructureConfig) -> LearnedStructure {
    let m = dataset.num_columns();
    let empty = || LearnedStructure {
        dag: Dag::new(m),
        weights: Matrix::zeros(m, m),
        precision: Matrix::identity(m.max(1)),
        ordering: (0..m).collect(),
    };

    let Some(samples) = similarity_samples(dataset, config.fdx) else {
        return empty();
    };
    // Similarity observations live on very different scales per attribute
    // (near-constant 1.0 for clean categorical columns, spread out for noisy
    // text); standardising to a correlation matrix makes the ℓ₁ penalty
    // scale-free, mirroring FDX's standardisation of its sample matrix.
    let Ok(cov) = correlation_matrix(&samples) else {
        return empty();
    };
    let Ok(glasso_result) = graphical_lasso(&cov, config.glasso) else {
        return empty();
    };
    let precision = glasso_result.precision;

    // Attribute ordering: higher observed cardinality first (FD determinants
    // tend to have more distinct values than their dependents).
    let domains = Domains::compute(dataset);
    let mut ordering: Vec<usize> = (0..m).collect();
    ordering.sort_by(|&a, &b| {
        domains.attribute(b).cardinality().cmp(&domains.attribute(a).cardinality()).then(a.cmp(&b))
    });

    let weights = autoregression_matrix(&precision, &ordering);
    let mut dag = threshold_to_dag(&weights, config.weight_threshold, config.max_parents);
    prune_low_lift_edges(dataset, &mut dag, config.min_fd_lift);
    LearnedStructure { dag, weights, precision, ordering }
}

/// Code-space [`learn_structure`]: the identical pipeline over a
/// dictionary-encoded dataset. Sampling runs through the memoised
/// [`similarity_samples_encoded`], the cardinality ordering reads the
/// dictionaries directly, and the low-lift edge pruning replaces its
/// `Value` hash-map groupings with passes over the code columns
/// ([`cooc::fd_confidence`]) — every step reproduces its `Value`-path twin
/// bit-for-bit, so the learned structure is the same [`LearnedStructure`].
///
/// `types` are the schema attribute types in column order (the encoding
/// itself carries no schema).
pub fn learn_structure_encoded(
    encoded: &EncodedDataset,
    types: &[AttrType],
    config: StructureConfig,
) -> LearnedStructure {
    let m = encoded.num_columns();
    let empty = || LearnedStructure {
        dag: Dag::new(m),
        weights: Matrix::zeros(m, m),
        precision: Matrix::identity(m.max(1)),
        ordering: (0..m).collect(),
    };

    let Some(samples) = similarity_samples_encoded(encoded, types, config.fdx) else {
        return empty();
    };
    let Ok(cov) = correlation_matrix(&samples) else {
        return empty();
    };
    let Ok(glasso_result) = graphical_lasso(&cov, config.glasso) else {
        return empty();
    };
    let precision = glasso_result.precision;

    // Higher observed cardinality first — the dictionaries already know the
    // distinct-value counts, so no domain pass is needed.
    let mut ordering: Vec<usize> = (0..m).collect();
    ordering
        .sort_by(|&a, &b| encoded.dict(b).cardinality().cmp(&encoded.dict(a).cardinality()).then(a.cmp(&b)));

    let weights = autoregression_matrix(&precision, &ordering);
    let mut dag = threshold_to_dag(&weights, config.weight_threshold, config.max_parents);
    prune_low_lift_edges_encoded(encoded, &mut dag, config.min_fd_lift);
    LearnedStructure { dag, weights, precision, ordering }
}

/// Code-space [`prune_low_lift_edges`]: softened-FD confidence from one
/// counting sort of the edge's code columns ([`cooc::fd_confidence`]),
/// marginal mode share from the column code counts — the same integer
/// ratios the `Value` groupings produce.
fn prune_low_lift_edges_encoded(encoded: &EncodedDataset, dag: &mut Dag, min_lift: f64) {
    if encoded.num_rows() == 0 || min_lift <= 0.0 {
        return;
    }
    for (from, to) in dag.edges() {
        let conf = cooc::fd_confidence(encoded, from, to);
        let baseline = mode_share(encoded, to);
        if conf < baseline + min_lift && conf < 0.999 {
            let _ = dag.remove_edge(from, to);
        }
    }
}

/// Remove edges whose determinant does not actually make the dependent more
/// predictable than its marginal mode (softened-FD validation on values, not
/// similarities).
fn prune_low_lift_edges(dataset: &Dataset, dag: &mut Dag, min_lift: f64) {
    if dataset.num_rows() == 0 || min_lift <= 0.0 {
        return;
    }
    for (from, to) in dag.edges() {
        let conf = fd_confidence(dataset, from, to);
        let baseline = marginal_mode_share(dataset, to);
        if conf < baseline + min_lift && conf < 0.999 {
            let _ = dag.remove_edge(from, to);
        }
    }
}

/// How well column `from` determines column `to`: the average (over rows of
/// groups with ≥ 2 members) probability of the group's majority value.
fn fd_confidence(dataset: &Dataset, from: usize, to: usize) -> f64 {
    use std::collections::HashMap;
    let mut groups: HashMap<&bclean_data::Value, HashMap<&bclean_data::Value, usize>> = HashMap::new();
    for row in dataset.rows() {
        if row[from].is_null() || row[to].is_null() {
            continue;
        }
        *groups.entry(&row[from]).or_default().entry(&row[to]).or_insert(0) += 1;
    }
    let mut consistent = 0usize;
    let mut total = 0usize;
    for counts in groups.values() {
        let group_total: usize = counts.values().sum();
        if group_total < 2 {
            continue;
        }
        let majority = counts.values().copied().max().unwrap_or(0);
        consistent += majority;
        total += group_total;
    }
    if total == 0 {
        0.0
    } else {
        consistent as f64 / total as f64
    }
}

/// Share of the most frequent non-null value of a column.
fn marginal_mode_share(dataset: &Dataset, col: usize) -> f64 {
    use std::collections::HashMap;
    let mut counts: HashMap<&bclean_data::Value, usize> = HashMap::new();
    let mut total = 0usize;
    for row in dataset.rows() {
        if !row[col].is_null() {
            *counts.entry(&row[col]).or_insert(0) += 1;
            total += 1;
        }
    }
    if total == 0 {
        0.0
    } else {
        counts.values().copied().max().unwrap_or(0) as f64 / total as f64
    }
}

/// Decompose `Θ = (I − B) Ω (I − B)ᵀ` under `ordering` and return `B` in the
/// original attribute index space (entry `(i, j)` = weight of edge `i → j`).
pub fn autoregression_matrix(precision: &Matrix, ordering: &[usize]) -> Matrix {
    let m = precision.nrows();
    debug_assert_eq!(ordering.len(), m);
    // Permute Θ into the chosen ordering.
    let mut theta_pi = Matrix::zeros(m, m);
    for i in 0..m {
        for j in 0..m {
            theta_pi.set(i, j, precision.get(ordering[i], ordering[j]));
        }
    }
    // LDLᵀ; if it fails (Θ numerically indefinite), fall back to a normalised
    // partial-correlation matrix which carries the same dependency signal.
    let l = match ldl(&theta_pi) {
        Ok((l, _d)) => l,
        Err(_) => {
            let mut w = Matrix::zeros(m, m);
            for i in 0..m {
                for j in 0..m {
                    if i == j {
                        continue;
                    }
                    let denom = (precision.get(i, i) * precision.get(j, j)).abs().sqrt();
                    let pc = if denom > 1e-12 { -precision.get(i, j) / denom } else { 0.0 };
                    // Only keep the direction consistent with the ordering.
                    let pos_i = ordering.iter().position(|&x| x == i).unwrap_or(0);
                    let pos_j = ordering.iter().position(|&x| x == j).unwrap_or(0);
                    if pos_i < pos_j {
                        w.set(i, j, pc.abs());
                    }
                }
            }
            return w;
        }
    };
    // B = I − L is strictly lower triangular in the permuted space; the entry
    // at permuted (i, j) with i > j is an edge ordering[j] → ordering[i].
    let mut weights = Matrix::zeros(m, m);
    for i in 0..m {
        for j in 0..i {
            let w = -l.get(i, j);
            weights.set(ordering[j], ordering[i], w.abs());
        }
    }
    weights
}

/// Keep edges with weight ≥ `threshold`, at most `max_parents` per node,
/// added in decreasing weight order while preserving acyclicity.
pub fn threshold_to_dag(weights: &Matrix, threshold: f64, max_parents: usize) -> Dag {
    let m = weights.nrows();
    let mut dag = Dag::new(m);
    let mut candidates: Vec<(f64, usize, usize)> = Vec::new();
    for i in 0..m {
        for j in 0..m {
            if i != j {
                let w = weights.get(i, j);
                if w >= threshold {
                    candidates.push((w, i, j));
                }
            }
        }
    }
    candidates.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    for (_, from, to) in candidates {
        if dag.parents(to).len() >= max_parents {
            continue;
        }
        // Ignore edges that would create a cycle; the ordering already makes
        // this rare, but the partial-correlation fall-back path can propose both
        // orientations.
        let _ = dag.add_edge(from, to);
    }
    dag
}

#[cfg(test)]
mod tests {
    use super::*;
    use bclean_data::dataset_from;

    /// Dataset with a strong Zip -> State dependency and an independent column.
    fn fd_dataset() -> Dataset {
        let mut rows = Vec::new();
        let zips = ["35150", "35960", "36750", "35901"];
        let states = ["CA", "KT", "AL", "NY"];
        let noise = ["q", "w", "e", "r", "t", "y", "u", "i"];
        for i in 0..64usize {
            let z = i % 4;
            rows.push(vec![zips[z], states[z], noise[(i * 7) % 8]]);
        }
        dataset_from(&["Zip", "State", "Noise"], &rows.iter().map(|r| r.to_vec()).collect::<Vec<_>>())
    }

    #[test]
    fn learns_dependency_edge() {
        let s = learn_structure(&fd_dataset(), StructureConfig::default());
        // There must be an edge between Zip (0) and State (1), in either
        // orientation, and it should be Zip -> State given the cardinality
        // ordering (4 distinct zips vs 4 distinct states is a tie broken by
        // index, so Zip comes first).
        assert!(
            s.dag.has_edge(0, 1) || s.dag.has_edge(1, 0),
            "expected a Zip~State edge, got {:?}",
            s.dag.edges()
        );
        assert!(s.dag.is_acyclic());
    }

    #[test]
    fn independent_column_stays_sparse() {
        let s = learn_structure(&fd_dataset(), StructureConfig::default());
        // Noise (2) should not be connected to Zip (0): its similarity column
        // is uncorrelated with the others.
        assert!(!s.dag.has_edge(0, 2) && !s.dag.has_edge(2, 0), "edges: {:?}", s.dag.edges());
    }

    #[test]
    fn ordering_is_a_permutation() {
        let s = learn_structure(&fd_dataset(), StructureConfig::default());
        let mut o = s.ordering.clone();
        o.sort_unstable();
        assert_eq!(o, vec![0, 1, 2]);
    }

    #[test]
    fn weights_matrix_is_nonnegative() {
        let s = learn_structure(&fd_dataset(), StructureConfig::default());
        for i in 0..3 {
            for j in 0..3 {
                assert!(s.weights.get(i, j) >= 0.0);
            }
        }
    }

    #[test]
    fn tiny_dataset_yields_empty_dag() {
        let tiny = dataset_from(&["a", "b"], &[vec!["1", "2"]]);
        let s = learn_structure(&tiny, StructureConfig::default());
        assert_eq!(s.dag.num_edges(), 0);
    }

    #[test]
    fn high_threshold_removes_all_edges() {
        let cfg = StructureConfig { weight_threshold: 1e9, ..Default::default() };
        let s = learn_structure(&fd_dataset(), cfg);
        assert_eq!(s.dag.num_edges(), 0);
    }

    #[test]
    fn max_parents_respected() {
        // Fully correlated attributes: every column equals every other.
        let rows: Vec<Vec<&str>> = (0..40)
            .map(|i| if i % 2 == 0 { vec!["a", "a", "a", "a"] } else { vec!["b", "b", "b", "b"] })
            .collect();
        let d = dataset_from(&["w", "x", "y", "z"], &rows);
        let cfg = StructureConfig { max_parents: 1, weight_threshold: 0.01, ..Default::default() };
        let s = learn_structure(&d, cfg);
        for node in 0..4 {
            assert!(s.dag.parents(node).len() <= 1);
        }
    }

    #[test]
    fn threshold_to_dag_orders_by_weight() {
        let mut w = Matrix::zeros(3, 3);
        w.set(0, 1, 0.9);
        w.set(1, 2, 0.5);
        w.set(2, 0, 0.4); // would close a cycle; must be skipped
        let dag = threshold_to_dag(&w, 0.1, 3);
        assert!(dag.has_edge(0, 1));
        assert!(dag.has_edge(1, 2));
        assert!(!dag.has_edge(2, 0));
        assert!(dag.is_acyclic());
    }

    /// The encoded learner must reproduce the `Value`-path structure
    /// exactly: same DAG, same weights, same precision, same ordering.
    #[test]
    fn encoded_structure_matches_value_structure() {
        let mut noisy_rows = Vec::new();
        let zips = ["35150", "35960", "36750", ""];
        let states = ["CA", "KT", "AL", "KT"];
        for i in 0..80usize {
            let z = i % 4;
            noisy_rows.push(vec![zips[z], states[z], if i % 5 == 0 { "" } else { "n" }]);
        }
        let noisy = dataset_from(
            &["Zip", "State", "Noise"],
            &noisy_rows.iter().map(|r| r.to_vec()).collect::<Vec<_>>(),
        );
        for dataset in [&fd_dataset(), &noisy] {
            let types: Vec<_> =
                (0..dataset.num_columns()).map(|c| dataset.schema().attribute(c).unwrap().ty).collect();
            let encoded = EncodedDataset::from_dataset(dataset);
            let reference = learn_structure(dataset, StructureConfig::default());
            let fast = learn_structure_encoded(&encoded, &types, StructureConfig::default());
            assert_eq!(reference.dag.edges(), fast.dag.edges());
            assert_eq!(reference.ordering, fast.ordering);
            for i in 0..dataset.num_columns() {
                for j in 0..dataset.num_columns() {
                    assert_eq!(reference.weights.get(i, j).to_bits(), fast.weights.get(i, j).to_bits());
                    assert_eq!(reference.precision.get(i, j).to_bits(), fast.precision.get(i, j).to_bits());
                }
            }
        }
    }

    #[test]
    fn encoded_structure_empty_inputs() {
        let tiny = dataset_from(&["a", "b"], &[vec!["1", "2"]]);
        let types: Vec<_> = (0..2).map(|c| tiny.schema().attribute(c).unwrap().ty).collect();
        let encoded = EncodedDataset::from_dataset(&tiny);
        let s = learn_structure_encoded(&encoded, &types, StructureConfig::default());
        assert_eq!(s.dag.num_edges(), 0);
        assert_eq!(s.ordering, vec![0, 1]);
    }

    #[test]
    fn autoregression_matrix_identity_precision_is_zero() {
        let b = autoregression_matrix(&Matrix::identity(4), &[0, 1, 2, 3]);
        assert!(b.frobenius_norm() < 1e-9);
    }
}
