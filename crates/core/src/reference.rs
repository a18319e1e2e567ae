//! The pre-compilation `Value`-keyed fit and scoring paths, retained as
//! oracles.
//!
//! [`BClean::fit`] constructs every model in code space and
//! [`BCleanModel::clean`] runs Algorithm 1 over dictionary codes through the
//! compiled models ([`bclean_bayesnet::CompiledNetwork`] + the code-indexed
//! compensatory tables); a [`BCleanModel`] holds no `Value`-keyed network.
//! This module keeps the original implementations in a [`ReferenceModel`]:
//! [`BClean::fit_reference`] learns `HashMap<Value, _>` tallies into a
//! [`BayesianNetwork`] and compiles them into the [`BCleanModel`] it returns
//! beside that network, and [`ReferenceModel::clean_reference`] scores by
//! hashing `Value`s through the network. They serve two purposes:
//!
//! * **equivalence testing**: the code-space engine must produce the same
//!   models and byte-identical repairs (`tests/encoded_equivalence.rs` and
//!   `tests/fit_equivalence.rs` check every variant and thread count);
//! * **benchmarking**: the speedups of the code-space fit and clean paths
//!   are measured against these (`BENCH_fit.json`, `BENCH_clean.json`,
//!   `benches/encoded.rs`).
//!
//! Neither is part of the supported API; both carry the allocation and
//! hashing costs the code-space engine was built to retire.

use std::time::Instant;

use bclean_bayesnet::{learn_structure, BayesianNetwork, CompiledNetwork};
use bclean_data::{CellRef, Dataset, Domains, EncodedDataset, Value};

use crate::cleaner::{attr_uc_column, BClean, BCleanModel};
use crate::compensatory::CompensatoryModel;
use crate::constraints::ConstraintSet;
use crate::exec::{merge_cleaning_batches, ParallelExecutor};
use crate::report::{CleaningResult, CleaningStats, Repair};

/// The `Value`-path oracle: the `Value`-keyed network learned by
/// [`BClean::fit_reference`] and the compiled model built from it.
#[derive(Debug, Clone)]
pub struct ReferenceModel {
    network: BayesianNetwork,
    model: BCleanModel,
}

impl BClean {
    /// Construction through the original `Value`-keyed path: structure
    /// learning groups `Value`s, CPTs are learned into `HashMap<Value, _>`
    /// tables and then compiled, the compensatory model builds serially and
    /// the FD-confidence matrix re-groups the rows. Produces the same fitted
    /// model as [`BClean::fit`], at pre-refactor speed, next to the network
    /// it was compiled from. Kept as the equivalence oracle and performance
    /// baseline of the code-space fit pipeline.
    pub fn fit_reference(&self, dataset: &Dataset) -> ReferenceModel {
        let start = Instant::now();
        let config = self.config().clone();
        let dag = learn_structure(dataset, config.structure).dag;
        let network = BayesianNetwork::learn(dataset, dag, config.alpha);
        let constraints =
            if config.use_constraints { self.constraints().clone() } else { ConstraintSet::new() };
        // Dictionary-encode once; the compiled models share the resulting
        // code space (see the code-order invariant in `bclean_data::encoded`).
        let encoded = EncodedDataset::from_dataset(dataset);
        let dicts = encoded.dicts();
        let compiled = CompiledNetwork::compile(&network, dicts);
        let attr_uc_ok = if config.use_constraints {
            (0..dicts.len())
                .map(|col| attr_uc_column(network.attribute_names().get(col), &dicts[col], &constraints))
                .collect()
        } else {
            Vec::new()
        };
        let empty = CompensatoryModel::empty(dicts.to_vec(), config.params);
        let compensatory = empty.absorbed(dataset, &constraints, &encoded, 0..dataset.num_rows());
        let domains = Domains::compute(dataset);
        let fd_confidence = fd_confidence_matrix(dataset);
        let model = BCleanModel {
            config,
            constraints,
            dag: network.dag().clone(),
            attribute_names: network.attribute_names().to_vec(),
            compiled,
            compensatory: std::sync::Arc::new(compensatory),
            domains,
            fd_confidence,
            attr_uc_ok,
            fit_duration: start.elapsed(),
        };
        ReferenceModel { network, model }
    }
}

/// Softened-FD confidence matrix over `Value` rows: entry `(k, j)` is how
/// reliably attribute `k` determines attribute `j` (average majority share
/// within `k`-value groups of size ≥ 2). The code-space fit derives the same
/// matrix from the compensatory model's co-occurrence counters
/// ([`CompensatoryModel::fd_confidence_matrix`]); this grouping
/// implementation is kept for the reference fit.
fn fd_confidence_matrix(dataset: &Dataset) -> Vec<Vec<f64>> {
    use std::collections::HashMap;
    let m = dataset.num_columns();
    let mut matrix = vec![vec![0.0; m]; m];
    for k in 0..m {
        // Group rows by the value of attribute k.
        let mut groups: HashMap<&Value, Vec<usize>> = HashMap::new();
        for (r, row) in dataset.rows().enumerate() {
            if !row[k].is_null() {
                groups.entry(&row[k]).or_default().push(r);
            }
        }
        for (j, slot) in matrix[k].iter_mut().enumerate() {
            if j == k {
                *slot = 1.0;
                continue;
            }
            let mut consistent = 0usize;
            let mut total = 0usize;
            for rows in groups.values() {
                if rows.len() < 2 {
                    continue;
                }
                let mut counts: HashMap<&Value, usize> = HashMap::new();
                for &r in rows {
                    let v = dataset.cell(r, j).expect("cell in range");
                    if !v.is_null() {
                        *counts.entry(v).or_insert(0) += 1;
                    }
                }
                let group_total: usize = counts.values().sum();
                consistent += counts.values().copied().max().unwrap_or(0);
                total += group_total;
            }
            *slot = if total == 0 { 0.0 } else { consistent as f64 / total as f64 };
        }
    }
    matrix
}

impl ReferenceModel {
    /// The `Value`-keyed network the oracle scores through.
    pub fn network(&self) -> &BayesianNetwork {
        &self.network
    }

    /// The compiled model built from [`ReferenceModel::network`].
    pub fn model(&self) -> &BCleanModel {
        &self.model
    }

    /// Clean a dataset through the original `Value`-keyed scoring path.
    ///
    /// Produces exactly the repairs, statistics and cleaned dataset of
    /// [`BCleanModel::clean`], at pre-compilation speed. Kept as the
    /// equivalence oracle and performance baseline of the encoded engine.
    pub fn clean_reference(&self, dataset: &Dataset) -> CleaningResult {
        let start = Instant::now();
        let n = dataset.num_rows();
        let executor = ParallelExecutor::for_config(&self.model.config, n);
        let batches = executor.execute(n, |rows| self.clean_rows_value(dataset, rows.start, rows.end));
        let (repairs, mut stats) = merge_cleaning_batches(batches);
        let mut cleaned = dataset.clone();
        for repair in &repairs {
            cleaned
                .set_cell(repair.at.row, repair.at.col, repair.to.clone())
                .expect("repair coordinates are valid");
        }
        stats.repairs = repairs.len();
        stats.rows_scored = n;
        stats.duration = start.elapsed();
        stats.fit_duration = self.model.fit_duration;
        CleaningResult { cleaned, repairs, stats }
    }

    /// Clean a contiguous range of rows (one parallel work unit).
    fn clean_rows_value(&self, dataset: &Dataset, lo: usize, hi: usize) -> (Vec<Repair>, CleaningStats) {
        let mut repairs = Vec::new();
        let mut stats = CleaningStats::default();
        for row_idx in lo..hi {
            let row = dataset.row(row_idx).expect("row index in range");
            for col in 0..dataset.num_columns() {
                if self.model.config.tuple_pruning
                    && !row[col].is_null()
                    && self.model.compensatory.filter_score(row, col) >= self.model.config.tau_clean
                {
                    stats.cells_skipped += 1;
                    continue;
                }
                stats.cells_examined += 1;
                if let Some(repair) = self.infer_cell_value(dataset, row_idx, row, col, &mut stats) {
                    repairs.push(repair);
                }
            }
        }
        (repairs, stats)
    }

    /// Algorithm 1 for one cell, over `Value`s.
    fn infer_cell_value(
        &self,
        dataset: &Dataset,
        row_idx: usize,
        row: &[Value],
        col: usize,
        stats: &mut CleaningStats,
    ) -> Option<Repair> {
        let original = &row[col];
        let anchor = self.anchor_context_value(row, col);
        let original_satisfies_uc = !self.model.config.use_constraints
            || (self
                .network
                .attribute_names()
                .get(col)
                .is_none_or(|name| self.model.constraints.check(name, original))
                && self.model.constraints.check_tuple_with(dataset.schema(), row, col, original));
        let original_score =
            if original_satisfies_uc { self.score_value(row, col, original) } else { f64::NEG_INFINITY };
        let mut best_value: Option<Value> = None;
        let mut best_score = original_score;

        let base_margin = if anchor.is_some() {
            self.model.config.repair_margin
        } else {
            self.model.config.no_anchor_margin
        };
        for candidate in self.candidates_for_value(dataset.schema(), row, col, original, anchor) {
            if &candidate == original {
                continue;
            }
            stats.candidates_evaluated += 1;
            let score = self.score_value(row, col, &candidate);
            let margin = if best_value.is_none() && original_score.is_finite() { base_margin } else { 0.0 };
            if score > best_score + margin {
                best_score = score;
                best_value = Some(candidate);
            }
        }

        best_value.map(|to| Repair {
            at: CellRef::new(row_idx, col),
            attribute: dataset.schema().attribute(col).map(|a| a.name.clone()).unwrap_or_default(),
            from: original.clone(),
            to,
            score_gain: if original_score.is_finite() { best_score - original_score } else { f64::INFINITY },
        })
    }

    /// The cell's anchor context (see the encoded twin for the definition).
    fn anchor_context_value(&self, row: &[Value], col: usize) -> Option<usize> {
        if !self.model.config.anchored_candidates {
            return None;
        }
        let mut best: Option<(usize, usize)> = None;
        for (k, value) in row.iter().enumerate() {
            if k == col || value.is_null() {
                continue;
            }
            if self.model.fd_confidence[k][col] < self.model.config.anchor_min_confidence {
                continue;
            }
            let count = self.model.compensatory.value_count(k, value);
            if count < 2 {
                continue;
            }
            if best.is_none_or(|(_, c)| count < c) {
                best = Some((k, count));
            }
        }
        best.map(|(k, _)| k)
    }

    /// Candidate generation over `Value`s (see the encoded twin).
    fn candidates_for_value(
        &self,
        schema: &bclean_data::Schema,
        row: &[Value],
        col: usize,
        original: &Value,
        anchor: Option<usize>,
    ) -> Vec<Value> {
        let domain = self.model.domains.attribute(col);
        let schema_check = |v: &Value| {
            !self.model.config.use_constraints
                || (self
                    .network
                    .attribute_names()
                    .get(col)
                    .is_none_or(|name| self.model.constraints.check(name, v))
                    && self.model.constraints.check_tuple_with(schema, row, col, v))
        };
        let anchored = |v: &Value| match anchor {
            Some(k) => self.model.compensatory.pair_count(col, v, k, &row[k]) >= 1,
            None => true,
        };
        let mut candidates: Vec<Value> =
            domain.values().iter().filter(|v| schema_check(v) && anchored(v)).cloned().collect();

        if self.model.config.domain_pruning && candidates.len() > self.model.config.domain_top_k {
            let mut context = self.network.dag().joint_set(col);
            if context.len() <= 1 {
                context = (0..row.len()).collect();
            }
            let mut scored: Vec<(f64, Value)> = candidates
                .into_iter()
                .map(|c| (self.model.compensatory.tfidf_score(row, col, &c, &context), c))
                .collect();
            scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
            candidates = scored.into_iter().take(self.model.config.domain_top_k).map(|(_, c)| c).collect();
        }

        if !original.is_null() && !candidates.iter().any(|c| c == original) {
            candidates.push(original.clone());
        }
        candidates
    }

    /// The Algorithm 1 score of one candidate over `Value`s (see the encoded
    /// twin for the scoring rationale).
    fn score_value(&self, row: &[Value], col: usize, candidate: &Value) -> f64 {
        let has_parents = !self.network.dag().parents(col).is_empty();
        let bn_score = if self.model.config.partitioned_inference {
            if has_parents {
                self.network.blanket_log_score(row, col, candidate)
            } else {
                self.network.children_log_likelihood(row, col, candidate)
            }
        } else {
            let joint = self.network.log_joint_with(row, col, candidate);
            if has_parents {
                joint
            } else {
                joint - self.network.cpt(col).marginal_prob(candidate).max(1e-300).ln()
            }
        };
        let comp_score = if self.model.config.use_compensatory {
            self.model.compensatory.log_score(row, col, candidate)
        } else {
            0.0
        };
        bn_score + comp_score
    }
}

#[cfg(test)]
mod tests {
    use crate::cleaner::BClean;
    use crate::config::Variant;
    use crate::constraints::{ConstraintSet, UserConstraint};
    use bclean_data::dataset_from;

    /// The compiled engine and the reference path must agree repair-for-repair
    /// (the large-fixture equivalence lives in `tests/encoded_equivalence.rs`).
    #[test]
    fn reference_path_matches_compiled_engine() {
        let data = dataset_from(
            &["City", "State", "ZipCode"],
            &[
                vec!["sylacauga", "CA", "35150"],
                vec!["sylacauga", "CA", "35150"],
                vec!["sylacauga", "KT", "35150"],
                vec!["sylacaugq", "CA", "35150"],
                vec!["centre", "KT", "35960"],
                vec!["centre", "KT", "35960"],
                vec!["centre", "", "35960"],
                vec!["centre", "KT", "35960"],
            ],
        );
        let mut ucs = ConstraintSet::new();
        ucs.add("ZipCode", UserConstraint::pattern("^[1-9][0-9]{4,4}$").unwrap());
        ucs.add("State", UserConstraint::NotNull);
        for variant in Variant::all() {
            let cleaner = BClean::new(variant.config()).with_constraints(ucs.clone());
            let compiled = cleaner.fit(&data).clean(&data);
            let oracle = cleaner.fit_reference(&data);
            let reference = oracle.clean_reference(&data);
            assert_eq!(compiled.repairs, reference.repairs, "variant {variant:?}");
            assert_eq!(compiled.cleaned, reference.cleaned, "variant {variant:?}");
            assert_eq!(compiled.stats.cells_examined, reference.stats.cells_examined);
            assert_eq!(compiled.stats.candidates_evaluated, reference.stats.candidates_evaluated);
            assert_eq!(oracle.model().clean(&data).repairs, reference.repairs, "variant {variant:?}");
            assert_eq!(oracle.model().dag(), oracle.network().dag());
        }
    }
}
