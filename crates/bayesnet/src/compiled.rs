//! Code-indexed compilation of learned networks for the inference hot path.
//!
//! [`crate::Cpt`] keys its learned counts by heap-allocated [`Value`]s, so
//! every probability lookup during cleaning hashes (and, for parent
//! configurations, clones) strings. [`CompiledCpt`] flattens each table into
//! dense `Vec<f64>` rows of **pre-floored log probabilities** indexed by the
//! dictionary codes of a [`ColumnDict`] slice, and [`CompiledNetwork`]
//! mirrors the scoring entry points of [`BayesianNetwork`]
//! (`blanket_log_score`, `children_log_likelihood`, `log_joint_with`) over
//! `&[u32]` rows. The compiled scores are bit-identical to the `Value`-path
//! scores: the same counts enter the same floating-point expressions in the
//! same order, only the lookups change.
//!
//! # Code layout
//!
//! The compilation relies on the code-order invariant of
//! [`bclean_data::encoded`]: code `i < cardinality` of column `j` denotes the
//! `i`-th sorted distinct non-null value of that column — the same order as
//! `AttributeDomain`. Each compiled table row has
//! `cardinality + 2` slots:
//!
//! * `0..cardinality` — the dictionary values, in code order;
//! * `cardinality` — [`Value::Null`] (nulls are ordinary observations in the
//!   learned counts);
//! * `cardinality + 1` — the *zero-count* slot: the smoothed probability of
//!   any value never observed under that configuration. Unseen codes
//!   (`ColumnDict::unseen_code` and beyond) clamp onto this slot, which is
//!   exactly the probability the `Value` path assigns them.
//!
//! Parent configurations are mixed-radix indices over the parents' code
//! spaces (`cardinality + 1`, nulls included). Small tables are stored dense
//! (every configuration materialised, unobserved ones holding the marginal
//! fallback row); large ones keep a `u128 → row` map over observed
//! configurations only and fall back to the marginal row on misses — the
//! same fallback [`crate::Cpt::prob`] applies to unseen parents.

use std::collections::HashMap;

use bclean_data::{ColumnDict, Value};

use crate::counts::{config_space, CountLayout, NodeCounts};
use crate::cpt::Cpt;
use crate::graph::Dag;
use crate::network::BayesianNetwork;

/// Maximum number of `f64` cells a dense table may occupy (8 MiB). Tables
/// whose full mixed-radix configuration space would exceed this use the
/// sparse observed-configuration layout instead. The budget is the
/// workspace-wide [`bclean_data::DENSE_CELL_CAP`], shared with
/// [`crate::counts`] so the counting and compiled layouts always agree.
pub(crate) const DENSE_CELL_CAP: u128 = bclean_data::DENSE_CELL_CAP;

/// Sentinel for "no parent override" in the internal scoring calls.
const NO_OVERRIDE: usize = usize::MAX;

/// How a compiled table addresses its parent-configuration rows.
#[derive(Debug, Clone)]
enum CptLayout {
    /// Every mixed-radix configuration has a row; unobserved configurations
    /// hold a copy of the marginal fallback row.
    Dense,
    /// Only observed configurations have rows; the map yields the row offset
    /// (in `f64` cells) and misses fall back to the marginal row.
    Sparse(HashMap<u128, usize>),
}

/// One node's CPT compiled to code-indexed log-probability rows.
#[derive(Debug, Clone)]
pub struct CompiledCpt {
    parents: Vec<usize>,
    /// Parent code spaces (`cardinality + 1`, nulls included).
    radices: Vec<u32>,
    /// Mixed-radix strides matching `radices`.
    strides: Vec<u128>,
    /// Row width: node cardinality + null slot + zero-count slot.
    value_space: usize,
    /// Marginal fallback row (also the whole table for parentless nodes).
    marginal: Vec<f64>,
    /// Concatenated per-configuration rows, `value_space` cells each.
    rows: Vec<f64>,
    layout: CptLayout,
}

impl CompiledCpt {
    /// Compile one learned CPT against the dataset's dictionaries.
    pub fn compile(cpt: &Cpt, dicts: &[ColumnDict]) -> CompiledCpt {
        CompiledCpt::compile_with_cap(cpt, dicts, DENSE_CELL_CAP)
    }

    /// Compilation with an explicit dense-layout budget (tests use a zero
    /// budget to force the sparse layout).
    fn compile_with_cap(cpt: &Cpt, dicts: &[ColumnDict], dense_cell_cap: u128) -> CompiledCpt {
        let node_dict = &dicts[cpt.node()];
        let value_space = node_dict.cardinality() + 2;
        let parents = cpt.parents().to_vec();
        let (radices, strides, total_configs, overflow) = config_space(&parents, dicts);

        // Replicates Cpt::marginal_prob bit-for-bit, then floors + logs the
        // way every scoring caller does (`.max(1e-300).ln()`).
        let domain_size = cpt.domain_size();
        let marginal_denom = cpt.marginal_total as f64 + cpt.alpha * domain_size as f64;
        let marginal: Vec<f64> = (0..value_space)
            .map(|slot| {
                let count = slot_count(&cpt.marginal, node_dict, slot) as f64;
                let p = if marginal_denom <= 0.0 {
                    1.0 / domain_size as f64
                } else {
                    (count + cpt.alpha) / marginal_denom
                };
                p.max(1e-300).ln()
            })
            .collect();

        let dense = !overflow && total_configs.saturating_mul(value_space as u128) <= dense_cell_cap;
        let mut rows: Vec<f64> = if dense {
            // Unobserved configurations fall back to the marginal row; storing
            // that row directly keeps the dense lookup branch-free.
            let mut rows = Vec::with_capacity(total_configs as usize * value_space);
            for _ in 0..total_configs {
                rows.extend_from_slice(&marginal);
            }
            rows
        } else {
            Vec::new()
        };
        let mut sparse: HashMap<u128, usize> = HashMap::new();

        for (config, (counts, total)) in &cpt.table {
            let Some(index) = encode_config(config, &parents, &radices, &strides, dicts) else {
                // A parent value outside its dictionary can never be produced
                // by encoding a row against these dictionaries, so the
                // configuration is unreachable from code space.
                continue;
            };
            let offset = if dense {
                index as usize * value_space
            } else {
                let offset = rows.len();
                rows.resize(offset + value_space, 0.0);
                sparse.insert(index, offset);
                offset
            };
            let denom = *total as f64 + cpt.alpha * domain_size as f64;
            for slot in 0..value_space {
                let count = slot_count(counts, node_dict, slot) as f64;
                rows[offset + slot] = ((count + cpt.alpha) / denom).max(1e-300).ln();
            }
        }

        CompiledCpt {
            parents,
            radices,
            strides,
            value_space,
            marginal,
            rows,
            layout: if dense { CptLayout::Dense } else { CptLayout::Sparse(sparse) },
        }
    }

    /// Build the compiled table **directly** from code-space sufficient
    /// statistics ([`NodeCounts`]) — the fast fit path, which never
    /// materialises a `Value`-keyed table. Produces exactly the scores of
    /// [`CompiledCpt::compile`] applied to the equivalent [`Cpt`]: the same
    /// integer counts enter the same floating-point expressions.
    pub fn from_counts(counts: &NodeCounts, alpha: f64) -> CompiledCpt {
        // Row width adds the zero-count slot to the node's decodable codes.
        let value_space = counts.value_slots + 1;
        // Distinct observed values of the node (nulls are ordinary
        // observations), exactly `Cpt::domain_size`.
        let domain_size = counts.marginal.iter().filter(|&&c| c > 0).count().max(1);
        let slot_count = |table: &[u32], slot: usize| -> f64 {
            if slot < counts.value_slots {
                table[slot] as f64
            } else {
                0.0
            }
        };

        let marginal_denom = counts.total as f64 + alpha * domain_size as f64;
        let marginal: Vec<f64> = (0..value_space)
            .map(|slot| {
                let count = slot_count(&counts.marginal, slot);
                let p = if marginal_denom <= 0.0 {
                    1.0 / domain_size as f64
                } else {
                    (count + alpha) / marginal_denom
                };
                p.max(1e-300).ln()
            })
            .collect();

        let mut rows: Vec<f64> = Vec::new();
        let mut sparse: HashMap<u128, usize> = HashMap::new();
        let fill_row = |rows: &mut Vec<f64>, offset: usize, table: &[u32], total: u32| {
            let denom = total as f64 + alpha * domain_size as f64;
            for slot in 0..value_space {
                rows[offset + slot] = ((slot_count(table, slot) + alpha) / denom).max(1e-300).ln();
            }
        };
        if counts.parents.is_empty() {
            // Parentless nodes score through the marginal row; keep the same
            // single-row layout `compile` produces.
            rows.extend_from_slice(&marginal);
        } else {
            match &counts.layout {
                CountLayout::Dense { counts: tables, totals } => {
                    rows.reserve(totals.len() * value_space);
                    for _ in 0..totals.len() {
                        rows.extend_from_slice(&marginal);
                    }
                    for (config, &total) in totals.iter().enumerate() {
                        if total == 0 {
                            continue;
                        }
                        let table = &tables[config * counts.value_slots..(config + 1) * counts.value_slots];
                        fill_row(&mut rows, config * value_space, table, total);
                    }
                }
                CountLayout::Sparse(map) => {
                    for (&index, (table, total)) in map {
                        let offset = rows.len();
                        rows.resize(offset + value_space, 0.0);
                        sparse.insert(index, offset);
                        fill_row(&mut rows, offset, table, *total);
                    }
                }
            }
        }

        CompiledCpt {
            parents: counts.parents.clone(),
            radices: counts.radices.clone(),
            strides: counts.strides.clone(),
            value_space,
            marginal,
            rows,
            layout: if counts.dense { CptLayout::Dense } else { CptLayout::Sparse(sparse) },
        }
    }

    /// Clamp a value code onto its row slot: dictionary codes map to
    /// themselves, the null code to the null slot, anything beyond (unseen
    /// codes) to the zero-count slot.
    #[inline]
    fn slot(&self, code: u32) -> usize {
        (code as usize).min(self.value_space - 1)
    }

    /// Pre-floored log marginal probability of a value code.
    #[inline]
    pub fn log_marginal(&self, code: u32) -> f64 {
        self.marginal[self.slot(code)]
    }

    /// Pre-floored `log Pr[value | parents]`, reading parent codes from
    /// `codes` except that parent `override_node` (if any) reads
    /// `override_code`. Falls back to the marginal row for configurations
    /// outside the compiled table, exactly like [`crate::Cpt::prob`].
    #[inline]
    fn log_prob(&self, codes: &[u32], value: u32, override_node: usize, override_code: u32) -> f64 {
        if self.parents.is_empty() {
            return self.marginal[self.slot(value)];
        }
        let mut index: u128 = 0;
        for (i, &p) in self.parents.iter().enumerate() {
            let code = if p == override_node { override_code } else { codes[p] };
            if code >= self.radices[i] {
                // Unseen parent value: no observed configuration can match.
                return self.marginal[self.slot(value)];
            }
            index += code as u128 * self.strides[i];
        }
        let offset = match &self.layout {
            CptLayout::Dense => index as usize * self.value_space,
            CptLayout::Sparse(map) => match map.get(&index) {
                Some(&offset) => offset,
                None => return self.marginal[self.slot(value)],
            },
        };
        self.rows[offset + self.slot(value)]
    }

    /// Pre-floored `log Pr[value | parents]` with every parent code read
    /// from the code row `codes`: the compiled form of
    /// `cpt.prob_given_row(v, row).max(1e-300).ln()`. Equivalence tests
    /// probe tables through this.
    pub fn log_prob_row(&self, codes: &[u32], value: u32) -> f64 {
        self.log_prob(codes, value, NO_OVERRIDE, 0)
    }
}

/// Count of the value denoted by `slot` in a `Value`-keyed count map. Slots
/// are dictionary codes (plus the trailing zero-count slot), so the mapping
/// goes through the dictionary's own layout: the null code may trail the
/// values (fresh dictionaries) or sit frozen mid-space (appended ones).
fn slot_count(counts: &HashMap<Value, usize>, dict: &ColumnDict, slot: usize) -> usize {
    let code = slot as u32;
    if code == dict.null_code() {
        counts.get(&Value::Null).copied().unwrap_or(0)
    } else if dict.is_value_code(code) {
        counts.get(&dict.values()[slot]).copied().unwrap_or(0)
    } else {
        0
    }
}

/// Mixed-radix index of a `Value` parent configuration, or `None` when a
/// parent value is absent from its dictionary.
fn encode_config(
    config: &[Value],
    parents: &[usize],
    radices: &[u32],
    strides: &[u128],
    dicts: &[ColumnDict],
) -> Option<u128> {
    let mut index: u128 = 0;
    for (i, value) in config.iter().enumerate() {
        let code = dicts[parents[i]].encode(value)?;
        debug_assert!(code < radices[i]);
        index += code as u128 * strides[i];
    }
    Some(index)
}

/// A fully compiled network: one [`CompiledCpt`] per node plus the DAG's
/// adjacency, scoring `&[u32]` code rows without touching a single [`Value`].
#[derive(Debug, Clone)]
pub struct CompiledNetwork {
    nodes: Vec<CompiledCpt>,
    parents: Vec<Vec<usize>>,
    children: Vec<Vec<usize>>,
}

impl CompiledNetwork {
    /// Compile every CPT of `network` against the dataset's dictionaries.
    /// The dictionaries must come from (or at least cover) the dataset the
    /// network was learned on; values outside them simply score through the
    /// marginal/zero-count fallbacks.
    pub fn compile(network: &BayesianNetwork, dicts: &[ColumnDict]) -> CompiledNetwork {
        assert_eq!(network.num_nodes(), dicts.len(), "network node count must match the dictionary count");
        let nodes = (0..network.num_nodes()).map(|n| CompiledCpt::compile(network.cpt(n), dicts)).collect();
        CompiledNetwork::from_parts(nodes, network.dag())
    }

    /// Assemble a network from per-node compiled tables and the DAG they
    /// were learned against. This is how the code-space fit path builds the
    /// network: each [`CompiledCpt`] comes straight from
    /// [`CompiledCpt::from_counts`] (possibly accumulated in parallel), no
    /// `Value`-space [`BayesianNetwork`] required.
    pub fn from_parts(nodes: Vec<CompiledCpt>, dag: &Dag) -> CompiledNetwork {
        assert_eq!(nodes.len(), dag.num_nodes(), "one compiled CPT per DAG node");
        let parents = (0..dag.num_nodes()).map(|n| dag.parents(n)).collect();
        let children = (0..dag.num_nodes()).map(|n| dag.children(n)).collect();
        CompiledNetwork { nodes, parents, children }
    }

    /// Number of nodes (attributes).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// One node's compiled table (incremental recompiles clone unchanged
    /// nodes from a previous compilation through this).
    pub fn node(&self, node: usize) -> &CompiledCpt {
        &self.nodes[node]
    }

    /// Does `node` have parents in the DAG?
    pub fn has_parents(&self, node: usize) -> bool {
        !self.parents[node].is_empty()
    }

    /// Pre-floored log marginal probability of one node's value code
    /// (the compiled form of `cpt(node).marginal_prob(v).max(1e-300).ln()`).
    pub fn log_marginal(&self, node: usize, code: u32) -> f64 {
        self.nodes[node].log_marginal(code)
    }

    /// Code-space [`BayesianNetwork::blanket_log_score`]: the candidate's own
    /// factor plus its children's likelihoods, summed in DAG child order.
    pub fn blanket_log_score(&self, codes: &[u32], node: usize, candidate: u32) -> f64 {
        let own = &self.nodes[node];
        let mut score = if own.parents.is_empty() {
            own.log_marginal(candidate)
        } else {
            own.log_prob(codes, candidate, NO_OVERRIDE, 0)
        };
        for &child in &self.children[node] {
            score += self.nodes[child].log_prob(codes, codes[child], node, candidate);
        }
        score
    }

    /// Code-space [`BayesianNetwork::children_log_likelihood`].
    pub fn children_log_likelihood(&self, codes: &[u32], node: usize, candidate: u32) -> f64 {
        let mut score = 0.0;
        for &child in &self.children[node] {
            score += self.nodes[child].log_prob(codes, codes[child], node, candidate);
        }
        score
    }

    /// Code-space [`BayesianNetwork::log_joint_with`]: every factor of the
    /// joint, with `node` read as `candidate`, summed in node order.
    pub fn log_joint_with(&self, codes: &[u32], node: usize, candidate: u32) -> f64 {
        let mut score = 0.0;
        for (i, cpt) in self.nodes.iter().enumerate() {
            let value = if i == node { candidate } else { codes[i] };
            score += cpt.log_prob(codes, value, node, candidate);
        }
        score
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Dag;
    use bclean_data::{dataset_from, Dataset, EncodedDataset};

    fn fd_dataset() -> Dataset {
        dataset_from(
            &["Zip", "State", "Other"],
            &[
                vec!["35150", "CA", "a"],
                vec!["35150", "CA", "b"],
                vec!["35150", "CA", "a"],
                vec!["35960", "KT", "b"],
                vec!["35960", "KT", "a"],
                vec!["", "KT", "b"],
            ],
        )
    }

    fn compiled_pair() -> (BayesianNetwork, CompiledNetwork, EncodedDataset) {
        let data = fd_dataset();
        let mut dag = Dag::new(3);
        dag.add_edge(0, 1).unwrap();
        let bn = BayesianNetwork::learn(&data, dag, 0.1);
        let encoded = EncodedDataset::from_dataset(&data);
        let compiled = CompiledNetwork::compile(&bn, encoded.dicts());
        (bn, compiled, encoded)
    }

    /// Every scoring entry point must agree bit-for-bit with the Value path,
    /// for every cell and every candidate of the column (including null).
    #[test]
    fn compiled_scores_match_value_path_exactly() {
        let data = fd_dataset();
        let (bn, compiled, encoded) = compiled_pair();
        for (r, row) in data.rows().enumerate() {
            let codes = encoded.row_codes(r);
            for col in 0..data.num_columns() {
                let dict = encoded.dict(col);
                let mut candidates: Vec<(Value, u32)> =
                    dict.values().iter().map(|v| (v.clone(), dict.encode(v).unwrap())).collect();
                candidates.push((Value::Null, dict.null_code()));
                for (value, code) in candidates {
                    assert_eq!(
                        bn.blanket_log_score(row, col, &value).to_bits(),
                        compiled.blanket_log_score(&codes, col, code).to_bits(),
                        "blanket row {r} col {col} value {value}"
                    );
                    assert_eq!(
                        bn.children_log_likelihood(row, col, &value).to_bits(),
                        compiled.children_log_likelihood(&codes, col, code).to_bits(),
                        "children row {r} col {col} value {value}"
                    );
                    assert_eq!(
                        bn.log_joint_with(row, col, &value).to_bits(),
                        compiled.log_joint_with(&codes, col, code).to_bits(),
                        "joint row {r} col {col} value {value}"
                    );
                    assert_eq!(
                        bn.cpt(col).marginal_prob(&value).max(1e-300).ln().to_bits(),
                        compiled.log_marginal(col, code).to_bits(),
                        "marginal col {col} value {value}"
                    );
                }
            }
        }
    }

    #[test]
    fn unseen_codes_score_like_unseen_values() {
        let data = fd_dataset();
        let (bn, compiled, encoded) = compiled_pair();
        let row = data.row(0).unwrap();
        let codes = encoded.row_codes(0);
        let unseen = Value::text("zzz-not-in-domain");
        let unseen_code = encoded.dict(1).unseen_code();
        assert_eq!(
            bn.blanket_log_score(row, 1, &unseen).to_bits(),
            compiled.blanket_log_score(&codes, 1, unseen_code).to_bits()
        );
        // An unseen *context* value (here the parent Zip) must hit the
        // marginal fallback exactly like the Value path does.
        let mut patched_row = row.to_vec();
        patched_row[0] = Value::text("99999");
        let mut patched_codes = codes.clone();
        patched_codes[0] = encoded.dict(0).unseen_code();
        let ca = Value::text("CA");
        let ca_code = encoded.dict(1).encode(&ca).unwrap();
        assert_eq!(
            bn.blanket_log_score(&patched_row, 1, &ca).to_bits(),
            compiled.blanket_log_score(&patched_codes, 1, ca_code).to_bits()
        );
    }

    /// A zero dense budget forces the sparse observed-configuration layout;
    /// scores (including null parents and marginal fallbacks) must not change.
    #[test]
    fn sparse_layout_matches_dense_scores() {
        let data = fd_dataset();
        let mut dag = Dag::new(3);
        dag.add_edge(0, 1).unwrap();
        let bn = BayesianNetwork::learn(&data, dag, 0.1);
        let encoded = EncodedDataset::from_dataset(&data);
        let dense = CompiledCpt::compile(bn.cpt(1), encoded.dicts());
        let sparse = CompiledCpt::compile_with_cap(bn.cpt(1), encoded.dicts(), 0);
        assert!(matches!(dense.layout, CptLayout::Dense));
        assert!(matches!(sparse.layout, CptLayout::Sparse(_)));
        let dict = encoded.dict(1);
        for r in 0..data.num_rows() {
            let codes = encoded.row_codes(r);
            for code in 0..=dict.unseen_code() {
                assert_eq!(
                    dense.log_prob(&codes, code, NO_OVERRIDE, 0).to_bits(),
                    sparse.log_prob(&codes, code, NO_OVERRIDE, 0).to_bits(),
                    "row {r} code {code}"
                );
            }
        }
        // An out-of-dictionary parent code misses both layouts identically.
        let unseen_parent = [encoded.dict(0).unseen_code(), 0, 0];
        assert_eq!(
            dense.log_prob(&unseen_parent, 0, NO_OVERRIDE, 0).to_bits(),
            sparse.log_prob(&unseen_parent, 0, NO_OVERRIDE, 0).to_bits()
        );
    }

    /// Compiling a `Value`-learned CPT against *appended* dictionaries
    /// (frozen null code mid-space, new values at the tail) must score every
    /// value exactly like compiling against freshly sorted dictionaries of
    /// the same data — the layout `edit_network` hits for models that came
    /// out of a streaming session.
    #[test]
    fn compile_handles_appended_dictionary_layout() {
        let first = dataset_from(
            &["Zip", "State", "Other"],
            &[vec!["35150", "CA", "a"], vec!["35150", "CA", "b"], vec!["35960", "KT", "a"]],
        );
        let batch = dataset_from(
            &["Zip", "State", "Other"],
            &[vec!["35150", "AL", "a"], vec!["", "KT", "c"], vec!["36000", "CA", "b"]],
        );
        let mut combined = first.clone();
        for row in batch.rows() {
            combined.push_row(row.to_vec()).unwrap();
        }
        let mut appended = EncodedDataset::from_dataset(&first);
        appended.append_batch(&batch);
        let fresh = EncodedDataset::from_dataset(&combined);
        let mut dag = Dag::new(3);
        dag.add_edge(0, 1).unwrap();
        let bn = BayesianNetwork::learn(&combined, dag, 0.1);
        let via_fresh = CompiledNetwork::compile(&bn, fresh.dicts());
        let via_appended = CompiledNetwork::compile(&bn, appended.dicts());
        for (r, row) in combined.rows().enumerate() {
            let fresh_codes = fresh.row_codes(r);
            let appended_codes: Vec<u32> =
                row.iter().zip(appended.dicts()).map(|(v, d)| d.encode(v).unwrap()).collect();
            for col in 0..3 {
                let mut probes: Vec<Value> = fresh.dict(col).values().to_vec();
                probes.push(Value::Null);
                for value in &probes {
                    let f = fresh.dict(col).encode(value).unwrap();
                    let a = appended.dict(col).encode(value).unwrap();
                    assert_eq!(
                        via_fresh.blanket_log_score(&fresh_codes, col, f).to_bits(),
                        via_appended.blanket_log_score(&appended_codes, col, a).to_bits(),
                        "blanket row {r} col {col} value {value}"
                    );
                    assert_eq!(
                        via_fresh.log_marginal(col, f).to_bits(),
                        via_appended.log_marginal(col, a).to_bits(),
                        "marginal col {col} value {value}"
                    );
                }
            }
        }
    }

    #[test]
    fn adjacency_accessors() {
        let (_, compiled, _) = compiled_pair();
        assert!(compiled.has_parents(1));
        assert!(!compiled.has_parents(0));
        assert_eq!(compiled.num_nodes(), 3);
    }

    #[test]
    fn empty_dataset_compiles() {
        let empty = Dataset::new(bclean_data::Schema::from_names(&["a", "b"]).unwrap());
        let mut dag = Dag::new(2);
        dag.add_edge(0, 1).unwrap();
        let bn = BayesianNetwork::learn(&empty, dag, 1.0);
        let encoded = EncodedDataset::from_dataset(&empty);
        let compiled = CompiledNetwork::compile(&bn, encoded.dicts());
        let score = compiled.blanket_log_score(&[0, 0], 1, 0);
        assert!(score.is_finite());
    }
}
