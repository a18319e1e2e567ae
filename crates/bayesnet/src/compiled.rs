//! Code-indexed compilation of learned networks for the inference hot path.
//!
//! [`crate::Cpt`] keys its learned counts by heap-allocated [`Value`]s, so
//! every probability lookup during cleaning hashes (and, for parent
//! configurations, clones) strings. [`CompiledCpt`] flattens each table into
//! **pre-floored log probabilities** addressed by the dictionary codes of a
//! [`ColumnDict`] slice, and [`CompiledNetwork`] mirrors the scoring entry
//! points of [`BayesianNetwork`] (`blanket_log_score`,
//! `children_log_likelihood`, `log_joint_with`) over `&[u32]` rows. The
//! compiled scores are bit-identical to the `Value`-path scores: the same
//! counts enter the same floating-point expressions in the same order, only
//! the lookups change.
//!
//! The cleaning kernel scores through the terms of those sums instead:
//! [`CompiledNetwork::own_factor`] and [`CompiledNetwork::child_factor`]
//! give one CPT [`Factor`] of a code row as a function of the candidate,
//! with its inputs resolved into a [`FactorKey`]. Rows whose factors have
//! equal keys share the factor's log probabilities, so the kernel evaluates
//! each distinct factor once over a candidate list.
//!
//! # Code layout
//!
//! The compilation relies on the code-order invariant of
//! [`bclean_data::encoded`]: code `i < cardinality` of column `j` denotes the
//! `i`-th sorted distinct non-null value of that column — the same order as
//! `AttributeDomain`. The marginal is one dense row of `cardinality + 2`
//! slots:
//!
//! * `0..cardinality` — the dictionary values, in code order;
//! * `cardinality` — [`Value::Null`] (nulls are ordinary observations in the
//!   learned counts);
//! * `cardinality + 1` — the *zero-count* slot: the smoothed probability of
//!   any value never observed. Unseen codes (`ColumnDict::unseen_code` and
//!   beyond) clamp onto this slot, which is exactly the probability the
//!   `Value` path assigns them.
//!
//! Parent configurations are mixed-radix indices over the parents' code
//! spaces (`cardinality + 1`, nulls included). Only observed configurations
//! have a row, in ascending index order. A row stores the log probability
//! of each code observed under it, codes ascending, plus one *default*: the
//! zero-count probability every other code of the row takes, unseen codes
//! included. A configuration without a row — unobserved, or with an unseen
//! parent code — scores through the marginal, the same fallback
//! [`crate::Cpt::prob`] applies to unseen parents.

use bclean_data::{ColumnDict, Value};

use crate::codehash::CodeMap;
use crate::counts::{config_space, config_space_from_radices, offset, NodeCounts};
use crate::cpt::Cpt;
use crate::graph::Dag;
use crate::network::BayesianNetwork;

/// Sentinel for "no parent override" in the internal scoring calls.
const NO_OVERRIDE: usize = usize::MAX;

/// Configuration spaces of at most this many configurations find their
/// rows through a dense `u32` index (at most 256 KiB per node); larger ones
/// through a [`CodeMap`]. Measured on the Hospital benchmark inputs with a
/// map for every node, serial cleans ran 17% slower on the 2×10⁴-row
/// stream input and 12% slower on 16-row serving batches than with a dense
/// table per node; with the dense index below this size they stayed within
/// 0–6%. There, single-parent nodes have at most 492 configurations and
/// multi-parent nodes 37,878 to 42,464,772, so the two kinds fall on either
/// side.
const DENSE_INDEX_CONFIGS: u128 = 1 << 16;

/// A slot of the dense row index whose configuration has no row.
const NO_ROW: u32 = u32::MAX;

/// How a compiled table finds the row of a configuration index.
#[derive(Debug, Clone)]
enum RowIndex {
    /// One slot per configuration index: its row, or [`NO_ROW`].
    Dense(Vec<u32>),
    /// The rows of the observed configurations, hashed with
    /// [`crate::codehash::CodeHasher`].
    Map(CodeMap<u128, u32>),
}

/// One node's CPT compiled to code-indexed log probabilities.
#[derive(Debug, Clone)]
pub struct CompiledCpt {
    parents: Vec<usize>,
    /// Parent code spaces (`cardinality + 1`, nulls included).
    radices: Vec<u32>,
    /// Mixed-radix strides matching `radices`.
    strides: Vec<u128>,
    /// Marginal row, node cardinality + null slot + zero-count slot wide:
    /// the fallback of every configuration without a row, and the whole
    /// table of a parentless node.
    marginal: Vec<f64>,
    /// Where each observed configuration's row is.
    index: RowIndex,
    /// Per row: the log probability of every code the row does not list.
    defaults: Vec<f64>,
    /// Row `r` lists `codes[starts[r]..starts[r + 1]]` with the same slice
    /// of `logs`.
    starts: Vec<u32>,
    /// The codes observed under each row's configuration, ascending.
    codes: Vec<u32>,
    /// Their log probabilities.
    logs: Vec<f64>,
}

impl CompiledCpt {
    /// Compile one learned CPT against the dataset's dictionaries.
    pub fn compile(cpt: &Cpt, dicts: &[ColumnDict]) -> CompiledCpt {
        let node_dict = &dicts[cpt.node()];
        let value_space = node_dict.cardinality() + 2;
        let parents = cpt.parents().to_vec();
        let (radices, strides, _, _) = config_space(&parents, dicts);

        let domain_size = cpt.domain_size();
        let marginal = log_marginals(value_space, cpt.marginal_total, cpt.alpha, domain_size, |slot| {
            slot_value(node_dict, slot).map_or(0, |v| cpt.marginal.get(v).copied().unwrap_or(0)) as f64
        });

        // Observed configurations in index order, each with its codes
        // ascending. A parent value outside its dictionary can never be
        // produced by encoding a row against these dictionaries, so its
        // configuration is unreachable from code space and dropped; so is a
        // node value outside the node's dictionary.
        let mut observed: Vec<_> = cpt
            .table
            .iter()
            .filter_map(|(config, (counts, total))| {
                let index = encode_config(config, &parents, &radices, &strides, dicts)?;
                let mut run: Vec<(u32, usize)> = counts
                    .iter()
                    .filter_map(|(value, &count)| Some((node_dict.encode(value)?, count)))
                    .collect();
                run.sort_unstable();
                Some((index, *total, run))
            })
            .collect();
        observed.sort_unstable_by_key(|&(index, _, _)| index);

        let mut compiled = CompiledCpt::without_rows(parents, radices, strides, marginal);
        for (_, total, run) in &observed {
            let denom = *total as f64 + cpt.alpha * domain_size as f64;
            compiled.push_row(denom, cpt.alpha, run.iter().map(|&(code, count)| (code, count as f64)));
        }
        compiled.index_rows(observed.iter().map(|&(index, _, _)| index));
        compiled
    }

    /// Build the compiled table **directly** from code-space sufficient
    /// statistics ([`NodeCounts`]) — the fast fit path, which never
    /// materialises a `Value`-keyed table. Produces exactly the scores of
    /// [`CompiledCpt::compile`] applied to the equivalent [`Cpt`]: the same
    /// integer counts enter the same floating-point expressions.
    pub fn from_counts(counts: &NodeCounts, alpha: f64) -> CompiledCpt {
        // The marginal row adds the zero-count slot to the node's codes.
        let value_space = counts.marginal.len() + 1;
        // Distinct observed values of the node (nulls are ordinary
        // observations), exactly `Cpt::domain_size`.
        let domain_size = counts.marginal.iter().filter(|&&c| c > 0).count().max(1);
        let marginal = log_marginals(value_space, counts.total, alpha, domain_size, |slot| {
            counts.marginal.get(slot).map_or(0.0, |&c| c as f64)
        });
        let mut compiled = CompiledCpt::without_rows(
            counts.parents.clone(),
            counts.radices.clone(),
            counts.strides.clone(),
            marginal,
        );
        for (_, codes, run_counts) in counts.runs() {
            let total: u64 = run_counts.iter().map(|&c| c as u64).sum();
            let denom = total as f64 + alpha * domain_size as f64;
            compiled.push_row(denom, alpha, codes.iter().zip(run_counts).map(|(&code, &c)| (code, c as f64)));
        }
        compiled.index_rows(counts.configs.iter().copied());
        compiled
    }

    /// A table with its marginal and no configuration rows yet.
    fn without_rows(
        parents: Vec<usize>,
        radices: Vec<u32>,
        strides: Vec<u128>,
        marginal: Vec<f64>,
    ) -> CompiledCpt {
        CompiledCpt {
            parents,
            radices,
            strides,
            marginal,
            index: RowIndex::Map(CodeMap::default()),
            defaults: Vec::new(),
            starts: vec![0],
            codes: Vec::new(),
            logs: Vec::new(),
        }
    }

    /// Append the next row from its configuration's denominator and its
    /// `(code, count)` pairs, codes ascending: each probability is
    /// `(count + alpha) / denom`, floored and logged as every scoring caller
    /// does, and the default is that expression at count 0.
    fn push_row(&mut self, denom: f64, alpha: f64, run: impl Iterator<Item = (u32, f64)>) {
        let log = |count: f64| ((count + alpha) / denom).max(1e-300).ln();
        self.defaults.push(log(0.0));
        for (code, count) in run {
            self.codes.push(code);
            self.logs.push(log(count));
        }
        self.starts.push(offset(self.codes.len()));
    }

    /// Index the pushed rows by their configurations, one per row in row
    /// order.
    fn index_rows(&mut self, configs: impl Iterator<Item = u128>) {
        let (_, total_configs, overflow) = config_space_from_radices(&self.radices);
        let rows = configs.enumerate().map(|(row, index)| (index, row as u32));
        self.index = if !overflow && total_configs <= DENSE_INDEX_CONFIGS {
            let mut dense = vec![NO_ROW; total_configs as usize];
            for (index, row) in rows {
                dense[index as usize] = row;
            }
            RowIndex::Dense(dense)
        } else {
            RowIndex::Map(rows.collect())
        };
    }

    /// Clamp a value code onto its marginal slot: dictionary codes map to
    /// themselves, the null code to the null slot, anything beyond (unseen
    /// codes) to the zero-count slot.
    #[inline]
    fn slot(&self, code: u32) -> usize {
        (code as usize).min(self.marginal.len() - 1)
    }

    /// Pre-floored log marginal probability of a value code.
    #[inline]
    pub fn log_marginal(&self, code: u32) -> f64 {
        self.marginal[self.slot(code)]
    }

    /// Pre-floored `log Pr[value | parents]`, reading parent codes from
    /// `codes` except that parent `override_node` (if any) reads
    /// `override_code`. Falls back to the marginal for configurations
    /// without a row, exactly like [`crate::Cpt::prob`].
    #[inline]
    fn log_prob(&self, codes: &[u32], value: u32, override_node: usize, override_code: u32) -> f64 {
        let config = self.parents.iter().map(|&p| if p == override_node { override_code } else { codes[p] });
        self.log_in(self.row(config), value)
    }

    /// The row of one parent configuration, given as the parents' codes in
    /// parent order: `None` for parentless nodes, unseen parent values and
    /// unobserved configurations, which all score through the marginal.
    #[inline]
    fn row(&self, config: impl Iterator<Item = u32>) -> Option<usize> {
        if self.parents.is_empty() {
            return None;
        }
        let mut index: u128 = 0;
        for ((code, &radix), &stride) in config.zip(&self.radices).zip(&self.strides) {
            if code >= radix {
                // Unseen parent value: no observed configuration can match.
                return None;
            }
            index += code as u128 * stride;
        }
        self.row_at(index)
    }

    /// The row of a mixed-radix configuration index inside the space, or
    /// `None` when the configuration was never observed.
    #[inline]
    fn row_at(&self, index: u128) -> Option<usize> {
        let row = match &self.index {
            RowIndex::Dense(rows) => rows[index as usize],
            RowIndex::Map(rows) => *rows.get(&index)?,
        };
        (row != NO_ROW).then_some(row as usize)
    }

    /// `log Pr[code | configuration]` given the configuration's row: the
    /// marginal slot without a row, else the code's stored log
    /// probability, or the row's default for a code it does not list.
    #[inline]
    fn log_in(&self, row: Option<usize>, code: u32) -> f64 {
        let Some(row) = row else {
            return self.marginal[self.slot(code)];
        };
        let run = self.starts[row] as usize..self.starts[row + 1] as usize;
        match self.codes[run.clone()].binary_search(&code) {
            Ok(i) => self.logs[run.start + i],
            Err(_) => self.defaults[row],
        }
    }

    /// Pre-floored `log Pr[value | parents]` with every parent code read
    /// from the code row `codes`: the compiled form of
    /// `cpt.prob_given_row(v, row).max(1e-300).ln()`. Equivalence tests
    /// probe tables through this.
    pub fn log_prob_row(&self, codes: &[u32], value: u32) -> f64 {
        self.log_prob(codes, value, NO_OVERRIDE, 0)
    }
}

/// The pre-floored log marginal row of `value_space` slots from each
/// slot's count: [`Cpt::marginal_prob`] bit for bit, floored and logged the
/// way every scoring caller does (`.max(1e-300).ln()`).
fn log_marginals(
    value_space: usize,
    total: usize,
    alpha: f64,
    domain_size: usize,
    count: impl Fn(usize) -> f64,
) -> Vec<f64> {
    let denom = total as f64 + alpha * domain_size as f64;
    (0..value_space)
        .map(|slot| {
            let p = if denom <= 0.0 { 1.0 / domain_size as f64 } else { (count(slot) + alpha) / denom };
            p.max(1e-300).ln()
        })
        .collect()
}

/// The value denoted by marginal slot `slot`, if any. Slots are dictionary
/// codes (plus the trailing zero-count slot), so the mapping goes through
/// the dictionary's own layout: the null code may trail the values (fresh
/// dictionaries) or sit frozen mid-space (appended ones).
fn slot_value(dict: &ColumnDict, slot: usize) -> Option<&Value> {
    let code = slot as u32;
    if code == dict.null_code() {
        Some(&Value::Null)
    } else if dict.is_value_code(code) {
        Some(&dict.values()[slot])
    } else {
        None
    }
}

/// One CPT factor of a candidate's score, as a function of the scored
/// node's candidate code alone: the node's own `log Pr[c | parents]`, or a
/// child's `log Pr[child's code | c, other parents]`. Everything else the
/// factor reads from the code row is resolved once, into its [`FactorKey`],
/// so two rows whose factors of the same CPT have equal keys give every
/// candidate the same log probability, and a caller that scores many rows
/// evaluates each distinct factor once.
#[derive(Debug, Clone, Copy)]
pub struct Factor<'a> {
    cpt: &'a CompiledCpt,
    key: FactorKey,
    /// A child factor's stride and code space of the candidate's parent
    /// slot; both 0 for an own factor.
    stride: u128,
    radix: u32,
}

/// What a [`Factor`] read from its code row, resolved: equal keys of one
/// CPT's factors mean equal functions of the candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FactorKey {
    /// The node's own factor: the row its parents' codes select, or `None`
    /// when they select none (no parents, an unseen parent value or an
    /// unobserved configuration), which scores through the marginal.
    Own(Option<u32>),
    /// A child's factor: the child's own code, and the mixed-radix base of
    /// its other parents' codes, or `None` when one of them is unseen, so
    /// that no candidate can complete an observed configuration.
    Child {
        /// The child's code in the row.
        code: u32,
        /// `Σ code · stride` over the child's other parents.
        base: Option<u128>,
    },
}

impl Factor<'_> {
    /// The factor's resolved inputs.
    pub fn key(&self) -> FactorKey {
        self.key
    }

    /// The factor's log probability for one candidate code, bit for bit
    /// the term [`CompiledNetwork::blanket_log_score`],
    /// [`CompiledNetwork::children_log_likelihood`] and
    /// [`CompiledNetwork::log_joint_with`] add for it.
    #[inline]
    pub fn log_prob(&self, candidate: u32) -> f64 {
        match self.key {
            FactorKey::Own(row) => self.cpt.log_in(row.map(|r| r as usize), candidate),
            FactorKey::Child { code, base } => {
                let row = match base {
                    Some(base) if candidate < self.radix => {
                        self.cpt.row_at(base + candidate as u128 * self.stride)
                    }
                    _ => None,
                };
                self.cpt.log_in(row, code)
            }
        }
    }

    /// Append [`Factor::log_prob`] of every code of `candidates` to `out`.
    pub fn log_probs(&self, candidates: &[u32], out: &mut Vec<f64>) {
        out.extend(candidates.iter().map(|&c| self.log_prob(c)));
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

    /// The parents of `node`, in DAG order.
    pub fn parents(&self, node: usize) -> &[usize] {
        &self.parents[node]
    }

    /// The children of `node`, in DAG child order: the order
    /// [`CompiledNetwork::blanket_log_score`] adds their factors in.
    pub fn children(&self, node: usize) -> &[usize] {
        &self.children[node]
    }

    /// The own factor of `node` in the code row `codes`: the first term of
    /// [`CompiledNetwork::blanket_log_score`], and the `node` term of
    /// [`CompiledNetwork::log_joint_with`].
    pub fn own_factor(&self, codes: &[u32], node: usize) -> Factor<'_> {
        let cpt = &self.nodes[node];
        let row = cpt.row(cpt.parents.iter().map(|&p| codes[p])).map(|r| r as u32);
        Factor { cpt, key: FactorKey::Own(row), stride: 0, radix: 0 }
    }

    /// The factor of `child`, one of `node`'s children, in the code row
    /// `codes`, as a function of the code `node` takes: the child's term of
    /// `node`'s [`CompiledNetwork::blanket_log_score`],
    /// [`CompiledNetwork::children_log_likelihood`] and
    /// [`CompiledNetwork::log_joint_with`].
    pub fn child_factor(&self, codes: &[u32], child: usize, node: usize) -> Factor<'_> {
        let cpt = &self.nodes[child];
        let (mut base, mut stride, mut radix) = (Some(0u128), 0, 0);
        for (i, &p) in cpt.parents.iter().enumerate() {
            if p == node {
                stride = cpt.strides[i];
                radix = cpt.radices[i];
            } else if codes[p] >= cpt.radices[i] {
                base = None;
            } else if let Some(base) = &mut base {
                *base += codes[p] as u128 * cpt.strides[i];
            }
        }
        Factor { cpt, key: FactorKey::Child { code: codes[child], base }, stride, radix }
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

    /// Every node's factors, summed in the one-candidate scorers' order,
    /// must equal those scorers bit for bit, for every code of the node's
    /// code space and the unseen code past it. Two rows whose factors have
    /// equal keys must give every candidate the same log probability.
    fn assert_factor_scores_match(net: &CompiledNetwork, codes: &[u32], dicts: &[ColumnDict]) {
        for (node, dict) in dicts.iter().enumerate() {
            let candidates: Vec<u32> = (0..=dict.unseen_code()).collect();
            let own = net.own_factor(codes, node);
            let children: Vec<Factor> =
                net.children(node).iter().map(|&child| net.child_factor(codes, child, node)).collect();
            let mut probs = Vec::new();
            own.log_probs(&candidates, &mut probs);
            for (&c, &own_prob) in candidates.iter().zip(&probs) {
                let mut blanket = own_prob;
                let mut likelihood = 0.0;
                for factor in &children {
                    blanket += factor.log_prob(c);
                    likelihood += factor.log_prob(c);
                }
                let mut joint = 0.0;
                for i in 0..net.num_nodes() {
                    joint += if i == node {
                        own.log_prob(c)
                    } else if net.parents(i).contains(&node) {
                        net.child_factor(codes, i, node).log_prob(c)
                    } else {
                        net.node(i).log_prob_row(codes, codes[i])
                    };
                }
                let row = format!("node {node} code {c} row {codes:?}");
                assert_eq!(
                    blanket.to_bits(),
                    net.blanket_log_score(codes, node, c).to_bits(),
                    "blanket {row}"
                );
                assert_eq!(
                    likelihood.to_bits(),
                    net.children_log_likelihood(codes, node, c).to_bits(),
                    "children {row}"
                );
                assert_eq!(joint.to_bits(), net.log_joint_with(codes, node, c).to_bits(), "joint {row}");
            }
        }
    }

    /// A two-parent node scores exactly like the `Value` path, compiled
    /// from the learned CPT or from code counts: every code of the row, the
    /// unseen code past it, and configurations with an unseen parent,
    /// which score through the marginal. The factors sum to the
    /// one-candidate scores over both networks. State has two parents, so
    /// Zip and Other each score a child factor whose other parent is fixed,
    /// or unseen.
    #[test]
    fn two_parent_scores_match_value_path() {
        let data = fd_dataset();
        let mut dag = Dag::new(3);
        dag.add_edge(0, 1).unwrap();
        dag.add_edge(2, 1).unwrap();
        let bn = BayesianNetwork::learn(&data, dag, 0.1);
        let encoded = EncodedDataset::from_dataset(&data);
        let dicts = encoded.dicts();
        let networks = [
            CompiledNetwork::compile(&bn, dicts),
            CompiledNetwork::from_parts(
                (0..3)
                    .map(|n| {
                        CompiledCpt::from_counts(
                            &NodeCounts::accumulate(&encoded, n, &bn.dag().parents(n)),
                            0.1,
                        )
                    })
                    .collect(),
                bn.dag(),
            ),
        ];
        let dict = encoded.dict(1);
        let unseen = Value::text("zz-unseen");
        let value_of = |code: u32| if code == dict.unseen_code() { &unseen } else { dict.decode(code) };
        for net in &networks {
            let state = net.node(1);
            for (r, row) in data.rows().enumerate() {
                let codes = encoded.row_codes(r);
                for parent in [None, Some(0), Some(2)] {
                    let (mut patched_row, mut patched_codes) = (row.to_vec(), codes.clone());
                    if let Some(parent) = parent {
                        patched_row[parent] = Value::text("99999");
                        patched_codes[parent] = dicts[parent].unseen_code();
                    }
                    for code in 0..=dict.unseen_code() {
                        let expected =
                            bn.cpt(1).prob_given_row(value_of(code), &patched_row).max(1e-300).ln();
                        assert_eq!(
                            state.log_prob_row(&patched_codes, code).to_bits(),
                            expected.to_bits(),
                            "row {r} code {code} unseen parent {parent:?}"
                        );
                    }
                    assert_factor_scores_match(net, &patched_codes, dicts);
                }
            }
        }
    }

    /// Factors of one CPT with equal keys score every candidate alike,
    /// across all rows of the data, with and without unseen parent codes,
    /// and a key holds every code its factor reads: rows whose child codes
    /// differ never share a child factor's key.
    #[test]
    fn equal_factor_keys_score_alike() {
        let data = fd_dataset();
        let mut dag = Dag::new(3);
        dag.add_edge(0, 1).unwrap();
        dag.add_edge(2, 1).unwrap();
        let bn = BayesianNetwork::learn(&data, dag, 0.1);
        let encoded = EncodedDataset::from_dataset(&data);
        let dicts = encoded.dicts();
        let net = CompiledNetwork::compile(&bn, dicts);
        let mut rows: Vec<Vec<u32>> = (0..data.num_rows()).map(|r| encoded.row_codes(r)).collect();
        for r in 0..data.num_rows() {
            for p in 0..3 {
                let mut patched = encoded.row_codes(r);
                patched[p] = dicts[p].unseen_code();
                rows.push(patched);
            }
        }
        for (node, dict) in dicts.iter().enumerate() {
            let candidates: Vec<u32> = (0..=dict.unseen_code()).collect();
            let mut factors: Vec<(usize, Factor)> =
                rows.iter().map(|codes| (node, net.own_factor(codes, node))).collect();
            for &child in net.children(node) {
                factors.extend(rows.iter().map(|codes| (child, net.child_factor(codes, child, node))));
            }
            for (i, (cpt_a, a)) in factors.iter().enumerate() {
                for (cpt_b, b) in &factors[i + 1..] {
                    if cpt_a != cpt_b || a.key() != b.key() {
                        continue;
                    }
                    let (mut pa, mut pb) = (Vec::new(), Vec::new());
                    a.log_probs(&candidates, &mut pa);
                    b.log_probs(&candidates, &mut pb);
                    assert!(
                        pa.iter().map(|x| x.to_bits()).eq(pb.iter().map(|x| x.to_bits())),
                        "{:?}",
                        a.key()
                    );
                }
            }
        }
        for a in &rows {
            for b in &rows {
                if a[1] != b[1] {
                    assert_ne!(net.child_factor(a, 1, 0).key(), net.child_factor(b, 1, 0).key());
                }
            }
        }
    }

    /// Compiling a `Value`-learned CPT against *appended* dictionaries
    /// (frozen null code mid-space, new values at the tail) must score every
    /// value exactly like compiling against freshly sorted dictionaries of
    /// the same data — the layout `edit_network` hits for models grown by
    /// ingest.
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
            assert_factor_scores_match(&via_fresh, &fresh_codes, fresh.dicts());
            assert_factor_scores_match(&via_appended, &appended_codes, appended.dicts());
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
