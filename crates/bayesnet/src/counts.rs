//! Code-space sufficient statistics for CPT estimation.
//!
//! [`crate::Cpt::learn`] tallies `HashMap<Vec<Value>, …>` tables by cloning
//! and hashing every parent value of every row — heap traffic that makes
//! parameter estimation the slowest part of model fitting. [`NodeCounts`]
//! accumulates the same counts over an [`EncodedDataset`]: the node's value
//! distribution per parent configuration, where configurations are
//! mixed-radix indices over the parents' dictionary code spaces (the exact
//! addressing [`crate::CompiledCpt`] uses at scoring time). One pass over
//! the code columns yields the statistics from which
//! [`CompiledCpt::from_counts`](crate::CompiledCpt::from_counts) builds the
//! compiled table **directly** — no learn-in-`Value`-space-then-compile
//! detour — scoring exactly like [`crate::Cpt::learn`] on the source dataset.
//!
//! Per-node accumulation is independent, which is what lets the fit
//! pipeline in `bclean-core` spread nodes across its `ParallelExecutor`.

use std::collections::HashMap;

use bclean_data::{ColumnDict, EncodedDataset};

/// How the per-configuration counts are stored.
#[derive(Debug, Clone)]
pub(crate) enum CountLayout {
    /// Every mixed-radix configuration has a slot row (`value_slots` wide)
    /// plus a total; the configuration space fits the dense budget.
    Dense { counts: Vec<u32>, totals: Vec<u32> },
    /// Only observed configurations are stored.
    Sparse(HashMap<u128, (Vec<u32>, u32)>),
}

/// Code-indexed sufficient statistics of one node: marginal value counts
/// plus per-parent-configuration value counts.
#[derive(Debug, Clone)]
pub struct NodeCounts {
    pub(crate) node: usize,
    pub(crate) parents: Vec<usize>,
    /// Parent code spaces (`cardinality + 1`, nulls included).
    pub(crate) radices: Vec<u32>,
    /// Mixed-radix strides matching `radices`.
    pub(crate) strides: Vec<u128>,
    /// Node code space: `cardinality + 1` (value codes plus the null slot).
    pub(crate) value_slots: usize,
    /// Marginal value counts, indexed by node code.
    pub(crate) marginal: Vec<u32>,
    /// Number of rows observed.
    pub(crate) total: usize,
    /// Whether the *compiled* table will use the dense layout (the decision
    /// is shared with [`crate::CompiledCpt`] so both layouts always agree).
    pub(crate) dense: bool,
    pub(crate) layout: CountLayout,
}

impl NodeCounts {
    /// Accumulate the statistics of `node` given `parents` in one pass over
    /// the encoded columns. The dataset must be encoded against its own
    /// dictionaries (every code in range), as produced by
    /// [`EncodedDataset::from_dataset`].
    pub fn accumulate(encoded: &EncodedDataset, node: usize, parents: &[usize]) -> NodeCounts {
        NodeCounts::accumulate_range(encoded, node, parents, 0..encoded.num_rows())
    }

    /// [`NodeCounts::accumulate`] restricted to a row range — the per-shard
    /// counting primitive of the sharded fit. Counts are integers, so
    /// [`NodeCounts::merge`]-ing the partials of any partition of `0..n`
    /// (in any order) equals one accumulation over all rows; the layout
    /// decision depends only on the dictionaries, never on the range, so
    /// every shard of one dataset picks the same layout.
    pub fn accumulate_range(
        encoded: &EncodedDataset,
        node: usize,
        parents: &[usize],
        rows: std::ops::Range<usize>,
    ) -> NodeCounts {
        let dicts = encoded.dicts();
        let value_slots = dicts[node].code_space();
        let (radices, strides, total_configs, overflow) = config_space(parents, dicts);
        // Same dense criterion as the compiled table (which has two extra
        // slots per row: the null slot is part of `value_slots` here, the
        // zero-count slot never holds a count).
        let dense = !overflow
            && total_configs.saturating_mul(value_slots as u128 + 1) <= crate::compiled::DENSE_CELL_CAP;

        let mut marginal = vec![0u32; value_slots];
        let node_codes = &encoded.column(node)[rows.clone()];
        for &code in node_codes {
            marginal[code as usize] += 1;
        }

        let layout = if parents.is_empty() {
            CountLayout::Dense { counts: Vec::new(), totals: Vec::new() }
        } else if dense {
            let configs = total_configs as usize;
            let mut counts = vec![0u32; configs * value_slots];
            let mut totals = vec![0u32; configs];
            for (offset, &code) in node_codes.iter().enumerate() {
                let row = rows.start + offset;
                let mut index = 0usize;
                for (i, &p) in parents.iter().enumerate() {
                    index += encoded.code(row, p) as usize * strides[i] as usize;
                }
                counts[index * value_slots + code as usize] += 1;
                totals[index] += 1;
            }
            CountLayout::Dense { counts, totals }
        } else {
            let mut map: HashMap<u128, (Vec<u32>, u32)> = HashMap::new();
            for (offset, &code) in node_codes.iter().enumerate() {
                let row = rows.start + offset;
                let mut index: u128 = 0;
                for (i, &p) in parents.iter().enumerate() {
                    index += encoded.code(row, p) as u128 * strides[i];
                }
                let entry = map.entry(index).or_insert_with(|| (vec![0u32; value_slots], 0));
                entry.0[code as usize] += 1;
                entry.1 += 1;
            }
            CountLayout::Sparse(map)
        };

        NodeCounts {
            node,
            parents: parents.to_vec(),
            radices,
            strides,
            value_slots,
            marginal,
            total: node_codes.len(),
            dense,
            layout,
        }
    }

    /// Fold another shard's statistics of the *same* node into this one.
    /// Both sides must have been accumulated against the same dictionaries
    /// (same code spaces, hence the same layout decision); all counters are
    /// integers, so the merge is exactly order-independent.
    pub fn merge(&mut self, other: &NodeCounts) {
        assert_eq!(self.node, other.node, "shard partials must describe one node");
        assert_eq!(self.parents, other.parents, "shard partials must share the parent set");
        assert_eq!(self.radices, other.radices, "shard partials must share one code space");
        assert_eq!(self.value_slots, other.value_slots, "shard partials must share one code space");
        for (mine, &theirs) in self.marginal.iter_mut().zip(&other.marginal) {
            *mine += theirs;
        }
        self.total += other.total;
        match (&mut self.layout, &other.layout) {
            (CountLayout::Dense { counts, totals }, CountLayout::Dense { counts: oc, totals: ot }) => {
                for (mine, &theirs) in counts.iter_mut().zip(oc) {
                    *mine += theirs;
                }
                for (mine, &theirs) in totals.iter_mut().zip(ot) {
                    *mine += theirs;
                }
            }
            (CountLayout::Sparse(map), CountLayout::Sparse(other_map)) => {
                for (&index, (row, config_total)) in other_map {
                    let entry = map.entry(index).or_insert_with(|| (vec![0u32; other.value_slots], 0));
                    for (mine, &theirs) in entry.0.iter_mut().zip(row) {
                        *mine += theirs;
                    }
                    entry.1 += config_total;
                }
            }
            _ => unreachable!("shard partials over one dictionary set always share a layout"),
        }
    }

    /// The node these statistics describe.
    pub fn node(&self) -> usize {
        self.node
    }

    /// The node's parent set, as counted.
    pub fn parents(&self) -> &[usize] {
        &self.parents
    }

    /// Number of rows absorbed into the counts.
    pub fn rows_absorbed(&self) -> usize {
        self.total
    }

    /// Grow the counts to the dictionaries' current code spaces after a
    /// batch append. Appends only ever add codes at the tail of a column's
    /// code space, so existing counts keep their (decomposed) coordinates:
    /// the marginal extends with zero slots, every stored configuration row
    /// widens, and parent configurations are re-addressed from the old
    /// mixed-radix strides to the new ones. The dense/sparse decision is
    /// re-evaluated with the shared criterion, so the layout always matches
    /// what a fresh [`NodeCounts::accumulate`] over the grown dictionaries
    /// would choose. Returns `true` when anything changed.
    pub fn ensure_code_spaces(&mut self, dicts: &[ColumnDict]) -> bool {
        let new_slots = dicts[self.node].code_space();
        let (new_radices, new_strides, total_configs, overflow) = config_space(&self.parents, dicts);
        if new_slots == self.value_slots && new_radices == self.radices {
            return false;
        }
        debug_assert!(
            new_slots >= self.value_slots && new_radices.iter().zip(&self.radices).all(|(n, o)| n >= o),
            "code spaces never shrink"
        );
        let new_dense = !overflow
            && total_configs.saturating_mul(new_slots as u128 + 1) <= crate::compiled::DENSE_CELL_CAP;
        self.marginal.resize(new_slots, 0);

        if !self.parents.is_empty() {
            let old_radices = self.radices.clone();
            let old_strides = self.strides.clone();
            let remap = |old_index: u128| -> u128 {
                let mut index = 0u128;
                for i in 0..old_radices.len() {
                    let code = (old_index / old_strides[i]) % old_radices[i] as u128;
                    index += code * new_strides[i];
                }
                index
            };
            // Collect the observed configurations of the old layout, then
            // re-address them into the new one.
            let observed: Vec<(u128, Vec<u32>, u32)> = match &self.layout {
                CountLayout::Dense { counts, totals } => totals
                    .iter()
                    .enumerate()
                    .filter(|(_, &total)| total > 0)
                    .map(|(config, &total)| {
                        let mut row =
                            counts[config * self.value_slots..(config + 1) * self.value_slots].to_vec();
                        row.resize(new_slots, 0);
                        (remap(config as u128), row, total)
                    })
                    .collect(),
                CountLayout::Sparse(map) => map
                    .iter()
                    .map(|(&index, (row, total))| {
                        let mut row = row.clone();
                        row.resize(new_slots, 0);
                        (remap(index), row, *total)
                    })
                    .collect(),
            };
            self.layout = if new_dense {
                let configs = total_configs as usize;
                let mut counts = vec![0u32; configs * new_slots];
                let mut totals = vec![0u32; configs];
                for (index, row, total) in observed {
                    let config = index as usize;
                    counts[config * new_slots..(config + 1) * new_slots].copy_from_slice(&row);
                    totals[config] = total;
                }
                CountLayout::Dense { counts, totals }
            } else {
                CountLayout::Sparse(
                    observed.into_iter().map(|(index, row, total)| (index, (row, total))).collect(),
                )
            };
        }

        self.radices = new_radices;
        self.strides = new_strides;
        self.value_slots = new_slots;
        self.dense = new_dense;
        true
    }

    /// Absorb a row range (typically a freshly appended batch) into the
    /// counts, growing them first if the dictionaries gained codes since the
    /// counts were built. Counts are integers, so accumulating `0..n` in any
    /// batch split equals [`NodeCounts::accumulate`] over all of `encoded`.
    pub fn absorb(&mut self, encoded: &EncodedDataset, rows: std::ops::Range<usize>) {
        self.ensure_code_spaces(encoded.dicts());
        let node_codes = &encoded.column(self.node)[rows.clone()];
        for &code in node_codes {
            self.marginal[code as usize] += 1;
        }
        if !self.parents.is_empty() {
            let slots = self.value_slots;
            for (offset, &code) in node_codes.iter().enumerate() {
                let row = rows.start + offset;
                let mut index: u128 = 0;
                for (i, &p) in self.parents.iter().enumerate() {
                    index += encoded.code(row, p) as u128 * self.strides[i];
                }
                match &mut self.layout {
                    CountLayout::Dense { counts, totals } => {
                        let config = index as usize;
                        counts[config * slots + code as usize] += 1;
                        totals[config] += 1;
                    }
                    CountLayout::Sparse(map) => {
                        let entry = map.entry(index).or_insert_with(|| (vec![0u32; slots], 0));
                        entry.0[code as usize] += 1;
                        entry.1 += 1;
                    }
                }
            }
        }
        self.total += rows.len();
    }
}

/// Mixed-radix addressing of a parent set over the dictionaries: radices,
/// strides, total configuration count and an overflow flag (shared between
/// the counting and compiled layers so their layout decisions agree).
pub(crate) fn config_space(parents: &[usize], dicts: &[ColumnDict]) -> (Vec<u32>, Vec<u128>, u128, bool) {
    let radices: Vec<u32> = parents.iter().map(|&p| dicts[p].code_space() as u32).collect();
    let (strides, total_configs, overflow) = config_space_from_radices(&radices);
    (radices, strides, total_configs, overflow)
}

/// The stride/total/overflow half of [`config_space`], from bare radices —
/// shared with snapshot restoration, which has the persisted radices but no
/// dictionaries yet.
pub(crate) fn config_space_from_radices(radices: &[u32]) -> (Vec<u128>, u128, bool) {
    let mut strides = vec![0u128; radices.len()];
    let mut total_configs: u128 = 1;
    let mut overflow = false;
    for (i, &radix) in radices.iter().enumerate() {
        strides[i] = total_configs;
        match total_configs.checked_mul(radix.max(1) as u128) {
            Some(t) => total_configs = t,
            None => {
                overflow = true;
                break;
            }
        }
    }
    (strides, total_configs, overflow)
}

/// Plain-data snapshot of one node's sufficient statistics — the persistent
/// form of [`NodeCounts`]. Only *observed* parent configurations are
/// carried (sorted by mixed-radix index, so equal statistics always
/// snapshot to equal bytes); strides and the dense/sparse layout decision
/// are derived state, recomputed on restore through the same shared
/// criterion the accumulators use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountsSnapshot {
    /// The node (column) these statistics describe.
    pub node: usize,
    /// The node's parent set, as counted.
    pub parents: Vec<usize>,
    /// Parent code spaces at snapshot time (`cardinality + 1` each).
    pub radices: Vec<u32>,
    /// The node's code space at snapshot time.
    pub value_slots: usize,
    /// Marginal value counts, indexed by node code.
    pub marginal: Vec<u32>,
    /// Rows absorbed.
    pub total: usize,
    /// Observed parent configurations: `(mixed-radix index, per-value
    /// counts, total)`, sorted by index.
    pub configs: Vec<(u128, Vec<u32>, u32)>,
}

impl NodeCounts {
    /// Export the statistics as their plain-data persistent form.
    pub fn snapshot(&self) -> CountsSnapshot {
        let mut configs: Vec<(u128, Vec<u32>, u32)> = match &self.layout {
            CountLayout::Dense { counts, totals } => totals
                .iter()
                .enumerate()
                .filter(|(_, &total)| total > 0)
                .map(|(config, &total)| {
                    (
                        config as u128,
                        counts[config * self.value_slots..(config + 1) * self.value_slots].to_vec(),
                        total,
                    )
                })
                .collect(),
            CountLayout::Sparse(map) => {
                map.iter().map(|(&index, (row, total))| (index, row.clone(), *total)).collect()
            }
        };
        configs.sort_by_key(|&(index, _, _)| index);
        CountsSnapshot {
            node: self.node,
            parents: self.parents.clone(),
            radices: self.radices.clone(),
            value_slots: self.value_slots,
            marginal: self.marginal.clone(),
            total: self.total,
            configs,
        }
    }

    /// Rebuild statistics from a snapshot, recomputing the derived state
    /// (strides, dense/sparse layout) through the shared criterion so the
    /// result is field-for-field identical to the accumulator that produced
    /// the snapshot. Errors describe the first inconsistency (the store
    /// layer maps them to its typed corruption error).
    pub fn from_snapshot(snapshot: CountsSnapshot) -> Result<NodeCounts, String> {
        let CountsSnapshot { node, parents, radices, value_slots, marginal, total, configs } = snapshot;
        if parents.len() != radices.len() {
            return Err(format!("{} parents but {} radices", parents.len(), radices.len()));
        }
        if marginal.len() != value_slots {
            return Err(format!("marginal of {} slots, expected {}", marginal.len(), value_slots));
        }
        if marginal.iter().map(|&c| c as u64).sum::<u64>() != total as u64 {
            return Err("marginal counts do not sum to the absorbed row count".to_string());
        }
        let (strides, total_configs, overflow) = config_space_from_radices(&radices);
        let dense = !overflow
            && total_configs.saturating_mul(value_slots as u128 + 1) <= crate::compiled::DENSE_CELL_CAP;
        let layout = if parents.is_empty() {
            if !configs.is_empty() {
                return Err("parentless node carries parent configurations".to_string());
            }
            CountLayout::Dense { counts: Vec::new(), totals: Vec::new() }
        } else {
            if !configs.windows(2).all(|w| w[0].0 < w[1].0) {
                return Err("configurations must be sorted by index and distinct".to_string());
            }
            let mut config_total = 0u64;
            for &(index, ref row, config_count) in &configs {
                if !overflow && index >= total_configs {
                    return Err(format!("configuration index {index} outside space {total_configs}"));
                }
                if row.len() != value_slots {
                    return Err(format!("configuration row of {} slots, expected {value_slots}", row.len()));
                }
                if row.iter().map(|&c| c as u64).sum::<u64>() != config_count as u64 {
                    return Err("configuration counts do not sum to the configuration total".to_string());
                }
                if config_count == 0 {
                    return Err("snapshot carries an unobserved configuration".to_string());
                }
                config_total += config_count as u64;
            }
            if config_total != total as u64 {
                return Err("configuration totals do not sum to the absorbed row count".to_string());
            }
            if dense {
                let num_configs = total_configs as usize;
                let mut counts = vec![0u32; num_configs * value_slots];
                let mut totals = vec![0u32; num_configs];
                for (index, row, config_count) in configs {
                    let config = index as usize;
                    counts[config * value_slots..(config + 1) * value_slots].copy_from_slice(&row);
                    totals[config] = config_count;
                }
                CountLayout::Dense { counts, totals }
            } else {
                CountLayout::Sparse(
                    configs
                        .into_iter()
                        .map(|(index, row, config_count)| (index, (row, config_count)))
                        .collect(),
                )
            }
        };
        Ok(NodeCounts { node, parents, radices, strides, value_slots, marginal, total, dense, layout })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::CompiledCpt;
    use crate::cpt::Cpt;
    use bclean_data::{dataset_from, Dataset, Value};

    fn fixture() -> Dataset {
        dataset_from(
            &["Zip", "State", "City"],
            &[
                vec!["35150", "CA", "sylacauga"],
                vec!["35150", "CA", "sylacauga"],
                vec!["35150", "KT", "sylacauga"],
                vec!["35960", "KT", "centre"],
                vec!["35960", "", "centre"],
                vec!["", "KT", "centre"],
            ],
        )
    }

    /// The table compiled from the counts must score exactly like
    /// `Cpt::learn`'s probabilities (floored and logged, as every scoring
    /// caller does) over every value, unseen values and nulls included,
    /// under every observed parent configuration, and in the marginal.
    #[test]
    fn counted_table_matches_value_learning() {
        let data = fixture();
        let encoded = EncodedDataset::from_dataset(&data);
        let log = |p: f64| p.max(1e-300).ln().to_bits();
        for (node, parents) in [(1usize, vec![0usize]), (0, vec![]), (2, vec![0, 1])] {
            let learned = Cpt::learn(&data, node, &parents, 0.1);
            let counted = CompiledCpt::from_counts(&NodeCounts::accumulate(&encoded, node, &parents), 0.1);
            let dict = encoded.dict(node);
            let mut probes: Vec<(Value, u32)> =
                dict.values().iter().map(|v| (v.clone(), dict.encode(v).unwrap())).collect();
            probes.push((Value::Null, dict.null_code()));
            probes.push((Value::text("zz-unseen"), dict.unseen_code()));
            for (r, row) in data.rows().enumerate() {
                let codes = encoded.row_codes(r);
                for (v, code) in &probes {
                    assert_eq!(
                        log(learned.prob_given_row(v, row)),
                        counted.log_prob_row(&codes, *code).to_bits(),
                        "node {node} value {v} row {r}"
                    );
                    assert_eq!(log(learned.marginal_prob(v)), counted.log_marginal(*code).to_bits());
                }
            }
        }
    }

    /// The compiled table built straight from counts must score exactly like
    /// the compiled table flattened from a `Value`-learned CPT.
    #[test]
    fn compiled_from_counts_matches_compiled_from_cpt() {
        let data = fixture();
        let encoded = EncodedDataset::from_dataset(&data);
        for (node, parents) in [(1usize, vec![0usize]), (0, vec![]), (2, vec![0, 1])] {
            let via_values = CompiledCpt::compile(&Cpt::learn(&data, node, &parents, 0.1), encoded.dicts());
            let via_counts = CompiledCpt::from_counts(&NodeCounts::accumulate(&encoded, node, &parents), 0.1);
            let dict = encoded.dict(node);
            for r in 0..data.num_rows() {
                let codes = encoded.row_codes(r);
                for code in 0..=dict.unseen_code() {
                    assert_eq!(
                        via_values.log_prob_row(&codes, code).to_bits(),
                        via_counts.log_prob_row(&codes, code).to_bits(),
                        "node {node} row {r} code {code}"
                    );
                    assert_eq!(
                        via_values.log_marginal(code).to_bits(),
                        via_counts.log_marginal(code).to_bits()
                    );
                }
            }
        }
    }

    /// Large parent spaces must take the sparse counting layout and still
    /// reproduce the `Value`-learned tables.
    #[test]
    fn sparse_counting_layout_matches() {
        // Two high-cardinality parents: 601 × 601 configurations over the
        // child's 4 row slots exceed the dense budget.
        let rows: Vec<Vec<String>> = (0..600)
            .map(|i| vec![format!("k{i:03}"), format!("b{i:03}"), if i % 2 == 0 { "x" } else { "y" }.into()])
            .collect();
        let refs: Vec<Vec<&str>> = rows.iter().map(|r| r.iter().map(|s| s.as_str()).collect()).collect();
        let data = dataset_from(&["a", "b", "c"], &refs);
        let encoded = EncodedDataset::from_dataset(&data);
        let counts = NodeCounts::accumulate(&encoded, 2, &[0, 1]);
        assert!(!counts.dense, "601 × 601 parent configs must overflow the dense budget");
        let learned = Cpt::learn(&data, 2, &[0, 1], 0.5);
        let counted = CompiledCpt::from_counts(&counts, 0.5);
        let dict = encoded.dict(2);
        for (r, row) in data.rows().enumerate() {
            let codes = encoded.row_codes(r);
            for v in [Value::text("x"), Value::text("y"), Value::Null] {
                assert_eq!(
                    learned.prob_given_row(&v, row).max(1e-300).ln().to_bits(),
                    counted.log_prob_row(&codes, dict.encode(&v).unwrap()).to_bits(),
                    "row {r} value {v}"
                );
            }
        }
    }

    /// Absorbing appended batches (with dictionary growth forcing marginal,
    /// row and mixed-radix re-addressing) must reproduce a one-shot
    /// accumulate over the concatenated data: the compiled scores are
    /// compared through values, which is exactly the invariant the
    /// streaming refit relies on.
    #[test]
    fn absorbed_batches_match_one_shot_accumulate() {
        let first = fixture();
        let batch = dataset_from(
            &["Zip", "State", "City"],
            &[
                vec!["35150", "AL", "gadsden"],   // new State + new City
                vec!["99999", "CA", "sylacauga"], // new Zip
                vec!["", "", "centre"],
            ],
        );
        let mut combined = first.clone();
        for row in batch.rows() {
            combined.push_row(row.to_vec()).unwrap();
        }
        let streaming = EncodedDataset::from_dataset(&first);
        let oneshot_encoded = EncodedDataset::from_dataset(&combined);
        for (node, parents) in [(1usize, vec![0usize]), (0, vec![]), (2, vec![0, 1])] {
            let mut counts = NodeCounts::accumulate(&streaming, node, &parents);
            let mut grown = streaming.clone();
            let report = grown.append_batch(&batch);
            counts.absorb(&grown, report.rows.clone());
            assert_eq!(counts.rows_absorbed(), combined.num_rows());
            let reference = NodeCounts::accumulate(&oneshot_encoded, node, &parents);
            let mut probes: Vec<Value> = oneshot_encoded.dict(node).values().to_vec();
            probes.push(Value::Null);
            // Compiled scores must agree through the respective code spaces.
            let streamed_compiled = CompiledCpt::from_counts(&counts, 0.1);
            let reference_compiled = CompiledCpt::from_counts(&reference, 0.1);
            for (r, row) in combined.rows().enumerate() {
                let s_codes: Vec<u32> =
                    row.iter().zip(grown.dicts()).map(|(v, d)| d.encode(v).unwrap()).collect();
                let o_codes = oneshot_encoded.row_codes(r);
                for v in &probes {
                    let s = grown.dict(node).encode(v).unwrap();
                    let o = oneshot_encoded.dict(node).encode(v).unwrap();
                    assert_eq!(
                        streamed_compiled.log_prob_row(&s_codes, s).to_bits(),
                        reference_compiled.log_prob_row(&o_codes, o).to_bits(),
                        "compiled node {node} row {r} value {v}"
                    );
                    assert_eq!(
                        streamed_compiled.log_marginal(s).to_bits(),
                        reference_compiled.log_marginal(o).to_bits()
                    );
                }
            }
        }
    }

    /// Merging per-shard `accumulate_range` partials — in any order — must
    /// reproduce the one-shot accumulate exactly, for parentless, dense and
    /// sparse layouts alike (the invariant the sharded fit relies on).
    #[test]
    fn merged_shard_partials_match_one_shot_accumulate() {
        // High-cardinality columns so node 2's parent space takes the
        // sparse layout; node 1 stays dense; node 0 is parentless.
        let rows: Vec<Vec<String>> = (0..600)
            .map(|i| {
                vec![
                    format!("k{:03}", i % 599),
                    format!("b{:03}", i % 601),
                    if i % 2 == 0 { "x" } else { "y" }.into(),
                ]
            })
            .collect();
        let refs: Vec<Vec<&str>> = rows.iter().map(|r| r.iter().map(|s| s.as_str()).collect()).collect();
        let encoded = EncodedDataset::from_dataset(&dataset_from(&["a", "b", "c"], &refs));
        let n = encoded.num_rows();
        for (node, parents) in [(0usize, vec![]), (1, vec![0usize]), (2, vec![0, 1])] {
            let one_shot = NodeCounts::accumulate(&encoded, node, &parents);
            for bounds in [vec![0, n], vec![0, 151, n], vec![0, 1, 2, 599, n]] {
                let mut partials: Vec<NodeCounts> = bounds
                    .windows(2)
                    .map(|w| NodeCounts::accumulate_range(&encoded, node, &parents, w[0]..w[1]))
                    .collect();
                assert!(
                    partials.iter().all(|p| p.dense == one_shot.dense),
                    "layout must not depend on the range"
                );
                // Merge right-to-left to prove order independence.
                while partials.len() > 1 {
                    let last = partials.pop().unwrap();
                    partials.last_mut().unwrap().merge(&last);
                }
                assert_eq!(partials[0].snapshot(), one_shot.snapshot(), "node {node}, shards {bounds:?}");
            }
        }
    }

    /// Snapshot → restore must be field-for-field lossless for dense,
    /// sparse and parentless layouts, and the restored statistics must
    /// produce bit-identical compiled tables.
    #[test]
    fn snapshot_round_trip_is_lossless() {
        let data = fixture();
        let encoded = EncodedDataset::from_dataset(&data);
        for (node, parents) in [(1usize, vec![0usize]), (0, vec![]), (2, vec![0, 1])] {
            let counts = NodeCounts::accumulate(&encoded, node, &parents);
            let restored = NodeCounts::from_snapshot(counts.snapshot()).unwrap();
            assert_eq!(restored.node(), counts.node());
            assert_eq!(restored.parents(), counts.parents());
            assert_eq!(restored.rows_absorbed(), counts.rows_absorbed());
            assert_eq!(restored.dense, counts.dense);
            assert_eq!(restored.snapshot(), counts.snapshot());
            let original = CompiledCpt::from_counts(&counts, 0.1);
            let rebuilt = CompiledCpt::from_counts(&restored, 0.1);
            for r in 0..data.num_rows() {
                let codes = encoded.row_codes(r);
                for code in 0..=encoded.dict(node).unseen_code() {
                    assert_eq!(
                        original.log_prob_row(&codes, code).to_bits(),
                        rebuilt.log_prob_row(&codes, code).to_bits()
                    );
                }
            }
        }
        // The sparse layout round-trips too.
        let rows: Vec<Vec<String>> = (0..600)
            .map(|i| vec![format!("k{i:03}"), format!("b{i:03}"), if i % 2 == 0 { "x" } else { "y" }.into()])
            .collect();
        let refs: Vec<Vec<&str>> = rows.iter().map(|r| r.iter().map(|s| s.as_str()).collect()).collect();
        let big = dataset_from(&["a", "b", "c"], &refs);
        let encoded = EncodedDataset::from_dataset(&big);
        let counts = NodeCounts::accumulate(&encoded, 2, &[0, 1]);
        assert!(!counts.dense);
        let restored = NodeCounts::from_snapshot(counts.snapshot()).unwrap();
        assert!(!restored.dense);
        assert_eq!(restored.snapshot(), counts.snapshot());
    }

    /// Inconsistent snapshots must be rejected with a message, not a panic.
    #[test]
    fn inconsistent_snapshots_are_rejected() {
        let data = fixture();
        let encoded = EncodedDataset::from_dataset(&data);
        let good = NodeCounts::accumulate(&encoded, 1, &[0]).snapshot();
        type Mutation = (&'static str, Box<dyn Fn(&mut CountsSnapshot)>);
        let mutations: Vec<Mutation> = vec![
            ("radices arity", Box::new(|s| s.radices.push(3))),
            ("marginal width", Box::new(|s| s.marginal.push(0))),
            ("marginal sum", Box::new(|s| s.marginal[0] += 1)),
            ("row width", Box::new(|s| s.configs[0].1.push(0))),
            ("row sum", Box::new(|s| s.configs[0].1[0] += 1)),
            ("config order", Box::new(|s| s.configs.reverse())),
            ("index range", Box::new(|s| s.configs.last_mut().unwrap().0 = u128::MAX / 2)),
            (
                "zero config",
                Box::new(|s| {
                    s.configs[0].2 = 0;
                    s.configs[0].1.iter_mut().for_each(|c| *c = 0);
                }),
            ),
            ("parentless with configs", Box::new(|s| s.parents.clear())),
        ];
        for (what, mutate) in mutations {
            let mut bad = good.clone();
            mutate(&mut bad);
            assert!(NodeCounts::from_snapshot(bad).is_err(), "mutation `{what}` must be rejected");
        }
        assert!(NodeCounts::from_snapshot(good).is_ok());
    }

    /// A no-growth absorb must leave the layout untouched and just add rows.
    #[test]
    fn ensure_code_spaces_is_a_noop_without_growth() {
        let data = fixture();
        let encoded = EncodedDataset::from_dataset(&data);
        let mut counts = NodeCounts::accumulate(&encoded, 1, &[0]);
        assert!(!counts.ensure_code_spaces(encoded.dicts()));
        assert_eq!(counts.parents(), &[0]);
    }

    #[test]
    fn empty_dataset_is_safe() {
        let empty = Dataset::new(bclean_data::Schema::from_names(&["a", "b"]).unwrap());
        let encoded = EncodedDataset::from_dataset(&empty);
        let compiled = CompiledCpt::from_counts(&NodeCounts::accumulate(&encoded, 0, &[1]), 1.0);
        let p = compiled.log_prob_row(&[0, 0], 0).exp();
        assert!(p > 0.0 && p <= 1.0);
        assert!(compiled.log_marginal(0).is_finite());
    }
}
