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
//! # Layout
//!
//! Only what was observed is stored. The marginal holds one count per node
//! code. The conditional counts are the observed parent configurations in
//! ascending index order, each with a run of `(code, count)` pairs for the
//! node codes it was observed with, ascending code: no table spans the
//! configuration space and no run is as wide as the code space. A
//! configuration's total is the sum of its run. The runs of equal counts
//! are equal whatever order the rows arrived in, so absorbing any batch
//! split reaches the one-shot state field for field.
//!
//! Per-node accumulation is independent, which is what lets the fit
//! pipeline in `bclean-core` spread nodes across its `ParallelExecutor`.

use bclean_data::{ColumnDict, EncodedDataset};

/// Code-indexed sufficient statistics of one node: marginal value counts
/// plus the value counts of every observed parent configuration.
#[derive(Debug, Clone)]
pub struct NodeCounts {
    pub(crate) node: usize,
    pub(crate) parents: Vec<usize>,
    /// Parent code spaces (`cardinality + 1`, nulls included).
    pub(crate) radices: Vec<u32>,
    /// Mixed-radix strides matching `radices`.
    pub(crate) strides: Vec<u128>,
    /// Marginal value counts, indexed by node code, over the node's code
    /// space (`cardinality + 1`: value codes plus the null slot).
    pub(crate) marginal: Vec<u32>,
    /// Number of rows observed.
    pub(crate) total: usize,
    /// Observed parent configurations, ascending mixed-radix index (none
    /// for a parentless node).
    pub(crate) configs: Vec<u128>,
    /// Configuration `i`'s run is `codes[offsets[i]..offsets[i + 1]]`
    /// beside the same slice of `counts`.
    pub(crate) offsets: Vec<u32>,
    /// Node codes observed under each configuration, ascending per run.
    pub(crate) codes: Vec<u32>,
    /// The matching counts, all non-zero.
    pub(crate) counts: Vec<u32>,
}

/// A `u32` run offset; the counts themselves are `u32`, so no node can
/// hold more entries.
pub(crate) fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("count entries fit the u32 counts")
}

impl NodeCounts {
    /// Accumulate the statistics of `node` given `parents` over the encoded
    /// columns: empty counts over the dictionaries' code spaces
    /// plus [`NodeCounts::absorb`] of every row. The dataset must be encoded
    /// against its own dictionaries (every code in range), as produced by
    /// [`EncodedDataset::from_dataset`].
    pub fn accumulate(encoded: &EncodedDataset, node: usize, parents: &[usize]) -> NodeCounts {
        let dicts = encoded.dicts();
        let marginal = vec![0; dicts[node].code_space()];
        let mut counts =
            NodeCounts::without_runs(node, parents.to_vec(), parent_radices(parents, dicts), marginal, 0);
        counts.absorb(encoded, 0..encoded.num_rows());
        counts
    }

    /// Statistics with the given marginal and no configuration runs yet.
    fn without_runs(
        node: usize,
        parents: Vec<usize>,
        radices: Vec<u32>,
        marginal: Vec<u32>,
        total: usize,
    ) -> NodeCounts {
        let (strides, _, _) = config_space_from_radices(&radices);
        let (configs, offsets, codes, counts) = (Vec::new(), vec![0], Vec::new(), Vec::new());
        NodeCounts { node, parents, radices, strides, marginal, total, configs, offsets, codes, counts }
    }

    /// The observed parent configurations as `(mixed-radix index, codes,
    /// counts)`, ascending index.
    pub(crate) fn runs(&self) -> impl Iterator<Item = (u128, &[u32], &[u32])> {
        self.configs.iter().zip(self.offsets.windows(2)).map(|(&index, run)| {
            let run = run[0] as usize..run[1] as usize;
            (index, &self.codes[run.clone()], &self.counts[run])
        })
    }

    /// Append a `(configuration, code, count)` entry to the runs. Entries
    /// must arrive in `(configuration, code)` order; one equal to the last
    /// in both adds its count to it.
    fn push(&mut self, (index, code, count): (u128, u32, u32)) {
        if self.configs.last() != Some(&index) {
            self.configs.push(index);
            self.offsets.push(offset(self.codes.len()));
        } else if self.codes.last() == Some(&code) {
            *self.counts.last_mut().expect("the run holds this code") += count;
            return;
        }
        self.codes.push(code);
        self.counts.push(count);
        *self.offsets.last_mut().expect("offsets start at 0") = offset(self.codes.len());
    }

    /// The node these statistics describe.
    pub fn node(&self) -> usize {
        self.node
    }

    /// The node's parent set, as counted.
    pub fn parents(&self) -> &[usize] {
        &self.parents
    }

    /// The node's code space the counts cover (`cardinality + 1`).
    pub fn value_slots(&self) -> usize {
        self.marginal.len()
    }

    /// The parents' code spaces the configurations are addressed over.
    pub fn radices(&self) -> &[u32] {
        &self.radices
    }

    /// Number of rows absorbed into the counts.
    pub fn rows_absorbed(&self) -> usize {
        self.total
    }

    /// Grow the counts to the dictionaries' current code spaces after a
    /// batch append. Appends only ever add codes at the tail of a column's
    /// code space, so existing counts keep their codes and their
    /// configurations' digits: the marginal extends with zero slots and
    /// each configuration is re-addressed from the old mixed-radix strides
    /// to the new ones. Re-addressing keeps the configurations' order,
    /// since the digits compare the same way under either radices. Returns
    /// `true` when anything changed.
    pub fn ensure_code_spaces(&mut self, dicts: &[ColumnDict]) -> bool {
        let new_slots = dicts[self.node].code_space();
        let new_radices = parent_radices(&self.parents, dicts);
        if new_slots == self.marginal.len() && new_radices == self.radices {
            return false;
        }
        debug_assert!(
            new_slots >= self.marginal.len() && new_radices.iter().zip(&self.radices).all(|(n, o)| n >= o),
            "code spaces never shrink"
        );
        let (new_strides, _, _) = config_space_from_radices(&new_radices);
        for index in &mut self.configs {
            let old_index = *index;
            let old_addressing = self.strides.iter().zip(&self.radices);
            *index = old_addressing
                .zip(&new_strides)
                .map(|((&stride, &radix), &new_stride)| (old_index / stride) % radix as u128 * new_stride)
                .sum();
        }
        debug_assert!(self.configs.windows(2).all(|w| w[0] < w[1]), "re-addressing keeps the order");
        self.marginal.resize(new_slots, 0);
        self.radices = new_radices;
        self.strides = new_strides;
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
        self.total += rows.len();
        if self.parents.is_empty() || rows.is_empty() {
            return;
        }
        // The stored entries and one per row, sorted: equal (configuration,
        // code) pairs are adjacent and add up as they are pushed back.
        let stored = self.runs().flat_map(|(index, codes, counts)| {
            codes.iter().zip(counts).map(move |(&code, &count)| (index, code, count))
        });
        let mut entries: Vec<(u128, u32, u32)> = stored.collect();
        let batch = entries.len();
        entries.extend(node_codes.iter().map(|&code| (0, code, 1)));
        for (&parent, &stride) in self.parents.iter().zip(&self.strides) {
            for (entry, &code) in entries[batch..].iter_mut().zip(&encoded.column(parent)[rows.clone()]) {
                entry.0 += code as u128 * stride;
            }
        }
        entries.sort_unstable();
        (self.configs, self.offsets, self.codes, self.counts) = (Vec::new(), vec![0], Vec::new(), Vec::new());
        entries.into_iter().for_each(|entry| self.push(entry));
    }
}

/// Mixed-radix addressing of a parent set over the dictionaries: radices,
/// strides, total configuration count and an overflow flag.
pub(crate) fn config_space(parents: &[usize], dicts: &[ColumnDict]) -> (Vec<u32>, Vec<u128>, u128, bool) {
    let radices = parent_radices(parents, dicts);
    let (strides, total_configs, overflow) = config_space_from_radices(&radices);
    (radices, strides, total_configs, overflow)
}

/// The parents' code spaces (`cardinality + 1` each, nulls included).
fn parent_radices(parents: &[usize], dicts: &[ColumnDict]) -> Vec<u32> {
    parents.iter().map(|&p| dicts[p].code_space() as u32).collect()
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
/// form of [`NodeCounts`]. It carries the observed parent configurations
/// with their runs, sorted, so equal statistics always snapshot to equal
/// bytes; strides and configuration totals are derived state, recomputed
/// on restore.
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
    /// Observed parent configurations, ascending mixed-radix index, each
    /// with its `(node code, count)` pairs: ascending code, non-zero
    /// counts.
    pub configs: Vec<(u128, Vec<(u32, u32)>)>,
}

impl NodeCounts {
    /// Export the statistics as their plain-data persistent form.
    pub fn snapshot(&self) -> CountsSnapshot {
        CountsSnapshot {
            node: self.node,
            parents: self.parents.clone(),
            radices: self.radices.clone(),
            value_slots: self.marginal.len(),
            marginal: self.marginal.clone(),
            total: self.total,
            configs: self
                .runs()
                .map(|(index, codes, counts)| {
                    (index, codes.iter().copied().zip(counts.iter().copied()).collect())
                })
                .collect(),
        }
    }

    /// Rebuild statistics from a snapshot, recomputing the derived state
    /// (strides) so the result is field-for-field identical to the
    /// accumulator that produced the snapshot. Errors describe the first
    /// inconsistency (the store layer maps them to its typed corruption
    /// error).
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
        let (_, total_configs, overflow) = config_space_from_radices(&radices);
        if parents.is_empty() && !configs.is_empty() {
            return Err("parentless node carries parent configurations".to_string());
        }
        if !configs.windows(2).all(|w| w[0].0 < w[1].0) {
            return Err("configurations must be sorted by index and distinct".to_string());
        }
        let mut counts = NodeCounts::without_runs(node, parents, radices, marginal, total);
        let mut by_code = vec![0u64; value_slots];
        for (index, run) in configs {
            if !overflow && index >= total_configs {
                return Err(format!("configuration index {index} outside space {total_configs}"));
            }
            if run.is_empty() {
                return Err("snapshot carries an unobserved configuration".to_string());
            }
            if !run.windows(2).all(|w| w[0].0 < w[1].0) {
                return Err(format!("run of configuration {index} is not sorted by code and distinct"));
            }
            for (code, count) in run {
                if code as usize >= value_slots {
                    return Err(format!("code {code} outside the code space of {value_slots}"));
                }
                if count == 0 {
                    return Err(format!("configuration {index} carries a zero count"));
                }
                by_code[code as usize] += count as u64;
                counts.push((index, code, count));
            }
        }
        let marginal_by_code = counts.marginal.iter().map(|&c| c as u64);
        if !counts.parents.is_empty() && !by_code.into_iter().eq(marginal_by_code) {
            return Err("configuration counts do not sum to the marginal counts".to_string());
        }
        Ok(counts)
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

    /// Large parent spaces store only their observed configurations and
    /// still reproduce the `Value`-learned tables.
    #[test]
    fn sparse_counting_layout_matches() {
        // Two high-cardinality parents: 601 × 601 configurations, of which
        // the 600 rows observe one each.
        let rows: Vec<Vec<String>> = (0..600)
            .map(|i| vec![format!("k{i:03}"), format!("b{i:03}"), if i % 2 == 0 { "x" } else { "y" }.into()])
            .collect();
        let refs: Vec<Vec<&str>> = rows.iter().map(|r| r.iter().map(|s| s.as_str()).collect()).collect();
        let data = dataset_from(&["a", "b", "c"], &refs);
        let encoded = EncodedDataset::from_dataset(&data);
        let counts = NodeCounts::accumulate(&encoded, 2, &[0, 1]);
        // Row `i` reads codes (i, i) of the parents, so its configuration is
        // `i + 601 i`, and its run is its one child code.
        let expected: Vec<u128> = (0..600).map(|i| i + 601 * i).collect();
        assert_eq!(counts.configs, expected);
        assert_eq!(counts.offsets, (0..=600).collect::<Vec<u32>>());
        let x = encoded.dict(2).encode(&Value::text("x")).unwrap();
        let y = encoded.dict(2).encode(&Value::text("y")).unwrap();
        assert_eq!(counts.codes, (0..600).map(|i| if i % 2 == 0 { x } else { y }).collect::<Vec<_>>());
        assert_eq!(counts.counts, vec![1; 600]);
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
            let rows = grown.append_batch(&batch);
            counts.absorb(&grown, rows);
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

    /// Snapshot → restore must be field-for-field lossless for parentless,
    /// one- and two-parent nodes and a large configuration space, and the
    /// restored statistics must produce bit-identical compiled tables.
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
        // A 601 × 601 configuration space round-trips too.
        let rows: Vec<Vec<String>> = (0..600)
            .map(|i| vec![format!("k{i:03}"), format!("b{i:03}"), if i % 2 == 0 { "x" } else { "y" }.into()])
            .collect();
        let refs: Vec<Vec<&str>> = rows.iter().map(|r| r.iter().map(|s| s.as_str()).collect()).collect();
        let big = dataset_from(&["a", "b", "c"], &refs);
        let encoded = EncodedDataset::from_dataset(&big);
        let counts = NodeCounts::accumulate(&encoded, 2, &[0, 1]);
        let restored = NodeCounts::from_snapshot(counts.snapshot()).unwrap();
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
            ("code outside the space", Box::new(|s| s.configs[0].1.push((s.value_slots as u32, 1)))),
            ("run sum", Box::new(|s| s.configs[0].1[0].1 += 1)),
            ("config order", Box::new(|s| s.configs.reverse())),
            ("index range", Box::new(|s| s.configs.last_mut().unwrap().0 = u128::MAX / 2)),
            ("empty run", Box::new(|s| s.configs[0].1.clear())),
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
