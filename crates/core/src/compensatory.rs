//! The compensatory scoring model (paper §5, Algorithm 2).
//!
//! Bayesian inference on a network learned from dirty data amplifies errors:
//! `log Pr[c|t]` alone can prefer a frequent-but-wrong repair. The paper
//! compensates with the second half of Eq. 1, `log Pr[t] − log Pr[t|c]`,
//! approximated by a correlation score `Score_corr` built from a
//! co-occurrence dictionary weighted by per-tuple confidence:
//!
//! * every tuple gets a confidence `conf(T)` from the user constraints (Eq. 3);
//! * pairs of attribute values `(c, e)` observed in a high-confidence tuple
//!   (`conf ≥ τ`) add `+1` to their correlation counter, pairs observed in a
//!   low-confidence tuple subtract the penalty `β` (Algorithm 2);
//! * `Score_corr(c, t, A_j) = Σ_{A_k ≠ A_j} corr(c, t[A_k], A_j, A_k)`
//!   normalised by `|D|` (Eq. 2).
//!
//! # Storage
//!
//! The model is *dictionary-compiled*: every attribute value is translated
//! to its `u32` code (see [`bclean_data::encoded`]) while the model is built.
//! The counters of each **unordered** column pair live in one `PairIndex`:
//! the non-zero tallies in compressed sparse row (CSR) order — per code of
//! the lower column, a run of the other column's codes, sorted — plus one
//! permutation that gives the transposed runs. Both orientations are
//! therefore posting lists, and every point query is one binary search in
//! the run of the candidate's code. The index is built by counting sort and
//! grown by merging sorted runs, so neither fitting nor scoring hashes
//! anything. The inference hot loop queries the `*_codes` methods with
//! pre-encoded rows and never hashes or clones a [`Value`]; the
//! `Value`-typed methods remain as a thin facade that encodes through the
//! stored [`ColumnDict`]s before delegating.
//!
//! The cleaner reads the runs whole. Its anchored candidates are the run
//! of the anchor value, and it scores a candidate set one context column
//! at a time: one scan of the run of the tuple's value in that column adds
//! each listed candidate's term, which is the `Score_corr` sum of every
//! candidate in the same column order, bit for bit. Point queries remain
//! for the observed value, whose score leaves its own tuple out.

use std::ops::Range;

use bclean_data::{ColumnDict, Dataset, EncodedDataset, Value};

use crate::constraints::ConstraintSet;
use crate::exec::ParallelExecutor;

/// Parameters of the compensatory model (paper defaults: λ=1, β=2, τ=0.5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompensatoryParams {
    /// Penalty weight on UC violations inside the tuple confidence (Eq. 3).
    pub lambda: f64,
    /// Penalty subtracted from the correlation counter for low-confidence tuples.
    pub beta: f64,
    /// Confidence threshold above which a tuple is considered reliable.
    pub tau: f64,
}

impl Default for CompensatoryParams {
    fn default() -> Self {
        CompensatoryParams { lambda: 1.0, beta: 2.0, tau: 0.5 }
    }
}

/// Co-occurrence tallies of one code pair, split by tuple confidence: `pos`
/// counts observations in reliable tuples (`conf ≥ τ`), `neg` in penalised
/// ones. The signed correlation of Algorithm 2 is *derived* — `pos − β·neg`
/// — instead of stored as a running `f64` sum, so accumulating the counters
/// in any order (row order, batch splits) produces exactly the same entry;
/// this is what makes incremental absorbs bit-identical to one-shot fitting
/// for every β, not just integral ones.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct PairEntry {
    /// Observations in tuples with confidence ≥ τ (each adds +1 to corr).
    pub(crate) pos: u32,
    /// Observations in penalised tuples (each subtracts β from corr).
    pub(crate) neg: u32,
}

impl PairEntry {
    /// Total co-occurrence count, `count(c, e)`.
    #[inline]
    pub(crate) fn count(&self) -> u32 {
        self.pos + self.neg
    }

    /// The signed correlation counter `pos − β·neg` of Algorithm 2.
    #[inline]
    pub(crate) fn corr(&self, beta: f64) -> f64 {
        self.pos as f64 - beta * self.neg as f64
    }

    #[inline]
    pub(crate) fn is_zero(&self) -> bool {
        self.pos == 0 && self.neg == 0
    }

    /// Count one observation: `pos` in a reliable tuple, `neg` otherwise.
    #[inline]
    fn bump(&mut self, positive: bool) {
        if positive {
            self.pos += 1;
        } else {
            self.neg += 1;
        }
    }

    /// Add another tally of the same code pair.
    #[inline]
    fn add(&mut self, other: PairEntry) {
        self.pos += other.pos;
        self.neg += other.neg;
    }
}

/// The co-occurrence index of one unordered column pair `(lo, hi)`,
/// `lo < hi`: every non-zero tally, in CSR order. The run of `lo`-code `a`
/// is `keys[offsets[a]..offsets[a + 1]]` — the `hi` codes `a` co-occurred
/// with, ascending — beside the matching slice of `entries`. The transposed
/// run of `hi`-code `b` is `t_keys[t_offsets[b]..t_offsets[b + 1]]`, the
/// `lo` codes ascending, and `t_perm` maps each of its slots to the entry
/// it shares with the forward run. Only non-zero tallies are stored, so
/// equal tallies give equal indexes whatever the order rows arrived in.
#[derive(Debug, Clone, Default)]
pub(crate) struct PairIndex {
    offsets: Vec<u32>,
    keys: Vec<u32>,
    entries: Vec<PairEntry>,
    t_offsets: Vec<u32>,
    t_keys: Vec<u32>,
    t_perm: Vec<u32>,
}

/// Prefix sums of a code histogram: `starts[c]..starts[c + 1]` is where
/// code `c`'s items land in a stable counting sort of `codes` over
/// `space` codes.
fn bucket_starts(codes: &[u32], space: usize) -> Vec<usize> {
    let mut starts = vec![0usize; space + 1];
    for &code in codes {
        starts[code as usize + 1] += 1;
    }
    for c in 1..=space {
        starts[c] += starts[c - 1];
    }
    starts
}

/// A run's slot range, or `None` for a code outside the offsets (unseen
/// and candidate sentinels, which co-occur with nothing).
#[inline]
fn run_range(offsets: &[u32], code: u32) -> Option<Range<usize>> {
    let code = code as usize;
    Some(*offsets.get(code)? as usize..*offsets.get(code + 1)? as usize)
}

/// A `u32` offset; the tallies themselves are `u32`, so no column pair can
/// hold more entries.
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("pair entries fit the u32 tallies")
}

impl PairIndex {
    /// An index with no tallies over code spaces of the given sizes.
    fn empty(space_lo: usize, space_hi: usize) -> PairIndex {
        PairIndex { offsets: vec![0; space_lo + 1], t_offsets: vec![0; space_hi + 1], ..PairIndex::default() }
    }

    /// Tally every row of two code columns, hashing nothing: a stable
    /// counting sort by the `hi` code, then one by the `lo` code, leaves the
    /// rows in `(lo, hi)` order, and equal neighbours collapse into one
    /// entry.
    fn from_columns(
        lo: &[u32],
        hi: &[u32],
        positives: &[bool],
        space_lo: usize,
        space_hi: usize,
    ) -> PairIndex {
        let hi_starts = bucket_starts(hi, space_hi);
        let mut next = hi_starts.clone();
        let mut by_hi = vec![(0u32, false); lo.len()];
        for ((&a, &b), &positive) in lo.iter().zip(hi).zip(positives) {
            let slot = &mut next[b as usize];
            by_hi[*slot] = (a, positive);
            *slot += 1;
        }
        let lo_starts = bucket_starts(lo, space_lo);
        let mut next = lo_starts.clone();
        let mut by_lo = vec![(0u32, false); lo.len()];
        for b in 0..space_hi {
            for &(a, positive) in &by_hi[hi_starts[b]..hi_starts[b + 1]] {
                let slot = &mut next[a as usize];
                by_lo[*slot] = (b as u32, positive);
                *slot += 1;
            }
        }
        let mut index = PairIndex { offsets: Vec::with_capacity(space_lo + 1), ..PairIndex::default() };
        index.offsets.push(0);
        for a in 0..space_lo {
            let run_start = index.keys.len();
            for &(b, positive) in &by_lo[lo_starts[a]..lo_starts[a + 1]] {
                if index.keys.len() == run_start || index.keys.last() != Some(&b) {
                    index.keys.push(b);
                    index.entries.push(PairEntry::default());
                }
                index.entries.last_mut().expect("an entry was just pushed").bump(positive);
            }
            index.offsets.push(offset(index.keys.len()));
        }
        index.transpose(space_hi);
        index
    }

    /// Rebuild the transposed runs: a stable counting sort of the entries
    /// by their `hi` code, which leaves each transposed run sorted by `lo`.
    fn transpose(&mut self, space_hi: usize) {
        let starts = bucket_starts(&self.keys, space_hi);
        let mut next = starts.clone();
        self.t_keys = vec![0; self.keys.len()];
        self.t_perm = vec![0; self.keys.len()];
        for (a, run) in self.offsets.windows(2).enumerate() {
            for i in run[0] as usize..run[1] as usize {
                let slot = &mut next[self.keys[i] as usize];
                self.t_keys[*slot] = a as u32;
                self.t_perm[*slot] = i as u32;
                *slot += 1;
            }
        }
        self.t_offsets = starts.into_iter().map(offset).collect();
    }

    /// Fold in the tallies of `delta`, an index over code spaces at least as
    /// large: each run becomes the sorted merge of the two runs, equal codes
    /// adding their tallies, and the offsets grow to `delta`'s code spaces.
    fn merge(&mut self, delta: &PairIndex) {
        let space_hi = delta.t_offsets.len() - 1;
        let mut merged = PairIndex {
            offsets: Vec::with_capacity(delta.offsets.len()),
            keys: Vec::with_capacity(self.keys.len() + delta.keys.len()),
            entries: Vec::with_capacity(self.keys.len() + delta.keys.len()),
            ..PairIndex::default()
        };
        merged.offsets.push(0);
        for a in 0..delta.offsets.len() as u32 - 1 {
            let old = run_range(&self.offsets, a).unwrap_or(0..0);
            let new = run_range(&delta.offsets, a).expect("delta covers its own code space");
            if new.is_empty() {
                merged.keys.extend_from_slice(&self.keys[old.clone()]);
                merged.entries.extend_from_slice(&self.entries[old]);
            } else {
                let (mut i, mut j) = (old.start, new.start);
                while i < old.end || j < new.end {
                    let take_old = j == new.end || (i < old.end && self.keys[i] <= delta.keys[j]);
                    let take_new = i == old.end || (j < new.end && delta.keys[j] <= self.keys[i]);
                    let mut entry = PairEntry::default();
                    if take_old {
                        entry.add(self.entries[i]);
                    }
                    if take_new {
                        entry.add(delta.entries[j]);
                    }
                    merged.keys.push(if take_old { self.keys[i] } else { delta.keys[j] });
                    merged.entries.push(entry);
                    i += take_old as usize;
                    j += take_new as usize;
                }
            }
            merged.offsets.push(offset(merged.keys.len()));
        }
        merged.transpose(space_hi);
        *self = merged;
    }

    /// The tallies of `lo`-code `a` with `hi`-code `b`, from the run of `a`.
    #[inline]
    fn get_by_lo(&self, a: u32, b: u32) -> PairEntry {
        let Some(run) = run_range(&self.offsets, a) else {
            return PairEntry::default();
        };
        match self.keys[run.clone()].binary_search(&b) {
            Ok(i) => self.entries[run.start + i],
            Err(_) => PairEntry::default(),
        }
    }

    /// The tallies of `hi`-code `b` with `lo`-code `a`, from the run of `b`.
    #[inline]
    fn get_by_hi(&self, b: u32, a: u32) -> PairEntry {
        let Some(run) = run_range(&self.t_offsets, b) else {
            return PairEntry::default();
        };
        match self.t_keys[run.clone()].binary_search(&a) {
            Ok(i) => self.entries[self.t_perm[run.start + i] as usize],
            Err(_) => PairEntry::default(),
        }
    }

    /// The other column's codes in the run of `code`, ascending: the run
    /// keyed by the `lo` codes when `by_lo`, by the `hi` codes otherwise.
    /// Codes outside the offsets have empty runs.
    #[inline]
    fn run_keys(&self, by_lo: bool, code: u32) -> &[u32] {
        let (offsets, keys) =
            if by_lo { (&self.offsets, &self.keys) } else { (&self.t_offsets, &self.t_keys) };
        run_range(offsets, code).map_or(&[], |run| &keys[run])
    }

    /// Visit the run of `code` (see [`PairIndex::run_keys`]) as
    /// `(other code, tallies)`, ascending other code.
    #[inline]
    fn for_each_in_run(&self, by_lo: bool, code: u32, mut visit: impl FnMut(u32, PairEntry)) {
        if by_lo {
            let Some(run) = run_range(&self.offsets, code) else {
                return;
            };
            for (&key, &entry) in self.keys[run.clone()].iter().zip(&self.entries[run]) {
                visit(key, entry);
            }
        } else {
            let Some(run) = run_range(&self.t_offsets, code) else {
                return;
            };
            for (&key, &slot) in self.t_keys[run.clone()].iter().zip(&self.t_perm[run]) {
                visit(key, self.entries[slot as usize]);
            }
        }
    }

    /// Visit every entry run by run, as `(run code, other code, tallies)`
    /// in run order and, within a run, ascending other code.
    fn for_each(&self, by_lo: bool, mut visit: impl FnMut(usize, u32, PairEntry)) {
        let codes = if by_lo { self.offsets.len() } else { self.t_offsets.len() } - 1;
        for code in 0..codes {
            self.for_each_in_run(by_lo, code as u32, |key, entry| visit(code, key, entry));
        }
    }

    /// The persisted form: the forward offsets, keys and tallies.
    pub(crate) fn runs(&self) -> (&[u32], &[u32], &[PairEntry]) {
        (&self.offsets, &self.keys, &self.entries)
    }

    /// Rebuild an index from its persisted form, checking every invariant
    /// a live index keeps: one offset per `lo` code plus one, starting at 0,
    /// never decreasing and ending at the entry count; keys inside the `hi`
    /// code space and strictly ascending within each run; no all-zero
    /// entry; and run tallies that sum to each code's value count, on both
    /// sides. The code spaces are the lengths of the two value-count lists.
    pub(crate) fn from_runs(
        offsets: Vec<u32>,
        keys: Vec<u32>,
        entries: Vec<PairEntry>,
        counts_lo: &[u32],
        counts_hi: &[u32],
    ) -> Result<PairIndex, String> {
        if offsets.len() != counts_lo.len() + 1 {
            return Err(format!("{} offsets for a code space of {}", offsets.len(), counts_lo.len()));
        }
        if offsets[0] != 0 || offsets[offsets.len() - 1] as usize != keys.len() {
            return Err(format!("offsets do not span the {} entries", keys.len()));
        }
        // Non-decreasing offsets that end at the entry count never overrun it.
        if let Some(a) = offsets.windows(2).position(|run| run[0] > run[1]) {
            return Err(format!("offsets decrease at code {a}"));
        }
        if keys.len() != entries.len() {
            return Err(format!("{} keys for {} entries", keys.len(), entries.len()));
        }
        let mut hi_totals = vec![0u64; counts_hi.len()];
        for (a, run) in offsets.windows(2).enumerate() {
            let mut total = 0u64;
            let mut previous: Option<u32> = None;
            for i in run[0] as usize..run[1] as usize {
                let (b, entry) = (keys[i], entries[i]);
                if b as usize >= counts_hi.len() {
                    return Err(format!("code {b} outside the code space of {}", counts_hi.len()));
                }
                if previous.is_some_and(|p| p >= b) {
                    return Err(format!("run of code {a} is not sorted and distinct"));
                }
                if entry.is_zero() {
                    return Err(format!("entry ({a}, {b}) is all zero"));
                }
                previous = Some(b);
                let count = entry.pos as u64 + entry.neg as u64;
                total += count;
                hi_totals[b as usize] += count;
            }
            if total != counts_lo[a] as u64 {
                return Err(format!(
                    "run of code {a} tallies {total} rows, its value count is {}",
                    counts_lo[a]
                ));
            }
        }
        if let Some(b) = (0..counts_hi.len()).find(|&b| hi_totals[b] != counts_hi[b] as u64) {
            return Err(format!("transposed run of code {b} does not sum to its value count"));
        }
        let mut index = PairIndex { offsets, keys, entries, ..PairIndex::default() };
        index.transpose(counts_hi.len());
        Ok(index)
    }
}

/// A code that is no candidate, in the code → candidate map of
/// [`CompensatoryModel::log_scores_codes`].
const NO_SLOT: u32 = u32::MAX;

/// The unordered column pairs `(lo, hi)`, `lo < hi`, in the order
/// [`CompensatoryModel::pairs`] stores their indexes.
pub(crate) fn column_pairs(m: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..m).flat_map(move |lo| (lo + 1..m).map(move |hi| (lo, hi)))
}

/// The compensatory scoring model: code-indexed co-occurrence indexes plus
/// per-attribute value counts, with the fitting dataset's [`ColumnDict`]s
/// retained so `Value`-typed callers (and the cleaner, when it encodes a
/// dataset for inference) share the model's code space.
#[derive(Debug, Clone)]
pub struct CompensatoryModel {
    pub(crate) params: CompensatoryParams,
    /// The per-attribute dictionaries the model was compiled with.
    pub(crate) dicts: Vec<ColumnDict>,
    /// One index per unordered column pair, in [`column_pairs`] order.
    pub(crate) pairs: Vec<PairIndex>,
    /// Per-attribute code-indexed value counts (null code included).
    pub(crate) value_counts: Vec<Vec<u32>>,
    /// Number of tuples |D|.
    pub(crate) num_rows: usize,
    /// Number of attributes m.
    pub(crate) num_cols: usize,
    /// Running sum of tuple confidences, accumulated in row order (kept as
    /// the sum — not the mean — so streaming absorbs reproduce the one-shot
    /// float sequence exactly).
    pub(crate) conf_sum: f64,
}

/// Per-row tuple confidences (Eq. 3) of a dataset: the user-constraint
/// sweep shared by every compensatory builder, and the builders' **only**
/// use of raw `Value` rows. Blocks execute in parallel and flatten in block
/// order, so the result is the row-order confidence vector at every thread
/// count — which is what makes a chunk-by-chunk streaming accumulation of
/// the same per-row function bit-identical to this sweep.
pub(crate) fn tuple_confidences(
    dataset: &Dataset,
    constraints: &ConstraintSet,
    lambda: f64,
    executor: &ParallelExecutor,
) -> Vec<f64> {
    let schema = dataset.schema();
    executor
        .execute(dataset.num_rows(), |rows| {
            rows.map(|r| constraints.tuple_confidence(schema, dataset.row(r).expect("row in range"), lambda))
                .collect::<Vec<f64>>()
        })
        .into_iter()
        .flatten()
        .collect()
}

impl CompensatoryModel {
    /// A model with no rows absorbed, over the given dictionaries.
    pub(crate) fn empty(dicts: Vec<ColumnDict>, params: CompensatoryParams) -> CompensatoryModel {
        let m = dicts.len();
        let pairs = column_pairs(m)
            .map(|(lo, hi)| PairIndex::empty(dicts[lo].code_space(), dicts[hi].code_space()))
            .collect();
        let value_counts = dicts.iter().map(|d| vec![0u32; d.code_space()]).collect();
        CompensatoryModel { params, dicts, pairs, value_counts, num_rows: 0, num_cols: m, conf_sum: 0.0 }
    }

    /// Build the model from the observed dataset and the user constraints
    /// (Algorithm 2): an empty model over the dataset's encoding plus
    /// [`CompensatoryModel::absorb`] of every row, in row order — the serial
    /// reference the parallel builder is checked against. With an empty
    /// constraint set every tuple has confidence 1, so all pairs count
    /// positively — the `BClean-UC` behaviour.
    pub fn build(
        dataset: &Dataset,
        constraints: &ConstraintSet,
        params: CompensatoryParams,
    ) -> CompensatoryModel {
        let encoded = EncodedDataset::from_dataset(dataset);
        let mut model = CompensatoryModel::empty(encoded.dicts().to_vec(), params);
        model.absorb(dataset, constraints, &encoded, 0..encoded.num_rows());
        model
    }

    /// The fit pipeline's builder: tuple confidences (Eq. 3, the per-row
    /// user-constraint sweep and the only use of the `Value` rows) over row
    /// blocks of the shared [`ParallelExecutor`], then the pair-parallel
    /// builder `build_parallel_with_confidences`. Bit-identical to
    /// [`CompensatoryModel::build`] at every thread count.
    pub fn build_parallel(
        dataset: &Dataset,
        encoded: &EncodedDataset,
        constraints: &ConstraintSet,
        params: CompensatoryParams,
        executor: &ParallelExecutor,
    ) -> CompensatoryModel {
        assert_eq!(encoded.num_rows(), dataset.num_rows(), "encoded dataset must match the value dataset");
        let confidences = tuple_confidences(dataset, constraints, params.lambda, executor);
        CompensatoryModel::build_parallel_with_confidences(encoded, params, executor, &confidences)
    }

    /// The pair-parallel builder, from pre-computed per-row tuple
    /// confidences instead of the raw `Value` dataset, so a streaming fit
    /// that accumulates confidences chunk by chunk (in row order) lands here
    /// and produces the identical model without materialising the dataset.
    /// `encoded` must be an encoding of the fitting dataset against its own
    /// dictionaries.
    ///
    /// Each column's value counts are one work item, and so is each
    /// unordered column pair's [`PairIndex`], counting-sorted from two code
    /// columns. An index is owned by one worker and holds integer tallies,
    /// and the confidence sum folds in row order, so the model is
    /// bit-identical at every thread count.
    pub(crate) fn build_parallel_with_confidences(
        encoded: &EncodedDataset,
        params: CompensatoryParams,
        executor: &ParallelExecutor,
        confidences: &[f64],
    ) -> CompensatoryModel {
        let m = encoded.num_columns();
        let n = encoded.num_rows();
        assert_eq!(n, confidences.len(), "one tuple confidence per encoded row");
        let dicts = encoded.dicts();
        let value_counts: Vec<Vec<u32>> = executor.map(m, |i| {
            // Indexing by code also checks that the encoding is against the
            // column's own dictionary: a lossy re-encoding against foreign
            // dictionaries carries unseen codes, which panic here.
            let mut counts = vec![0u32; dicts[i].code_space()];
            for &a in encoded.column(i) {
                counts[a as usize] += 1;
            }
            counts
        });
        let conf_sum: f64 = confidences.iter().sum();
        let positives: Vec<bool> = confidences.iter().map(|&c| c >= params.tau).collect();
        let pair_cols: Vec<(usize, usize)> = column_pairs(m).collect();
        let pairs = executor.map(pair_cols.len(), |p| {
            let (lo, hi) = pair_cols[p];
            PairIndex::from_columns(
                encoded.column(lo),
                encoded.column(hi),
                &positives,
                dicts[lo].code_space(),
                dicts[hi].code_space(),
            )
        });
        CompensatoryModel {
            params,
            dicts: dicts.to_vec(),
            pairs,
            value_counts,
            num_rows: n,
            num_cols: m,
            conf_sum,
        }
    }

    /// Absorb a batch into the counters: Algorithm 2's per-tuple loop in row
    /// order. `encoded` holds the batch's codes at `rows`, against the
    /// model's dictionaries grown at the tail; the batch's `Value` rows are
    /// still needed because tuple confidences (Eq. 3) evaluate arbitrary
    /// value predicates. Each pair index folds in the batch's own index by
    /// merging sorted runs. Pair counters are integer tallies (`PairEntry`)
    /// and the confidence sum accumulates in row order, so absorbing any
    /// batch split of a dataset reproduces the one-shot build bit-for-bit.
    pub fn absorb(
        &mut self,
        batch: &Dataset,
        constraints: &ConstraintSet,
        encoded: &EncodedDataset,
        rows: Range<usize>,
    ) {
        assert_eq!(batch.num_rows(), rows.len(), "batch rows must match the appended row range");
        self.sync_dicts(encoded);
        let mut positives = Vec::with_capacity(rows.len());
        for row in batch.rows() {
            let conf = constraints.tuple_confidence(batch.schema(), row, self.params.lambda);
            self.conf_sum += conf;
            positives.push(conf >= self.params.tau);
        }
        for (col, counts) in self.value_counts.iter_mut().enumerate() {
            for &a in &encoded.column(col)[rows.clone()] {
                counts[a as usize] += 1;
            }
        }
        for ((lo, hi), index) in column_pairs(self.num_cols).zip(&mut self.pairs) {
            index.merge(&PairIndex::from_columns(
                &encoded.column(lo)[rows.clone()],
                &encoded.column(hi)[rows.clone()],
                &positives,
                self.dicts[lo].code_space(),
                self.dicts[hi].code_space(),
            ));
        }
        self.num_rows += rows.len();
    }

    /// Re-sync the model's dictionaries and value counts with an encoding
    /// whose dictionaries may have grown since the model was built (appends
    /// only add codes at the tail, so existing counters keep their slots;
    /// the pair indexes grow their offsets as they merge).
    fn sync_dicts(&mut self, encoded: &EncodedDataset) {
        for (col, dict) in encoded.dicts().iter().enumerate() {
            let space = dict.code_space();
            debug_assert!(space >= self.dicts[col].code_space(), "code spaces never shrink");
            if space != self.dicts[col].code_space() {
                self.dicts[col] = dict.clone();
                self.value_counts[col].resize(space, 0);
            }
        }
    }

    /// The parameters the model was built with.
    pub fn params(&self) -> CompensatoryParams {
        self.params
    }

    /// Number of tuples the model was built from.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Mean tuple confidence observed while building the model.
    pub fn mean_confidence(&self) -> f64 {
        if self.num_rows == 0 {
            0.0
        } else {
            self.conf_sum / self.num_rows as f64
        }
    }

    /// The dictionaries the model's code space is defined by, in column
    /// order. The cleaner encodes datasets against these before inference.
    pub fn dicts(&self) -> &[ColumnDict] {
        &self.dicts
    }

    /// The code-indexed observation counts of one column (null code
    /// included) — the streaming source for domain materialisation.
    pub fn value_counts(&self, col: usize) -> &[u32] {
        &self.value_counts[col]
    }

    /// Encode a full `Value` row into this model's code space (unseen values
    /// map to the per-column unseen sentinel).
    fn encode_row(&self, row: &[Value]) -> Vec<u32> {
        row.iter().zip(&self.dicts).map(|(v, d)| d.encode_lossy(v)).collect()
    }

    /// Softened-FD confidence matrix derived from the model's own
    /// co-occurrence counters: entry `(k, j)` is how reliably attribute `k`
    /// determines attribute `j` — the average majority share of `j`-values
    /// within groups of tuples sharing a `k`-value observed at least twice.
    ///
    /// The raw pair counts (`PairEntry::count`) tally every row regardless
    /// of tuple confidence, so this is exactly the statistic the cleaner's
    /// anchor selection needs; computing it here reuses the counters the
    /// build pass already accumulated instead of re-grouping the `Value`
    /// rows, and reproduces the hash-map grouping bit-for-bit (both reduce
    /// to the same integer ratios).
    pub fn fd_confidence_matrix(&self) -> Vec<Vec<f64>> {
        let m = self.num_cols;
        let mut matrix = vec![vec![0.0; m]; m];
        for (k, matrix_row) in matrix.iter_mut().enumerate() {
            let space_k = self.dicts[k].code_space();
            let null_k = self.dicts[k].null_code();
            for (j, matrix_slot) in matrix_row.iter_mut().enumerate() {
                if j == k {
                    *matrix_slot = 1.0;
                    continue;
                }
                let null_j = self.dicts[j].null_code();
                // Per k-value-code `(group_total, majority)` over the value
                // codes of j, read from the runs keyed by k's codes — nulls
                // on either side are excluded by code position, exactly like
                // the Value-space grouping (for fresh dictionaries the null
                // codes trail the values; for appended ones they sit frozen
                // mid-space).
                let mut stats = vec![(0u64, 0u32); space_k];
                let (index, by_lo) = self.pair(k, j);
                index.for_each(by_lo, |a, b, entry| {
                    if b != null_j {
                        let slot = &mut stats[a];
                        slot.0 += entry.count() as u64;
                        slot.1 = slot.1.max(entry.count());
                    }
                });
                let mut consistent = 0u64;
                let mut total = 0u64;
                for (a, &(group_total, majority)) in stats.iter().enumerate() {
                    // Group size is the number of rows carrying this k-value
                    // (rows with a null j still count towards the size).
                    if a as u32 == null_k || self.value_counts[k][a] < 2 {
                        continue;
                    }
                    consistent += majority as u64;
                    total += group_total;
                }
                *matrix_slot = if total == 0 { 0.0 } else { consistent as f64 / total as f64 };
            }
        }
        matrix
    }

    /// The index of columns `col_j ≠ col_k`, and whether `col_j` is its
    /// lower column (so its runs are the forward ones).
    #[inline]
    fn pair(&self, col_j: usize, col_k: usize) -> (&PairIndex, bool) {
        let (lo, hi) = if col_j < col_k { (col_j, col_k) } else { (col_k, col_j) };
        let m = self.num_cols;
        (&self.pairs[lo * (2 * m - lo - 1) / 2 + (hi - lo - 1)], col_j < col_k)
    }

    /// The tallies of code `c` of column `col_j` with code `e` of column
    /// `col_k`, read from the run keyed by `c` (the candidate's side on the
    /// scoring path). A column never pairs with itself.
    #[inline]
    fn entry(&self, col_j: usize, c: u32, col_k: usize, e: u32) -> PairEntry {
        if col_j == col_k {
            return PairEntry::default();
        }
        match self.pair(col_j, col_k) {
            (index, true) => index.get_by_lo(c, e),
            (index, false) => index.get_by_hi(c, e),
        }
    }

    /// The codes of column `col_j` that co-occurred with code `e` of column
    /// `col_k`, ascending: the run of `e` in their index, which holds
    /// exactly the codes whose [`CompensatoryModel::pair_count_codes`] with
    /// `e` is at least 1.
    #[inline]
    pub(crate) fn cooccurring_codes(&self, col_k: usize, e: u32, col_j: usize) -> &[u32] {
        let (index, by_lo) = self.pair(col_k, col_j);
        index.run_keys(by_lo, e)
    }

    /// `corr(c, e, A_j, A_k)`: signed, |D|-normalised correlation of the value
    /// pair (paper §5).
    pub fn corr(&self, col_j: usize, c: &Value, col_k: usize, e: &Value) -> f64 {
        self.corr_codes(col_j, self.dicts[col_j].encode_lossy(c), col_k, self.dicts[col_k].encode_lossy(e))
    }

    /// Code-space [`CompensatoryModel::corr`].
    pub fn corr_codes(&self, col_j: usize, c: u32, col_k: usize, e: u32) -> f64 {
        if self.num_rows == 0 {
            return 0.0;
        }
        let entry = self.entry(col_j, c, col_k, e);
        if entry.is_zero() {
            0.0
        } else {
            entry.corr(self.params.beta) / self.num_rows as f64
        }
    }

    /// Raw (unnormalised) signed correlation counter of a code pair.
    #[inline]
    fn raw_corr(&self, col_j: usize, c: u32, col_k: usize, e: u32) -> f64 {
        self.entry(col_j, c, col_k, e).corr(self.params.beta)
    }

    /// `Score_corr(c, t, A_j)` (Eq. 2): accumulated correlation between the
    /// candidate `c` for attribute `col` and every other observed value of the
    /// tuple `row`.
    ///
    /// Following the Remarks of §5, each pairwise correlation is weighted by
    /// the observation count of the context value — i.e. it estimates how
    /// often `c` appears *among the tuples sharing that context value* rather
    /// than among all of `D`. This keeps the score scale-free: a candidate
    /// supported by its determinant values (ZipCode, ProviderNumber, …) beats
    /// a globally frequent candidate that never co-occurs with them.
    pub fn score_corr(&self, row: &[Value], col: usize, candidate: &Value) -> f64 {
        self.score_corr_codes(&self.encode_row(row), col, self.encode_candidate(row, col, candidate))
    }

    /// Encode a candidate for the self-support comparison inside
    /// [`CompensatoryModel::score_corr_codes`]. Out-of-dictionary values all
    /// share one lossy sentinel, so two *different* unseen values (the
    /// observed cell and the candidate) would otherwise alias and wrongly
    /// trigger the leave-one-out subtraction; give the candidate a sentinel
    /// of its own unless it genuinely equals the observed value.
    fn encode_candidate(&self, row: &[Value], col: usize, candidate: &Value) -> u32 {
        let dict = &self.dicts[col];
        match dict.encode(candidate) {
            Some(code) => code,
            None if candidate == &row[col] => dict.unseen_code(),
            None => dict.unseen_code() + 1,
        }
    }

    /// Code-space [`CompensatoryModel::score_corr`]: the steady-state scoring
    /// entry point — integer lookups only, no `Value` hashing or cloning.
    pub fn score_corr_codes(&self, codes: &[u32], col: usize, candidate: u32) -> f64 {
        if self.num_rows == 0 {
            return 0.0;
        }
        // Leave-one-out: the tuple being scored always co-occurs with itself,
        // which would otherwise give the observed (possibly erroneous) value a
        // spurious unit of support over every alternative candidate.
        let self_support = if candidate == codes[col] { 1.0 } else { 0.0 };
        let mut score = 0.0;
        for (k, &code) in codes.iter().enumerate().take(self.num_cols) {
            if k == col {
                continue;
            }
            let signed = self.raw_corr(col, candidate, k, code) - self_support;
            let context_count = (self.value_count_code(k, code).max(1) as f64 - self_support).max(1.0);
            score += signed / context_count;
        }
        score
    }

    /// The compensatory score entering Algorithm 1 as `log(CS[A_j](c))`:
    /// `ln(1 + max(Score_corr, 0))`, so that the term is 0 for uncorrelated
    /// candidates, positive for well-supported ones and never undefined for
    /// penalised ones.
    pub fn log_score(&self, row: &[Value], col: usize, candidate: &Value) -> f64 {
        let codes = self.encode_row(row);
        let candidate = self.encode_candidate(row, col, candidate);
        (1.0 + self.score_corr_codes(&codes, col, candidate).max(0.0)).ln()
    }

    /// Code-space [`CompensatoryModel::log_score`].
    pub fn log_score_codes(&self, codes: &[u32], col: usize, candidate: u32) -> f64 {
        (1.0 + self.score_corr_codes(codes, col, candidate).max(0.0)).ln()
    }

    /// [`CompensatoryModel::log_score_codes`] of every code of `candidates`
    /// into `out`, bit for bit, one context column at a time. The
    /// candidates must be distinct codes of `col`'s code space other than
    /// the observed `codes[col]`, so no leave-one-out applies. For each column
    /// `k ≠ col` in order, the scan reads the run of the tuple's `k` value
    /// once and adds `corr / context_count` to each candidate in it. A
    /// candidate missing from the run would add `+0.0` in
    /// [`CompensatoryModel::score_corr_codes`], which leaves a sum that
    /// starts at `+0.0` unchanged, so it is skipped. `slots` is a code →
    /// candidate map, all [`NO_SLOT`] between calls, that grows as needed.
    pub(crate) fn log_scores_codes(
        &self,
        codes: &[u32],
        col: usize,
        candidates: &[u32],
        slots: &mut Vec<u32>,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.resize(candidates.len(), 0.0);
        if self.num_rows > 0 {
            let space = self.dicts[col].code_space();
            if slots.len() < space {
                slots.resize(space, NO_SLOT);
            }
            for (slot, &c) in candidates.iter().enumerate() {
                debug_assert!(
                    c != codes[col] && (c as usize) < space,
                    "a code of the column's space other than the observed one"
                );
                slots[c as usize] = slot as u32;
            }
            let beta = self.params.beta;
            for (k, &e) in codes.iter().enumerate().take(self.num_cols) {
                if k == col {
                    continue;
                }
                // `score_corr_codes`' divisor with no self-support to remove.
                let context_count = self.value_count_code(k, e).max(1) as f64;
                let (index, by_lo) = self.pair(k, col);
                index.for_each_in_run(by_lo, e, |c, entry| {
                    let slot = slots[c as usize];
                    if slot != NO_SLOT {
                        out[slot as usize] += entry.corr(beta) / context_count;
                    }
                });
            }
            for &c in candidates {
                slots[c as usize] = NO_SLOT;
            }
        }
        for score in out.iter_mut() {
            *score = (1.0 + score.max(0.0)).ln();
        }
    }

    /// Raw co-occurrence count of a value pair, `count(v_j, v_k)`.
    pub fn pair_count(&self, col_j: usize, v_j: &Value, col_k: usize, v_k: &Value) -> usize {
        self.pair_count_codes(
            col_j,
            self.dicts[col_j].encode_lossy(v_j),
            col_k,
            self.dicts[col_k].encode_lossy(v_k),
        )
    }

    /// Code-space [`CompensatoryModel::pair_count`].
    #[inline]
    pub fn pair_count_codes(&self, col_j: usize, c: u32, col_k: usize, e: u32) -> usize {
        self.entry(col_j, c, col_k, e).count() as usize
    }

    /// Count of a single value in its attribute, `count(v)`.
    pub fn value_count(&self, col: usize, v: &Value) -> usize {
        match self.dicts.get(col) {
            Some(dict) => self.value_count_code(col, dict.encode_lossy(v)),
            None => 0,
        }
    }

    /// Code-space [`CompensatoryModel::value_count`]. Unseen codes count 0.
    #[inline]
    pub fn value_count_code(&self, col: usize, code: u32) -> usize {
        self.value_counts.get(col).and_then(|counts| counts.get(code as usize)).copied().unwrap_or(0) as usize
    }

    /// The tuple-pruning filter of §6.2:
    /// `Filter(T, A_i) = 1/(m−1) · Σ_{j≠i} count(T[A_i], T[A_j]) / count(T[A_j])`.
    ///
    /// High values mean the cell co-occurs often with the rest of the tuple
    /// and can be skipped by pre-detection.
    pub fn filter_score(&self, row: &[Value], col: usize) -> f64 {
        self.filter_score_codes(&self.encode_row(row), col)
    }

    /// Code-space [`CompensatoryModel::filter_score`].
    pub fn filter_score_codes(&self, codes: &[u32], col: usize) -> f64 {
        if self.num_cols < 2 {
            return 1.0;
        }
        let mut total = 0.0;
        for j in 0..self.num_cols {
            if j == col {
                continue;
            }
            let denom = self.value_count_code(j, codes[j]);
            if denom > 0 {
                total += self.pair_count_codes(col, codes[col], j, codes[j]) as f64 / denom as f64;
            }
        }
        total / (self.num_cols - 1) as f64
    }

    /// Number of sub-contexts (other attributes) in which `candidate` has been
    /// observed together with the corresponding value of `row`, restricted to
    /// the attribute subset `context_cols`. This is the `context(v)` term of
    /// the domain-pruning TF-IDF score (§6.2).
    pub fn context_support(
        &self,
        row: &[Value],
        col: usize,
        candidate: &Value,
        context_cols: &[usize],
    ) -> usize {
        self.context_support_codes(
            &self.encode_row(row),
            col,
            self.dicts[col].encode_lossy(candidate),
            context_cols,
        )
    }

    /// Code-space [`CompensatoryModel::context_support`].
    pub fn context_support_codes(
        &self,
        codes: &[u32],
        col: usize,
        candidate: u32,
        context_cols: &[usize],
    ) -> usize {
        context_cols
            .iter()
            .filter(|&&k| k != col && self.pair_count_codes(col, candidate, k, codes[k]) > 0)
            .count()
    }

    /// TF-IDF style domain-pruning score (§6.2):
    /// `score(v) = context(v) · log(|D| / (1 + count(v, D)))`.
    pub fn tfidf_score(&self, row: &[Value], col: usize, candidate: &Value, context_cols: &[usize]) -> f64 {
        self.tfidf_score_codes(
            &self.encode_row(row),
            col,
            self.dicts[col].encode_lossy(candidate),
            context_cols,
        )
    }

    /// Code-space [`CompensatoryModel::tfidf_score`].
    pub fn tfidf_score_codes(
        &self,
        codes: &[u32],
        col: usize,
        candidate: u32,
        context_cols: &[usize],
    ) -> f64 {
        let context = self.context_support_codes(codes, col, candidate, context_cols) as f64;
        let count = self.value_count_code(col, candidate) as f64;
        let idf = ((self.num_rows as f64) / (1.0 + count)).max(1.0).ln() + 1.0;
        context * idf
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use crate::constraints::UserConstraint;
    use bclean_data::dataset_from;

    fn data() -> Dataset {
        dataset_from(
            &["Dept", "City", "State"],
            &[
                vec!["400 northwood dr", "centre", "KT"],
                vec!["400 northwood dr", "centre", "KT"],
                vec!["400 nprthwood dr", "centre", "KT"], // typo tuple
                vec!["315 w hickory st", "sylacauga", "CA"],
                vec!["315 w hickory st", "sylacauga", "CA"],
            ],
        )
    }

    fn spellcheck_constraints() -> ConstraintSet {
        // A stand-in for the paper's spell-checker UC: flag the known typo.
        let mut ucs = ConstraintSet::new();
        ucs.add("Dept", UserConstraint::custom("spell", |v: &Value| !v.as_text().contains("nprthwood")));
        ucs
    }

    #[test]
    fn build_without_constraints_counts_all_pairs() {
        let model = CompensatoryModel::build(&data(), &ConstraintSet::new(), CompensatoryParams::default());
        assert_eq!(model.num_rows(), 5);
        assert!((model.mean_confidence() - 1.0).abs() < 1e-12);
        // "centre" and "KT" co-occur 3 times.
        assert_eq!(model.pair_count(1, &Value::text("centre"), 2, &Value::text("KT")), 3);
        assert!((model.corr(1, &Value::text("centre"), 2, &Value::text("KT")) - 0.6).abs() < 1e-12);
        assert_eq!(model.pair_count(1, &Value::text("centre"), 2, &Value::text("CA")), 0);
    }

    #[test]
    fn score_corr_prefers_supported_candidate() {
        let model = CompensatoryModel::build(
            &data(),
            &spellcheck_constraints(),
            CompensatoryParams { lambda: 0.25, beta: 2.0, tau: 0.75 },
        );
        // Row with the typo; candidate repairs for Dept.
        let row = data().row(2).unwrap().to_vec();
        let good = Value::text("400 northwood dr");
        let typo = Value::text("400 nprthwood dr");
        let s_good = model.score_corr(&row, 0, &good);
        let s_typo = model.score_corr(&row, 0, &typo);
        assert!(s_good > s_typo, "good {s_good} vs typo {s_typo}");
        // The typo tuple had low confidence, so its pairs were penalised below zero.
        assert!(s_typo < 0.0);
        assert!(model.log_score(&row, 0, &good) > model.log_score(&row, 0, &typo));
        // log_score never returns NaN/-inf even for penalised candidates.
        assert!(model.log_score(&row, 0, &typo).is_finite());
        assert_eq!(model.log_score(&row, 0, &typo), 0.0);
    }

    #[test]
    fn confidence_threshold_controls_penalty() {
        let row = data().row(2).unwrap().to_vec();
        let strict = CompensatoryParams { lambda: 0.25, beta: 2.0, tau: 0.75 };
        let strict_model = CompensatoryModel::build(&data(), &spellcheck_constraints(), strict);
        // Under the strict threshold the typo tuple is penalised below zero.
        assert!(strict_model.score_corr(&row, 0, &Value::text("400 nprthwood dr")) < 0.0);
        let relaxed = CompensatoryParams { lambda: 0.1, beta: 2.0, tau: 0.1 };
        let model = CompensatoryModel::build(&data(), &spellcheck_constraints(), relaxed);
        // With a low τ the typo tuple counts positively; after leave-one-out its
        // only support (itself) is removed, so the score is exactly zero rather
        // than negative.
        assert!(model.score_corr(&row, 0, &Value::text("400 nprthwood dr")) >= 0.0);
    }

    #[test]
    fn filter_score_high_for_consistent_cells() {
        let model = CompensatoryModel::build(&data(), &ConstraintSet::new(), CompensatoryParams::default());
        let clean_row = data().row(0).unwrap().to_vec();
        let typo_row = data().row(2).unwrap().to_vec();
        let clean = model.filter_score(&clean_row, 0);
        let typo = model.filter_score(&typo_row, 0);
        assert!(clean > typo, "clean {clean} vs typo {typo}");
        assert!(clean > 0.5);
        assert!((0.0..=1.0).contains(&typo));
    }

    #[test]
    fn tfidf_prefers_contextually_supported_rare_values() {
        let model = CompensatoryModel::build(&data(), &ConstraintSet::new(), CompensatoryParams::default());
        let row = data().row(2).unwrap().to_vec();
        let context = vec![1, 2];
        let good = Value::text("400 northwood dr");
        let unrelated = Value::text("315 w hickory st");
        assert!(
            model.tfidf_score(&row, 0, &good, &context) > model.tfidf_score(&row, 0, &unrelated, &context)
        );
        assert_eq!(model.context_support(&row, 0, &unrelated, &context), 0);
        assert_eq!(model.context_support(&row, 0, &good, &context), 2);
    }

    #[test]
    fn empty_dataset_is_safe() {
        let empty = Dataset::new(bclean_data::Schema::from_names(&["a", "b"]).unwrap());
        let model = CompensatoryModel::build(&empty, &ConstraintSet::new(), CompensatoryParams::default());
        assert_eq!(model.num_rows(), 0);
        assert_eq!(model.corr(0, &Value::text("x"), 1, &Value::text("y")), 0.0);
        assert_eq!(model.score_corr(&[Value::Null, Value::Null], 0, &Value::text("x")), 0.0);
        assert_eq!(model.mean_confidence(), 0.0);
    }

    #[test]
    fn single_column_filter_is_neutral() {
        let d = dataset_from(&["only"], &[vec!["x"], vec!["y"]]);
        let model = CompensatoryModel::build(&d, &ConstraintSet::new(), CompensatoryParams::default());
        assert_eq!(model.filter_score(&[Value::text("x")], 0), 1.0);
    }

    #[test]
    fn params_accessors() {
        let p = CompensatoryParams { lambda: 0.5, beta: 3.0, tau: 0.8 };
        let model = CompensatoryModel::build(&data(), &ConstraintSet::new(), p);
        assert_eq!(model.params(), p);
        assert_eq!(CompensatoryParams::default().beta, 2.0);
    }

    /// Value-facade methods and code-space methods must agree exactly, for
    /// observed values, nulls, and values outside the dictionaries.
    #[test]
    fn value_facade_matches_code_space() {
        let d = dataset_from(&["a", "b"], &[vec!["x", "1"], vec!["x", "1"], vec!["y", "2"], vec!["", "2"]]);
        let model = CompensatoryModel::build(&d, &ConstraintSet::new(), CompensatoryParams::default());
        let probes =
            [Value::text("x"), Value::text("y"), Value::Null, Value::text("unseen"), Value::parse("1")];
        for row in d.rows() {
            let codes: Vec<u32> =
                row.iter().zip(model.dicts()).map(|(v, dict)| dict.encode_lossy(v)).collect();
            for col in 0..2 {
                assert_eq!(
                    model.filter_score(row, col).to_bits(),
                    model.filter_score_codes(&codes, col).to_bits()
                );
                for probe in &probes {
                    let code = model.dicts()[col].encode_lossy(probe);
                    assert_eq!(
                        model.score_corr(row, col, probe).to_bits(),
                        model.score_corr_codes(&codes, col, code).to_bits()
                    );
                    assert_eq!(
                        model.log_score(row, col, probe).to_bits(),
                        model.log_score_codes(&codes, col, code).to_bits()
                    );
                    assert_eq!(model.value_count(col, probe), model.value_count_code(col, code));
                    assert_eq!(
                        model.tfidf_score(row, col, probe, &[0, 1]).to_bits(),
                        model.tfidf_score_codes(&codes, col, code, &[0, 1]).to_bits()
                    );
                }
            }
        }
        // Unseen codes (and out-of-range columns) behave like absent values.
        assert_eq!(model.value_count(5, &Value::text("x")), 0);
        assert_eq!(model.pair_count(0, &Value::text("zz"), 1, &Value::text("1")), 0);
    }

    /// The batched term equals `log_score_codes` bit for bit for every
    /// candidate other than the observed value, at an integral and a
    /// fractional β, on the fitting rows and on rows carrying values the
    /// model never saw.
    #[test]
    fn batched_log_scores_match_log_score_codes() {
        let mut rows: Vec<Vec<Value>> = data().rows().map(|r| r.to_vec()).collect();
        rows.push(vec![Value::text("9 unseen way"), Value::text("centre"), Value::text("KT")]);
        rows.push(vec![Value::text("400 northwood dr"), Value::Null, Value::text("ZZ")]);
        for params in
            [CompensatoryParams::default(), CompensatoryParams { lambda: 0.25, beta: 0.3, tau: 0.75 }]
        {
            let model = CompensatoryModel::build(&data(), &spellcheck_constraints(), params);
            let (mut slots, mut out) = (Vec::new(), Vec::new());
            for row in &rows {
                let codes = model.encode_row(row);
                for col in 0..codes.len() {
                    let candidates: Vec<u32> =
                        (0..model.dicts[col].code_space() as u32).filter(|&c| c != codes[col]).collect();
                    model.log_scores_codes(&codes, col, &candidates, &mut slots, &mut out);
                    for (&c, score) in candidates.iter().zip(&out) {
                        let expected = model.log_score_codes(&codes, col, c);
                        assert_eq!(
                            score.to_bits(),
                            expected.to_bits(),
                            "β {} row {row:?} col {col} code {c}",
                            params.beta
                        );
                    }
                    assert!(slots.iter().all(|&slot| slot == NO_SLOT), "the slot map is left clear");
                }
            }
        }
    }

    /// Two *different* out-of-dictionary values (the observed cell and the
    /// candidate) must not alias onto the same unseen sentinel: the
    /// leave-one-out self-support only applies when the candidate really
    /// equals the observed value.
    #[test]
    fn distinct_unseen_values_do_not_alias_in_score_corr() {
        let d = dataset_from(&["a", "b"], &[vec!["x", "1"], vec!["x", "1"], vec!["y", "2"]]);
        let model = CompensatoryModel::build(&d, &ConstraintSet::new(), CompensatoryParams::default());
        let row = [Value::text("zzz"), Value::parse("1")];
        // Candidate "yyy" != observed "zzz": no self-support, score is 0.
        assert_eq!(model.score_corr(&row, 0, &Value::text("yyy")), 0.0);
        // Candidate equal to the unseen observed value: self-support applies.
        let with_self = model.score_corr(&row, 0, &Value::text("zzz"));
        assert!(with_self < 0.0, "self-support must be subtracted, got {with_self}");
    }

    /// The parallel builder must produce a bit-identical model for every
    /// thread count — including non-integral β, where the signed correlation
    /// sums are sensitive to accumulation order (each `(j, k)` counter is
    /// owned by one worker and fills in row order, so the order never
    /// changes).
    #[test]
    fn parallel_build_is_bit_identical_to_serial() {
        let d = data();
        let encoded = EncodedDataset::from_dataset(&d);
        for params in
            [CompensatoryParams::default(), CompensatoryParams { lambda: 0.25, beta: 0.3, tau: 0.75 }]
        {
            let serial = CompensatoryModel::build(&d, &spellcheck_constraints(), params);
            for threads in [1usize, 2, 8] {
                let executor = crate::exec::ParallelExecutor::new(threads).with_block_size(2);
                let parallel = CompensatoryModel::build_parallel(
                    &d,
                    &encoded,
                    &spellcheck_constraints(),
                    params,
                    &executor,
                );
                assert_eq!(serial.mean_confidence().to_bits(), parallel.mean_confidence().to_bits());
                assert_eq!(serial.num_rows(), parallel.num_rows());
                for (r, row) in d.rows().enumerate() {
                    let codes: Vec<u32> =
                        row.iter().zip(serial.dicts()).map(|(v, dict)| dict.encode_lossy(v)).collect();
                    for col in 0..d.num_columns() {
                        assert_eq!(
                            serial.filter_score_codes(&codes, col).to_bits(),
                            parallel.filter_score_codes(&codes, col).to_bits(),
                            "filter row {r} col {col} threads {threads}"
                        );
                        for candidate in 0..=serial.dicts()[col].unseen_code() {
                            assert_eq!(
                                serial.score_corr_codes(&codes, col, candidate).to_bits(),
                                parallel.score_corr_codes(&codes, col, candidate).to_bits(),
                                "score row {r} col {col} cand {candidate} threads {threads}"
                            );
                            assert_eq!(
                                serial.value_count_code(col, candidate),
                                parallel.value_count_code(col, candidate)
                            );
                        }
                    }
                }
                assert_eq!(
                    serial.fd_confidence_matrix(),
                    parallel.fd_confidence_matrix(),
                    "threads {threads}"
                );
            }
        }
    }

    /// The counter-derived FD-confidence matrix must reproduce the
    /// `Value`-grouping statistic exactly (nulls excluded from majority
    /// counts, groups sized by the determinant value's total occurrences).
    #[test]
    fn fd_confidence_matrix_matches_value_grouping() {
        let d = dataset_from(
            &["Zip", "State", "City"],
            &[
                vec!["35150", "CA", "sylacauga"],
                vec!["35150", "CA", "sylacauga"],
                vec!["35150", "KT", "sylacauga"],
                vec!["35960", "KT", ""],
                vec!["35960", "", "centre"],
                vec!["", "KT", "centre"],
                vec!["36000", "AL", "gadsden"], // singleton group: ignored
            ],
        );
        let model = CompensatoryModel::build(&d, &ConstraintSet::new(), CompensatoryParams::default());
        let matrix = model.fd_confidence_matrix();
        // Value-space grouping (the reference implementation).
        let m = d.num_columns();
        for k in 0..m {
            let mut groups: HashMap<&Value, Vec<usize>> = HashMap::new();
            for (r, row) in d.rows().enumerate() {
                if !row[k].is_null() {
                    groups.entry(&row[k]).or_default().push(r);
                }
            }
            for (j, &actual) in matrix[k].iter().enumerate() {
                if j == k {
                    assert_eq!(actual, 1.0);
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
                        let v = d.cell(r, j).unwrap();
                        if !v.is_null() {
                            *counts.entry(v).or_insert(0) += 1;
                        }
                    }
                    consistent += counts.values().copied().max().unwrap_or(0);
                    total += counts.values().sum::<usize>();
                }
                let expected = if total == 0 { 0.0 } else { consistent as f64 / total as f64 };
                assert_eq!(actual.to_bits(), expected.to_bits(), "pair ({k}, {j})");
            }
        }
    }
}
