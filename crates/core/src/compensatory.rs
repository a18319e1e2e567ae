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
//! to its `u32` code (see [`bclean_data::encoded`]) while the model is built,
//! and all counters are stored per ordered column pair as either a dense
//! `cardinality × cardinality` matrix (small domains) or a
//! `HashMap<(u32, u32), _>` (large domains). The inference hot loop queries
//! the `*_codes` methods with pre-encoded rows and never hashes or clones a
//! [`Value`]; the `Value`-typed methods remain as a thin facade that encodes
//! through the stored [`ColumnDict`]s before delegating.

use std::collections::HashMap;

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
}

/// Dense pair tables above this cell count switch to the hash-map layout.
const DENSE_PAIR_CELL_CAP: usize = 1 << 14;

/// The slot a tracked [`BoundedSide`] maps its untracked codes to: pairs
/// touching such a code live in the exact tail, not the dense core.
const UNTRACKED: u32 = u32::MAX;

/// One axis of a [`PairStore::Bounded`] table: a total map from the column's
/// code space onto a small dense slot space. A *tracked* side gives its
/// heavy-hitter codes and its null code (so FD statistics can still exclude
/// it by position) a slot each and maps every other code to [`UNTRACKED`];
/// an *identity* side — a column whose cardinality fit the budget — keeps
/// every code as its own slot.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BoundedSide {
    /// `code -> slot` over the column's full code space.
    map: Vec<u32>,
    /// The tracked value codes, ascending; `None` marks an identity side.
    tracked: Option<Vec<u32>>,
    /// Slot-space size along this axis.
    dims: usize,
    /// The column's null code (its slot is `map[null_code]`).
    null_code: u32,
}

impl BoundedSide {
    /// A heavy-hitter side: the `tracked` codes (ascending value codes) get
    /// slots `0..t`, null gets slot `t`, every other code is [`UNTRACKED`].
    fn with_tracked(space: usize, null_code: u32, tracked: &[u32]) -> BoundedSide {
        let t = tracked.len();
        let mut map = vec![UNTRACKED; space];
        for (slot, &code) in tracked.iter().enumerate() {
            map[code as usize] = slot as u32;
        }
        if (null_code as usize) < space {
            map[null_code as usize] = t as u32;
        }
        BoundedSide { map, tracked: Some(tracked.to_vec()), dims: t + 1, null_code }
    }

    /// An identity side: every code of the (small) space is its own slot.
    fn identity(space: usize, null_code: u32) -> BoundedSide {
        BoundedSide { map: (0..space as u32).collect(), tracked: None, dims: space, null_code }
    }

    /// Slot of the column's null code.
    #[inline]
    fn null_slot(&self) -> u32 {
        self.map.get(self.null_code as usize).copied().unwrap_or(u32::MAX)
    }

    /// The original code a slot stands for.
    fn code_of_slot(&self, slot: usize) -> u32 {
        match &self.tracked {
            None => slot as u32,
            Some(codes) => codes.get(slot).copied().unwrap_or(self.null_code),
        }
    }

    /// Grow the side to a larger code space (appends only add codes at the
    /// tail). Tracked sides map every new code to [`UNTRACKED`] — the
    /// tracked set is frozen at fit time — so their `dims` never change;
    /// identity sides extend the identity map and report the dims change so
    /// the owning store can regrow its cell matrix.
    fn grow(&mut self, new_space: usize) -> bool {
        if new_space <= self.map.len() {
            return false;
        }
        match &self.tracked {
            Some(_) => {
                self.map.resize(new_space, UNTRACKED);
                false
            }
            None => {
                for code in self.map.len()..new_space {
                    self.map.push(code as u32);
                }
                self.dims = new_space;
                true
            }
        }
    }
}

/// Co-occurrence counters of one ordered column pair `(j, k)`, indexed by the
/// columns' dictionary codes (null codes included; unseen codes always miss).
#[derive(Debug, Clone)]
pub(crate) enum PairStore {
    /// Placeholder for the diagonal `(j, j)` slots, which are never counted.
    Empty,
    /// Dense `code_space(j) × code_space(k)` matrix.
    Dense { cols: usize, cells: Vec<PairEntry> },
    /// Sparse map over observed code pairs.
    Map(HashMap<(u32, u32), PairEntry>),
    /// Budget-bounded hybrid table (see
    /// [`CompensatoryModel::build_parallel`] with a budget): a dense
    /// heavy-hitter core plus a sparse exact tail. A tracked axis maps its
    /// tracked codes and its null code onto `heavy_hitters + 1` slots; pairs
    /// where both codes have a slot land in the dense `cells` as O(1) array
    /// bumps, and the few pairs touching an untracked code spill into the
    /// `tail` map with their original codes. Because heavy-hitter lists are
    /// chosen by frequency, the tail sees only the rare-value fraction of
    /// the row mass — the store keeps *exact* tallies for every pair while
    /// paying hash-map costs only on that sliver.
    Bounded { a: BoundedSide, b: BoundedSide, cells: Vec<PairEntry>, tail: HashMap<(u32, u32), PairEntry> },
}

impl PairStore {
    pub(crate) fn with_spaces(rows: usize, cols: usize) -> PairStore {
        if rows.saturating_mul(cols) <= DENSE_PAIR_CELL_CAP {
            PairStore::Dense { cols, cells: vec![PairEntry::default(); rows * cols] }
        } else {
            PairStore::Map(HashMap::new())
        }
    }

    /// A bounded store over the two sides' slot spaces, with an empty tail.
    pub(crate) fn bounded(a: BoundedSide, b: BoundedSide) -> PairStore {
        let cells = vec![PairEntry::default(); a.dims * b.dims];
        PairStore::Bounded { a, b, cells, tail: HashMap::new() }
    }

    /// Grow a dense store to the columns' new code spaces (appends only ever
    /// add codes at the tail, so existing cells keep their coordinates),
    /// spilling to the map layout when the grown space exceeds the dense
    /// budget. Both layouts answer queries identically, so resizing never
    /// changes a score.
    fn resize(&mut self, old_rows: usize, new_rows: usize, new_cols: usize) {
        if let PairStore::Dense { cols, cells } = self {
            let old_cols = *cols;
            if old_cols == new_cols && cells.len() == new_rows * new_cols {
                return;
            }
            if new_rows.saturating_mul(new_cols) <= DENSE_PAIR_CELL_CAP {
                let mut grown = vec![PairEntry::default(); new_rows * new_cols];
                for a in 0..old_rows {
                    grown[a * new_cols..a * new_cols + old_cols]
                        .copy_from_slice(&cells[a * old_cols..(a + 1) * old_cols]);
                }
                *cells = grown;
                *cols = new_cols;
            } else {
                let mut map = HashMap::new();
                for a in 0..old_rows {
                    for b in 0..old_cols {
                        let entry = cells[a * old_cols + b];
                        if !entry.is_zero() {
                            map.insert((a as u32, b as u32), entry);
                        }
                    }
                }
                *self = PairStore::Map(map);
            }
        } else if let PairStore::Bounded { a, b, cells, .. } = self {
            // The tail is keyed by original codes, which appends never
            // renumber, so only the dense core may need regrowing.
            let (old_dims_a, old_dims_b) = (a.dims, b.dims);
            let grew_a = a.grow(new_rows);
            let grew_b = b.grow(new_cols);
            if grew_a || grew_b {
                // Only identity sides change dims, and they append slots at
                // the tail, so existing cells keep their coordinates.
                let mut grown = vec![PairEntry::default(); a.dims * b.dims];
                for sa in 0..old_dims_a {
                    grown[sa * b.dims..sa * b.dims + old_dims_b]
                        .copy_from_slice(&cells[sa * old_dims_b..(sa + 1) * old_dims_b]);
                }
                *cells = grown;
            }
        }
    }

    /// Count one observation of the code pair `(a, b)`.
    #[inline]
    fn add(&mut self, a: u32, b: u32, positive: bool) {
        match self {
            PairStore::Empty => unreachable!("diagonal pair stores are never updated"),
            PairStore::Dense { cols, cells } => cells[a as usize * *cols + b as usize].bump(positive),
            PairStore::Map(map) => map.entry((a, b)).or_default().bump(positive),
            PairStore::Bounded { a: side_a, b: side_b, cells, tail } => {
                // Heavy-hitter pairs take the O(1) dense path; the rare
                // fraction touching an untracked code spills into the exact
                // tail under its original code pair.
                let sa = side_a.map[a as usize];
                let sb = side_b.map[b as usize];
                let entry = if sa == UNTRACKED || sb == UNTRACKED {
                    tail.entry((a, b)).or_default()
                } else {
                    &mut cells[sa as usize * side_b.dims + sb as usize]
                };
                entry.bump(positive);
            }
        }
    }

    /// Count every row of two code columns: [`PairStore::add`] over whole
    /// columns, with the layout matched once and a tight loop per layout.
    fn add_columns(&mut self, col_a: &[u32], col_b: &[u32], positives: &[bool]) {
        let rows = col_a.iter().zip(col_b).zip(positives);
        match self {
            PairStore::Empty => unreachable!("diagonal pair stores are never updated"),
            PairStore::Dense { cols, cells } => {
                let cols = *cols;
                for ((&a, &b), &positive) in rows {
                    cells[a as usize * cols + b as usize].bump(positive);
                }
            }
            PairStore::Map(map) => {
                for ((&a, &b), &positive) in rows {
                    map.entry((a, b)).or_default().bump(positive);
                }
            }
            PairStore::Bounded { a: side_a, b: side_b, cells, tail } => {
                let (map_a, map_b, dims_b) = (&side_a.map[..], &side_b.map[..], side_b.dims);
                for ((&a, &b), &positive) in rows {
                    let (sa, sb) = (map_a[a as usize], map_b[b as usize]);
                    let entry = if sa == UNTRACKED || sb == UNTRACKED {
                        tail.entry((a, b)).or_default()
                    } else {
                        &mut cells[sa as usize * dims_b + sb as usize]
                    };
                    entry.bump(positive);
                }
            }
        }
    }

    #[inline]
    fn get(&self, a: u32, b: u32) -> PairEntry {
        match self {
            PairStore::Empty => PairEntry::default(),
            PairStore::Dense { cols, cells } => {
                let (a, b) = (a as usize, b as usize);
                if b < *cols && a.saturating_mul(*cols) + b < cells.len() {
                    cells[a * *cols + b]
                } else {
                    PairEntry::default()
                }
            }
            PairStore::Map(map) => map.get(&(a, b)).copied().unwrap_or_default(),
            PairStore::Bounded { a: side_a, b: side_b, cells, tail } => {
                // Tracked pairs read the dense core; pairs touching an
                // untracked code read the exact tail, so every point query
                // answers the true tally (only out-of-range codes — foreign
                // encodings, candidate sentinels — miss to zero).
                let (Some(&sa), Some(&sb)) = (side_a.map.get(a as usize), side_b.map.get(b as usize)) else {
                    return PairEntry::default();
                };
                if sa == UNTRACKED || sb == UNTRACKED {
                    return tail.get(&(a, b)).copied().unwrap_or_default();
                }
                cells[sa as usize * side_b.dims + sb as usize]
            }
        }
    }

    /// The store's non-zero entries as `(code_a, code_b, entry)` triples
    /// sorted by code pair — the persistence wire form. Every code lies in
    /// its column's code space.
    pub(crate) fn persisted_entries(&self) -> Vec<(u32, u32, PairEntry)> {
        let mut entries: Vec<(u32, u32, PairEntry)> = match self {
            PairStore::Empty => Vec::new(),
            PairStore::Dense { cols, cells } => cells
                .iter()
                .enumerate()
                .filter(|(_, e)| !e.is_zero())
                .map(|(i, e)| ((i / cols) as u32, (i % cols) as u32, *e))
                .collect(),
            PairStore::Map(map) => map.iter().map(|(&(a, b), e)| (a, b, *e)).collect(),
            PairStore::Bounded { a, b, cells, tail } => cells
                .iter()
                .enumerate()
                .filter(|(_, e)| !e.is_zero())
                .map(|(i, e)| {
                    let (sa, sb) = (i / b.dims, i % b.dims);
                    (a.code_of_slot(sa), b.code_of_slot(sb), *e)
                })
                .chain(tail.iter().map(|(&(a, b), e)| (a, b, *e)))
                .collect(),
        };
        entries.sort_by_key(|&(a, b, _)| (a, b));
        entries
    }

    /// Install one persisted entry (the inverse of
    /// [`PairStore::persisted_entries`]); the caller has already validated
    /// plain codes against the code spaces and the sorted-distinct order.
    pub(crate) fn insert_persisted(&mut self, a: u32, b: u32, entry: PairEntry) -> Result<(), String> {
        match self {
            PairStore::Empty => Err("diagonal stores hold no entries".to_string()),
            PairStore::Dense { cols, cells } => {
                cells[a as usize * *cols + b as usize] = entry;
                Ok(())
            }
            PairStore::Map(map) => {
                map.insert((a, b), entry);
                Ok(())
            }
            PairStore::Bounded { a: side_a, b: side_b, cells, tail } => {
                let sa = Self::persisted_slot(side_a, a)?;
                let sb = Self::persisted_slot(side_b, b)?;
                match (sa, sb) {
                    (Some(sa), Some(sb)) => cells[sa * side_b.dims + sb] = entry,
                    // Entries touching an untracked code belong to the
                    // exact tail, keyed by their original code pair.
                    _ => {
                        tail.insert((a, b), entry);
                    }
                }
                Ok(())
            }
        }
    }

    /// Resolve a persisted code onto a bounded side's dense slot —
    /// `Ok(None)` marks an untracked code (a tail entry), and a code outside
    /// the column's code space is rejected.
    fn persisted_slot(side: &BoundedSide, code: u32) -> Result<Option<usize>, String> {
        match side.map.get(code as usize) {
            None => Err(format!("code {code} outside the code space")),
            Some(&UNTRACKED) => Ok(None),
            Some(&slot) => Ok(Some(slot as usize)),
        }
    }
}

/// The compensatory scoring model: code-indexed co-occurrence tables plus
/// per-attribute value counts, with the fitting dataset's [`ColumnDict`]s
/// retained so `Value`-typed callers (and the cleaner, when it encodes a
/// dataset for inference) share the model's code space.
#[derive(Debug, Clone)]
pub struct CompensatoryModel {
    pub(crate) params: CompensatoryParams,
    /// The per-attribute dictionaries the model was compiled with.
    pub(crate) dicts: Vec<ColumnDict>,
    /// Pair stores, addressed `pairs[j * m + k]` for the ordered pair (j, k).
    pub(crate) pairs: Vec<PairStore>,
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
    /// Per-column heavy-hitter code lists of a budgeted fit (ascending value
    /// codes), `None` for columns stored exactly. Exact models are all
    /// `None`. Frozen at fit time: absorbs count new codes in the exact
    /// tails, so the bounded layouts never reshuffle.
    pub(crate) tracked: Vec<Option<Vec<u32>>>,
}

/// The pair-store layout of one ordered column pair under a (possibly empty)
/// set of per-column tracked heavy-hitter lists: bounded as soon as either
/// side is tracked, the exact dense/map choice otherwise. Pure function of
/// the dictionaries and tracked lists, shared by the budgeted builder and
/// the persistence reader so a reload always reconstructs the fit layout.
pub(crate) fn pair_store_for(
    dicts: &[ColumnDict],
    tracked: &[Option<Vec<u32>>],
    j: usize,
    k: usize,
) -> PairStore {
    if j == k {
        return PairStore::Empty;
    }
    if tracked[j].is_none() && tracked[k].is_none() {
        return PairStore::with_spaces(dicts[j].code_space(), dicts[k].code_space());
    }
    let side = |col: usize| match &tracked[col] {
        Some(codes) => BoundedSide::with_tracked(dicts[col].code_space(), dicts[col].null_code(), codes),
        None => BoundedSide::identity(dicts[col].code_space(), dicts[col].null_code()),
    };
    PairStore::bounded(side(j), side(k))
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

/// The tracked heavy-hitter list of one column under a budget: the
/// `heavy_hitters` most frequent value codes (ties broken by ascending
/// code), returned ascending — or `None` when the whole domain fits the
/// budget. Null and unseen sentinels are never tracked.
fn tracked_codes_for(dict: &ColumnDict, value_counts: &[u32], heavy_hitters: usize) -> Option<Vec<u32>> {
    if dict.cardinality() <= heavy_hitters.max(1) {
        return None;
    }
    let null = dict.null_code();
    let unseen = dict.unseen_code();
    let mut ranked: Vec<u32> = (0..value_counts.len() as u32).filter(|&c| c != null && c != unseen).collect();
    ranked.sort_by_key(|&c| (std::cmp::Reverse(value_counts[c as usize]), c));
    ranked.truncate(heavy_hitters.max(1));
    ranked.sort_unstable();
    Some(ranked)
}

impl CompensatoryModel {
    /// A model with no rows absorbed, over the given dictionaries, in the
    /// exact store layouts.
    pub(crate) fn empty(dicts: Vec<ColumnDict>, params: CompensatoryParams) -> CompensatoryModel {
        let m = dicts.len();
        let tracked = vec![None; m];
        let pairs = (0..m)
            .flat_map(|j| (0..m).map(move |k| (j, k)))
            .map(|(j, k)| pair_store_for(&dicts, &tracked, j, k))
            .collect();
        let value_counts = dicts.iter().map(|d| vec![0u32; d.code_space()]).collect();
        CompensatoryModel {
            params,
            dicts,
            pairs,
            value_counts,
            num_rows: 0,
            num_cols: m,
            conf_sum: 0.0,
            tracked,
        }
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

    /// The fit pipeline's exact builder: tuple confidences (Eq. 3, the
    /// per-row user-constraint sweep and the only use of the `Value` rows)
    /// over row blocks of the shared [`ParallelExecutor`], then the
    /// column-parallel builder `build_parallel_with_confidences` without a
    /// budget. Bit-identical to [`CompensatoryModel::build`] at every thread
    /// count.
    pub fn build_parallel(
        dataset: &Dataset,
        encoded: &EncodedDataset,
        constraints: &ConstraintSet,
        params: CompensatoryParams,
        executor: &ParallelExecutor,
    ) -> CompensatoryModel {
        assert_eq!(encoded.num_rows(), dataset.num_rows(), "encoded dataset must match the value dataset");
        let confidences = tuple_confidences(dataset, constraints, params.lambda, executor);
        CompensatoryModel::build_parallel_with_confidences(encoded, params, executor, None, &confidences)
    }

    /// The column-parallel builder, from pre-computed per-row tuple
    /// confidences instead of the raw `Value` dataset, so a streaming fit
    /// that accumulates confidences chunk by chunk (in row order) lands here
    /// and produces the identical model without materialising the dataset.
    /// `encoded` must be an encoding of the fitting dataset against its own
    /// dictionaries.
    ///
    /// Each *target column* is one work item: its value counts, then its
    /// ordered pair stores against every other column, each filled by one
    /// tight pass over two code columns. A `(j, k)` counter is owned by one
    /// worker and holds integer tallies, and the confidence sum folds in row
    /// order, so the model is bit-identical at every thread count.
    ///
    /// With a `budget` (`BCleanConfig::fit_budget`), every statistic the
    /// scorers read stays **exact**; the budget changes the pair stores'
    /// *representation*, not their answers. Every column whose cardinality
    /// exceeds `budget.heavy_hitters` tracks its most frequent value codes
    /// (from the exact counts; ties break by ascending code), and each pair
    /// store touching such a column becomes a hybrid `PairStore::Bounded`
    /// whose hash-map tail is paid only on the rare-value fraction of the
    /// rows (a few percent of incidences on heavy-tailed columns) instead of
    /// on every row as in the exact `Map` layout.
    pub(crate) fn build_parallel_with_confidences(
        encoded: &EncodedDataset,
        params: CompensatoryParams,
        executor: &ParallelExecutor,
        budget: Option<&bclean_sketch::BudgetParams>,
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
        let tracked: Vec<Option<Vec<u32>>> = match budget {
            Some(budget) => {
                (0..m).map(|i| tracked_codes_for(&dicts[i], &value_counts[i], budget.heavy_hitters)).collect()
            }
            None => vec![None; m],
        };
        let conf_sum: f64 = confidences.iter().sum();
        let positives: Vec<bool> = confidences.iter().map(|&c| c >= params.tau).collect();
        let per_column: Vec<Vec<PairStore>> = executor.map(m, |i| {
            (0..m)
                .map(|j| {
                    let mut store = pair_store_for(dicts, &tracked, i, j);
                    if j != i {
                        store.add_columns(encoded.column(i), encoded.column(j), &positives);
                    }
                    store
                })
                .collect()
        });
        CompensatoryModel {
            params,
            dicts: dicts.to_vec(),
            pairs: per_column.into_iter().flatten().collect(),
            value_counts,
            num_rows: n,
            num_cols: m,
            conf_sum,
            tracked,
        }
    }

    /// Absorb a batch into the counters: Algorithm 2's per-tuple loop, run
    /// serially in row order. `encoded` is the accumulated encoding with the
    /// batch already appended at `rows`; the batch's `Value` rows are still
    /// needed because tuple confidences (Eq. 3) evaluate arbitrary value
    /// predicates. Pair counters are integer tallies (`PairEntry`) and the
    /// confidence sum accumulates in row order, so absorbing any batch split
    /// of a dataset reproduces the one-shot build bit-for-bit.
    pub fn absorb(
        &mut self,
        batch: &Dataset,
        constraints: &ConstraintSet,
        encoded: &EncodedDataset,
        rows: std::ops::Range<usize>,
    ) {
        assert_eq!(batch.num_rows(), rows.len(), "batch rows must match the appended row range");
        self.sync_dicts(encoded);
        let m = self.num_cols;
        for (offset, row) in batch.rows().enumerate() {
            let r = rows.start + offset;
            let conf = constraints.tuple_confidence(batch.schema(), row, self.params.lambda);
            self.conf_sum += conf;
            let positive = conf >= self.params.tau;
            for i in 0..m {
                let a = encoded.code(r, i);
                self.value_counts[i][a as usize] += 1;
                for j in 0..m {
                    if i != j {
                        self.pairs[i * m + j].add(a, encoded.code(r, j), positive);
                    }
                }
            }
        }
        self.num_rows += rows.len();
    }

    /// Re-sync the model's dictionaries and counter shapes with an encoding
    /// whose dictionaries may have grown since the model was built (appends
    /// only add codes at the tail, so existing counters keep their slots).
    fn sync_dicts(&mut self, encoded: &EncodedDataset) {
        let m = self.num_cols;
        let old_spaces: Vec<usize> = self.dicts.iter().map(|d| d.code_space()).collect();
        let mut grew = false;
        for (col, dict) in encoded.dicts().iter().enumerate() {
            let space = dict.code_space();
            debug_assert!(space >= old_spaces[col], "code spaces never shrink");
            if space != old_spaces[col] {
                grew = true;
                self.dicts[col] = dict.clone();
                self.value_counts[col].resize(space, 0);
            }
        }
        if !grew {
            return;
        }
        for (i, &old_rows) in old_spaces.iter().enumerate() {
            for j in 0..m {
                if i != j {
                    let space_i = self.dicts[i].code_space();
                    let space_j = self.dicts[j].code_space();
                    self.pairs[i * m + j].resize(old_rows, space_i, space_j);
                }
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
                // codes of j — nulls on either side are excluded by code
                // position, exactly like the Value-space grouping (for fresh
                // dictionaries the null codes trail the values; for appended
                // ones they sit frozen mid-space).
                let mut stats = vec![(0u64, 0u32); space_k];
                match self.pair(k, j) {
                    PairStore::Empty => {}
                    PairStore::Dense { cols, cells } => {
                        for (a, slot) in stats.iter_mut().enumerate() {
                            if a as u32 == null_k {
                                continue;
                            }
                            for (b, entry) in cells[a * cols..(a + 1) * cols].iter().enumerate() {
                                if b as u32 == null_j {
                                    continue;
                                }
                                slot.0 += entry.count() as u64;
                                slot.1 = slot.1.max(entry.count());
                            }
                        }
                    }
                    PairStore::Map(map) => {
                        for (&(a, b), entry) in map {
                            if a != null_k && b != null_j && (a as usize) < space_k {
                                let slot = &mut stats[a as usize];
                                slot.0 += entry.count() as u64;
                                slot.1 = slot.1.max(entry.count());
                            }
                        }
                    }
                    PairStore::Bounded { a: side_k, b: side_j, cells, tail } => {
                        // Dense core first (tracked × tracked groups), then
                        // the exact tail — together they cover every
                        // observed pair, so the statistic matches the exact
                        // builders'. Null slots are skipped by position.
                        let (null_slot_k, null_slot_j) = (side_k.null_slot(), side_j.null_slot());
                        for slot_a in 0..side_k.dims {
                            if slot_a as u32 == null_slot_k {
                                continue;
                            }
                            let slot = &mut stats[side_k.code_of_slot(slot_a) as usize];
                            let row = &cells[slot_a * side_j.dims..(slot_a + 1) * side_j.dims];
                            for (slot_b, entry) in row.iter().enumerate() {
                                if slot_b as u32 == null_slot_j {
                                    continue;
                                }
                                slot.0 += entry.count() as u64;
                                slot.1 = slot.1.max(entry.count());
                            }
                        }
                        for (&(a, b), entry) in tail {
                            if a != null_k && b != null_j && (a as usize) < space_k {
                                let slot = &mut stats[a as usize];
                                slot.0 += entry.count() as u64;
                                slot.1 = slot.1.max(entry.count());
                            }
                        }
                    }
                }
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

    #[inline]
    fn pair(&self, col_j: usize, col_k: usize) -> &PairStore {
        &self.pairs[col_j * self.num_cols + col_k]
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
        let entry = self.pair(col_j, col_k).get(c, e);
        if entry.is_zero() {
            0.0
        } else {
            entry.corr(self.params.beta) / self.num_rows as f64
        }
    }

    /// Raw (unnormalised) signed correlation counter of a code pair.
    #[inline]
    fn raw_corr(&self, col_j: usize, c: u32, col_k: usize, e: u32) -> f64 {
        self.pair(col_j, col_k).get(c, e).corr(self.params.beta)
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
        self.pair(col_j, col_k).get(c, e).count() as usize
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

    /// Large domains use the sparse map layout; counts must not change.
    #[test]
    fn sparse_pair_layout_counts_match() {
        let rows: Vec<Vec<String>> = (0..300).map(|i| vec![format!("a{i}"), format!("b{}", i % 3)]).collect();
        let refs: Vec<Vec<&str>> = rows.iter().map(|r| r.iter().map(|s| s.as_str()).collect()).collect();
        let d = dataset_from(&["big", "small"], &refs);
        let model = CompensatoryModel::build(&d, &ConstraintSet::new(), CompensatoryParams::default());
        // big × big pair space is 301², above the dense cap → Map layout.
        assert_eq!(model.pair_count(0, &Value::text("a7"), 1, &Value::text("b1")), 1);
        assert_eq!(model.pair_count(1, &Value::text("b0"), 0, &Value::text("a0")), 1);
        assert_eq!(model.value_count(0, &Value::text("a299")), 1);
        assert_eq!(model.value_count(1, &Value::text("b0")), 100);
    }
}
