//! Code-space co-occurrence counting over [`EncodedDataset`] columns.
//!
//! Model fitting repeatedly asks "how often do these two column values occur
//! together?" — softened-FD confidence while pruning structure-learning
//! edges, marginal mode shares, contingency statistics. Answering those
//! questions by grouping `Value`s in hash maps puts string hashing on the
//! fit path; [`PairCounts`] answers them from a dense (or, for huge domains,
//! sparse) `u32` contingency table indexed by dictionary codes, built in one
//! pass over two code columns.
//!
//! The tables include the per-column null codes (nulls are ordinary
//! observations), but the derived statistics ([`PairCounts::fd_confidence`],
//! [`mode_share`]) restrict themselves to *value* codes exactly like their
//! `Value`-space counterparts, so the computed ratios are bit-identical to
//! the hash-map implementations they replace.

use std::collections::HashMap;

use crate::encoded::EncodedDataset;

/// Dense code-indexed tables above this cell count switch to a sparse map
/// layout. This is the **shared** budget of every dense/sparse layout
/// decision over full code spaces — the contingency tables here and the
/// counting/compiled CPT tables in `bclean-bayesnet` all import it, so the
/// layouts can never disagree.
pub const DENSE_CELL_CAP: u128 = 1 << 20;

/// Storage of one contingency table.
#[derive(Debug, Clone)]
enum Store {
    /// Dense `space_a × space_b` matrix.
    Dense(Vec<u32>),
    /// Sparse map over observed code pairs.
    Map(HashMap<(u32, u32), u32>),
}

/// A code-indexed contingency table of one ordered column pair: entry
/// `(a, b)` counts the rows whose column-`A` code is `a` and column-`B`
/// code is `b` (null codes included). Delta-updatable: streaming sessions
/// keep tables alive across batches through [`PairCounts::absorb`], which
/// also resizes the table when an appended dictionary grew a code space.
#[derive(Debug, Clone)]
pub struct PairCounts {
    /// Code space of column A (`cardinality + 1`, nulls included).
    space_a: usize,
    /// Code space of column B.
    space_b: usize,
    /// Null code of column A (`cardinality` for fresh dictionaries, frozen
    /// mid-space for appended ones).
    null_a: u32,
    /// Null code of column B.
    null_b: u32,
    /// Number of rows absorbed so far.
    rows: usize,
    store: Store,
}

impl PairCounts {
    /// An empty table sized for the current dictionaries of two columns.
    pub fn empty(encoded: &EncodedDataset, col_a: usize, col_b: usize) -> PairCounts {
        let space_a = encoded.dict(col_a).code_space();
        let space_b = encoded.dict(col_b).code_space();
        PairCounts {
            space_a,
            space_b,
            null_a: encoded.dict(col_a).null_code(),
            null_b: encoded.dict(col_b).null_code(),
            rows: 0,
            store: if (space_a as u128) * (space_b as u128) <= DENSE_CELL_CAP {
                Store::Dense(vec![0u32; space_a * space_b])
            } else {
                Store::Map(HashMap::new())
            },
        }
    }

    /// Count the co-occurrences of columns `col_a` and `col_b` of `encoded`.
    pub fn from_encoded(encoded: &EncodedDataset, col_a: usize, col_b: usize) -> PairCounts {
        let mut counts = PairCounts::empty(encoded, col_a, col_b);
        counts.absorb(encoded, col_a, col_b, 0..encoded.num_rows());
        counts
    }

    /// Number of rows absorbed into the table.
    pub fn rows_absorbed(&self) -> usize {
        self.rows
    }

    /// Add the co-occurrences of a row range (typically a freshly appended
    /// batch) to the table, first resizing it if either column's code space
    /// grew since the table was built. Absorbing `0..n` into an empty table
    /// equals [`PairCounts::from_encoded`]; counts are integers, so any
    /// batch split of the same rows yields the identical table.
    pub fn absorb(
        &mut self,
        encoded: &EncodedDataset,
        col_a: usize,
        col_b: usize,
        rows: std::ops::Range<usize>,
    ) {
        self.resize_for(encoded, col_a, col_b);
        let a_codes = &encoded.column(col_a)[rows.clone()];
        let b_codes = &encoded.column(col_b)[rows.clone()];
        let space_b = self.space_b;
        match &mut self.store {
            Store::Dense(cells) => {
                for (&a, &b) in a_codes.iter().zip(b_codes) {
                    cells[a as usize * space_b + b as usize] += 1;
                }
            }
            Store::Map(map) => {
                for (&a, &b) in a_codes.iter().zip(b_codes) {
                    *map.entry((a, b)).or_insert(0) += 1;
                }
            }
        }
        self.rows += rows.len();
    }

    /// Grow the table to the columns' current code spaces (appends only ever
    /// add codes at the tail, so old cells keep their coordinates).
    fn resize_for(&mut self, encoded: &EncodedDataset, col_a: usize, col_b: usize) {
        let space_a = encoded.dict(col_a).code_space();
        let space_b = encoded.dict(col_b).code_space();
        debug_assert!(space_a >= self.space_a && space_b >= self.space_b, "code spaces never shrink");
        if space_a == self.space_a && space_b == self.space_b {
            return;
        }
        self.null_a = encoded.dict(col_a).null_code();
        self.null_b = encoded.dict(col_b).null_code();
        if let Store::Dense(cells) = &self.store {
            self.store = if (space_a as u128) * (space_b as u128) <= DENSE_CELL_CAP {
                let mut grown = vec![0u32; space_a * space_b];
                for a in 0..self.space_a {
                    grown[a * space_b..a * space_b + self.space_b]
                        .copy_from_slice(&cells[a * self.space_b..(a + 1) * self.space_b]);
                }
                Store::Dense(grown)
            } else {
                // The grown space no longer fits the dense budget.
                let mut map = HashMap::new();
                for a in 0..self.space_a {
                    for b in 0..self.space_b {
                        let count = cells[a * self.space_b + b];
                        if count > 0 {
                            map.insert((a as u32, b as u32), count);
                        }
                    }
                }
                Store::Map(map)
            };
        }
        self.space_a = space_a;
        self.space_b = space_b;
    }

    /// The observation count of one code pair.
    pub fn count(&self, a: u32, b: u32) -> u32 {
        let (ai, bi) = (a as usize, b as usize);
        if ai >= self.space_a || bi >= self.space_b {
            return 0;
        }
        match &self.store {
            Store::Dense(cells) => cells[ai * self.space_b + bi],
            Store::Map(map) => map.get(&(a, b)).copied().unwrap_or(0),
        }
    }

    /// Per-`A`-code `(total, majority)` over the *value* codes of column B:
    /// slot `a` holds the number of rows where both columns are non-null and
    /// column A reads code `a`, together with the largest single-`b` count in
    /// that group. Null codes are skipped by position, so the statistic is
    /// the same whether the null code trails the values (fresh dictionaries)
    /// or is frozen mid-space (appended ones).
    fn value_row_stats(&self) -> Vec<(u32, u32)> {
        let mut stats = vec![(0u32, 0u32); self.space_a];
        match &self.store {
            Store::Dense(cells) => {
                for (a, slot) in stats.iter_mut().enumerate() {
                    if a as u32 == self.null_a {
                        continue;
                    }
                    let row = &cells[a * self.space_b..(a + 1) * self.space_b];
                    for (b, &count) in row.iter().enumerate() {
                        if b as u32 == self.null_b {
                            continue;
                        }
                        slot.0 += count;
                        slot.1 = slot.1.max(count);
                    }
                }
            }
            Store::Map(map) => {
                for (&(a, b), &count) in map {
                    if a != self.null_a && b != self.null_b && (a as usize) < self.space_a {
                        let slot = &mut stats[a as usize];
                        slot.0 += count;
                        slot.1 = slot.1.max(count);
                    }
                }
            }
        }
        stats
    }

    /// Softened-FD confidence of `A → B`: the average (over both-non-null
    /// rows in `A`-value groups of size ≥ 2) probability of the group's
    /// majority `B` value. Bit-identical to grouping the `Value` rows in hash
    /// maps — both reduce to the same integer ratio.
    pub fn fd_confidence(&self) -> f64 {
        let mut consistent = 0u64;
        let mut total = 0u64;
        for (group_total, majority) in self.value_row_stats() {
            if group_total < 2 {
                continue;
            }
            consistent += majority as u64;
            total += group_total as u64;
        }
        if total == 0 {
            0.0
        } else {
            consistent as f64 / total as f64
        }
    }
}

/// A code → bucket map bounding one column's contribution to a contingency
/// table. Budgeted structure learning cannot afford `cardinality²` cells for
/// high-cardinality column pairs, so it coarsens each column into a small
/// bucket space first: tracked codes (heavy hitters, or quantile ranges for
/// numeric columns) keep distinct buckets, the null code keeps its own
/// bucket (so null-skipping statistics stay well-defined), and everything
/// else collapses into a shared *other* bucket.
///
/// The map is built by the caller — this type carries no policy about what
/// deserves a bucket, which keeps `bclean-data` free of any sketch
/// dependency.
#[derive(Debug, Clone)]
pub struct CodeBuckets {
    /// `map[code]` is the bucket of `code`.
    map: Vec<u32>,
    num_buckets: usize,
    null_bucket: u32,
    /// The mixed catch-all bucket, absent for exact (identity) maps.
    other_bucket: Option<u32>,
}

impl CodeBuckets {
    /// The identity map: every code its own bucket, no catch-all. A
    /// [`BucketedPairCounts`] over two exact maps computes the same
    /// statistics as [`PairCounts`].
    pub fn exact(code_space: usize, null_code: u32) -> CodeBuckets {
        debug_assert!((null_code as usize) < code_space);
        CodeBuckets {
            map: (0..code_space as u32).collect(),
            num_buckets: code_space,
            null_bucket: null_code,
            other_bucket: None,
        }
    }

    /// Buckets for a categorical column from its tracked (top-K) codes:
    /// `tracked[i]` maps to bucket `i`, the null code to the next bucket,
    /// and every remaining code to a final *other* bucket. Tracked codes
    /// must be value codes (not the null code), distinct and in range.
    pub fn from_tracked(code_space: usize, null_code: u32, tracked: &[u32]) -> CodeBuckets {
        let t = tracked.len();
        let null_bucket = t as u32;
        let other_bucket = t as u32 + 1;
        let mut map = vec![other_bucket; code_space];
        for (bucket, &code) in tracked.iter().enumerate() {
            debug_assert!((code as usize) < code_space && code != null_code);
            map[code as usize] = bucket as u32;
        }
        map[null_code as usize] = null_bucket;
        CodeBuckets { map, num_buckets: t + 2, null_bucket, other_bucket: Some(other_bucket) }
    }

    /// An arbitrary assignment (e.g. numeric codes bucketed by quantile
    /// range). `map[code]` is the bucket of `code`; `other_bucket`, if any,
    /// marks which bucket is the mixed catch-all excluded from confidence
    /// statistics.
    pub fn from_map(map: Vec<u32>, null_bucket: u32, other_bucket: Option<u32>) -> CodeBuckets {
        let num_buckets =
            map.iter().copied().chain([null_bucket]).chain(other_bucket).max().map_or(1, |m| m as usize + 1);
        debug_assert!(map.iter().all(|&b| (b as usize) < num_buckets));
        CodeBuckets { map, num_buckets, null_bucket, other_bucket }
    }

    /// Number of buckets (null and catch-all included).
    pub fn num_buckets(&self) -> usize {
        self.num_buckets
    }

    /// The bucket of the column's null code.
    pub fn null_bucket(&self) -> u32 {
        self.null_bucket
    }

    /// The mixed catch-all bucket, if this map has one.
    pub fn other_bucket(&self) -> Option<u32> {
        self.other_bucket
    }

    /// The bucket of a code. Codes past the end of the map (possible only if
    /// the dictionary grew after the map was built) fall into the catch-all
    /// bucket, or the null bucket for exact maps.
    #[inline]
    pub fn bucket(&self, code: u32) -> u32 {
        self.map.get(code as usize).copied().unwrap_or_else(|| self.other_bucket.unwrap_or(self.null_bucket))
    }

    /// Does this bucket represent concrete values — i.e. is it neither the
    /// null bucket nor the mixed catch-all?
    pub fn is_value_bucket(&self, bucket: u32) -> bool {
        bucket != self.null_bucket && Some(bucket) != self.other_bucket
    }
}

/// The bucket-space analogue of [`PairCounts`]: a dense
/// `buckets_a × buckets_b` contingency table whose cell `(p, q)` counts the
/// rows mapping to bucket `p` in column A and bucket `q` in column B. The
/// bucket spaces are small by construction, so the table is always dense —
/// this is what lets budgeted structure learning prune edges over
/// high-cardinality pairs in O(rows + buckets²) instead of materialising a
/// `cardinality²` table.
#[derive(Debug, Clone)]
pub struct BucketedPairCounts {
    buckets_a: CodeBuckets,
    buckets_b: CodeBuckets,
    cells: Vec<u32>,
    rows: usize,
}

impl BucketedPairCounts {
    /// An empty table over the given bucket maps.
    pub fn empty(buckets_a: CodeBuckets, buckets_b: CodeBuckets) -> BucketedPairCounts {
        let cells = vec![0u32; buckets_a.num_buckets() * buckets_b.num_buckets()];
        BucketedPairCounts { buckets_a, buckets_b, cells, rows: 0 }
    }

    /// Count the bucketed co-occurrences of columns `col_a` and `col_b`.
    pub fn from_encoded(
        encoded: &EncodedDataset,
        col_a: usize,
        col_b: usize,
        buckets_a: CodeBuckets,
        buckets_b: CodeBuckets,
    ) -> BucketedPairCounts {
        let mut counts = BucketedPairCounts::empty(buckets_a, buckets_b);
        counts.absorb(encoded, col_a, col_b, 0..encoded.num_rows());
        counts
    }

    /// Add the bucketed co-occurrences of a row range to the table. Counts
    /// are integers, so any split of the same rows yields the same table.
    pub fn absorb(
        &mut self,
        encoded: &EncodedDataset,
        col_a: usize,
        col_b: usize,
        rows: std::ops::Range<usize>,
    ) {
        let a_codes = &encoded.column(col_a)[rows.clone()];
        let b_codes = &encoded.column(col_b)[rows.clone()];
        let width = self.buckets_b.num_buckets();
        for (&a, &b) in a_codes.iter().zip(b_codes) {
            let (p, q) = (self.buckets_a.bucket(a) as usize, self.buckets_b.bucket(b) as usize);
            self.cells[p * width + q] += 1;
        }
        self.rows += rows.len();
    }

    /// Number of rows absorbed into the table.
    pub fn rows_absorbed(&self) -> usize {
        self.rows
    }

    /// The observation count of one bucket pair.
    pub fn count(&self, bucket_a: u32, bucket_b: u32) -> u32 {
        let (p, q) = (bucket_a as usize, bucket_b as usize);
        if p >= self.buckets_a.num_buckets() || q >= self.buckets_b.num_buckets() {
            return 0;
        }
        self.cells[p * self.buckets_b.num_buckets() + q]
    }

    /// Bucket-space softened-FD confidence of `A → B`, the exact analogue of
    /// [`PairCounts::fd_confidence`] with buckets in place of codes. Null
    /// buckets are skipped like null codes; the mixed *other* buckets are
    /// skipped too — on the A side an other-group's majority says nothing
    /// about any individual value, and on the B side crediting the catch-all
    /// as a single "value" would overstate consistency. Over exact
    /// (identity) maps this reproduces `PairCounts::fd_confidence`
    /// bit-for-bit.
    pub fn fd_confidence(&self) -> f64 {
        let mut consistent = 0u64;
        let mut total = 0u64;
        for p in 0..self.buckets_a.num_buckets() as u32 {
            if !self.buckets_a.is_value_bucket(p) {
                continue;
            }
            let mut group_total = 0u32;
            let mut majority = 0u32;
            for q in 0..self.buckets_b.num_buckets() as u32 {
                if !self.buckets_b.is_value_bucket(q) {
                    continue;
                }
                let count = self.count(p, q);
                group_total += count;
                majority = majority.max(count);
            }
            if group_total < 2 {
                continue;
            }
            consistent += majority as u64;
            total += group_total as u64;
        }
        if total == 0 {
            0.0
        } else {
            consistent as f64 / total as f64
        }
    }
}

/// Bucket-space [`mode_share`]: the share of the most frequent *value*
/// bucket of a column (null and catch-all buckets excluded). The budgeted
/// low-lift edge pruner compares [`BucketedPairCounts::fd_confidence`]
/// against this baseline so both sides of the comparison live in the same
/// coarsened space — comparing a bucketed confidence against the exact
/// code-space mode share would bias the lift.
pub fn bucketed_mode_share(encoded: &EncodedDataset, col: usize, buckets: &CodeBuckets) -> f64 {
    let mut counts = vec![0u64; buckets.num_buckets()];
    for &code in encoded.column(col) {
        counts[buckets.bucket(code) as usize] += 1;
    }
    let values = counts.iter().enumerate().filter(|&(bucket, _)| buckets.is_value_bucket(bucket as u32));
    let total: u64 = values.clone().map(|(_, &c)| c).sum();
    if total == 0 {
        0.0
    } else {
        values.map(|(_, &c)| c).max().unwrap_or(0) as f64 / total as f64
    }
}

/// Per-code observation counts of one column (null code included), indexed
/// by code.
pub fn column_code_counts(encoded: &EncodedDataset, col: usize) -> Vec<u32> {
    let mut counts = vec![0u32; encoded.dict(col).code_space()];
    for &code in encoded.column(col) {
        counts[code as usize] += 1;
    }
    counts
}

/// Share of the most frequent non-null value of a column, computed from its
/// code counts: `max(counts) / Σ counts` over value codes only (0.0 for a
/// fully-null column). The null code is skipped by position, so appended
/// dictionaries (frozen null mid-space) yield the same share.
pub fn mode_share(encoded: &EncodedDataset, col: usize) -> f64 {
    let counts = column_code_counts(encoded, col);
    let null = encoded.dict(col).null_code() as usize;
    let values = counts.iter().enumerate().filter(|&(code, _)| code != null);
    let total: u64 = values.clone().map(|(_, &c)| c as u64).sum();
    if total == 0 {
        0.0
    } else {
        values.map(|(_, &c)| c).max().unwrap_or(0) as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{dataset_from, Dataset};
    use crate::value::Value;

    fn fd_dataset() -> Dataset {
        dataset_from(
            &["Zip", "State"],
            &[
                vec!["35150", "CA"],
                vec!["35150", "CA"],
                vec!["35150", "KT"], // inconsistency
                vec!["35960", "KT"],
                vec!["35960", "KT"],
                vec!["", "KT"],    // null Zip
                vec!["36000", ""], // null State
            ],
        )
    }

    /// The Value-space confidence the table must reproduce (the hash-map
    /// implementation previously used by the structure learner).
    fn value_space_fd_confidence(dataset: &Dataset, from: usize, to: usize) -> f64 {
        let mut groups: HashMap<&Value, HashMap<&Value, usize>> = HashMap::new();
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
            consistent += counts.values().copied().max().unwrap_or(0);
            total += group_total;
        }
        if total == 0 {
            0.0
        } else {
            consistent as f64 / total as f64
        }
    }

    #[test]
    fn pair_counts_match_observed_rows() {
        let ds = fd_dataset();
        let encoded = EncodedDataset::from_dataset(&ds);
        let pc = PairCounts::from_encoded(&encoded, 0, 1);
        let zip = encoded.dict(0);
        let state = encoded.dict(1);
        let code = |d: &crate::encoded::ColumnDict, s: &str| d.encode(&Value::parse(s)).unwrap();
        assert_eq!(pc.count(code(zip, "35150"), code(state, "CA")), 2);
        assert_eq!(pc.count(code(zip, "35150"), code(state, "KT")), 1);
        assert_eq!(pc.count(code(zip, "35960"), code(state, "KT")), 2);
        // Null codes are counted like any other observation.
        assert_eq!(pc.count(zip.null_code(), code(state, "KT")), 1);
        assert_eq!(pc.count(code(zip, "36000"), state.null_code()), 1);
        // Out-of-range codes are safe.
        assert_eq!(pc.count(999, 0), 0);
    }

    #[test]
    fn fd_confidence_matches_value_space_grouping() {
        let ds = fd_dataset();
        let encoded = EncodedDataset::from_dataset(&ds);
        for (a, b) in [(0usize, 1usize), (1, 0)] {
            let pc = PairCounts::from_encoded(&encoded, a, b);
            assert_eq!(
                pc.fd_confidence().to_bits(),
                value_space_fd_confidence(&ds, a, b).to_bits(),
                "pair ({a}, {b})"
            );
        }
    }

    #[test]
    fn sparse_layout_matches_dense_statistics() {
        // 1500 × 750 distinct values pushes the pair space over the dense
        // cap, forcing the map layout.
        let rows: Vec<Vec<String>> =
            (0..3000).map(|i| vec![format!("a{:04}", i / 2), format!("b{:04}", i / 4)]).collect();
        let refs: Vec<Vec<&str>> = rows.iter().map(|r| r.iter().map(|s| s.as_str()).collect()).collect();
        let ds = dataset_from(&["x", "y"], &refs);
        let encoded = EncodedDataset::from_dataset(&ds);
        let forward = PairCounts::from_encoded(&encoded, 0, 1);
        let backward = PairCounts::from_encoded(&encoded, 1, 0);
        assert!(matches!(forward.store, Store::Map(_)));
        assert_eq!(forward.fd_confidence().to_bits(), value_space_fd_confidence(&ds, 0, 1).to_bits());
        assert_eq!(backward.fd_confidence().to_bits(), value_space_fd_confidence(&ds, 1, 0).to_bits());
        // Every y-value is shared by exactly two x-values: x determines y
        // perfectly, y determines x at 50%.
        assert!((forward.fd_confidence() - 1.0).abs() < 1e-12);
        assert!((backward.fd_confidence() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn column_counts_and_mode_share() {
        let ds = fd_dataset();
        let encoded = EncodedDataset::from_dataset(&ds);
        let counts = column_code_counts(&encoded, 1);
        let state = encoded.dict(1);
        assert_eq!(counts[state.encode(&Value::text("KT")).unwrap() as usize], 4);
        assert_eq!(counts[state.null_code() as usize], 1);
        // Mode share of State: KT appears 4 times among 6 non-null values.
        assert!((mode_share(&encoded, 1) - 4.0 / 6.0).abs() < 1e-12);
    }

    /// Absorbing batches (with dictionary growth in between) must yield the
    /// same table and statistics as a one-shot count of the concatenation.
    #[test]
    fn absorbed_batches_match_one_shot_counts() {
        let first =
            dataset_from(&["Zip", "State"], &[vec!["35150", "CA"], vec!["35150", "CA"], vec!["", "KT"]]);
        let batch = dataset_from(
            &["Zip", "State"],
            &[vec!["35960", "KT"], vec!["35150", "KT"], vec!["36000", ""], vec!["35960", "KT"]],
        );
        let mut encoded = EncodedDataset::from_dataset(&first);
        let mut streaming = PairCounts::from_encoded(&encoded, 0, 1);
        let rows = encoded.append_batch(&batch);
        streaming.absorb(&encoded, 0, 1, rows);
        assert_eq!(streaming.rows_absorbed(), 7);
        let mut combined = first.clone();
        for row in batch.rows() {
            combined.push_row(row.to_vec()).unwrap();
        }
        // The one-shot table uses sorted dictionaries, the streaming one the
        // appended layout: compare through values, not raw codes.
        let oneshot_encoded = EncodedDataset::from_dataset(&combined);
        let oneshot = PairCounts::from_encoded(&oneshot_encoded, 0, 1);
        assert_eq!(streaming.fd_confidence().to_bits(), oneshot.fd_confidence().to_bits());
        assert_eq!(streaming.fd_confidence().to_bits(), value_space_fd_confidence(&combined, 0, 1).to_bits());
        for probe_a in ["35150", "35960", "36000"] {
            for probe_b in ["CA", "KT"] {
                let (a, b) = (Value::parse(probe_a), Value::parse(probe_b));
                let s =
                    streaming.count(encoded.dict(0).encode(&a).unwrap(), encoded.dict(1).encode(&b).unwrap());
                let o = oneshot.count(
                    oneshot_encoded.dict(0).encode(&a).unwrap(),
                    oneshot_encoded.dict(1).encode(&b).unwrap(),
                );
                assert_eq!(s, o, "pair ({probe_a}, {probe_b})");
            }
        }
        assert_eq!(
            mode_share(&encoded, 1).to_bits(),
            mode_share(&oneshot_encoded, 1).to_bits(),
            "mode share must ignore the frozen null slot"
        );
    }

    /// Over exact (identity) bucket maps the bucketed table must reproduce
    /// `PairCounts` statistics bit-for-bit.
    #[test]
    fn exact_buckets_reproduce_pair_counts() {
        let ds = fd_dataset();
        let encoded = EncodedDataset::from_dataset(&ds);
        for (a, b) in [(0usize, 1usize), (1, 0)] {
            let exact = PairCounts::from_encoded(&encoded, a, b);
            let buckets_a = CodeBuckets::exact(encoded.dict(a).code_space(), encoded.dict(a).null_code());
            let buckets_b = CodeBuckets::exact(encoded.dict(b).code_space(), encoded.dict(b).null_code());
            let bucketed = BucketedPairCounts::from_encoded(&encoded, a, b, buckets_a, buckets_b);
            assert_eq!(
                bucketed.fd_confidence().to_bits(),
                exact.fd_confidence().to_bits(),
                "pair ({a}, {b})"
            );
            for code_a in 0..encoded.dict(a).code_space() as u32 {
                for code_b in 0..encoded.dict(b).code_space() as u32 {
                    assert_eq!(bucketed.count(code_a, code_b), exact.count(code_a, code_b));
                }
            }
        }
        let identity = CodeBuckets::exact(3, 2);
        assert!(identity.other_bucket().is_none());
        assert!(identity.is_value_bucket(0));
        assert!(!identity.is_value_bucket(2));
        // Out-of-range codes of an exact map fall back to the null bucket.
        assert_eq!(identity.bucket(99), 2);
        assert_eq!(
            mode_share(&encoded, 1).to_bits(),
            bucketed_mode_share(
                &encoded,
                1,
                &CodeBuckets::exact(encoded.dict(1).code_space(), encoded.dict(1).null_code())
            )
            .to_bits()
        );
    }

    /// Tracked-code maps collapse untracked codes into the catch-all bucket,
    /// which both confidence and mode share must ignore.
    #[test]
    fn tracked_buckets_collapse_the_tail() {
        // Zip "36000" (code for it) is untracked; its row lands in "other".
        let ds = fd_dataset();
        let encoded = EncodedDataset::from_dataset(&ds);
        let zip = encoded.dict(0);
        let tracked: Vec<u32> =
            ["35150", "35960"].iter().map(|z| zip.encode(&Value::parse(z)).unwrap()).collect();
        let buckets_a = CodeBuckets::from_tracked(zip.code_space(), zip.null_code(), &tracked);
        assert_eq!(buckets_a.num_buckets(), 4);
        assert_eq!(buckets_a.bucket(tracked[0]), 0);
        assert_eq!(buckets_a.bucket(zip.null_code()), buckets_a.null_bucket());
        let other = buckets_a.other_bucket().unwrap();
        assert_eq!(buckets_a.bucket(zip.encode(&Value::parse("36000")).unwrap()), other);
        assert!(!buckets_a.is_value_bucket(other));
        let state = encoded.dict(1);
        let buckets_b = CodeBuckets::exact(state.code_space(), state.null_code());
        let bucketed = BucketedPairCounts::from_encoded(&encoded, 0, 1, buckets_a.clone(), buckets_b);
        // The same groups as the exact table minus the 36000 singleton —
        // which fd_confidence drops anyway (group < 2), so confidence agrees.
        let exact = PairCounts::from_encoded(&encoded, 0, 1);
        assert_eq!(bucketed.fd_confidence().to_bits(), exact.fd_confidence().to_bits());
        assert_eq!(bucketed.rows_absorbed(), encoded.num_rows());
        // Mode share over tracked buckets: 35150 appears 3 times of the 5
        // tracked non-null zips.
        assert!((bucketed_mode_share(&encoded, 0, &buckets_a) - 3.0 / 5.0).abs() < 1e-12);
        // from_map round-trips an explicit assignment.
        let manual = CodeBuckets::from_map(vec![0, 0, 1, 2], 2, Some(1));
        assert_eq!(manual.num_buckets(), 3);
        assert_eq!(manual.bucket(1), 0);
        assert!(!manual.is_value_bucket(1));
    }

    #[test]
    fn empty_and_all_null_columns_are_safe() {
        let empty = Dataset::new(crate::schema::Schema::from_names(&["a", "b"]).unwrap());
        let encoded = EncodedDataset::from_dataset(&empty);
        let pc = PairCounts::from_encoded(&encoded, 0, 1);
        assert_eq!(pc.fd_confidence(), 0.0);
        assert_eq!(mode_share(&encoded, 0), 0.0);
        let nulls = dataset_from(&["a"], &[vec![""], vec![""]]);
        let encoded = EncodedDataset::from_dataset(&nulls);
        assert_eq!(mode_share(&encoded, 0), 0.0);
        assert_eq!(column_code_counts(&encoded, 0), vec![2]);
    }
}
