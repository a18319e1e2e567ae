//! Dictionary encoding of datasets: per-attribute [`ColumnDict`]s mapping
//! `Value ↔ u32` codes, and a columnar [`EncodedDataset`] built by one
//! encoder, [`EncodedDatasetBuilder`], from a [`Dataset`] fed in one batch
//! ([`EncodedDataset::from_dataset`]) or chunk by chunk (the out-of-core
//! pipeline).
//!
//! BClean's inference stage scores millions of `(row, column, candidate)`
//! combinations; doing that over heap-allocated [`Value`]s means hashing and
//! cloning strings in the innermost loop. Dictionary encoding compiles every
//! attribute's observed domain into dense integer codes so all downstream
//! models (CPTs, co-occurrence counters, candidate sets) can be indexed by
//! `u32` instead of keyed by `Value`.
//!
//! # The code-order invariant
//!
//! Codes `0..cardinality` enumerate the column's **distinct non-null values
//! in sorted [`Value`] order** — the exact order produced by
//! [`crate::domain::AttributeDomain::values`]. Code `i` therefore always
//! denotes `values()[i]` of the column's domain, which lets compiled models
//! share candidate indices without translation tables. Two sentinel codes
//! extend the space:
//!
//! * [`ColumnDict::null_code`] (`= cardinality`) encodes [`Value::Null`];
//! * [`ColumnDict::unseen_code`] (`= cardinality + 1`) is returned by
//!   [`ColumnDict::encode_lossy`] for values outside the dictionary (they can
//!   occur when a model encodes a dataset other than the one it was fit on).
//!
//! ```
//! use bclean_data::{dataset_from, EncodedDataset, Value};
//!
//! let d = dataset_from(&["City"], &[vec!["b"], vec!["a"], vec![""], vec!["b"]]);
//! let e = EncodedDataset::from_dataset(&d);
//! let dict = e.dict(0);
//! assert_eq!(dict.values(), &[Value::text("a"), Value::text("b")]); // sorted
//! assert_eq!(e.column(0), &[1, 0, dict.null_code(), 1]);
//! assert_eq!(e.decode_cell(3, 0), &Value::text("b"));
//! ```
//!
//! # Appending batches
//!
//! Ingest (`ModelArtifact::ingest_batch` in `bclean-core`) grows a model's
//! encoding batch by batch through
//! [`EncodedDataset::append_batch`] **without re-encoding history**: codes
//! already handed out never change. That relaxes the sorted layout the first
//! time a column receives a value it has never seen:
//!
//! * the null code **freezes** at its current position (the slot one past
//!   the old values) — a [`Value::Null`] placeholder occupies that slot of
//!   the decode table so [`ColumnDict::decode`] keeps working unchanged;
//! * new distinct values get fresh codes at the tail, in order of first
//!   appearance;
//! * a code → sorted-rank remap ([`ColumnDict::sort_rank`], with its inverse
//!   [`ColumnDict::code_order`]) records where each code sits in sorted
//!   [`Value`] order, so every consumer of the code-order invariant
//!   (`AttributeDomain`, candidate enumeration, the counting-sort argsort
//!   feeding structure learning) can keep producing exactly the results it
//!   would produce over a freshly sorted dictionary.
//!
//! Dictionaries that never had to append (`code_order()` returns `None`)
//! stay in the sorted layout, bit-compatible with the pre-streaming engine.

use std::collections::HashMap;
use std::ops::Range;

use crate::dataset::Dataset;
use crate::value::Value;

/// The shared null value returned by [`ColumnDict::decode`] for sentinel codes.
const NULL: Value = Value::Null;

/// Interim code for nulls during the interning pass, rewritten to the real
/// null code once the distinct values are sorted.
const NULL_INTERIM: u32 = u32::MAX;

/// A per-attribute dictionary assigning dense `u32` codes to the distinct
/// non-null values of one column, in sorted order (see the module docs for
/// the code-order invariant). [`ColumnDict::append_values`] grows the
/// dictionary in place for streaming workloads; appended codes live at the
/// tail and the sorted order is tracked through a remap instead of the code
/// order itself (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct ColumnDict {
    /// The decode table: `values[code]` is the value of `code`. Sorted for
    /// fresh dictionaries; after the first append, position `null_code`
    /// holds a [`Value::Null`] placeholder and new values sit at the tail.
    values: Vec<Value>,
    index: HashMap<Value, u32>,
    /// Value codes in sorted `Value` order; `None` while the code order
    /// itself is sorted (no append ever introduced a new value).
    sorted_codes: Option<Vec<u32>>,
    /// Rank of each value code in sorted order (the inverse permutation of
    /// `sorted_codes`; the null placeholder slot holds an arbitrary rank).
    ranks: Option<Vec<u32>>,
    /// The frozen null code once an append occurred; `values.len()` before.
    frozen_null: Option<u32>,
}

impl ColumnDict {
    /// The decode table, in code order. For fresh dictionaries this is the
    /// distinct non-null values, sorted; after an append it additionally
    /// carries the [`Value::Null`] placeholder at the frozen null position
    /// (use [`ColumnDict::code_order`] / [`ColumnDict::is_value_code`] to
    /// enumerate the real values of an appended dictionary).
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Number of distinct non-null values.
    pub fn cardinality(&self) -> usize {
        self.index.len()
    }

    /// The code reserved for [`Value::Null`]: one past the last value code
    /// for fresh dictionaries, frozen in place once the dictionary has been
    /// appended to (see the module docs).
    pub fn null_code(&self) -> u32 {
        self.frozen_null.unwrap_or(self.values.len() as u32)
    }

    /// The sentinel code for values outside the dictionary: one past the
    /// decodable code space. Only produced by [`ColumnDict::encode_lossy`];
    /// never a decodable code.
    pub fn unseen_code(&self) -> u32 {
        self.code_space() as u32
    }

    /// Number of *decodable* codes: the values plus the null code.
    pub fn code_space(&self) -> usize {
        // Fresh layout: values plus the trailing null code. Appended layout:
        // the decode table already contains the null placeholder.
        if self.frozen_null.is_some() {
            self.values.len()
        } else {
            self.values.len() + 1
        }
    }

    /// Encode a value. Nulls map to [`ColumnDict::null_code`]; values outside
    /// the dictionary return `None`.
    pub fn encode(&self, value: &Value) -> Option<u32> {
        if value.is_null() {
            Some(self.null_code())
        } else {
            self.index.get(value).copied()
        }
    }

    /// Encode a value, mapping anything outside the dictionary to
    /// [`ColumnDict::unseen_code`]. This is the total encoding used when a
    /// fitted model scores a dataset containing values it never observed.
    pub fn encode_lossy(&self, value: &Value) -> u32 {
        self.encode(value).unwrap_or_else(|| self.unseen_code())
    }

    /// Decode a code back to its value. The null code (and, defensively, any
    /// out-of-range code) decodes to [`Value::Null`] — for appended
    /// dictionaries the frozen null slot holds a `Null` placeholder, so the
    /// same table lookup covers both layouts.
    pub fn decode(&self, code: u32) -> &Value {
        self.values.get(code as usize).unwrap_or(&NULL)
    }

    /// Does this code denote a concrete (non-null, in-dictionary) value?
    pub fn is_value_code(&self, code: u32) -> bool {
        (code as usize) < self.values.len() && Some(code) != self.frozen_null
    }

    /// Grow the dictionary with the distinct non-null values of a new batch
    /// that are not yet in it, assigning fresh codes at the tail (first
    /// appearance order) without disturbing any existing code. The first
    /// time this actually adds a value, the null code freezes at its current
    /// position (a `Null` placeholder takes that decode slot) and the
    /// code → sorted-rank remap starts tracking the sorted order. Returns
    /// the number of codes added.
    pub fn append_values<'a>(&mut self, values: impl IntoIterator<Item = &'a Value>) -> usize {
        let mut fresh: Vec<&Value> = Vec::new();
        let mut seen: std::collections::HashSet<&Value> = std::collections::HashSet::new();
        for value in values {
            if !value.is_null() && !self.index.contains_key(value) && seen.insert(value) {
                fresh.push(value);
            }
        }
        if fresh.is_empty() {
            return 0;
        }
        if self.frozen_null.is_none() {
            // Freeze the null code where it currently lives and let the
            // placeholder keep `decode` a plain table lookup.
            self.frozen_null = Some(self.values.len() as u32);
            self.values.push(Value::Null);
        }
        for value in &fresh {
            let code = self.values.len() as u32;
            self.values.push((*value).clone());
            self.index.insert((*value).clone(), code);
        }
        self.rebuild_order();
        fresh.len()
    }

    /// Recompute the sorted-order remap after an append.
    fn rebuild_order(&mut self) {
        let null = self.frozen_null.expect("order remaps only exist for appended dictionaries");
        let mut sorted: Vec<u32> = (0..self.values.len() as u32).filter(|&code| code != null).collect();
        sorted.sort_by(|&a, &b| self.values[a as usize].cmp(&self.values[b as usize]));
        let mut ranks = vec![0u32; self.values.len()];
        for (rank, &code) in sorted.iter().enumerate() {
            ranks[code as usize] = rank as u32;
        }
        self.sorted_codes = Some(sorted);
        self.ranks = Some(ranks);
    }

    /// The value codes in sorted [`Value`] order, or `None` when the code
    /// order itself is sorted (fresh dictionaries: iterate `0..cardinality`).
    pub fn code_order(&self) -> Option<&[u32]> {
        self.sorted_codes.as_deref()
    }

    /// The frozen null code of an appended dictionary, or `None` for fresh
    /// (sorted-layout) dictionaries. Together with [`ColumnDict::values`]
    /// this is the dictionary's complete persistent state — the index and
    /// the sorted-order remap are derived (see
    /// [`ColumnDict::from_layout`]).
    pub fn frozen_null_code(&self) -> Option<u32> {
        self.frozen_null
    }

    /// Rebuild a dictionary from its persisted layout: the decode table in
    /// code order plus the frozen null position (`None` = fresh sorted
    /// layout, where the null code trails the values). The derived state —
    /// the encode index and, for appended layouts, the code → sorted-rank
    /// remap — is reconstructed, so `from_layout(d.values(),
    /// d.frozen_null_code())` reproduces `d` exactly.
    ///
    /// Errors (as messages, mapped to typed store errors by the caller)
    /// when the layout is not one a live dictionary can reach: duplicate
    /// values, nulls outside the frozen slot, an out-of-range frozen
    /// position, or a fresh layout that is not strictly sorted.
    pub fn from_layout(values: Vec<Value>, frozen_null: Option<u32>) -> Result<ColumnDict, String> {
        if let Some(null) = frozen_null {
            let null = null as usize;
            if null >= values.len() {
                return Err(format!("frozen null position {null} outside decode table of {}", values.len()));
            }
            if !values[null].is_null() {
                return Err(format!("frozen null position {null} does not hold a null placeholder"));
            }
        } else if !values.windows(2).all(|w| w[0] < w[1]) {
            return Err("fresh dictionary layout must be strictly sorted".to_string());
        }
        let mut index = HashMap::with_capacity(values.len());
        for (code, value) in values.iter().enumerate() {
            if value.is_null() {
                if frozen_null != Some(code as u32) {
                    return Err(format!("null value at non-frozen code {code}"));
                }
                continue;
            }
            if index.insert(value.clone(), code as u32).is_some() {
                return Err(format!("duplicate dictionary value at code {code}"));
            }
        }
        let mut dict = ColumnDict { values, index, sorted_codes: None, ranks: None, frozen_null };
        if dict.frozen_null.is_some() {
            dict.rebuild_order();
        }
        Ok(dict)
    }

    /// Rank of a value code in sorted [`Value`] order. For fresh
    /// dictionaries this is the code itself; the null code and any
    /// out-of-range code rank after every value.
    #[inline]
    pub fn sort_rank(&self, code: u32) -> u32 {
        if !self.is_value_code(code) {
            return self.cardinality() as u32;
        }
        match &self.ranks {
            Some(ranks) => ranks[code as usize],
            None => code,
        }
    }
}

/// A dictionary-encoded dataset: one [`ColumnDict`] per attribute plus
/// columnar `Vec<u32>` code storage. Built once from a [`Dataset`]; cell
/// `(r, c)` of the encoded form always decodes to cell `(r, c)` of the
/// source (see the round-trip property tests).
#[derive(Debug, Clone)]
pub struct EncodedDataset {
    dicts: Vec<ColumnDict>,
    columns: Vec<Vec<u32>>,
    num_rows: usize,
    /// No row, held here or not, has been encoded against `dicts` yet, so
    /// the first appended batch may lay them out afresh.
    fresh: bool,
}

impl EncodedDataset {
    /// Encode a dataset with dictionaries built from its own columns: the
    /// [`EncodedDatasetBuilder`] fed the whole dataset as one batch. Every
    /// cell is representable, so no code is [`ColumnDict::unseen_code`].
    pub fn from_dataset(dataset: &Dataset) -> EncodedDataset {
        let mut builder = EncodedDatasetBuilder::new(dataset.num_columns());
        builder.push_batch(dataset);
        builder.finish()
    }

    /// A zero-row encoding that continues `encoded_rows` rows encoded
    /// against `dicts` elsewhere — the rows a persisted model summarises in
    /// its counts. Appending a batch encodes only the batch, at rows
    /// `0..batch`, growing the dictionaries at the tail exactly as appending
    /// to the encoding that held those rows would, so the codes they were
    /// given keep their meaning. With `encoded_rows == 0` no code was ever
    /// handed out, and the first append lays the dictionaries out afresh.
    pub fn with_dicts(dicts: Vec<ColumnDict>, encoded_rows: usize) -> EncodedDataset {
        let columns = vec![Vec::new(); dicts.len()];
        EncodedDataset { dicts, columns, num_rows: 0, fresh: encoded_rows == 0 }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of columns (attributes).
    pub fn num_columns(&self) -> usize {
        self.dicts.len()
    }

    /// The per-attribute dictionaries, in column order.
    pub fn dicts(&self) -> &[ColumnDict] {
        &self.dicts
    }

    /// The dictionary of one column.
    pub fn dict(&self, col: usize) -> &ColumnDict {
        &self.dicts[col]
    }

    /// The codes of one column, in row order.
    pub fn column(&self, col: usize) -> &[u32] {
        &self.columns[col]
    }

    /// The code of one cell.
    pub fn code(&self, row: usize, col: usize) -> u32 {
        self.columns[col][row]
    }

    /// The codes of one row, gathered into a fresh vector.
    pub fn row_codes(&self, row: usize) -> Vec<u32> {
        self.columns.iter().map(|column| column[row]).collect()
    }

    /// Iterate over rows as code vectors, in row order.
    pub fn rows(&self) -> impl Iterator<Item = Vec<u32>> + '_ {
        (0..self.num_rows).map(|r| self.row_codes(r))
    }

    /// Decode one cell back to its value.
    pub fn decode_cell(&self, row: usize, col: usize) -> &Value {
        self.dicts[col].decode(self.columns[col][row])
    }

    /// Append a batch of rows, growing the dictionaries in place: values the
    /// encoding has never seen get fresh tail codes through
    /// [`ColumnDict::append_values`] (no historical code changes — see the
    /// module docs). Appending to an encoding no row was ever encoded
    /// against (an empty [`EncodedDataset::from_dataset`], or
    /// [`EncodedDataset::with_dicts`] over zero rows) builds the fresh
    /// sorted layout, exactly as [`EncodedDataset::from_dataset`] would; a
    /// zero-row encoding over dictionaries that did hand out codes keeps
    /// them. Returns the row range the batch now occupies, which ingest
    /// absorbs.
    pub fn append_batch(&mut self, batch: &Dataset) -> Range<usize> {
        assert_eq!(
            batch.num_columns(),
            self.dicts.len(),
            "appended batch must have the encoding's column count"
        );
        if self.fresh {
            *self = EncodedDataset::from_dataset(batch);
            return 0..self.num_rows;
        }
        for (col, dict) in self.dicts.iter_mut().enumerate() {
            dict.append_values(batch.rows().map(|row| &row[col]));
        }
        let start = self.num_rows;
        for row in batch.rows() {
            for (col, value) in row.iter().enumerate() {
                let code = self.dicts[col].encode(value).expect("batch value was appended to the dictionary");
                self.columns[col].push(code);
            }
        }
        self.num_rows += batch.num_rows();
        start..self.num_rows
    }

    /// Row indices sorted by the values of one column — the code-space twin
    /// of `Dataset::argsort_by_column`, producing the **identical**
    /// permutation: a stable counting sort over codes remapped so that the
    /// null code sorts first (matching `Value::Null < any value`) and value
    /// codes sort by their sorted rank (the rank *is* the code for fresh
    /// dictionaries). Runs in `O(rows + cardinality)` with no `Value`
    /// comparisons, appended dictionaries included.
    pub fn argsort_by_column(&self, col: usize) -> Vec<usize> {
        let dict = &self.dicts[col];
        let null_code = dict.null_code();
        // Sort key: null first, then the value codes in their sorted order.
        // Unseen codes cannot occur in a dataset encoded against its own
        // dictionaries, but clamp them after everything else defensively.
        let space = dict.code_space() + 1;
        let key = |code: u32| {
            if code == null_code {
                0usize
            } else {
                (dict.sort_rank(code) as usize + 1).min(space - 1)
            }
        };
        let codes = &self.columns[col];
        let mut histogram = vec![0usize; space + 1];
        for &code in codes {
            histogram[key(code) + 1] += 1;
        }
        for slot in 1..=space {
            histogram[slot] += histogram[slot - 1];
        }
        let mut order = vec![0usize; codes.len()];
        for (row, &code) in codes.iter().enumerate() {
            let bucket = &mut histogram[key(code)];
            order[*bucket] = row;
            *bucket += 1;
        }
        order
    }

    /// Approximate in-memory bytes of the encoding: 4 bytes per cell code
    /// plus the dictionary values (the [`crate::stream::approx_row_bytes`]
    /// heuristic). Deterministic — used for the bounded-memory accounting of
    /// the streaming pipeline, not an allocator measurement.
    pub fn approx_bytes(&self) -> usize {
        const PER_VALUE: usize = 48;
        let codes = 4 * self.num_rows * self.dicts.len();
        let dict_bytes: usize = self
            .dicts
            .iter()
            .flat_map(|d| d.values())
            .map(|v| {
                PER_VALUE
                    + match v {
                        Value::Text(s) => s.len(),
                        _ => 0,
                    }
            })
            .sum();
        codes + dict_bytes
    }

    /// A row-subset view of this encoding: the given rows' codes (in the
    /// given order) under **the same dictionaries**. Because the
    /// dictionaries are shared, codes — and therefore cardinalities, sort
    /// ranks, and the code-order invariant — mean exactly the same thing in
    /// the gathered encoding as in the full one, which is what lets budgeted
    /// structure learning run the unchanged learning pipeline over a row
    /// sample and still talk about the full dataset's code spaces.
    ///
    /// Rows must be in range; duplicates are allowed (each occurrence
    /// contributes a row).
    pub fn gather(&self, rows: &[usize]) -> EncodedDataset {
        let columns: Vec<Vec<u32>> =
            self.columns.iter().map(|column| rows.iter().map(|&r| column[r]).collect()).collect();
        EncodedDataset { dicts: self.dicts.clone(), columns, num_rows: rows.len(), fresh: self.fresh }
    }
}

/// The dictionary encoder: feed row batches with
/// [`EncodedDatasetBuilder::push_batch`], then [`EncodedDatasetBuilder::finish`]
/// to obtain the encoding of their concatenation in the fresh sorted layout.
/// [`EncodedDataset::from_dataset`] is this builder fed one batch, and the
/// result is the same for any batch sizes.
///
/// Why that holds: each column assigns *interim* codes in first-appearance
/// order, and `finish` sorts only the distinct values and rewrites the
/// interim codes through the resulting permutation. First-appearance order
/// over the concatenation is independent of where batch boundaries fall.
/// This is what lets the out-of-core pipeline encode a CSV stream
/// chunk-by-chunk (holding one raw chunk plus the growing code columns,
/// never the full `Value` dataset) and still meet the fresh sorted
/// dictionary layout that model artifacts persist.
#[derive(Debug, Clone)]
pub struct EncodedDatasetBuilder {
    /// Per-column first-appearance interim codes (owned: batches are
    /// dropped after ingestion).
    interned: Vec<HashMap<Value, u32>>,
    /// Per-column interim code blocks, rewritten to final codes at `finish`.
    columns: Vec<Vec<u32>>,
    num_rows: usize,
}

impl EncodedDatasetBuilder {
    /// Start an empty builder over `num_columns` attributes.
    pub fn new(num_columns: usize) -> EncodedDatasetBuilder {
        EncodedDatasetBuilder {
            interned: (0..num_columns).map(|_| HashMap::new()).collect(),
            columns: (0..num_columns).map(|_| Vec::new()).collect(),
            num_rows: 0,
        }
    }

    /// Ingest the next batch of rows (must have the builder's column count).
    pub fn push_batch(&mut self, batch: &Dataset) {
        assert_eq!(
            batch.num_columns(),
            self.columns.len(),
            "pushed batch must have the builder's column count"
        );
        for column in &mut self.columns {
            column.reserve(batch.num_rows());
        }
        for row in batch.rows() {
            for (c, value) in row.iter().enumerate() {
                let code = if value.is_null() {
                    NULL_INTERIM
                } else {
                    let intern = &mut self.interned[c];
                    match intern.get(value) {
                        Some(&code) => code,
                        // Clone a value only the first time it appears.
                        None => {
                            let code = intern.len() as u32;
                            intern.insert(value.clone(), code);
                            code
                        }
                    }
                };
                self.columns[c].push(code);
            }
        }
        self.num_rows += batch.num_rows();
    }

    /// Rows ingested so far.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Approximate in-memory bytes held by the builder (code columns plus
    /// interned distinct values) — the streaming pipeline's peak-memory
    /// accounting for the encode pass.
    pub fn approx_bytes(&self) -> usize {
        const PER_VALUE: usize = 48;
        let codes = 4 * self.num_rows * self.columns.len();
        let dict_bytes: usize = self
            .interned
            .iter()
            .flat_map(|intern| intern.keys())
            .map(|v| {
                PER_VALUE
                    + match v {
                        Value::Text(s) => s.len(),
                        _ => 0,
                    }
            })
            .sum();
        codes + dict_bytes
    }

    /// Sort each column's distinct values, rewrite the interim codes, and
    /// return the final encoding (see the type docs for the equivalence
    /// guarantee).
    pub fn finish(self) -> EncodedDataset {
        let EncodedDatasetBuilder { interned, mut columns, num_rows } = self;
        let mut dicts = Vec::with_capacity(columns.len());
        for (c, intern) in interned.into_iter().enumerate() {
            let mut distinct: Vec<(Value, u32)> = intern.into_iter().collect();
            distinct.sort_by(|x, y| x.0.cmp(&y.0));
            let mut remap = vec![0u32; distinct.len()];
            for (code, &(_, interim)) in distinct.iter().enumerate() {
                remap[interim as usize] = code as u32;
            }
            let null_code = distinct.len() as u32;
            for code in &mut columns[c] {
                *code = if *code == NULL_INTERIM { null_code } else { remap[*code as usize] };
            }
            let values: Vec<Value> = distinct.into_iter().map(|(v, _)| v).collect();
            let index = values.iter().enumerate().map(|(i, v)| (v.clone(), i as u32)).collect();
            dicts.push(ColumnDict { values, index, sorted_codes: None, ranks: None, frozen_null: None });
        }
        EncodedDataset { dicts, columns, num_rows, fresh: num_rows == 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::dataset_from;
    use crate::domain::AttributeDomain;

    fn sample() -> Dataset {
        dataset_from(
            &["City", "Zip"],
            &[vec!["sylacauga", "35150"], vec!["centre", "35960"], vec!["", "35150"], vec!["sylacauga", ""]],
        )
    }

    #[test]
    fn codes_follow_sorted_domain_order() {
        let ds = sample();
        let encoded = EncodedDataset::from_dataset(&ds);
        let dict = encoded.dict(0);
        // Same order as AttributeDomain::values (the shared invariant).
        let domain = AttributeDomain::from_column(&ds, 0);
        assert_eq!(dict.values(), domain.values());
        assert_eq!(dict.encode(&Value::text("centre")), Some(0));
        assert_eq!(dict.encode(&Value::text("sylacauga")), Some(1));
    }

    #[test]
    fn roundtrip_matches_source_cells() {
        let ds = sample();
        let encoded = EncodedDataset::from_dataset(&ds);
        assert_eq!(encoded.num_rows(), ds.num_rows());
        assert_eq!(encoded.num_columns(), ds.num_columns());
        for (r, row) in ds.rows().enumerate() {
            for (c, value) in row.iter().enumerate() {
                assert_eq!(encoded.decode_cell(r, c), value, "cell ({r}, {c})");
            }
        }
    }

    #[test]
    fn null_has_its_own_code() {
        let ds = sample();
        let encoded = EncodedDataset::from_dataset(&ds);
        let dict = encoded.dict(0);
        assert_eq!(dict.encode(&Value::Null), Some(dict.null_code()));
        assert_eq!(encoded.code(2, 0), dict.null_code());
        assert_eq!(dict.decode(dict.null_code()), &Value::Null);
        assert!(!dict.is_value_code(dict.null_code()));
        assert!(dict.is_value_code(0));
    }

    #[test]
    fn unseen_values_are_lossy_encoded() {
        let ds = sample();
        let encoded = EncodedDataset::from_dataset(&ds);
        let dict = encoded.dict(0);
        assert_eq!(dict.encode(&Value::text("gadsden")), None);
        assert_eq!(dict.encode_lossy(&Value::text("gadsden")), dict.unseen_code());
        assert_eq!(dict.unseen_code(), dict.null_code() + 1);
        // Values inside the dictionary encode losslessly.
        let zip = encoded.dict(1);
        assert_eq!(zip.encode_lossy(&Value::parse("35150")), zip.encode(&Value::parse("35150")).unwrap());
    }

    #[test]
    fn row_gather_and_iteration() {
        let ds = sample();
        let encoded = EncodedDataset::from_dataset(&ds);
        assert_eq!(encoded.row_codes(1), vec![encoded.code(1, 0), encoded.code(1, 1)]);
        assert_eq!(encoded.rows().count(), 4);
        assert_eq!(encoded.rows().nth(1), Some(encoded.row_codes(1)));
    }

    #[test]
    fn empty_dataset_is_safe() {
        let ds = Dataset::new(crate::schema::Schema::from_names(&["a"]).unwrap());
        let encoded = EncodedDataset::from_dataset(&ds);
        assert_eq!(encoded.num_rows(), 0);
        assert_eq!(encoded.dict(0).cardinality(), 0);
        assert_eq!(encoded.dict(0).null_code(), 0);
        assert_eq!(encoded.rows().count(), 0);
        assert!(encoded.argsort_by_column(0).is_empty());
    }

    /// Appending a batch must keep every historical code (including nulls)
    /// decoding to the same value, give fresh tail codes to new values, and
    /// track the sorted order through the remap.
    #[test]
    fn append_batch_preserves_history_and_tracks_order() {
        let ds = sample();
        let mut encoded = EncodedDataset::from_dataset(&ds);
        let old_codes: Vec<Vec<u32>> = (0..2).map(|c| encoded.column(c).to_vec()).collect();
        let old_null = encoded.dict(0).null_code();
        let old_spaces: Vec<usize> = encoded.dicts().iter().map(|d| d.code_space()).collect();
        let batch = dataset_from(
            &["City", "Zip"],
            &[vec!["auburn", "35150"], vec!["", "36000"], vec!["sylacauga", ""]],
        );
        assert_eq!(encoded.append_batch(&batch), 4..7);
        for (c, &old) in old_spaces.iter().enumerate() {
            assert!(encoded.dict(c).code_space() > old, "column {c} grew");
        }
        // History untouched.
        for (c, old) in old_codes.iter().enumerate() {
            assert_eq!(&encoded.column(c)[..4], old.as_slice());
        }
        for (r, row) in ds.rows().enumerate() {
            for (c, value) in row.iter().enumerate() {
                assert_eq!(encoded.decode_cell(r, c), value);
            }
        }
        // New rows decode to the batch values.
        for (r, row) in batch.rows().enumerate() {
            for (c, value) in row.iter().enumerate() {
                assert_eq!(encoded.decode_cell(4 + r, c), value, "batch cell ({r}, {c})");
            }
        }
        let dict = encoded.dict(0);
        // Null code froze at the old position; cardinality counts real values.
        assert_eq!(dict.null_code(), old_null);
        assert_eq!(dict.cardinality(), 3);
        assert_eq!(dict.code_space(), 4);
        assert_eq!(dict.unseen_code(), 4);
        assert!(!dict.is_value_code(dict.null_code()));
        assert_eq!(dict.decode(dict.null_code()), &Value::Null);
        assert_eq!(dict.encode(&Value::Null), Some(old_null));
        // "auburn" got the tail code but ranks first in sorted order.
        let auburn = dict.encode(&Value::text("auburn")).unwrap();
        assert_eq!(auburn, 3);
        assert_eq!(dict.sort_rank(auburn), 0);
        let order = dict.code_order().unwrap();
        assert_eq!(order.len(), 3);
        let sorted: Vec<&Value> = order.iter().map(|&c| dict.decode(c)).collect();
        assert_eq!(sorted, vec![&Value::text("auburn"), &Value::text("centre"), &Value::text("sylacauga")]);
        for (rank, &code) in order.iter().enumerate() {
            assert_eq!(dict.sort_rank(code) as usize, rank);
        }
        // Appending values already in the dictionary changes nothing.
        let spaces: Vec<usize> = encoded.dicts().iter().map(|d| d.code_space()).collect();
        encoded.append_batch(&dataset_from(&["City", "Zip"], &[vec!["centre", "35960"]]));
        assert_eq!(encoded.dicts().iter().map(|d| d.code_space()).collect::<Vec<_>>(), spaces);
        assert_eq!(encoded.dict(0).cardinality(), 3);
    }

    /// Appending the whole dataset to an empty encoding must produce the
    /// exact fresh sorted layout `from_dataset` builds.
    #[test]
    fn append_to_empty_builds_sorted_layout() {
        let ds = sample();
        let mut streamed = EncodedDataset::from_dataset(&Dataset::new(
            crate::schema::Schema::from_names(&["City", "Zip"]).unwrap(),
        ));
        streamed.append_batch(&ds);
        let oneshot = EncodedDataset::from_dataset(&ds);
        for c in 0..2 {
            assert_eq!(streamed.column(c), oneshot.column(c));
            assert_eq!(streamed.dict(c).values(), oneshot.dict(c).values());
            assert!(streamed.dict(c).code_order().is_none());
            assert_eq!(streamed.dict(c).null_code(), oneshot.dict(c).null_code());
        }
    }

    /// The appended-layout argsort must still reproduce the `Value` argsort
    /// of the concatenated dataset.
    #[test]
    fn argsort_matches_after_appends() {
        let first = dataset_from(&["v"], &[vec!["m"], vec![""], vec!["x"]]);
        let mut encoded = EncodedDataset::from_dataset(&first);
        let mut combined = first.clone();
        for batch_rows in [vec!["a"], vec!["", "t", "m"], vec!["z", "b"]] {
            let rows: Vec<Vec<&str>> = batch_rows.iter().map(|v| vec![*v]).collect();
            let batch = dataset_from(&["v"], &rows);
            encoded.append_batch(&batch);
            for row in batch.rows() {
                combined.push_row(row.to_vec()).unwrap();
            }
            assert_eq!(encoded.argsort_by_column(0), combined.argsort_by_column(0).unwrap());
        }
    }

    /// `from_layout` must reproduce a dictionary exactly from its persistent
    /// state (values + frozen null position), for both layouts.
    #[test]
    fn from_layout_round_trips_both_layouts() {
        let ds = sample();
        let mut encoded = EncodedDataset::from_dataset(&ds);
        // Fresh layout first.
        let fresh = encoded.dict(0).clone();
        let rebuilt = ColumnDict::from_layout(fresh.values().to_vec(), fresh.frozen_null_code()).unwrap();
        assert_eq!(rebuilt.values(), fresh.values());
        assert_eq!(rebuilt.null_code(), fresh.null_code());
        assert_eq!(rebuilt.code_order(), fresh.code_order());
        // Appended layout (frozen null mid-table, remap active).
        encoded.append_batch(&dataset_from(&["City", "Zip"], &[vec!["auburn", "36000"]]));
        let appended = encoded.dict(0).clone();
        assert!(appended.frozen_null_code().is_some());
        let rebuilt =
            ColumnDict::from_layout(appended.values().to_vec(), appended.frozen_null_code()).unwrap();
        assert_eq!(rebuilt.values(), appended.values());
        assert_eq!(rebuilt.null_code(), appended.null_code());
        assert_eq!(rebuilt.code_order(), appended.code_order());
        for code in 0..appended.code_space() as u32 {
            assert_eq!(rebuilt.sort_rank(code), appended.sort_rank(code));
            assert_eq!(rebuilt.decode(code), appended.decode(code));
            assert_eq!(rebuilt.is_value_code(code), appended.is_value_code(code));
        }
        for value in appended.values() {
            assert_eq!(rebuilt.encode(value), appended.encode(value));
        }
    }

    #[test]
    fn from_layout_rejects_impossible_layouts() {
        // Fresh layout must be sorted.
        assert!(ColumnDict::from_layout(vec![Value::text("b"), Value::text("a")], None).is_err());
        // Duplicates are impossible.
        assert!(ColumnDict::from_layout(vec![Value::text("a"), Value::text("a")], None).is_err());
        // Nulls only at the frozen slot.
        assert!(ColumnDict::from_layout(vec![Value::Null, Value::text("a")], None).is_err());
        assert!(ColumnDict::from_layout(vec![Value::text("a"), Value::Null], Some(0)).is_err());
        // Frozen position must be in range and hold the placeholder.
        assert!(ColumnDict::from_layout(vec![Value::text("a")], Some(5)).is_err());
        assert!(ColumnDict::from_layout(vec![Value::text("a")], Some(0)).is_err());
        // A valid appended layout passes.
        let ok = ColumnDict::from_layout(vec![Value::text("a"), Value::Null, Value::text("0a")], Some(1));
        assert!(ok.is_ok());
    }

    /// An encoding that continues rows held elsewhere ([`EncodedDataset::with_dicts`])
    /// must grow its dictionaries exactly like an encoding that kept those
    /// rows, and hold only the batch's codes, at rows `0..batch`.
    #[test]
    fn with_dicts_appends_like_live_history() {
        let ds = sample();
        let mut live = EncodedDataset::from_dataset(&ds);
        let mut restored = EncodedDataset::with_dicts(live.dicts().to_vec(), live.num_rows());
        assert_eq!(restored.num_rows(), 0);
        let batch = dataset_from(&["City", "Zip"], &[vec!["auburn", "35150"], vec!["", "36000"]]);
        let live_rows = live.append_batch(&batch);
        let restored_rows = restored.append_batch(&batch);
        assert_eq!(live_rows, 4..6);
        assert_eq!(restored_rows, 0..2);
        for c in 0..2 {
            assert_eq!(live.dict(c).values(), restored.dict(c).values());
            assert_eq!(live.dict(c).frozen_null_code(), restored.dict(c).frozen_null_code());
            assert_eq!(live.dict(c).code_space(), restored.dict(c).code_space());
            assert_eq!(&live.column(c)[live_rows.clone()], restored.column(c));
        }
    }

    /// A zero-row encoding over non-empty dictionaries keeps their codes on
    /// append instead of laying the dictionaries out afresh from the batch.
    /// History summarised elsewhere may be all null, with every dictionary
    /// still empty: those null codes must keep their meaning too.
    #[test]
    fn append_to_zero_rows_keeps_handed_out_codes() {
        let ds = sample();
        let full = EncodedDataset::from_dataset(&ds);
        let mut empty = full.gather(&[]);
        let batch = dataset_from(&["City", "Zip"], &[vec!["sylacauga", "35960"], vec!["auburn", ""]]);
        assert_eq!(empty.append_batch(&batch), 0..2);
        for c in 0..2 {
            assert_eq!(&empty.dict(c).values()[..full.dict(c).values().len()], full.dict(c).values());
            assert_eq!(empty.dict(c).null_code(), full.dict(c).null_code(), "column {c} null code moved");
        }
        assert_eq!(empty.column(0)[0], full.dict(0).encode(&Value::text("sylacauga")).unwrap());

        let all_null = EncodedDataset::from_dataset(&dataset_from(&["City"], &[vec![""], vec![""]]));
        assert_eq!(all_null.dict(0).cardinality(), 0);
        let mut continued = EncodedDataset::with_dicts(all_null.dicts().to_vec(), all_null.num_rows());
        continued.append_batch(&dataset_from(&["City"], &[vec!["centre"], vec![""]]));
        assert_eq!(continued.dict(0).null_code(), all_null.dict(0).null_code());
        assert_eq!(continued.column(0), &[1, 0]);
    }

    /// A gathered subset shares dictionaries with its source, so codes keep
    /// their meaning and decode to the source rows' values.
    #[test]
    fn gather_shares_dictionaries_and_preserves_codes() {
        let ds = sample();
        let encoded = EncodedDataset::from_dataset(&ds);
        let subset = encoded.gather(&[3, 0, 3]);
        assert_eq!(subset.num_rows(), 3);
        assert_eq!(subset.num_columns(), 2);
        for c in 0..2 {
            assert_eq!(subset.dict(c).values(), encoded.dict(c).values());
            assert_eq!(subset.column(c), &[encoded.code(3, c), encoded.code(0, c), encoded.code(3, c)]);
        }
        assert_eq!(subset.decode_cell(0, 0), encoded.decode_cell(3, 0));
        assert!(encoded.gather(&[]).rows().next().is_none());
    }

    /// The streaming builder must reproduce `from_dataset` bit-for-bit for
    /// any batch boundaries — the foundation of the out-of-core encode pass.
    #[test]
    fn builder_matches_from_dataset_for_any_batching() {
        let ds = dataset_from(
            &["City", "Zip"],
            &[
                vec!["sylacauga", "35150"],
                vec!["centre", "35960"],
                vec!["", "35150"],
                vec!["sylacauga", ""],
                vec!["auburn", "36830"],
                vec!["centre", "35960"],
                vec!["zeta", ""],
            ],
        );
        let oneshot = EncodedDataset::from_dataset(&ds);
        for batch_size in [1, 2, 3, ds.num_rows(), ds.num_rows() + 5] {
            let mut builder = EncodedDatasetBuilder::new(ds.num_columns());
            let mut r = 0;
            while r < ds.num_rows() {
                let end = (r + batch_size).min(ds.num_rows());
                let mut batch = Dataset::new(ds.schema().clone());
                for i in r..end {
                    batch.push_row(ds.row(i).unwrap().to_vec()).unwrap();
                }
                builder.push_batch(&batch);
                r = end;
            }
            assert_eq!(builder.num_rows(), ds.num_rows());
            assert!(builder.approx_bytes() > 0);
            let streamed = builder.finish();
            assert_eq!(streamed.num_rows(), oneshot.num_rows());
            for c in 0..ds.num_columns() {
                assert_eq!(streamed.column(c), oneshot.column(c), "batch size {batch_size}, col {c}");
                assert_eq!(streamed.dict(c).values(), oneshot.dict(c).values());
                assert!(streamed.dict(c).code_order().is_none(), "builder yields fresh layouts");
                assert_eq!(streamed.dict(c).null_code(), oneshot.dict(c).null_code());
            }
        }
        // An empty builder finishes to an empty encoding.
        let empty = EncodedDatasetBuilder::new(2).finish();
        assert_eq!(empty.num_rows(), 0);
        assert_eq!(empty.dict(0).cardinality(), 0);
    }

    /// The counting-sort argsort must reproduce `Dataset::argsort_by_column`
    /// exactly: same value order (nulls first) and same stable tie-breaking.
    #[test]
    fn argsort_matches_dataset_argsort() {
        let ds = dataset_from(
            &["v"],
            &[
                vec!["b"],
                vec![""],
                vec!["a"],
                vec!["b"], // duplicate: stability puts row 0 before row 3
                vec![""],
                vec!["c"],
            ],
        );
        let encoded = EncodedDataset::from_dataset(&ds);
        assert_eq!(encoded.argsort_by_column(0), ds.argsort_by_column(0).unwrap());
        assert_eq!(encoded.argsort_by_column(0), vec![1, 4, 2, 0, 3, 5]);
        let mixed = sample();
        let encoded = EncodedDataset::from_dataset(&mixed);
        for col in 0..mixed.num_columns() {
            assert_eq!(encoded.argsort_by_column(col), mixed.argsort_by_column(col).unwrap());
        }
    }
}
