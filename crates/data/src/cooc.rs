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
/// code is `b` (null codes included).
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
    store: Store,
}

impl PairCounts {
    /// Count the co-occurrences of columns `col_a` and `col_b` of `encoded`
    /// in one pass, in a table sized for the columns' dictionaries.
    pub fn from_encoded(encoded: &EncodedDataset, col_a: usize, col_b: usize) -> PairCounts {
        let space_a = encoded.dict(col_a).code_space();
        let space_b = encoded.dict(col_b).code_space();
        let pairs = encoded.column(col_a).iter().zip(encoded.column(col_b));
        let store = if (space_a as u128) * (space_b as u128) <= DENSE_CELL_CAP {
            let mut cells = vec![0u32; space_a * space_b];
            for (&a, &b) in pairs {
                cells[a as usize * space_b + b as usize] += 1;
            }
            Store::Dense(cells)
        } else {
            let mut map = HashMap::new();
            for (&a, &b) in pairs {
                *map.entry((a, b)).or_insert(0) += 1;
            }
            Store::Map(map)
        };
        PairCounts {
            space_a,
            space_b,
            null_a: encoded.dict(col_a).null_code(),
            null_b: encoded.dict(col_b).null_code(),
            store,
        }
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

    /// A table counted over an appended encoding (dictionary growth between
    /// batches, null code frozen mid-space) must yield the same statistics
    /// as a one-shot count of the concatenation.
    #[test]
    fn absorbed_batches_match_one_shot_counts() {
        let first =
            dataset_from(&["Zip", "State"], &[vec!["35150", "CA"], vec!["35150", "CA"], vec!["", "KT"]]);
        let batch = dataset_from(
            &["Zip", "State"],
            &[vec!["35960", "KT"], vec!["35150", "KT"], vec!["36000", ""], vec!["35960", "KT"]],
        );
        let mut encoded = EncodedDataset::from_dataset(&first);
        encoded.append_batch(&batch);
        let appended = PairCounts::from_encoded(&encoded, 0, 1);
        let (space_a, space_b) = (encoded.dict(0).code_space() as u32, encoded.dict(1).code_space() as u32);
        let counted: u32 = (0..space_a)
            .flat_map(|a| (0..space_b).map(move |b| (a, b)))
            .map(|(a, b)| appended.count(a, b))
            .sum();
        assert_eq!(counted, 7);
        let mut combined = first.clone();
        for row in batch.rows() {
            combined.push_row(row.to_vec()).unwrap();
        }
        // The one-shot table uses sorted dictionaries, the other one the
        // appended layout: compare through values, not raw codes.
        let oneshot_encoded = EncodedDataset::from_dataset(&combined);
        let oneshot = PairCounts::from_encoded(&oneshot_encoded, 0, 1);
        assert_eq!(appended.fd_confidence().to_bits(), oneshot.fd_confidence().to_bits());
        assert_eq!(appended.fd_confidence().to_bits(), value_space_fd_confidence(&combined, 0, 1).to_bits());
        for probe_a in ["35150", "35960", "36000"] {
            for probe_b in ["CA", "KT"] {
                let (a, b) = (Value::parse(probe_a), Value::parse(probe_b));
                let s =
                    appended.count(encoded.dict(0).encode(&a).unwrap(), encoded.dict(1).encode(&b).unwrap());
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
