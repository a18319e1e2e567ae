//! Code-space co-occurrence statistics over [`EncodedDataset`] columns.
//!
//! Model fitting asks "how well does one column determine another?" while
//! pruning structure-learning edges, and "how concentrated is a column?"
//! for the baseline it compares against. Answering those questions by
//! grouping `Value`s in hash maps puts string hashing on the fit path;
//! [`fd_confidence`] and [`mode_share`] answer them from the code columns
//! in linear passes, with scratch space the size of the code spaces.
//!
//! Null codes are ordinary observations in the code columns, but both
//! statistics restrict themselves to *value* codes exactly like their
//! `Value`-space counterparts, so the computed ratios are bit-identical to
//! the hash-map implementations they replace.

use crate::encoded::EncodedDataset;

/// Softened-FD confidence of `from → to`: the average (over both-non-null
/// rows in `from`-value groups of size ≥ 2) probability of the group's
/// majority `to` value. Bit-identical to grouping the `Value` rows in hash
/// maps — both reduce to the same integer ratio.
///
/// The both-non-null rows are counting-sorted by their `from` code; each
/// group's `to` codes are then tallied in one scratch vector the size of
/// the `to` code space, which walking the group again resets. Null codes
/// are skipped by code, so the statistic is the same whether the null code
/// trails the values (fresh dictionaries) or is frozen mid-space (appended
/// ones).
pub fn fd_confidence(encoded: &EncodedDataset, from: usize, to: usize) -> f64 {
    let (from_null, to_null) = (encoded.dict(from).null_code(), encoded.dict(to).null_code());
    let rows = || {
        encoded.column(from).iter().zip(encoded.column(to)).filter(|&(&a, &b)| a != from_null && b != to_null)
    };
    let space = encoded.dict(from).code_space();
    let mut starts = vec![0usize; space + 1];
    for (&a, _) in rows() {
        starts[a as usize + 1] += 1;
    }
    for a in 1..=space {
        starts[a] += starts[a - 1];
    }
    let mut next = starts.clone();
    let mut grouped = vec![0u32; starts[space]];
    for (&a, &b) in rows() {
        grouped[next[a as usize]] = b;
        next[a as usize] += 1;
    }
    let mut tally = vec![0u32; encoded.dict(to).code_space()];
    let (mut consistent, mut total) = (0u64, 0u64);
    for group in starts.windows(2) {
        let group = &grouped[group[0]..group[1]];
        if group.len() < 2 {
            continue;
        }
        let mut majority = 0;
        for &b in group {
            tally[b as usize] += 1;
            majority = majority.max(tally[b as usize]);
        }
        for &b in group {
            tally[b as usize] = 0;
        }
        consistent += majority as u64;
        total += group.len() as u64;
    }
    if total == 0 {
        0.0
    } else {
        consistent as f64 / total as f64
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
    use std::collections::HashMap;

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
    fn fd_confidence_matches_value_space_grouping() {
        let ds = fd_dataset();
        let encoded = EncodedDataset::from_dataset(&ds);
        for (a, b) in [(0usize, 1usize), (1, 0)] {
            assert_eq!(
                fd_confidence(&encoded, a, b).to_bits(),
                value_space_fd_confidence(&ds, a, b).to_bits(),
                "pair ({a}, {b})"
            );
        }
    }

    #[test]
    fn sparse_layout_matches_dense_statistics() {
        // 1500 × 750 distinct values: 3000 rows over a pair space of 1.1M
        // cells, which `fd_confidence` covers with scratch the size of each
        // code space, never of their product. Every y-value is shared by
        // exactly two x-values, so x determines y perfectly and y determines
        // x at 50%.
        let rows: Vec<Vec<String>> =
            (0..3000).map(|i| vec![format!("a{:04}", i / 2), format!("b{:04}", i / 4)]).collect();
        let refs: Vec<Vec<&str>> = rows.iter().map(|r| r.iter().map(|s| s.as_str()).collect()).collect();
        let ds = dataset_from(&["x", "y"], &refs);
        let encoded = EncodedDataset::from_dataset(&ds);
        let (forward, backward) = (fd_confidence(&encoded, 0, 1), fd_confidence(&encoded, 1, 0));
        assert_eq!(forward.to_bits(), value_space_fd_confidence(&ds, 0, 1).to_bits());
        assert_eq!(backward.to_bits(), value_space_fd_confidence(&ds, 1, 0).to_bits());
        assert!((forward - 1.0).abs() < 1e-12);
        assert!((backward - 0.5).abs() < 1e-12);
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

    /// Statistics over an appended encoding (dictionary growth between
    /// batches, null code frozen mid-space) must equal those of a one-shot
    /// encoding of the concatenation.
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
        assert!(encoded.dict(0).frozen_null_code().is_some());
        let mut combined = first.clone();
        for row in batch.rows() {
            combined.push_row(row.to_vec()).unwrap();
        }
        // The one-shot encoding uses sorted dictionaries, the other one the
        // appended layout: compare through values, not raw codes.
        let oneshot_encoded = EncodedDataset::from_dataset(&combined);
        for (a, b) in [(0usize, 1usize), (1, 0)] {
            let appended = fd_confidence(&encoded, a, b);
            assert_eq!(appended.to_bits(), fd_confidence(&oneshot_encoded, a, b).to_bits());
            assert_eq!(appended.to_bits(), value_space_fd_confidence(&combined, a, b).to_bits());
        }
        for probe in ["35150", "35960", "36000", ""] {
            let value = Value::parse(probe);
            let s = column_code_counts(&encoded, 0)[encoded.dict(0).encode(&value).unwrap() as usize];
            let o = column_code_counts(&oneshot_encoded, 0)
                [oneshot_encoded.dict(0).encode(&value).unwrap() as usize];
            assert_eq!(s, o, "Zip {probe:?}");
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
        assert_eq!(fd_confidence(&encoded, 0, 1), 0.0);
        assert_eq!(mode_share(&encoded, 0), 0.0);
        let nulls = dataset_from(&["a"], &[vec![""], vec![""]]);
        let encoded = EncodedDataset::from_dataset(&nulls);
        assert_eq!(mode_share(&encoded, 0), 0.0);
        assert_eq!(column_code_counts(&encoded, 0), vec![2]);
    }
}
