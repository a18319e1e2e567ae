//! Property tests for the dictionary-encoding layer over datagen-generated
//! benchmarks: for every generated dataset, `Value → code → Value`
//! round-trips exactly and `EncodedDataset` row iteration matches
//! `Dataset::rows()` cell-for-cell, with the dictionary order equal to the
//! shared sorted-domain order.

use bclean::data::{AttributeDomain, EncodedDataset};
use bclean::prelude::*;
use proptest::prelude::*;

fn benchmark_strategy() -> impl Strategy<Value = (BenchmarkDataset, usize, u64)> {
    (0usize..BenchmarkDataset::all().len(), 20usize..120, 0u64..1_000_000)
        .prop_map(|(idx, rows, seed)| (BenchmarkDataset::all()[idx], rows, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every cell of a generated dirty dataset encodes to a code that decodes
    /// back to the exact same value, and `EncodedDataset::rows()` reproduces
    /// `Dataset::rows()` cell-for-cell.
    #[test]
    fn value_code_roundtrip_over_generated_benchmarks((dataset, rows, seed) in benchmark_strategy()) {
        let bench = dataset.build_sized(rows, seed);
        for table in [&bench.dirty, &bench.clean] {
            let encoded = EncodedDataset::from_dataset(table);
            prop_assert_eq!(encoded.num_rows(), table.num_rows());
            prop_assert_eq!(encoded.num_columns(), table.num_columns());
            for (r, (codes, row)) in encoded.rows().zip(table.rows()).enumerate() {
                for (c, value) in row.iter().enumerate() {
                    // Value → code is total over the fitting dataset…
                    let code = encoded.dict(c).encode(value);
                    prop_assert_eq!(code, Some(codes[c]), "encode mismatch at ({}, {})", r, c);
                    // …and code → Value is the exact inverse.
                    prop_assert_eq!(encoded.dict(c).decode(codes[c]), value, "decode mismatch at ({}, {})", r, c);
                    prop_assert_eq!(encoded.decode_cell(r, c), value);
                }
            }
        }
    }

    /// The dictionary's code order is the sorted-domain order shared with
    /// `AttributeDomain`, and null/unseen sentinels sit directly above the
    /// value codes.
    #[test]
    fn dict_order_matches_attribute_domains((dataset, rows, seed) in benchmark_strategy()) {
        let bench = dataset.build_sized(rows, seed);
        let encoded = EncodedDataset::from_dataset(&bench.dirty);
        for col in 0..bench.dirty.num_columns() {
            let dict = encoded.dict(col);
            let domain = AttributeDomain::from_column(&bench.dirty, col);
            prop_assert_eq!(dict.values(), domain.values(), "column {}", col);
            prop_assert_eq!(dict.cardinality() as u32, dict.null_code());
            prop_assert_eq!(dict.null_code() + 1, dict.unseen_code());
            for code in 0..dict.cardinality() as u32 {
                prop_assert_eq!(dict.encode(&dict.values()[code as usize]), Some(code));
            }
        }
    }
}
