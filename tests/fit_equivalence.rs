//! Equivalence guard for the code-space fit pipeline: on the Hospital
//! fixture, `BClean::fit` — encoded structure learning, direct-to-compiled
//! CPT counting, parallel compensatory build — must produce the same model
//! as the retained pre-refactor construction (`BClean::fit_reference`):
//! identical learned structures, bit-identical CPTs (the compiled tables
//! against the reference network's probability API), identical domains and
//! FD-confidence matrices, and byte-identical downstream repairs, for every
//! paper variant and for 1, 2 and 8 worker threads. A property test repeats
//! the repair-level check across every datagen benchmark family.

use bclean::data::AttributeDomain;
use bclean::eval::bclean_constraints;
use bclean::prelude::*;
use proptest::prelude::*;

const ROWS: usize = 160;
const SEED: u64 = 20240817;

#[test]
fn fit_matches_fit_reference_for_every_variant_and_thread_count() {
    let bench = BenchmarkDataset::Hospital.build_sized(ROWS, SEED);
    let constraints = bclean_constraints(BenchmarkDataset::Hospital);
    let mut total_repairs = 0usize;
    for variant in Variant::all() {
        // The reference fit fixes the oracle; fitting is deterministic and
        // thread-independent, so each thread count refits the same model.
        let reference = BClean::new(variant.config().with_threads(1))
            .with_constraints(constraints.clone())
            .fit_reference(&bench.dirty);
        let reference_result = reference.model().clean(&bench.dirty);
        total_repairs += reference_result.repairs.len();
        // The `Value`-keyed scoring engine agrees with the compiled one.
        let reference_engine = reference.clean_reference(&bench.dirty);
        assert_eq!(reference_engine.repairs, reference_result.repairs);
        assert_eq!(reference_engine.cleaned, reference_result.cleaned);
        for threads in [1usize, 2, 8] {
            let model = BClean::new(variant.config().with_threads(threads))
                .with_constraints(constraints.clone())
                .fit(&bench.dirty);

            // Identical structures.
            assert_eq!(
                model.dag().edges(),
                reference.network().dag().edges(),
                "learned structure diverged: variant {variant:?} threads {threads}"
            );
            assert_eq!(model.attribute_names(), reference.network().attribute_names());

            // Identical domains (derived PartialEq covers values + counts).
            let m = bench.dirty.num_columns();
            for col in 0..m {
                assert_eq!(
                    model.domains().attribute(col),
                    &AttributeDomain::from_column(&bench.dirty, col),
                    "domain diverged: column {col}"
                );
            }

            // Bit-identical CPTs: every candidate value of every column
            // against every observed tuple's parent context (plus null),
            // read from the compiled tables of the code-space fit and from
            // the reference network's probability API (floored and logged,
            // as the compiled tables store them).
            let dicts = model.dicts();
            for (r, row) in bench.dirty.rows().enumerate() {
                let codes: Vec<u32> = row.iter().zip(dicts).map(|(v, d)| d.encode(v).unwrap()).collect();
                for (col, dict) in dicts.iter().enumerate() {
                    let mut probes: Vec<Value> = model.domains().attribute(col).values().to_vec();
                    probes.push(Value::Null);
                    for value in &probes {
                        let a = model.compiled().node(col).log_prob_row(&codes, dict.encode(value).unwrap());
                        let b = reference.network().cpt(col).prob_given_row(value, row).max(1e-300).ln();
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "CPT diverged: variant {variant:?} row {r} col {col} value {value} ({a} vs {b})"
                        );
                    }
                }
            }

            // Downstream inference must be byte-identical: same repairs,
            // same cleaned dataset, same counters.
            let run = model.clean(&bench.dirty);
            assert_eq!(
                run.repairs, reference_result.repairs,
                "repairs diverged: variant {variant:?} threads {threads}"
            );
            assert_eq!(run.cleaned, reference_result.cleaned);
            assert_eq!(run.stats.cells_examined, reference_result.stats.cells_examined);
            assert_eq!(run.stats.cells_skipped, reference_result.stats.cells_skipped);
            assert_eq!(run.stats.candidates_evaluated, reference_result.stats.candidates_evaluated);
        }
    }
    assert!(total_repairs > 0, "the fixture must exercise actual repairs");
}

fn benchmark_strategy() -> impl Strategy<Value = (BenchmarkDataset, usize, u64)> {
    (0usize..BenchmarkDataset::all().len(), 30usize..100, 0u64..1_000_000)
        .prop_map(|(idx, rows, seed)| (BenchmarkDataset::all()[idx], rows, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Across every datagen benchmark family, random sizes and seeds, the
    /// code-space fit and the reference fit must agree on the learned
    /// structure and produce byte-identical repairs.
    #[test]
    fn fit_paths_agree_over_generated_benchmarks((dataset, rows, seed) in benchmark_strategy()) {
        let bench = dataset.build_sized(rows, seed);
        let constraints = bclean_constraints(dataset);
        let cleaner = BClean::new(Variant::PartitionedInference.config().with_threads(2))
            .with_constraints(constraints);
        let fast = cleaner.fit(&bench.dirty);
        let reference = cleaner.fit_reference(&bench.dirty);
        prop_assert_eq!(fast.dag().edges(), reference.network().dag().edges());
        let fast_result = fast.clean(&bench.dirty);
        let reference_result = reference.model().clean(&bench.dirty);
        prop_assert_eq!(&fast_result.repairs, &reference_result.repairs);
        prop_assert_eq!(&fast_result.cleaned, &reference_result.cleaned);
    }
}
