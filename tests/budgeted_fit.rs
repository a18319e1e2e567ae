//! Guards for the sketch-based budgeted fit path (`FitBudget`).
//!
//! Three contracts:
//!
//! 1. **Exact is exact.** The default `FitBudget::Exact` must produce
//!    artifact bytes that are bit-identical at every thread count, for
//!    every paper variant — the budgeted machinery must be invisible unless
//!    asked for.
//! 2. **Budgeted is deterministic.** A budgeted fit is seeded end to end:
//!    same data + same budget ⇒ identical artifact bytes, again at every
//!    thread count, and the artifact round-trips through the `.bclean`
//!    container, the budget itself included. The budget only changes the
//!    structure search: the compensatory tallies live in the same one
//!    co-occurrence index per column pair as an exact fit's.
//! 3. **Budgeted is close.** At generous budgets the budgeted model's
//!    repairs agree with the exact model's (Jaccard ≥ 0.95 over
//!    `(cell, target)` pairs), across the datagen benchmark families.

use bclean::eval::{bclean_constraints, repair_agreement};
use bclean::prelude::*;
use proptest::prelude::*;

const SEED: u64 = 20240817;

fn hospital() -> DirtyDataset {
    // Large enough that cols x rows crosses the fit executor's serial
    // fallback threshold (2^16 cells), so the parallel fit stages genuinely
    // run.
    let bench = BenchmarkDataset::Hospital.build_sized(4400, SEED);
    assert!(bench.dirty.num_cells() >= 1 << 16, "the fixture must reach the parallel fit");
    bench
}

/// A budget small enough to genuinely approximate on the Hospital fixture:
/// sampled structure rows and single-digit heavy-hitter bucket maps.
fn tight_budget() -> BudgetParams {
    BudgetParams { sample_rows: 500, sketch_k: 64, heavy_hitters: 8, seed: 7 }
}

#[test]
fn exact_fit_bytes_are_invariant_across_threads() {
    let bench = hospital();
    let constraints = bclean_constraints(BenchmarkDataset::Hospital);
    for variant in Variant::all() {
        let baseline = BClean::new(variant.config().with_threads(1))
            .with_constraints(constraints.clone())
            .fit_artifact(&bench.dirty);
        let baseline_bytes = baseline.to_bytes().unwrap();
        let baseline_repairs = baseline.compile().clean(&bench.dirty).repairs;
        for threads in [2usize, 8] {
            let mut artifact = BClean::new(variant.config().with_threads(threads))
                .with_constraints(constraints.clone())
                .fit_artifact(&bench.dirty);
            // The config section legitimately records the thread knob; the
            // *model* sections must not move. Normalise the knob and
            // byte-compare everything.
            artifact.set_threads(1);
            assert_eq!(
                artifact.to_bytes().unwrap(),
                baseline_bytes,
                "exact fit drifted: variant {variant:?} threads {threads}"
            );
            assert_eq!(artifact.compile().clean(&bench.dirty).repairs, baseline_repairs);
        }
    }
}

#[test]
fn budgeted_fit_is_deterministic_and_thread_invariant() {
    let bench = hospital();
    let constraints = bclean_constraints(BenchmarkDataset::Hospital);
    let budget = FitBudget::Budgeted(tight_budget());
    let baseline =
        BClean::new(Variant::PartitionedInference.config().with_threads(1).with_fit_budget(budget))
            .with_constraints(constraints.clone())
            .fit_artifact(&bench.dirty);
    let baseline_bytes = baseline.to_bytes().unwrap();

    // Re-fitting with the same seed reproduces the bytes exactly.
    let again = BClean::new(Variant::PartitionedInference.config().with_threads(1).with_fit_budget(budget))
        .with_constraints(constraints.clone())
        .fit_artifact(&bench.dirty);
    assert_eq!(again.to_bytes().unwrap(), baseline_bytes);

    for threads in [2usize, 8] {
        let mut artifact =
            BClean::new(Variant::PartitionedInference.config().with_threads(threads).with_fit_budget(budget))
                .with_constraints(constraints.clone())
                .fit_artifact(&bench.dirty);
        artifact.set_threads(1);
        assert_eq!(artifact.to_bytes().unwrap(), baseline_bytes, "budgeted fit drifted: threads {threads}");
    }

    // A different seed is a different (but equally deterministic) model.
    let reseeded = FitBudget::Budgeted(BudgetParams { seed: 8, ..tight_budget() });
    let other = BClean::new(Variant::PartitionedInference.config().with_threads(1).with_fit_budget(reseeded))
        .with_constraints(constraints)
        .fit_artifact(&bench.dirty);
    let other_bytes = other.to_bytes().unwrap();
    assert_eq!(
        other_bytes,
        BClean::new(Variant::PartitionedInference.config().with_threads(1).with_fit_budget(reseeded))
            .with_constraints(bclean_constraints(BenchmarkDataset::Hospital))
            .fit_artifact(&bench.dirty)
            .to_bytes()
            .unwrap()
    );
}

#[test]
fn budgeted_artifact_round_trips_and_absorbs() {
    let bench = hospital();
    let constraints = bclean_constraints(BenchmarkDataset::Hospital);
    let budget = FitBudget::Budgeted(tight_budget());
    let artifact = BClean::new(Variant::PartitionedInference.config().with_fit_budget(budget))
        .with_constraints(constraints.clone())
        .fit_artifact(&bench.dirty);
    let exact = BClean::new(Variant::PartitionedInference.config())
        .with_constraints(constraints)
        .fit_artifact(&bench.dirty);
    // The tight budget must actually approximate — otherwise this test
    // would pass without ever reaching the sampled structure search.
    assert_ne!(artifact.to_bytes().unwrap(), exact.to_bytes().unwrap());

    let bytes = artifact.to_bytes().unwrap();
    let loaded = ModelArtifact::from_bytes(&bytes).unwrap();
    assert_eq!(loaded.to_bytes().unwrap(), bytes, "save/load/save must be byte-stable");
    assert_eq!(loaded.config().fit_budget, budget, "the budget itself persists");
    let original = artifact.compile().clean(&bench.dirty);
    let restored = loaded.compile().clean(&bench.dirty);
    assert_eq!(restored.repairs, original.repairs);

    // Ingesting new rows (which appends fresh dictionary codes) must agree
    // between the live artifact and the reloaded one.
    let batch = BenchmarkDataset::Hospital.build_sized(200, SEED + 1).dirty;
    let mut live = artifact;
    let mut reloaded = loaded;
    live.ingest_batch(&batch).unwrap();
    reloaded.ingest_batch(&batch).unwrap();
    assert_eq!(live.to_bytes().unwrap(), reloaded.to_bytes().unwrap());
}

fn benchmark_strategy() -> impl Strategy<Value = (BenchmarkDataset, usize, u64)> {
    (0usize..BenchmarkDataset::all().len(), 120usize..300, 0u64..1_000_000)
        .prop_map(|(idx, rows, seed)| (BenchmarkDataset::all()[idx], rows, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Across the datagen families: a budgeted fit at generous budgets is
    /// deterministic per seed and repairs (almost) the same cells as the
    /// exact fit.
    #[test]
    fn generous_budgets_agree_with_exact((dataset, rows, seed) in benchmark_strategy()) {
        let bench = dataset.build_sized(rows, seed);
        let constraints = bclean_constraints(dataset);
        // Generous: the sample covers every row and the heavy-hitter bucket
        // maps cover every realistic clean pool, so only the bucketed
        // structure statistics approximate.
        let budget = FitBudget::Budgeted(BudgetParams {
            sample_rows: 10_000,
            sketch_k: 256,
            heavy_hitters: 256,
            seed: seed ^ 0xDECAF,
        });
        let exact = BClean::new(Variant::PartitionedInference.config())
            .with_constraints(constraints.clone())
            .fit(&bench.dirty)
            .clean(&bench.dirty);
        let cleaner = BClean::new(Variant::PartitionedInference.config().with_fit_budget(budget))
            .with_constraints(constraints);
        let budgeted = cleaner.fit_artifact(&bench.dirty);
        prop_assert_eq!(
            budgeted.to_bytes().unwrap(),
            cleaner.fit_artifact(&bench.dirty).to_bytes().unwrap(),
            "budgeted fit must be deterministic per seed"
        );
        let result = budgeted.compile().clean(&bench.dirty);
        let agreement = repair_agreement(&exact.repairs, &result.repairs);
        prop_assert!(
            agreement >= 0.95,
            "repair agreement {:.3} below 0.95 on {:?} ({} rows, seed {})",
            agreement, dataset, rows, seed
        );
    }
}
