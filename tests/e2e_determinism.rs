//! Deterministic end-to-end guard for the whole pipeline: generate a seeded
//! Hospital benchmark, fit, clean, and check that (a) cleaning strictly
//! improves F1 over leaving the dirty data untouched, (b) the run is
//! reproducible from the seed, and (c) the result is byte-identical for
//! every thread count (the shared parallel executor's core promise), the
//! fitted artifact's bytes included.

use bclean::baselines::{Cleaner, NoOpCleaner};
use bclean::eval::{bclean_constraints, evaluate};
use bclean::prelude::*;

const ROWS: usize = 240;
const SEED: u64 = 20240817;

fn hospital() -> DirtyDataset {
    BenchmarkDataset::Hospital.build_sized(ROWS, SEED)
}

fn large_hospital() -> DirtyDataset {
    // Large enough that cols x rows crosses the fit executor's serial
    // fallback threshold (2^16 cells), so the parallel fit stages genuinely
    // run.
    let bench = BenchmarkDataset::Hospital.build_sized(4400, SEED);
    assert!(bench.dirty.num_cells() >= 1 << 16, "the fixture must reach the parallel fit");
    bench
}

fn clean_with_threads(bench: &DirtyDataset, threads: usize) -> CleaningResult {
    let model = BClean::new(Variant::PartitionedInference.config().with_threads(threads))
        .with_constraints(bclean_constraints(BenchmarkDataset::Hospital))
        .fit(&bench.dirty);
    model.clean(&bench.dirty)
}

#[test]
fn cleaning_strictly_improves_f1_over_dirty_baseline() {
    let bench = hospital();
    assert!(bench.num_errors() > 0, "the generator must inject errors");

    let result = clean_with_threads(&bench, 0);
    let cleaned_metrics = evaluate(&bench.dirty, &result.cleaned, &bench.clean).unwrap();
    let dirty_metrics = evaluate(&bench.dirty, &NoOpCleaner.clean(&bench.dirty), &bench.clean).unwrap();

    assert!(
        cleaned_metrics.f1 > dirty_metrics.f1,
        "cleaning must strictly improve F1: cleaned {:.3} vs dirty {:.3}",
        cleaned_metrics.f1,
        dirty_metrics.f1
    );
    assert!(cleaned_metrics.f1 > 0.5, "end-to-end F1 collapsed: {:?}", cleaned_metrics);
    assert!(!result.repairs.is_empty());
}

#[test]
fn same_seed_reproduces_the_same_run() {
    let first = hospital();
    let second = hospital();
    assert_eq!(first.dirty, second.dirty, "benchmark generation must be seed-deterministic");
    assert_eq!(first.clean, second.clean);

    let run_a = clean_with_threads(&first, 2);
    let run_b = clean_with_threads(&second, 2);
    assert_eq!(run_a.cleaned, run_b.cleaned);
    assert_eq!(run_a.repairs, run_b.repairs);
}

#[test]
fn every_thread_count_produces_identical_results() {
    let bench = hospital();
    let reference = clean_with_threads(&bench, 1);
    for threads in [2, 3, 8, ROWS + 7] {
        let run = clean_with_threads(&bench, threads);
        assert_eq!(run.cleaned, reference.cleaned, "threads={threads} diverged");
        assert_eq!(run.repairs, reference.repairs, "threads={threads} repair list diverged");
        assert_eq!(run.stats.cells_examined, reference.stats.cells_examined);
        assert_eq!(run.stats.candidates_evaluated, reference.stats.candidates_evaluated);
    }
}

#[test]
fn exact_fit_bytes_are_invariant_across_threads() {
    let bench = large_hospital();
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
