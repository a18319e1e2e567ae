//! Equivalence guard for the dictionary-encoded scoring engine: on the
//! Hospital fixture (the same generator/seed family as
//! `tests/e2e_determinism.rs`), `BCleanModel::clean` — which scores entirely
//! over compiled `u32` codes — must produce the exact repair list, cleaned
//! dataset and statistics of the retained pre-refactor `Value` path
//! (`BClean::fit_reference` + `ReferenceModel::clean_reference`), for every
//! paper variant and for 1, 2 and 8 worker threads.

use bclean::eval::bclean_constraints;
use bclean::prelude::*;

const ROWS: usize = 160;
const SEED: u64 = 20240817;

#[test]
fn encoded_engine_matches_value_path_for_every_variant_and_thread_count() {
    let bench = BenchmarkDataset::Hospital.build_sized(ROWS, SEED);
    let constraints = bclean_constraints(BenchmarkDataset::Hospital);
    let mut total_repairs = 0usize;
    for variant in Variant::all() {
        // The reference run fixes the oracle; fitting is deterministic and
        // thread-independent, so each thread count refits the same model.
        let reference = BClean::new(variant.config().with_threads(1))
            .with_constraints(constraints.clone())
            .fit_reference(&bench.dirty)
            .clean_reference(&bench.dirty);
        total_repairs += reference.repairs.len();
        for threads in [1usize, 2, 8] {
            let model = BClean::new(variant.config().with_threads(threads))
                .with_constraints(constraints.clone())
                .fit(&bench.dirty);
            let run = model.clean(&bench.dirty);
            assert_eq!(
                run.repairs, reference.repairs,
                "repair list diverged: variant {variant:?} threads {threads}"
            );
            assert_eq!(
                run.cleaned, reference.cleaned,
                "cleaned dataset diverged: variant {variant:?} threads {threads}"
            );
            assert_eq!(run.stats.cells_examined, reference.stats.cells_examined);
            assert_eq!(run.stats.cells_skipped, reference.stats.cells_skipped);
            assert_eq!(run.stats.candidates_evaluated, reference.stats.candidates_evaluated);
            assert_eq!(run.stats.repairs, reference.stats.repairs);
        }
    }
    assert!(total_repairs > 0, "the fixture must exercise actual repairs");
}
