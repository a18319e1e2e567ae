//! Equivalence guard for the streaming engine: a [`CleaningSession`] that
//! refits after every batch must end up in exactly the state a one-shot
//! `BClean::fit` + `BCleanModel::clean` on the concatenated batches reaches —
//! identical learned structures, bit-identical CPTs (compared through their
//! probability APIs), identical domains and FD-confidence matrices, and
//! byte-identical repairs from [`CleaningSession::finalize`] — for every
//! paper variant and for 1, 2 and 8 worker threads, even though the
//! session's dictionaries carry appended (unsorted) code layouts. A property
//! test repeats the repair-level check across every datagen benchmark family
//! under random batch splits, including single-row batches, one whole-dataset
//! batch, and batches that introduce values and nulls the session has never
//! seen.
//!
//! The same guard covers the thread count: fitting and cleaning at any
//! thread count (composing with candidate pruning) must reproduce the serial
//! one-shot artifact byte-for-byte and its repairs repair-for-repair.

use bclean::core::CleaningSession;
use bclean::data::AttributeDomain;
use bclean::eval::bclean_constraints;
use bclean::prelude::*;
use proptest::prelude::*;

const ROWS: usize = 160;
const SEED: u64 = 20240817;

/// Split `dataset` into consecutive batches of the given sizes (the last
/// batch takes any remainder).
fn split(dataset: &Dataset, sizes: &[usize]) -> Vec<Dataset> {
    let mut batches = Vec::new();
    let mut start = 0usize;
    for (i, &size) in sizes.iter().enumerate() {
        let end =
            if i + 1 == sizes.len() { dataset.num_rows() } else { (start + size).min(dataset.num_rows()) };
        let mut batch = Dataset::new(dataset.schema().clone());
        for r in start..end {
            batch.push_row(dataset.row(r).unwrap().to_vec()).unwrap();
        }
        batches.push(batch);
        start = end;
        if start >= dataset.num_rows() {
            break;
        }
    }
    batches
}

#[test]
fn session_matches_one_shot_for_every_variant_and_thread_count() {
    let bench = BenchmarkDataset::Hospital.build_sized(ROWS, SEED);
    let constraints = bclean_constraints(BenchmarkDataset::Hospital);
    let m = bench.dirty.num_columns();
    let mut total_repairs = 0usize;
    for variant in Variant::all() {
        let oneshot_model = BClean::new(variant.config().with_threads(1))
            .with_constraints(constraints.clone())
            .fit(&bench.dirty);
        let oneshot = oneshot_model.clean(&bench.dirty);
        total_repairs += oneshot.repairs.len();
        for threads in [1usize, 2, 8] {
            let cleaner =
                BClean::new(variant.config().with_threads(threads)).with_constraints(constraints.clone());
            let mut session = CleaningSession::new(cleaner, bench.dirty.schema().clone());
            // Uneven batches, including a single-row one, so later batches
            // bring values (and nulls) the session has never seen.
            let mut streamed = 0usize;
            for batch in split(&bench.dirty, &[1, 40, 7, 64, 100]) {
                streamed += session.ingest(&batch).len();
            }
            assert_eq!(session.num_rows(), bench.dirty.num_rows());
            let result = session.finalize();
            let model = session.model().expect("data was ingested");

            // Identical structures.
            assert_eq!(
                model.dag().edges(),
                oneshot_model.dag().edges(),
                "structure diverged: variant {variant:?} threads {threads}"
            );
            assert_eq!(model.attribute_names(), oneshot_model.attribute_names());

            // Identical domains, despite the appended dictionary layout.
            for col in 0..m {
                assert_eq!(
                    model.domains().attribute(col),
                    &AttributeDomain::from_column(&bench.dirty, col),
                    "domain diverged: column {col}"
                );
            }

            // Bit-identical CPTs through the compiled tables: every domain
            // value (plus null) of every column against every observed
            // parent context, each model encoding through its own (appended
            // or freshly sorted) dictionaries.
            let codes_of = |model: &BCleanModel, row: &[Value]| -> Vec<u32> {
                row.iter().zip(model.dicts()).map(|(v, d)| d.encode(v).unwrap()).collect()
            };
            for (r, row) in bench.dirty.rows().enumerate() {
                let (codes, oneshot_codes) = (codes_of(model, row), codes_of(&oneshot_model, row));
                for col in 0..m {
                    let mut probes: Vec<Value> = model.domains().attribute(col).values().to_vec();
                    probes.push(Value::Null);
                    for value in &probes {
                        let (code, oneshot_code) = (
                            model.dicts()[col].encode(value).unwrap(),
                            oneshot_model.dicts()[col].encode(value).unwrap(),
                        );
                        let (node, oneshot_node) =
                            (model.compiled().node(col), oneshot_model.compiled().node(col));
                        assert_eq!(
                            node.log_prob_row(&codes, code).to_bits(),
                            oneshot_node.log_prob_row(&oneshot_codes, oneshot_code).to_bits(),
                            "CPT diverged: variant {variant:?} row {r} col {col} value {value}"
                        );
                        assert_eq!(
                            node.log_marginal(code).to_bits(),
                            oneshot_node.log_marginal(oneshot_code).to_bits()
                        );
                    }
                }
            }

            // Byte-identical authoritative repairs and counters.
            assert_eq!(
                result.repairs, oneshot.repairs,
                "repairs diverged: variant {variant:?} threads {threads}"
            );
            assert_eq!(result.cleaned, oneshot.cleaned);
            assert_eq!(result.stats.cells_examined, oneshot.stats.cells_examined);
            assert_eq!(result.stats.cells_skipped, oneshot.stats.cells_skipped);
            assert_eq!(result.stats.candidates_evaluated, oneshot.stats.candidates_evaluated);

            // The per-ingest streams are provisional but must have flowed.
            assert!(streamed > 0 || oneshot.repairs.is_empty(), "no streaming repairs were emitted");
            let stats = session.stats();
            assert_eq!(stats.rows, bench.dirty.num_rows());
            assert!(stats.refits >= stats.batches, "refit-every-batch cadence must refit per batch");
        }
    }
    assert!(total_repairs > 0, "the fixture must exercise actual repairs");
}

/// Ingesting the whole dataset as one batch cleans it against the fully
/// fitted model, so even the *streaming* repairs match one-shot cleaning.
#[test]
fn whole_dataset_batch_streams_one_shot_repairs() {
    let bench = BenchmarkDataset::Hospital.build_sized(120, SEED + 1);
    let constraints = bclean_constraints(BenchmarkDataset::Hospital);
    let cleaner =
        BClean::new(Variant::PartitionedInference.config().with_threads(2)).with_constraints(constraints);
    let oneshot = cleaner.fit(&bench.dirty).clean(&bench.dirty);
    let mut session = CleaningSession::new(cleaner, bench.dirty.schema().clone());
    let streamed = session.ingest(&bench.dirty);
    assert_eq!(streamed, oneshot.repairs);
    assert_eq!(session.finalize().repairs, oneshot.repairs);
}

/// Empty batches are harmless no-ops at any point of the stream.
#[test]
fn empty_batches_are_noops() {
    let bench = BenchmarkDataset::Hospital.build_sized(60, SEED + 2);
    let constraints = bclean_constraints(BenchmarkDataset::Hospital);
    let cleaner = BClean::new(Variant::Basic.config().with_threads(1)).with_constraints(constraints.clone());
    let empty = Dataset::new(bench.dirty.schema().clone());
    let mut session = CleaningSession::new(cleaner.clone(), bench.dirty.schema().clone());
    assert!(session.ingest(&empty).is_empty());
    assert!(session.model().is_none());
    assert!(session.finalize().repairs.is_empty());
    session.ingest(&bench.dirty);
    assert!(session.ingest(&empty).is_empty());
    let oneshot = cleaner.fit(&bench.dirty).clean(&bench.dirty);
    assert_eq!(session.finalize().repairs, oneshot.repairs);
}

/// Fit + clean at any thread count must be bit-identical to the serial
/// one-shot pipeline for every paper variant: the serialized artifact bytes
/// match (after normalising the persisted thread knob, an execution hint,
/// not a statistic) and the cleaning output matches repair-for-repair.
#[test]
fn threaded_fit_and_clean_match_one_shot_for_every_variant() {
    let bench = BenchmarkDataset::Hospital.build_sized(ROWS, SEED);
    let constraints = bclean_constraints(BenchmarkDataset::Hospital);
    let mut total_repairs = 0usize;
    for variant in Variant::all() {
        let baseline = BClean::new(variant.config().with_threads(1))
            .with_constraints(constraints.clone())
            .fit_artifact(&bench.dirty);
        let baseline_bytes = baseline.to_bytes().expect("artifact serialises");
        let oneshot = baseline.compile().clean(&bench.dirty);
        total_repairs += oneshot.repairs.len();
        for threads in [1usize, 2, 8] {
            let cleaner =
                BClean::new(variant.config().with_threads(threads)).with_constraints(constraints.clone());
            let mut artifact = cleaner.fit_artifact(&bench.dirty);
            let result = artifact.compile().clean(&bench.dirty);

            // Statistics are bit-identical: serialise with the execution
            // knob normalised back to the baseline's and compare bytes.
            artifact.set_threads(1);
            assert_eq!(
                artifact.to_bytes().expect("artifact serialises"),
                baseline_bytes,
                "artifact diverged: variant {variant:?} threads {threads}"
            );

            // The executor's ordered merge yields the same output.
            assert_eq!(
                result.repairs, oneshot.repairs,
                "repairs diverged: variant {variant:?} threads {threads}"
            );
            assert_eq!(result.cleaned, oneshot.cleaned);
            assert_eq!(result.stats.cells_examined, oneshot.stats.cells_examined);
            assert_eq!(result.stats.cells_skipped, oneshot.stats.cells_skipped);
            assert_eq!(result.stats.candidates_evaluated, oneshot.stats.candidates_evaluated);
        }
    }
    assert!(total_repairs > 0, "the fixture must exercise actual repairs");
}

/// The candidate-pruning escape hatch: with `top_k` at or above every
/// column's cardinality the clean is bit-identical to the exact default,
/// and with an aggressively small `top_k` the pruned path actually prunes
/// (fewer candidates evaluated) while examining the same cells.
#[test]
fn candidate_pruning_is_exact_above_cardinality_and_prunes_below() {
    let bench = BenchmarkDataset::Hospital.build_sized(ROWS, SEED + 4);
    let constraints = bclean_constraints(BenchmarkDataset::Hospital);
    let fit =
        |config: BCleanConfig| BClean::new(config).with_constraints(constraints.clone()).fit(&bench.dirty);
    // `score_candidates` ranks exactly the candidates `clean` evaluates: PI
    // examines every cell, so its lists (less the observed value) sum to
    // `candidates_evaluated`.
    let scored_candidates = |model: &BCleanModel| -> usize {
        let cells =
            (0..bench.dirty.num_rows()).flat_map(|r| (0..bench.dirty.num_columns()).map(move |c| (r, c)));
        cells.map(|(r, c)| model.score_candidates(&bench.dirty, r, c).len() - 1).sum()
    };
    let exact_model = fit(Variant::PartitionedInference.config().with_threads(1));
    let exact = exact_model.clean(&bench.dirty);
    assert_eq!(scored_candidates(&exact_model), exact.stats.candidates_evaluated);

    // No column's cardinality can exceed the row count, so this top-k keeps
    // every candidate list intact and must reproduce the exact output.
    let generous = fit(Variant::PartitionedInference
        .config()
        .with_threads(1)
        .with_candidate_top_k(bench.dirty.num_rows()))
    .clean(&bench.dirty);
    assert_eq!(generous.repairs, exact.repairs);
    assert_eq!(generous.cleaned, exact.cleaned);
    assert_eq!(generous.stats.candidates_evaluated, exact.stats.candidates_evaluated);

    // An aggressive top-k exercises the pruned enumeration for real.
    let pruned_model = fit(Variant::PartitionedInference.config().with_threads(1).with_candidate_top_k(3));
    let pruned = pruned_model.clean(&bench.dirty);
    assert!(
        pruned.stats.candidates_evaluated < exact.stats.candidates_evaluated,
        "top-3 pruning must cut the candidate count ({} vs {})",
        pruned.stats.candidates_evaluated,
        exact.stats.candidates_evaluated
    );
    assert_eq!(pruned.stats.cells_examined, exact.stats.cells_examined);
    assert_eq!(scored_candidates(&pruned_model), pruned.stats.candidates_evaluated);

    // Pruned cleaning is still deterministic across thread counts.
    let pruned_parallel = fit(Variant::PartitionedInference.config().with_threads(2).with_candidate_top_k(3))
        .clean(&bench.dirty);
    assert_eq!(pruned_parallel.repairs, pruned.repairs);
    assert_eq!(pruned_parallel.cleaned, pruned.cleaned);
}

/// The out-of-core pipeline (`bclean_core::stream`): fitting and cleaning
/// through bounded chunks must reproduce the in-RAM one-shot run
/// **byte-for-byte** — serialized artifact bytes and the rendered repairs
/// CSV — for chunkings of one row, uneven chunks and one whole-file chunk,
/// across 1, 2 and 8 threads.
#[test]
fn out_of_core_clean_matches_one_shot_bytes_for_any_chunking_and_threads() {
    use bclean::core::{clean_stream, repairs_to_csv, StreamOptions};
    use bclean::data::DatasetChunks;

    let bench = BenchmarkDataset::Hospital.build_sized(ROWS, SEED);
    let constraints = bclean_constraints(BenchmarkDataset::Hospital);
    let mut total_repairs = 0usize;
    for threads in [1usize, 2, 8] {
        let cleaner = BClean::new(Variant::PartitionedInference.config().with_threads(threads))
            .with_constraints(constraints.clone());
        let baseline = cleaner.fit_artifact(&bench.dirty);
        let baseline_bytes = baseline.to_bytes().expect("artifact serialises");
        let oneshot = baseline.compile().clean(&bench.dirty);
        total_repairs += oneshot.repairs.len();
        for sizes in [vec![1usize], vec![13, 50, 97], vec![usize::MAX]] {
            let mut source = DatasetChunks::new(bench.dirty.clone(), &sizes);
            let outcome = clean_stream(&cleaner, &mut source, &StreamOptions::default())
                .expect("stream clean succeeds");
            assert_eq!(
                outcome.artifact.as_ref().unwrap().to_bytes().expect("artifact serialises"),
                baseline_bytes,
                "artifact diverged: threads {threads} sizes {sizes:?}"
            );
            assert_eq!(
                repairs_to_csv(&outcome.repairs),
                repairs_to_csv(&oneshot.repairs),
                "repairs diverged: threads {threads} sizes {sizes:?}"
            );
            assert_eq!(outcome.rows, bench.dirty.num_rows());
            assert_eq!(outcome.stats.cells_examined, oneshot.stats.cells_examined);
            assert_eq!(outcome.stats.cells_skipped, oneshot.stats.cells_skipped);
            assert_eq!(outcome.stats.candidates_evaluated, oneshot.stats.candidates_evaluated);
        }
    }
    assert!(total_repairs > 0, "the fixture must exercise actual repairs");
}

/// The full file-to-file out-of-core path: a chunked CSV reader feeding
/// `clean_stream` matches reading the same file whole, and the streamed
/// cleaned-CSV output is byte-identical to the one-shot `write_csv_file`.
#[test]
fn csv_file_chunks_stream_to_one_shot_bytes() {
    use bclean::core::{clean_stream, repairs_to_csv, StreamOptions};
    use bclean::data::{read_csv_file, write_csv_file, ChunkLimits, CsvFileChunks};

    let bench = BenchmarkDataset::Hospital.build_sized(ROWS, SEED + 5);
    let constraints = bclean_constraints(BenchmarkDataset::Hospital);
    let dir = std::env::temp_dir().join(format!("bclean-ooc-file-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let source_path = dir.join("dirty.csv");
    write_csv_file(&bench.dirty, &source_path).unwrap();

    // The in-RAM baseline reads the same bytes the stream will.
    let whole = read_csv_file(&source_path).unwrap();
    let cleaner =
        BClean::new(Variant::PartitionedInference.config().with_threads(2)).with_constraints(constraints);
    let baseline = cleaner.fit_artifact(&whole);
    let oneshot = baseline.compile().clean(&whole);
    let cleaned_path = dir.join("cleaned_oneshot.csv");
    write_csv_file(&oneshot.cleaned, &cleaned_path).unwrap();

    let streamed_path = dir.join("cleaned_streamed.csv");
    let mut source = CsvFileChunks::open(&source_path, ChunkLimits::rows(37)).unwrap();
    let options = StreamOptions { limits: ChunkLimits::rows(37), cleaned_path: Some(streamed_path.clone()) };
    let outcome = clean_stream(&cleaner, &mut source, &options).expect("stream clean succeeds");

    assert_eq!(
        outcome.artifact.as_ref().unwrap().to_bytes().unwrap(),
        baseline.to_bytes().unwrap(),
        "artifact bytes diverged between file-chunked and in-RAM fits"
    );
    assert_eq!(repairs_to_csv(&outcome.repairs), repairs_to_csv(&oneshot.repairs));
    assert_eq!(
        std::fs::read(&streamed_path).unwrap(),
        std::fs::read(&cleaned_path).unwrap(),
        "streamed cleaned CSV must be byte-identical to the one-shot write"
    );
    std::fs::remove_dir_all(&dir).ok();
}

fn benchmark_strategy() -> impl Strategy<Value = (BenchmarkDataset, usize, u64, Vec<usize>)> {
    (
        0usize..BenchmarkDataset::all().len(),
        30usize..90,
        0u64..1_000_000,
        proptest::collection::vec(1usize..40, 1..6),
    )
        .prop_map(|(idx, rows, seed, sizes)| (BenchmarkDataset::all()[idx], rows, seed, sizes))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Across every datagen benchmark family, random sizes, seeds and batch
    /// splits (single-row batches included; any tail rows land in the last
    /// batch), a refit-every-batch session must finalize to the one-shot
    /// repairs.
    #[test]
    fn random_batch_splits_agree_with_one_shot(
        (dataset, rows, seed, sizes) in benchmark_strategy()
    ) {
        let bench = dataset.build_sized(rows, seed);
        let constraints = bclean_constraints(dataset);
        let cleaner = BClean::new(Variant::PartitionedInference.config().with_threads(2))
            .with_constraints(constraints);
        let oneshot_model = cleaner.fit(&bench.dirty);
        let oneshot = oneshot_model.clean(&bench.dirty);
        let mut session = CleaningSession::new(cleaner, bench.dirty.schema().clone());
        for batch in split(&bench.dirty, &sizes) {
            session.ingest(&batch);
        }
        let result = session.finalize();
        prop_assert_eq!(
            session.model().unwrap().dag().edges(),
            oneshot_model.dag().edges()
        );
        prop_assert_eq!(&result.repairs, &oneshot.repairs);
        prop_assert_eq!(&result.cleaned, &oneshot.cleaned);
    }
}

fn thread_strategy() -> impl Strategy<Value = (BenchmarkDataset, usize, u64, usize)> {
    (0usize..BenchmarkDataset::all().len(), 30usize..90, 0u64..1_000_000, 1usize..5)
        .prop_map(|(idx, rows, seed, threads)| (BenchmarkDataset::all()[idx], rows, seed, threads))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Across every datagen benchmark family and random thread counts, the
    /// fit + clean pipeline reproduces the serial one-shot output exactly.
    #[test]
    fn random_thread_counts_agree_with_one_shot(
        (dataset, rows, seed, threads) in thread_strategy()
    ) {
        let bench = dataset.build_sized(rows, seed);
        let constraints = bclean_constraints(dataset);
        let oneshot = BClean::new(Variant::PartitionedInference.config().with_threads(1))
            .with_constraints(constraints.clone())
            .fit(&bench.dirty)
            .clean(&bench.dirty);
        let threaded = BClean::new(Variant::PartitionedInference.config().with_threads(threads))
            .with_constraints(constraints)
            .fit(&bench.dirty)
            .clean(&bench.dirty);
        prop_assert_eq!(&threaded.repairs, &oneshot.repairs);
        prop_assert_eq!(&threaded.cleaned, &oneshot.cleaned);
        prop_assert_eq!(threaded.stats.candidates_evaluated, oneshot.stats.candidates_evaluated);
    }
}
