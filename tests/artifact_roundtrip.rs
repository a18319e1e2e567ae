//! Persistence equivalence guard: `ModelArtifact::load(save(a))` followed
//! by compile + clean must be bit-identical to cleaning with the original
//! artifact — identical structures, CPTs, domains and repairs — on the
//! Hospital fixture for every paper variant and for 1, 2 and 8 worker
//! threads. A property test repeats the repair-level check across every
//! datagen benchmark family, and a corruption battery asserts that every
//! way a `.bclean` file can rot yields a typed `StoreError`, never a panic
//! and never a silently different model.

use bclean::data::AttributeDomain;
use bclean::eval::bclean_constraints;
use bclean::prelude::*;
use bclean::store::{ContainerReader, MAGIC};
use proptest::prelude::*;

const ROWS: usize = 160;
const SEED: u64 = 20240817;

fn hospital_artifact(variant: Variant, threads: usize) -> (DirtyDataset, ModelArtifact) {
    let bench = BenchmarkDataset::Hospital.build_sized(ROWS, SEED);
    let artifact = BClean::new(variant.config().with_threads(threads))
        .with_constraints(bclean_constraints(BenchmarkDataset::Hospital))
        .fit_artifact(&bench.dirty);
    (bench, artifact)
}

#[test]
fn save_load_clean_is_bit_identical_for_every_variant_and_thread_count() {
    let mut total_repairs = 0usize;
    for variant in Variant::all() {
        for threads in [1usize, 2, 8] {
            let (bench, artifact) = hospital_artifact(variant, threads);
            let bytes = artifact.to_bytes().expect("artifact serializes");
            let loaded = ModelArtifact::from_bytes(&bytes).expect("artifact loads");

            // Identical structures and fit metadata.
            assert_eq!(loaded.dag(), artifact.dag(), "variant {variant:?} threads {threads}");
            assert_eq!(loaded.attribute_names(), artifact.attribute_names());
            assert_eq!(loaded.attribute_types(), artifact.attribute_types());
            assert_eq!(loaded.num_rows(), artifact.num_rows());
            assert_eq!(loaded.schema_hash(), artifact.schema_hash());

            let original = artifact.compile();
            let restored = loaded.compile();

            // Identical domains (derived PartialEq covers values + counts).
            for col in 0..bench.dirty.num_columns() {
                assert_eq!(
                    restored.domains().attribute(col),
                    &AttributeDomain::from_column(&bench.dirty, col),
                    "domain diverged: column {col}"
                );
            }

            // Identical CPTs, bit for bit, via the compiled tables over
            // every observed tuple and candidate value (plus null), each
            // model encoding through its own dictionaries.
            let codes_of = |model: &BCleanModel, row: &[Value]| -> Vec<u32> {
                row.iter().zip(model.dicts()).map(|(v, d)| d.encode(v).unwrap()).collect()
            };
            for (r, row) in bench.dirty.rows().enumerate() {
                let (restored_codes, original_codes) = (codes_of(&restored, row), codes_of(&original, row));
                for col in 0..bench.dirty.num_columns() {
                    let mut probes: Vec<Value> = restored.domains().attribute(col).values().to_vec();
                    probes.push(Value::Null);
                    for value in &probes {
                        let restored_code = restored.dicts()[col].encode(value).unwrap();
                        let original_code = original.dicts()[col].encode(value).unwrap();
                        assert_eq!(
                            restored
                                .compiled()
                                .node(col)
                                .log_prob_row(&restored_codes, restored_code)
                                .to_bits(),
                            original
                                .compiled()
                                .node(col)
                                .log_prob_row(&original_codes, original_code)
                                .to_bits(),
                            "CPT diverged: variant {variant:?} row {r} col {col} value {value}"
                        );
                    }
                }
            }

            // Identical downstream repairs, cleaned datasets and counters.
            let original_run = original.clean(&bench.dirty);
            let restored_run = restored.clean(&bench.dirty);
            assert_eq!(
                restored_run.repairs, original_run.repairs,
                "repairs diverged: variant {variant:?} threads {threads}"
            );
            assert_eq!(restored_run.cleaned, original_run.cleaned);
            assert_eq!(restored_run.stats.cells_examined, original_run.stats.cells_examined);
            assert_eq!(restored_run.stats.cells_skipped, original_run.stats.cells_skipped);
            assert_eq!(restored_run.stats.candidates_evaluated, original_run.stats.candidates_evaluated);
            total_repairs += original_run.repairs.len();

            // Serialization is deterministic and save/load is a fixpoint:
            // re-saving the loaded artifact reproduces the bytes exactly
            // (what CI's golden-artifact gate byte-compares).
            assert_eq!(loaded.to_bytes().expect("loaded artifact serializes"), bytes);
        }
    }
    assert!(total_repairs > 0, "the fixture must exercise actual repairs");
}

#[test]
fn every_corruption_mode_is_a_typed_error_never_a_panic() {
    let (_, artifact) = hospital_artifact(Variant::PartitionedInference, 1);
    let bytes = artifact.to_bytes().expect("artifact serializes");

    // Wrong magic.
    let mut wrong_magic = bytes.clone();
    wrong_magic[..MAGIC.len()].copy_from_slice(b"NOTBCLEA");
    assert!(matches!(ModelArtifact::from_bytes(&wrong_magic), Err(StoreError::BadMagic { .. })));

    // Future format version.
    let mut future = bytes.clone();
    future[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
    match ModelArtifact::from_bytes(&future) {
        Err(StoreError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, FORMAT_VERSION + 1);
            assert_eq!(supported, FORMAT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }

    // Truncation at every kind of boundary: header, section header, payload.
    for cut in [0, 4, MAGIC.len(), 13, 20, bytes.len() / 2, bytes.len() - 1] {
        let err = ModelArtifact::from_bytes(&bytes[..cut]).expect_err("truncated file must not load");
        assert!(
            matches!(
                err,
                StoreError::BadMagic { .. }
                    | StoreError::Truncated { .. }
                    | StoreError::ChecksumMismatch { .. }
            ),
            "cut at {cut}: unexpected error {err:?}"
        );
    }

    // A flipped byte anywhere in any section payload fails its CRC. Probe a
    // spread of offsets past the header.
    let header = MAGIC.len() + 8;
    let step = (bytes.len() - header) / 23 + 1;
    for offset in (header..bytes.len()).step_by(step) {
        let mut flipped = bytes.clone();
        flipped[offset] ^= 0x20;
        if flipped == bytes {
            continue;
        }
        let err = ModelArtifact::from_bytes(&flipped).expect_err("bit rot must not load");
        assert!(
            matches!(
                err,
                StoreError::ChecksumMismatch { .. } | StoreError::Corrupt(_) | StoreError::Truncated { .. }
            ),
            "flip at {offset}: unexpected error {err:?}"
        );
    }

    // The pristine bytes still parse (the battery did not mutate in place).
    assert!(ContainerReader::parse(&bytes).is_ok());
    assert!(ModelArtifact::from_bytes(&bytes).is_ok());
}

fn benchmark_strategy() -> impl Strategy<Value = (BenchmarkDataset, usize, u64)> {
    (0usize..BenchmarkDataset::all().len(), 30usize..100, 0u64..1_000_000)
        .prop_map(|(idx, rows, seed)| (BenchmarkDataset::all()[idx], rows, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Across every datagen benchmark family, random sizes and seeds:
    /// save → load → compile → clean must reproduce the original repairs
    /// byte for byte, and re-saving must reproduce the original bytes.
    #[test]
    fn save_load_round_trips_over_generated_benchmarks((dataset, rows, seed) in benchmark_strategy()) {
        let bench = dataset.build_sized(rows, seed);
        let artifact = BClean::new(Variant::PartitionedInference.config().with_threads(2))
            .with_constraints(bclean_constraints(dataset))
            .fit_artifact(&bench.dirty);
        let bytes = artifact.to_bytes().expect("artifact serializes");
        let loaded = ModelArtifact::from_bytes(&bytes).expect("artifact loads");
        prop_assert_eq!(loaded.dag(), artifact.dag());
        prop_assert_eq!(loaded.to_bytes().expect("loaded artifact serializes"), bytes);
        let original = artifact.compile().clean(&bench.dirty);
        let restored = loaded.compile().clean(&bench.dirty);
        prop_assert_eq!(&restored.repairs, &original.repairs);
        prop_assert_eq!(&restored.cleaned, &original.cleaned);
    }
}
