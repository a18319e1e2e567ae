//! Cross-process equivalence of the `bclean` CLI: `bclean fit` in one
//! process followed by `bclean clean -m` in another must produce repairs
//! bit-identical to an in-process `fit_artifact` + compile + clean over the
//! same inputs, for every worker-thread count and chunk size, and so must a
//! fit-free `bclean clean -c`, cleaned rows included; `bclean ingest` must leave
//! the persisted artifact byte-identical to an in-process absorb. This is
//! the executable half of the acceptance criterion the in-process
//! `tests/artifact_roundtrip.rs` covers from the library side.

use std::path::PathBuf;
use std::process::Command;

use bclean_core::{repairs_to_csv, BClean, CleaningResult, ConstraintSet, ModelArtifact, Variant};
use bclean_data::{read_csv_file, to_csv, write_csv_file, Dataset, EncodedDataset};
use bclean_datagen::BenchmarkDataset;
use bclean_eval::bclean_constraints;

const ROWS: usize = 120;
const SEED: u64 = 20240817;

/// Run the compiled `bclean` binary, panicking with its stderr on failure.
fn bclean(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_bclean"))
        .args(args)
        .output()
        .expect("the bclean binary must launch");
    assert!(
        output.status.success(),
        "bclean {args:?} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8_lossy(&output.stdout).into_owned()
}

/// Run the binary expecting failure; returns stderr.
fn bclean_expect_failure(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_bclean"))
        .args(args)
        .output()
        .expect("the bclean binary must launch");
    assert!(!output.status.success(), "bclean {args:?} unexpectedly succeeded");
    String::from_utf8_lossy(&output.stderr).into_owned()
}

struct Workspace {
    dir: PathBuf,
}

impl Workspace {
    fn new(label: &str) -> Workspace {
        let dir = std::env::temp_dir().join(format!("bclean-cli-{label}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("temp workspace");
        Workspace { dir }
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    fn str(&self, name: &str) -> String {
        self.path(name).display().to_string()
    }
}

impl Drop for Workspace {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// Write the seeded Hospital benchmark and its constraints where the CLI
/// can read them, returning the dataset *as the CLI will see it* (i.e.
/// re-read from the CSV, so value parsing is identical on both sides).
fn stage_hospital(ws: &Workspace) -> (Dataset, String) {
    let bench = BenchmarkDataset::Hospital.build_sized(ROWS, SEED);
    let csv = ws.path("hospital.csv");
    write_csv_file(&bench.dirty, &csv).expect("write hospital csv");
    let spec = bclean_constraints(BenchmarkDataset::Hospital).to_spec_text().expect("representable UCs");
    std::fs::write(ws.path("hospital.bc"), &spec).expect("write constraints");
    (read_csv_file(&csv).expect("re-read hospital csv"), spec)
}

#[test]
fn fit_then_clean_across_processes_matches_in_process() {
    let ws = Workspace::new("fit-clean");
    let (data, spec) = stage_hospital(&ws);
    let constraints = ConstraintSet::from_spec_text(&spec).expect("spec parses");

    for (variant_flag, variant) in
        [("pi", Variant::PartitionedInference), ("pip", Variant::PartitionedInferencePruning)]
    {
        let model_path = ws.str(&format!("hospital-{variant_flag}.bclean"));
        bclean(&[
            "fit",
            &ws.str("hospital.csv"),
            "-o",
            &model_path,
            "-c",
            &ws.str("hospital.bc"),
            "--variant",
            variant_flag,
            "--threads",
            "1",
        ]);

        // The in-process oracle: same CSV, same constraints, same config.
        let artifact = BClean::new(variant.config().with_threads(1))
            .with_constraints(constraints.clone())
            .fit_artifact(&data);
        let CleaningResult { cleaned: expected_cleaned, repairs: expected_repairs, .. } =
            artifact.compile().clean(&data);
        assert!(!expected_repairs.is_empty(), "the fixture must exercise repairs");

        // The persisted artifact is byte-identical to the in-process one.
        let on_disk = std::fs::read(&model_path).expect("model file exists");
        assert_eq!(on_disk, artifact.to_bytes().expect("serializable"), "variant {variant_flag}");

        // A separate `clean` invocation reproduces the repairs bit for bit,
        // at every thread count and chunk size.
        let csv_path = ws.str("hospital.csv");
        for threads in ["1", "2", "8"] {
            let repairs_path = ws.str(&format!("repairs-{variant_flag}-{threads}.csv"));
            let mut args =
                vec!["clean", &csv_path, "-m", &model_path, "--repairs", &repairs_path, "--threads", threads];
            if threads == "2" {
                args.extend(["--chunk-rows", "7"]);
            }
            bclean(&args);
            let got = std::fs::read_to_string(&repairs_path).expect("repairs file");
            assert_eq!(
                got,
                repairs_to_csv(&expected_repairs),
                "variant {variant_flag} threads {threads} diverged from the in-process repairs"
            );
        }

        // A fit-free `clean -c` fits and cleans in one process and writes
        // the in-process cleaned rows and repairs.
        let (cleaned_path, repairs_path, report_path) = (
            ws.str(&format!("cleaned-{variant_flag}.csv")),
            ws.str(&format!("fit-free-repairs-{variant_flag}.csv")),
            ws.str(&format!("report-{variant_flag}.json")),
        );
        bclean(&[
            "clean",
            &csv_path,
            "-c",
            &ws.str("hospital.bc"),
            "--variant",
            variant_flag,
            "--threads",
            "1",
            "-o",
            &cleaned_path,
            "--repairs",
            &repairs_path,
            "--report",
            &report_path,
        ]);
        assert_eq!(std::fs::read_to_string(&cleaned_path).expect("cleaned file"), to_csv(&expected_cleaned));
        assert_eq!(
            std::fs::read_to_string(&repairs_path).expect("repairs file"),
            repairs_to_csv(&expected_repairs)
        );
        let report = std::fs::read_to_string(&report_path).expect("report file");
        for key in [
            "\"chunks\"",
            "\"peak_bytes\"",
            "\"fit_seconds\"",
            "\"rows_scored\"",
            "\"run_entries_read\"",
            "\"factor_evaluations\"",
        ] {
            assert!(report.contains(key), "variant {variant_flag}: report lacks {key}:\n{report}");
        }
    }
}

#[test]
fn ingest_across_processes_matches_in_process_absorb() {
    let ws = Workspace::new("ingest");
    let (data, spec) = stage_hospital(&ws);
    let constraints = ConstraintSet::from_spec_text(&spec).expect("spec parses");

    // Split the staged CSV into a fit half and an ingest half.
    let split = data.num_rows() / 2;
    let mut first = Dataset::new(data.schema().clone());
    let mut second = Dataset::new(data.schema().clone());
    for (r, row) in data.rows().enumerate() {
        let target = if r < split { &mut first } else { &mut second };
        target.push_row(row.to_vec()).expect("same schema");
    }
    write_csv_file(&first, ws.path("first.csv")).expect("write first half");
    write_csv_file(&second, ws.path("second.csv")).expect("write second half");
    // Re-read so both sides see identical value parsing.
    let first = read_csv_file(ws.path("first.csv")).expect("first half");
    let second = read_csv_file(ws.path("second.csv")).expect("second half");

    let model_path = ws.str("incremental.bclean");
    bclean(&[
        "fit",
        &ws.str("first.csv"),
        "-o",
        &model_path,
        "-c",
        &ws.str("hospital.bc"),
        "--variant",
        "pi",
        "--threads",
        "1",
    ]);
    let updated_path = ws.str("updated.bclean");
    let stdout = bclean(&["ingest", &ws.str("second.csv"), "-m", &model_path, "-o", &updated_path]);
    assert!(stdout.contains(&format!("absorbed {} rows", second.num_rows())), "{stdout}");

    // In-process oracle: fit the first half, absorb the second over a live
    // encoding of the full history.
    let mut oracle = BClean::new(Variant::PartitionedInference.config().with_threads(1))
        .with_constraints(constraints)
        .fit_artifact(&first);
    let mut encoded = EncodedDataset::from_dataset(&first);
    let rows = encoded.append_batch(&second);
    oracle.absorb(&second, &encoded, rows);

    let on_disk = std::fs::read(&updated_path).expect("updated model exists");
    assert_eq!(on_disk, oracle.to_bytes().expect("serializable"));
    // The original model file is untouched when -o names a different path.
    let untouched = ModelArtifact::load(&model_path).expect("original loads");
    assert_eq!(untouched.num_rows(), first.num_rows());
}

#[test]
fn inspect_reports_version_schema_and_structure() {
    let ws = Workspace::new("inspect");
    let (data, _) = stage_hospital(&ws);
    let model_path = ws.str("hospital.bclean");
    bclean(&[
        "fit",
        &ws.str("hospital.csv"),
        "-o",
        &model_path,
        "-c",
        &ws.str("hospital.bc"),
        "--threads",
        "1",
    ]);
    let artifact = ModelArtifact::load(&model_path).expect("model loads");
    let stdout = bclean(&["inspect", &model_path]);
    assert!(stdout.contains(&format!("format version {}", bclean_core::FORMAT_VERSION)), "{stdout}");
    assert!(stdout.contains(&format!("{:016x}", artifact.schema_hash())), "{stdout}");
    assert!(stdout.contains(&format!("rows absorbed {}", data.num_rows())), "{stdout}");
    for name in data.schema().names() {
        assert!(stdout.contains(name), "missing attribute {name} in {stdout}");
    }
    for section in ["schema", "config", "constraints", "dicts", "structure", "node_counts", "compensatory"] {
        assert!(stdout.contains(section), "missing section {section} in {stdout}");
    }
}

#[test]
fn schema_guard_and_corruption_fail_with_clear_errors() {
    let ws = Workspace::new("guards");
    stage_hospital(&ws);
    let model_path = ws.str("hospital.bclean");
    bclean(&[
        "fit",
        &ws.str("hospital.csv"),
        "-o",
        &model_path,
        "-c",
        &ws.str("hospital.bc"),
        "--threads",
        "1",
    ]);

    // A CSV with a drifted header is refused by the schema guard.
    std::fs::write(ws.path("drifted.csv"), "NotTheSchema,AtAll\nx,y\n").expect("write drifted csv");
    let stderr = bclean_expect_failure(&["clean", &ws.str("drifted.csv"), "-m", &model_path]);
    assert!(stderr.contains("schema"), "expected a schema error, got: {stderr}");

    // A corrupted artifact fails with the checksum error, not a panic.
    let mut bytes = std::fs::read(&model_path).expect("model bytes");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    std::fs::write(ws.path("corrupt.bclean"), &bytes).expect("write corrupted model");
    let stderr = bclean_expect_failure(&["clean", &ws.str("hospital.csv"), "-m", &ws.str("corrupt.bclean")]);
    assert!(stderr.contains("checksum"), "expected a checksum error, got: {stderr}");

    // A non-container file is refused by magic.
    std::fs::write(ws.path("not-a-model.bclean"), b"hello world, definitely not a model").unwrap();
    let stderr = bclean_expect_failure(&["inspect", &ws.str("not-a-model.bclean")]);
    assert!(stderr.contains("magic"), "expected a magic error, got: {stderr}");

    // Fit-shaping flags cannot silently combine with -m: the artifact's
    // persisted constraints/variant apply, so pretending otherwise errors.
    let csv_path = ws.str("hospital.csv");
    for extra in [["-c", "whatever.bc"], ["--variant", "pip"]] {
        let stderr = bclean_expect_failure(&["clean", &csv_path, "-m", &model_path, extra[0], extra[1]]);
        assert!(stderr.contains("no effect"), "expected a flag-conflict error, got: {stderr}");
    }
    let stderr =
        bclean_expect_failure(&["ingest", &ws.str("hospital.csv"), "-m", &model_path, "--variant", "pip"]);
    assert!(stderr.contains("no effect"), "expected a flag-conflict error, got: {stderr}");
}
