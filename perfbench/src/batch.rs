//! `wide-batch`: what `bclean clean` does, on the 32-column wide schema.
//!
//! Set-up (repeated, median reported): read the CSV → `fit_artifact` →
//! `compile`. Timed phase: `clean` → write the repairs CSV and the cleaned
//! CSV, repeated until `--seconds` have passed. `rows_per_s` is the table's
//! rows over (median slice time × slices + median write time);
//! `clean_p50_ms` is the median time to clean one 1000-row slice.

use std::time::Instant;

use bclean_core::{repairs_to_csv, BClean, CleaningStats, Repair, Variant};
use bclean_data::{read_csv_file, write_csv_file, Dataset};

use crate::layers::{self, Layers};
use crate::trace::Tracer;
use crate::util::{cell_text, digest, median, peak_rss_mb, repair_quality, Obj};
use crate::workloads::THREADS;
use crate::{Args, Checks, Outcome};

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Rows per timed `clean` call.
const SLICE_ROWS: usize = 1000;
/// Batches the registry and HTTP probes clean and ingest.
pub const PROBE_CLEANS: usize = 32;
pub const PROBE_INGESTS: usize = 12;

pub fn run(args: &Args, tracer: &Tracer, checks: &mut Checks, root: u64) -> Result<Outcome, String> {
    let input = args.data.join("dirty.csv");
    let cleaner = BClean::new(Variant::PartitionedInference.config().with_threads(THREADS));
    let mut layers = Layers::new();

    let mut setup_s = Vec::new();
    let (mut parse_s, mut fit_s, mut compile_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        // Free the previous repetition first, so the peak RSS holds one model.
        drop(state.take());
        let (built, secs) = tracer.timed("setup", Some(root), |id| -> Result<_, String> {
            let (table, p) = tracer.timed("data.csv.parse", Some(id), |_| read_csv_file(&input));
            let table = table.map_err(|e| e.to_string())?;
            let (artifact, f) = tracer.timed("core.artifact.fit", Some(id), |_| cleaner.fit_artifact(&table));
            let (model, c) = tracer.timed("core.artifact.compile", Some(id), |_| artifact.compile());
            parse_s.push(p);
            fit_s.push(f);
            compile_s.push(c);
            Ok((table, artifact, model))
        });
        state = Some(built?);
        setup_s.push(secs);
    }
    let (table, artifact, model) = state.expect("at least one set-up ran");
    let rows = table.num_rows();

    // Timed phase: passes over the whole table, each cleaning it as
    // `SLICE_ROWS`-row slices against the one model and then writing the
    // repairs and the cleaned CSV. Inference is independent per row, so a
    // pass gives exactly the repairs of one whole-table `clean`; timing
    // slices gives many samples per run, and their median shrugs off the
    // seconds-long slowdowns of a shared host.
    let slices = (0..rows)
        .step_by(SLICE_ROWS)
        .map(|start| table.select_rows(&(start..(start + SLICE_ROWS).min(rows)).collect::<Vec<_>>()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let repairs_path = args.out.join("repairs.csv");
    let cleaned_path = args.out.join("cleaned.csv");
    let phase = Instant::now();
    let (mut slice_s, mut write_s, mut pass_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut repair_digests = Vec::new();
    let mut first: Option<(Vec<Repair>, CleaningStats)> = None;
    loop {
        let (pass, secs) = tracer.timed("clean_and_write", Some(root), |id| -> Result<_, String> {
            let mut repairs = Vec::new();
            let mut cleaned = Vec::with_capacity(rows);
            let mut stats = CleaningStats::default();
            for (k, slice) in slices.iter().enumerate() {
                let (result, c) = tracer.timed("core.cleaner.clean", Some(id), |_| model.clean(slice));
                slice_s.push(c);
                stats.merge(&result.stats);
                repairs.extend(result.repairs.into_iter().map(|mut r| {
                    r.at.row += k * SLICE_ROWS;
                    r
                }));
                cleaned.extend(result.cleaned.into_rows());
            }
            let (written, w) = tracer.timed("data.csv.write", Some(id), |_| -> Result<String, String> {
                let csv = repairs_to_csv(&repairs);
                std::fs::write(&repairs_path, &csv).map_err(|e| format!("cannot write repairs: {e}"))?;
                let cleaned =
                    Dataset::from_parts(table.schema().clone(), cleaned).map_err(|e| e.to_string())?;
                write_csv_file(&cleaned, &cleaned_path).map_err(|e| e.to_string())?;
                Ok(csv)
            });
            write_s.push(w);
            Ok((written?, repairs, stats))
        });
        let (csv, repairs, stats) = pass?;
        checks.ops(1, 0);
        pass_s.push(secs);
        repair_digests.push(digest(csv.as_bytes()));
        first.get_or_insert((repairs, stats));
        // Stop before a further pass would run past `--seconds`.
        if phase.elapsed().as_secs_f64() + secs > args.seconds {
            break;
        }
    }
    let peak_rss = peak_rss_mb("self").ok_or("cannot read VmHWM of the worker process")?;
    let (first_repairs, first_stats) = first.expect("the timed phase cleans at least once");

    // Correctness: identical repairs on every clean of this run, and repair
    // F1 against the generator's clean table.
    let (quality, _) = tracer.timed("check.quality", Some(root), |_| -> Result<_, String> {
        checks.check(
            "repairs_repeat_within_run",
            repair_digests.iter().all(|d| *d == repair_digests[0]),
            format!("{} passes, digests {:?}", repair_digests.len(), repair_digests),
        );
        let truth = read_csv_file(args.data.join("clean.csv")).map_err(|e| e.to_string())?;
        let triples: Vec<_> = first_repairs.iter().map(|r| (r.at.row, r.at.col, r.to.to_string())).collect();
        Ok(repair_quality(&cell_text(&table), &cell_text(&truth), 0..rows, &triples))
    });
    let quality = quality?;
    checks.check("repairs_found", quality.repairs > 0, format!("{} repairs", quality.repairs));

    let artifact_bytes = artifact.to_bytes().map_err(|e| e.to_string())?;
    if tracer.enabled() {
        let (probed, _) = tracer.timed("probe", Some(root), |id| -> Result<(), String> {
            layers.insert("data.csv.parse_s", median(&parse_s));
            layers.insert("core.artifact.fit_s", median(&fit_s));
            layers.insert("core.artifact.compile_s", median(&compile_s));
            layers.insert("core.cleaner.clean_s", median(&slice_s) * slices.len() as f64);
            layers::record_clean_stats(&mut layers, &first_stats);
            layers::probe_fit_layers(tracer, id, &cleaner, &table, &mut layers);
            layers::probe_store(tracer, id, &artifact, &mut layers)?;
            probe_serving(tracer, id, args, &artifact, &mut layers)?;
            layers::probe_chunk_read(tracer, id, &input, &mut layers)?;
            layers::probe_stream(tracer, id, &cleaner, &args.data.join("head.csv"), &mut layers)
        });
        probed?;
    }

    // A pass's time estimated from medians: one slice per slice of the
    // table, plus one write.
    let clean_rows_per_s = rows as f64 / (median(&slice_s) * slices.len() as f64 + median(&write_s));
    let slice_p50_ms = median(&slice_s) * 1e3;
    let setup = median(&setup_s);
    let error_rate = checks.failed as f64 / checks.attempted.max(1) as f64;
    Ok(Outcome {
        e2e: vec![
            ("setup_s", setup),
            ("rows_per_s", clean_rows_per_s),
            ("f1", quality.f1),
            ("peak_rss_mb", peak_rss),
            ("clean_p50_ms", slice_p50_ms),
        ],
        named: vec![
            ("setup_s", setup, "s"),
            ("clean_rows_per_s", clean_rows_per_s, "rows/s"),
            ("f1", quality.f1, "ratio"),
            ("peak_rss_mb", peak_rss, "MB"),
            ("error_rate", error_rate, "share"),
        ],
        layers,
        digests: vec![
            ("repairs", repair_digests[0].clone()),
            ("artifact", digest(&artifact_bytes)),
            (
                "stats",
                format!(
                    "{:?}",
                    (first_stats.cells_examined, first_stats.candidates_evaluated, first_stats.repairs)
                ),
            ),
        ],
        detail: Obj::new()
            .int("rows", rows as u64)
            .int("columns", table.num_columns() as u64)
            .int("threads", THREADS as u64)
            .int("passes", pass_s.len() as u64)
            .int("slice_rows", SLICE_ROWS as u64)
            .num("pass_p50_s", median(&pass_s))
            .int("setup_repeats", SETUP_REPEATS as u64)
            .num("precision", quality.precision)
            .num("recall", quality.recall)
            .int("errors", quality.errors as u64)
            .int("repairs", quality.repairs as u64),
    })
}

/// The serving layers on a model of this shape: in-process registry clean
/// and ingest of 16-row batches, then the same batches through an
/// in-process HTTP server.
pub fn probe_serving(
    tracer: &Tracer,
    parent: u64,
    args: &Args,
    artifact: &bclean_core::ModelArtifact,
    layers: &mut Layers,
) -> Result<(), String> {
    // One scoring thread per request, as the daemon runs (`--threads 1`).
    let mut artifact = artifact.clone();
    artifact.set_threads(1);
    let artifact = &artifact;
    let hash = artifact.schema_hash();
    let cleans = layers::matching_batches(&args.data.join("dirty.csv"), hash, PROBE_CLEANS)?;
    let ingests = layers::matching_batches(&args.data.join("holdout.csv"), hash, PROBE_INGESTS)?;
    let (clean_ms, _) = layers::probe_registry(tracer, parent, artifact, &cleans, &ingests, layers)?;
    layers::probe_http_in_process(tracer, parent, artifact, &cleans, &clean_ms, layers)
}
