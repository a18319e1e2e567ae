//! `hospital-stream`: the out-of-core path.
//!
//! Set-up (repeated, median reported): open the CSV source and read its
//! first chunk, i.e. the time until the pipeline has rows. Timed phase:
//! `clean_stream` over `CsvFileChunks` with 2048-row chunks, cold (no
//! encoded-dataset cache), streaming the cleaned rows to a file; repeated
//! until `--seconds` have passed.

use std::time::Instant;

use bclean_core::{clean_stream, repairs_to_csv, BClean, StreamOptions, Variant};
use bclean_data::{read_csv_file, ChunkLimits, ChunkSource, CsvFileChunks, EncodedDatasetBuilder};

use crate::layers::{self, Layers};
use crate::trace::Tracer;
use crate::util::{cell_text, digest, median, peak_rss_mb, repair_quality, Obj};
use crate::workloads::{CHUNK_ROWS, THREADS};
use crate::{Args, Checks, Outcome};

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPEATS: usize = 31;

pub fn run(args: &Args, tracer: &Tracer, checks: &mut Checks, root: u64) -> Result<Outcome, String> {
    let input = args.data.join("dirty.csv");
    let cleaner = BClean::new(Variant::PartitionedInference.config().with_threads(THREADS));
    let limits = ChunkLimits::rows(CHUNK_ROWS);
    let mut layers = Layers::new();

    let mut setup_s = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let (opened, secs) = tracer.timed("setup", Some(root), |_| -> Result<(), String> {
            let mut source = CsvFileChunks::open(&input, limits).map_err(|e| e.to_string())?;
            source.next_chunk().map_err(|e| e.to_string())?.ok_or("the source has no rows")?;
            Ok(())
        });
        opened?;
        setup_s.push(secs);
    }

    let options = StreamOptions {
        limits,
        cleaned_path: Some(args.out.join("cleaned.csv")),
        ..StreamOptions::default()
    };
    let phase = Instant::now();
    let mut op_s = Vec::new();
    let mut repair_digests = Vec::new();
    let mut first = None;
    loop {
        let (outcome, secs) = tracer.timed("core.stream.clean_stream", Some(root), |_| {
            let mut source = CsvFileChunks::open(&input, limits).map_err(|e| e.to_string())?;
            clean_stream(&cleaner, &mut source, &options).map_err(|e| e.to_string())
        });
        let outcome = outcome?;
        checks.ops(1, 0);
        op_s.push(secs);
        repair_digests.push(digest(repairs_to_csv(&outcome.repairs).as_bytes()));
        first.get_or_insert(outcome);
        // Stop before a further pass would run past `--seconds`.
        if phase.elapsed().as_secs_f64() + secs > args.seconds {
            break;
        }
    }
    let peak_rss = peak_rss_mb("self").ok_or("cannot read VmHWM of the worker process")?;
    let first = first.expect("the timed phase streams at least once");
    let rows = first.rows;

    let (quality, _) = tracer.timed("check.quality", Some(root), |_| -> Result<_, String> {
        checks.check(
            "repairs_repeat_within_run",
            repair_digests.iter().all(|d| *d == repair_digests[0]),
            format!("{} passes, digests {:?}", repair_digests.len(), repair_digests),
        );
        checks.check("cold_encode", !first.encode_skipped, "the encode pass ran (no cache)");
        let dirty = read_csv_file(&input).map_err(|e| e.to_string())?;
        let truth = read_csv_file(args.data.join("clean.csv")).map_err(|e| e.to_string())?;
        checks.check(
            "all_rows_cleaned",
            rows == dirty.num_rows(),
            format!("{rows} of {} rows", dirty.num_rows()),
        );
        let triples: Vec<_> = first.repairs.iter().map(|r| (r.at.row, r.at.col, r.to.to_string())).collect();
        Ok(repair_quality(&cell_text(&dirty), &cell_text(&truth), 0..rows, &triples))
    });
    let quality = quality?;
    checks.check("repairs_found", quality.repairs > 0, format!("{} repairs", quality.repairs));
    let artifact_bytes = first
        .artifact
        .as_ref()
        .ok_or("clean_stream returned no artifact")?
        .to_bytes()
        .map_err(|e| e.to_string())?;

    if tracer.enabled() {
        let (probed, _) = tracer.timed("probe", Some(root), |id| -> Result<(), String> {
            layers.insert("core.stream.clean_stream_s", median(&op_s));
            layers.insert("core.stream.chunks", first.chunks as f64);
            layers.insert("core.stream.peak_bytes", first.peak_bytes as f64);
            layers.insert("core.cleaner.clean_s", first.stats.duration.as_secs_f64());
            layers::record_clean_stats(&mut layers, &first.stats);
            layers::probe_chunk_read(tracer, id, &input, &mut layers)?;
            // The encode layer of this path: the builder fold over chunks
            // (reading time excluded).
            let mut source = CsvFileChunks::open(&input, limits).map_err(|e| e.to_string())?;
            let mut builder = EncodedDatasetBuilder::new(source.schema().arity());
            let mut fold_s = 0.0;
            while let Some(chunk) = source.next_chunk().map_err(|e| e.to_string())? {
                fold_s +=
                    tracer.timed("data.encoded.builder_fold", Some(id), |_| builder.push_batch(&chunk)).1;
            }
            layers.insert("data.encoded.encode_s", fold_s);
            drop(builder.finish());
            let table = layers::probe_parse(tracer, id, &input, &mut layers)?;
            layers::probe_fit_layers(tracer, id, &cleaner, &table, &mut layers);
            let (artifact, fit_s) =
                tracer.timed("core.artifact.fit", Some(id), |_| cleaner.fit_artifact(&table));
            let (_, compile_s) = tracer.timed("core.artifact.compile", Some(id), |_| artifact.compile());
            layers.insert("core.artifact.fit_s", fit_s);
            layers.insert("core.artifact.compile_s", compile_s);
            layers::probe_store(tracer, id, &artifact, &mut layers)?;
            crate::batch::probe_serving(tracer, id, args, &artifact, &mut layers)
        });
        probed?;
    }

    // Share of the streaming call spent reading and encoding chunks, the
    // figure a decision on the encoded-dataset cache needs.
    let read_encode_share = match (layers.get("data.stream.read_s"), layers.get("data.encoded.encode_s")) {
        (Some(read), Some(encode)) => (read + encode) / median(&op_s),
        _ => f64::NAN,
    };
    let rows_per_s: Vec<f64> = op_s.iter().map(|s| rows as f64 / s).collect();
    let op_ms: Vec<f64> = op_s.iter().map(|s| s * 1e3).collect();
    let setup = median(&setup_s);
    let error_rate = checks.failed as f64 / checks.attempted.max(1) as f64;
    Ok(Outcome {
        e2e: vec![
            ("setup_s", setup),
            ("rows_per_s", median(&rows_per_s)),
            ("f1", quality.f1),
            ("peak_rss_mb", peak_rss),
            ("clean_p50_ms", median(&op_ms)),
        ],
        named: vec![
            ("setup_s", setup, "s"),
            ("stream_rows_per_s", median(&rows_per_s), "rows/s"),
            ("f1", quality.f1, "ratio"),
            ("peak_rss_mb", peak_rss, "MB"),
            ("error_rate", error_rate, "share"),
        ],
        layers,
        digests: vec![
            ("repairs", repair_digests[0].clone()),
            ("artifact", digest(&artifact_bytes)),
            ("chunks", first.chunks.to_string()),
            ("peak_bytes", first.peak_bytes.to_string()),
        ],
        detail: Obj::new()
            .int("rows", rows as u64)
            .int("threads", THREADS as u64)
            .int("chunk_rows", CHUNK_ROWS as u64)
            .int("passes", op_s.len() as u64)
            .int("chunks", first.chunks as u64)
            .int("peak_bytes_proxy", first.peak_bytes as u64)
            .num("peak_rss_mb", peak_rss)
            .num("read_encode_share", read_encode_share)
            .int("setup_repeats", SETUP_REPEATS as u64)
            .num("precision", quality.precision)
            .num("recall", quality.recall)
            .int("errors", quality.errors as u64)
            .int("repairs", quality.repairs as u64),
    })
}
