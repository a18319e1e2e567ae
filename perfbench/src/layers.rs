//! Per-layer measurements, taken from outside the product by wrapping calls
//! to each crate's public functions in spans.
//!
//! Every workload reports every per-layer metric. Where the workload's own
//! path calls a layer, the metric comes from that call; where it does not
//! (for instance the streaming path on `wide-batch`), a probe calls the
//! layer on the workload's own inputs so the number still describes this
//! data shape.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bclean_bayesnet::{learn_structure_encoded, NodeCounts};
use bclean_core::{
    clean_stream, BClean, CleaningStats, CompensatoryModel, ConstraintSet, ModelArtifact, ParallelExecutor,
    StreamOptions,
};
use bclean_data::{
    parse_csv, read_csv_file, AttrType, ChunkLimits, ChunkSource, CsvFileChunks, Dataset, EncodedDataset,
};
use bclean_serve::http::client;
use bclean_serve::registry::schema_hash_of;
use bclean_serve::{ModelRegistry, Server, ServerConfig};

use crate::trace::Tracer;
use crate::util::{csv_window, median, read_text};
use crate::workloads::{BATCH_ROWS, CHUNK_ROWS, THREADS};

/// Every per-layer metric, with its unit, in report order.
pub const METRICS: &[(&str, &str)] = &[
    ("data.csv.parse_s", "s"),
    ("data.stream.read_s", "s"),
    ("data.encoded.encode_s", "s"),
    ("data.encoded.distinct_values", "count"),
    ("bayesnet.structure.learn_s", "s"),
    ("bayesnet.structure.edges", "count"),
    ("bayesnet.counts.accumulate_s", "s"),
    ("core.compensatory.build_s", "s"),
    ("core.artifact.fit_s", "s"),
    ("core.artifact.compile_s", "s"),
    ("core.cleaner.clean_s", "s"),
    ("core.cleaner.cells_examined", "count"),
    ("core.cleaner.cells_skipped", "count"),
    ("core.cleaner.candidates_evaluated", "count"),
    ("core.cleaner.repairs", "count"),
    ("core.cleaner.candidates_per_cell", "ratio"),
    ("core.cleaner.repairs_per_1k_candidates", "ratio"),
    ("core.stream.clean_stream_s", "s"),
    ("core.stream.chunks", "count"),
    ("core.stream.peak_bytes", "bytes"),
    ("store.persist.save_s", "s"),
    ("store.persist.load_s", "s"),
    ("store.persist.artifact_bytes", "bytes"),
    ("serve.registry.clean_ms", "ms"),
    ("serve.registry.ingest_ms", "ms"),
    ("serve.http.overhead_ms", "ms"),
    ("trace.coverage", "share"),
];

/// Layer metric values collected during one run.
pub type Layers = BTreeMap<&'static str, f64>;

/// Request timeout of every benchmark client connection.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);

/// Record the `CleaningStats` counters and the two ratios (candidates per
/// examined cell; repairs per thousand candidates scored).
pub fn record_clean_stats(layers: &mut Layers, stats: &CleaningStats) {
    let examined = stats.cells_examined as f64;
    let candidates = stats.candidates_evaluated as f64;
    layers.insert("core.cleaner.cells_examined", examined);
    layers.insert("core.cleaner.cells_skipped", stats.cells_skipped as f64);
    layers.insert("core.cleaner.candidates_evaluated", candidates);
    layers.insert("core.cleaner.repairs", stats.repairs as f64);
    layers
        .insert("core.cleaner.candidates_per_cell", if examined > 0.0 { candidates / examined } else { 0.0 });
    layers.insert(
        "core.cleaner.repairs_per_1k_candidates",
        if candidates > 0.0 { 1000.0 * stats.repairs as f64 / candidates } else { 0.0 },
    );
}

/// The fit decomposed into its layers on `dataset`: encode, structure
/// search, CPT counting (one `NodeCounts` pass per node, serial) and the
/// compensatory build. Each call repeats work `fit_artifact` does inside.
pub fn probe_fit_layers(
    tracer: &Tracer,
    parent: u64,
    cleaner: &BClean,
    dataset: &Dataset,
    layers: &mut Layers,
) {
    let (encoded, encode_s) =
        tracer.timed("data.encoded.encode", Some(parent), |_| EncodedDataset::from_dataset(dataset));
    layers.entry("data.encoded.encode_s").or_insert(encode_s);
    let distinct: usize = encoded.dicts().iter().map(|d| d.cardinality()).sum();
    layers.insert("data.encoded.distinct_values", distinct as f64);
    let types: Vec<AttrType> = dataset.schema().attributes().iter().map(|a| a.ty).collect();
    let (structure, learn_s) = tracer.timed("bayesnet.structure.learn", Some(parent), |_| {
        learn_structure_encoded(&encoded, &types, cleaner.config().structure)
    });
    layers.insert("bayesnet.structure.learn_s", learn_s);
    layers.insert("bayesnet.structure.edges", structure.dag.num_edges() as f64);
    let (_, counts_s) = tracer.timed("bayesnet.counts.accumulate", Some(parent), |_| {
        (0..encoded.num_columns())
            .map(|node| NodeCounts::accumulate(&encoded, node, &structure.dag.parents(node)))
            .collect::<Vec<_>>()
    });
    layers.insert("bayesnet.counts.accumulate_s", counts_s);
    let (_, build_s) = tracer.timed("core.compensatory.build", Some(parent), |_| {
        CompensatoryModel::build_parallel(
            dataset,
            &encoded,
            &ConstraintSet::new(),
            cleaner.config().params,
            &ParallelExecutor::new(THREADS),
        )
    });
    layers.insert("core.compensatory.build_s", build_s);
}

/// `ModelArtifact::to_bytes` / `from_bytes`; fails when the decoded
/// artifact does not re-encode to the same bytes.
pub fn probe_store(
    tracer: &Tracer,
    parent: u64,
    artifact: &ModelArtifact,
    layers: &mut Layers,
) -> Result<(), String> {
    let (bytes, save_s) = tracer.timed("store.persist.save", Some(parent), |_| artifact.to_bytes());
    let bytes = bytes.map_err(|e| format!("to_bytes failed: {e}"))?;
    let (loaded, load_s) =
        tracer.timed("store.persist.load", Some(parent), |_| ModelArtifact::from_bytes(&bytes));
    let loaded = loaded.map_err(|e| format!("from_bytes failed: {e}"))?;
    layers.insert("store.persist.save_s", save_s);
    layers.insert("store.persist.load_s", load_s);
    layers.insert("store.persist.artifact_bytes", bytes.len() as f64);
    if loaded.to_bytes().map_err(|e| format!("to_bytes failed: {e}"))? != bytes {
        return Err("artifact bytes change across a save/load round trip".into());
    }
    Ok(())
}

/// A request batch: its CSV text, its parsed table and its first row in
/// the source file.
#[derive(Debug, Clone)]
pub struct Batch {
    pub start: usize,
    pub csv: String,
    pub table: Dataset,
}

/// Up to `want` consecutive `BATCH_ROWS`-row windows of the CSV at `path`
/// whose parsed schema matches the model's (CSV type inference is per
/// document, so a short window can infer a narrower type than the full
/// file; such a batch would be refused exactly as a one-shot run would
/// refuse it). Deterministic in the file's bytes.
pub fn matching_batches(path: &Path, hash: u64, want: usize) -> Result<Vec<Batch>, String> {
    let text = read_text(path)?;
    let lines: Vec<&str> = text.lines().collect();
    let rows = lines.len().saturating_sub(1);
    let mut out = Vec::new();
    let mut start = 0;
    while start + BATCH_ROWS <= rows && out.len() < want {
        let csv = csv_window(&lines, start, BATCH_ROWS);
        let table = parse_csv(&csv).map_err(|e| format!("batch at row {start} does not parse: {e}"))?;
        if schema_hash_of(table.schema()) == hash {
            out.push(Batch { start, csv, table });
        }
        start += BATCH_ROWS;
    }
    if out.is_empty() {
        return Err(format!("no {BATCH_ROWS}-row window of {} matches the model schema", path.display()));
    }
    Ok(out)
}

/// In-process `ModelRegistry`: `snapshot.model().clean` on every clean
/// batch and `ModelRegistry::ingest` of every ingest batch. Records the
/// median milliseconds of each and returns the clean times in ms (in batch
/// order) and the summed cleaning statistics.
pub fn probe_registry(
    tracer: &Tracer,
    parent: u64,
    artifact: &ModelArtifact,
    cleans: &[Batch],
    ingests: &[Batch],
    layers: &mut Layers,
) -> Result<(Vec<f64>, CleaningStats), String> {
    let registry = ModelRegistry::new();
    let hash = registry.register(artifact.clone());
    let mut clean_ms = Vec::new();
    let mut stats = CleaningStats::default();
    for batch in cleans {
        let snapshot = registry.snapshot(hash).map_err(|e| e.to_string())?;
        let (result, secs) =
            tracer.timed("serve.registry.clean", Some(parent), |_| snapshot.model().clean(&batch.table));
        clean_ms.push(secs * 1e3);
        stats.merge(&result.stats);
    }
    let mut ingest_ms = Vec::new();
    for batch in ingests {
        let (receipt, secs) =
            tracer.timed("serve.registry.ingest", Some(parent), |_| registry.ingest(hash, &batch.table));
        receipt.map_err(|e| format!("in-process ingest failed: {e}"))?;
        ingest_ms.push(secs * 1e3);
    }
    layers.insert("serve.registry.clean_ms", median(&clean_ms));
    layers.insert("serve.registry.ingest_ms", median(&ingest_ms));
    Ok((clean_ms, stats))
}

/// Serial `/clean` of each batch over one keep-alive connection; returns
/// the response bodies and per-request latencies in ms.
pub fn clean_over_http(
    tracer: &Tracer,
    parent: u64,
    addr: SocketAddr,
    batches: &[Batch],
) -> Result<(Vec<Vec<u8>>, Vec<f64>), String> {
    let mut connection =
        client::Connection::connect(addr, REQUEST_TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    let mut bodies = Vec::new();
    let mut latencies = Vec::new();
    for (i, batch) in batches.iter().enumerate() {
        let start = Instant::now();
        let response =
            connection.request("POST", "/clean", batch.csv.as_bytes()).map_err(|e| format!("/clean: {e}"))?;
        let end = Instant::now();
        tracer.record("serve.http.clean", Some(parent), Some(i as u64), start, end);
        if response.status != 200 {
            return Err(format!("/clean returned {}: {}", response.status, response.text()));
        }
        latencies.push(end.duration_since(start).as_secs_f64() * 1e3);
        bodies.push(response.body);
    }
    Ok((bodies, latencies))
}

/// HTTP overhead on the workloads without a daemon: an in-process
/// `bclean_serve::Server` (one worker) serves the same batches serially;
/// the overhead is the median endpoint latency minus the median in-process
/// clean time.
pub fn probe_http_in_process(
    tracer: &Tracer,
    parent: u64,
    artifact: &ModelArtifact,
    batches: &[Batch],
    in_process_ms: &[f64],
    layers: &mut Layers,
) -> Result<(), String> {
    let registry = Arc::new(ModelRegistry::new());
    registry.register(artifact.clone());
    let config = ServerConfig { addr: "127.0.0.1:0".to_string(), workers: 1 };
    let server =
        Server::bind(&config, registry).map_err(|e| format!("cannot bind the in-process server: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let shutdown = server.shutdown_handle().map_err(|e| e.to_string())?;
    let handle = std::thread::spawn(move || server.run());
    let result = clean_over_http(tracer, parent, addr, batches);
    shutdown.shutdown();
    handle.join().map_err(|_| "server thread panicked".to_string())?.map_err(|e| e.to_string())?;
    let (_, latencies) = result?;
    layers.insert("serve.http.overhead_ms", median(&latencies) - median(in_process_ms));
    Ok(())
}

/// Time draining a `CsvFileChunks` source alone (no encode, no fit).
pub fn probe_chunk_read(
    tracer: &Tracer,
    parent: u64,
    path: &Path,
    layers: &mut Layers,
) -> Result<(), String> {
    let (rows, read_s) = tracer.timed("data.stream.read", Some(parent), |_| -> Result<usize, String> {
        let mut source =
            CsvFileChunks::open(path, ChunkLimits::rows(CHUNK_ROWS)).map_err(|e| e.to_string())?;
        let mut rows = 0;
        while let Some(chunk) = source.next_chunk().map_err(|e| e.to_string())? {
            rows += chunk.num_rows();
        }
        Ok(rows)
    });
    rows?;
    layers.insert("data.stream.read_s", read_s);
    Ok(())
}

/// `read_csv_file` of the workload's main input.
pub fn probe_parse(
    tracer: &Tracer,
    parent: u64,
    path: &Path,
    layers: &mut Layers,
) -> Result<Dataset, String> {
    let (table, parse_s) = tracer.timed("data.csv.parse", Some(parent), |_| read_csv_file(path));
    layers.insert("data.csv.parse_s", parse_s);
    table.map_err(|e| e.to_string())
}

/// `clean_stream` over a head file of the workload's input (the streaming
/// layer on workloads whose own path is not streaming).
pub fn probe_stream(
    tracer: &Tracer,
    parent: u64,
    cleaner: &BClean,
    path: &Path,
    layers: &mut Layers,
) -> Result<(), String> {
    let (outcome, secs) = tracer.timed("core.stream.clean_stream", Some(parent), |_| {
        let mut source =
            CsvFileChunks::open(path, ChunkLimits::rows(CHUNK_ROWS)).map_err(|e| e.to_string())?;
        let options = StreamOptions { limits: ChunkLimits::rows(CHUNK_ROWS), ..StreamOptions::default() };
        clean_stream(cleaner, &mut source, &options).map_err(|e| e.to_string())
    });
    let outcome = outcome?;
    layers.insert("core.stream.clean_stream_s", secs);
    layers.insert("core.stream.chunks", outcome.chunks as f64);
    layers.insert("core.stream.peak_bytes", outcome.peak_bytes as f64);
    Ok(())
}
