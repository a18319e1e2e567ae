//! `hospital-serve`: the resident daemon, as a `bclean serve` child process.
//!
//! Set-up (repeated, median reported): `bclean fit` on 10⁴ Hospital rows,
//! then start the daemon with 2 workers and wait until it is ready. Before
//! any load, one `/clean` response must byte-equal `repairs_to_csv` of an
//! in-process clean with the same artifact, and a serial pass over 64
//! batches gives the repair F1. The timed phase is open loop from two
//! client connections: requests are due on a fixed schedule and latency is
//! timed from when each was due. Reads are `/clean` requests of 16-row
//! batches; every 10th request is an `/ingest` of the next held-out batch,
//! in the same sequence on every run.
//!
//! Phases of the timed part:
//! - nominal: `NOMINAL_REQUESTS` requests at `NOMINAL_RPS` →
//!   `clean_p50_ms`, `clean_p99_ms`, `ingest_p50_ms`, `ingest_p95_ms`;
//! - saturation: both connections closed loop, `/clean` only → `rows_per_s`;
//! - ladder: the fixed rates of `LADDER_RPS`, stopping at the first rate
//!   that misses `CLEAN_P99_LIMIT_MS`, fails a request or builds a growing
//!   backlog → `max_clean_rps`.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bclean_core::{repairs_to_csv, BClean, ModelArtifact, Variant};
use bclean_data::read_csv_file;
use bclean_serve::http::client;

use crate::layers::{self, Batch, Layers, REQUEST_TIMEOUT};
use crate::trace::Tracer;
use crate::util::{
    cell_text, digest, median, parse_repairs_csv, peak_rss_mb, percentile, repair_quality, Obj,
};
use crate::workloads::{BATCH_ROWS, SERVE_CONNECTIONS, SERVE_WORKERS, THREADS};
use crate::{Args, Checks, Outcome};

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Batches of the serial pre-load pass (repair F1, HTTP overhead).
const F1_BATCHES: usize = 64;
/// Distinct `/clean` batches the load cycles through.
const LOAD_BATCHES: usize = 256;
/// Distinct held-out `/ingest` batches (cycled in order).
const INGEST_BATCHES: usize = 256;
/// Every `INGEST_EVERY`-th request is an `/ingest`.
const INGEST_EVERY: usize = 10;
/// Requests of the nominal phase: enough that `ingest_p95_ms` keeps at
/// least ten samples beyond it (2000 requests carry 200 ingests).
const NOMINAL_REQUESTS: usize = 2000;
/// Request rate of the nominal phase (requests/s, all kinds).
const NOMINAL_RPS: f64 = 80.0;
/// Request rates of the ladder (requests/s, all kinds), ascending.
const LADDER_RPS: &[f64] = &[40.0, 60.0, 80.0, 100.0, 120.0, 140.0, 160.0, 180.0];
/// Latency limit on `/clean` p99 for a ladder rate to pass.
const CLEAN_P99_LIMIT_MS: f64 = 50.0;
/// A ladder rate builds a growing backlog when the median lag of its last
/// tenth of requests exceeds that of its first tenth by more than this.
const BACKLOG_GROWTH_MS: f64 = 20.0;
/// Share of `--seconds` given to the closed-loop saturation phase; the
/// ladder gets what the nominal and saturation phases leave, and each rung
/// at least `MIN_RUNG_S`.
const SATURATION_SHARE: f64 = 0.25;
/// The saturation phase's throughput is the median over windows of this
/// length, so a slowdown of the shared host lasting a second or two moves
/// one window, not the result.
const SATURATION_WINDOW_S: f64 = 1.0;
const MIN_RUNG_S: f64 = 0.5;

/// A `bclean serve` child process; stopped over the wire, killed if still
/// running when dropped.
struct Daemon {
    child: Child,
    addr: SocketAddr,
    drain: Option<JoinHandle<()>>,
}

impl Daemon {
    fn start(bclean: &Path, model: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(bclean)
            .args(["serve", "-m"])
            .arg(model)
            .args(["--addr", "127.0.0.1:0", "--workers", &SERVE_WORKERS.to_string(), "--threads", "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bclean.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        let addr = loop {
            line.clear();
            let read = reader.read_line(&mut line).map_err(|e| format!("reading daemon output: {e}"))?;
            if read == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("bclean serve exited before it was ready".into());
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                let addr = rest.split_whitespace().next().unwrap_or_default();
                break addr.parse::<SocketAddr>().map_err(|e| format!("bad daemon address {addr:?}: {e}"))?;
            }
        };
        // Keep draining stdout so the daemon never blocks on a full pipe.
        let drain = std::thread::spawn(move || {
            let mut sink = String::new();
            while reader.read_line(&mut sink).map(|n| n > 0).unwrap_or(false) {
                sink.clear();
            }
        });
        Ok(Daemon { child, addr, drain: Some(drain) })
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    fn get(&self, target: &str) -> Result<String, String> {
        let response = client::request(self.addr, "GET", target, &[], REQUEST_TIMEOUT)
            .map_err(|e| format!("{target}: {e}"))?;
        Ok(response.text())
    }

    /// `POST /shutdown`, then wait for the process to exit.
    fn stop(mut self) -> Result<(), String> {
        let acknowledged =
            client::request(self.addr, "POST", "/shutdown", &[], REQUEST_TIMEOUT).map(|r| r.status == 200);
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(_) => break,
                None if Instant::now() > deadline => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("daemon did not exit after /shutdown".into());
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
        match acknowledged {
            Ok(true) => Ok(()),
            _ => Err("/shutdown was not acknowledged".into()),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// One request of an open- or closed-loop phase (times in seconds from the
/// phase start).
#[derive(Debug, Clone, Copy)]
struct Sample {
    ingest: bool,
    due: f64,
    sent: f64,
    done: f64,
    ok: bool,
}

impl Sample {
    fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }

    fn lag_ms(&self) -> f64 {
        (self.sent - self.due).max(0.0) * 1e3
    }
}

/// The request mix: request `g` of the run is an ingest when
/// `g % INGEST_EVERY == INGEST_EVERY - 1`, drawing held-out batch
/// `g / INGEST_EVERY` (cycled); otherwise a clean of batch `g` (cycled).
/// With no ingest batches every request is a clean.
struct Mix<'a> {
    cleans: &'a [Batch],
    ingests: &'a [Batch],
}

impl Mix<'_> {
    fn request(&self, g: usize) -> (bool, &str) {
        if !self.ingests.is_empty() && g % INGEST_EVERY == INGEST_EVERY - 1 {
            (true, self.ingests[(g / INGEST_EVERY) % self.ingests.len()].csv.as_str())
        } else {
            (false, self.cleans[g % self.cleans.len()].csv.as_str())
        }
    }
}

/// Send requests `first..first + count` of the mix from `SERVE_CONNECTIONS`
/// connections. With `rate = Some(r)` request `i` is due at `i / r` seconds
/// (open loop); with `None` each connection sends its next request when the
/// previous one completes, until `seconds` have passed (closed loop).
#[allow(clippy::too_many_arguments)]
fn drive(
    tracer: &Tracer,
    parent: u64,
    addr: SocketAddr,
    mix: &Mix<'_>,
    first: usize,
    count: usize,
    rate: Option<f64>,
    seconds: f64,
) -> Result<Vec<Sample>, String> {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let results: Vec<Result<Vec<Sample>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SERVE_CONNECTIONS)
            .map(|_| {
                let next = &next;
                scope.spawn(move || -> Result<Vec<Sample>, String> {
                    let mut connection = client::Connection::connect(addr, REQUEST_TIMEOUT)
                        .map_err(|e| format!("connect: {e}"))?;
                    let mut samples = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        let due = match rate {
                            Some(r) => {
                                let due = i as f64 / r;
                                let wait = due - start.elapsed().as_secs_f64();
                                if wait > 0.0 {
                                    std::thread::sleep(Duration::from_secs_f64(wait));
                                }
                                due
                            }
                            None => {
                                if start.elapsed().as_secs_f64() >= seconds {
                                    break;
                                }
                                start.elapsed().as_secs_f64()
                            }
                        };
                        let (ingest, body) = mix.request(first + i);
                        let target = if ingest { "/ingest" } else { "/clean" };
                        let sent_at = Instant::now();
                        let response = connection.request("POST", target, body.as_bytes());
                        let done_at = Instant::now();
                        let name = if ingest { "serve.http.ingest" } else { "serve.http.clean" };
                        tracer.record(name, Some(parent), Some((first + i) as u64), sent_at, done_at);
                        let ok = matches!(&response, Ok(r) if r.status == 200);
                        samples.push(Sample {
                            ingest,
                            due,
                            sent: sent_at.duration_since(start).as_secs_f64(),
                            done: done_at.duration_since(start).as_secs_f64(),
                            ok,
                        });
                        if response.is_err() {
                            // The connection is unusable after an I/O error.
                            connection = client::Connection::connect(addr, REQUEST_TIMEOUT)
                                .map_err(|e| format!("reconnect: {e}"))?;
                        }
                    }
                    Ok(samples)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut all = Vec::new();
    for r in results {
        all.extend(r?);
    }
    all.sort_by(|a, b| a.due.partial_cmp(&b.due).expect("finite times"));
    Ok(all)
}

/// Rows cleaned per second in each whole `SATURATION_WINDOW_S` window of a
/// phase that ran for `seconds`: the rows of the cleans completing in the
/// window after its first, over the time from its first completion to its
/// last.
fn window_rows_per_s(samples: &[Sample], seconds: f64) -> Vec<f64> {
    let windows = (seconds / SATURATION_WINDOW_S).floor() as usize;
    let mut done: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for sample in samples.iter().filter(|s| !s.ingest && s.ok) {
        if let Some(window) = done.get_mut((sample.done / SATURATION_WINDOW_S) as usize) {
            window.push(sample.done);
        }
    }
    done.iter()
        .filter(|w| w.len() >= 2)
        .map(|w| {
            let (first, last) = w.iter().fold((f64::MAX, f64::MIN), |(a, b), &t| (a.min(t), b.max(t)));
            ((w.len() - 1) * BATCH_ROWS) as f64 / (last - first)
        })
        .collect()
}

fn latencies(samples: &[Sample], ingest: bool) -> Vec<f64> {
    samples.iter().filter(|s| s.ingest == ingest && s.ok).map(Sample::latency_ms).collect()
}

fn failures(samples: &[Sample]) -> u64 {
    samples.iter().filter(|s| !s.ok).count() as u64
}

/// Median lag of the last tenth of requests minus that of the first tenth.
fn backlog_growth_ms(samples: &[Sample]) -> f64 {
    let tenth = (samples.len() / 10).max(1);
    let lags: Vec<f64> = samples.iter().map(Sample::lag_ms).collect();
    median(&lags[lags.len() - tenth..]) - median(&lags[..tenth])
}

/// A JSON number from a `/metrics` body (`"key": 12`).
fn metrics_field(body: &str, key: &str) -> Option<u64> {
    let at = body.find(&format!("\"{key}\":"))?;
    body[at + key.len() + 3..].trim_start().split(|c: char| !c.is_ascii_digit()).next()?.parse().ok()
}

pub fn run(args: &Args, tracer: &Tracer, checks: &mut Checks, root: u64) -> Result<Outcome, String> {
    let input = args.data.join("dirty.csv");
    let model_path = args.out.join("model.bclean");
    let mut layers = Layers::new();

    let mut setup_s = Vec::new();
    let mut daemon = None;
    for i in 0..SETUP_REPEATS {
        let (started, secs) = tracer.timed("setup", Some(root), |id| -> Result<Daemon, String> {
            let (status, _) = tracer.timed("cli.fit", Some(id), |_| {
                Command::new(&args.bclean)
                    .arg("fit")
                    .arg(&input)
                    .arg("-o")
                    .arg(&model_path)
                    .args(["--variant", "pi", "--threads", &THREADS.to_string()])
                    .stdin(Stdio::null())
                    .stdout(Stdio::null())
                    .status()
            });
            let status = status.map_err(|e| format!("cannot run bclean fit: {e}"))?;
            if !status.success() {
                return Err(format!("bclean fit failed: {status}"));
            }
            tracer.timed("cli.serve_start", Some(id), |_| Daemon::start(&args.bclean, &model_path)).0
        });
        let started = started?;
        setup_s.push(secs);
        if i + 1 < SETUP_REPEATS {
            started.stop()?;
        } else {
            daemon = Some(started);
        }
    }
    let daemon = daemon.expect("at least one set-up ran");

    // Requests and the in-process reference, prepared before any traffic.
    let (prepared, _) = tracer.timed("prepare", Some(root), |_| -> Result<_, String> {
        let mut artifact =
            ModelArtifact::load(&model_path).map_err(|e| format!("cannot load the model: {e}"))?;
        artifact.set_threads(1);
        let hash = artifact.schema_hash();
        let cleans = layers::matching_batches(&input, hash, LOAD_BATCHES)?;
        let ingests = layers::matching_batches(&args.data.join("holdout.csv"), hash, INGEST_BATCHES)?;
        let expected = repairs_to_csv(&artifact.compile().clean(&cleans[0].table).repairs);
        Ok((artifact, cleans, ingests, expected))
    });
    let (artifact, cleans, ingests, expected) = prepared?;
    let f1_batches = &cleans[..F1_BATCHES.min(cleans.len())];

    // Pre-load pass: byte-exactness of the first response, then repair F1
    // over the serial pass (before any ingest, so it repeats exactly).
    let (pass, _) = tracer
        .timed("preload_pass", Some(root), |id| layers::clean_over_http(tracer, id, daemon.addr, f1_batches));
    let (bodies, http_ms) = pass?;
    checks.ops(bodies.len() as u64, 0);
    // The gated peak is the daemon's before any write: under writes it adds
    // transient snapshot copies whose overlap depends on request timing
    // (that peak is kept as `peak_rss_under_load_mb`).
    let peak_rss = peak_rss_mb(&daemon.pid()).ok_or("cannot read VmHWM of the daemon")?;
    checks.check(
        "clean_matches_in_process",
        bodies[0] == expected.as_bytes(),
        format!("/clean {} bytes, in-process repairs_to_csv {} bytes", bodies[0].len(), expected.len()),
    );

    // Timed phase.
    let (phases, _) = tracer.timed("load", Some(root), |id| -> Result<_, String> {
        let mix = Mix { cleans: &cleans, ingests: &ingests };
        let nominal_s = NOMINAL_REQUESTS as f64 / NOMINAL_RPS;
        let nominal_count = NOMINAL_REQUESTS;
        let sat_s = args.seconds * SATURATION_SHARE;
        let rung_s = ((args.seconds - nominal_s - sat_s) / LADDER_RPS.len() as f64).max(MIN_RUNG_S);
        let (nominal, _) = tracer.timed("load.nominal", Some(id), |pid| {
            drive(tracer, pid, daemon.addr, &mix, 0, nominal_count, Some(NOMINAL_RPS), nominal_s)
        });
        let nominal = nominal?;
        // Saturation directly follows the nominal phase, so it always starts
        // from the same model (the nominal phase's 200 ingests absorbed). It
        // sends reads only: ingests clone and recompile the model, and their
        // share of a closed loop moved the throughput by ±20% between runs.
        let reads = Mix { cleans: &cleans, ingests: &[] };
        let (saturation, elapsed) = tracer.timed("load.saturation", Some(id), |pid| {
            drive(tracer, pid, daemon.addr, &reads, nominal_count, usize::MAX, None, sat_s)
        });
        let saturation = saturation?;
        let mut next = nominal_count + saturation.len();
        let mut ladder = Vec::new();
        let (ladder_result, _) = tracer.timed("load.ladder", Some(id), |pid| -> Result<(), String> {
            for &rate in LADDER_RPS {
                let count = (rung_s * rate).round() as usize;
                let samples = drive(tracer, pid, daemon.addr, &mix, next, count, Some(rate), rung_s)?;
                next += count;
                let p99 = percentile(&latencies(&samples, false), 0.99);
                let failed = failures(&samples);
                let growth = backlog_growth_ms(&samples);
                let pass = failed == 0 && p99 <= CLEAN_P99_LIMIT_MS && growth <= BACKLOG_GROWTH_MS;
                ladder.push((rate, p99, growth, failed, pass, samples));
                if !pass {
                    break;
                }
            }
            Ok(())
        });
        ladder_result?;
        Ok((nominal, ladder, saturation, elapsed))
    });
    let (nominal, ladder, saturation, saturation_elapsed) = phases?;
    let load_rss = peak_rss_mb(&daemon.pid()).ok_or("cannot read VmHWM of the daemon")?;

    let all_samples = nominal.iter().chain(ladder.iter().flat_map(|r| r.5.iter())).chain(saturation.iter());
    let (sent, failed_requests) = all_samples.fold((0u64, 0u64), |(n, f), s| (n + 1, f + u64::from(!s.ok)));
    checks.ops(sent, failed_requests);

    // Cross-check the daemon's own counters against the client's.
    let (cross, _) = tracer.timed("check.metrics", Some(root), |_| daemon.get("/metrics"));
    let metrics_body = cross?;
    let client_cleans = bodies.len() as u64
        + nominal
            .iter()
            .chain(ladder.iter().flat_map(|r| r.5.iter()))
            .chain(saturation.iter())
            .filter(|s| !s.ingest && s.ok)
            .count() as u64;
    let served_cleans = metrics_field(&metrics_body, "clean_requests");
    let served_errors = metrics_field(&metrics_body, "errors");
    checks.check(
        "metrics_match_client",
        served_cleans == Some(client_cleans) && served_errors == Some(failed_requests),
        format!("daemon clean_requests {served_cleans:?} errors {served_errors:?}; client {client_cleans} cleans, {failed_requests} failures"),
    );
    let (stopped, _) = tracer.timed("shutdown", Some(root), |_| daemon.stop());
    stopped?;

    let (quality, _) = tracer.timed("check.quality", Some(root), |_| -> Result<_, String> {
        let dirty = read_csv_file(&input).map_err(|e| e.to_string())?;
        let truth = read_csv_file(args.data.join("clean.csv")).map_err(|e| e.to_string())?;
        let names: Vec<String> = artifact.attribute_names().to_vec();
        let mut triples = Vec::new();
        for (batch, body) in f1_batches.iter().zip(&bodies) {
            triples.extend(parse_repairs_csv(&String::from_utf8_lossy(body), &names, batch.start)?);
        }
        let rows = f1_batches.iter().flat_map(|b| b.start..b.start + BATCH_ROWS);
        Ok(repair_quality(&cell_text(&dirty), &cell_text(&truth), rows, &triples))
    });
    let quality = quality?;
    checks.check("repairs_found", quality.repairs > 0, format!("{} repairs", quality.repairs));

    if tracer.enabled() {
        let (probed, _) = tracer.timed("probe", Some(root), |id| -> Result<(), String> {
            let cleaner = BClean::new(Variant::PartitionedInference.config().with_threads(THREADS));
            let table = layers::probe_parse(tracer, id, &input, &mut layers)?;
            layers::probe_fit_layers(tracer, id, &cleaner, &table, &mut layers);
            let (fitted, fit_s) =
                tracer.timed("core.artifact.fit", Some(id), |_| cleaner.fit_artifact(&table));
            let (_, compile_s) = tracer.timed("core.artifact.compile", Some(id), |_| artifact.compile());
            layers.insert("core.artifact.fit_s", fit_s);
            layers.insert("core.artifact.compile_s", compile_s);
            drop(fitted);
            layers::probe_store(tracer, id, &artifact, &mut layers)?;
            let probe_ingests = &ingests[..crate::batch::PROBE_INGESTS.min(ingests.len())];
            let (clean_ms, stats) =
                layers::probe_registry(tracer, id, &artifact, f1_batches, probe_ingests, &mut layers)?;
            layers.insert("core.cleaner.clean_s", clean_ms.iter().sum::<f64>() / 1e3);
            layers::record_clean_stats(&mut layers, &stats);
            layers.insert("serve.http.overhead_ms", median(&http_ms) - median(&clean_ms));
            layers::probe_chunk_read(tracer, id, &input, &mut layers)?;
            layers::probe_stream(tracer, id, &cleaner, &args.data.join("head.csv"), &mut layers)
        });
        probed?;
    }

    let clean_nominal = latencies(&nominal, false);
    let ingest_nominal = latencies(&nominal, true);
    let clean_p50 = median(&clean_nominal);
    let clean_p99 = percentile(&clean_nominal, 0.99);
    let ingest_p50 = median(&ingest_nominal);
    let ingest_p95 = percentile(&ingest_nominal, 0.95);
    let max_rps = ladder.iter().take_while(|r| r.4).last().map_or(0.0, |r| r.0);
    let max_clean_rps = max_rps * (INGEST_EVERY - 1) as f64 / INGEST_EVERY as f64;
    let rows_per_s = median(&window_rows_per_s(&saturation, saturation_elapsed));
    let setup = median(&setup_s);
    let error_rate = checks.failed as f64 / checks.attempted.max(1) as f64;
    let lags: Vec<f64> = nominal.iter().map(Sample::lag_ms).collect();
    let ladder_obj: Vec<Obj> = ladder
        .iter()
        .map(|(rate, p99, growth, failed, pass, samples)| {
            Obj::new()
                .num("rate_rps", *rate)
                .int("requests", samples.len() as u64)
                .num("clean_p99_ms", *p99)
                .num("backlog_growth_ms", *growth)
                .int("failed", *failed)
                .bool("pass", *pass)
        })
        .collect();
    Ok(Outcome {
        e2e: vec![
            ("setup_s", setup),
            ("rows_per_s", rows_per_s),
            ("f1", quality.f1),
            ("peak_rss_mb", peak_rss),
            ("clean_p50_ms", clean_p50),
        ],
        named: vec![
            ("setup_s", setup, "s"),
            ("f1", quality.f1, "ratio"),
            ("peak_rss_mb", peak_rss, "MB"),
            ("peak_rss_under_load_mb", load_rss, "MB"),
            ("clean_p50_ms", clean_p50, "ms"),
            ("clean_p99_ms", clean_p99, "ms"),
            ("ingest_p50_ms", ingest_p50, "ms"),
            ("ingest_p95_ms", ingest_p95, "ms"),
            ("max_clean_rps", max_clean_rps, "req/s"),
            ("saturation_rows_per_s", rows_per_s, "rows/s"),
            ("error_rate", error_rate, "share"),
        ],
        layers,
        digests: vec![
            ("preload_repairs", digest(&bodies.concat())),
            ("artifact", digest(&artifact.to_bytes().map_err(|e| e.to_string())?)),
        ],
        detail: Obj::new()
            .int("model_rows", artifact.num_rows() as u64)
            .int("threads", 1)
            .int("workers", SERVE_WORKERS as u64)
            .int("connections", SERVE_CONNECTIONS as u64)
            .int("batch_rows", BATCH_ROWS as u64)
            .int("ingest_every", INGEST_EVERY as u64)
            .num("nominal_rps", NOMINAL_RPS)
            .int("nominal_clean_samples", clean_nominal.len() as u64)
            .int("nominal_ingest_samples", ingest_nominal.len() as u64)
            .num("clean_p99_limit_ms", CLEAN_P99_LIMIT_MS)
            .num("serve.client.wait_ms", lags.iter().sum::<f64>() / lags.len().max(1) as f64)
            .num("serve.client.late_ms", lags.iter().copied().fold(0.0, f64::max))
            .int("serve.metrics.clean_requests", served_cleans.unwrap_or(0))
            .int("serve.metrics.errors", served_errors.unwrap_or(0))
            .list("ladder", ladder_obj)
            .int("saturation_requests", saturation.len() as u64)
            .int("load_batches", cleans.len() as u64)
            .int("ingest_batches", ingests.len() as u64)
            .int("setup_repeats", SETUP_REPEATS as u64)
            .num("precision", quality.precision)
            .num("recall", quality.recall)
            .int("errors", quality.errors as u64)
            .int("repairs", quality.repairs as u64),
    })
}
