//! Diff two `BENCH_*.json` snapshots and (optionally) gate on regressions.
//!
//! ```text
//! cargo run -p bclean-bench --bin bench_diff -- <baseline.json> <candidate.json> \
//!     [--gate <frac>] [--floor <abs>] [--summary <path>]
//! ```
//!
//! Both files must carry measured records in one (or both) of two shapes:
//!
//! * a `speedups` array of `{variant, threads, speedup}` records (the
//!   `experiments` binary's `bench_clean` / `bench_fit` / `bench_stream` /
//!   `bench_scale`), matched on **`(variant, threads)`** — snapshots sweep
//!   multiple worker-thread counts, so a one-thread baseline never gates a
//!   four-thread candidate. The legacy single-thread
//!   `speedup_encoded_vs_reference` object (pre-sweep snapshots) is still
//!   accepted.
//! * a `latencies` array of `{endpoint, connections, reqs_per_sec, p50_ms,
//!   p99_ms}` records (`bench_serve`'s `BENCH_serve.json`), matched on
//!   **`(endpoint, connections)`**.
//!
//! The tool prints a markdown table of the records and their deltas; with
//! `--summary` the same table is appended to a file (CI passes
//! `$GITHUB_STEP_SUMMARY`).
//!
//! With `--gate <frac>` the run becomes the CI perf-regression gate. Every
//! matched speedup record's candidate must reach `max(floor, frac ×
//! baseline)`, where `baseline` is the committed snapshot's speedup (the
//! thresholds therefore live in the committed `BENCH_*.json`, not in CI
//! config) and `floor` (`--floor`, default 1.2) is the absolute backstop
//! under which the measured engine would be barely faster than its
//! baseline. Every matched latency record must keep `reqs_per_sec ≥ frac ×
//! baseline` and `p99_ms ≤ baseline / frac` — throughput floor and tail
//! ceiling, both relative to the committed snapshot since absolute
//! latencies are machine-dependent. Any record outside its threshold fails
//! the process with exit code 1.

use std::fmt::Write as _;
use std::process::ExitCode;

use bclean_bench::json::Json;

/// Default fraction of the committed speedup a fresh run must retain when
/// `--gate` is passed without a value. CI runners are noisy and the small
/// scale amplifies constant costs, so the gate fires on collapses (an
/// accidental `Value`-path fallback, a quadratic slip), not on jitter.
const DEFAULT_GATE_FRAC: f64 = 0.35;

/// Default absolute speedup backstop for gating.
const DEFAULT_FLOOR: f64 = 1.2;

/// Top-level snapshot keys the comparator understands (the union of what
/// `experiments` writes across `bench_clean` / `bench_fit` /
/// `bench_stream`, plus the legacy pre-sweep schema). Anything else is
/// reported as a warning — a misspelled `speedups` key would otherwise
/// fall back to the legacy path or an empty record set and let the gate
/// pass vacuously.
const KNOWN_TOP_LEVEL_KEYS: &[&str] = &[
    "benchmark",
    "benchmarks",
    "scale",
    "scale_factor",
    "rows",
    "columns",
    "cells",
    "candidate_top_k",
    "threads_swept",
    "clean_iters",
    "fit_iters",
    "chunks",
    "fits",
    "runs",
    "speedups",
    "min_speedup",
    "total_wall_seconds",
    "speedup_encoded_vs_reference",
    "threads",
    "workers",
    "batch_rows",
    "duration_seconds_per_point",
    "latencies",
    // `bench_stream`'s out-of-core tier: informational (never gated) —
    // bounded-memory streamed clean vs the in-RAM one-shot and the
    // peak-memory proxy.
    "ooc",
];

/// Keys of one record inside the `speedups` array.
const KNOWN_RECORD_KEYS: &[&str] = &["variant", "threads", "speedup"];

/// Keys of one record inside the `latencies` array (`BENCH_serve.json`).
const KNOWN_LATENCY_KEYS: &[&str] =
    &["endpoint", "connections", "requests", "reqs_per_sec", "p50_ms", "p99_ms"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut files: Vec<String> = Vec::new();
    let mut gate: Option<f64> = None;
    let mut floor = DEFAULT_FLOOR;
    let mut summary_path: Option<String> = None;
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--gate" => {
                // FRAC is optional: only consume the lookahead when it
                // actually parses as a number, so `--gate a.json b.json`
                // keeps both file operands.
                gate = Some(match iter.peek().and_then(|v| v.parse::<f64>().ok()) {
                    Some(frac) => {
                        iter.next();
                        frac
                    }
                    None => DEFAULT_GATE_FRAC,
                });
            }
            "--floor" => match iter.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(f) => floor = f,
                None => return usage("--floor expects a number"),
            },
            "--summary" => match iter.next() {
                Some(path) => summary_path = Some(path.clone()),
                None => return usage("--summary expects a path"),
            },
            "help" | "--help" | "-h" => {
                return usage("");
            }
            other => files.push(other.to_string()),
        }
    }
    let [baseline_path, candidate_path] = files.as_slice() else {
        return usage("expected exactly two snapshot files");
    };

    let (baseline, baseline_warnings) = match load_snapshot(baseline_path) {
        Ok(s) => s,
        Err(e) => return fail(&format!("{baseline_path}: {e}")),
    };
    let (candidate, candidate_warnings) = match load_snapshot(candidate_path) {
        Ok(s) => s,
        Err(e) => return fail(&format!("{candidate_path}: {e}")),
    };

    let mut table = String::new();
    let _ = writeln!(table, "### bench_diff — `{baseline_path}` → `{candidate_path}`\n");
    // Unknown keys are warnings, not failures — but they land in the same
    // summary the gate table does, so a misspelled record key can never
    // produce a *silently* green gate.
    for (path, warnings) in [(baseline_path, &baseline_warnings), (candidate_path, &candidate_warnings)] {
        for warning in warnings {
            eprintln!("bench_diff: warning: {path}: {warning}");
            let _ = writeln!(table, "> ⚠️ `{path}`: {warning}\n");
        }
    }
    let mut failures = 0usize;
    failures += diff_speedups(&mut table, &baseline.speedups, &candidate.speedups, gate, floor);
    failures += diff_latencies(&mut table, &baseline.latencies, &candidate.latencies, gate);

    println!("{table}");
    if let Some(path) = summary_path {
        if let Err(e) = append_to(&path, &table) {
            eprintln!("could not append summary to {path}: {e}");
        }
    }

    match (gate, failures) {
        (None, _) => ExitCode::SUCCESS,
        (Some(_), 0) => {
            println!("perf gate: all records within thresholds");
            ExitCode::SUCCESS
        }
        (Some(_), n) => {
            eprintln!("perf gate: {n} record(s) regressed outside their thresholds");
            ExitCode::FAILURE
        }
    }
}

/// Render (and under `--gate` evaluate) the speedup-record diff. A
/// baseline record *missing* from the candidate fails the gate (a vanished
/// measurement could hide a collapse); a record only the *candidate* has —
/// a freshly added benchmark tier — passes with a `*new*` marker, so
/// growing a snapshot never breaks an older committed baseline.
fn diff_speedups(
    table: &mut String,
    baseline: &Speedups,
    candidate: &Speedups,
    gate: Option<f64>,
    floor: f64,
) -> usize {
    if baseline.is_empty() && candidate.is_empty() {
        return 0;
    }
    let header = if gate.is_some() {
        "| Variant | Threads | Baseline | Candidate | Delta | Threshold | Status |\n|---|---|---|---|---|---|---|"
    } else {
        "| Variant | Threads | Baseline | Candidate | Delta |\n|---|---|---|---|---|"
    };
    let _ = writeln!(table, "{header}");
    let mut failures = 0usize;
    for ((variant, threads), base) in baseline {
        let Some(cand) = candidate.iter().find(|((v, t), _)| v == variant && t == threads).map(|(_, s)| *s)
        else {
            let _ = writeln!(
                table,
                "| {variant} | {threads} | {base:.2}x | *missing* | — |{}",
                gate_cols(gate, None)
            );
            failures += 1;
            continue;
        };
        let delta_pct = (cand / base - 1.0) * 100.0;
        match gate {
            None => {
                let _ =
                    writeln!(table, "| {variant} | {threads} | {base:.2}x | {cand:.2}x | {delta_pct:+.1}% |");
            }
            Some(frac) => {
                let threshold = (frac * base).max(floor);
                let ok = cand >= threshold;
                if !ok {
                    failures += 1;
                }
                let _ = writeln!(
                    table,
                    "| {variant} | {threads} | {base:.2}x | {cand:.2}x | {delta_pct:+.1}% | ≥ {threshold:.2}x | {} |",
                    if ok { "✅ pass" } else { "❌ FAIL" }
                );
            }
        }
    }
    for (key, cand) in candidate {
        if !baseline.iter().any(|(k, _)| k == key) {
            let (variant, threads) = key;
            let _ = writeln!(
                table,
                "| {variant} | {threads} | *new* | {cand:.2}x | — |{}",
                gate_cols(gate, Some(true))
            );
        }
    }
    failures
}

/// Render (and under `--gate` evaluate) the latency-record diff. Gating is
/// fully relative: candidate req/s must stay above `frac × baseline` and
/// candidate p99 below `baseline / frac` — the `--floor` speedup backstop
/// does not apply, because absolute latencies depend on the runner.
fn diff_latencies(
    table: &mut String,
    baseline: &Latencies,
    candidate: &Latencies,
    gate: Option<f64>,
) -> usize {
    if baseline.is_empty() && candidate.is_empty() {
        return 0;
    }
    let header = if gate.is_some() {
        "| Endpoint | Conns | Base req/s | Cand req/s | Base p99 ms | Cand p99 ms | Thresholds | Status |\n|---|---|---|---|---|---|---|---|"
    } else {
        "| Endpoint | Conns | Base req/s | Cand req/s | Base p99 ms | Cand p99 ms |\n|---|---|---|---|---|---|"
    };
    let _ = writeln!(table, "\n{header}");
    let mut failures = 0usize;
    for ((endpoint, connections), base) in baseline {
        let Some(cand) =
            candidate.iter().find(|((e, c), _)| e == endpoint && c == connections).map(|(_, record)| record)
        else {
            let _ = writeln!(
                table,
                "| {endpoint} | {connections} | {:.1} | *missing* | {:.3} | *missing* |{}",
                base.reqs_per_sec,
                base.p99_ms,
                gate_cols(gate, None)
            );
            failures += 1;
            continue;
        };
        match gate {
            None => {
                let _ = writeln!(
                    table,
                    "| {endpoint} | {connections} | {:.1} | {:.1} | {:.3} | {:.3} |",
                    base.reqs_per_sec, cand.reqs_per_sec, base.p99_ms, cand.p99_ms
                );
            }
            Some(frac) => {
                let rps_threshold = frac * base.reqs_per_sec;
                let p99_threshold = base.p99_ms / frac;
                let ok = cand.reqs_per_sec >= rps_threshold && cand.p99_ms <= p99_threshold;
                if !ok {
                    failures += 1;
                }
                let _ = writeln!(
                    table,
                    "| {endpoint} | {connections} | {:.1} | {:.1} | {:.3} | {:.3} | req/s ≥ {rps_threshold:.1}, p99 ≤ {p99_threshold:.3} | {} |",
                    base.reqs_per_sec,
                    cand.reqs_per_sec,
                    base.p99_ms,
                    cand.p99_ms,
                    if ok { "✅ pass" } else { "❌ FAIL" }
                );
            }
        }
    }
    for (key, cand) in candidate {
        if !baseline.iter().any(|(k, _)| k == key) {
            let (endpoint, connections) = key;
            let _ = writeln!(
                table,
                "| {endpoint} | {connections} | *new* | {:.1} | *new* | {:.3} |{}",
                cand.reqs_per_sec,
                cand.p99_ms,
                gate_cols(gate, Some(true))
            );
        }
    }
    failures
}

/// The trailing gate columns for rows that never evaluate a threshold.
fn gate_cols(gate: Option<f64>, pass: Option<bool>) -> &'static str {
    match (gate, pass) {
        (None, _) => "",
        (Some(_), Some(true)) => " — | ✅ pass |",
        (Some(_), _) => " — | ❌ FAIL |",
    }
}

/// A snapshot's speedup records: `(variant, threads) → speedup`.
type Speedups = Vec<((String, u64), f64)>;

/// The gated fields of one latency record.
#[derive(Debug, Clone, Copy, PartialEq)]
struct LatencyRecord {
    reqs_per_sec: f64,
    p99_ms: f64,
}

/// A snapshot's latency records: `(endpoint, connections) → record`.
type Latencies = Vec<((String, u64), LatencyRecord)>;

/// Everything bench_diff compares from one `BENCH_*.json`.
#[derive(Debug, Default)]
struct Snapshot {
    speedups: Speedups,
    latencies: Latencies,
}

/// Read the records of one snapshot, in file order: the `speedups` array
/// written by the compute benches, the `latencies` array written by
/// `bench_serve`, or the legacy single-thread
/// `speedup_encoded_vs_reference` object (whose records carry the
/// file-level `threads`, defaulting to 1). Unknown top-level and record
/// keys are returned as warnings for the summary.
fn load_snapshot(path: &str) -> Result<(Snapshot, Vec<String>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let json = Json::parse(&text)?;
    parse_snapshot(&json)
}

/// The parsing half of [`load_snapshot`], separated for testability.
fn parse_snapshot(json: &Json) -> Result<(Snapshot, Vec<String>), String> {
    let mut snapshot = Snapshot::default();
    let mut warnings = Vec::new();
    if let Some(members) = json.as_obj() {
        for (key, _) in members {
            if !KNOWN_TOP_LEVEL_KEYS.contains(&key.as_str()) {
                warnings.push(format!("unknown top-level snapshot key `{key}` (ignored)"));
            }
        }
    } else {
        return Err("snapshot is not a JSON object".to_string());
    }
    if let Some(records) = json.get("speedups").and_then(Json::as_arr) {
        for record in records {
            if let Some(members) = record.as_obj() {
                for (key, _) in members {
                    if !KNOWN_RECORD_KEYS.contains(&key.as_str()) {
                        warnings.push(format!("unknown speedup-record key `{key}` (ignored)"));
                    }
                }
            }
            let variant = record
                .get("variant")
                .and_then(Json::as_str)
                .ok_or_else(|| "speedup record without a `variant`".to_string())?;
            let threads = record.get("threads").and_then(Json::as_f64).unwrap_or(1.0) as u64;
            let speedup = record
                .get("speedup")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("speedup of `{variant}` is not a number"))?;
            snapshot.speedups.push(((variant.to_string(), threads), speedup));
        }
    } else if let Some(members) = json.get("speedup_encoded_vs_reference").and_then(Json::as_obj) {
        let threads = json.get("threads").and_then(Json::as_f64).unwrap_or(1.0) as u64;
        for (variant, value) in members {
            let speedup = value.as_f64().ok_or_else(|| format!("speedup of `{variant}` is not a number"))?;
            snapshot.speedups.push(((variant.clone(), threads), speedup));
        }
    }
    if let Some(records) = json.get("latencies").and_then(Json::as_arr) {
        for record in records {
            if let Some(members) = record.as_obj() {
                for (key, _) in members {
                    if !KNOWN_LATENCY_KEYS.contains(&key.as_str()) {
                        warnings.push(format!("unknown latency-record key `{key}` (ignored)"));
                    }
                }
            }
            let endpoint = record
                .get("endpoint")
                .and_then(Json::as_str)
                .ok_or_else(|| "latency record without an `endpoint`".to_string())?;
            let connections = record.get("connections").and_then(Json::as_f64).unwrap_or(1.0) as u64;
            let reqs_per_sec = record
                .get("reqs_per_sec")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("reqs_per_sec of `{endpoint}` is not a number"))?;
            let p99_ms = record
                .get("p99_ms")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("p99_ms of `{endpoint}` is not a number"))?;
            snapshot
                .latencies
                .push(((endpoint.to_string(), connections), LatencyRecord { reqs_per_sec, p99_ms }));
        }
    }
    if snapshot.speedups.is_empty() && snapshot.latencies.is_empty() {
        return Err("no records: need a `speedups` array, a `latencies` array, or the legacy \
             `speedup_encoded_vs_reference` object"
            .to_string());
    }
    Ok((snapshot, warnings))
}

fn append_to(path: &str, text: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    writeln!(file, "{text}")
}

fn usage(error: &str) -> ExitCode {
    if !error.is_empty() {
        eprintln!("bench_diff: {error}\n");
    }
    println!(
        "bench_diff — compare two BENCH_*.json snapshots\n\n\
         USAGE: bench_diff <baseline.json> <candidate.json> [OPTIONS]\n\n\
         OPTIONS:\n\
         \x20 --gate [FRAC]     fail (exit 1) when a variant's candidate speedup drops\n\
         \x20                   below max(floor, FRAC x baseline)  (FRAC default {DEFAULT_GATE_FRAC})\n\
         \x20 --floor ABS       absolute speedup backstop for --gate (default {DEFAULT_FLOOR})\n\
         \x20 --summary PATH    append the markdown table to PATH (e.g. $GITHUB_STEP_SUMMARY)"
    );
    if error.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn fail(message: &str) -> ExitCode {
    eprintln!("bench_diff: {message}");
    ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_snapshots_parse_without_warnings() {
        for path in [
            "BENCH_clean.json",
            "BENCH_fit.json",
            "BENCH_stream.json",
            "BENCH_scale.json",
            "BENCH_serve.json",
        ] {
            // The committed snapshots live at the workspace root, two levels
            // above this crate.
            let full = format!("{}/../../{path}", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&full).expect("committed snapshot exists");
            let (snapshot, warnings) = parse_snapshot(&Json::parse(&text).unwrap()).unwrap();
            assert!(!snapshot.speedups.is_empty() || !snapshot.latencies.is_empty(), "{path} has no records");
            assert!(warnings.is_empty(), "{path} triggered warnings: {warnings:?}");
        }
    }

    #[test]
    fn unknown_keys_are_warned_not_ignored() {
        let doc = r#"{
  "benchmark": "Hospital",
  "speedupz_typo": {"BClean": 2.0},
  "speedups": [
    {"variant": "BClean", "threads": 1, "speedup": 2.5, "speeedup": 9.9}
  ]
}"#;
        let (snapshot, warnings) = parse_snapshot(&Json::parse(doc).unwrap()).unwrap();
        assert_eq!(snapshot.speedups.len(), 1);
        assert_eq!(warnings.len(), 2, "{warnings:?}");
        assert!(warnings[0].contains("speedupz_typo"));
        assert!(warnings[1].contains("speeedup"));
    }

    #[test]
    fn missing_records_are_still_hard_errors() {
        assert!(parse_snapshot(&Json::parse("{}").unwrap()).is_err());
        assert!(parse_snapshot(&Json::parse("{\"speedups\": []}").unwrap()).is_err());
        assert!(parse_snapshot(&Json::parse("[1]").unwrap()).is_err());
        // Legacy schema still parses.
        let legacy = r#"{"threads": 2, "speedup_encoded_vs_reference": {"BClean": 3.5}}"#;
        let (snapshot, warnings) = parse_snapshot(&Json::parse(legacy).unwrap()).unwrap();
        assert_eq!(snapshot.speedups, vec![(("BClean".to_string(), 2), 3.5)]);
        assert!(warnings.is_empty());
    }

    #[test]
    fn new_tiers_warn_or_pass_but_never_fail_the_gate() {
        // A candidate that grew records the baseline lacks (a new benchmark
        // tier) passes the gate with a `*new*` marker …
        let base: Speedups = vec![(("Hospital/BClean".to_string(), 1), 3.0)];
        let mut cand = base.clone();
        cand.push((("Hospital/ooc-warm".to_string(), 1), 1.1));
        let mut table = String::new();
        assert_eq!(diff_speedups(&mut table, &base, &cand, Some(0.35), 1.2), 0, "{table}");
        assert!(table.contains("*new*"), "{table}");
        // … while a baseline record *missing* from the candidate still fails.
        assert_eq!(diff_speedups(&mut table, &cand, &base, Some(0.35), 1.2), 1);

        // The `ooc` tier object is a known top-level key (no warning); a
        // tier this tool has never heard of warns but still parses — new
        // snapshot keys must never fail the diff.
        let doc = r#"{
  "benchmarks": ["Hospital"],
  "ooc": {"rows": 10000, "peak_bytes": 123, "memory_ratio": 0.25},
  "some_future_tier": {"anything": 1},
  "speedups": [{"variant": "Hospital/BClean", "threads": 1, "speedup": 3.0}]
}"#;
        let (snapshot, warnings) = parse_snapshot(&Json::parse(doc).unwrap()).unwrap();
        assert_eq!(snapshot.speedups.len(), 1);
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("some_future_tier"));
    }

    #[test]
    fn latency_records_parse_and_gate() {
        let doc = r#"{
  "benchmark": "Hospital",
  "workers": 4,
  "latencies": [
    {"endpoint": "clean", "connections": 2, "requests": 900, "reqs_per_sec": 450.0,
     "p50_ms": 2.0, "p99_ms": 4.0, "p999_ms": 9.0}
  ]
}"#;
        let (snapshot, warnings) = parse_snapshot(&Json::parse(doc).unwrap()).unwrap();
        assert!(snapshot.speedups.is_empty());
        assert_eq!(
            snapshot.latencies,
            vec![(("clean".to_string(), 2), LatencyRecord { reqs_per_sec: 450.0, p99_ms: 4.0 })]
        );
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("p999_ms"));

        let base = snapshot.latencies;
        // Candidate holding ≥ frac × req/s and ≤ p99 / frac passes …
        let good = vec![(("clean".to_string(), 2), LatencyRecord { reqs_per_sec: 200.0, p99_ms: 8.0 })];
        let mut table = String::new();
        assert_eq!(diff_latencies(&mut table, &base, &good, Some(0.35)), 0, "{table}");
        // … a throughput collapse fails …
        let slow = vec![(("clean".to_string(), 2), LatencyRecord { reqs_per_sec: 100.0, p99_ms: 4.0 })];
        assert_eq!(diff_latencies(&mut table, &base, &slow, Some(0.35)), 1);
        // … a p99 blowup fails …
        let spiky = vec![(("clean".to_string(), 2), LatencyRecord { reqs_per_sec: 450.0, p99_ms: 50.0 })];
        assert_eq!(diff_latencies(&mut table, &base, &spiky, Some(0.35)), 1);
        // … and a missing record fails.
        assert_eq!(diff_latencies(&mut table, &base, &Vec::new(), Some(0.35)), 1);
        // Without --gate nothing fails; the table is informational.
        assert_eq!(diff_latencies(&mut table, &base, &slow, None), 0);
    }
}
