//! `perfbench` — the measuring half of the BClean benchmark.
//!
//! ```text
//! perfbench gen --workload NAME --seed N --out DIR
//! perfbench run --workload NAME --seed N --seconds S --trace 0|1
//!               --data DIR --out DIR --bclean PATH
//! ```
//!
//! `gen` writes a workload's inputs (a pure function of the seed). `run`
//! measures one workload over those inputs and prints one JSON record as its
//! last line of output: the end-to-end metrics, the per-layer metrics when
//! traced, the outcome of every correctness check and the digests that must
//! repeat across runs of one seed. `perfbench/run.py` builds, generates,
//! runs and reports; see `perfbench/README.md`.

mod batch;
mod layers;
mod serve;
mod stream;
mod trace;
mod util;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use crate::layers::Layers;
use crate::trace::Tracer;
use crate::util::Obj;
use crate::workloads::Workload;

/// Parsed `run` arguments.
#[derive(Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub data: PathBuf,
    pub out: PathBuf,
    pub bclean: PathBuf,
}

/// Correctness checks and operation counts of one run. Every failed check
/// counts as a failed operation.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    list: Vec<Obj>,
}

impl Checks {
    /// Count `n` operations of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Record one correctness check.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        let detail = detail.into();
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check {name} FAILED: {detail}");
        }
        self.list.push(Obj::new().str("name", name).bool("ok", ok).str("detail", &detail));
    }
}

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Gated end-to-end metrics (name, value), reported on every workload.
    pub e2e: Vec<(&'static str, f64)>,
    /// The workload's metrics under their descriptive names (name, value, unit).
    pub named: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer metrics (filled in traced runs).
    pub layers: Layers,
    /// Values that must repeat exactly across runs of one seed.
    pub digests: Vec<(&'static str, String)>,
    /// Workload-specific detail for the record.
    pub detail: Obj,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => gen_command(&args[1..]),
        Some("run") => run_command(&args[1..]),
        _ => Err("usage: perfbench gen|run --workload NAME --seed N ...".to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    let at = args.iter().position(|a| a == name).ok_or(format!("missing {name}"))?;
    args.get(at + 1).map(String::as_str).ok_or(format!("missing value after {name}"))
}

fn workload_flag(args: &[String]) -> Result<Workload, String> {
    let name = flag(args, "--workload")?;
    Workload::parse(name).ok_or(format!("unknown workload {name:?}"))
}

fn seed_flag(args: &[String]) -> Result<u64, String> {
    flag(args, "--seed")?.parse().map_err(|_| "--seed expects a whole number".to_string())
}

fn gen_command(args: &[String]) -> Result<(), String> {
    workloads::generate(workload_flag(args)?, seed_flag(args)?, &PathBuf::from(flag(args, "--out")?))
}

fn run_command(args: &[String]) -> Result<(), String> {
    let parsed = Args {
        workload: workload_flag(args)?,
        seed: seed_flag(args)?,
        seconds: flag(args, "--seconds")?.parse().map_err(|_| "--seconds expects a number".to_string())?,
        data: PathBuf::from(flag(args, "--data")?),
        out: PathBuf::from(flag(args, "--out")?),
        bclean: PathBuf::from(flag(args, "--bclean")?),
    };
    let traced = match flag(args, "--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
    };
    std::fs::create_dir_all(&parsed.out)
        .map_err(|e| format!("cannot create {}: {e}", parsed.out.display()))?;
    let tracer = Tracer::new(traced);
    let mut checks = Checks::default();
    let root = tracer.open();
    let outcome = match parsed.workload {
        Workload::WideBatch => batch::run(&parsed, &tracer, &mut checks, root.0),
        Workload::HospitalStream => stream::run(&parsed, &tracer, &mut checks, root.0),
        Workload::HospitalServe => serve::run(&parsed, &tracer, &mut checks, root.0),
    };
    tracer.close("run", None, root);
    let mut outcome = outcome?;

    let mut record = Obj::new()
        .str("workload", parsed.workload.name())
        .str("why", parsed.workload.why())
        .int("seed", parsed.seed)
        .num("seconds", parsed.seconds)
        .bool("trace", traced);
    let mut e2e = Obj::new();
    for (name, value) in &outcome.e2e {
        e2e.push_num(name, *value);
    }
    record = record.obj("metrics", e2e);
    let named: Vec<Obj> = outcome
        .named
        .iter()
        .map(|(name, value, unit)| Obj::new().str("name", name).num("value", *value).str("unit", unit))
        .collect();
    record = record.list("named_metrics", named);
    if traced {
        let spans = tracer.spans();
        outcome.layers.insert("trace.coverage", trace::coverage(&spans, root.0));
        let mut layer_obj = Obj::new();
        for (name, _) in layers::METRICS {
            let value =
                outcome.layers.get(name).copied().ok_or(format!("layer metric {name} was not measured"))?;
            layer_obj.push_num(name, value);
        }
        let mut self_obj = Obj::new();
        for (name, secs) in trace::self_times(&spans) {
            self_obj.push_num(name, secs);
        }
        let spans_path = parsed.out.join("spans.jsonl");
        std::fs::write(&spans_path, trace::to_json_lines(&spans))
            .map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;
        record = record
            .obj("layers", layer_obj)
            .obj("self_time_s", self_obj)
            .int("spans", spans.len() as u64)
            .str("spans_file", &spans_path.display().to_string());
    }
    let mut digests = Obj::new();
    for (name, value) in &outcome.digests {
        digests = digests.str(name, value);
    }
    record = record
        .obj("digests", digests)
        .obj("detail", std::mem::take(&mut outcome.detail))
        .list("checks", std::mem::take(&mut checks.list))
        .int("attempted", checks.attempted)
        .int("failed", checks.failed);
    println!("{}", record.render());
    Ok(())
}
