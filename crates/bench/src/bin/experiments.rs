//! Regenerate every table and figure of the BClean paper's evaluation (§7).
//!
//! Usage:
//!
//! ```text
//! cargo run -p bclean-bench --release --bin experiments -- [EXPERIMENT] [--scale small|default|full]
//! ```
//!
//! where `EXPERIMENT` is one of `table4`, `table5`, `table6`, `table7`,
//! `table8`, `table9`, `table10`, `fig4a`, `fig4bcd`, `fig4ef`, `fig5`,
//! `netedit`, or `all` (default). The default scale is `small` so the whole
//! suite finishes quickly; use `--scale default` to reproduce at the paper's
//! dataset sizes (`BenchmarkDataset::default_rows`: the paper's row counts,
//! except Soccer at 20 000 of its 200 000 rows).

use std::collections::HashMap;
use std::time::Duration;

use bclean_bayesnet::NetworkEdit;
use bclean_bench::{Scale, EXPERIMENT_SEED};
use bclean_core::{
    clean_stream, repairs_to_csv, BClean, BCleanConfig, CompensatoryParams, ConstraintKind, ModelArtifact,
    StreamOptions, Variant,
};
use bclean_data::{approx_dataset_bytes, read_csv_file, write_csv_file, ChunkLimits, CsvFileChunks};
use bclean_datagen::{
    build_wide, BenchmarkDataset, DirtyDataset, ErrorSpec, ErrorType, ScaleFactor, SwapMode,
};
use bclean_eval::{
    bclean_constraints, evaluate, format_duration, run_bclean_evaluated, run_method, run_methods,
    ErrorTypeRecall, Method, MethodRun, TextTable,
};

/// Default worker-thread sweep of the `bench_clean` / `bench_fit`
/// snapshots: the committed JSON records single-thread engine throughput
/// plus multi-thread scaling points.
const DEFAULT_THREAD_SWEEP: [usize; 3] = [1, 2, 4];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut experiment = "all".to_string();
    let mut scale = Scale::Small;
    let mut threads: Vec<usize> = DEFAULT_THREAD_SWEEP.to_vec();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--scale" => {
                if let Some(s) = iter.next().and_then(|s| Scale::parse(s)) {
                    scale = s;
                } else {
                    eprintln!("unknown scale; expected small|default|full");
                    std::process::exit(2);
                }
            }
            "--threads" => {
                let parsed: Option<Vec<usize>> = iter
                    .next()
                    .map(|list| list.split(',').map(|t| t.trim().parse::<usize>().ok()).collect())
                    .unwrap_or(None);
                match parsed {
                    Some(list) if !list.is_empty() && list.iter().all(|&t| t >= 1) => threads = list,
                    _ => {
                        eprintln!("--threads expects a comma-separated list of positive counts, e.g. 1,2,4");
                        std::process::exit(2);
                    }
                }
            }
            "help" | "--help" | "-h" => {
                print_help();
                return;
            }
            other => experiment = other.to_string(),
        }
    }

    println!("# BClean reproduction — experiment `{experiment}`, scale {scale:?}\n");
    match experiment.as_str() {
        "table4" => {
            tables_4_and_7(scale);
        }
        "table5" => table5(scale),
        "table6" => table6(scale),
        "table7" => {
            tables_4_and_7(scale);
        }
        "table8" => parameter_sweep(scale, "lambda"),
        "table9" => parameter_sweep(scale, "beta"),
        "table10" => parameter_sweep(scale, "tau"),
        "fig4a" => fig4a(scale),
        "fig4bcd" => fig4bcd(scale),
        "fig4ef" => fig4ef(scale),
        "fig5" => fig5(scale),
        "netedit" => netedit(scale),
        "bench_clean" => bench_clean(scale, &threads),
        "bench_fit" => bench_fit(scale, &threads),
        "bench_stream" => bench_stream(scale),
        "bench_scale" => bench_scale(scale),
        "all" => {
            tables_4_and_7(scale);
            table5(scale);
            table6(scale);
            parameter_sweep(scale, "lambda");
            parameter_sweep(scale, "beta");
            parameter_sweep(scale, "tau");
            fig4a(scale);
            fig4bcd(scale);
            fig4ef(scale);
            fig5(scale);
            netedit(scale);
            bench_clean(scale, &threads);
            bench_fit(scale, &threads);
            bench_stream(scale);
            bench_scale(scale);
        }
        other => {
            eprintln!("unknown experiment `{other}`");
            print_help();
            std::process::exit(2);
        }
    }
}

fn print_help() {
    println!(
        "experiments — regenerate the BClean paper's tables and figures\n\n\
         EXPERIMENTS: table4 table5 table6 table7 table8 table9 table10\n\
                      fig4a fig4bcd fig4ef fig5 netedit bench_clean bench_fit\n\
                      bench_stream bench_scale all\n\
         OPTIONS:     --scale small|default|full   (default: small)\n\
         \x20            --threads LIST               worker sweep for bench_clean /\n\
         \x20                                         bench_fit (default: 1,2,4)\n\n\
         bench_clean / bench_fit / bench_stream / bench_scale additionally\n\
         write BENCH_clean.json / BENCH_fit.json / BENCH_stream.json /\n\
         BENCH_scale.json (machine-readable performance trajectories of the\n\
         code-space, ingest and scale-tier engines vs their baselines); diff\n\
         two snapshots with `cargo run -p bclean-bench --bin bench_diff`."
    );
}

fn build(dataset: BenchmarkDataset, scale: Scale) -> DirtyDataset {
    dataset.build_sized(scale.rows(dataset), EXPERIMENT_SEED)
}

/// Is this (method, dataset) pair feasible at the given scale? Mirrors the
/// paper's "out-of-runtime" dashes: the unoptimised BClean variant is skipped
/// on the largest datasets at default/full scale.
fn feasible(method: Method, dataset: BenchmarkDataset, scale: Scale) -> bool {
    if scale == Scale::Small {
        return true;
    }
    match method {
        Method::BClean(Variant::Basic) | Method::BClean(Variant::NoUserConstraints) => {
            !matches!(dataset, BenchmarkDataset::Soccer | BenchmarkDataset::Facilities)
        }
        _ => true,
    }
}

/// Tables 4 (precision / recall / F1) and 7 (execution time), produced in one
/// pass so every method is run exactly once per dataset.
fn tables_4_and_7(scale: Scale) {
    println!("## Table 4 — precision / recall / F1 of data cleaning methods\n");
    let datasets = BenchmarkDataset::all();
    let methods = Method::table4_methods();
    let mut quality = TextTable::new(
        std::iter::once("Method".to_string())
            .chain(datasets.iter().map(|d| format!("{} (P/R/F1)", d.name())))
            .collect::<Vec<_>>(),
    );
    let mut runtime = TextTable::new(
        std::iter::once("Method".to_string())
            .chain(datasets.iter().map(|d| d.name().to_string()))
            .collect::<Vec<_>>(),
    );
    // Per-dataset fan-out through the shared parallel executor: all feasible
    // methods of one benchmark run as one slate. Timing fidelity for Table 7
    // wants un-contended runs, so the slate is sequential (threads = 1) at
    // the paper's scales; the CI smoke scale trades timing fidelity for
    // wall-clock, capped at a few slate workers because each BClean run
    // spawns its own cleaner pool inside clean().
    let slate_threads = if scale == Scale::Small {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(4)
    } else {
        1
    };
    let mut runs: HashMap<(String, &'static str), MethodRun> = HashMap::new();
    for &dataset in &datasets {
        let feasible_methods: Vec<Method> =
            methods.iter().copied().filter(|&m| feasible(m, dataset, scale)).collect();
        if feasible_methods.is_empty() {
            continue;
        }
        let bench = build(dataset, scale);
        for run in run_methods(&feasible_methods, dataset, &bench, slate_threads) {
            runs.insert((run.method.clone(), dataset.name()), run);
        }
    }
    for &method in &methods {
        let mut qrow = vec![method.name()];
        let mut trow = vec![method.name()];
        for &dataset in &datasets {
            match runs.get(&(method.name(), dataset.name())) {
                Some(run) => {
                    qrow.push(run.metrics.triple());
                    trow.push(format_duration(run.exec_time));
                }
                None => {
                    qrow.push("-".to_string());
                    trow.push("-".to_string());
                }
            }
        }
        quality.add_row(qrow);
        runtime.add_row(trow);
    }
    println!("{}", quality.render());
    println!("## Table 7 — execution time (the paper's user-time column comes from a human study and is not reproduced)\n");
    if slate_threads > 1 {
        println!(
            "(smoke scale: methods ran {slate_threads} at a time, so times include contention; \
             use --scale default for comparable timings)\n"
        );
    }
    println!("{}", runtime.render());
}

/// Table 5 — cleaning quality on a sampled Soccer dataset.
fn table5(scale: Scale) {
    println!("## Table 5 — precision / recall / F1 on sampled Soccer\n");
    let rows = match scale {
        Scale::Small => 1000,
        Scale::Default => 5000,
        Scale::Full => 50_000,
    };
    let bench = BenchmarkDataset::Soccer.build_sized(rows, EXPERIMENT_SEED + 5);
    let mut table = TextTable::new(vec!["Method", "P/R/F1"]);
    for method in
        [Method::BClean(Variant::PartitionedInference), Method::HoloClean, Method::PClean, Method::RahaBaran]
    {
        let run = run_method(method, BenchmarkDataset::Soccer, &bench);
        table.add_row(vec![run.method.clone(), run.metrics.triple()]);
    }
    println!("{}", table.render());
}

/// Table 6 — recall per error type (T, M, I).
fn table6(scale: Scale) {
    println!("## Table 6 — recall for different types of errors (T / M / I)\n");
    let datasets = [BenchmarkDataset::Soccer, BenchmarkDataset::Inpatient, BenchmarkDataset::Facilities];
    let methods =
        [Method::BClean(Variant::PartitionedInference), Method::PClean, Method::HoloClean, Method::RahaBaran];
    let mut table = TextTable::new(
        std::iter::once("Method".to_string())
            .chain(datasets.iter().map(|d| format!("{} (T/M/I)", d.name())))
            .collect::<Vec<_>>(),
    );
    for &method in &methods {
        let mut row = vec![method.name()];
        for &dataset in &datasets {
            let bench = build(dataset, scale);
            let run = run_method(method, dataset, &bench);
            let recalls = ErrorTypeRecall::compute(&bench, &run.cleaned);
            let fmt = |t: ErrorType| {
                recalls.recall(t).map(|r| format!("{r:.3}")).unwrap_or_else(|| "-".to_string())
            };
            row.push(format!(
                "{}/{}/{}",
                fmt(ErrorType::Typo),
                fmt(ErrorType::Missing),
                fmt(ErrorType::Inconsistency)
            ));
        }
        table.add_row(row);
    }
    println!("{}", table.render());
}

/// Tables 8–10 — the λ, β, τ parameter sweeps on Hospital.
fn parameter_sweep(scale: Scale, which: &str) {
    let (label, values): (&str, Vec<f64>) = match which {
        "lambda" => ("Table 8 — varying λ on Hospital (β=2, τ=0.5)", vec![0.0, 1.0, 2.0, 5.0, 10.0, 15.0]),
        "beta" => ("Table 9 — varying β on Hospital (λ=1, τ=0.5)", vec![0.0, 1.0, 2.0, 10.0, 50.0]),
        _ => ("Table 10 — varying τ on Hospital (λ=1, β=2)", vec![0.1, 0.3, 0.5, 0.7, 0.9]),
    };
    println!("## {label}\n");
    let bench = build(BenchmarkDataset::Hospital, scale);
    let constraints = bclean_constraints(BenchmarkDataset::Hospital);
    let mut table = TextTable::new(vec![which.to_string(), "F1".to_string()]);
    for &v in &values {
        let params = match which {
            "lambda" => CompensatoryParams { lambda: v, ..CompensatoryParams::default() },
            "beta" => CompensatoryParams { beta: v, ..CompensatoryParams::default() },
            _ => CompensatoryParams { tau: v, ..CompensatoryParams::default() },
        };
        let config = BCleanConfig { params, ..Variant::PartitionedInference.config() };
        let (metrics, _) = run_bclean_evaluated(config, constraints.clone(), &bench);
        table.add_row(vec![format!("{v}"), format!("{:.5}", metrics.f1)]);
    }
    println!("{}", table.render());
}

/// Figure 4(a) — distribution of injected error types.
fn fig4a(scale: Scale) {
    println!("## Figure 4(a) — error distributions (injected error counts per type)\n");
    let mut table = TextTable::new(vec!["Dataset", "M", "T", "I", "S"]);
    for dataset in [BenchmarkDataset::Soccer, BenchmarkDataset::Inpatient, BenchmarkDataset::Facilities] {
        let bench = build(dataset, scale);
        let counts = bench.errors_by_type();
        let get = |t: ErrorType| counts.get(&t).copied().unwrap_or(0).to_string();
        table.add_row(vec![
            dataset.name().to_string(),
            get(ErrorType::Missing),
            get(ErrorType::Typo),
            get(ErrorType::Inconsistency),
            get(ErrorType::Swap),
        ]);
    }
    println!("{}", table.render());
}

/// Figure 4(b)–(d) — F1 while varying the error ratio from 10% to 70%.
fn fig4bcd(scale: Scale) {
    println!("## Figure 4(b)-(d) — F1 vs. error ratio (10%..70%)\n");
    let datasets = [BenchmarkDataset::Flights, BenchmarkDataset::Inpatient, BenchmarkDataset::Facilities];
    let methods = [Method::BClean(Variant::PartitionedInference), Method::RahaBaran, Method::HoloClean];
    for dataset in datasets {
        println!("### {}\n", dataset.name());
        let mut table = TextTable::new(vec!["Error rate", "BCleanPI", "Raha+Baran", "HoloClean"]);
        for rate_pct in [10, 30, 50, 70] {
            let rate = rate_pct as f64 / 100.0;
            let rows = scale.rows(dataset).min(2000);
            let bench = dataset.build_with_rate(rows, rate, EXPERIMENT_SEED + rate_pct as u64);
            let mut row = vec![format!("{rate_pct}%")];
            for &method in &methods {
                let run = run_method(method, dataset, &bench);
                row.push(format!("{:.3}", run.metrics.f1));
            }
            table.add_row(row);
        }
        println!("{}", table.render());
    }
}

/// Figure 4(e)–(f) — recall under swapping-value errors (same / different domain).
fn fig4ef(scale: Scale) {
    println!("## Figure 4(e)-(f) — recall under swapping value errors\n");
    let cases = [(BenchmarkDataset::Inpatient, 0.10), (BenchmarkDataset::Facilities, 0.05)];
    let methods =
        [Method::BClean(Variant::PartitionedInference), Method::PClean, Method::HoloClean, Method::RahaBaran];
    for (dataset, rate) in cases {
        println!("### {} ({}% swap errors)\n", dataset.name(), (rate * 100.0) as u32);
        let mut table = TextTable::new(vec!["Method", "Same domain", "Different domain"]);
        let rows = scale.rows(dataset).min(2000);
        let clean = dataset.generate_clean(rows, EXPERIMENT_SEED);
        let same = bclean_datagen::inject_errors(
            &clean,
            &ErrorSpec::only(ErrorType::Swap, rate).with_swap_mode(SwapMode::SameAttribute),
            EXPERIMENT_SEED + 31,
        );
        let different = bclean_datagen::inject_errors(
            &clean,
            &ErrorSpec::only(ErrorType::Swap, rate).with_swap_mode(SwapMode::DifferentAttribute),
            EXPERIMENT_SEED + 37,
        );
        for &method in &methods {
            let same_run = run_method(method, dataset, &same);
            let diff_run = run_method(method, dataset, &different);
            table.add_row(vec![
                method.name(),
                format!("{:.3}", same_run.metrics.recall),
                format!("{:.3}", diff_run.metrics.recall),
            ]);
        }
        println!("{}", table.render());
    }
}

/// Figure 5 — effect of incomplete user constraints on precision and recall.
fn fig5(scale: Scale) {
    println!("## Figure 5 — effect of incomplete UCs (Com / Max / Min / Nul / Pat / All)\n");
    let datasets = [BenchmarkDataset::Hospital, BenchmarkDataset::Flights, BenchmarkDataset::Soccer];
    let ablations: [(&str, Option<ConstraintKind>); 6] = [
        ("Com", None),
        ("Max", Some(ConstraintKind::Max)),
        ("Min", Some(ConstraintKind::Min)),
        ("Nul", Some(ConstraintKind::NotNull)),
        ("Pat", Some(ConstraintKind::Pattern)),
        ("All", None), // handled specially: remove everything
    ];
    for dataset in datasets {
        println!("### {}\n", dataset.name());
        let rows = scale.rows(dataset).min(3000);
        let bench = dataset.build_sized(rows, EXPERIMENT_SEED + 53);
        let full = bclean_constraints(dataset);
        let mut table = TextTable::new(vec!["UC set", "Precision", "Recall"]);
        for (label, kind) in ablations {
            let constraints = match (label, kind) {
                ("All", _) => bclean_core::ConstraintSet::new(),
                (_, Some(kind)) => full.without_kind(kind),
                _ => full.clone(),
            };
            let (metrics, _) =
                run_bclean_evaluated(Variant::PartitionedInference.config(), constraints, &bench);
            table.add_row(vec![
                label.to_string(),
                format!("{:.3}", metrics.precision),
                format!("{:.3}", metrics.recall),
            ]);
        }
        println!("{}", table.render());
    }
}

/// Render the `speedups` array + trailer shared by every `BENCH_*.json`
/// snapshot: one `{variant, threads, speedup}` record per measured pair, a
/// minimum, and the wall-clock. `bench_diff` matches baseline/candidate
/// records on `(variant, threads)`.
fn speedups_json(speedups: &[(String, usize, f64)], min_speedup: f64, total_seconds: f64) -> String {
    let records: Vec<String> = speedups
        .iter()
        .map(|(name, threads, s)| {
            format!("    {{\"variant\": \"{name}\", \"threads\": {threads}, \"speedup\": {s:.3}}}")
        })
        .collect();
    format!(
        "  \"speedups\": [\n{}\n  ],\n  \"min_speedup\": {:.3},\n  \"total_wall_seconds\": {:.3}\n}}\n",
        records.join(",\n"),
        min_speedup,
        total_seconds,
    )
}

/// Cleaning-throughput benchmark: the dictionary-encoded engine
/// (`BCleanModel::clean`) against the retained `Value`-path baseline
/// (`ReferenceModel::clean_reference`) on the Hospital workload, one BClean
/// variant per row, swept across worker-thread counts. Besides the stdout
/// table, the measurements are written to `BENCH_clean.json` so the
/// performance trajectory (including multi-thread scaling) is
/// machine-readable and tracked across PRs. The code-space fit of each
/// (variant, threads) pair is timed once and recorded in its own `fits`
/// array; the reference engine cleans the same model fitted through
/// `BClean::fit_reference` (untimed), so both engines score identical
/// parameters.
fn bench_clean(scale: Scale, threads_sweep: &[usize]) {
    println!("## BENCH_clean — encoded engine vs Value-path baseline (Hospital)\n");
    let total_start = std::time::Instant::now();
    let rows = scale.rows(BenchmarkDataset::Hospital);
    let bench = BenchmarkDataset::Hospital.build_sized(rows, EXPERIMENT_SEED);
    let constraints = bclean_constraints(BenchmarkDataset::Hospital);
    let cols = bench.dirty.num_columns();
    let iters = 3usize;

    let mut table = TextTable::new(vec![
        "Variant",
        "Threads",
        "Engine",
        "Fit",
        "Clean (best)",
        "Rows/s",
        "Repairs",
        "Speedup",
    ]);
    let mut fits_json: Vec<String> = Vec::new();
    let mut runs_json: Vec<String> = Vec::new();
    let mut speedups: Vec<(String, usize, f64)> = Vec::new();
    for variant in Variant::all() {
        for &threads in threads_sweep {
            let cleaner =
                BClean::new(variant.config().with_threads(threads)).with_constraints(constraints.clone());
            let fit_start = std::time::Instant::now();
            let model = cleaner.fit(&bench.dirty);
            let fit_time: Duration = fit_start.elapsed();
            let reference_model = cleaner.fit_reference(&bench.dirty);
            fits_json.push(format!(
                "    {{\"variant\": \"{}\", \"threads\": {}, \"fit_seconds\": {:.6}}}",
                variant.name(),
                threads,
                fit_time.as_secs_f64(),
            ));
            let mut per_engine: Vec<(&str, f64, usize)> = Vec::new();
            for engine in ["encoded", "reference"] {
                let mut best = f64::INFINITY;
                let mut repairs = 0usize;
                for _ in 0..iters {
                    let start = std::time::Instant::now();
                    let result = if engine == "encoded" {
                        model.clean(&bench.dirty)
                    } else {
                        reference_model.clean_reference(&bench.dirty)
                    };
                    best = best.min(start.elapsed().as_secs_f64());
                    repairs = result.repairs.len();
                }
                per_engine.push((engine, best, repairs));
            }
            let encoded = per_engine[0];
            let reference = per_engine[1];
            let speedup = reference.1 / encoded.1.max(1e-12);
            speedups.push((variant.name().to_string(), threads, speedup));
            for (engine, best, repairs) in &per_engine {
                let rows_per_sec = rows as f64 / best.max(1e-12);
                table.add_row(vec![
                    variant.name().to_string(),
                    threads.to_string(),
                    engine.to_string(),
                    if *engine == "encoded" { format_duration(fit_time) } else { "(shared)".to_string() },
                    format!("{:.4}s", best),
                    format!("{rows_per_sec:.0}"),
                    repairs.to_string(),
                    if *engine == "encoded" { format!("{speedup:.2}x") } else { "1.00x".to_string() },
                ]);
                runs_json.push(format!(
                    "    {{\"variant\": \"{}\", \"engine\": \"{}\", \"threads\": {}, \
                     \"clean_seconds\": {:.6}, \"rows_per_sec\": {:.2}, \
                     \"cells_per_sec\": {:.2}, \"repairs\": {}}}",
                    variant.name(),
                    engine,
                    threads,
                    best,
                    rows_per_sec,
                    (rows * cols) as f64 / best.max(1e-12),
                    repairs
                ));
            }
        }
    }
    println!("{}", table.render());

    let min_speedup = speedups.iter().map(|(_, _, s)| *s).fold(f64::INFINITY, f64::min);
    let threads_json: Vec<String> = threads_sweep.iter().map(|t| t.to_string()).collect();
    let json = format!(
        "{{\n  \"benchmark\": \"Hospital\",\n  \"scale\": \"{:?}\",\n  \"rows\": {},\n  \
         \"columns\": {},\n  \"cells\": {},\n  \"threads_swept\": [{}],\n  \"clean_iters\": {},\n  \
         \"fits\": [\n{}\n  ],\n  \"runs\": [\n{}\n  ],\n{}",
        scale,
        rows,
        cols,
        rows * cols,
        threads_json.join(", "),
        iters,
        fits_json.join(",\n"),
        runs_json.join(",\n"),
        speedups_json(&speedups, min_speedup, total_start.elapsed().as_secs_f64()),
    );
    match std::fs::write("BENCH_clean.json", &json) {
        Ok(()) => println!("wrote BENCH_clean.json (min speedup {min_speedup:.2}x)\n"),
        Err(e) => eprintln!("could not write BENCH_clean.json: {e}"),
    }
}

/// Model-fitting benchmark: the code-space fit pipeline (`BClean::fit` —
/// encoded structure learning, direct-to-compiled CPT counting, parallel
/// compensatory build) against the retained `Value`-path construction
/// (`BClean::fit_reference`) on the Hospital workload, one BClean variant
/// per row. Besides the stdout table, the measurements are written to
/// `BENCH_fit.json` so the fit-performance trajectory is machine-readable
/// and tracked across PRs (same schema family as `BENCH_clean.json`; the CI
/// perf gate compares fresh runs against the committed snapshot via
/// `bench_diff`).
fn bench_fit(scale: Scale, threads_sweep: &[usize]) {
    println!("## BENCH_fit — code-space fit vs Value-path construction (Hospital)\n");
    let total_start = std::time::Instant::now();
    let rows = scale.rows(BenchmarkDataset::Hospital);
    let bench = BenchmarkDataset::Hospital.build_sized(rows, EXPERIMENT_SEED);
    let constraints = bclean_constraints(BenchmarkDataset::Hospital);
    let cols = bench.dirty.num_columns();
    let iters = 3usize;

    let mut table = TextTable::new(vec![
        "Variant",
        "Threads",
        "Engine",
        "Fit (best)",
        "Rows/s",
        "Edges",
        "Repairs",
        "Speedup",
    ]);
    let mut runs_json: Vec<String> = Vec::new();
    let mut speedups: Vec<(String, usize, f64)> = Vec::new();
    for variant in Variant::all() {
        for &threads in threads_sweep {
            let cleaner =
                BClean::new(variant.config().with_threads(threads)).with_constraints(constraints.clone());
            let mut per_engine: Vec<(&str, f64, usize, usize)> = Vec::new();
            for engine in ["encoded", "reference"] {
                let mut best = f64::INFINITY;
                let (mut fitted, mut reference) = (None, None);
                for _ in 0..iters {
                    let start = std::time::Instant::now();
                    if engine == "encoded" {
                        fitted = Some(cleaner.fit(&bench.dirty));
                    } else {
                        reference = Some(cleaner.fit_reference(&bench.dirty));
                    }
                    best = best.min(start.elapsed().as_secs_f64());
                }
                let model = fitted
                    .as_ref()
                    .or(reference.as_ref().map(|r| r.model()))
                    .expect("at least one fit iteration ran");
                let edges = model.dag().num_edges();
                // Downstream sanity (outside the timing loop): the fitted model
                // must clean identically regardless of which fit path built it.
                let repairs = model.clean(&bench.dirty).repairs.len();
                per_engine.push((engine, best, edges, repairs));
            }
            let encoded = per_engine[0];
            let reference = per_engine[1];
            assert_eq!(
                encoded.3, reference.3,
                "fit and fit_reference must produce models with identical repairs"
            );
            let speedup = reference.1 / encoded.1.max(1e-12);
            speedups.push((variant.name().to_string(), threads, speedup));
            for (engine, best, edges, repairs) in &per_engine {
                let rows_per_sec = rows as f64 / best.max(1e-12);
                table.add_row(vec![
                    variant.name().to_string(),
                    threads.to_string(),
                    engine.to_string(),
                    format!("{:.4}s", best),
                    format!("{rows_per_sec:.0}"),
                    edges.to_string(),
                    repairs.to_string(),
                    if *engine == "encoded" { format!("{speedup:.2}x") } else { "1.00x".to_string() },
                ]);
                runs_json.push(format!(
                    "    {{\"variant\": \"{}\", \"engine\": \"{}\", \"threads\": {}, \
                     \"fit_seconds\": {:.6}, \"rows_per_sec\": {:.2}, \"structure_edges\": {}, \
                     \"repairs\": {}}}",
                    variant.name(),
                    engine,
                    threads,
                    best,
                    rows_per_sec,
                    edges,
                    repairs
                ));
            }
        }
    }
    println!("{}", table.render());

    let min_speedup = speedups.iter().map(|(_, _, s)| *s).fold(f64::INFINITY, f64::min);
    let threads_json: Vec<String> = threads_sweep.iter().map(|t| t.to_string()).collect();
    let json = format!(
        "{{\n  \"benchmark\": \"Hospital\",\n  \"scale\": \"{:?}\",\n  \"rows\": {},\n  \
         \"columns\": {},\n  \"cells\": {},\n  \"threads_swept\": [{}],\n  \"fit_iters\": {},\n  \
         \"runs\": [\n{}\n  ],\n{}",
        scale,
        rows,
        cols,
        rows * cols,
        threads_json.join(", "),
        iters,
        runs_json.join(",\n"),
        speedups_json(&speedups, min_speedup, total_start.elapsed().as_secs_f64()),
    );
    match std::fs::write("BENCH_fit.json", &json) {
        Ok(()) => println!("wrote BENCH_fit.json (min speedup {min_speedup:.2}x)\n"),
        Err(e) => eprintln!("could not write BENCH_fit.json: {e}"),
    }
}

/// Ingest benchmark: growing a model batch by batch through
/// `ModelArtifact::ingest_batch` against refitting it from scratch, across
/// two benchmark families (Hospital and the error-heavier Flights) and
/// every variant, at one thread.
///
/// Each run splits the dirty table into equal batches, fits the first one
/// (`fit_artifact`) and then times `ingest_batch` + `compile` for every
/// later batch — the work `bclean ingest` and the daemon's `/ingest` do per
/// batch. The baseline is the best of two from-scratch `fit_artifact` +
/// `compile` runs over all rows. `ingest_speedup` is the baseline over the
/// mean per-batch ingest time, and the grown model's repairs are asserted
/// equal to `fit_with_structure` over all rows with the first batch's
/// structure.
///
/// The `speedups` records gate the ingest speedups in CI via `bench_diff`,
/// keyed `"<benchmark>/<variant>"` with thread count 1.
///
/// A second, **out-of-core tier** exercises the bounded-memory
/// [`clean_stream`] pipeline at scale-factor row counts (10⁴ / 10⁵ / 10⁶
/// rows for `--scale small|default|full`): the dirty table is written to a
/// CSV file and cleaned chunk-by-chunk from disk, asserting bit-identical
/// repairs against the in-RAM one-shot. The tier lands in the snapshot's
/// `ooc` object — rows/s streamed vs resident, the `peak_bytes`
/// peak-memory proxy against the resident dataset's footprint
/// (`memory_ratio`). The object is informational, not gated:
/// `bench_diff` warns on snapshot keys it does not know rather than
/// failing, so adding tiers like this one never breaks an older gate.
fn bench_stream(scale: Scale) {
    println!("## BENCH_stream — ingest_batch + compile vs a from-scratch fit\n");
    let total_start = std::time::Instant::now();
    let chunks = 8usize;
    let fit_iters = 2usize;

    let mut table = TextTable::new(vec![
        "Benchmark",
        "Variant",
        "First fit",
        "Ingest + compile (avg)",
        "Full fit + compile",
        "Ingest speedup",
        "Repairs",
    ]);
    let mut runs_json: Vec<String> = Vec::new();
    let mut speedups: Vec<(String, usize, f64)> = Vec::new();
    for benchmark in [BenchmarkDataset::Hospital, BenchmarkDataset::Flights] {
        let rows = scale.rows(benchmark);
        let bench = benchmark.build_sized(rows, EXPERIMENT_SEED);
        let constraints = bclean_constraints(benchmark);
        let cols = bench.dirty.num_columns();
        let chunk_rows = rows.div_ceil(chunks);
        let batches: Vec<bclean_data::Dataset> = (0..chunks)
            .map(|chunk_idx| chunk_idx * chunk_rows..((chunk_idx + 1) * chunk_rows).min(rows))
            .filter(|range| !range.is_empty())
            .map(|range| {
                let mut batch = bclean_data::Dataset::new(bench.dirty.schema().clone());
                for r in range {
                    batch.push_row(bench.dirty.row(r).expect("row in range").to_vec()).expect("arity");
                }
                batch
            })
            .collect();
        for variant in Variant::all() {
            let cleaner = BClean::new(variant.config().with_threads(1)).with_constraints(constraints.clone());

            // Baseline: the best of `fit_iters` from-scratch fits + compiles
            // over all rows — what growing the model would cost without
            // ingest.
            let mut full_seconds = f64::INFINITY;
            for _ in 0..fit_iters {
                let start = std::time::Instant::now();
                std::hint::black_box(cleaner.fit_artifact(&bench.dirty).compile());
                full_seconds = full_seconds.min(start.elapsed().as_secs_f64());
            }

            // Grow: fit the first batch, then ingest + compile each later one.
            let start = std::time::Instant::now();
            let mut artifact = cleaner.fit_artifact(&batches[0]);
            let first_fit_seconds = start.elapsed().as_secs_f64();
            let mut ingest_seconds = 0.0;
            let mut model = None;
            for batch in &batches[1..] {
                let start = std::time::Instant::now();
                artifact.ingest_batch(batch).expect("batch shares the fitting schema");
                model = Some(artifact.compile());
                ingest_seconds += start.elapsed().as_secs_f64();
            }
            let ingests = batches.len() - 1;
            let ingest_seconds_avg = ingest_seconds / ingests.max(1) as f64;
            let model = model.unwrap_or_else(|| artifact.compile());
            let repairs = model.clean(&bench.dirty).repairs;
            let oneshot_repairs =
                cleaner.fit_with_structure(&bench.dirty, artifact.dag().clone()).clean(&bench.dirty).repairs;
            assert_eq!(
                repairs, oneshot_repairs,
                "a grown model must clean like fit_with_structure over all rows"
            );

            let ingest_speedup = full_seconds / ingest_seconds_avg.max(1e-12);
            speedups.push((format!("{}/{}", benchmark.name(), variant.name()), 1, ingest_speedup));
            table.add_row(vec![
                benchmark.name().to_string(),
                variant.name().to_string(),
                format!("{first_fit_seconds:.4}s"),
                format!("{ingest_seconds_avg:.4}s"),
                format!("{full_seconds:.4}s"),
                format!("{ingest_speedup:.2}x"),
                repairs.len().to_string(),
            ]);
            runs_json.push(format!(
                "    {{\"benchmark\": \"{}\", \"variant\": \"{}\", \"threads\": 1, \"rows\": {}, \
                 \"columns\": {}, \"first_fit_rows\": {}, \"first_fit_seconds\": {:.6}, \
                 \"ingests\": {}, \"ingest_seconds_avg\": {:.6}, \"full_fit_seconds\": {:.6}, \
                 \"ingest_speedup\": {:.3}, \"structure_edges\": {}, \"repairs\": {}}}",
                benchmark.name(),
                variant.name(),
                rows,
                cols,
                batches[0].num_rows(),
                first_fit_seconds,
                ingests,
                ingest_seconds_avg,
                full_seconds,
                ingest_speedup,
                artifact.dag().num_edges(),
                repairs.len(),
            ));
        }
    }
    println!("{}", table.render());

    // Out-of-core tier: the bounded-memory `clean_stream` pipeline reading
    // the dirty table back from a CSV file in fixed-row chunks, against the
    // in-RAM one-shot on the resident dataset. Timed once per mode — the
    // tier's headline numbers are the memory proxy and the bit-identity
    // assertion, not jitter-sensitive speedups (none of them are gated).
    let factor = match scale {
        Scale::Small => ScaleFactor::S10K,
        Scale::Default => ScaleFactor::S100K,
        Scale::Full => ScaleFactor::S1M,
    };
    let ooc_rows = factor.rows();
    let ooc_chunk_rows = 2048usize;
    println!("### out-of-core tier — streamed clean vs in-RAM one-shot (Hospital, {ooc_rows} rows)\n");
    let ooc_bench = BenchmarkDataset::Hospital.build_sized(ooc_rows, EXPERIMENT_SEED);
    let ooc_cleaner = BClean::new(Variant::PartitionedInference.config().with_threads(1))
        .with_constraints(bclean_constraints(BenchmarkDataset::Hospital));

    // Both modes clean the same on-disk CSV: the baseline loads it whole
    // (schema inference included — the exact work `bclean clean` does),
    // the streamed run reads it back in bounded chunks.
    let tmp = std::env::temp_dir().join(format!("bclean-bench-ooc-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("create bench temp dir");
    let csv_path = tmp.join("ooc.csv");
    write_csv_file(&ooc_bench.dirty, &csv_path).expect("write streaming source CSV");

    // In-RAM baseline: the whole dataset resident, one-shot artifact + clean.
    let oneshot_start = std::time::Instant::now();
    let resident = read_csv_file(&csv_path).expect("load streaming source whole");
    let ooc_artifact = ooc_cleaner.fit_artifact(&resident);
    let ooc_model = ooc_artifact.compile();
    let ooc_oneshot = ooc_model.clean(&resident);
    let oneshot_seconds = oneshot_start.elapsed().as_secs_f64();
    let ooc_cols = resident.num_columns();
    let resident_bytes = approx_dataset_bytes(&resident);
    let oneshot_csv = repairs_to_csv(&ooc_oneshot.repairs);
    let ooc_options = StreamOptions { limits: ChunkLimits::rows(ooc_chunk_rows), cleaned_path: None };
    let mut source = CsvFileChunks::open(&csv_path, ooc_options.limits).expect("open streaming source");
    let cold_start = std::time::Instant::now();
    let cold = clean_stream(&ooc_cleaner, &mut source, &ooc_options).expect("streamed clean");
    let cold_seconds = cold_start.elapsed().as_secs_f64();
    assert_eq!(
        repairs_to_csv(&cold.repairs),
        oneshot_csv,
        "the streamed clean must be bit-identical to the in-RAM one-shot"
    );
    let _ = std::fs::remove_dir_all(&tmp);

    let oneshot_rows_per_sec = ooc_rows as f64 / oneshot_seconds.max(1e-12);
    let cold_rows_per_sec = ooc_rows as f64 / cold_seconds.max(1e-12);
    let ooc_throughput_ratio = cold_rows_per_sec / oneshot_rows_per_sec.max(1e-12);
    let memory_ratio = cold.peak_bytes as f64 / (resident_bytes.max(1)) as f64;
    let mut ooc_table = TextTable::new(vec!["Mode", "Wall", "Rows/s", "Peak bytes", "Repairs"]);
    for (mode, seconds, rows_per_sec, peak, repairs) in [
        ("in-RAM one-shot", oneshot_seconds, oneshot_rows_per_sec, resident_bytes, ooc_oneshot.repairs.len()),
        ("streamed (cold)", cold_seconds, cold_rows_per_sec, cold.peak_bytes, cold.repairs.len()),
    ] {
        ooc_table.add_row(vec![
            mode.to_string(),
            format!("{seconds:.4}s"),
            format!("{rows_per_sec:.0}"),
            peak.to_string(),
            repairs.to_string(),
        ]);
    }
    println!("{}", ooc_table.render());
    println!("out-of-core tier: peak memory proxy {:.1}% of resident\n", memory_ratio * 100.0);
    let ooc_json = format!(
        "  \"ooc\": {{\"benchmark\": \"Hospital\", \"rows\": {ooc_rows}, \"columns\": {ooc_cols}, \
         \"chunk_rows\": {ooc_chunk_rows}, \"chunks\": {}, \
         \"oneshot_seconds\": {oneshot_seconds:.6}, \"oneshot_rows_per_sec\": {oneshot_rows_per_sec:.2}, \
         \"resident_bytes\": {resident_bytes}, \
         \"stream_cold_seconds\": {cold_seconds:.6}, \"stream_cold_rows_per_sec\": {cold_rows_per_sec:.2}, \
         \"peak_bytes\": {}, \"memory_ratio\": {memory_ratio:.4}, \
         \"throughput_ratio\": {ooc_throughput_ratio:.4}, \
         \"repairs\": {}}},",
        cold.chunks,
        cold.peak_bytes,
        ooc_oneshot.repairs.len(),
    );

    let min_speedup = speedups.iter().map(|(_, _, s)| *s).fold(f64::INFINITY, f64::min);
    let json = format!(
        "{{\n  \"benchmarks\": [\"Hospital\", \"Flights\"],\n  \"scale\": \"{:?}\",\n  \
         \"chunks\": {},\n  \"fit_iters\": {},\n  \"runs\": [\n{}\n  ],\n{}\n{}",
        scale,
        chunks,
        fit_iters,
        runs_json.join(",\n"),
        ooc_json,
        speedups_json(&speedups, min_speedup, total_start.elapsed().as_secs_f64()),
    );
    match std::fs::write("BENCH_stream.json", &json) {
        Ok(()) => println!("wrote BENCH_stream.json (min ingest speedup {min_speedup:.2}x)\n"),
        Err(e) => eprintln!("could not write BENCH_stream.json: {e}"),
    }
}

/// Large-scale benchmark: cleaning on the wide-schema (32-column) scale
/// dataset, at 10⁴ / 10⁵ / 10⁶ rows for `--scale small|default|full`.
///
/// Two families of runs land in `BENCH_scale.json`:
///
/// * an **exact grid** over thread counts — the executor's ordered merge
///   makes every thread count bit-identical to the serial clean (asserted
///   here and guarded in `tests/e2e_determinism.rs`), so these rows chart
///   how the row-block work distribution scales with real cores (on a
///   single-core runner they hover near 1×, which is the honest reading);
/// * the **scale tier** — top-k candidate pruning (`candidate_top_k`, off
///   by default in the library), serial and at 4 threads, whose speedup is
///   algorithmic: error injection inflates every column's cardinality with
///   near-unique typo values, and capping candidate lists at the `TOP_K`
///   most frequent codes cuts per-cell scoring work by the cardinality
///   ratio, on any machine.
///
/// The `speedups` records CI gates via `bench_diff` are the machine-stable
/// algorithmic ones: pruned-vs-exact at the serial point, and the pruned
/// clean at 4 threads against the serial exact baseline.
fn bench_scale(scale: Scale) {
    let factor = match scale {
        Scale::Small => ScaleFactor::S10K,
        Scale::Default => ScaleFactor::S100K,
        Scale::Full => ScaleFactor::S1M,
    };
    let rows = factor.rows();
    println!("## BENCH_scale — cleaning scale tier (wide schema, {rows} rows)\n");
    let total_start = std::time::Instant::now();
    let bench = build_wide(rows, EXPERIMENT_SEED);
    let cols = bench.dirty.num_columns();
    let cells = rows * cols;
    const TOP_K: usize = 16;
    let clean_iters = if scale == Scale::Small { 2usize } else { 1 };

    // One fit serves every grid point: threads and the candidate cap are
    // execution knobs on the artifact (the fit is bit-identical at every
    // thread count — see tests/e2e_determinism.rs), so the grid re-times
    // cleaning, not fitting. The fit itself is timed at 1 and 4 threads.
    let fit_start = std::time::Instant::now();
    let mut artifact =
        BClean::new(Variant::PartitionedInference.config().with_threads(1)).fit_artifact(&bench.dirty);
    let fit_serial_seconds = fit_start.elapsed().as_secs_f64();
    let fit_start = std::time::Instant::now();
    let _ = BClean::new(Variant::PartitionedInference.config().with_threads(4)).fit_artifact(&bench.dirty);
    let fit_parallel_seconds = fit_start.elapsed().as_secs_f64();

    let mut table =
        TextTable::new(vec!["Config", "Threads", "Top-k", "Clean (best)", "Rows/s", "Cells/s", "Repairs"]);
    let mut runs_json: Vec<String> = Vec::new();
    let mut timed_clean = |artifact: &ModelArtifact, label: &str, threads: usize, pruned: bool| {
        let model = artifact.compile();
        let mut best = f64::INFINITY;
        let mut repairs = Vec::new();
        for _ in 0..clean_iters {
            let start = std::time::Instant::now();
            let result = model.clean(&bench.dirty);
            best = best.min(start.elapsed().as_secs_f64());
            repairs = result.repairs;
        }
        let rows_per_sec = rows as f64 / best.max(1e-12);
        let cells_per_sec = cells as f64 / best.max(1e-12);
        table.add_row(vec![
            label.to_string(),
            threads.to_string(),
            if pruned { TOP_K.to_string() } else { "exact".to_string() },
            format!("{best:.4}s"),
            format!("{rows_per_sec:.0}"),
            format!("{cells_per_sec:.0}"),
            repairs.len().to_string(),
        ]);
        runs_json.push(format!(
            "    {{\"config\": \"{label}\", \"threads\": {threads}, \"pruned\": {pruned}, \
             \"clean_seconds\": {best:.6}, \"rows_per_sec\": {rows_per_sec:.2}, \
             \"cells_per_sec\": {cells_per_sec:.2}, \"repairs\": {}}}",
            repairs.len(),
        ));
        (best, repairs)
    };

    // Exact grid: every thread count must reproduce the serial repairs.
    let (exact_serial_seconds, baseline_repairs) = timed_clean(&artifact, "exact/t1", 1, false);
    for threads in [2usize, 4] {
        artifact.set_threads(threads);
        let (_, repairs) = timed_clean(&artifact, &format!("exact/t{threads}"), threads, false);
        assert_eq!(repairs, baseline_repairs, "exact clean diverged at {threads} threads");
    }

    // Scale tier: candidate pruning, serial and at 4 threads.
    artifact.set_candidate_top_k(TOP_K);
    artifact.set_threads(1);
    let (pruned_serial_seconds, pruned_repairs) = timed_clean(&artifact, "pruned/t1", 1, true);
    artifact.set_threads(4);
    let (scale_tier_seconds, repairs) = timed_clean(&artifact, "pruned/t4", 4, true);
    assert_eq!(repairs, pruned_repairs, "pruned clean diverged at 4 threads");
    println!("{}", table.render());

    let speedups = vec![
        ("wide/pruned-top16".to_string(), 1usize, exact_serial_seconds / pruned_serial_seconds.max(1e-12)),
        ("wide/scale-tier-t4".to_string(), 4usize, exact_serial_seconds / scale_tier_seconds.max(1e-12)),
    ];
    let min_speedup = speedups.iter().map(|(_, _, s)| *s).fold(f64::INFINITY, f64::min);
    let json = format!(
        "{{\n  \"benchmark\": \"WideScale\",\n  \"scale\": \"{:?}\",\n  \"scale_factor\": \"{}\",\n  \
         \"rows\": {},\n  \"columns\": {},\n  \"cells\": {},\n  \"candidate_top_k\": {},\n  \
         \"clean_iters\": {},\n  \"fits\": [\n    \
         {{\"config\": \"exact/t1\", \"fit_seconds\": {:.6}}},\n    \
         {{\"config\": \"exact/t4\", \"fit_seconds\": {:.6}}}\n  ],\n  \"runs\": [\n{}\n  ],\n{}",
        scale,
        factor.name(),
        rows,
        cols,
        cells,
        TOP_K,
        clean_iters,
        fit_serial_seconds,
        fit_parallel_seconds,
        runs_json.join(",\n"),
        speedups_json(&speedups, min_speedup, total_start.elapsed().as_secs_f64()),
    );
    match std::fs::write("BENCH_scale.json", &json) {
        Ok(()) => println!("wrote BENCH_scale.json (min speedup {min_speedup:.2}x)\n"),
        Err(e) => eprintln!("could not write BENCH_scale.json: {e}"),
    }
}

/// §7.3.2 — impact of user network manipulation on Flights.
fn netedit(scale: Scale) {
    println!("## §7.3.2 — impact of user network manipulation (Flights)\n");
    let bench = build(BenchmarkDataset::Flights, scale);
    let constraints = bclean_constraints(BenchmarkDataset::Flights);
    // Automatically learned network.
    let auto_model = BClean::new(Variant::PartitionedInference.config())
        .with_constraints(constraints.clone())
        .fit(&bench.dirty);
    let auto_start = std::time::Instant::now();
    let auto_result = auto_model.clean(&bench.dirty);
    let auto_time = auto_start.elapsed();
    let auto_metrics = evaluate(&bench.dirty, &auto_result.cleaned, &bench.clean).expect("shapes match");

    // User adjustment: make `flight` the parent of the four time attributes.
    let mut edited_model =
        BClean::new(Variant::PartitionedInference.config()).with_constraints(constraints).fit(&bench.dirty);
    let schema = bench.dirty.schema();
    let flight = schema.index_of("flight").expect("flight attribute exists");
    let mut edits = Vec::new();
    for (from, to) in edited_model.dag().edges() {
        edits.push(NetworkEdit::RemoveEdge { from, to });
    }
    for time_attr in ["sched_dep_time", "act_dep_time", "sched_arr_time", "act_arr_time"] {
        let to = schema.index_of(time_attr).expect("time attribute exists");
        edits.push(NetworkEdit::AddEdge { from: flight, to });
    }
    edited_model.edit_network(&bench.dirty, edits).expect("edits are valid");
    let edit_start = std::time::Instant::now();
    let edited_result = edited_model.clean(&bench.dirty);
    let edit_time: Duration = edit_start.elapsed();
    let edited_metrics = evaluate(&bench.dirty, &edited_result.cleaned, &bench.clean).expect("shapes match");

    let mut table = TextTable::new(vec!["Network", "Precision", "Recall", "F1", "Exec"]);
    table.add_row(vec![
        "Automatic".to_string(),
        format!("{:.3}", auto_metrics.precision),
        format!("{:.3}", auto_metrics.recall),
        format!("{:.3}", auto_metrics.f1),
        format_duration(auto_time),
    ]);
    table.add_row(vec![
        "User-adjusted".to_string(),
        format!("{:.3}", edited_metrics.precision),
        format!("{:.3}", edited_metrics.recall),
        format!("{:.3}", edited_metrics.f1),
        format_duration(edit_time),
    ]);
    println!("{}", table.render());
}
