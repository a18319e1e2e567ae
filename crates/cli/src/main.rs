//! The `bclean` command-line tool.
//!
//! The fit-once/clean-many lifecycle over persistent `.bclean` model
//! artifacts (see `bclean-store` and the README's "Persistence & CLI"
//! section), plus the profiling/suggestion front-end:
//!
//! ```text
//! bclean fit     data.csv -o model.bclean -c rules.bc --variant pip
//! bclean clean   fresh.csv -m model.bclean -o cleaned.csv --repairs repairs.csv
//! bclean ingest  batch.csv -m model.bclean            # absorb new rows, persist grown dictionaries
//! bclean inspect model.bclean                         # format version, schema hash, structure, sizes
//! bclean profile data.csv                             # column statistics + outlier report
//! bclean suggest data.csv                             # draft a constraints file from the data
//! bclean clean   data.csv -o cleaned.csv              # one-shot: fit in process, then clean
//! bclean serve   -m model.bclean --addr 127.0.0.1:7345  # resident cleaning daemon
//! ```
//!
//! `bclean clean` always streams its input in bounded chunks
//! (`bclean_core::clean_stream`, or `clean_stream_with_model` with `-m`):
//! `--chunk-rows` and `--max-memory` bound the chunks, and the repairs and
//! cleaned rows equal those of an in-memory fit and clean. The one case that
//! holds the whole dataset in memory is constraint auto-suggestion (no `-c`
//! and no `-m`), which reads the file once in full, as `bclean fit` does,
//! before streaming it.
//!
//! Exit codes are distinct per failure class so scripts can react without
//! scraping stderr: `0` success, `2` usage error (bad flags/arguments —
//! usage text follows the error), `3` file I/O failure, `4` invalid input
//! content (unreadable artifact, constraint-spec error, schema mismatch).
//!
//! Constraints files (`-c`) contain one constraint per line in the
//! canonical spec format (`ConstraintSet::to_spec_text`):
//!
//! ```text
//! # attribute: specification
//! ZipCode: pattern [1-9][0-9]{4,4}
//! State:   max_len 2
//! State:   not_null
//! abv:     num(value) >= 0 && num(value) <= 1      # any expression works
//! rule:    ends_with(InsuranceCode, ZipCode)       # tuple-level rule
//! ```

use std::env;
use std::fmt::Write as _;
use std::process::ExitCode;

use bclean_core::{
    clean_stream, clean_stream_with_model, repairs_to_csv, BClean, ConstraintSet, ModelArtifact, Repair,
    StreamOptions, StreamOutcome, UserConstraint, Variant,
};
use bclean_data::{read_csv_file, ChunkLimits, ChunkSource, CsvFileChunks, Dataset};
use bclean_profile::{find_outliers, suggest_constraints, DatasetProfile, OutlierConfig, SuggestConfig};
use bclean_store::{read_container_file, ContainerReader};

/// Write one formatted line to stdout. A reader that goes away early
/// (`bclean --help | head -1`) closes the pipe: the rest of the output is
/// dropped quietly and the command runs on to its own exit code, where
/// `println!` would panic. Any other write failure is an I/O error of the
/// command.
macro_rules! outln {
    ($($arg:tt)*) => {
        console_line(&mut std::io::stdout(), format_args!($($arg)*))
    };
}

/// Write one formatted line to stderr, as [`outln!`] does to stdout; a
/// diagnostic that cannot be written is dropped.
macro_rules! errln {
    ($($arg:tt)*) => {
        let _ = console_line(&mut std::io::stderr(), format_args!($($arg)*));
    };
}

fn console_line(stream: &mut impl std::io::Write, line: std::fmt::Arguments<'_>) -> Result<(), CliError> {
    match writeln!(stream, "{line}") {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            Err(io_err(format!("cannot write output: {e}")))
        }
        _ => Ok(()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            errln!("error: {error}");
            // Usage text only helps when the *invocation* was wrong; for
            // I/O and content failures it would bury the actual error.
            if matches!(error, CliError::Usage(_)) {
                errln!("");
                errln!("{}", usage());
            }
            ExitCode::from(error.exit_code())
        }
    }
}

/// A classified CLI failure. Each class maps to a distinct exit code (see
/// the module docs) so callers can distinguish "you typed it wrong" from
/// "the file system failed" from "the input content is bad".
#[derive(Debug)]
enum CliError {
    /// Bad flags or arguments — exit 2, usage text printed.
    Usage(String),
    /// A filesystem read or write failed — exit 3.
    Io(String),
    /// Input content is invalid: unreadable artifact, constraint-spec
    /// error, schema mismatch — exit 4.
    Model(String),
}

impl CliError {
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Io(_) => 3,
            CliError::Model(_) => 4,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) | CliError::Io(m) | CliError::Model(m) => write!(f, "{m}"),
        }
    }
}

fn usage_err(message: impl Into<String>) -> CliError {
    CliError::Usage(message.into())
}

fn io_err(message: impl Into<String>) -> CliError {
    CliError::Io(message.into())
}

fn model_err(message: impl Into<String>) -> CliError {
    CliError::Model(message.into())
}

/// Classify a [`StoreError`]: transport failures are I/O, everything else
/// (bad magic, truncation, checksum, schema mismatch) is invalid content.
fn store_err(context: &str, error: bclean_store::StoreError) -> CliError {
    match error {
        bclean_store::StoreError::Io { .. } => io_err(format!("{context}: {error}")),
        _ => model_err(format!("{context}: {error}")),
    }
}

fn usage() -> &'static str {
    "usage:
  bclean fit     <data.csv> -o <model.bclean> [-c constraints.bc] [--suggest]
                            [--variant basic|nouc|pi|pip] [--threads N]
  bclean clean   <data.csv> [-m model.bclean] [-o cleaned.csv] [--repairs repairs.csv]
                            [--report report.json] [-c constraints.bc]
                            [--variant basic|nouc|pi|pip] [--threads N]
                            [--max-repairs N] [--chunk-rows N] [--max-memory BYTES[K|M|G]]
  bclean ingest  <batch.csv> -m <model.bclean> [-o updated.bclean]
  bclean inspect <model.bclean>
  bclean profile <data.csv>
  bclean suggest <data.csv>
  bclean serve   -m <model.bclean> [-m more.bclean]... [--addr HOST:PORT]
                            [--workers N] [--threads N]"
}

fn run(args: &[String]) -> Result<(), CliError> {
    let command = args.first().ok_or_else(|| usage_err("missing command"))?;
    match command.as_str() {
        "fit" => fit_command(&args[1..]),
        "clean" => clean_command(&args[1..]),
        "ingest" => ingest_command(&args[1..]),
        "inspect" => inspect_command(&single_path(&args[1..], "<model.bclean>")?),
        "profile" => profile_command(&single_path(&args[1..], "<data.csv>")?),
        "suggest" => suggest_command(&single_path(&args[1..], "<data.csv>")?),
        "serve" => serve_command(&args[1..]),
        "--help" | "-h" | "help" => {
            outln!("{}", usage())?;
            Ok(())
        }
        other => Err(usage_err(format!("unknown command {other:?}"))),
    }
}

/// The single positional argument of inspect/profile/suggest. Extra
/// arguments and stray flags are usage errors, not silently dropped — a
/// typo like `bclean inspect a.bclean b.bclean` must not exit 0 having
/// looked at only one file.
fn single_path(args: &[String], what: &str) -> Result<String, CliError> {
    match args {
        [] => Err(usage_err(format!("missing {what}"))),
        [path] if !path.starts_with('-') => Ok(path.clone()),
        [flag] => Err(usage_err(format!("unexpected flag {flag:?}; this command takes only {what}"))),
        [_, extra, ..] => {
            Err(usage_err(format!("unexpected extra argument {extra:?}; this command takes only {what}")))
        }
    }
}

fn load(path: &str) -> Result<Dataset, CliError> {
    read_csv_file(path).map_err(|e| io_err(format!("cannot read {path}: {e}")))
}

/// Shared flag parsing of the fit/clean/ingest commands.
#[derive(Debug, Default)]
struct CommonArgs {
    input: Option<String>,
    output: Option<String>,
    model: Option<String>,
    constraints: Option<String>,
    repairs: Option<String>,
    report: Option<String>,
    variant: Option<Variant>,
    threads: Option<usize>,
    suggest: bool,
    max_repairs: Option<usize>,
    chunk_rows: Option<usize>,
    max_memory: Option<usize>,
}

impl CommonArgs {
    /// The per-chunk bounds the chunking flags spell out. `--chunk-rows`
    /// caps rows per chunk; `--max-memory B` caps each raw chunk and each
    /// decoded cleaning window at `B / 2`, and nothing else. The encoded
    /// columns (4 bytes per cell plus the dictionaries) and the 8-byte
    /// per-row confidence vector stay resident and grow with the row
    /// count, so a long input's peak exceeds `B` (see docs/ARCHITECTURE.md,
    /// "Out-of-core cleaning").
    fn chunk_limits(&self) -> ChunkLimits {
        let mut limits = ChunkLimits::default();
        if let Some(rows) = self.chunk_rows {
            limits = ChunkLimits::rows(rows);
        }
        if let Some(bytes) = self.max_memory {
            limits.max_bytes = (bytes / 2).max(1);
        }
        limits
    }
}

/// Parse a byte count with an optional binary suffix: `65536`, `64K`,
/// `512M`, `2G` (powers of 1024, case-insensitive).
fn parse_bytes(text: &str) -> Result<usize, String> {
    let (digits, multiplier) = match text.char_indices().last() {
        Some((i, 'k' | 'K')) => (&text[..i], 1usize << 10),
        Some((i, 'm' | 'M')) => (&text[..i], 1usize << 20),
        Some((i, 'g' | 'G')) => (&text[..i], 1usize << 30),
        _ => (text, 1usize),
    };
    let value: usize = digits.parse().map_err(|_| format!("invalid byte count {text:?}"))?;
    value.checked_mul(multiplier).ok_or_else(|| format!("byte count {text:?} overflows"))
}

fn parse_common(args: &[String]) -> Result<CommonArgs, CliError> {
    let mut parsed = CommonArgs::default();
    let mut i = 0;
    while i < args.len() {
        let flag_value = |name: &str| -> Result<String, CliError> {
            args.get(i + 1).cloned().ok_or_else(|| usage_err(format!("missing value after {name}")))
        };
        match args[i].as_str() {
            "-o" | "--output" => {
                parsed.output = Some(flag_value("-o")?);
                i += 2;
            }
            "-m" | "--model" => {
                parsed.model = Some(flag_value("-m")?);
                i += 2;
            }
            "-c" | "--constraints" => {
                parsed.constraints = Some(flag_value("-c")?);
                i += 2;
            }
            "--repairs" => {
                parsed.repairs = Some(flag_value("--repairs")?);
                i += 2;
            }
            "--report" => {
                parsed.report = Some(flag_value("--report")?);
                i += 2;
            }
            "--variant" => {
                parsed.variant = Some(parse_variant(&flag_value("--variant")?).map_err(usage_err)?);
                i += 2;
            }
            "--threads" => {
                let n = flag_value("--threads")?;
                parsed.threads = Some(n.parse().map_err(|_| usage_err(format!("invalid --threads {n:?}")))?);
                i += 2;
            }
            "--max-repairs" => {
                let n = flag_value("--max-repairs")?;
                parsed.max_repairs =
                    Some(n.parse().map_err(|_| usage_err(format!("invalid --max-repairs {n:?}")))?);
                i += 2;
            }
            "--chunk-rows" => {
                let n = flag_value("--chunk-rows")?;
                parsed.chunk_rows =
                    Some(n.parse().map_err(|_| usage_err(format!("invalid --chunk-rows {n:?}")))?);
                i += 2;
            }
            "--max-memory" => {
                let n = flag_value("--max-memory")?;
                parsed.max_memory = Some(parse_bytes(&n).map_err(usage_err)?);
                i += 2;
            }
            "--suggest" => {
                parsed.suggest = true;
                i += 1;
            }
            path if parsed.input.is_none() && !path.starts_with('-') => {
                parsed.input = Some(path.to_string());
                i += 1;
            }
            other => return Err(usage_err(format!("unexpected argument {other:?}"))),
        }
    }
    Ok(parsed)
}

fn parse_variant(name: &str) -> Result<Variant, String> {
    match name.to_ascii_lowercase().as_str() {
        "basic" => Ok(Variant::Basic),
        "nouc" | "no-uc" => Ok(Variant::NoUserConstraints),
        "pi" => Ok(Variant::PartitionedInference),
        "pip" => Ok(Variant::PartitionedInferencePruning),
        other => Err(format!("unknown variant {other:?} (expected basic, nouc, pi or pip)")),
    }
}

/// Error when flags that this command would silently ignore are present —
/// a dropped `-c stricter_rules.bc` must never look applied.
fn reject_unused_flags(context: &str, flags: &[(&str, bool)]) -> Result<(), CliError> {
    for (name, present) in flags {
        if *present {
            return Err(usage_err(format!("{name} has no effect {context}")));
        }
    }
    Ok(())
}

/// Resolve the constraint set of a fit: an explicit `-c` file, or
/// auto-suggestion (`--suggest`, also the default when `-c` is absent so
/// `bclean fit data.csv` works out of the box; the suggestion source is
/// reported on stderr). Passing both is a conflict, not a silent pick.
/// Suggestion reads the whole of `input` unless `data` already holds it.
fn resolve_constraints(
    input: &str,
    data: Option<&Dataset>,
    args: &CommonArgs,
) -> Result<ConstraintSet, CliError> {
    if let Some(path) = &args.constraints {
        if args.suggest {
            return Err(usage_err("pass either -c <constraints.bc> or --suggest, not both"));
        }
        let text = std::fs::read_to_string(path).map_err(|e| io_err(format!("cannot read {path}: {e}")))?;
        return ConstraintSet::from_spec_text(&text).map_err(|e| model_err(format!("{path}: {e}")));
    }
    let loaded;
    let data = match data {
        Some(data) => data,
        None => {
            loaded = load(input)?;
            &loaded
        }
    };
    let (suggested, suggestions) = suggest_constraints(data, SuggestConfig::default());
    errln!("using {} auto-suggested constraints (see `bclean suggest`)", suggestions.len());
    Ok(suggested)
}

fn fit_command(args: &[String]) -> Result<(), CliError> {
    let args = parse_common(args)?;
    // Flags that only the clean/ingest commands consume must not pass
    // silently: `bclean fit data.csv -o m.bclean --repairs r.csv` exiting 0
    // without writing r.csv looks like success.
    reject_unused_flags(
        "when fitting (it belongs to `bclean clean`/`bclean ingest`)",
        &[
            ("-m/--model", args.model.is_some()),
            ("--repairs", args.repairs.is_some()),
            ("--report", args.report.is_some()),
            ("--max-repairs", args.max_repairs.is_some()),
            ("--chunk-rows", args.chunk_rows.is_some()),
            ("--max-memory", args.max_memory.is_some()),
        ],
    )?;
    let input = args.input.as_deref().ok_or_else(|| usage_err("missing <data.csv>"))?;
    let output = args.output.as_deref().ok_or_else(|| usage_err("missing -o <model.bclean>"))?;
    let data = load(input)?;
    let constraints = resolve_constraints(input, Some(&data), &args)?;
    let variant = args.variant.unwrap_or(Variant::PartitionedInference);
    let mut config = variant.config();
    if let Some(threads) = args.threads {
        config = config.with_threads(threads);
    }
    let start = std::time::Instant::now();
    let artifact = BClean::new(config).with_constraints(constraints).fit_artifact(&data);
    artifact.save(output).map_err(|e| store_err(&format!("cannot save {output}"), e))?;
    outln!(
        "fit {} rows x {} columns ({}) in {:?}",
        data.num_rows(),
        data.num_columns(),
        variant.name(),
        start.elapsed()
    )?;
    outln!(
        "model written to {output} (schema hash {:016x}, {} structure edges)",
        artifact.schema_hash(),
        artifact.dag().num_edges()
    )?;
    Ok(())
}

/// `bclean clean`: the CSV is read in bounded chunks (`--chunk-rows`,
/// `--max-memory`), the fit accumulates the encoding and per-row
/// confidences chunk by chunk, and cleaning decodes bounded windows —
/// repairs, cleaned rows and artifact equal an in-memory fit and clean (see
/// `bclean_core::stream`). With `-m` there is no fit: the chunks are
/// cleaned against the persisted model in one pass.
fn clean_command(args: &[String]) -> Result<(), CliError> {
    let args = parse_common(args)?;
    let input = args.input.as_deref().ok_or_else(|| usage_err("missing <data.csv>"))?;
    let limits = args.chunk_limits();
    let options = StreamOptions { limits, cleaned_path: args.output.as_ref().map(std::path::PathBuf::from) };
    let open = || CsvFileChunks::open(input, limits).map_err(|e| io_err(format!("cannot read {input}: {e}")));

    let streamed = match &args.model {
        // The fit-once/clean-many path: load the persisted artifact and
        // clean against its model — no fitting in this process, so the
        // fit-shaping flags must not pretend to apply.
        Some(path) => {
            reject_unused_flags(
                "when cleaning with -m (the artifact's persisted constraints and variant apply)",
                &[
                    ("-c/--constraints", args.constraints.is_some()),
                    ("--variant", args.variant.is_some()),
                    ("--suggest", args.suggest),
                ],
            )?;
            let mut source = open()?;
            let mut artifact =
                ModelArtifact::load(path).map_err(|e| store_err(&format!("cannot load {path}"), e))?;
            artifact.check_schema(source.schema()).map_err(|e| model_err(format!("{input}: {e}")))?;
            if let Some(threads) = args.threads {
                artifact.set_threads(threads);
            }
            clean_stream_with_model(&artifact.compile(), &mut source, &options)
        }
        // The one-shot path: fit in process, then clean. Auto-suggested
        // constraints read the whole input once before it streams.
        None => {
            let constraints = resolve_constraints(input, None, &args)?;
            let mut source = open()?;
            let variant = args.variant.unwrap_or(Variant::PartitionedInference);
            let mut config = variant.config();
            if let Some(threads) = args.threads {
                config = config.with_threads(threads);
            }
            clean_stream(&BClean::new(config).with_constraints(constraints), &mut source, &options)
        }
    };
    let outcome = streamed.map_err(|e| io_err(format!("cannot clean {input}: {e}")))?;

    outln!(
        "{} repairs across {} rows in {} chunks in {:?} (peak memory proxy ~{})",
        outcome.repairs.len(),
        outcome.rows,
        outcome.chunks,
        outcome.stats.duration + outcome.stats.fit_duration,
        format_bytes(outcome.peak_bytes)
    )?;
    print_repair_lines(&outcome.repairs, args.max_repairs.unwrap_or(50))?;

    if let Some(path) = &args.output {
        outln!("cleaned dataset written to {path}")?;
    }
    if let Some(path) = &args.repairs {
        std::fs::write(path, repairs_to_csv(&outcome.repairs))
            .map_err(|e| io_err(format!("cannot write {path}: {e}")))?;
        outln!("repairs written to {path}")?;
    }
    if let Some(path) = &args.report {
        std::fs::write(path, report_json(input, &outcome))
            .map_err(|e| io_err(format!("cannot write {path}: {e}")))?;
        outln!("report written to {path}")?;
    }
    Ok(())
}

/// The per-repair console lines of `bclean clean`.
fn print_repair_lines(repairs: &[Repair], shown: usize) -> Result<(), CliError> {
    for repair in repairs.iter().take(shown) {
        outln!(
            "  row {:<6} {:<22} {:?} -> {:?}",
            repair.at.row,
            repair.attribute,
            repair.from.to_string(),
            repair.to.to_string()
        )?;
    }
    if repairs.len() > shown {
        outln!("  … and {} more (raise --max-repairs to see them)", repairs.len() - shown)?;
    }
    Ok(())
}

/// Human-readable binary byte count for console summaries.
fn format_bytes(bytes: usize) -> String {
    const UNITS: [&str; 4] = ["B", "KiB", "MiB", "GiB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit + 1 < UNITS.len() {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{value:.1} {}", UNITS[unit])
    }
}

fn ingest_command(args: &[String]) -> Result<(), CliError> {
    let args = parse_common(args)?;
    reject_unused_flags(
        "when ingesting (the artifact's persisted configuration applies)",
        &[
            ("-c/--constraints", args.constraints.is_some()),
            ("--variant", args.variant.is_some()),
            ("--suggest", args.suggest),
            ("--repairs", args.repairs.is_some()),
            ("--report", args.report.is_some()),
            ("--threads", args.threads.is_some()),
            ("--max-repairs", args.max_repairs.is_some()),
            ("--chunk-rows", args.chunk_rows.is_some()),
            ("--max-memory", args.max_memory.is_some()),
        ],
    )?;
    let input = args.input.as_deref().ok_or_else(|| usage_err("missing <batch.csv>"))?;
    let model_path = args.model.as_deref().ok_or_else(|| usage_err("missing -m <model.bclean>"))?;
    let output = args.output.as_deref().unwrap_or(model_path);
    let batch = load(input)?;
    let mut artifact =
        ModelArtifact::load(model_path).map_err(|e| store_err(&format!("cannot load {model_path}"), e))?;
    let before = artifact.num_rows();
    let after = artifact.ingest_batch(&batch).map_err(|e| model_err(format!("{input}: {e}")))?;
    artifact.save(output).map_err(|e| store_err(&format!("cannot save {output}"), e))?;
    outln!(
        "absorbed {} rows ({} -> {} total); updated model written to {output}",
        batch.num_rows(),
        before,
        after
    )?;
    outln!("(statistics updated incrementally; structure kept — refit with `bclean fit` to relearn it)")?;
    Ok(())
}

/// `bclean serve`: run the resident cleaning daemon (see `bclean-serve`
/// and the README's "Serving" section). Blocks until a `POST /shutdown`
/// arrives or the process is killed.
fn serve_command(args: &[String]) -> Result<(), CliError> {
    let mut config = bclean_serve::ServerConfig::default();
    let mut threads: Option<usize> = None;
    let mut models: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let flag_value = |name: &str| -> Result<String, CliError> {
            args.get(i + 1).cloned().ok_or_else(|| usage_err(format!("missing value after {name}")))
        };
        match args[i].as_str() {
            "-m" | "--model" => {
                models.push(flag_value("-m")?);
                i += 2;
            }
            "--addr" => {
                config.addr = flag_value("--addr")?;
                i += 2;
            }
            "--workers" => {
                let n = flag_value("--workers")?;
                config.workers = n.parse().map_err(|_| usage_err(format!("invalid --workers {n:?}")))?;
                i += 2;
            }
            "--threads" => {
                let n = flag_value("--threads")?;
                threads = Some(n.parse().map_err(|_| usage_err(format!("invalid --threads {n:?}")))?);
                i += 2;
            }
            other => return Err(usage_err(format!("unexpected argument {other:?}"))),
        }
    }
    if models.is_empty() {
        return Err(usage_err("missing -m <model.bclean> (at least one model to serve)"));
    }
    if config.workers == 0 {
        return Err(usage_err("--workers must be at least 1"));
    }

    let registry = std::sync::Arc::new(bclean_serve::ModelRegistry::new());
    for path in &models {
        let mut artifact =
            ModelArtifact::load(path).map_err(|e| store_err(&format!("cannot load {path}"), e))?;
        if let Some(threads) = threads {
            artifact.set_threads(threads);
        }
        let rows = artifact.num_rows();
        let hash = registry.register(artifact);
        outln!("loaded {path} (schema hash {hash:016x}, {rows} rows)")?;
    }

    let server = bclean_serve::Server::bind(&config, registry)
        .map_err(|e| io_err(format!("cannot bind {}: {e}", config.addr)))?;
    let addr = server.local_addr().map_err(|e| io_err(format!("cannot resolve bound address: {e}")))?;
    // Announce readiness on a line of its own and flush, so wrappers (the
    // CI smoke job, the tests) can wait for it before sending traffic.
    outln!("bclean serve listening on {addr} ({} workers, {} models)", config.workers, models.len())?;
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.run().map_err(|e| io_err(format!("serve loop failed: {e}")))
}

fn inspect_command(path: &str) -> Result<(), CliError> {
    let bytes = read_container_file(std::path::Path::new(path)).map_err(|e| store_err(path, e))?;
    let container = ContainerReader::parse(&bytes).map_err(|e| store_err(path, e))?;
    let artifact = ModelArtifact::from_bytes(&bytes).map_err(|e| store_err(path, e))?;
    outln!("{path}: bclean model artifact, format version {}", container.version())?;
    outln!("  schema hash   {:016x}", artifact.schema_hash())?;
    outln!("  rows absorbed {}", artifact.num_rows())?;
    let names = artifact.attribute_names();
    outln!("  attributes    {}", names.len())?;
    for (name, ty) in names.iter().zip(artifact.attribute_types()) {
        outln!("    {name} ({ty})")?;
    }
    let edges = artifact.dag().edges();
    outln!("  structure     {} edges", edges.len())?;
    for (from, to) in edges {
        outln!("    {} -> {}", names[from], names[to])?;
    }
    outln!(
        "  constraints   {} per-attribute, {} tuple rules",
        artifact.constraints().len(),
        artifact.constraints().num_row_rules()
    )?;
    outln!("  sections")?;
    for (id, size) in container.section_sizes() {
        outln!("    {:<14} {size} bytes", id.name())?;
    }
    outln!("  total         {} bytes", bytes.len())?;
    Ok(())
}

fn profile_command(path: &str) -> Result<(), CliError> {
    let data = load(path)?;
    let profile = DatasetProfile::profile(&data);
    outln!("{} rows x {} columns\n", data.num_rows(), data.num_columns())?;
    outln!("{}", profile.summary())?;
    let outliers = find_outliers(&data, OutlierConfig::default());
    outln!("Suspicious cells: {}", outliers.len())?;
    for o in outliers.iter().take(20) {
        outln!(
            "  row {:<6} {:<20} {:<10} severity {:>7.1}  value {:?}",
            o.at.row,
            o.attribute,
            format!("{:?}", o.kind),
            o.severity,
            o.value.to_string()
        )?;
    }
    if outliers.len() > 20 {
        outln!("  … and {} more", outliers.len() - 20)?;
    }
    Ok(())
}

fn suggest_command(path: &str) -> Result<(), CliError> {
    let data = load(path)?;
    let (_, suggestions) = suggest_constraints(&data, SuggestConfig::default());
    outln!("# Draft constraints file generated by `bclean suggest {path}`")?;
    outln!("# Review each line, delete what you disagree with, then pass the")?;
    outln!("# file to `bclean fit {path} -c <this file> -o model.bclean`.")?;
    for s in &suggestions {
        let spec = constraint_to_spec(&s.constraint);
        outln!("{}: {:<40} # {}", s.attribute, spec, s.rationale)?;
    }
    Ok(())
}

fn constraint_to_spec(constraint: &UserConstraint) -> String {
    constraint.to_spec().unwrap_or_else(|_| "# custom constraint (not expressible in a file)".to_string())
}

/// Machine-readable cleaning report (the workspace builds offline, so the
/// JSON is written by hand like the `BENCH_*.json` snapshots): the cleaning
/// counters, the fit and clean times, and the out-of-core telemetry
/// (chunks, peak-memory proxy).
fn report_json(input: &str, outcome: &StreamOutcome) -> String {
    let mut repairs = String::new();
    for (i, repair) in outcome.repairs.iter().enumerate() {
        let _ = write!(
            repairs,
            "    {{\"row\": {}, \"col\": {}, \"attribute\": {}, \"from\": {}, \"to\": {}, \
             \"score_gain\": {}}}{}",
            repair.at.row,
            repair.at.col,
            json_string(&repair.attribute),
            json_string(&repair.from.to_string()),
            json_string(&repair.to.to_string()),
            json_number(repair.score_gain),
            if i + 1 < outcome.repairs.len() { ",\n" } else { "\n" }
        );
    }
    format!(
        "{{\n  \"input\": {},\n  \"rows\": {},\n  \"cells_examined\": {},\n  \"cells_skipped\": {},\n  \
         \"candidates_evaluated\": {},\n  \"num_repairs\": {},\n  \"clean_seconds\": {:.6},\n  \
         \"fit_seconds\": {:.6},\n  \"chunks\": {},\n  \"peak_bytes\": {},\n  \
         \"repairs\": [\n{}  ]\n}}\n",
        json_string(input),
        outcome.rows,
        outcome.stats.cells_examined,
        outcome.stats.cells_skipped,
        outcome.stats.candidates_evaluated,
        outcome.repairs.len(),
        outcome.stats.duration.as_secs_f64(),
        outcome.stats.fit_duration.as_secs_f64(),
        outcome.chunks,
        outcome.peak_bytes,
        repairs
    )
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON has no infinities; score gains of constraint-violating originals
/// are +inf, so clamp into a representable sentinel.
fn json_number(n: f64) -> String {
    if n.is_finite() {
        format!("{n}")
    } else if n > 0.0 {
        "1e308".to_string()
    } else {
        "-1e308".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bclean_core::Repair;
    use bclean_data::{CellRef, Value};

    #[test]
    fn constraints_files_still_parse() {
        let text = "
# a comment line
ZipCode: pattern [1-9][0-9]{4,4}
State:   max_len 2          # trailing comment
State:   not_null
score:   min_value 0
score:   max_value 10
name:    min_len 3
abv:     num(value) >= 0 && num(value) <= 1
rule:    ends_with(code, zip)
";
        let set = ConstraintSet::from_spec_text(text).unwrap();
        assert_eq!(set.len(), 7);
        assert_eq!(set.num_row_rules(), 1);
        assert!(set.check("ZipCode", &Value::parse("35150")));
        assert!(!set.check("ZipCode", &Value::text("3515x")));
        assert!(!set.check("State", &Value::text("California")));
    }

    #[test]
    fn variant_names_parse() {
        assert_eq!(parse_variant("pi").unwrap(), Variant::PartitionedInference);
        assert_eq!(parse_variant("PIP").unwrap(), Variant::PartitionedInferencePruning);
        assert_eq!(parse_variant("basic").unwrap(), Variant::Basic);
        assert_eq!(parse_variant("nouc").unwrap(), Variant::NoUserConstraints);
        assert!(parse_variant("fast").is_err());
    }

    #[test]
    fn spec_round_trips_through_suggestions_format() {
        for constraint in [
            UserConstraint::MinLength(3),
            UserConstraint::MaxLength(9),
            UserConstraint::MinValue(1.5),
            UserConstraint::MaxValue(10.0),
            UserConstraint::NotNull,
            UserConstraint::pattern("[0-9]{5}").unwrap(),
            UserConstraint::expression("len(value) == 5").unwrap(),
        ] {
            let spec = constraint_to_spec(&constraint);
            let reparsed = UserConstraint::parse_spec(&spec).unwrap();
            assert_eq!(format!("{constraint:?}"), format!("{reparsed:?}"), "spec {spec:?}");
        }
    }

    #[test]
    fn flag_parsing_covers_all_forms() {
        let args: Vec<String> = [
            "data.csv",
            "-m",
            "model.bclean",
            "-o",
            "out.csv",
            "--repairs",
            "r.csv",
            "--report",
            "r.json",
            "--variant",
            "pip",
            "--threads",
            "2",
            "--max-repairs",
            "7",
            "--suggest",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let parsed = parse_common(&args).unwrap();
        assert_eq!(parsed.input.as_deref(), Some("data.csv"));
        assert_eq!(parsed.model.as_deref(), Some("model.bclean"));
        assert_eq!(parsed.output.as_deref(), Some("out.csv"));
        assert_eq!(parsed.repairs.as_deref(), Some("r.csv"));
        assert_eq!(parsed.report.as_deref(), Some("r.json"));
        assert_eq!(parsed.variant, Some(Variant::PartitionedInferencePruning));
        assert_eq!(parsed.threads, Some(2));
        assert_eq!(parsed.max_repairs, Some(7));
        assert!(parsed.suggest);
        assert!(parse_common(&["--threads".to_string()]).is_err());
        assert!(parse_common(&["--threads".to_string(), "x".to_string()]).is_err());
        assert!(parse_common(&["--bogus".to_string()]).is_err());
    }

    #[test]
    fn stream_flags_parse_and_shape_chunk_limits() {
        let args: Vec<String> = ["data.csv", "--chunk-rows", "512", "--max-memory", "64M"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let parsed = parse_common(&args).unwrap();
        assert_eq!(parsed.chunk_rows, Some(512));
        assert_eq!(parsed.max_memory, Some(64 << 20));
        let limits = parsed.chunk_limits();
        assert_eq!(limits.max_rows, 512);
        assert_eq!(limits.max_bytes, 32 << 20);
        // Defaults when no flags are set.
        let bare = CommonArgs::default().chunk_limits();
        assert_eq!(bare.max_rows, ChunkLimits::default().max_rows);
        assert_eq!(bare.max_bytes, usize::MAX);
    }

    #[test]
    fn byte_counts_parse_with_binary_suffixes() {
        assert_eq!(parse_bytes("65536").unwrap(), 65536);
        assert_eq!(parse_bytes("64k").unwrap(), 64 << 10);
        assert_eq!(parse_bytes("64K").unwrap(), 64 << 10);
        assert_eq!(parse_bytes("3M").unwrap(), 3 << 20);
        assert_eq!(parse_bytes("2G").unwrap(), 2 << 30);
        assert!(parse_bytes("").is_err());
        assert!(parse_bytes("M").is_err());
        assert!(parse_bytes("12Q").is_err());
    }

    #[test]
    fn human_byte_formatting() {
        assert_eq!(format_bytes(512), "512 B");
        assert_eq!(format_bytes(64 << 10), "64.0 KiB");
        assert_eq!(format_bytes((3 << 20) + (512 << 10)), "3.5 MiB");
    }

    #[test]
    fn repairs_csv_quotes_and_formats() {
        let repairs = vec![Repair {
            at: CellRef::new(3, 1),
            attribute: "City, State".into(),
            from: Value::text("a\"b"),
            to: Value::text("plain"),
            score_gain: 1.5,
        }];
        let csv = repairs_to_csv(&repairs);
        assert_eq!(csv, "row,attribute,from,to,score_gain\n3,\"City, State\",\"a\"\"b\",plain,1.5\n");
    }

    #[test]
    fn report_json_is_well_formed_and_escaped() {
        let outcome = StreamOutcome {
            artifact: None,
            repairs: vec![Repair {
                at: CellRef::new(0, 0),
                attribute: "a\"quote".into(),
                from: Value::Null,
                to: Value::text("x\n"),
                score_gain: f64::INFINITY,
            }],
            stats: Default::default(),
            rows: 1,
            chunks: 1,
            peak_bytes: 64,
            encode_skipped: false,
        };
        let json = report_json("in.csv", &outcome);
        assert!(json.contains("\"a\\\"quote\""));
        assert!(json.contains("\\n"));
        assert!(json.contains("1e308"));
        assert!(json.contains("\"num_repairs\": 1"));
        for key in ["\"fit_seconds\"", "\"chunks\": 1", "\"peak_bytes\": 64"] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(json_number(f64::NEG_INFINITY), "-1e308");
    }
}
