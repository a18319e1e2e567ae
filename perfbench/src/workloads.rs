//! The benchmark's workloads, why each exists, and how its inputs are made.
//!
//! Inputs are a pure function of `(workload, seed)`: `perfbench gen` writes
//! them as CSV files before the measured process starts, and the measured
//! process receives nothing else. Every workload uses at most two worker
//! threads and at most two client connections.

use std::path::Path;

use bclean_data::to_csv;
use bclean_datagen::scale::generate_wide_clean;
use bclean_datagen::{inject_errors, BenchmarkDataset, DirtyDataset, ErrorSpec, ErrorType};

/// Worker threads any workload may use.
pub const THREADS: usize = 2;
/// Daemon workers and client connections of `hospital-serve`.
pub const SERVE_WORKERS: usize = 2;
pub const SERVE_CONNECTIONS: usize = 2;
/// Rows per chunk on the streaming path.
pub const CHUNK_ROWS: usize = 2048;
/// Rows per `/clean` or `/ingest` request.
pub const BATCH_ROWS: usize = 16;
/// Held-out rows available for ingest batches (cycled when exhausted).
const HOLDOUT_ROWS: usize = 4096;
/// Rows of the head file the streaming probe runs over on the workloads
/// whose own path is not streaming.
const HEAD_ROWS: usize = 4096;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WideBatch,
    HospitalStream,
    HospitalServe,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "wide-batch" => Some(Workload::WideBatch),
            "hospital-stream" => Some(Workload::HospitalStream),
            "hospital-serve" => Some(Workload::HospitalServe),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::WideBatch => "wide-batch",
            Workload::HospitalStream => "hospital-stream",
            Workload::HospitalServe => "hospital-serve",
        }
    }

    /// Rows the workload's timed phase cleans per operation (for
    /// `hospital-serve`, the rows of the fitted model).
    pub fn rows(self) -> usize {
        match self {
            Workload::WideBatch => 10_000,
            Workload::HospitalStream => 20_000,
            Workload::HospitalServe => 10_000,
        }
    }

    /// Why the workload exists.
    pub fn why(self) -> &'static str {
        match self {
            // The 32-column wide schema draws 91-228 distinct values per
            // column from typo-inflated dictionaries, so the cleaner's
            // candidate scoring does almost all the work: this is where
            // exact cleaning that scales with the evidence must show.
            Workload::WideBatch => {
                "one-shot batch clean of the 32-column wide schema; candidate scoring in core.cleaner dominates"
            }
            // The only workload where CSV reading, the encoded-dataset
            // builder and the fit pass run per chunk with bounded memory;
            // its cost per row also shows the cardinality effect, and it
            // gives the parse and encode share any decision about the
            // encoded-dataset cache needs.
            Workload::HospitalStream => {
                "out-of-core clean_stream over 2048-row chunks, cold; per-chunk parse, encode and fit with bounded memory"
            }
            // Fixed per-request costs dominate, not per-cell work. Writes
            // are bound by model size (clone, absorb and a full compile), so
            // a compile or representation change shows here and barely on
            // wide-batch; writes beside reads show whether ingest stalls
            // readers.
            Workload::HospitalServe => {
                "resident daemon under open-loop 16-row /clean reads with every 10th request an /ingest write"
            }
        }
    }
}

/// Seed of the clean tables. It is the same for every run, so the column
/// dictionaries and dependencies — which set how much work a clean does —
/// stay fixed; the run's seed draws the errors injected into them. Letting
/// the seed redraw the tables moved wide-batch throughput by ±20% between
/// seeds, which would hide any change to the program.
const TABLE_SEED: u64 = 42;
/// Cell noise rate of the wide schema (the rate `build_wide` uses).
const WIDE_NOISE_RATE: f64 = 0.05;

/// Write the workload's inputs for `seed` into `dir`:
/// - `dirty.csv` — the table the program cleans (`hospital-serve`: fits);
/// - `clean.csv` — the generator's clean table for the same rows (truth);
/// - `holdout.csv` — further dirty rows of the same generator, for ingests;
/// - `head.csv` — the first rows of `dirty.csv`, for the streaming probe.
pub fn generate(workload: Workload, seed: u64, dir: &Path) -> Result<(), String> {
    let rows = workload.rows();
    let pair: DirtyDataset = match workload {
        // `build_wide`'s recipe (5% typo/missing/inconsistency noise) with
        // the clean table's seed held fixed.
        Workload::WideBatch => {
            let clean = generate_wide_clean(rows + HOLDOUT_ROWS, TABLE_SEED);
            let spec = ErrorSpec {
                rate: WIDE_NOISE_RATE,
                types: vec![ErrorType::Typo, ErrorType::Missing, ErrorType::Inconsistency],
                ..ErrorSpec::default_mix(WIDE_NOISE_RATE)
            };
            inject_errors(&clean, &spec, seed)
        }
        Workload::HospitalStream | Workload::HospitalServe => {
            let hospital = BenchmarkDataset::Hospital;
            let clean = hospital.generate_clean(rows + HOLDOUT_ROWS, TABLE_SEED);
            inject_errors(&clean, &hospital.default_error_spec(), seed)
        }
    };
    let dirty = to_csv(&pair.dirty);
    let clean = to_csv(&pair.clean);
    let dirty_lines: Vec<&str> = dirty.lines().collect();
    let clean_lines: Vec<&str> = clean.lines().collect();
    if dirty_lines.len() != rows + HOLDOUT_ROWS + 1 || clean_lines.len() != dirty_lines.len() {
        return Err(
            "generated rows contain embedded newlines; the line-based split needs one row per line".into()
        );
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let write = |name: &str, lines: &[&str], range: std::ops::Range<usize>| {
        let text = crate::util::csv_window(lines, range.start, range.len());
        let path = dir.join(name);
        std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
    };
    write("dirty.csv", &dirty_lines, 0..rows)?;
    write("clean.csv", &clean_lines, 0..rows)?;
    write("holdout.csv", &dirty_lines, rows..rows + HOLDOUT_ROWS)?;
    write("head.csv", &dirty_lines, 0..HEAD_ROWS)?;
    Ok(())
}
