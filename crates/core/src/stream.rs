//! Out-of-core cleaning: a bounded-memory streaming pipeline over a
//! [`ChunkSource`], bit-identical to the in-RAM one-shot run.
//!
//! [`clean_stream`] reads the source once and works in two passes:
//!
//! 1. **Encode + fit.** Each raw chunk feeds an [`EncodedDatasetBuilder`]
//!    (the one encoder — `EncodedDataset::from_dataset` is the builder fed
//!    one batch, and first-appearance interning makes the result
//!    independent of the chunking) and a per-row tuple-confidence
//!    accumulator, then is dropped. Structure
//!    learning and every fit statistic run over the finished encoding plus
//!    the confidence vector through
//!    `BClean::artifact_from_encoded_parts` — the confidence sweep is the
//!    fit's only use of raw `Value` rows, so the resulting
//!    [`ModelArtifact`] serialises to the **same bytes** as the one-shot
//!    fit.
//! 2. **Clean.** The artifact compiles once and the model's cleaning
//!    kernel runs once over the whole encoding, reading its rows in place,
//!    as one executor fan-out: it groups identical rows, scores one row per
//!    group and leaves code repairs that every row of the group shares.
//!    Inference is per-row independent, so the repairs equal those of
//!    cleaning the whole dataset at once. The encoding was made against the
//!    model's own dictionaries, so a cell's value is the decode of its code
//!    (decode returns the exact parsed value): the writer decodes each
//!    cleaned row straight from its codes and its group's code repairs into
//!    a buffer of at most one window of rows (the chunk limits) before it
//!    goes to the CSV file. Neither the dataset nor the cleaned dataset is
//!    ever held as `Value`s.
//!
//! Peak memory is therefore one raw chunk + the (`u32`) encoding + the
//! confidence vector in pass 1. In pass 2 it is the encoding and the
//! kernel's tables of one column at a time, then the group table, the code
//! repairs, the decoded repairs and one writer window: codes, not heap
//! `Value`s, but for the repairs returned. A deterministic byte proxy of
//! the peak is [`StreamOutcome::peak_bytes`].

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use bclean_bayesnet::learn_structure_encoded;
use bclean_data::{
    approx_dataset_bytes, push_csv_record, AttrType, ChunkLimits, ChunkSource, DataError, EncodedDataset,
    EncodedDatasetBuilder, Schema, Value,
};

use crate::cleaner::{BClean, BCleanModel, RowValues};
use crate::constraints::ConstraintSet;
use crate::report::{approx_repairs_bytes, CleaningStats, Repair};
use crate::ModelArtifact;

/// How a streaming run chunks its input and where it writes cleaned rows.
#[derive(Debug, Clone, Default)]
pub struct StreamOptions {
    /// Per-chunk row/byte bounds of the source chunks and of the writer's
    /// buffer.
    pub limits: ChunkLimits,
    /// Stream the cleaned rows to this CSV file, one window at a time. The
    /// bytes written are identical to `write_csv_file` of the one-shot
    /// cleaned dataset.
    pub cleaned_path: Option<PathBuf>,
}

/// What a streaming run produced. Repairs carry **global** row indices;
/// the cleaned dataset is intentionally absent (stream it to
/// [`StreamOptions::cleaned_path`] instead of holding it in memory).
#[derive(Debug)]
pub struct StreamOutcome {
    /// The fitted artifact — byte-identical to the one-shot fit's. `None`
    /// when the run cleaned against a pre-fitted model
    /// ([`clean_stream_with_model`]), which never builds an artifact.
    pub artifact: Option<ModelArtifact>,
    /// All repairs, ordered by (row, column) with global row indices.
    pub repairs: Vec<Repair>,
    /// Merged cleaning statistics.
    pub stats: CleaningStats,
    /// Total rows cleaned.
    pub rows: usize,
    /// Source chunks read.
    pub chunks: usize,
    /// Deterministic peak-memory proxy (bytes): the largest simultaneous
    /// footprint seen during the run — raw chunk + encoding/builder +
    /// confidence vector while reading; while cleaning, the encoding plus
    /// the larger of the kernel's own peak (row groups, one column's cell
    /// and candidate-list tables, every worker's largest work-item buffers,
    /// the code repairs found) and what decoding holds (group table, code
    /// repairs, the decoded [`StreamOutcome::repairs`] and the writer's
    /// buffer). [`clean_stream_with_model`] counts each chunk twice (it and
    /// its cleaned copy) with its clean's peak and the repairs decoded so
    /// far. A heuristic for benchmarks and `--max-memory` accounting, not an
    /// allocator measurement.
    pub peak_bytes: usize,
    /// Always `false`: every run parses and encodes its source. The field
    /// stays because the `hospital-stream` benchmark (`perfbench/`) checks
    /// it.
    pub encode_skipped: bool,
}

/// Fit and clean a chunked source end to end with bounded peak memory (see
/// the module docs for the two-pass structure and the bit-identity
/// argument). The source's schema must be the training schema; all of the
/// cleaner's configuration — threads, variant, constraints —
/// applies exactly as in `BClean::fit` + `clean`.
pub fn clean_stream<S: ChunkSource + ?Sized>(
    cleaner: &BClean,
    source: &mut S,
    options: &StreamOptions,
) -> Result<StreamOutcome, DataError> {
    let fit_start = Instant::now();
    let schema = source.schema().clone();
    let constraints =
        if cleaner.config().use_constraints { cleaner.constraints().clone() } else { ConstraintSet::new() };

    // Pass 1: fold every chunk into the encoding and the per-row
    // confidence vector.
    let mut builder = EncodedDatasetBuilder::new(schema.arity());
    let mut confidences: Vec<f64> = Vec::new();
    let mut peak_bytes = 0usize;
    let mut chunks = 0usize;
    let lambda = cleaner.config().params.lambda;
    while let Some(chunk) = source.next_chunk()? {
        for row in chunk.rows() {
            confidences.push(constraints.tuple_confidence(&schema, row, lambda));
        }
        builder.push_batch(&chunk);
        peak_bytes =
            peak_bytes.max(approx_dataset_bytes(&chunk) + builder.approx_bytes() + 8 * confidences.len());
        chunks += 1;
    }
    let encoded = builder.finish();
    peak_bytes = peak_bytes.max(encoded.approx_bytes() + 8 * confidences.len());

    // Fit from the encoding + confidences: the same entry point the
    // in-RAM one-shot fit reaches after its own encode + confidence sweep.
    let types: Vec<AttrType> = schema.attributes().iter().map(|a| a.ty).collect();
    let dag = learn_structure_encoded(&encoded, &types, cleaner.config().structure).dag;
    let names: Vec<String> = schema.names().iter().map(|s| s.to_string()).collect();
    let artifact = cleaner.artifact_from_encoded_parts(names, types, &encoded, dag, &confidences);
    let fit_duration = fit_start.elapsed();

    // Pass 2: compile once, clean the whole encoding in one kernel run,
    // stream cleaned rows out.
    let model = artifact.compile();
    let (repairs, mut stats, held_bytes) = clean_encoded(&model, &encoded, &schema, options)?;
    stats.fit_duration = fit_duration;
    Ok(StreamOutcome {
        artifact: Some(artifact),
        repairs,
        stats,
        rows: encoded.num_rows(),
        chunks,
        peak_bytes: peak_bytes.max(encoded.approx_bytes() + held_bytes),
        encode_skipped: false,
    })
}

/// Clean a chunked source against an already-fitted model (the
/// `bclean clean -m` path): no fitting, one pass, each chunk cleaned by
/// `model.clean`, repairs shifted to global row indices and cleaned rows
/// streamed out. Produces exactly the repairs of `model.clean` over the
/// concatenated dataset, because inference is per-row independent.
pub fn clean_stream_with_model<S: ChunkSource + ?Sized>(
    model: &BCleanModel,
    source: &mut S,
    options: &StreamOptions,
) -> Result<StreamOutcome, DataError> {
    let mut writer =
        CleanedCsvWriter::create(options.cleaned_path.as_deref(), source.schema(), options.limits)?;
    let mut repairs: Vec<Repair> = Vec::new();
    let mut stats = CleaningStats::default();
    let mut rows = 0usize;
    let mut chunks = 0usize;
    let mut peak_bytes = 0usize;
    while let Some(chunk) = source.next_chunk()? {
        let (result, held) = model.clean_held(&chunk);
        // The chunk and its cleaned copy, the clean's own peak, and the
        // repairs decoded so far.
        peak_bytes = peak_bytes.max(
            2 * approx_dataset_bytes(&chunk)
                + held
                + approx_repairs_bytes(&repairs)
                + approx_repairs_bytes(&result.repairs),
        );
        repairs.extend(result.repairs.into_iter().map(|mut repair| {
            repair.at.row += rows;
            repair
        }));
        stats.merge(&result.stats);
        stats.duration += result.stats.duration;
        for row in result.cleaned.rows() {
            writer.push_row(row.iter().map(Value::as_text))?;
        }
        rows += chunk.num_rows();
        chunks += 1;
    }
    peak_bytes += writer.finish()?;
    Ok(StreamOutcome { artifact: None, repairs, stats, rows, chunks, peak_bytes, encode_skipped: false })
}

/// The cleaning pass of [`clean_stream`]: one kernel run over the model's
/// own encoding, read in place, then each cleaned row decoded straight from
/// its codes and its group's code repairs into the writer. Returns the
/// repairs, the statistics and the bytes held beside the encoding at the
/// pass's peak: the kernel's own peak while it runs, then the group table,
/// the code repairs, the decoded repairs and the writer's buffer.
fn clean_encoded(
    model: &BCleanModel,
    encoded: &EncodedDataset,
    schema: &Schema,
    options: &StreamOptions,
) -> Result<(Vec<Repair>, CleaningStats, usize), DataError> {
    let gather = |row: usize, out: &mut [u32]| {
        for (col, code) in out.iter_mut().enumerate() {
            *code = encoded.code(row, col);
        }
    };
    let mut writer = CleanedCsvWriter::create(options.cleaned_path.as_deref(), schema, options.limits)?;
    let values = RowValues::Decoded(schema);
    let cleaning = model.clean_codes(encoded.num_rows(), gather, values);
    let dicts = model.dicts();
    let names = schema.names();
    let mut repairs = Vec::new();
    let mut row_codes = vec![0u32; dicts.len()];
    for row in 0..encoded.num_rows() {
        gather(row, &mut row_codes);
        // A row's repairs are one per column, so each reads its `from`
        // before its own column is overwritten.
        for code_repair in cleaning.row_repairs(row) {
            repairs.push(model.decode_repair(values, &names, row, &row_codes, code_repair));
            row_codes[code_repair.col] = code_repair.to_code;
        }
        writer.push_row(row_codes.iter().zip(dicts).map(|(&code, dict)| dict.decode(code).as_text()))?;
    }
    let decoded = cleaning.approx_bytes() + approx_repairs_bytes(&repairs) + writer.finish()?;
    let held_bytes = cleaning.kernel_bytes().max(decoded);
    let mut stats = cleaning.stats;
    stats.repairs = repairs.len();
    Ok((repairs, stats, held_bytes))
}

/// Incremental cleaned-CSV writer: the header goes out when the writer is
/// created, then cleaned rows are rendered into a buffer that is written
/// through a buffered file whenever it holds a window of rows (either bound
/// of the chunk limits), so memory holds at most one rendered window and a
/// run with zero rows still writes a header-only file. Every record goes
/// through `push_csv_record`, the record writer of `to_csv`, so the bytes
/// equal `write_csv_file` of the concatenated cleaned dataset whatever the
/// chunking.
///
/// Rows go to `<path>.partial`, which `finish` renames over `path`: the
/// target is never truncated while the source may still be read from it
/// (an in-place `clean -m data.csv -o data.csv`), and a failed run
/// leaves the target untouched, with its rows so far in `<path>.partial`.
struct CleanedCsvWriter {
    /// `(target, partial file path, buffered partial file)`.
    out: Option<(PathBuf, PathBuf, BufWriter<File>)>,
    limits: ChunkLimits,
    /// The rendered rows not yet written, and how many there are.
    window: String,
    window_rows: usize,
    /// The most bytes the window has held.
    peak: usize,
}

impl CleanedCsvWriter {
    fn create(
        path: Option<&Path>,
        schema: &Schema,
        limits: ChunkLimits,
    ) -> Result<CleanedCsvWriter, DataError> {
        let mut writer =
            CleanedCsvWriter { out: None, limits, window: String::new(), window_rows: 0, peak: 0 };
        let Some(path) = path else { return Ok(writer) };
        let mut partial = path.as_os_str().to_os_string();
        partial.push(".partial");
        let partial = PathBuf::from(partial);
        let mut file = BufWriter::new(File::create(&partial).map_err(|e| write_error(&partial, e))?);
        let mut header = String::new();
        push_csv_record(&mut header, schema.names());
        file.write_all(header.as_bytes()).map_err(|e| write_error(&partial, e))?;
        writer.out = Some((path.to_path_buf(), partial, file));
        Ok(writer)
    }

    /// Render one cleaned row into the window, writing the window out once
    /// it is full. Renders nothing when there is no output file.
    fn push_row<S: AsRef<str>>(&mut self, fields: impl IntoIterator<Item = S>) -> Result<(), DataError> {
        if self.out.is_none() {
            return Ok(());
        }
        push_csv_record(&mut self.window, fields);
        self.window_rows += 1;
        if self.window_rows >= self.limits.max_rows.max(1)
            || self.window.len() >= self.limits.max_bytes.max(1)
        {
            self.write_window()?;
        }
        Ok(())
    }

    fn write_window(&mut self) -> Result<(), DataError> {
        let Some((_, partial, file)) = &mut self.out else { return Ok(()) };
        self.peak = self.peak.max(self.window.len());
        file.write_all(self.window.as_bytes()).map_err(|e| write_error(partial, e))?;
        self.window.clear();
        self.window_rows = 0;
        Ok(())
    }

    /// Write the last window and move the file into place. Returns the most
    /// bytes the window held.
    fn finish(mut self) -> Result<usize, DataError> {
        self.write_window()?;
        let Some((path, partial, mut file)) = self.out else { return Ok(self.peak) };
        file.flush().map_err(|e| write_error(&partial, e))?;
        drop(file); // close before the rename
        std::fs::rename(&partial, &path).map_err(|e| write_error(&path, e))?;
        Ok(self.peak)
    }
}

fn write_error(path: &Path, error: std::io::Error) -> DataError {
    DataError::Csv { line: 0, message: format!("cannot write {}: {error}", path.display()) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Variant;
    use crate::constraints::UserConstraint;
    use crate::report::repairs_to_csv;
    use bclean_data::{dataset_from, to_csv, Dataset, DatasetChunks};

    fn dirty_rows() -> Vec<Vec<&'static str>> {
        let mut rows: Vec<Vec<&str>> = Vec::new();
        for _ in 0..6 {
            rows.push(vec!["sylacauga", "AL", "35150"]);
            rows.push(vec!["centre", "KT", "35960"]);
            rows.push(vec!["dothan", "AL", "36301"]);
        }
        rows.push(vec!["sylacauga", "KT", "35150"]); // wrong State for ZipCode
        rows.push(vec!["centre", "AL", "35960"]); // wrong State for ZipCode
        rows.push(vec!["dothan", "AL", ""]); // missing ZipCode
        rows
    }

    fn dirty_dataset() -> Dataset {
        dataset_from(&["City", "State", "ZipCode"], &dirty_rows())
    }

    fn cleaner(threads: usize) -> BClean {
        let mut ucs = ConstraintSet::new();
        ucs.add("ZipCode", UserConstraint::pattern("^[1-9][0-9]{4,4}$").unwrap());
        ucs.add("State", UserConstraint::MaxLength(2));
        let mut config = Variant::PartitionedInference.config();
        config.num_threads = threads;
        BClean::new(config).with_constraints(ucs)
    }

    #[test]
    fn stream_matches_one_shot_for_any_chunking_and_threads() {
        let dataset = dirty_dataset();
        for threads in [1usize, 2, 8] {
            let cleaner = cleaner(threads);
            let expected_artifact = cleaner.fit_artifact(&dataset);
            let expected = expected_artifact.compile().clean(&dataset);
            let expected_bytes = expected_artifact.to_bytes().expect("serialize one-shot artifact");
            for (sizes, limits) in [
                (vec![1usize], ChunkLimits::rows(1)),
                (vec![3, 1, 2], ChunkLimits::rows(3)),
                (vec![usize::MAX], ChunkLimits::rows(usize::MAX)),
                // A byte budget alone bounds the cleaning windows too.
                (vec![5], ChunkLimits::bytes(256)),
            ] {
                let mut source = DatasetChunks::new(dataset.clone(), &sizes);
                let options = StreamOptions { limits, ..StreamOptions::default() };
                let outcome = clean_stream(&cleaner, &mut source, &options).expect("stream clean");
                let artifact = outcome.artifact.as_ref().expect("fitted artifact");
                assert_eq!(
                    artifact.to_bytes().expect("serialize streamed artifact"),
                    expected_bytes,
                    "artifact bytes (threads {threads}, sizes {sizes:?})"
                );
                assert_eq!(
                    repairs_to_csv(&outcome.repairs),
                    repairs_to_csv(&expected.repairs),
                    "repairs (threads {threads}, sizes {sizes:?})"
                );
                assert_eq!(outcome.rows, dataset.num_rows());
                assert_eq!(outcome.stats.repairs, expected.stats.repairs);
                assert_eq!(outcome.stats.cells_examined, expected.stats.cells_examined);
                assert!(outcome.peak_bytes > 0);
                assert!(!outcome.encode_skipped);
                if limits.max_bytes != usize::MAX {
                    assert!(outcome.chunks > 1, "byte-bounded windows (threads {threads})");
                }
            }
        }
    }

    /// `peak_bytes` counts what the clean holds: beside the encoding, the
    /// decoded repairs the run returns. One-row chunks keep the first
    /// pass's peak below that sum, so only pass 2's count can reach it.
    #[test]
    fn peak_bytes_covers_the_decoded_repairs() {
        let mut dataset = Dataset::new(dirty_dataset().schema().clone());
        for _ in 0..10 {
            for row in dirty_dataset().rows() {
                dataset.push_row(row.to_vec()).unwrap();
            }
        }
        let encoded = EncodedDataset::from_dataset(&dataset).approx_bytes();
        let mut source = DatasetChunks::new(dataset.clone(), &[1]);
        let options = StreamOptions { limits: ChunkLimits::rows(1), ..StreamOptions::default() };
        let outcome = clean_stream(&cleaner(2), &mut source, &options).expect("stream clean");
        assert!(outcome.repairs.len() >= 30, "{} repairs", outcome.repairs.len());
        let repairs = approx_repairs_bytes(&outcome.repairs);
        assert!(
            outcome.peak_bytes >= encoded + repairs,
            "peak {} < encoding {encoded} + decoded repairs {repairs}",
            outcome.peak_bytes
        );
        let model = cleaner(2).fit(&dataset);
        let mut source = DatasetChunks::new(dataset.clone(), &[7]);
        let outcome =
            clean_stream_with_model(&model, &mut source, &StreamOptions::default()).expect("-m clean");
        assert!(outcome.peak_bytes >= approx_repairs_bytes(&outcome.repairs));
    }

    #[test]
    fn streamed_cleaned_csv_matches_one_shot_write() {
        // The second input's header names hold a quoted line break and a
        // comma, which must not change the bytes of a multi-chunk write.
        let quoted = dataset_from(&["City\nname", "State", "Zip,Code"], &dirty_rows());
        let cleaner = cleaner(2);
        let dir = std::env::temp_dir().join(format!("bclean-stream-csv-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (i, dataset) in [dirty_dataset(), quoted].iter().enumerate() {
            let expected = cleaner.fit(dataset).clean(dataset);
            let out = dir.join(format!("cleaned-{i}.csv"));
            let mut source = DatasetChunks::new(dataset.clone(), &[4]);
            let options = StreamOptions { limits: ChunkLimits::rows(4), cleaned_path: Some(out.clone()) };
            let outcome = clean_stream(&cleaner, &mut source, &options).expect("stream clean");
            assert!(outcome.chunks > 1, "input {i} must be cleaned in several chunks");
            assert_eq!(std::fs::read_to_string(&out).unwrap(), to_csv(&expected.cleaned), "input {i}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn model_path_streaming_matches_one_shot_clean() {
        let dataset = dirty_dataset();
        let cleaner = cleaner(2);
        let model = cleaner.fit(&dataset);
        let expected = model.clean(&dataset);
        for sizes in [vec![1usize], vec![7, 2], vec![usize::MAX]] {
            let mut source = DatasetChunks::new(dataset.clone(), &sizes);
            let outcome = clean_stream_with_model(&model, &mut source, &StreamOptions::default())
                .expect("stream clean with model");
            assert!(outcome.artifact.is_none());
            assert_eq!(
                repairs_to_csv(&outcome.repairs),
                repairs_to_csv(&expected.repairs),
                "sizes {sizes:?}"
            );
            assert_eq!(outcome.rows, dataset.num_rows());
        }
    }

    #[test]
    fn zero_row_source_yields_empty_outcome_and_header_only_csv() {
        let dataset = dataset_from(&["A", "B"], &[]);
        let cleaner = cleaner(1);
        let dir = std::env::temp_dir().join(format!("bclean-stream-empty-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("cleaned.csv");
        let mut source = DatasetChunks::new(dataset, &[4]);
        let options = StreamOptions { cleaned_path: Some(out.clone()), ..StreamOptions::default() };
        let outcome = clean_stream(&cleaner, &mut source, &options).expect("empty stream");
        assert_eq!(outcome.rows, 0);
        assert_eq!(outcome.chunks, 0);
        assert!(outcome.repairs.is_empty());
        assert_eq!(std::fs::read_to_string(&out).unwrap(), "A,B\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Cleaning a file in place (the output path names the source) must
    /// still read every source row. The source outgrows the reader's 8 KiB
    /// buffer, so writing straight into the target would cut the read short.
    #[test]
    fn in_place_model_stream_reads_the_whole_source() {
        let dataset = dirty_dataset();
        let mut big = Dataset::new(dataset.schema().clone());
        for _ in 0..25 {
            for row in dataset.rows() {
                big.push_row(row.to_vec()).unwrap();
            }
        }
        let dir = std::env::temp_dir().join(format!("bclean-stream-in-place-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("data.csv");
        bclean_data::write_csv_file(&big, &path).unwrap();
        assert!(std::fs::metadata(&path).unwrap().len() > 8 * 1024);
        let source_rows = bclean_data::read_csv_file(&path).unwrap();
        let model = cleaner(1).fit(&source_rows);
        let expected = model.clean(&source_rows);

        let limits = ChunkLimits::rows(64);
        let mut source = bclean_data::CsvFileChunks::open(&path, limits).unwrap();
        let options = StreamOptions { limits, cleaned_path: Some(path.clone()) };
        let outcome = clean_stream_with_model(&model, &mut source, &options).expect("in-place stream");
        assert_eq!(outcome.rows, source_rows.num_rows());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), to_csv(&expected.cleaned));
        std::fs::remove_dir_all(&dir).ok();
    }
}
