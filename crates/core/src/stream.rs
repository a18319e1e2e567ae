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
//! 2. **Clean.** The artifact compiles once and chunks are re-synthesised
//!    by *decoding* the encoding (decode returns the exact parsed values,
//!    and `encode_lossy(decode(code)) == code`), cleaned independently, and
//!    their repairs shifted to global row indices. Inference is per-row
//!    independent, so the concatenated repair list is identical to cleaning
//!    the whole dataset at once. Cleaned rows stream to a CSV file chunk by
//!    chunk, so the cleaned dataset is never materialised.
//!
//! Peak memory is therefore one raw chunk + the (columnar `u32`) encoding +
//! the confidence vector — codes, not heap `Value`s — tracked as a
//! deterministic byte proxy in [`StreamOutcome::peak_bytes`]. A `FitBudget`
//! in the cleaner's config composes transparently: the budgeted
//! structure/pair passes already run over the encoding, giving the
//! BayesWipe-style fit-on-a-sample / clean-the-rest large-scale mode.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use bclean_data::{
    approx_dataset_bytes, approx_values_bytes, push_csv_record, AttrType, ChunkLimits, ChunkSource,
    DataError, Dataset, EncodedDataset, EncodedDatasetBuilder, Schema, Value,
};

use crate::cleaner::{BClean, BCleanModel};
use crate::constraints::ConstraintSet;
use crate::report::{CleaningStats, Repair};
use crate::ModelArtifact;

/// How a streaming run chunks its input and where it writes cleaned rows.
#[derive(Debug, Clone, Default)]
pub struct StreamOptions {
    /// Per-chunk row/byte bounds for both passes.
    pub limits: ChunkLimits,
    /// Stream the cleaned rows to this CSV file, chunk by chunk. The bytes
    /// written are identical to `write_csv_file` of the one-shot cleaned
    /// dataset.
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
    /// Merged cleaning statistics (durations summed across chunks).
    pub stats: CleaningStats,
    /// Total rows cleaned.
    pub rows: usize,
    /// Chunks processed in the cleaning pass.
    pub chunks: usize,
    /// Deterministic peak-memory proxy (bytes): the largest simultaneous
    /// footprint of raw chunk + encoding/builder + confidence vector seen
    /// during the run. A heuristic for benchmarks and `--max-memory`
    /// accounting, not an allocator measurement.
    pub peak_bytes: usize,
    /// Always `false`: every run parses and encodes its source. The field
    /// stays because the `hospital-stream` benchmark (`perfbench/`) checks
    /// it.
    pub encode_skipped: bool,
}

/// Fit and clean a chunked source end to end with bounded peak memory (see
/// the module docs for the two-pass structure and the bit-identity
/// argument). The source's schema must be the training schema; all of the
/// cleaner's configuration — threads, variant, fit budget, constraints —
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
    let lambda = cleaner.config().params.lambda;
    while let Some(chunk) = source.next_chunk()? {
        for row in chunk.rows() {
            confidences.push(constraints.tuple_confidence(&schema, row, lambda));
        }
        builder.push_batch(&chunk);
        peak_bytes =
            peak_bytes.max(approx_dataset_bytes(&chunk) + builder.approx_bytes() + 8 * confidences.len());
    }
    let encoded = builder.finish();
    peak_bytes = peak_bytes.max(encoded.approx_bytes() + 8 * confidences.len());

    // Fit from the encoding + confidences: the same entry point the
    // in-RAM one-shot fit reaches after its own encode + confidence sweep.
    let types: Vec<AttrType> = schema.attributes().iter().map(|a| a.ty).collect();
    let dag = cleaner.learn_structure(&encoded, &types);
    let names: Vec<String> = schema.names().iter().map(|s| s.to_string()).collect();
    let artifact = cleaner.artifact_from_encoded_parts(names, types, &encoded, dag, &confidences);
    let fit_duration = fit_start.elapsed();

    // Pass 2: compile once, clean decoded chunks, shift repairs to global
    // row indices, stream cleaned rows out.
    let model = artifact.compile();
    let outcome = clean_encoded_chunks(&model, &encoded, &schema, options, peak_bytes)?;

    let mut stats = outcome.stats;
    stats.fit_duration = fit_duration;
    Ok(StreamOutcome {
        artifact: Some(artifact),
        repairs: outcome.repairs,
        stats,
        rows: encoded.num_rows(),
        chunks: outcome.chunks,
        peak_bytes: outcome.peak_bytes,
        encode_skipped: false,
    })
}

/// Clean a chunked source against an already-fitted model (the
/// `bclean clean -m` path): no fitting, one pass, repairs shifted
/// to global row indices and cleaned rows streamed out chunk by chunk.
/// Produces exactly the repairs of `model.clean` over the concatenated
/// dataset, because inference is per-row independent.
pub fn clean_stream_with_model<S: ChunkSource + ?Sized>(
    model: &BCleanModel,
    source: &mut S,
    options: &StreamOptions,
) -> Result<StreamOutcome, DataError> {
    let mut writer = CleanedCsvWriter::create(options.cleaned_path.as_deref(), source.schema())?;
    let mut repairs: Vec<Repair> = Vec::new();
    let mut stats = CleaningStats::default();
    let mut rows = 0usize;
    let mut chunks = 0usize;
    let mut peak_bytes = 0usize;
    while let Some(chunk) = source.next_chunk()? {
        peak_bytes = peak_bytes.max(2 * approx_dataset_bytes(&chunk));
        let result = model.clean(&chunk);
        absorb_chunk(&mut repairs, &mut stats, result, rows, &mut writer)?;
        rows += chunk.num_rows();
        chunks += 1;
    }
    writer.finish()?;
    Ok(StreamOutcome { artifact: None, repairs, stats, rows, chunks, peak_bytes, encode_skipped: false })
}

/// The cleaning pass of [`clean_stream`]: decode the encoding window by
/// window, clean each window, shift repairs, stream cleaned rows. A window
/// closes when either bound of the limits is reached and holds at least one
/// row, like the chunks pass 1 reads.
fn clean_encoded_chunks(
    model: &BCleanModel,
    encoded: &EncodedDataset,
    schema: &Schema,
    options: &StreamOptions,
    mut peak_bytes: usize,
) -> Result<ChunksOutcome, DataError> {
    let mut writer = CleanedCsvWriter::create(options.cleaned_path.as_deref(), schema)?;
    let mut repairs: Vec<Repair> = Vec::new();
    let mut stats = CleaningStats::default();
    let mut chunks = 0usize;
    let ChunkLimits { max_rows, max_bytes } = options.limits;
    let mut start = 0usize;
    while start < encoded.num_rows() {
        let mut chunk = Dataset::new(schema.clone());
        let mut bytes = 0usize;
        let mut end = start;
        while end < encoded.num_rows() && chunk.num_rows() < max_rows.max(1) && bytes < max_bytes.max(1) {
            let row: Vec<Value> =
                (0..encoded.num_columns()).map(|c| encoded.decode_cell(end, c).clone()).collect();
            bytes += approx_values_bytes(&row);
            chunk.push_row(row)?;
            end += 1;
        }
        peak_bytes = peak_bytes.max(encoded.approx_bytes() + 2 * bytes);
        let result = model.clean(&chunk);
        absorb_chunk(&mut repairs, &mut stats, result, start, &mut writer)?;
        chunks += 1;
        start = end;
    }
    writer.finish()?;
    Ok(ChunksOutcome { repairs, stats, chunks, peak_bytes })
}

struct ChunksOutcome {
    repairs: Vec<Repair>,
    stats: CleaningStats,
    chunks: usize,
    peak_bytes: usize,
}

/// Fold one chunk's cleaning result into the global accumulators: shift
/// repair rows by the chunk's global offset, merge stats (summing the
/// inference durations), append the cleaned rows to the output CSV.
fn absorb_chunk(
    repairs: &mut Vec<Repair>,
    stats: &mut CleaningStats,
    result: crate::report::CleaningResult,
    offset: usize,
    writer: &mut CleanedCsvWriter,
) -> Result<(), DataError> {
    repairs.extend(result.repairs.into_iter().map(|mut repair| {
        repair.at.row += offset;
        repair
    }));
    stats.merge(&result.stats);
    stats.duration += result.stats.duration;
    writer.push(&result.cleaned)
}

/// Incremental cleaned-CSV writer: the header goes out when the writer is
/// created, then each cleaned chunk's rows are rendered and written through
/// a buffered file as they arrive, so memory holds at most one rendered
/// chunk and a run with zero chunks still writes a header-only file. Every
/// record goes through `push_csv_record`, the record writer of `to_csv`, so
/// the bytes equal `write_csv_file` of the concatenated cleaned dataset
/// whatever the chunking.
///
/// Rows go to `<path>.partial`, which `finish` renames over `path`: the
/// target is never truncated while the source may still be read from it
/// (an in-place `clean -m data.csv -o data.csv`), and a failed run
/// leaves the target untouched, with its rows so far in `<path>.partial`.
struct CleanedCsvWriter {
    /// `(target, partial file path, buffered partial file)`.
    out: Option<(PathBuf, PathBuf, BufWriter<File>)>,
}

impl CleanedCsvWriter {
    fn create(path: Option<&Path>, schema: &Schema) -> Result<CleanedCsvWriter, DataError> {
        let Some(path) = path else { return Ok(CleanedCsvWriter { out: None }) };
        let mut partial = path.as_os_str().to_os_string();
        partial.push(".partial");
        let partial = PathBuf::from(partial);
        let mut file = BufWriter::new(File::create(&partial).map_err(|e| write_error(&partial, e))?);
        let mut header = String::new();
        push_csv_record(&mut header, schema.names());
        file.write_all(header.as_bytes()).map_err(|e| write_error(&partial, e))?;
        Ok(CleanedCsvWriter { out: Some((path.to_path_buf(), partial, file)) })
    }

    fn push(&mut self, cleaned: &Dataset) -> Result<(), DataError> {
        let Some((_, partial, file)) = &mut self.out else { return Ok(()) };
        let mut rendered = String::new();
        for row in cleaned.rows() {
            push_csv_record(&mut rendered, row.iter().map(Value::as_text));
        }
        file.write_all(rendered.as_bytes()).map_err(|e| write_error(partial, e))
    }

    fn finish(self) -> Result<(), DataError> {
        let Some((path, partial, mut file)) = self.out else { return Ok(()) };
        file.flush().map_err(|e| write_error(&partial, e))?;
        drop(file); // close before the rename
        std::fs::rename(&partial, &path).map_err(|e| write_error(&path, e))
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
    use bclean_data::{dataset_from, to_csv, DatasetChunks};

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
