//! Chunked CSV streaming: bounded-memory readers that yield a dataset a
//! chunk at a time instead of materialising the whole file.
//!
//! [`CsvChunkReader`] is an *incremental* twin of [`crate::csv::parse_csv`]:
//! it carries the RFC 4180 state machine (quoting, `""` escapes, `\r\n`,
//! blank-line skipping, arity checks) across reads, so for **any** sequence
//! of chunk sizes the concatenation of the yielded chunks is exactly the
//! dataset `parse_csv` produces on the whole document — including a quoted
//! multi-line field whose bytes straddle a chunk boundary. Peak memory is
//! one chunk of rows plus the reader's line buffer.
//!
//! [`ChunkSource`] abstracts "a stream of row chunks over a fixed schema":
//! [`CsvFileChunks`] streams a CSV file from disk (the out-of-core path),
//! [`DatasetChunks`] re-chunks an in-memory dataset (the equivalence-test
//! harness). `bclean-core`'s streaming cleaner reads either exactly once.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;

use crate::dataset::Dataset;
use crate::error::{DataError, DataResult};
use crate::schema::Schema;
use crate::value::Value;

/// Per-chunk bounds for a chunked reader. A chunk closes when **either**
/// bound is reached; every chunk carries at least one row regardless, so a
/// pathologically wide row cannot stall the stream.
#[derive(Debug, Clone, Copy)]
pub struct ChunkLimits {
    /// Maximum rows per chunk.
    pub max_rows: usize,
    /// Approximate maximum in-memory bytes of one chunk's row values (see
    /// [`approx_row_bytes`]).
    pub max_bytes: usize,
}

impl Default for ChunkLimits {
    fn default() -> ChunkLimits {
        ChunkLimits { max_rows: 8192, max_bytes: usize::MAX }
    }
}

impl ChunkLimits {
    /// Bound chunks by row count only.
    pub fn rows(max_rows: usize) -> ChunkLimits {
        ChunkLimits { max_rows: max_rows.max(1), max_bytes: usize::MAX }
    }

    /// Bound chunks by an approximate byte budget only (at least one row
    /// per chunk).
    pub fn bytes(max_bytes: usize) -> ChunkLimits {
        ChunkLimits { max_rows: usize::MAX, max_bytes: max_bytes.max(1) }
    }
}

/// Heuristic in-memory size of one row's parsed [`Value`]s: the text bytes
/// plus a fixed per-cell overhead for the `Value`/`Vec` headers. Used for
/// [`ChunkLimits::max_bytes`] accounting and the peak-memory proxy of the
/// out-of-core benchmarks — a deterministic estimate, not an allocator
/// measurement.
pub fn approx_row_bytes(fields: &[String]) -> usize {
    const PER_CELL: usize = 48;
    fields.iter().map(|f| f.len() + PER_CELL).sum::<usize>()
}

/// Heuristic in-memory size of a dataset's cell values (the [`Dataset`]
/// twin of [`approx_row_bytes`]).
pub fn approx_dataset_bytes(dataset: &Dataset) -> usize {
    const PER_CELL: usize = 48;
    let mut bytes = 0usize;
    for row in dataset.rows() {
        for value in row {
            bytes += PER_CELL
                + match value {
                    Value::Text(s) => s.len(),
                    _ => 0,
                };
        }
    }
    bytes
}

/// One parsed record: its fields and the 1-based line it started on.
#[derive(Debug)]
struct Record {
    line: usize,
    fields: Vec<String>,
}

/// The resumable RFC 4180 state machine. Semantically identical to
/// `csv::parse_records`, but fed incrementally: the one-character lookahead
/// that implementation uses for `""` escapes becomes an explicit
/// `quote_pending` state so a chunk boundary can fall *between* the two
/// quote characters.
#[derive(Debug)]
struct RecordParser {
    fields: Vec<String>,
    field: String,
    in_quotes: bool,
    /// A `"` was seen inside a quoted field; the next character decides
    /// whether it was an escape (`""`) or the closing quote.
    quote_pending: bool,
    line: usize,
    record_line: usize,
    saw_any: bool,
}

impl RecordParser {
    fn new() -> RecordParser {
        RecordParser {
            fields: Vec::new(),
            field: String::new(),
            in_quotes: false,
            quote_pending: false,
            line: 1,
            record_line: 1,
            saw_any: false,
        }
    }

    /// Feed one character; returns a record when `c` terminates one.
    fn feed(&mut self, c: char) -> DataResult<Option<Record>> {
        self.saw_any = true;
        if self.quote_pending {
            self.quote_pending = false;
            if c == '"' {
                self.field.push('"');
                return Ok(None);
            }
            self.in_quotes = false;
            // Fall through: `c` is handled as an ordinary unquoted character.
        } else if self.in_quotes {
            match c {
                '"' => self.quote_pending = true,
                '\n' => {
                    self.line += 1;
                    self.field.push('\n');
                }
                _ => self.field.push(c),
            }
            return Ok(None);
        }
        match c {
            '"' => {
                if self.field.is_empty() {
                    self.in_quotes = true;
                } else {
                    return Err(DataError::Csv {
                        line: self.line,
                        message: "unexpected quote inside unquoted field".into(),
                    });
                }
            }
            ',' => self.fields.push(std::mem::take(&mut self.field)),
            '\r' => {
                // Swallow; the following '\n' terminates the record.
            }
            '\n' => {
                self.line += 1;
                self.fields.push(std::mem::take(&mut self.field));
                let record = Record { line: self.record_line, fields: std::mem::take(&mut self.fields) };
                self.record_line = self.line;
                return Ok(Some(record));
            }
            _ => self.field.push(c),
        }
        Ok(None)
    }

    /// Signal end of input; returns the trailing record of a document
    /// without a final newline, if any.
    fn finish(&mut self) -> DataResult<Option<Record>> {
        if self.quote_pending {
            // A closing quote at the very end of the document.
            self.quote_pending = false;
            self.in_quotes = false;
        }
        if self.in_quotes {
            return Err(DataError::Csv { line: self.line, message: "unterminated quoted field".into() });
        }
        if self.saw_any && (!self.field.is_empty() || !self.fields.is_empty()) {
            self.fields.push(std::mem::take(&mut self.field));
            return Ok(Some(Record { line: self.record_line, fields: std::mem::take(&mut self.fields) }));
        }
        Ok(None)
    }
}

/// An incremental CSV reader yielding row chunks with bounded peak memory
/// (see the module docs for the equivalence guarantee). The header record
/// is consumed at construction; [`CsvChunkReader::next_chunk`] then yields
/// datasets of at most [`ChunkLimits`] rows until the document is
/// exhausted.
#[derive(Debug)]
pub struct CsvChunkReader<R> {
    input: R,
    parser: RecordParser,
    schema: Schema,
    buf: String,
    /// Records completed but not yet handed out (a fed line can complete at
    /// most one record, but the finish step may add a trailing one).
    pending: VecDeque<Record>,
    eof: bool,
}

impl<R: BufRead> CsvChunkReader<R> {
    /// Wrap a buffered reader, consuming the header record to build the
    /// schema. An empty document errors exactly like
    /// [`crate::csv::parse_csv`].
    pub fn new(input: R) -> DataResult<CsvChunkReader<R>> {
        let mut reader = CsvChunkReader {
            input,
            parser: RecordParser::new(),
            schema: Schema::from_names(&["placeholder"]) // replaced below
                .expect("static single-name schema is valid"),
            buf: String::new(),
            pending: VecDeque::new(),
            eof: false,
        };
        let header = reader
            .next_record()?
            .ok_or(DataError::Csv { line: 1, message: "empty document (missing header)".into() })?;
        reader.schema = Schema::from_names(&header.fields)?;
        Ok(reader)
    }

    /// The schema parsed from the header record.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The next complete record, reading more input as needed.
    fn next_record(&mut self) -> DataResult<Option<Record>> {
        loop {
            if let Some(record) = self.pending.pop_front() {
                return Ok(Some(record));
            }
            if self.eof {
                return Ok(None);
            }
            self.buf.clear();
            let read = self.input.read_line(&mut self.buf).map_err(|e| DataError::Csv {
                line: self.parser.line,
                message: format!("read failed: {e}"),
            })?;
            if read == 0 {
                self.eof = true;
                if let Some(record) = self.parser.finish()? {
                    self.pending.push_back(record);
                }
                continue;
            }
            let line = std::mem::take(&mut self.buf);
            for c in line.chars() {
                if let Some(record) = self.parser.feed(c)? {
                    self.pending.push_back(record);
                }
            }
            self.buf = line;
        }
    }

    /// Yield the next chunk of rows, or `None` once the document is
    /// exhausted. Blank lines are skipped for multi-column schemas and
    /// arity mismatches error with the offending line number — the exact
    /// [`crate::csv::parse_csv`] semantics.
    pub fn next_chunk(&mut self, limits: ChunkLimits) -> DataResult<Option<Dataset>> {
        let mut chunk = Dataset::new(self.schema.clone());
        let mut bytes = 0usize;
        while chunk.num_rows() < limits.max_rows.max(1) && bytes < limits.max_bytes.max(1) {
            let Some(record) = self.next_record()? else { break };
            // A blank line is ignored for multi-column schemas (RFC 4180
            // style); for single-column schemas it is a legitimate null cell.
            if self.schema.arity() > 1 && record.fields.len() == 1 && record.fields[0].is_empty() {
                continue;
            }
            if record.fields.len() != self.schema.arity() {
                return Err(DataError::Csv {
                    line: record.line,
                    message: format!(
                        "expected {} fields, found {}",
                        self.schema.arity(),
                        record.fields.len()
                    ),
                });
            }
            bytes += approx_row_bytes(&record.fields);
            chunk.push_row(record.fields.iter().map(|f| Value::parse(f)).collect())?;
        }
        if chunk.num_rows() == 0 {
            return Ok(None);
        }
        Ok(Some(chunk))
    }
}

/// A stream of row chunks over a fixed schema — the input abstraction of
/// `bclean-core`'s streaming cleaner, which reads every chunk once.
pub trait ChunkSource {
    /// The fixed schema every chunk shares.
    fn schema(&self) -> &Schema;
    /// The next chunk, or `None` once exhausted.
    fn next_chunk(&mut self) -> DataResult<Option<Dataset>>;
}

/// [`ChunkSource`] over a CSV file on disk: the out-of-core input.
#[derive(Debug)]
pub struct CsvFileChunks {
    limits: ChunkLimits,
    reader: CsvChunkReader<BufReader<File>>,
}

impl CsvFileChunks {
    /// Open a CSV file for chunked reading.
    pub fn open(path: impl AsRef<Path>, limits: ChunkLimits) -> DataResult<CsvFileChunks> {
        let path = path.as_ref();
        let file = File::open(path).map_err(|e| DataError::Csv {
            line: 0,
            message: format!("cannot read {}: {e}", path.display()),
        })?;
        Ok(CsvFileChunks { limits, reader: CsvChunkReader::new(BufReader::new(file))? })
    }
}

impl ChunkSource for CsvFileChunks {
    fn schema(&self) -> &Schema {
        self.reader.schema()
    }

    fn next_chunk(&mut self) -> DataResult<Option<Dataset>> {
        self.reader.next_chunk(self.limits)
    }
}

/// [`ChunkSource`] over an in-memory dataset, re-chunked by a repeating
/// pattern of chunk sizes — the harness the stream-equivalence tests drive
/// (chunk sizes `{1 row, uneven, whole-file}` all reduce to a pattern).
#[derive(Debug)]
pub struct DatasetChunks {
    dataset: Dataset,
    sizes: Vec<usize>,
    row: usize,
    size_idx: usize,
}

impl DatasetChunks {
    /// Chunk `dataset` by cycling through `sizes` (each clamped to at
    /// least 1 row; an empty pattern means one whole-dataset chunk).
    pub fn new(dataset: Dataset, sizes: &[usize]) -> DatasetChunks {
        let sizes = if sizes.is_empty() { vec![usize::MAX] } else { sizes.to_vec() };
        DatasetChunks { dataset, sizes, row: 0, size_idx: 0 }
    }
}

impl ChunkSource for DatasetChunks {
    fn schema(&self) -> &Schema {
        self.dataset.schema()
    }

    fn next_chunk(&mut self) -> DataResult<Option<Dataset>> {
        if self.row >= self.dataset.num_rows() {
            return Ok(None);
        }
        let size = self.sizes[self.size_idx % self.sizes.len()].max(1);
        self.size_idx += 1;
        let end = self.row.saturating_add(size).min(self.dataset.num_rows());
        let mut chunk = Dataset::new(self.dataset.schema().clone());
        for r in self.row..end {
            let row = self.dataset.row(r).expect("row in range");
            chunk.push_row(row.to_vec())?;
        }
        self.row = end;
        Ok(Some(chunk))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::parse_csv;
    use crate::dataset::dataset_from;
    use std::io::Cursor;

    /// Drain a reader at the given chunk size and concatenate the chunks.
    fn drain(input: &str, limits: ChunkLimits) -> DataResult<Dataset> {
        let mut reader = CsvChunkReader::new(Cursor::new(input.to_string()))?;
        let mut all = Dataset::new(reader.schema().clone());
        while let Some(chunk) = reader.next_chunk(limits)? {
            assert!(chunk.num_rows() >= 1, "chunks are never empty");
            for row in chunk.rows() {
                all.push_row(row.to_vec()).unwrap();
            }
        }
        Ok(all)
    }

    /// Every chunk size must reproduce `parse_csv` on the concatenation.
    #[test]
    fn chunked_concatenation_matches_parse_csv() {
        let docs = [
            "a,b\n1,x\n2,y\n3,z\n",
            "a,b\n1,x\n2,y",         // no trailing newline
            "a,b\r\n1,x\r\n2,y\r\n", // CRLF
            "a,b\n1,x\n\n2,y\n",     // blank line skipped
            "only\nx\n\ny\n",        // single column: blank = null
            "name,addr\n\"Smith, John\",\"12 \"\"main\"\" st\"\n",
            "a,b\n\"line1\nline2\nline3\",x\n\"t\",u\n",
            "a,b\n,x\n1,\n",
        ];
        for doc in docs {
            let expected = parse_csv(doc).unwrap();
            for rows in [1, 2, 3, 7, usize::MAX] {
                let got = drain(doc, ChunkLimits::rows(rows)).unwrap();
                assert_eq!(got, expected, "doc {doc:?} at chunk size {rows}");
            }
            // Byte-bounded chunking must agree too.
            for bytes in [1, 64, 4096] {
                let got = drain(doc, ChunkLimits::bytes(bytes)).unwrap();
                assert_eq!(got, expected, "doc {doc:?} at byte budget {bytes}");
            }
        }
    }

    /// A quoted multi-line field whose newline falls inside a chunk
    /// boundary (chunk size 1 forces a boundary after every record) must
    /// survive intact.
    #[test]
    fn quoted_multiline_field_across_chunk_boundary() {
        let doc = "a,b\n\"line1\nline2\",x\n\"after\",y\n";
        let mut reader = CsvChunkReader::new(Cursor::new(doc.to_string())).unwrap();
        let first = reader.next_chunk(ChunkLimits::rows(1)).unwrap().unwrap();
        assert_eq!(first.num_rows(), 1);
        assert_eq!(first.cell(0, 0).unwrap(), &Value::text("line1\nline2"));
        let second = reader.next_chunk(ChunkLimits::rows(1)).unwrap().unwrap();
        assert_eq!(second.cell(0, 0).unwrap(), &Value::text("after"));
        assert!(reader.next_chunk(ChunkLimits::rows(1)).unwrap().is_none());
    }

    /// The final chunk may be partial; the chunk after it is `None`.
    #[test]
    fn final_partial_chunk() {
        let doc = "a,b\n1,x\n2,y\n3,z\n";
        let mut reader = CsvChunkReader::new(Cursor::new(doc.to_string())).unwrap();
        let first = reader.next_chunk(ChunkLimits::rows(2)).unwrap().unwrap();
        assert_eq!(first.num_rows(), 2);
        let last = reader.next_chunk(ChunkLimits::rows(2)).unwrap().unwrap();
        assert_eq!(last.num_rows(), 1, "final chunk is partial");
        assert!(reader.next_chunk(ChunkLimits::rows(2)).unwrap().is_none());
        assert!(reader.next_chunk(ChunkLimits::rows(2)).unwrap().is_none(), "EOF is sticky");
    }

    /// An empty document fails at construction exactly like `parse_csv`.
    #[test]
    fn empty_file_errors_like_parse_csv() {
        let err = CsvChunkReader::new(Cursor::new(String::new())).unwrap_err();
        assert!(matches!(err, DataError::Csv { line: 1, .. }), "{err:?}");
        // A header-only document yields a schema and zero chunks.
        let mut reader = CsvChunkReader::new(Cursor::new("a,b\n".to_string())).unwrap();
        assert_eq!(reader.schema().arity(), 2);
        assert!(reader.next_chunk(ChunkLimits::default()).unwrap().is_none());
    }

    /// A single chunk larger than the dataset returns everything at once.
    #[test]
    fn single_chunk_larger_than_dataset() {
        let doc = "a,b\n1,x\n2,y\n";
        let mut reader = CsvChunkReader::new(Cursor::new(doc.to_string())).unwrap();
        let all = reader.next_chunk(ChunkLimits::rows(1_000_000)).unwrap().unwrap();
        assert_eq!(all, parse_csv(doc).unwrap());
        assert!(reader.next_chunk(ChunkLimits::rows(1_000_000)).unwrap().is_none());
    }

    /// Malformed documents fail with the same classification as
    /// `parse_csv`: unterminated quotes, arity mismatches, stray quotes.
    #[test]
    fn errors_match_parse_csv() {
        for doc in ["a,b\n\"unterminated,x\n", "a,b\n1,2,3\n", "a,b\nfoo\"bar,x\n"] {
            assert!(parse_csv(doc).is_err(), "sanity: {doc:?}");
            assert!(drain(doc, ChunkLimits::rows(1)).is_err(), "chunked must also fail: {doc:?}");
        }
    }

    /// A byte budget still yields at least one row per chunk.
    #[test]
    fn byte_budget_never_stalls() {
        let doc = "a,b\nlong-value-lorem-ipsum,another-long-value\n2,y\n";
        let mut reader = CsvChunkReader::new(Cursor::new(doc.to_string())).unwrap();
        let mut total = 0;
        while let Some(chunk) = reader.next_chunk(ChunkLimits::bytes(1)).unwrap() {
            assert_eq!(chunk.num_rows(), 1, "a 1-byte budget forces single-row chunks");
            total += chunk.num_rows();
        }
        assert_eq!(total, 2);
    }

    /// `CsvFileChunks` reads the whole file in row-bounded chunks and
    /// fails to open a missing file; `DatasetChunks` cycles its size
    /// pattern.
    #[test]
    fn sources_restart() {
        let dir = std::env::temp_dir().join("bclean_stream_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.csv");
        std::fs::write(&path, "a,b\n1,x\n2,y\n3,z\n").unwrap();
        let mut source = CsvFileChunks::open(&path, ChunkLimits::rows(2)).unwrap();
        assert_eq!(source.schema().names(), vec!["a", "b"]);
        let sizes: Vec<usize> =
            std::iter::from_fn(|| source.next_chunk().unwrap()).map(|c| c.num_rows()).collect();
        assert_eq!(sizes, vec![2, 1]);
        assert!(CsvFileChunks::open(dir.join("missing.csv"), ChunkLimits::default()).is_err());

        let ds = dataset_from(&["v"], &[vec!["a"], vec!["b"], vec!["c"], vec!["d"], vec!["e"]]);
        let mut chunks = DatasetChunks::new(ds, &[1, 3]);
        let sizes: Vec<usize> =
            std::iter::from_fn(|| chunks.next_chunk().unwrap()).map(|c| c.num_rows()).collect();
        assert_eq!(sizes, vec![1, 3, 1]);
    }

    /// The byte estimators are deterministic and scale with content.
    #[test]
    fn byte_estimates() {
        let small = dataset_from(&["a"], &[vec!["x"]]);
        let large = dataset_from(&["a"], &[vec!["a much longer textual value"], vec!["second row"]]);
        assert!(approx_dataset_bytes(&large) > approx_dataset_bytes(&small));
        assert_eq!(approx_dataset_bytes(&small), approx_dataset_bytes(&small));
        assert!(approx_row_bytes(&["abc".to_string()]) > approx_row_bytes(&[String::new()]));
    }
}
