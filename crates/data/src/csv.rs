//! Minimal CSV reader/writer.
//!
//! The benchmark datasets are exchanged as CSV files with a header row. This
//! module implements the subset of RFC 4180 needed for them: comma
//! separation, optional double-quote quoting with `""` escapes, and both
//! `\n` and `\r\n` record terminators. We implement it here rather than pull
//! in a CSV crate to keep the workspace within the sanctioned dependency set.
//!
//! Every CSV in the workspace is read by one resumable state machine
//! (`RecordParser`) and turned into rows by one step (`push_record`: skip
//! blank lines, check arity, [`Value::parse`] each field). [`parse_csv`]
//! feeds it the characters of an in-memory document;
//! [`crate::stream::CsvChunkReader`] feeds it line by line from a reader,
//! which is how [`read_csv_file`] and the out-of-core pipeline read files
//! without holding their text.

use std::fs;
use std::path::Path;

use crate::dataset::Dataset;
use crate::error::{DataError, DataResult};
use crate::schema::Schema;
use crate::stream::{ChunkLimits, ChunkSource, CsvFileChunks};
use crate::value::Value;

/// Parse one CSV document (with a header row) into a dataset.
pub fn parse_csv(input: &str) -> DataResult<Dataset> {
    let mut parser = RecordParser::new();
    let mut dataset: Option<Dataset> = None;
    let mut accept = |record: Record| -> DataResult<()> {
        match &mut dataset {
            Some(dataset) => push_record(dataset, &record).map(drop),
            None => {
                dataset = Some(Dataset::new(Schema::from_names(&record.fields)?));
                Ok(())
            }
        }
    };
    parser.feed_str(input, &mut accept)?;
    if let Some(record) = parser.finish()? {
        accept(record)?;
    }
    dataset.ok_or_else(missing_header)
}

/// Serialise a dataset to CSV (header + rows), quoting where required.
pub fn to_csv(dataset: &Dataset) -> String {
    let mut out = String::new();
    push_csv_record(&mut out, dataset.schema().names());
    for row in dataset.rows() {
        push_csv_record(&mut out, row.iter().map(Value::as_text));
    }
    out
}

/// Append one CSV record to `out`: the fields joined by commas, each quoted
/// when it holds a comma, a quote or a line break (quotes doubled inside),
/// then a `\n`. Every record [`to_csv`] writes goes through here, so a
/// writer that emits the header and the rows separately produces the same
/// bytes.
pub fn push_csv_record<S: AsRef<str>>(out: &mut String, fields: impl IntoIterator<Item = S>) {
    for (i, field) in fields.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let field = field.as_ref();
        if field.contains([',', '"', '\n', '\r']) {
            out.push('"');
            for c in field.chars() {
                if c == '"' {
                    out.push('"');
                }
                out.push(c);
            }
            out.push('"');
        } else {
            out.push_str(field);
        }
    }
    out.push('\n');
}

/// Read a CSV file from disk: the chunked reader of [`crate::stream`] with
/// the whole file as one chunk, so the file's text is never held in memory.
pub fn read_csv_file(path: impl AsRef<Path>) -> DataResult<Dataset> {
    let mut source = CsvFileChunks::open(path, ChunkLimits { max_rows: usize::MAX, max_bytes: usize::MAX })?;
    match source.next_chunk()? {
        Some(dataset) => Ok(dataset),
        None => Ok(Dataset::new(source.schema().clone())),
    }
}

/// Write a dataset to a CSV file on disk.
pub fn write_csv_file(dataset: &Dataset, path: impl AsRef<Path>) -> DataResult<()> {
    fs::write(path.as_ref(), to_csv(dataset)).map_err(|e| DataError::Csv {
        line: 0,
        message: format!("cannot write {}: {e}", path.as_ref().display()),
    })
}

/// The error of a document without a header record.
pub(crate) fn missing_header() -> DataError {
    DataError::Csv { line: 1, message: "empty document (missing header)".into() }
}

/// One parsed record: its fields and the 1-based line it started on.
#[derive(Debug)]
pub(crate) struct Record {
    pub(crate) line: usize,
    pub(crate) fields: Vec<String>,
}

/// The record-to-row step: append `record` to `dataset` as a row of parsed
/// values. A blank line is skipped (`Ok(false)`) for multi-column schemas,
/// RFC 4180 style; for single-column schemas it is a legitimate null cell.
/// A record of the wrong arity errors with the line it started on.
pub(crate) fn push_record(dataset: &mut Dataset, record: &Record) -> DataResult<bool> {
    let arity = dataset.num_columns();
    if arity > 1 && record.fields.len() == 1 && record.fields[0].is_empty() {
        return Ok(false);
    }
    if record.fields.len() != arity {
        return Err(DataError::Csv {
            line: record.line,
            message: format!("expected {arity} fields, found {}", record.fields.len()),
        });
    }
    dataset.push_row(record.fields.iter().map(|f| Value::parse(f)).collect())?;
    Ok(true)
}

/// The resumable RFC 4180 state machine, fed a piece of text at a time. The
/// one-character lookahead a `""` escape needs is an explicit
/// `quote_pending` state, so input may be split anywhere, even between the
/// two quote characters.
#[derive(Debug)]
pub(crate) struct RecordParser {
    fields: Vec<String>,
    field: String,
    in_quotes: bool,
    /// A `"` was seen inside a quoted field; the next character decides
    /// whether it was an escape (`""`) or the closing quote.
    quote_pending: bool,
    /// The 1-based line of the next character.
    pub(crate) line: usize,
    record_line: usize,
    saw_any: bool,
}

impl RecordParser {
    pub(crate) fn new() -> RecordParser {
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

    /// Feed a piece of text; `emit` receives each record it completes.
    /// Runs of characters that cannot change the state are copied into the
    /// current field in one step; every other character goes through
    /// [`RecordParser::feed`].
    pub(crate) fn feed_str(
        &mut self,
        text: &str,
        mut emit: impl FnMut(Record) -> DataResult<()>,
    ) -> DataResult<()> {
        let mut rest = text;
        while !rest.is_empty() {
            // Every state-changing character is ASCII, so a run ends on a
            // character boundary.
            let run = if self.quote_pending {
                Some(0)
            } else if self.in_quotes {
                rest.bytes().position(|b| matches!(b, b'"' | b'\n'))
            } else {
                rest.bytes().position(|b| matches!(b, b'"' | b',' | b'\r' | b'\n'))
            };
            let run = run.unwrap_or(rest.len());
            if run > 0 {
                self.saw_any = true;
                self.field.push_str(&rest[..run]);
                rest = &rest[run..];
                continue;
            }
            let c = rest.chars().next().expect("the rest of the text is not empty");
            rest = &rest[c.len_utf8()..];
            if let Some(record) = self.feed(c)? {
                emit(record)?;
            }
        }
        Ok(())
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
    pub(crate) fn finish(&mut self) -> DataResult<Option<Record>> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::dataset_from;

    #[test]
    fn parse_simple() {
        let ds = parse_csv("a,b\n1,x\n2,y\n").unwrap();
        assert_eq!(ds.num_rows(), 2);
        assert_eq!(ds.schema().names(), vec!["a", "b"]);
        assert_eq!(ds.cell(0, 0).unwrap(), &Value::Number(1.0));
        assert_eq!(ds.cell(1, 1).unwrap(), &Value::text("y"));
    }

    #[test]
    fn parse_without_trailing_newline() {
        let ds = parse_csv("a,b\n1,x").unwrap();
        assert_eq!(ds.num_rows(), 1);
    }

    #[test]
    fn parse_crlf() {
        let ds = parse_csv("a,b\r\n1,x\r\n2,y\r\n").unwrap();
        assert_eq!(ds.num_rows(), 2);
        assert_eq!(ds.cell(1, 1).unwrap(), &Value::text("y"));
    }

    #[test]
    fn parse_quoted_fields() {
        let ds = parse_csv("name,addr\n\"Smith, John\",\"12 \"\"main\"\" st\"\n").unwrap();
        assert_eq!(ds.cell(0, 0).unwrap(), &Value::text("Smith, John"));
        assert_eq!(ds.cell(0, 1).unwrap(), &Value::text("12 \"main\" st"));
        // Multi-byte characters inside and around quoted fields.
        let ds = parse_csv("a,b\nsão paulo,\"zürich \"\"ü\"\"\"\n").unwrap();
        assert_eq!(ds.cell(0, 0).unwrap(), &Value::text("são paulo"));
        assert_eq!(ds.cell(0, 1).unwrap(), &Value::text("zürich \"ü\""));
    }

    #[test]
    fn parse_quoted_newline() {
        let ds = parse_csv("a,b\n\"line1\nline2\",x\n").unwrap();
        assert_eq!(ds.cell(0, 0).unwrap(), &Value::text("line1\nline2"));
    }

    #[test]
    fn parse_empty_fields_become_null() {
        let ds = parse_csv("a,b\n,x\n1,\n").unwrap();
        assert!(ds.cell(0, 0).unwrap().is_null());
        assert!(ds.cell(1, 1).unwrap().is_null());
    }

    #[test]
    fn parse_errors() {
        assert!(matches!(parse_csv(""), Err(DataError::Csv { .. })));
        assert!(parse_csv("a,b\n\"unterminated,x\n").is_err());
        assert!(parse_csv("a,b\n1,2,3\n").is_err());
        assert!(parse_csv("a,b\nfoo\"bar,x\n").is_err());
    }

    #[test]
    fn skip_blank_lines() {
        let ds = parse_csv("a,b\n1,x\n\n2,y\n").unwrap();
        assert_eq!(ds.num_rows(), 2);
    }

    #[test]
    fn roundtrip_with_quoting() {
        let ds = dataset_from(
            &["name", "note"],
            &[vec!["Smith, John", "says \"hi\""], vec!["Plain", "multi\nline"]],
        );
        let text = to_csv(&ds);
        let back = parse_csv(&text).unwrap();
        assert_eq!(back, ds);
    }

    #[test]
    fn file_roundtrip() {
        let ds = dataset_from(&["a", "b"], &[vec!["1", "x"], vec!["2", "y"]]);
        let dir = std::env::temp_dir().join("bclean_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        write_csv_file(&ds, &path).unwrap();
        let back = read_csv_file(&path).unwrap();
        assert_eq!(back, ds);
        assert!(read_csv_file(dir.join("missing.csv")).is_err());
    }
}
