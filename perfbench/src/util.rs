//! Small helpers shared by the workloads: order statistics, a JSON object
//! writer, peak-RSS readout, repair F1 on cell text and content digests.

use std::fmt::Write as _;
use std::path::Path;

use bclean_data::{parse_csv, Dataset};

/// Median of a sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`q` in 0..=1) of a sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
    let rank = ((v.len() as f64 * q).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// An ordered JSON object built by hand (the workspace builds offline,
/// without serde_json).
#[derive(Debug, Default, Clone)]
pub struct Obj(Vec<(String, String)>);

impl Obj {
    pub fn new() -> Obj {
        Obj::default()
    }

    pub fn num(mut self, key: &str, value: f64) -> Obj {
        self.push_num(key, value);
        self
    }

    pub fn push_num(&mut self, key: &str, value: f64) {
        let text = if value.is_finite() { format!("{value:?}") } else { "null".to_string() };
        self.0.push((key.to_string(), text));
    }

    pub fn int(mut self, key: &str, value: u64) -> Obj {
        self.0.push((key.to_string(), value.to_string()));
        self
    }

    pub fn str(mut self, key: &str, value: &str) -> Obj {
        self.0.push((key.to_string(), format!("\"{}\"", escape(value))));
        self
    }

    pub fn bool(mut self, key: &str, value: bool) -> Obj {
        self.0.push((key.to_string(), value.to_string()));
        self
    }

    pub fn obj(mut self, key: &str, value: Obj) -> Obj {
        self.0.push((key.to_string(), value.render()));
        self
    }

    pub fn list(mut self, key: &str, items: Vec<Obj>) -> Obj {
        let inner: Vec<String> = items.iter().map(Obj::render).collect();
        self.0.push((key.to_string(), format!("[{}]", inner.join(", "))));
        self
    }

    pub fn render(&self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\": {v}", escape(k));
        }
        out.push('}');
        out
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// `VmHWM` (peak resident set) of a process in MB, from `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// 64-bit FNV-1a digest, printed as hex; used to compare repair lists and
/// artifact bytes across runs.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Cell text of a dataset, row-major. Repairs are scored on text because a
/// CSV round-trip can change a column's inferred type while the text stays.
pub fn cell_text(dataset: &Dataset) -> Vec<Vec<String>> {
    dataset.rows().map(|row| row.iter().map(|v| v.to_string()).collect()).collect()
}

/// Repair precision/recall/F1 of proposed `(row, col, new text)` repairs
/// over `rows` of the dirty table, against the generator's clean table.
#[derive(Debug, Clone, Copy)]
pub struct Quality {
    pub precision: f64,
    pub recall: f64,
    pub f1: f64,
    pub errors: usize,
    pub repairs: usize,
}

pub fn repair_quality(
    dirty: &[Vec<String>],
    clean: &[Vec<String>],
    rows: impl IntoIterator<Item = usize>,
    repairs: &[(usize, usize, String)],
) -> Quality {
    let errors: usize =
        rows.into_iter().map(|r| dirty[r].iter().zip(&clean[r]).filter(|(d, c)| d != c).count()).sum();
    let correct = repairs.iter().filter(|(r, c, to)| clean[*r][*c] == *to).count();
    let precision = if repairs.is_empty() { 0.0 } else { correct as f64 / repairs.len() as f64 };
    let recall = if errors == 0 { 0.0 } else { correct as f64 / errors as f64 };
    let f1 = if precision + recall == 0.0 { 0.0 } else { 2.0 * precision * recall / (precision + recall) };
    Quality { precision, recall, f1, errors, repairs: repairs.len() }
}

/// Parse a repairs CSV (`row,attribute,from,to,score_gain`) into
/// `(row + row_offset, column index, to text)` triples.
pub fn parse_repairs_csv(
    text: &str,
    names: &[String],
    row_offset: usize,
) -> Result<Vec<(usize, usize, String)>, String> {
    let table = parse_csv(text).map_err(|e| format!("repairs CSV does not parse: {e}"))?;
    let mut out = Vec::new();
    for row in table.rows() {
        let r: usize = row[0].to_string().parse().map_err(|_| format!("bad repair row {:?}", row[0]))?;
        let attr = row[1].to_string();
        let c = names.iter().position(|n| *n == attr).ok_or(format!("unknown attribute {attr:?}"))?;
        out.push((r + row_offset, c, row[3].to_string()));
    }
    Ok(out)
}

/// The header and rows `start..start + len` of a CSV document whose rows
/// are single lines (true of every generated input).
pub fn csv_window(lines: &[&str], start: usize, len: usize) -> String {
    let mut out = String::with_capacity(len * 128);
    out.push_str(lines[0]);
    out.push('\n');
    for line in &lines[1 + start..1 + start + len] {
        out.push_str(line);
        out.push('\n');
    }
    out
}

pub fn read_text(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
    }

    #[test]
    fn quality_counts_text_matches() {
        let dirty = vec![vec!["a".to_string(), "x".to_string()], vec!["b".to_string(), "y".to_string()]];
        let clean = vec![vec!["a".to_string(), "z".to_string()], vec!["c".to_string(), "y".to_string()]];
        let q = repair_quality(&dirty, &clean, 0..2, &[(0, 1, "z".to_string()), (1, 1, "q".to_string())]);
        assert_eq!(q.errors, 2);
        assert!((q.precision - 0.5).abs() < 1e-12 && (q.recall - 0.5).abs() < 1e-12);
    }

    #[test]
    fn json_object_renders_in_order() {
        let o = Obj::new().num("a", 1.5).int("b", 2).str("c", "x\"y").bool("d", true);
        assert_eq!(o.render(), "{\"a\": 1.5, \"b\": 2, \"c\": \"x\\\"y\", \"d\": true}");
    }
}
