//! Cleaning results: repairs, statistics and the cleaned dataset.

use std::time::Duration;

use bclean_data::{CellRef, Dataset, Value};
use serde::Serialize;

/// One cell repair proposed by the cleaner.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Repair {
    /// Location of the repaired cell.
    pub at: CellRef,
    /// Name of the repaired attribute.
    pub attribute: String,
    /// The original (observed) value.
    pub from: Value,
    /// The repaired value.
    pub to: Value,
    /// Score improvement of the chosen candidate over the original value
    /// (in log space). Larger gains mean more confident repairs.
    pub score_gain: f64,
}

/// Aggregate statistics of one cleaning run.
#[derive(Debug, Clone, Default, Serialize)]
pub struct CleaningStats {
    /// Cells visited by the inference loop.
    pub cells_examined: usize,
    /// Cells skipped by tuple pruning (pre-detection).
    pub cells_skipped: usize,
    /// Total candidate values scored.
    pub candidates_evaluated: usize,
    /// Number of cells actually repaired.
    pub repairs: usize,
    /// Rows the cleaning kernel scored. Every other row was identical to a
    /// scored row of the same run: it shares that row's repairs, and the
    /// counters above count that row's cells once more for it.
    pub rows_scored: usize,
    /// Compensatory co-occurrence run entries the kernel read: every entry
    /// of each run it scanned (an anchor's run, a context value's run once
    /// per work item, domain pruning's runs), plus one per point probe of a
    /// single tally. Work done, so the rows that share a scored row's
    /// repairs add nothing.
    pub run_entries_read: usize,
    /// CPT factor evaluations the kernel made: one per candidate per
    /// distinct factor of a work item, plus one per factor the candidate
    /// does not enter and per factor of a one-candidate probe. Work done,
    /// like `run_entries_read`.
    pub factor_evaluations: usize,
    /// Wall-clock time of the inference loop.
    #[serde(skip)]
    pub duration: Duration,
    /// Wall-clock time spent fitting the model (structure + CPTs + co-occurrence).
    #[serde(skip)]
    pub fit_duration: Duration,
}

impl CleaningStats {
    /// Fraction of examined cells that were repaired.
    pub fn repair_rate(&self) -> f64 {
        if self.cells_examined == 0 {
            0.0
        } else {
            self.repairs as f64 / self.cells_examined as f64
        }
    }

    /// Merge statistics from a parallel worker.
    pub fn merge(&mut self, other: &CleaningStats) {
        self.cells_examined += other.cells_examined;
        self.cells_skipped += other.cells_skipped;
        self.candidates_evaluated += other.candidates_evaluated;
        self.repairs += other.repairs;
        self.rows_scored += other.rows_scored;
        self.run_entries_read += other.run_entries_read;
        self.factor_evaluations += other.factor_evaluations;
    }
}

/// Approximate bytes a list of decoded repairs holds: each [`Repair`] plus
/// the text of its attribute name and of its two values, counted the way
/// `bclean_data::approx_values_bytes` counts cells.
pub(crate) fn approx_repairs_bytes(repairs: &[Repair]) -> usize {
    let text = |value: &Value| match value {
        Value::Text(s) => s.len(),
        _ => 0,
    };
    repairs
        .iter()
        .map(|r| std::mem::size_of::<Repair>() + r.attribute.len() + text(&r.from) + text(&r.to))
        .sum()
}

/// Render repairs as the canonical repairs CSV (`row,attribute,from,to,
/// score_gain`, RFC-4180 quoting) — the format `bclean clean --repairs`
/// writes and the golden-artifact CI fixture commits. Identical repair
/// lists always render to identical bytes (score gains use the shortest
/// round-trippable float form), so byte equality of this rendering is a
/// valid repair-drift check.
pub fn repairs_to_csv(repairs: &[Repair]) -> String {
    use std::fmt::Write as _;
    let field = |s: &str| {
        if s.contains(',') || s.contains('"') || s.contains('\n') || s.contains('\r') {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_string()
        }
    };
    let mut out = String::from("row,attribute,from,to,score_gain\n");
    for repair in repairs {
        let _ = writeln!(
            out,
            "{},{},{},{},{}",
            repair.at.row,
            field(&repair.attribute),
            field(&repair.from.to_string()),
            field(&repair.to.to_string()),
            repair.score_gain
        );
    }
    out
}

/// The outcome of a cleaning run.
#[derive(Debug, Clone)]
pub struct CleaningResult {
    /// The cleaned dataset `D*`.
    pub cleaned: Dataset,
    /// All repairs applied, ordered by (row, column).
    pub repairs: Vec<Repair>,
    /// Run statistics.
    pub stats: CleaningStats,
}

impl CleaningResult {
    /// Repairs applied to a specific attribute.
    pub fn repairs_for_attribute(&self, attribute: &str) -> Vec<&Repair> {
        self.repairs.iter().filter(|r| r.attribute == attribute).collect()
    }

    /// Number of repaired cells.
    pub fn num_repairs(&self) -> usize {
        self.repairs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bclean_data::dataset_from;

    fn sample_result() -> CleaningResult {
        let cleaned = dataset_from(&["a", "b"], &[vec!["1", "x"]]);
        let repairs = vec![
            Repair {
                at: CellRef::new(0, 0),
                attribute: "a".into(),
                from: Value::text("9"),
                to: Value::parse("1"),
                score_gain: 1.5,
            },
            Repair {
                at: CellRef::new(0, 1),
                attribute: "b".into(),
                from: Value::Null,
                to: Value::text("x"),
                score_gain: 0.5,
            },
        ];
        let stats = CleaningStats { cells_examined: 2, repairs: 2, ..Default::default() };
        CleaningResult { cleaned, repairs, stats }
    }

    #[test]
    fn repair_filtering_and_counts() {
        let r = sample_result();
        assert_eq!(r.num_repairs(), 2);
        assert_eq!(r.repairs_for_attribute("a").len(), 1);
        assert_eq!(r.repairs_for_attribute("zzz").len(), 0);
    }

    #[test]
    fn stats_repair_rate_and_merge() {
        let mut a = CleaningStats {
            cells_examined: 10,
            repairs: 2,
            cells_skipped: 1,
            candidates_evaluated: 50,
            ..Default::default()
        };
        assert!((a.repair_rate() - 0.2).abs() < 1e-12);
        let b = CleaningStats {
            cells_examined: 5,
            repairs: 1,
            cells_skipped: 2,
            candidates_evaluated: 20,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.cells_examined, 15);
        assert_eq!(a.repairs, 3);
        assert_eq!(a.cells_skipped, 3);
        assert_eq!(a.candidates_evaluated, 70);
        assert_eq!(CleaningStats::default().repair_rate(), 0.0);
    }

    #[test]
    fn repair_fields_are_accessible() {
        let r = sample_result();
        assert_eq!(r.repairs[0].at, CellRef::new(0, 0));
        assert_eq!(r.repairs[1].from, Value::Null);
        assert!(r.repairs[0].score_gain > r.repairs[1].score_gain);
        assert_eq!(r.cleaned.num_rows(), 1);
    }
}
