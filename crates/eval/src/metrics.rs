//! Cleaning-quality metrics (paper §7.1).
//!
//! * **Precision** — correctly repaired errors / all modified cells;
//! * **Recall** — correctly repaired errors / all ground-truth errors;
//! * **F1** — their harmonic mean.
//!
//! A repair is *correct* when the cleaned cell equals the ground truth and
//! the dirty cell did not.

use bclean_data::{DataResult, Dataset};
use serde::Serialize;

/// Precision / recall / F1 plus their raw counters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Metrics {
    /// Fraction of modified cells that now hold the ground-truth value.
    pub precision: f64,
    /// Fraction of ground-truth errors that were correctly repaired.
    pub recall: f64,
    /// Harmonic mean of precision and recall.
    pub f1: f64,
    /// Number of cells the system modified.
    pub modified: usize,
    /// Number of modifications that match the ground truth.
    pub correct: usize,
    /// Number of ground-truth errors (dirty ≠ truth).
    pub errors: usize,
}

impl Metrics {
    /// Compute metrics from raw counters.
    pub fn from_counts(correct: usize, modified: usize, errors: usize) -> Metrics {
        let precision = if modified == 0 { 0.0 } else { correct as f64 / modified as f64 };
        let recall = if errors == 0 { 0.0 } else { correct as f64 / errors as f64 };
        let f1 =
            if precision + recall == 0.0 { 0.0 } else { 2.0 * precision * recall / (precision + recall) };
        Metrics { precision, recall, f1, modified, correct, errors }
    }

    /// Render as the paper's `P / R / F1` triple.
    pub fn triple(&self) -> String {
        format!("{:.3}/{:.3}/{:.3}", self.precision, self.recall, self.f1)
    }
}

/// Evaluate a cleaning run against ground truth.
pub fn evaluate(dirty: &Dataset, cleaned: &Dataset, truth: &Dataset) -> DataResult<Metrics> {
    dirty.check_same_shape(cleaned)?;
    dirty.check_same_shape(truth)?;
    let mut modified = 0usize;
    let mut correct = 0usize;
    let mut errors = 0usize;
    for ((dirty_row, cleaned_row), truth_row) in dirty.rows().zip(cleaned.rows()).zip(truth.rows()) {
        for ((d, c), t) in dirty_row.iter().zip(cleaned_row.iter()).zip(truth_row.iter()) {
            let was_error = d != t;
            let was_modified = d != c;
            if was_error {
                errors += 1;
            }
            if was_modified {
                modified += 1;
                if c == t && was_error {
                    correct += 1;
                }
            }
        }
    }
    Ok(Metrics::from_counts(correct, modified, errors))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bclean_data::dataset_from;

    #[test]
    fn perfect_cleaning() {
        let truth = dataset_from(&["a", "b"], &[vec!["1", "x"], vec!["2", "y"]]);
        let dirty = dataset_from(&["a", "b"], &[vec!["9", "x"], vec!["2", ""]]);
        let m = evaluate(&dirty, &truth, &truth).unwrap();
        assert_eq!(m.precision, 1.0);
        assert_eq!(m.recall, 1.0);
        assert_eq!(m.f1, 1.0);
        assert_eq!(m.errors, 2);
        assert_eq!(m.correct, 2);
        assert_eq!(m.modified, 2);
    }

    #[test]
    fn no_repairs_gives_zero_recall() {
        let truth = dataset_from(&["a"], &[vec!["1"], vec!["2"]]);
        let dirty = dataset_from(&["a"], &[vec!["9"], vec!["2"]]);
        let m = evaluate(&dirty, &dirty, &truth).unwrap();
        assert_eq!(m.modified, 0);
        assert_eq!(m.precision, 0.0);
        assert_eq!(m.recall, 0.0);
        assert_eq!(m.f1, 0.0);
    }

    #[test]
    fn wrong_repairs_hurt_precision() {
        let truth = dataset_from(&["a"], &[vec!["1"], vec!["2"], vec!["3"], vec!["4"]]);
        let dirty = dataset_from(&["a"], &[vec!["9"], vec!["9"], vec!["3"], vec!["4"]]);
        // Fix one error correctly, one incorrectly, and break a clean cell.
        let cleaned = dataset_from(&["a"], &[vec!["1"], vec!["7"], vec!["8"], vec!["4"]]);
        let m = evaluate(&dirty, &cleaned, &truth).unwrap();
        assert_eq!(m.modified, 3);
        assert_eq!(m.correct, 1);
        assert_eq!(m.errors, 2);
        assert!((m.precision - 1.0 / 3.0).abs() < 1e-12);
        assert!((m.recall - 0.5).abs() < 1e-12);
        assert!(m.f1 > 0.0 && m.f1 < 0.5);
    }

    #[test]
    fn reverting_a_clean_cell_to_truth_is_not_a_correct_repair() {
        // "Repairing" a cell that was already correct should not raise recall,
        // and modifying it to something wrong should lower precision.
        let truth = dataset_from(&["a"], &[vec!["1"], vec!["2"]]);
        let dirty = dataset_from(&["a"], &[vec!["1"], vec!["9"]]);
        let cleaned = dataset_from(&["a"], &[vec!["1"], vec!["2"]]);
        let m = evaluate(&dirty, &cleaned, &truth).unwrap();
        assert_eq!(m.correct, 1);
        assert_eq!(m.modified, 1);
    }

    #[test]
    fn shape_mismatch_is_an_error() {
        let a = dataset_from(&["a"], &[vec!["1"]]);
        let b = dataset_from(&["a"], &[vec!["1"], vec!["2"]]);
        assert!(evaluate(&a, &a, &b).is_err());
        assert!(evaluate(&a, &b, &a).is_err());
    }

    #[test]
    fn triple_formatting_and_zero_division() {
        let m = Metrics::from_counts(0, 0, 0);
        assert_eq!(m.f1, 0.0);
        assert_eq!(m.triple(), "0.000/0.000/0.000");
        let m = Metrics::from_counts(9, 10, 12);
        assert_eq!(m.triple(), "0.900/0.750/0.818");
    }
}
