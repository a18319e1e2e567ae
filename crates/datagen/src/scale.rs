//! Scale factors and the wide-schema variant for large-scale runs.
//!
//! The Table-2 benchmarks top out at 20 000 rows in the default harness,
//! which is far below the "million-row" regime the scale tier targets.
//! [`ScaleFactor`] names the three canonical sizes of the scale tier (10⁴,
//! 10⁵, 10⁶ rows) so that benches, tests and docs all agree on what
//! "large" means, and [`build_at_scale`]/[`build_wide`] produce
//! reproducible dirty/clean pairs at those sizes entirely offline.
//!
//! Neither the scale factors nor the wide dataset participate in
//! [`BenchmarkDataset::all`] — the Table-2 reproduction surface is
//! unchanged; this module only adds a second axis for scale work.

use bclean_data::Dataset;

use crate::errors::{inject_errors, DirtyDataset, ErrorSpec, ErrorType};
use crate::generators;
use crate::spec::BenchmarkDataset;

/// Canonical row counts of the scale tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScaleFactor {
    /// 10⁴ rows — the warm-up size, comparable to the largest Table-2 defaults.
    S10K,
    /// 10⁵ rows — the bench tier's working size (minutes, not hours, on one core).
    S100K,
    /// 10⁶ rows — the paper-scale target for overnight runs.
    S1M,
}

impl ScaleFactor {
    /// All scale factors, smallest first.
    pub fn all() -> [ScaleFactor; 3] {
        [ScaleFactor::S10K, ScaleFactor::S100K, ScaleFactor::S1M]
    }

    /// The row count this factor names.
    pub fn rows(&self) -> usize {
        match self {
            ScaleFactor::S10K => 10_000,
            ScaleFactor::S100K => 100_000,
            ScaleFactor::S1M => 1_000_000,
        }
    }

    /// Display name (used in bench output and file names).
    pub fn name(&self) -> &'static str {
        match self {
            ScaleFactor::S10K => "10k",
            ScaleFactor::S100K => "100k",
            ScaleFactor::S1M => "1m",
        }
    }

    /// Parse a factor from its [`name`](ScaleFactor::name).
    pub fn parse(s: &str) -> Option<ScaleFactor> {
        ScaleFactor::all().into_iter().find(|f| f.name() == s)
    }
}

/// Build a Table-2 benchmark pair scaled to `factor.rows()` rows. The
/// generators are entity-pool based, so larger sizes revisit the same value
/// pools with the same functional structure — cardinalities stay fixed
/// while row counts grow, exactly the regime the scale tier measures.
pub fn build_at_scale(dataset: BenchmarkDataset, factor: ScaleFactor, seed: u64) -> DirtyDataset {
    dataset.build_sized(factor.rows(), seed)
}

/// Noise rate of the wide-schema scale dataset.
const WIDE_NOISE_RATE: f64 = 0.05;

/// Generate the clean wide-schema (32-column) table; see
/// [`generators::wide`].
pub fn generate_wide_clean(rows: usize, seed: u64) -> Dataset {
    generators::wide::generate(rows, seed)
}

/// Build the wide-schema dirty/clean pair at an explicit row count, with
/// the standard typo/missing/inconsistency mix at 5% cell noise.
pub fn build_wide(rows: usize, seed: u64) -> DirtyDataset {
    let clean = generate_wide_clean(rows, seed);
    let spec = ErrorSpec {
        rate: WIDE_NOISE_RATE,
        types: vec![ErrorType::Typo, ErrorType::Missing, ErrorType::Inconsistency],
        ..ErrorSpec::default_mix(WIDE_NOISE_RATE)
    };
    inject_errors(&clean, &spec, seed.wrapping_add(1))
}

/// Build the wide-schema pair at a named scale factor.
pub fn build_wide_at_scale(factor: ScaleFactor, seed: u64) -> DirtyDataset {
    build_wide(factor.rows(), seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_name_their_sizes() {
        assert_eq!(ScaleFactor::S10K.rows(), 10_000);
        assert_eq!(ScaleFactor::S100K.rows(), 100_000);
        assert_eq!(ScaleFactor::S1M.rows(), 1_000_000);
        for f in ScaleFactor::all() {
            assert_eq!(ScaleFactor::parse(f.name()), Some(f));
        }
        assert_eq!(ScaleFactor::parse("2m"), None);
    }

    #[test]
    fn scaled_builds_have_the_requested_rows() {
        // Use the smallest factor only: the point is plumbing, not scale.
        let bench = build_at_scale(BenchmarkDataset::Hospital, ScaleFactor::S10K, 7);
        assert_eq!(bench.dirty.num_rows(), 10_000);
        assert_eq!(bench.clean.num_rows(), 10_000);
        assert!(bench.num_errors() > 0);
    }

    #[test]
    fn wide_build_is_deterministic_and_noisy() {
        let a = build_wide(400, 9);
        let b = build_wide(400, 9);
        assert_eq!(a.dirty, b.dirty);
        assert_eq!(a.clean, b.clean);
        assert_eq!(a.dirty.num_columns(), generators::wide::NUM_COLUMNS);
        assert!((a.error_rate() - WIDE_NOISE_RATE).abs() < 0.03, "got {}", a.error_rate());
    }

    #[test]
    fn wide_stays_out_of_the_table_2_surface() {
        // The Table-2 reproduction iterates `BenchmarkDataset::all()`; the
        // wide dataset must never appear there.
        assert_eq!(BenchmarkDataset::all().len(), 6);
    }
}
