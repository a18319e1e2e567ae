//! The fit-budget knob shared by every layer of the budgeted fit path.
//!
//! [`FitBudget`] lives in this crate (rather than `bclean-core`) so the data
//! and bayesnet layers can accept a budget without depending on the cleaner:
//! the config, CLI, persistence and structure-learning code all speak the
//! same type.

/// Parameters of a budgeted (approximate) fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetParams {
    /// Rows sampled (bottom-k reservoir) for structure learning and
    /// similarity estimation. Clamped to ≥ 1 by consumers; streams shorter
    /// than this are used in full.
    pub sample_rows: usize,
    /// Capacity of quantile sketches summarising numeric/ordinal attributes,
    /// and the bucket budget derived from them.
    pub sketch_k: usize,
    /// Tracked top-K codes per high-cardinality attribute; codes beyond the
    /// top-K collapse into a shared "other" bucket. The default (64) keeps
    /// bounded pair tables at (K+2)² cells — a few tens of MB even on very
    /// wide schemas — while still tracking every code of realistic clean
    /// value pools; raise it for attributes whose *clean* domain exceeds 64.
    pub heavy_hitters: usize,
    /// Seed driving every sketch (sampling, hashing, compaction parity).
    /// Same seed + same data ⇒ bit-identical budgeted artifact.
    pub seed: u64,
}

impl Default for BudgetParams {
    fn default() -> BudgetParams {
        BudgetParams { sample_rows: 20_000, sketch_k: 256, heavy_hitters: 64, seed: 0xB01D_FACE }
    }
}

/// How much work a model fit may spend on structure statistics.
///
/// `Exact` (the default) is the historical behaviour: every row feeds every
/// statistic, and artifacts are byte-identical to releases that predate this
/// type. `Budgeted` caps the structure-learning costs using the sketches in
/// this crate; the statistics downstream of the structure (CPT counts,
/// compensatory tallies, value counts, tuple confidences) remain exact
/// either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FitBudget {
    /// Full-precision fit over all rows (the historical default).
    #[default]
    Exact,
    /// Sketch-backed fit bounded by the given parameters.
    Budgeted(BudgetParams),
}

impl FitBudget {
    /// Whether this is the exact (unbudgeted) fit.
    pub fn is_exact(&self) -> bool {
        matches!(self, FitBudget::Exact)
    }

    /// The budget parameters, if budgeted.
    pub fn params(&self) -> Option<&BudgetParams> {
        match self {
            FitBudget::Exact => None,
            FitBudget::Budgeted(params) => Some(params),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_exact() {
        assert_eq!(FitBudget::default(), FitBudget::Exact);
        assert!(FitBudget::Exact.is_exact());
        assert!(FitBudget::Exact.params().is_none());
    }

    #[test]
    fn budgeted_exposes_params() {
        let budget = FitBudget::Budgeted(BudgetParams::default());
        assert!(!budget.is_exact());
        let params = budget.params().unwrap();
        assert_eq!(params.sample_rows, 20_000);
        assert_eq!(params.sketch_k, 256);
        assert_eq!(params.heavy_hitters, 64);
    }
}
