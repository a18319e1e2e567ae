//! Configuration of the BClean cleaner and its paper variants.

use bclean_bayesnet::StructureConfig;

use crate::compensatory::CompensatoryParams;

/// The four system variants evaluated in the paper (§7.1, "Methods").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// `BClean`: full model, no efficiency optimisations.
    Basic,
    /// `BClean-UC`: no user constraints (and hence uniform tuple confidence).
    NoUserConstraints,
    /// `BCleanPI`: partitioned (Markov-blanket) inference.
    PartitionedInference,
    /// `BCleanPIP`: partitioned inference + tuple/domain pruning.
    PartitionedInferencePruning,
}

impl Variant {
    /// All variants, in the order used by the paper's tables.
    pub fn all() -> [Variant; 4] {
        [
            Variant::NoUserConstraints,
            Variant::Basic,
            Variant::PartitionedInference,
            Variant::PartitionedInferencePruning,
        ]
    }

    /// The display name used in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Variant::Basic => "BClean",
            Variant::NoUserConstraints => "BClean-UC",
            Variant::PartitionedInference => "BCleanPI",
            Variant::PartitionedInferencePruning => "BCleanPIP",
        }
    }

    /// The default configuration of this variant.
    pub fn config(&self) -> BCleanConfig {
        match self {
            Variant::Basic => BCleanConfig::default(),
            Variant::NoUserConstraints => BCleanConfig { use_constraints: false, ..BCleanConfig::default() },
            Variant::PartitionedInference => {
                BCleanConfig { partitioned_inference: true, ..BCleanConfig::default() }
            }
            Variant::PartitionedInferencePruning => BCleanConfig {
                partitioned_inference: true,
                tuple_pruning: true,
                domain_pruning: true,
                ..BCleanConfig::default()
            },
        }
    }
}

/// Full configuration of a BClean run.
#[derive(Debug, Clone)]
pub struct BCleanConfig {
    /// Compensatory-score parameters λ, β, τ (paper defaults 1, 2, 0.5).
    pub params: CompensatoryParams,
    /// Laplace smoothing for CPT learning.
    pub alpha: f64,
    /// Structure-learning configuration (FDX sampling + graphical lasso).
    pub structure: StructureConfig,
    /// Evaluate user constraints (candidate filtering + tuple confidence).
    pub use_constraints: bool,
    /// Add the compensatory score to the Bayesian score.
    pub use_compensatory: bool,
    /// Use Markov-blanket (partitioned) inference instead of whole-network scoring.
    pub partitioned_inference: bool,
    /// Skip cells whose `Filter` score passes `tau_clean` (pre-detection, §6.2).
    pub tuple_pruning: bool,
    /// Restrict candidates to the TF-IDF top-k within the cell's sub-network (§6.2).
    pub domain_pruning: bool,
    /// Threshold of the tuple-pruning filter.
    pub tau_clean: f64,
    /// Number of candidates kept by domain pruning.
    pub domain_top_k: usize,
    /// Minimum log-score advantage a candidate needs over the observed value
    /// before a repair is applied. Ties and noise-level differences keep the
    /// observed value (Algorithm 1 only replaces on a strict improvement).
    pub repair_margin: f64,
    /// Require every repair candidate to co-occur (in some other tuple) with
    /// the cell's *anchor context* — the most selective other value of the
    /// tuple that is shared by at least one more tuple. This corroboration
    /// requirement keeps globally frequent values from overwriting
    /// rare-but-correct values that only their own tuple can vouch for.
    pub anchored_candidates: bool,
    /// Minimum softened-FD confidence for a context attribute to serve as a
    /// cell's anchor (how reliably it determines the cell's attribute).
    pub anchor_min_confidence: f64,
    /// Repair margin applied to cells that have *no* anchor context: without
    /// a corroborating determinant, only overwhelming evidence may overwrite
    /// the observed value.
    pub no_anchor_margin: f64,
    /// Number of worker threads for fitting and cleaning (0 = use all cores).
    pub num_threads: usize,
}

impl Default for BCleanConfig {
    fn default() -> Self {
        BCleanConfig {
            params: CompensatoryParams::default(),
            alpha: 0.1,
            structure: StructureConfig::default(),
            use_constraints: true,
            use_compensatory: true,
            partitioned_inference: false,
            tuple_pruning: false,
            domain_pruning: false,
            tau_clean: 0.35,
            domain_top_k: 24,
            repair_margin: 0.5,
            anchored_candidates: true,
            anchor_min_confidence: 0.65,
            no_anchor_margin: 2.5,
            num_threads: 0,
        }
    }
}

impl BCleanConfig {
    /// The configuration of a named paper variant.
    pub fn variant(variant: Variant) -> BCleanConfig {
        variant.config()
    }

    /// Builder-style override of the compensatory parameters.
    pub fn with_params(mut self, params: CompensatoryParams) -> Self {
        self.params = params;
        self
    }

    /// Builder-style override of the thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.num_threads = threads;
        self
    }

    /// Effective number of worker threads.
    pub fn effective_threads(&self) -> usize {
        if self.num_threads > 0 {
            self.num_threads
        } else {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_names_match_paper() {
        assert_eq!(Variant::Basic.name(), "BClean");
        assert_eq!(Variant::NoUserConstraints.name(), "BClean-UC");
        assert_eq!(Variant::PartitionedInference.name(), "BCleanPI");
        assert_eq!(Variant::PartitionedInferencePruning.name(), "BCleanPIP");
        assert_eq!(Variant::all().len(), 4);
    }

    #[test]
    fn variant_configs_toggle_the_right_flags() {
        let basic = Variant::Basic.config();
        assert!(basic.use_constraints && basic.use_compensatory);
        assert!(!basic.partitioned_inference && !basic.tuple_pruning && !basic.domain_pruning);

        let no_uc = Variant::NoUserConstraints.config();
        assert!(!no_uc.use_constraints);
        assert!(no_uc.use_compensatory);

        let pi = Variant::PartitionedInference.config();
        assert!(pi.partitioned_inference);
        assert!(!pi.domain_pruning);

        let pip = Variant::PartitionedInferencePruning.config();
        assert!(pip.partitioned_inference && pip.tuple_pruning && pip.domain_pruning);
    }

    #[test]
    fn default_parameters_match_paper() {
        let cfg = BCleanConfig::default();
        assert_eq!(cfg.params.lambda, 1.0);
        assert_eq!(cfg.params.beta, 2.0);
        assert_eq!(cfg.params.tau, 0.5);
        assert!(cfg.use_constraints);
    }

    #[test]
    fn builders_and_threads() {
        let cfg = BCleanConfig::default()
            .with_params(CompensatoryParams { lambda: 0.5, beta: 1.0, tau: 0.9 })
            .with_threads(2);
        assert_eq!(cfg.params.tau, 0.9);
        assert_eq!(cfg.effective_threads(), 2);
        let auto = BCleanConfig::default();
        assert!(auto.effective_threads() >= 1);
    }

    /// The only approximation is the paper's BCleanPIP pruning, which no
    /// other variant switches on.
    #[test]
    fn pruning_defaults_are_exact() {
        let cfg = BCleanConfig::default();
        assert!(!cfg.tuple_pruning && !cfg.domain_pruning, "pruning must default to off");
        for variant in Variant::all() {
            let cfg = variant.config();
            let pip = variant == Variant::PartitionedInferencePruning;
            assert_eq!(cfg.tuple_pruning || cfg.domain_pruning, pip, "{variant:?}");
        }
    }
}
