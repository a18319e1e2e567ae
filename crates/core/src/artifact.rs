//! The detachable, delta-updatable model artifact.
//!
//! [`ModelArtifact`] holds everything a fit *learns* — the structure, the
//! per-node [`NodeCounts`], the compensatory counters and the effective
//! constraint set — as plain counts and tables: no borrowed data, no
//! closures. A model grows one way, in process, in `bclean ingest` and in
//! the daemon's `/ingest` alike:
//!
//! * [`ModelArtifact::absorb`] (reached through
//!   [`ModelArtifact::ingest_batch`]) folds a freshly appended batch into
//!   every statistic in row order, leaving the state a fit over the
//!   concatenation with the same structure reaches;
//! * [`ModelArtifact::compile`] builds the compiled scoring model from
//!   those statistics.

use std::sync::Arc;

use bclean_bayesnet::{CompiledCpt, CompiledNetwork, Dag, NodeCounts};
use bclean_data::{AttrType, AttributeDomain, Dataset, Domains, EncodedDataset};

use crate::cleaner::{attr_uc_column, BCleanModel};
use crate::compensatory::CompensatoryModel;
use crate::config::BCleanConfig;
use crate::constraints::ConstraintSet;
use crate::exec::ParallelExecutor;

/// Everything a fit produces, detached from the compiled model: the learned
/// structure, the code-space sufficient statistics of every node, the
/// compensatory counters (which own the dictionaries defining the model's
/// code space) and the effective user constraints.
#[derive(Debug, Clone)]
pub struct ModelArtifact {
    pub(crate) config: BCleanConfig,
    /// The *effective* constraints (empty when the config disables them).
    pub(crate) constraints: ConstraintSet,
    pub(crate) attribute_names: Vec<String>,
    /// Coarse attribute types of the fitting schema — persisted with the
    /// artifact so cross-process consumers can refuse datasets whose
    /// header/types drifted (see `persist`'s schema guard).
    pub(crate) attribute_types: Vec<AttrType>,
    pub(crate) dag: Dag,
    pub(crate) node_counts: Vec<NodeCounts>,
    /// Shared copy-on-write with the compiled models: a compile hands the
    /// current counters to the model by reference count (the daemon's
    /// served snapshots keep theirs), and the next absorb detaches the
    /// artifact's copy (one deep clone per compile cycle, paid at absorb
    /// time instead of on the compile path).
    pub(crate) compensatory: Arc<CompensatoryModel>,
}

impl ModelArtifact {
    /// Assemble an artifact from freshly learned parts (the fit pipeline's
    /// constructor).
    pub(crate) fn from_parts(
        config: BCleanConfig,
        constraints: ConstraintSet,
        attribute_names: Vec<String>,
        attribute_types: Vec<AttrType>,
        dag: Dag,
        node_counts: Vec<NodeCounts>,
        compensatory: CompensatoryModel,
    ) -> ModelArtifact {
        ModelArtifact {
            config,
            constraints,
            attribute_names,
            attribute_types,
            dag,
            node_counts,
            compensatory: Arc::new(compensatory),
        }
    }

    /// The learned structure.
    pub fn dag(&self) -> &Dag {
        &self.dag
    }

    /// The configuration the artifact was fit with.
    pub fn config(&self) -> &BCleanConfig {
        &self.config
    }

    /// The attribute names of the fitting schema, in column order.
    pub fn attribute_names(&self) -> &[String] {
        &self.attribute_names
    }

    /// The coarse attribute types of the fitting schema, in column order.
    pub fn attribute_types(&self) -> &[AttrType] {
        &self.attribute_types
    }

    /// The effective user constraints the artifact was fit with.
    pub fn constraints(&self) -> &ConstraintSet {
        &self.constraints
    }

    /// Override the worker-thread count used by subsequent compiles and
    /// cleans. Results are bit-identical for every thread count (the
    /// shared executor's ordered merge), so this only changes wall-clock —
    /// the CLI exposes it as `--threads`.
    pub fn set_threads(&mut self, threads: usize) {
        self.config.num_threads = threads;
    }

    /// Number of rows absorbed into the statistics.
    pub fn num_rows(&self) -> usize {
        self.compensatory.num_rows()
    }

    /// Number of attributes.
    pub fn num_columns(&self) -> usize {
        self.node_counts.len()
    }

    /// Absorb a freshly appended batch into every sufficient statistic.
    /// `encoded` is the accumulated encoding with the batch already appended
    /// at `rows` (see `EncodedDataset::append_batch`); the batch's `Value`
    /// rows are still needed for the tuple confidences. All updates land in
    /// row order, so absorbing any batch split of a dataset leaves the
    /// artifact in the exact state a one-shot fit over the concatenation
    /// (with the same structure) reaches.
    pub fn absorb(&mut self, batch: &Dataset, encoded: &EncodedDataset, rows: std::ops::Range<usize>) {
        Arc::make_mut(&mut self.compensatory).absorb(batch, &self.constraints, encoded, rows.clone());
        for counts in &mut self.node_counts {
            counts.absorb(encoded, rows.clone());
        }
    }

    /// Compile the artifact into a ready-to-clean [`BCleanModel`], building
    /// every table from the statistics.
    pub fn compile(&self) -> BCleanModel {
        let start = std::time::Instant::now();
        let m = self.node_counts.len();
        let dicts = self.compensatory.dicts();
        let executor = ParallelExecutor::for_config(&self.config, m);
        let compiled_cpts: Vec<CompiledCpt> =
            executor.map(m, |node| CompiledCpt::from_counts(&self.node_counts[node], self.config.alpha));
        let compiled = CompiledNetwork::from_parts(compiled_cpts, &self.dag);
        let attr_uc_ok = if self.config.use_constraints {
            executor.map(dicts.len(), |col| {
                attr_uc_column(self.attribute_names.get(col), &dicts[col], &self.constraints)
            })
        } else {
            Vec::new()
        };

        BCleanModel {
            config: self.config.clone(),
            constraints: self.constraints.clone(),
            dag: self.dag.clone(),
            attribute_names: self.attribute_names.clone(),
            compiled,
            domains: self.domains(),
            fd_confidence: self.compensatory.fd_confidence_matrix(),
            compensatory: Arc::clone(&self.compensatory),
            attr_uc_ok,
            fit_duration: start.elapsed(),
        }
    }

    /// Compile by consuming the artifact (the one-shot fit path). `start`
    /// stamps the model's fit duration.
    pub(crate) fn into_model_timed(self, start: std::time::Instant) -> BCleanModel {
        let mut model = self.compile();
        model.fit_duration = start.elapsed();
        model
    }

    /// The per-attribute observed domains, materialised from the
    /// dictionaries plus the compensatory value counts (sorted values, same
    /// counts the dataset scan would produce).
    fn domains(&self) -> Domains {
        let dicts = self.compensatory.dicts();
        Domains::from_parts(
            (0..dicts.len())
                .map(|col| {
                    AttributeDomain::from_dict_counts(
                        &dicts[col],
                        self.compensatory.value_counts(col),
                        self.compensatory.num_rows(),
                    )
                })
                .collect(),
        )
    }
}
