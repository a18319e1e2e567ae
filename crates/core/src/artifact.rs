//! The detachable, delta-updatable model artifact.
//!
//! [`crate::BClean::fit`] used to produce only a compiled [`BCleanModel`]
//! whose sufficient statistics died with it. [`ModelArtifact`] extracts
//! everything the fit actually *learns* — the structure, the per-node
//! [`NodeCounts`], the compensatory counters and the effective constraint
//! set — into a value that is serialisable in spirit: plain counts and
//! tables, no borrowed data, no closures. Two operations make it the
//! substrate of streaming cleaning (see [`crate::CleaningSession`]):
//!
//! * [`ModelArtifact::absorb`] folds a freshly appended batch into every
//!   statistic in row order (bit-identical to having fit on the
//!   concatenation from scratch);
//! * [`ModelArtifact::compile_cached`] rebuilds the compiled scoring model,
//!   reusing every per-node table and per-column constraint table whose
//!   inputs did not change since the last compile.

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
    /// current counters to the model by reference count, and the next
    /// absorb detaches the artifact's copy (one deep clone per compile
    /// cycle, paid at absorb time instead of on the refit critical path).
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

    /// Override the per-column candidate cap used by subsequent cleans.
    /// Unlike the thread count this is *not* results-neutral: a cap below
    /// a column's cardinality trades exactness for speed (see
    /// [`BCleanConfig::with_candidate_top_k`]); `usize::MAX` restores the
    /// exact default.
    pub fn set_candidate_top_k(&mut self, top_k: usize) {
        self.config.candidate_top_k = top_k;
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

    /// Install a (re)learned structure: nodes whose parent set changed are
    /// recounted from the accumulated encoding; everyone else keeps their
    /// incrementally absorbed counts (integer-identical to a recount).
    /// Returns the nodes that were recounted.
    pub fn set_structure(&mut self, dag: Dag, encoded: &EncodedDataset) -> Vec<usize> {
        assert_eq!(dag.num_nodes(), self.node_counts.len(), "structure arity must match the artifact");
        let mut recounted = Vec::new();
        for (node, counts) in self.node_counts.iter_mut().enumerate() {
            let parents = dag.parents(node);
            if counts.parents() != parents.as_slice() {
                *counts = NodeCounts::accumulate(encoded, node, &parents);
                recounted.push(node);
            } else {
                counts.ensure_code_spaces(encoded.dicts());
            }
        }
        self.dag = dag;
        recounted
    }

    /// Compile the artifact into a ready-to-clean [`BCleanModel`], building
    /// every table from scratch.
    pub fn compile(&self) -> BCleanModel {
        self.compile_cached(&mut CompileCache::default(), None)
    }

    /// Compile with incremental reuse: the cache remembers what each table
    /// was last built from (per-node count stamps, per-column dictionary
    /// code spaces), and `previous` — typically the model of the last
    /// compile — is the donor whose unchanged tables are cloned instead of
    /// rebuilt. Nothing is deep-copied for tables that *did* change, so on
    /// the common every-batch cadence this costs exactly what an uncached
    /// compile costs, while a refit that changed nothing (e.g. the forced
    /// refit of `finalize` right after a cadence refit) only clones.
    pub fn compile_cached(&self, cache: &mut CompileCache, previous: Option<&BCleanModel>) -> BCleanModel {
        let start = std::time::Instant::now();
        let m = self.node_counts.len();
        let dicts = self.compensatory.dicts();
        cache.nodes.resize_with(m, || None);
        cache.attr_uc.resize_with(dicts.len(), || None);

        let stamp_of = |node: usize| NodeStamp {
            rows: self.node_counts[node].rows_absorbed(),
            parents: self.node_counts[node].parents().to_vec(),
            code_space: dicts[node].code_space(),
        };
        let executor = ParallelExecutor::for_config(&self.config, m);
        let compiled_cpts: Vec<CompiledCpt> = executor.map(m, |node| {
            if let (Some(donor), Some(cached_stamp)) = (previous, &cache.nodes[node]) {
                if *cached_stamp == stamp_of(node) {
                    return donor.compiled.node(node).clone();
                }
            }
            CompiledCpt::from_counts(&self.node_counts[node], self.config.alpha)
        });
        for node in 0..m {
            cache.nodes[node] = Some(stamp_of(node));
        }
        let compiled = CompiledNetwork::from_parts(compiled_cpts, &self.dag);

        let attr_uc_ok = if self.config.use_constraints {
            let tables: Vec<Vec<bool>> = executor.map(dicts.len(), |col| {
                if let (Some(donor), Some(cached_space)) = (previous, cache.attr_uc[col]) {
                    if cached_space == dicts[col].code_space() {
                        if let Some(table) = donor.attr_uc_ok.get(col) {
                            return table.clone();
                        }
                    }
                }
                attr_uc_column(self.attribute_names.get(col), &dicts[col], &self.constraints)
            });
            for (col, dict) in dicts.iter().enumerate() {
                cache.attr_uc[col] = Some(dict.code_space());
            }
            tables
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
        let mut model = self.compile_cached(&mut CompileCache::default(), None);
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

/// Validity stamp of one node's cached compiled tables.
#[derive(Debug, Clone, PartialEq, Eq)]
struct NodeStamp {
    rows: usize,
    parents: Vec<usize>,
    code_space: usize,
}

/// Reusable compile state of one artifact lineage: only validity stamps —
/// the tables themselves are reused from the previous compile's model (see
/// [`ModelArtifact::compile_cached`]), so caching adds no copies.
#[derive(Debug, Default)]
pub struct CompileCache {
    nodes: Vec<Option<NodeStamp>>,
    attr_uc: Vec<Option<usize>>,
}
