//! Streaming batch-cleaning sessions.
//!
//! [`CleaningSession`] turns the one-shot fit/clean pipeline into a
//! long-lived consumer of row batches:
//!
//! 1. [`CleaningSession::ingest`] appends the batch to the session's
//!    dictionary encoding (values never seen before get fresh tail codes —
//!    see `bclean_data::encoded`'s appending docs), absorbs the batch into
//!    the [`ModelArtifact`]'s sufficient statistics, refits on the
//!    configured cadence and cleans the batch against the current model,
//!    returning repairs with session-global row indices.
//! 2. [`CleaningSession::refit`] relearns the structure over everything
//!    absorbed so far (through delta-updatable similarity and contingency
//!    caches), recounts only the nodes whose parent sets changed, and
//!    recompiles only the tables whose inputs changed.
//! 3. [`CleaningSession::finalize`] forces a refit and recleans the whole
//!    accumulated dataset against the final model — the authoritative
//!    output.
//!
//! # Equivalence to one-shot cleaning
//!
//! A session that refits after every batch ends up — by construction, and
//! guarded by `tests/stream_equivalence.rs` — with **bit-identical** model
//! state (structure, CPTs, domains, compensatory counters) to a one-shot
//! [`BClean::fit`] on the concatenation of its batches, and
//! [`CleaningSession::finalize`] then reproduces the one-shot
//! [`BCleanModel::clean`] repairs byte for byte, for every variant and
//! thread count. The per-ingest repair streams are *provisional*: each
//! batch is cleaned against the model as of that ingest, so early batches
//! may be judged with less evidence than the final model has.

use std::time::Instant;

use bclean_bayesnet::{learn_structure_budgeted, learn_structure_encoded_cached, StructureCaches};
use bclean_data::{AttrType, Dataset, EncodedDataset, Schema};

use crate::artifact::{CompileCache, ModelArtifact};
use crate::cleaner::{BClean, BCleanModel};
use crate::report::{CleaningResult, Repair};

/// Wall-clock accounting of a session's lifetime, split by phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionStats {
    /// Batches ingested.
    pub batches: usize,
    /// Rows ingested.
    pub rows: usize,
    /// Refits performed (structure relearn + recompile).
    pub refits: usize,
    /// Seconds spent absorbing batch statistics (dictionary appends included).
    pub absorb_seconds: f64,
    /// Seconds spent refitting (structure + recounts + recompiles).
    pub refit_seconds: f64,
    /// Seconds spent cleaning ingested batches.
    pub clean_seconds: f64,
}

/// A streaming cleaning session over a fixed schema (see the module docs).
#[derive(Debug)]
pub struct CleaningSession {
    cleaner: BClean,
    schema: Schema,
    types: Vec<AttrType>,
    accumulated: Dataset,
    encoded: EncodedDataset,
    artifact: Option<ModelArtifact>,
    model: Option<BCleanModel>,
    structure_caches: StructureCaches,
    compile_cache: CompileCache,
    refit_every: usize,
    batches_since_refit: usize,
    stats: SessionStats,
}

impl CleaningSession {
    /// Open a session for `schema` with the given cleaner (configuration +
    /// constraints). The default cadence refits after every batch — the
    /// setting under which the session is exactly equivalent to one-shot
    /// cleaning; raise it with [`CleaningSession::with_refit_every`] to
    /// trade model freshness for ingest throughput.
    pub fn new(cleaner: BClean, schema: Schema) -> CleaningSession {
        let types: Vec<AttrType> =
            (0..schema.arity()).map(|c| schema.attribute(c).expect("column in range").ty).collect();
        let accumulated = Dataset::new(schema.clone());
        let encoded = EncodedDataset::from_dataset(&accumulated);
        CleaningSession {
            cleaner,
            schema,
            types,
            accumulated,
            encoded,
            artifact: None,
            model: None,
            structure_caches: StructureCaches::default(),
            compile_cache: CompileCache::default(),
            refit_every: 1,
            batches_since_refit: 0,
            stats: SessionStats::default(),
        }
    }

    /// Set the refit cadence: the session refits after every `batches`-th
    /// absorbed batch (clamped to at least 1).
    pub fn with_refit_every(mut self, batches: usize) -> CleaningSession {
        self.refit_every = batches.max(1);
        self
    }

    /// The session's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Rows ingested so far.
    pub fn num_rows(&self) -> usize {
        self.accumulated.num_rows()
    }

    /// The current compiled model, once any data has been ingested.
    pub fn model(&self) -> Option<&BCleanModel> {
        self.model.as_ref()
    }

    /// The current model artifact (sufficient statistics), once any data
    /// has been ingested.
    pub fn artifact(&self) -> Option<&ModelArtifact> {
        self.artifact.as_ref()
    }

    /// Phase-split wall-clock accounting.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Ingest one batch: append + absorb it, refit if the cadence says so,
    /// then clean the batch against the current model. Returned repairs
    /// carry session-global row indices. See the module docs for how these
    /// provisional repairs relate to [`CleaningSession::finalize`].
    pub fn ingest(&mut self, batch: &Dataset) -> Vec<Repair> {
        assert_eq!(
            batch.schema().names(),
            self.schema.names(),
            "ingested batch must share the session schema"
        );
        self.stats.batches += 1;
        if batch.num_rows() == 0 {
            return Vec::new();
        }
        self.stats.rows += batch.num_rows();

        let absorb_start = Instant::now();
        let rows = self.encoded.append_batch(batch);
        for row in batch.rows() {
            self.accumulated.push_row(row.to_vec()).expect("batch row arity matches the schema");
        }
        match &mut self.artifact {
            None => {
                // First data: a full fit over the (freshly sorted) encoding,
                // warming the structure caches along the way.
                self.stats.absorb_seconds += absorb_start.elapsed().as_secs_f64();
                let refit_start = Instant::now();
                let structure = self.learn_structure();
                let artifact =
                    self.cleaner.artifact_from_encoded(&self.accumulated, &self.encoded, structure.dag);
                self.model = Some(artifact.compile_cached(&mut self.compile_cache, None));
                self.artifact = Some(artifact);
                self.batches_since_refit = 0;
                self.stats.refits += 1;
                self.stats.refit_seconds += refit_start.elapsed().as_secs_f64();
            }
            Some(artifact) => {
                artifact.absorb(batch, &self.encoded, rows.clone());
                self.stats.absorb_seconds += absorb_start.elapsed().as_secs_f64();
                self.batches_since_refit += 1;
                if self.batches_since_refit >= self.refit_every {
                    self.refit();
                }
            }
        }

        let clean_start = Instant::now();
        let model = self.model.as_ref().expect("ingesting rows always leaves a model behind");
        let mut repairs = model.clean(batch).repairs;
        for repair in &mut repairs {
            repair.at.row += rows.start;
        }
        self.stats.clean_seconds += clean_start.elapsed().as_secs_f64();
        repairs
    }

    /// Refit now, regardless of cadence: relearn the structure over all
    /// absorbed rows (warm caches), recount only parent-changed nodes and
    /// recompile only changed tables. A refit with no new data since the
    /// last one is a cheap no-op that leaves the model unchanged.
    pub fn refit(&mut self) {
        if self.artifact.is_none() {
            return;
        }
        let start = Instant::now();
        let structure = self.learn_structure();
        let artifact = self.artifact.as_mut().expect("checked above");
        artifact.set_structure(structure.dag, &self.encoded);
        self.model = Some(artifact.compile_cached(&mut self.compile_cache, self.model.as_ref()));
        self.batches_since_refit = 0;
        self.stats.refits += 1;
        self.stats.refit_seconds += start.elapsed().as_secs_f64();
    }

    /// Structure learning over everything absorbed so far, honouring the
    /// configured fit budget: exact configs go through the delta-updatable
    /// similarity/contingency caches; budgeted configs re-learn from a fresh
    /// deterministic reservoir of the accumulated encoding each refit (the
    /// budgeted learner is already sub-linear, so cache reuse buys little).
    fn learn_structure(&mut self) -> bclean_bayesnet::LearnedStructure {
        let config = self.cleaner.config();
        match config.fit_budget.params() {
            Some(budget) => learn_structure_budgeted(&self.encoded, &self.types, config.structure, budget),
            None => learn_structure_encoded_cached(
                &self.encoded,
                &self.types,
                config.structure,
                &mut self.structure_caches,
            ),
        }
    }

    /// Force a final refit and reclean the entire accumulated dataset
    /// against the resulting model — the authoritative repair set. With a
    /// refit-after-every-batch cadence this is bit-identical to one-shot
    /// `fit` + `clean` on the concatenated batches.
    pub fn finalize(&mut self) -> CleaningResult {
        if self.batches_since_refit > 0 || self.model.is_none() {
            self.refit();
        }
        match &self.model {
            Some(model) => model.clean(&self.accumulated),
            None => CleaningResult {
                cleaned: self.accumulated.clone(),
                repairs: Vec::new(),
                stats: Default::default(),
            },
        }
    }

    /// Tear the session down, keeping the compiled model (if any data was
    /// ever ingested).
    pub fn into_model(self) -> Option<BCleanModel> {
        self.model
    }
}
