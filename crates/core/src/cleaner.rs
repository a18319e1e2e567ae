//! The BClean cleaning algorithm (paper Algorithm 1 with the §6 optimisations).
//!
//! Usage is a two-step *fit / clean* flow mirroring the paper's construction
//! and inference stages:
//!
//! 1. [`BClean::fit`] learns the Bayesian-network structure from the dirty
//!    dataset (FDX similarity sampling + graphical lasso), learns the CPTs,
//!    and builds the compensatory co-occurrence model (Algorithm 2). The
//!    structure of the resulting [`BCleanModel`] can optionally be edited
//!    before inference (paper §4's user interaction), which refits the
//!    model over the edited structure.
//! 2. [`BCleanModel::clean`] runs MAP inference over every cell: for each
//!    candidate value `c` satisfying the user constraints it scores
//!    `log BN[A_j](c) + log CS[A_j](c)` and keeps the arg-max (Algorithm 1),
//!    with optional tuple pruning (pre-detection) and domain pruning (§6.2).
//!
//! # The dictionary-encoded engine
//!
//! Both stages run in code space. Fitting dictionary-encodes the dataset
//! ([`bclean_data::encoded`]) once and then never hashes a `Value` again:
//! structure learning samples similarities through memoised code pairs and
//! prunes edges with dense contingency tables, CPT estimation accumulates
//! mixed-radix [`NodeCounts`] per node (fanned out over the shared
//! [`ParallelExecutor`]) and builds the [`CompiledNetwork`] directly from
//! those counts, the compensatory dictionary builds its code-pair counters
//! in parallel, and the per-attribute user constraints are pre-evaluated
//! over each attribute's domain. Inference then runs entirely over `u32`
//! code rows — candidate generation, anchor selection, pruning filters and
//! scoring perform no `Value` hashing and no `Value` cloning; values are
//! only decoded when a [`Repair`] is emitted. The [`CompiledNetwork`] is the
//! model's only network representation. Both paths are equivalent to the
//! original `Value`-keyed implementations, which survive in
//! [`crate::reference`] as [`BClean::fit_reference`] and
//! [`crate::ReferenceModel::clean_reference`] and serve as equivalence
//! oracles and performance baselines (`BENCH_fit.json`, `BENCH_clean.json`).
//!
//! # Posting lists instead of probes
//!
//! The per-cell kernel reads the compensatory model's co-occurrence runs
//! rather than probing them once per candidate. A cell with an anchor takes
//! its candidates from the run of the anchor value — the codes whose pair
//! count with it is at least 1 — so enumeration costs the anchor's support,
//! not the column's cardinality; a cell without one walks the whole domain.
//! The candidates are then scored as a set: the compensatory term one
//! context column at a time (one run scan per column), the BN term with the
//! cell's own CPT row and each child's parent base resolved once. Each
//! candidate still adds its terms in the order of the one-candidate scorer
//! `score_codes`, which remains for the observed value, so every score,
//! repair and counter is bit-identical to it.

use std::sync::Arc;
use std::time::Instant;

use bclean_bayesnet::{
    learn_structure_encoded, CompiledNetwork, Dag, NetworkEdit, NetworkEditor, NodeCounts,
};
use bclean_data::{AttrType, CellRef, ColumnDict, Dataset, Domains, EncodedDataset, Schema, Value};
use bclean_rules::Rule;

use crate::compensatory::CompensatoryModel;
use crate::config::BCleanConfig;
use crate::constraints::ConstraintSet;
use crate::exec::{merge_cleaning_batches, ParallelExecutor};
use crate::report::{CleaningResult, CleaningStats, Repair};

/// Minimum projected fit work — `columns × rows` cell visits — below which
/// the fit-stage executors stay serial regardless of the configured thread
/// count.
///
/// Fanning a fit out has a fixed cost (thread spawns, the block queue, the
/// ordered merge of per-task results) of a few tens of microseconds that the
/// per-cell counting work must amortise. On small inputs it never does:
/// `BENCH_fit.json` showed the encoded Hospital fit (1 000 rows × 20
/// columns ≈ 2×10⁴ cell visits) *slowing down* from one thread to two
/// (0.0217 s → 0.0269 s) because every fit stage paid the fan-out toll for
/// sub-millisecond work items. 2¹⁶ cell visits is the measured break-even
/// neighbourhood on that benchmark — roughly a millisecond of counting —
/// while anything bench-scale (10⁴+ rows × dozens of columns) clears the
/// threshold immediately and parallelises as before. Results are unaffected
/// either way: every fit stage is bit-identical at all thread counts, so the
/// threshold only moves wall-clock.
const FIT_PARALLEL_MIN_WORK: usize = 1 << 16;

/// The BClean system: configuration plus user constraints.
#[derive(Debug, Clone, Default)]
pub struct BClean {
    config: BCleanConfig,
    constraints: ConstraintSet,
}

impl BClean {
    /// Create a cleaner with the given configuration and no constraints.
    pub fn new(config: BCleanConfig) -> BClean {
        BClean { config, constraints: ConstraintSet::new() }
    }

    /// Attach user constraints (builder style).
    pub fn with_constraints(mut self, constraints: ConstraintSet) -> BClean {
        self.constraints = constraints;
        self
    }

    /// The configuration.
    pub fn config(&self) -> &BCleanConfig {
        &self.config
    }

    /// The attached constraints.
    pub fn constraints(&self) -> &ConstraintSet {
        &self.constraints
    }

    /// Construction stage: learn structure, CPTs and the compensatory model
    /// from the observed dataset.
    ///
    /// Runs entirely through the code-space fit pipeline: the dataset is
    /// dictionary-encoded once, structure learning and every statistic below
    /// it count dense `u32` codes, and per-node/per-column work spreads
    /// across the shared [`ParallelExecutor`]. Internally the fit first
    /// assembles a [`crate::ModelArtifact`] (the detachable sufficient
    /// statistics) and then compiles it; [`BClean::fit_artifact`] returns
    /// the artifact itself for persistence and ingest. The pre-refactor
    /// `Value`-path construction survives as [`BClean::fit_reference`] (see
    /// [`crate::reference`]) and produces the same model.
    pub fn fit(&self, dataset: &Dataset) -> BCleanModel {
        let start = Instant::now();
        self.fit_artifact(dataset).into_model_timed(start)
    }

    /// Construction stage returning the detachable [`crate::ModelArtifact`]
    /// instead of a compiled model: learned structure plus every sufficient
    /// statistic (`NodeCounts`, compensatory counters, constraint tables in
    /// spirit). The artifact can be compiled into a [`BCleanModel`] any
    /// number of times and grows with new batches through
    /// [`crate::ModelArtifact::ingest_batch`].
    pub fn fit_artifact(&self, dataset: &Dataset) -> crate::ModelArtifact {
        let encoded = EncodedDataset::from_dataset(dataset);
        let types: Vec<AttrType> = (0..dataset.num_columns())
            .map(|c| dataset.schema().attribute(c).expect("column in range").ty)
            .collect();
        let dag = learn_structure_encoded(&encoded, &types, self.config.structure).dag;
        self.artifact_from_encoded(dataset, &encoded, dag)
    }

    /// Construction stage with a user-provided (or user-edited) structure.
    pub fn fit_with_structure(&self, dataset: &Dataset, dag: Dag) -> BCleanModel {
        let start = Instant::now();
        let encoded = EncodedDataset::from_dataset(dataset);
        self.artifact_from_encoded(dataset, &encoded, dag).into_model_timed(start)
    }

    /// Assemble the sufficient statistics of a fit over an already-encoded
    /// dataset: per-node [`NodeCounts`] (one independent pass per node,
    /// fanned out through the executor) and the parallel compensatory build.
    /// Shared by the one-shot fits above.
    fn artifact_from_encoded(
        &self,
        dataset: &Dataset,
        encoded: &EncodedDataset,
        dag: Dag,
    ) -> crate::ModelArtifact {
        let m = dataset.num_columns();
        assert_eq!(encoded.num_rows(), dataset.num_rows(), "encoded dataset must match the value dataset");
        let names: Vec<String> = dataset.schema().names().iter().map(|s| s.to_string()).collect();
        let types: Vec<AttrType> =
            (0..m).map(|c| dataset.schema().attribute(c).expect("column in range").ty).collect();
        let constraints =
            if self.config.use_constraints { self.constraints.clone() } else { ConstraintSet::new() };
        let row_executor = self.fit_executor(m, dataset.num_rows(), dataset.num_rows());
        let confidences = crate::compensatory::tuple_confidences(
            dataset,
            &constraints,
            self.config.params.lambda,
            &row_executor,
        );
        self.artifact_from_encoded_parts(names, types, encoded, dag, &confidences)
    }

    /// The encoded-only core of [`BClean::artifact_from_encoded`]: assembles
    /// an artifact from the encoding, the learned structure and
    /// pre-computed per-row tuple confidences, never touching a raw `Value`
    /// dataset. The streaming pipeline (`crate::stream`) lands here after
    /// accumulating the encoding and confidences chunk-by-chunk; because
    /// the confidence sweep is the fit's only use of raw rows, the artifact
    /// is bit-identical to the in-RAM one-shot fit.
    pub(crate) fn artifact_from_encoded_parts(
        &self,
        names: Vec<String>,
        types: Vec<AttrType>,
        encoded: &EncodedDataset,
        dag: Dag,
        confidences: &[f64],
    ) -> crate::ModelArtifact {
        let m = encoded.num_columns();
        let rows = encoded.num_rows();
        assert_eq!(dag.num_nodes(), m, "DAG node count must match the dataset's attribute count");
        assert_eq!(confidences.len(), rows, "one tuple confidence per encoded row");
        let executor = self.fit_executor(m, rows, m);
        let node_counts: Vec<NodeCounts> =
            executor.map(m, |node| NodeCounts::accumulate(encoded, node, &dag.parents(node)));
        let constraints =
            if self.config.use_constraints { self.constraints.clone() } else { ConstraintSet::new() };
        let row_executor = self.fit_executor(m, rows, rows);
        let compensatory = CompensatoryModel::build_parallel_with_confidences(
            encoded,
            self.config.params,
            &row_executor,
            confidences,
        );
        crate::ModelArtifact::from_parts(
            self.config.clone(),
            constraints,
            names,
            types,
            dag,
            node_counts,
            compensatory,
        )
    }

    /// The executor for one fit stage over `items` work units: serial when
    /// the dataset's projected fit work (`cols × rows` cell visits) falls
    /// below [`FIT_PARALLEL_MIN_WORK`], the configured thread count
    /// otherwise. See the threshold's docs for the measured rationale.
    fn fit_executor(&self, cols: usize, rows: usize, items: usize) -> ParallelExecutor {
        if cols.saturating_mul(rows) < FIT_PARALLEL_MIN_WORK {
            ParallelExecutor::new(1)
        } else {
            ParallelExecutor::for_config(&self.config, items)
        }
    }
}

/// One column of the pre-evaluated constraint table: `UC(decode(code))` for
/// every decodable code of the dictionary. Evaluating regex/length/predicate
/// constraints once per domain value instead of once per candidate per cell
/// removes them from the hot loop. Shared by the compile path in
/// [`crate::artifact`] and the reference fit, so the verdict semantics can
/// never diverge between them.
pub(crate) fn attr_uc_column(
    name: Option<&String>,
    dict: &ColumnDict,
    constraints: &ConstraintSet,
) -> Vec<bool> {
    (0..dict.code_space() as u32)
        .map(|code| name.is_none_or(|n| constraints.check(n, dict.decode(code))))
        .collect()
}

/// A repair still in code space: the inference hot loop emits these and the
/// final ordered merge decodes them into [`Repair`]s in one batched pass
/// (attribute names resolved once per column, winning codes decoded in a
/// single traversal of the merged batch).
#[derive(Debug, Clone)]
struct CodeRepair {
    at: CellRef,
    from: Value,
    to_code: u32,
    score_gain: f64,
}

/// Per-block buffers of the cleaning kernel, reused from cell to cell so
/// that scoring a cell allocates nothing.
#[derive(Debug, Default)]
struct CellScratch {
    /// The cell's candidate codes in enumeration order, less the observed one.
    candidates: Vec<u32>,
    /// A copy of the row that tuple rules read with one candidate substituted.
    row: Vec<Value>,
    /// The candidates' scores; the BN term until the compensatory one is added.
    scores: Vec<f64>,
    /// The candidates' compensatory terms.
    comp: Vec<f64>,
    /// The code → candidate map of the compensatory scan.
    slots: Vec<u32>,
}

/// A fitted BClean model, ready to clean datasets that share the training
/// dataset's schema.
///
/// Fields are crate-visible so the retained `Value`-path oracle
/// ([`crate::reference`]) can score through the same fitted state.
#[derive(Debug, Clone)]
pub struct BCleanModel {
    pub(crate) config: BCleanConfig,
    pub(crate) constraints: ConstraintSet,
    /// The learned (or user-edited) structure.
    pub(crate) dag: Dag,
    /// Attribute names of the fitting schema, indexed by node.
    pub(crate) attribute_names: Vec<String>,
    /// The code-indexed CPTs of `dag` (shared dictionary order).
    pub(crate) compiled: CompiledNetwork,
    /// Shared with the producing [`crate::ModelArtifact`] copy-on-write:
    /// the artifact's next absorb detaches its own copy, so the model's
    /// counters are an immutable snapshot as of its compile.
    pub(crate) compensatory: std::sync::Arc<CompensatoryModel>,
    pub(crate) domains: Domains,
    pub(crate) fd_confidence: Vec<Vec<f64>>,
    /// `attr_uc_ok[col][code]`: pre-evaluated per-attribute constraint
    /// verdicts over the column's code space (empty when constraints are off).
    pub(crate) attr_uc_ok: Vec<Vec<bool>>,
    pub(crate) fit_duration: std::time::Duration,
}

impl BCleanModel {
    /// The learned Bayesian-network structure.
    pub fn dag(&self) -> &Dag {
        &self.dag
    }

    /// Attribute names of the fitting schema, indexed by node.
    pub fn attribute_names(&self) -> &[String] {
        &self.attribute_names
    }

    /// The compiled, code-indexed CPTs the model scores through.
    pub fn compiled(&self) -> &CompiledNetwork {
        &self.compiled
    }

    /// The compensatory model.
    pub fn compensatory(&self) -> &CompensatoryModel {
        &self.compensatory
    }

    /// The configuration used to fit the model.
    pub fn config(&self) -> &BCleanConfig {
        &self.config
    }

    /// Per-attribute observed domains.
    pub fn domains(&self) -> &Domains {
        &self.domains
    }

    /// The per-attribute dictionaries defining the model's code space.
    pub fn dicts(&self) -> &[ColumnDict] {
        self.compensatory.dicts()
    }

    /// Apply user edits to the network structure (paper §4's interaction
    /// step) and refit the model over the edited structure from `dataset` —
    /// the training data — exactly as [`BClean::fit_with_structure`] does.
    /// On error no edit is kept.
    pub fn edit_network(
        &mut self,
        dataset: &Dataset,
        edits: impl IntoIterator<Item = NetworkEdit>,
    ) -> Result<(), bclean_bayesnet::EditError> {
        let mut editor = NetworkEditor::new(self.dag.clone());
        editor.apply_all(edits)?;
        let cleaner = BClean::new(self.config.clone()).with_constraints(self.constraints.clone());
        *self = cleaner.fit_with_structure(dataset, editor.into_dag());
        Ok(())
    }

    /// Score every candidate repair for one cell, returning `(candidate,
    /// score)` pairs sorted by decreasing score. The observed value is always
    /// included (it is the arg-max baseline of Algorithm 1). The candidates
    /// and their scores are exactly those [`BCleanModel::clean`] weighs.
    pub fn score_candidates(&self, dataset: &Dataset, row: usize, col: usize) -> Vec<(Value, f64)> {
        let row_values = dataset.row(row).expect("row index in range");
        let dicts = self.compensatory.dicts();
        let row_codes: Vec<u32> = row_values.iter().zip(dicts).map(|(v, d)| d.encode_lossy(v)).collect();
        let anchor = self.anchor_context_codes(&row_codes, col);
        let rules = self.relevant_rules(dataset.schema(), col);
        let mut scratch = CellScratch::default();
        let original_at =
            self.candidate_codes(dataset.schema(), row_values, &row_codes, col, anchor, &rules, &mut scratch);
        self.score_batch(&row_codes, col, &mut scratch);
        let mut scored: Vec<(Value, f64)> = scratch
            .candidates
            .iter()
            .zip(&scratch.scores)
            .map(|(&c, &score)| (dicts[col].decode(c).clone(), score))
            .collect();
        // The observed value keeps its place in the enumeration, so ties
        // keep enumeration order; only its score carries the leave-one-out.
        let original_score = self.score_codes(&row_codes, col, row_codes[col]);
        scored.insert(original_at.unwrap_or(scored.len()), (row_values[col].clone(), original_score));
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        scored
    }

    /// Clean a dataset (inference stage, Algorithm 1). Row ranges are
    /// processed through the shared [`ParallelExecutor`], whose ordered merge
    /// makes the result identical for every thread count.
    ///
    /// The dataset is dictionary-encoded against the model's fit-time
    /// [`ColumnDict`]s up front (values the model never observed map to
    /// per-column unseen sentinels that score through the same fallbacks as
    /// the `Value` path); all per-cell inference below runs over `u32` codes.
    /// Repairs stay in code space until the final ordered merge, where the
    /// winning codes are decoded in one batched pass.
    pub fn clean(&self, dataset: &Dataset) -> CleaningResult {
        let start = Instant::now();
        let n = dataset.num_rows();
        let m = dataset.num_columns();
        let dicts = self.compensatory.dicts();
        // Row-major encode: the only Value hashing of the whole run.
        let mut codes: Vec<u32> = Vec::with_capacity(n * m);
        for row in dataset.rows() {
            for (col, value) in row.iter().enumerate() {
                codes.push(dicts[col].encode_lossy(value));
            }
        }
        let rules_by_col = self.rules_by_col(dataset.schema());
        let executor = ParallelExecutor::for_config(&self.config, n);
        let batches =
            executor.execute(n, |rows| self.clean_rows(dataset, &codes, &rules_by_col, rows.start, rows.end));
        let (code_repairs, mut stats) = merge_cleaning_batches(batches);
        debug_assert!(
            code_repairs.windows(2).all(|w| (w[0].at.row, w[0].at.col) < (w[1].at.row, w[1].at.col)),
            "ordered block merge must yield (row, col)-sorted repairs"
        );
        // Batched decode: resolve attribute names once per column and decode
        // every winning code in one tight pass over the merged batch.
        let attr_names: Vec<String> = (0..m)
            .map(|c| dataset.schema().attribute(c).map(|a| a.name.clone()).unwrap_or_default())
            .collect();
        let repairs: Vec<Repair> = code_repairs
            .into_iter()
            .map(|r| Repair {
                at: r.at,
                attribute: attr_names[r.at.col].clone(),
                from: r.from,
                to: dicts[r.at.col].decode(r.to_code).clone(),
                score_gain: r.score_gain,
            })
            .collect();
        let mut cleaned = dataset.clone();
        for repair in &repairs {
            cleaned
                .set_cell(repair.at.row, repair.at.col, repair.to.clone())
                .expect("repair coordinates are valid");
        }
        stats.repairs = repairs.len();
        stats.duration = start.elapsed();
        stats.fit_duration = self.fit_duration;
        CleaningResult { cleaned, repairs, stats }
    }

    /// Clean a contiguous range of rows (one parallel work unit) over the
    /// row-major code matrix. Repairs are emitted in code space; the caller
    /// decodes them after the ordered merge.
    fn clean_rows(
        &self,
        dataset: &Dataset,
        codes: &[u32],
        rules_by_col: &[Vec<Arc<Rule>>],
        lo: usize,
        hi: usize,
    ) -> (Vec<CodeRepair>, CleaningStats) {
        let m = dataset.num_columns();
        let mut repairs = Vec::new();
        let mut stats = CleaningStats::default();
        let mut scratch = CellScratch::default();
        for row_idx in lo..hi {
            let row = dataset.row(row_idx).expect("row index in range");
            let row_codes = &codes[row_idx * m..(row_idx + 1) * m];
            for col in 0..m {
                // Pre-detection / tuple pruning (§6.2): skip cells that already
                // co-occur strongly with the rest of their tuple.
                if self.config.tuple_pruning
                    && !row[col].is_null()
                    && self.compensatory.filter_score_codes(row_codes, col) >= self.config.tau_clean
                {
                    stats.cells_skipped += 1;
                    continue;
                }
                stats.cells_examined += 1;
                if let Some(repair) = self.infer_cell_codes(
                    dataset,
                    row_idx,
                    row,
                    row_codes,
                    col,
                    &rules_by_col[col],
                    &mut scratch,
                    &mut stats,
                ) {
                    repairs.push(repair);
                }
            }
        }
        (repairs, stats)
    }

    /// Algorithm 1 for one cell over dictionary codes: return a repair when
    /// some candidate beats the observed value. Values are only touched for
    /// tuple-rule checks (columns referenced by row rules); the winning
    /// candidate stays a code — [`BCleanModel::clean`] decodes the merged
    /// batch in one pass.
    #[allow(clippy::too_many_arguments)]
    fn infer_cell_codes(
        &self,
        dataset: &Dataset,
        row_idx: usize,
        row: &[Value],
        row_codes: &[u32],
        col: usize,
        rules: &[Arc<Rule>],
        scratch: &mut CellScratch,
        stats: &mut CleaningStats,
    ) -> Option<CodeRepair> {
        let original = &row[col];
        let original_code = row_codes[col];
        let anchor = self.anchor_context_codes(row_codes, col);
        // A value that violates its own user constraints is known to be wrong
        // (Eq. 1 restricts the arg-max to UC-satisfying values), so it cannot
        // defend its cell: the best constraint-satisfying candidate wins.
        let original_satisfies_uc = !self.config.use_constraints
            || (self.attr_ok(col, original_code, original)
                && (rules.is_empty() || rules.iter().all(|r| r.check_row(dataset.schema(), row))));
        let original_score = if original_satisfies_uc {
            self.score_codes(row_codes, col, original_code)
        } else {
            f64::NEG_INFINITY
        };
        let mut best_code: Option<u32> = None;
        let mut best_score = original_score;

        let base_margin =
            if anchor.is_some() { self.config.repair_margin } else { self.config.no_anchor_margin };
        self.candidate_codes(dataset.schema(), row, row_codes, col, anchor, rules, scratch);
        stats.candidates_evaluated += scratch.candidates.len();
        self.score_batch(row_codes, col, scratch);
        for (&candidate, &score) in scratch.candidates.iter().zip(&scratch.scores) {
            let margin = if best_code.is_none() && original_score.is_finite() { base_margin } else { 0.0 };
            if score > best_score + margin {
                best_score = score;
                best_code = Some(candidate);
            }
        }

        best_code.map(|code| CodeRepair {
            at: CellRef::new(row_idx, col),
            from: original.clone(),
            to_code: code,
            score_gain: if original_score.is_finite() { best_score - original_score } else { f64::INFINITY },
        })
    }

    /// Per-attribute `UC(value)` verdict for one code, using the
    /// pre-evaluated table and falling back to a direct check for values
    /// outside the model's dictionaries.
    #[inline]
    fn attr_ok(&self, col: usize, code: u32, value: &Value) -> bool {
        if let Some(flags) = self.attr_uc_ok.get(col) {
            if let Some(&ok) = flags.get(code as usize) {
                return ok;
            }
        }
        self.attribute_names.get(col).is_none_or(|name| self.constraints.check(name, value))
    }

    /// The tuple-level rules relevant to one column of `schema`: the rules
    /// whose referenced attributes include the column's name.
    fn relevant_rules(&self, schema: &Schema, col: usize) -> Vec<Arc<Rule>> {
        if !self.config.use_constraints || self.constraints.row_rules().is_empty() {
            return Vec::new();
        }
        match schema.attribute(col) {
            Ok(attr) => self
                .constraints
                .row_rules()
                .iter()
                .filter(|rule| {
                    rule.referenced_attributes().iter().any(|name| name.eq_ignore_ascii_case(&attr.name))
                })
                .cloned()
                .collect(),
            Err(_) => Vec::new(),
        }
    }

    /// [`BCleanModel::relevant_rules`] for every column, resolved once per
    /// cleaning run instead of once per candidate.
    fn rules_by_col(&self, schema: &Schema) -> Vec<Vec<Arc<Rule>>> {
        (0..schema.arity()).map(|col| self.relevant_rules(schema, col)).collect()
    }

    /// The cell's *anchor context* over codes: the most selective other
    /// attribute of the tuple that (a) reliably determines the cell's
    /// attribute (softened-FD confidence above the configured threshold) and
    /// (b) whose value in this tuple is shared by at least one more tuple.
    /// Repairs must be corroborated by a tuple sharing this value when such
    /// an anchor exists.
    fn anchor_context_codes(&self, row_codes: &[u32], col: usize) -> Option<usize> {
        if !self.config.anchored_candidates {
            return None;
        }
        let dicts = self.compensatory.dicts();
        let mut best: Option<(usize, usize)> = None;
        for (k, &code) in row_codes.iter().enumerate() {
            if k == col || code == dicts[k].null_code() {
                continue;
            }
            if self.fd_confidence[k][col] < self.config.anchor_min_confidence {
                continue;
            }
            let count = self.compensatory.value_count_code(k, code);
            if count < 2 {
                continue;
            }
            if best.is_none_or(|(_, c)| count < c) {
                best = Some((k, count));
            }
        }
        best.map(|(k, _)| k)
    }

    /// Candidate generation over codes, into `scratch.candidates`. An
    /// anchored cell takes the codes of its column that co-occurred with
    /// the anchor value, read from the run of that value in their pair
    /// index; a cell with no anchor walks the whole domain. Either way the
    /// candidates are value codes in sorted-value order, filtered by the
    /// pre-evaluated per-attribute constraints and the tuple-level rules
    /// relevant to the column (Eq. 1's `UC(c) = 1`), then optionally by
    /// domain pruning (§6.2). The observed value's code is not among the
    /// candidates: the return value is the position it holds in the
    /// enumeration (after the last candidate when only the cell supplies
    /// it), or `None` for a null cell.
    #[allow(clippy::too_many_arguments)]
    fn candidate_codes(
        &self,
        schema: &Schema,
        row: &[Value],
        row_codes: &[u32],
        col: usize,
        anchor: Option<usize>,
        rules: &[Arc<Rule>],
        scratch: &mut CellScratch,
    ) -> Option<usize> {
        let dict = &self.compensatory.dicts()[col];
        let check_rules = self.config.use_constraints && !rules.is_empty();
        let CellScratch { candidates: out, row: row_copy, .. } = scratch;
        if check_rules {
            // Tuple rules are arbitrary value expressions: candidates are
            // substituted into a scratch copy of the row, cloned once per
            // cell (only slot `col` changes between candidates).
            row_copy.clear();
            row_copy.extend_from_slice(row);
        }
        out.clear();
        let mut accept = |code: u32| {
            if self.config.use_constraints {
                if !self.attr_uc_ok[col][code as usize] {
                    return;
                }
                if check_rules {
                    row_copy[col] = dict.decode(code).clone();
                    if !rules.iter().all(|r| r.check_row(schema, row_copy)) {
                        return;
                    }
                }
            }
            out.push(code);
        };
        // Candidates are enumerated in sorted value order: for fresh
        // dictionaries that *is* the code order; appended dictionaries
        // (models grown by `ingest_batch`) follow their code → sorted-rank
        // remap, so tie breaking behaves exactly as over a freshly sorted
        // dictionary.
        match anchor {
            Some(k) => {
                for &code in self.compensatory.cooccurring_codes(k, row_codes[k], col) {
                    if dict.is_value_code(code) {
                        accept(code);
                    }
                }
                if dict.code_order().is_some() {
                    out.sort_unstable_by_key(|&c| dict.sort_rank(c));
                }
            }
            None => match dict.code_order() {
                None => (0..dict.cardinality() as u32).for_each(accept),
                Some(order) => order.iter().for_each(|&code| accept(code)),
            },
        }

        if self.config.domain_pruning && out.len() > self.config.domain_top_k {
            // Treat the cell's sub-network as the semantic context and keep the
            // TF-IDF top-k candidates.
            let mut context = self.dag.joint_set(col);
            if context.len() <= 1 {
                context = (0..row.len()).collect();
            }
            let mut scored: Vec<(f64, u32)> = out
                .iter()
                .map(|&c| (self.compensatory.tfidf_score_codes(row_codes, col, c, &context), c))
                .collect();
            scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
            out.clear();
            out.extend(scored.into_iter().take(self.config.domain_top_k).map(|(_, c)| c));
        }

        match out.iter().position(|&c| c == row_codes[col]) {
            Some(at) => {
                out.remove(at);
                Some(at)
            }
            None => (!row[col].is_null()).then_some(out.len()),
        }
    }

    /// The Algorithm 1 scores of the candidates in `scratch.candidates`,
    /// into `scratch.scores`: [`BCleanModel::score_codes`] of each, bit for
    /// bit, computed one factor and one context column at a time over the
    /// whole set. The candidates must not include the observed code.
    fn score_batch(&self, row_codes: &[u32], col: usize, scratch: &mut CellScratch) {
        let CellScratch { candidates, scores, comp, slots, .. } = scratch;
        let has_parents = self.compiled.has_parents(col);
        if self.config.partitioned_inference {
            if has_parents {
                self.compiled.blanket_log_scores(row_codes, col, candidates, scores);
            } else {
                self.compiled.children_log_likelihoods(row_codes, col, candidates, scores);
            }
        } else {
            self.compiled.log_joints_with(row_codes, col, candidates, scores);
            if !has_parents {
                for (score, &c) in scores.iter_mut().zip(candidates.iter()) {
                    *score -= self.compiled.log_marginal(col, c);
                }
            }
        }
        if self.config.use_compensatory {
            self.compensatory.log_scores_codes(row_codes, col, candidates, slots, comp);
            for (score, &term) in scores.iter_mut().zip(comp.iter()) {
                *score += term;
            }
        }
        debug_assert!(
            candidates
                .iter()
                .zip(scores.iter())
                .all(|(&c, s)| s.to_bits() == self.score_codes(row_codes, col, c).to_bits()),
            "the batched scores must equal the one-candidate scorer bit for bit"
        );
    }

    /// The Algorithm 1 score of one candidate code:
    /// `log BN[A_j](c) + log CS[A_j](c)`, evaluated entirely through the
    /// compiled (code-indexed) models. Cleaning calls it only for the
    /// observed value, whose compensatory term carries the leave-one-out;
    /// the other candidates go through [`BCleanModel::score_batch`].
    ///
    /// Nodes without parents are scored with a uniform prior (paper §6.1):
    /// only the likelihood of their children and the compensatory score
    /// discriminate between candidates, which prevents the raw value
    /// frequency from overwriting rare-but-correct values.
    fn score_codes(&self, row_codes: &[u32], col: usize, candidate: u32) -> f64 {
        let has_parents = self.compiled.has_parents(col);
        let bn_score = if self.config.partitioned_inference {
            if has_parents {
                self.compiled.blanket_log_score(row_codes, col, candidate)
            } else {
                self.compiled.children_log_likelihood(row_codes, col, candidate)
            }
        } else {
            // Whole-network scoring: every factor of the joint is evaluated.
            let joint = self.compiled.log_joint_with(row_codes, col, candidate);
            if has_parents {
                joint
            } else {
                // Remove the node's own prior factor (uniform-prior treatment).
                joint - self.compiled.log_marginal(col, candidate)
            }
        };
        let comp_score = if self.config.use_compensatory {
            self.compensatory.log_score_codes(row_codes, col, candidate)
        } else {
            0.0
        };
        bn_score + comp_score
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Variant;
    use crate::constraints::{ConstraintSet, UserConstraint};
    use bclean_data::dataset_from;

    /// A Customer-like dataset with a Zip->State dependency, one typo, one
    /// missing value and one inconsistency.
    fn dirty_dataset() -> Dataset {
        dataset_from(
            &["City", "State", "ZipCode"],
            &[
                vec!["sylacauga", "CA", "35150"],
                vec!["sylacauga", "CA", "35150"],
                vec!["sylacauga", "KT", "35150"], // inconsistency: should be CA
                vec!["sylacaugq", "CA", "35150"], // typo in City
                vec!["centre", "KT", "35960"],
                vec!["centre", "KT", "35960"],
                vec!["centre", "", "35960"], // missing State
                vec!["centre", "KT", "35960"],
                vec!["sylacauga", "CA", "35150"],
                vec!["sylacauga", "CA", "35150"],
            ],
        )
    }

    fn constraints() -> ConstraintSet {
        let mut ucs = ConstraintSet::new();
        ucs.add("ZipCode", UserConstraint::pattern("^[1-9][0-9]{4,4}$").unwrap());
        ucs.add("State", UserConstraint::MinLength(2));
        ucs.add("State", UserConstraint::MaxLength(2));
        ucs.add("State", UserConstraint::NotNull);
        ucs.add("City", UserConstraint::NotNull);
        ucs
    }

    fn clean_with(variant: Variant) -> CleaningResult {
        let data = dirty_dataset();
        let cleaner = BClean::new(variant.config()).with_constraints(constraints());
        let model = cleaner.fit(&data);
        model.clean(&data)
    }

    #[test]
    fn repairs_inconsistent_state() {
        let result = clean_with(Variant::Basic);
        assert_eq!(result.cleaned.cell(2, 1).unwrap(), &Value::text("CA"), "repairs: {:?}", result.repairs);
    }

    #[test]
    fn repairs_missing_state() {
        let result = clean_with(Variant::Basic);
        assert_eq!(result.cleaned.cell(6, 1).unwrap(), &Value::text("KT"));
        // The repair is recorded with its provenance.
        let r = result.repairs.iter().find(|r| r.at == CellRef::new(6, 1)).unwrap();
        assert_eq!(r.attribute, "State");
        assert_eq!(r.from, Value::Null);
        assert!(r.score_gain > 0.0);
    }

    #[test]
    fn repairs_city_typo() {
        let result = clean_with(Variant::Basic);
        assert_eq!(result.cleaned.cell(3, 0).unwrap(), &Value::text("sylacauga"));
    }

    #[test]
    fn does_not_break_clean_cells() {
        let result = clean_with(Variant::Basic);
        // Every repair must touch one of the three known-dirty cells.
        for r in &result.repairs {
            assert!(
                [(2usize, 1usize), (3, 0), (6, 1)].contains(&(r.at.row, r.at.col)),
                "unexpected repair {r:?}"
            );
        }
    }

    #[test]
    fn partitioned_variant_matches_basic_on_small_data() {
        let basic = clean_with(Variant::Basic);
        let pi = clean_with(Variant::PartitionedInference);
        assert_eq!(basic.cleaned, pi.cleaned);
    }

    #[test]
    fn pruning_variant_still_fixes_errors() {
        let pip = clean_with(Variant::PartitionedInferencePruning);
        assert_eq!(pip.cleaned.cell(2, 1).unwrap(), &Value::text("CA"));
        assert_eq!(pip.cleaned.cell(6, 1).unwrap(), &Value::text("KT"));
        // Pruning must actually skip some cells.
        assert!(pip.stats.cells_skipped > 0);
        assert!(pip.stats.cells_examined < 30);
    }

    #[test]
    fn no_uc_variant_runs_without_constraints() {
        let result = clean_with(Variant::NoUserConstraints);
        // It still fixes the State inconsistency (driven by the BN + compensatory score).
        assert_eq!(result.cleaned.cell(2, 1).unwrap(), &Value::text("CA"));
    }

    #[test]
    fn stats_are_populated() {
        let result = clean_with(Variant::Basic);
        assert!(result.stats.cells_examined > 0);
        assert!(result.stats.candidates_evaluated > 0);
        assert_eq!(result.stats.repairs, result.repairs.len());
        assert!(result.stats.duration.as_nanos() > 0);
    }

    #[test]
    fn score_candidates_ranks_truth_first() {
        let data = dirty_dataset();
        let model = BClean::new(Variant::Basic.config()).with_constraints(constraints()).fit(&data);
        let ranked = model.score_candidates(&data, 2, 1);
        assert_eq!(ranked[0].0, Value::text("CA"));
        assert!(ranked.len() >= 2);
        assert!(ranked[0].1 >= ranked[ranked.len() - 1].1);
    }

    #[test]
    fn constraints_filter_candidates() {
        // A candidate violating the UC pattern must never be proposed.
        let data = dataset_from(
            &["Zip", "State"],
            &[
                vec!["35150", "CA"],
                vec!["35150", "CA"],
                vec!["3515", "CA"], // bad zip, satisfies nothing
                vec!["35960", "KT"],
                vec!["35960", "KT"],
            ],
        );
        let mut ucs = ConstraintSet::new();
        ucs.add("Zip", UserConstraint::pattern("^[1-9][0-9]{4,4}$").unwrap());
        let model = BClean::new(Variant::Basic.config()).with_constraints(ucs).fit(&data);
        let result = model.clean(&data);
        // The bad zip is repaired to a value satisfying the pattern.
        let repaired = result.cleaned.cell(2, 0).unwrap();
        assert_eq!(repaired, &Value::parse("35150"));
    }

    #[test]
    fn edit_network_changes_structure() {
        let data = dirty_dataset();
        let mut model = BClean::new(Variant::Basic.config()).with_constraints(constraints()).fit(&data);
        // Clear whatever was learned automatically, then impose ZipCode -> City.
        let removals: Vec<NetworkEdit> =
            model.dag().edges().into_iter().map(|(from, to)| NetworkEdit::RemoveEdge { from, to }).collect();
        model.edit_network(&data, removals).unwrap();
        model.edit_network(&data, vec![NetworkEdit::AddEdge { from: 2, to: 0 }]).unwrap();
        assert_eq!(model.dag().num_edges(), 1);
        assert!(model.dag().has_edge(2, 0));
        assert!(model.compiled().has_parents(0));
        // A failing edit keeps the model as it was.
        assert!(model.edit_network(&data, vec![NetworkEdit::AddEdge { from: 0, to: 2 }]).is_err());
        assert!(model.dag().has_edge(2, 0));
        // Cleaning still works after the edit.
        let result = model.clean(&data);
        assert_eq!(result.cleaned.cell(2, 1).unwrap(), &Value::text("CA"));
    }

    #[test]
    fn parallel_and_serial_results_agree() {
        // Build a dataset large enough to trigger the parallel path.
        let mut rows = Vec::new();
        for i in 0..200usize {
            let (city, state, zip) =
                if i % 2 == 0 { ("sylacauga", "CA", "35150") } else { ("centre", "KT", "35960") };
            // Inject an inconsistency every 20 rows.
            if i % 20 == 5 {
                rows.push(vec![city.to_string(), "XX".to_string(), zip.to_string()]);
            } else {
                rows.push(vec![city.to_string(), state.to_string(), zip.to_string()]);
            }
        }
        let refs: Vec<Vec<&str>> = rows.iter().map(|r| r.iter().map(|s| s.as_str()).collect()).collect();
        let data = dataset_from(&["City", "State", "ZipCode"], &refs);
        let serial_model = BClean::new(Variant::PartitionedInference.config().with_threads(1))
            .with_constraints(constraints())
            .fit(&data);
        let parallel_model = BClean::new(Variant::PartitionedInference.config().with_threads(4))
            .with_constraints(constraints())
            .fit(&data);
        let serial = serial_model.clean(&data);
        let parallel = parallel_model.clean(&data);
        assert_eq!(serial.cleaned, parallel.cleaned);
        assert_eq!(serial.repairs.len(), parallel.repairs.len());
        assert!(serial.repairs.len() >= 10);
    }

    #[test]
    fn accessors() {
        let data = dirty_dataset();
        let cleaner = BClean::new(Variant::Basic.config()).with_constraints(constraints());
        assert_eq!(cleaner.constraints().len(), 5);
        assert!(cleaner.config().use_constraints);
        let model = cleaner.fit(&data);
        assert_eq!(model.dag().num_nodes(), 3);
        assert_eq!(model.attribute_names(), &["City".to_string(), "State".into(), "ZipCode".into()]);
        assert_eq!(model.compiled().num_nodes(), 3);
        assert_eq!(model.domains().len(), 3);
        assert!(model.compensatory().num_rows() == 10);
        assert!(model.config().use_compensatory);
        assert_eq!(model.dicts().len(), 3);
    }

    /// Cleaning a dataset containing values the model never saw must not
    /// panic and must leave well-supported cells intact.
    #[test]
    fn cleaning_unseen_values_is_safe() {
        let data = dirty_dataset();
        let model =
            BClean::new(Variant::PartitionedInference.config()).with_constraints(constraints()).fit(&data);
        let other = dataset_from(
            &["City", "State", "ZipCode"],
            &[
                vec!["gadsden", "ZZ", "99999"], // entirely unseen tuple
                vec!["sylacauga", "CA", "35150"],
            ],
        );
        let result = model.clean(&other);
        assert_eq!(result.cleaned.num_rows(), 2);
        assert_eq!(result.cleaned.cell(1, 0).unwrap(), &Value::text("sylacauga"));
    }

    /// Tuple-level rules keep filtering candidates on the encoded path.
    #[test]
    fn row_rules_filter_candidates() {
        let data = dataset_from(
            &["lo", "hi"],
            &[
                vec!["1", "5"],
                vec!["1", "5"],
                vec!["1", "5"],
                vec!["2", "6"],
                vec!["2", "6"],
                vec!["6", "2"], // violates lo <= hi
            ],
        );
        let ucs = ConstraintSet::new().with_row_rule("num(lo) <= num(hi)").unwrap();
        let model = BClean::new(Variant::Basic.config()).with_constraints(ucs).fit(&data);
        let result = model.clean(&data);
        for row in result.cleaned.rows() {
            let lo = row[0].as_number().unwrap();
            let hi = row[1].as_number().unwrap();
            assert!(lo <= hi, "row rule violated after cleaning: {lo} > {hi}");
        }
    }
}
