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
//! prunes edges with one counting sort of the edge's code columns, CPT
//! estimation accumulates the observed mixed-radix configurations of
//! [`NodeCounts`] per node (fanned out over the shared
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
//! Candidate enumeration reads the compensatory model's co-occurrence runs
//! rather than probing them once per candidate. A cell with an anchor takes
//! its candidates from the run of the anchor value — the codes whose pair
//! count with it is at least 1 — so enumeration costs the anchor's support,
//! not the column's cardinality; a cell without one walks the whole domain.
//! The list keeps the observed code where enumeration meets it.
//!
//! # One score per distinct row
//!
//! A cell's repair depends only on its row and the model (Algorithm 1
//! cleans tuple by tuple), so identical rows get identical repairs. The
//! kernel, `BCleanModel::clean_codes`, reads `u32` code rows one at a time
//! from whatever layout the caller holds, and groups the rows whose codes
//! are equal and all dictionary codes — and, when the values come from the
//! caller's dataset, whose values are identical, because `0` and `-0` share
//! a code. It scores the first row of each group, and every other row
//! shares that row's code repairs and counts its counters; a row holding an
//! unseen code is scored alone. [`BCleanModel::clean`] is encode → kernel →
//! decode, and the streaming pipeline ([`crate::stream`]) runs the kernel
//! once over its whole encoding.
//!
//! # One evaluation per distinct term
//!
//! A candidate's score is a sum of terms: one CPT factor per node of the
//! cell's blanket (§6.1), or of the whole joint, and one compensatory term
//! per context column (Eq. 2). Each term reads the candidate and one to
//! three codes of the row, so cells whose candidate lists are equal share
//! every term whose inputs agree. The kernel therefore runs one column at a
//! time. Each representative row's cell enumerates its candidates, in
//! blocks over the rows; the cells whose lists are identical — judged with
//! the observed code still in the list — form a group, and each group is
//! cut into work items of bounded size, scored in blocks over the items.
//! Inside an item every term is evaluated once per distinct input and added
//! into each member cell's scores:
//!
//! * the own CPT factor once per distinct parent row, and each child's
//!   factor once per distinct (child code, other parents' codes), as
//!   resolved into a [`FactorKey`];
//! * each context column's run once per distinct context value, whose
//!   listed codes' tallies every member with that value adds;
//! * the observed value reads its factors and its leave-one-out tallies
//!   from those same terms when its code is in the list, and is probed with
//!   the one-candidate scorer `score_codes` only when it is not.
//!
//! Every member adds its terms in the order `score_codes` adds them, so
//! every score, repair and counter is bit-identical to scoring each cell
//! alone; test builds compare every shared score with `score_codes`.
//! [`BCleanModel::score_candidates`] scores its cell as an item of one.
//! [`CleaningStats`] counts the work: the run entries read and the factor
//! evaluations made, which a group's copies do not multiply.

use std::collections::hash_map::{Entry, HashMap, RandomState};
use std::hash::BuildHasher;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use bclean_bayesnet::codehash::CodeHasher;
use bclean_bayesnet::{
    learn_structure_encoded, CodeMap, CompiledNetwork, Dag, Factor, FactorKey, NetworkEdit, NetworkEditor,
    NodeCounts,
};
use bclean_data::{AttrType, CellRef, ColumnDict, Dataset, Domains, EncodedDataset, Schema, Value};
use bclean_rules::Rule;

use crate::compensatory::{log_of_sum, CompensatoryModel, ContextDivisors, NO_SLOT};
use crate::config::BCleanConfig;
use crate::constraints::ConstraintSet;
use crate::exec::ParallelExecutor;
use crate::report::{approx_repairs_bytes, CleaningResult, CleaningStats, Repair};

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

/// A repair of one cell of a representative row, still in code space. Every
/// row of the representative's group shares it; the caller decodes it per
/// row.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CodeRepair {
    pub(crate) col: usize,
    pub(crate) to_code: u32,
    pub(crate) score_gain: f64,
}

/// Where the cleaning kernel reads the `Value`s behind its codes: tuple
/// rules read whole rows, the constraint check of an unseen code reads its
/// cell, and a decoded repair takes its `from` from its own row.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RowValues<'a> {
    /// The caller's rows. Codes encode them lossily: every unseen value of
    /// a column shares one code, and `0` and `-0` share another.
    Dataset(&'a Dataset),
    /// Rows of this schema encoded against the model's own dictionaries,
    /// with no unseen code: a cell's value is the decode of its code.
    Decoded(&'a Schema),
}

impl<'a> RowValues<'a> {
    fn schema(&self) -> &'a Schema {
        match *self {
            RowValues::Dataset(dataset) => dataset.schema(),
            RowValues::Decoded(schema) => schema,
        }
    }

    /// The value of cell `(row, col)`, whose code is `code`.
    fn cell<'s>(&'s self, dicts: &'s [ColumnDict], row: usize, col: usize, code: u32) -> &'s Value {
        match *self {
            RowValues::Dataset(dataset) => &dataset.row(row).expect("row index in range")[col],
            RowValues::Decoded(_) => dicts[col].decode(code),
        }
    }

    /// Replace `out` with the values of `row`, whose codes are `codes`.
    fn fill_row(&self, dicts: &[ColumnDict], row: usize, codes: &[u32], out: &mut Vec<Value>) {
        out.clear();
        match *self {
            RowValues::Dataset(dataset) => {
                out.extend_from_slice(dataset.row(row).expect("row index in range"))
            }
            RowValues::Decoded(_) => {
                out.extend(codes.iter().zip(dicts).map(|(&code, dict)| dict.decode(code).clone()))
            }
        }
    }

    /// Whether rows `a` and `b`, whose codes are equal, hold identical
    /// values: bit for bit, so `0` and `-0` differ.
    fn identical(&self, a: usize, b: usize) -> bool {
        let RowValues::Dataset(dataset) = *self else { return true };
        let row = |r: usize| dataset.row(r).expect("row index in range");
        row(a).iter().zip(row(b)).all(|pair| match pair {
            (Value::Number(x), Value::Number(y)) => x.to_bits() == y.to_bits(),
            (x, y) => x == y,
        })
    }
}

/// The groups of identical rows of one cleaning run, numbered by first
/// appearance. Rows share a group when every code is equal and is a
/// dictionary code, and their [`RowValues`] are identical; a row holding an
/// unseen code is a group of its own.
struct RowGroups {
    /// `group[row]`: the row's group.
    group: Vec<u32>,
    /// `reps[g]`: the first row of group `g`, the one the kernel scores.
    reps: Vec<u32>,
    /// `sizes[g]`: the number of rows in group `g`.
    sizes: Vec<u32>,
}

impl RowGroups {
    /// Group `rows` code rows of the dictionaries' width, each copied out
    /// by `gather`: one hash probe per row, O(rows × columns). A row whose
    /// hash matches a group's while its codes or values differ is a group
    /// of its own.
    fn of(
        rows: usize,
        gather: &impl Fn(usize, &mut [u32]),
        dicts: &[ColumnDict],
        values: RowValues<'_>,
    ) -> RowGroups {
        let hasher = RandomState::new();
        let mut first: HashMap<u64, u32> = HashMap::new();
        let (mut row_codes, mut rep_codes) = (vec![0u32; dicts.len()], vec![0u32; dicts.len()]);
        let mut groups = RowGroups { group: Vec::with_capacity(rows), reps: Vec::new(), sizes: Vec::new() };
        for row in 0..rows {
            gather(row, &mut row_codes);
            let mut g = groups.reps.len() as u32;
            if row_codes.iter().zip(dicts).all(|(&code, dict)| code != dict.unseen_code()) {
                match first.entry(hasher.hash_one(&row_codes)) {
                    Entry::Occupied(e) => {
                        let rep = groups.reps[*e.get() as usize] as usize;
                        gather(rep, &mut rep_codes);
                        if rep_codes == row_codes && values.identical(rep, row) {
                            g = *e.get();
                        }
                    }
                    Entry::Vacant(e) => {
                        e.insert(g);
                    }
                }
            }
            if g as usize == groups.reps.len() {
                groups.reps.push(row as u32);
                groups.sizes.push(0);
            }
            groups.sizes[g as usize] += 1;
            groups.group.push(g);
        }
        groups
    }
}

/// What the cleaning kernel found, in code space: the code repairs of each
/// group, which every row of the group shares.
#[derive(Debug)]
pub(crate) struct CodeCleaning {
    /// `group[row]`: the group whose repairs the row shares.
    group: Vec<u32>,
    /// The code repairs of every group, in group and then column order.
    repairs: Vec<CodeRepair>,
    /// `starts[g]..starts[g + 1]`: the repairs of group `g`.
    starts: Vec<usize>,
    /// The counters of every row (a row that shares its group's repairs
    /// counts its representative's), the rows scored and the kernel's wall
    /// time. `repairs` is left to the decoder.
    pub(crate) stats: CleaningStats,
    /// The most bytes the kernel held at once beside its input.
    kernel_bytes: usize,
}

impl CodeCleaning {
    /// The code repairs of `row`, in column order.
    pub(crate) fn row_repairs(&self, row: usize) -> &[CodeRepair] {
        let g = self.group[row] as usize;
        &self.repairs[self.starts[g]..self.starts[g + 1]]
    }

    /// Approximate bytes held: the group table and the code repairs.
    pub(crate) fn approx_bytes(&self) -> usize {
        4 * self.group.len()
            + std::mem::size_of::<CodeRepair>() * self.repairs.len()
            + std::mem::size_of::<usize>() * self.starts.len()
    }

    /// Approximate bytes the kernel held at its peak beside its input: the
    /// row groups, one column's cell and list tables, the largest work-item
    /// buffers of every worker, and the code repairs found so far.
    pub(crate) fn kernel_bytes(&self) -> usize {
        self.kernel_bytes
    }
}

/// The slot of an observed code its cell's candidate list does not hold.
const NOT_LISTED: u32 = u32::MAX;

/// The most scores a work item of the cleaning kernel holds per member
/// table: the cells of an `n`-candidate list are scored in items of at most
/// `max(1, ITEM_SCORES / n)` cells, and terms are shared only inside an
/// item. Measured as the median kernel time of in-process `clean_stream`
/// runs at 1 thread on the seed-1 `perfbench` inputs (2-vCPU host, two
/// rounds of five passes on `hospital-stream`, three passes on
/// `wide-batch`): 2¹² took 0.60/0.67 s and 0.69 s, 2¹⁴ 0.52/0.51 s and
/// 0.65 s, 2¹⁶ 0.49/0.52 s and 0.65 s, 2¹⁸ 0.46/0.36 s and 0.72 s. Smaller
/// items share fewer terms; at 2¹⁸ the 32-column input slowed, whose items'
/// tables outgrow the cache. At 2¹⁶ an item's scores and sums take 1 MiB.
const ITEM_SCORES: usize = 1 << 16;

/// One examined cell of a column with at least one candidate, as
/// enumeration leaves it for scoring.
#[derive(Debug, Clone, Copy, Default)]
struct ListedCell {
    /// The cell's row group, whose representative row it is in.
    group: u32,
    /// The slot of the observed code in the cell's candidate list, or
    /// [`NOT_LISTED`].
    observed_at: u32,
    /// Whether the observed value satisfies the constraints, so that it
    /// defends the cell with its score (Eq. 1).
    observed_ok: bool,
    /// Whether the cell has an anchor, which sets its repair margin.
    anchored: bool,
}

/// The distinct candidate lists of one column's cells, numbered by first
/// appearance, each stored once.
#[derive(Debug)]
struct ListTable {
    /// List `l` is `codes[starts[l]..starts[l + 1]]`.
    codes: Vec<u32>,
    starts: Vec<usize>,
    /// `hashes[l]`: the [`list_hash`] of list `l`.
    hashes: Vec<u64>,
    /// The lists of each hash.
    by_hash: CodeMap<u64, Vec<u32>>,
}

impl ListTable {
    fn new() -> ListTable {
        ListTable { codes: Vec::new(), starts: vec![0], hashes: Vec::new(), by_hash: CodeMap::default() }
    }

    fn len(&self) -> usize {
        self.hashes.len()
    }

    fn list(&self, l: usize) -> &[u32] {
        &self.codes[self.starts[l]..self.starts[l + 1]]
    }

    /// The number of `list`, whose hash is `hash`: an equal list's, or the
    /// next number when the list is new.
    fn intern(&mut self, hash: u64, list: &[u32]) -> u32 {
        let ListTable { codes, starts, hashes, by_hash } = self;
        let same_hash = by_hash.entry(hash).or_default();
        let equal = |&&l: &&u32| &codes[starts[l as usize]..starts[l as usize + 1]] == list;
        if let Some(&l) = same_hash.iter().find(equal) {
            return l;
        }
        same_hash.push(hashes.len() as u32);
        codes.extend_from_slice(list);
        starts.push(codes.len());
        hashes.push(hash);
        hashes.len() as u32 - 1
    }

    fn approx_bytes(&self) -> usize {
        4 * self.codes.len() + 48 * self.len()
    }
}

/// A deterministic hash of a candidate list.
fn list_hash(list: &[u32]) -> u64 {
    use std::hash::Hasher;
    let mut hasher = CodeHasher::default();
    hasher.write_usize(list.len());
    for &code in list {
        hasher.write_u32(code);
    }
    hasher.finish()
}

/// One column's examined cells that have a candidate, grouped by candidate
/// list: `cells[starts[l]..starts[l + 1]]` hold list `l`, in row order.
#[derive(Debug)]
struct ColumnCells {
    lists: ListTable,
    cells: Vec<ListedCell>,
    starts: Vec<usize>,
}

impl ColumnCells {
    /// The column's work items: each list's cells cut into runs of at most
    /// `max(1, ITEM_SCORES / n)` cells, `n` the list's length. A pure
    /// function of the cells, so every thread count scores the same items.
    fn work_items(&self) -> Vec<(usize, Range<usize>)> {
        let mut items = Vec::new();
        for l in 0..self.lists.len() {
            let cap = (ITEM_SCORES / self.lists.list(l).len()).max(1);
            let (first, end) = (self.starts[l], self.starts[l + 1]);
            items.extend((first..end).step_by(cap).map(|start| (l, start..(start + cap).min(end))));
        }
        items
    }

    fn approx_bytes(&self) -> usize {
        self.lists.approx_bytes()
            + std::mem::size_of::<ListedCell>() * self.cells.len()
            + std::mem::size_of::<usize>() * self.starts.len()
    }
}

/// Per-block buffers of candidate enumeration, reused from cell to cell so
/// that enumerating a cell allocates nothing.
#[derive(Debug, Default)]
struct CellScratch {
    /// The cell's candidate list in enumeration order, the observed code
    /// included where enumeration meets it.
    candidates: Vec<u32>,
    /// The row's values, which tuple rules read with one candidate
    /// substituted.
    row: Vec<Value>,
    /// The candidates' domain-pruning scores.
    scores: Vec<f64>,
    /// The code → candidate map of the domain-pruning scan.
    slots: Vec<u32>,
}

/// Per-block buffers of scoring work items, reused from item to item.
#[derive(Debug, Default)]
struct ItemScratch {
    /// The members' code rows, one after another.
    rows: Vec<u32>,
    /// The members' scores of every listed code, one list's length per
    /// member: the BN term, then the whole score.
    scores: Vec<f64>,
    /// The members' sums of Eq. 2's terms, laid out like `scores`.
    sums: Vec<f64>,
    /// The code → slot map of the item's list, [`NO_SLOT`] elsewhere.
    slots: Vec<u32>,
    /// The log probabilities of the distinct factors of one term, one
    /// list's length each, and which key each was evaluated for.
    factor_values: Vec<f64>,
    factors: CodeMap<FactorKey, u32>,
    /// The listed codes in the runs of the distinct values of one context
    /// column, as `(slot, candidate share, signed counter)`.
    tallies: Vec<(u32, f64, f64)>,
    /// Per distinct context value: its range of `tallies` and its divisors,
    /// and which value each was read for.
    contexts: Vec<(Range<usize>, ContextDivisors)>,
    context_of: CodeMap<u32, u32>,
}

/// What cleaning one column needs beyond the model, resolved once per
/// cleaning run instead of once per cell.
#[derive(Debug)]
struct ColumnPlan {
    /// The tuple-level rules relevant to the column.
    rules: Vec<Arc<Rule>>,
    /// The domain-pruning context (§6.2): the column's joint set in the
    /// DAG, or the whole tuple when the column has no neighbours. Empty
    /// when domain pruning is off.
    context: Vec<usize>,
}

/// The factors of one term position of a work item's members, evaluated
/// once per distinct [`FactorKey`] over the item's candidate list.
struct FactorTerms<'a> {
    list: &'a [u32],
    /// The members' code rows, `m` codes each.
    rows: &'a [u32],
    m: usize,
    /// The distinct factors' log probabilities, one list's length each.
    values: &'a mut Vec<f64>,
    /// Where each key's probabilities start in `values`.
    keys: &'a mut CodeMap<FactorKey, u32>,
    /// The most bytes `values` held.
    held: usize,
}

impl FactorTerms<'_> {
    /// Add each member's factor, `factor(row)`, into its `scores`, one
    /// list's length per member; `first` sets them instead, as the first
    /// term of a sum.
    fn add<'n>(
        &mut self,
        scores: &mut [f64],
        first: bool,
        work: &mut CleaningStats,
        factor: impl Fn(&[u32]) -> Factor<'n>,
    ) {
        let n = self.list.len();
        self.keys.clear();
        self.values.clear();
        for (row, score) in self.rows.chunks_exact(self.m).zip(scores.chunks_exact_mut(n)) {
            let factor = factor(row);
            let values = &mut *self.values;
            let at = *self.keys.entry(factor.key()).or_insert_with(|| {
                work.factor_evaluations += n;
                factor.log_probs(self.list, values);
                (values.len() - n) as u32
            }) as usize;
            let values = &self.values[at..at + n];
            if first {
                score.copy_from_slice(values);
            } else {
                score.iter_mut().zip(values).for_each(|(s, &v)| *s += v);
            }
        }
        self.held = self.held.max(8 * self.values.len());
    }
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
    /// Shared with the producing [`crate::ModelArtifact`]: the artifact's
    /// next absorb builds new counters beside these, so the model's
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
    /// and their scores are exactly those [`BCleanModel::clean`] weighs: the
    /// cell is scored as a work item of one cell.
    pub fn score_candidates(&self, dataset: &Dataset, row: usize, col: usize) -> Vec<(Value, f64)> {
        let row_values = dataset.row(row).expect("row index in range");
        let dicts = self.compensatory.dicts();
        let row_codes: Vec<u32> = row_values.iter().zip(dicts).map(|(v, d)| d.encode_lossy(v)).collect();
        let plan = self.column_plan(dataset.schema(), col);
        let mut scratch = CellScratch::default();
        scratch.row.extend_from_slice(row_values);
        let mut work = CleaningStats::default();
        let anchor = self.anchor_context_codes(&row_codes, col);
        let observed_at =
            self.candidate_codes(dataset.schema(), &row_codes, col, anchor, &plan, &mut scratch, &mut work);
        let cell = ListedCell { observed_at, ..ListedCell::default() };
        let mut item = ItemScratch::default();
        item.rows.extend_from_slice(&row_codes);
        self.score_item(col, &scratch.candidates, &[cell], &mut item, &mut work);
        // The observed value keeps its place in the enumeration, so ties
        // keep enumeration order; only its score carries the leave-one-out.
        let observed = row_codes[col];
        let mut scored: Vec<(Value, f64)> = scratch
            .candidates
            .iter()
            .zip(&item.scores)
            .map(|(&c, &score)| {
                let value = if c == observed { &row_values[col] } else { dicts[col].decode(c) };
                (value.clone(), score)
            })
            .collect();
        if observed_at == NOT_LISTED {
            scored.push((row_values[col].clone(), self.score_codes(&row_codes, col, observed)));
        }
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        scored
    }

    /// Clean a dataset (inference stage, Algorithm 1): encode it against
    /// the model's fit-time [`ColumnDict`]s, run the cleaning kernel
    /// (`BCleanModel::clean_codes`) over the code rows, and decode the
    /// repairs. Values the model never observed map to per-column unseen
    /// sentinels that score through the same fallbacks as the `Value` path;
    /// tuple rules, the constraint check of an unseen value and each
    /// repair's `from` read the dataset's own values. The result is
    /// identical for every thread count.
    pub fn clean(&self, dataset: &Dataset) -> CleaningResult {
        self.clean_held(dataset).0
    }

    /// [`BCleanModel::clean`], and the most bytes the clean held beside the
    /// dataset and its cleaned copy: the codes and the kernel's peak, or
    /// the code cleaning and the decoded repairs.
    pub(crate) fn clean_held(&self, dataset: &Dataset) -> (CleaningResult, usize) {
        let start = Instant::now();
        let n = dataset.num_rows();
        let dicts = self.compensatory.dicts();
        let m = dicts.len();
        // Row-major encode: the only Value hashing of the whole run.
        let mut codes: Vec<u32> = Vec::with_capacity(n * m);
        for row in dataset.rows() {
            codes.extend(row.iter().zip(dicts).map(|(value, dict)| dict.encode_lossy(value)));
        }
        let values = RowValues::Dataset(dataset);
        let gather = |row: usize, out: &mut [u32]| out.copy_from_slice(&codes[row * m..(row + 1) * m]);
        let cleaning = self.clean_codes(n, gather, values);
        let names = dataset.schema().names();
        let mut cleaned = dataset.clone();
        let mut repairs = Vec::new();
        for row in 0..n {
            for code_repair in cleaning.row_repairs(row) {
                let repair =
                    self.decode_repair(values, &names, row, &codes[row * m..(row + 1) * m], code_repair);
                cleaned
                    .set_cell(row, repair.at.col, repair.to.clone())
                    .expect("repair coordinates are valid");
                repairs.push(repair);
            }
        }
        let held = 4 * codes.len()
            + cleaning.kernel_bytes().max(cleaning.approx_bytes() + approx_repairs_bytes(&repairs));
        let mut stats = cleaning.stats;
        stats.repairs = repairs.len();
        stats.duration = start.elapsed();
        stats.fit_duration = self.fit_duration;
        (CleaningResult { cleaned, repairs, stats }, held)
    }

    /// The cleaning kernel: Algorithm 1 over every cell of `rows` code rows
    /// of the model's width, which `gather` copies out row by row, so the
    /// rows stay in whatever layout the caller holds them. Identical rows
    /// are grouped first ([`RowGroups`]), and the kernel scores each group's
    /// first row; every other row of a group shares its code repairs and
    /// counts its counters, because a cell's repair depends only on its row
    /// and the model. The kernel then runs one column at a time: each
    /// representative's cell enumerates its candidates, the cells whose
    /// candidate lists are identical are scored together in work items,
    /// each term of the score evaluated once per distinct input of an item.
    /// Both fan-outs go through the shared [`ParallelExecutor`], and every
    /// partition depends on the input alone, so the result and every
    /// counter are identical for every thread count.
    pub(crate) fn clean_codes(
        &self,
        rows: usize,
        gather: impl Fn(usize, &mut [u32]) + Sync,
        values: RowValues<'_>,
    ) -> CodeCleaning {
        let start = Instant::now();
        let dicts = self.compensatory.dicts();
        let RowGroups { group, reps, sizes } = RowGroups::of(rows, &gather, dicts, values);
        let mut stats = CleaningStats::default();
        let mut found: Vec<(u32, CodeRepair)> = Vec::new();
        let mut peak = 0;
        for col in 0..dicts.len() {
            let plan = self.column_plan(values.schema(), col);
            let cells = self.enumerate_column(col, &plan, &reps, &sizes, &gather, values, &mut stats);
            let items_bytes = self.score_column(col, &cells, &reps, &gather, &mut stats, &mut found);
            peak = peak.max(
                cells.approx_bytes() + items_bytes + std::mem::size_of::<(u32, CodeRepair)>() * found.len(),
            );
        }
        found.sort_unstable_by_key(|&(g, repair)| (g, repair.col));
        let mut starts = Vec::with_capacity(reps.len() + 1);
        let mut end = 0;
        starts.push(end);
        for g in 0..reps.len() as u32 {
            end += found[end..].iter().take_while(|&&(owner, _)| owner == g).count();
            starts.push(end);
        }
        stats.rows_scored = reps.len();
        stats.duration = start.elapsed();
        CodeCleaning {
            kernel_bytes: 4 * (group.len() + reps.len() + sizes.len()) + peak,
            group,
            repairs: found.into_iter().map(|(_, repair)| repair).collect(),
            starts,
            stats,
        }
    }

    /// Enumerate column `col` of every representative row, in blocks over
    /// the representatives, and group the cells with a candidate by their
    /// candidate list. Counts each cell once per row of its group.
    #[allow(clippy::too_many_arguments)]
    fn enumerate_column(
        &self,
        col: usize,
        plan: &ColumnPlan,
        reps: &[u32],
        sizes: &[u32],
        gather: &(impl Fn(usize, &mut [u32]) + Sync),
        values: RowValues<'_>,
        stats: &mut CleaningStats,
    ) -> ColumnCells {
        let dicts = self.compensatory.dicts();
        let m = dicts.len();
        let executor = ParallelExecutor::for_config(&self.config, reps.len());
        let blocks = executor.execute(reps.len(), |block| {
            let mut lists = ListTable::new();
            let mut cells = Vec::new();
            let mut work = CleaningStats::default();
            let mut scratch = CellScratch::default();
            let mut row_codes = vec![0u32; m];
            for g in block {
                let row = reps[g] as usize;
                gather(row, &mut row_codes);
                let copies = sizes[g] as usize;
                // Pre-detection / tuple pruning (§6.2): skip cells that
                // already co-occur strongly with the rest of their tuple.
                if self.config.tuple_pruning && row_codes[col] != dicts[col].null_code() {
                    work.run_entries_read += m - 1;
                    if self.compensatory.filter_score_codes(&row_codes, col) >= self.config.tau_clean {
                        work.cells_skipped += copies;
                        continue;
                    }
                }
                work.cells_examined += copies;
                let cell = self.enumerate_cell(values, row, &row_codes, col, plan, &mut scratch, &mut work);
                let candidates = scratch.candidates.len() - (cell.observed_at != NOT_LISTED) as usize;
                work.candidates_evaluated += copies * candidates;
                if candidates > 0 {
                    let l = lists.intern(list_hash(&scratch.candidates), &scratch.candidates);
                    cells.push((l, ListedCell { group: g as u32, ..cell }));
                }
            }
            (lists, cells, work)
        });
        // Number the lists by first appearance over all blocks, then sort
        // the cells by list, stably, so each list's cells stay in row order.
        let mut lists = ListTable::new();
        let mut numbered = Vec::new();
        for (local, cells, work) in blocks {
            stats.merge(&work);
            let global: Vec<u32> =
                (0..local.len()).map(|l| lists.intern(local.hashes[l], local.list(l))).collect();
            numbered.extend(cells.into_iter().map(|(l, cell)| (global[l as usize], cell)));
        }
        numbered.sort_by_key(|&(l, _)| l);
        let mut starts = vec![0usize; lists.len() + 1];
        for &(l, _) in &numbered {
            starts[l as usize + 1] += 1;
        }
        for l in 0..lists.len() {
            starts[l + 1] += starts[l];
        }
        ColumnCells { lists, cells: numbered.into_iter().map(|(_, cell)| cell).collect(), starts }
    }

    /// Enumerate one examined cell into `scratch.candidates` and say where
    /// its observed code sits, whether the observed value satisfies the
    /// constraints and whether the cell has an anchor. Values are only read
    /// for tuple-rule checks (columns referenced by row rules) and for the
    /// constraint check of an unseen code.
    #[allow(clippy::too_many_arguments)]
    fn enumerate_cell(
        &self,
        values: RowValues<'_>,
        row: usize,
        row_codes: &[u32],
        col: usize,
        plan: &ColumnPlan,
        scratch: &mut CellScratch,
        work: &mut CleaningStats,
    ) -> ListedCell {
        let dicts = self.compensatory.dicts();
        let schema = values.schema();
        let rules = &plan.rules;
        if !rules.is_empty() {
            values.fill_row(dicts, row, row_codes, &mut scratch.row);
        }
        let original_code = row_codes[col];
        let anchor = self.anchor_context_codes(row_codes, col);
        // A value that violates its own user constraints is known to be wrong
        // (Eq. 1 restricts the arg-max to UC-satisfying values), so it cannot
        // defend its cell: the best constraint-satisfying candidate wins.
        let observed_ok = !self.config.use_constraints
            || (self.attr_ok(col, original_code, || values.cell(dicts, row, col, original_code))
                && rules.iter().all(|r| r.check_row(schema, &scratch.row)));
        let observed_at = self.candidate_codes(schema, row_codes, col, anchor, plan, scratch, work);
        ListedCell { group: 0, observed_at, observed_ok, anchored: anchor.is_some() }
    }

    /// Score column `col`'s cells in work items, in blocks over the items,
    /// and push a code repair for each cell whose best candidate beats its
    /// observed value. Returns the bytes the workers' item buffers hold at
    /// most.
    fn score_column(
        &self,
        col: usize,
        cells: &ColumnCells,
        reps: &[u32],
        gather: &(impl Fn(usize, &mut [u32]) + Sync),
        stats: &mut CleaningStats,
        found: &mut Vec<(u32, CodeRepair)>,
    ) -> usize {
        let m = self.compensatory.dicts().len();
        let space = self.compensatory.dicts()[col].code_space();
        let items = cells.work_items();
        let executor = ParallelExecutor::for_config(&self.config, items.len());
        let blocks = executor.execute(items.len(), |block| {
            let mut scratch = ItemScratch::default();
            let mut work = CleaningStats::default();
            let mut repairs = Vec::new();
            // The most bytes an item's buffers held: the member rows, the
            // scores and sums, the slot map and its largest term table.
            let mut held = 0;
            for (l, range) in &items[block] {
                let list = cells.lists.list(*l);
                let members = &cells.cells[range.clone()];
                scratch.rows.clear();
                scratch.rows.resize(members.len() * m, 0);
                for (cell, row) in members.iter().zip(scratch.rows.chunks_exact_mut(m)) {
                    gather(reps[cell.group as usize] as usize, row);
                }
                let tables = self.score_item(col, list, members, &mut scratch, &mut work);
                held = held.max(4 * members.len() * m + 16 * members.len() * list.len() + 4 * space + tables);
                for (i, cell) in members.iter().enumerate() {
                    if let Some(repair) = self.choose_repair(col, list, cell, &scratch, i, &mut work) {
                        repairs.push((cell.group, repair));
                    }
                }
            }
            (repairs, work, held)
        });
        let mut largest = 0;
        for (mut repairs, work, held) in blocks {
            stats.merge(&work);
            found.append(&mut repairs);
            largest = largest.max(held);
        }
        executor.threads() * largest
    }

    /// Algorithm 1's decision for member `i` of a scored work item: a
    /// repair when some candidate beats the observed value by the margin.
    fn choose_repair(
        &self,
        col: usize,
        list: &[u32],
        cell: &ListedCell,
        scratch: &ItemScratch,
        i: usize,
        work: &mut CleaningStats,
    ) -> Option<CodeRepair> {
        let (n, m) = (list.len(), self.compensatory.dicts().len());
        let scores = &scratch.scores[i * n..(i + 1) * n];
        let original_score = if !cell.observed_ok {
            f64::NEG_INFINITY
        } else if cell.observed_at != NOT_LISTED {
            scores[cell.observed_at as usize]
        } else {
            let row = &scratch.rows[i * m..(i + 1) * m];
            self.count_probe(col, work);
            self.score_codes(row, col, row[col])
        };
        let base_margin =
            if cell.anchored { self.config.repair_margin } else { self.config.no_anchor_margin };
        let mut best: Option<(u32, f64)> = None;
        for (slot, (&candidate, &score)) in list.iter().zip(scores).enumerate() {
            if slot as u32 == cell.observed_at {
                continue;
            }
            let margin = if best.is_none() && original_score.is_finite() { base_margin } else { 0.0 };
            if score > best.map_or(original_score, |(_, s)| s) + margin {
                best = Some((candidate, score));
            }
        }
        best.map(|(to_code, score)| CodeRepair {
            col,
            to_code,
            score_gain: if original_score.is_finite() { score - original_score } else { f64::INFINITY },
        })
    }

    /// Score every member of one work item, cells of column `col` that
    /// share the candidate list `list`, whose code rows are in
    /// `scratch.rows`: into `scratch.scores`, each member's score of every
    /// listed code, its observed code's slot holding the observed value's
    /// score with its leave-one-out. Each term of the score is evaluated
    /// once per distinct input among the members — a CPT factor per
    /// distinct [`FactorKey`], a context column's run per distinct value —
    /// and added into every member's scores in the order
    /// [`BCleanModel::score_codes`] adds it, so each score is that
    /// scorer's bit for bit. Returns the bytes of the largest term table.
    fn score_item(
        &self,
        col: usize,
        list: &[u32],
        members: &[ListedCell],
        scratch: &mut ItemScratch,
        work: &mut CleaningStats,
    ) -> usize {
        let (n, m) = (list.len(), self.compensatory.dicts().len());
        let net = &self.compiled;
        let ItemScratch { rows, scores, sums, slots, factor_values, factors, tallies, contexts, context_of } =
            scratch;
        scores.clear();
        scores.resize(members.len() * n, 0.0);
        if n == 0 {
            return 0;
        }
        // The BN term: the blanket's factors (§6.1) or the whole joint,
        // each shared by the members whose factor has the same key.
        let mut terms =
            FactorTerms { list, rows: &rows[..], m, values: factor_values, keys: factors, held: 0 };
        let has_parents = net.has_parents(col);
        if self.config.partitioned_inference {
            if has_parents {
                terms.add(scores, true, work, |row| net.own_factor(row, col));
            }
            for &child in net.children(col) {
                terms.add(scores, false, work, |row| net.child_factor(row, child, col));
            }
        } else {
            for node in 0..m {
                if node == col {
                    terms.add(scores, false, work, |row| net.own_factor(row, col));
                } else if net.parents(node).contains(&col) {
                    terms.add(scores, false, work, |row| net.child_factor(row, node, col));
                } else {
                    // A factor the candidate does not enter: one value per member.
                    for (row, score) in rows.chunks_exact(m).zip(scores.chunks_exact_mut(n)) {
                        let fixed = net.node(node).log_prob_row(row, row[node]);
                        score.iter_mut().for_each(|s| *s += fixed);
                    }
                    work.factor_evaluations += members.len();
                }
            }
            if !has_parents {
                // Remove the node's own prior factor (uniform-prior treatment).
                let marginals: Vec<f64> = list.iter().map(|&c| net.log_marginal(col, c)).collect();
                work.factor_evaluations += n;
                for score in scores.chunks_exact_mut(n) {
                    score.iter_mut().zip(&marginals).for_each(|(s, &v)| *s -= v);
                }
            }
        }
        let mut tables = terms.held;
        // The compensatory term (Eq. 2), one context column at a time: a
        // distinct context value's run is scanned once, and each member
        // adds the shares of its listed codes.
        sums.clear();
        sums.resize(members.len() * n, 0.0);
        if self.config.use_compensatory && self.compensatory.num_rows() > 0 {
            let comp = &*self.compensatory;
            let space = comp.dicts()[col].code_space();
            if slots.len() < space {
                slots.resize(space, NO_SLOT);
            }
            for (slot, &c) in list.iter().enumerate() {
                slots[c as usize] = slot as u32;
            }
            for k in (0..m).filter(|&k| k != col) {
                context_of.clear();
                contexts.clear();
                tallies.clear();
                for ((row, sum), cell) in rows.chunks_exact(m).zip(sums.chunks_exact_mut(n)).zip(members) {
                    let e = row[k];
                    let at = *context_of.entry(e).or_insert_with(|| {
                        let divisors = comp.context_divisors(k, e);
                        let first = tallies.len();
                        work.run_entries_read += comp.for_each_context_corr(col, k, e, |c, corr| {
                            let slot = slots[c as usize];
                            if slot != NO_SLOT {
                                tallies.push((slot, divisors.candidate_share(corr), corr));
                            }
                        });
                        contexts.push((first..tallies.len(), divisors));
                        contexts.len() as u32 - 1
                    }) as usize;
                    let (range, divisors) = &contexts[at];
                    let mut observed_corr = 0.0;
                    for &(slot, share, corr) in &tallies[range.clone()] {
                        if slot == cell.observed_at {
                            observed_corr = corr;
                        } else {
                            sum[slot as usize] += share;
                        }
                    }
                    if cell.observed_at != NOT_LISTED {
                        sum[cell.observed_at as usize] += divisors.observed_share(observed_corr);
                    }
                }
                tables = tables.max(
                    std::mem::size_of::<(u32, f64, f64)>() * tallies.len()
                        + std::mem::size_of::<(Range<usize>, ContextDivisors)>() * contexts.len(),
                );
            }
            for &c in list {
                slots[c as usize] = NO_SLOT;
            }
        }
        for (score, &sum) in scores.iter_mut().zip(sums.iter()) {
            *score += log_of_sum(sum);
        }
        debug_assert!(
            rows.chunks_exact(m).zip(scores.chunks_exact(n)).all(|(row, scores)| {
                list.iter().zip(scores).all(|(&c, s)| s.to_bits() == self.score_codes(row, col, c).to_bits())
            }),
            "the shared terms must add up to the one-candidate scorer bit for bit"
        );
        tables
    }

    /// Count the work of one [`BCleanModel::score_codes`] probe of column
    /// `col`: its CPT factors and one point probe per context column.
    fn count_probe(&self, col: usize, work: &mut CleaningStats) {
        let net = &self.compiled;
        let m = self.compensatory.dicts().len();
        let has_parents = net.has_parents(col);
        work.factor_evaluations += if self.config.partitioned_inference {
            net.children(col).len() + has_parents as usize
        } else {
            m + !has_parents as usize
        };
        if self.config.use_compensatory && self.compensatory.num_rows() > 0 {
            work.run_entries_read += m - 1;
        }
    }

    /// Decode one code repair of `row`, whose codes are `row_codes`, into a
    /// [`Repair`] named after `names`: its `from` is the row's own value.
    pub(crate) fn decode_repair(
        &self,
        values: RowValues<'_>,
        names: &[&str],
        row: usize,
        row_codes: &[u32],
        repair: &CodeRepair,
    ) -> Repair {
        let dicts = self.compensatory.dicts();
        let col = repair.col;
        Repair {
            at: CellRef::new(row, col),
            attribute: names[col].to_string(),
            from: values.cell(dicts, row, col, row_codes[col]).clone(),
            to: dicts[col].decode(repair.to_code).clone(),
            score_gain: repair.score_gain,
        }
    }

    /// Per-attribute `UC(value)` verdict for one code, using the
    /// pre-evaluated table and falling back to a direct check of the value
    /// for codes outside the model's dictionaries.
    #[inline]
    fn attr_ok<'v>(&self, col: usize, code: u32, value: impl FnOnce() -> &'v Value) -> bool {
        if let Some(flags) = self.attr_uc_ok.get(col) {
            if let Some(&ok) = flags.get(code as usize) {
                return ok;
            }
        }
        self.attribute_names.get(col).is_none_or(|name| self.constraints.check(name, value()))
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

    /// The [`ColumnPlan`] of one column of `schema`.
    fn column_plan(&self, schema: &Schema, col: usize) -> ColumnPlan {
        let mut context = Vec::new();
        if self.config.domain_pruning {
            context = self.dag.joint_set(col);
            if context.len() <= 1 {
                context = (0..schema.arity()).collect();
            }
        }
        ColumnPlan { rules: self.relevant_rules(schema, col), context }
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
    /// domain pruning (§6.2), which keeps the TF-IDF top-k of the column's
    /// pruning context, scored one context column at a time over the
    /// compensatory runs. The observed value's code stays in the list where
    /// enumeration meets it: the return value is its slot, or
    /// [`NOT_LISTED`] when the list does not hold it. Counts the run
    /// entries read.
    #[allow(clippy::too_many_arguments)]
    fn candidate_codes(
        &self,
        schema: &Schema,
        row_codes: &[u32],
        col: usize,
        anchor: Option<usize>,
        plan: &ColumnPlan,
        scratch: &mut CellScratch,
        work: &mut CleaningStats,
    ) -> u32 {
        let dict = &self.compensatory.dicts()[col];
        let rules = &plan.rules;
        let check_rules = self.config.use_constraints && !rules.is_empty();
        // Tuple rules are arbitrary value expressions: candidates are
        // substituted into `scratch.row`, which the caller filled with the
        // row's values (only slot `col` changes between candidates).
        let CellScratch { candidates: out, row: row_copy, scores, slots, .. } = scratch;
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
                let run = self.compensatory.cooccurring_codes(k, row_codes[k], col);
                work.run_entries_read += run.len();
                for &code in run {
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
            work.run_entries_read +=
                self.compensatory.tfidf_scores_codes(row_codes, col, out, &plan.context, slots, scores);
            let mut scored: Vec<(f64, u32)> = scores.iter().copied().zip(out.iter().copied()).collect();
            scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
            out.clear();
            out.extend(scored.into_iter().take(self.config.domain_top_k).map(|(_, c)| c));
        }

        out.iter().position(|&c| c == row_codes[col]).map_or(NOT_LISTED, |at| at as u32)
    }

    /// The Algorithm 1 score of one candidate code:
    /// `log BN[A_j](c) + log CS[A_j](c)`, evaluated entirely through the
    /// compiled (code-indexed) models. It is the one-candidate oracle:
    /// cleaning calls it only for an observed value its cell's candidate
    /// list does not hold (the compensatory term of the observed value
    /// carries the leave-one-out), and test builds compare every score of
    /// [`BCleanModel::score_item`] with it.
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

    /// Identical rows are scored once. Rows whose codes agree but whose
    /// values differ, as `0` and `-0` do, are scored apart.
    #[test]
    fn identical_rows_are_scored_once() {
        let data = dirty_dataset();
        let model = BClean::new(Variant::Basic.config()).with_constraints(constraints()).fit(&data);
        let result = model.clean(&data);
        assert_eq!(result.stats.rows_scored, 5, "10 rows in 5 groups");
        assert_eq!(result.stats.cells_examined, 30);

        let signed =
            dataset_from(&["n", "s"], &[vec!["0", "a"], vec!["0", "a"], vec!["1", "b"], vec!["1", "b"]]);
        let model = BClean::new(Variant::Basic.config()).fit(&signed);
        let zeros = dataset_from(&["n", "s"], &[vec!["0", "a"], vec!["-0", "a"], vec!["0", "a"]]);
        assert_eq!(model.clean(&zeros).stats.rows_scored, 2);
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
