//! Equivalence guard for the interactive network editor (paper §4's user
//! interaction step): on the Hospital fixture, fitting a model, editing its
//! structure with `BCleanModel::edit_network` (dropping some learned edges
//! and adding one) and cleaning the training data must be byte-identical —
//! repairs, cleaned dataset and `CleaningStats` counters — to fitting the
//! edited structure directly with `BClean::fit_with_structure`, for every
//! paper variant and for 1 and 2 worker threads.

use bclean::eval::bclean_constraints;
use bclean::prelude::*;

const ROWS: usize = 160;
const SEED: u64 = 20240817;

/// The edits under test: remove every other learned edge, then add the
/// first absent edge (row-major over node pairs) that keeps the graph
/// acyclic and was not just removed. Returns the edits together with the
/// structure they produce.
fn edits_for(dag: &Dag) -> (Vec<NetworkEdit>, Dag) {
    let mut edited = dag.clone();
    let mut edits = Vec::new();
    let removed: Vec<(usize, usize)> = dag.edges().into_iter().step_by(2).collect();
    for &(from, to) in &removed {
        edited.remove_edge(from, to).expect("learned edge exists");
        edits.push(NetworkEdit::RemoveEdge { from, to });
    }
    let n = dag.num_nodes();
    let added = (0..n)
        .flat_map(|from| (0..n).map(move |to| (from, to)))
        .filter(|&(from, to)| from != to && !edited.has_edge(from, to) && !removed.contains(&(from, to)))
        .find(|&(from, to)| edited.clone().add_edge(from, to).is_ok())
        .expect("some edge can be added without a cycle");
    edited.add_edge(added.0, added.1).expect("edge was checked to keep the graph acyclic");
    edits.push(NetworkEdit::AddEdge { from: added.0, to: added.1 });
    (edits, edited)
}

#[test]
fn edit_network_matches_fit_with_structure_for_every_variant() {
    let bench = BenchmarkDataset::Hospital.build_sized(ROWS, SEED);
    let train = &bench.dirty;
    let constraints = bclean_constraints(BenchmarkDataset::Hospital);
    let mut total_repairs = 0usize;
    let mut edits_that_mattered = 0usize;
    for variant in Variant::all() {
        for threads in [1usize, 2] {
            let cleaner =
                BClean::new(variant.config().with_threads(threads)).with_constraints(constraints.clone());
            let learned = cleaner.fit_artifact(train).dag().clone();
            assert!(learned.num_edges() >= 2, "the fixture must learn edges to remove");
            let (edits, edited_dag) = edits_for(&learned);

            let mut edited = cleaner.fit(train);
            let unedited = edited.clean(train);
            edited.edit_network(train, edits).expect("edits are valid");
            let refit = cleaner.fit_with_structure(train, edited_dag);
            assert_eq!(edited.dag(), refit.dag(), "edited structure: variant {variant:?}");

            let run = edited.clean(train);
            let expected = refit.clean(train);
            assert_eq!(
                run.repairs, expected.repairs,
                "repairs diverged: variant {variant:?} threads {threads}"
            );
            assert_eq!(run.cleaned, expected.cleaned, "cleaned data diverged: variant {variant:?}");
            assert_eq!(run.stats.cells_examined, expected.stats.cells_examined);
            assert_eq!(run.stats.cells_skipped, expected.stats.cells_skipped);
            assert_eq!(run.stats.candidates_evaluated, expected.stats.candidates_evaluated);
            assert_eq!(run.stats.repairs, expected.stats.repairs);
            total_repairs += run.repairs.len();
            if unedited.repairs != run.repairs
                || unedited.stats.candidates_evaluated != run.stats.candidates_evaluated
            {
                edits_that_mattered += 1;
            }
        }
    }
    assert!(total_repairs > 0, "the fixture must exercise actual repairs");
    assert!(edits_that_mattered > 0, "the edits must change what cleaning does");
}
