//! User interaction with the Bayesian network (paper §4, Figures 2(f)–(h)):
//! inspect the automatically learned structure, remove spurious edges, add
//! the dependencies a domain expert knows about, and compare cleaning quality
//! before and after — a miniature of §7.3.2.
//!
//! Run with: `cargo run --release --example network_editing`

use bclean::eval::{bclean_constraints, evaluate};
use bclean::prelude::*;

fn main() {
    let bench = BenchmarkDataset::Flights.build_sized(1000, 21);
    let constraints = bclean_constraints(BenchmarkDataset::Flights);

    // Automatic construction.
    let mut model =
        BClean::new(Variant::PartitionedInference.config()).with_constraints(constraints).fit(&bench.dirty);

    let names: Vec<String> = model.attribute_names().to_vec();
    println!("Automatically learned network:");
    for (from, to) in model.dag().edges() {
        println!("  {} -> {}", names[from], names[to]);
    }
    let auto = model.clean(&bench.dirty);
    let auto_metrics = evaluate(&bench.dirty, &auto.cleaned, &bench.clean).expect("shapes match");
    println!(
        "Automatic network:     precision={:.3} recall={:.3} F1={:.3}",
        auto_metrics.precision, auto_metrics.recall, auto_metrics.f1
    );

    // The user knows the real dependency structure: the flight identifier
    // determines all four time attributes. Remove everything else and add it.
    let schema = bench.dirty.schema();
    let flight = schema.index_of("flight").expect("flight attribute exists");
    let mut edits: Vec<NetworkEdit> =
        model.dag().edges().into_iter().map(|(from, to)| NetworkEdit::RemoveEdge { from, to }).collect();
    for attr in ["sched_dep_time", "act_dep_time", "sched_arr_time", "act_arr_time"] {
        edits.push(NetworkEdit::AddEdge { from: flight, to: schema.index_of(attr).unwrap() });
    }
    model.edit_network(&bench.dirty, edits).expect("edits are valid");

    println!("\nUser-adjusted network:");
    for (from, to) in model.dag().edges() {
        println!("  {} -> {}", names[from], names[to]);
    }
    let edited = model.clean(&bench.dirty);
    let edited_metrics = evaluate(&bench.dirty, &edited.cleaned, &bench.clean).expect("shapes match");
    println!(
        "User-adjusted network: precision={:.3} recall={:.3} F1={:.3}",
        edited_metrics.precision, edited_metrics.recall, edited_metrics.f1
    );
}
