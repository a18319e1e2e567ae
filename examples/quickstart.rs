//! Quickstart: clean a small dirty table with BClean.
//!
//! Run with: `cargo run --example quickstart`

use bclean::prelude::*;

fn main() {
    // The Customer-style table from the paper's introduction: ZipCode
    // determines State, InsuranceCode determines InsuranceType, and rows 2, 3
    // and 6 contain a typo, an inconsistency and a missing value.
    let dirty = dataset_from(
        &["Name", "City", "State", "ZipCode", "InsuranceCode", "InsuranceType"],
        &[
            vec!["Johnny.R", "sylacauga", "CA", "35150", "2567600035150", "Normal"],
            vec!["Johnny.R", "sylacauga", "CA", "35150", "2567600035150", "Normal"],
            vec!["Johnny.R", "sylacooga", "CA", "35150", "2567600035150", "Normal"],
            vec!["Johnny.R", "sylacauga", "KT", "35150", "2567600035150", "Normal"],
            vec!["Henry.P", "centre", "KT", "35960", "2560018035960", "Low"],
            vec!["Henry.P", "centre", "KT", "35960", "2560018035960", "Low"],
            vec!["Henry.P", "centre", "KT", "35960", "2560018035960", ""],
            vec!["Henry.P", "centre", "KT", "35960", "2560018035960", "Low"],
        ],
    );

    // Lightweight user constraints, Table 3 style: a five-digit ZIP code and
    // non-null insurance information.
    let mut constraints = ConstraintSet::new();
    constraints.add("ZipCode", UserConstraint::pattern("^[1-9][0-9]{4,4}$").unwrap());
    constraints.add("InsuranceType", UserConstraint::NotNull);
    constraints.add("State", UserConstraint::MaxLength(2));

    // Construction stage: learn the Bayesian network and the compensatory
    // model from the observed data, then run MAP inference per cell.
    let model = BClean::new(Variant::PartitionedInference.config()).with_constraints(constraints).fit(&dirty);

    println!("Learned network edges:");
    let names = model.attribute_names();
    for (from, to) in model.dag().edges() {
        println!("  {} -> {}", names[from], names[to]);
    }

    let result = model.clean(&dirty);
    println!("\nRepairs ({}):", result.repairs.len());
    for repair in &result.repairs {
        println!(
            "  row {} {:<14} {:?} -> {:?} (gain {:.2})",
            repair.at.row,
            repair.attribute,
            repair.from.to_string(),
            repair.to.to_string(),
            repair.score_gain
        );
    }

    println!("\nCleaned table:");
    println!("{}", bclean::data::to_csv(&result.cleaned));
}
