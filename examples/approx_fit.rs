//! Budgeted (sketch-based) fitting vs the exact fit on a wide schema.
//!
//! ```text
//! cargo run --release --example approx_fit [ROWS]
//! ```
//!
//! Generates the 32-column wide-schema benchmark (`ROWS` rows, default
//! 10 000, 5% injected noise), fits it twice — once exactly and once under
//! the default [`FitBudget::Budgeted`] — and reports the fit-time speedup
//! together with the *repair agreement*: the Jaccard similarity of the two
//! models' repair sets. The budgeted fit samples rows for structure
//! learning and buckets its contingency tables through quantile sketches
//! and heavy-hitter summaries, while CPT counts and compensatory tallies
//! stay exact; at generous budgets the two models repair (nearly) the same
//! cells.

use std::time::Instant;

use bclean::datagen::build_wide;
use bclean::eval::repair_agreement;
use bclean::prelude::*;

fn main() {
    let rows: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(10_000);
    let bench = build_wide(rows, 20240817);
    println!(
        "wide-schema benchmark: {} rows x {} columns, {} injected errors",
        bench.dirty.num_rows(),
        bench.dirty.num_columns(),
        bench.num_errors()
    );

    // ── Exact fit (the default) ─────────────────────────────────────────
    let start = Instant::now();
    let exact = BClean::new(Variant::PartitionedInference.config()).fit(&bench.dirty);
    let exact_fit = start.elapsed().as_secs_f64();
    let exact_repairs = exact.clean(&bench.dirty).repairs;
    println!("exact fit:    {exact_fit:.3}s, {} repairs", exact_repairs.len());

    // ── Budgeted fit ────────────────────────────────────────────────────
    let budget = BudgetParams::default();
    let config = Variant::PartitionedInference.config().with_fit_budget(FitBudget::Budgeted(budget));
    let start = Instant::now();
    let budgeted = BClean::new(config).fit(&bench.dirty);
    let budgeted_fit = start.elapsed().as_secs_f64();
    let budgeted_repairs = budgeted.clean(&bench.dirty).repairs;
    println!(
        "budgeted fit: {budgeted_fit:.3}s, {} repairs \
         (sample_rows {}, sketch_k {}, heavy_hitters {})",
        budgeted_repairs.len(),
        budget.sample_rows,
        budget.sketch_k,
        budget.heavy_hitters
    );

    // ── Speedup and agreement ───────────────────────────────────────────
    let agreement = repair_agreement(&exact_repairs, &budgeted_repairs);
    println!(
        "speedup {:.2}x, repair agreement {:.1}%",
        exact_fit / budgeted_fit.max(1e-12),
        agreement * 100.0
    );

    // The same budget, refit on the same data, is bit-identical: every
    // sketch is seeded, so approximation never costs reproducibility.
    let again =
        BClean::new(Variant::PartitionedInference.config().with_fit_budget(FitBudget::Budgeted(budget)))
            .fit_artifact(&bench.dirty);
    let first =
        BClean::new(Variant::PartitionedInference.config().with_fit_budget(FitBudget::Budgeted(budget)))
            .fit_artifact(&bench.dirty);
    assert_eq!(first.to_bytes().unwrap(), again.to_bytes().unwrap());
    println!("budgeted fits are deterministic: repeated fit produced identical artifact bytes");
}
