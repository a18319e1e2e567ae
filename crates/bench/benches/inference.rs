//! Inference benchmarks: partitioned (Markov-blanket) scoring vs. whole-joint
//! scoring per candidate, compensatory-model construction, and the effect of
//! the pruning strategies on end-to-end cleaning — the paper's §6
//! optimisation ablations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use bclean_core::{BClean, BCleanConfig, CompensatoryModel, CompensatoryParams, ConstraintSet, Variant};
use bclean_datagen::BenchmarkDataset;
use bclean_eval::bclean_constraints;

fn bench_candidate_scoring(c: &mut Criterion) {
    let mut group = c.benchmark_group("candidate_scoring");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(900));
    let bench_data = BenchmarkDataset::Hospital.build_sized(500, 11);
    let constraints = bclean_constraints(BenchmarkDataset::Hospital);
    let model = BClean::new(Variant::PartitionedInference.config())
        .with_constraints(constraints.clone())
        .fit(&bench_data.dirty);
    let full_model =
        BClean::new(Variant::Basic.config()).with_constraints(constraints).fit(&bench_data.dirty);
    // Score every candidate of one cell repeatedly.
    group.bench_function("markov_blanket", |b| b.iter(|| model.score_candidates(&bench_data.dirty, 3, 4)));
    group.bench_function("full_joint", |b| b.iter(|| full_model.score_candidates(&bench_data.dirty, 3, 4)));
    group.finish();
}

fn bench_compensatory_model(c: &mut Criterion) {
    let mut group = c.benchmark_group("compensatory_model");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(900));
    group.sample_size(10);
    for rows in [300usize, 1000, 3000] {
        let data = BenchmarkDataset::Facilities.build_sized(rows, 13).dirty;
        let constraints = bclean_constraints(BenchmarkDataset::Facilities);
        group.bench_with_input(BenchmarkId::from_parameter(rows), &data, |b, d| {
            b.iter(|| CompensatoryModel::build(d, &constraints, CompensatoryParams::default()))
        });
    }
    group.finish();
}

fn bench_pruning_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("pruning_ablation");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(900));
    group.sample_size(10);
    let bench_data = BenchmarkDataset::Inpatient.build_sized(600, 19);
    let constraints = bclean_constraints(BenchmarkDataset::Inpatient);
    let variants: [(&str, BCleanConfig); 3] = [
        ("pi", Variant::PartitionedInference.config()),
        ("pi_tuple_pruning", BCleanConfig { tuple_pruning: true, ..Variant::PartitionedInference.config() }),
        ("pip", Variant::PartitionedInferencePruning.config()),
    ];
    for (name, config) in variants {
        let model = BClean::new(config).with_constraints(constraints.clone()).fit(&bench_data.dirty);
        group.bench_function(name, |b| b.iter(|| model.clean(&bench_data.dirty)));
    }
    group.finish();
}

fn bench_no_compensatory_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("compensatory_ablation");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(900));
    group.sample_size(10);
    let bench_data = BenchmarkDataset::Hospital.build_sized(400, 23);
    let constraints = bclean_constraints(BenchmarkDataset::Hospital);
    for (name, use_comp) in [("with_compensatory", true), ("without_compensatory", false)] {
        let config = BCleanConfig { use_compensatory: use_comp, ..Variant::PartitionedInference.config() };
        let model = BClean::new(config).with_constraints(constraints.clone()).fit(&bench_data.dirty);
        group.bench_function(name, |b| b.iter(|| model.clean(&bench_data.dirty)));
    }
    // Also benchmark a run with no user constraints at all (BClean-UC).
    let no_uc = BClean::new(Variant::NoUserConstraints.config())
        .with_constraints(ConstraintSet::new())
        .fit(&bench_data.dirty);
    group.bench_function("no_user_constraints", |b| b.iter(|| no_uc.clean(&bench_data.dirty)));
    group.finish();
}

criterion_group!(
    benches,
    bench_candidate_scoring,
    bench_compensatory_model,
    bench_pruning_ablation,
    bench_no_compensatory_ablation
);
criterion_main!(benches);
