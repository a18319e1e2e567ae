//! Benches for the dictionary-encoded scoring engine.
//!
//! * `compensatory_build`: the code-indexed `CompensatoryModel::build`
//!   against a reimplementation of the pre-refactor `Value`-keyed Algorithm 2
//!   loop (which constructed — and hashed — every `(usize, Value, usize,
//!   Value)` pair key twice per tuple). This is the regression bench for the
//!   build-time fix: the compiled build must stay ahead of the naive loop.
//! * `clean_engines`: end-to-end `BCleanModel::clean` (compiled codes) vs
//!   `ReferenceModel::clean_reference` (the retained `Value` path) on a
//!   Hospital-scale workload; the same comparison feeds `BENCH_clean.json`
//!   via the experiments binary.

use std::collections::HashMap;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use bclean_core::{BClean, CompensatoryModel, CompensatoryParams, ConstraintSet, Variant};
use bclean_data::{Dataset, Value};
use bclean_datagen::BenchmarkDataset;
use bclean_eval::bclean_constraints;

/// The pre-refactor Algorithm 2 construction loop, kept verbatim (including
/// its redundant per-pair key clone) as the build-time baseline.
fn value_keyed_build(dataset: &Dataset, constraints: &ConstraintSet, params: CompensatoryParams) -> usize {
    type PairKey = (usize, Value, usize, Value);
    let m = dataset.num_columns();
    let mut corr: HashMap<PairKey, f64> = HashMap::new();
    let mut pair_counts: HashMap<PairKey, usize> = HashMap::new();
    let mut value_counts: Vec<HashMap<Value, usize>> = vec![HashMap::new(); m];
    for row in dataset.rows() {
        let conf = constraints.tuple_confidence(dataset.schema(), row, params.lambda);
        let delta = if conf >= params.tau { 1.0 } else { -params.beta };
        for i in 0..m {
            *value_counts[i].entry(row[i].clone()).or_insert(0) += 1;
            for j in 0..m {
                if i == j {
                    continue;
                }
                let key = (i, row[i].clone(), j, row[j].clone());
                *corr.entry(key.clone()).or_insert(0.0) += delta;
                *pair_counts.entry(key).or_insert(0) += 1;
            }
        }
    }
    corr.len() + pair_counts.len() + value_counts.len()
}

fn bench_compensatory_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("compensatory_build");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(900));
    group.sample_size(10);
    let bench = BenchmarkDataset::Hospital.build_sized(500, 7);
    let constraints = bclean_constraints(BenchmarkDataset::Hospital);
    let params = CompensatoryParams::default();
    group.bench_with_input(BenchmarkId::new("encoded", "Hospital500"), &bench, |b, data| {
        b.iter(|| CompensatoryModel::build(&data.dirty, &constraints, params))
    });
    group.bench_with_input(BenchmarkId::new("value_keyed", "Hospital500"), &bench, |b, data| {
        b.iter(|| value_keyed_build(&data.dirty, &constraints, params))
    });
    group.finish();
}

fn bench_clean_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("clean_engines");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(1200));
    group.sample_size(10);
    let bench = BenchmarkDataset::Hospital.build_sized(300, 7);
    let constraints = bclean_constraints(BenchmarkDataset::Hospital);
    for variant in [Variant::PartitionedInference, Variant::PartitionedInferencePruning] {
        let cleaner = BClean::new(variant.config().with_threads(1)).with_constraints(constraints.clone());
        let model = cleaner.fit(&bench.dirty);
        let reference = cleaner.fit_reference(&bench.dirty);
        group.bench_with_input(
            BenchmarkId::new(format!("{}-encoded", variant.name()), "Hospital300"),
            &bench,
            |b, data| b.iter(|| model.clean(&data.dirty)),
        );
        group.bench_with_input(
            BenchmarkId::new(format!("{}-reference", variant.name()), "Hospital300"),
            &bench,
            |b, data| b.iter(|| reference.clean_reference(&data.dirty)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_compensatory_build, bench_clean_engines);
criterion_main!(benches);
