//! Structure-learning benchmarks: the FDX + graphical-lasso pipeline BClean
//! uses (paper §4), its similarity-sampling stage, and the graphical lasso
//! on its own.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use bclean_bayesnet::{learn_structure, similarity_samples, FdxConfig, StructureConfig};
use bclean_datagen::BenchmarkDataset;
use bclean_linalg::{correlation_matrix, graphical_lasso, GlassoConfig};

fn bench_structure_learning(c: &mut Criterion) {
    let mut group = c.benchmark_group("structure_learning");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(900));
    group.sample_size(10);
    for rows in [200usize, 500, 1000] {
        let data = BenchmarkDataset::Hospital.build_sized(rows, 3).dirty;
        group.bench_with_input(BenchmarkId::new("fdx_glasso", rows), &data, |b, d| {
            b.iter(|| learn_structure(d, StructureConfig::default()))
        });
        group.bench_with_input(BenchmarkId::new("similarity_sampling", rows), &data, |b, d| {
            b.iter(|| similarity_samples(d, FdxConfig::default()))
        });
    }
    group.finish();
}

fn bench_graphical_lasso(c: &mut Criterion) {
    let mut group = c.benchmark_group("graphical_lasso");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(900));
    for rows in [300usize, 1000] {
        let data = BenchmarkDataset::Inpatient.build_sized(rows, 5).dirty;
        let samples = similarity_samples(&data, FdxConfig::default()).expect("enough rows");
        let corr = correlation_matrix(&samples).expect("valid sample matrix");
        group.bench_with_input(BenchmarkId::from_parameter(rows), &corr, |b, c| {
            b.iter(|| graphical_lasso(c, GlassoConfig::default()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_structure_learning, bench_graphical_lasso);
criterion_main!(benches);
