//! Criterion micro-benchmarks: the exponential-time exact solver under its
//! three laws (optimal `PC`, optimal `PPC_p`, Yao lower bounds) on small
//! instances — these bound how far the exact machinery scales.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use probequorum::prelude::*;
use probequorum::probe::exact::{optimal_cost, Law};
use std::time::Duration;

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1000))
}

fn bench_exact_expected(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact/optimal_expected");
    for &n in &[7usize, 9, 11] {
        let maj = Majority::new(n).unwrap();
        group.bench_with_input(BenchmarkId::new("Maj", n), &n, |b, _| {
            b.iter(|| optimal_cost(&maj, Law::Iid(0.5)).unwrap())
        });
    }
    let hqs = Hqs::new(2).unwrap();
    group.bench_function("HQS(h=2)", |b| {
        b.iter(|| optimal_cost(&hqs, Law::Iid(0.5)).unwrap())
    });
    let tree = TreeQuorum::new(2).unwrap();
    group.bench_function("Tree(h=2)", |b| {
        b.iter(|| optimal_cost(&tree, Law::Iid(0.5)).unwrap())
    });
    group.finish();
}

fn bench_exact_worst_case(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact/optimal_worst_case");
    for &n in &[7usize, 9, 11] {
        let maj = Majority::new(n).unwrap();
        group.bench_with_input(BenchmarkId::new("Maj", n), &n, |b, _| {
            b.iter(|| optimal_cost(&maj, Law::Adversary).unwrap())
        });
    }
    let wall = CrumblingWalls::new(vec![1, 3, 4]).unwrap();
    group.bench_function("CW(1,3,4)", |b| {
        b.iter(|| optimal_cost(&wall, Law::Adversary).unwrap())
    });
    group.finish();
}

fn bench_yao(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact/yao_lower_bound");
    for &n in &[5usize, 7, 9] {
        let maj = Majority::new(n).unwrap();
        let d = InputDistribution::majority_hard(&maj);
        group.bench_with_input(BenchmarkId::new("Maj", n), &n, |b, _| {
            b.iter(|| optimal_cost(&maj, Law::Support(&d)).unwrap())
        });
    }
    let tree = TreeQuorum::new(2).unwrap();
    let d = InputDistribution::tree_hard(&tree);
    group.bench_function("Tree(h=2)", |b| {
        b.iter(|| optimal_cost(&tree, Law::Support(&d)).unwrap())
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_exact_expected, bench_exact_worst_case, bench_yao
}
criterion_main!(benches);
