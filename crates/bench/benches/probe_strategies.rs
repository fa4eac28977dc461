//! Criterion micro-benchmarks: wall-clock cost of every probing strategy on
//! every family, at p = 1/2, for growing universe sizes.
//!
//! These complement the probe-count reproduction (`reproduce` binary) by
//! answering the systems question a library user cares about: how much CPU
//! does locating a live quorum actually take?
//!
//! `probe/session_p0.3` times the probe-sessions benchmark workload's eval
//! layer alone: its four systems and strategies at p = 0.3.

use criterion::{criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion};
use probequorum::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(800))
}

fn bench_majority(c: &mut Criterion) {
    let mut group = c.benchmark_group("probe/maj");
    for &n in &[101usize, 401, 1001] {
        let maj = Majority::new(n).unwrap();
        let model = FailureModel::iid(0.5);
        group.bench_with_input(BenchmarkId::new("Probe_Maj", n), &n, |b, _| {
            let mut rng = StdRng::seed_from_u64(1);
            b.iter(|| {
                let coloring = model.sample(n, &mut rng);
                run_strategy(&maj, &ProbeMaj::new(), &coloring, &mut rng).probes
            })
        });
        group.bench_with_input(BenchmarkId::new("R_Probe_Maj", n), &n, |b, _| {
            let mut rng = StdRng::seed_from_u64(2);
            b.iter(|| {
                let coloring = model.sample(n, &mut rng);
                run_strategy(&maj, &RProbeMaj::new(), &coloring, &mut rng).probes
            })
        });
    }
    group.finish();
}

fn bench_crumbling_walls(c: &mut Criterion) {
    let mut group = c.benchmark_group("probe/cw");
    for &rows in &[10usize, 20, 40] {
        let wall = CrumblingWalls::triang(rows).unwrap();
        let n = wall.universe_size();
        let model = FailureModel::iid(0.5);
        group.bench_with_input(BenchmarkId::new("Probe_CW", n), &n, |b, _| {
            let mut rng = StdRng::seed_from_u64(3);
            b.iter(|| {
                let coloring = model.sample(n, &mut rng);
                run_strategy(&wall, &ProbeCw::new(), &coloring, &mut rng).probes
            })
        });
        group.bench_with_input(BenchmarkId::new("R_Probe_CW", n), &n, |b, _| {
            let mut rng = StdRng::seed_from_u64(4);
            b.iter(|| {
                let coloring = model.sample(n, &mut rng);
                run_strategy(&wall, &RProbeCw::new(), &coloring, &mut rng).probes
            })
        });
    }
    group.finish();
}

fn bench_tree(c: &mut Criterion) {
    let mut group = c.benchmark_group("probe/tree");
    for &height in &[6usize, 8, 10] {
        let tree = TreeQuorum::new(height).unwrap();
        let n = tree.universe_size();
        let model = FailureModel::iid(0.5);
        group.bench_with_input(BenchmarkId::new("Probe_Tree", n), &n, |b, _| {
            let mut rng = StdRng::seed_from_u64(5);
            b.iter(|| {
                let coloring = model.sample(n, &mut rng);
                run_strategy(&tree, &ProbeTree::new(), &coloring, &mut rng).probes
            })
        });
        group.bench_with_input(BenchmarkId::new("R_Probe_Tree", n), &n, |b, _| {
            let mut rng = StdRng::seed_from_u64(6);
            b.iter(|| {
                let coloring = model.sample(n, &mut rng);
                run_strategy(&tree, &RProbeTree::new(), &coloring, &mut rng).probes
            })
        });
    }
    group.finish();
}

fn bench_hqs(c: &mut Criterion) {
    let mut group = c.benchmark_group("probe/hqs");
    for &height in &[4usize, 5, 6] {
        let hqs = Hqs::new(height).unwrap();
        let n = hqs.universe_size();
        let model = FailureModel::iid(0.5);
        group.bench_with_input(BenchmarkId::new("Probe_HQS", n), &n, |b, _| {
            let mut rng = StdRng::seed_from_u64(7);
            b.iter(|| {
                let coloring = model.sample(n, &mut rng);
                run_strategy(&hqs, &ProbeHqs::new(), &coloring, &mut rng).probes
            })
        });
        group.bench_with_input(BenchmarkId::new("R_Probe_HQS", n), &n, |b, _| {
            let mut rng = StdRng::seed_from_u64(8);
            b.iter(|| {
                let coloring = model.sample(n, &mut rng);
                run_strategy(&hqs, &RProbeHqs::new(), &coloring, &mut rng).probes
            })
        });
        group.bench_with_input(BenchmarkId::new("IR_Probe_HQS", n), &n, |b, _| {
            let mut rng = StdRng::seed_from_u64(9);
            b.iter(|| {
                let coloring = model.sample(n, &mut rng);
                run_strategy(&hqs, &IrProbeHqs::new(), &coloring, &mut rng).probes
            })
        });
    }
    group.finish();
}

/// One `run_strategy` call per iteration, cycling through 4 000 colorings
/// pre-sampled at p = 0.3, so the time per iteration is the time per
/// session. The mean probe count per session goes to stderr first.
fn session<S: QuorumSystem, T: ProbeStrategy<S>>(
    group: &mut BenchmarkGroup<'_>,
    label: &str,
    system: &S,
    strategy: &T,
) {
    let model = FailureModel::iid(0.3);
    let mut rng = StdRng::seed_from_u64(11);
    let colorings: Vec<Coloring> = (0..4_000)
        .map(|_| model.sample(system.universe_size(), &mut rng))
        .collect();
    let probes: usize = colorings
        .iter()
        .map(|coloring| run_strategy(system, strategy, coloring, &mut rng).probes)
        .sum();
    eprintln!(
        "probe/session_p0.3/{label}: {:.1} probes per session",
        probes as f64 / colorings.len() as f64
    );
    let mut next = colorings.iter().cycle();
    group.bench_function(label, |b| {
        b.iter(|| run_strategy(system, strategy, next.next().unwrap(), &mut rng).probes)
    });
}

/// The probe-sessions workload's systems and strategies (Maj1023, Tree9,
/// Triang44 and HQS6) without the engine.
fn bench_sessions(c: &mut Criterion) {
    let mut group = c.benchmark_group("probe/session_p0.3");
    let maj = Majority::new(1023).unwrap();
    session(&mut group, "Probe_Maj/Maj1023", &maj, &ProbeMaj::new());
    let tree = TreeQuorum::new(9).unwrap();
    session(&mut group, "Probe_Tree/Tree9", &tree, &ProbeTree::new());
    let triang = CrumblingWalls::triang(44).unwrap();
    session(&mut group, "Probe_CW/Triang44", &triang, &ProbeCw::new());
    let hqs = Hqs::new(6).unwrap();
    session(&mut group, "Probe_HQS/HQS6", &hqs, &ProbeHqs::new());
    group.finish();
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_majority, bench_crumbling_walls, bench_tree, bench_hqs, bench_sessions
}
criterion_main!(benches);
