//! Criterion benchmarks for the multi-word lane engine: lane-trials/second
//! of `batched_failure_probability_wide` at universe sizes 1k / 64k / 1M and
//! every supported lane-block width, plus the i.i.d. lane fill alone.
//!
//! The interesting reads are the width sweeps at fixed n (how much a wider
//! block buys per pass) and the n sweep at fixed width (how throughput holds
//! up as the universe outgrows cache).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use probequorum::core::lanes::LANE_WIDTHS;
use probequorum::prelude::*;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1500))
}

/// Grid, Tree and Maj at roughly the requested universe size (Grid is a
/// square, Tree a complete binary tree, Maj exact odd).
fn families(hint: usize) -> Vec<(&'static str, usize, probequorum::core::DynQuorumSystem)> {
    let side = (hint as f64).sqrt().round() as usize;
    let height = (hint as f64).log2().ceil() as usize;
    vec![
        (
            "Grid",
            side * side,
            Arc::new(Grid::new(side, side).unwrap()) as probequorum::core::DynQuorumSystem,
        ),
        (
            "Tree",
            (1 << (height + 1)) - 1,
            Arc::new(TreeQuorum::new(height).unwrap()),
        ),
        ("Maj", hint | 1, Arc::new(Majority::new(hint | 1).unwrap())),
    ]
}

/// Width sweep: 256 trials through the wide estimator at every supported
/// lane-block width. Per-iteration work is n × 256 lane-trials; divide to
/// get lane-trials/second.
fn bench_wide_estimator(c: &mut Criterion) {
    for (label, hint, trials) in [("1k", 1_024usize, 1_024usize), ("64k", 65_536, 256)] {
        let mut group = c.benchmark_group(format!("scale/wide_estimator_n{label}"));
        for (family, _, system) in families(hint) {
            for width in LANE_WIDTHS {
                let name = format!("{family}_w{width}");
                group.bench_function(BenchmarkId::new(name, trials), |b| {
                    let mut seed = 0u64;
                    b.iter(|| {
                        seed = seed.wrapping_add(1);
                        probequorum::sim::batched_failure_probability_wide(
                            &system, 0.25, trials, seed, width,
                        )
                        .mean
                    })
                });
            }
        }
        group.finish();
    }
}

/// One million elements: a single 64-trial word versus a full-width block
/// through the Grid evaluator. Kept to two cases so the group stays fast.
fn bench_million_elements(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale/wide_estimator_n1M");
    let grid: probequorum::core::DynQuorumSystem = Arc::new(Grid::new(1_000, 1_000).unwrap());
    for width in [1usize, 8] {
        let trials = 64 * width; // exactly one superblock per iteration
        group.bench_function(BenchmarkId::new(format!("Grid_w{width}"), trials), |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed = seed.wrapping_add(1);
                probequorum::sim::batched_failure_probability_wide(&grid, 0.25, trials, seed, width)
                    .mean
            })
        });
    }
    group.finish();
}

/// The i.i.d. lane fill feeding the estimators, per block width, at a lane
/// probability of ½ (one random word per lane word) and ¼ (two):
/// `FailureModel::sample_green_lanes`, which runs the block fill
/// (`bernoulli_lane_rows`) over its per-trial-word streams.
fn bench_lane_fill(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale/bernoulli_fill_n64k");
    let n = 65_536usize;
    for p in [0.5, 0.25] {
        let model = FailureModel::iid(1.0 - p);
        for width in LANE_WIDTHS {
            group.bench_function(BenchmarkId::new(format!("p{p}"), width), |b| {
                let mut rngs: Vec<TrialRng> = (0..width)
                    .map(|i| TrialRng::seed_from_u64(i as u64))
                    .collect();
                let mut out = vec![0u64; n * width];
                b.iter(|| {
                    model.sample_green_lanes(n, 0, &mut rngs, &mut out);
                    out[0]
                })
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_wide_estimator, bench_million_elements, bench_lane_fill
}
criterion_main!(benches);
