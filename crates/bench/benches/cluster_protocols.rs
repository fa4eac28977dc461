//! Criterion micro-benchmarks: end-to-end protocol operations (mutex
//! acquisition, replicated reads/writes) over the simulated cluster, comparing
//! quorum systems whose probe complexity differs, and the workload engine
//! alone on pre-built session plans.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use probequorum::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(800))
}

fn bench_mutex(c: &mut Criterion) {
    let mut group = c.benchmark_group("protocols/mutex_acquire_release");

    let maj = Majority::new(101).unwrap();
    group.bench_function(BenchmarkId::new("Maj", 101), |b| {
        let cluster = Cluster::new(101, NetworkConfig::lan(), 1);
        let mut mutex = QuorumMutex::new(maj.clone(), cluster, ProbeMaj::new());
        b.iter(|| {
            let quorum = mutex.try_acquire(1).unwrap();
            mutex.release(1).unwrap();
            quorum.len()
        })
    });

    let wall = CrumblingWalls::triang(13).unwrap(); // 91 elements
    group.bench_function(BenchmarkId::new("Triang", wall.universe_size()), |b| {
        let cluster = Cluster::new(wall.universe_size(), NetworkConfig::lan(), 2);
        let mut mutex = QuorumMutex::new(wall.clone(), cluster, ProbeCw::new());
        b.iter(|| {
            let quorum = mutex.try_acquire(1).unwrap();
            mutex.release(1).unwrap();
            quorum.len()
        })
    });

    let tree = TreeQuorum::new(6).unwrap(); // 127 elements
    group.bench_function(BenchmarkId::new("Tree", tree.universe_size()), |b| {
        let cluster = Cluster::new(tree.universe_size(), NetworkConfig::lan(), 3);
        let mut mutex = QuorumMutex::new(tree.clone(), cluster, ProbeTree::new());
        b.iter(|| {
            let quorum = mutex.try_acquire(1).unwrap();
            mutex.release(1).unwrap();
            quorum.len()
        })
    });
    group.finish();
}

fn bench_register(c: &mut Criterion) {
    let mut group = c.benchmark_group("protocols/register_write_read");

    let hqs = Hqs::new(4).unwrap(); // 81 replicas
    group.bench_function(BenchmarkId::new("HQS", 81), |b| {
        let cluster = Cluster::new(81, NetworkConfig::lan(), 4);
        let mut register = ReplicatedRegister::new(hqs.clone(), cluster, ProbeHqs::new());
        b.iter(|| {
            register.write(b"payload".to_vec()).unwrap();
            register.read().unwrap().version
        })
    });

    let maj = Majority::new(81).unwrap();
    group.bench_function(BenchmarkId::new("Maj", 81), |b| {
        let cluster = Cluster::new(81, NetworkConfig::lan(), 5);
        let mut register = ReplicatedRegister::new(maj.clone(), cluster, ProbeMaj::new());
        b.iter(|| {
            register.write(b"payload".to_vec()).unwrap();
            register.read().unwrap().version
        })
    });
    group.finish();
}

fn bench_cluster_probe(c: &mut Criterion) {
    let mut group = c.benchmark_group("cluster/probe_for_quorum");
    let wall = CrumblingWalls::triang(20).unwrap(); // 210 elements
    group.bench_function("Triang(20)_with_30pct_failures", |b| {
        let mut cluster = Cluster::new(wall.universe_size(), NetworkConfig::lan(), 6);
        cluster.inject_iid_failures(0.3);
        b.iter(|| cluster.probe_for_quorum(&wall, &ProbeCw::new()).probes)
    });
    group.finish();
}

/// The discrete-event engine without the strategies: 500 Probe_Maj sessions
/// on Maj(1023) at p = 0.3, planned once outside the timed routine, so each
/// iteration times `run_plans` (plus one plan copy per session).
fn bench_workload_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("cluster/workload_engine");
    let maj = Majority::new(1023).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let plans: Vec<SessionPlan> = (0..500)
        .map(|_| {
            let coloring = Coloring::from_fn(1023, |_| {
                if rng.gen_bool(0.3) {
                    Color::Red
                } else {
                    Color::Green
                }
            });
            let run = run_strategy(&maj, &ProbeMaj::new(), &coloring, &mut rng);
            SessionPlan {
                colors: run.sequence.iter().map(|&e| coloring.color(e)).collect(),
                sequence: run.sequence,
                success: run.witness.is_green(),
            }
        })
        .collect();
    let spec = WorkloadSpec::new(1023).sessions(plans.len());
    group.bench_function("Maj(1023)_500_sessions_p0.3", |b| {
        b.iter(|| {
            spec.run_plans(8, |index, _, _| plans[index as usize].clone())
                .report
                .probes
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_mutex, bench_register, bench_cluster_probe, bench_workload_engine
}
criterion_main!(benches);
