//! Criterion micro-benchmark: the workload engine alone on pre-built session
//! plans.

use criterion::{criterion_group, criterion_main, Criterion};
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

/// The discrete-event engine without the strategies: 500 Probe_Maj sessions
/// on Maj(1023) at p = 0.3, planned once outside the timed routine, so each
/// iteration times the engine (plus one plan copy per session). Beside the
/// default spec (the probe-sessions workload's), `fixed_service` replaces
/// the exponential service time by its mean, which prices the exponential
/// draw, and `5s_interarrival` spaces the sessions out so that one is in
/// flight at a time. Those three run latency-only plans through
/// `run_plans`; `lossy_retry_hedge` runs message-level plans through `run`:
/// every probe's fate drawn once on a network losing 5 % of messages under
/// three attempts and a 400 µs hedge, which times the engine's
/// failure-range path. Each case's probe count per run goes to stderr
/// first.
fn bench_workload_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("cluster/workload_engine");
    let maj = Majority::new(1023).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let mut fate_rng = StdRng::seed_from_u64(9);
    let network = NetworkModel::lossy(50_000);
    let lossy_policy =
        ProbePolicy::retry(3, SimTime::from_micros(100)).with_hedge(SimTime::from_micros(400));
    let mut plans = Vec::new();
    let mut net_plans = Vec::new();
    for _ in 0..500 {
        let coloring = Coloring::from_fn(1023, |_| {
            if rng.gen_bool(0.3) {
                Color::Red
            } else {
                Color::Green
            }
        });
        let run = run_strategy(&maj, &ProbeMaj::new(), &coloring, &mut rng);
        let colors: Vec<Color> = run.sequence.iter().map(|&e| coloring.color(e)).collect();
        net_plans.push(NetSessionPlan {
            probes: run
                .sequence
                .iter()
                .map(|&node| {
                    let alive = coloring.color(node) == Color::Green;
                    let fate = network.probe_fate(
                        node,
                        alive,
                        SimTime::ZERO,
                        &lossy_policy,
                        &mut fate_rng,
                    );
                    NetProbe {
                        node,
                        observed: fate.observed,
                        failures: fate.failures,
                    }
                })
                .collect(),
            success: run.witness.is_green(),
        });
        plans.push(SessionPlan {
            colors,
            sequence: run.sequence,
            success: run.witness.is_green(),
        });
    }
    let spec = WorkloadSpec::new(1023).sessions(plans.len());
    let cases = [
        ("Maj(1023)_500_sessions_p0.3", spec.clone()),
        (
            "Maj(1023)_500_sessions_p0.3_fixed_service",
            spec.clone()
                .service(Distribution::fixed(SimTime::from_micros(150))),
        ),
        (
            "Maj(1023)_500_sessions_p0.3_5s_interarrival",
            spec.clone().arrivals(ArrivalProcess::OpenPoisson {
                mean_interarrival: SimTime::from_millis(5_000),
            }),
        ),
    ];
    for (label, spec) in cases {
        let run = || {
            spec.run_plans(8, |index, _, _| plans[index as usize].clone())
                .report
                .probes
        };
        eprintln!("cluster/workload_engine/{label}: {} probes per run", run());
        group.bench_function(label, |b| b.iter(run));
    }
    let label = "Maj(1023)_500_sessions_p0.3_lossy_retry_hedge";
    let lossy = spec.network(network.clone()).policy(lossy_policy);
    let run = || {
        lossy
            .run(8, |index, _, _, _| net_plans[index as usize].clone())
            .report
            .probes
    };
    eprintln!("cluster/workload_engine/{label}: {} probes per run", run());
    group.bench_function(label, |b| b.iter(run));
    group.finish();
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_workload_engine
}
criterion_main!(benches);
