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
/// iteration times `run_plans` (plus one plan copy per session). Beside the
/// default spec (the probe-sessions workload's), `fixed_service` replaces
/// the exponential service time by its mean, which prices the exponential
/// draw, and `5s_interarrival` spaces the sessions out so that one is in
/// flight at a time. Each case's probe count per run goes to stderr first.
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
    let cases = [
        ("Maj(1023)_500_sessions_p0.3", spec.clone()),
        (
            "Maj(1023)_500_sessions_p0.3_fixed_service",
            spec.clone()
                .service(Distribution::fixed(SimTime::from_micros(150))),
        ),
        (
            "Maj(1023)_500_sessions_p0.3_5s_interarrival",
            spec.arrivals(ArrivalProcess::OpenPoisson {
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
    group.finish();
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_workload_engine
}
criterion_main!(benches);
