//! Criterion micro-benchmarks: cost of evaluating the characteristic function
//! (`contains_quorum`) and of computing availability for every construction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
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

fn random_set(n: usize, seed: u64) -> ElementSet {
    let model = FailureModel::iid(0.5);
    let mut rng = StdRng::seed_from_u64(seed);
    model.sample(n, &mut rng).green_set()
}

fn bench_contains_quorum(c: &mut Criterion) {
    let mut group = c.benchmark_group("systems/contains_quorum");
    let maj = Majority::new(1001).unwrap();
    let set = random_set(1001, 1);
    group.bench_function(BenchmarkId::new("Maj", 1001), |b| {
        b.iter(|| maj.contains_quorum(&set))
    });

    let wall = CrumblingWalls::triang(45).unwrap(); // 1035 elements
    let set = random_set(wall.universe_size(), 2);
    group.bench_function(BenchmarkId::new("Triang", wall.universe_size()), |b| {
        b.iter(|| wall.contains_quorum(&set))
    });

    let tree = TreeQuorum::new(9).unwrap(); // 1023 elements
    let set = random_set(tree.universe_size(), 3);
    group.bench_function(BenchmarkId::new("Tree", tree.universe_size()), |b| {
        b.iter(|| tree.contains_quorum(&set))
    });

    let hqs = Hqs::new(6).unwrap(); // 729 elements
    let set = random_set(hqs.universe_size(), 4);
    group.bench_function(BenchmarkId::new("HQS", hqs.universe_size()), |b| {
        b.iter(|| hqs.contains_quorum(&set))
    });

    let grid = Grid::new(32, 32).unwrap();
    let set = random_set(1024, 5);
    group.bench_function(BenchmarkId::new("Grid", 1024), |b| {
        b.iter(|| grid.contains_quorum(&set))
    });
    group.finish();
}

fn bench_availability(c: &mut Criterion) {
    let mut group = c.benchmark_group("systems/availability");
    for &n in &[11usize, 15, 19] {
        let maj = Majority::new(n).unwrap();
        group.bench_with_input(BenchmarkId::new("exact_enumeration", n), &n, |b, _| {
            b.iter(|| exact_failure_probability(&maj, 0.3).unwrap())
        });
    }
    let maj = Majority::new(501).unwrap();
    group.bench_function("monte_carlo_n=501", |b| {
        let mut rng = StdRng::seed_from_u64(11);
        b.iter(|| {
            probequorum::analysis::availability::monte_carlo_failure_probability(
                &maj, 0.3, 200, &mut rng,
            )
            .unwrap()
        })
    });
    group.finish();
}

fn bench_enumeration(c: &mut Criterion) {
    let mut group = c.benchmark_group("systems/enumerate_quorums");
    let wheel = Wheel::new(1000).unwrap();
    group.bench_function("Wheel(1000)", |b| {
        b.iter(|| wheel.enumerate_quorums().unwrap().len())
    });
    let wall = CrumblingWalls::new(vec![1, 4, 4, 4, 4]).unwrap();
    group.bench_function("CW(1,4,4,4,4)", |b| {
        b.iter(|| wall.enumerate_quorums().unwrap().len())
    });
    let maj = Majority::new(17).unwrap();
    group.bench_function("Maj(17)", |b| {
        b.iter(|| maj.enumerate_quorums().unwrap().len())
    });
    group.finish();
}

fn bench_batched_availability(c: &mut Criterion) {
    // The acceptance hot path: iid availability at n ≈ 1024, scalar
    // one-coloring-per-trial versus 64-trials-per-word-pass lanes. The
    // compiled `Compose` twins run beside their native families.
    let mut group = c.benchmark_group("availability/iid_n1024");
    let systems: Vec<(&str, probequorum::core::DynQuorumSystem)> = vec![
        ("Maj", std::sync::Arc::new(Majority::new(1025).unwrap())),
        ("Tree", std::sync::Arc::new(TreeQuorum::new(9).unwrap())),
        ("TreeC", SystemSpec::tree_as_compose(9).build().unwrap()),
        ("Grid", std::sync::Arc::new(Grid::new(32, 32).unwrap())),
        (
            "GridC",
            SystemSpec::grid_as_compose(32, 32).build().unwrap(),
        ),
        ("OrgMaj", SystemSpec::org_majority(31, 33).build().unwrap()),
    ];
    for (name, system) in &systems {
        group.bench_function(BenchmarkId::new("scalar_200_trials", *name), |b| {
            let mut rng = StdRng::seed_from_u64(17);
            b.iter(|| {
                probequorum::analysis::availability::monte_carlo_failure_probability(
                    system, 0.3, 200, &mut rng,
                )
                .unwrap()
            })
        });
        group.bench_function(BenchmarkId::new("batched_200_trials", *name), |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed = seed.wrapping_add(1);
                probequorum::sim::batched_failure_probability(system, 0.3, 200, seed).mean
            })
        });
    }
    group.finish();
}

fn bench_engine_probes(c: &mut Criterion) {
    // Expected-probes through the chunked engine: one plan cell at n = 1025.
    use probequorum::sim::eval::{erase_system, typed_strategy, ColoringSource, EvalPlan};
    let mut group = c.benchmark_group("engine/expected_probes_n1024");
    let maj = erase_system(Majority::new(1025).unwrap());
    let probe_maj = typed_strategy::<Majority, _>(ProbeMaj::new());
    group.bench_function("Maj_iid0.3_256_trials", |b| {
        let engine = probequorum::sim::EvalEngine::new();
        b.iter(|| {
            let mut plan = EvalPlan::new(3).trials(256);
            plan.probe(&maj, &probe_maj, ColoringSource::iid(0.3));
            engine.run(&plan).cells[0].estimate.mean
        })
    });
    group.finish();
}

fn bench_failure_sampling(c: &mut Criterion) {
    // The engine hot path: allocation-free resampling into one scratch
    // coloring, across every failure-model flavour.
    let mut group = c.benchmark_group("failure/sample_into");
    let n = 1024usize;
    let models = [
        ("iid", FailureModel::iid(0.3)),
        ("exact-reds", FailureModel::exact_red_count(n / 2)),
        (
            "hetero",
            FailureModel::heterogeneous((0..n).map(|e| 0.1 + 0.3 * (e % 2) as f64).collect()),
        ),
        ("zoned", FailureModel::zoned_correlated(32, 0.3, 0.5)),
        ("churn", FailureModel::churn(n, 0.05, 0.15, 256, 1)),
    ];
    for (name, model) in models {
        group.bench_function(BenchmarkId::new(name, n), |b| {
            let mut rng = StdRng::seed_from_u64(7);
            let mut scratch = Coloring::all_green(0);
            let mut trial = 0u64;
            b.iter(|| {
                model.sample_into(n, trial, &mut rng, &mut scratch);
                trial = trial.wrapping_add(1);
                scratch.red_count()
            })
        });
    }
    group.finish();
}

fn bench_churn_walk(c: &mut Criterion) {
    // The churn walk alone: 4 096 `ChurnWalker::step` calls per iteration,
    // restarting the walk at its horizon. Sparse rates rank their hits
    // through the trajectory's index; a dense direction visits every word.
    let mut group = c.benchmark_group("churn/walk_step");
    for n in [4096usize, 65_536] {
        for (label, fail, repair) in [
            ("sparse", 1.0 / 4096.0, 1.0 / 64.0),
            ("mixed", 0.01, 0.5),
            ("dense", 0.2, 0.6),
        ] {
            let trajectory = ChurnTrajectory::generate(n, fail, repair, 1 << 20, 1);
            let mut walker = trajectory.walk();
            group.bench_function(BenchmarkId::new(label, n), |b| {
                b.iter(|| {
                    let mut flipped_words = 0;
                    for _ in 0..4096 {
                        if walker.remaining() == 0 {
                            walker = trajectory.walk();
                        }
                        let (_, delta) = walker.step().expect("the walk has steps left");
                        flipped_words += delta.entries().len();
                    }
                    flipped_words
                })
            });
        }
    }
    group.finish();
}

fn bench_delta_update(c: &mut Criterion) {
    // `DeltaEvaluator::update` alone over a pre-materialised 2 048-step walk
    // at (2⁻¹², 2⁻⁶), one update per step. A delta is its own inverse, so
    // every other iteration replays the walk backward and no iteration pays
    // for a `reset`. The natives run beside their compiled `Compose` twins;
    // stderr gives each walk's flip count, for the time per flip.
    const STEPS: usize = 2048;
    let mut group = c.benchmark_group("churn/delta_update");
    let systems = [
        ("Tree12", SystemSpec::Tree { height: 12 }),
        ("TreeC12", SystemSpec::tree_as_compose(12)),
        ("HQS8", SystemSpec::Hqs { height: 8 }),
        ("HQSC8", SystemSpec::hqs_as_compose(8)),
        ("Grid64x64", SystemSpec::Grid { rows: 64, cols: 64 }),
        ("GridC64x64", SystemSpec::grid_as_compose(64, 64)),
        ("Maj4097", SystemSpec::Majority { n: 4097 }),
    ];
    for (name, spec) in systems {
        let system = spec.build().unwrap();
        let n = system.universe_size();
        let trajectory = ChurnTrajectory::generate(n, 1.0 / 4096.0, 1.0 / 64.0, STEPS + 1, 1);
        let mut walker = trajectory.walk();
        let mut steps = Vec::with_capacity(STEPS + 1);
        while let Some((coloring, delta)) = walker.step() {
            steps.push((coloring.clone(), delta.clone()));
        }
        let flips: usize = steps.iter().map(|(_, delta)| delta.flip_count()).sum();
        eprintln!("churn/delta_update/{name}: {flips} flips per walk");
        let mut evaluator = delta_evaluator_for(&system);
        evaluator.reset(&steps[0].0);
        let mut forward = true;
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                let mut up = 0usize;
                for k in 1..=STEPS {
                    let (post, delta) = if forward {
                        (&steps[k].0, &steps[k].1)
                    } else {
                        (&steps[STEPS - k].0, &steps[STEPS + 1 - k].1)
                    };
                    up += usize::from(evaluator.update(post, delta));
                }
                forward = !forward;
                up
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_contains_quorum, bench_availability, bench_batched_availability, bench_engine_probes, bench_enumeration, bench_failure_sampling, bench_churn_walk, bench_delta_update
}
criterion_main!(benches);
