//! `churn-delta`: streaming churn walks re-evaluated incrementally.
//!
//! Each system owns a `ChurnTrajectory` and walks it with `ChurnWalker::step`
//! (`failure`), feeding every `(coloring, delta)` pair to its
//! `delta_evaluator_for` evaluator (`eval`, the `delta` layer) and folding
//! the verdicts into a time-average unavailability (`stats`). Each
//! evaluator runs a whole walk incrementally; a walk that reaches the
//! horizon restarts from the baseline with a from-scratch `reset`
//! (`engine`). The last step of every chunk is checked against a
//! from-scratch `has_green_quorum`, outside the timed region.
//!
//! At the workload's low churn Tree, Majority and the compiled tree are
//! always up, so those checks would pass with a constant evaluator. Each run
//! therefore also walks, untimed, a fast-mixing trajectory per system whose
//! red fraction is the system's balanced p (`F_p = ½`), and checks every step
//! of it, and that both verdicts occur.

use std::time::{Duration, Instant};

use quorum_analysis::RunningStats;
use quorum_core::delta::{delta_evaluator_for, DeltaEvaluator};
use quorum_core::{DynQuorumSystem, QuorumSystem};
use quorum_sim::{ChurnTrajectory, ChurnWalker};
use quorum_systems::SystemSpec;

use crate::reference::Exact;
use crate::{call_seed, measure, Checks, Clock, Detail, Layer, Outcome, Round, SetupTimer};

/// Steps of each untimed check walk.
const CHECK_STEPS: usize = 1024;

/// Per-step repair probability of the check walks: the chain forgets its
/// state within a few dozen steps.
const CHECK_REPAIR: f64 = 1.0 / 8.0;

/// A churn workload: every round advances each system's walk by `chunk`
/// steps.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Per-step fail probability of a live element.
    pub fail: f64,
    /// Per-step repair probability of a failed element.
    pub repair: f64,
    /// Steps in one walk of a trajectory.
    pub horizon: usize,
    /// Steps per system per round; a multiple of 64.
    pub chunk: usize,
    /// The systems, in round order, with the exact `F_p` that gives their
    /// check walks' red fraction.
    pub systems: Vec<(&'static str, SystemSpec, Exact)>,
}

/// `churn-delta`: 10⁶-step walks at n ≈ 4096–8192, 2–4 flips per step.
pub fn full() -> ChurnConfig {
    ChurnConfig {
        fail: 1.0 / 4096.0,
        repair: 1.0 / 64.0,
        horizon: 1_000_000,
        chunk: 4096,
        systems: vec![
            ("Tree12", SystemSpec::Tree { height: 12 }, Exact::Tree(12)),
            (
                "Grid64x64",
                SystemSpec::Grid { rows: 64, cols: 64 },
                Exact::Grid(64, 64),
            ),
            (
                "Maj4097",
                SystemSpec::Majority { n: 4097 },
                Exact::Majority(4097),
            ),
            ("TreeC12", SystemSpec::tree_as_compose(12), Exact::Tree(12)),
        ],
    }
}

/// One system's walk and its traced tallies.
struct Stream<'t> {
    label: &'static str,
    system: DynQuorumSystem,
    trajectory: &'t ChurnTrajectory,
    walker: ChurnWalker<'t>,
    evaluator: Box<dyn DeltaEvaluator + Send>,
    stats: RunningStats,
    traced_updates: u64,
    flips: u64,
    update_ns: u64,
}

impl Stream<'_> {
    /// Advances the walk by `steps` (a multiple of 64) and returns the time
    /// it took; the final verdict is checked after the clock stops.
    fn advance(&mut self, steps: usize, clock: &mut Clock, checks: &mut Checks) -> Duration {
        let started = Instant::now();
        let mut unavailable = 0u64;
        for k in 0..steps {
            if self.walker.remaining() == 0 {
                clock.span(Layer::Engine, || self.walker = self.trajectory.walk());
            }
            let fresh = self.walker.position().is_none();
            let span = clock.start();
            let (coloring, delta) = self.walker.step().expect("the walker has steps left");
            clock.stop(Layer::Failure, span);
            let verdict = if fresh {
                clock.span(Layer::Engine, || self.evaluator.reset(coloring))
            } else {
                let before = clock.ns(Layer::Eval);
                let verdict = clock.span(Layer::Eval, || self.evaluator.update(coloring, delta));
                if clock.enabled() {
                    self.update_ns += clock.ns(Layer::Eval) - before;
                    self.flips += delta.flip_count() as u64;
                    self.traced_updates += 1;
                }
                verdict
            };
            unavailable |= u64::from(!verdict) << (k % 64);
            if k % 64 == 63 {
                clock.span(Layer::Stats, || {
                    self.stats.push_indicator_lanes(&[unavailable], 64)
                });
                unavailable = 0;
            }
            if k + 1 == steps {
                let timed = started.elapsed();
                let expected = self.system.has_green_quorum(coloring);
                checks.record(verdict == expected, || {
                    format!(
                        "{} step {:?}: delta verdict {verdict}, from scratch {expected}",
                        self.label,
                        self.walker.position()
                    )
                });
                return timed;
            }
        }
        started.elapsed()
    }
}

/// Walks a [`CHECK_STEPS`]-step trajectory of `system` whose red fraction is
/// `exact`'s balanced p with a fresh delta evaluator, checking every verdict
/// against `has_green_quorum` and that the walk saw both verdicts.
fn check_walk(label: &str, system: &DynQuorumSystem, exact: Exact, seed: u64, checks: &mut Checks) {
    let p = exact.balanced_p();
    let fail = CHECK_REPAIR * p / (1.0 - p);
    let trajectory = ChurnTrajectory::generate(
        system.universe_size(),
        fail,
        CHECK_REPAIR,
        CHECK_STEPS,
        seed,
    );
    let mut evaluator = delta_evaluator_for(system);
    let mut walker = trajectory.walk();
    let mut seen = [false; 2];
    for step in 0..CHECK_STEPS {
        let (coloring, delta) = walker.step().expect("the check walk has steps left");
        let verdict = if step == 0 {
            evaluator.reset(coloring)
        } else {
            evaluator.update(coloring, delta)
        };
        let expected = system.has_green_quorum(coloring);
        seen[usize::from(expected)] = true;
        checks.record(verdict == expected, || {
            format!(
                "{label} check walk at p = {p}, step {step}: delta verdict {verdict}, \
                 from scratch {expected}"
            )
        });
    }
    checks.record(seen == [true; 2], || {
        format!("{label} check walk at p = {p} saw only one verdict")
    });
}

/// Runs the churn workload for `seconds`.
///
/// # Panics
///
/// Panics if `config.chunk` is zero or not a multiple of 64.
pub fn run(config: &ChurnConfig, seed: u64, seconds: f64, trace: bool) -> Outcome {
    assert!(
        config.chunk > 0 && config.chunk % 64 == 0,
        "chunk must be a positive multiple of 64"
    );
    let (built, mut setup) = SetupTimer::new(|| {
        config
            .systems
            .iter()
            .enumerate()
            .map(|(i, (_, spec, _))| {
                let system = spec.build().expect("benchmark specs are valid");
                let trajectory = ChurnTrajectory::generate(
                    system.universe_size(),
                    config.fail,
                    config.repair,
                    config.horizon,
                    call_seed(seed, i as u64),
                );
                let evaluator = delta_evaluator_for(&system);
                (system, trajectory, evaluator)
            })
            .collect::<Vec<_>>()
    });
    let mut trajectories = Vec::with_capacity(built.len());
    let mut rest = Vec::with_capacity(built.len());
    for (system, trajectory, evaluator) in built {
        trajectories.push(trajectory);
        rest.push((system, evaluator));
    }
    let mut streams: Vec<Stream> = rest
        .into_iter()
        .zip(&trajectories)
        .zip(&config.systems)
        .map(|(((system, evaluator), trajectory), &(label, ..))| Stream {
            label,
            system,
            trajectory,
            walker: trajectory.walk(),
            evaluator,
            stats: RunningStats::new(),
            traced_updates: 0,
            flips: 0,
            update_ns: 0,
        })
        .collect();
    let mut checks = Checks::default();

    // Untimed warm-up: a check walk and one chunk per system. The measured
    // walk then starts again from the baseline, so the first round — a
    // traced one — re-baselines every evaluator.
    let mut off = Clock::new(false);
    for (i, (stream, &(.., exact))) in streams.iter_mut().zip(&config.systems).enumerate() {
        let check_seed = call_seed(seed, u64::MAX - i as u64);
        check_walk(stream.label, &stream.system, exact, check_seed, &mut checks);
        stream.advance(config.chunk, &mut off, &mut checks);
        stream.walker = stream.trajectory.walk();
        stream.stats = RunningStats::new();
    }

    let measured = measure(
        seconds,
        trace,
        |_, clock| Round {
            ops: (config.chunk * streams.len()) as u64,
            time: streams
                .iter_mut()
                .map(|s| s.advance(config.chunk, clock, &mut checks))
                .sum(),
        },
        || drop(setup.burst()),
    );

    let mut detail = Detail::default();
    if trace {
        let flips: u64 = streams.iter().map(|s| s.flips).sum();
        let updates: u64 = streams.iter().map(|s| s.traced_updates).sum();
        detail.count("failure.flips_per_step", flips as f64 / updates as f64);
        for s in &streams {
            detail.count(format!("stats.unavailability.{}", s.label), s.stats.mean());
            detail.timing(
                format!("delta.ns_per_flip.{}", s.label),
                s.update_ns as f64 / s.flips as f64,
            );
        }
    }
    Outcome {
        setup_s: setup.seconds(),
        ops_per_s: measured.ops_per_s,
        rounds: measured.rounds,
        checks,
        traced: measured.traced,
        detail,
    }
}
