//! `probe-sessions`: the paper's strategies as client sessions of the
//! discrete-event cluster engine.
//!
//! Every round runs `WorkloadSpec::run_plans` once per system (sim backend,
//! clean network, open-loop Poisson arrivals in virtual time). The plan
//! closure derives the session's RNG (`engine`), samples its coloring with
//! `ColoringSource::sample_into` (`failure`), runs the strategy with
//! `DynStrategy::run` (`eval`, the `strategies` layer) and folds the probe
//! count into the `PPC_p` estimate (`stats`). The engine's own time — the
//! `run_plans` call minus the closure — is charged to `engine` (the
//! `cluster` layer). After the run, every session's coloring is re-derived
//! and its success compared with `has_green_quorum`, outside the timed region.
//!
//! At the workload's p = 0.3 every system is all but always up, so those
//! checks would pass with a strategy that always reports success. The
//! untimed warm-up call therefore samples its colorings at p = ½, where the
//! four systems, all self-dual, are up half the time.

use std::time::{Duration, Instant};

use quorum_analysis::RunningStats;
use quorum_cluster::{SessionPlan, WorkloadSpec};
use quorum_core::{Coloring, QuorumSystem};
use quorum_probe::strategies::{ProbeCw, ProbeHqs, ProbeMaj, ProbeTree};
use quorum_sim::eval::{derive_rng, erase_spec, typed_strategy, DynSystem};
use quorum_sim::{ColoringSource, DynProbeStrategy};
use quorum_systems::{CrumblingWalls, Hqs, Majority, SystemSpec, TreeQuorum};

use crate::{call_seed, measure, Checks, Clock, Detail, Layer, Outcome, Round, SetupTimer};

/// i.i.d. element failure probability of each measured session's coloring.
pub const P: f64 = 0.3;

/// The failure probability of the warm-up sessions, at which every system
/// of [`full`] fails half the time.
const BALANCED_P: f64 = 0.5;

/// The cell coordinate of session RNG streams.
const SESSION_CELL: u64 = 0;

/// One system of the session workload and the paper strategy that probes it.
#[derive(Clone)]
pub struct SessionSystem {
    /// Report label.
    pub label: &'static str,
    /// How the system is built.
    pub spec: SystemSpec,
    /// Makes the strategy.
    pub strategy: fn() -> DynProbeStrategy,
}

/// A session workload: every round runs `sessions` sessions per system.
#[derive(Clone)]
pub struct SessionsConfig {
    /// Sessions per `run_plans` call.
    pub sessions: usize,
    /// The systems, in round order.
    pub systems: Vec<SessionSystem>,
}

/// `probe-sessions`: Probe_Maj, Probe_Tree, Probe_CW and Probe_HQS at
/// n ≈ 729–1023, colorings i.i.d. at [`P`].
pub fn full() -> SessionsConfig {
    SessionsConfig {
        sessions: 500,
        systems: vec![
            SessionSystem {
                label: "Maj1023",
                spec: SystemSpec::Majority { n: 1023 },
                strategy: || typed_strategy::<Majority, _>(ProbeMaj::new()),
            },
            SessionSystem {
                label: "Tree9",
                spec: SystemSpec::Tree { height: 9 },
                strategy: || typed_strategy::<TreeQuorum, _>(ProbeTree::new()),
            },
            SessionSystem {
                label: "Triang44",
                spec: SystemSpec::Triang { rows: 44 },
                strategy: || typed_strategy::<CrumblingWalls, _>(ProbeCw::new()),
            },
            SessionSystem {
                label: "HQS6",
                spec: SystemSpec::Hqs { height: 6 },
                strategy: || typed_strategy::<Hqs, _>(ProbeHqs::new()),
            },
        ],
    }
}

/// One system's session machinery and its traced tallies.
struct Stream {
    label: &'static str,
    system: DynSystem,
    strategy: DynProbeStrategy,
    spec: WorkloadSpec,
    coloring: Coloring,
    ppc: RunningStats,
    traced_sessions: u64,
    probes: u64,
    messages: u64,
    strategy_ns: u64,
}

impl Stream {
    /// Runs one `run_plans` call of `sessions` sessions with colorings from
    /// `source` and returns its time; the sessions are checked after the
    /// clock stops.
    fn run(
        &mut self,
        source: &ColoringSource,
        sessions: usize,
        seed: u64,
        clock: &mut Clock,
        checks: &mut Checks,
    ) -> Duration {
        let n = self.system.universe_size();
        let mut outcomes = Vec::with_capacity(sessions);
        let mut closure_ns = 0u64;
        let strategy_before = clock.ns(Layer::Eval);
        let started = Instant::now();
        let report = self
            .spec
            .run_plans(seed, |index, _, _| {
                let entered = clock.start();
                let mut rng = clock.span(Layer::Engine, || derive_rng(seed, SESSION_CELL, index));
                clock.span(Layer::Failure, || {
                    source.sample_into(n, index, &mut rng, &mut self.coloring)
                });
                let run = clock.span(Layer::Eval, || {
                    self.strategy
                        .run(self.system.as_ref(), &self.coloring, &mut rng)
                });
                clock.span(Layer::Stats, || self.ppc.push(run.probes as f64));
                let success = run.witness.is_green();
                outcomes.push((index, success, run.probes));
                let colors = run
                    .sequence
                    .iter()
                    .map(|&e| self.coloring.color(e))
                    .collect();
                if let Some(entered) = entered {
                    closure_ns += entered.elapsed().as_nanos() as u64;
                }
                SessionPlan {
                    sequence: run.sequence,
                    colors,
                    success,
                }
            })
            .report;
        let timed = started.elapsed();
        if clock.enabled() {
            clock.add(
                Layer::Engine,
                timed.saturating_sub(Duration::from_nanos(closure_ns)),
            );
            self.traced_sessions += sessions as u64;
            self.probes += outcomes.iter().map(|o| o.2 as u64).sum::<u64>();
            self.messages += report.messages;
            self.strategy_ns += clock.ns(Layer::Eval) - strategy_before;
        }

        let successes = outcomes.iter().filter(|o| o.1).count();
        checks.record(
            report.sessions == sessions && report.successes == successes,
            || {
                format!(
                    "{}: engine reported {} sessions / {} successes, plans had {sessions} / {successes}",
                    self.label, report.sessions, report.successes
                )
            },
        );
        for (index, success, probes) in outcomes {
            let mut rng = derive_rng(seed, SESSION_CELL, index);
            source.sample_into(n, index, &mut rng, &mut self.coloring);
            let live = self.system.has_green_quorum(&self.coloring);
            checks.record(success == live && probes <= n, || {
                format!(
                    "{} session {index}: strategy success {success} with {probes} probes, \
                     from scratch {live} (n = {n})",
                    self.label
                )
            });
        }
        timed
    }
}

/// Runs the session workload for `seconds`.
pub fn run(config: &SessionsConfig, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let (mut streams, mut setup) = SetupTimer::new(|| {
        config
            .systems
            .iter()
            .map(|s| {
                let system = erase_spec(&s.spec).expect("benchmark specs are valid");
                let n = system.universe_size();
                Stream {
                    label: s.label,
                    strategy: (s.strategy)(),
                    spec: WorkloadSpec::new(n).sessions(config.sessions),
                    coloring: Coloring::all_green(n),
                    ppc: RunningStats::new(),
                    traced_sessions: 0,
                    probes: 0,
                    messages: 0,
                    strategy_ns: 0,
                    system,
                }
            })
            .collect::<Vec<_>>()
    });
    let mut checks = Checks::default();
    let source = ColoringSource::iid(P);

    // Untimed warm-up at the balanced p: one call per system.
    let mut off = Clock::new(false);
    let warm_seed = call_seed(seed, u64::MAX);
    let balanced = ColoringSource::iid(BALANCED_P);
    for stream in &mut streams {
        stream.run(&balanced, config.sessions, warm_seed, &mut off, &mut checks);
        stream.ppc = RunningStats::new();
    }

    let measured = measure(
        seconds,
        trace,
        |index, clock| {
            let round_seed = call_seed(seed, index);
            Round {
                ops: (config.sessions * streams.len()) as u64,
                time: streams
                    .iter_mut()
                    .map(|s| s.run(&source, config.sessions, round_seed, clock, &mut checks))
                    .sum(),
            }
        },
        || drop(setup.burst()),
    );

    let mut detail = Detail::default();
    if trace {
        let sessions: u64 = streams.iter().map(|s| s.traced_sessions).sum();
        let probes: u64 = streams.iter().map(|s| s.probes).sum();
        let messages: u64 = streams.iter().map(|s| s.messages).sum();
        let strategy_ns: u64 = streams.iter().map(|s| s.strategy_ns).sum();
        detail.count(
            "strategies.probes_per_session",
            probes as f64 / sessions as f64,
        );
        detail.count(
            "cluster.messages_per_session",
            messages as f64 / sessions as f64,
        );
        for s in &streams {
            detail.count(format!("stats.ppc.{}", s.label), s.ppc.mean());
        }
        detail.timing(
            "strategies.ns_per_probe",
            strategy_ns as f64 / probes as f64,
        );
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
