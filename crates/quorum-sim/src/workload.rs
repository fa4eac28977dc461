//! Heavy-traffic workload cells: `(system, strategy, failure scenario,
//! workload, network scenario)` combinations executed on the cluster's
//! discrete-event workload engine.
//!
//! The probe-count engine ([`crate::eval`]) answers *how many probes* a
//! strategy needs; this module answers how a strategy behaves **under
//! traffic**: many concurrent client sessions, per-node service queues,
//! load-aware probe ordering, and a message-level network between client and
//! nodes. Each [`WorkloadCell`] runs one complete workload simulation —
//! sequential inside, so the discrete-event timeline is exact — and cells
//! run in parallel across the engine's rayon pool. A cell starts on the
//! clean network with the sequential policy ([`NetScenario::clean`]);
//! [`WorkloadCell::with_scenario`] lifts it onto a network-fault scenario.
//! Every cell is a pure function of `(base_seed, cell index, cell spec)`, so
//! the resulting rows are bit-identical for any worker-thread count, like
//! the rest of the evaluation engine.

use std::sync::Arc;

use quorum_analysis::load_imbalance;
use quorum_cluster::{
    AgreementReport, ArrivalProcess, Backend, Distribution, Fault, FaultSchedule, FaultWindow,
    LiveOptions, LiveReport, NetProbe, NetSessionPlan, NetworkModel, ProbePolicy, SessionTrace,
    SimTime, SpecReport, WorkloadConfig, WorkloadSpec,
};
use quorum_core::{Color, Coloring};
use quorum_probe::session::{observed_coloring, ProbeFate};
use quorum_probe::strategies::{LeastLoadedScan, LoadView, PowerOfTwoScan};
use quorum_probe::{HealthConfig, HealthView};
use rayon::prelude::*;

use crate::eval::{
    derive_rng, universal_strategy, ColoringSource, DynProbeStrategy, DynSystem, EvalEngine,
};
use crate::report::Table;

/// Which probe strategy a workload cell runs.
#[derive(Clone)]
pub enum WorkloadStrategy {
    /// A load-blind strategy (typically one of the paper's algorithms).
    Paper(DynProbeStrategy),
    /// [`LeastLoadedScan`] over the cell's live load ledger.
    LeastLoaded,
    /// [`PowerOfTwoScan`] over the cell's live load ledger.
    PowerOfTwo,
}

impl WorkloadStrategy {
    /// The label used in report rows.
    pub fn label(&self) -> String {
        match self {
            WorkloadStrategy::Paper(strategy) => strategy.name(),
            WorkloadStrategy::LeastLoaded => "LeastLoaded".into(),
            WorkloadStrategy::PowerOfTwo => "PowerOfTwo".into(),
        }
    }
}

impl std::fmt::Debug for WorkloadStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "WorkloadStrategy({})", self.label())
    }
}

/// One workload simulation: a system probed by a strategy under a failure
/// scenario, an arrival/service model and a network-fault scenario.
#[derive(Clone)]
pub struct WorkloadCell {
    /// The quorum system under load.
    pub system: DynSystem,
    /// The probe strategy serving the sessions.
    pub strategy: WorkloadStrategy,
    /// The failure scenario (true crashes, as distinct from network
    /// faults): session `s` observes the scenario's trial-`s` coloring, so
    /// strategies sharing a cell index and seed are compared on identical
    /// failure timelines.
    pub source: ColoringSource,
    /// A short name for the arrival/service model (e.g. `"open-lan"`).
    pub workload: String,
    /// The arrival, latency, service and timeout model.
    pub config: WorkloadConfig,
    /// The network-fault scenario's name (report column).
    pub net: String,
    /// The message-level network the cell runs on.
    pub network: NetworkModel,
    /// The client-side robustness policy.
    pub policy: ProbePolicy,
    /// When set, every session runs behind a shared [`HealthView`] circuit
    /// breaker: probes to open nodes are shed, sessions that cannot reach a
    /// healthy quorum degrade without probing, and probe outcomes feed the
    /// per-node failure EWMA.
    pub health: Option<HealthConfig>,
}

impl WorkloadCell {
    /// A cell on the [`NetScenario::clean`] network: no message faults, the
    /// sequential policy, and no health view.
    pub fn new(
        system: DynSystem,
        strategy: WorkloadStrategy,
        source: ColoringSource,
        workload: impl Into<String>,
        config: WorkloadConfig,
    ) -> Self {
        let NetScenario {
            name,
            network,
            policy,
        } = NetScenario::clean();
        WorkloadCell {
            system,
            strategy,
            source,
            workload: workload.into(),
            config,
            net: name.to_string(),
            network,
            policy,
            health: None,
        }
    }

    /// Lifts the cell onto a network scenario: its name, its network and
    /// the policy it recommends.
    pub fn with_scenario(mut self, scenario: &NetScenario) -> Self {
        self.net = scenario.name.to_string();
        self.network = scenario.network.clone();
        self.policy = scenario.policy;
        self
    }

    /// Puts the cell's sessions behind a health-aware circuit breaker.
    pub fn with_health(mut self, config: HealthConfig) -> Self {
        self.health = Some(config);
        self
    }
}

/// The deterministic summary of one executed [`WorkloadCell`].
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadOutcome {
    /// System label.
    pub system: String,
    /// Universe size.
    pub universe_size: usize,
    /// Strategy label.
    pub strategy: String,
    /// Workload label.
    pub workload: String,
    /// Network-scenario label.
    pub net: String,
    /// Policy label.
    pub policy: String,
    /// Failure-scenario label.
    pub scenario: String,
    /// Sessions completed.
    pub sessions: usize,
    /// Fraction of sessions that located a live quorum in their *observed*
    /// coloring (network faults can push this below the crash-only rate).
    pub success_rate: f64,
    /// Completed sessions per second of virtual time.
    pub throughput_per_sec: f64,
    /// Median session latency, microseconds of virtual time.
    pub p50_us: u64,
    /// 95th-percentile session latency.
    pub p95_us: u64,
    /// 99th-percentile session latency.
    pub p99_us: u64,
    /// Mean probes per session (attempts included).
    pub probes_per_session: f64,
    /// Mean messages per session (requests plus transmitted responses).
    pub messages_per_session: f64,
    /// Fraction of probe attempts whose answer was never used.
    pub wasted_fraction: f64,
    /// Load-imbalance factor (max/mean probes per node).
    pub imbalance: f64,
    /// Highest backlog any node reached.
    pub peak_backlog: usize,
    /// Sessions that degraded gracefully instead of failing outright: the
    /// health layer either shed at least one of their probes or declined the
    /// whole session because no healthy quorum was reachable. Always zero
    /// for health-blind cells.
    pub degraded: u64,
    /// Requests delivered into crashed nodes and dropped unserved.
    pub lost_to_crash: u64,
}

/// A LAN-ish open-loop workload: Poisson arrivals at the given mean
/// inter-arrival time, 100–400 µs one-way network delays, 150 µs mean
/// service times, 5 ms probe timeout.
pub fn open_poisson_workload(sessions: usize, mean_interarrival: SimTime) -> WorkloadConfig {
    WorkloadConfig {
        arrival: ArrivalProcess::OpenPoisson { mean_interarrival },
        sessions,
        rpc_latency: Distribution::uniform(SimTime::from_micros(100), SimTime::from_micros(400)),
        service: Distribution::exponential(SimTime::from_micros(150)),
        probe_timeout: SimTime::from_millis(5),
    }
}

/// A LAN-ish closed-loop workload: `clients` concurrent clients with
/// exponential think times of the given mean, same network/service model as
/// [`open_poisson_workload`].
pub fn closed_loop_workload(sessions: usize, clients: usize, think: SimTime) -> WorkloadConfig {
    WorkloadConfig {
        arrival: ArrivalProcess::ClosedLoop {
            clients,
            think: Distribution::exponential(think),
        },
        sessions,
        rpc_latency: Distribution::uniform(SimTime::from_micros(100), SimTime::from_micros(400)),
        service: Distribution::exponential(SimTime::from_micros(150)),
        probe_timeout: SimTime::from_millis(5),
    }
}

/// The standard two-entry workload battery: one open-loop and one closed-loop
/// arrival model over the shared LAN network/service profile.
pub fn standard_workloads(sessions: usize) -> Vec<(&'static str, WorkloadConfig)> {
    vec![
        (
            "open-poisson",
            open_poisson_workload(sessions, SimTime::from_micros(250)),
        ),
        (
            "closed-loop",
            closed_loop_workload(sessions, 16, SimTime::from_micros(500)),
        ),
    ]
}

/// Renders outcomes as the standard workload table: the arrival model and
/// the load columns, without the network ones (see [`net_outcomes_table`]).
pub fn outcomes_table(outcomes: &[WorkloadOutcome]) -> Table {
    let mut table = Table::new([
        "system",
        "n",
        "strategy",
        "workload",
        "scenario",
        "sessions",
        "ok_rate",
        "thr_per_s",
        "p50_ms",
        "p95_ms",
        "p99_ms",
        "probes",
        "imbalance",
    ]);
    for o in outcomes {
        table.add_row(vec![
            o.system.clone(),
            o.universe_size.to_string(),
            o.strategy.clone(),
            o.workload.clone(),
            o.scenario.clone(),
            o.sessions.to_string(),
            format!("{:.3}", o.success_rate),
            format!("{:.1}", o.throughput_per_sec),
            format!("{:.3}", o.p50_us as f64 / 1_000.0),
            format!("{:.3}", o.p95_us as f64 / 1_000.0),
            format!("{:.3}", o.p99_us as f64 / 1_000.0),
            format!("{:.2}", o.probes_per_session),
            format!("{:.2}", o.imbalance),
        ]);
    }
    table
}

/// A named network-fault scenario: a [`NetworkModel`] plus the client-side
/// [`ProbePolicy`] recommended for it.
#[derive(Debug, Clone)]
pub struct NetScenario {
    /// Canonical name, e.g. `"minority-part"`.
    pub name: &'static str,
    /// The message-level network the scenario runs on.
    pub network: NetworkModel,
    /// The robustness policy the scenario pairs with the network.
    pub policy: ProbePolicy,
}

impl NetScenario {
    /// The fault-free control scenario: the clean network with the
    /// sequential policy. Every [`WorkloadCell`] starts on it.
    pub fn clean() -> Self {
        NetScenario {
            name: "clean",
            network: NetworkModel::clean(),
            policy: ProbePolicy::sequential(),
        }
    }
}

/// The standard network-fault battery for a universe of `n` nodes under
/// `config`: clean, lossy, heavy-tail delay, minority partition, flapping
/// partition and asymmetric split.
///
/// Partition windows are placed relative to the run's
/// [`WorkloadConfig::horizon_hint`], so the same scenario scales with the
/// session count. The first entry is [`NetScenario::clean`], the control
/// row of every network experiment.
pub fn network_scenarios(n: usize, config: &WorkloadConfig) -> Vec<NetScenario> {
    let horizon = config.horizon_hint().as_micros();
    let at = |num: u64, den: u64| SimTime::from_micros(horizon * num / den);
    let third: Vec<usize> = (0..n / 3).collect();
    let quarter: Vec<usize> = (0..n / 4).collect();
    let backoff = SimTime::from_micros(300);
    let hedge = SimTime::from_millis(2);
    vec![
        NetScenario::clean(),
        NetScenario {
            // 6 % of messages vanish on each leg; three attempts with
            // backoff recover almost every probe.
            name: "lossy",
            network: NetworkModel::lossy(60_000),
            policy: ProbePolicy::retry(3, backoff),
        },
        NetScenario {
            // 4 % of messages hit an 8 ms straggler path: the hedged policy
            // overlaps the stragglers with the next candidate.
            name: "heavy-tail",
            network: NetworkModel {
                delay: Some(Distribution::heavy_tail(
                    SimTime::from_micros(100),
                    SimTime::from_micros(400),
                    SimTime::from_millis(8),
                    40_000,
                )),
                ..NetworkModel::clean()
            },
            policy: ProbePolicy::retry(2, backoff).with_hedge(hedge),
        },
        NetScenario {
            // A third of the universe is unreachable for the middle of the
            // run, then heals.
            name: "minority-part",
            network: NetworkModel::clean().with_faults(FaultSchedule::window(
                Fault::Isolate,
                third.clone(),
                at(1, 4),
                at(5, 8),
            )),
            policy: ProbePolicy::retry(2, backoff).with_hedge(hedge),
        },
        NetScenario {
            // A quarter of the universe flaps: down for the first half of
            // every period through the first three quarters of the run.
            name: "flapping",
            network: NetworkModel::clean().with_faults(FaultSchedule::flapping(
                Fault::Isolate,
                quarter,
                at(1, 8),
                at(1, 16),
                at(3, 4),
            )),
            policy: ProbePolicy::retry(2, backoff).with_hedge(hedge),
        },
        NetScenario {
            // Requests reach a third of the universe — the nodes do the work
            // — but every response is dropped: pure wasted effort.
            name: "asym-split",
            network: NetworkModel::clean().with_faults(FaultSchedule::window(
                Fault::DropResponses,
                third,
                at(1, 5),
                at(7, 10),
            )),
            policy: ProbePolicy::retry(2, backoff),
        },
    ]
}

/// The standard chaos battery for a universe of `n` nodes under `config`:
/// timed node-level faults (as distinct from [`network_scenarios`]' message
/// faults) placed relative to the run's [`WorkloadConfig::horizon_hint`].
///
/// * `crash-minority` — a third of the universe is dead for the middle of
///   the run; delivered requests are dropped unserved until restart.
/// * `rolling-restart` — the same third crashes one node at a time, the
///   classic staggered deploy.
/// * `stall-flap` — a quarter of the universe freezes for the first half of
///   every period through three quarters of the run, serving each backlog
///   too late to matter.
/// * `crash-part` — a compound fault: a crashed third *plus* a partitioned
///   disjoint quarter, so for a stretch of the run no majority is healthy.
///
/// Each scenario pairs with a bounded-retry policy; run the same cells with
/// and without [`WorkloadCell::with_health`] to measure what the
/// health-aware client buys.
pub fn chaos_scenarios(n: usize, config: &WorkloadConfig) -> Vec<NetScenario> {
    let horizon = config.horizon_hint().as_micros();
    let at = |num: u64, den: u64| SimTime::from_micros(horizon * num / den);
    let third: Vec<usize> = (0..n / 3).collect();
    let quarter: Vec<usize> = (0..n / 4).collect();
    let split: Vec<usize> = (n / 3..n / 3 + n / 4).collect();
    let policy = ProbePolicy::retry(2, SimTime::from_micros(300));
    vec![
        NetScenario {
            name: "crash-minority",
            network: NetworkModel::clean().with_faults(FaultSchedule::window(
                Fault::Crash,
                third.clone(),
                at(1, 4),
                at(5, 8),
            )),
            policy,
        },
        NetScenario {
            name: "rolling-restart",
            network: NetworkModel::clean().with_faults(FaultSchedule::rolling_restart(
                third.clone(),
                at(1, 8),
                at(1, 8),
                at(1, 16),
            )),
            policy,
        },
        NetScenario {
            name: "stall-flap",
            network: NetworkModel::clean().with_faults(FaultSchedule::flapping(
                Fault::Stall,
                quarter,
                at(1, 8),
                at(1, 16),
                at(3, 4),
            )),
            policy,
        },
        NetScenario {
            name: "crash-part",
            network: NetworkModel::clean().with_faults(FaultSchedule::from_windows(vec![
                FaultWindow {
                    from: at(1, 4),
                    until: at(1, 2),
                    nodes: third,
                    fault: Fault::Crash,
                },
                FaultWindow {
                    from: at(3, 8),
                    until: at(5, 8),
                    nodes: split,
                    fault: Fault::Isolate,
                },
            ])),
            policy,
        },
    ]
}

/// Executes one cell on the given backend via [`WorkloadSpec`], returning
/// the spec report and the number of degraded sessions. Sequential inside
/// (the discrete-event timeline is a strict total order); the sim half is
/// pure in `(base_seed, cell_index, cell)`.
fn run_cell(
    base_seed: u64,
    cell_index: u64,
    cell: &WorkloadCell,
    backend: Backend,
) -> (SpecReport, u64) {
    let n = cell.system.universe_size();
    // Only the load-aware strategies read the view; paper cells skip both
    // the allocation and the per-session score refresh below.
    let view = match &cell.strategy {
        WorkloadStrategy::Paper(_) => None,
        WorkloadStrategy::LeastLoaded | WorkloadStrategy::PowerOfTwo => Some(LoadView::new(n)),
    };
    let strategy: DynProbeStrategy = match (&cell.strategy, &view) {
        (WorkloadStrategy::Paper(strategy), _) => Arc::clone(strategy),
        (WorkloadStrategy::LeastLoaded, Some(view)) => {
            universal_strategy(LeastLoadedScan::new(view.clone()))
        }
        (WorkloadStrategy::PowerOfTwo, Some(view)) => {
            universal_strategy(PowerOfTwoScan::new(view.clone()))
        }
        _ => unreachable!("load-aware strategies always carry a view"),
    };
    assert!(
        strategy.supports(cell.system.as_ref()),
        "strategy {} does not support system {}",
        strategy.name(),
        cell.system.name()
    );

    // The engine's own randomness (latencies, service times, arrivals) is
    // seeded per cell; each session's strategy/scenario randomness derives
    // from (base_seed, cell, session) exactly like an eval-plan trial.
    let engine_seed = base_seed
        .rotate_left(17)
        .wrapping_add((cell_index + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut scratch = Coloring::all_green(n);
    let health = cell.health.map(|config| HealthView::new(n, config));
    let mut degraded = 0u64;
    let report = WorkloadSpec::new(n)
        .config(cell.config)
        .network(cell.network.clone())
        .policy(cell.policy)
        .backend(backend)
        .run(engine_seed, |session, ledger, now, net_rng| {
            // Publish the ledger's current scores so load-aware strategies
            // see the backlog this session would join.
            if let Some(view) = &view {
                for e in 0..n {
                    view.set(e, ledger.score(e, now));
                }
            }
            // Sessions run sequentially in arrival order, so consulting and
            // feeding the shared health view here is deterministic — and the
            // resulting plans carry the gating into both backends.
            let now_micros = now.as_micros();
            if let Some(health) = &health {
                if !health.quorum_reachable(cell.system.as_ref(), now_micros) {
                    degraded += 1;
                    return NetSessionPlan {
                        probes: Vec::new(),
                        success: false,
                    };
                }
            }
            let mut rng = derive_rng(base_seed, cell_index, session);
            cell.source.sample_into(n, session, &mut rng, &mut scratch);
            // The client sees crashes *through* the network: transit fates
            // can turn live elements red, and the strategy adapts to the
            // observed coloring, not the true one. Open breakers shed their
            // element — observed red at zero cost, no randomness consumed.
            let (observed, mut fates) = observed_coloring(&scratch, |e, color| match &health {
                Some(health) if health.is_open(e, now_micros) => ProbeFate::shed(),
                _ => cell
                    .network
                    .probe_fate(e, color == Color::Green, now, &cell.policy, net_rng),
            });
            let run = strategy.run(cell.system.as_ref(), &observed, &mut rng);
            let probes: Vec<NetProbe> = run
                .sequence
                .iter()
                .map(|&e| NetProbe {
                    node: e,
                    observed: observed.color(e),
                    failures: std::mem::take(&mut fates[e].failures),
                })
                .collect();
            let ok = run.witness.is_green();
            if let Some(health) = &health {
                // Only probes the strategy actually issued teach the view;
                // shed probes never reached the node, so they carry no new
                // evidence.
                let mut any_shed = false;
                for probe in &probes {
                    let shed = probe.observed == Color::Red && probe.failures.is_empty();
                    any_shed |= shed;
                    if !shed {
                        health.record(probe.node, probe.observed == Color::Green, now_micros);
                    }
                }
                if !ok && any_shed {
                    degraded += 1;
                }
            }
            NetSessionPlan {
                probes,
                success: ok,
            }
        });
    (report, degraded)
}

/// Summarises an executed cell's engine report as the standard row.
fn outcome_from_report(
    cell: &WorkloadCell,
    report: &quorum_cluster::WorkloadReport,
    degraded: u64,
) -> WorkloadOutcome {
    let n = cell.system.universe_size();
    let peak_backlog = (0..n)
        .map(|e| report.ledger.peak_backlog(e))
        .max()
        .unwrap_or(0);
    WorkloadOutcome {
        system: cell.system.name(),
        universe_size: n,
        strategy: cell.strategy.label(),
        workload: cell.workload.clone(),
        net: cell.net.clone(),
        policy: cell.policy.label(),
        scenario: cell.source.label(),
        sessions: report.sessions,
        success_rate: report.success_rate(),
        throughput_per_sec: report.throughput_per_sec(),
        p50_us: report.latency.p50().unwrap_or(0),
        p95_us: report.latency.p95().unwrap_or(0),
        p99_us: report.latency.p99().unwrap_or(0),
        probes_per_session: report.probes_per_session(),
        messages_per_session: report.messages_per_session(),
        wasted_fraction: report.wasted_fraction(),
        imbalance: load_imbalance(report.ledger.probes_received()),
        peak_backlog,
        degraded,
        lost_to_crash: report.lost_to_crash,
    }
}

/// The result of executing one cell on **both** backends: the sim
/// row, the live runtime's wall-clock report, and the observable-by-
/// observable cross-validation between the two executions.
#[derive(Debug)]
pub struct LiveCellOutcome {
    /// The simulator's row for the cell (virtual time).
    pub sim: WorkloadOutcome,
    /// The live runtime's report for the same trace (wall-clock time).
    pub live: LiveReport,
    /// The sim-vs-live agreement verdict.
    pub agreement: AgreementReport,
    /// The captured per-session trace both backends executed — the input to
    /// recovery metrics like [`chaos_recovery_micros`].
    pub trace: SessionTrace,
}

/// Executes one cell through [`Backend::Live`]: the simulator runs first
/// (bit-identical to [`run_workload_cells`] for the same seed and cell
/// index), its trace replays on the real-concurrency runtime, and every
/// logical observable is cross-validated between the two executions.
pub fn run_live_cell(
    base_seed: u64,
    cell_index: u64,
    cell: &WorkloadCell,
    options: &LiveOptions,
) -> LiveCellOutcome {
    let (spec, degraded) = run_cell(base_seed, cell_index, cell, Backend::Live(options.clone()));
    LiveCellOutcome {
        sim: outcome_from_report(cell, &spec.report, degraded),
        live: spec.live.expect("the live backend always reports"),
        agreement: spec.agreement.expect("the live backend always validates"),
        trace: spec.trace.expect("the live backend always traces"),
    }
}

/// The deterministic recovery metric of one executed chaos cell: for every
/// node a non-inert process-level window (crash, stall, slow) disrupted, the
/// virtual delay (microseconds) between the end of its *last* such
/// disruption and the arrival of the first session that observed the node
/// green again — or `None` if the trace never saw it recover. Nodes hit only
/// by message-level windows get no row. Pure function of the trace and
/// schedule, so both backends report it identically.
pub fn chaos_recovery_micros(
    trace: &SessionTrace,
    faults: &FaultSchedule,
) -> Vec<(usize, Option<u64>)> {
    let mut nodes: Vec<usize> = faults
        .windows()
        .iter()
        .flat_map(|w| w.nodes.iter().copied())
        .collect();
    nodes.sort_unstable();
    nodes.dedup();
    nodes
        .into_iter()
        .filter_map(|node| {
            let end = faults.last_disruption_end(node)?;
            let recovered = trace
                .sessions
                .iter()
                .filter(|s| s.arrival >= end)
                .find(|s| {
                    s.plan
                        .probes
                        .iter()
                        .any(|p| p.node == node && p.observed == Color::Green)
                })
                .map(|s| (s.arrival - end).as_micros());
            Some((node, recovered))
        })
        .collect()
}

/// Runs every cell on the sim backend, in parallel across the engine's
/// worker pool, returning outcomes in cell order. Bit-identical for any
/// thread count.
pub fn run_workload_cells(
    engine: &EvalEngine,
    base_seed: u64,
    cells: &[WorkloadCell],
) -> Vec<WorkloadOutcome> {
    let indexed: Vec<(u64, &WorkloadCell)> = cells
        .iter()
        .enumerate()
        .map(|(index, cell)| (index as u64, cell))
        .collect();
    engine.install(|| {
        indexed
            .into_par_iter()
            .map(|(index, cell)| {
                let (spec, degraded) = run_cell(base_seed, index, cell, Backend::Sim);
                outcome_from_report(cell, &spec.report, degraded)
            })
            .collect()
    })
}

/// Renders outcomes as the network-workload table: the network scenario
/// and policy columns, messages and wasted fraction in place of the
/// workload label and load columns of [`outcomes_table`].
pub fn net_outcomes_table(outcomes: &[WorkloadOutcome]) -> Table {
    let mut table = Table::new([
        "system",
        "n",
        "strategy",
        "net",
        "policy",
        "scenario",
        "sessions",
        "ok_rate",
        "thr_per_s",
        "p50_ms",
        "p95_ms",
        "p99_ms",
        "probes",
        "msgs",
        "wasted",
    ]);
    for o in outcomes {
        table.add_row(vec![
            o.system.clone(),
            o.universe_size.to_string(),
            o.strategy.clone(),
            o.net.clone(),
            o.policy.clone(),
            o.scenario.clone(),
            o.sessions.to_string(),
            format!("{:.3}", o.success_rate),
            format!("{:.1}", o.throughput_per_sec),
            format!("{:.3}", o.p50_us as f64 / 1_000.0),
            format!("{:.3}", o.p95_us as f64 / 1_000.0),
            format!("{:.3}", o.p99_us as f64 / 1_000.0),
            format!("{:.2}", o.probes_per_session),
            format!("{:.2}", o.messages_per_session),
            format!("{:.3}", o.wasted_fraction),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::erase_system;
    use quorum_probe::strategies::SequentialScan;
    use quorum_systems::Majority;

    fn maj_cells(sessions: usize) -> Vec<WorkloadCell> {
        let system = erase_system(Majority::new(15).unwrap());
        let workloads = standard_workloads(sessions);
        let mut cells = Vec::new();
        for strategy in [
            WorkloadStrategy::Paper(universal_strategy(SequentialScan::new())),
            WorkloadStrategy::LeastLoaded,
            WorkloadStrategy::PowerOfTwo,
        ] {
            for (name, config) in &workloads {
                cells.push(WorkloadCell::new(
                    system.clone(),
                    strategy.clone(),
                    ColoringSource::iid(0.1),
                    *name,
                    *config,
                ));
            }
        }
        cells
    }

    #[test]
    fn default_cell_is_clean_sequential_and_health_blind() {
        let cell = maj_cells(10).swap_remove(0);
        assert_eq!(cell.net, "clean");
        assert_eq!(cell.network, NetworkModel::clean());
        assert!(cell.network.is_clean());
        assert_eq!(cell.policy, ProbePolicy::sequential());
        assert!(cell.health.is_none());
        let lifted = cell.with_scenario(&NetScenario::clean());
        assert_eq!(lifted.net, "clean");
        assert_eq!(lifted.policy, ProbePolicy::sequential());
    }

    #[test]
    fn load_aware_strategies_flatten_the_load() {
        let cells = maj_cells(400);
        let outcomes = run_workload_cells(&EvalEngine::with_threads(0), 7, &cells);
        let imbalance_of = |strategy: &str, workload: &str| {
            outcomes
                .iter()
                .find(|o| o.strategy == strategy && o.workload == workload)
                .map(|o| o.imbalance)
                .expect("cell exists")
        };
        for workload in ["open-poisson", "closed-loop"] {
            let sequential = imbalance_of("SequentialScan", workload);
            let least = imbalance_of("LeastLoaded", workload);
            let p2c = imbalance_of("PowerOfTwo", workload);
            // A sequential scan on Maj(15) leaves almost half the universe
            // unprobed; both load-aware orders must spread load far flatter.
            assert!(
                least < sequential,
                "{workload}: least-loaded {least} vs sequential {sequential}"
            );
            assert!(
                p2c < sequential,
                "{workload}: power-of-two {p2c} vs sequential {sequential}"
            );
            assert!(least < 1.25, "{workload}: least-loaded should be near-flat");
        }
    }

    #[test]
    fn outcome_metrics_are_sane() {
        let cells = maj_cells(200);
        let outcomes = run_workload_cells(&EvalEngine::with_threads(0), 11, &cells);
        assert_eq!(outcomes.len(), cells.len());
        for o in &outcomes {
            assert_eq!(o.sessions, 200);
            assert!(o.success_rate > 0.9, "iid(0.1) rarely kills Maj(15)");
            assert!(o.throughput_per_sec > 0.0);
            assert!(o.p50_us <= o.p95_us && o.p95_us <= o.p99_us);
            assert!(o.probes_per_session >= 8.0, "majority needs 8 greens");
            assert!(o.imbalance >= 1.0);
            assert!(o.peak_backlog >= 1);
        }
    }

    #[test]
    #[should_panic(expected = "does not support")]
    fn incompatible_paper_strategy_is_rejected() {
        use quorum_probe::strategies::ProbeCw;
        use quorum_systems::CrumblingWalls;
        let cell = WorkloadCell::new(
            erase_system(Majority::new(5).unwrap()),
            WorkloadStrategy::Paper(crate::eval::typed_strategy::<CrumblingWalls, _>(
                ProbeCw::new(),
            )),
            ColoringSource::iid(0.1),
            "open",
            open_poisson_workload(10, SimTime::from_micros(200)),
        );
        let _ = run_workload_cells(&EvalEngine::with_threads(1), 1, &[cell]);
    }

    #[test]
    fn outcomes_are_thread_count_invariant() {
        let cells = maj_cells(300);
        let single = run_workload_cells(&EvalEngine::with_threads(1), 42, &cells);
        let parallel = run_workload_cells(&EvalEngine::with_threads(4), 42, &cells);
        assert_eq!(single, parallel, "workload rows diverged across threads");
        assert_eq!(
            outcomes_table(&single).render(),
            outcomes_table(&parallel).render()
        );
    }

    #[test]
    fn net_outcomes_are_thread_count_invariant() {
        let config = open_poisson_workload(250, SimTime::from_micros(250));
        let base = WorkloadCell {
            config,
            ..maj_cells(250).swap_remove(0)
        };
        let cells: Vec<WorkloadCell> = network_scenarios(15, &config)
            .iter()
            .map(|scenario| base.clone().with_scenario(scenario))
            .collect();
        assert_eq!(cells.len(), 6, "the standard battery has six scenarios");
        let single = run_workload_cells(&EvalEngine::with_threads(1), 9, &cells);
        let parallel = run_workload_cells(&EvalEngine::with_threads(4), 9, &cells);
        assert_eq!(single, parallel, "network rows diverged across threads");
        assert_eq!(
            net_outcomes_table(&single).render(),
            net_outcomes_table(&parallel).render()
        );
    }

    #[test]
    fn network_faults_degrade_and_policies_recover() {
        let system = erase_system(Majority::new(15).unwrap());
        let config = open_poisson_workload(300, SimTime::from_micros(250));
        let lossy_net = NetworkModel::lossy(150_000); // 15 % per leg
        let build = |net: &str, network: NetworkModel, policy: ProbePolicy| WorkloadCell {
            net: net.into(),
            network,
            policy,
            ..WorkloadCell::new(
                system.clone(),
                WorkloadStrategy::Paper(universal_strategy(SequentialScan::new())),
                ColoringSource::iid(0.05),
                "open-poisson",
                config,
            )
        };
        let cells = vec![
            build("clean", NetworkModel::clean(), ProbePolicy::sequential()),
            build("lossy", lossy_net.clone(), ProbePolicy::sequential()),
            build(
                "lossy",
                lossy_net,
                ProbePolicy::retry(4, SimTime::from_micros(200)),
            ),
        ];
        let outcomes = run_workload_cells(&EvalEngine::with_threads(0), 3, &cells);
        let (clean, naive, robust) = (&outcomes[0], &outcomes[1], &outcomes[2]);
        assert!(
            naive.success_rate < clean.success_rate,
            "loss must hurt the naive policy: {} vs {}",
            naive.success_rate,
            clean.success_rate
        );
        assert!(
            robust.success_rate > naive.success_rate,
            "retries must recover ok-rate: {} vs {}",
            robust.success_rate,
            naive.success_rate
        );
        assert_eq!(clean.wasted_fraction, 0.0);
        assert!(naive.wasted_fraction > 0.0);
        assert!(robust.messages_per_session > clean.messages_per_session);
    }

    fn chaos_cell(
        n: usize,
        config: WorkloadConfig,
        scenario: &NetScenario,
        health: Option<HealthConfig>,
    ) -> WorkloadCell {
        let mut cell = WorkloadCell::new(
            erase_system(Majority::new(n).unwrap()),
            WorkloadStrategy::Paper(universal_strategy(SequentialScan::new())),
            ColoringSource::iid(0.02),
            "open-poisson",
            config,
        )
        .with_scenario(scenario);
        if let Some(config) = health {
            cell = cell.with_health(config);
        }
        cell
    }

    #[test]
    fn chaos_cells_cross_validate_on_the_live_runtime() {
        let n = 15;
        let config = open_poisson_workload(80, SimTime::from_micros(250));
        let options = LiveOptions::default().time_scale(0.002);
        for (index, scenario) in chaos_scenarios(n, &config).iter().enumerate() {
            let cell = chaos_cell(n, config, scenario, None);
            let outcome = run_live_cell(21, index as u64, &cell, &options);
            assert!(
                outcome.agreement.agree,
                "{}: sim and live disagreed: {:?}",
                scenario.name, outcome.agreement.mismatches
            );
            assert!(
                outcome.live.drained_clean(),
                "{}: delivered != served + lost_to_crash",
                scenario.name
            );
            assert_eq!(
                outcome.sim.lost_to_crash, outcome.live.requests_lost_to_crash,
                "{}: the two backends must lose the same requests",
                scenario.name
            );
        }
    }

    #[test]
    fn crash_scenarios_lose_requests_and_report_recovery() {
        let n = 15;
        let config = open_poisson_workload(300, SimTime::from_micros(250));
        let scenarios = chaos_scenarios(n, &config);
        let crash = scenarios
            .iter()
            .find(|s| s.name == "crash-minority")
            .expect("battery has crash-minority");
        let cell = chaos_cell(n, config, crash, None);
        let options = LiveOptions::default().time_scale(0.002);
        let outcome = run_live_cell(33, 0, &cell, &options);
        assert!(
            outcome.sim.lost_to_crash > 0,
            "a crashed third must swallow some delivered requests"
        );
        let recovery = chaos_recovery_micros(&outcome.trace, &cell.network.faults);
        assert_eq!(recovery.len(), n / 3, "one row per crashed node");
        for (node, recovered) in &recovery {
            assert!(*node < n / 3);
            let micros = recovered.expect("the schedule heals well before the run ends");
            let horizon = config.horizon_hint().as_micros();
            assert!(
                micros < horizon,
                "node {node} took {micros}us to be seen green again"
            );
        }
    }

    /// `crash-part` crashes a third and partitions a disjoint quarter; only
    /// the crashed nodes get a recovery row, even when every node is seen
    /// green again after both windows.
    #[test]
    fn crash_part_recovery_rows_skip_the_partitioned_quarter() {
        let n = 15;
        let config = open_poisson_workload(300, SimTime::from_micros(250));
        let crash_part = chaos_scenarios(n, &config)
            .into_iter()
            .find(|s| s.name == "crash-part")
            .expect("battery has crash-part");
        let late = SimTime::from_micros(config.horizon_hint().as_micros() * 7 / 8);
        let trace = SessionTrace {
            sessions: vec![quorum_cluster::TracedSession {
                index: 0,
                arrival: late,
                plan: NetSessionPlan {
                    probes: (0..n)
                        .map(|node| NetProbe {
                            node,
                            observed: Color::Green,
                            failures: vec![],
                        })
                        .collect(),
                    success: true,
                },
            }],
        };
        let recovery = chaos_recovery_micros(&trace, &crash_part.network.faults);
        let nodes: Vec<usize> = recovery.iter().map(|(node, _)| *node).collect();
        assert_eq!(nodes, (0..n / 3).collect::<Vec<_>>(), "the crashed third");
        assert!(recovery.iter().all(|(_, at)| at.is_some()));
    }

    #[test]
    fn health_aware_clients_beat_naive_ones_under_chaos() {
        let n = 15;
        let config = open_poisson_workload(400, SimTime::from_micros(250));
        let scenarios = chaos_scenarios(n, &config);
        for name in ["crash-minority", "rolling-restart"] {
            let scenario = scenarios.iter().find(|s| s.name == name).unwrap();
            let naive = chaos_cell(n, config, scenario, None);
            let aware = chaos_cell(n, config, scenario, Some(HealthConfig::default()));
            let outcomes = run_workload_cells(&EvalEngine::with_threads(0), 17, &[naive, aware]);
            let (naive, aware) = (&outcomes[0], &outcomes[1]);
            assert_eq!(naive.degraded, 0, "health-blind cells never degrade");
            assert!(
                aware.wasted_fraction < naive.wasted_fraction,
                "{name}: shedding must cut wasted probes: {} vs {}",
                aware.wasted_fraction,
                naive.wasted_fraction
            );
            assert!(
                aware.success_rate >= naive.success_rate - 0.02,
                "{name}: shedding sick nodes must not cost ok-rate: {} vs {}",
                aware.success_rate,
                naive.success_rate
            );
        }
    }

    #[test]
    fn chaos_outcomes_are_thread_count_invariant() {
        let n = 15;
        let config = open_poisson_workload(200, SimTime::from_micros(250));
        let cells: Vec<WorkloadCell> = chaos_scenarios(n, &config)
            .iter()
            .flat_map(|scenario| {
                [
                    chaos_cell(n, config, scenario, None),
                    chaos_cell(n, config, scenario, Some(HealthConfig::default())),
                ]
            })
            .collect();
        let single = run_workload_cells(&EvalEngine::with_threads(1), 13, &cells);
        let parallel = run_workload_cells(&EvalEngine::with_threads(4), 13, &cells);
        assert_eq!(single, parallel, "chaos rows diverged across threads");
    }

    #[test]
    fn asymmetric_splits_waste_served_work() {
        let system = erase_system(Majority::new(15).unwrap());
        let config = open_poisson_workload(300, SimTime::from_micros(250));
        let scenarios = network_scenarios(15, &config);
        let asym = scenarios
            .iter()
            .find(|s| s.name == "asym-split")
            .expect("battery has the asymmetric split");
        let cell = WorkloadCell::new(
            system,
            WorkloadStrategy::Paper(universal_strategy(SequentialScan::new())),
            ColoringSource::iid(0.02),
            "open-poisson",
            config,
        )
        .with_scenario(asym);
        let outcome = &run_workload_cells(&EvalEngine::with_threads(1), 5, &[cell])[0];
        assert!(
            outcome.wasted_fraction > 0.0,
            "responses dropped after service must register as waste"
        );
        // Every attempt transmits its request; only served attempts also
        // transmit a response — so messages sit within [probes, 2·probes].
        assert!(outcome.messages_per_session <= 2.0 * outcome.probes_per_session);
        assert!(outcome.messages_per_session >= outcome.probes_per_session);
    }
}
