//! `avail-circuit`: batched `F_p` estimation.
//!
//! Untraced rounds call `batched_failure_probability_wide` itself. Traced
//! rounds run a replica of it built from the public calls it is made of —
//! a fresh element-major lane block and per-word RNG streams per superblock
//! (`batch`), `FailureModel::sample_green_lanes` (`failure`),
//! `green_quorum_lane_block` (`systems`) and `push_indicator_lanes`
//! (`stats`) — so each call can be timed. The replica is checked against the
//! exact `F_p` like the real call, within standard errors rather than bit
//! for bit, so that the library may change how it consumes its RNG streams.
//!
//! At the workload's own p some systems are all but always up or down, so
//! their estimates would pass with a constant evaluator. Each run therefore
//! also checks, untimed, one warm-up estimate per system at the p where its
//! `F_p = ½`, and the green fraction of one counted lane fill at the
//! workload's p.

use std::time::Instant;

use quorum_analysis::RunningStats;
use quorum_core::lanes::LANE_TRIALS;
use quorum_core::{DynQuorumSystem, QuorumSystem};
use quorum_sim::eval::derive_rng;
use quorum_sim::{batched_failure_probability_wide, FailureModel};
use quorum_systems::SystemSpec;

use crate::reference::{agrees_with_exact, estimates_agree, Exact};
use crate::{
    call_seed, measure, Checks, Clock, CountingRng, Detail, Layer, Outcome, Round, SetupTimer,
};

/// Lane-block width in 64-trial words, the library's default.
pub const WIDTH: usize = 8;

/// The cell coordinate under which `batched_failure_probability_wide`
/// derives the RNG stream of each trial word; the replica uses the same
/// stream layout.
const BATCH_CELL: u64 = u64::MAX - 1;

/// One system of an availability workload.
#[derive(Debug, Clone)]
pub struct AvailSystem {
    /// Report label.
    pub label: &'static str,
    /// How the system is built.
    pub spec: SystemSpec,
    /// Its exact failure probability.
    pub exact: Exact,
    /// For a compiled `Compose` twin, the index of its native family.
    pub twin_of: Option<usize>,
}

/// An availability workload: every round estimates `F_p` of every system
/// once, with `trials` trials at lane width [`WIDTH`].
#[derive(Debug, Clone)]
pub struct AvailConfig {
    /// i.i.d. element failure probability.
    pub p: f64,
    /// Trials per estimate; a whole number of `64 · width` superblocks.
    pub trials: usize,
    /// The systems, in round order.
    pub systems: Vec<AvailSystem>,
}

fn system(label: &'static str, spec: SystemSpec, exact: Exact) -> AvailSystem {
    AvailSystem {
        label,
        spec,
        exact,
        twin_of: None,
    }
}

fn twin(label: &'static str, spec: SystemSpec, exact: Exact, native: usize) -> AvailSystem {
    AvailSystem {
        twin_of: Some(native),
        ..system(label, spec, exact)
    }
}

/// `avail-circuit`: n ≈ 2¹⁶ at p = ½ (one RNG word per lane word), the
/// compiled `Composition` twins beside their native families.
pub fn circuit() -> AvailConfig {
    AvailConfig {
        p: 0.5,
        trials: 2048,
        systems: vec![
            system("Tree15", SystemSpec::Tree { height: 15 }, Exact::Tree(15)),
            twin(
                "TreeC15",
                SystemSpec::tree_as_compose(15),
                Exact::Tree(15),
                0,
            ),
            system("HQS10", SystemSpec::Hqs { height: 10 }, Exact::Hqs(10)),
            twin("HQSC10", SystemSpec::hqs_as_compose(10), Exact::Hqs(10), 2),
            system(
                "Grid256x256",
                SystemSpec::Grid {
                    rows: 256,
                    cols: 256,
                },
                Exact::Grid(256, 256),
            ),
            twin(
                "GridC256x256",
                SystemSpec::grid_as_compose(256, 256),
                Exact::Grid(256, 256),
                4,
            ),
            system(
                "OrgMaj255x257",
                SystemSpec::org_majority(255, 257),
                Exact::OrgMajority(255, 257),
            ),
        ],
    }
}

/// Traced time and work of one system.
#[derive(Debug, Clone, Default)]
struct Tally {
    trials: u64,
    wall_ns: u64,
    failure_ns: u64,
    eval_ns: u64,
}

struct Bench<'a> {
    config: &'a AvailConfig,
    systems: Vec<DynQuorumSystem>,
    /// `(p, F_p)` per system at the workload's p.
    exact: Vec<(f64, f64)>,
    /// `(p, F_p)` per system at its balanced p.
    balanced: Vec<(f64, f64)>,
    tallies: Vec<Tally>,
}

impl<'a> Bench<'a> {
    fn new(config: &'a AvailConfig, systems: Vec<DynQuorumSystem>) -> Self {
        let at = |p: f64, exact: Exact| (p, exact.failure_probability(p));
        Bench {
            config,
            exact: config
                .systems
                .iter()
                .map(|s| at(config.p, s.exact))
                .collect(),
            balanced: config
                .systems
                .iter()
                .map(|s| at(s.exact.balanced_p(), s.exact))
                .collect(),
            tallies: vec![Tally::default(); systems.len()],
            systems,
        }
    }

    /// One `F_p` estimate of system `i` at `p`: the library call when
    /// untraced, the traced replica otherwise. Returns `(mean, std_error)`.
    fn estimate(&mut self, i: usize, p: f64, seed: u64, clock: &mut Clock) -> (f64, f64) {
        let c = self.config;
        if !clock.enabled() {
            let e = batched_failure_probability_wide(&*self.systems[i], p, c.trials, seed, WIDTH);
            return (e.mean, e.std_error);
        }
        let started = Instant::now();
        let system = &self.systems[i];
        let tally = &mut self.tallies[i];
        let n = system.universe_size();
        let model = FailureModel::iid(p);
        let words = c.trials.div_ceil(LANE_TRIALS);
        let mut stats = RunningStats::new();
        for first_word in (0..words).step_by(WIDTH) {
            let w = WIDTH.min(words - first_word);
            let (mut rngs, mut lanes) = clock.span(Layer::Engine, || {
                let rngs: Vec<_> = (0..w)
                    .map(|j| derive_rng(seed, BATCH_CELL, (first_word + j) as u64))
                    .collect();
                (rngs, vec![0u64; n * w])
            });
            let before = clock.ns(Layer::Failure);
            clock.span(Layer::Failure, || {
                model.sample_green_lanes(n, first_word as u64, &mut rngs, &mut lanes)
            });
            tally.failure_ns += clock.ns(Layer::Failure) - before;
            let mut available = vec![0u64; w];
            let before = clock.ns(Layer::Eval);
            let evaluated = clock.span(Layer::Eval, || {
                system.green_quorum_lane_block(&lanes, w, &mut available)
            });
            tally.eval_ns += clock.ns(Layer::Eval) - before;
            assert!(
                evaluated,
                "{} has no width-{w} lane evaluator",
                system.name()
            );
            clock.span(Layer::Engine, || drop(lanes));
            for word in &mut available {
                *word = !*word;
            }
            let take = (LANE_TRIALS * w).min(c.trials - first_word * LANE_TRIALS);
            clock.span(Layer::Stats, || {
                stats.push_indicator_lanes(&available, take)
            });
        }
        tally.trials += c.trials as u64;
        tally.wall_ns += started.elapsed().as_nanos() as u64;
        (stats.mean(), stats.std_error())
    }

    /// Checks one estimate per system against `exact`, its `(p, F_p)`, and
    /// each compiled twin against its native family.
    fn check(&self, estimates: &[(f64, f64)], exact: &[(f64, f64)], checks: &mut Checks) {
        let trials = self.config.trials as u64;
        for (i, system) in self.config.systems.iter().enumerate() {
            let (mean, (p, exact)) = (estimates[i].0, exact[i]);
            checks.record(agrees_with_exact(mean, exact, trials), || {
                format!(
                    "{} at p = {p}: estimate {mean} vs exact F_p {exact}",
                    system.label
                )
            });
            if let Some(native) = system.twin_of {
                checks.record(estimates_agree(estimates[i], estimates[native]), || {
                    format!(
                        "{}: estimate {mean} vs native {} {}",
                        system.label, self.config.systems[native].label, estimates[native].0
                    )
                });
            }
        }
    }

    /// One untimed superblock fill of every system at the workload's p,
    /// drawn through [`CountingRng`] streams: checks that its green fraction
    /// is within six standard errors of `1 − p`, and returns the RNG words
    /// drawn and the lane words filled. Counting is kept out of the traced
    /// rounds, where it would slow the fill it measures.
    fn counted_fill(&self, seed: u64, checks: &mut Checks) -> (u64, u64) {
        let p = self.config.p;
        let model = FailureModel::iid(p);
        let (mut words, mut lane_words) = (0, 0);
        for (system, spec) in self.systems.iter().zip(&self.config.systems) {
            let n = system.universe_size();
            let mut rngs: Vec<_> = (0..WIDTH)
                .map(|j| CountingRng::new(derive_rng(seed, BATCH_CELL, j as u64)))
                .collect();
            let mut lanes = vec![0u64; n * WIDTH];
            model.sample_green_lanes(n, 0, &mut rngs, &mut lanes);
            let bits = (lanes.len() * 64) as f64;
            let green = lanes.iter().map(|w| w.count_ones() as f64).sum::<f64>() / bits;
            let sigma = (p * (1.0 - p) / bits).sqrt();
            checks.record((green - (1.0 - p)).abs() <= 6.0 * sigma, || {
                format!(
                    "{}: lane fill green fraction {green}, expected {}",
                    spec.label,
                    1.0 - p
                )
            });
            words += rngs.iter().map(CountingRng::words).sum::<u64>();
            lane_words += lanes.len() as u64;
        }
        (words, lane_words)
    }

    fn detail(&self, (words, lane_words): (u64, u64)) -> Detail {
        let c = self.config;
        let largest = self
            .systems
            .iter()
            .map(|s| s.universe_size())
            .max()
            .unwrap_or(0);
        let mut detail = Detail::default();
        detail.count(
            "batch.block_mib",
            (largest * WIDTH * 8) as f64 / (1024.0 * 1024.0),
        );
        detail.count(
            "failure.rng_words_per_lane_word",
            words as f64 / lane_words as f64,
        );
        for (system, tally) in c.systems.iter().zip(&self.tallies) {
            let label = system.label;
            let wall = tally.wall_ns as f64;
            detail.timing(
                format!("systems.lane_trials_per_s.{label}"),
                tally.trials as f64 / (tally.eval_ns as f64 * 1e-9),
            );
            detail.timing(
                format!("failure.share.{label}"),
                tally.failure_ns as f64 / wall,
            );
            detail.timing(
                format!("systems.share.{label}"),
                tally.eval_ns as f64 / wall,
            );
        }
        detail
    }
}

/// Runs an availability workload for `seconds`.
///
/// # Panics
///
/// Panics if `config.trials` is not a whole number of superblocks.
pub fn run(config: &AvailConfig, seed: u64, seconds: f64, trace: bool) -> Outcome {
    assert!(
        config.trials > 0 && config.trials % (LANE_TRIALS * WIDTH) == 0,
        "trials must be a whole number of {}-trial superblocks",
        LANE_TRIALS * WIDTH
    );
    let (systems, mut setup) = SetupTimer::new(|| {
        config
            .systems
            .iter()
            .map(|s| s.spec.build().expect("benchmark specs are valid"))
            .collect::<Vec<_>>()
    });
    let mut bench = Bench::new(config, systems);
    let mut checks = Checks::default();

    // Untimed warm-up, one call per system at its balanced p: the first
    // call on a fresh process is slower than the steady state (page faults,
    // cold caches).
    let mut off = Clock::new(false);
    let warm_seed = call_seed(seed, u64::MAX);
    let warm: Vec<_> = (0..config.systems.len())
        .map(|i| bench.estimate(i, bench.balanced[i].0, warm_seed, &mut off))
        .collect();
    bench.check(&warm, &bench.balanced, &mut checks);
    let fill_words = bench.counted_fill(warm_seed, &mut checks);

    let measured = measure(
        seconds,
        trace,
        |index, clock| {
            let round_seed = call_seed(seed, index);
            let started = Instant::now();
            let estimates: Vec<_> = (0..config.systems.len())
                .map(|i| bench.estimate(i, config.p, round_seed, clock))
                .collect();
            let time = started.elapsed();
            bench.check(&estimates, &bench.exact, &mut checks);
            Round {
                ops: (config.trials * config.systems.len()) as u64,
                time,
            }
        },
        || drop(setup.burst()),
    );
    Outcome {
        setup_s: setup.seconds(),
        ops_per_s: measured.ops_per_s,
        rounds: measured.rounds,
        checks,
        detail: if trace {
            bench.detail(fill_words)
        } else {
            Detail::default()
        },
        traced: measured.traced,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The traced replica estimates what the library call estimates, within
    /// standard errors, on every system of `avail-circuit` at a small size
    /// and at each system's balanced p.
    #[test]
    fn replica_agrees_with_the_library_call() {
        let config = AvailConfig {
            trials: 2048,
            systems: vec![
                system("Tree8", SystemSpec::Tree { height: 8 }, Exact::Tree(8)),
                twin("TreeC8", SystemSpec::tree_as_compose(8), Exact::Tree(8), 0),
                system("HQS5", SystemSpec::Hqs { height: 5 }, Exact::Hqs(5)),
                twin("HQSC5", SystemSpec::hqs_as_compose(5), Exact::Hqs(5), 2),
                system(
                    "Grid16x16",
                    SystemSpec::Grid { rows: 16, cols: 16 },
                    Exact::Grid(16, 16),
                ),
                twin(
                    "GridC16x16",
                    SystemSpec::grid_as_compose(16, 16),
                    Exact::Grid(16, 16),
                    4,
                ),
                system(
                    "OrgMaj15x17",
                    SystemSpec::org_majority(15, 17),
                    Exact::OrgMajority(15, 17),
                ),
            ],
            ..circuit()
        };
        let systems = config
            .systems
            .iter()
            .map(|s| s.spec.build().unwrap())
            .collect();
        let mut bench = Bench::new(&config, systems);
        for seed in [1, 2, 3] {
            for i in 0..config.systems.len() {
                let p = bench.balanced[i].0;
                let library = bench.estimate(i, p, seed, &mut Clock::new(false));
                let replica = bench.estimate(i, p, seed, &mut Clock::new(true));
                assert!(
                    estimates_agree(library, replica),
                    "{}: library {library:?} vs replica {replica:?}",
                    config.systems[i].label
                );
            }
        }
    }
}
