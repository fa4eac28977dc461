//! The workspace's benchmark: three closed-loop workloads over the public API
//! of the probe-complexity engine, each checked against independent
//! references, with an optional traced mode that splits the wall time across
//! the layers the workload passes through.
//!
//! | workload         | one op            | engine                     | failure                       | eval                          | stats                        |
//! |------------------|-------------------|----------------------------|-------------------------------|-------------------------------|------------------------------|
//! | `avail-circuit`  | availability trial| `batch`: lane block + RNGs | `sample_green_lanes`          | `green_quorum_lane_block`     | `push_indicator_lanes`       |
//! | `churn-delta`    | churn step        | walk restarts + `reset`    | `ChurnWalker::step`           | `DeltaEvaluator::update`      | `push_indicator_lanes`       |
//! | `probe-sessions` | session           | `cluster` engine + RNG     | `ColoringSource::sample_into` | `DynStrategy::run`            | `RunningStats::push`         |
//!
//! Every layer role exists on every workload, so the traced run reports the
//! same metric names everywhere; the module each role stands for on a given
//! workload is the row above. Spans are taken here, around the calls into
//! the library — the library itself carries no tracing.

pub mod avail;
pub mod churn;
pub mod reference;
pub mod sessions;

use std::time::{Duration, Instant};

use rand::RngCore;

/// The workload seed used when none is given.
pub const DEFAULT_SEED: u64 = 1;

/// A second seed, never used while tuning the benchmark, for held-out checks
/// of a later performance claim.
pub const HELD_OUT_SEED: u64 = 4242;

/// The fewest builds in one burst of [`SetupTimer`].
pub const SETUP_BURST_REPEATS: usize = 3;

/// Builds in a burst repeat until they have also taken this long in total,
/// so that cheap set-ups are medians of many samples.
pub const SETUP_BURST_SECONDS: f64 = 0.002;

/// The most builds in one burst.
pub const SETUP_MAX_REPEATS: usize = 100_000;

/// The fewest measured rounds a run makes, however short `--seconds` is
/// (a traced run needs at least one untraced and one traced round).
pub const MIN_ROUNDS: u64 = 4;

/// The four layer roles every workload's pipeline is split into (see the
/// crate documentation for what each stands for per workload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Allocation, RNG derivation and engine work around the other layers.
    Engine,
    /// Sampling failures: lane fills, churn steps, per-session colorings.
    Failure,
    /// Evaluating the quorum predicate or running the probe strategy.
    Eval,
    /// Folding outcomes into running statistics.
    Stats,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 4] = [Layer::Engine, Layer::Failure, Layer::Eval, Layer::Stats];

    /// The metric prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Engine => "engine",
            Layer::Failure => "failure",
            Layer::Eval => "eval",
            Layer::Stats => "stats",
        }
    }
}

/// Per-layer nanosecond accumulators. A disabled clock costs one branch per
/// span and never reads the time.
#[derive(Debug, Clone, Default)]
pub struct Clock {
    enabled: bool,
    ns: [u64; 4],
}

impl Clock {
    /// A clock that records spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Clock {
            enabled,
            ns: [0; 4],
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` as a span of `layer`.
    #[inline]
    pub fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let started = self.start();
        let out = f();
        self.stop(layer, started);
        out
    }

    /// Opens a span (for calls whose result borrows from the callee).
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        self.enabled.then(Instant::now)
    }

    /// Closes a span opened with [`Clock::start`], charging it to `layer`.
    #[inline]
    pub fn stop(&mut self, layer: Layer, started: Option<Instant>) {
        if let Some(started) = started {
            self.add(layer, started.elapsed());
        }
    }

    /// Charges `elapsed` to `layer` (ignored while disabled).
    pub fn add(&mut self, layer: Layer, elapsed: Duration) {
        if self.enabled {
            self.ns[layer as usize] += elapsed.as_nanos() as u64;
        }
    }

    /// Nanoseconds charged to `layer` so far.
    pub fn ns(&self, layer: Layer) -> u64 {
        self.ns[layer as usize]
    }
}

/// A [`RngCore`] that counts the 64-bit words drawn through it.
#[derive(Debug, Clone)]
pub struct CountingRng<R> {
    inner: R,
    words: u64,
}

impl<R> CountingRng<R> {
    /// Wraps `inner` with a zero count.
    pub fn new(inner: R) -> Self {
        CountingRng { inner, words: 0 }
    }

    /// Words drawn so far (a `u32` or a partial 8-byte fill counts as one).
    pub fn words(&self) -> u64 {
        self.words
    }
}

impl<R: RngCore> RngCore for CountingRng<R> {
    fn next_u32(&mut self) -> u32 {
        self.words += 1;
        self.inner.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.words += 1;
        self.inner.next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.words += dest.len().div_ceil(8) as u64;
        self.inner.fill_bytes(dest)
    }
}

/// Results compared against a reference, and how many disagreed.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    /// Results checked.
    pub attempted: u64,
    /// Results that disagreed with their reference.
    pub failed: u64,
    /// A description of the first disagreement.
    pub first_failure: Option<String>,
}

impl Checks {
    /// Records one checked result.
    pub fn record(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first_failure.is_none() {
                self.first_failure = Some(describe());
            }
        }
    }
}

/// What one measured round did: its ops and the time it took, checks
/// excluded. Every round of a run does the same number of ops.
#[derive(Debug, Clone)]
pub struct Round {
    /// Ops completed (trials, steps or sessions).
    pub ops: u64,
    /// Time the round took.
    pub time: Duration,
}

/// The traced half of a `--trace 1` run.
#[derive(Debug, Clone)]
pub struct Traced {
    /// Summed time of the traced rounds.
    pub wall: Duration,
    /// Ops completed in traced rounds.
    pub ops: u64,
    /// The per-layer accumulators.
    pub clock: Clock,
    /// `1 − traced rate / untraced rate` (see [`measure`]).
    pub overhead_frac: f64,
}

impl Traced {
    /// Self time of `layer`, in seconds.
    pub fn self_s(&self, layer: Layer) -> f64 {
        self.clock.ns(layer) as f64 * 1e-9
    }

    /// Share of the traced wall spent in `layer`.
    pub fn share(&self, layer: Layer) -> f64 {
        self.self_s(layer) / self.wall.as_secs_f64()
    }

    /// Self time of `layer` per op, in nanoseconds.
    pub fn ns_per_op(&self, layer: Layer) -> f64 {
        self.clock.ns(layer) as f64 / self.ops as f64
    }

    /// Share of the traced wall covered by no layer span.
    pub fn unattributed_frac(&self) -> f64 {
        1.0 - Layer::ALL.iter().map(|&l| self.share(l)).sum::<f64>()
    }
}

/// The outcome of one benchmark run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Time to build the workload's state ([`SetupTimer::seconds`]).
    pub setup_s: f64,
    /// Untraced ops per second (see [`measure`]).
    pub ops_per_s: f64,
    /// Measured rounds (traced and untraced).
    pub rounds: u64,
    /// Reference checks over warm-up and every round.
    pub checks: Checks,
    /// The traced rounds, on `--trace 1`.
    pub traced: Option<Traced>,
    /// Layer detail under the library's own module names, on `--trace 1`.
    pub detail: Detail,
}

/// Layer detail under the library's own module names.
#[derive(Debug, Clone, Default)]
pub struct Detail {
    /// Counts and ratios of counts: a pure function of the seed and the
    /// number of rounds run.
    pub counts: Vec<(String, f64)>,
    /// Rates and shares derived from the traced clocks.
    pub timings: Vec<(String, f64)>,
}

impl Detail {
    /// Records a count.
    pub fn count(&mut self, name: impl Into<String>, value: f64) {
        self.counts.push((name.into(), value));
    }

    /// Records a timing.
    pub fn timing(&mut self, name: impl Into<String>, value: f64) {
        self.timings.push((name.into(), value));
    }
}

/// Times the builds of a workload's state. Builds come in bursts — one
/// before the first round and one after every round, outside its timing —
/// so that the build time is sampled across the whole run like the rates.
pub struct SetupTimer<B> {
    build: B,
    bursts: Vec<f64>,
}

impl<T, B: FnMut() -> T> SetupTimer<B> {
    /// Runs the first burst and returns the state it built last.
    pub fn new(build: B) -> (T, Self) {
        let mut timer = SetupTimer {
            build,
            bursts: Vec::new(),
        };
        let state = timer.burst();
        (state, timer)
    }

    /// Builds at least [`SETUP_BURST_REPEATS`] times and for at least
    /// [`SETUP_BURST_SECONDS`], dropping each copy before building the next;
    /// records the burst's median build time and returns the last copy.
    pub fn burst(&mut self) -> T {
        let mut times = Vec::new();
        let mut state = None;
        let mut total = 0.0;
        while times.len() < SETUP_BURST_REPEATS
            || (total < SETUP_BURST_SECONDS && times.len() < SETUP_MAX_REPEATS)
        {
            drop(state.take());
            let started = Instant::now();
            state = Some((self.build)());
            let elapsed = started.elapsed().as_secs_f64();
            times.push(elapsed);
            total += elapsed;
        }
        self.bursts.push(median(&mut times));
        state.expect("a burst builds at least once")
    }

    /// The build time the run reports: the [`fastest`] burst median.
    pub fn seconds(&self) -> f64 {
        fastest(&self.bursts)
    }
}

/// The measured rounds of one run.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Untraced ops per second.
    pub ops_per_s: f64,
    /// Rounds run.
    pub rounds: u64,
    /// The traced rounds, when tracing.
    pub traced: Option<Traced>,
}

/// Runs rounds in a closed loop for `seconds` (and at least [`MIN_ROUNDS`]),
/// calling `between` after each round, outside its timing. With `trace`,
/// every second round, starting with the first, runs with an enabled clock,
/// so the traced and untraced rates come from interleaved rounds.
///
/// A rate is the ops of one round over the [`fastest`] round time.
pub fn measure(
    seconds: f64,
    trace: bool,
    mut round: impl FnMut(u64, &mut Clock) -> Round,
    mut between: impl FnMut(),
) -> Measured {
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut ops = 0;
    let mut clock = Clock::new(true);
    let mut off = Clock::new(false);
    let mut traced_wall = Duration::ZERO;
    let mut traced_ops = 0;
    let started = Instant::now();
    let mut index = 0;
    while index < MIN_ROUNDS || started.elapsed().as_secs_f64() < seconds {
        let is_traced = trace && index % 2 == 0;
        let done = round(index, if is_traced { &mut clock } else { &mut off });
        ops = done.ops;
        if is_traced {
            traced_wall += done.time;
            traced_ops += done.ops;
            traced.push(done.time.as_secs_f64());
        } else {
            untraced.push(done.time.as_secs_f64());
        }
        between();
        index += 1;
    }
    let rate = |times: &[f64]| ops as f64 / fastest(times);
    let ops_per_s = rate(&untraced);
    let traced = trace.then(|| Traced {
        wall: traced_wall,
        ops: traced_ops,
        clock,
        overhead_frac: 1.0 - rate(&traced) / ops_per_s,
    });
    Measured {
        ops_per_s,
        rounds: index,
        traced,
    }
}

/// The smallest of `times`, the time a timing reports. Other tenants of a
/// shared machine only ever slow the program down, by up to 2× in phases
/// lasting seconds or longer, while every round of a run does about the same
/// work; the fastest sample is the time the program takes outside those
/// phases. In repeated runs its spread was about that of the fast decile or
/// smaller, and smaller than that of the lower quartile or the median.
///
/// # Panics
///
/// Panics if `times` is empty.
pub fn fastest(times: &[f64]) -> f64 {
    assert!(!times.is_empty(), "no samples");
    times.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The `q`-quantile of `values`, interpolating linearly between order
/// statistics (sorts `values` in place).
///
/// # Panics
///
/// Panics if `values` is empty or `q` is outside `[0, 1]`.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of nothing");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    values.sort_by(f64::total_cmp);
    let at = q * (values.len() - 1) as f64;
    let (low, high) = (at.floor() as usize, at.ceil() as usize);
    values[low] + (values[high] - values[low]) * (at - low as f64)
}

/// The median of `values` (sorts `values` in place).
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// A seed for call `index` of a run with workload seed `seed` (SplitMix64).
pub fn call_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The process's peak resident set in MiB (`VmHWM` of `/proc/self/status`),
/// or `None` where the proc filesystem is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The names of the workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["avail-circuit", "churn-delta", "probe-sessions"];

/// Runs workload `name` at its full size, single-threaded, or returns `None`
/// for an unknown name.
pub fn run_workload(name: &str, seed: u64, seconds: f64, trace: bool) -> Option<Outcome> {
    let engine = quorum_sim::EvalEngine::with_threads(1);
    Some(match name {
        "avail-circuit" => engine.install(|| avail::run(&avail::circuit(), seed, seconds, trace)),
        "churn-delta" => engine.install(|| churn::run(&churn::full(), seed, seconds, trace)),
        "probe-sessions" => {
            engine.install(|| sessions::run(&sessions::full(), seed, seconds, trace))
        }
        _ => return None,
    })
}
