//! Reproduction harness for every table and figure of Hassin & Peleg,
//! "Average probe complexity in quorum systems".
//!
//! The binary `reproduce` (in `src/bin/reproduce.rs`) runs the functions of
//! this library through the one declaration of every experiment,
//! [`EXPERIMENTS`]; each function builds a plain-text table that pairs the
//! paper's claim with the value measured by this workspace.
//! `EXPERIMENTS.md` records a captured run.
//!
//! Every Monte-Carlo number is produced by the shared parallel evaluation
//! engine (`quorum_sim::eval`): each table function assembles one
//! [`EvalPlan`] of `(system, strategy, coloring-source)` cells and executes
//! it with a single [`EvalEngine::run`] call. Results are bit-identical for
//! any worker-thread count.
//!
//! The number of Monte-Carlo trials is controlled by the `REPRO_TRIALS`
//! environment variable (default 5000); the RNG seed by `REPRO_SEED`
//! (default 2001); the worker-thread count by `REPRO_THREADS` (default: all
//! cores). Runs are reproducible: the seed fully determines every number.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use probequorum::analysis::availability::{
    exact_failure_probability as exact_fp, zoned_failure_probability, zoned_params,
};
use probequorum::prelude::*;
use probequorum::sim::eval::{
    erase_spec, erase_system, fit_points, typed_strategy, CellReport, ColoringSource, DynSystem,
    EvalEngine, EvalPlan,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

pub mod artifact;
pub mod experiments;
pub mod regression;

pub use artifact::ArtifactStream;
pub use experiments::{Experiment, Stream, EXPERIMENTS};
pub use regression::{
    check_regression, check_regression_and_artifact, parse_artifact, BenchRun, RegressionReport,
};

/// Configuration of a reproduction run.
#[derive(Debug, Clone, Copy)]
pub struct ReproConfig {
    /// Monte-Carlo trials per measured cell.
    pub trials: usize,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for the evaluation engine (0 = all cores).
    pub threads: usize,
}

impl Default for ReproConfig {
    fn default() -> Self {
        ReproConfig {
            trials: 5_000,
            seed: 2_001,
            threads: 0,
        }
    }
}

/// A `REPRO_*` environment variable whose value cannot be used.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReproConfigError {
    /// The variable's name.
    pub variable: &'static str,
    /// The rejected value (lossily decoded if it was not UTF-8).
    pub value: String,
    /// What the variable accepts.
    pub expected: &'static str,
}

impl std::fmt::Display for ReproConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}={:?} is not {}",
            self.variable, self.value, self.expected
        )
    }
}

impl std::error::Error for ReproConfigError {}

/// Reads one `REPRO_*` variable through `lookup`: unset keeps `default`; a
/// set value must parse as `T` and be at least `min`.
fn repro_var<T: std::str::FromStr + PartialOrd>(
    lookup: &impl Fn(&str) -> Option<String>,
    variable: &'static str,
    default: T,
    min: T,
    expected: &'static str,
) -> Result<T, ReproConfigError> {
    let Some(value) = lookup(variable) else {
        return Ok(default);
    };
    match value.parse() {
        Ok(parsed) if parsed >= min => Ok(parsed),
        _ => Err(ReproConfigError {
            variable,
            value,
            expected,
        }),
    }
}

impl ReproConfig {
    /// Reads the configuration from the `REPRO_TRIALS` / `REPRO_SEED` /
    /// `REPRO_THREADS` environment variables; unset variables keep their
    /// defaults.
    ///
    /// # Errors
    ///
    /// Returns the first set variable whose value is not a decimal integer
    /// in range: `REPRO_TRIALS` must be positive, `REPRO_THREADS` may be 0
    /// (all cores).
    pub fn from_env() -> Result<Self, ReproConfigError> {
        Self::from_lookup(|variable| {
            std::env::var_os(variable).map(|value| value.to_string_lossy().into_owned())
        })
    }

    /// [`from_env`](Self::from_env) over any variable lookup, so the parser
    /// runs on plain strings.
    fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Result<Self, ReproConfigError> {
        let default = ReproConfig::default();
        Ok(ReproConfig {
            trials: repro_var(
                &lookup,
                "REPRO_TRIALS",
                default.trials,
                1,
                "a positive trial count",
            )?,
            seed: repro_var(
                &lookup,
                "REPRO_SEED",
                default.seed,
                0,
                "an unsigned 64-bit seed",
            )?,
            threads: repro_var(
                &lookup,
                "REPRO_THREADS",
                default.threads,
                0,
                "a thread count (0 = all cores)",
            )?,
        })
    }

    /// The evaluation engine this configuration selects.
    pub fn engine(&self) -> EvalEngine {
        EvalEngine::with_threads(self.threads)
    }

    /// A fresh RNG for code that still samples directly (hard colorings in
    /// tests, exact solvers' tie-breaking).
    fn rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.seed)
    }

    /// A base seed for one table, derived from the configured seed and the
    /// table's name so tables stay independent.
    fn section_seed(&self, section: &str) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in section.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
        hash ^ self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

fn fmt(value: f64) -> String {
    format!("{value:.3}")
}

/// The one construction path the experiments share: build a [`SystemSpec`]
/// and erase it. The concrete type survives behind `as_any` (see
/// [`erase_spec`]), so the typed paper strategies still apply to the result.
///
/// Sites that need the concrete value itself (hard-input distributions,
/// row-count arithmetic) still call the family constructors directly — the
/// spec layer proves those produce bit-identical systems.
fn spec_system(spec: SystemSpec) -> DynSystem {
    erase_spec(&spec).unwrap_or_else(|e| panic!("bench specs are valid by construction: {e}"))
}

/// Fits a power law through the `(universe size, mean probes)` points of a
/// consecutive slice of engine cells (a sweep).
fn fit_cells(cells: &[CellReport]) -> PowerLawFit {
    fit_power_law(&fit_points(cells))
}

/// A [`ColoringSource`] drawing from the Triang/CW hard input family of
/// Theorem 4.6 (exactly one green element per row, uniformly placed).
pub fn cw_hard_source(wall: &Arc<CrumblingWalls>) -> ColoringSource {
    let wall = Arc::clone(wall);
    ColoringSource::generator("cw-hard(one green/row)", move |rng| {
        cw_hard_coloring(&wall, rng)
    })
}

/// A [`ColoringSource`] drawing from the HQS worst-case family `P` of
/// Lemma 4.11, *paired* on `pair_seed`: cells built with the same seed see
/// the identical coloring on every trial, so `R_Probe_HQS` and
/// `IR_Probe_HQS` are compared on common random inputs.
pub fn hqs_hard_source(height: usize, pair_seed: u64) -> ColoringSource {
    ColoringSource::paired_generator("hqs-hard(Lemma 4.11)", pair_seed, move |rng| {
        hqs_hard_coloring(height, rng)
    })
}

/// Reproduces **Table 1**: the probe complexity of Maj, Triang, Tree and HQS
/// in the probabilistic model (p = 1/2) and the randomized worst-case model.
pub fn table1(config: &ReproConfig) -> Table {
    let trials = config.trials;
    let mut plan = EvalPlan::new(config.section_seed("table1")).trials(trials);

    // ---- Plan every cell up front; one engine pass executes them all. ----
    let maj = spec_system(SystemSpec::Majority { n: 101 });
    let maj_reds = maj.universe_size().div_ceil(2); // the hard input: (n+1)/2 reds
    let probe_maj = typed_strategy::<Majority, _>(ProbeMaj::new());
    let r_probe_maj = typed_strategy::<Majority, _>(RProbeMaj::new());
    plan.probe(&maj, &probe_maj, ColoringSource::iid(0.5));
    plan.probe(
        &maj,
        &r_probe_maj,
        ColoringSource::exact_red_count(maj_reds),
    );

    let triang = Arc::new(CrumblingWalls::triang(13).unwrap());
    let triang_sys: DynSystem = triang.clone();
    let probe_cw = typed_strategy::<CrumblingWalls, _>(ProbeCw::new());
    let r_probe_cw = typed_strategy::<CrumblingWalls, _>(RProbeCw::new());
    plan.probe(&triang_sys, &probe_cw, ColoringSource::iid(0.5));
    // All one-green-per-row colorings of Triang are equivalent up to symmetry,
    // so averaging over the hard family estimates the worst-case expectation
    // without the upward bias of maximising over many noisy estimates.
    plan.probe_with_trials(
        &triang_sys,
        &r_probe_cw,
        cw_hard_source(&triang),
        trials.max(2_000),
    );

    let probe_tree = typed_strategy::<TreeQuorum, _>(ProbeTree::new());
    let tree_sweep_start = plan.cell_count();
    for height in 4..=9 {
        let tree = spec_system(SystemSpec::Tree { height });
        plan.probe_with_trials(
            &tree,
            &probe_tree,
            ColoringSource::iid(0.5),
            trials.min(3_000),
        );
    }
    let tree_sweep_end = plan.cell_count();

    let tree4 = TreeQuorum::new(4).unwrap();
    let hard = InputDistribution::tree_hard(&tree4);
    let colorings: Vec<Coloring> = hard.support().iter().map(|(c, _)| c.clone()).collect();
    let sample: Vec<Coloring> = colorings.into_iter().step_by(409).take(10).collect();
    let tree4_sys = erase_system(tree4);
    let r_probe_tree = typed_strategy::<TreeQuorum, _>(RProbeTree::new());
    let tree_worst_start = plan.cell_count();
    plan.probe_each_coloring(&tree4_sys, &r_probe_tree, &sample, (trials / 2).max(1_000));
    let tree_worst_end = plan.cell_count();

    let probe_hqs = typed_strategy::<Hqs, _>(ProbeHqs::new());
    let hqs_sweep_start = plan.cell_count();
    for height in 2..=6 {
        let hqs = spec_system(SystemSpec::Hqs { height });
        plan.probe_with_trials(
            &hqs,
            &probe_hqs,
            ColoringSource::iid(0.5),
            trials.min(3_000),
        );
    }
    let hqs_sweep_end = plan.cell_count();

    let report = config.engine().run(&plan);
    let cells = &report.cells;

    // ---- Assemble the table from the report. ----
    let mut table = Table::new(["system", "n", "model", "measured", "paper claim"]);
    let maj_n = cells[0].universe_size.unwrap();
    table.add_row(vec![
        "Maj".into(),
        maj_n.to_string(),
        "probabilistic p=1/2".into(),
        fmt(cells[0].estimate.mean),
        format!("n − Θ(√n) ≈ {}", fmt(bounds::maj_probabilistic(maj_n, 0.5))),
    ]);
    table.add_row(vec![
        "Maj".into(),
        maj_n.to_string(),
        "randomized worst case".into(),
        fmt(cells[1].estimate.mean),
        format!(
            "n − (n−1)/(n+3) = {}",
            fmt(bounds::maj_randomized_exact(maj_n))
        ),
    ]);

    let n = triang.universe_size();
    let k = triang.row_count();
    table.add_row(vec![
        "Triang".into(),
        n.to_string(),
        "probabilistic p=1/2".into(),
        fmt(cells[2].estimate.mean),
        format!("between 2k − Θ(√k) and 2k − 1 = {}", 2 * k - 1),
    ]);
    table.add_row(vec![
        "Triang".into(),
        n.to_string(),
        "randomized worst case".into(),
        fmt(cells[3].estimate.mean),
        format!(
            "(n+k)/2 = {} … (n+k)/2 + log k = {}",
            fmt(bounds::cw_randomized_lower(n, k)),
            fmt(bounds::triang_randomized_upper(n, k))
        ),
    ]);

    let tree_cells = &cells[tree_sweep_start..tree_sweep_end];
    let fit = fit_cells(tree_cells);
    table.add_row(vec![
        "Tree".into(),
        format!(
            "{}–{}",
            tree_cells.first().unwrap().universe_size.unwrap(),
            tree_cells.last().unwrap().universe_size.unwrap()
        ),
        "probabilistic p=1/2".into(),
        format!("exponent {}", fmt(fit.exponent)),
        format!(
            "O(n^{}) (log2 1.5)",
            fmt(bounds::tree_probabilistic_exponent(0.5))
        ),
    ]);
    let tree_worst = cells[tree_worst_start..tree_worst_end]
        .iter()
        .map(|c| c.estimate.mean)
        .fold(f64::NEG_INFINITY, f64::max);
    let tree_worst_n = cells[tree_worst_start].universe_size.unwrap();
    table.add_row(vec![
        "Tree".into(),
        tree_worst_n.to_string(),
        "randomized worst case".into(),
        fmt(tree_worst),
        format!(
            "2n/3 ≈ {} … 5n/6 ≈ {}",
            fmt(bounds::tree_randomized_lower(tree_worst_n)),
            fmt(bounds::tree_randomized_upper(tree_worst_n))
        ),
    ]);

    let hqs_cells = &cells[hqs_sweep_start..hqs_sweep_end];
    let fit = fit_cells(hqs_cells);
    table.add_row(vec![
        "HQS".into(),
        format!(
            "{}–{}",
            hqs_cells.first().unwrap().universe_size.unwrap(),
            hqs_cells.last().unwrap().universe_size.unwrap()
        ),
        "probabilistic p=1/2".into(),
        format!("exponent {}", fmt(fit.exponent)),
        format!(
            "Θ(n^{}) (log3 2.5)",
            fmt(bounds::hqs_probabilistic_exponent_symmetric())
        ),
    ]);
    let (plain_fit, improved_fit) = hqs_randomized_exponents(config);
    table.add_row(vec![
        "HQS".into(),
        "9–2187".into(),
        "randomized worst case".into(),
        format!("exponent {} (IR: {})", fmt(plain_fit), fmt(improved_fit)),
        format!(
            "Ω(n^{}) … O(n^{})",
            fmt(bounds::hqs_randomized_exponent_lower()),
            fmt(bounds::hqs_randomized_exponent_improved())
        ),
    ]);

    table
}

/// Draws a coloring from the hard input family of Theorem 4.6: exactly one
/// green element in every row of the wall, uniformly placed.
pub fn cw_hard_coloring<R: Rng>(wall: &CrumblingWalls, rng: &mut R) -> Coloring {
    let n = wall.universe_size();
    let mut greens = ElementSet::empty(n);
    for row in 0..wall.row_count() {
        let elements = wall.row_elements(row);
        greens.insert(elements.start + rng.gen_range(0..elements.len()));
    }
    Coloring::from_green_set(&greens)
}

/// Draws a coloring from the worst-case input family `P` of Lemma 4.11: every
/// internal node has exactly two children carrying its value.
pub fn hqs_hard_coloring<R: Rng>(height: usize, rng: &mut R) -> Coloring {
    let n = 3usize.pow(height as u32);
    let mut colors = vec![Color::Green; n];
    fn assign<R: Rng>(colors: &mut [Color], start: usize, height: usize, value: bool, rng: &mut R) {
        if height == 0 {
            colors[start] = if value { Color::Green } else { Color::Red };
            return;
        }
        let third = 3usize.pow(height as u32 - 1);
        // Choose which child carries the minority (opposite) value.
        let minority = rng.gen_range(0..3usize);
        for child in 0..3 {
            let child_value = if child == minority { !value } else { value };
            assign(colors, start + child * third, height - 1, child_value, rng);
        }
    }
    let root_value = rng.gen_bool(0.5);
    assign(&mut colors, 0, height, root_value, rng);
    Coloring::from_colors(colors)
}

/// Builds the `R_Probe_HQS` vs `IR_Probe_HQS` plan on the hard input family
/// of Lemma 4.11 (two cells per height) and returns the executed report
/// cells, interleaved `[plain, improved]` per height.
///
/// These are the slowest cells in the harness. Both `table1` and
/// `hqs_randomized` need them and each computes its own, so each table's
/// wall time is its own cost; the cells are a pure function of the seed and
/// trial count, so the two agree.
fn run_hqs_randomized_cells(
    config: &ReproConfig,
    heights: std::ops::RangeInclusive<usize>,
) -> Vec<CellReport> {
    let trials = (config.trials / 5).max(200);
    let base_seed = config.section_seed("hqs-randomized");
    let mut plan = EvalPlan::new(base_seed).trials(trials);
    let r_probe = typed_strategy::<Hqs, _>(RProbeHqs::new());
    let ir_probe = typed_strategy::<Hqs, _>(IrProbeHqs::new());
    for height in heights {
        let hqs = spec_system(SystemSpec::Hqs { height });
        // Both strategies share the per-height pair seed, so every trial
        // compares them on the identical hard coloring (variance reduction
        // for the "IR saves" column).
        let pair_seed = base_seed ^ (height as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        plan.probe(&hqs, &r_probe, hqs_hard_source(height, pair_seed));
        plan.probe(&hqs, &ir_probe, hqs_hard_source(height, pair_seed));
    }
    config.engine().run(&plan).cells
}

/// Fits the growth exponents of `R_Probe_HQS` and `IR_Probe_HQS` on the hard
/// input family of Lemma 4.11 (Proposition 4.9 vs Theorem 4.10).
///
/// Returns `(plain_exponent, improved_exponent)`.
pub fn hqs_randomized_exponents(config: &ReproConfig) -> (f64, f64) {
    let cells = run_hqs_randomized_cells(config, 2..=7);
    let plain: Vec<CellReport> = cells.iter().step_by(2).cloned().collect();
    let improved: Vec<CellReport> = cells.iter().skip(1).step_by(2).cloned().collect();
    (fit_cells(&plain).exponent, fit_cells(&improved).exponent)
}

/// Reproduces the worked example of Section 2.3 and Fig. 4: the Maj3 decision
/// tree and the values `PC = 3`, `PC_R = 8/3`, `PPC = 5/2`.
pub fn maj3(config: &ReproConfig) -> (Table, String) {
    let mut rng = config.rng();
    let maj = Majority::new(3).unwrap();
    let mut table = Table::new(["quantity", "measured", "paper value"]);

    let (pc, tree) = exact::optimal_tree(&maj, exact::Law::Adversary).unwrap();
    table.add_row(vec!["PC(Maj3)".into(), pc.to_string(), "3".into()]);

    let ppc = exact::optimal_cost(&maj, exact::Law::Iid(0.5)).unwrap();
    table.add_row(vec!["PPC_1/2(Maj3)".into(), fmt(ppc), "2.5".into()]);

    let hard = InputDistribution::majority_hard(&maj);
    let yao_bound = exact::optimal_cost(&maj, exact::Law::Support(&hard)).unwrap();
    table.add_row(vec![
        "Yao bound (hard distribution)".into(),
        fmt(yao_bound),
        "8/3 ≈ 2.667".into(),
    ]);

    let worst = config.engine().install(|| {
        estimate_worst_case(&maj, &RProbeMaj::new(), config.trials.max(1_000), &mut rng)
    });
    table.add_row(vec![
        "PC_R(R_Probe_Maj, Maj3) (measured)".into(),
        fmt(worst.expected_probes),
        "8/3 ≈ 2.667".into(),
    ]);

    (table, tree.render_ascii())
}

/// Reproduces the crumbling-walls results: Theorem 3.3 (`≤ 2k − 1` for every p
/// and shape) and Corollary 3.4 (Wheel ≤ 3).
pub fn crumbling_walls(config: &ReproConfig) -> Table {
    let shapes: Vec<(&str, Arc<CrumblingWalls>)> = vec![
        ("Wheel(64)", Arc::new(CrumblingWalls::wheel(64).unwrap())),
        ("Triang(10)", Arc::new(CrumblingWalls::triang(10).unwrap())),
        (
            "CW(1,5,5,5,5)",
            Arc::new(CrumblingWalls::new(vec![1, 5, 5, 5, 5]).unwrap()),
        ),
        (
            "CW(1,2,9,30)",
            Arc::new(CrumblingWalls::new(vec![1, 2, 9, 30]).unwrap()),
        ),
    ];
    let probe_cw = typed_strategy::<CrumblingWalls, _>(ProbeCw::new());
    let mut plan = EvalPlan::new(config.section_seed("crumbling-walls")).trials(config.trials);
    for (_, wall) in &shapes {
        let system: DynSystem = wall.clone();
        for p in [0.1, 0.5, 0.9] {
            plan.probe(&system, &probe_cw, ColoringSource::iid(p));
        }
    }
    let report = config.engine().run(&plan);

    let mut table = Table::new(["wall", "n", "k", "p", "measured", "bound 2k−1"]);
    let mut cells = report.cells.iter();
    for (name, wall) in &shapes {
        for p in [0.1, 0.5, 0.9] {
            let cell = cells.next().expect("one cell per shape × p");
            table.add_row(vec![
                (*name).into(),
                wall.universe_size().to_string(),
                wall.row_count().to_string(),
                p.to_string(),
                fmt(cell.estimate.mean),
                (2 * wall.row_count() - 1).to_string(),
            ]);
        }
    }
    table
}

/// Reproduces Proposition 3.6 / Corollary 3.7: the Tree exponent as a function
/// of `p` compared to `log_2(1 + p)`.
pub fn tree_exponent(config: &ReproConfig) -> Table {
    // Larger trees reduce the finite-size bias of the log–log fit (the paper's
    // exponents are asymptotic).
    let probabilities = [0.1, 0.2, 0.3, 0.4, 0.5];
    let heights = 5..=10usize;
    let probe_tree = typed_strategy::<TreeQuorum, _>(ProbeTree::new());
    let mut plan =
        EvalPlan::new(config.section_seed("tree-exponent")).trials(config.trials.min(3_000));
    for p in probabilities {
        for height in heights.clone() {
            let tree = spec_system(SystemSpec::Tree { height });
            plan.probe(&tree, &probe_tree, ColoringSource::iid(p));
        }
    }
    let report = config.engine().run(&plan);

    let mut table = Table::new(["p", "fitted exponent", "paper exponent log2(1+p)"]);
    let per_sweep = heights.clone().count();
    for (i, p) in probabilities.into_iter().enumerate() {
        let fit = fit_cells(&report.cells[i * per_sweep..(i + 1) * per_sweep]);
        table.add_row(vec![
            p.to_string(),
            fmt(fit.exponent),
            fmt(bounds::tree_probabilistic_exponent(p)),
        ]);
    }
    table
}

/// Reproduces Theorem 3.8: the HQS probabilistic exponent at `p = 1/2`
/// (`log_3 2.5`) versus biased `p` (`log_3 2`), plus the exact `T(h) = 2.5
/// T(h−1)` recursion check on small heights.
pub fn hqs_exponent(config: &ReproConfig) -> Table {
    let mut rng = config.rng();
    let probabilities = [0.1, 0.3, 0.5];
    let heights = 2..=7usize;
    let probe_hqs = typed_strategy::<Hqs, _>(ProbeHqs::new());
    let mut plan =
        EvalPlan::new(config.section_seed("hqs-exponent")).trials(config.trials.min(3_000));
    for p in probabilities {
        for height in heights.clone() {
            let hqs = spec_system(SystemSpec::Hqs { height });
            plan.probe(&hqs, &probe_hqs, ColoringSource::iid(p));
        }
    }
    let report = config.engine().run(&plan);

    let mut table = Table::new(["p", "fitted exponent", "paper exponent"]);
    let per_sweep = heights.clone().count();
    for (i, p) in probabilities.into_iter().enumerate() {
        let fit = fit_cells(&report.cells[i * per_sweep..(i + 1) * per_sweep]);
        let paper = if (p - 0.5f64).abs() < 1e-9 {
            format!(
                "{} (log3 2.5)",
                fmt(bounds::hqs_probabilistic_exponent_symmetric())
            )
        } else {
            format!(
                "≤ {} (log3 2, asymptotic)",
                fmt(bounds::hqs_probabilistic_exponent_biased())
            )
        };
        table.add_row(vec![p.to_string(), fmt(fit.exponent), paper]);
    }
    // Recursion check: the exact expected cost of Probe_HQS at p = 1/2 equals
    // 2.5^h (heights 1 and 2 are small enough for exhaustive enumeration; the
    // larger heights are covered by the Monte-Carlo sweep above).
    for h in 1..=2usize {
        let hqs = Hqs::new(h).unwrap();
        let exact_cost = config
            .engine()
            .install(|| exhaustive_expected_probes(&hqs, &ProbeHqs::new(), 0.5, 1, &mut rng));
        table.add_row(vec![
            format!("T({h}) at p=1/2"),
            fmt(exact_cost),
            format!("2.5^h = {}", fmt(2.5f64.powi(h as i32))),
        ]);
    }
    table
}

/// Reproduces the randomized upper bounds of Section 4: Theorem 4.2 (Maj),
/// Theorem 4.4 / Corollary 4.5 (CW, Triang, Wheel) and Theorem 4.7 (Tree).
pub fn randomized(config: &ReproConfig) -> Table {
    // The worst-case searches go through the legacy estimators, so pin the
    // whole table to the configured engine thread count.
    config.engine().install(|| randomized_inner(config))
}

fn randomized_inner(config: &ReproConfig) -> Table {
    let mut rng = config.rng();
    let trials = config.trials;
    let mut table = Table::new([
        "system",
        "algorithm",
        "measured worst case",
        "paper value / bound",
    ]);

    let maj = Majority::new(9).unwrap();
    let worst = estimate_worst_case(&maj, &RProbeMaj::new(), (trials / 10).max(100), &mut rng);
    table.add_row(vec![
        "Maj(9)".into(),
        "R_Probe_Maj".into(),
        fmt(worst.expected_probes),
        format!(
            "= n − (n−1)/(n+3) = {}",
            fmt(bounds::maj_randomized_exact(9))
        ),
    ]);

    let wheel = CrumblingWalls::wheel(12).unwrap();
    let worst = estimate_worst_case(&wheel, &RProbeCw::new(), (trials / 10).max(100), &mut rng);
    table.add_row(vec![
        "Wheel(12)".into(),
        "R_Probe_CW".into(),
        fmt(worst.expected_probes),
        format!("= n − 1 = {}", fmt(bounds::wheel_randomized(12))),
    ]);

    let triang = CrumblingWalls::triang(5).unwrap();
    let n = triang.universe_size();
    let worst = estimate_worst_case(&triang, &RProbeCw::new(), (trials / 20).max(50), &mut rng);
    table.add_row(vec![
        "Triang(5)".into(),
        "R_Probe_CW".into(),
        fmt(worst.expected_probes),
        format!(
            "≤ max_j{{…}} = {} (Cor 4.5: ≤ {})",
            fmt(bounds::cw_randomized_upper(triang.widths())),
            fmt(bounds::triang_randomized_upper(n, 5))
        ),
    ]);

    let tree = TreeQuorum::new(3).unwrap();
    let hard = InputDistribution::tree_hard(&tree);
    let colorings: Vec<Coloring> = hard.support().iter().map(|(c, _)| c.clone()).collect();
    let worst = worst_case_over_colorings(
        &tree,
        &RProbeTree::new(),
        &colorings,
        (trials / 20).max(50),
        &mut rng,
    );
    table.add_row(vec![
        "Tree(h=3, n=15)".into(),
        "R_Probe_Tree".into(),
        fmt(worst.expected_probes),
        format!("≤ 5n/6 + 1/6 = {}", fmt(bounds::tree_randomized_upper(15))),
    ]);

    table
}

/// Reproduces the Yao lower bounds of Section 4 (Theorems 4.2, 4.6 and 4.8) by
/// computing the exact optimal deterministic cost against the paper's hard
/// distributions on small instances, next to the closed-form values.
pub fn lower_bounds(_config: &ReproConfig) -> Table {
    let mut table = Table::new([
        "system",
        "hard distribution",
        "exact Yao bound",
        "paper formula",
    ]);

    for n in [3usize, 5, 7, 9] {
        let maj = Majority::new(n).unwrap();
        let hard = InputDistribution::majority_hard(&maj);
        let bound = exact::optimal_cost(&maj, exact::Law::Support(&hard)).unwrap();
        table.add_row(vec![
            format!("Maj({n})"),
            "exactly (n+1)/2 red".into(),
            fmt(bound),
            format!("n − (n−1)/(n+3) = {}", fmt(bounds::maj_randomized_exact(n))),
        ]);
    }

    for widths in [vec![1usize, 2, 3], vec![1, 3, 4], vec![1, 4, 2, 3]] {
        let wall = CrumblingWalls::new(widths.clone()).unwrap();
        let n = wall.universe_size();
        let k = wall.row_count();
        let hard = InputDistribution::cw_hard(&wall);
        let bound = exact::optimal_cost(&wall, exact::Law::Support(&hard)).unwrap();
        table.add_row(vec![
            format!("CW{widths:?}"),
            "one green per row".into(),
            fmt(bound),
            format!("≥ (n+k)/2 = {}", fmt(bounds::cw_randomized_lower(n, k))),
        ]);
    }

    for h in [1usize, 2] {
        let tree = TreeQuorum::new(h).unwrap();
        let n = tree.universe_size();
        let hard = InputDistribution::tree_hard(&tree);
        let bound = exact::optimal_cost(&tree, exact::Law::Support(&hard)).unwrap();
        table.add_row(vec![
            format!("Tree(h={h})"),
            "2 red per bottom subtree".into(),
            fmt(bound),
            format!("= 2(n+1)/3 = {}", fmt(bounds::tree_randomized_lower(n))),
        ]);
    }

    table
}

/// Reproduces the HQS randomized-algorithm comparison: `R_Probe_HQS`
/// (Proposition 4.9, exponent `log_3 8/3 ≈ 0.893`) versus `IR_Probe_HQS`
/// (Theorem 4.10, exponent `≈ 0.887`), on the worst-case input family of
/// Lemma 4.11.
pub fn hqs_randomized(config: &ReproConfig) -> Table {
    let cells = run_hqs_randomized_cells(config, 2..=7);
    let mut table = Table::new([
        "height",
        "n",
        "R_Probe_HQS mean",
        "IR_Probe_HQS mean",
        "IR saves",
    ]);
    for (height, pair) in (2..=7usize).zip(cells.chunks_exact(2)) {
        let (plain, improved) = (&pair[0], &pair[1]);
        table.add_row(vec![
            height.to_string(),
            plain.universe_size.unwrap().to_string(),
            fmt(plain.estimate.mean),
            fmt(improved.estimate.mean),
            format!(
                "{:.1}%",
                100.0 * (plain.estimate.mean - improved.estimate.mean) / plain.estimate.mean
            ),
        ]);
    }
    // The exponent fits come from the same memoised cells.
    let (plain_fit, improved_fit) = hqs_randomized_exponents(config);
    table.add_row(vec![
        "exponent".into(),
        "-".into(),
        format!(
            "{} (paper: {})",
            fmt(plain_fit),
            fmt(bounds::hqs_randomized_exponent_plain())
        ),
        format!(
            "{} (paper: {})",
            fmt(improved_fit),
            fmt(bounds::hqs_randomized_exponent_improved())
        ),
        format!(
            "lower bound {}",
            fmt(bounds::hqs_randomized_exponent_lower())
        ),
    ]);
    table
}

/// Reproduces the technical lemmas of Section 2.4 (Lemmas 2.4, 2.8, 2.9)
/// by printing the closed forms next to exact/simulated values.
pub fn lemmas_table(config: &ReproConfig) -> Table {
    // The urn simulations are custom Monte-Carlo cells on the same engine.
    let urn_jth = [(5usize, 5usize, 3usize), (10, 2, 10), (3, 9, 1)];
    let urn_both = [(1usize, 9usize), (4, 4), (7, 2)];
    let mut plan = EvalPlan::new(config.section_seed("lemmas")).trials(config.trials);
    for (r, g, j) in urn_jth {
        plan.custom(
            format!("urn jth-red r={r} g={g} j={j}"),
            config.trials,
            move |_, rng| {
                use rand::seq::SliceRandom;
                let mut order: Vec<bool> = std::iter::repeat_n(true, r)
                    .chain(std::iter::repeat_n(false, g))
                    .collect();
                order.shuffle(rng);
                let mut reds = 0usize;
                for (draw, is_red) in order.iter().enumerate() {
                    if *is_red {
                        reds += 1;
                        if reds == j {
                            return (draw + 1) as f64;
                        }
                    }
                }
                unreachable!("j <= r, so the j-th red is always drawn")
            },
        );
    }
    for (r, g) in urn_both {
        plan.custom(
            format!("urn both-colors r={r} g={g}"),
            config.trials,
            move |_, rng| {
                use rand::seq::SliceRandom;
                let mut order: Vec<bool> = std::iter::repeat_n(true, r)
                    .chain(std::iter::repeat_n(false, g))
                    .collect();
                order.shuffle(rng);
                let first = order[0];
                (order.iter().position(|&c| c != first).unwrap() + 1) as f64
            },
        );
    }
    let report = config.engine().run(&plan);

    let mut table = Table::new(["lemma", "parameters", "formula", "exact / simulated"]);
    for (n, p) in [(50usize, 0.5f64), (50, 0.3), (200, 0.5)] {
        table.add_row(vec![
            "2.4 grid walk".into(),
            format!("N={n}, p={p}"),
            fmt(lemmas::grid_exit_time_asymptotic(n, p)),
            fmt(lemmas::grid_exit_time_exact(n, p)),
        ]);
    }
    for ((r, g, j), cell) in urn_jth.into_iter().zip(&report.cells[0..3]) {
        table.add_row(vec![
            "2.8 urn (j-th red)".into(),
            format!("r={r}, g={g}, j={j}"),
            fmt(lemmas::expected_draws_to_jth_red(r, g, j)),
            fmt(cell.estimate.mean),
        ]);
    }
    for ((r, g), cell) in urn_both.into_iter().zip(&report.cells[3..6]) {
        table.add_row(vec![
            "2.9 urn (both colors)".into(),
            format!("r={r}, g={g}"),
            fmt(lemmas::expected_draws_to_both_colors(r, g)),
            fmt(cell.estimate.mean),
        ]);
    }
    table
}

/// Reproduces the availability facts used throughout the paper (Fact 2.3 and
/// the Tree/HQS availability recursions).
pub fn availability_table(_config: &ReproConfig) -> Table {
    let mut table = Table::new(["system", "p", "F_p (exact)", "check"]);
    let systems: Vec<(&str, Box<dyn QuorumSystem>)> = vec![
        ("Maj(7)", Box::new(Majority::new(7).unwrap())),
        ("Wheel(7)", Box::new(Wheel::new(7).unwrap())),
        ("Triang(3)", Box::new(CrumblingWalls::triang(3).unwrap())),
        ("Tree(h=2)", Box::new(TreeQuorum::new(2).unwrap())),
        ("HQS(h=2)", Box::new(Hqs::new(2).unwrap())),
    ];
    for (name, system) in &systems {
        for p in [0.1, 0.3, 0.5] {
            let fp = exact_failure_probability(system.as_ref(), p).unwrap();
            let fq = exact_failure_probability(system.as_ref(), 1.0 - p).unwrap();
            table.add_row(vec![
                (*name).into(),
                p.to_string(),
                fmt(fp),
                format!(
                    "F_p ≤ p: {}; F_p + F_1−p = {}",
                    fp <= p + 1e-12,
                    fmt(fp + fq)
                ),
            ]);
        }
    }
    // Closed-form recursions vs enumeration.
    let tree = TreeQuorum::new(2).unwrap();
    let hqs = Hqs::new(2).unwrap();
    for p in [0.3, 0.5] {
        table.add_row(vec![
            "Tree recursion".into(),
            p.to_string(),
            fmt(probequorum::analysis::availability::tree_failure_probability(2, p)),
            format!(
                "enumeration {}",
                fmt(exact_failure_probability(&tree, p).unwrap())
            ),
        ]);
        table.add_row(vec![
            "HQS recursion".into(),
            p.to_string(),
            fmt(probequorum::analysis::availability::hqs_failure_probability(2, p)),
            format!(
                "enumeration {}",
                fmt(exact_failure_probability(&hqs, p).unwrap())
            ),
        ]);
    }
    table
}

/// The correlated-failure experiment: probe complexity and availability as
/// the correlation strength sweeps from i.i.d. (`0`) to zone-wholesale
/// (`1`) at a fixed per-element failure marginal of 0.3.
///
/// Every system keeps `n ≤ 24` so the availability column is **exact**
/// (enumeration over all colorings, weighted by the zoned model); the
/// `F_iid` column shows what the paper's independent analysis would predict
/// at the same marginal — the gap is the price of correlation.
pub fn zoned(config: &ReproConfig) -> Table {
    let marginal = 0.3;
    let correlations = [0.0, 0.25, 0.5, 0.75, 1.0];

    struct ZonedSystem {
        system: DynSystem,
        strategy: probequorum::sim::eval::DynProbeStrategy,
    }
    let systems: Vec<ZonedSystem> = vec![
        ZonedSystem {
            system: spec_system(SystemSpec::Majority { n: 15 }),
            strategy: typed_strategy::<Majority, _>(ProbeMaj::new()),
        },
        ZonedSystem {
            system: spec_system(SystemSpec::Triang { rows: 5 }),
            strategy: typed_strategy::<CrumblingWalls, _>(ProbeCw::new()),
        },
        ZonedSystem {
            system: spec_system(SystemSpec::Tree { height: 3 }),
            strategy: typed_strategy::<TreeQuorum, _>(ProbeTree::new()),
        },
        ZonedSystem {
            system: spec_system(SystemSpec::Hqs { height: 2 }),
            strategy: typed_strategy::<Hqs, _>(ProbeHqs::new()),
        },
    ];

    let mut plan = EvalPlan::new(config.section_seed("zoned")).trials(config.trials);
    for entry in &systems {
        let n = entry.system.universe_size();
        let zones = (n / 3).max(2);
        for &c in &correlations {
            plan.probe(
                &entry.system,
                &entry.strategy,
                ColoringSource::zoned_correlated(zones, marginal, c),
            );
        }
    }
    let report = config.engine().run(&plan);

    let mut table = Table::new([
        "system",
        "n",
        "zones",
        "corr",
        "q",
        "p",
        "mean probes",
        "F (exact)",
        "F_iid",
    ]);
    let mut cells = report.cells.iter();
    for entry in &systems {
        let n = entry.system.universe_size();
        let zones = (n / 3).max(2);
        let exact = entry.system.as_quorum_system();
        let f_iid = exact_fp(exact, marginal).unwrap();
        for &c in &correlations {
            let cell = cells.next().expect("one cell per system × correlation");
            let (q, p) = zoned_params(marginal, c);
            let f_zoned = zoned_failure_probability(exact, zones, q, p).unwrap();
            table.add_row(vec![
                entry.system.name(),
                n.to_string(),
                zones.to_string(),
                c.to_string(),
                fmt(q),
                fmt(p),
                fmt(cell.estimate.mean),
                fmt(f_zoned),
                fmt(f_iid),
            ]);
        }
    }
    table
}

/// The churn experiment: time-averaged probe complexity and outage fraction
/// along seeded fail/repair Markov timelines, at two churn intensities with
/// the same stationary red fraction (0.25).
///
/// Probe means are time averages over the trajectory (trial `t` observes
/// step `t`); the outage fraction is the share of steps with no live quorum,
/// measured directly on the same shared timeline.
pub fn churn(config: &ReproConfig) -> Table {
    let systems: Vec<DynSystem> = vec![
        spec_system(SystemSpec::Majority { n: 101 }),
        spec_system(SystemSpec::Triang { rows: 10 }),
        spec_system(SystemSpec::Tree { height: 5 }),
        spec_system(SystemSpec::Hqs { height: 4 }),
    ];
    let strategies: Vec<probequorum::sim::eval::DynProbeStrategy> = vec![
        typed_strategy::<Majority, _>(ProbeMaj::new()),
        typed_strategy::<CrumblingWalls, _>(ProbeCw::new()),
        typed_strategy::<TreeQuorum, _>(ProbeTree::new()),
        typed_strategy::<Hqs, _>(ProbeHqs::new()),
    ];
    // Same stationary fraction, different mixing speed: slow churn leaves
    // failures in place for many steps, fast churn reshuffles them.
    let regimes = [("slow", 0.02, 0.06), ("fast", 0.2, 0.6)];

    let base_seed = config.section_seed("churn");
    // One probe trial per timeline step, so the probe mean and the outage
    // fraction below are measured over exactly the same window.
    let steps = config.trials.clamp(1, 4_096);
    let mut plan = EvalPlan::new(base_seed).trials(config.trials);
    let mut trajectories = Vec::new();
    for (index, (system, strategy)) in systems.iter().zip(&strategies).enumerate() {
        let n = system.universe_size();
        for (regime_index, &(_, fail, repair)) in regimes.iter().enumerate() {
            let seed = base_seed ^ ((index * regimes.len() + regime_index) as u64 + 1);
            let trajectory = Arc::new(ChurnTrajectory::generate(n, fail, repair, steps, seed));
            plan.probe_with_trials(
                system,
                strategy,
                ColoringSource::churn_trajectory(Arc::clone(&trajectory)),
                steps,
            );
            trajectories.push(trajectory);
        }
    }
    let report = config.engine().run(&plan);

    let mut table = Table::new([
        "system",
        "n",
        "regime",
        "fail",
        "repair",
        "stationary red",
        "time-avg probes",
        "outage fraction",
    ]);
    let mut cells = report.cells.iter();
    let mut trajectory_iter = trajectories.iter();
    for system in &systems {
        for &(regime, fail, repair) in &regimes {
            let cell = cells.next().expect("one cell per system × regime");
            let trajectory = trajectory_iter.next().expect("one trajectory per cell");
            let outages = trajectory
                .iter()
                .filter(|coloring| !system.has_green_quorum(coloring))
                .count();
            table.add_row(vec![
                system.name(),
                system.universe_size().to_string(),
                regime.into(),
                fail.to_string(),
                repair.to_string(),
                fmt(trajectory.stationary_red_fraction()),
                fmt(cell.estimate.mean),
                fmt(outages as f64 / trajectory.len() as f64),
            ]);
        }
    }
    table
}

/// The delta engine under churn: incremental re-evaluation via XOR
/// word-mask deltas, validated against from-scratch evaluation and timed
/// against it.
///
/// Returns two tables:
///
/// * the **equivalence table** (`family, n, regime, fail, repair, steps,
///   flips, verdict_changes, outage_frac, agree`) — every step of a churn
///   timeline evaluated both incrementally (the family's [`DeltaEvaluator`])
///   and from scratch, on every family of [`SystemSpec::FAMILIES`] under a
///   slow and a fast regime. The `agree` flag is "1" iff every verdict
///   matched.
/// * the **throughput table** (`family, n, path, steps, wall_ms,
///   steps_per_s, speedup, peak_rss_mib`) — delta-vs-scratch steps/second
///   over a pre-materialized window at steady-state low churn
///   (fail 1/64, repair 1/8), timed as eight alternating scratch and delta
///   blocks whose paired ratios' median is the `speedup` cell, plus a
///   streaming 10⁶-step walk row whose `peak_rss_mib` cell records the
///   process's high-water RSS (an eager 10⁶-step trajectory at n ≈ 4096
///   would need ~500 MiB on its own).
pub fn churn_delta(config: &ReproConfig) -> (Table, Table) {
    churn_delta_over(config, 1_000_000)
}

/// [`churn_delta`] with an explicit streaming-walk horizon (tests shrink it
/// — a million debug-mode steps are too slow for unit tests).
fn churn_delta_over(config: &ReproConfig, walk_steps: usize) -> (Table, Table) {
    use std::hint::black_box;
    use std::time::{Duration, Instant};

    /// How many alternating scratch/delta blocks the timed repeats split
    /// into (a divisor of the repeats).
    const SPEEDUP_BLOCKS: usize = 8;

    let base_seed = config.section_seed("churn-delta");
    // Every family, in `FAMILIES` order: each one's seeds derive from its
    // index there.
    let family_at = |family, hint| {
        let spec = SystemSpec::family_with_size_hint(family, hint).expect("a spec family");
        spec.build().expect("family specs are valid at every hint")
    };

    // Equivalence: every step checked both ways, all families, two regimes.
    let steps = config.trials.clamp(64, 2_048);
    let regimes = [("slow", 1.0 / 64.0, 1.0 / 8.0), ("fast", 0.2, 0.6)];
    let mut equivalence = Table::new([
        "family",
        "n",
        "regime",
        "fail",
        "repair",
        "steps",
        "flips",
        "verdict_changes",
        "outage_frac",
        "agree",
    ]);
    for (family_index, family) in SystemSpec::FAMILIES.into_iter().enumerate() {
        let system = family_at(family, 128);
        let n = system.universe_size();
        for (regime_index, &(regime, fail, repair)) in regimes.iter().enumerate() {
            let seed = base_seed ^ ((family_index * regimes.len() + regime_index) as u64 + 1);
            let trajectory = ChurnTrajectory::generate(n, fail, repair, steps, seed);
            let mut evaluator = delta_evaluator_for(&system);
            let mut walker = trajectory.walk();
            let mut agree = true;
            let mut flips = 0usize;
            let mut verdict_changes = 0usize;
            let mut outages = 0usize;
            let mut previous: Option<bool> = None;
            while let Some((coloring, delta)) = walker.step() {
                let incremental = match previous {
                    None => evaluator.reset(coloring),
                    Some(_) => {
                        flips += delta.flip_count();
                        evaluator.update(coloring, delta)
                    }
                };
                agree &= incremental == system.has_green_quorum(coloring);
                if previous.is_some_and(|p| p != incremental) {
                    verdict_changes += 1;
                }
                if !incremental {
                    outages += 1;
                }
                previous = Some(incremental);
            }
            equivalence.add_row(vec![
                family.into(),
                n.to_string(),
                regime.into(),
                fmt(fail),
                fmt(repair),
                steps.to_string(),
                flips.to_string(),
                verdict_changes.to_string(),
                fmt(outages as f64 / steps as f64),
                if agree { "1" } else { "0" }.into(),
            ]);
        }
    }

    // Throughput: steady-state low-rate churn — per-element rates chosen so
    // a step flips O(1) elements (≈ 2n·fail·repair/(fail+repair) ≈ 2 at
    // n ≈ 4096), the regime a delta engine exists for. The window is
    // materialized outside the timed region so only evaluation is measured.
    let (fail, repair) = (1.0 / 4_096.0, 1.0 / 64.0);
    let window_steps = config.trials.clamp(64, 1_024);
    let repeats = 64usize;
    let mut rates = Table::new([
        "family",
        "n",
        "path",
        "steps",
        "wall_ms",
        "steps_per_s",
        "speedup",
        "peak_rss_mib",
    ]);
    for (family_index, family) in SystemSpec::FAMILIES.into_iter().enumerate() {
        let system = family_at(family, 4_096);
        let n = system.universe_size();
        let seed = base_seed ^ 0x5eed ^ (family_index as u64 + 1);
        let trajectory = ChurnTrajectory::generate(n, fail, repair, window_steps, seed);
        let mut window: Vec<(Coloring, ColoringDelta)> = Vec::with_capacity(window_steps);
        let mut walker = trajectory.walk();
        while let Some((coloring, delta)) = walker.step() {
            window.push((coloring.clone(), delta.clone()));
        }

        // The repeats run as alternating scratch and delta blocks, and the
        // speedup is the median of the blocks' paired ratios: a slow spell
        // on a busy host skews one pair, not the estimate the floor tests.
        let per_block = repeats / SPEEDUP_BLOCKS;
        let mut evaluator = delta_evaluator_for(&system);
        let mut verdicts = 0usize;
        let (mut scratch_wall, mut delta_wall) = (Duration::ZERO, Duration::ZERO);
        let mut ratios = Vec::with_capacity(SPEEDUP_BLOCKS);
        for _ in 0..SPEEDUP_BLOCKS {
            let started = Instant::now();
            for _ in 0..per_block {
                verdicts += scratch_pass(&system, &window);
            }
            let scratch = started.elapsed();
            let started = Instant::now();
            for _ in 0..per_block {
                verdicts += delta_pass(evaluator.as_mut(), &window);
            }
            let delta = started.elapsed();
            ratios.push(scratch.as_secs_f64() / delta.as_secs_f64());
            scratch_wall += scratch;
            delta_wall += delta;
        }
        black_box(verdicts);
        ratios.sort_by(f64::total_cmp);
        let speedup = (ratios[SPEEDUP_BLOCKS / 2 - 1] + ratios[SPEEDUP_BLOCKS / 2]) / 2.0;

        let timed_steps = repeats * window_steps;
        let scratch_rate = timed_steps as f64 / scratch_wall.as_secs_f64();
        let delta_rate = timed_steps as f64 / delta_wall.as_secs_f64();
        for (path, wall, rate, speedup) in [
            ("scratch", scratch_wall, scratch_rate, None),
            ("delta", delta_wall, delta_rate, Some(speedup)),
        ] {
            rates.add_row(vec![
                family.into(),
                n.to_string(),
                path.into(),
                timed_steps.to_string(),
                format!("{:.2}", wall.as_secs_f64() * 1_000.0),
                format!("{:.0}", rate),
                speedup.map_or_else(|| "-".into(), |s| format!("{s:.1}x")),
                "-".into(),
            ]);
        }
    }

    // The streaming walk: a long horizon at constant memory, delta-evaluated
    // end to end. The trajectory stores only its baseline + one cursor.
    let system = family_at("Grid", 4_096);
    let n = system.universe_size();
    let trajectory = ChurnTrajectory::generate(n, fail, repair, walk_steps, base_seed ^ 0xa1c);
    let mut evaluator = delta_evaluator_for(&system);
    let mut walker = trajectory.walk();
    let mut verdicts = 0usize;
    let mut primed = false;
    let started = Instant::now();
    while let Some((coloring, delta)) = walker.step() {
        let verdict = if primed {
            evaluator.update(coloring, delta)
        } else {
            primed = true;
            evaluator.reset(coloring)
        };
        verdicts += usize::from(verdict);
    }
    let walk_wall = started.elapsed();
    black_box(verdicts);
    rates.add_row(vec![
        "Grid".into(),
        n.to_string(),
        "stream-walk".into(),
        walk_steps.to_string(),
        format!("{:.2}", walk_wall.as_secs_f64() * 1_000.0),
        format!("{:.0}", walk_steps as f64 / walk_wall.as_secs_f64()),
        "-".into(),
        peak_rss_bytes().map_or_else(
            || "-".into(),
            |rss| format!("{:.0}", rss as f64 / (1024.0 * 1024.0)),
        ),
    ]);

    (equivalence, rates)
}

/// One scratch pass of [`churn_delta`]'s throughput table: every coloring
/// of the window evaluated whole; returns the verdicts that hold. Out of
/// line, like [`delta_pass`], so that every pass runs one copy of its loop.
#[inline(never)]
fn scratch_pass(system: &DynQuorumSystem, window: &[(Coloring, ColoringDelta)]) -> usize {
    (window.iter())
        .filter(|(coloring, _)| system.has_green_quorum(std::hint::black_box(coloring)))
        .count()
}

/// One delta pass of [`churn_delta`]'s throughput table: a reset on the
/// window's first coloring, then one update per step; returns the verdicts
/// that hold. The window replays, so the evaluator's branches repeat from
/// pass to pass and the branch predictor learns them; a caller that inlined
/// and unrolled this pass would split that learning across copies of the
/// loop (eight unrolled copies took 2–3× the time per step on Grid 4096).
#[inline(never)]
fn delta_pass(
    evaluator: &mut (dyn DeltaEvaluator + Send),
    window: &[(Coloring, ColoringDelta)],
) -> usize {
    let mut verdicts = usize::from(evaluator.reset(std::hint::black_box(&window[0].0)));
    for (coloring, delta) in &window[1..] {
        verdicts += usize::from(evaluator.update(std::hint::black_box(coloring), delta));
    }
    verdicts
}

/// The full scenario matrix: every registry system × every compatible
/// strategy × every standard failure scenario, one engine pass.
///
/// This is the table the `bench-smoke` CI job captures into
/// `BENCH_<sha>.json` on every push, so the perf and complexity trajectory
/// of the whole registry is recorded over time. Output is bit-identical for
/// any `REPRO_THREADS`.
pub fn scenario_matrix(config: &ReproConfig) -> Table {
    let systems_registry = SystemRegistry::paper();
    let strategies_registry = StrategyRegistry::paper();
    let scenarios = ScenarioRegistry::standard();

    let systems: Vec<DynSystem> = systems_registry
        .entries()
        .iter()
        .map(|entry| entry.build(30))
        .collect();
    let strategies: Vec<probequorum::sim::eval::DynProbeStrategy> = strategies_registry
        .entries()
        .iter()
        .map(|entry| (entry.build)())
        .collect();

    let mut plan =
        EvalPlan::new(config.section_seed("scenario-matrix")).trials(config.trials.min(2_000));
    plan.matrix(&systems, &strategies, &scenarios);
    config.engine().run(&plan).to_table()
}

/// Scalar Monte-Carlo availability of `system` under `model`, plus
/// bit-agreement with `native` on the identical colorings.
fn compose_mc_availability(
    system: &DynQuorumSystem,
    native: Option<&DynQuorumSystem>,
    model: &FailureModel,
    seed: u64,
    trials: usize,
) -> (f64, bool) {
    let n = system.universe_size();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coloring = Coloring::all_green(n);
    let mut green = 0usize;
    let mut agree = true;
    for trial in 0..trials {
        model.sample_into(n, trial as u64, &mut rng, &mut coloring);
        let verdict = system.has_green_quorum(&coloring);
        green += usize::from(verdict);
        if let Some(native) = native {
            agree &= native.has_green_quorum(&coloring) == verdict;
        }
    }
    (green as f64 / trials as f64, agree)
}

/// Checks the word-parallel lane circuit against scalar evaluation on
/// model-sampled lane words: every one of the 64 packed trials per round
/// must produce the same verdict both ways.
fn compose_lane_agreement(
    system: &DynQuorumSystem,
    model: &FailureModel,
    seed: u64,
    rounds: usize,
) -> bool {
    let n = system.universe_size();
    let mut lanes = vec![0u64; n];
    let mut coloring = Coloring::all_green(n);
    let mut agree = true;
    for round in 0..rounds {
        let mut rngs = [StdRng::seed_from_u64(seed ^ (round as u64 + 1))];
        model.sample_green_lanes(n, round as u64, &mut rngs, &mut lanes);
        let mut word = 0u64;
        assert!(
            system.green_quorum_lane_block(&lanes, 1, std::slice::from_mut(&mut word)),
            "compositions implement lane evaluation"
        );
        for lane in 0..64 {
            for (element, bits) in lanes.iter().enumerate() {
                let green = (bits >> lane) & 1 == 1;
                coloring.set_color(element, if green { Color::Green } else { Color::Red });
            }
            agree &= ((word >> lane) & 1 == 1) == system.has_green_quorum(&coloring);
        }
    }
    agree
}

/// Replays a churn trajectory through the composition's delta evaluator,
/// checking every step against from-scratch evaluation.
fn compose_delta_agreement(system: &DynQuorumSystem, seed: u64, steps: usize) -> bool {
    let n = system.universe_size();
    let trajectory = ChurnTrajectory::generate(n, 0.1, 0.3, steps, seed);
    let mut evaluator = delta_evaluator_for(system);
    let mut walker = trajectory.walk();
    let mut agree = true;
    let mut primed = false;
    while let Some((coloring, delta)) = walker.step() {
        let incremental = if primed {
            evaluator.update(coloring, delta)
        } else {
            primed = true;
            evaluator.reset(coloring)
        };
        agree &= incremental == system.has_green_quorum(coloring);
    }
    agree
}

/// The **compose** experiment: recursive threshold compositions behind the
/// [`SystemSpec`] construction API, certified several independent ways.
///
/// The first rows build each shipped composition scenario — Tree, HQS and
/// Grid re-expressed as `Compose` trees plus the 5×5 organization majority —
/// and report, under i.i.d. failures at p = 0.3:
///
/// * exact minimal-quorum / minimal-blocking-set counts from the
///   oracle-driven branch-and-bound of `quorum_core::minimal`, with
///   `intersect = 1` certifying every pair of minimal quorums intersects
///   (the composition really is a quorum system);
/// * certified availability bounds `[avail_lo, avail_hi]` from the blocking
///   sets, which must bracket the availability (exact for `n ≤ 24`,
///   Monte-Carlo within noise beyond);
/// * an `agree` flag that ANDs every cross-check the row runs: lane circuit
///   vs scalar evaluation, delta evaluator vs from-scratch churn replay,
///   bit-identical verdicts against the native Tree/HQS/Grid construction
///   on shared colorings, and enumeration-vs-DP quorum sizes.
///
/// The organization-outage sweep rows re-measure the 5×5 organization
/// majority under [`FailureModel::org_zoned_correlated`] at correlations
/// 0, 0.5 and 1: the same per-element marginal, arranged from independent
/// to wholesale-by-operator, with the lane sampler checked against scalar
/// sampling in `agree`. The final row drives the composition through the
/// live cluster runtime and records sim-vs-live agreement.
///
/// Every `agree` is printed `1`/`0`. The whole table is a pure function of
/// `(seed, trials)`.
pub fn compose(config: &ReproConfig) -> Table {
    let base_seed = config.section_seed("compose");
    let trials = config.trials.clamp(64, 2_048);
    let p = 0.3;

    let native_tree: DynQuorumSystem = Arc::new(TreeQuorum::new(3).unwrap());
    let native_hqs: DynQuorumSystem = Arc::new(Hqs::new(2).unwrap());
    let native_grid: DynQuorumSystem = Arc::new(Grid::new(4, 4).unwrap());
    let scenarios: Vec<(&str, SystemSpec, Option<DynQuorumSystem>)> = vec![
        (
            "tree(h=3)",
            SystemSpec::tree_as_compose(3),
            Some(native_tree),
        ),
        ("hqs(h=2)", SystemSpec::hqs_as_compose(2), Some(native_hqs)),
        (
            "grid(4x4)",
            SystemSpec::grid_as_compose(4, 4),
            Some(native_grid),
        ),
        ("org-maj(5x5)", SystemSpec::org_majority(5, 5), None),
    ];

    let mut table = Table::new([
        "spec",
        "n",
        "model",
        "min_q",
        "max_q",
        "quorums",
        "blocking",
        "intersect",
        "avail_lo",
        "avail_hi",
        "mc_avail",
        "agree",
    ]);

    for (index, (name, spec, native)) in scenarios.iter().enumerate() {
        let system = spec.build().expect("shipped composition specs are valid");
        let n = system.universe_size();
        let seed = base_seed ^ (index as u64 + 1);
        let model = FailureModel::iid(p);

        let quorums = minimal_quorums(system.as_ref()).expect("within the enumeration limits");
        let blocking = minimal_blocking_sets(system.as_ref()).expect("within the limits");
        let intersect = find_disjoint_pair(&quorums).is_none();
        let bounds = availability_bounds(&blocking, p);

        let (mc_avail, native_agree) =
            compose_mc_availability(&system, native.as_ref(), &model, seed, trials);
        let lane_agree = compose_lane_agreement(&system, &model, seed ^ 0x1a9e, trials / 64 + 1);
        let delta_agree = compose_delta_agreement(&system, seed ^ 0xde17a, trials.min(512));

        // Enumeration and the size DP must tell the same story.
        let sizes_agree = quorums.iter().map(ElementSet::len).min()
            == Some(system.min_quorum_size())
            && quorums.iter().map(ElementSet::len).max() == Some(system.max_quorum_size());
        // The certified bounds must bracket the availability: exactly when
        // the 2^n sweep is affordable, within Monte-Carlo noise beyond.
        let bounds_hold = if n <= 24 {
            let avail = 1.0 - exact_fp(system.as_ref(), p).expect("n <= 24");
            bounds.lower <= avail + 1e-12 && avail <= bounds.upper + 1e-12
        } else {
            let slack = 4.0 * (0.25 / trials as f64).sqrt();
            bounds.lower - slack <= mc_avail && mc_avail <= bounds.upper + slack
        };
        let agree =
            intersect && native_agree && lane_agree && delta_agree && sizes_agree && bounds_hold;

        table.add_row(vec![
            (*name).into(),
            n.to_string(),
            model.label(),
            system.min_quorum_size().to_string(),
            system.max_quorum_size().to_string(),
            quorums.len().to_string(),
            blocking.len().to_string(),
            if intersect { "1" } else { "0" }.into(),
            fmt(bounds.lower),
            fmt(bounds.upper),
            fmt(mc_avail),
            if agree { "1" } else { "0" }.into(),
        ]);
    }

    // Organization-outage sweep: same marginal, increasing correlation.
    let org_spec = SystemSpec::org_majority(5, 5);
    let org_system = org_spec.build().expect("valid");
    let orgs = Arc::new(
        org_spec
            .organizations()
            .expect("valid spec")
            .expect("org-majority declares organizations"),
    );
    let n = org_system.universe_size();
    for (sweep_index, correlation) in [0.0, 0.5, 1.0].into_iter().enumerate() {
        let model = FailureModel::org_zoned_correlated(Arc::clone(&orgs), p, correlation);
        let seed = base_seed ^ 0x0f6 ^ (sweep_index as u64 + 1);
        let (mc_avail, _) = compose_mc_availability(&org_system, None, &model, seed, trials);
        let lane_agree =
            compose_lane_agreement(&org_system, &model, seed ^ 0x1a9e, trials / 64 + 1);
        table.add_row(vec![
            "org-maj(5x5)".into(),
            n.to_string(),
            model.label(),
            org_system.min_quorum_size().to_string(),
            org_system.max_quorum_size().to_string(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            fmt(mc_avail),
            if lane_agree { "1" } else { "0" }.into(),
        ]);
    }

    // The live runtime probes the composition end to end: one
    // open-Poisson cell on the first network scenario, sim-vs-live.
    let sessions = config.trials.clamp(1, 100);
    let workload_config = open_poisson_workload(sessions, SimTime::from_micros(250));
    let scenario = network_scenarios(n, &workload_config)
        .into_iter()
        .next()
        .expect("the scenario battery is non-empty");
    let cell = WorkloadCell::new(
        erase_spec(&org_spec).expect("valid spec"),
        WorkloadStrategy::Paper(universal_strategy(SequentialScan::new())),
        ColoringSource::iid(0.05),
        "open-poisson",
        workload_config,
    )
    .with_scenario(&scenario);
    let outcome = run_live_cell(base_seed ^ 0x11fe, 0, &cell);
    if !outcome.agreement.agree {
        eprintln!(
            "[compose: live {} diverged:\n{}]",
            scenario.name,
            outcome.agreement.mismatches.join("\n")
        );
    }
    table.add_row(vec![
        "org-maj(5x5)".into(),
        n.to_string(),
        format!("live({})", scenario.name),
        org_system.min_quorum_size().to_string(),
        org_system.max_quorum_size().to_string(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        if outcome.agreement.agree { "1" } else { "0" }.into(),
    ]);

    table
}

/// The heavy-traffic **workload** experiment: three system families under
/// {paper strategy, least-loaded, power-of-two} × {open-loop Poisson,
/// closed-loop think-time} arrivals × two failure scenarios, executed on the
/// cluster's discrete-event workload engine.
///
/// Each row reports virtual-time throughput, p50/p95/p99 session latency,
/// mean probes per session and the per-node load-imbalance factor. All
/// numbers are functions of virtual time and the seed — **no wall clock** —
/// so the table is bit-identical for any `REPRO_THREADS`.
///
/// Sessions per cell are `REPRO_TRIALS` **capped at 1000** (36 discrete-event
/// simulations per run; quantiles converge long before that). The `sessions`
/// column of every row records the count actually used.
pub fn workload(config: &ReproConfig) -> Table {
    let sessions = config.trials.clamp(1, 1_000);

    let systems: Vec<(DynSystem, probequorum::sim::eval::DynProbeStrategy)> = vec![
        (
            spec_system(SystemSpec::Majority { n: 31 }),
            typed_strategy::<Majority, _>(ProbeMaj::new()),
        ),
        (
            spec_system(SystemSpec::Triang { rows: 8 }),
            typed_strategy::<CrumblingWalls, _>(ProbeCw::new()),
        ),
        (
            spec_system(SystemSpec::Tree { height: 4 }),
            typed_strategy::<TreeQuorum, _>(ProbeTree::new()),
        ),
    ];
    // One independent and one correlated failure regime: load-aware probing
    // must help (or at least not hurt) under both.
    let scenarios = [
        ColoringSource::iid(0.05),
        ColoringSource::zoned_correlated(6, 0.2, 0.75),
    ];
    let workloads = standard_workloads(sessions);

    let mut cells = Vec::new();
    for (system, paper) in &systems {
        for strategy in [
            WorkloadStrategy::Paper(Arc::clone(paper)),
            WorkloadStrategy::LeastLoaded,
            WorkloadStrategy::PowerOfTwo,
        ] {
            for (name, workload_config) in &workloads {
                for source in &scenarios {
                    cells.push(WorkloadCell::new(
                        system.clone(),
                        strategy.clone(),
                        source.clone(),
                        *name,
                        *workload_config,
                    ));
                }
            }
        }
    }

    let outcomes = run_workload_cells(&config.engine(), config.section_seed("workload"), &cells);
    outcomes_table(&outcomes)
}

/// The **network** experiment: the same heavy-traffic engine as
/// [`workload`], but with a message-level network between client and nodes —
/// probes are request/response pairs routed through loss, heavy-tailed
/// delays and timed partition windows (see
/// [`network_scenarios`]), and clients run session-level robustness
/// policies (bounded retry with backoff, hedged probes).
///
/// Three system families × the six-scenario battery (clean, lossy,
/// heavy-tail, minority partition, flapping partition, asymmetric split);
/// every faulty scenario runs twice — once with the **naive** single-attempt
/// policy and once with the scenario's recommended robust policy — so each
/// row pair shows what retries and hedging buy. The `clean` rows are the
/// control: the network every [`workload`] cell runs on.
///
/// Rows report ok-rate (sessions that located a quorum in their *observed*
/// coloring), virtual-time throughput, p50/p95/p99 session latency, probes,
/// messages and wasted-probe fraction per session. Deterministic: the table
/// is bit-identical for any `REPRO_THREADS`.
pub fn network(config: &ReproConfig) -> Table {
    let sessions = config.trials.clamp(1, 1_000);

    let systems: Vec<(DynSystem, probequorum::sim::eval::DynProbeStrategy)> = vec![
        (
            spec_system(SystemSpec::Majority { n: 31 }),
            typed_strategy::<Majority, _>(ProbeMaj::new()),
        ),
        (
            spec_system(SystemSpec::Triang { rows: 8 }),
            typed_strategy::<CrumblingWalls, _>(ProbeCw::new()),
        ),
        (
            spec_system(SystemSpec::Tree { height: 4 }),
            typed_strategy::<TreeQuorum, _>(ProbeTree::new()),
        ),
    ];
    let workload_config = open_poisson_workload(sessions, SimTime::from_micros(250));

    let mut cells = Vec::new();
    for (system, paper) in &systems {
        let n = system.universe_size();
        for scenario in network_scenarios(n, &workload_config) {
            // The clean scenario's recommended policy *is* the naive one, so
            // it contributes a single control row; every faulty scenario
            // gets a naive/robust pair.
            let mut policies = vec![scenario.policy];
            if !scenario.policy.is_sequential() {
                policies.push(ProbePolicy::sequential());
            }
            let cell = WorkloadCell::new(
                system.clone(),
                WorkloadStrategy::Paper(Arc::clone(paper)),
                ColoringSource::iid(0.05),
                "open-poisson",
                workload_config,
            )
            .with_scenario(&scenario);
            for policy in policies {
                cells.push(WorkloadCell {
                    policy,
                    ..cell.clone()
                });
            }
        }
    }

    let outcomes = run_workload_cells(&config.engine(), config.section_seed("network"), &cells);
    net_outcomes_table(&outcomes)
}

/// The **live** experiment: a slice of the [`network`] battery replayed on
/// the real-concurrency cluster runtime (`quorum_cluster::live` behind
/// [`Backend::Live`]), cross-validating every logical observable — per-session
/// ok/fail, probe sequences, observed colors, probe/message/waste/timeout
/// counts — against the discrete-event simulator that planned the trace.
///
/// Two system families × the six-scenario battery (clean, lossy, heavy-tail,
/// minority partition, flapping partition, asymmetric split), each under its
/// recommended robust policy. Returns two tables:
///
/// * the **agreement table** (`system, n, strategy, scenario, policy,
///   sessions, agree, ok_rate, probes, msgs, wasted`) — the observables are
///   the simulator's (pure functions of the seed), and `agree` is `1`
///   exactly when the live replay reproduced them all and drained its node
///   queues cleanly;
/// * the **throughput table** (`system, n, scenario, policy, sessions,
///   wall_ms, sessions_per_s, p50_ms, p99_ms`) — wall-clock data from the
///   live run.
pub fn live(config: &ReproConfig) -> (Table, Table) {
    // Every session is a real OS thread: bound the trace length so the
    // experiment stays cheap even at full REPRO_TRIALS.
    let sessions = config.trials.clamp(1, 200);

    let systems: Vec<(DynSystem, probequorum::sim::eval::DynProbeStrategy)> = vec![
        (
            spec_system(SystemSpec::Majority { n: 15 }),
            typed_strategy::<Majority, _>(ProbeMaj::new()),
        ),
        (
            spec_system(SystemSpec::Tree { height: 3 }),
            typed_strategy::<TreeQuorum, _>(ProbeTree::new()),
        ),
    ];
    let workload_config = open_poisson_workload(sessions, SimTime::from_micros(250));

    let mut agreement = Table::new([
        "system", "n", "strategy", "scenario", "policy", "sessions", "agree", "ok_rate", "probes",
        "msgs", "wasted",
    ]);
    let mut rates = Table::new([
        "system",
        "n",
        "scenario",
        "policy",
        "sessions",
        "wall_ms",
        "sessions_per_s",
        "p50_ms",
        "p99_ms",
    ]);
    let seed = config.section_seed("live");
    let mut index = 0u64;
    for (system, paper) in &systems {
        let n = system.universe_size();
        for scenario in network_scenarios(n, &workload_config) {
            let cell = WorkloadCell::new(
                system.clone(),
                WorkloadStrategy::Paper(Arc::clone(paper)),
                ColoringSource::iid(0.05),
                "open-poisson",
                workload_config,
            )
            .with_scenario(&scenario);
            let outcome = run_live_cell(seed, index, &cell);
            index += 1;
            if !outcome.agreement.agree {
                // Stdout must stay a pure function of the seed; the details
                // of a divergence go to stderr for the CI transcript.
                eprintln!(
                    "[live: {} × {} diverged:\n{}]",
                    outcome.sim.system,
                    scenario.name,
                    outcome.agreement.mismatches.join("\n")
                );
            }
            let sim = &outcome.sim;
            agreement.add_row(vec![
                sim.system.clone(),
                n.to_string(),
                sim.strategy.clone(),
                sim.net.clone(),
                sim.policy.clone(),
                sim.sessions.to_string(),
                if outcome.agreement.agree { "1" } else { "0" }.into(),
                format!("{:.3}", sim.success_rate),
                format!("{:.2}", sim.probes_per_session),
                format!("{:.2}", sim.messages_per_session),
                format!("{:.3}", sim.wasted_fraction),
            ]);
            let live = &outcome.live;
            rates.add_row(vec![
                sim.system.clone(),
                n.to_string(),
                sim.net.clone(),
                sim.policy.clone(),
                live.admitted.to_string(),
                format!("{:.1}", live.wall.as_secs_f64() * 1_000.0),
                format!("{:.0}", live.sessions_per_sec()),
                format!(
                    "{:.3}",
                    live.wall_latency_quantile(0.50)
                        .unwrap_or_default()
                        .as_secs_f64()
                        * 1_000.0
                ),
                format!(
                    "{:.3}",
                    live.wall_latency_quantile(0.99)
                        .unwrap_or_default()
                        .as_secs_f64()
                        * 1_000.0
                ),
            ]);
        }
    }
    (agreement, rates)
}

/// The **chaos** experiment: the process-failure battery replayed on the
/// real-concurrency cluster runtime. Three system families × the four-chaos
/// battery (crash-minority, rolling-restart, stall-flap, crash+partition
/// compound), each run twice — once with the **naive** client (no health
/// tracking) and once **health-aware** (the per-node EWMA circuit breaker of
/// `quorum_probe::health` sheds probes to open nodes and degrades
/// instead of timing out) — so each row pair shows what the breaker buys
/// while nodes crash, restart under supervision and stall.
///
/// Returns two tables:
///
/// * the **agreement table** (`system, n, strategy, scenario, policy,
///   sessions, agree, ok_rate, probes, wasted, degraded, lost, recovered,
///   recov_max_us`) — all observables are the simulator's (pure functions of
///   the seed); `agree` is `1` exactly when the live replay reproduced every
///   logical observable **and** drained its node queues cleanly
///   (`delivered == served + lost_to_crash`); `lost` counts requests
///   delivered into crashed nodes and dropped unserved (identical in both
///   backends); `recovered`/`recov_max_us` summarise
///   [`chaos_recovery_micros`] — how many disrupted nodes the trace saw
///   green again after their last disruption, and the slowest such recovery
///   in virtual microseconds;
/// * the **throughput table** (`system, n, scenario, policy, sessions,
///   wall_ms, sessions_per_s, p50_ms, p99_ms`) — wall-clock data from the
///   live run.
pub fn chaos(config: &ReproConfig) -> (Table, Table) {
    // Every session is a real OS thread; same bound as `live`.
    let sessions = config.trials.clamp(1, 200);

    let systems: Vec<(DynSystem, probequorum::sim::eval::DynProbeStrategy)> = vec![
        (
            spec_system(SystemSpec::Majority { n: 15 }),
            typed_strategy::<Majority, _>(ProbeMaj::new()),
        ),
        (
            spec_system(SystemSpec::Triang { rows: 5 }),
            typed_strategy::<CrumblingWalls, _>(ProbeCw::new()),
        ),
        (
            spec_system(SystemSpec::Tree { height: 3 }),
            typed_strategy::<TreeQuorum, _>(ProbeTree::new()),
        ),
    ];
    let workload_config = open_poisson_workload(sessions, SimTime::from_micros(250));

    let mut agreement = Table::new([
        "system",
        "n",
        "strategy",
        "scenario",
        "policy",
        "sessions",
        "agree",
        "ok_rate",
        "probes",
        "wasted",
        "degraded",
        "lost",
        "recovered",
        "recov_max_us",
    ]);
    let mut rates = Table::new([
        "system",
        "n",
        "scenario",
        "policy",
        "sessions",
        "wall_ms",
        "sessions_per_s",
        "p50_ms",
        "p99_ms",
    ]);
    let seed = config.section_seed("chaos");
    let mut index = 0u64;
    for (system, paper) in &systems {
        let n = system.universe_size();
        for scenario in chaos_scenarios(n, &workload_config) {
            for health in [false, true] {
                let cell = WorkloadCell::new(
                    system.clone(),
                    WorkloadStrategy::Paper(Arc::clone(paper)),
                    ColoringSource::iid(0.05),
                    "open-poisson",
                    workload_config,
                )
                .with_scenario(&scenario);
                let cell = WorkloadCell { health, ..cell };
                let outcome = run_live_cell(seed, index, &cell);
                index += 1;
                if !outcome.agreement.agree {
                    // Stdout must stay a pure function of the seed; the
                    // details of a divergence go to stderr.
                    eprintln!(
                        "[chaos: {} × {} diverged:\n{}]",
                        outcome.sim.system,
                        scenario.name,
                        outcome.agreement.mismatches.join("\n")
                    );
                }
                let drained = outcome.live.drained_clean();
                if !drained {
                    eprintln!(
                        "[chaos: {} × {} leaked requests: delivered {} != served {} + lost {}]",
                        outcome.sim.system,
                        scenario.name,
                        outcome.live.requests_delivered,
                        outcome.live.requests_served,
                        outcome.live.requests_lost_to_crash
                    );
                }
                let sim = &outcome.sim;
                // Naive and health-aware rows share the scenario's policy;
                // the suffix keeps the regression-gate key (system, n,
                // strategy, scenario, policy) unique per row.
                let policy_label = if health {
                    format!("{}+health", sim.policy)
                } else {
                    sim.policy.clone()
                };
                let recovery = chaos_recovery_micros(&outcome.trace, &cell.network.faults);
                let recovered = recovery.iter().filter(|(_, at)| at.is_some()).count();
                let recov_max = recovery.iter().filter_map(|(_, at)| *at).max();
                agreement.add_row(vec![
                    sim.system.clone(),
                    n.to_string(),
                    sim.strategy.clone(),
                    sim.net.clone(),
                    policy_label.clone(),
                    sim.sessions.to_string(),
                    if outcome.agreement.agree && drained {
                        "1"
                    } else {
                        "0"
                    }
                    .into(),
                    format!("{:.3}", sim.success_rate),
                    format!("{:.2}", sim.probes_per_session),
                    format!("{:.3}", sim.wasted_fraction),
                    sim.degraded.to_string(),
                    sim.lost_to_crash.to_string(),
                    format!("{recovered}/{}", recovery.len()),
                    recov_max.map_or_else(|| "-".into(), |us| us.to_string()),
                ]);
                let live = &outcome.live;
                rates.add_row(vec![
                    sim.system.clone(),
                    n.to_string(),
                    sim.net.clone(),
                    policy_label,
                    live.admitted.to_string(),
                    format!("{:.1}", live.wall.as_secs_f64() * 1_000.0),
                    format!("{:.0}", live.sessions_per_sec()),
                    format!(
                        "{:.3}",
                        live.wall_latency_quantile(0.50)
                            .unwrap_or_default()
                            .as_secs_f64()
                            * 1_000.0
                    ),
                    format!(
                        "{:.3}",
                        live.wall_latency_quantile(0.99)
                            .unwrap_or_default()
                            .as_secs_f64()
                            * 1_000.0
                    ),
                ]);
            }
        }
    }
    (agreement, rates)
}

/// Measures trials/second through the workspace's hottest paths, for the
/// Grid, Majority and Tree families at universe sizes ≈ {64, 256, 1024}:
///
/// * `probes/engine` — expected-probes estimation through the evaluation
///   engine (one `EvalPlan` cell, iid failures at p = 0.3);
/// * `avail/scalar` — the scalar Monte-Carlo availability estimator (one
///   coloring sampled and checked per trial);
/// * `avail/batched` — the word-parallel batched estimator (64 trials per
///   lane word through `green_quorum_lane_block`), with its speedup over
///   the scalar path in the last column.
///
/// Timings are wall-clock and therefore **not** deterministic.
pub fn throughput(config: &ReproConfig) -> Table {
    use std::time::Instant;

    let engine = config.engine();
    let probe_trials = config.trials;
    let scalar_trials = config.trials;
    // The batched path runs whole 64-trial blocks; give it enough work to
    // time meaningfully without slowing small CI runs.
    let batched_trials = config.trials * 16;

    let mut table = Table::new([
        "family",
        "n",
        "path",
        "trials",
        "wall_ms",
        "trials_per_sec",
        "speedup_vs_scalar",
    ]);
    let systems = SystemRegistry::paper();
    for hint in [64usize, 256, 1024] {
        let entries: [(&str, probequorum::sim::eval::DynProbeStrategy); 3] = [
            (
                "Grid",
                probequorum::sim::eval::universal_strategy(SequentialScan::new()),
            ),
            ("Maj", typed_strategy::<Majority, _>(ProbeMaj::new())),
            ("Tree", typed_strategy::<TreeQuorum, _>(ProbeTree::new())),
        ];
        for (family, strategy) in entries {
            let system = systems.build(family, hint).expect("a registry family");
            let n = system.universe_size();

            let mut plan = EvalPlan::new(config.section_seed("throughput")).trials(probe_trials);
            plan.probe(&system, &strategy, ColoringSource::iid(0.3));
            let started = Instant::now();
            let report = engine.run(&plan);
            let probes_wall = started.elapsed();
            assert!(report.cells[0].estimate.mean >= 1.0);

            let started = Instant::now();
            let mut rng = config.rng();
            let scalar = probequorum::analysis::availability::monte_carlo_failure_probability(
                system.as_quorum_system(),
                0.3,
                scalar_trials,
                &mut rng,
            )
            .expect("p=0.3 is a valid probability");
            let scalar_wall = started.elapsed();

            let started = Instant::now();
            let batched = probequorum::sim::batched_failure_probability(
                system.as_quorum_system(),
                0.3,
                batched_trials,
                config.section_seed("throughput-batched"),
            );
            let batched_wall = started.elapsed();
            // The two estimators must agree statistically on F_p: allow six
            // binomial standard errors of each at its own trial count.
            let tolerance = 6.0 * (0.25 / scalar_trials as f64).sqrt()
                + 6.0 * (0.25 / batched_trials as f64).sqrt();
            assert!(
                (scalar - batched.mean).abs() < tolerance,
                "{family}(n={n}): scalar F={scalar} vs batched F={}",
                batched.mean
            );

            let scalar_rate = scalar_trials as f64 / scalar_wall.as_secs_f64();
            let batched_rate = batched_trials as f64 / batched_wall.as_secs_f64();
            let rows = [
                ("probes/engine", probe_trials, probes_wall, None),
                ("avail/scalar", scalar_trials, scalar_wall, None),
                (
                    "avail/batched",
                    batched_trials,
                    batched_wall,
                    Some(batched_rate / scalar_rate),
                ),
            ];
            for (path, trials, wall, speedup) in rows {
                table.add_row(vec![
                    family.into(),
                    n.to_string(),
                    path.into(),
                    trials.to_string(),
                    format!("{:.1}", wall.as_secs_f64() * 1_000.0),
                    format!("{:.0}", trials as f64 / wall.as_secs_f64()),
                    speedup.map_or_else(|| "-".into(), |s| format!("{s:.1}x")),
                ]);
            }
        }
    }
    table
}

/// The process's peak resident-set size in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` where the proc filesystem is unavailable
/// (non-linux hosts). Best-effort: never panics.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

/// The million-element systems of the `scale` experiment: the 1000×1000
/// Grid (n = 10⁶), the complete binary tree of height 19 (n = 2²⁰ − 1) and
/// Majority over 10⁶ + 1 elements.
fn scale_systems() -> Vec<(&'static str, DynSystem)> {
    vec![
        (
            "Grid",
            spec_system(SystemSpec::Grid {
                rows: 1_000,
                cols: 1_000,
            }),
        ),
        ("Tree", spec_system(SystemSpec::Tree { height: 19 })),
        ("Maj", spec_system(SystemSpec::Majority { n: 1_000_001 })),
    ]
}

/// Demonstrates the lane engine at **n ≥ 10⁶**: estimates the failure
/// probability of Grid (1000×1000), Tree (height 19, n = 2²⁰ − 1) and Maj
/// (n = 10⁶ + 1) at p ∈ {1/4, 1/2} through
/// `batched_failure_probability_wide` at every supported lane-block width,
/// asserting that all widths return the identical estimate.
///
/// Returns two tables:
///
/// * the **availability table** (`family, n, p, trials, avail, fail_prob,
///   std_err`) — a pure function of the seed;
/// * the **throughput table** (`family, n, width, p, trials, wall_ms,
///   lane_trials_per_s`) — wall-clock lane-trials/second (universe size ×
///   trials / wall).
pub fn scale(config: &ReproConfig) -> (Table, Table) {
    scale_over(config, &scale_systems())
}

/// [`scale`] over an explicit system list (tests substitute small systems —
/// million-element universes are too slow for debug-mode unit tests).
fn scale_over(config: &ReproConfig, systems: &[(&str, DynSystem)]) -> (Table, Table) {
    use std::time::Instant;

    let trials = config.trials;
    let seed = config.section_seed("scale");
    let mut avail = Table::new([
        "family",
        "n",
        "p",
        "trials",
        "avail",
        "fail_prob",
        "std_err",
    ]);
    let mut lanes = Table::new([
        "family",
        "n",
        "width",
        "p",
        "trials",
        "wall_ms",
        "lane_trials_per_s",
    ]);
    for (family, system) in systems {
        let n = system.universe_size();
        // p = 1/4 and 1/2 have one- and two-word binary expansions, so the
        // Bernoulli fill stays cheap even at a million lanes per trial word.
        for p in [0.25, 0.5] {
            let mut reference: Option<(f64, f64)> = None;
            for width in probequorum::core::lanes::LANE_WIDTHS {
                let started = Instant::now();
                let estimate = probequorum::sim::batched_failure_probability_wide(
                    system.as_quorum_system(),
                    p,
                    trials,
                    seed,
                    width,
                );
                let wall = started.elapsed();
                // Every width consumes the same per-trial-word RNG streams,
                // so the estimates must be bit-identical, not merely close.
                match reference {
                    None => reference = Some((estimate.mean, estimate.std_error)),
                    Some(expected) => assert_eq!(
                        expected,
                        (estimate.mean, estimate.std_error),
                        "{family}(n={n}, p={p}): width {width} diverged"
                    ),
                }
                let lane_rate = n as f64 * trials as f64 / wall.as_secs_f64();
                lanes.add_row(vec![
                    (*family).into(),
                    n.to_string(),
                    width.to_string(),
                    format!("{p}"),
                    trials.to_string(),
                    format!("{:.1}", wall.as_secs_f64() * 1_000.0),
                    format!("{lane_rate:.0}"),
                ]);
            }
            let (fail_prob, std_err) = reference.expect("LANE_WIDTHS is non-empty");
            avail.add_row(vec![
                (*family).into(),
                n.to_string(),
                format!("{p}"),
                trials.to_string(),
                format!("{:.6}", 1.0 - fail_prob),
                format!("{fail_prob:.6}"),
                format!("{std_err:.6}"),
            ]);
        }
    }
    (avail, lanes)
}

/// Renders Figures 1–4 of the paper as ASCII art: the Triang system with a
/// shaded quorum, the Tree system with a shaded quorum, the HQS with the
/// quorum of Fig. 3, and the Maj3 decision tree of Fig. 4.
pub fn figures() -> String {
    let mut out = String::new();

    // Figure 1: Triang with rows (1,2,3,4); quorum = full row 2 plus one
    // representative below (elements shown 1-based, shaded with *).
    out.push_str("Figure 1 — the Triang system (rows 1,2,3,4); * marks a quorum\n");
    out.push_str("(full third row plus a representative from the row below):\n\n");
    let triang = CrumblingWalls::triang(4).unwrap();
    let quorum: Vec<usize> = vec![3, 4, 5, 7];
    for row in 0..triang.row_count() {
        let cells: Vec<String> = triang
            .row_elements(row)
            .map(|e| {
                if quorum.contains(&e) {
                    format!("[{:>2}*]", e + 1)
                } else {
                    format!("[{:>2} ]", e + 1)
                }
            })
            .collect();
        out.push_str(&format!("  {}\n", cells.join(" ")));
    }
    out.push('\n');

    // Figure 2: the Tree system of height 2 with a root-to-leaf quorum shaded.
    out.push_str("Figure 2 — the Tree system (height 2); * marks the quorum {root, right child, its leaf}:\n\n");
    let tree_quorum = [0usize, 2, 5];
    let label = |v: usize| {
        if tree_quorum.contains(&v) {
            format!("({}*)", v + 1)
        } else {
            format!("({} )", v + 1)
        }
    };
    out.push_str(&format!("            {}\n", label(0)));
    out.push_str("        /        \\\n");
    out.push_str(&format!("     {}        {}\n", label(1), label(2)));
    out.push_str("     /   \\      /   \\\n");
    out.push_str(&format!(
        "  {} {} {} {}\n\n",
        label(3),
        label(4),
        label(5),
        label(6)
    ));

    // Figure 3: HQS of height 2 with the quorum {1,2,5,6} (1-based) shaded.
    out.push_str(
        "Figure 3 — the HQS (height 2, 9 leaves); * marks the quorum {1,2,5,6} of the paper:\n\n",
    );
    let hqs_quorum = [0usize, 1, 4, 5];
    let leaf = |e: usize| {
        if hqs_quorum.contains(&e) {
            format!("{}*", e + 1)
        } else {
            format!("{} ", e + 1)
        }
    };
    out.push_str("                 [2-of-3]\n");
    out.push_str("          /          |          \\\n");
    out.push_str("      [2-of-3]   [2-of-3]   [2-of-3]\n");
    out.push_str("      /  |  \\    /  |  \\    /  |  \\\n");
    out.push_str(&format!(
        "     {} {} {}  {} {} {}  {} {} {}\n\n",
        leaf(0),
        leaf(1),
        leaf(2),
        leaf(3),
        leaf(4),
        leaf(5),
        leaf(6),
        leaf(7),
        leaf(8)
    ));

    // Figure 4: an optimal decision tree for Maj3.
    out.push_str("Figure 4 — an optimal probe decision tree for Maj3 (elements 1-based,\n");
    out.push_str("[+] = green quorum found, [-] = red quorum found):\n\n");
    let maj = Majority::new(3).unwrap();
    let (_, decision_tree) = exact::optimal_tree(&maj, exact::Law::Adversary).unwrap();
    out.push_str(&decision_tree.render_ascii());

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ReproConfig {
        ReproConfig {
            trials: 200,
            seed: 7,
            threads: 0,
        }
    }

    /// Asserts that `tables`, as experiment `name` records them, match its
    /// declaration: each has its gate's key and metric columns with unique
    /// keys, and passes its row-count, coverage and flag checks. Numeric
    /// and conditional checks are left to the CI artifact: at test sizes
    /// wall-clock floors and the 10⁶-element `scale` rows cannot hold.
    fn assert_declared(name: &str, tables: &[&Table]) {
        use experiments::{Check, Test};
        let experiment = EXPERIMENTS.iter().find(|e| e.name == name).unwrap();
        assert_eq!(experiment.tables.len(), tables.len(), "{name}");
        for (spec, table) in experiment.tables.iter().zip(tables) {
            let record = regression::BenchExperiment {
                name: spec.record.to_string(),
                wall_ms: 0.0,
                columns: table.headers().to_vec(),
                rows: table.rows().to_vec(),
            };
            if let Some(gate) = &spec.gate {
                regression::keyed_rows(&record, gate).unwrap_or_else(|error| panic!("{error}"));
            }
            for check in spec.checks {
                if matches!(
                    check,
                    Check::Rows(_)
                        | Check::MinRows(_)
                        | Check::Covers(..)
                        | Check::Any(..)
                        | Check::Every(_, Test::Is(_))
                ) {
                    let verdict = check.verify(&record, None);
                    verdict.unwrap_or_else(|found| panic!("{}: {check:?}: {found}", spec.record));
                }
            }
        }
    }

    /// Parses a configuration from `NAME=value` pairs instead of the process
    /// environment, which tests running in parallel would share.
    fn parse(vars: &[(&str, &str)]) -> Result<ReproConfig, ReproConfigError> {
        ReproConfig::from_lookup(|name| {
            vars.iter()
                .find(|(key, _)| *key == name)
                .map(|(_, value)| value.to_string())
        })
    }

    #[test]
    fn repro_vars_parse_or_name_the_bad_value() {
        let defaults = parse(&[]).unwrap();
        assert_eq!(
            (defaults.trials, defaults.seed, defaults.threads),
            (5_000, 2_001, 0)
        );
        let set = parse(&[
            ("REPRO_TRIALS", "300"),
            ("REPRO_SEED", "18446744073709551615"),
            ("REPRO_THREADS", "0"),
        ])
        .unwrap();
        assert_eq!((set.trials, set.seed, set.threads), (300, u64::MAX, 0));

        for (variable, value) in [
            ("REPRO_TRIALS", "abc"),
            ("REPRO_TRIALS", "-5"),
            ("REPRO_TRIALS", "99999999999999999999999"),
            ("REPRO_TRIALS", "0"),
            ("REPRO_TRIALS", ""),
            ("REPRO_SEED", "0x10"),
            ("REPRO_THREADS", "x"),
            ("REPRO_THREADS", "-1"),
        ] {
            let error = parse(&[(variable, value)]).unwrap_err();
            assert_eq!((error.variable, error.value.as_str()), (variable, value));
            let message = error.to_string();
            assert!(
                message.starts_with(&format!("{variable}=\"{value}\"")),
                "{message}"
            );
        }
    }

    #[test]
    fn scale_tables_agree_across_widths_and_record_every_cell() {
        // Small stand-ins for the million-element systems: the cross-width
        // bit-identity assertion inside scale_over is the real check.
        let systems: Vec<(&str, DynSystem)> = vec![
            ("Grid", spec_system(SystemSpec::Grid { rows: 4, cols: 5 })),
            ("Tree", spec_system(SystemSpec::Tree { height: 3 })),
            ("Maj", spec_system(SystemSpec::Majority { n: 13 })),
        ];
        let (avail, lanes) = scale_over(&tiny(), &systems);
        assert_eq!(avail.row_count(), 6, "3 families × 2 probabilities");
        assert_eq!(
            lanes.row_count(),
            6 * probequorum::core::lanes::LANE_WIDTHS.len()
        );
        let text = avail.render();
        for family in ["Grid", "Tree", "Maj"] {
            assert!(text.contains(family), "missing {family} row");
        }
        // Estimates are seeded: a repeat run reproduces the table verbatim.
        let (again, _) = scale_over(&tiny(), &systems);
        assert_eq!(avail.render(), again.render());
        assert_declared("scale", &[&avail, &lanes]);
    }

    #[test]
    fn churn_delta_agrees_on_every_family_and_reproduces_verbatim() {
        // Short streaming walk: a million debug-mode steps are too slow for
        // a unit test; the equivalence sweep is the real check.
        let (equivalence, rates) = churn_delta_over(&tiny(), 400);
        assert_eq!(equivalence.row_count(), 14, "7 families × 2 regimes");
        for row in equivalence.rows() {
            assert_eq!(row[9], "1", "delta/scratch divergence: {row:?}");
        }
        // 7 families × {scratch, delta} plus the streaming-walk row.
        assert_eq!(rates.row_count(), 15);
        let walk_row = rates.rows().last().unwrap();
        assert_eq!(walk_row[2], "stream-walk");
        assert_eq!(walk_row[3], "400");
        // The equivalence table is a pure function of the seed.
        let (again, _) = churn_delta_over(&tiny(), 400);
        assert_eq!(equivalence.render(), again.render());
        assert_declared("churn-delta", &[&equivalence, &rates]);
    }

    #[test]
    fn chaos_rows_agree_and_reproduce_verbatim() {
        // Small trace: each of the 24 cells replays on the real-thread
        // runtime, so keep the per-cell session count low.
        let config = ReproConfig {
            trials: 48,
            seed: 11,
            threads: 0,
        };
        let (agreement, rates) = chaos(&config);
        assert_eq!(
            agreement.row_count(),
            24,
            "3 families × 4 scenarios × {{naive, health-aware}}"
        );
        assert_eq!(rates.row_count(), 24);
        let text = agreement.render();
        for scenario in [
            "crash-minority",
            "rolling-restart",
            "stall-flap",
            "crash-part",
        ] {
            assert!(text.contains(scenario), "missing {scenario} rows");
        }
        assert!(text.contains("+health"), "health-aware rows carry a suffix");
        for row in agreement.rows() {
            // Column 6 is the agree flag: the live replay reproduced every
            // observable and drained its queues (delivered == served + lost).
            assert_eq!(row[6], "1", "divergent chaos row: {row:?}");
            // Crash scenarios must lose requests and report a recovery time;
            // their rows are what the CI artifact check keys on.
            if row[3] == "crash-minority" {
                assert!(
                    row[11].parse::<u64>().unwrap() > 0,
                    "no lost requests: {row:?}"
                );
                assert_ne!(row[13], "-", "no recovery time: {row:?}");
            }
        }
        // The agreement table is a pure function of the seed: a repeat run
        // (same config, fresh live threads) reproduces it verbatim.
        let (again, _) = chaos(&config);
        assert_eq!(agreement.render(), again.render());
        assert_declared("chaos", &[&agreement, &rates]);
    }

    #[test]
    fn peak_rss_is_positive_where_available() {
        if let Some(bytes) = peak_rss_bytes() {
            assert!(bytes > 1024 * 1024, "a test process uses over a MiB");
        }
    }

    #[test]
    fn table1_has_all_rows() {
        let table = table1(&tiny());
        assert_eq!(table.row_count(), 8, "two rows per system, four systems");
        let text = table.render();
        for family in ["Maj", "Triang", "Tree", "HQS"] {
            assert!(text.contains(family), "missing {family} row");
        }
    }

    #[test]
    fn maj3_reproduces_the_worked_example() {
        let (table, art) = maj3(&tiny());
        let text = table.render();
        assert!(text.contains("2.500"));
        assert!(text.contains("2.667") || text.contains("8/3"));
        assert!(art.contains("probe x"));
    }

    #[test]
    fn crumbling_walls_rows_stay_under_bound() {
        let table = crumbling_walls(&tiny());
        assert_eq!(table.row_count(), 12);
    }

    #[test]
    fn lower_bounds_match_formulas() {
        let table = lower_bounds(&tiny());
        let text = table.render();
        // Maj(3) row shows 8/3 on both sides.
        assert!(text.contains("2.667"));
        assert!(table.row_count() >= 9);
    }

    #[test]
    fn hqs_hard_colorings_have_the_recursive_majority_shape() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let coloring = hqs_hard_coloring(2, &mut rng);
            assert_eq!(coloring.universe_size(), 9);
            // Each gate has exactly 2 children of the gate's value, so the
            // number of leaves carrying the root value is exactly 4 or 5
            // (2 majority subtrees × 2 + possibly the minority subtree's
            // minority pair...): concretely the root-color count is between
            // 4 and 5 for height 2.
            let greens = coloring.green_count();
            assert!(
                greens == 4 || greens == 5,
                "unexpected green count {greens}"
            );
        }
    }

    #[test]
    fn figures_render_all_four() {
        let art = figures();
        for marker in [
            "Figure 1", "Figure 2", "Figure 3", "Figure 4", "2-of-3", "probe x",
        ] {
            assert!(art.contains(marker), "missing {marker}");
        }
    }

    #[test]
    fn availability_table_is_consistent() {
        let table = availability_table(&tiny());
        assert!(table.render().contains("true"));
        assert!(!table.render().contains("false"));
    }

    #[test]
    fn zoned_experiment_covers_the_sweep() {
        let table = zoned(&tiny());
        assert_eq!(table.row_count(), 20, "four systems × five correlations");
        for row in table.rows() {
            // At correlation 0 the exact zoned availability equals the iid
            // prediction; the columns are (…, corr, q, p, mean, F, F_iid).
            if row[3] == "0" {
                assert_eq!(row[7], row[8], "corr=0 must match the iid prediction");
            }
            let mean: f64 = row[6].parse().unwrap();
            let n: f64 = row[1].parse().unwrap();
            assert!(mean >= 1.0 && mean <= n, "implausible probe mean {mean}");
        }
    }

    #[test]
    fn churn_experiment_reports_outages_and_probes() {
        let table = churn(&tiny());
        assert_eq!(table.row_count(), 8, "four systems × two regimes");
        for row in table.rows() {
            let outage: f64 = row[7].parse().unwrap();
            assert!((0.0..=1.0).contains(&outage), "outage {outage} not a rate");
            let stationary: f64 = row[5].parse().unwrap();
            assert!((stationary - 0.25).abs() < 1e-9, "both regimes sit at 0.25");
        }
    }

    #[test]
    fn scenario_matrix_is_thread_count_invariant() {
        // The acceptance guarantee behind the CI artifact: the matrix table
        // renders bit-identically for 1 and 8 worker threads.
        let single = ReproConfig {
            trials: 60,
            seed: 7,
            threads: 1,
        };
        let parallel = ReproConfig {
            trials: 60,
            seed: 7,
            threads: 8,
        };
        let a = scenario_matrix(&single).render();
        let b = scenario_matrix(&parallel).render();
        assert_eq!(a, b, "scenario matrix diverged across thread counts");
        // Every scenario of the registry appears in the table.
        for scenario in ["iid(p=0.3)", "zoned(", "hetero(", "churn("] {
            assert!(a.contains(scenario), "missing scenario family {scenario}");
        }
    }

    #[test]
    fn workload_covers_the_full_matrix_and_is_thread_invariant() {
        // 3 systems × 3 strategies × 2 arrival models × 2 scenarios.
        let single = ReproConfig {
            trials: 120,
            seed: 7,
            threads: 1,
        };
        let parallel = ReproConfig {
            trials: 120,
            seed: 7,
            threads: 4,
        };
        let a = workload(&single);
        assert_eq!(a.row_count(), 36);
        let text = a.render();
        for marker in [
            "Probe_Maj",
            "Probe_CW",
            "Probe_Tree",
            "LeastLoaded",
            "PowerOfTwo",
            "open-poisson",
            "closed-loop",
            "iid(p=0.05)",
            "zoned(",
        ] {
            assert!(text.contains(marker), "missing {marker}");
        }
        let b = workload(&parallel);
        assert_eq!(a.render(), b.render(), "workload diverged across threads");
        // Latency columns are ordered and throughput is positive in each row:
        // columns are (.., sessions, ok_rate, thr, p50, p95, p99, probes, imb).
        for row in a.rows() {
            let thr: f64 = row[7].parse().unwrap();
            let p50: f64 = row[8].parse().unwrap();
            let p95: f64 = row[9].parse().unwrap();
            let p99: f64 = row[10].parse().unwrap();
            let imbalance: f64 = row[12].parse().unwrap();
            assert!(thr > 0.0, "non-positive throughput in {row:?}");
            assert!(p50 <= p95 && p95 <= p99, "unordered quantiles in {row:?}");
            assert!(imbalance >= 1.0, "impossible imbalance in {row:?}");
        }
        assert_declared("workload", &[&a]);
    }

    #[test]
    fn network_covers_the_battery_and_is_thread_invariant() {
        // 3 systems × (1 clean control + 5 faulty scenarios × 2 policies).
        let single = ReproConfig {
            trials: 120,
            seed: 7,
            threads: 1,
        };
        let parallel = ReproConfig {
            trials: 120,
            seed: 7,
            threads: 4,
        };
        let a = network(&single);
        assert_eq!(a.row_count(), 33);
        let text = a.render();
        for marker in [
            "clean",
            "lossy",
            "heavy-tail",
            "minority-part",
            "flapping",
            "asym-split",
            "naive",
            "r3/b300us",
            "Probe_Maj",
            "Probe_CW",
            "Probe_Tree",
        ] {
            assert!(text.contains(marker), "missing {marker}");
        }
        let b = network(&parallel);
        assert_eq!(a.render(), b.render(), "network diverged across threads");
        // Columns: (.., sessions, ok_rate, thr, p50, p95, p99, probes, msgs,
        // wasted).
        for row in a.rows() {
            let ok: f64 = row[7].parse().unwrap();
            let thr: f64 = row[8].parse().unwrap();
            let wasted: f64 = row[14].parse().unwrap();
            assert!((0.0..=1.0).contains(&ok), "bad ok-rate in {row:?}");
            assert!(thr > 0.0, "non-positive throughput in {row:?}");
            assert!((0.0..=1.0).contains(&wasted), "bad waste in {row:?}");
            if row[3] == "clean" {
                assert_eq!(row[14], "0.000", "clean rows waste nothing: {row:?}");
            }
        }
        assert_declared("network", &[&a]);
    }

    #[test]
    fn live_agrees_with_the_simulator_and_is_reproducible() {
        let config = ReproConfig {
            trials: 60,
            seed: 7,
            threads: 1,
        };
        let (agreement, rates) = live(&config);
        assert_eq!(agreement.row_count(), 12, "2 systems × 6 scenarios");
        assert_eq!(rates.row_count(), 12);
        for row in agreement.rows() {
            assert_eq!(row[6], "1", "live diverged from the simulator: {row:?}");
        }
        let text = agreement.render();
        for marker in [
            "clean",
            "lossy",
            "heavy-tail",
            "minority-part",
            "flapping",
            "asym-split",
            "Probe_Maj",
            "Probe_Tree",
        ] {
            assert!(text.contains(marker), "missing {marker}");
        }
        for row in rates.rows() {
            let rate: f64 = row[6].parse().unwrap();
            assert!(rate > 0.0, "non-positive live throughput in {row:?}");
        }
        // The agreement table carries the sim's observables plus the agree
        // flag: a repeat run (real threads and all) renders identically.
        let (again, _) = live(&config);
        assert_eq!(agreement.render(), again.render());
        assert_declared("live", &[&agreement, &rates]);
    }

    #[test]
    fn robust_policies_pay_messages_to_recover_ok_rate() {
        let table = network(&ReproConfig {
            trials: 250,
            seed: 11,
            threads: 0,
        });
        // For each system, on the lossy scenario the robust policy must
        // reach at least the naive policy's ok-rate, strictly improving it
        // somewhere. (Messages per session need not rise: a naive client
        // that mistakes live nodes for dead ones probes *more* elements.)
        let mut strict_improvement = false;
        for system in ["Maj", "CW", "Tree"] {
            let find = |policy: &str| {
                table
                    .rows()
                    .iter()
                    .find(|row| row[0].starts_with(system) && row[3] == "lossy" && row[4] == policy)
                    .unwrap_or_else(|| panic!("missing {system} lossy {policy} row"))
                    .clone()
            };
            let naive = find("naive");
            let robust = find("r3/b300us");
            let naive_ok: f64 = naive[7].parse().unwrap();
            let robust_ok: f64 = robust[7].parse().unwrap();
            assert!(
                robust_ok >= naive_ok,
                "{system}: retries must not lower ok-rate ({robust_ok} vs {naive_ok})"
            );
            strict_improvement |= robust_ok > naive_ok;
        }
        assert!(
            strict_improvement,
            "retries must strictly recover ok-rate on at least one family"
        );
    }

    #[test]
    fn throughput_covers_every_family_size_and_path() {
        let table = throughput(&tiny());
        // 3 families × 3 sizes × 3 paths.
        assert_eq!(table.row_count(), 27);
        let text = table.render();
        for marker in [
            "probes/engine",
            "avail/scalar",
            "avail/batched",
            "Grid",
            "Maj",
            "Tree",
        ] {
            assert!(text.contains(marker), "missing {marker}");
        }
        for row in table.rows() {
            let rate: f64 = row[5].parse().unwrap();
            assert!(rate > 0.0, "non-positive throughput in {row:?}");
        }
        assert_declared("throughput", &[&table]);
    }

    #[test]
    fn config_from_env_defaults() {
        let config = ReproConfig::default();
        assert_eq!(config.trials, 5_000);
        assert_eq!(config.seed, 2_001);
        assert_eq!(config.threads, 0);
    }

    #[test]
    fn tables_are_reproducible_for_a_fixed_seed() {
        // The engine's determinism surfaces all the way up here: rendering a
        // table twice with the same config yields identical text.
        let first = crumbling_walls(&tiny()).render();
        let second = crumbling_walls(&tiny()).render();
        assert_eq!(first, second);
    }
}
