//! Regenerates every table and figure of the paper, plus the extended
//! failure-scenario experiments.
//!
//! ```text
//! cargo run --release -p bench --bin reproduce -- all
//! cargo run --release -p bench --bin reproduce -- table1
//! REPRO_TRIALS=20000 cargo run --release -p bench --bin reproduce -- hqs-randomized
//! REPRO_THREADS=1 cargo run --release -p bench --bin reproduce -- table1   # force single-thread
//! REPRO_JSON=BENCH_abc.json cargo run --release -p bench --bin reproduce -- scenario-matrix
//! ```
//!
//! Available experiments: `table1`, `maj3`, `crumbling-walls`, `tree-exponent`,
//! `hqs-exponent`, `randomized`, `lower-bounds`, `hqs-randomized`, `lemmas`,
//! `availability`, `zoned`, `churn`, `churn-delta`, `scenario-matrix`,
//! `compose`, `workload`, `network`, `live`, `chaos`, `scale`, `throughput`,
//! `figures`, `all`.
//! Unknown names
//! are rejected before anything runs, with a non-zero exit — CI cannot
//! silently run nothing.
//!
//! The binary doubles as the CI perf-regression gate:
//!
//! ```text
//! reproduce --check-regression BENCH_<sha>.json crates/bench/baseline.json --tolerance 0.25
//! ```
//!
//! compares the deterministic throughput rows of the two artifacts (failing
//! on a drop beyond the tolerance) and prints a markdown delta table, also
//! appended to `$GITHUB_STEP_SUMMARY` when set.
//!
//! `throughput` measures trials/second on the hot paths (engine probes,
//! scalar vs word-parallel batched availability); being wall-clock data its
//! table goes to **stderr** and the JSON artifact, never stdout — `all`
//! excludes it, so stdout stays bit-identical across runs and thread counts.
//!
//! `scale` demonstrates the lane engine at n ≥ 10⁶ (Grid 1000×1000, Tree of
//! height 19, Maj over 10⁶ + 1 elements). Its availability table is a pure
//! function of the seed and goes to stdout (it IS part of `all`); the
//! lane-trials/second table is wall-clock data and follows the `throughput`
//! convention (stderr + artifact only, as `scale-throughput`).
//!
//! `live` replays a slice of the `network` battery on the real-concurrency
//! cluster runtime and cross-validates every logical observable against the
//! simulator. Its agreement table (sim observables + the `agree` flag) is
//! deterministic and goes to stdout; the wall-clock sessions/second table
//! follows the `throughput` convention (stderr + artifact only, as
//! `live-throughput`).
//!
//! `chaos` does the same for process failure: nodes crash (queues dropped,
//! in-flight requests lost), stall and restart under a supervisor while
//! naive and health-aware (circuit-breaker) clients run the same traces on
//! both backends. The agreement table adds degraded/lost counts and per-node
//! recovery times and goes to stdout; the wall-clock table follows the
//! `throughput` convention (as `chaos-throughput`).
//!
//! Every experiment reports its wall-clock time and the engine's worker
//! thread count on **stderr**, keeping stdout a pure function of the seed
//! and trial count (bit-identical for any `REPRO_THREADS`). When the
//! `REPRO_JSON` environment variable names a path, a machine-readable
//! artifact (per-experiment wall-clock + full tables) is **streamed** there
//! row by row as experiments complete — constant memory, partial progress on
//! disk — closing with the process's peak RSS. That is the `BENCH_<sha>.json`
//! file CI uploads on every push.

use std::fs::File;
use std::io::BufWriter;
use std::time::{Duration, Instant};

use bench::{
    availability_table, chaos, check_regression, churn, churn_delta, compose, crumbling_walls,
    figures, hqs_exponent, hqs_randomized, lemmas_table, live, lower_bounds, maj3, network,
    parse_artifact, peak_rss_bytes, randomized, scale, scenario_matrix, table1, throughput,
    tree_exponent, workload, zoned, ArtifactStream, ReproConfig,
};
use probequorum::prelude::Table;

/// Every experiment the binary can run, in `all` order (`throughput` and the
/// meta-entry `all` are appended for the usage message only: `all` skips
/// `throughput` because its wall-clock table is non-deterministic).
const EXPERIMENTS: &[&str] = &[
    "maj3",
    "table1",
    "crumbling-walls",
    "tree-exponent",
    "hqs-exponent",
    "randomized",
    "lower-bounds",
    "hqs-randomized",
    "lemmas",
    "availability",
    "zoned",
    "churn",
    "churn-delta",
    "scenario-matrix",
    "compose",
    "workload",
    "network",
    "live",
    "chaos",
    "scale",
    "figures",
    "throughput",
    "all",
];

/// The streaming sink behind every experiment: when `REPRO_JSON` names a
/// path, rows go to disk through an [`ArtifactStream`] the moment each
/// experiment completes (constant memory no matter how many rows the
/// million-element `scale` cells produce); otherwise recording is a no-op.
struct Recorder {
    stream: Option<(ArtifactStream<BufWriter<File>>, String)>,
}

impl Recorder {
    /// Opens the artifact stream if `REPRO_JSON` is set; exits non-zero when
    /// the path is set but unwritable (CI must not lose its artifact late).
    fn from_env(config: &ReproConfig) -> Self {
        let Ok(path) = std::env::var("REPRO_JSON") else {
            return Recorder { stream: None };
        };
        let sha = std::env::var("GITHUB_SHA").unwrap_or_else(|_| "local".to_string());
        let open = File::create(&path).and_then(|file| {
            ArtifactStream::new(
                BufWriter::new(file),
                &sha,
                config.seed,
                config.trials,
                config.engine().thread_count(),
            )
        });
        match open {
            Ok(stream) => Recorder {
                stream: Some((stream, path)),
            },
            Err(error) => {
                eprintln!("failed to open bench artifact {path}: {error}");
                std::process::exit(1);
            }
        }
    }

    /// Streams one experiment's table into the artifact.
    fn record(&mut self, name: &str, wall: Duration, table: &Table) {
        if let Some((stream, path)) = &mut self.stream {
            if let Err(error) = stream.record_table(name, wall, table) {
                eprintln!("failed to stream bench artifact {path}: {error}");
                std::process::exit(1);
            }
        }
    }

    /// Writes the artifact footer (with the process's peak RSS).
    fn finish(self) {
        if let Some((stream, path)) = self.stream {
            match stream.finish(peak_rss_bytes()) {
                Ok(_) => eprintln!("[wrote bench artifact: {path}]"),
                Err(error) => {
                    eprintln!("failed to finish bench artifact {path}: {error}");
                    std::process::exit(1);
                }
            }
        }
    }
}

/// Runs one experiment, printing its table (and any trailing ASCII art)
/// under a heading and recording the table into the artifact. Timing goes to
/// stderr so stdout stays deterministic.
fn timed(
    config: &ReproConfig,
    artifact: &mut Recorder,
    name: &str,
    heading: &str,
    run: impl FnOnce(&ReproConfig) -> (Table, Option<String>),
) {
    let started = Instant::now();
    println!("== {heading} ==\n");
    let (table, art) = run(config);
    println!("{table}");
    if let Some(art) = art {
        println!("{art}");
    }
    let wall = started.elapsed();
    // REPRO_TRIALS is the knob, not the per-cell count: tables scale it per
    // cell (e.g. `min(3000)` for sweeps, `/5` for the HQS hard family).
    eprintln!(
        "[{name}: {:.2?} wall, {} engine thread(s), REPRO_TRIALS={}, seed {}]",
        wall,
        config.engine().thread_count(),
        config.trials,
        config.seed,
    );
    artifact.record(name, wall, &table);
}

/// Adapts a plain-table experiment to `timed`'s `(table, art)` shape.
fn plain(
    run: impl FnOnce(&ReproConfig) -> Table,
) -> impl FnOnce(&ReproConfig) -> (Table, Option<String>) {
    |config| (run(config), None)
}

fn run_figures() {
    println!("{}", figures());
}

fn run_experiment(name: &str, config: &ReproConfig, artifact: &mut Recorder) -> bool {
    match name {
        "table1" => timed(
            config,
            artifact,
            "table1",
            "Table 1: probe complexity of Maj, Triang, Tree and HQS",
            plain(table1),
        ),
        "maj3" => timed(
            config,
            artifact,
            "maj3",
            "Section 2.3 worked example: Maj3",
            |c| {
                let (table, art) = maj3(c);
                (
                    table,
                    Some(format!("Optimal decision tree (Figure 4):\n\n{art}")),
                )
            },
        ),
        "crumbling-walls" => timed(
            config,
            artifact,
            "crumbling-walls",
            "Theorem 3.3 / Corollary 3.4: Probe_CW needs at most 2k−1 expected probes",
            plain(crumbling_walls),
        ),
        "tree-exponent" => timed(
            config,
            artifact,
            "tree-exponent",
            "Proposition 3.6 / Corollary 3.7: Tree exponent log2(1+p)",
            plain(tree_exponent),
        ),
        "hqs-exponent" => timed(
            config,
            artifact,
            "hqs-exponent",
            "Theorem 3.8: HQS probabilistic exponents",
            plain(hqs_exponent),
        ),
        "randomized" => timed(
            config,
            artifact,
            "randomized",
            "Section 4 upper bounds: randomized algorithms",
            plain(randomized),
        ),
        "lower-bounds" => timed(
            config,
            artifact,
            "lower-bounds",
            "Section 4 lower bounds via Yao's principle",
            plain(lower_bounds),
        ),
        "hqs-randomized" => timed(
            config,
            artifact,
            "hqs-randomized",
            "Proposition 4.9 vs Theorem 4.10: R_Probe_HQS vs IR_Probe_HQS",
            plain(hqs_randomized),
        ),
        "lemmas" => timed(
            config,
            artifact,
            "lemmas",
            "Section 2.4 technical lemmas",
            plain(lemmas_table),
        ),
        "availability" => timed(
            config,
            artifact,
            "availability",
            "Fact 2.3 and availability recursions",
            plain(availability_table),
        ),
        "zoned" => timed(
            config,
            artifact,
            "zoned",
            "Correlated zones: probe complexity and availability vs correlation strength",
            plain(zoned),
        ),
        "churn" => timed(
            config,
            artifact,
            "churn",
            "Churn: time-averaged probe complexity along fail/repair timelines",
            plain(churn),
        ),
        "churn-delta" => {
            let started = Instant::now();
            println!("== Churn delta engine: incremental re-evaluation vs from-scratch, all families ==\n");
            let (equivalence_table, rate_table) = churn_delta(config);
            // Same split as `live`/`scale`: the equivalence table (every
            // step verified both ways, agree flag) is deterministic →
            // stdout; delta-vs-scratch steps/second and the streaming-walk
            // RSS row are wall-clock data → stderr and the artifact only.
            println!("{equivalence_table}");
            let wall = started.elapsed();
            eprintln!("{rate_table}");
            eprintln!(
                "[churn-delta: {:.2?} wall, {} engine thread(s), REPRO_TRIALS={}, seed {}]",
                wall,
                config.engine().thread_count(),
                config.trials,
                config.seed,
            );
            artifact.record("churn-delta", wall, &equivalence_table);
            artifact.record("churn-delta-throughput", wall, &rate_table);
        }
        "scenario-matrix" => timed(
            config,
            artifact,
            "scenario-matrix",
            "Scenario matrix: every system × strategy × failure scenario",
            plain(scenario_matrix),
        ),
        "compose" => timed(
            config,
            artifact,
            "compose",
            "Compose: recursive threshold compositions, certified and cross-checked",
            plain(compose),
        ),
        "workload" => timed(
            config,
            artifact,
            "workload",
            "Workload: concurrent sessions, service queues and load-aware probing",
            plain(workload),
        ),
        "network" => timed(
            config,
            artifact,
            "network",
            "Network faults: loss, heavy tails, partitions, and retrying/hedged probe sessions",
            plain(network),
        ),
        "live" => {
            let started = Instant::now();
            println!("== Live: the real-concurrency runtime replays the simulator's traces, cross-validated ==\n");
            let (agree_table, rate_table) = live(config);
            // The agreement table (the sim's observables plus the agree
            // flag) is deterministic → stdout; the sessions/second table is
            // wall-clock data → stderr and the artifact only (the
            // `throughput` convention).
            println!("{agree_table}");
            let wall = started.elapsed();
            eprintln!("{rate_table}");
            eprintln!(
                "[live: {:.2?} wall, {} engine thread(s), REPRO_TRIALS={}, seed {}]",
                wall,
                config.engine().thread_count(),
                config.trials,
                config.seed,
            );
            artifact.record("live", wall, &agree_table);
            artifact.record("live-throughput", wall, &rate_table);
        }
        "chaos" => {
            let started = Instant::now();
            println!("== Chaos: node crash/stall/restart under supervision, naive vs health-aware clients ==\n");
            let (agree_table, rate_table) = chaos(config);
            // Same split as `live`: the agreement table (sim observables,
            // agree flag, crash-loss ledger, recovery times) is
            // deterministic → stdout; sessions/second is wall-clock data →
            // stderr and the artifact only.
            println!("{agree_table}");
            let wall = started.elapsed();
            eprintln!("{rate_table}");
            eprintln!(
                "[chaos: {:.2?} wall, {} engine thread(s), REPRO_TRIALS={}, seed {}]",
                wall,
                config.engine().thread_count(),
                config.trials,
                config.seed,
            );
            artifact.record("chaos", wall, &agree_table);
            artifact.record("chaos-throughput", wall, &rate_table);
        }
        "throughput" => {
            let started = Instant::now();
            eprintln!("== Throughput: trials/second on the hot paths ==\n");
            let table = throughput(config);
            eprintln!("{table}");
            let wall = started.elapsed();
            eprintln!(
                "[throughput: {:.2?} wall, {} engine thread(s), REPRO_TRIALS={}, seed {}]",
                wall,
                config.engine().thread_count(),
                config.trials,
                config.seed,
            );
            artifact.record("throughput", wall, &table);
        }
        "scale" => {
            let started = Instant::now();
            println!("== Scale: the lane engine at n ≥ 10^6 (Grid 1000×1000, Tree h=19, Maj 10^6+1) ==\n");
            let (avail_table, lane_table) = scale(config);
            // The availability table is a pure function of the seed →
            // stdout; the lane-trials/s table is wall-clock data → stderr
            // and the artifact only (the `throughput` convention).
            println!("{avail_table}");
            let wall = started.elapsed();
            eprintln!("{lane_table}");
            eprintln!(
                "[scale: {:.2?} wall, {} engine thread(s), REPRO_TRIALS={}, seed {}]",
                wall,
                config.engine().thread_count(),
                config.trials,
                config.seed,
            );
            if let Some(rss) = peak_rss_bytes() {
                eprintln!(
                    "[scale: peak RSS {:.0} MiB]",
                    rss as f64 / (1024.0 * 1024.0)
                );
            }
            artifact.record("scale", wall, &avail_table);
            artifact.record("scale-throughput", wall, &lane_table);
        }
        "figures" => run_figures(),
        "all" => {
            for experiment in [
                "maj3",
                "table1",
                "crumbling-walls",
                "tree-exponent",
                "hqs-exponent",
                "randomized",
                "lower-bounds",
                "hqs-randomized",
                "lemmas",
                "availability",
                "zoned",
                "churn",
                "churn-delta",
                "scenario-matrix",
                "compose",
                "workload",
                "network",
                "live",
                "chaos",
                "scale",
                "figures",
            ] {
                run_experiment(experiment, config, artifact);
            }
        }
        _ => return false,
    }
    true
}

/// Handles `reproduce --check-regression <current.json> <baseline.json>
/// [--tolerance 0.25]`: prints the markdown delta table (also appended to
/// `$GITHUB_STEP_SUMMARY` when set) and exits non-zero when an enforced
/// throughput row regressed beyond the tolerance.
fn run_regression_check(args: &[String]) -> ! {
    let mut paths = Vec::new();
    let mut tolerance = 0.25f64;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--tolerance" {
            let value = iter.next().and_then(|v| v.parse().ok());
            match value {
                Some(v) if (0.0..1.0).contains(&v) => tolerance = v,
                _ => {
                    eprintln!("--tolerance needs a fraction in [0, 1), e.g. 0.25");
                    std::process::exit(2);
                }
            }
        } else {
            paths.push(arg.clone());
        }
    }
    let [current_path, baseline_path] = paths.as_slice() else {
        eprintln!(
            "usage: reproduce --check-regression <current.json> <baseline.json> [--tolerance 0.25]"
        );
        std::process::exit(2);
    };
    let load = |path: &str| match std::fs::read_to_string(path) {
        Ok(text) => match parse_artifact(&text) {
            Ok(run) => run,
            Err(error) => {
                eprintln!("failed to parse {path}: {error}");
                std::process::exit(2);
            }
        },
        Err(error) => {
            eprintln!("failed to read {path}: {error}");
            std::process::exit(2);
        }
    };
    let current = load(current_path);
    let baseline = load(baseline_path);
    let report = check_regression(&current, &baseline, tolerance);
    println!("{}", report.markdown);
    if let Ok(summary_path) = std::env::var("GITHUB_STEP_SUMMARY") {
        use std::io::Write;
        match std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&summary_path)
        {
            Ok(mut file) => {
                let _ = writeln!(file, "{}", report.markdown);
            }
            Err(error) => eprintln!("could not append to GITHUB_STEP_SUMMARY: {error}"),
        }
    }
    std::process::exit(if report.passed() { 0 } else { 1 });
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--check-regression") {
        run_regression_check(&args[1..]);
    }

    let config = ReproConfig::from_env().unwrap_or_else(|error| {
        eprintln!("{error}");
        std::process::exit(2);
    });
    let requested = if args.is_empty() {
        vec!["all".to_string()]
    } else {
        args
    };

    // Validate every name before running anything: a typo must not let CI
    // silently run a partial (or empty) reproduction and exit 0.
    let unknown: Vec<&String> = requested
        .iter()
        .filter(|name| !EXPERIMENTS.contains(&name.as_str()))
        .collect();
    if !unknown.is_empty() {
        for name in unknown {
            eprintln!("unknown experiment '{name}'");
        }
        eprintln!("available: {}", EXPERIMENTS.join(" "));
        std::process::exit(2);
    }

    let mut recorder = Recorder::from_env(&config);
    for experiment in &requested {
        let ran = run_experiment(experiment, &config, &mut recorder);
        debug_assert!(ran, "validated names always dispatch");
    }
    recorder.finish();
}
