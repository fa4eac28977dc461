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
//! The experiments, their tables and what each table must satisfy are
//! declared once, in [`bench::EXPERIMENTS`]; an unknown name prints the list
//! and exits 2 before anything runs, so CI cannot silently run nothing.
//! Tables on stdout are deterministic: a pure function of the seed and trial
//! count, bit-identical for any `REPRO_THREADS`. Tables on stderr are
//! wall-clock data, and `all` skips an experiment that prints only those
//! (`throughput`). Each experiment's wall-clock time, thread count and the
//! process's peak RSS also go to stderr.
//!
//! When `REPRO_JSON` names a path, a machine-readable artifact (every table
//! plus per-experiment wall-clock time) is **streamed** there row by row as
//! experiments complete — constant memory, partial progress on disk —
//! closing with the process's peak RSS. That is the `BENCH_<sha>.json` file
//! CI uploads on every push.
//!
//! The binary doubles as the CI perf-regression gate:
//!
//! ```text
//! reproduce --check-regression BENCH_<sha>.json crates/bench/baseline.json --tolerance 0.25
//! ```
//!
//! compares the declared gate rows of the two artifacts, runs the declared
//! checks on the current one, and prints a markdown report (also appended to
//! `$GITHUB_STEP_SUMMARY` when set). It exits 1 on an enforced drop beyond
//! the tolerance or a failed check.

use std::fmt::Display;
use std::fs::File;
use std::io::BufWriter;
use std::time::{Duration, Instant};

use bench::{
    check_regression_and_artifact, parse_artifact, peak_rss_bytes, ArtifactStream, Experiment,
    ReproConfig, Stream, EXPERIMENTS,
};
use probequorum::prelude::Table;

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
        let (seed, trials, threads) = (config.seed, config.trials, config.engine().thread_count());
        let stream = File::create(&path)
            .and_then(|file| ArtifactStream::new(BufWriter::new(file), &sha, seed, trials, threads))
            .unwrap_or_else(|error| {
                exit(1, format!("failed to open bench artifact {path}: {error}"))
            });
        Recorder {
            stream: Some((stream, path)),
        }
    }

    /// Streams one experiment's table into the artifact.
    fn record(&mut self, name: &str, wall: Duration, table: &Table) {
        if let Some((stream, path)) = &mut self.stream {
            if let Err(error) = stream.record_table(name, wall, table) {
                exit(
                    1,
                    format!("failed to stream bench artifact {path}: {error}"),
                );
            }
        }
    }

    /// Writes the artifact footer (with the process's peak RSS).
    fn finish(self) {
        if let Some((stream, path)) = self.stream {
            match stream.finish(peak_rss_bytes()) {
                Ok(_) => eprintln!("[wrote bench artifact: {path}]"),
                Err(error) => exit(
                    1,
                    format!("failed to finish bench artifact {path}: {error}"),
                ),
            }
        }
    }
}

/// Runs one declared experiment: prints its heading, its tables on their
/// declared streams and any trailing art, reports its wall-clock time on
/// stderr and streams its tables into the artifact.
fn run(experiment: &Experiment, config: &ReproConfig, artifact: &mut Recorder) {
    let started = Instant::now();
    if !experiment.heading.is_empty() {
        // An experiment with only wall-clock tables keeps stdout empty.
        let stream = if experiment.in_all() {
            Stream::Stdout
        } else {
            Stream::Stderr
        };
        print(stream, format_args!("== {} ==\n", experiment.heading));
    }
    let (tables, art) = (experiment.run)(config);
    assert_eq!(tables.len(), experiment.tables.len(), "{}", experiment.name);
    for (spec, table) in experiment.tables.iter().zip(&tables) {
        print(spec.stream, table);
    }
    if let Some(art) = art {
        println!("{art}");
    }
    let wall = started.elapsed();
    let rss = peak_rss_bytes().map_or(String::new(), |bytes| {
        format!(", peak RSS {:.0} MiB", bytes as f64 / (1024.0 * 1024.0))
    });
    // REPRO_TRIALS is the knob, not the per-cell count: tables scale it per
    // cell (e.g. `min(3000)` for sweeps, `/5` for the HQS hard family).
    eprintln!(
        "[{}: {wall:.2?} wall, {} engine thread(s), REPRO_TRIALS={}, seed {}{rss}]",
        experiment.name,
        config.engine().thread_count(),
        config.trials,
        config.seed,
    );
    for (spec, table) in experiment.tables.iter().zip(&tables) {
        artifact.record(spec.record, wall, table);
    }
}

fn print(stream: Stream, text: impl Display) {
    match stream {
        Stream::Stdout => println!("{text}"),
        Stream::Stderr => eprintln!("{text}"),
    }
}

/// Prints `message` on stderr and exits with `code`: 2 for a usage error, 1
/// for a failure.
fn exit(code: i32, message: impl Display) -> ! {
    eprintln!("{message}");
    std::process::exit(code)
}

/// Handles `reproduce --check-regression <current.json> <baseline.json>
/// [--tolerance 0.25]`: prints the markdown report (also appended to
/// `$GITHUB_STEP_SUMMARY` when set) and exits 1 when an enforced gate row
/// regressed beyond the tolerance or a declared check failed.
fn run_regression_check(args: &[String]) -> ! {
    let mut paths = Vec::new();
    let mut tolerance = 0.25f64;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--tolerance" {
            match iter.next().and_then(|v| v.parse().ok()) {
                Some(v) if (0.0..1.0).contains(&v) => tolerance = v,
                _ => exit(2, "--tolerance needs a fraction in [0, 1), e.g. 0.25"),
            }
        } else {
            paths.push(arg.clone());
        }
    }
    let [current_path, baseline_path] = paths.as_slice() else {
        exit(
            2,
            "usage: reproduce --check-regression <current.json> <baseline.json> [--tolerance 0.25]",
        );
    };
    let load = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|error| error.to_string());
        text.and_then(|text| parse_artifact(&text))
            .unwrap_or_else(|error| exit(2, format!("failed to load {path}: {error}")))
    };
    let report =
        check_regression_and_artifact(&load(current_path), &load(baseline_path), tolerance);
    println!("{}", report.markdown);
    if let Ok(summary_path) = std::env::var("GITHUB_STEP_SUMMARY") {
        use std::io::Write;
        let file = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(summary_path);
        if let Err(error) = file.and_then(|mut file| writeln!(file, "{}", report.markdown)) {
            eprintln!("could not append to GITHUB_STEP_SUMMARY: {error}");
        }
    }
    std::process::exit(if report.passed() { 0 } else { 1 });
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--check-regression") {
        run_regression_check(&args[1..]);
    }

    let config = ReproConfig::from_env().unwrap_or_else(|error| exit(2, error));
    let requested = if args.is_empty() {
        vec!["all".to_string()]
    } else {
        args
    };

    // Resolve every name before running anything: a typo must not let CI
    // silently run a partial (or empty) reproduction and exit 0.
    let mut selected = Vec::new();
    let mut unknown = Vec::new();
    for name in &requested {
        match EXPERIMENTS.iter().find(|e| e.name == name) {
            Some(experiment) => selected.push(experiment),
            None if name == "all" => selected.extend(EXPERIMENTS.iter().filter(|e| e.in_all())),
            None => unknown.push(name),
        }
    }
    if !unknown.is_empty() {
        for name in unknown {
            eprintln!("unknown experiment '{name}'");
        }
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        exit(2, format!("available: {} all", names.join(" ")));
    }

    let mut recorder = Recorder::from_env(&config);
    for experiment in selected {
        run(experiment, &config, &mut recorder);
    }
    recorder.finish();
}
