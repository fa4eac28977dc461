//! Command-line entry point of the benchmark.
//!
//! ```text
//! probebench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Runs one workload for `--seconds` and prints, as the last line of
//! standard output, one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`. With `--trace 0` the metrics are the end-to-end
//! ones (`setup_s`, `ops_per_s`, `peak_rss_mib`); with `--trace 1` they are
//! the per-layer ones. The layer detail under the library's own module
//! names goes to standard error.

use std::process::ExitCode;

use probebench::{
    peak_rss_mib, run_workload, Layer, Outcome, DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS,
};

const USAGE: &str =
    "usage: probebench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| bad("a number of seconds in (0, 3600]"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

/// One `"name": {"value": v, "unit": u}` entry. Rust's `Display` for `f64`
/// prints every significant digit and never an exponent, which is valid
/// JSON for every finite value.
fn metric(name: &str, value: f64, unit: &str) -> String {
    assert!(value.is_finite(), "metric {name} is not finite: {value}");
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

fn metrics(outcome: &Outcome, trace: bool) -> Vec<String> {
    let Some(traced) = outcome.traced.as_ref().filter(|_| trace) else {
        return vec![
            metric("setup_s", outcome.setup_s, "s"),
            metric("ops_per_s", outcome.ops_per_s, "1/s"),
            metric(
                "peak_rss_mib",
                peak_rss_mib().expect("peak RSS needs /proc/self/status"),
                "MiB",
            ),
        ];
    };
    let mut out = Vec::new();
    for layer in Layer::ALL {
        let name = layer.name();
        out.push(metric(&format!("{name}.self_s"), traced.self_s(layer), "s"));
        out.push(metric(
            &format!("{name}.share"),
            traced.share(layer),
            "frac",
        ));
        out.push(metric(
            &format!("{name}.ns_per_op"),
            traced.ns_per_op(layer),
            "ns",
        ));
    }
    out.push(metric("trace.overhead_frac", traced.overhead_frac, "frac"));
    out.push(metric(
        "trace.unattributed_frac",
        traced.unattributed_frac(),
        "frac",
    ));
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!(
                "probebench: {message}\n{USAGE}\n--seed defaults to {DEFAULT_SEED}; \
                 seed {HELD_OUT_SEED} is kept back for held-out checks"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = run_workload(&args.workload, args.seed, args.seconds, args.trace)
        .expect("workload name was validated");
    let checks = &outcome.checks;
    eprintln!(
        "probebench: {} seed={} rounds={} checked={} failed={}",
        args.workload, args.seed, outcome.rounds, checks.attempted, checks.failed
    );
    if let Some(failure) = &checks.first_failure {
        eprintln!("probebench: first disagreement: {failure}");
    }
    for (name, value) in outcome.detail.counts.iter().chain(&outcome.detail.timings) {
        eprintln!("  {name} = {value}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        metrics(&outcome, args.trace).join(", ")
    );
    ExitCode::SUCCESS
}
