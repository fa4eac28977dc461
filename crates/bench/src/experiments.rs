//! The one declaration of every experiment `reproduce` runs.
//!
//! [`EXPERIMENTS`] lists them in `all` order. Each entry gives the name, the
//! heading and the runner, and for each table it records: the artifact
//! record, the stream it prints on, the regression gate's metric and key
//! columns, and the checks a fresh artifact must pass. `reproduce`
//! dispatches from it, [`check_regression`](crate::check_regression) gates
//! from it and [`check_artifact`] runs its checks, so each row schema is
//! written once.
//!
//! One rule splits the tables. A table printed on **stdout** is a pure
//! function of seed and trial count, bit-identical for any thread count
//! (and, for the live runtime, across runs); a gate on it is enforced. A
//! table printed on **stderr** is wall-clock data; a gate on it only
//! informs. `all` runs every experiment that prints on stdout, so its
//! stdout is deterministic.

use probequorum::prelude::Table;

use crate::regression::{BenchExperiment, BenchRun};
use crate::{
    availability_table, chaos, churn, churn_delta, compose, crumbling_walls, figures, hqs_exponent,
    hqs_randomized, lemmas_table, live, lower_bounds, maj3, network, randomized, scale,
    scenario_matrix, table1, throughput, tree_exponent, workload, zoned, ReproConfig,
};
use Check::*;
use Test::*;

/// What a runner returns: one table per declared table, in order, and any
/// text printed on stdout after them.
pub type RunOutput = (Vec<Table>, Option<String>);

/// One experiment `reproduce` can run.
#[derive(Debug)]
pub struct Experiment {
    /// The command-line name.
    pub name: &'static str,
    /// Printed as `== heading ==` above the output; empty prints none.
    pub heading: &'static str,
    /// Runs the experiment.
    pub run: fn(&ReproConfig) -> RunOutput,
    /// The tables the experiment prints and records.
    pub tables: &'static [TableSpec],
}

impl Experiment {
    /// Whether the experiment prints on stdout, which puts it in `all`: it
    /// has a stdout table, or no table at all (`figures` prints only art).
    pub fn in_all(&self) -> bool {
        self.tables.is_empty() || self.tables.iter().any(|t| t.stream == Stream::Stdout)
    }
}

/// Where a table is printed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// Deterministic data.
    Stdout,
    /// Wall-clock data.
    Stderr,
}

/// One table an experiment prints and records in the artifact.
#[derive(Debug)]
pub struct TableSpec {
    /// The artifact record's name.
    pub record: &'static str,
    /// Where the table is printed.
    pub stream: Stream,
    /// The regression gate on the table, if any.
    pub gate: Option<Gate>,
    /// What the table must satisfy in a fresh artifact.
    pub checks: &'static [Check],
}

impl TableSpec {
    /// Whether a drop in the gated metric fails the gate: only a
    /// deterministic (stdout) table's drop is a behaviour change.
    pub(crate) fn enforced(&self) -> bool {
        self.stream == Stream::Stdout
    }

    const fn gate(self, metric: &'static str, keys: &'static [&'static str]) -> Self {
        TableSpec {
            gate: Some(Gate { metric, keys }),
            ..self
        }
    }

    const fn checks(self, checks: &'static [Check]) -> Self {
        TableSpec { checks, ..self }
    }
}

/// A regression gate: the column whose drop it measures and the columns
/// that identify a row.
#[derive(Debug)]
pub struct Gate {
    /// The gated column.
    pub metric: &'static str,
    /// The columns that identify a row; no two rows may share them.
    pub keys: &'static [&'static str],
}

/// A check on one record of a fresh artifact.
#[derive(Debug, Clone, Copy)]
pub enum Check {
    /// Exactly this many rows.
    Rows(usize),
    /// At least this many rows.
    MinRows(usize),
    /// Each value appears in the column.
    Covers(&'static str, &'static [&'static str]),
    /// Some row's cell in the column passes the test.
    Any(&'static str, Test),
    /// Every row's cell in the column passes the test.
    Every(&'static str, Test),
    /// `When(c, t, column, test)`: every row whose cell in `c` passes `t`
    /// has a cell in `column` that passes `test`.
    When(&'static str, Test, &'static str, Test),
    /// The artifact records the producing process's peak RSS.
    PeakRss,
}

/// A test on one cell.
#[derive(Debug, Clone, Copy)]
pub enum Test {
    /// The cell reads exactly this text.
    Is(&'static str),
    /// The cell reads anything but this text.
    IsNot(&'static str),
    /// The cell reads one of these texts.
    In(&'static [&'static str]),
    /// The cell starts with this text.
    StartsWith(&'static str),
    /// The cell ends with this text.
    EndsWith(&'static str),
    /// The cell is a number (a trailing `x` dropped) above the bound.
    Above(f64),
    /// The cell is a number at least the bound.
    AtLeast(f64),
    /// The cell is a number in the closed range.
    Within(f64, f64),
    /// The cell is a number strictly between the bounds.
    Between(f64, f64),
}

impl Test {
    fn passes(self, cell: &str) -> bool {
        let number = || cell.strip_suffix('x').unwrap_or(cell).parse::<f64>().ok();
        match self {
            Test::Is(text) => cell == text,
            Test::IsNot(text) => cell != text,
            Test::In(texts) => texts.contains(&cell),
            Test::StartsWith(prefix) => cell.starts_with(prefix),
            Test::EndsWith(suffix) => cell.ends_with(suffix),
            Test::Above(bound) => number().is_some_and(|v| v > bound),
            Test::AtLeast(bound) => number().is_some_and(|v| v >= bound),
            Test::Within(lo, hi) => number().is_some_and(|v| (lo..=hi).contains(&v)),
            Test::Between(lo, hi) => number().is_some_and(|v| lo < v && v < hi),
        }
    }
}

impl Check {
    /// Checks `record` of an artifact whose footer holds `peak_rss`; the
    /// error says what was found instead.
    pub(crate) fn verify(
        &self,
        record: &BenchExperiment,
        peak_rss: Option<u64>,
    ) -> Result<(), String> {
        fn cell(row: &[String], i: usize) -> &str {
            row.get(i).map_or("", String::as_str)
        }
        fn ensure(holds: bool, found: impl FnOnce() -> String) -> Result<(), String> {
            if holds {
                Ok(())
            } else {
                Err(found())
            }
        }
        let column = |name: &str| {
            let found = record.columns.iter().position(|c| c == name);
            found.ok_or_else(|| format!("no column `{name}`"))
        };
        let every = |only: Option<(usize, Test)>, i: usize, test: Test| {
            let mut failing = record.rows.iter().filter(|row| {
                only.is_none_or(|(j, only)| only.passes(cell(row, j))) && !test.passes(cell(row, i))
            });
            match failing.next() {
                None => Ok(()),
                Some(first) => Err(format!(
                    "{} row(s) fail, first [{}]",
                    1 + failing.count(),
                    first.join(", ")
                )),
            }
        };
        let rows = record.rows.len();
        match *self {
            Check::Rows(n) => ensure(rows == n, || format!("found {rows}")),
            Check::MinRows(n) => ensure(rows >= n, || format!("found {rows}")),
            Check::Covers(name, values) => {
                let i = column(name)?;
                let missing: Vec<&&str> = values
                    .iter()
                    .filter(|value| !record.rows.iter().any(|row| cell(row, i) == **value))
                    .collect();
                ensure(missing.is_empty(), || format!("missing {missing:?}"))
            }
            Check::Any(name, test) => {
                let i = column(name)?;
                let holds = record.rows.iter().any(|row| test.passes(cell(row, i)));
                ensure(holds, || "no row does".to_string())
            }
            Check::Every(name, test) => every(None, column(name)?, test),
            Check::When(if_name, if_test, name, test) => {
                every(Some((column(if_name)?, if_test)), column(name)?, test)
            }
            Check::PeakRss => ensure(peak_rss.is_some_and(|bytes| bytes > 0), || {
                "not recorded".to_string()
            }),
        }
    }
}

/// Every declared table, in [`EXPERIMENTS`] order.
pub(crate) fn tables() -> impl Iterator<Item = &'static TableSpec> {
    EXPERIMENTS.iter().flat_map(|experiment| experiment.tables)
}

/// Runs every check [`EXPERIMENTS`] declares on `run`. A record that
/// declares checks must be in the artifact. Returns one line per failure,
/// naming the record and the check.
pub fn check_artifact(run: &BenchRun) -> Vec<String> {
    let mut failures = Vec::new();
    for table in tables().filter(|table| !table.checks.is_empty()) {
        let Some(record) = run.experiment(table.record) else {
            failures.push(format!("{}: not in the artifact", table.record));
            continue;
        };
        for check in table.checks {
            if let Err(found) = check.verify(record, run.peak_rss_bytes) {
                failures.push(format!("{}: {check:?}: {found}", table.record));
            }
        }
    }
    failures
}

const fn stdout(record: &'static str) -> TableSpec {
    TableSpec {
        record,
        stream: Stream::Stdout,
        gate: None,
        checks: &[],
    }
}

const fn stderr(record: &'static str) -> TableSpec {
    TableSpec {
        stream: Stream::Stderr,
        ..stdout(record)
    }
}

fn one(table: Table) -> RunOutput {
    (vec![table], None)
}

fn two((first, second): (Table, Table)) -> RunOutput {
    (vec![first, second], None)
}

/// The chaos scenarios whose crashes must lose requests.
const CRASHES: Test = In(&["crash-minority", "crash-part"]);

/// The six network scenarios `network` and `live` both run.
const NETWORK_SCENARIOS: &[&str] = &[
    "clean",
    "lossy",
    "heavy-tail",
    "minority-part",
    "flapping",
    "asym-split",
];

/// Every experiment, in `all` order; `throughput`, whose one table is
/// wall-clock, comes last and is not in `all`.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "maj3",
        heading: "Section 2.3 worked example: Maj3",
        run: |c| {
            let (table, art) = maj3(c);
            let art = format!("Optimal decision tree (Figure 4):\n\n{art}");
            (vec![table], Some(art))
        },
        tables: &[stdout("maj3")],
    },
    Experiment {
        name: "table1",
        heading: "Table 1: probe complexity of Maj, Triang, Tree and HQS",
        run: |c| one(table1(c)),
        tables: &[stdout("table1")],
    },
    Experiment {
        name: "crumbling-walls",
        heading: "Theorem 3.3 / Corollary 3.4: Probe_CW needs at most 2k−1 expected probes",
        run: |c| one(crumbling_walls(c)),
        tables: &[stdout("crumbling-walls")],
    },
    Experiment {
        name: "tree-exponent",
        heading: "Proposition 3.6 / Corollary 3.7: Tree exponent log2(1+p)",
        run: |c| one(tree_exponent(c)),
        tables: &[stdout("tree-exponent")],
    },
    Experiment {
        name: "hqs-exponent",
        heading: "Theorem 3.8: HQS probabilistic exponents",
        run: |c| one(hqs_exponent(c)),
        tables: &[stdout("hqs-exponent")],
    },
    Experiment {
        name: "randomized",
        heading: "Section 4 upper bounds: randomized algorithms",
        run: |c| one(randomized(c)),
        tables: &[stdout("randomized")],
    },
    Experiment {
        name: "lower-bounds",
        heading: "Section 4 lower bounds via Yao's principle",
        run: |c| one(lower_bounds(c)),
        tables: &[stdout("lower-bounds")],
    },
    Experiment {
        name: "hqs-randomized",
        heading: "Proposition 4.9 vs Theorem 4.10: R_Probe_HQS vs IR_Probe_HQS",
        run: |c| one(hqs_randomized(c)),
        tables: &[stdout("hqs-randomized")],
    },
    Experiment {
        name: "lemmas",
        heading: "Section 2.4 technical lemmas",
        run: |c| one(lemmas_table(c)),
        tables: &[stdout("lemmas")],
    },
    Experiment {
        name: "availability",
        heading: "Fact 2.3 and availability recursions",
        run: |c| one(availability_table(c)),
        tables: &[stdout("availability")],
    },
    Experiment {
        name: "zoned",
        heading: "Correlated zones: probe complexity and availability vs correlation strength",
        run: |c| one(zoned(c)),
        tables: &[stdout("zoned")],
    },
    Experiment {
        name: "churn",
        heading: "Churn: time-averaged probe complexity along fail/repair timelines",
        run: |c| one(churn(c)),
        tables: &[stdout("churn")],
    },
    Experiment {
        name: "churn-delta",
        heading: "Churn delta engine: incremental re-evaluation vs from-scratch, all families",
        run: |c| two(churn_delta(c)),
        tables: &[
            // `agree` is 1 iff every churn step's incremental verdict matched
            // a from-scratch evaluation.
            stdout("churn-delta")
                .gate("agree", &["family", "n", "regime"])
                .checks(&[
                    Rows(14),
                    Covers("regime", &["slow", "fast"]),
                    Every("agree", Is("1")),
                ]),
            stderr("churn-delta-throughput")
                .gate("steps_per_s", &["family", "n", "path"])
                .checks(&[
                    Covers("path", &["scratch", "delta", "stream-walk"]),
                    Every("steps_per_s", Above(0.0)),
                    When("path", Is("delta"), "speedup", AtLeast(5.0)),
                    When(
                        "path",
                        Is("stream-walk"),
                        "peak_rss_mib",
                        Between(0.0, 2048.0),
                    ),
                ]),
        ],
    },
    Experiment {
        name: "scenario-matrix",
        heading: "Scenario matrix: every system × strategy × failure scenario",
        run: |c| one(scenario_matrix(c)),
        tables: &[stdout("scenario-matrix")],
    },
    Experiment {
        name: "compose",
        heading: "Compose: recursive threshold compositions, certified and cross-checked",
        run: |c| one(compose(c)),
        // `agree` ANDs every certificate a row runs: intersection,
        // lane-vs-scalar, delta-vs-scratch, native bit-identity,
        // availability-bound containment and sim-vs-live.
        tables: &[stdout("compose")
            .gate("agree", &["spec", "n", "model"])
            .checks(&[
                Rows(8),
                Every("agree", Is("1")),
                When("model", StartsWith("iid"), "intersect", Is("1")),
                Any("model", StartsWith("live(")),
            ])],
    },
    Experiment {
        name: "workload",
        heading: "Workload: concurrent sessions, service queues and load-aware probing",
        run: |c| one(workload(c)),
        tables: &[stdout("workload")
            .gate(
                "thr_per_s",
                &["system", "n", "strategy", "workload", "scenario"],
            )
            .checks(&[
                MinRows(36),
                Covers("strategy", &["LeastLoaded", "PowerOfTwo"]),
                Every("thr_per_s", Above(0.0)),
                Every("p99_ms", Above(0.0)),
                Every("imbalance", AtLeast(1.0)),
            ])],
    },
    Experiment {
        name: "network",
        heading:
            "Network faults: loss, heavy tails, partitions, and retrying/hedged probe sessions",
        run: |c| one(network(c)),
        tables: &[stdout("network")
            .gate(
                "thr_per_s",
                &["system", "n", "strategy", "net", "policy", "scenario"],
            )
            .checks(&[
                MinRows(33),
                Covers("net", NETWORK_SCENARIOS),
                Every("ok_rate", Within(0.0, 1.0)),
                Every("wasted", Within(0.0, 1.0)),
                When("net", Is("clean"), "wasted", Within(0.0, 0.0)),
            ])],
    },
    Experiment {
        name: "live",
        heading:
            "Live: the real-concurrency runtime replays the simulator's traces, cross-validated",
        run: |c| two(live(c)),
        tables: &[
            // `agree` is 1 iff the live runtime reproduced every observable
            // of the simulator.
            stdout("live")
                .gate("agree", &["system", "n", "strategy", "scenario", "policy"])
                .checks(&[
                    MinRows(12),
                    Covers("scenario", NETWORK_SCENARIOS),
                    Every("agree", Is("1")),
                ]),
            stderr("live-throughput")
                .gate("sessions_per_s", &["system", "n", "scenario", "policy"])
                .checks(&[Every("sessions_per_s", AtLeast(50.0))]),
        ],
    },
    Experiment {
        name: "chaos",
        heading: "Chaos: node crash/stall/restart under supervision, naive vs health-aware clients",
        run: |c| two(chaos(c)),
        tables: &[
            // `agree` also holds the crashed-node ledger: delivered requests
            // equal served plus lost ones.
            stdout("chaos")
                .gate("agree", &["system", "n", "strategy", "scenario", "policy"])
                .checks(&[
                    Rows(24),
                    Covers(
                        "scenario",
                        &[
                            "crash-minority",
                            "rolling-restart",
                            "stall-flap",
                            "crash-part",
                        ],
                    ),
                    Any("policy", EndsWith("+health")),
                    Every("agree", Is("1")),
                    When("scenario", CRASHES, "lost", Above(0.0)),
                    When("scenario", CRASHES, "recov_max_us", IsNot("-")),
                ]),
            stderr("chaos-throughput")
                .gate("sessions_per_s", &["system", "n", "scenario", "policy"])
                .checks(&[Every("sessions_per_s", Above(0.0))]),
        ],
    },
    Experiment {
        name: "scale",
        heading: "Scale: the lane engine at n ≥ 10^6 (Grid 1000×1000, Tree h=19, Maj 10^6+1)",
        run: |c| two(scale(c)),
        tables: &[
            stdout("scale")
                .gate("avail", &["family", "n", "p"])
                .checks(&[
                    Rows(6),
                    Every("n", AtLeast(1e6)),
                    Every("avail", Within(0.0, 1.0)),
                    PeakRss,
                ]),
            stderr("scale-throughput")
                .gate("lane_trials_per_s", &["family", "n", "width", "p"])
                .checks(&[Every("lane_trials_per_s", AtLeast(1e7))]),
        ],
    },
    Experiment {
        name: "figures",
        heading: "",
        run: |_| (Vec::new(), Some(figures())),
        tables: &[],
    },
    Experiment {
        name: "throughput",
        heading: "Throughput: trials/second on the hot paths",
        run: |c| one(throughput(c)),
        tables: &[stderr("throughput")
            .gate("trials_per_sec", &["family", "n", "path"])
            .checks(&[Every("trials_per_sec", Above(0.0))])],
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_records_are_unique_and_all_skips_wall_clock_only_experiments() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        let mut records: Vec<&str> = tables().map(|t| t.record).collect();
        let (name_count, record_count) = (names.len(), records.len());
        names.sort_unstable();
        names.dedup();
        records.sort_unstable();
        records.dedup();
        assert_eq!((names.len(), records.len()), (name_count, record_count));
        assert!(!names.contains(&"all"), "`all` is the meta-entry");
        let skipped: Vec<&str> = EXPERIMENTS
            .iter()
            .filter(|e| !e.in_all())
            .map(|e| e.name)
            .collect();
        assert_eq!(skipped, ["throughput"]);
    }
}
