//! The benchmark's own test, on small configurations: every reference check
//! passes, the layer spans account for the traced wall, and every count
//! repeats exactly between two runs of the same seed and round count.

use probebench::avail::{AvailConfig, AvailSystem};
use probebench::churn::ChurnConfig;
use probebench::reference::Exact;
use probebench::sessions::{self, SessionsConfig};
use probebench::{avail, churn, Layer, Outcome, MIN_ROUNDS};
use quorum_sim::EvalEngine;
use quorum_systems::SystemSpec;

fn small_avail(p: f64) -> AvailConfig {
    let system = |label, spec, exact, twin_of| AvailSystem {
        label,
        spec,
        exact,
        twin_of,
    };
    AvailConfig {
        p,
        trials: 1024,
        systems: vec![
            system(
                "Tree6",
                SystemSpec::Tree { height: 6 },
                Exact::Tree(6),
                None,
            ),
            system(
                "TreeC6",
                SystemSpec::tree_as_compose(6),
                Exact::Tree(6),
                Some(0),
            ),
            system("HQS4", SystemSpec::Hqs { height: 4 }, Exact::Hqs(4), None),
            system(
                "Grid6x6",
                SystemSpec::Grid { rows: 6, cols: 6 },
                Exact::Grid(6, 6),
                None,
            ),
            system(
                "Maj101",
                SystemSpec::Majority { n: 101 },
                Exact::Majority(101),
                None,
            ),
            system(
                "OrgMaj5x7",
                SystemSpec::org_majority(5, 7),
                Exact::OrgMajority(5, 7),
                None,
            ),
        ],
    }
}

fn small_churn() -> ChurnConfig {
    ChurnConfig {
        fail: 1.0 / 256.0,
        repair: 1.0 / 16.0,
        horizon: 5_000,
        chunk: 2048,
        systems: vec![
            ("Tree9", SystemSpec::Tree { height: 9 }, Exact::Tree(9)),
            (
                "Grid32x32",
                SystemSpec::Grid { rows: 32, cols: 32 },
                Exact::Grid(32, 32),
            ),
            ("TreeC9", SystemSpec::tree_as_compose(9), Exact::Tree(9)),
        ],
    }
}

fn small_sessions() -> SessionsConfig {
    SessionsConfig {
        sessions: 200,
        ..sessions::full()
    }
}

/// Runs a fixed number of rounds (`seconds = 0` stops at [`MIN_ROUNDS`]),
/// traced, on one thread.
fn traced(run: impl FnOnce() -> Outcome) -> Outcome {
    EvalEngine::with_threads(1).install(run)
}

fn assert_accounts_for_wall(outcome: &Outcome) {
    assert_eq!(
        outcome.checks.failed, 0,
        "{:?}",
        outcome.checks.first_failure
    );
    assert!(outcome.checks.attempted > 0);
    assert_eq!(outcome.rounds, MIN_ROUNDS);
    let traced = outcome.traced.as_ref().expect("a traced run");
    let spans: f64 = Layer::ALL.iter().map(|&l| traced.share(l)).sum();
    let unattributed = traced.unattributed_frac();
    assert!((spans + unattributed - 1.0).abs() < 1e-9);
    // Spans never overlap, so they cannot exceed the wall; and the code
    // between them — the benchmark's own loop — is a minor part of it.
    assert!(
        (-1e-9..0.5).contains(&unattributed),
        "unattributed share {unattributed}"
    );
    for layer in Layer::ALL {
        assert!(traced.self_s(layer) > 0.0, "{} never ran", layer.name());
    }
}

fn assert_counts_repeat(first: &Outcome, second: &Outcome) {
    assert!(!first.detail.counts.is_empty());
    assert_eq!(first.detail.counts, second.detail.counts);
    assert_eq!(first.checks.attempted, second.checks.attempted);
}

#[test]
fn avail_replica_spans_and_counts() {
    for p in [0.1, 0.5] {
        let config = small_avail(p);
        let first = traced(|| avail::run(&config, 7, 0.0, true));
        let second = traced(|| avail::run(&config, 7, 0.0, true));
        assert_accounts_for_wall(&first);
        assert_counts_repeat(&first, &second);
        let words = first
            .detail
            .counts
            .iter()
            .find(|(name, _)| name == "failure.rng_words_per_lane_word")
            .expect("the RNG word count is reported")
            .1;
        // A dyadic p needs one word per lane word; p = 0.1 needs many more.
        if p == 0.5 {
            assert_eq!(words, 1.0);
        } else {
            assert!((2.0..=64.0).contains(&words), "{words}");
        }
    }
}

#[test]
fn churn_spans_and_counts() {
    let config = small_churn();
    let first = traced(|| churn::run(&config, 3, 0.0, true));
    let second = traced(|| churn::run(&config, 3, 0.0, true));
    assert_accounts_for_wall(&first);
    assert_counts_repeat(&first, &second);
}

#[test]
fn session_spans_and_counts() {
    let config = small_sessions();
    let first = traced(|| sessions::run(&config, 5, 0.0, true));
    let second = traced(|| sessions::run(&config, 5, 0.0, true));
    assert_accounts_for_wall(&first);
    assert_counts_repeat(&first, &second);
}

#[test]
fn untraced_runs_report_positive_rates() {
    let outcome =
        EvalEngine::with_threads(1).install(|| avail::run(&small_avail(0.3), 1, 0.0, false));
    assert_eq!(outcome.checks.failed, 0);
    assert!(outcome.traced.is_none());
    assert!(outcome.ops_per_s > 0.0 && outcome.setup_s > 0.0);
}
