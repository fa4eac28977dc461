//! End-to-end tests of the message-level network layer: partition
//! schedules, the fault-injection engine, robustness policies, and
//! thread-count determinism — all through the `probequorum` facade.

use probequorum::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The shared workload profile of these tests.
fn open_config(sessions: usize) -> WorkloadConfig {
    open_poisson_workload(sessions, SimTime::from_micros(250))
}

fn paper_cells(sessions: usize) -> Vec<WorkloadCell> {
    let pairs: Vec<(DynSystem, DynProbeStrategy)> = vec![
        (
            erase_system(Majority::new(15).unwrap()),
            typed_strategy::<Majority, _>(ProbeMaj::new()),
        ),
        (
            erase_system(CrumblingWalls::triang(7).unwrap()),
            typed_strategy::<CrumblingWalls, _>(ProbeCw::new()),
        ),
    ];
    pairs
        .into_iter()
        .map(|(system, paper)| {
            WorkloadCell::new(
                system,
                WorkloadStrategy::Paper(paper),
                ColoringSource::iid(0.1),
                "open-poisson",
                open_config(sessions),
            )
        })
        .collect()
}

fn lift(cells: Vec<WorkloadCell>, network: NetworkModel, policy: ProbePolicy) -> Vec<WorkloadCell> {
    let scenario = NetScenario {
        name: "test",
        network,
        policy,
    };
    cells
        .into_iter()
        .map(|cell| cell.with_scenario(&scenario))
        .collect()
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(48))]

    /// Satellite: `heal_all` restores full connectivity — after the heal
    /// instant, every message of every node passes in both directions, for
    /// any window soup (isolating, asymmetric, flapping, overlapping).
    #[test]
    fn heal_all_restores_full_connectivity(
        froms in proptest::collection::vec(0u64..5_000, 1..6),
        lengths in proptest::collection::vec(1u64..5_000, 1..6),
        kinds in proptest::collection::vec(0u8..3, 1..6),
        node_picks in proptest::collection::vec(0usize..12, 1..6),
        heal_at in 0u64..8_000,
        probe_offset in 0u64..4_000,
    ) {
        let n = 12usize;
        let mut schedule = PartitionSchedule::none();
        for (((from, length), kind), node) in froms
            .iter()
            .zip(&lengths)
            .zip(&kinds)
            .zip(&node_picks)
        {
            schedule.push(PartitionWindow {
                from: SimTime::from_micros(*from),
                until: SimTime::from_micros(from + length),
                nodes: vec![*node, (*node + 5) % n],
                kind: match kind {
                    0 => PartitionKind::Isolate,
                    1 => PartitionKind::DropRequests,
                    _ => PartitionKind::DropResponses,
                },
            });
        }
        let heal = SimTime::from_micros(heal_at);
        schedule.heal_all(heal);
        let at = heal + SimTime::from_micros(probe_offset);
        for node in 0..n {
            for direction in [LinkDirection::Request, LinkDirection::Response] {
                prop_assert!(
                    schedule.delivers(node, direction, at),
                    "node {node} still blocked at {at} after heal_all({heal})"
                );
            }
        }
    }

    /// Satellite: on a clean network, hedging never decreases the ok-rate
    /// (it only overlaps stalls), for any seed and hedge delay.
    #[test]
    fn hedging_never_decreases_ok_rate_on_clean_networks(
        seed in 0u64..100,
        hedge_us in 200u64..20_000,
    ) {
        let engine = EvalEngine::with_threads(1);
        let plain = run_workload_cells(
            &engine,
            seed,
            &lift(paper_cells(100), NetworkModel::clean(), ProbePolicy::sequential()),
        );
        let hedged_policy =
            ProbePolicy::sequential().with_hedge(SimTime::from_micros(hedge_us));
        let hedged = run_workload_cells(
            &engine,
            seed,
            &lift(paper_cells(100), NetworkModel::clean(), hedged_policy),
        );
        for (p, h) in plain.iter().zip(&hedged) {
            prop_assert!(
                h.success_rate >= p.success_rate,
                "hedging lowered ok-rate: {} -> {} (seed {seed}, hedge {hedge_us}us)",
                p.success_rate,
                h.success_rate
            );
            // Observations are unchanged, so the probe count is too.
            prop_assert_eq!(h.probes_per_session, p.probes_per_session);
        }
    }
}

#[test]
fn network_outcomes_are_bit_identical_across_thread_counts() {
    let system = erase_system(TreeQuorum::new(4).unwrap());
    let config = open_config(250);
    let cell = WorkloadCell::new(
        system,
        WorkloadStrategy::Paper(typed_strategy::<TreeQuorum, _>(ProbeTree::new())),
        ColoringSource::iid(0.08),
        "open-poisson",
        config,
    );
    let cells: Vec<WorkloadCell> = network_scenarios(31, &config)
        .iter()
        .map(|scenario| cell.clone().with_scenario(scenario))
        .collect();
    let single = run_workload_cells(&EvalEngine::with_threads(1), 2001, &cells);
    let four = run_workload_cells(&EvalEngine::with_threads(4), 2001, &cells);
    let eight = run_workload_cells(&EvalEngine::with_threads(8), 2001, &cells);
    assert_eq!(single, four, "1 vs 4 threads diverged");
    assert_eq!(single, eight, "1 vs 8 threads diverged");
    assert_eq!(
        net_outcomes_table(&single).render(),
        net_outcomes_table(&eight).render()
    );
}

#[test]
fn loss_degrades_naive_sessions_and_retries_recover_them() {
    let engine = EvalEngine::new();
    let lossy = NetworkModel::lossy(120_000); // 12 % per message leg
    let clean = run_workload_cells(
        &engine,
        5,
        &lift(
            paper_cells(300),
            NetworkModel::clean(),
            ProbePolicy::sequential(),
        ),
    );
    let naive = run_workload_cells(
        &engine,
        5,
        &lift(paper_cells(300), lossy.clone(), ProbePolicy::sequential()),
    );
    let robust = run_workload_cells(
        &engine,
        5,
        &lift(
            paper_cells(300),
            lossy,
            ProbePolicy::retry(4, SimTime::from_micros(200)),
        ),
    );
    for ((c, n), r) in clean.iter().zip(&naive).zip(&robust) {
        assert!(
            n.success_rate < c.success_rate,
            "{}: loss must degrade the naive ok-rate ({} vs {})",
            c.system,
            n.success_rate,
            c.success_rate
        );
        assert!(
            r.success_rate > n.success_rate,
            "{}: retries must recover ok-rate ({} vs {})",
            c.system,
            r.success_rate,
            n.success_rate
        );
        assert!(r.wasted_fraction > 0.0, "retries write attempts off");
        assert!(
            r.p99_us > c.p99_us,
            "recovery is paid in tail latency ({} vs {})",
            r.p99_us,
            c.p99_us
        );
    }
}

#[test]
fn minority_partition_dips_and_heals() {
    // One Majority cell through a minority partition covering the middle of
    // the run: sessions arriving inside the window must lean on the healthy
    // two thirds (more probes, some failures for Tree-like systems); the
    // clean control must dominate on latency.
    let config = open_config(400);
    let horizon = config.horizon_hint();
    let n = 15usize;
    let network = NetworkModel {
        partitions: PartitionSchedule::minority(
            (0..n / 3).collect(),
            SimTime::from_micros(horizon.as_micros() / 4),
            SimTime::from_micros(horizon.as_micros() * 5 / 8),
        ),
        ..NetworkModel::clean()
    };
    let cells = |network: NetworkModel| {
        vec![WorkloadCell {
            net: "test".into(),
            network,
            ..WorkloadCell::new(
                erase_system(Majority::new(n).unwrap()),
                WorkloadStrategy::Paper(typed_strategy::<Majority, _>(ProbeMaj::new())),
                ColoringSource::iid(0.05),
                "open-poisson",
                config,
            )
        }]
    };
    let engine = EvalEngine::new();
    let clean = &run_workload_cells(&engine, 7, &cells(NetworkModel::clean()))[0];
    let split = &run_workload_cells(&engine, 7, &cells(network))[0];
    assert!(
        split.probes_per_session > clean.probes_per_session,
        "partitioned sessions must probe past the cut minority: {} vs {}",
        split.probes_per_session,
        clean.probes_per_session
    );
    assert!(
        split.p99_us > clean.p99_us,
        "timeouts on the cut minority must inflate the tail: {} vs {}",
        split.p99_us,
        clean.p99_us
    );
    // Maj(15) tolerates 5 unreachable nodes: the quorum ok-rate holds.
    assert!(split.success_rate > 0.95);
}

#[test]
fn asymmetric_split_wastes_served_work_and_flapping_recovers_between_flaps() {
    let config = open_config(300);
    let n = 15usize;
    let scenarios = network_scenarios(n, &config);
    let base = WorkloadCell::new(
        erase_system(Majority::new(n).unwrap()),
        WorkloadStrategy::Paper(typed_strategy::<Majority, _>(ProbeMaj::new())),
        ColoringSource::iid(0.05),
        "open-poisson",
        config,
    );
    let cells: Vec<WorkloadCell> = scenarios
        .iter()
        .map(|s| base.clone().with_scenario(s))
        .collect();
    let outcomes = run_workload_cells(&EvalEngine::new(), 13, &cells);
    let get = |name: &str| {
        outcomes
            .iter()
            .find(|o| o.net == name)
            .unwrap_or_else(|| panic!("missing scenario {name}"))
    };
    let clean = get("clean");
    let asym = get("asym-split");
    let flapping = get("flapping");
    assert_eq!(clean.wasted_fraction, 0.0);
    assert!(
        asym.wasted_fraction > 0.1,
        "served-then-dropped responses must register: {}",
        asym.wasted_fraction
    );
    assert!(
        asym.messages_per_session > clean.messages_per_session,
        "the asymmetric split transmits responses that never land"
    );
    assert!(
        flapping.success_rate > 0.9,
        "between flaps the quorum must be reachable: {}",
        flapping.success_rate
    );
    assert!(flapping.p99_us >= clean.p99_us);
}

#[test]
fn hedging_cuts_the_heavy_tail() {
    // Heavy-tailed delays with a hedged policy versus the same network
    // naive: hedging must not change what is observed, and must shrink the
    // tail that stragglers cause.
    let network = NetworkModel {
        delay: Some(Distribution::heavy_tail(
            SimTime::from_micros(100),
            SimTime::from_micros(400),
            SimTime::from_millis(20),
            60_000, // 6 % stragglers
        )),
        ..NetworkModel::clean()
    };
    let engine = EvalEngine::new();
    let naive = run_workload_cells(
        &engine,
        3,
        &lift(paper_cells(400), network.clone(), ProbePolicy::sequential()),
    );
    let hedged_policy = ProbePolicy::sequential().with_hedge(SimTime::from_millis(1));
    let hedged = run_workload_cells(&engine, 3, &lift(paper_cells(400), network, hedged_policy));
    for (n, h) in naive.iter().zip(&hedged) {
        assert_eq!(
            h.success_rate, n.success_rate,
            "hedging only overlaps — observations are unchanged"
        );
        assert!(
            h.p95_us < n.p95_us,
            "{}: hedging must cut the straggler tail ({} vs {})",
            n.system,
            h.p95_us,
            n.p95_us
        );
    }
}

#[test]
fn probe_fates_respect_the_policy_budget() {
    let mut rng = StdRng::seed_from_u64(42);
    let model = NetworkModel::lossy(500_000);
    for attempts in 1..=5u32 {
        let policy = ProbePolicy::retry(attempts, SimTime::from_micros(100));
        for _ in 0..50 {
            let fate = model.probe_fate(0, true, SimTime::ZERO, &policy, &mut rng);
            assert!(fate.attempts() <= attempts as usize + 1);
            match fate.observed {
                Color::Red => assert_eq!(fate.failures.len(), attempts as usize),
                Color::Green => assert!(fate.failures.len() < attempts as usize),
            }
        }
    }
}
