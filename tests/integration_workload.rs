//! End-to-end tests of the heavy-traffic workload layer: the discrete-event
//! engine, load-aware probing, latency metrics and thread-count determinism,
//! all through the `probequorum` facade.

use probequorum::prelude::*;

/// The standard cell block used by these tests: one system, three
/// strategies, both arrival models, one failure scenario.
fn cells_for(system: DynSystem, paper: DynProbeStrategy, sessions: usize) -> Vec<WorkloadCell> {
    let mut cells = Vec::new();
    for strategy in [
        WorkloadStrategy::Paper(paper.clone()),
        WorkloadStrategy::LeastLoaded,
        WorkloadStrategy::PowerOfTwo,
    ] {
        for (name, config) in standard_workloads(sessions) {
            cells.push(WorkloadCell::new(
                system.clone(),
                strategy.clone(),
                ColoringSource::iid(0.1),
                name,
                config,
            ));
        }
    }
    cells
}

#[test]
fn workload_outcomes_are_bit_identical_across_thread_counts() {
    let cells = cells_for(
        erase_system(CrumblingWalls::triang(7).unwrap()),
        typed_strategy::<CrumblingWalls, _>(ProbeCw::new()),
        250,
    );
    let single = run_workload_cells(&EvalEngine::with_threads(1), 2001, &cells);
    let four = run_workload_cells(&EvalEngine::with_threads(4), 2001, &cells);
    let eight = run_workload_cells(&EvalEngine::with_threads(8), 2001, &cells);
    assert_eq!(single, four, "1 vs 4 threads diverged");
    assert_eq!(single, eight, "1 vs 8 threads diverged");
    assert_eq!(
        outcomes_table(&single).render(),
        outcomes_table(&eight).render()
    );
}

#[test]
fn load_aware_probing_beats_the_paper_strategy_on_imbalance() {
    // Probe_CW always starts at the wall's narrow rows, so its load profile
    // is extremely skewed; both load-aware orders must flatten it by a wide
    // margin under every arrival model.
    let cells = cells_for(
        erase_system(CrumblingWalls::triang(7).unwrap()),
        typed_strategy::<CrumblingWalls, _>(ProbeCw::new()),
        400,
    );
    let outcomes = run_workload_cells(&EvalEngine::new(), 7, &cells);
    for workload in ["open-poisson", "closed-loop"] {
        let get = |strategy: &str| {
            outcomes
                .iter()
                .find(|o| o.strategy == strategy && o.workload == workload)
                .unwrap_or_else(|| panic!("missing {strategy}/{workload}"))
        };
        let paper = get("Probe_CW");
        let least = get("LeastLoaded");
        let p2c = get("PowerOfTwo");
        assert!(
            least.imbalance < paper.imbalance && p2c.imbalance < paper.imbalance,
            "{workload}: paper {} vs least {} / p2c {}",
            paper.imbalance,
            least.imbalance,
            p2c.imbalance
        );
        // The paper strategy keeps its probe-count advantage: that is the
        // trade the load-aware orders make.
        assert!(paper.probes_per_session <= least.probes_per_session);
    }
}

#[test]
fn open_loop_overload_shows_up_in_the_tail_latency() {
    let system = erase_system(Majority::new(15).unwrap());
    let paper = typed_strategy::<Majority, _>(ProbeMaj::new());
    let sessions = 300;
    let calm_config = open_poisson_workload(sessions, SimTime::from_millis(20));
    let slammed_config = open_poisson_workload(sessions, SimTime::from_micros(40));
    let build = |label: &str, config| {
        WorkloadCell::new(
            system.clone(),
            WorkloadStrategy::Paper(paper.clone()),
            ColoringSource::iid(0.05),
            label,
            config,
        )
    };
    let outcomes = run_workload_cells(
        &EvalEngine::new(),
        5,
        &[build("calm", calm_config), build("slammed", slammed_config)],
    );
    let (calm, slammed) = (&outcomes[0], &outcomes[1]);
    assert!(
        slammed.p99_us > calm.p99_us,
        "queueing must inflate the tail: slammed {} vs calm {}",
        slammed.p99_us,
        calm.p99_us
    );
    assert!(
        slammed.throughput_per_sec > calm.throughput_per_sec,
        "the open loop offers more load, so more sessions finish per second"
    );
    assert!(slammed.peak_backlog > calm.peak_backlog);
}

#[test]
fn failure_scenarios_propagate_into_workload_success_rates() {
    // Under a wholesale-correlated scenario some sessions must fail to find
    // a quorum, and the engine's success-rate accounting must see it.
    let system = erase_system(Majority::new(15).unwrap());
    let paper = typed_strategy::<Majority, _>(ProbeMaj::new());
    let sessions = 400;
    let build = |source| {
        WorkloadCell::new(
            system.clone(),
            WorkloadStrategy::Paper(paper.clone()),
            source,
            "open-poisson",
            open_poisson_workload(sessions, SimTime::from_micros(250)),
        )
    };
    let outcomes = run_workload_cells(
        &EvalEngine::new(),
        13,
        &[
            build(ColoringSource::iid(0.05)),
            build(ColoringSource::zoned_correlated(5, 0.5, 1.0)),
        ],
    );
    assert!(
        outcomes[0].success_rate > 0.95,
        "iid(0.05) rarely downs Maj"
    );
    assert!(
        outcomes[1].success_rate < outcomes[0].success_rate,
        "wholesale zone failures must cost availability: {} vs {}",
        outcomes[1].success_rate,
        outcomes[0].success_rate
    );
}

#[test]
fn raw_engine_composes_with_typed_strategies_and_histograms() {
    // Drive the cluster-level engine directly (no quorum-sim wrapper): a
    // closed loop of Tree probes with a load-aware strategy, checking the
    // ledger/histogram plumbing end to end.
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let tree = TreeQuorum::new(3).unwrap();
    let n = tree.universe_size();
    let view = LoadView::new(n);
    let strategy = LeastLoadedScan::new(view.clone());
    let config = WorkloadConfig {
        arrival: ArrivalProcess::ClosedLoop {
            clients: 4,
            think: Distribution::exponential(SimTime::from_micros(300)),
        },
        sessions: 120,
        rpc_latency: Distribution::uniform(SimTime::from_micros(50), SimTime::from_micros(200)),
        service: Distribution::exponential(SimTime::from_micros(100)),
        probe_timeout: SimTime::from_millis(2),
    };
    let model = FailureModel::iid(0.15);
    let report = WorkloadSpec::new(n)
        .config(config)
        .run_plans(99, |session, ledger, now| {
            for e in 0..n {
                view.set(e, ledger.score(e, now));
            }
            let mut rng = StdRng::seed_from_u64(session);
            let coloring = model.sample_at(n, session, &mut rng);
            let run = run_strategy(&tree, &strategy, &coloring, &mut rng);
            SessionPlan {
                colors: run.sequence.iter().map(|&e| coloring.color(e)).collect(),
                sequence: run.sequence,
                success: run.witness.is_green(),
            }
        })
        .report;
    assert_eq!(report.sessions, 120);
    assert!(report.successes > 0);
    assert_eq!(report.latency.count(), 120);
    assert!(report.latency.p50().unwrap() <= report.latency.p99().unwrap());
    assert!(report.duration > SimTime::ZERO);
    let probed: u64 = report.ledger.probes_received().iter().sum();
    assert_eq!(probed, report.probes);
    // Closed loop with 4 clients: no node can ever queue more than 4 deep.
    for node in 0..n {
        assert!(report.ledger.peak_backlog(node) <= 4);
    }
    assert!(report.load_imbalance() >= 1.0);
}
