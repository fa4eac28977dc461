//! Quickstart: build the paper's quorum systems, probe them, and compare the
//! measured probe counts with the paper's bounds.
//!
//! Run with:
//!
//! ```text
//! cargo run --example quickstart -p probequorum
//! ```

use probequorum::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

fn main() -> Result<(), QuorumError> {
    let mut rng = StdRng::seed_from_u64(2001);
    let p = 0.5;
    // `EXAMPLE_TRIALS` bounds the work in CI smoke runs.
    let trials = std::env::var("EXAMPLE_TRIALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5_000);
    // Each estimate is one cell of an evaluation plan, seeded from `rng`.
    let mut mean_probes = |system: DynSystem, strategy: DynProbeStrategy| {
        let mut plan = EvalPlan::new(rng.next_u64()).trials(trials);
        plan.probe(&system, &strategy, ColoringSource::iid(p));
        EvalEngine::new().run(&plan).cells[0].estimate.mean
    };

    println!("== Average probe complexity in quorum systems — quickstart ==\n");
    println!("Every element fails independently with probability p = {p}; a probing");
    println!("algorithm looks for a live quorum (or a certificate that none exists).\n");

    let mut table = Table::new(["system", "n", "quorum size", "mean probes", "paper bound"]);

    // Majority over 101 elements: expected probes close to n (Proposition 3.2).
    let maj = Majority::new(101)?;
    let mean = mean_probes(
        erase_system(maj.clone()),
        typed_strategy::<Majority, _>(ProbeMaj::new()),
    );
    table.add_row(vec![
        "Maj".into(),
        maj.universe_size().to_string(),
        maj.quorum_size().to_string(),
        format!("{mean:.1}"),
        format!("n − Θ(√n) ≈ {:.1}", bounds::maj_probabilistic(101, p)),
    ]);

    // Wheel over 101 elements: constant expected probes (Corollary 3.4).
    let wheel = CrumblingWalls::wheel(101)?;
    let mean = mean_probes(
        erase_system(wheel),
        typed_strategy::<CrumblingWalls, _>(ProbeCw::new()),
    );
    table.add_row(vec![
        "Wheel".into(),
        "101".into(),
        "2 / 100".into(),
        format!("{mean:.2}"),
        "≤ 3".into(),
    ]);

    // Triang with 13 rows (91 elements): O(k) expected probes (Theorem 3.3).
    let triang = CrumblingWalls::triang(13)?;
    let mean = mean_probes(
        erase_system(triang.clone()),
        typed_strategy::<CrumblingWalls, _>(ProbeCw::new()),
    );
    table.add_row(vec![
        "Triang".into(),
        triang.universe_size().to_string(),
        triang.min_quorum_size().to_string(),
        format!("{mean:.2}"),
        format!("≤ 2k − 1 = {}", 2 * triang.row_count() - 1),
    ]);

    // Tree of height 6 (127 elements): O(n^0.585) (Corollary 3.7).
    let tree = TreeQuorum::new(6)?;
    let mean = mean_probes(
        erase_system(tree.clone()),
        typed_strategy::<TreeQuorum, _>(ProbeTree::new()),
    );
    table.add_row(vec![
        "Tree".into(),
        tree.universe_size().to_string(),
        tree.min_quorum_size().to_string(),
        format!("{mean:.2}"),
        format!(
            "O(n^0.585) ≈ {:.1}",
            (tree.universe_size() as f64).powf(0.585)
        ),
    ]);

    // HQS of height 4 (81 leaves): Θ(n^0.834) at p = 1/2 (Theorem 3.8).
    let hqs = Hqs::new(4)?;
    let mean = mean_probes(
        erase_system(hqs.clone()),
        typed_strategy::<Hqs, _>(ProbeHqs::new()),
    );
    table.add_row(vec![
        "HQS".into(),
        hqs.universe_size().to_string(),
        hqs.quorum_size().to_string(),
        format!("{mean:.2}"),
        format!(
            "Θ(n^0.834) ≈ {:.1}",
            (hqs.universe_size() as f64).powf(0.834)
        ),
    ]);

    println!("{table}");

    println!("The crumbling-walls systems locate a live quorum after a handful of probes");
    println!("regardless of n, while Majority — the most available system — must pay");
    println!("close to n probes; Tree and HQS sit in between with polynomial exponents.");
    Ok(())
}
