//! Probe-complexity survey: sweep every family of the paper over growing
//! universe sizes, fit the growth exponent, and print the paper's predicted
//! exponent next to the measurement.
//!
//! The whole survey is one [`EvalPlan`] — the registries enumerate the
//! families and strategies, the engine executes every cell in parallel, and
//! the rows below are read straight out of the resulting [`EvalReport`].
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example probe_survey -p probequorum
//! ```

use probequorum::prelude::*;
use probequorum::sim::eval::fit_points;

/// One sweep: a family name, the strategy to probe it with, and the size
/// hints passed to the registry (rounded to whatever the family supports).
struct Sweep {
    family: &'static str,
    strategy: &'static str,
    size_hints: &'static [usize],
    paper_exponent: String,
}

fn main() -> Result<(), QuorumError> {
    let systems = SystemRegistry::paper();
    let strategies = StrategyRegistry::paper();
    // `EXAMPLE_TRIALS` bounds the work in CI smoke runs.
    let trials = std::env::var("EXAMPLE_TRIALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_000);
    let p = 0.5;

    let sweeps = [
        Sweep {
            family: "Maj",
            strategy: "Probe_Maj",
            size_hints: &[11, 21, 41, 81, 161],
            paper_exponent: "1.0 (n − Θ(√n))".into(),
        },
        Sweep {
            family: "Triang",
            strategy: "Probe_CW",
            size_hints: &[10, 36, 78, 136, 300],
            paper_exponent: "0.5 (2k − 1 with k ≈ √(2n))".into(),
        },
        Sweep {
            family: "Tree",
            strategy: "Probe_Tree",
            size_hints: &[15, 31, 63, 127, 255, 511, 1023],
            paper_exponent: format!("{:.3} (log2(1+p))", bounds::tree_probabilistic_exponent(p)),
        },
        Sweep {
            family: "HQS",
            strategy: "Probe_HQS",
            size_hints: &[9, 27, 81, 243, 729, 2187],
            paper_exponent: format!(
                "{:.3} (log3 2.5)",
                bounds::hqs_probabilistic_exponent_symmetric()
            ),
        },
    ];

    // Plan every cell of the survey, then run the engine once.
    let mut plan = EvalPlan::new(7).trials(trials);
    for sweep in &sweeps {
        let strategy = strategies
            .build(sweep.strategy)
            .expect("registered strategy");
        for &hint in sweep.size_hints {
            let system = systems
                .build(sweep.family, hint)
                .expect("registered family");
            plan.probe(&system, &strategy, ColoringSource::iid(p));
        }
    }
    let report = EvalEngine::new().run(&plan);

    println!("== Growth of the expected probe count at p = 1/2 ==\n");
    let mut table = Table::new([
        "family",
        "strategy",
        "sizes",
        "fitted exponent",
        "paper exponent",
    ]);
    let mut offset = 0;
    for sweep in &sweeps {
        let cells = &report.cells[offset..offset + sweep.size_hints.len()];
        offset += sweep.size_hints.len();
        let fit = fit_power_law(&fit_points(cells));
        table.add_row(vec![
            sweep.family.into(),
            sweep.strategy.into(),
            format!(
                "{:?}",
                cells
                    .iter()
                    .map(|c| c.universe_size.unwrap())
                    .collect::<Vec<_>>()
            ),
            format!("{:.3}", fit.exponent),
            sweep.paper_exponent.clone(),
        ]);
    }
    println!("{table}");
    println!(
        "(One evaluation plan, {} cells, {} trials, {:.2?} on {} thread(s).)",
        report.cells.len(),
        plan.total_trials(),
        report.wall,
        report.threads,
    );

    // Also show how the Tree exponent moves with p (Proposition 3.6).
    let tree_hints: Vec<usize> = (3..=9).map(|h| (1usize << (h + 1)) - 1).collect();
    let probe_tree = strategies.build("Probe_Tree").expect("registered strategy");
    let probabilities = [0.1, 0.25, 0.5];
    let mut plan = EvalPlan::new(8).trials(trials);
    for &p in &probabilities {
        for &hint in &tree_hints {
            let tree = systems.build("Tree", hint).expect("registered family");
            plan.probe(&tree, &probe_tree, ColoringSource::iid(p));
        }
    }
    let report = EvalEngine::new().run(&plan);

    println!("\n== Tree exponent as a function of the failure probability p ==\n");
    let mut tree_table = Table::new(["p", "fitted exponent", "log2(1+p)"]);
    for (i, p) in probabilities.into_iter().enumerate() {
        let cells = &report.cells[i * tree_hints.len()..(i + 1) * tree_hints.len()];
        let fit = fit_power_law(&fit_points(cells));
        tree_table.add_row(vec![
            format!("{p}"),
            format!("{:.3}", fit.exponent),
            format!("{:.3}", bounds::tree_probabilistic_exponent(p)),
        ]);
    }
    println!("{tree_table}");
    println!("(Small sizes inflate the fitted exponents slightly; the trend matches the paper.)");
    Ok(())
}
