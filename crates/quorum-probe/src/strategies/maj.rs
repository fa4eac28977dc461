//! Probing strategies for the Majority system.

use quorum_core::{QuorumSystem, Witness, WitnessKind};
use quorum_systems::Majority;
use rand::seq::SliceRandom;
use rand::RngCore;

use crate::{ProbeOracle, ProbeStrategy};

/// The probabilistic-model algorithm for Majority (Section 3.1): probe
/// arbitrary elements (here: in index order) until one color reaches a
/// majority.
///
/// Because the elements of Maj are totally symmetric, *any* probe order is
/// optimal in the probabilistic model; Proposition 3.2 gives
/// `PPC_p(Maj) = n − Θ(√n)` at `p = 1/2` and `n/(2q) + o(1)` for `p < q`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeMaj;

impl ProbeMaj {
    /// Creates the strategy.
    pub fn new() -> Self {
        ProbeMaj
    }
}

fn probe_until_majority(
    maj: &Majority,
    oracle: &mut ProbeOracle<'_>,
    order: impl IntoIterator<Item = usize>,
) -> Witness {
    let threshold = maj.quorum_size();
    for e in order {
        oracle.probe(e);
        if oracle.green_count() >= threshold {
            return Witness::new(WitnessKind::GreenQuorum, oracle.green_probed().clone());
        }
        if oracle.red_count() >= threshold {
            return Witness::new(WitnessKind::RedQuorum, oracle.red_probed().clone());
        }
    }
    unreachable!("one color must reach a majority after probing every element")
}

impl ProbeStrategy<Majority> for ProbeMaj {
    fn name(&self) -> String {
        "Probe_Maj".into()
    }

    fn find_witness(
        &self,
        system: &Majority,
        oracle: &mut ProbeOracle<'_>,
        _rng: &mut dyn RngCore,
    ) -> Witness {
        probe_until_majority(system, oracle, 0..system.universe_size())
    }
}

/// The randomized worst-case algorithm `R_Probe_Maj` (Theorem 4.2): probe
/// elements uniformly at random until one color reaches a majority.
///
/// Its worst-case expected probe count is exactly `n − (n−1)/(n+3)`, which is
/// optimal for Majority by the Yao-principle argument of Theorem 4.2.
#[derive(Debug, Clone, Copy, Default)]
pub struct RProbeMaj;

impl RProbeMaj {
    /// Creates the strategy.
    pub fn new() -> Self {
        RProbeMaj
    }
}

impl ProbeStrategy<Majority> for RProbeMaj {
    fn name(&self) -> String {
        "R_Probe_Maj".into()
    }

    fn find_witness(
        &self,
        system: &Majority,
        oracle: &mut ProbeOracle<'_>,
        rng: &mut dyn RngCore,
    ) -> Witness {
        let mut order: Vec<usize> = (0..system.universe_size()).collect();
        order.shuffle(rng);
        probe_until_majority(system, oracle, order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_strategy;
    use quorum_core::{Color, Coloring};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn probe_maj_counts_exactly_to_the_witness() {
        let maj = Majority::new(5).unwrap();
        // Coloring G R G R G: greens reach 3 after probing element 4.
        let coloring = Coloring::from_colors(vec![
            Color::Green,
            Color::Red,
            Color::Green,
            Color::Red,
            Color::Green,
        ]);
        let mut rng = StdRng::seed_from_u64(0);
        let run = run_strategy(&maj, &ProbeMaj::new(), &coloring, &mut rng);
        assert_eq!(run.probes, 5);
        assert!(run.witness.is_green());
        assert_eq!(run.witness.elements().len(), 3);
    }

    #[test]
    fn probe_maj_short_circuits_on_unanimous_prefix() {
        let maj = Majority::new(9).unwrap();
        let coloring = Coloring::all_red(9);
        let mut rng = StdRng::seed_from_u64(0);
        let run = run_strategy(&maj, &ProbeMaj::new(), &coloring, &mut rng);
        assert_eq!(run.probes, 5);
        assert!(run.witness.is_red());
    }

    #[test]
    fn both_strategies_agree_with_ground_truth_everywhere() {
        let maj = Majority::new(5).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        for coloring in Coloring::enumerate_all(5) {
            for run in [
                run_strategy(&maj, &ProbeMaj::new(), &coloring, &mut rng),
                run_strategy(&maj, &RProbeMaj::new(), &coloring, &mut rng),
            ] {
                assert_eq!(run.witness.is_green(), maj.has_green_quorum(&coloring));
                assert!(run.probes >= maj.quorum_size());
                assert!(run.probes <= 5);
            }
        }
    }

    #[test]
    fn r_probe_maj_randomizes_the_order() {
        let maj = Majority::new(21).unwrap();
        let coloring = Coloring::all_green(21);
        let mut rng = StdRng::seed_from_u64(5);
        let a = run_strategy(&maj, &RProbeMaj::new(), &coloring, &mut rng);
        let b = run_strategy(&maj, &RProbeMaj::new(), &coloring, &mut rng);
        // With overwhelming probability two independent shuffles differ.
        assert_ne!(a.sequence, b.sequence);
        // But the cost is always exactly the quorum size on the all-green input.
        assert_eq!(a.probes, 11);
        assert_eq!(b.probes, 11);
    }

    #[test]
    fn names() {
        assert_eq!(
            ProbeStrategy::<Majority>::name(&ProbeMaj::new()),
            "Probe_Maj"
        );
        assert_eq!(
            ProbeStrategy::<Majority>::name(&RProbeMaj::new()),
            "R_Probe_Maj"
        );
    }
}
