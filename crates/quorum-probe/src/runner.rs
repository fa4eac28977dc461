//! The probe-strategy interface and the single-run driver.

use quorum_core::{Coloring, ElementId, QuorumSystem, Witness};
use rand::RngCore;

use crate::ProbeOracle;

/// An adaptive probing algorithm for a family of quorum systems.
///
/// A strategy receives the system (so it can exploit its structure), a mutable
/// [`ProbeOracle`] through which it probes elements, and a random-number
/// generator (deterministic strategies simply ignore it).  It must return a
/// monochromatic [`Witness`] built from elements whose colors it has actually
/// observed.
///
/// The contract checked by [`run_strategy`] in debug builds and by the test
/// suites everywhere: the returned witness verifies against the system and the
/// true coloring, and all witness elements were probed.
pub trait ProbeStrategy<S: QuorumSystem + ?Sized> {
    /// Short name used in reports (e.g. `"Probe_CW"`).
    fn name(&self) -> String;

    /// Probes elements through `oracle` until a witness is found.
    fn find_witness(
        &self,
        system: &S,
        oracle: &mut ProbeOracle<'_>,
        rng: &mut dyn RngCore,
    ) -> Witness;
}

impl<S: QuorumSystem + ?Sized, T: ProbeStrategy<S> + ?Sized> ProbeStrategy<S> for &T {
    fn name(&self) -> String {
        (**self).name()
    }
    fn find_witness(
        &self,
        system: &S,
        oracle: &mut ProbeOracle<'_>,
        rng: &mut dyn RngCore,
    ) -> Witness {
        (**self).find_witness(system, oracle, rng)
    }
}

impl<S: QuorumSystem + ?Sized, T: ProbeStrategy<S> + ?Sized> ProbeStrategy<S> for Box<T> {
    fn name(&self) -> String {
        (**self).name()
    }
    fn find_witness(
        &self,
        system: &S,
        oracle: &mut ProbeOracle<'_>,
        rng: &mut dyn RngCore,
    ) -> Witness {
        (**self).find_witness(system, oracle, rng)
    }
}

/// The outcome of running a strategy once against a fixed coloring.
#[derive(Debug, Clone)]
pub struct ProbeRun {
    /// The witness returned by the strategy.
    pub witness: Witness,
    /// Number of distinct elements probed.
    pub probes: usize,
    /// The probe sequence in order.
    pub sequence: Vec<ElementId>,
}

/// Runs `strategy` once on `coloring` and returns the observed cost.
///
/// # Panics
///
/// Panics if the strategy returns a witness that does not verify against the
/// system and coloring, or that uses elements it never probed — both indicate
/// a bug in the strategy, never in the caller's input.
pub fn run_strategy<S, T>(
    system: &S,
    strategy: &T,
    coloring: &Coloring,
    rng: &mut dyn RngCore,
) -> ProbeRun
where
    S: QuorumSystem + ?Sized,
    T: ProbeStrategy<S> + ?Sized,
{
    assert_eq!(
        system.universe_size(),
        coloring.universe_size(),
        "coloring universe does not match system universe"
    );
    let mut oracle = ProbeOracle::new(coloring);
    let witness = strategy.find_witness(system, &mut oracle, rng);
    witness.verify(system, coloring).unwrap_or_else(|err| {
        panic!(
            "strategy {} returned an invalid witness: {err}",
            strategy.name()
        )
    });
    assert!(
        witness
            .elements()
            .is_subset(oracle.probed_with(witness.color())),
        "strategy {} claimed unprobed elements in its witness",
        strategy.name()
    );
    ProbeRun {
        witness,
        probes: oracle.probe_count(),
        sequence: oracle.sequence().to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::SequentialScan;
    use quorum_core::{Color, ElementSet};
    use quorum_systems::Majority;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn run_strategy_reports_probe_cost() {
        let maj = Majority::new(5).unwrap();
        let coloring = Coloring::all_green(5);
        let mut rng = StdRng::seed_from_u64(1);
        let run = run_strategy(&maj, &SequentialScan::new(), &coloring, &mut rng);
        assert!(run.witness.is_green());
        assert_eq!(run.probes, 3); // first 3 greens form a majority
        assert_eq!(run.sequence, vec![0, 1, 2]);
    }

    #[test]
    fn strategy_by_reference_also_works() {
        let maj = Majority::new(5).unwrap();
        let coloring = Coloring::all_red(5);
        let mut rng = StdRng::seed_from_u64(1);
        let strategy = SequentialScan::new();
        let run = run_strategy(&maj, &&strategy, &coloring, &mut rng);
        assert!(run.witness.is_red());
    }

    #[test]
    #[should_panic(expected = "coloring universe does not match")]
    fn universe_mismatch_is_rejected() {
        let maj = Majority::new(5).unwrap();
        let coloring = Coloring::all_green(7);
        let mut rng = StdRng::seed_from_u64(1);
        let _ = run_strategy(&maj, &SequentialScan::new(), &coloring, &mut rng);
    }

    struct BogusStrategy;
    impl<S: QuorumSystem + ?Sized> ProbeStrategy<S> for BogusStrategy {
        fn name(&self) -> String {
            "Bogus".into()
        }
        fn find_witness(
            &self,
            system: &S,
            _oracle: &mut ProbeOracle<'_>,
            _rng: &mut dyn RngCore,
        ) -> Witness {
            // Claims a witness without probing anything.
            Witness::green(ElementSet::full(system.universe_size()))
        }
    }

    #[test]
    #[should_panic(expected = "unprobed elements")]
    fn unprobed_witness_elements_are_rejected() {
        let maj = Majority::new(3).unwrap();
        let coloring = Coloring::all_green(3);
        let mut rng = StdRng::seed_from_u64(1);
        let _ = run_strategy(&maj, &BogusStrategy, &coloring, &mut rng);
    }

    struct WrongColorStrategy;
    impl<S: QuorumSystem + ?Sized> ProbeStrategy<S> for WrongColorStrategy {
        fn name(&self) -> String {
            "WrongColor".into()
        }
        fn find_witness(
            &self,
            system: &S,
            oracle: &mut ProbeOracle<'_>,
            _rng: &mut dyn RngCore,
        ) -> Witness {
            for e in 0..system.universe_size() {
                oracle.probe(e);
            }
            // Claims everything is green regardless of what was observed.
            Witness::green(ElementSet::full(system.universe_size()))
        }
    }

    #[test]
    #[should_panic(expected = "invalid witness")]
    fn miscolored_witness_is_rejected() {
        let maj = Majority::new(3).unwrap();
        let coloring = Coloring::from_colors(vec![Color::Red, Color::Green, Color::Green]);
        let mut rng = StdRng::seed_from_u64(1);
        let _ = run_strategy(&maj, &WrongColorStrategy, &coloring, &mut rng);
    }
}
