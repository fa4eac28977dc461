//! Load-aware probing strategies.
//!
//! The paper's algorithms minimise *how many* elements a client probes; under
//! heavy traffic the system also cares *which* elements every client probes,
//! because probes queue at nodes. These strategies consult a shared
//! [`LoadView`] — per-element load scores published by whatever is running
//! them (the workload engine refreshes it from its ledger before every
//! session) — and steer probes toward cold nodes:
//!
//! * [`LeastLoadedScan`] probes elements in ascending load order (ties broken
//!   by index), the natural "join the shortest queue" policy;
//! * [`PowerOfTwoScan`] repeatedly samples two random unprobed elements and
//!   probes the less loaded one — the classical power-of-two-choices trick,
//!   which gets most of least-loaded's balance with two score reads per probe
//!   and keeps the probe order randomized.
//!
//! Both are generic over the quorum system (like
//! [`SequentialScan`](super::SequentialScan)), so they run typed *and*
//! type-erased through the evaluation registries. With an empty or all-zero
//! view they degrade gracefully: least-loaded becomes a sequential scan,
//! power-of-two a random scan.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use quorum_core::{QuorumSystem, Witness, WitnessKind};
use rand::RngCore;

use super::generic::scan_until_witness;
use crate::{ProbeOracle, ProbeStrategy};

/// A shared, cheaply clonable view of per-element load scores.
///
/// Writers (a cluster's load ledger, a workload engine) publish one `u64`
/// score per element; load-aware strategies read them when ordering probes.
/// Elements outside the view's range score 0, so a strategy built over an
/// empty view still works on any system.
#[derive(Debug, Clone, Default)]
pub struct LoadView {
    scores: Arc<Vec<AtomicU64>>,
}

impl LoadView {
    /// A view over `n` elements, all starting at load 0.
    pub fn new(n: usize) -> Self {
        LoadView {
            scores: Arc::new((0..n).map(|_| AtomicU64::new(0)).collect()),
        }
    }

    /// Number of elements tracked.
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// Whether the view tracks no elements.
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// The score of element `e` (0 when out of range).
    pub fn load(&self, e: usize) -> u64 {
        self.scores
            .get(e)
            .map_or(0, |score| score.load(Ordering::Relaxed))
    }

    /// Publishes a new score for element `e` (no-op when out of range).
    pub fn set(&self, e: usize, score: u64) {
        if let Some(slot) = self.scores.get(e) {
            slot.store(score, Ordering::Relaxed);
        }
    }

    /// Adds `delta` to the score of element `e` (no-op when out of range).
    /// Strategies call this per probe so that sessions issued between two
    /// ledger refreshes still see each other's pressure.
    pub fn add(&self, e: usize, delta: u64) {
        if let Some(slot) = self.scores.get(e) {
            slot.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Resets every score to 0.
    pub fn clear(&self) {
        for slot in self.scores.iter() {
            slot.store(0, Ordering::Relaxed);
        }
    }

    /// A copy of all scores.
    pub fn snapshot(&self) -> Vec<u64> {
        self.scores
            .iter()
            .map(|score| score.load(Ordering::Relaxed))
            .collect()
    }
}

/// Probes elements in ascending `(load, index)` order until the probed greens
/// or reds certify the system state.
#[derive(Debug, Clone, Default)]
pub struct LeastLoadedScan {
    view: LoadView,
}

impl LeastLoadedScan {
    /// A scan ordering probes by the given load view.
    pub fn new(view: LoadView) -> Self {
        LeastLoadedScan { view }
    }

    /// A scan over an empty view (every score 0): equivalent to
    /// [`SequentialScan`](super::SequentialScan), useful as a registry
    /// default.
    pub fn unloaded() -> Self {
        Self::new(LoadView::default())
    }

    /// The load view this strategy consults.
    pub fn view(&self) -> &LoadView {
        &self.view
    }
}

impl<S: QuorumSystem + ?Sized> ProbeStrategy<S> for LeastLoadedScan {
    fn name(&self) -> String {
        "LeastLoaded".into()
    }

    fn find_witness(
        &self,
        system: &S,
        oracle: &mut ProbeOracle<'_>,
        _rng: &mut dyn RngCore,
    ) -> Witness {
        let n = system.universe_size();
        let mut order: Vec<usize> = (0..n).collect();
        // Sort is stable, so equal loads keep index order (sequential scan).
        order.sort_by_key(|&e| self.view.load(e));
        // Charge each element as it is actually probed (not the whole planned
        // order), so back-to-back sessions rotate over the universe.
        let view = self.view.clone();
        scan_until_witness(
            system,
            oracle,
            order.into_iter().inspect(move |&e| view.add(e, 1)),
        )
    }
}

/// Repeatedly probes the less-loaded of two uniformly random unprobed
/// elements (ties broken by index) until a certificate appears.
#[derive(Debug, Clone, Default)]
pub struct PowerOfTwoScan {
    view: LoadView,
}

impl PowerOfTwoScan {
    /// A power-of-two-choices scan over the given load view.
    pub fn new(view: LoadView) -> Self {
        PowerOfTwoScan { view }
    }

    /// A scan over an empty view: both candidates always tie on load, so the
    /// choice degenerates to the lower-indexed of two random picks.
    pub fn unloaded() -> Self {
        Self::new(LoadView::default())
    }

    /// The load view this strategy consults.
    pub fn view(&self) -> &LoadView {
        &self.view
    }
}

impl<S: QuorumSystem + ?Sized> ProbeStrategy<S> for PowerOfTwoScan {
    fn name(&self) -> String {
        "PowerOfTwo".into()
    }

    fn find_witness(
        &self,
        system: &S,
        oracle: &mut ProbeOracle<'_>,
        rng: &mut dyn RngCore,
    ) -> Witness {
        let n = system.universe_size();
        let mut remaining: Vec<usize> = (0..n).collect();
        while !remaining.is_empty() {
            let pick = if remaining.len() == 1 {
                0
            } else {
                let len = remaining.len() as u64;
                let a = (rng.next_u64() % len) as usize;
                let b = (rng.next_u64() % len) as usize;
                let (ea, eb) = (remaining[a], remaining[b]);
                // Less-loaded wins; ties go to the lower element index (which
                // also absorbs the a == b case).
                if (self.view.load(ea), ea) <= (self.view.load(eb), eb) {
                    a
                } else {
                    b
                }
            };
            let e = remaining.swap_remove(pick);
            self.view.add(e, 1);
            oracle.probe(e);
            if system.contains_quorum(oracle.green_probed()) {
                return Witness::new(WitnessKind::GreenQuorum, oracle.green_probed().clone());
            }
            if system.contains_quorum(oracle.red_probed()) {
                return Witness::new(WitnessKind::RedQuorum, oracle.red_probed().clone());
            }
        }
        // Everything probed without a monochromatic quorum: as in the scan
        // strategies, the red set is then a transversal certificate.
        Witness::new(WitnessKind::RedQuorum, oracle.red_probed().clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_strategy;
    use quorum_core::Coloring;
    use quorum_systems::{Majority, TreeQuorum, Wheel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn load_view_basics() {
        let view = LoadView::new(3);
        assert_eq!(view.len(), 3);
        assert!(!view.is_empty());
        view.set(1, 7);
        view.add(1, 2);
        assert_eq!(view.load(1), 9);
        assert_eq!(view.load(0), 0);
        // Out-of-range accesses are harmless.
        view.set(99, 5);
        view.add(99, 5);
        assert_eq!(view.load(99), 0);
        assert_eq!(view.snapshot(), vec![0, 9, 0]);
        view.clear();
        assert_eq!(view.snapshot(), vec![0, 0, 0]);
        assert!(LoadView::default().is_empty());
    }

    #[test]
    fn least_loaded_with_empty_view_is_sequential() {
        let maj = Majority::new(7).unwrap();
        let coloring = Coloring::all_green(7);
        let mut rng = StdRng::seed_from_u64(0);
        let run = run_strategy(&maj, &LeastLoadedScan::unloaded(), &coloring, &mut rng);
        assert_eq!(run.sequence, vec![0, 1, 2, 3]);
        assert!(run.witness.is_green());
    }

    #[test]
    fn least_loaded_avoids_hot_elements() {
        let maj = Majority::new(5).unwrap();
        let view = LoadView::new(5);
        view.set(0, 100);
        view.set(1, 100);
        let coloring = Coloring::all_green(5);
        let mut rng = StdRng::seed_from_u64(0);
        let run = run_strategy(&maj, &LeastLoadedScan::new(view), &coloring, &mut rng);
        // The three cold elements form the majority; the hot ones are skipped.
        assert_eq!(run.sequence, vec![2, 3, 4]);
    }

    #[test]
    fn least_loaded_records_its_own_pressure() {
        let maj = Majority::new(3).unwrap();
        let view = LoadView::new(3);
        let strategy = LeastLoadedScan::new(view.clone());
        let coloring = Coloring::all_green(3);
        let mut rng = StdRng::seed_from_u64(0);
        let first = run_strategy(&maj, &strategy, &coloring, &mut rng);
        assert_eq!(first.sequence, vec![0, 1]);
        // Only the elements actually probed were charged (element 2 was
        // planned but never reached), so a second session starts on the
        // still-cold element.
        let second = run_strategy(&maj, &strategy, &coloring, &mut rng);
        assert_eq!(second.sequence[0], 2);
        assert!(view.snapshot().iter().all(|&s| s > 0));
    }

    #[test]
    fn power_of_two_is_correct_on_every_coloring() {
        let wheel = Wheel::new(5).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let strategy = PowerOfTwoScan::new(LoadView::new(5));
        for coloring in Coloring::enumerate_all(5) {
            let run = run_strategy(&wheel, &strategy, &coloring, &mut rng);
            assert_eq!(run.witness.is_green(), wheel.has_green_quorum(&coloring));
            assert!(run.probes <= 5);
        }
    }

    #[test]
    fn power_of_two_prefers_the_colder_candidate() {
        // With element 0 overloaded and a universe of 2, every two-candidate
        // draw that includes both elements must pick element 1 first.
        let tree = TreeQuorum::new(1).unwrap(); // n = 3
        let view = LoadView::new(3);
        view.set(0, 1_000);
        let strategy = PowerOfTwoScan::new(view);
        let coloring = Coloring::all_green(3);
        let mut hot_first = 0;
        for seed in 0..50 {
            let mut rng = StdRng::seed_from_u64(seed);
            let run = run_strategy(&tree, &strategy, &coloring, &mut rng);
            if run.sequence[0] == 0 {
                hot_first += 1;
            }
        }
        // Element 0 only goes first when both candidates drew it (prob 1/9
        // per probe) — far less often than the 1/3 of a uniform first probe.
        assert!(hot_first < 10, "hot element probed first {hot_first}/50");
    }

    #[test]
    fn strategies_report_names() {
        assert_eq!(
            ProbeStrategy::<Majority>::name(&LeastLoadedScan::unloaded()),
            "LeastLoaded"
        );
        assert_eq!(
            ProbeStrategy::<Majority>::name(&PowerOfTwoScan::unloaded()),
            "PowerOfTwo"
        );
    }
}
