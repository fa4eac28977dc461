//! Certificates read off the minimal sets of a composition: pairwise
//! intersection ([`find_disjoint_pair`] over the minimal quorums) and
//! availability bounds ([`availability_bounds`] over the minimal blocking
//! sets). The sets themselves come from `quorum_core`'s one enumerator,
//! [`quorum_core::minimal_quorums`] and
//! [`quorum_core::minimal_blocking_sets`].

use quorum_core::ElementSet;

/// Finds a disjoint pair among `sets`, if any — the counterexample format
/// for intersection certification: `None` certifies that every pair of
/// minimal quorums intersects, i.e. the composition really is a quorum
/// system and not just a monotone set family.
pub fn find_disjoint_pair(sets: &[ElementSet]) -> Option<(usize, usize)> {
    for (i, a) in sets.iter().enumerate() {
        for (j, b) in sets.iter().enumerate().skip(i + 1) {
            if !a.intersects(b) {
                return Some((i, j));
            }
        }
    }
    None
}

/// Availability bounds certified by a minimal-blocking-set enumeration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AvailabilityBounds {
    /// Union-bound floor: `1 − Σ_B p^|B|`, clamped to 0.
    pub lower: f64,
    /// Single-worst-set ceiling: `1 − max_B p^|B|`.
    pub upper: f64,
}

/// Brackets the availability of a system from its minimal blocking sets
/// under i.i.d. element failure probability `p`.
///
/// The system is unavailable exactly when some minimal blocking set fails
/// entirely. The union bound over blocking sets gives
/// `P(fail) ≤ Σ_B p^|B|`, and any single blocking set gives
/// `P(fail) ≥ max_B p^|B|`, so availability lies in
/// `[1 − Σ_B p^|B|, 1 − max_B p^|B|]`. An empty `blocking_sets` slice means
/// the system can never fail, yielding `[1, 1]`.
///
/// # Panics
///
/// Panics if `p` is not a probability.
pub fn availability_bounds(blocking_sets: &[ElementSet], p: f64) -> AvailabilityBounds {
    assert!((0.0..=1.0).contains(&p), "p must be a probability, got {p}");
    let mut fail_union = 0.0f64;
    let mut fail_max = 0.0f64;
    for set in blocking_sets {
        let fail = p.powi(set.len() as i32);
        fail_union += fail;
        fail_max = fail_max.max(fail);
    }
    AvailabilityBounds {
        lower: (1.0 - fail_union).max(0.0),
        upper: 1.0 - fail_max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quorum_core::{minimal_blocking_sets, minimal_quorums, ElementId, QuorumError};
    use quorum_systems::{Majority, SystemSpec};

    fn sets(universe: usize, lists: &[&[ElementId]]) -> Vec<ElementSet> {
        lists
            .iter()
            .map(|l| ElementSet::from_iter(universe, l.iter().copied()))
            .collect()
    }

    #[test]
    fn composition_quorums_match_the_circuit_enumeration() {
        let spec = SystemSpec::parse("2(2(0,1,2),2(3,4,5),2(6,7,8))").unwrap();
        let system = spec.build().unwrap();
        let quorums = minimal_quorums(system.as_ref()).unwrap();
        // The circuit's minterms by hand: two of the three groups, and two
        // of the three elements in each.
        let pairs = |g: usize| {
            [
                [3 * g, 3 * g + 1],
                [3 * g, 3 * g + 2],
                [3 * g + 1, 3 * g + 2],
            ]
        };
        let mut circuit = Vec::new();
        for (g, h) in [(0, 1), (0, 2), (1, 2)] {
            for a in pairs(g) {
                for b in pairs(h) {
                    circuit.push(ElementSet::from_iter(9, a.into_iter().chain(b)));
                }
            }
        }
        circuit.sort_by_key(|s| (s.len(), s.to_vec()));
        assert_eq!(quorums.len(), 27, "2-of-3 over 2-of-3 has 3·9 minterms");
        assert_eq!(quorums, circuit);
        assert_eq!(find_disjoint_pair(&quorums), None);
    }

    #[test]
    fn disjoint_quorums_are_reported() {
        // 1-of-2 is a monotone family but NOT a quorum system: {0} and {1}
        // are disjoint.
        let spec = SystemSpec::parse("1(0,1)").unwrap();
        let system = spec.build().unwrap();
        let quorums = minimal_quorums(system.as_ref()).unwrap();
        assert_eq!(quorums, sets(2, &[&[0], &[1]]));
        assert_eq!(find_disjoint_pair(&quorums), Some((0, 1)));
    }

    #[test]
    fn availability_bounds_bracket_the_exact_probability() {
        let maj = Majority::new(5).unwrap();
        let blocking = minimal_blocking_sets(&maj).unwrap();
        for p in [0.05, 0.1, 0.3, 0.5] {
            let exact_fail = crate::availability::exact_failure_probability(&maj, p).unwrap();
            let bounds = availability_bounds(&blocking, p);
            assert!(
                bounds.lower <= 1.0 - exact_fail + 1e-12,
                "lower bound broken at p={p}"
            );
            assert!(
                bounds.upper >= 1.0 - exact_fail - 1e-12,
                "upper bound broken at p={p}"
            );
        }
        // No blocking sets: the system never fails.
        let trivial = availability_bounds(&[], 0.3);
        assert_eq!((trivial.lower, trivial.upper), (1.0, 1.0));
    }

    #[test]
    fn org_majority_enumerates_past_the_exhaustive_limit() {
        // 25 elements: out of reach for the 2^n sweeps, within the
        // branch-and-bound's budget.
        let spec = SystemSpec::org_majority_with_size_hint(25);
        let system = spec.build().unwrap();
        assert_eq!(system.universe_size(), 25);
        let quorums = minimal_quorums(system.as_ref()).unwrap();
        // 3-of-5 organizations, each a 3-of-5 majority: C(5,3)·C(5,3)^3.
        assert_eq!(quorums.len(), 10 * 10 * 10 * 10);
        assert!(quorums.iter().all(|q| q.len() == 9));
        assert_eq!(find_disjoint_pair(&quorums), None);
    }

    /// Both systems are within the 32-element limit, so only the work
    /// budgets stop them: Maj(31)'s 3·10⁸ minimal quorums run past the set
    /// budget, and the lone quorum {31} of `1(31)` sits behind 2³³ search
    /// nodes, past the node budget. (The blocking-set search shares both
    /// budgets; refusing `1(31)` there too would double the test's seconds.)
    #[test]
    fn budgets_refuse_maj31_and_a_lone_leaf_at_31() {
        let maj = Majority::new(31).unwrap();
        let too_many_sets = QuorumError::EnumerationBudgetExceeded {
            budget: "minimal sets",
            limit: 1 << 20,
        };
        assert_eq!(minimal_quorums(&maj), Err(too_many_sets.clone()));
        assert_eq!(minimal_blocking_sets(&maj), Err(too_many_sets));
        let lone = SystemSpec::parse("1(31)").unwrap().build().unwrap();
        assert_eq!(lone.universe_size(), 32);
        let too_many_nodes = QuorumError::EnumerationBudgetExceeded {
            budget: "search nodes",
            limit: 1 << 25,
        };
        assert_eq!(minimal_quorums(lone.as_ref()), Err(too_many_nodes));
    }
}
