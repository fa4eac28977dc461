//! Probing strategies for the Tree quorum system.

use quorum_core::{Color, ElementId, ElementSet, QuorumSystem, Witness, WitnessKind};
use quorum_systems::TreeQuorum;
use rand::Rng;
use rand::RngCore;

use crate::{ProbeOracle, ProbeStrategy};

/// Algorithm `Probe_Tree` (Section 3.3): the probabilistic-model strategy for
/// the Tree system.
///
/// To find a witness for a subtree the algorithm probes the subtree root, then
/// recursively finds a witness for the right subtree; if its color matches the
/// root the two combine into a witness, otherwise the left subtree is probed
/// recursively and its witness combines either with the root or with the right
/// witness (one of the two always matches).
///
/// Proposition 3.6 and Corollary 3.7: the expected number of probes under iid
/// failures with probability `p` is `O(n^{log_2(1+p)}) = O(n^{0.585})`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeTree;

impl ProbeTree {
    /// Creates the strategy.
    pub fn new() -> Self {
        ProbeTree
    }
}

/// The plan of an internal node: probe it, then its left subtree, and the
/// right subtree only if needed.
const LEFT_FIRST: u8 = 0;
/// The same with the right subtree first: Probe_Tree's only plan.
const RIGHT_FIRST: u8 = 1;
// Any other plan probes the two subtrees first and the node only if they
// disagree.

/// Finds the witness of the subtree rooted at `v`, drawing each internal
/// node's plan from `plan` before probing below it. Returns the subtree's
/// color and leaves its certificate as the suffix of `cert`; the certificate
/// of a child that loses is drained.
fn subtree_witness(
    system: &TreeQuorum,
    oracle: &mut ProbeOracle<'_>,
    plan: &mut dyn FnMut() -> u8,
    v: ElementId,
    cert: &mut Vec<ElementId>,
) -> Color {
    if system.is_leaf(v) {
        cert.push(v);
        return oracle.probe(v);
    }
    let left = system.left(v).expect("internal node has a left child");
    let right = system.right(v).expect("internal node has a right child");
    let start = cert.len();
    let (first, second) = match plan() {
        LEFT_FIRST => (left, right),
        RIGHT_FIRST => (right, left),
        _ => {
            let a_color = subtree_witness(system, oracle, plan, left, cert);
            let mid = cert.len();
            if subtree_witness(system, oracle, plan, right, cert) == a_color {
                return a_color;
            }
            let root_color = oracle.probe(v);
            if root_color == a_color {
                cert.truncate(mid);
            } else {
                cert.drain(start..mid);
            }
            cert.push(v);
            return root_color;
        }
    };
    let root_color = oracle.probe(v);
    if subtree_witness(system, oracle, plan, first, cert) == root_color {
        cert.push(v);
        return root_color;
    }
    let mid = cert.len();
    let second_color = subtree_witness(system, oracle, plan, second, cert);
    if second_color == root_color {
        cert.drain(start..mid);
        cert.push(v);
    }
    // Otherwise both children have the color opposite to the root's, so
    // together they cover both subtrees.
    second_color
}

/// Runs [`subtree_witness`] from the root into one certificate buffer and
/// builds the witness from it.
fn tree_witness(
    system: &TreeQuorum,
    oracle: &mut ProbeOracle<'_>,
    plan: &mut dyn FnMut() -> u8,
) -> Witness {
    let mut cert = Vec::new();
    let color = subtree_witness(system, oracle, plan, system.root(), &mut cert);
    Witness::new(
        WitnessKind::for_color(color),
        ElementSet::from_iter(system.universe_size(), cert),
    )
}

impl ProbeStrategy<TreeQuorum> for ProbeTree {
    fn name(&self) -> String {
        "Probe_Tree".into()
    }

    fn find_witness(
        &self,
        system: &TreeQuorum,
        oracle: &mut ProbeOracle<'_>,
        _rng: &mut dyn RngCore,
    ) -> Witness {
        tree_witness(system, oracle, &mut || RIGHT_FIRST)
    }
}

/// Algorithm `R_Probe_Tree` (Section 4.3): the randomized worst-case strategy
/// for the Tree system.
///
/// At every node the algorithm picks uniformly at random one of three plans:
/// probe the node and its left subtree first (right only if needed), probe the
/// node and its right subtree first (left only if needed), or probe the two
/// subtrees first (the node only if they disagree).
///
/// Theorem 4.7: at most `5n/6 + 1/6` expected probes on every input; Theorem
/// 4.8 gives the matching-order lower bound `2(n+1)/3` for any randomized
/// algorithm.
#[derive(Debug, Clone, Copy, Default)]
pub struct RProbeTree;

impl RProbeTree {
    /// Creates the strategy.
    pub fn new() -> Self {
        RProbeTree
    }
}

impl ProbeStrategy<TreeQuorum> for RProbeTree {
    fn name(&self) -> String {
        "R_Probe_Tree".into()
    }

    fn find_witness(
        &self,
        system: &TreeQuorum,
        oracle: &mut ProbeOracle<'_>,
        rng: &mut dyn RngCore,
    ) -> Witness {
        tree_witness(system, oracle, &mut || rng.gen_range(0..3u8))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_strategy;
    use quorum_core::{Coloring, QuorumSystem};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn probe_tree_is_correct_on_every_coloring() {
        let tree = TreeQuorum::new(2).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for coloring in Coloring::enumerate_all(7) {
            let run = run_strategy(&tree, &ProbeTree::new(), &coloring, &mut rng);
            assert_eq!(run.witness.is_green(), tree.has_green_quorum(&coloring));
        }
    }

    #[test]
    fn r_probe_tree_is_correct_on_every_coloring() {
        let tree = TreeQuorum::new(2).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        for coloring in Coloring::enumerate_all(7) {
            // Run a few times to exercise different random plans.
            for _ in 0..4 {
                let run = run_strategy(&tree, &RProbeTree::new(), &coloring, &mut rng);
                assert_eq!(run.witness.is_green(), tree.has_green_quorum(&coloring));
            }
        }
    }

    #[test]
    fn probe_tree_on_all_green_probes_a_single_path() {
        let tree = TreeQuorum::new(5).unwrap(); // 63 elements
        let coloring = Coloring::all_green(tree.universe_size());
        let mut rng = StdRng::seed_from_u64(3);
        let run = run_strategy(&tree, &ProbeTree::new(), &coloring, &mut rng);
        assert_eq!(
            run.probes,
            tree.height() + 1,
            "all-green input needs one root-to-leaf path"
        );
        assert!(run.witness.is_green());
    }

    #[test]
    fn probe_tree_witness_is_a_minimal_style_quorum() {
        let tree = TreeQuorum::new(3).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        for coloring in Coloring::enumerate_all(15).into_iter().step_by(97) {
            let run = run_strategy(&tree, &ProbeTree::new(), &coloring, &mut rng);
            let size = run.witness.elements().len();
            assert!(size >= tree.min_quorum_size());
            assert!(size <= tree.max_quorum_size());
        }
    }

    #[test]
    fn r_probe_tree_never_exceeds_n_probes() {
        let tree = TreeQuorum::new(4).unwrap();
        let n = tree.universe_size();
        let mut rng = StdRng::seed_from_u64(5);
        for seed in 0..20u64 {
            let coloring = Coloring::from_fn(n, |e| {
                if (e as u64).wrapping_mul(seed + 1) % 3 == 0 {
                    quorum_core::Color::Red
                } else {
                    quorum_core::Color::Green
                }
            });
            let run = run_strategy(&tree, &RProbeTree::new(), &coloring, &mut rng);
            assert!(run.probes <= n);
        }
    }

    #[test]
    fn names() {
        assert_eq!(
            ProbeStrategy::<TreeQuorum>::name(&ProbeTree::new()),
            "Probe_Tree"
        );
        assert_eq!(
            ProbeStrategy::<TreeQuorum>::name(&RProbeTree::new()),
            "R_Probe_Tree"
        );
    }
}
