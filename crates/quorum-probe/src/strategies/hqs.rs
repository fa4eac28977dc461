//! Probing strategies for the Hierarchical Quorum System (HQS).

use quorum_core::{Color, ElementId, ElementSet, QuorumSystem, Witness, WitnessKind};
use quorum_systems::Hqs;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore};

use crate::{ProbeOracle, ProbeStrategy};

/// A node of the ternary computation tree, identified by the leftmost leaf it
/// covers and its height.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Node {
    start: usize,
    height: usize,
}

impl Node {
    fn child(self, index: usize) -> Node {
        debug_assert!(self.height > 0 && index < 3);
        let third = 3usize.pow(self.height as u32 - 1);
        Node {
            start: self.start + index * third,
            height: self.height - 1,
        }
    }
}

// Every evaluation below returns a node's value (its 2-of-3 majority color)
// and leaves a monochromatic set of leaves certifying it as the suffix of
// one certificate buffer: green leaves forming a quorum of the sub-HQS when
// the value is green, red leaves forming one when it is red (the 2-of-3
// majority is self-dual, so both certificates exist and compose by union).
// The witness is built from the buffer once, at the end.

fn probe_leaf(oracle: &mut ProbeOracle<'_>, leaf: usize, cert: &mut Vec<ElementId>) -> Color {
    cert.push(leaf);
    oracle.probe(leaf)
}

/// Settles a gate whose children `a` (certificate `cert[start..mid]`) and
/// `b` (`cert[mid..]`) are evaluated: if they agree the gate takes their
/// value and keeps both certificates; otherwise `third` evaluates the last
/// child, whose value decides, and the certificate of whichever of `a` and
/// `b` it disagrees with is drained.
fn settle(
    cert: &mut Vec<ElementId>,
    [start, mid]: [usize; 2],
    a: Color,
    b: Color,
    third: impl FnOnce(&mut Vec<ElementId>) -> Color,
) -> Color {
    if a == b {
        return a;
    }
    let end = cert.len();
    let c = third(cert);
    cert.drain(if c == a { mid..end } else { start..mid });
    c
}

/// Evaluates a node by evaluating its children in the given order, stopping as
/// soon as two children agree (their shared value is the 2-of-3 majority).
fn evaluate_in_order<F>(
    node: Node,
    order: [usize; 3],
    cert: &mut Vec<ElementId>,
    evaluate_child: &mut F,
) -> Color
where
    F: FnMut(Node, &mut Vec<ElementId>) -> Color,
{
    let start = cert.len();
    let a = evaluate_child(node.child(order[0]), cert);
    let mid = cert.len();
    let b = evaluate_child(node.child(order[1]), cert);
    settle(cert, [start, mid], a, b, |cert| {
        evaluate_child(node.child(order[2]), cert)
    })
}

/// Evaluates `node` with every gate reading its children in the order
/// `order` draws for it before evaluating below it.
fn evaluate_ordered(
    oracle: &mut ProbeOracle<'_>,
    order: &mut dyn FnMut() -> [usize; 3],
    node: Node,
    cert: &mut Vec<ElementId>,
) -> Color {
    if node.height == 0 {
        return probe_leaf(oracle, node.start, cert);
    }
    let gate_order = order();
    evaluate_in_order(node, gate_order, cert, &mut |child, cert| {
        evaluate_ordered(oracle, order, child, cert)
    })
}

/// A uniformly random order of a gate's three children.
fn shuffled(rng: &mut dyn RngCore) -> [usize; 3] {
    let mut order = [0, 1, 2];
    order.shuffle(rng);
    order
}

/// Evaluates the root with `evaluate` into a fresh certificate buffer and
/// builds the witness from it.
fn root_witness(
    system: &Hqs,
    evaluate: impl FnOnce(Node, &mut Vec<ElementId>) -> Color,
) -> Witness {
    let root = Node {
        start: 0,
        height: system.height(),
    };
    let mut cert = Vec::new();
    let color = evaluate(root, &mut cert);
    Witness::new(
        WitnessKind::for_color(color),
        ElementSet::from_iter(system.universe_size(), cert),
    )
}

/// Algorithm `Probe_HQS` (Section 3.4): evaluate the first two children of
/// every gate and the third only when they disagree, scanning left to right.
///
/// Theorem 3.8: `PPC_{1/2}(Probe_HQS) = n^{log_3 2.5} ≈ n^{0.834}` at
/// `p = 1/2` and `O(n^{log_3 2})` otherwise; Theorem 3.9 shows the algorithm
/// is optimal at `p = 1/2`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeHqs;

impl ProbeHqs {
    /// Creates the strategy.
    pub fn new() -> Self {
        ProbeHqs
    }
}

impl ProbeStrategy<Hqs> for ProbeHqs {
    fn name(&self) -> String {
        "Probe_HQS".into()
    }

    fn find_witness(
        &self,
        system: &Hqs,
        oracle: &mut ProbeOracle<'_>,
        _rng: &mut dyn RngCore,
    ) -> Witness {
        root_witness(system, |root, cert| {
            evaluate_ordered(oracle, &mut || [0, 1, 2], root, cert)
        })
    }
}

/// Algorithm `R_Probe_HQS` (Boppana, analysed in Saks–Wigderson and quoted as
/// Proposition 4.9): at every gate evaluate two children chosen uniformly at
/// random and the third only when they disagree.
///
/// Its randomized worst-case probe complexity is `O(n^{log_3 8/3}) ≈ n^{0.893}`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RProbeHqs;

impl RProbeHqs {
    /// Creates the strategy.
    pub fn new() -> Self {
        RProbeHqs
    }
}

impl ProbeStrategy<Hqs> for RProbeHqs {
    fn name(&self) -> String {
        "R_Probe_HQS".into()
    }

    fn find_witness(
        &self,
        system: &Hqs,
        oracle: &mut ProbeOracle<'_>,
        rng: &mut dyn RngCore,
    ) -> Witness {
        root_witness(system, |root, cert| {
            evaluate_ordered(oracle, &mut || shuffled(rng), root, cert)
        })
    }
}

/// Algorithm `IR_Probe_HQS` (Fig. 8, Theorem 4.10): the improved randomized
/// strategy for HQS.
///
/// After fully evaluating one random child, the algorithm *peeks* at a single
/// random grandchild of a second child.  If the peek agrees with the first
/// child it keeps evaluating the second child; otherwise it suspects the
/// second child has the minority value and jumps to the third child instead.
/// This lowers the randomized worst-case probe complexity from `O(n^{0.893})`
/// to `O(n^{0.887})`, against the `Ω(n^{0.834})` lower bound of Corollary 4.13.
#[derive(Debug, Clone, Copy, Default)]
pub struct IrProbeHqs;

impl IrProbeHqs {
    /// Creates the strategy.
    pub fn new() -> Self {
        IrProbeHqs
    }

    /// Entry point of the recursion: evaluate `node` with the improved rule.
    fn evaluate(
        &self,
        oracle: &mut ProbeOracle<'_>,
        rng: &mut dyn RngCore,
        node: Node,
        cert: &mut Vec<ElementId>,
    ) -> Color {
        match node.height {
            // No grandchildren to peek at below height 2: evaluate the
            // children in random order.
            0 | 1 => self.evaluate_child(oracle, rng, node, cert),
            _ => self.evaluate_with_peek(oracle, rng, node, cert),
        }
    }

    /// Random-order evaluation of a child node whose own children are
    /// evaluated with the improved rule — the paper's notion of "evaluating"
    /// `r_i`.
    fn evaluate_child(
        &self,
        oracle: &mut ProbeOracle<'_>,
        rng: &mut dyn RngCore,
        node: Node,
        cert: &mut Vec<ElementId>,
    ) -> Color {
        if node.height == 0 {
            return probe_leaf(oracle, node.start, cert);
        }
        let order = shuffled(rng);
        evaluate_in_order(node, order, cert, &mut |child, cert| {
            self.evaluate(oracle, rng, child, cert)
        })
    }

    /// Completes the evaluation of `node` given that its child `known_index`
    /// already evaluated to `known`, certified by `cert[known_start..]`.
    #[allow(clippy::too_many_arguments)]
    fn continue_child(
        &self,
        oracle: &mut ProbeOracle<'_>,
        rng: &mut dyn RngCore,
        node: Node,
        known_index: usize,
        known: Color,
        known_start: usize,
        cert: &mut Vec<ElementId>,
    ) -> Color {
        let mut rest = match known_index {
            0 => [1, 2],
            1 => [0, 2],
            _ => [0, 1],
        };
        rest.shuffle(rng);
        let mid = cert.len();
        let second = self.evaluate(oracle, rng, node.child(rest[0]), cert);
        settle(cert, [known_start, mid], known, second, |cert| {
            self.evaluate(oracle, rng, node.child(rest[1]), cert)
        })
    }

    fn evaluate_with_peek(
        &self,
        oracle: &mut ProbeOracle<'_>,
        rng: &mut dyn RngCore,
        node: Node,
        cert: &mut Vec<ElementId>,
    ) -> Color {
        // Step 1–2: pick a random child r1 and evaluate it.
        let [i1, i2, i3] = shuffled(rng);
        let r1_start = cert.len();
        let r1 = self.evaluate_child(oracle, rng, node.child(i1), cert);

        // Step 3–4: peek at a random grandchild of the second child r2.
        let r2_node = node.child(i2);
        let peek_index = rng.gen_range(0..3usize);
        let peek_start = cert.len();
        let peek = self.evaluate(oracle, rng, r2_node.child(peek_index), cert);

        if peek == r1 {
            // Step 5: keep evaluating r2; if r1 and r2 disagree the third
            // child decides.
            let r2 = self.continue_child(oracle, rng, r2_node, peek_index, peek, peek_start, cert);
            settle(cert, [r1_start, peek_start], r1, r2, |cert| {
                self.evaluate_child(oracle, rng, node.child(i3), cert)
            })
        } else {
            // Step 6: suspect r2 holds the minority value; try r3 first.
            let peek_len = cert.len() - peek_start;
            let r3 = self.evaluate_child(oracle, rng, node.child(i3), cert);
            if r3 == r1 {
                cert.drain(peek_start..peek_start + peek_len);
                return r1;
            }
            // r1 and r3 disagree: the value of r2 decides either way. Move
            // the peek's certificate behind r3's, where r2's evaluation
            // continues from it.
            cert[peek_start..].rotate_left(peek_len);
            let r3_end = cert.len() - peek_len;
            let r2 = self.continue_child(oracle, rng, r2_node, peek_index, peek, r3_end, cert);
            cert.drain(if r2 == r1 {
                peek_start..r3_end
            } else {
                r1_start..peek_start
            });
            r2
        }
    }
}

impl ProbeStrategy<Hqs> for IrProbeHqs {
    fn name(&self) -> String {
        "IR_Probe_HQS".into()
    }

    fn find_witness(
        &self,
        system: &Hqs,
        oracle: &mut ProbeOracle<'_>,
        rng: &mut dyn RngCore,
    ) -> Witness {
        root_witness(system, |root, cert| self.evaluate(oracle, rng, root, cert))
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
    fn probe_hqs_is_correct_on_every_coloring() {
        let hqs = Hqs::new(2).unwrap(); // 9 leaves
        let mut rng = StdRng::seed_from_u64(1);
        for coloring in Coloring::enumerate_all(9) {
            let run = run_strategy(&hqs, &ProbeHqs::new(), &coloring, &mut rng);
            assert_eq!(run.witness.is_green(), hqs.has_green_quorum(&coloring));
            assert_eq!(run.witness.elements().len(), hqs.quorum_size());
        }
    }

    #[test]
    fn r_probe_hqs_is_correct_on_every_coloring() {
        let hqs = Hqs::new(2).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        for coloring in Coloring::enumerate_all(9) {
            let run = run_strategy(&hqs, &RProbeHqs::new(), &coloring, &mut rng);
            assert_eq!(run.witness.is_green(), hqs.has_green_quorum(&coloring));
        }
    }

    #[test]
    fn ir_probe_hqs_is_correct_on_every_coloring() {
        let hqs = Hqs::new(2).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for coloring in Coloring::enumerate_all(9) {
            for _ in 0..3 {
                let run = run_strategy(&hqs, &IrProbeHqs::new(), &coloring, &mut rng);
                assert_eq!(run.witness.is_green(), hqs.has_green_quorum(&coloring));
                assert_eq!(run.witness.elements().len(), hqs.quorum_size());
            }
        }
    }

    #[test]
    fn ir_probe_hqs_handles_height_three() {
        let hqs = Hqs::new(3).unwrap(); // 27 leaves, exercises the peek path on
                                        // nodes of height 3 and 2.
        let mut rng = StdRng::seed_from_u64(4);
        for seed in 0..30u64 {
            let coloring = Coloring::from_fn(27, |e| {
                if (e as u64).wrapping_mul(2654435761).wrapping_add(seed * 97) % 5 < 2 {
                    quorum_core::Color::Red
                } else {
                    quorum_core::Color::Green
                }
            });
            let run = run_strategy(&hqs, &IrProbeHqs::new(), &coloring, &mut rng);
            assert_eq!(run.witness.is_green(), hqs.has_green_quorum(&coloring));
        }
    }

    #[test]
    fn probe_hqs_all_green_probes_exactly_a_quorum() {
        let hqs = Hqs::new(4).unwrap(); // 81 leaves
        let coloring = Coloring::all_green(81);
        let mut rng = StdRng::seed_from_u64(5);
        let run = run_strategy(&hqs, &ProbeHqs::new(), &coloring, &mut rng);
        assert_eq!(
            run.probes,
            hqs.quorum_size(),
            "unanimous input needs exactly 2^h probes"
        );
    }

    #[test]
    fn strategies_never_probe_more_than_n() {
        let hqs = Hqs::new(3).unwrap();
        let n = hqs.universe_size();
        let mut rng = StdRng::seed_from_u64(6);
        for seed in 0..10u64 {
            let coloring = Coloring::from_fn(n, |e| {
                if (e as u64 ^ seed) % 2 == 0 {
                    quorum_core::Color::Red
                } else {
                    quorum_core::Color::Green
                }
            });
            for probes in [
                run_strategy(&hqs, &ProbeHqs::new(), &coloring, &mut rng).probes,
                run_strategy(&hqs, &RProbeHqs::new(), &coloring, &mut rng).probes,
                run_strategy(&hqs, &IrProbeHqs::new(), &coloring, &mut rng).probes,
            ] {
                assert!(probes <= n);
                assert!(probes >= hqs.quorum_size());
            }
        }
    }

    #[test]
    fn names() {
        assert_eq!(ProbeStrategy::<Hqs>::name(&ProbeHqs::new()), "Probe_HQS");
        assert_eq!(ProbeStrategy::<Hqs>::name(&RProbeHqs::new()), "R_Probe_HQS");
        assert_eq!(
            ProbeStrategy::<Hqs>::name(&IrProbeHqs::new()),
            "IR_Probe_HQS"
        );
    }
}
