//! Recursive threshold compositions of quorum systems.
//!
//! A [`Composition`] is a tree of threshold gates over element leaves, the
//! shape real federated deployments use (Stellar-style quorum sets:
//! `{threshold, validators, inner_quorum_sets}`): a gate with children
//! `c₁, …, c_m` and threshold `k` is satisfied when at least `k` children
//! are.  Leaves may repeat across the tree, so the family strictly contains
//! the paper's recursive constructions — Tree, HQS and Grid are all
//! expressible as compositions (see `SystemSpec::{tree_as_compose,
//! hqs_as_compose, grid_as_compose}`), and Majority is the one-gate case.

use std::cell::RefCell;
use std::vec::Drain;

use quorum_core::lanes::{count_at_least_lanes, majority3_lanes, Lanes};
use quorum_core::{
    Coloring, ColoringDelta, DeltaEvaluator, ElementId, ElementSet, QuorumError, QuorumSystem,
};

use crate::dispatch_lane_block;

/// Hard cap on circuit size (leaves plus gates), matching the other
/// families' representability guards.
const MAX_NODES: usize = 1 << 26;

/// Largest universe a composition may span: element ids are stored as
/// `u32`.
pub(crate) const MAX_UNIVERSE: u64 = 1 << 32;

/// Largest universe for which [`Composition::enumerate_quorums`] runs the
/// exact antichain circuit DP (same limit as the trait's brute-force
/// default).
const ENUM_LIMIT: usize = 24;

/// Work budget of the antichain DP that [`Composition::new`] runs to make a
/// non-read-once composition's quorum sizes exact, in candidate unions
/// formed. Each union is also checked against the antichain it joins, so a
/// build spends at most about `budget²/2` subset tests there (tens of
/// milliseconds).
const SIZE_DP_BUDGET: usize = 1 << 14;

/// Recursive builder input for [`Composition`]: a leaf names one universe
/// element, a gate requires `threshold` of its children.
///
/// Thresholds of `0` (a constant-true gate) and single-child gates are
/// legal — degenerate compositions evaluate and enumerate canonically
/// rather than being rejected.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CompositionNode {
    /// One universe element; satisfied when the element is green.
    Leaf(ElementId),
    /// Satisfied when at least `threshold` of `children` are.
    Gate {
        /// How many children must be satisfied.
        threshold: usize,
        /// The child sub-compositions (at least one).
        children: Vec<CompositionNode>,
    },
}

impl CompositionNode {
    /// Convenience constructor for a threshold gate.
    pub fn gate(threshold: usize, children: Vec<CompositionNode>) -> Self {
        CompositionNode::Gate {
            threshold,
            children,
        }
    }

    /// Convenience constructor for a leaf.
    pub fn leaf(element: ElementId) -> Self {
        CompositionNode::Leaf(element)
    }
}

/// How a gate combines its children, fixed at compile time from its
/// threshold `k` and child count `m`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Kind {
    /// `k = 0`: constant true.
    True,
    /// `k = m`: every child.
    And,
    /// `k = 1`: any child.
    Or,
    /// 2-of-3.
    Majority3,
    /// Any other `k`-of-`m`.
    AtLeast,
}

impl Kind {
    fn of(k: usize, m: usize) -> Kind {
        match k {
            0 => Kind::True,
            _ if k == m => Kind::And,
            1 => Kind::Or,
            2 if m == 3 => Kind::Majority3,
            _ => Kind::AtLeast,
        }
    }
}

/// One gate of the post-order tape. Its gate children are the top `gates`
/// values of the value stack when it runs; its leaf children are the
/// element ids `leaves[leaf_start..leaf_end]`, read in place.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Gate {
    kind: Kind,
    threshold: u32,
    gates: u32,
    leaf_start: u32,
    leaf_end: u32,
}

/// A recursive threshold composition implementing [`QuorumSystem`].
///
/// [`Composition::new`] compiles the node tree into one post-order gate
/// tape: each gate records its kind (constant, AND, OR, 2-of-3 or
/// `k`-of-`m`, fixed from its threshold and child count), its threshold,
/// how many of its children are gates, and a range of leaf element ids.
/// Every evaluator is one iterative sweep over the tape: a gate reads its
/// leaves in place and its gate children off a value stack whose height is
/// fixed at compile time, so no evaluator recurses on circuit depth.
///
/// * `contains_quorum` sweeps booleans.
/// * The lane evaluators sweep 64·W trials at once. AND and OR gates stop
///   reading leaves once every lane is decided, 2-of-3 gates are
///   [`majority3_lanes`], other gates the carry-save counter of
///   [`count_at_least_lanes`]; the value stack is a per-thread buffer
///   reused across calls, so a sweep allocates nothing.
/// * The delta evaluator builds its own gate-parent and element→gate index
///   and keeps a satisfied-children counter per gate, so a churn step costs
///   O(flips · depth) with early exit. [`TreeQuorum`](crate::TreeQuorum)
///   and [`Hqs`](crate::Hqs) use it too, on an index built from their heap
///   layouts.
///
/// `min_quorum_size` / `max_quorum_size` come from the bottom-up
/// disjoint-children DP (min = sum of the `k` smallest child minima, max =
/// sum of the `k` largest child maxima). The DP is exact for *read-once*
/// compositions (no element appears in two leaves). When leaves repeat, a
/// universe of at most 24 elements refines the sizes through the exact
/// antichain DP, within a fixed work budget; past the budget, or above 24
/// elements, the sizes are the DP's upper bounds.
///
/// # Examples
///
/// ```
/// use quorum_core::{ElementSet, QuorumSystem};
/// use quorum_systems::{Composition, CompositionNode};
///
/// // 2-of-3 over {0,1,2}: the 3-majority as a one-gate composition.
/// let maj = Composition::new(
///     3,
///     CompositionNode::gate(2, (0..3).map(CompositionNode::leaf).collect()),
/// )
/// .unwrap();
/// assert!(maj.contains_quorum(&ElementSet::from_iter(3, [0, 2])));
/// assert!(!maj.contains_quorum(&ElementSet::from_iter(3, [1])));
/// assert_eq!(maj.min_quorum_size(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Composition {
    n: usize,
    /// The gates in post-order: every gate after its gate children, the
    /// root last. A bare-leaf root compiles to one pass-through gate.
    gates: Vec<Gate>,
    /// Leaf element ids; each gate's leaf children are contiguous.
    leaves: Vec<u32>,
    /// Most values the sweeps' value stack holds at once.
    stack_height: usize,
    depth: usize,
    read_once: bool,
    min_q: usize,
    max_q: usize,
    sizes_exact: bool,
}

thread_local! {
    /// The lane sweep's value stack: grown to the tallest circuit this
    /// thread has evaluated, then reused.
    static LANE_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

impl Composition {
    /// Builds a composition over `universe` elements from a recursive node
    /// description.
    ///
    /// # Errors
    ///
    /// * [`QuorumError::ElementOutOfRange`] when a leaf names an element
    ///   `>= universe`.
    /// * [`QuorumError::UniverseTooLarge`] when `universe` exceeds 2³²
    ///   elements.
    /// * [`QuorumError::InvalidConstruction`] when the universe is empty, a
    ///   gate has no children, a threshold exceeds its child count, or the
    ///   circuit exceeds the representability cap.
    pub fn new(universe: usize, root: CompositionNode) -> Result<Self, QuorumError> {
        if universe == 0 {
            return Err(QuorumError::InvalidConstruction {
                reason: "a composition needs a non-empty universe".into(),
            });
        }
        if universe as u64 > MAX_UNIVERSE {
            return Err(QuorumError::UniverseTooLarge {
                actual: universe,
                limit: MAX_UNIVERSE as usize,
            });
        }
        let mut this = compile(universe, &root)?;
        this.read_once = !has_repeated_leaf(&this.leaves, universe);
        (this.min_q, this.max_q) = this.size_dp();
        this.sizes_exact = this.read_once;
        if !this.read_once && universe <= ENUM_LIMIT {
            if let Some(quorums) = this.minimal_antichain(SIZE_DP_BUDGET) {
                if let (Some(min), Some(max)) = (
                    quorums.iter().map(ElementSet::len).min(),
                    quorums.iter().map(ElementSet::len).max(),
                ) {
                    this.min_q = min;
                    this.max_q = max;
                    this.sizes_exact = true;
                }
            }
        }
        Ok(this)
    }

    /// Number of threshold gates in the circuit.
    pub fn gate_count(&self) -> usize {
        // Depth 0 is a bare leaf, whose pass-through gate is not in the
        // source tree.
        if self.depth == 0 {
            0
        } else {
            self.gates.len()
        }
    }

    /// Number of leaves in the circuit (counting repeats).
    pub fn leaf_count(&self) -> usize {
        self.leaves.len()
    }

    /// Gate depth of the circuit (a bare leaf has depth 0).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Whether no element appears in more than one leaf. Read-once
    /// compositions get exact quorum-size DP at any scale.
    pub fn is_read_once(&self) -> bool {
        self.read_once
    }

    /// Whether `min_quorum_size` / `max_quorum_size` are exact (always true
    /// for read-once compositions; for repeated leaves, true when the
    /// universe has at most 24 elements and the antichain DP finished
    /// within its work budget; otherwise they are the disjoint-children
    /// DP's upper bounds).
    pub fn quorum_sizes_exact(&self) -> bool {
        self.sizes_exact
    }

    /// The leaf element ids of `gate`.
    fn leaves_of(&self, gate: &Gate) -> &[u32] {
        &self.leaves[gate.leaf_start as usize..gate.leaf_end as usize]
    }

    /// Folds the tape bottom-up over a value stack: `gate_value(index,
    /// gate, children)` turns a gate and the values of its gate children
    /// (in child order) into the gate's own value. Returns the root's.
    fn fold<V>(&self, mut gate_value: impl FnMut(usize, &Gate, Drain<'_, V>) -> V) -> V {
        let mut stack = Vec::with_capacity(self.stack_height);
        for (g, gate) in self.gates.iter().enumerate() {
            let base = stack.len() - gate.gates as usize;
            let value = gate_value(g, gate, stack.drain(base..));
            stack.push(value);
        }
        stack.pop().expect("a composition has a root gate")
    }

    /// The disjoint-children DP over (min, max) minimal-quorum sizes.
    fn size_dp(&self) -> (usize, usize) {
        let (mut mins, mut maxs) = (Vec::new(), Vec::new());
        self.fold(|_, gate, children| {
            mins.clear();
            maxs.clear();
            let leaves = std::iter::repeat_n((1, 1), self.leaves_of(gate).len());
            for (min, max) in children.chain(leaves) {
                mins.push(min);
                maxs.push(max);
            }
            mins.sort_unstable();
            maxs.sort_unstable_by(|a, b| b.cmp(a));
            // A constant-true gate (k = 0) sums nothing: the empty quorum.
            let k = gate.threshold as usize;
            (mins[..k].iter().sum(), maxs[..k].iter().sum())
        })
    }

    /// The exact minimal-quorum antichain via the circuit DP: each gate
    /// carries its antichain of minimal satisfying sets; a `k`-of-`m` gate
    /// unions every `k`-subset's cross product, dropping dominated sets as
    /// they appear. Handles repeated leaves exactly (unions overlap and
    /// shrink) — only feasible for small universes. Returns `None` once it
    /// has formed more than `budget` candidate unions.
    fn minimal_antichain(&self, budget: usize) -> Option<Vec<ElementSet>> {
        let singletons: Vec<Vec<ElementSet>> = (0..self.n)
            .map(|e| vec![ElementSet::singleton(self.n, e)])
            .collect();
        let mut unions = 0usize;
        let mut quorums = self.fold(|_, gate, children| {
            let gate_sets: Vec<Vec<ElementSet>> = children.collect();
            let children: Vec<&[ElementSet]> = gate_sets
                .iter()
                .map(Vec::as_slice)
                .chain(
                    self.leaves_of(gate)
                        .iter()
                        .map(|&e| singletons[e as usize].as_slice()),
                )
                .collect();
            let mut acc: Vec<ElementSet> = Vec::new();
            // Every k-subset of the children, in lexicographic order.
            let mut picked: Vec<usize> = (0..gate.threshold as usize).collect();
            loop {
                let mut partial = vec![ElementSet::empty(self.n)];
                for &c in &picked {
                    let mut next: Vec<ElementSet> = Vec::new();
                    for base in &partial {
                        for q in children[c] {
                            unions += 1;
                            if unions > budget {
                                return Vec::new();
                            }
                            insert_minimal(&mut next, base.union(q));
                        }
                    }
                    partial = next;
                }
                for q in partial {
                    insert_minimal(&mut acc, q);
                }
                if !next_subset(&mut picked, children.len()) {
                    return acc;
                }
            }
        });
        if unions > budget {
            return None;
        }
        quorums.sort_by(|a, b| {
            a.len()
                .cmp(&b.len())
                .then_with(|| a.to_vec().cmp(&b.to_vec()))
        });
        Some(quorums)
    }

    /// The lane sweep on this thread's reusable value stack.
    fn green_lane_block_impl<L: Lanes>(&self, lanes: &[u64]) -> L {
        LANE_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let words = self.stack_height * L::WORDS;
            if stack.len() < words {
                stack.resize(words, 0);
            }
            self.lane_sweep(lanes, &mut stack[..words])
        })
    }

    /// The lane sweep over a value stack of `stack_height` values of `L`.
    /// An AND (OR) gate stops reading leaves once every lane is 0 (1): no
    /// further leaf can change it.
    fn lane_sweep<L: Lanes>(&self, lanes: &[u64], stack: &mut [u64]) -> L {
        let words = L::WORDS;
        let leaf = |e: &u32| L::load(&lanes[*e as usize * words..]);
        let mut top = 0;
        for gate in &self.gates {
            let base = top - gate.gates as usize;
            let children = stack[base * words..top * words]
                .chunks_exact(words)
                .map(L::load);
            let leaves = self.leaves_of(gate);
            let value = match gate.kind {
                Kind::True => L::ones(),
                Kind::And => {
                    let mut acc = children.fold(L::ones(), L::and);
                    for e in leaves {
                        if !acc.any() {
                            break;
                        }
                        acc = acc.and(leaf(e));
                    }
                    acc
                }
                Kind::Or => {
                    let mut acc = children.fold(L::zeros(), L::or);
                    for e in leaves {
                        if !acc.not().any() {
                            break;
                        }
                        acc = acc.or(leaf(e));
                    }
                    acc
                }
                Kind::Majority3 => {
                    let g = gate.gates as usize;
                    let input = |i: usize| {
                        if i < g {
                            L::load(&stack[(base + i) * words..])
                        } else {
                            leaf(&leaves[i - g])
                        }
                    };
                    majority3_lanes(input(0), input(1), input(2))
                }
                Kind::AtLeast => count_at_least_lanes(
                    children.chain(leaves.iter().map(leaf)),
                    gate.threshold as usize,
                ),
            };
            value.store(&mut stack[base * words..]);
            top = base + 1;
        }
        L::load(stack)
    }
}

/// Compiles the node tree into the post-order gate tape. A first pass
/// validates the tree and counts its gates and leaves, so the second pass
/// writes the tape into pre-sized arrays. Both walks keep their own stack,
/// so deep trees compile without recursion. Sizes and the read-once flag
/// are left to the caller.
fn compile(universe: usize, root: &CompositionNode) -> Result<Composition, QuorumError> {
    let (mut gate_count, mut leaf_count) = (0usize, 0usize);
    let mut open = vec![std::slice::from_ref(root).iter()];
    while let Some(siblings) = open.last_mut() {
        let Some(node) = siblings.next() else {
            open.pop();
            continue;
        };
        if gate_count + leaf_count >= MAX_NODES {
            return Err(QuorumError::InvalidConstruction {
                reason: format!("composition exceeds {MAX_NODES} circuit nodes"),
            });
        }
        match node {
            CompositionNode::Leaf(e) if *e >= universe => {
                return Err(QuorumError::ElementOutOfRange {
                    element: *e,
                    universe,
                });
            }
            CompositionNode::Leaf(_) => leaf_count += 1,
            CompositionNode::Gate { children, .. } if children.is_empty() => {
                return Err(QuorumError::InvalidConstruction {
                    reason: "composition gate has no children".into(),
                });
            }
            CompositionNode::Gate {
                threshold,
                children,
            } if *threshold > children.len() => {
                return Err(QuorumError::InvalidConstruction {
                    reason: format!(
                        "composition gate threshold {threshold} exceeds its {} children",
                        children.len()
                    ),
                });
            }
            CompositionNode::Gate { children, .. } => {
                gate_count += 1;
                open.push(children.iter());
            }
        }
    }

    /// A gate whose children are being compiled.
    struct Frame<'a> {
        threshold: usize,
        children: &'a [CompositionNode],
        /// Children visited so far.
        next: usize,
        /// Depth of the deepest gate child compiled so far.
        below: usize,
    }
    /// A fresh frame for a gate node; `None` for a leaf.
    fn frame(node: &CompositionNode) -> Option<Frame<'_>> {
        match node {
            CompositionNode::Gate {
                threshold,
                children,
            } => Some(Frame {
                threshold: *threshold,
                children,
                next: 0,
                below: 0,
            }),
            CompositionNode::Leaf(_) => None,
        }
    }
    let mut circuit = Composition {
        n: universe,
        gates: Vec::with_capacity(gate_count.max(1)),
        leaves: Vec::with_capacity(leaf_count),
        stack_height: 0,
        depth: 0,
        read_once: false,
        min_q: 0,
        max_q: 0,
        sizes_exact: false,
    };
    // A bare leaf compiles to one pass-through 1-of-1 gate.
    let mut frames = vec![frame(root).unwrap_or(Frame {
        threshold: 1,
        children: std::slice::from_ref(root),
        next: 0,
        below: 0,
    })];
    let mut height = 0usize;
    while let Some(top) = frames.last_mut() {
        if let Some(child) = top.children.get(top.next) {
            top.next += 1;
            frames.extend(frame(child));
            continue;
        }
        let done = frames.pop().expect("the loop holds a frame");
        // The `as u32` casts cannot truncate: leaves are below the universe
        // (at most 2³², checked by the caller) and counts below MAX_NODES.
        let leaf_start = circuit.leaves.len();
        circuit
            .leaves
            .extend(done.children.iter().filter_map(|child| match child {
                CompositionNode::Leaf(e) => Some(*e as u32),
                CompositionNode::Gate { .. } => None,
            }));
        let gates = done.children.len() - (circuit.leaves.len() - leaf_start);
        height = height + 1 - gates;
        circuit.stack_height = circuit.stack_height.max(height);
        circuit.gates.push(Gate {
            kind: Kind::of(done.threshold, done.children.len()),
            threshold: done.threshold as u32,
            gates: gates as u32,
            leaf_start: leaf_start as u32,
            leaf_end: circuit.leaves.len() as u32,
        });
        let depth = done.below + 1;
        match frames.last_mut() {
            Some(parent) => parent.below = parent.below.max(depth),
            None => circuit.depth = depth,
        }
    }
    if gate_count == 0 {
        circuit.depth = 0;
    }
    Ok(circuit)
}

/// Whether some element appears in two leaves, using no table larger than
/// the leaves themselves: a bitset over the universe when it has at most
/// one word per leaf, else a sorted copy of the leaves (a universe far
/// larger than the circuit).
fn has_repeated_leaf(leaves: &[u32], universe: usize) -> bool {
    let words = universe.div_ceil(64);
    if words <= leaves.len() {
        let mut seen = vec![0u64; words];
        leaves.iter().any(|&e| {
            let (word, bit) = (e as usize / 64, 1u64 << (e % 64));
            let repeat = seen[word] & bit != 0;
            seen[word] |= bit;
            repeat
        })
    } else {
        let mut sorted = leaves.to_vec();
        sorted.sort_unstable();
        sorted.windows(2).any(|pair| pair[0] == pair[1])
    }
}

/// Inserts `cand` into the antichain `acc`: skipped when an existing set is
/// contained in it, and existing supersets of it are evicted.
fn insert_minimal(acc: &mut Vec<ElementSet>, cand: ElementSet) {
    if acc.iter().any(|q| q.is_subset(&cand)) {
        return;
    }
    acc.retain(|q| !cand.is_subset(q));
    acc.push(cand);
}

/// Advances `picked` (a sorted `k`-subset of `0..m`) to the next subset in
/// lexicographic order; `false` after the last one.
fn next_subset(picked: &mut [usize], m: usize) -> bool {
    let k = picked.len();
    for i in (0..k).rev() {
        if picked[i] < m - k + i {
            picked[i] += 1;
            for j in i + 1..k {
                picked[j] = picked[j - 1] + 1;
            }
            return true;
        }
    }
    false
}

/// Per-gate state of the delta evaluator.
#[derive(Debug, Clone, Copy)]
struct DeltaGate {
    /// The gate consuming this one ([`ROOT`] at the root).
    parent: u32,
    threshold: u32,
    /// Satisfied children.
    sat: u32,
}

impl DeltaGate {
    fn satisfied(&self) -> bool {
        self.sat >= self.threshold
    }
}

/// The root gate's `parent`.
pub(crate) const ROOT: u32 = u32::MAX;

/// Incremental composition evaluation: a satisfied-children counter and a
/// cached value per gate. Each flipped element adjusts the counters of the
/// gates listing it as a leaf and climbs toward the root only while a
/// gate's value actually changes, so a churn step costs O(flips · depth)
/// with early exit, independent of evaluation order even with repeated
/// leaves. The evaluator keeps only its own index, not the tape, so the
/// native Tree and HQS build the same index from their heap layouts.
#[derive(Debug, Clone)]
pub(crate) struct CompositionDeltaEval {
    n: usize,
    /// In tape order: every gate after its gate children.
    gates: Vec<DeltaGate>,
    /// CSR element → gates listing it as a leaf, once per occurrence: the
    /// gates of `e` are `leaf_gates[leaf_off[e]..leaf_off[e + 1]]`.
    leaf_off: Vec<u32>,
    leaf_gates: Vec<u32>,
    primed: bool,
}

impl CompositionDeltaEval {
    fn new(circuit: &Composition) -> Self {
        // Fold gate indices up the tape to find each gate's parent.
        let mut parents = vec![ROOT; circuit.gates.len()];
        circuit.fold(|g, _, children: Drain<'_, usize>| {
            for child in children {
                parents[child] = g as u32;
            }
            g
        });
        // Counting sort of the leaf occurrences by element: count, prefix
        // to block ends, then fill each block back to front.
        let mut leaf_off = vec![0u32; circuit.n + 1];
        for &e in &circuit.leaves {
            leaf_off[e as usize] += 1;
        }
        for e in 1..=circuit.n {
            leaf_off[e] += leaf_off[e - 1];
        }
        let mut leaf_gates = vec![0u32; circuit.leaves.len()];
        for (g, gate) in circuit.gates.iter().enumerate().rev() {
            for &e in circuit.leaves_of(gate).iter().rev() {
                leaf_off[e as usize] -= 1;
                leaf_gates[leaf_off[e as usize] as usize] = g as u32;
            }
        }
        let thresholds = circuit.gates.iter().map(|gate| gate.threshold);
        Self::from_index(parents.into_iter().zip(thresholds), leaf_off, leaf_gates)
    }

    /// Builds the evaluator from its index: `gates` in tape order as
    /// `(parent, threshold)`, every gate after its gate children and the
    /// root last with parent [`ROOT`], and the element → gate CSR over the
    /// `leaf_off.len() − 1` elements.
    pub(crate) fn from_index(
        gates: impl IntoIterator<Item = (u32, u32)>,
        leaf_off: Vec<u32>,
        leaf_gates: Vec<u32>,
    ) -> Self {
        let gates: Vec<DeltaGate> = gates
            .into_iter()
            .map(|(parent, threshold)| DeltaGate {
                parent,
                threshold,
                sat: 0,
            })
            .collect();
        // Parents come later in the tape, so only the last gate is the root.
        debug_assert!(gates.iter().enumerate().all(|(g, gate)| match gate.parent {
            ROOT => g + 1 == gates.len(),
            parent => g < parent as usize && (parent as usize) < gates.len(),
        }));
        CompositionDeltaEval {
            n: leaf_off.len() - 1,
            gates,
            leaf_off,
            leaf_gates,
            primed: false,
        }
    }

    /// The gates listing element `e` as a leaf.
    fn gates_of(&self, e: usize) -> std::ops::Range<usize> {
        self.leaf_off[e] as usize..self.leaf_off[e + 1] as usize
    }

    /// One child of gate `g` turned satisfied (`up`) or unsatisfied;
    /// propagates the change toward the root while values change.
    fn propagate(&mut self, mut g: usize, mut up: bool) {
        loop {
            let gate = &mut self.gates[g];
            let was = gate.satisfied();
            if up {
                gate.sat += 1;
            } else {
                gate.sat -= 1;
            }
            let now = gate.satisfied();
            if now == was || gate.parent == ROOT {
                return;
            }
            g = gate.parent as usize;
            up = now;
        }
    }
}

impl DeltaEvaluator for CompositionDeltaEval {
    fn reset(&mut self, coloring: &Coloring) -> bool {
        assert_eq!(coloring.universe_size(), self.n, "universe mismatch");
        for gate in &mut self.gates {
            gate.sat = 0;
        }
        for e in 0..self.n {
            if coloring.is_green(e) {
                for i in self.gates_of(e) {
                    self.gates[self.leaf_gates[i] as usize].sat += 1;
                }
            }
        }
        // Tape order settles every gate's children before the gate.
        for g in 0..self.gates.len() {
            let gate = self.gates[g];
            if gate.satisfied() && gate.parent != ROOT {
                self.gates[gate.parent as usize].sat += 1;
            }
        }
        self.primed = true;
        self.verdict()
    }

    fn update(&mut self, post: &Coloring, delta: &ColoringDelta) -> bool {
        assert!(self.primed, "update before reset");
        assert_eq!(post.universe_size(), self.n, "universe mismatch");
        for e in delta.flipped_elements() {
            let green = post.is_green(e);
            for i in self.gates_of(e) {
                self.propagate(self.leaf_gates[i] as usize, green);
            }
        }
        self.verdict()
    }

    fn verdict(&self) -> bool {
        assert!(self.primed, "verdict before reset");
        self.gates
            .last()
            .expect("a composition has a root gate")
            .satisfied()
    }
}

impl QuorumSystem for Composition {
    fn name(&self) -> String {
        format!(
            "Compose(n={},gates={},depth={})",
            self.n,
            self.gate_count(),
            self.depth
        )
    }

    fn universe_size(&self) -> usize {
        self.n
    }

    fn contains_quorum(&self, set: &ElementSet) -> bool {
        self.fold(|_, gate, children| {
            let leaves = self.leaves_of(gate);
            let sat = children.filter(|&value| value).count()
                + leaves.iter().filter(|&&e| set.contains(e as usize)).count();
            sat >= gate.threshold as usize
        })
    }

    fn green_quorum_lanes(&self, lanes: &[u64]) -> Option<u64> {
        debug_assert_eq!(lanes.len(), self.n);
        Some(self.green_lane_block_impl::<u64>(lanes))
    }

    fn green_quorum_lane_block(&self, lanes: &[u64], width: usize, out: &mut [u64]) -> bool {
        dispatch_lane_block!(self, lanes, width, out)
    }

    fn delta_evaluator(&self) -> Option<Box<dyn DeltaEvaluator + Send>> {
        Some(Box::new(CompositionDeltaEval::new(self)))
    }

    fn min_quorum_size(&self) -> usize {
        self.min_q
    }

    fn max_quorum_size(&self) -> usize {
        self.max_q
    }

    fn enumerate_quorums(&self) -> Result<Vec<ElementSet>, QuorumError> {
        if self.n > ENUM_LIMIT {
            return Err(QuorumError::UniverseTooLarge {
                actual: self.n,
                limit: ENUM_LIMIT,
            });
        }
        Ok(self
            .minimal_antichain(usize::MAX)
            .expect("an unbounded antichain DP finishes"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quorum_core::lanes::LANE_WIDTHS;

    fn maj3() -> Composition {
        Composition::new(
            3,
            CompositionNode::gate(2, (0..3).map(CompositionNode::leaf).collect()),
        )
        .unwrap()
    }

    /// Deterministic splitmix64 for test colorings.
    fn mix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    #[test]
    fn construction_validation() {
        assert!(matches!(
            Composition::new(3, CompositionNode::leaf(3)),
            Err(QuorumError::ElementOutOfRange {
                element: 3,
                universe: 3
            })
        ));
        assert!(matches!(
            Composition::new(3, CompositionNode::gate(0, vec![])),
            Err(QuorumError::InvalidConstruction { .. })
        ));
        assert!(matches!(
            Composition::new(3, CompositionNode::gate(3, vec![CompositionNode::leaf(0)])),
            Err(QuorumError::InvalidConstruction { .. })
        ));
        assert!(matches!(
            Composition::new(0, CompositionNode::leaf(0)),
            Err(QuorumError::InvalidConstruction { .. })
        ));
        // Element ids are u32: the universe may span at most 2³² elements.
        assert!(matches!(
            Composition::new((1 << 32) + 1, CompositionNode::leaf(0)),
            Err(QuorumError::UniverseTooLarge { .. })
        ));
        let widest = Composition::new(1 << 32, CompositionNode::leaf(u32::MAX as usize)).unwrap();
        assert_eq!(widest.universe_size(), 1 << 32);
    }

    #[test]
    fn repeated_leaves_are_found_in_dense_and_sparse_universes() {
        let pair = |a, b| {
            CompositionNode::gate(1, vec![CompositionNode::leaf(a), CompositionNode::leaf(b)])
        };
        // A small universe takes the bitset, a far larger one the sorted
        // copy of the leaves.
        for universe in [8, 1 << 20] {
            assert!(Composition::new(universe, pair(5, 6))
                .unwrap()
                .is_read_once());
            assert!(!Composition::new(universe, pair(5, 5))
                .unwrap()
                .is_read_once());
        }
    }

    #[test]
    fn bare_leaf_is_a_gateless_circuit() {
        let c = Composition::new(3, CompositionNode::leaf(1)).unwrap();
        assert_eq!((c.gate_count(), c.leaf_count(), c.depth()), (0, 1, 0));
        assert_eq!((c.min_quorum_size(), c.max_quorum_size()), (1, 1));
        assert_eq!(c.name(), "Compose(n=3,gates=0,depth=0)");
        assert!(c.contains_quorum(&ElementSet::singleton(3, 1)));
        assert!(!c.contains_quorum(&ElementSet::from_iter(3, [0, 2])));
        assert_eq!(c.green_quorum_lanes(&[1, 2, 3]), Some(2));
        assert_eq!(
            c.enumerate_quorums().unwrap(),
            vec![ElementSet::singleton(3, 1)]
        );
        let mut evaluator = c.delta_evaluator().unwrap();
        let green = Coloring::all_green(3);
        assert!(evaluator.reset(&green));
        let mut red = green.clone();
        red.set_color(1, quorum_core::Color::Red);
        assert!(!evaluator.update(&red, &green.diff(&red)));
    }

    #[test]
    fn size_refinement_stops_at_its_budget() {
        // 9-of-19 over 0..18 with element 0 twice: the exact antichain DP
        // forms ~8·10⁵ unions (seconds of work, ~11× more per two extra
        // elements); the budget stops it and keeps the DP bounds.
        let children = (0..18).chain([0]).map(CompositionNode::leaf).collect();
        let c = Composition::new(18, CompositionNode::gate(9, children)).unwrap();
        assert!(!c.is_read_once());
        assert!(!c.quorum_sizes_exact());
        assert_eq!((c.min_quorum_size(), c.max_quorum_size()), (9, 9));
    }

    #[test]
    fn deep_chains_evaluate_without_recursion() {
        const DEPTH: usize = 50_000;
        // Building and dropping the nested node tree recurses; give that
        // thread room. The compiled circuit is flat.
        let chain = std::thread::Builder::new()
            .stack_size(256 << 20)
            .spawn(|| {
                let mut node = CompositionNode::leaf(1);
                for _ in 0..DEPTH {
                    node = CompositionNode::gate(1, vec![node]);
                }
                Composition::new(2, node).unwrap()
            })
            .unwrap()
            .join()
            .unwrap();
        assert_eq!((chain.gate_count(), chain.depth()), (DEPTH, DEPTH));
        // Every evaluator runs on a 256 KiB stack.
        std::thread::Builder::new()
            .stack_size(256 << 10)
            .spawn(move || {
                let width = 8;
                let lanes: Vec<u64> = (0..2 * width).map(|i| mix(i as u64)).collect();
                let mut out = vec![0u64; width];
                assert!(chain.green_quorum_lane_block(&lanes, width, &mut out));
                assert_eq!(out, lanes[width..]);
                assert!(chain.contains_quorum(&ElementSet::singleton(2, 1)));
                assert!(!chain.contains_quorum(&ElementSet::singleton(2, 0)));
                let mut evaluator = chain.delta_evaluator().unwrap();
                let green = Coloring::all_green(2);
                assert!(evaluator.reset(&green));
                let mut red = green.clone();
                red.set_color(1, quorum_core::Color::Red);
                assert!(!evaluator.update(&red, &green.diff(&red)));
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn one_gate_composition_is_a_majority() {
        let c = maj3();
        assert_eq!(c.universe_size(), 3);
        assert_eq!(c.gate_count(), 1);
        assert_eq!(c.leaf_count(), 3);
        assert_eq!(c.depth(), 1);
        assert!(c.is_read_once());
        assert_eq!(c.min_quorum_size(), 2);
        assert_eq!(c.max_quorum_size(), 2);
        for mask in 0u64..8 {
            let set = ElementSet::from_mask(3, mask);
            assert_eq!(c.contains_quorum(&set), set.len() >= 2, "mask {mask}");
        }
        let quorums = c.enumerate_quorums().unwrap();
        assert_eq!(quorums.len(), 3);
        assert!(quorums.iter().all(|q| q.len() == 2));
    }

    #[test]
    fn degenerate_threshold_zero_is_constant_true() {
        let c = Composition::new(
            2,
            CompositionNode::gate(0, vec![CompositionNode::leaf(0), CompositionNode::leaf(1)]),
        )
        .unwrap();
        assert!(c.contains_quorum(&ElementSet::empty(2)));
        assert_eq!(c.min_quorum_size(), 0);
        assert_eq!(c.max_quorum_size(), 0);
        let quorums = c.enumerate_quorums().unwrap();
        assert_eq!(quorums, vec![ElementSet::empty(2)]);
        // The empty quorum is not a valid coterie: typed error, no panic.
        assert!(matches!(c.to_coterie(), Err(QuorumError::Empty)));
    }

    #[test]
    fn degenerate_single_child_chain_acts_as_its_leaf() {
        let chain = CompositionNode::gate(
            1,
            vec![CompositionNode::gate(1, vec![CompositionNode::leaf(1)])],
        );
        let c = Composition::new(3, chain).unwrap();
        assert_eq!(c.depth(), 2);
        assert!(c.contains_quorum(&ElementSet::singleton(3, 1)));
        assert!(!c.contains_quorum(&ElementSet::from_iter(3, [0, 2])));
        let quorums = c.enumerate_quorums().unwrap();
        assert_eq!(quorums, vec![ElementSet::singleton(3, 1)]);
        assert_eq!(c.min_quorum_size(), 1);
        assert_eq!(c.max_quorum_size(), 1);
    }

    #[test]
    fn duplicate_leaves_collapse_to_a_minimal_antichain() {
        // 2-of-2 over the same element: just {0}.
        let c = Composition::new(
            1,
            CompositionNode::gate(2, vec![CompositionNode::leaf(0), CompositionNode::leaf(0)]),
        )
        .unwrap();
        assert!(!c.is_read_once());
        assert_eq!(
            c.enumerate_quorums().unwrap(),
            vec![ElementSet::singleton(1, 0)]
        );
        assert_eq!(c.min_quorum_size(), 1);
        assert_eq!(c.max_quorum_size(), 1);
        assert!(c.quorum_sizes_exact());

        // 1-of-2 over {0} and {0,1}: the branch needing both is dominated.
        let c = Composition::new(
            2,
            CompositionNode::gate(
                1,
                vec![
                    CompositionNode::gate(1, vec![CompositionNode::leaf(0)]),
                    CompositionNode::gate(
                        2,
                        vec![CompositionNode::leaf(0), CompositionNode::leaf(1)],
                    ),
                ],
            ),
        )
        .unwrap();
        assert_eq!(
            c.enumerate_quorums().unwrap(),
            vec![ElementSet::singleton(2, 0)]
        );
    }

    #[test]
    fn grid_like_duplicates_get_exact_sizes() {
        // 2x2 grid as a composition: (1-of-rows of all-of-row) AND
        // (1-of-cols of all-of-col). Every element appears twice; a minimal
        // quorum is a row plus a column sharing the crossing element.
        let row = |a: usize, b: usize| {
            CompositionNode::gate(2, vec![CompositionNode::leaf(a), CompositionNode::leaf(b)])
        };
        let c = Composition::new(
            4,
            CompositionNode::gate(
                2,
                vec![
                    CompositionNode::gate(1, vec![row(0, 1), row(2, 3)]),
                    CompositionNode::gate(1, vec![row(0, 2), row(1, 3)]),
                ],
            ),
        )
        .unwrap();
        assert!(!c.is_read_once());
        assert!(c.quorum_sizes_exact());
        assert_eq!(c.min_quorum_size(), 3); // row + column share one element
        assert_eq!(c.max_quorum_size(), 3);
        let quorums = c.enumerate_quorums().unwrap();
        assert_eq!(quorums.len(), 4);
        assert!(quorums.iter().all(|q| q.len() == 3));
        assert!(c.to_coterie().is_ok());
    }

    #[test]
    fn nested_read_once_dp_is_exact() {
        // 2-of-3 over three disjoint 2-of-3 groups: min 4, max 4; n = 9.
        let group = |base: usize| {
            CompositionNode::gate(2, (base..base + 3).map(CompositionNode::leaf).collect())
        };
        let c = Composition::new(
            9,
            CompositionNode::gate(2, vec![group(0), group(3), group(6)]),
        )
        .unwrap();
        assert!(c.is_read_once());
        assert_eq!(c.min_quorum_size(), 4);
        assert_eq!(c.max_quorum_size(), 4);
        let quorums = c.enumerate_quorums().unwrap();
        assert!(quorums.iter().all(|q| q.len() == 4));
        // 3 pairs of groups x 3 quorums each per group.
        assert_eq!(quorums.len(), 27);
    }

    #[test]
    fn lane_circuit_matches_scalar_on_random_colorings() {
        let group = |base: usize| {
            CompositionNode::gate(2, (base..base + 3).map(CompositionNode::leaf).collect())
        };
        let c = Composition::new(
            9,
            CompositionNode::gate(2, vec![group(0), group(3), group(6)]),
        )
        .unwrap();
        let n = c.universe_size();
        let lanes: Vec<u64> = (0..n).map(|e| mix(e as u64 + 17)).collect();
        let verdicts = c.green_quorum_lanes(&lanes).unwrap();
        for t in 0..64 {
            let set = ElementSet::from_iter(n, (0..n).filter(|&e| lanes[e] >> t & 1 == 1));
            assert_eq!(verdicts >> t & 1 == 1, c.contains_quorum(&set), "trial {t}");
        }
    }

    #[test]
    fn lane_blocks_match_single_word_lanes() {
        let c = maj3();
        let n = c.universe_size();
        for width in LANE_WIDTHS {
            let lanes: Vec<u64> = (0..n * width).map(|i| mix(i as u64 + 99)).collect();
            let mut out = vec![0u64; width];
            assert!(c.green_quorum_lane_block(&lanes, width, &mut out));
            for w in 0..width {
                let word: Vec<u64> = (0..n).map(|e| lanes[e * width + w]).collect();
                assert_eq!(out[w], c.green_quorum_lanes(&word).unwrap(), "word {w}");
            }
        }
        let mut out = vec![0u64; 3];
        assert!(!c.green_quorum_lane_block(&[0; 9], 3, &mut out));
    }

    #[test]
    fn delta_evaluator_matches_scratch_under_random_flips() {
        let row = |a: usize, b: usize| {
            CompositionNode::gate(2, vec![CompositionNode::leaf(a), CompositionNode::leaf(b)])
        };
        // Duplicate-leaf circuit to exercise multi-leaf propagation.
        let c = Composition::new(
            4,
            CompositionNode::gate(
                2,
                vec![
                    CompositionNode::gate(1, vec![row(0, 1), row(2, 3)]),
                    CompositionNode::gate(1, vec![row(0, 2), row(1, 3)]),
                ],
            ),
        )
        .unwrap();
        let n = c.universe_size();
        let mut evaluator = c.delta_evaluator().expect("composition has a delta path");
        let mut coloring = Coloring::all_green(n);
        assert_eq!(evaluator.reset(&coloring), c.has_green_quorum(&coloring));
        let mut delta = ColoringDelta::empty(n);
        for step in 0..200u64 {
            let before = coloring.clone();
            let flips = 1 + (mix(step) as usize % 3);
            for f in 0..flips {
                let e = mix(step * 7 + f as u64) as usize % n;
                coloring.set_color(e, coloring.color(e).opposite());
            }
            before.diff_into(&coloring, &mut delta);
            assert_eq!(
                evaluator.update(&coloring, &delta),
                c.has_green_quorum(&coloring),
                "step {step}"
            );
        }
    }

    #[test]
    fn coterie_round_trip_is_valid() {
        let c = maj3();
        let coterie = c.to_coterie().unwrap();
        assert!(coterie.is_nondominated());
    }
}
