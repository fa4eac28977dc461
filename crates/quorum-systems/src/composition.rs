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
//! A composition is described as a [`SystemSpec::Compose`] tree over
//! [`SystemSpec::Leaf`]s, and [`SystemSpec::build`] compiles it.

use std::cell::RefCell;
use std::vec::Drain;

use quorum_core::lanes::{count_at_least_lanes, majority3_lanes, Lanes};
use quorum_core::{Coloring, ColoringDelta, DeltaEvaluator, ElementSet, QuorumError, QuorumSystem};

use crate::{dispatch_lane_block, SpecError, SpecErrorKind, SystemSpec, MAX_ELEMENTS};

/// Hard cap on circuit size (leaves plus gates), matching the other
/// families' representability guards.
const MAX_NODES: usize = 1 << 26;

/// Largest universe for which [`compile`] runs the exact antichain circuit
/// DP on a non-read-once composition.
const ENUM_LIMIT: usize = 24;

/// Work budget of the antichain DP that [`compile`] runs to make a
/// non-read-once composition's quorum sizes exact, in candidate unions
/// formed. Each union is also checked against the antichain it joins, so a
/// build spends at most about `budget²/2` subset tests there (tens of
/// milliseconds).
const SIZE_DP_BUDGET: usize = 1 << 14;

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
/// [`SystemSpec::build`] compiles a `Compose` spec into one post-order gate
/// tape, in place, with no other tree in between. Each gate records its kind
/// (constant, AND, OR, 2-of-3 or `k`-of-`m`, fixed from its threshold and
/// child count), its threshold, how many of its children are gates, and a
/// range of leaf element ids. Every evaluator is one iterative sweep over
/// the tape: a gate reads its leaves in place and its gate children off a
/// value stack whose height is fixed at compile time, so no evaluator
/// recurses on circuit depth.
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
/// use quorum_systems::{BuiltSystem, SystemSpec};
///
/// // 2-of-3 over {0,1,2}: the 3-majority as a one-gate composition.
/// let spec = SystemSpec::parse("2(0,1,2)").unwrap();
/// let Ok(BuiltSystem::Composition(maj)) = spec.build_concrete() else {
///     unreachable!("a gate over leaves builds a composition")
/// };
/// assert_eq!((maj.gate_count(), maj.leaf_count(), maj.depth()), (1, 3, 1));
/// assert!(maj.contains_quorum(&ElementSet::from_iter(3, [0, 2])));
/// assert!(!maj.contains_quorum(&ElementSet::from_iter(3, [1])));
/// assert_eq!(maj.min_quorum_size(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Composition {
    n: usize,
    /// The gates in post-order: every gate after its gate children, the
    /// root last.
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
    /// Number of threshold gates in the circuit.
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Number of leaves in the circuit (counting repeats).
    pub fn leaf_count(&self) -> usize {
        self.leaves.len()
    }

    /// Gate depth of the circuit (one for a single gate over leaves).
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

/// A gate whose children are being compiled.
struct Frame<'a> {
    threshold: usize,
    children: &'a [SystemSpec],
    /// Children visited so far.
    next: usize,
    /// Depth of the deepest gate child compiled so far.
    below: usize,
}

impl<'a> Frame<'a> {
    fn new(threshold: usize, children: &'a [SystemSpec]) -> Self {
        Frame {
            threshold,
            children,
            next: 0,
            below: 0,
        }
    }
}

/// Why a gate of `threshold` over `children` cannot be compiled, if it
/// cannot.
fn gate_fault(threshold: usize, children: &[SystemSpec]) -> Option<SpecErrorKind> {
    if children.is_empty() {
        Some(SpecErrorKind::EmptyChildren)
    } else if threshold > children.len() {
        Some(SpecErrorKind::ThresholdExceedsChildren {
            threshold,
            children: children.len(),
        })
    } else {
        None
    }
}

/// Compiles the `Compose` gate of `threshold` over `children`, found at
/// `path` in its spec, into the post-order gate tape over the largest leaf
/// plus one elements. Leaves must be below [`MAX_ELEMENTS`], the cap every
/// named family keeps. Both passes keep their own stack, so deep trees
/// compile without recursion.
///
/// The first pass validates every node in depth-first order, each gate
/// before its children, and counts the gates and leaves; a refused node's
/// error carries `path` and then the child indices down to the node. A
/// circuit past [`MAX_NODES`] is refused at `path` once the whole tree has
/// been checked. The second pass writes the tape into pre-sized arrays and,
/// as it emits each gate, runs the quorum-size DP and the repeated-leaf
/// check.
pub(crate) fn compile(
    threshold: usize,
    children: &[SystemSpec],
    path: &[usize],
) -> Result<Composition, SpecError> {
    if let Some(kind) = gate_fault(threshold, children) {
        return Err(SpecError::at(path, kind));
    }
    let (mut gate_count, mut leaf_count, mut max_leaf) = (1usize, 0usize, 0);
    // Each open gate's children, and how many of them have been visited.
    let mut open = vec![(children, 0usize)];
    while let Some(top) = open.last_mut() {
        let (siblings, index) = *top;
        let Some(node) = siblings.get(index) else {
            open.pop();
            continue;
        };
        top.1 += 1;
        let kind = match *node {
            SystemSpec::Leaf(element) if element >= MAX_ELEMENTS => {
                let err = QuorumError::ElementOutOfRange {
                    element,
                    universe: MAX_ELEMENTS,
                };
                SpecErrorKind::Invalid {
                    reason: err.to_string(),
                }
            }
            SystemSpec::Leaf(element) => {
                leaf_count += 1;
                max_leaf = max_leaf.max(element);
                continue;
            }
            SystemSpec::Compose {
                threshold,
                ref children,
            } => match gate_fault(threshold, children) {
                Some(kind) => kind,
                None => {
                    gate_count += 1;
                    open.push((children, 0));
                    continue;
                }
            },
            _ => SpecErrorKind::FamilyInsideCompose,
        };
        // `path`, then the last-visited child of every open gate: the path
        // to `node`.
        let below = open.iter().map(|&(_, visited)| visited - 1);
        let path = path.iter().copied().chain(below).collect();
        return Err(SpecError { path, kind });
    }
    if gate_count + leaf_count > MAX_NODES {
        let err = QuorumError::InvalidConstruction {
            reason: format!("composition exceeds {MAX_NODES} circuit nodes"),
        };
        return Err(SpecError::invalid(path, err));
    }
    let universe = max_leaf + 1;

    let mut circuit = Composition {
        n: universe,
        gates: Vec::with_capacity(gate_count),
        leaves: Vec::with_capacity(leaf_count),
        stack_height: 0,
        depth: 0,
        read_once: true,
        min_q: 0,
        max_q: 0,
        sizes_exact: false,
    };
    // A leaf repeats when its bit is already set in a bitset over the
    // universe, kept while the universe takes at most one word per leaf; a
    // universe far larger than the circuit sorts a copy of the leaves.
    let words = universe.div_ceil(64);
    let mut seen = (words <= leaf_count).then(|| vec![0u64; words]);
    // The (min, max) quorum sizes of compiled gates whose parent is still
    // open: the tape's value stack, so its peak is the stack height.
    let mut sizes: Vec<(usize, usize)> = Vec::new();
    let mut frames = vec![Frame::new(threshold, children)];
    while let Some(top) = frames.last_mut() {
        if let Some(child) = top.children.get(top.next) {
            top.next += 1;
            if let SystemSpec::Compose {
                threshold,
                children,
            } = child
            {
                frames.push(Frame::new(*threshold, children));
            }
            continue;
        }
        let done = frames.pop().expect("the loop holds a frame");
        // The `as u32` casts cannot truncate: leaves are below MAX_ELEMENTS
        // and counts below MAX_NODES.
        let leaf_start = circuit.leaves.len();
        for child in done.children {
            if let &SystemSpec::Leaf(e) = child {
                circuit.leaves.push(e as u32);
                if let Some(seen) = &mut seen {
                    let (word, bit) = (e / 64, 1u64 << (e % 64));
                    circuit.read_once &= seen[word] & bit == 0;
                    seen[word] |= bit;
                }
            }
        }
        let leaves = circuit.leaves.len() - leaf_start;
        let gates = done.children.len() - leaves;
        let base = sizes.len() - gates;
        let size = gate_sizes(&mut sizes[base..], leaves, done.threshold);
        sizes.truncate(base);
        sizes.push(size);
        circuit.stack_height = circuit.stack_height.max(sizes.len());
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
    if seen.is_none() {
        let mut sorted = circuit.leaves.clone();
        sorted.sort_unstable();
        circuit.read_once = sorted.windows(2).all(|pair| pair[0] != pair[1]);
    }
    (circuit.min_q, circuit.max_q) = sizes[0];
    circuit.sizes_exact = circuit.read_once;
    if !circuit.read_once && universe <= ENUM_LIMIT {
        if let Some(quorums) = circuit.minimal_antichain(SIZE_DP_BUDGET) {
            if let (Some(min), Some(max)) = (
                quorums.iter().map(ElementSet::len).min(),
                quorums.iter().map(ElementSet::len).max(),
            ) {
                circuit.min_q = min;
                circuit.max_q = max;
                circuit.sizes_exact = true;
            }
        }
    }
    Ok(circuit)
}

/// The disjoint-children DP at one gate of threshold `k`: min is the sum of
/// the `k` smallest child minima, max the sum of the `k` largest child
/// maxima. `gates` holds the (min, max) of the gate children and is
/// reordered; each of the `leaves` leaf children counts as (1, 1). A
/// constant-true gate (k = 0) sums nothing: the empty quorum.
fn gate_sizes(gates: &mut [(usize, usize)], leaves: usize, k: usize) -> (usize, usize) {
    gates.sort_unstable_by_key(|&(min, _)| min);
    let min = first_k_sum(gates.iter().map(|&(min, _)| min), leaves, k, |v| v <= 1);
    gates.sort_unstable_by_key(|&(_, max)| std::cmp::Reverse(max));
    let max = first_k_sum(gates.iter().map(|&(_, max)| max), leaves, k, |v| v >= 1);
    (min, max)
}

/// The sum of the first `k` values of `sorted` merged with `ones` values of
/// 1, where a sorted value `v` goes ahead of the ones while `ahead(v)`
/// holds (`ahead` flips once along `sorted`). Takes O(`sorted`) steps, not
/// O(`k`): a 256-leaf line gate sums its ones at once.
fn first_k_sum(
    sorted: impl Iterator<Item = usize>,
    mut ones: usize,
    mut k: usize,
    ahead: impl Fn(usize) -> bool,
) -> usize {
    let mut sum = 0;
    for v in sorted {
        if !ahead(v) {
            let taken = ones.min(k);
            (sum, k, ones) = (sum + taken, k - taken, 0);
        }
        if k == 0 {
            return sum;
        }
        sum += v;
        k -= 1;
    }
    // Only ones are left, and at least `k` of them: `k` is at most the
    // child count.
    sum + k
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BuiltSystem;
    use proptest::prelude::*;
    use quorum_core::lanes::LANE_WIDTHS;
    use quorum_core::{minimal_quorums, Coterie, ElementId};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The composition `spec` builds.
    fn built(spec: &SystemSpec) -> Composition {
        match spec.build_concrete() {
            Ok(BuiltSystem::Composition(circuit)) => circuit,
            other => panic!("{spec} built {other:?}"),
        }
    }

    /// The composition the text form `text` builds.
    fn parsed(text: &str) -> Composition {
        built(&SystemSpec::parse(text).unwrap())
    }

    fn maj3() -> Composition {
        parsed("2(0,1,2)")
    }

    /// The minimal quorums of `c` by the antichain DP, which must equal the
    /// branch-and-bound's.
    fn quorums_of(c: &Composition) -> Vec<ElementSet> {
        let dp = c
            .minimal_antichain(usize::MAX)
            .expect("an unbounded antichain DP finishes");
        assert_eq!(minimal_quorums(c).unwrap(), dp, "antichain DP vs search");
        dp
    }

    /// The 2×2 grid: (1-of-rows of all-of-row) AND (1-of-cols of
    /// all-of-col), every element in two leaves.
    const GRID_2X2: &str = "2(1(2(0,1),2(2,3)),1(2(0,2),2(1,3)))";

    /// Deterministic splitmix64 for test colorings.
    fn mix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// What `compile` refuses, at the gate's own path: an empty gate, a
    /// threshold past the child count, and a leaf at the element cap; the
    /// largest leaf below the cap builds a universe of exactly the cap.
    #[test]
    fn construction_validation() {
        let gate = |threshold, children| SystemSpec::Compose {
            threshold,
            children,
        };
        let refused = |spec: SystemSpec| spec.build_concrete().unwrap_err();
        let err = refused(gate(0, vec![]));
        assert_eq!((err.path, err.kind), (vec![], SpecErrorKind::EmptyChildren));
        let err = refused(gate(3, vec![SystemSpec::Leaf(0)]));
        let exceeds = SpecErrorKind::ThresholdExceedsChildren {
            threshold: 3,
            children: 1,
        };
        assert_eq!((err.path, err.kind), (vec![], exceeds));
        let err = refused(gate(
            1,
            vec![SystemSpec::Leaf(0), SystemSpec::Leaf(MAX_ELEMENTS)],
        ));
        let out_of_range = SpecErrorKind::Invalid {
            reason: format!(
                "element {MAX_ELEMENTS} out of range for universe of size {MAX_ELEMENTS}"
            ),
        };
        assert_eq!((err.path, err.kind), (vec![1], out_of_range));
        let widest = built(&gate(1, vec![SystemSpec::Leaf(MAX_ELEMENTS - 1)]));
        assert_eq!(widest.universe_size(), MAX_ELEMENTS);
    }

    #[test]
    fn repeated_leaves_are_found_in_dense_and_sparse_universes() {
        // A small universe takes the bitset, a far larger one (its largest
        // leaf 2²⁰ − 1) the sorted copy of the leaves.
        for far in ["7", "1048575"] {
            assert!(parsed(&format!("1(5,6,{far})")).is_read_once(), "{far}");
            assert!(!parsed(&format!("1(5,5,{far})")).is_read_once(), "{far}");
            assert!(
                !parsed(&format!("1({far},2(5,{far}))")).is_read_once(),
                "{far}"
            );
        }
    }

    #[test]
    fn size_refinement_stops_at_its_budget() {
        // 9-of-19 over 0..18 with element 0 twice: the exact antichain DP
        // forms ~8·10⁵ unions (seconds of work, ~11× more per two extra
        // elements); the budget stops it and keeps the DP bounds.
        let c = built(&SystemSpec::Compose {
            threshold: 9,
            children: (0..18).chain([0]).map(SystemSpec::Leaf).collect(),
        });
        assert!(!c.is_read_once());
        assert!(!c.quorum_sizes_exact());
        assert_eq!((c.min_quorum_size(), c.max_quorum_size()), (9, 9));
    }

    #[test]
    fn deep_chains_evaluate_without_recursion() {
        const DEPTH: usize = 50_000;
        // Building and dropping the nested spec recurses; give that thread
        // room. The compiled circuit is flat.
        let chain = std::thread::Builder::new()
            .stack_size(256 << 20)
            .spawn(|| {
                let mut spec = SystemSpec::Leaf(1);
                for _ in 0..DEPTH {
                    spec = SystemSpec::Compose {
                        threshold: 1,
                        children: vec![spec],
                    };
                }
                built(&spec)
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
        assert_eq!(c.name(), "Compose(n=3,gates=1,depth=1)");
        assert!(c.is_read_once());
        assert_eq!(c.min_quorum_size(), 2);
        assert_eq!(c.max_quorum_size(), 2);
        for mask in 0u64..8 {
            let set = ElementSet::from_mask(3, mask);
            assert_eq!(c.contains_quorum(&set), set.len() >= 2, "mask {mask}");
        }
        let quorums = quorums_of(&c);
        assert_eq!(quorums.len(), 3);
        assert!(quorums.iter().all(|q| q.len() == 2));
    }

    #[test]
    fn degenerate_threshold_zero_is_constant_true() {
        let c = parsed("0(0,1)");
        assert!(c.contains_quorum(&ElementSet::empty(2)));
        assert_eq!(c.min_quorum_size(), 0);
        assert_eq!(c.max_quorum_size(), 0);
        let quorums = quorums_of(&c);
        assert_eq!(quorums, vec![ElementSet::empty(2)]);
        // The empty quorum is not a valid coterie: typed error, no panic.
        assert_eq!(Coterie::new(2, quorums), Err(QuorumError::Empty));
    }

    #[test]
    fn degenerate_single_child_chain_acts_as_its_leaf() {
        let c = parsed("1(1(1))");
        assert_eq!((c.gate_count(), c.leaf_count(), c.depth()), (2, 1, 2));
        assert!(c.contains_quorum(&ElementSet::singleton(2, 1)));
        assert!(!c.contains_quorum(&ElementSet::singleton(2, 0)));
        assert_eq!(crate::lane_word(&c, &[1, 2]), 2);
        let quorums = quorums_of(&c);
        assert_eq!(quorums, vec![ElementSet::singleton(2, 1)]);
        assert_eq!(c.min_quorum_size(), 1);
        assert_eq!(c.max_quorum_size(), 1);
        let mut evaluator = c.delta_evaluator().unwrap();
        let green = Coloring::all_green(2);
        assert!(evaluator.reset(&green));
        let mut red = green.clone();
        red.set_color(1, quorum_core::Color::Red);
        assert!(!evaluator.update(&red, &green.diff(&red)));
    }

    #[test]
    fn duplicate_leaves_collapse_to_a_minimal_antichain() {
        // 2-of-2 over the same element: just {0}.
        let c = parsed("2(0,0)");
        assert!(!c.is_read_once());
        assert_eq!(quorums_of(&c), vec![ElementSet::singleton(1, 0)]);
        assert_eq!(c.min_quorum_size(), 1);
        assert_eq!(c.max_quorum_size(), 1);
        assert!(c.quorum_sizes_exact());

        // 1-of-2 over {0} and {0,1}: the branch needing both is dominated.
        let c = parsed("1(1(0),2(0,1))");
        assert_eq!(quorums_of(&c), vec![ElementSet::singleton(2, 0)]);
    }

    #[test]
    fn grid_like_duplicates_get_exact_sizes() {
        // A minimal quorum of the 2×2 grid is a row plus a column sharing
        // the crossing element.
        let c = parsed(GRID_2X2);
        assert!(!c.is_read_once());
        assert!(c.quorum_sizes_exact());
        assert_eq!(c.min_quorum_size(), 3);
        assert_eq!(c.max_quorum_size(), 3);
        let quorums = quorums_of(&c);
        assert_eq!(quorums.len(), 4);
        assert!(quorums.iter().all(|q| q.len() == 3));
        assert!(Coterie::new(4, quorums).is_ok());
    }

    #[test]
    fn nested_read_once_dp_is_exact() {
        // 2-of-3 over three disjoint 2-of-3 groups: min 4, max 4; n = 9.
        let c = parsed("2(2(0,1,2),2(3,4,5),2(6,7,8))");
        assert!(c.is_read_once());
        assert_eq!(c.min_quorum_size(), 4);
        assert_eq!(c.max_quorum_size(), 4);
        let quorums = quorums_of(&c);
        assert!(quorums.iter().all(|q| q.len() == 4));
        // 3 pairs of groups x 3 quorums each per group.
        assert_eq!(quorums.len(), 27);
    }

    #[test]
    fn lane_circuit_matches_scalar_on_random_colorings() {
        let c = parsed("2(2(0,1,2),2(3,4,5),2(6,7,8))");
        let n = c.universe_size();
        let lanes: Vec<u64> = (0..n).map(|e| mix(e as u64 + 17)).collect();
        let verdicts = crate::lane_word(&c, &lanes);
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
                assert_eq!(out[w], crate::lane_word(&c, &word), "word {w}");
            }
        }
        let mut out = vec![0u64; 3];
        assert!(!c.green_quorum_lane_block(&[0; 9], 3, &mut out));
    }

    #[test]
    fn delta_evaluator_matches_scratch_under_random_flips() {
        // Duplicate-leaf circuit to exercise multi-leaf propagation.
        let c = parsed(GRID_2X2);
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
        let coterie = Coterie::new(3, minimal_quorums(&c).unwrap()).unwrap();
        assert!(coterie.is_nondominated());
    }

    /// A random composition tree over `elements`, each appearing as at
    /// least one leaf: the slice is cut into 2–4 contiguous chunks,
    /// singleton chunks become leaves, larger chunks recurse. One gate in
    /// three also takes an extra leaf repeating an element of `0..n`, and
    /// the threshold is drawn from `1..=children`, or is 0 (constant true)
    /// one time in eight.
    fn random_compose(rng: &mut StdRng, elements: &[ElementId], n: usize) -> SystemSpec {
        let chunk_count = rng.gen_range(2..=elements.len().min(4));
        let mut cuts = vec![0, elements.len()];
        while cuts.len() < chunk_count + 1 {
            let cut = rng.gen_range(1..elements.len());
            if !cuts.contains(&cut) {
                cuts.push(cut);
            }
        }
        cuts.sort_unstable();
        let mut children: Vec<SystemSpec> = cuts
            .windows(2)
            .map(|w| {
                let chunk = &elements[w[0]..w[1]];
                if chunk.len() == 1 {
                    SystemSpec::Leaf(chunk[0])
                } else {
                    random_compose(rng, chunk, n)
                }
            })
            .collect();
        if rng.gen_range(0..3) == 0 {
            children.push(SystemSpec::Leaf(rng.gen_range(0..n)));
        }
        let threshold = if rng.gen_range(0..8) == 0 {
            0
        } else {
            rng.gen_range(1..=children.len())
        };
        SystemSpec::Compose {
            threshold,
            children,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// On random composition trees (repeated leaves and constant-true
        /// gates included) the antichain DP that `compile` runs lists the
        /// canonical minimal antichain: sorted by `(size, elements)`, no
        /// quorum dominated by another, and identical to the
        /// branch-and-bound's minimal quorums.
        #[test]
        fn random_trees_enumerate_the_minimal_antichain(seed in 0u64..10_000, n in 2usize..=12) {
            let mut rng = StdRng::seed_from_u64(seed);
            let elements: Vec<ElementId> = (0..n).collect();
            let c = built(&random_compose(&mut rng, &elements, n));
            let quorums = c.minimal_antichain(usize::MAX).expect("an unbounded antichain DP finishes");
            for (i, a) in quorums.iter().enumerate() {
                for (j, b) in quorums.iter().enumerate() {
                    if i != j {
                        prop_assert!(!a.is_subset(b), "dominated quorum survived the DP");
                    }
                }
            }
            let mut sorted = quorums.clone();
            sorted.sort_by_key(|s| (s.len(), s.to_vec()));
            prop_assert_eq!(&sorted, &quorums, "the DP's order is canonical");
            prop_assert_eq!(minimal_quorums(&c).unwrap(), quorums, "DP vs branch-and-bound");
        }
    }
}
