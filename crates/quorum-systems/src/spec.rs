//! The unified construction API: a serializable [`SystemSpec`] AST.
//!
//! Every family in the crate — and every recursive composition of threshold
//! gates over them — can be described as a [`SystemSpec`] value, validated
//! with tree-path-qualified errors ([`SpecError`]), round-tripped through a
//! compact text form ([`SystemSpec::parse`] / `Display`), and built into a
//! live system with [`SystemSpec::build`].  Registries, benches and
//! examples construct through specs instead of per-family constructor
//! plumbing, so experiment rows can name arbitrary compositions
//! deterministically.
//!
//! The text form: leaves are bare element indices, threshold gates are
//! `k(child,…)`, named families are `maj(n)`, `wheel(n)`, `triang(d)`,
//! `tree(h)`, `hqs(h)`, `grid(r,c)`, and an organization wrapper is
//! `orgs([members];[members];…;inner)`.

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use quorum_core::{DynQuorumSystem, ElementId, Organizations, QuorumError, QuorumSystem};

use crate::composition::compile;
use crate::{Composition, CrumblingWalls, Grid, Hqs, Majority, TreeQuorum, Wheel};

/// A declarative description of a quorum system: the paper's named families,
/// recursive threshold compositions (`Compose` over `Leaf`s), and an
/// organization wrapper attaching operator structure to an inner system.
///
/// Specs are plain data: build one programmatically, parse it from the
/// compact text form, validate it ([`SystemSpec::validate`]) and turn it
/// into a live [`DynQuorumSystem`] with [`SystemSpec::build`].
///
/// # Examples
///
/// ```
/// use quorum_core::{ElementSet, QuorumSystem};
/// use quorum_systems::SystemSpec;
///
/// // 2-of-3 over three 2-of-3 groups, written in the compact text form.
/// let spec = SystemSpec::parse("2(2(0,1,2),2(3,4,5),2(6,7,8))").unwrap();
/// assert_eq!(spec.to_string(), "2(2(0,1,2),2(3,4,5),2(6,7,8))");
///
/// let system = spec.build().unwrap();
/// assert_eq!(system.universe_size(), 9);
/// assert!(system.contains_quorum(&ElementSet::from_iter(9, [0, 1, 3, 4])));
/// assert!(!system.contains_quorum(&ElementSet::from_iter(9, [0, 3, 6])));
///
/// // Malformed specs are rejected with a path into the tree.
/// let err = SystemSpec::parse("1(1(0),maj(3))").unwrap_err();
/// assert_eq!(err.path, vec![1]); // maj(3) may not appear under a gate
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SystemSpec {
    /// One universe element — only valid inside a [`SystemSpec::Compose`].
    Leaf(ElementId),
    /// The majority system over an odd universe of `n ≥ 3` elements.
    Majority {
        /// Universe size.
        n: usize,
    },
    /// The wheel system over `n ≥ 3` elements.
    Wheel {
        /// Universe size.
        n: usize,
    },
    /// The Triang crumbling wall with rows `1, 2, …, d` (`d ≥ 2`).
    Triang {
        /// Number of rows.
        rows: usize,
    },
    /// The Agrawal–El Abbadi tree system of height `h ≥ 1`.
    Tree {
        /// Tree height.
        height: usize,
    },
    /// Kumar's hierarchical quorum system of height `h ≥ 1` (`3^h` leaves).
    Hqs {
        /// Ternary tree height.
        height: usize,
    },
    /// The Maekawa-style `rows × cols` grid.
    Grid {
        /// Number of rows.
        rows: usize,
        /// Number of columns.
        cols: usize,
    },
    /// A threshold gate: satisfied when at least `threshold` children are.
    /// Children must be [`SystemSpec::Leaf`] or nested
    /// [`SystemSpec::Compose`] gates; the universe is inferred as the
    /// largest leaf index plus one, and leaves must be below 2²⁶, the cap
    /// every named family keeps.
    Compose {
        /// How many children must be satisfied.
        threshold: usize,
        /// The child sub-specs.
        children: Vec<SystemSpec>,
    },
    /// Attaches organization (operator) structure to an inner system:
    /// `groups` lists the elements each organization owns. Building returns
    /// the inner system unchanged; the groups drive org-level failure
    /// models (see `SystemSpec::organizations`).
    Orgs {
        /// Disjoint member lists, one per organization.
        groups: Vec<Vec<ElementId>>,
        /// The quorum system the organizations operate.
        inner: Box<SystemSpec>,
    },
}

/// What went wrong inside a [`SystemSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SpecErrorKind {
    /// A bare leaf appeared outside a `Compose` gate.
    LeafOutsideCompose,
    /// A named family appeared as the child of a `Compose` gate.
    FamilyInsideCompose,
    /// A `Compose` gate has no children.
    EmptyChildren,
    /// A `Compose` gate's threshold exceeds its child count.
    ThresholdExceedsChildren {
        /// The offending threshold.
        threshold: usize,
        /// How many children the gate has.
        children: usize,
    },
    /// Family or organization parameters were rejected by the underlying
    /// constructor; the message is the constructor's.
    Invalid {
        /// The constructor's error message.
        reason: String,
    },
    /// The text form failed to parse.
    Parse {
        /// Byte offset of the failure in the input.
        offset: usize,
        /// What the parser expected.
        reason: String,
    },
}

/// A validation or parse error, qualified with the path of child indices
/// leading to the offending subtree (empty for the root).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// Child indices from the root to the offending node (`Orgs` counts its
    /// inner spec as child 0).
    pub path: Vec<usize>,
    /// What went wrong there.
    pub kind: SpecErrorKind,
}

impl SpecError {
    pub(crate) fn at(path: &[usize], kind: SpecErrorKind) -> Self {
        SpecError {
            path: path.to_vec(),
            kind,
        }
    }

    pub(crate) fn invalid(path: &[usize], err: QuorumError) -> Self {
        Self::at(
            path,
            SpecErrorKind::Invalid {
                reason: err.to_string(),
            },
        )
    }

    fn parse(offset: usize, reason: impl Into<String>) -> Self {
        SpecError {
            path: Vec::new(),
            kind: SpecErrorKind::Parse {
                offset,
                reason: reason.into(),
            },
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let SpecErrorKind::Parse { offset, reason } = &self.kind {
            return write!(f, "parse error at byte {offset}: {reason}");
        }
        if self.path.is_empty() {
            write!(f, "at root: ")?;
        } else {
            write!(f, "at child ")?;
            for (i, step) in self.path.iter().enumerate() {
                if i > 0 {
                    write!(f, ".")?;
                }
                write!(f, "{step}")?;
            }
            write!(f, ": ")?;
        }
        match &self.kind {
            SpecErrorKind::LeafOutsideCompose => {
                write!(f, "a bare leaf is only valid inside a compose gate")
            }
            SpecErrorKind::FamilyInsideCompose => {
                write!(f, "compose children must be leaves or compose gates")
            }
            SpecErrorKind::EmptyChildren => write!(f, "compose gate has no children"),
            SpecErrorKind::ThresholdExceedsChildren {
                threshold,
                children,
            } => write!(
                f,
                "threshold {threshold} exceeds the gate's {children} children"
            ),
            SpecErrorKind::Invalid { reason } => write!(f, "{reason}"),
            SpecErrorKind::Parse { .. } => unreachable!("handled above"),
        }
    }
}

impl std::error::Error for SpecError {}

/// A concretely-typed system built from a [`SystemSpec`], before type
/// erasure.
///
/// Callers that need the concrete family (e.g. to pair typed probe
/// strategies via downcasting) match on this; everyone else goes through
/// [`BuiltSystem::into_dyn`] or [`SystemSpec::build`] directly. The enum is
/// deliberately exhaustive: adapters that re-erase each variant at its
/// concrete type (preserving downcastability) must be forced to handle any
/// family added later.
#[derive(Debug, Clone)]
pub enum BuiltSystem {
    /// A [`Majority`] system.
    Majority(Majority),
    /// A [`Wheel`] system.
    Wheel(Wheel),
    /// A [`CrumblingWalls`] system (Triang).
    Walls(CrumblingWalls),
    /// A [`TreeQuorum`] system.
    Tree(TreeQuorum),
    /// An [`Hqs`] system.
    Hqs(Hqs),
    /// A [`Grid`] system.
    Grid(Grid),
    /// A recursive [`Composition`].
    Composition(Composition),
}

impl BuiltSystem {
    /// Erases the concrete family into a shared [`DynQuorumSystem`],
    /// keeping the concrete type inside the `Arc` so downcasts still work.
    pub fn into_dyn(self) -> DynQuorumSystem {
        match self {
            BuiltSystem::Majority(s) => Arc::new(s),
            BuiltSystem::Wheel(s) => Arc::new(s),
            BuiltSystem::Walls(s) => Arc::new(s),
            BuiltSystem::Tree(s) => Arc::new(s),
            BuiltSystem::Hqs(s) => Arc::new(s),
            BuiltSystem::Grid(s) => Arc::new(s),
            BuiltSystem::Composition(s) => Arc::new(s),
        }
    }

    /// Universe size of the built system.
    pub fn universe_size(&self) -> usize {
        match self {
            BuiltSystem::Majority(s) => s.universe_size(),
            BuiltSystem::Wheel(s) => s.universe_size(),
            BuiltSystem::Walls(s) => s.universe_size(),
            BuiltSystem::Tree(s) => s.universe_size(),
            BuiltSystem::Hqs(s) => s.universe_size(),
            BuiltSystem::Grid(s) => s.universe_size(),
            BuiltSystem::Composition(s) => s.universe_size(),
        }
    }
}

impl SystemSpec {
    /// Parses the compact text form **and validates** the result, so a
    /// returned spec always builds.
    ///
    /// Parse failures carry a byte offset; structural failures carry the
    /// path of child indices to the offending subtree.
    ///
    /// # Errors
    ///
    /// [`SpecError`] with [`SpecErrorKind::Parse`] on malformed text, or
    /// any validation error of [`SystemSpec::validate`].
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        let spec: SystemSpec = text.parse()?;
        spec.validate()?;
        Ok(spec)
    }

    /// Validates the spec without building it (same checks as
    /// [`SystemSpec::build`]).
    ///
    /// # Errors
    ///
    /// A path-qualified [`SpecError`] for the first offending subtree.
    pub fn validate(&self) -> Result<(), SpecError> {
        self.build_concrete().map(drop)
    }

    /// Builds the spec into a shared, type-erased [`DynQuorumSystem`].
    ///
    /// # Errors
    ///
    /// A path-qualified [`SpecError`] when the spec is structurally invalid
    /// or a family constructor rejects its parameters.
    pub fn build(&self) -> Result<DynQuorumSystem, SpecError> {
        self.build_concrete().map(BuiltSystem::into_dyn)
    }

    /// Builds the spec keeping the concrete family type (see
    /// [`BuiltSystem`]).
    ///
    /// # Errors
    ///
    /// A path-qualified [`SpecError`], as for [`SystemSpec::build`].
    pub fn build_concrete(&self) -> Result<BuiltSystem, SpecError> {
        let mut path = Vec::new();
        self.build_at(&mut path)
    }

    /// The organization structure attached at the top of the spec, if any,
    /// validated against the inner system's universe.
    ///
    /// # Errors
    ///
    /// A path-qualified [`SpecError`] when the spec itself is invalid or
    /// the groups overlap / fall outside the inner universe.
    pub fn organizations(&self) -> Result<Option<Organizations>, SpecError> {
        match self {
            SystemSpec::Orgs { groups, inner } => {
                let universe = {
                    let mut path = vec![0];
                    inner.build_at(&mut path)?.universe_size()
                };
                Organizations::new(universe, groups.clone())
                    .map(Some)
                    .map_err(|e| SpecError::invalid(&[], e))
            }
            _ => Ok(None),
        }
    }

    /// The organization member lists named by a top-level
    /// [`SystemSpec::Orgs`] wrapper, unvalidated.
    pub fn org_groups(&self) -> Option<&[Vec<ElementId>]> {
        match self {
            SystemSpec::Orgs { groups, .. } => Some(groups),
            _ => None,
        }
    }

    fn build_at(&self, path: &mut Vec<usize>) -> Result<BuiltSystem, SpecError> {
        match self {
            SystemSpec::Leaf(_) => Err(SpecError::at(path, SpecErrorKind::LeafOutsideCompose)),
            SystemSpec::Majority { n } => Majority::new(*n)
                .map(BuiltSystem::Majority)
                .map_err(|e| SpecError::invalid(path, e)),
            SystemSpec::Wheel { n } => Wheel::new(*n)
                .map(BuiltSystem::Wheel)
                .map_err(|e| SpecError::invalid(path, e)),
            SystemSpec::Triang { rows } => CrumblingWalls::triang(*rows)
                .map(BuiltSystem::Walls)
                .map_err(|e| SpecError::invalid(path, e)),
            SystemSpec::Tree { height } => TreeQuorum::new(*height)
                .map(BuiltSystem::Tree)
                .map_err(|e| SpecError::invalid(path, e)),
            SystemSpec::Hqs { height } => Hqs::new(*height)
                .map(BuiltSystem::Hqs)
                .map_err(|e| SpecError::invalid(path, e)),
            SystemSpec::Grid { rows, cols } => Grid::new(*rows, *cols)
                .map(BuiltSystem::Grid)
                .map_err(|e| SpecError::invalid(path, e)),
            SystemSpec::Compose {
                threshold,
                children,
            } => compile(*threshold, children, path).map(BuiltSystem::Composition),
            SystemSpec::Orgs { groups, inner } => {
                path.push(0);
                let built = inner.build_at(path)?;
                path.pop();
                Organizations::validate(built.universe_size(), groups)
                    .map_err(|e| SpecError::invalid(path, e))?;
                Ok(built)
            }
        }
    }

    /// The `Compose` spec equivalent to [`Majority`] over `n` elements: one
    /// `⌈(n+1)/2⌉`-of-`n` gate.
    pub fn majority_as_compose(n: usize) -> SystemSpec {
        SystemSpec::Compose {
            threshold: n.div_ceil(2),
            children: (0..n).map(SystemSpec::Leaf).collect(),
        }
    }

    /// The `Compose` spec equivalent to [`TreeQuorum`] of height `h`: each
    /// internal node `v` becomes 2-of-3 over `{v, left quorum, right
    /// quorum}` — the tree recursion `(v ∧ (L ∨ R)) ∨ (L ∧ R)` is exactly a
    /// 2-of-3 majority of `{v, L, R}`.
    pub fn tree_as_compose(height: usize) -> SystemSpec {
        let n = (1usize << (height + 1)) - 1;
        fn sub(v: usize, n: usize) -> SystemSpec {
            if 2 * v + 1 >= n {
                return SystemSpec::Leaf(v);
            }
            SystemSpec::Compose {
                threshold: 2,
                children: vec![SystemSpec::Leaf(v), sub(2 * v + 1, n), sub(2 * v + 2, n)],
            }
        }
        sub(0, n)
    }

    /// The `Compose` spec equivalent to [`Hqs`] of height `h`: the complete
    /// ternary tree of 2-of-3 gates over leaves `0 … 3^h − 1` in
    /// left-to-right order.
    pub fn hqs_as_compose(height: usize) -> SystemSpec {
        fn sub(base: usize, span: usize) -> SystemSpec {
            if span == 1 {
                return SystemSpec::Leaf(base);
            }
            let third = span / 3;
            SystemSpec::Compose {
                threshold: 2,
                children: (0..3).map(|i| sub(base + i * third, third)).collect(),
            }
        }
        sub(0, 3usize.pow(height as u32))
    }

    /// The `Compose` spec equivalent to [`Grid`]: 2-of-2 over "some full
    /// row" and "some full column" (each a 1-of-many over all-of-line
    /// gates). Every element appears in two leaves — a genuinely
    /// non-read-once composition.
    pub fn grid_as_compose(rows: usize, cols: usize) -> SystemSpec {
        let line = |elements: Vec<usize>| SystemSpec::Compose {
            threshold: elements.len(),
            children: elements.into_iter().map(SystemSpec::Leaf).collect(),
        };
        let row_side = SystemSpec::Compose {
            threshold: 1,
            children: (0..rows)
                .map(|r| line((0..cols).map(|c| r * cols + c).collect()))
                .collect(),
        };
        let col_side = SystemSpec::Compose {
            threshold: 1,
            children: (0..cols)
                .map(|c| line((0..rows).map(|r| r * cols + c).collect()))
                .collect(),
        };
        SystemSpec::Compose {
            threshold: 2,
            children: vec![row_side, col_side],
        }
    }

    /// Majority-of-organization-majorities: `group_count` contiguous
    /// organizations of `group_size` elements each, a majority gate within
    /// every organization and a majority gate across them, wrapped in the
    /// matching [`SystemSpec::Orgs`] structure. With odd parameters the
    /// composition is self-dual (a nondominated coterie), the FBAS-flavored
    /// member of [`SystemSpec::FAMILIES`].
    pub fn org_majority(group_count: usize, group_size: usize) -> SystemSpec {
        let inner = SystemSpec::Compose {
            threshold: group_count.div_ceil(2),
            children: (0..group_count)
                .map(|g| SystemSpec::Compose {
                    threshold: group_size.div_ceil(2),
                    children: (g * group_size..(g + 1) * group_size)
                        .map(SystemSpec::Leaf)
                        .collect(),
                })
                .collect(),
        };
        let groups = (0..group_count)
            .map(|g| (g * group_size..(g + 1) * group_size).collect())
            .collect();
        SystemSpec::Orgs {
            groups,
            inner: Box::new(inner),
        }
    }

    /// The [`SystemSpec::org_majority`] sized from a hint: `g` the largest
    /// odd number at most `√max(hint, 9)` (at least 3), `m` the smallest
    /// odd number with `g·m ≥ hint` — universe `g·m`, close to the hint
    /// from above.
    pub fn org_majority_with_size_hint(size_hint: usize) -> SystemSpec {
        let target = size_hint.max(9);
        let mut g = (target as f64).sqrt().floor() as usize;
        if g % 2 == 0 {
            g -= 1;
        }
        let g = g.max(3);
        let mut m = target.div_ceil(g);
        if m % 2 == 0 {
            m += 1;
        }
        SystemSpec::org_majority(g, m.max(3))
    }

    /// The names [`SystemSpec::family_with_size_hint`] resolves, in table
    /// order: the families the paper studies (Maj, Wheel, Triang, Tree,
    /// HQS), the Grid baseline and the Compose family (an
    /// organization-aligned majority-of-majorities,
    /// [`SystemSpec::org_majority_with_size_hint`]). Every sweep over the
    /// families, the system registry included, reads this list.
    pub const FAMILIES: [&'static str; 7] =
        ["Maj", "Wheel", "Triang", "Tree", "HQS", "Grid", "Compose"];

    /// The spec of the family named `family` (one of
    /// [`SystemSpec::FAMILIES`]) at a size hint, mirroring each family's
    /// `with_size_hint` rounding. Returns `None` for unknown family names.
    pub fn family_with_size_hint(family: &str, size_hint: usize) -> Option<SystemSpec> {
        Some(match family {
            "Maj" => SystemSpec::Majority {
                n: Majority::with_size_hint(size_hint).universe_size(),
            },
            "Wheel" => SystemSpec::Wheel {
                n: Wheel::with_size_hint(size_hint).universe_size(),
            },
            "Triang" => SystemSpec::Triang {
                rows: CrumblingWalls::triang_with_size_hint(size_hint).row_count(),
            },
            "Tree" => SystemSpec::Tree {
                height: TreeQuorum::with_size_hint(size_hint).height(),
            },
            "HQS" => SystemSpec::Hqs {
                height: Hqs::with_size_hint(size_hint).height(),
            },
            "Grid" => {
                let grid = Grid::with_size_hint(size_hint);
                SystemSpec::Grid {
                    rows: grid.rows(),
                    cols: grid.cols(),
                }
            }
            "Compose" => SystemSpec::org_majority_with_size_hint(size_hint),
            _ => return None,
        })
    }
}

impl fmt::Display for SystemSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemSpec::Leaf(e) => write!(f, "{e}"),
            SystemSpec::Majority { n } => write!(f, "maj({n})"),
            SystemSpec::Wheel { n } => write!(f, "wheel({n})"),
            SystemSpec::Triang { rows } => write!(f, "triang({rows})"),
            SystemSpec::Tree { height } => write!(f, "tree({height})"),
            SystemSpec::Hqs { height } => write!(f, "hqs({height})"),
            SystemSpec::Grid { rows, cols } => write!(f, "grid({rows},{cols})"),
            SystemSpec::Compose {
                threshold,
                children,
            } => {
                write!(f, "{threshold}(")?;
                for (i, child) in children.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{child}")?;
                }
                write!(f, ")")
            }
            SystemSpec::Orgs { groups, inner } => {
                write!(f, "orgs(")?;
                for group in groups {
                    write!(f, "[")?;
                    for (i, e) in group.iter().enumerate() {
                        if i > 0 {
                            write!(f, ",")?;
                        }
                        write!(f, "{e}")?;
                    }
                    write!(f, "];")?;
                }
                write!(f, "{inner})")
            }
        }
    }
}

impl FromStr for SystemSpec {
    type Err = SpecError;

    /// Parses the compact text form without validating (use
    /// [`SystemSpec::parse`] for parse + validate).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parser = Parser {
            bytes: s.as_bytes(),
            pos: 0,
            depth: 0,
        };
        let spec = parser.spec()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(SpecError::parse(parser.pos, "trailing input"));
        }
        Ok(spec)
    }
}

/// How deep gates and `orgs(...)` wrappers may nest in the text form. The
/// parser recurses once per level, and so do a spec's `Drop`, `Clone`,
/// `Display` and equality, and `build` through `orgs(...)` wrappers; at this
/// depth they fit a 2 MiB thread stack with room to spare, even in an
/// unoptimised build. Lowering the gates to the gate tape keeps its own
/// stacks, so it does not bound the depth.
const MAX_NESTING: usize = 256;

/// Hand-rolled recursive-descent parser for the compact text form.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Gates and `orgs(...)` wrappers open at `pos`.
    depth: usize,
}

impl Parser<'_> {
    /// Opens one more level of nesting at `pos`, or fails past
    /// [`MAX_NESTING`]; the caller closes it with `depth -= 1`.
    fn descend(&mut self) -> Result<(), SpecError> {
        if self.depth == MAX_NESTING {
            return Err(SpecError::parse(
                self.pos,
                format!("nesting deeper than {MAX_NESTING} levels"),
            ));
        }
        self.depth += 1;
        Ok(())
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), SpecError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(SpecError::parse(
                self.pos,
                format!("expected '{}'", byte as char),
            ))
        }
    }

    fn number(&mut self) -> Result<usize, SpecError> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_digit() {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(SpecError::parse(start, "expected a number"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("digits are ascii")
            .parse()
            .map_err(|_| SpecError::parse(start, "number out of range"))
    }

    fn ident(&mut self) -> String {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_lowercase() {
            self.pos += 1;
        }
        String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned()
    }

    fn spec(&mut self) -> Result<SystemSpec, SpecError> {
        match self.peek() {
            Some(b) if b.is_ascii_digit() => {
                let value = self.number()?;
                if self.peek() == Some(b'(') {
                    self.descend()?;
                    self.pos += 1;
                    let mut children = vec![self.spec()?];
                    while self.peek() == Some(b',') {
                        self.pos += 1;
                        children.push(self.spec()?);
                    }
                    self.expect(b')')?;
                    self.depth -= 1;
                    Ok(SystemSpec::Compose {
                        threshold: value,
                        children,
                    })
                } else {
                    Ok(SystemSpec::Leaf(value))
                }
            }
            Some(b) if b.is_ascii_lowercase() => {
                let start = self.pos;
                let name = self.ident();
                if name == "orgs" {
                    return self.orgs();
                }
                self.expect(b'(')?;
                let first = self.number()?;
                let spec = match name.as_str() {
                    "maj" => SystemSpec::Majority { n: first },
                    "wheel" => SystemSpec::Wheel { n: first },
                    "triang" => SystemSpec::Triang { rows: first },
                    "tree" => SystemSpec::Tree { height: first },
                    "hqs" => SystemSpec::Hqs { height: first },
                    "grid" => {
                        self.expect(b',')?;
                        let cols = self.number()?;
                        SystemSpec::Grid { rows: first, cols }
                    }
                    _ => return Err(SpecError::parse(start, format!("unknown family '{name}'"))),
                };
                self.expect(b')')?;
                Ok(spec)
            }
            _ => Err(SpecError::parse(
                self.pos,
                "expected a leaf, gate, family or orgs(...)",
            )),
        }
    }

    fn orgs(&mut self) -> Result<SystemSpec, SpecError> {
        self.descend()?;
        self.expect(b'(')?;
        let mut groups = Vec::new();
        while self.peek() == Some(b'[') {
            self.pos += 1;
            let mut group = vec![self.number()?];
            while self.peek() == Some(b',') {
                self.pos += 1;
                group.push(self.number()?);
            }
            self.expect(b']')?;
            self.expect(b';')?;
            groups.push(group);
        }
        if groups.is_empty() {
            return Err(SpecError::parse(
                self.pos,
                "orgs needs at least one [group];",
            ));
        }
        let inner = Box::new(self.spec()?);
        self.expect(b')')?;
        self.depth -= 1;
        Ok(SystemSpec::Orgs { groups, inner })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MAX_ELEMENTS;
    use proptest::prelude::*;
    use quorum_core::{Coloring, ElementSet};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn round_trip(spec: &SystemSpec) {
        let text = spec.to_string();
        let back: SystemSpec = text.parse().unwrap_or_else(|e| panic!("{text}: {e}"));
        assert_eq!(&back, spec, "{text}");
    }

    #[test]
    fn text_form_round_trips() {
        round_trip(&SystemSpec::Majority { n: 7 });
        round_trip(&SystemSpec::Wheel { n: 9 });
        round_trip(&SystemSpec::Triang { rows: 4 });
        round_trip(&SystemSpec::Tree { height: 3 });
        round_trip(&SystemSpec::Hqs { height: 2 });
        round_trip(&SystemSpec::Grid { rows: 3, cols: 5 });
        round_trip(&SystemSpec::majority_as_compose(5));
        round_trip(&SystemSpec::tree_as_compose(3));
        round_trip(&SystemSpec::grid_as_compose(3, 4));
        round_trip(&SystemSpec::org_majority(3, 5));
        round_trip(&SystemSpec::org_majority_with_size_hint(40));
    }

    /// Hostile sizes in the text form come back as typed errors, never as
    /// an abort, a wrapped universe or a hang: parsing validates by
    /// building, and the builders check the element cap first.
    #[test]
    fn parse_rejects_universes_past_the_element_cap() {
        for ok in [
            "maj(67108863)",
            "wheel(67108864)",
            "triang(11584)",
            "grid(8192,8192)",
        ] {
            assert!(SystemSpec::parse(ok).is_ok(), "{ok}");
        }
        for bad in [
            "maj(67108865)",
            "maj(18446744073709551615)",
            "wheel(67108865)",
            "wheel(18446744073709551615)",
            "triang(11585)",
            "triang(1000000000000)",
            "triang(18446744073709551615)",
            "grid(8193,8192)",
            "grid(3,6148914691236517206)",
            "grid(4294967296,4294967296)",
        ] {
            let err = SystemSpec::parse(bad).unwrap_err();
            match &err.kind {
                SpecErrorKind::Invalid { reason } => {
                    assert!(reason.contains("exceeds the limit"), "{bad}: {reason}")
                }
                other => panic!("{bad}: unexpected {other:?}"),
            }
        }
    }

    /// A `Compose` leaf is held to the same 2²⁶ cap: a composition's
    /// evaluators size tables by its universe (the delta evaluator's element
    /// → gate offsets among them), so a leaf near 2³² would have
    /// `delta_evaluator_for` ask for 16 GB.
    #[test]
    fn compose_leaves_are_held_to_the_element_cap() {
        let err = SystemSpec::parse("1(0, 4000000000)").unwrap_err();
        assert_eq!(err.path, vec![1]);
        assert!(matches!(err.kind, SpecErrorKind::Invalid { .. }), "{err:?}");
        let widest = SystemSpec::parse("1(67108863)").unwrap().build().unwrap();
        assert_eq!(widest.universe_size(), 1 << 26);
        let err = SystemSpec::parse("1(67108864)").unwrap_err();
        assert_eq!(err.path, vec![0]);
        assert!(matches!(err.kind, SpecErrorKind::Invalid { .. }), "{err:?}");
    }

    /// An `orgs(...)` wrapper's owner table costs 4 bytes per element, so
    /// its inner universe is held to the family cap: a composition's leaves
    /// are, so a leaf past it is refused at its own path, inside the
    /// wrapper, by both sites that build the table (`build` and
    /// `organizations`) before either allocates.
    #[test]
    fn org_universes_past_the_element_cap_are_refused() {
        let wrapped = |leaf: usize| SystemSpec::Orgs {
            groups: vec![vec![0]],
            inner: Box::new(SystemSpec::Compose {
                threshold: 1,
                children: vec![SystemSpec::Leaf(leaf)],
            }),
        };
        let refused = |err: Option<SpecError>| {
            let err = err.expect("an org universe past the cap is refused");
            let SpecErrorKind::Invalid { reason } = &err.kind else {
                panic!("{err:?}")
            };
            assert!(
                err.path == [0, 0] && reason.ends_with(&format!("universe of size {MAX_ELEMENTS}")),
                "{err:?}"
            );
        };
        for text in [
            "orgs([0];1(4294967295))".to_string(),
            "orgs([0];1(2147483648))".to_string(),
            format!("orgs([0];1({MAX_ELEMENTS}))"),
        ] {
            refused(SystemSpec::parse(&text).err());
        }
        for leaf in [MAX_ELEMENTS, 1 << 31, (1 << 32) - 1] {
            refused(wrapped(leaf).build().err());
            refused(wrapped(leaf).organizations().err());
        }
        // The cap itself builds, with its organizations.
        let at_cap = wrapped(MAX_ELEMENTS - 1);
        assert_eq!(at_cap.build().unwrap().universe_size(), MAX_ELEMENTS);
        let orgs = at_cap.organizations().unwrap().unwrap();
        assert_eq!(orgs.universe_size(), MAX_ELEMENTS);
        assert_eq!(orgs.group_count(), 1);
    }

    /// Numbers a fuzzed spec draws: small values that make valid specs (the
    /// first eight), both sides of the element cap, the `u32` edge, and
    /// values at and past `u64`.
    const FUZZ_NUMBERS: [&str; 13] = [
        "0",
        "1",
        "2",
        "3",
        "4",
        "5",
        "7",
        "9",
        "67108863",
        "67108864",
        "4294967295",
        "18446744073709551615",
        "100000000000000000000",
    ];

    fn fuzz_number(rng: &mut StdRng) -> &'static str {
        FUZZ_NUMBERS[rng.gen_range(0..FUZZ_NUMBERS.len())]
    }

    /// A spec drawn from the grammar: families with boundary sizes, gates
    /// with thresholds from 0 to k + 1, bare leaves and `orgs` wrappers
    /// with random groups.
    fn grammar_spec(rng: &mut StdRng, depth: usize) -> String {
        match rng.gen_range(0..if depth == 0 { 3u32 } else { 6 }) {
            0 => {
                let family = ["maj", "wheel", "triang", "tree", "hqs"][rng.gen_range(0..5usize)];
                format!("{family}({})", fuzz_number(rng))
            }
            1 => format!("grid({},{})", fuzz_number(rng), fuzz_number(rng)),
            2 => fuzz_number(rng).to_string(),
            3 | 4 => gate_spec(rng, depth),
            _ => {
                let mut text = String::from("orgs(");
                for _ in 0..rng.gen_range(1..=3usize) {
                    // Mostly small members, so that some groups are valid.
                    let members: Vec<&str> = (0..rng.gen_range(1..=3usize))
                        .map(|_| match rng.gen_range(0..4u32) {
                            0 => fuzz_number(rng),
                            _ => FUZZ_NUMBERS[rng.gen_range(0..8usize)],
                        })
                        .collect();
                    text.push_str(&format!("[{}];", members.join(",")));
                }
                text.push_str(&grammar_spec(rng, depth - 1));
                text.push(')');
                text
            }
        }
    }

    /// A threshold gate over mostly leaves and nested gates; now and then a
    /// child is any spec, which a gate refuses unless it is a leaf or gate.
    fn gate_spec(rng: &mut StdRng, depth: usize) -> String {
        let k = rng.gen_range(1..=4usize);
        let children: Vec<String> = (0..k)
            .map(|_| match rng.gen_range(0..10u32) {
                0..=6 => fuzz_number(rng).to_string(),
                7 | 8 if depth > 1 => gate_spec(rng, depth - 1),
                _ => grammar_spec(rng, depth - 1),
            })
            .collect();
        format!("{}({})", rng.gen_range(0..=k + 1), children.join(","))
    }

    /// A random run of the grammar's tokens, mostly malformed.
    fn token_soup(rng: &mut StdRng) -> String {
        const TOKENS: [&str; 17] = [
            "maj", "wheel", "triang", "tree", "hqs", "grid", "orgs", "frob", "(", ")", "[", "]",
            ";", ",", " ", "1(", "2(",
        ];
        (0..rng.gen_range(0..24usize))
            .map(|_| match rng.gen_range(0..4u32) {
                0 => fuzz_number(rng),
                _ => TOKENS[rng.gen_range(0..TOKENS.len())],
            })
            .collect()
    }

    /// Parses, builds and reads the organizations of `text`, valid or not:
    /// each step returns (typed errors included) without a panic or an
    /// abort, `build` and `organizations` agree with `parse`, and a small
    /// built system evaluates.
    fn exercise(text: &str) {
        let Ok(spec) = text.parse::<SystemSpec>() else {
            return;
        };
        let valid = SystemSpec::parse(text).is_ok();
        let built = spec.build();
        assert_eq!(built.is_ok(), valid, "{text}");
        let organizations = spec.organizations();
        assert!(organizations.is_ok() || !valid, "{text}");
        if let Ok(system) = built {
            let n = system.universe_size();
            if n <= 1 << 12 {
                system.has_green_quorum(&Coloring::all_green(n));
                system.has_green_quorum(&Coloring::all_red(n));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10_000))]

        /// Hostile text never panics or aborts `parse`, `build` or
        /// `organizations`: grammar-shaped specs at boundary sizes, and
        /// token soups.
        #[test]
        fn parse_build_and_organizations_never_panic(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            exercise(&grammar_spec(&mut rng, 3));
            exercise(&token_soup(&mut rng));
        }
    }

    #[test]
    fn parse_accepts_whitespace_and_rejects_junk() {
        let spec = SystemSpec::parse(" 2( 0 , 1 , 2 ) ").unwrap();
        assert_eq!(spec, SystemSpec::majority_as_compose(3));
        for bad in [
            "",
            "2(",
            "2(0,1",
            "2(0,1))",
            "maj(4,5)",
            "frob(3)",
            "orgs(1)",
            "orgs([0,1];)",
            "grid(3)",
            "2(0,)",
        ] {
            let err = bad.parse::<SystemSpec>().unwrap_err();
            assert!(
                matches!(err.kind, SpecErrorKind::Parse { .. }),
                "{bad:?} gave {err:?}"
            );
        }
    }

    #[test]
    fn nesting_is_bounded_and_the_bound_fits_a_small_stack() {
        // Run where the default thread stack is small: unbounded, the text
        // parser overflowed a 2 MiB stack at 10 000 levels.
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let chain = |gates: usize| "1(".repeat(gates) + "0" + &")".repeat(gates);
                let spec = SystemSpec::parse(&chain(MAX_NESTING)).unwrap();
                let built = spec.build().unwrap();
                assert_eq!(built.universe_size(), 1);
                assert!(built.contains_quorum(&ElementSet::singleton(1, 0)));
                drop(spec);
                let deeper = SystemSpec::parse(&chain(MAX_NESTING + 1)).unwrap_err();
                assert_eq!(
                    deeper.kind,
                    SpecErrorKind::Parse {
                        offset: 2 * MAX_NESTING + 1,
                        reason: format!("nesting deeper than {MAX_NESTING} levels"),
                    }
                );
                // `orgs(...)` wrappers count as levels too.
                let orgs = SystemSpec::parse(&"orgs([0];".repeat(MAX_NESTING + 1)).unwrap_err();
                assert!(
                    matches!(orgs.kind, SpecErrorKind::Parse { offset, .. } if offset == 9 * MAX_NESTING + 4),
                    "{orgs:?}"
                );
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn validation_errors_carry_paths() {
        // A named family nested under a gate.
        let err = SystemSpec::parse("1(1(0),maj(3))").unwrap_err();
        assert_eq!(err.path, vec![1]);
        assert_eq!(err.kind, SpecErrorKind::FamilyInsideCompose);

        // Threshold exceeding children, nested two levels down.
        let err = SystemSpec::parse("1(1(0),1(3(1,2)))").unwrap_err();
        assert_eq!(err.path, vec![1, 0]);
        assert_eq!(
            err.kind,
            SpecErrorKind::ThresholdExceedsChildren {
                threshold: 3,
                children: 2
            }
        );

        // Leaves at or past the 2²⁶ element cap, up to ones whose inferred
        // universe would overflow.
        for text in [
            "1(18446744073709551615)",
            "1(4294967296)",
            "1(4294967295)",
            "1(67108864)",
        ] {
            let err = SystemSpec::parse(text).unwrap_err();
            assert_eq!(err.path, vec![0], "{text}");
            assert!(matches!(err.kind, SpecErrorKind::Invalid { .. }), "{text}");
        }

        // A bare leaf at the root.
        let err = SystemSpec::Leaf(0).validate().unwrap_err();
        assert_eq!(err.kind, SpecErrorKind::LeafOutsideCompose);
        assert!(err.path.is_empty());

        // Family constructor rejections surface with their message.
        let err = SystemSpec::parse("maj(4)").unwrap_err();
        assert!(matches!(err.kind, SpecErrorKind::Invalid { .. }));

        // Overlapping org groups are rejected at the orgs node.
        let err = SystemSpec::Orgs {
            groups: vec![vec![0, 1], vec![1, 2]],
            inner: Box::new(SystemSpec::Majority { n: 3 }),
        }
        .validate()
        .unwrap_err();
        assert!(matches!(err.kind, SpecErrorKind::Invalid { .. }));

        // An error inside the orgs inner spec points at child 0.
        let err = SystemSpec::Orgs {
            groups: vec![vec![0]],
            inner: Box::new(SystemSpec::Leaf(0)),
        }
        .validate()
        .unwrap_err();
        assert_eq!(err.path, vec![0]);
    }

    #[test]
    fn display_of_errors_is_informative() {
        let err = SystemSpec::parse("1(1(0),1(3(1,2)))").unwrap_err();
        let text = err.to_string();
        assert!(text.contains("1.0"), "{text}");
        let err = "2(".parse::<SystemSpec>().unwrap_err();
        assert!(err.to_string().contains("byte 2"), "{err}");
    }

    fn assert_same_function(a: &DynQuorumSystem, b: &DynQuorumSystem) {
        assert_eq!(a.universe_size(), b.universe_size());
        let n = a.universe_size();
        assert!(n <= 16, "exhaustive check only feasible for small n");
        for mask in 0u64..(1 << n) {
            let set = ElementSet::from_mask(n, mask);
            assert_eq!(
                a.contains_quorum(&set),
                b.contains_quorum(&set),
                "mask {mask:#x}"
            );
        }
    }

    #[test]
    fn as_compose_specs_match_the_native_families() {
        let native: DynQuorumSystem = Arc::new(Majority::new(5).unwrap());
        assert_same_function(
            &SystemSpec::majority_as_compose(5).build().unwrap(),
            &native,
        );

        let native: DynQuorumSystem = Arc::new(TreeQuorum::new(2).unwrap());
        assert_same_function(&SystemSpec::tree_as_compose(2).build().unwrap(), &native);

        let native: DynQuorumSystem = Arc::new(Hqs::new(2).unwrap());
        assert_same_function(&SystemSpec::hqs_as_compose(2).build().unwrap(), &native);

        let native: DynQuorumSystem = Arc::new(Grid::new(3, 4).unwrap());
        assert_same_function(&SystemSpec::grid_as_compose(3, 4).build().unwrap(), &native);
    }

    #[test]
    fn family_specs_build_the_concrete_types() {
        let spec = SystemSpec::family_with_size_hint("Tree", 30).unwrap();
        assert!(matches!(
            spec.build_concrete().unwrap(),
            BuiltSystem::Tree(_)
        ));
        assert_eq!(
            spec.build().unwrap().universe_size(),
            TreeQuorum::with_size_hint(30).universe_size()
        );
        for family in SystemSpec::FAMILIES {
            for hint in [3, 10, 30, 100] {
                let spec = SystemSpec::family_with_size_hint(family, hint).unwrap();
                let system = spec.build().unwrap();
                assert!(system.universe_size() >= 3, "{family} hint {hint}");
                assert!(!system.name().is_empty(), "{family} hint {hint}");
                assert!(
                    system.universe_size() <= 2 * hint + 3,
                    "{family} hint {hint}: {}",
                    system.universe_size()
                );
            }
        }
        assert!(SystemSpec::family_with_size_hint("Nope", 10).is_none());
    }

    #[test]
    fn org_majority_carries_its_organizations() {
        let spec = SystemSpec::org_majority(3, 5);
        let orgs = spec.organizations().unwrap().unwrap();
        assert_eq!(orgs.group_count(), 3);
        assert_eq!(orgs.universe_size(), 15);
        assert_eq!(orgs.members(1), &[5, 6, 7, 8, 9]);
        assert_eq!(spec.org_groups().unwrap().len(), 3);

        // Majority-of-majorities verdicts: a majority of groups each with a
        // majority of members.
        let system = spec.build().unwrap();
        assert_eq!(system.universe_size(), 15);
        // Groups 0 and 1 fully green, group 2 fully red.
        let coloring = Coloring::from_green_set(&ElementSet::from_iter(15, 0..10));
        assert!(system.has_green_quorum(&coloring));
        // Only one group green.
        let coloring = Coloring::from_green_set(&ElementSet::from_iter(15, 0..5));
        assert!(!system.has_green_quorum(&coloring));
        // Non-org specs expose no organizations.
        assert!(SystemSpec::Majority { n: 5 }
            .organizations()
            .unwrap()
            .is_none());
    }

    /// A random circuit: gates of one to four children with thresholds
    /// from 0 to their child count over leaves below `span`, so that small
    /// spans repeat leaves and one-child gates chain.
    fn random_circuit(rng: &mut StdRng, depth: usize, span: usize) -> SystemSpec {
        let m = rng.gen_range(1..=4usize);
        let children = (0..m)
            .map(|_| {
                if depth > 0 && rng.gen_range(0..3u32) == 0 {
                    random_circuit(rng, depth - 1, span)
                } else {
                    SystemSpec::Leaf(rng.gen_range(0..span))
                }
            })
            .collect();
        SystemSpec::Compose {
            threshold: rng.gen_range(0..=m),
            children,
        }
    }

    /// FNV-1a of `bytes`, continuing from `hash`.
    fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(hash, |hash, &byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The digest of [`compose_specs_build_as_pinned`]'s circuits.
    const PINNED_CIRCUITS: u64 = 0xe14e_adfb_d376_3ae2;

    /// `build_concrete` on the `Compose` twins of the families, on
    /// org-majorities, on chains, constant gates and repeated leaves in
    /// dense and sparse universes, and on 20 000 seeded random circuits,
    /// folded as `Debug` text into one digest: the whole compiled tape
    /// (kinds, thresholds, leaf ranges, stack height, depth, quorum sizes
    /// and their exactness) of every circuit, pinned while a second circuit
    /// tree still compiled through the same compiler and every spec was
    /// checked against its twin in that tree.
    #[test]
    fn compose_specs_build_as_pinned() {
        let mut specs = vec![
            SystemSpec::majority_as_compose(5),
            SystemSpec::majority_as_compose(101),
            SystemSpec::tree_as_compose(3),
            SystemSpec::tree_as_compose(8),
            SystemSpec::hqs_as_compose(2),
            SystemSpec::hqs_as_compose(5),
            SystemSpec::grid_as_compose(3, 4),
            SystemSpec::grid_as_compose(16, 16),
            SystemSpec::org_majority(3, 5),
            SystemSpec::org_majority(15, 17),
        ];
        specs.extend([9, 40, 100, 1000].map(SystemSpec::org_majority_with_size_hint));
        for text in [
            "1(1(1(0)))",
            "0(0,1)",
            "2(0,0)",
            "2(1(0),2(0,1))",
            "1(1048575)",
            "1(1048575,0,1048575)",
        ] {
            specs.push(SystemSpec::parse(text).unwrap());
        }
        let mut rng = StdRng::seed_from_u64(28);
        for _ in 0..20_000 {
            let span = [2, 9, 24, 100, 1 << 20][rng.gen_range(0..5usize)];
            specs.push(random_circuit(&mut rng, 4, span));
        }
        let digest = specs.iter().fold(0xcbf2_9ce4_8422_2325, |hash, spec| {
            fnv1a(hash, format!("{:?}", spec.build_concrete()).as_bytes())
        });
        assert_eq!(digest, PINNED_CIRCUITS, "digest {digest:#018x}");
    }

    /// Invalid circuits fail at the first offending node in depth-first
    /// order, each gate checked before its children, with its path and
    /// kind.
    #[test]
    fn invalid_circuits_keep_their_paths_and_kinds() {
        let gate = |threshold, children| SystemSpec::Compose {
            threshold,
            children,
        };
        let out_of_range = |element: &str| SpecErrorKind::Invalid {
            reason: format!("element {element} out of range for universe of size {MAX_ELEMENTS}"),
        };
        let exceeds = |threshold, children| SpecErrorKind::ThresholdExceedsChildren {
            threshold,
            children,
        };
        let cases = [
            (gate(1, vec![]), vec![], SpecErrorKind::EmptyChildren),
            (
                gate(1, vec![SystemSpec::Leaf(0), gate(0, vec![])]),
                vec![1],
                SpecErrorKind::EmptyChildren,
            ),
            (
                SystemSpec::Leaf(0),
                vec![],
                SpecErrorKind::LeafOutsideCompose,
            ),
        ];
        for (spec, path, kind) in cases {
            let err = spec.build_concrete().unwrap_err();
            assert_eq!((err.path, err.kind), (path, kind), "{spec:?}");
        }
        let cases = [
            ("3(0,1)", vec![], exceeds(3, 2)),
            ("3(maj(3),1)", vec![], exceeds(3, 2)),
            ("2(2(0),maj(3))", vec![0], exceeds(2, 1)),
            (
                "1(1(0),1(1,1(2,2(3,4,5(6)))))",
                vec![1, 1, 1, 2],
                exceeds(5, 1),
            ),
            ("1(grid(2,2))", vec![0], SpecErrorKind::FamilyInsideCompose),
            (
                "1(0,2(1,maj(3)))",
                vec![1, 1],
                SpecErrorKind::FamilyInsideCompose,
            ),
            (
                "1(0,orgs([0];1(0)))",
                vec![1],
                SpecErrorKind::FamilyInsideCompose,
            ),
            (
                "orgs([0];1(0,1(2,maj(3))))",
                vec![0, 1, 1],
                SpecErrorKind::FamilyInsideCompose,
            ),
            ("2(0,67108864)", vec![1], out_of_range("67108864")),
            ("2(0,4294967296)", vec![1], out_of_range("4294967296")),
            (
                "1(18446744073709551615)",
                vec![0],
                out_of_range("18446744073709551615"),
            ),
            (
                "1(1(1(4294967296)),3(0))",
                vec![0, 0, 0],
                out_of_range("4294967296"),
            ),
        ];
        for (text, path, kind) in cases {
            let err = SystemSpec::parse(text).unwrap_err();
            assert_eq!((err.path, err.kind), (path, kind), "{text}");
        }
    }

    /// The lowering keeps its own stacks: a 10 000-level gate chain builds on
    /// a 64 KiB stack. Dropping the spec recurses once per level, so the
    /// chain lives on a thread with a large stack.
    #[test]
    fn lowering_does_not_recurse_per_level() {
        const LEVELS: usize = 10_000;
        std::thread::Builder::new()
            .stack_size(256 << 20)
            .spawn(|| {
                let mut spec = SystemSpec::Leaf(1);
                for _ in 0..LEVELS {
                    spec = SystemSpec::Compose {
                        threshold: 1,
                        children: vec![spec],
                    };
                }
                let built = std::thread::scope(|scope| {
                    std::thread::Builder::new()
                        .stack_size(64 << 10)
                        .spawn_scoped(scope, || spec.build_concrete())
                        .unwrap()
                        .join()
                        .unwrap()
                });
                let Ok(BuiltSystem::Composition(chain)) = built else {
                    panic!("the chain builds a composition");
                };
                assert_eq!(chain.universe_size(), 2);
                assert_eq!((chain.gate_count(), chain.depth()), (LEVELS, LEVELS));
                assert!(chain.contains_quorum(&ElementSet::singleton(2, 1)));
                drop(spec);
            })
            .unwrap()
            .join()
            .unwrap();
    }
}
