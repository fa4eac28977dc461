//! # quorum-probe
//!
//! Probing machinery for quorum systems: everything needed to *find a witness*
//! — a fully green (live) quorum or a fully red (dead) quorum — while probing
//! as few elements as possible, following Hassin & Peleg, "Average probe
//! complexity in quorum systems".
//!
//! The crate has four layers:
//!
//! 1. **Oracle & strategy interface** ([`ProbeOracle`], [`ProbeStrategy`],
//!    [`ProbeRun`]): a strategy adaptively probes elements through the oracle,
//!    which reveals colors and counts probes, and returns a [`Witness`].
//! 2. **Concrete strategies**: the paper's algorithms for the probabilistic
//!    model ([`strategies::ProbeMaj`], [`strategies::ProbeCw`],
//!    [`strategies::ProbeTree`], [`strategies::ProbeHqs`]) and the randomized
//!    worst-case model ([`strategies::RProbeMaj`], [`strategies::RProbeCw`],
//!    [`strategies::RProbeTree`], [`strategies::RProbeHqs`],
//!    [`strategies::IrProbeHqs`]), plus generic baselines
//!    ([`strategies::SequentialScan`], [`strategies::RandomScan`]).
//! 3. **Decision trees** ([`DecisionTree`]): explicit probe-strategy trees
//!    with depth / expected-depth computations and validation — the object the
//!    paper's definitions are phrased in terms of.
//! 4. **The exact solver & lower bounds** ([`exact`], [`yao`]): one
//!    exponential-time but exact recursion over (green, red) knowledge
//!    states, under three outcome laws: the adversary gives `PC(S)`, i.i.d.
//!    failures give `PPC_p(S)`, and an explicit distribution gives the
//!    Yao-principle lower bound for randomized algorithms (the paper's hard
//!    input distributions live in [`yao`]). Values for `n ≤ 15`, optimal
//!    decision trees for `n ≤ 12`.
//!
//! ```
//! use quorum_core::{Coloring, QuorumSystem};
//! use quorum_probe::{run_strategy, strategies::ProbeCw};
//! use quorum_systems::CrumblingWalls;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let wall = CrumblingWalls::triang(4).unwrap();
//! let coloring = Coloring::all_green(wall.universe_size());
//! let mut rng = StdRng::seed_from_u64(7);
//! let run = run_strategy(&wall, &ProbeCw::new(), &coloring, &mut rng);
//! assert!(run.witness.is_green());
//! assert!(run.probes <= 2 * 4 - 1); // never more than 2k−1 probes here
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decision_tree;
pub mod exact;
pub mod health;
pub mod oracle;
pub mod runner;
pub mod session;
pub mod strategies;
pub mod yao;

pub use decision_tree::DecisionTree;
pub use health::{BreakerState, GatedOutcome, HealthConfig, HealthView};
pub use oracle::ProbeOracle;
pub use runner::{run_strategy, ProbeRun, ProbeStrategy};
pub use session::{observed_coloring, AttemptLoss, ProbeFate};
pub use yao::InputDistribution;

// Re-exported for doc examples and downstream convenience.
pub use quorum_core::{Coloring, Witness, WitnessKind};
