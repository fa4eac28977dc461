//! # quorum-analysis
//!
//! Analytic companions to the probing machinery: availability of quorum
//! systems under iid failures, the paper's technical lemmas (urn expectations,
//! grid random walks, product and recursion bounds), summary statistics for
//! Monte-Carlo estimates, log–log exponent fitting, the closed-form bound
//! formulas quoted in Table 1 and Sections 3–4 of Hassin & Peleg, and the
//! certificates ([`minimal`]) that the minimal quorums and minimal blocking
//! sets of a recursive composition give: intersection and availability
//! bounds.
//!
//! ```
//! use quorum_analysis::{availability, bounds, lemmas};
//! use quorum_systems::Majority;
//!
//! let maj = Majority::new(5).unwrap();
//! // Fact 2.3(1): availability failure probability is at most p for p <= 1/2.
//! let f = availability::exact_failure_probability(&maj, 0.3).unwrap();
//! assert!(f <= 0.3);
//! // Theorem 4.2's closed form for the randomized probe complexity of Maj.
//! assert!((bounds::maj_randomized_exact(5) - 4.5).abs() < 1e-12);
//! // Fact 2.7: expected draws to the first red in an urn of 2 red, 2 green.
//! assert!((lemmas::expected_draws_to_first_red(2, 2) - 5.0 / 3.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod availability;
pub mod bounds;
pub mod fit;
pub mod histogram;
pub mod lemmas;
pub mod minimal;
pub mod stats;

pub use availability::{
    availability_under_correlation, exact_failure_probability, monte_carlo_failure_probability,
    zone_of, zoned_failure_probability, zoned_params,
};
pub use fit::{fit_power_law, PowerLawFit};
pub use histogram::{load_imbalance, wasted_work_fraction, LogHistogram};
pub use minimal::{availability_bounds, find_disjoint_pair, AvailabilityBounds};
pub use stats::{RunningStats, Summary};
