//! Exact failure probabilities `F_p` under i.i.d. element failures, computed
//! independently of the Monte-Carlo engine, and the agreement tests the
//! workloads apply to their estimates.

use quorum_analysis::availability::{hqs_failure_probability, tree_failure_probability};

/// A system whose exact `F_p` the benchmark knows how to compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exact {
    /// Agrawal–El Abbadi tree of the given height.
    Tree(usize),
    /// HQS of the given height.
    Hqs(usize),
    /// Majority over `n` (odd) elements.
    Majority(usize),
    /// `rows × cols` grid: some full row and some full column.
    Grid(usize, usize),
    /// Majority of `groups` organization majorities of `size` elements each.
    OrgMajority(usize, usize),
}

impl Exact {
    /// `F_p`: the probability that no live quorum exists when each element
    /// fails independently with probability `p`.
    pub fn failure_probability(self, p: f64) -> f64 {
        let q = 1.0 - p;
        match self {
            Exact::Tree(height) => tree_failure_probability(height, p),
            Exact::Hqs(height) => hqs_failure_probability(height, p),
            Exact::Majority(n) => binomial_cdf(n, q, (n - 1) / 2),
            Exact::Grid(rows, cols) => grid_failure_probability(rows, cols, q),
            Exact::OrgMajority(groups, size) => {
                let group_live = 1.0 - binomial_cdf(size, q, size.div_ceil(2) - 1);
                binomial_cdf(groups, group_live, groups.div_ceil(2) - 1)
            }
        }
    }

    /// The `p` at which `F_p = ½`, where an estimate tells a correct
    /// evaluator from one that returns a constant. Majority (of odd size),
    /// the tree, HQS and majorities of majorities are self-dual, so it is
    /// `½` for them; the grid's is found by bisection (`F_p` rises with `p`).
    pub fn balanced_p(self) -> f64 {
        if !matches!(self, Exact::Grid(..)) {
            return 0.5;
        }
        let (mut low, mut high) = (0.0, 1.0);
        for _ in 0..60 {
            let mid = 0.5 * (low + high);
            if self.failure_probability(mid) < 0.5 {
                low = mid;
            } else {
                high = mid;
            }
        }
        0.5 * (low + high)
    }
}

/// Whether an estimate over `samples` trials agrees with the exact `F_p`:
/// within six binomial standard errors of the reference.
pub fn agrees_with_exact(estimate: f64, exact: f64, samples: u64) -> bool {
    let sigma = (exact * (1.0 - exact) / samples as f64).sqrt();
    (estimate - exact).abs() <= 6.0 * sigma + 1e-12
}

/// Whether two independent-or-identical estimates agree within six
/// standard errors of their difference.
pub fn estimates_agree(a: (f64, f64), b: (f64, f64)) -> bool {
    let sigma = (a.1 * a.1 + b.1 * b.1).sqrt();
    (a.0 - b.0).abs() <= 6.0 * sigma + 1e-12
}

/// `P(Bin(n, q) ≤ m)`, summed in log space so that tails of million-trial
/// binomials neither underflow nor cancel.
pub fn binomial_cdf(n: usize, q: f64, m: usize) -> f64 {
    if m >= n {
        return 1.0;
    }
    if q <= 0.0 {
        return 1.0;
    }
    if q >= 1.0 {
        return 0.0;
    }
    let (ln_q, ln_r) = (q.ln(), (1.0 - q).ln());
    // ln of the j-th term via ln C(n, j+1) = ln C(n, j) + ln(n−j) − ln(j+1).
    let terms = || {
        let mut ln_choose = 0.0f64;
        (0..=m).map(move |j| {
            let term = ln_choose + j as f64 * ln_q + (n - j) as f64 * ln_r;
            ln_choose += ((n - j) as f64).ln() - ((j + 1) as f64).ln();
            term
        })
    };
    let peak = terms().fold(f64::NEG_INFINITY, f64::max);
    let sum: f64 = terms().map(|t| (t - peak).exp()).sum();
    (peak + sum.ln()).exp().min(1.0)
}

/// `F_p` of a `rows × cols` grid whose elements are green with probability
/// `q`: `P(no full row) + P(no full column) − P(neither)`. The last term is
/// an inclusion–exclusion over the set `J` of full columns: given that the
/// `j` columns of `J` are all green, each row is full exactly when its other
/// `cols − j` elements are, independently of the other rows, so
/// `P(neither) = Σ_j (−1)^j C(cols, j) q^(j·rows) (1 − q^(cols−j))^rows`.
fn grid_failure_probability(rows: usize, cols: usize, q: f64) -> f64 {
    if q <= 0.0 {
        return 1.0;
    }
    if q >= 1.0 {
        return 0.0;
    }
    let (r, c, ln_q) = (rows as f64, cols as f64, q.ln());
    // ln (1 − q^k)^m.
    let ln_none_full = |k: f64, m: f64| m * (-(k * ln_q).exp()).ln_1p();
    let no_full_row = ln_none_full(c, r).exp();
    let no_full_col = ln_none_full(r, c).exp();
    let mut neither = 0.0;
    let mut ln_choose = 0.0f64;
    for j in 0..=cols {
        let ln_term = ln_choose + j as f64 * r * ln_q + ln_none_full((cols - j) as f64, r);
        let sign = if j % 2 == 0 { 1.0 } else { -1.0 };
        neither += sign * ln_term.exp();
        ln_choose += ((cols - j) as f64).ln() - ((j + 1) as f64).ln();
    }
    (no_full_row + no_full_col - neither).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use quorum_analysis::exact_failure_probability;
    use quorum_sim::eval::erase_spec;
    use quorum_systems::SystemSpec;

    /// Every closed form matches brute-force enumeration on small systems.
    #[test]
    fn closed_forms_match_enumeration() {
        let cases = [
            (SystemSpec::Tree { height: 2 }, Exact::Tree(2)),
            (SystemSpec::Hqs { height: 2 }, Exact::Hqs(2)),
            (SystemSpec::Majority { n: 9 }, Exact::Majority(9)),
            (SystemSpec::Grid { rows: 3, cols: 4 }, Exact::Grid(3, 4)),
            (SystemSpec::org_majority(3, 5), Exact::OrgMajority(3, 5)),
        ];
        for (spec, exact) in cases {
            let system = erase_spec(&spec).expect("valid spec");
            for p in [0.1, 0.3, 0.5, 0.8] {
                let brute = exact_failure_probability(system.as_quorum_system(), p)
                    .expect("small universe");
                let closed = exact.failure_probability(p);
                assert!(
                    (brute - closed).abs() < 1e-12,
                    "{exact:?} p={p}: enumeration {brute} vs closed form {closed}"
                );
            }
        }
    }

    #[test]
    fn million_element_tails_stay_finite() {
        let maj = Exact::Majority(1_000_001).failure_probability(0.1);
        assert!((0.0..1e-300).contains(&maj), "{maj}");
        // Half a million summed log-ratios leave a relative error near 1e-8,
        // far below any standard error the workloads compare against.
        let half = Exact::Majority(1_000_001).failure_probability(0.5);
        assert!((half - 0.5).abs() < 1e-7, "{half}");
        let grid = Exact::Grid(1000, 1000).failure_probability(0.1);
        assert!(grid > 1.0 - 1e-12, "{grid}");
    }

    #[test]
    fn balanced_p_halves_the_failure_probability() {
        for exact in [
            Exact::Tree(19),
            Exact::Hqs(10),
            Exact::Majority(4097),
            Exact::OrgMajority(255, 257),
            Exact::Grid(6, 6),
            Exact::Grid(64, 64),
            Exact::Grid(1000, 1000),
        ] {
            let p = exact.balanced_p();
            let f = exact.failure_probability(p);
            assert!((f - 0.5).abs() < 1e-6, "{exact:?}: F at p = {p} is {f}");
        }
    }
}
