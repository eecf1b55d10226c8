//! Dynamic-miner-number scenario (Section V, Problem 1d).
//!
//! For permissionless blockchains the miner count is not common knowledge;
//! the paper models `N ~ Gaussian(μ, σ²)` discretized to
//! `P(k) = Φ(k) − Φ(k−1)` and gives each miner the expected utility (Eq. 26)
//!
//! ```text
//! U_i = R·[ω·W̄^h + (1−ω)·W̄^{1−h}] − (P_e e_i + P_c c_i)
//! ```
//!
//! a mixture of fully-served and degraded service over the random
//! population (the paper fixes the mixing weight at ω = ½; we expose it —
//! one of the EXP-ABL ablations). With a degenerate population (σ → 0,
//! support {μ}) the model collapses to the fixed-number connected game with
//! availability `h = ω`, which is the baseline the paper compares against.
//!
//! No closed form exists (the paper resorts to numerics as well); we solve
//! the symmetric equilibrium by a damped fixed point over the numeric
//! [`best_response`] ([`crate::solver::TieredSolver::dynamic`], and
//! [`crate::solver::TieredSolver::continuous`] for the Gauss–Hermite model).

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use mbm_numerics::distributions::{DiscretePmf, Gaussian};
use mbm_numerics::optimize::golden_section_max;
use serde::{Deserialize, Serialize};

use crate::error::MiningGameError;
use crate::params::{MarketParams, Prices};
use crate::request::Request;
use crate::subgame::SubgameConfig;

/// A discretized random miner population.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Population {
    mean: f64,
    sd: f64,
    pmf: DiscretePmf,
}

impl Population {
    /// Discretizes `N ~ Gaussian(mean, sd²)` to integer support
    /// `[1, ceil(mean + 4·sd)]` with `P(k) = Φ(k) − Φ(k−1)`, renormalized.
    ///
    /// # Errors
    ///
    /// Returns [`MiningGameError::InvalidParameter`] unless `mean ≥ 2` and
    /// `sd > 0`.
    pub fn gaussian(mean: f64, sd: f64) -> Result<Self, MiningGameError> {
        if !(mean.is_finite() && mean >= 2.0) {
            return Err(MiningGameError::invalid(format!("population mean = {mean} must be >= 2")));
        }
        if !(sd.is_finite() && sd > 0.0) {
            return Err(MiningGameError::invalid(format!("population sd = {sd} must be > 0")));
        }
        let hi = (mean + 4.0 * sd).ceil().max(2.0) as u32;
        let pmf = Gaussian::new(mean, sd)?.discretize(1, hi)?;
        Ok(Population { mean, sd, pmf })
    }

    /// A deterministic population of exactly `n` miners.
    ///
    /// # Errors
    ///
    /// Returns [`MiningGameError::InvalidParameter`] if `n < 2`.
    pub fn fixed(n: usize) -> Result<Self, MiningGameError> {
        if n < 2 {
            return Err(MiningGameError::invalid("fixed population needs n >= 2"));
        }
        let pmf = DiscretePmf::from_weights(vec![n as f64], vec![1.0])?;
        Ok(Population { mean: n as f64, sd: 0.0, pmf })
    }

    /// Mean of the (untruncated) population model.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Standard deviation of the population model (0 for fixed).
    #[must_use]
    pub fn sd(&self) -> f64 {
        self.sd
    }

    /// The discretized pmf over miner counts.
    #[must_use]
    pub fn pmf(&self) -> &DiscretePmf {
        &self.pmf
    }
}

/// Configuration for the dynamic-scenario solver.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DynamicConfig {
    /// Mixing weight ω between full and degraded service (paper: ½).
    pub mixing: f64,
    /// Fixed-point solver settings.
    pub subgame: SubgameConfig,
}

impl Default for DynamicConfig {
    fn default() -> Self {
        DynamicConfig { mixing: 0.5, subgame: SubgameConfig::default() }
    }
}

/// Expected utility (Eq. 26) of a miner playing `own` while every other
/// participant plays `others`, with the number of participants `k` drawn
/// from `pop` (including this miner).
///
/// (The paper's printed Eq. 26 has the reward and cost signs flipped — an
/// obvious typo; utility is income minus cost.)
#[must_use]
pub fn expected_utility(
    own: Request,
    others: Request,
    pop: &Population,
    params: &MarketParams,
    prices: &Prices,
    mixing: f64,
) -> f64 {
    let beta = params.fork_rate();
    let s_own = own.total();
    let w = pop.pmf().expect(|kf| {
        let m = (kf - 1.0).max(0.0);
        let e_k = own.edge + m * others.edge;
        let s_k = s_own + m * others.total();
        if s_k <= 0.0 {
            return 0.0;
        }
        let share = s_own / s_k;
        let edge_share = if e_k > 0.0 { own.edge / e_k } else { 0.0 };
        let w_full = (1.0 - beta) * share + beta * edge_share;
        let w_degraded = (1.0 - beta) * share;
        mixing * w_full + (1.0 - mixing) * w_degraded
    });
    params.reward() * w - own.cost(prices)
}

/// Analytic gradient `[∂U/∂e, ∂U/∂c]` of [`expected_utility`] in the own
/// request.
#[must_use]
pub fn expected_utility_gradient(
    own: Request,
    others: Request,
    pop: &Population,
    params: &MarketParams,
    prices: &Prices,
    mixing: f64,
) -> [f64; 2] {
    let beta = params.fork_rate();
    let r = params.reward();
    let s_own = own.total();
    let mut de = 0.0;
    let mut dc = 0.0;
    for (kf, p) in pop.pmf().iter() {
        let m = (kf - 1.0).max(0.0);
        let e_k = own.edge + m * others.edge;
        let s_k = s_own + m * others.total();
        if s_k <= 0.0 {
            continue;
        }
        let s_others = s_k - s_own;
        let share_grad = if s_others > 0.0 { (1.0 - beta) * s_others / (s_k * s_k) } else { 0.0 };
        let e_others = e_k - own.edge;
        let edge_grad =
            if e_k > 0.0 && e_others > 0.0 { beta * e_others / (e_k * e_k) } else { 0.0 };
        de += p * (share_grad + mixing * edge_grad);
        dc += p * share_grad;
    }
    [r * de - prices.edge, r * dc - prices.cloud]
}

/// Numeric best response over the budget set.
///
/// The expected utility is strictly concave in the own request but badly
/// ill-conditioned near `e → 0` (the edge-share term `β e/E_k` has huge
/// curvature when the others' edge demand is small), which defeats
/// gradient methods. Cyclic coordinate ascent with golden-section line
/// searches is robust to that conditioning; when the budget plane is
/// active, a final line search along the plane removes the corner bias of
/// coordinate moves.
///
/// # Errors
///
/// Propagates optimizer failures.
pub fn best_response(
    others: Request,
    budget: f64,
    pop: &Population,
    params: &MarketParams,
    prices: &Prices,
    mixing: f64,
    start: Request,
) -> Result<Request, MiningGameError> {
    best_response_to_objective(
        |e, c| expected_utility(Request { edge: e, cloud: c }, others, pop, params, prices, mixing),
        budget,
        prices,
        start,
    )
}

/// Coordinate-ascent best response for an arbitrary concave objective over
/// the budget set — shared by the discretized and continuous population
/// models.
///
/// # Errors
///
/// Propagates optimizer failures.
pub fn best_response_to_objective<U>(
    u: U,
    budget: f64,
    prices: &Prices,
    start: Request,
) -> Result<Request, MiningGameError>
where
    U: Fn(f64, f64) -> f64,
{
    let mut e = start.edge.clamp(0.0, budget / prices.edge);
    let mut c = start.cloud.clamp(0.0, (budget - prices.edge * e).max(0.0) / prices.cloud);
    let tol = 1e-11 * (1.0 + budget);
    for _ in 0..200 {
        let e_prev = e;
        let c_prev = c;
        let e_hi = (budget - prices.cloud * c).max(0.0) / prices.edge;
        e = if e_hi > 0.0 { golden_section_max(|x| u(x, c), 0.0, e_hi, tol)?.x } else { 0.0 };
        let c_hi = (budget - prices.edge * e).max(0.0) / prices.cloud;
        c = if c_hi > 0.0 { golden_section_max(|x| u(e, x), 0.0, c_hi, tol)?.x } else { 0.0 };
        if (e - e_prev).abs() + (c - c_prev).abs() < 1e-10 * (1.0 + e + c) {
            break;
        }
    }
    // If the budget binds, coordinate moves cannot slide along the plane;
    // search the split directly.
    if prices.edge * e + prices.cloud * c >= budget * (1.0 - 1e-9) {
        let best_t = golden_section_max(
            |t| u(t * budget / prices.edge, (1.0 - t) * budget / prices.cloud),
            0.0,
            1.0,
            1e-12,
        )?;
        let (te, tc) = (best_t.x * budget / prices.edge, (1.0 - best_t.x) * budget / prices.cloud);
        if u(te, tc) > u(e, c) {
            e = te;
            c = tc;
        }
    }
    Request::new(e.max(0.0), c.max(0.0))
}

/// Continuous-Gaussian counterpart of [`expected_utility`]: the expectation
/// over `N ~ Gaussian(mean, sd²)` is evaluated by Gauss–Hermite quadrature
/// instead of the paper's integer discretization (participant counts below
/// 1 are clamped). Used by the EXP-ABL harness to quantify the
/// discretization error, including its +½ mean shift.
#[must_use]
#[allow(clippy::too_many_arguments)] // mirrors expected_utility's parameter list
pub fn expected_utility_continuous(
    own: Request,
    others: Request,
    mean: f64,
    sd: f64,
    gh: &mbm_numerics::quadrature::GaussHermite,
    params: &MarketParams,
    prices: &Prices,
    mixing: f64,
) -> f64 {
    let beta = params.fork_rate();
    let s_own = own.total();
    let w = gh.gaussian_expectation(mean, sd, |kf| {
        let m = (kf - 1.0).max(0.0);
        let e_k = own.edge + m * others.edge;
        let s_k = s_own + m * others.total();
        if s_k <= 0.0 {
            return 0.0;
        }
        let share = s_own / s_k;
        let edge_share = if e_k > 0.0 { own.edge / e_k } else { 0.0 };
        mixing * ((1.0 - beta) * share + beta * edge_share) + (1.0 - mixing) * (1.0 - beta) * share
    });
    params.reward() * w - own.cost(prices)
}

/// Validation shared by the continuous chain entry: Gaussian population
/// moments must describe at least two expected miners.
pub(crate) fn validate_continuous(mean: f64, sd: f64) -> Result<(), MiningGameError> {
    if !(mean >= 2.0 && sd > 0.0) {
        return Err(MiningGameError::invalid(format!(
            "continuous population needs mean >= 2 (got {mean}) and sd > 0 (got {sd})"
        )));
    }
    Ok(())
}

/// Validation shared by the dynamic chain entry: positive budget, mixing
/// weight in `[0, 1]`.
pub(crate) fn validate_dynamic(budget: f64, cfg: &DynamicConfig) -> Result<(), MiningGameError> {
    if !(budget.is_finite() && budget > 0.0) {
        return Err(MiningGameError::invalid(format!("budget = {budget} must be > 0")));
    }
    if !(cfg.mixing >= 0.0 && cfg.mixing <= 1.0) {
        return Err(MiningGameError::invalid(format!(
            "mixing weight = {} must be in [0, 1]",
            cfg.mixing
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::TieredSolver;

    fn params() -> MarketParams {
        MarketParams::builder().reward(100.0).fork_rate(0.2).edge_availability(0.8).build().unwrap()
    }

    fn prices() -> Prices {
        Prices::new(4.0, 2.0).unwrap()
    }

    #[test]
    fn population_constructors() {
        let pop = Population::gaussian(10.0, 2.0).unwrap();
        assert_eq!(pop.mean(), 10.0);
        assert!((pop.pmf().total_mass() - 1.0).abs() < 1e-12);
        let fixed = Population::fixed(5).unwrap();
        assert_eq!(fixed.pmf().outcomes(), &[5.0]);
        assert!(Population::gaussian(1.0, 2.0).is_err());
        assert!(Population::gaussian(10.0, 0.0).is_err());
        assert!(Population::fixed(1).is_err());
    }

    #[test]
    fn gradient_matches_numeric_differences() {
        let p = params();
        let pr = prices();
        let pop = Population::gaussian(8.0, 2.0).unwrap();
        let own = Request::new(2.0, 5.0).unwrap();
        let others = Request::new(1.5, 4.0).unwrap();
        let g = expected_utility_gradient(own, others, &pop, &p, &pr, 0.5);
        let eps = 1e-6;
        let u = |e: f64, c: f64| {
            expected_utility(Request { edge: e, cloud: c }, others, &pop, &p, &pr, 0.5)
        };
        let de = (u(own.edge + eps, own.cloud) - u(own.edge - eps, own.cloud)) / (2.0 * eps);
        let dc = (u(own.edge, own.cloud + eps) - u(own.edge, own.cloud - eps)) / (2.0 * eps);
        assert!((g[0] - de).abs() < 1e-5, "{} vs {de}", g[0]);
        assert!((g[1] - dc).abs() < 1e-5, "{} vs {dc}", g[1]);
    }

    #[test]
    fn fixed_population_reduces_to_connected_game_with_h_equal_mixing() {
        // With support {n} and mixing ω, Eq. 26 equals the connected-mode
        // utility with availability h = ω.
        let pr = prices();
        let budget = 200.0;
        let n = 5;
        let omega = 0.8;
        let p = params(); // h = 0.8 = omega
        let pop = Population::fixed(n).unwrap();
        let cfg = DynamicConfig { mixing: omega, ..Default::default() };
        let dynamic =
            TieredSolver::dynamic(&p, &pr, budget, &pop, &cfg).solve_per_miner().unwrap().0;
        let connected = TieredSolver::symmetric_connected(&p, &pr, budget, n, &cfg.subgame)
            .solve_per_miner()
            .unwrap()
            .0;
        assert!((dynamic.edge - connected.edge).abs() < 1e-3, "{dynamic:?} vs {connected:?}");
        assert!((dynamic.cloud - connected.cloud).abs() < 1e-3, "{dynamic:?} vs {connected:?}");
    }

    #[test]
    fn uncertainty_increases_edge_demand() {
        // The paper's headline Section V finding: population uncertainty
        // makes miners more aggressive at the ESP.
        let p = params();
        let pr = prices();
        let budget = 500.0;
        let cfg = DynamicConfig::default();
        let fixed = TieredSolver::dynamic(&p, &pr, budget, &Population::fixed(10).unwrap(), &cfg)
            .solve_per_miner()
            .unwrap()
            .0;
        let uncertain =
            TieredSolver::dynamic(&p, &pr, budget, &Population::gaussian(10.0, 3.0).unwrap(), &cfg)
                .solve_per_miner()
                .unwrap()
                .0;
        assert!(uncertain.edge > fixed.edge, "uncertain {uncertain:?} vs fixed {fixed:?}");
    }

    #[test]
    fn larger_variance_is_more_esp_prone() {
        // Fig. 9(b): larger sigma^2 leads to larger edge requests.
        let p = params();
        let pr = prices();
        let budget = 500.0;
        let cfg = DynamicConfig::default();
        let lo =
            TieredSolver::dynamic(&p, &pr, budget, &Population::gaussian(10.0, 1.0).unwrap(), &cfg)
                .solve_per_miner()
                .unwrap()
                .0;
        let hi =
            TieredSolver::dynamic(&p, &pr, budget, &Population::gaussian(10.0, 4.0).unwrap(), &cfg)
                .solve_per_miner()
                .unwrap()
                .0;
        assert!(hi.edge > lo.edge, "hi {hi:?} vs lo {lo:?}");
    }

    #[test]
    fn equilibrium_is_a_best_response_fixed_point() {
        let p = params();
        let pr = prices();
        let pop = Population::gaussian(8.0, 2.0).unwrap();
        let cfg = DynamicConfig::default();
        let eq = TieredSolver::dynamic(&p, &pr, 300.0, &pop, &cfg).solve_per_miner().unwrap().0;
        let br = best_response(eq, 300.0, &pop, &p, &pr, cfg.mixing, eq).unwrap();
        assert!((br.edge - eq.edge).abs() < 1e-4, "{br:?} vs {eq:?}");
        assert!((br.cloud - eq.cloud).abs() < 1e-4, "{br:?} vs {eq:?}");
    }

    #[test]
    fn continuous_model_matches_discretized_up_to_the_half_shift() {
        // The discretized model's mean is mu + 1/2; the continuous model at
        // mean mu + 1/2 should therefore be very close to it.
        let p = params();
        let pr = prices();
        let budget = 500.0;
        let cfg = DynamicConfig::default();
        let discrete =
            TieredSolver::dynamic(&p, &pr, budget, &Population::gaussian(10.0, 2.0).unwrap(), &cfg)
                .solve_per_miner()
                .unwrap()
                .0;
        let continuous =
            TieredSolver::continuous(&p, &pr, budget, 10.5, 2.0, &cfg).solve_per_miner().unwrap().0;
        assert!(
            (discrete.edge - continuous.edge).abs() < 0.02 * discrete.edge.max(0.01),
            "discrete {discrete:?} vs continuous {continuous:?}"
        );
        assert!(
            (discrete.cloud - continuous.cloud).abs() < 0.02 * discrete.cloud,
            "discrete {discrete:?} vs continuous {continuous:?}"
        );
        // Without the shift correction the two differ measurably.
        let unshifted =
            TieredSolver::continuous(&p, &pr, budget, 10.0, 2.0, &cfg).solve_per_miner().unwrap().0;
        assert!(unshifted.edge > continuous.edge);
    }

    #[test]
    fn continuous_solver_validates_inputs() {
        let p = params();
        let pr = prices();
        assert!(TieredSolver::continuous(&p, &pr, 100.0, 1.0, 2.0, &DynamicConfig::default())
            .solve_per_miner()
            .is_err());
        assert!(TieredSolver::continuous(&p, &pr, 100.0, 8.0, 0.0, &DynamicConfig::default())
            .solve_per_miner()
            .is_err());
    }

    #[test]
    fn solver_validates_inputs() {
        let p = params();
        let pr = prices();
        let pop = Population::fixed(5).unwrap();
        assert!(TieredSolver::dynamic(&p, &pr, 0.0, &pop, &DynamicConfig::default())
            .solve_per_miner()
            .is_err());
        let bad = DynamicConfig { mixing: 1.5, ..Default::default() };
        assert!(TieredSolver::dynamic(&p, &pr, 100.0, &pop, &bad).solve_per_miner().is_err());
    }
}
