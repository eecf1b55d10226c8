//! Closed forms for homogeneous miners (Theorem 3, Corollary 1).
//!
//! With identical budgets `B`, the connected-mode NEP has symbolic
//! solutions in two regimes:
//!
//! * **budget binding** (Theorem 3):
//!   `e* = B h β / [(1−β+hβ)(P_e − P_c)]`,
//!   `c* = B[(1−β)(P_e−P_c) − hβ P_c] / [P_c (1−β+hβ)(P_e − P_c)]`.
//!   (**Paper erratum**: the printed `c*` denominator carries `P_e`; only
//!   `P_c` is consistent with `P_e e* + P_c c* = B`, which we verify in
//!   tests.)
//! * **sufficient budget** (Corollary 1):
//!   `e* = hβR(n−1)/(n²(P_e−P_c))`, `s* = (1−β)R(n−1)/(n² P_c)`,
//!   `c* = s* − e*`. (The paper prints the `h = 1` specialization.)
//!
//! Both require the mixed-strategy price condition
//! `P_c < (1−β) P_e / (1−β+hβ)` — otherwise the cloud is not worth buying
//! and the equilibrium is a corner.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use serde::{Deserialize, Serialize};

use crate::error::MiningGameError;
use crate::params::{MarketParams, Prices};
use crate::request::Request;

/// Which closed-form regime applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Regime {
    /// The budget constraint binds (Theorem 3).
    BudgetBinding,
    /// The budget is slack (Corollary 1).
    SufficientBudget,
}

/// The mixed-strategy price condition of Theorem 3:
/// `P_c < (1−β) P_e / (1−β+hβ)` (requires `P_e > P_c` in particular).
#[must_use]
pub fn mixed_strategy_condition(params: &MarketParams, prices: &Prices) -> bool {
    let beta = params.fork_rate();
    let h = params.edge_availability();
    prices.edge > prices.cloud
        && prices.cloud < (1.0 - beta) * prices.edge / (1.0 - beta + h * beta)
}

/// Theorem 3: the symmetric equilibrium request when every miner's budget
/// binds.
///
/// # Errors
///
/// Returns [`MiningGameError::OutsideValidityRegion`] if the price condition
/// fails, and [`MiningGameError::InvalidParameter`] for a non-positive
/// budget.
pub fn theorem3_request(
    params: &MarketParams,
    prices: &Prices,
    budget: f64,
) -> Result<Request, MiningGameError> {
    if !(budget.is_finite() && budget > 0.0) {
        return Err(MiningGameError::invalid(format!("budget = {budget} must be > 0")));
    }
    if !mixed_strategy_condition(params, prices) {
        return Err(MiningGameError::outside(format!(
            "Theorem 3 requires P_c < (1−β)P_e/(1−β+hβ); got P_e = {}, P_c = {}",
            prices.edge, prices.cloud
        )));
    }
    let beta = params.fork_rate();
    let h = params.edge_availability();
    let denom_common = (1.0 - beta + h * beta) * (prices.edge - prices.cloud);
    let e = budget * h * beta / denom_common;
    let c = budget * ((1.0 - beta) * (prices.edge - prices.cloud) - h * beta * prices.cloud)
        / (prices.cloud * denom_common);
    Request::new(e, c)
}

/// Corollary 1: the symmetric equilibrium request with sufficient budgets
/// (`n` homogeneous miners, interior KKT with zero multiplier).
///
/// # Errors
///
/// Returns [`MiningGameError::OutsideValidityRegion`] if the price condition
/// fails, and [`MiningGameError::InvalidParameter`] for `n < 2`.
pub fn corollary1_request(
    params: &MarketParams,
    prices: &Prices,
    n: usize,
) -> Result<Request, MiningGameError> {
    if n < 2 {
        return Err(MiningGameError::invalid("Corollary 1 needs at least two miners"));
    }
    if !mixed_strategy_condition(params, prices) {
        return Err(MiningGameError::outside(format!(
            "Corollary 1 requires P_c < (1−β)P_e/(1−β+hβ); got P_e = {}, P_c = {}",
            prices.edge, prices.cloud
        )));
    }
    let beta = params.fork_rate();
    let h = params.edge_availability();
    let r = params.reward();
    let nf = n as f64;
    let factor = r * (nf - 1.0) / (nf * nf);
    let e = h * beta * factor / (prices.edge - prices.cloud);
    let s = (1.0 - beta) * factor / prices.cloud;
    Request::new(e, s - e)
}

/// Selects the applicable regime and returns its closed-form symmetric
/// equilibrium: Corollary 1 if its spending fits the budget, Theorem 3
/// otherwise. The tier body of `TieredSolver::homogeneous`, which reports the
/// regime in `Solved::regime`.
pub(crate) fn homogeneous_core(
    params: &MarketParams,
    prices: &Prices,
    budget: f64,
    n: usize,
) -> Result<(Request, Regime), MiningGameError> {
    let free = corollary1_request(params, prices, n)?;
    if free.cost(prices) <= budget {
        Ok((free, Regime::SufficientBudget))
    } else {
        Ok((theorem3_request(params, prices, budget)?, Regime::BudgetBinding))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{FollowerSolver, SolveWorkspace, TieredSolver};
    use crate::subgame::SubgameConfig;

    fn params() -> MarketParams {
        MarketParams::builder().reward(100.0).fork_rate(0.2).edge_availability(0.8).build().unwrap()
    }

    #[test]
    fn price_condition_detects_boundary() {
        let p = params();
        // (1−β)/(1−β+hβ) = 0.8/0.96 = 5/6; with P_e = 6 the bound is 5.
        let edge = 6.0;
        assert!(mixed_strategy_condition(&p, &Prices::new(edge, 4.9).unwrap()));
        assert!(!mixed_strategy_condition(&p, &Prices::new(edge, 5.0).unwrap()));
        assert!(!mixed_strategy_condition(&p, &Prices::new(2.0, 3.0).unwrap()));
    }

    #[test]
    fn theorem3_spends_exactly_the_budget() {
        let p = params();
        let prices = Prices::new(4.0, 2.0).unwrap();
        let budget = 200.0;
        let r = theorem3_request(&p, &prices, budget).unwrap();
        assert!(r.edge > 0.0 && r.cloud > 0.0);
        assert!((r.cost(&prices) - budget).abs() < 1e-9, "cost {}", r.cost(&prices));
    }

    #[test]
    fn theorem3_matches_numeric_equilibrium_when_budget_binds() {
        let p = params();
        let prices = Prices::new(4.0, 2.0).unwrap();
        // Corollary-1 spending at these prices is ~15.4, so a budget of 5
        // genuinely binds.
        let budget = 5.0;
        let n = 5;
        let closed = theorem3_request(&p, &prices, budget).unwrap();
        let numeric =
            TieredSolver::symmetric_connected(&p, &prices, budget, n, &SubgameConfig::default())
                .solve_per_miner()
                .unwrap()
                .0;
        assert!((closed.edge - numeric.edge).abs() < 1e-5, "{closed:?} vs {numeric:?}");
        assert!((closed.cloud - numeric.cloud).abs() < 1e-5, "{closed:?} vs {numeric:?}");
    }

    #[test]
    fn corollary1_matches_numeric_equilibrium_with_large_budget() {
        let p = params();
        let prices = Prices::new(4.0, 2.0).unwrap();
        let budget = 1e7;
        let n = 5;
        let closed = corollary1_request(&p, &prices, n).unwrap();
        let numeric =
            TieredSolver::symmetric_connected(&p, &prices, budget, n, &SubgameConfig::default())
                .solve_per_miner()
                .unwrap()
                .0;
        assert!((closed.edge - numeric.edge).abs() < 1e-6, "{closed:?} vs {numeric:?}");
        assert!((closed.cloud - numeric.cloud).abs() < 1e-6, "{closed:?} vs {numeric:?}");
    }

    #[test]
    fn corollary1_matches_paper_printed_form_at_h_one() {
        // The paper prints e* = βR(n−1)/(n²(P_e−P_c)) — the h = 1 case.
        let p = MarketParams::builder()
            .reward(100.0)
            .fork_rate(0.2)
            .edge_availability(1.0)
            .build()
            .unwrap();
        let prices = Prices::new(4.0, 2.0).unwrap();
        let n = 5;
        let r = corollary1_request(&p, &prices, n).unwrap();
        let e_paper = 0.2 * 100.0 * 4.0 / (25.0 * 2.0);
        assert!((r.edge - e_paper).abs() < 1e-12);
        // c* = R(n−1)[(1−β)P_e − P_c]/(n² P_c (P_e−P_c)).
        let c_paper = 100.0 * 4.0 * ((0.8 * 4.0) - 2.0) / (25.0 * 2.0 * 2.0);
        assert!((r.cloud - c_paper).abs() < 1e-12, "{} vs {c_paper}", r.cloud);
    }

    #[test]
    fn regime_selection_switches_with_budget() {
        let p = params();
        let prices = Prices::new(4.0, 2.0).unwrap();
        let n = 5;
        let regime = |budget| {
            let solver = TieredSolver::homogeneous(&p, &prices, budget, n);
            let solved = SolveWorkspace::with_thread_local(|ws| solver.solve(ws)).unwrap();
            solved.regime.expect("the closed-form tier reports its regime")
        };
        let regime_small = regime(10.0);
        assert_eq!(regime_small, Regime::BudgetBinding);
        let regime_large = regime(1e7);
        assert_eq!(regime_large, Regime::SufficientBudget);
    }

    #[test]
    fn regime_boundary_is_continuous() {
        // At the budget where Corollary 1 spending equals B, both forms give
        // the same request.
        let p = params();
        let prices = Prices::new(4.0, 2.0).unwrap();
        let n = 5;
        let free = corollary1_request(&p, &prices, n).unwrap();
        let b = free.cost(&prices);
        let bound = theorem3_request(&p, &prices, b).unwrap();
        assert!((free.edge - bound.edge).abs() < 1e-9, "{free:?} vs {bound:?}");
        assert!((free.cloud - bound.cloud).abs() < 1e-9, "{free:?} vs {bound:?}");
    }

    #[test]
    fn validity_errors() {
        let p = params();
        let bad_prices = Prices::new(2.0, 3.0).unwrap();
        assert!(matches!(
            theorem3_request(&p, &bad_prices, 100.0),
            Err(MiningGameError::OutsideValidityRegion(_))
        ));
        assert!(theorem3_request(&p, &Prices::new(4.0, 2.0).unwrap(), 0.0).is_err());
        assert!(corollary1_request(&p, &Prices::new(4.0, 2.0).unwrap(), 1).is_err());
    }

    #[test]
    fn theorem3_edge_demand_is_independent_of_n_but_scales_with_budget() {
        let p = params();
        let prices = Prices::new(4.0, 2.0).unwrap();
        let r1 = theorem3_request(&p, &prices, 100.0).unwrap();
        let r2 = theorem3_request(&p, &prices, 200.0).unwrap();
        assert!((r2.edge / r1.edge - 2.0).abs() < 1e-12);
        assert!((r2.cloud / r1.cloud - 2.0).abs() < 1e-12);
    }
}
