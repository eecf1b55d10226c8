//! The follower (miner) stage of the Stackelberg game.
//!
//! * [`connected`] — Problem 1a: the classical NEP when the ESP is connected
//!   to the CSP (Theorem 2 machinery: analytic KKT best responses and
//!   best-response dynamics).
//! * [`homogeneous`] — Theorem 3 and Corollary 1 closed forms for identical
//!   miners.
//! * [`standalone`] — Problem 1c: the GNEP under the shared capacity
//!   constraint `Σ eᵢ ≤ E_max` (Theorem 5 machinery: variational
//!   equilibrium).
//! * [`dynamic`] — Problem 1d: population uncertainty with
//!   `N ~ Gaussian(μ, σ²)`.

pub mod connected;
pub mod dynamic;
pub mod homogeneous;
pub mod standalone;

use mbm_game::gnep::{gnep_residual_in, GnepWorkspace, ProductSet};
use mbm_game::profile::Profile;
use mbm_numerics::projection::{BudgetSet, ConvexSet};
use serde::{Deserialize, Serialize};

use crate::error::MiningGameError;
use crate::params::{EdgeOperation, MarketParams, Prices};
use crate::request::{Aggregates, Request};
use connected::ConnectedMinerGame;
use standalone::StandaloneMinerGame;

/// Configuration shared by the miner-subgame solvers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SubgameConfig {
    /// Damping of the best-response dynamics in `(0, 1]`.
    pub damping: f64,
    /// Convergence tolerance on the request displacement.
    pub tol: f64,
    /// Sweep / iteration cap.
    pub max_iter: usize,
}

impl Default for SubgameConfig {
    fn default() -> Self {
        SubgameConfig { damping: 0.5, tol: 1e-9, max_iter: 5000 }
    }
}

impl SubgameConfig {
    /// Tolerance actually handed to the extragradient solver on the
    /// standalone (GNEP) path.
    ///
    /// The VI natural residual is a coarser convergence measure than the
    /// best-response displacement, so tolerances below `1e-10` are clamped;
    /// historically this happened silently inside the solver — it is now an
    /// explicit policy, recorded as a [`crate::solver::ConfigOverride`] in
    /// the [`crate::solver::SolveReport`] whenever it rewrites a user value.
    #[must_use]
    pub fn effective_tol(&self) -> f64 {
        self.tol.max(1e-10)
    }

    /// Iteration cap actually handed to the extragradient solver (and to
    /// escalation tiers). Extragradient steps are much cheaper than
    /// best-response sweeps, so caps below `20_000` are raised.
    #[must_use]
    pub fn effective_max_iter(&self) -> usize {
        self.max_iter.max(20_000)
    }

    /// Damping actually used by the symmetric connected fixed point: the
    /// synchronous update is contracting only for `ω ≲ 3/(n + 2)`, so larger
    /// requested dampings are clamped.
    #[must_use]
    pub fn effective_damping_symmetric_connected(&self, n: usize) -> f64 {
        self.damping.min(3.0 / (n as f64 + 2.0))
    }

    /// Damping actually used by the symmetric standalone fixed point (the
    /// shared capacity coupling needs the tighter `1.2/(n + 1)` clamp).
    #[must_use]
    pub fn effective_damping_symmetric_standalone(&self, n: usize) -> f64 {
        self.damping.min(1.2 / (n as f64 + 1.0))
    }

    /// Damping actually used by the dynamic (population-expectation) fixed
    /// point, clamped by the expected population size.
    #[must_use]
    pub fn effective_damping_dynamic(&self, mean_n: f64) -> f64 {
        self.damping.min(3.0 / (mean_n + 2.0))
    }

    /// Stopping tolerance actually used by the dynamic fixed point — the
    /// Gauss–Hermite expectation is itself only accurate to ~`1e-8`, so
    /// tighter requests are clamped.
    #[must_use]
    pub fn effective_tol_dynamic(&self) -> f64 {
        self.tol.max(1e-8)
    }
}

/// The shared feasible starting request `(b/(4 P_e), b/(4 P_c))` — an
/// interior point spending half the budget, used by every subgame solver.
///
/// # Errors
///
/// Returns [`MiningGameError::InvalidParameter`] if the budget is not
/// strictly positive (prices are validated by [`Prices`] construction).
pub fn initial_request(budget: f64, prices: &Prices) -> Result<Request, MiningGameError> {
    if !(budget.is_finite() && budget > 0.0) {
        return Err(MiningGameError::invalid(format!("budget {budget} must be > 0")));
    }
    Ok(Request { edge: budget / (4.0 * prices.edge), cloud: budget / (4.0 * prices.cloud) })
}

/// Writes the stacked feasible start for an `n`-miner profile into `out`
/// (flat `[e_0, c_0, e_1, c_1, …]`), spreading each budget as
/// [`initial_request`] does and — when a shared edge capacity `e_max` is
/// given — rescaling the edge coordinates to `0.95 · e_max / Σeᵢ` if the
/// start violates the capacity, exactly as the standalone solver always has.
///
/// # Errors
///
/// Returns [`MiningGameError::InvalidParameter`] if any budget is invalid.
pub fn initial_profile_into(
    budgets: &[f64],
    prices: &Prices,
    e_max: Option<f64>,
    out: &mut Vec<f64>,
) -> Result<(), MiningGameError> {
    out.clear();
    for &b in budgets {
        let r = initial_request(b, prices)?;
        out.push(r.edge);
        out.push(r.cloud);
    }
    if let Some(e_max) = e_max {
        let e_total: f64 = out.iter().step_by(2).sum();
        if e_total > e_max {
            let scale = e_max / e_total * 0.95;
            for e in out.iter_mut().step_by(2) {
                *e *= scale;
            }
        }
    }
    Ok(())
}

/// The per-miner budget sets `P_e·eᵢ + P_c·cᵢ ≤ Bᵢ` as one product set over
/// the stacked profile: the connected game's feasible set, and the
/// standalone game's before the capacity cut.
pub(crate) fn budget_product(
    prices: &Prices,
    budgets: &[f64],
) -> Result<ProductSet, MiningGameError> {
    let sets: Vec<Box<dyn ConvexSet + Send + Sync>> = budgets
        .iter()
        .map(|&b| {
            Ok(Box::new(BudgetSet::new(vec![prices.edge, prices.cloud], b)?)
                as Box<dyn ConvexSet + Send + Sync>)
        })
        .collect::<Result<_, MiningGameError>>()?;
    Ok(ProductSet::new(sets)?)
}

/// The equilibrium certificate of a follower profile: the GNEP/VI natural
/// residual of `profile` in the miner game of `mode` — over the budget-set
/// product for the connected NEP, intersected with the capacity half-space
/// `Σeᵢ ≤ E_max` for the standalone GNEP. Zero exactly at a (variational)
/// equilibrium. `ws` is scratch only; the value does not depend on it.
///
/// # Errors
///
/// Returns [`MiningGameError::InvalidParameter`] for invalid budgets.
pub fn equilibrium_certificate(
    mode: EdgeOperation,
    params: &MarketParams,
    prices: &Prices,
    budgets: &[f64],
    profile: &Profile,
    ws: &mut GnepWorkspace,
) -> Result<f64, MiningGameError> {
    Ok(match mode {
        EdgeOperation::Connected => {
            let game = ConnectedMinerGame::new(*params, *prices, budgets.to_vec())?;
            gnep_residual_in(&game, &budget_product(prices, budgets)?, profile, ws)
        }
        EdgeOperation::Standalone => {
            let game = StandaloneMinerGame::new(*params, *prices, budgets.to_vec())?;
            gnep_residual_in(&game, &game.shared_set()?, profile, ws)
        }
    })
}

/// Outcome of one symmetric fixed-point run (tier 1 of the symmetric solver
/// chains): the per-miner request plus the iteration/residual bookkeeping
/// the [`crate::solver::SolveReport`] needs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SymRun {
    /// The symmetric per-miner request at the fixed point.
    pub x: Request,
    /// Fixed-point iterations used.
    pub iterations: usize,
    /// Final displacement residual.
    pub residual: f64,
}

/// A solved miner subgame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MinerEquilibrium {
    /// Per-miner equilibrium requests.
    pub requests: Vec<Request>,
    /// Aggregates `(E, C)` at equilibrium.
    pub aggregates: Aggregates,
    /// Per-miner equilibrium utilities.
    pub utilities: Vec<f64>,
    /// Iterations/sweeps used by the solver.
    pub iterations: usize,
    /// Final solver residual (displacement or VI natural residual).
    pub residual: f64,
}
