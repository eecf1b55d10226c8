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
//!
//! Every follower solve goes through [`crate::solver::TieredSolver`]; this
//! module holds the games, the one [`equilibrium_certificate`] and the one
//! damped symmetric fixed point the symmetric and dynamic chains iterate.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

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
use connected::{analytic_best_response, BestResponseInputs, ConnectedMinerGame};
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

    /// Damping actually used by the symmetric connected fixed point. The
    /// symmetric best-response map has slope ≈ `1 − n/2` at the fixed point
    /// (the √-shaped KKT targets), so the synchronous update is contracting
    /// only for `ω ≲ 4/n`; clamping at `3/(n + 2)` keeps a contraction
    /// factor ≈ 1/2 at every `n`.
    #[must_use]
    pub fn effective_damping_symmetric_connected(&self, n: usize) -> f64 {
        self.damping.min(3.0 / (n as f64 + 2.0))
    }

    /// Damping actually used by the symmetric standalone fixed point. The
    /// map is steeper than the connected one (in the capacity-binding branch
    /// `e_i = E_max − (n−1)ē` has slope `−(n−1)`), so the damping must stay
    /// below `2/n`; the `1.2/(n + 1)` clamp keeps a margin at every `n`.
    #[must_use]
    pub fn effective_damping_symmetric_standalone(&self, n: usize) -> f64 {
        self.damping.min(1.2 / (n as f64 + 1.0))
    }

    /// Damping actually used by the dynamic (population-expectation) fixed
    /// point: the symmetric map steepens with the expected population size
    /// as in the connected case, so the `3/(μ + 2)` clamp shrinks like `1/μ`.
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

/// Outcome of one [`symmetric_fixed_point`] run: the per-miner request plus
/// the iteration/residual bookkeeping the [`crate::solver::SolveReport`]
/// needs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SymRun {
    /// The symmetric per-miner request at the fixed point.
    pub x: Request,
    /// Fixed-point iterations used.
    pub iterations: usize,
    /// Final displacement residual.
    pub residual: f64,
}

/// Effective iteration controls of the [`symmetric_fixed_point`]: the
/// damping, stopping tolerance and iteration cap the tier resolved for this
/// solve (after the `SubgameConfig::effective_*` clamps).
#[derive(Debug, Clone, Copy)]
pub(crate) struct FixedPointBudget {
    pub omega: f64,
    pub tol: f64,
    pub max_iter: usize,
}

/// The damped symmetric fixed point `x ← (1 − ω)·x + ω·BR(x)` over
/// homogeneous miners: tier 1 of the symmetric connected and standalone
/// chains and of both dynamic chains, which differ only in `start` and
/// `best_response` (the map from everyone else's common request to one
/// miner's response). Before each iteration the current iterate becomes the
/// `salvage` and the `core.solver.symmetric_fp` checkpoint is probed; the
/// residual is the max-norm displacement of one damped step.
///
/// # Errors
///
/// Propagates best-response failures and checkpoint interruptions, and
/// returns `NoConvergence` when `fp.max_iter` steps leave the residual above
/// `fp.tol`.
pub(crate) fn symmetric_fixed_point(
    start: Request,
    fp: FixedPointBudget,
    salvage: &mut Option<SymRun>,
    mut best_response: impl FnMut(Request) -> Result<Request, MiningGameError>,
) -> Result<SymRun, MiningGameError> {
    let FixedPointBudget { omega, tol, max_iter } = fp;
    let mut x = start;
    let mut residual = f64::INFINITY;
    for k in 0..max_iter {
        *salvage = Some(SymRun { x, iterations: k, residual });
        mbm_numerics::supervision::checkpoint(
            mbm_faults::sites::SYMMETRIC_FP,
            k,
            max_iter,
            residual,
        )?;
        let br = best_response(x)?;
        let next = Request {
            edge: (1.0 - omega) * x.edge + omega * br.edge,
            cloud: (1.0 - omega) * x.cloud + omega * br.cloud,
        };
        residual = (next.edge - x.edge).abs().max((next.cloud - x.cloud).abs());
        x = next;
        if residual <= tol {
            return Ok(SymRun { x, iterations: k + 1, residual });
        }
    }
    *salvage = Some(SymRun { x, iterations: max_iter, residual });
    Err(MiningGameError::Game(mbm_game::GameError::NoConvergence {
        iterations: max_iter,
        residual,
    }))
}

/// Start of the symmetric chain of `mode` for `n` miners sharing `budget`:
/// the [`initial_request`] point, with the standalone edge request cut to
/// the capacity share `E_max / n`.
pub(crate) fn symmetric_start(
    mode: EdgeOperation,
    params: &MarketParams,
    prices: &Prices,
    budget: f64,
    n: usize,
) -> Result<Request, MiningGameError> {
    let mut x = initial_request(budget, prices)?;
    if mode == EdgeOperation::Standalone {
        x.edge = x.edge.min(params.e_max() / n as f64);
    }
    Ok(x)
}

/// One miner's analytic best response in the miner game of `mode` when the
/// other `n − 1` miners each play `x`: the map the symmetric chain iterates.
/// The standalone response is the `h = 1` form capped at the residual
/// capacity `E_max − (n − 1)·x_e`, so a binding capacity yields the
/// symmetric variational equilibrium `e_i = E_max / n`.
///
/// # Errors
///
/// Propagates [`analytic_best_response`] errors.
pub(crate) fn symmetric_best_response(
    mode: EdgeOperation,
    params: &MarketParams,
    prices: &Prices,
    budget: f64,
    n: usize,
    x: Request,
) -> Result<Request, MiningGameError> {
    let m = (n - 1) as f64;
    let e_others = m * x.edge;
    let (h, edge_cap) = match mode {
        EdgeOperation::Connected => (params.edge_availability(), None),
        EdgeOperation::Standalone => (1.0, Some((params.e_max() - e_others).max(0.0))),
    };
    analytic_best_response(&BestResponseInputs {
        reward: params.reward(),
        beta: params.fork_rate(),
        h,
        prices: *prices,
        budget,
        e_others,
        s_others: m * x.total(),
        edge_cap,
    })
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
