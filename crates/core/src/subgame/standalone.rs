//! Standalone-mode miner subgame (Problem 1c, `GNEP_MINER`).
//!
//! Without load sharing, the ESP owns `E_max` units and rejects overflow, so
//! rational miners jointly respect `Σᵢ eᵢ ≤ E_max` — a *shared* constraint
//! that turns the follower stage into a jointly convex generalized Nash
//! equilibrium problem (GNEP). Existence follows variational-inequality
//! theory (paper Theorem 5); among the generally-infinite equilibria we
//! compute the **variational equilibrium** (equal shadow price on the shared
//! capacity), which is what the paper's Algorithm 2 converges to.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::cell::RefCell;

use mbm_game::game::Game;
use mbm_game::gnep::{IntersectionSet, ProductSet};
use mbm_game::profile::Profile;
use mbm_numerics::projection::{BudgetSet, ConvexSet, Halfspace};

use crate::error::MiningGameError;
use crate::params::{validate_budgets, MarketParams, Prices};
use crate::request::Request;
use crate::subgame::connected::{analytic_best_response, BestResponseInputs};
use crate::subgame::{budget_product, MinerEquilibrium, SubgameConfig, SymRun};
use crate::winning::{utility_gradient, utility_standalone};

/// The standalone-mode miner subgame as an [`mbm_game::game::Game`].
///
/// The per-player [`Game::best_response`] honours the *residual* capacity
/// `E_max − E₋ᵢ` (the generalized best response); the variational
/// equilibrium itself is computed on the shared set via the extragradient
/// method.
#[derive(Debug, Clone)]
pub struct StandaloneMinerGame {
    params: MarketParams,
    prices: Prices,
    budgets: Vec<f64>,
    sets: Vec<BudgetSet>,
    scratch: RefCell<Vec<Request>>,
}

impl StandaloneMinerGame {
    /// Creates the subgame.
    ///
    /// # Errors
    ///
    /// Returns [`MiningGameError::InvalidParameter`] for invalid budgets.
    pub fn new(
        params: MarketParams,
        prices: Prices,
        budgets: Vec<f64>,
    ) -> Result<Self, MiningGameError> {
        validate_budgets(&budgets)?;
        let sets = budgets
            .iter()
            .map(|&b| BudgetSet::new(vec![prices.edge, prices.cloud], b))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(StandaloneMinerGame { params, prices, budgets, sets, scratch: RefCell::new(Vec::new()) })
    }

    /// Runs `f` on the profile's request view (optionally edge-floored),
    /// reusing the scratch buffer.
    fn with_requests<R>(
        &self,
        profile: &Profile,
        edge_floor: f64,
        f: impl FnOnce(&[Request]) -> R,
    ) -> R {
        let mut scratch = self.scratch.borrow_mut();
        scratch.clear();
        scratch.extend((0..profile.num_players()).map(|i| {
            let b = profile.block(i);
            Request { edge: b[0].max(0.0).max(edge_floor), cloud: b[1].max(0.0) }
        }));
        f(&scratch)
    }

    /// The shared feasible set: every miner within budget, total edge demand
    /// within capacity.
    ///
    /// # Errors
    ///
    /// Propagates construction errors (cannot occur for validated params).
    pub fn shared_set(&self) -> Result<IntersectionSet<ProductSet, Halfspace>, MiningGameError> {
        let product = budget_product(&self.prices, &self.budgets)?;
        // Capacity half-space touches only the edge coordinates (pattern
        // [1, 0, 1, 0, ...]).
        let mut normal = vec![0.0; 2 * self.budgets.len()];
        for k in 0..self.budgets.len() {
            normal[2 * k] = 1.0;
        }
        let hs = Halfspace::new(normal, self.params.e_max())?;
        Ok(IntersectionSet::new(product, hs)?)
    }
}

impl Game for StandaloneMinerGame {
    fn num_players(&self) -> usize {
        self.budgets.len()
    }

    fn dim(&self, _i: usize) -> usize {
        2
    }

    fn utility(&self, i: usize, profile: &Profile) -> f64 {
        self.with_requests(profile, 0.0, |requests| {
            utility_standalone(i, requests, &self.prices, &self.params)
        })
    }

    fn project(&self, i: usize, strategy: &mut [f64], profile: &Profile) {
        // Individual projection: own budget plus the residual capacity left
        // by the other miners (the generalized feasible set K_i(r_{-i})).
        self.sets[i].project(strategy);
        // Sum the other miners' edge demand in player order (bitwise
        // identical to the allocating request-view formulation).
        let mut e_others = 0.0;
        for j in 0..profile.num_players() {
            if j != i {
                e_others += profile.block(j)[0].max(0.0);
            }
        }
        let residual = (self.params.e_max() - e_others).max(0.0);
        if strategy[0] > residual {
            strategy[0] = residual;
        }
    }

    fn gradient(&self, i: usize, profile: &Profile, out: &mut [f64]) {
        // The winning probability's edge share e_i/E is discontinuous at
        // E = 0: the convention "no edge, no bonus" creates a spurious
        // all-zero-edge VI solution that the extragradient method can fall
        // into (any single miner would in truth gain the whole β bonus by
        // buying ε edge units). Evaluating the operator at edge-floored
        // profiles keeps the escape direction visible while perturbing
        // genuine equilibria by at most the floor.
        const EDGE_FLOOR: f64 = 1e-7;
        let g = self.with_requests(profile, EDGE_FLOOR, |requests| {
            utility_gradient(i, requests, &self.prices, &self.params, 1.0)
        });
        out.copy_from_slice(&g);
    }

    fn best_response(&self, i: usize, profile: &Profile) -> Result<Vec<f64>, mbm_game::GameError> {
        let mut out = vec![0.0; 2];
        self.best_response_into(i, profile, &mut out)?;
        Ok(out)
    }

    fn best_response_into(
        &self,
        i: usize,
        profile: &Profile,
        out: &mut [f64],
    ) -> Result<(), mbm_game::GameError> {
        let mut edge_sum = 0.0;
        let mut cloud_sum = 0.0;
        for j in 0..profile.num_players() {
            let b = profile.block(j);
            edge_sum += b[0].max(0.0);
            cloud_sum += b[1].max(0.0);
        }
        let b_i = profile.block(i);
        let (e_i, c_i) = (b_i[0].max(0.0), b_i[1].max(0.0));
        let e_others = edge_sum - e_i;
        let inp = BestResponseInputs {
            reward: self.params.reward(),
            beta: self.params.fork_rate(),
            h: 1.0, // the standalone objective is the h = 1 form
            prices: self.prices,
            budget: self.budgets[i],
            e_others,
            s_others: (edge_sum + cloud_sum) - (e_i + c_i),
            edge_cap: Some((self.params.e_max() - e_others).max(0.0)),
        };
        let r = analytic_best_response(&inp).map_err(MiningGameError::into_game_error)?;
        out[0] = r.edge;
        out[1] = r.cloud;
        Ok(())
    }
}

/// Solves the standalone miner subgame for its variational equilibrium
/// (the follower half of the paper's Algorithm 2).
///
/// # Errors
///
/// Propagates parameter and solver errors.
pub fn solve_standalone_miner_subgame(
    params: &MarketParams,
    prices: &Prices,
    budgets: &[f64],
    cfg: &SubgameConfig,
) -> Result<MinerEquilibrium, MiningGameError> {
    crate::solver::solve_standalone_reported(params, prices, budgets, cfg).map(|(eq, _)| eq)
}

/// Fast path for homogeneous miners in standalone mode: symmetric fixed
/// point of the capacity-capped best response. When the capacity binds the
/// symmetric variational equilibrium has `e_i = E_max / n`, which this
/// iteration reproduces.
///
/// # Errors
///
/// Propagates parameter and convergence errors.
pub fn solve_symmetric_standalone(
    params: &MarketParams,
    prices: &Prices,
    budget: f64,
    n: usize,
    cfg: &SubgameConfig,
) -> Result<Request, MiningGameError> {
    crate::solver::solve_symmetric_standalone_reported(params, prices, budget, n, cfg)
        .map(|(r, _)| r)
}

/// The symmetric standalone fixed point itself: tier 1 of the symmetric
/// standalone chain. `omega` is the *effective* damping
/// ([`SubgameConfig::effective_damping_symmetric_standalone`]); see
/// `symmetric_connected_core` for the 1/n damping rationale — the
/// standalone map is steeper still (in the capacity-binding branch
/// `e_i = E_max − (n−1)ē` has slope `−(n−1)`), so the damping must stay
/// below `2/n` and `1.2/(n+1)` keeps a safety margin at every `n`.
#[allow(clippy::too_many_arguments)] // iteration budget plus the supervision salvage slot
pub(crate) fn symmetric_standalone_core(
    params: &MarketParams,
    prices: &Prices,
    budget: f64,
    n: usize,
    omega: f64,
    tol: f64,
    max_iter: usize,
    salvage: &mut Option<SymRun>,
) -> Result<SymRun, MiningGameError> {
    let m = (n - 1) as f64;
    let mut x = Request {
        edge: (budget / (4.0 * prices.edge)).min(params.e_max() / n as f64),
        cloud: budget / (4.0 * prices.cloud),
    };
    let mut residual = f64::INFINITY;
    for k in 0..max_iter {
        *salvage = Some(SymRun { x, iterations: k, residual });
        mbm_numerics::supervision::checkpoint(
            mbm_faults::sites::SYMMETRIC_FP,
            k,
            max_iter,
            residual,
        )?;
        let e_others = m * x.edge;
        let inp = BestResponseInputs {
            reward: params.reward(),
            beta: params.fork_rate(),
            h: 1.0,
            prices: *prices,
            budget,
            e_others,
            s_others: m * x.total(),
            edge_cap: Some((params.e_max() - e_others).max(0.0)),
        };
        let br = analytic_best_response(&inp)?;
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

#[cfg(test)]
mod tests {
    use super::*;

    fn params(e_max: f64) -> MarketParams {
        MarketParams::builder()
            .reward(100.0)
            .fork_rate(0.2)
            .edge_availability(0.8)
            .e_max(e_max)
            .build()
            .unwrap()
    }

    fn prices() -> Prices {
        Prices::new(4.0, 2.0).unwrap()
    }

    #[test]
    fn equilibrium_respects_capacity_and_budgets() {
        let p = params(2.0); // tight capacity
        let pr = prices();
        let budgets = vec![200.0; 4];
        let eq =
            solve_standalone_miner_subgame(&p, &pr, &budgets, &SubgameConfig::default()).unwrap();
        assert!(
            eq.aggregates.edge <= p.e_max() + 1e-6,
            "E = {} > E_max = {}",
            eq.aggregates.edge,
            p.e_max()
        );
        for (r, &b) in eq.requests.iter().zip(&budgets) {
            assert!(r.cost(&pr) <= b + 1e-6);
            assert!(r.edge >= -1e-12 && r.cloud >= -1e-12);
        }
    }

    #[test]
    fn capacity_binds_when_tight_and_splits_evenly_for_homogeneous() {
        let p = params(2.0);
        let pr = prices();
        let budgets = vec![200.0; 4];
        let eq =
            solve_standalone_miner_subgame(&p, &pr, &budgets, &SubgameConfig::default()).unwrap();
        // Unconstrained edge demand far exceeds 2.0, so capacity binds; the
        // variational equilibrium splits it evenly.
        assert!((eq.aggregates.edge - 2.0).abs() < 1e-3, "E = {}", eq.aggregates.edge);
        for r in &eq.requests {
            assert!((r.edge - 0.5).abs() < 1e-3, "{r:?}");
        }
    }

    #[test]
    fn loose_capacity_reduces_to_h_one_connected_nep() {
        use crate::subgame::connected::solve_symmetric_connected;
        // With a huge E_max the shared constraint is inactive, and the
        // standalone game equals the connected NEP at h = 1.
        let p = params(1e6);
        let p_h1 = MarketParams::builder()
            .reward(100.0)
            .fork_rate(0.2)
            .edge_availability(1.0)
            .e_max(1e6)
            .build()
            .unwrap();
        let pr = prices();
        let n = 4;
        let budget = 300.0;
        let standalone =
            solve_standalone_miner_subgame(&p, &pr, &vec![budget; n], &SubgameConfig::default())
                .unwrap();
        let connected =
            solve_symmetric_connected(&p_h1, &pr, budget, n, &SubgameConfig::default()).unwrap();
        for r in &standalone.requests {
            assert!((r.edge - connected.edge).abs() < 1e-3, "{r:?} vs {connected:?}");
            assert!((r.cloud - connected.cloud).abs() < 1e-3, "{r:?} vs {connected:?}");
        }
    }

    #[test]
    fn variational_residual_is_small_at_solution_and_large_off_it() {
        let p = params(3.0);
        let pr = prices();
        let budgets = vec![150.0; 3];
        let eq =
            solve_standalone_miner_subgame(&p, &pr, &budgets, &SubgameConfig::default()).unwrap();
        let certificate = |requests: &[Request]| {
            let blocks: Vec<Vec<f64>> = requests.iter().map(|r| vec![r.edge, r.cloud]).collect();
            let profile = Profile::from_blocks(&blocks).unwrap();
            let mut ws = mbm_game::gnep::GnepWorkspace::new();
            crate::subgame::equilibrium_certificate(
                crate::params::EdgeOperation::Standalone,
                &p,
                &pr,
                &budgets,
                &profile,
                &mut ws,
            )
            .unwrap()
        };
        let at_solution = certificate(&eq.requests);
        assert!(at_solution < 1e-3, "residual {at_solution}");
        let off_residual = certificate(&[Request::new(0.1, 0.1).unwrap(); 3]);
        assert!(off_residual > at_solution * 10.0, "{off_residual} vs {at_solution}");
    }

    #[test]
    fn symmetric_fast_path_matches_variational_equilibrium() {
        let p = params(2.0);
        let pr = prices();
        let n = 4;
        let budget = 200.0;
        let sym =
            solve_symmetric_standalone(&p, &pr, budget, n, &SubgameConfig::default()).unwrap();
        let full =
            solve_standalone_miner_subgame(&p, &pr, &vec![budget; n], &SubgameConfig::default())
                .unwrap();
        for r in &full.requests {
            assert!((r.edge - sym.edge).abs() < 2e-3, "{r:?} vs {sym:?}");
            assert!((r.cloud - sym.cloud).abs() < 2e-3, "{r:?} vs {sym:?}");
        }
    }

    #[test]
    fn generalized_best_response_respects_residual_capacity() {
        let p = params(1.0);
        let pr = prices();
        let game = StandaloneMinerGame::new(p, pr, vec![500.0, 500.0]).unwrap();
        // Other miner already uses 0.8 of the 1.0 capacity.
        let profile = Profile::from_blocks(&[vec![0.0, 5.0], vec![0.8, 5.0]]).unwrap();
        let br = Game::best_response(&game, 0, &profile).unwrap();
        assert!(br[0] <= 0.2 + 1e-9, "edge request {} exceeds residual", br[0]);
    }

    #[test]
    fn standalone_buys_more_edge_than_connected() {
        use crate::subgame::connected::solve_symmetric_connected;
        // Paper Section IV-C/Table II: the standalone mode encourages more
        // edge purchases (connected mode discounts the edge by h < 1).
        let p = params(50.0);
        let pr = prices();
        let n = 5;
        let budget = 200.0;
        let stand =
            solve_symmetric_standalone(&p, &pr, budget, n, &SubgameConfig::default()).unwrap();
        let conn =
            solve_symmetric_connected(&p, &pr, budget, n, &SubgameConfig::default()).unwrap();
        assert!(stand.edge > conn.edge, "standalone {stand:?} vs connected {conn:?}");
    }

    #[test]
    fn single_miner_is_rejected() {
        let p = params(10.0);
        assert!(solve_standalone_miner_subgame(&p, &prices(), &[100.0], &SubgameConfig::default())
            .is_err());
    }
}
