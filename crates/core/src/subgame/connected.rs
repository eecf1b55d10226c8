//! Connected-mode miner subgame (Problem 1a, `NEP_MINER`).
//!
//! Each miner maximizes
//! `U_i = R[(1−β)(e_i+c_i)/S + βh e_i/E] − P_e e_i − P_c c_i`
//! over its budget set. The KKT system (paper Eqs. 12–15) yields an analytic
//! best response: with `σ₁² = hβR/(P_e−P_c)` and `σ₂² = (1−β)R/P_c`,
//!
//! ```text
//! E(λ) = sqrt(σ₁² E₋ᵢ / (1+λ)),   e_i = max(0, E(λ) − E₋ᵢ)
//! S(λ) = sqrt(σ₂² S₋ᵢ / (1+λ)),   s_i = max(0, S(λ) − S₋ᵢ),   c_i = s_i − e_i
//! ```
//!
//! with the budget multiplier `λ ≥ 0` found by bisection on the (monotone)
//! spending. (**Paper erratum**: the printed `σ₂²` uses `P_e`; the
//! first-order condition in `c_i` involves `P_c`, and only `P_c` is
//! consistent with the paper's own Theorem 3.) Corner cases — cloud
//! dominated (`P_e ≤ P_c`), `c_i = 0` forced, optional edge caps — fall back
//! to one-dimensional root finds on the combined first-order condition.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::cell::RefCell;

use mbm_game::game::Game;
use mbm_game::profile::Profile;
use mbm_numerics::projection::{BudgetSet, ConvexSet};
use mbm_numerics::roots::{brent, expand_bracket};

use crate::error::MiningGameError;
use crate::params::{validate_budgets, MarketParams, Prices};
use crate::request::Request;
use crate::winning::{utility_connected, utility_gradient};

/// Inputs of the analytic best response, independent of the game wiring.
#[derive(Debug, Clone, Copy)]
pub struct BestResponseInputs {
    /// Mining reward `R`.
    pub reward: f64,
    /// Fork rate `β`.
    pub beta: f64,
    /// Edge availability `h` (use `1.0` for the standalone objective).
    pub h: f64,
    /// Announced prices.
    pub prices: Prices,
    /// This miner's budget `B_i`.
    pub budget: f64,
    /// Other miners' total edge demand `E₋ᵢ`.
    pub e_others: f64,
    /// Other miners' total demand `S₋ᵢ`.
    pub s_others: f64,
    /// Optional cap on this miner's edge request (standalone residual
    /// capacity `E_max − E₋ᵢ`).
    pub edge_cap: Option<f64>,
}

/// Analytic best response of one miner (KKT solution of Problem 1a).
///
/// Conventions at degenerate aggregates: with `S₋ᵢ = 0` there is no
/// competition and the marginal value of every unit is zero, so the response
/// is the empty request; with `E₋ᵢ = 0` the edge-share bonus is an atom at
/// `e_i → 0⁺`, which we ignore (the response treats edge units as pure
/// `S`-share units) — equilibria of interest have `E > 0`.
///
/// # Errors
///
/// Returns [`MiningGameError::Numerics`] if an internal root find fails
/// (does not happen for admissible parameters) and
/// [`MiningGameError::InvalidParameter`] for non-positive budget.
pub fn analytic_best_response(inp: &BestResponseInputs) -> Result<Request, MiningGameError> {
    if !(inp.budget.is_finite() && inp.budget > 0.0) {
        return Err(MiningGameError::invalid(format!("budget = {} must be > 0", inp.budget)));
    }
    if inp.s_others <= 0.0 {
        return Ok(Request::default());
    }
    let respond = |lambda: f64| respond_at(inp, lambda);
    let free = respond(0.0)?;
    let spend = |r: &Request| inp.prices.edge * r.edge + inp.prices.cloud * r.cloud;
    if spend(&free) <= inp.budget {
        return Ok(free);
    }
    // Budget binds: bisect the multiplier. spend(λ) is continuous and
    // decreasing to zero, so a sign change always exists.
    let mut hi = 1.0;
    for _ in 0..200 {
        if spend(&respond(hi)?) <= inp.budget {
            break;
        }
        hi *= 2.0;
    }
    let mut lo = 0.0;
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        let r = respond(mid)?;
        let s = spend(&r);
        if (s - inp.budget).abs() <= 1e-12 * (1.0 + inp.budget) || (hi - lo) < 1e-14 * (1.0 + hi) {
            return Ok(r);
        }
        if s > inp.budget {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    respond(hi)
}

/// The KKT response at a fixed budget multiplier `λ`.
fn respond_at(inp: &BestResponseInputs, lambda: f64) -> Result<Request, MiningGameError> {
    let a = inp.reward * (1.0 - inp.beta); // S-share coefficient
    let d = inp.reward * inp.beta * inp.h; // edge-share coefficient
    let pe = inp.prices.edge;
    let pc = inp.prices.cloud;
    let scale = 1.0 + lambda;

    if pe <= pc {
        // Edge units are at least as cheap and strictly more useful: the
        // cloud is dominated, c_i = 0, and e_i solves the combined FOC.
        let e = solve_combined_foc(a, d, inp.s_others, inp.e_others, pe * scale, cap(inp))?;
        return Request::new(e, 0.0);
    }

    // Edge target from the e-FOC.
    let mut e = if inp.e_others > 0.0 && d > 0.0 {
        let target = (d * inp.e_others / (scale * (pe - pc))).sqrt();
        (target - inp.e_others).max(0.0)
    } else {
        0.0
    };
    if let Some(c) = cap(inp) {
        e = e.min(c);
    }
    // Total-demand target from the c-FOC.
    let s_target = (a * inp.s_others / (scale * pc)).sqrt();
    let s = (s_target - inp.s_others).max(0.0);
    if s >= e {
        return Request::new(e, s - e);
    }
    // The interior split is infeasible (c would be negative): c_i = 0 and
    // e_i absorbs both marginal terms.
    let e = solve_combined_foc(a, d, inp.s_others, inp.e_others, pe * scale, cap(inp))?;
    Request::new(e, 0.0)
}

fn cap(inp: &BestResponseInputs) -> Option<f64> {
    inp.edge_cap.map(|c| c.max(0.0))
}

/// Solves `a·S₋/(S₋+e)² + d·E₋/(E₋+e)² = price` for `e ≥ 0` (decreasing
/// left-hand side), clamped to `edge_cap`.
fn solve_combined_foc(
    a: f64,
    d: f64,
    s_others: f64,
    e_others: f64,
    price: f64,
    edge_cap: Option<f64>,
) -> Result<f64, MiningGameError> {
    let g = |e: f64| {
        let s_term = a * s_others / ((s_others + e) * (s_others + e));
        let e_term =
            if e_others > 0.0 { d * e_others / ((e_others + e) * (e_others + e)) } else { 0.0 };
        s_term + e_term - price
    };
    if g(0.0) <= 0.0 {
        return Ok(clamp_cap(0.0, edge_cap));
    }
    let bracket = expand_bracket(g, 0.0, 1.0, 200)?;
    let root = brent(g, bracket, 1e-12, 200)?;
    Ok(clamp_cap(root.x.max(0.0), edge_cap))
}

fn clamp_cap(e: f64, cap: Option<f64>) -> f64 {
    match cap {
        Some(c) => e.min(c),
        None => e,
    }
}

/// The connected-mode miner subgame as an [`mbm_game::game::Game`].
///
/// Per-miner budget sets are prebuilt at construction and profile→request
/// conversions go through an interior scratch buffer, so the [`Game`]
/// callbacks on the solver hot path never touch the heap. The scratch
/// `RefCell` keeps the game `!Sync`; every solve path constructs its game
/// locally, so nothing is shared across threads.
#[derive(Debug, Clone)]
pub struct ConnectedMinerGame {
    params: MarketParams,
    prices: Prices,
    budgets: Vec<f64>,
    sets: Vec<BudgetSet>,
    scratch: RefCell<Vec<Request>>,
}

impl ConnectedMinerGame {
    /// Creates the subgame for the given market, prices and miner budgets.
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
        Ok(ConnectedMinerGame { params, prices, budgets, sets, scratch: RefCell::new(Vec::new()) })
    }

    /// Announced prices.
    #[must_use]
    pub fn prices(&self) -> &Prices {
        &self.prices
    }

    /// Miner budgets.
    #[must_use]
    pub fn budgets(&self) -> &[f64] {
        &self.budgets
    }

    /// Runs `f` on the profile's request view, reusing the scratch buffer.
    fn with_requests<R>(&self, profile: &Profile, f: impl FnOnce(&[Request]) -> R) -> R {
        let mut scratch = self.scratch.borrow_mut();
        scratch.clear();
        scratch.extend((0..profile.num_players()).map(|i| {
            let b = profile.block(i);
            Request { edge: b[0].max(0.0), cloud: b[1].max(0.0) }
        }));
        f(&scratch)
    }
}

impl Game for ConnectedMinerGame {
    fn num_players(&self) -> usize {
        self.budgets.len()
    }

    fn dim(&self, _i: usize) -> usize {
        2
    }

    fn utility(&self, i: usize, profile: &Profile) -> f64 {
        self.with_requests(profile, |requests| {
            utility_connected(i, requests, &self.prices, &self.params)
        })
    }

    fn project(&self, i: usize, strategy: &mut [f64], _profile: &Profile) {
        self.sets[i].project(strategy);
    }

    fn gradient(&self, i: usize, profile: &Profile, out: &mut [f64]) {
        let g = self.with_requests(profile, |requests| {
            utility_gradient(
                i,
                requests,
                &self.prices,
                &self.params,
                self.params.edge_availability(),
            )
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
        // Aggregate in player order (matching `Aggregates::of`, so the result
        // is bitwise identical to the allocating formulation) without
        // materializing the request view.
        let mut edge_sum = 0.0;
        let mut cloud_sum = 0.0;
        for j in 0..profile.num_players() {
            let b = profile.block(j);
            edge_sum += b[0].max(0.0);
            cloud_sum += b[1].max(0.0);
        }
        let b_i = profile.block(i);
        let (e_i, c_i) = (b_i[0].max(0.0), b_i[1].max(0.0));
        let inp = BestResponseInputs {
            reward: self.params.reward(),
            beta: self.params.fork_rate(),
            h: self.params.edge_availability(),
            prices: self.prices,
            budget: self.budgets[i],
            e_others: edge_sum - e_i,
            s_others: (edge_sum + cloud_sum) - (e_i + c_i),
            edge_cap: None,
        };
        let r = analytic_best_response(&inp).map_err(MiningGameError::into_game_error)?;
        out[0] = r.edge;
        out[1] = r.cloud;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::TieredSolver;
    use crate::subgame::SubgameConfig;
    use mbm_game::nash::epsilon_equilibrium;

    fn params() -> MarketParams {
        MarketParams::builder().reward(100.0).fork_rate(0.2).edge_availability(0.8).build().unwrap()
    }

    fn prices() -> Prices {
        Prices::new(4.0, 2.0).unwrap()
    }

    #[test]
    fn analytic_br_matches_numeric_pg_br() {
        // Compare the KKT best response against the generic projected
        // gradient best response from the Game default implementation.
        let p = params();
        let pr = prices();
        let budgets = vec![200.0, 150.0, 80.0];
        let game = ConnectedMinerGame::new(p, pr, budgets).unwrap();
        let profile =
            Profile::from_blocks(&[vec![3.0, 6.0], vec![2.0, 5.0], vec![1.0, 4.0]]).unwrap();
        for i in 0..3 {
            let analytic = Game::best_response(&game, i, &profile).unwrap();
            // Default (numeric) best response from the trait:
            struct Numeric<'a>(&'a ConnectedMinerGame);
            impl Game for Numeric<'_> {
                fn num_players(&self) -> usize {
                    self.0.num_players()
                }
                fn dim(&self, i: usize) -> usize {
                    self.0.dim(i)
                }
                fn utility(&self, i: usize, p: &Profile) -> f64 {
                    self.0.utility(i, p)
                }
                fn project(&self, i: usize, s: &mut [f64], p: &Profile) {
                    self.0.project(i, s, p);
                }
                fn gradient(&self, i: usize, p: &Profile, out: &mut [f64]) {
                    self.0.gradient(i, p, out);
                }
            }
            let numeric = Game::best_response(&Numeric(&game), i, &profile).unwrap();
            for k in 0..2 {
                assert!(
                    (analytic[k] - numeric[k]).abs() < 2e-3,
                    "miner {i} coord {k}: analytic {} vs numeric {}",
                    analytic[k],
                    numeric[k]
                );
            }
        }
    }

    #[test]
    fn best_response_respects_budget() {
        let inp = BestResponseInputs {
            reward: 1000.0,
            beta: 0.2,
            h: 0.8,
            prices: prices(),
            budget: 10.0,
            e_others: 5.0,
            s_others: 20.0,
            edge_cap: None,
        };
        let r = analytic_best_response(&inp).unwrap();
        let spend = 4.0 * r.edge + 2.0 * r.cloud;
        assert!(spend <= 10.0 + 1e-9, "spend {spend}");
        // With a huge reward the budget must bind.
        assert!((spend - 10.0).abs() < 1e-6, "spend {spend}");
    }

    #[test]
    fn best_response_edge_cap_binds() {
        let base = BestResponseInputs {
            reward: 1000.0,
            beta: 0.2,
            h: 1.0,
            prices: prices(),
            budget: 1e6,
            e_others: 5.0,
            s_others: 20.0,
            edge_cap: None,
        };
        let free = analytic_best_response(&base).unwrap();
        assert!(free.edge > 1.0);
        let capped =
            analytic_best_response(&BestResponseInputs { edge_cap: Some(0.5), ..base }).unwrap();
        assert!(capped.edge <= 0.5 + 1e-12);
        // Cloud demand does not shrink when the edge is capped.
        assert!(capped.cloud >= free.cloud - 1e-9);
    }

    #[test]
    fn cloud_dominated_when_edge_cheaper() {
        let inp = BestResponseInputs {
            reward: 100.0,
            beta: 0.2,
            h: 0.8,
            prices: Prices::new(1.5, 2.0).unwrap(), // P_e < P_c
            budget: 100.0,
            e_others: 3.0,
            s_others: 10.0,
            edge_cap: None,
        };
        let r = analytic_best_response(&inp).unwrap();
        assert_eq!(r.cloud, 0.0);
        assert!(r.edge > 0.0);
    }

    #[test]
    fn no_competition_means_no_purchase() {
        let inp = BestResponseInputs {
            reward: 100.0,
            beta: 0.2,
            h: 0.8,
            prices: prices(),
            budget: 100.0,
            e_others: 0.0,
            s_others: 0.0,
            edge_cap: None,
        };
        assert_eq!(analytic_best_response(&inp).unwrap(), Request::default());
    }

    #[test]
    fn subgame_equilibrium_is_epsilon_ne() {
        let p = params();
        let pr = prices();
        let budgets = vec![200.0, 120.0, 60.0, 200.0, 90.0];
        let eq = TieredSolver::connected(&p, &pr, &budgets, &SubgameConfig::default())
            .solve_equilibrium()
            .unwrap()
            .0;
        let game = ConnectedMinerGame::new(p, pr, budgets).unwrap();
        let blocks: Vec<Vec<f64>> = eq.requests.iter().map(|r| vec![r.edge, r.cloud]).collect();
        let profile = Profile::from_blocks(&blocks).unwrap();
        let report = epsilon_equilibrium(&game, &profile).unwrap();
        assert!(report.epsilon < 1e-5, "epsilon = {}", report.epsilon);
    }

    #[test]
    fn equilibrium_requests_are_feasible() {
        let p = params();
        let pr = prices();
        let budgets = vec![50.0, 100.0];
        let eq = TieredSolver::connected(&p, &pr, &budgets, &SubgameConfig::default())
            .solve_equilibrium()
            .unwrap()
            .0;
        for (r, &b) in eq.requests.iter().zip(&budgets) {
            assert!(r.edge >= 0.0 && r.cloud >= 0.0);
            assert!(r.cost(&pr) <= b + 1e-7, "cost {} > budget {b}", r.cost(&pr));
        }
    }

    #[test]
    fn symmetric_fast_path_matches_full_solve() {
        let p = params();
        let pr = prices();
        let n = 5;
        let budget = 200.0;
        let sym = TieredSolver::symmetric_connected(&p, &pr, budget, n, &SubgameConfig::default())
            .solve_per_miner()
            .unwrap()
            .0;
        let eq = TieredSolver::connected(&p, &pr, &vec![budget; n], &SubgameConfig::default())
            .solve_equilibrium()
            .unwrap()
            .0;
        for r in &eq.requests {
            assert!((r.edge - sym.edge).abs() < 1e-5, "{r:?} vs {sym:?}");
            assert!((r.cloud - sym.cloud).abs() < 1e-5, "{r:?} vs {sym:?}");
        }
    }

    #[test]
    fn higher_cloud_price_pushes_miners_to_the_edge() {
        // The paper's Fig. 4: raising P_c raises equilibrium edge demand.
        let p = params();
        let cheap = TieredSolver::symmetric_connected(
            &p,
            &Prices::new(4.0, 1.5).unwrap(),
            200.0,
            5,
            &SubgameConfig::default(),
        )
        .solve_per_miner()
        .unwrap()
        .0;
        let dear = TieredSolver::symmetric_connected(
            &p,
            &Prices::new(4.0, 3.0).unwrap(),
            200.0,
            5,
            &SubgameConfig::default(),
        )
        .solve_per_miner()
        .unwrap()
        .0;
        assert!(dear.edge > cheap.edge, "{dear:?} vs {cheap:?}");
    }

    #[test]
    fn single_miner_is_rejected() {
        let p = params();
        assert!(TieredSolver::connected(&p, &prices(), &[100.0], &SubgameConfig::default())
            .solve_equilibrium()
            .is_err());
        assert!(TieredSolver::symmetric_connected(
            &p,
            &prices(),
            100.0,
            1,
            &SubgameConfig::default()
        )
        .solve_per_miner()
        .is_err());
    }
}
