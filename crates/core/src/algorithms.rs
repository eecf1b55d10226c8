//! The paper's Algorithm 1 and Algorithm 2, as traced, inspectable runs.
//!
//! [`crate::stackelberg`] reports only the leader stage's fixed point; this
//! module runs the same leader search ([`leader_equilibrium`]) undamped
//! under the two published schedules — Algorithm 1 ("Asynchronous
//! Best-Response", leaders updating one at a time) and Algorithm 2 ("Price
//! Bargaining", miners responding and every provider re-pricing each round)
//! — and records every round, so convergence behaviour (including the
//! Edgeworth price cycles documented in DESIGN.md) can be inspected and
//! plotted. Both run on any number `K ≥ 2` of providers; the paper's market
//! is [`ProviderSet::from_market`].

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use mbm_game::stackelberg::{leader_equilibrium, LeaderParams, LeaderSchedule};
use mbm_game::GameError;
use serde::{Deserialize, Serialize};

use crate::error::MiningGameError;
use crate::market::{PriceVector, ProviderSet};
use crate::params::{EdgeOperation, MarketParams};
use crate::sp::stage::ProviderStage;
use crate::sp::MinerPopulation;
use crate::subgame::SubgameConfig;

/// One recorded round of a price algorithm.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PriceRound {
    /// Prices announced this round, `[P_e, P_c¹, …]`.
    pub prices: Vec<f64>,
    /// Per-provider demand at those prices (Bertrand allocation of the
    /// follower aggregates).
    pub demand: Vec<f64>,
    /// Per-provider profits at those prices.
    pub profits: Vec<f64>,
}

/// A full traced run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PriceTrace {
    /// All rounds, in order (the first entry is the starting point).
    pub rounds: Vec<PriceRound>,
    /// Whether the final round met the convergence tolerance.
    pub converged: bool,
}

impl PriceTrace {
    /// Final prices of the run.
    ///
    /// # Panics
    ///
    /// Never panics: a trace always holds at least the starting round.
    #[must_use]
    pub fn final_prices(&self) -> &[f64] {
        &self.rounds.last().expect("non-empty trace").prices
    }

    /// Detects an Edgeworth price cycle: the smallest period `p ≥ 2` such
    /// that the last `2p` rounds repeat with that period, within `tol` on
    /// every provider's price. Returns `None` for converged, short
    /// (fewer than 4 rounds) or aperiodic traces, and for the degenerate
    /// constant pseudo-cycle.
    #[must_use]
    pub fn detect_cycle(&self, tol: f64) -> Option<usize> {
        let n = self.rounds.len();
        if self.converged || n < 4 {
            return None;
        }
        let close = |i: usize, j: usize| {
            let (a, b) = (&self.rounds[i].prices, &self.rounds[j].prices);
            a.iter().zip(b).all(|(x, y)| (x - y).abs() <= tol)
        };
        (2..=(n / 2).min(12)).find(|&period| {
            (0..period).all(|k| close(n - 1 - k, n - 1 - k - period)) && !close(n - 1, n - 2)
        })
    }
}

/// Shared configuration for the traced algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AlgorithmConfig {
    /// Rounds to run at most.
    pub max_rounds: usize,
    /// Convergence tolerance on the price displacement per round.
    pub tol: f64,
    /// Grid points for each provider's one-dimensional price optimization.
    pub grid_points: usize,
    /// Grid refinement rounds.
    pub grid_rounds: usize,
    /// Follower-stage solver settings.
    pub subgame: SubgameConfig,
}

impl Default for AlgorithmConfig {
    fn default() -> Self {
        AlgorithmConfig {
            max_rounds: 40,
            tol: 1e-4,
            grid_points: 25,
            grid_rounds: 5,
            subgame: SubgameConfig::default(),
        }
    }
}

/// Algorithm 1 — Asynchronous Best-Response: starting from `init`, each
/// provider in index order (the edge provider first) observes the miners'
/// optimal requests, predicts every rival's strategy as its current price —
/// including the *new* prices of the providers that moved before it this
/// round — and re-prices optimally; stops when no price moves.
///
/// # Errors
///
/// Propagates parameter errors (including an `init` whose length is not
/// `providers.k()`); a non-convergent run is *not* an error — the trace
/// reports `converged = false` so cycles can be analyzed.
pub fn algorithm1_asynchronous_best_response(
    params: &MarketParams,
    providers: &ProviderSet,
    population: MinerPopulation,
    mode: EdgeOperation,
    init: &PriceVector,
    cfg: &AlgorithmConfig,
) -> Result<PriceTrace, MiningGameError> {
    let stage = ProviderStage::new(*params, providers.clone(), population, mode, cfg.subgame);
    run(&stage, init, cfg, LeaderSchedule::BestResponse)
}

/// Algorithm 2 — Price Bargaining: each round the miners respond to the
/// current prices, then *every* provider simultaneously announces a new
/// price optimized against the observed round.
///
/// # Errors
///
/// Propagates parameter errors; non-convergence is reported in the trace.
pub fn algorithm2_price_bargaining(
    params: &MarketParams,
    providers: &ProviderSet,
    population: MinerPopulation,
    mode: EdgeOperation,
    init: &PriceVector,
    cfg: &AlgorithmConfig,
) -> Result<PriceTrace, MiningGameError> {
    let stage = ProviderStage::new(*params, providers.clone(), population, mode, cfg.subgame);
    run(&stage, init, cfg, LeaderSchedule::Bargaining)
}

/// Both algorithms: the serial leader search under `schedule` with `cfg`'s
/// tolerance, round cap and grid and no damping, recording one round per
/// observed price vector. Running out of rounds is `converged: false`.
fn run(
    stage: &ProviderStage,
    init: &PriceVector,
    cfg: &AlgorithmConfig,
    schedule: LeaderSchedule,
) -> Result<PriceTrace, MiningGameError> {
    let k = stage.providers().k();
    if init.len() != k {
        return Err(MiningGameError::invalid(format!(
            "init prices have {} entries for {k} providers",
            init.len()
        )));
    }
    let params = LeaderParams {
        tol: cfg.tol,
        max_rounds: cfg.max_rounds,
        grid_points: cfg.grid_points,
        grid_rounds: cfg.grid_rounds,
        damping: 1.0,
    };
    let mut rounds = Vec::new();
    let outcome = leader_equilibrium(stage, init.to_vec(), &params, schedule, None, |prices| {
        rounds.push(record(stage, prices));
    });
    match outcome {
        Ok(_) => Ok(PriceTrace { rounds, converged: true }),
        Err(GameError::NoConvergence { .. }) => Ok(PriceTrace { rounds, converged: false }),
        Err(e) => Err(e.into()),
    }
}

/// One round at `prices`, which the search keeps inside the providers'
/// bounds — strictly positive and finite, so always a valid price vector.
fn record(stage: &ProviderStage, prices: &[f64]) -> PriceRound {
    let prices = PriceVector::new(prices).expect("leader search prices lie inside their bounds");
    let agg = stage.follower_demand(&prices).unwrap_or_default();
    PriceRound {
        prices: prices.to_vec(),
        demand: prices.allocate_demand(&agg),
        profits: stage.providers().profits(&prices, &agg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Provider;

    fn ne_params() -> MarketParams {
        MarketParams::builder()
            .reward(100.0)
            .fork_rate(0.2)
            .edge_availability(0.8)
            .esp(Provider::new(7.0, 15.0).unwrap())
            .csp(Provider::new(1.0, 8.0).unwrap())
            .e_max(5.0)
            .build()
            .unwrap()
    }

    fn cycle_params() -> MarketParams {
        // C_e = 2 below the CSP's stationary price: the Edgeworth region.
        MarketParams::builder()
            .reward(100.0)
            .fork_rate(0.2)
            .edge_availability(0.8)
            .esp(Provider::new(2.0, 10.0).unwrap())
            .csp(Provider::new(1.0, 8.0).unwrap())
            .build()
            .unwrap()
    }

    fn population() -> MinerPopulation {
        MinerPopulation::Homogeneous { budget: 200.0, n: 5 }
    }

    fn pair(edge: f64, cloud: f64) -> PriceVector {
        PriceVector::new(&[edge, cloud]).unwrap()
    }

    fn three_provider_set() -> ProviderSet {
        ProviderSet::new(vec![
            Provider::new(7.0, 15.0).unwrap(),
            Provider::new(1.0, 8.0).unwrap(),
            Provider::new(1.5, 8.0).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn algorithm1_converges_in_the_ne_region() {
        let p = ne_params();
        let trace = algorithm1_asynchronous_best_response(
            &p,
            &ProviderSet::from_market(&p),
            population(),
            EdgeOperation::Connected,
            &pair(10.0, 4.0),
            &AlgorithmConfig::default(),
        )
        .unwrap();
        assert!(trace.converged, "rounds = {}", trace.rounds.len());
        let final_prices = trace.final_prices();
        assert!((final_prices[0] - 15.0).abs() < 0.1, "{final_prices:?}");
        assert!(trace.detect_cycle(1e-3).is_none());
        // Recorded profits are consistent with the recorded demand.
        let last = trace.rounds.last().unwrap();
        assert!((last.profits[0] - (last.prices[0] - 7.0) * last.demand[0]).abs() < 1e-9);
    }

    #[test]
    fn algorithm2_agrees_with_algorithm1_in_the_ne_region() {
        let p = ne_params();
        let set = ProviderSet::from_market(&p);
        let init = pair(10.0, 4.0);
        let cfg = AlgorithmConfig::default();
        let a1 = algorithm1_asynchronous_best_response(
            &p,
            &set,
            population(),
            EdgeOperation::Connected,
            &init,
            &cfg,
        )
        .unwrap();
        let a2 = algorithm2_price_bargaining(
            &p,
            &set,
            population(),
            EdgeOperation::Connected,
            &init,
            &cfg,
        )
        .unwrap();
        assert!(a2.converged);
        let (f1, f2) = (a1.final_prices(), a2.final_prices());
        assert!((f1[0] - f2[0]).abs() < 0.2, "{f1:?} vs {f2:?}");
        assert!((f1[1] - f2[1]).abs() < 0.2, "{f1:?} vs {f2:?}");
    }

    #[test]
    fn edgeworth_region_cycles_and_is_detected() {
        let p = cycle_params();
        let trace = algorithm1_asynchronous_best_response(
            &p,
            &ProviderSet::from_market(&p),
            population(),
            EdgeOperation::Connected,
            &pair(6.0, 3.0),
            &AlgorithmConfig { max_rounds: 60, ..Default::default() },
        )
        .unwrap();
        assert!(!trace.converged, "unexpected convergence in the cycle region");
        let cycle = trace.detect_cycle(0.05);
        assert!(cycle.is_some(), "no cycle detected in {} rounds", trace.rounds.len());
    }

    #[test]
    fn standalone_algorithm2_converges() {
        let p = ne_params();
        let trace = algorithm2_price_bargaining(
            &p,
            &ProviderSet::from_market(&p),
            population(),
            EdgeOperation::Standalone,
            &pair(10.0, 4.0),
            &AlgorithmConfig::default(),
        )
        .unwrap();
        assert!(trace.converged);
        // Capacity respected along the whole trace.
        for r in &trace.rounds {
            assert!(r.demand[0] <= p.e_max() + 1e-4, "{r:?}");
        }
    }

    #[test]
    fn bertrand_undercutting_cycles_are_detected_for_k3() {
        // Symmetric cloud costs in the Edgeworth region of the two-leader
        // game: sequential undercutting among the clouds has no pure resting
        // point above cost, so the dynamics either converge near cost or
        // cycle — a cycling run must be detected, never misread as NE.
        let p = cycle_params();
        let set = ProviderSet::new(vec![
            Provider::new(2.0, 10.0).unwrap(),
            Provider::new(1.0, 8.0).unwrap(),
            Provider::new(1.0, 8.0).unwrap(),
        ])
        .unwrap();
        let trace = algorithm1_asynchronous_best_response(
            &p,
            &set,
            population(),
            EdgeOperation::Connected,
            &PriceVector::new(&[6.0, 3.0, 3.0]).unwrap(),
            &AlgorithmConfig { max_rounds: 25, ..Default::default() },
        )
        .unwrap();
        if !trace.converged {
            // Non-convergence must be a *recognized* cycle, not chaos.
            assert!(trace.detect_cycle(0.1).is_some(), "{} rounds", trace.rounds.len());
        }
    }

    #[test]
    fn dynamics_reject_mismatched_init() {
        let p = ne_params();
        for simultaneous in [false, true] {
            let algorithm = if simultaneous {
                algorithm2_price_bargaining
            } else {
                algorithm1_asynchronous_best_response
            };
            assert!(algorithm(
                &p,
                &three_provider_set(),
                population(),
                EdgeOperation::Connected,
                &pair(9.0, 3.0),
                &AlgorithmConfig::default(),
            )
            .is_err());
        }
    }

    #[test]
    fn cycle_detection_ignores_converged_traces() {
        let constant =
            PriceRound { prices: vec![2.0, 1.0], demand: vec![0.0; 2], profits: vec![0.0; 2] };
        let trace = PriceTrace { rounds: vec![constant.clone(); 10], converged: true };
        assert_eq!(trace.detect_cycle(1e-6), None);
        let trace = PriceTrace { rounds: vec![constant; 10], converged: false };
        // Constant non-converged trace: no *proper* cycle either.
        assert_eq!(trace.detect_cycle(1e-6), None);
    }
}
