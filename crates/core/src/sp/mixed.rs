//! Mixed-strategy pricing for the Edgeworth-cycle region.
//!
//! Where the leader game has no pure Nash equilibrium (see DESIGN.md §2),
//! the economically meaningful prediction is a *mixed* price distribution.
//! This module discretizes each provider's price interval, tabulates the
//! resulting bimatrix game (each cell is a full miner-subgame solve), and
//! runs regret matching; the time-average strategies approximate the
//! invariant price distribution of the cycle, with an exploitability
//! certificate.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use mbm_game::matrix::{regret_matching, BimatrixGame, RegretOutcome};
use serde::{Deserialize, Serialize};

use crate::error::MiningGameError;
use crate::market::PriceVector;
use crate::params::{EdgeOperation, MarketParams, Prices};
use crate::sp::stage::ProviderStage;
use crate::sp::MinerPopulation;
use crate::subgame::SubgameConfig;

/// Configuration for [`mixed_price_equilibrium`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MixedPricingConfig {
    /// Grid points per provider's price interval.
    pub grid_points: usize,
    /// Regret-matching iterations.
    pub iterations: usize,
    /// RNG seed for the regret dynamics.
    pub seed: u64,
    /// Follower-stage solver settings.
    pub subgame: SubgameConfig,
}

impl Default for MixedPricingConfig {
    fn default() -> Self {
        MixedPricingConfig {
            grid_points: 15,
            iterations: 200_000,
            seed: 2019,
            subgame: SubgameConfig::default(),
        }
    }
}

/// A mixed-strategy price prediction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MixedPriceEquilibrium {
    /// The ESP's price grid.
    pub edge_grid: Vec<f64>,
    /// The CSP's price grid.
    pub cloud_grid: Vec<f64>,
    /// The ESP's time-average mixed strategy over its grid.
    pub edge_strategy: Vec<f64>,
    /// The CSP's time-average mixed strategy over its grid.
    pub cloud_strategy: Vec<f64>,
    /// Mean announced prices under the mixture.
    pub mean_prices: Prices,
    /// Best pure-deviation gains `(ESP, CSP)` — the equilibrium-quality
    /// certificate (small means nearly a coarse correlated equilibrium).
    pub exploitability: (f64, f64),
    /// Whether the underlying discretized game has any pure equilibrium.
    pub has_pure_equilibrium: bool,
}

/// Tabulates the discretized leader game and runs regret matching.
///
/// Cells whose follower stage fails to converge are assigned a large
/// negative payoff for both providers, so the dynamics avoid them.
///
/// # Errors
///
/// Propagates construction errors from the game layers.
pub fn mixed_price_equilibrium(
    params: &MarketParams,
    population: MinerPopulation,
    mode: EdgeOperation,
    cfg: &MixedPricingConfig,
) -> Result<MixedPriceEquilibrium, MiningGameError> {
    if cfg.grid_points < 2 {
        return Err(MiningGameError::invalid("mixed pricing needs at least 2 grid points"));
    }
    let stage = ProviderStage::two_provider(*params, population, mode, cfg.subgame);
    let providers = stage.providers();
    let edge_grid = price_grid(providers.bounds(0), cfg.grid_points);
    let cloud_grid = price_grid(providers.bounds(1), cfg.grid_points);

    const INFEASIBLE: f64 = -1e6;
    let game = BimatrixGame::from_fn(edge_grid.len(), cloud_grid.len(), |i, j| {
        match PriceVector::new(&[edge_grid[i], cloud_grid[j]])
            .ok()
            .and_then(|p| stage.follower_demand(&p).map(|d| (p, d)))
        {
            Some((p, d)) => (providers.profit(0, &p, &d), providers.profit(1, &p, &d)),
            None => (INFEASIBLE, INFEASIBLE),
        }
    })?;
    let has_pure_equilibrium = !game.pure_equilibria().is_empty();
    let RegretOutcome { row_strategy, col_strategy, exploitability, .. } =
        regret_matching(&game, cfg.iterations, cfg.seed)?;

    let mean_edge: f64 = edge_grid.iter().zip(&row_strategy).map(|(p, w)| p * w).sum();
    let mean_cloud: f64 = cloud_grid.iter().zip(&col_strategy).map(|(p, w)| p * w).sum();
    Ok(MixedPriceEquilibrium {
        edge_grid,
        cloud_grid,
        edge_strategy: row_strategy,
        cloud_strategy: col_strategy,
        mean_prices: Prices::new(mean_edge.max(1e-9), mean_cloud.max(1e-9))?,
        exploitability,
        has_pure_equilibrium,
    })
}

/// `points` prices evenly spaced over `(lo, cap]`.
fn price_grid((lo, cap): (f64, f64), points: usize) -> Vec<f64> {
    (1..=points).map(|k| lo + (cap - lo) * k as f64 / points as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Provider;

    fn cycle_params() -> MarketParams {
        MarketParams::builder()
            .reward(100.0)
            .fork_rate(0.2)
            .edge_availability(0.8)
            .esp(Provider::new(2.0, 10.0).unwrap())
            .csp(Provider::new(1.0, 8.0).unwrap())
            .build()
            .unwrap()
    }

    fn ne_params() -> MarketParams {
        MarketParams::builder()
            .reward(100.0)
            .fork_rate(0.2)
            .edge_availability(0.8)
            .esp(Provider::new(7.0, 15.0).unwrap())
            .csp(Provider::new(1.0, 8.0).unwrap())
            .build()
            .unwrap()
    }

    fn population() -> MinerPopulation {
        MinerPopulation::Homogeneous { budget: 200.0, n: 5 }
    }

    #[test]
    fn cycle_region_yields_a_genuinely_mixed_prediction() {
        let cfg = MixedPricingConfig { grid_points: 9, iterations: 60_000, ..Default::default() };
        let out =
            mixed_price_equilibrium(&cycle_params(), population(), EdgeOperation::Connected, &cfg)
                .unwrap();
        // Strategies are distributions.
        let sum_e: f64 = out.edge_strategy.iter().sum();
        let sum_c: f64 = out.cloud_strategy.iter().sum();
        assert!((sum_e - 1.0).abs() < 1e-9 && (sum_c - 1.0).abs() < 1e-9);
        // The ESP randomizes: no single grid point carries (almost) all mass.
        let max_mass = out.edge_strategy.iter().fold(0.0f64, |m, &p| m.max(p));
        assert!(max_mass < 0.95, "ESP strategy nearly pure: {:?}", out.edge_strategy);
        // Mean prices are inside the admissible boxes.
        assert!(out.mean_prices.edge > 2.0 && out.mean_prices.edge <= 10.0);
        assert!(out.mean_prices.cloud > 1.0 && out.mean_prices.cloud <= 8.0);
    }

    #[test]
    fn ne_region_concentrates_near_the_pure_equilibrium() {
        let cfg = MixedPricingConfig { grid_points: 9, iterations: 60_000, ..Default::default() };
        let out =
            mixed_price_equilibrium(&ne_params(), population(), EdgeOperation::Connected, &cfg)
                .unwrap();
        assert!(out.has_pure_equilibrium);
        // The ESP's mass concentrates on the cap (its dominant strategy).
        let last = *out.edge_strategy.last().unwrap();
        assert!(last > 0.8, "cap mass {last}: {:?}", out.edge_strategy);
        // Low exploitability relative to the profit scale (~50).
        assert!(out.exploitability.0 < 5.0, "{:?}", out.exploitability);
    }

    #[test]
    fn validation() {
        let cfg = MixedPricingConfig { grid_points: 1, ..Default::default() };
        assert!(mixed_price_equilibrium(
            &ne_params(),
            population(),
            EdgeOperation::Connected,
            &cfg
        )
        .is_err());
    }
}
