//! High-level scenario API: one entry point for the whole model.
//!
//! Downstream users usually want "set up a market, pick a mode and a
//! population, solve, read a report" without assembling solvers by hand.
//! [`Scenario`] is that facade; it routes to the right solver (connected /
//! standalone / dynamic population; fixed prices or full Stackelberg) and
//! always returns a [`ScenarioOutcome`] with the same accounting.
//!
//! ```
//! use mbm_core::scenario::Scenario;
//! use mbm_core::params::{MarketParams, Provider};
//!
//! # fn main() -> Result<(), mbm_core::MiningGameError> {
//! let params = MarketParams::builder()
//!     .esp(Provider::new(7.0, 15.0)?)
//!     .csp(Provider::new(1.0, 8.0)?)
//!     .build()?;
//! let outcome = Scenario::connected(params)
//!     .homogeneous_miners(5, 200.0)
//!     .solve()?;
//! assert!(outcome.report.esp_profit > 0.0);
//! # Ok(())
//! # }
//! ```

use serde::{Deserialize, Serialize};

use crate::analysis::MarketReport;
use crate::error::MiningGameError;
pub use crate::params::EdgeOperation;
use crate::params::{validate_budgets, MarketParams, Prices};
use crate::request::{Aggregates, Request};
use crate::solver::{
    solve_connected_reported, solve_standalone_reported, solve_symmetric_connected_reported,
    solve_symmetric_dynamic_reported, solve_symmetric_standalone_reported, SolveReport,
};
use crate::stackelberg::{solve_connected, solve_standalone, StackelbergConfig};
use crate::subgame::dynamic::{DynamicConfig, Population};
use crate::subgame::MinerEquilibrium;

#[derive(Debug, Clone)]
enum PopulationSpec {
    Fixed(Vec<f64>),
    Dynamic { budget: f64, population: Population },
}

/// A fully specified market scenario, built fluently.
#[derive(Debug, Clone)]
pub struct Scenario {
    params: MarketParams,
    operation: EdgeOperation,
    population: Option<PopulationSpec>,
    fixed_prices: Option<Prices>,
    stackelberg: StackelbergConfig,
    dynamic: DynamicConfig,
}

/// The uniform result of any scenario solve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioOutcome {
    /// Prices the market cleared at (announced or equilibrium).
    pub prices: Prices,
    /// Per-miner equilibrium requests.
    pub requests: Vec<Request>,
    /// Full market accounting at those prices/requests.
    pub report: MarketReport,
    /// Whether the prices came from a leader equilibrium (`true`) or were
    /// fixed by the caller (`false`).
    pub prices_endogenous: bool,
}

impl Scenario {
    /// Starts a connected-mode scenario.
    #[must_use]
    pub fn connected(params: MarketParams) -> Self {
        Scenario::new(params, EdgeOperation::Connected)
    }

    /// Starts a standalone-mode scenario.
    #[must_use]
    pub fn standalone(params: MarketParams) -> Self {
        Scenario::new(params, EdgeOperation::Standalone)
    }

    fn new(params: MarketParams, operation: EdgeOperation) -> Self {
        Scenario {
            params,
            operation,
            population: None,
            fixed_prices: None,
            stackelberg: StackelbergConfig::default(),
            dynamic: DynamicConfig::default(),
        }
    }

    /// `n` identical miners with a common budget.
    #[must_use]
    pub fn homogeneous_miners(mut self, n: usize, budget: f64) -> Self {
        self.population = Some(PopulationSpec::Fixed(vec![budget; n]));
        self
    }

    /// Miners with explicit budgets.
    #[must_use]
    pub fn miners(mut self, budgets: Vec<f64>) -> Self {
        self.population = Some(PopulationSpec::Fixed(budgets));
        self
    }

    /// A permissionless population: `N ~ Gaussian(mean, sd²)` homogeneous
    /// miners with a common budget (Section V; solved at fixed prices).
    #[must_use]
    pub fn dynamic_population(mut self, population: Population, budget: f64) -> Self {
        self.population = Some(PopulationSpec::Dynamic { budget, population });
        self
    }

    /// Pins the prices instead of solving the leader stage.
    #[must_use]
    pub fn with_prices(mut self, prices: Prices) -> Self {
        self.fixed_prices = Some(prices);
        self
    }

    /// Overrides the Stackelberg solver configuration.
    #[must_use]
    pub fn with_stackelberg_config(mut self, cfg: StackelbergConfig) -> Self {
        self.stackelberg = cfg;
        self
    }

    /// Overrides the dynamic-population solver configuration.
    #[must_use]
    pub fn with_dynamic_config(mut self, cfg: DynamicConfig) -> Self {
        self.dynamic = cfg;
        self
    }

    /// Solves the scenario.
    ///
    /// # Errors
    ///
    /// * [`MiningGameError::InvalidParameter`] if no population was chosen,
    ///   a dynamic population is combined with endogenous prices (the paper
    ///   only analyzes fixed prices under uncertainty), or budgets are
    ///   invalid.
    /// * Solver errors (including honest `NoConvergence` in the
    ///   Edgeworth-cycle region — see DESIGN.md).
    pub fn solve(self) -> Result<ScenarioOutcome, MiningGameError> {
        self.solve_reported().map(|(outcome, _)| outcome)
    }

    /// Like [`Scenario::solve`], but also returns the [`SolveReport`] of
    /// the follower solve that produced the outcome's requests (for
    /// endogenous prices, the follower solve at the equilibrium prices).
    ///
    /// # Errors
    ///
    /// Same as [`Scenario::solve`].
    pub fn solve_reported(self) -> Result<(ScenarioOutcome, SolveReport), MiningGameError> {
        let population = self
            .population
            .clone()
            .ok_or_else(|| MiningGameError::invalid("Scenario: choose a miner population first"))?;
        match population {
            PopulationSpec::Fixed(budgets) => {
                validate_budgets(&budgets)?;
                let (prices, (equilibrium, report), endogenous) = match self.fixed_prices {
                    Some(prices) => {
                        (prices, self.follower_solve_reported(&prices, &budgets)?, false)
                    }
                    None => {
                        let sol = match self.operation {
                            EdgeOperation::Connected => {
                                solve_connected(&self.params, &budgets, &self.stackelberg)?
                            }
                            EdgeOperation::Standalone => {
                                solve_standalone(&self.params, &budgets, &self.stackelberg)?
                            }
                        };
                        (sol.prices, (sol.equilibrium, sol.report), true)
                    }
                };
                let market = MarketReport::new(&self.params, &prices, &equilibrium);
                Ok((
                    ScenarioOutcome {
                        prices,
                        requests: equilibrium.requests,
                        report: market,
                        prices_endogenous: endogenous,
                    },
                    report,
                ))
            }
            PopulationSpec::Dynamic { budget, ref population } => {
                let prices = self.dynamic_prices()?;
                let (per_miner, report) = solve_symmetric_dynamic_reported(
                    &self.params,
                    &prices,
                    budget,
                    population,
                    &self.dynamic,
                )?;
                Ok((self.dynamic_outcome(prices, per_miner, population), report))
            }
        }
    }

    /// Symmetric fast path: the per-miner equilibrium request of a
    /// homogeneous fixed-price scenario, via the closed-form-assisted
    /// symmetric solvers (paper Theorems 2–3) instead of the full NEP
    /// iteration. This is the solve the figure sweeps (Figs. 4–6) run at
    /// every grid point, so it skips the profile/report assembly of
    /// [`Scenario::solve`].
    ///
    /// # Errors
    ///
    /// * [`MiningGameError::InvalidParameter`] unless the scenario has
    ///   fixed prices and a homogeneous fixed population (equal budgets).
    /// * Solver errors from the symmetric subgame.
    pub fn solve_symmetric(self) -> Result<Request, MiningGameError> {
        self.solve_symmetric_reported().map(|(r, _)| r)
    }

    /// Like [`Scenario::solve_symmetric`], but also returns the
    /// [`SolveReport`] (method used, fallback hops, residuals).
    ///
    /// # Errors
    ///
    /// Same as [`Scenario::solve_symmetric`].
    pub fn solve_symmetric_reported(self) -> Result<(Request, SolveReport), MiningGameError> {
        let prices = self.fixed_prices.ok_or_else(|| {
            MiningGameError::invalid("Scenario: the symmetric fast path needs fixed prices")
        })?;
        let (budget, n) = match &self.population {
            Some(PopulationSpec::Fixed(budgets))
                if !budgets.is_empty() && budgets.iter().all(|b| *b == budgets[0]) =>
            {
                (budgets[0], budgets.len())
            }
            _ => {
                return Err(MiningGameError::invalid(
                    "Scenario: the symmetric fast path needs homogeneous miners \
                     (use homogeneous_miners)",
                ))
            }
        };
        match self.operation {
            EdgeOperation::Connected => solve_symmetric_connected_reported(
                &self.params,
                &prices,
                budget,
                n,
                &self.stackelberg.subgame,
            ),
            EdgeOperation::Standalone => solve_symmetric_standalone_reported(
                &self.params,
                &prices,
                budget,
                n,
                &self.stackelberg.subgame,
            ),
        }
    }

    fn follower_solve_reported(
        &self,
        prices: &Prices,
        budgets: &[f64],
    ) -> Result<(MinerEquilibrium, SolveReport), MiningGameError> {
        match self.operation {
            EdgeOperation::Connected => {
                solve_connected_reported(&self.params, prices, budgets, &self.stackelberg.subgame)
            }
            EdgeOperation::Standalone => {
                solve_standalone_reported(&self.params, prices, budgets, &self.stackelberg.subgame)
            }
        }
    }

    fn dynamic_prices(&self) -> Result<Prices, MiningGameError> {
        self.fixed_prices.ok_or_else(|| {
            MiningGameError::invalid(
                "Scenario: the dynamic-population scenario needs fixed prices (the paper's \
                 Section V analyzes price-taking miners under uncertainty)",
            )
        })
    }

    fn dynamic_outcome(
        &self,
        prices: Prices,
        per_miner: Request,
        population: &Population,
    ) -> ScenarioOutcome {
        // Report at the expected roster size (the discretized mean).
        let n_expected = population.pmf().mean().round().max(2.0) as usize;
        let requests = vec![per_miner; n_expected];
        let utilities: Vec<f64> = (0..n_expected)
            .map(|_| {
                crate::subgame::dynamic::expected_utility(
                    per_miner,
                    per_miner,
                    population,
                    &self.params,
                    &prices,
                    self.dynamic.mixing,
                )
            })
            .collect();
        let equilibrium = MinerEquilibrium {
            // `of_iter` keeps the aggregate pass allocation-free; the
            // requests vector itself is still materialized for the report.
            aggregates: Aggregates::of_iter(&requests),
            requests: requests.clone(),
            utilities,
            iterations: 0,
            residual: 0.0,
        };
        let report = MarketReport::new(&self.params, &prices, &equilibrium);
        ScenarioOutcome { prices, requests, report, prices_endogenous: false }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Provider;
    use crate::subgame::connected::solve_symmetric_connected;

    fn params() -> MarketParams {
        MarketParams::builder()
            .esp(Provider::new(7.0, 15.0).unwrap())
            .csp(Provider::new(1.0, 8.0).unwrap())
            .e_max(5.0)
            .build()
            .unwrap()
    }

    #[test]
    fn fixed_price_connected_scenario() {
        let out = Scenario::connected(params())
            .homogeneous_miners(5, 200.0)
            .with_prices(Prices::new(4.0, 2.0).unwrap())
            .solve()
            .unwrap();
        assert!(!out.prices_endogenous);
        assert_eq!(out.requests.len(), 5);
        assert!(out.report.edge_units > 0.0);
    }

    #[test]
    fn endogenous_price_scenario_matches_direct_solver() {
        let out = Scenario::connected(params()).homogeneous_miners(5, 200.0).solve().unwrap();
        let direct =
            solve_connected(&params(), &[200.0; 5], &StackelbergConfig::default()).unwrap();
        assert!(out.prices_endogenous);
        assert!((out.prices.edge - direct.prices.edge).abs() < 1e-9);
        assert!((out.report.esp_profit - direct.esp_profit).abs() < 1e-9);
    }

    #[test]
    fn standalone_scenario_respects_capacity() {
        let out = Scenario::standalone(params())
            .miners(vec![100.0, 200.0, 300.0])
            .with_prices(Prices::new(4.0, 2.0).unwrap())
            .solve()
            .unwrap();
        assert!(out.report.edge_units <= params().e_max() + 1e-6);
    }

    #[test]
    fn dynamic_scenario_requires_fixed_prices() {
        let err = Scenario::connected(params())
            .dynamic_population(Population::gaussian(8.0, 2.0).unwrap(), 300.0)
            .solve();
        assert!(err.is_err());

        let ok = Scenario::connected(params())
            .dynamic_population(Population::gaussian(8.0, 2.0).unwrap(), 300.0)
            .with_prices(Prices::new(4.0, 2.0).unwrap())
            .solve()
            .unwrap();
        assert!(!ok.requests.is_empty());
        assert!(ok.report.edge_units > 0.0);
    }

    #[test]
    fn missing_population_is_an_error() {
        assert!(Scenario::connected(params()).solve().is_err());
    }

    #[test]
    fn symmetric_fast_path_matches_direct_solver_bitwise() {
        let prices = Prices::new(4.0, 2.0).unwrap();
        let via_scenario = Scenario::connected(params())
            .homogeneous_miners(5, 200.0)
            .with_prices(prices)
            .solve_symmetric()
            .unwrap();
        let direct = solve_symmetric_connected(
            &params(),
            &prices,
            200.0,
            5,
            &StackelbergConfig::default().subgame,
        )
        .unwrap();
        assert_eq!(via_scenario.edge.to_bits(), direct.edge.to_bits());
        assert_eq!(via_scenario.cloud.to_bits(), direct.cloud.to_bits());
    }

    #[test]
    fn symmetric_fast_path_rejects_heterogeneous_or_priceless_scenarios() {
        let prices = Prices::new(4.0, 2.0).unwrap();
        assert!(Scenario::connected(params())
            .miners(vec![100.0, 200.0])
            .with_prices(prices)
            .solve_symmetric()
            .is_err());
        assert!(Scenario::connected(params())
            .homogeneous_miners(5, 200.0)
            .solve_symmetric()
            .is_err());
    }
}
