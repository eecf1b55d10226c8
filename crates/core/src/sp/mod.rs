//! The leader stage: service-provider profits and pricing.
//!
//! * [`pricing`] — closed-form helpers: Theorem 4 (connected mode,
//!   homogeneous budget-binding miners), the standalone market-clearing edge
//!   price and the standalone CSP closed form (Table II).
//! * [`stage`] — the [`mbm_game::stackelberg::LeaderStage`] embedding the
//!   miner subgame into every provider's payoff (backward induction), for
//!   any number of providers.
//! * [`mixed`] — mixed-strategy pricing via regret matching on the
//!   discretized leader game, for the Edgeworth-cycle region where no pure
//!   equilibrium exists.
//!
//! [`profits`] and [`revenues`] account a follower outcome at the reduced
//! price pair (the market report and the serve wire).

pub mod mixed;
pub mod pricing;
pub mod stage;

use serde::{Deserialize, Serialize};

use crate::params::{MarketParams, Prices};
use crate::request::Aggregates;

/// Which miner population the leader stage anticipates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MinerPopulation {
    /// `n` identical miners with a common budget (enables the symmetric
    /// fast-path follower solver).
    Homogeneous {
        /// Common budget `B`.
        budget: f64,
        /// Number of miners.
        n: usize,
    },
    /// Arbitrary budgets (full NEP/GNEP follower solve).
    Heterogeneous {
        /// Per-miner budgets.
        budgets: Vec<f64>,
    },
}

impl MinerPopulation {
    /// Budgets as a vector.
    #[must_use]
    pub fn budgets(&self) -> Vec<f64> {
        match self {
            MinerPopulation::Homogeneous { budget, n } => vec![*budget; *n],
            MinerPopulation::Heterogeneous { budgets } => budgets.clone(),
        }
    }

    /// Number of miners.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            MinerPopulation::Homogeneous { n, .. } => *n,
            MinerPopulation::Heterogeneous { budgets } => budgets.len(),
        }
    }

    /// Whether the population is empty (never true for validated inputs).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Provider profits `V_e = (P_e − C_e)·E`, `V_c = (P_c − C_c)·C`
/// (paper Problem 2).
#[must_use]
pub fn profits(params: &MarketParams, prices: &Prices, agg: &Aggregates) -> (f64, f64) {
    (
        (prices.edge - params.esp().cost()) * agg.edge,
        (prices.cloud - params.csp().cost()) * agg.cloud,
    )
}

/// Provider revenues `P_e·E` and `P_c·C`.
#[must_use]
pub fn revenues(prices: &Prices, agg: &Aggregates) -> (f64, f64) {
    (prices.edge * agg.edge, prices.cloud * agg.cloud)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_helpers() {
        let h = MinerPopulation::Homogeneous { budget: 100.0, n: 3 };
        assert_eq!(h.budgets(), vec![100.0, 100.0, 100.0]);
        assert_eq!(h.len(), 3);
        assert!(!h.is_empty());
        let het = MinerPopulation::Heterogeneous { budgets: vec![10.0, 20.0] };
        assert_eq!(het.budgets(), vec![10.0, 20.0]);
        assert_eq!(het.len(), 2);
    }

    #[test]
    fn profit_and_revenue_accounting() {
        let params = MarketParams::builder().build().unwrap(); // C_e = 2, C_c = 1
        let prices = Prices::new(5.0, 3.0).unwrap();
        let agg = Aggregates { edge: 10.0, cloud: 20.0 };
        let (ve, vc) = profits(&params, &prices, &agg);
        assert_eq!(ve, 30.0);
        assert_eq!(vc, 40.0);
        let (re, rc) = revenues(&prices, &agg);
        assert_eq!(re, 50.0);
        assert_eq!(rc, 60.0);
    }
}
