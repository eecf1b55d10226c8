//! Revenue and welfare accounting shared by the experiment harness.

use serde::{Deserialize, Serialize};

use crate::params::{MarketParams, Prices};
use crate::subgame::MinerEquilibrium;

/// A full accounting of one solved market.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MarketReport {
    /// Prices the report was computed at.
    pub prices: Prices,
    /// Total edge demand `E`.
    pub edge_units: f64,
    /// Total cloud demand `C`.
    pub cloud_units: f64,
    /// ESP revenue `P_e·E`.
    pub esp_revenue: f64,
    /// CSP revenue `P_c·C`.
    pub csp_revenue: f64,
    /// ESP profit `(P_e − C_e)·E`.
    pub esp_profit: f64,
    /// CSP profit `(P_c − C_c)·C`.
    pub csp_profit: f64,
    /// Per-miner utilities.
    pub miner_utilities: Vec<f64>,
    /// Sum of provider profits and miner utilities.
    pub total_welfare: f64,
}

impl MarketReport {
    /// Builds the report from a solved miner subgame.
    #[must_use]
    pub fn new(params: &MarketParams, prices: &Prices, eq: &MinerEquilibrium) -> Self {
        let (esp_revenue, csp_revenue) = crate::sp::revenues(prices, &eq.aggregates);
        let (esp_profit, csp_profit) = crate::sp::profits(params, prices, &eq.aggregates);
        let miner_total: f64 = eq.utilities.iter().sum();
        MarketReport {
            prices: *prices,
            edge_units: eq.aggregates.edge,
            cloud_units: eq.aggregates.cloud,
            esp_revenue,
            csp_revenue,
            esp_profit,
            csp_profit,
            miner_utilities: eq.utilities.clone(),
            total_welfare: esp_profit + csp_profit + miner_total,
        }
    }

    /// Combined provider revenue (`Fig. 5(c)`'s near-constant series).
    #[must_use]
    pub fn sp_revenue(&self) -> f64 {
        self.esp_revenue + self.csp_revenue
    }

    /// Combined provider profit.
    #[must_use]
    pub fn sp_profit(&self) -> f64 {
        self.esp_profit + self.csp_profit
    }
}

/// The social welfare ceiling of the connected-mode market.
///
/// Summing the expected winning probabilities (Eq. 9) over miners gives
/// `Σ W_i = 1 − β(1 − h)`, so the total surplus available to miners and
/// providers together is `R(1 − β(1−h))` *minus* the real resource cost
/// `C_e E + C_c C`. A planner would spend (almost) nothing on computing —
/// PoW effort is pure rent-seeking — so the ceiling is the reward mass
/// itself.
#[must_use]
pub fn welfare_upper_bound_connected(params: &MarketParams) -> f64 {
    params.reward() * (1.0 - params.fork_rate() * (1.0 - params.edge_availability()))
}

/// The standalone-mode welfare ceiling: with every request served at full
/// value (`Σ W_i^h = 1`, Theorem 1), the ceiling is the whole reward `R`.
#[must_use]
pub fn welfare_upper_bound_standalone(params: &MarketParams) -> f64 {
    params.reward()
}

/// Mining efficiency: realized total welfare over the mode's welfare
/// ceiling — a price-of-anarchy-style measure of how much of the block
/// reward the mining competition burns on computing resources.
///
/// Values are in `(0, 1]`; the gap `1 − efficiency` is exactly the
/// real resource cost `(C_e E + C_c C)` plus any fork loss, as a fraction
/// of the ceiling.
#[must_use]
pub fn mining_efficiency(report: &MarketReport, ceiling: f64) -> f64 {
    if ceiling <= 0.0 {
        return 0.0;
    }
    report.total_welfare / ceiling
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::TieredSolver;
    use crate::subgame::SubgameConfig;

    #[test]
    fn report_is_internally_consistent() {
        let params = MarketParams::builder().build().unwrap();
        let prices = Prices::new(4.0, 2.0).unwrap();
        let eq = TieredSolver::connected(&params, &prices, &[200.0; 5], &SubgameConfig::default())
            .solve_equilibrium()
            .unwrap()
            .0;
        let report = MarketReport::new(&params, &prices, &eq);
        assert!((report.esp_revenue - 4.0 * report.edge_units).abs() < 1e-9);
        assert!((report.csp_revenue - 2.0 * report.cloud_units).abs() < 1e-9);
        assert!((report.esp_profit - (4.0 - 2.0) * report.edge_units).abs() < 1e-9);
        assert!(report.sp_revenue() >= report.sp_profit());
        let miner_total: f64 = report.miner_utilities.iter().sum();
        assert!((report.total_welfare - (report.sp_profit() + miner_total)).abs() < 1e-9);
        assert_eq!(report.miner_utilities.len(), 5);
    }

    #[test]
    fn welfare_identity_holds_at_equilibrium() {
        // Total welfare = R·ΣW − resource costs; with ΣW = 1 − β(1−h) the
        // identity pins the efficiency gap to the resource burn.
        let params = MarketParams::builder().build().unwrap();
        let prices = Prices::new(4.0, 2.0).unwrap();
        let eq = TieredSolver::connected(&params, &prices, &[200.0; 5], &SubgameConfig::default())
            .solve_equilibrium()
            .unwrap()
            .0;
        let report = MarketReport::new(&params, &prices, &eq);
        let ceiling = welfare_upper_bound_connected(&params);
        assert!((ceiling - 100.0 * (1.0 - 0.2 * 0.2)).abs() < 1e-12);
        let resource_cost =
            params.esp().cost() * report.edge_units + params.csp().cost() * report.cloud_units;
        assert!(
            (report.total_welfare - (ceiling - resource_cost)).abs() < 1e-6,
            "welfare {} vs ceiling {} - cost {}",
            report.total_welfare,
            ceiling,
            resource_cost
        );
        let eff = mining_efficiency(&report, ceiling);
        assert!(eff > 0.0 && eff <= 1.0, "efficiency {eff}");
    }

    #[test]
    fn standalone_ceiling_is_the_reward() {
        let params = MarketParams::builder().build().unwrap();
        assert_eq!(welfare_upper_bound_standalone(&params), 100.0);
        assert_eq!(
            mining_efficiency(
                &MarketReport {
                    prices: Prices::new(1.0, 1.0).unwrap(),
                    edge_units: 0.0,
                    cloud_units: 0.0,
                    esp_revenue: 0.0,
                    csp_revenue: 0.0,
                    esp_profit: 0.0,
                    csp_profit: 0.0,
                    miner_utilities: vec![],
                    total_welfare: 50.0,
                },
                0.0
            ),
            0.0
        );
    }

    #[test]
    fn sp_revenue_bounded_by_total_miner_budgets() {
        // Miners cannot spend more than they have.
        let params = MarketParams::builder().build().unwrap();
        let prices = Prices::new(4.0, 2.0).unwrap();
        let budgets = [50.0; 5];
        let eq = TieredSolver::connected(&params, &prices, &budgets, &SubgameConfig::default())
            .solve_equilibrium()
            .unwrap()
            .0;
        let report = MarketReport::new(&params, &prices, &eq);
        assert!(report.sp_revenue() <= 250.0 + 1e-6);
    }
}
