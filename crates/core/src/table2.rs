//! Table II: closed-form comparison of the two edge operation modes for
//! homogeneous miners with sufficiently large budgets.
//!
//! The paper's headline observations, which these forms make exact:
//!
//! * the **total** demand `S` is identical in both modes
//!   (`S = (1−β)R(n−1)/(n P_c)` — the cloud first-order condition does not
//!   involve the edge at all);
//! * the **standalone** mode channels more of it to the ESP
//!   (`E_standalone = min(E_max, βR(n−1)/(n(P_e−P_c)))` versus
//!   `E_connected = hβR(n−1)/(n(P_e−P_c))`, smaller by the factor `h < 1`).

use serde::{Deserialize, Serialize};

use crate::error::MiningGameError;
use crate::params::{MarketParams, Prices};
use crate::request::Request;
use crate::subgame::homogeneous::corollary1_request;

/// Closed-form aggregates of one mode.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModeEntry {
    /// Per-miner equilibrium request.
    pub per_miner: Request,
    /// Total edge demand `E`.
    pub edge_total: f64,
    /// Total cloud demand `C`.
    pub cloud_total: f64,
    /// Total demand `S = E + C`.
    pub total: f64,
}

/// The full Table II row pair at given prices.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Table2 {
    /// Connected mode (availability `h`).
    pub connected: ModeEntry,
    /// Standalone mode (`h = 1` objective, capacity `E_max`).
    pub standalone: ModeEntry,
    /// Whether the standalone capacity binds at these prices.
    pub capacity_binds: bool,
}

/// Computes both closed forms (sufficient budgets, `n` homogeneous miners).
///
/// # Errors
///
/// Propagates the Corollary 1 validity region (`P_c` below the
/// mixed-strategy bound, `n ≥ 2`).
pub fn closed_forms(
    params: &MarketParams,
    prices: &Prices,
    n: usize,
) -> Result<Table2, MiningGameError> {
    let nf = n as f64;
    // Connected: Corollary 1 at the market's h.
    let conn = corollary1_request(params, prices, n)?;
    let connected = entry(conn, nf);

    // Standalone: the h = 1 forms with the capacity cap. Compute via a
    // temporary h = 1 market (same R, β, providers).
    let h1 = MarketParams::builder()
        .reward(params.reward())
        .fork_rate(params.fork_rate())
        .edge_availability(1.0)
        .esp(params.esp())
        .csp(params.csp())
        .e_max(params.e_max())
        .build()?;
    let free = corollary1_request(&h1, prices, n)?;
    let e_unconstrained = nf * free.edge;
    let capacity_binds = e_unconstrained > params.e_max();
    let standalone = if capacity_binds {
        // Capacity binds: E = E_max split evenly; S is unchanged (the cloud
        // FOC pins S), so c makes up the difference.
        let s_per = free.total();
        let e_per = params.e_max() / nf;
        let per = Request::new(e_per, (s_per - e_per).max(0.0))?;
        entry(per, nf)
    } else {
        entry(free, nf)
    };
    Ok(Table2 { connected, standalone, capacity_binds })
}

fn entry(per_miner: Request, nf: f64) -> ModeEntry {
    ModeEntry {
        per_miner,
        edge_total: nf * per_miner.edge,
        cloud_total: nf * per_miner.cloud,
        total: nf * per_miner.total(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::TieredSolver;
    use crate::subgame::SubgameConfig;

    fn params(e_max: f64) -> MarketParams {
        MarketParams::builder()
            .reward(100.0)
            .fork_rate(0.2)
            .edge_availability(0.8)
            .e_max(e_max)
            .build()
            .unwrap()
    }

    #[test]
    fn totals_are_equal_across_modes() {
        let p = params(5.0);
        let prices = Prices::new(4.0, 2.0).unwrap();
        let t = closed_forms(&p, &prices, 5).unwrap();
        assert!(
            (t.connected.total - t.standalone.total).abs() < 1e-9,
            "{} vs {}",
            t.connected.total,
            t.standalone.total
        );
    }

    #[test]
    fn standalone_buys_more_edge() {
        let p = params(50.0);
        let prices = Prices::new(4.0, 2.0).unwrap();
        let t = closed_forms(&p, &prices, 5).unwrap();
        assert!(t.standalone.edge_total > t.connected.edge_total);
        // Ratio is exactly 1/h when the capacity is slack.
        assert!(!t.capacity_binds);
        let ratio = t.standalone.edge_total / t.connected.edge_total;
        assert!((ratio - 1.0 / 0.8).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn capacity_binding_case_matches_numeric_equilibrium() {
        let p = params(2.0);
        let prices = Prices::new(4.0, 2.0).unwrap();
        let n = 5;
        let t = closed_forms(&p, &prices, n).unwrap();
        assert!(t.capacity_binds);
        assert!((t.standalone.edge_total - 2.0).abs() < 1e-12);
        // Numeric standalone equilibrium with a huge budget agrees.
        let numeric =
            TieredSolver::symmetric_standalone(&p, &prices, 1e7, n, &SubgameConfig::default())
                .solve_per_miner()
                .unwrap()
                .0;
        assert!(
            (numeric.edge - t.standalone.per_miner.edge).abs() < 1e-4,
            "{numeric:?} vs {:?}",
            t.standalone.per_miner
        );
        assert!(
            (numeric.cloud - t.standalone.per_miner.cloud).abs() < 1e-3,
            "{numeric:?} vs {:?}",
            t.standalone.per_miner
        );
    }

    #[test]
    fn slack_capacity_case_matches_numeric_equilibrium() {
        let p = params(1000.0);
        let prices = Prices::new(4.0, 2.0).unwrap();
        let n = 5;
        let t = closed_forms(&p, &prices, n).unwrap();
        assert!(!t.capacity_binds);
        let numeric =
            TieredSolver::symmetric_standalone(&p, &prices, 1e7, n, &SubgameConfig::default())
                .solve_per_miner()
                .unwrap()
                .0;
        assert!((numeric.edge - t.standalone.per_miner.edge).abs() < 1e-5);
        assert!((numeric.cloud - t.standalone.per_miner.cloud).abs() < 1e-5);
    }

    #[test]
    fn propagates_validity_errors() {
        let p = params(5.0);
        // P_c above the mixed-strategy bound.
        assert!(closed_forms(&p, &Prices::new(4.0, 3.9).unwrap(), 5).is_err());
        assert!(closed_forms(&p, &Prices::new(4.0, 2.0).unwrap(), 1).is_err());
    }
}
