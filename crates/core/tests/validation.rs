//! API-boundary input validation: no NaN/Inf/non-positive price or budget,
//! empty budget set or degenerate miner count may ever reach a solver tier.
//!
//! The tiered solver validates before its first tier runs and rejects with
//! the typed [`MiningGameError::InvalidParameter`]. Tiers themselves report
//! failures as `Game`/`Numerics`/`OutsideValidityRegion` errors, so seeing
//! `InvalidParameter` proves the poisoned input was stopped at the boundary.

use mbm_core::error::MiningGameError;
use mbm_core::params::{MarketParams, Prices};
use mbm_core::solver::TieredSolver;
use mbm_core::subgame::SubgameConfig;
use proptest::prelude::*;

fn market() -> MarketParams {
    MarketParams::builder()
        .reward(100.0)
        .fork_rate(0.2)
        .edge_availability(0.8)
        .e_max(5.0)
        .build()
        .unwrap()
}

/// Bypasses `Prices::new` the way a deserialized or hand-built struct can.
fn raw_prices(edge: f64, cloud: f64) -> Prices {
    Prices { edge, cloud }
}

fn rejected_at_boundary(err: &MiningGameError) {
    assert!(
        matches!(err, MiningGameError::InvalidParameter(_)),
        "expected boundary rejection, got a tier-level error: {err}"
    );
    assert!(!err.is_convergence_failure());
    assert!(!err.is_interruption());
}

/// Values that must never reach a solver kernel in a price or budget slot.
const POISON: [f64; 6] =
    [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, 0.0, -f64::MIN_POSITIVE];

fn poison() -> impl Strategy<Value = f64> {
    (0usize..POISON.len()).prop_map(|i| POISON[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Poisoning either price slot rejects every chain at the boundary.
    #[test]
    fn non_finite_prices_never_reach_a_tier(
        bad in poison(),
        good in 0.5f64..8.0,
        into_edge in any::<bool>(),
        budget in 10.0f64..500.0,
    ) {
        let params = market();
        let prices = if into_edge { raw_prices(bad, good) } else { raw_prices(good, bad) };
        let cfg = SubgameConfig::default();
        let budgets = [budget, budget * 0.5, budget * 2.0];

        rejected_at_boundary(
            &TieredSolver::connected(&params, &prices, &budgets, &cfg).solve_equilibrium().unwrap_err(),
        );
        rejected_at_boundary(
            &TieredSolver::standalone(&params, &prices, &budgets, &cfg).solve_equilibrium().unwrap_err(),
        );
        rejected_at_boundary(
            &TieredSolver::symmetric_connected(&params, &prices, budget, 4, &cfg).solve_per_miner().unwrap_err(),
        );
        rejected_at_boundary(
            &TieredSolver::symmetric_standalone(&params, &prices, budget, 4, &cfg).solve_per_miner().unwrap_err(),
        );
        rejected_at_boundary(
            &TieredSolver::homogeneous(&params, &prices, budget, 4).solve_per_miner().unwrap_err(),
        );
    }

    /// Poisoning any budget entry rejects the heterogeneous chains; a
    /// poisoned shared budget rejects the symmetric and closed-form chains.
    #[test]
    fn non_finite_budgets_never_reach_a_tier(
        bad in poison(),
        slot in 0usize..3,
        budget in 10.0f64..500.0,
    ) {
        let params = market();
        let prices = Prices::new(4.0, 2.0).unwrap();
        let cfg = SubgameConfig::default();
        let mut budgets = [budget, budget * 0.5, budget * 2.0];
        budgets[slot] = bad;

        rejected_at_boundary(
            &TieredSolver::connected(&params, &prices, &budgets, &cfg).solve_equilibrium().unwrap_err(),
        );
        rejected_at_boundary(
            &TieredSolver::standalone(&params, &prices, &budgets, &cfg).solve_equilibrium().unwrap_err(),
        );
        rejected_at_boundary(
            &TieredSolver::symmetric_connected(&params, &prices, bad, 4, &cfg).solve_per_miner().unwrap_err(),
        );
        rejected_at_boundary(
            &TieredSolver::symmetric_standalone(&params, &prices, bad, 4, &cfg).solve_per_miner().unwrap_err(),
        );
        rejected_at_boundary(
            &TieredSolver::homogeneous(&params, &prices, bad, 4).solve_per_miner().unwrap_err(),
        );
    }

    /// Valid inputs are never mistaken for invalid ones: whatever the solve
    /// outcome, the error (if any) is not a boundary rejection.
    #[test]
    fn valid_inputs_pass_the_boundary(
        edge in 2.5f64..8.0,
        cloud in 0.5f64..2.0,
        budget in 10.0f64..500.0,
        n in 2usize..8,
    ) {
        let params = market();
        let prices = Prices::new(edge, cloud).unwrap();
        let cfg = SubgameConfig::default();
        if let Err(e) = TieredSolver::symmetric_connected(&params, &prices, budget, n, &cfg).solve_per_miner() {
            prop_assert!(!matches!(e, MiningGameError::InvalidParameter(_)),
                "valid input rejected at the boundary: {e}");
        }
    }
}

/// Structural degenerate cases: empty and single-miner budget sets, miner
/// counts below two.
#[test]
fn degenerate_shapes_are_rejected() {
    let params = market();
    let prices = Prices::new(4.0, 2.0).unwrap();
    let cfg = SubgameConfig::default();

    rejected_at_boundary(
        &TieredSolver::connected(&params, &prices, &[], &cfg).solve_equilibrium().unwrap_err(),
    );
    rejected_at_boundary(
        &TieredSolver::standalone(&params, &prices, &[], &cfg).solve_equilibrium().unwrap_err(),
    );
    rejected_at_boundary(
        &TieredSolver::connected(&params, &prices, &[100.0], &cfg).solve_equilibrium().unwrap_err(),
    );
    for n in [0, 1] {
        rejected_at_boundary(
            &TieredSolver::symmetric_connected(&params, &prices, 100.0, n, &cfg)
                .solve_per_miner()
                .unwrap_err(),
        );
        rejected_at_boundary(
            &TieredSolver::symmetric_standalone(&params, &prices, 100.0, n, &cfg)
                .solve_per_miner()
                .unwrap_err(),
        );
        rejected_at_boundary(
            &TieredSolver::homogeneous(&params, &prices, 100.0, n).solve_per_miner().unwrap_err(),
        );
    }
}
