//! Integration properties of the aggregate-form O(N) follower solver:
//! randomized agreement with the legacy full solvers for N in 2..64 (both
//! connected and standalone modes), and large-N validation against the
//! Theorem 3 / Corollary 1 closed forms for identical miners.

use proptest::prelude::*;

use mbm_core::params::{MarketParams, Prices};
use mbm_core::solver::{FollowerSolver, SolveMethod, SolveStatus, SolveWorkspace, TieredSolver};
use mbm_core::subgame::homogeneous::Regime;
use mbm_core::subgame::SubgameConfig;

fn market(reward: f64, e_max: f64) -> MarketParams {
    MarketParams::builder()
        .reward(reward)
        .fork_rate(0.2)
        .edge_availability(0.8)
        .e_max(e_max)
        .build()
        .unwrap()
}

proptest! {
    // Each case solves the full O(N^2) legacy game as the oracle; keep the
    // case count small so the suite stays debug-friendly.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Connected mode: the aggregate-form chain lands on the legacy
    /// sequential-BR equilibrium for arbitrary heterogeneous populations.
    #[test]
    fn aggregate_connected_agrees_with_legacy(
        budgets in prop::collection::vec(20.0f64..400.0, 2..65),
    ) {
        let params = market(100.0, 5.0);
        let prices = Prices::new(4.0, 2.0).unwrap();
        let cfg = SubgameConfig::default();
        let (legacy, _) = TieredSolver::connected(&params, &prices, &budgets, &cfg).solve_equilibrium().unwrap();
        let (agg, report) =
            TieredSolver::aggregate_connected(&params, &prices, &budgets, &cfg).solve_equilibrium().unwrap();
        prop_assert_eq!(report.method, SolveMethod::AggregateBestResponse);
        prop_assert!(report.fallback_hops.is_empty(), "hops: {:?}", report.fallback_hops);
        for (a, l) in agg.requests.iter().zip(&legacy.requests) {
            prop_assert!((a.edge - l.edge).abs() < 5e-5, "{:?} vs {:?}", a, l);
            prop_assert!((a.cloud - l.cloud).abs() < 5e-5, "{:?} vs {:?}", a, l);
        }
    }

    /// Standalone mode with slack shared capacity: the aggregate-form capped
    /// sweep agrees with the legacy GNEP solve. (With *binding* capacity the
    /// variational equilibrium is a different selection from the capped-BR
    /// fixed point, so binding configs are exercised by dedicated tests
    /// instead of this agreement property.)
    #[test]
    fn aggregate_standalone_agrees_with_legacy_under_slack_capacity(
        budgets in prop::collection::vec(20.0f64..400.0, 2..65),
    ) {
        let params = market(100.0, 1e6);
        let prices = Prices::new(4.0, 2.0).unwrap();
        let cfg = SubgameConfig::default();
        let (legacy, _) = TieredSolver::standalone(&params, &prices, &budgets, &cfg).solve_equilibrium().unwrap();
        let (agg, report) =
            TieredSolver::aggregate_standalone(&params, &prices, &budgets, &cfg).solve_equilibrium().unwrap();
        prop_assert_eq!(report.method, SolveMethod::AggregateBestResponse);
        for (a, l) in agg.requests.iter().zip(&legacy.requests) {
            prop_assert!((a.edge - l.edge).abs() < 1e-3, "{:?} vs {:?}", a, l);
            prop_assert!((a.cloud - l.cloud).abs() < 1e-3, "{:?} vs {:?}", a, l);
        }
    }
}

/// Solves a uniform-budget population through the aggregate chain and
/// checks every miner against the Theorem 3 / Corollary 1 closed form.
fn check_against_closed_form(n: usize, reward: f64, budget: f64, expect: Regime, rel_tol: f64) {
    let params = market(reward, 5.0);
    let prices = Prices::new(4.0, 2.0).unwrap();
    let solver = TieredSolver::homogeneous(&params, &prices, budget, n);
    let solved = SolveWorkspace::with_thread_local(|ws| solver.solve(ws)).unwrap();
    let (closed, regime) = (solved.per_miner.unwrap(), solved.regime.unwrap());
    assert_eq!(regime, expect, "test parameters picked the wrong regime");

    let budgets = vec![budget; n];
    let cfg = SubgameConfig { tol: 1e-9, ..SubgameConfig::default() };
    let (agg, report) = TieredSolver::aggregate_connected(&params, &prices, &budgets, &cfg)
        .solve_equilibrium()
        .unwrap();
    assert_eq!(
        report.method,
        SolveMethod::AggregateBestResponse,
        "hops: {:?}",
        report.fallback_hops
    );
    assert_eq!(report.status, SolveStatus::Converged);

    let scale_e = closed.edge.abs().max(1e-12);
    let scale_c = closed.cloud.abs().max(1e-12);
    for r in &agg.requests {
        assert!(
            (r.edge - closed.edge).abs() / scale_e < rel_tol,
            "n = {n}: edge {} vs closed form {}",
            r.edge,
            closed.edge
        );
        assert!(
            (r.cloud - closed.cloud).abs() / scale_c < rel_tol,
            "n = {n}: cloud {} vs closed form {}",
            r.cloud,
            closed.cloud
        );
    }
}

/// Theorem 3 (budget binding): reward large enough that the Corollary 1
/// spend exceeds the budget, so every miner exhausts it. Debug-friendly N.
#[test]
fn aggregate_matches_theorem3_budget_binding_closed_form() {
    // Corollary 1 spend ~ R(1-beta+h*beta)/n = 1e5*0.96/2000 = 48 > 5.
    check_against_closed_form(2000, 1e5, 5.0, Regime::BudgetBinding, 1e-6);
}

/// Corollary 1 (sufficient budget): per-miner requests shrink like 1/n, so
/// a moderate budget is slack. Debug-friendly N.
#[test]
fn aggregate_matches_corollary1_sufficient_budget_closed_form() {
    check_against_closed_form(2000, 100.0, 500.0, Regime::SufficientBudget, 1e-4);
}

/// Large-N scaling validation (release-only: run with `--ignored`): the
/// aggregate chain at N = 10^5 stays on the closed forms in both regimes.
#[test]
#[ignore = "release-scale: ~10^5 miners, run with cargo test --release -- --ignored"]
fn aggregate_matches_closed_forms_at_1e5() {
    check_against_closed_form(100_000, 1e7, 5.0, Regime::BudgetBinding, 1e-6);
    check_against_closed_form(100_000, 100.0, 500.0, Regime::SufficientBudget, 1e-3);
}

/// Acceptance-scale validation (release-only: run with `--ignored`): a
/// N = 10^6 symmetric population solves through the aggregate chain and
/// matches the Theorem 3 closed form.
#[test]
#[ignore = "release-scale: 10^6 miners, run with cargo test --release -- --ignored"]
fn aggregate_matches_theorem3_at_1e6() {
    check_against_closed_form(1_000_000, 1e8, 5.0, Regime::BudgetBinding, 1e-6);
}
