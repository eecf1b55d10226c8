//! Integration properties of the aggregate-form O(N) follower solver:
//! randomized agreement with the legacy full solvers for N in 2..64 (both
//! connected and standalone modes), large-N validation against the
//! Theorem 3 / Corollary 1 closed forms for identical miners, and
//! one-sweep solves of uniform populations in the price band where those
//! closed forms do not apply.

use std::time::Duration;

use mbm_faults::Supervision;
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

/// Per-miner all-edge corner equilibrium of the connected game, the
/// symmetric equilibrium wherever the mixed-strategy price condition fails:
/// `e* = min(R(1−β+hβ)(n−1)/(n²P_e), B/P_e)`, `c* = 0`.
fn all_edge_corner(params: &MarketParams, prices: &Prices, budget: f64, n: usize) -> f64 {
    let weight = 1.0 - params.fork_rate() + params.edge_availability() * params.fork_rate();
    let nf = n as f64;
    (params.reward() * weight * (nf - 1.0) / (nf * nf * prices.edge)).min(budget / prices.edge)
}

/// Solves a uniform aggregate-connected population of `n` miners with
/// budget 100 on the default market under a 10-s deadline, so a sweep
/// count that grows with N fails instead of stalling, and checks that it
/// converged on the all-edge corner within `max_sweeps` sweeps, without a
/// fallback hop.
fn check_band_solve(pe: f64, pc: f64, n: usize, max_sweeps: usize) {
    let params = MarketParams::builder().build().unwrap();
    let prices = Prices::new(pe, pc).unwrap();
    let budget = 100.0;
    let budgets = vec![budget; n];
    let (eq, report) = {
        let _deadline = Supervision::with_deadline(Duration::from_secs(10)).enter();
        TieredSolver::aggregate_connected(&params, &prices, &budgets, &SubgameConfig::default())
            .solve_equilibrium()
            .unwrap_or_else(|e| panic!("P = ({pe}, {pc}), n = {n}: {e}"))
    };
    let at = format!("P = ({pe}, {pc}), n = {n}");
    assert_eq!(report.status, SolveStatus::Converged, "{at}");
    assert_eq!(report.method, SolveMethod::AggregateBestResponse, "{at}");
    assert!(report.fallback_hops.is_empty(), "{at}: {:?}", report.fallback_hops);
    assert!(report.iterations <= max_sweeps, "{at}: {} sweeps", report.iterations);
    let corner = all_edge_corner(&params, &prices, budget, n);
    let expect = n as f64 * corner;
    assert!(
        (eq.aggregates.edge - expect).abs() <= 1e-9 * expect,
        "{at}: E = {} vs n·e* = {expect}",
        eq.aggregates.edge
    );
    for r in &eq.requests {
        assert!(
            (r.edge - corner).abs() <= 1e-9 * corner && r.cloud == 0.0,
            "{at}: {r:?} vs {corner}"
        );
    }
}

/// Uniform aggregate-connected populations with near-equal or inverted
/// edge and cloud prices start at the all-edge corner and converge on it
/// in at most two sweeps at any N.
#[test]
fn band_solves_take_one_sweep_at_any_n() {
    for (pe, pc) in [(3.0, 3.0), (2.7, 3.0), (3.3, 3.0)] {
        for n in [32, 128, 1024, 2048] {
            check_band_solve(pe, pc, n, 2);
        }
    }
}

/// Release-scale band validation (run with `--ignored`): uniform band
/// populations of 10^5 and 10^6 miners solve in one sweep on the all-edge
/// corner.
#[test]
#[ignore = "release-scale: 10^5 and 10^6 miners, run with cargo test --release -- --ignored"]
fn band_solves_match_the_all_edge_corner_at_1e5_and_1e6() {
    check_band_solve(3.0, 3.0, 100_000, 1);
    check_band_solve(3.0, 3.0, 1_000_000, 1);
}

/// Uniform aggregate-standalone populations start at the `h = 1` closed
/// form and converge in one sweep, with the cloud cheaper (mixed regime)
/// and dearer (all-edge corner) than the edge.
#[test]
fn uniform_standalone_solves_take_one_sweep() {
    let params = MarketParams::builder().build().unwrap();
    let cfg = SubgameConfig::default();
    for (pe, pc) in [(4.5, 1.8), (2.5, 3.0)] {
        let prices = Prices::new(pe, pc).unwrap();
        for n in [1_000, 5_000] {
            let budgets = vec![100.0; n];
            let at = format!("P = ({pe}, {pc}), n = {n}");
            let (_, report) = TieredSolver::aggregate_standalone(&params, &prices, &budgets, &cfg)
                .solve_equilibrium()
                .unwrap_or_else(|e| panic!("{at}: {e}"));
            assert_eq!(report.status, SolveStatus::Converged, "{at}");
            assert_eq!(report.method, SolveMethod::AggregateBestResponse, "{at}");
            assert!(report.fallback_hops.is_empty(), "{at}: {:?}", report.fallback_hops);
            assert_eq!(report.iterations, 1, "{at}");
        }
    }
}
