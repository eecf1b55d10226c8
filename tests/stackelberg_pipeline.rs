//! End-to-end Stackelberg pipeline tests across crates: leader pricing,
//! follower equilibria, closed-form cross-checks and the paper's
//! cross-mode comparisons.
//!
//! Market solves are routed through the experiment engine
//! (`mbm_exp::run_tasks` — the dedup planner + shared executor over
//! `Scenario`), the same path the `experiments` runner uses, so these
//! tests exercise the one solve path end to end.

use mbm_core::analysis::MarketReport;
use mbm_core::params::{MarketParams, Provider};
use mbm_core::scenario::{EdgeOperation, ScenarioOutcome};
use mbm_core::sp::pricing::csp_best_response_budget_binding;
use mbm_core::stackelberg::{LeaderSchedule, StackelbergConfig};
use mbm_core::subgame::connected::ConnectedMinerGame;
use mbm_core::table2::closed_forms;
use mbm_exp::planner::PlannedTask;
use mbm_exp::{run_tasks, Task};
use mbm_game::nash::epsilon_equilibrium;
use mbm_game::profile::Profile;
use mbm_par::Pool;

fn params() -> MarketParams {
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

fn leader_task(op: EdgeOperation, budgets: Vec<f64>, cfg: StackelbergConfig) -> Task {
    Task::Leader { op, params: params(), budgets, cfg }
}

/// One full Stackelberg solve through the engine's plan/execute pipeline.
fn solve(op: EdgeOperation, budgets: Vec<f64>, cfg: StackelbergConfig) -> ScenarioOutcome {
    let task = leader_task(op, budgets, cfg);
    let results = run_tasks(&[PlannedTask::required(task.clone())], Pool::global());
    results.market(&task).unwrap().clone()
}

#[test]
fn follower_stage_of_solution_is_a_nash_equilibrium() {
    let p = params();
    let budgets = vec![200.0; 5];
    let sol = solve(EdgeOperation::Connected, budgets.clone(), StackelbergConfig::default());
    let game = ConnectedMinerGame::new(p, sol.prices, budgets).unwrap();
    let blocks: Vec<Vec<f64>> = sol.requests.iter().map(|r| vec![r.edge, r.cloud]).collect();
    let profile = Profile::from_blocks(&blocks).unwrap();
    let report = epsilon_equilibrium(&game, &profile).unwrap();
    assert!(report.epsilon < 1e-4, "epsilon = {}", report.epsilon);
}

#[test]
fn leader_prices_are_mutual_best_responses() {
    let p = params();
    let sol = solve(EdgeOperation::Connected, vec![200.0; 5], StackelbergConfig::default());
    // ESP at its cap (Theorem 4 dominant strategy, C_e = 7 > P_c*).
    assert!((sol.prices.edge - p.esp().price_cap()).abs() < 0.1);
    // CSP near the stationary point of its profit: compare against a
    // fine 1-D re-optimization around the solution.
    use mbm_core::market::PriceVector;
    use mbm_core::params::EdgeOperation as Mode;
    use mbm_core::sp::stage::ProviderStage;
    use mbm_core::sp::MinerPopulation;
    use mbm_core::subgame::SubgameConfig;
    let stage = ProviderStage::two_provider(
        p,
        MinerPopulation::Homogeneous { budget: 200.0, n: 5 },
        Mode::Connected,
        SubgameConfig::default(),
    );
    let csp_profit = |cloud: f64| {
        let trial = PriceVector::new(&[sol.prices.edge, cloud]).unwrap();
        stage.follower_demand(&trial).map(|agg| (cloud - p.csp().cost()) * agg.cloud)
    };
    let base = csp_profit(sol.prices.cloud).unwrap();
    for delta in [-0.4, -0.2, 0.2, 0.4] {
        let cloud = sol.prices.cloud + delta;
        let profit = csp_profit(cloud).unwrap_or(f64::NEG_INFINITY);
        assert!(
            profit <= base + 0.05 * base.abs(),
            "CSP could deviate to {cloud} for {profit} > {base}"
        );
    }
}

#[test]
fn standalone_esp_earns_at_least_connected_esp() {
    // Paper Section IV-C: "the ESP in the standalone mode gains more
    // profits" — standalone removes the transfer discount. Both modes are
    // planned as one engine batch and solved in a single fan-out.
    let budgets = vec![200.0; 5];
    let cfg = StackelbergConfig::default();
    let conn_task = leader_task(EdgeOperation::Connected, budgets.clone(), cfg);
    let stand_task = leader_task(EdgeOperation::Standalone, budgets, cfg);
    let results = run_tasks(
        &[PlannedTask::required(conn_task.clone()), PlannedTask::required(stand_task.clone())],
        Pool::global(),
    );
    let conn = results.market(&conn_task).unwrap();
    let stand = results.market(&stand_task).unwrap();
    assert!(
        stand.report.esp_profit >= conn.report.esp_profit - 1e-6,
        "standalone {} vs connected {}",
        stand.report.esp_profit,
        conn.report.esp_profit
    );
    // And the CSP is (weakly) hurt by it.
    assert!(
        stand.report.csp_profit <= conn.report.csp_profit + 1e-6,
        "standalone {} vs connected {}",
        stand.report.csp_profit,
        conn.report.csp_profit
    );
}

#[test]
fn table2_closed_forms_match_pipeline_at_equilibrium_prices() {
    let p = params();
    let budgets = vec![2e6; 5]; // sufficient budgets for the closed forms
    let conn = solve(EdgeOperation::Connected, budgets, StackelbergConfig::default());
    let t = closed_forms(&p, &conn.prices, 5).unwrap();
    assert!(
        (conn.report.edge_units - t.connected.edge_total).abs()
            < 1e-3 * (1.0 + t.connected.edge_total),
        "pipeline E {} vs closed form {}",
        conn.report.edge_units,
        t.connected.edge_total
    );
    assert!(
        (conn.report.cloud_units - t.connected.cloud_total).abs()
            < 1e-3 * (1.0 + t.connected.cloud_total),
        "pipeline C {} vs closed form {}",
        conn.report.cloud_units,
        t.connected.cloud_total
    );
}

#[test]
fn csp_closed_form_best_response_matches_leader_search_when_budget_binds() {
    // Small budgets: the budget-binding Theorem 4 machinery applies.
    let p = params();
    let budget = 8.0;
    let n = 5;
    let closed = csp_best_response_budget_binding(&p, p.esp().price_cap(), budget, n).unwrap();
    let sol = solve(EdgeOperation::Connected, vec![budget; n], StackelbergConfig::default());
    assert!(
        (sol.prices.cloud - closed).abs() < 0.15,
        "pipeline {} vs closed form {closed}",
        sol.prices.cloud
    );
}

#[test]
fn bargaining_and_best_response_schedules_agree_end_to_end() {
    let budgets = vec![200.0; 5];
    let br_task =
        leader_task(EdgeOperation::Connected, budgets.clone(), StackelbergConfig::default());
    let barg_task = leader_task(
        EdgeOperation::Connected,
        budgets,
        StackelbergConfig { schedule: LeaderSchedule::Bargaining, ..Default::default() },
    );
    // The two schedules differ in the canonical key, so the plan keeps
    // both; dedup is exact, never heuristic.
    assert_ne!(br_task.canon(), barg_task.canon());
    let results = run_tasks(
        &[PlannedTask::required(br_task.clone()), PlannedTask::required(barg_task.clone())],
        Pool::global(),
    );
    let br = results.market(&br_task).unwrap();
    let barg = results.market(&barg_task).unwrap();
    assert!((br.prices.edge - barg.prices.edge).abs() < 0.3);
    assert!((br.prices.cloud - barg.prices.cloud).abs() < 0.3);
}

#[test]
fn market_report_welfare_is_consistent_across_modes() {
    let p = params();
    let budgets = vec![200.0; 5];
    let cfg = StackelbergConfig::default();
    for sol in [
        solve(EdgeOperation::Connected, budgets.clone(), cfg),
        solve(EdgeOperation::Standalone, budgets.clone(), cfg),
    ] {
        let report: &MarketReport = &sol.report;
        // The report's aggregates agree with the per-miner requests it was
        // derived from.
        let edge: f64 = sol.requests.iter().map(|r| r.edge).sum();
        let cloud: f64 = sol.requests.iter().map(|r| r.cloud).sum();
        assert!((report.edge_units - edge).abs() < 1e-9);
        assert!((report.cloud_units - cloud).abs() < 1e-9);
        // Revenue decomposes as P·demand and cannot exceed the budgets.
        assert!((report.esp_revenue - sol.prices.edge * edge).abs() < 1e-9);
        assert!((report.csp_revenue - sol.prices.cloud * cloud).abs() < 1e-9);
        assert!(report.sp_revenue() <= 1000.0 + 1e-6);
        // Profit margins match the providers' unit costs.
        assert!((report.esp_profit - (sol.prices.edge - p.esp().cost()) * edge).abs() < 1e-9);
        assert!((report.csp_profit - (sol.prices.cloud - p.csp().cost()) * cloud).abs() < 1e-9);
        // Miners participate voluntarily: non-negative utilities.
        for &u in &report.miner_utilities {
            assert!(u >= -1e-9, "negative miner utility {u}");
        }
    }
}

#[test]
fn edgeworth_cycle_region_is_reported_not_mislabeled() {
    // With C_e = 2 below the CSP's stationary price the leader game cycles;
    // the solver must refuse rather than return a bogus "equilibrium". A
    // *tolerant* plan entry degrades the failure to a `None` outcome
    // without failing the batch — exactly the semantics the specs rely on.
    let p = MarketParams::builder()
        .reward(100.0)
        .fork_rate(0.2)
        .edge_availability(0.8)
        .esp(Provider::new(2.0, 10.0).unwrap())
        .csp(Provider::new(1.0, 8.0).unwrap())
        .build()
        .unwrap();
    let task = Task::Leader {
        op: EdgeOperation::Connected,
        params: p,
        budgets: vec![200.0; 5],
        cfg: StackelbergConfig::default(),
    };
    let results = run_tasks(&[PlannedTask::tolerant(task.clone())], Pool::global());
    assert!(results.failures.is_empty(), "tolerant tasks never fail the batch");
    let outcome = results.market_opt(&task).unwrap();
    assert!(outcome.is_none(), "expected no pure leader NE, got {outcome:?}");
    assert!(results.output(&task).unwrap().error().is_some());
}
