//! CI gate: the deterministic telemetry of the reference pipeline must match
//! the checked-in golden file byte for byte.
//!
//! The reference workload is one connected-mode Stackelberg solve —
//! heterogeneous budgets, **one worker thread** — followed by
//! a K = 3 oligopoly leader solve (`core.solver.oligopoly.*`) and a tiny
//! planned oligopoly task batch through the experiment engine (`exp.plan.*`
//! / `exp.exec.*`), all with the global recorder enabled. The counters and
//! gauges (solver calls, iteration totals, grid evaluations, leader rounds)
//! are exact functions of the workload at a fixed thread count, so any drift
//! is a real behavioural change in a solver: more Brent iterations, a
//! different best-response path. The gate turns that drift into a readable
//! JSON diff instead of a silent perf loss.
//!
//! Knobs (used by `.github/workflows/ci.yml`):
//!
//! * `MBM_UPDATE_GOLDEN=1` — rewrite `tests/golden/telemetry_reference.json`
//!   from the current run (commit the diff deliberately).
//! * `MBM_TELEMETRY_PERTURB=1` — bump one iteration counter before the
//!   comparison; CI runs this once and asserts the test FAILS, proving the
//!   gate actually bites.
//!
//! This file must hold exactly one `#[test]`: the recorder is process-global,
//! and a sibling test in the same binary would interleave its events into the
//! snapshot.

use std::path::PathBuf;

use mbm_core::market::ProviderSet;
use mbm_core::params::EdgeOperation as Mode;
use mbm_core::params::{MarketParams, Provider};
use mbm_core::scenario::EdgeOperation;
use mbm_core::stackelberg::{solve_connected, solve_oligopoly, ExecConfig, StackelbergConfig};
use mbm_core::subgame::SubgameConfig;
use mbm_exp::executor::execute;
use mbm_exp::planner::{plan, PlannedTask};
use mbm_exp::task::Task;

fn reference_market() -> MarketParams {
    MarketParams::builder()
        .reward(100.0)
        .fork_rate(0.2)
        .edge_availability(0.8)
        .e_max(5.0)
        .esp(Provider::new(7.0, 15.0).unwrap())
        .csp(Provider::new(1.0, 8.0).unwrap())
        .build()
        .unwrap()
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/telemetry_reference.json")
}

#[test]
fn reference_pipeline_telemetry_matches_golden() {
    let rec = mbm_obs::global();
    rec.reset();
    rec.set_enabled(true);
    let cfg = StackelbergConfig {
        exec: ExecConfig { threads: 1, telemetry: true },
        ..StackelbergConfig::default()
    };
    let params = reference_market();
    let sol =
        solve_connected(&params, &[80.0, 140.0, 200.0], &cfg).expect("reference solve converges");
    assert!(sol.esp_profit.is_finite() && sol.csp_profit.is_finite());

    // K = 3 oligopoly leader solve: the provider-vector layer's
    // `core.solver.oligopoly.*` counters are part of the golden surface.
    let set = ProviderSet::new(vec![params.esp(), params.csp(), Provider::new(1.4, 8.0).unwrap()])
        .unwrap();
    let oligopoly = solve_oligopoly(&params, &set, &[80.0, 140.0, 200.0], Mode::Connected, &cfg)
        .expect("oligopoly reference solve converges");
    assert_eq!(oligopoly.prices.len(), 3);

    // A two-task oligopoly batch through the planner/executor records the
    // deterministic `exp.plan.*` / `exp.exec.*` counters.
    let task = Task::OligopolyNep {
        op: EdgeOperation::Connected,
        params,
        cloud_costs: vec![1.0, 1.4],
        prices: vec![4.0, 2.0, 2.5],
        budget: 150.0,
        n: 4,
        cfg: SubgameConfig::default(),
    };
    let specs = vec![vec![PlannedTask::required(task.clone())], vec![PlannedTask::required(task)]];
    let pool = mbm_par::Pool::new(1);
    let results = execute(&plan(&specs), &pool);
    assert_eq!(results.failures.len(), 0, "oligopoly task batch must succeed");

    // Disk-backed equilibrium memo: one cold heterogeneous solve (miss +
    // append) and one repeat (re-certified hit) put the `store.*` counters
    // on the golden surface. The file is recreated from scratch each run so
    // the counts are exact.
    {
        use mbm_core::params::Prices;
        use mbm_core::solver::{memo, FollowerSolver, SolveWorkspace, TieredSolver};
        let store_path = std::env::temp_dir()
            .join(format!("mbm_telemetry_reference_{}.store", std::process::id()));
        let _ = std::fs::remove_file(&store_path);
        let (guard, summary) = memo::open_and_install(
            &store_path,
            memo::MemoConfig::default(),
            mbm_store::StoreOptions::default(),
        )
        .expect("open telemetry reference store");
        assert_eq!(summary.records, 0, "telemetry store must start empty");
        let prices = Prices::new(4.0, 2.0).expect("reference prices");
        let budgets = [80.0, 140.0, 200.0];
        let sub = SubgameConfig::default();
        let solver = TieredSolver::connected(&params, &prices, &budgets, &sub);
        let mut cold_ws = SolveWorkspace::new();
        let cold = solver.solve(&mut cold_ws).expect("cold store solve converges");
        let mut hit_ws = SolveWorkspace::new();
        let hit = solver.solve(&mut hit_ws).expect("store hit solve converges");
        assert_eq!(cold.aggregates, hit.aggregates, "store hit must replay the cold solve");
        drop(guard);
        let _ = std::fs::remove_file(&store_path);
    }
    rec.set_enabled(false);

    let mut snapshot = rec.snapshot();
    assert!(
        snapshot.counters.keys().any(|k| k.starts_with("numerics.")),
        "solver instrumentation produced no numerics counters: {:?}",
        snapshot.counters.keys().collect::<Vec<_>>()
    );
    assert!(
        snapshot.counters.contains_key("core.solver.oligopoly.solves"),
        "oligopoly solver counters missing"
    );
    assert!(snapshot.counters.contains_key("exp.plan.unique"), "engine plan counters missing");
    assert!(snapshot.counters.contains_key("store.hits"), "memo store counters missing");

    if std::env::var_os("MBM_TELEMETRY_PERTURB").is_some() {
        // Simulate a solver regression: one extra iteration somewhere.
        let (key, count) =
            snapshot.counters.iter().next().map(|(k, v)| (k.clone(), *v)).expect("counters");
        snapshot.counters.insert(key, count + 1);
    }
    let got = snapshot.deterministic_json();

    let path = golden_path();
    if std::env::var_os("MBM_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); generate it with \
             MBM_UPDATE_GOLDEN=1 cargo test --test telemetry_regression",
            path.display()
        )
    });
    assert_eq!(
        got, want,
        "deterministic telemetry drifted from tests/golden/telemetry_reference.json. \
         If the solver change is intentional, regenerate with \
         MBM_UPDATE_GOLDEN=1 cargo test --test telemetry_regression and commit the diff."
    );
}
