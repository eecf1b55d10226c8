//! Integration tests of the unified follower-solver core: tiered fallback,
//! structured `SolveReport`s, and symmetric-vs-full agreement.

use proptest::prelude::*;

use mbm_core::market::PriceVector;
use mbm_core::params::{MarketParams, Prices};
use mbm_core::solver::{FollowerSolver, SolveMethod, SolveMode, SolveWorkspace, TieredSolver};
use mbm_core::subgame::SubgameConfig;

fn market() -> MarketParams {
    MarketParams::builder()
        .reward(100.0)
        .fork_rate(0.2)
        .edge_availability(0.8)
        .e_max(5.0)
        .build()
        .unwrap()
}

#[test]
fn connected_fast_path_reports_symmetric_method_and_no_hops() {
    let prices = Prices::new(4.0, 2.0).unwrap();
    let (r, report) =
        TieredSolver::symmetric_connected(&market(), &prices, 200.0, 5, &SubgameConfig::default())
            .solve_per_miner()
            .unwrap();
    assert!(r.edge > 0.0 && r.cloud > 0.0);
    assert_eq!(report.mode, SolveMode::Connected);
    assert!(report.symmetric);
    assert_eq!(report.method, SolveMethod::SymmetricFixedPoint);
    assert_eq!(report.hops(), 0);
    assert!(report.residual <= SubgameConfig::default().tol);
    // The default damping 0.5 is clamped to 3/(n+2) for stability — the
    // formerly silent policy is now visible in the report.
    let damping = report.overrides.damping.expect("damping clamp recorded");
    assert_eq!(damping.requested, 0.5);
    assert!((damping.effective - 3.0 / 7.0).abs() < 1e-12);
}

/// Forcing the symmetric fixed point to fail (1-iteration cap) escalates
/// down the chain; the report shows the hop sequence and the escalated
/// answer matches the unconstrained fast path within tolerance.
#[test]
fn connected_escalation_reaches_the_same_equilibrium() {
    let prices = Prices::new(4.0, 2.0).unwrap();
    let relaxed = SubgameConfig::default();
    let (reference, _) = TieredSolver::symmetric_connected(&market(), &prices, 200.0, 5, &relaxed)
        .solve_per_miner()
        .unwrap();

    let tight = SubgameConfig { max_iter: 1, ..relaxed };
    let (escalated, report) =
        TieredSolver::symmetric_connected(&market(), &prices, 200.0, 5, &tight)
            .solve_per_miner()
            .unwrap();

    assert_eq!(report.method, SolveMethod::BestResponseDynamics);
    assert_eq!(report.hops(), 1);
    assert_eq!(report.fallback_hops[0].method, SolveMethod::SymmetricFixedPoint);
    assert!(
        report.fallback_hops[0].error.contains("converge"),
        "hop error should render the convergence failure: {}",
        report.fallback_hops[0].error
    );
    // The boosted tier ran at the effective iteration cap, and says so.
    let cap = report.overrides.max_iter.expect("boosted tier records the cap rewrite");
    assert_eq!(cap.requested, 1.0);
    assert_eq!(cap.effective, 20_000.0);

    assert!(
        (escalated.edge - reference.edge).abs() < 1e-5
            && (escalated.cloud - reference.cloud).abs() < 1e-5,
        "escalated {escalated:?} vs fast path {reference:?}"
    );
}

#[test]
fn standalone_escalation_reaches_the_same_equilibrium() {
    let prices = Prices::new(4.0, 2.0).unwrap();
    let relaxed = SubgameConfig::default();
    let (reference, _) = TieredSolver::symmetric_standalone(&market(), &prices, 200.0, 5, &relaxed)
        .solve_per_miner()
        .unwrap();

    let tight = SubgameConfig { max_iter: 1, ..relaxed };
    let (escalated, report) =
        TieredSolver::symmetric_standalone(&market(), &prices, 200.0, 5, &tight)
            .solve_per_miner()
            .unwrap();

    assert_eq!(report.mode, SolveMode::Standalone);
    assert_eq!(report.method, SolveMethod::Extragradient);
    assert_eq!(report.fallback_hops[0].method, SolveMethod::SymmetricFixedPoint);
    // The GNEP escalation tier carries an independent equilibrium
    // certificate (VI natural residual).
    let cert = report.certificate.expect("VI tier computes a certificate");
    assert!(cert < 1e-6, "certificate residual {cert}");

    assert!(
        (escalated.edge - reference.edge).abs() < 1e-4
            && (escalated.cloud - reference.cloud).abs() < 1e-4,
        "escalated {escalated:?} vs fast path {reference:?}"
    );
}

/// The formerly-silent floors of the standalone GNEP solve
/// (`tol.max(1e-10)`, `max_iter.max(20_000)`) are applied explicitly and
/// recorded in the report when they rewrite a user value.
#[test]
fn standalone_config_floors_are_recorded_not_silent() {
    let prices = Prices::new(4.0, 2.0).unwrap();
    let cfg = SubgameConfig { tol: 1e-12, max_iter: 100, ..SubgameConfig::default() };
    let (_, report) = TieredSolver::standalone(&market(), &prices, &[200.0; 4], &cfg)
        .solve_equilibrium()
        .unwrap();
    let tol = report.overrides.tol.expect("tol floor recorded");
    assert_eq!(tol.requested, 1e-12);
    assert_eq!(tol.effective, 1e-10);
    let cap = report.overrides.max_iter.expect("iteration floor recorded");
    assert_eq!(cap.requested, 100.0);
    assert_eq!(cap.effective, 20_000.0);

    // Values inside the floors pass through untouched. (The *default*
    // config's max_iter of 5000 is itself below the 20k floor, so it is
    // honestly reported as rewritten — hence the explicit values here.)
    let roomy = SubgameConfig { tol: 1e-9, max_iter: 30_000, ..SubgameConfig::default() };
    let (_, clean) = TieredSolver::standalone(&market(), &prices, &[200.0; 4], &roomy)
        .solve_equilibrium()
        .unwrap();
    assert!(clean.overrides.tol.is_none());
    assert!(clean.overrides.max_iter.is_none());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The symmetric fast path and the full N-miner heterogeneous solver
    /// (on a uniform budget vector) agree, in both modes, for N in 2..=16.
    #[test]
    fn symmetric_fast_path_agrees_with_full_solver(
        n in 2usize..=16,
        budget in 60.0f64..400.0,
        edge in 3.6f64..5.5,
        cloud in 1.7f64..2.3,
    ) {
        let params = market();
        let prices = Prices::new(edge, cloud).unwrap();
        let cfg = SubgameConfig::default();

        let (sym_c, rep_c) =
            TieredSolver::symmetric_connected(&params, &prices, budget, n, &cfg).solve_per_miner().unwrap();
        let (full_c, _) =
            TieredSolver::connected(&params, &prices, &vec![budget; n], &cfg).solve_equilibrium().unwrap();
        prop_assert_eq!(rep_c.mode, SolveMode::Connected);
        for r in &full_c.requests {
            prop_assert!(
                (r.edge - sym_c.edge).abs() < 2e-4 && (r.cloud - sym_c.cloud).abs() < 2e-4,
                "connected n={} sym {:?} vs full {:?}", n, sym_c, r
            );
        }

        let (sym_s, _) =
            TieredSolver::symmetric_standalone(&params, &prices, budget, n, &cfg).solve_per_miner().unwrap();
        let (full_s, _) =
            TieredSolver::standalone(&params, &prices, &vec![budget; n], &cfg).solve_equilibrium().unwrap();
        for r in &full_s.requests {
            prop_assert!(
                (r.edge - sym_s.edge).abs() < 5e-3 && (r.cloud - sym_s.cloud).abs() < 5e-3,
                "standalone n={} sym {:?} vs full {:?}", n, sym_s, r
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The K-provider reduction is the identity on random two-provider
    /// markets: a `PriceVector` round-trips to the legacy `Prices` pair
    /// bitwise, and solving at the reduction is bitwise the legacy solve
    /// across all six solver modes. Padding the vector with strictly more
    /// expensive clouds (K = 4) must not move a bit either — the extra
    /// providers are Bertrand-priced out of the market.
    #[test]
    fn k2_price_vector_reduction_is_bitwise_across_all_six_modes(
        edge in 3.6f64..5.5,
        cloud in 1.7f64..2.3,
        budget in 60.0f64..400.0,
        n in 2usize..=8,
        pad in 0.1f64..2.0,
    ) {
        let params = market();
        let cfg = SubgameConfig::default();
        let prices = Prices::new(edge, cloud).unwrap();
        let budgets = vec![budget; n];

        let k2 = PriceVector::from_prices(&prices).unwrap().effective();
        prop_assert_eq!(k2.edge.to_bits(), prices.edge.to_bits());
        prop_assert_eq!(k2.cloud.to_bits(), prices.cloud.to_bits());
        let k4 = PriceVector::new(&[edge, cloud, cloud + pad, cloud + 2.0 * pad])
            .unwrap()
            .effective();
        prop_assert_eq!(k4.edge.to_bits(), prices.edge.to_bits());
        prop_assert_eq!(k4.cloud.to_bits(), prices.cloud.to_bits());

        for reduced in [k2, k4] {
            // Heterogeneous chains (connected NEP, standalone GNEP).
            let legacy = TieredSolver::connected(&params, &prices, &budgets, &cfg).solve_equilibrium().unwrap();
            let via = TieredSolver::connected(&params, &reduced, &budgets, &cfg).solve_equilibrium().unwrap();
            prop_assert_eq!(format!("{legacy:?}"), format!("{via:?}"));
            let legacy = TieredSolver::standalone(&params, &prices, &budgets, &cfg).solve_equilibrium().unwrap();
            let via = TieredSolver::standalone(&params, &reduced, &budgets, &cfg).solve_equilibrium().unwrap();
            prop_assert_eq!(format!("{legacy:?}"), format!("{via:?}"));

            // Symmetric fast paths.
            let legacy =
                TieredSolver::symmetric_connected(&params, &prices, budget, n, &cfg).solve_per_miner().unwrap();
            let via =
                TieredSolver::symmetric_connected(&params, &reduced, budget, n, &cfg).solve_per_miner().unwrap();
            prop_assert_eq!(format!("{legacy:?}"), format!("{via:?}"));
            let legacy =
                TieredSolver::symmetric_standalone(&params, &prices, budget, n, &cfg).solve_per_miner().unwrap();
            let via =
                TieredSolver::symmetric_standalone(&params, &reduced, budget, n, &cfg).solve_per_miner().unwrap();
            prop_assert_eq!(format!("{legacy:?}"), format!("{via:?}"));

            // Aggregate-form O(N) chains.
            for standalone in [false, true] {
                let solve = |p: &Prices| {
                    let solver = if standalone {
                        TieredSolver::aggregate_standalone(&params, p, &budgets, &cfg)
                    } else {
                        TieredSolver::aggregate_connected(&params, p, &budgets, &cfg)
                    };
                    let solved = solver.solve(&mut SolveWorkspace::new()).unwrap();
                    format!("{:?}", solved)
                };
                prop_assert_eq!(solve(&prices), solve(&reduced), "standalone = {}", standalone);
            }
        }
    }

    /// Warm-started continuation over a randomized price grid lands on the
    /// same equilibria as independent cold solves, within certificate
    /// tolerance, and answers come back in grid order.
    #[test]
    fn warm_batch_matches_cold_solves_within_tolerance(
        base_e in 3.8f64..5.0,
        base_c in 1.6f64..2.1,
        step in 0.02f64..0.08,
        n in 3usize..7,
    ) {
        let params = market();
        let cfg = SubgameConfig::default();
        let budgets: Vec<f64> = (0..n).map(|i| 90.0 + 20.0 * i as f64).collect();
        let grid: Vec<Prices> = (0..6)
            .map(|k| Prices::new(base_e + step * k as f64, base_c + 0.5 * step * k as f64).unwrap())
            .collect();
        let solver = TieredSolver::connected(&params, &grid[0], &budgets, &cfg);
        let mut ws = SolveWorkspace::new();
        let warm = solver.solve_batch(&grid, &mut ws);
        prop_assert_eq!(warm.len(), grid.len());
        for (k, (p, w)) in grid.iter().zip(&warm).enumerate() {
            let w = w.as_ref().expect("warm point converged");
            let cold = TieredSolver::connected(&params, p, &budgets, &cfg)
                .solve(&mut SolveWorkspace::new())
                .unwrap();
            prop_assert!(
                (w.aggregates.edge - cold.aggregates.edge).abs() < 1e-6
                    && (w.aggregates.cloud - cold.aggregates.cloud).abs() < 1e-6,
                "grid point {} warm {:?} vs cold {:?}", k, w.aggregates, cold.aggregates
            );
        }
        // The batch is an opt-in scope: it leaves the workspace cold again.
        prop_assert!(!ws.warm().enabled());
    }

    /// The continuation sequence runs serially on one workspace, so the
    /// batched results are bitwise identical whatever the worker-pool size
    /// the aggregate tiers fan their sweeps over.
    #[test]
    fn warm_batch_is_thread_count_deterministic(
        base_e in 4.0f64..5.0,
        base_c in 1.4f64..2.0,
    ) {
        let params = market();
        let cfg = SubgameConfig::default();
        let budgets: Vec<f64> = (0..24).map(|i| 80.0 + 5.0 * (i % 7) as f64).collect();
        let grid: Vec<Prices> = (0..4)
            .map(|k| Prices::new(base_e + 0.05 * k as f64, base_c + 0.02 * k as f64).unwrap())
            .collect();
        let mut reference: Option<String> = None;
        for threads in [1usize, 2, 8] {
            let pool = mbm_par::Pool::new(threads);
            let solver =
                TieredSolver::aggregate_connected_in(&params, &grid[0], &budgets, &cfg, &pool);
            let out = solver.solve_batch(&grid, &mut SolveWorkspace::new());
            let fingerprint: String = out
                .iter()
                .map(|r| format!("{:?}\n", r.as_ref().expect("point converged").aggregates))
                .collect();
            match &reference {
                None => reference = Some(fingerprint),
                Some(want) => prop_assert_eq!(
                    &fingerprint, want, "batch diverged at {} threads", threads
                ),
            }
        }
    }

    /// Changing the population re-keys the warm slot: the counter records
    /// the reset and the next solve seeds cold (bitwise equal to a fresh
    /// warm-enabled workspace), so no stale profile leaks across tasks.
    #[test]
    fn population_change_resets_the_warm_slot(
        edge in 3.9f64..5.0,
        cloud in 1.6f64..2.1,
    ) {
        let params = market();
        let cfg = SubgameConfig::default();
        let a = vec![100.0, 120.0, 140.0, 160.0];
        let b = vec![90.0, 95.0, 105.0];
        let p0 = Prices::new(edge, cloud).unwrap();
        let p1 = Prices::new(edge + 0.03, cloud + 0.02).unwrap();

        let mut ws = SolveWorkspace::new();
        ws.warm_mut().set_enabled(true);
        TieredSolver::connected(&params, &p0, &a, &cfg).solve(&mut ws).unwrap();
        TieredSolver::connected(&params, &p1, &a, &cfg).solve(&mut ws).unwrap();
        prop_assert!(ws.warm().hits() >= 1, "repricing the same population must seed warm");
        prop_assert_eq!(ws.warm().resets(), 0);

        let swapped = TieredSolver::connected(&params, &p1, &b, &cfg).solve(&mut ws).unwrap();
        prop_assert_eq!(ws.warm().resets(), 1, "population change must re-key the slot");

        let mut fresh = SolveWorkspace::new();
        fresh.warm_mut().set_enabled(true);
        let cold_b = TieredSolver::connected(&params, &p1, &b, &cfg).solve(&mut fresh).unwrap();
        prop_assert_eq!(
            format!("{:?}", swapped.aggregates),
            format!("{:?}", cold_b.aggregates),
            "post-reset solve must seed cold, not from the stale profile"
        );
    }
}
