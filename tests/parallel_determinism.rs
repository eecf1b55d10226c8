//! Integration properties of the execution layer: the parallel substrate
//! must never change *what* the pipeline computes — only how fast.
//! Randomized markets are solved serial vs multi-threaded (bitwise
//! equality); PoW grinds are cross-checked chunked vs linear.

use proptest::prelude::*;

use mbm_chain_sim::pow::{Puzzle, Target};
use mbm_core::market::ProviderSet;
use mbm_core::params::EdgeOperation as Mode;
use mbm_core::params::{MarketParams, Prices, Provider};
use mbm_core::request::Request;
use mbm_core::solver::{FollowerSolver, SolveWorkspace, TieredSolver};
use mbm_core::stackelberg::{solve_connected, solve_oligopoly, ExecConfig, StackelbergConfig};
use mbm_core::subgame::SubgameConfig;
use mbm_par::Pool;

/// Markets in the regime where the leader game has a pure equilibrium
/// (`C_e` above the CSP's stationary price — see EXPERIMENTS.md).
fn market(c_e: f64, beta: f64, h: f64) -> MarketParams {
    MarketParams::builder()
        .reward(100.0)
        .fork_rate(beta)
        .edge_availability(h)
        .esp(Provider::new(c_e, 15.0).unwrap())
        .csp(Provider::new(1.0, 8.0).unwrap())
        .e_max(5.0)
        .build()
        .unwrap()
}

proptest! {
    // Each case is several full Stackelberg solves; keep the count small.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Thread-count invariance: the parallel candidate evaluator
    /// reproduces the serial pipeline bit for bit on arbitrary markets.
    #[test]
    fn full_solve_is_thread_count_invariant(
        c_e in 8.0f64..12.0,
        beta in 0.1f64..0.4,
        h in 0.6f64..0.95,
        b0 in 60.0f64..140.0,
        b1 in 150.0f64..260.0,
    ) {
        let params = market(c_e, beta, h);
        let budgets = [b0, 0.5 * (b0 + b1), b1];
        let serial = StackelbergConfig::default();
        let reference = solve_connected(&params, &budgets, &serial).ok();
        for threads in [2usize, 4] {
            let cfg =
                StackelbergConfig { exec: ExecConfig { threads, telemetry: false }, ..serial };
            let got = solve_connected(&params, &budgets, &cfg).ok();
            prop_assert_eq!(&got, &reference, "threads = {}", threads);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A K = 3 oligopoly solve is a pure function of the market: the thread
    /// count must not move a single bit.
    #[test]
    fn k3_oligopoly_solve_is_thread_count_invariant(
        c_e in 8.0f64..12.0,
        beta in 0.1f64..0.4,
        b0 in 60.0f64..140.0,
        c_c2 in 1.2f64..3.0,
    ) {
        let params = market(c_e, beta, 0.8);
        let budgets = [b0, b0 + 40.0, b0 + 90.0];
        let set = ProviderSet::new(vec![
            params.esp(),
            params.csp(),
            Provider::new(c_c2, 8.0).unwrap(),
        ])
        .unwrap();
        let base = StackelbergConfig {
            exec: ExecConfig { threads: 1, telemetry: false },
            ..StackelbergConfig::default()
        };
        let reference = solve_oligopoly(&params, &set, &budgets, Mode::Connected, &base).ok();
        for threads in [2usize, 8] {
            let cfg = StackelbergConfig { exec: ExecConfig { threads, telemetry: false }, ..base };
            let got = solve_oligopoly(&params, &set, &budgets, Mode::Connected, &cfg).ok();
            prop_assert_eq!(format!("{got:?}"), format!("{reference:?}"), "threads = {}", threads);
        }
    }
}

/// Heterogeneous budgets from a fixed LCG so the population differs across
/// every chunk of the aggregate sweep without depending on `rand`.
fn lcg_budgets(n: usize) -> Vec<f64> {
    let mut state: u64 = 0x2545_f491_4f6c_dd1d;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            // Map the top bits into [50, 450).
            50.0 + 400.0 * ((state >> 11) as f64 / (1u64 << 53) as f64)
        })
        .collect()
}

/// Solves `budgets` through the aggregate-form chain on an explicit pool
/// and returns the per-miner request bit patterns plus the solve
/// aggregates/residual bits.
fn aggregate_solve_bits(
    standalone: bool,
    budgets: &[f64],
    threads: usize,
) -> (Vec<(u64, u64)>, u64, u64, u64) {
    let params = MarketParams::builder()
        .reward(100.0)
        .fork_rate(0.2)
        .edge_availability(0.8)
        .e_max(1e6)
        .build()
        .unwrap();
    let prices = Prices::new(4.0, 2.0).unwrap();
    let cfg = SubgameConfig { tol: 1e-6, ..SubgameConfig::default() };
    let pool = Pool::new(threads);
    let solver = if standalone {
        TieredSolver::aggregate_standalone_in(&params, &prices, budgets, &cfg, &pool)
    } else {
        TieredSolver::aggregate_connected_in(&params, &prices, budgets, &cfg, &pool)
    };
    let mut ws = SolveWorkspace::new();
    let solved = solver.solve(&mut ws).unwrap();
    let requests: Vec<(u64, u64)> =
        ws.requests.iter().map(|r: &Request| (r.edge.to_bits(), r.cloud.to_bits())).collect();
    (
        requests,
        solved.aggregates.edge.to_bits(),
        solved.aggregates.cloud.to_bits(),
        solved.residual.to_bits(),
    )
}

/// The chunked aggregate-form sweep is bitwise identical at 1, 2 and 8
/// worker threads, on a population large enough to span chunk boundaries
/// (`SWEEP_CHUNK` = 4096), in both follower modes.
#[test]
fn aggregate_sweep_is_bitwise_identical_across_1_2_8_threads() {
    let budgets = lcg_budgets(4096 + 257);
    for standalone in [false, true] {
        let reference = aggregate_solve_bits(standalone, &budgets, 1);
        for threads in [2usize, 8] {
            let got = aggregate_solve_bits(standalone, &budgets, threads);
            assert_eq!(got, reference, "standalone = {standalone}, threads = {threads}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The chunked first-hit PoW search finds a solution whenever the linear
    /// scan does — and the *same* one (lowest nonce, same attempt count).
    #[test]
    fn parallel_pow_solve_matches_serial(
        seed in any::<u64>(),
        start in any::<u64>(),
        inv_p in 2_000.0f64..60_000.0,
        chunks in 1u64..5,
        slack in 0u64..2_000,
    ) {
        let target = Target::from_success_probability(1.0 / inv_p).unwrap();
        let puzzle = Puzzle::new(seed.to_le_bytes().to_vec(), target);
        let budget = chunks * Puzzle::PAR_CHUNK + slack;
        let pool = Pool::new(4);
        let serial = puzzle.solve(start, budget);
        let parallel = puzzle.solve_par(&pool, start, budget);
        prop_assert_eq!(&parallel, &serial);
        if let Some(sol) = &serial {
            prop_assert!(puzzle.verify(sol.nonce), "serial-found nonce must verify");
        }
    }
}
