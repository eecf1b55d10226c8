//! Criterion performance benches for the equilibrium solvers.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use mbm_core::params::{MarketParams, Prices};
use mbm_core::solver::TieredSolver;
use mbm_core::stackelberg::{solve_connected, StackelbergConfig};
use mbm_core::subgame::connected::{analytic_best_response, BestResponseInputs};
use mbm_core::subgame::dynamic::{DynamicConfig, Population};
use mbm_core::subgame::SubgameConfig;

fn params() -> MarketParams {
    MarketParams::builder()
        .reward(100.0)
        .fork_rate(0.2)
        .edge_availability(0.8)
        .e_max(5.0)
        .build()
        .expect("valid params")
}

fn leader_params() -> MarketParams {
    MarketParams::builder()
        .reward(100.0)
        .fork_rate(0.2)
        .edge_availability(0.8)
        .esp(mbm_core::params::Provider::new(7.0, 15.0).expect("valid"))
        .csp(mbm_core::params::Provider::new(1.0, 8.0).expect("valid"))
        .e_max(5.0)
        .build()
        .expect("valid params")
}

fn bench_analytic_best_response(c: &mut Criterion) {
    let inp = BestResponseInputs {
        reward: 100.0,
        beta: 0.2,
        h: 0.8,
        prices: Prices::new(4.0, 2.0).expect("valid prices"),
        budget: 200.0,
        e_others: 5.0,
        s_others: 20.0,
        edge_cap: None,
    };
    c.bench_function("analytic_best_response", |b| {
        b.iter(|| analytic_best_response(std::hint::black_box(&inp)).expect("BR"))
    });
}

fn bench_symmetric_connected(c: &mut Criterion) {
    let p = params();
    let prices = Prices::new(4.0, 2.0).expect("valid prices");
    let cfg = SubgameConfig::default();
    c.bench_function("symmetric_connected_n5", |b| {
        b.iter(|| {
            TieredSolver::symmetric_connected(&p, &prices, 200.0, 5, &cfg)
                .solve_per_miner()
                .expect("solve")
        })
    });
    c.bench_function("symmetric_connected_n50", |b| {
        b.iter(|| {
            TieredSolver::symmetric_connected(&p, &prices, 200.0, 50, &cfg)
                .solve_per_miner()
                .expect("solve")
        })
    });
}

fn bench_nep_solver(c: &mut Criterion) {
    let p = params();
    let prices = Prices::new(4.0, 2.0).expect("valid prices");
    let cfg = SubgameConfig::default();
    let budgets = vec![50.0, 100.0, 150.0, 200.0, 250.0];
    c.bench_function("connected_nep_heterogeneous_n5", |b| {
        b.iter(|| {
            TieredSolver::connected(&p, &prices, &budgets, &cfg).solve_equilibrium().expect("solve")
        })
    });
}

fn bench_gnep_solver(c: &mut Criterion) {
    let p = params().with_e_max(2.0).expect("valid capacity");
    let prices = Prices::new(4.0, 2.0).expect("valid prices");
    let cfg = SubgameConfig::default();
    let budgets = vec![200.0; 4];
    c.bench_function("standalone_gnep_n4", |b| {
        b.iter(|| {
            TieredSolver::standalone(&p, &prices, &budgets, &cfg)
                .solve_equilibrium()
                .expect("solve")
        })
    });
}

fn bench_dynamic_solver(c: &mut Criterion) {
    let p = params();
    let prices = Prices::new(4.0, 2.0).expect("valid prices");
    let pop = Population::gaussian(8.0, 2.0).expect("valid population");
    let cfg = DynamicConfig::default();
    c.bench_function("dynamic_symmetric_mu8", |b| {
        b.iter(|| {
            TieredSolver::dynamic(&p, &prices, 300.0, &pop, &cfg).solve_per_miner().expect("solve")
        })
    });
}

fn bench_regret_matching(c: &mut Criterion) {
    use mbm_game::matrix::{regret_matching, BimatrixGame};
    // A 12x12 synthetic price game.
    let game = BimatrixGame::from_fn(12, 12, |i, j| {
        let (pi, pj) = (1.0 + i as f64, 1.0 + j as f64);
        (pi * (10.0 - pi + 0.4 * pj), pj * (10.0 - pj + 0.4 * pi))
    })
    .expect("valid game");
    c.bench_function("regret_matching_12x12_10k_iters", |b| {
        b.iter(|| regret_matching(&game, 10_000, 1).expect("run"))
    });
}

fn bench_gauss_hermite(c: &mut Criterion) {
    use mbm_numerics::quadrature::GaussHermite;
    c.bench_function("gauss_hermite_rule_40", |b| b.iter(|| GaussHermite::new(40).expect("rule")));
    let gh = GaussHermite::new(40).expect("rule");
    c.bench_function("gauss_hermite_expectation_40", |b| {
        b.iter(|| gh.gaussian_expectation(10.0, 2.0, |x| 1.0 / (1.0 + x * x)))
    });
}

fn bench_symmetric_standalone(c: &mut Criterion) {
    let p = params().with_e_max(2.0).expect("valid capacity");
    let prices = Prices::new(4.0, 2.0).expect("valid prices");
    let cfg = SubgameConfig::default();
    c.bench_function("symmetric_standalone_n5_capacity_binding", |b| {
        b.iter(|| {
            TieredSolver::symmetric_standalone(&p, &prices, 200.0, 5, &cfg)
                .solve_per_miner()
                .expect("solve")
        })
    });
}

fn bench_full_stackelberg(c: &mut Criterion) {
    let p = leader_params();
    let cfg = StackelbergConfig::default();
    c.bench_function("stackelberg_connected_homogeneous_n5", |b| {
        b.iter_batched(
            || vec![200.0; 5],
            |budgets| solve_connected(&p, &budgets, &cfg).expect("solve"),
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    benches,
    bench_analytic_best_response,
    bench_symmetric_connected,
    bench_nep_solver,
    bench_gnep_solver,
    bench_dynamic_solver,
    bench_regret_matching,
    bench_gauss_hermite,
    bench_symmetric_standalone,
    bench_full_stackelberg
);
criterion_main!(benches);
