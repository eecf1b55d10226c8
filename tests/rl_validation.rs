//! End-to-end validation of the paper's Section VI-C claim: reinforcement
//! learners rediscover the model's equilibria, and the adaptive price loop
//! moves providers toward profitable prices.

use mbm_core::params::{MarketParams, Prices};
use mbm_core::solver::TieredSolver;
use mbm_core::subgame::dynamic::{DynamicConfig, Population};
use mbm_learn::trainer::{adapt_prices, learn_miner_strategies, TrainConfig};

fn params() -> MarketParams {
    MarketParams::builder().reward(100.0).fork_rate(0.2).edge_availability(0.8).build().unwrap()
}

#[test]
fn learners_find_the_dynamic_equilibrium() {
    let p = params();
    let prices = Prices::new(4.0, 2.0).unwrap();
    let budget = 300.0;
    let pop = Population::gaussian(5.0, 1.5).unwrap();
    let cfg = TrainConfig { periods: 200, ..Default::default() };
    let learned = learn_miner_strategies(&p, &prices, budget, &pop, 10, &cfg).unwrap();
    let model = TieredSolver::dynamic(&p, &prices, budget, &pop, &DynamicConfig::default())
        .solve_per_miner()
        .unwrap()
        .0;
    // Agreement within ~1.5 grid cells of the learner's action grid.
    let cell_e = model.edge * cfg.grid_spread / (cfg.grid_points - 1) as f64;
    let cell_c = model.cloud * cfg.grid_spread / (cfg.grid_points - 1) as f64;
    assert!(
        (learned.mean_request.edge - model.edge).abs() < 1.5 * cell_e,
        "edge: learned {} vs model {}",
        learned.mean_request.edge,
        model.edge
    );
    assert!(
        (learned.mean_request.cloud - model.cloud).abs() < 1.5 * cell_c,
        "cloud: learned {} vs model {}",
        learned.mean_request.cloud,
        model.cloud
    );
}

#[test]
fn uncertainty_effect_survives_learning() {
    // The paper's Fig. 9 claim replicated through the RL pipeline: learned
    // edge demand under population uncertainty exceeds the fixed-population
    // learned demand (mean-matched populations, generous margin for grid
    // noise).
    let p = params();
    let prices = Prices::new(4.0, 2.0).unwrap();
    let budget = 500.0;
    let cfg = TrainConfig { periods: 400, grid_points: 11, seed: 5, ..Default::default() };
    let fixed =
        learn_miner_strategies(&p, &prices, budget, &Population::fixed(10).unwrap(), 18, &cfg)
            .unwrap();
    let dynamic = learn_miner_strategies(
        &p,
        &prices,
        budget,
        &Population::gaussian(9.5, 3.0).unwrap(),
        18,
        &cfg,
    )
    .unwrap();
    assert!(
        dynamic.mean_request.edge >= fixed.mean_request.edge * 0.95,
        "dynamic {} vs fixed {}",
        dynamic.mean_request.edge,
        fixed.mean_request.edge
    );
}

#[test]
fn adaptive_pricing_improves_provider_profit() {
    let p = params();
    let start = Prices::new(3.0, 1.2).unwrap();
    let budget = 200.0;
    let pop = Population::fixed(5).unwrap();
    let cfg = TrainConfig { periods: 60, ..Default::default() };

    let before = learn_miner_strategies(&p, &start, budget, &pop, 5, &cfg).unwrap();
    let esp_before = (start.edge - p.esp().cost()) * before.aggregates.edge;
    let csp_before = (start.cloud - p.csp().cost()) * before.aggregates.cloud;

    let (prices, after) = adapt_prices(&p, &start, budget, &pop, 5, &cfg, 8).unwrap();
    let esp_after = (prices.edge - p.esp().cost()) * after.aggregates.edge;
    let csp_after = (prices.cloud - p.csp().cost()) * after.aggregates.cloud;

    // Each provider's grid best response should not lose money relative to
    // the starting prices (allowing learning noise).
    assert!(esp_after >= esp_before * 0.8, "ESP profit fell: {esp_after} vs {esp_before}");
    assert!(csp_after >= csp_before * 0.8, "CSP profit fell: {csp_after} vs {csp_before}");
    // Prices stay within their admissible ranges.
    assert!(prices.edge > p.esp().cost() && prices.edge <= p.esp().price_cap());
    assert!(prices.cloud > p.csp().cost() && prices.cloud <= p.csp().price_cap());
}
