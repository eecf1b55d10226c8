//! Two-timescale training loops (paper Section VI-C).
//!
//! Fast timescale: miners learn their requests at fixed prices over periods
//! of `T` blocks. Slow timescale: once the miners' behaviour stabilizes,
//! each provider adapts its price by a best response against the learned
//! demand; the two steps repeat until a joint fixed point.

use mbm_core::params::{MarketParams, Prices};
use mbm_core::request::{Aggregates, Request};
use mbm_core::subgame::dynamic::Population;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::actions::ActionGrid;
use crate::bandit::QLearner;
use crate::env::{BlockScratch, MiningEnv};
use crate::error::LearnError;

/// Configuration for the learning loops.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Blocks per learning period (the paper's `T = 50`; more periods are
    /// run until convergence, so the total block count is
    /// `periods × period_blocks`).
    pub period_blocks: usize,
    /// Number of learning periods.
    pub periods: usize,
    /// Actions per axis of the request grid.
    pub grid_points: usize,
    /// Grid span as a multiple of the model's predicted equilibrium.
    pub grid_spread: f64,
    /// Initial exploration probability.
    pub epsilon: f64,
    /// Exploration decay per update.
    pub epsilon_decay: f64,
    /// Learning step size (`None` = sample average).
    pub alpha: Option<f64>,
    /// Mixing weight ω between full and degraded service.
    pub mixing: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            period_blocks: 50,
            periods: 60,
            grid_points: 9,
            grid_spread: 3.0,
            epsilon: 0.4,
            epsilon_decay: 0.999,
            alpha: Some(0.05),
            mixing: 0.5,
            seed: 42,
        }
    }
}

/// Result of a miner-learning run at fixed prices.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LearnedMiners {
    /// Each miner's greedy (learned) request after training.
    pub requests: Vec<Request>,
    /// Average learned request across the pool.
    pub mean_request: Request,
    /// Aggregate demand of the learned profile.
    pub aggregates: Aggregates,
    /// Total blocks played.
    pub blocks: usize,
}

/// Trains `pool` miners at fixed prices and returns their learned
/// strategies — the RL points of the paper's Fig. 9.
///
/// The action grid is centred on the model's predicted symmetric dynamic
/// equilibrium, mirroring how the paper seeds its learners with reasonable
/// strategy ranges.
///
/// # Errors
///
/// Propagates configuration and model errors.
pub fn learn_miner_strategies(
    params: &MarketParams,
    prices: &Prices,
    budget: f64,
    population: &Population,
    pool: usize,
    cfg: &TrainConfig,
) -> Result<LearnedMiners, LearnError> {
    learn_miner_strategies_in(
        params,
        prices,
        budget,
        population,
        pool,
        cfg,
        &mut TrainerScratch::default(),
    )
}

/// [`learn_miner_strategies`] into a reusable [`TrainerScratch`] (see
/// [`learn_on_grid_in`]); bitwise identical output.
///
/// # Errors
///
/// Propagates configuration and model errors.
#[allow(clippy::too_many_arguments)] // mirrors learn_miner_strategies plus the scratch
pub fn learn_miner_strategies_in(
    params: &MarketParams,
    prices: &Prices,
    budget: f64,
    population: &Population,
    pool: usize,
    cfg: &TrainConfig,
    scratch: &mut TrainerScratch,
) -> Result<LearnedMiners, LearnError> {
    use mbm_core::solver::TieredSolver;
    use mbm_core::subgame::dynamic::DynamicConfig;
    let model_cfg = DynamicConfig { mixing: cfg.mixing, ..Default::default() };
    let (model, _) =
        TieredSolver::dynamic(params, prices, budget, population, &model_cfg).solve_per_miner()?;
    let grid = ActionGrid::around(model, cfg.grid_spread, cfg.grid_points, prices, budget)?;
    learn_on_grid_in(params, prices, &grid, population, pool, cfg, scratch)
}

/// Reusable training buffers: the learner tables, the per-block action
/// profile, and the environment's trajectory scratch — the training-run
/// analogue of the solver's `SolveWorkspace`. One run already reuses its
/// buffers across blocks; routing *repeated* runs (the slow-timescale price
/// adaptation re-trains the miner pool at every candidate price) through
/// one `TrainerScratch` keeps everything at high-water capacity, so
/// episodes allocate nothing after warmup.
#[derive(Debug, Default)]
pub struct TrainerScratch {
    learners: Vec<QLearner>,
    chosen: Vec<usize>,
    requests: Vec<Request>,
    block: BlockScratch,
}

impl TrainerScratch {
    /// Heap bytes currently reserved across all buffers (capacity, not
    /// length). Steady-state training must not grow this.
    #[must_use]
    pub fn footprint(&self) -> usize {
        self.learners.iter().map(QLearner::footprint).sum::<usize>()
            + self.learners.capacity() * std::mem::size_of::<QLearner>()
            + self.chosen.capacity() * std::mem::size_of::<usize>()
            + self.requests.capacity() * std::mem::size_of::<Request>()
            + self.block.footprint()
    }
}

/// Trains miners on an explicit action grid (no model seeding).
///
/// # Errors
///
/// Propagates configuration errors.
pub fn learn_on_grid(
    params: &MarketParams,
    prices: &Prices,
    grid: &ActionGrid,
    population: &Population,
    pool: usize,
    cfg: &TrainConfig,
) -> Result<LearnedMiners, LearnError> {
    learn_on_grid_in(params, prices, grid, population, pool, cfg, &mut TrainerScratch::default())
}

/// [`learn_on_grid`] into a reusable [`TrainerScratch`]: identical RNG
/// sequence and bitwise-identical output, but learner tables and trajectory
/// buffers are reset in place instead of reallocated, so back-to-back runs
/// (price adaptation, ensembles) allocate nothing after the first.
///
/// # Errors
///
/// Propagates configuration errors.
#[allow(clippy::too_many_arguments)] // mirrors learn_on_grid plus the scratch
pub fn learn_on_grid_in(
    params: &MarketParams,
    prices: &Prices,
    grid: &ActionGrid,
    population: &Population,
    pool: usize,
    cfg: &TrainConfig,
    scratch: &mut TrainerScratch,
) -> Result<LearnedMiners, LearnError> {
    if cfg.period_blocks == 0 || cfg.periods == 0 {
        return Err(LearnError::invalid("TrainConfig: periods and period_blocks must be positive"));
    }
    let env = MiningEnv::new(*params, *prices, population.clone(), pool, cfg.mixing)?;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let TrainerScratch { learners, chosen, requests, block: scratch } = scratch;
    learners.truncate(pool);
    for l in learners.iter_mut() {
        l.reset(grid.len(), cfg.epsilon, cfg.epsilon_decay, cfg.alpha)?;
    }
    while learners.len() < pool {
        learners.push(QLearner::new(grid.len(), cfg.epsilon, cfg.epsilon_decay, cfg.alpha)?);
    }
    chosen.clear();
    chosen.resize(pool, 0usize);
    requests.clear();
    requests.resize(pool, Request::default());
    let blocks = cfg.period_blocks * cfg.periods;
    let rec = mbm_obs::global();
    let telemetry = rec.enabled();
    for _ in 0..cfg.periods {
        let mut period_reward = 0.0;
        let mut period_samples = 0usize;
        for _ in 0..cfg.period_blocks {
            for (i, l) in learners.iter().enumerate() {
                chosen[i] = l.select(&mut rng);
            }
            for (r, &a) in requests.iter_mut().zip(chosen.iter()) {
                *r = grid.action(a);
            }
            env.play_block_into(requests, &mut rng, scratch);
            for (&i, &u) in scratch.participants.iter().zip(&scratch.utilities) {
                learners[i].update(chosen[i], u);
            }
            if telemetry {
                period_reward += scratch.utilities.iter().sum::<f64>();
                period_samples += scratch.utilities.len();
            }
        }
        if telemetry {
            rec.incr("learn.periods");
            rec.add("learn.blocks", cfg.period_blocks as u64);
            let mean = if period_samples > 0 { period_reward / period_samples as f64 } else { 0.0 };
            rec.trace("learn.period_reward", mean);
            if let Some(l) = learners.first() {
                rec.trace("learn.epsilon", l.epsilon());
            }
        }
    }
    let requests: Vec<Request> = learners.iter().map(|l| grid.action(l.best_action())).collect();
    let n = pool as f64;
    let mean_request = Request {
        edge: requests.iter().map(|r| r.edge).sum::<f64>() / n,
        cloud: requests.iter().map(|r| r.cloud).sum::<f64>() / n,
    };
    Ok(LearnedMiners { aggregates: Aggregates::of(&requests), requests, mean_request, blocks })
}

/// One step of the slow timescale: each provider best-responds to the
/// learned demand with a grid search over its price interval, re-training
/// the miners at every candidate price.
///
/// With `exec`, the candidate re-trainings fan across the pool. Every
/// candidate re-seeds its learner from `cfg.seed`, so the evaluations are
/// independent, and the winning price is picked by the same
/// first-strict-maximum scan either way: the outcome is bitwise identical at
/// any thread count.
///
/// Returns the updated prices and the learned miners at those prices.
///
/// # Errors
///
/// Propagates configuration and model errors.
#[allow(clippy::too_many_arguments)] // the slow-timescale inputs plus the pool
pub fn adapt_prices(
    params: &MarketParams,
    prices: &Prices,
    budget: f64,
    population: &Population,
    pool: usize,
    cfg: &TrainConfig,
    price_grid: usize,
    exec: Option<&mbm_par::Pool>,
) -> Result<(Prices, LearnedMiners), LearnError> {
    if price_grid < 2 {
        return Err(LearnError::invalid("adapt_prices: need at least 2 price candidates"));
    }
    let mut current = *prices;
    // ESP then CSP, one pass each (callers iterate for more).
    for leader in 0..2 {
        let (lo, hi, cost) = if leader == 0 {
            (params.esp().cost().max(1e-6), params.esp().price_cap(), params.esp().cost())
        } else {
            (params.csp().cost().max(1e-6), params.csp().price_cap(), params.csp().cost())
        };
        // Each candidate retrains the miners from the same seed, so the
        // evaluations are independent and safe to fan out. The scratch only
        // carries buffer capacity, never state that affects a result, so
        // serial (one scratch across candidates) and parallel (one per
        // call) evaluations stay bitwise identical.
        let evaluate = |k: usize, scratch: &mut TrainerScratch| -> Result<(f64, f64), LearnError> {
            let p = lo + (hi - lo) * (k as f64 + 0.5) / price_grid as f64;
            let candidate = if leader == 0 {
                Prices::new(p, current.cloud)?
            } else {
                Prices::new(current.edge, p)?
            };
            let learned = learn_miner_strategies_in(
                params, &candidate, budget, population, pool, cfg, scratch,
            )?;
            let demand =
                if leader == 0 { learned.aggregates.edge } else { learned.aggregates.cloud };
            Ok(((p - cost) * demand, p))
        };
        let profits: Vec<Result<(f64, f64), LearnError>> = match exec {
            Some(exec) => {
                exec.par_eval(price_grid, |k| evaluate(k, &mut TrainerScratch::default()))
            }
            None => {
                let mut scratch = TrainerScratch::default();
                (0..price_grid).map(|k| evaluate(k, &mut scratch)).collect()
            }
        };
        // First-strict-maximum scan in candidate order (and first error in
        // candidate order), identical however the profits were computed.
        let mut best_price = if leader == 0 { current.edge } else { current.cloud };
        let mut best_profit = f64::NEG_INFINITY;
        for result in profits {
            let (profit, p) = result?;
            if profit > best_profit {
                best_profit = profit;
                best_price = p;
            }
        }
        current = if leader == 0 {
            Prices::new(best_price, current.cloud)?
        } else {
            Prices::new(current.edge, best_price)?
        };
    }
    let learned = learn_miner_strategies(params, &current, budget, population, pool, cfg)?;
    Ok((current, learned))
}

/// Trains one independent learner run per seed in `seeds`, in parallel on
/// `exec` — the ensemble view used to report learning curves with error
/// bands. Each run is seeded independently, so the result vector is bitwise
/// identical to running [`learn_miner_strategies`] serially per seed.
///
/// # Errors
///
/// Propagates the first (lowest-seed-index) failure, as a serial loop would.
#[allow(clippy::too_many_arguments)] // mirrors learn_miner_strategies plus the ensemble inputs
pub fn learn_ensemble(
    params: &MarketParams,
    prices: &Prices,
    budget: f64,
    population: &Population,
    pool: usize,
    cfg: &TrainConfig,
    seeds: &[u64],
    exec: &mbm_par::Pool,
) -> Result<Vec<LearnedMiners>, LearnError> {
    exec.par_map(seeds, |_, &seed| {
        let run_cfg = TrainConfig { seed, ..*cfg };
        learn_miner_strategies(params, prices, budget, population, pool, &run_cfg)
    })
    .into_iter()
    .collect()
}

/// Outcome of the full two-timescale loop.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FullLoopOutcome {
    /// Final prices after the providers stopped moving.
    pub prices: Prices,
    /// Learned miner behaviour at the final prices.
    pub miners: LearnedMiners,
    /// Outer price rounds executed.
    pub rounds: usize,
    /// Final price displacement per round.
    pub residual: f64,
}

/// The complete Section VI-C loop: miners learn for a period, providers
/// adapt, repeated until the prices stop moving (or `max_rounds` runs out —
/// the last iterate is returned either way, with its residual, since the
/// stochastic learner never produces exact fixed points). With `exec`,
/// every price adaptation fans across the pool (see [`adapt_prices`]),
/// bitwise identical at any thread count.
///
/// # Errors
///
/// Propagates configuration and model errors.
#[allow(clippy::too_many_arguments)] // mirrors the paper's parameter list
pub fn full_loop(
    params: &MarketParams,
    start: &Prices,
    budget: f64,
    population: &Population,
    pool: usize,
    cfg: &TrainConfig,
    price_grid: usize,
    max_rounds: usize,
    tol: f64,
    exec: Option<&mbm_par::Pool>,
) -> Result<FullLoopOutcome, LearnError> {
    if max_rounds == 0 {
        return Err(LearnError::invalid("full_loop: max_rounds must be positive"));
    }
    let mut prices = *start;
    let mut residual = f64::INFINITY;
    let mut rounds = 0;
    let mut miners = learn_miner_strategies(params, &prices, budget, population, pool, cfg)?;
    for _ in 0..max_rounds {
        let (next, learned) =
            adapt_prices(params, &prices, budget, population, pool, cfg, price_grid, exec)?;
        residual = (next.edge - prices.edge).abs().max((next.cloud - prices.cloud).abs());
        prices = next;
        miners = learned;
        rounds += 1;
        if residual <= tol {
            break;
        }
    }
    Ok(FullLoopOutcome { prices, miners, rounds, residual })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbm_core::solver::TieredSolver;
    use mbm_core::subgame::dynamic::DynamicConfig;

    fn params() -> MarketParams {
        MarketParams::builder().reward(100.0).fork_rate(0.2).edge_availability(0.8).build().unwrap()
    }

    fn prices() -> Prices {
        Prices::new(4.0, 2.0).unwrap()
    }

    #[test]
    fn learned_strategies_track_the_model_equilibrium() {
        let p = params();
        let pr = prices();
        let pop = Population::gaussian(4.0, 1.0).unwrap();
        let budget = 300.0;
        let cfg = TrainConfig { periods: 120, ..Default::default() };
        let learned = learn_miner_strategies(&p, &pr, budget, &pop, 5, &cfg).unwrap();
        let model = TieredSolver::dynamic(&p, &pr, budget, &pop, &DynamicConfig::default())
            .solve_per_miner()
            .unwrap()
            .0;
        // The grid is coarse; agree within ~1.5 grid cells.
        let cell_e = model.edge * cfg.grid_spread / (cfg.grid_points - 1) as f64;
        let cell_c = model.cloud * cfg.grid_spread / (cfg.grid_points - 1) as f64;
        assert!(
            (learned.mean_request.edge - model.edge).abs() < 1.5 * cell_e + 1e-9,
            "learned {:?} vs model {model:?}",
            learned.mean_request
        );
        assert!(
            (learned.mean_request.cloud - model.cloud).abs() < 1.5 * cell_c + 1e-9,
            "learned {:?} vs model {model:?}",
            learned.mean_request
        );
    }

    #[test]
    fn learning_is_reproducible_for_a_seed() {
        let p = params();
        let pr = prices();
        let pop = Population::fixed(4).unwrap();
        let cfg = TrainConfig { periods: 10, ..Default::default() };
        let a = learn_miner_strategies(&p, &pr, 100.0, &pop, 4, &cfg).unwrap();
        let b = learn_miner_strategies(&p, &pr, 100.0, &pop, 4, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn full_loop_reaches_a_stable_price_region() {
        let p = params();
        let pop = Population::fixed(4).unwrap();
        let cfg = TrainConfig { periods: 30, ..Default::default() };
        let start = Prices::new(3.0, 1.5).unwrap();
        let out = full_loop(&p, &start, 150.0, &pop, 4, &cfg, 6, 4, 0.3, None).unwrap();
        assert!(out.rounds >= 1 && out.rounds <= 4);
        assert!(out.prices.edge > p.esp().cost() && out.prices.edge <= p.esp().price_cap());
        assert!(out.prices.cloud > p.csp().cost() && out.prices.cloud <= p.csp().price_cap());
        // The returned miner behaviour corresponds to the final prices.
        assert!(out.miners.blocks > 0);
        assert!(full_loop(&p, &start, 150.0, &pop, 4, &cfg, 6, 0, 0.3, None).is_err());
    }

    #[test]
    fn parallel_price_adaptation_is_bitwise_equal_to_serial() {
        let p = params();
        let pop = Population::fixed(4).unwrap();
        let cfg = TrainConfig { periods: 8, ..Default::default() };
        let start = Prices::new(3.0, 1.5).unwrap();
        let serial = adapt_prices(&p, &start, 150.0, &pop, 4, &cfg, 5, None).unwrap();
        for threads in [1, 2, 4] {
            let exec = mbm_par::Pool::new(threads);
            let par = adapt_prices(&p, &start, 150.0, &pop, 4, &cfg, 5, Some(&exec)).unwrap();
            assert_eq!(serial, par, "threads = {threads}");
        }
    }

    #[test]
    fn ensemble_matches_independent_serial_runs() {
        let p = params();
        let pr = prices();
        let pop = Population::fixed(4).unwrap();
        let cfg = TrainConfig { periods: 6, ..Default::default() };
        let seeds = [1u64, 7, 42, 1234];
        let exec = mbm_par::Pool::new(3);
        let ensemble = learn_ensemble(&p, &pr, 100.0, &pop, 4, &cfg, &seeds, &exec).unwrap();
        assert_eq!(ensemble.len(), seeds.len());
        for (seed, run) in seeds.iter().zip(&ensemble) {
            let one = learn_miner_strategies(
                &p,
                &pr,
                100.0,
                &pop,
                4,
                &TrainConfig { seed: *seed, ..cfg },
            )
            .unwrap();
            assert_eq!(&one, run, "seed = {seed}");
        }
    }

    #[test]
    fn scratch_runs_are_bitwise_equal_and_allocation_stable() {
        let p = params();
        let pop = Population::fixed(4).unwrap();
        let cfg = TrainConfig { periods: 8, ..Default::default() };
        let mut scratch = TrainerScratch::default();
        // Warm up the scratch once, then repeated runs at drifting prices
        // must reuse the reserved capacity exactly.
        let warmup = Prices::new(3.0, 1.5).unwrap();
        learn_miner_strategies_in(&p, &warmup, 120.0, &pop, 4, &cfg, &mut scratch).unwrap();
        let high_water = scratch.footprint();
        assert!(high_water > 0);
        for k in 0..6 {
            let pr = Prices::new(3.0 + 0.2 * k as f64, 1.5 + 0.1 * k as f64).unwrap();
            let reused =
                learn_miner_strategies_in(&p, &pr, 120.0, &pop, 4, &cfg, &mut scratch).unwrap();
            let fresh = learn_miner_strategies(&p, &pr, 120.0, &pop, 4, &cfg).unwrap();
            assert_eq!(reused, fresh, "scratch reuse changed the output at step {k}");
            assert_eq!(scratch.footprint(), high_water, "scratch grew at step {k}");
        }
    }

    #[test]
    fn config_validation() {
        let p = params();
        let pr = prices();
        let pop = Population::fixed(4).unwrap();
        let cfg = TrainConfig { periods: 0, ..Default::default() };
        assert!(learn_miner_strategies(&p, &pr, 100.0, &pop, 4, &cfg).is_err());
        assert!(adapt_prices(&p, &pr, 100.0, &pop, 4, &TrainConfig::default(), 1, None).is_err());
    }
}
