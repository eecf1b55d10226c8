//! Full two-stage Stackelberg solutions.
//!
//! Backward induction per Definition 1: the leader stage (every provider
//! pricing, each anticipating the miner subgame) is solved by asynchronous
//! best response (paper Algorithm 1) or simultaneous price bargaining
//! (Algorithm 2's schedule) on the K-provider [`ProviderStage`]; the
//! reported follower equilibrium, with its [`SolveReport`], is then solved
//! at the equilibrium's effective prices with the full heterogeneous solver. [`solve_oligopoly`]
//! is the entry point for any provider set; [`solve_connected`] and
//! [`solve_standalone`] are its `K = 2` form for the paper's market.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use mbm_game::stackelberg::{leader_equilibrium, LeaderOutcome, LeaderParams};
use mbm_game::GameError;
use mbm_par::Pool;
use serde::{Deserialize, Serialize};

use crate::error::MiningGameError;
use crate::market::{PriceVector, ProviderSet};
use crate::params::{validate_budgets, EdgeOperation, MarketParams, Prices};
use crate::solver::{SolveReport, TieredSolver};
use crate::sp::stage::ProviderStage;
use crate::sp::MinerPopulation;
use crate::subgame::{MinerEquilibrium, SubgameConfig};

pub use mbm_game::stackelberg::LeaderSchedule;

/// Execution options for the pipeline: where leader payoffs run and whether
/// the solve publishes telemetry. Numerically inert: any `threads` count
/// gives bitwise-identical results (candidate grids are evaluated in
/// parallel but *selected* serially).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecConfig {
    /// Worker threads for leader-stage candidate evaluation: `1` runs serial
    /// on the calling thread, `0` means *auto* (resolve from the global
    /// pool). Call [`ExecConfig::effective_threads`] to get the resolved
    /// count — never read `MBM_PAR_THREADS` directly.
    pub threads: usize,
    /// When `true`, the pipeline drivers publish solve-level telemetry
    /// (effective thread gauge, leader rounds, wall-clock spans) to
    /// [`mbm_obs::global`]. Events still only land if that recorder is
    /// enabled; the flag exists so unrelated solves in the same process do
    /// not pollute a scoped measurement.
    #[serde(default)]
    pub telemetry: bool,
}

impl ExecConfig {
    /// Serial and untelemetered: the reference execution mode (also
    /// [`Default`]).
    #[must_use]
    pub fn serial() -> Self {
        ExecConfig { threads: 1, telemetry: false }
    }

    /// Same execution settings with telemetry publication switched on.
    #[must_use]
    pub fn with_telemetry(self) -> Self {
        ExecConfig { telemetry: true, ..self }
    }

    /// The worker count this configuration actually runs with.
    ///
    /// This is the **single authoritative resolution point** for pool sizing
    /// in the pipeline: `threads == 0` defers to [`Pool::global`] (which
    /// owns the one `MBM_PAR_THREADS` environment read, falling back to
    /// `available_parallelism`), anything else is taken literally. Telemetry
    /// reports this resolved value as the `core.exec.threads` gauge, so a
    /// snapshot always states the thread count it was produced under.
    #[must_use]
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            Pool::global().threads()
        } else {
            self.threads
        }
    }
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig::serial()
    }
}

/// Configuration for the full Stackelberg solve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StackelbergConfig {
    /// Leader-stage solver settings.
    pub leader: LeaderParams,
    /// Follower-stage solver settings.
    pub subgame: SubgameConfig,
    /// Leader-update schedule.
    pub schedule: LeaderSchedule,
    /// Execution options (parallelism and telemetry).
    #[serde(default)]
    pub exec: ExecConfig,
}

impl Default for StackelbergConfig {
    fn default() -> Self {
        StackelbergConfig {
            leader: LeaderParams::pipeline(),
            subgame: SubgameConfig::default(),
            schedule: LeaderSchedule::BestResponse,
            exec: ExecConfig::serial(),
        }
    }
}

/// A solved Stackelberg game.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StackelbergSolution {
    /// Equilibrium prices `(P_e*, P_c*)`.
    pub prices: Prices,
    /// Follower equilibrium at those prices.
    pub equilibrium: MinerEquilibrium,
    /// What the follower solve behind `equilibrium` did.
    pub report: SolveReport,
    /// ESP profit `V_e`.
    pub esp_profit: f64,
    /// CSP profit `V_c`.
    pub csp_profit: f64,
    /// Leader rounds used.
    pub leader_rounds: usize,
    /// Final leader residual (price displacement).
    pub leader_residual: f64,
}

/// A solved K-provider Stackelberg game.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OligopolySolution {
    /// Equilibrium prices `[P_e*, P_c¹*, …]`.
    pub prices: Vec<f64>,
    /// Follower equilibrium at the effective prices.
    pub equilibrium: MinerEquilibrium,
    /// What the follower solve behind `equilibrium` did.
    pub report: SolveReport,
    /// Per-provider demand (Bertrand allocation of the aggregates).
    pub demand: Vec<f64>,
    /// Per-provider profits.
    pub profits: Vec<f64>,
    /// Leader rounds used.
    pub leader_rounds: usize,
    /// Final leader residual (price displacement).
    pub leader_residual: f64,
}

/// Solves the connected-mode Stackelberg game for the given miner budgets.
///
/// Homogeneous budgets automatically use the symmetric fast-path follower
/// solver inside the price search.
///
/// # Errors
///
/// Propagates parameter and convergence errors.
pub fn solve_connected(
    params: &MarketParams,
    budgets: &[f64],
    cfg: &StackelbergConfig,
) -> Result<StackelbergSolution, MiningGameError> {
    solve_two_provider(params, budgets, EdgeOperation::Connected, cfg, &CONNECTED)
}

/// Solves the standalone-mode Stackelberg game for the given miner budgets.
///
/// # Errors
///
/// Propagates parameter and convergence errors.
pub fn solve_standalone(
    params: &MarketParams,
    budgets: &[f64],
    cfg: &StackelbergConfig,
) -> Result<StackelbergSolution, MiningGameError> {
    solve_two_provider(params, budgets, EdgeOperation::Standalone, cfg, &STANDALONE)
}

/// Solves the K-provider Stackelberg game: the leader schedule and
/// damping-retry ladder run on a [`ProviderStage`] over `providers`, then
/// the follower equilibrium is solved at the effective equilibrium prices
/// with the full heterogeneous solver.
///
/// With `cfg.exec.telemetry` set, publishes `core.solver.oligopoly.solves`
/// / `.rounds` counters, the `core.solver.oligopoly.k` gauge and the
/// `.residual` observation to [`mbm_obs::global`].
///
/// # Errors
///
/// Propagates parameter and convergence errors.
pub fn solve_oligopoly(
    params: &MarketParams,
    providers: &ProviderSet,
    budgets: &[f64],
    mode: EdgeOperation,
    cfg: &StackelbergConfig,
) -> Result<OligopolySolution, MiningGameError> {
    solve(params, providers, budgets, mode, cfg, &OLIGOPOLY)
}

/// The telemetry names one solve entry point publishes under.
struct SolveMetrics {
    span: &'static str,
    solves: &'static str,
    rounds: &'static str,
    residual: &'static str,
    /// Gauge for the provider count `K`, if the entry point publishes it.
    k: Option<&'static str>,
}

const CONNECTED: SolveMetrics = SolveMetrics {
    span: "core.solve.connected",
    solves: "core.solves.connected",
    rounds: "core.leader.rounds",
    residual: "core.leader.residual",
    k: None,
};

const STANDALONE: SolveMetrics =
    SolveMetrics { span: "core.solve.standalone", solves: "core.solves.standalone", ..CONNECTED };

const OLIGOPOLY: SolveMetrics = SolveMetrics {
    span: "core.solver.oligopoly.solve",
    solves: "core.solver.oligopoly.solves",
    rounds: "core.solver.oligopoly.rounds",
    residual: "core.solver.oligopoly.residual",
    k: Some("core.solver.oligopoly.k"),
};

/// The paper's market as a `K = 2` solve, reported as a price pair.
fn solve_two_provider(
    params: &MarketParams,
    budgets: &[f64],
    mode: EdgeOperation,
    cfg: &StackelbergConfig,
    metrics: &SolveMetrics,
) -> Result<StackelbergSolution, MiningGameError> {
    let sol = solve(params, &ProviderSet::from_market(params), budgets, mode, cfg, metrics)?;
    Ok(StackelbergSolution {
        prices: Prices { edge: sol.prices[0], cloud: sol.prices[1] },
        equilibrium: sol.equilibrium,
        report: sol.report,
        esp_profit: sol.profits[0],
        csp_profit: sol.profits[1],
        leader_rounds: sol.leader_rounds,
        leader_residual: sol.leader_residual,
    })
}

fn solve(
    params: &MarketParams,
    providers: &ProviderSet,
    budgets: &[f64],
    mode: EdgeOperation,
    cfg: &StackelbergConfig,
    metrics: &SolveMetrics,
) -> Result<OligopolySolution, MiningGameError> {
    validate_budgets(budgets)?;
    let rec = mbm_obs::global();
    let telemetry = cfg.exec.telemetry;
    let _span = telemetry.then(|| rec.span(metrics.span));
    let threads = cfg.exec.effective_threads();
    if telemetry {
        rec.incr(metrics.solves);
        if let Some(k) = metrics.k {
            rec.gauge(k, providers.k() as u64);
        }
        rec.gauge("core.exec.threads", threads as u64);
    }
    let stage =
        ProviderStage::new(*params, providers.clone(), population_of(budgets), mode, cfg.subgame);
    let init = providers.midpoint_prices().to_vec();
    let pool = (threads > 1).then(|| Pool::new(threads));
    let out = run_leader_stage(&stage, init, cfg, pool.as_ref())?;
    if telemetry {
        rec.add(metrics.rounds, out.rounds as u64);
        rec.observe(metrics.residual, out.residual);
    }
    let prices = PriceVector::new(&out.actions)?;
    let effective = prices.effective();
    let (equilibrium, report) = match mode {
        EdgeOperation::Connected => {
            TieredSolver::connected(params, &effective, budgets, &cfg.subgame)
        }
        EdgeOperation::Standalone => {
            TieredSolver::standalone(params, &effective, budgets, &cfg.subgame)
        }
    }
    .solve_equilibrium()?;
    Ok(OligopolySolution {
        prices: prices.to_vec(),
        demand: prices.allocate_demand(&equilibrium.aggregates),
        profits: providers.profits(&prices, &equilibrium.aggregates),
        equilibrium,
        report,
        leader_rounds: out.rounds,
        leader_residual: out.residual,
    })
}

/// Runs the configured leader schedule on `stage`, serially or on `pool`.
///
/// The leader game can lack a pure Nash equilibrium: whenever the CSP's
/// stationary price exceeds the ESP's unit cost, the ESP's best response
/// flips discontinuously between its price cap and the mixed-strategy kink,
/// producing an Edgeworth-style price cycle (see DESIGN.md). Best response
/// therefore retries with increasing damping, which settles near-cycles; a
/// genuine cycle still reports `NoConvergence` honestly.
fn run_leader_stage(
    stage: &ProviderStage,
    init: Vec<f64>,
    cfg: &StackelbergConfig,
    pool: Option<&Pool>,
) -> Result<LeaderOutcome, GameError> {
    let solve_once = |params: &LeaderParams, init: Vec<f64>| {
        leader_equilibrium(stage, init, params, cfg.schedule, pool, |_| {})
    };
    match cfg.schedule {
        LeaderSchedule::BestResponse => {
            let mut result = solve_once(&cfg.leader, init.clone());
            for damping in [0.5, 0.25] {
                if result.is_ok() {
                    break;
                }
                let damped = LeaderParams { damping, ..cfg.leader };
                result = solve_once(&damped, init.clone());
            }
            result
        }
        LeaderSchedule::Bargaining => {
            let damped = LeaderParams { damping: 0.6, ..cfg.leader };
            solve_once(&damped, init)
        }
    }
}

fn population_of(budgets: &[f64]) -> MinerPopulation {
    let first = budgets[0];
    if budgets.iter().all(|&b| (b - first).abs() <= 1e-12 * (1.0 + first)) {
        MinerPopulation::Homogeneous { budget: first, n: budgets.len() }
    } else {
        MinerPopulation::Heterogeneous { budgets: budgets.to_vec() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parameters in the pure-NE region of the leader game: the CSP's
    /// stationary price (~5.6 at these values) stays below the ESP's unit
    /// cost, so the ESP's cap is dominant and no Edgeworth cycle arises.
    fn params() -> MarketParams {
        MarketParams::builder()
            .reward(100.0)
            .fork_rate(0.2)
            .edge_availability(0.8)
            .e_max(5.0)
            .esp(crate::params::Provider::new(7.0, 15.0).unwrap())
            .csp(crate::params::Provider::new(1.0, 8.0).unwrap())
            .build()
            .unwrap()
    }

    #[test]
    fn connected_solution_is_sane() {
        let p = params();
        let sol = solve_connected(&p, &[200.0; 5], &StackelbergConfig::default()).unwrap();
        // Prices within bounds.
        assert!(sol.prices.edge > p.esp().cost() && sol.prices.edge <= p.esp().price_cap());
        assert!(sol.prices.cloud > p.csp().cost() && sol.prices.cloud <= p.csp().price_cap());
        // ESP prices above CSP (scarce low-latency resource).
        assert!(sol.prices.edge > sol.prices.cloud);
        // Positive activity and profits.
        assert!(sol.equilibrium.aggregates.edge > 0.0);
        assert!(sol.equilibrium.aggregates.cloud > 0.0);
        assert!(sol.esp_profit > 0.0);
        assert!(sol.csp_profit > 0.0);
    }

    #[test]
    fn esp_hits_its_cap_in_the_budget_binding_regime() {
        // Theorem 4: with binding budgets the ESP's dominant strategy is its
        // price cap.
        let p = params();
        let sol = solve_connected(&p, &[200.0; 5], &StackelbergConfig::default()).unwrap();
        assert!(
            (sol.prices.edge - p.esp().price_cap()).abs() < 0.2,
            "P_e = {} vs cap {}",
            sol.prices.edge,
            p.esp().price_cap()
        );
    }

    #[test]
    fn standalone_solution_respects_capacity_and_prices_higher() {
        let p = params();
        let cfg = StackelbergConfig::default();
        let conn = solve_connected(&p, &[200.0; 5], &cfg).unwrap();
        let stand = solve_standalone(&p, &[200.0; 5], &cfg).unwrap();
        assert!(stand.equilibrium.aggregates.edge <= p.e_max() + 1e-4);
        // Paper Section VI-B: the standalone mode allows the ESP a higher
        // price (it does not, however, always yield more profit under a
        // shared cap, so we only assert the price ordering).
        assert!(
            stand.prices.edge >= conn.prices.edge - 0.2,
            "standalone {} vs connected {}",
            stand.prices.edge,
            conn.prices.edge
        );
    }

    #[test]
    fn bargaining_schedule_agrees_with_best_response() {
        let p = params();
        let br = solve_connected(&p, &[200.0; 5], &StackelbergConfig::default()).unwrap();
        let barg = solve_connected(
            &p,
            &[200.0; 5],
            &StackelbergConfig { schedule: LeaderSchedule::Bargaining, ..Default::default() },
        )
        .unwrap();
        assert!(
            (br.prices.edge - barg.prices.edge).abs() < 0.3,
            "{:?} vs {:?}",
            br.prices,
            barg.prices
        );
        assert!((br.prices.cloud - barg.prices.cloud).abs() < 0.3);
    }

    #[test]
    fn heterogeneous_budgets_are_accepted() {
        let p = params();
        // Loose settings keep the full-NEP leader search affordable in tests.
        let cfg = StackelbergConfig {
            leader: LeaderParams {
                tol: 5e-3,
                max_rounds: 20,
                grid_points: 9,
                grid_rounds: 3,
                damping: 1.0,
            },
            subgame: SubgameConfig { tol: 1e-7, ..Default::default() },
            schedule: LeaderSchedule::BestResponse,
            exec: ExecConfig::default(),
        };
        let sol = solve_connected(&p, &[50.0, 100.0, 200.0], &cfg).unwrap();
        assert!(sol.prices.edge > sol.prices.cloud);
        assert!(sol.equilibrium.requests.len() == 3);
        // Richer miners buy more in total.
        let totals: Vec<f64> = sol.equilibrium.requests.iter().map(|r| r.total()).collect();
        assert!(totals[2] >= totals[0], "{totals:?}");
    }

    #[test]
    fn rejects_bad_budgets() {
        let p = params();
        assert!(solve_connected(&p, &[100.0], &StackelbergConfig::default()).is_err());
        assert!(solve_connected(&p, &[], &StackelbergConfig::default()).is_err());
    }

    #[test]
    fn parallel_execution_is_bitwise_equal_to_serial() {
        let p = params();
        let serial = solve_connected(&p, &[200.0; 5], &StackelbergConfig::default()).unwrap();
        for threads in [2, 4] {
            let cfg = StackelbergConfig {
                exec: ExecConfig { threads, telemetry: false },
                ..Default::default()
            };
            let par = solve_connected(&p, &[200.0; 5], &cfg).unwrap();
            assert_eq!(serial, par, "threads = {threads}");
        }
    }

    fn three_provider_set() -> ProviderSet {
        ProviderSet::new(vec![
            crate::params::Provider::new(7.0, 15.0).unwrap(),
            crate::params::Provider::new(1.0, 8.0).unwrap(),
            crate::params::Provider::new(1.5, 8.0).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn k3_solution_prices_the_cheap_cloud_below_its_rival() {
        let p = params();
        let set = three_provider_set();
        let sol = solve_oligopoly(
            &p,
            &set,
            &[200.0; 5],
            EdgeOperation::Connected,
            &StackelbergConfig::default(),
        )
        .unwrap();
        assert_eq!(sol.prices.len(), 3);
        // Demand accounting: edge gets E, winning cloud(s) split C.
        let agg = sol.equilibrium.aggregates;
        assert!((sol.demand[0] - agg.edge).abs() < 1e-12);
        assert!((sol.demand[1] + sol.demand[2] - agg.cloud).abs() < 1e-9, "{:?}", sol.demand);
        // The losing cloud provider earns nothing.
        let min = sol.prices[1].min(sol.prices[2]);
        for i in 1..3 {
            if sol.prices[i] > min {
                assert_eq!(sol.profits[i], 0.0, "{sol:?}");
            }
        }
    }

    #[test]
    fn k3_parallel_execution_is_bitwise_serial() {
        let p = params();
        let set = three_provider_set();
        let serial = solve_oligopoly(
            &p,
            &set,
            &[200.0; 5],
            EdgeOperation::Connected,
            &StackelbergConfig::default(),
        )
        .unwrap();
        let cfg = StackelbergConfig {
            exec: ExecConfig { threads: 4, telemetry: false },
            ..Default::default()
        };
        let pooled =
            solve_oligopoly(&p, &set, &[200.0; 5], EdgeOperation::Connected, &cfg).unwrap();
        assert_eq!(serial, pooled);
    }
}
