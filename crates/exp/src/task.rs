//! The unit of planned work: one solver invocation with exact-bit identity.
//!
//! A [`Task`] captures *everything* a solve depends on — market, prices,
//! budgets, solver configuration, seeds — so the planner can key it by the
//! raw bit patterns of its inputs ([`Task::canon`]) and plan each distinct
//! solve exactly once across all specs of a batch. Two tasks are equal iff
//! every input bit is equal; there is no tolerance, so dedup can never
//! change a result.
//!
//! Market-level solves ([`Task::Nep`], [`Task::Leader`], [`Task::SymSubgame`],
//! [`Task::SymDynamic`]) route through [`Scenario`], the library's one solve
//! path; the remaining variants wrap the diagnostic surfaces the paper's
//! experiments exercise (Monte-Carlo fork model, Algorithm 1 traces, mixed
//! pricing, Q-learning, the race simulator).

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use mbm_chain_sim::fork::{collision_pdf, split_rate_curve, CollisionPdf, ForkPoint};
use mbm_chain_sim::network::DelayModel;
use mbm_chain_sim::sim::{simulate, EdgeMode, SimConfig};
use mbm_core::algorithms::{algorithm1_asynchronous_best_response, AlgorithmConfig, PriceTrace};
use mbm_core::market::{provider_revenues, PriceVector, ProviderSet};
use mbm_core::params::{MarketParams, Prices, Provider};
use mbm_core::request::Aggregates;
use mbm_core::request::Request;
use mbm_core::scenario::{EdgeOperation, Scenario, ScenarioOutcome};
use mbm_core::solver::{SolveReport, TieredSolver};
use mbm_core::sp::mixed::{mixed_price_equilibrium, MixedPriceEquilibrium, MixedPricingConfig};
use mbm_core::sp::pricing::{standalone_csp_price, standalone_market_clearing_edge_price};
use mbm_core::sp::stage::ProviderStage;
use mbm_core::sp::MinerPopulation;
use mbm_core::stackelberg::{LeaderSchedule, StackelbergConfig};
use mbm_core::subgame::connected::ConnectedMinerGame;
use mbm_core::subgame::dynamic::{DynamicConfig, Population};
use mbm_core::subgame::SubgameConfig;
use mbm_core::table2::{closed_forms, Table2};
use mbm_game::nash::{best_response_dynamics, BrParams, UpdateOrder};
use mbm_game::profile::Profile;
use mbm_game::stackelberg::LeaderStage;
use mbm_learn::trainer::{learn_miner_strategies, TrainConfig};
use mbm_numerics::optimize::adaptive_grid_max;

/// A miner population without the discretized pmf attached — the exact-bit
/// identity the planner keys on; [`PopSpec::to_population`] materializes it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PopSpec {
    /// Exactly `n` miners.
    Fixed(usize),
    /// `N ~ Gaussian(mean, sd²)` discretized as in the paper.
    Gaussian {
        /// Mean miner count.
        mean: f64,
        /// Standard deviation.
        sd: f64,
    },
}

impl PopSpec {
    /// Builds the core population this spec denotes.
    ///
    /// # Errors
    ///
    /// Propagates the population validation error as a string.
    pub fn to_population(&self) -> Result<Population, String> {
        match *self {
            PopSpec::Fixed(n) => Population::fixed(n).map_err(|e| e.to_string()),
            PopSpec::Gaussian { mean, sd } => {
                Population::gaussian(mean, sd).map_err(|e| e.to_string())
            }
        }
    }
}

/// Edge-operation mode of a chain-race simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RaceModeSpec {
    /// Requests served exactly as submitted.
    Free,
    /// Connected ESP with availability `h`.
    Connected {
        /// Edge availability.
        h: f64,
    },
    /// Standalone ESP with capacity `e_max`.
    Standalone {
        /// Edge capacity.
        e_max: f64,
    },
}

/// Summary statistics of one race-simulator run.
#[derive(Debug, Clone, PartialEq)]
pub struct RaceSummary {
    /// Per-miner empirical winning frequencies.
    pub win_frequencies: Vec<f64>,
    /// Empirical fork (split) rate.
    pub fork_rate: f64,
    /// Rounds in which some request was degraded/rejected.
    pub degraded_rounds: u64,
}

/// One plannable solver invocation. See the module docs for the identity
/// contract.
#[derive(Debug, Clone)]
pub enum Task {
    /// Symmetric homogeneous follower subgame at fixed prices (the figure
    /// sweeps' per-grid-point solve), via [`Scenario::solve_symmetric`].
    SymSubgame {
        /// Edge operation mode.
        op: EdgeOperation,
        /// Market parameters.
        params: MarketParams,
        /// Announced prices.
        prices: Prices,
        /// Common miner budget.
        budget: f64,
        /// Miner count.
        n: usize,
        /// Follower-stage solver settings.
        cfg: SubgameConfig,
    },
    /// Full (possibly heterogeneous) follower NEP at fixed prices, via
    /// [`Scenario::solve`].
    Nep {
        /// Edge operation mode.
        op: EdgeOperation,
        /// Market parameters.
        params: MarketParams,
        /// Announced prices.
        prices: Prices,
        /// Per-miner budgets.
        budgets: Vec<f64>,
        /// Follower-stage solver settings.
        cfg: SubgameConfig,
    },
    /// Full Stackelberg solve (leader stage + follower NEP), via
    /// [`Scenario::solve`] with endogenous prices.
    Leader {
        /// Edge operation mode.
        op: EdgeOperation,
        /// Market parameters.
        params: MarketParams,
        /// Per-miner budgets.
        budgets: Vec<f64>,
        /// Full pipeline configuration.
        cfg: StackelbergConfig,
    },
    /// Symmetric equilibrium under a dynamic (uncertain) population at
    /// fixed prices, via [`Scenario::solve`] with a dynamic population.
    SymDynamic {
        /// Market parameters.
        params: MarketParams,
        /// Announced prices.
        prices: Prices,
        /// Common miner budget.
        budget: f64,
        /// Population model.
        pop: PopSpec,
        /// Dynamic-population solver settings.
        cfg: DynamicConfig,
    },
    /// Continuous-Gaussian variant of the dynamic equilibrium (ABL-5's
    /// diagnostic; not a market solve, so it calls the solver directly).
    SymContinuous {
        /// Market parameters.
        params: MarketParams,
        /// Announced prices.
        prices: Prices,
        /// Common miner budget.
        budget: f64,
        /// Population mean.
        mu: f64,
        /// Population standard deviation.
        sd: f64,
        /// Dynamic-population solver settings.
        cfg: DynamicConfig,
    },
    /// CSP profit-maximizing price by direct search over the follower
    /// equilibrium on the paper's adaptive grid (Fig. 6 panel 2).
    CspOptimalPrice {
        /// Market parameters.
        params: MarketParams,
        /// Edge operation mode.
        op: EdgeOperation,
        /// The ESP's (fixed) price during the search.
        edge_price: f64,
        /// Common miner budget.
        budget: f64,
        /// Miner count.
        n: usize,
        /// Follower-stage solver settings.
        cfg: SubgameConfig,
    },
    /// Table II closed forms at sufficient budgets.
    ClosedForms {
        /// Market parameters.
        params: MarketParams,
        /// Announced prices.
        prices: Prices,
        /// Miner count.
        n: usize,
    },
    /// Standalone closed-form CSP price and market-clearing ESP price.
    StandalonePrices {
        /// Market parameters.
        params: MarketParams,
        /// Miner count.
        n: usize,
    },
    /// Monte-Carlo block-collision PDF (Fig. 2a).
    CollisionPdf {
        /// Block discovery rate.
        rate: f64,
        /// Histogram horizon in seconds.
        horizon: f64,
        /// Histogram bins.
        bins: usize,
        /// Monte-Carlo samples.
        samples: usize,
        /// RNG seed.
        seed: u64,
    },
    /// Monte-Carlo split-rate curve over delays (Fig. 2b, calibration).
    SplitRate {
        /// Block discovery rate.
        rate: f64,
        /// Delay grid in seconds.
        delays: Vec<f64>,
        /// Monte-Carlo samples per delay.
        samples: usize,
        /// RNG seed.
        seed: u64,
    },
    /// Raw best-response dynamics on the connected NEP from the ablation's
    /// fixed warm start (`(B/16, B/8)` per miner) — ABL-1's diagnostic.
    BrDynamics {
        /// Market parameters.
        params: MarketParams,
        /// Announced prices.
        prices: Prices,
        /// Per-miner budgets.
        budgets: Vec<f64>,
        /// Damping factor of the sequential sweeps.
        damping: f64,
        /// Convergence tolerance.
        tol: f64,
        /// Sweep cap.
        max_sweeps: usize,
    },
    /// Algorithm 1 price trace (asynchronous leader best response).
    Algorithm1 {
        /// Market parameters.
        params: MarketParams,
        /// Edge operation mode.
        op: EdgeOperation,
        /// Common miner budget.
        budget: f64,
        /// Miner count.
        n: usize,
        /// Starting prices.
        init: Prices,
        /// Round cap (remaining settings are [`AlgorithmConfig::default`]).
        max_rounds: usize,
    },
    /// Mixed-strategy price equilibrium by regret matching on the
    /// discretized leader game.
    MixedPricing {
        /// Market parameters.
        params: MarketParams,
        /// Edge operation mode.
        op: EdgeOperation,
        /// Common miner budget.
        budget: f64,
        /// Miner count.
        n: usize,
        /// Grid points per price axis.
        grid_points: usize,
        /// Regret-matching iterations (remaining settings are
        /// [`MixedPricingConfig::default`]).
        iterations: usize,
    },
    /// Q-learning check of the dynamic-population model (Fig. 9 markers);
    /// the output is the learned mean request.
    RlTrain {
        /// Market parameters.
        params: MarketParams,
        /// Announced prices.
        prices: Prices,
        /// Common miner budget.
        budget: f64,
        /// Population model.
        pop: PopSpec,
        /// Learner pool size.
        pool: usize,
        /// Training settings.
        cfg: TrainConfig,
    },
    /// Discrete-event mining race (the sim-vs-analytic harness).
    RaceSim {
        /// Per-miner `(edge, cloud)` requests.
        requests: Vec<(f64, f64)>,
        /// PoW solution rate of one computing unit.
        unit_rate: f64,
        /// Cloud propagation delay in seconds.
        delay: f64,
        /// Broadcast delay in seconds.
        broadcast_delay: f64,
        /// Edge operation mode.
        mode: RaceModeSpec,
        /// Mining rounds.
        rounds: usize,
        /// RNG seed.
        seed: u64,
    },
    /// Uniform-budget follower NEP solved through the aggregate-form O(N)
    /// chain — the scaling-curve spec's per-N solve. The population is
    /// described by `(budget, n)` and materialized on the worker, so
    /// million-miner tasks don't drag million-element budget vectors
    /// through the planner.
    AggregateNep {
        /// Edge operation mode.
        op: EdgeOperation,
        /// Market parameters.
        params: MarketParams,
        /// Announced prices.
        prices: Prices,
        /// Common miner budget.
        budget: f64,
        /// Miner count.
        n: usize,
        /// Follower-stage solver settings.
        cfg: SubgameConfig,
    },
    /// Symmetric follower equilibrium at a fixed K-provider price vector
    /// with the aggregates Bertrand-allocated across providers — the
    /// oligopoly sweep's per-grid-point solve. The follower stage is solved
    /// once at the effective `(P_e, min P_c)` reduction
    /// ([`mbm_core::market::PriceVector::effective`]); per-provider demand,
    /// revenue and profit are then exact functions of the aggregates.
    OligopolyNep {
        /// Edge operation mode.
        op: EdgeOperation,
        /// Market parameters (edge provider = `params.esp()`).
        params: MarketParams,
        /// Unit costs of the `K − 1` cloud providers, in provider order.
        cloud_costs: Vec<f64>,
        /// Announced prices `[P_e, P_c¹, …]` (`len == cloud_costs.len()+1`).
        prices: Vec<f64>,
        /// Common miner budget.
        budget: f64,
        /// Miner count.
        n: usize,
        /// Follower-stage solver settings.
        cfg: SubgameConfig,
    },
    /// K-leader sequential best-response price dynamics
    /// ([`mbm_core::algorithms::algorithm1_asynchronous_best_response`])
    /// with Edgeworth-cycle detection on the trace.
    OligopolyBr {
        /// Edge operation mode.
        op: EdgeOperation,
        /// Market parameters (edge provider = `params.esp()`).
        params: MarketParams,
        /// `(cost, price_cap)` of the `K − 1` cloud providers.
        clouds: Vec<(f64, f64)>,
        /// Common miner budget.
        budget: f64,
        /// Miner count.
        n: usize,
        /// Starting prices `[P_e, P_c¹, …]`.
        init: Vec<f64>,
        /// Round cap (remaining settings are [`AlgorithmConfig::default`]).
        max_rounds: usize,
    },
}

/// Per-provider summary of one oligopoly grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct OligopolySummary {
    /// Provider count `K`.
    pub k: usize,
    /// Announced prices `[P_e, P_c¹, …]`.
    pub prices: Vec<f64>,
    /// Equilibrium aggregate demand `(E, C)`.
    pub aggregates: Aggregates,
    /// Per-provider demand (Bertrand allocation of the aggregates).
    pub demand: Vec<f64>,
    /// Per-provider revenue `p_i · q_i`.
    pub revenue: Vec<f64>,
    /// Per-provider profit `(p_i − c_i) · q_i`.
    pub profit: Vec<f64>,
}

/// Summary of an aggregate-form NEP solve — the full per-miner equilibrium
/// is collapsed on the worker (mean request + aggregates) so scaling-curve
/// results stay O(1) per task however large the population is.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateSummary {
    /// Miner count.
    pub n: usize,
    /// Equilibrium aggregate demand.
    pub aggregates: Aggregates,
    /// Mean per-miner request.
    pub mean_request: Request,
    /// Sweeps used by the reporting tier.
    pub iterations: usize,
    /// Final sweep displacement.
    pub residual: f64,
}

/// The executed output of a [`Task`]; failed solves carry the solver's
/// error rendering so specs can choose NaN rows, skipped rows, or a hard
/// spec failure.
#[derive(Debug, Clone)]
pub enum TaskOutput {
    /// Per-miner symmetric request.
    Sym(Result<Request, String>),
    /// Full market outcome (NEP, Stackelberg, or dynamic population).
    Market(Result<Box<ScenarioOutcome>, String>),
    /// A scalar search result (NaN-encoded failure).
    Scalar(f64),
    /// Table II closed forms.
    Closed(Result<Table2, String>),
    /// Standalone closed-form prices `(P_c*, P_e_clearing)` (NaN-encoded).
    StandalonePrices {
        /// CSP closed-form price.
        cloud: f64,
        /// Market-clearing ESP price.
        edge: f64,
    },
    /// Collision PDF histogram.
    Pdf(Result<CollisionPdf, String>),
    /// Split-rate curve.
    Curve(Result<Vec<ForkPoint>, String>),
    /// Best-response dynamics `(sweeps, final residual)`.
    Br(Result<(usize, f64), String>),
    /// Algorithm 1 price trace (two-provider or K-provider).
    Trace(Result<PriceTrace, String>),
    /// Mixed price equilibrium.
    Mixed(Result<MixedPriceEquilibrium, String>),
    /// Learned mean request.
    Learned(Result<Request, String>),
    /// Race-simulation summary.
    Race(Result<RaceSummary, String>),
    /// Aggregate-form NEP summary (scaling-curve row).
    Aggregate(Result<AggregateSummary, String>),
    /// Per-provider oligopoly grid-point summary.
    Oligopoly(Result<OligopolySummary, String>),
}

/// Bit-exact canonical key: the planner's dedup identity.
pub type TaskKey = Vec<u64>;

/// Accumulates the exact bit patterns of a task's inputs.
struct Keyer(Vec<u64>);

impl Keyer {
    fn tag(&mut self, t: u64) {
        self.0.push(t);
    }
    fn f(&mut self, v: f64) {
        self.0.push(v.to_bits());
    }
    fn u(&mut self, v: u64) {
        self.0.push(v);
    }
    fn fs(&mut self, vs: &[f64]) {
        self.u(vs.len() as u64);
        for &v in vs {
            self.f(v);
        }
    }
    fn op(&mut self, op: EdgeOperation) {
        self.tag(match op {
            EdgeOperation::Connected => 0,
            EdgeOperation::Standalone => 1,
        });
    }
    fn params(&mut self, p: &MarketParams) {
        self.f(p.reward());
        self.f(p.fork_rate());
        self.f(p.edge_availability());
        self.f(p.esp().cost());
        self.f(p.esp().price_cap());
        self.f(p.csp().cost());
        self.f(p.csp().price_cap());
        self.f(p.e_max());
    }
    fn prices(&mut self, p: &Prices) {
        self.f(p.edge);
        self.f(p.cloud);
    }
    fn subgame(&mut self, c: &SubgameConfig) {
        self.f(c.damping);
        self.f(c.tol);
        self.u(c.max_iter as u64);
    }
    fn stackelberg(&mut self, c: &StackelbergConfig) {
        self.f(c.leader.tol);
        self.u(c.leader.max_rounds as u64);
        self.u(c.leader.grid_points as u64);
        self.u(c.leader.grid_rounds as u64);
        self.f(c.leader.damping);
        self.subgame(&c.subgame);
        self.tag(match c.schedule {
            LeaderSchedule::BestResponse => 0,
            LeaderSchedule::Bargaining => 1,
        });
        // Thread count and telemetry never change results, so they stay
        // out of the identity: the same solve at different thread counts is
        // the same task.
    }
    fn dynamic(&mut self, c: &DynamicConfig) {
        self.f(c.mixing);
        self.subgame(&c.subgame);
    }
    fn pop(&mut self, p: &PopSpec) {
        match *p {
            PopSpec::Fixed(n) => {
                self.tag(0);
                self.u(n as u64);
            }
            PopSpec::Gaussian { mean, sd } => {
                self.tag(1);
                self.f(mean);
                self.f(sd);
            }
        }
    }
    fn train(&mut self, c: &TrainConfig) {
        self.u(c.period_blocks as u64);
        self.u(c.periods as u64);
        self.u(c.grid_points as u64);
        self.f(c.grid_spread);
        self.f(c.epsilon);
        self.f(c.epsilon_decay);
        match c.alpha {
            None => self.tag(0),
            Some(a) => {
                self.tag(1);
                self.f(a);
            }
        }
        self.f(c.mixing);
        self.u(c.seed);
    }
}

impl Task {
    /// The kind-appropriate failure output carrying `error` — what the
    /// executor records for a task that never produced a value (an isolated
    /// worker panic, an injected task-level fault). The scalar kinds have no
    /// error channel and NaN-encode the failure, matching their solver-error
    /// convention.
    #[must_use]
    pub fn failed_output(&self, error: &str) -> TaskOutput {
        let e = error.to_string();
        match self {
            Task::SymSubgame { .. } | Task::SymContinuous { .. } => TaskOutput::Sym(Err(e)),
            Task::Nep { .. } | Task::Leader { .. } | Task::SymDynamic { .. } => {
                TaskOutput::Market(Err(e))
            }
            Task::CspOptimalPrice { .. } => TaskOutput::Scalar(f64::NAN),
            Task::ClosedForms { .. } => TaskOutput::Closed(Err(e)),
            Task::StandalonePrices { .. } => {
                TaskOutput::StandalonePrices { cloud: f64::NAN, edge: f64::NAN }
            }
            Task::CollisionPdf { .. } => TaskOutput::Pdf(Err(e)),
            Task::SplitRate { .. } => TaskOutput::Curve(Err(e)),
            Task::BrDynamics { .. } => TaskOutput::Br(Err(e)),
            Task::Algorithm1 { .. } => TaskOutput::Trace(Err(e)),
            Task::MixedPricing { .. } => TaskOutput::Mixed(Err(e)),
            Task::RlTrain { .. } => TaskOutput::Learned(Err(e)),
            Task::RaceSim { .. } => TaskOutput::Race(Err(e)),
            Task::AggregateNep { .. } => TaskOutput::Aggregate(Err(e)),
            Task::OligopolyNep { .. } => TaskOutput::Oligopoly(Err(e)),
            Task::OligopolyBr { .. } => TaskOutput::Trace(Err(e)),
        }
    }

    /// Short kind label, used for telemetry keys and error messages.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Task::SymSubgame { .. } => "sym_subgame",
            Task::Nep { .. } => "nep",
            Task::Leader { .. } => "leader",
            Task::SymDynamic { .. } => "sym_dynamic",
            Task::SymContinuous { .. } => "sym_continuous",
            Task::CspOptimalPrice { .. } => "csp_optimal_price",
            Task::ClosedForms { .. } => "closed_forms",
            Task::StandalonePrices { .. } => "standalone_prices",
            Task::CollisionPdf { .. } => "collision_pdf",
            Task::SplitRate { .. } => "split_rate",
            Task::BrDynamics { .. } => "br_dynamics",
            Task::Algorithm1 { .. } => "algorithm1",
            Task::MixedPricing { .. } => "mixed_pricing",
            Task::RlTrain { .. } => "rl_train",
            Task::RaceSim { .. } => "race_sim",
            Task::AggregateNep { .. } => "aggregate_nep",
            Task::OligopolyNep { .. } => "oligopoly_nep",
            Task::OligopolyBr { .. } => "oligopoly_br",
        }
    }

    /// Telemetry span name for this kind (static, so the recorder can
    /// intern it).
    #[must_use]
    pub fn span_name(&self) -> &'static str {
        match self {
            Task::SymSubgame { .. } => "exp.task.sym_subgame",
            Task::Nep { .. } => "exp.task.nep",
            Task::Leader { .. } => "exp.task.leader",
            Task::SymDynamic { .. } => "exp.task.sym_dynamic",
            Task::SymContinuous { .. } => "exp.task.sym_continuous",
            Task::CspOptimalPrice { .. } => "exp.task.csp_optimal_price",
            Task::ClosedForms { .. } => "exp.task.closed_forms",
            Task::StandalonePrices { .. } => "exp.task.standalone_prices",
            Task::CollisionPdf { .. } => "exp.task.collision_pdf",
            Task::SplitRate { .. } => "exp.task.split_rate",
            Task::BrDynamics { .. } => "exp.task.br_dynamics",
            Task::Algorithm1 { .. } => "exp.task.algorithm1",
            Task::MixedPricing { .. } => "exp.task.mixed_pricing",
            Task::RlTrain { .. } => "exp.task.rl_train",
            Task::RaceSim { .. } => "exp.task.race_sim",
            Task::AggregateNep { .. } => "exp.task.aggregate_nep",
            Task::OligopolyNep { .. } => "exp.task.oligopoly_nep",
            Task::OligopolyBr { .. } => "exp.task.oligopoly_br",
        }
    }

    /// The exact-bit canonical key (see the module docs). Two tasks with
    /// equal keys run the identical computation and are planned once.
    #[must_use]
    pub fn canon(&self) -> TaskKey {
        let mut k = Keyer(Vec::with_capacity(24));
        match self {
            Task::SymSubgame { op, params, prices, budget, n, cfg } => {
                k.tag(1);
                k.op(*op);
                k.params(params);
                k.prices(prices);
                k.f(*budget);
                k.u(*n as u64);
                k.subgame(cfg);
            }
            Task::Nep { op, params, prices, budgets, cfg } => {
                k.tag(2);
                k.op(*op);
                k.params(params);
                k.prices(prices);
                k.fs(budgets);
                k.subgame(cfg);
            }
            Task::Leader { op, params, budgets, cfg } => {
                k.tag(3);
                k.op(*op);
                k.params(params);
                k.fs(budgets);
                k.stackelberg(cfg);
            }
            Task::SymDynamic { params, prices, budget, pop, cfg } => {
                k.tag(4);
                k.params(params);
                k.prices(prices);
                k.f(*budget);
                k.pop(pop);
                k.dynamic(cfg);
            }
            Task::SymContinuous { params, prices, budget, mu, sd, cfg } => {
                k.tag(5);
                k.params(params);
                k.prices(prices);
                k.f(*budget);
                k.f(*mu);
                k.f(*sd);
                k.dynamic(cfg);
            }
            Task::CspOptimalPrice { params, op, edge_price, budget, n, cfg } => {
                k.tag(6);
                k.op(*op);
                k.params(params);
                k.f(*edge_price);
                k.f(*budget);
                k.u(*n as u64);
                k.subgame(cfg);
            }
            Task::ClosedForms { params, prices, n } => {
                k.tag(7);
                k.params(params);
                k.prices(prices);
                k.u(*n as u64);
            }
            Task::StandalonePrices { params, n } => {
                k.tag(8);
                k.params(params);
                k.u(*n as u64);
            }
            Task::CollisionPdf { rate, horizon, bins, samples, seed } => {
                k.tag(9);
                k.f(*rate);
                k.f(*horizon);
                k.u(*bins as u64);
                k.u(*samples as u64);
                k.u(*seed);
            }
            Task::SplitRate { rate, delays, samples, seed } => {
                k.tag(10);
                k.f(*rate);
                k.fs(delays);
                k.u(*samples as u64);
                k.u(*seed);
            }
            Task::BrDynamics { params, prices, budgets, damping, tol, max_sweeps } => {
                k.tag(11);
                k.params(params);
                k.prices(prices);
                k.fs(budgets);
                k.f(*damping);
                k.f(*tol);
                k.u(*max_sweeps as u64);
            }
            Task::Algorithm1 { params, op, budget, n, init, max_rounds } => {
                k.tag(12);
                k.op(*op);
                k.params(params);
                k.f(*budget);
                k.u(*n as u64);
                k.prices(init);
                k.u(*max_rounds as u64);
            }
            Task::MixedPricing { params, op, budget, n, grid_points, iterations } => {
                k.tag(13);
                k.op(*op);
                k.params(params);
                k.f(*budget);
                k.u(*n as u64);
                k.u(*grid_points as u64);
                k.u(*iterations as u64);
            }
            Task::RlTrain { params, prices, budget, pop, pool, cfg } => {
                k.tag(14);
                k.params(params);
                k.prices(prices);
                k.f(*budget);
                k.pop(pop);
                k.u(*pool as u64);
                k.train(cfg);
            }
            Task::RaceSim { requests, unit_rate, delay, broadcast_delay, mode, rounds, seed } => {
                k.tag(15);
                k.u(requests.len() as u64);
                for &(e, c) in requests {
                    k.f(e);
                    k.f(c);
                }
                k.f(*unit_rate);
                k.f(*delay);
                k.f(*broadcast_delay);
                match *mode {
                    RaceModeSpec::Free => k.tag(0),
                    RaceModeSpec::Connected { h } => {
                        k.tag(1);
                        k.f(h);
                    }
                    RaceModeSpec::Standalone { e_max } => {
                        k.tag(2);
                        k.f(e_max);
                    }
                }
                k.u(*rounds as u64);
                k.u(*seed);
            }
            Task::AggregateNep { op, params, prices, budget, n, cfg } => {
                k.tag(16);
                k.op(*op);
                k.params(params);
                k.prices(prices);
                k.f(*budget);
                k.u(*n as u64);
                k.subgame(cfg);
            }
            Task::OligopolyNep { op, params, cloud_costs, prices, budget, n, cfg } => {
                k.tag(17);
                k.op(*op);
                k.params(params);
                k.fs(cloud_costs);
                k.fs(prices);
                k.f(*budget);
                k.u(*n as u64);
                k.subgame(cfg);
            }
            Task::OligopolyBr { op, params, clouds, budget, n, init, max_rounds } => {
                k.tag(18);
                k.op(*op);
                k.params(params);
                k.u(clouds.len() as u64);
                for &(cost, cap) in clouds {
                    k.f(cost);
                    k.f(cap);
                }
                k.f(*budget);
                k.u(*n as u64);
                k.fs(init);
                k.u(*max_rounds as u64);
            }
        }
        k.0
    }

    /// Continuation-family key: two tasks with equal family keys run the
    /// *same* follower solve and differ only in the announced price pair,
    /// so a warm-started executor can batch them and walk the family along
    /// a nearest-neighbor price path (DESIGN.md §13). The key is the
    /// canonical key with the price words omitted. `None` for every kind
    /// that is not a single follower solve at one price point.
    #[must_use]
    pub fn grid_family(&self) -> Option<TaskKey> {
        let mut k = Keyer(Vec::with_capacity(24));
        match self {
            Task::SymSubgame { op, params, budget, n, cfg, .. } => {
                k.tag(1);
                k.op(*op);
                k.params(params);
                k.f(*budget);
                k.u(*n as u64);
                k.subgame(cfg);
            }
            Task::Nep { op, params, budgets, cfg, .. } => {
                k.tag(2);
                k.op(*op);
                k.params(params);
                k.fs(budgets);
                k.subgame(cfg);
            }
            Task::AggregateNep { op, params, budget, n, cfg, .. } => {
                k.tag(16);
                k.op(*op);
                k.params(params);
                k.f(*budget);
                k.u(*n as u64);
                k.subgame(cfg);
            }
            Task::OligopolyNep { op, params, cloud_costs, prices, budget, n, cfg } => {
                // A malformed price vector never joins a warm family: it
                // has no effective price point to order by.
                PriceVector::new(prices).ok()?;
                k.tag(17);
                k.op(*op);
                k.params(params);
                k.fs(cloud_costs);
                k.f(*budget);
                k.u(*n as u64);
                k.subgame(cfg);
            }
            _ => return None,
        }
        Some(k.0)
    }

    /// The price point of a grid-family task (see [`Task::grid_family`]);
    /// the warm executor orders a family's tasks along the nearest-neighbor
    /// path through these points.
    #[must_use]
    pub fn grid_prices(&self) -> Option<Prices> {
        match self {
            Task::SymSubgame { prices, .. }
            | Task::Nep { prices, .. }
            | Task::AggregateNep { prices, .. } => Some(*prices),
            // The oligopoly grid orders by the *effective* two-price
            // reduction — the point the follower stage actually solves at.
            Task::OligopolyNep { prices, .. } => {
                PriceVector::new(prices).ok().map(|pv| pv.effective())
            }
            _ => None,
        }
    }

    /// Executes the task and, for the market solves that route through the
    /// tiered follower solver (`sym_subgame`, `nep`, `leader`,
    /// `sym_dynamic`, `sym_continuous`, `aggregate_nep`, `oligopoly_nep`),
    /// also returns the [`SolveReport`] of the follower solve behind the
    /// output. Diagnostic tasks return `None`. Pure: the same task always
    /// returns bitwise identical output regardless of thread count or batch
    /// composition.
    #[must_use]
    pub fn run_reported(&self) -> (TaskOutput, Option<SolveReport>) {
        match self {
            Task::SymSubgame { op, params, prices, budget, n, cfg } => {
                match scenario(*op, params)
                    .homogeneous_miners(*n, *budget)
                    .with_prices(*prices)
                    .with_stackelberg_config(StackelbergConfig {
                        subgame: *cfg,
                        ..StackelbergConfig::default()
                    })
                    .solve_symmetric_reported()
                {
                    Ok((r, rep)) => (TaskOutput::Sym(Ok(r)), Some(rep)),
                    Err(e) => (TaskOutput::Sym(Err(e.to_string())), None),
                }
            }
            Task::Nep { op, params, prices, budgets, cfg } => {
                match scenario(*op, params)
                    .miners(budgets.clone())
                    .with_prices(*prices)
                    .with_stackelberg_config(StackelbergConfig {
                        subgame: *cfg,
                        ..StackelbergConfig::default()
                    })
                    .solve_reported()
                {
                    Ok((out, rep)) => (TaskOutput::Market(Ok(Box::new(out))), Some(rep)),
                    Err(e) => (TaskOutput::Market(Err(e.to_string())), None),
                }
            }
            Task::Leader { op, params, budgets, cfg } => {
                match scenario(*op, params)
                    .miners(budgets.clone())
                    .with_stackelberg_config(*cfg)
                    .solve_reported()
                {
                    Ok((out, rep)) => (TaskOutput::Market(Ok(Box::new(out))), Some(rep)),
                    Err(e) => (TaskOutput::Market(Err(e.to_string())), None),
                }
            }
            Task::SymDynamic { params, prices, budget, pop, cfg } => {
                let solved = pop.to_population().and_then(|population| {
                    Scenario::connected(*params)
                        .dynamic_population(population, *budget)
                        .with_prices(*prices)
                        .with_dynamic_config(*cfg)
                        .solve_reported()
                        .map_err(|e| e.to_string())
                });
                match solved {
                    Ok((out, rep)) => (TaskOutput::Market(Ok(Box::new(out))), Some(rep)),
                    Err(e) => (TaskOutput::Market(Err(e)), None),
                }
            }
            Task::SymContinuous { params, prices, budget, mu, sd, cfg } => {
                match TieredSolver::continuous(params, prices, *budget, *mu, *sd, cfg)
                    .solve_per_miner()
                {
                    Ok((r, rep)) => (TaskOutput::Sym(Ok(r)), Some(rep)),
                    Err(e) => (TaskOutput::Sym(Err(e.to_string())), None),
                }
            }
            Task::AggregateNep { op, params, prices, budget, n, cfg } => {
                let budgets = vec![*budget; *n];
                let solved = match op {
                    EdgeOperation::Connected => {
                        TieredSolver::aggregate_connected(params, prices, &budgets, cfg)
                    }
                    EdgeOperation::Standalone => {
                        TieredSolver::aggregate_standalone(params, prices, &budgets, cfg)
                    }
                }
                .solve_equilibrium();
                match solved {
                    Ok((eq, rep)) => {
                        let inv = 1.0 / *n as f64;
                        let mean_request = Request {
                            edge: eq.aggregates.edge * inv,
                            cloud: eq.aggregates.cloud * inv,
                        };
                        let summary = AggregateSummary {
                            n: *n,
                            aggregates: eq.aggregates,
                            mean_request,
                            iterations: eq.iterations,
                            residual: eq.residual,
                        };
                        (TaskOutput::Aggregate(Ok(summary)), Some(rep))
                    }
                    Err(e) => (TaskOutput::Aggregate(Err(e.to_string())), None),
                }
            }
            Task::OligopolyNep { op, params, cloud_costs, prices, budget, n, cfg } => {
                let pv = match PriceVector::new(prices) {
                    Ok(pv) => pv,
                    Err(e) => return (TaskOutput::Oligopoly(Err(e.to_string())), None),
                };
                if cloud_costs.len() + 1 != pv.len() {
                    return (
                        TaskOutput::Oligopoly(Err(format!(
                            "{} cloud costs for {} providers",
                            cloud_costs.len(),
                            pv.len()
                        ))),
                        None,
                    );
                }
                match scenario(*op, params)
                    .homogeneous_miners(*n, *budget)
                    .with_prices(pv.effective())
                    .with_stackelberg_config(StackelbergConfig {
                        subgame: *cfg,
                        ..StackelbergConfig::default()
                    })
                    .solve_symmetric_reported()
                {
                    Ok((r, rep)) => {
                        let n_f = *n as f64;
                        let aggregates = Aggregates { edge: r.edge * n_f, cloud: r.cloud * n_f };
                        let demand = pv.allocate_demand(&aggregates);
                        let revenue = provider_revenues(&pv, &aggregates);
                        let costs: Vec<f64> = std::iter::once(params.esp().cost())
                            .chain(cloud_costs.iter().copied())
                            .collect();
                        let profit: Vec<f64> = pv
                            .as_slice()
                            .iter()
                            .zip(&costs)
                            .zip(&demand)
                            .map(|((p, c), q)| (p - c) * q)
                            .collect();
                        let summary = OligopolySummary {
                            k: pv.len(),
                            prices: pv.to_vec(),
                            aggregates,
                            demand,
                            revenue,
                            profit,
                        };
                        (TaskOutput::Oligopoly(Ok(summary)), Some(rep))
                    }
                    Err(e) => (TaskOutput::Oligopoly(Err(e.to_string())), None),
                }
            }
            Task::CspOptimalPrice { params, op, edge_price, budget, n, cfg } => {
                let stage = ProviderStage::two_provider(
                    *params,
                    MinerPopulation::Homogeneous { budget: *budget, n: *n },
                    *op,
                    *cfg,
                );
                let profit = |p_c: f64| stage.payoff(1, &[*edge_price, p_c]).unwrap_or(f64::NAN);
                let best = adaptive_grid_max(profit, params.csp().cost() + 1e-6, 3.9, 41, 6);
                (TaskOutput::Scalar(best.map(|r| r.x).unwrap_or(f64::NAN)), None)
            }
            Task::ClosedForms { params, prices, n } => {
                let closed = closed_forms(params, prices, *n).map_err(|e| e.to_string());
                (TaskOutput::Closed(closed), None)
            }
            Task::StandalonePrices { params, n } => {
                let cloud = standalone_csp_price(params, *n).unwrap_or(f64::NAN);
                let edge = if cloud.is_nan() {
                    f64::NAN
                } else {
                    standalone_market_clearing_edge_price(params, cloud, *n).unwrap_or(f64::NAN)
                };
                (TaskOutput::StandalonePrices { cloud, edge }, None)
            }
            Task::CollisionPdf { rate, horizon, bins, samples, seed } => {
                let pdf = collision_pdf(*rate, *horizon, *bins, *samples, *seed);
                (TaskOutput::Pdf(pdf.map_err(|e| e.to_string())), None)
            }
            Task::SplitRate { rate, delays, samples, seed } => {
                let curve = split_rate_curve(*rate, delays, *samples, *seed);
                (TaskOutput::Curve(curve.map_err(|e| e.to_string())), None)
            }
            Task::BrDynamics { params, prices, budgets, damping, tol, max_sweeps } => {
                let br = run_br_dynamics(params, prices, budgets, *damping, *tol, *max_sweeps);
                (TaskOutput::Br(br), None)
            }
            Task::Algorithm1 { params, op, budget, n, init, max_rounds } => {
                let trace = PriceVector::from_prices(init).and_then(|init| {
                    algorithm1_asynchronous_best_response(
                        params,
                        &ProviderSet::from_market(params),
                        MinerPopulation::Homogeneous { budget: *budget, n: *n },
                        *op,
                        &init,
                        &AlgorithmConfig { max_rounds: *max_rounds, ..AlgorithmConfig::default() },
                    )
                });
                (TaskOutput::Trace(trace.map_err(|e| e.to_string())), None)
            }
            Task::MixedPricing { params, op, budget, n, grid_points, iterations } => {
                let mixed = mixed_price_equilibrium(
                    params,
                    MinerPopulation::Homogeneous { budget: *budget, n: *n },
                    *op,
                    &MixedPricingConfig {
                        grid_points: *grid_points,
                        iterations: *iterations,
                        ..MixedPricingConfig::default()
                    },
                );
                (TaskOutput::Mixed(mixed.map_err(|e| e.to_string())), None)
            }
            Task::RlTrain { params, prices, budget, pop, pool, cfg } => {
                let learned = pop.to_population().and_then(|population| {
                    learn_miner_strategies(params, prices, *budget, &population, *pool, cfg)
                        .map(|o| o.mean_request)
                        .map_err(|e| e.to_string())
                });
                (TaskOutput::Learned(learned), None)
            }
            Task::RaceSim { requests, unit_rate, delay, broadcast_delay, mode, rounds, seed } => {
                let sim_mode = match *mode {
                    RaceModeSpec::Free => None,
                    RaceModeSpec::Connected { h } => Some(EdgeMode::Connected { h }),
                    RaceModeSpec::Standalone { e_max } => Some(EdgeMode::Standalone { e_max }),
                };
                let summary = DelayModel::new(*delay, *broadcast_delay)
                    .and_then(|delays| {
                        simulate(
                            requests,
                            &SimConfig {
                                unit_rate: *unit_rate,
                                delays,
                                mode: sim_mode,
                                rounds: *rounds,
                                seed: *seed,
                            },
                        )
                    })
                    .map(|sim| RaceSummary {
                        win_frequencies: sim.win_frequencies(),
                        fork_rate: sim.fork_rate(),
                        degraded_rounds: sim.degraded_rounds,
                    })
                    .map_err(|e| e.to_string());
                (TaskOutput::Race(summary), None)
            }
            Task::OligopolyBr { op, params, clouds, budget, n, init, max_rounds } => {
                let trace = run_oligopoly_br(params, *op, clouds, *budget, *n, init, *max_rounds);
                (TaskOutput::Trace(trace), None)
            }
        }
    }
}

impl PartialEq for Task {
    fn eq(&self, other: &Self) -> bool {
        self.canon() == other.canon()
    }
}

impl Eq for Task {}

impl std::hash::Hash for Task {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.canon().hash(state);
    }
}

impl TaskOutput {
    /// Kind label of the stored output, for mismatch diagnostics.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            TaskOutput::Sym(_) => "sym",
            TaskOutput::Market(_) => "market",
            TaskOutput::Scalar(_) => "scalar",
            TaskOutput::Closed(_) => "closed_forms",
            TaskOutput::StandalonePrices { .. } => "standalone_prices",
            TaskOutput::Pdf(_) => "pdf",
            TaskOutput::Curve(_) => "curve",
            TaskOutput::Br(_) => "br",
            TaskOutput::Trace(_) => "trace",
            TaskOutput::Mixed(_) => "mixed",
            TaskOutput::Learned(_) => "learned",
            TaskOutput::Race(_) => "race",
            TaskOutput::Aggregate(_) => "aggregate",
            TaskOutput::Oligopoly(_) => "oligopoly",
        }
    }

    /// The error string when the task failed, if any.
    #[must_use]
    pub fn error(&self) -> Option<&str> {
        match self {
            TaskOutput::Sym(Err(e))
            | TaskOutput::Market(Err(e))
            | TaskOutput::Closed(Err(e))
            | TaskOutput::Pdf(Err(e))
            | TaskOutput::Curve(Err(e))
            | TaskOutput::Br(Err(e))
            | TaskOutput::Trace(Err(e))
            | TaskOutput::Mixed(Err(e))
            | TaskOutput::Learned(Err(e))
            | TaskOutput::Race(Err(e))
            | TaskOutput::Aggregate(Err(e))
            | TaskOutput::Oligopoly(Err(e)) => Some(e),
            _ => None,
        }
    }
}

fn scenario(op: EdgeOperation, params: &MarketParams) -> Scenario {
    match op {
        EdgeOperation::Connected => Scenario::connected(*params),
        EdgeOperation::Standalone => Scenario::standalone(*params),
    }
}

/// Builds the K-provider set and runs the sequential best-response price
/// dynamics for [`Task::OligopolyBr`].
fn run_oligopoly_br(
    params: &MarketParams,
    op: EdgeOperation,
    clouds: &[(f64, f64)],
    budget: f64,
    n: usize,
    init: &[f64],
    max_rounds: usize,
) -> Result<PriceTrace, String> {
    let mut providers = vec![params.esp()];
    for &(cost, cap) in clouds {
        providers.push(Provider::new(cost, cap).map_err(|e| e.to_string())?);
    }
    let set = ProviderSet::new(providers).map_err(|e| e.to_string())?;
    let init = PriceVector::new(init).map_err(|e| e.to_string())?;
    algorithm1_asynchronous_best_response(
        params,
        &set,
        MinerPopulation::Homogeneous { budget, n },
        op,
        &init,
        &AlgorithmConfig { max_rounds, ..AlgorithmConfig::default() },
    )
    .map_err(|e| e.to_string())
}

/// ABL-1's diagnostic: sequential best-response dynamics from the fixed
/// `(B/16, B/8)` warm start on the connected miner game.
fn run_br_dynamics(
    params: &MarketParams,
    prices: &Prices,
    budgets: &[f64],
    damping: f64,
    tol: f64,
    max_sweeps: usize,
) -> Result<(usize, f64), String> {
    let game =
        ConnectedMinerGame::new(*params, *prices, budgets.to_vec()).map_err(|e| e.to_string())?;
    let blocks: Vec<Vec<f64>> = budgets.iter().map(|&b| vec![b / 16.0, b / 8.0]).collect();
    let init = Profile::from_blocks(&blocks).map_err(|e| e.to_string())?;
    best_response_dynamics(
        &game,
        init,
        &BrParams { order: UpdateOrder::Sequential, damping, tol, max_sweeps },
    )
    .map(|o| (o.sweeps, o.residual))
    .map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::market::{baseline_market, BUDGET, N_MINERS};

    fn sym_task() -> Task {
        Task::SymSubgame {
            op: EdgeOperation::Connected,
            params: baseline_market(),
            prices: Prices::new(4.0, 2.0).unwrap(),
            budget: BUDGET,
            n: N_MINERS,
            cfg: SubgameConfig::default(),
        }
    }

    #[test]
    fn identical_tasks_share_a_key_and_differing_inputs_split_it() {
        assert_eq!(sym_task().canon(), sym_task().canon());
        assert_eq!(sym_task(), sym_task());
        let other = Task::SymSubgame {
            op: EdgeOperation::Connected,
            params: baseline_market(),
            // One ulp of price difference is a different task: dedup is
            // exact, never tolerance-based.
            prices: Prices::new(4.0, f64::from_bits(2.0f64.to_bits() + 1)).unwrap(),
            budget: BUDGET,
            n: N_MINERS,
            cfg: SubgameConfig::default(),
        };
        assert_ne!(sym_task().canon(), other.canon());
    }

    #[test]
    fn scenario_routed_symmetric_solve_matches_direct_solver_bitwise() {
        let (direct, _) = TieredSolver::symmetric_connected(
            &baseline_market(),
            &Prices::new(4.0, 2.0).unwrap(),
            BUDGET,
            N_MINERS,
            &SubgameConfig::default(),
        )
        .solve_per_miner()
        .unwrap();
        match sym_task().run_reported().0 {
            TaskOutput::Sym(Ok(r)) => {
                assert_eq!(r.edge.to_bits(), direct.edge.to_bits());
                assert_eq!(r.cloud.to_bits(), direct.cloud.to_bits());
            }
            other => panic!("unexpected output {other:?}"),
        }
    }

    #[test]
    fn exec_config_is_not_part_of_the_identity() {
        use mbm_core::stackelberg::ExecConfig;
        let leader = |threads, telemetry| Task::Leader {
            op: EdgeOperation::Connected,
            params: crate::market::leader_ne_market(),
            budgets: vec![BUDGET; N_MINERS],
            cfg: StackelbergConfig {
                exec: ExecConfig { threads, telemetry },
                ..StackelbergConfig::default()
            },
        };
        // Threads and telemetry never change results.
        assert_eq!(leader(1, false).canon(), leader(8, true).canon());
    }
}
