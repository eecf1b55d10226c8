//! The unified follower-solver core.
//!
//! Every miner-subgame solve in the crate — connected NEP, standalone GNEP,
//! the symmetric fast paths, the homogeneous closed forms and the dynamic
//! population fixed point — routes through one abstraction: a
//! [`FollowerSolver`] built as a [`TieredSolver`] chain. Tier 1 reproduces
//! the historical solver for the mode **bitwise** (same arithmetic, same
//! iteration order); later tiers are escalation fallbacks that fire only on
//! convergence failures, where the historical behaviour was to give up:
//!
//! | chain                | tier 1                  | tier 2                | tier 3       |
//! |----------------------|-------------------------|-----------------------|--------------|
//! | connected            | BR dynamics             | extragradient         | —            |
//! | standalone           | extragradient           | BR dynamics           | —            |
//! | symmetric connected  | symmetric fixed point   | BR dynamics (boosted) | extragradient|
//! | symmetric standalone | symmetric fixed point   | extragradient         | BR dynamics  |
//! | homogeneous          | closed form             | —                     | —            |
//! | dynamic / continuous | damped expectation FP   | same, ω/2 + boosted   | —            |
//!
//! Validation errors (bad budgets, too few miners, closed forms outside
//! their region) never escalate — they propagate unchanged, so input
//! rejection is exactly as strict as before.
//!
//! Every solve fills a caller-provided [`SolveWorkspace`] (no per-solve
//! heap allocation on the symmetric hot paths) and returns a [`Solved`]
//! carrying a structured [`SolveReport`]: method actually used, fallback
//! hops, iterations, residual, certificate residual and any
//! [`SubgameConfig`] values the chain clamped. Callers without a workspace
//! of their own use [`TieredSolver::solve_equilibrium`] or
//! [`TieredSolver::solve_per_miner`], which solve on this thread's shared
//! one.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod aggregate;
pub mod continuation;
pub mod memo;
pub mod policy;
pub mod report;
pub mod workspace;

pub use continuation::{nearest_neighbor_order, ThreadWarmGuard, WarmState};
pub use policy::{DegradeMode, SolvePolicy};
pub use report::{
    ConfigOverride, FallbackHop, Overrides, SolveMethod, SolveMode, SolveReport, SolveStatus,
};
pub use workspace::SolveWorkspace;

use mbm_game::game::Game;
use mbm_game::gnep::variational_equilibrium_in;
use mbm_game::nash::{best_response_dynamics_in, BrParams, UpdateOrder};
use mbm_numerics::projection::ConvexSet;
use mbm_numerics::vi::ViParams;
use mbm_par::Pool;

use aggregate::run_aggregate;

use crate::error::MiningGameError;
use crate::params::{validate_budgets, validate_prices, EdgeOperation, MarketParams, Prices};
use crate::request::{Aggregates, Request};
use crate::subgame::connected::ConnectedMinerGame;
use crate::subgame::dynamic::{
    best_response, best_response_to_objective, expected_utility_continuous, validate_continuous,
    validate_dynamic, DynamicConfig, Population,
};
use crate::subgame::homogeneous::{homogeneous_core, Regime};
use crate::subgame::standalone::StandaloneMinerGame;
use crate::subgame::{
    budget_product, equilibrium_certificate, initial_request, symmetric_best_response,
    symmetric_fixed_point, symmetric_start, FixedPointBudget, MinerEquilibrium, SubgameConfig,
};
use crate::winning::{utility_connected, utility_standalone};
use workspace::ensure_pairs;

/// A follower-subgame solution strategy.
///
/// Implementors solve "their" subgame into a caller-provided workspace and
/// return the scalar summary plus a [`SolveReport`]. [`TieredSolver`] is
/// the implementation everything in this crate uses.
pub trait FollowerSolver {
    /// Solves the subgame. Per-miner data (requests, utilities) lands in
    /// `ws`; the scalar summary and report come back by value.
    ///
    /// # Errors
    ///
    /// Returns the terminal error when every applicable tier fails, or the
    /// original error immediately for non-convergence failures.
    fn solve(&self, ws: &mut SolveWorkspace) -> Result<Solved, MiningGameError>;

    /// Solves the same follower population at every price point of `grid`
    /// with warm-started continuation: the points are visited along a
    /// nearest-neighbor path and each solve seeds from its predecessor's
    /// equilibrium, but results come back **in grid order** (slot `i`
    /// answers `grid[i]`). Each entry carries the per-point outcome — a
    /// failed point never poisons its neighbours. The sequence runs
    /// serially on the one workspace, so results are identical at any
    /// thread count; warm solves land on the same equilibria as cold
    /// solves within the certificate tolerance.
    fn solve_batch(
        &self,
        grid: &[Prices],
        ws: &mut SolveWorkspace,
    ) -> Vec<Result<Solved, MiningGameError>>;
}

/// Scalar outcome of a successful follower solve. Per-miner vectors live in
/// the [`SolveWorkspace`] the solve filled (heterogeneous chains only).
#[derive(Debug, Clone, PartialEq)]
pub struct Solved {
    /// Equilibrium aggregates `(E, C)`.
    pub aggregates: Aggregates,
    /// Number of miners (expected count for dynamic populations).
    pub n: usize,
    /// Iterations used by the successful tier.
    pub iterations: usize,
    /// Final residual of the successful tier.
    pub residual: f64,
    /// The symmetric per-miner request (symmetric, closed-form and dynamic
    /// chains; `None` for heterogeneous solves — read the workspace).
    pub per_miner: Option<Request>,
    /// Closed-form regime, when the closed-form tier produced the answer.
    pub regime: Option<Regime>,
    /// What the solver actually did.
    pub report: SolveReport,
}

/// Intermediate result of one tier run.
pub(crate) struct TierRun {
    aggregates: Aggregates,
    n: usize,
    iterations: usize,
    residual: f64,
    per_miner: Option<Request>,
    regime: Option<Regime>,
    certificate: Option<f64>,
}

/// One tier of a chain. `boosted` tiers run at the effective
/// (clamped-upward) solver budgets since they only fire after a cheaper
/// tier already failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TierSpec {
    AggregateBr,
    ConnectedBr { boosted: bool },
    ConnectedVi,
    StandaloneVi,
    StandaloneBr,
    SymmetricFp,
    ClosedForm,
    ExpectationFp { boosted: bool },
}

impl TierSpec {
    fn method(self) -> SolveMethod {
        match self {
            TierSpec::AggregateBr => SolveMethod::AggregateBestResponse,
            TierSpec::ConnectedBr { .. } | TierSpec::StandaloneBr => {
                SolveMethod::BestResponseDynamics
            }
            TierSpec::ConnectedVi | TierSpec::StandaloneVi => SolveMethod::Extragradient,
            TierSpec::SymmetricFp => SolveMethod::SymmetricFixedPoint,
            TierSpec::ClosedForm => SolveMethod::ClosedForm,
            TierSpec::ExpectationFp { .. } => SolveMethod::DampedExpectationFixedPoint,
        }
    }

    /// The per-tier contract of the full N-miner tiers — the one place they
    /// differ — or `None` for the other tiers.
    fn heterogeneous(self) -> Option<HeterogeneousTier> {
        use EdgeOperation::{Connected, Standalone};
        use Kernel::{BestResponse, Extragradient};
        // (mode, kernel, effective budgets, record budget overrides, certify)
        let (mode, kernel, effective_budgets, record_budgets, certify) = match self {
            TierSpec::ConnectedBr { boosted } => (Connected, BestResponse, boosted, boosted, false),
            TierSpec::ConnectedVi => (Connected, Extragradient, true, false, true),
            TierSpec::StandaloneVi => (Standalone, Extragradient, true, true, true),
            TierSpec::StandaloneBr => (Standalone, BestResponse, true, false, true),
            _ => return None,
        };
        Some(HeterogeneousTier { mode, kernel, effective_budgets, record_budgets, certify })
    }
}

/// The solution method of a full N-miner tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    /// Damped sequential best-response dynamics.
    BestResponse,
    /// Extragradient on the VI over the game's joint feasible set.
    Extragradient,
}

/// What a full N-miner tier runs and records (see [`TierSpec::heterogeneous`]).
#[derive(Debug, Clone, Copy)]
struct HeterogeneousTier {
    /// The game solved: connected NEP or standalone GNEP.
    mode: EdgeOperation,
    kernel: Kernel,
    /// Solve at [`SubgameConfig::effective_tol`] /
    /// [`SubgameConfig::effective_max_iter`] instead of the config verbatim.
    effective_budgets: bool,
    /// Record a rewritten `tol`/`max_iter` as a [`ConfigOverride`].
    record_budgets: bool,
    /// Attach the [`equilibrium_certificate`] to the answer and the salvage.
    certify: bool,
}

/// The follower subgame a [`TieredSolver`] is pointed at: three population
/// forms that each carry the edge mode their tiers solve — heterogeneous
/// budgets on the full N-miner tiers (`Full`) or the aggregate-form O(N)
/// sweep first (`Aggregate`), and `n` miners sharing one budget with the
/// symmetric fixed point first (`Symmetric`) — plus the closed form and the
/// two random-population problems.
#[derive(Clone, Copy)]
enum FollowerProblem<'a> {
    Full { mode: EdgeOperation, budgets: &'a [f64], cfg: SubgameConfig },
    Aggregate { mode: EdgeOperation, budgets: &'a [f64], cfg: SubgameConfig, pool: &'a Pool },
    Symmetric { mode: EdgeOperation, budget: f64, n: usize, cfg: SubgameConfig },
    Homogeneous { budget: f64, n: usize },
    Dynamic { budget: f64, pop: &'a Population, cfg: &'a DynamicConfig },
    Continuous { budget: f64, mean: f64, sd: f64, cfg: &'a DynamicConfig },
}

/// The budget population of a mode-carrying problem: a heterogeneous slice
/// or `n` copies of one budget.
#[derive(Clone, Copy)]
enum Budgets<'a> {
    Slice(&'a [f64]),
    Uniform { budget: f64, n: usize },
}

impl<'a> FollowerProblem<'a> {
    /// Edge mode, budget population and config of the three mode-carrying
    /// forms; `None` for the others.
    fn population(&self) -> Option<(EdgeOperation, Budgets<'a>, SubgameConfig)> {
        match *self {
            FollowerProblem::Full { mode, budgets, cfg }
            | FollowerProblem::Aggregate { mode, budgets, cfg, .. } => {
                Some((mode, Budgets::Slice(budgets), cfg))
            }
            FollowerProblem::Symmetric { mode, budget, n, cfg } => {
                Some((mode, Budgets::Uniform { budget, n }, cfg))
            }
            FollowerProblem::Homogeneous { .. }
            | FollowerProblem::Dynamic { .. }
            | FollowerProblem::Continuous { .. } => None,
        }
    }
}

/// `connected` or `standalone`, by edge mode.
fn per_mode<T>(mode: EdgeOperation, connected: T, standalone: T) -> T {
    match mode {
        EdgeOperation::Connected => connected,
        EdgeOperation::Standalone => standalone,
    }
}

/// Damping of the symmetric fixed point (and the aggregate sweep) for
/// `mode`, clamped for stability at `n` miners.
fn symmetric_damping(cfg: &SubgameConfig, mode: EdgeOperation, n: usize) -> f64 {
    per_mode(
        mode,
        cfg.effective_damping_symmetric_connected(n),
        cfg.effective_damping_symmetric_standalone(n),
    )
}

/// FNV-1a over the IEEE-754 bit patterns of `values`: the exact-bit
/// fingerprint of a budget population or price vector shared by the memo
/// key, the warm slot, the SoA staging and the market layer's grid keys.
pub(crate) fn bits_fingerprint(values: impl IntoIterator<Item = f64>) -> u64 {
    values.into_iter().fold(0xcbf2_9ce4_8422_2325, |mut h, v| {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    })
}

/// Whether `a` and `b` hold the same f64 bit patterns.
pub(crate) fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The tiered follower solver: the [`FollowerSolver`] used by every solve
/// path in the crate. Construct one per problem via the mode constructors
/// ([`TieredSolver::connected`], [`TieredSolver::symmetric_standalone`],
/// …) and call [`FollowerSolver::solve`] with a (reusable) workspace.
pub struct TieredSolver<'a> {
    params: &'a MarketParams,
    prices: &'a Prices,
    problem: FollowerProblem<'a>,
}

impl<'a> TieredSolver<'a> {
    /// Heterogeneous connected-mode chain (BR dynamics → extragradient): the
    /// follower half of the paper's Algorithm 1.
    #[must_use]
    pub fn connected(
        params: &'a MarketParams,
        prices: &'a Prices,
        budgets: &'a [f64],
        cfg: &SubgameConfig,
    ) -> Self {
        let problem = FollowerProblem::Full { mode: EdgeOperation::Connected, budgets, cfg: *cfg };
        TieredSolver { params, prices, problem }
    }

    /// Heterogeneous standalone-mode chain (extragradient → BR dynamics) for
    /// the variational equilibrium: the follower half of the paper's
    /// Algorithm 2.
    #[must_use]
    pub fn standalone(
        params: &'a MarketParams,
        prices: &'a Prices,
        budgets: &'a [f64],
        cfg: &SubgameConfig,
    ) -> Self {
        let problem = FollowerProblem::Full { mode: EdgeOperation::Standalone, budgets, cfg: *cfg };
        TieredSolver { params, prices, problem }
    }

    /// Aggregate-form O(N) connected chain (chunked Jacobi sweep →
    /// legacy BR dynamics → extragradient), parallelized on the global pool.
    /// Results are bitwise identical at any pool size — see
    /// [`TieredSolver::aggregate_connected_in`] to pin a pool explicitly.
    #[must_use]
    pub fn aggregate_connected(
        params: &'a MarketParams,
        prices: &'a Prices,
        budgets: &'a [f64],
        cfg: &SubgameConfig,
    ) -> Self {
        Self::aggregate_connected_in(params, prices, budgets, cfg, Pool::global())
    }

    /// [`TieredSolver::aggregate_connected`] on an explicit worker pool.
    #[must_use]
    pub fn aggregate_connected_in(
        params: &'a MarketParams,
        prices: &'a Prices,
        budgets: &'a [f64],
        cfg: &SubgameConfig,
        pool: &'a Pool,
    ) -> Self {
        let mode = EdgeOperation::Connected;
        let problem = FollowerProblem::Aggregate { mode, budgets, cfg: *cfg, pool };
        TieredSolver { params, prices, problem }
    }

    /// Aggregate-form O(N) standalone chain (chunked capped Jacobi sweep →
    /// extragradient → legacy BR dynamics), parallelized on the global pool.
    #[must_use]
    pub fn aggregate_standalone(
        params: &'a MarketParams,
        prices: &'a Prices,
        budgets: &'a [f64],
        cfg: &SubgameConfig,
    ) -> Self {
        Self::aggregate_standalone_in(params, prices, budgets, cfg, Pool::global())
    }

    /// [`TieredSolver::aggregate_standalone`] on an explicit worker pool.
    #[must_use]
    pub fn aggregate_standalone_in(
        params: &'a MarketParams,
        prices: &'a Prices,
        budgets: &'a [f64],
        cfg: &SubgameConfig,
        pool: &'a Pool,
    ) -> Self {
        let mode = EdgeOperation::Standalone;
        let problem = FollowerProblem::Aggregate { mode, budgets, cfg: *cfg, pool };
        TieredSolver { params, prices, problem }
    }

    /// Symmetric connected fast path with full-solve escalation.
    #[must_use]
    pub fn symmetric_connected(
        params: &'a MarketParams,
        prices: &'a Prices,
        budget: f64,
        n: usize,
        cfg: &SubgameConfig,
    ) -> Self {
        let mode = EdgeOperation::Connected;
        let problem = FollowerProblem::Symmetric { mode, budget, n, cfg: *cfg };
        TieredSolver { params, prices, problem }
    }

    /// Symmetric standalone fast path with full-solve escalation.
    #[must_use]
    pub fn symmetric_standalone(
        params: &'a MarketParams,
        prices: &'a Prices,
        budget: f64,
        n: usize,
        cfg: &SubgameConfig,
    ) -> Self {
        let mode = EdgeOperation::Standalone;
        let problem = FollowerProblem::Symmetric { mode, budget, n, cfg: *cfg };
        TieredSolver { params, prices, problem }
    }

    /// Theorem 3 / Corollary 1 closed-form chain.
    #[must_use]
    pub fn homogeneous(
        params: &'a MarketParams,
        prices: &'a Prices,
        budget: f64,
        n: usize,
    ) -> Self {
        TieredSolver { params, prices, problem: FollowerProblem::Homogeneous { budget, n } }
    }

    /// Dynamic (discrete random population) chain.
    #[must_use]
    pub fn dynamic(
        params: &'a MarketParams,
        prices: &'a Prices,
        budget: f64,
        pop: &'a Population,
        cfg: &'a DynamicConfig,
    ) -> Self {
        TieredSolver { params, prices, problem: FollowerProblem::Dynamic { budget, pop, cfg } }
    }

    /// Dynamic chain over a continuous Gaussian population.
    #[must_use]
    pub fn continuous(
        params: &'a MarketParams,
        prices: &'a Prices,
        budget: f64,
        mean: f64,
        sd: f64,
        cfg: &'a DynamicConfig,
    ) -> Self {
        TieredSolver {
            params,
            prices,
            problem: FollowerProblem::Continuous { budget, mean, sd, cfg },
        }
    }

    /// Solves on this thread's shared workspace
    /// ([`SolveWorkspace::with_thread_local`]) and returns the per-miner
    /// equilibrium with the report. The per-miner vectors are empty when a
    /// symmetric, closed-form or dynamic tier answered; use
    /// [`TieredSolver::solve_per_miner`] for those chains.
    ///
    /// # Errors
    ///
    /// Propagates parameter and (terminal) convergence errors.
    pub fn solve_equilibrium(&self) -> Result<(MinerEquilibrium, SolveReport), MiningGameError> {
        SolveWorkspace::with_thread_local(|ws| {
            let solved = self.solve(ws)?;
            Ok((ws.equilibrium(&solved), solved.report))
        })
    }

    /// Solves on this thread's shared workspace and returns the symmetric
    /// per-miner request with the report: [`Solved::per_miner`], or the
    /// first miner's request when a full N-miner tier answered. A caller
    /// that needs the closed-form [`Regime`] reads [`Solved::regime`] from
    /// [`FollowerSolver::solve`] instead.
    ///
    /// # Errors
    ///
    /// Propagates parameter and (terminal) convergence errors.
    pub fn solve_per_miner(&self) -> Result<(Request, SolveReport), MiningGameError> {
        SolveWorkspace::with_thread_local(|ws| {
            let solved = self.solve(ws)?;
            let x = solved.per_miner.or_else(|| ws.requests.first().copied()).unwrap_or_default();
            Ok((x, solved.report))
        })
    }

    /// The same problem re-pointed at different prices (the continuation
    /// layer walks a price grid with one solver definition).
    fn at_prices<'b>(&'b self, prices: &'b Prices) -> TieredSolver<'b> {
        TieredSolver { params: self.params, prices, problem: self.problem }
    }

    fn tiers(&self) -> &'static [TierSpec] {
        use TierSpec::{
            AggregateBr, ClosedForm, ConnectedBr, ConnectedVi, ExpectationFp, StandaloneBr,
            StandaloneVi, SymmetricFp,
        };
        // The aggregate and symmetric chains escalate to the full N-miner
        // tiers only on convergence failure (those are O(N²) per sweep, so
        // escalation is expected to fire at small N only — at large N the
        // solve policy's deadline bounds the fallback).
        match self.problem {
            FollowerProblem::Full { mode, .. } => per_mode(
                mode,
                &[ConnectedBr { boosted: false }, ConnectedVi],
                &[StandaloneVi, StandaloneBr],
            ),
            FollowerProblem::Aggregate { mode, .. } => per_mode(
                mode,
                &[AggregateBr, ConnectedBr { boosted: true }, ConnectedVi],
                &[AggregateBr, StandaloneVi, StandaloneBr],
            ),
            FollowerProblem::Symmetric { mode, .. } => per_mode(
                mode,
                &[SymmetricFp, ConnectedBr { boosted: true }, ConnectedVi],
                &[SymmetricFp, StandaloneVi, StandaloneBr],
            ),
            FollowerProblem::Homogeneous { .. } => &[ClosedForm],
            FollowerProblem::Dynamic { .. } | FollowerProblem::Continuous { .. } => {
                &[ExpectationFp { boosted: false }, ExpectationFp { boosted: true }]
            }
        }
    }

    fn mode_sym(&self) -> (SolveMode, bool) {
        match self.problem {
            FollowerProblem::Full { mode, .. } | FollowerProblem::Aggregate { mode, .. } => {
                (per_mode(mode, SolveMode::Connected, SolveMode::Standalone), false)
            }
            FollowerProblem::Symmetric { mode, .. } => {
                (per_mode(mode, SolveMode::Connected, SolveMode::Standalone), true)
            }
            FollowerProblem::Homogeneous { .. } => (SolveMode::Homogeneous, true),
            FollowerProblem::Dynamic { .. } | FollowerProblem::Continuous { .. } => {
                (SolveMode::Dynamic, true)
            }
        }
    }

    fn telemetry_name(&self) -> &'static str {
        match self.problem {
            FollowerProblem::Full { mode, .. } => {
                per_mode(mode, "core.solver.connected", "core.solver.standalone")
            }
            FollowerProblem::Aggregate { mode, .. } => per_mode(
                mode,
                "core.solver.connected_aggregate",
                "core.solver.standalone_aggregate",
            ),
            FollowerProblem::Symmetric { mode, .. } => {
                per_mode(mode, "core.solver.connected_sym", "core.solver.standalone_sym")
            }
            FollowerProblem::Homogeneous { .. } => "core.solver.homogeneous",
            FollowerProblem::Dynamic { .. } => "core.solver.dynamic",
            FollowerProblem::Continuous { .. } => "core.solver.dynamic_continuous",
        }
    }

    /// API-boundary input validation: rejects NaN/Inf/non-positive prices
    /// and budgets, empty or undersized budget sets and degenerate miner
    /// counts with a typed [`MiningGameError::InvalidParameter`] *before*
    /// any tier runs, so no non-finite input ever reaches a solver kernel.
    fn validate(&self) -> Result<(), MiningGameError> {
        validate_prices(self.prices)?;
        match &self.problem {
            FollowerProblem::Full { budgets, .. } | FollowerProblem::Aggregate { budgets, .. } => {
                validate_budgets(budgets)
            }
            FollowerProblem::Symmetric { budget, n, .. }
            | FollowerProblem::Homogeneous { budget, n } => {
                if *n < 2 {
                    return Err(MiningGameError::invalid("need at least two miners"));
                }
                validate_symmetric_budget(*budget)
            }
            FollowerProblem::Dynamic { budget, cfg, .. } => validate_dynamic(*budget, cfg),
            FollowerProblem::Continuous { budget, mean, sd, cfg } => {
                validate_dynamic(*budget, cfg)?;
                validate_continuous(*mean, *sd)
            }
        }
    }

    fn run_tier(
        &self,
        spec: TierSpec,
        ws: &mut SolveWorkspace,
        overrides: &mut Overrides,
        damping_scale: f64,
        salvage: &mut Option<TierRun>,
    ) -> Result<TierRun, MiningGameError> {
        let params = self.params;
        let prices = self.prices;
        if let Some(tier) = spec.heterogeneous() {
            let Some((_, population, cfg)) = self.problem.population() else {
                return Err(MiningGameError::invalid("tier does not apply to this problem"));
            };
            // Symmetric chains escalate on a uniform budget vector (cold
            // path — the local vec is fine) and report the first miner.
            let uniform;
            let budgets = match population {
                Budgets::Slice(budgets) => budgets,
                Budgets::Uniform { budget, n } => {
                    uniform = vec![budget; n];
                    &uniform
                }
            };
            let mut run =
                self.run_heterogeneous(tier, budgets, &cfg, damping_scale, overrides, ws, salvage)?;
            if let Budgets::Uniform { .. } = population {
                run.per_miner = ws.requests.first().copied();
            }
            return Ok(run);
        }
        match (&self.problem, spec) {
            (FollowerProblem::Aggregate { mode, budgets, cfg, pool }, TierSpec::AggregateBr) => {
                run_aggregate(
                    *mode,
                    params,
                    prices,
                    budgets,
                    cfg,
                    damping_scale,
                    overrides,
                    pool,
                    ws,
                    salvage,
                )
            }
            (&FollowerProblem::Symmetric { mode, budget, n, cfg }, TierSpec::SymmetricFp) => {
                let omega = symmetric_damping(&cfg, mode, n) * damping_scale;
                if omega != cfg.damping {
                    overrides.damping =
                        Some(ConfigOverride { requested: cfg.damping, effective: omega });
                }
                let fp = FixedPointBudget { omega, tol: cfg.tol, max_iter: cfg.max_iter };
                let start = symmetric_start(mode, params, prices, budget, n)?;
                sym_tier(n, start, fp, ws, salvage, |x| {
                    symmetric_best_response(mode, params, prices, budget, n, x)
                })
            }
            (FollowerProblem::Homogeneous { budget, n }, TierSpec::ClosedForm) => {
                let (x, regime) = homogeneous_core(params, prices, *budget, *n)?;
                ws.requests.clear();
                ws.utilities.clear();
                let mut run = sym_tier_run(x, *n, 0, 0.0);
                run.regime = Some(regime);
                Ok(run)
            }
            (
                &FollowerProblem::Dynamic { budget, pop, cfg },
                TierSpec::ExpectationFp { boosted },
            ) => {
                let fp = expectation_budget(cfg, pop.mean(), boosted, damping_scale, overrides);
                let n = pop.mean().round().max(2.0) as usize;
                sym_tier(n, initial_request(budget, prices)?, fp, ws, salvage, |x| {
                    best_response(x, budget, pop, params, prices, cfg.mixing, x)
                })
            }
            (
                &FollowerProblem::Continuous { budget, mean, sd, cfg },
                TierSpec::ExpectationFp { boosted },
            ) => {
                let fp = expectation_budget(cfg, mean, boosted, damping_scale, overrides);
                let n = mean.round().max(2.0) as usize;
                let gh = mbm_numerics::quadrature::GaussHermite::new(40)?;
                sym_tier(n, initial_request(budget, prices)?, fp, ws, salvage, |x| {
                    let u = |e, c| {
                        let own = Request { edge: e, cloud: c };
                        expected_utility_continuous(
                            own, x, mean, sd, &gh, params, prices, cfg.mixing,
                        )
                    };
                    best_response_to_objective(u, budget, prices, x)
                })
            }
            _ => Err(MiningGameError::invalid("tier does not apply to this problem")),
        }
    }

    /// The full N-miner tier runner. One prologue (the mode's game, the warm
    /// seed, the start profile), the tier's kernel, and one epilogue that
    /// publishes requests, utilities, aggregates and — for certifying tiers —
    /// the [`equilibrium_certificate`], as the answer on success and as the
    /// salvage on a salvageable failure.
    #[allow(clippy::too_many_arguments)] // the tier-call surface: config + supervision + salvage slots
    fn run_heterogeneous(
        &self,
        tier: HeterogeneousTier,
        budgets: &[f64],
        cfg: &SubgameConfig,
        damping_scale: f64,
        overrides: &mut Overrides,
        ws: &mut SolveWorkspace,
        salvage: &mut Option<TierRun>,
    ) -> Result<TierRun, MiningGameError> {
        let (params, prices) = (self.params, self.prices);
        let (tol, max_iter) = if tier.effective_budgets {
            (cfg.effective_tol(), cfg.effective_max_iter())
        } else {
            (cfg.tol, cfg.max_iter)
        };
        if tier.record_budgets {
            if tol != cfg.tol {
                overrides.tol = Some(ConfigOverride { requested: cfg.tol, effective: tol });
            }
            if max_iter != cfg.max_iter {
                overrides.max_iter = Some(ConfigOverride {
                    requested: cfg.max_iter as f64,
                    effective: max_iter as f64,
                });
            }
        }
        let damping = cfg.damping * damping_scale;
        if tier.kernel == Kernel::BestResponse && damping_scale != 1.0 {
            overrides.damping = Some(ConfigOverride { requested: cfg.damping, effective: damping });
        }
        let step = KernelStep { kernel: tier.kernel, tol, max_iter, damping };
        // Standalone seeds honour the shared capacity; connected ones have none.
        let e_max = (tier.mode == EdgeOperation::Standalone).then(|| params.e_max());
        let seed = |ws: &mut SolveWorkspace| {
            ws.warm.seed_profile(tier.mode, budgets, prices, e_max, &mut ws.flat)
        };
        let (iterations, residual, failure) = match tier.mode {
            EdgeOperation::Connected => {
                let game = ConnectedMinerGame::new(*params, *prices, budgets.to_vec())?;
                seed(ws)?;
                run_kernel(&game, || budget_product(prices, budgets), step, ws)?
            }
            EdgeOperation::Standalone => {
                let game = StandaloneMinerGame::new(*params, *prices, budgets.to_vec())?;
                seed(ws)?;
                run_kernel(&game, || game.shared_set(), step, ws)?
            }
        };
        let SolveWorkspace { gnep, init, flat, requests, utilities, .. } = ws;
        let sol = ensure_pairs(init, flat)?;
        let certificate = if tier.certify {
            Some(equilibrium_certificate(tier.mode, params, prices, budgets, sol, gnep)?)
        } else {
            None
        };
        fill_requests_from_pairs(requests, sol.as_slice());
        let utility = match tier.mode {
            EdgeOperation::Connected => utility_connected,
            EdgeOperation::Standalone => utility_standalone,
        };
        utilities.clear();
        for i in 0..budgets.len() {
            utilities.push(utility(i, requests, prices, params));
        }
        let run = TierRun {
            aggregates: Aggregates::of(requests),
            n: budgets.len(),
            iterations,
            residual,
            per_miner: None,
            regime: None,
            certificate,
        };
        match failure {
            None => Ok(run),
            Some(e) => {
                *salvage = Some(run);
                Err(e)
            }
        }
    }
}

impl FollowerSolver for TieredSolver<'_> {
    fn solve(&self, ws: &mut SolveWorkspace) -> Result<Solved, MiningGameError> {
        self.validate()?;
        // Disk-backed equilibrium memo (installed via `solver::memo`): a
        // re-certified hit replays the cold solve bitwise — workspace
        // effects included — without running a single iteration. Only
        // strict cold successes are recorded; warm-continuation solves
        // (grid batches) may differ within tolerance from cold, so they
        // consult but never write.
        let memo_key = memo::active_key(self.params, self.prices, &self.problem);
        if let Some(key) = memo_key.as_deref() {
            if let Some(hit) = memo::consult(key, self.params, self.prices, &self.problem, ws) {
                return Ok(hit);
            }
        }
        let solved = self.solve_validated(ws)?;
        if let Some(key) = memo_key.as_deref() {
            if solved.report.status == SolveStatus::Converged && !ws.warm.enabled() {
                memo::record(key, &solved, self.params, self.prices, &self.problem, ws);
            }
        }
        Ok(solved)
    }

    fn solve_batch(
        &self,
        grid: &[Prices],
        ws: &mut SolveWorkspace,
    ) -> Vec<Result<Solved, MiningGameError>> {
        let order = continuation::nearest_neighbor_order(grid);
        // Enable warm continuation for the batch. If the caller already
        // opted this workspace in, its slot (population-keyed, so never
        // stale) carries into and out of the batch; otherwise the slot is
        // clean on entry (disabling always clears it) and cleared again on
        // exit.
        let prev = ws.warm.set_enabled(true);
        let mut out: Vec<Option<Result<Solved, MiningGameError>>> = Vec::new();
        out.resize_with(grid.len(), || None);
        for &i in &order {
            out[i] = Some(self.at_prices(&grid[i]).solve(ws));
        }
        if !prev {
            ws.warm.set_enabled(false);
        }
        out.into_iter()
            .map(|slot| {
                slot.unwrap_or_else(|| {
                    Err(MiningGameError::invalid("price point missing from continuation path"))
                })
            })
            .collect()
    }
}

impl TieredSolver<'_> {
    /// The tier chain itself, after validation and the memo consult.
    fn solve_validated(&self, ws: &mut SolveWorkspace) -> Result<Solved, MiningGameError> {
        let policy = ws.policy;
        let tiers = self.tiers();
        let (mode, symmetric) = self.mode_sym();
        let name = self.telemetry_name();
        let rec = mbm_obs::global();
        // Arm the per-solve wall-clock budget (if any) so every
        // probe-instrumented kernel underneath observes it.
        let _deadline = policy.deadline.map(|d| mbm_faults::Supervision::with_deadline(d).enter());
        let mut hops: Vec<FallbackHop> = Vec::new();
        let mut overrides = Overrides::default();
        // Best-so-far candidate across tiers and attempts: last salvage wins
        // so the workspace per-miner buffers always match the candidate.
        let mut salvage: Option<(SolveMethod, TierRun)> = None;
        let max_attempts = policy.max_attempts.max(1);
        let mut attempts = 0usize;
        let mut terminal: Option<MiningGameError> = None;
        // Continuation tier selection: accumulated fallback-hop evidence can
        // say the symmetric fixed point is contracting too slowly (ω clamp
        // binding) in this parameter region — start at the escalation tier.
        // Always 0 when warm continuation is off.
        let start_tier = continuation::start_tier(&self.problem, &ws.warm);
        'attempts: for attempt in 1..=max_attempts {
            attempts = attempt;
            let scale = policy.damping_scale(attempt);
            for (idx, &spec) in tiers.iter().enumerate().skip(start_tier) {
                let mut tier_salvage: Option<TierRun> = None;
                let outcome = mbm_numerics::supervision::checkpoint(
                    mbm_faults::sites::SOLVER_TIER,
                    idx,
                    tiers.len(),
                    f64::INFINITY,
                )
                .map_err(MiningGameError::from)
                .and_then(|()| self.run_tier(spec, ws, &mut overrides, scale, &mut tier_salvage));
                if let Some(run) = tier_salvage.take() {
                    salvage = Some((spec.method(), run));
                }
                match outcome {
                    Ok(run) => {
                        continuation::store_success(&self.problem, ws, &run);
                        if spec == TierSpec::SymmetricFp {
                            ws.warm.note_sym_ok();
                        }
                        if rec.enabled() {
                            rec.solver(name, run.iterations as u64, run.residual);
                            rec.incr(method_counter(spec.method()));
                            if !hops.is_empty() {
                                rec.add("core.solver.fallback_hops", hops.len() as u64);
                            }
                            if !overrides.is_empty() {
                                rec.add("core.solver.config_override", overrides.count() as u64);
                            }
                            if attempt > 1 {
                                rec.add("core.solver.retries", (attempt - 1) as u64);
                            }
                        }
                        let report = SolveReport {
                            mode,
                            status: SolveStatus::Converged,
                            symmetric,
                            method: spec.method(),
                            fallback_hops: hops,
                            iterations: run.iterations,
                            residual: run.residual,
                            certificate: run.certificate,
                            overrides,
                            retries: attempt - 1,
                        };
                        return Ok(Solved {
                            aggregates: run.aggregates,
                            n: run.n,
                            iterations: run.iterations,
                            residual: run.residual,
                            per_miner: run.per_miner,
                            regime: run.regime,
                            report,
                        });
                    }
                    Err(e) if idx + 1 < tiers.len() && e.is_convergence_failure() => {
                        if spec == TierSpec::SymmetricFp {
                            ws.warm.note_sym_hop();
                        }
                        hops.push(FallbackHop { method: spec.method(), error: e.to_string() });
                    }
                    Err(e) => {
                        // Interruptions (deadline, cancellation) and
                        // non-convergence errors end the solve; convergence
                        // failure on the last tier may earn another chain
                        // attempt at heavier damping.
                        let retry = e.is_convergence_failure() && attempt < max_attempts;
                        terminal = Some(e);
                        if retry {
                            continue 'attempts;
                        }
                        break 'attempts;
                    }
                }
            }
            terminal = Some(MiningGameError::invalid("follower solver chain has no tiers"));
            break 'attempts;
        }
        let err = match terminal {
            Some(e) => e,
            None => MiningGameError::invalid("follower solver chain has no tiers"),
        };
        // Graceful degradation: hand back the certified best-so-far iterate
        // instead of the terminal error. Validation errors never degrade.
        if policy.degrade == DegradeMode::BestEffort
            && (err.is_convergence_failure() || err.is_interruption())
        {
            if let Some((method, run)) = salvage {
                if run.per_miner.is_some() {
                    // Symmetric candidate: the per-miner buffers describe
                    // whatever tier last wrote them, not this answer.
                    ws.requests.clear();
                    ws.utilities.clear();
                }
                hops.push(FallbackHop { method, error: err.to_string() });
                if rec.enabled() {
                    rec.incr("core.solver.degraded");
                    rec.add("core.solver.fallback_hops", hops.len() as u64);
                }
                let report = SolveReport {
                    mode,
                    status: SolveStatus::Degraded,
                    symmetric,
                    method,
                    fallback_hops: hops,
                    iterations: run.iterations,
                    residual: run.residual,
                    certificate: run.certificate,
                    overrides,
                    retries: attempts.saturating_sub(1),
                };
                return Ok(Solved {
                    aggregates: run.aggregates,
                    n: run.n,
                    iterations: run.iterations,
                    residual: run.residual,
                    per_miner: run.per_miner,
                    regime: run.regime,
                    report,
                });
            }
        }
        if rec.enabled() {
            rec.solver_failure(name, error_iterations(&err));
        }
        Err(err)
    }
}

fn method_counter(m: SolveMethod) -> &'static str {
    match m {
        SolveMethod::ClosedForm => "core.solver.method.closed_form",
        SolveMethod::SymmetricFixedPoint => "core.solver.method.symmetric_fixed_point",
        SolveMethod::BestResponseDynamics => "core.solver.method.best_response_dynamics",
        SolveMethod::Extragradient => "core.solver.method.extragradient",
        SolveMethod::DampedExpectationFixedPoint => {
            "core.solver.method.damped_expectation_fixed_point"
        }
        SolveMethod::AggregateBestResponse => "core.solver.method.aggregate_best_response",
    }
}

fn error_iterations(e: &MiningGameError) -> u64 {
    match e {
        MiningGameError::Game(mbm_game::GameError::NoConvergence { iterations, .. })
        | MiningGameError::Game(mbm_game::GameError::Numerics(
            mbm_numerics::NumericsError::DidNotConverge { iterations, .. },
        ))
        | MiningGameError::Numerics(mbm_numerics::NumericsError::DidNotConverge {
            iterations,
            ..
        }) => *iterations as u64,
        _ => 0,
    }
}

fn error_residual(e: &MiningGameError) -> f64 {
    match e {
        MiningGameError::Game(mbm_game::GameError::NoConvergence { residual, .. })
        | MiningGameError::Game(mbm_game::GameError::Numerics(
            mbm_numerics::NumericsError::DidNotConverge { residual, .. },
        ))
        | MiningGameError::Numerics(mbm_numerics::NumericsError::DidNotConverge {
            residual, ..
        }) => *residual,
        _ => f64::NAN,
    }
}

/// Whether a tier failure leaves a meaningful best-so-far iterate behind
/// (convergence failures and interruptions do; validation errors do not).
fn salvageable(e: &MiningGameError) -> bool {
    e.is_convergence_failure() || e.is_interruption()
}

/// Shared-budget check of the symmetric/homogeneous chains (the
/// heterogeneous chains validate their budget vectors via
/// [`validate_budgets`] instead).
fn validate_symmetric_budget(budget: f64) -> Result<(), MiningGameError> {
    if !(budget.is_finite() && budget > 0.0) {
        return Err(MiningGameError::invalid(format!("budget = {budget} must be > 0")));
    }
    Ok(())
}

fn sym_tier_run(x: Request, n: usize, iterations: usize, residual: f64) -> TierRun {
    let nf = n as f64;
    TierRun {
        aggregates: Aggregates { edge: nf * x.edge, cloud: nf * x.cloud },
        n,
        iterations,
        residual,
        per_miner: Some(x),
        regime: None,
        certificate: None,
    }
}

/// Runs the [`symmetric_fixed_point`] of `best_response` from `start` for `n`
/// miners: the answer is one request, so the per-miner buffers are cleared;
/// on failure the kernel's best-so-far iterate becomes the salvage.
fn sym_tier(
    n: usize,
    start: Request,
    fp: FixedPointBudget,
    ws: &mut SolveWorkspace,
    salvage: &mut Option<TierRun>,
    best_response: impl FnMut(Request) -> Result<Request, MiningGameError>,
) -> Result<TierRun, MiningGameError> {
    let mut best = None;
    match symmetric_fixed_point(start, fp, &mut best, best_response) {
        Ok(run) => {
            ws.requests.clear();
            ws.utilities.clear();
            Ok(sym_tier_run(run.x, n, run.iterations, run.residual))
        }
        Err(e) => {
            if let Some(s) = best {
                *salvage = Some(sym_tier_run(s.x, n, s.iterations, s.residual));
            }
            Err(e)
        }
    }
}

/// The damped expectation fixed point's budget for one tier of a dynamic or
/// continuous chain ([`SubgameConfig::effective_damping_dynamic`] and
/// [`SubgameConfig::effective_tol_dynamic`]): the unboosted tier records the
/// `ω` and `tol` clamps, the boosted one halves `ω` and raises the iteration
/// cap; any retry damping scale is recorded.
fn expectation_budget(
    cfg: &DynamicConfig,
    mean_n: f64,
    boosted: bool,
    damping_scale: f64,
    overrides: &mut Overrides,
) -> FixedPointBudget {
    let sub = cfg.subgame;
    let omega0 = sub.effective_damping_dynamic(mean_n);
    let tol = sub.effective_tol_dynamic();
    if !boosted {
        if omega0 != sub.damping {
            overrides.damping = Some(ConfigOverride { requested: sub.damping, effective: omega0 });
        }
        if tol != sub.tol {
            overrides.tol = Some(ConfigOverride { requested: sub.tol, effective: tol });
        }
    }
    let (omega, max_iter) =
        if boosted { (0.5 * omega0, sub.effective_max_iter()) } else { (omega0, sub.max_iter) };
    let omega = omega * damping_scale;
    if damping_scale != 1.0 {
        overrides.damping = Some(ConfigOverride { requested: sub.damping, effective: omega });
    }
    FixedPointBudget { omega, tol, max_iter }
}

fn fill_requests_from_pairs(requests: &mut Vec<Request>, flat: &[f64]) {
    requests.clear();
    requests.extend(
        flat.chunks_exact(2).map(|p| Request { edge: p[0].max(0.0), cloud: p[1].max(0.0) }),
    );
}

/// The kernel of a full N-miner tier and its iteration budget.
#[derive(Debug, Clone, Copy)]
struct KernelStep {
    kernel: Kernel,
    tol: f64,
    max_iter: usize,
    /// Best-response damping (unused by the extragradient).
    damping: f64,
}

/// Runs `step`'s kernel on `game` from the start profile staged in
/// `ws.flat` and leaves the final iterate there. A salvageable kernel
/// failure comes back as `Ok` with its error attached; any other error
/// ends the tier before the workspace is touched.
fn run_kernel<G: Game, S: ConvexSet>(
    game: &G,
    feasible_set: impl FnOnce() -> Result<S, MiningGameError>,
    step: KernelStep,
    ws: &mut SolveWorkspace,
) -> Result<(usize, f64, Option<MiningGameError>), MiningGameError> {
    let SolveWorkspace { br, gnep, init, flat, .. } = ws;
    let start = ensure_pairs(init, flat)?;
    let outcome = match step.kernel {
        Kernel::BestResponse => {
            let br_params = BrParams {
                order: UpdateOrder::Sequential,
                damping: step.damping,
                tol: step.tol,
                max_sweeps: step.max_iter,
            };
            best_response_dynamics_in(game, start, &br_params, br).map(|r| (r.sweeps, r.residual))
        }
        Kernel::Extragradient => {
            let vi = ViParams { tol: step.tol, max_iter: step.max_iter, ..Default::default() };
            variational_equilibrium_in(game, &feasible_set()?, start, &vi, gnep)
                .map(|r| (r.iterations, r.residual))
        }
    };
    let (iterations, residual, failure) = match outcome.map_err(MiningGameError::from) {
        Ok((iterations, residual)) => (iterations, residual, None),
        Err(e) if salvageable(&e) => (error_iterations(&e) as usize, error_residual(&e), Some(e)),
        Err(e) => return Err(e),
    };
    flat.clear();
    flat.extend_from_slice(match step.kernel {
        Kernel::BestResponse => br.profile().as_slice(),
        Kernel::Extragradient => gnep.solution(),
    });
    Ok((iterations, residual, failure))
}
