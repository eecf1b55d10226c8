//! Aggregate-form population solver: O(N) best-response sweeps.
//!
//! In the paper's mining game a miner's payoff couples to the rest of the
//! population **only** through the scalar aggregates `E = Σeⱼ`, `C = Σcⱼ`,
//! `S = E + C` (Eqs. 4–9). The legacy heterogeneous solvers nevertheless
//! re-derive each miner's opponent view by summing the full profile per
//! player per sweep — `O(N²)` work that caps them at small populations.
//!
//! This module restructures the sweep around streaming aggregates:
//!
//! * One damped **Jacobi** sweep responds every miner to the *frozen*
//!   sweep-start aggregates; the leave-one-out scalars a miner needs are
//!   `E₋ᵢ = E − eᵢ` and `S₋ᵢ = S − (eᵢ + cᵢ)` — two subtractions, not a
//!   profile scan. Total cost is `O(N)` per sweep.
//! * The population lives in the `SoaPopulation` structure-of-arrays
//!   scratch (contiguous `budgets`/`edges`/`clouds` arrays) hoisted into the
//!   [`SolveWorkspace`] and keyed on
//!   `(n, budget bits)`, so repeated solves at new prices skip re-staging —
//!   and the per-miner `BudgetSet`/Dykstra machinery of the legacy games is
//!   not needed at all (budget feasibility is internal to
//!   [`analytic_best_response`]).
//! * The per-miner fan-out is chunked over [`mbm_par::Pool`] in
//!   **fixed-width** chunks (`SWEEP_CHUNK`, independent of thread count)
//!   and reduced serially in chunk-index order, so the new aggregates, the
//!   residual, and therefore every subsequent iterate are bitwise identical
//!   at 1, 2, or 8 worker threads.
//!
//! Damping: the synchronous (Jacobi) aggregate map has slope ≈ `−n/2` at
//! the fixed point (each miner's response moves ≈ `−1/2` per unit of
//! aggregate change, and all `n` miners move at once), so the same
//! `3/(n + 2)` clamp as the symmetric fixed point — and the tighter
//! `1.2/(n + 1)` standalone clamp under the shared capacity — yields a
//! contraction factor ≈ `1/2` at every `n` *near the fixed point*. Far from
//! it the damped map only moves `ω ≈ 3/n` of the gap per sweep, so a cold
//! start would pay an `O(n)`-sweep transient. `seed_population` removes
//! that transient: it solves the symmetric surrogate at the mean budget
//! (closed form for connected, an `O(1)`-per-step scalar iteration for
//! standalone) and seeds every miner at its best response to the surrogate
//! aggregates. Near-symmetric populations then start inside the contraction
//! basin and sweep counts are *population-size independent* (≈ tens to
//! `1e-9`), which is what makes `N = 10⁶` feasible.
//!
//! Mode coverage: connected (Problem 1a, `h < 1`) and standalone
//! (Problem 1c as the capped `h = 1` best-response iteration; with slack
//! capacity this is the GNEP's equilibrium, with binding capacity it is the
//! capped-BR fixed point the symmetric standalone tier also computes).

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use mbm_par::Pool;

use crate::error::MiningGameError;
use crate::params::{EdgeOperation, MarketParams, Prices};
use crate::request::{Aggregates, Request};
use crate::subgame::connected::{analytic_best_response, BestResponseInputs};
use crate::subgame::homogeneous::homogeneous_core;
use crate::subgame::SubgameConfig;
use crate::winning::{utility_connected_at, utility_standalone_at};

use super::report::{ConfigOverride, Overrides};
use super::workspace::SoaPopulation;
use super::{salvageable, SolveWorkspace, TierRun};

/// Fixed chunk width of the per-miner fan-out. A constant — never derived
/// from the pool size — so chunk boundaries, chunk partial sums, and the
/// chunk-ordered reduction are identical at any thread count.
pub(crate) const SWEEP_CHUNK: usize = 4096;

/// Iteration/residual outcome of one aggregate sweep run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AggRun {
    /// Sweeps used.
    pub iterations: usize,
    /// Final displacement residual `max_i max(|Δeᵢ|, |Δcᵢ|)`.
    pub residual: f64,
}

/// Per-chunk output of one sweep: the chunk's new requests plus its partial
/// aggregate sums and displacement maximum. Reduced serially in chunk order.
struct ChunkOut {
    new: Vec<(f64, f64)>,
    sum_e: f64,
    sum_c: f64,
    max_delta: f64,
}

/// Sums `xs` as fixed-width chunk partials folded in chunk order — the same
/// association the sweep reduction uses, so initial and per-sweep aggregates
/// are consistent (and thread-count independent).
fn chunked_sum(xs: &[f64]) -> f64 {
    xs.chunks(SWEEP_CHUNK).map(|c| c.iter().sum::<f64>()).sum()
}

/// Cold fallback start: the shared feasible point
/// (`b/(4P_e), b/(4P_c)` per miner — mirroring
/// [`crate::subgame::initial_profile_into`], including the standalone
/// rescale to `0.95·E_max/Σeᵢ` when the start violates the capacity).
fn init_population(mode: EdgeOperation, soa: &mut SoaPopulation, prices: &Prices, e_max: f64) {
    for i in 0..soa.budgets.len() {
        soa.edges[i] = soa.budgets[i] / (4.0 * prices.edge);
        soa.clouds[i] = soa.budgets[i] / (4.0 * prices.cloud);
    }
    if mode == EdgeOperation::Standalone {
        let e_total: f64 = soa.edges.iter().sum();
        if e_total > e_max {
            let scale = e_max / e_total * 0.95;
            for e in &mut soa.edges {
                *e *= scale;
            }
        }
    }
}

/// Symmetric per-miner request of the mean-budget surrogate game, used as
/// the warm-start anchor. Connected mode is the Theorem 3 / Corollary 1
/// closed form (exact, `O(1)`). Standalone mode runs the scalar capped
/// fixed-point iteration — `O(1)` per step, so it can afford the `O(n)`
/// damped transient the full population sweep cannot; a non-converged
/// surrogate still returns its last iterate (it only has to be *near*).
fn symmetric_surrogate(
    mode: EdgeOperation,
    params: &MarketParams,
    prices: &Prices,
    mean_budget: f64,
    n: usize,
    omega: f64,
    tol: f64,
) -> Option<Request> {
    match mode {
        EdgeOperation::Connected => {
            homogeneous_core(params, prices, mean_budget, n).ok().map(|(r, _)| r)
        }
        EdgeOperation::Standalone => {
            let m = (n - 1) as f64;
            let e_max = params.e_max();
            let mut x = Request {
                edge: (mean_budget / (4.0 * prices.edge)).min(e_max / n as f64),
                cloud: mean_budget / (4.0 * prices.cloud),
            };
            // Transient budget: the ω-damped scalar map closes the gap by a
            // factor (1 − ω) per step, so allow a multiple of 1/ω ≈ n steps.
            let max_iter = 16 * n + 1_000;
            for _ in 0..max_iter {
                let e_others = m * x.edge;
                let br = analytic_best_response(&BestResponseInputs {
                    reward: params.reward(),
                    beta: params.fork_rate(),
                    h: 1.0,
                    prices: *prices,
                    budget: mean_budget,
                    e_others,
                    s_others: m * x.total(),
                    edge_cap: Some((e_max - e_others).max(0.0)),
                })
                .ok()?;
                let next = Request {
                    edge: (1.0 - omega) * x.edge + omega * br.edge,
                    cloud: (1.0 - omega) * x.cloud + omega * br.cloud,
                };
                let residual = (next.edge - x.edge).abs().max((next.cloud - x.cloud).abs());
                x = next;
                if residual <= tol {
                    break;
                }
            }
            Some(x)
        }
    }
}

/// Seeds the SoA iterate: every miner starts at its own best response to the
/// mean-budget symmetric surrogate's leave-one-out aggregates. This places
/// near-symmetric populations (and the budget-insensitive interior regime)
/// essentially at the fixed point, so the subsequent Jacobi sweeps only
/// polish. Entirely serial and thread-count independent. Falls back to
/// [`init_population`] when the surrogate or any seed response fails.
fn seed_population(
    mode: EdgeOperation,
    soa: &mut SoaPopulation,
    params: &MarketParams,
    prices: &Prices,
    omega: f64,
    tol: f64,
) {
    let n = soa.budgets.len();
    let e_max = params.e_max();
    let mean = chunked_sum(&soa.budgets) / n as f64;
    let Some(sym) = symmetric_surrogate(mode, params, prices, mean, n, omega, tol) else {
        init_population(mode, soa, prices, e_max);
        return;
    };
    let m = (n - 1) as f64;
    let e_others = (m * sym.edge).max(0.0);
    let s_others = (m * sym.total()).max(0.0);
    let h = match mode {
        EdgeOperation::Connected => params.edge_availability(),
        EdgeOperation::Standalone => 1.0,
    };
    let edge_cap = match mode {
        EdgeOperation::Connected => None,
        EdgeOperation::Standalone => Some((e_max - e_others).max(0.0)),
    };
    for i in 0..n {
        let br = analytic_best_response(&BestResponseInputs {
            reward: params.reward(),
            beta: params.fork_rate(),
            h,
            prices: *prices,
            budget: soa.budgets[i],
            e_others,
            s_others,
            edge_cap,
        });
        match br {
            Ok(r) => {
                soa.edges[i] = r.edge;
                soa.clouds[i] = r.cloud;
            }
            Err(_) => {
                init_population(mode, soa, prices, e_max);
                return;
            }
        }
    }
    if mode == EdgeOperation::Standalone {
        let e_total: f64 = soa.edges.iter().sum();
        if e_total > e_max {
            let scale = e_max / e_total * 0.95;
            for e in &mut soa.edges {
                *e *= scale;
            }
        }
    }
}

/// The damped Jacobi aggregate sweep itself.
///
/// Every sweep: checkpoint the supervision probe, fan the population out in
/// [`SWEEP_CHUNK`]-wide chunks over `pool`, respond each miner to the frozen
/// `(E, C)` via [`analytic_best_response`], damp by `omega`, and reduce the
/// chunk partials (new aggregates, residual) serially in chunk order. On
/// failure the SoA arrays hold the last complete iterate and `salvage`
/// carries its bookkeeping.
#[allow(clippy::too_many_arguments)] // iteration budget plus the supervision salvage slot
fn aggregate_sweep_core(
    mode: EdgeOperation,
    params: &MarketParams,
    prices: &Prices,
    soa: &mut SoaPopulation,
    omega: f64,
    tol: f64,
    max_iter: usize,
    pool: &Pool,
    salvage: &mut Option<AggRun>,
) -> Result<AggRun, MiningGameError> {
    let n = soa.budgets.len();
    let n_chunks = n.div_ceil(SWEEP_CHUNK);
    let mut e_tot = chunked_sum(&soa.edges);
    let mut c_tot = chunked_sum(&soa.clouds);
    let reward = params.reward();
    let beta = params.fork_rate();
    let h = match mode {
        EdgeOperation::Connected => params.edge_availability(),
        EdgeOperation::Standalone => 1.0,
    };
    let e_max = params.e_max();
    let mut residual = f64::INFINITY;
    for sweep in 0..max_iter {
        *salvage = Some(AggRun { iterations: sweep, residual });
        mbm_numerics::supervision::checkpoint(
            mbm_faults::sites::AGGREGATE_SWEEP,
            sweep,
            max_iter,
            residual,
        )?;
        let (edges, clouds, budgets) = (&soa.edges, &soa.clouds, &soa.budgets);
        let outs: Vec<Result<ChunkOut, MiningGameError>> = pool.par_eval(n_chunks, |ci| {
            let start = ci * SWEEP_CHUNK;
            let end = (start + SWEEP_CHUNK).min(n);
            let mut out = ChunkOut {
                new: Vec::with_capacity(end - start),
                sum_e: 0.0,
                sum_c: 0.0,
                max_delta: 0.0,
            };
            for i in start..end {
                let (e_i, c_i) = (edges[i], clouds[i]);
                let e_others = (e_tot - e_i).max(0.0);
                let inp = BestResponseInputs {
                    reward,
                    beta,
                    h,
                    prices: *prices,
                    budget: budgets[i],
                    e_others,
                    s_others: ((e_tot + c_tot) - (e_i + c_i)).max(0.0),
                    edge_cap: match mode {
                        EdgeOperation::Connected => None,
                        EdgeOperation::Standalone => Some((e_max - e_others).max(0.0)),
                    },
                };
                let br = analytic_best_response(&inp)?;
                let ne = (1.0 - omega) * e_i + omega * br.edge;
                let nc = (1.0 - omega) * c_i + omega * br.cloud;
                out.max_delta = out.max_delta.max((ne - e_i).abs()).max((nc - c_i).abs());
                out.sum_e += ne;
                out.sum_c += nc;
                out.new.push((ne, nc));
            }
            Ok(out)
        });
        // Serial chunk-order reduction. Errors are surfaced lowest-chunk
        // first (deterministic) and leave the previous iterate untouched.
        let mut chunk_outs = Vec::with_capacity(n_chunks);
        for res in outs {
            chunk_outs.push(res?);
        }
        let (mut new_e, mut new_c, mut delta) = (0.0f64, 0.0f64, 0.0f64);
        for (ci, out) in chunk_outs.into_iter().enumerate() {
            let start = ci * SWEEP_CHUNK;
            for (k, &(ne, nc)) in out.new.iter().enumerate() {
                soa.edges[start + k] = ne;
                soa.clouds[start + k] = nc;
            }
            new_e += out.sum_e;
            new_c += out.sum_c;
            delta = delta.max(out.max_delta);
        }
        e_tot = new_e;
        c_tot = new_c;
        residual = delta;
        if residual <= tol {
            return Ok(AggRun { iterations: sweep + 1, residual });
        }
    }
    *salvage = Some(AggRun { iterations: max_iter, residual });
    Err(MiningGameError::Game(mbm_game::GameError::NoConvergence {
        iterations: max_iter,
        residual,
    }))
}

/// Publishes the SoA iterate into the workspace's AoS views: per-miner
/// requests, the profile aggregates (recomputed once, in index order, via
/// [`Aggregates::of`]), and the per-miner utilities evaluated `O(1)` each
/// against those aggregates.
fn fill_outputs(
    mode: EdgeOperation,
    params: &MarketParams,
    prices: &Prices,
    soa: &SoaPopulation,
    requests: &mut Vec<Request>,
    utilities: &mut Vec<f64>,
) -> Aggregates {
    requests.clear();
    requests.extend(
        soa.edges
            .iter()
            .zip(&soa.clouds)
            .map(|(&e, &c)| Request { edge: e.max(0.0), cloud: c.max(0.0) }),
    );
    let agg = Aggregates::of(requests);
    utilities.clear();
    match mode {
        EdgeOperation::Connected => {
            utilities
                .extend(requests.iter().map(|r| utility_connected_at(r, &agg, prices, params)));
        }
        EdgeOperation::Standalone => {
            utilities
                .extend(requests.iter().map(|r| utility_standalone_at(r, &agg, prices, params)));
        }
    }
    agg
}

/// The aggregate-form tier: stages the population, seeds the iterate, runs
/// the chunked Jacobi sweep, and publishes requests/utilities/aggregates
/// into the workspace (for salvage, the last complete iterate).
#[allow(clippy::too_many_arguments)] // the tier-call surface: config + supervision + salvage slots
pub(crate) fn run_aggregate(
    mode: EdgeOperation,
    params: &MarketParams,
    prices: &Prices,
    budgets: &[f64],
    cfg: &SubgameConfig,
    damping_scale: f64,
    overrides: &mut Overrides,
    pool: &Pool,
    ws: &mut SolveWorkspace,
    salvage: &mut Option<TierRun>,
) -> Result<TierRun, MiningGameError> {
    let n = budgets.len();
    let omega = super::symmetric_damping(cfg, mode, n) * damping_scale;
    if omega != cfg.damping {
        overrides.damping = Some(ConfigOverride { requested: cfg.damping, effective: omega });
    }
    let SolveWorkspace { soa, requests, utilities, .. } = ws;
    let staged = soa.stage(budgets);
    let rec = mbm_obs::global();
    if rec.enabled() {
        rec.incr(if staged {
            "core.solver.aggregate.staged"
        } else {
            "core.solver.aggregate.stage_reused"
        });
    }
    seed_population(mode, soa, params, prices, omega, cfg.tol);
    let mut best: Option<AggRun> = None;
    match aggregate_sweep_core(
        mode,
        params,
        prices,
        soa,
        omega,
        cfg.tol,
        cfg.max_iter,
        pool,
        &mut best,
    ) {
        Ok(run) => {
            let aggregates = fill_outputs(mode, params, prices, soa, requests, utilities);
            Ok(TierRun {
                aggregates,
                n,
                iterations: run.iterations,
                residual: run.residual,
                per_miner: None,
                regime: None,
                certificate: None,
            })
        }
        Err(e) => {
            if salvageable(&e) {
                if let Some(s) = best {
                    let aggregates = fill_outputs(mode, params, prices, soa, requests, utilities);
                    *salvage = Some(TierRun {
                        aggregates,
                        n,
                        iterations: s.iterations,
                        residual: s.residual,
                        per_miner: None,
                        regime: None,
                        certificate: None,
                    });
                }
            }
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::TieredSolver;

    #[test]
    fn chunked_sum_matches_flat_sum_for_small_inputs() {
        // Below one chunk the association is identical to a flat fold.
        let xs: Vec<f64> = (0..100).map(|i| f64::from(i) * 0.37).collect();
        assert_eq!(chunked_sum(&xs).to_bits(), xs.iter().sum::<f64>().to_bits());
    }

    #[test]
    fn chunked_sum_is_chunk_associated_above_one_chunk() {
        let xs: Vec<f64> = (0..(SWEEP_CHUNK + 17)).map(|i| (i as f64).sqrt()).collect();
        let manual = xs[..SWEEP_CHUNK].iter().sum::<f64>() + xs[SWEEP_CHUNK..].iter().sum::<f64>();
        assert_eq!(chunked_sum(&xs).to_bits(), manual.to_bits());
    }

    #[test]
    fn aggregate_connected_matches_legacy_small_n() {
        let params = MarketParams::builder()
            .reward(100.0)
            .fork_rate(0.2)
            .edge_availability(0.8)
            .build()
            .unwrap();
        let prices = Prices::new(4.0, 2.0).unwrap();
        let budgets = [200.0, 120.0, 60.0, 200.0, 90.0];
        let cfg = SubgameConfig::default();
        let (legacy, _) =
            TieredSolver::connected(&params, &prices, &budgets, &cfg).solve_equilibrium().unwrap();
        let (agg, report) = TieredSolver::aggregate_connected(&params, &prices, &budgets, &cfg)
            .solve_equilibrium()
            .unwrap();
        assert_eq!(report.method, crate::solver::SolveMethod::AggregateBestResponse);
        assert!(report.fallback_hops.is_empty(), "{:?}", report.fallback_hops);
        for (a, l) in agg.requests.iter().zip(&legacy.requests) {
            assert!((a.edge - l.edge).abs() < 1e-6, "{a:?} vs {l:?}");
            assert!((a.cloud - l.cloud).abs() < 1e-6, "{a:?} vs {l:?}");
        }
    }

    #[test]
    fn aggregate_standalone_matches_legacy_with_slack_capacity() {
        let params = MarketParams::builder()
            .reward(100.0)
            .fork_rate(0.2)
            .edge_availability(0.8)
            .e_max(1e5)
            .build()
            .unwrap();
        let prices = Prices::new(4.0, 2.0).unwrap();
        let budgets = [150.0, 80.0, 220.0];
        let cfg = SubgameConfig::default();
        let (legacy, _) =
            TieredSolver::standalone(&params, &prices, &budgets, &cfg).solve_equilibrium().unwrap();
        let (agg, report) = TieredSolver::aggregate_standalone(&params, &prices, &budgets, &cfg)
            .solve_equilibrium()
            .unwrap();
        assert_eq!(report.method, crate::solver::SolveMethod::AggregateBestResponse);
        for (a, l) in agg.requests.iter().zip(&legacy.requests) {
            assert!((a.edge - l.edge).abs() < 1e-3, "{a:?} vs {l:?}");
            assert!((a.cloud - l.cloud).abs() < 1e-3, "{a:?} vs {l:?}");
        }
    }

    #[test]
    fn aggregate_standalone_splits_binding_capacity_evenly() {
        let params = MarketParams::builder()
            .reward(100.0)
            .fork_rate(0.2)
            .edge_availability(0.8)
            .e_max(2.0)
            .build()
            .unwrap();
        let prices = Prices::new(4.0, 2.0).unwrap();
        let budgets = [200.0; 4];
        let cfg = SubgameConfig::default();
        let (agg, _) = TieredSolver::aggregate_standalone(&params, &prices, &budgets, &cfg)
            .solve_equilibrium()
            .unwrap();
        assert!((agg.aggregates.edge - 2.0).abs() < 1e-3, "E = {}", agg.aggregates.edge);
        for r in &agg.requests {
            assert!((r.edge - 0.5).abs() < 1e-3, "{r:?}");
        }
    }

    #[test]
    fn init_respects_standalone_capacity_rescale() {
        let prices = Prices::new(4.0, 2.0).unwrap();
        let mut soa = SoaPopulation::default();
        soa.stage(&[400.0, 400.0]);
        init_population(EdgeOperation::Standalone, &mut soa, &prices, 10.0);
        let e_total: f64 = soa.edges.iter().sum();
        assert!(e_total <= 10.0, "start violates the shared capacity: {e_total}");
        // Connected mode leaves the interior start untouched.
        init_population(EdgeOperation::Connected, &mut soa, &prices, 10.0);
        assert_eq!(soa.edges[0], 400.0 / 16.0);
    }
}
