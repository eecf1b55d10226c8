//! EXP-OLIG — K-provider Bertrand oligopoly sweep (DESIGN.md §14).
//!
//! Two artifacts per provider count `K ∈ {2, 3, 4}`:
//!
//! * a **price grid**: the symmetric follower equilibrium at a sweep of
//!   cloud price levels (cloud provider `j` announces `base + 0.5 j`, so
//!   the cheapest provider is always `j = 0` and the Bertrand allocation is
//!   deterministic), reporting per-provider revenue and profit — undercut
//!   providers earn exactly zero;
//! * one **leader-dynamics row**: K-leader sequential best-response price
//!   dynamics from a common start, reporting rounds, convergence and the
//!   detected Edgeworth cycle period (0 when none).
//!
//! At `K = 2` every grid point is the paper's two-provider market, so the
//! sweep's first block doubles as a live regression of the K-provider
//! reduction. CI runs `--only oligopoly-sweep --check`; every follower
//! solve must end `Converged` in `reports.json`.

use mbm_core::scenario::EdgeOperation;
use mbm_core::subgame::SubgameConfig;

use crate::error::EngineError;
use crate::executor::TaskResults;
use crate::market::{baseline_market, leader_ne_market, BUDGET, N_MINERS};
use crate::planner::PlannedTask;
use crate::spec::{ExperimentSpec, SpecCtx};
use crate::table::SweepTable;
use crate::task::Task;

/// Provider counts the sweep covers.
const KS: [usize; 3] = [2, 3, 4];

/// Cloud price caps match the paper's CSP cap.
const CLOUD_CAP: f64 = 8.0;

/// The oligopoly-sweep spec. CLI overrides: `[P_e] [budget]`.
#[must_use]
pub fn spec() -> ExperimentSpec {
    ExperimentSpec {
        name: "oligopoly-sweep",
        summary: "K-provider Bertrand price grids + leader dynamics, K = 2..4",
        tasks,
        render,
    }
}

/// Unit costs of the `K − 1` cloud providers: `1.0, 1.4, 1.8, …`.
fn cloud_costs(k: usize) -> Vec<f64> {
    (0..k - 1).map(|j| 1.0 + 0.4 * j as f64).collect()
}

/// The K-provider price vector at one grid level: cloud provider `j`
/// announces `base + 0.5 j` (distinct prices, provider 0 cheapest).
fn price_vector(edge: f64, k: usize, base: f64) -> Vec<f64> {
    let mut prices = vec![edge];
    for j in 0..k - 1 {
        prices.push(base + 0.5 * j as f64);
    }
    prices
}

fn grid(ctx: &SpecCtx) -> Vec<(usize, f64, Task)> {
    let params = baseline_market();
    let edge = ctx.arg_or(1, 4.0);
    let budget = ctx.arg_or(2, BUDGET);
    let points = ctx.pick(7, 3);
    let mut out = Vec::new();
    for &k in &KS {
        for i in 0..points {
            // Check strides the same grid so both resolutions share the
            // low/mid/high structure.
            let base = 1.5 + 0.5 * (i * ctx.pick(1, 2)) as f64;
            let task = Task::OligopolyNep {
                op: EdgeOperation::Connected,
                params,
                cloud_costs: cloud_costs(k),
                prices: price_vector(edge, k, base),
                budget,
                n: N_MINERS,
                cfg: SubgameConfig::default(),
            };
            out.push((k, base, task));
        }
    }
    out
}

fn dynamics(ctx: &SpecCtx) -> Vec<(usize, Task)> {
    // The leader-NE market keeps the edge provider's cap dominant, so the
    // K-leader dynamics have a resting point to find; cycling (if any)
    // comes from cloud-vs-cloud undercutting and is reported, not hidden.
    let params = leader_ne_market();
    KS.iter()
        .map(|&k| {
            let init = price_vector(10.0, k, 4.0);
            let task = Task::OligopolyBr {
                op: EdgeOperation::Connected,
                params,
                clouds: cloud_costs(k).into_iter().map(|c| (c, CLOUD_CAP)).collect(),
                budget: BUDGET,
                n: N_MINERS,
                init,
                max_rounds: ctx.pick(40, 15),
            };
            (k, task)
        })
        .collect()
}

fn tasks(ctx: &SpecCtx) -> Vec<PlannedTask> {
    grid(ctx)
        .into_iter()
        .map(|(_, _, t)| PlannedTask::required(t))
        .chain(dynamics(ctx).into_iter().map(|(_, t)| PlannedTask::required(t)))
        .collect()
}

fn render(ctx: &SpecCtx, results: &TaskResults) -> Result<Vec<SweepTable>, EngineError> {
    let mut tables = Vec::new();
    for &k in &KS {
        let mut rows = Vec::new();
        for (_, base, task) in grid(ctx).into_iter().filter(|(gk, _, _)| *gk == k) {
            let row = match results.oligopoly_opt(&task)? {
                Some(s) => {
                    let mut row = vec![base, s.aggregates.edge, s.aggregates.cloud];
                    row.extend(&s.revenue);
                    row.extend(&s.profit);
                    row
                }
                None => {
                    let mut row = vec![f64::NAN; 3 + 2 * k];
                    row[0] = base;
                    row
                }
            };
            rows.push(row);
        }
        let mut headers: Vec<String> = vec!["p_c_base".into(), "E".into(), "C".into()];
        headers.extend((0..k).map(|i| format!("rev_{i}")));
        headers.extend((0..k).map(|i| format!("profit_{i}")));
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        tables.push(SweepTable::new(
            format!("Oligopoly price grid (K = {k}): per-provider revenue and profit"),
            &header_refs,
            rows,
        ));
    }
    let mut dyn_rows = Vec::new();
    for (k, task) in dynamics(ctx) {
        let trace = results.trace(&task)?;
        let finals = trace.final_prices();
        let min_cloud = finals[1..].iter().copied().fold(f64::INFINITY, f64::min);
        dyn_rows.push(vec![
            k as f64,
            (trace.rounds.len() - 1) as f64,
            f64::from(u8::from(trace.converged)),
            trace.detect_cycle(1e-2).map_or(0.0, |p| p as f64),
            finals[0],
            min_cloud,
        ]);
    }
    tables.push(SweepTable::new(
        "Oligopoly leader dynamics: K-leader sequential best response",
        &["k", "rounds", "converged", "cycle_period", "final_p_e", "final_min_p_c"],
        dyn_rows,
    ));
    Ok(tables)
}
