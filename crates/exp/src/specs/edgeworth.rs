//! EXP-EDG — the Edgeworth price cycle (reproduction finding; see DESIGN.md
//! §2 and the Fig. 8 notes in EXPERIMENTS.md).
//!
//! At the baseline costs (`C_e = 2 < ` CSP stationary price) the leader game
//! has no pure equilibrium. This experiment (1) traces Algorithm 1 and
//! detects the cycle, and (2) computes the mixed-strategy prediction via
//! regret matching on the discretized price game.

use mbm_core::params::Prices;
use mbm_core::scenario::EdgeOperation;

use crate::error::EngineError;
use crate::executor::TaskResults;
use crate::market::{baseline_market, BUDGET, N_MINERS};
use crate::planner::PlannedTask;
use crate::spec::{ExperimentSpec, SpecCtx};
use crate::table::SweepTable;
use crate::task::Task;

/// The Edgeworth-cycle spec.
#[must_use]
pub fn spec() -> ExperimentSpec {
    ExperimentSpec {
        name: "edgeworth",
        summary: "Algorithm 1 price cycle trace + mixed-strategy prediction",
        tasks,
        render,
    }
}

fn trace_task() -> Task {
    Task::Algorithm1 {
        params: baseline_market(),
        op: EdgeOperation::Connected,
        budget: BUDGET,
        n: N_MINERS,
        init: Prices::new(6.0, 3.0).expect("valid prices"),
        max_rounds: 30,
    }
}

fn mixed_task(ctx: &SpecCtx) -> Task {
    Task::MixedPricing {
        params: baseline_market(),
        op: EdgeOperation::Connected,
        budget: BUDGET,
        n: N_MINERS,
        grid_points: 12,
        iterations: ctx.pick(150_000, 20_000),
    }
}

fn tasks(ctx: &SpecCtx) -> Vec<PlannedTask> {
    vec![PlannedTask::required(trace_task()), PlannedTask::required(mixed_task(ctx))]
}

fn render(ctx: &SpecCtx, results: &TaskResults) -> Result<Vec<SweepTable>, EngineError> {
    let trace = results.trace(&trace_task())?;
    let rows: Vec<Vec<f64>> = trace
        .rounds
        .iter()
        .enumerate()
        .map(|(k, r)| vec![k as f64, r.prices[0], r.prices[1], r.profits[0], r.profits[1]])
        .collect();
    let note = match trace.detect_cycle(0.05) {
        Some(p) => {
            format!("# detected price cycle of period {p}; converged = {}", trace.converged)
        }
        None => format!("# no cycle detected; converged = {}", trace.converged),
    };
    let cycle = SweepTable::new(
        "Edgeworth cycle: Algorithm 1 price trajectory (C_e = 2, caps 10/8)",
        &["round", "P_e", "P_c", "V_e", "V_c"],
        rows,
    )
    .with_note(note);

    let mixed = results.mixed(&mixed_task(ctx))?;
    let rows: Vec<Vec<f64>> =
        mixed.edge_grid.iter().zip(&mixed.edge_strategy).map(|(&p, &w)| vec![p, w]).collect();
    let esp = SweepTable::new(
        "ESP mixed price strategy (time-average of regret matching)",
        &["P_e", "mass"],
        rows,
    );
    let rows: Vec<Vec<f64>> =
        mixed.cloud_grid.iter().zip(&mixed.cloud_strategy).map(|(&p, &w)| vec![p, w]).collect();
    let csp = SweepTable::new("CSP mixed price strategy", &["P_c", "mass"], rows);
    let summary = SweepTable::new(
        "Mixed-equilibrium summary",
        &["mean_P_e", "mean_P_c", "exploit_esp", "exploit_csp", "has_pure_ne"],
        vec![vec![
            mixed.mean_prices.edge,
            mixed.mean_prices.cloud,
            mixed.exploitability.0,
            mixed.exploitability.1,
            if mixed.has_pure_equilibrium { 1.0 } else { 0.0 },
        ]],
    );
    Ok(vec![cycle, esp, csp, summary])
}
