//! The engine facade: plan a batch of specs, execute it once, render all.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use mbm_core::solver::{SolvePolicy, SolveReport};
use mbm_par::Pool;
use serde::Serialize;

use crate::error::EngineError;
use crate::executor::{execute, execute_supervised, TaskFailure, TaskResults};
use crate::planner::{plan, PlanStats, PlannedTask};
use crate::spec::{ExperimentSpec, SpecCtx};
use crate::table::ExperimentResult;

/// One persisted solve report with its task identity: what the runner
/// serializes to `reports.json` next to the per-spec tables.
#[derive(Debug, Clone, Serialize)]
pub struct BatchReport {
    /// Hex rendering of the task's bit-exact canonical key.
    pub key: String,
    /// Output kind label of the owning task.
    pub task: String,
    /// Whether the solve returned a degraded (best-so-far) answer.
    pub degraded: bool,
    /// The full follower-solver report.
    pub report: SolveReport,
}

/// One executed batch: per-spec results in registry order plus the plan's
/// dedup accounting, any required-task failures and the specs that did not
/// render.
#[derive(Debug)]
pub struct Batch {
    /// Rendered results, in input order, one per spec that rendered.
    pub results: Vec<ExperimentResult>,
    /// Specs that could not render, in input order, with the render error
    /// ([`EngineError::TaskFailed`] when a required solve failed — that
    /// failure is also in `failures`).
    pub unrendered: Vec<(String, EngineError)>,
    /// Dedup accounting of the shared plan.
    pub stats: PlanStats,
    /// Required tasks that failed, annotated with the owning spec's name.
    pub failures: Vec<(String, TaskFailure)>,
    /// Every follower-solve report of the batch, in deterministic
    /// (sorted-key) order; degraded entries flag best-so-far answers.
    pub reports: Vec<BatchReport>,
}

impl Batch {
    /// Number of solves in the batch that degraded to best-so-far answers.
    #[must_use]
    pub fn degraded_count(&self) -> usize {
        self.reports.iter().filter(|r| r.degraded).count()
    }
}

/// Plans all `specs` together (one shared dedup space), executes the
/// unique batch on `pool` under `policy` (per-solve deadlines,
/// retry-with-backoff and graceful degradation for every follower solve;
/// [`SolvePolicy::strict`] is the bitwise-historical policy), and renders
/// every spec. With `warm`, the batch runs the continuation schedule of
/// [`crate::planner::Plan::warm`].
///
/// A spec that cannot render lands in [`Batch::unrendered`] and the rest
/// of the batch still renders. Solver failures of *tolerant* tasks are not
/// render errors — they render as NaN or skipped rows, exactly like the
/// legacy drivers.
#[must_use]
pub fn run_batch(
    specs: &[ExperimentSpec],
    ctx: &SpecCtx,
    pool: &Pool,
    policy: SolvePolicy,
    warm: bool,
) -> Batch {
    let spec_tasks: Vec<Vec<PlannedTask>> = specs.iter().map(|s| (s.tasks)(ctx)).collect();
    let compiled = plan(&spec_tasks);
    let compiled = if warm { compiled.warm() } else { compiled };
    let results = execute_supervised(&compiled, pool, policy);
    let failures = results
        .failures
        .iter()
        .map(|f| (specs[f.first_spec].name.to_string(), f.clone()))
        .collect();
    let reports = results
        .report_entries()
        .into_iter()
        .map(|(key, task, report)| BatchReport {
            key,
            task: task.to_string(),
            degraded: report.is_degraded(),
            report: report.clone(),
        })
        .collect();
    let mut rendered = Vec::with_capacity(specs.len());
    let mut unrendered = Vec::new();
    for spec in specs {
        let name = spec.name.to_string();
        match (spec.render)(ctx, &results) {
            Ok(tables) => rendered.push(ExperimentResult { name, tables }),
            Err(e) => unrendered.push((name, e)),
        }
    }
    Batch { results: rendered, unrendered, stats: compiled.stats, failures, reports }
}

/// Plans and executes a bare task list (no spec/render layer) — the entry
/// point the integration tests and benches use to run one-off tasks
/// through the same dedup + fan-out machinery.
#[must_use]
pub fn run_tasks(tasks: &[PlannedTask], pool: &Pool) -> TaskResults {
    execute(&plan(&[tasks.to_vec()]), pool)
}
