//! The executor: fans a compiled [`Plan`] across the parallel substrate
//! and exposes the outputs behind typed, spec-friendly accessors.
//!
//! Execution runs the plan's schedule ([`Plan::groups`]) with
//! [`mbm_par::Pool::par_eval`]: each group runs serially on one worker,
//! and results come back in [`Plan::unique`] order. The pool's
//! determinism contract (index-ordered results, bitwise identical at any
//! thread count), each task's purity and a schedule that is a pure
//! function of the plan make the whole batch thread-count invariant.
//! Per-task telemetry (`exp.task.*` counters and spans, `exp.exec.*`
//! totals) lands on the global recorder when enabled.
//!
//! # Fault tolerance
//!
//! Every task runs inside an [`mbm_faults::scope`] keyed by its canonical
//! identity, so installed fault plans fire on a schedule that is a pure
//! function of the task — independent of thread count, batch composition
//! and execution order. A worker panic (injected or real) is caught by
//! [`mbm_par::catch_quiet`] and isolated to its task: the task records a
//! kind-appropriate failure output and the rest of the batch completes
//! (`exp.exec.panics_isolated` counts them). [`execute_supervised`]
//! additionally applies a [`SolvePolicy`] (deadline, retries, graceful
//! degradation) to every follower solve in the batch.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::collections::HashMap;

use mbm_core::request::Request;
use mbm_core::scenario::ScenarioOutcome;
use mbm_core::solver::{SolvePolicy, SolveReport, SolveWorkspace, ThreadWarmGuard};
use mbm_core::table2::Table2;
use mbm_par::Pool;

use crate::error::EngineError;
use crate::planner::Plan;
use crate::task::{AggregateSummary, OligopolySummary, RaceSummary, Task, TaskKey, TaskOutput};

/// Deterministic per-task fault-scope key: an FNV-style fold of the task's
/// bit-exact canonical key.
fn scope_key(canon: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &w in canon {
        h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Restores the worker thread's solve policy on drop — including during the
/// unwind of an isolated task panic.
struct PolicyGuard(SolvePolicy);

impl PolicyGuard {
    fn set(policy: SolvePolicy) -> Self {
        PolicyGuard(SolveWorkspace::set_thread_policy(policy))
    }
}

impl Drop for PolicyGuard {
    fn drop(&mut self) {
        SolveWorkspace::set_thread_policy(self.0);
    }
}

/// A required task that failed, reported per owning spec by the engine.
#[derive(Debug, Clone)]
pub struct TaskFailure {
    /// Index of the spec that first planned the task.
    pub first_spec: usize,
    /// Task kind label.
    pub kind: &'static str,
    /// Solver error rendering.
    pub error: String,
}

/// Executed outputs keyed by task identity.
#[derive(Debug, Default)]
pub struct TaskResults {
    outputs: HashMap<TaskKey, TaskOutput>,
    /// Solve reports of the market tasks that route through the tiered
    /// follower solver (method used, fallback hops, residuals), keyed like
    /// `outputs`.
    reports: HashMap<TaskKey, SolveReport>,
    /// Required tasks that failed (render-independent; `--check` fails on
    /// any entry).
    pub failures: Vec<TaskFailure>,
}

/// Runs every unique task of the plan on `pool` under the strict
/// (historical) solve policy.
#[must_use]
pub fn execute(plan: &Plan, pool: &Pool) -> TaskResults {
    execute_supervised(plan, pool, SolvePolicy::strict())
}

/// Runs the plan's schedule on `pool`, applying `policy` to every follower
/// solve (deadline, retries, graceful degradation). With
/// [`SolvePolicy::strict`] and the one-task groups of
/// [`crate::planner::plan`] this is the bitwise-historical executor.
///
/// A group of several tasks (a [`Plan::warm`] continuation family) runs
/// with the thread's warm slot engaged, so each solve seeds from its
/// predecessor's equilibrium; outputs agree with the cold schedule within
/// certificate tolerance. Worker panics are isolated per task, and one
/// inside such a group also clears the warm slot, so the rest of the group
/// continues from a cold (deterministic) seed. Task-level injected faults
/// (`exp.task` site) fail the individual task.
#[must_use]
pub fn execute_supervised(plan: &Plan, pool: &Pool, policy: SolvePolicy) -> TaskResults {
    let rec = mbm_obs::global();
    let ran = pool.par_eval(plan.groups.len(), |g| {
        let group = &plan.groups[g];
        let warm = group.len() > 1;
        let _warm = warm.then(ThreadWarmGuard::engage);
        let mut items = Vec::with_capacity(group.len());
        for &i in group {
            let run = mbm_par::catch_quiet(|| run_task(&plan.unique[i].task, policy));
            if warm && run.is_err() {
                // The panic may have unwound mid-solve: drop the
                // half-written warm profile.
                SolveWorkspace::set_thread_warm(true);
            }
            items.push((i, run));
        }
        items
    });
    let mut slots: Vec<Option<_>> = plan.unique.iter().map(|_| None).collect();
    for (i, run) in ran.into_iter().flatten() {
        slots[i] = Some(run);
    }

    let mut results = TaskResults::default();
    for (entry, slot) in plan.unique.iter().zip(slots) {
        let (output, report, panicked) =
            match slot.expect("Plan::groups partitions the unique tasks") {
                Ok((output, report)) => (output, report, false),
                Err(message) => {
                    if rec.enabled() {
                        rec.incr("exp.exec.panics_isolated");
                    }
                    let error = format!("worker panic isolated: {message}");
                    (entry.task.failed_output(&error), None, true)
                }
            };
        if entry.required {
            if let Some(error) = output.error() {
                results.failures.push(TaskFailure {
                    first_spec: entry.first_spec,
                    kind: entry.task.kind(),
                    error: error.to_string(),
                });
            } else if panicked {
                // Scalar kinds NaN-encode failure; a panic there must still
                // register against the owning spec.
                results.failures.push(TaskFailure {
                    first_spec: entry.first_spec,
                    kind: entry.task.kind(),
                    error: "worker panic isolated (NaN-encoded output)".to_string(),
                });
            }
        }
        let key = entry.task.canon();
        if let Some(report) = report {
            if rec.enabled() {
                if report.hops() > 0 {
                    rec.incr("exp.exec.fallback_solves");
                }
                if report.is_degraded() {
                    rec.incr("exp.exec.degraded_solves");
                }
            }
            results.reports.insert(key.clone(), report);
        }
        results.outputs.insert(key, output);
    }
    if rec.enabled() {
        rec.add("exp.exec.failures", results.failures.len() as u64);
        rec.add("exp.exec.reported_solves", results.reports.len() as u64);
    }
    results
}

/// The per-task prologue: the task's fault scope, the batch's solve
/// policy, the `exp.task` probe and the task's telemetry span.
fn run_task(task: &Task, policy: SolvePolicy) -> (TaskOutput, Option<SolveReport>) {
    let _scope = mbm_faults::scope(scope_key(&task.canon()));
    let _policy = PolicyGuard::set(policy);
    if let Some(interrupt) = mbm_faults::probe(mbm_faults::sites::EXP_TASK) {
        // An injected `panic` kind unwinds inside the probe (and is
        // isolated by the caller); every other interrupt fails just this
        // task.
        return (task.failed_output(&format!("injected task fault: {interrupt}")), None);
    }
    let rec = mbm_obs::global();
    if rec.enabled() {
        rec.incr("exp.exec.tasks_run");
        let _span = rec.span(task.span_name());
        task.run_reported()
    } else {
        task.run_reported()
    }
}

impl TaskResults {
    /// Inserts one executed output (used by the naive no-dedup path of the
    /// property tests and benches).
    pub fn insert(&mut self, task: &Task, output: TaskOutput) {
        self.outputs.insert(task.canon(), output);
    }

    /// Raw lookup; `Err` means the spec asked for a task it never planned.
    pub fn output(&self, task: &Task) -> Result<&TaskOutput, EngineError> {
        self.outputs.get(&task.canon()).ok_or(EngineError::MissingTask { kind: task.kind() })
    }

    /// The follower-solver report behind a market task's output, if the
    /// task routes through the tiered solver and succeeded.
    #[must_use]
    pub fn report(&self, task: &Task) -> Option<&SolveReport> {
        self.reports.get(&task.canon())
    }

    /// Every stored solve report (telemetry rendering iterates these).
    #[must_use]
    pub fn reports(&self) -> &HashMap<TaskKey, SolveReport> {
        &self.reports
    }

    /// Number of solves that returned a degraded (best-so-far) answer.
    #[must_use]
    pub fn degraded_count(&self) -> usize {
        self.reports.values().filter(|r| r.is_degraded()).count()
    }

    /// All solve reports in a deterministic order (sorted by canonical task
    /// key), each with the hex rendering of its key and the kind label of
    /// the output it belongs to — the persistence layer serializes these
    /// next to the per-spec tables.
    #[must_use]
    pub fn report_entries(&self) -> Vec<(String, &'static str, &SolveReport)> {
        let mut keys: Vec<&TaskKey> = self.reports.keys().collect();
        keys.sort();
        keys.into_iter()
            .map(|key| {
                let hex: String = key.iter().map(|w| format!("{w:016x}")).collect();
                let kind = self.outputs.get(key).map_or("unknown", TaskOutput::kind);
                (hex, kind, &self.reports[key])
            })
            .collect()
    }

    fn mismatch(wanted: &'static str, got: &TaskOutput) -> EngineError {
        EngineError::KindMismatch { wanted, got: got.kind() }
    }

    fn failed(task: &Task, error: &str) -> EngineError {
        EngineError::TaskFailed { kind: task.kind(), error: error.to_string() }
    }

    /// Symmetric per-miner request; solver failure degrades to `None`.
    pub fn sym_opt(&self, task: &Task) -> Result<Option<Request>, EngineError> {
        match self.output(task)? {
            TaskOutput::Sym(res) => Ok(res.as_ref().ok().copied()),
            other => Err(Self::mismatch("sym", other)),
        }
    }

    /// Symmetric per-miner request of a required task.
    pub fn sym(&self, task: &Task) -> Result<Request, EngineError> {
        match self.output(task)? {
            TaskOutput::Sym(Ok(r)) => Ok(*r),
            TaskOutput::Sym(Err(e)) => Err(Self::failed(task, e)),
            other => Err(Self::mismatch("sym", other)),
        }
    }

    /// Market outcome; solver failure degrades to `None`.
    pub fn market_opt(&self, task: &Task) -> Result<Option<&ScenarioOutcome>, EngineError> {
        match self.output(task)? {
            TaskOutput::Market(res) => Ok(res.as_ref().ok().map(Box::as_ref)),
            other => Err(Self::mismatch("market", other)),
        }
    }

    /// Market outcome of a required task.
    pub fn market(&self, task: &Task) -> Result<&ScenarioOutcome, EngineError> {
        match self.output(task)? {
            TaskOutput::Market(Ok(o)) => Ok(o),
            TaskOutput::Market(Err(e)) => Err(Self::failed(task, e)),
            other => Err(Self::mismatch("market", other)),
        }
    }

    /// A scalar search result (already NaN-encoded on failure).
    pub fn scalar(&self, task: &Task) -> Result<f64, EngineError> {
        match self.output(task)? {
            TaskOutput::Scalar(v) => Ok(*v),
            other => Err(Self::mismatch("scalar", other)),
        }
    }

    /// Aggregate-form NEP summary; solver failure degrades to `None`.
    pub fn aggregate_opt(&self, task: &Task) -> Result<Option<&AggregateSummary>, EngineError> {
        match self.output(task)? {
            TaskOutput::Aggregate(res) => Ok(res.as_ref().ok()),
            other => Err(Self::mismatch("aggregate", other)),
        }
    }

    /// Aggregate-form NEP summary of a required task.
    pub fn aggregate(&self, task: &Task) -> Result<&AggregateSummary, EngineError> {
        match self.output(task)? {
            TaskOutput::Aggregate(Ok(s)) => Ok(s),
            TaskOutput::Aggregate(Err(e)) => Err(Self::failed(task, e)),
            other => Err(Self::mismatch("aggregate", other)),
        }
    }

    /// Table II closed forms; failure degrades to `None`.
    pub fn closed_opt(&self, task: &Task) -> Result<Option<&Table2>, EngineError> {
        match self.output(task)? {
            TaskOutput::Closed(res) => Ok(res.as_ref().ok()),
            other => Err(Self::mismatch("closed_forms", other)),
        }
    }

    /// Standalone closed-form prices `(P_c*, P_e_clearing)` (NaN-encoded).
    pub fn standalone_prices(&self, task: &Task) -> Result<(f64, f64), EngineError> {
        match self.output(task)? {
            TaskOutput::StandalonePrices { cloud, edge } => Ok((*cloud, *edge)),
            other => Err(Self::mismatch("standalone_prices", other)),
        }
    }

    /// Collision PDF of a required task.
    pub fn pdf(&self, task: &Task) -> Result<&mbm_chain_sim::fork::CollisionPdf, EngineError> {
        match self.output(task)? {
            TaskOutput::Pdf(Ok(p)) => Ok(p),
            TaskOutput::Pdf(Err(e)) => Err(Self::failed(task, e)),
            other => Err(Self::mismatch("pdf", other)),
        }
    }

    /// Split-rate curve of a required task.
    pub fn curve(&self, task: &Task) -> Result<&[mbm_chain_sim::fork::ForkPoint], EngineError> {
        match self.output(task)? {
            TaskOutput::Curve(Ok(c)) => Ok(c),
            TaskOutput::Curve(Err(e)) => Err(Self::failed(task, e)),
            other => Err(Self::mismatch("curve", other)),
        }
    }

    /// Best-response `(sweeps, residual)`; failure degrades to `None`.
    pub fn br_opt(&self, task: &Task) -> Result<Option<(usize, f64)>, EngineError> {
        match self.output(task)? {
            TaskOutput::Br(res) => Ok(res.as_ref().ok().copied()),
            other => Err(Self::mismatch("br", other)),
        }
    }

    /// Price-dynamics trace of a required task (Algorithm 1 over two or
    /// more providers).
    pub fn trace(&self, task: &Task) -> Result<&mbm_core::algorithms::PriceTrace, EngineError> {
        match self.output(task)? {
            TaskOutput::Trace(Ok(t)) => Ok(t),
            TaskOutput::Trace(Err(e)) => Err(Self::failed(task, e)),
            other => Err(Self::mismatch("trace", other)),
        }
    }

    /// Mixed price equilibrium of a required task.
    pub fn mixed(
        &self,
        task: &Task,
    ) -> Result<&mbm_core::sp::mixed::MixedPriceEquilibrium, EngineError> {
        match self.output(task)? {
            TaskOutput::Mixed(Ok(m)) => Ok(m),
            TaskOutput::Mixed(Err(e)) => Err(Self::failed(task, e)),
            other => Err(Self::mismatch("mixed", other)),
        }
    }

    /// Learned mean request; failure degrades to `None` (the figures print
    /// NaN markers).
    pub fn learned_opt(&self, task: &Task) -> Result<Option<Request>, EngineError> {
        match self.output(task)? {
            TaskOutput::Learned(res) => Ok(res.as_ref().ok().copied()),
            other => Err(Self::mismatch("learned", other)),
        }
    }

    /// Race summary of a required task.
    pub fn race(&self, task: &Task) -> Result<&RaceSummary, EngineError> {
        match self.output(task)? {
            TaskOutput::Race(Ok(r)) => Ok(r),
            TaskOutput::Race(Err(e)) => Err(Self::failed(task, e)),
            other => Err(Self::mismatch("race", other)),
        }
    }

    /// Oligopoly grid-point summary; solver failure degrades to `None`.
    pub fn oligopoly_opt(&self, task: &Task) -> Result<Option<&OligopolySummary>, EngineError> {
        match self.output(task)? {
            TaskOutput::Oligopoly(res) => Ok(res.as_ref().ok()),
            other => Err(Self::mismatch("oligopoly", other)),
        }
    }

    /// Oligopoly grid-point summary of a required task.
    pub fn oligopoly(&self, task: &Task) -> Result<&OligopolySummary, EngineError> {
        match self.output(task)? {
            TaskOutput::Oligopoly(Ok(s)) => Ok(s),
            TaskOutput::Oligopoly(Err(e)) => Err(Self::failed(task, e)),
            other => Err(Self::mismatch("oligopoly", other)),
        }
    }
}
