//! `sweep-full` and `sweep-replay`: in-process experiment passes.
//!
//! A pass is plan → run every unique task → render, on one thread. Two
//! kinds of pass alternate:
//!
//! - an *executor pass* takes the path `experiments --all` takes: `plan`,
//!   then `executor::execute` on the global one-thread pool, then each
//!   spec's render. `sweep_s` and `throughput_rps` time these passes.
//! - a *task-timed pass* runs each unique task's `Task::run_reported` from
//!   the benchmark, in plan order, so every task can be timed (for
//!   `p50_ms`/`p99_ms`) and, in the traced run, wrapped in a span. The
//!   traced run records spans only around these calls; nothing inside the
//!   program is instrumented.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use mbm_core::params::{MarketParams, Provider};
use mbm_core::scenario::EdgeOperation;
use mbm_core::solver::memo::{self, MemoConfig, MemoGuard, MemoStats};
use mbm_core::stackelberg::StackelbergConfig;
use mbm_core::subgame::SubgameConfig;
use mbm_exp::executor::{execute, TaskResults};
use mbm_exp::market::{baseline_market, BUDGET, N_MINERS};
use mbm_exp::planner::{plan, PlanStats, PlannedTask};
use mbm_exp::{registry, ExperimentResult, ExperimentSpec, SpecCtx, Task};
use mbm_par::Pool;
use mbm_store::{Store, StoreOptions};

use crate::stats::{self, kronecker, Reservoir, Rng, PHI, R2_A, R2_B};
use crate::trace::Trace;
use crate::{Outcome, Run, SETUPS};

/// Tolerance of the traced run's closure check: the share of a traced
/// pass's wall time not covered by its plan, task and render spans.
pub const CLOSURE_TOL: f64 = 0.05;

/// Leader searches per edge mode in the replay batch.
const LEADERS_PER_MODE: usize = 32;
/// K = 3 oligopoly grid points in the replay batch. Each is one memo
/// lookup, so they stay fewer than the leader searches and the median task
/// is a search, not a microsecond hit.
const OLIGOPOLY_POINTS: usize = 32;
const _: () = assert!(2 * LEADERS_PER_MODE > OLIGOPOLY_POINTS);
/// Fewest executor passes in an untraced run, even past `--seconds`.
const MIN_PASSES: usize = 6;
/// Fewest task-timed passes in an untraced run, even past `--seconds`:
/// `p50_ms` and `p99_ms` use the faster half of them, and with the
/// registry's 192 unique tasks six passes put at least ten task samples
/// beyond `p99_ms`.
const MIN_TIMED_PASSES: usize = 12;
/// Untraced task-timed passes kept for `p50_ms`/`p99_ms` (a seeded uniform
/// sample when a run makes more).
const KEPT_PASSES: usize = 64;
/// Appends timed at the default fsync cadence for `store.append_us`.
const APPEND_SAMPLES: usize = 400;

/// What a pass runs and how it renders.
trait Batch {
    /// Per-spec task lists, in render order.
    fn tasks(&self) -> Vec<Vec<PlannedTask>>;
    /// Renders every spec; `Err` is a violated gate of that pass.
    fn render(
        &self,
        results: &TaskResults,
        trace: &mut Option<(&mut Trace, usize)>,
    ) -> Result<String, String>;
}

/// The whole registry at full resolution: `experiments --all`.
struct Registry {
    specs: Vec<ExperimentSpec>,
    ctx: SpecCtx,
}

impl Batch for Registry {
    fn tasks(&self) -> Vec<Vec<PlannedTask>> {
        self.specs.iter().map(|s| (s.tasks)(&self.ctx)).collect()
    }

    fn render(
        &self,
        results: &TaskResults,
        trace: &mut Option<(&mut Trace, usize)>,
    ) -> Result<String, String> {
        let mut out = String::new();
        let mut problems = Vec::new();
        for (i, spec) in self.specs.iter().enumerate() {
            let t0 = Instant::now();
            let tables = (spec.render)(&self.ctx, results);
            if let Some((trace, root)) = trace {
                trace.record("exp.render", Some(*root), i as u64, t0, Instant::now());
            }
            match tables {
                Ok(tables) => {
                    // The `--check` policy: every table has a finite cell.
                    for t in tables.iter().filter(|t| !t.has_finite_cell()) {
                        problems
                            .push(format!("{}: table {:?} has no finite cell", spec.name, t.title));
                    }
                    out.push_str(
                        &ExperimentResult { name: spec.name.to_string(), tables }.render(),
                    );
                }
                Err(e) => problems.push(format!("{}: {e}", spec.name)),
            }
        }
        if problems.is_empty() {
            Ok(out)
        } else {
            Err(problems.join("; "))
        }
    }
}

/// The seeded replay batch: fig8-style leader searches in both edge modes
/// plus K = 3 oligopoly grid points.
struct ReplayBatch {
    tasks: Vec<PlannedTask>,
}

impl ReplayBatch {
    fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed, 1_000);
        let mut tasks = Vec::new();
        for op in [EdgeOperation::Connected, EdgeOperation::Standalone] {
            // Every seed runs the same (miner count, cost, budget level)
            // triples; the seed only moves each budget within its level. A
            // search's lookup count follows its cost and budget, and a
            // hit's re-check cost follows N, so drawing any of them freely
            // would make pass time a property of the seed. Costs are
            // stratified over [6, 10), where the leader game has a pure
            // equilibrium; the levels are a fixed permutation of 32
            // stratified levels over [150, 250].
            for k in 0..LEADERS_PER_MODE {
                let n = 3 + k % 5;
                let level = (13 * k) % LEADERS_PER_MODE;
                #[allow(clippy::cast_precision_loss)]
                let (c_e, budget) = (
                    6.0 + 4.0 * (k as f64 + 0.5) / LEADERS_PER_MODE as f64,
                    BUDGET * (0.75 + 0.5 * (level as f64 + rng.unit()) / LEADERS_PER_MODE as f64),
                );
                let params = MarketParams::builder()
                    .reward(100.0)
                    .fork_rate(0.2)
                    .edge_availability(0.8)
                    .esp(Provider::new(c_e, 15.0).expect("valid edge provider"))
                    .csp(Provider::new(1.0, 8.0).expect("valid cloud provider"))
                    .e_max(5.0)
                    .build()
                    .expect("valid market");
                // One budget per search, as in Fig. 8: the leader re-solves
                // a cheap follower game at every price move, so the memo's
                // per-hit cost is what the pass measures.
                let budgets = vec![budget; n];
                tasks.push(PlannedTask::required(Task::Leader {
                    op,
                    params,
                    budgets,
                    cfg: StackelbergConfig::default(),
                }));
            }
        }
        // The grid points' prices and budgets follow Kronecker sequences
        // whose offsets the seed moves only slightly, so every seed's
        // points cover the same ranges evenly and cost the same to solve.
        let offsets: [f64; 3] = std::array::from_fn(|k| stats::seeded_offset(&mut rng, k as u64));
        for j in 0..OLIGOPOLY_POINTS as u64 {
            let base = 1.5 + 3.0 * kronecker(offsets[1], j, R2_B);
            tasks.push(PlannedTask::required(Task::OligopolyNep {
                op: EdgeOperation::Connected,
                params: baseline_market(),
                cloud_costs: vec![1.0, 1.4],
                prices: vec![3.0 + 3.0 * kronecker(offsets[0], j, R2_A), base, base + 0.5],
                budget: BUDGET * (0.75 + 0.5 * kronecker(offsets[2], j, PHI)),
                n: N_MINERS,
                cfg: SubgameConfig::default(),
            }));
        }
        ReplayBatch { tasks }
    }
}

impl Batch for ReplayBatch {
    fn tasks(&self) -> Vec<Vec<PlannedTask>> {
        vec![self.tasks.clone()]
    }

    fn render(
        &self,
        results: &TaskResults,
        trace: &mut Option<(&mut Trace, usize)>,
    ) -> Result<String, String> {
        let t0 = Instant::now();
        let mut out = String::new();
        let mut result = Ok(());
        for planned in &self.tasks {
            // Debug formatting prints every f64 in shortest round-trip
            // form, so equal strings mean bitwise-equal outputs.
            match results.output(&planned.task) {
                Ok(output) => {
                    if let Some(e) = output.error() {
                        result = Err(format!("{} failed: {e}", planned.task.kind()));
                    }
                    let _ = writeln!(out, "{output:?}");
                }
                Err(e) => result = Err(e.to_string()),
            }
        }
        if let Some((trace, root)) = trace {
            trace.record("exp.render", Some(*root), 0, t0, Instant::now());
        }
        result.map(|()| out)
    }
}

/// One executed pass.
struct Pass {
    wall: f64,
    /// Unique tasks run.
    tasks: usize,
    /// Wall time of each task, in plan order (task-timed passes only).
    task_secs: Vec<f64>,
    rendered: Result<String, String>,
    /// Required tasks whose output is an error.
    failures: Vec<String>,
    memo: MemoStats,
}

fn memo_delta(before: MemoStats, after: MemoStats) -> MemoStats {
    MemoStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        rejected: after.rejected - before.rejected,
        appends: after.appends - before.appends,
        append_errors: after.append_errors - before.append_errors,
        skipped: after.skipped - before.skipped,
        collisions: after.collisions - before.collisions,
    }
}

/// Runs one executor pass: `plan`, `executor::execute` on the global
/// (one-thread) pool, render, the path `experiments --all` takes.
fn executor_pass(batch: &dyn Batch) -> Pass {
    let memo_before = memo::stats();
    let t0 = Instant::now();
    let compiled = plan(&batch.tasks());
    let results = execute(&compiled, Pool::global());
    let rendered = batch.render(&results, &mut None);
    let wall = t0.elapsed().as_secs_f64();
    let failures = results
        .failures
        .iter()
        .map(|f| format!("required {} task failed: {}", f.kind, f.error))
        .collect();
    Pass {
        wall,
        tasks: compiled.unique.len(),
        task_secs: Vec::new(),
        rendered,
        failures,
        memo: memo_delta(memo_before, memo::stats()),
    }
}

/// Runs one task-timed pass; with `trace`, records a `sweep.pass` root
/// span (id `pass_id`) with plan, per-task and render children.
fn task_timed_pass(batch: &dyn Batch, trace: Option<&mut Trace>, pass_id: u64) -> Pass {
    let memo_before = memo::stats();
    let t0 = Instant::now();
    let mut trace = trace.map(|t| {
        let root = t.record("sweep.pass", None, pass_id, t0, t0);
        (t, root)
    });
    let compiled = plan(&batch.tasks());
    let t1 = Instant::now();
    if let Some((t, root)) = &mut trace {
        t.record("exp.plan", Some(*root), pass_id, t0, t1);
    }
    let mut results = TaskResults::default();
    let mut task_secs = Vec::with_capacity(compiled.unique.len());
    let mut failures = Vec::new();
    for (i, entry) in compiled.unique.iter().enumerate() {
        let ts = Instant::now();
        let (output, _report) = std::hint::black_box(entry.task.run_reported());
        let te = Instant::now();
        task_secs.push((te - ts).as_secs_f64());
        if let Some((t, root)) = &mut trace {
            t.record(entry.task.span_name(), Some(*root), i as u64, ts, te);
        }
        if entry.required {
            if let Some(e) = output.error() {
                failures.push(format!("required {} task failed: {e}", entry.task.kind()));
            }
        }
        results.insert(&entry.task, output);
    }
    let rendered = batch.render(&results, &mut trace);
    let wall = t0.elapsed().as_secs_f64();
    if let Some((t, root)) = trace {
        t.close(root);
    }
    Pass {
        wall,
        tasks: task_secs.len(),
        task_secs,
        rendered,
        failures,
        memo: memo_delta(memo_before, memo::stats()),
    }
}

/// Gates of one pass against the reference rendering: one operation per
/// task (required tasks succeed) and one for the pass (tables render,
/// pass the `--check` policy, and are byte-identical to the reference).
fn check_pass(out: &mut Outcome, pass: &Pass, reference: &str, what: &str) {
    for failure in &pass.failures {
        out.gates.op(Some(format!("{what}: {failure}")));
    }
    for _ in pass.failures.len()..pass.tasks {
        out.gates.op(None);
    }
    let problem = match &pass.rendered {
        Err(e) => Some(format!("{what}: {e}")),
        Ok(tables) if tables != reference => {
            Some(format!("{what}: tables differ from the reference"))
        }
        Ok(_) => None,
    };
    out.gates.op(problem);
}

/// End-to-end metrics of the untraced passes.
///
/// Every task-timed pass runs the same tasks, so a pass that takes longer
/// than its neighbours lost time to the machine, not to the program: in a
/// replay pass of half a millisecond tasks, a burst of host slowness
/// stretches nearly every task by half. `p50_ms` and `p99_ms` therefore
/// pool the task times of the faster half of the kept passes.
fn task_metrics(out: &mut Outcome, m: &Measured) {
    let walls: Vec<f64> = m.tasks.items().iter().map(|p| p.0).collect();
    let cut = stats::median(&walls).unwrap_or(0.0);
    let kept: Vec<&(f64, Vec<f64>)> = m.tasks.items().iter().filter(|p| p.0 <= cut).collect();
    let ms: Vec<f64> = kept.iter().flat_map(|p| &p.1).map(|s| s * 1e3).collect();
    println!(
        "perfbench: task latency samples={} from the faster {} of {} sampled task-timed passes",
        ms.len(),
        kept.len(),
        walls.len()
    );
    out.set("p50_ms", stats::median(&ms).unwrap_or(0.0));
    match stats::tail_quantile(&ms, 0.99) {
        Some(v) => out.set("p99_ms", v),
        None => out.errors.push(format!("p99 unsupported by {} task samples", ms.len())),
    }
    #[allow(clippy::cast_precision_loss)]
    out.set("throughput_rps", m.task_count as f64 / m.walls.iter().sum::<f64>());
    out.set("sweep_s", stats::median(&m.walls).unwrap_or(0.0));
}

/// Plans the batch once and prints the workload identity: a change to what
/// the sweep computes shows here as a different task count or digest of
/// the planned task keys, not as a speed-up.
fn identity(name: &str, batch: &dyn Batch) -> PlanStats {
    let compiled = plan(&batch.tasks());
    let keys: Vec<Vec<u64>> = compiled.unique.iter().map(|u| u.task.canon()).collect();
    println!(
        "perfbench: {name} identity tasks_requested={} tasks_unique={} key_digest={:016x}",
        compiled.stats.requested,
        compiled.stats.unique,
        stats::digest(keys.iter().map(Vec::as_slice))
    );
    compiled.stats
}

/// What the measured passes leave behind: a few numbers per pass, so the
/// harness's memory does not grow with the pass count.
struct Measured {
    /// Wall time of every executor pass.
    walls: Vec<f64>,
    /// Tasks run by all executor passes.
    task_count: usize,
    /// Wall and task times of a seeded uniform sample of the untraced
    /// task-timed passes.
    tasks: Reservoir<(f64, Vec<f64>)>,
    /// Untraced task-timed passes run.
    timed: usize,
    /// Wall time and root span of every traced pass.
    traced: Vec<(f64, usize)>,
}

/// Runs measured passes until `seconds` elapse (and, untraced, at least
/// [`MIN_PASSES`] executor and [`MIN_TIMED_PASSES`] task-timed ones). Each
/// executor pass is followed by two task-timed passes, traced in the
/// traced run, so the trace overhead compares neighbours. With
/// `all_hits`, every pass must be served entirely from the memo.
fn measure(
    run: &Run,
    batch: &dyn Batch,
    reference: &str,
    all_hits: bool,
    out: &mut Outcome,
    trace: &mut Trace,
) -> Measured {
    let t0 = Instant::now();
    let mut m = Measured {
        walls: Vec::new(),
        task_count: 0,
        tasks: Reservoir::new(KEPT_PASSES, run.seed),
        timed: 0,
        traced: Vec::new(),
    };
    let (min, min_timed) = if run.traced { (1, 1) } else { (MIN_PASSES, MIN_TIMED_PASSES) };
    let mut k = 0u64;
    while stats::secs(t0) < run.seconds
        || m.walls.len() < min
        || m.timed + m.traced.len() < min_timed
    {
        let on_executor = k.is_multiple_of(3);
        let (pass, what) = if on_executor {
            (executor_pass(batch), "executor pass")
        } else if run.traced {
            let root = trace.spans().len();
            let pass = task_timed_pass(batch, Some(&mut *trace), k);
            m.traced.push((pass.wall, root));
            (pass, "traced pass")
        } else {
            (task_timed_pass(batch, None, k), "task-timed pass")
        };
        check_pass(out, &pass, reference, what);
        if all_hits {
            check_all_hits(out, &pass.memo);
        }
        if on_executor {
            m.walls.push(pass.wall);
            m.task_count += pass.tasks;
        } else if !run.traced {
            m.timed += 1;
            m.tasks.offer((pass.wall, pass.task_secs));
        }
        k += 1;
    }
    m
}

/// The replay gate: a pass is all hits (`misses` = `rejected` = 0).
fn check_all_hits(out: &mut Outcome, m: &MemoStats) {
    out.gates.op((m.hits == 0 || m.misses != 0 || m.rejected != 0).then(|| {
        format!(
            "replay pass not all hits: hits={} misses={} rejected={}",
            m.hits, m.misses, m.rejected
        )
    }));
}

/// Per-layer numbers from the traced passes: medians over passes of each
/// pass's plan, render and per-kind task self times.
fn pass_layers(out: &mut Outcome, trace: &Trace, plan_stats: &PlanStats, m: &Measured) {
    let by_root = trace.self_time_by_root();
    let mut per_kind: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let (mut plans, mut renders, mut unaccounted) = (Vec::new(), Vec::new(), Vec::new());
    for (_, root) in &m.traced {
        let by_name = &by_root[root];
        for (name, secs) in by_name {
            if name.starts_with("exp.task.") {
                per_kind.entry(*name).or_default().push(*secs);
            }
        }
        plans.push(by_name.get("exp.plan").copied().unwrap_or(0.0) * 1e3);
        renders.push(by_name.get("exp.render").copied().unwrap_or(0.0) * 1e3);
        let pass_self = by_name.get("sweep.pass").copied().unwrap_or(0.0);
        unaccounted.push(pass_self / trace.spans()[*root].duration());
    }
    for (name, secs) in per_kind {
        out.set(format!("{name}.busy_s"), stats::median(&secs).unwrap_or(0.0));
    }
    out.set("exp.plan_ms", stats::median(&plans).unwrap_or(0.0));
    out.set("exp.render_ms", stats::median(&renders).unwrap_or(0.0));
    let frac = stats::median(&unaccounted).unwrap_or(1.0);
    out.set("trace.unaccounted_frac", frac);
    out.gates.op((frac.abs() > CLOSURE_TOL).then(|| {
        format!(
            "closure: {:.1}% of a traced pass is outside the plan, task and render spans",
            100.0 * frac
        )
    }));
    // The traced run against the untraced one: traced task-timed passes
    // against the executor passes that untraced runs time.
    let traced_walls: Vec<f64> = m.traced.iter().map(|t| t.0).collect();
    let (plain_wall, traced_wall) = (stats::median(&m.walls), stats::median(&traced_walls));
    out.set(
        "trace.overhead_pct",
        100.0 * (traced_wall.unwrap_or(0.0) / plain_wall.unwrap_or(1.0) - 1.0),
    );
    #[allow(clippy::cast_precision_loss)]
    {
        out.set("exp.plan.tasks_requested", plan_stats.requested as f64);
        out.set("exp.plan.tasks_unique", plan_stats.unique as f64);
        out.set("env.samples", (plan_stats.unique * m.traced.len()) as f64);
    }
}

fn write_trace(run: &Run, name: &str, trace: &Trace) -> Result<(), String> {
    let path = run.work_dir.join(format!("trace-{name}-{}.jsonl", run.seed));
    trace.write(&path).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("perfbench: spans written to {} ({} spans)", path.display(), trace.spans().len());
    Ok(())
}

/// Entry point of `sweep-full`.
pub fn run_full(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut last = None;
    for k in 0..SETUPS {
        let t0 = if k == 0 { run.started } else { Instant::now() };
        let batch = Registry { specs: registry(), ctx: SpecCtx::full() };
        let warm = executor_pass(&batch);
        setups.push(stats::secs(t0));
        last = Some((batch, warm));
    }
    let (batch, warm) = last.expect("at least one set-up");
    out.set("setup_s", stats::median(&setups).unwrap_or(0.0));
    let reference = match &warm.rendered {
        Ok(r) => r.clone(),
        Err(e) => {
            out.errors.push(format!("warm-up pass: {e}"));
            String::new()
        }
    };
    check_pass(&mut out, &warm, &reference, "warm-up pass");
    let plan_stats = identity("sweep-full", &batch);

    let mut trace = Trace::new(Instant::now());
    let m = measure(run, &batch, &reference, false, &mut out, &mut trace);
    println!(
        "perfbench: sweep-full executor_passes={} task_timed_passes={} pool_threads=1",
        m.walls.len(),
        m.timed + m.traced.len(),
    );
    if run.traced {
        pass_layers(&mut out, &trace, &plan_stats, &m);
        if let Err(e) = write_trace(run, "sweep-full", &trace) {
            out.errors.push(e);
        }
    } else {
        task_metrics(&mut out, &m);
    }
    out
}

/// Installs the store at `path` as the process memo with the residual
/// golden check.
fn install(path: &Path, opts: StoreOptions) -> Result<(MemoGuard, usize, f64), String> {
    let t0 = Instant::now();
    let (guard, summary) = memo::open_and_install(path, MemoConfig::default(), opts)
        .map_err(|e| format!("open store {}: {e}", path.display()))?;
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    if let Some(d) = summary.diagnosis {
        return Err(format!("store {} needed recovery: {d}", path.display()));
    }
    Ok((guard, summary.records, ms))
}

/// Mean cost of one append at the default fsync cadence, over records
/// copied from the populated store into a scratch store.
fn append_cost(populated: &Path, probe: &Path) -> Result<f64, String> {
    let (source, _) = Store::open(populated, StoreOptions::default()).map_err(|e| e.to_string())?;
    let records: Vec<(Vec<u64>, Vec<u8>)> =
        source.iter().take(APPEND_SAMPLES).map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
    drop(source);
    let _ = std::fs::remove_file(probe);
    let (mut sink, _) = Store::open(probe, StoreOptions::default()).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    for (key, payload) in &records {
        sink.append(key, payload).map_err(|e| e.to_string())?;
    }
    let secs = t0.elapsed().as_secs_f64();
    drop(sink);
    let _ = std::fs::remove_file(probe);
    #[allow(clippy::cast_precision_loss)]
    let us = secs * 1e6 / records.len().max(1) as f64;
    Ok(us)
}

/// Entry point of `sweep-replay`.
pub fn run_replay(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = replay(run, &mut out) {
        out.errors.push(e);
    }
    out
}

#[allow(clippy::too_many_lines)]
fn replay(run: &Run, out: &mut Outcome) -> Result<(), String> {
    let path: PathBuf = run.work_dir.join(format!("replay-{}.store", run.seed));
    let batch = ReplayBatch::new(run.seed);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut populate_s = Vec::with_capacity(SETUPS);
    let mut state = None;
    for k in 0..SETUPS {
        let t0 = if k == 0 { run.started } else { Instant::now() };
        drop(state.take());
        let _ = std::fs::remove_file(&path);
        // Populate with fsync deferred to the final flush: at the default
        // cadence every append pays an fsync and set-up would measure the
        // disk. The default cadence is sampled separately as
        // `store.append_us`.
        let relaxed = StoreOptions { sync_every: u32::MAX, ..StoreOptions::default() };
        let (guard, _, _) = install(&path, relaxed)?;
        let cold = executor_pass(&batch);
        drop(guard);
        populate_s.push(cold.wall);
        let reference = cold.rendered.clone().map_err(|e| format!("populate pass: {e}"))?;
        check_pass(out, &cold, &reference, "populate pass");
        let (guard, records, open_ms) = install(&path, StoreOptions::default())?;
        let warm = executor_pass(&batch);
        check_pass(out, &warm, &reference, "warm-up replay");
        check_all_hits(out, &warm.memo);
        setups.push(stats::secs(t0));
        state = Some((guard, records, open_ms, reference, cold, warm));
    }
    let (mut guard, mut records, mut open_ms, reference, cold, warm) =
        state.ok_or("no set-up ran")?;
    out.set("setup_s", stats::median(&setups).unwrap_or(0.0));
    let plan_stats = identity("sweep-replay", &batch);
    println!(
        "perfbench: sweep-replay seed={} tasks={} leaders={} oligopoly_k3={} records={records} \
         populate_lookups={}",
        run.seed,
        batch.tasks.len(),
        2 * LEADERS_PER_MODE,
        OLIGOPOLY_POINTS,
        cold.memo.hits + cold.memo.misses
    );

    let mut trace = Trace::new(Instant::now());
    let mut cold_pass = None;
    if run.traced {
        // A pass with no memo at all, for `solver.cold_us`; then the
        // default-cadence append probe, then the reopen that serves the
        // measured passes.
        drop(guard);
        let t0 = Instant::now();
        let p = executor_pass(&batch);
        trace.record("sweep.cold_pass", None, 0, t0, Instant::now());
        check_pass(out, &p, &reference, "cold pass");
        cold_pass = Some(p);
        out.set("store.append_us", append_cost(&path, &run.work_dir.join("append-probe.store"))?);
        let t1 = Instant::now();
        (guard, records, open_ms) = install(&path, StoreOptions::default())?;
        trace.record("store.open_and_install", None, 0, t1, Instant::now());
    }

    let m = measure(run, &batch, &reference, true, out, &mut trace);
    println!(
        "perfbench: sweep-replay executor_passes={} task_timed_passes={} hits_per_pass={} \
         pool_threads=1",
        m.walls.len(),
        m.timed + m.traced.len(),
        warm.memo.hits
    );
    drop(guard);

    if run.traced {
        pass_layers(out, &trace, &plan_stats, &m);
        let size = std::fs::metadata(&path).map_or(0, |m| m.len());
        #[allow(clippy::cast_precision_loss)]
        {
            out.set("store.file_mb", size as f64 / (1024.0 * 1024.0));
            out.set("store.records", records as f64);
            out.set("memo.hits", warm.memo.hits as f64);
            out.set("memo.misses", warm.memo.misses as f64);
            out.set("memo.rejected", warm.memo.rejected as f64);
            out.set("memo.hit_ratio", warm.memo.hit_rate());
        }
        out.set("store.open_ms", open_ms);
        out.set("store.populate_s", stats::median(&populate_s).unwrap_or(0.0));
        let replay_wall = stats::median(&m.walls).unwrap_or(0.0);
        #[allow(clippy::cast_precision_loss)]
        let lookups = warm.memo.hits.max(1) as f64;
        out.set("memo.hit_us", replay_wall * 1e6 / lookups);
        if let Some(p) = cold_pass {
            out.set("solver.cold_us", p.wall * 1e6 / lookups);
        }
        write_trace(run, "sweep-replay", &trace)?;
    } else {
        task_metrics(out, &m);
    }
    let _ = std::fs::remove_file(&path);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Miner count, edge cost and budget of every leader search.
    fn leader_costs(batch: &ReplayBatch) -> Vec<(usize, f64, f64)> {
        batch
            .tasks
            .iter()
            .filter_map(|t| match &t.task {
                Task::Leader { params, budgets, .. } => {
                    Some((budgets.len(), params.esp().cost(), budgets[0]))
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn replay_seeds_move_budgets_only_within_their_level() {
        let (a, b) = (ReplayBatch::new(3), ReplayBatch::new(4));
        assert_eq!(a.tasks.len(), 2 * LEADERS_PER_MODE + OLIGOPOLY_POINTS);
        let (la, lb) = (leader_costs(&a), leader_costs(&b));
        assert_eq!(la.len(), 2 * LEADERS_PER_MODE);
        #[allow(clippy::cast_precision_loss)]
        let width = 0.5 * BUDGET / LEADERS_PER_MODE as f64;
        let level = |budget: f64| ((budget - 0.75 * BUDGET) / width).floor();
        for (x, y) in la.iter().zip(&lb) {
            assert_eq!((x.0, x.1.to_bits()), (y.0, y.1.to_bits()));
            assert_eq!(level(x.2).to_bits(), level(y.2).to_bits());
        }
        assert!(
            la.iter().zip(&lb).any(|(x, y)| x.2.to_bits() != y.2.to_bits()),
            "the seed moves the budgets"
        );
    }
}
