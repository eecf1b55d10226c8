//! Executor-level fault tolerance: injected-fault schedules are a pure
//! function of the task (not of thread count or batch layout), worker
//! panics never escape the pool, and degraded solves surface in the
//! persisted reports.
//!
//! Fault plans are process-global, so the tests serialize on a local mutex
//! and live in their own integration binary.

use std::sync::Mutex;

use mbm_core::params::Prices;
use mbm_core::scenario::EdgeOperation;
use mbm_core::solver::SolvePolicy;
use mbm_core::subgame::dynamic::DynamicConfig;
use mbm_core::subgame::SubgameConfig;
use mbm_exp::executor::{execute_supervised, TaskResults};
use mbm_exp::market::{baseline_market, BUDGET, N_MINERS};
use mbm_exp::planner::{plan, PlannedTask};
use mbm_exp::Task;
use mbm_par::Pool;

static LOCK: Mutex<()> = Mutex::new(());

fn sym(k: u64) -> Task {
    Task::SymSubgame {
        op: EdgeOperation::Connected,
        params: baseline_market(),
        prices: Prices::new(4.0, 1.5 + 0.25 * k as f64).unwrap(),
        budget: BUDGET,
        n: N_MINERS,
        cfg: SubgameConfig::default(),
    }
}

fn batch(len: u64) -> Vec<PlannedTask> {
    (0..len).map(|k| PlannedTask::tolerant(sym(k))).collect()
}

/// Runs the batch once under `spec` on a pool of `threads` workers and
/// returns a bitwise-faithful fingerprint of every output and every report
/// (`f64`'s `Debug` is the shortest round-tripping string, so distinct bit
/// patterns render distinctly).
fn run_fingerprint(tasks: &[PlannedTask], spec: &str, threads: usize) -> String {
    let fault_plan = mbm_faults::FaultPlan::parse(spec).expect("test plan parses");
    let _guard = mbm_faults::install(fault_plan);
    let compiled = plan(&[tasks.to_vec()]);
    let results: TaskResults =
        execute_supervised(&compiled, &Pool::new(threads), SolvePolicy::resilient(None));
    let mut out = String::new();
    for planned in tasks {
        out.push_str(&format!("{:?}\n", results.output(&planned.task).expect("planned")));
    }
    for (key, kind, report) in results.report_entries() {
        out.push_str(&format!("{key} {kind} {report:?}\n"));
    }
    out
}

/// Same seed, same tasks ⇒ bitwise-identical outputs and solve reports on
/// 1, 2 and 8 worker threads: the injection schedule is keyed by the task's
/// canonical identity, not by which worker ran it.
#[test]
fn fault_schedules_are_thread_count_invariant() {
    let _serial = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let tasks = batch(8);
    let spec = "seed=11;core.solver.symmetric_fp:misconverge@2;numerics.vi.extragradient:nan@5";

    mbm_faults::reset_tally();
    let reference = run_fingerprint(&tasks, spec, 1);
    let tally = mbm_faults::injection_tally();
    assert!(
        tally.keys().any(|k| k.starts_with("core.solver.symmetric_fp")),
        "plan never fired; tally = {tally:?}"
    );
    for threads in [2usize, 8] {
        assert_eq!(
            run_fingerprint(&tasks, spec, threads),
            reference,
            "schedule diverged at {threads} threads"
        );
    }
}

/// An always-on misconvergence plan at every iterative kernel exhausts every
/// chain; under a best-effort policy each task still terminates with a
/// best-so-far answer and its report says `Degraded`.
#[test]
fn exhausted_batch_degrades_instead_of_failing() {
    let _serial = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let spec = "seed=5;core.solver.symmetric_fp:misconverge@1;\
                game.br_dynamics:misconverge@1;numerics.vi.extragradient:misconverge@1";
    let fault_plan = mbm_faults::FaultPlan::parse(spec).expect("test plan parses");
    let _guard = mbm_faults::install(fault_plan);

    let tasks = batch(4);
    let compiled = plan(&[tasks.to_vec()]);
    let results = execute_supervised(&compiled, &Pool::new(2), SolvePolicy::resilient(None));

    assert_eq!(results.degraded_count(), tasks.len());
    for planned in &tasks {
        let r = results
            .sym_opt(&planned.task)
            .expect("planned")
            .expect("degraded answer still fills the output");
        assert!(r.edge.is_finite() && r.cloud.is_finite());
    }
    for (_, _, report) in results.report_entries() {
        assert!(report.is_degraded());
    }
}

/// Forced panics at the task boundary are isolated per task: the failing
/// tasks come back as typed errors, every other task is untouched, and the
/// set of casualties is identical at every thread count.
#[test]
fn forced_panics_are_isolated_per_task() {
    let _serial = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let tasks = batch(8);
    let spec = "seed=3;exp.task:panic@2";

    let mut reference: Option<Vec<bool>> = None;
    for threads in [1usize, 2, 8] {
        let fault_plan = mbm_faults::FaultPlan::parse(spec).expect("test plan parses");
        let _guard = mbm_faults::install(fault_plan);
        let compiled = plan(&[tasks.to_vec()]);
        let results = execute_supervised(&compiled, &Pool::new(threads), SolvePolicy::strict());

        let survived: Vec<bool> = tasks
            .iter()
            .map(|planned| results.sym_opt(&planned.task).expect("planned").is_some())
            .collect();
        assert!(
            survived.iter().any(|&s| s) && survived.iter().any(|&s| !s),
            "panic@2 should kill some tasks and spare others; got {survived:?}"
        );
        for (planned, &ok) in tasks.iter().zip(&survived) {
            if !ok {
                let debug = format!("{:?}", results.output(&planned.task).expect("planned"));
                assert!(
                    debug.contains("worker panic isolated"),
                    "casualty lacks the isolation marker: {debug}"
                );
            }
        }
        match &reference {
            None => reference = Some(survived),
            Some(want) => assert_eq!(&survived, want, "casualty set diverged at {threads} threads"),
        }
    }
}

/// Warm continuation batching: the grid tasks share one family, so the
/// warm executor solves them as a single nearest-neighbor batch. Outputs
/// agree with the cold executor within certificate tolerance and are
/// bitwise identical at every thread count (the batch runs serially on one
/// workspace regardless of pool size).
#[test]
fn warm_batches_agree_with_cold_and_are_thread_count_invariant() {
    let _serial = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let tasks = batch(8);
    let compiled = plan(&[tasks.to_vec()]);
    let cold = execute_supervised(&compiled, &Pool::new(2), SolvePolicy::strict());
    let warm_plan = compiled.warm();
    let mut reference: Option<String> = None;
    for threads in [1usize, 2, 8] {
        let warm = execute_supervised(&warm_plan, &Pool::new(threads), SolvePolicy::strict());
        let mut fingerprint = String::new();
        for planned in &tasks {
            let c = cold.sym_opt(&planned.task).expect("planned").expect("cold converged");
            let w = warm.sym_opt(&planned.task).expect("planned").expect("warm converged");
            assert!(
                (w.edge - c.edge).abs() < 1e-6 && (w.cloud - c.cloud).abs() < 1e-6,
                "warm {w:?} drifted from cold {c:?}"
            );
            fingerprint.push_str(&format!("{w:?}\n"));
        }
        match &reference {
            None => reference = Some(fingerprint),
            Some(want) => {
                assert_eq!(&fingerprint, want, "warm outputs diverged at {threads} threads");
            }
        }
    }
}

/// A forced panic inside a warm batch is isolated to its task: the fault
/// schedule is keyed by task identity (not batch layout), so the casualty
/// set matches the cold executor's exactly, at every thread count, and the
/// rest of the batch still converges.
#[test]
fn warm_batches_isolate_panics_and_match_the_cold_casualty_set() {
    let _serial = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let tasks = batch(8);
    let spec = "seed=3;exp.task:panic@2";
    let fault_plan = mbm_faults::FaultPlan::parse(spec).expect("test plan parses");
    let _guard = mbm_faults::install(fault_plan);
    let compiled = plan(&[tasks.to_vec()]);

    let casualty_set = |results: &TaskResults| -> Vec<bool> {
        tasks.iter().map(|p| results.sym_opt(&p.task).expect("planned").is_some()).collect()
    };
    let cold = execute_supervised(&compiled, &Pool::new(2), SolvePolicy::strict());
    let warm_plan = compiled.warm();
    let want = casualty_set(&cold);
    assert!(
        want.iter().any(|&s| s) && want.iter().any(|&s| !s),
        "panic@2 should kill some tasks and spare others; got {want:?}"
    );
    for threads in [1usize, 2, 8] {
        let warm = execute_supervised(&warm_plan, &Pool::new(threads), SolvePolicy::strict());
        assert_eq!(casualty_set(&warm), want, "casualty set diverged at {threads} threads");
        for (planned, &ok) in tasks.iter().zip(&want) {
            if !ok {
                let debug = format!("{:?}", warm.output(&planned.task).expect("planned"));
                assert!(
                    debug.contains("worker panic isolated"),
                    "casualty lacks the isolation marker: {debug}"
                );
            }
        }
    }
}

/// A continuous-population task that fails at the task boundary records
/// the same output kind a solver failure does, so a spec reading it as a
/// tolerant symmetric request gets `None`, not a kind mismatch.
#[test]
fn failed_continuous_task_reads_as_a_missing_symmetric_request() {
    let _serial = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let fault_plan =
        mbm_faults::FaultPlan::parse("seed=1;exp.task:misconverge@1").expect("test plan parses");
    let _guard = mbm_faults::install(fault_plan);
    let task = Task::SymContinuous {
        params: baseline_market(),
        prices: Prices::new(4.0, 2.0).unwrap(),
        budget: 500.0,
        mu: 10.0,
        sd: 2.0,
        cfg: DynamicConfig::default(),
    };
    let compiled = plan(&[vec![PlannedTask::tolerant(task.clone())]]);
    let results = execute_supervised(&compiled, &Pool::new(1), SolvePolicy::strict());
    assert_eq!(results.sym_opt(&task), Ok(None));
}
