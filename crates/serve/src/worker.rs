//! Load-shedding worker pool: bounded admission queue, per-worker
//! [`SolveWorkspace`], deadline/cancel supervision, and panic isolation.
//!
//! Admission control is a bounded FIFO: a submit against a full queue is
//! refused immediately (typed `overloaded` response — the caller never
//! blocks), and every admitted job carries an absolute deadline. Workers
//! check the deadline again at dequeue (shedding jobs whose budget was
//! eaten by queue wait) and arm an [`mbm_faults::Supervision`] combining
//! the remaining budget with the pool's shutdown [`CancelToken`] for the
//! solve itself, so a job can *never* hang a worker: it converges, degrades
//! to a certified best-so-far iterate ([`SolvePolicy::resilient`]), or
//! comes back as a typed `deadline_exceeded`/`cancelled` error.
//!
//! Shutdown has two gears. [`WorkerPool::shutdown`] with `drain = true`
//! (graceful, the SIGTERM path) closes the queue, sheds every *queued* job
//! with a typed `shutting_down` response, and joins the workers — in-flight
//! jobs run to completion and their responses are delivered. With
//! `drain = false` the shutdown token is cancelled first, so in-flight
//! solves stop at their next supervision probe and salvage what they can.
//!
//! A panic inside a job (including injected `serve.job:panic` faults) is
//! caught at the job boundary by [`mbm_par::catch_quiet`], counted,
//! answered as a typed `internal` error, and suppressed from the panic hook
//! — the worker thread survives and takes the next job.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use mbm_core::solver::{
    FollowerSolver, SolvePolicy, SolveStatus, SolveWorkspace, Solved, TieredSolver, WarmState,
};
use mbm_core::MiningGameError;
use mbm_faults::{sites, CancelToken, Interrupt, Supervision};

use crate::metrics::{bump, ServeMetrics};
use crate::protocol::{
    render_error, render_ok, render_solved, ErrorKind, FrameError, Mode, PopulationSpec, SolveJob,
};
use serde::Value;

/// What a queued job does when a worker picks it up.
#[derive(Debug, Clone)]
pub enum JobKind {
    /// Price a follower subgame.
    Solve(Box<SolveJob>),
    /// Test-only: hold the worker for `ms` milliseconds.
    Sleep {
        /// Sleep duration.
        ms: u64,
    },
}

/// One admitted unit of work.
#[derive(Debug)]
pub struct Job {
    /// Correlation id echoed in the response.
    pub id: Option<u64>,
    /// The work itself.
    pub kind: JobKind,
    /// Absolute wall-clock deadline (admission time + request budget).
    pub deadline: Instant,
    /// Where the rendered response line goes (the connection's writer).
    pub respond: Sender<String>,
    /// Deterministic fault-scope key (derived from the correlation id), so
    /// an installed fault plan fires identically for a given request no
    /// matter which worker runs it or how many workers exist.
    pub scope_key: u64,
    /// The owning connection's warm continuation slot, set only for solve
    /// requests that opted in with `"warm": true`. Whichever worker runs
    /// the job swaps this state into its workspace for the duration of the
    /// solve, so repeated repricing requests on one keep-alive connection
    /// continue from the last equilibrium regardless of worker identity.
    pub warm: Option<Arc<Mutex<WarmState>>>,
}

/// Why [`WorkerPool::submit`] refused a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefusedReason {
    /// The queue is at capacity.
    Overloaded,
    /// The queue is closed (shutdown in progress).
    ShuttingDown,
}

struct Queue {
    jobs: VecDeque<Job>,
    closed: bool,
}

struct PoolShared {
    queue: Mutex<Queue>,
    available: Condvar,
    metrics: Arc<ServeMetrics>,
    cancel: CancelToken,
    capacity: usize,
}

/// The fixed-size worker pool behind the daemon.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
    workers: usize,
}

impl WorkerPool {
    /// Spawns `workers` threads (≥ 1) sharing a queue of at most
    /// `capacity` pending jobs. Each worker owns its own
    /// [`SolveWorkspace`] configured with [`SolvePolicy::resilient`], so
    /// buffers are reused across the jobs that land on that thread.
    #[must_use]
    pub fn new(workers: usize, capacity: usize, metrics: Arc<ServeMetrics>) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(Queue { jobs: VecDeque::new(), closed: false }),
            available: Condvar::new(),
            metrics,
            cancel: CancelToken::new(),
            capacity: capacity.max(1),
        });
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        WorkerPool { shared, handles: Mutex::new(handles), workers }
    }

    /// Worker count this pool runs.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Pending (not yet started) jobs.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.lock().map(|q| q.jobs.len()).unwrap_or(0)
    }

    /// Jobs currently executing on a worker.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.shared.metrics.in_flight.load(Ordering::Relaxed) as usize
    }

    /// Admits `job` to the queue, or refuses it without blocking.
    ///
    /// # Errors
    ///
    /// Returns the job back with a [`RefusedReason`] when the queue is full
    /// or closed; the caller renders the typed shed response.
    pub fn submit(&self, job: Job) -> Result<(), (Job, RefusedReason)> {
        let mut q = match self.shared.queue.lock() {
            Ok(q) => q,
            Err(poisoned) => poisoned.into_inner(),
        };
        if q.closed {
            return Err((job, RefusedReason::ShuttingDown));
        }
        if q.jobs.len() >= self.shared.capacity {
            return Err((job, RefusedReason::Overloaded));
        }
        q.jobs.push_back(job);
        bump(&self.shared.metrics.accepted);
        drop(q);
        self.shared.available.notify_one();
        Ok(())
    }

    /// Stops the pool. Queued jobs are shed with typed `shutting_down`
    /// responses; with `drain = true` in-flight jobs complete first (their
    /// responses are delivered before this returns), with `drain = false`
    /// they are cancelled at their next supervision probe. Idempotent: a
    /// second call finds the queue closed and no workers left to join.
    pub fn shutdown(&self, drain: bool) {
        let shed: Vec<Job> = {
            let mut q = match self.shared.queue.lock() {
                Ok(q) => q,
                Err(poisoned) => poisoned.into_inner(),
            };
            q.closed = true;
            q.jobs.drain(..).collect()
        };
        self.shared.available.notify_all();
        for job in shed {
            bump(&self.shared.metrics.shed_shutdown);
            let err = FrameError {
                id: job.id,
                kind: ErrorKind::ShuttingDown,
                message: "server shutting down; job shed from queue".into(),
            };
            let _ = job.respond.send(render_error(&err));
        }
        if !drain {
            self.shared.cancel.cancel();
        }
        let handles: Vec<_> = match self.handles.lock() {
            Ok(mut h) => h.drain(..).collect(),
            Err(poisoned) => poisoned.into_inner().drain(..).collect(),
        };
        for handle in handles {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    let mut ws = SolveWorkspace::with_policy(SolvePolicy::resilient(None));
    loop {
        let job = {
            let mut q = match shared.queue.lock() {
                Ok(q) => q,
                Err(poisoned) => poisoned.into_inner(),
            };
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break Some(job);
                }
                if q.closed {
                    break None;
                }
                q = match shared.available.wait(q) {
                    Ok(q) => q,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        };
        let Some(job) = job else { break };
        shared.metrics.in_flight.fetch_add(1, Ordering::Relaxed);
        execute(job, &mut ws, &shared.metrics, &shared.cancel);
        shared.metrics.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

fn execute(job: Job, ws: &mut SolveWorkspace, metrics: &ServeMetrics, cancel: &CancelToken) {
    let now = Instant::now();
    if now >= job.deadline {
        bump(&metrics.shed_deadline);
        let err = FrameError {
            id: job.id,
            kind: ErrorKind::DeadlineExceeded,
            message: "deadline expired while queued".into(),
        };
        let _ = job.respond.send(render_error(&err));
        return;
    }
    match job.kind {
        JobKind::Sleep { ms } => {
            // Cooperative sleep in slices so forced shutdown is not held up.
            let until = now + Duration::from_millis(ms);
            while Instant::now() < until && !cancel.is_cancelled() {
                std::thread::sleep(Duration::from_millis(5));
            }
            let _ = job.respond.send(render_ok(job.id, "slept_ms", Value::U64(ms)));
        }
        JobKind::Solve(solve_job) => {
            let remaining = job.deadline.saturating_duration_since(now);
            // Warm continuation: hold the connection's slot for the whole
            // solve. The guard is taken *before* catch_quiet and released
            // after the state swaps back, so a panic inside the solve can
            // neither poison the mutex nor leak a half-owned slot — the
            // state is only ever updated by a successful solve.
            let mut warm_guard = job.warm.as_ref().map(|slot| match slot.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            });
            if let Some(state) = warm_guard.as_deref_mut() {
                state.set_enabled(true);
                ws.warm_swap(state);
            }
            let outcome = mbm_par::catch_quiet(|| {
                run_solve(&solve_job, remaining, ws, cancel, job.scope_key)
            });
            if let Some(state) = warm_guard.as_deref_mut() {
                ws.warm_swap(state);
            }
            drop(warm_guard);
            let body = match outcome {
                Ok(Ok(solved)) => {
                    bump(&metrics.completed);
                    match solved.report.status {
                        SolveStatus::Converged => bump(&metrics.converged),
                        SolveStatus::Degraded => bump(&metrics.degraded),
                    }
                    render_solved(job.id, &solve_job, &solved)
                }
                Ok(Err(mut err)) => {
                    err.id = job.id;
                    match err.kind {
                        ErrorKind::DeadlineExceeded => bump(&metrics.shed_deadline),
                        ErrorKind::Cancelled => bump(&metrics.cancelled),
                        ErrorKind::InvalidParameter => bump(&metrics.invalid),
                        _ => bump(&metrics.solve_failed),
                    }
                    render_error(&err)
                }
                Err(message) => {
                    bump(&metrics.panics_caught);
                    let err = FrameError {
                        id: job.id,
                        kind: ErrorKind::Internal,
                        message: format!("worker recovered: {message}"),
                    };
                    render_error(&err)
                }
            };
            let _ = job.respond.send(body);
        }
    }
}

/// Runs the tier chain for `job` under supervision. The returned
/// [`FrameError`] carries a placeholder id; the caller stamps the real one.
fn run_solve(
    job: &SolveJob,
    remaining: Duration,
    ws: &mut SolveWorkspace,
    cancel: &CancelToken,
    scope_key: u64,
) -> Result<Solved, FrameError> {
    let _scope = mbm_faults::scope(scope_key);
    let supervision = Supervision { deadline: Some(remaining), cancel: Some(cancel.clone()) };
    let _guard = supervision.enter();
    if let Some(interrupt) = mbm_faults::probe(sites::SERVE_JOB) {
        return Err(interrupt_error(interrupt, cancel));
    }
    let uniform_budgets: Vec<f64>;
    let budgets: &[f64] = match (&job.population, job.mode.is_symmetric()) {
        (PopulationSpec::Budgets(b), _) => b,
        (PopulationSpec::Uniform { .. }, true) => &[],
        (PopulationSpec::Uniform { budget, n }, false) => {
            uniform_budgets = vec![*budget; *n];
            &uniform_budgets
        }
    };
    let (budget, n) = match &job.population {
        PopulationSpec::Uniform { budget, n } => (*budget, *n),
        PopulationSpec::Budgets(b) => (0.0, b.len()),
    };
    let solver = match job.mode {
        Mode::Connected => TieredSolver::connected(&job.params, &job.prices, budgets, &job.cfg),
        Mode::Standalone => TieredSolver::standalone(&job.params, &job.prices, budgets, &job.cfg),
        Mode::AggregateConnected => {
            TieredSolver::aggregate_connected(&job.params, &job.prices, budgets, &job.cfg)
        }
        Mode::AggregateStandalone => {
            TieredSolver::aggregate_standalone(&job.params, &job.prices, budgets, &job.cfg)
        }
        Mode::SymmetricConnected => {
            TieredSolver::symmetric_connected(&job.params, &job.prices, budget, n, &job.cfg)
        }
        Mode::SymmetricStandalone => {
            TieredSolver::symmetric_standalone(&job.params, &job.prices, budget, n, &job.cfg)
        }
    };
    solver.solve(ws).map_err(|e| classify_solve_error(&e, cancel))
}

fn interrupt_error(interrupt: Interrupt, cancel: &CancelToken) -> FrameError {
    match interrupt {
        Interrupt::Cancelled => FrameError {
            id: None,
            kind: ErrorKind::Cancelled,
            message: "solve cancelled by shutdown".into(),
        },
        Interrupt::DeadlineExceeded { elapsed_ms } => FrameError {
            id: None,
            kind: ErrorKind::DeadlineExceeded,
            message: format!("deadline exceeded after {elapsed_ms} ms"),
        },
        Interrupt::Fault(kind) => FrameError {
            id: None,
            kind: ErrorKind::SolveFailed,
            message: format!("injected {kind} fault at {}", sites::SERVE_JOB),
        },
        _ => FrameError {
            id: None,
            kind: if cancel.is_cancelled() { ErrorKind::Cancelled } else { ErrorKind::SolveFailed },
            message: "solve interrupted".into(),
        },
    }
}

fn classify_solve_error(e: &MiningGameError, cancel: &CancelToken) -> FrameError {
    let kind = if e.is_interruption() {
        if cancel.is_cancelled() {
            ErrorKind::Cancelled
        } else {
            ErrorKind::DeadlineExceeded
        }
    } else {
        match e {
            MiningGameError::InvalidParameter(_) | MiningGameError::OutsideValidityRegion(_) => {
                ErrorKind::InvalidParameter
            }
            _ => ErrorKind::SolveFailed,
        }
    };
    FrameError { id: None, kind, message: e.to_string() }
}

/// FNV-1a over the correlation id: the deterministic per-job fault-scope
/// key. Requests without an id share scope 0, which is fine — scopes only
/// need to be stable per request, not unique.
#[must_use]
pub fn scope_key_for(id: Option<u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in id.unwrap_or(0).to_le_bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbm_core::params::{MarketParams, Prices};
    use mbm_core::subgame::SubgameConfig;
    use std::sync::mpsc;

    fn job(id: u64, kind: JobKind, respond: Sender<String>, budget_ms: u64) -> Job {
        Job {
            id: Some(id),
            kind,
            deadline: Instant::now() + Duration::from_millis(budget_ms),
            respond,
            scope_key: scope_key_for(Some(id)),
            warm: None,
        }
    }

    fn solve_kind(mode: Mode) -> JobKind {
        solve_kind_at(mode, 4.0, 2.0)
    }

    fn solve_kind_at(mode: Mode, edge: f64, cloud: f64) -> JobKind {
        JobKind::Solve(Box::new(SolveJob {
            mode,
            params: MarketParams::builder().build().expect("defaults valid"),
            prices: Prices::new(edge, cloud).expect("valid prices"),
            providers: None,
            population: PopulationSpec::Budgets(vec![100.0, 80.0, 120.0]),
            cfg: SubgameConfig::default(),
            deadline_ms: None,
            warm: false,
        }))
    }

    #[test]
    fn pool_solves_and_responds() {
        let metrics = Arc::new(ServeMetrics::new());
        let pool = WorkerPool::new(2, 8, Arc::clone(&metrics));
        let (tx, rx) = mpsc::channel();
        pool.submit(job(1, solve_kind(Mode::Connected), tx, 5_000)).expect("admitted");
        let body = rx.recv_timeout(Duration::from_secs(30)).expect("response");
        assert!(body.contains(r#""status":"Converged""#), "{body}");
        assert!(body.contains(r#""id":1"#), "{body}");
        assert!(body.contains(r#""payoffs""#), "{body}");
        pool.shutdown(true);
        assert_eq!(metrics.converged.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn full_queue_refuses_with_overloaded() {
        let metrics = Arc::new(ServeMetrics::new());
        // Zero workers is clamped to 1; block it with a long sleep so the
        // queue backs up deterministically.
        let pool = WorkerPool::new(1, 1, Arc::clone(&metrics));
        let (tx, rx) = mpsc::channel();
        pool.submit(job(1, JobKind::Sleep { ms: 400 }, tx.clone(), 5_000)).expect("in-flight");
        // Wait until the sleeper is actually on the worker.
        while pool.in_flight() == 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
        pool.submit(job(2, JobKind::Sleep { ms: 0 }, tx.clone(), 5_000)).expect("queued");
        let (_, reason) =
            pool.submit(job(3, JobKind::Sleep { ms: 0 }, tx.clone(), 5_000)).unwrap_err();
        assert_eq!(reason, RefusedReason::Overloaded);
        drop(tx);
        let first = rx.recv_timeout(Duration::from_secs(5)).expect("sleeper done");
        assert!(first.contains("slept_ms"), "{first}");
        pool.shutdown(true);
    }

    #[test]
    fn drain_completes_in_flight_and_sheds_queued() {
        let metrics = Arc::new(ServeMetrics::new());
        let pool = WorkerPool::new(1, 8, Arc::clone(&metrics));
        let (tx, rx) = mpsc::channel();
        pool.submit(job(1, JobKind::Sleep { ms: 300 }, tx.clone(), 10_000)).expect("in-flight");
        while pool.in_flight() == 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
        pool.submit(job(2, solve_kind(Mode::Connected), tx.clone(), 10_000)).expect("queued");
        pool.submit(job(3, solve_kind(Mode::Standalone), tx.clone(), 10_000)).expect("queued");
        assert_eq!(pool.queue_depth(), 2);
        drop(tx);
        pool.shutdown(true);
        let mut bodies: Vec<String> = rx.iter().collect();
        bodies.sort();
        assert_eq!(bodies.len(), 3);
        // Jobs 2 and 3 were queued: shed with the typed shutdown error.
        let shed: Vec<&String> =
            bodies.iter().filter(|b| b.contains(r#""kind":"shutting_down""#)).collect();
        assert_eq!(shed.len(), 2, "{bodies:?}");
        // Job 1 was in-flight: it completed.
        assert!(bodies.iter().any(|b| b.contains("slept_ms")), "{bodies:?}");
        assert_eq!(metrics.shed_shutdown.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn expired_deadline_is_shed_at_dequeue() {
        let metrics = Arc::new(ServeMetrics::new());
        let pool = WorkerPool::new(1, 8, Arc::clone(&metrics));
        let (tx, rx) = mpsc::channel();
        pool.submit(job(7, solve_kind(Mode::Connected), tx, 0)).expect("admitted");
        let body = rx.recv_timeout(Duration::from_secs(5)).expect("response");
        assert!(body.contains(r#""kind":"deadline_exceeded""#), "{body}");
        pool.shutdown(true);
        assert_eq!(metrics.shed_deadline.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn warm_repricing_continues_from_the_connection_slot() {
        let metrics = Arc::new(ServeMetrics::new());
        let pool = WorkerPool::new(2, 8, Arc::clone(&metrics));
        let slot = Arc::new(Mutex::new(WarmState::default()));
        let (tx, rx) = mpsc::channel();
        // Two sequential warm repricing requests at neighbouring prices,
        // exactly like a keep-alive client: the second seeds from the
        // first's stored equilibrium.
        for (id, pc) in [(1u64, 2.0), (2, 2.1)] {
            let mut j = job(id, solve_kind_at(Mode::Connected, 4.0, pc), tx.clone(), 30_000);
            j.warm = Some(Arc::clone(&slot));
            pool.submit(j).expect("admitted");
            let body = rx.recv_timeout(Duration::from_secs(30)).expect("response");
            assert!(body.contains(r#""status":"Converged""#), "{body}");
        }
        let state = slot.lock().expect("slot unpoisoned");
        assert!(state.hits() >= 1, "second repricing should seed warm; hits = {}", state.hits());
        drop(state);
        // A cold solve of the second request agrees within tolerance.
        let (tx2, rx2) = mpsc::channel();
        pool.submit(job(3, solve_kind_at(Mode::Connected, 4.0, 2.1), tx2, 30_000))
            .expect("admitted");
        let cold = rx2.recv_timeout(Duration::from_secs(30)).expect("response");
        let warm_body = {
            let (tx3, rx3) = mpsc::channel();
            let mut j = job(4, solve_kind_at(Mode::Connected, 4.0, 2.1), tx3, 30_000);
            j.warm = Some(Arc::clone(&slot));
            pool.submit(j).expect("admitted");
            rx3.recv_timeout(Duration::from_secs(30)).expect("response")
        };
        let edge = |body: &str| -> f64 {
            let v: serde::Value = serde_json::from_str(body).expect("json");
            match v.get("aggregates").and_then(|a| a.get("edge")) {
                Some(serde::Value::F64(x)) => *x,
                other => panic!("no aggregate edge in {other:?}"),
            }
        };
        assert!(
            (edge(&cold) - edge(&warm_body)).abs() < 1e-6,
            "warm drifted: {cold} vs {warm_body}"
        );
        pool.shutdown(true);
    }

    #[test]
    fn worker_survives_injected_panic() {
        let metrics = Arc::new(ServeMetrics::new());
        let pool = WorkerPool::new(1, 8, Arc::clone(&metrics));
        let plan = mbm_faults::FaultPlan::parse("seed=1;serve.job:panic@1").expect("plan parses");
        let _guard = mbm_faults::install(plan);
        let (tx, rx) = mpsc::channel();
        pool.submit(job(1, solve_kind(Mode::Connected), tx.clone(), 5_000)).expect("admitted");
        let body = rx.recv_timeout(Duration::from_secs(10)).expect("response");
        assert!(body.contains(r#""kind":"internal""#), "{body}");
        assert!(body.contains("worker recovered"), "{body}");
        pool.shutdown(true);
        assert_eq!(metrics.panics_caught.load(Ordering::Relaxed), 1);
    }
}
