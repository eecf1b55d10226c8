//! The daemon: TCP listener, per-connection reader/writer threads, and the
//! shutdown state machine.
//!
//! Each connection gets a reader thread (parses JSON-lines frames, answers
//! control verbs inline, submits solve jobs to the shared [`WorkerPool`])
//! and a writer thread draining an [`mpsc`] channel of rendered response
//! lines. Workers send their responses straight into the originating
//! connection's channel, so responses may interleave across requests — the
//! `id` field is the correlation key, exactly like the wire protocol
//! promises.
//!
//! Shutdown is a three-state flag ([`ShutdownFlag`]): `RUN` → `DRAIN`
//! (graceful: SIGTERM or the `shutdown` verb; in-flight jobs finish, queued
//! jobs shed) → `FORCE` (second signal; the pool's
//! [`CancelToken`](mbm_faults::CancelToken) fires
//! and in-flight solves stop at their next supervision probe). The accept
//! loop polls the flag between non-blocking accepts, so a shutdown is
//! observed within one poll interval.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::io::{BufRead, BufReader, ErrorKind as IoErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mbm_core::solver::WarmState;
use mbm_core::stackelberg::ExecConfig;
use serde::Value;

use crate::metrics::{bump, ServeMetrics};
use crate::protocol::{parse_request, render_error, render_ok, ErrorKind, FrameError, Verb};
use crate::worker::{scope_key_for, Job, JobKind, RefusedReason, WorkerPool};

/// Shutdown flag states (see module docs).
pub const RUN: usize = 0;
/// Graceful drain requested.
pub const DRAIN: usize = 1;
/// Forced shutdown: cancel in-flight work.
pub const FORCE: usize = 2;

/// Shared tri-state shutdown flag (`RUN`/`DRAIN`/`FORCE`). Escalates
/// monotonically; signal handlers and the `shutdown` verb both write it.
pub type ShutdownFlag = Arc<AtomicUsize>;

/// Requests a shutdown, escalating but never de-escalating the flag.
pub fn request_shutdown(flag: &ShutdownFlag, level: usize) {
    flag.fetch_max(level, Ordering::SeqCst);
}

/// Daemon configuration (all fields have serving-sane defaults).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; port 0 binds an ephemeral port (tests, `--spawn`).
    pub addr: String,
    /// Worker threads; `0` = auto via [`ExecConfig::effective_threads`]
    /// (which owns the one `MBM_PAR_THREADS` read).
    pub workers: usize,
    /// Max queued (admitted, not yet running) jobs before load shedding.
    pub queue_capacity: usize,
    /// Deadline applied to requests that do not carry `deadline_ms`.
    pub default_deadline_ms: u64,
    /// Upper clamp for client-supplied deadlines.
    pub max_deadline_ms: u64,
    /// Honor the test-only `sleep` verb (drain tests; off in production).
    pub test_verbs: bool,
    /// Close keep-alive connections idle longer than this (milliseconds);
    /// `0` disables the idle reaper and connections live until EOF.
    pub max_idle_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            queue_capacity: 64,
            default_deadline_ms: 5_000,
            max_deadline_ms: 60_000,
            test_verbs: false,
            max_idle_ms: 0,
        }
    }
}

struct ConnShared {
    pool: Arc<WorkerPool>,
    metrics: Arc<ServeMetrics>,
    shutdown: ShutdownFlag,
    workers: usize,
    cfg: ServerConfig,
}

/// A bound, not-yet-running daemon. [`Server::run`] blocks until shutdown.
pub struct Server {
    listener: TcpListener,
    shared: Arc<ConnShared>,
}

impl Server {
    /// Binds the listener, resolves the worker count, and spawns the pool.
    ///
    /// # Errors
    ///
    /// Propagates socket bind/configuration failures.
    pub fn bind(cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        // Satellite: the daemon's pool size goes through the same single
        // authoritative resolution as `experiments --check`, so
        // MBM_PAR_THREADS governs both. Recorded as a gauge so the health
        // snapshot states the count it serves under.
        let exec = ExecConfig { threads: cfg.workers, ..ExecConfig::default() };
        let workers = exec.effective_threads();
        mbm_obs::global().gauge("serve.workers", workers as u64);
        let metrics = Arc::new(ServeMetrics::new());
        let pool = Arc::new(WorkerPool::new(workers, cfg.queue_capacity, Arc::clone(&metrics)));
        let shared = Arc::new(ConnShared {
            pool,
            metrics,
            shutdown: Arc::new(AtomicUsize::new(RUN)),
            workers,
            cfg,
        });
        Ok(Server { listener, shared })
    }

    /// The bound address (read the ephemeral port after `addr: "…:0"`).
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failures from the socket.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shutdown flag; hand it to a signal handler or another thread.
    #[must_use]
    pub fn shutdown_flag(&self) -> ShutdownFlag {
        Arc::clone(&self.shared.shutdown)
    }

    /// The daemon's metrics (shared with the pool and all connections).
    #[must_use]
    pub fn metrics(&self) -> Arc<ServeMetrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// Resolved worker count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.shared.workers
    }

    /// Serves until the shutdown flag leaves `RUN`, then drains (or, on
    /// `FORCE`, cancels) and joins everything. Returns cleanly on graceful
    /// shutdown — the process can `exit(0)` after this.
    ///
    /// # Errors
    ///
    /// Propagates fatal listener errors (not per-connection ones).
    pub fn run(self) -> std::io::Result<()> {
        let mut conn_handles = Vec::new();
        while self.shared.shutdown.load(Ordering::SeqCst) == RUN {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let shared = Arc::clone(&self.shared);
                    conn_handles.push(std::thread::spawn(move || {
                        handle_connection(stream, &shared);
                    }));
                }
                Err(e) if e.kind() == IoErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) if e.kind() == IoErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        // Drain (or cancel) the pool first: every admitted job's response is
        // delivered into its connection channel before readers are joined.
        let drain = self.shared.shutdown.load(Ordering::SeqCst) < FORCE;
        self.shared.pool.shutdown(drain);
        for handle in conn_handles {
            let _ = handle.join();
        }
        Ok(())
    }
}

/// Convenience for tests and `--spawn` mode: bind on an ephemeral port and
/// run the server on a background thread. Returns the address, the shutdown
/// flag, and the join handle.
///
/// # Errors
///
/// Propagates bind failures.
pub fn spawn(
    cfg: ServerConfig,
) -> std::io::Result<(SocketAddr, ShutdownFlag, std::thread::JoinHandle<std::io::Result<()>>)> {
    let server = Server::bind(cfg)?;
    let addr = server.local_addr()?;
    let flag = server.shutdown_flag();
    let handle = std::thread::spawn(move || server.run());
    Ok((addr, flag, handle))
}

fn handle_connection(stream: TcpStream, shared: &ConnShared) {
    let Ok(write_half) = stream.try_clone() else { return };
    let (tx, rx) = mpsc::channel::<String>();
    let writer = std::thread::spawn(move || {
        let mut out = std::io::BufWriter::new(write_half);
        for body in rx {
            if out.write_all(body.as_bytes()).is_err() || out.write_all(b"\n").is_err() {
                break;
            }
            let _ = out.flush();
        }
    });
    // One warm-continuation slot per connection: repricing requests that set
    // `"warm": true` continue from the last equilibrium this connection
    // solved. The slot dies with the connection, so state never leaks
    // across clients.
    let warm = Arc::new(Mutex::new(WarmState::default()));
    read_frames(stream, shared, &tx, &warm);
    // Dropping the reader's sender lets the writer exit once every job
    // holding a clone has responded.
    drop(tx);
    let _ = writer.join();
}

/// Reader loop: pulls JSON-lines frames off the socket until EOF, a socket
/// error, shutdown, or (when `max_idle_ms` is set) the idle deadline. The
/// read timeout keeps the loop responsive to the shutdown flag; a timeout
/// mid-line preserves the partial buffer and does not count as idleness.
fn read_frames(
    stream: TcpStream,
    shared: &ConnShared,
    tx: &Sender<String>,
    warm: &Arc<Mutex<WarmState>>,
) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let idle_limit =
        (shared.cfg.max_idle_ms > 0).then(|| Duration::from_millis(shared.cfg.max_idle_ms));
    let mut last_activity = Instant::now();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) != RUN {
            break;
        }
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {
                let frame = line.trim();
                if !frame.is_empty() {
                    handle_frame(frame, shared, tx, warm);
                }
                line.clear();
                last_activity = Instant::now();
            }
            Err(e)
                if e.kind() == IoErrorKind::WouldBlock
                    || e.kind() == IoErrorKind::TimedOut
                    || e.kind() == IoErrorKind::Interrupted =>
            {
                // Partial data (if any) stays in `line`; poll again. A
                // half-received frame never trips the idle reaper.
                if let Some(limit) = idle_limit {
                    if line.is_empty() && last_activity.elapsed() >= limit {
                        bump(&shared.metrics.idle_closed);
                        break;
                    }
                }
            }
            Err(_) => break,
        }
    }
}

fn handle_frame(
    frame: &str,
    shared: &ConnShared,
    tx: &Sender<String>,
    warm: &Arc<Mutex<WarmState>>,
) {
    let request = match parse_request(frame) {
        Ok(req) => req,
        Err(err) => {
            match err.kind {
                ErrorKind::Malformed => bump(&shared.metrics.malformed),
                _ => bump(&shared.metrics.invalid),
            }
            let _ = tx.send(render_error(&err));
            return;
        }
    };
    let id = request.id;
    match request.verb {
        Verb::Ping => {
            let _ = tx.send(render_ok(id, "pong", Value::Bool(true)));
        }
        Verb::Health => {
            let health = shared.metrics.health_value(
                shared.workers,
                shared.pool.queue_depth(),
                shared.cfg.queue_capacity,
            );
            let _ = tx.send(render_ok(id, "health", health));
        }
        Verb::Shutdown => {
            request_shutdown(&shared.shutdown, DRAIN);
            let _ = tx.send(render_ok(id, "shutting_down", Value::Bool(true)));
        }
        Verb::Sleep { ms } => {
            if shared.cfg.test_verbs {
                submit(shared, tx, id, JobKind::Sleep { ms }, None, None);
            } else {
                let err = FrameError {
                    id,
                    kind: ErrorKind::InvalidParameter,
                    message: "sleep verb is disabled (start with --test-verbs)".into(),
                };
                bump(&shared.metrics.invalid);
                let _ = tx.send(render_error(&err));
            }
        }
        Verb::Solve(job) => {
            let deadline_ms = job.deadline_ms;
            let warm_slot = job.warm.then(|| Arc::clone(warm));
            submit(shared, tx, id, JobKind::Solve(job), deadline_ms, warm_slot);
        }
    }
}

fn submit(
    shared: &ConnShared,
    tx: &Sender<String>,
    id: Option<u64>,
    kind: JobKind,
    deadline_ms: Option<u64>,
    warm: Option<Arc<Mutex<WarmState>>>,
) {
    let budget_ms = deadline_ms
        .unwrap_or(shared.cfg.default_deadline_ms)
        .min(shared.cfg.max_deadline_ms)
        .max(1);
    let job = Job {
        id,
        kind,
        deadline: Instant::now() + Duration::from_millis(budget_ms),
        respond: tx.clone(),
        scope_key: scope_key_for(id),
        warm,
    };
    if let Err((job, reason)) = shared.pool.submit(job) {
        let (kind, counter, message) = match reason {
            RefusedReason::Overloaded => (
                ErrorKind::Overloaded,
                &shared.metrics.shed_overload,
                format!("queue full ({} jobs)", shared.cfg.queue_capacity),
            ),
            RefusedReason::ShuttingDown => (
                ErrorKind::ShuttingDown,
                &shared.metrics.shed_shutdown,
                "server shutting down; job refused at admission".to_string(),
            ),
        };
        bump(counter);
        let err = FrameError { id: job.id, kind, message };
        let _ = job.respond.send(render_error(&err));
    }
}
