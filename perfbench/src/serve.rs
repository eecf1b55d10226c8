//! `serve-mixed`: a closed loop of two clients against the in-process
//! pricing daemon (one worker, no store, unreachable deadlines).
//!
//! Each client stands for one leader whose pricing engine waits for an
//! equilibrium before its next price move, so each keeps exactly one
//! request outstanding on its own connection. Frames come from this
//! file's seeded generator, never from `mbm_serve::loadgen`, so editing the
//! program's load generator cannot change the workload.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mbm_core::solver::{FollowerSolver, SolvePolicy, SolveWorkspace, Solved, TieredSolver};
use mbm_core::MiningGameError;
use mbm_faults::{CancelToken, Supervision};
use mbm_serve::protocol::{
    parse_request, render_error, render_solved, Mode, PopulationSpec, SolveJob, Verb,
};
use mbm_serve::server::{self, request_shutdown, ServerConfig, ShutdownFlag, DRAIN};
use mbm_serve::worker::scope_key_for;
use serde::Value;

use crate::stats::{self, kronecker, Rng, PHI, R2_A, R2_B};
use crate::trace::Trace;
use crate::{Gates, Outcome, Run, SETUPS};

/// Frames per block. Every block holds exactly [`SMALL`] small frames,
/// [`AGGREGATE`] well-conditioned aggregate frames, [`BAND`] band frames
/// and [`POISON`] poison frames, shuffled, so any run covers the mix in
/// its stated proportions instead of a binomial draw of it.
pub const BLOCK: usize = 100;
const SMALL: usize = 60;
const AGGREGATE: usize = 23;
const BAND: usize = 2;
const POISON: usize = 15;

/// Wire names of the six serve modes (one solver tier chain each).
const SERVE_MODES: [&str; 6] = [
    "connected",
    "standalone",
    "aggregate_connected",
    "aggregate_standalone",
    "symmetric_connected",
    "symmetric_standalone",
];

/// Closed-loop clients (one per leader).
const CLIENTS: usize = 2;

/// Deadline no solve in the mix can reach (the slowest band frame takes
/// well under a second), so no response depends on timing.
const DEADLINE_MS: u64 = 600_000;

/// Seed of the warm-up block every set-up sends.
const WARMUP_SEED: u64 = 0x5e7_0b10c;

/// Ping probes, and serial handoff probes, in the traced run.
const PINGS: usize = 200;

/// Blocks in the deck every measured pass sends: 1200 frames, 1020 of them
/// valid, 24 in the band.
const DECK_BLOCKS: u64 = 12;

/// Fewest measured passes of an untraced run, even past `--seconds`: the
/// least-stolen half then holds two passes, enough samples for p99.
const MIN_PASSES: usize = 4;

/// Largest number of frames re-solved in process for the byte-equality
/// gate of an untraced run (the traced run re-solves all of them).
const SAMPLE_CAP: usize = 64;

/// Tolerance of the traced run's closure check: the share of the traced
/// frames' summed latency that service, handoff and head-of-line wait
/// leave unexplained.
pub const CLOSURE_TOL: f64 = 0.15;

/// Frame classes of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Heterogeneous, symmetric and K = 3 frames with 3–7 miners.
    Small,
    /// Well-conditioned aggregate frames at N ∈ {1000, 5000}.
    Aggregate,
    /// Aggregate-connected frames with P_e/P_c ∈ [0.9, 1.1], N ∈ [32, 256].
    Band,
    /// Frames the protocol boundary must reject with a typed error.
    Poison,
}

/// One generated frame.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Position in the seeded stream.
    pub index: u64,
    /// Correlation id the response must echo (`None`: unrecoverable).
    pub id: Option<u64>,
    /// Mix class.
    pub class: Class,
    /// The wire line, without its newline.
    pub line: String,
    /// Expected `error.kind` of a poison frame.
    pub expect_error: Option<&'static str>,
}

fn fmt(v: f64) -> String {
    format!("{v:.4}")
}

fn budgets(rng: &mut Rng, n: usize) -> String {
    (0..n).map(|_| fmt(rng.range(50.0, 150.0))).collect::<Vec<_>>().join(",")
}

/// The seeded frame stream, generated one block at a time.
///
/// The parameters the solve cost depends on most (prices, miner counts,
/// the band's N and price ratio) follow additive-recurrence sequences per
/// frame kind, whose offsets the seed moves only slightly
/// ([`stats::seeded_offset`]). Any stretch of the stream then covers its
/// ranges evenly, and two seeds' decks cost nearly the same to serve.
/// Per-miner budgets stay independent draws.
#[derive(Debug)]
pub struct Stream {
    seed: u64,
    /// Sequence offsets: two per small kind, two for the aggregate frames,
    /// three for the band.
    offsets: [f64; 15],
}

impl Stream {
    /// The stream of `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed, 0);
        Stream { seed, offsets: std::array::from_fn(|k| stats::seeded_offset(&mut rng, k as u64)) }
    }

    /// Block `b` of the stream (frames `b·BLOCK .. (b+1)·BLOCK`).
    #[must_use]
    pub fn block(&self, b: u64) -> Vec<Frame> {
        /// A frame kind and its position `j` in that kind's sequence.
        #[derive(Clone, Copy)]
        enum Slot {
            Small(usize, u64),
            Aggregate(usize, u64),
            Band(u64),
            Poison(usize),
        }
        // The slot order is the same for every seed: it decides which
        // frames queue behind which in the closed loop, and so where the
        // latency median falls. The seed draws the frames' values.
        let mut order = Rng::new(0, b + 1);
        let mut rng = Rng::new(self.seed, b + 1);
        let per_kind = (SMALL / 5) as u64;
        let mut slots: Vec<Slot> =
            (0..SMALL).map(|i| Slot::Small(i % 5, b * per_kind + (i / 5) as u64)).collect();
        slots.extend((0..AGGREGATE).map(|i| Slot::Aggregate(i, b * AGGREGATE as u64 + i as u64)));
        slots.extend((0..BAND as u64).map(|i| Slot::Band(b * BAND as u64 + i)));
        #[allow(clippy::cast_possible_truncation)]
        slots.extend((0..POISON).map(|i| Slot::Poison((i + b as usize * POISON) % 8)));
        order.shuffle(&mut slots);
        slots
            .into_iter()
            .enumerate()
            .map(|(pos, slot)| {
                let index = b * BLOCK as u64 + pos as u64;
                match slot {
                    Slot::Small(kind, j) => self.small(&mut rng, index, kind, j),
                    Slot::Aggregate(i, j) => self.aggregate(&mut rng, index, i, j),
                    Slot::Band(j) => self.band(&mut rng, index, j),
                    Slot::Poison(kind) => Self::poison(&mut rng, index, kind),
                }
            })
            .collect()
    }

    fn small(&self, rng: &mut Rng, index: u64, kind: usize, j: u64) -> Frame {
        let id = index + 1;
        // Inside the default caps (10 edge, 8 cloud) and above cost; the
        // band of near-equal and inverted prices is included here.
        let (pe, pc) = (
            2.1 + 7.4 * kronecker(self.offsets[2 * kind], j, R2_A),
            1.1 + 6.4 * kronecker(self.offsets[2 * kind + 1], j, R2_B),
        );
        #[allow(clippy::cast_possible_truncation)]
        let n = 3 + (j % 5) as usize;
        let line = match kind {
            0 | 1 => {
                let mode = if kind == 0 { "connected" } else { "standalone" };
                format!(
                    r#"{{"id":{id},"mode":"{mode}","prices":{{"edge":{},"cloud":{}}},"budgets":[{}]}}"#,
                    fmt(pe),
                    fmt(pc),
                    budgets(rng, n)
                )
            }
            2 | 3 => {
                let mode = if kind == 2 { "symmetric_connected" } else { "symmetric_standalone" };
                format!(
                    r#"{{"id":{id},"mode":"{mode}","prices":{{"edge":{},"cloud":{}}},"budget":{},"n":{n}}}"#,
                    fmt(pe),
                    fmt(pc),
                    fmt(rng.range(50.0, 150.0))
                )
            }
            _ => {
                // K = 3 provider vector: edge plus two clouds.
                let pc2 = pc + rng.range(0.2, 1.0);
                let mode = if j.is_multiple_of(2) { "connected" } else { "standalone" };
                format!(
                    r#"{{"id":{id},"mode":"{mode}","providers":[{},{},{}],"budgets":[{}]}}"#,
                    fmt(pe),
                    fmt(pc),
                    fmt(pc2),
                    budgets(rng, n)
                )
            }
        };
        Frame { index, id: Some(id), class: Class::Small, line, expect_error: None }
    }

    fn aggregate(&self, rng: &mut Rng, index: u64, i: usize, j: u64) -> Frame {
        let id = index + 1;
        // Edge price comfortably above cloud price: the well-conditioned
        // regime where the aggregate sweep count does not grow with N.
        let (pe, pc) = (
            3.6 + 1.9 * kronecker(self.offsets[10], j, R2_A),
            1.2 + 1.2 * kronecker(self.offsets[11], j, R2_B),
        );
        let mode = if i.is_multiple_of(2) { "aggregate_connected" } else { "aggregate_standalone" };
        let n = if i.is_multiple_of(5) { 5_000 } else { 1_000 };
        let line = format!(
            r#"{{"id":{id},"mode":"{mode}","prices":{{"edge":{},"cloud":{}}},"budget":{},"n":{n}}}"#,
            fmt(pe),
            fmt(pc),
            fmt(rng.range(50.0, 150.0))
        );
        Frame { index, id: Some(id), class: Class::Aggregate, line, expect_error: None }
    }

    fn band(&self, rng: &mut Rng, index: u64, j: u64) -> Frame {
        let id = index + 1;
        // Connected mode only: there the sweep count grows with N, while
        // standalone band solves bind the capacity in one sweep.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let n = 32 + (kronecker(self.offsets[12], j, PHI) * 225.0) as usize;
        let ratio = 0.9 + 0.2 * kronecker(self.offsets[13], j, R2_A);
        let pc = 2.0 + 4.0 * kronecker(self.offsets[14], j, R2_B);
        let line = format!(
            r#"{{"id":{id},"mode":"aggregate_connected","prices":{{"edge":{},"cloud":{}}},"budget":{},"n":{n}}}"#,
            fmt(ratio * pc),
            fmt(pc),
            fmt(rng.range(50.0, 150.0))
        );
        Frame { index, id: Some(id), class: Class::Band, line, expect_error: None }
    }

    fn poison(rng: &mut Rng, index: u64, kind: usize) -> Frame {
        let id = index + 1;
        let b = fmt(rng.range(50.0, 150.0));
        let (line, id, expect) = match kind {
            // `null` deserializes to NaN and must be caught at the boundary.
            0 => (
                format!(
                    r#"{{"id":{id},"mode":"connected","prices":{{"edge":4.0,"cloud":2.0}},"budgets":[{b},null,80.0]}}"#
                ),
                Some(id),
                "invalid_parameter",
            ),
            1 => (
                format!(
                    r#"{{"id":{id},"mode":"standalone","prices":{{"edge":-3.0,"cloud":2.0}},"budgets":[{b},80.0]}}"#
                ),
                Some(id),
                "invalid_parameter",
            ),
            2 => (
                format!(
                    r#"{{"id":{id},"mode":"symmetric_connected","prices":{{"edge":4.0,"cloud":2.0}},"budget":{b},"n":1}}"#
                ),
                Some(id),
                "invalid_parameter",
            ),
            3 => (
                format!(
                    r#"{{"id":{id},"mode":"warp_drive","prices":{{"edge":4.0,"cloud":2.0}},"budgets":[{b},80.0]}}"#
                ),
                Some(id),
                "invalid_parameter",
            ),
            4 => (format!(r#"{{"id":{id},"verb":"frobnicate"}}"#), Some(id), "invalid_parameter"),
            5 => (
                format!(r#"{{"id":{id},"mode":"connected","providers":[],"budgets":[{b},80.0]}}"#),
                Some(id),
                "invalid_parameter",
            ),
            // Truncated mid-token: malformed, id unrecoverable.
            6 => (format!(r#"{{"id":{id},"verb":"sol"#), None, "malformed"),
            _ => (format!("!!! not json {b} @@@"), None, "malformed"),
        };
        Frame { index, id, class: Class::Poison, line, expect_error: Some(expect) }
    }
}

/// Hands the frames of blocks `next_block..end_block` of a stream, in
/// order, to their clients: frame `i` goes to client `i mod CLIENTS`.
///
/// A fixed assignment keeps each client's sequence, and so which frame
/// waits behind which, the same from pass to pass and from seed to seed.
/// That pairing decides where the latency median falls: between the
/// cluster of frames that wait behind a fast solve and the cluster that
/// waits behind a slow one (see README, "noise").
struct Feeder<'a> {
    stream: &'a Stream,
    next_block: u64,
    end_block: u64,
    queues: [VecDeque<Frame>; CLIENTS],
}

impl<'a> Feeder<'a> {
    fn new(stream: &'a Stream, blocks: std::ops::Range<u64>) -> Mutex<Self> {
        Mutex::new(Feeder {
            stream,
            next_block: blocks.start,
            end_block: blocks.end,
            queues: std::array::from_fn(|_| VecDeque::new()),
        })
    }

    /// Client `client`'s next frame.
    fn next(&mut self, client: usize) -> Option<Frame> {
        while self.queues[client].is_empty() && self.next_block < self.end_block {
            for frame in self.stream.block(self.next_block) {
                #[allow(clippy::cast_possible_truncation)]
                self.queues[frame.index as usize % CLIENTS].push_back(frame);
            }
            self.next_block += 1;
        }
        self.queues[client].pop_front()
    }
}

/// One answered frame.
struct Answer {
    frame: Frame,
    client: usize,
    sent: Instant,
    written: Instant,
    received: Instant,
    /// The reply, kept only when a later gate or the trace needs it.
    body: Option<String>,
    /// The violated gate, if any, found as the reply arrived.
    problem: Option<String>,
}

/// One client connection.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { writer, reader })
    }

    /// Sends one line and waits for its one-line reply.
    fn call(&mut self, line: &str) -> std::io::Result<(Instant, String)> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.writer.write_all(&bytes)?;
        let written = Instant::now();
        let mut body = String::new();
        if self.reader.read_line(&mut body)? == 0 {
            return Err(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "daemon hung up"));
        }
        body.truncate(body.trim_end().len());
        Ok((written, body))
    }
}

/// A running daemon plus its two client connections.
struct Daemon {
    clients: Vec<Client>,
    flag: ShutdownFlag,
    handle: JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    fn start() -> Result<Daemon, String> {
        let cfg = ServerConfig {
            workers: 1,
            default_deadline_ms: DEADLINE_MS,
            max_deadline_ms: DEADLINE_MS,
            ..ServerConfig::default()
        };
        let (addr, flag, handle) = server::spawn(cfg).map_err(|e| format!("spawn daemon: {e}"))?;
        let clients = (0..CLIENTS)
            .map(|_| Client::connect(addr))
            .collect::<std::io::Result<Vec<_>>>()
            .map_err(|e| format!("connect: {e}"))?;
        Ok(Daemon { clients, flag, handle })
    }

    /// Closes the connections, drains the daemon and joins it.
    fn stop(self) -> Result<(), String> {
        drop(self.clients);
        request_shutdown(&self.flag, DRAIN);
        match self.handle.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("daemon exited with {e}")),
            Err(_) => Err("daemon thread panicked".into()),
        }
    }
}

/// Runs the closed loop: every client sends its next frame as soon as its
/// previous one is answered, until the feeder runs dry. Each reply is
/// checked as it arrives and kept only where `keep` says so, so the
/// harness's own memory stays flat however many frames a run sends.
fn closed_loop(
    clients: &mut [Client],
    feeder: &Mutex<Feeder<'_>>,
    keep: &(dyn Fn(&Frame) -> bool + Sync),
) -> Result<Vec<Answer>, String> {
    let results: Vec<Result<Vec<Answer>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                s.spawn(move || {
                    let mut answers = Vec::new();
                    loop {
                        let next = feeder.lock().expect("feeder lock poisoned").next(c);
                        let Some(frame) = next else { break };
                        let sent = Instant::now();
                        let (written, body) = client
                            .call(&frame.line)
                            .map_err(|e| format!("frame {}: {e}", frame.index))?;
                        let received = Instant::now();
                        let problem = check_answer(&frame, &body);
                        let body = keep(&frame).then_some(body);
                        answers.push(Answer {
                            frame,
                            client: c,
                            sent,
                            written,
                            received,
                            body,
                            problem,
                        });
                    }
                    Ok(answers)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
            .collect()
    });
    let mut all = Vec::new();
    for r in results {
        all.extend(r?);
    }
    all.sort_by_key(|a| a.frame.index);
    Ok(all)
}

/// Sends a ping on every connection; the next line must be its pong, which
/// shows no frame was answered twice.
fn check_no_stray(clients: &mut [Client], gates: &mut Gates) -> Result<(), String> {
    for (c, client) in clients.iter_mut().enumerate() {
        let (_, body) =
            client.call(r#"{"id":0,"verb":"ping"}"#).map_err(|e| format!("ping: {e}"))?;
        let ok = serde_json::from_str::<Value>(&body)
            .ok()
            .is_some_and(|v| v.get("pong").is_some() && id_of(&v) == Some(Some(0)));
        gates.op((!ok).then(|| format!("client {c}: stray line after the loop: {body}")));
    }
    Ok(())
}

/// The response's `id`: `Some(None)` for an explicit null.
fn id_of(v: &Value) -> Option<Option<u64>> {
    match v.get("id")? {
        Value::Null => Some(None),
        Value::U64(n) => Some(Some(*n)),
        _ => None,
    }
}

fn str_of<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    match v.get(key)? {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// Gates on one answer: one typed reply with the right id; valid frames
/// converge (band frames without a fallback hop); poison frames carry
/// their expected error kind.
fn check_answer(f: &Frame, body: &str) -> Option<String> {
    let Ok(v) = serde_json::from_str::<Value>(body) else {
        return Some(format!("frame {}: reply is not JSON: {body}", f.index));
    };
    if id_of(&v) != Some(f.id) {
        return Some(format!("frame {}: reply id mismatch: {body}", f.index));
    }
    let status = str_of(&v, "status");
    match f.expect_error {
        Some(kind) => {
            let got = v.get("error").and_then(|e| str_of(e, "kind"));
            (status != Some("Error") || got != Some(kind))
                .then(|| format!("frame {}: expected error {kind}: {body}", f.index))
        }
        None if status != Some("Converged") => {
            Some(format!("frame {}: not Converged: {body}", f.index))
        }
        None if f.class == Class::Band => {
            let hops = v.get("report").and_then(|r| r.get("fallback_hops")).and_then(Value::as_seq);
            (hops.is_none_or(|h| !h.is_empty()))
                .then(|| format!("band frame {} took a fallback hop: {body}", f.index))
        }
        None => None,
    }
}

/// Mirrors the worker's solve: the same tier chain, policy, fault scope and
/// supervision (an unreachable deadline plus a cancel token). Supervision
/// arms the solver's probes, which is part of what a served solve costs.
fn solve_job(
    id: Option<u64>,
    job: &SolveJob,
    ws: &mut SolveWorkspace,
) -> Result<Solved, MiningGameError> {
    let _scope = mbm_faults::scope(scope_key_for(id));
    let supervision = Supervision {
        deadline: Some(Duration::from_millis(DEADLINE_MS)),
        cancel: Some(CancelToken::new()),
    };
    let _guard = supervision.enter();
    let uniform: Vec<f64>;
    let budgets: &[f64] = match (&job.population, job.mode.is_symmetric()) {
        (PopulationSpec::Budgets(b), _) => b,
        (PopulationSpec::Uniform { .. }, true) => &[],
        (PopulationSpec::Uniform { budget, n }, false) => {
            uniform = vec![*budget; *n];
            &uniform
        }
    };
    let (budget, n) = match &job.population {
        PopulationSpec::Uniform { budget, n } => (*budget, *n),
        PopulationSpec::Budgets(b) => (0.0, b.len()),
    };
    let (params, prices, cfg) = (&job.params, &job.prices, &job.cfg);
    let solver = match job.mode {
        Mode::Connected => TieredSolver::connected(params, prices, budgets, cfg),
        Mode::Standalone => TieredSolver::standalone(params, prices, budgets, cfg),
        Mode::AggregateConnected => TieredSolver::aggregate_connected(params, prices, budgets, cfg),
        Mode::AggregateStandalone => {
            TieredSolver::aggregate_standalone(params, prices, budgets, cfg)
        }
        Mode::SymmetricConnected => {
            TieredSolver::symmetric_connected(params, prices, budget, n, cfg)
        }
        Mode::SymmetricStandalone => {
            TieredSolver::symmetric_standalone(params, prices, budget, n, cfg)
        }
    };
    solver.solve(ws)
}

fn solver_span(mode: Mode) -> &'static str {
    match mode {
        Mode::Connected => "solver.connected",
        Mode::Standalone => "solver.standalone",
        Mode::AggregateConnected => "solver.aggregate_connected",
        Mode::AggregateStandalone => "solver.aggregate_standalone",
        Mode::SymmetricConnected => "solver.symmetric_connected",
        Mode::SymmetricStandalone => "solver.symmetric_standalone",
    }
}

/// What the in-process replay of one frame found.
struct Replayed {
    body: String,
    mode: Option<Mode>,
    n: usize,
    iterations: usize,
    hops: usize,
    degraded: bool,
}

/// Parse → solve → render of one frame in this process, recording spans
/// under a `replay.frame` root when `trace` is given.
fn replay(frame: &Frame, ws: &mut SolveWorkspace, trace: Option<&mut Trace>) -> Replayed {
    let id = frame.id.unwrap_or(0);
    let t0 = Instant::now();
    let parsed = parse_request(&frame.line);
    let t1 = Instant::now();
    let mut out =
        Replayed { body: String::new(), mode: None, n: 0, iterations: 0, hops: 0, degraded: false };
    let (mut t2, mut t3) = (t1, t1);
    match parsed {
        Err(err) => {
            out.body = render_error(&err);
            t3 = Instant::now();
        }
        Ok(req) => match req.verb {
            Verb::Solve(job) => {
                let solved = solve_job(req.id, &job, ws);
                t2 = Instant::now();
                out.mode = Some(job.mode);
                out.n = job.population.n();
                match solved {
                    Ok(s) => {
                        out.iterations = s.report.iterations;
                        out.hops = s.report.hops();
                        out.degraded = s.report.is_degraded();
                        out.body = render_solved(req.id, &job, &s);
                    }
                    Err(e) => out.body = format!("in-process solve failed: {e}"),
                }
                t3 = Instant::now();
            }
            other => out.body = format!("unexpected verb {other:?}"),
        },
    }
    if let Some(trace) = trace {
        let root = trace.record("replay.frame", None, id, t0, t3);
        trace.record("protocol.parse", Some(root), id, t0, t1);
        if let Some(mode) = out.mode {
            trace.record(solver_span(mode), Some(root), id, t1, t2);
        }
        trace.record("protocol.render", Some(root), id, t2, t3);
    }
    out
}

/// Whether frame `index` is in the byte-equality sample of `seed`.
fn sampled(seed: u64, index: u64) -> bool {
    Rng::new(seed ^ 0x5eed_5a3b_1e00_0000, index).next_u64().is_multiple_of(32)
}

/// Serving-path cost of one solve frame beyond its service: sequential
/// tiny solve frames on one connection (nothing else in flight), latency
/// minus the in-process service of the same frame, median.
fn handoff_probe(client: &mut Client) -> Result<f64, String> {
    let mut ws = SolveWorkspace::with_policy(SolvePolicy::resilient(None));
    let mut over = Vec::with_capacity(PINGS);
    for i in 0..PINGS {
        let line = format!(
            r#"{{"id":{},"mode":"symmetric_connected","prices":{{"edge":4.0,"cloud":2.0}},"budget":100.0,"n":5}}"#,
            1_000_000 + i
        );
        let t0 = Instant::now();
        client.call(&line).map_err(|e| format!("handoff probe: {e}"))?;
        let latency = t0.elapsed().as_secs_f64();
        let frame = Frame { index: 0, id: None, class: Class::Small, line, expect_error: None };
        let t1 = Instant::now();
        replay(&frame, &mut ws, None);
        over.push(latency - t1.elapsed().as_secs_f64());
    }
    Ok(stats::median(&over).unwrap_or(0.0))
}

/// Set-up: spawn, connect, and one warm-up block through the closed loop.
/// The warm-up block is the same for every seed, so `setup_s` does not
/// depend on which band frames a seed draws first.
fn setup(gates: &mut Gates) -> Result<Daemon, String> {
    let mut daemon = Daemon::start()?;
    let warm = Stream::new(WARMUP_SEED);
    check_all(&closed_loop(&mut daemon.clients, &Feeder::new(&warm, 0..1), &|_| false)?, gates);
    Ok(daemon)
}

/// Entry point of the workload.
pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    match drive(run, &mut out) {
        Ok(()) => {}
        Err(e) => out.errors.push(e),
    }
    out
}

/// One pass over the deck: blocks `1..=DECK_BLOCKS` of the seed's stream
/// through the closed loop, until every frame is answered.
struct DeckPass {
    answers: Vec<Answer>,
    wall: f64,
}

fn deck_pass(
    clients: &mut [Client],
    stream: &Stream,
    keep: &(dyn Fn(&Frame) -> bool + Sync),
) -> Result<DeckPass, String> {
    let start = Instant::now();
    let answers = closed_loop(clients, &Feeder::new(stream, 1..DECK_BLOCKS + 1), keep)?;
    let end = answers.iter().map(|a| a.received).max().unwrap_or(start);
    Ok(DeckPass { answers, wall: (end - start).as_secs_f64() })
}

/// Send-to-reply times of a pass's valid frames, in milliseconds.
fn latencies_ms(answers: &[Answer]) -> Vec<f64> {
    answers
        .iter()
        .filter(|a| a.frame.class != Class::Poison)
        .map(|a| (a.received - a.sent).as_secs_f64() * 1e3)
        .collect()
}

fn drive(run: &Run, out: &mut Outcome) -> Result<(), String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut daemon = None;
    for k in 0..SETUPS {
        let t0 = if k == 0 { run.started } else { Instant::now() };
        let d = setup(&mut out.gates)?;
        setups.push(stats::secs(t0));
        if let Some(previous) = daemon.replace(d) {
            Daemon::stop(previous)?;
        }
    }
    let mut daemon = daemon.ok_or("no set-up ran")?;
    out.set("setup_s", stats::median(&setups).unwrap_or(0.0));
    out.set("env.serve_workers", 1.0);
    let stream = Stream::new(run.seed);
    if run.traced {
        return traced(run, out, daemon, &stream);
    }

    let ticks = stats::CpuTicks::read();
    let t0 = Instant::now();
    let (mut walls, mut lats, mut steals) = (Vec::new(), Vec::new(), Vec::new());
    let mut first = None;
    while stats::secs(t0) < run.seconds || walls.len() < MIN_PASSES {
        let pass_ticks = stats::CpuTicks::read();
        // Only the first pass keeps the sampled bodies for the
        // byte-equality gate; every pass repeats the same frames.
        let seed = run.seed;
        let keep_sample = first.is_none();
        let pass =
            deck_pass(&mut daemon.clients, &stream, &|f| keep_sample && sampled(seed, f.index))?;
        steals.push(pass_ticks.steal_pct_until(&stats::CpuTicks::read()));
        check_all(&pass.answers, &mut out.gates);
        walls.push(pass.wall);
        lats.push(latencies_ms(&pass.answers));
        if first.is_none() {
            first = Some(pass.answers);
        }
    }
    let steal = ticks.steal_pct_until(&stats::CpuTicks::read());
    check_no_stray(&mut daemon.clients, &mut out.gates)?;
    daemon.stop()?;
    let answers = first.unwrap_or_default();
    // Every frame hands off between four threads, so hypervisor steal
    // inflates serving times several times over its own share (see the
    // README). The metrics use the passes that lost the least CPU to it.
    let keep = stats::least_stolen_half(&steals);
    let kept = |i: &usize| keep[*i];
    let walls: Vec<f64> = (0..keep.len()).filter(kept).map(|i| walls[i]).collect();
    let lats: Vec<Vec<f64>> = (0..keep.len()).filter(kept).map(|i| lats[i].clone()).collect();
    #[allow(clippy::cast_precision_loss)]
    let rates: Vec<f64> = walls.iter().zip(&lats).map(|(w, l)| l.len() as f64 / w).collect();
    let all: Vec<f64> = lats.concat();
    out.set("sweep_s", stats::median(&walls).unwrap_or(0.0));
    out.set("throughput_rps", stats::median(&rates).unwrap_or(0.0));
    out.set("p50_ms", stats::median(&all).unwrap_or(0.0));
    match stats::tail_quantile(&all, 0.99) {
        Some(v) => out.set("p99_ms", v),
        None => out.errors.push(format!("p99 unsupported by {} samples", all.len())),
    }
    println!(
        "perfbench: serve-mixed passes={} kept={} samples={} clients={CLIENTS} workers=1 \
         window_steal_pct={steal:.2} pass_steal_pct={:?}",
        keep.len(),
        walls.len(),
        all.len(),
        steals.iter().map(|s| (s * 100.0).round() / 100.0).collect::<Vec<_>>()
    );
    // Byte-equality gate on a seeded sample, off the clock.
    let mut ws = SolveWorkspace::with_policy(SolvePolicy::resilient(None));
    for a in answers.iter().filter(|a| a.body.is_some()).take(SAMPLE_CAP) {
        let local = replay(&a.frame, &mut ws, None);
        out.gates.op((a.body.as_deref() != Some(local.body.as_str()))
            .then(|| format!("frame {}: daemon body differs from in-process body", a.frame.index)));
    }
    print_mix(run.seed, &answers);
    Ok(())
}

/// The traced run: probes, then untraced and traced deck passes in
/// alternation, then an in-process replay of every traced pass.
fn traced(run: &Run, out: &mut Outcome, mut daemon: Daemon, stream: &Stream) -> Result<(), String> {
    // Transport and reader-thread cost alone: pings are answered on the
    // connection thread without touching the worker.
    let mut rtts = Vec::with_capacity(PINGS);
    for i in 0..PINGS {
        let t0 = Instant::now();
        let line = format!(r#"{{"id":{},"verb":"ping"}}"#, i + 1);
        daemon.clients[0].call(&line).map_err(|e| format!("ping: {e}"))?;
        rtts.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    out.set("server.ping_rtt_us", stats::median(&rtts).unwrap_or(0.0));
    let handoff = handoff_probe(&mut daemon.clients[0])?;
    out.set("server.handoff_us", handoff * 1e6);

    let t0 = Instant::now();
    let (mut plain, mut walls) = (Vec::new(), Vec::new());
    let mut traced = TracedPasses::new(t0);
    let mut k = 0usize;
    while stats::secs(t0) < run.seconds || plain.len() < MIN_PASSES || walls.len() < MIN_PASSES {
        let keep_all = k % 2 == 1;
        let pass = deck_pass(&mut daemon.clients, stream, &|_| keep_all)?;
        check_all(&pass.answers, &mut out.gates);
        if keep_all {
            walls.push(pass.wall);
            traced.add(pass, &mut out.gates);
        } else {
            plain.push(pass.wall);
        }
        k += 1;
    }
    check_no_stray(&mut daemon.clients, &mut out.gates)?;
    daemon.stop()?;
    let plain_wall = stats::median(&plain).unwrap_or(0.0);
    out.set(
        "trace.overhead_pct",
        100.0 * (stats::median(&walls).unwrap_or(0.0) / plain_wall - 1.0),
    );
    print_mix(run.seed, &traced.answers);
    layers(run, &traced, handoff, out)
}

/// Traced passes and their in-process replays.
struct TracedPasses {
    origin: Instant,
    trace: Trace,
    ws: SolveWorkspace,
    answers: Vec<Answer>,
    /// Index of each replay's root span, and what the replay found.
    replays: Vec<(usize, Replayed)>,
    wall: f64,
    /// Traced deck passes. Every pass sends the same deck, so totals
    /// divided by this are per-deck figures, whatever the host's speed.
    passes: usize,
}

impl TracedPasses {
    fn new(origin: Instant) -> Self {
        TracedPasses {
            origin,
            trace: Trace::new(origin),
            ws: SolveWorkspace::with_policy(SolvePolicy::resilient(None)),
            answers: Vec::new(),
            replays: Vec::new(),
            wall: 0.0,
            passes: 0,
        }
    }

    /// Records a pass's client spans, then replays its frames in process
    /// at once, so service is measured under the same machine conditions
    /// as the pass it explains. The byte-equality gate covers every frame.
    fn add(&mut self, pass: DeckPass, gates: &mut Gates) {
        for a in &pass.answers {
            let id = a.frame.id.unwrap_or(0);
            let root = self.trace.record("client.frame", None, id, a.sent, a.received);
            self.trace.record("client.send", Some(root), id, a.sent, a.written);
            self.trace.record("client.wait", Some(root), id, a.written, a.received);
        }
        for a in &pass.answers {
            let first = self.trace.spans().len();
            let r = replay(&a.frame, &mut self.ws, Some(&mut self.trace));
            gates.op((a.body.as_deref() != Some(r.body.as_str())).then(|| {
                format!("frame {}: daemon body differs from in-process body", a.frame.index)
            }));
            self.replays.push((first, r));
        }
        self.wall += pass.wall;
        self.passes += 1;
        self.answers.extend(pass.answers);
    }
}

fn check_all(answers: &[Answer], gates: &mut Gates) {
    for a in answers {
        gates.op(a.problem.clone());
    }
}

fn print_mix(seed: u64, answers: &[Answer]) {
    let count = |c: Class| answers.iter().filter(|a| a.frame.class == c).count();
    println!(
        "perfbench: serve-mixed seed={seed} frames={} small={} aggregate={} band={} poison={}",
        answers.len(),
        count(Class::Small),
        count(Class::Aggregate),
        count(Class::Band),
        count(Class::Poison)
    );
}

/// Per-layer numbers of the traced passes.
#[allow(clippy::too_many_lines)]
fn layers(run: &Run, traced: &TracedPasses, handoff: f64, out: &mut Outcome) -> Result<(), String> {
    let TracedPasses { origin: start, trace, answers, replays, wall, passes, .. } = traced;
    let wall = *wall;
    #[allow(clippy::cast_precision_loss)]
    let per_pass = 1.0 / (*passes).max(1) as f64;
    let own = trace.self_times();
    let spans = trace.spans();
    let valid: Vec<usize> =
        (0..answers.len()).filter(|&i| answers[i].frame.class != Class::Poison).collect();
    let span_of = |i: usize, k: usize| replays[i].0 + k;
    let svc = |i: usize| spans[span_of(i, 0)].duration();
    let parse: Vec<f64> = valid.iter().map(|&i| own[span_of(i, 1)] * 1e6).collect();
    let render: Vec<f64> = valid.iter().map(|&i| own[span_of(i, 3)] * 1e6).collect();
    out.set("protocol.parse_us", stats::median(&parse).unwrap_or(0.0));
    out.set("protocol.render_us", stats::median(&render).unwrap_or(0.0));
    let waits: Vec<f64> = valid
        .iter()
        .map(|&i| ((answers[i].received - answers[i].sent).as_secs_f64() - svc(i)) * 1e3)
        .collect();
    out.set("worker.queue_wait_ms.p50", stats::median(&waits).unwrap_or(0.0));
    out.set("worker.queue_wait_ms.p99", stats::tail_quantile(&waits, 0.99).unwrap_or(0.0));
    let busy: f64 = valid.iter().map(|&i| svc(i)).sum();
    out.set("worker.busy_frac", busy / wall);
    // Closure: each valid frame's latency should be its own service, one
    // serving-path handoff, and the time the worker spent on the other
    // client's frames while this one waited (head-of-line).
    let at = |t: Instant| (t - *start).as_secs_f64();
    let windows: Vec<(usize, f64, f64)> = valid
        .iter()
        .map(|&i| {
            let end = at(answers[i].received) - handoff / 2.0;
            (answers[i].client, end - svc(i), end)
        })
        .collect();
    let (mut latency, mut explained) = (0.0, 0.0);
    for (k, &i) in valid.iter().enumerate() {
        let a = &answers[i];
        let (s, r) = (at(a.sent), at(a.received));
        let blocked: f64 = windows
            .iter()
            .enumerate()
            .filter(|&(j, w)| j != k && w.0 != a.client && w.1 < r && w.2 > s)
            .map(|(_, w)| w.2.min(r) - w.1.max(s))
            .sum();
        latency += r - s;
        explained += svc(i) + handoff + blocked;
    }
    let unaccounted = 1.0 - explained / latency;
    out.set("trace.unaccounted_frac", unaccounted);
    out.gates.op((unaccounted.abs() > CLOSURE_TOL).then(|| {
        format!("closure: {:.1}% of the frames' latency is unaccounted", 100.0 * unaccounted)
    }));
    #[allow(clippy::cast_precision_loss)]
    out.set("env.samples", valid.len() as f64);

    for name in SERVE_MODES {
        let of_mode: Vec<usize> = valid
            .iter()
            .copied()
            .filter(|&i| replays[i].1.mode.is_some_and(|m| m.as_str() == name))
            .collect();
        let solve: Vec<f64> = of_mode.iter().map(|&i| own[span_of(i, 2)]).collect();
        out.set(format!("solver.{name}.busy_s"), solve.iter().sum::<f64>() * per_pass);
        let us: Vec<f64> = solve.iter().map(|s| s * 1e6).collect();
        out.set(format!("solver.{name}.solve_us"), stats::median(&us).unwrap_or(0.0));
        out.set(
            format!("solver.{name}.iterations"),
            mean(of_mode.iter().map(|&i| replays[i].1.iterations)),
        );
    }
    out.set("solver.fallback_hops", count(valid.iter().map(|&i| replays[i].1.hops)) * per_pass);
    out.set(
        "solver.degraded",
        count(valid.iter().map(|&i| usize::from(replays[i].1.degraded))) * per_pass,
    );
    let class_iters = |c: Class| {
        mean(
            valid
                .iter()
                .filter(|&&i| answers[i].frame.class == c)
                .map(|&i| replays[i].1.iterations),
        )
    };
    out.set("aggregate.sweeps", class_iters(Class::Aggregate));
    out.set("aggregate.band_sweeps", class_iters(Class::Band));
    let agg: Vec<usize> =
        valid.iter().copied().filter(|&i| answers[i].frame.class != Class::Small).collect();
    let agg_time: f64 = agg.iter().map(|&i| own[span_of(i, 2)]).sum();
    let miner_sweeps: f64 = agg
        .iter()
        .map(|&i| {
            #[allow(clippy::cast_precision_loss)]
            let w = (replays[i].1.n * replays[i].1.iterations) as f64;
            w
        })
        .sum();
    out.set(
        "aggregate.ns_per_miner_sweep",
        if miner_sweeps > 0.0 { agg_time * 1e9 / miner_sweeps } else { 0.0 },
    );
    let path = run.work_dir.join(format!("trace-serve-mixed-{}.jsonl", run.seed));
    trace.write(&path).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("perfbench: spans written to {} ({} spans)", path.display(), trace.spans().len());
    Ok(())
}

fn mean(xs: impl Iterator<Item = usize>) -> f64 {
    let (mut sum, mut n) = (0usize, 0usize);
    for x in xs {
        sum += x;
        n += 1;
    }
    #[allow(clippy::cast_precision_loss)]
    let m = if n == 0 { 0.0 } else { sum as f64 / n as f64 };
    m
}

fn count(xs: impl Iterator<Item = usize>) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    let c = xs.sum::<usize>() as f64;
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_have_the_stated_mix_and_repeat_per_seed() {
        let s = Stream::new(7);
        let b = s.block(3);
        assert_eq!(b.len(), BLOCK);
        let n = |c: Class| b.iter().filter(|f| f.class == c).count();
        assert_eq!(
            (n(Class::Small), n(Class::Aggregate), n(Class::Band), n(Class::Poison)),
            (SMALL, AGGREGATE, BAND, POISON)
        );
        assert!(b.iter().enumerate().all(|(i, f)| f.index == 300 + i as u64));
        let again: Vec<String> = Stream::new(7).block(3).into_iter().map(|f| f.line).collect();
        assert_eq!(again, b.iter().map(|f| f.line.clone()).collect::<Vec<_>>());
        let other: Vec<String> = Stream::new(8).block(3).into_iter().map(|f| f.line).collect();
        assert_ne!(again, other);
    }

    #[test]
    fn frames_parse_as_their_class_says() {
        let s = Stream::new(11);
        for b in 0..20 {
            for f in s.block(b) {
                let parsed = parse_request(&f.line);
                match f.class {
                    Class::Poison => {
                        let err = parsed.expect_err("poison frame must be rejected");
                        assert_eq!(Some(err.kind.as_str()), f.expect_error, "{}", f.line);
                        assert_eq!(err.id, f.id, "{}", f.line);
                    }
                    _ => {
                        let req = parsed.expect("valid frame must parse");
                        assert!(matches!(req.verb, Verb::Solve(_)), "{}", f.line);
                    }
                }
            }
        }
    }
}
