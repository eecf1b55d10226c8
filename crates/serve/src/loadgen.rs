//! Deterministic load generator for the pricing daemon.
//!
//! Generates a seeded request mix — mostly small heterogeneous/symmetric
//! populations, a tranche of large aggregate-form jobs, and a tail of
//! poison frames (NaN-bearing budgets, negative prices, degenerate `n`,
//! unknown modes/verbs, truncated and garbage lines) — and drives it over
//! one pipelined connection with a bounded in-flight window. Every sent
//! line must come back as exactly one typed response; a missing or untyped
//! response, or a stall past the timeout, fails the run.
//!
//! The frame mix is a pure function of the seed, and the daemon's response
//! bodies are pure functions of the frames (no timestamps, no worker
//! identity), so the *sorted multiset* of response bodies is byte-identical
//! across runs and worker-pool sizes — `--dump` writes it for the CI
//! determinism gate to `cmp`. Throughput and latency quantiles go into a
//! `serve_sustained_throughput` bench record alongside the bench1 flow.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;

use crate::server::{self, request_shutdown, ServerConfig, DRAIN};

/// Load-run configuration (mirrors the `mbm-serve-load` CLI flags).
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Address of a running daemon; `None` with `spawn_workers` set runs an
    /// in-process server on an ephemeral port.
    pub addr: Option<String>,
    /// Spawn an in-process server with this many workers (0 = auto).
    pub spawn_workers: Option<usize>,
    /// Total frames to send.
    pub requests: usize,
    /// Mix seed.
    pub seed: u64,
    /// `deadline_ms` stamped on generated solve frames.
    pub deadline_ms: u64,
    /// Max unacknowledged frames in flight (kept below the daemon's queue
    /// capacity so the mix never triggers timing-dependent overload sheds).
    pub window: usize,
    /// Fail the run if no response arrives for this long.
    pub stall_timeout: Duration,
    /// Keep-alive repricing tail: after the pipelined mix, send this many
    /// sequential `"warm": true` solve frames re-pricing one fixed
    /// population along a drifting price path (0 = skip). Sequential by
    /// construction, so the warm continuation is deterministic and the
    /// responses stay byte-identical across worker counts.
    pub reprice: usize,
    /// Write the sorted response multiset here (determinism gate).
    pub dump: Option<String>,
    /// Write the `serve_sustained_throughput` bench record here.
    pub bench_out: Option<String>,
    /// Write an mbm-obs telemetry document here.
    pub telemetry_out: Option<String>,
    /// Write the daemon's end-of-run health snapshot here.
    pub health_out: Option<String>,
    /// Fail the run below this sustained request rate (0 = informational).
    pub floor_rps: f64,
    /// Bounded retries for `overloaded` sheds: a shed solve frame is
    /// re-sent up to this many times after a deterministic seeded backoff
    /// (a pure function of `(seed, id, attempt)` — no clocks, no global
    /// RNG). Retried sheds are tallied in [`LoadOutcome::retried`] and
    /// excluded from the `--dump` multiset, so the dump stays byte-identical
    /// across worker counts even when admission timing differs. `0`
    /// (default) keeps the historical fail-fast behaviour.
    pub retries: usize,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            addr: None,
            spawn_workers: None,
            requests: 200,
            seed: 42,
            deadline_ms: 10_000,
            window: 16,
            stall_timeout: Duration::from_secs(30),
            reprice: 0,
            dump: None,
            bench_out: None,
            telemetry_out: None,
            health_out: None,
            floor_rps: 0.0,
            retries: 0,
        }
    }
}

/// Aggregated outcome of a load run.
#[derive(Debug)]
pub struct LoadOutcome {
    /// Frames sent (== responses received on success).
    pub sent: usize,
    /// Responses with `status: Converged`.
    pub converged: u64,
    /// Responses with `status: Degraded`.
    pub degraded: u64,
    /// Typed error responses by `error.kind`.
    pub errors: Vec<(String, u64)>,
    /// Responses that were not a recognized typed shape (must be 0).
    pub untyped: u64,
    /// `overloaded` sheds absorbed by a retry (re-sent after backoff;
    /// excluded from `errors` and from the `--dump` multiset).
    pub retried: u64,
    /// Sustained request rate over the whole run.
    pub req_per_sec: f64,
    /// Median response latency (send → receive) in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile response latency in milliseconds.
    pub p99_ms: f64,
}

impl LoadOutcome {
    /// Total typed error responses.
    #[must_use]
    pub fn error_total(&self) -> u64 {
        self.errors.iter().map(|(_, n)| n).sum()
    }
}

/// One generated frame and the correlation id it carries (if parseable).
struct Frame {
    line: String,
    id: Option<u64>,
}

fn fmt(v: f64) -> String {
    format!("{v:.4}")
}

/// The seeded request mix as raw frame lines. Pure in its inputs; exposed
/// so tests and tools can inspect exactly what a seed will send.
#[must_use]
pub fn frames(seed: u64, requests: usize, deadline_ms: u64) -> Vec<String> {
    gen_frames(seed, requests, deadline_ms).into_iter().map(|f| f.line).collect()
}

/// The seeded request mix. Pure in `(seed, requests, deadline_ms)`.
fn gen_frames(seed: u64, requests: usize, deadline_ms: u64) -> Vec<Frame> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut frames = Vec::with_capacity(requests);
    for i in 0..requests {
        let id = i as u64 + 1;
        let roll: f64 = rng.gen();
        let frame = if roll < 0.60 {
            gen_small(&mut rng, id, deadline_ms)
        } else if roll < 0.85 {
            gen_aggregate(&mut rng, id, deadline_ms)
        } else {
            gen_poison(&mut rng, id)
        };
        frames.push(frame);
    }
    frames
}

fn gen_prices(rng: &mut StdRng) -> (f64, f64) {
    // Inside the default provider caps (10 edge, 8 cloud), above cost.
    (rng.gen_range(2.1..9.5), rng.gen_range(1.1..7.5))
}

fn gen_small(rng: &mut StdRng, id: u64, deadline_ms: u64) -> Frame {
    let (pe, pc) = gen_prices(rng);
    let mode_roll = rng.gen_range(0u32..5);
    let n = rng.gen_range(3usize..8);
    let line = if mode_roll == 4 {
        // K = 3 provider-vector frame: the daemon reduces it to the
        // (edge, cheapest cloud) pair and reports the Bertrand split.
        let pc2 = pc + rng.gen_range(0.2..1.0);
        let mode = if rng.gen_bool(0.5) { "connected" } else { "standalone" };
        let budgets: Vec<String> = (0..n).map(|_| fmt(rng.gen_range(50.0..150.0))).collect();
        format!(
            r#"{{"id":{id},"mode":"{mode}","providers":[{},{},{}],"budgets":[{}],"deadline_ms":{deadline_ms}}}"#,
            fmt(pe),
            fmt(pc),
            fmt(pc2),
            budgets.join(","),
        )
    } else if mode_roll >= 2 {
        let mode = if mode_roll == 2 { "symmetric_connected" } else { "symmetric_standalone" };
        let budget = rng.gen_range(50.0..150.0);
        format!(
            r#"{{"id":{id},"mode":"{mode}","prices":{{"edge":{},"cloud":{}}},"budget":{},"n":{n},"deadline_ms":{deadline_ms}}}"#,
            fmt(pe),
            fmt(pc),
            fmt(budget),
        )
    } else {
        let mode = if mode_roll == 0 { "connected" } else { "standalone" };
        let budgets: Vec<String> = (0..n).map(|_| fmt(rng.gen_range(50.0..150.0))).collect();
        format!(
            r#"{{"id":{id},"mode":"{mode}","prices":{{"edge":{},"cloud":{}}},"budgets":[{}],"deadline_ms":{deadline_ms}}}"#,
            fmt(pe),
            fmt(pc),
            budgets.join(","),
        )
    };
    Frame { line, id: Some(id) }
}

fn gen_aggregate(rng: &mut StdRng, id: u64, deadline_ms: u64) -> Frame {
    // Large-N jobs cover the edge/cloud price ratio from the inverted band
    // (0.9) to a dear edge (3), inside the default caps and above cost. A
    // uniform population starts at the symmetric closed form of its price
    // regime, the all-edge corner included, so every ratio solves in a
    // sweep or two at any N.
    let (ratio, pc) = (rng.gen_range(0.9..3.0), rng.gen_range(2.4..3.3));
    let pe = ratio * pc;
    let mode = if rng.gen_bool(0.5) { "aggregate_connected" } else { "aggregate_standalone" };
    let n: usize = if rng.gen_bool(0.8) { 1_000 } else { 5_000 };
    let budget = rng.gen_range(50.0..150.0);
    let line = format!(
        r#"{{"id":{id},"mode":"{mode}","prices":{{"edge":{},"cloud":{}}},"budget":{},"n":{n},"deadline_ms":{deadline_ms}}}"#,
        fmt(pe),
        fmt(pc),
        fmt(budget),
    );
    Frame { line, id: Some(id) }
}

fn gen_poison(rng: &mut StdRng, id: u64) -> Frame {
    match rng.gen_range(0u32..8) {
        0 => Frame {
            // JSON null in a budget vector deserializes to NaN; the protocol
            // boundary must reject it as invalid_parameter.
            line: format!(
                r#"{{"id":{id},"mode":"connected","prices":{{"edge":4.0,"cloud":2.0}},"budgets":[100.0,null,80.0]}}"#
            ),
            id: Some(id),
        },
        1 => Frame {
            line: format!(
                r#"{{"id":{id},"mode":"standalone","prices":{{"edge":-3.0,"cloud":2.0}},"budgets":[100.0,80.0]}}"#
            ),
            id: Some(id),
        },
        2 => Frame {
            line: format!(
                r#"{{"id":{id},"mode":"symmetric_connected","prices":{{"edge":4.0,"cloud":2.0}},"budget":100.0,"n":1}}"#
            ),
            id: Some(id),
        },
        3 => Frame {
            line: format!(
                r#"{{"id":{id},"mode":"warp_drive","prices":{{"edge":4.0,"cloud":2.0}},"budgets":[100.0,80.0]}}"#
            ),
            id: Some(id),
        },
        4 => Frame { line: format!(r#"{{"id":{id},"verb":"frobnicate"}}"#), id: Some(id) },
        5 => Frame {
            // Degenerate provider vector: rejected as invalid_parameter.
            line: format!(
                r#"{{"id":{id},"mode":"connected","providers":[],"budgets":[100.0,80.0]}}"#
            ),
            id: Some(id),
        },
        6 => Frame {
            // Truncated mid-token: malformed, id unrecoverable.
            line: format!(r#"{{"id":{id},"verb":"sol"#),
            id: None,
        },
        _ => Frame { line: "!!! not json @@@".into(), id: None },
    }
}

/// The keep-alive repricing tail: one fixed heterogeneous population
/// re-solved along a drifting price path with `"warm": true`, ids following
/// the main mix. Pure in its inputs.
fn reprice_frames(count: usize, first_id: u64, deadline_ms: u64) -> Vec<Frame> {
    (0..count)
        .map(|k| {
            let id = first_id + k as u64;
            #[allow(clippy::cast_precision_loss)]
            let step = (k % 20) as f64;
            let (pe, pc) = (4.0 + 0.05 * step, 1.8 + 0.03 * step);
            let line = format!(
                r#"{{"id":{id},"mode":"connected","prices":{{"edge":{},"cloud":{}}},"budgets":[90.0,110.0,130.0],"deadline_ms":{deadline_ms},"warm":true}}"#,
                fmt(pe),
                fmt(pc),
            );
            Frame { line, id: Some(id) }
        })
        .collect()
}

/// Runs the load described by `cfg`.
///
/// # Errors
///
/// Returns a message on connection failures, stalls, missing responses, or
/// a violated throughput floor. Untyped responses are reported in the
/// outcome, not as an `Err` (the caller decides the exit code).
pub fn run(cfg: &LoadConfig) -> Result<LoadOutcome, String> {
    let spawned = match (&cfg.addr, cfg.spawn_workers) {
        (Some(_), _) => None,
        (None, Some(workers)) => {
            let defaults = ServerConfig::default();
            let sc = ServerConfig {
                workers,
                test_verbs: false,
                // Honor the run's requested deadline even when it exceeds
                // the serving default clamp: determinism runs rely on a
                // generous deadline so no shed is timing-dependent.
                max_deadline_ms: defaults.max_deadline_ms.max(cfg.deadline_ms),
                ..defaults
            };
            Some(server::spawn(sc).map_err(|e| format!("spawn server: {e}"))?)
        }
        (None, None) => return Err("need --addr HOST:PORT or --spawn WORKERS".into()),
    };
    let addr = match (&cfg.addr, &spawned) {
        (Some(a), _) => a.clone(),
        (None, Some((a, _, _))) => a.to_string(),
        (None, None) => unreachable!("checked above"),
    };

    let result = drive(cfg, &addr);

    if let Some((_, flag, handle)) = spawned {
        request_shutdown(&flag, DRAIN);
        let _ = handle.join();
    }
    result
}

#[allow(clippy::too_many_lines)]
fn drive(cfg: &LoadConfig, addr: &str) -> Result<LoadOutcome, String> {
    let frames = gen_frames(cfg.seed, cfg.requests, cfg.deadline_ms);
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_nodelay(true);
    let ctl = stream.try_clone().map_err(|e| format!("clone socket: {e}"))?;
    let read_half = stream.try_clone().map_err(|e| format!("clone socket: {e}"))?;

    let (rx_tx, rx) = mpsc::channel::<String>();
    let reader = std::thread::spawn(move || {
        let mut r = BufReader::new(read_half);
        let mut line = String::new();
        loop {
            line.clear();
            match r.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {
                    if rx_tx.send(line.trim().to_string()).is_err() {
                        break;
                    }
                }
            }
        }
    });

    let mut writer = BufWriter::new(stream);
    let window = cfg.window.max(1);
    let mut send_times: HashMap<u64, Instant> = HashMap::new();
    let mut latencies_ms: Vec<f64> = Vec::new();
    let mut responses: Vec<String> = Vec::with_capacity(frames.len());
    let mut converged = 0u64;
    let mut degraded = 0u64;
    let mut errors: HashMap<String, u64> = HashMap::new();
    let mut untyped = 0u64;
    let mut retried = 0u64;

    let tally = |class: &ResponseClass,
                 converged: &mut u64,
                 degraded: &mut u64,
                 errors: &mut HashMap<String, u64>,
                 untyped: &mut u64| match class {
        ResponseClass::Converged => *converged += 1,
        ResponseClass::Degraded => *degraded += 1,
        ResponseClass::Ok => {}
        ResponseClass::Error(Some(kind)) => *errors.entry(kind.clone()).or_insert(0) += 1,
        ResponseClass::Error(None) | ResponseClass::Untyped => *untyped += 1,
    };

    let start = Instant::now();
    // Send queue: `(frame index, attempt)`. Overloaded sheds re-enqueue the
    // same frame with `attempt + 1` (bounded by `cfg.retries`), so a frame
    // keeps its id and byte content across attempts.
    let mut pending: std::collections::VecDeque<(usize, u32)> =
        (0..frames.len()).map(|i| (i, 0)).collect();
    let mut attempt_by_id: HashMap<u64, (usize, u32)> = HashMap::new();
    let mut in_flight = 0usize;
    let mut finals = 0usize;
    while finals < frames.len() {
        while in_flight < window {
            let Some((idx, attempt)) = pending.pop_front() else { break };
            let frame = &frames[idx];
            if let Some(id) = frame.id {
                send_times.insert(id, Instant::now());
                attempt_by_id.insert(id, (idx, attempt));
            }
            writer
                .write_all(frame.line.as_bytes())
                .and_then(|()| writer.write_all(b"\n"))
                .map_err(|e| format!("send frame {idx}: {e}"))?;
            in_flight += 1;
        }
        writer.flush().map_err(|e| format!("flush: {e}"))?;
        match rx.recv_timeout(cfg.stall_timeout) {
            Ok(line) => {
                in_flight = in_flight.saturating_sub(1);
                let (id, class) = classify_line(&line);
                if let Some(id) = id {
                    if let Some(t0) = send_times.remove(&id) {
                        latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    }
                }
                // Bounded retry on overload: the shed response is absorbed
                // (kept out of the tallies and the dump multiset) and the
                // identical frame goes back on the queue after a
                // deterministic seeded backoff.
                let retry_slot = match (&class, id) {
                    (ResponseClass::Error(Some(kind)), Some(id)) if kind == "overloaded" => {
                        attempt_by_id
                            .get(&id)
                            .copied()
                            .filter(|&(_, attempt)| (attempt as usize) < cfg.retries)
                            .map(|slot| (id, slot))
                    }
                    _ => None,
                };
                if let Some((id, (idx, attempt))) = retry_slot {
                    retried += 1;
                    std::thread::sleep(retry_backoff(cfg.seed, id, attempt));
                    pending.push_back((idx, attempt + 1));
                } else {
                    tally(&class, &mut converged, &mut degraded, &mut errors, &mut untyped);
                    responses.push(line);
                    finals += 1;
                }
            }
            Err(_) => {
                return Err(format!(
                    "stalled: {finals}/{} final responses ({in_flight} in flight, \
                     {retried} retried) after {:?} of silence (a hung frame is a protocol bug)",
                    frames.len(),
                    cfg.stall_timeout
                ))
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64();

    // Keep-alive repricing tail: strictly sequential (one response awaited
    // per send), so each warm solve continues from the previous equilibrium
    // on this connection's warm slot and the response bytes are independent
    // of the worker count.
    let tail = reprice_frames(cfg.reprice, frames.len() as u64 + 1, cfg.deadline_ms);
    for (k, frame) in tail.iter().enumerate() {
        if let Some(id) = frame.id {
            send_times.insert(id, Instant::now());
        }
        writer
            .write_all(frame.line.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush())
            .map_err(|e| format!("send reprice frame {k}: {e}"))?;
        match rx.recv_timeout(cfg.stall_timeout) {
            Ok(line) => {
                let (id, class) = classify_line(&line);
                if let Some(id) = id {
                    if let Some(t0) = send_times.remove(&id) {
                        latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    }
                }
                tally(&class, &mut converged, &mut degraded, &mut errors, &mut untyped);
                responses.push(line);
            }
            Err(_) => {
                return Err(format!(
                    "stalled: reprice frame {k} unanswered after {:?} of silence",
                    cfg.stall_timeout
                ))
            }
        }
    }

    // End-of-run health snapshot over the same connection.
    let health = if cfg.health_out.is_some() || cfg.telemetry_out.is_some() {
        writer
            .write_all(b"{\"id\":999999999,\"verb\":\"health\"}\n")
            .and_then(|()| writer.flush())
            .map_err(|e| format!("health frame: {e}"))?;
        match rx.recv_timeout(cfg.stall_timeout) {
            Ok(line) => {
                serde_json::from_str::<Value>(&line).ok().and_then(|v| v.get("health").cloned())
            }
            Err(_) => None,
        }
    } else {
        None
    };

    let _ = ctl.shutdown(Shutdown::Both);
    drop(writer);
    let _ = reader.join();

    latencies_ms.sort_by(f64::total_cmp);
    let quantile = |q: f64| -> f64 {
        if latencies_ms.is_empty() {
            return 0.0;
        }
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss
        )]
        let idx = ((latencies_ms.len() - 1) as f64 * q).round() as usize;
        latencies_ms[idx.min(latencies_ms.len() - 1)]
    };
    #[allow(clippy::cast_precision_loss)]
    let req_per_sec = if elapsed > 0.0 { frames.len() as f64 / elapsed } else { 0.0 };
    let mut errors: Vec<(String, u64)> = errors.into_iter().collect();
    errors.sort();
    let outcome = LoadOutcome {
        sent: frames.len() + tail.len(),
        converged,
        degraded,
        errors,
        untyped,
        retried,
        req_per_sec,
        p50_ms: quantile(0.50),
        p99_ms: quantile(0.99),
    };

    if let Some(path) = &cfg.dump {
        responses.sort();
        let mut doc = responses.join("\n");
        doc.push('\n');
        std::fs::write(path, doc).map_err(|e| format!("write {path}: {e}"))?;
    }
    if let Some(path) = &cfg.bench_out {
        write_bench_record(path, cfg, &outcome)?;
    }
    if let Some(path) = &cfg.health_out {
        let body = health.clone().unwrap_or(Value::Null);
        let doc = serde_json::to_string_pretty(&body).map_err(|e| format!("render health: {e}"))?;
        std::fs::write(path, doc).map_err(|e| format!("write {path}: {e}"))?;
    }
    if let Some(path) = &cfg.telemetry_out {
        write_telemetry(path, cfg, &outcome, health.as_ref())?;
    }

    if cfg.floor_rps > 0.0 && outcome.req_per_sec < cfg.floor_rps {
        return Err(format!(
            "throughput floor violated: {:.1} req/s < {:.1} req/s",
            outcome.req_per_sec, cfg.floor_rps
        ));
    }
    Ok(outcome)
}

/// Typed shape of one response line.
enum ResponseClass {
    Converged,
    Degraded,
    Ok,
    /// A typed error response and its `error.kind` (when present).
    Error(Option<String>),
    Untyped,
}

/// Parses one response line into its correlation id and typed class.
fn classify_line(line: &str) -> (Option<u64>, ResponseClass) {
    let Ok(v) = serde_json::from_str::<Value>(line) else {
        return (None, ResponseClass::Untyped);
    };
    let id = match v.get("id") {
        Some(Value::U64(id)) => Some(*id),
        _ => None,
    };
    let class = match v.get("status") {
        Some(Value::Str(s)) if s == "Converged" => ResponseClass::Converged,
        Some(Value::Str(s)) if s == "Degraded" => ResponseClass::Degraded,
        Some(Value::Str(s)) if s == "Ok" => ResponseClass::Ok,
        Some(Value::Str(s)) if s == "Error" => {
            ResponseClass::Error(v.get("error").and_then(|e| e.get("kind")).and_then(|k| match k {
                Value::Str(s) => Some(s.clone()),
                _ => None,
            }))
        }
        _ => ResponseClass::Untyped,
    };
    (id, class)
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Backoff before re-sending an overloaded frame: exponential base
/// (4 ms · 2^attempt, capped at 256 ms) with seeded jitter in the upper
/// half of the interval. A pure function of `(seed, id, attempt)` so two
/// runs with the same seed back off identically regardless of timing.
fn retry_backoff(seed: u64, id: u64, attempt: u32) -> Duration {
    let base_ms = 4u64 << attempt.min(6);
    let h = splitmix64(seed ^ id.rotate_left(32) ^ u64::from(attempt).wrapping_mul(0xA5A5_A5A5));
    let jitter = h % (base_ms / 2 + 1);
    Duration::from_millis(base_ms / 2 + jitter)
}

fn write_bench_record(path: &str, cfg: &LoadConfig, out: &LoadOutcome) -> Result<(), String> {
    let record = Value::Map(vec![
        ("name".into(), Value::Str("serve_sustained_throughput".into())),
        ("workers".into(), Value::U64(cfg.spawn_workers.unwrap_or(0) as u64)),
        ("requests".into(), Value::U64(out.sent as u64)),
        ("seed".into(), Value::U64(cfg.seed)),
        ("converged".into(), Value::U64(out.converged)),
        ("degraded".into(), Value::U64(out.degraded)),
        ("typed_errors".into(), Value::U64(out.error_total())),
        ("untyped".into(), Value::U64(out.untyped)),
        ("retried".into(), Value::U64(out.retried)),
        ("req_per_sec".into(), Value::F64(out.req_per_sec)),
        ("p50_ms".into(), Value::F64(out.p50_ms)),
        ("p99_ms".into(), Value::F64(out.p99_ms)),
        ("deadline_ms".into(), Value::U64(cfg.deadline_ms)),
        ("floor_rps".into(), Value::F64(cfg.floor_rps)),
    ]);
    let doc = Value::Map(vec![("benches".into(), Value::Seq(vec![record]))]);
    let body = serde_json::to_string_pretty(&doc).map_err(|e| format!("render bench: {e}"))?;
    std::fs::write(path, body).map_err(|e| format!("write {path}: {e}"))
}

fn write_telemetry(
    path: &str,
    cfg: &LoadConfig,
    out: &LoadOutcome,
    health: Option<&Value>,
) -> Result<(), String> {
    let snapshot = mbm_obs::global().snapshot();
    let meta = vec![
        ("source".to_string(), Value::Str("mbm-serve-load".into())),
        ("seed".to_string(), Value::U64(cfg.seed)),
        ("requests".to_string(), Value::U64(out.sent as u64)),
        ("req_per_sec".to_string(), Value::F64(out.req_per_sec)),
        ("p99_ms".to_string(), Value::F64(out.p99_ms)),
        ("health".to_string(), health.cloned().unwrap_or(Value::Null)),
    ];
    let doc = mbm_exp::obs_bridge::telemetry_document(&snapshot, meta);
    let body = serde_json::to_string_pretty(&doc).map_err(|e| format!("render telemetry: {e}"))?;
    std::fs::write(path, body).map_err(|e| format!("write {path}: {e}"))
}

/// Entry point for the `servebench` binary in `mbm-bench`: a self-contained
/// spawn-mode run (ephemeral port, auto-sized worker pool) that emits the
/// `serve_sustained_throughput` bench record alongside the bench1 flow.
///
/// Usage: `servebench [bench.json] [telemetry.json]` — defaults to
/// `SERVE_BENCH.json` and no telemetry document.
#[must_use]
pub fn main_servebench() -> i32 {
    let mut args = std::env::args().skip(1);
    let bench_out = args.next().unwrap_or_else(|| "SERVE_BENCH.json".into());
    let cfg = LoadConfig {
        spawn_workers: Some(0),
        requests: 200,
        // Generous deadline: this measures sustained throughput, not
        // shedding behaviour, so no job should be shed by queue wait.
        deadline_ms: 600_000,
        bench_out: Some(bench_out.clone()),
        telemetry_out: args.next(),
        ..LoadConfig::default()
    };
    match run(&cfg) {
        Ok(out) => {
            println!("{}", summarize(&out));
            println!("servebench: wrote {bench_out}");
            i32::from(out.untyped > 0)
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            1
        }
    }
}

/// One-line human summary for the CLI.
#[must_use]
pub fn summarize(out: &LoadOutcome) -> String {
    let errors: Vec<String> = out.errors.iter().map(|(k, n)| format!("{k}={n}")).collect();
    format!(
        "sent={} converged={} degraded={} errors=[{}] untyped={} retried={} rate={:.1} req/s p50={:.1} ms p99={:.1} ms",
        out.sent,
        out.converged,
        out.degraded,
        errors.join(","),
        out.untyped,
        out.retried,
        out.req_per_sec,
        out.p50_ms,
        out.p99_ms,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_mix_is_a_pure_function_of_the_seed() {
        let a = gen_frames(7, 64, 1000);
        let b = gen_frames(7, 64, 1000);
        let lines_a: Vec<&str> = a.iter().map(|f| f.line.as_str()).collect();
        let lines_b: Vec<&str> = b.iter().map(|f| f.line.as_str()).collect();
        assert_eq!(lines_a, lines_b);
        let c = gen_frames(8, 64, 1000);
        let lines_c: Vec<&str> = c.iter().map(|f| f.line.as_str()).collect();
        assert_ne!(lines_a, lines_c, "different seeds should differ");
    }

    #[test]
    fn retry_backoff_is_deterministic_bounded_and_id_sensitive() {
        for attempt in 0..10 {
            let base = 4u64 << attempt.min(6);
            let d = retry_backoff(42, 7, attempt);
            assert_eq!(d, retry_backoff(42, 7, attempt), "same inputs, same delay");
            assert!(d.as_millis() as u64 >= base / 2 && d.as_millis() as u64 <= base);
        }
        let distinct: std::collections::HashSet<Duration> =
            (0..32).map(|id| retry_backoff(42, id, 3)).collect();
        assert!(distinct.len() > 8, "jitter should spread across ids ({})", distinct.len());
    }

    #[test]
    fn overload_sheds_are_retried_to_completion_on_a_tiny_queue() {
        // One worker, queue of 2, window of 16: the mix overruns admission
        // and sheds, and bounded retries must absorb every shed. With
        // retries the tallied outcomes contain no `overloaded` error.
        let sc = server::ServerConfig {
            workers: 1,
            queue_capacity: 2,
            test_verbs: false,
            ..server::ServerConfig::default()
        };
        let (addr, flag, handle) = server::spawn(sc).expect("spawn tiny server");
        let cfg = LoadConfig {
            addr: Some(addr.to_string()),
            requests: 60,
            window: 16,
            retries: 50,
            deadline_ms: 60_000,
            ..LoadConfig::default()
        };
        let out = drive(&cfg, &addr.to_string()).expect("run completes");
        request_shutdown(&flag, DRAIN);
        let _ = handle.join();
        assert_eq!(out.untyped, 0);
        assert!(
            out.errors.iter().all(|(k, _)| k != "overloaded"),
            "overloaded sheds must be absorbed by retries: {:?}",
            out.errors
        );
        assert!(out.retried > 0, "a queue of 2 under a window of 16 must shed at least once");
    }

    #[test]
    fn frame_mix_contains_solves_and_poison() {
        let frames = gen_frames(42, 400, 1000);
        let poison = frames
            .iter()
            .filter(|f| {
                f.id.is_none()
                    || f.line.contains("null")
                    || f.line.contains("-3.0")
                    || f.line.contains("warp_drive")
                    || f.line.contains("frobnicate")
                    || f.line.contains(r#""n":1}"#)
                    || f.line.contains(r#""providers":[]"#)
            })
            .count();
        let aggregate = frames.iter().filter(|f| f.line.contains("aggregate_")).count();
        let k3 = frames.iter().filter(|f| f.line.contains(r#""providers":["#)).count()
            - frames.iter().filter(|f| f.line.contains(r#""providers":[]"#)).count();
        assert!(poison > 10, "poison tranche missing ({poison})");
        assert!(aggregate > 40, "aggregate tranche missing ({aggregate})");
        assert!(k3 > 10, "K = 3 provider-vector tranche missing ({k3})");
        assert!(frames.len() - poison - aggregate > 100, "small tranche missing");
    }
}
