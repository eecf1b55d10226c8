//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload serve-mixed|sweep-full|sweep-replay --seed N
//!           --seconds S --trace 0|1 --work-dir DIR --spec BENCHMARK.json
//! ```
//!
//! Each run sets its workload up several times (reporting the median as
//! `setup_s`), measures for `S` seconds, checks every output, and prints
//! as its last line one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. With `--trace 0` the metrics are the end-to-end ones;
//! with `--trace 1` they are the per-layer ones, measured from spans the
//! benchmark records around its own calls into the program. The metric
//! names and units are the ones `--spec` (the repository's
//! `BENCHMARK.json`) declares. See
//! `perfbench/README.md` for the workloads, the metric definitions and
//! the noise evidence behind the design.

mod serve;
mod stats;
mod sweep;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use serde::Value;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop serving through the in-process daemon.
    ServeMixed,
    /// The full experiment registry, in process, one thread.
    SweepFull,
    /// A seeded leader/oligopoly batch replayed from the disk store.
    SweepReplay,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "serve-mixed" => Some(Workload::ServeMixed),
            "sweep-full" => Some(Workload::SweepFull),
            "sweep-replay" => Some(Workload::SweepReplay),
            _ => None,
        }
    }
}

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct Run {
    /// Which workload to drive.
    pub workload: Workload,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measurement window in seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub traced: bool,
    /// Scratch directory inside the checkout (store files, span dumps).
    pub work_dir: PathBuf,
    /// `BENCHMARK.json`, which declares the metrics and their units.
    pub spec: PathBuf,
    /// Process start, the origin of the first set-up's clock.
    pub started: Instant,
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Correctness bookkeeping: every checked operation counts as attempted,
/// every operation with at least one violated gate counts as failed.
#[derive(Debug, Default)]
pub struct Gates {
    /// Operations checked.
    pub attempted: u64,
    /// Operations with a violated gate.
    pub failed: u64,
}

impl Gates {
    /// Records one checked operation; `problem` is `Some` when it violated
    /// a gate. The first few violations are printed to stderr.
    pub fn op(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("perfbench: violation: {p}");
            }
        }
    }
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Gate tallies.
    pub gates: Gates,
    /// Measured metrics by name.
    pub metrics: BTreeMap<String, f64>,
    /// Harness-level problems (a metric that could not be measured).
    pub errors: Vec<String>,
}

impl Outcome {
    /// Sets metric `name`.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }
}

fn parse_args(argv: &[String]) -> Result<Run, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut work_dir = None;
    let mut spec = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be positive".into());
                }
                #[allow(clippy::cast_precision_loss)]
                let s = s as f64;
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            "--work-dir" => work_dir = Some(PathBuf::from(value()?)),
            "--spec" => spec = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Run {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
        spec: spec.ok_or("--spec is required")?,
        started: Instant::now(),
    })
}

/// A metric list of `BENCHMARK.json`: names and units.
type Declared = Vec<(String, String)>;

/// The end-to-end and per-layer metrics `path` declares.
fn declared_metrics(path: &Path) -> Result<(Declared, Declared), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let spec =
        serde_json::from_str::<Value>(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
    let list = |key: &str| -> Result<Declared, String> {
        let entries = spec.get(key).and_then(Value::as_seq).ok_or(format!("no {key} list"))?;
        entries
            .iter()
            .map(|m| match (m.get("name"), m.get("unit")) {
                (Some(Value::Str(name)), Some(Value::Str(unit))) => {
                    Ok((name.clone(), unit.clone()))
                }
                _ => Err(format!("{key}: an entry lacks a name or unit")),
            })
            .collect()
    };
    Ok((list("end_to_end")?, list("per_layer")?))
}

/// Renders the result line. Values keep every digit Rust's shortest
/// round-trip formatting gives them.
fn result_line(correct: bool, gates: &Gates, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#))
        .collect();
    format!(
        r#"{{"correct":{correct},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        gates.attempted,
        gates.failed,
        body.join(",")
    )
}

fn main() {
    // One worker thread everywhere: the experiment pool, the aggregate
    // solver's fan-out, and anything else that sizes itself from
    // `MBM_PAR_THREADS`. Set before any thread exists, so no read races it.
    std::env::set_var("MBM_PAR_THREADS", "1");
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let run = match parse_args(&argv) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let (end_to_end, per_layer) = match declared_metrics(&run.spec) {
        Ok(lists) => lists,
        Err(e) => {
            eprintln!("perfbench: spec: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&run.work_dir) {
        eprintln!("perfbench: work dir {}: {e}", run.work_dir.display());
        std::process::exit(2);
    }
    println!(
        "perfbench: workload={:?} seed={} seconds={} trace={} nproc={} pool_threads={}",
        run.workload,
        run.seed,
        run.seconds,
        u8::from(run.traced),
        stats::nproc(),
        mbm_par::Pool::global().threads()
    );
    let ticks = stats::CpuTicks::read();
    let mut outcome = match run.workload {
        Workload::ServeMixed => serve::run(&run),
        Workload::SweepFull => sweep::run_full(&run),
        Workload::SweepReplay => sweep::run_replay(&run),
    };
    let steal = ticks.steal_pct_until(&stats::CpuTicks::read());
    outcome.set("rss_peak_mb", stats::rss_peak_mb());
    outcome.set("env.steal_pct", steal);
    #[allow(clippy::cast_precision_loss)]
    outcome.set("env.nproc", stats::nproc() as f64);
    #[allow(clippy::cast_precision_loss)]
    outcome.set("env.pool_threads", mbm_par::Pool::global().threads() as f64);
    println!("perfbench: env steal_pct={steal:.2} rss_peak_mb={:.1}", stats::rss_peak_mb());

    let wanted = if run.traced { &per_layer } else { &end_to_end };
    let mut errors = outcome.errors;
    // A metric name the spec does not declare is a typo that would
    // otherwise read 0 in every traced run.
    for name in outcome.metrics.keys() {
        if !end_to_end.iter().chain(&per_layer).any(|(n, _)| n == name) {
            errors.push(format!("metric {name} is not declared in BENCHMARK.json"));
        }
    }
    let mut metrics = Vec::with_capacity(wanted.len());
    for (name, unit) in wanted {
        // A traced run reports 0 for layers its workload never enters; an
        // end-to-end metric must always be measured.
        let value = match outcome.metrics.get(name) {
            Some(&v) => v,
            None if run.traced => 0.0,
            None => {
                errors.push(format!("end-to-end metric {name} was not measured"));
                0.0
            }
        };
        if !value.is_finite() {
            errors.push(format!("metric {name} is not finite"));
        }
        metrics.push((name.as_str(), if value.is_finite() { value } else { 0.0 }, unit.as_str()));
    }
    for e in &errors {
        eprintln!("perfbench: error: {e}");
    }
    let correct = errors.is_empty() && outcome.gates.failed == 0 && outcome.gates.attempted > 0;
    println!("{}", result_line(correct, &outcome.gates, &metrics));
}
