//! The `experiments` CLI.
//!
//! One runner serves all registered specs:
//!
//! ```text
//! experiments --list
//! experiments --all [--check] [--json DIR] [--telemetry PATH]
//! experiments --only fig8[,fig9a] [--json DIR] [ARGS...]
//! ```
//!
//! `--only <name>` runs the named specs at full resolution (trailing
//! positional `ARGS` are the specs' `arg_or` overrides). `--check` runs the
//! reduced-resolution smoke sweep; diagnostics go to stderr. `--json DIR`
//! writes one canonical `<name>.json` per rendered spec plus a
//! `batch.json` with the planner's dedup accounting and a `reports.json`
//! with every follower-solve report (including degraded cells);
//! `--telemetry PATH` enables the global recorder and snapshots it (plan
//! stats, per-task spans) after the run.
//!
//! # Exit status
//!
//! A spec that cannot render is reported on stderr and the rest of the
//! batch still prints and writes its outputs. With `--check` the run exits
//! 1 when any required solve failed, any spec did not render, or a
//! rendered table has no finite cell. Without `--check`, a spec that did
//! not render only because a required solve failed (counted in
//! `batch.json`'s `failures`) leaves the exit status at 0 — like the specs
//! that render such a failure as NaN rows — while any other render error
//! (a missing task, a kind mismatch, a rejected positional argument) exits
//! 1.
//!
//! # Fault-tolerance knobs
//!
//! * `--fault-plan SPEC` installs a deterministic [`mbm_faults::FaultPlan`]
//!   (`seed=42;site:kind@rate;...`) for the whole run; without the flag a
//!   non-empty `MBM_FAULT_PLAN` environment variable is honoured instead,
//!   and a malformed plan from either source aborts with exit code 2.
//! * `--deadline-ms N` bounds each follower solve's wall clock.
//! * `--degrade` switches every solve to best-effort supervision (one
//!   retry at halved damping, then the best-so-far iterate is returned as
//!   a `Degraded` report instead of an error).
//! * `--warm` opts into warm-started continuation batching: grid-shaped
//!   tasks that differ only in their price point run as sequential
//!   nearest-neighbor batches, each solve seeded from its predecessor's
//!   equilibrium (agrees with the cold run within certificate tolerance;
//!   without the flag the executor is bitwise-historical).
//! * `--store PATH` installs the disk-backed equilibrium memo at `PATH`
//!   (created on first use): converged strict solves are persisted under
//!   their exact-bit problem identity and replayed **bitwise** on later
//!   runs. Corrupted or torn stores are recovered (truncate to the last
//!   valid record) with the diagnosis reported on stderr, and every hit is
//!   re-certified against the configurable golden check before being
//!   served; `--store-golden off|feasibility|residual[:TOL]` selects the
//!   policy (default `residual`, tolerance `1e-6`).

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

use mbm_core::solver::memo::{self, GoldenCheck, MemoConfig};
use mbm_core::solver::{DegradeMode, SolvePolicy};
use serde::Value;

use crate::engine::{run_batch, Batch};
use crate::error::EngineError;
use crate::obs_bridge::telemetry_document;
use crate::spec::{find, registry, ExperimentSpec, Resolution, SpecCtx};

/// Parsed CLI options of the `experiments` binary.
#[derive(Debug, Default)]
struct Options {
    list: bool,
    all: bool,
    only: Vec<String>,
    check: bool,
    json: Option<PathBuf>,
    telemetry: Option<PathBuf>,
    fault_plan: Option<String>,
    deadline_ms: Option<u64>,
    degrade: bool,
    warm: bool,
    store: Option<PathBuf>,
    store_golden: Option<GoldenCheck>,
    /// Positional `arg_or` overrides (unparsable entries become NaN so
    /// later slots keep their position).
    args: Vec<f64>,
}

impl Options {
    /// Supervision policy implied by the fault-tolerance flags; the flagless
    /// default is the strict (bitwise-historical) policy.
    fn policy(&self) -> SolvePolicy {
        SolvePolicy {
            degrade: if self.degrade { DegradeMode::BestEffort } else { DegradeMode::Never },
            max_attempts: if self.degrade { 2 } else { 1 },
            backoff: 0.5,
            deadline: self.deadline_ms.map(Duration::from_millis),
        }
    }
}

const USAGE: &str = "usage: experiments (--list | --all | --only NAME[,NAME...]) \
[--check] [--json DIR] [--telemetry PATH] [--fault-plan SPEC] [--deadline-ms N] \
[--degrade] [--warm] [--store PATH] [--store-golden off|feasibility|residual[:TOL]] \
[ARGS...]";

fn parse(argv: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--list" => opts.list = true,
            "--all" => opts.all = true,
            "--check" => opts.check = true,
            "--only" => {
                let names = it.next().ok_or("--only needs a spec name")?;
                opts.only.extend(names.split(',').map(|s| s.trim().to_string()));
            }
            "--json" => {
                opts.json = Some(PathBuf::from(it.next().ok_or("--json needs a directory")?));
            }
            "--telemetry" => {
                opts.telemetry = Some(PathBuf::from(it.next().ok_or("--telemetry needs a path")?));
            }
            "--fault-plan" => {
                opts.fault_plan = Some(it.next().ok_or("--fault-plan needs a plan spec")?.clone());
            }
            "--deadline-ms" => {
                let raw = it.next().ok_or("--deadline-ms needs a positive integer")?;
                let ms: u64 = raw
                    .parse()
                    .map_err(|_| format!("--deadline-ms: not a positive integer: {raw}"))?;
                if ms == 0 {
                    return Err("--deadline-ms must be positive".to_string());
                }
                opts.deadline_ms = Some(ms);
            }
            "--degrade" => opts.degrade = true,
            "--warm" => opts.warm = true,
            "--store" => {
                opts.store = Some(PathBuf::from(it.next().ok_or("--store needs a path")?));
            }
            "--store-golden" => {
                let spec = it.next().ok_or("--store-golden needs a policy")?;
                opts.store_golden =
                    Some(GoldenCheck::parse(spec).map_err(|e| format!("--store-golden: {e}"))?);
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => opts.args.push(other.parse().unwrap_or(f64::NAN)),
        }
    }
    if !opts.list && !opts.all && opts.only.is_empty() {
        return Err(USAGE.to_string());
    }
    Ok(opts)
}

/// Entry point of the `experiments` binary; returns the process exit code.
#[must_use]
pub fn main_experiments() -> i32 {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&argv) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return 2;
        }
    };
    if opts.list {
        for spec in registry() {
            println!("{:<12} {}", spec.name, spec.summary);
        }
        return 0;
    }

    let specs: Vec<ExperimentSpec> = if opts.all {
        registry()
    } else {
        let mut selected = Vec::new();
        for name in &opts.only {
            match find(name) {
                Ok(s) => selected.push(s),
                Err(e) => {
                    eprintln!("experiments: {e}");
                    return 2;
                }
            }
        }
        selected
    };
    let ctx = SpecCtx {
        resolution: if opts.check { Resolution::Check } else { Resolution::Full },
        args: opts.args.clone(),
    };
    if opts.telemetry.is_some() {
        mbm_obs::global().set_enabled(true);
    }

    // Deterministic fault injection: an explicit --fault-plan wins over the
    // MBM_FAULT_PLAN environment variable; a typo in either is a hard error
    // rather than a silently fault-free run.
    let plan = match &opts.fault_plan {
        Some(spec) => match mbm_faults::FaultPlan::parse(spec) {
            Ok(plan) => Some(plan),
            Err(e) => {
                eprintln!("experiments: --fault-plan: {e}");
                return 2;
            }
        },
        None => match mbm_faults::FaultPlan::from_env() {
            Ok(plan) => plan,
            Err(e) => {
                eprintln!("experiments: MBM_FAULT_PLAN: {e}");
                return 2;
            }
        },
    };
    let _fault_guard = plan.map(mbm_faults::install);

    // Disk-backed equilibrium memo: converged strict solves persist across
    // runs and replay bitwise. Opened with recovery — a corrupted store is
    // truncated to its last valid record and reported, never trusted.
    let _memo_guard = match &opts.store {
        Some(path) => {
            let cfg = MemoConfig {
                golden: opts.store_golden.unwrap_or_default(),
                ..MemoConfig::default()
            };
            match memo::open_and_install(path, cfg, mbm_store::StoreOptions::default()) {
                Ok((guard, summary)) => {
                    if let Some(diagnosis) = &summary.diagnosis {
                        eprintln!(
                            "experiments: --store: recovered {} ({} bytes truncated, \
                             {} record(s) kept{})",
                            diagnosis,
                            summary.truncated_bytes,
                            summary.records,
                            if summary.rebuilt { ", file rebuilt" } else { "" },
                        );
                    }
                    memo::reset_stats();
                    Some(guard)
                }
                Err(e) => {
                    eprintln!("experiments: --store: {e}");
                    return 2;
                }
            }
        }
        None => None,
    };

    let batch = run_batch(&specs, &ctx, mbm_par::Pool::global(), opts.policy(), opts.warm);
    for result in &batch.results {
        print!("{}", result.render());
    }
    for (spec, error) in &batch.unrendered {
        eprintln!("experiments: {spec}: {error}");
    }

    let mut code = if opts.check {
        check_batch(&batch)
    } else {
        // A spec lost to a failed required solve is already counted in
        // `failures`; only a spec-level render error fails the run.
        let spec_error =
            batch.unrendered.iter().any(|(_, e)| !matches!(e, EngineError::TaskFailed { .. }));
        i32::from(spec_error)
    };
    if let Some(dir) = &opts.json {
        if let Err(e) = write_json(dir, &batch) {
            eprintln!("experiments: --json: {e}");
            code = 1;
        }
    }
    if let Some(path) = &opts.telemetry {
        if let Err(e) = write_telemetry(path, &batch, &ctx) {
            eprintln!("experiments: --telemetry: {e}");
            code = 1;
        }
    }
    if let Some(path) = &opts.store {
        if let Err(e) = memo::flush() {
            eprintln!("experiments: --store: flush: {e}");
            code = 1;
        }
        let s = memo::stats();
        eprintln!(
            "experiments: store {}: hits={} misses={} rejected={} appends={} \
             append_errors={} skipped={} collisions={}",
            path.display(),
            s.hits,
            s.misses,
            s.rejected,
            s.appends,
            s.append_errors,
            s.skipped,
            s.collisions,
        );
    }
    code
}

/// `--check` policy: every required solve must succeed, every spec must
/// render, and every rendered table must contain at least one finite data
/// cell. Degraded solves are reported on stderr but do not fail the check —
/// a best-so-far answer with a residual certificate is an acceptable
/// outcome under fault injection.
fn check_batch(batch: &Batch) -> i32 {
    let mut code = 0;
    let degraded = batch.degraded_count();
    if degraded > 0 {
        eprintln!("experiments: check: {degraded} degraded solve(s) returned best-so-far answers");
    }
    for (spec, failure) in &batch.failures {
        eprintln!(
            "experiments: check: {spec}: required {} solve failed: {}",
            failure.kind, failure.error
        );
        code = 1;
    }
    if !batch.unrendered.is_empty() {
        eprintln!("experiments: check: {} spec(s) did not render", batch.unrendered.len());
        code = 1;
    }
    for result in &batch.results {
        for table in &result.tables {
            if !table.has_finite_cell() {
                eprintln!(
                    "experiments: check: {}: table {:?} has no finite cell",
                    result.name, table.title
                );
                code = 1;
            }
        }
    }
    code
}

fn write_json(dir: &Path, batch: &Batch) -> Result<(), String> {
    fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    for result in &batch.results {
        let json = serde_json::to_string_pretty(result).map_err(|e| e.to_string())?;
        fs::write(dir.join(format!("{}.json", result.name)), json + "\n")
            .map_err(|e| e.to_string())?;
    }
    let stats = &batch.stats;
    let summary = Value::Map(vec![
        ("specs".into(), Value::U64(stats.specs as u64)),
        ("tasks_requested".into(), Value::U64(stats.requested as u64)),
        ("tasks_unique".into(), Value::U64(stats.unique as u64)),
        ("dedup_hits".into(), Value::U64(stats.dedup_hits as u64)),
        ("cross_spec_hits".into(), Value::U64(stats.cross_spec_hits as u64)),
        ("hit_rate".into(), Value::F64(stats.hit_rate())),
        ("cross_spec_hit_rate".into(), Value::F64(stats.cross_spec_hit_rate())),
        ("failures".into(), Value::U64(batch.failures.len() as u64)),
        ("reports".into(), Value::U64(batch.reports.len() as u64)),
        ("degraded".into(), Value::U64(batch.degraded_count() as u64)),
    ]);
    let json = serde_json::to_string_pretty(&summary).map_err(|e| e.to_string())?;
    fs::write(dir.join("batch.json"), json + "\n").map_err(|e| e.to_string())?;
    let reports = serde_json::to_string_pretty(&batch.reports).map_err(|e| e.to_string())?;
    fs::write(dir.join("reports.json"), reports + "\n").map_err(|e| e.to_string())
}

fn write_telemetry(path: &Path, batch: &Batch, ctx: &SpecCtx) -> Result<(), String> {
    let meta = vec![
        (
            "resolution".into(),
            Value::Str(if ctx.resolution == Resolution::Check { "check" } else { "full" }.into()),
        ),
        ("specs".into(), Value::U64(batch.stats.specs as u64)),
        ("tasks_unique".into(), Value::U64(batch.stats.unique as u64)),
        ("cross_spec_hit_rate".into(), Value::F64(batch.stats.cross_spec_hit_rate())),
    ];
    let doc = telemetry_document(&mbm_obs::global().snapshot(), meta);
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent).map_err(|e| e.to_string())?;
        }
    }
    let json = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    fs::write(path, json + "\n").map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_handles_the_documented_flags() {
        let argv: Vec<String> =
            ["--only", "fig4,fig5", "--json", "out", "4.5", "200"].map(String::from).to_vec();
        let opts = parse(&argv).unwrap();
        assert_eq!(opts.only, vec!["fig4", "fig5"]);
        assert_eq!(opts.json.as_deref(), Some(Path::new("out")));
        assert_eq!(opts.args, vec![4.5, 200.0]);
        assert!(!opts.check);
        assert!(opts.policy().is_strict());
        assert!(parse(&["--bogus".to_string()]).is_err());
        assert!(parse(&[]).is_err());
    }

    #[test]
    fn parse_handles_the_fault_tolerance_flags() {
        let argv: Vec<String> = [
            "--all",
            "--fault-plan",
            "seed=42;exp.task:panic@64",
            "--deadline-ms",
            "2500",
            "--degrade",
        ]
        .map(String::from)
        .to_vec();
        let opts = parse(&argv).unwrap();
        assert_eq!(opts.fault_plan.as_deref(), Some("seed=42;exp.task:panic@64"));
        assert_eq!(opts.deadline_ms, Some(2500));
        assert!(opts.degrade);
        assert!(!opts.warm);
        let policy = opts.policy();
        assert!(!policy.is_strict());
        assert_eq!(policy.max_attempts, 2);
        assert_eq!(policy.deadline, Some(Duration::from_millis(2500)));

        assert!(parse(&["--all".into(), "--warm".into()]).unwrap().warm);
        let store = parse(&[
            "--all".into(),
            "--store".into(),
            "eq.store".into(),
            "--store-golden".into(),
            "residual:1e-4".into(),
        ])
        .unwrap();
        assert_eq!(store.store.as_deref(), Some(Path::new("eq.store")));
        assert_eq!(store.store_golden, Some(GoldenCheck::Residual { tol: 1e-4 }));
        assert!(parse(&["--all".into(), "--store".into()]).is_err());
        assert!(parse(&["--all".into(), "--store-golden".into(), "sometimes".into()]).is_err());
        assert!(parse(&["--all".into(), "--deadline-ms".into(), "0".into()]).is_err());
        assert!(parse(&["--all".into(), "--deadline-ms".into(), "soon".into()]).is_err());
        assert!(parse(&["--all".into(), "--fault-plan".into()]).is_err());
    }
}
