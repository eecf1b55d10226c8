//! Deterministic fault injection and cooperative solve supervision
//! (`mbm-faults`).
//!
//! The tiered follower solver escalates on convergence failure, but nothing
//! in the pipeline *around* it proves that escalation, degradation, and
//! panic isolation actually work — a fault that only occurs on a pathological
//! parameter point is untestable unless it can be provoked on schedule. This
//! crate is that provocation mechanism, plus the runtime budget that keeps
//! every solve bounded:
//!
//! * [`FaultPlan`] — a seeded, rule-based schedule of injected faults
//!   ([`FaultKind`]: spurious non-convergence, NaN residuals,
//!   iteration-budget exhaustion, worker panics) addressed to named
//!   **injection sites** (`"numerics.vi.extragradient"`,
//!   `"game.br_dynamics"`, `"core.solver.tier"`, `"exp.task"`, ...).
//!   Whether a given [`probe`] call fires is a pure hash of
//!   `(plan seed, rule, site, task scope, per-site call counter)`, so a plan
//!   replays bit-for-bit at any thread count as long as each task installs
//!   its [`scope`] — tasks run serially on one worker, which makes the
//!   per-site counter sequence a function of the task alone.
//! * [`Supervision`] — a thread-local deadline and cancellation flag.
//!   Iterative kernels call [`probe`] once per outer iteration; when the
//!   deadline has passed (or the [`CancelToken`] was triggered) the probe
//!   reports an [`Interrupt`] and the kernel returns a typed error instead
//!   of spinning.
//!
//! Both mechanisms are **zero-cost when inactive**: [`probe`] first checks a
//! pair of relaxed atomics and returns `None` without hashing, locking, or
//! reading the clock. With no plan installed and no supervision in scope the
//! entire workspace behaves — bitwise — exactly as it does without this
//! crate.
//!
//! This crate is dependency-free (std only) and sits below `mbm-numerics` in
//! the workspace graph so every iterative kernel can host probes.
//!
//! ```
//! use mbm_faults::{probe, FaultPlan, Interrupt, FaultKind};
//!
//! // Nothing installed: probes are free and silent.
//! assert!(probe("numerics.vi.extragradient").is_none());
//!
//! // Install a plan that forces every fixed-point iterate to misconverge.
//! let plan = FaultPlan::parse("seed=7;numerics.fixed_point:misconverge@1").unwrap();
//! let _guard = mbm_faults::install(plan);
//! match probe("numerics.fixed_point") {
//!     Some(Interrupt::Fault(FaultKind::Misconverge)) => {}
//!     other => panic!("expected injected misconvergence, got {other:?}"),
//! }
//! assert!(probe("numerics.vi.extragradient").is_none()); // other sites untouched
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Canonical injection-site names, shared by every crate that hosts a
/// [`probe`] so fault plans and documentation agree on spelling.
pub mod sites {
    /// Outer iteration of the extragradient VI solver.
    pub const VI_EXTRAGRADIENT: &str = "numerics.vi.extragradient";
    /// Outer iteration of damped fixed-point iteration.
    pub const FIXED_POINT: &str = "numerics.fixed_point";
    /// Iterations of the scalar root finders (bisection, Brent, Newton).
    pub const ROOTS: &str = "numerics.roots";
    /// Sweeps of best-response dynamics.
    pub const BR_DYNAMICS: &str = "game.br_dynamics";
    /// Iterations of the solver's one symmetric fixed-point kernel.
    pub const SYMMETRIC_FP: &str = "core.solver.symmetric_fp";
    /// Sweeps of the aggregate-form (SoA) population best-response solver.
    pub const AGGREGATE_SWEEP: &str = "core.solver.aggregate_sweep";
    /// Tier boundaries of the tiered follower solver.
    pub const SOLVER_TIER: &str = "core.solver.tier";
    /// Task boundaries in the experiment executor.
    pub const EXP_TASK: &str = "exp.task";
    /// Job boundaries in the `mbm-serve` worker pool (probed once per
    /// admitted request before the solve starts).
    pub const SERVE_JOB: &str = "serve.job";
    /// Record reads in the persistent equilibrium store (`mbm-store`):
    /// probed once per record while scanning a file open and once per
    /// memo lookup that goes to the byte layer.
    pub const STORE_READ: &str = "store.read";
    /// Record appends in the persistent equilibrium store: probed once per
    /// record write, before any bytes reach the file.
    pub const STORE_APPEND: &str = "store.append";
}

/// What an injected fault forces the probed code path to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum FaultKind {
    /// Report spurious non-convergence at the current iterate (exercises
    /// tier escalation and retry policies).
    Misconverge,
    /// Report non-convergence with a `NaN` residual (exercises non-finite
    /// handling in telemetry, reports, and degradation certificates).
    NanResidual,
    /// Pretend the iteration budget is exhausted (exercises bounded-retry
    /// accounting: the error carries `max_iter`, not the true count).
    ExhaustBudget,
    /// Panic at the probe site (exercises worker panic isolation). The
    /// probe itself panics with a recognizable message; nothing is
    /// returned.
    Panic,
    /// Fail an I/O operation outright (exercises typed `StoreError`
    /// propagation: the operation reports an OS-level error without
    /// touching the file).
    IoError,
    /// Write only a prefix of the record, then fail (exercises torn-write
    /// recovery: the tail must be truncated to the last valid record on the
    /// next open).
    TornWrite,
    /// Flip a byte in the data being read or written (exercises checksum
    /// verification: the record must be rejected, never served).
    Corrupt,
}

impl FaultKind {
    fn parse(s: &str) -> Option<FaultKind> {
        match s {
            "misconverge" => Some(FaultKind::Misconverge),
            "nan" => Some(FaultKind::NanResidual),
            "exhaust" => Some(FaultKind::ExhaustBudget),
            "panic" => Some(FaultKind::Panic),
            "io_error" => Some(FaultKind::IoError),
            "torn_write" => Some(FaultKind::TornWrite),
            "corrupt" => Some(FaultKind::Corrupt),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            FaultKind::Misconverge => "misconverge",
            FaultKind::NanResidual => "nan",
            FaultKind::ExhaustBudget => "exhaust",
            FaultKind::Panic => "panic",
            FaultKind::IoError => "io_error",
            FaultKind::TornWrite => "torn_write",
            FaultKind::Corrupt => "corrupt",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One injection rule: *at site(s) matching `site`, fire `kind` whenever the
/// schedule hash lands on a multiple of `rate`*.
///
/// `rate = 1` fires on every probe; `rate = n` fires on roughly one in `n`
/// probes, chosen deterministically by hashing — not by modular arithmetic
/// on the counter — so different tasks see different (but reproducible)
/// subsets of their probes fail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRule {
    /// Site pattern: an exact site name, a `prefix.*` wildcard, or `*`.
    pub site: String,
    /// The fault to inject when the rule fires.
    pub kind: FaultKind,
    /// Firing rate denominator (≥ 1). `1` means every matching probe.
    pub rate: u64,
}

impl FaultRule {
    fn matches(&self, site: &str) -> bool {
        if self.site == "*" {
            return true;
        }
        if let Some(prefix) = self.site.strip_suffix('*') {
            return site.starts_with(prefix);
        }
        self.site == site
    }
}

/// A seeded, deterministic schedule of faults to inject.
///
/// Parsed from a compact spec (see [`FaultPlan::parse`]) or built directly.
/// Install with [`install`]; the returned guard restores the previous plan
/// on drop so tests can nest plans safely.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed mixed into every firing decision; two plans with the same rules
    /// but different seeds fire on different probe subsets.
    pub seed: u64,
    /// Injection rules, checked in order; the first matching rule that
    /// fires wins.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// Parses a plan spec of the form
    /// `"seed=42;site:kind@rate;site:kind@rate;..."`.
    ///
    /// * the optional leading `seed=N` segment sets [`FaultPlan::seed`]
    ///   (default 0);
    /// * every other segment is `site:kind@rate` where `kind` is one of
    ///   `misconverge`, `nan`, `exhaust`, `panic` and `rate ≥ 1`
    ///   (`@rate` may be omitted and defaults to 1);
    /// * `site` may end in `*` for prefix matching.
    ///
    /// This is the format accepted by the `MBM_FAULT_PLAN` environment
    /// variable and the `experiments --fault-plan` flag.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed segment.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for segment in spec.split(';').map(str::trim).filter(|s| !s.is_empty()) {
            if let Some(seed) = segment.strip_prefix("seed=") {
                plan.seed = seed
                    .trim()
                    .parse::<u64>()
                    .map_err(|e| format!("bad seed {seed:?} in fault plan: {e}"))?;
                continue;
            }
            let (site, rest) = segment
                .split_once(':')
                .ok_or_else(|| format!("fault rule {segment:?} is not site:kind[@rate]"))?;
            let (kind_str, rate_str) = match rest.split_once('@') {
                Some((k, r)) => (k, Some(r)),
                None => (rest, None),
            };
            let kind = FaultKind::parse(kind_str.trim()).ok_or_else(|| {
                format!(
                    "unknown fault kind {kind_str:?} \
                     (expected misconverge|nan|exhaust|panic|io_error|torn_write|corrupt)"
                )
            })?;
            let rate = match rate_str {
                Some(r) => {
                    let r: u64 = r
                        .trim()
                        .parse()
                        .map_err(|e| format!("bad rate {r:?} in fault rule {segment:?}: {e}"))?;
                    if r == 0 {
                        return Err(format!("rate must be >= 1 in fault rule {segment:?}"));
                    }
                    r
                }
                None => 1,
            };
            plan.rules.push(FaultRule { site: site.trim().to_owned(), kind, rate });
        }
        Ok(plan)
    }

    /// Reads a plan from the `MBM_FAULT_PLAN` environment variable, if set
    /// and non-empty.
    ///
    /// # Errors
    ///
    /// Propagates [`FaultPlan::parse`] errors so a typo'd CI variable fails
    /// loudly instead of silently running faultless.
    pub fn from_env() -> Result<Option<FaultPlan>, String> {
        match std::env::var("MBM_FAULT_PLAN") {
            Ok(spec) if !spec.trim().is_empty() => FaultPlan::parse(&spec).map(Some),
            _ => Ok(None),
        }
    }

    /// Renders the plan back into the spec format accepted by
    /// [`FaultPlan::parse`].
    #[must_use]
    pub fn to_spec(&self) -> String {
        let mut out = format!("seed={}", self.seed);
        for r in &self.rules {
            out.push_str(&format!(";{}:{}@{}", r.site, r.kind, r.rate));
        }
        out
    }
}

/// Why a probed computation must stop.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Interrupt {
    /// An injected fault fired at this probe.
    Fault(FaultKind),
    /// The supervision deadline has passed.
    DeadlineExceeded {
        /// Time elapsed past the start of supervision, in milliseconds.
        elapsed_ms: u64,
    },
    /// The supervision [`CancelToken`] was triggered.
    Cancelled,
}

impl fmt::Display for Interrupt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Interrupt::Fault(kind) => write!(f, "injected {kind} fault"),
            Interrupt::DeadlineExceeded { elapsed_ms } => {
                write!(f, "deadline exceeded after {elapsed_ms} ms")
            }
            Interrupt::Cancelled => f.write_str("cancelled"),
        }
    }
}

// ---------------------------------------------------------------------------
// Global plan + activity flags.
//
// `probe` must cost one-or-two relaxed loads when nothing is installed, so
// the "is anything active?" question is answered by atomics and the plan
// itself lives behind an RwLock that is only touched on the slow path.
// ---------------------------------------------------------------------------

static PLAN_ACTIVE: AtomicBool = AtomicBool::new(false);
static SUPERVISED: AtomicUsize = AtomicUsize::new(0);

fn plan_slot() -> &'static RwLock<Option<Arc<FaultPlan>>> {
    static SLOT: RwLock<Option<Arc<FaultPlan>>> = RwLock::new(None);
    &SLOT
}

fn tally_slot() -> &'static Mutex<BTreeMap<String, u64>> {
    static SLOT: Mutex<BTreeMap<String, u64>> = Mutex::new(BTreeMap::new());
    &SLOT
}

/// Installs `plan` process-wide, returning a guard that restores the
/// previously installed plan (usually none) on drop.
///
/// Installation is global because fault schedules must span every worker
/// thread; determinism comes from per-task [`scope`]s, not from thread
/// identity.
#[must_use = "dropping the guard immediately uninstalls the plan"]
pub fn install(plan: FaultPlan) -> PlanGuard {
    let mut slot = plan_slot().write().unwrap_or_else(std::sync::PoisonError::into_inner);
    let previous = slot.replace(Arc::new(plan));
    PLAN_ACTIVE.store(true, Ordering::Release);
    PlanGuard { previous }
}

/// Guard returned by [`install`]; restores the previous plan when dropped.
#[derive(Debug)]
pub struct PlanGuard {
    previous: Option<Arc<FaultPlan>>,
}

impl Drop for PlanGuard {
    fn drop(&mut self) {
        let mut slot = plan_slot().write().unwrap_or_else(std::sync::PoisonError::into_inner);
        *slot = self.previous.take();
        PLAN_ACTIVE.store(slot.is_some(), Ordering::Release);
    }
}

/// The currently installed plan, if any.
#[must_use]
pub fn installed_plan() -> Option<FaultPlan> {
    if !PLAN_ACTIVE.load(Ordering::Acquire) {
        return None;
    }
    plan_slot()
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .as_ref()
        .map(|p| (**p).clone())
}

/// Whether any probe could currently do work (a plan is installed or at
/// least one supervision guard is live). Hot paths may use this to skip
/// preparing probe arguments.
#[must_use]
pub fn active() -> bool {
    PLAN_ACTIVE.load(Ordering::Relaxed) || SUPERVISED.load(Ordering::Relaxed) > 0
}

/// Per-site counts of faults injected since the last [`reset_tally`].
/// Keys are `"<site>:<kind>"`. Intended for tests and CI assertions that a
/// plan actually fired.
#[must_use]
pub fn injection_tally() -> BTreeMap<String, u64> {
    tally_slot().lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
}

/// Clears the injection tally.
pub fn reset_tally() {
    tally_slot().lock().unwrap_or_else(std::sync::PoisonError::into_inner).clear();
}

fn tally(site: &str, kind: FaultKind) {
    let mut t = tally_slot().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    *t.entry(format!("{site}:{kind}")).or_insert(0) += 1;
}

// ---------------------------------------------------------------------------
// Thread-local task scope + per-site probe counters.
// ---------------------------------------------------------------------------

thread_local! {
    static SCOPE_KEY: Cell<u64> = const { Cell::new(0) };
    static SITE_COUNTERS: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
    static DEADLINE: Cell<Option<(Instant, Instant)>> = const { Cell::new(None) };
    static CANCEL: RefCell<Option<Arc<AtomicBool>>> = const { RefCell::new(None) };
}

/// Enters a deterministic fault scope for the current thread, resetting the
/// per-site probe counters. The executor derives `key` from the task's
/// canonical cache key, so a task's probe sequence — and therefore its
/// injected-fault schedule — is identical no matter which worker runs it or
/// how many workers exist.
///
/// The returned guard restores the enclosing scope (and its counters are
/// *not* preserved: scopes delimit tasks, which never interleave on one
/// thread).
#[must_use = "dropping the guard immediately exits the scope"]
pub fn scope(key: u64) -> ScopeGuard {
    let previous = SCOPE_KEY.with(|k| k.replace(key));
    SITE_COUNTERS.with(|c| c.borrow_mut().clear());
    ScopeGuard { previous }
}

/// Guard returned by [`scope`]; restores the previous scope key on drop.
#[derive(Debug)]
pub struct ScopeGuard {
    previous: u64,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        SCOPE_KEY.with(|k| k.set(self.previous));
        SITE_COUNTERS.with(|c| c.borrow_mut().clear());
    }
}

// ---------------------------------------------------------------------------
// Supervision: thread-local deadline + cancellation.
// ---------------------------------------------------------------------------

/// A shareable cancellation flag. Clone it, hand one side to the solving
/// thread (via [`Supervision::enter`]) and keep the other to call
/// [`CancelToken::cancel`] from anywhere.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    #[must_use]
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cooperative cancellation; every supervised probe on threads
    /// holding this token reports [`Interrupt::Cancelled`] from now on.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// A runtime budget for the solves on the current thread: an optional
/// wall-clock deadline and an optional [`CancelToken`].
#[derive(Debug, Clone, Default)]
pub struct Supervision {
    /// Maximum wall-clock time for the supervised region.
    pub deadline: Option<Duration>,
    /// Cooperative cancellation flag checked by every probe.
    pub cancel: Option<CancelToken>,
}

impl Supervision {
    /// A supervision with only a wall-clock deadline.
    #[must_use]
    pub fn with_deadline(deadline: Duration) -> Self {
        Supervision { deadline: Some(deadline), cancel: None }
    }

    /// Arms this supervision on the current thread until the guard drops.
    /// Nested guards stack: the innermost deadline wins while it is live,
    /// and the enclosing one is restored afterwards.
    #[must_use = "dropping the guard immediately disarms supervision"]
    pub fn enter(&self) -> SupervisionGuard {
        let started = Instant::now();
        let prev_deadline =
            DEADLINE.with(|d| d.replace(self.deadline.map(|dl| (started, started + dl))));
        let prev_cancel =
            CANCEL.with(|c| c.replace(self.cancel.as_ref().map(|t| Arc::clone(&t.flag))));
        SUPERVISED.fetch_add(1, Ordering::Relaxed);
        SupervisionGuard { prev_deadline, prev_cancel }
    }
}

/// Guard returned by [`Supervision::enter`]; restores the enclosing
/// supervision state on drop.
#[derive(Debug)]
pub struct SupervisionGuard {
    prev_deadline: Option<(Instant, Instant)>,
    prev_cancel: Option<Arc<AtomicBool>>,
}

impl Drop for SupervisionGuard {
    fn drop(&mut self) {
        DEADLINE.with(|d| d.set(self.prev_deadline));
        CANCEL.with(|c| *c.borrow_mut() = self.prev_cancel.take());
        SUPERVISED.fetch_sub(1, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// The probe.
// ---------------------------------------------------------------------------

/// Checkpoint called by iterative kernels once per outer iteration (and by
/// the tier chain / executor at tier and task boundaries).
///
/// Returns `None` — after a single relaxed atomic check — unless a fault
/// plan or supervision is active. Otherwise it checks, in order:
/// cancellation, the deadline, then the installed fault rules for `site`.
/// A firing [`FaultKind::Panic`] rule panics here (message prefix
/// `"mbm-faults: injected panic"`) instead of returning, so panic-isolation
/// machinery sees a genuine unwind.
#[must_use]
pub fn probe(site: &str) -> Option<Interrupt> {
    if !active() {
        return None;
    }
    probe_slow(site)
}

#[inline(never)]
fn probe_slow(site: &str) -> Option<Interrupt> {
    if SUPERVISED.load(Ordering::Relaxed) > 0 {
        let cancelled =
            CANCEL.with(|c| c.borrow().as_ref().is_some_and(|flag| flag.load(Ordering::Acquire)));
        if cancelled {
            return Some(Interrupt::Cancelled);
        }
        if let Some((started, deadline)) = DEADLINE.with(Cell::get) {
            let now = Instant::now();
            if now >= deadline {
                let elapsed_ms =
                    u64::try_from(now.duration_since(started).as_millis()).unwrap_or(u64::MAX);
                return Some(Interrupt::DeadlineExceeded { elapsed_ms });
            }
        }
    }
    if !PLAN_ACTIVE.load(Ordering::Acquire) {
        return None;
    }
    let plan = plan_slot()
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .as_ref()
        .map(Arc::clone)?;
    let site_hash = fnv1a(site.as_bytes());
    let counter = SITE_COUNTERS.with(|c| {
        let mut counters = c.borrow_mut();
        match counters.iter_mut().find(|(h, _)| *h == site_hash) {
            Some((_, n)) => {
                *n += 1;
                *n
            }
            None => {
                counters.push((site_hash, 1));
                1
            }
        }
    });
    let scope_key = SCOPE_KEY.with(Cell::get);
    for (rule_idx, rule) in plan.rules.iter().enumerate() {
        if !rule.matches(site) {
            continue;
        }
        let h = splitmix64(
            plan.seed
                ^ splitmix64(rule_idx as u64 + 1)
                ^ splitmix64(site_hash)
                ^ splitmix64(scope_key)
                ^ counter,
        );
        if h.is_multiple_of(rule.rate) {
            tally(site, rule.kind);
            if rule.kind == FaultKind::Panic {
                panic!("mbm-faults: injected panic at {site} (probe #{counter})");
            }
            return Some(Interrupt::Fault(rule.kind));
        }
    }
    None
}

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit hash used for firing
/// decisions. Stability matters (schedules are compared across runs and
/// thread counts), so the constants are fixed here rather than delegated to
/// `std`'s unstable-by-design hasher.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over the site name: stable, allocation-free, and good enough to
/// separate the handful of sites in this workspace.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global plan slot is process-wide, so tests that install plans are
    // serialized through this lock to keep `cargo test`'s default parallel
    // runner honest.
    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn parse_roundtrip_and_errors() {
        let plan =
            FaultPlan::parse("seed=42; numerics.vi.*:misconverge@7 ;exp.task:panic").unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.rules.len(), 2);
        assert_eq!(plan.rules[0].rate, 7);
        assert_eq!(
            plan.rules[1],
            FaultRule { site: "exp.task".into(), kind: FaultKind::Panic, rate: 1 }
        );
        let reparsed = FaultPlan::parse(&plan.to_spec()).unwrap();
        assert_eq!(plan, reparsed);

        let io =
            FaultPlan::parse("store.append:torn_write@7;store.read:corrupt@3;store.*:io_error")
                .unwrap();
        assert_eq!(io.rules[0].kind, FaultKind::TornWrite);
        assert_eq!(io.rules[1].kind, FaultKind::Corrupt);
        assert_eq!(io.rules[2].kind, FaultKind::IoError);
        assert_eq!(FaultPlan::parse(&io.to_spec()).unwrap(), io);

        assert!(FaultPlan::parse("seed=notanumber").is_err());
        assert!(FaultPlan::parse("siteonly").is_err());
        assert!(FaultPlan::parse("a:unknownkind").is_err());
        assert!(FaultPlan::parse("a:nan@0").is_err());
        assert!(FaultPlan::parse("a:nan@x").is_err());
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::default());
    }

    #[test]
    fn site_matching() {
        let exact = FaultRule { site: "a.b".into(), kind: FaultKind::Misconverge, rate: 1 };
        assert!(exact.matches("a.b"));
        assert!(!exact.matches("a.b.c"));
        let prefix = FaultRule { site: "a.*".into(), kind: FaultKind::Misconverge, rate: 1 };
        assert!(prefix.matches("a.b"));
        assert!(prefix.matches("a.c.d"));
        assert!(!prefix.matches("b.a"));
        let all = FaultRule { site: "*".into(), kind: FaultKind::Misconverge, rate: 1 };
        assert!(all.matches("anything"));
    }

    #[test]
    fn inactive_probe_is_silent() {
        let _l = test_lock();
        assert!(!active());
        assert!(probe("numerics.fixed_point").is_none());
    }

    #[test]
    fn rate_one_fires_every_probe_and_guard_restores() {
        let _l = test_lock();
        let plan = FaultPlan::parse("numerics.fixed_point:misconverge@1").unwrap();
        {
            let _g = install(plan);
            assert!(active());
            for _ in 0..3 {
                assert_eq!(
                    probe("numerics.fixed_point"),
                    Some(Interrupt::Fault(FaultKind::Misconverge))
                );
            }
            assert!(probe("numerics.vi.extragradient").is_none());
        }
        assert!(!active());
        assert!(probe("numerics.fixed_point").is_none());
    }

    #[test]
    fn schedules_are_deterministic_per_scope() {
        let _l = test_lock();
        let plan = FaultPlan::parse("seed=9;numerics.fixed_point:misconverge@3").unwrap();
        let run = |scope_key: u64| {
            let _g = install(plan.clone());
            let _s = scope(scope_key);
            (0..64).map(|_| probe("numerics.fixed_point").is_some()).collect::<Vec<_>>()
        };
        let a = run(11);
        let b = run(11);
        let c = run(12);
        assert_eq!(a, b, "same scope must replay identically");
        assert_ne!(a, c, "different scopes should see different schedules");
        assert!(a.iter().any(|&f| f), "rate-3 rule should fire somewhere in 64 probes");
        assert!(!a.iter().all(|&f| f), "rate-3 rule should not fire everywhere");
    }

    #[test]
    fn schedule_is_thread_independent() {
        let _l = test_lock();
        let plan = FaultPlan::parse("seed=5;game.br_dynamics:nan@4").unwrap();
        let _g = install(plan);
        let run = || {
            let _s = scope(77);
            (0..32).map(|_| probe("game.br_dynamics").is_some()).collect::<Vec<_>>()
        };
        let here = run();
        let there = std::thread::spawn(run).join().unwrap();
        assert_eq!(here, there);
    }

    #[test]
    fn injected_panic_panics_with_recognizable_message() {
        let _l = test_lock();
        let plan = FaultPlan::parse("exp.task:panic@1").unwrap();
        let _g = install(plan);
        let err = std::panic::catch_unwind(|| {
            let _ = probe("exp.task");
        })
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("mbm-faults: injected panic"), "{msg}");
        assert!(injection_tally().get("exp.task:panic").copied().unwrap_or(0) >= 1);
        reset_tally();
    }

    #[test]
    fn deadline_interrupts_after_expiry() {
        let _l = test_lock();
        let sup = Supervision::with_deadline(Duration::from_millis(0));
        let _g = sup.enter();
        match probe("numerics.vi.extragradient") {
            Some(Interrupt::DeadlineExceeded { .. }) => {}
            other => panic!("expected deadline interrupt, got {other:?}"),
        }
    }

    #[test]
    fn generous_deadline_does_not_interrupt() {
        let _l = test_lock();
        let sup = Supervision::with_deadline(Duration::from_secs(3600));
        let _g = sup.enter();
        assert!(probe("numerics.vi.extragradient").is_none());
    }

    #[test]
    fn cancellation_interrupts_and_guard_restores() {
        let _l = test_lock();
        let token = CancelToken::new();
        let sup = Supervision { deadline: None, cancel: Some(token.clone()) };
        {
            let _g = sup.enter();
            assert!(probe("core.solver.tier").is_none());
            token.cancel();
            assert!(token.is_cancelled());
            assert_eq!(probe("core.solver.tier"), Some(Interrupt::Cancelled));
        }
        assert!(probe("core.solver.tier").is_none());
    }

    #[test]
    fn nested_supervision_restores_outer_deadline() {
        let _l = test_lock();
        let outer = Supervision::with_deadline(Duration::from_secs(3600));
        let _og = outer.enter();
        {
            let inner = Supervision::with_deadline(Duration::from_millis(0));
            let _ig = inner.enter();
            assert!(matches!(probe("x"), Some(Interrupt::DeadlineExceeded { .. })));
        }
        assert!(probe("x").is_none(), "outer (generous) deadline should be restored");
    }

    #[test]
    fn from_env_rejects_malformed_plans() {
        // Uses parse directly: mutating the process environment would race
        // with other tests.
        assert!(FaultPlan::parse("seed=1;bad segment").is_err());
    }
}
