//! Persistent cross-run equilibrium memoization on top of [`mbm_store`].
//!
//! Task identity in this workspace is exact-bit, so a converged follower
//! equilibrium computed in one process is bitwise-valid in the next: this
//! module gives [`super::TieredSolver::solve`] a disk-backed memo that the
//! experiment runner (`experiments --store PATH`), the leader grid stage,
//! and the `mbm-serve` daemon all share for free — the consult lives inside
//! the one solve path they already route through.
//!
//! The layering is strict. [`mbm_store::Store`] knows nothing about games:
//! it maps `u64`-word keys to byte payloads under checksums and crash
//! recovery. This module owns everything game-aware:
//!
//! * **Keys** ([`KEY_SCHEMA`]): the solve mode plus the raw IEEE-754 bits of
//!   every value that determines the equilibrium — market parameters,
//!   prices, subgame config, and the budget population (hashed for
//!   heterogeneous populations, with a bitwise confirm against the budgets
//!   stored in the payload so a hash collision can never alias two
//!   populations). Execution config (supervision policy, deadlines, warm
//!   continuation) is deliberately excluded: it bounds *how long* a solve
//!   may run, not *what* the equilibrium is.
//! * **Payloads**: a versioned binary codec for the full [`Solved`] —
//!   aggregates, per-miner profile, utilities, and the complete
//!   [`SolveReport`] (reports are part of the runner's bitwise-compared
//!   JSON output, so a hit must reproduce them exactly).
//! * **Golden re-certification** ([`GoldenCheck`]): a hit is never trusted
//!   on checksum alone. The default policy recomputes the GNEP/VI natural
//!   residual on the stored profile (up to [`MemoConfig::recheck_cap`]
//!   miners; beyond that a feasibility check) and rejects the record —
//!   counting `store.rejected` and falling through to a fresh solve — when
//!   the recomputed residual is not within tolerance of the certificate
//!   computed at append time.
//!
//! Only strict cold solves are appended: degraded results and warm-started
//! continuation solves (which may land within-tolerance-but-not-bitwise of
//! the cold equilibrium) consult but never write, so a store populated by a
//! cold run replays bitwise on every later cold run.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use mbm_store::{OpenSummary, Store, StoreError, StoreOptions};

use crate::params::{EdgeOperation, MarketParams, Prices};
use crate::request::{Aggregates, Request};
use crate::subgame::equilibrium_certificate;

use super::report::{
    ConfigOverride, FallbackHop, Overrides, SolveMethod, SolveMode, SolveReport, SolveStatus,
};
use super::workspace::{ensure_pairs, SolveWorkspace};
use super::{
    bits_equal, bits_fingerprint, continuation, per_mode, Budgets, FollowerProblem, Solved, TierRun,
};

/// Version of the key layout. Bump whenever the key word sequence *or the
/// solver behaviour behind it* changes, so records written by an older
/// build can never be consulted by a newer one that would have solved
/// differently.
pub const KEY_SCHEMA: u64 = 1;

/// Version of the payload codec.
const PAYLOAD_VERSION: u32 = 1;

/// How aggressively a store hit is re-certified before being served.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GoldenCheck {
    /// Trust the checksum alone (fastest; for stores this process wrote).
    Off,
    /// Structural check only: finite, non-negative requests within the
    /// budget (and shared-capacity) constraints.
    Feasibility,
    /// Feasibility plus a recompute of the GNEP/VI natural residual on the
    /// stored profile; the hit is rejected unless the recomputed residual
    /// is `<= max(tol, 2 × certificate-at-append)`.
    Residual {
        /// Acceptance tolerance floor.
        tol: f64,
    },
}

impl Default for GoldenCheck {
    fn default() -> Self {
        GoldenCheck::Residual { tol: 1e-6 }
    }
}

impl GoldenCheck {
    /// Parses `off`, `feasibility`, `residual`, or `residual:TOL`.
    ///
    /// # Errors
    ///
    /// Describes the unrecognized spec.
    pub fn parse(spec: &str) -> Result<GoldenCheck, String> {
        match spec.trim() {
            "off" => Ok(GoldenCheck::Off),
            "feasibility" => Ok(GoldenCheck::Feasibility),
            "residual" => Ok(GoldenCheck::default()),
            other => match other.strip_prefix("residual:") {
                Some(tol) => {
                    let tol: f64 = tol
                        .trim()
                        .parse()
                        .map_err(|e| format!("bad golden-check tolerance {tol:?}: {e}"))?;
                    if !(tol.is_finite() && tol > 0.0) {
                        return Err(format!("golden-check tolerance {tol} must be > 0"));
                    }
                    Ok(GoldenCheck::Residual { tol })
                }
                None => {
                    Err(format!("unknown golden check {other:?} (off|feasibility|residual[:TOL])"))
                }
            },
        }
    }
}

/// Configuration of the installed memo.
#[derive(Debug, Clone)]
pub struct MemoConfig {
    /// Hit re-certification policy.
    pub golden: GoldenCheck,
    /// Largest population for which the residual recompute runs (the
    /// natural residual is O(n²) in the naive games); bigger hits fall back
    /// to the feasibility check.
    pub recheck_cap: usize,
    /// Largest population appended at all; bigger solves are counted as
    /// `store.skipped` (a 10⁶-miner profile is a multi-megabyte record).
    pub max_n: usize,
}

impl Default for MemoConfig {
    fn default() -> Self {
        MemoConfig { golden: GoldenCheck::default(), recheck_cap: 4096, max_n: 65_536 }
    }
}

/// Cumulative memo activity since process start (or [`reset_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Hits served from the store (after re-certification).
    pub hits: u64,
    /// Lookups that found no record.
    pub misses: u64,
    /// Hits rejected by decoding or the golden check and re-solved.
    pub rejected: u64,
    /// Records appended.
    pub appends: u64,
    /// Appends that failed (I/O error, torn write, writes disabled).
    pub append_errors: u64,
    /// Solves skipped for exceeding [`MemoConfig::max_n`].
    pub skipped: u64,
    /// Key-hash collisions detected by the bitwise budget confirm.
    pub collisions: u64,
}

impl MemoStats {
    /// Hit rate over all lookups, `0.0` when no lookup happened.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.rejected;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static REJECTED: AtomicU64 = AtomicU64::new(0);
static APPENDS: AtomicU64 = AtomicU64::new(0);
static APPEND_ERRORS: AtomicU64 = AtomicU64::new(0);
static SKIPPED: AtomicU64 = AtomicU64::new(0);
static COLLISIONS: AtomicU64 = AtomicU64::new(0);

#[derive(Debug)]
struct MemoHandle {
    store: Mutex<Store>,
    cfg: MemoConfig,
}

fn slot() -> &'static RwLock<Option<Arc<MemoHandle>>> {
    static SLOT: RwLock<Option<Arc<MemoHandle>>> = RwLock::new(None);
    &SLOT
}

fn handle() -> Option<Arc<MemoHandle>> {
    if !ACTIVE.load(Ordering::Acquire) {
        return None;
    }
    slot().read().unwrap_or_else(std::sync::PoisonError::into_inner).as_ref().map(Arc::clone)
}

/// Installs `store` as the process-wide equilibrium memo, returning a guard
/// that restores the previous installation (usually none) on drop. Mirrors
/// [`mbm_faults::install`]: installation is global because every consult
/// site (executor workers, the grid stage, serve workers) must share one
/// store.
#[must_use = "dropping the guard immediately uninstalls the memo"]
pub fn install(store: Store, cfg: MemoConfig) -> MemoGuard {
    let mut slot = slot().write().unwrap_or_else(std::sync::PoisonError::into_inner);
    let previous = slot.replace(Arc::new(MemoHandle { store: Mutex::new(store), cfg }));
    ACTIVE.store(true, Ordering::Release);
    MemoGuard { previous }
}

/// Opens the store at `path` (with recovery) and installs it.
///
/// # Errors
///
/// Propagates hard I/O failures from [`Store::open`]; corruption is
/// recovered, reported in the [`OpenSummary`], and never an error.
pub fn open_and_install(
    path: impl AsRef<Path>,
    cfg: MemoConfig,
    opts: StoreOptions,
) -> Result<(MemoGuard, OpenSummary), StoreError> {
    let (store, summary) = Store::open(path, opts)?;
    Ok((install(store, cfg), summary))
}

/// Guard returned by [`install`]; flushes and uninstalls on drop.
#[derive(Debug)]
pub struct MemoGuard {
    previous: Option<Arc<MemoHandle>>,
}

impl Drop for MemoGuard {
    fn drop(&mut self) {
        let mut slot = slot().write().unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(current) = slot.take() {
            let mut store = current.store.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            let _ = store.flush();
        }
        *slot = self.previous.take();
        ACTIVE.store(slot.is_some(), Ordering::Release);
    }
}

/// Whether a memo is currently installed.
#[must_use]
pub fn installed() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Current memo activity counters.
#[must_use]
pub fn stats() -> MemoStats {
    MemoStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        rejected: REJECTED.load(Ordering::Relaxed),
        appends: APPENDS.load(Ordering::Relaxed),
        append_errors: APPEND_ERRORS.load(Ordering::Relaxed),
        skipped: SKIPPED.load(Ordering::Relaxed),
        collisions: COLLISIONS.load(Ordering::Relaxed),
    }
}

/// Zeroes the activity counters (tests and the telemetry golden workload).
pub fn reset_stats() {
    for c in [&HITS, &MISSES, &REJECTED, &APPENDS, &APPEND_ERRORS, &SKIPPED, &COLLISIONS] {
        c.store(0, Ordering::Relaxed);
    }
}

/// Forces an fsync of the installed store, if any.
///
/// # Errors
///
/// Propagates the store's fsync failure.
pub fn flush() -> Result<(), StoreError> {
    if let Some(h) = handle() {
        let mut store = h.store.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        store.flush()?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Keys.
// ---------------------------------------------------------------------------

/// The memoized solve modes. The discriminant is persisted — it is the key's
/// mode word and the payload's mode byte — so the values are fixed: a store
/// written with them replays only while they stay the same.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum MemoMode {
    Connected = 1,
    Standalone = 2,
    AggregateConnected = 3,
    AggregateStandalone = 4,
    SymmetricConnected = 5,
    SymmetricStandalone = 6,
}

impl MemoMode {
    /// The mode of a memoizable problem; this also decides which problems
    /// are memoized at all. The closed-form chain is cheaper than a disk
    /// lookup and the dynamic chains key on whole population distributions
    /// — both are excluded by policy.
    fn of(problem: &FollowerProblem<'_>) -> Option<Self> {
        use MemoMode::*;
        Some(match *problem {
            FollowerProblem::Full { mode, .. } => per_mode(mode, Connected, Standalone),
            FollowerProblem::Aggregate { mode, .. } => {
                per_mode(mode, AggregateConnected, AggregateStandalone)
            }
            FollowerProblem::Symmetric { mode, .. } => {
                per_mode(mode, SymmetricConnected, SymmetricStandalone)
            }
            FollowerProblem::Homogeneous { .. }
            | FollowerProblem::Dynamic { .. }
            | FollowerProblem::Continuous { .. } => return None,
        })
    }

    /// The edge mode of the memoized game.
    fn edge_operation(self) -> EdgeOperation {
        match self {
            MemoMode::Connected | MemoMode::AggregateConnected | MemoMode::SymmetricConnected => {
                EdgeOperation::Connected
            }
            MemoMode::Standalone
            | MemoMode::AggregateStandalone
            | MemoMode::SymmetricStandalone => EdgeOperation::Standalone,
        }
    }

    /// Connected-mode game (otherwise standalone, with shared edge capacity).
    fn is_connected(self) -> bool {
        self.edge_operation() == EdgeOperation::Connected
    }

    /// Heterogeneous modes carry the full population in the payload (bitwise
    /// collision confirm + replay data); symmetric modes carry the pair only.
    fn is_heterogeneous(self) -> bool {
        !matches!(self, MemoMode::SymmetricConnected | MemoMode::SymmetricStandalone)
    }
}

/// Builds the store key for a memoizable problem when a memo is installed;
/// `None` otherwise. The single relaxed load makes this free when no store
/// is in play.
pub(super) fn active_key(
    params: &MarketParams,
    prices: &Prices,
    problem: &FollowerProblem<'_>,
) -> Option<Vec<u64>> {
    if !ACTIVE.load(Ordering::Relaxed) {
        return None;
    }
    let mode = MemoMode::of(problem)?;
    let (_, pop, cfg) = problem.population()?;
    let mut key = Vec::with_capacity(17);
    key.push(KEY_SCHEMA);
    key.push(mode as u64);
    for v in [
        params.reward(),
        params.fork_rate(),
        params.edge_availability(),
        params.e_max(),
        params.esp().cost(),
        params.esp().price_cap(),
        params.csp().cost(),
        params.csp().price_cap(),
        prices.edge,
        prices.cloud,
        cfg.damping,
        cfg.tol,
    ] {
        key.push(v.to_bits());
    }
    key.push(cfg.max_iter as u64);
    match pop {
        Budgets::Slice(budgets) => {
            key.push(budgets.len() as u64);
            key.push(bits_fingerprint(budgets.iter().copied()));
        }
        Budgets::Uniform { budget, n } => {
            key.push(n as u64);
            key.push(budget.to_bits());
        }
    }
    Some(key)
}

// ---------------------------------------------------------------------------
// Payload codec.
// ---------------------------------------------------------------------------

/// Decoded store record: everything needed to replay the solve bitwise.
struct StoredSolve {
    aggregates: Aggregates,
    n: usize,
    iterations: usize,
    residual: f64,
    per_miner: Option<Request>,
    /// Certificate computed at append time over the stored representation
    /// (NaN when the population exceeded the recheck cap at append).
    golden_cert: f64,
    report: SolveReport,
    budgets: Vec<f64>,
    requests: Vec<Request>,
    utilities: Vec<f64>,
}

fn mode_byte(m: SolveMode) -> u8 {
    match m {
        SolveMode::Connected => 0,
        SolveMode::Standalone => 1,
        SolveMode::Homogeneous => 2,
        SolveMode::Dynamic => 3,
    }
}

fn mode_from(b: u8) -> Option<SolveMode> {
    Some(match b {
        0 => SolveMode::Connected,
        1 => SolveMode::Standalone,
        2 => SolveMode::Homogeneous,
        3 => SolveMode::Dynamic,
        _ => return None,
    })
}

fn method_byte(m: SolveMethod) -> u8 {
    match m {
        SolveMethod::ClosedForm => 0,
        SolveMethod::SymmetricFixedPoint => 1,
        SolveMethod::BestResponseDynamics => 2,
        SolveMethod::Extragradient => 3,
        SolveMethod::DampedExpectationFixedPoint => 4,
        SolveMethod::AggregateBestResponse => 5,
    }
}

fn method_from(b: u8) -> Option<SolveMethod> {
    Some(match b {
        0 => SolveMethod::ClosedForm,
        1 => SolveMethod::SymmetricFixedPoint,
        2 => SolveMethod::BestResponseDynamics,
        3 => SolveMethod::Extragradient,
        4 => SolveMethod::DampedExpectationFixedPoint,
        5 => SolveMethod::AggregateBestResponse,
        _ => return None,
    })
}

struct Enc(Vec<u8>);

impl Enc {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.0.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.f64(x);
            }
            None => self.u8(0),
        }
    }
    fn opt_override(&mut self, v: Option<ConfigOverride>) {
        match v {
            Some(o) => {
                self.u8(1);
                self.f64(o.requested);
                self.f64(o.effective);
            }
            None => self.u8(0),
        }
    }
}

struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ()> {
        let end = self.pos.checked_add(n).ok_or(())?;
        if end > self.bytes.len() {
            return Err(());
        }
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }
    fn u8(&mut self) -> Result<u8, ()> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, ()> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().map_err(|_| ())?))
    }
    fn u64(&mut self) -> Result<u64, ()> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().map_err(|_| ())?))
    }
    fn f64(&mut self) -> Result<f64, ()> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn opt_f64(&mut self) -> Result<Option<f64>, ()> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.f64()?)),
            _ => Err(()),
        }
    }
    fn opt_override(&mut self) -> Result<Option<ConfigOverride>, ()> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(ConfigOverride { requested: self.f64()?, effective: self.f64()? })),
            _ => Err(()),
        }
    }
}

fn encode(
    mode: MemoMode,
    solved: &Solved,
    golden_cert: f64,
    budgets: &[f64],
    requests: &[Request],
    utilities: &[f64],
) -> Vec<u8> {
    let mut e = Enc(Vec::with_capacity(96 + budgets.len() * 32));
    e.u32(PAYLOAD_VERSION);
    e.u8(mode as u8);
    e.u64(solved.n as u64);
    e.f64(solved.aggregates.edge);
    e.f64(solved.aggregates.cloud);
    e.u64(solved.iterations as u64);
    e.f64(solved.residual);
    match solved.per_miner {
        Some(r) => {
            e.u8(1);
            e.f64(r.edge);
            e.f64(r.cloud);
        }
        None => e.u8(0),
    }
    e.f64(golden_cert);
    let r = &solved.report;
    e.u8(mode_byte(r.mode));
    e.u8(u8::from(r.status.is_degraded()));
    e.u8(u8::from(r.symmetric));
    e.u8(method_byte(r.method));
    e.opt_f64(r.certificate);
    e.opt_override(r.overrides.tol);
    e.opt_override(r.overrides.max_iter);
    e.opt_override(r.overrides.damping);
    e.u32(r.retries as u32);
    e.u32(r.fallback_hops.len() as u32);
    for hop in &r.fallback_hops {
        e.u8(method_byte(hop.method));
        let bytes = hop.error.as_bytes();
        e.u32(bytes.len() as u32);
        e.0.extend_from_slice(bytes);
    }
    if mode.is_heterogeneous() {
        for &b in budgets {
            e.f64(b);
        }
        for req in requests {
            e.f64(req.edge);
            e.f64(req.cloud);
        }
        for &u in utilities {
            e.f64(u);
        }
    }
    e.0
}

fn decode(memo: MemoMode, bytes: &[u8]) -> Result<StoredSolve, ()> {
    let mut d = Dec { bytes, pos: 0 };
    if d.u32()? != PAYLOAD_VERSION || d.u8()? != memo as u8 {
        return Err(());
    }
    let n = usize::try_from(d.u64()?).map_err(|_| ())?;
    if n > (1 << 32) {
        return Err(());
    }
    let aggregates = Aggregates { edge: d.f64()?, cloud: d.f64()? };
    let iterations = usize::try_from(d.u64()?).map_err(|_| ())?;
    let residual = d.f64()?;
    let per_miner = match d.u8()? {
        0 => None,
        1 => Some(Request { edge: d.f64()?, cloud: d.f64()? }),
        _ => return Err(()),
    };
    let golden_cert = d.f64()?;
    let mode = mode_from(d.u8()?).ok_or(())?;
    let status = match d.u8()? {
        0 => SolveStatus::Converged,
        1 => SolveStatus::Degraded,
        _ => return Err(()),
    };
    let symmetric = match d.u8()? {
        0 => false,
        1 => true,
        _ => return Err(()),
    };
    let method = method_from(d.u8()?).ok_or(())?;
    let certificate = d.opt_f64()?;
    let overrides = Overrides {
        tol: d.opt_override()?,
        max_iter: d.opt_override()?,
        damping: d.opt_override()?,
    };
    let retries = d.u32()? as usize;
    let hop_count = d.u32()? as usize;
    if hop_count > 64 {
        return Err(());
    }
    let mut fallback_hops = Vec::with_capacity(hop_count);
    for _ in 0..hop_count {
        let method = method_from(d.u8()?).ok_or(())?;
        let len = d.u32()? as usize;
        if len > (1 << 16) {
            return Err(());
        }
        let error = String::from_utf8(d.take(len)?.to_vec()).map_err(|_| ())?;
        fallback_hops.push(FallbackHop { method, error });
    }
    let (mut budgets, mut requests, mut utilities) = (Vec::new(), Vec::new(), Vec::new());
    if memo.is_heterogeneous() {
        budgets.reserve_exact(n);
        for _ in 0..n {
            budgets.push(d.f64()?);
        }
        requests.reserve_exact(n);
        for _ in 0..n {
            requests.push(Request { edge: d.f64()?, cloud: d.f64()? });
        }
        utilities.reserve_exact(n);
        for _ in 0..n {
            utilities.push(d.f64()?);
        }
    }
    if d.pos != bytes.len() {
        return Err(());
    }
    let report = SolveReport {
        mode,
        status,
        symmetric,
        method,
        fallback_hops,
        iterations,
        residual,
        certificate,
        overrides,
        retries,
    };
    Ok(StoredSolve {
        aggregates,
        n,
        iterations,
        residual,
        per_miner,
        golden_cert,
        report,
        budgets,
        requests,
        utilities,
    })
}

// ---------------------------------------------------------------------------
// Golden re-certification.
// ---------------------------------------------------------------------------

/// Structural sanity of a stored profile: finite, non-negative, within each
/// miner's budget, and (standalone modes) within the shared edge capacity.
fn feasible(
    mode: MemoMode,
    params: &MarketParams,
    prices: &Prices,
    budgets: &[f64],
    requests: &[Request],
    aggregates: Aggregates,
) -> bool {
    const SLACK: f64 = 1.0 + 1e-6;
    if budgets.len() != requests.len() {
        return false;
    }
    for (req, &budget) in requests.iter().zip(budgets) {
        let spend = prices.edge * req.edge + prices.cloud * req.cloud;
        if !(req.edge.is_finite()
            && req.cloud.is_finite()
            && req.edge >= 0.0
            && req.cloud >= 0.0
            && spend <= budget * SLACK)
        {
            return false;
        }
    }
    if !mode.is_connected() && !(aggregates.edge <= params.e_max() * SLACK) {
        return false;
    }
    aggregates.edge.is_finite() && aggregates.cloud.is_finite()
}

/// The [`equilibrium_certificate`] of the record's stored (clamped) profile,
/// over the workspace's profile and gnep scratch. At append time this is
/// what gets persisted as `golden_cert`; at hit time the same computation
/// must land within tolerance of it. NaN when the population exceeds the
/// recheck cap (the hit path then applies feasibility only) or the stored
/// data does not even build the game (the hit path then rejects).
fn golden_certificate(
    mode: MemoMode,
    cfg: &MemoConfig,
    params: &MarketParams,
    prices: &Prices,
    budgets: &[f64],
    requests: &[Request],
    ws: &mut SolveWorkspace,
) -> f64 {
    if !matches!(cfg.golden, GoldenCheck::Residual { .. }) || budgets.len() > cfg.recheck_cap {
        return f64::NAN;
    }
    let SolveWorkspace { gnep, init, flat, .. } = ws;
    flat.clear();
    for req in requests {
        flat.push(req.edge);
        flat.push(req.cloud);
    }
    ensure_pairs(init, flat)
        .and_then(|profile| {
            equilibrium_certificate(mode.edge_operation(), params, prices, budgets, profile, gnep)
        })
        .unwrap_or(f64::NAN)
}

// ---------------------------------------------------------------------------
// Consult + record.
// ---------------------------------------------------------------------------

fn reject(reason: &'static str) {
    REJECTED.fetch_add(1, Ordering::Relaxed);
    let rec = mbm_obs::global();
    rec.incr("store.rejected");
    rec.incr(reason);
}

/// Uniform budget expansion for symmetric records (bounded by the recheck
/// cap before any expensive work happens).
fn stored_budgets<'a>(
    problem: &FollowerProblem<'_>,
    stored: &'a StoredSolve,
    uniform: &'a mut Vec<f64>,
) -> &'a [f64] {
    match problem.population() {
        Some((_, Budgets::Uniform { budget, n }, _)) => {
            uniform.clear();
            uniform.resize(n, budget);
            uniform.as_slice()
        }
        _ => &stored.budgets,
    }
}

fn stored_requests<'a>(
    stored: &'a StoredSolve,
    expanded: &'a mut Vec<Request>,
) -> Option<&'a [Request]> {
    if !stored.requests.is_empty() {
        return Some(&stored.requests);
    }
    let pair = stored.per_miner?;
    expanded.clear();
    expanded.resize(stored.n, pair);
    Some(expanded.as_slice())
}

/// Looks up the solve for `key`, re-certifies it, and — on success — fills
/// the workspace exactly as the cold solve would have. Any failure (miss,
/// injected read fault, decode error, collision, golden-check rejection) is
/// counted and answered with `None`: the caller falls through to a fresh
/// solve, so a degraded store can never alter a result.
pub(super) fn consult(
    key: &[u64],
    params: &MarketParams,
    prices: &Prices,
    problem: &FollowerProblem<'_>,
    ws: &mut SolveWorkspace,
) -> Option<Solved> {
    let handle = handle()?;
    let mode = MemoMode::of(problem)?;
    let payload = {
        let store = handle.store.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        match store.get(key) {
            Ok(p) => p,
            Err(_) => {
                // Injected/real read fault: counted by the store layer,
                // surfaced here as a plain miss.
                MISSES.fetch_add(1, Ordering::Relaxed);
                mbm_obs::global().incr("store.misses");
                return None;
            }
        }
    };
    let Some(payload) = payload else {
        MISSES.fetch_add(1, Ordering::Relaxed);
        mbm_obs::global().incr("store.misses");
        return None;
    };
    let Ok(stored) = decode(mode, &payload) else {
        reject("store.rejected.decode");
        return None;
    };

    // Shape + bitwise-population confirm: a key-hash collision (or a record
    // from a differently-shaped problem) must read as a miss, not a hit.
    let matches_problem = match problem.population() {
        Some((_, Budgets::Slice(budgets), _)) => {
            stored.n == budgets.len()
                && bits_equal(&stored.budgets, budgets)
                && stored.requests.len() == budgets.len()
                && stored.utilities.len() == budgets.len()
        }
        Some((_, Budgets::Uniform { n, .. }, _)) => stored.n == n && stored.per_miner.is_some(),
        None => false,
    };
    if !matches_problem {
        COLLISIONS.fetch_add(1, Ordering::Relaxed);
        mbm_obs::global().incr("store.collisions");
        return None;
    }

    // Golden re-certification.
    if handle.cfg.golden != GoldenCheck::Off {
        let mut uniform = Vec::new();
        let mut expanded = Vec::new();
        let budgets_v = stored_budgets(problem, &stored, &mut uniform);
        let Some(requests_v) = stored_requests(&stored, &mut expanded) else {
            reject("store.rejected.decode");
            return None;
        };
        if !feasible(mode, params, prices, budgets_v, requests_v, stored.aggregates) {
            reject("store.rejected.infeasible");
            return None;
        }
        if let GoldenCheck::Residual { tol } = handle.cfg.golden {
            if budgets_v.len() <= handle.cfg.recheck_cap {
                let recomputed = golden_certificate(
                    mode,
                    &handle.cfg,
                    params,
                    prices,
                    budgets_v,
                    requests_v,
                    ws,
                );
                let threshold = if stored.golden_cert.is_finite() {
                    tol.max(stored.golden_cert * 2.0)
                } else {
                    tol
                };
                if !(recomputed.is_finite() && recomputed <= threshold) {
                    reject("store.rejected.residual");
                    return None;
                }
            }
        }
    }

    // Serve: reproduce the cold solve's workspace effects bitwise.
    ws.requests.clear();
    ws.utilities.clear();
    if mode.is_heterogeneous() {
        ws.requests.extend_from_slice(&stored.requests);
        ws.utilities.extend_from_slice(&stored.utilities);
    }
    let run = TierRun {
        aggregates: stored.aggregates,
        n: stored.n,
        iterations: stored.iterations,
        residual: stored.residual,
        per_miner: stored.per_miner,
        regime: None,
        certificate: stored.report.certificate,
    };
    continuation::store_success(problem, ws, &run);
    HITS.fetch_add(1, Ordering::Relaxed);
    mbm_obs::global().incr("store.hits");
    Some(Solved {
        aggregates: stored.aggregates,
        n: stored.n,
        iterations: stored.iterations,
        residual: stored.residual,
        per_miner: stored.per_miner,
        regime: None,
        report: stored.report,
    })
}

/// Appends a converged cold solve to the store. Failures are counted and
/// swallowed — persistence trouble must never fail a solve that already
/// succeeded.
pub(super) fn record(
    key: &[u64],
    solved: &Solved,
    params: &MarketParams,
    prices: &Prices,
    problem: &FollowerProblem<'_>,
    ws: &mut SolveWorkspace,
) {
    let Some(handle) = handle() else { return };
    let Some(mode) = MemoMode::of(problem) else { return };
    if solved.n > handle.cfg.max_n {
        SKIPPED.fetch_add(1, Ordering::Relaxed);
        mbm_obs::global().incr("store.skipped");
        return;
    }
    let (budgets, requests, utilities): (Vec<f64>, Vec<Request>, Vec<f64>) =
        match problem.population() {
            Some((_, Budgets::Slice(budgets), _)) => {
                if ws.requests.len() != budgets.len() || ws.utilities.len() != budgets.len() {
                    return; // workspace does not describe this solve; don't persist
                }
                (budgets.to_vec(), ws.requests.clone(), ws.utilities.clone())
            }
            Some((_, Budgets::Uniform { budget, n }, _)) => {
                // Symmetric solves that escalated past the symmetric fixed
                // point leave per-miner vectors in the workspace; a hit would
                // have to reproduce those bitwise. Only the tier-1 fixed point
                // (which clears the workspace, exactly as the hit path does)
                // is persisted.
                if solved.per_miner.is_none()
                    || solved.report.method != SolveMethod::SymmetricFixedPoint
                {
                    return;
                }
                (vec![budget; n], Vec::new(), Vec::new())
            }
            None => return,
        };
    let expanded_pairs: Vec<Request>;
    let request_view: &[Request] = if requests.is_empty() {
        match solved.per_miner {
            Some(pair) => {
                expanded_pairs = vec![pair; solved.n];
                &expanded_pairs
            }
            None => return,
        }
    } else {
        &requests
    };
    let golden_cert =
        golden_certificate(mode, &handle.cfg, params, prices, &budgets, request_view, ws);
    let payload = encode(mode, solved, golden_cert, &budgets, &requests, &utilities);
    let mut store = handle.store.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    match store.append(key, &payload) {
        Ok(()) => {
            APPENDS.fetch_add(1, Ordering::Relaxed);
        }
        Err(_) => {
            APPEND_ERRORS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> SolveReport {
        SolveReport {
            mode: SolveMode::Standalone,
            status: SolveStatus::Converged,
            symmetric: false,
            method: SolveMethod::Extragradient,
            fallback_hops: vec![FallbackHop {
                method: SolveMethod::BestResponseDynamics,
                error: "did not converge after 5000 sweeps".into(),
            }],
            iterations: 321,
            residual: 4.2e-11,
            certificate: Some(9.9e-10),
            overrides: Overrides {
                tol: Some(ConfigOverride { requested: 1e-12, effective: 1e-10 }),
                max_iter: None,
                damping: None,
            },
            retries: 1,
        }
    }

    fn sample_solved(report: SolveReport) -> Solved {
        Solved {
            aggregates: Aggregates { edge: 3.5, cloud: 7.25 },
            n: 3,
            iterations: report.iterations,
            residual: report.residual,
            per_miner: None,
            regime: None,
            report,
        }
    }

    #[test]
    fn payload_roundtrip_heterogeneous() {
        let solved = sample_solved(sample_report());
        let budgets = [100.0, 150.0, 200.0];
        let requests = [
            Request { edge: 1.0, cloud: 2.0 },
            Request { edge: 1.25, cloud: 2.5 },
            Request { edge: 1.5, cloud: 3.0 },
        ];
        let utilities = [0.5, 0.75, -0.25];
        let bytes = encode(MemoMode::Standalone, &solved, 3.3e-10, &budgets, &requests, &utilities);
        let back = decode(MemoMode::Standalone, &bytes).expect("roundtrip decodes");
        assert_eq!(back.n, 3);
        assert_eq!(back.aggregates, solved.aggregates);
        assert_eq!(back.report, solved.report);
        assert_eq!(back.budgets, budgets);
        assert_eq!(back.requests, requests);
        assert_eq!(back.utilities, utilities);
        assert_eq!(back.golden_cert.to_bits(), 3.3e-10f64.to_bits());
        assert_eq!(back.per_miner, None);
    }

    #[test]
    fn payload_roundtrip_symmetric() {
        let mut report = sample_report();
        report.symmetric = true;
        report.fallback_hops.clear();
        let mut solved = sample_solved(report);
        solved.per_miner = Some(Request { edge: 0.5, cloud: 1.5 });
        let bytes = encode(MemoMode::SymmetricConnected, &solved, f64::NAN, &[], &[], &[]);
        let back = decode(MemoMode::SymmetricConnected, &bytes).expect("roundtrip decodes");
        assert_eq!(back.per_miner, solved.per_miner);
        assert!(back.golden_cert.is_nan());
        assert!(back.budgets.is_empty() && back.requests.is_empty());
    }

    #[test]
    fn decode_rejects_malformed_payloads() {
        let solved = sample_solved(sample_report());
        let connected = MemoMode::Connected;
        let bytes =
            encode(connected, &solved, 0.0, &[1.0, 2.0, 3.0], &[Request::default(); 3], &[0.0; 3]);
        // Wrong mode, truncation, trailing garbage, and version drift all fail.
        assert!(decode(MemoMode::Standalone, &bytes).is_err());
        assert!(decode(connected, &bytes[..bytes.len() - 1]).is_err());
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(decode(connected, &longer).is_err());
        let mut wrong_version = bytes;
        wrong_version[0] ^= 0xFF;
        assert!(decode(connected, &wrong_version).is_err());
    }

    #[test]
    fn memo_modes_keep_their_persisted_values() {
        use MemoMode::*;
        // (mode, persisted value, connected, heterogeneous): stores written
        // with these values must keep replaying.
        let table = [
            (Connected, 1, true, true),
            (Standalone, 2, false, true),
            (AggregateConnected, 3, true, true),
            (AggregateStandalone, 4, false, true),
            (SymmetricConnected, 5, true, false),
            (SymmetricStandalone, 6, false, false),
        ];
        for (mode, value, connected, heterogeneous) in table {
            assert_eq!(mode as u8, value, "{mode:?}");
            assert_eq!(mode.is_connected(), connected, "{mode:?}");
            assert_eq!(mode.is_heterogeneous(), heterogeneous, "{mode:?}");
        }
    }

    #[test]
    fn golden_check_parse() {
        assert_eq!(GoldenCheck::parse("off").unwrap(), GoldenCheck::Off);
        assert_eq!(GoldenCheck::parse("feasibility").unwrap(), GoldenCheck::Feasibility);
        assert_eq!(GoldenCheck::parse("residual").unwrap(), GoldenCheck::Residual { tol: 1e-6 });
        assert_eq!(
            GoldenCheck::parse("residual:1e-4").unwrap(),
            GoldenCheck::Residual { tol: 1e-4 }
        );
        assert!(GoldenCheck::parse("residual:-1").is_err());
        assert!(GoldenCheck::parse("sometimes").is_err());
    }

    #[test]
    fn tampered_profile_is_rejected_by_golden_check_and_resolved() {
        use crate::solver::{FollowerSolver, TieredSolver};
        static SERIAL: Mutex<()> = Mutex::new(());
        let _serial = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);

        let params = MarketParams::builder().build().expect("defaults build");
        let prices = Prices { edge: 4.0, cloud: 2.0 };
        let budgets = [100.0, 150.0];
        let cfg = crate::subgame::SubgameConfig::default();
        let path = std::env::temp_dir()
            .join(format!("mbm_memo_golden_reject_{}.mbms", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let (guard, _summary) =
            open_and_install(&path, MemoConfig::default(), mbm_store::StoreOptions::default())
                .expect("store opens");
        reset_stats();

        let solver = TieredSolver::connected(&params, &prices, &budgets, &cfg);
        let mut ws = SolveWorkspace::new();
        let cold = solver.solve(&mut ws).expect("cold solve converges");
        assert_eq!(stats().appends, 1, "cold success is persisted");

        // Forge a well-formed, feasible, checksummed record under the same
        // key whose profile is NOT the equilibrium; last-wins replaces the
        // honest record in the index.
        let key = active_key(&params, &prices, &solver.problem).expect("memo active");
        let mut tampered = ws.requests.clone();
        tampered[0].edge *= 0.5;
        let payload = encode(MemoMode::Connected, &cold, 0.0, &budgets, &tampered, &ws.utilities);
        {
            let h = handle().expect("memo installed");
            let mut store = h.store.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            store.append(&key, &payload).expect("forged append succeeds");
        }

        reset_stats();
        let mut ws2 = SolveWorkspace::new();
        let again = solver.solve(&mut ws2).expect("re-solve converges");
        let s = stats();
        assert_eq!(s.rejected, 1, "golden check rejects the forged profile");
        assert_eq!(s.hits, 0);
        assert_eq!(again, cold, "rejection falls through to a bitwise-identical solve");
        assert_eq!(ws2.requests, ws.requests);
        assert_eq!(ws2.utilities, ws.utilities);
        drop(guard);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn feasibility_rejects_budget_violations() {
        let params = MarketParams::builder()
            .reward(100.0)
            .fork_rate(0.2)
            .edge_availability(0.8)
            .e_max(5.0)
            .esp(crate::params::Provider::new(7.0, 15.0).unwrap())
            .csp(crate::params::Provider::new(1.0, 8.0).unwrap())
            .build()
            .unwrap();
        let prices = Prices { edge: 10.0, cloud: 2.0 };
        let ok = [Request { edge: 1.0, cloud: 2.0 }];
        let agg = Aggregates { edge: 1.0, cloud: 2.0 };
        let (connected, standalone) = (MemoMode::Connected, MemoMode::Standalone);
        assert!(feasible(connected, &params, &prices, &[100.0], &ok, agg));
        // Overspent budget.
        assert!(!feasible(connected, &params, &prices, &[10.0], &ok, agg));
        // Negative request.
        let neg = [Request { edge: -1.0, cloud: 2.0 }];
        assert!(!feasible(connected, &params, &prices, &[100.0], &neg, agg));
        // Standalone modes also check the shared edge capacity.
        let big = Aggregates { edge: 50.0, cloud: 2.0 };
        assert!(feasible(connected, &params, &prices, &[1000.0], &ok, big));
        assert!(!feasible(standalone, &params, &prices, &[1000.0], &ok, big));
    }
}
