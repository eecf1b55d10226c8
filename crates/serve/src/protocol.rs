//! Wire protocol of the pricing daemon: JSON-lines requests and responses.
//!
//! One JSON object per line in both directions. A request names a `verb`
//! (`solve` by default, plus the `health`/`ping`/`shutdown` control verbs)
//! and, for solves, the follower subgame to price: market parameters,
//! announced prices, the miner population (explicit `budgets` or a uniform
//! `budget` + `n`), solver mode and config, and an optional per-request
//! deadline. See DESIGN.md §12 for the full grammar.
//!
//! Parsing is **total**: every frame — truncated, malformed, NaN-bearing,
//! wrong-typed — maps to either a [`Request`] or a typed [`ErrorKind`],
//! never a panic, and a parse failure only poisons its own frame (the
//! connection survives). Non-finite numbers cannot sneak in as text: the
//! JSON grammar has no `NaN` literal, `null` deserializes to `f64::NAN`,
//! and every numeric field is validated for finiteness here, at the
//! protocol boundary, before a solver tier can see it.
//!
//! Response rendering is a pure function of the request and its solve
//! result (no timestamps, no worker identity), so response bodies are
//! byte-identical across runs and worker-pool sizes — the property the CI
//! serve-smoke determinism gate asserts.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use mbm_core::market::{provider_revenues, validate_price_vector, PriceVector};
use mbm_core::params::{validate_budgets, validate_prices, MarketParams, Prices, Provider};
use mbm_core::request::Aggregates;
use mbm_core::solver::{SolveStatus, Solved};
use mbm_core::subgame::SubgameConfig;
use mbm_core::MiningGameError;
use serde::Value;

/// Follower-subgame mode of a solve request (selects the tier chain).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Heterogeneous connected-mode NEP (BR dynamics → extragradient).
    Connected,
    /// Heterogeneous standalone-mode GNEP (extragradient → BR dynamics).
    Standalone,
    /// Aggregate-form O(N) connected chain (SoA population, for large N).
    AggregateConnected,
    /// Aggregate-form O(N) standalone chain.
    AggregateStandalone,
    /// Symmetric connected fast path (uniform budget, per-miner answer).
    SymmetricConnected,
    /// Symmetric standalone fast path.
    SymmetricStandalone,
}

impl Mode {
    /// Stable wire name (also used in responses).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Mode::Connected => "connected",
            Mode::Standalone => "standalone",
            Mode::AggregateConnected => "aggregate_connected",
            Mode::AggregateStandalone => "aggregate_standalone",
            Mode::SymmetricConnected => "symmetric_connected",
            Mode::SymmetricStandalone => "symmetric_standalone",
        }
    }

    fn parse(s: &str) -> Option<Mode> {
        Some(match s {
            "connected" => Mode::Connected,
            "standalone" => Mode::Standalone,
            "aggregate_connected" => Mode::AggregateConnected,
            "aggregate_standalone" => Mode::AggregateStandalone,
            "symmetric_connected" => Mode::SymmetricConnected,
            "symmetric_standalone" => Mode::SymmetricStandalone,
            _ => return None,
        })
    }

    /// Whether this mode prices a symmetric population from `budget` + `n`
    /// (as opposed to an explicit budget vector).
    #[must_use]
    pub fn is_symmetric(self) -> bool {
        matches!(self, Mode::SymmetricConnected | Mode::SymmetricStandalone)
    }
}

/// The miner population of a solve request.
#[derive(Debug, Clone, PartialEq)]
pub enum PopulationSpec {
    /// Explicit per-miner budget vector.
    Budgets(Vec<f64>),
    /// `n` miners with one uniform budget (materialized server-side for the
    /// heterogeneous chains; used directly by the symmetric fast paths).
    Uniform {
        /// The shared per-miner budget.
        budget: f64,
        /// Population size.
        n: usize,
    },
}

impl PopulationSpec {
    /// Number of miners described.
    #[must_use]
    pub fn n(&self) -> usize {
        match self {
            PopulationSpec::Budgets(b) => b.len(),
            PopulationSpec::Uniform { n, .. } => *n,
        }
    }
}

/// A validated pricing job, ready for a worker.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveJob {
    /// Tier chain to run.
    pub mode: Mode,
    /// Market parameters (revalidated through the builder on parse).
    pub params: MarketParams,
    /// Announced unit prices. For K-provider frames this is the Bertrand
    /// reduction of `providers` (edge price + cheapest cloud), so every
    /// solver tier sees the same two-price subgame either way.
    pub prices: Prices,
    /// The full K-provider price vector when the frame used `"providers"`
    /// (DESIGN.md §14). `None` for legacy two-field `"prices"` frames —
    /// those responses stay byte-identical to the pre-oligopoly wire.
    pub providers: Option<Vec<f64>>,
    /// The miner population.
    pub population: PopulationSpec,
    /// Subgame solver configuration.
    pub cfg: SubgameConfig,
    /// Per-request deadline override in milliseconds (`None` → server
    /// default; clamped to the server maximum at admission).
    pub deadline_ms: Option<u64>,
    /// Warm-start opt-in: seed this solve from the connection's last warm
    /// equilibrium and store the result back for the next warm request on
    /// the same keep-alive connection (see DESIGN.md §13). Off by default;
    /// cold requests never touch the warm slot and stay
    /// bitwise-historical.
    pub warm: bool,
}

/// What a parsed frame asks the server to do.
#[derive(Debug, Clone, PartialEq)]
pub enum Verb {
    /// Price a follower subgame (queued to the worker pool).
    Solve(Box<SolveJob>),
    /// Report queue/shed/degraded counters plus the mbm-obs snapshot.
    Health,
    /// Liveness check, answered inline.
    Ping,
    /// Begin graceful shutdown: drain in-flight jobs, shed the queue.
    Shutdown,
    /// Test-only: occupy a worker for `ms` milliseconds (drain tests). Only
    /// honored when the server enables test verbs.
    Sleep {
        /// How long the worker sleeps.
        ms: u64,
    },
}

/// A parsed request frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: Option<u64>,
    /// The action requested.
    pub verb: Verb,
}

/// Typed failure classes a response can carry. Every error a client can
/// observe is one of these — the daemon never answers with free-form text
/// and never hangs a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The frame was not a well-formed request object.
    Malformed,
    /// The frame parsed but a field failed validation.
    InvalidParameter,
    /// Admission control refused the job: the queue is full.
    Overloaded,
    /// The deadline expired (in queue or mid-solve with nothing to salvage).
    DeadlineExceeded,
    /// The solve was cancelled by forced shutdown.
    Cancelled,
    /// The job was queued when graceful shutdown began and was shed.
    ShuttingDown,
    /// Every tier failed and the policy had nothing to salvage.
    SolveFailed,
    /// A worker panic was caught; the job died but the worker survived.
    Internal,
}

impl ErrorKind {
    /// Stable wire name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Malformed => "malformed",
            ErrorKind::InvalidParameter => "invalid_parameter",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::DeadlineExceeded => "deadline_exceeded",
            ErrorKind::Cancelled => "cancelled",
            ErrorKind::ShuttingDown => "shutting_down",
            ErrorKind::SolveFailed => "solve_failed",
            ErrorKind::Internal => "internal",
        }
    }
}

/// A typed parse/validation failure for one frame.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameError {
    /// Correlation id, when one was recoverable from the frame.
    pub id: Option<u64>,
    /// Failure class.
    pub kind: ErrorKind,
    /// Human-readable detail (deterministic for a given frame).
    pub message: String,
}

impl FrameError {
    fn new(id: Option<u64>, kind: ErrorKind, message: impl Into<String>) -> Self {
        FrameError { id, kind, message: message.into() }
    }
}

fn field<'a>(map: &'a Value, key: &str) -> Option<&'a Value> {
    map.get(key)
}

fn u64_field(map: &Value, key: &str, id: Option<u64>) -> Result<Option<u64>, FrameError> {
    match field(map, key) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => serde_json::from_value::<u64>(v.clone())
            .map(Some)
            .map_err(|e| FrameError::new(id, ErrorKind::InvalidParameter, format!("{key}: {e}"))),
    }
}

fn require<'a>(map: &'a Value, key: &str, id: Option<u64>) -> Result<&'a Value, FrameError> {
    field(map, key).ok_or_else(|| {
        FrameError::new(id, ErrorKind::InvalidParameter, format!("missing required field `{key}`"))
    })
}

/// Re-runs the constructor validation on deserialized parameters: the serde
/// derive writes private fields directly, so a frame could otherwise smuggle
/// a NaN reward or an inverted provider past [`MarketParams::builder`].
fn revalidate_params(p: &MarketParams) -> Result<MarketParams, MiningGameError> {
    let esp = Provider::new(p.esp().cost(), p.esp().price_cap())?;
    let csp = Provider::new(p.csp().cost(), p.csp().price_cap())?;
    MarketParams::builder()
        .reward(p.reward())
        .fork_rate(p.fork_rate())
        .edge_availability(p.edge_availability())
        .esp(esp)
        .csp(csp)
        .e_max(p.e_max())
        .build()
}

fn validate_cfg(cfg: &SubgameConfig) -> Result<(), MiningGameError> {
    if !(cfg.damping.is_finite() && cfg.damping > 0.0 && cfg.damping <= 1.0) {
        return Err(MiningGameError::invalid(format!(
            "cfg.damping = {} must be in (0, 1]",
            cfg.damping
        )));
    }
    if !(cfg.tol.is_finite() && cfg.tol > 0.0) {
        return Err(MiningGameError::invalid(format!("cfg.tol = {} must be > 0", cfg.tol)));
    }
    if cfg.max_iter == 0 {
        return Err(MiningGameError::invalid("cfg.max_iter must be >= 1"));
    }
    Ok(())
}

fn invalid(id: Option<u64>, e: &MiningGameError) -> FrameError {
    FrameError::new(id, ErrorKind::InvalidParameter, e.to_string())
}

fn parse_solve(map: &Value, id: Option<u64>) -> Result<SolveJob, FrameError> {
    let mode_str = serde_json::from_value::<String>(require(map, "mode", id)?.clone())
        .map_err(|e| FrameError::new(id, ErrorKind::InvalidParameter, format!("mode: {e}")))?;
    let mode = Mode::parse(&mode_str).ok_or_else(|| {
        FrameError::new(id, ErrorKind::InvalidParameter, format!("unknown mode `{mode_str}`"))
    })?;

    let params = match field(map, "params") {
        None | Some(Value::Null) => MarketParams::builder().build().map_err(|e| invalid(id, &e))?,
        Some(v) => {
            let raw: MarketParams = serde_json::from_value(v.clone()).map_err(|e| {
                FrameError::new(id, ErrorKind::InvalidParameter, format!("params: {e}"))
            })?;
            revalidate_params(&raw).map_err(|e| invalid(id, &e))?
        }
    };

    let providers = match field(map, "providers") {
        None | Some(Value::Null) => None,
        Some(v) => Some(serde_json::from_value::<Vec<f64>>(v.clone()).map_err(|e| {
            FrameError::new(id, ErrorKind::InvalidParameter, format!("providers: {e}"))
        })?),
    };
    let prices =
        match (field(map, "prices"), &providers) {
            (Some(_), Some(_)) => return Err(FrameError::new(
                id,
                ErrorKind::InvalidParameter,
                "announce either `prices` (edge/cloud pair) or `providers` (K-vector), not both",
            )),
            (_, Some(vector)) => {
                // `null` elements arrive as NaN and fail the finiteness check.
                validate_price_vector(vector).map_err(|e| invalid(id, &e))?;
                PriceVector::new(vector).map_err(|e| invalid(id, &e))?.effective()
            }
            (price_field, None) => {
                let raw = match price_field {
                    Some(v) => v.clone(),
                    None => {
                        return Err(FrameError::new(
                            id,
                            ErrorKind::InvalidParameter,
                            "missing required field `prices`",
                        ))
                    }
                };
                let prices: Prices = serde_json::from_value(raw).map_err(|e| {
                    FrameError::new(id, ErrorKind::InvalidParameter, format!("prices: {e}"))
                })?;
                validate_prices(&prices).map_err(|e| invalid(id, &e))?;
                prices
            }
        };

    let budgets = match field(map, "budgets") {
        None | Some(Value::Null) => None,
        Some(v) => Some(serde_json::from_value::<Vec<f64>>(v.clone()).map_err(|e| {
            FrameError::new(id, ErrorKind::InvalidParameter, format!("budgets: {e}"))
        })?),
    };
    let budget = match field(map, "budget") {
        None | Some(Value::Null) => None,
        Some(v) => Some(serde_json::from_value::<f64>(v.clone()).map_err(|e| {
            FrameError::new(id, ErrorKind::InvalidParameter, format!("budget: {e}"))
        })?),
    };
    let n = u64_field(map, "n", id)?;

    let population = match (budgets, budget, n) {
        (Some(b), None, None) => {
            validate_budgets(&b).map_err(|e| invalid(id, &e))?;
            if mode.is_symmetric() {
                return Err(FrameError::new(
                    id,
                    ErrorKind::InvalidParameter,
                    "symmetric modes take `budget` + `n`, not a `budgets` vector",
                ));
            }
            PopulationSpec::Budgets(b)
        }
        (None, Some(b), Some(n)) => {
            let n = usize::try_from(n).unwrap_or(usize::MAX);
            if !(b.is_finite() && b > 0.0) {
                return Err(FrameError::new(
                    id,
                    ErrorKind::InvalidParameter,
                    format!("budget = {b} must be > 0"),
                ));
            }
            if n < 2 {
                return Err(FrameError::new(
                    id,
                    ErrorKind::InvalidParameter,
                    "need at least two miners; the mining race degenerates with one",
                ));
            }
            PopulationSpec::Uniform { budget: b, n }
        }
        _ => {
            return Err(FrameError::new(
                id,
                ErrorKind::InvalidParameter,
                "population must be either `budgets` (a vector) or `budget` + `n`",
            ))
        }
    };

    let cfg = match field(map, "cfg") {
        None | Some(Value::Null) => SubgameConfig::default(),
        Some(v) => serde_json::from_value(v.clone())
            .map_err(|e| FrameError::new(id, ErrorKind::InvalidParameter, format!("cfg: {e}")))?,
    };
    validate_cfg(&cfg).map_err(|e| invalid(id, &e))?;

    let deadline_ms = u64_field(map, "deadline_ms", id)?;
    let warm = match field(map, "warm") {
        None | Some(Value::Null) => false,
        Some(v) => serde_json::from_value::<bool>(v.clone())
            .map_err(|e| FrameError::new(id, ErrorKind::InvalidParameter, format!("warm: {e}")))?,
    };
    Ok(SolveJob { mode, params, prices, providers, population, cfg, deadline_ms, warm })
}

/// Parses one JSON-lines frame into a [`Request`].
///
/// # Errors
///
/// Returns a [`FrameError`] carrying the typed [`ErrorKind`] and, when the
/// frame was at least a JSON object with a numeric `id`, the correlation id
/// to echo. Never panics on any input.
pub fn parse_request(line: &str) -> Result<Request, FrameError> {
    let value: Value = serde_json::from_str(line)
        .map_err(|e| FrameError::new(None, ErrorKind::Malformed, e.to_string()))?;
    if value.as_map().is_none() {
        return Err(FrameError::new(None, ErrorKind::Malformed, "frame is not a JSON object"));
    }
    // Best-effort id recovery so even invalid frames get correlated replies.
    let id = u64_field(&value, "id", None)?;
    let verb = match field(&value, "verb") {
        None | Some(Value::Null) => "solve".to_string(),
        Some(v) => serde_json::from_value::<String>(v.clone())
            .map_err(|e| FrameError::new(id, ErrorKind::InvalidParameter, format!("verb: {e}")))?,
    };
    let verb = match verb.as_str() {
        "solve" => Verb::Solve(Box::new(parse_solve(&value, id)?)),
        "health" => Verb::Health,
        "ping" => Verb::Ping,
        "shutdown" => Verb::Shutdown,
        "sleep" => {
            let ms = u64_field(&value, "ms", id)?.unwrap_or(0);
            Verb::Sleep { ms }
        }
        other => {
            return Err(FrameError::new(
                id,
                ErrorKind::InvalidParameter,
                format!("unknown verb `{other}`"),
            ))
        }
    };
    Ok(Request { id, verb })
}

// ---------------------------------------------------------------------------
// Response rendering.
// ---------------------------------------------------------------------------

fn id_value(id: Option<u64>) -> Value {
    match id {
        Some(n) => Value::U64(n),
        None => Value::Null,
    }
}

/// Renders a successful solve response: status, aggregates, the mean
/// per-miner request, leader payoffs, and the full
/// [`SolveReport`](mbm_core::solver::SolveReport).
#[must_use]
pub fn render_solved(id: Option<u64>, job: &SolveJob, solved: &Solved) -> String {
    let status = match solved.report.status {
        SolveStatus::Converged => "Converged",
        SolveStatus::Degraded => "Degraded",
    };
    let Aggregates { edge, cloud } = solved.aggregates;
    let n = solved.n.max(1);
    let (mean_e, mean_c) = match solved.per_miner {
        Some(r) => (r.edge, r.cloud),
        #[allow(clippy::cast_precision_loss)]
        None => (edge / n as f64, cloud / n as f64),
    };
    let (v_esp, v_csp) = mbm_core::sp::profits(&job.params, &job.prices, &solved.aggregates);
    let report = serde_json::to_value(&solved.report).unwrap_or(Value::Null);
    let body = Value::Map(vec![
        ("id".into(), id_value(id)),
        ("status".into(), Value::Str(status.into())),
        ("mode".into(), Value::Str(job.mode.as_str().into())),
        ("n".into(), Value::U64(solved.n as u64)),
        (
            "aggregates".into(),
            Value::Map(vec![
                ("edge".into(), Value::F64(edge)),
                ("cloud".into(), Value::F64(cloud)),
            ]),
        ),
        (
            "request_mean".into(),
            Value::Map(vec![
                ("edge".into(), Value::F64(mean_e)),
                ("cloud".into(), Value::F64(mean_c)),
            ]),
        ),
        (
            "payoffs".into(),
            Value::Map(vec![("esp".into(), Value::F64(v_esp)), ("csp".into(), Value::F64(v_csp))]),
        ),
        ("report".into(), report),
    ]);
    let mut body = match body {
        Value::Map(entries) => entries,
        _ => unreachable!("body is constructed as a map"),
    };
    // K-provider frames additionally get the Bertrand split: per-provider
    // demand and revenue at the announced vector. Legacy `prices` frames
    // skip this key entirely so their bodies stay byte-identical.
    if let Some(vector) = &job.providers {
        if let Ok(pv) = PriceVector::new(vector) {
            let demand = pv.allocate_demand(&solved.aggregates);
            let revenue = provider_revenues(&pv, &solved.aggregates);
            body.push((
                "providers".into(),
                Value::Map(vec![
                    ("prices".into(), Value::Seq(vector.iter().map(|&p| Value::F64(p)).collect())),
                    ("demand".into(), Value::Seq(demand.into_iter().map(Value::F64).collect())),
                    ("revenue".into(), Value::Seq(revenue.into_iter().map(Value::F64).collect())),
                ]),
            ));
        }
    }
    serde_json::to_string(&Value::Map(body)).unwrap_or_else(|_| "{}".into())
}

/// Renders a typed error response.
#[must_use]
pub fn render_error(err: &FrameError) -> String {
    let body = Value::Map(vec![
        ("id".into(), id_value(err.id)),
        ("status".into(), Value::Str("Error".into())),
        (
            "error".into(),
            Value::Map(vec![
                ("kind".into(), Value::Str(err.kind.as_str().into())),
                ("message".into(), Value::Str(err.message.clone())),
            ]),
        ),
    ]);
    serde_json::to_string(&body).unwrap_or_else(|_| "{}".into())
}

/// Renders a small `status: Ok` control response with one extra field.
#[must_use]
pub fn render_ok(id: Option<u64>, key: &str, value: Value) -> String {
    let body = Value::Map(vec![
        ("id".into(), id_value(id)),
        ("status".into(), Value::Str("Ok".into())),
        (key.to_string(), value),
    ]);
    serde_json::to_string(&body).unwrap_or_else(|_| "{}".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve_line(extra: &str) -> String {
        format!(
            r#"{{"id":1,"verb":"solve","mode":"connected","prices":{{"edge":4.0,"cloud":2.0}},"budgets":[100.0,80.0,120.0]{extra}}}"#
        )
    }

    #[test]
    fn parses_minimal_solve() {
        let req = parse_request(&solve_line("")).unwrap();
        assert_eq!(req.id, Some(1));
        match req.verb {
            Verb::Solve(job) => {
                assert_eq!(job.mode, Mode::Connected);
                assert_eq!(job.population.n(), 3);
                assert_eq!(job.cfg, SubgameConfig::default());
                assert!(job.deadline_ms.is_none());
                assert!(!job.warm, "warm must be an explicit opt-in");
            }
            other => panic!("expected solve, got {other:?}"),
        }
    }

    #[test]
    fn warm_flag_parses_and_is_validated() {
        let req = parse_request(&solve_line(r#","warm":true"#)).unwrap();
        match req.verb {
            Verb::Solve(job) => assert!(job.warm),
            other => panic!("expected solve, got {other:?}"),
        }
        let err = parse_request(&solve_line(r#","warm":"yes""#)).unwrap_err();
        assert_eq!(err.kind, ErrorKind::InvalidParameter);
        assert!(err.message.contains("warm"), "{}", err.message);
    }

    #[test]
    fn parses_uniform_population_and_deadline() {
        let line = r#"{"id":9,"mode":"symmetric_connected","prices":{"edge":4,"cloud":2},"budget":100,"n":50,"deadline_ms":250}"#;
        let req = parse_request(line).unwrap();
        match req.verb {
            Verb::Solve(job) => {
                assert_eq!(job.population, PopulationSpec::Uniform { budget: 100.0, n: 50 });
                assert_eq!(job.deadline_ms, Some(250));
            }
            other => panic!("expected solve, got {other:?}"),
        }
    }

    #[test]
    fn malformed_frames_are_typed_not_panics() {
        for line in [
            "",
            "{",
            "[1,2,3]",
            "\"a string\"",
            r#"{"id":1,"verb":"so"#,
            "not json at all",
            "{}trailing",
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(
                matches!(err.kind, ErrorKind::Malformed | ErrorKind::InvalidParameter),
                "line {line:?} gave {err:?}"
            );
        }
    }

    #[test]
    fn null_budget_arrives_as_nan_and_is_rejected() {
        // JSON has no NaN literal; `null` deserializes to NaN and must be
        // caught by budget validation at the boundary.
        let line =
            r#"{"id":3,"mode":"connected","prices":{"edge":4,"cloud":2},"budgets":[100.0,null]}"#;
        let err = parse_request(line).unwrap_err();
        assert_eq!(err.id, Some(3));
        assert_eq!(err.kind, ErrorKind::InvalidParameter);
        assert!(err.message.contains("budget"), "{}", err.message);
    }

    #[test]
    fn non_positive_prices_rejected() {
        let line =
            r#"{"id":4,"mode":"connected","prices":{"edge":-1.0,"cloud":2},"budgets":[1.0,2.0]}"#;
        let err = parse_request(line).unwrap_err();
        assert_eq!(err.kind, ErrorKind::InvalidParameter);
    }

    #[test]
    fn smuggled_params_are_revalidated() {
        // Field-level deserialization bypasses the builder; the boundary
        // must re-run its validation (here: fork rate out of range).
        let line = r#"{"id":5,"mode":"connected","prices":{"edge":4,"cloud":2},"budgets":[1.0,2.0],"params":{"reward":100.0,"fork_rate":1.5,"edge_availability":0.8,"esp":{"cost":2.0,"price_cap":10.0},"csp":{"cost":1.0,"price_cap":8.0},"e_max":50.0}}"#;
        let err = parse_request(line).unwrap_err();
        assert_eq!(err.kind, ErrorKind::InvalidParameter);
        assert!(err.message.contains("fork rate"), "{}", err.message);
    }

    #[test]
    fn bad_cfg_rejected_at_boundary() {
        let line = r#"{"id":6,"mode":"connected","prices":{"edge":4,"cloud":2},"budgets":[1.0,2.0],"cfg":{"damping":null,"tol":1e-9,"max_iter":100}}"#;
        let err = parse_request(line).unwrap_err();
        assert_eq!(err.kind, ErrorKind::InvalidParameter);
        assert!(err.message.contains("damping"), "{}", err.message);
    }

    #[test]
    fn symmetric_mode_rejects_budget_vector() {
        let line = r#"{"id":7,"mode":"symmetric_connected","prices":{"edge":4,"cloud":2},"budgets":[1.0,2.0]}"#;
        assert_eq!(parse_request(line).unwrap_err().kind, ErrorKind::InvalidParameter);
    }

    #[test]
    fn providers_frame_reduces_to_effective_prices() {
        let line =
            r#"{"id":10,"mode":"connected","providers":[4.0,2.5,2.0,3.0],"budgets":[100.0,80.0]}"#;
        let req = parse_request(line).unwrap();
        match req.verb {
            Verb::Solve(job) => {
                assert_eq!(job.prices, Prices::new(4.0, 2.0).unwrap());
                assert_eq!(job.providers.as_deref(), Some(&[4.0, 2.5, 2.0, 3.0][..]));
            }
            other => panic!("expected solve, got {other:?}"),
        }
    }

    #[test]
    fn legacy_prices_frame_leaves_providers_unset() {
        let req = parse_request(&solve_line("")).unwrap();
        match req.verb {
            Verb::Solve(job) => assert!(job.providers.is_none()),
            other => panic!("expected solve, got {other:?}"),
        }
    }

    #[test]
    fn malformed_provider_vectors_are_invalid_parameter() {
        let mut sixty_five = vec!["1.5"; 65].join(",");
        sixty_five.insert(0, '[');
        sixty_five.push(']');
        for providers in
            ["[]", "[4.0]", "[4.0,null,2.0]", "[4.0,-1.0]", "[4.0,0.0]", sixty_five.as_str()]
        {
            let line = format!(
                r#"{{"id":11,"mode":"connected","providers":{providers},"budgets":[100.0,80.0]}}"#
            );
            let err = parse_request(&line).unwrap_err();
            assert_eq!(err.kind, ErrorKind::InvalidParameter, "providers {providers}");
            assert_eq!(err.id, Some(11));
        }
    }

    #[test]
    fn prices_and_providers_together_are_rejected() {
        let line = r#"{"id":12,"mode":"connected","prices":{"edge":4.0,"cloud":2.0},"providers":[4.0,2.0],"budgets":[100.0,80.0]}"#;
        let err = parse_request(line).unwrap_err();
        assert_eq!(err.kind, ErrorKind::InvalidParameter);
        assert!(err.message.contains("not both"), "{}", err.message);
    }

    #[test]
    fn control_verbs_parse() {
        assert_eq!(parse_request(r#"{"verb":"ping"}"#).unwrap().verb, Verb::Ping);
        assert_eq!(parse_request(r#"{"id":2,"verb":"health"}"#).unwrap().verb, Verb::Health);
        assert_eq!(parse_request(r#"{"verb":"shutdown"}"#).unwrap().verb, Verb::Shutdown);
        assert_eq!(
            parse_request(r#"{"verb":"sleep","ms":50}"#).unwrap().verb,
            Verb::Sleep { ms: 50 }
        );
        assert_eq!(
            parse_request(r#"{"id":8,"verb":"frobnicate"}"#).unwrap_err().kind,
            ErrorKind::InvalidParameter
        );
    }

    #[test]
    fn error_rendering_is_deterministic_and_typed() {
        let err = FrameError::new(Some(12), ErrorKind::Overloaded, "queue full (64 jobs)");
        let body = render_error(&err);
        assert_eq!(
            body,
            r#"{"id":12,"status":"Error","error":{"kind":"overloaded","message":"queue full (64 jobs)"}}"#
        );
        let null_id = FrameError::new(None, ErrorKind::Malformed, "x");
        assert!(render_error(&null_id).starts_with(r#"{"id":null"#));
    }
}
