//! Fault-injection and supervision tests for the tiered follower solver:
//! injected misconvergence escalates like the real thing, exhausted chains
//! degrade to certified best-so-far answers under a best-effort policy, and
//! deadlines terminate solves with a typed interruption.
//!
//! These tests install process-global fault plans, so they live in their own
//! integration binary and serialize on a local mutex.

use std::sync::Mutex;
use std::time::Duration;

use mbm_core::params::{MarketParams, Prices};
use mbm_core::solver::{
    DegradeMode, SolveMethod, SolvePolicy, SolveStatus, SolveWorkspace, TieredSolver,
};
use mbm_core::subgame::SubgameConfig;

static LOCK: Mutex<()> = Mutex::new(());

fn market() -> MarketParams {
    MarketParams::builder()
        .reward(100.0)
        .fork_rate(0.2)
        .edge_availability(0.8)
        .e_max(5.0)
        .build()
        .unwrap()
}

/// Runs `f` under an installed fault plan and a thread-local solve policy,
/// restoring both afterwards.
fn with_plan_and_policy<R>(spec: &str, policy: SolvePolicy, f: impl FnOnce() -> R) -> R {
    let _serial = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let plan = mbm_faults::FaultPlan::parse(spec).expect("test plan parses");
    let _guard = mbm_faults::install(plan);
    let previous = SolveWorkspace::set_thread_policy(policy);
    let out = f();
    SolveWorkspace::set_thread_policy(previous);
    out
}

#[test]
fn injected_misconvergence_escalates_like_a_real_failure() {
    let prices = Prices::new(4.0, 2.0).unwrap();
    let (r, report, first) = with_plan_and_policy(
        "seed=7;core.solver.symmetric_fp:misconverge@1",
        SolvePolicy::strict(),
        || {
            let (r, report) = TieredSolver::symmetric_connected(
                &market(),
                &prices,
                200.0,
                5,
                &SubgameConfig::default(),
            )
            .solve_per_miner()
            .expect("escalation tier absorbs the injected fault");
            // The full-N tier that answered left its profile in this
            // thread's workspace.
            let first = SolveWorkspace::with_thread_local(|ws| ws.requests.first().copied());
            (r, report, first.expect("the full-N tier fills the per-miner buffers"))
        },
    );
    // The symmetric answer is the first miner's request of that profile.
    assert_eq!(r.edge.to_bits(), first.edge.to_bits());
    assert_eq!(r.cloud.to_bits(), first.cloud.to_bits());
    assert!(r.edge.is_finite() && r.cloud.is_finite());
    assert_eq!(report.status, SolveStatus::Converged);
    assert_eq!(report.method, SolveMethod::BestResponseDynamics);
    assert!(report.hops() >= 1);
    assert_eq!(report.fallback_hops[0].method, SolveMethod::SymmetricFixedPoint);
    assert_eq!(report.retries, 0);
}

/// With every iterative kernel forced to misconverge, a strict policy
/// surfaces the terminal convergence failure...
#[test]
fn exhausted_chain_errors_under_strict_policy() {
    let prices = Prices::new(4.0, 2.0).unwrap();
    let spec = "seed=7;core.solver.symmetric_fp:misconverge@1;\
                game.br_dynamics:misconverge@1;numerics.vi.extragradient:misconverge@1";
    let err = with_plan_and_policy(spec, SolvePolicy::strict(), || {
        TieredSolver::symmetric_connected(&market(), &prices, 200.0, 5, &SubgameConfig::default())
            .solve_per_miner()
            .expect_err("all tiers fail under an all-kernel fault plan")
    });
    assert!(err.is_convergence_failure(), "unexpected terminal error: {err}");
}

/// ...while a best-effort policy returns the best-so-far iterate as a
/// `Degraded` answer, with the retry and the damping backoff on record.
#[test]
fn exhausted_chain_degrades_with_certificate_under_best_effort() {
    let prices = Prices::new(4.0, 2.0).unwrap();
    let spec = "seed=7;core.solver.symmetric_fp:misconverge@1;\
                game.br_dynamics:misconverge@1;numerics.vi.extragradient:misconverge@1";
    let policy = SolvePolicy::resilient(None);
    assert_eq!(policy.degrade, DegradeMode::BestEffort);
    let (r, report) = with_plan_and_policy(spec, policy, || {
        TieredSolver::symmetric_connected(&market(), &prices, 200.0, 5, &SubgameConfig::default())
            .solve_per_miner()
            .expect("best-effort policy salvages a degraded answer")
    });
    assert!(r.edge.is_finite() && r.cloud.is_finite());
    assert!(report.is_degraded());
    assert_eq!(report.status, SolveStatus::Degraded);
    // The candidate came from the last tier to leave an iterate behind.
    assert_eq!(report.method, SolveMethod::Extragradient);
    // The VI salvage path computes an independent GNEP residual certificate.
    let cert = report.certificate.expect("degraded VI answer carries a certificate");
    assert!(cert.is_finite());
    // Both attempts ran; the backoff landed in the damping override.
    assert_eq!(report.retries, 1);
    let damping = report.overrides.damping.expect("retry backoff recorded");
    assert!(damping.effective < damping.requested);
    // The terminal error is preserved as the last fallback hop.
    assert_eq!(report.fallback_hops.last().unwrap().method, SolveMethod::Extragradient);
}

#[test]
fn zero_deadline_interrupts_before_any_tier() {
    let prices = Prices::new(4.0, 2.0).unwrap();
    let _serial = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let policy = SolvePolicy { deadline: Some(Duration::ZERO), ..SolvePolicy::default() };
    let previous = SolveWorkspace::set_thread_policy(policy);
    let err =
        TieredSolver::symmetric_connected(&market(), &prices, 200.0, 5, &SubgameConfig::default())
            .solve_per_miner()
            .expect_err("a zero deadline expires at the first checkpoint");
    SolveWorkspace::set_thread_policy(previous);
    assert!(err.is_interruption(), "expected a deadline interruption, got: {err}");
    assert!(!err.is_convergence_failure());
}

/// A non-strict policy must not perturb solves that succeed on the first
/// attempt: same answer, same report bookkeeping, just richer supervision.
#[test]
fn resilient_policy_is_bitwise_identical_on_converging_solves() {
    let prices = Prices::new(4.0, 2.0).unwrap();
    let _serial = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = SubgameConfig::default();
    let (strict_r, strict_report) =
        TieredSolver::symmetric_connected(&market(), &prices, 200.0, 5, &cfg)
            .solve_per_miner()
            .unwrap();

    let previous =
        SolveWorkspace::set_thread_policy(SolvePolicy::resilient(Some(Duration::from_secs(60))));
    let out =
        TieredSolver::symmetric_connected(&market(), &prices, 200.0, 5, &cfg).solve_per_miner();
    SolveWorkspace::set_thread_policy(previous);
    let (resilient_r, resilient_report) = out.unwrap();

    assert_eq!(strict_r.edge.to_bits(), resilient_r.edge.to_bits());
    assert_eq!(strict_r.cloud.to_bits(), resilient_r.cloud.to_bits());
    assert_eq!(strict_report, resilient_report);
}
