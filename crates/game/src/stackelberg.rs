//! Bilevel (Stackelberg) driver for the leader stage.
//!
//! In the mining game the leaders are the service providers, each with a
//! scalar action (its unit price) in a bounded interval. A leader's payoff
//! already *anticipates* the followers: evaluating it solves the miner
//! subgame at the candidate prices (backward induction). The leader
//! equilibrium is then a Nash equilibrium of the scalar players, found by
//! one best-response search, [`leader_equilibrium`], under either
//! [`LeaderSchedule`]:
//!
//! * [`LeaderSchedule::BestResponse`] — sequential (Gauss–Seidel) best
//!   response, the paper's Algorithm 1 ("Asynchronous Best-Response").
//! * [`LeaderSchedule::Bargaining`] — simultaneous (Jacobi) updates, the
//!   schedule of the paper's Algorithm 2 ("Price Bargaining") where every
//!   SP announces a new price after observing the same round of requests.
//!
//! Each best response is a search of the adaptive refining grid over the
//! leader's interval. Its candidates run serially or on a [`Pool`]; the
//! winner and the reported error (the first failing candidate in grid
//! order) are picked by the same serial scan, so the outcome is bitwise
//! identical at any thread count.

use mbm_numerics::optimize::adaptive_grid_max_batch;
use mbm_par::Pool;
use serde::{Deserialize, Serialize};

use crate::error::GameError;

/// The leader stage of a Stackelberg game: scalar-action leaders whose
/// payoffs embed the follower equilibrium.
pub trait LeaderStage {
    /// Number of leaders.
    fn num_leaders(&self) -> usize;

    /// Action interval `[lo, hi]` of leader `i`.
    fn bounds(&self, i: usize) -> (f64, f64);

    /// Payoff of leader `i` at the action vector `actions`, anticipating the
    /// follower response.
    ///
    /// # Errors
    ///
    /// Implementations may fail if the embedded follower solve fails;
    /// returning an error aborts the leader iteration. Returning `NaN`
    /// instead marks the action profile as infeasible and lets the search
    /// continue elsewhere.
    fn payoff(&self, i: usize, actions: &[f64]) -> Result<f64, GameError>;
}

/// Parameters for the leader-stage solvers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LeaderParams {
    /// Convergence tolerance on the action displacement per round.
    pub tol: f64,
    /// Round cap.
    pub max_rounds: usize,
    /// Grid points per best-response line search.
    pub grid_points: usize,
    /// Refinement rounds per best-response line search.
    pub grid_rounds: usize,
    /// Damping toward the best response in `(0, 1]`.
    pub damping: f64,
}

impl LeaderParams {
    /// High-accuracy reference settings (`tol = 1e-6`, 200 rounds, 33-point
    /// grid, 6 refinements): the source of truth for figure-quality solves
    /// and for validating faster configurations. This is also [`Default`].
    #[must_use]
    pub fn reference() -> Self {
        LeaderParams { tol: 1e-6, max_rounds: 200, grid_points: 33, grid_rounds: 6, damping: 1.0 }
    }

    /// Throughput settings for the end-to-end pricing pipeline (`tol = 1e-4`,
    /// 60 rounds, 25-point grid, 5 refinements): every leader payoff
    /// evaluation solves a full miner subgame, so the pipeline trades the
    /// last two digits of price accuracy for a several-fold cut in subgame
    /// solves. `mbm-core`'s `StackelbergConfig` uses these.
    #[must_use]
    pub fn pipeline() -> Self {
        LeaderParams { tol: 1e-4, max_rounds: 60, grid_points: 25, grid_rounds: 5, damping: 1.0 }
    }
}

impl Default for LeaderParams {
    fn default() -> Self {
        LeaderParams::reference()
    }
}

/// Leader-update schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LeaderSchedule {
    /// Sequential asynchronous best response (paper Algorithm 1): each
    /// leader answers the actions already updated this round.
    BestResponse,
    /// Simultaneous updates (paper Algorithm 2, "price bargaining"): every
    /// leader answers the round's opening actions.
    Bargaining,
}

/// Outcome of a leader-stage solve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LeaderOutcome {
    /// Equilibrium actions (prices).
    pub actions: Vec<f64>,
    /// Rounds performed.
    pub rounds: usize,
    /// Final action displacement.
    pub residual: f64,
}

/// The leader best-response search.
///
/// Starting from `init` clamped into the leaders' bounds, every round moves
/// each leader in index order toward its best response by the fraction
/// `params.damping`. Under [`LeaderSchedule::BestResponse`] a leader answers
/// the actions as updated so far this round; under
/// [`LeaderSchedule::Bargaining`] it answers the round's opening actions.
/// Rounds repeat until no leader moves more than `params.tol`. A best
/// response maximizes the leader's payoff over its interval on the adaptive
/// grid, which is robust to the regime switches that make leader profits
/// non-smooth, holding the other leaders fixed; with `pool` its candidates
/// are evaluated on the pool's workers, with a bitwise-identical outcome.
///
/// `on_round` sees the clamped start and the actions after every round.
///
/// # Errors
///
/// * [`GameError::InvalidGame`] on malformed bounds, initial actions or
///   damping.
/// * [`GameError::NoConvergence`] if `max_rounds` is exhausted.
/// * The first error `stage.payoff` returns, in grid order.
pub fn leader_equilibrium<S: LeaderStage + Sync>(
    stage: &S,
    init: Vec<f64>,
    params: &LeaderParams,
    schedule: LeaderSchedule,
    pool: Option<&Pool>,
    mut on_round: impl FnMut(&[f64]),
) -> Result<LeaderOutcome, GameError> {
    let n = stage.num_leaders();
    if n == 0 {
        return Err(GameError::invalid("leader stage: no leaders"));
    }
    if init.len() != n {
        return Err(GameError::invalid("leader stage: initial action count mismatch"));
    }
    if !(params.damping > 0.0 && params.damping <= 1.0) {
        return Err(GameError::invalid("leader stage: damping must be in (0, 1]"));
    }
    let mut actions = init;
    for i in 0..n {
        let (lo, hi) = stage.bounds(i);
        if !(lo.is_finite() && hi.is_finite() && lo < hi) {
            return Err(GameError::invalid(format!("leader stage: bad bounds for leader {i}")));
        }
        actions[i] = actions[i].clamp(lo, hi);
    }
    on_round(&actions);

    let rec = mbm_obs::global();
    let mut residual = f64::INFINITY;
    for round in 0..params.max_rounds {
        let before = actions.clone();
        for i in 0..n {
            let observed = match schedule {
                LeaderSchedule::BestResponse => &actions,
                LeaderSchedule::Bargaining => &before,
            };
            let t = best_action(stage, i, observed, params, pool)?;
            actions[i] = (1.0 - params.damping) * actions[i] + params.damping * t;
        }
        residual = mbm_numerics::max_abs_diff(&actions, &before);
        on_round(&actions);
        // Per-round leader gap: the price displacement that Algorithms 1/2
        // drive to zero. One trace point per round makes convergence slope
        // regressions visible in TELEMETRY.json.
        rec.trace("game.leader.residual", residual);
        if residual <= params.tol {
            rec.solver("game.leader", (round + 1) as u64, residual);
            return Ok(LeaderOutcome { actions, rounds: round + 1, residual });
        }
    }
    rec.solver_failure("game.leader", params.max_rounds as u64);
    Err(GameError::NoConvergence { iterations: params.max_rounds, residual })
}

/// Leader `i`'s best response to `actions`: the adaptive grid over its
/// interval, each candidate scored by `stage.payoff` serially or, given a
/// pool, with `par_map`. A failing candidate scores NaN, which the grid
/// skips, and the first failure in grid order is the search's error.
fn best_action<S: LeaderStage + Sync>(
    stage: &S,
    i: usize,
    actions: &[f64],
    params: &LeaderParams,
    pool: Option<&Pool>,
) -> Result<f64, GameError> {
    let (lo, hi) = stage.bounds(i);
    // The payoff at candidate `a`, with `trial` a copy of `actions`.
    let payoff = |trial: &mut [f64], a: f64| {
        trial[i] = a;
        stage.payoff(i, trial)
    };
    // The serial scan reuses one copy; a worker copies per candidate.
    let mut trial = actions.to_vec();
    let mut error = None;
    let r = adaptive_grid_max_batch(
        |xs| match pool {
            // Workers cannot stop at a failure, so a pooled batch is
            // scored whole and its failures read back in grid order.
            Some(pool) if error.is_none() => {
                let results = pool.par_map(xs, |_, &a| payoff(&mut actions.to_vec(), a));
                results.into_iter().map(|r| score(r, &mut error)).collect()
            }
            // Serially, and on a pool once a batch has failed, nothing after
            // the first failure is evaluated.
            _ => xs
                .iter()
                .map(|&a| match error {
                    Some(_) => f64::NAN,
                    None => score(payoff(&mut trial, a), &mut error),
                })
                .collect(),
        },
        lo,
        hi,
        params.grid_points,
        params.grid_rounds,
    );
    if let Some(e) = error {
        return Err(e);
    }
    Ok(r?.x)
}

/// A candidate's payoff, or NaN with its error kept in `error` unless an
/// earlier one is already there.
fn score(payoff: Result<f64, GameError>, error: &mut Option<GameError>) -> f64 {
    payoff.unwrap_or_else(|e| {
        error.get_or_insert(e);
        f64::NAN
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    use LeaderSchedule::{Bargaining, BestResponse};

    /// The serial search with no round observer.
    fn serial<S: LeaderStage + Sync>(
        stage: &S,
        init: Vec<f64>,
        params: &LeaderParams,
        schedule: LeaderSchedule,
    ) -> Result<LeaderOutcome, GameError> {
        leader_equilibrium(stage, init, params, schedule, None, |_| {})
    }

    /// Differentiated-price duopoly: leader i's payoff
    /// `pᵢ (1 − pᵢ + 0.5 pⱼ)` has best response `pᵢ = (1 + 0.5 pⱼ) / 2` and
    /// symmetric equilibrium `p* = 2/3`.
    struct PriceDuopoly;

    impl LeaderStage for PriceDuopoly {
        fn num_leaders(&self) -> usize {
            2
        }
        fn bounds(&self, _i: usize) -> (f64, f64) {
            (0.0, 2.0)
        }
        fn payoff(&self, i: usize, actions: &[f64]) -> Result<f64, GameError> {
            let p = actions[i];
            let q = actions[1 - i];
            Ok(p * (1.0 - p + 0.5 * q))
        }
    }

    #[test]
    fn sequential_finds_price_equilibrium() {
        let out =
            serial(&PriceDuopoly, vec![0.1, 1.9], &LeaderParams::default(), BestResponse).unwrap();
        assert!((out.actions[0] - 2.0 / 3.0).abs() < 1e-4, "{:?}", out.actions);
        assert!((out.actions[1] - 2.0 / 3.0).abs() < 1e-4, "{:?}", out.actions);
        // Payoff at equilibrium: p(1 - p + 0.5p) = p(1 - 0.5p) = 2/3 * 2/3.
        assert!((PriceDuopoly.payoff(0, &out.actions).unwrap() - 4.0 / 9.0).abs() < 1e-3);
    }

    #[test]
    fn simultaneous_matches_sequential() {
        let seq =
            serial(&PriceDuopoly, vec![0.5, 0.5], &LeaderParams::default(), BestResponse).unwrap();
        let damped = LeaderParams { damping: 0.7, ..Default::default() };
        let sim = serial(&PriceDuopoly, vec![0.5, 0.5], &damped, Bargaining).unwrap();
        assert!(mbm_numerics::max_abs_diff(&seq.actions, &sim.actions) < 1e-3);
    }

    #[test]
    fn on_round_sees_the_clamped_start_and_every_round() {
        for schedule in [BestResponse, Bargaining] {
            let mut seen: Vec<Vec<f64>> = Vec::new();
            let out = leader_equilibrium(
                &PriceDuopoly,
                vec![-1.0, 1.9],
                &LeaderParams::default(),
                schedule,
                None,
                |a| seen.push(a.to_vec()),
            )
            .unwrap();
            assert_eq!(seen.len(), out.rounds + 1, "{schedule:?}");
            assert_eq!(seen[0], vec![0.0, 1.9], "{schedule:?}");
            assert_eq!(seen.last(), Some(&out.actions), "{schedule:?}");
        }
    }

    /// A leader whose unconstrained optimum is outside its bounds.
    struct CappedMonopolist;

    impl LeaderStage for CappedMonopolist {
        fn num_leaders(&self) -> usize {
            1
        }
        fn bounds(&self, _i: usize) -> (f64, f64) {
            (0.0, 0.3)
        }
        fn payoff(&self, _i: usize, actions: &[f64]) -> Result<f64, GameError> {
            let p = actions[0];
            Ok(p * (1.0 - p)) // unconstrained optimum at 0.5 > cap
        }
    }

    #[test]
    fn cap_binds_when_profit_increasing_on_interval() {
        let out =
            serial(&CappedMonopolist, vec![0.1], &LeaderParams::default(), BestResponse).unwrap();
        assert!((out.actions[0] - 0.3).abs() < 1e-6, "{:?}", out.actions);
    }

    struct NanRegions;

    impl LeaderStage for NanRegions {
        fn num_leaders(&self) -> usize {
            1
        }
        fn bounds(&self, _i: usize) -> (f64, f64) {
            (0.0, 1.0)
        }
        fn payoff(&self, _i: usize, actions: &[f64]) -> Result<f64, GameError> {
            let p = actions[0];
            if p < 0.4 {
                Ok(f64::NAN) // infeasible region
            } else {
                Ok(-(p - 0.6) * (p - 0.6))
            }
        }
    }

    #[test]
    fn nan_payoff_regions_are_avoided() {
        let out = serial(&NanRegions, vec![0.9], &LeaderParams::default(), BestResponse).unwrap();
        assert!((out.actions[0] - 0.6).abs() < 1e-4, "{:?}", out.actions);
    }

    struct FailingStage;

    impl LeaderStage for FailingStage {
        fn num_leaders(&self) -> usize {
            1
        }
        fn bounds(&self, _i: usize) -> (f64, f64) {
            (0.0, 1.0)
        }
        fn payoff(&self, _i: usize, _a: &[f64]) -> Result<f64, GameError> {
            Err(GameError::invalid("follower solve failed"))
        }
    }

    #[test]
    fn payoff_errors_abort_the_solve() {
        let err =
            serial(&FailingStage, vec![0.5], &LeaderParams::default(), BestResponse).unwrap_err();
        assert!(matches!(err, GameError::InvalidGame(_)));
    }

    #[test]
    fn input_validation() {
        let params = LeaderParams::default();
        assert!(serial(&PriceDuopoly, vec![0.5], &params, BestResponse).is_err());
        let bad = LeaderParams { damping: 0.0, ..Default::default() };
        assert!(serial(&PriceDuopoly, vec![0.5, 0.5], &bad, BestResponse).is_err());
    }

    #[test]
    fn parallel_solvers_are_bitwise_equal_to_serial() {
        let params = LeaderParams::default();
        let damped = LeaderParams { damping: 0.7, ..params };
        let seq = serial(&PriceDuopoly, vec![0.1, 1.9], &params, BestResponse).unwrap();
        let sim = serial(&PriceDuopoly, vec![0.1, 1.9], &damped, Bargaining).unwrap();
        for threads in [1, 3, 8] {
            let pool = Pool::new(threads);
            let run = |params: &LeaderParams, schedule| {
                leader_equilibrium(
                    &PriceDuopoly,
                    vec![0.1, 1.9],
                    params,
                    schedule,
                    Some(&pool),
                    |_| {},
                )
            };
            assert_eq!(seq, run(&params, BestResponse).unwrap(), "sequential, threads = {threads}");
            assert_eq!(sim, run(&damped, Bargaining).unwrap(), "simultaneous, threads = {threads}");
        }
    }

    #[test]
    fn parallel_payoff_errors_abort_the_solve() {
        let pool = Pool::new(4);
        let err = leader_equilibrium(
            &FailingStage,
            vec![0.5],
            &LeaderParams::default(),
            BestResponse,
            Some(&pool),
            |_| {},
        )
        .unwrap_err();
        assert!(matches!(err, GameError::InvalidGame(_)));
    }

    /// Fails at every candidate, naming it, and is slowest at `0`, the first
    /// candidate in grid order: a pooled search sees the later failures
    /// first.
    struct SlowFirstFailure;

    impl LeaderStage for SlowFirstFailure {
        fn num_leaders(&self) -> usize {
            1
        }
        fn bounds(&self, _i: usize) -> (f64, f64) {
            (0.0, 1.0)
        }
        fn payoff(&self, _i: usize, actions: &[f64]) -> Result<f64, GameError> {
            if actions[0] == 0.0 {
                std::thread::sleep(std::time::Duration::from_millis(200));
            }
            Err(GameError::invalid(format!("payoff fails at {}", actions[0])))
        }
    }

    #[test]
    fn pooled_search_reports_the_first_failing_candidate() {
        let params = LeaderParams::default();
        let expected =
            serial(&SlowFirstFailure, vec![0.5], &params, BestResponse).unwrap_err().to_string();
        assert_eq!(expected, "invalid game: payoff fails at 0");
        for threads in [2, 4] {
            let pool = Pool::new(threads);
            let err = leader_equilibrium(
                &SlowFirstFailure,
                vec![0.5],
                &params,
                BestResponse,
                Some(&pool),
                |_| {},
            )
            .unwrap_err();
            assert_eq!(err.to_string(), expected, "threads = {threads}");
        }
    }

    #[test]
    fn named_parameter_sets_are_distinct_and_documented() {
        assert_eq!(LeaderParams::default(), LeaderParams::reference());
        let pipeline = LeaderParams::pipeline();
        assert!(pipeline.grid_points < LeaderParams::reference().grid_points);
        assert!(pipeline.max_rounds < LeaderParams::reference().max_rounds);
    }
}
