//! Warm-started equilibrium continuation for grid-shaped solve sequences.
//!
//! Grid-shaped experiment batches (`experiments --warm`), the leader stage's
//! batched demand and live repricing in `mbm-serve` all solve the *same
//! miner population* at a dense set of price points, and the follower
//! equilibrium varies smoothly in the prices.
//! This module adds the continuation layer those callers share:
//!
//! * [`WarmState`] — a warm-start slot holding the flat equilibrium profile
//!   of the last converged solve, **keyed on population identity** (edge
//!   mode, miner count and an FNV-1a hash of the budget bits, confirmed
//!   with a bitwise compare) so a stale profile can never leak across tasks
//!   or populations. A key change on store counts as a `warm_reset`.
//! * [`nearest_neighbor_order`] — greedy nearest-neighbor ordering of a
//!   price grid so consecutive solves are numerically adjacent and the
//!   predecessor's equilibrium is a good seed.
//! * The tier-selection heuristic: the symmetric fixed point advertises slow
//!   contraction through its ω clamp; once it has *hopped* (contributed a
//!   `core.solver.fallback_hops` entry) in the current parameter region, the
//!   chain starts directly at the escalation tier — which, unlike the
//!   symmetric fixed point, accepts the warm seed.
//!
//! Warm starting is strictly opt-in: with the slot disabled (the default)
//! every solve seeds from [`initial_profile_into`] exactly as before, so
//! default paths stay bitwise-historical. Warm solves converge to the same
//! equilibria within the certificate tolerance (the seed only moves the
//! start iterate inside the same basin) and are thread-count deterministic
//! because every continuation sequence runs serially on one workspace.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use crate::error::MiningGameError;
use crate::params::{EdgeOperation, Prices};
use crate::request::Request;
use crate::subgame::initial_profile_into;

use super::workspace::SolveWorkspace;
use super::{bits_equal, bits_fingerprint, Budgets, FollowerProblem, TierRun};

/// Population identity of a stored warm profile. Connected and standalone
/// equilibria live on different feasible sets (the standalone GNEP couples
/// miners through `Σeᵢ ≤ E_max`), so a profile never seeds across modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WarmKey {
    mode: EdgeOperation,
    n: usize,
    bits: u64,
}

impl WarmKey {
    fn slice(mode: EdgeOperation, budgets: &[f64]) -> Self {
        WarmKey { mode, n: budgets.len(), bits: bits_fingerprint(budgets.iter().copied()) }
    }

    fn uniform(mode: EdgeOperation, budget: f64, n: usize) -> Self {
        WarmKey { mode, n, bits: bits_fingerprint(std::iter::repeat_n(budget, n)) }
    }
}

/// The warm-start slot of a [`SolveWorkspace`]: the flat equilibrium profile
/// of the last converged solve plus the population identity it belongs to.
///
/// Disabled by default (cold solves are bitwise-historical); enable it via
/// [`SolveWorkspace::set_thread_warm`], [`WarmState::set_enabled`] or
/// implicitly through `solve_batch`. The `hits`/`resets` counters mirror the
/// `core.solver.warm_hits` / `core.solver.warm_resets` telemetry.
#[derive(Debug, Default)]
pub struct WarmState {
    enabled: bool,
    key: Option<WarmKey>,
    /// Stored budget copy: a key match is confirmed bitwise, so a hash
    /// collision can never alias two different populations.
    budgets: Vec<f64>,
    /// Flat `[e_0, c_0, e_1, c_1, …]` equilibrium of the last stored solve.
    profile: Vec<f64>,
    /// Consecutive fallback hops of the symmetric fixed-point tier in the
    /// current parameter region (reset on symmetric success and on slot
    /// invalidation) — the accumulated evidence behind the tier skip.
    sym_hops: u32,
    hits: u64,
    resets: u64,
}

impl WarmState {
    /// Enables or disables warm seeding; returns the previous setting.
    /// Disabling also clears the slot so a later re-enable starts fresh.
    pub fn set_enabled(&mut self, on: bool) -> bool {
        let prev = std::mem::replace(&mut self.enabled, on);
        if !on {
            self.invalidate();
        }
        prev
    }

    /// Whether warm seeding is active on this workspace.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Drops the stored profile and key (capacity is kept). Does not count
    /// as a reset — resets track *population changes*, not scope boundaries.
    pub fn invalidate(&mut self) {
        self.key = None;
        self.budgets.clear();
        self.profile.clear();
        self.sym_hops = 0;
    }

    /// Solves seeded from the stored profile so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Times the slot was re-keyed because the population changed.
    #[must_use]
    pub fn resets(&self) -> u64 {
        self.resets
    }

    /// Heap bytes currently reserved by the slot.
    #[must_use]
    pub fn footprint(&self) -> usize {
        (self.budgets.capacity() + self.profile.capacity()) * std::mem::size_of::<f64>()
    }

    fn matches(&self, key: WarmKey) -> bool {
        self.key == Some(key) && self.profile.len() == 2 * key.n
    }

    /// Writes the start profile for a heterogeneous tier into `out`: the
    /// stored equilibrium when the slot matches this population (a warm
    /// hit), the historical [`initial_profile_into`] start otherwise. The
    /// warm seed honours the shared capacity rescale exactly like the cold
    /// start does, so it is always feasible for the standalone GNEP.
    pub(crate) fn seed_profile(
        &mut self,
        mode: EdgeOperation,
        budgets: &[f64],
        prices: &Prices,
        e_max: Option<f64>,
        out: &mut Vec<f64>,
    ) -> Result<(), MiningGameError> {
        if self.enabled
            && self.matches(WarmKey::slice(mode, budgets))
            && bits_equal(&self.budgets, budgets)
        {
            out.clear();
            out.extend_from_slice(&self.profile);
            if let Some(e_max) = e_max {
                let e_total: f64 = out.iter().step_by(2).sum();
                if e_total > e_max {
                    let scale = e_max / e_total * 0.95;
                    for e in out.iter_mut().step_by(2) {
                        *e *= scale;
                    }
                }
            }
            self.hits += 1;
            let rec = mbm_obs::global();
            if rec.enabled() {
                rec.incr("core.solver.warm_hits");
            }
            return Ok(());
        }
        initial_profile_into(budgets, prices, e_max, out)
    }

    /// Re-keys the slot for `key`, counting a reset when a *different*
    /// population was stored before.
    fn rekey(&mut self, key: WarmKey, budgets_match: bool) {
        if self.matches(key) && budgets_match {
            return;
        }
        if self.key.is_some() {
            self.resets += 1;
            let rec = mbm_obs::global();
            if rec.enabled() {
                rec.incr("core.solver.warm_resets");
            }
        }
        self.sym_hops = 0;
        self.key = Some(key);
    }

    fn store_slice(&mut self, mode: EdgeOperation, budgets: &[f64], requests: &[Request]) {
        let key = WarmKey::slice(mode, budgets);
        let same = bits_equal(&self.budgets, budgets);
        self.rekey(key, same);
        if !same {
            self.budgets.clear();
            self.budgets.extend_from_slice(budgets);
        }
        self.profile.clear();
        for r in requests {
            self.profile.push(r.edge);
            self.profile.push(r.cloud);
        }
    }

    fn store_uniform(&mut self, mode: EdgeOperation, budget: f64, n: usize, x: Request) {
        let key = WarmKey::uniform(mode, budget, n);
        let same =
            self.budgets.len() == n && self.budgets.iter().all(|b| b.to_bits() == budget.to_bits());
        self.rekey(key, same);
        if !same {
            self.budgets.clear();
            self.budgets.resize(n, budget);
        }
        self.profile.clear();
        for _ in 0..n {
            self.profile.push(x.edge);
            self.profile.push(x.cloud);
        }
    }

    /// Records a fallback hop of the symmetric fixed-point tier.
    pub(crate) fn note_sym_hop(&mut self) {
        if self.enabled {
            self.sym_hops = self.sym_hops.saturating_add(1);
        }
    }

    /// Records a symmetric fixed-point success (re-arms the tier).
    pub(crate) fn note_sym_ok(&mut self) {
        self.sym_hops = 0;
    }

    /// Whether the accumulated hop evidence says to skip the symmetric
    /// fixed point in this parameter region.
    pub(crate) fn skip_symmetric(&self) -> bool {
        self.enabled && self.sym_hops >= 1
    }
}

/// Stores a converged equilibrium into the workspace's warm slot, keyed on
/// the problem's population. Dynamic/continuous populations are never
/// stored (their "population" is a distribution, not a budget vector), and
/// degraded iterates never reach this function — only certified successes
/// seed later solves.
pub(super) fn store_success(problem: &FollowerProblem<'_>, ws: &mut SolveWorkspace, run: &TierRun) {
    if !ws.warm.enabled() {
        return;
    }
    match (problem.population(), run.per_miner) {
        (Some((mode, Budgets::Slice(budgets), _)), _) if ws.requests.len() == budgets.len() => {
            let SolveWorkspace { warm, requests, .. } = ws;
            warm.store_slice(mode, budgets, requests);
        }
        (Some((mode, Budgets::Uniform { budget, n }, _)), Some(x)) => {
            ws.warm.store_uniform(mode, budget, n, x);
        }
        _ => {}
    }
}

/// Tier index the chain starts at: `1` (skip the symmetric fixed point)
/// when warm continuation is on, the symmetric tier has hopped in this
/// parameter region, and the ω clamp is binding — the clamp binding means
/// the fixed point contracts at rate `O(1/n)`, so after one observed
/// failure the escalation tier (which accepts the warm seed) is the better
/// opening move. Cold solves always start at tier 0.
pub(super) fn start_tier(problem: &FollowerProblem<'_>, warm: &WarmState) -> usize {
    if !warm.skip_symmetric() {
        return 0;
    }
    let clamped = match problem {
        FollowerProblem::Symmetric { mode, n, cfg, .. } => {
            super::symmetric_damping(cfg, *mode, *n) < cfg.damping
        }
        _ => false,
    };
    if clamped {
        let rec = mbm_obs::global();
        if rec.enabled() {
            rec.incr("core.solver.warm_tier_skips");
        }
        1
    } else {
        0
    }
}

/// Greedy nearest-neighbor ordering of a price grid: starts at index 0,
/// repeatedly visits the unvisited point closest (squared Euclidean
/// distance in the `(edge, cloud)` plane, lowest index on ties) to the
/// current one. O(k²), deterministic, and good enough that consecutive
/// solves differ by roughly one grid step.
pub fn nearest_neighbor_order(grid: &[Prices]) -> Vec<usize> {
    let k = grid.len();
    let mut order = Vec::with_capacity(k);
    if k == 0 {
        return order;
    }
    let mut used = vec![false; k];
    let mut cur = 0usize;
    used[0] = true;
    order.push(0);
    for _ in 1..k {
        let mut best: Option<(f64, usize)> = None;
        for (j, seen) in used.iter().enumerate() {
            if *seen {
                continue;
            }
            let de = grid[j].edge - grid[cur].edge;
            let dc = grid[j].cloud - grid[cur].cloud;
            let d = de * de + dc * dc;
            if best.is_none_or(|(bd, _)| d < bd) {
                best = Some((d, j));
            }
        }
        match best {
            Some((_, j)) => {
                used[j] = true;
                order.push(j);
                cur = j;
            }
            None => break,
        }
    }
    order
}

/// RAII scope for warm continuation on the calling thread's shared
/// workspace: engaging enables warm seeding (starting from a cleared slot);
/// dropping restores the previous setting and clears the slot again, so no
/// profile outlives the scope — including during the unwind of an isolated
/// task panic.
#[derive(Debug)]
pub struct ThreadWarmGuard {
    prev: bool,
}

impl ThreadWarmGuard {
    /// Enables warm continuation on this thread until the guard drops.
    #[must_use]
    pub fn engage() -> Self {
        ThreadWarmGuard { prev: SolveWorkspace::set_thread_warm(true) }
    }
}

impl Drop for ThreadWarmGuard {
    fn drop(&mut self) {
        SolveWorkspace::set_thread_warm(self.prev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prices(e: f64, c: f64) -> Prices {
        Prices::new(e, c).unwrap()
    }

    #[test]
    fn nearest_neighbor_path_visits_every_point_once() {
        let grid: Vec<Prices> =
            [(5.0, 2.0), (9.0, 3.0), (5.1, 2.0), (9.0, 2.9), (5.1, 2.1), (7.0, 2.5)]
                .iter()
                .map(|&(e, c)| prices(e, c))
                .collect();
        let order = nearest_neighbor_order(&grid);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..grid.len()).collect::<Vec<_>>());
        // Starts at 0 and hops to its nearest neighbours first.
        assert_eq!(order[0], 0);
        assert_eq!(order[1], 2, "{order:?}");
    }

    #[test]
    fn nearest_neighbor_breaks_ties_by_lowest_index() {
        let grid = vec![prices(5.0, 2.0), prices(5.0, 3.0), prices(5.0, 3.0)];
        assert_eq!(nearest_neighbor_order(&grid), vec![0, 1, 2]);
        assert!(nearest_neighbor_order(&[]).is_empty());
    }

    #[test]
    fn disabled_slot_seeds_cold_and_counts_nothing() {
        let mut warm = WarmState::default();
        let budgets = [100.0, 200.0];
        let p = prices(5.0, 2.0);
        let mut out = Vec::new();
        warm.seed_profile(EdgeOperation::Connected, &budgets, &p, None, &mut out).unwrap();
        let mut cold = Vec::new();
        initial_profile_into(&budgets, &p, None, &mut cold).unwrap();
        assert_eq!(out, cold);
        assert_eq!(warm.hits(), 0);
    }

    #[test]
    fn matching_population_seeds_from_the_stored_profile() {
        let mut warm = WarmState::default();
        warm.set_enabled(true);
        let budgets = [100.0, 200.0];
        let reqs = [Request { edge: 1.0, cloud: 2.0 }, Request { edge: 3.0, cloud: 4.0 }];
        warm.store_slice(EdgeOperation::Connected, &budgets, &reqs);
        let mut out = Vec::new();
        warm.seed_profile(EdgeOperation::Connected, &budgets, &prices(5.0, 2.0), None, &mut out)
            .unwrap();
        assert_eq!(out, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(warm.hits(), 1);
        // Different mode: cold seed, no hit.
        let mut out2 = Vec::new();
        warm.seed_profile(EdgeOperation::Standalone, &budgets, &prices(5.0, 2.0), None, &mut out2)
            .unwrap();
        assert_ne!(out2, out);
        assert_eq!(warm.hits(), 1);
    }

    #[test]
    fn warm_seed_respects_the_shared_capacity_rescale() {
        let mut warm = WarmState::default();
        warm.set_enabled(true);
        let budgets = [100.0, 200.0];
        let reqs = [Request { edge: 4.0, cloud: 2.0 }, Request { edge: 6.0, cloud: 4.0 }];
        warm.store_slice(EdgeOperation::Standalone, &budgets, &reqs);
        let mut out = Vec::new();
        warm.seed_profile(
            EdgeOperation::Standalone,
            &budgets,
            &prices(5.0, 2.0),
            Some(5.0),
            &mut out,
        )
        .unwrap();
        let e_total: f64 = out.iter().step_by(2).sum();
        assert!((e_total - 0.95 * 5.0).abs() < 1e-12, "E = {e_total}");
        // Cloud coordinates untouched.
        assert_eq!(out[1], 2.0);
    }

    #[test]
    fn population_change_counts_a_reset_and_clears_the_hop_streak() {
        let mut warm = WarmState::default();
        warm.set_enabled(true);
        let a = [100.0, 200.0];
        let reqs = [Request::default(), Request::default()];
        warm.store_slice(EdgeOperation::Connected, &a, &reqs);
        warm.note_sym_hop();
        assert!(warm.skip_symmetric());
        assert_eq!(warm.resets(), 0);
        let b = [100.0, 250.0];
        warm.store_slice(EdgeOperation::Connected, &b, &reqs);
        assert_eq!(warm.resets(), 1);
        assert!(!warm.skip_symmetric());
        // Same population again: no further reset.
        warm.store_slice(EdgeOperation::Connected, &b, &reqs);
        assert_eq!(warm.resets(), 1);
    }

    #[test]
    fn uniform_and_slice_keys_agree_for_identical_populations() {
        let mut warm = WarmState::default();
        warm.set_enabled(true);
        warm.store_uniform(EdgeOperation::Connected, 200.0, 3, Request { edge: 1.0, cloud: 2.0 });
        // The symmetric escalation path materializes vec![budget; n]; the
        // slice key must match the uniform key so the seed applies.
        let budgets = vec![200.0; 3];
        let mut out = Vec::new();
        warm.seed_profile(EdgeOperation::Connected, &budgets, &prices(5.0, 2.0), None, &mut out)
            .unwrap();
        assert_eq!(out, vec![1.0, 2.0, 1.0, 2.0, 1.0, 2.0]);
        assert_eq!(warm.hits(), 1);
        assert_eq!(warm.resets(), 0);
    }

    #[test]
    fn disabling_clears_the_slot() {
        let mut warm = WarmState::default();
        warm.set_enabled(true);
        warm.store_uniform(EdgeOperation::Connected, 200.0, 2, Request { edge: 1.0, cloud: 2.0 });
        warm.set_enabled(false);
        warm.set_enabled(true);
        let mut out = Vec::new();
        warm.seed_profile(
            EdgeOperation::Connected,
            &[200.0, 200.0],
            &prices(5.0, 2.0),
            None,
            &mut out,
        )
        .unwrap();
        assert_eq!(warm.hits(), 0, "profile must not survive a disable");
    }
}
