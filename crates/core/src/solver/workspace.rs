//! Reusable scratch buffers for follower-subgame solves.
//!
//! The leader price search evaluates thousands of follower equilibria; a
//! [`SolveWorkspace`] owns every temporary those solves need (best-response
//! profiles, extragradient iterates, request/utility views, the stacked
//! feasible start), so repeated solves reuse capacity instead of touching
//! the heap. [`SolveWorkspace::footprint`] reports the reserved bytes,
//! which the benches assert stop growing after warmup.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::cell::RefCell;

use mbm_game::nash::BrWorkspace;
use mbm_game::profile::Profile;

use crate::error::MiningGameError;
use crate::request::Request;
use crate::subgame::MinerEquilibrium;

use super::policy::SolvePolicy;
use super::{bits_equal, bits_fingerprint, Solved};

/// Scratch buffers threaded through every tier of the follower solver.
///
/// All buffers grow to the largest problem seen and are then reused; a
/// workspace is cheap to create but worth keeping across solves on hot
/// paths (see [`SolveWorkspace::with_thread_local`]).
#[derive(Debug, Default)]
pub struct SolveWorkspace {
    /// Best-response dynamics scratch (profiles, per-player BR buffer).
    pub(crate) br: BrWorkspace,
    /// Extragradient / VI scratch (iterates, operator values).
    pub(crate) gnep: mbm_game::gnep::GnepWorkspace,
    /// Stacked profile slot for feasible starts and certificate evaluation.
    pub(crate) init: Option<Profile>,
    /// Flat staging buffer for profile data.
    pub(crate) flat: Vec<f64>,
    /// SoA population scratch of the aggregate-form solver (contiguous
    /// budget/edge/cloud arrays, staged once per budget vector).
    pub(crate) soa: SoaPopulation,
    /// Per-miner equilibrium requests of the last heterogeneous solve.
    pub requests: Vec<Request>,
    /// Per-miner equilibrium utilities of the last heterogeneous solve.
    pub utilities: Vec<f64>,
    /// Supervision policy for solves using this workspace (retries,
    /// degradation, deadline). Defaults to the strict historical behaviour.
    pub policy: SolvePolicy,
    /// Warm-start slot for equilibrium continuation (disabled by default;
    /// see [`super::continuation`]).
    pub(crate) warm: super::continuation::WarmState,
}

/// Structure-of-arrays population layout for the aggregate-form solver:
/// budgets and per-miner requests live in contiguous `f64` arrays so the
/// per-miner sweep streams linearly through memory instead of hopping
/// across `Request` pairs inside a `Profile`.
///
/// Staging is keyed on `(n, budget-bits hash)`: repeated solves over the
/// same budget vector (the leader price search re-solves the followers at
/// thousands of price points) skip the `budgets.to_vec()`-style copy that
/// the legacy heterogeneous games pay on every construction. A key match is
/// confirmed with a bitwise slice compare, so a hash collision can never
/// alias two different populations.
#[derive(Debug, Default)]
pub(crate) struct SoaPopulation {
    /// `(n, FNV-1a over budget bits)` of the staged population.
    key: Option<(usize, u64)>,
    /// Per-miner budgets, contiguous.
    pub budgets: Vec<f64>,
    /// Per-miner edge requests of the current sweep iterate.
    pub edges: Vec<f64>,
    /// Per-miner cloud requests of the current sweep iterate.
    pub clouds: Vec<f64>,
}

impl SoaPopulation {
    /// Stages `budgets` into the contiguous budget array (and sizes the
    /// request arrays), skipping the copy when the exact same vector is
    /// already staged. Returns `true` when a (re)copy happened.
    pub fn stage(&mut self, budgets: &[f64]) -> bool {
        let key = (budgets.len(), bits_fingerprint(budgets.iter().copied()));
        if self.key == Some(key) && bits_equal(&self.budgets, budgets) {
            return false;
        }
        self.budgets.clear();
        self.budgets.extend_from_slice(budgets);
        self.edges.resize(budgets.len(), 0.0);
        self.clouds.resize(budgets.len(), 0.0);
        self.key = Some(key);
        true
    }

    /// Heap bytes currently reserved by the SoA arrays.
    pub fn footprint(&self) -> usize {
        (self.budgets.capacity() + self.edges.capacity() + self.clouds.capacity())
            * std::mem::size_of::<f64>()
    }
}

thread_local! {
    static TLS_WORKSPACE: RefCell<SolveWorkspace> = RefCell::new(SolveWorkspace::new());
}

impl SolveWorkspace {
    /// An empty workspace; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        SolveWorkspace::default()
    }

    /// An empty workspace pre-configured with a supervision policy. Server
    /// workers own one workspace per thread and construct it with their
    /// batch policy (e.g. [`SolvePolicy::resilient`]) so every job solved on
    /// that worker is supervised without per-job policy plumbing.
    #[must_use]
    pub fn with_policy(policy: SolvePolicy) -> Self {
        SolveWorkspace { policy, ..SolveWorkspace::default() }
    }

    /// Runs `f` with this thread's shared workspace. The hot leader-search
    /// path uses this so every follower solve on a worker thread reuses one
    /// set of buffers; workspace contents never influence solve *values*
    /// (only allocation behaviour), so parallel determinism is unaffected.
    pub fn with_thread_local<R>(f: impl FnOnce(&mut SolveWorkspace) -> R) -> R {
        TLS_WORKSPACE.with(|ws| f(&mut ws.borrow_mut()))
    }

    /// Sets the supervision policy of this thread's shared workspace.
    /// Executors call this once per worker so every solve routed through
    /// [`SolveWorkspace::with_thread_local`] — including solves buried
    /// inside leader searches — picks up the batch policy. Returns the
    /// previous policy so callers can restore it.
    pub fn set_thread_policy(policy: SolvePolicy) -> SolvePolicy {
        TLS_WORKSPACE.with(|ws| std::mem::replace(&mut ws.borrow_mut().policy, policy))
    }

    /// Enables or disables warm continuation on this thread's shared
    /// workspace, returning the previous setting. Both transitions clear
    /// the warm slot, so no stale profile survives an enable/disable
    /// boundary. Must not be called from inside a
    /// [`SolveWorkspace::with_thread_local`] closure (the workspace is
    /// already borrowed there).
    pub fn set_thread_warm(on: bool) -> bool {
        TLS_WORKSPACE.with(|ws| {
            let mut ws = ws.borrow_mut();
            let prev = ws.warm.set_enabled(on);
            ws.warm.invalidate();
            prev
        })
    }

    /// Read access to this workspace's warm-continuation slot (counters,
    /// enabled flag).
    #[must_use]
    pub fn warm(&self) -> &super::continuation::WarmState {
        &self.warm
    }

    /// Mutable access to the warm slot (enable/invalidate from owners of a
    /// dedicated workspace, e.g. server workers).
    pub fn warm_mut(&mut self) -> &mut super::continuation::WarmState {
        &mut self.warm
    }

    /// Swaps this workspace's warm slot with `other`. Server workers use
    /// this to install a connection's carried warm state around a solve and
    /// recover it afterwards without cloning profiles.
    pub fn warm_swap(&mut self, other: &mut super::continuation::WarmState) {
        std::mem::swap(&mut self.warm, other);
    }

    /// Heap bytes currently reserved across all buffers (capacity, not
    /// length). Steady-state solves must not grow this.
    #[must_use]
    pub fn footprint(&self) -> usize {
        self.br.footprint()
            + self.gnep.footprint()
            + self.init.as_ref().map_or(0, Profile::heap_bytes)
            + self.flat.capacity() * std::mem::size_of::<f64>()
            + self.soa.footprint()
            + self.requests.capacity() * std::mem::size_of::<Request>()
            + self.utilities.capacity() * std::mem::size_of::<f64>()
            + self.warm.footprint()
    }

    /// Clones the per-miner data of the last heterogeneous solve into an
    /// owned [`MinerEquilibrium`]. Only meaningful directly after a
    /// successful heterogeneous solve with this workspace (symmetric and
    /// closed-form tiers clear the per-miner buffers instead of filling
    /// them).
    #[must_use]
    pub fn equilibrium(&self, solved: &Solved) -> MinerEquilibrium {
        MinerEquilibrium {
            requests: self.requests.clone(),
            aggregates: solved.aggregates,
            utilities: self.utilities.clone(),
            iterations: solved.iterations,
            residual: solved.residual,
        }
    }
}

/// Ensures `slot` holds an `n`-player profile of 2-dimensional blocks
/// matching `flat` (`[e_0, c_0, e_1, c_1, …]`), reusing the existing
/// allocation when the shape already fits.
pub(crate) fn ensure_pairs<'a>(
    slot: &'a mut Option<Profile>,
    flat: &[f64],
) -> Result<&'a mut Profile, MiningGameError> {
    let n = flat.len() / 2;
    let fits = slot.as_ref().is_some_and(|p| p.num_players() == n && p.total_dim() == flat.len());
    if !fits {
        let dims = vec![2usize; n];
        *slot = Some(Profile::uniform(&dims, 0.0)?);
    }
    match slot.as_mut() {
        Some(p) => {
            p.copy_from(flat);
            Ok(p)
        }
        None => Err(MiningGameError::invalid("workspace profile slot empty")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ensure_pairs_reuses_allocation_for_same_shape() {
        let mut slot = None;
        let flat = [1.0, 2.0, 3.0, 4.0];
        {
            let p = ensure_pairs(&mut slot, &flat).unwrap();
            assert_eq!(p.num_players(), 2);
            assert_eq!(p.as_slice(), &flat);
        }
        let bytes = slot.as_ref().unwrap().heap_bytes();
        let flat2 = [5.0, 6.0, 7.0, 8.0];
        ensure_pairs(&mut slot, &flat2).unwrap();
        assert_eq!(slot.as_ref().unwrap().heap_bytes(), bytes);
        assert_eq!(slot.as_ref().unwrap().as_slice(), &flat2);
    }

    #[test]
    fn ensure_pairs_reshapes_when_player_count_changes() {
        let mut slot = None;
        ensure_pairs(&mut slot, &[1.0, 2.0]).unwrap();
        let p = ensure_pairs(&mut slot, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(p.num_players(), 3);
    }

    #[test]
    fn footprint_starts_at_zero_and_grows_with_use() {
        let mut ws = SolveWorkspace::new();
        assert_eq!(ws.footprint(), 0);
        ws.flat.extend_from_slice(&[0.0; 8]);
        ws.requests.push(Request::default());
        assert!(ws.footprint() > 0);
    }

    #[test]
    fn soa_staging_skips_copy_for_identical_budget_bits() {
        let mut soa = SoaPopulation::default();
        let budgets = [100.0, 250.0, 75.5];
        assert!(soa.stage(&budgets));
        assert_eq!(soa.budgets, budgets);
        assert_eq!(soa.edges.len(), 3);
        // Same bits: no restage.
        assert!(!soa.stage(&budgets));
        // One bit different: restage.
        let nudged = [100.0, 250.0, 75.5 + f64::EPSILON * 64.0];
        assert!(soa.stage(&nudged));
        assert_eq!(soa.budgets, nudged);
        // Different n: restage and resize.
        assert!(soa.stage(&[1.0, 2.0]));
        assert_eq!(soa.edges.len(), 2);
    }

    #[test]
    fn soa_key_collision_cannot_alias_populations() {
        // Even if two vectors collided in the hash, the bitwise confirm
        // forces a restage; simulate by checking unequal vectors restage.
        let mut soa = SoaPopulation::default();
        soa.stage(&[10.0, 20.0]);
        assert!(soa.stage(&[20.0, 10.0]));
        assert_eq!(soa.budgets, [20.0, 10.0]);
    }
}
