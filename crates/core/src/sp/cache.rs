//! Memoized leader payoffs: a quantized-price cache around the miner-subgame
//! solve.
//!
//! Every leader payoff evaluation in the Stackelberg pipeline solves a full
//! miner subgame at the candidate price point, and the best-response
//! iteration revisits *nearly* identical points round after round (the grid
//! geometry is fixed while the other leaders' prices drift by less than the
//! solver tolerance). [`CachedStage`] exploits this: candidate prices are
//! **snapped to a quantization grid two orders of magnitude finer than the
//! leader tolerance before the subgame is solved**, and the follower demand
//! is memoized under the snapped price bits in a bounded two-generation LRU.
//! Every leader's payoff at one point therefore costs one subgame solve, and
//! a lookup allocates nothing for `K ≤ INLINE_PROVIDERS`.
//!
//! # Determinism contract
//!
//! Snapping happens *before* solving, so the cached value is a pure function
//! of the snapped key. Consequently:
//!
//! * cache hits return bit-for-bit what a recomputation would return — cache
//!   capacity, eviction order, and thread interleaving can never change a
//!   payoff, only the time spent;
//! * a solve with the cache enabled is bitwise identical across thread
//!   counts and across cache capacities (≥ 1);
//! * relative to the *unsnapped* stage, equilibrium prices move by at most
//!   one quantum per coordinate — two orders of magnitude below the leader
//!   tolerance, i.e. below the solver's own resolution.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use mbm_game::stackelberg::LeaderStage;
use mbm_game::GameError;

use crate::market::PriceVector;
use crate::request::Aggregates;
use crate::sp::stage::ProviderStage;

/// Quantization step as a fraction of the leader tolerance: fine enough that
/// snapping is invisible at the solver's resolution, coarse enough that
/// consecutive best-response rounds collapse onto the same keys.
pub const QUANTUM_PER_TOL: f64 = 1e-2;

/// Hit/miss counters of a [`CachedStage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Payoff evaluations answered from the cache.
    pub hits: u64,
    /// Payoff evaluations that solved the miner subgame.
    pub misses: u64,
}

impl CacheStats {
    /// Fraction of evaluations answered from the cache.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Two-generation bounded map: inserts go to `hot`; when `hot` fills half the
/// capacity, it becomes `cold` and a fresh `hot` starts; `cold` hits are
/// promoted. Recently-used keys therefore survive at least one generation,
/// and total occupancy never exceeds the capacity.
#[derive(Debug)]
struct Generations<K, V> {
    hot: HashMap<K, V>,
    cold: HashMap<K, V>,
    half_capacity: usize,
}

impl<K: Hash + Eq + Clone, V: Clone> Generations<K, V> {
    fn new(capacity: usize) -> Self {
        let half_capacity = (capacity / 2).max(1);
        Generations { hot: HashMap::new(), cold: HashMap::new(), half_capacity }
    }

    fn get_promote(&mut self, key: &K) -> Option<V> {
        if let Some(v) = self.hot.get(key) {
            return Some(v.clone());
        }
        if let Some(v) = self.cold.remove(key) {
            self.insert(key.clone(), v.clone());
            return Some(v);
        }
        None
    }

    fn insert(&mut self, key: K, value: V) {
        if self.hot.len() >= self.half_capacity {
            self.cold = std::mem::take(&mut self.hot);
        }
        self.hot.insert(key, value);
    }
}

/// A snapped price point, compared and hashed by the exact bits of its `K`
/// prices.
#[derive(Debug, Clone)]
struct PriceKey(PriceVector);

impl PartialEq for PriceKey {
    fn eq(&self, other: &Self) -> bool {
        crate::solver::bits_equal(self.0.as_slice(), other.0.as_slice())
    }
}

impl Eq for PriceKey {}

impl Hash for PriceKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for p in self.0.as_slice() {
            state.write_u64(p.to_bits());
        }
    }
}

/// A [`ProviderStage`] whose payoffs are quantized and memoized (see the
/// module docs for the determinism contract).
///
/// Implements [`LeaderStage`], so it drops into every leader solver —
/// serial or pooled — unchanged.
#[derive(Debug)]
pub struct CachedStage<'a> {
    inner: &'a ProviderStage,
    quantum: f64,
    cache: Mutex<Generations<PriceKey, Option<Aggregates>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<'a> CachedStage<'a> {
    /// Wraps `stage` with a cache of at most `capacity` entries, quantizing
    /// prices to `leader_tol * QUANTUM_PER_TOL`.
    ///
    /// `capacity` is clamped to at least 2 (one entry per generation);
    /// `leader_tol` must be positive and finite, which
    /// `LeaderParams` solvers already enforce.
    #[must_use]
    pub fn new(stage: &'a ProviderStage, leader_tol: f64, capacity: usize) -> Self {
        CachedStage {
            inner: stage,
            quantum: leader_tol * QUANTUM_PER_TOL,
            cache: Mutex::new(Generations::new(capacity.max(2))),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The quantization step applied to each price coordinate.
    #[must_use]
    pub fn quantum(&self) -> f64 {
        self.quantum
    }

    /// Hit/miss counters so far.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Publishes the hit/miss counters to `rec` as the cumulative
    /// `core.cache.hits` / `core.cache.misses` counters and the
    /// `core.cache.hit_rate` trace (one sample per published solve).
    ///
    /// Takes the recorder explicitly so tests can capture stats on a local
    /// [`mbm_obs::Recorder`]; the pipeline passes [`mbm_obs::global`].
    pub fn publish_stats(&self, rec: &mbm_obs::Recorder) {
        let stats = self.stats();
        rec.add("core.cache.hits", stats.hits);
        rec.add("core.cache.misses", stats.misses);
        rec.trace("core.cache.hit_rate", stats.hit_rate());
    }

    /// Snaps a price to the quantization grid, clamped back into the leader's
    /// `[lo, hi]` interval so snapping can never step outside the feasible
    /// box. A pure function of the input bits.
    fn snap(&self, price: f64, leader: usize) -> f64 {
        let (lo, hi) = self.inner.bounds(leader);
        ((price / self.quantum).round() * self.quantum).clamp(lo, hi)
    }

    /// Follower demand at the snapped point, memoized; `None` encodes a
    /// non-convergent follower stage, exactly as in the uncached stage.
    fn demand_at(&self, key: &PriceKey) -> Option<Aggregates> {
        let lock = || self.cache.lock().expect("payoff cache lock");
        if let Some(v) = lock().get_promote(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return v;
        }
        // Deliberately *outside* the lock: concurrent workers may duplicate a
        // solve for the same key, but they can never block each other on a
        // multi-millisecond subgame, and both write the identical value.
        let value = self.inner.follower_demand(&key.0);
        self.misses.fetch_add(1, Ordering::Relaxed);
        lock().insert(key.clone(), value);
        value
    }
}

impl LeaderStage for CachedStage<'_> {
    fn num_leaders(&self) -> usize {
        self.inner.num_leaders()
    }

    fn bounds(&self, i: usize) -> (f64, f64) {
        self.inner.bounds(i)
    }

    fn payoff(&self, i: usize, actions: &[f64]) -> Result<f64, GameError> {
        let snapped = PriceVector::from_fn(actions.len(), |k| self.snap(actions[k], k))
            .map_err(|e| GameError::invalid(e.to_string()))?;
        let key = PriceKey(snapped);
        Ok(match self.demand_at(&key) {
            Some(agg) => self.inner.providers().profit(i, &key.0, &agg),
            None => f64::NAN,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::market::ProviderSet;
    use crate::params::EdgeOperation;
    use crate::params::{MarketParams, Provider};
    use crate::sp::MinerPopulation;
    use crate::subgame::SubgameConfig;

    fn params() -> MarketParams {
        MarketParams::builder()
            .reward(100.0)
            .fork_rate(0.2)
            .edge_availability(0.8)
            .e_max(5.0)
            .build()
            .unwrap()
    }

    fn population() -> MinerPopulation {
        MinerPopulation::Homogeneous { budget: 200.0, n: 5 }
    }

    fn stage() -> ProviderStage {
        ProviderStage::two_provider(
            params(),
            population(),
            EdgeOperation::Connected,
            SubgameConfig::default(),
        )
    }

    #[test]
    fn hits_return_bitwise_identical_payoffs() {
        let stage = stage();
        let cached = CachedStage::new(&stage, 1e-4, 512);
        let first = cached.payoff(0, &[6.0, 2.0]).unwrap();
        let again = cached.payoff(0, &[6.0, 2.0]).unwrap();
        assert_eq!(first.to_bits(), again.to_bits());
        let stats = cached.stats();
        assert_eq!(stats.misses, 1, "{stats:?}");
        assert_eq!(stats.hits, 1, "{stats:?}");
    }

    #[test]
    fn both_leaders_share_one_subgame_solve() {
        let stage = stage();
        let cached = CachedStage::new(&stage, 1e-4, 512);
        let _ = cached.payoff(0, &[6.0, 2.0]).unwrap();
        let _ = cached.payoff(1, &[6.0, 2.0]).unwrap();
        assert_eq!(cached.stats().misses, 1);
    }

    #[test]
    fn nearby_prices_collapse_to_one_key() {
        let stage = stage();
        let cached = CachedStage::new(&stage, 1e-4, 512);
        let quantum = cached.quantum();
        let a = cached.payoff(0, &[6.0, 2.0]).unwrap();
        let b = cached.payoff(0, &[6.0 + 0.4 * quantum, 2.0 - 0.4 * quantum]).unwrap();
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(cached.stats().misses, 1);
    }

    #[test]
    fn snapping_error_is_below_solver_resolution() {
        let stage = stage();
        let cached = CachedStage::new(&stage, 1e-4, 512);
        let raw = stage.payoff(0, &[6.000037, 2.000041]).unwrap();
        let snapped = cached.payoff(0, &[6.000037, 2.000041]).unwrap();
        // Payoffs are Lipschitz in prices near the interior; a 1e-6 price
        // perturbation cannot move profit at the 1e-2 scale.
        assert!((raw - snapped).abs() < 1e-2, "raw {raw} vs snapped {snapped}");
    }

    #[test]
    fn eviction_never_changes_values() {
        let stage = stage();
        let tiny = CachedStage::new(&stage, 1e-4, 2);
        let large = CachedStage::new(&stage, 1e-4, 4096);
        let probes =
            [[6.0, 2.0], [7.0, 2.5], [8.0, 3.0], [6.0, 2.0], [9.0, 1.5], [6.0, 2.0], [7.0, 2.5]];
        for p in probes {
            for i in 0..2 {
                let a = tiny.payoff(i, &p).unwrap();
                let b = large.payoff(i, &p).unwrap();
                assert_eq!(a.to_bits(), b.to_bits(), "leader {i} at {p:?}");
            }
        }
        assert!(tiny.stats().misses >= large.stats().misses);
    }

    /// Distinct quantized keys for the generation tests: all ≥ 0.5 apart,
    /// far above the 1e-6 quantum at `leader_tol = 1e-4`.
    const A: [f64; 2] = [6.0, 2.0];
    const B: [f64; 2] = [6.5, 2.0];
    const C: [f64; 2] = [7.0, 2.0];
    const D: [f64; 2] = [7.5, 2.0];

    #[test]
    fn capacity_boundary_evicts_the_oldest_generation() {
        // capacity 2 → one entry per generation: the third distinct key must
        // push the first out entirely.
        let stage = stage();
        let cached = CachedStage::new(&stage, 1e-4, 2);
        for p in [A, B, C] {
            let _ = cached.payoff(0, &p).unwrap();
        }
        assert_eq!(cached.stats(), CacheStats { hits: 0, misses: 3 });
        // A was in the generation rotated away when C arrived.
        let _ = cached.payoff(0, &A).unwrap();
        assert_eq!(cached.stats(), CacheStats { hits: 0, misses: 4 });
        // C is still resident (it triggered the last rotation into hot).
        let _ = cached.payoff(0, &C).unwrap();
        assert_eq!(cached.stats().hits, 1);
    }

    #[test]
    fn generation_rotation_promotes_recently_used_keys() {
        // capacity 4 → two entries per generation. Exercise the full
        // hot/cold lifecycle: fill hot {A, B}; C rotates them cold; touching
        // A promotes it back to hot, so the next rotation (D) discards B —
        // the one key not used since its generation aged out.
        let stage = stage();
        let cached = CachedStage::new(&stage, 1e-4, 4);
        for p in [A, B, C] {
            let _ = cached.payoff(0, &p).unwrap(); // 3 misses; {A, B} now cold
        }
        let _ = cached.payoff(0, &A).unwrap(); // hit: promoted out of cold
        assert_eq!(cached.stats(), CacheStats { hits: 1, misses: 3 });
        let _ = cached.payoff(0, &D).unwrap(); // miss: rotates {C, A} cold
        let _ = cached.payoff(0, &A).unwrap(); // hit: survived via promotion
        assert_eq!(cached.stats(), CacheStats { hits: 2, misses: 4 });
        let _ = cached.payoff(0, &B).unwrap(); // miss: B's generation is gone
        assert_eq!(cached.stats(), CacheStats { hits: 2, misses: 5 });
    }

    #[test]
    fn publish_stats_exposes_hit_rate_through_mbm_obs() {
        let stage = stage();
        let cached = CachedStage::new(&stage, 1e-4, 512);
        let _ = cached.payoff(0, &A).unwrap();
        let _ = cached.payoff(0, &A).unwrap();
        let _ = cached.payoff(0, &B).unwrap();
        let rec = mbm_obs::Recorder::new();
        rec.set_enabled(true);
        cached.publish_stats(&rec);
        let snap = rec.snapshot();
        assert_eq!(snap.counters["core.cache.hits"], 1);
        assert_eq!(snap.counters["core.cache.misses"], 2);
        assert_eq!(snap.traces["core.cache.hit_rate"], vec![1.0 / 3.0]);
        // A disabled recorder swallows the publication entirely.
        let off = mbm_obs::Recorder::new();
        cached.publish_stats(&off);
        assert!(off.snapshot().counters.is_empty());
    }

    #[test]
    fn snap_respects_bounds() {
        let stage = stage();
        let cached = CachedStage::new(&stage, 1e-1, 16);
        let (lo_e, hi_e) = stage.bounds(0);
        // Candidates at the exact interval endpoints must stay inside after
        // snapping (snapping outward would make Prices::new fail or leave
        // the feasible box).
        for price in [lo_e, hi_e] {
            let s = cached.snap(price, 0);
            assert!((lo_e..=hi_e).contains(&s), "snap({price}) = {s}");
        }
    }

    #[test]
    fn k3_keys_hold_every_provider_price() {
        // The two points reduce to the same effective pair, but the third
        // provider's price is part of the key: two solves with identical
        // demand, and the undercut provider earns nothing at either point.
        let set = ProviderSet::new(vec![
            Provider::new(2.0, 10.0).unwrap(),
            Provider::new(1.0, 8.0).unwrap(),
            Provider::new(1.5, 8.0).unwrap(),
        ])
        .unwrap();
        let stage = ProviderStage::new(
            params(),
            set,
            population(),
            EdgeOperation::Connected,
            SubgameConfig::default(),
        );
        let cached = CachedStage::new(&stage, 1e-4, 512);
        let payoffs = |point: [f64; 3]| -> Vec<f64> {
            (0..3).map(|i| cached.payoff(i, &point).unwrap()).collect()
        };
        let a = payoffs([6.0, 2.0, 3.0]);
        let b = payoffs([6.0, 2.0, 3.5]);
        assert_eq!(cached.stats(), CacheStats { hits: 4, misses: 2 });
        assert_eq!(a[0].to_bits(), b[0].to_bits());
        assert_eq!(a[1].to_bits(), b[1].to_bits());
        assert_eq!((a[2], b[2]), (0.0, 0.0));
    }
}
