//! The [`LeaderStage`]: provider payoffs with the miner subgame embedded
//! (backward induction), for any number `K ≥ 2` of providers.
//!
//! Leader 0 is the edge provider and leaders `1..K` are Bertrand-competing
//! cloud providers ([`ProviderSet`]); actions are unit prices bounded by
//! `(cost, price_cap]`. Evaluating a payoff reduces the candidate
//! [`PriceVector`] to its effective pair `(P_e, min P_c)`
//! ([`PriceVector::effective`]), solves the follower stage there through
//! the tiered [`FollowerSolver`] chain for the population/mode pair —
//! reusing the thread-local [`SolveWorkspace`], so the search performs no
//! per-evaluation allocation on the symmetric paths — and scores the
//! aggregates with [`ProviderSet::profit`]. The paper's market is `K = 2`
//! ([`ProviderStage::two_provider`]), where the reduction is the identity.
//! Price points at which every tier of the follower chain fails to converge
//! are reported as `NaN` (infeasible), which the leader search skips.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::collections::HashMap;

use mbm_game::stackelberg::LeaderStage;
use mbm_game::GameError;

use crate::market::{PriceVector, ProviderSet};
use crate::params::{EdgeOperation, MarketParams, Prices};
use crate::request::Aggregates;
use crate::solver::{FollowerSolver, SolveWorkspace, TieredSolver};
use crate::sp::MinerPopulation;
use crate::subgame::SubgameConfig;

/// The K-provider leader stage.
#[derive(Debug, Clone)]
pub struct ProviderStage {
    params: MarketParams,
    providers: ProviderSet,
    population: MinerPopulation,
    mode: EdgeOperation,
    subgame: SubgameConfig,
}

impl ProviderStage {
    /// Creates the stage. The follower subgame only reads the market's
    /// reward / fork-rate / availability / capacity fields from `params`;
    /// provider costs and caps come from `providers`.
    #[must_use]
    pub fn new(
        params: MarketParams,
        providers: ProviderSet,
        population: MinerPopulation,
        mode: EdgeOperation,
        subgame: SubgameConfig,
    ) -> Self {
        ProviderStage { params, providers, population, mode, subgame }
    }

    /// The paper's two-provider market (`params.esp()`, `params.csp()`).
    #[must_use]
    pub fn two_provider(
        params: MarketParams,
        population: MinerPopulation,
        mode: EdgeOperation,
        subgame: SubgameConfig,
    ) -> Self {
        ProviderStage::new(params, ProviderSet::from_market(&params), population, mode, subgame)
    }

    /// The provider side of the market.
    #[must_use]
    pub fn providers(&self) -> &ProviderSet {
        &self.providers
    }

    /// The tiered follower chain for this population/mode at the reduced
    /// pair `prices`.
    fn follower_chain<'a>(&'a self, prices: &'a Prices) -> TieredSolver<'a> {
        match (&self.population, self.mode) {
            (MinerPopulation::Homogeneous { budget, n }, EdgeOperation::Connected) => {
                TieredSolver::symmetric_connected(&self.params, prices, *budget, *n, &self.subgame)
            }
            (MinerPopulation::Homogeneous { budget, n }, EdgeOperation::Standalone) => {
                TieredSolver::symmetric_standalone(&self.params, prices, *budget, *n, &self.subgame)
            }
            (MinerPopulation::Heterogeneous { budgets }, EdgeOperation::Connected) => {
                TieredSolver::connected(&self.params, prices, budgets, &self.subgame)
            }
            (MinerPopulation::Heterogeneous { budgets }, EdgeOperation::Standalone) => {
                TieredSolver::standalone(&self.params, prices, budgets, &self.subgame)
            }
        }
    }

    /// Aggregate follower demand at `prices`: the miner subgame solved at
    /// the effective pair, or `None` if the follower chain does not
    /// converge there. Reuses the thread-local solve workspace and reads
    /// only the aggregates, so the leader search never clones per-miner
    /// vectors.
    #[must_use]
    pub fn follower_demand(&self, prices: &PriceVector) -> Option<Aggregates> {
        let effective = prices.effective();
        let chain = self.follower_chain(&effective);
        SolveWorkspace::with_thread_local(|ws| chain.solve(ws)).ok().map(|s| s.aggregates)
    }

    /// Aggregate follower demand at every point of `grid`, in grid order,
    /// deduplicated on the effective pair: vectors that reduce to the same
    /// `(P_e, min P_c)` (common in per-provider sweeps where only an
    /// undercut provider's price moves) solve the subgame once. The unique
    /// pairs, first occurrences in order, are solved with warm-started
    /// continuation along a nearest-neighbor path (see
    /// [`FollowerSolver::solve_batch`]); non-convergent points are `None`,
    /// exactly like [`ProviderStage::follower_demand`]. Runs serially on
    /// this thread's workspace, so the answers are thread-count independent.
    #[must_use]
    pub fn follower_demand_batch(&self, grid: &[PriceVector]) -> Vec<Option<Aggregates>> {
        let mut index_of: HashMap<(u64, u64), usize> = HashMap::new();
        let mut unique: Vec<Prices> = Vec::new();
        let mut slots: Vec<usize> = Vec::with_capacity(grid.len());
        for pv in grid {
            let eff = pv.effective();
            let slot =
                *index_of.entry((eff.edge.to_bits(), eff.cloud.to_bits())).or_insert_with(|| {
                    unique.push(eff);
                    unique.len() - 1
                });
            slots.push(slot);
        }
        let Some(first) = unique.first() else { return Vec::new() };
        let chain = self.follower_chain(first);
        let solved: Vec<Option<Aggregates>> =
            SolveWorkspace::with_thread_local(|ws| chain.solve_batch(&unique, ws))
                .into_iter()
                .map(|r| r.ok().map(|s| s.aggregates))
                .collect();
        slots.into_iter().map(|s| solved[s]).collect()
    }
}

impl LeaderStage for ProviderStage {
    fn num_leaders(&self) -> usize {
        self.providers.k()
    }

    fn bounds(&self, i: usize) -> (f64, f64) {
        self.providers.bounds(i)
    }

    fn payoff(&self, i: usize, actions: &[f64]) -> Result<f64, GameError> {
        let prices = PriceVector::new(actions).map_err(|e| GameError::invalid(e.to_string()))?;
        Ok(match self.follower_demand(&prices) {
            Some(agg) => self.providers.profit(i, &prices, &agg),
            // Non-convergent follower stage: mark infeasible, keep searching.
            None => f64::NAN,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Provider;

    fn params() -> MarketParams {
        MarketParams::builder()
            .reward(100.0)
            .fork_rate(0.2)
            .edge_availability(0.8)
            .e_max(5.0)
            .build()
            .unwrap()
    }

    fn homogeneous() -> MinerPopulation {
        MinerPopulation::Homogeneous { budget: 200.0, n: 5 }
    }

    fn pair(edge: f64, cloud: f64) -> PriceVector {
        PriceVector::new(&[edge, cloud]).unwrap()
    }

    #[test]
    fn bounds_are_cost_to_cap() {
        let stage = ProviderStage::two_provider(
            params(),
            homogeneous(),
            EdgeOperation::Connected,
            SubgameConfig::default(),
        );
        assert_eq!(stage.num_leaders(), 2);
        assert_eq!(stage.bounds(0), (2.0, 10.0));
        assert_eq!(stage.bounds(1), (1.0, 8.0));
    }

    #[test]
    fn payoff_is_profit_at_follower_equilibrium() {
        let stage = ProviderStage::two_provider(
            params(),
            homogeneous(),
            EdgeOperation::Connected,
            SubgameConfig::default(),
        );
        let actions = [6.0, 2.0];
        let ve = stage.payoff(0, &actions).unwrap();
        let vc = stage.payoff(1, &actions).unwrap();
        let agg = stage.follower_demand(&pair(6.0, 2.0)).unwrap();
        assert!((ve - (6.0 - 2.0) * agg.edge).abs() < 1e-9);
        assert!((vc - (2.0 - 1.0) * agg.cloud).abs() < 1e-9);
        assert!(ve > 0.0 && vc > 0.0);
    }

    #[test]
    fn heterogeneous_connected_demand_matches_homogeneous_when_equal() {
        let p = params();
        let cfg = SubgameConfig::default();
        let hom = ProviderStage::two_provider(p, homogeneous(), EdgeOperation::Connected, cfg);
        let het = ProviderStage::two_provider(
            p,
            MinerPopulation::Heterogeneous { budgets: vec![200.0; 5] },
            EdgeOperation::Connected,
            cfg,
        );
        let prices = pair(5.0, 2.0);
        let a = hom.follower_demand(&prices).unwrap();
        let b = het.follower_demand(&prices).unwrap();
        assert!((a.edge - b.edge).abs() < 1e-4, "{a:?} vs {b:?}");
        assert!((a.cloud - b.cloud).abs() < 1e-4, "{a:?} vs {b:?}");
    }

    #[test]
    fn standalone_demand_respects_capacity() {
        let stage = ProviderStage::two_provider(
            params(),
            homogeneous(),
            EdgeOperation::Standalone,
            SubgameConfig::default(),
        );
        let agg = stage.follower_demand(&pair(4.0, 2.0)).unwrap();
        assert!(agg.edge <= params().e_max() + 1e-6, "E = {}", agg.edge);
    }

    #[test]
    fn heterogeneous_standalone_demand_matches_homogeneous_when_equal() {
        let p = params();
        let cfg = SubgameConfig::default();
        let hom = ProviderStage::two_provider(p, homogeneous(), EdgeOperation::Standalone, cfg);
        let het = ProviderStage::two_provider(
            p,
            MinerPopulation::Heterogeneous { budgets: vec![200.0; 5] },
            EdgeOperation::Standalone,
            cfg,
        );
        let prices = pair(4.0, 2.0);
        let a = hom.follower_demand(&prices).unwrap();
        let b = het.follower_demand(&prices).unwrap();
        assert!((a.edge - b.edge).abs() < 5e-3, "{a:?} vs {b:?}");
        assert!((a.cloud - b.cloud).abs() < 5e-3, "{a:?} vs {b:?}");
        assert!(b.edge <= p.e_max() + 1e-5);
    }

    #[test]
    fn infeasible_price_pairs_return_nan_payoff_not_error() {
        // A malformed action (non-positive price) is rejected by
        // PriceVector::new inside payoff(): the stage reports an
        // invalid-game error for malformed actions but NaN (searchable) for
        // non-convergent follower stages.
        let stage = ProviderStage::two_provider(
            params(),
            homogeneous(),
            EdgeOperation::Connected,
            SubgameConfig::default(),
        );
        assert!(stage.payoff(0, &[-1.0, 2.0]).is_err());
        // A price pair where the cloud is dominated converges to an
        // all-edge equilibrium: payoff is finite, not NaN.
        let v = stage.payoff(0, &[2.0, 3.0]).unwrap();
        assert!(v.is_finite());
    }

    #[test]
    fn batch_dedups_vectors_with_equal_effective_prices() {
        let p = params();
        let set = ProviderSet::new(vec![
            Provider::new(7.0, 15.0).unwrap(),
            Provider::new(1.0, 8.0).unwrap(),
            Provider::new(1.5, 8.0).unwrap(),
        ])
        .unwrap();
        let stage = ProviderStage::new(
            p,
            set,
            homogeneous(),
            EdgeOperation::Connected,
            SubgameConfig::default(),
        );
        // Both points reduce to (9, 3): the dominated provider's price moves.
        let grid = vec![
            PriceVector::new(&[9.0, 3.0, 5.0]).unwrap(),
            PriceVector::new(&[9.0, 3.0, 6.0]).unwrap(),
        ];
        let out = stage.follower_demand_batch(&grid);
        let (a, b) = (out[0].unwrap(), out[1].unwrap());
        assert_eq!(a.edge.to_bits(), b.edge.to_bits());
        assert_eq!(a.cloud.to_bits(), b.cloud.to_bits());
        assert!(stage.follower_demand_batch(&[]).is_empty());
    }
}
