//! K-provider market representation: [`PriceVector`] + [`ProviderSet`].
//!
//! The paper fixes exactly two leaders — one ESP and one CSP — and that pair
//! is baked into [`Prices`]. This module generalizes the market to `K ≥ 2`
//! providers: index `0` is always the edge provider, indices `1..K` are
//! cloud providers competing à la Bertrand on homogeneous cloud units.
//! Miners are price takers who buy cloud units only from the *cheapest*
//! cloud provider (ties split evenly), so every K-provider follower stage
//! **reduces exactly** to the paper's two-price subgame at the effective
//! pair `(P_e, min_k P_c^k)` — see [`PriceVector::effective`].
//!
//! # One representation
//!
//! The leader layer ([`crate::sp::stage`], [`crate::stackelberg`],
//! [`crate::algorithms`]) prices [`PriceVector`]s only; the paper's market
//! is `K = 2`. [`Prices`] is the reduced pair the follower stage consumes:
//! at `K = 2` the minimum over one cloud price is the identity, demand
//! allocation hands the whole cloud aggregate to the single cloud provider,
//! and per-provider profit is the same arithmetic as [`crate::sp::profits`],
//! so every `K = 2` answer is the paper's two-provider answer, bit for bit
//! (pinned by the root `leader_golden` and `solver_core` suites).
//!
//! # Storage
//!
//! [`PriceVector`] stores up to [`INLINE_PROVIDERS`] prices inline
//! (smallvec-style, no heap allocation for the K ≤ 4 markets the oligopoly
//! sweeps exercise) and spills to a `Vec` above that, up to
//! [`MAX_PROVIDERS`].

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use serde::{Deserialize, Serialize};

use crate::error::MiningGameError;
use crate::params::{MarketParams, Prices, Provider};
use crate::request::{Aggregates, Request};
use crate::subgame::connected::{analytic_best_response, BestResponseInputs};

/// Hard upper bound on the provider count a market may carry (wire frames
/// beyond this are rejected as `invalid_parameter`).
pub const MAX_PROVIDERS: usize = 64;

/// Providers stored inline (no heap) in a [`PriceVector`].
pub const INLINE_PROVIDERS: usize = 4;

/// Validates a K-provider price vector: at least two providers (one edge +
/// one cloud), at most [`MAX_PROVIDERS`], every price finite and strictly
/// positive.
///
/// # Errors
///
/// Returns [`MiningGameError::InvalidParameter`] on violation.
pub fn validate_price_vector(prices: &[f64]) -> Result<(), MiningGameError> {
    validate_provider_count(prices.len())?;
    for (i, &p) in prices.iter().enumerate() {
        if !(p.is_finite() && p > 0.0) {
            return Err(MiningGameError::invalid(format!(
                "provider price [{i}] = {p} must be finite and > 0"
            )));
        }
    }
    Ok(())
}

fn validate_provider_count(k: usize) -> Result<(), MiningGameError> {
    if k == 0 {
        return Err(MiningGameError::invalid("provider price vector must not be empty"));
    }
    if k < 2 {
        return Err(MiningGameError::invalid(
            "provider price vector needs at least two entries (one edge + one cloud provider)",
        ));
    }
    if k > MAX_PROVIDERS {
        return Err(MiningGameError::invalid(format!(
            "provider price vector has {k} entries; at most {MAX_PROVIDERS} providers are supported"
        )));
    }
    Ok(())
}

/// A validated vector of `K ≥ 2` announced unit prices; index `0` is the
/// edge provider, `1..K` the cloud providers. Inline storage for
/// `K ≤ INLINE_PROVIDERS`.
#[derive(Debug, Clone)]
pub struct PriceVector {
    len: usize,
    inline: [f64; INLINE_PROVIDERS],
    spill: Vec<f64>,
}

impl PartialEq for PriceVector {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PriceVector {
    /// Creates a validated price vector.
    ///
    /// # Errors
    ///
    /// Returns [`MiningGameError::InvalidParameter`] per
    /// [`validate_price_vector`].
    pub fn new(prices: &[f64]) -> Result<Self, MiningGameError> {
        PriceVector::from_fn(prices.len(), |i| prices[i])
    }

    /// Creates the validated vector `[price(0), …, price(k − 1)]` in place,
    /// with no heap allocation for `k ≤ INLINE_PROVIDERS`.
    ///
    /// # Errors
    ///
    /// Returns [`MiningGameError::InvalidParameter`] per
    /// [`validate_price_vector`].
    pub(crate) fn from_fn(
        k: usize,
        mut price: impl FnMut(usize) -> f64,
    ) -> Result<Self, MiningGameError> {
        validate_provider_count(k)?;
        let mut v = PriceVector { len: k, inline: [0.0; INLINE_PROVIDERS], spill: Vec::new() };
        if k <= INLINE_PROVIDERS {
            for (i, slot) in v.inline[..k].iter_mut().enumerate() {
                *slot = price(i);
            }
        } else {
            v.spill = (0..k).map(price).collect();
        }
        validate_price_vector(v.as_slice())?;
        Ok(v)
    }

    /// The `K = 2` vector of a price pair.
    ///
    /// # Errors
    ///
    /// Returns [`MiningGameError::InvalidParameter`] when the pair carries a
    /// non-finite or non-positive entry (the fields of [`Prices`] are
    /// public, so a pair may have bypassed [`Prices::new`]).
    pub fn from_prices(prices: &Prices) -> Result<Self, MiningGameError> {
        PriceVector::new(&[prices.edge, prices.cloud])
    }

    /// Number of providers `K`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always false: validation requires `K ≥ 2`.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The prices as a slice (`[edge, cloud_1, …, cloud_{K-1}]`).
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        if self.len <= INLINE_PROVIDERS {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }

    /// The prices as an owned vector.
    #[must_use]
    pub fn to_vec(&self) -> Vec<f64> {
        self.as_slice().to_vec()
    }

    /// The edge provider's price `P_e`.
    #[must_use]
    pub fn edge(&self) -> f64 {
        self.as_slice()[0]
    }

    /// Index and price of the cheapest cloud provider (strictly-less
    /// comparison, so the *first* cheapest provider wins exact ties).
    #[must_use]
    pub fn cheapest_cloud(&self) -> (usize, f64) {
        let s = self.as_slice();
        let mut best = 1;
        for i in 2..s.len() {
            if s[i] < s[best] {
                best = i;
            }
        }
        (best, s[best])
    }

    /// The market reduction to the paper's two-price form: the edge price
    /// and the *minimum* cloud price. At `K = 2` this is the identity on
    /// the pair — the keystone of the bitwise-compatibility contract.
    #[must_use]
    pub fn effective(&self) -> Prices {
        Prices { edge: self.edge(), cloud: self.cheapest_cloud().1 }
    }

    /// FNV-1a over all `K` price bit patterns — the continuation/grid
    /// identity of this price point. Folding `to_bits()` bytes (not values)
    /// keeps the key one-ulp sensitive.
    #[must_use]
    pub fn fnv_key(&self) -> u64 {
        crate::solver::bits_fingerprint(self.as_slice().iter().copied())
    }

    /// Splits aggregate follower demand `(E, C)` across the `K` providers:
    /// the edge provider serves `E`; the cloud aggregate `C` goes to the
    /// cheapest cloud provider(s), exact-bit price ties splitting evenly.
    /// At `K = 2` this returns `[E, C]` bit-for-bit.
    #[must_use]
    pub fn allocate_demand(&self, agg: &Aggregates) -> Vec<f64> {
        let s = self.as_slice();
        let mut out = vec![0.0; s.len()];
        out[0] = agg.edge;
        let (_, min_price) = self.cheapest_cloud();
        let ties = s[1..].iter().filter(|p| p.to_bits() == min_price.to_bits()).count();
        // A single winner takes the aggregate *undivided* so the K=2 path
        // reproduces the legacy arithmetic exactly (no `C / 1` round trip).
        let share = if ties == 1 { agg.cloud } else { agg.cloud / ties as f64 };
        for i in 1..s.len() {
            if s[i].to_bits() == min_price.to_bits() {
                out[i] = share;
            }
        }
        out
    }
}

/// The provider side of a K-provider market: cost/cap descriptions with
/// index `0` the edge provider and `1..K` the cloud providers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProviderSet {
    providers: Vec<Provider>,
}

impl ProviderSet {
    /// Creates a provider set (`2 ≤ K ≤ MAX_PROVIDERS`).
    ///
    /// # Errors
    ///
    /// Returns [`MiningGameError::InvalidParameter`] when the count is out
    /// of range.
    pub fn new(providers: Vec<Provider>) -> Result<Self, MiningGameError> {
        if providers.len() < 2 {
            return Err(MiningGameError::invalid(
                "a provider set needs at least two providers (one edge + one cloud)",
            ));
        }
        if providers.len() > MAX_PROVIDERS {
            return Err(MiningGameError::invalid(format!(
                "{} providers exceed the supported maximum of {MAX_PROVIDERS}",
                providers.len()
            )));
        }
        Ok(ProviderSet { providers })
    }

    /// The paper's two-provider market as a provider set: `[esp, csp]`.
    #[must_use]
    pub fn from_market(params: &MarketParams) -> Self {
        ProviderSet { providers: vec![params.esp(), params.csp()] }
    }

    /// Number of providers `K`.
    #[must_use]
    pub fn k(&self) -> usize {
        self.providers.len()
    }

    /// Provider `i` (`0` = edge).
    #[must_use]
    pub fn provider(&self, i: usize) -> Provider {
        self.providers[i]
    }

    /// The edge provider.
    #[must_use]
    pub fn edge(&self) -> Provider {
        self.providers[0]
    }

    /// The cloud providers (`K − 1` of them).
    #[must_use]
    pub fn clouds(&self) -> &[Provider] {
        &self.providers[1..]
    }

    /// All providers.
    #[must_use]
    pub fn as_slice(&self) -> &[Provider] {
        &self.providers
    }

    /// Admissible price interval of provider `i`: `(cost ∨ 10⁻⁶·cap, cap]`
    /// (prices must be strictly positive, so a zero-cost provider still
    /// cannot price at zero).
    #[must_use]
    pub fn bounds(&self, i: usize) -> (f64, f64) {
        let p = self.providers[i];
        (p.cost().max(1e-6 * p.price_cap()), p.price_cap())
    }

    /// The `(cost + cap) / 2` starting point of the leader search in
    /// [`crate::stackelberg`].
    #[must_use]
    pub fn midpoint_prices(&self) -> PriceVector {
        let mid = |i: usize| 0.5 * (self.providers[i].cost() + self.providers[i].price_cap());
        PriceVector::from_fn(self.k(), mid)
            .expect("midpoints of validated providers are valid prices")
    }

    /// Profit of provider `i` at `prices` given aggregate follower demand:
    /// `(p_i − c_i) · q_i` with `q_i` from [`PriceVector::allocate_demand`].
    /// At `K = 2` this matches [`crate::sp::profits`] bit-for-bit.
    #[must_use]
    pub fn profit(&self, i: usize, prices: &PriceVector, agg: &Aggregates) -> f64 {
        let s = prices.as_slice();
        debug_assert_eq!(s.len(), self.k(), "price vector and provider set disagree on K");
        let q = if i == 0 {
            agg.edge
        } else {
            let (_, min_price) = prices.cheapest_cloud();
            if s[i].to_bits() == min_price.to_bits() {
                let ties = s[1..].iter().filter(|p| p.to_bits() == min_price.to_bits()).count();
                if ties == 1 {
                    agg.cloud
                } else {
                    agg.cloud / ties as f64
                }
            } else {
                0.0
            }
        };
        (s[i] - self.providers[i].cost()) * q
    }

    /// Per-provider profits `[(p_i − c_i) · q_i]`.
    #[must_use]
    pub fn profits(&self, prices: &PriceVector, agg: &Aggregates) -> Vec<f64> {
        (0..self.k()).map(|i| self.profit(i, prices, agg)).collect()
    }
}

/// Per-provider revenues `p_i · q_i` at `prices` (no cost information
/// needed — what the serve layer reports for wire `providers` frames).
#[must_use]
pub fn provider_revenues(prices: &PriceVector, agg: &Aggregates) -> Vec<f64> {
    prices.as_slice().iter().zip(prices.allocate_demand(agg)).map(|(p, q)| p * q).collect()
}

/// Reduces a miner's K-provider unit allocation `[e, c_1, …, c_{K-1}]` to
/// the paper's two-dimensional request: `e_i = units[0]`,
/// `c_i = Σ_{k≥1} units[k]`. At `K = 2` the sum over one element is the
/// identity.
#[must_use]
pub fn split_request(units: &[f64]) -> Request {
    Request { edge: units[0], cloud: units[1..].iter().sum() }
}

/// A miner's spend under a K-provider allocation: `Σ_k p_k · units_k`.
/// At `K = 2` this is the same two-term sum as
/// [`Request::cost`](crate::request::Request::cost).
#[must_use]
pub fn allocation_cost(units: &[f64], prices: &PriceVector) -> f64 {
    let p = prices.as_slice();
    p[0] * units[0] + p[1..].iter().zip(&units[1..]).map(|(pk, uk)| pk * uk).sum::<f64>()
}

/// Connected-mode utility of miner `i` under K-provider allocations:
/// `U_i = R · W_i(reduced profile) − Σ_k p_k r_ik`. Winning probabilities
/// depend only on the reduced `(e, c)` profile — cloud units are
/// homogeneous regardless of which provider sold them.
#[must_use]
pub fn utility_connected_oligopoly(
    i: usize,
    allocations: &[Vec<f64>],
    prices: &PriceVector,
    params: &MarketParams,
) -> f64 {
    let reduced: Vec<Request> = allocations.iter().map(|u| split_request(u)).collect();
    params.reward()
        * crate::winning::w_connected_expected(
            i,
            &reduced,
            params.fork_rate(),
            params.edge_availability(),
        )
        - allocation_cost(&allocations[i], prices)
}

/// Budget-split best response of one miner over `K` providers.
///
/// Because cloud units are perfect substitutes priced linearly, any
/// allocation that buys cloud units above the minimum cloud price is
/// strictly dominated; the K-provider best response is therefore the
/// two-dimensional KKT best response at the effective prices
/// ([`analytic_best_response`]) with all cloud spend placed on the (first)
/// cheapest cloud provider. At `K = 2` the returned vector is exactly
/// `[r.edge, r.cloud]` of the legacy response.
///
/// # Errors
///
/// Propagates [`analytic_best_response`] errors (non-positive budget,
/// internal root-find failure).
pub fn oligopoly_best_response(
    prices: &PriceVector,
    params: &MarketParams,
    budget: f64,
    e_others: f64,
    s_others: f64,
) -> Result<Vec<f64>, MiningGameError> {
    let r = analytic_best_response(&BestResponseInputs {
        reward: params.reward(),
        beta: params.fork_rate(),
        h: params.edge_availability(),
        prices: prices.effective(),
        budget,
        e_others,
        s_others,
        edge_cap: None,
    })?;
    let mut units = vec![0.0; prices.len()];
    units[0] = r.edge;
    units[prices.cheapest_cloud().0] = r.cloud;
    Ok(units)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> MarketParams {
        MarketParams::builder().build().unwrap()
    }

    #[test]
    fn validation_rejects_malformed_vectors() {
        assert!(validate_price_vector(&[]).is_err());
        assert!(validate_price_vector(&[4.0]).is_err());
        assert!(validate_price_vector(&[4.0, f64::NAN]).is_err());
        assert!(validate_price_vector(&[4.0, f64::INFINITY]).is_err());
        assert!(validate_price_vector(&[4.0, 0.0]).is_err());
        assert!(validate_price_vector(&[4.0, -2.0]).is_err());
        assert!(validate_price_vector(&vec![1.0; MAX_PROVIDERS + 1]).is_err());
        assert!(validate_price_vector(&vec![1.0; MAX_PROVIDERS]).is_ok());
        assert!(validate_price_vector(&[4.0, 2.0]).is_ok());
    }

    #[test]
    fn inline_and_spilled_storage_round_trip() {
        let small = PriceVector::new(&[4.0, 2.0, 3.0]).unwrap();
        assert_eq!(small.as_slice(), &[4.0, 2.0, 3.0]);
        assert_eq!(small.len(), 3);
        let big: Vec<f64> = (1..=9).map(|i| i as f64).collect();
        let spilled = PriceVector::new(&big).unwrap();
        assert_eq!(spilled.as_slice(), &big[..]);
        assert_eq!(spilled.len(), 9);
        assert!(!spilled.is_empty());
    }

    #[test]
    fn effective_is_the_identity_at_k2() {
        let pair = Prices::new(4.25, 1.875).unwrap();
        let v = PriceVector::from_prices(&pair).unwrap();
        let eff = v.effective();
        assert_eq!(eff.edge.to_bits(), pair.edge.to_bits());
        assert_eq!(eff.cloud.to_bits(), pair.cloud.to_bits());
    }

    #[test]
    fn effective_takes_the_minimum_cloud_price() {
        let v = PriceVector::new(&[4.0, 2.5, 1.75, 3.0]).unwrap();
        assert_eq!(v.effective(), Prices { edge: 4.0, cloud: 1.75 });
        assert_eq!(v.cheapest_cloud(), (2, 1.75));
        // First cheapest wins exact ties.
        let tie = PriceVector::new(&[4.0, 2.0, 2.0]).unwrap();
        assert_eq!(tie.cheapest_cloud(), (1, 2.0));
    }

    #[test]
    fn k2_demand_allocation_is_bitwise_legacy() {
        let v = PriceVector::new(&[4.0, 2.0]).unwrap();
        let agg = Aggregates { edge: 13.370000000000001, cloud: 7.210000000000003 };
        let q = v.allocate_demand(&agg);
        assert_eq!(q.len(), 2);
        assert_eq!(q[0].to_bits(), agg.edge.to_bits());
        assert_eq!(q[1].to_bits(), agg.cloud.to_bits());
    }

    #[test]
    fn bertrand_allocation_is_winner_take_all_with_even_tie_split() {
        let agg = Aggregates { edge: 10.0, cloud: 6.0 };
        let v = PriceVector::new(&[4.0, 2.5, 1.75, 3.0]).unwrap();
        assert_eq!(v.allocate_demand(&agg), vec![10.0, 0.0, 6.0, 0.0]);
        let tie = PriceVector::new(&[4.0, 2.0, 3.0, 2.0]).unwrap();
        assert_eq!(tie.allocate_demand(&agg), vec![10.0, 3.0, 0.0, 3.0]);
    }

    #[test]
    fn k2_profits_match_sp_profits_bitwise() {
        let p = params();
        let set = ProviderSet::from_market(&p);
        let pair = Prices::new(4.3, 2.1).unwrap();
        let v = PriceVector::from_prices(&pair).unwrap();
        let agg = Aggregates { edge: 12.345678901234567, cloud: 9.876543210987654 };
        let (ve, vc) = crate::sp::profits(&p, &pair, &agg);
        let profits = set.profits(&v, &agg);
        assert_eq!(profits.len(), 2);
        assert_eq!(profits[0].to_bits(), ve.to_bits());
        assert_eq!(profits[1].to_bits(), vc.to_bits());
    }

    #[test]
    fn undercut_cloud_providers_earn_zero() {
        let edge = Provider::new(2.0, 10.0).unwrap();
        let c0 = Provider::new(1.0, 8.0).unwrap();
        let c1 = Provider::new(1.2, 8.0).unwrap();
        let set = ProviderSet::new(vec![edge, c0, c1]).unwrap();
        let v = PriceVector::new(&[4.0, 2.0, 2.5]).unwrap();
        let agg = Aggregates { edge: 10.0, cloud: 6.0 };
        assert_eq!(set.profit(1, &v, &agg), (2.0 - 1.0) * 6.0);
        assert_eq!(set.profit(2, &v, &agg), 0.0);
        let revenues = provider_revenues(&v, &agg);
        assert_eq!(revenues, vec![40.0, 12.0, 0.0]);
    }

    #[test]
    fn provider_set_validation_and_accessors() {
        let edge = Provider::new(2.0, 10.0).unwrap();
        assert!(ProviderSet::new(vec![edge]).is_err());
        assert!(ProviderSet::new(vec![edge; MAX_PROVIDERS + 1]).is_err());
        let p = params();
        let set = ProviderSet::from_market(&p);
        assert_eq!(set.k(), 2);
        assert_eq!(set.edge(), p.esp());
        assert_eq!(set.clouds(), &[p.csp()]);
        assert_eq!(set.provider(1), p.csp());
        assert_eq!(set.as_slice().len(), 2);
    }

    #[test]
    fn bounds_and_midpoints_match_the_legacy_stage() {
        let p = params();
        let set = ProviderSet::from_market(&p);
        assert_eq!(set.bounds(0), (2.0, 10.0));
        assert_eq!(set.bounds(1), (1.0, 8.0));
        let init = set.midpoint_prices();
        assert_eq!(init.as_slice(), &[6.0, 4.5]);
    }

    #[test]
    fn fnv_key_separates_one_ulp_price_changes() {
        let a = PriceVector::new(&[4.0, 2.0, 3.0]).unwrap();
        let b = PriceVector::new(&[4.0, f64::from_bits(2.0f64.to_bits() + 1), 3.0]).unwrap();
        assert_eq!(a.fnv_key(), PriceVector::new(&[4.0, 2.0, 3.0]).unwrap().fnv_key());
        assert_ne!(a.fnv_key(), b.fnv_key());
    }

    #[test]
    fn k_request_reduction_matches_legacy_cost() {
        let v = PriceVector::new(&[4.0, 2.0]).unwrap();
        let units = vec![1.5, 2.5];
        let r = split_request(&units);
        assert_eq!(r.edge.to_bits(), 1.5f64.to_bits());
        assert_eq!(r.cloud.to_bits(), 2.5f64.to_bits());
        let legacy = r.cost(&v.effective());
        assert_eq!(allocation_cost(&units, &v).to_bits(), legacy.to_bits());
    }

    #[test]
    fn k2_best_response_is_bitwise_legacy() {
        let p = params();
        let pair = Prices::new(4.0, 2.0).unwrap();
        let v = PriceVector::from_prices(&pair).unwrap();
        let legacy = analytic_best_response(&BestResponseInputs {
            reward: p.reward(),
            beta: p.fork_rate(),
            h: p.edge_availability(),
            prices: pair,
            budget: 200.0,
            e_others: 8.0,
            s_others: 30.0,
            edge_cap: None,
        })
        .unwrap();
        let units = oligopoly_best_response(&v, &p, 200.0, 8.0, 30.0).unwrap();
        assert_eq!(units.len(), 2);
        assert_eq!(units[0].to_bits(), legacy.edge.to_bits());
        assert_eq!(units[1].to_bits(), legacy.cloud.to_bits());
    }

    #[test]
    fn best_response_concentrates_cloud_spend_on_the_cheapest_provider() {
        let p = params();
        let v = PriceVector::new(&[4.0, 2.5, 2.0, 3.0]).unwrap();
        let units = oligopoly_best_response(&v, &p, 200.0, 8.0, 30.0).unwrap();
        assert_eq!(units.len(), 4);
        assert!(units[2] > 0.0, "{units:?}");
        assert_eq!(units[1], 0.0);
        assert_eq!(units[3], 0.0);

        // Dominance: shifting cloud units to a pricier provider never helps.
        let mut others = vec![vec![0.0, 0.0, 10.0, 0.0], vec![4.0, 0.0, 8.0, 0.0]];
        others.insert(0, units.clone());
        let best = utility_connected_oligopoly(0, &others, &v, &p);
        let mut shifted = others.clone();
        shifted[0][3] = shifted[0][2];
        shifted[0][2] = 0.0;
        let worse = utility_connected_oligopoly(0, &shifted, &v, &p);
        assert!(best >= worse, "best {best} < shifted {worse}");
    }

    #[test]
    fn k2_utility_matches_legacy_bitwise() {
        let p = params();
        let v = PriceVector::new(&[4.0, 2.0]).unwrap();
        let allocations = vec![vec![1.5, 2.5], vec![2.0, 1.0], vec![0.5, 3.0]];
        let reduced: Vec<Request> = allocations.iter().map(|u| split_request(u)).collect();
        for i in 0..allocations.len() {
            let legacy = crate::winning::utility_connected(i, &reduced, &v.effective(), &p);
            let k = utility_connected_oligopoly(i, &allocations, &v, &p);
            assert_eq!(k.to_bits(), legacy.to_bits(), "miner {i}");
        }
    }
}
