//! Validated market parameters.
//!
//! Notation follows Table I of the paper: mining reward `R`, blockchain fork
//! rate `β`, the ESP's expected satisfaction probability `h` (requests
//! transfer to the CSP with probability `1 − h` in connected mode), unit
//! costs `C_e`/`C_c`, and the standalone capacity `E_max`.
//!
//! Each provider additionally carries a **price cap** `p̄`. The paper's
//! Theorem 4 states the ESP's dominant strategy as `P_e* = p̄`: in the
//! budget-binding regime the ESP's profit is strictly increasing in its own
//! price (miners spend a fixed budget share at the edge), so the leader game
//! is only well-posed with a maximum admissible price — a regulatory cap or
//! the miners' outside option. We make that `p̄` explicit per provider.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use serde::{Deserialize, Serialize};

use crate::error::MiningGameError;

/// A service provider's cost structure and admissible price range.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Provider {
    cost: f64,
    price_cap: f64,
}

impl Provider {
    /// Creates a provider with unit cost `cost` and price cap `price_cap`.
    ///
    /// # Errors
    ///
    /// Returns [`MiningGameError::InvalidParameter`] unless
    /// `0 ≤ cost < price_cap` and both are finite.
    pub fn new(cost: f64, price_cap: f64) -> Result<Self, MiningGameError> {
        if !(cost.is_finite() && cost >= 0.0) {
            return Err(MiningGameError::invalid(format!("provider cost = {cost} must be >= 0")));
        }
        if !(price_cap.is_finite() && price_cap > cost) {
            return Err(MiningGameError::invalid(format!(
                "provider price cap = {price_cap} must exceed cost = {cost}"
            )));
        }
        Ok(Provider { cost, price_cap })
    }

    /// Unit operating cost (`C_e` or `C_c`).
    #[must_use]
    pub fn cost(&self) -> f64 {
        self.cost
    }

    /// Maximum admissible unit price (`p̄`).
    #[must_use]
    pub fn price_cap(&self) -> f64 {
        self.price_cap
    }
}

/// A pair of announced unit prices.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Prices {
    /// ESP unit price `P_e`.
    pub edge: f64,
    /// CSP unit price `P_c`.
    pub cloud: f64,
}

impl Prices {
    /// Creates a price pair.
    ///
    /// # Errors
    ///
    /// Returns [`MiningGameError::InvalidParameter`] unless both prices are
    /// finite and strictly positive.
    pub fn new(edge: f64, cloud: f64) -> Result<Self, MiningGameError> {
        let prices = Prices { edge, cloud };
        validate_prices(&prices)?;
        Ok(prices)
    }
}

/// How the ESP operates, which decides the follower game: a Nash game
/// (Problem 1a) when connected, a GNEP under the shared capacity `E_max`
/// (Problem 1c) when standalone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EdgeOperation {
    /// ESP connected to the CSP (transfer probability `1 − h`).
    Connected,
    /// Standalone ESP with capacity `E_max`.
    Standalone,
}

/// Validates an announced price pair (both finite and strictly positive).
///
/// The fields of [`Prices`] are public, so a pair that bypassed
/// [`Prices::new`] can carry NaN/Inf/non-positive entries; every follower
/// solve re-checks at its API boundary so no non-finite price reaches a
/// solver tier.
///
/// # Errors
///
/// Returns [`MiningGameError::InvalidParameter`] on violation.
pub fn validate_prices(prices: &Prices) -> Result<(), MiningGameError> {
    let Prices { edge, cloud } = *prices;
    if !(edge.is_finite() && edge > 0.0) || !(cloud.is_finite() && cloud > 0.0) {
        return Err(MiningGameError::invalid(format!(
            "prices (edge = {edge}, cloud = {cloud}) must be finite and > 0"
        )));
    }
    Ok(())
}

/// Full market description: reward, network, and the two providers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MarketParams {
    reward: f64,
    fork_rate: f64,
    edge_availability: f64,
    esp: Provider,
    csp: Provider,
    e_max: f64,
}

impl MarketParams {
    /// Starts a [`MarketParamsBuilder`] with the defaults used throughout
    /// the paper's evaluation section (`R = 100`, `β = 0.2`, `h = 0.8`,
    /// `C_e = 2`, `C_c = 1`, caps `10`/`8`, `E_max = 50`).
    #[must_use]
    pub fn builder() -> MarketParamsBuilder {
        MarketParamsBuilder::default()
    }

    /// Blockchain mining reward `R`.
    #[must_use]
    pub fn reward(&self) -> f64 {
        self.reward
    }

    /// Blockchain fork rate `β` caused by the CSP's communication delay.
    #[must_use]
    pub fn fork_rate(&self) -> f64 {
        self.fork_rate
    }

    /// ESP satisfaction probability `h` (connected mode transfers with
    /// probability `1 − h`).
    #[must_use]
    pub fn edge_availability(&self) -> f64 {
        self.edge_availability
    }

    /// The edge service provider.
    #[must_use]
    pub fn esp(&self) -> Provider {
        self.esp
    }

    /// The cloud service provider.
    #[must_use]
    pub fn csp(&self) -> Provider {
        self.csp
    }

    /// Standalone-mode edge capacity `E_max`.
    #[must_use]
    pub fn e_max(&self) -> f64 {
        self.e_max
    }

    /// Returns a copy with a different fork rate.
    ///
    /// # Errors
    ///
    /// Returns [`MiningGameError::InvalidParameter`] if `beta ∉ [0, 1)`.
    pub fn with_fork_rate(mut self, beta: f64) -> Result<Self, MiningGameError> {
        validate_fork_rate(beta)?;
        self.fork_rate = beta;
        Ok(self)
    }

    /// Returns a copy with a different capacity.
    ///
    /// # Errors
    ///
    /// Returns [`MiningGameError::InvalidParameter`] if `e_max ≤ 0`.
    pub fn with_e_max(mut self, e_max: f64) -> Result<Self, MiningGameError> {
        validate_e_max(e_max)?;
        self.e_max = e_max;
        Ok(self)
    }

    /// Returns a copy with a different ESP description.
    #[must_use]
    pub fn with_esp(mut self, esp: Provider) -> Self {
        self.esp = esp;
        self
    }

    /// Fork rate implied by a cloud communication delay, using the
    /// exponential collision model of the paper's Fig. 2:
    /// `β = 1 − e^{−delay/τ}` with mean collision time `τ`.
    ///
    /// # Errors
    ///
    /// Returns [`MiningGameError::InvalidParameter`] for negative inputs or
    /// non-positive `tau`.
    pub fn fork_rate_from_delay(delay: f64, tau: f64) -> Result<f64, MiningGameError> {
        if !(delay.is_finite() && delay >= 0.0) {
            return Err(MiningGameError::invalid(format!("delay = {delay} must be >= 0")));
        }
        if !(tau.is_finite() && tau > 0.0) {
            return Err(MiningGameError::invalid(format!("tau = {tau} must be > 0")));
        }
        Ok(-(-delay / tau).exp_m1())
    }
}

/// Builder for [`MarketParams`].
#[derive(Debug, Clone, Copy)]
pub struct MarketParamsBuilder {
    reward: f64,
    fork_rate: f64,
    edge_availability: f64,
    esp: Provider,
    csp: Provider,
    e_max: f64,
}

impl Default for MarketParamsBuilder {
    fn default() -> Self {
        MarketParamsBuilder {
            reward: 100.0,
            fork_rate: 0.2,
            edge_availability: 0.8,
            esp: Provider { cost: 2.0, price_cap: 10.0 },
            csp: Provider { cost: 1.0, price_cap: 8.0 },
            e_max: 50.0,
        }
    }
}

impl MarketParamsBuilder {
    /// Sets the mining reward `R`.
    #[must_use]
    pub fn reward(mut self, r: f64) -> Self {
        self.reward = r;
        self
    }

    /// Sets the fork rate `β`.
    #[must_use]
    pub fn fork_rate(mut self, beta: f64) -> Self {
        self.fork_rate = beta;
        self
    }

    /// Sets the ESP satisfaction probability `h`.
    #[must_use]
    pub fn edge_availability(mut self, h: f64) -> Self {
        self.edge_availability = h;
        self
    }

    /// Sets the edge provider.
    #[must_use]
    pub fn esp(mut self, p: Provider) -> Self {
        self.esp = p;
        self
    }

    /// Sets the cloud provider.
    #[must_use]
    pub fn csp(mut self, p: Provider) -> Self {
        self.csp = p;
        self
    }

    /// Sets the standalone capacity `E_max`.
    #[must_use]
    pub fn e_max(mut self, e: f64) -> Self {
        self.e_max = e;
        self
    }

    /// Validates and builds the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`MiningGameError::InvalidParameter`] if any field is out of
    /// range (`R > 0`, `β ∈ [0, 1)`, `h ∈ (0, 1]`, `E_max > 0`).
    pub fn build(self) -> Result<MarketParams, MiningGameError> {
        if !(self.reward.is_finite() && self.reward > 0.0) {
            return Err(MiningGameError::invalid(format!("reward = {} must be > 0", self.reward)));
        }
        validate_fork_rate(self.fork_rate)?;
        if !(self.edge_availability > 0.0 && self.edge_availability <= 1.0) {
            return Err(MiningGameError::invalid(format!(
                "edge availability h = {} must be in (0, 1]",
                self.edge_availability
            )));
        }
        validate_e_max(self.e_max)?;
        Ok(MarketParams {
            reward: self.reward,
            fork_rate: self.fork_rate,
            edge_availability: self.edge_availability,
            esp: self.esp,
            csp: self.csp,
            e_max: self.e_max,
        })
    }
}

fn validate_fork_rate(beta: f64) -> Result<(), MiningGameError> {
    if !(beta.is_finite() && (0.0..1.0).contains(&beta)) {
        return Err(MiningGameError::invalid(format!("fork rate beta = {beta} must be in [0, 1)")));
    }
    Ok(())
}

fn validate_e_max(e_max: f64) -> Result<(), MiningGameError> {
    if !(e_max.is_finite() && e_max > 0.0) {
        return Err(MiningGameError::invalid(format!("e_max = {e_max} must be > 0")));
    }
    Ok(())
}

/// Validates a vector of miner budgets (all finite and strictly positive,
/// at least two miners — the game degenerates with a single miner, whose
/// winning probability is 1 regardless of its request).
///
/// # Errors
///
/// Returns [`MiningGameError::InvalidParameter`] on violation.
pub fn validate_budgets(budgets: &[f64]) -> Result<(), MiningGameError> {
    if budgets.len() < 2 {
        return Err(MiningGameError::invalid(
            "need at least two miners; the mining race degenerates with one",
        ));
    }
    for (i, &b) in budgets.iter().enumerate() {
        if !(b.is_finite() && b > 0.0) {
            return Err(MiningGameError::invalid(format!("budget[{i}] = {b} must be > 0")));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_are_valid() {
        let p = MarketParams::builder().build().unwrap();
        assert_eq!(p.reward(), 100.0);
        assert_eq!(p.fork_rate(), 0.2);
        assert_eq!(p.edge_availability(), 0.8);
        assert_eq!(p.esp().cost(), 2.0);
        assert_eq!(p.csp().price_cap(), 8.0);
        assert_eq!(p.e_max(), 50.0);
    }

    #[test]
    fn builder_rejects_bad_values() {
        assert!(MarketParams::builder().reward(0.0).build().is_err());
        assert!(MarketParams::builder().fork_rate(1.0).build().is_err());
        assert!(MarketParams::builder().fork_rate(-0.1).build().is_err());
        assert!(MarketParams::builder().edge_availability(0.0).build().is_err());
        assert!(MarketParams::builder().edge_availability(1.1).build().is_err());
        assert!(MarketParams::builder().e_max(0.0).build().is_err());
    }

    #[test]
    fn provider_validation() {
        assert!(Provider::new(-1.0, 5.0).is_err());
        assert!(Provider::new(5.0, 5.0).is_err());
        assert!(Provider::new(1.0, f64::INFINITY).is_err());
        let p = Provider::new(1.0, 5.0).unwrap();
        assert_eq!(p.cost(), 1.0);
        assert_eq!(p.price_cap(), 5.0);
    }

    #[test]
    fn prices_validation() {
        assert!(Prices::new(0.0, 1.0).is_err());
        assert!(Prices::new(1.0, -1.0).is_err());
        let p = Prices::new(3.0, 2.0).unwrap();
        assert_eq!(p.edge, 3.0);
        assert_eq!(p.cloud, 2.0);
    }

    #[test]
    fn with_mutators_revalidate() {
        let p = MarketParams::builder().build().unwrap();
        assert!(p.with_fork_rate(0.5).is_ok());
        assert!(p.with_fork_rate(1.5).is_err());
        assert!(p.with_e_max(-1.0).is_err());
        let q = p.with_esp(Provider::new(3.0, 12.0).unwrap());
        assert_eq!(q.esp().cost(), 3.0);
    }

    #[test]
    fn fork_rate_from_delay_is_exponential_cdf() {
        let b = MarketParams::fork_rate_from_delay(12.6, 12.6).unwrap();
        assert!((b - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
        assert_eq!(MarketParams::fork_rate_from_delay(0.0, 5.0).unwrap(), 0.0);
        assert!(MarketParams::fork_rate_from_delay(-1.0, 5.0).is_err());
        assert!(MarketParams::fork_rate_from_delay(1.0, 0.0).is_err());
    }

    #[test]
    fn budgets_validation() {
        assert!(validate_budgets(&[100.0, 100.0]).is_ok());
        assert!(validate_budgets(&[100.0]).is_err());
        assert!(validate_budgets(&[100.0, 0.0]).is_err());
        assert!(validate_budgets(&[100.0, f64::NAN]).is_err());
    }
}
