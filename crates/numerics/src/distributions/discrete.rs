//! Finite discrete probability mass functions.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::error::NumericsError;

/// A finite probability mass function over `f64` outcomes.
///
/// Stores normalized probabilities together with their cumulative sums for
/// O(log n) inverse-CDF sampling. Used for the discretized-Gaussian miner
/// population of the dynamic scenario and for empirical distributions from
/// the chain simulator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiscretePmf {
    outcomes: Vec<f64>,
    probs: Vec<f64>,
    cumulative: Vec<f64>,
}

impl DiscretePmf {
    /// Builds a pmf from raw non-negative weights, normalizing them to sum
    /// to one.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::InvalidInput`] if the vectors' lengths
    /// differ, are empty, any weight is negative/non-finite, or all weights
    /// are zero.
    pub fn from_weights(outcomes: Vec<f64>, weights: Vec<f64>) -> Result<Self, NumericsError> {
        if outcomes.is_empty() || outcomes.len() != weights.len() {
            return Err(NumericsError::invalid(
                "DiscretePmf: outcomes and weights must be non-empty and equal length",
            ));
        }
        let mut total = 0.0;
        for (i, &w) in weights.iter().enumerate() {
            if !w.is_finite() || w < 0.0 {
                return Err(NumericsError::invalid(format!(
                    "DiscretePmf: weight[{i}] = {w} must be finite and >= 0"
                )));
            }
            total += w;
        }
        if total <= 0.0 {
            return Err(NumericsError::invalid("DiscretePmf: total weight must be positive"));
        }
        let probs: Vec<f64> = weights.iter().map(|w| w / total).collect();
        let mut cumulative = Vec::with_capacity(probs.len());
        let mut acc = 0.0;
        for &p in &probs {
            acc += p;
            cumulative.push(acc);
        }
        // Guard against rounding: force the last cumulative value to 1.
        if let Some(last) = cumulative.last_mut() {
            *last = 1.0;
        }
        Ok(DiscretePmf { outcomes, probs, cumulative })
    }

    /// Number of support points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// Whether the support is empty (never true for a constructed pmf).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Support points.
    #[must_use]
    pub fn outcomes(&self) -> &[f64] {
        &self.outcomes
    }

    /// Normalized probabilities (sum to one).
    #[must_use]
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Iterator over `(outcome, probability)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.outcomes.iter().copied().zip(self.probs.iter().copied())
    }

    /// Total mass (one by construction; exposed for test assertions).
    #[must_use]
    pub fn total_mass(&self) -> f64 {
        self.probs.iter().sum()
    }

    /// Expectation `Σ p(x) · x`.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.iter().map(|(x, p)| p * x).sum()
    }

    /// Variance `Σ p(x) · (x − mean)²`.
    #[must_use]
    pub fn variance(&self) -> f64 {
        let m = self.mean();
        self.iter().map(|(x, p)| p * (x - m) * (x - m)).sum()
    }

    /// Outcome with the highest probability (first one on ties).
    #[must_use]
    pub fn mode(&self) -> f64 {
        let mut best = 0;
        for i in 1..self.probs.len() {
            if self.probs[i] > self.probs[best] {
                best = i;
            }
        }
        self.outcomes[best]
    }

    /// Expectation of an arbitrary function of the outcome,
    /// `Σ p(x) · f(x)` — the workhorse for the dynamic-population expected
    /// utility (paper Eq. 26).
    // `#[inline]` lets every codegen unit that evaluates that utility inline
    // this loop into the best-response line searches; left to codegen-unit
    // placement it can end up behind a call on that hot path.
    #[inline]
    pub fn expect<F: FnMut(f64) -> f64>(&self, mut f: F) -> f64 {
        self.iter().map(|(x, p)| p * f(x)).sum()
    }

    /// Samples an outcome by inverse-CDF lookup.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen();
        let idx = self.cumulative.partition_point(|&c| c < u).min(self.outcomes.len() - 1);
        self.outcomes[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normalizes_weights() {
        let pmf = DiscretePmf::from_weights(vec![1.0, 2.0, 3.0], vec![2.0, 2.0, 4.0]).unwrap();
        assert_eq!(pmf.probs(), &[0.25, 0.25, 0.5]);
        assert!((pmf.total_mass() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn mean_variance_mode() {
        let pmf = DiscretePmf::from_weights(vec![0.0, 10.0], vec![1.0, 1.0]).unwrap();
        assert_eq!(pmf.mean(), 5.0);
        assert_eq!(pmf.variance(), 25.0);
        let pmf = DiscretePmf::from_weights(vec![1.0, 2.0], vec![1.0, 3.0]).unwrap();
        assert_eq!(pmf.mode(), 2.0);
    }

    #[test]
    fn expect_arbitrary_function() {
        let pmf = DiscretePmf::from_weights(vec![1.0, 2.0, 3.0], vec![1.0, 1.0, 1.0]).unwrap();
        let e = pmf.expect(|x| x * x);
        assert!((e - (1.0 + 4.0 + 9.0) / 3.0).abs() < 1e-14);
    }

    #[test]
    fn validation_errors() {
        assert!(DiscretePmf::from_weights(vec![], vec![]).is_err());
        assert!(DiscretePmf::from_weights(vec![1.0], vec![]).is_err());
        assert!(DiscretePmf::from_weights(vec![1.0], vec![-1.0]).is_err());
        assert!(DiscretePmf::from_weights(vec![1.0], vec![f64::NAN]).is_err());
        assert!(DiscretePmf::from_weights(vec![1.0, 2.0], vec![0.0, 0.0]).is_err());
    }

    #[test]
    fn sampling_matches_probabilities() {
        let pmf = DiscretePmf::from_weights(vec![1.0, 2.0, 3.0], vec![0.2, 0.3, 0.5]).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let n = 200_000;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            let s = pmf.sample(&mut rng);
            counts[(s as usize) - 1] += 1;
        }
        for (i, want) in [0.2, 0.3, 0.5].iter().enumerate() {
            let got = counts[i] as f64 / n as f64;
            assert!((got - want).abs() < 0.01, "outcome {i}: {got} vs {want}");
        }
    }

    #[test]
    fn sampling_degenerate_pmf() {
        let pmf = DiscretePmf::from_weights(vec![7.0], vec![3.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(pmf.sample(&mut rng), 7.0);
        }
    }
}
