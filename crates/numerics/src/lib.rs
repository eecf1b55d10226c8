//! Numerical substrate for the mobile blockchain mining game.
//!
//! The equilibrium analysis of the mining game rests on a small set of
//! numerical building blocks, all implemented here from scratch:
//!
//! * [`roots`] — scalar root finding (bisection, Brent, safeguarded Newton),
//!   used to solve KKT stationarity conditions and budget multipliers.
//! * [`optimize`] — one-dimensional concave maximization (golden section,
//!   adaptive grids) and projected-gradient ascent for box/budget-constrained
//!   best responses.
//! * [`projection`] — Euclidean projections onto boxes, budget sets and
//!   half-spaces, plus Dykstra's algorithm for intersections; these are the
//!   feasibility oracles of every constrained solver in the workspace.
//! * [`vi`] — an extragradient solver for variational inequalities, which is
//!   how generalized Nash equilibria (standalone-mode miner subgame) are
//!   computed.
//! * [`distributions`] — Gaussian (with an `erf` implementation), exponential
//!   and discretized distributions; the dynamic-population scenario builds on
//!   the discretized Gaussian.
//! * [`stats`] — streaming statistics for the Monte-Carlo simulator.
//!
//! # Example
//!
//! ```
//! use mbm_numerics::roots::{brent, Bracket};
//!
//! # fn main() -> Result<(), mbm_numerics::NumericsError> {
//! // Solve x^3 = 2.
//! let root = brent(|x| x * x * x - 2.0, Bracket::new(0.0, 2.0)?, 1e-12, 100)?;
//! assert!((root.x - 2f64.powf(1.0 / 3.0)).abs() < 1e-10);
//! # Ok(())
//! # }
//! ```

// Lint policy: `!(x > 0.0)`-style guards deliberately reject NaN alongside
// out-of-range values (rewriting via `partial_cmp` would lose that), and
// index-based loops mirror the paper's sum-over-miners notation.
#![allow(
    clippy::neg_cmp_op_on_partial_ord,
    clippy::nonminimal_bool,
    clippy::needless_range_loop,
    clippy::explicit_counter_loop
)]

pub mod diff;
pub mod distributions;
pub mod error;
pub mod optimize;
pub mod projection;
pub mod quadrature;
pub mod roots;
pub mod stats;
pub mod supervision;
pub(crate) mod telemetry;
pub mod vi;

pub use error::NumericsError;

/// Returns `true` if `a` and `b` are equal within `abs_tol` or within
/// `rel_tol` relative to their magnitudes.
///
/// This is the comparison used by every convergence check in the workspace so
/// that "close" means the same thing everywhere.
///
/// ```
/// assert!(mbm_numerics::approx_eq(1.0, 1.0 + 1e-13, 1e-12, 1e-12));
/// assert!(!mbm_numerics::approx_eq(1.0, 1.1, 1e-12, 1e-12));
/// ```
#[must_use]
pub fn approx_eq(a: f64, b: f64, abs_tol: f64, rel_tol: f64) -> bool {
    let diff = (a - b).abs();
    if diff <= abs_tol {
        return true;
    }
    diff <= rel_tol * a.abs().max(b.abs())
}

/// Maximum absolute componentwise difference between two slices.
///
/// # Panics
///
/// Panics if the slices have different lengths; callers compare successive
/// iterates of the same problem, so unequal lengths are a programming error.
#[must_use]
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "max_abs_diff: slice length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
}

/// Euclidean norm of a slice.
#[must_use]
pub fn norm2(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Dot product of two slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[must_use]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: slice length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_absolute() {
        assert!(approx_eq(0.0, 1e-13, 1e-12, 0.0));
        assert!(!approx_eq(0.0, 1e-3, 1e-12, 1e-12));
    }

    #[test]
    fn approx_eq_relative() {
        assert!(approx_eq(1e9, 1e9 + 1.0, 0.0, 1e-8));
        assert!(!approx_eq(1e9, 1e9 + 100.0, 0.0, 1e-12));
    }

    #[test]
    fn max_abs_diff_basic() {
        assert_eq!(max_abs_diff(&[1.0, 2.0], &[1.5, 2.0]), 0.5);
        assert_eq!(max_abs_diff(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn max_abs_diff_len_mismatch_panics() {
        let _ = max_abs_diff(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn norm2_and_dot() {
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
        assert!((dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]) - 32.0).abs() < 1e-15);
    }
}
