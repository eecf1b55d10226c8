//! Adaptive refining grid search for one-dimensional maximization.
//!
//! Unlike golden-section search, grid refinement does not assume
//! unimodality: it scans the whole interval, then recursively zooms on the
//! best cell. It is used where profit functions may develop multiple local
//! maxima (e.g. leader profits across regime switches between the
//! budget-binding and sufficient-budget follower equilibria).

use crate::error::NumericsError;

/// Result of an adaptive grid maximization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridResult {
    /// Argmax estimate.
    pub x: f64,
    /// Objective value at [`GridResult::x`].
    pub value: f64,
    /// Number of objective evaluations spent.
    pub evaluations: usize,
}

/// Maximizes `f` on `[lo, hi]` by scanning `points` equally spaced samples
/// and recursively refining around the best one for `rounds` rounds.
///
/// Each round shrinks the search interval by a factor of `points / 2`, so the
/// final resolution is roughly `(hi - lo) * (2 / points)^rounds`.
///
/// Non-finite objective values are treated as "worse than everything" rather
/// than an error, because leader profit functions in the mining game are
/// legitimately undefined outside feasibility regions (e.g. prices below
/// cost); the search simply avoids those cells. If *every* sample is
/// non-finite, an error is returned.
///
/// # Errors
///
/// * [`NumericsError::InvalidInput`] for degenerate intervals or
///   `points < 3` or `rounds == 0`.
/// * [`NumericsError::NonFiniteValue`] if no sample point yields a finite
///   value.
///
/// ```
/// use mbm_numerics::optimize::adaptive_grid_max;
/// # fn main() -> Result<(), mbm_numerics::NumericsError> {
/// // Bimodal: global max near x = 4 (pulled slightly left by the bump at 1).
/// let f = |x: f64| (-(x - 1.0) * (x - 1.0)).exp() + 2.0 * (-(x - 4.0) * (x - 4.0)).exp();
/// let r = adaptive_grid_max(f, 0.0, 6.0, 41, 8)?;
/// assert!((r.x - 4.0).abs() < 1e-3);
/// # Ok(())
/// # }
/// ```
pub fn adaptive_grid_max<F>(
    mut f: F,
    lo: f64,
    hi: f64,
    points: usize,
    rounds: usize,
) -> Result<GridResult, NumericsError>
where
    F: FnMut(f64) -> f64,
{
    adaptive_grid_max_batch(|xs| xs.iter().map(|&x| f(x)).collect(), lo, hi, points, rounds)
}

/// Batch-evaluator form of [`adaptive_grid_max`]: each refinement round hands
/// the *whole* candidate grid to `eval_batch` at once, which may compute the
/// values in any order (e.g. on a thread pool) as long as `eval_batch(xs)[k]`
/// is the objective at `xs[k]`.
///
/// Candidate selection is a fixed serial scan over the returned values, so
/// the result is bitwise identical no matter how the batch was computed —
/// this is the determinism seam the parallel Stackelberg pipeline relies on.
///
/// # Errors
///
/// As [`adaptive_grid_max`]; additionally [`NumericsError::InvalidInput`] if
/// `eval_batch` returns a vector of the wrong length.
pub fn adaptive_grid_max_batch<F>(
    eval_batch: F,
    lo: f64,
    hi: f64,
    points: usize,
    rounds: usize,
) -> Result<GridResult, NumericsError>
where
    F: FnMut(&[f64]) -> Vec<f64>,
{
    let out = adaptive_grid_max_batch_core(eval_batch, lo, hi, points, rounds);
    // Grid search has no convergence residual; NaN keeps the iteration
    // counters while skipping the residual histogram.
    crate::telemetry::record("numerics.grid", &out, |r| (r.evaluations, f64::NAN));
    out
}

fn adaptive_grid_max_batch_core<F>(
    mut eval_batch: F,
    lo: f64,
    hi: f64,
    points: usize,
    rounds: usize,
) -> Result<GridResult, NumericsError>
where
    F: FnMut(&[f64]) -> Vec<f64>,
{
    if !(lo.is_finite() && hi.is_finite()) || lo >= hi {
        return Err(NumericsError::invalid("adaptive_grid_max: need finite lo < hi"));
    }
    if points < 3 {
        return Err(NumericsError::invalid("adaptive_grid_max: need at least 3 grid points"));
    }
    if rounds == 0 {
        return Err(NumericsError::invalid("adaptive_grid_max: need at least 1 round"));
    }
    let mut a = lo;
    let mut b = hi;
    let mut best_x = f64::NAN;
    let mut best_v = f64::NEG_INFINITY;
    let mut evals = 0;
    let mut xs = Vec::with_capacity(points);
    for _ in 0..rounds {
        let step = (b - a) / (points - 1) as f64;
        xs.clear();
        xs.extend((0..points).map(|k| a + step * k as f64));
        let values = eval_batch(&xs);
        if values.len() != points {
            return Err(NumericsError::invalid(
                "adaptive_grid_max_batch: evaluator returned wrong number of values",
            ));
        }
        evals += points;
        // Selection is a strict first-max scan in grid order: independent of
        // the evaluation order inside `eval_batch`.
        let mut round_best_x = f64::NAN;
        let mut round_best_v = f64::NEG_INFINITY;
        for (&x, &v) in xs.iter().zip(&values) {
            if v.is_finite() && v > round_best_v {
                round_best_v = v;
                round_best_x = x;
            }
        }
        if !round_best_x.is_finite() {
            return Err(NumericsError::NonFiniteValue { at: 0.5 * (a + b) });
        }
        if round_best_v > best_v {
            best_v = round_best_v;
            best_x = round_best_x;
        }
        // Zoom on the winning cell (one step each side), clamped to [lo, hi].
        a = (round_best_x - step).max(lo);
        b = (round_best_x + step).min(hi);
        if b - a <= f64::EPSILON * (1.0 + b.abs()) {
            break;
        }
    }
    Ok(GridResult { x: best_x, value: best_v, evaluations: evals })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_global_max_of_bimodal() {
        let f = |x: f64| (-(x - 1.0) * (x - 1.0)).exp() + 2.0 * (-(x - 4.0) * (x - 4.0)).exp();
        let r = adaptive_grid_max(f, 0.0, 6.0, 61, 10).unwrap();
        // The small bump at x = 1 pulls the true maximizer slightly below 4
        // (to ≈ 3.999815), so compare with a tolerance wider than that pull.
        assert!((r.x - 4.0).abs() < 1e-3, "got {}", r.x);
        assert!(r.value >= f(4.0));
    }

    #[test]
    fn boundary_maximum() {
        let r = adaptive_grid_max(|x| x, 0.0, 1.0, 11, 6).unwrap();
        assert!((r.x - 1.0).abs() < 1e-9);
    }

    #[test]
    fn tolerates_partial_nan_regions() {
        // Undefined left half, maximum at 0.75 on the defined right half.
        let f = |x: f64| if x < 0.5 { f64::NAN } else { -(x - 0.75f64).powi(2) };
        let r = adaptive_grid_max(f, 0.0, 1.0, 21, 8).unwrap();
        assert!((r.x - 0.75).abs() < 1e-5, "got {}", r.x);
    }

    #[test]
    fn all_nan_is_an_error() {
        let err = adaptive_grid_max(|_| f64::NAN, 0.0, 1.0, 11, 3).unwrap_err();
        assert!(matches!(err, NumericsError::NonFiniteValue { .. }));
    }

    #[test]
    fn input_validation() {
        assert!(adaptive_grid_max(|x| x, 1.0, 0.0, 11, 3).is_err());
        assert!(adaptive_grid_max(|x| x, 0.0, 1.0, 2, 3).is_err());
        assert!(adaptive_grid_max(|x| x, 0.0, 1.0, 11, 0).is_err());
    }

    #[test]
    fn parallel_grid_is_bitwise_equal_to_serial() {
        let f = |x: f64| (x * 3.7).sin() + 0.3 * (x * 0.9).cos() - 0.01 * x * x;
        let serial = adaptive_grid_max(f, -2.0, 8.0, 33, 6).unwrap();
        for threads in [1, 2, 4, 9] {
            let pool = mbm_par::Pool::new(threads);
            let par =
                adaptive_grid_max_batch(|xs| pool.par_map(xs, |_, &x| f(x)), -2.0, 8.0, 33, 6)
                    .unwrap();
            assert_eq!(serial.x.to_bits(), par.x.to_bits(), "threads = {threads}");
            assert_eq!(serial.value.to_bits(), par.value.to_bits(), "threads = {threads}");
            assert_eq!(serial.evaluations, par.evaluations);
        }
    }

    #[test]
    fn batch_length_mismatch_is_an_error() {
        let err = adaptive_grid_max_batch(|_| vec![1.0], 0.0, 1.0, 11, 3).unwrap_err();
        assert!(matches!(err, NumericsError::InvalidInput { .. }));
    }

    #[test]
    fn refinement_improves_accuracy() {
        let f = |x: f64| -(x - std::f64::consts::PI).powi(2);
        let coarse = adaptive_grid_max(f, 0.0, 10.0, 11, 1).unwrap();
        let fine = adaptive_grid_max(f, 0.0, 10.0, 11, 10).unwrap();
        assert!((fine.x - std::f64::consts::PI).abs() < (coarse.x - std::f64::consts::PI).abs());
        assert!((fine.x - std::f64::consts::PI).abs() < 1e-6);
    }
}
