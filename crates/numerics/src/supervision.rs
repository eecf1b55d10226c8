//! Bridge between [`mbm_faults`] probes and [`NumericsError`].
//!
//! Every iterative kernel in this crate (and in the crates above it, via
//! re-export) calls [`checkpoint`] once per outer iteration. When no fault
//! plan or supervision is active the call is a single relaxed atomic load.
//! Armed, it checks the cancel token and (unless interrupted) the fault
//! rules on every call, and reads the deadline clock on every call except
//! at [`sites::ROOTS`]: the root finders' iterations are too cheap to pay
//! for the clock each time, so there [`mbm_faults::probe`] reads it on the
//! first root probe of a run and then once every 64, and a deadline stops a
//! root find at most 63 iterations late. An [`mbm_faults::Interrupt`] is
//! translated into the typed error the kernel's caller already understands:
//!
//! * injected faults become [`NumericsError::DidNotConverge`] shaped per
//!   [`mbm_faults::FaultKind`] (spurious misconvergence at the current
//!   iterate, a NaN residual, or a pretend-exhausted budget) — these are
//!   convergence failures and drive tier escalation exactly like real ones;
//! * deadline expiry and cancellation become the *terminal*
//!   [`NumericsError::DeadlineExceeded`] / [`NumericsError::Cancelled`],
//!   which [`NumericsError::is_interruption`] distinguishes so nothing
//!   retries against a spent budget.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use crate::error::NumericsError;
use mbm_faults::{FaultKind, Interrupt};

pub use mbm_faults::sites;

/// Probes `site` and translates any interrupt into a [`NumericsError`].
///
/// `iterations` and `residual` describe the current state of the iteration
/// (they parameterize injected misconvergence); `max_iter` is the kernel's
/// iteration cap (reported by an injected budget-exhaustion fault).
///
/// # Errors
///
/// Returns the translated interrupt, if one fired. An injected
/// [`FaultKind::Panic`] panics inside the probe instead of returning.
#[inline]
pub fn checkpoint(
    site: &str,
    iterations: usize,
    max_iter: usize,
    residual: f64,
) -> Result<(), NumericsError> {
    match mbm_faults::probe(site) {
        None => Ok(()),
        Some(interrupt) => Err(interrupt_to_error(interrupt, iterations, max_iter, residual)),
    }
}

fn interrupt_to_error(
    interrupt: Interrupt,
    iterations: usize,
    max_iter: usize,
    residual: f64,
) -> NumericsError {
    match interrupt {
        Interrupt::Fault(FaultKind::NanResidual) => {
            NumericsError::DidNotConverge { iterations, residual: f64::NAN }
        }
        Interrupt::Fault(FaultKind::ExhaustBudget) => {
            NumericsError::DidNotConverge { iterations: max_iter, residual }
        }
        // `Panic` never returns from the probe; any future kinds degrade to
        // plain misconvergence, the mildest injectable failure.
        Interrupt::Fault(_) => NumericsError::DidNotConverge { iterations, residual },
        Interrupt::DeadlineExceeded { elapsed_ms } => {
            NumericsError::DeadlineExceeded { elapsed_ms }
        }
        Interrupt::Cancelled => NumericsError::Cancelled,
        // `Interrupt` is non-exhaustive; treat unknown future interrupts as
        // cancellation (terminal, never retried).
        _ => NumericsError::Cancelled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interrupt_translation_shapes() {
        let e = interrupt_to_error(Interrupt::Fault(FaultKind::Misconverge), 7, 100, 0.5);
        assert_eq!(e, NumericsError::DidNotConverge { iterations: 7, residual: 0.5 });
        assert!(!e.is_interruption());

        match interrupt_to_error(Interrupt::Fault(FaultKind::NanResidual), 7, 100, 0.5) {
            NumericsError::DidNotConverge { iterations: 7, residual } => {
                assert!(residual.is_nan());
            }
            other => panic!("unexpected {other:?}"),
        }

        let e = interrupt_to_error(Interrupt::Fault(FaultKind::ExhaustBudget), 7, 100, 0.5);
        assert_eq!(e, NumericsError::DidNotConverge { iterations: 100, residual: 0.5 });

        let e = interrupt_to_error(Interrupt::DeadlineExceeded { elapsed_ms: 12 }, 7, 100, 0.5);
        assert_eq!(e, NumericsError::DeadlineExceeded { elapsed_ms: 12 });
        assert!(e.is_interruption());

        assert!(interrupt_to_error(Interrupt::Cancelled, 0, 0, 0.0).is_interruption());
    }

    #[test]
    fn checkpoint_is_silent_without_a_plan() {
        // No plan installed by this test binary's serial path; checkpoint
        // must be a no-op.
        if !mbm_faults::active() {
            assert!(checkpoint(sites::VI_EXTRAGRADIENT, 0, 10, 1.0).is_ok());
        }
    }
}
