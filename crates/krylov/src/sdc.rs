//! Silent-data-corruption (SDC) guard for the Krylov solvers.
//!
//! A bit flip inside the operator or preconditioner bakes into the Krylov
//! basis: the *recurred* residual (the Givens-rotated least-squares value of
//! GMRES) keeps shrinking monotonically while the *true* residual of the
//! iterate goes nowhere. Left unchecked, the solver reports convergence on
//! a wrong answer — the defining failure mode of silent data corruption.
//!
//! An armed [`SdcGuard`] closes that hole twice over:
//!
//! 1. **Verified convergence.** A recurred residual meeting the tolerance
//!    only *claims* convergence; the solver recomputes the residual from the
//!    iterate (`b − A x`) at the next cycle boundary and accepts only if the
//!    recomputed value confirms it. A clean solve takes the same iterates —
//!    bitwise — and pays one extra operator application.
//! 2. **Drift classification.** At every cycle boundary the recomputed
//!    residual is compared against the recurred estimate. Disagreement past
//!    [`SdcGuard::drift`] (or a non-finite recomputation) is classified as
//!    suspected corruption and surfaces as a [`SolveInterrupt`] whose source
//!    downcasts to [`SdcSuspected`].
//!
//! Detection is classification, not repair: a fault-tolerant caller
//! (dd-core's SPMD driver) catches the interrupt, rolls back to the newest
//! consistent [`crate::SolveCheckpoint`], and replays. Mild drift below the
//! threshold — honest loss of orthogonality, attainable-accuracy floors —
//! is *not* flagged; the restart cycle self-corrects it, as it always has.

use crate::operator::SolveInterrupt;
use std::fmt;

/// Residual-sanity guard armed via `GmresOpts::guard`.
///
/// `None` (the default) keeps the solvers bitwise identical to their
/// unguarded behavior.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SdcGuard {
    /// Ratio of recomputed to recurred relative residual beyond which the
    /// disagreement is classified as suspected corruption. The default
    /// (100) sits two orders of magnitude past anything honest rounding or
    /// lost orthogonality produces at a cycle boundary.
    pub drift: f64,
}

impl Default for SdcGuard {
    fn default() -> Self {
        SdcGuard { drift: 100.0 }
    }
}

/// Absolute floor on the drift (in relative-residual units): disagreement
/// within `1e3 · ε` of the recurred value is attainable-accuracy noise, not
/// corruption, no matter the ratio.
const DRIFT_FLOOR: f64 = 1e3 * f64::EPSILON;

impl SdcGuard {
    /// Whether a recomputed relative residual disagrees with the recurred
    /// estimate badly enough to suspect corruption. Non-finite
    /// recomputations always qualify: a poisoned iterate is exactly what
    /// rollback-and-replay repairs, where a breakdown verdict would give up.
    pub fn drifted(&self, recurred: f64, recomputed: f64) -> bool {
        !recomputed.is_finite()
            || (recomputed > self.drift * recurred && recomputed - recurred > DRIFT_FLOOR)
    }

    /// Build the typed interrupt a guarded solver raises on detection.
    pub(crate) fn interrupt(
        &self,
        iteration: usize,
        recurred: f64,
        recomputed: f64,
    ) -> SolveInterrupt {
        let suspect = SdcSuspected {
            iteration,
            recurred,
            recomputed,
        };
        SolveInterrupt::with_source(
            format!("suspected silent data corruption: {suspect}"),
            Box::new(suspect),
        )
    }
}

/// The classification a guarded solver attaches to its [`SolveInterrupt`]
/// when the recurred and recomputed residuals disagree: recover it with
/// [`SolveInterrupt::sdc`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SdcSuspected {
    /// Cumulative iteration count at detection.
    pub iteration: usize,
    /// Relative residual the recurrence claimed.
    pub recurred: f64,
    /// Relative residual recomputed from the iterate (`‖b − A x‖ / ‖r₀‖`),
    /// possibly non-finite.
    pub recomputed: f64,
}

impl fmt::Display for SdcSuspected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "recurred residual {:.3e} vs recomputed {:.3e} at iteration {}",
            self.recurred, self.recomputed, self.iteration
        )
    }
}

impl std::error::Error for SdcSuspected {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_requires_both_ratio_and_floor() {
        let g = SdcGuard::default();
        // Honest cycle boundary: tiny recurred, attainable-accuracy recomputed.
        assert!(!g.drifted(1e-16, 5e-14));
        // Agreement.
        assert!(!g.drifted(1e-7, 1.5e-7));
        // Corruption: recurred converged, truth went nowhere.
        assert!(g.drifted(1e-8, 1e-1));
        // Poisoned iterate.
        assert!(g.drifted(1e-8, f64::NAN));
        assert!(g.drifted(0.5, f64::INFINITY));
    }

    #[test]
    fn interrupt_carries_a_downcastable_marker() {
        let g = SdcGuard::default();
        let int = g.interrupt(42, 1e-9, 0.3);
        let sdc = int.sdc().expect("marker must downcast");
        assert_eq!(sdc.iteration, 42);
        assert!(int.reason().contains("silent data corruption"));
    }
}
