//! Solver checkpointing for shrink-and-continue fault tolerance.
//!
//! A Krylov solve that dies mid-iteration (rank death under the SPMD
//! runtime) loses its Krylov basis, but the *iterate* `x` is cheap to
//! snapshot and is all that is needed to resume: restarting GMRES from
//! the checkpointed `x` on the repaired (shrunk) world is mathematically a
//! restart cycle, and convergence is still measured against the original
//! `‖r₀‖` anchor so "same tolerance as the fault-free run" is preserved.
//!
//! The same contract covers *grown* worlds: a solve interrupted because
//! ranks joined (or a straggler was evicted) resumes from the checkpointed
//! `x` exactly as after a shrink. The checkpoint is indexed by subdomain,
//! not by rank, so it is indifferent to how the repartitioned world maps
//! subdomains onto the new membership — only the iterate, the anchor, and
//! the history cross the epoch boundary.
//!
//! Checkpoint writes are purely local — no communication, no trace events —
//! so arming a sink does not perturb canonical traces of fault-free runs.

/// A resumable snapshot of an in-flight Krylov solve.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveCheckpoint {
    /// Cumulative iteration count at the time of the snapshot.
    pub iteration: usize,
    /// The iterate `x` at that iteration (GMRES: materialized from the
    /// in-progress cycle's least-squares solution, not the cycle start; in
    /// p1-GMRES over the columns final by that iteration).
    pub x: Vec<f64>,
    /// Relative residual at the snapshot (same scaling as `history`).
    pub residual: f64,
    /// The original solve's residual anchor `‖r₀‖`. A resumed solve
    /// converges against `tol · r0_norm`, not a fresh anchor computed from
    /// the checkpointed iterate. A left-preconditioned resume forms this
    /// anchor again at its `x0` under the preconditioner it runs with,
    /// which may have been rebuilt since the snapshot.
    pub r0_norm: f64,
    /// Relative residual history up to and including the snapshot
    /// (empty when the solve ran with `record_history: false`).
    pub history: Vec<f64>,
}

/// Where checkpoints go. Implementations must be cheap and local:
/// the solver calls [`CheckpointSink::save`] from inside the iteration
/// loop on every rank.
pub trait CheckpointSink {
    fn save(&self, checkpoint: SolveCheckpoint);
}

/// Checkpoint configuration handed to the fallible solver entry points:
/// every GMRES loop (`try_gmres`, `try_gmres_with`, `try_gmres_panel`,
/// `fused_pipelined_gmres_panel`).
pub struct CheckpointCfg<'a> {
    /// Snapshot every `interval` iterations (values < 1 behave as 1).
    pub interval: usize,
    /// Receives the snapshots.
    pub sink: &'a dyn CheckpointSink,
    /// Resume state from a previous (interrupted) solve. When set, the
    /// solver starts from `resume.x`, counts iterations from
    /// `resume.iteration`, converges against `resume.r0_norm`, and extends
    /// `resume.history`. Its `x0` argument is then only where a
    /// left-preconditioned GMRES forms its anchor again (see
    /// [`SolveCheckpoint::r0_norm`]).
    pub resume: Option<SolveCheckpoint>,
}

impl<'a> CheckpointCfg<'a> {
    pub fn new(interval: usize, sink: &'a dyn CheckpointSink) -> Self {
        CheckpointCfg {
            interval: interval.max(1),
            sink,
            resume: None,
        }
    }

    pub fn resuming(interval: usize, sink: &'a dyn CheckpointSink, from: SolveCheckpoint) -> Self {
        CheckpointCfg {
            interval: interval.max(1),
            sink,
            resume: Some(from),
        }
    }

    pub(crate) fn due(&self, iteration: usize) -> bool {
        iteration > 0 && iteration % self.interval.max(1) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    /// Test sink capturing every snapshot.
    pub(crate) struct VecSink(pub RefCell<Vec<SolveCheckpoint>>);

    impl CheckpointSink for VecSink {
        fn save(&self, checkpoint: SolveCheckpoint) {
            self.0.borrow_mut().push(checkpoint);
        }
    }

    #[test]
    fn due_respects_interval_and_skips_zero() {
        let sink = VecSink(RefCell::new(Vec::new()));
        let cfg = CheckpointCfg::new(3, &sink);
        assert!(!cfg.due(0));
        assert!(!cfg.due(1));
        assert!(cfg.due(3));
        assert!(!cfg.due(4));
        assert!(cfg.due(6));
    }

    #[test]
    fn interval_is_clamped_to_one() {
        let sink = VecSink(RefCell::new(Vec::new()));
        let cfg = CheckpointCfg::new(0, &sink);
        assert_eq!(cfg.interval, 1);
        assert!(cfg.due(1));
    }
}
