//! Abstractions that let the Krylov solvers run unchanged in sequential
//! and SPMD (distributed, duplicated-unknown) settings.
//!
//! * [`Operator`] — action `y ← A x` on (local) vectors;
//! * [`Preconditioner`] — action `z ← M⁻¹ r` (and, for the
//!   right-preconditioned step, `A z` with it);
//! * [`InnerProduct`] — the global inner product. Sequentially this is the
//!   plain dot product; in `dd-core`'s SPMD driver it is the
//!   partition-of-unity weighted dot followed by an `MPI_Allreduce`,
//!   exposed in blocking and non-blocking (pipelining) forms.

use dd_linalg::{vector, CsrMatrix};
use std::fmt;

/// A solve stopped mid-iteration by a failure of the operator,
/// preconditioner, or inner product — in a distributed run, typically a
/// dead or revoked communicator underneath one of them.
///
/// This is *not* a numerical verdict: [`crate::SolveStatus`] classifies how
/// a solve ended mathematically, while an interrupt means the solve could
/// not continue at all and (with checkpointing armed) may be resumed on a
/// repaired system. The krylov crate stays runtime-agnostic, so the
/// underlying error travels as an opaque boxed source the caller can
/// downcast.
#[derive(Debug)]
pub struct SolveInterrupt {
    reason: String,
    source: Option<Box<dyn std::error::Error + Send + Sync + 'static>>,
}

impl SolveInterrupt {
    pub fn new(reason: impl Into<String>) -> Self {
        SolveInterrupt {
            reason: reason.into(),
            source: None,
        }
    }

    /// An interrupt carrying the failing layer's own error for the caller
    /// to downcast (e.g. a communication error from the SPMD runtime).
    pub fn with_source(
        reason: impl Into<String>,
        source: Box<dyn std::error::Error + Send + Sync + 'static>,
    ) -> Self {
        SolveInterrupt {
            reason: reason.into(),
            source: Some(source),
        }
    }

    pub fn reason(&self) -> &str {
        &self.reason
    }

    /// The boxed source error, if any (borrowed; see also
    /// [`std::error::Error::source`]).
    pub fn take_source(self) -> Option<Box<dyn std::error::Error + Send + Sync + 'static>> {
        self.source
    }

    /// The suspected-corruption classification a guarded solver attached,
    /// if any — `Some` means "roll back and replay", not "give up".
    pub fn sdc(&self) -> Option<&crate::sdc::SdcSuspected> {
        self.source.as_deref().and_then(|e| e.downcast_ref())
    }
}

impl fmt::Display for SolveInterrupt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "solve interrupted: {}", self.reason)
    }
}

impl std::error::Error for SolveInterrupt {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        self.source
            .as_deref()
            .map(|e| e as &(dyn std::error::Error + 'static))
    }
}

/// The linear operator of the system being solved.
pub trait Operator {
    /// Local dimension of vectors this operator acts on.
    fn dim(&self) -> usize;
    /// `y ← A x`, for an operator that cannot fail. Kept while the
    /// repository benchmark implements it; the solvers call
    /// [`Operator::try_apply_panel`].
    fn apply(&self, x: &[f64], y: &mut [f64]);

    /// `y ← A x` for a panel of `k` columns, stored one after another in
    /// `x` and `y`; `k = 1` is the single apply. The default is the column
    /// loop over [`Operator::apply`]; a distributed operator overrides it
    /// to carry every column in one neighbour exchange, each column equal
    /// to its one-column apply to the bit, and to report a failed exchange.
    fn try_apply_panel(&self, k: usize, x: &[f64], y: &mut [f64]) -> Result<(), SolveInterrupt> {
        let n = column_len(k, x.len());
        for c in 0..k {
            self.apply(&x[c * n..(c + 1) * n], &mut y[c * n..(c + 1) * n]);
        }
        Ok(())
    }
}

/// The length of each of the `k` columns of a panel of `len` values.
fn column_len(k: usize, len: usize) -> usize {
    assert!(
        k > 0 && len % k == 0,
        "a panel of {len} values does not hold {k} columns"
    );
    len / k
}

/// A preconditioner `M⁻¹`.
pub trait Preconditioner {
    /// `z ← M⁻¹ r`, for a preconditioner that cannot fail. Kept while the
    /// repository benchmark implements it; the solvers call
    /// [`Preconditioner::try_apply_panel`].
    fn apply(&self, r: &[f64], z: &mut [f64]);

    /// `z ← M⁻¹ r` for a panel of `k` columns, stored one after another;
    /// `k = 1` is the single apply. The default is the column loop over
    /// [`Preconditioner::apply`].
    fn try_apply_panel(&self, k: usize, r: &[f64], z: &mut [f64]) -> Result<(), SolveInterrupt> {
        let n = column_len(k, r.len());
        for c in 0..k {
            self.apply(&r[c * n..(c + 1) * n], &mut z[c * n..(c + 1) * n]);
        }
        Ok(())
    }

    /// `z ← M⁻¹ r` and `w ← A z` for the operator `op` of the system being
    /// solved, for a panel of `k` columns: the right-preconditioned Arnoldi
    /// step of GMRES, every column of it in one application. The default
    /// is, per column, those two applications in that order. A
    /// distributed preconditioner that can form `A z` from what it computes
    /// for `z` anyway overrides it to share each neighbour exchange and
    /// coarse solve among the columns, each column equal to its one-column
    /// step to the bit, and falls back to the default's order for an
    /// operator it does not recognise.
    fn try_apply_panel_with_op(
        &self,
        op: &dyn Operator,
        k: usize,
        r: &[f64],
        z: &mut [f64],
        w: &mut [f64],
    ) -> Result<(), SolveInterrupt> {
        let n = column_len(k, r.len());
        for c in 0..k {
            let cols = c * n..(c + 1) * n;
            self.try_apply_panel(1, &r[cols.clone()], &mut z[cols.clone()])?;
            op.try_apply_panel(1, &z[cols.clone()], &mut w[cols])?;
        }
        Ok(())
    }
}

/// The identity preconditioner (unpreconditioned Krylov method).
pub struct IdentityPrecond;

impl Preconditioner for IdentityPrecond {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
    }
}

/// Global inner products, split into a local contribution and a reduction
/// so distributed implementations can batch and overlap the reductions.
pub trait InnerProduct {
    /// Local contribution to `⟨x, y⟩` (the full dot product sequentially).
    fn local_dot(&self, x: &[f64], y: &[f64]) -> f64;

    /// One Gram row: `out[j] = local_dot(w, vs[j])`, bit for bit. The
    /// default is that loop; an implementation whose dot weights `w` (the
    /// partition of unity) overrides it to weight `w` once and read it once
    /// per panel of vectors ([`vector::dot_many`]).
    fn local_dots(&self, w: &[f64], vs: &[Vec<f64>], out: &mut [f64]) {
        assert_eq!(vs.len(), out.len(), "local_dots: one output per vector");
        for (o, v) in out.iter_mut().zip(vs) {
            *o = self.local_dot(w, v);
        }
    }

    /// Reduce a batch of local contributions to global values, `locals`
    /// into the caller-provided `out` of the same length (an
    /// `MPI_Allreduce` in SPMD; a copy sequentially, which keeps the Krylov
    /// steady-state inner loops allocation-free).
    fn try_reduce_into(&self, locals: &[f64], out: &mut [f64]) -> Result<(), SolveInterrupt>;

    /// Begin a non-blocking reduction; the returned closure completes it.
    /// Either half can fail. Default: reduce immediately (no overlap
    /// available).
    fn reduce_begin<'a>(&'a self, locals: Vec<f64>) -> Result<Reduction<'a>, SolveInterrupt> {
        let mut done = vec![0.0; locals.len()];
        self.try_reduce_into(&locals, &mut done)?;
        Ok(Box::new(move || Ok(done)))
    }

    /// Iteration-boundary hook: solvers call this once per Krylov
    /// iteration with the (0-based, cumulative across restarts) iteration
    /// index. Distributed implementations forward it to the telemetry
    /// layer; the default does nothing.
    fn on_iteration(&self, _k: usize) {}

    /// Global dot product. Routed through
    /// [`InnerProduct::try_reduce_into`] with stack buffers, so it is
    /// allocation-free whenever `try_reduce_into` is.
    fn try_dot(&self, x: &[f64], y: &[f64]) -> Result<f64, SolveInterrupt> {
        let mut out = [0.0];
        self.try_reduce_into(&[self.local_dot(x, y)], &mut out)?;
        Ok(out[0])
    }

    /// Global 2-norm. NaN propagates (`NaN.max(0.0)` would silently report
    /// a zero norm — i.e. fake convergence — for a poisoned vector).
    fn try_norm(&self, x: &[f64]) -> Result<f64, SolveInterrupt> {
        let d = self.try_dot(x, x)?;
        if d.is_nan() {
            return Ok(f64::NAN);
        }
        Ok(d.max(0.0).sqrt())
    }
}

/// A reduction in flight ([`InnerProduct::reduce_begin`]): call it to wait
/// for the reduced values.
pub type Reduction<'a> = Box<dyn FnOnce() -> Result<Vec<f64>, SolveInterrupt> + 'a>;

/// Sequential inner product: plain dot, identity reduction.
pub struct SeqDot;

impl InnerProduct for SeqDot {
    fn local_dot(&self, x: &[f64], y: &[f64]) -> f64 {
        vector::dot(x, y)
    }

    fn try_reduce_into(&self, locals: &[f64], out: &mut [f64]) -> Result<(), SolveInterrupt> {
        out.copy_from_slice(locals);
        Ok(())
    }
}

impl Operator for CsrMatrix {
    fn dim(&self) -> usize {
        self.rows()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.spmv(x, y);
    }
}

/// An operator defined by a closure (adapters in tests and benches).
pub struct FnOperator<F: Fn(&[f64], &mut [f64])> {
    dim: usize,
    f: F,
}

impl<F: Fn(&[f64], &mut [f64])> FnOperator<F> {
    pub fn new(dim: usize, f: F) -> Self {
        FnOperator { dim, f }
    }
}

impl<F: Fn(&[f64], &mut [f64])> Operator for FnOperator<F> {
    fn dim(&self) -> usize {
        self.dim
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        (self.f)(x, y)
    }
}

/// A preconditioner defined by a closure.
pub struct FnPrecond<F: Fn(&[f64], &mut [f64])> {
    f: F,
}

impl<F: Fn(&[f64], &mut [f64])> FnPrecond<F> {
    pub fn new(f: F) -> Self {
        FnPrecond { f }
    }
}

impl<F: Fn(&[f64], &mut [f64])> Preconditioner for FnPrecond<F> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        (self.f)(r, z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_linalg::CooBuilder;

    #[test]
    fn csr_operator_applies() {
        let mut b = CooBuilder::new(2, 2);
        b.push(0, 0, 2.0);
        b.push(1, 1, 3.0);
        let a = b.to_csr();
        let mut y = [0.0; 2];
        Operator::apply(&a, &[1.0, 1.0], &mut y);
        assert_eq!(y, [2.0, 3.0]);
        assert_eq!(Operator::dim(&a), 2);
    }

    #[test]
    fn seq_dot_matches_vector_dot() {
        let ip = SeqDot;
        let x = [1.0, 2.0];
        let y = [3.0, 4.0];
        assert_eq!(ip.try_dot(&x, &y).unwrap(), 11.0);
        assert_eq!(ip.try_norm(&[3.0, 4.0]).unwrap(), 5.0);
    }

    #[test]
    fn reduce_begin_default_completes() {
        let ip = SeqDot;
        let pending = ip.reduce_begin(vec![1.0, 2.0]).unwrap();
        assert_eq!(pending().unwrap(), vec![1.0, 2.0]);
    }

    #[test]
    fn identity_precond_copies() {
        let p = IdentityPrecond;
        let mut z = [0.0; 3];
        p.apply(&[1.0, 2.0, 3.0], &mut z);
        assert_eq!(z, [1.0, 2.0, 3.0]);
    }
}
