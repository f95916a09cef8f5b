//! Krylov-subspace recycling across a stream of related solves.
//!
//! A resident solve server (`dd-serve`) answers many right-hand sides with
//! the same operator (or a boundedly perturbed one). Each completed solve
//! leaves behind a useful by-product: the solution increment `x − x₀` is a
//! direction the operator has already been applied to. [`RecycleSpace`]
//! banks a small window of such directions together with their images
//! `A·u`, and projects the next solve's initial guess onto the banked
//! space by a residual-minimizing (Petrov–Galerkin) correction
//!
//! ```text
//! x₀ ← x₀ + U c,   c = argmin ‖b − A(x₀ + U c)‖ = (AU)ᵀ(AU) \ (AU)ᵀ r₀
//! ```
//!
//! so GMRES starts from the best combination of previously explored
//! directions instead of from scratch. This never hurts the *answer* (the
//! solve still converges to the same tolerance against the same system)
//! and typically removes the iterations that would re-discover the shared
//! low-frequency content of related right-hand sides.
//!
//! Everything here is rank-local data plus [`InnerProduct`] reductions, so
//! in an SPMD run every rank derives the identical projection
//! deterministically — the small normal-equations solve happens redundantly
//! on each rank from globally reduced scalars.
//!
//! [`try_gmres_multi`] is the batch driver built on top: solve a slice of
//! right-hand sides sequentially, threading the recycle space through so
//! later members of the batch benefit from earlier ones. With recycling
//! disabled (`None`) the batch is bit-identical to solving each right-hand
//! side alone — the batcher invariants of `dd-serve` rely on that.

use crate::checkpoint::CheckpointCfg;
use crate::gmres::{try_gmres, GmresOpts, SolveResult};
use crate::operator::{InnerProduct, Operator, Preconditioner, SolveInterrupt};
use dd_linalg::vector;

/// A bounded bank of `(u, A·u)` direction pairs harvested from completed
/// solves, oldest evicted first.
pub struct RecycleSpace {
    max_dim: usize,
    u: Vec<Vec<f64>>,
    au: Vec<Vec<f64>>,
}

impl RecycleSpace {
    /// An empty space keeping at most `max_dim` directions (`0` disables
    /// recycling — every call becomes a no-op).
    pub fn new(max_dim: usize) -> Self {
        RecycleSpace {
            max_dim,
            u: Vec::new(),
            au: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.u.len()
    }

    pub fn is_empty(&self) -> bool {
        self.u.is_empty()
    }

    /// Drop every banked direction (call after the operator changes more
    /// than the admissibility policy tolerates — stale `A·u` images would
    /// otherwise poison the projection).
    pub fn clear(&mut self) {
        self.u.clear();
        self.au.clear();
    }

    /// Residual-minimizing correction of `x0` over the banked space:
    /// `x0 += U c` with `c = (AU)ᵀ(AU) \ (AU)ᵀ (b − A x0)`. Returns `true`
    /// if a correction was applied. The normal-equations system is tiny
    /// (`len() ≤ max_dim`) and solved redundantly on every rank from the
    /// globally reduced Gram entries, so all ranks stay in lockstep.
    pub fn try_improve_guess<O, P>(
        &self,
        op: &O,
        ip: &P,
        b: &[f64],
        x0: &mut [f64],
    ) -> Result<bool, SolveInterrupt>
    where
        O: Operator + ?Sized,
        P: InnerProduct + ?Sized,
    {
        let k = self.u.len();
        if k == 0 {
            return Ok(false);
        }
        let mut r = vec![0.0; b.len()];
        op.try_apply(x0, &mut r)?;
        for (ri, (&bi, _)) in r.iter_mut().zip(b.iter().zip(x0.iter())) {
            *ri = bi - *ri;
        }
        // One batched reduction: the k×k Gram matrix of AU plus the k
        // projections ⟨A·u_i, r⟩.
        let mut locals = vec![0.0; k * k + k];
        let (gram, rhs) = locals.split_at_mut(k * k);
        for (aui, row) in self.au.iter().zip(gram.chunks_exact_mut(k)) {
            ip.local_dots(aui, &self.au, row);
        }
        // Not a Gram row: the weighted argument differs per entry, and a
        // partition-of-unity dot rounds `(D a)·r`, not `(D r)·a`.
        for (aui, p) in self.au.iter().zip(rhs) {
            *p = ip.local_dot(aui, &r);
        }
        let mut reduced = vec![0.0; locals.len()];
        ip.try_reduce_into(&locals, &mut reduced)?;
        let (gram, rhs) = reduced.split_at(k * k);
        let c = match solve_spd_small(k, gram, rhs) {
            Some(c) => c,
            // Numerically degenerate bank (e.g. duplicate right-hand
            // sides): skip the correction rather than inject noise.
            None => return Ok(false),
        };
        vector::axpy_many(&c, &self.u, x0);
        Ok(true)
    }

    /// Bank the increment `x − x0_before` of a completed solve as a new
    /// direction (skipped when the increment is numerically zero). `x0`
    /// must be the guess the solve *started* from — i.e. captured before
    /// [`RecycleSpace::try_improve_guess`]'s correction is overwritten by
    /// the solve.
    pub fn try_harvest<O, P>(
        &mut self,
        op: &O,
        ip: &P,
        x0: &[f64],
        x: &[f64],
    ) -> Result<(), SolveInterrupt>
    where
        O: Operator + ?Sized,
        P: InnerProduct + ?Sized,
    {
        if self.max_dim == 0 {
            return Ok(());
        }
        let mut u: Vec<f64> = x.iter().zip(x0).map(|(a, b)| a - b).collect();
        let norm = ip.try_norm(&u)?;
        if !(norm.is_finite() && norm > 0.0) {
            return Ok(());
        }
        for v in &mut u {
            *v /= norm;
        }
        let mut au = vec![0.0; u.len()];
        op.try_apply(&u, &mut au)?;
        if self.u.len() == self.max_dim {
            self.u.remove(0);
            self.au.remove(0);
        }
        self.u.push(u);
        self.au.push(au);
        Ok(())
    }
}

/// Solve the k×k SPD system `G c = rhs` (row-major `gram`) by unpivoted
/// Cholesky; `None` when `G` is not numerically positive definite.
fn solve_spd_small(k: usize, gram: &[f64], rhs: &[f64]) -> Option<Vec<f64>> {
    let mut l = gram.to_vec();
    // Scale guard: diagonal entries must dominate representable noise.
    let dmax = (0..k).map(|i| gram[i * k + i]).fold(0.0f64, f64::max);
    if !(dmax.is_finite() && dmax > 0.0) {
        return None;
    }
    for j in 0..k {
        let mut d = l[j * k + j];
        for p in 0..j {
            d -= l[j * k + p] * l[j * k + p];
        }
        if !(d.is_finite() && d > dmax * 1e-14) {
            return None;
        }
        let d = d.sqrt();
        l[j * k + j] = d;
        for i in (j + 1)..k {
            let mut v = l[i * k + j];
            for p in 0..j {
                v -= l[i * k + p] * l[j * k + p];
            }
            l[i * k + j] = v / d;
        }
    }
    // Forward then backward substitution with Lᵀ.
    let mut y = rhs.to_vec();
    for i in 0..k {
        for p in 0..i {
            y[i] -= l[i * k + p] * y[p];
        }
        y[i] /= l[i * k + i];
    }
    for i in (0..k).rev() {
        for p in (i + 1)..k {
            y[i] -= l[p * k + i] * y[p];
        }
        y[i] /= l[i * k + i];
    }
    Some(y)
}

/// Solve a batch of right-hand sides against one operator/preconditioner,
/// sequentially and in order, optionally threading a [`RecycleSpace`]
/// through so each solve's harvested direction improves the next one's
/// initial guess.
///
/// Semantics the callers (the `dd-serve` batcher and its property tests)
/// rely on:
///
/// * responses come back in input order, one [`SolveResult`] per RHS;
/// * with `recycle = None` each solve is exactly the solve
///   [`try_gmres`] would perform alone — batching is then a pure
///   amortization of setup, with bit-identical iterates;
/// * recycled solves converge against the *caller's* residual anchor
///   `tol · ‖b − A x₀‖` (with the original `x₀`, not the improved
///   guess). GMRES itself anchors its relative criterion to whatever
///   guess it starts from, so without this rescaling an improved guess
///   would proportionally tighten the target and save nothing; with it,
///   recycling can only shed iterations, never loosen accuracy.
///
/// Per-solve checkpointing is deliberately not threaded through: a batch
/// member that dies is re-solved from scratch by the caller's recovery
/// loop (see `dd-serve`), which keeps the checkpoint-store contract
/// one-solve-at-a-time.
pub fn try_gmres_multi<O, M, P>(
    op: &O,
    precond: &M,
    ip: &P,
    rhs_batch: &[Vec<f64>],
    x0: &[f64],
    opts: &GmresOpts,
    mut recycle: Option<&mut RecycleSpace>,
) -> Result<Vec<SolveResult>, SolveInterrupt>
where
    O: Operator + ?Sized,
    M: Preconditioner + ?Sized,
    P: InnerProduct + ?Sized,
{
    let mut results = Vec::with_capacity(rhs_batch.len());
    for b in rhs_batch {
        let mut guess = x0.to_vec();
        let mut eff = opts.clone();
        if let Some(space) = recycle.as_deref_mut() {
            if !space.is_empty() {
                let anchor = residual_norm(op, ip, b, &guess)?;
                if space.try_improve_guess(op, ip, b, &mut guess)? {
                    let improved = residual_norm(op, ip, b, &guess)?;
                    // Keep the absolute target tol·anchor: GMRES will aim
                    // for eff.tol·improved = opts.tol·anchor. The
                    // projection minimizes the residual, so improved ≤
                    // anchor up to roundoff; the max() guards roundoff.
                    if improved > 0.0 && anchor.is_finite() && anchor > 0.0 {
                        eff.tol = (opts.tol * anchor / improved).max(opts.tol);
                    }
                }
            }
        }
        let ckpt: Option<&CheckpointCfg<'_>> = None;
        let result = try_gmres(op, precond, ip, b, &guess, &eff, ckpt)?;
        if let Some(space) = recycle.as_deref_mut() {
            space.try_harvest(op, ip, &guess, &result.x)?;
        }
        results.push(result);
    }
    Ok(results)
}

/// `‖b − A x‖` under the distributed inner product.
fn residual_norm<O, P>(op: &O, ip: &P, b: &[f64], x: &[f64]) -> Result<f64, SolveInterrupt>
where
    O: Operator + ?Sized,
    P: InnerProduct + ?Sized,
{
    let mut r = vec![0.0; b.len()];
    op.try_apply(x, &mut r)?;
    for (ri, &bi) in r.iter_mut().zip(b) {
        *ri = bi - *ri;
    }
    ip.try_norm(&r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::SeqDot;
    use dd_linalg::CooBuilder;

    /// 1D Laplacian with Dirichlet ends, n interior points.
    fn laplacian(n: usize) -> dd_linalg::CsrMatrix {
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            b.push(i, i, 2.0);
            if i + 1 < n {
                b.push(i, i + 1, -1.0);
                b.push(i + 1, i, -1.0);
            }
        }
        b.to_csr()
    }

    fn rhs(n: usize, seed: u64) -> Vec<f64> {
        // Cheap deterministic pseudo-random RHS.
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15).max(1);
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s % 1000) as f64 / 500.0 - 1.0
            })
            .collect()
    }

    fn opts() -> GmresOpts {
        GmresOpts {
            tol: 1e-12,
            max_iters: 500,
            ..Default::default()
        }
    }

    #[test]
    fn multi_without_recycling_matches_solo_solves_exactly() {
        let a = laplacian(40);
        let batch: Vec<Vec<f64>> = (0..4).map(|k| rhs(40, k + 1)).collect();
        let x0 = vec![0.0; 40];
        let p = crate::operator::IdentityPrecond;
        let multi = try_gmres_multi(&a, &p, &SeqDot, &batch, &x0, &opts(), None).unwrap();
        for (b, m) in batch.iter().zip(&multi) {
            let solo = try_gmres(&a, &p, &SeqDot, b, &x0, &opts(), None).unwrap();
            assert_eq!(m.iterations, solo.iterations);
            assert_eq!(m.x, solo.x, "batched solve must be bit-identical");
        }
    }

    #[test]
    fn recycling_converges_and_never_needs_more_iterations_on_repeats() {
        let a = laplacian(60);
        let b = rhs(60, 7);
        // The same RHS four times: after the first solve the recycle space
        // contains the solution direction, so the remaining solves start
        // (numerically) converged.
        let batch = vec![b.clone(), b.clone(), b.clone(), b];
        let x0 = vec![0.0; 60];
        let p = crate::operator::IdentityPrecond;
        let mut space = RecycleSpace::new(4);
        let res = try_gmres_multi(&a, &p, &SeqDot, &batch, &x0, &opts(), Some(&mut space)).unwrap();
        assert!(res.iter().all(|r| r.converged));
        assert!(
            res[1].iterations < res[0].iterations,
            "recycling must shortcut a repeated RHS: {} vs {}",
            res[1].iterations,
            res[0].iterations
        );
        // Solutions still match the solo solve to tight accuracy.
        let solo = try_gmres(&a, &p, &SeqDot, &batch[1], &x0, &opts(), None).unwrap();
        let diff: f64 = res[1]
            .x
            .iter()
            .zip(&solo.x)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(diff < 1e-9, "recycled solution drifted: {diff}");
    }

    #[test]
    fn harvest_evicts_oldest_and_clear_empties() {
        let a = laplacian(20);
        let x0 = vec![0.0; 20];
        let p = crate::operator::IdentityPrecond;
        let mut space = RecycleSpace::new(2);
        for k in 0..3 {
            let b = rhs(20, 100 + k);
            let r = try_gmres(&a, &p, &SeqDot, &b, &x0, &opts(), None).unwrap();
            space.try_harvest(&a, &SeqDot, &x0, &r.x).unwrap();
        }
        assert_eq!(space.len(), 2, "bank must stay bounded");
        space.clear();
        assert!(space.is_empty());
    }

    #[test]
    fn zero_increment_and_zero_capacity_are_noops() {
        let a = laplacian(10);
        let x = vec![1.0; 10];
        let mut space = RecycleSpace::new(3);
        space.try_harvest(&a, &SeqDot, &x, &x).unwrap();
        assert!(space.is_empty(), "zero increment must not be banked");
        let mut off = RecycleSpace::new(0);
        let y = vec![2.0; 10];
        off.try_harvest(&a, &SeqDot, &x, &y).unwrap();
        assert!(off.is_empty());
        let mut guess = vec![0.0; 10];
        assert!(!off.try_improve_guess(&a, &SeqDot, &y, &mut guess).unwrap());
    }

    #[test]
    fn degenerate_gram_is_skipped_not_fatal() {
        // Two identical directions make the Gram matrix singular.
        let a = laplacian(10);
        let b = rhs(10, 3);
        let x0 = vec![0.0; 10];
        let p = crate::operator::IdentityPrecond;
        let r = try_gmres(&a, &p, &SeqDot, &b, &x0, &opts(), None).unwrap();
        let mut space = RecycleSpace::new(4);
        space.try_harvest(&a, &SeqDot, &x0, &r.x).unwrap();
        space.try_harvest(&a, &SeqDot, &x0, &r.x).unwrap();
        let mut guess = vec![0.0; 10];
        // Must not panic; either applies a correction from the
        // well-conditioned subset or skips.
        let _ = space
            .try_improve_guess(&a, &SeqDot, &b, &mut guess)
            .unwrap();
    }
}
