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
//! Every GMRES loop takes an optional space (`try_gmres_with`,
//! `try_gmres_panel`, `pipelined_gmres_panel`,
//! `fused_pipelined_gmres_panel`); the restart driver they
//! share corrects the start and banks the increment. The solve still
//! converges against `tol ·` the residual at the caller's guess, not at
//! the corrected one, so recycling can only shed iterations, never loosen
//! accuracy.

use crate::operator::{InnerProduct, Operator, SolveInterrupt};
use dd_linalg::vector;

/// A bounded bank of `(u, A·u)` direction pairs harvested from completed
/// solves, oldest evicted first.
#[derive(Clone)]
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

    /// Bank the newest direction of `other`, with eviction — what banking
    /// the increment `other` banked last does.
    #[cfg(test)]
    pub(crate) fn bank_newest_of(&mut self, other: &RecycleSpace) {
        if let (Some(u), Some(au)) = (other.u.last(), other.au.last()) {
            if self.u.len() == self.max_dim {
                self.u.remove(0);
                self.au.remove(0);
            }
            self.u.push(u.clone());
            self.au.push(au.clone());
        }
    }

    /// The banked `(u, A·u)` pairs, oldest first.
    #[cfg(test)]
    pub(crate) fn pairs(&self) -> impl Iterator<Item = (&Vec<f64>, &Vec<f64>)> {
        self.u.iter().zip(&self.au)
    }

    /// Drop every banked direction (call after the operator changes more
    /// than the admissibility policy tolerates — stale `A·u` images would
    /// otherwise poison the projection).
    pub fn clear(&mut self) {
        self.u.clear();
        self.au.clear();
    }

    /// Residual-minimizing correction of each guess `x[c]` over the banked
    /// space, given its true residual `r[c]`: `x[c] += U c_c` with
    /// `c_c = (AU)ᵀ(AU) \ (AU)ᵀ r[c]`. Returns `true` if the corrections
    /// were applied (they are, to every guess or to none: whether the Gram
    /// matrix is usable does not depend on the residual). The normal-equations
    /// system is tiny (`len() ≤ max_dim`) and solved redundantly on every
    /// rank from the globally reduced Gram entries, so all ranks stay in
    /// lockstep. One reduction carries the Gram matrix and every guess's
    /// projections, each entry what the one-guess correction reduces.
    pub(crate) fn try_improve_guesses<P>(
        &self,
        ip: &P,
        r: &[&[f64]],
        x: &mut [&mut [f64]],
    ) -> Result<bool, SolveInterrupt>
    where
        P: InnerProduct + ?Sized,
    {
        let k = self.u.len();
        if k == 0 || r.is_empty() {
            return Ok(false);
        }
        // The k×k Gram matrix of AU, then each guess's k projections
        // ⟨A·u_i, r⟩.
        let mut locals = vec![0.0; k * k + r.len() * k];
        let (gram, rhs) = locals.split_at_mut(k * k);
        for (aui, row) in self.au.iter().zip(gram.chunks_exact_mut(k)) {
            ip.local_dots(aui, &self.au, row);
        }
        // Not a Gram row: the weighted argument differs per entry, and a
        // partition-of-unity dot rounds `(D a)·r`, not `(D r)·a`.
        for (rc, proj) in r.iter().zip(rhs.chunks_exact_mut(k)) {
            for (aui, p) in self.au.iter().zip(proj) {
                *p = ip.local_dot(aui, rc);
            }
        }
        let mut reduced = vec![0.0; locals.len()];
        ip.try_reduce_into(&locals, &mut reduced)?;
        let (gram, rhs) = reduced.split_at(k * k);
        for (proj, xc) in rhs.chunks_exact(k).zip(x.iter_mut()) {
            match solve_spd_small(k, gram, proj) {
                Some(c) => vector::axpy_many(&c, &self.u, xc),
                // Numerically degenerate bank (e.g. duplicate right-hand
                // sides): skip the correction rather than inject noise.
                None => return Ok(false),
            }
        }
        Ok(true)
    }

    /// Bank the increments `x[c] − x0[c]` of completed solves as new
    /// directions, in column order (an increment that is numerically zero
    /// is skipped). `x0[c]` is the guess the Krylov cycles started from —
    /// after [`RecycleSpace::try_improve_guesses`]' correction — so a banked
    /// direction is what the cycles found, not what the bank already held.
    /// One reduction gives every increment's norm and one panel apply its
    /// image, each what banking that increment alone computes.
    pub(crate) fn try_harvest<O, P>(
        &mut self,
        op: &O,
        ip: &P,
        x0: &[&[f64]],
        x: &[&[f64]],
    ) -> Result<(), SolveInterrupt>
    where
        O: Operator + ?Sized,
        P: InnerProduct + ?Sized,
    {
        if self.max_dim == 0 || x.is_empty() {
            return Ok(());
        }
        let mut u: Vec<Vec<f64>> = x
            .iter()
            .zip(x0)
            .map(|(x, x0)| x.iter().zip(x0.iter()).map(|(a, b)| a - b).collect())
            .collect();
        let locals: Vec<f64> = u.iter().map(|uc| ip.local_dot(uc, uc)).collect();
        let mut sq = vec![0.0; u.len()];
        ip.try_reduce_into(&locals, &mut sq)?;
        // What `try_norm` makes of a reduced square: NaN stays NaN.
        let norms = sq
            .iter()
            .map(|&d| if d.is_nan() { d } else { d.max(0.0).sqrt() });
        let mut kept = Vec::with_capacity(u.len());
        for (mut uc, norm) in u.drain(..).zip(norms) {
            if norm.is_finite() && norm > 0.0 {
                for v in &mut uc {
                    *v /= norm;
                }
                kept.push(uc);
            }
        }
        if kept.is_empty() {
            return Ok(());
        }
        let panel = kept.concat();
        let mut images = vec![0.0; panel.len()];
        op.try_apply_panel(kept.len(), &panel, &mut images)?;
        let n = panel.len() / kept.len();
        for (uc, au) in kept.into_iter().zip(images.chunks_exact(n.max(1))) {
            if self.u.len() == self.max_dim {
                self.u.remove(0);
                self.au.remove(0);
            }
            self.u.push(uc);
            self.au.push(au.to_vec());
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gmres::tests::{laplacian_2d, LOOPS};
    use crate::gmres::{try_gmres, GmresOpts};
    use crate::operator::{IdentityPrecond, SeqDot};

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

    /// A space that banks nothing leaves every loop bit for bit as it is
    /// without one — what keeps `dd-serve`'s batches transparent.
    #[test]
    fn a_zero_capacity_space_leaves_every_loop_bitwise_unchanged() {
        let a = laplacian_2d(5, 8);
        for (name, solve, side) in LOOPS {
            let opts = GmresOpts {
                tol: 1e-8,
                side,
                ..opts()
            };
            let mut off = RecycleSpace::new(0);
            for k in 0..3 {
                let b = rhs(40, k + 1);
                let plain = solve(&a, &b, &opts, None, None).unwrap();
                let spaced = solve(&a, &b, &opts, None, Some(&mut off)).unwrap();
                assert_eq!(plain.iterations, spaced.iterations, "{name}");
                assert_eq!(plain.x, spaced.x, "{name}");
                assert_eq!(plain.history, spaced.history, "{name}");
            }
            assert!(off.is_empty());
        }
    }

    /// The same right-hand side again: after the first solve the space
    /// holds the solution direction, so under every loop the repeats start
    /// (numerically) converged, and at tolerance 1e-12 the answers still
    /// match a solve without recycling to 1e-9.
    #[test]
    fn recycling_shortcuts_a_repeated_rhs_under_every_loop() {
        let a = laplacian_2d(10, 10);
        let b = rhs(a.rows(), 7);
        for (name, solve, side) in LOOPS {
            let opts = GmresOpts {
                restart: 20,
                side,
                ..opts()
            };
            let solo = solve(&a, &b, &opts, None, None).unwrap();
            let mut space = RecycleSpace::new(4);
            let res: Vec<_> = (0..4)
                .map(|_| solve(&a, &b, &opts, None, Some(&mut space)).unwrap())
                .collect();
            assert!(res.iter().all(|r| r.converged), "{name}");
            assert_eq!(res[0].x, solo.x, "{name}: an empty space changes nothing");
            for r in &res[1..] {
                assert!(
                    r.iterations < res[0].iterations,
                    "{name}: recycling must shortcut a repeated RHS: {} vs {}",
                    r.iterations,
                    res[0].iterations
                );
                let diff = vector::dist2(&r.x, &solo.x);
                assert!(diff < 1e-9, "{name}: recycled solution drifted: {diff}");
            }
        }
    }

    #[test]
    fn harvest_evicts_oldest_and_clear_empties() {
        let a = laplacian_2d(4, 5);
        let x0 = vec![0.0; 20];
        let p = IdentityPrecond;
        let mut space = RecycleSpace::new(2);
        for k in 0..3 {
            let b = rhs(20, 100 + k);
            let r = try_gmres(&a, &p, &SeqDot, &b, &x0, &opts(), None).unwrap();
            space.try_harvest(&a, &SeqDot, &[&x0], &[&r.x]).unwrap();
        }
        assert_eq!(space.len(), 2, "bank must stay bounded");
        space.clear();
        assert!(space.is_empty());
    }

    #[test]
    fn zero_increment_and_zero_capacity_are_noops() {
        let a = laplacian_2d(2, 5);
        let x = vec![1.0; 10];
        let mut space = RecycleSpace::new(3);
        space.try_harvest(&a, &SeqDot, &[&x], &[&x]).unwrap();
        assert!(space.is_empty(), "zero increment must not be banked");
        let mut off = RecycleSpace::new(0);
        let y = vec![2.0; 10];
        off.try_harvest(&a, &SeqDot, &[&x], &[&y]).unwrap();
        assert!(off.is_empty());
        let mut guess = vec![0.0; 10];
        assert!(!off
            .try_improve_guesses(&SeqDot, &[&y], &mut [&mut guess])
            .unwrap());
    }

    #[test]
    fn degenerate_gram_is_skipped_not_fatal() {
        // Two identical directions make the Gram matrix singular.
        let a = laplacian_2d(2, 5);
        let b = rhs(10, 3);
        let x0 = vec![0.0; 10];
        let p = IdentityPrecond;
        let r = try_gmres(&a, &p, &SeqDot, &b, &x0, &opts(), None).unwrap();
        let mut space = RecycleSpace::new(4);
        space.try_harvest(&a, &SeqDot, &[&x0], &[&r.x]).unwrap();
        space.try_harvest(&a, &SeqDot, &[&x0], &[&r.x]).unwrap();
        let mut guess = vec![0.0; 10];
        // Must not panic; either applies a correction from the
        // well-conditioned subset or skips. The residual at the zero
        // guess is b.
        let _ = space
            .try_improve_guesses(&SeqDot, &[&b], &mut [&mut guess])
            .unwrap();
    }
}
