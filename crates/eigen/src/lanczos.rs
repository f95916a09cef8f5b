//! Shift-invert Lanczos for the generalized symmetric eigenproblem
//! `A x = λ B x` with `A` symmetric positive semi-definite and `B`
//! symmetric positive semi-definite (possibly singular).
//!
//! This is the workspace's replacement for ARPACK's shift-invert mode used
//! by the paper to extract the deflation vectors of eq. (9): the smallest
//! eigenvalues of the pencil (Neumann matrix vs. its partition-of-unity
//! weighted restriction to the overlap).
//!
//! ## Algorithm
//!
//! With a shift `σ < 0` strictly below the spectrum, `K = A − σ B` is
//! symmetric positive definite whenever `ker A ∩ ker B = {0}` (true for
//! GenEO pencils: the kernel of the Neumann matrix consists of global
//! rigid-body/constant modes which do not vanish on the overlap). We factor
//! `K` once — under the caller's elimination order and LDLᵀ backend, so a
//! caller that has already analysed a matrix of this pattern does not do it
//! again — and run the Lanczos recurrence on the operator `op = K⁻¹ B` in
//! the `B`-(semi-)inner product, with full reorthogonalization. Eigenvalues
//! of the pencil are recovered from Ritz values `θ` of `op` as
//! `λ = σ + 1/θ`; the largest `θ` correspond to the smallest `λ` — exactly
//! the ones GenEO wants.
//!
//! ## Stopping
//!
//! A run grows its basis until the pairs it is after have converged, not
//! for a fixed number of steps. Every `CHECK_EVERY` steps the residual
//! estimates `|β_m s_{m,i}|` of those Ritz pairs are compared with
//! `tol · θ_i`; when all pass, the Ritz vectors are formed and purified and
//! their true pencil residuals checked. If that confirms them the run is
//! over; if not, its basis is extended. Only confirmed pairs are returned:
//! a run that reaches [`LanczosOpts::max_subspace`] with a wanted pair
//! unconfirmed ends the solve with [`EigenError::NotConverged`].
//!
//! ## Multiple eigenvalues
//!
//! A single-vector Krylov space holds one vector per eigenspace; further
//! copies of a multiple eigenvalue — the six rigid-body modes of a floating
//! 3D elasticity subdomain, the symmetric pairs of a square one — enter
//! only through rounding, tens of steps later. A run that stops at
//! convergence does not wait for them (measured: converged at 35 steps with
//! a kernel mode missing). So the pairs a run confirms are *locked* and a
//! further run starts from a fresh random vector kept `B`-orthogonal to
//! them. Every run goes after its leading pairs better than the `nev`-th
//! best locked so far (the *cut*) or, seeing none, after its best pair
//! alone. Pairs confirmed above the cut call for another run, which again
//! holds one copy of each; a best pair confirmed at or below the cut shows
//! that nothing better is left and ends the solve — at the price of
//! resolving one pair more than was asked for.

use crate::tridiag::{tridiag_eig, tridiag_eig_last};
use dd_linalg::{vector, CsrMatrix, DMat};
use dd_solver::{LdltBackend, LdltError, LocalLdlt, PivotPolicy};

/// Steps between two convergence tests.
const CHECK_EVERY: usize = 4;

/// Options for [`smallest_generalized`].
#[derive(Clone, Debug)]
pub struct LanczosOpts {
    /// Spectral shift σ. Must be strictly below the smallest eigenvalue;
    /// for PSD pencils any σ < 0 works. `None` picks
    /// `−0.01 · ‖A‖∞ / ‖B‖∞` automatically.
    pub shift: Option<f64>,
    /// Cap on the subspace dimension of one Lanczos run (`ncv` in ARPACK
    /// terms); a run stops earlier, as soon as the pairs it is after have
    /// converged. Clamped to the problem size.
    pub max_subspace: usize,
    /// Relative residual tolerance on `‖A x − λ B x‖ / (‖A‖ ‖x‖)`.
    pub tol: f64,
    /// Deterministic seed for the starting vector.
    pub seed: u64,
}

impl Default for LanczosOpts {
    fn default() -> Self {
        LanczosOpts {
            shift: None,
            max_subspace: 80,
            tol: 1e-8,
            seed: 0x5eed_1234,
        }
    }
}

/// Result of a generalized eigensolve: `values[k]` ascending and finite,
/// `vectors` holding the matching `B`-orthonormal eigenvectors as columns,
/// every pair within the residual tolerance.
#[derive(Clone, Debug)]
pub struct GeneralizedEig {
    pub values: Vec<f64>,
    pub vectors: DMat,
    /// Lanczos steps actually performed, over all runs.
    pub steps: usize,
}

/// Errors from the eigensolver.
#[derive(Debug)]
pub enum EigenError {
    /// The shifted matrix `A − σB` could not be factored (σ inside the
    /// spectrum, or pencil singular: `ker A ∩ ker B ≠ {0}`).
    ShiftFactorization(LdltError),
    /// Dimension/shape mismatch between `A` and `B`.
    ShapeMismatch,
    /// The shift does not lie strictly below a PSD spectrum (`σ ≥ 0`, or
    /// not a number).
    BadShift { shift: f64 },
    /// A NaN or infinite entry in `A` or `B`, or one produced by the
    /// recurrence.
    NonFinite,
    /// A run ended, at the subspace cap, with only `converged` of the
    /// `requested` pairs confirmed inside the residual tolerance.
    NotConverged { requested: usize, converged: usize },
}

impl std::fmt::Display for EigenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EigenError::ShiftFactorization(e) => write!(f, "shifted factorization failed: {e}"),
            EigenError::ShapeMismatch => write!(f, "A and B must be square with equal order"),
            EigenError::BadShift { shift } => {
                write!(f, "shift {shift:e} is not strictly below a PSD spectrum")
            }
            EigenError::NonFinite => write!(f, "non-finite value in the pencil or the recurrence"),
            EigenError::NotConverged {
                requested,
                converged,
            } => write!(
                f,
                "{converged} of {requested} eigenpairs converged within the subspace cap"
            ),
        }
    }
}

impl std::error::Error for EigenError {}

/// Tiny deterministic xorshift generator for the starting vector (keeps the
/// solver dependency-free and reproducible).
fn xorshift_fill(seed: u64, out: &mut [f64]) {
    let mut s = seed.max(1);
    for v in out {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        // Map to (−0.5, 0.5).
        *v = (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
    }
}

/// Compute the `nev` smallest eigenpairs of `A x = λ B x`.
///
/// `order` is a fill-reducing elimination order for the pattern of `A`
/// (see `dd_solver::ordering::fill_reducing`) and `backend` the LDLᵀ
/// implementation; `K = A − σB` is factored under both.
///
/// See the module documentation for the assumptions on `A` and `B`.
/// Returned eigenvectors are `B`-orthonormal; vectors with negligible
/// `B`-norm (pure `ker B` directions, `λ = ∞`) cannot appear since the
/// recurrence stays in `range(K⁻¹B)`. Fewer than `nev` pairs come back only
/// when `range(K⁻¹B)` itself is smaller.
pub fn smallest_generalized(
    a: &CsrMatrix,
    b: &CsrMatrix,
    nev: usize,
    opts: &LanczosOpts,
    order: &[usize],
    backend: LdltBackend,
) -> Result<GeneralizedEig, EigenError> {
    if a.rows() != a.cols() || b.rows() != b.cols() || a.rows() != b.rows() {
        return Err(EigenError::ShapeMismatch);
    }
    let n = a.rows();
    let nev = nev.min(n);
    if nev == 0 {
        return Ok(GeneralizedEig {
            values: Vec::new(),
            vectors: DMat::zeros(n, 0),
            steps: 0,
        });
    }
    if !a.values().iter().chain(b.values()).all(|v| v.is_finite()) {
        return Err(EigenError::NonFinite);
    }
    let norm_a = a.norm_inf().max(f64::MIN_POSITIVE);
    let norm_b = b.norm_inf().max(f64::MIN_POSITIVE);
    let sigma = opts.shift.unwrap_or(-0.01 * norm_a / norm_b);
    if !(sigma < 0.0 && sigma.is_finite()) {
        return Err(EigenError::BadShift { shift: sigma });
    }
    // K = A − σB, SPD under the stated assumptions.
    let k_mat = a.add_scaled(-sigma, b);
    let pencil = ShiftInvert {
        a,
        b,
        k: LocalLdlt::factor_ordered(&k_mat, order, PivotPolicy::Reject, backend)
            .map_err(EigenError::ShiftFactorization)?,
        sigma,
        norm_a,
        tol: opts.tol,
    };

    let m_max = opts.max_subspace.clamp(nev + 2, n.max(nev + 2));
    // Confirmed pairs, best (largest θ, smallest λ) first, at most `nev`.
    let mut found: Vec<RitzPair> = Vec::with_capacity(2 * nev);
    let mut steps = 0;
    for restart in 0u64.. {
        // A locked pair within `tol` of a newcomer keeps its place.
        let cut = found
            .get(nev - 1)
            .map_or(f64::NEG_INFINITY, |f| f.theta * (1.0 + opts.tol));
        let seed = opts.seed.wrapping_add(restart);
        let Some(run) = pencil.run(&found, cut, nev, m_max, seed)? else {
            break; // the pairs found span range(K⁻¹B): no finite eigenvalue is left
        };
        steps += run.steps;
        found.extend(run.pairs);
        found.sort_by(|x, y| y.theta.total_cmp(&x.theta));
        found.truncate(nev);
        if run.open > 0 {
            return Err(EigenError::NotConverged {
                requested: nev,
                converged: found.len().min(nev - run.open),
            });
        }
        if run.complete {
            break;
        }
    }

    // Largest θ first is ascending in λ.
    let mut vectors = DMat::zeros(n, found.len());
    for (jcol, f) in found.iter().enumerate() {
        vectors.col_mut(jcol).copy_from_slice(&f.x);
    }
    Ok(GeneralizedEig {
        values: found.iter().map(|f| f.lambda).collect(),
        vectors,
        steps,
    })
}

/// A confirmed Ritz pair of `K⁻¹B`: `θ`, the pencil eigenvalue
/// `λ = σ + 1/θ`, the purified `B`-normalized vector and `B x`.
struct RitzPair {
    theta: f64,
    lambda: f64,
    x: Vec<f64>,
    bx: Vec<f64>,
}

/// The `(x, B x)` of each pair, as [`b_orthogonalize`] takes them.
fn spans(pairs: &[RitzPair]) -> impl Iterator<Item = (&Vec<f64>, &Vec<f64>)> + Clone {
    pairs.iter().map(|f| (&f.x, &f.bx))
}

/// What one Lanczos run established.
struct Run {
    /// Its leading Ritz pairs (largest `θ` first) as far as they passed the
    /// true residual test.
    pairs: Vec<RitzPair>,
    /// Leading Ritz values above the cut whose pairs did not pass it: the
    /// run ended, at the cap or on an invariant space, before they could.
    open: usize,
    /// The run saw nothing above the cut: its best pair, the only one it
    /// went after, lies at or below it, so the locked pairs are all there is.
    complete: bool,
    steps: usize,
}

/// The shifted and factored pencil: what every Lanczos run works on.
struct ShiftInvert<'a> {
    a: &'a CsrMatrix,
    b: &'a CsrMatrix,
    /// `A − σB`, factored.
    k: LocalLdlt,
    sigma: f64,
    norm_a: f64,
    tol: f64,
}

impl ShiftInvert<'_> {
    /// One Lanczos run on `K⁻¹B` from the random vector of `seed`, kept
    /// `B`-orthogonal to the `locked` pairs. The run is after its leading
    /// Ritz pairs with `θ > cut`, `nev` of them at most, or after its best
    /// pair when none is, and extends its basis — up to `m_max` vectors —
    /// until those are confirmed. `None` when the start vector has nothing
    /// outside the locked span.
    fn run(
        &self,
        locked: &[RitzPair],
        cut: f64,
        nev: usize,
        m_max: usize,
        seed: u64,
    ) -> Result<Option<Run>, EigenError> {
        let (b, k) = (self.b, &self.k);
        let n = b.rows();
        // Starting vector: w = K⁻¹ B r₀ purges components outside
        // range(K⁻¹B), the standard ARPACK mode-3 trick for semidefinite B.
        let mut t = vec![0.0; n];
        let mut w = vec![0.0; n];
        xorshift_fill(seed, &mut t);
        b.spmv(&t, &mut w);
        k.solve_in_place(&mut w);
        b.spmv(&w, &mut t);
        let unlocked = vector::dot(&w, &t).max(0.0).sqrt();
        b_orthogonalize(&mut w, spans(locked));
        b.spmv(&w, &mut t);
        let mut bnorm = vector::dot(&w, &t).max(0.0).sqrt();
        if !bnorm.is_finite() {
            return Err(EigenError::NonFinite);
        }
        if bnorm <= 1e-10 * unlocked || bnorm <= 1e-300 {
            return Ok(None);
        }
        // The Lanczos basis Q (B-orthonormal), and BQ = B·Q kept alongside
        // so that full reorthogonalization costs dots, not spmv's.
        let mut q: Vec<Vec<f64>> = Vec::new();
        let mut bq: Vec<Vec<f64>> = Vec::new();
        let mut alpha: Vec<f64> = Vec::new();
        let mut beta: Vec<f64> = Vec::new();
        let mut next_check = 2;
        loop {
            // `w` is the next basis vector, `bnorm` its B-norm, `t` = B w.
            vector::scal(1.0 / bnorm, &mut w);
            vector::scal(1.0 / bnorm, &mut t);
            q.push(w);
            bq.push(t.clone());
            // One Lanczos step: w = K⁻¹ (B q_j), orthogonalized against the
            // locked pairs and against Q.
            let m = q.len();
            w = bq[m - 1].clone();
            k.solve_in_place(&mut w);
            // α_j = ⟨w, q_j⟩_B = wᵀ (B q_j)
            let aj = vector::dot(&w, &bq[m - 1]);
            alpha.push(aj);
            b_orthogonalize(&mut w, spans(locked).chain(q.iter().zip(&bq)));
            b.spmv(&w, &mut t);
            bnorm = vector::dot(&w, &t).max(0.0).sqrt();
            if !(aj.is_finite() && bnorm.is_finite()) {
                return Err(EigenError::NonFinite);
            }
            // The run ends at the cap, or on a happy breakdown: the Krylov
            // space is invariant, its Ritz pairs are exact and nothing is
            // left to extend it with.
            let ended = bnorm <= 1e-12 || m == m_max;
            if ended || m >= next_check {
                let (theta, last) = tridiag_eig_last(&alpha, &beta);
                // Largest θ ↔ smallest λ: the leading pairs sit at the back.
                let leading = theta.iter().rev().take(nev);
                let above = leading.take_while(|&&th| th > cut).count();
                let want = above.max(1).min(m);
                let settled = want < m
                    && (m - want..m).all(|i| (bnorm * last[i]).abs() <= self.tol * theta[i].abs());
                if ended || settled {
                    let (theta, s) = tridiag_eig(&alpha, &beta);
                    let pairs: Vec<RitzPair> = (0..want)
                        .map_while(|p| self.ritz_pair(&q, &theta, &s, p))
                        .collect();
                    if ended || pairs.len() == want {
                        return Ok(Some(Run {
                            open: above.saturating_sub(pairs.len()),
                            pairs,
                            complete: above == 0,
                            steps: m,
                        }));
                    }
                }
                next_check = m + CHECK_EVERY;
            }
            beta.push(bnorm);
        }
    }

    /// Form the Ritz pair with the `p`-th largest `θ` from the basis `q`,
    /// purify and `B`-normalize its vector, and return it if its true pencil
    /// residual meets the tolerance.
    fn ritz_pair(&self, q: &[Vec<f64>], theta: &[f64], s: &DMat, p: usize) -> Option<RitzPair> {
        let (a, b) = (self.a, self.b);
        let n = a.rows();
        let col = theta.len() - 1 - p; // θ ascending → take from the back
        let theta = theta[col];
        if theta <= 1e-300 {
            return None; // λ = ∞: rounding debris of an exhausted Krylov space
        }
        let lambda = self.sigma + 1.0 / theta;
        let mut x = vec![0.0; n];
        for (i, qi) in q.iter().enumerate() {
            vector::axpy(s[(i, col)], qi, &mut x);
        }
        // Purification (ARPACK mode-3, semidefinite B): Ritz vectors live in
        // range(K⁻¹B) and lack their ker(B) components; a true eigenvector
        // is a fixed point of x = (λ−σ) K⁻¹ B x, so one application of
        // K⁻¹B restores the missing components; the B-normalization takes
        // care of the factor.
        let mut bx = vec![0.0; n];
        b.spmv(&x, &mut bx);
        x.copy_from_slice(&bx);
        self.k.solve_in_place(&mut x);
        b.spmv(&x, &mut bx);
        let bnorm = vector::dot(&x, &bx).max(0.0).sqrt();
        if bnorm <= 1e-150 {
            return None;
        }
        vector::scal(1.0 / bnorm, &mut x);
        vector::scal(1.0 / bnorm, &mut bx);
        // True pencil residual A x − λ B x.
        let mut res = vec![0.0; n];
        a.spmv(&x, &mut res);
        vector::axpy(-lambda, &bx, &mut res);
        let denom = self.norm_a * vector::norm2(&x).max(1e-300);
        (vector::norm2(&res) <= self.tol.max(1e-14) * denom * 10.0).then_some(RitzPair {
            theta,
            lambda,
            x,
            bx,
        })
    }
}

/// Two passes of `w ← w − Σ ⟨w, q_i⟩_B q_i` over the pairs `(q_i, B q_i)`
/// (full reorthogonalization; twice is enough).
fn b_orthogonalize<'a>(
    w: &mut [f64],
    basis: impl Iterator<Item = (&'a Vec<f64>, &'a Vec<f64>)> + Clone,
) {
    for _ in 0..2 {
        for (qi, bqi) in basis.clone() {
            let c = vector::dot(w, bqi);
            if c != 0.0 {
                vector::axpy(-c, qi, w);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_linalg::jacobi;
    use dd_linalg::CooBuilder;
    use dd_solver::{ordering, Ordering};

    /// [`smallest_generalized`] under `A`'s own minimum-degree order.
    fn solve(
        a: &CsrMatrix,
        b: &CsrMatrix,
        nev: usize,
        opts: &LanczosOpts,
    ) -> Result<GeneralizedEig, EigenError> {
        let order = ordering::fill_reducing(a, Ordering::MinDegree);
        smallest_generalized(a, b, nev, opts, &order, LdltBackend::Scalar)
    }

    /// Every returned finite pair satisfies `‖A x − λ B x‖ < rel · ‖A‖ ‖x‖`.
    fn assert_pencil_residuals(a: &CsrMatrix, b: &CsrMatrix, res: &GeneralizedEig, rel: f64) {
        let mut r = vec![0.0; a.rows()];
        let mut bx = vec![0.0; a.rows()];
        for (k, &lambda) in res.values.iter().enumerate().filter(|(_, l)| l.is_finite()) {
            let x = res.vectors.col(k);
            a.spmv(x, &mut r);
            b.spmv(x, &mut bx);
            vector::axpy(-lambda, &bx, &mut r);
            assert!(
                vector::norm2(&r) < rel * a.norm_inf() * vector::norm2(x).max(1.0),
                "pencil residual of pair {k}, λ = {lambda}"
            );
        }
    }

    fn laplacian_1d(n: usize) -> CsrMatrix {
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

    #[test]
    fn standard_problem_b_identity() {
        // Smallest eigenvalues of the 1D Laplacian: 2 − 2cos(kπ/(n+1)).
        let n = 40;
        let a = laplacian_1d(n);
        let b = CsrMatrix::identity(n);
        let res = solve(&a, &b, 4, &LanczosOpts::default()).unwrap();
        for k in 1..=4 {
            let exact = 2.0 - 2.0 * (k as f64 * std::f64::consts::PI / (n as f64 + 1.0)).cos();
            assert!(
                (res.values[k - 1] - exact).abs() < 1e-8,
                "λ_{k}: {} vs {exact}",
                res.values[k - 1]
            );
        }
        assert_eq!(res.values.len(), 4);
    }

    #[test]
    fn generalized_spd_b_matches_dense() {
        let n = 25;
        let a = laplacian_1d(n);
        // B: SPD diagonal-dominant mass-like matrix.
        let mut bb = CooBuilder::new(n, n);
        for i in 0..n {
            bb.push(i, i, 2.0 + (i % 3) as f64);
            if i + 1 < n {
                bb.push(i, i + 1, 0.3);
                bb.push(i + 1, i, 0.3);
            }
        }
        let b = bb.to_csr();
        let res = solve(&a, &b, 3, &LanczosOpts::default()).unwrap();
        let dref = jacobi::sym_eig_generalized(&a.to_dense(), &b.to_dense(), 1e-14).unwrap();
        for k in 0..3 {
            assert!(
                (res.values[k] - dref.eigenvalues[k]).abs() < 1e-7,
                "λ_{k}: {} vs {}",
                res.values[k],
                dref.eigenvalues[k]
            );
        }
    }

    #[test]
    fn singular_b_projector_pencil() {
        // A = 1D Laplacian (Neumann-like semidefinite variant), B = A
        // restricted to the last few nodes — mimics the GenEO pencil where
        // B acts only on the overlap. Verify residuals of returned pairs.
        let n = 30;
        let mut ab = CooBuilder::new(n, n);
        for i in 0..n {
            let d = match i {
                0 => 1.0,
                x if x == n - 1 => 1.0,
                _ => 2.0,
            };
            ab.push(i, i, d);
            if i + 1 < n {
                ab.push(i, i + 1, -1.0);
                ab.push(i + 1, i, -1.0);
            }
        }
        let a = ab.to_csr(); // singular Neumann Laplacian (constants in kernel)
                             // B = P A P with P selecting the last 6 nodes.
        let mut p = vec![0.0; n];
        for i in n - 6..n {
            p[i] = 1.0;
        }
        let pd = CsrMatrix::from_diag(&p);
        let b = pd.spmm(&a).spmm(&pd);
        let res = solve(&a, &b, 3, &LanczosOpts::default()).unwrap();
        assert!(res.values[0].is_finite());
        assert_pencil_residuals(&a, &b, &res, 1e-6);
    }

    #[test]
    fn eigenvectors_b_orthonormal() {
        let n = 20;
        let a = laplacian_1d(n);
        let b = CsrMatrix::identity(n);
        let res = solve(&a, &b, 5, &LanczosOpts::default()).unwrap();
        for i in 0..5 {
            for j in 0..=i {
                let d = vector::dot(res.vectors.col(i), res.vectors.col(j));
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((d - expect).abs() < 1e-7, "⟨v{i},v{j}⟩ = {d}");
            }
        }
    }

    #[test]
    fn explicit_shift_matches_auto() {
        let a = laplacian_1d(20);
        let b = CsrMatrix::identity(20);
        let auto = solve(&a, &b, 3, &LanczosOpts::default()).unwrap();
        let shifted = LanczosOpts {
            shift: Some(-0.5),
            ..Default::default()
        };
        let manual = solve(&a, &b, 3, &shifted).unwrap();
        for k in 0..3 {
            assert!(
                (auto.values[k] - manual.values[k]).abs() < 1e-7,
                "λ_{k}: {} vs {}",
                auto.values[k],
                manual.values[k]
            );
        }
    }

    #[test]
    fn purified_vectors_have_small_residuals_with_masked_b() {
        // Diagonal mask B: only the first 4 dofs weighted — strongly
        // singular B exercising the purification step.
        let n = 24;
        let a = laplacian_1d(n);
        let mut mask = vec![0.0; n];
        for m in mask.iter_mut().take(4) {
            *m = 1.0;
        }
        let b = CsrMatrix::from_diag(&mask);
        let res = solve(&a, &b, 2, &LanczosOpts::default()).unwrap();
        assert_pencil_residuals(&a, &b, &res, 1e-8);
        // range(K⁻¹B) has dimension 4: asking for more returns the four
        // finite pairs and no debris of the exhausted Krylov space.
        let res = solve(&a, &b, 7, &LanczosOpts::default()).unwrap();
        assert_eq!(res.values.len(), 4);
        assert!(res.values.iter().all(|l| l.is_finite() && *l > 0.0));
        assert_pencil_residuals(&a, &b, &res, 1e-8);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = laplacian_1d(15);
        let b = CsrMatrix::identity(15);
        let r1 = solve(&a, &b, 2, &LanczosOpts::default()).unwrap();
        let r2 = solve(&a, &b, 2, &LanczosOpts::default()).unwrap();
        assert_eq!(r1.values, r2.values);
    }

    /// 5-point Laplacian on an `nx × nx` grid with Dirichlet boundary: its
    /// eigenvalues `μ_i + μ_j` are double for `i ≠ j`.
    fn laplacian_2d(nx: usize) -> CsrMatrix {
        let mut b = CooBuilder::new(nx * nx, nx * nx);
        for j in 0..nx {
            for i in 0..nx {
                let u = i + j * nx;
                b.push(u, u, 4.0);
                if i + 1 < nx {
                    b.push(u, u + 1, -1.0);
                    b.push(u + 1, u, -1.0);
                }
                if j + 1 < nx {
                    b.push(u, u + nx, -1.0);
                    b.push(u + nx, u, -1.0);
                }
            }
        }
        b.to_csr()
    }

    #[test]
    fn both_copies_of_a_double_eigenvalue_are_found() {
        // λ₁₁ < λ₁₂ = λ₂₁ < λ₂₂: a single Krylov space converges on
        // [λ₁₁, λ₁₂, λ₂₂, …] long before rounding brings in the second copy.
        let nx = 12;
        let a = laplacian_2d(nx);
        let b = CsrMatrix::identity(nx * nx);
        let mu = |k: usize| 2.0 - 2.0 * (k as f64 * std::f64::consts::PI / (nx as f64 + 1.0)).cos();
        let exact = [mu(1) + mu(1), mu(1) + mu(2), mu(1) + mu(2), mu(2) + mu(2)];
        for seed in 1..=8 {
            let opts = LanczosOpts {
                seed,
                ..Default::default()
            };
            let res = solve(&a, &b, 4, &opts).unwrap();
            assert_eq!(res.values.len(), 4);
            assert!(res.steps < 80, "seed {seed}: {} steps", res.steps);
            for (k, want) in exact.iter().enumerate() {
                assert!(
                    (res.values[k] - want).abs() < 1e-8 * want,
                    "seed {seed} λ_{k}: {} vs {want}",
                    res.values[k]
                );
            }
        }
    }

    #[test]
    fn kernel_of_multiplicity_three_is_complete() {
        // Three disconnected Neumann chains: a three-fold zero eigenvalue,
        // the shape of a floating subdomain's rigid-body modes.
        let (len, n) = (20, 60);
        let mut ab = CooBuilder::new(n, n);
        for c in 0..3 {
            for i in 0..len {
                let u = c * len + i;
                let ends = (i == 0) as usize + (i + 1 == len) as usize;
                ab.push(u, u, (2 - ends) as f64 * (1.0 + c as f64));
                if i + 1 < len {
                    ab.push(u, u + 1, -(1.0 + c as f64));
                    ab.push(u + 1, u, -(1.0 + c as f64));
                }
            }
        }
        let a = ab.to_csr();
        let b = CsrMatrix::identity(n);
        for seed in 1..=8 {
            let opts = LanczosOpts {
                seed,
                ..Default::default()
            };
            let res = solve(&a, &b, 4, &opts).unwrap();
            for k in 0..3 {
                assert!(
                    res.values[k].abs() < 1e-10,
                    "seed {seed}: λ_{k} = {}",
                    res.values[k]
                );
            }
            assert!(res.values[3] > 1e-3, "seed {seed}: a fourth zero");
        }
    }

    #[test]
    fn the_cap_is_a_cap_not_a_budget() {
        let a = laplacian_1d(400);
        let b = CsrMatrix::identity(400);
        let capped = |max_subspace| LanczosOpts {
            max_subspace,
            ..Default::default()
        };
        // All runs together stay far below the cap of a single one.
        let res = solve(&a, &b, 2, &capped(300)).unwrap();
        assert_eq!(res.values.len(), 2);
        assert!(res.steps < 150, "{} steps", res.steps);
        // Reached with wanted pairs unconfirmed, it is a typed error.
        match solve(&a, &b, 6, &capped(8)) {
            Err(EigenError::NotConverged {
                requested,
                converged,
            }) => assert!(requested == 6 && converged < 6),
            other => panic!("expected NotConverged, got {other:?}"),
        }
    }

    #[test]
    fn degenerate_input_is_a_typed_error_never_a_panic() {
        let a = laplacian_1d(10);
        let b = CsrMatrix::identity(10);
        for bad in [f64::NAN, f64::INFINITY] {
            let mut values = a.values().to_vec();
            values[3] = bad;
            let poisoned =
                CsrMatrix::from_raw(10, 10, a.row_ptr().to_vec(), a.col_idx().to_vec(), values);
            for (x, y) in [(&poisoned, &b), (&b, &poisoned)] {
                assert!(matches!(
                    solve(x, y, 2, &LanczosOpts::default()),
                    Err(EigenError::NonFinite)
                ));
            }
        }
        for shift in [0.5, 0.0, f64::NAN] {
            let opts = LanczosOpts {
                shift: Some(shift),
                ..Default::default()
            };
            assert!(matches!(
                solve(&a, &b, 2, &opts),
                Err(EigenError::BadShift { .. })
            ));
        }
        assert!(matches!(
            solve(&a, &CsrMatrix::identity(11), 1, &LanczosOpts::default()),
            Err(EigenError::ShapeMismatch)
        ));
        // ker A ∩ ker B ≠ {0}: both vanish on the last dof.
        let singular = CsrMatrix::from_diag(&[2.0, 2.0, 2.0, 2.0, 0.0]);
        assert!(matches!(
            solve(&singular, &singular, 1, &LanczosOpts::default()),
            Err(EigenError::ShiftFactorization(_))
        ));
        // nev = 0: nothing; nev > n: every pair there is, and no more.
        let none = solve(&a, &b, 0, &LanczosOpts::default()).unwrap();
        assert_eq!(none.values.len(), 0);
        let all = solve(&a, &b, 25, &LanczosOpts::default()).unwrap();
        assert_eq!(all.values.len(), 10);
        for k in 1..=10 {
            let exact = 2.0 - 2.0 * (k as f64 * std::f64::consts::PI / 11.0).cos();
            assert!((all.values[k - 1] - exact).abs() < 1e-9);
        }
    }
}
