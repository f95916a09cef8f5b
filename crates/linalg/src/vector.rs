//! Dense vector kernels used throughout the workspace.
//!
//! All routines operate on plain `&[f64]` / `&mut [f64]` slices so they can
//! be applied to subdomain-local vectors, global vectors, and columns of
//! dense matrices alike without wrapper types.

/// Dot product `xᵀ y`.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    // Accumulate in four independent lanes so LLVM can vectorize without
    // having to reassociate floating-point additions itself.
    let mut acc = [0.0f64; 4];
    let chunks = x.len() / 4;
    for i in 0..chunks {
        let b = i * 4;
        acc[0] += x[b] * y[b];
        acc[1] += x[b + 1] * y[b + 1];
        acc[2] += x[b + 2] * y[b + 2];
        acc[3] += x[b + 3] * y[b + 3];
    }
    let mut tail = 0.0;
    for i in chunks * 4..x.len() {
        tail += x[i] * y[i];
    }
    acc[0] + acc[1] + acc[2] + acc[3] + tail
}

/// Euclidean norm `‖x‖₂`.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// Infinity norm `‖x‖∞`.
#[inline]
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0f64, |m, &v| m.max(v.abs()))
}

/// `y ← α x + y`.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Vectors that advance together through one pass of [`dot_many`] and
/// [`axpy_many`].
const PANEL: usize = 4;

/// The `PANEL` vectors of one block, each checked to be as long as `len`.
fn panel<'a, V: AsRef<[f64]>>(block: &'a [V], len: usize, what: &str) -> [&'a [f64]; PANEL] {
    std::array::from_fn(|j| {
        let v = block[j].as_ref();
        assert_eq!(v.len(), len, "{what}: length mismatch");
        v
    })
}

/// Gram block `out_j = Σ_g x[g]·ys[j][g]`.
///
/// Every `out_j` is **one** accumulator started at `0.0` and advanced in
/// ascending `g`, so it holds the bits of the sequential loop
/// `acc += x[g] * y[g]` (not those of [`dot`], which sums in four lanes).
/// What changes is the schedule: `PANEL` accumulators advance together
/// through one pass over `x`, which turns one add chain that runs at the
/// add latency into `PANEL` independent ones and reads `x` once per
/// `PANEL` vectors instead of once per vector.
///
/// # Panics
/// Panics if `out` and `ys` differ in length or a vector is not as long
/// as `x`.
// dd:hot — the Gram block of every Arnoldi step
pub fn dot_many<V: AsRef<[f64]>>(x: &[f64], ys: &[V], out: &mut [f64]) {
    assert_eq!(ys.len(), out.len(), "dot_many: one output per vector");
    let n = x.len();
    let mut blocks = ys.chunks_exact(PANEL);
    let mut outs = out.chunks_exact_mut(PANEL);
    for (block, out) in blocks.by_ref().zip(outs.by_ref()) {
        let [y0, y1, y2, y3] = panel(block, n, "dot_many");
        let mut acc = [0.0f64; PANEL];
        for g in 0..n {
            acc[0] += x[g] * y0[g];
            acc[1] += x[g] * y1[g];
            acc[2] += x[g] * y2[g];
            acc[3] += x[g] * y3[g];
        }
        out.copy_from_slice(&acc);
    }
    for (y, out) in blocks.remainder().iter().zip(outs.into_remainder()) {
        let y = y.as_ref();
        assert_eq!(y.len(), n, "dot_many: length mismatch");
        let mut acc = 0.0;
        for (xg, yg) in x.iter().zip(y) {
            acc += xg * yg;
        }
        *out = acc;
    }
}

/// Update block `y[g] += Σ_j α_j·xs[j][g]`, the terms added in ascending
/// `j` — for every element the operations of one [`axpy`] per vector in
/// order, hence the same bits — with `PANEL` vectors per pass over `y`
/// instead of one.
///
/// # Panics
/// Panics if `alphas` and `xs` differ in length or a vector is not as long
/// as `y`.
// dd:hot — the update block of every Arnoldi step
pub fn axpy_many<V: AsRef<[f64]>>(alphas: &[f64], xs: &[V], y: &mut [f64]) {
    assert_eq!(alphas.len(), xs.len(), "axpy_many: one scalar per vector");
    let n = y.len();
    let mut blocks = xs.chunks_exact(PANEL);
    let mut scalars = alphas.chunks_exact(PANEL);
    for (block, a) in blocks.by_ref().zip(scalars.by_ref()) {
        let [x0, x1, x2, x3] = panel(block, n, "axpy_many");
        for g in 0..n {
            let mut t = y[g];
            t += a[0] * x0[g];
            t += a[1] * x1[g];
            t += a[2] * x2[g];
            t += a[3] * x3[g];
            y[g] = t;
        }
    }
    for (x, &a) in blocks.remainder().iter().zip(scalars.remainder()) {
        axpy(a, x.as_ref(), y);
    }
}

/// Two Gram rows in one pass: `out[j] = dot(x, ys[j])` and
/// `out[ys.len() + j] = dot(y, ys[j])`, each the bits of [`dot`] (four
/// lanes, then the tail), so the sums vectorize along the vectors. Two
/// basis vectors advance together, which reads `x` and `y` once per pair
/// of basis vectors and keeps the sixteen lane accumulators in registers.
///
/// # Panics
/// Panics if `out` does not hold two values per vector or a vector is not
/// as long as `x`.
// dd:hot — the one Gram pass of a low-synchronization Arnoldi step
pub fn dot2_many<V: AsRef<[f64]>>(x: &[f64], y: &[f64], ys: &[V], out: &mut [f64]) {
    let (n, nv) = (x.len(), ys.len());
    assert_eq!(y.len(), n, "dot2_many: length mismatch");
    assert_eq!(out.len(), 2 * nv, "dot2_many: two outputs per vector");
    let (ox, oy) = out.split_at_mut(nv);
    let body = n - n % 4;
    let mut pairs = ys.chunks_exact(2);
    let mut j = 0;
    for pair in pairs.by_ref() {
        let (v0, v1) = (pair[0].as_ref(), pair[1].as_ref());
        assert!(v0.len() == n && v1.len() == n, "dot2_many: length mismatch");
        let acc = pair_lanes(&x[..body], &y[..body], &v0[..body], &v1[..body]);
        let tail = |a: &[f64], b: &[f64]| {
            let mut t = 0.0;
            for (p, q) in a[body..].iter().zip(&b[body..]) {
                t += p * q;
            }
            t
        };
        let tails = [tail(x, v0), tail(x, v1), tail(y, v0), tail(y, v1)];
        let sum = |r: usize| acc[r][0] + acc[r][1] + acc[r][2] + acc[r][3] + tails[r];
        ox[j] = sum(0);
        ox[j + 1] = sum(1);
        oy[j] = sum(2);
        oy[j + 1] = sum(3);
        j += 2;
    }
    for v in pairs.remainder() {
        ox[j] = dot(x, v.as_ref());
        oy[j] = dot(y, v.as_ref());
    }
}

/// The four lanes of `x·v0`, `x·v1`, `y·v0`, `y·v1` over slices of a
/// multiple of four values. Kept out of line: inlined beside the tail
/// loops, these loops were not vectorized (1.9× slower on 5 000 values).
#[inline(never)]
fn pair_lanes(x: &[f64], y: &[f64], v0: &[f64], v1: &[f64]) -> [[f64; 4]; 4] {
    let mut acc = [[0.0f64; 4]; 4];
    let quads = x
        .chunks_exact(4)
        .zip(y.chunks_exact(4))
        .zip(v0.chunks_exact(4).zip(v1.chunks_exact(4)));
    for ((xc, yc), (c0, c1)) in quads {
        let lanes = |v: &[f64]| -> [f64; 4] { [v[0], v[1], v[2], v[3]] };
        let (xc, yc, c0, c1) = (lanes(xc), lanes(yc), lanes(c0), lanes(c1));
        for l in 0..4 {
            acc[0][l] += xc[l] * c0[l];
        }
        for l in 0..4 {
            acc[1][l] += xc[l] * c1[l];
        }
        for l in 0..4 {
            acc[2][l] += yc[l] * c0[l];
        }
        for l in 0..4 {
            acc[3][l] += yc[l] * c1[l];
        }
    }
    acc
}

/// Two update blocks in one pass over the vectors: `y += Σ_j α_j·xs[j]` and
/// `z += Σ_j β_j·xs[j]`, each the bits of its own [`axpy_many`].
///
/// # Panics
/// Panics if the scalars and `xs` differ in length or a vector is not as
/// long as `y`.
// dd:hot — the one basis pass of a low-synchronization Arnoldi step
pub fn axpy2_many<V: AsRef<[f64]>>(
    alphas: &[f64],
    betas: &[f64],
    xs: &[V],
    y: &mut [f64],
    z: &mut [f64],
) {
    assert_eq!(alphas.len(), xs.len(), "axpy2_many: one scalar per vector");
    assert_eq!(betas.len(), xs.len(), "axpy2_many: one scalar per vector");
    let n = y.len();
    assert_eq!(z.len(), n, "axpy2_many: length mismatch");
    let mut blocks = xs.chunks_exact(PANEL);
    let (mut sa, mut sb) = (alphas.chunks_exact(PANEL), betas.chunks_exact(PANEL));
    for ((block, a), b) in blocks.by_ref().zip(sa.by_ref()).zip(sb.by_ref()) {
        let [x0, x1, x2, x3] = panel(block, n, "axpy2_many");
        for g in 0..n {
            let mut t = y[g];
            t += a[0] * x0[g];
            t += a[1] * x1[g];
            t += a[2] * x2[g];
            t += a[3] * x3[g];
            y[g] = t;
            let mut u = z[g];
            u += b[0] * x0[g];
            u += b[1] * x1[g];
            u += b[2] * x2[g];
            u += b[3] * x3[g];
            z[g] = u;
        }
    }
    let rest = blocks
        .remainder()
        .iter()
        .zip(sa.remainder())
        .zip(sb.remainder());
    for ((x, &a), &b) in rest {
        axpy(a, x.as_ref(), y);
        axpy(b, x.as_ref(), z);
    }
}

/// `x ← α x`.
#[inline]
pub fn scal(alpha: f64, x: &mut [f64]) {
    for v in x {
        *v *= alpha;
    }
}

/// Component-wise product `z ← x ⊙ y` (used for diagonal scalings `D_i x`).
#[inline]
pub fn hadamard(x: &[f64], y: &[f64], z: &mut [f64]) {
    assert_eq!(x.len(), y.len());
    assert_eq!(x.len(), z.len());
    for i in 0..z.len() {
        z[i] = x[i] * y[i];
    }
}

/// In-place component-wise scaling `x ← d ⊙ x`.
#[inline]
pub fn scale_by(d: &[f64], x: &mut [f64]) {
    assert_eq!(d.len(), x.len());
    for (xi, di) in x.iter_mut().zip(d) {
        *xi *= di;
    }
}

/// Fill `x` with zeros.
#[inline]
pub fn zero(x: &mut [f64]) {
    for v in x {
        *v = 0.0;
    }
}

/// `‖x − y‖₂`, for test assertions and convergence diagnostics.
#[inline]
pub fn dist2(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len());
    x.iter()
        .zip(y)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_naive() {
        let x: Vec<f64> = (0..13).map(|i| i as f64).collect();
        let y: Vec<f64> = (0..13).map(|i| (i * i) as f64).collect();
        let naive: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert!((dot(&x, &y) - naive).abs() < 1e-12 * naive.abs());
    }

    #[test]
    fn norms() {
        let x = [3.0, -4.0];
        assert!((norm2(&x) - 5.0).abs() < 1e-15);
        assert!((norm_inf(&x) - 4.0).abs() < 1e-15);
    }

    #[test]
    fn axpy_accumulates() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [10.0, 10.0, 10.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 14.0, 16.0]);
    }

    #[test]
    fn hadamard_and_scale() {
        let d = [2.0, 0.5];
        let x = [4.0, 4.0];
        let mut z = [0.0; 2];
        hadamard(&d, &x, &mut z);
        assert_eq!(z, [8.0, 2.0]);
        let mut w = x;
        scale_by(&d, &mut w);
        assert_eq!(w, z);
    }

    #[test]
    #[should_panic]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }
}
