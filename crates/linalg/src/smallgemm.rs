//! Hand-tiled dense micro-kernels for the blocked factorization paths.
//!
//! The supernodal LDLᵀ in `dd-solver` spends almost all of its flops in
//! trailing-matrix updates of the form `C ← C − A·Bᵀ` where `A` and `B` are
//! tall panel slices of a frontal matrix. A naive triple loop leaves most of
//! the memory traffic uncached; this module provides a register-blocked
//! 8×2 micro-kernel, sized for the sixteen 128-bit registers of the
//! baseline x86-64 target: its sixteen accumulators take eight of them, so
//! the hot loop keeps them live without spilling. `B` is packed per column
//! pair before the `A` panel streams past it, so the kernel reads both
//! operands contiguously — `B` arrives as rows of a column-major panel,
//! `ldb` apart.
//!
//! Every entry of `C` is `c −= Σ_p a_ip·b_jp`, the sum taken in order of
//! `p` from zero, whether a full tile or the scalar cleanup computes it:
//! the result does not depend on how `C` is cut into calls or tiles.
//!
//! Everything is safe Rust: the kernel converts each panel column slice to a
//! fixed-size `&[f64; 8]` once per `k`-step, which lets the compiler elide
//! per-element bounds checks inside the unrolled body.

/// Rows of a register tile.
const MR: usize = 8;
/// Columns of a register tile.
const NR: usize = 2;
/// Largest depth `k` [`gemm_nt_minus`] accepts: a column pair of `B` is
/// packed on the stack, and the one caller, the supernodal trailing update,
/// multiplies by panel blocks at most this deep.
pub const MAX_K: usize = 32;

/// `C ← C − A·Bᵀ` on column-major storage.
///
/// * `a`: `m × k` panel, leading dimension `lda` (`a[i + p*lda]`).
/// * `b`: `n × k` panel, leading dimension `ldb` (`b[j + p*ldb]`).
/// * `c`: `m × n` target, leading dimension `ldc` (`c[i + j*ldc]`).
///
/// This is the `syrk`/`gemm` shape of a blocked LDLᵀ trailing update with
/// `A = L·D` and `B = L` restricted to the current panel. Panics if
/// `k > MAX_K`.
// dd:hot — inner kernel of every supernodal trailing update
#[allow(clippy::too_many_arguments)] // the standard BLAS gemm signature
pub fn gemm_nt_minus(
    m: usize,
    n: usize,
    k: usize,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    c: &mut [f64],
    ldc: usize,
) {
    assert!(k <= MAX_K, "gemm_nt_minus: depth {k} > MAX_K");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    assert!(
        lda >= m && ldb >= n && ldc >= m,
        "gemm_nt_minus: leading dims"
    );
    assert!(a.len() >= (k - 1) * lda + m, "gemm_nt_minus: a too short");
    assert!(b.len() >= (k - 1) * ldb + n, "gemm_nt_minus: b too short");
    assert!(c.len() >= (n - 1) * ldc + m, "gemm_nt_minus: c too short");

    let mut packed = [0.0f64; NR * MAX_K];
    let packed = &mut packed[..NR * k];
    let m_main = m - m % MR;
    let n_main = n - n % NR;
    let mut j = 0;
    while j < n_main {
        // B[j..j + NR, :] as k consecutive pairs.
        for (p, pair) in packed.chunks_exact_mut(NR).enumerate() {
            pair.copy_from_slice(&b[j + p * ldb..j + p * ldb + NR]);
        }
        let mut i = 0;
        while i < m_main {
            kernel_8x2(&a[i..], lda, packed, &mut c[i + j * ldc..], ldc);
            i += MR;
        }
        if i < m {
            edge(i, m, j, j + NR, k, a, lda, b, ldb, c, ldc);
        }
        j += NR;
    }
    if j < n {
        edge(0, m, j, n, k, a, lda, b, ldb, c, ldc);
    }
}

/// 8×2 register-blocked inner kernel: `C[0..8, 0..2] -= A[0..8, :]·B[0..2, :]ᵀ`
/// with `B` packed (`packed[2p + j] = B[j, p]`, `k = packed.len() / 2`).
///
/// The accumulators are two `[f64; 8]` arrays updated lane-wise with a
/// broadcast multiplier — the shape LLVM auto-vectorizes into packed
/// mul/add over the contiguous row dimension.
// dd:hot
#[inline]
fn kernel_8x2(a: &[f64], lda: usize, packed: &[f64], c: &mut [f64], ldc: usize) {
    let mut acc = [[0.0f64; MR]; NR];
    for (p, bp) in packed.chunks_exact(NR).enumerate() {
        let ap: &[f64; MR] = a[p * lda..p * lda + MR].try_into().unwrap();
        for (accj, &bj) in acc.iter_mut().zip(bp) {
            for (s, &ai) in accj.iter_mut().zip(ap) {
                *s += ai * bj;
            }
        }
    }
    for (j, accj) in acc.iter().enumerate() {
        let cj = &mut c[j * ldc..j * ldc + MR];
        for (ci, &s) in cj.iter_mut().zip(accj) {
            *ci -= s;
        }
    }
}

/// Scalar cleanup for ragged row/column tails.
// dd:hot
#[allow(clippy::too_many_arguments)]
fn edge(
    i0: usize,
    i1: usize,
    j0: usize,
    j1: usize,
    k: usize,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    c: &mut [f64],
    ldc: usize,
) {
    for j in j0..j1 {
        for i in i0..i1 {
            let mut s = 0.0;
            for p in 0..k {
                s += a[i + p * lda] * b[j + p * ldb];
            }
            c[i + j * ldc] -= s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::too_many_arguments)]
    fn reference(
        m: usize,
        n: usize,
        k: usize,
        a: &[f64],
        lda: usize,
        b: &[f64],
        ldb: usize,
        c: &mut [f64],
        ldc: usize,
    ) {
        for j in 0..n {
            for i in 0..m {
                let mut s = 0.0;
                for p in 0..k {
                    s += a[i + p * lda] * b[j + p * ldb];
                }
                c[i + j * ldc] -= s;
            }
        }
    }

    fn fill(len: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).max(1);
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 2000) as f64 / 1000.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn matches_reference_on_all_tail_shapes() {
        for &(m, n, k) in &[
            (1, 1, 1),
            (4, 4, 4),
            (5, 3, 7),
            (8, 8, 8),
            (9, 10, 11),
            (13, 4, 1),
            (4, 13, 2),
            (16, 17, 18),
            (3, 3, 0),
            (8, 2, 32),
            (17, 5, 31),
        ] {
            let (lda, ldb, ldc) = (m + 2, n + 1, m + 3);
            let a = fill(lda * k.max(1), 1 + m as u64);
            let b = fill(ldb * k.max(1), 2 + n as u64);
            let c0 = fill(ldc * n, 3 + k as u64);
            let mut c_fast = c0.clone();
            let mut c_ref = c0.clone();
            gemm_nt_minus(m, n, k, &a, lda, &b, ldb, &mut c_fast, ldc);
            reference(m, n, k, &a, lda, &b, ldb, &mut c_ref, ldc);
            // The same sum in the same order per entry: equal to the bit.
            for (x, y) in c_fast.iter().zip(&c_ref) {
                assert_eq!(x.to_bits(), y.to_bits(), "m={m} n={n} k={k}");
            }
        }
    }

    /// Cutting `C` into column strips and row offsets — as the supernodal
    /// factorization does at a panel's edge — changes no bit of it.
    #[test]
    fn any_cut_of_c_gives_the_same_bits() {
        let (m, n, k, ld) = (37, 23, 32, 40);
        let a = fill(ld * k, 11);
        let b = fill(ld * k, 12);
        let c0 = fill(ld * n, 13);
        let mut whole = c0.clone();
        gemm_nt_minus(m, n, k, &a, ld, &b, ld, &mut whole, ld);
        for cut in [1usize, 3, 8, 9, 22] {
            let mut split = c0.clone();
            gemm_nt_minus(m, cut, k, &a, ld, &b, ld, &mut split, ld);
            // The right part from row `cut` down only (its lower triangle).
            gemm_nt_minus(
                m - cut,
                n - cut,
                k,
                &a[cut..],
                ld,
                &b[cut..],
                ld,
                &mut split[cut * ld + cut..],
                ld,
            );
            for j in 0..n {
                for i in j.min(cut)..m {
                    let at = i + j * ld;
                    assert_eq!(whole[at].to_bits(), split[at].to_bits(), "cut {cut}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "depth 33 > MAX_K")]
    fn rejects_a_depth_beyond_max_k() {
        let (m, n, k) = (8, 2, MAX_K + 1);
        let (a, b) = (fill(m * k, 1), fill(n * k, 2));
        let mut c = fill(m * n, 3);
        gemm_nt_minus(m, n, k, &a, m, &b, n, &mut c, m);
    }

    #[test]
    fn leaves_untouched_rows_of_the_leading_dimension_alone() {
        let (m, n, k, ld) = (4, 4, 3, 6);
        let a = fill(ld * k, 7);
        let b = fill(ld * k, 8);
        let c0 = fill(ld * n, 9);
        let mut c = c0.clone();
        gemm_nt_minus(m, n, k, &a, ld, &b, ld, &mut c, ld);
        for j in 0..n {
            for i in m..ld {
                assert_eq!(c[i + j * ld], c0[i + j * ld]);
            }
        }
    }
}
