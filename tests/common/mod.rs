//! Helpers shared by the integration test suites: a tiny deterministic RNG
//! — a std-only stand-in for randomized property testing; splitmix64 keeps
//! every run bit-identical across platforms and invocations — and the
//! outside referees of a distributed solve (reassembly of the per-rank
//! locals every driver returns, true residual, relative distance).

#![allow(dead_code)]

use dd_geneo::core::Decomposition;

/// Reassemble the global solution from the `(subdomain, local solution)`
/// lists the ranks of a run returned (`SpmdMultiSolution::locals`),
/// asserting every subdomain is covered exactly once.
pub fn reassemble<'a>(
    decomp: &Decomposition,
    per_rank: impl IntoIterator<Item = &'a Vec<(usize, Vec<f64>)>>,
) -> Vec<f64> {
    let mut by_sub: Vec<Option<Vec<f64>>> = vec![None; decomp.n_subdomains()];
    for (s, x) in per_rank.into_iter().flatten() {
        assert!(by_sub[*s].is_none(), "subdomain {s} owned twice");
        by_sub[*s] = Some(x.clone());
    }
    let locals: Vec<Vec<f64>> = by_sub
        .into_iter()
        .enumerate()
        .map(|(s, x)| x.unwrap_or_else(|| panic!("subdomain {s} not covered by any rank")))
        .collect();
    decomp.from_locals(&locals)
}

/// `‖b − A x‖ / ‖b‖` of a reassembled global solution.
pub fn global_residual(decomp: &Decomposition, x: &[f64]) -> f64 {
    let mut ax = vec![0.0; decomp.n_global];
    decomp.a_global.spmv(x, &mut ax);
    let (mut num, mut den) = (0.0, 0.0);
    for (a, b) in ax.iter().zip(&decomp.rhs_global) {
        num += (a - b) * (a - b);
        den += b * b;
    }
    (num / den).sqrt()
}

/// `‖a − b‖ / ‖b‖`.
pub fn rel_dist(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let num: f64 = a
        .iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt();
    let den: f64 = b.iter().map(|y| y * y).sum::<f64>().sqrt();
    num / den.max(1e-300)
}

pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `[lo, hi)`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }

    pub fn vec_f64(&mut self, n: usize, lo: f64, hi: f64) -> Vec<f64> {
        (0..n).map(|_| self.range_f64(lo, hi)).collect()
    }
}
