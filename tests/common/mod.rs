//! Helpers shared by the integration test suites: a tiny deterministic RNG
//! — a std-only stand-in for randomized property testing; splitmix64 keeps
//! every run bit-identical across platforms and invocations — and the
//! outside referees of a distributed solve (reassembly of the per-rank
//! locals every driver returns, true residual, relative distance), the
//! `solve_server` example's request stream, and a label for the inputs of a
//! table-driven row.

#![allow(dead_code)]

use dd_geneo::core::Decomposition;
use dd_geneo::linalg::{CooBuilder, CsrMatrix};
use dd_geneo::serve::{Payload, StreamCfg, Workload};

/// Reassemble the global solution from the `(subdomain, local solution)`
/// lists the ranks of a run returned (`MultiApplyOutcome::locals`),
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

/// Runs `body` and, if it panics, panics again with `label` in front of the
/// message, so a row that runs several inputs names the one that failed.
pub fn labelled<T>(label: &str, body: impl FnOnce() -> T) -> T {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)).unwrap_or_else(|e| {
        let msg = e
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| e.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic payload");
        panic!("{label}: {msg}")
    })
}

/// A seeded stream of singles, batches and admissibly perturbed requests,
/// trimmed to exactly `n_rhs` right-hand sides (the `solve_server`
/// example's stream).
pub fn trimmed_stream(seed: u64, n_global: usize, n_rhs: usize) -> Workload {
    let cfg = StreamCfg {
        n_requests: 2 * n_rhs,
        mean_interarrival: 1e-3,
        batch_fraction: 0.3,
        max_rhs_per_request: 3,
        perturb_fraction: 0.3,
        theta_max: 0.04,
    };
    let full = Workload::generate(seed, n_global, &cfg);
    let mut requests = Vec::new();
    let mut total = 0usize;
    for mut r in full.requests {
        if total == n_rhs {
            break;
        }
        if let Payload::Batch(b) = &mut r.payload {
            b.truncate(n_rhs - total);
            if b.len() == 1 {
                r.payload = Payload::Rhs(b.remove(0));
            }
        }
        total += r.n_rhs();
        r.id = requests.len();
        requests.push(r);
    }
    assert_eq!(total, n_rhs);
    Workload::from_requests(requests)
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

/// Random sparse symmetric diagonally-dominant (hence SPD) matrix.
pub fn random_spd(rng: &mut Rng, n: usize, extra_per_row: usize) -> CsrMatrix {
    let mut b = CooBuilder::new(n, n);
    let mut row_sum = vec![0.0f64; n];
    for i in 0..n {
        for _ in 0..extra_per_row {
            let j = rng.range_usize(0, n);
            if j == i {
                continue;
            }
            let v = rng.range_f64(-1.0, 1.0);
            b.push(i, j, v);
            b.push(j, i, v);
            row_sum[i] += v.abs();
            row_sum[j] += v.abs();
        }
    }
    for (i, s) in row_sum.iter().enumerate() {
        b.push(i, i, 2.0 * s + 1.0 + rng.unit());
    }
    b.to_csr()
}
