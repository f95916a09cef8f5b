//! α–β communication cost model.
//!
//! Costs mirror the scaling facts the paper leans on in §3.2: collectives
//! with *equal* counts per rank use binomial/tree algorithms and scale as
//! `O(log N)`, while the `v`-variants (varying counts) degrade to linear
//! `O(N)` — "because these communications scale as O(N), it is preferable
//! to call MPI_Allreduce(ν_i, MPI_MAX) ... that way it is possible to use
//! MPI communications with equal counts of data, which typically scale as
//! O(log(N))".

/// Latency/bandwidth parameters of the modeled network.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Per-message latency in seconds (α).
    pub alpha: f64,
    /// Per-byte transfer time in seconds (β = 1 / bandwidth).
    pub beta: f64,
}

impl Default for CostModel {
    /// Defaults loosely modeled on the paper's testbed (Curie: InfiniBand
    /// QDR full fat tree): ~1.5 µs latency, ~3 GB/s effective per-link
    /// bandwidth.
    fn default() -> Self {
        CostModel {
            alpha: 1.5e-6,
            beta: 1.0 / 3.0e9,
        }
    }
}

/// `⌈log₂ p⌉` — the message count (depth) of a binomial-tree collective
/// among `p` ranks. Exposed so the telemetry layer records the same message
/// counts the cost model charges for.
#[inline]
pub fn tree_msgs(p: usize) -> u32 {
    if p <= 1 {
        0
    } else {
        usize::BITS - (p - 1).leading_zeros()
    }
}

/// `p − 1` — the message count of a linear (`v`-variant) collective.
#[inline]
pub fn linear_msgs(p: usize) -> u32 {
    p.saturating_sub(1) as u32
}

#[inline]
fn log2_ceil(p: usize) -> f64 {
    tree_msgs(p) as f64
}

impl CostModel {
    /// Point-to-point message of `bytes`.
    pub fn p2p(&self, bytes: usize) -> f64 {
        self.alpha + self.beta * bytes as f64
    }

    /// Barrier among `p` ranks (dissemination algorithm).
    pub fn barrier(&self, p: usize) -> f64 {
        log2_ceil(p) * self.alpha
    }

    /// Reduction / allreduce of `bytes` among `p` ranks.
    pub fn allreduce(&self, p: usize, bytes: usize) -> f64 {
        log2_ceil(p) * self.p2p(bytes)
    }

    /// Gather / scatter with **equal** per-rank counts of `bytes` each
    /// (binomial tree: log p messages, total data (p−1)·bytes through the
    /// root link).
    pub fn gather_uniform(&self, p: usize, bytes_per_rank: usize) -> f64 {
        log2_ceil(p) * self.alpha + self.beta * (p.saturating_sub(1) * bytes_per_rank) as f64
    }

    /// Gather / scatter with **varying** counts (`MPI_Gatherv`): linear in
    /// `p` — one message per rank into the root.
    pub fn gather_varying(&self, p: usize, total_bytes: usize) -> f64 {
        p.saturating_sub(1) as f64 * self.alpha + self.beta * total_bytes as f64
    }

    /// Allgather with equal counts.
    pub fn allgather_uniform(&self, p: usize, bytes_per_rank: usize) -> f64 {
        log2_ceil(p) * self.alpha + self.beta * (p.saturating_sub(1) * bytes_per_rank) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_vs_linear_scaling() {
        let m = CostModel::default();
        // With small payloads, uniform gather must scale like log p, the
        // v-variant like p.
        let g64 = m.gather_uniform(64, 8);
        let g4096 = m.gather_uniform(4096, 8);
        let gv64 = m.gather_varying(64, 64 * 8);
        let gv4096 = m.gather_varying(4096, 4096 * 8);
        // uniform: latency part grows 12/6 = 2×; varying: ~64×.
        let uniform_growth = g4096 / g64;
        let varying_growth = gv4096 / gv64;
        assert!(uniform_growth < 4.0, "uniform grew {uniform_growth}×");
        assert!(varying_growth > 30.0, "varying grew {varying_growth}×");
    }

    #[test]
    fn p2p_affine_in_bytes() {
        let m = CostModel {
            alpha: 1e-6,
            beta: 1e-9,
        };
        assert!((m.p2p(0) - 1e-6).abs() < 1e-18);
        assert!((m.p2p(1000) - (1e-6 + 1e-6)).abs() < 1e-15);
    }

    #[test]
    fn degenerate_single_rank_costs_zero_latency() {
        let m = CostModel::default();
        assert_eq!(m.barrier(1), 0.0);
        assert_eq!(m.gather_uniform(1, 100), 0.0);
    }

    // ---- formula pins: the closed forms the conformance suite relies on.
    // Written with exactly representable α = 2⁻²⁰ s and β = 2⁻³⁰ s/B so
    // every pinned value is exact in f64 (== comparisons, no tolerance).

    const A: f64 = 1.0 / 1048576.0; // 2⁻²⁰
    const B: f64 = 1.0 / 1073741824.0; // 2⁻³⁰

    fn pin_model() -> CostModel {
        CostModel { alpha: A, beta: B }
    }

    #[test]
    fn tree_and_linear_message_counts_are_pinned() {
        // ⌈log₂ p⌉ at and around powers of two, and the degenerate cases.
        for (p, t) in [
            (0usize, 0u32),
            (1, 0),
            (2, 1),
            (3, 2),
            (4, 2),
            (5, 3),
            (8, 3),
            (9, 4),
            (1024, 10),
            (1025, 11),
        ] {
            assert_eq!(tree_msgs(p), t, "tree_msgs({p})");
        }
        assert_eq!(linear_msgs(0), 0);
        assert_eq!(linear_msgs(1), 0);
        assert_eq!(linear_msgs(2), 1);
        assert_eq!(linear_msgs(4096), 4095);
    }

    #[test]
    fn p2p_formula_is_alpha_plus_beta_bytes() {
        let m = pin_model();
        assert_eq!(m.p2p(0), A);
        assert_eq!(m.p2p(1024), A + 1024.0 * B);
        assert_eq!(m.p2p(8), A + 8.0 * B);
    }

    #[test]
    fn barrier_formula_is_logp_alpha() {
        let m = pin_model();
        assert_eq!(m.barrier(2), A);
        assert_eq!(m.barrier(8), 3.0 * A);
        assert_eq!(m.barrier(9), 4.0 * A);
        assert_eq!(m.barrier(4096), 12.0 * A);
    }

    #[test]
    fn allreduce_formula_is_logp_p2p() {
        let m = pin_model();
        for p in [2usize, 5, 16, 100] {
            let depth = tree_msgs(p) as f64;
            assert_eq!(m.allreduce(p, 256), depth * (A + 256.0 * B));
        }
    }

    #[test]
    fn gather_formulas_split_latency_and_bandwidth_terms() {
        let m = pin_model();
        // uniform: ⌈log₂ p⌉·α latency + (p−1)·b bytes through the root.
        assert_eq!(m.gather_uniform(8, 16), 3.0 * A + (7.0 * 16.0) * B);
        assert_eq!(m.allgather_uniform(8, 16), m.gather_uniform(8, 16));
        // varying: (p−1)·α latency + total bytes.
        assert_eq!(m.gather_varying(8, 112), 7.0 * A + 112.0 * B);
        // Same total volume ⇒ same bandwidth term; only latency differs.
        assert_eq!(
            m.gather_varying(8, 7 * 16) - m.gather_uniform(8, 16),
            4.0 * A
        );
    }

    #[test]
    fn eq_vs_v_crossover_is_where_the_paper_says() {
        let m = pin_model();
        // §3.2: for the ν exchange the payload is tiny, so latency
        // dominates and the equal-count form wins as soon as
        // ⌈log₂ p⌉ < p − 1, i.e. for every p ≥ 4 (equal at p ≤ 3).
        for p in [2usize, 3] {
            assert_eq!(m.gather_uniform(p, 8), m.gather_varying(p, (p - 1) * 8));
        }
        for p in [4usize, 8, 64, 4096] {
            assert!(
                m.gather_uniform(p, 8) < m.gather_varying(p, (p - 1) * 8),
                "eq-count must beat v-variant at p = {p}"
            );
        }
        // And the gap is exactly the latency difference, growing O(p).
        let p = 4096;
        let gap = m.gather_varying(p, (p - 1) * 8) - m.gather_uniform(p, 8);
        assert_eq!(gap, (linear_msgs(p) - tree_msgs(p)) as f64 * A);
    }
}
