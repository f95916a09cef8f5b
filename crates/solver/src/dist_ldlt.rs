//! Distributed coarse-operator factorization (§3.2 of the paper).
//!
//! The redundant scheme factors the full coarse operator `E` on **every**
//! master, so per-master memory and factorization flops grow with
//! `dim(E)` regardless of how many masters are elected. This module
//! implements the paper-faithful alternative: `E` is partitioned into `P`
//! contiguous block rows — the row ranges the master election already
//! produces (each master's block is exactly the coarse rows its group's
//! slaves gathered onto it in Algorithm 2) — and factored cooperatively
//! over the master sub-communicator.
//!
//! Because `E` is symmetric, each master stores only the **upper
//! triangular row strip** `E_p,p..P` (its rows, columns from its own
//! diagonal block rightwards). This is the distribution §3.1.2 balances:
//! the non-uniform election equalizes per-group *upper-triangular* value
//! counts (Figure 5), which is precisely each master's strip size here —
//! so storage and trailing-update work scale as `1/P` of the redundant
//! factor, and the skewed row counts of the non-uniform election cancel
//! against row length instead of compounding it.
//!
//! The factorization is a block LDLᵀ with fan-in of pivot panels: at step
//! `k` the owner of block row `k` factors its Schur-updated diagonal block
//! `A'_kk` locally (same boosted static-pivoting policy as the redundant
//! path), forms the panel `Y_k = A'_kk⁻¹ E'_k,trailing`, and sends each
//! later master `q` the column range `[bounds[q], dim)` of both `Y_k` and
//! the raw rows `W_k = E'_k,trailing`. Symmetry gives the receiver its
//! multiplier from the same message — `E'_qk = E'_kqᵀ` — so it folds the
//! rank-`n_k` update `E'_q,j ← E'_q,j − Y_kqᵀ W_k,j` into its own strip
//! without ever storing a sub-diagonal block.
//!
//! The triangular solves run distributed as well (`E = L D Lᵀ` with
//! `L_qk = E'_qk A'_kk⁻¹ = Y_kqᵀ` and `D_k = A'_kk`), again entirely off
//! each master's own strip:
//!
//! * forward — master `k` computes `v_k = w_k − Σ_{j<k} E'_jkᵀ t_j` from
//!   the ν-sized contributions of the earlier masters, solves
//!   `t_k = A'_kk⁻¹ v_k` (which is also the diagonal sweep `D⁻¹`), and
//!   sends `E'_kqᵀ t_k` to each later master `q`;
//! * backward — master `k` receives the later solution slices `x_q` and
//!   finishes `x_k = t_k − A'_kk⁻¹ Σ_{q>k} E'_kq x_q`.
//!
//! Every message is a point-to-point slice on the master communicator —
//! no rooted collectives, so the conformance invariant "rooted traffic
//! touches only group masters" is preserved by construction. All heavy
//! arithmetic is charged to the virtual clock via [`Communicator::compute`]
//! and flop-counted via [`Communicator::charge_flops`], so the telemetry
//! layer sees the `1/P` scaling the paper claims.

use crate::ldlt::{Ordering, PivotPolicy};
use crate::local::{LdltBackend, LocalLdlt};
use dd_comm::{CommError, Communicator};
use dd_linalg::{CooBuilder, DMat};
use std::sync::Arc;

/// Tags for the factorization panels and the two solve sweeps. The master
/// communicator is a dedicated split, but distinct tags keep the journal
/// self-describing.
const TAG_PANEL: u64 = 111;
const TAG_FWD: u64 = 112;
const TAG_BWD: u64 = 113;

/// Static-pivot tolerance of every factorization of the coarse operator
/// `E`: a pivot below `rel_tol` times the matrix's ∞-norm is boosted
/// ([`PivotPolicy::Boost`]). `dd_core::coarse` factors an assembled `E`
/// under it, and each master's diagonal block here reads it too.
pub const COARSE_BOOST_REL_TOL: f64 = 1e-12;

/// One master's share of the distributed LDLᵀ factorization of `E`.
///
/// Built collectively by [`DistLdlt::try_factor`] on every rank of the master
/// communicator; applied collectively by [`DistLdlt::try_solve_panel`].
pub struct DistLdlt {
    /// Block-row boundaries of all `P` masters (`P + 1` entries,
    /// `bounds[P] = dim(E)`).
    bounds: Vec<usize>,
    /// This master's block index (its rank on the master communicator).
    my_block: usize,
    /// This master's upper row strip: rows
    /// `bounds[my_block]..bounds[my_block + 1]`, columns
    /// `bounds[my_block]..dim(E)` (local column `j` is global column
    /// `bounds[my_block] + j`). After [`DistLdlt::try_factor`], the leading
    /// `n_p` columns hold the Schur-updated diagonal block (factored
    /// separately into `diag`) and the trailing columns hold the frozen
    /// `E'_p,trailing = (D Lᵀ)_p,trailing` panels both sweeps read.
    strip: DMat,
    /// Local factor of the Schur-updated diagonal block `A'_pp`.
    diag: LocalLdlt,
    /// Multiply-adds spent in this master's share of the factorization.
    flops: u64,
}

impl DistLdlt {
    /// Cooperatively factor the block-row-distributed matrix. Collective
    /// over `comm` (one call per master, `comm.rank()` = block index).
    ///
    /// `bounds` are the global block-row boundaries (identical on every
    /// master); `strip` is this master's dense **upper** row strip of the
    /// assembled matrix: `bounds[me+1] − bounds[me]` rows by
    /// `bounds[P] − bounds[me]` columns (its rows, from its own diagonal
    /// block to the right edge — the sub-diagonal values live transposed
    /// in the earlier masters' strips and are never materialized).
    ///
    /// Never fails numerically: tiny pivots are boosted exactly as in the
    /// redundant path, so rank-deficient coarse operators act as
    /// pseudo-inverses there and here alike. The fan-in receives run under
    /// the communicator's ambient [`dd_comm::RetryPolicy`], an armed
    /// `e-factorization-dist` kill fires at the step boundaries (so deaths
    /// land mid-fan-in), and dead peers or a revoked communicator surface
    /// as typed [`CommError`]s instead of panics.
    ///
    /// # Errors
    /// [`CommError::RankDead`] (own rank killed at a failpoint, or a peer
    /// died mid-factorization), [`CommError::Revoked`] (recovery started
    /// elsewhere), [`CommError::Timeout`] (retry budget exhausted),
    /// [`CommError::Malformed`] (a panel of the wrong length arrived).
    pub fn try_factor(
        comm: &Communicator,
        bounds: Vec<usize>,
        mut strip: DMat,
    ) -> Result<DistLdlt, CommError> {
        let p = comm.size();
        let me = comm.rank();
        assert_eq!(bounds.len(), p + 1, "one boundary per master plus dim(E)");
        let dim = *bounds.last().unwrap();
        let (r0, r1) = (bounds[me], bounds[me + 1]);
        let np = r1 - r0;
        assert_eq!(strip.rows(), np, "strip must hold this master's rows");
        assert_eq!(strip.cols(), dim - r0, "strip must span columns r0..dim");
        let policy = comm.retry_policy();
        let mut diag: Option<LocalLdlt> = None;
        let mut flops = 0u64;
        for k in 0..p {
            comm.failpoint("e-factorization-dist")?;
            let (c0, c1) = (bounds[k], bounds[k + 1]);
            let nk = c1 - c0;
            let mt = dim - c1;
            if me == k {
                // Factor my Schur-updated diagonal block with the shared
                // boosted policy, then fan the pivot panel out to the
                // masters still holding trailing rows. Column `j` of the
                // panel is global column `c1 + j`, local column `nk + j`.
                let f = comm.compute(|| factor_diag_block(&strip, nk));
                let mut panel = vec![0.0; nk * mt];
                comm.compute(|| {
                    for j in 0..mt {
                        for r in 0..nk {
                            panel[j * nk + r] = strip[(r, nk + j)];
                        }
                    }
                    f.solve_panel_with(&mut panel, nk, mt, &mut Vec::new());
                });
                let solve_flops = (4 * (f.nnz_l() + nk) * mt) as u64;
                comm.charge_flops(solve_flops);
                flops += solve_flops;
                for q in me + 1..p {
                    // Master `q` needs columns `bounds[q]..dim` of both the
                    // solved panel `Y_k` (its own block's columns are its
                    // multiplier `L_qkᵀ`) and the raw rows `W_k` (the
                    // update operand): `E'_qj ← E'_qj − Y_kqᵀ W_kj`.
                    let off = bounds[q] - c1;
                    let m = dim - bounds[q];
                    let mut msg = vec![0.0; 2 * nk * m];
                    msg[..nk * m].copy_from_slice(&panel[off * nk..(off + m) * nk]);
                    for j in 0..m {
                        for r in 0..nk {
                            msg[nk * m + j * nk + r] = strip[(r, nk + off + j)];
                        }
                    }
                    comm.send(q, TAG_PANEL, msg);
                }
                diag = Some(f);
            } else if me > k {
                let msg: Vec<f64> = comm.try_recv_timeout(k, TAG_PANEL, &policy)?;
                let m = dim - r0;
                check_len(k, TAG_PANEL, msg.len(), 2 * nk * m)?;
                let (y, w) = msg.split_at(nk * m);
                // Trailing update of my strip only: column `j` of the
                // received slices is my local column `j`, and my
                // multiplier rows are the leading `np` columns of `y`.
                comm.compute(|| {
                    for j in 0..m {
                        let wc = &w[j * nk..(j + 1) * nk];
                        for r in 0..np {
                            let yc = &y[r * nk..(r + 1) * nk];
                            let mut acc = 0.0;
                            for t in 0..nk {
                                acc += yc[t] * wc[t];
                            }
                            strip[(r, j)] -= acc;
                        }
                    }
                });
                let upd_flops = 2 * (np * nk * m) as u64;
                comm.charge_flops(upd_flops);
                flops += upd_flops;
            }
        }
        Ok(DistLdlt {
            bounds,
            my_block: me,
            strip,
            diag: diag.expect("every master owns exactly one diagonal block"),
            flops,
        })
    }

    /// Cooperatively solve `E x = w` for this master's slice, `k`
    /// right-hand sides at once. Collective over `comm`; `w_local` holds
    /// this master's block of each right-hand side, one column after
    /// another, and so does the result — exactly the ν-sized slices the
    /// group gather/scatter already moves. Every message of the sweeps
    /// carries all `k` columns, so the solve sends what one column sends,
    /// `k` times longer; each column's arithmetic is the one-column
    /// solve's (`k = 1`), in its order, so it equals that solve to the bit.
    /// Sweep receives run under the communicator's ambient retry policy and
    /// an armed `e-solve-dist` kill fires at the sweep boundaries.
    ///
    /// # Errors
    /// Same classification as [`DistLdlt::try_factor`].
    pub fn try_solve_panel(
        &self,
        comm: &Communicator,
        w_local: &[f64],
        k: usize,
    ) -> Result<Vec<f64>, CommError> {
        let p = comm.size();
        let me = self.my_block;
        debug_assert_eq!(me, comm.rank());
        let np = self.rows();
        let r0 = self.row_start();
        assert_eq!(w_local.len(), np * k);
        let policy = comm.retry_policy();
        let mut work = Vec::new();
        comm.failpoint("e-solve-dist")?;
        // Forward sweep: v_me = w_me − Σ_{j<me} E'_j,meᵀ t_j, assembled
        // from the earlier masters' ν-sized contributions.
        let mut z = w_local.to_vec();
        for j in 0..me {
            let contrib: Vec<f64> = comm.try_recv_timeout(j, TAG_FWD, &policy)?;
            check_len(j, TAG_FWD, contrib.len(), np * k)?;
            for (zi, c) in z.iter_mut().zip(&contrib) {
                *zi -= c;
            }
            comm.charge_flops((np * k) as u64);
        }
        // t_me = A'_me,me⁻¹ v_me is both the forward unknown and the
        // diagonal sweep D⁻¹.
        let t = comm.compute(|| {
            self.diag.solve_panel_with(&mut z, np, k, &mut work);
            z
        });
        comm.charge_flops((4 * (self.diag.nnz_l() + np) * k) as u64);
        for q in me + 1..p {
            // L_q,me t_me = E'_me,qᵀ t_me — my strip's block-q columns.
            let nq = self.bounds[q + 1] - self.bounds[q];
            let base = self.bounds[q] - r0;
            let mut contrib = vec![0.0; nq * k];
            comm.compute(|| {
                for (tc, out) in t.chunks_exact(np.max(1)).zip(contrib.chunks_exact_mut(nq)) {
                    for (c, cv) in out.iter_mut().enumerate() {
                        let mut acc = 0.0;
                        for (r, &tv) in tc.iter().enumerate() {
                            acc += self.strip[(r, base + c)] * tv;
                        }
                        *cv = acc;
                    }
                }
            });
            comm.charge_flops((2 * np * nq * k) as u64);
            comm.send(q, TAG_FWD, contrib);
        }
        // Backward sweep: x_me = t_me − A'_me,me⁻¹ Σ_{q>me} E'_me,q x_q,
        // reading the later solution slices against my own strip.
        comm.failpoint("e-solve-dist")?;
        let mut x_me = t;
        if me + 1 < p {
            let mut acc = vec![0.0; np * k];
            for q in me + 1..p {
                let xq: Arc<Vec<f64>> = comm.try_recv_timeout(q, TAG_BWD, &policy)?;
                let nq = self.bounds[q + 1] - self.bounds[q];
                check_len(q, TAG_BWD, xq.len(), nq * k)?;
                let base = self.bounds[q] - r0;
                comm.compute(|| {
                    for (xc, ac) in xq.chunks_exact(nq.max(1)).zip(acc.chunks_exact_mut(np)) {
                        for (c, &xv) in xc.iter().enumerate() {
                            if xv == 0.0 {
                                continue;
                            }
                            for (r, av) in ac.iter_mut().enumerate() {
                                *av += self.strip[(r, base + c)] * xv;
                            }
                        }
                    }
                });
                comm.charge_flops(2 * (np * xq.len()) as u64);
            }
            comm.compute(|| self.diag.solve_panel_with(&mut acc, np, k, &mut work));
            comm.charge_flops((4 * (self.diag.nnz_l() + np) * k) as u64);
            for (x, c) in x_me.iter_mut().zip(&acc) {
                *x -= c;
            }
        }
        // Fan the finished slice out to every earlier master as a shared
        // handle: one buffer clone total instead of one per destination
        // (the wire-size/cost accounting is unchanged — see `WireSize for
        // Arc<T>` in dd-comm).
        if me > 0 {
            let x_shared = Arc::new(x_me.clone());
            for earlier in 0..me {
                comm.send(earlier, TAG_BWD, Arc::clone(&x_shared));
            }
        }
        Ok(x_me)
    }

    /// Rows of this master's block (its slice length in the solves).
    pub fn rows(&self) -> usize {
        self.bounds[self.my_block + 1] - self.bounds[self.my_block]
    }

    /// Global row offset of this master's block.
    pub fn row_start(&self) -> usize {
        self.bounds[self.my_block]
    }

    /// Nonzeros of this master's share of the factorization: the frozen
    /// trailing panels of its upper strip plus the local diagonal-block
    /// factor — the per-master `nnz(L)` statistic of the
    /// redundant-vs-distributed ablation (the redundant path stores the
    /// **full** `nnz(L)` on every master).
    pub fn nnz_l(&self) -> usize {
        let np = self.rows();
        let mut nnz = self.diag.nnz_l() + np; // L block + D of the diagonal
        for c in np..self.strip.cols() {
            for r in 0..np {
                if self.strip[(r, c)] != 0.0 {
                    nnz += 1;
                }
            }
        }
        nnz
    }

    /// Multiply-adds this master spent in [`DistLdlt::try_factor`] (panel
    /// solves + trailing updates) — comparable with
    /// [`LocalLdlt::flops_estimate`] on the redundant path.
    pub fn flops(&self) -> u64 {
        self.flops
    }

    /// Pivots boosted in this master's diagonal block.
    pub fn n_boosted(&self) -> usize {
        self.diag.n_boosted()
    }
}

/// A received message must hold `expected` values: a short one would be
/// split or summed short, a long one summed past its end.
fn check_len(src: usize, tag: u64, len: usize, expected: usize) -> Result<(), CommError> {
    if len == expected {
        return Ok(());
    }
    Err(CommError::Malformed {
        src,
        tag,
        len,
        expected,
    })
}

/// Factor the dense diagonal block `strip[:, 0..nk]` through the sparse
/// kernel so the pivoting semantics (ordering aside) match the redundant
/// path bit for bit on the same sequence of pivots.
fn factor_diag_block(strip: &DMat, nk: usize) -> LocalLdlt {
    let mut coo = CooBuilder::new(nk, nk);
    for r in 0..nk {
        for c in 0..nk {
            coo.push(r, c, strip[(r, c)]);
        }
    }
    LocalLdlt::factor_with(
        &coo.to_csr(),
        Ordering::Natural,
        PivotPolicy::Boost {
            rel_tol: COARSE_BOOST_REL_TOL,
        },
        LdltBackend::Scalar,
    )
    .expect("boosted static pivoting cannot reject a pivot")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_comm::{CostModel, World};
    use dd_linalg::CsrMatrix;

    /// Deterministic test matrix: SPD, banded, mildly heterogeneous —
    /// shaped like a small coarse operator.
    fn test_matrix(n: usize, band: usize) -> CsrMatrix {
        let mut coo = CooBuilder::new(n, n);
        for i in 0..n {
            let mut diag = 1.0 + (i % 7) as f64;
            for j in i.saturating_sub(band)..(i + band + 1).min(n) {
                if i == j {
                    continue;
                }
                let v = -1.0 / (1.0 + (i as f64 - j as f64).abs());
                coo.push(i, j, v);
                diag += v.abs();
            }
            coo.push(i, i, diag);
        }
        coo.to_csr()
    }

    /// One master's upper row strip: rows `r0..r1`, columns `r0..n`.
    fn upper_strip(a: &CsrMatrix, r0: usize, r1: usize) -> DMat {
        let mut m = DMat::zeros(r1 - r0, a.cols() - r0);
        for r in r0..r1 {
            for (c, v) in a.row(r) {
                if c >= r0 {
                    m[(r - r0, c - r0)] = v;
                }
            }
        }
        m
    }

    fn check_distributed_solve(n: usize, bounds: Vec<usize>, rhs: Vec<f64>) {
        let a = test_matrix(n, 3);
        let p = bounds.len() - 1;
        let reference = LocalLdlt::factor_with(
            &a,
            Ordering::MinDegree,
            PivotPolicy::Boost {
                rel_tol: COARSE_BOOST_REL_TOL,
            },
            LdltBackend::Scalar,
        )
        .unwrap()
        .solve(&rhs);
        let a2 = a.clone();
        let b2 = bounds.clone();
        let r2 = rhs.clone();
        let pieces = World::run(p, CostModel::default(), move |comm| {
            let me = comm.rank();
            let strip = upper_strip(&a2, b2[me], b2[me + 1]);
            let f = DistLdlt::try_factor(comm, b2.clone(), strip).unwrap();
            assert!(f.nnz_l() > 0);
            let w = r2[b2[me]..b2[me + 1]].to_vec();
            f.try_solve_panel(comm, &w, 1).unwrap()
        });
        let x: Vec<f64> = pieces.into_iter().flatten().collect();
        let num: f64 = x
            .iter()
            .zip(&reference)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        let den: f64 = reference.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(
            num / den.max(1e-300) < 1e-12,
            "distributed solve off by {} (n = {n}, P = {p})",
            num / den
        );
    }

    fn rhs_for(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 13 + 5) % 17) as f64 - 8.0).collect()
    }

    #[test]
    fn matches_sequential_on_even_blocks() {
        let n = 24;
        check_distributed_solve(n, vec![0, 6, 12, 18, 24], rhs_for(n));
    }

    #[test]
    fn matches_sequential_on_skewed_blocks() {
        // Non-uniform boundaries like the paper's recurrence produces.
        let n = 30;
        check_distributed_solve(n, vec![0, 4, 9, 16, 30], rhs_for(n));
    }

    #[test]
    fn single_master_degenerates_to_local_solve() {
        let n = 12;
        check_distributed_solve(n, vec![0, 12], rhs_for(n));
    }

    #[test]
    fn two_masters_extreme_imbalance() {
        let n = 16;
        check_distributed_solve(n, vec![0, 1, 16], rhs_for(n));
    }

    /// A panel of `k` right-hand sides is `k` single solves to the bit, in
    /// the messages of one: on 2, 3 and 4 masters, with a zero column and
    /// columns of mixed sign.
    #[test]
    fn panel_solve_is_k_single_solves_bitwise_in_the_messages_of_one() {
        const K: usize = 3;
        let n = 30;
        let a = test_matrix(n, 3);
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for bounds in [vec![0, 13, 30], vec![0, 4, 9, 30], vec![0, 6, 12, 18, 30]] {
            let p = bounds.len() - 1;
            let (a, b) = (a.clone(), bounds.clone());
            let (rows, trace) = World::run_traced(p, CostModel::default(), move |comm| {
                let me = comm.rank();
                let f = DistLdlt::try_factor(comm, b.clone(), upper_strip(&a, b[me], b[me + 1]))
                    .unwrap();
                let cols: Vec<Vec<f64>> = (0..K)
                    .map(|c| {
                        (b[me]..b[me + 1])
                            .map(|i| match c {
                                0 => 0.0,
                                _ => ((i * 13 + 5 * c) % 17) as f64 - 8.0,
                            })
                            .collect()
                    })
                    .collect();
                comm.trace_phase("panel");
                let panel = f.try_solve_panel(comm, &cols.concat(), K).unwrap();
                comm.trace_phase("singles");
                let singles: Vec<f64> = cols
                    .iter()
                    .flat_map(|w| f.try_solve_panel(comm, w, 1).unwrap())
                    .collect();
                comm.trace_phase("one");
                f.try_solve_panel(comm, &cols[1], 1).unwrap();
                (panel, singles)
            });
            for (panel, singles) in rows {
                assert_eq!(bits(&panel), bits(&singles), "P = {p}");
            }
            let sends = |phase: &str| trace.phase_totals(phase).sends;
            assert!(sends("one") > 0);
            assert_eq!(sends("panel"), sends("one"), "P = {p}");
            assert_eq!(sends("singles"), K as u64 * sends("one"), "P = {p}");
            assert_eq!(
                trace.phase_totals("panel").send_bytes,
                trace.phase_totals("singles").send_bytes
            );
        }
    }

    /// Factor and solve `test_matrix(12, 3)` on two masters (blocks of 5
    /// and 7 rows) with a one-value message on `tag` sent ahead of the real
    /// one — by master 0 for the panel and the forward sweep, by master 1
    /// for the backward sweep — and return each master's outcome.
    fn solve_after_short_message(tag: u64) -> Vec<Result<Vec<f64>, CommError>> {
        let n = 12;
        let a = test_matrix(n, 3);
        let bounds = vec![0, 5, n];
        let rhs = rhs_for(n);
        World::run(2, CostModel::default(), |comm| {
            let me = comm.rank();
            let send_short = || match (tag, me) {
                (TAG_BWD, 1) => comm.send(0, tag, Arc::new(vec![0.0])),
                (TAG_PANEL | TAG_FWD, 0) => comm.send(1, tag, vec![0.0]),
                _ => {}
            };
            if tag == TAG_PANEL {
                send_short();
            }
            let strip = upper_strip(&a, bounds[me], bounds[me + 1]);
            let f = DistLdlt::try_factor(comm, bounds.clone(), strip)?;
            if tag != TAG_PANEL {
                send_short();
            }
            f.try_solve_panel(comm, &rhs[bounds[me]..bounds[me + 1]], 1)
        })
    }

    #[test]
    fn short_factor_panel_is_malformed() {
        let out = solve_after_short_message(TAG_PANEL);
        let expected = CommError::Malformed {
            src: 0,
            tag: TAG_PANEL,
            len: 1,
            expected: 2 * 5 * 7,
        };
        assert_eq!(out[1].as_ref().unwrap_err(), &expected);
    }

    #[test]
    fn short_forward_contribution_is_malformed() {
        let out = solve_after_short_message(TAG_FWD);
        let expected = CommError::Malformed {
            src: 0,
            tag: TAG_FWD,
            len: 1,
            expected: 7,
        };
        assert_eq!(out[1].as_ref().unwrap_err(), &expected);
    }

    #[test]
    fn short_backward_slice_is_malformed() {
        let out = solve_after_short_message(TAG_BWD);
        let expected = CommError::Malformed {
            src: 1,
            tag: TAG_BWD,
            len: 1,
            expected: 7,
        };
        assert_eq!(out[0].as_ref().unwrap_err(), &expected);
    }

    #[test]
    fn per_master_factor_shrinks_with_more_masters() {
        // The whole point: max per-master nnz(L) must drop as P grows.
        let n = 40;
        let a = test_matrix(n, 5);
        let max_nnz = |bounds: Vec<usize>| -> usize {
            let p = bounds.len() - 1;
            let a = a.clone();
            World::run(p, CostModel::default(), move |comm| {
                let me = comm.rank();
                let strip = upper_strip(&a, bounds[me], bounds[me + 1]);
                DistLdlt::try_factor(comm, bounds.clone(), strip)
                    .unwrap()
                    .nnz_l()
            })
            .into_iter()
            .max()
            .unwrap()
        };
        let one = max_nnz(vec![0, 40]);
        let four = max_nnz(vec![0, 10, 20, 30, 40]);
        assert!(
            four < one,
            "per-master factor must shrink: P=4 gives {four}, P=1 gives {one}"
        );
    }

    #[test]
    fn boosted_rank_deficient_block_still_solves_consistent_rhs() {
        // A singular matrix (duplicate row/col pattern) with a consistent
        // RHS: the boosted pivots annihilate the null directions, and the
        // distributed and sequential answers must agree on the range.
        let n = 8;
        let mut coo = CooBuilder::new(n, n);
        for i in 0..n - 1 {
            coo.push(i, i, 2.0);
            if i + 1 < n - 1 {
                coo.push(i, i + 1, -1.0);
                coo.push(i + 1, i, -1.0);
            }
        }
        // last row/col identically zero → one boosted pivot
        let a = coo.to_csr();
        let mut rhs = vec![1.0; n];
        rhs[n - 1] = 0.0;
        let reference = LocalLdlt::factor_with(
            &a,
            Ordering::Natural,
            PivotPolicy::Boost {
                rel_tol: COARSE_BOOST_REL_TOL,
            },
            LdltBackend::Scalar,
        )
        .unwrap()
        .solve(&rhs);
        let bounds = vec![0usize, 4, 8];
        let boosted = World::run(2, CostModel::default(), move |comm| {
            let me = comm.rank();
            let strip = upper_strip(&a, bounds[me], bounds[me + 1]);
            let f = DistLdlt::try_factor(comm, bounds.clone(), strip).unwrap();
            let w = rhs[bounds[me]..bounds[me + 1]].to_vec();
            (f.n_boosted(), f.try_solve_panel(comm, &w, 1).unwrap())
        });
        assert_eq!(boosted.iter().map(|(b, _)| b).sum::<usize>(), 1);
        let x: Vec<f64> = boosted.into_iter().flat_map(|(_, x)| x).collect();
        for (a, b) in x.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-9, "boosted solves diverge: {a} vs {b}");
        }
    }
}
