//! The resident state of a set-up SPMD solve and the distributed applies of
//! the solve phase, written once over "the subdomains this rank owns".
//!
//! A rank hosts one or more subdomains (the *owner map*); its vectors are
//! the owned subdomains' locals, concatenated in ascending subdomain order.
//! One subdomain per rank — the paper's layout — is the identity owner map,
//! and on it the applies below send exactly the paper's messages: one halo
//! message per neighbour per exchange, one gather and one scatter per
//! coarse correction (DESIGN.md, "resident state, owned subdomains, halo
//! plan").
//!
//! One set-up fills a [`PreparedMulti`], `spmd::try_setup_on`
//! (Algorithms 1–2 on any owner map). Everything after set-up — eq. 5, the
//! partition-of-unity inner product, RAS, the coarse correction of §3.2 and
//! `P⁻¹_A-DEF1` (eq. 6) with its fused payload (§3.5) — lives here.
//!
//! Per Krylov iteration the two-level applies take two halo rounds and no
//! SpMV: the §3.1 identity `A R_sᵀ W_s = R_sᵀ T_s` gives `A q` from one
//! round of `T_s y_s`, and the RAS round carries the coarse shares `W_s y_s`
//! with it. The right-preconditioned step also needs `A z`; it rides on the
//! RAS round as a second column (`A R_sᵀ D_s = R_sᵀ A_s D_s`), so that step
//! is two rounds and one local SpMV where eq. 6 followed by an operator
//! apply was four and two (DESIGN.md, "halo rounds per iteration").

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;

use crate::decomp::Decomposition;
use crate::error::{CoarseOutcome, PhaseOutcome, RunReport, SpmdError};
use crate::spmd::{
    comm_interrupt, dist_interrupt, interrupt_to_spmd, solve_failpoint, SetupLabels, SolverKind,
    SpmdOpts, SpmdReport,
};
use dd_comm::Communicator;
use dd_krylov::operator::Reduction;
use dd_krylov::{
    fused_pipelined_gmres_panel, pipelined_gmres_panel, try_gmres_panel, CheckpointCfg,
    FusedPreconditioner, GmresWorkspace, InnerProduct, Operator, Preconditioner, RecycleSpace,
    SolveInterrupt, SolveResult, SolveStatus,
};
use dd_linalg::{vector, BsrMatrix, CsrMatrix, DMat};
use dd_solver::{DistLdlt, LocalLdlt};

const TAG_X: u64 = 103; // SpMV / consistency exchanges

/// Per-epoch tag offset keeping successive recovered epochs' p2p traffic in
/// disjoint tag spaces, so a second recovery can never consume a stale
/// in-flight message of the first.
pub(crate) fn epoch_salt(comm: &Communicator) -> u64 {
    comm.epoch() as u64 * 10_000_000
}

// -------------------------------------------------------------- halo plan

/// The neighbour exchange `out_s += Σ_{j ∈ O_s} R_s R_jᵀ t_j` of every
/// owned subdomain `s` — the communication pattern of both the SpMV (eq. 5)
/// and the coarse prolongation (eq. 12) — planned once at set-up over
/// concatenated-vector indices.
///
/// Each exchange sends one packed message per neighbouring *rank*, its
/// segments ordered by (source subdomain, destination subdomain); links
/// between two subdomains of this rank are index reads from the sender's
/// slice. On the identity map that is one message per neighbour, tag 103.
///
/// The tag is salted by the epoch and by the communicator's collective
/// count when the plan was built: a set-up repeated on one communicator (a
/// corruption replay, a server's re-set-up) never reads the halo messages
/// an abandoned solve left in flight. Set-ups therefore build the plan
/// before their first collective, where that count is 0 on a fresh world.
pub(crate) struct HaloPlan {
    tag: u64,
    /// Length of one column: this rank's concatenated dofs.
    n: usize,
    /// Neighbouring ranks, ascending.
    peers: Vec<Peer>,
    /// One addition per (owned subdomain, link), in that order — the order
    /// the sums have always been taken in, so answers do not move.
    adds: Vec<Add>,
}

struct Peer {
    rank: usize,
    /// Indices packed into the message sent to `rank`.
    pack: Vec<usize>,
    /// Length of the message `rank` sends back.
    recv_len: usize,
}

struct Add {
    /// Indices of the link's shared dofs in the receiving subdomain.
    dst: Vec<usize>,
    src: Source,
}

enum Source {
    /// Same host: the shared dofs' indices in the sending subdomain.
    Local(Vec<usize>),
    /// Segment of the message received from `peers[peer]`.
    Remote { peer: usize, offset: usize },
}

impl HaloPlan {
    /// `host[s]` is the communicator rank hosting subdomain `s`; `owned`
    /// (ascending) and `starts` describe this rank's concatenation.
    pub(crate) fn build(
        decomp: &Decomposition,
        comm: &Communicator,
        owned: &[usize],
        starts: &[usize],
        host: &[usize],
    ) -> Self {
        let me = comm.rank();
        let links = |i: usize| decomp.subdomains[owned[i]].neighbors.iter();
        let concat = |i: usize, shared: &[u32]| -> Vec<usize> {
            shared.iter().map(|&k| starts[i] + k as usize).collect()
        };
        let mut ranks: Vec<usize> = (0..owned.len())
            .flat_map(|i| links(i).map(|l| host[l.j]))
            .filter(|&r| r != me)
            .collect();
        ranks.sort_unstable();
        ranks.dedup();
        let mut peers: Vec<Peer> = ranks
            .iter()
            .map(|&rank| Peer {
                rank,
                pack: Vec::new(),
                recv_len: 0,
            })
            .collect();
        // Where each incoming segment starts: the sender packs its links in
        // (source, destination) order, and a link is as long seen from
        // either side.
        let mut incoming: BTreeMap<(usize, usize, usize), usize> = BTreeMap::new();
        for (i, &s) in owned.iter().enumerate() {
            for l in links(i) {
                if let Ok(p) = ranks.binary_search(&host[l.j]) {
                    incoming.insert((p, l.j, s), l.shared.len());
                }
            }
        }
        for ((p, _, _), len) in incoming.iter_mut() {
            let offset = peers[*p].recv_len;
            peers[*p].recv_len += *len;
            *len = offset;
        }
        let mut adds = Vec::new();
        for (i, &s) in owned.iter().enumerate() {
            for l in links(i) {
                // What this side of the link receives into, it also sends.
                let dst = concat(i, &l.shared);
                let src = match ranks.binary_search(&host[l.j]) {
                    Ok(peer) => {
                        peers[peer].pack.extend_from_slice(&dst);
                        Source::Remote {
                            peer,
                            offset: incoming[&(peer, l.j, s)],
                        }
                    }
                    Err(_) => {
                        let i2 = owned
                            .binary_search(&l.j)
                            .expect("same-host neighbour is owned");
                        let back = links(i2)
                            .find(|b| b.j == s)
                            .expect("neighbour links are symmetric");
                        Source::Local(concat(i2, &back.shared))
                    }
                };
                adds.push(Add { dst, src });
            }
        }
        HaloPlan {
            tag: TAG_X + epoch_salt(comm) + (comm.collective_seq() << 32),
            n: starts[owned.len()],
            peers,
            adds,
        }
    }

    /// One exchange of panels of columns: `out[c] += Σ R_s R_jᵀ t[c]_j` for
    /// every column `c` of every `(t, out)` pair, a column being
    /// `self.n` concatenated values. Each neighbouring rank gets one
    /// message, its segments of every column one column after another (the
    /// pairs' columns in order), and every column's additions run in the
    /// order of a one-column exchange — so a `k`-column exchange is `k`
    /// one-column exchanges to the bit, in `1/k` of the messages. `inbox`
    /// holds the received messages, one slot per peer. Receives run under
    /// the ambient bounded retry policy; a dead or revoked peer, or a
    /// message of the wrong length, surfaces as a [`SolveInterrupt`].
    // dd:hot — two rounds per two-level Krylov iteration (three left-preconditioned)
    fn exchange_add(
        &self,
        comm: &Communicator,
        inbox: &mut [Vec<f64>],
        pairs: &mut [(&[f64], &mut [f64])],
    ) -> Result<(), SolveInterrupt> {
        let n = self.n;
        let k: usize = pairs
            .iter()
            .map(|(t, _)| t.len().checked_div(n).unwrap_or(0))
            .sum();
        let policy = comm.retry_policy();
        for peer in &self.peers {
            // dd:cold — the message itself: it moves into the peer's mailbox
            let mut payload = Vec::with_capacity(k * peer.pack.len());
            for (t, _) in pairs.iter() {
                for col in t.chunks_exact(n.max(1)) {
                    payload.extend(peer.pack.iter().map(|&g| col[g]));
                }
            }
            comm.send(peer.rank, self.tag, payload);
        }
        for (peer, slot) in self.peers.iter().zip(inbox.iter_mut()) {
            *slot = comm
                .try_recv_timeout(peer.rank, self.tag, &policy)
                .map_err(comm_interrupt)?;
            if slot.len() != k * peer.recv_len {
                // dd:cold — a malformed message ends the solve
                return Err(SolveInterrupt::new(format!(
                    "halo message from rank {} holds {} values, expected {} columns of {}",
                    peer.rank,
                    slot.len(),
                    k,
                    peer.recv_len
                )));
            }
        }
        let mut c = 0;
        for (t, out) in pairs.iter_mut() {
            for (tc, oc) in t.chunks_exact(n.max(1)).zip(out.chunks_exact_mut(n.max(1))) {
                for add in &self.adds {
                    match &add.src {
                        Source::Local(src) => {
                            for (&k, &g) in add.dst.iter().zip(src) {
                                oc[k] += tc[g];
                            }
                        }
                        Source::Remote { peer, offset } => {
                            let at = c * self.peers[*peer].recv_len + offset;
                            for (&k, &v) in add.dst.iter().zip(&inbox[*peer][at..]) {
                                oc[k] += v;
                            }
                        }
                    }
                }
                c += 1;
            }
        }
        Ok(())
    }

    /// Neighbouring ranks: the peers every exchange sends to.
    pub(crate) fn n_peers(&self) -> usize {
        self.peers.len()
    }
}

// ------------------------------------------------------------ the applies

/// One owned subdomain's `A_s` of the operator being solved, with its
/// blocked companion when it has one.
#[derive(Clone, Copy)]
struct LocalA<'a> {
    csr: &'a CsrMatrix,
    bsr: Option<&'a BsrMatrix>,
}

impl LocalA<'_> {
    /// `y_c ← A_s x_c` for `k` columns `ld` apart in `x` and `y`, through
    /// the blocked storage when there is one (each column bitwise the CSR
    /// product).
    fn spmv_panel(&self, x: &[f64], y: &mut [f64], ld: usize, k: usize) {
        let n = self.csr.rows();
        match self.bsr {
            Some(b) => {
                for c in 0..k {
                    b.spmv(&x[c * ld..c * ld + n], &mut y[c * ld..c * ld + n]);
                }
            }
            None => self.csr.spmv_panel(x, y, ld, k),
        }
    }

    /// `A_s W`, through the blocked storage when there is one.
    fn mm(&self, w: &DMat) -> DMat {
        match self.bsr {
            Some(b) => b.bsrmm(w),
            None => self.csr.csrmm(w),
        }
    }

    fn nnz(&self) -> usize {
        self.csr.nnz()
    }
}

/// `A(θ) = A + θ·diag(A)` on the subdomains one rank owns: their Dirichlet
/// matrices and blocked companions, scaled as [`Decomposition::perturb_diag`]
/// scales them — all an admissible apply ([`PreparedMulti::try_apply_on`])
/// reads of a perturbed operator. Built by [`PreparedMulti::perturbed`].
pub struct PerturbedOperator {
    /// `A_s(θ)` and its blocked companion, aligned with the owned subdomains.
    a: Vec<(CsrMatrix, Option<BsrMatrix>)>,
}

/// What every apply of one solve shares: the communicator, the resident
/// decomposition (partition of unity, restrictions), the `A_s` of the
/// operator being solved (the resident one or a [`PerturbedOperator`]), the
/// owned subdomains' concatenation, and the halo plan.
struct MultiCtx<'a> {
    comm: &'a Communicator,
    decomp: &'a Decomposition,
    /// `A_s` of the operator being solved, aligned with `owned`.
    a: Vec<LocalA<'a>>,
    /// Subdomains this rank owns, ascending.
    owned: &'a [usize],
    /// Concatenation offsets of the owned subdomains' locals (len+1).
    starts: &'a [usize],
    halo: &'a HaloPlan,
    inbox: RefCell<Vec<Vec<f64>>>,
}

impl MultiCtx<'_> {
    fn n_concat(&self) -> usize {
        self.starts[self.owned.len()]
    }

    /// Owned subdomains with their span in the concatenated vectors.
    fn spans(&self) -> impl Iterator<Item = (usize, std::ops::Range<usize>)> + '_ {
        self.owned
            .iter()
            .zip(self.starts.windows(2))
            .map(|(&s, w)| (s, w[0]..w[1]))
    }

    /// [`MultiCtx::spans`] with each subdomain's partition of unity and the
    /// `A_s` being solved.
    fn locals(&self) -> impl Iterator<Item = (&[f64], LocalA<'_>, std::ops::Range<usize>)> + '_ {
        self.spans()
            .zip(&self.a)
            .map(|((s, span), a)| (self.decomp.subdomains[s].d.as_slice(), *a, span))
    }

    /// One halo round of every `(t, out)` panel's columns (see
    /// [`HaloPlan::exchange_add`]).
    fn exchange_add(&self, pairs: &mut [(&[f64], &mut [f64])]) -> Result<(), SolveInterrupt> {
        self.halo
            .exchange_add(self.comm, &mut self.inbox.borrow_mut(), pairs)
    }
}

/// `v[..len]`, growing `v` first if it is shorter (a panel wider than the
/// one the scratch was sized for).
fn prefix(v: &mut Vec<f64>, len: usize) -> &mut [f64] {
    if v.len() < len {
        v.resize(len, 0.0);
    }
    &mut v[..len]
}

/// Distributed operator: `(Ax)_s = Σ_j R_s R_jᵀ A_j D_j x_j` (eq. 5), on
/// one column or on a panel of them.
struct MultiOp<'a> {
    ctx: &'a MultiCtx<'a>,
    /// Warm-path scratch `(D x, A D x)`, `k` columns of each.
    scratch: RefCell<(Vec<f64>, Vec<f64>)>,
}

impl<'a> MultiOp<'a> {
    /// For panels of up to `k` columns.
    fn new(ctx: &'a MultiCtx<'a>, k: usize) -> Self {
        let n = k * ctx.n_concat();
        MultiOp {
            ctx,
            scratch: RefCell::new((vec![0.0; n], vec![0.0; n])),
        }
    }

    /// `t_s ← A_s D_s x_s` for every owned subdomain and each of the `k`
    /// columns of `x`, `w` holding `D x`.
    // dd:hot — per-Krylov-iteration SpMV; scratch reuse keeps it allocation-free
    fn local_part_into(&self, k: usize, x: &[f64], w: &mut [f64], t: &mut [f64]) {
        let ctx = self.ctx;
        let n = ctx.n_concat();
        let mut flops = 0u64;
        ctx.comm.compute(|| {
            w.copy_from_slice(x);
            for (d, a, span) in ctx.locals() {
                for c in 0..k {
                    vector::scale_by(d, &mut w[c * n + span.start..c * n + span.end]);
                }
                a.spmv_panel(&w[span.start..], &mut t[span.start..], n, k);
                flops += (k * (2 * a.nnz() + d.len())) as u64;
            }
        });
        ctx.comm.charge_flops(flops);
    }

    /// Is `op` this operator? The preconditioners form `A z` from their own
    /// pieces only for the operator they were built on.
    fn is(&self, op: &dyn Operator) -> bool {
        std::ptr::addr_eq(op, self)
    }
}

impl Operator for MultiOp<'_> {
    fn dim(&self) -> usize {
        self.ctx.n_concat()
    }

    /// The trait's infallible form, for callers with no peer to lose; the
    /// Krylov loops all call `try_apply_panel`.
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        if let Err(e) = self.try_apply_panel(1, x, y) {
            panic!("SpMV: {e}")
        }
    }

    /// Every column's local products, then one halo round carrying them all.
    // dd:hot
    fn try_apply_panel(&self, k: usize, x: &[f64], y: &mut [f64]) -> Result<(), SolveInterrupt> {
        let len = k * self.ctx.n_concat();
        let mut scratch = self.scratch.borrow_mut();
        let (w, t) = &mut *scratch;
        let (w, t) = (prefix(w, len), prefix(t, len));
        self.local_part_into(k, x, w, t);
        y.copy_from_slice(t);
        self.ctx.exchange_add(&mut [(t, y)])
    }
}

/// Distributed inner product: `⟨u, v⟩ = Σ_s (D_s u_s)ᵀ v_s` reduced over
/// ranks — exact thanks to the partition of unity.
struct MultiDot<'a> {
    ctx: &'a MultiCtx<'a>,
    /// Warm-path scratch `D w` of a Gram row.
    scratch: RefCell<Vec<f64>>,
}

impl<'a> MultiDot<'a> {
    fn new(ctx: &'a MultiCtx<'a>) -> Self {
        MultiDot {
            ctx,
            scratch: RefCell::new(vec![0.0; ctx.n_concat()]),
        }
    }
}

impl InnerProduct for MultiDot<'_> {
    fn local_dot(&self, x: &[f64], y: &[f64]) -> f64 {
        let ctx = self.ctx;
        let mut acc = 0.0;
        for (s, span) in ctx.spans() {
            for (dk, g) in ctx.decomp.subdomains[s].d.iter().zip(span) {
                acc += dk * x[g] * y[g];
            }
        }
        ctx.comm.charge_flops(3 * x.len() as u64);
        acc
    }

    // dd:hot — the Gram rows of every Arnoldi step: `D w` is formed once a
    // row, `(d·w)·v` being what `local_dot` multiplies, and the panel kernel
    // reads it once per four basis vectors
    fn local_dots(&self, w: &[f64], vs: &[Vec<f64>], out: &mut [f64]) {
        let ctx = self.ctx;
        let mut dw = self.scratch.borrow_mut();
        for (s, span) in ctx.spans() {
            let d = &ctx.decomp.subdomains[s].d;
            vector::hadamard(d, &w[span.start..span.end], &mut dw[span]);
        }
        vector::dot_many(&dw, vs, out);
        ctx.comm.charge_flops(3 * (w.len() * vs.len()) as u64);
    }

    fn try_reduce_into(&self, locals: &[f64], out: &mut [f64]) -> Result<(), SolveInterrupt> {
        let reduced = self
            .ctx
            .comm
            .try_allreduce_sum_vec(locals.to_vec())
            .map_err(comm_interrupt)?;
        out.copy_from_slice(&reduced);
        Ok(())
    }

    fn reduce_begin<'b>(&'b self, locals: Vec<f64>) -> Result<Reduction<'b>, SolveInterrupt> {
        let comm = self.ctx.comm;
        let pending = comm.iallreduce_sum_vec(locals);
        Ok(Box::new(move || {
            comm.wait_reduce(pending).map_err(comm_interrupt)
        }))
    }

    // dd:hot — runs once per Krylov iteration on every rank
    fn on_iteration(&self, k: usize) {
        let comm = self.ctx.comm;
        comm.trace_iteration(k);
        // The `solve-iteration-K` failpoints: kills armed here take the
        // rank down at a *specific* Krylov iteration, deep enough into the
        // solve that checkpoints exist for the survivors to resume from.
        // A triggered failpoint marks this rank gone; the iteration's next
        // reduction surfaces the death as a typed error. The label is only
        // built when a fault plan is armed — production solves must not
        // pay a heap allocation per iteration for fault injection.
        if comm.failpoints_armed() {
            // dd:cold — fault-injection runs only
            let _ = comm.failpoint(&format!("solve-iteration-{k}"));
        }
        // Iteration boundaries are the membership maintenance points:
        // record the heartbeat, suspect/evict stragglers under the armed
        // policy, and revoke when joiners are waiting in the lobby.
        comm.maintain();
    }
}

/// What the coarse correction hands the RAS tail, for each column: every
/// owned subdomain's share `W_s y_s` of `q = Z E⁻¹ Zᵀ r` (not yet summed
/// over neighbours) and the consistent `A q`.
struct CoarsePart<'b> {
    wy: &'b [f64],
    aq: &'b [f64],
}

/// Distributed one-level RAS: `z_s = Σ_j R_s R_jᵀ D_j A_j⁻¹ r_j`, on one
/// column or on a panel of them.
struct MultiRas<'a> {
    /// The operator being solved: its context, and its `A_s` for `A z`.
    op: &'a MultiOp<'a>,
    /// Local factors, aligned with `ctx.owned`.
    factors: &'a [LocalLdlt],
    /// Warm-path scratch: the columns `[D A⁻¹ t + W y…, A D A⁻¹ t…]` one
    /// halo round carries.
    scratch: RefCell<Vec<f64>>,
    /// The local solves' permuted work vector, shared by all of them.
    solve_scratch: RefCell<Vec<f64>>,
}

impl<'a> MultiRas<'a> {
    /// For panels of up to `k` columns.
    fn new(op: &'a MultiOp<'a>, factors: &'a [LocalLdlt], k: usize) -> Self {
        MultiRas {
            op,
            factors,
            scratch: RefCell::new(vec![0.0; 2 * k * op.ctx.n_concat()]),
            solve_scratch: RefCell::new(Vec::with_capacity(
                k * factors.iter().map(LocalLdlt::n).max().unwrap_or(0),
            )),
        }
    }

    /// The RAS tail of both preconditioners, for the `k` columns of `t`.
    /// `u_s = A_s⁻¹ t_s` on every owned subdomain, all columns in one panel
    /// solve, then ONE halo round: of `D_s u_s + W_s y_s` (the coarse
    /// shares, when there is a coarse part), which sums to `z`, and — when
    /// `az` is asked for — of `A_s D_s u_s` as `k` more columns, which sum
    /// to `A RAS(t)` because `D_s` vanishes where `A_s` and `A` differ (the
    /// identity eq. 5 rests on), so `A z` is that plus `A q`. Each column is
    /// the one-column tail to the bit.
    ///
    /// `A q` is added after the round, not into the column: where two
    /// subdomains share a dof, each copy then sums the same two terms, so
    /// the copies of `A z` agree to the bit as an SpMV's do. Added before,
    /// they would differ in their last bits — and right-preconditioned
    /// GMRES on the κ-contrast workloads stalls on exactly that
    /// (`diffusion2d_many`: 162 iterations instead of 69).
    // dd:hot — per-iteration local solves; scratch reuse keeps this layer allocation-free
    fn try_tail(
        &self,
        k: usize,
        t: &[f64],
        coarse: Option<CoarsePart<'_>>,
        z: &mut [f64],
        az: Option<&mut [f64]>,
    ) -> Result<(), SolveInterrupt> {
        let ctx = self.op.ctx;
        // The `ras` failpoint: kills armed here take the rank down in the
        // middle of a preconditioner application, before its local solves.
        solve_failpoint(ctx.comm, "ras")?;
        let n = ctx.n_concat();
        let mut cols = self.scratch.borrow_mut();
        let (du, adu) = prefix(&mut cols, 2 * k * n).split_at_mut(k * n);
        let mut work = self.solve_scratch.borrow_mut();
        let mut flops = 0u64;
        ctx.comm.compute(|| {
            du.copy_from_slice(t);
            for ((d, a, span), factor) in ctx.locals().zip(self.factors) {
                factor.solve_panel_with(&mut du[span.start..], n, k, &mut work);
                for c in 0..k {
                    vector::scale_by(d, &mut du[c * n + span.start..c * n + span.end]);
                }
                flops += (k * (4 * factor.nnz_l() + d.len())) as u64;
                if az.is_some() {
                    a.spmv_panel(&du[span.start..], &mut adu[span.start..], n, k);
                    flops += (k * 2 * a.nnz()) as u64;
                }
                if let Some(cp) = &coarse {
                    for c in 0..k {
                        let (lo, hi) = (c * n + span.start, c * n + span.end);
                        vector::axpy(1.0, &cp.wy[lo..hi], &mut du[lo..hi]);
                    }
                    flops += (k * 2 * d.len()) as u64;
                }
            }
        });
        ctx.comm.charge_flops(flops);
        z.copy_from_slice(du);
        match az {
            None => ctx.exchange_add(&mut [(du, z)]),
            Some(az) => {
                az.copy_from_slice(adu);
                ctx.exchange_add(&mut [(du, z), (adu, az)])?;
                if let Some(cp) = &coarse {
                    vector::axpy(1.0, cp.aq, az);
                }
                Ok(())
            }
        }
    }
}

/// The right-preconditioned step of a distributed preconditioner `pc` for
/// an operator `op` other than the one it was built on: per column,
/// `z ← M⁻¹ r` and then `w ← A z` — the trait's default order.
fn apply_then_op(
    pc: &dyn Preconditioner,
    op: &dyn Operator,
    k: usize,
    r: &[f64],
    z: &mut [f64],
    w: &mut [f64],
) -> Result<(), SolveInterrupt> {
    let n = r.len() / k.max(1);
    for c in 0..k {
        let col = c * n..(c + 1) * n;
        pc.try_apply_panel(1, &r[col.clone()], &mut z[col.clone()])?;
        op.try_apply_panel(1, &z[col.clone()], &mut w[col])?;
    }
    Ok(())
}

impl Preconditioner for MultiRas<'_> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        if let Err(e) = self.try_apply_panel(1, r, z) {
            panic!("RAS: {e}")
        }
    }

    // dd:hot
    fn try_apply_panel(&self, k: usize, r: &[f64], z: &mut [f64]) -> Result<(), SolveInterrupt> {
        self.try_tail(k, r, None, z, None)
    }

    /// `A z` rides on the RAS round as `k` more columns: one round, one
    /// local SpMV per column, instead of a round for `z` and a full SpMV
    /// after it.
    fn try_apply_panel_with_op(
        &self,
        op: &dyn Operator,
        k: usize,
        r: &[f64],
        z: &mut [f64],
        w: &mut [f64],
    ) -> Result<(), SolveInterrupt> {
        if !self.op.is(op) {
            return apply_then_op(self, op, k, r, z, w);
        }
        self.try_tail(k, r, None, z, Some(w))
    }
}

/// A master's share of the factored coarse operator `E`.
pub(crate) enum MasterSolve {
    /// The full factorization, held redundantly by every master, beside the
    /// assembled `E` it came from (a few KiB; `debug_apply` hands it to the
    /// differential tests).
    Redundant { e: CsrMatrix, factor: LocalLdlt },
    /// This master's block row of the distributed factorization.
    Distributed(DistLdlt),
}

/// The coarse correction `q = Z E⁻¹ Zᵀ u` (§3.2), on one column or on a
/// panel of them. Coarse rows are ordered by (hosting rank, subdomain), so
/// each split group's rows are contiguous and the distributed block
/// factorization keeps its bounds.
struct MultiCoarse<'a> {
    ctx: &'a MultiCtx<'a>,
    state: &'a PreparedMulti<'a>,
    /// `T_s = A_s W_s` of the operator being solved, aligned with `owned`.
    t: &'a [DMat],
    /// Warm-path scratch `T y`, `k` columns.
    scratch: RefCell<Vec<f64>>,
    /// The redundant coarse solve's permuted work vector (empty until a
    /// master's first solve; the other ranks never touch it).
    solve_scratch: RefCell<Vec<f64>>,
}

impl<'a> MultiCoarse<'a> {
    /// For panels of up to `k` columns.
    fn new(ctx: &'a MultiCtx<'a>, state: &'a PreparedMulti<'a>, t: &'a [DMat], k: usize) -> Self {
        MultiCoarse {
            ctx,
            state,
            t,
            scratch: RefCell::new(vec![0.0; k * ctx.n_concat()]),
            solve_scratch: RefCell::new(Vec::new()),
        }
    }

    /// `y = E⁻¹ Zᵀ u` for the `k` columns of `u`, carrying a fused payload
    /// of local reduction contributions through the gather, a reduction
    /// among masters overlapped with the coarse solve, and the scatter
    /// (§3.5); then every owned subdomain's share `wy_s = W_s y_s` of
    /// `q = Z y`, and the consistent `A q` from one halo round of
    /// `T_s y_s` — the §3.1 identity `A R_sᵀ W_s = R_sᵀ T_s` (`W_s = D_s Λ_s`
    /// vanishes where `A_s` and `A` differ), so no SpMV. Returns the reduced
    /// payload. The gather, the coarse solve, the scatter and the round
    /// carry all `k` columns, each column as the one-column correction
    /// computes it. Every collective runs through its `try_` variant, so a
    /// dead rank or a revocation surfaces as a [`SolveInterrupt`] the
    /// Krylov loop propagates.
    fn try_correction(
        &self,
        k: usize,
        u: &[f64],
        wy: &mut [f64],
        aq: &mut [f64],
        payload: Vec<f64>,
    ) -> Result<Vec<f64>, SolveInterrupt> {
        let (ctx, st) = (self.ctx, self.state);
        let (comm, n) = (ctx.comm, ctx.n_concat());
        let plen = payload.len();
        // step 1: w_s = W_sᵀ u_s for every owned subdomain, in owned (=
        // coarse) order, one column after another, gathered on the master
        // (payload appended).
        let n_mine = st.w.iter().map(DMat::cols).sum::<usize>();
        let mut flops = 0u64;
        let mut msg = comm.compute(|| {
            let mut msg = vec![0.0; k * n_mine + plen];
            for c in 0..k {
                let mut at = c * n_mine;
                for ((_, span), w) in ctx.spans().zip(&st.w) {
                    let col = c * n + span.start..c * n + span.end;
                    w.gemv_t(1.0, &u[col], 0.0, &mut msg[at..at + w.cols()]);
                    at += w.cols();
                    flops += 2 * (w.cols() * w.rows()) as u64;
                }
            }
            msg
        });
        comm.charge_flops(flops);
        msg[k * n_mine..].copy_from_slice(&payload);
        let gathered = st.split.try_gather(0, msg).map_err(comm_interrupt)?;
        // step 2: masters solve E y = w — distributed (each master solves
        // its block row cooperatively) or redundant (allgather the full
        // RHS, solve locally). `try_gather` returns `Some` exactly on the
        // split root, which is the master.
        let master = st.master_comm.as_ref().zip(st.e_solve.as_ref());
        let mine: Vec<f64> = if let (Some((master, solve)), Some(parts)) = (master, &gathered) {
            // Split preserves rank order: the members' coarse rows,
            // concatenated, are this group's contiguous block of the RHS,
            // one column after another; what follows a part's `k` columns
            // is its payload share.
            for (i, (part, &rows)) in parts.iter().zip(&st.group_rows).enumerate() {
                if part.len() != k * rows + plen {
                    // dd:cold — a malformed message ends the solve
                    return Err(SolveInterrupt::new(format!(
                        "coarse gather part from group rank {i} holds {} values, \
                         expected {k} columns of {rows} plus a payload of {plen}",
                        part.len()
                    )));
                }
            }
            let group: usize = st.group_rows.iter().sum();
            let mut group_w = Vec::with_capacity(k * group);
            for c in 0..k {
                for (part, &rows) in parts.iter().zip(&st.group_rows) {
                    group_w.extend_from_slice(&part[c * rows..(c + 1) * rows]);
                }
            }
            let mut pay = vec![0.0; plen];
            for (part, &rows) in parts.iter().zip(&st.group_rows) {
                for (a, b) in pay.iter_mut().zip(&part[k * rows..]) {
                    *a += b;
                }
            }
            // Post the payload reduction among masters; overlap with the
            // coarse solve (the §3.5 fusion).
            let pending = (plen > 0).then(|| master.iallreduce_sum_vec(pay));
            // Column `c` of the solution is `y[c * ld..]`, this group's
            // block of it from `y0` on.
            let (y, ld, y0) = match solve {
                MasterSolve::Redundant { factor, .. } => {
                    let all_w = master.try_allgather(group_w).map_err(comm_interrupt)?;
                    if all_w.iter().any(|part| part.len() % k != 0)
                        || all_w.iter().map(Vec::len).sum::<usize>() != k * st.dim_e
                    {
                        // dd:cold — a malformed message ends the solve
                        let lens: Vec<usize> = all_w.iter().map(Vec::len).collect();
                        return Err(SolveInterrupt::new(format!(
                            "coarse allgather parts from masters 0.. hold {lens:?} values, \
                             expected {k} columns each, of dim(E) = {} rows in all",
                            st.dim_e
                        )));
                    }
                    let mut y = Vec::with_capacity(k * st.dim_e);
                    for c in 0..k {
                        for part in &all_w {
                            let rows = part.len() / k;
                            y.extend_from_slice(&part[c * rows..(c + 1) * rows]);
                        }
                    }
                    let mut work = self.solve_scratch.borrow_mut();
                    comm.compute(|| factor.solve_panel_with(&mut y, st.dim_e, k, &mut work));
                    comm.charge_flops((4 * factor.nnz_l() * k) as u64);
                    (y, st.dim_e, st.group_row0)
                }
                MasterSolve::Distributed(dist) => {
                    // The gathered group RHS *is* this master's block row
                    // of w — no allgather, only the ν-sized slices already
                    // on the wire. Scope the cooperative solve under its
                    // own telemetry phase. (On error the phase is
                    // deliberately not restored, so the kill
                    // classification names it.)
                    let prev = comm.trace_phase_name();
                    comm.trace_phase(st.labels.coarse_solve);
                    let y = dist
                        .try_solve_panel(master, &group_w, k)
                        .map_err(|e| dist_interrupt(comm, e, st.labels.coarse_solve))?;
                    comm.trace_phase(&prev);
                    (y, group, 0)
                }
            };
            let reduced = pending
                .map(|p| master.wait_reduce(p))
                .transpose()
                .map_err(comm_interrupt)?
                .unwrap_or_default();
            // step 3a: scatter each member's slices (+ the reduced payload)
            // back to the group.
            let mut at = y0;
            let pieces = st
                .group_rows
                .iter()
                .map(|&rows| {
                    let mut piece = Vec::with_capacity(k * rows + plen);
                    for c in 0..k {
                        piece.extend_from_slice(&y[c * ld + at..c * ld + at + rows]);
                    }
                    piece.extend_from_slice(&reduced);
                    at += rows;
                    piece
                })
                .collect();
            st.split.try_scatter(0, Some(pieces))
        } else {
            st.split.try_scatter(0, None)
        }
        .map_err(comm_interrupt)?;
        if mine.len() != k * n_mine + plen {
            // dd:cold — a malformed message ends the solve
            return Err(SolveInterrupt::new(format!(
                "coarse scatter piece from the group master holds {} values, \
                 expected {k} columns of {n_mine} plus a payload of {plen}",
                mine.len()
            )));
        }
        let (y_mine, reduced) = mine.split_at(k * n_mine);
        // step 3b: W_s y_s and T_s y_s, then A q by the consistency sum of
        // the latter (eq. 12, applied to T instead of W).
        let mut ty = self.scratch.borrow_mut();
        let ty = prefix(&mut ty, k * n);
        let mut flops = 0u64;
        comm.compute(|| {
            for c in 0..k {
                let mut at = c * n_mine;
                for (((_, span), w), t) in ctx.spans().zip(&st.w).zip(self.t) {
                    let y = &y_mine[at..at + w.cols()];
                    let col = c * n + span.start..c * n + span.end;
                    w.gemv(1.0, y, 0.0, &mut wy[col.clone()]);
                    t.gemv(1.0, y, 0.0, &mut ty[col]);
                    at += w.cols();
                    flops += 4 * (w.cols() * w.rows()) as u64;
                }
            }
        });
        comm.charge_flops(flops);
        aq.copy_from_slice(ty);
        ctx.exchange_add(&mut [(ty, aq)])?;
        Ok(reduced.to_vec())
    }
}

/// Distributed two-level preconditioner `P⁻¹_A-DEF1` (eq. 6), in two halo
/// rounds: `T y` for `A q` after the coarse solve, then the RAS tail's round
/// carrying `D A⁻¹(r − A q) + W y` (and `A D A⁻¹(r − A q)` when `A z` is
/// wanted) — on one column or on a panel of them, whose columns share every
/// round and the coarse solve.
struct MultiADef1<'a> {
    ras: MultiRas<'a>,
    coarse: MultiCoarse<'a>,
    /// Warm-path scratch `(W y, A q, r − A q)`, `k` columns each.
    scratch: RefCell<(Vec<f64>, Vec<f64>, Vec<f64>)>,
}

impl MultiADef1<'_> {
    /// `z = RAS(r − A q) + q` with `q = Z E⁻¹ Zᵀ r` for the `k` columns of
    /// `r`, and `A z` into `az` if given; the payload rides on the one
    /// coarse solve and comes back reduced.
    // dd:hot — per-iteration two-level application (eq. 6)
    fn try_eq6(
        &self,
        k: usize,
        r: &[f64],
        z: &mut [f64],
        az: Option<&mut [f64]>,
        payload: Vec<f64>,
    ) -> Result<Vec<f64>, SolveInterrupt> {
        let mut scratch = self.scratch.borrow_mut();
        let (wy, aq, t) = &mut *scratch;
        let (wy, aq, t) = (prefix(wy, r.len()), prefix(aq, r.len()), prefix(t, r.len()));
        let reduced = self.coarse.try_correction(k, r, wy, aq, payload)?;
        for i in 0..r.len() {
            t[i] = r[i] - aq[i];
        }
        self.ras
            .try_tail(k, t, Some(CoarsePart { wy, aq }), z, az)?;
        Ok(reduced)
    }
}

impl FusedPreconditioner for MultiADef1<'_> {
    fn apply_fused(
        &self,
        r: &[f64],
        z: &mut [f64],
        payload: Vec<f64>,
    ) -> Result<Vec<f64>, SolveInterrupt> {
        self.try_eq6(1, r, z, None, payload)
    }
}

impl Preconditioner for MultiADef1<'_> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        if let Err(e) = self.try_apply_panel(1, r, z) {
            panic!("A-DEF1: {e}")
        }
    }

    fn try_apply_panel(&self, k: usize, r: &[f64], z: &mut [f64]) -> Result<(), SolveInterrupt> {
        // A capacity-0 `Vec::new` marks "no fused payload"; it never
        // touches the heap.
        self.try_eq6(k, r, z, None, Vec::new()).map(drop)
    }

    /// `A z = A RAS(r − A q) + A q` from the two rounds eq. 6 runs anyway:
    /// no third round and no SpMV.
    fn try_apply_panel_with_op(
        &self,
        op: &dyn Operator,
        k: usize,
        r: &[f64],
        z: &mut [f64],
        w: &mut [f64],
    ) -> Result<(), SolveInterrupt> {
        if !self.ras.op.is(op) {
            return apply_then_op(self, op, k, r, z, w);
        }
        self.try_eq6(k, r, z, Some(w), Vec::new()).map(drop)
    }
}

// ------------------------------------------------------- resident state

/// The resident state of one set-up on one rank: the owned subdomains'
/// factorized Dirichlet solvers, (resized) deflation blocks `W_s` and their
/// products `T_s = A_s W_s`, the halo plan, the split/master communicators of the election, and this
/// rank's handle on the factorized coarse operator `E`. Produced by
/// `spmd::try_setup_on` through its two entry points,
/// [`crate::spmd::try_setup`] (one subdomain per rank) and
/// [`crate::recovery::try_setup_partitioned`] (the caller's owner map);
/// [`PreparedMulti::try_apply`] then runs phase 4 (the preconditioned
/// Krylov solve) against any right-hand side, reentrantly — the
/// amortization seam the `dd-serve` crate is built on.
///
/// Borrows the decomposition and the communicator for its lifetime; the
/// split communicators are owned.
pub struct PreparedMulti<'a> {
    pub(crate) decomp: &'a Decomposition,
    pub(crate) comm: &'a Communicator,
    pub(crate) opts: SpmdOpts,
    /// Subdomains this rank owns, ascending.
    pub(crate) owned: Vec<usize>,
    /// Concatenation offsets of the owned subdomains' locals (len+1).
    pub(crate) starts: Vec<usize>,
    pub(crate) halo: HaloPlan,
    /// Local factors, deflation blocks and `T_s = A_s W_s` (the set-up
    /// forms it for `E`; the coarse correction's `A q` reuses it), aligned
    /// with `owned`. `t` is empty when there is no coarse level.
    pub(crate) factors: Vec<LocalLdlt>,
    pub(crate) w: Vec<DMat>,
    pub(crate) t: Vec<DMat>,
    /// ν this rank reports: the largest among its subdomains.
    pub(crate) nu: usize,
    pub(crate) split: Communicator,
    pub(crate) master_comm: Option<Communicator>,
    /// Coarse rows of each member of this rank's split group, split order,
    /// and the group's first coarse row.
    pub(crate) group_rows: Vec<usize>,
    pub(crate) group_row0: usize,
    pub(crate) dim_e: usize,
    pub(crate) nnz_e_factor: usize,
    /// Masters only, and only while the coarse level stands.
    pub(crate) e_solve: Option<MasterSolve>,
    /// Phase outcomes through set-up; [`PreparedMulti::report`] extends a
    /// clone with the solve outcome.
    pub(crate) run: RunReport,
    /// The set-up's phase names; the applies read the nested phase of the
    /// cooperative coarse solve and the report's name for the solve.
    pub(crate) labels: &'static SetupLabels,
    pub(crate) t_factorization: f64,
    pub(crate) t_deflation: f64,
    pub(crate) t_coarse: f64,
    /// Which subdomains' coarse rows this set-up computed (all of them,
    /// unless a cache had some), and the virtual seconds it spent
    /// re-assembling and re-factoring — [`crate::RecoveryRecord`] entries.
    pub(crate) fresh: Vec<bool>,
    pub(crate) t_reassembly: f64,
    pub(crate) t_refactorization: f64,
    /// The Krylov loops' buffers, kept from apply to apply: a warm apply
    /// reuses its bases' memory instead of faulting fresh pages in.
    pub(crate) workspace: RefCell<GmresWorkspace>,
}

/// The per-apply result of [`PreparedMulti::try_apply`]: the Krylov
/// outcome, the per-subdomain locals of the solution, and this apply's
/// virtual-time/counter deltas (p2p/collective totals are cumulative
/// communicator stats, as in [`SpmdReport`]).
pub struct MultiApplyOutcome {
    pub result: SolveResult,
    /// `(subdomain, local solution)` for every owned subdomain.
    pub locals: Vec<(usize, Vec<f64>)>,
    /// Virtual seconds spent in this apply (synchronized by the trailing
    /// barrier, so the value is the modeled parallel time).
    pub t_solution: f64,
    /// World-communicator collective calls during this apply (per rank).
    pub world_collectives_solution: u64,
    pub p2p_messages: u64,
    pub p2p_bytes: u64,
    pub collective_bytes: u64,
}

impl PreparedMulti<'_> {
    /// Phase 4 against an arbitrary global right-hand side: the
    /// preconditioned Krylov solve `opts.solver` names, using the resident
    /// factorizations, reentrant in `&self`. `phase` labels the telemetry
    /// scope (`dd-serve` passes `"serve-apply"`, which `dd-lint` checks for
    /// re-factorization).
    ///
    /// Every loop is fallible: a lost peer, a revoked epoch or an armed
    /// guard's verdict is a typed [`SpmdError`] under any `opts.solver`,
    /// and every loop checkpoints to `ckpt` and resumes from it.
    pub fn try_apply(
        &self,
        rhs_global: &[f64],
        phase: &str,
        ckpt: Option<&CheckpointCfg<'_>>,
    ) -> Result<MultiApplyOutcome, SpmdError> {
        let mut out = self.try_apply_on(None, &[rhs_global], phase, ckpt, None)?;
        Ok(out.remove(0))
    }

    /// The perturbation `A(θ)` of `base` ([`Decomposition::perturb_diag`])
    /// on the subdomains this rank owns, for [`PreparedMulti::try_apply_on`].
    /// `base` is the operator θ is measured from — after a re-set-up at
    /// another θ, the unperturbed decomposition, not the resident one — and
    /// shares the resident layout.
    pub fn perturbed(&self, base: &Decomposition, theta: f64) -> PerturbedOperator {
        assert_eq!(base.n_subdomains(), self.decomp.n_subdomains());
        PerturbedOperator {
            a: self
                .owned
                .iter()
                .map(|&s| base.subdomains[s].perturbed_dirichlet(theta))
                .collect(),
        }
    }

    fn ctx<'s>(&'s self, op: Option<&'s PerturbedOperator>) -> MultiCtx<'s> {
        let a = match op {
            Some(p) => {
                assert_eq!(p.a.len(), self.owned.len(), "one A_s per owned subdomain");
                p.a.iter()
                    .map(|(csr, bsr)| LocalA {
                        csr,
                        bsr: bsr.as_ref(),
                    })
                    .collect()
            }
            None => self
                .owned
                .iter()
                .map(|&s| {
                    let sub = &self.decomp.subdomains[s];
                    LocalA {
                        csr: &sub.a_dirichlet,
                        bsr: sub.a_dirichlet_bsr.as_ref(),
                    }
                })
                .collect(),
        };
        MultiCtx {
            comm: self.comm,
            decomp: self.decomp,
            a,
            owned: &self.owned,
            starts: &self.starts,
            halo: &self.halo,
            inbox: RefCell::new(vec![Vec::new(); self.halo.peers.len()]),
        }
    }

    /// Eq. 6 on `op`, for panels of up to `k` columns.
    fn adef1<'s>(&'s self, op: &'s MultiOp<'s>, t: &'s [DMat], k: usize) -> MultiADef1<'s> {
        let n = k * op.ctx.n_concat();
        MultiADef1 {
            ras: MultiRas::new(op, &self.factors, k),
            coarse: MultiCoarse::new(op.ctx, self, t, k),
            scratch: RefCell::new((vec![0.0; n], vec![0.0; n], vec![0.0; n])),
        }
    }

    /// `T_s = A_s W_s` of the operator `ctx` solves: the resident products,
    /// or formed afresh for a perturbed operator.
    fn t_for<'s>(&'s self, ctx: &MultiCtx<'_>, perturbed: bool) -> Cow<'s, [DMat]> {
        if !perturbed {
            return Cow::Borrowed(&self.t);
        }
        let comm = self.comm;
        let mut flops = 0u64;
        let t = comm.compute(|| {
            ctx.a
                .iter()
                .zip(&self.w)
                .map(|(a, w)| {
                    flops += 2 * (a.nnz() * w.cols()) as u64;
                    a.mm(w)
                })
                .collect()
        });
        comm.charge_flops(flops);
        Cow::Owned(t)
    }

    /// `R_s v` for every owned subdomain, concatenated.
    fn restrict(&self, v_global: &[f64]) -> Vec<f64> {
        let mut v = Vec::with_capacity(self.starts[self.owned.len()]);
        for &s in &self.owned {
            v.extend(self.decomp.subdomains[s].restrict(v_global));
        }
        v
    }

    /// [`PreparedMulti::try_apply`] for a panel of right-hand sides,
    /// optionally against a perturbed operator ([`PreparedMulti::perturbed`])
    /// and with a Krylov recycle space — the serving path of `dd-serve`.
    /// One outcome per right-hand side, in order.
    ///
    /// Under [`SolverKind::Classical`] the columns run as recurrences that
    /// share every halo round, coarse solve and reduction
    /// (`dd_krylov::try_gmres_panel`); the pipelined loops solve them one
    /// after another. Either way each answer equals, to the bit, the
    /// one-column solve from the same recycle state, and the apply ends on
    /// one barrier. Against a perturbed operator the Krylov loop solves
    /// `A(θ)` while RAS and the coarse correction reuse the resident
    /// factorizations built at the base parameter. With a recycle space
    /// every initial guess is projected onto the directions the space holds
    /// at entry and the increments are banked in column order; convergence
    /// is still anchored to `tol ·` the residual at the zero guess, so
    /// accuracy matches an unrecycled apply. A checkpoint belongs to a
    /// one-column apply.
    pub fn try_apply_on(
        &self,
        perturbed: Option<&PerturbedOperator>,
        rhs_global: &[&[f64]],
        phase: &str,
        ckpt: Option<&CheckpointCfg<'_>>,
        recycle: Option<&mut RecycleSpace>,
    ) -> Result<Vec<MultiApplyOutcome>, SpmdError> {
        let comm = self.comm;
        let k = rhs_global.len();
        if k == 0 {
            return Ok(Vec::new());
        }
        if k > 1 && ckpt.is_some() {
            return Err(SpmdError::Protocol {
                rank: comm.rank(),
                what: format!("a checkpoint of one right-hand side for an apply of {k}"),
            });
        }
        // Every rank holds the same right-hand sides, so all fail here
        // together, before the first message.
        let n = self.decomp.n_global;
        if let Some((c, b)) = rhs_global.iter().enumerate().find(|(_, b)| b.len() != n) {
            return Err(SpmdError::Protocol {
                rank: comm.rank(),
                what: format!(
                    "right-hand side {c} holds {} values, the system {n}",
                    b.len()
                ),
            });
        }
        comm.trace_phase(phase);

        // ---- phase 4: solve --------------------------------------------
        let clk_entry = comm.clock();
        let stats_before = comm.stats();
        let ctx = self.ctx(perturbed);
        let rhs: Vec<f64> = rhs_global.iter().flat_map(|b| self.restrict(b)).collect();
        let x0 = vec![0.0; rhs.len()];
        let op = MultiOp::new(&ctx, k);
        let ip = MultiDot::new(&ctx);
        let gmres = &self.opts.gmres;
        let mut ws = self.workspace.borrow_mut();

        let results = if self.run.coarse != CoarseOutcome::TwoLevel {
            let ras = MultiRas::new(&op, &self.factors, k);
            try_gmres_panel(&op, &ras, &ip, &rhs, &x0, k, gmres, ckpt, recycle, &mut ws)
        } else {
            let t = self.t_for(&ctx, perturbed.is_some());
            let adef1 = self.adef1(&op, &t, k);
            let (m, b) = (&adef1, &rhs);
            match self.opts.solver {
                SolverKind::Classical => {
                    try_gmres_panel(&op, m, &ip, b, &x0, k, gmres, ckpt, recycle, &mut ws)
                }
                SolverKind::Pipelined => {
                    pipelined_gmres_panel(&op, m, &ip, b, &x0, k, gmres, ckpt, recycle)
                }
                SolverKind::Fused => {
                    fused_pipelined_gmres_panel(&op, m, &ip, b, &x0, k, gmres, ckpt, recycle)
                }
            }
        }
        .map_err(|si| interrupt_to_spmd(comm, si))?;
        comm.try_barrier()?;
        let t_solution = comm.clock() - clk_entry;
        let stats_after = comm.stats();
        let collective_bytes = stats_after.collective_bytes
            + self.split.stats().collective_bytes
            + self
                .master_comm
                .as_ref()
                .map_or(0, |m| m.stats().collective_bytes);
        Ok(results
            .into_iter()
            .map(|result| MultiApplyOutcome {
                locals: ctx
                    .spans()
                    .map(|(s, span)| (s, result.x[span].to_vec()))
                    .collect(),
                result,
                t_solution,
                world_collectives_solution: stats_after.collective_calls
                    - stats_before.collective_calls,
                p2p_messages: stats_after.p2p_messages,
                p2p_bytes: stats_after.p2p_bytes,
                collective_bytes,
            })
            .collect())
    }

    /// Assemble the full [`SpmdReport`] for one apply: the set-up phases'
    /// outcomes and a clone of the set-up [`RunReport`] extended by the
    /// solve outcome.
    pub fn report(&self, out: &MultiApplyOutcome) -> SpmdReport {
        let comm = self.comm;
        let result = &out.result;
        let mut run = self.run.clone();
        run.phases.push((
            self.labels.solve,
            if result.status == SolveStatus::Converged && result.breakdown_restarts == 0 {
                PhaseOutcome::Ok
            } else {
                PhaseOutcome::Degraded {
                    reason: format!(
                        "{} after {} breakdown restart(s)",
                        result.status, result.breakdown_restarts
                    ),
                }
            },
        ));
        run.solve_status = result.status;
        run.breakdown_restarts = result.breakdown_restarts;
        run.faults = comm.fault_stats();
        let me_world = comm.world_rank();
        SpmdReport {
            rank: me_world,
            t_factorization: self.t_factorization,
            t_deflation: self.t_deflation,
            t_coarse: self.t_coarse,
            t_solution: out.t_solution,
            t_total: comm.clock(),
            iterations: result.iterations,
            converged: result.converged,
            final_residual: result.final_residual,
            nu: self.nu,
            dim_e: self.dim_e,
            nnz_e_factor: self.nnz_e_factor,
            n_neighbors: self.halo.n_peers(),
            world_collectives_solution: out.world_collectives_solution,
            p2p_messages: out.p2p_messages,
            p2p_bytes: out.p2p_bytes,
            collective_bytes: out.collective_bytes,
            history: result.history.clone(),
            run,
        }
    }

    /// Test helper behind [`crate::spmd::debug_apply_adef1`]: the
    /// preconditioner of this set-up applied once to `R r_global` as the
    /// right-preconditioned Krylov step applies it (`z` and `A z` from one
    /// call), `A z` by the distributed SpMV, and eq. 6 composed from its
    /// pieces — on the resident operator or on a perturbed one, two-level
    /// or one-level.
    #[doc(hidden)]
    pub fn debug_apply(
        &self,
        perturbed: Option<&PerturbedOperator>,
        r_global: &[f64],
    ) -> Result<DebugApply, SpmdError> {
        let ctx = self.ctx(perturbed);
        let op = MultiOp::new(&ctx, 1);
        let r = self.restrict(r_global);
        let n = r.len();
        let mut out = DebugApply {
            z: vec![0.0; n],
            az: vec![0.0; n],
            a_of_z: vec![0.0; n],
            q: vec![0.0; n],
            aq: vec![0.0; n],
            a_of_q: vec![0.0; n],
            ras: vec![0.0; n],
            e: match &self.e_solve {
                Some(MasterSolve::Redundant { e, .. }) => Some(e.clone()),
                _ => None,
            },
        };
        let pieces = |out: &mut DebugApply| -> Result<(), SolveInterrupt> {
            if self.run.coarse == CoarseOutcome::TwoLevel {
                let t = self.t_for(&ctx, perturbed.is_some());
                let adef1 = self.adef1(&op, &t, 1);
                adef1.try_apply_panel_with_op(&op, 1, &r, &mut out.z, &mut out.az)?;
                // q made consistent by a round of its shares, A q both ways,
                // and the RAS tail with no coarse part.
                adef1
                    .coarse
                    .try_correction(1, &r, &mut out.q, &mut out.aq, Vec::new())?;
                let wy = out.q.clone();
                ctx.exchange_add(&mut [(&wy, &mut out.q)])?;
                op.try_apply_panel(1, &out.q, &mut out.a_of_q)?;
                let t: Vec<f64> = r.iter().zip(&out.aq).map(|(a, b)| a - b).collect();
                adef1.ras.try_tail(1, &t, None, &mut out.ras, None)?;
            } else {
                let ras = MultiRas::new(&op, &self.factors, 1);
                ras.try_apply_panel_with_op(&op, 1, &r, &mut out.z, &mut out.az)?;
                ras.try_apply_panel(1, &r, &mut out.ras)?;
            }
            op.try_apply_panel(1, &out.z, &mut out.a_of_z)
        };
        pieces(&mut out).map_err(|si| interrupt_to_spmd(self.comm, si))?;
        Ok(out)
    }
}

/// What [`PreparedMulti::debug_apply`] returns, over the owned subdomains.
#[doc(hidden)]
pub struct DebugApply {
    /// `z = M⁻¹ r` and `A z`, from one call of the preconditioner's
    /// right-preconditioned step (`Preconditioner::try_apply_panel_with_op`).
    pub z: Vec<f64>,
    pub az: Vec<f64>,
    /// `A z` by the distributed SpMV.
    pub a_of_z: Vec<f64>,
    /// The pieces of eq. 6: the consistent coarse correction
    /// `q = Z E⁻¹ Zᵀ r`, `A q` from the round of `T_s y_s` (what eq. 6
    /// uses), `A q` by the distributed SpMV, and `RAS(r − A q)` — so
    /// `z = RAS(r − A q) + q`. On the one-level path `q` and both `A q` are
    /// zero and `ras = z`.
    pub q: Vec<f64>,
    pub aq: Vec<f64>,
    pub a_of_q: Vec<f64>,
    pub ras: Vec<f64>,
    /// On masters in redundant mode, the assembled coarse matrix `E`.
    pub e: Option<CsrMatrix>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::decompose;
    use crate::problem::presets;
    use dd_comm::{CostModel, World};
    use dd_mesh::Mesh;
    use dd_part::partition_mesh_rcb;

    /// This rank's share of `decomp` split into contiguous chunks over the
    /// communicator: owned subdomains, concatenation offsets, halo plan.
    fn chunked(decomp: &Decomposition, comm: &Communicator) -> (Vec<usize>, Vec<usize>, HaloPlan) {
        let nsub = decomp.n_subdomains();
        let host: Vec<usize> = (0..nsub).map(|s| comm.size() * s / nsub).collect();
        let owned: Vec<usize> = (0..nsub).filter(|&s| host[s] == comm.rank()).collect();
        let mut starts = vec![0];
        for &s in &owned {
            starts.push(starts[starts.len() - 1] + decomp.subdomains[s].n_local());
        }
        let halo = HaloPlan::build(decomp, comm, &owned, &starts, &host);
        (owned, starts, halo)
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// A `k`-column exchange is `k` one-column exchanges, bit for bit, in
    /// one message per neighbouring rank instead of `k` — on an owner map
    /// with same-host and remote links.
    #[test]
    fn k_column_exchange_is_k_single_exchanges_bitwise() {
        const K: usize = 3;
        let mesh = Mesh::unit_square(12, 12);
        let part = partition_mesh_rcb(&mesh, 6);
        let decomp = decompose(&mesh, &presets::heterogeneous_diffusion(2), &part, 6, 1);
        let wave = |k: usize| (k as f64 * 0.37).sin() + 0.25;
        let (rows, trace) = World::run_traced(2, CostModel::default(), |comm| {
            let (owned, starts, halo) = chunked(&decomp, comm);
            let n = starts[owned.len()];
            let mut inbox = vec![Vec::new(); halo.n_peers()];
            let t: Vec<Vec<f64>> = (0..K)
                .map(|c| (0..n).map(|g| wave(g + 11 * c + 5 * comm.rank())).collect())
                .collect();
            comm.trace_phase("panel");
            let flat = t.concat();
            let mut panel = flat.clone();
            halo.exchange_add(comm, &mut inbox, &mut [(&flat, &mut panel)])
                .unwrap();
            let panel: Vec<Vec<f64>> = panel.chunks_exact(n).map(<[f64]>::to_vec).collect();
            comm.trace_phase("loop");
            let mut single = t.clone();
            for (tc, oc) in t.iter().zip(single.iter_mut()) {
                halo.exchange_add(comm, &mut inbox, &mut [(tc, oc)])
                    .unwrap();
            }
            (halo.n_peers(), panel, single)
        });
        let mut peers = 0;
        for (n_peers, panel, single) in rows {
            assert_eq!(n_peers, 1, "two ranks: one neighbouring rank each");
            peers += n_peers as u64;
            for (p, s) in panel.iter().zip(&single) {
                assert_eq!(bits(p), bits(s));
            }
        }
        assert_eq!(trace.phase_totals("panel").sends, peers);
        assert_eq!(trace.phase_totals("loop").sends, K as u64 * peers);
        assert_eq!(
            trace.phase_totals("panel").send_bytes,
            trace.phase_totals("loop").send_bytes
        );
    }

    /// A received halo message that is not `k · recv_len` long — a short
    /// one, or one column where two were expected — is a typed interrupt,
    /// not a silently truncated sum or a slice panic.
    #[test]
    fn malformed_halo_message_is_a_typed_interrupt() {
        let mesh = Mesh::unit_square(8, 8);
        let part = partition_mesh_rcb(&mesh, 2);
        let decomp = decompose(&mesh, &presets::heterogeneous_diffusion(1), &part, 2, 1);
        for (k, short_by) in [(1usize, 1usize), (2, 0)] {
            let reasons = World::run(2, CostModel::default(), |comm| {
                let (owned, starts, halo) = chunked(&decomp, comm);
                let n = starts[owned.len()];
                let peer = &halo.peers[0];
                if comm.rank() == 1 {
                    // One column of the right length, less `short_by`.
                    comm.send(peer.rank, halo.tag, vec![0.0; peer.pack.len() - short_by]);
                    let _: Vec<f64> = comm.recv(peer.rank, halo.tag);
                    return None;
                }
                let t = vec![1.0; k * n];
                let mut out = t.clone();
                let mut inbox = vec![Vec::new(); 1];
                let err = halo
                    .exchange_add(comm, &mut inbox, &mut [(&t, &mut out)])
                    .expect_err("a malformed message must not be summed");
                Some(err.reason().to_string())
            });
            let reason = reasons[0].as_deref().expect("rank 0 exchanged");
            assert!(
                reason.contains("halo message from rank 1"),
                "k = {k}: {reason}"
            );
        }
    }

    /// A right-hand side shorter or longer than the system is a typed
    /// protocol error on every rank, naming the column and both lengths,
    /// raised before the first message — not a slice panic in the
    /// restriction or a silently truncated solve. The same prepared state
    /// then answers a well-formed apply.
    #[test]
    fn right_hand_side_of_the_wrong_length_is_a_protocol_error() {
        let mesh = Mesh::unit_square(8, 8);
        let part = partition_mesh_rcb(&mesh, 2);
        let decomp = decompose(&mesh, &presets::heterogeneous_diffusion(1), &part, 2, 1);
        let n = decomp.n_global;
        let (good, short, long) = (vec![1.0; n], vec![1.0; n - 1], vec![1.0; n + 1]);
        let (rows, trace) = World::run_traced(2, CostModel::default(), |comm| {
            let st = crate::spmd::try_setup(&decomp, comm, &SpmdOpts::default()).expect("set-up");
            let errs: Vec<String> = [vec![&short[..]], vec![&good[..], &long[..]]]
                .iter()
                .map(
                    |rhs| match st.try_apply_on(None, rhs, "bad-apply", None, None) {
                        Err(SpmdError::Protocol { what, .. }) => what,
                        Err(e) => panic!("not a protocol error: {e}"),
                        Ok(_) => panic!("a right-hand side of the wrong length was answered"),
                    },
                )
                .collect();
            let ok = st
                .try_apply(&good, "solve", None)
                .expect("a well-formed apply");
            (errs, ok.result.converged)
        });
        for (errs, converged) in rows {
            assert_eq!(
                errs,
                [
                    format!("right-hand side 0 holds {} values, the system {n}", n - 1),
                    format!("right-hand side 1 holds {} values, the system {n}", n + 1),
                ]
            );
            assert!(converged);
        }
        let bad = trace.phase_totals("bad-apply");
        assert_eq!(
            (bad.sends, bad.collectives_eq, bad.collectives_v),
            (0, 0, 0)
        );
    }

    /// A coarse-correction message of the wrong length — a member's gather
    /// part, a master's part of the redundant allgather, or the master's
    /// scatter piece — sent ahead of the real one is a typed interrupt, not
    /// a slice panic or a silently mis-summed payload.
    #[test]
    fn malformed_coarse_messages_are_typed_interrupts() {
        let mesh = Mesh::unit_square(8, 8);
        let part = partition_mesh_rcb(&mesh, 2);
        let decomp = decompose(&mesh, &presets::heterogeneous_diffusion(1), &part, 2, 1);
        for (case, n_masters, coarse_solve, plen) in [
            ("gather", 1, crate::CoarseSolve::Distributed, 2),
            ("allgather", 2, crate::CoarseSolve::Redundant, 0),
            ("scatter", 1, crate::CoarseSolve::Distributed, 2),
        ] {
            let opts = SpmdOpts {
                n_masters,
                coarse_solve,
                ..Default::default()
            };
            let reasons = World::run(2, CostModel::default(), |comm| {
                let st = crate::spmd::try_setup(&decomp, comm, &opts).expect("set-up");
                // The scatter comes from the master, rank 0; the other
                // malformed messages from rank 1.
                if comm.rank() == usize::from(case != "scatter") {
                    let one = vec![0.0];
                    match case {
                        "gather" => drop(st.split.try_gather(0, one).unwrap()),
                        "allgather" => {
                            let master = st.master_comm.as_ref().unwrap();
                            drop(master.try_allgather(one).unwrap());
                        }
                        _ => {
                            st.split.try_gather(0, Vec::<f64>::new()).unwrap();
                            drop(st.split.try_scatter(0, Some(vec![Vec::new(), one])));
                        }
                    }
                    return None;
                }
                let ctx = st.ctx(None);
                let coarse = MultiCoarse::new(&ctx, &st, &st.t, 1);
                let n = ctx.n_concat();
                let (mut wy, mut aq) = (vec![0.0; n], vec![0.0; n]);
                let err = coarse
                    .try_correction(1, &vec![1.0; n], &mut wy, &mut aq, vec![0.0; plen])
                    .expect_err("a malformed message must not be used");
                Some(err.reason().to_string())
            });
            let reason = reasons
                .into_iter()
                .flatten()
                .next()
                .expect("one rank corrected");
            assert!(
                reason.contains(&format!("coarse {case} ")),
                "{case}: {reason}"
            );
        }
    }

    /// `MultiDot::local_dots` is the loop over `MultiDot::local_dot`, bit
    /// for bit and flop for flop, on an owner map with three subdomains on
    /// each of two ranks (so `D w` is assembled from several spans).
    #[test]
    fn gram_row_panel_is_the_per_vector_loop_bitwise_and_in_flops() {
        const NSUB: usize = 6;
        const NV: usize = 7;
        let mesh = Mesh::unit_square(12, 12);
        let part = partition_mesh_rcb(&mesh, NSUB);
        let decomp = decompose(&mesh, &presets::heterogeneous_diffusion(2), &part, NSUB, 1);
        let wave = |k: usize| (k as f64 * 0.37).sin() + 0.25;
        let (rows, trace) = World::run_traced(2, CostModel::default(), |comm| {
            let (owned, starts, halo) = chunked(&decomp, comm);
            let ctx = MultiCtx {
                comm,
                decomp: &decomp,
                a: Vec::new(),
                owned: &owned,
                starts: &starts,
                halo: &halo,
                inbox: RefCell::new(Vec::new()),
            };
            let ip = MultiDot::new(&ctx);
            let n = ctx.n_concat();
            let w: Vec<f64> = (0..n).map(|g| wave(g + 7 * comm.rank())).collect();
            let vs: Vec<Vec<f64>> = (0..NV)
                .map(|j| (0..n).map(|g| wave(3 * g + 31 * j)).collect())
                .collect();
            comm.trace_phase("panel");
            let mut panel = vec![0.0; NV];
            ip.local_dots(&w, &vs, &mut panel);
            comm.trace_phase("loop");
            let looped: Vec<f64> = vs.iter().map(|v| ip.local_dot(&w, v)).collect();
            (owned.len(), panel, looped)
        });
        for (n_owned, panel, looped) in rows {
            assert_eq!(n_owned, 3);
            assert_eq!(bits(&panel), bits(&looped));
        }
        let flops = trace.phase_totals("panel").flops;
        assert!(flops > 0);
        assert_eq!(flops, trace.phase_totals("loop").flops);
    }
}
