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
    fused_pipelined_gmres, pipelined_gmres, try_gmres_with, CheckpointCfg, FusedPreconditioner,
    GmresWorkspace, InnerProduct, Operator, Preconditioner, RecycleSpace, SolveInterrupt,
    SolveResult, SolveStatus,
};
use dd_linalg::{vector, CsrMatrix, DMat};
use dd_solver::{DistLdlt, LocalLdlt, SparseLdlt};

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
            peers,
            adds,
        }
    }

    /// One exchange of `k = t.len()` columns: `out[c] += Σ R_s R_jᵀ t[c]_j`
    /// for every column `c`. Each neighbouring rank gets one message, its
    /// segments of every column one column after another, and every
    /// column's additions run in the order of a one-column exchange — so a
    /// `k`-column exchange is `k` one-column exchanges to the bit, in
    /// `1/k` of the messages. `inbox` holds the received messages, one slot
    /// per peer. Receives run under the ambient bounded retry policy; a
    /// dead or revoked peer, or a message of the wrong length, surfaces as
    /// a [`SolveInterrupt`].
    // dd:hot — two rounds per two-level Krylov iteration (three left-preconditioned)
    fn exchange_add(
        &self,
        comm: &Communicator,
        inbox: &mut [Vec<f64>],
        t: &[&[f64]],
        out: &mut [&mut [f64]],
    ) -> Result<(), SolveInterrupt> {
        debug_assert_eq!(t.len(), out.len());
        let policy = comm.retry_policy();
        for peer in &self.peers {
            // dd:cold — the message itself: it moves into the peer's mailbox
            let mut payload = Vec::with_capacity(t.len() * peer.pack.len());
            for col in t {
                payload.extend(peer.pack.iter().map(|&g| col[g]));
            }
            comm.send(peer.rank, self.tag, payload);
        }
        for (peer, slot) in self.peers.iter().zip(inbox.iter_mut()) {
            *slot = comm
                .try_recv_timeout(peer.rank, self.tag, &policy)
                .map_err(comm_interrupt)?;
            if slot.len() != t.len() * peer.recv_len {
                // dd:cold — a malformed message ends the solve
                return Err(SolveInterrupt::new(format!(
                    "halo message from rank {} holds {} values, expected {} columns of {}",
                    peer.rank,
                    slot.len(),
                    t.len(),
                    peer.recv_len
                )));
            }
        }
        for (c, (tc, oc)) in t.iter().zip(out.iter_mut()).enumerate() {
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
        }
        Ok(())
    }

    /// Neighbouring ranks: the peers every exchange sends to.
    pub(crate) fn n_peers(&self) -> usize {
        self.peers.len()
    }
}

// ------------------------------------------------------------ the applies

/// What every apply of one solve shares: the communicator, the operator
/// being solved (the resident decomposition or a layout-compatible
/// override), the owned subdomains' concatenation, and the halo plan.
struct MultiCtx<'a> {
    comm: &'a Communicator,
    decomp: &'a Decomposition,
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

    /// One halo round of `t.len()` columns (see [`HaloPlan::exchange_add`]).
    fn exchange_add(&self, t: &[&[f64]], out: &mut [&mut [f64]]) -> Result<(), SolveInterrupt> {
        self.halo
            .exchange_add(self.comm, &mut self.inbox.borrow_mut(), t, out)
    }
}

/// Distributed operator: `(Ax)_s = Σ_j R_s R_jᵀ A_j D_j x_j` (eq. 5).
struct MultiOp<'a> {
    ctx: &'a MultiCtx<'a>,
    /// Warm-path scratch `(D x, A D x)`.
    scratch: RefCell<(Vec<f64>, Vec<f64>)>,
}

impl<'a> MultiOp<'a> {
    fn new(ctx: &'a MultiCtx<'a>) -> Self {
        let n = ctx.n_concat();
        MultiOp {
            ctx,
            scratch: RefCell::new((vec![0.0; n], vec![0.0; n])),
        }
    }

    // dd:hot — per-Krylov-iteration SpMV; scratch reuse keeps it allocation-free
    fn local_part_into(&self, x: &[f64], w: &mut [f64], t: &mut [f64]) {
        let ctx = self.ctx;
        let mut flops = 0u64;
        ctx.comm.compute(|| {
            w.copy_from_slice(x);
            for (s, span) in ctx.spans() {
                let sub = &ctx.decomp.subdomains[s];
                let (w, t) = (&mut w[span.start..span.end], &mut t[span]);
                vector::scale_by(&sub.d, w);
                sub.spmv_dirichlet(w, t);
                flops += (2 * sub.a_dirichlet.nnz() + sub.n_local()) as u64;
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
    /// Krylov loops all call `try_apply`.
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        if let Err(e) = self.try_apply(x, y) {
            panic!("SpMV: {e}")
        }
    }

    // dd:hot
    fn try_apply(&self, x: &[f64], y: &mut [f64]) -> Result<(), SolveInterrupt> {
        let mut scratch = self.scratch.borrow_mut();
        let (w, t) = &mut *scratch;
        self.local_part_into(x, w, t);
        y.copy_from_slice(t);
        self.ctx.exchange_add(&[t], &mut [y])
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

/// What the coarse correction hands the RAS tail: every owned subdomain's
/// share `W_s y_s` of `q = Z E⁻¹ Zᵀ r` (not yet summed over neighbours)
/// and the consistent `A q`.
struct CoarsePart<'b> {
    wy: &'b [f64],
    aq: &'b [f64],
}

/// Distributed one-level RAS: `z_s = Σ_j R_s R_jᵀ D_j A_j⁻¹ r_j`.
struct MultiRas<'a> {
    /// The operator being solved: its context, and its `A_s` for `A z`.
    op: &'a MultiOp<'a>,
    /// Local factors, aligned with `ctx.owned`.
    factors: &'a [LocalLdlt],
    /// Warm-path scratch: the two columns `[D A⁻¹ t + W y, A D A⁻¹ t]` one
    /// halo round carries.
    scratch: RefCell<Vec<f64>>,
    /// The local solves' permuted work vector, shared by all of them.
    solve_scratch: RefCell<Vec<f64>>,
}

impl<'a> MultiRas<'a> {
    fn new(op: &'a MultiOp<'a>, factors: &'a [LocalLdlt]) -> Self {
        MultiRas {
            op,
            factors,
            scratch: RefCell::new(vec![0.0; 2 * op.ctx.n_concat()]),
            solve_scratch: RefCell::new(Vec::with_capacity(
                factors.iter().map(LocalLdlt::n).max().unwrap_or(0),
            )),
        }
    }

    /// The RAS tail of both preconditioners. `u_s = A_s⁻¹ t_s` on every
    /// owned subdomain, then ONE halo round: of `D_s u_s + W_s y_s` (the
    /// coarse shares, when there is a coarse part), which sums to `z`, and —
    /// when `az` is asked for — of `A_s D_s u_s` as a second column, which
    /// sums to `A RAS(t)` because `D_s` vanishes where `A_s` and `A` differ
    /// (the identity eq. 5 rests on), so `A z` is that plus `A q`.
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
        let (du, adu) = cols.split_at_mut(n);
        let mut work = self.solve_scratch.borrow_mut();
        let mut flops = 0u64;
        ctx.comm.compute(|| {
            du.copy_from_slice(t);
            for ((s, span), factor) in ctx.spans().zip(self.factors) {
                let sub = &ctx.decomp.subdomains[s];
                let u = &mut du[span.start..span.end];
                factor.solve_in_place_with(u, &mut work);
                vector::scale_by(&sub.d, u);
                flops += (4 * factor.nnz_l() + sub.n_local()) as u64;
                if az.is_some() {
                    sub.spmv_dirichlet(u, &mut adu[span.start..span.end]);
                    flops += 2 * sub.a_dirichlet.nnz() as u64;
                }
                if let Some(c) = &coarse {
                    vector::axpy(1.0, &c.wy[span.start..span.end], u);
                    flops += 2 * sub.n_local() as u64;
                }
            }
        });
        ctx.comm.charge_flops(flops);
        z.copy_from_slice(du);
        match az {
            None => ctx.exchange_add(&[du], &mut [z]),
            Some(az) => {
                az.copy_from_slice(adu);
                ctx.exchange_add(&[du, adu], &mut [z, az])?;
                if let Some(c) = &coarse {
                    vector::axpy(1.0, c.aq, az);
                }
                Ok(())
            }
        }
    }
}

impl Preconditioner for MultiRas<'_> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        if let Err(e) = self.try_apply(r, z) {
            panic!("RAS: {e}")
        }
    }

    // dd:hot
    fn try_apply(&self, r: &[f64], z: &mut [f64]) -> Result<(), SolveInterrupt> {
        self.try_tail(r, None, z, None)
    }

    /// `A z` rides on the RAS round as a second column: one round, one
    /// local SpMV, instead of a round for `z` and a full SpMV after it.
    fn try_apply_with_op(
        &self,
        op: &dyn Operator,
        r: &[f64],
        z: &mut [f64],
        w: &mut [f64],
    ) -> Result<(), SolveInterrupt> {
        if !self.op.is(op) {
            self.try_apply(r, z)?;
            return op.try_apply(z, w);
        }
        self.try_tail(r, None, z, Some(w))
    }
}

/// A master's share of the factored coarse operator `E`.
pub(crate) enum MasterSolve {
    /// The full factorization, held redundantly by every master, beside the
    /// assembled `E` it came from (a few KiB; `debug_apply` hands it to the
    /// differential tests).
    Redundant { e: CsrMatrix, factor: SparseLdlt },
    /// This master's block row of the distributed factorization.
    Distributed(DistLdlt),
}

/// The coarse correction `q = Z E⁻¹ Zᵀ u` (§3.2). Coarse rows are ordered
/// by (hosting rank, subdomain), so each split group's rows are contiguous
/// and the distributed block factorization keeps its bounds.
struct MultiCoarse<'a> {
    ctx: &'a MultiCtx<'a>,
    state: &'a PreparedMulti<'a>,
    /// `T_s = A_s W_s` of the operator being solved, aligned with `owned`.
    t: &'a [DMat],
    /// Warm-path scratch `T y`.
    scratch: RefCell<Vec<f64>>,
    /// The redundant coarse solve's permuted work vector (empty until a
    /// master's first solve; the other ranks never touch it).
    solve_scratch: RefCell<Vec<f64>>,
}

impl<'a> MultiCoarse<'a> {
    fn new(ctx: &'a MultiCtx<'a>, state: &'a PreparedMulti<'a>, t: &'a [DMat]) -> Self {
        MultiCoarse {
            ctx,
            state,
            t,
            scratch: RefCell::new(vec![0.0; ctx.n_concat()]),
            solve_scratch: RefCell::new(Vec::new()),
        }
    }

    /// `y = E⁻¹ Zᵀ u`, carrying a fused payload of local reduction
    /// contributions through the gather, a reduction among masters
    /// overlapped with the coarse solve, and the scatter (§3.5); then
    /// every owned subdomain's share `wy_s = W_s y_s` of `q = Z y`, and the
    /// consistent `A q` from one halo round of `T_s y_s` — the §3.1
    /// identity `A R_sᵀ W_s = R_sᵀ T_s` (`W_s = D_s Λ_s` vanishes where
    /// `A_s` and `A` differ), so no SpMV. Returns the reduced payload.
    /// Every collective runs through its `try_` variant, so a dead rank or a
    /// revocation surfaces as a [`SolveInterrupt`] the Krylov loop
    /// propagates.
    fn try_correction(
        &self,
        u: &[f64],
        wy: &mut [f64],
        aq: &mut [f64],
        payload: Vec<f64>,
    ) -> Result<Vec<f64>, SolveInterrupt> {
        let (ctx, st) = (self.ctx, self.state);
        let comm = ctx.comm;
        let plen = payload.len();
        // step 1: w_s = W_sᵀ u_s for every owned subdomain, in owned (=
        // coarse) order, gathered on the master (payload appended).
        let mut flops = 0u64;
        let mut msg = comm.compute(|| {
            let mut msg = Vec::with_capacity(st.w.iter().map(DMat::cols).sum::<usize>() + plen);
            for ((_, span), w) in ctx.spans().zip(&st.w) {
                let at = msg.len();
                msg.resize(at + w.cols(), 0.0);
                w.gemv_t(1.0, &u[span], 0.0, &mut msg[at..]);
                flops += 2 * (w.cols() * w.rows()) as u64;
            }
            msg
        });
        comm.charge_flops(flops);
        let n_mine = msg.len();
        msg.extend_from_slice(&payload);
        let gathered = st.split.try_gather(0, msg).map_err(comm_interrupt)?;
        // step 2: masters solve E y = w — distributed (each master solves
        // its block row cooperatively) or redundant (allgather the full
        // RHS, solve locally). `gather` returns `Some` exactly on the
        // split root, which is the master.
        let master = st.master_comm.as_ref().zip(st.e_solve.as_ref());
        let mine: Vec<f64> = if let (Some((master, solve)), Some(parts)) = (master, &gathered) {
            // Split preserves rank order: the members' coarse rows,
            // concatenated, are this group's contiguous block of the RHS;
            // what follows them in each part is its payload share.
            let mut group_w = Vec::with_capacity(st.group_rows.iter().sum());
            let mut pay = vec![0.0; plen];
            for (part, &rows) in parts.iter().zip(&st.group_rows) {
                group_w.extend_from_slice(&part[..rows]);
                for (a, b) in pay.iter_mut().zip(&part[rows..]) {
                    *a += b;
                }
            }
            // Post the payload reduction among masters; overlap with the
            // coarse solve (the §3.5 fusion).
            let pending = (plen > 0).then(|| master.iallreduce_sum_vec(pay));
            // `y[y0..]` is this group's block of the solution.
            let (y, y0) = match solve {
                MasterSolve::Redundant { factor, .. } => {
                    let all_w = master.try_allgather(group_w).map_err(comm_interrupt)?;
                    let mut y = all_w.concat();
                    debug_assert_eq!(y.len(), st.dim_e);
                    let mut work = self.solve_scratch.borrow_mut();
                    comm.compute(|| factor.solve_in_place_with(&mut y, &mut work));
                    comm.charge_flops(4 * factor.nnz_l() as u64);
                    (y, st.group_row0)
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
                        .try_solve(master, &group_w)
                        .map_err(|e| dist_interrupt(comm, e, st.labels.coarse_solve))?;
                    comm.trace_phase(&prev);
                    (y, 0)
                }
            };
            let reduced = pending
                .map(|p| master.wait_reduce(p))
                .transpose()
                .map_err(comm_interrupt)?
                .unwrap_or_default();
            // step 3a: scatter each member's slice (+ the reduced payload)
            // back to the group.
            let mut at = y0;
            let pieces = st
                .group_rows
                .iter()
                .map(|&rows| {
                    let mut piece = Vec::with_capacity(rows + plen);
                    piece.extend_from_slice(&y[at..at + rows]);
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
        let (y_mine, reduced) = mine.split_at(n_mine);
        // step 3b: W_s y_s and T_s y_s, then A q by the consistency sum of
        // the latter (eq. 12, applied to T instead of W).
        let mut ty = self.scratch.borrow_mut();
        let mut flops = 0u64;
        comm.compute(|| {
            let mut at = 0;
            for (((_, span), w), t) in ctx.spans().zip(&st.w).zip(self.t) {
                let y = &y_mine[at..at + w.cols()];
                w.gemv(1.0, y, 0.0, &mut wy[span.start..span.end]);
                t.gemv(1.0, y, 0.0, &mut ty[span]);
                at += w.cols();
                flops += 4 * (w.cols() * w.rows()) as u64;
            }
        });
        comm.charge_flops(flops);
        aq.copy_from_slice(&ty);
        ctx.exchange_add(&[&ty], &mut [aq])?;
        Ok(reduced.to_vec())
    }
}

/// Distributed two-level preconditioner `P⁻¹_A-DEF1` (eq. 6), in two halo
/// rounds: `T y` for `A q` after the coarse solve, then the RAS tail's round
/// carrying `D A⁻¹(r − A q) + W y` (and `A D A⁻¹(r − A q)` when `A z` is
/// wanted).
struct MultiADef1<'a> {
    ras: MultiRas<'a>,
    coarse: MultiCoarse<'a>,
    /// Warm-path scratch `(W y, A q, r − A q)`.
    scratch: RefCell<(Vec<f64>, Vec<f64>, Vec<f64>)>,
}

impl MultiADef1<'_> {
    /// `z = RAS(r − A q) + q` with `q = Z E⁻¹ Zᵀ r`, and `A z` into `az`
    /// if given; the payload rides on the one coarse solve and comes back
    /// reduced.
    // dd:hot — per-iteration two-level application (eq. 6)
    fn try_eq6(
        &self,
        r: &[f64],
        z: &mut [f64],
        az: Option<&mut [f64]>,
        payload: Vec<f64>,
    ) -> Result<Vec<f64>, SolveInterrupt> {
        let mut scratch = self.scratch.borrow_mut();
        let (wy, aq, t) = &mut *scratch;
        let reduced = self.coarse.try_correction(r, wy, aq, payload)?;
        for k in 0..r.len() {
            t[k] = r[k] - aq[k];
        }
        self.ras.try_tail(t, Some(CoarsePart { wy, aq }), z, az)?;
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
        self.try_eq6(r, z, None, payload)
    }
}

impl Preconditioner for MultiADef1<'_> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        if let Err(e) = self.try_apply(r, z) {
            panic!("A-DEF1: {e}")
        }
    }

    fn try_apply(&self, r: &[f64], z: &mut [f64]) -> Result<(), SolveInterrupt> {
        // A capacity-0 `Vec::new` marks "no fused payload"; it never
        // touches the heap.
        self.try_eq6(r, z, None, Vec::new()).map(drop)
    }

    /// `A z = A RAS(r − A q) + A q` from the two rounds eq. 6 runs anyway:
    /// no third round and no SpMV.
    fn try_apply_with_op(
        &self,
        op: &dyn Operator,
        r: &[f64],
        z: &mut [f64],
        w: &mut [f64],
    ) -> Result<(), SolveInterrupt> {
        if !self.ras.op.is(op) {
            self.try_apply(r, z)?;
            return op.try_apply(z, w);
        }
        self.try_eq6(r, z, Some(w), Vec::new()).map(drop)
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
        self.try_apply_on(None, rhs_global, phase, ckpt, None)
    }

    fn ctx<'s>(&'s self, decomp: &'s Decomposition) -> MultiCtx<'s> {
        debug_assert_eq!(decomp.n_subdomains(), self.decomp.n_subdomains());
        MultiCtx {
            comm: self.comm,
            decomp,
            owned: &self.owned,
            starts: &self.starts,
            halo: &self.halo,
            inbox: RefCell::new(vec![Vec::new(); self.halo.peers.len()]),
        }
    }

    fn adef1<'s>(&'s self, op: &'s MultiOp<'s>, t: &'s [DMat]) -> MultiADef1<'s> {
        let n = op.ctx.n_concat();
        MultiADef1 {
            ras: MultiRas::new(op, &self.factors),
            coarse: MultiCoarse::new(op.ctx, self, t),
            scratch: RefCell::new((vec![0.0; n], vec![0.0; n], vec![0.0; n])),
        }
    }

    /// `T_s = A_s W_s` of the operator `ctx` solves: the resident products
    /// for the resident decomposition, formed afresh for an override.
    fn t_for<'s>(&'s self, ctx: &MultiCtx<'_>) -> Cow<'s, [DMat]> {
        if std::ptr::eq(ctx.decomp, self.decomp) {
            return Cow::Borrowed(&self.t);
        }
        let comm = self.comm;
        let mut flops = 0u64;
        let t = comm.compute(|| {
            ctx.spans()
                .zip(&self.w)
                .map(|((s, _), w)| {
                    let sub = &ctx.decomp.subdomains[s];
                    flops += 2 * (sub.a_dirichlet.nnz() * w.cols()) as u64;
                    sub.mm_dirichlet(w)
                })
                .collect()
        });
        comm.charge_flops(flops);
        Cow::Owned(t)
    }

    /// `R_s v` for every owned subdomain, concatenated.
    fn restrict(&self, ctx: &MultiCtx<'_>, v_global: &[f64]) -> Vec<f64> {
        let mut v = Vec::with_capacity(ctx.n_concat());
        for &s in &self.owned {
            v.extend(ctx.decomp.subdomains[s].restrict(v_global));
        }
        v
    }

    /// [`PreparedMulti::try_apply`], optionally against a layout-compatible
    /// decomposition override (same dofs, neighbours and partition of
    /// unity) and with a Krylov recycle space — the serving path of
    /// `dd-serve`. Under an override the Krylov loop solves the perturbed
    /// system while RAS and the coarse correction reuse the resident
    /// factorizations built at the base parameter. With a recycle space the
    /// initial guess is projected onto previously harvested directions and
    /// the solve's increment is banked; convergence is still anchored to
    /// `tol ·` the residual at the zero guess, so accuracy matches an
    /// unrecycled apply.
    pub fn try_apply_on(
        &self,
        decomp_override: Option<&Decomposition>,
        rhs_global: &[f64],
        phase: &str,
        ckpt: Option<&CheckpointCfg<'_>>,
        recycle: Option<&mut RecycleSpace>,
    ) -> Result<MultiApplyOutcome, SpmdError> {
        let comm = self.comm;
        comm.trace_phase(phase);

        // ---- phase 4: solve --------------------------------------------
        let clk_entry = comm.clock();
        let stats_before = comm.stats();
        let ctx = self.ctx(decomp_override.unwrap_or(self.decomp));
        let rhs = self.restrict(&ctx, rhs_global);
        let x0 = vec![0.0; ctx.n_concat()];
        let op = MultiOp::new(&ctx);
        let ip = MultiDot::new(&ctx);
        let gmres = &self.opts.gmres;
        let mut ws = GmresWorkspace::new();

        let result = if self.run.coarse != CoarseOutcome::TwoLevel {
            let ras = MultiRas::new(&op, &self.factors);
            try_gmres_with(&op, &ras, &ip, &rhs, &x0, gmres, ckpt, recycle, &mut ws)
        } else {
            let t = self.t_for(&ctx);
            let adef1 = self.adef1(&op, &t);
            match self.opts.solver {
                SolverKind::Classical => {
                    try_gmres_with(&op, &adef1, &ip, &rhs, &x0, gmres, ckpt, recycle, &mut ws)
                }
                SolverKind::Pipelined => {
                    pipelined_gmres(&op, &adef1, &ip, &rhs, &x0, gmres, ckpt, recycle)
                }
                SolverKind::Fused => {
                    fused_pipelined_gmres(&op, &adef1, &ip, &rhs, &x0, gmres, ckpt, recycle)
                }
            }
        }
        .map_err(|si| interrupt_to_spmd(comm, si))?;
        comm.try_barrier()?;
        let t_solution = comm.clock() - clk_entry;
        let stats_after = comm.stats();
        let locals = ctx
            .spans()
            .map(|(s, span)| (s, result.x[span].to_vec()))
            .collect();
        Ok(MultiApplyOutcome {
            result,
            locals,
            t_solution,
            world_collectives_solution: stats_after.collective_calls
                - stats_before.collective_calls,
            p2p_messages: stats_after.p2p_messages,
            p2p_bytes: stats_after.p2p_bytes,
            collective_bytes: stats_after.collective_bytes
                + self.split.stats().collective_bytes
                + self
                    .master_comm
                    .as_ref()
                    .map_or(0, |m| m.stats().collective_bytes),
        })
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
    /// pieces — on the resident operator or on a layout-compatible
    /// override, two-level or one-level.
    #[doc(hidden)]
    pub fn debug_apply(
        &self,
        decomp_override: Option<&Decomposition>,
        r_global: &[f64],
    ) -> Result<DebugApply, SpmdError> {
        let ctx = self.ctx(decomp_override.unwrap_or(self.decomp));
        let op = MultiOp::new(&ctx);
        let r = self.restrict(&ctx, r_global);
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
                let t = self.t_for(&ctx);
                let adef1 = self.adef1(&op, &t);
                adef1.try_apply_with_op(&op, &r, &mut out.z, &mut out.az)?;
                // q made consistent by a round of its shares, A q both ways,
                // and the RAS tail with no coarse part.
                adef1
                    .coarse
                    .try_correction(&r, &mut out.q, &mut out.aq, Vec::new())?;
                let wy = out.q.clone();
                ctx.exchange_add(&[&wy], &mut [&mut out.q])?;
                op.try_apply(&out.q, &mut out.a_of_q)?;
                let t: Vec<f64> = r.iter().zip(&out.aq).map(|(a, b)| a - b).collect();
                adef1.ras.try_tail(&t, None, &mut out.ras, None)?;
            } else {
                let ras = MultiRas::new(&op, &self.factors);
                ras.try_apply_with_op(&op, &r, &mut out.z, &mut out.az)?;
                ras.try_apply(&r, &mut out.ras)?;
            }
            op.try_apply(&out.z, &mut out.a_of_z)
        };
        pieces(&mut out).map_err(|si| interrupt_to_spmd(self.comm, si))?;
        Ok(out)
    }
}

/// What [`PreparedMulti::debug_apply`] returns, over the owned subdomains.
#[doc(hidden)]
pub struct DebugApply {
    /// `z = M⁻¹ r` and `A z`, from one call of the preconditioner's
    /// right-preconditioned step (`Preconditioner::try_apply_with_op`).
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
            let mut panel = t.clone();
            {
                let cols: Vec<&[f64]> = t.iter().map(Vec::as_slice).collect();
                let mut outs: Vec<&mut [f64]> = panel.iter_mut().map(Vec::as_mut_slice).collect();
                halo.exchange_add(comm, &mut inbox, &cols, &mut outs)
                    .unwrap();
            }
            comm.trace_phase("loop");
            let mut single = t.clone();
            for (tc, oc) in t.iter().zip(single.iter_mut()) {
                halo.exchange_add(comm, &mut inbox, &[tc], &mut [oc])
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
                let t = vec![vec![1.0; n]; k];
                let mut out = t.clone();
                let cols: Vec<&[f64]> = t.iter().map(Vec::as_slice).collect();
                let mut outs: Vec<&mut [f64]> = out.iter_mut().map(Vec::as_mut_slice).collect();
                let mut inbox = vec![Vec::new(); 1];
                let err = halo
                    .exchange_add(comm, &mut inbox, &cols, &mut outs)
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
