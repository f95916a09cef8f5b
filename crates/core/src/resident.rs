//! The resident state of a set-up SPMD solve and the distributed applies of
//! the solve phase, written once over "the subdomains this rank owns".
//!
//! A rank hosts one or more subdomains (the *owner map*). Its Krylov
//! vectors hold each of its distinct dofs once (`DistinctDofs`): a dof
//! two owned subdomains share is one value, weighed in the inner product by
//! the sum of its copies' partition-of-unity values. Inside an apply the
//! local solves, SpMVs and coarse gathers run on the owned subdomains'
//! locals, concatenated in ascending subdomain order: each apply expands its
//! input to that layout on entry, and the halo round that ends it reads
//! that layout and writes the distinct dofs, each dof one sum in ascending
//! subdomain id, so its copies on every rank agree to the bit. One
//! subdomain per rank — the paper's layout — is the identity owner map:
//! there the two layouts coincide, and the applies below send exactly the
//! paper's messages: one halo message per neighbour per exchange, one
//! gather and one scatter per coarse correction (DESIGN.md, "resident
//! state, owned subdomains, halo plan").
//!
//! One set-up fills a [`PreparedMulti`], `spmd::try_setup_on`
//! (Algorithms 1–2 on any owner map). Everything after set-up — eq. 5, the
//! partition-of-unity inner product, RAS, the coarse correction of §3.2 and
//! `P⁻¹_A-DEF1` (eq. 6) with its fused payload (§3.5) — lives here. The
//! solve builds eq. 6 alone: one-level RAS (eq. 3) is eq. 6 with no coarse
//! space.
//!
//! Per Krylov iteration the two-level applies take two halo rounds and no
//! SpMV: the §3.1 identity `A R_sᵀ W_s = R_sᵀ T_s` gives `A q` from one
//! round of `T_s y_s`, and the RAS round carries the coarse shares `W_s y_s`
//! with it. The right-preconditioned step also needs `A z`; it rides on the
//! RAS round as a second column (`A R_sᵀ D_s = R_sᵀ A_s D_s`), so that step
//! is two rounds and one local SpMV where eq. 6 followed by an operator
//! apply was four and two (DESIGN.md, "halo rounds per iteration").

use std::cell::RefCell;
use std::collections::HashMap;

use crate::decomp::{Decomposition, Subdomain};
use crate::error::{CoarseOutcome, PhaseOutcome, RunReport, SpmdError};
use crate::spmd::{
    comm_interrupt, dist_interrupt, interrupt_to_spmd, solve_failpoint, SetupLabels, SolverKind,
    SpmdOpts, SpmdReport,
};
use dd_comm::Communicator;
use dd_krylov::{
    fused_pipelined_gmres_panel, try_gmres_panel, CheckpointCfg, FusedPreconditioner,
    GmresWorkspace, InnerProduct, Operator, Preconditioner, RecycleSpace, SolveInterrupt,
    SolveResult, SolveStatus,
};
use dd_linalg::{vector, CsrMatrix, DMat};
use dd_solver::{DistLdlt, LocalLdlt};

const TAG_X: u64 = 103; // SpMV / consistency exchanges

/// Per-epoch tag offset keeping successive recovered epochs' p2p traffic in
/// disjoint tag spaces, so a second recovery can never consume a stale
/// in-flight message of the first.
pub(crate) fn epoch_salt(comm: &Communicator) -> u64 {
    comm.epoch() as u64 * 10_000_000
}

// -------------------------------------------------------------- halo plan

/// The neighbour sum `out_g = Σ_{s ∋ g} (t_s)_g` of every distinct dof `g`
/// of this rank — the communication pattern of both the SpMV (eq. 5) and
/// the coarse prolongation (eq. 12) — planned once at set-up. A round reads
/// the owned subdomains' terms from their concatenated locals and the
/// remote ones from the received messages, and writes the rank's
/// distinct-dof vector.
///
/// A dof's terms are added in ascending global subdomain id, the first term
/// being the sum's start: every rank holding a copy of the dof forms the
/// same sum in the same order, so the copies agree to the bit. A dof no
/// other subdomain shares is a single read.
///
/// Each exchange sends one message per neighbouring *rank*, carrying each
/// (owned subdomain, global dof) value the peer's subdomains share once,
/// in ascending (subdomain, global dof) order: the order the peer lists
/// what it receives, so every received word is one term of one sum. On
/// the identity map that is one message per neighbour, the one link's
/// shared values, tag 103.
///
/// The tag is salted by the epoch and by the communicator's collective
/// count when the plan was built: a set-up repeated on one communicator (a
/// corruption replay, a server's re-set-up) never reads the halo messages
/// an abandoned solve left in flight. Set-ups therefore build the plan
/// before their first collective, where that count is 0 on a fresh world.
pub(crate) struct HaloPlan {
    tag: u64,
    /// Length of one input column: this rank's concatenated dofs.
    n: usize,
    /// Neighbouring ranks, ascending.
    peers: Vec<Peer>,
    /// Each distinct dof's term of the lowest subdomain id: its sum's start.
    first: Vec<Term>,
    /// The other terms, `(distinct dof, term)` by dof and then by ascending
    /// subdomain id: the order a round adds them in.
    rest: Vec<(u32, Term)>,
}

struct Peer {
    rank: usize,
    /// Concatenated positions packed into the message sent to `rank`.
    pack: Vec<usize>,
    /// Values in one column of the message `rank` sends back.
    recv_len: usize,
}

/// Where one term of a dof's sum is read. 32-bit positions keep the term
/// lists small: a round reads all of them.
#[derive(Clone, Copy)]
enum Term {
    /// An owned subdomain's copy: its concatenated position.
    Local(u32),
    /// A remote subdomain's copy: value `offset` of a column of the message
    /// from `peers[peer]`.
    Remote { peer: u32, offset: u32 },
}

impl HaloPlan {
    /// `host[s]` is the communicator rank hosting subdomain `s`; `owned`
    /// (ascending) and `starts` describe this rank's concatenation, `dofs`
    /// its distinct dofs.
    pub(crate) fn build(
        decomp: &Decomposition,
        comm: &Communicator,
        owned: &[usize],
        starts: &[usize],
        host: &[usize],
        dofs: &DistinctDofs,
    ) -> Self {
        let me = comm.rank();
        // What this rank sends, (peer, owned subdomain, global dof), and
        // what it receives, (peer, remote subdomain, global dof) with its
        // distinct dof, sorted; a key met from two links is one key. A
        // concatenated position `p` stands for its (owned subdomain, global
        // dof) and sorts like it: `l2g` is ascending. Links are symmetric,
        // so a peer's receive keys are this rank's send keys to it.
        let (mut send, mut recv) = (Vec::new(), Vec::new());
        for (i, &s) in owned.iter().enumerate() {
            let sub = &decomp.subdomains[s];
            for l in sub.neighbors.iter().filter(|l| host[l.j] != me) {
                for &k in &l.shared {
                    let p = starts[i] + k as usize;
                    send.push((host[l.j], p));
                    recv.push((host[l.j], l.j, sub.l2g[k as usize], dofs.slot[p]));
                }
            }
        }
        send.sort_unstable();
        send.dedup();
        recv.sort_unstable();
        recv.dedup();
        let mut peers: Vec<Peer> = Vec::new();
        for &(rank, p) in &send {
            match peers.last_mut() {
                Some(peer) if peer.rank == rank => peer.pack.push(p),
                _ => peers.push(Peer {
                    rank,
                    pack: vec![p],
                    recv_len: 0,
                }),
            }
        }
        let pos = |p: usize| u32::try_from(p).expect("halo positions fit in 32 bits");
        // Every term keyed by (distinct dof, subdomain), the two packed in
        // one integer: each owned copy and each received word. One sort
        // orders each dof's terms by subdomain.
        let key = |g: usize, s: usize| u64::from(pos(g)) << 32 | u64::from(pos(s));
        let mut terms: Vec<(u64, Term)> = Vec::with_capacity(starts[owned.len()] + recv.len());
        for (i, &s) in owned.iter().enumerate() {
            for p in starts[i]..starts[i + 1] {
                terms.push((key(dofs.slot[p], s), Term::Local(pos(p))));
            }
        }
        for &(rank, j, _, q) in &recv {
            let p = peers.partition_point(|p| p.rank < rank);
            let (peer, offset) = (pos(p), pos(peers[p].recv_len));
            peers[p].recv_len += 1;
            terms.push((key(q, j), Term::Remote { peer, offset }));
        }
        terms.sort_unstable_by_key(|&(k, _)| k);
        let (mut first, mut rest) = (Vec::with_capacity(dofs.n_unique()), Vec::new());
        for (i, &(k, t)) in terms.iter().enumerate() {
            let g = k >> 32;
            if i == 0 || terms[i - 1].0 >> 32 != g {
                first.push(t);
            } else {
                rest.push((g as u32, t));
            }
        }
        HaloPlan {
            tag: TAG_X + epoch_salt(comm) + (comm.collective_seq() << 32),
            n: starts[owned.len()],
            peers,
            first,
            rest,
        }
    }

    /// One round of panels of columns: `out[c]_g = Σ_{s ∋ g} t[c]_s` for
    /// every distinct dof `g` and every column `c` of every `(t, out)`
    /// pair, a column of `t` being `self.n` concatenated values and one of
    /// `out` the rank's distinct dofs. Each neighbouring rank gets one
    /// message, its values of every column one column after another (the
    /// pairs' columns in order), and every column is summed as a
    /// one-column round sums it — so a `k`-column round is `k` one-column
    /// rounds to the bit, in `1/k` of the messages. `inbox` holds the
    /// received messages, one slot per peer. Receives run under the ambient
    /// bounded retry policy; a dead or revoked peer, or a message of the
    /// wrong length, surfaces as a [`SolveInterrupt`].
    // dd:hot — two rounds per two-level Krylov iteration (three left-preconditioned)
    fn exchange(
        &self,
        comm: &Communicator,
        inbox: &mut [Vec<f64>],
        pairs: &mut [(&[f64], &mut [f64])],
    ) -> Result<(), SolveInterrupt> {
        let (n, nu) = (self.n, self.first.len());
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
            for (tc, oc) in t
                .chunks_exact(n.max(1))
                .zip(out.chunks_exact_mut(nu.max(1)))
            {
                let read = |term: &Term| match *term {
                    Term::Local(p) => tc[p as usize],
                    Term::Remote { peer, offset } => {
                        let peer = peer as usize;
                        inbox[peer][c * self.peers[peer].recv_len + offset as usize]
                    }
                };
                for (o, t) in oc.iter_mut().zip(&self.first) {
                    *o = read(t);
                }
                for (g, t) in &self.rest {
                    oc[*g as usize] += read(t);
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

// --------------------------------------------------------- distinct dofs

/// The distinct dofs of the subdomains one rank owns: the layout of its
/// Krylov vectors. Slots are numbered in ascending (owned subdomain, local
/// dof) order of a dof's first copy, so a rank that owns one subdomain gets
/// the identity map and `omega = D`.
pub(crate) struct DistinctDofs {
    /// Concatenated position → distinct-dof slot.
    slot: Vec<usize>,
    /// Slot → the concatenated position of its first copy.
    canon: Vec<usize>,
    /// ω of each slot: its copies' partition-of-unity values, summed from
    /// `0.0` in ascending owned subdomain.
    omega: Vec<f64>,
}

impl DistinctDofs {
    /// The map of the subdomains `owned` (ascending) of `decomp`.
    pub(crate) fn build(decomp: &Decomposition, owned: &[usize]) -> Self {
        let mut first: HashMap<u32, usize> = HashMap::new();
        let (mut slot, mut canon, mut omega) = (Vec::new(), Vec::new(), Vec::new());
        for &s in owned {
            let sub = &decomp.subdomains[s];
            for (&g, &d) in sub.l2g.iter().zip(&sub.d) {
                let q = *first.entry(g).or_insert_with(|| {
                    canon.push(slot.len());
                    omega.push(0.0);
                    canon.len() - 1
                });
                omega[q] += d;
                slot.push(q);
            }
        }
        DistinctDofs { slot, canon, omega }
    }

    /// Distinct dofs: the length of a Krylov vector.
    pub(crate) fn n_unique(&self) -> usize {
        self.canon.len()
    }

    /// `out ← x` copied to every copy of each dof, for `k` columns:
    /// `n_unique` values a column in `x`, the concatenated length in `out`.
    pub(crate) fn expand(&self, k: usize, x: &[f64], out: &mut [f64]) {
        let (nu, nc) = (self.n_unique(), self.slot.len());
        for c in 0..k {
            let xc = &x[c * nu..(c + 1) * nu];
            for (o, &q) in out[c * nc..(c + 1) * nc].iter_mut().zip(&self.slot) {
                *o = xc[q];
            }
        }
    }

    /// `out ←` the first copy of each dof of the concatenated `x`: the
    /// inverse of [`DistinctDofs::expand`] on a vector whose copies agree,
    /// for the checkpoint resume (a halo round writes distinct dofs).
    pub(crate) fn compress(&self, x: &[f64], out: &mut [f64]) {
        for (o, &p) in out.iter_mut().zip(&self.canon) {
            *o = x[p];
        }
    }
}

// ------------------------------------------------------------ the applies

/// What every apply of one solve shares: the communicator, the resident
/// decomposition (partition of unity, restrictions, `A_s`), the diagonal
/// shift of the operator being solved, the owned subdomains'
/// concatenation, its distinct dofs, and the halo plan.
struct MultiCtx<'a> {
    comm: &'a Communicator,
    decomp: &'a Decomposition,
    /// `shift·diag(A_s)` of the operator being solved,
    /// `A_s + shift·diag(A_s)`, concatenated over the owned subdomains
    /// (Dirichlet rows zero); empty for the resident operator.
    shift_diag: Vec<f64>,
    /// Subdomains this rank owns, ascending.
    owned: &'a [usize],
    /// Concatenation offsets of the owned subdomains' locals (len+1).
    starts: &'a [usize],
    /// The Krylov vectors' layout and its map to the concatenation.
    dofs: &'a DistinctDofs,
    halo: &'a HaloPlan,
    inbox: RefCell<Vec<Vec<f64>>>,
}

impl MultiCtx<'_> {
    fn n_concat(&self) -> usize {
        self.starts[self.owned.len()]
    }

    fn n_unique(&self) -> usize {
        self.dofs.n_unique()
    }

    /// Owned subdomains with their span in the concatenated vectors.
    fn spans(&self) -> impl Iterator<Item = (usize, std::ops::Range<usize>)> + '_ {
        self.owned
            .iter()
            .zip(self.starts.windows(2))
            .map(|(&s, w)| (s, w[0]..w[1]))
    }

    /// [`MultiCtx::spans`] with each subdomain itself.
    fn locals(&self) -> impl Iterator<Item = (&Subdomain, std::ops::Range<usize>)> + '_ {
        self.spans()
            .map(|(s, span)| (&self.decomp.subdomains[s], span))
    }

    /// `t_c += shift·diag(A_s) x_c` over the owned subdomain at `span`, for
    /// `k` columns `ld` apart in `x` and `t`: the diagonal shift of the
    /// operator being solved, added inside the subdomain's local product: a
    /// term of the share the halo round sums. Returns the flops; the
    /// resident operator has none.
    fn add_shift(
        &self,
        span: &std::ops::Range<usize>,
        x: &[f64],
        t: &mut [f64],
        ld: usize,
        k: usize,
    ) -> u64 {
        if self.shift_diag.is_empty() {
            return 0;
        }
        let sd = &self.shift_diag[span.start..span.end];
        for c in 0..k {
            let col = c * ld + span.start..c * ld + span.end;
            for ((t, x), s) in t[col.clone()].iter_mut().zip(&x[col]).zip(sd) {
                *t += s * x;
            }
        }
        (2 * k * sd.len()) as u64
    }

    /// One halo round of every `(t, out)` panel's columns (see
    /// [`HaloPlan::exchange`]).
    fn exchange(&self, pairs: &mut [(&[f64], &mut [f64])]) -> Result<(), SolveInterrupt> {
        self.halo
            .exchange(self.comm, &mut self.inbox.borrow_mut(), pairs)
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
/// one column or on a panel of them. Its vectors hold the rank's distinct
/// dofs: `x` is expanded to the owned subdomains' locals, and the halo
/// round writes `A x`.
struct MultiOp<'a> {
    ctx: &'a MultiCtx<'a>,
    /// Warm-path concatenated scratch `(D x, A D x)`, `k` columns of each.
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

    /// `t_s ← A_s D_s x_s` (plus the shift) for every owned subdomain and
    /// each of the `k` columns of `x` (distinct dofs), `w` holding `D x`
    /// (concatenated).
    // dd:hot — per-Krylov-iteration SpMV; scratch reuse keeps it allocation-free
    fn local_part_into(&self, k: usize, x: &[f64], w: &mut [f64], t: &mut [f64]) {
        let ctx = self.ctx;
        let n = ctx.n_concat();
        let mut flops = 0u64;
        ctx.comm.compute(|| {
            ctx.dofs.expand(k, x, w);
            for (sub, span) in ctx.locals() {
                for c in 0..k {
                    vector::scale_by(&sub.d, &mut w[c * n + span.start..c * n + span.end]);
                }
                sub.spmv_dirichlet_panel(&w[span.start..], &mut t[span.start..], n, k);
                flops += (k * (2 * sub.a_dirichlet.nnz() + sub.d.len())) as u64;
                flops += ctx.add_shift(&span, w, t, n, k);
            }
        });
        ctx.comm.charge_flops(flops);
    }
}

impl Operator for MultiOp<'_> {
    fn dim(&self) -> usize {
        self.ctx.n_unique()
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
        self.ctx.exchange(&mut [(t, y)])
    }
}

/// Distributed inner product: `⟨u, v⟩ = Σ_g ω_g u_g v_g` over the rank's
/// distinct dofs, reduced over ranks. `ω_g` sums the partition-of-unity
/// values of the dof's copies on this rank, so this is `Σ_s (D_s u_s)ᵀ v_s`
/// over the owned subdomains — exact thanks to the partition of unity.
struct MultiDot<'a> {
    ctx: &'a MultiCtx<'a>,
    /// Warm-path scratch `ω w` of a Gram row, and `ω x`, `ω y` of the
    /// low-synchronization Gram pass.
    scratch: RefCell<[Vec<f64>; 2]>,
}

impl<'a> MultiDot<'a> {
    fn new(ctx: &'a MultiCtx<'a>) -> Self {
        MultiDot {
            ctx,
            scratch: RefCell::new([vec![0.0; ctx.n_unique()], vec![0.0; ctx.n_unique()]]),
        }
    }
}

impl InnerProduct for MultiDot<'_> {
    fn local_dot(&self, x: &[f64], y: &[f64]) -> f64 {
        let ctx = self.ctx;
        let mut acc = 0.0;
        for ((om, xg), yg) in ctx.dofs.omega.iter().zip(x).zip(y) {
            acc += om * xg * yg;
        }
        ctx.comm.charge_flops(3 * x.len() as u64);
        acc
    }

    // dd:hot — the Gram rows of every Arnoldi step: `ω w` is formed once a
    // row, `(ω·w)·v` being what `local_dot` multiplies, and the panel kernel
    // reads it once per four basis vectors
    fn local_dots(&self, w: &[f64], vs: &[Vec<f64>], out: &mut [f64]) {
        let ctx = self.ctx;
        let dw = &mut self.scratch.borrow_mut()[0];
        vector::hadamard(&ctx.dofs.omega, w, dw);
        vector::dot_many(dw, vs, out);
        ctx.comm.charge_flops(3 * (w.len() * vs.len()) as u64);
    }

    // dd:hot — the one Gram pass of a DCGS2 step: `ω x` and `ω y` are
    // formed once, then every value is a four-lane `vector::dot`
    fn local_dots2(&self, x: &[f64], y: &[f64], vs: &[Vec<f64>], out: &mut [f64]) {
        let (ctx, nv) = (self.ctx, vs.len());
        let [dx, dy] = &mut *self.scratch.borrow_mut();
        vector::hadamard(&ctx.dofs.omega, x, dx);
        vector::hadamard(&ctx.dofs.omega, y, dy);
        vector::dot2_many(dx, dy, vs, &mut out[..2 * nv]);
        out[2 * nv] = vector::dot(dx, x);
        out[2 * nv + 1] = vector::dot(dx, y);
        out[2 * nv + 2] = vector::dot(dy, y);
        ctx.comm.charge_flops(3 * (x.len() * (2 * nv + 3)) as u64);
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
/// owned subdomain's share `W_s y_s` of `q = Z E⁻¹ Zᵀ r` (concatenated, not
/// yet summed over neighbours) and `A q` (distinct dofs).
struct CoarsePart<'b> {
    wy: &'b [f64],
    aq: &'b [f64],
}

/// Distributed RAS, `z_s = Σ_j R_s R_jᵀ D_j A_j⁻¹ r_j` (eq. 3): the tail
/// of eq. 6, on one column or on a panel of them, from and to the rank's
/// distinct dofs.
struct MultiRas<'a> {
    /// The operator being solved: its context, and its `A_s` for `A z`.
    op: &'a MultiOp<'a>,
    /// Local factors, aligned with `ctx.owned`.
    factors: &'a [LocalLdlt],
    /// Warm-path concatenated scratch: the columns
    /// `[D A⁻¹ t + W y…, A D A⁻¹ t…]` one halo round carries.
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

    /// The RAS tail of eq. 6, for the `k` columns of `t`
    /// (distinct dofs, expanded to the owned subdomains' locals here).
    /// `u_s = A_s⁻¹ t_s` on every owned subdomain, all columns in one panel
    /// solve, then ONE halo round: of `D_s u_s + W_s y_s` (the coarse
    /// shares, when there is a coarse part), which sums to `z`, and — when
    /// `az` is asked for — of `A_s D_s u_s` (plus the operator's shift) as
    /// `k` more columns, which sum
    /// to `A RAS(t)` because `D_s` vanishes where `A_s` and `A` differ (the
    /// identity eq. 5 rests on), so `A z` is that plus `A q`, added to the
    /// round's distinct dofs. Each column is the one-column tail to the
    /// bit.
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
            ctx.dofs.expand(k, t, du);
            for ((sub, span), factor) in ctx.locals().zip(self.factors) {
                factor.solve_panel_with(&mut du[span.start..], n, k, &mut work);
                for c in 0..k {
                    vector::scale_by(&sub.d, &mut du[c * n + span.start..c * n + span.end]);
                }
                flops += (k * (4 * factor.nnz_l() + sub.d.len())) as u64;
                if az.is_some() {
                    sub.spmv_dirichlet_panel(&du[span.start..], &mut adu[span.start..], n, k);
                    flops += (k * 2 * sub.a_dirichlet.nnz()) as u64;
                    flops += ctx.add_shift(&span, du, adu, n, k);
                }
                if let Some(cp) = &coarse {
                    for c in 0..k {
                        let (lo, hi) = (c * n + span.start, c * n + span.end);
                        vector::axpy(1.0, &cp.wy[lo..hi], &mut du[lo..hi]);
                    }
                    flops += (k * 2 * sub.d.len()) as u64;
                }
            }
        });
        ctx.comm.charge_flops(flops);
        match az {
            None => ctx.exchange(&mut [(du, z)]),
            Some(az) => {
                ctx.exchange(&mut [(du, z), (adu, az)])?;
                if let Some(cp) = &coarse {
                    vector::axpy(1.0, cp.aq, az);
                }
                Ok(())
            }
        }
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
    /// Warm-path scratch `T y`, `k` columns.
    scratch: RefCell<Vec<f64>>,
    /// The redundant coarse solve's permuted work vector (empty until a
    /// master's first solve; the other ranks never touch it).
    solve_scratch: RefCell<Vec<f64>>,
    /// Eq. 6's warm-path scratch around the correction, `k` columns each:
    /// `(r, W y)` concatenated, `(A q, r − A q)` over the distinct dofs.
    eq6_scratch: RefCell<[Vec<f64>; 4]>,
}

impl<'a> MultiCoarse<'a> {
    /// For panels of up to `k` columns.
    fn new(ctx: &'a MultiCtx<'a>, state: &'a PreparedMulti<'a>, k: usize) -> Self {
        let (nc, nu) = (k * ctx.n_concat(), k * ctx.n_unique());
        MultiCoarse {
            ctx,
            state,
            scratch: RefCell::new(vec![0.0; nc]),
            solve_scratch: RefCell::new(Vec::new()),
            eq6_scratch: RefCell::new([vec![0.0; nc], vec![0.0; nc], vec![0.0; nu], vec![0.0; nu]]),
        }
    }

    /// `y = E⁻¹ Zᵀ u` for the `k` columns of `u`, carrying a fused payload
    /// of local reduction contributions through the gather, a reduction
    /// among masters overlapped with the coarse solve, and the scatter
    /// (§3.5); then every owned subdomain's share `wy_s = W_s y_s` of
    /// `q = Z y`, and `A q` (distinct dofs) from one halo round of
    /// `T_s y_s` — the §3.1 identity `A R_sᵀ W_s = R_sᵀ T_s` (`W_s = D_s Λ_s`
    /// vanishes where `A_s` and `A` differ), so no SpMV. A shifted
    /// operator's `T_s` is `T_s + shift·diag(A_s) W_s`: each share gains
    /// `shift·diag(A_s) W_s y_s` before the round. Returns the reduced
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
        // step 3b: W_s y_s and T_s y_s (plus the shift), then A q by the
        // consistency sum of the latter (eq. 12, applied to T instead of W).
        let mut ty = self.scratch.borrow_mut();
        let ty = prefix(&mut ty, k * n);
        let mut flops = 0u64;
        comm.compute(|| {
            for c in 0..k {
                let mut at = c * n_mine;
                for (((_, span), w), t) in ctx.spans().zip(&st.w).zip(&st.t) {
                    let y = &y_mine[at..at + w.cols()];
                    let col = c * n + span.start..c * n + span.end;
                    w.gemv(1.0, y, 0.0, &mut wy[col.clone()]);
                    t.gemv(1.0, y, 0.0, &mut ty[col]);
                    at += w.cols();
                    flops += 4 * (w.cols() * w.rows()) as u64;
                }
            }
            for (_, span) in ctx.spans() {
                flops += ctx.add_shift(&span, wy, ty, n, k);
            }
        });
        comm.charge_flops(flops);
        ctx.exchange(&mut [(ty, aq)])?;
        Ok(reduced.to_vec())
    }
}

/// The distributed preconditioner `P⁻¹_A-DEF1` (eq. 6), in two halo
/// rounds: `T y` for `A q` after the coarse solve, then the RAS tail's round
/// carrying `D A⁻¹(r − A q) + W y` (and `A D A⁻¹(r − A q)` when `A z` is
/// wanted) — on one column or on a panel of them, whose columns share every
/// round and the coarse solve. Without a coarse level (`Z` empty: ν = 0, or
/// a coarse level that failed or came out empty) `q = 0` and eq. 6 is
/// one-level RAS (eq. 3): the tail alone, one round.
struct MultiADef1<'a> {
    ras: MultiRas<'a>,
    coarse: Option<MultiCoarse<'a>>,
}

impl MultiADef1<'_> {
    /// `z = RAS(r − A q) + q` with `q = Z E⁻¹ Zᵀ r` for the `k` columns of
    /// `r`, and `A z` into `az` if given; the payload rides on the one
    /// coarse solve and comes back reduced. `r`, `z` and `A z` hold the
    /// distinct dofs; the coarse correction runs on `r` expanded, and its
    /// halo round writes `A q` over the distinct dofs. Without a coarse
    /// level `z = RAS(r)`, and a payload is reduced on its own.
    // dd:hot — per-iteration application of eq. 6
    fn try_eq6(
        &self,
        k: usize,
        r: &[f64],
        z: &mut [f64],
        az: Option<&mut [f64]>,
        payload: Vec<f64>,
    ) -> Result<Vec<f64>, SolveInterrupt> {
        let Some(coarse) = &self.coarse else {
            self.ras.try_tail(k, r, None, z, az)?;
            if payload.is_empty() {
                return Ok(payload);
            }
            let comm = self.ras.op.ctx.comm;
            return comm.try_allreduce_sum_vec(payload).map_err(comm_interrupt);
        };
        let ctx = coarse.ctx;
        let nc = k * ctx.n_concat();
        let mut scratch = coarse.eq6_scratch.borrow_mut();
        let [rc, wy, aq, t] = &mut *scratch;
        let (rc, wy) = (prefix(rc, nc), prefix(wy, nc));
        let (aq, t) = (prefix(aq, r.len()), prefix(t, r.len()));
        ctx.dofs.expand(k, r, rc);
        let reduced = coarse.try_correction(k, rc, wy, aq, payload)?;
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

    /// `A z = A RAS(r − A q) + A q` from the rounds eq. 6 runs anyway: the
    /// RAS round carries `A D A⁻¹(r − A q)` as `k` more columns, one local
    /// SpMV each, so no extra round and no full SpMV. `op` is always the
    /// operator this preconditioner was built on: every caller hands the
    /// Krylov loop the same `MultiOp`.
    fn try_apply_panel_with_op(
        &self,
        op: &dyn Operator,
        k: usize,
        r: &[f64],
        z: &mut [f64],
        w: &mut [f64],
    ) -> Result<(), SolveInterrupt> {
        debug_assert!(
            std::ptr::addr_eq(op, self.ras.op),
            "A z of another operator"
        );
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
    /// The distinct dofs of the owned subdomains: the Krylov vectors'
    /// layout, built beside the halo plan.
    pub(crate) dofs: DistinctDofs,
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
/// virtual time. Its traffic is counted by the trace, not here.
#[derive(Debug)]
pub struct MultiApplyOutcome {
    pub result: SolveResult,
    /// `(subdomain, local solution)` for every owned subdomain.
    pub locals: Vec<(usize, Vec<f64>)>,
    /// Virtual seconds spent in this apply (synchronized by the trailing
    /// barrier, so the value is the modeled parallel time).
    pub t_solution: f64,
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
        let mut out = self.try_apply_on(0.0, &[rhs_global], phase, ckpt, None)?;
        Ok(out.remove(0))
    }

    /// The context of a solve of `A + shift·diag(A)` (`shift = 0.0`: the
    /// resident operator).
    fn ctx(&self, shift: f64) -> MultiCtx<'_> {
        let shift_diag = if shift == 0.0 {
            Vec::new()
        } else {
            self.owned
                .iter()
                .flat_map(|&s| self.decomp.subdomains[s].shifted_diag(shift))
                .collect()
        };
        MultiCtx {
            comm: self.comm,
            decomp: self.decomp,
            shift_diag,
            owned: &self.owned,
            starts: &self.starts,
            dofs: &self.dofs,
            halo: &self.halo,
            inbox: RefCell::new(vec![Vec::new(); self.halo.peers.len()]),
        }
    }

    /// Eq. 6 on `op`, for panels of up to `k` columns: with the coarse
    /// correction when the set-up ended two-level, one-level RAS otherwise.
    fn adef1<'s>(&'s self, op: &'s MultiOp<'s>, k: usize) -> MultiADef1<'s> {
        MultiADef1 {
            ras: MultiRas::new(op, &self.factors, k),
            coarse: (self.run.coarse == CoarseOutcome::TwoLevel)
                .then(|| MultiCoarse::new(op.ctx, self, k)),
        }
    }

    /// `v` restricted to this rank's distinct dofs, in slot order: the
    /// first copy of each dof in (owned subdomain, local dof) order.
    fn restrict(&self, v_global: &[f64]) -> Vec<f64> {
        let dofs = &self.dofs;
        let mut v = Vec::with_capacity(dofs.n_unique());
        let l2g = self
            .owned
            .iter()
            .flat_map(|&s| &self.decomp.subdomains[s].l2g);
        for (p, &g) in l2g.enumerate() {
            if dofs.canon[dofs.slot[p]] == p {
                v.push(v_global[g as usize]);
            }
        }
        v
    }

    /// [`PreparedMulti::try_apply`] for a panel of right-hand sides of
    /// `(A + shift·diag A) x = b`, optionally with a Krylov recycle space —
    /// the serving path of `dd-serve`. `A` is the resident operator and
    /// `diag A` each owned `A_s`'s diagonal with the Dirichlet rows zero,
    /// so `shift = 0.0` solves the resident operator itself and a shift
    /// `s` solves what [`Decomposition::perturb_diag`] at `θ = s` would
    /// set up. One outcome per right-hand side, in order.
    ///
    /// Under [`SolverKind::Classical`] the columns run as recurrences that
    /// share every halo round, coarse solve and reduction
    /// (`dd_krylov::try_gmres_panel`); the fused loop solves them one after
    /// another. A set-up without a coarse level runs the classical
    /// loop whatever `opts.solver` names. Either way each answer equals, to
    /// the bit, the one-column solve from the same recycle state, and the
    /// apply ends on one barrier. Under a shift the Krylov loop solves the
    /// shifted operator while RAS and the coarse correction reuse the resident
    /// factorizations; no matrix is formed or kept for it. With a recycle space
    /// every initial guess is projected onto the directions the space holds
    /// at entry and the increments are banked in column order; convergence
    /// is still anchored to `tol ·` the residual at the zero guess, so
    /// accuracy matches an unrecycled apply. A checkpoint belongs to a
    /// one-column apply. A right-hand side of the wrong length or holding a
    /// non-finite value is a [`SpmdError::Protocol`] naming its column.
    pub fn try_apply_on(
        &self,
        shift: f64,
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
        for (c, b) in rhs_global.iter().enumerate() {
            let what = if b.len() != n {
                format!(
                    "right-hand side {c} holds {} values, the system {n}",
                    b.len()
                )
            } else if let Some(i) = b.iter().position(|v| !v.is_finite()) {
                format!("right-hand side {c} holds {} at dof {i}", b[i])
            } else {
                continue;
            };
            return Err(SpmdError::Protocol {
                rank: comm.rank(),
                what,
            });
        }
        comm.trace_phase(phase);

        // ---- phase 4: solve --------------------------------------------
        let clk_entry = comm.clock();
        let ctx = self.ctx(shift);
        let rhs: Vec<f64> = rhs_global.iter().flat_map(|b| self.restrict(b)).collect();
        let x0 = vec![0.0; rhs.len()];
        let op = MultiOp::new(&ctx, k);
        let ip = MultiDot::new(&ctx);
        let gmres = &self.opts.gmres;
        let mut ws = self.workspace.borrow_mut();

        // A block, so the preconditioner's scratch is freed before the
        // outcomes are built.
        let results = {
            let adef1 = self.adef1(&op, k);
            let (m, b) = (&adef1, &rhs);
            let solver = adef1
                .coarse
                .as_ref()
                .map_or(SolverKind::Classical, |_| self.opts.solver);
            match solver {
                SolverKind::Classical => {
                    try_gmres_panel(&op, m, &ip, b, &x0, k, gmres, ckpt, recycle, &mut ws)
                }
                SolverKind::Fused => {
                    fused_pipelined_gmres_panel(&op, m, &ip, b, &x0, k, gmres, ckpt, recycle)
                }
            }
        }
        .map_err(|si| interrupt_to_spmd(comm, si))?;
        comm.try_barrier()?;
        let t_solution = comm.clock() - clk_entry;
        Ok(results
            .into_iter()
            .map(|result| MultiApplyOutcome {
                locals: ctx
                    .spans()
                    .map(|(s, span)| (s, span.map(|p| result.x[self.dofs.slot[p]]).collect()))
                    .collect(),
                result,
                t_solution,
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
        run.faults = comm.fault_stats();
        let me_world = comm.world_rank();
        SpmdReport {
            rank: me_world,
            t_factorization: self.t_factorization,
            t_deflation: self.t_deflation,
            t_coarse: self.t_coarse,
            t_solution: out.t_solution,
            t_total: comm.clock(),
            nu: self.nu,
            dim_e: self.dim_e,
            nnz_e_factor: self.nnz_e_factor,
            n_neighbors: self.halo.n_peers(),
            run,
        }
    }

    /// Test helper: the preconditioner of this set-up applied once to
    /// `R r_global` as the right-preconditioned Krylov step applies it (`z`
    /// and `A z` from one call), `A z` by the distributed SpMV, and eq. 6
    /// composed from its pieces — on the resident operator or on a shift of
    /// it ([`PreparedMulti::try_apply_on`]), two-level or one-level.
    /// Computed over the distinct
    /// dofs, as a solve computes them, and returned expanded to the owned
    /// subdomains' locals.
    #[doc(hidden)]
    pub fn debug_apply(&self, shift: f64, r_global: &[f64]) -> Result<DebugApply, SpmdError> {
        let ctx = self.ctx(shift);
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
        let nc = ctx.n_concat();
        let pieces = |out: &mut DebugApply| -> Result<(), SolveInterrupt> {
            let adef1 = self.adef1(&op, 1);
            adef1.try_apply_panel_with_op(&op, 1, &r, &mut out.z, &mut out.az)?;
            // q summed by a round of its shares and A q both ways (all zero
            // without a coarse level), then the RAS tail with no coarse part.
            if let Some(coarse) = &adef1.coarse {
                let (mut rc, mut wy) = (vec![0.0; nc], vec![0.0; nc]);
                ctx.dofs.expand(1, &r, &mut rc);
                coarse.try_correction(1, &rc, &mut wy, &mut out.aq, Vec::new())?;
                ctx.exchange(&mut [(&wy, &mut out.q)])?;
                op.try_apply_panel(1, &out.q, &mut out.a_of_q)?;
            }
            let t: Vec<f64> = r.iter().zip(&out.aq).map(|(a, b)| a - b).collect();
            adef1.ras.try_tail(1, &t, None, &mut out.ras, None)?;
            op.try_apply_panel(1, &out.z, &mut out.a_of_z)
        };
        pieces(&mut out).map_err(|si| interrupt_to_spmd(self.comm, si))?;
        for v in [
            &mut out.z,
            &mut out.az,
            &mut out.a_of_z,
            &mut out.q,
            &mut out.aq,
            &mut out.a_of_q,
            &mut out.ras,
        ] {
            let mut locals = vec![0.0; nc];
            ctx.dofs.expand(1, v, &mut locals);
            *v = locals;
        }
        Ok(out)
    }
}

/// What [`PreparedMulti::debug_apply`] returns, over the owned subdomains'
/// concatenated locals.
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
    /// communicator: owned subdomains, concatenation offsets, distinct
    /// dofs, halo plan.
    fn chunked(
        decomp: &Decomposition,
        comm: &Communicator,
    ) -> (Vec<usize>, Vec<usize>, DistinctDofs, HaloPlan) {
        let nsub = decomp.n_subdomains();
        let host: Vec<usize> = (0..nsub).map(|s| comm.size() * s / nsub).collect();
        let owned: Vec<usize> = (0..nsub).filter(|&s| host[s] == comm.rank()).collect();
        let mut starts = vec![0];
        for &s in &owned {
            starts.push(starts[starts.len() - 1] + decomp.subdomains[s].n_local());
        }
        let dofs = DistinctDofs::build(decomp, &owned);
        let halo = HaloPlan::build(decomp, comm, &owned, &starts, &host, &dofs);
        (owned, starts, dofs, halo)
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
            let (owned, starts, dofs, halo) = chunked(&decomp, comm);
            let (n, nu) = (starts[owned.len()], dofs.n_unique());
            let mut inbox = vec![Vec::new(); halo.n_peers()];
            let t: Vec<Vec<f64>> = (0..K)
                .map(|c| (0..n).map(|g| wave(g + 11 * c + 5 * comm.rank())).collect())
                .collect();
            comm.trace_phase("panel");
            let flat = t.concat();
            let mut panel = vec![0.0; K * nu];
            halo.exchange(comm, &mut inbox, &mut [(&flat, &mut panel)])
                .unwrap();
            let panel: Vec<Vec<f64>> = panel.chunks_exact(nu).map(<[f64]>::to_vec).collect();
            comm.trace_phase("loop");
            let mut single = vec![vec![0.0; nu]; K];
            for (tc, oc) in t.iter().zip(single.iter_mut()) {
                halo.exchange(comm, &mut inbox, &mut [(tc, oc)]).unwrap();
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

    /// A round writes each distinct dof as the sum of its subdomains'
    /// terms in ascending subdomain id, to the bit — the sum every rank
    /// holding a copy forms — on an owner map with same-host and remote
    /// links, each subdomain's term a function of (subdomain, global dof).
    #[test]
    fn a_round_sums_each_dof_in_ascending_subdomain_id() {
        let mesh = Mesh::unit_square(12, 12);
        let part = partition_mesh_rcb(&mesh, 6);
        let decomp = decompose(&mesh, &presets::heterogeneous_diffusion(2), &part, 6, 1);
        let term = |s: usize, g: u32| ((g as f64 + 0.3) * (s as f64 + 1.7)).sin() * 1e3;
        let mut sums: HashMap<u32, f64> = HashMap::new();
        for (s, sub) in decomp.subdomains.iter().enumerate() {
            for &g in &sub.l2g {
                let v = term(s, g);
                sums.entry(g).and_modify(|sum| *sum += v).or_insert(v);
            }
        }
        let rows = World::run(2, CostModel::default(), |comm| {
            let (owned, _, dofs, halo) = chunked(&decomp, comm);
            let l2g: Vec<u32> = owned
                .iter()
                .flat_map(|&s| &decomp.subdomains[s].l2g)
                .copied()
                .collect();
            let t: Vec<f64> = owned
                .iter()
                .flat_map(|&s| decomp.subdomains[s].l2g.iter().map(move |&g| term(s, g)))
                .collect();
            let mut out = vec![0.0; dofs.n_unique()];
            let mut inbox = vec![Vec::new(); halo.n_peers()];
            halo.exchange(comm, &mut inbox, &mut [(&t, &mut out)])
                .unwrap();
            (0..l2g.len())
                .map(|p| (l2g[p], out[dofs.slot[p]]))
                .collect::<Vec<_>>()
        });
        for (g, v) in rows.into_iter().flatten() {
            assert_eq!(v.to_bits(), sums[&g].to_bits(), "dof {g}");
        }
    }

    /// The two ends of a link list the same words: a rank packs for a
    /// peer as many values as that peer expects from it, and every word
    /// it receives is read by exactly one term — on an owner map where a
    /// remote subdomain shares dofs with several owned ones.
    #[test]
    fn every_received_halo_word_is_read_once() {
        let mesh = Mesh::unit_square(12, 12);
        let part = partition_mesh_rcb(&mesh, 6);
        let decomp = decompose(&mesh, &presets::heterogeneous_diffusion(2), &part, 6, 1);
        let plans = World::run(2, CostModel::default(), |comm| {
            let (_, _, _, halo) = chunked(&decomp, comm);
            let mut reads: Vec<Vec<usize>> =
                halo.peers.iter().map(|p| vec![0; p.recv_len]).collect();
            for t in halo.first.iter().chain(halo.rest.iter().map(|(_, t)| t)) {
                if let Term::Remote { peer, offset } = *t {
                    reads[peer as usize][offset as usize] += 1;
                }
            }
            let links: Vec<(usize, usize, usize)> = halo
                .peers
                .iter()
                .map(|p| (p.rank, p.pack.len(), p.recv_len))
                .collect();
            (links, reads)
        });
        for (me, (links, reads)) in plans.iter().enumerate() {
            assert!(!links.is_empty(), "rank {me} has a neighbouring rank");
            for (&(rank, _, recv_len), reads) in links.iter().zip(reads) {
                let packed = plans[rank].0.iter().find(|l| l.0 == me).map(|l| l.1);
                assert_eq!(packed, Some(recv_len), "rank {rank} packs for rank {me}");
                let read = reads.iter().filter(|&&n| n == 1).count();
                assert_eq!(
                    (read, reads.iter().sum::<usize>()),
                    (recv_len, recv_len),
                    "rank {me} reads once of the {recv_len} words from rank {rank}"
                );
            }
        }
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
                let (owned, starts, dofs, halo) = chunked(&decomp, comm);
                let n = starts[owned.len()];
                let peer = &halo.peers[0];
                if comm.rank() == 1 {
                    // One column of the right length, less `short_by`.
                    comm.send(peer.rank, halo.tag, vec![0.0; peer.pack.len() - short_by]);
                    let _: Vec<f64> = comm.recv(peer.rank, halo.tag);
                    return None;
                }
                let t = vec![1.0; k * n];
                let mut out = vec![0.0; k * dofs.n_unique()];
                let mut inbox = vec![Vec::new(); 1];
                let err = halo
                    .exchange(comm, &mut inbox, &mut [(&t, &mut out)])
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
                    |rhs| match st.try_apply_on(0.0, rhs, "bad-apply", None, None) {
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
                let ctx = st.ctx(0.0);
                let coarse = MultiCoarse::new(&ctx, &st, 1);
                let n = ctx.n_concat();
                let (mut wy, mut aq) = (vec![0.0; n], vec![0.0; ctx.n_unique()]);
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

    /// Eq. 6 without a coarse level (ν = 0) is the RAS tail alone, and a
    /// fused payload, with no coarse gather to ride on, is reduced over the
    /// ranks on its own: `apply_fused` gives `try_apply_panel`'s `z` to the
    /// bit, and the payload's sum.
    #[test]
    fn a_fused_payload_without_a_coarse_level_is_still_reduced() {
        let mesh = Mesh::unit_square(8, 8);
        let part = partition_mesh_rcb(&mesh, 2);
        let decomp = decompose(&mesh, &presets::heterogeneous_diffusion(1), &part, 2, 1);
        let mut opts = SpmdOpts::default();
        opts.geneo.nev = 0;
        let rows = World::run(2, CostModel::default(), |comm| {
            let st = crate::spmd::try_setup(&decomp, comm, &opts).expect("set-up");
            let ctx = st.ctx(0.0);
            let op = MultiOp::new(&ctx, 1);
            let m = st.adef1(&op, 1);
            assert!(m.coarse.is_none(), "a coarse part at ν = 0");
            let r: Vec<f64> = (0..ctx.n_unique())
                .map(|i| (0.3 * i as f64).sin())
                .collect();
            let (mut z, mut zf) = (vec![0.0; r.len()], vec![0.0; r.len()]);
            m.try_apply_panel(1, &r, &mut z).expect("apply");
            let payload = vec![comm.rank() as f64 + 1.0, 0.5];
            let reduced = m.apply_fused(&r, &mut zf, payload).expect("fused apply");
            (bits(&z) == bits(&zf), reduced)
        });
        for (same_z, reduced) in rows {
            assert!(same_z, "the fused apply moved z");
            assert_eq!(reduced, [3.0, 1.0]);
        }
    }

    /// `MultiDot::local_dots` is the loop over `MultiDot::local_dot`, bit
    /// for bit and flop for flop, on an owner map with three subdomains on
    /// each of two ranks (so `ω` sums several copies of a dof).
    #[test]
    fn gram_row_panel_is_the_per_vector_loop_bitwise_and_in_flops() {
        const NSUB: usize = 6;
        const NV: usize = 7;
        let mesh = Mesh::unit_square(12, 12);
        let part = partition_mesh_rcb(&mesh, NSUB);
        let decomp = decompose(&mesh, &presets::heterogeneous_diffusion(2), &part, NSUB, 1);
        let wave = |k: usize| (k as f64 * 0.37).sin() + 0.25;
        let (rows, trace) = World::run_traced(2, CostModel::default(), |comm| {
            let (owned, starts, dofs, halo) = chunked(&decomp, comm);
            let ctx = MultiCtx {
                comm,
                decomp: &decomp,
                shift_diag: Vec::new(),
                owned: &owned,
                starts: &starts,
                dofs: &dofs,
                halo: &halo,
                inbox: RefCell::new(Vec::new()),
            };
            let ip = MultiDot::new(&ctx);
            let n = ctx.n_unique();
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
