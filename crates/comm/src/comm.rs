//! The SPMD runtime: ranks as threads, typed mailboxes, communicators with
//! MPI-shaped collectives, and virtual-time accounting.
//!
//! The API deliberately mirrors the MPI calls of the paper's Algorithms 1–2
//! (`send`/`recv` ↔ `MPI_Isend`/`MPI_Irecv` + wait, [`Communicator::gather`]
//! ↔ `MPI_Gather`, [`Communicator::gatherv`] ↔ `MPI_Gatherv`,
//! [`Communicator::split`] ↔ `MPI_Comm_split`,
//! [`Communicator::iallreduce_sum_vec`] ↔ `MPI_Iallreduce`, …) so the
//! coarse-operator assembly in `dd-core` reads like the paper's pseudocode.
//!
//! ## Correct usage
//!
//! Like MPI, all ranks of a communicator must call collectives in the same
//! order; point-to-point messages are matched by `(source, tag)` FIFO.
//! Violations are detected by the runtime — every blocking wait is a timed
//! tick loop that watches the world's health registry, so a wrong program
//! surfaces as a structured [`CommError::Deadlock`] / [`CommError::RankDead`]
//! from the `try_*` variants (or a panic carrying the same message from the
//! infallible wrappers) instead of a silent hang.
//!
//! ## Fault injection
//!
//! [`World::run_with_faults`] arms a seeded [`FaultPlan`]: messages can be
//! delayed or dropped-then-redelivered (recovered transparently by the
//! retry policy of [`Communicator::try_recv_timeout`], charging virtual
//! time per failed attempt), and ranks can be killed at named
//! [`Communicator::failpoint`]s. All decisions are deterministic functions
//! of the seed and message identity.

use crate::fault::{splitmix64, CommError, FaultPlan, FaultStats, RetryPolicy};
use crate::model::{linear_msgs, tree_msgs, CostModel};
use crate::sync::{std_backend, ControlGuard, SyncBackend, SyncCondvar, SyncMutex, SyncMutexGuard};
use crate::time::VirtualClock;
use crate::trace::{CollClass, RankTrace, TraceRecorder, WorldTrace};
use std::any::Any;
use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering as AtOrd};
use std::sync::{Arc, Mutex, MutexGuard, Weak};
use std::time::Duration;

/// Granularity of the blocking-wait tick loops: every blocked wait wakes at
/// this interval to re-check message queues, peer health, and global
/// progress.
const TICK: Duration = Duration::from_millis(2);

/// Consecutive all-blocked observations before a wait starts *confirming*
/// deadlock. All-blocked alone is not proof: on an oversubscribed host a
/// rank whose message is already enqueued can stay descheduled past any
/// wall-clock window while every other rank sits parked. After this many
/// ticks the waiter additionally probes every parked rank's wait for
/// satisfiability (see [`WorldHealth::confirmed_deadlock`]) and only
/// reports [`CommError::Deadlock`] when none can complete.
const STALL_TICKS: u32 = 6;

/// Lock a plain `std` mutex, ignoring poisoning (a panicking rank already
/// propagates its panic through [`World::run`]; the shared state itself
/// stays consistent because every critical section is a small push/pop).
/// The runtime's *blocking* state lives in [`SyncMutex`]es instead, whose
/// locking is visible to the [`SyncBackend`]; `lck` is only for
/// single-owner cells that no thread ever blocks on.
fn lck<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Collapse the `Option`-per-rank results of a reserve-free
/// [`World::run_impl`] back to the legacy every-rank-finished shape.
fn unwrap_founders<R>(results: Vec<Option<R>>) -> Vec<R> {
    results
        .into_iter()
        .map(|r| invariant(r, "rank produced no result"))
        .collect()
}

/// Park a reserve rank in the admission lobby until a grow deposits its
/// ticket, or until the world has no live members left (`None`: the
/// program ended without admitting this reserve). Registers as an
/// agreement waiter — not a [`BlockGuard`] — for the same reason the
/// agreement waits do: the lobby wait is satisfiable by construction
/// (admission or world end) and must not feed the deadlock heuristic.
fn lobby_wait(health: &WorldHealth, world_rank: usize) -> Option<LobbyTicket> {
    struct Waiting<'a>(&'a AtomicUsize);
    impl Drop for Waiting<'_> {
        fn drop(&mut self) {
            self.0.fetch_sub(1, AtOrd::SeqCst);
        }
    }
    health.agree_waiters.fetch_add(1, AtOrd::SeqCst);
    let _waiting = Waiting(&health.agree_waiters);
    let mut st = health.agree.lock();
    loop {
        if let Some(ticket) = st.lobby[world_rank].take() {
            return Some(ticket);
        }
        if health.live() == 0 {
            return None;
        }
        st = health.agree_cv.wait_timeout(st, TICK);
    }
}

/// Unbox a received payload, panicking with a structured message on a type
/// mismatch — always a caller bug (the `(source, tag)` pair determines the
/// payload type in a correct program), never a runtime fault.
fn downcast_payload<T: 'static>(b: Box<dyn Any + Send>, what: &'static str) -> T {
    match b.downcast::<T>() {
        Ok(v) => *v,
        Err(_) => panic!("{what}: payload type mismatch"),
    }
}

/// Unwrap a shared collective result, with the same caller-bug contract as
/// [`downcast_payload`]: every rank of one collective names the same `R`.
fn downcast_shared<T: Send + Sync + 'static>(
    a: Arc<dyn Any + Send + Sync>,
    what: &'static str,
) -> Arc<T> {
    match a.downcast::<T>() {
        Ok(v) => v,
        Err(_) => panic!("{what}: result type mismatch"),
    }
}

/// Unwrap an invariant that the collective state machine maintains (a slot
/// present until its last `taken`, a contribution deposited before
/// `arrived` is bumped, a root that passed its payload, …). A `None` here
/// is a runtime or caller bug, never an injected fault, so the audited
/// panic path is the right response — recoverable faults flow through
/// `CommError` instead.
fn invariant<T>(o: Option<T>, what: &'static str) -> T {
    match o {
        Some(v) => v,
        None => panic!("{what}"),
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One FNV-1a 64 step over a whole scalar: `word` is its little-endian
/// wire image, zero-extended. XOR with `word` and multiplication by an odd
/// constant are both bijections of `h`, so two wire images that differ in
/// any one scalar — a single flipped bit included — never share a sum.
#[inline]
fn fnv1a(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(FNV_PRIME)
}

/// Salt for a message's envelope checksum, mixing the world's fault id,
/// the sending communicator's epoch, and the tag. Salting with the epoch
/// means a stale-epoch replay of byte-identical payload cannot alias a
/// post-recovery message's checksum.
fn envelope_salt(fault_id: u64, epoch: usize, tag: u64) -> u64 {
    splitmix64(fault_id ^ splitmix64(tag) ^ (epoch as u64).rotate_left(32))
}

/// Word-wise FNV-1a checksum of `value`'s wire image under `salt`.
fn wire_sum<T: WireSize + ?Sized>(value: &T, salt: u64) -> u64 {
    value.wire_fold(FNV_OFFSET ^ salt)
}

/// Byte-wise FNV-1a 64 checksum of `bytes` under `salt` — with salt 0 the
/// published function. For state at rest (checkpoints, stored responses),
/// where the wire image's scalar framing does not exist.
pub fn fnv1a_bytes(salt: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(FNV_OFFSET ^ salt, |h, b| fnv1a(h, u64::from(b)))
}

/// Size in bytes a value would occupy on the wire — drives the β term of
/// the cost model — plus the two operations the integrity layer needs on
/// that wire image: folding it into a checksum and flipping one of its
/// bits. Implemented for the payload types the framework sends. The wire
/// image is the concatenation of each scalar's little-endian bytes in
/// field order; `wire_fold` takes it one scalar per step and `wire_flip`
/// addresses the same layout, so a flip of bit `b` lands in exactly one
/// folded word and always changes the checksum.
pub trait WireSize {
    fn wire_bytes(&self) -> usize;

    /// Fold the value's wire image into an FNV-1a accumulator `h`.
    fn wire_fold(&self, h: u64) -> u64;

    /// Flip bit `bit` of the wire image (callers reduce modulo
    /// `8 · wire_bytes()` first). XOR-involutive: flipping the same bit
    /// twice restores the original value, which is how the runtime models
    /// a retransmit from the sender's pristine buffer.
    fn wire_flip(&mut self, bit: u64);
}

macro_rules! prim_wire {
    ($($t:ty),*) => {$(
        impl WireSize for $t {
            fn wire_bytes(&self) -> usize { std::mem::size_of::<$t>() }
            fn wire_fold(&self, h: u64) -> u64 {
                let mut word = [0u8; 8];
                word[..std::mem::size_of::<$t>()].copy_from_slice(&self.to_le_bytes());
                fnv1a(h, u64::from_le_bytes(word))
            }
            fn wire_flip(&mut self, bit: u64) {
                let mut bytes = self.to_le_bytes();
                bytes[(bit / 8) as usize % bytes.len()] ^= 1 << (bit % 8);
                *self = <$t>::from_le_bytes(bytes);
            }
        }
    )*};
}
prim_wire!(f64, f32, u8, u32, u64, usize, i32, i64);

impl WireSize for bool {
    fn wire_bytes(&self) -> usize {
        1
    }
    fn wire_fold(&self, h: u64) -> u64 {
        fnv1a(h, u64::from(*self))
    }
    fn wire_flip(&mut self, _bit: u64) {
        *self = !*self;
    }
}

impl<A: WireSize, B: WireSize> WireSize for (A, B) {
    fn wire_bytes(&self) -> usize {
        self.0.wire_bytes() + self.1.wire_bytes()
    }
    fn wire_fold(&self, h: u64) -> u64 {
        self.1.wire_fold(self.0.wire_fold(h))
    }
    fn wire_flip(&mut self, bit: u64) {
        let a = 8 * self.0.wire_bytes() as u64;
        if bit < a {
            self.0.wire_flip(bit)
        } else {
            self.1.wire_flip(bit - a)
        }
    }
}

impl<A: WireSize, B: WireSize, C: WireSize> WireSize for (A, B, C) {
    fn wire_bytes(&self) -> usize {
        self.0.wire_bytes() + self.1.wire_bytes() + self.2.wire_bytes()
    }
    fn wire_fold(&self, h: u64) -> u64 {
        self.2.wire_fold(self.1.wire_fold(self.0.wire_fold(h)))
    }
    fn wire_flip(&mut self, bit: u64) {
        let a = 8 * self.0.wire_bytes() as u64;
        let b = a + 8 * self.1.wire_bytes() as u64;
        if bit < a {
            self.0.wire_flip(bit)
        } else if bit < b {
            self.1.wire_flip(bit - a)
        } else {
            self.2.wire_flip(bit - b)
        }
    }
}

/// Any nesting of sendable payloads is itself sendable (`Vec<Vec<f64>>`,
/// `Vec<(u32, Vec<f64>)>`, …).
impl<T: WireSize> WireSize for Vec<T> {
    fn wire_bytes(&self) -> usize {
        self.iter().map(|v| v.wire_bytes()).sum()
    }
    fn wire_fold(&self, mut h: u64) -> u64 {
        for v in self {
            h = v.wire_fold(h);
        }
        h
    }
    fn wire_flip(&mut self, mut bit: u64) {
        for v in self.iter_mut() {
            let w = 8 * v.wire_bytes() as u64;
            if bit < w {
                v.wire_flip(bit);
                return;
            }
            bit -= w;
        }
    }
}

impl WireSize for () {
    fn wire_bytes(&self) -> usize {
        0
    }
    fn wire_fold(&self, h: u64) -> u64 {
        h
    }
    fn wire_flip(&mut self, _bit: u64) {}
}

/// `Arc`-backed zero-copy payloads: sending `Arc<T>` clones a pointer, not
/// the buffer, while the wire size stays that of the shared `T` — the α–β
/// cost model and every byte counter charge exactly what a by-value send
/// of the same data would. Senders that reuse a buffer across many sends
/// (the backward-sweep fan-out in `dd-solver::dist_ldlt`, `dd-serve`
/// streaming) wrap it once and send clones of the handle. Corrupting an
/// `Arc` payload detaches a private copy (`Arc::make_mut`, hence the
/// `Clone` bound) so the sender's pristine buffer — the one a retransmit
/// would re-send — is never damaged.
impl<T: WireSize + Clone> WireSize for Arc<T> {
    fn wire_bytes(&self) -> usize {
        (**self).wire_bytes()
    }
    fn wire_fold(&self, h: u64) -> u64 {
        (**self).wire_fold(h)
    }
    fn wire_flip(&mut self, bit: u64) {
        Arc::make_mut(self).wire_flip(bit);
    }
}

struct Envelope {
    payload: Box<dyn Any + Send>,
    arrival: f64,
    bytes: usize,
    /// Delivery attempts that fail before this message is handed to the
    /// receiver (injected by the fault plan).
    drops: u32,
    /// Epoch-salted FNV-1a checksum of the payload's wire image, computed
    /// over the *pristine* value before any injected corruption.
    sum: u64,
    /// Deliveries remaining whose payload bytes fail verification
    /// (injected corruption); the receiver burns these down with
    /// end-to-end retransmits.
    corrupt: u32,
    /// The wire-image bit the plan flipped (meaningful while
    /// `corrupt > 0`): the final, intact retransmit flips it back.
    flipped_bit: u64,
}

impl Envelope {
    /// The one blessed constructor: computes the salted checksum over the
    /// pristine `value`, then applies any injected corruption. All sends
    /// must go through here so every message carries a verifiable
    /// envelope (`dd-analyze`'s `raw-envelope` rule enforces this).
    fn seal<T: Send + WireSize + 'static>(
        mut value: T,
        arrival: f64,
        bytes: usize,
        drops: u32,
        salt: u64,
        corruption: Option<(u32, u64)>,
    ) -> Self {
        let sum = wire_sum(&value, salt);
        let (corrupt, flipped_bit) = match corruption {
            Some((n, h)) if bytes > 0 => {
                let bit = h % (8 * bytes as u64);
                value.wire_flip(bit);
                (n, bit)
            }
            _ => (0, 0),
        };
        Envelope {
            payload: Box::new(value),
            arrival,
            bytes,
            drops,
            sum,
            corrupt,
            flipped_bit,
        }
    }
}

#[derive(Default)]
struct MailboxInner {
    queues: HashMap<(usize, u64), VecDeque<Envelope>>,
}

struct Mailbox {
    inner: SyncMutex<MailboxInner>,
    cv: SyncCondvar,
}

struct Slot {
    contributions: Vec<Option<Box<dyn Any + Send>>>,
    entry: Vec<f64>,
    arrived: usize,
    done: bool,
    exit_clock: f64,
    result: Option<Arc<dyn Any + Send + Sync>>,
    taken: usize,
}

impl Slot {
    fn new(size: usize) -> Self {
        Slot {
            contributions: (0..size).map(|_| None).collect(),
            entry: vec![0.0; size],
            arrived: 0,
            done: false,
            exit_clock: 0.0,
            result: None,
            taken: 0,
        }
    }
}

/// A communicator's collective slot table, locked.
type SlotsGuard<'a> = SyncMutexGuard<'a, HashMap<u64, Slot>>;

/// A wait-satisfiability probe registered by a parked rank: which wait the
/// rank is in, so that any other rank can ask whether it could complete
/// right now. A plain value, not a boxed closure: a wait that has to block
/// allocates exactly what one that finds its message waiting allocates
/// (nothing), so allocation counts do not depend on which rank arrives
/// first.
enum WaitProbe {
    /// Parked in a receive on `shared`'s mailbox `rank` for the next
    /// message from communicator rank `src` with `tag`.
    Mailbox {
        shared: Weak<CommShared>,
        epoch: usize,
        rank: usize,
        src: usize,
        tag: u64,
    },
    /// Parked until collective slot `seq` of `shared` completes.
    Slot {
        shared: Weak<CommShared>,
        epoch: usize,
        seq: u64,
    },
}

impl WaitProbe {
    /// `Some(true)` when the wait could complete right now (matching
    /// message enqueued, collective slot finished, or a relevant peer death
    /// or revocation observable — the waiter wakes to a typed error),
    /// `Some(false)` when it provably cannot, `None` when the probe could
    /// not inspect the shared state without blocking (another rank holds it
    /// — in which case that rank is awake, so the world is not deadlocked
    /// anyway).
    fn satisfiable(&self, health: &WorldHealth) -> Option<bool> {
        let (WaitProbe::Mailbox { shared, epoch, .. } | WaitProbe::Slot { shared, epoch, .. }) =
            self;
        if health.revoked(*epoch) {
            return Some(true);
        }
        let Some(sh) = shared.upgrade() else {
            return Some(true);
        };
        match self {
            WaitProbe::Mailbox { rank, src, tag, .. } => {
                // A dead sender wakes the waiter with RankDead.
                if health.is_gone(sh.world_ranks[*src]) {
                    return Some(true);
                }
                let sat = sh.mailboxes[*rank]
                    .inner
                    .try_lock()
                    .map(|q| q.queues.get(&(*src, *tag)).is_some_and(|q| !q.is_empty()));
                sat
            }
            WaitProbe::Slot { seq, .. } => {
                let sat = sh.slots.try_lock().map(|slots| match slots.get(seq) {
                    None => true,
                    Some(slot) if slot.done => true,
                    // A dead participant that never contributed will wake
                    // the waiter with RankDead.
                    Some(slot) => (0..sh.size).any(|r| {
                        slot.contributions[r].is_none() && health.is_gone(sh.world_ranks[r])
                    }),
                });
                sat
            }
        }
    }
}

/// Admission ticket deposited in the lobby for a joiner by the rank that
/// publishes a membership agreement admitting it.
struct LobbyTicket {
    shared: Arc<CommShared>,
    epoch: usize,
    /// Publisher's virtual clock at admission — the joiner's clock starts
    /// here, modeling a rank that comes up at the moment of the commit.
    clock: f64,
}

/// State of the two-phase membership-agreement protocol behind
/// [`Communicator::try_shrink`] / [`Communicator::try_grow`]. Lives
/// outside the mailbox/slot machinery on purpose: agreement traffic never
/// enters the telemetry journal or the collective sequence space, so a
/// recovered run's canonical trace is a pure function of the agreed
/// membership change.
/// One phase-1 or phase-2 post of the membership agreement:
/// `(round, dead set, joiner/admit set)`.
type MembershipPost = (u64, Vec<usize>, Vec<usize>);

/// The committed result of one agreement: `(agreed dead set, admitted
/// joiners, epoch, successor comm state)`.
type PublishedMembership = (Vec<usize>, Vec<usize>, usize, Arc<CommShared>);

struct AgreeState {
    /// Current protocol round. Bumped (under the agreement lock) by any
    /// participant that detects a death racing the vote; everyone then
    /// restarts with the larger view.
    round: u64,
    /// Phase-1 posts: each live member's `(round, observed dead set,
    /// observed pending-joiner set)`.
    votes: Vec<Option<MembershipPost>>,
    /// Phase-2 posts: each live member's `(round, candidate dead set,
    /// candidate admit set)`.
    commits: Vec<Option<MembershipPost>>,
    /// Count of committed membership changes (the epoch of the latest).
    epoch: usize,
    /// The committed result. Built exactly once per agreement by the first
    /// rank through phase 2; later arrivals (and stragglers re-running the
    /// protocol against the stale votes) adopt it instead of rebuilding.
    published: Option<PublishedMembership>,
    /// Per-world-rank admission tickets: the publisher deposits one for
    /// each admitted joiner; the joiner's lobby wait takes it.
    lobby: Vec<Option<LobbyTicket>>,
}

/// Liveness and membership registry of one world, shared by every
/// communicator split from it. Ranks are identified by *world* rank. The
/// registry is sized for the world's full capacity (founders plus
/// reserves); reserves are non-members until a [`Communicator::try_grow`]
/// admits them.
struct WorldHealth {
    gone: Vec<AtomicBool>,
    /// Is this world rank a member of the communicating set? Founders
    /// start `true`; reserves flip to `true` when an agreement admits
    /// them (monotone, flipped under the agreement lock).
    member: Vec<AtomicBool>,
    /// Was this rank's departure an eviction (suspected straggler removed
    /// by peers) rather than a death? Set before `gone`.
    evicted: Vec<AtomicBool>,
    /// Reserve ranks that have announced themselves and await admission.
    pending_join: Vec<AtomicBool>,
    /// Members currently in the world: founders plus admitted joiners.
    n_members: AtomicUsize,
    /// Members marked gone (each counted exactly once via `counted_dead`,
    /// which serializes the member-flip/gone-flip race of a joiner that
    /// dies during its own admission).
    n_dead_members: AtomicUsize,
    counted_dead: Vec<AtomicBool>,
    /// Number of founder ranks (world ranks `>= founders` are reserves).
    founders: usize,
    /// Per-rank heartbeat counters, bumped at failpoints and iteration
    /// boundaries — the progress signal the suspicion policy compares.
    beats: Vec<AtomicU64>,
    /// Per-rank virtual-time progress watermark (f64 bits; monotone
    /// because clocks are non-negative, so integer `fetch_max` is order-
    /// preserving).
    watermark: Vec<AtomicU64>,
    /// Heartbeat suppression flags ([`FaultPlan::with_straggle`]).
    suppressed: Vec<AtomicBool>,
    /// Ranks currently parked in a blocking wait (deadlock detection).
    blocked: AtomicUsize,
    /// Per-rank satisfiability probe of the wait it is currently parked
    /// in, registered by [`BlockGuard`]. Probes let any rank distinguish a
    /// genuine deadlock from scheduler starvation.
    parked: Vec<SyncMutex<Option<WaitProbe>>>,
    /// Bumped whenever a rank leaves a blocking wait or exits the world.
    /// [`WorldHealth::confirmed_deadlock`] samples it around its probe
    /// sweep: an unchanged epoch proves the sweep observed one consistent
    /// parked state rather than a mix of stale and fresh verdicts.
    unpark_epoch: AtomicUsize,
    /// Revocation horizon: every blocking wait of a communicator whose
    /// epoch is below this value aborts with [`CommError::Revoked`]. Only
    /// ever increased ([`Communicator::revoke`]).
    revocation: AtomicUsize,
    /// Two-phase liveness-agreement state ([`Communicator::try_shrink`]).
    agree: SyncMutex<AgreeState>,
    agree_cv: SyncCondvar,
    /// Ranks currently inside the agreement protocol. [`WorldHealth::mark_gone`]
    /// only notifies `agree_cv` when someone is actually parked there, so
    /// programs that never shrink add no condvar traffic on rank exit —
    /// their dd-check schedule space is exactly what it was before the
    /// recovery machinery existed.
    agree_waiters: AtomicUsize,
}

impl WorldHealth {
    fn new(founders: usize, reserve: usize, backend: &Arc<dyn SyncBackend>) -> Arc<Self> {
        let n = founders + reserve;
        Arc::new(WorldHealth {
            gone: (0..n).map(|_| AtomicBool::new(false)).collect(),
            member: (0..n).map(|r| AtomicBool::new(r < founders)).collect(),
            evicted: (0..n).map(|_| AtomicBool::new(false)).collect(),
            pending_join: (0..n).map(|_| AtomicBool::new(false)).collect(),
            n_members: AtomicUsize::new(founders),
            n_dead_members: AtomicUsize::new(0),
            counted_dead: (0..n).map(|_| AtomicBool::new(false)).collect(),
            founders,
            beats: (0..n).map(|_| AtomicU64::new(0)).collect(),
            watermark: (0..n).map(|_| AtomicU64::new(0)).collect(),
            suppressed: (0..n).map(|_| AtomicBool::new(false)).collect(),
            blocked: AtomicUsize::new(0),
            parked: (0..n).map(|_| SyncMutex::new(backend, None)).collect(),
            unpark_epoch: AtomicUsize::new(0),
            revocation: AtomicUsize::new(0),
            agree: SyncMutex::new(
                backend,
                AgreeState {
                    round: 0,
                    votes: (0..n).map(|_| None).collect(),
                    commits: (0..n).map(|_| None).collect(),
                    epoch: 0,
                    published: None,
                    lobby: (0..n).map(|_| None).collect(),
                },
            ),
            agree_cv: SyncCondvar::new(backend),
            agree_waiters: AtomicUsize::new(0),
        })
    }

    fn is_gone(&self, world_rank: usize) -> bool {
        self.gone[world_rank].load(AtOrd::SeqCst)
    }

    fn is_member(&self, world_rank: usize) -> bool {
        self.member[world_rank].load(AtOrd::SeqCst)
    }

    /// Count a member's departure exactly once. Both `mark_gone` and the
    /// admission path call this, so a joiner whose death races its own
    /// admission is counted regardless of which flag flipped first — the
    /// `counted_dead` swap deduplicates the double call.
    fn account_dead(&self, world_rank: usize) {
        if self.gone[world_rank].load(AtOrd::SeqCst)
            && self.member[world_rank].load(AtOrd::SeqCst)
            && !self.counted_dead[world_rank].swap(true, AtOrd::SeqCst)
        {
            self.n_dead_members.fetch_add(1, AtOrd::SeqCst);
        }
    }

    /// Reserve ranks announced and awaiting admission.
    fn pending_joiners(&self) -> Vec<usize> {
        (0..self.gone.len())
            .filter(|&r| {
                self.pending_join[r].load(AtOrd::SeqCst) && !self.is_member(r) && !self.is_gone(r)
            })
            .collect()
    }

    /// Is every wait on a communicator of epoch `epoch` revoked?
    fn revoked(&self, epoch: usize) -> bool {
        self.revocation.load(AtOrd::SeqCst) > epoch
    }

    fn mark_gone(&self, world_rank: usize) {
        if !self.gone[world_rank].swap(true, AtOrd::SeqCst) {
            self.account_dead(world_rank);
            self.unpark_epoch.fetch_add(1, AtOrd::SeqCst);
            // Wake agreement waiters, but only if any exist: a notify is a
            // scheduler decision point under dd-check, and every rank exit
            // lands here. SeqCst ordering makes the gate safe — a waiter
            // that registers after this load observes the `gone` flag set
            // above before it first checks its predicate, and the waits
            // are ticked (`wait_timeout`) besides.
            if self.agree_waiters.load(AtOrd::SeqCst) > 0 {
                self.agree_cv.notify_all();
            }
        }
    }

    /// Live members: founders plus admitted joiners, minus departures.
    /// Non-member reserves (parked in the lobby) are outside the
    /// communicating set and never counted.
    fn live(&self) -> usize {
        self.n_members.load(AtOrd::SeqCst) - self.n_dead_members.load(AtOrd::SeqCst)
    }

    /// Is every live rank currently parked in a blocking wait?
    fn all_blocked(&self) -> bool {
        let live = self.live();
        live > 0 && self.blocked.load(AtOrd::SeqCst) >= live
    }

    /// Sound deadlock confirmation. All-blocked means every live rank sits
    /// between `BlockGuard` registration and release, so no send or slot
    /// completion is in flight — the registered probes see the complete
    /// communication state. The world is deadlocked exactly when every
    /// live rank's wait is provably unsatisfiable; anything short of that
    /// (a satisfiable wait, a probe that couldn't look, a rank mid
    /// registration) means some rank can still run and the caller must
    /// keep waiting. Callers must not hold their own mailbox or slot lock
    /// here, so their own probe can inspect it.
    ///
    /// The probe sweep is not atomic, so a rank can unpark *mid-sweep*,
    /// invalidating verdicts already collected: probing ranks 0 and 1 as
    /// unsatisfiable (both waiting on rank 2), then finding rank 2 gone,
    /// looks like a confirmed deadlock even though rank 2 completed the
    /// very wait the stale verdicts were about before exiting. dd-check
    /// found that interleaving; the epoch sample around the sweep rejects
    /// it. A rank cannot leave a wait (or the world) without bumping
    /// `unpark_epoch`, so an unchanged epoch proves all verdicts came from
    /// one consistent parked state.
    fn confirmed_deadlock(&self) -> bool {
        let epoch = self.unpark_epoch.load(AtOrd::SeqCst);
        if !self.all_blocked() {
            return false;
        }
        for (world_rank, slot) in self.parked.iter().enumerate() {
            // Non-members (reserves in the lobby) are outside the
            // communicating set: their lobby wait is satisfiable by
            // construction (admission or world end) and must not veto —
            // or falsely confirm — a deadlock verdict.
            if self.is_gone(world_rank) || !self.is_member(world_rank) {
                continue;
            }
            let parked = match slot.try_lock() {
                Some(p) => p,
                None => return false,
            };
            match parked.as_ref().map(|probe| probe.satisfiable(self)) {
                Some(Some(false)) => {}
                _ => return false,
            }
        }
        self.unpark_epoch.load(AtOrd::SeqCst) == epoch
    }
}

/// RAII registration of "this rank is parked in a blocking wait", together
/// with the probe that lets other ranks check whether the wait could still
/// be satisfied.
struct BlockGuard<'a> {
    health: &'a WorldHealth,
    world_rank: usize,
}

impl<'a> BlockGuard<'a> {
    fn new(health: &'a WorldHealth, world_rank: usize, probe: WaitProbe) -> Self {
        *health.parked[world_rank].lock() = Some(probe);
        health.blocked.fetch_add(1, AtOrd::SeqCst);
        BlockGuard { health, world_rank }
    }
}

impl Drop for BlockGuard<'_> {
    fn drop(&mut self) {
        // Clear the probe before decrementing so a concurrent observer
        // never evaluates a stale probe for an unblocked rank: seeing
        // "blocked but no probe" is conservatively treated as not
        // deadlocked.
        *self.health.parked[self.world_rank].lock() = None;
        self.health.blocked.fetch_sub(1, AtOrd::SeqCst);
        self.health.unpark_epoch.fetch_add(1, AtOrd::SeqCst);
    }
}

/// Per-rank fault observation counters, shared (within the rank's thread)
/// by a communicator and everything split from it.
#[derive(Default)]
struct FaultCounters {
    delays: Cell<u64>,
    drops: Cell<u64>,
    retries: Cell<u64>,
    timeouts: Cell<u64>,
    corrupt_injected: Cell<u64>,
    corrupt_detected: Cell<u64>,
    retransmits: Cell<u64>,
    msg_index: Cell<u64>,
}

fn bump(c: &Cell<u64>) {
    c.set(c.get() + 1);
}

/// Shared state of one communicator.
struct CommShared {
    size: usize,
    /// World rank of each member, in communicator rank order.
    world_ranks: Vec<usize>,
    /// Stable identity of this communicator for fault decisions: a hash
    /// of how it was created (world, split color + parent sequence, or
    /// membership epoch), never a free-running counter — so the seeded
    /// drop/delay/jitter schedule of every collective and retry is a pure
    /// function of the plan seed and the communicator's construction.
    fault_id: u64,
    mailboxes: Vec<Mailbox>,
    slots: SyncMutex<HashMap<u64, Slot>>,
    slots_cv: SyncCondvar,
    /// The sync backend every blocking primitive of this communicator (and
    /// everything split from it) is built on.
    backend: Arc<dyn SyncBackend>,
    // statistics
    collective_calls: AtomicU64,
    collective_bytes: AtomicU64,
    p2p_messages: AtomicU64,
    p2p_bytes: AtomicU64,
}

impl CommShared {
    fn new(world_ranks: Vec<usize>, backend: Arc<dyn SyncBackend>, fault_id: u64) -> Arc<Self> {
        let size = world_ranks.len();
        Arc::new(CommShared {
            size,
            world_ranks,
            fault_id,
            mailboxes: (0..size)
                .map(|_| Mailbox {
                    inner: SyncMutex::new(&backend, MailboxInner::default()),
                    cv: SyncCondvar::new(&backend),
                })
                .collect(),
            slots: SyncMutex::new(&backend, HashMap::new()),
            slots_cv: SyncCondvar::new(&backend),
            backend,
            collective_calls: AtomicU64::new(0),
            collective_bytes: AtomicU64::new(0),
            p2p_messages: AtomicU64::new(0),
            p2p_bytes: AtomicU64::new(0),
        })
    }
}

/// Stable fault identity of a membership-agreement successor: a pure
/// function of the committed epoch and member set, so every rank (and
/// every identically-seeded re-run) derives the same communicator seed.
fn membership_fault_id(epoch: usize, world_ranks: &[usize]) -> u64 {
    let fold = world_ranks
        .iter()
        .fold(0x51u64, |h, &r| splitmix64(h ^ r as u64));
    splitmix64(fold ^ (epoch as u64).rotate_left(32))
}

/// RAII guard of [`Communicator::trace_scope`]: restores the telemetry
/// phase that was current when the scope was entered.
pub struct TraceScope<'a> {
    comm: &'a Communicator,
    prev: String,
}

impl Drop for TraceScope<'_> {
    fn drop(&mut self) {
        self.comm.trace_phase(&self.prev);
    }
}

/// Communication statistics of one communicator (aggregated over ranks).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Collective operations initiated (counted once per rank per call).
    pub collective_calls: u64,
    /// Payload bytes contributed to collectives (summed over ranks) — the
    /// wire volume of gathers/scatters/reductions, e.g. the §3.1.1
    /// comparison of index-free vs index-shipping coarse assembly.
    pub collective_bytes: u64,
    /// Point-to-point messages sent.
    pub p2p_messages: u64,
    /// Point-to-point payload bytes sent.
    pub p2p_bytes: u64,
}

/// Classification of a world rank by the heartbeat/watermark layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RankState {
    /// Member making progress (or a non-member reserve, which is outside
    /// the communicating set and has nothing to fall behind on).
    Healthy,
    /// Live member whose heartbeats or virtual-time watermark lag the
    /// observer beyond the [`SuspicionPolicy`] — a candidate for eviction
    /// via the shrink path before it stalls a collective.
    Suspected,
    /// Departed (died, exited, abandoned, or evicted).
    Gone,
}

/// When to suspect a member of straggling. Both criteria are measured
/// against the *observer's* progress, so classification is a deterministic
/// function of the two ranks' program order and virtual clocks — no wall
/// time is involved.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SuspicionPolicy {
    /// Virtual-time budget: suspect a member whose progress watermark lags
    /// the observer's clock by more than this many virtual seconds
    /// (per-phase deadline budget; `f64::INFINITY` disables the check).
    pub deadline: f64,
    /// Heartbeat budget: suspect a member whose heartbeat counter lags the
    /// observer's by at least this many beats (`u64::MAX` disables).
    pub k_missed: u64,
}

impl Default for SuspicionPolicy {
    fn default() -> Self {
        SuspicionPolicy {
            deadline: f64::INFINITY,
            k_missed: 8,
        }
    }
}

/// A handle to a pending non-blocking reduction
/// (cf. `MPI_Iallreduce` in the paper's fused pipelined GMRES, §3.5).
pub struct PendingReduce<T> {
    seq: u64,
    _marker: std::marker::PhantomData<T>,
}

/// One rank's view of a communicator. Not `Send`: a communicator handle
/// lives and dies on its rank's thread (like an MPI communicator + rank).
pub struct Communicator {
    shared: Arc<CommShared>,
    model: CostModel,
    rank: usize,
    /// This rank's virtual clock, shared with every communicator split from
    /// this one. Only the rank's own thread reads or advances it:
    /// [`Communicator::compute`] by the thread's CPU time, communication by
    /// the cost model. No rank waits for another's arithmetic.
    clock: Rc<VirtualClock>,
    seq: Cell<u64>,
    health: Arc<WorldHealth>,
    plan: Arc<FaultPlan>,
    counters: Rc<FaultCounters>,
    /// Telemetry recorder, shared with every communicator split from this
    /// one (a disabled recorder — the default — records nothing).
    tracer: Rc<TraceRecorder>,
    /// Interned telemetry label of this communicator.
    label: Cell<u16>,
    /// Revocation epoch this communicator belongs to. The world starts at
    /// epoch 0; each committed [`Communicator::try_shrink`] hands out
    /// communicators of a higher epoch, and every blocking wait on an
    /// older-epoch communicator fails with [`CommError::Revoked`] once
    /// [`Communicator::revoke`] raises the horizon past it. Splits inherit
    /// their parent's epoch.
    epoch: usize,
    /// Retry policy charged for dropped deliveries inside collectives
    /// (settable; splits and shrinks inherit it).
    retry_policy: Cell<RetryPolicy>,
    /// Armed suspicion policy: when set, [`Communicator::maintain`]
    /// classifies peers and evicts suspected stragglers (settable; splits
    /// and shrinks inherit it).
    suspicion: Cell<Option<SuspicionPolicy>>,
}

impl Communicator {
    pub fn rank(&self) -> usize {
        self.rank
    }

    pub fn size(&self) -> usize {
        self.shared.size
    }

    /// This rank's rank in the world communicator (faults and health are
    /// tracked by world rank, stable across [`Communicator::split`]).
    pub fn world_rank(&self) -> usize {
        self.shared.world_ranks[self.rank]
    }

    /// The rank's virtual clock.
    pub fn clock(&self) -> f64 {
        self.clock.now()
    }

    /// Reset this rank's clock (benchmark phase boundaries; combine with a
    /// [`Communicator::barrier`] so all ranks reset together).
    pub fn reset_clock(&self) {
        self.clock.reset();
    }

    /// Advance the clock by explicitly modeled time.
    pub fn advance_clock(&self, dt: f64) {
        self.clock.advance(dt);
    }

    /// Run a compute section, charging its thread-CPU time to this rank's
    /// clock.
    ///
    /// Compute sections of different ranks run concurrently: nothing is
    /// taken or waited for here, so the wall time of a phase is its slowest
    /// rank's, not the sum over ranks. The charge is
    /// `CLOCK_THREAD_CPUTIME_ID`, which leaves out time the thread spent
    /// preempted but not what preemption costs it afterwards — with many
    /// more ranks than cores a section re-fills the caches another rank
    /// emptied, and that shows in the reading (see [`crate::time`]).
    pub fn compute<R>(&self, f: impl FnOnce() -> R) -> R {
        self.clock.compute(f)
    }

    /// The cost model (shared by all communicators of a world).
    pub fn model(&self) -> CostModel {
        self.model
    }

    /// Aggregated statistics of this communicator.
    pub fn stats(&self) -> CommStats {
        CommStats {
            collective_calls: self.shared.collective_calls.load(AtOrd::Relaxed),
            collective_bytes: self.shared.collective_bytes.load(AtOrd::Relaxed),
            p2p_messages: self.shared.p2p_messages.load(AtOrd::Relaxed),
            p2p_bytes: self.shared.p2p_bytes.load(AtOrd::Relaxed),
        }
    }

    // ----------------------------------------------------------- telemetry

    /// Enter the named telemetry phase: subsequent sends, receives,
    /// collectives, and flop charges on this rank are attributed to it.
    /// No-op on untraced worlds. Phase scoping is per rank and purely
    /// local — no synchronization is implied (pair with a
    /// [`Communicator::barrier`] when phases must align across ranks).
    pub fn trace_phase(&self, name: &str) {
        self.tracer.set_phase(name, self.clock.now());
    }

    /// Name of the current telemetry phase (`"init"` on untraced worlds).
    /// Pair with [`Communicator::trace_phase`] to scope a sub-phase and
    /// restore the caller's phase afterwards.
    pub fn trace_phase_name(&self) -> String {
        self.tracer.current_phase()
    }

    /// Enter the named telemetry phase and return a guard that restores
    /// the caller's phase when dropped. The RAII form of
    /// [`Communicator::trace_phase`] + [`Communicator::trace_phase_name`]
    /// for sub-phases that must not leak on early return. Like
    /// `trace_phase`, scoping is per rank and implies no synchronization.
    pub fn trace_scope(&self, name: &str) -> TraceScope<'_> {
        let prev = self.trace_phase_name();
        self.trace_phase(name);
        TraceScope { comm: self, prev }
    }

    /// Record a solver-iteration boundary in the event journal.
    pub fn trace_iteration(&self, k: usize) {
        self.tracer.on_iteration(k);
    }

    /// Charge explicitly counted floating-point operations to the current
    /// telemetry phase (deterministic, unlike CPU-time measurement).
    pub fn charge_flops(&self, n: u64) {
        self.tracer.charge_flops(n);
    }

    /// Label this communicator in recorded collective events (e.g.
    /// `"masterComm"`). Split communicators inherit the parent's label
    /// until relabeled.
    pub fn set_trace_label(&self, label: &str) {
        self.label.set(self.tracer.intern_label(label));
    }

    /// Is this world recording telemetry?
    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }

    /// Record a collective event: message count per §3.2 — `⌈log₂ p⌉` for
    /// equal-count collectives, `p − 1` for `v`-variants.
    fn trace_coll(&self, op: &'static str, class: CollClass, root: Option<usize>, bytes: usize) {
        if !self.tracer.enabled() {
            return;
        }
        let size = self.size();
        let msgs = match class {
            CollClass::EqualCount => tree_msgs(size),
            CollClass::Varying => linear_msgs(size),
        };
        let root_world = root.map(|r| self.shared.world_ranks[r]);
        self.tracer
            .on_collective(op, class, self.label.get(), size, root_world, bytes, msgs);
    }

    // -------------------------------------------------------------- faults

    /// Faults observed by this rank so far (shared with communicators split
    /// from this one).
    pub fn fault_stats(&self) -> FaultStats {
        FaultStats {
            delays_injected: self.counters.delays.get(),
            drops_injected: self.counters.drops.get(),
            retries: self.counters.retries.get(),
            timeouts: self.counters.timeouts.get(),
            corruptions_injected: self.counters.corrupt_injected.get(),
            corruptions_detected: self.counters.corrupt_detected.get(),
            retransmits: self.counters.retransmits.get(),
        }
    }

    /// A named phase boundary. If the armed [`FaultPlan`] kills this rank
    /// here, the rank is marked dead in the world's health registry and
    /// `Err(CommError::RankDead)` is returned — the caller must stop
    /// communicating and unwind. Failpoints also drive the plan's
    /// *membership* events: a matching [`FaultPlan::with_straggle`]
    /// suppresses this rank's heartbeats from here on, and a matching
    /// [`FaultPlan::with_join`] marks the named reserve ranks as pending
    /// joiners. Every failpoint records a heartbeat. Free when no plan is
    /// armed.
    pub fn failpoint(&self, label: &str) -> Result<(), CommError> {
        let wr = self.world_rank();
        if self.plan.is_active() {
            if self.plan.straggles(wr, label) {
                self.health.suppressed[wr].store(true, AtOrd::SeqCst);
            }
            for j in self.plan.joins_at(label) {
                if j < self.world_size() && !self.health.is_member(j) {
                    self.health.pending_join[j].store(true, AtOrd::SeqCst);
                }
            }
        }
        self.heartbeat();
        if self.plan.kills(wr, label) && !self.health.is_gone(wr) {
            self.health.mark_gone(wr);
            return Err(CommError::RankDead { rank: wr });
        }
        Ok(())
    }

    /// Is a fault plan armed on this world? Hot paths use this to skip
    /// building failpoint labels (and the failpoint bookkeeping) when
    /// kills, straggles, and joins are all impossible.
    pub fn failpoints_armed(&self) -> bool {
        self.plan.is_active()
    }

    /// Does the armed fault plan fail the recoverable operation `label` on
    /// this rank? (Used by higher layers to inject e.g. eigensolve or
    /// factorization failures.)
    pub fn should_fail(&self, label: &str) -> bool {
        self.plan.should_fail(self.world_rank(), label)
    }

    /// Mark this rank dead without killing the thread: called by higher
    /// layers when they unwind on an error, so peers blocked on this rank
    /// get a structured [`CommError::RankDead`] instead of a deadlock.
    pub fn abandon(&self) {
        self.health.mark_gone(self.world_rank());
    }

    // ------------------------------------------------------------ recovery

    /// Revocation epoch of this communicator (0 for the original world;
    /// each committed [`Communicator::try_shrink`] hands out a higher one).
    pub fn epoch(&self) -> usize {
        self.epoch
    }

    /// Collectives this rank has entered on this communicator so far. An
    /// SPMD program enters them in lockstep, so every member reads the same
    /// number at the same program point, and no two points separated by a
    /// collective read the same one — a generation count for tag spaces
    /// that must not be reused on one communicator.
    pub fn collective_seq(&self) -> u64 {
        self.seq.get()
    }

    /// The size of the original world (dead ranks included).
    pub fn world_size(&self) -> usize {
        self.health.gone.len()
    }

    /// World rank of each member of this communicator, in communicator
    /// rank order (survivors in world order, admitted joiners appended).
    pub fn world_ranks(&self) -> &[usize] {
        &self.shared.world_ranks
    }

    /// Number of founder ranks of the world (world ranks `>= n_founders`
    /// are reserves/joiners).
    pub fn n_founders(&self) -> usize {
        self.health.founders
    }

    /// Is the given *world* rank dead (killed, exited, abandoned, or
    /// evicted)?
    pub fn is_world_rank_gone(&self, world_rank: usize) -> bool {
        self.health.is_gone(world_rank)
    }

    /// Was the given *world* rank evicted by its peers (as opposed to
    /// having died)?
    pub fn is_world_rank_evicted(&self, world_rank: usize) -> bool {
        self.health.evicted[world_rank].load(AtOrd::SeqCst)
    }

    /// Member world ranks that *died* (killed, exited, or abandoned),
    /// ascending. Evicted members and reserves that exited without ever
    /// being admitted are excluded — see [`Communicator::evicted_ranks`]
    /// and [`Communicator::departed_ranks`].
    pub fn dead_ranks(&self) -> Vec<usize> {
        (0..self.world_size())
            .filter(|&r| {
                self.health.is_member(r) && self.health.is_gone(r) && !self.is_world_rank_evicted(r)
            })
            .collect()
    }

    /// Member world ranks evicted by their peers, ascending.
    pub fn evicted_ranks(&self) -> Vec<usize> {
        (0..self.world_size())
            .filter(|&r| {
                self.health.is_member(r) && self.health.is_gone(r) && self.is_world_rank_evicted(r)
            })
            .collect()
    }

    /// All member world ranks no longer in the world (dead or evicted),
    /// ascending — the orphan set a repartitioning plan must re-home.
    pub fn departed_ranks(&self) -> Vec<usize> {
        (0..self.world_size())
            .filter(|&r| self.health.is_member(r) && self.health.is_gone(r))
            .collect()
    }

    /// Reserve world ranks that have announced themselves and await
    /// admission by a [`Communicator::try_grow`].
    pub fn pending_joiners(&self) -> Vec<usize> {
        self.health.pending_joiners()
    }

    /// Did this rank enter the world through a grow (reserve admitted by
    /// [`Communicator::try_grow`]) rather than at world start?
    pub fn is_joiner(&self) -> bool {
        self.world_rank() >= self.health.founders
    }

    /// Mark a reserve rank as a pending joiner by hand (tests and drivers
    /// that trigger growth outside a [`FaultPlan::with_join`] schedule).
    /// No-op for members and out-of-range ranks.
    pub fn announce_joiner(&self, world_rank: usize) {
        if world_rank < self.world_size() && !self.health.is_member(world_rank) {
            self.health.pending_join[world_rank].store(true, AtOrd::SeqCst);
        }
    }

    /// Record a heartbeat and advance this rank's progress watermark
    /// (no-op while an armed [`FaultPlan::with_straggle`] suppresses it).
    pub fn heartbeat(&self) {
        let wr = self.world_rank();
        if self.health.suppressed[wr].load(AtOrd::SeqCst) {
            return;
        }
        self.health.beats[wr].fetch_add(1, AtOrd::SeqCst);
        self.health.watermark[wr].fetch_max(self.clock.now().to_bits(), AtOrd::SeqCst);
    }

    /// The armed suspicion policy, if any.
    pub fn suspicion(&self) -> Option<SuspicionPolicy> {
        self.suspicion.get()
    }

    /// Arm (or disarm) the suspicion policy checked by
    /// [`Communicator::maintain`]. Splits and shrinks created afterwards
    /// inherit it.
    pub fn set_suspicion(&self, policy: Option<SuspicionPolicy>) {
        self.suspicion.set(policy);
    }

    /// Classify every world rank against `policy`, from this rank's point
    /// of view: a live member whose heartbeat count or virtual-time
    /// watermark lags the observer beyond the policy's budgets is
    /// `Suspected`. Purely local — no communication, deterministic in the
    /// two ranks' program order.
    pub fn rank_states(&self, policy: &SuspicionPolicy) -> Vec<RankState> {
        let me = self.world_rank();
        let my_beats = self.health.beats[me].load(AtOrd::SeqCst);
        let now = self.clock.now();
        (0..self.world_size())
            .map(|r| {
                if self.health.is_gone(r) {
                    return RankState::Gone;
                }
                if r == me || !self.health.is_member(r) {
                    return RankState::Healthy;
                }
                let beats = self.health.beats[r].load(AtOrd::SeqCst);
                let mark = f64::from_bits(self.health.watermark[r].load(AtOrd::SeqCst));
                let missed = my_beats.saturating_sub(beats);
                if missed >= policy.k_missed || now - mark > policy.deadline {
                    RankState::Suspected
                } else {
                    RankState::Healthy
                }
            })
            .collect()
    }

    /// Evict a member: mark it gone with an *eviction* reason (so reports
    /// can distinguish it from a death) and revoke the current epoch so
    /// every in-flight wait — the victim's included — aborts into the
    /// recovery path. The victim is then removed by the same
    /// [`Communicator::try_shrink`] agreement as a dead rank would be.
    pub fn evict(&self, world_rank: usize) {
        self.health.evicted[world_rank].store(true, AtOrd::SeqCst);
        self.health.mark_gone(world_rank);
        self.revoke();
    }

    /// Membership maintenance, meant for iteration boundaries: records a
    /// heartbeat, evicts any peer the armed [`SuspicionPolicy`] classifies
    /// as `Suspected`, and — when pending joiners are waiting — revokes
    /// the current epoch so the world can [`Communicator::try_grow`]. Both
    /// eviction and join-triggered revocation surface to the caller as
    /// [`CommError::Revoked`] from its next blocking operation.
    pub fn maintain(&self) {
        self.heartbeat();
        if let Some(policy) = self.suspicion.get() {
            let states = self.rank_states(&policy);
            for (r, state) in states.iter().enumerate() {
                if *state == RankState::Suspected {
                    self.evict(r);
                }
            }
        }
        if !self.health.pending_joiners().is_empty() {
            self.revoke();
        }
    }

    /// Retry policy charged for dropped deliveries inside collectives.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry_policy.get()
    }

    /// Set the collective retry policy (splits and shrinks of this
    /// communicator created afterwards inherit the new policy).
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        self.retry_policy.set(policy);
    }

    /// Revoke this communicator's epoch: every in-flight or future blocking
    /// wait on communicators of this epoch (this one, its splits, and any
    /// peer's handle of the same epoch) aborts with
    /// [`CommError::Revoked`] instead of waiting for ranks that may never
    /// answer. The first step of recovery — survivors revoke, then call
    /// [`Communicator::try_shrink`]. Idempotent within one epoch; sends
    /// and local operations are unaffected.
    pub fn revoke(&self) {
        self.health
            .revocation
            .fetch_max(self.epoch + 1, AtOrd::SeqCst);
    }

    /// Agree with the other survivors on the dead set and return the
    /// survivor communicator — the ULFM `MPI_Comm_shrink` analogue,
    /// preceded by an internal [`Communicator::revoke`].
    ///
    /// The agreement is a model-checked two-phase vote over dedicated
    /// state (never the mailbox/slot machinery, so recovered traces stay
    /// canonical): each survivor posts its observed dead set, waits until
    /// every world rank has voted or died, then posts the union as its
    /// commit; matching commits from every live rank — with no death
    /// racing the round — commit the epoch bump, and any disagreement
    /// restarts the round with the larger view (bounded by the world
    /// size, since every restart needs a new death). The first rank
    /// through phase 2 builds the survivor communicator, with survivors
    /// re-ranked contiguously in world-rank order; the rest adopt it.
    ///
    /// Every live rank of the world must eventually call this (revocation
    /// guarantees blocked peers wake to an error and reach their recovery
    /// path); the result spans all world survivors regardless of which
    /// communicator handle the call is made on.
    ///
    /// # Errors
    /// [`CommError::RankDead`] with this rank's own world rank when called
    /// on a rank that is itself marked dead (or evicted).
    pub fn try_shrink(&self) -> Result<Communicator, CommError> {
        self.agree_membership()
    }

    /// Agree with the other members on a membership change that *admits*
    /// the pending joiners ([`Communicator::pending_joiners`]) alongside
    /// removing the dead — rank join through the same two-phase agreement
    /// path as [`Communicator::try_shrink`] (the two entry points run the
    /// identical protocol; survivors that call `try_shrink` while joiners
    /// are pending still admit them, so a mixed shrink/grow recovery
    /// commits one consistent epoch).
    ///
    /// The committed communicator re-ranks contiguously with survivors
    /// first (world-rank order) and admitted joiners appended. The epoch
    /// bump and the revocation horizon are exactly the shrink path's:
    /// in-flight traffic of the old epoch wakes `Revoked` and can never
    /// alias the grown world, whose tags are salted with the new epoch.
    /// The publisher deposits an admission ticket in each joiner's lobby
    /// slot; the joiner's thread builds its communicator from the ticket
    /// (clock started at the publisher's commit time) and enters the
    /// program.
    ///
    /// # Errors
    /// [`CommError::RankDead`] with this rank's own world rank when called
    /// on a rank that is itself marked dead (or evicted).
    pub fn try_grow(&self) -> Result<Communicator, CommError> {
        self.agree_membership()
    }

    fn agree_membership(&self) -> Result<Communicator, CommError> {
        let me = self.world_rank();
        let n = self.world_size();
        let health = &self.health;
        if health.is_gone(me) {
            return Err(CommError::RankDead { rank: me });
        }
        self.revoke();
        let backend = Arc::clone(&self.shared.backend);
        // The agreement wait deliberately does NOT register a BlockGuard:
        // its participation set is "live ranks", which mark_gone updates,
        // so the wait is satisfiable by construction and must not feed
        // the all-blocked deadlock heuristic (dd-check explores its
        // schedules instead). It does register as an agreement waiter so
        // deaths observed mid-protocol notify the condvar.
        struct Waiting<'a>(&'a AtomicUsize);
        impl Drop for Waiting<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, AtOrd::SeqCst);
            }
        }
        health.agree_waiters.fetch_add(1, AtOrd::SeqCst);
        let _waiting = Waiting(&health.agree_waiters);
        let mut st = health.agree.lock();
        let (shared, epoch) = 'agree: loop {
            let round = st.round;
            let view_dead: Vec<usize> = (0..n)
                .filter(|&r| health.is_member(r) && health.is_gone(r))
                .collect();
            let view_join = health.pending_joiners();
            st.votes[me] = Some((round, view_dead, view_join));
            health.agree_cv.notify_all();
            // Phase 1: wait until every member has voted this round or
            // died. A published successor of a newer epoch that contains
            // this rank short-circuits both phases: it was built from a
            // complete commit set that included ours, and membership may
            // have grown since (admitted joiners never vote), so the
            // completeness predicate must not be re-awaited against the
            // enlarged member set.
            loop {
                if st.round != round {
                    continue 'agree;
                }
                if let Some((_, _, ep, sh)) = &st.published {
                    if *ep > self.epoch && sh.world_ranks.contains(&me) {
                        break 'agree (Arc::clone(sh), *ep);
                    }
                }
                let complete = (0..n).all(|r| {
                    !health.is_member(r)
                        || health.is_gone(r)
                        || st.votes[r].as_ref().is_some_and(|(rd, _, _)| *rd == round)
                });
                if complete {
                    break;
                }
                st = health.agree_cv.wait_timeout(st, TICK);
            }
            // Candidate dead set: union of this round's votes plus any
            // member death observable right now. Candidate admit set:
            // union of this round's votes *only* — votes for one round
            // are immutable, so every member derives the same admit set,
            // and a joiner announcing mid-agreement is picked up by the
            // next grow instead of racing this one.
            let mut dead = vec![false; n];
            let mut admit = vec![false; n];
            for r in 0..n {
                if health.is_member(r) && health.is_gone(r) {
                    dead[r] = true;
                }
                if let Some((rd, vd, vj)) = &st.votes[r] {
                    if *rd == round {
                        for &d in vd {
                            dead[d] = true;
                        }
                        for &j in vj {
                            admit[j] = true;
                        }
                    }
                }
            }
            let candidate: Vec<usize> = (0..n).filter(|&r| dead[r]).collect();
            let admits: Vec<usize> = (0..n)
                .filter(|&r| admit[r] && !health.is_member(r))
                .collect();
            // Phase 2: post the candidate; every live member must agree.
            st.commits[me] = Some((round, candidate.clone(), admits.clone()));
            health.agree_cv.notify_all();
            loop {
                if st.round != round {
                    continue 'agree;
                }
                if let Some((_, _, ep, sh)) = &st.published {
                    if *ep > self.epoch && sh.world_ranks.contains(&me) {
                        break 'agree (Arc::clone(sh), *ep);
                    }
                }
                let complete = (0..n).all(|r| {
                    !health.is_member(r)
                        || health.is_gone(r)
                        || st.commits[r]
                            .as_ref()
                            .is_some_and(|(rd, _, _)| *rd == round)
                });
                if complete {
                    break;
                }
                st = health.agree_cv.wait_timeout(st, TICK);
            }
            let agreed = (0..n)
                .filter(|&r| health.is_member(r) && !health.is_gone(r))
                .all(|r| {
                    st.commits[r]
                        .as_ref()
                        .is_some_and(|(_, c, a)| *c == candidate && *a == admits)
                });
            let grew = (0..n).any(|r| health.is_member(r) && health.is_gone(r) && !dead[r]);
            if !agreed || grew {
                // A death raced the vote; restart with the larger view.
                st.round = round + 1;
                health.agree_cv.notify_all();
                continue 'agree;
            }
            // Committed: adopt the published successor communicator, or
            // build it if we are first through. The epoch guard rejects a
            // stale publication left over from an agreement this rank
            // already consumed.
            match &st.published {
                Some((d, a, ep, sh)) if *d == candidate && *a == admits && *ep > self.epoch => {
                    break (Arc::clone(sh), *ep)
                }
                _ => {
                    // Survivors first, in world-rank order; admitted
                    // joiners appended, in world-rank order.
                    let mut ranks: Vec<usize> = (0..n)
                        .filter(|&r| health.is_member(r) && !dead[r])
                        .collect();
                    ranks.extend(admits.iter().copied());
                    let ep = health.revocation.load(AtOrd::SeqCst).max(st.epoch + 1);
                    let fault_id = membership_fault_id(ep, &ranks);
                    let sh = CommShared::new(ranks, Arc::clone(&backend), fault_id);
                    st.epoch = ep;
                    // Joiners enter with a fresh suspicion baseline: their
                    // heartbeat counter starts at the current front of the
                    // world and their watermark at the publisher's clock,
                    // so a member that beat through the whole previous
                    // epoch cannot instantly "suspect" a newcomer.
                    let front_beats = (0..n)
                        .map(|r| health.beats[r].load(AtOrd::SeqCst))
                        .max()
                        .unwrap_or(0);
                    for &j in &admits {
                        health.member[j].store(true, AtOrd::SeqCst);
                        health.n_members.fetch_add(1, AtOrd::SeqCst);
                        health.pending_join[j].store(false, AtOrd::SeqCst);
                        health.beats[j].fetch_max(front_beats, AtOrd::SeqCst);
                        health.watermark[j].fetch_max(self.clock.now().to_bits(), AtOrd::SeqCst);
                        // A joiner that died between vote and publish is
                        // still admitted (the agreed set is immutable);
                        // account its departure so live() stays honest,
                        // and let the next shrink remove it.
                        health.account_dead(j);
                        st.lobby[j] = Some(LobbyTicket {
                            shared: Arc::clone(&sh),
                            epoch: ep,
                            clock: self.clock.now(),
                        });
                    }
                    st.published = Some((candidate, admits, ep, Arc::clone(&sh)));
                    health.agree_cv.notify_all();
                    break (sh, ep);
                }
            }
        };
        drop(st);
        let rank = invariant(
            shared.world_ranks.iter().position(|&r| r == me),
            "membership agreement: member missing from the committed communicator",
        );
        // Charge the agreement's virtual-time cost — one vote round and one
        // commit round over the member set — so drivers can report it. The
        // fault-free path never reaches here, so baselines are untouched.
        self.clock.advance(
            2.0 * self.model.alpha * (shared.world_ranks.len().max(2) as f64).log2().ceil(),
        );
        Ok(Communicator {
            shared,
            model: self.model,
            rank,
            clock: Rc::clone(&self.clock),
            seq: Cell::new(0),
            health: Arc::clone(&self.health),
            plan: Arc::clone(&self.plan),
            counters: Rc::clone(&self.counters),
            tracer: Rc::clone(&self.tracer),
            label: Cell::new(self.label.get()),
            epoch,
            retry_policy: Cell::new(self.retry_policy.get()),
            suspicion: Cell::new(self.suspicion.get()),
        })
    }

    // ---------------------------------------------------------------- p2p

    /// Send `value` to `dest` with a user `tag` (non-blocking buffered send,
    /// like `MPI_Isend` + internal buffering).
    pub fn send<T: Send + WireSize + 'static>(&self, dest: usize, tag: u64, value: T) {
        assert!(dest < self.size(), "send: dest out of range");
        let bytes = value.wire_bytes();
        let idx = self.counters.msg_index.get();
        self.counters.msg_index.set(idx + 1);
        let (drops, delay) =
            self.plan
                .message_faults(self.world_rank(), self.shared.world_ranks[dest], tag, idx);
        if drops > 0 {
            bump(&self.counters.drops);
        }
        if delay > 0.0 {
            bump(&self.counters.delays);
        }
        // Payload corruption: decided per message from the plan's seed and
        // the message identity, matched against the sender's current trace
        // phase. The checksum inside `seal` is computed first, over the
        // pristine value — the envelope always tells the truth.
        let corruption = if self.plan.has_corruptions() && bytes > 0 {
            let hit = self.tracer.with_phase_name(|phase| {
                self.plan.corrupt_p2p(
                    phase,
                    self.world_rank(),
                    self.shared.world_ranks[dest],
                    tag,
                    idx,
                )
            });
            if hit.is_some() {
                bump(&self.counters.corrupt_injected);
            }
            hit
        } else {
            None
        };
        // Sender pays the injection latency; the payload lands after the
        // transfer time (plus any injected wire delay).
        self.clock.advance(self.model.alpha);
        let arrival = self.clock.now() + self.model.beta * bytes as f64 + delay;
        let salt = envelope_salt(self.shared.fault_id, self.epoch, tag);
        let mb = &self.shared.mailboxes[dest];
        {
            let mut inner = mb.inner.lock();
            inner
                .queues
                .entry((self.rank, tag))
                .or_default()
                .push_back(Envelope::seal(
                    value, arrival, bytes, drops, salt, corruption,
                ));
        }
        mb.cv.notify_all();
        self.shared.p2p_messages.fetch_add(1, AtOrd::Relaxed);
        self.shared
            .p2p_bytes
            .fetch_add(bytes as u64, AtOrd::Relaxed);
        self.tracer
            .on_send(self.shared.world_ranks[dest], tag, bytes);
    }

    /// Blocking receive of the next message from `src` with `tag`. Dropped
    /// deliveries are retried indefinitely (each charging virtual time);
    /// structural failures (dead peer, global deadlock) panic with the
    /// structured error — use [`Communicator::try_recv_timeout`] to handle
    /// them.
    ///
    /// # Panics
    /// Panics if the payload type does not match `T`, if `src` dies, if
    /// the message's checksum never verifies, or if the world deadlocks.
    pub fn recv<T: Send + WireSize + 'static>(&self, src: usize, tag: u64) -> T {
        self.try_recv_timeout(src, tag, &RetryPolicy::unbounded())
            .unwrap_or_else(|e| panic!("recv(src {src}, tag {tag}) on rank {}: {e}", self.rank))
    }

    /// Fault-tolerant receive: delivers the next message from `src` with
    /// `tag`, retrying dropped deliveries under `policy` (each failed
    /// attempt charges `timeout · backoff^k` virtual seconds), verifying
    /// the envelope checksum before handing out the payload (each failed
    /// verification charges a retransmit: retry backoff plus the payload's
    /// transfer time), and watching the world's health while waiting.
    ///
    /// # Errors
    /// [`CommError::Timeout`] when drops exhaust the retry budget,
    /// [`CommError::Corrupt`] when checksum failures exhaust the
    /// retransmit budget, [`CommError::RankDead`] when `src` is dead and
    /// no message is pending, [`CommError::Deadlock`] when every live
    /// rank is blocked.
    ///
    /// # Panics
    /// Panics if the payload type does not match `T`.
    pub fn try_recv_timeout<T: Send + WireSize + 'static>(
        &self,
        src: usize,
        tag: u64,
        policy: &RetryPolicy,
    ) -> Result<T, CommError> {
        assert!(src < self.size(), "recv: src out of range");
        let mb = &self.shared.mailboxes[self.rank];
        let src_world = self.shared.world_ranks[src];
        // Jitter salt for retry backoff: a pure function of the plan seed,
        // the communicator's identity, and the (src, tag) channel — never
        // a free-running counter, so identically-seeded runs replay
        // byte-identical retry schedules.
        let retry_salt = self.plan.retry_salt(
            src_world,
            tag,
            splitmix64(self.shared.fault_id ^ self.epoch as u64),
        );
        let mut attempts = 0u32;
        let mut stall = 0u32;
        let mut guard: Option<BlockGuard> = None;
        let mut inner = mb.inner.lock();
        let env = loop {
            if let Some(q) = inner.queues.get_mut(&(src, tag)) {
                let mut timed_out = false;
                while let Some(front) = q.front_mut() {
                    if front.drops == 0 {
                        break;
                    }
                    // A dropped delivery: the receiver waits out the
                    // (virtual) timeout, then asks for redelivery.
                    front.drops -= 1;
                    self.clock
                        .advance(policy.charge_jittered(attempts, retry_salt));
                    bump(&self.counters.retries);
                    self.tracer.on_retry();
                    attempts += 1;
                    if attempts > policy.max_retries {
                        timed_out = true;
                        break;
                    }
                }
                if timed_out {
                    bump(&self.counters.timeouts);
                    return Err(CommError::Timeout { src, tag, attempts });
                }
                // End-to-end integrity: fold the delivered payload and
                // compare with the envelope's salted checksum. A mismatch
                // is never handed out — each one is answered with a
                // retransmit (retry backoff plus the payload's transfer
                // time: the sender's pristine buffer re-crosses the wire)
                // until the budget exhausts, at which point the failure
                // surfaces typed. The salt binds the sender's epoch, so a
                // stale-epoch replay fails here too.
                let mut corrupt_error = false;
                if let Some(front) = q.front_mut() {
                    let salt = envelope_salt(self.shared.fault_id, self.epoch, tag);
                    let rtx_salt = splitmix64(retry_salt ^ 0x5254_584d);
                    let mut rtx = 0u32;
                    loop {
                        let verified = match front.payload.downcast_ref::<T>() {
                            Some(v) => wire_sum(v, salt) == front.sum,
                            // Type mismatch: fall through to the audited
                            // panic in `downcast_payload` below.
                            None => true,
                        };
                        if verified {
                            break;
                        }
                        bump(&self.counters.corrupt_detected);
                        if rtx >= policy.max_retransmits {
                            corrupt_error = true;
                            break;
                        }
                        bump(&self.counters.retransmits);
                        self.tracer.on_retry();
                        self.clock.advance(
                            policy.charge_jittered(rtx, rtx_salt)
                                + self.model.beta * front.bytes as f64,
                        );
                        rtx += 1;
                        if front.corrupt > 0 {
                            front.corrupt -= 1;
                            if front.corrupt == 0 {
                                // The retransmitted copy arrives intact:
                                // undo the injected flip (XOR-involutive),
                                // modeling redelivery from the sender's
                                // pristine buffer.
                                if let Some(v) = front.payload.downcast_mut::<T>() {
                                    v.wire_flip(front.flipped_bit);
                                }
                            }
                        }
                    }
                }
                if corrupt_error {
                    // The poisoned envelope stays queued: the channel is
                    // broken, not skipped — a later receive of the same
                    // (src, tag) must not silently see the next message.
                    return Err(CommError::Corrupt {
                        src,
                        tag,
                        epoch: self.epoch,
                    });
                }
                if let Some(env) = q.pop_front() {
                    break env;
                }
            }
            // Nothing deliverable. The dead-check is safe against races
            // because senders enqueue under this same mailbox lock before
            // being marked gone: observing "gone + empty queue" here means
            // no message is coming.
            if self.health.is_gone(src_world) {
                return Err(CommError::RankDead { rank: src_world });
            }
            // Checked only on the blocking path: an already-delivered
            // message is still handed out after revocation (its sender
            // completed the send before erroring out), keeping the
            // success/failure outcome of every receive a deterministic
            // function of program order rather than revocation timing.
            if self.health.revoked(self.epoch) {
                return Err(CommError::Revoked { epoch: self.epoch });
            }
            if guard.is_none() {
                let probe = WaitProbe::Mailbox {
                    shared: Arc::downgrade(&self.shared),
                    epoch: self.epoch,
                    rank: self.rank,
                    src,
                    tag,
                };
                guard = Some(BlockGuard::new(&self.health, self.world_rank(), probe));
            }
            if self.health.all_blocked() {
                stall += 1;
                if stall >= STALL_TICKS {
                    stall = STALL_TICKS;
                    // Release our own mailbox lock so the probes (ours
                    // included) can inspect it, then confirm before
                    // declaring deadlock.
                    drop(inner);
                    let dead = self.health.confirmed_deadlock();
                    inner = mb.inner.lock();
                    if dead {
                        return Err(CommError::Deadlock {
                            rank: self.world_rank(),
                        });
                    }
                }
            } else {
                stall = 0;
            }
            inner = mb.cv.wait_timeout(inner, TICK);
        };
        drop(inner);
        drop(guard);
        self.clock.advance_to(env.arrival);
        self.tracer
            .on_recv(self.shared.world_ranks[src], tag, env.bytes);
        Ok(downcast_payload(env.payload, "recv"))
    }

    /// Exchange one message with every neighbor (the paper's
    /// `MPI_Ineighbor_alltoall` on a distributed-graph topology): sends
    /// `sends[k]` to `neighbors[k]` and returns the messages received from
    /// each neighbor, in neighbor order.
    pub fn neighbor_alltoall<T: Send + WireSize + 'static>(
        &self,
        neighbors: &[usize],
        tag: u64,
        sends: Vec<T>,
    ) -> Vec<T> {
        assert_eq!(neighbors.len(), sends.len());
        for (&n, s) in neighbors.iter().zip(sends) {
            self.send(n, tag, s);
        }
        neighbors.iter().map(|&n| self.recv(n, tag)).collect()
    }

    // --------------------------------------------------------- collectives

    /// Wait until collective slot `seq` completes, watching the health
    /// registry: a participant that dies before contributing, or a global
    /// stall, aborts the wait with a structured error.
    fn wait_slot_done(&self, seq: u64) -> Result<(), CommError> {
        let mut slots = self.shared.slots.lock();
        let mut stall = 0u32;
        let mut guard: Option<BlockGuard> = None;
        loop {
            match slots.get(&seq) {
                Some(slot) if slot.done => return Ok(()),
                Some(slot) => {
                    // A participant that has not contributed and is gone
                    // will never arrive (contributions are deposited under
                    // this lock before a rank can be marked gone).
                    for r in 0..self.shared.size {
                        let wr = self.shared.world_ranks[r];
                        if slot.contributions[r].is_none() && self.health.is_gone(wr) {
                            return Err(CommError::RankDead { rank: wr });
                        }
                    }
                    // A live participant may have abandoned this epoch for
                    // recovery without dying (checked after the dead-peer
                    // scan so a collective containing the dead rank keeps
                    // its deterministic RankDead classification).
                    if self.health.revoked(self.epoch) {
                        return Err(CommError::Revoked { epoch: self.epoch });
                    }
                }
                // The slot can only be removed after every rank took the
                // result, which includes us — so a missing slot means the
                // collective is done and this wait raced the cleanup.
                None => return Ok(()),
            }
            if guard.is_none() {
                let probe = WaitProbe::Slot {
                    shared: Arc::downgrade(&self.shared),
                    epoch: self.epoch,
                    seq,
                };
                guard = Some(BlockGuard::new(&self.health, self.world_rank(), probe));
            }
            if self.health.all_blocked() {
                stall += 1;
                if stall >= STALL_TICKS {
                    stall = STALL_TICKS;
                    // Release the slot table so the probes (ours included)
                    // can inspect it, then confirm before declaring
                    // deadlock.
                    drop(slots);
                    let dead = self.health.confirmed_deadlock();
                    slots = self.shared.slots.lock();
                    if dead {
                        return Err(CommError::Deadlock {
                            rank: self.world_rank(),
                        });
                    }
                }
            } else {
                stall = 0;
            }
            slots = self.shared.slots_cv.wait_timeout(slots, TICK);
        }
    }

    /// Charge this rank for fault-plan drops/delays of one collective
    /// contribution, under the communicator's [`RetryPolicy`]: each failed
    /// delivery attempt charges `timeout · backoff^k` (with the seeded
    /// jitter applied) to the rank's clock *before* it deposits, so the
    /// recovery cost propagates into the collective's exit time exactly
    /// like a slow arriver. Delivery always completes — collectives are
    /// all-or-nothing, so an exhausted retry budget is recorded as a
    /// timeout in [`FaultStats`] rather than stranding the peers — and
    /// every decision is a pure function of `(seed, communicator identity,
    /// collective sequence number)` — never a free-running counter, so two
    /// identically-seeded runs replay byte-identical fault and retry
    /// schedules.
    fn charge_collective_faults(&self, seq: u64) {
        if !self.plan.is_active() {
            return;
        }
        let wr = self.world_rank();
        let ident = splitmix64(self.shared.fault_id ^ seq);
        let (drops, delay) = self.plan.collective_faults(wr, ident);
        if drops > 0 {
            bump(&self.counters.drops);
        }
        if delay > 0.0 {
            bump(&self.counters.delays);
            self.clock.advance(delay);
        }
        let policy = self.retry_policy.get();
        let salt = self.plan.retry_salt(wr, u64::MAX, ident);
        for attempt in 0..drops {
            self.clock.advance(policy.charge_jittered(attempt, salt));
            bump(&self.counters.retries);
            self.tracer.on_retry();
            if attempt + 1 > policy.max_retries {
                bump(&self.counters.timeouts);
                break;
            }
        }
        // Corrupted collective contributions: each checksum-failed
        // delivery is detected and retransmitted before the deposit, so —
        // like drops above — delivery always completes (all-or-nothing)
        // and the cost lands on this rank's entry time. An exhausted
        // retransmit budget is recorded as a timeout; typed
        // `CommError::Corrupt` surfaces only on the point-to-point path.
        if self.plan.has_corruptions() {
            let n = self
                .tracer
                .with_phase_name(|phase| self.plan.corrupt_collective(phase, wr));
            if let Some(n) = n {
                bump(&self.counters.corrupt_injected);
                let rtx_salt = splitmix64(salt ^ 0x5254_584d);
                for attempt in 0..n.min(policy.max_retransmits) {
                    bump(&self.counters.corrupt_detected);
                    bump(&self.counters.retransmits);
                    self.tracer.on_retry();
                    self.clock
                        .advance(policy.charge_jittered(attempt, rtx_salt));
                }
                if n > policy.max_retransmits {
                    bump(&self.counters.corrupt_detected);
                    bump(&self.counters.timeouts);
                }
            }
        }
    }

    /// First half of a collective: deposit a contribution under the next
    /// sequence number; the last arriver runs `finish` on all of them and
    /// publishes the result with the exit time. Never blocks. Returns the
    /// sequence number and — to the finisher, who goes straight on to take
    /// the result in a blocking collective — the slot table still locked.
    fn deposit<R: Send + Sync + 'static>(
        &self,
        contribution: Box<dyn Any + Send>,
        finish: impl FnOnce(Vec<Box<dyn Any + Send>>, f64) -> (R, f64),
    ) -> (u64, Option<SlotsGuard<'_>>) {
        self.charge_collective_faults(self.seq.get());
        let seq = self.next_seq();
        self.shared.collective_calls.fetch_add(1, AtOrd::Relaxed);
        let size = self.size();
        let mut slots = self.shared.slots.lock();
        let slot = slots.entry(seq).or_insert_with(|| Slot::new(size));
        slot.contributions[self.rank] = Some(contribution);
        slot.entry[self.rank] = self.clock.now();
        slot.arrived += 1;
        if slot.arrived < size {
            return (seq, None);
        }
        let contribs: Vec<Box<dyn Any + Send>> = slot
            .contributions
            .iter_mut()
            .map(|c| invariant(c.take(), "collective contribution missing"))
            .collect();
        let max_entry = slot.entry.iter().cloned().fold(0.0f64, f64::max);
        let (result, exit) = finish(contribs, max_entry);
        slot.result = Some(Arc::new(result));
        slot.exit_clock = exit;
        slot.done = true;
        self.shared.slots_cv.notify_all();
        (seq, Some(slots))
    }

    /// Second half: wait until collective `seq` is done (unless `held`
    /// says this rank just finished it), take the shared result and
    /// synchronize the clock to the exit time.
    fn take<R: Send + Sync + 'static>(
        &self,
        seq: u64,
        held: Option<SlotsGuard<'_>>,
    ) -> Result<Arc<R>, CommError> {
        let mut slots = match held {
            Some(slots) => slots,
            None => {
                self.wait_slot_done(seq)?;
                self.shared.slots.lock()
            }
        };
        let slot = invariant(slots.get_mut(&seq), "collective slot vanished");
        let result = downcast_shared::<R>(
            invariant(slot.result.clone(), "collective result missing"),
            "collective",
        );
        let exit = slot.exit_clock;
        slot.taken += 1;
        if slot.taken == self.size() {
            slots.remove(&seq);
        }
        drop(slots);
        self.clock.advance_to(exit);
        Ok(result)
    }

    /// A blocking collective: both halves back to back.
    fn try_collective<R: Send + Sync + 'static>(
        &self,
        contribution: Box<dyn Any + Send>,
        finish: impl FnOnce(Vec<Box<dyn Any + Send>>, f64) -> (R, f64),
    ) -> Result<Arc<R>, CommError> {
        let (seq, held) = self.deposit(contribution, finish);
        self.take(seq, held)
    }

    /// The finisher of the element-wise vector sums, blocking or not.
    fn sum_vecs(&self) -> impl FnOnce(Vec<Box<dyn Any + Send>>, f64) -> (Vec<f64>, f64) {
        let (size, model) = (self.size(), self.model);
        move |contribs, max_entry| {
            let mut it = contribs.into_iter();
            let first = invariant(it.next(), "allreduce_sum_vec: empty contribution set");
            let mut acc = downcast_payload::<Vec<f64>>(first, "allreduce_sum_vec");
            for c in it {
                let v = downcast_payload::<Vec<f64>>(c, "allreduce_sum_vec");
                assert_eq!(v.len(), acc.len(), "allreduce_sum_vec: length mismatch");
                for (a, b) in acc.iter_mut().zip(v.iter()) {
                    *a += b;
                }
            }
            let bytes = acc.len() * 8;
            (acc, max_entry + model.allreduce(size, bytes))
        }
    }

    fn next_seq(&self) -> u64 {
        let s = self.seq.get();
        self.seq.set(s + 1);
        s
    }

    /// Synchronize all ranks.
    pub fn barrier(&self) {
        self.try_barrier()
            .unwrap_or_else(|e| panic!("barrier on rank {}: {e}", self.rank));
    }

    /// Fault-tolerant [`Communicator::barrier`].
    pub fn try_barrier(&self) -> Result<(), CommError> {
        self.trace_coll("barrier", CollClass::EqualCount, None, 0);
        let size = self.size();
        let model = self.model;
        self.try_collective(Box::new(()), move |_, max_entry| {
            ((), max_entry + model.barrier(size))
        })?;
        Ok(())
    }

    /// Broadcast `value` from `root` (non-roots pass `None`).
    pub fn bcast<T: Clone + Send + Sync + WireSize + 'static>(
        &self,
        root: usize,
        value: Option<T>,
    ) -> T {
        self.try_bcast(root, value)
            .unwrap_or_else(|e| panic!("bcast on rank {}: {e}", self.rank))
    }

    /// Fault-tolerant [`Communicator::bcast`].
    pub fn try_bcast<T: Clone + Send + Sync + WireSize + 'static>(
        &self,
        root: usize,
        value: Option<T>,
    ) -> Result<T, CommError> {
        let size = self.size();
        let bytes = value.as_ref().map_or(0, |v| v.wire_bytes());
        self.shared
            .collective_bytes
            .fetch_add(bytes as u64, AtOrd::Relaxed);
        self.trace_coll("bcast", CollClass::EqualCount, Some(root), bytes);
        let model = self.model;
        let r = self.try_collective(Box::new(value), move |mut contribs, max_entry| {
            let boxed = std::mem::replace(&mut contribs[root], Box::new(()));
            let v = invariant(
                downcast_payload::<Option<T>>(boxed, "bcast"),
                "bcast: root passed None",
            );
            let cost = model.bcast(size, v.wire_bytes());
            (v, max_entry + cost)
        })?;
        Ok((*r).clone())
    }

    /// Gather with equal counts (`MPI_Gather`): root receives all values in
    /// rank order; others get `None`.
    pub fn gather<T: Send + Sync + WireSize + 'static>(
        &self,
        root: usize,
        value: T,
    ) -> Option<Vec<T>> {
        self.try_gather(root, value)
            .unwrap_or_else(|e| panic!("gather on rank {}: {e}", self.rank))
    }

    /// Fault-tolerant [`Communicator::gather`].
    pub fn try_gather<T: Send + Sync + WireSize + 'static>(
        &self,
        root: usize,
        value: T,
    ) -> Result<Option<Vec<T>>, CommError> {
        let size = self.size();
        let bytes = value.wire_bytes();
        self.shared
            .collective_bytes
            .fetch_add(bytes as u64, AtOrd::Relaxed);
        self.trace_coll("gather", CollClass::EqualCount, Some(root), bytes);
        let model = self.model;
        let is_root = self.rank == root;
        let r = self.try_collective(Box::new(value), move |contribs, max_entry| {
            let vals: Vec<T> = contribs
                .into_iter()
                .map(|c| downcast_payload::<T>(c, "gather"))
                .collect();
            let per_rank = vals.iter().map(|v| v.wire_bytes()).max().unwrap_or(0);
            let cost = model.gather_uniform(size, per_rank);
            (Mutex::new(Some(vals)), max_entry + cost)
        })?;
        Ok(if is_root { lck(&r).take() } else { None })
    }

    /// Gather with varying counts (`MPI_Gatherv`) — same data movement,
    /// linear `O(N)` cost model (see `crate::model`).
    pub fn gatherv<T: Send + Sync + WireSize + 'static>(
        &self,
        root: usize,
        value: T,
    ) -> Option<Vec<T>> {
        self.try_gatherv(root, value)
            .unwrap_or_else(|e| panic!("gatherv on rank {}: {e}", self.rank))
    }

    /// Fault-tolerant [`Communicator::gatherv`].
    pub fn try_gatherv<T: Send + Sync + WireSize + 'static>(
        &self,
        root: usize,
        value: T,
    ) -> Result<Option<Vec<T>>, CommError> {
        let size = self.size();
        let bytes = value.wire_bytes();
        self.shared
            .collective_bytes
            .fetch_add(bytes as u64, AtOrd::Relaxed);
        self.trace_coll("gatherv", CollClass::Varying, Some(root), bytes);
        let model = self.model;
        let is_root = self.rank == root;
        let r = self.try_collective(Box::new(value), move |contribs, max_entry| {
            let vals: Vec<T> = contribs
                .into_iter()
                .map(|c| downcast_payload::<T>(c, "gatherv"))
                .collect();
            let total: usize = vals.iter().map(|v| v.wire_bytes()).sum();
            let cost = model.gather_varying(size, total);
            (Mutex::new(Some(vals)), max_entry + cost)
        })?;
        Ok(if is_root { lck(&r).take() } else { None })
    }

    /// Scatter with equal counts (`MPI_Scatter`): root provides one value
    /// per rank; every rank receives its own.
    pub fn scatter<T: Send + Sync + WireSize + 'static>(
        &self,
        root: usize,
        values: Option<Vec<T>>,
    ) -> T {
        self.try_scatter(root, values)
            .unwrap_or_else(|e| panic!("scatter on rank {}: {e}", self.rank))
    }

    /// Fault-tolerant [`Communicator::scatter`].
    pub fn try_scatter<T: Send + Sync + WireSize + 'static>(
        &self,
        root: usize,
        values: Option<Vec<T>>,
    ) -> Result<T, CommError> {
        let size = self.size();
        let bytes = values
            .as_ref()
            .map_or(0, |vs| vs.iter().map(|v| v.wire_bytes()).sum::<usize>());
        self.shared
            .collective_bytes
            .fetch_add(bytes as u64, AtOrd::Relaxed);
        self.trace_coll("scatter", CollClass::EqualCount, Some(root), bytes);
        let model = self.model;
        let rank = self.rank;
        let r = self.try_collective(Box::new(values), move |mut contribs, max_entry| {
            let boxed = std::mem::replace(&mut contribs[root], Box::new(()));
            let vals = invariant(
                downcast_payload::<Option<Vec<T>>>(boxed, "scatter"),
                "scatter: root passed None",
            );
            assert_eq!(vals.len(), size, "scatter: need one value per rank");
            let per_rank = vals.iter().map(|v| v.wire_bytes()).max().unwrap_or(0);
            let cost = model.gather_uniform(size, per_rank); // symmetric cost
            let slots: Vec<Mutex<Option<T>>> =
                vals.into_iter().map(|v| Mutex::new(Some(v))).collect();
            (slots, max_entry + cost)
        })?;
        let v = invariant(lck(&r[rank]).take(), "scatter: value already taken");
        Ok(v)
    }

    /// Scatter with varying counts (`MPI_Scatterv`): linear cost model.
    pub fn scatterv<T: Send + Sync + WireSize + 'static>(
        &self,
        root: usize,
        values: Option<Vec<T>>,
    ) -> T {
        self.try_scatterv(root, values)
            .unwrap_or_else(|e| panic!("scatterv on rank {}: {e}", self.rank))
    }

    /// Fault-tolerant [`Communicator::scatterv`].
    pub fn try_scatterv<T: Send + Sync + WireSize + 'static>(
        &self,
        root: usize,
        values: Option<Vec<T>>,
    ) -> Result<T, CommError> {
        let size = self.size();
        let bytes = values
            .as_ref()
            .map_or(0, |vs| vs.iter().map(|v| v.wire_bytes()).sum::<usize>());
        self.shared
            .collective_bytes
            .fetch_add(bytes as u64, AtOrd::Relaxed);
        self.trace_coll("scatterv", CollClass::Varying, Some(root), bytes);
        let model = self.model;
        let rank = self.rank;
        let r = self.try_collective(Box::new(values), move |mut contribs, max_entry| {
            let boxed = std::mem::replace(&mut contribs[root], Box::new(()));
            let vals = invariant(
                downcast_payload::<Option<Vec<T>>>(boxed, "scatterv"),
                "scatterv: root passed None",
            );
            assert_eq!(vals.len(), size);
            let total: usize = vals.iter().map(|v| v.wire_bytes()).sum();
            let cost = model.gather_varying(size, total);
            let slots: Vec<Mutex<Option<T>>> =
                vals.into_iter().map(|v| Mutex::new(Some(v))).collect();
            (slots, max_entry + cost)
        })?;
        let v = invariant(lck(&r[rank]).take(), "scatterv: value already taken");
        Ok(v)
    }

    /// Allgather with equal counts.
    pub fn allgather<T: Clone + Send + Sync + WireSize + 'static>(&self, value: T) -> Vec<T> {
        self.try_allgather(value)
            .unwrap_or_else(|e| panic!("allgather on rank {}: {e}", self.rank))
    }

    /// Fault-tolerant [`Communicator::allgather`].
    pub fn try_allgather<T: Clone + Send + Sync + WireSize + 'static>(
        &self,
        value: T,
    ) -> Result<Vec<T>, CommError> {
        let size = self.size();
        let bytes = value.wire_bytes();
        self.shared
            .collective_bytes
            .fetch_add(bytes as u64, AtOrd::Relaxed);
        self.trace_coll("allgather", CollClass::EqualCount, None, bytes);
        let model = self.model;
        let r = self.try_collective(Box::new(value), move |contribs, max_entry| {
            let vals: Vec<T> = contribs
                .into_iter()
                .map(|c| downcast_payload::<T>(c, "allgather"))
                .collect();
            let per_rank = vals.iter().map(|v| v.wire_bytes()).max().unwrap_or(0);
            let cost = model.allgather_uniform(size, per_rank);
            (vals, max_entry + cost)
        })?;
        Ok((*r).clone())
    }

    /// Allreduce: sum of scalars.
    pub fn allreduce_sum(&self, value: f64) -> f64 {
        self.try_allreduce_sum(value)
            .unwrap_or_else(|e| panic!("allreduce_sum on rank {}: {e}", self.rank))
    }

    /// Fault-tolerant [`Communicator::allreduce_sum`].
    pub fn try_allreduce_sum(&self, value: f64) -> Result<f64, CommError> {
        self.trace_coll("allreduce", CollClass::EqualCount, None, 8);
        let size = self.size();
        let model = self.model;
        let r = self.try_collective(Box::new(value), move |contribs, max_entry| {
            let s: f64 = contribs
                .into_iter()
                .map(|c| downcast_payload::<f64>(c, "allreduce_sum"))
                .sum();
            (s, max_entry + model.allreduce(size, 8))
        })?;
        Ok(*r)
    }

    /// Allreduce: element-wise sum of equal-length vectors.
    pub fn allreduce_sum_vec(&self, value: Vec<f64>) -> Vec<f64> {
        self.try_allreduce_sum_vec(value)
            .unwrap_or_else(|e| panic!("allreduce_sum_vec on rank {}: {e}", self.rank))
    }

    /// Fault-tolerant [`Communicator::allreduce_sum_vec`].
    pub fn try_allreduce_sum_vec(&self, value: Vec<f64>) -> Result<Vec<f64>, CommError> {
        let bytes = value.wire_bytes();
        self.shared
            .collective_bytes
            .fetch_add(bytes as u64, AtOrd::Relaxed);
        self.trace_coll("allreduce", CollClass::EqualCount, None, bytes);
        let r = self.try_collective(Box::new(value), self.sum_vecs())?;
        Ok((*r).clone())
    }

    /// Allreduce: maximum of scalars (the paper's
    /// `MPI_Allreduce(ν_i, MPI_MAX)` to uniformize deflation counts).
    pub fn allreduce_max(&self, value: f64) -> f64 {
        self.try_allreduce_max(value)
            .unwrap_or_else(|e| panic!("allreduce_max on rank {}: {e}", self.rank))
    }

    /// Fault-tolerant [`Communicator::allreduce_max`].
    pub fn try_allreduce_max(&self, value: f64) -> Result<f64, CommError> {
        self.trace_coll("allreduce", CollClass::EqualCount, None, 8);
        let size = self.size();
        let model = self.model;
        let r = self.try_collective(Box::new(value), move |contribs, max_entry| {
            let m = contribs
                .into_iter()
                .map(|c| downcast_payload::<f64>(c, "allreduce_max"))
                .fold(f64::NEG_INFINITY, f64::max);
            (m, max_entry + model.allreduce(size, 8))
        })?;
        Ok(*r)
    }

    /// Allreduce: maximum of usize.
    pub fn allreduce_max_usize(&self, value: usize) -> usize {
        self.try_allreduce_max_usize(value)
            .unwrap_or_else(|e| panic!("allreduce_max_usize on rank {}: {e}", self.rank))
    }

    /// Fault-tolerant [`Communicator::allreduce_max_usize`].
    pub fn try_allreduce_max_usize(&self, value: usize) -> Result<usize, CommError> {
        self.trace_coll("allreduce", CollClass::EqualCount, None, 8);
        let size = self.size();
        let model = self.model;
        let r = self.try_collective(Box::new(value), move |contribs, max_entry| {
            let m = contribs
                .into_iter()
                .map(|c| downcast_payload::<usize>(c, "allreduce_max_usize"))
                .max()
                .unwrap_or(0);
            (m, max_entry + model.allreduce(size, 8))
        })?;
        Ok(*r)
    }

    /// Non-blocking element-wise vector sum (`MPI_Iallreduce`): returns a
    /// handle immediately; the posting cost is a single injection latency.
    /// Complete with [`Communicator::wait_reduce`].
    pub fn iallreduce_sum_vec(&self, value: Vec<f64>) -> PendingReduce<Vec<f64>> {
        self.trace_coll(
            "iallreduce",
            CollClass::EqualCount,
            None,
            value.wire_bytes(),
        );
        let (seq, held) = self.deposit(Box::new(value), self.sum_vecs());
        drop(held);
        // Posting overhead only — the reduction itself overlaps with
        // whatever the rank does before waiting.
        self.clock.advance(self.model.alpha);
        PendingReduce {
            seq,
            _marker: std::marker::PhantomData,
        }
    }

    /// Complete a pending non-blocking reduction. The clock advances to the
    /// later of "now" and the modeled completion time — time spent
    /// computing between post and wait hides the reduction latency. A
    /// participant that died before posting, or a revoked epoch, is the
    /// typed error of a blocking collective.
    pub fn wait_reduce(&self, pending: PendingReduce<Vec<f64>>) -> Result<Vec<f64>, CommError> {
        let r = self.take::<Vec<f64>>(pending.seq, None)?;
        Ok((*r).clone())
    }

    /// Split into sub-communicators by color (`MPI_Comm_split`). Ranks
    /// passing `None` get `None` back (`MPI_UNDEFINED`). Sub-ranks follow
    /// parent rank order, matching the paper's construction where "the
    /// ranks of the slaves follow the same order as in MPI_COMM_WORLD".
    pub fn split(&self, color: Option<usize>) -> Option<Communicator> {
        self.try_split(color)
            .unwrap_or_else(|e| panic!("split on rank {}: {e}", self.rank))
    }

    /// Fault-tolerant [`Communicator::split`].
    pub fn try_split(&self, color: Option<usize>) -> Result<Option<Communicator>, CommError> {
        self.trace_coll("split", CollClass::EqualCount, None, 8);
        let size = self.size();
        let model = self.model;
        let rank = self.rank;
        let parent_world = self.shared.world_ranks.clone();
        let backend = Arc::clone(&self.shared.backend);
        // The sub-communicator's fault identity derives from the parent's
        // identity, the split's position in the parent's collective
        // sequence, and the color — stable across ranks and across
        // identically-seeded runs.
        let parent_fid = self.shared.fault_id;
        let split_seq = self.seq.get();
        let groups = self.try_collective(Box::new(color), move |contribs, max_entry| {
            let colors: Vec<Option<usize>> = contribs
                .into_iter()
                .map(|c| downcast_payload::<Option<usize>>(c, "split"))
                .collect();
            // color → (shared comm, parent ranks in order)
            let mut map: HashMap<usize, Vec<usize>> = HashMap::new();
            for (r, c) in colors.iter().enumerate() {
                if let Some(c) = c {
                    map.entry(*c).or_default().push(r);
                }
            }
            let built: HashMap<usize, (Arc<CommShared>, Vec<usize>)> = map
                .into_iter()
                .map(|(c, members)| {
                    let world: Vec<usize> = members.iter().map(|&r| parent_world[r]).collect();
                    let fid = splitmix64(
                        parent_fid ^ split_seq.rotate_left(17) ^ (c as u64).rotate_left(41),
                    );
                    let shared = CommShared::new(world, Arc::clone(&backend), fid);
                    (c, (shared, members))
                })
                .collect();
            let cost = model.allgather_uniform(size, 8);
            (built, max_entry + cost)
        })?;
        let color = match color {
            Some(c) => c,
            None => return Ok(None),
        };
        Ok(groups.get(&color).and_then(|(shared, members)| {
            let sub_rank = members.iter().position(|&r| r == rank)?;
            Some(Communicator {
                shared: Arc::clone(shared),
                model,
                rank: sub_rank,
                clock: Rc::clone(&self.clock),
                seq: Cell::new(0),
                health: Arc::clone(&self.health),
                plan: Arc::clone(&self.plan),
                counters: Rc::clone(&self.counters),
                tracer: Rc::clone(&self.tracer),
                label: Cell::new(self.label.get()),
                epoch: self.epoch,
                retry_policy: Cell::new(self.retry_policy.get()),
                suspicion: Cell::new(self.suspicion.get()),
            })
        }))
    }
}

/// The SPMD world: spawns one OS thread per rank and runs `f` on each.
pub struct World;

impl World {
    /// Run `f` on `n` ranks with the given cost model, returning the ranks'
    /// results in rank order. Panics in any rank propagate.
    pub fn run<R, F>(n: usize, model: CostModel, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&Communicator) -> R + Send + Sync,
    {
        Self::run_with_faults(n, model, FaultPlan::default(), f)
    }

    /// [`World::run`] with a seeded [`FaultPlan`] armed on every
    /// communicator of the world.
    pub fn run_with_faults<R, F>(n: usize, model: CostModel, faults: FaultPlan, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&Communicator) -> R + Send + Sync,
    {
        unwrap_founders(Self::run_impl(n, 0, model, faults, false, std_backend(), f).0)
    }

    /// [`World::run_with_faults`] under an explicit [`SyncBackend`].
    ///
    /// With the default [`std_backend`] this is identical to
    /// [`World::run_with_faults`]. A virtual backend (`dd-check`'s
    /// scheduler) takes over every blocking primitive of the world and
    /// decides the interleaving of its rank threads — the entry point the
    /// model checker drives once per explored schedule.
    pub fn run_with_backend<R, F>(
        n: usize,
        model: CostModel,
        faults: FaultPlan,
        backend: Arc<dyn SyncBackend>,
        f: F,
    ) -> Vec<R>
    where
        R: Send,
        F: Fn(&Communicator) -> R + Send + Sync,
    {
        unwrap_founders(Self::run_impl(n, 0, model, faults, false, backend, f).0)
    }

    /// [`World::run_with_faults`] plus `reserve` additional rank threads
    /// parked in the admission lobby. A reserve enters the program only
    /// after a [`Communicator::try_grow`] admits it (its slot in the
    /// result vector is `None` if the world ends first); founders always
    /// produce `Some`. Joiners are announced by
    /// [`Communicator::announce_joiner`] or a [`FaultPlan::with_join`]
    /// failpoint.
    pub fn run_elastic<R, F>(
        n: usize,
        reserve: usize,
        model: CostModel,
        faults: FaultPlan,
        f: F,
    ) -> Vec<Option<R>>
    where
        R: Send,
        F: Fn(&Communicator) -> R + Send + Sync,
    {
        Self::run_impl(n, reserve, model, faults, false, std_backend(), f).0
    }

    /// [`World::run_elastic`] under an explicit [`SyncBackend`] — the
    /// entry point `dd-check`'s join-protocol suites drive.
    pub fn run_elastic_with_backend<R, F>(
        n: usize,
        reserve: usize,
        model: CostModel,
        faults: FaultPlan,
        backend: Arc<dyn SyncBackend>,
        f: F,
    ) -> Vec<Option<R>>
    where
        R: Send,
        F: Fn(&Communicator) -> R + Send + Sync,
    {
        Self::run_impl(n, reserve, model, faults, false, backend, f).0
    }

    /// [`World::run`] with telemetry: every communication event is recorded
    /// per rank and merged (in rank order) into a deterministic
    /// [`WorldTrace`] — see [`crate::trace`].
    pub fn run_traced<R, F>(n: usize, model: CostModel, f: F) -> (Vec<R>, WorldTrace)
    where
        R: Send,
        F: Fn(&Communicator) -> R + Send + Sync,
    {
        Self::run_traced_with_faults(n, model, FaultPlan::default(), f)
    }

    /// [`World::run_traced`] with a seeded [`FaultPlan`] armed. Because
    /// fault decisions are pure functions of the seed and message identity,
    /// the canonical trace stays byte-identical across identical-seed runs
    /// even under injected faults.
    pub fn run_traced_with_faults<R, F>(
        n: usize,
        model: CostModel,
        faults: FaultPlan,
        f: F,
    ) -> (Vec<R>, WorldTrace)
    where
        R: Send,
        F: Fn(&Communicator) -> R + Send + Sync,
    {
        let (results, trace) = Self::run_impl(n, 0, model, faults, true, std_backend(), f);
        (
            unwrap_founders(results),
            invariant(trace, "traced run produced no trace"),
        )
    }

    fn run_impl<R, F>(
        n: usize,
        reserve: usize,
        model: CostModel,
        faults: FaultPlan,
        traced: bool,
        backend: Arc<dyn SyncBackend>,
        f: F,
    ) -> (Vec<Option<R>>, Option<WorldTrace>)
    where
        R: Send,
        F: Fn(&Communicator) -> R + Send + Sync,
    {
        assert!(n >= 1);
        assert!(reserve == 0 || !traced, "traced elastic runs unsupported");
        let total = n + reserve;
        let shared = CommShared::new((0..n).collect(), Arc::clone(&backend), 0);
        let health = WorldHealth::new(n, reserve, &backend);
        let plan = Arc::new(faults);
        let results: Mutex<Vec<Option<R>>> = Mutex::new((0..total).map(|_| None).collect());
        let traces: Mutex<Vec<Option<RankTrace>>> = Mutex::new((0..total).map(|_| None).collect());
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(total);
            for rank in 0..total {
                let shared = Arc::clone(&shared);
                let health = Arc::clone(&health);
                let plan = Arc::clone(&plan);
                let backend = Arc::clone(&backend);
                let f = &f;
                let results = &results;
                let traces = &traces;
                let handle = std::thread::Builder::new()
                    .name(format!("rank-{rank}"))
                    .stack_size(8 * 1024 * 1024)
                    .spawn_scoped(scope, move || {
                        // Announce this thread to the backend under its
                        // rank. Declared before `Done` so that on the way
                        // out (return or unwind) the rank is marked gone
                        // *before* a virtual scheduler reconsiders who runs
                        // next — peers must observe the death, not a
                        // vanished thread.
                        let _ctl = ControlGuard::enter(&backend, rank);
                        // Mark the rank gone when its closure returns *or*
                        // panics, so peers blocked on it get a structured
                        // error instead of hanging.
                        struct Done(Arc<WorldHealth>, usize);
                        impl Drop for Done {
                            fn drop(&mut self) {
                                self.0.mark_gone(self.1);
                            }
                        }
                        let _done = Done(Arc::clone(&health), rank);
                        // Reserves wait in the admission lobby: the program
                        // starts for them only when a grow commits and the
                        // publisher deposits their ticket.
                        let (comm_shared, epoch, clock0) = if rank < n {
                            (shared, 0, 0.0)
                        } else {
                            match lobby_wait(&health, rank) {
                                Some(t) => (t.shared, t.epoch, t.clock),
                                None => return, // world ended un-admitted
                            }
                        };
                        let comm_rank = invariant(
                            comm_shared.world_ranks.iter().position(|&r| r == rank),
                            "admitted joiner missing from its committed communicator",
                        );
                        let clock = Rc::new(VirtualClock::new());
                        clock.advance_to(clock0);
                        let tracer = Rc::new(TraceRecorder::new(traced));
                        let label = Cell::new(tracer.intern_label("world"));
                        let comm = Communicator {
                            shared: comm_shared,
                            model,
                            rank: comm_rank,
                            clock,
                            seq: Cell::new(0),
                            health,
                            plan,
                            counters: Rc::new(FaultCounters::default()),
                            tracer,
                            label,
                            epoch,
                            retry_policy: Cell::new(RetryPolicy::default()),
                            suspicion: Cell::new(None),
                        };
                        let r = f(&comm);
                        if traced {
                            lck(traces)[rank] = Some(comm.tracer.finish(rank, comm.clock.now()));
                        }
                        lck(results)[rank] = Some(r);
                    })
                    .unwrap_or_else(|e| panic!("failed to spawn rank thread: {e}"));
                handles.push(handle);
            }
            for h in handles {
                if let Err(e) = h.join() {
                    std::panic::resume_unwind(e);
                }
            }
        });
        let results = results.into_inner().unwrap_or_else(|e| e.into_inner());
        let trace = traced.then(|| WorldTrace {
            ranks: traces
                .into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .into_iter()
                .take(n)
                .map(|t| invariant(t, "rank produced no trace"))
                .collect(),
        });
        (results, trace)
    }

    /// [`World::run`] with the default cost model.
    pub fn run_default<R, F>(n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&Communicator) -> R + Send + Sync,
    {
        Self::run(n, CostModel::default(), f)
    }
}

#[cfg(test)]
mod tests;
