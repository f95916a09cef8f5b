//! Deterministic telemetry for the SPMD runtime.
//!
//! Every send, receive, and collective on a traced world reports into a
//! per-rank [`TraceRecorder`]: phase-scoped counters (message counts, wire
//! bytes, collective class, virtual time, locally counted flops) plus a
//! structured event journal in per-rank program order. Because matching is
//! `(source, tag)` FIFO and every fault decision is a pure function of the
//! seed and message identity, the journal is a deterministic function of
//! the program — independent of thread scheduling — so two identical-seed
//! runs produce **byte-identical** canonical traces.
//!
//! The merged [`WorldTrace`] pins the communication-structure claims of the
//! paper as testable invariants (see `tests/conformance.rs` at the
//! workspace root):
//!
//! * §3.1.1 — one neighbor exchange per `E_{i,j}` block;
//! * Algorithms 1–2 — gather/scatter traffic rooted only at elected
//!   masters;
//! * §3.2 — zero `v`-variant (`O(N)`) collectives inside the Krylov loop,
//!   `O(log N)`-bounded message counts for equal-count collectives;
//! * index-free assembly — slave message volumes matching the
//!   `|O_i| + ν_i² + Σ_{j∈O_i} ν_i ν_j` closed form.
//!
//! Two serializations exist: [`WorldTrace::to_json`] (full, includes
//! virtual-time measurements which depend on host CPU timing) and
//! [`WorldTrace::canonical_json`] (the deterministic subset — structure,
//! counts, bytes, flops — used for exact-match golden tests and
//! nondeterminism detection).

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;

/// Scaling class of a collective (§3.2): equal-count collectives use tree
/// algorithms (`O(log N)` messages), the `v`-variants degrade to `O(N)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CollClass {
    /// Equal counts per rank (`MPI_Gather`, `MPI_Allreduce`, …).
    EqualCount,
    /// Varying counts (`MPI_Gatherv`, `MPI_Scatterv`).
    Varying,
}

impl CollClass {
    fn as_str(self) -> &'static str {
        match self {
            CollClass::EqualCount => "eq",
            CollClass::Varying => "v",
        }
    }
}

/// One journal entry. `Send`/`Recv` peers and collective roots are **world**
/// ranks (stable across `Communicator::split`).
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    Send {
        /// Destination world rank.
        dest: usize,
        tag: u64,
        bytes: u64,
    },
    Recv {
        /// Source world rank.
        src: usize,
        tag: u64,
        bytes: u64,
    },
    Collective {
        /// Operation name (`"gather"`, `"allreduce"`, …).
        op: &'static str,
        class: CollClass,
        /// Interned label of the communicator (see [`RankTrace::comm_labels`]).
        comm: u16,
        /// Size of the communicator the call ran on.
        size: u32,
        /// Root's world rank, for rooted collectives.
        root: Option<u32>,
        /// Payload bytes contributed by this rank.
        bytes: u64,
        /// Modeled message count of the collective: `⌈log₂ p⌉` for
        /// equal-count trees, `p − 1` for the linear `v`-variants.
        msgs: u32,
    },
    /// A Krylov iteration boundary (recorded via the solver's
    /// `InnerProduct::on_iteration` hook).
    Iteration { k: u32 },
}

/// One recorded event: per-rank sequence number, phase id, payload.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    pub seq: u64,
    /// Index into [`RankTrace::phases`].
    pub phase: u16,
    pub kind: EventKind,
}

/// Phase-scoped counters of one rank.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseCounters {
    /// Point-to-point messages sent / payload bytes.
    pub sends: u64,
    pub send_bytes: u64,
    /// Point-to-point messages received / payload bytes.
    pub recvs: u64,
    pub recv_bytes: u64,
    /// Equal-count collective calls.
    pub collectives_eq: u64,
    /// `v`-variant collective calls.
    pub collectives_v: u64,
    /// Payload bytes contributed to collectives.
    pub collective_bytes: u64,
    /// Modeled messages of all collective calls (see
    /// [`EventKind::Collective::msgs`]).
    pub collective_msgs: u64,
    /// Fault-injected delivery retries observed while receiving.
    pub retries: u64,
    /// Locally counted floating-point operations (explicitly charged by
    /// the application; deterministic, unlike CPU-time measurements).
    pub flops: u64,
    /// Virtual seconds spent in the phase (compute + modeled comm). NOT
    /// part of the canonical serialization: thread-CPU measurements vary
    /// run to run.
    pub t_virtual: f64,
}

impl PhaseCounters {
    /// Element-wise accumulation (for cross-rank totals).
    pub fn absorb(&mut self, o: &PhaseCounters) {
        self.sends += o.sends;
        self.send_bytes += o.send_bytes;
        self.recvs += o.recvs;
        self.recv_bytes += o.recv_bytes;
        self.collectives_eq += o.collectives_eq;
        self.collectives_v += o.collectives_v;
        self.collective_bytes += o.collective_bytes;
        self.collective_msgs += o.collective_msgs;
        self.retries += o.retries;
        self.flops += o.flops;
        self.t_virtual = self.t_virtual.max(o.t_virtual);
    }
}

/// Per-rank recorder, shared (within the rank's thread) by a communicator
/// and everything split from it. A disabled recorder costs one branch per
/// operation and records nothing.
pub struct TraceRecorder {
    enabled: bool,
    seq: Cell<u64>,
    cur_phase: Cell<u16>,
    phase_enter: Cell<f64>,
    phases: RefCell<Vec<(String, PhaseCounters)>>,
    comm_labels: RefCell<Vec<String>>,
    events: RefCell<Vec<TraceEvent>>,
}

impl TraceRecorder {
    /// A recorder; when `enabled` is false every hook is a no-op.
    pub fn new(enabled: bool) -> Self {
        TraceRecorder {
            enabled,
            seq: Cell::new(0),
            cur_phase: Cell::new(0),
            phase_enter: Cell::new(0.0),
            phases: RefCell::new(vec![("init".to_string(), PhaseCounters::default())]),
            comm_labels: RefCell::new(Vec::new()),
            events: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Intern a communicator label, returning its id.
    pub fn intern_label(&self, label: &str) -> u16 {
        let mut labels = self.comm_labels.borrow_mut();
        if let Some(i) = labels.iter().position(|l| l == label) {
            return i as u16;
        }
        labels.push(label.to_string());
        (labels.len() - 1) as u16
    }

    /// Name of the phase currently being recorded (`"init"` before the
    /// first [`TraceRecorder::set_phase`]). Tracked even on disabled
    /// recorders so error classification can name the phase a fault
    /// surfaced in. Lets scoped instrumentation restore the caller's
    /// phase without threading it through every call site.
    pub fn current_phase(&self) -> String {
        self.phases.borrow()[self.cur_phase.get() as usize]
            .0
            .clone()
    }

    /// Allocation-free view of the current phase name, for per-message
    /// checks on the send path (corruption specs match on trace phase).
    pub fn with_phase_name<R>(&self, f: impl FnOnce(&str) -> R) -> R {
        f(&self.phases.borrow()[self.cur_phase.get() as usize].0)
    }

    /// Close the current phase (attributing `now − enter` virtual seconds
    /// to it) and enter `name`. Re-entering a previously seen phase name
    /// resumes its counters.
    pub fn set_phase(&self, name: &str, now: f64) {
        let mut phases = self.phases.borrow_mut();
        if self.enabled {
            let cur = self.cur_phase.get() as usize;
            phases[cur].1.t_virtual += now - self.phase_enter.get();
        }
        let id = match phases.iter().position(|(n, _)| n == name) {
            Some(i) => i,
            None => {
                phases.push((name.to_string(), PhaseCounters::default()));
                phases.len() - 1
            }
        };
        self.cur_phase.set(id as u16);
        self.phase_enter.set(now);
    }

    fn push_event(&self, kind: EventKind) {
        let seq = self.seq.get();
        self.seq.set(seq + 1);
        self.events.borrow_mut().push(TraceEvent {
            seq,
            phase: self.cur_phase.get(),
            kind,
        });
    }

    fn with_cur<F: FnOnce(&mut PhaseCounters)>(&self, f: F) {
        let mut phases = self.phases.borrow_mut();
        let cur = self.cur_phase.get() as usize;
        f(&mut phases[cur].1);
    }

    pub fn on_send(&self, dest_world: usize, tag: u64, bytes: usize) {
        if !self.enabled {
            return;
        }
        self.with_cur(|c| {
            c.sends += 1;
            c.send_bytes += bytes as u64;
        });
        self.push_event(EventKind::Send {
            dest: dest_world,
            tag,
            bytes: bytes as u64,
        });
    }

    pub fn on_recv(&self, src_world: usize, tag: u64, bytes: usize) {
        if !self.enabled {
            return;
        }
        self.with_cur(|c| {
            c.recvs += 1;
            c.recv_bytes += bytes as u64;
        });
        self.push_event(EventKind::Recv {
            src: src_world,
            tag,
            bytes: bytes as u64,
        });
    }

    pub fn on_retry(&self) {
        if !self.enabled {
            return;
        }
        self.with_cur(|c| c.retries += 1);
    }

    #[allow(clippy::too_many_arguments)]
    pub fn on_collective(
        &self,
        op: &'static str,
        class: CollClass,
        comm: u16,
        size: usize,
        root_world: Option<usize>,
        bytes: usize,
        msgs: u32,
    ) {
        if !self.enabled {
            return;
        }
        self.with_cur(|c| {
            match class {
                CollClass::EqualCount => c.collectives_eq += 1,
                CollClass::Varying => c.collectives_v += 1,
            }
            c.collective_bytes += bytes as u64;
            c.collective_msgs += msgs as u64;
        });
        self.push_event(EventKind::Collective {
            op,
            class,
            comm,
            size: size as u32,
            root: root_world.map(|r| r as u32),
            bytes: bytes as u64,
            msgs,
        });
    }

    pub fn on_iteration(&self, k: usize) {
        if !self.enabled {
            return;
        }
        self.push_event(EventKind::Iteration { k: k as u32 });
    }

    /// Charge explicitly counted flops to the current phase.
    pub fn charge_flops(&self, n: u64) {
        if !self.enabled {
            return;
        }
        self.with_cur(|c| c.flops += n);
    }

    /// Finalize into a per-rank trace (closes the open phase at `now`).
    pub fn finish(&self, rank: usize, now: f64) -> RankTrace {
        let mut phases = self.phases.borrow_mut();
        if self.enabled {
            let cur = self.cur_phase.get() as usize;
            phases[cur].1.t_virtual += now - self.phase_enter.get();
        }
        self.phase_enter.set(now);
        RankTrace {
            rank,
            phases: phases.clone(),
            comm_labels: self.comm_labels.borrow().clone(),
            events: self.events.borrow().clone(),
        }
    }
}

/// The finished trace of one rank.
#[derive(Clone, Debug)]
pub struct RankTrace {
    pub rank: usize,
    /// Phases in first-entered order.
    pub phases: Vec<(String, PhaseCounters)>,
    /// Communicator labels referenced by [`EventKind::Collective::comm`].
    pub comm_labels: Vec<String>,
    /// Journal in program order.
    pub events: Vec<TraceEvent>,
}

impl RankTrace {
    pub fn phase(&self, name: &str) -> Option<&PhaseCounters> {
        self.phases.iter().find(|(n, _)| n == name).map(|(_, c)| c)
    }

    pub fn phase_name(&self, id: u16) -> &str {
        &self.phases[id as usize].0
    }

    pub fn comm_label(&self, id: u16) -> &str {
        &self.comm_labels[id as usize]
    }
}

/// The merged, deterministic trace of a traced world: per-rank journals in
/// rank order.
#[derive(Clone, Debug)]
pub struct WorldTrace {
    pub ranks: Vec<RankTrace>,
}

impl WorldTrace {
    pub fn n_ranks(&self) -> usize {
        self.ranks.len()
    }

    /// Names of all phases, in rank-0-first first-seen order.
    pub fn phase_names(&self) -> Vec<String> {
        let mut names: Vec<String> = Vec::new();
        for r in &self.ranks {
            for (n, _) in &r.phases {
                if !names.iter().any(|x| x == n) {
                    names.push(n.clone());
                }
            }
        }
        names
    }

    /// Counters of `phase` accumulated over ranks (times take the max —
    /// the modeled parallel time; counts and bytes sum).
    pub fn phase_totals(&self, phase: &str) -> PhaseCounters {
        let mut total = PhaseCounters::default();
        for r in &self.ranks {
            if let Some(c) = r.phase(phase) {
                total.absorb(c);
            }
        }
        total
    }

    /// All events recorded in `phase`, as `(rank, event)` in (rank, seq)
    /// order.
    pub fn events_in_phase<'a>(&'a self, phase: &str) -> Vec<(usize, &'a TraceEvent)> {
        let mut out = Vec::new();
        for r in &self.ranks {
            let Some(id) = r.phases.iter().position(|(n, _)| n == phase) else {
                continue;
            };
            let id = id as u16;
            out.extend(
                r.events
                    .iter()
                    .filter(|e| e.phase == id)
                    .map(|e| (r.rank, e)),
            );
        }
        out
    }

    /// Collectives each rank issued in `phase` on the communicator labelled
    /// `label` (`"world"`, a split's label, …), indexed by rank.
    pub fn collectives_on(&self, phase: &str, label: &str) -> Vec<usize> {
        let mut per_rank = vec![0; self.ranks.len()];
        for (rank, e) in self.events_in_phase(phase) {
            if let EventKind::Collective { comm, .. } = e.kind {
                if self.ranks[rank].comm_label(comm) == label {
                    per_rank[rank] += 1;
                }
            }
        }
        per_rank
    }

    /// Full JSON, including run-dependent virtual-time measurements.
    pub fn to_json(&self) -> String {
        self.serialize(true)
    }

    /// Deterministic JSON: structure, counts, bytes, and flops only —
    /// byte-identical across identical-seed runs. Use for golden-trace
    /// exact-match tests and for diffing comm-pattern changes.
    pub fn canonical_json(&self) -> String {
        self.serialize(false)
    }

    fn serialize(&self, with_time: bool) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"version\": 1,");
        let _ = writeln!(s, "  \"n_ranks\": {},", self.ranks.len());
        s.push_str("  \"ranks\": [\n");
        for (ri, r) in self.ranks.iter().enumerate() {
            s.push_str("    {\n");
            let _ = writeln!(s, "      \"rank\": {},", r.rank);
            s.push_str("      \"phases\": [\n");
            for (pi, (name, c)) in r.phases.iter().enumerate() {
                let _ = write!(
                    s,
                    "        {{\"name\": {:?}, \"sends\": {}, \"send_bytes\": {}, \
                     \"recvs\": {}, \"recv_bytes\": {}, \"collectives_eq\": {}, \
                     \"collectives_v\": {}, \"collective_bytes\": {}, \
                     \"collective_msgs\": {}, \"retries\": {}, \"flops\": {}",
                    name,
                    c.sends,
                    c.send_bytes,
                    c.recvs,
                    c.recv_bytes,
                    c.collectives_eq,
                    c.collectives_v,
                    c.collective_bytes,
                    c.collective_msgs,
                    c.retries,
                    c.flops,
                );
                if with_time {
                    let _ = write!(s, ", \"t_virtual\": {:e}", c.t_virtual);
                }
                s.push('}');
                s.push_str(if pi + 1 < r.phases.len() { ",\n" } else { "\n" });
            }
            s.push_str("      ],\n");
            let _ = writeln!(
                s,
                "      \"comm_labels\": [{}],",
                r.comm_labels
                    .iter()
                    .map(|l| format!("{l:?}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            s.push_str("      \"events\": [\n");
            for (ei, e) in r.events.iter().enumerate() {
                let _ = write!(
                    s,
                    "        {{\"seq\": {}, \"phase\": {:?}, ",
                    e.seq,
                    r.phase_name(e.phase)
                );
                match &e.kind {
                    EventKind::Send { dest, tag, bytes } => {
                        let _ = write!(
                            s,
                            "\"kind\": \"send\", \"dest\": {dest}, \"tag\": {tag}, \
                             \"bytes\": {bytes}"
                        );
                    }
                    EventKind::Recv { src, tag, bytes } => {
                        let _ = write!(
                            s,
                            "\"kind\": \"recv\", \"src\": {src}, \"tag\": {tag}, \
                             \"bytes\": {bytes}"
                        );
                    }
                    EventKind::Collective {
                        op,
                        class,
                        comm,
                        size,
                        root,
                        bytes,
                        msgs,
                    } => {
                        let root = match root {
                            Some(r) => r.to_string(),
                            None => "null".to_string(),
                        };
                        let _ = write!(
                            s,
                            "\"kind\": \"collective\", \"op\": {:?}, \"class\": {:?}, \
                             \"comm\": {:?}, \"size\": {size}, \"root\": {root}, \
                             \"bytes\": {bytes}, \"msgs\": {msgs}",
                            op,
                            class.as_str(),
                            r.comm_label(*comm),
                        );
                    }
                    EventKind::Iteration { k } => {
                        let _ = write!(s, "\"kind\": \"iteration\", \"k\": {k}");
                    }
                }
                s.push('}');
                s.push_str(if ei + 1 < r.events.len() { ",\n" } else { "\n" });
            }
            s.push_str("      ]\n");
            s.push_str(if ri + 1 < self.ranks.len() {
                "    },\n"
            } else {
                "    }\n"
            });
        }
        s.push_str("  ]\n}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_recorder() -> TraceRecorder {
        let t = TraceRecorder::new(true);
        let world = t.intern_label("world");
        t.on_send(1, 7, 16);
        t.set_phase("work", 1.0);
        t.on_recv(1, 7, 16);
        t.on_collective("gather", CollClass::EqualCount, world, 4, Some(0), 8, 2);
        t.on_collective("gatherv", CollClass::Varying, world, 4, Some(0), 24, 3);
        t.on_iteration(1);
        t.charge_flops(1000);
        t
    }

    #[test]
    fn counters_are_phase_scoped() {
        let r = sample_recorder().finish(0, 2.5);
        let init = r.phase("init").unwrap();
        assert_eq!(init.sends, 1);
        assert_eq!(init.send_bytes, 16);
        assert_eq!(init.recvs, 0);
        assert!((init.t_virtual - 1.0).abs() < 1e-12);
        let work = r.phase("work").unwrap();
        assert_eq!(work.recvs, 1);
        assert_eq!(work.collectives_eq, 1);
        assert_eq!(work.collectives_v, 1);
        assert_eq!(work.collective_bytes, 32);
        assert_eq!(work.collective_msgs, 5);
        assert_eq!(work.flops, 1000);
        assert!((work.t_virtual - 1.5).abs() < 1e-12);
    }

    #[test]
    fn events_in_program_order_with_phases() {
        let r = sample_recorder().finish(3, 2.0);
        assert_eq!(r.rank, 3);
        assert_eq!(r.events.len(), 5);
        for (i, e) in r.events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
        assert_eq!(r.phase_name(r.events[0].phase), "init");
        assert_eq!(r.phase_name(r.events[1].phase), "work");
        assert!(matches!(r.events[4].kind, EventKind::Iteration { k: 1 }));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let t = TraceRecorder::new(false);
        t.on_send(1, 7, 16);
        t.set_phase("work", 1.0);
        t.charge_flops(5);
        // Phase *names* are tracked even when disabled so error
        // classification can name the current phase...
        assert_eq!(t.current_phase(), "work");
        let r = t.finish(0, 2.0);
        // ...but no events, counters, or virtual time are attributed.
        assert!(r.events.is_empty());
        assert!(r
            .phases
            .iter()
            .all(|(_, c)| c.sends == 0 && c.flops == 0 && c.t_virtual == 0.0));
    }

    #[test]
    fn reentering_a_phase_resumes_counters() {
        let t = TraceRecorder::new(true);
        t.set_phase("a", 0.0);
        t.on_send(0, 0, 8);
        t.set_phase("b", 1.0);
        t.set_phase("a", 3.0);
        t.on_send(0, 0, 8);
        let r = t.finish(0, 4.0);
        let a = r.phase("a").unwrap();
        assert_eq!(a.sends, 2);
        assert!((a.t_virtual - 2.0).abs() < 1e-12);
        assert_eq!(r.phases.len(), 3); // init, a, b
    }

    #[test]
    fn canonical_json_is_deterministic_and_time_free() {
        let a = WorldTrace {
            ranks: vec![sample_recorder().finish(0, 2.0)],
        };
        let b = WorldTrace {
            ranks: vec![sample_recorder().finish(0, 9.9)], // different timing
        };
        let ja = a.canonical_json();
        assert_eq!(ja, b.canonical_json(), "timing must not leak");
        assert!(!ja.contains("t_virtual"));
        assert!(a.to_json().contains("t_virtual"));
        // diffable: one event per line
        assert!(ja.lines().filter(|l| l.contains("\"kind\"")).count() == 5);
    }

    #[test]
    fn phase_totals_sum_counts_and_max_times() {
        let w = WorldTrace {
            ranks: vec![
                sample_recorder().finish(0, 2.0),
                sample_recorder().finish(1, 3.0),
            ],
        };
        let tot = w.phase_totals("work");
        assert_eq!(tot.collectives_eq, 2);
        assert_eq!(tot.collective_bytes, 64);
        assert!((tot.t_virtual - 2.0).abs() < 1e-12); // max(1.0, 2.0)
        assert_eq!(w.events_in_phase("work").len(), 8);
        assert_eq!(w.collectives_on("work", "world"), vec![2, 2]);
        assert_eq!(w.collectives_on("init", "world"), vec![0, 0]);
        assert_eq!(w.collectives_on("work", "split"), vec![0, 0]);
        assert_eq!(w.phase_names(), vec!["init", "work"]);
    }
}
