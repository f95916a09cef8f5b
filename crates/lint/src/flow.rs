//! The five flow-aware rules the string scanner could not express.
//!
//! All five work over [`crate::model::FileModel`] plus a workspace-wide
//! call graph ([`Workspace`]): intra-procedural control flow (branches,
//! loops, `let` taint) with one inter-procedural fact — the transitive
//! *collective footprint* of every workspace function — resolved by
//! unique name. That is deliberately modest: the SPMD invariants being
//! checked are structural (which collectives run on which control paths),
//! not semantic, and identifier-level resolution over one workspace is
//! both sound enough to find real divergence and simple enough to stay
//! predictable.
//!
//! * **collective-divergence** — a collective reachable under a
//!   rank-dependent condition without a matching collective on the other
//!   paths. The legal masters idiom (`if let Some(master) = master_comm {
//!   master.try_gather(…) }`) is carved out precisely: collectives whose
//!   receiver is bound *by the condition itself* run on the
//!   sub-communicator whose membership the condition tests.
//! * **lock-order** — the static `SyncMutex` acquisition graph: cycles
//!   between differently-named locks, and blocking comm calls while a
//!   guard is live (a parked rank holding a lock is invisible to the α–β
//!   model and can deadlock the world).
//! * **warm-loop-alloc** — allocating calls inside `// dd:hot` regions,
//!   statically enforcing PR 8's zero-alloc warm-iteration contract.
//! * **wallclock-taint** — values originating from `Instant`/`SystemTime`
//!   flowing into virtual-time or tag computations (nondeterminism the
//!   `wallclock` rule's site ban cannot see once a value crosses a `let`).
//! * **epoch-tag** — raw integer tags on `send`/`recv` that bypass the
//!   named-constant + epoch-salting discipline.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use crate::lexer::TokKind;
use crate::model::{Call, FileModel, FnItem};
use crate::Finding;

/// Collective operations: every rank of the communicator must call them
/// in the same order. Each is a `pub fn` of `impl Communicator` in
/// `dd-comm` (a unit test below reads `comm.rs` to hold the list to that).
pub const COLLECTIVES: [&str; 14] = [
    "barrier",
    "try_barrier",
    "try_gather",
    "try_gatherv",
    "try_scatter",
    "try_allgather",
    "allreduce_sum",
    "try_allreduce_sum",
    "try_allreduce_sum_vec",
    "try_allreduce_max_usize",
    "iallreduce_sum_vec",
    "wait_reduce",
    "try_split",
    "try_shrink",
];

/// Blocking comm calls that must not run while a `SyncMutex` guard is
/// live. (Condvar waits are exempt by construction: `wait_timeout`
/// releases the guard.) Held to `impl Communicator` like
/// [`COLLECTIVES`].
const BLOCKING_COMM: [&str; 14] = [
    "recv",
    "try_recv_timeout",
    "barrier",
    "try_barrier",
    "try_gather",
    "try_gatherv",
    "try_scatter",
    "try_allgather",
    "allreduce_sum",
    "try_allreduce_sum",
    "try_allreduce_sum_vec",
    "try_allreduce_max_usize",
    "wait_reduce",
    "try_shrink",
];

/// Crates analyzed by the flow rules (the SPMD runtime).
const RUNTIME_CRATES: [&str; 5] = [
    "crates/comm/src/",
    "crates/core/src/",
    "crates/solver/src/",
    "crates/serve/src/",
    "crates/krylov/src/",
];

fn in_runtime(path: &str) -> bool {
    RUNTIME_CRATES.iter().any(|p| path.contains(p))
}

fn finding(rule: &'static str, m: &FileModel, tok: usize, witness: String) -> Finding {
    let line = m.line_of(tok);
    Finding {
        rule,
        path: m.path.clone(),
        line,
        snippet: m.raw_line(line).trim().to_string(),
        witness,
        fingerprint: String::new(),
    }
}

fn fn_key(f: &FnItem) -> String {
    match &f.owner {
        Some(o) => format!("{o}::{}", f.name),
        None => f.name.clone(),
    }
}

// ---------------------------------------------------------------------------
// Workspace call graph
// ---------------------------------------------------------------------------

/// Transitive collective footprint of one function: collective name →
/// one witness call path.
type Footprint = BTreeMap<String, Vec<String>>;

/// Workspace-wide facts: for every function, its transitive collective
/// footprint (set of collective names plus one witness call path each).
pub struct Workspace {
    /// name → indices of fns with that bare name (across all files).
    by_name: HashMap<String, Vec<(usize, usize)>>,
    /// Memoized per-(file, fn) transitive footprints.
    footprints: Vec<Vec<Option<Footprint>>>,
}

impl Workspace {
    pub fn build(files: &[FileModel]) -> Self {
        let mut by_name: HashMap<String, Vec<(usize, usize)>> = HashMap::new();
        for (fi, m) in files.iter().enumerate() {
            for (gi, f) in m.fns.iter().enumerate() {
                by_name.entry(f.name.clone()).or_default().push((fi, gi));
            }
        }
        let footprints = files.iter().map(|m| vec![None; m.fns.len()]).collect();
        Workspace {
            by_name,
            footprints,
        }
    }

    /// Transitive collective footprint of fn `gi` in file `fi`:
    /// collective name → witness call path (fn names walked through).
    fn footprint(
        &mut self,
        files: &[FileModel],
        fi: usize,
        gi: usize,
        visiting: &mut HashSet<(usize, usize)>,
    ) -> Footprint {
        if let Some(done) = &self.footprints[fi][gi] {
            return done.clone();
        }
        if !visiting.insert((fi, gi)) {
            return BTreeMap::new(); // recursion cycle
        }
        let m = &files[fi];
        let f = &m.fns[gi];
        let mut out = BTreeMap::new();
        if let Some(body) = f.body {
            for c in m.calls_in(body) {
                if c.is_method && COLLECTIVES.contains(&c.name.as_str()) {
                    out.entry(c.name.clone()).or_insert_with(Vec::new);
                } else if !c.is_macro {
                    // Resolve by unique bare name only — ambiguity means
                    // no propagation, keeping the graph predictable.
                    if let Some(targets) = self.by_name.get(&c.name) {
                        if targets.len() == 1 {
                            let (tfi, tgi) = targets[0];
                            if (tfi, tgi) != (fi, gi) {
                                for (name, mut path) in self.footprint(files, tfi, tgi, visiting) {
                                    path.insert(0, files[tfi].fns[tgi].name.clone());
                                    out.entry(name).or_insert(path);
                                }
                            }
                        }
                    }
                }
            }
        }
        visiting.remove(&(fi, gi));
        self.footprints[fi][gi] = Some(out.clone());
        out
    }

    /// Collective footprint of an arbitrary token range inside file `fi`
    /// (direct collectives plus resolved unique-name calls), skipping
    /// calls whose receiver or arguments mention one of `exempt` — the
    /// if-let sub-communicator carve-out.
    fn range_footprint(
        &mut self,
        files: &[FileModel],
        fi: usize,
        range: (usize, usize),
        exempt: &[String],
    ) -> Footprint {
        let mut out = BTreeMap::new();
        let calls: Vec<Call> = files[fi].calls_in(range);
        for c in calls {
            let touches_exempt = c.recv.iter().any(|r| exempt.contains(r))
                || c.args.iter().any(|&(a, b)| {
                    (a..=b.min(files[fi].toks.len().saturating_sub(1))).any(|i| {
                        files[fi].toks[i].kind == TokKind::Ident
                            && exempt.contains(&files[fi].toks[i].text)
                    })
                });
            if touches_exempt {
                continue;
            }
            if c.is_method && COLLECTIVES.contains(&c.name.as_str()) {
                out.entry(c.name.clone()).or_insert_with(Vec::new);
            } else if !c.is_macro {
                if let Some(targets) = self.by_name.get(&c.name) {
                    if targets.len() == 1 {
                        let (tfi, tgi) = targets[0];
                        let mut visiting = HashSet::new();
                        for (name, mut path) in self.footprint(files, tfi, tgi, &mut visiting) {
                            path.insert(0, files[tfi].fns[tgi].name.clone());
                            out.entry(name).or_insert(path);
                        }
                    }
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Rank taint
// ---------------------------------------------------------------------------

/// Identifiers that carry rank-dependent values in a fn body: seeded by
/// `.rank()` / `.world_rank()` / `.is_joiner()` calls and the `is_master`
/// convention, propagated through `let` chains to a fixpoint.
pub fn rank_tainted(m: &FileModel, body: (usize, usize)) -> HashSet<String> {
    let lets = m.lets_in(body);
    let mut tainted: HashSet<String> = HashSet::new();
    for _ in 0..10 {
        let mut changed = false;
        for (idents, rhs) in &lets {
            if idents.iter().all(|i| tainted.contains(i)) {
                continue;
            }
            if range_rank_dep(m, *rhs, &tainted) {
                for i in idents {
                    changed |= tainted.insert(i.clone());
                }
            }
        }
        if !changed {
            break;
        }
    }
    tainted
}

/// Does the token range read a rank fact (directly or through taint)?
fn range_rank_dep(m: &FileModel, range: (usize, usize), tainted: &HashSet<String>) -> bool {
    let end = range.1.min(m.toks.len().saturating_sub(1));
    for i in range.0..=end {
        let t = &m.toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        match t.text.as_str() {
            // A *call* to rank()/world_rank()/is_joiner() — identifier
            // followed by `(` — or the is_master naming convention.
            "rank" | "world_rank" | "is_joiner"
                if m.toks.get(i + 1).is_some_and(|n| n.is_open('(')) =>
            {
                return true;
            }
            "is_master" => return true,
            _ => {}
        }
        // A field or path segment (`opts.geneo`, `cfg::me`) is not the
        // tainted local of the same name.
        let segment = i > 0 && (m.toks[i - 1].is_punct(".") || m.toks[i - 1].is_punct("::"));
        if !segment && tainted.contains(&t.text) {
            return true;
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Rule: collective-divergence
// ---------------------------------------------------------------------------

fn footprint_diff(a: &Footprint, b: &Footprint) -> Vec<String> {
    let ka: BTreeSet<&String> = a.keys().collect();
    let kb: BTreeSet<&String> = b.keys().collect();
    ka.symmetric_difference(&kb)
        .map(|s| {
            let (src, path) = if ka.contains(*s) {
                ("then", a.get(*s))
            } else {
                ("else", b.get(*s))
            };
            match path {
                Some(p) if !p.is_empty() => format!("{s} ({src}, via {})", p.join(" → ")),
                _ => format!("{s} ({src})"),
            }
        })
        .collect()
}

/// Rule `collective-divergence`: see module docs.
pub fn rule_collective_divergence(files: &[FileModel], ws: &mut Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    for (fi, m) in files.iter().enumerate() {
        if !in_runtime(&m.path) {
            continue;
        }
        for f in &m.fns {
            let Some(body) = f.body else { continue };
            if m.in_test(f.fn_tok) {
                continue;
            }
            let tainted = rank_tainted(m, body);
            // if/else divergence.
            for iff in m.ifs_in(body) {
                if !range_rank_dep(m, iff.cond, &tainted) {
                    continue;
                }
                let then_fp = ws.range_footprint(files, fi, iff.then_body, &iff.bindings);
                let else_fp = match iff.else_body {
                    Some(e) => ws.range_footprint(files, fi, e, &iff.bindings),
                    None => BTreeMap::new(),
                };
                let diff = footprint_diff(&then_fp, &else_fp);
                if !diff.is_empty() {
                    let w = format!(
                        "{}: rank-dependent `if` at line {} diverges on [{}]",
                        fn_key(f),
                        iff.line,
                        diff.join(", ")
                    );
                    out.push(finding("collective-divergence", m, iff.tok, w));
                }
            }
            // match-arm divergence.
            for ms in m.matches_in(body) {
                if !range_rank_dep(m, ms.scrutinee, &tainted) {
                    continue;
                }
                let fps: Vec<Footprint> = ms
                    .arms
                    .iter()
                    .map(|(_, body, bindings)| ws.range_footprint(files, fi, *body, bindings))
                    .collect();
                for pair in fps.windows(2) {
                    let diff = footprint_diff(&pair[0], &pair[1]);
                    if !diff.is_empty() {
                        let w = format!(
                            "{}: rank-dependent `match` at line {} diverges on [{}]",
                            fn_key(f),
                            ms.line,
                            diff.join(", ")
                        );
                        out.push(finding("collective-divergence", m, ms.tok, w));
                        break;
                    }
                }
            }
            // Loop-count divergence: a collective inside a loop whose
            // condition/range is rank-dependent runs a rank-dependent
            // number of times.
            for (i, t) in m.toks.iter().enumerate().take(body.1 + 1).skip(body.0) {
                if !(t.is_ident("while") || t.is_ident("for")) {
                    continue;
                }
                let Some(open) = (i + 1..=body.1).find(|&j| m.toks[j].is_open('{')) else {
                    continue;
                };
                // Header = tokens between keyword and the body brace,
                // conservatively (jumping groups is handled by ifs_in's
                // block_after; a `{` inside header parens is rare here).
                let header = (i + 1, open.saturating_sub(1));
                let close = m.close_of[open];
                if close == usize::MAX || close > body.1 {
                    continue;
                }
                if !range_rank_dep(m, header, &tainted) {
                    continue;
                }
                let fp = ws.range_footprint(files, fi, (open, close), &[]);
                if !fp.is_empty() {
                    let names: Vec<&String> = fp.keys().collect();
                    let w = format!(
                        "{}: collective(s) [{}] inside rank-dependent loop at line {}",
                        fn_key(f),
                        names
                            .iter()
                            .map(|s| s.as_str())
                            .collect::<Vec<_>>()
                            .join(", "),
                        t.line
                    );
                    out.push(finding("collective-divergence", m, i, w));
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rule: lock-order
// ---------------------------------------------------------------------------

/// One lock acquisition with its lexical liveness range.
struct Acq {
    name: String,
    tok: usize,
    live: (usize, usize),
}

/// Lexical acquisitions in a fn body. A guard bound by `let` lives to
/// the end of the innermost enclosing block (or to an explicit
/// `drop(guard)`); a temporary guard lives to the end of its statement.
fn acquisitions(m: &FileModel, body: (usize, usize)) -> Vec<Acq> {
    let lets = m.lets_in(body);
    let calls = m.calls_in(body);
    let mut out = Vec::new();
    for c in &calls {
        if !(c.is_method && c.name == "lock" && !c.recv.is_empty()) {
            continue;
        }
        let name = c.recv.last().cloned().unwrap_or_default();
        if name.is_empty() {
            continue;
        }
        // Guard binding?
        let binding = lets
            .iter()
            .find(|(_, rhs)| rhs.0 <= c.tok && c.tok <= rhs.1)
            .and_then(|(ids, _)| ids.first().cloned());
        let live_end = match binding {
            Some(guard) => {
                // Innermost block containing the acquisition.
                let block_end = innermost_block_end(m, c.tok, body);
                // An explicit drop(guard) ends liveness early.
                calls
                    .iter()
                    .find(|d| {
                        d.name == "drop"
                            && d.tok > c.tok
                            && d.tok <= block_end
                            && d.args
                                .iter()
                                .any(|&(a, b)| (a..=b).any(|i| m.toks[i].is_ident(&guard)))
                    })
                    .map_or(block_end, |d| d.tok)
            }
            None => m.stmt_end(c.tok, body.1),
        };
        out.push(Acq {
            name,
            tok: c.tok,
            live: (c.tok, live_end),
        });
    }
    out
}

fn innermost_block_end(m: &FileModel, tok: usize, body: (usize, usize)) -> usize {
    let mut best = body.1;
    let mut best_len = body.1.saturating_sub(body.0);
    for i in body.0..=tok {
        if m.toks[i].is_open('{') {
            let c = m.close_of[i];
            if c != usize::MAX && c >= tok && c <= body.1 && c - i < best_len {
                best = c;
                best_len = c - i;
            }
        }
    }
    best
}

/// Rule `lock-order`: cycles in the static acquisition graph, and
/// blocking comm calls while a guard is live.
pub fn rule_lock_order(files: &[FileModel]) -> Vec<Finding> {
    let mut out = Vec::new();
    // name → name → (path, line) witness of the first edge site.
    let mut edges: BTreeMap<String, BTreeMap<String, (String, u32)>> = BTreeMap::new();
    for m in files {
        if !in_runtime(&m.path) || m.path.ends_with("comm/src/sync.rs") {
            continue;
        }
        for f in &m.fns {
            let Some(body) = f.body else { continue };
            if m.in_test(f.fn_tok) {
                continue;
            }
            let acqs = acquisitions(m, body);
            let calls = m.calls_in(body);
            for a in &acqs {
                // Nested acquisitions while `a` is live.
                for b in &acqs {
                    if b.tok > a.tok && b.tok <= a.live.1 && b.name != a.name {
                        edges
                            .entry(a.name.clone())
                            .or_default()
                            .entry(b.name.clone())
                            .or_insert((m.path.clone(), m.line_of(b.tok)));
                    }
                }
                // Blocking comm while `a` is live.
                for c in &calls {
                    if c.is_method
                        && BLOCKING_COMM.contains(&c.name.as_str())
                        && c.tok > a.tok
                        && c.tok <= a.live.1
                    {
                        let w = format!(
                            "{}: .{} while `{}` guard is live (acquired line {})",
                            fn_key(f),
                            c.name,
                            a.name,
                            m.line_of(a.tok)
                        );
                        out.push(finding("lock-order", m, c.tok, w));
                    }
                }
            }
        }
    }
    // Cycle detection over the name graph (DFS, reporting each cycle
    // once by its sorted node set).
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    let nodes: Vec<String> = edges.keys().cloned().collect();
    for start in &nodes {
        let mut stack = vec![(start.clone(), vec![start.clone()])];
        while let Some((node, path)) = stack.pop() {
            let Some(next) = edges.get(&node) else {
                continue;
            };
            for (to, site) in next {
                if to == start {
                    let mut key = path.clone();
                    key.sort();
                    if reported.insert(key) {
                        // Anchor the finding at the closing edge's site.
                        let (p, line) = site.clone();
                        let cycle = format!("{} → {start}", path.join(" → "));
                        out.push(Finding {
                            rule: "lock-order",
                            path: p.clone(),
                            line,
                            snippet: String::new(),
                            witness: format!("lock cycle: {cycle}"),
                            fingerprint: String::new(),
                        });
                    }
                } else if !path.contains(to) && path.len() < 6 {
                    let mut np = path.clone();
                    np.push(to.clone());
                    stack.push((to.clone(), np));
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rule: warm-loop-alloc
// ---------------------------------------------------------------------------

const ALLOC_PATHS: [(&str, &str); 6] = [
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Box", "new"),
    ("String", "new"),
    ("String", "with_capacity"),
    ("String", "from"),
];
const ALLOC_METHODS: [&str; 5] = ["to_vec", "to_owned", "to_string", "collect", "clone"];
const ALLOC_MACROS: [&str; 2] = ["vec", "format"];

/// Rule `warm-loop-alloc`: allocating calls inside `// dd:hot` regions.
pub fn rule_warm_loop_alloc(files: &[FileModel]) -> Vec<Finding> {
    let mut out = Vec::new();
    for m in files {
        let mut regions: Vec<((usize, usize), u32)> = m
            .hot_loops
            .iter()
            .map(|&(a, b)| ((a, b), m.line_of(a)))
            .collect();
        for f in &m.fns {
            if f.hot {
                if let Some(body) = f.body {
                    regions.push((body, f.line));
                }
            }
        }
        if regions.is_empty() {
            continue;
        }
        for &(region, at) in &regions {
            for c in m.calls_in(region) {
                if m.in_cold(c.tok) || m.in_test(c.tok) {
                    continue;
                }
                let is_alloc = ALLOC_PATHS.iter().any(|(ty, f)| {
                    c.path.len() >= 2
                        && c.path[c.path.len() - 2] == *ty
                        && c.path[c.path.len() - 1] == *f
                }) || (c.is_method
                    && ALLOC_METHODS.contains(&c.name.as_str())
                    && c.args.is_empty())
                    || (c.is_macro && ALLOC_MACROS.contains(&c.name.as_str()));
                if is_alloc {
                    let w = format!(
                        "{}: {} in hot region (line {at})",
                        fn_key(m.enclosing_fn(c.tok).unwrap_or(&FnItem {
                            name: "<top>".into(),
                            owner: None,
                            fn_tok: 0,
                            body: None,
                            line: 0,
                            is_test: false,
                            hot: false,
                        })),
                        c.display_name()
                    );
                    out.push(finding("warm-loop-alloc", m, c.tok, w));
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rule: wallclock-taint
// ---------------------------------------------------------------------------

/// Sinks that must never see wall-clock-derived values: the virtual
/// clock and tag/epoch computation.
const TIME_SINKS: [&str; 6] = [
    "advance",
    "advance_clock",
    "tag",
    "epoch_salt",
    "send",
    "recv",
];

fn range_has_time_source(m: &FileModel, range: (usize, usize), tainted: &HashSet<String>) -> bool {
    let end = range.1.min(m.toks.len().saturating_sub(1));
    for i in range.0..=end {
        let t = &m.toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        match t.text.as_str() {
            "Instant" | "SystemTime" => return true,
            "elapsed" | "duration_since" if m.toks.get(i + 1).is_some_and(|n| n.is_open('(')) => {
                return true;
            }
            _ => {}
        }
        if tainted.contains(&t.text) {
            return true;
        }
    }
    false
}

/// Rule `wallclock-taint`: wall-clock-derived values flowing into the
/// virtual clock or into tag/epoch computations.
pub fn rule_wallclock_taint(files: &[FileModel]) -> Vec<Finding> {
    let mut out = Vec::new();
    for m in files {
        if !in_runtime(&m.path) || m.path.ends_with("comm/src/time.rs") {
            continue;
        }
        for f in &m.fns {
            let Some(body) = f.body else { continue };
            if m.in_test(f.fn_tok) {
                continue;
            }
            // Taint fixpoint over lets, seeded by time sources.
            let lets = m.lets_in(body);
            let mut tainted: HashSet<String> = HashSet::new();
            for _ in 0..10 {
                let mut changed = false;
                for (idents, rhs) in &lets {
                    if idents.iter().all(|i| tainted.contains(i)) {
                        continue;
                    }
                    if range_has_time_source(m, *rhs, &tainted) {
                        for i in idents {
                            changed |= tainted.insert(i.clone());
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
            for c in m.calls_in(body) {
                if !TIME_SINKS.contains(&c.name.as_str()) {
                    continue;
                }
                for &arg in &c.args {
                    if range_has_time_source(m, arg, &tainted) {
                        let w = format!(
                            "{}: wall-clock value reaches {}",
                            fn_key(f),
                            c.display_name()
                        );
                        out.push(finding("wallclock-taint", m, c.tok, w));
                        break;
                    }
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rule: epoch-tag
// ---------------------------------------------------------------------------

/// Crates where point-to-point tags must be named constants (salted by
/// the epoch machinery), never raw integers. `dd-comm` itself is the
/// home of the salting constructors and is exempt.
const TAG_SCOPED: [&str; 4] = [
    "crates/core/src/",
    "crates/solver/src/",
    "crates/serve/src/",
    "crates/krylov/src/",
];

/// Rule `epoch-tag`: the tag argument of `send`/`recv`/
/// `try_recv_timeout` must mention at least one named identifier (a tag
/// constant or a salting helper) — a bare integer literal bypasses the
/// epoch-salting discipline and collides across epochs after a shrink
/// or grow.
pub fn rule_epoch_tag(files: &[FileModel]) -> Vec<Finding> {
    let mut out = Vec::new();
    for m in files {
        if !TAG_SCOPED.iter().any(|p| m.path.contains(p)) {
            continue;
        }
        for c in m.calls_in((0, m.toks.len().saturating_sub(1))) {
            if !c.is_method
                || !matches!(c.name.as_str(), "send" | "recv" | "try_recv_timeout")
                || m.in_test(c.tok)
            {
                continue;
            }
            let Some(&tag_arg) = c.args.get(1) else {
                continue;
            };
            let end = tag_arg.1.min(m.toks.len().saturating_sub(1));
            let has_ident = (tag_arg.0..=end).any(|i| m.toks[i].kind == TokKind::Ident);
            let has_num = (tag_arg.0..=end).any(|i| m.toks[i].kind == TokKind::Num);
            if has_num && !has_ident {
                let w = format!(
                    "{}: raw integer tag on .{}",
                    fn_key(m.enclosing_fn(c.tok).unwrap_or(&FnItem {
                        name: "<top>".into(),
                        owner: None,
                        fn_tok: 0,
                        body: None,
                        line: 0,
                        is_test: false,
                        hot: false,
                    })),
                    c.name
                );
                out.push(finding("epoch-tag", m, c.tok, w));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rule: raw-envelope
// ---------------------------------------------------------------------------

/// Rule `raw-envelope`: inside `dd-comm`, every payload enqueued into a
/// mailbox must be sealed into a checksummed `Envelope` — the
/// wire-integrity layer (DESIGN.md §13) only detects corruption on
/// messages that carry a checksum. Two shapes bypass it:
///
/// * a `.push_back(..)` whose argument never mentions `seal` — a raw
///   payload enqueued without an envelope;
/// * an `Envelope { .. }` struct literal outside `Envelope::seal`
///   itself — a hand-rolled envelope whose checksum nobody computed.
pub fn rule_raw_envelope(files: &[FileModel]) -> Vec<Finding> {
    let top = FnItem {
        name: "<top>".into(),
        owner: None,
        fn_tok: 0,
        body: None,
        line: 0,
        is_test: false,
        hot: false,
    };
    let mut out = Vec::new();
    for m in files {
        if !m.path.contains("crates/comm/src/") {
            continue;
        }
        for c in m.calls_in((0, m.toks.len().saturating_sub(1))) {
            if !c.is_method || c.name != "push_back" || m.in_test(c.tok) {
                continue;
            }
            let Some(&(a0, a1)) = c.args.first() else {
                continue;
            };
            let end = a1.min(m.toks.len().saturating_sub(1));
            let sealed =
                (a0..=end).any(|i| m.toks[i].kind == TokKind::Ident && m.toks[i].text == "seal");
            if !sealed {
                let w = format!(
                    "{}: payload enqueued via .push_back without Envelope::seal",
                    fn_key(m.enclosing_fn(c.tok).unwrap_or(&top))
                );
                out.push(finding("raw-envelope", m, c.tok, w));
            }
        }
        for i in 0..m.toks.len().saturating_sub(1) {
            if !m.toks[i].is(TokKind::Ident, "Envelope") || !m.toks[i + 1].is(TokKind::Open, "{") {
                continue;
            }
            // Skip the type definition and impl/trait headers; the literal
            // inside the sealing constructor is the one legal site.
            if i > 0
                && (m.toks[i - 1].is(TokKind::Punct, "->")
                    || (m.toks[i - 1].kind == TokKind::Ident
                        && matches!(
                            m.toks[i - 1].text.as_str(),
                            "struct" | "impl" | "for" | "trait"
                        )))
            {
                continue;
            }
            if m.in_test(i) || m.enclosing_fn(i).is_some_and(|f| f.name == "seal") {
                continue;
            }
            let w = format!(
                "{}: Envelope literal outside Envelope::seal",
                fn_key(m.enclosing_fn(i).unwrap_or(&top))
            );
            out.push(finding("raw-envelope", m, i, w));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(path: &str, src: &str) -> FileModel {
        FileModel::new(path, src)
    }

    fn divergence(files: &[FileModel]) -> Vec<Finding> {
        let mut ws = Workspace::build(files);
        rule_collective_divergence(files, &mut ws)
    }

    // ---- collective-divergence ----------------------------------------

    /// Both comm-call lists name only methods the runtime has: a name
    /// that is not a `pub fn` of `impl Communicator` only matches
    /// unrelated calls (`.split(` on a string).
    #[test]
    fn comm_lists_name_communicator_methods() {
        let path = crate::workspace_root().join("crates/comm/src/comm.rs");
        let src = std::fs::read_to_string(&path).expect("comm.rs must be readable");
        let m = file("crates/comm/src/comm.rs", &src);
        let methods: HashSet<&str> = m
            .fns
            .iter()
            .filter(|f| f.owner.as_deref() == Some("Communicator") && !f.is_test)
            .filter(|f| f.fn_tok > 0 && m.toks[f.fn_tok - 1].is_ident("pub"))
            .map(|f| f.name.as_str())
            .collect();
        let stray: Vec<&str> = COLLECTIVES
            .iter()
            .chain(&BLOCKING_COMM)
            .copied()
            .filter(|name| !methods.contains(name))
            .collect();
        assert!(
            stray.is_empty(),
            "not a pub fn of impl Communicator: {stray:?}"
        );
    }

    #[test]
    fn rank_guarded_collective_without_match_fires() {
        let m = file(
            "crates/core/src/spmd.rs",
            "fn f(comm: &C) { if comm.rank() == 0 { comm.barrier(); } }\n",
        );
        let got = divergence(std::slice::from_ref(&m));
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].witness.contains("barrier"), "{got:?}");
    }

    #[test]
    fn matched_collectives_on_both_branches_pass() {
        let m = file(
            "crates/core/src/spmd.rs",
            "fn f(comm: &C, x: V) { if comm.rank() == 0 { comm.try_gather(0, x); } else { comm.try_gather(0, x); } }\n",
        );
        assert!(divergence(std::slice::from_ref(&m)).is_empty());
    }

    #[test]
    fn taint_through_locals_is_tracked() {
        for src in [
            "fn f(comm: &C) { let me = comm.rank(); let lead = me == 0; if lead { comm.allreduce_sum(1.0); } }\n",
            "fn f(comm: &C) { let geneo = || comm.rank(); if geneo() == 0 { comm.barrier(); } }\n",
        ] {
            let m = file("crates/core/src/spmd.rs", src);
            let got = divergence(std::slice::from_ref(&m));
            assert_eq!(got.len(), 1, "{src}: {got:?}");
        }
    }

    #[test]
    fn master_subcomm_carveout_passes() {
        // The legal masters idiom: collectives on the communicator bound
        // by the condition itself.
        let m = file(
            "crates/core/src/spmd.rs",
            "fn f(comm: &C, mc: Option<C>, x: V) { if let Some(master) = mc { master.try_gather(0, x); let d = DistLdlt::try_factor(master, b, s); } }\n",
        );
        assert!(divergence(std::slice::from_ref(&m)).is_empty());
    }

    #[test]
    fn divergence_through_helper_reports_call_path() {
        let files = [file(
            "crates/core/src/recovery.rs",
            "fn helper(comm: &C) { comm.try_shrink(); }\n\
             fn f(comm: &C) { let lead = comm.rank() == 0; if lead { helper(comm); } }\n",
        )];
        let got = divergence(&files);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].witness.contains("via helper"), "{got:?}");
    }

    #[test]
    fn rank_dependent_match_divergence_fires_and_uniform_passes() {
        let bad = file(
            "crates/core/src/spmd.rs",
            "fn f(comm: &C) { match comm.rank() { 0 => { comm.barrier(); } _ => {} } }\n",
        );
        assert_eq!(divergence(std::slice::from_ref(&bad)).len(), 1);
        let ok = file(
            "crates/core/src/spmd.rs",
            "fn f(comm: &C) { match comm.rank() { 0 => { comm.barrier(); } _ => { comm.barrier(); } } }\n",
        );
        assert!(divergence(std::slice::from_ref(&ok)).is_empty());
    }

    #[test]
    fn collective_in_rank_dependent_loop_fires() {
        let m = file(
            "crates/solver/src/dist_ldlt.rs",
            "fn f(comm: &C) { let me = comm.rank(); for k in 0..me { comm.allreduce_sum(1.0); } }\n",
        );
        let got = divergence(std::slice::from_ref(&m));
        assert_eq!(got.len(), 1, "{got:?}");
        // p2p sends in triangular fan-ins are legal:
        let ok = file(
            "crates/solver/src/dist_ldlt.rs",
            "fn f(comm: &C, x: V) { let me = comm.rank(); for k in 0..me { comm.send(k, TAG, x); } }\n",
        );
        assert!(divergence(std::slice::from_ref(&ok)).is_empty());
    }

    #[test]
    fn non_rank_conditions_pass() {
        for src in [
            "fn f(comm: &C, opts: &O) { if !opts.one_level { comm.barrier(); } }\n",
            // A field or path segment is not the tainted local it is named
            // after.
            "fn f(comm: &C, opts: &O) { let geneo = || comm.rank(); if opts.geneo.nev == 0 { comm.barrier(); } }\n",
            "fn f(comm: &C) { let me = comm.rank(); if cfg::me::ON { comm.barrier(); } }\n",
        ] {
            let m = file("crates/core/src/spmd.rs", src);
            let got = divergence(std::slice::from_ref(&m));
            assert!(got.is_empty(), "{src}: {got:?}");
        }
    }

    // ---- lock-order ----------------------------------------------------

    #[test]
    fn lock_cycle_across_fns_is_reported() {
        let m = file(
            "crates/comm/src/comm.rs",
            "fn a(s: &S) { let g = s.agree.lock(); let p = s.parked.lock(); }\n\
             fn b(s: &S) { let p = s.parked.lock(); let g = s.agree.lock(); }\n",
        );
        let got = rule_lock_order(std::slice::from_ref(&m));
        let cycles: Vec<&Finding> = got
            .iter()
            .filter(|f| f.witness.contains("lock cycle"))
            .collect();
        assert_eq!(cycles.len(), 1, "{got:?}");
    }

    #[test]
    fn consistent_lock_order_passes() {
        let m = file(
            "crates/comm/src/comm.rs",
            "fn a(s: &S) { let g = s.agree.lock(); let p = s.parked.lock(); }\n\
             fn b(s: &S) { let g = s.agree.lock(); let p = s.parked.lock(); }\n",
        );
        let got = rule_lock_order(std::slice::from_ref(&m));
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn blocking_comm_under_live_guard_fires_and_drop_releases() {
        let bad = file(
            "crates/comm/src/comm.rs",
            "fn f(s: &S, c: &C) { let g = s.slots.lock(); let v: u64 = c.recv(0, TAG); }\n",
        );
        let got = rule_lock_order(std::slice::from_ref(&bad));
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].witness.contains("recv"), "{got:?}");
        let ok = file(
            "crates/comm/src/comm.rs",
            "fn f(s: &S, c: &C) { let g = s.slots.lock(); drop(g); let v: u64 = c.recv(0, TAG); }\n",
        );
        assert!(rule_lock_order(std::slice::from_ref(&ok)).is_empty());
    }

    #[test]
    fn temporary_guard_scope_ends_at_statement() {
        let ok = file(
            "crates/comm/src/comm.rs",
            "fn f(s: &S, c: &C) { *s.slots.lock() = 1; let v: u64 = c.recv(0, TAG); }\n",
        );
        assert!(rule_lock_order(std::slice::from_ref(&ok)).is_empty());
    }

    // ---- warm-loop-alloc -----------------------------------------------

    #[test]
    fn alloc_in_hot_fn_fires_cold_escape_passes() {
        let bad = file(
            "crates/krylov/src/gmres.rs",
            "// dd:hot\nfn kernel(x: &[f64]) -> Vec<f64> { let v = x.to_vec(); v }\n",
        );
        let got = rule_warm_loop_alloc(std::slice::from_ref(&bad));
        assert_eq!(got.len(), 1, "{got:?}");
        let ok = file(
            "crates/krylov/src/gmres.rs",
            "// dd:hot\nfn kernel(x: &[f64], y: &mut [f64]) { // dd:cold\n  let e = format!(\"n={}\", x.len());\n  y[0] = x[0]; }\n",
        );
        assert!(rule_warm_loop_alloc(std::slice::from_ref(&ok)).is_empty());
    }

    #[test]
    fn alloc_in_hot_loop_fires_prologue_passes() {
        let m = file(
            "crates/krylov/src/cg.rs",
            "fn solve(n: usize) { let mut ws = Vec::with_capacity(n); // dd:hot\n  for k in 0..n { let t = ws.clone(); } }\n",
        );
        let got = rule_warm_loop_alloc(std::slice::from_ref(&m));
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].witness.contains(".clone"), "{got:?}");
    }

    // ---- wallclock-taint -----------------------------------------------

    #[test]
    fn wallclock_into_virtual_clock_fires() {
        let m = file(
            "crates/comm/src/comm.rs",
            "fn f(clock: &K) { let t0 = Instant::now(); let dt = t0.elapsed().as_secs_f64(); clock.advance(dt); }\n",
        );
        let got = rule_wallclock_taint(std::slice::from_ref(&m));
        assert_eq!(got.len(), 1, "{got:?}");
    }

    #[test]
    fn virtual_quantities_into_clock_pass() {
        let m = file(
            "crates/comm/src/comm.rs",
            "fn f(clock: &K, model: &M, n: usize) { let dt = model.alpha + model.beta * n as f64; clock.advance(dt); }\n",
        );
        assert!(rule_wallclock_taint(std::slice::from_ref(&m)).is_empty());
    }

    #[test]
    fn wallclock_into_tag_fires() {
        let m = file(
            "crates/core/src/recovery.rs",
            "fn f(c: &C, x: V) { let stamp = SystemTime::now(); c.send(0, stamp, x); }\n",
        );
        let got = rule_wallclock_taint(std::slice::from_ref(&m));
        assert_eq!(got.len(), 1, "{got:?}");
    }

    // ---- epoch-tag -----------------------------------------------------

    #[test]
    fn raw_integer_tag_fires_named_tags_pass() {
        let bad = file(
            "crates/solver/src/dist_ldlt.rs",
            "fn f(c: &C, x: V) { c.send(0, 42, x); }\n",
        );
        assert_eq!(rule_epoch_tag(std::slice::from_ref(&bad)).len(), 1);
        let ok = file(
            "crates/solver/src/dist_ldlt.rs",
            "fn f(c: &C, x: V, s: usize) { c.send(0, TAG_PANEL, x); let v: V = c.recv(1, TAG_FWD + s as u64); }\n",
        );
        assert!(rule_epoch_tag(std::slice::from_ref(&ok)).is_empty());
    }

    #[test]
    fn epoch_tag_exempts_tests_and_comm_internals() {
        let files = [
            file(
                "crates/comm/src/comm.rs",
                "fn f(c: &C, x: V) { c.send(0, 7, x); }\n",
            ),
            file(
                "crates/core/src/spmd.rs",
                "#[cfg(test)]\nmod tests { fn f(c: &C, x: V) { c.send(0, 7, x); } }\n",
            ),
        ];
        assert!(rule_epoch_tag(&files).is_empty());
    }

    // ---- raw-envelope ---------------------------------------------------

    #[test]
    fn unsealed_push_back_fires_sealed_passes() {
        let bad = file(
            "crates/comm/src/comm.rs",
            "fn send(&self, q: &mut Q, v: V) { q.push_back(v); }\n",
        );
        let got = rule_raw_envelope(std::slice::from_ref(&bad));
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].witness.contains("push_back"), "{got:?}");
        let ok = file(
            "crates/comm/src/comm.rs",
            "fn send(&self, q: &mut Q, v: V) { q.push_back(Envelope::seal(v, a, b, d, s, c)); }\n",
        );
        assert!(rule_raw_envelope(std::slice::from_ref(&ok)).is_empty());
    }

    #[test]
    fn hand_rolled_envelope_literal_fires_outside_seal_only() {
        let bad = file(
            "crates/comm/src/comm.rs",
            "fn sneak(v: V) -> Envelope { Envelope { payload: v, sum: 0 } }\n",
        );
        let got = rule_raw_envelope(std::slice::from_ref(&bad));
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].witness.contains("literal"), "{got:?}");
        let ok = file(
            "crates/comm/src/comm.rs",
            "struct Envelope { sum: u64 }\n\
             impl Envelope { fn seal(v: V, s: u64) -> Self { Envelope { payload: v, sum: s } } }\n",
        );
        assert!(rule_raw_envelope(std::slice::from_ref(&ok)).is_empty());
    }

    #[test]
    fn raw_envelope_is_scoped_to_dd_comm_and_exempts_tests() {
        let files = [
            file(
                "crates/part/src/lib.rs",
                "fn f(q: &mut Q, v: V) { q.push_back(v); }\n",
            ),
            file(
                "crates/comm/src/comm.rs",
                "#[cfg(test)]\nmod tests { fn f(q: &mut Q, v: V) { q.push_back(v); } }\n",
            ),
        ];
        assert!(rule_raw_envelope(&files).is_empty());
    }
}
