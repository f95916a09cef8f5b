//! The ported invariant rules: every rule of the old string-scanner
//! `dd-lint`, re-expressed over the token stream and the syntactic
//! model. Matching is token-exact (`Mutex::new` never matches
//! `SyncMutex::new`, nothing matches inside literals or comments) and
//! the region rules (`recovery-*`, `serve-apply`, test exemptions) use
//! real item spans instead of line heuristics.
//!
//! The five *flow-aware* rules the scanner could not express live in
//! [`crate::flow`].

use crate::lexer::{find_pattern, needle};
use crate::model::{render, FileModel};
use crate::Finding;

/// Shorthand: construct a finding anchored at token `tok`.
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

fn fn_context(m: &FileModel, tok: usize) -> String {
    m.enclosing_fn(tok)
        .map(|f| match &f.owner {
            Some(o) => format!("{o}::{}", f.name),
            None => f.name.clone(),
        })
        .unwrap_or_else(|| "<top>".into())
}

/// Rule `wallclock`: no wall-clock reads outside `crates/comm/src/time.rs`.
pub fn rule_wallclock(files: &[FileModel]) -> Vec<Finding> {
    let pats = [needle("Instant::now"), needle("SystemTime")];
    let mut out = Vec::new();
    for m in files {
        if m.path.ends_with("comm/src/time.rs") {
            continue;
        }
        for pat in &pats {
            for tok in find_pattern(&m.toks, pat) {
                let w = format!(
                    "{}: {}",
                    fn_context(m, tok),
                    render(&m.toks, (tok, tok + pat.len() - 1))
                );
                out.push(finding("wallclock", m, tok, w));
            }
        }
    }
    out
}

/// Files whose non-test code must stay free of `.unwrap()` / `.expect(`.
const RUNTIME_PATHS: [&str; 4] = [
    "crates/core/src/spmd.rs",
    "crates/comm/src/comm.rs",
    "crates/krylov/src/restart.rs",
    "crates/krylov/src/pipelined.rs",
];

/// Rule `unwrap-expect`: typed errors only in the runtime paths.
pub fn rule_unwrap_expect(files: &[FileModel]) -> Vec<Finding> {
    let pats = [needle(".unwrap()"), needle(".expect(")];
    let mut out = Vec::new();
    for m in files {
        if !RUNTIME_PATHS.iter().any(|p| m.path.ends_with(p)) {
            continue;
        }
        for pat in &pats {
            for tok in find_pattern(&m.toks, pat) {
                if m.in_test(tok) {
                    continue;
                }
                let name = &m.toks[tok + 1].text;
                let w = format!("{}: .{name}", fn_context(m, tok));
                out.push(finding("unwrap-expect", m, tok, w));
            }
        }
    }
    out
}

/// Rule `phase-balance` (flow-aware port): a phase name saved with
/// `trace_phase_name()` must not be *dead* — it must either be restored
/// via a later `trace_phase(saved)` in the same fn, or escape (stored in
/// a struct, returned, passed on) so an RAII guard can restore it. The
/// old scanner required the literal restore in the same file and needed
/// an allow entry for `TraceScope`; the liveness form proves that case.
pub fn rule_phase_balance(files: &[FileModel]) -> Vec<Finding> {
    let mut out = Vec::new();
    for m in files {
        for f in &m.fns {
            let Some(body) = f.body else { continue };
            for (idents, rhs) in m.lets_in(body) {
                if idents.len() != 1 {
                    continue;
                }
                let saved = &idents[0];
                let has_save = m.calls_in(rhs).iter().any(|c| c.name == "trace_phase_name");
                if !has_save {
                    continue;
                }
                // Any later use of the saved ident keeps it alive: the
                // restore call, a struct-literal field, a return value.
                let after = (rhs.1 + 1, body.1);
                let used = (after.0..=after.1.min(m.toks.len().saturating_sub(1)))
                    .any(|i| m.toks[i].is_ident(saved));
                if !used {
                    let w = format!("{}: saved phase `{saved}` is dead", fn_context(m, rhs.0));
                    out.push(finding("phase-balance", m, rhs.0, w));
                }
            }
        }
    }
    out
}

/// Heap-carrying type heads the α–β cost model must see.
const HEAP_TYPES: [&str; 6] = ["Vec", "String", "Box", "HashMap", "BTreeMap", "VecDeque"];

/// Rule `wire-size`: a `WireSize` impl for a struct with heap-carrying
/// fields must mention every such field in its body.
pub fn rule_wire_size(files: &[FileModel]) -> Vec<Finding> {
    let mut out = Vec::new();
    for m in files {
        for im in &m.impls {
            if im.trait_name.as_deref() != Some("WireSize") {
                continue;
            }
            // Find the struct's heap fields anywhere in the workspace.
            let fields: Vec<String> = files
                .iter()
                .flat_map(|fm| fm.structs.iter())
                .find(|s| s.name == im.owner)
                .map(|s| {
                    s.fields
                        .iter()
                        .filter(|(_, ty)| HEAP_TYPES.iter().any(|h| ty.contains(h)))
                        .map(|(name, _)| name.clone())
                        .collect()
                })
                .unwrap_or_default();
            for field in fields {
                let mentioned = (im.body.0..=im.body.1).any(|i| m.toks[i].is_ident(&field));
                if !mentioned {
                    let w = format!("WireSize for {} ignores heap field `{field}`", im.owner);
                    out.push(finding("wire-size", m, im.body.0, w));
                }
            }
        }
    }
    out
}

/// Crates whose blocking must route through `SyncBackend`.
const SYNC_SCOPED: [&str; 2] = ["crates/comm/src/", "crates/core/src/"];

/// Rule `std-sync`: no raw `std::sync` blocking primitives in the
/// runtime crates outside the backend seam — neither constructed nor
/// named in type position.
pub fn rule_std_sync(files: &[FileModel]) -> Vec<Finding> {
    let pats = [
        needle("Mutex::new("),
        needle("Condvar::new("),
        needle("RwLock::new("),
        needle("Mutex<"),
        needle("RwLock<"),
    ];
    let mut out = Vec::new();
    for m in files {
        if !SYNC_SCOPED.iter().any(|p| m.path.contains(p)) || m.path.ends_with("comm/src/sync.rs") {
            continue;
        }
        for pat in &pats {
            for tok in find_pattern(&m.toks, pat) {
                let w = format!(
                    "{}: {}",
                    fn_context(m, tok),
                    render(&m.toks, (tok, tok + pat.len() - 1))
                );
                out.push(finding("std-sync", m, tok, w));
            }
        }
    }
    out
}

/// Method names of infallible blocking waits (their `try_` counterparts
/// honor the ambient `RetryPolicy` and return typed errors).
pub const BLOCKING_WAITS: [&str; 11] = [
    "recv",
    "barrier",
    "allreduce_sum",
    "allreduce_sum_vec",
    "allreduce_max",
    "allreduce_max_usize",
    "allgather",
    "gather",
    "gatherv",
    "scatter",
    "wait_reduce",
];

/// Token ranges of `trace_phase("<prefix>…")` regions: from the opening
/// call to the next `trace_phase`/`trace_scope` call (the restore or the
/// next phase). `trace_scope` also opens a region when `scopes` is set.
pub fn phase_regions(m: &FileModel, prefix: &str, scopes: bool) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let all = m.calls_in((0, m.toks.len().saturating_sub(1)));
    let mut open: Option<usize> = None;
    for c in &all {
        let is_phase = c.name == "trace_phase" || c.name == "trace_scope";
        if !is_phase {
            continue;
        }
        if c.name == "trace_scope" && !scopes {
            // A scope call still *closes* a literal region.
            if let Some(s) = open.take() {
                out.push((s, c.tok.saturating_sub(1)));
            }
            continue;
        }
        let opens = c
            .args
            .first()
            .and_then(|&(a, b)| {
                (a..=b).find_map(|i| {
                    (m.toks[i].kind == crate::lexer::TokKind::Str)
                        .then(|| m.toks[i].text.starts_with(prefix))
                })
            })
            .unwrap_or(false);
        if let Some(s) = open.take() {
            out.push((s, c.tok.saturating_sub(1)));
        }
        if opens {
            open = Some(c.tok);
        }
    }
    if let Some(s) = open {
        // Region runs to the end of the enclosing fn (or file).
        let end = m
            .enclosing_fn(s)
            .and_then(|f| f.body)
            .map(|(_, b)| b)
            .unwrap_or(m.toks.len().saturating_sub(1));
        out.push((s, end));
    }
    out
}

fn in_regions(regions: &[(usize, usize)], tok: usize) -> bool {
    regions.iter().any(|&(a, b)| a <= tok && tok <= b)
}

/// Rule `recovery-retry`: no infallible blocking waits and no
/// `RetryPolicy::unbounded` inside a `recovery-*` telemetry phase.
pub fn rule_recovery_retry(files: &[FileModel]) -> Vec<Finding> {
    let unbounded = needle("RetryPolicy::unbounded");
    let mut out = Vec::new();
    for m in files {
        let regions = phase_regions(m, "recovery-", false);
        if regions.is_empty() {
            continue;
        }
        for c in m.calls_in((0, m.toks.len().saturating_sub(1))) {
            if !c.is_method || !BLOCKING_WAITS.contains(&c.name.as_str()) {
                continue;
            }
            if !in_regions(&regions, c.tok) || m.in_test(c.tok) {
                continue;
            }
            let w = format!("{}: .{}", fn_context(m, c.tok), c.name);
            out.push(finding("recovery-retry", m, c.tok, w));
        }
        for tok in find_pattern(&m.toks, &unbounded) {
            if in_regions(&regions, tok) && !m.in_test(tok) {
                let w = format!("{}: RetryPolicy::unbounded", fn_context(m, tok));
                out.push(finding("recovery-retry", m, tok, w));
            }
        }
    }
    out
}

/// Substrings that make a `Suspected` handling site visibly bounded.
const BOUND_MARKERS: [&str; 5] = [
    "deadline",
    "k_missed",
    "SuspicionPolicy",
    "bounded",
    "timeout",
];

/// Rule `suspected-bounded`: `Suspected` handling inside a `recovery-*`
/// phase must carry a visible budget within two lines.
pub fn rule_suspected_bounded(files: &[FileModel]) -> Vec<Finding> {
    let mut out = Vec::new();
    for m in files {
        let regions = phase_regions(m, "recovery-", false);
        if regions.is_empty() {
            continue;
        }
        for (i, t) in m.toks.iter().enumerate() {
            if !t.is_ident("Suspected") || !in_regions(&regions, i) || m.in_test(i) {
                continue;
            }
            let lo = t.line.saturating_sub(2);
            let hi = t.line + 2;
            let bounded = m.toks.iter().any(|o| {
                o.kind == crate::lexer::TokKind::Ident
                    && o.line >= lo
                    && o.line <= hi
                    && BOUND_MARKERS.iter().any(|mk| o.text.contains(mk))
            });
            if !bounded {
                let w = format!("{}: Suspected without budget", fn_context(m, i));
                out.push(finding("suspected-bounded", m, i, w));
            }
        }
    }
    out
}

/// Crates whose `send(` payloads must not be freshly copied buffers.
const PAYLOAD_SCOPED: [&str; 4] = [
    "crates/comm/src/",
    "crates/core/src/",
    "crates/solver/src/",
    "crates/serve/src/",
];

/// Rule `payload-clone`: no `.clone()` / `.to_vec()` inside the argument
/// list of a `send(` call in the runtime crates. `Arc::clone(&x)` (a
/// pointer bump) passes — it is a path call, not a method call.
pub fn rule_payload_clone(files: &[FileModel]) -> Vec<Finding> {
    let mut out = Vec::new();
    for m in files {
        if !PAYLOAD_SCOPED.iter().any(|p| m.path.contains(p)) {
            continue;
        }
        for c in m.calls_in((0, m.toks.len().saturating_sub(1))) {
            if c.name != "send" || m.in_test(c.tok) {
                continue;
            }
            for &arg in &c.args {
                for inner in m.calls_in(arg) {
                    if inner.is_method
                        && matches!(inner.name.as_str(), "clone" | "to_vec")
                        && inner.args.is_empty()
                    {
                        let w = format!(
                            "{}: send payload .{}() on `{}`",
                            fn_context(m, c.tok),
                            inner.name,
                            inner.recv.join(".")
                        );
                        out.push(finding("payload-clone", m, inner.tok, w));
                    }
                }
            }
        }
    }
    out
}

/// Factorization entry points banned in the resident apply path.
const REFACTOR_PATHS: [(&str, &str); 4] = [
    ("SparseLdlt", "factor"),
    ("DistLdlt", "factor"),
    ("DistLdlt", "try_factor"),
    ("DenseLdlt", "factor"),
];

/// Rule `serve-apply`: no factorization inside the resident apply path —
/// `serve-apply` telemetry regions plus the bodies of `try_apply*` entry
/// points.
pub fn rule_serve_apply(files: &[FileModel]) -> Vec<Finding> {
    let mut out = Vec::new();
    for m in files {
        let mut regions = phase_regions(m, "serve-apply", true);
        for f in &m.fns {
            if f.name.starts_with("try_apply") {
                if let Some(body) = f.body {
                    regions.push(body);
                }
            }
        }
        if regions.is_empty() {
            continue;
        }
        for c in m.calls_in((0, m.toks.len().saturating_sub(1))) {
            if !in_regions(&regions, c.tok) || m.in_test(c.tok) {
                continue;
            }
            let is_refactor = REFACTOR_PATHS.iter().any(|(ty, f)| {
                c.path.len() >= 2
                    && c.path[c.path.len() - 2] == *ty
                    && c.path[c.path.len() - 1] == *f
            }) || (c.is_method && c.name == "refactor")
                || c.name.starts_with("try_setup");
            if is_refactor {
                let w = format!("{}: {}", fn_context(m, c.tok), c.display_name());
                out.push(finding("serve-apply", m, c.tok, w));
            }
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

    #[test]
    fn wallclock_caught_outside_time_rs_but_not_in_literals() {
        let files = [
            file(
                "crates/core/src/spmd.rs",
                "fn f() { let t = std::time::Instant::now(); }\n",
            ),
            file("crates/comm/src/time.rs", "fn g() { Instant::now(); }\n"),
            file(
                "crates/krylov/src/gmres.rs",
                "fn h() { log(\"Instant::now\"); } // Instant::now\n",
            ),
            file(
                "crates/solver/src/ldlt.rs",
                "fn r() { let s = r#\"SystemTime Instant::now\"#; }\n",
            ),
        ];
        let got = rule_wallclock(&files);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].path, "crates/core/src/spmd.rs");
        assert!(got[0].witness.contains("f:"));
    }

    #[test]
    fn unwrap_in_runtime_path_caught_tests_exempt() {
        let m = file(
            "crates/comm/src/comm.rs",
            "fn f() { x.unwrap(); y.expect(\"boom\"); }\n\
             #[cfg(test)]\nmod tests { fn g() { z.unwrap(); } }\n",
        );
        let got = rule_unwrap_expect(std::slice::from_ref(&m));
        assert_eq!(got.len(), 2, "{got:?}");
        // The Krylov loops are runtime paths too; a sequential solver is not.
        let krylov = |name: &str| {
            let path = format!("crates/krylov/src/{name}.rs");
            let m = file(&path, "fn f() { pending.take().expect(\"posted\"); }\n");
            rule_unwrap_expect(std::slice::from_ref(&m)).len()
        };
        assert_eq!(krylov("pipelined"), 1);
        assert_eq!(krylov("restart"), 1);
        assert_eq!(krylov("cg"), 0);
    }

    #[test]
    fn dead_saved_phase_caught_restored_and_escaping_pass() {
        let dead = file(
            "crates/core/src/spmd.rs",
            "fn f(c: &Comm) { let prev = c.trace_phase_name(); c.trace_phase(\"inner\"); }\n",
        );
        assert_eq!(rule_phase_balance(std::slice::from_ref(&dead)).len(), 1);
        let restored = file(
            "crates/core/src/spmd.rs",
            "fn f(c: &Comm) { let prev = c.trace_phase_name(); c.trace_phase(\"inner\"); c.trace_phase(&prev); }\n",
        );
        assert!(rule_phase_balance(std::slice::from_ref(&restored)).is_empty());
        // The TraceScope pattern: saved name escapes into a guard struct.
        let escapes = file(
            "crates/comm/src/trace.rs",
            "fn scope(c: &Comm) -> TraceScope { let prev = c.trace_phase_name(); TraceScope { comm: c, prev } }\n",
        );
        assert!(rule_phase_balance(std::slice::from_ref(&escapes)).is_empty());
    }

    #[test]
    fn under_counted_wire_size_caught() {
        let files = [file(
            "crates/core/src/msg.rs",
            "pub struct Panel { pub rows: Vec<f64>, pub tag: u64 }\n\
             impl WireSize for Panel { fn wire_bytes(&self) -> usize { 8 } }\n",
        )];
        let got = rule_wire_size(&files);
        assert_eq!(got.len(), 1);
        assert!(got[0].witness.contains("rows"), "{got:?}");
        let ok = [file(
            "crates/core/src/msg.rs",
            "pub struct Panel { pub rows: Vec<f64>, pub tag: u64 }\n\
             impl WireSize for Panel { fn wire_bytes(&self) -> usize { 8 + self.rows.len() * 8 } }\n",
        )];
        assert!(rule_wire_size(&ok).is_empty());
    }

    #[test]
    fn std_sync_token_anchored() {
        let files = [
            file(
                "crates/comm/src/comm.rs",
                "fn f() { let m = Mutex::new(0); }\n",
            ),
            file(
                "crates/comm/src/comm.rs",
                "fn g(b: &B) { let m = SyncMutex::new(b, 0); }\n",
            ),
            file(
                "crates/comm/src/sync.rs",
                "fn h() { let m = Mutex::new(0); }\n",
            ),
            file(
                "crates/linalg/src/lib.rs",
                "fn k() { let m = Mutex::new(0); }\n",
            ),
            file(
                "crates/core/src/recovery.rs",
                "#[derive(Default)]\nstruct S { slots: Mutex<Vec<u8>> }\n",
            ),
        ];
        let got = rule_std_sync(&files);
        assert_eq!(got.len(), 2, "{got:?}");
    }

    #[test]
    fn recovery_region_blocks_infallible_waits() {
        let bad = file(
            "crates/core/src/recovery.rs",
            "fn f(c: &C) { c.trace_phase(\"recovery-adopt\");\n\
             let v: u64 = c.recv(0, 1);\n\
             let p = RetryPolicy::unbounded();\n\
             c.trace_phase(\"solve\");\n\
             c.barrier(); }\n",
        );
        let got = rule_recovery_retry(std::slice::from_ref(&bad));
        assert_eq!(got.len(), 2, "{got:?}");
        let ok = file(
            "crates/core/src/recovery.rs",
            "fn f(c: &C) { c.trace_phase(\"recovery-assembly\");\n\
             let v: u64 = c.try_recv_timeout(0, 1, &c.retry_policy()).unwrap_or(0);\n\
             c.trace_phase(\"solve\");\n\
             c.recv::<u64>(0, 1); }\n",
        );
        assert!(rule_recovery_retry(std::slice::from_ref(&ok)).is_empty());
    }

    #[test]
    fn recovery_region_sees_turbofish_recv() {
        // The old scanner needed a separate `.recv::<` needle; calls are
        // now resolved through the turbofish.
        let bad = file(
            "crates/core/src/recovery.rs",
            "fn f(c: &C) { c.trace_phase(\"recovery-adopt\"); let v = c.recv::<u64>(0, 1); c.trace_phase(\"x\"); }\n",
        );
        assert_eq!(rule_recovery_retry(std::slice::from_ref(&bad)).len(), 1);
    }

    #[test]
    fn suspected_needs_budget_in_recovery() {
        let bad = file(
            "crates/core/src/recovery.rs",
            "fn f(c: &C) { c.trace_phase(\"recovery-agree\");\n\
             while states.iter().any(|s| *s == RankState::Suspected) {\n\
             c.probe();\n\
             }\n\
             c.trace_phase(\"solve\"); }\n",
        );
        assert_eq!(rule_suspected_bounded(std::slice::from_ref(&bad)).len(), 1);
        let ok = file(
            "crates/core/src/recovery.rs",
            "fn f(c: &C) { c.trace_phase(\"recovery-agree\");\n\
             let policy = opts.suspicion.unwrap_or_default();\n\
             if states[r] == RankState::Suspected && beats[r] >= policy.k_missed {\n\
             c.evict(r);\n\
             }\n\
             c.trace_phase(\"solve\"); }\n",
        );
        assert!(rule_suspected_bounded(std::slice::from_ref(&ok)).is_empty());
    }

    #[test]
    fn payload_clone_caught_arc_and_move_pass() {
        let bad = file(
            "crates/solver/src/dist_ldlt.rs",
            "fn f(c: &C) { for k in 0..me { c.send(k, TAG, x_me.clone()); } c.send(q, T2, rows.to_vec()); }\n",
        );
        let got = rule_payload_clone(std::slice::from_ref(&bad));
        assert_eq!(got.len(), 2, "{got:?}");
        let ok = file(
            "crates/solver/src/dist_ldlt.rs",
            "fn f(c: &C) { c.send(k, TAG, Arc::clone(&x)); c.send(q, T2, contrib); let y = x.clone(); }\n",
        );
        assert!(rule_payload_clone(std::slice::from_ref(&ok)).is_empty());
    }

    #[test]
    fn serve_apply_blocks_factorization_in_apply_path() {
        let bad = file(
            "crates/core/src/recovery.rs",
            "impl P { pub fn try_apply_on(&self, d: &D) -> R { let f = SparseLdlt::factor(&d.a, ord); self.solve(f) } }\n",
        );
        let got = rule_serve_apply(std::slice::from_ref(&bad));
        assert_eq!(got.len(), 1, "{got:?}");
        let ok = file(
            "crates/core/src/recovery.rs",
            "fn try_setup_partitioned(d: &D) -> R { let f = SparseLdlt::factor(&d.a, ord); }\n\
             fn other(&self) { self.resident.solve() }\n",
        );
        assert!(rule_serve_apply(std::slice::from_ref(&ok)).is_empty());
    }

    #[test]
    fn serve_apply_blocks_the_shared_setup_by_name() {
        // The one set-up keeps a `try_setup…` name, so calling it from an
        // apply is caught like calling either of its entry points.
        let bad = file(
            "crates/core/src/resident.rs",
            "impl P { fn try_apply(&self, b: &B) -> R { let p = try_setup_on(d, c, o, None, plan, false, labels)?; p.solve(b) } }\n",
        );
        let got = rule_serve_apply(std::slice::from_ref(&bad));
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].witness.contains("try_setup_on"), "{got:?}");
    }

    #[test]
    fn serve_apply_literal_region_scoped() {
        let bad = file(
            "crates/serve/src/server.rs",
            "fn f(c: &C, x: &X, a: &A, b: &B) { c.trace_phase(\"serve-apply\");\n\
             let f1 = x.refactor(a);\n\
             c.trace_phase(\"serve-setup\");\n\
             let g = x.refactor(b); }\n",
        );
        let got = rule_serve_apply(std::slice::from_ref(&bad));
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].line, 2);
    }
}
