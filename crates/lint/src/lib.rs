//! dd-analyze: a syntax-aware, flow-aware SPMD invariant analyzer for the
//! dd-geneo workspace.
//!
//! The original `dd-lint` was a substring scanner: it stripped comments
//! and string literals, then grepped for needles. That caught site-level
//! bans (`Instant::now` outside the virtual clock) but could not see
//! control flow — a collective under a rank-dependent branch, a lock
//! acquired before a blocking recv, an allocation inside a warm GMRES
//! iteration. dd-analyze replaces the scanner with three layers, all
//! std-only:
//!
//! * [`lexer`] — a real Rust lexer (raw strings, nested block comments,
//!   char-vs-lifetime, raw identifiers) producing a flat token stream
//!   plus `// dd:hot` / `// dd:cold` region markers.
//! * [`model`] — a lightweight syntactic model per file: functions and
//!   impl owners, calls with receiver paths and argument spans, if/match
//!   branch structure with pattern bindings, `let` chains, `#[cfg(test)]`
//!   spans.
//! * [`rules`] (the nine ported site rules) and [`flow`] (the six
//!   flow-aware rules) — both emitting [`Finding`]s with a witness that
//!   names the enclosing item and, for inter-procedural findings, the
//!   call path.
//! * [`inventory`] — per-file non-test lines and public items (reported
//!   per crate), and the workspace-wide `unreferenced-pub` rule.
//!
//! Audited exceptions live in `dd-analyze.baseline` ([`baseline`]):
//! entries are keyed by rule + FNV-1a fingerprint of the witness, so they
//! survive line shifts but go stale the moment the flagged code changes
//! shape. Stale entries fail CI.

use std::path::{Path, PathBuf};

pub mod baseline;
pub mod flow;
pub mod inventory;
pub mod lexer;
pub mod model;
pub mod rules;

use model::FileModel;

/// One rule violation. `witness` is the human-auditable core of the
/// finding — enclosing item plus the fact proven (including call paths
/// for inter-procedural findings) — and is what the baseline fingerprint
/// hashes, deliberately excluding the line number.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: &'static str,
    pub path: String,
    pub line: u32,
    pub snippet: String,
    pub witness: String,
    pub fingerprint: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}  ({})",
            self.path, self.line, self.rule, self.witness, self.snippet
        )
    }
}

/// Every rule dd-analyze knows, in report order.
pub const RULES: [&str; 16] = [
    // Ported site rules.
    "wallclock",
    "unwrap-expect",
    "phase-balance",
    "wire-size",
    "std-sync",
    "recovery-retry",
    "suspected-bounded",
    "payload-clone",
    "serve-apply",
    // Flow-aware rules.
    "collective-divergence",
    "lock-order",
    "warm-loop-alloc",
    "wallclock-taint",
    "epoch-tag",
    "raw-envelope",
    // Workspace surface.
    "unreferenced-pub",
];

/// Lex and model every `.rs` file under `root/src` and `root/crates`,
/// skipping `target/` and dotdirs. Paths are workspace-relative with
/// forward slashes.
pub fn collect_models(root: &Path) -> std::io::Result<Vec<FileModel>> {
    collect_under(root, &["src", "crates"])
}

/// [`collect_models`] of the code that uses the workspace from outside —
/// the integration tests, the examples and the benchmark's sources — read
/// by `unreferenced-pub` for uses only.
pub fn collect_references(root: &Path) -> std::io::Result<Vec<FileModel>> {
    collect_under(root, &["tests", "examples", "benchmark/src"])
}

fn collect_under(root: &Path, tops: &[&str]) -> std::io::Result<Vec<FileModel>> {
    let mut out = Vec::new();
    for top in tops {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(root, &dir, &mut out)?;
        }
    }
    out.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<FileModel>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                walk(root, &path, out)?;
            }
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(FileModel::new(&rel, &std::fs::read_to_string(&path)?));
        }
    }
    Ok(())
}

/// Run all sixteen rules over the modeled files (`refs`: the files
/// [`collect_references`] returns) and fingerprint every finding.
/// Deterministic order: path, line, rule.
pub fn run_rules(files: &[FileModel], refs: &[FileModel]) -> Vec<Finding> {
    let mut ws = flow::Workspace::build(files);
    let mut findings = Vec::new();
    findings.extend(rules::rule_wallclock(files));
    findings.extend(rules::rule_unwrap_expect(files));
    findings.extend(rules::rule_phase_balance(files));
    findings.extend(rules::rule_wire_size(files));
    findings.extend(rules::rule_std_sync(files));
    findings.extend(rules::rule_recovery_retry(files));
    findings.extend(rules::rule_suspected_bounded(files));
    findings.extend(rules::rule_payload_clone(files));
    findings.extend(rules::rule_serve_apply(files));
    findings.extend(flow::rule_collective_divergence(files, &mut ws));
    findings.extend(flow::rule_lock_order(files));
    findings.extend(flow::rule_warm_loop_alloc(files));
    findings.extend(flow::rule_wallclock_taint(files));
    findings.extend(flow::rule_epoch_tag(files));
    findings.extend(flow::rule_raw_envelope(files));
    findings.extend(inventory::rule_unreferenced_pub(files, refs));
    for f in &mut findings {
        f.fingerprint = baseline::fingerprint(f.rule, &f.path, &f.witness);
    }
    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    findings
}

/// Result of a full analysis pass.
pub struct AnalyzeResult {
    /// Findings not covered by the baseline — nonempty fails the gate.
    pub findings: Vec<Finding>,
    /// Findings suppressed by baseline entries.
    pub suppressed: usize,
    /// Baseline entries matching nothing — nonempty fails the gate.
    pub stale: Vec<baseline::BaselineEntry>,
    pub files_scanned: usize,
    /// Findings before baseline subtraction (for the delta table).
    pub total: usize,
    /// Size and public surface of every scanned file.
    pub inventory: Vec<inventory::FileCount>,
}

impl AnalyzeResult {
    pub fn clean(&self) -> bool {
        self.findings.is_empty() && self.stale.is_empty()
    }
}

/// Full pass: model `root`, run rules, subtract `root/dd-analyze.baseline`.
pub fn analyze(root: &Path) -> Result<AnalyzeResult, String> {
    let scan = |e: std::io::Error| format!("scanning {}: {e}", root.display());
    let files = collect_models(root).map_err(scan)?;
    let refs = collect_references(root).map_err(scan)?;
    let entries = match std::fs::read_to_string(root.join("dd-analyze.baseline")) {
        Ok(text) => baseline::parse(&text)?,
        Err(_) => Vec::new(),
    };
    let findings = run_rules(&files, &refs);
    let total = findings.len();
    let applied = baseline::apply(findings, &entries);
    Ok(AnalyzeResult {
        findings: applied.active,
        suppressed: applied.suppressed,
        stale: applied.stale,
        files_scanned: files.len(),
        total,
        inventory: inventory::count_files(&files),
    })
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Structured JSON report — the CI artifact: active findings plus stale
/// baseline entries, the pass totals, and the inventory per crate and per
/// file.
pub fn json_report(result: &AnalyzeResult) -> String {
    let mut s = String::from("{\n  \"findings\": [\n");
    for (i, f) in result.findings.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"snippet\": \"{}\", \"witness\": \"{}\", \"fingerprint\": \"{}\"}}{}\n",
            json_escape(f.rule),
            json_escape(&f.path),
            f.line,
            json_escape(&f.snippet),
            json_escape(&f.witness),
            f.fingerprint,
            if i + 1 < result.findings.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"stale_baseline\": [\n");
    for (i, e) in result.stale.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"rule\": \"{}\", \"fingerprint\": \"{}\", \"path\": \"{}\"}}{}\n",
            json_escape(&e.rule),
            e.fp,
            json_escape(&e.path),
            if i + 1 < result.stale.len() { "," } else { "" }
        ));
    }
    s.push_str(&format!(
        "  ],\n  \"files_scanned\": {},\n  \"suppressed\": {},\n  \"total\": {},\n",
        result.files_scanned, result.suppressed, result.total
    ));
    let crates = inventory::per_crate(&result.inventory);
    s.push_str("  \"crates\": [\n");
    for (i, (name, lines, items)) in crates.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"crate\": \"{name}\", \"lines\": {lines}, \"pub_items\": {items}}}{}\n",
            if i + 1 < crates.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"files\": [\n");
    for (i, c) in result.inventory.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"path\": \"{}\", \"lines\": {}, \"pub_items\": {}}}{}\n",
            json_escape(&c.path),
            c.lines,
            c.pub_items,
            if i + 1 < result.inventory.len() {
                ","
            } else {
                ""
            }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Markdown delta table for the CI step summary: active findings per
/// rule, pass totals, and any stale baseline entries.
pub fn delta_table(result: &AnalyzeResult) -> String {
    let mut s = String::from("### dd-analyze\n\n| rule | active findings |\n|---|---:|\n");
    let mut any = false;
    for rule in RULES {
        let active = result.findings.iter().filter(|f| f.rule == rule).count();
        if active > 0 {
            s.push_str(&format!("| {rule} | {active} |\n"));
            any = true;
        }
    }
    if !any {
        s.push_str("| _(none)_ | 0 |\n");
    }
    s.push_str(&format!(
        "\n{} file(s) scanned · {} finding(s) total · {} suppressed by baseline · {} active · {} stale baseline entr{}\n",
        result.files_scanned,
        result.total,
        result.suppressed,
        result.findings.len(),
        result.stale.len(),
        if result.stale.len() == 1 { "y" } else { "ies" }
    ));
    for e in &result.stale {
        s.push_str(&format!("\n- **stale baseline entry**: `{}`\n", e.render()));
    }
    s.push_str("\n| crate | non-test lines | public items |\n|---|---:|---:|\n");
    let crates = inventory::per_crate(&result.inventory);
    for (name, lines, items) in &crates {
        s.push_str(&format!("| {name} | {lines} | {items} |\n"));
    }
    let (lines, items) = crates
        .iter()
        .fold((0, 0), |(l, p), (_, lc, pc)| (l + lc, p + pc));
    s.push_str(&format!("| **total** | {lines} | {items} |\n"));
    s
}

/// Workspace root: two levels above this crate's manifest dir.
pub fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_rules_fingerprints_and_sorts() {
        let files = vec![
            FileModel::new(
                "crates/comm/src/comm.rs",
                "fn g() { let t = Instant::now(); }\n",
            ),
            FileModel::new(
                "crates/core/src/spmd.rs",
                "fn f(comm: &C) { if comm.rank() == 0 { comm.barrier(); } }\n",
            ),
        ];
        let got = run_rules(&files, &[]);
        assert!(got.len() >= 2, "{got:?}");
        assert!(got.iter().all(|f| f.fingerprint.len() == 16));
        let paths: Vec<&str> = got.iter().map(|f| f.path.as_str()).collect();
        let mut sorted = paths.clone();
        sorted.sort();
        assert_eq!(paths, sorted);
    }

    #[test]
    fn json_report_escapes_and_balances() {
        let result = AnalyzeResult {
            findings: vec![Finding {
                rule: "wallclock",
                path: "crates/x.rs".into(),
                line: 3,
                snippet: "let s = \"a\\b\";".into(),
                witness: "X::f: Instant::now".into(),
                fingerprint: "0123456789abcdef".into(),
            }],
            suppressed: 2,
            stale: vec![],
            files_scanned: 5,
            total: 3,
            inventory: vec![inventory::FileCount {
                path: "crates/x/src/lib.rs".into(),
                lines: 12,
                pub_items: 2,
            }],
        };
        let j = json_report(&result);
        assert!(j.contains("\\\"a\\\\b\\\""), "{j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(j.contains("\"suppressed\": 2"));
        assert!(j.contains("{\"crate\": \"dd-x\", \"lines\": 12, \"pub_items\": 2}"));
    }

    #[test]
    fn delta_table_reports_counts_and_stale() {
        let result = AnalyzeResult {
            findings: vec![],
            suppressed: 7,
            stale: vec![baseline::BaselineEntry {
                rule: "std-sync".into(),
                fp: "deadbeefdeadbeef".into(),
                path: "crates/gone.rs".into(),
                justification: "obsolete".into(),
            }],
            files_scanned: 40,
            total: 7,
            inventory: vec![],
        };
        let t = delta_table(&result);
        assert!(t.contains("7 suppressed"), "{t}");
        assert!(t.contains("stale baseline entry"), "{t}");
    }
}
