//! Tier-1 gate: the real workspace must pass `dd-analyze`. Runs in
//! `cargo test`, so a planted wall-clock read, a raw mutex in the runtime,
//! a rank-divergent collective, or an allocation in a `dd:hot` region
//! fails the build before review.

#[test]
fn workspace_is_clean() {
    let root = dd_lint::workspace_root();
    let result = dd_lint::analyze(&root).expect("analyze pass must run");
    assert!(
        result.files_scanned > 20,
        "suspiciously few files scanned ({}) — wrong root {}?",
        result.files_scanned,
        root.display()
    );
    let report: Vec<String> = result.findings.iter().map(|f| f.to_string()).collect();
    assert!(
        report.is_empty(),
        "dd-analyze findings:\n{}",
        report.join("\n")
    );
    assert!(
        result.stale.is_empty(),
        "stale dd-analyze.baseline entries:\n{}",
        result
            .stale
            .iter()
            .map(|e| e.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The audited exceptions themselves must still exist.
    assert!(
        result.suppressed >= 3,
        "expected audited baseline exceptions to match"
    );
}

/// Self-check: the analyzer's own crate must satisfy the invariants it
/// enforces — no baseline, no markers, nothing to suppress.
#[test]
fn analyzer_is_clean_on_itself() {
    let root = dd_lint::workspace_root().join("crates/lint");
    let files = dd_lint::collect_models(&root).expect("lint crate must parse");
    assert!(
        files.iter().any(|f| f.path.ends_with("flow.rs")),
        "expected to scan the analyzer's own sources"
    );
    let refs = dd_lint::collect_references(&root).expect("lint tests must parse");
    let findings = dd_lint::run_rules(&files, &refs);
    let report: Vec<String> = findings.iter().map(|f| f.to_string()).collect();
    assert!(
        report.is_empty(),
        "dd-analyze flags its own crate:\n{}",
        report.join("\n")
    );
}
