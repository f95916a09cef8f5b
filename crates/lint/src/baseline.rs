//! Fingerprinted finding baseline.
//!
//! Replaces the substring-matched `dd-lint.allow` with a machine-checked
//! format: each entry names a rule and the FNV-1a fingerprint of one
//! specific finding. Fingerprints hash `rule | path | witness` — the
//! witness carries the enclosing item and a token-rendered snippet but
//! **no line number**, so entries survive unrelated edits that shift
//! lines yet go stale the moment the underlying code changes shape.
//! Stale entries fail CI, exactly as before.
//!
//! File format (one entry per line):
//!
//! ```text
//! rule fp:0123456789abcdef path # justification
//! ```

use crate::Finding;

/// FNV-1a 64-bit — stable, dependency-free, good enough for a few dozen
/// baseline entries.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprint of a finding: hash of `rule|path|witness` (line-free).
pub fn fingerprint(rule: &str, path: &str, witness: &str) -> String {
    format!(
        "{:016x}",
        fnv1a(format!("{rule}|{path}|{witness}").as_bytes())
    )
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineEntry {
    pub rule: String,
    pub fp: String,
    pub path: String,
    pub justification: String,
}

impl BaselineEntry {
    pub fn render(&self) -> String {
        format!(
            "{} fp:{} {} # {}",
            self.rule, self.fp, self.path, self.justification
        )
    }
}

/// Parse the baseline file. Lines starting with `#` and blank lines are
/// comments; anything else must parse or the whole run fails (a silently
/// ignored entry is a silently disabled suppression).
pub fn parse(text: &str) -> Result<Vec<BaselineEntry>, String> {
    let mut out = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (head, justification) = match line.split_once(" # ") {
            Some((h, j)) => (h.trim(), j.trim().to_string()),
            None => (line, String::new()),
        };
        let parts: Vec<&str> = head.split_whitespace().collect();
        let [rule, fp, path] = parts[..] else {
            return Err(format!(
                "baseline line {}: expected `rule fp:HEX path`",
                ln + 1
            ));
        };
        let Some(fp) = fp.strip_prefix("fp:") else {
            return Err(format!(
                "baseline line {}: fingerprint must start with `fp:`",
                ln + 1
            ));
        };
        if fp.len() != 16 || !fp.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(format!(
                "baseline line {}: malformed fingerprint `{fp}`",
                ln + 1
            ));
        }
        out.push(BaselineEntry {
            rule: rule.to_string(),
            fp: fp.to_ascii_lowercase(),
            path: path.to_string(),
            justification,
        });
    }
    Ok(out)
}

/// Outcome of matching findings against the baseline.
pub struct Applied {
    /// Findings not covered by any entry — these fail the gate.
    pub active: Vec<Finding>,
    /// Number of findings suppressed by entries.
    pub suppressed: usize,
    /// Entries that matched nothing — these also fail the gate.
    pub stale: Vec<BaselineEntry>,
}

/// Split findings into active vs. suppressed and report stale entries.
pub fn apply(findings: Vec<Finding>, entries: &[BaselineEntry]) -> Applied {
    let mut used = vec![false; entries.len()];
    let mut active = Vec::new();
    let mut suppressed = 0usize;
    for f in findings {
        let hit = entries
            .iter()
            .position(|e| e.rule == f.rule && e.fp == f.fingerprint);
        match hit {
            Some(i) => {
                used[i] = true;
                suppressed += 1;
            }
            None => active.push(f),
        }
    }
    let stale = entries
        .iter()
        .zip(&used)
        .filter(|(_, &u)| !u)
        .map(|(e, _)| e.clone())
        .collect();
    Applied {
        active,
        suppressed,
        stale,
    }
}

/// Render a full baseline file with its header comment.
pub fn render(entries: &[BaselineEntry]) -> String {
    let mut s = String::from(
        "# Audited exceptions to the dd-analyze invariant pass.\n\
         # Format: rule fp:HEX path # justification\n\
         # Fingerprints hash rule|path|witness (line-free): entries survive line\n\
         # shifts but go stale when the flagged code changes shape. Stale entries\n\
         # fail CI. Regenerate one with: cargo run -p dd-lint --bin dd-analyze -- --print-fingerprints\n\n",
    );
    for e in entries {
        s.push_str(&e.render());
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(rule: &'static str, path: &str, witness: &str) -> Finding {
        let fp = fingerprint(rule, path, witness);
        Finding {
            rule,
            path: path.to_string(),
            line: 10,
            snippet: format!("snippet for {witness}"),
            witness: witness.to_string(),
            fingerprint: fp,
        }
    }

    #[test]
    fn fingerprint_is_stable_and_line_free() {
        let a = f("wallclock", "crates/bench/src/x.rs", "W::f: Instant::now");
        let mut b = a.clone();
        b.line = 999; // unrelated edit shifted lines
        assert_eq!(a.fingerprint, b.fingerprint);
        let c = f("wallclock", "crates/bench/src/x.rs", "W::g: Instant::now");
        assert_ne!(a.fingerprint, c.fingerprint);
    }

    #[test]
    fn parse_roundtrip_and_rejects_malformed() {
        let e = BaselineEntry {
            rule: "std-sync".into(),
            fp: "0123456789abcdef".into(),
            path: "crates/comm/src/comm.rs".into(),
            justification: "audited result cells".into(),
        };
        let parsed = parse(&render(std::slice::from_ref(&e))).unwrap();
        assert_eq!(parsed, vec![e]);
        assert!(parse("std-sync nofp crates/x.rs # j").is_err());
        assert!(parse("std-sync fp:xyz crates/x.rs # j").is_err());
    }

    #[test]
    fn apply_splits_active_suppressed_stale() {
        let covered = f("std-sync", "crates/comm/src/comm.rs", "C::new: Mutex::new");
        let fresh = f(
            "wallclock",
            "crates/core/src/spmd.rs",
            "S::go: Instant::now",
        );
        let entries = vec![
            BaselineEntry {
                rule: "std-sync".into(),
                fp: covered.fingerprint.clone(),
                path: covered.path.clone(),
                justification: "ok".into(),
            },
            BaselineEntry {
                rule: "std-sync".into(),
                fp: "deadbeefdeadbeef".into(),
                path: "crates/gone.rs".into(),
                justification: "stale".into(),
            },
        ];
        let got = apply(vec![covered, fresh.clone()], &entries);
        assert_eq!(got.suppressed, 1);
        assert_eq!(got.active.len(), 1);
        assert_eq!(got.active[0].fingerprint, fresh.fingerprint);
        assert_eq!(got.stale.len(), 1);
        assert_eq!(got.stale[0].justification, "stale");
    }
}
