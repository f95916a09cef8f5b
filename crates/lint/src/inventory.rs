//! Code size and public surface: the per-file inventory the `--json`
//! report and the `--summary` table carry, and rule `unreferenced-pub`.
//!
//! Both read the same token models as the other rules. A file's size is
//! its non-blank lines outside test code (`#[cfg(test)]` items, `#[test]`
//! functions, test-only files), comments included. Its public items are
//! the bare-`pub` fns, types (`struct`, `enum`, `union`, `trait`, `type`),
//! consts and statics, plus the methods of its public traits and the
//! variants of its public enums.
//!
//! `unreferenced-pub` flags a public fn, type, const or static whose name
//! occurs as an identifier nowhere but in declarations, in `use` lists
//! (a re-export is not a use) and in its own crate's `#[cfg(test)]` code —
//! across the workspace (crates' `tests/` directories included), `tests/`,
//! `examples/`, `benchmark/src` and the code fences of doc comments. The match is by name, not by path: it may keep
//! a dead item whose name is used elsewhere, but it never flags a used
//! one.

use crate::lexer::{lex, TokKind};
use crate::model::FileModel;
use crate::Finding;
use std::collections::{BTreeMap, HashMap, HashSet};

/// What a public item is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ItemKind {
    Fn,
    Type,
    Const,
    /// A method declared in a public trait.
    TraitMethod,
    /// A variant of a public enum.
    Variant,
}

/// One public item.
#[derive(Debug, Clone)]
struct PubItem {
    name: String,
    kind: ItemKind,
    /// Token index of the item's name.
    tok: usize,
}

/// Size and public surface of one file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileCount {
    pub path: String,
    /// Non-blank lines outside test code.
    pub lines: usize,
    pub pub_items: usize,
}

/// The package a workspace-relative path belongs to: `dd-geneo` for the
/// root `src/`, `dd-<dir>` for `crates/<dir>/`.
fn crate_of(path: &str) -> String {
    match path.strip_prefix("crates/") {
        Some(rest) => format!("dd-{}", rest.split('/').next().unwrap_or(rest)),
        None => "dd-geneo".to_string(),
    }
}

/// Per-file line and public-item counts, in path order.
pub fn count_files(files: &[FileModel]) -> Vec<FileCount> {
    files
        .iter()
        .map(|m| FileCount {
            path: m.path.clone(),
            lines: nontest_lines(m),
            pub_items: pub_items(m).len(),
        })
        .collect()
}

/// [`count_files`] summed per crate: `(crate, lines, public items)`.
pub fn per_crate(counts: &[FileCount]) -> Vec<(String, usize, usize)> {
    let mut by: BTreeMap<String, (usize, usize)> = BTreeMap::new();
    for c in counts {
        let e = by.entry(crate_of(&c.path)).or_default();
        e.0 += c.lines;
        e.1 += c.pub_items;
    }
    by.into_iter().map(|(k, (l, p))| (k, l, p)).collect()
}

/// Non-blank lines of `m` outside test code.
fn nontest_lines(m: &FileModel) -> usize {
    if m.is_test_file {
        return 0;
    }
    let mut test = vec![false; m.raw_lines.len() + 1];
    let fn_spans = m
        .fns
        .iter()
        .filter(|f| f.is_test)
        .filter_map(|f| f.body.map(|(_, b)| (f.fn_tok, b)));
    for (a, b) in m.test_spans.iter().copied().chain(fn_spans) {
        for l in m.line_of(a)..=m.line_of(b) {
            if let Some(t) = test.get_mut(l as usize) {
                *t = true;
            }
        }
    }
    m.raw_lines
        .iter()
        .enumerate()
        .filter(|(i, l)| !l.trim().is_empty() && !test[i + 1])
        .count()
}

/// The public items of `m` outside test code, in source order.
fn pub_items(m: &FileModel) -> Vec<PubItem> {
    let toks = &m.toks;
    let ident = |i: usize| toks.get(i).filter(|t| t.kind == TokKind::Ident);
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident("pub") || m.in_test(i) {
            continue;
        }
        // Skip qualifiers: `pub const fn`, `pub unsafe extern "C" fn`.
        let mut j = i + 1;
        while let Some(t) = ident(j) {
            let qualifier = matches!(t.text.as_str(), "unsafe" | "async" | "extern")
                || (t.text == "const" && ident(j + 1).is_some_and(|n| n.text == "fn"));
            if !qualifier {
                break;
            }
            j += 1;
            if toks.get(j).is_some_and(|t| t.kind == TokKind::Str) {
                j += 1;
            }
        }
        let Some(kw) = ident(j) else { continue };
        let mut name_at = j + 1;
        if kw.text == "static" && ident(name_at).is_some_and(|t| t.text == "mut") {
            name_at += 1;
        }
        let kind = match kw.text.as_str() {
            "fn" => ItemKind::Fn,
            "struct" | "enum" | "union" | "trait" | "type" => ItemKind::Type,
            "const" | "static" => ItemKind::Const,
            _ => continue,
        };
        let Some(name) = ident(name_at) else { continue };
        out.push(PubItem {
            name: name.text.clone(),
            kind,
            tok: name_at,
        });
        if kw.text == "enum" || kw.text == "trait" {
            out.extend(members(m, name_at, kw.text == "enum"));
        }
    }
    out
}

/// The variants of the enum, or the methods of the trait, whose name is at
/// token `name_at`.
fn members(m: &FileModel, name_at: usize, is_enum: bool) -> Vec<PubItem> {
    let toks = &m.toks;
    let Some(open) = (name_at..toks.len()).find(|&k| toks[k].is_open('{')) else {
        return Vec::new();
    };
    let close = m.close_of[open].min(toks.len());
    let mut out = Vec::new();
    let mut k = open + 1;
    // Enum: a variant name starts the body and follows each `,` at depth 1.
    let mut expect_variant = true;
    while k < close {
        let t = &toks[k];
        if t.is_punct("#") && toks.get(k + 1).is_some_and(|t| t.is_open('[')) {
            k = m.close_of[k + 1].max(k + 1) + 1;
            continue;
        }
        if is_enum && expect_variant && t.kind == TokKind::Ident {
            out.push(PubItem {
                name: t.text.clone(),
                kind: ItemKind::Variant,
                tok: k,
            });
            expect_variant = false;
        } else if !is_enum
            && t.is_ident("fn")
            && toks.get(k + 1).is_some_and(|n| n.kind == TokKind::Ident)
        {
            out.push(PubItem {
                name: toks[k + 1].text.clone(),
                kind: ItemKind::TraitMethod,
                tok: k + 1,
            });
        } else if t.is_punct(",") {
            expect_variant = true;
        }
        k = if t.kind == TokKind::Open {
            m.close_of[k].max(k) + 1
        } else {
            k + 1
        };
    }
    out
}

/// Where a name occurs outside declarations and `use` lists: in non-test
/// code anywhere, or only in the test code of these crates.
#[derive(Default)]
struct Uses {
    outside_tests: bool,
    test_crates: HashSet<String>,
}

/// Token indices of `m` that declare a name or sit in a `use` list with
/// no `as` rename.
fn non_uses(m: &FileModel) -> HashSet<usize> {
    const DECL: [&str; 9] = [
        "fn", "struct", "enum", "union", "trait", "type", "const", "static", "mod",
    ];
    let toks = &m.toks;
    let mut out = HashSet::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Ident && DECL.contains(&t.text.as_str()) {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            out.insert(j);
        }
        if t.is_ident("use") {
            let end = (i..toks.len())
                .find(|&k| toks[k].is_punct(";"))
                .unwrap_or(toks.len());
            if !toks[i..end].iter().any(|t| t.is_ident("as")) {
                out.extend(i..end);
            }
        }
    }
    out
}

/// The identifiers in the code fences of `m`'s doc comments.
fn doc_fence_idents(m: &FileModel) -> Vec<String> {
    let mut code = String::new();
    let mut open = false;
    for line in &m.raw_lines {
        let t = line.trim_start();
        let Some(doc) = t.strip_prefix("///").or_else(|| t.strip_prefix("//!")) else {
            open = false;
            continue;
        };
        let doc = doc.strip_prefix(' ').unwrap_or(doc);
        if doc.trim_start().starts_with("```") {
            open = !open;
        } else if open {
            code.push_str(doc.strip_prefix('#').unwrap_or(doc));
            code.push('\n');
        }
    }
    lex(&code)
        .toks
        .into_iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text)
        .collect()
}

/// Rule `unreferenced-pub` over the workspace `files`, with `refs` (the
/// integration tests, examples and benchmark sources) read for uses only.
pub fn rule_unreferenced_pub(files: &[FileModel], refs: &[FileModel]) -> Vec<Finding> {
    let mut uses: HashMap<String, Uses> = HashMap::new();
    for (m, is_ref) in files
        .iter()
        .map(|m| (m, false))
        .chain(refs.iter().map(|m| (m, true)))
    {
        let skip = non_uses(m);
        let krate = crate_of(&m.path);
        // A crate's integration tests, benches and examples use it from
        // outside, as `tests/` does the workspace.
        let outside = is_ref
            || ["/tests/", "/benches/", "/examples/"]
                .iter()
                .any(|d| m.path.contains(d));
        for (i, t) in m.toks.iter().enumerate() {
            if t.kind != TokKind::Ident || skip.contains(&i) {
                continue;
            }
            let u = uses.entry(t.text.clone()).or_default();
            if outside || !m.in_test(i) {
                u.outside_tests = true;
            } else {
                u.test_crates.insert(krate.clone());
            }
        }
        for name in doc_fence_idents(m) {
            uses.entry(name).or_default().outside_tests = true;
        }
    }
    let mut out = Vec::new();
    for m in files {
        let krate = crate_of(&m.path);
        for item in pub_items(m) {
            if matches!(item.kind, ItemKind::TraitMethod | ItemKind::Variant) {
                continue;
            }
            let used = uses
                .get(&item.name)
                .is_some_and(|u| u.outside_tests || u.test_crates.iter().any(|c| *c != krate));
            if used {
                continue;
            }
            let owner = m
                .impls
                .iter()
                .filter(|im| im.body.0 <= item.tok && item.tok <= im.body.1)
                .min_by_key(|im| im.body.1 - im.body.0)
                .map_or(String::new(), |im| format!("{}::", im.owner));
            let line = m.line_of(item.tok);
            out.push(Finding {
                rule: "unreferenced-pub",
                path: m.path.clone(),
                line,
                snippet: m.raw_line(line).trim().to_string(),
                witness: format!(
                    "{owner}{}: public, but named nowhere outside its declaration and {krate}'s tests",
                    item.name
                ),
                fingerprint: String::new(),
            });
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
    fn counts_lines_and_public_items_outside_tests() {
        let m = file(
            "crates/solver/src/x.rs",
            "//! Doc.\n\
             \n\
             pub fn a() {}\n\
             pub(crate) fn b() {}\n\
             pub enum E { One, Two(u8), #[default] Three { x: u8 } }\n\
             pub trait T { fn m(&self); fn d(&self) {} }\n\
             pub const fn c() -> u8 { 0 }\n\
             pub static mut S: u8 = 0;\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 pub fn hidden() {}\n\
             }\n",
        );
        let names: Vec<(String, ItemKind)> = pub_items(&m)
            .into_iter()
            .map(|i| (i.name, i.kind))
            .collect();
        let want = [
            ("a", ItemKind::Fn),
            ("E", ItemKind::Type),
            ("One", ItemKind::Variant),
            ("Two", ItemKind::Variant),
            ("Three", ItemKind::Variant),
            ("T", ItemKind::Type),
            ("m", ItemKind::TraitMethod),
            ("d", ItemKind::TraitMethod),
            ("c", ItemKind::Fn),
            ("S", ItemKind::Const),
        ];
        let want: Vec<(String, ItemKind)> = want.iter().map(|(n, k)| (n.to_string(), *k)).collect();
        assert_eq!(names, want);
        let counts = count_files(std::slice::from_ref(&m));
        assert_eq!(counts[0].lines, 7, "{counts:?}");
        assert_eq!(counts[0].pub_items, 10);
        assert_eq!(per_crate(&counts), vec![("dd-solver".to_string(), 7, 10)]);
    }

    #[test]
    fn unreferenced_pub_flags_only_names_used_nowhere_else() {
        let lib = file(
            "crates/linalg/src/lib.rs",
            "pub use m::{dead, reexported_only};\n\
             impl M { pub fn dead(&self) {} pub fn used(&self) {} pub fn in_tests(&self) {} \
             pub fn other_crate_tests(&self) {} pub fn in_doc(&self) {} pub fn in_bench(&self) {} \
             pub fn renamed(&self) {} pub fn reexported_only(&self) {} }\n\
             /// ```\n\
             /// m.in_doc();\n\
             /// ```\n\
             fn caller(m: &M) { m.used(); }\n\
             #[cfg(test)]\n\
             mod tests { fn t(m: &M) { m.in_tests(); m.dead(); } }\n",
        );
        let core = file(
            "crates/core/src/lib.rs",
            "use dd_linalg::renamed as r;\n\
             #[cfg(test)]\n\
             mod tests { fn t(m: &M) { m.other_crate_tests(); } }\n",
        );
        let bench = file("benchmark/src/main.rs", "fn main() { m.in_bench(); }\n");
        let got = rule_unreferenced_pub(&[lib, core], &[bench]);
        let flagged: Vec<&str> = got
            .iter()
            .map(|f| f.witness.split(": ").next().unwrap_or(""))
            .collect();
        assert_eq!(
            flagged,
            ["M::dead", "M::in_tests", "M::reexported_only"],
            "{got:?}"
        );
    }
}
