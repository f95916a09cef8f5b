//! Telemetry-based performance-regression gate.
//!
//! Compares freshly generated bench summaries (`<out>/summaries/*.json`,
//! written by the bench binaries — see `DD_BENCH_OUT`) against the
//! committed baselines in `bench_results/baselines/*.json`, applying the
//! per-metric tolerances of `bench_results/baselines/tolerances.json`.
//! Prints a markdown delta table (pipe it into `$GITHUB_STEP_SUMMARY` in
//! CI) and exits nonzero on any unexplained drift: changed communication
//! volume, charged flops, iteration counts, or phases appearing/vanishing.
//!
//! Usage:
//!
//! ```text
//! perf_gate [--only <stem>]...
//! ```
//!
//! The fresh summaries are read from `$DD_BENCH_OUT/summaries` (or
//! `bench_results/summaries`), the baselines from [`BASELINES`] and the
//! tolerances from its `tolerances.json` (exact match if the file does not
//! exist). `--only` (repeatable) restricts the gate to the named
//! baseline stems — for CI jobs that regenerate a subset of the
//! summaries. To accept intended changes, regenerate and copy the
//! summaries over the baselines (see EXPERIMENTS.md).
//!
//! `*_wall.json` baselines are skipped: those hold calibrated wall-clock
//! ratios, which are runner-dependent and gated softly by
//! `kernel_bench --gate-wall` instead of this exact diff.

use dd_bench::summary::{compare, markdown_table, Summary, Tolerances};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The committed baselines, relative to the workspace root.
const BASELINES: &str = "bench_results/baselines";

/// The `--only` stems.
fn parse_args() -> Vec<String> {
    let mut only = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--only" => only.push(
                args.next()
                    .unwrap_or_else(|| panic!("--only requires a value")),
            ),
            other => panic!("unknown argument `{other}`"),
        }
    }
    only
}

/// Is `path` a baseline the gate diffs? Every `*.json` of the baseline
/// directory but `tolerances.json` and the `*_wall.json` ratios, restricted
/// to the `only` stems when any are given. The directory holds baselines
/// and nothing else, so no other file needs a special case.
fn is_gated_baseline(path: &Path, only: &[String]) -> bool {
    let stem = path.file_stem().map(|s| s.to_string_lossy());
    path.extension().is_some_and(|x| x == "json")
        && path.file_name().is_some_and(|f| f != "tolerances.json")
        // `*_wall.json` holds calibrated wall-clock ratios — runner-dependent
        // by nature, gated softly by `kernel_bench --gate-wall` instead of
        // this exact diff.
        && stem.as_ref().is_some_and(|s| !s.ends_with("_wall"))
        && (only.is_empty() || stem.is_some_and(|s| only.iter().any(|o| *o == s)))
}

fn load_summary(path: &Path) -> Result<Summary, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Summary::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    let only = parse_args();
    let current_dir = dd_bench::bench_out_dir().join("summaries");
    let baseline_dir = PathBuf::from(BASELINES);
    let tol_path = baseline_dir.join("tolerances.json");
    let tol = match std::fs::read_to_string(&tol_path) {
        Ok(text) => match Tolerances::from_json(&text) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: bad tolerance file {}: {e}", tol_path.display());
                return ExitCode::FAILURE;
            }
        },
        Err(_) => Tolerances::default(),
    };

    let mut baselines: Vec<PathBuf> = match std::fs::read_dir(&baseline_dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| is_gated_baseline(p, &only))
            .collect(),
        Err(e) => {
            eprintln!(
                "error: cannot read baseline dir {}: {e}",
                baseline_dir.display()
            );
            return ExitCode::FAILURE;
        }
    };
    baselines.sort();
    if baselines.is_empty() {
        eprintln!(
            "error: no baselines in {} — run the benches and copy \
             <out>/summaries/*.json there first",
            baseline_dir.display()
        );
        return ExitCode::FAILURE;
    }

    println!("## Perf gate: telemetry drift vs committed baselines\n");
    let mut failed = false;
    for path in &baselines {
        let stem = path.file_stem().unwrap().to_string_lossy().to_string();
        let base = match load_summary(path) {
            Ok(s) => s,
            Err(e) => {
                println!("### `{stem}` — **unreadable baseline**: {e}\n");
                failed = true;
                continue;
            }
        };
        let cur_path = current_dir.join(format!("{stem}.json"));
        let cur = match load_summary(&cur_path) {
            Ok(s) => s,
            Err(e) => {
                println!(
                    "### `{stem}` — **missing current summary** \
                     (did the bench run with DD_BENCH_OUT set?): {e}\n"
                );
                failed = true;
                continue;
            }
        };
        let deltas = compare(&cur, &base, &tol);
        failed |= deltas.iter().any(|d| !d.ok);
        println!("{}", markdown_table(&stem, &deltas));
    }

    if failed {
        println!("\n**Perf gate FAILED** — unexplained telemetry drift.");
        println!(
            "If the change is intended, regenerate the baselines \
             (see EXPERIMENTS.md, \"Perf gate\") and commit them."
        );
        ExitCode::FAILURE
    } else {
        println!("\nPerf gate passed: all summaries within tolerance.");
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gated(names: &[&str], only: &[&str]) -> Vec<String> {
        let only: Vec<String> = only.iter().map(|s| s.to_string()).collect();
        names
            .iter()
            .filter(|n| is_gated_baseline(Path::new(BASELINES).join(n).as_path(), &only))
            .map(|n| n.to_string())
            .collect()
    }

    /// Summaries are gated; the tolerance file, wall ratios and files that
    /// are not JSON are not, and `--only` keeps the named stems alone.
    #[test]
    fn only_summaries_are_gated() {
        let names = [
            "fig12_classical.json",
            "kernels.json",
            "kernels_wall.json",
            "tolerances.json",
            "serve.json",
            "README.md",
            "notes.txt",
            "kernels.json.orig",
        ];
        assert_eq!(
            gated(&names, &[]),
            ["fig12_classical.json", "kernels.json", "serve.json"]
        );
        assert_eq!(gated(&names, &["kernels"]), ["kernels.json"]);
        assert_eq!(
            gated(&names, &["kernels_wall", "tolerances"]),
            [] as [&str; 0]
        );
    }

    /// Every file committed in the baseline directory is a summary the
    /// gate can read, or one the filter skips: a stray file there (the
    /// code-size report was one) fails here before it fails the gate.
    #[test]
    fn every_committed_baseline_is_a_readable_summary() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(BASELINES);
        let mut gated = 0;
        for entry in std::fs::read_dir(&dir).expect("baseline directory") {
            let path = entry.expect("directory entry").path();
            if is_gated_baseline(&path, &[]) {
                load_summary(&path).unwrap_or_else(|e| panic!("not a summary: {e}"));
                gated += 1;
            }
        }
        assert!(gated > 0, "no baseline in {}", dir.display());
    }
}
