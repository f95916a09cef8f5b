//! `dd-analyze` driver: run the workspace invariant pass and exit
//! non-zero on any finding not covered by `dd-analyze.baseline`, or on
//! any stale baseline entry.
//!
//! Flags:
//! * `--json PATH`      write the structured findings report, with the
//!   per-crate and per-file inventory (CI artifact)
//! * `--summary PATH`   append the markdown delta table and the per-crate
//!   inventory (CI step summary)
//! * `--print-fingerprints`  list every finding pre-baseline with its
//!   fingerprint, for authoring baseline entries

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    // Prefer the current directory when it looks like the workspace root
    // (CI runs from there); fall back to the compile-time layout.
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let root = if cwd.join("crates").is_dir() && cwd.join("Cargo.toml").is_file() {
        cwd
    } else {
        dd_lint::workspace_root()
    };

    let mut json_out: Option<PathBuf> = None;
    let mut summary_out: Option<PathBuf> = None;
    let mut print_fps = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json_out = args.next().map(PathBuf::from),
            "--summary" => summary_out = args.next().map(PathBuf::from),
            "--print-fingerprints" => print_fps = true,
            other => {
                eprintln!("dd-analyze: unknown flag `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }

    if print_fps {
        let models = dd_lint::collect_models(&root)
            .and_then(|files| Ok((files, dd_lint::collect_references(&root)?)));
        let (files, refs) = match models {
            Ok(m) => m,
            Err(e) => {
                eprintln!("dd-analyze: {e}");
                return ExitCode::FAILURE;
            }
        };
        for f in &dd_lint::run_rules(&files, &refs) {
            println!(
                "{} fp:{} {}  # {}",
                f.rule, f.fingerprint, f.path, f.witness
            );
        }
        return ExitCode::SUCCESS;
    }

    let result = match dd_lint::analyze(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("dd-analyze: {e}");
            return ExitCode::FAILURE;
        }
    };

    for f in &result.findings {
        println!("{f}");
    }
    for e in &result.stale {
        println!(
            "dd-analyze.baseline: stale entry — matches no finding, remove it: {}",
            e.render()
        );
    }
    println!(
        "dd-analyze: {} file(s), {} finding(s) active, {} suppressed by baseline",
        result.files_scanned,
        result.findings.len(),
        result.suppressed
    );

    if let Some(p) = json_out {
        if let Err(e) = std::fs::write(&p, dd_lint::json_report(&result)) {
            eprintln!("dd-analyze: writing {}: {e}", p.display());
            return ExitCode::FAILURE;
        }
    }
    if let Some(p) = summary_out {
        let table = dd_lint::delta_table(&result);
        let r = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&p)
            .and_then(|mut f| f.write_all(table.as_bytes()));
        if let Err(e) = r {
            eprintln!("dd-analyze: writing {}: {e}", p.display());
            return ExitCode::FAILURE;
        }
    }

    if result.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
