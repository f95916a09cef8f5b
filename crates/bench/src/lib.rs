//! # dd-bench
//!
//! Benchmark harness reproducing every table and figure of the paper's
//! evaluation (§3.4–§3.5). The `paper` binary regenerates them, one entry
//! per artifact (`paper <entry>...`; `paper` alone lists the entries);
//! `kernel_bench` times the individual kernels and gates their exact
//! counts (real seconds per layer come from the repo benchmark,
//! `benchmark/`); `perf_gate` diffs the summaries both write against the
//! committed baselines.

pub mod alloc_count;
pub mod summary;

use summary::Summary;

/// Root of the bench output tree: `$DD_BENCH_OUT` when set, else
/// `bench_results` relative to the current directory. The env var lets CI
/// (and anyone invoking the benches from outside the workspace root)
/// redirect the output instead of scattering files under the CWD.
pub fn bench_out_dir() -> std::path::PathBuf {
    match std::env::var_os("DD_BENCH_OUT") {
        Some(dir) if !dir.is_empty() => std::path::PathBuf::from(dir),
        _ => std::path::PathBuf::from("bench_results"),
    }
}

/// Write a compact metric summary to `<out>/summaries/<stem>.json` (see
/// [`bench_out_dir`]), returning the path. These are the files the perf
/// gate diffs against the committed baselines in `bench_results/baselines`.
pub fn write_summary(stem: &str, summary: &Summary) -> std::io::Result<std::path::PathBuf> {
    let dir = bench_out_dir().join("summaries");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{stem}.json"));
    std::fs::write(&path, summary.to_json())?;
    Ok(path)
}
