//! # dd-bench
//!
//! Benchmark harness reproducing every table and figure of the paper's
//! evaluation (§3.4–§3.5). Each `fig*` binary regenerates one artifact;
//! `kernel_bench` times the individual kernels and gates their exact
//! counts (real seconds per layer come from the repo benchmark,
//! `benchmark/`).
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig1_convergence` | Fig. 1 — basic vs advanced preconditioning |
//! | `fig3_sparsity` | Figs. 3–4 — Z and E sparsity patterns |
//! | `fig5_masters` | Fig. 5 — master elections and load balance |
//! | `fig7_elasticity_convergence` | Fig. 7 — GMRES(40), RAS vs A-DEF1 |
//! | `fig8_strong_scaling` | Fig. 8 — strong scaling tables (2D & 3D elasticity) |
//! | `fig10_weak_scaling` | Fig. 10 — weak scaling tables (2D & 3D diffusion) |
//! | `fig11_coarse_operator` | Fig. 11 — coarse operator assembly statistics |
//! | `fig12_pipelined` | §3.5 — classical vs pipelined vs fused GMRES |
//! | `ablation_overlap` | overlap width δ sweep |
//! | `ablation_nu` | deflation count ν sweep |
//! | `ablation_assembly` | index-free vs natural gatherv assembly |
//! | `ablation_coarse_space` | GenEO vs Nicolaides coarse spaces |
//! | `ablation_adef` | A-DEF1 vs A-DEF2 coarse-solve cost |
//! | `ablation_ritz` | §4 outlook — a-posteriori Ritz deflation |
//! | `ablation_network` | α–β network sensitivity of the phases |
//!
//! Absolute times are *virtual* (see `dd-comm`): the paper ran on 16384
//! Curie cores; this harness models the same communication patterns with an
//! α–β network model and per-rank thread-CPU compute time. Shapes (who
//! wins, where crossovers fall) are the reproduction target, not absolute
//! seconds.

pub mod alloc_count;
pub mod summary;

use dd_comm::{World, WorldTrace};
use dd_core::{
    decompose, problem::presets, try_run_spmd, Decomposition, Problem, SpmdOpts, SpmdReport,
};
use dd_mesh::{refine::uniform_refine_n, Mesh};
use dd_part::partition_mesh_rcb;
use std::sync::Arc;

pub use summary::{compare, markdown_table, Summary, Tolerances};

/// A named, decomposed problem instance.
pub struct Workload {
    pub name: String,
    pub decomp: Arc<Decomposition>,
    pub nparts: usize,
}

/// Build a 2D heterogeneous-diffusion workload (the paper's weak-scaling
/// problem; paper order: P4 in 2D).
pub fn diffusion_2d(
    cells: usize,
    refines: usize,
    order: usize,
    nparts: usize,
    delta: usize,
) -> Workload {
    let mesh = uniform_refine_n(&Mesh::unit_square(cells, cells), refines);
    let part = partition_mesh_rcb(&mesh, nparts);
    let problem = presets::heterogeneous_diffusion(order);
    build(
        mesh,
        problem,
        part,
        nparts,
        delta,
        format!("2D-P{order} diffusion"),
    )
}

/// 3D heterogeneous diffusion (paper order: P2 in 3D).
pub fn diffusion_3d(cells: usize, order: usize, nparts: usize, delta: usize) -> Workload {
    let mesh = Mesh::unit_cube(cells, cells, cells);
    let part = partition_mesh_rcb(&mesh, nparts);
    let problem = presets::heterogeneous_diffusion(order);
    build(
        mesh,
        problem,
        part,
        nparts,
        delta,
        format!("3D-P{order} diffusion"),
    )
}

/// 2D heterogeneous elasticity on a cantilever (paper: P3 in 2D).
pub fn elasticity_2d(
    cells_x: usize,
    cells_y: usize,
    order: usize,
    nparts: usize,
    delta: usize,
) -> Workload {
    let mesh = Mesh::rectangle(cells_x, cells_y, 5.0, 1.0);
    let part = partition_mesh_rcb(&mesh, nparts);
    let problem = presets::heterogeneous_elasticity(order, 2);
    build(
        mesh,
        problem,
        part,
        nparts,
        delta,
        format!("2D-P{order} elasticity"),
    )
}

/// 3D heterogeneous elasticity on a bar (paper: tripod, P2).
pub fn elasticity_3d(cells: usize, order: usize, nparts: usize, delta: usize) -> Workload {
    let mesh = Mesh::box3d(2 * cells, cells, cells, 2.0, 1.0, 1.0);
    let part = partition_mesh_rcb(&mesh, nparts);
    let problem = presets::heterogeneous_elasticity(order, 3);
    build(
        mesh,
        problem,
        part,
        nparts,
        delta,
        format!("3D-P{order} elasticity"),
    )
}

fn build(
    mesh: Mesh,
    problem: Problem,
    part: Vec<u32>,
    nparts: usize,
    delta: usize,
    name: String,
) -> Workload {
    let decomp = Arc::new(decompose(&mesh, &problem, &part, nparts, delta));
    Workload {
        name,
        decomp,
        nparts,
    }
}

/// One row of the Figure 8 / Figure 10 scaling tables, aggregated over
/// ranks (max virtual time per phase = modeled parallel time).
#[derive(Clone, Debug)]
pub struct ScalingRow {
    pub n: usize,
    pub factorization: f64,
    pub deflation: f64,
    pub solution: f64,
    pub coarse: f64,
    pub iterations: usize,
    pub total: f64,
    pub dofs: usize,
    pub dim_e: usize,
    pub nnz_e_factor: usize,
    pub avg_neighbors: f64,
    pub converged: bool,
}

/// Aggregate per-rank reports into a table row.
pub fn aggregate(reports: &[SpmdReport], dofs: usize) -> ScalingRow {
    let fmax = |f: fn(&SpmdReport) -> f64| reports.iter().map(f).fold(0.0f64, f64::max);
    ScalingRow {
        n: reports.len(),
        factorization: fmax(|r| r.t_factorization),
        deflation: fmax(|r| r.t_deflation),
        solution: fmax(|r| r.t_solution),
        coarse: fmax(|r| r.t_coarse),
        iterations: reports[0].iterations,
        total: fmax(|r| r.t_total),
        dofs,
        dim_e: reports[0].dim_e,
        nnz_e_factor: reports.iter().map(|r| r.nnz_e_factor).max().unwrap_or(0),
        avg_neighbors: reports.iter().map(|r| r.n_neighbors as f64).sum::<f64>()
            / reports.len() as f64,
        converged: reports.iter().all(|r| r.converged),
    }
}

/// Print a Figure 8/10 style table.
pub fn print_scaling_table(title: &str, rows: &[ScalingRow]) {
    println!("\n== {title} ==");
    println!(
        "{:>5} {:>14} {:>11} {:>10} {:>5} {:>10} {:>12}",
        "N", "Factorization", "Deflation", "Solution", "#it.", "Total", "#d.o.f."
    );
    for r in rows {
        println!(
            "{:>5} {:>13.2}s {:>10.2}s {:>9.2}s {:>5} {:>9.2}s {:>12} {}",
            r.n,
            r.factorization,
            r.deflation,
            r.solution,
            r.iterations,
            r.total,
            r.dofs,
            if r.converged { "" } else { "(NOT CONVERGED)" },
        );
    }
}

/// Print a Figure 11 style coarse-operator table.
pub fn print_coarse_table(title: &str, rows: &[(ScalingRow, usize)]) {
    println!("\n== {title} ==");
    println!(
        "{:>5} {:>3} {:>8} {:>14} {:>12} {:>10}",
        "N", "P", "dim(E)", "|O_i| (avg)", "nnz(E⁻¹)", "Time"
    );
    for (r, p) in rows {
        println!(
            "{:>5} {:>3} {:>8} {:>14.1} {:>12} {:>9.3}s",
            r.n, p, r.dim_e, r.avg_neighbors, r.nnz_e_factor, r.coarse
        );
    }
}

/// Pick a master count like the paper's Figure 11 (a few masters, growing
/// slowly with N).
pub fn masters_for(n: usize) -> usize {
    (n / 8).clamp(1, 16).max(if n >= 4 { 2 } else { 1 })
}

/// Run a workload through the SPMD driver (one thread per subdomain) and
/// return the per-rank reports.
pub fn run_workload(w: &Workload, opts: &SpmdOpts) -> Vec<SpmdReport> {
    run_workload_with_model(w, opts, dd_comm::CostModel::default())
}

/// One rank's solve, for the fault-oblivious drivers: any error is a bug.
fn solve_report(
    decomp: &Decomposition,
    comm: &dd_comm::Communicator,
    opts: &SpmdOpts,
) -> SpmdReport {
    let s = try_run_spmd(decomp, comm, opts).expect("SPMD solve failed");
    s.report
}

/// [`run_workload`] with an explicit network cost model (used by the
/// network-sensitivity ablation).
pub fn run_workload_with_model(
    w: &Workload,
    opts: &SpmdOpts,
    model: dd_comm::CostModel,
) -> Vec<SpmdReport> {
    let decomp = Arc::clone(&w.decomp);
    let opts = opts.clone();
    World::run(w.nparts, model, move |comm| {
        solve_report(&decomp, comm, &opts)
    })
}

/// [`run_workload`] with telemetry: returns the per-rank reports plus the
/// merged deterministic [`WorldTrace`] (see `dd_comm::trace`).
pub fn run_workload_traced(w: &Workload, opts: &SpmdOpts) -> (Vec<SpmdReport>, WorldTrace) {
    let decomp = Arc::clone(&w.decomp);
    let opts = opts.clone();
    World::run_traced(w.nparts, dd_comm::CostModel::default(), move |comm| {
        solve_report(&decomp, comm, &opts)
    })
}

/// Print the per-phase communication telemetry of a traced run: message
/// and byte counts summed over ranks, split by point-to-point vs
/// collective and by collective class (§3.2).
pub fn print_telemetry_table(title: &str, trace: &WorldTrace) {
    println!("\n== {title} (telemetry, N = {}) ==", trace.n_ranks());
    println!(
        "{:>18} {:>9} {:>12} {:>9} {:>9} {:>12} {:>14}",
        "Phase", "P2P msgs", "P2P bytes", "Coll(eq)", "Coll(v)", "Coll bytes", "Flops"
    );
    for name in trace.phase_names() {
        let c = trace.phase_totals(&name);
        println!(
            "{:>18} {:>9} {:>12} {:>9} {:>9} {:>12} {:>14}",
            name,
            c.sends,
            c.send_bytes,
            c.collectives_eq,
            c.collectives_v,
            c.collective_bytes,
            c.flops,
        );
    }
}

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

/// Write the full telemetry JSON of a traced run to
/// `<out>/telemetry/<stem>.json` (created as needed; see
/// [`bench_out_dir`]), returning the path. Full JSON includes virtual
/// times; use [`WorldTrace::canonical_json`] for the deterministic subset.
pub fn write_telemetry(stem: &str, trace: &WorldTrace) -> std::io::Result<std::path::PathBuf> {
    let dir = bench_out_dir().join("telemetry");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{stem}.json"));
    std::fs::write(&path, trace.to_json())?;
    Ok(path)
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

/// Minimal ASCII line chart for the bench binaries' "figure" outputs: one
/// row per series point, bar length proportional to the value.
pub fn ascii_chart(title: &str, series: &[(&str, Vec<(usize, f64)>)], unit: &str) {
    println!("\n-- {title} --");
    let max = series
        .iter()
        .flat_map(|(_, pts)| pts.iter().map(|&(_, v)| v))
        .fold(0.0f64, f64::max)
        .max(1e-300);
    for (name, pts) in series {
        println!("{name}:");
        for &(x, v) in pts {
            let w = ((v / max) * 50.0).round() as usize;
            println!("  {x:>6} | {} {v:.2} {unit}", "#".repeat(w));
        }
    }
}
