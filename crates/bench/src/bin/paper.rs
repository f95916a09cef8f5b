//! The paper's evaluation (§3.4–§3.5), one entry per table, figure or
//! design ablation: `paper <entry>...` runs the named entries in order.
//! With no entry, or an unknown one, it prints [`ENTRIES`] and exits
//! non-zero.
//!
//! Every entry prints its table and asserts the shape the paper reports.
//! The traced entries also write `<out>/telemetry/<stem>.json` and
//! `<out>/summaries/<stem>.json` (`<out>` is `$DD_BENCH_OUT`, else
//! `bench_results`; see [`dd_bench::bench_out_dir`]); `perf_gate` diffs the
//! summaries against the committed baselines.
//!
//! Absolute times are *virtual* (see `dd-comm`): the paper ran on 16384
//! Curie cores; this harness models the same communication patterns with an
//! α–β network model and per-rank thread-CPU compute time. Shapes (who
//! wins, where crossovers fall) are the reproduction target, not absolute
//! seconds.

use dd_bench::summary::Summary;
use dd_bench::{bench_out_dir, write_summary};
use dd_comm::{CostModel, PhaseCounters, World, WorldTrace};
use dd_core::coarse::{CoarseOperator, CoarseSpace};
use dd_core::geneo::{nicolaides_block, resize_block, try_deflation_block};
use dd_core::masters::{nonuniform_masters, uniform_masters, upper_triangular_loads};
use dd_core::{
    decompose, problem::presets, ritz_deflation, try_run_spmd, AbstractADef1, AbstractCoarse,
    AssemblyVariant, CoarseCache, CoarseSolve, Decomposition, GeneoOpts, Problem, RasPrecond,
    SolverKind, SpmdMultiSolution, SpmdOpts, SpmdReport, TwoLevelOpts, TwoLevelPrecond, Variant,
};
use dd_krylov::{try_gmres, GmresOpts, Preconditioner, SeqDot, Side, SolveResult};
use dd_mesh::Mesh;
use dd_part::partition_mesh_rcb;
use dd_serve::{try_serve, Payload, ResponseStore, ServeOpts, StreamCfg, Workload as Stream};
use dd_solver::Ordering;
use std::process::ExitCode;

/// An entry: its name, the paper artifact it regenerates, and its body.
type Entry = (&'static str, &'static str, fn());

/// `body: artifact` rows as [`Entry`]s named after their bodies.
macro_rules! entries {
    ($($body:ident: $artifact:literal,)*) => {
        &[$((stringify!($body), $artifact, $body as fn())),*]
    };
}

/// Every entry, under the name of the binary it used to be.
const ENTRIES: &[Entry] = entries![
    fig1_convergence: "Fig. 1 — basic vs advanced preconditioning",
    fig3_sparsity: "Figs. 3–4 — Z and E sparsity patterns",
    fig5_masters: "Fig. 5 — master elections and load balance",
    fig7_elasticity_convergence: "Fig. 7 — GMRES(40), RAS vs A-DEF1",
    fig8_strong_scaling: "Fig. 8 — strong scaling tables (2D & 3D elasticity)",
    fig10_weak_scaling: "Fig. 10 — weak scaling tables (2D & 3D diffusion)",
    fig11_coarse_operator: "Fig. 11 — coarse operator assembly statistics",
    fig12_pipelined: "§3.5 — classical vs fused pipelined GMRES",
    ablation_overlap: "overlap width δ sweep",
    ablation_nu: "deflation count ν sweep",
    ablation_assembly: "index-free vs natural gatherv assembly; redundant vs distributed coarse solve",
    ablation_coarse_space: "GenEO vs Nicolaides coarse spaces",
    ablation_adef: "§2.1 — A-DEF1 vs A-DEF2 coarse-solve cost",
    ablation_ritz: "§4 outlook — a-posteriori Ritz deflation",
    ablation_network: "α–β network sensitivity of the phases",
    serve_throughput: "one resident set-up amortized over a 32-RHS stream",
];

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let runs: Option<Vec<fn()>> = names
        .iter()
        .map(|name| ENTRIES.iter().find(|e| e.0 == name).map(|e| e.2))
        .collect();
    match runs {
        Some(runs) if !runs.is_empty() => {
            runs.iter().for_each(|run| run());
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("usage: paper <entry>...\n");
            for (name, artifact, _) in ENTRIES {
                eprintln!("  {name:<28} {artifact}");
            }
            ExitCode::FAILURE
        }
    }
}

// ------------------------------------------------------------ scaffolding

/// `mesh` cut into `n` subdomains by recursive coordinate bisection of the
/// element centroids, each grown by `delta` layers of overlap.
fn decomposed(mesh: &Mesh, problem: &Problem, n: usize, delta: usize) -> Decomposition {
    decompose(mesh, problem, &partition_mesh_rcb(mesh, n), n, delta)
}

/// GenEO keeping `nev` eigenvectors per subdomain.
fn geneo(nev: usize) -> GeneoOpts {
    GeneoOpts {
        nev,
        ..Default::default()
    }
}

/// The sequential two-level A-DEF1 preconditioner with [`geneo`]`(nev)`.
fn two_level(d: &Decomposition, nev: usize) -> TwoLevelPrecond<'_> {
    dd_core::two_level(
        d,
        &TwoLevelOpts {
            geneo: geneo(nev),
            ..Default::default()
        },
    )
}

/// Sequential GMRES on `A x = b` from `x = 0`, preconditioned by `p`.
fn solve<M: Preconditioner + ?Sized>(
    d: &Decomposition,
    p: &M,
    b: &[f64],
    opts: &GmresOpts,
) -> SolveResult {
    try_gmres(
        &d.a_global,
        p,
        &SeqDot,
        b,
        &vec![0.0; d.n_global],
        opts,
        None,
    )
    .expect("a sequential solve is never interrupted")
}

/// The sequential ablations' GMRES: to a relative 1e-6 in at most
/// `max_iters` iterations, without a residual history.
fn ablation_gmres(max_iters: usize) -> GmresOpts {
    GmresOpts {
        tol: 1e-6,
        max_iters,
        record_history: false,
        ..Default::default()
    }
}

/// GMRES on `d` under one-level RAS and under two-level A-DEF1 with 12
/// GenEO vectors per subdomain (Figs. 1 and 7): the two residual histories
/// printed side by side below `header`, every row or, for long ones, about
/// `max_rows` rows evenly spaced; then both results and dim(E).
fn one_vs_two_level(
    d: &Decomposition,
    opts: &GmresOpts,
    header: &str,
    max_rows: usize,
) -> (SolveResult, SolveResult, usize) {
    let ras = RasPrecond::build(d, Ordering::MinDegree);
    let one = solve(d, &ras, &d.rhs_global, opts);
    let tl = two_level(d, 12);
    let two = solve(d, &tl, &d.rhs_global, opts);
    println!("{header}");
    let cell = |h: &[f64], k: usize| h.get(k).map_or("         ".into(), |v| format!("{v:9.3e}"));
    let len = one.history.len().max(two.history.len());
    for k in (0..len).step_by((len / max_rows).max(1)) {
        println!(
            "{:4}  {}  {}",
            k,
            cell(&one.history, k),
            cell(&two.history, k)
        );
    }
    (one, two, tl.coarse().dim())
}

/// The SPMD runs' options: [`geneo`]`(nev)`, `masters` masters, and
/// left-preconditioned GMRES to a relative 1e-6 in at most `max_iters`
/// iterations.
fn spmd_opts(nev: usize, masters: usize, max_iters: usize) -> SpmdOpts {
    SpmdOpts {
        geneo: geneo(nev),
        n_masters: masters,
        gmres: GmresOpts {
            tol: 1e-6,
            max_iters,
            side: Side::Left,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// One traced SPMD solve of `d` (one rank per subdomain) over the network
/// `model`: the per-rank reports and solves, and the merged deterministic
/// trace (see `dd_comm::trace`). Any error is a bug: the entries inject no
/// faults.
fn run(
    d: &Decomposition,
    opts: &SpmdOpts,
    model: CostModel,
) -> (Vec<SpmdMultiSolution>, WorldTrace) {
    World::run_traced(d.n_subdomains(), model, |comm| {
        try_run_spmd(d, comm, opts).expect("SPMD solve failed")
    })
}

/// A trace's counters over every phase and rank.
fn run_totals(trace: &WorldTrace) -> PhaseCounters {
    let mut total = PhaseCounters::default();
    for p in trace.phase_names() {
        total.absorb(&trace.phase_totals(&p));
    }
    total
}

/// One row of the Figure 8 / 10 / 11 tables, aggregated over ranks (max
/// virtual time per phase = modeled parallel time).
struct ScalingRow {
    n: usize,
    factorization: f64,
    deflation: f64,
    solution: f64,
    coarse: f64,
    iterations: usize,
    total: f64,
    dofs: usize,
    dim_e: usize,
    nnz_e_factor: usize,
    avg_neighbors: f64,
    converged: bool,
    /// Halo factor: max local size over the ideal dofs/subdomain. The
    /// paper's subdomains carry 280k–2.7M dofs, so their halo factor is
    /// ≈1; at laptop scale it grows with N and dominates the efficiency
    /// loss.
    halo: f64,
}

/// Aggregate the per-rank reports of a run on `d` into a table row.
fn aggregate(sols: &[SpmdMultiSolution], d: &Decomposition) -> ScalingRow {
    let reports: Vec<_> = sols.iter().map(|s| &s.report).collect();
    let fmax = |f: fn(&SpmdReport) -> f64| reports.iter().map(|r| f(r)).fold(0.0f64, f64::max);
    let n = reports.len();
    let max_local = d.subdomains.iter().map(|s| s.n_local()).max().unwrap();
    ScalingRow {
        n,
        factorization: fmax(|r| r.t_factorization),
        deflation: fmax(|r| r.t_deflation),
        solution: fmax(|r| r.t_solution),
        coarse: fmax(|r| r.t_coarse),
        iterations: sols[0].solve.result.iterations,
        total: fmax(|r| r.t_total),
        dofs: d.n_global,
        dim_e: reports[0].dim_e,
        nnz_e_factor: reports.iter().map(|r| r.nnz_e_factor).max().unwrap_or(0),
        avg_neighbors: reports.iter().map(|r| r.n_neighbors as f64).sum::<f64>() / n as f64,
        converged: sols.iter().all(|s| s.solve.result.converged),
        halo: max_local as f64 / (d.n_global as f64 / n as f64),
    }
}

/// Pick a master count like the paper's Figure 11 (a few masters, growing
/// slowly with N).
fn masters_for(n: usize) -> usize {
    (n / 8).clamp(1, 16).max(if n >= 4 { 2 } else { 1 })
}

/// Solve `make(n)` for every `n` of `ns` (ascending) under
/// [`spmd_opts`]`(nev, masters_for(n), max_iters)`: one row per `n`, and
/// the trace of the largest.
fn sweep(
    ns: &[usize],
    make: impl Fn(usize) -> Decomposition,
    nev: usize,
    max_iters: usize,
) -> (Vec<ScalingRow>, WorldTrace) {
    let mut largest = None;
    let rows = ns
        .iter()
        .map(|&n| {
            let d = make(n);
            let opts = spmd_opts(nev, masters_for(n), max_iters);
            let (reports, trace) = run(&d, &opts, CostModel::default());
            largest = Some(trace);
            aggregate(&reports, &d)
        })
        .collect();
    (rows, largest.expect("a sweep runs at least one N"))
}

/// Write `trace` to `<out>/telemetry/<stem>.json` and its counter summary
/// plus `extras` to `<out>/summaries/<stem>.json`, printing each path;
/// without a trace the summary holds `extras` alone.
fn emit<K: AsRef<str>>(stem: &str, trace: Option<&WorldTrace>, extras: &[(K, f64)]) {
    let mut summary = match trace {
        Some(trace) => {
            let dir = bench_out_dir().join("telemetry");
            let path = dir.join(format!("{stem}.json"));
            match std::fs::create_dir_all(&dir)
                .and_then(|()| std::fs::write(&path, trace.to_json()))
            {
                Ok(()) => println!("telemetry: {}", path.display()),
                Err(e) => eprintln!("telemetry write failed: {e}"),
            }
            Summary::from_trace(stem, trace)
        }
        None => Summary::new(stem),
    };
    for (key, value) in extras {
        summary.insert(key.as_ref(), *value);
    }
    match write_summary(stem, &summary) {
        Ok(p) => println!("summary: {}", p.display()),
        Err(e) => eprintln!("summary write failed: {e}"),
    }
}

/// Figs. 8 and 10: the telemetry table of each sweep's largest run
/// (`(title, stem, rows, trace)`), then its files with the largest run's
/// iteration count and per-master factor size.
fn emit_largest(sweeps: &[(&str, &str, &[ScalingRow], &WorldTrace)]) {
    for (title, _, _, trace) in sweeps {
        print_telemetry_table(title, trace);
    }
    for (_, stem, rows, trace) in sweeps {
        let last = &rows[rows.len() - 1];
        emit(
            stem,
            Some(trace),
            &[
                ("iterations", last.iterations as f64),
                ("nnz_e_factor_per_master", last.nnz_e_factor as f64),
            ],
        );
    }
}

/// Print a Figure 8/10 style table.
fn print_scaling_table(title: &str, rows: &[ScalingRow]) {
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

/// Print a Figure 11 style coarse-operator table (`P` = [`masters_for`]).
fn print_coarse_table(title: &str, rows: &[ScalingRow]) {
    println!("\n== {title} ==");
    println!(
        "{:>5} {:>3} {:>8} {:>14} {:>12} {:>10}",
        "N", "P", "dim(E)", "|O_i| (avg)", "nnz(E⁻¹)", "Time"
    );
    for r in rows {
        println!(
            "{:>5} {:>3} {:>8} {:>14.1} {:>12} {:>9.3}s",
            r.n,
            masters_for(r.n),
            r.dim_e,
            r.avg_neighbors,
            r.nnz_e_factor,
            r.coarse
        );
    }
}

/// Print the per-phase communication telemetry of a traced run: message
/// and byte counts summed over ranks, split by point-to-point vs
/// collective and by collective class (§3.2).
fn print_telemetry_table(title: &str, trace: &WorldTrace) {
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

/// Minimal ASCII line chart for the "figure" outputs: one row per series
/// point, bar length proportional to the value.
fn ascii_chart(title: &str, series: &[(&str, Vec<(usize, f64)>)], unit: &str) {
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

// ---------------------------------------------------------------- entries

/// Figure 1: convergence of GMRES preconditioned by a "basic" (one-level
/// RAS) vs an "advanced" (two-level A-DEF1 with GenEO) domain decomposition
/// method on 16 subdomains of a highly heterogeneous diffusion problem.
///
/// Expected shape (paper): the basic method crawls/stalls, the advanced
/// method converges in a few tens of iterations regardless of the
/// 3·10⁶ coefficient contrast.
fn fig1_convergence() {
    let n_sub = 16;
    let problem = presets::heterogeneous_diffusion(1);
    let decomp = decomposed(&Mesh::unit_square(96, 96), &problem, n_sub, 1);
    println!(
        "# Figure 1 reproduction: {} dofs, {} subdomains, κ ∈ [1, 3e6]",
        decomp.n_global, n_sub
    );

    // The paper stops GMRES at a relative 1e-6 residual decrease.
    let opts = GmresOpts {
        tol: 1e-6,
        max_iters: 130,
        ..Default::default()
    };
    let header = "# iteration  basic(RAS)  advanced(A-DEF1)";
    let (basic, advanced, _) = one_vs_two_level(&decomp, &opts, header, usize::MAX);
    println!(
        "# basic: {} iterations (converged = {}); advanced: {} iterations (converged = {})",
        basic.iterations, basic.converged, advanced.iterations, advanced.converged
    );
    assert!(advanced.converged, "the advanced method must converge");
    assert!(
        advanced.iterations * 2 <= basic.iterations || !basic.converged,
        "shape check failed: advanced ({}) not clearly ahead of basic ({})",
        advanced.iterations,
        basic.iterations
    );
    println!("# SHAPE OK: advanced ≪ basic");
}

/// Figures 3–4: sparsity structure of the deflation matrix `Z` and the
/// coarse operator `E` for the paper's 4-subdomain toy chain
/// (`O_1 = {2}, O_2 = {1,3}, O_3 = {2,4}, O_4 = {3}`), plus the block
/// classification of Figure 4: blue blocks need only local computation,
/// red blocks need peer-to-peer transfers.
fn fig3_sparsity() {
    // A long thin strip split along x gives the chain topology.
    let mesh = Mesh::rectangle(40, 2, 20.0, 1.0);
    let decomp = decomposed(&mesh, &presets::uniform_diffusion(1), 4, 1);

    println!("# Figures 3-4 reproduction: 4-subdomain chain");
    for (i, s) in decomp.subdomains.iter().enumerate() {
        let nbrs: Vec<usize> = s.neighbors.iter().map(|l| l.j + 1).collect();
        println!("O_{} = {:?}", i + 1, nbrs);
    }
    let chain_ok = decomp.subdomains[0].neighbors.len() == 1
        && decomp.subdomains[1].neighbors.len() == 2
        && decomp.subdomains[2].neighbors.len() == 2
        && decomp.subdomains[3].neighbors.len() == 1;
    assert!(chain_ok, "decomposition is not the paper's chain");

    // Z pattern: rows = global dofs, 4 column blocks; report per-block
    // support and the duplicated rows (overlap).
    println!("\n# Z structure (Figure 3): per-block row support");
    let mut multiplicity = vec![0usize; decomp.n_global];
    for s in &decomp.subdomains {
        for &g in &s.l2g {
            multiplicity[g as usize] += 1;
        }
    }
    for (i, s) in decomp.subdomains.iter().enumerate() {
        let dup = s
            .l2g
            .iter()
            .filter(|&&g| multiplicity[g as usize] > 1)
            .count();
        println!(
            "block {}: {} rows, {} shared with neighbors (grey overlap rows)",
            i + 1,
            s.n_local(),
            dup
        );
    }

    // E pattern with blue/red classification (Figure 4).
    let tl = two_level(&decomp, 2);
    let e = &tl.coarse().e;
    let offs = &tl.coarse().space.offsets;
    println!("\n# E block pattern (Figure 4): B = local only, R = needs p2p, . = zero");
    let mut blue = 0;
    let mut red = 0;
    for i in 0..4 {
        let mut row = String::new();
        for j in 0..4 {
            let mut nz = false;
            for p in offs[i]..offs[i + 1] {
                for (c, v) in e.row(p) {
                    if c >= offs[j] && c < offs[j + 1] && v != 0.0 {
                        nz = true;
                    }
                }
            }
            row.push_str(if !nz {
                " . "
            } else if i == j {
                blue += 1;
                " B "
            } else {
                red += 1;
                " R "
            });
        }
        println!("  {row}");
    }
    println!("\n{blue} local (blue) blocks, {red} p2p (red) blocks");
    // Expected for the chain: 4 diagonal + 2×3 couplings.
    assert_eq!(blue, 4);
    assert_eq!(red, 6);
    println!("# SHAPE OK: matches the paper's toy pattern");
}

/// Max over min of per-group loads (the min clamped to 1).
fn spread(v: &[usize]) -> f64 {
    let mx = *v.iter().max().unwrap() as f64;
    let mn = *v.iter().min().unwrap() as f64;
    mx / mn.max(1.0)
}

/// Figure 5: distribution of E over the masters. Uniform vs non-uniform
/// election for N = 16, P = 4 (the paper's exact figure), plus a sweep
/// showing the non-uniform recurrence balancing the upper-triangular
/// value counts at larger N.
fn fig5_masters() {
    println!("# Figure 5 reproduction");
    let (n, p) = (16, 4);
    let uni = uniform_masters(n, p);
    let non = nonuniform_masters(n, p);
    println!("N = {n}, P = {p}");
    println!("uniform     masters (ranks): {uni:?}   (paper: [0, 4, 8, 12])");
    println!("non-uniform masters (ranks): {non:?}   (paper: [0, 2, 5, 8])");
    assert_eq!(uni, vec![0, 4, 8, 12]);
    assert_eq!(non, vec![0, 2, 5, 8]);

    println!("\nupper-triangular block loads per splitComm (balanced by the");
    println!("non-uniform election when assembling only the symmetric upper part):");
    println!("  uniform:     {:?}", upper_triangular_loads(n, &uni));
    println!("  non-uniform: {:?}", upper_triangular_loads(n, &non));

    println!("\n# load-balance sweep: max/min per-group loads");
    println!(
        "{:>6} {:>4} {:>10} {:>12}",
        "N", "P", "uniform", "non-uniform"
    );
    for (n, p) in [
        (16usize, 4usize),
        (64, 8),
        (256, 16),
        (1024, 32),
        (8192, 64),
    ] {
        let su = spread(&upper_triangular_loads(n, &uniform_masters(n, p)));
        let sn = spread(&upper_triangular_loads(n, &nonuniform_masters(n, p)));
        println!("{n:>6} {p:>4} {su:>10.2} {sn:>12.2}");
        assert!(sn <= su, "non-uniform worse than uniform at N={n}");
    }
    println!("# SHAPE OK: non-uniform election balances the symmetric assembly");
}

/// Figure 7: convergence of GMRES(40) preconditioned by `P_RAS` vs
/// `P_A-DEF1` on the 2D heterogeneous linear elasticity problem
/// (paper: 1024 subdomains, P3 elements; here scaled to 16 subdomains).
///
/// Expected shape: RAS does not reach 10⁻⁶ within hundreds of iterations,
/// while A-DEF1 converges in a few tens.
fn fig7_elasticity_convergence() {
    // P3 elasticity on a layered cantilever, as in the paper (E contrast
    // 2·10⁴ between stripes).
    let n_sub = 16;
    let problem = presets::heterogeneous_elasticity(3, 2);
    let decomp = decomposed(&Mesh::rectangle(24, 6, 5.0, 1.0), &problem, n_sub, 1);
    println!(
        "# Figure 7 reproduction: {} vector dofs (P3), {} subdomains",
        decomp.n_global, n_sub
    );

    // GMRES(40), tolerance 1e-6, as in the paper.
    let opts = GmresOpts {
        restart: 40,
        tol: 1e-6,
        max_iters: 400,
        ..Default::default()
    };
    let header = "# iteration  P_RAS      P_A-DEF1";
    let (one, two, dim_e) = one_vs_two_level(&decomp, &opts, header, 40);
    println!(
        "# P_RAS: {} its (converged = {}), P_A-DEF1: {} its (converged = {}), dim(E) = {}",
        one.iterations, one.converged, two.iterations, two.converged, dim_e
    );
    assert!(two.converged);
    assert!(
        !one.converged || one.iterations > 3 * two.iterations,
        "shape check failed: RAS {} vs A-DEF1 {}",
        one.iterations,
        two.iterations
    );
    println!("# SHAPE OK: A-DEF1 converges, RAS crawls (as in the paper)");
}

/// Figure 8: strong scaling of the two-level method on heterogeneous
/// linear elasticity — fixed global problem, growing subdomain count.
///
/// Paper setup: 2D P3 (~2.1e9 dofs) and 3D P2 (~2.9e8 dofs) on
/// N = 1024…8192 processes. Scaled here to laptop-size meshes and
/// N = 4…32 ranks with *virtual* timing (α–β network model + per-rank
/// thread CPU time). Expected shape: factorization and deflation dominate
/// and shrink superlinearly in 3D (local problems get much cheaper),
/// iteration counts stay flat, and speedups approach or exceed linear.
fn fig8_strong_scaling() {
    println!("# Figure 8 reproduction (strong scaling, virtual time)");
    let ns = [4usize, 8, 16, 32];

    // 3D-P2 elasticity on a bar, fixed mesh.
    let mesh = Mesh::box3d(12, 6, 6, 2.0, 1.0, 1.0);
    let problem = presets::heterogeneous_elasticity(2, 3);
    let (rows3d, trace3d) = sweep(&ns, |n| decomposed(&mesh, &problem, n, 1), 8, 400);
    print_scaling_table("3D-P2 heterogeneous elasticity (fixed problem)", &rows3d);

    // 2D-P3 elasticity on a cantilever, fixed mesh.
    let mesh = Mesh::rectangle(48, 10, 5.0, 1.0);
    let problem = presets::heterogeneous_elasticity(3, 2);
    let (rows2d, trace2d) = sweep(&ns, |n| decomposed(&mesh, &problem, n, 1), 8, 400);
    print_scaling_table("2D-P3 heterogeneous elasticity (fixed problem)", &rows2d);

    // Telemetry of the largest runs (messages/bytes per phase).
    emit_largest(&[
        ("3D-P2, largest N", "fig8_elasticity_3d", &rows3d, &trace3d),
        ("2D-P3, largest N", "fig8_elasticity_2d", &rows2d, &trace2d),
    ]);

    // Speedups relative to the smallest run (the paper's Figure 8 plot).
    let speedup = |rows: &[ScalingRow]| -> Vec<(usize, f64)> {
        rows.iter()
            .map(|r| (r.n, rows[0].total / r.total))
            .collect()
    };
    let (s3d, s2d) = (speedup(&rows3d), speedup(&rows2d));
    println!("\n== speedup relative to N = {} ==", ns[0]);
    println!(
        "{:>5} {:>10} {:>10} {:>12}",
        "N", "3D-P2", "2D-P3", "(linear)"
    );
    for (&(n, s3), &(_, s2)) in s3d.iter().zip(&s2d) {
        println!(
            "{:>5} {:>10.2} {:>10.2} {:>12.2}",
            n,
            s3,
            s2,
            n as f64 / ns[0] as f64
        );
    }
    ascii_chart(
        "speedup (Figure 8 plot)",
        &[("3D-P2", s3d), ("2D-P3", s2d)],
        "x",
    );

    // Shape checks.
    for rows in [&rows3d, &rows2d] {
        assert!(rows.iter().all(|r| r.converged), "all runs must converge");
        let first = &rows[0];
        let last = rows.last().unwrap();
        assert!(
            last.total < first.total,
            "no strong-scaling speedup: {} → {}",
            first.total,
            last.total
        );
        // Iteration counts stay bounded (condition number independent of N).
        let it_max = rows.iter().map(|r| r.iterations).max().unwrap();
        let it_min = rows.iter().map(|r| r.iterations).min().unwrap();
        assert!(
            it_max <= 3 * it_min.max(5),
            "iterations blow up with N: {it_min} → {it_max}"
        );
    }
    println!("\n# SHAPE OK: speedup with flat iteration counts");
}

/// Figure 10: weak scaling of the two-level method on heterogeneous
/// diffusion — constant dofs per subdomain, growing subdomain count.
///
/// Paper setup: 2D P4 (~2.7e6 dofs/subdomain, up to 2.2e10 total) and 3D P2
/// (~2.8e5 dofs/subdomain, up to 2.3e9) on N = 256…8192. Scaled here to
/// laptop meshes with N = 2…32. Expected shape: per-phase virtual times
/// and iteration counts stay nearly constant, so efficiency
/// `eff(N) = (T₀ · dofs_N · N₀) / (T_N · dofs₀ · N)` stays near 90%+.
fn fig10_weak_scaling() {
    println!("# Figure 10 reproduction (weak scaling, virtual time)");
    let ns = [2usize, 4, 8, 16, 32];

    // 3D: cells ∝ N^{1/3} keeps elements per subdomain constant.
    let (rows3d, trace3d) = sweep(
        &ns,
        |n| {
            let cells = (6.0 * (n as f64).cbrt()).round() as usize;
            let mesh = Mesh::unit_cube(cells, cells, cells);
            decomposed(&mesh, &presets::heterogeneous_diffusion(2), n, 1)
        },
        12,
        400,
    );
    print_scaling_table(
        "3D-P2 heterogeneous diffusion (constant dofs/subdomain)",
        &rows3d,
    );

    // 2D: cells ∝ √N doubles the mesh area with N.
    let (rows2d, trace2d) = sweep(
        &ns,
        |n| {
            let cells = (12.0 * (n as f64).sqrt()).round() as usize;
            let mesh = Mesh::unit_square(cells, cells);
            decomposed(&mesh, &presets::heterogeneous_diffusion(4), n, 1)
        },
        12,
        400,
    );
    print_scaling_table(
        "2D-P4 heterogeneous diffusion (constant dofs/subdomain)",
        &rows2d,
    );

    // Telemetry of the largest runs (messages/bytes per phase).
    emit_largest(&[
        ("3D-P2, largest N", "fig10_diffusion_3d", &rows3d, &trace3d),
        ("2D-P4, largest N", "fig10_diffusion_2d", &rows2d, &trace2d),
    ]);

    println!(
        "\n== efficiency relative to N = {} (halo factor in parentheses) ==",
        ns[0]
    );
    let efficiency = |rows: &[ScalingRow]| -> Vec<f64> {
        let r0 = &rows[0];
        rows.iter()
            .map(|r| {
                (r0.total * r.dofs as f64 * r0.n as f64) / (r.total * r0.dofs as f64 * r.n as f64)
            })
            .collect()
    };
    let e3 = efficiency(&rows3d);
    let e2 = efficiency(&rows2d);
    println!("{:>5} {:>16} {:>16}", "N", "3D-P2", "2D-P4");
    for (i, &n) in ns.iter().enumerate() {
        println!(
            "{:>5} {:>9.0}% ({:.1}×) {:>9.0}% ({:.1}×)",
            n,
            100.0 * e3[i],
            rows3d[i].halo,
            100.0 * e2[i],
            rows2d[i].halo
        );
    }

    for (rows, eff, floor) in [(&rows3d, &e3, 0.05), (&rows2d, &e2, 0.3)] {
        assert!(rows.iter().all(|r| r.converged), "all runs must converge");
        // Iterations stay bounded under weak scaling (the GenEO guarantee).
        // At laptop scale (≈1–3k dofs/subdomain vs the paper's 280k–2.7M)
        // the overlap halo is a large fraction of each subdomain, so some
        // fluctuation is expected; blow-ups are not.
        let it_max = rows.iter().map(|r| r.iterations).max().unwrap();
        let it_min = rows.iter().map(|r| r.iterations).min().unwrap();
        assert!(
            it_max <= 4 * it_min.max(5),
            "iterations grow with N: {it_min} → {it_max}"
        );
        // Efficiency bound, laptop scale: the paper reaches ~90% with 280k+
        // dofs per subdomain; with tiny subdomains the halo and coarse
        // costs weigh disproportionately, so we require it not to collapse.
        // The efficiency floor is scale-dependent: in 3D the δ+1 halo
        // multiplies the max local problem several-fold at these sizes
        // (see the printed halo factors), which the paper's 280k+-dof
        // subdomains never experience.
        assert!(
            *eff.last().unwrap() > floor,
            "weak-scaling efficiency collapsed: {:.0}%",
            eff.last().unwrap() * 100.0
        );
    }
    println!("\n# SHAPE OK: bounded iterations, non-collapsing efficiency");
}

/// Figure 11: coarse-operator statistics — `N`, `P`, `dim(E)`, average
/// `|O_i|`, `nnz(E⁻¹)` (factor fill), and the virtual time to build the
/// communicators, assemble `E` on the masters and factor it — for both the
/// diffusion and the elasticity problems.
///
/// Expected shape: dim(E) grows linearly with N, 3D neighbor counts exceed
/// 2D ones (denser E), and assembly time grows with N.
fn fig11_coarse_operator() {
    println!("# Figure 11 reproduction (virtual time; columns as in the paper)");
    let ns = [4usize, 8, 16, 32];
    let table = |title: &str, mesh: Mesh, problem: Problem| {
        let (rows, _) = sweep(&ns, |n| decomposed(&mesh, &problem, n, 1), 6, 300);
        print_coarse_table(title, &rows);
        rows
    };
    let diffusion = presets::heterogeneous_diffusion;
    let elasticity = presets::heterogeneous_elasticity;
    let d3 = table("3D diffusion", Mesh::unit_cube(7, 7, 7), diffusion(1));
    let e3 = table(
        "3D elasticity",
        Mesh::box3d(10, 5, 5, 2.0, 1.0, 1.0),
        elasticity(1, 3),
    );
    let d2 = table("2D diffusion", Mesh::unit_square(24, 24), diffusion(2));
    let e2 = table(
        "2D elasticity",
        Mesh::rectangle(40, 8, 5.0, 1.0),
        elasticity(2, 2),
    );

    // Shape checks.
    for rows in [&d3, &e3, &d2, &e2] {
        // dim(E) grows with N.
        for w in rows.windows(2) {
            assert!(w[1].dim_e >= w[0].dim_e, "dim(E) must grow with N");
        }
    }
    // 3D decompositions have more neighbors than 2D ones at the same N
    // (the paper's "|O_i| average" columns: ~13–15 in 3D vs ~5.5–5.9 in 2D).
    let avg = |rows: &[ScalingRow]| rows.last().unwrap().avg_neighbors;
    assert!(
        avg(&d3) > avg(&d2),
        "3D should have denser connectivity: {} vs {}",
        avg(&d3),
        avg(&d2)
    );
    println!("\n# SHAPE OK: dim(E) ∝ N; 3D connectivity > 2D connectivity");
}

/// §3.5: communication-avoiding multilevel preconditioning — classical
/// GMRES vs the *fused* p1-GMRES where the Gram reductions ride on the
/// coarse correction's gather/scatter.
///
/// The paper's observable: both converge in about the same number of
/// iterations ("both pipelined GMRES are performing approximately the same
/// as the reference GMRES"), but the fused variant performs **zero**
/// standalone global reductions per iteration — only the masterComm
/// `MPI_Iallreduce`, overlapped with the coarse solve.
fn fig12_pipelined() {
    println!("# §3.5 reproduction: synchronization cost of the Krylov loop");
    let n = 8;
    let problem = presets::heterogeneous_diffusion(2);
    let d = decomposed(&Mesh::unit_square(28, 28), &problem, n, 1);
    println!(
        "workload: 2D-P2 diffusion ({} dofs, {} ranks)\n",
        d.n_global, n
    );

    // Left preconditioning: the fused loop implements only that.
    let base = spmd_opts(6, 2, 300);

    println!(
        "{:<12} {:>6} {:>10} {:>22} {:>14}",
        "solver", "#it.", "converged", "world collectives/it.", "solve time"
    );
    let mut stats = Vec::new();
    let mut traces = Vec::new();
    for (name, kind) in [
        ("classical", SolverKind::Classical),
        ("fused", SolverKind::Fused),
    ] {
        let opts = SpmdOpts {
            solver: kind,
            ..base.clone()
        };
        let (sols, trace) = run(&d, &opts, CostModel::default());
        let r = &sols[0].solve.result;
        // Summed over the world's ranks, as every rank takes each one.
        let per_iter = trace.collectives_on("solve", "world").iter().sum::<usize>() as f64
            / r.iterations.max(1) as f64;
        let t_sol = sols
            .iter()
            .map(|s| s.report.t_solution)
            .fold(0.0f64, f64::max);
        println!(
            "{:<12} {:>6} {:>10} {:>22.2} {:>13.4}s",
            name, r.iterations, r.converged, per_iter, t_sol
        );
        stats.push((name, r.iterations, r.converged, per_iter));
        traces.push((name, trace));
    }

    for ((name, trace), (_, iterations, _, _)) in traces.iter().zip(&stats) {
        print_telemetry_table(&format!("fig12 {name}"), trace);
        let extras = [("iterations", *iterations as f64)];
        emit(&format!("fig12_{name}"), Some(trace), &extras);
    }

    // Shape checks: all converge; iteration counts comparable; fused has
    // the fewest world-wide collectives per iteration.
    assert!(stats.iter().all(|s| s.2), "all solvers must converge");
    let it_ref = stats[0].1 as f64;
    for s in &stats {
        assert!(
            (s.1 as f64) <= 1.5 * it_ref + 3.0,
            "{} iterations blew up: {} vs {}",
            s.0,
            s.1,
            it_ref
        );
    }
    assert!(
        stats[1].3 < stats[0].3,
        "fused must use fewer world collectives per iteration"
    );
    println!("\n# SHAPE OK: same convergence, fused removes standalone reductions");
}

/// Ablation: overlap width δ. Wider overlap strengthens both the one-level
/// method (classical Schwarz theory: convergence improves with overlap) and
/// the quality of the GenEO spaces, at the price of larger local problems.
fn ablation_overlap() {
    println!("# Ablation: overlap width δ (2D heterogeneous diffusion, N = 16)");
    let mesh = Mesh::unit_square(48, 48);
    let problem = presets::heterogeneous_diffusion(1);
    let opts = ablation_gmres(300);
    println!(
        "{:>3} {:>16} {:>12} {:>12} {:>14}",
        "δ", "max n_i (dofs)", "RAS #it.", "A-DEF1 #it.", "dim(E)"
    );
    let mut ras_its = Vec::new();
    for delta in [1usize, 2, 3] {
        let d = decomposed(&mesh, &problem, 16, delta);
        let max_n = d.subdomains.iter().map(|s| s.n_local()).max().unwrap();
        let ras = RasPrecond::build(&d, Ordering::MinDegree);
        let r1 = solve(&d, &ras, &d.rhs_global, &opts);
        let tl = two_level(&d, 10);
        let r2 = solve(&d, &tl, &d.rhs_global, &opts);
        println!(
            "{:>3} {:>16} {:>12} {:>12} {:>14}",
            delta,
            max_n,
            format!("{}{}", r1.iterations, if r1.converged { "" } else { "*" }),
            format!("{}{}", r2.iterations, if r2.converged { "" } else { "*" }),
            tl.coarse().dim()
        );
        assert!(r2.converged, "two-level must converge at δ = {delta}");
        ras_its.push(if r1.converged {
            r1.iterations
        } else {
            usize::MAX
        });
    }
    // One-level improves (or at least does not degrade) with overlap.
    assert!(
        ras_its[2] <= ras_its[0],
        "RAS did not benefit from overlap: {ras_its:?}"
    );
    println!("# (* = not converged)  SHAPE OK: wider overlap helps the one-level method");
}

/// Ablation: number of deflation vectors ν per subdomain. More vectors
/// mean fewer Krylov iterations but a larger coarse problem — the paper
/// keeps ν ≤ 30 per subdomain ("blocks of rows of E are typically of size
/// ν_i ranging from 1 to 30").
fn ablation_nu() {
    println!("# Ablation: deflation count ν (2D heterogeneous diffusion, N = 16)");
    let problem = presets::heterogeneous_diffusion(1);
    let d = decomposed(&Mesh::unit_square(48, 48), &problem, 16, 1);
    let opts = ablation_gmres(400);
    println!(
        "{:>4} {:>8} {:>12} {:>12} {:>16}",
        "ν", "dim(E)", "#it.", "converged", "nnz(E⁻¹ factor)"
    );
    let mut its = Vec::new();
    for nev in [1usize, 2, 4, 8, 16] {
        let tl = two_level(&d, nev);
        let r = solve(&d, &tl, &d.rhs_global, &opts);
        println!(
            "{:>4} {:>8} {:>12} {:>12} {:>16}",
            nev,
            tl.coarse().dim(),
            r.iterations,
            r.converged,
            tl.coarse().nnz_factor()
        );
        its.push((nev, r.iterations, r.converged));
    }
    // Iterations decrease (weakly) as ν grows; the largest ν converges.
    let last = its.last().unwrap();
    assert!(last.2, "largest ν must converge");
    let first_conv = its.iter().find(|s| s.2).unwrap();
    assert!(
        last.1 <= first_conv.1,
        "more deflation vectors should not hurt: {its:?}"
    );
    println!("# SHAPE OK: iterations fall as the coarse space grows");
}

/// Ablation: §3.1.1's two coarse-assembly strategies.
///
/// The "natural" approach ships global row/column indices from every slave
/// (three `MPI_Gatherv` calls); the paper's index-free scheme sends only
/// the values prefixed by `O_i` and lets the masters recompute indices —
/// "the memory overhead on the slaves is null". Same numerics, fewer bytes
/// on the wire.
fn ablation_assembly() {
    println!("# Ablation: coarse-assembly message volume (§3.1.1)");
    let n = 16;
    let problem = presets::heterogeneous_diffusion(1);
    let d = decomposed(&Mesh::unit_square(32, 32), &problem, n, 1);
    println!("workload: {} dofs, {} ranks\n", d.n_global, n);
    let base = spmd_opts(8, 4, 300);
    println!(
        "{:<16} {:>6} {:>14} {:>17} {:>12}",
        "variant", "#it.", "p2p bytes", "collective bytes", "coarse time"
    );
    let mut stats = Vec::new();
    let mut traces = Vec::new();
    for (name, variant) in [
        ("index-free", AssemblyVariant::IndexFree),
        ("natural gatherv", AssemblyVariant::NaturalGatherv),
    ] {
        let opts = SpmdOpts {
            assembly: variant,
            ..base.clone()
        };
        let (sols, trace) = run(&d, &opts, CostModel::default());
        let r = &sols[0].solve.result;
        let coarse = sols
            .iter()
            .map(|s| s.report.t_coarse)
            .fold(0.0f64, f64::max);
        // The whole run's traffic, every communicator and rank.
        let total = run_totals(&trace);
        let cbytes = total.collective_bytes;
        println!(
            "{:<16} {:>6} {:>14} {:>17} {:>11.4}s",
            name, r.iterations, total.send_bytes, cbytes, coarse
        );
        assert!(r.converged);
        stats.push((r.iterations, cbytes));
        traces.push((name, trace));
    }

    // Per-phase telemetry: the gather phase is where the two variants
    // differ (`assembly:gather` collective bytes).
    for ((name, trace), (iterations, _)) in traces.iter().zip(&stats) {
        print_telemetry_table(&format!("assembly {name}"), trace);
        let stem = if name.starts_with("index") {
            "ablation_assembly_index_free"
        } else {
            "ablation_assembly_natural"
        };
        emit(stem, Some(trace), &[("iterations", *iterations as f64)]);
    }
    let gather_bytes = |t: &WorldTrace| t.phase_totals("assembly:gather").collective_bytes;
    assert!(
        gather_bytes(&traces[1].1) > gather_bytes(&traces[0].1),
        "index-shipping must move more gather-phase bytes"
    );
    // Identical numerics, but the index-shipping variant moves more data
    // through the gathers (§3.1.1: "why should slaves send to masters the
    // global row and column indices?").
    assert_eq!(stats[0].0, stats[1].0, "iteration counts must match");
    assert!(
        stats[1].1 > stats[0].1,
        "index-shipping must move more collective bytes: {} vs {}",
        stats[1].1,
        stats[0].1
    );
    println!(
        "\n# index-free saves {:.0}% of the collective volume",
        100.0 * (1.0 - stats[0].1 as f64 / stats[1].1 as f64)
    );
    println!("# SHAPE OK: identical numerics, fewer bytes without shipped indices");

    // ---- redundant vs distributed coarse factorization (§3.2) ----
    // The paper's claim: partitioning E into the masters' block rows makes
    // per-master factor memory and factorization work shrink as the master
    // count grows, where the redundant substitute pays the full factor on
    // every master. Same numerics either way.
    println!("\n# Ablation: redundant vs distributed coarse solve (§3.2)");
    println!(
        "{:>3} {:<12} {:>8} {:>6} {:>15} {:>18} {:>14}",
        "P", "mode", "dim(E)", "#it.", "nnz(L)/master", "e-factor flops/mst", "solve time/it."
    );
    let mut coarse_summary = Vec::new();
    let mut dist_nnz: Vec<usize> = Vec::new();
    let mut dist_flops: Vec<u64> = Vec::new();
    for p in [2usize, 4, 8] {
        let mut iters = Vec::new();
        for (mode_name, mode, phase) in [
            (
                "distributed",
                CoarseSolve::Distributed,
                "e-factorization-dist",
            ),
            ("redundant", CoarseSolve::Redundant, "e-factorization"),
        ] {
            let opts = SpmdOpts {
                n_masters: p,
                coarse_solve: mode,
                ..base.clone()
            };
            let (sols, trace) = run(&d, &opts, CostModel::default());
            assert!(sols.iter().all(|s| s.solve.result.converged));
            let (r, iterations) = (&sols[0].report, sols[0].solve.result.iterations);
            // Per-master costs: max over ranks (slaves report zero).
            let nnz_master = sols.iter().map(|s| s.report.nnz_e_factor).max().unwrap();
            let flops_master = trace
                .ranks
                .iter()
                .filter_map(|rt| rt.phase(phase))
                .map(|c| c.flops)
                .max()
                .unwrap_or(0);
            let t_it = sols
                .iter()
                .map(|s| s.report.t_solution)
                .fold(0.0f64, f64::max)
                / iterations.max(1) as f64;
            println!(
                "{:>3} {:<12} {:>8} {:>6} {:>15} {:>18} {:>13.5}s",
                p, mode_name, r.dim_e, iterations, nnz_master, flops_master, t_it
            );
            iters.push(iterations);
            for (metric, v) in [
                ("nnz_per_master", nnz_master as f64),
                ("factor_flops_per_master", flops_master as f64),
                ("iterations", iterations as f64),
            ] {
                coarse_summary.push((format!("coarse/p{p}/{mode_name}_{metric}"), v));
            }
            if mode == CoarseSolve::Distributed {
                dist_nnz.push(nnz_master);
                dist_flops.push(flops_master);
            }
            assert!(
                mode == CoarseSolve::Redundant || nnz_master > 0,
                "distributed masters must report their factor share"
            );
        }
        assert_eq!(iters[0], iters[1], "P = {p}: modes must match numerics");
    }
    emit("ablation_assembly_coarse", None, &coarse_summary);
    // The tentpole observable: per-master factor size and charged
    // factorization flops drop as the master count grows.
    assert!(
        dist_nnz.windows(2).all(|w| w[1] < w[0]),
        "per-master nnz(L) must shrink with more masters: {dist_nnz:?}"
    );
    assert!(
        dist_flops.windows(2).all(|w| w[1] < w[0]),
        "per-master factor flops must shrink with more masters: {dist_flops:?}"
    );
    println!("# SHAPE OK: distributed coarse factor scales down with the master count");
}

/// Ablation: GenEO spectral coarse space vs the classical Nicolaides
/// (kernel-based) coarse space.
///
/// Nicolaides deflation (PoU-weighted constants / rigid body modes) fixes
/// the `1/H` scalability problem of one-level methods but is oblivious to
/// coefficient jumps; GenEO also captures the heterogeneity-induced bad
/// modes. Expected: on high-contrast problems GenEO needs far fewer
/// iterations at comparable (or smaller) coarse size.
fn ablation_coarse_space() {
    println!("# Ablation: GenEO vs Nicolaides coarse spaces");
    let problem = presets::heterogeneous_diffusion(1);
    let d = decomposed(&Mesh::unit_square(48, 48), &problem, 16, 1);
    let opts = ablation_gmres(400);

    // A-DEF1 over `space`: dim(E) and the GMRES result.
    let a_def1 = |space: CoarseSpace| {
        let dim = space.dim;
        let p = TwoLevelPrecond::new(
            RasPrecond::build(&d, Ordering::MinDegree),
            CoarseOperator::try_build(&d, space, Ordering::MinDegree)
                .expect("the coarse operator E must factor"),
            Variant::ADef1,
        );
        (dim, solve(&d, &p, &d.rhs_global, &opts))
    };

    // Nicolaides: one PoU vector per subdomain.
    let nico_blocks: Vec<_> = d
        .subdomains
        .iter()
        .map(|s| nicolaides_block(s, 1))
        .collect();
    let (nico_dim, r_nico) = a_def1(CoarseSpace::new(nico_blocks));

    // GenEO with a handful of vectors.
    let geneo_opts = geneo(8);
    let gen_blocks: Vec<_> = d
        .subdomains
        .iter()
        .map(|s| {
            let b = try_deflation_block(s, &geneo_opts).expect("GenEO eigensolve failed");
            resize_block(&b, b.kept)
        })
        .collect();
    let (gen_dim, r_geneo) = a_def1(CoarseSpace::new(gen_blocks));

    println!(
        "{:<12} {:>8} {:>8} {:>10}",
        "space", "dim(E)", "#it.", "converged"
    );
    println!(
        "{:<12} {:>8} {:>8} {:>10}",
        "Nicolaides", nico_dim, r_nico.iterations, r_nico.converged
    );
    println!(
        "{:<12} {:>8} {:>8} {:>10}",
        "GenEO", gen_dim, r_geneo.iterations, r_geneo.converged
    );
    assert!(r_geneo.converged);
    assert!(
        !r_nico.converged || r_geneo.iterations * 2 <= r_nico.iterations,
        "GenEO ({}) not clearly ahead of Nicolaides ({})",
        r_geneo.iterations,
        r_nico.iterations
    );
    println!("# SHAPE OK: GenEO handles the heterogeneity Nicolaides cannot");
}

/// Ablation: `P_A-DEF1` vs `P_A-DEF2` (§2.1). Both variants have similar
/// numerical properties; A-DEF1 needs one coarse solve per application,
/// A-DEF2 two — and "applying a coarse correction is the most
/// communication-intensive operation when preconditioning an iterative
/// method", which is why the paper picks A-DEF1.
fn ablation_adef() {
    println!("# Ablation: A-DEF1 vs A-DEF2 (coarse-solve economy)");
    let problem = presets::heterogeneous_diffusion(1);
    let d = decomposed(&Mesh::unit_square(40, 40), &problem, 16, 1);
    let opts = ablation_gmres(300);
    println!(
        "{:<8} {:>6} {:>14} {:>18}",
        "variant", "#it.", "coarse solves", "solves/iteration"
    );
    let mut rows = Vec::new();
    for (name, variant) in [("A-DEF1", Variant::ADef1), ("A-DEF2", Variant::ADef2)] {
        let tl = dd_core::two_level(
            &d,
            &TwoLevelOpts {
                geneo: geneo(8),
                variant,
                ..Default::default()
            },
        );
        let r = solve(&d, &tl, &d.rhs_global, &opts);
        assert!(r.converged, "{name} did not converge");
        let solves = tl.coarse_solve_count();
        let per_iter = solves as f64 / r.iterations.max(1) as f64;
        println!(
            "{:<8} {:>6} {:>14} {:>18.2}",
            name, r.iterations, solves, per_iter
        );
        rows.push((r.iterations, per_iter));
    }
    // Similar convergence, double the coarse solves for A-DEF2.
    let (it1, s1) = rows[0];
    let (it2, s2) = rows[1];
    assert!(
        (it1 as i64 - it2 as i64).abs() <= (it1 / 2 + 3) as i64,
        "variants should converge similarly: {it1} vs {it2}"
    );
    assert!(
        s2 > 1.8 * s1,
        "A-DEF2 must need ~2× the coarse solves: {s1:.2} vs {s2:.2}"
    );
    println!("# SHAPE OK: same convergence, A-DEF2 pays twice the coarse corrections");
}

/// Ablation/extension: a-posteriori Ritz deflation (the paper's §4
/// outlook) vs the a-priori GenEO construction.
///
/// Scenario: a sequence of right-hand sides on the same operator (typical
/// in time stepping / optimization). The first solve runs with one-level
/// RAS; its Arnoldi data yields Ritz vectors whose deflation accelerates
/// the remaining solves — no eigenproblem ever solved. GenEO (a-priori)
/// remains stronger but pays the local eigensolves up front.
fn ablation_ritz() {
    println!("# Ablation: a-posteriori Ritz deflation (paper §4 outlook)");
    let problem = presets::heterogeneous_diffusion(1);
    let d = decomposed(&Mesh::unit_square(64, 64), &problem, 16, 1);
    let n = d.n_global;
    // Tight tolerance so the one-level method's slow modes show up in the
    // (left-)preconditioned residual.
    let opts = GmresOpts {
        tol: 1e-9,
        side: Side::Left,
        ..ablation_gmres(400)
    };
    let ras = RasPrecond::build(&d, Ordering::MinDegree);

    // Three extra right-hand sides.
    let rhss: Vec<Vec<f64>> = (1..=3u64)
        .map(|s| {
            (0..n)
                .map(|i| (((i as u64 + s) * 2654435761) % 1000) as f64 / 500.0 - 1.0)
                .collect()
        })
        .collect();
    let its = |p: &dyn Preconditioner| -> Vec<usize> {
        rhss.iter()
            .map(|b| solve(&d, p, b, &opts).iterations)
            .collect()
    };

    // Baseline: one-level RAS on each.
    let base_its = its(&ras);

    // A-posteriori: harvest Ritz vectors from the first solve's operator.
    let z = ritz_deflation(&d.a_global, &ras, &d.rhs_global, 60, 12);
    let coarse =
        AbstractCoarse::try_build(&d.a_global, z).expect("the coarse operator E must factor");
    let ritz_its = its(&AbstractADef1::new(&ras, coarse));

    // A-priori GenEO for reference.
    let geneo_its = its(&two_level(&d, 10));

    println!(
        "{:<22} {:>8} {:>8} {:>8}",
        "preconditioner", "rhs 1", "rhs 2", "rhs 3"
    );
    println!(
        "{:<22} {:>8} {:>8} {:>8}",
        "one-level RAS", base_its[0], base_its[1], base_its[2]
    );
    println!(
        "{:<22} {:>8} {:>8} {:>8}",
        "RAS + Ritz (a-post.)", ritz_its[0], ritz_its[1], ritz_its[2]
    );
    println!(
        "{:<22} {:>8} {:>8} {:>8}",
        "RAS + GenEO (a-pri.)", geneo_its[0], geneo_its[1], geneo_its[2]
    );
    for k in 0..3 {
        assert!(
            ritz_its[k] < base_its[k],
            "Ritz deflation failed to accelerate rhs {k}: {} vs {}",
            ritz_its[k],
            base_its[k]
        );
    }
    println!("# SHAPE OK: harvested Ritz vectors accelerate subsequent solves");
}

/// Ablation: network sensitivity of the two-level method. The paper's
/// closing observation for its largest runs: "at such scales, the most
/// penalizing step in the algorithm is the construction of the coarse
/// operator". We emulate harsher networks by scaling the α (latency) and
/// β (inverse bandwidth) of the cost model and watch the coarse-operator
/// and solution phases grow while the embarrassingly-parallel phases
/// (factorization, deflation) stay constant.
fn ablation_network() {
    println!("# Ablation: α–β network sensitivity (N = 16, 2D diffusion)");
    let problem = presets::heterogeneous_diffusion(1);
    let d = decomposed(&Mesh::unit_square(32, 32), &problem, 16, 1);
    let opts = spmd_opts(8, 4, 300);
    let base = CostModel::default();
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>12}",
        "net scale", "factor[s]", "deflation[s]", "coarse[s]", "solution[s]"
    );
    let mut coarse_times = Vec::new();
    let mut factor_times = Vec::new();
    for scale in [1.0f64, 100.0, 10000.0] {
        let model = CostModel {
            alpha: base.alpha * scale,
            beta: base.beta * scale,
        };
        let (reports, _) = run(&d, &opts, model);
        let row = aggregate(&reports, &d);
        assert!(row.converged);
        println!(
            "{:>10} {:>12.4} {:>12.4} {:>12.4} {:>12.4}",
            scale, row.factorization, row.deflation, row.coarse, row.solution
        );
        coarse_times.push(row.coarse);
        factor_times.push(row.factorization);
    }
    // Communication-bound phases grow with the network scale; local phases
    // don't (up to measurement noise).
    assert!(
        coarse_times[2] > 3.0 * coarse_times[0],
        "coarse phase insensitive to the network: {coarse_times:?}"
    );
    // The factorization phase picks up only its closing barrier's latency,
    // a vanishing fraction of what the communication-bound phases absorb.
    assert!(
        factor_times[2] < 0.2 * coarse_times[2],
        "factorization should stay marginal: {factor_times:?} vs {coarse_times:?}"
    );
    println!("\n# SHAPE OK: slow networks surface in the coarse/solve phases only");
}

/// Total right-hand sides in the serve stream.
const N_RHS: usize = 32;

/// The serve entry's options: GenEO with 8 vectors, GMRES to 1e-10.
fn serve_opts() -> ServeOpts {
    ServeOpts {
        spmd: SpmdOpts {
            geneo: geneo(8),
            gmres: GmresOpts {
                tol: 1e-10,
                max_iters: 500,
                ..Default::default()
            },
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Seeded stream trimmed to exactly [`N_RHS`] right-hand sides: singles,
/// batches, and admissible perturbations, arriving densely (the stream is
/// compute-bound, not arrival-bound, so throughput measures the solver).
fn stream_of(n_global: usize) -> Stream {
    let cfg = StreamCfg {
        n_requests: 2 * N_RHS,
        mean_interarrival: 1e-3,
        batch_fraction: 0.3,
        max_rhs_per_request: 3,
        perturb_fraction: 0.3,
        theta_max: 0.04, // inside the default 0.05 admissibility ball
    };
    let full = Stream::generate(9, n_global, &cfg);
    let mut requests = Vec::new();
    let mut total = 0usize;
    for mut r in full.requests {
        if total == N_RHS {
            break;
        }
        if let Payload::Batch(b) = &mut r.payload {
            b.truncate(N_RHS - total);
            if b.len() == 1 {
                r.payload = Payload::Rhs(b.remove(0));
            }
        }
        total += r.n_rhs();
        r.id = requests.len();
        requests.push(r);
    }
    assert_eq!(total, N_RHS, "stream trim must land exactly on {N_RHS}");
    Stream::from_requests(requests)
}

/// Solve-as-a-service throughput: one resident setup amortized over a
/// 32-RHS stream vs. 32 fresh one-shot runs of `try_run_spmd` on the same
/// right-hand sides (the acceptance benchmark of the serving layer).
///
/// The stream mixes single requests, multi-RHS batches, and admissible
/// perturbations (θ inside the default admissibility ball, so the server
/// answers them by preconditioner reuse, never a re-setup). Every quantity
/// compared is *virtual* time from the deterministic cost model, so the
/// table is machine-independent; the committed baseline
/// `bench_results/baselines/serve.json` additionally gates the
/// deterministic counters (solves, reuse, phase telemetry) exactly, while
/// the `time/*` scalars get a wide tolerance in `tolerances.json` because
/// virtual clocks fold in measured compute time.
fn serve_throughput() {
    println!("# serve: resident setup amortized over a {N_RHS}-RHS stream");
    let n = 8;
    let problem = presets::heterogeneous_diffusion(2);
    let decomp = decomposed(&Mesh::unit_square(20, 20), &problem, n, 1);
    println!(
        "workload: 2D-P2 diffusion ({} dofs, {} ranks)",
        decomp.n_global, n
    );
    let stream = stream_of(decomp.n_global);
    println!(
        "stream: {} requests, {} RHS, {} distinct perturbations\n",
        stream.requests.len(),
        stream.n_rhs_total(),
        stream.thetas().len()
    );
    let o = serve_opts();

    // ---- the resident server, traced --------------------------------
    let (reports, trace) = {
        let cache = CoarseCache::new();
        let store = ResponseStore::new();
        World::run_traced(n, CostModel::default(), |comm| {
            try_serve(&decomp, comm, &o, &stream, &cache, &store)
                .expect("fault-free serve must succeed")
        })
    };
    let report = &reports[0];
    let t_serve = reports.iter().map(|r| r.t_total).fold(0.0f64, f64::max);
    assert_eq!(report.responses.len(), N_RHS, "stream not fully answered");
    assert!(report.responses.iter().all(|r| r.converged));

    println!(
        "{:>4} {:>4} {:>9} {:>10} {:>10} {:>10} {:>6} {:>7}",
        "req", "rhs", "theta", "arrival", "completed", "latency", "#it.", "reused"
    );
    for r in &report.responses {
        println!(
            "{:>4} {:>4} {:>9.4} {:>10.4} {:>10.4} {:>10.4} {:>6} {:>7}",
            r.req, r.rhs, r.theta, r.arrival, r.completed, r.latency, r.iterations, r.reused
        );
    }

    // ---- the comparison: a fresh setup per right-hand side ----------
    let mut t_oneshot = 0.0f64;
    for r in &report.responses {
        let req = &stream.requests[r.req];
        let base = if req.theta() == 0.0 {
            decomp.clone()
        } else {
            decomp.perturb_diag(req.theta())
        };
        let d = base.with_rhs(req.rhs(r.rhs).to_vec());
        let sols = World::run(n, CostModel::default(), |comm| {
            try_run_spmd(&d, comm, &o.spmd).expect("one-shot run must succeed")
        });
        assert!(sols.iter().all(|s| s.solve.result.converged));
        t_oneshot += sols.iter().map(|s| s.report.t_total).fold(0.0f64, f64::max);
    }

    let speedup = t_oneshot / t_serve;
    let iterations: usize = report.responses.iter().map(|r| r.iterations).sum();
    let (p50, p99) = (
        report.latency_percentile(50.0),
        report.latency_percentile(99.0),
    );
    println!(
        "\n{:>28}: {:.4}s (setup {:.4}s)",
        "server stream", t_serve, report.t_setup
    );
    println!("{:>28}: {:.4}s", "32 one-shot runs", t_oneshot);
    println!("{:>28}: {:.2}x", "amortized-setup speedup", speedup);
    println!("{:>28}: {:.2} RHS/s", "throughput", report.throughput());
    println!("{:>28}: p50 {:.4}s, p99 {:.4}s", "latency", p50, p99);
    println!(
        "{:>28}: {} solves, {} reused applies, {} re-setups",
        "counters", report.solves, report.reused_applies, report.resetups
    );

    print_telemetry_table("serve", &trace);
    emit(
        "serve",
        Some(&trace),
        &[
            ("responses", report.responses.len() as f64),
            ("solves", report.solves as f64),
            ("reused_applies", report.reused_applies as f64),
            ("resetups", report.resetups as f64),
            ("iterations", iterations as f64),
            ("time/t_setup", report.t_setup),
            ("time/t_stream", t_serve),
            ("time/oneshot_total", t_oneshot),
            ("time/speedup", speedup),
            ("time/latency_p50", p50),
            ("time/latency_p99", p99),
            ("time/throughput", report.throughput()),
        ],
    );

    // Shape checks — the serving layer's acceptance criterion is the 2x line.
    assert_eq!(report.resetups, 0, "admissible stream must never re-setup");
    assert!(
        report.reused_applies > 0,
        "perturbed requests must be answered by reuse"
    );
    assert!(
        speedup >= 2.0,
        "amortized setup must beat repeated one-shot runs 2x: got {speedup:.2}x"
    );
    println!("\n# SHAPE OK: one resident setup, {N_RHS} answers, {speedup:.2}x over one-shot");
}
