//! Raw-speed microbenchmarks of the hot kernels, with a two-tier gate.
//!
//! Measures the kernels the blocked-kernel overhaul targets, head to head
//! against their scalar oracles:
//!
//! * **LDLᵀ factorization** — scalar up-looking [`dd_solver::SparseLdlt`] vs the
//!   multifrontal [`dd_solver::SupernodalLdlt`] on RCM-ordered 3D FD Laplacians;
//! * **fill-reducing ordering** — [`Ordering::MinDegree`], the `SpmdOpts`
//!   default, on the really-assembled subdomain Dirichlet matrices of the
//!   `elasticity3d` and `diffusion2d_many` benchmark configurations, against
//!   the numeric factorization it feeds (the LDLᵀ rows above are
//!   RCM-ordered and never touch it);
//! * **operator × block-of-vectors** (the `E = WᵀAW` assembly shape) —
//!   `csrmm` vs the 4-column-blocked `bsrmm` on really-assembled 2D/3D
//!   elasticity operators (padded-BSR auto-detection included);
//! * **orthogonalisation panels** — the Gram row and the update block of a
//!   CGS2 pass (`vector::dot_many` / `vector::axpy_many`) against the
//!   per-vector loops, at the `diffusion2d_many` shape;
//! * **Krylov steady state** — allocation counts of warm GMRES and CG
//!   solves at two iteration budgets, from which the per-iteration
//!   allocation count is derived (the overhaul's contract: **zero**).
//!
//! Two output tiers, two gates:
//!
//! * `<out>/summaries/kernels.json` — machine-independent *exact* metrics
//!   (allocation counts, structural sizes, correctness flags). Diffed by
//!   `perf_gate` against `bench_results/baselines/kernels.json` at
//!   tolerance 0.0, like every telemetry baseline.
//! * `<out>/summaries/kernels_wall.json` — wall-clock ratios normalized
//!   by an in-process calibration loop (dimensionless, roughly
//!   runner-independent). `perf_gate` skips `*_wall.json`; this binary
//!   gates them itself under `--gate-wall`: speedups must stay ≥ 2×, the
//!   ordering must stay under half the numeric factorization it feeds
//!   (`order_over_numeric/*`), and calibrated ratios drifting ≥ 1.3× vs the
//!   committed `kernels_wall.json` baseline warn, ≥ 2.0× fail. Run the
//!   wall gate only on builds with `-C target-cpu=native` (the CI
//!   `kernel-speed` lane does); the exact tier is build-independent.
//!
//! Timings are median-of-K with a warmup run. Output honors
//! `DD_BENCH_OUT` (see [`dd_bench::bench_out_dir`]); stdout is a markdown
//! report suitable for `$GITHUB_STEP_SUMMARY`.

use dd_bench::alloc_count::{self, CountingAlloc};
use dd_bench::summary::Summary;
use dd_comm::{CostModel, World};
use dd_core::problem::presets;
use dd_core::{
    decompose, repartition_plan, try_setup_partitioned, CoarseCache, Decomposition, GeneoOpts,
    SpmdOpts,
};
use dd_fem::{assemble_elasticity, DofMap};
use dd_krylov::{
    try_cg, try_gmres_with, CgOpts, GmresOpts, GmresWorkspace, IdentityPrecond, SeqDot, Side,
};
use dd_linalg::{vector, BsrMatrix, CooBuilder, CsrMatrix, DMat};
use dd_mesh::Mesh;
use dd_part::partition_mesh_rcb;
use dd_solver::{ordering, LdltBackend, LocalLdlt, Ordering, PivotPolicy};
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Median of `k` timed runs (after one warmup), in seconds.
fn median_secs<R>(k: usize, mut f: impl FnMut() -> R) -> f64 {
    black_box(f());
    let mut times: Vec<f64> = (0..k)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[k / 2]
}

/// Fixed serial FMA chain — the unit of machine speed that normalizes the
/// wall ratios. Dependent ops defeat both vectorization and reordering, so
/// the loop measures scalar FP latency, stable across compiler builds.
fn calibrate() -> f64 {
    median_secs(5, || {
        let mut x = 1.0f64;
        for _ in 0..20_000_000u64 {
            x = x.mul_add(1.000_000_001, 1e-9);
        }
        x
    })
}

/// 3D 7-point FD Laplacian with Dirichlet boundary (SPD), `nx³` unknowns.
fn laplace3d(nx: usize) -> CsrMatrix {
    let n = nx * nx * nx;
    let idx = |i: usize, j: usize, k: usize| (k * nx + j) * nx + i;
    let mut b = CooBuilder::with_capacity(n, n, 7 * n);
    for k in 0..nx {
        for j in 0..nx {
            for i in 0..nx {
                let r = idx(i, j, k);
                b.push(r, r, 6.0);
                let mut nb = |c: usize| {
                    b.push(r, c, -1.0);
                };
                if i > 0 {
                    nb(idx(i - 1, j, k));
                }
                if i + 1 < nx {
                    nb(idx(i + 1, j, k));
                }
                if j > 0 {
                    nb(idx(i, j - 1, k));
                }
                if j + 1 < nx {
                    nb(idx(i, j + 1, k));
                }
                if k > 0 {
                    nb(idx(i, j, k - 1));
                }
                if k + 1 < nx {
                    nb(idx(i, j, k + 1));
                }
            }
        }
    }
    b.to_csr()
}

/// Deterministic right-hand side / multi-vector entries.
fn wave(i: usize) -> f64 {
    (i as f64 * 0.37).sin() + 0.25
}

fn dmat(rows: usize, cols: usize) -> DMat {
    let mut w = DMat::zeros(rows, cols);
    for j in 0..cols {
        for (i, v) in w.col_mut(j).iter_mut().enumerate() {
            *v = wave(i + 31 * j);
        }
    }
    w
}

/// The fig-7-style heterogeneous elasticity operators the BSR path serves
/// in production (exact-zero cross couplings dropped by assembly, so the
/// block pattern is *padded*, not exact).
fn elasticity_operator(dim: usize) -> CsrMatrix {
    let mesh = match dim {
        2 => Mesh::rectangle(96, 96, 5.0, 1.0),
        _ => Mesh::box3d(28, 14, 14, 2.0, 1.0, 1.0),
    };
    let dm = DofMap::new(&mesh, 1);
    let lame = |x: &[f64]| (1.0 + x[0], 1.0 + 0.5 * x[1]);
    let body = move |_: &[f64], f: &mut [f64]| f.fill(0.0);
    let (a, _) = assemble_elasticity(&mesh, &dm, &lame, &body);
    a
}

struct Report {
    exact: Summary,
    wall: Summary,
    lines: Vec<String>,
}

impl Report {
    fn new() -> Self {
        Report {
            exact: Summary::new("kernels"),
            wall: Summary::new("kernels_wall"),
            lines: Vec::new(),
        }
    }
}

fn bench_ldlt(rep: &mut Report, calib: f64) {
    for nx in [16usize, 20] {
        let a = laplace3d(nx);
        let key = format!("ldlt3d{nx}");
        let t_scalar = median_secs(3, || {
            LocalLdlt::factor(&a, Ordering::Rcm, LdltBackend::Scalar).unwrap()
        });
        let t_super = median_secs(3, || {
            LocalLdlt::factor(&a, Ordering::Rcm, LdltBackend::Supernodal).unwrap()
        });
        let fs = LocalLdlt::factor(&a, Ordering::Rcm, LdltBackend::Scalar).unwrap();
        let fb = LocalLdlt::factor(&a, Ordering::Rcm, LdltBackend::Supernodal).unwrap();
        let b: Vec<f64> = (0..a.rows()).map(wave).collect();
        let ok = [&fs, &fb].iter().all(|f| {
            let x = f.solve(&b);
            let mut r = vec![0.0; a.rows()];
            a.spmv(&x, &mut r);
            r.iter()
                .zip(&b)
                .map(|(ri, bi)| (ri - bi).abs())
                .fold(0.0f64, f64::max)
                < 1e-9
        });
        rep.exact.insert(&format!("{key}/n"), a.rows() as f64);
        rep.exact
            .insert(&format!("{key}/nnz_l_scalar"), fs.nnz_l() as f64);
        rep.exact
            .insert(&format!("{key}/nnz_l_super"), fb.nnz_l() as f64);
        rep.exact
            .insert(&format!("{key}/solve_ok"), if ok { 1.0 } else { 0.0 });
        rep.wall
            .insert(&format!("ratio/{key}/scalar"), t_scalar / calib);
        rep.wall
            .insert(&format!("ratio/{key}/super"), t_super / calib);
        rep.wall
            .insert(&format!("speedup/{key}"), t_scalar / t_super);
        rep.lines.push(format!(
            "| LDLᵀ factor {key} (n={}) | {:.3}s | {:.3}s | **{:.2}×** | {} |",
            a.rows(),
            t_scalar,
            t_super,
            t_scalar / t_super,
            if ok { "ok" } else { "**RESIDUAL FAIL**" },
        ));
    }
}

/// The default ordering on the subdomain matrices a set-up really factors,
/// against the numeric factorization under that order. Wall tier: both
/// calibrated times and, on the rows flagged for it, their quotient (gated:
/// the ordering may not cost more than [`ORDER_OVER_NUMERIC_MAX`] of the
/// arithmetic it saves). Exact tier: nnz(L) under the order, summed over the
/// subdomains.
fn bench_ordering(rep: &mut Report, calib: f64) {
    let split = |mesh: Mesh, problem, nparts: usize| -> Decomposition {
        let part = partition_mesh_rcb(&mesh, nparts);
        decompose(&mesh, &problem, &part, nparts, 1)
    };
    let cases = [
        (
            "elast3d",
            true,
            split(
                Mesh::box3d(6, 3, 3, 2.0, 1.0, 1.0),
                presets::heterogeneous_elasticity(2, 3),
                4,
            ),
        ),
        (
            "diff2d",
            false,
            split(
                Mesh::unit_square(48, 48),
                presets::heterogeneous_diffusion(2),
                32,
            ),
        ),
    ];
    for (key, gate_share, d) in &cases {
        let mats: Vec<&CsrMatrix> = d.subdomains.iter().map(|s| &s.a_dirichlet).collect();
        let orders: Vec<Vec<usize>> = mats
            .iter()
            .map(|a| ordering::fill_reducing(a, Ordering::MinDegree))
            .collect();
        let t_order = median_secs(5, || {
            mats.iter()
                .map(|a| ordering::fill_reducing(a, Ordering::MinDegree).len())
                .sum::<usize>()
        });
        let numeric = || -> usize {
            mats.iter()
                .zip(&orders)
                .map(|(a, p)| {
                    LocalLdlt::factor_ordered(a, p, PivotPolicy::Reject, LdltBackend::Supernodal)
                        .unwrap()
                        .nnz_l()
                })
                .sum()
        };
        let t_numeric = median_secs(5, numeric);
        let nnz_l = numeric();
        rep.exact
            .insert(&format!("ordering/{key}/nnz_l"), nnz_l as f64);
        rep.wall
            .insert(&format!("ratio/ordering/{key}/order"), t_order / calib);
        rep.wall
            .insert(&format!("ratio/ordering/{key}/numeric"), t_numeric / calib);
        // The share of the numeric factorization is gated where the
        // factorization is big enough to be a yardstick; on the 450-dof
        // diff2d subdomains it takes half a millisecond itself (share
        // 0.74), and the drift gate on the calibrated ordering time stands
        // in.
        if *gate_share {
            rep.wall
                .insert(&format!("order_over_numeric/{key}"), t_order / t_numeric);
        }
        rep.lines.push(format!(
            "| ordering/{key} ({} subdomains) | order {:.4}s | numeric {:.4}s | order ÷ numeric **{:.2}** | nnz(L) {} |",
            mats.len(),
            t_order,
            t_numeric,
            t_order / t_numeric,
            nnz_l,
        ));
    }
}

fn bench_spmm(rep: &mut Report, calib: f64) {
    for dim in [2usize, 3] {
        let a = elasticity_operator(dim);
        let key = format!("spmm_elast{dim}d");
        let Some(bsr) = BsrMatrix::detect_padded(&a) else {
            rep.exact.insert(&format!("{key}/bs"), 0.0);
            rep.lines
                .push(format!("| SpMM {key} | — | — | — | **BSR NOT DETECTED** |"));
            continue;
        };
        let w = dmat(a.cols(), 8);
        let t_csr = median_secs(5, || a.csrmm(&w));
        let t_bsr = median_secs(5, || bsr.bsrmm(&w));
        let bitwise = a.csrmm(&w).data() == bsr.bsrmm(&w).data();
        rep.exact.insert(&format!("{key}/n"), a.rows() as f64);
        rep.exact
            .insert(&format!("{key}/bs"), bsr.block_size() as f64);
        rep.exact
            .insert(&format!("{key}/nnz_stored"), bsr.nnz_stored() as f64);
        rep.exact.insert(
            &format!("{key}/bitwise_ok"),
            if bitwise { 1.0 } else { 0.0 },
        );
        rep.wall
            .insert(&format!("ratio/{key}/csrmm"), t_csr / calib);
        rep.wall
            .insert(&format!("ratio/{key}/bsrmm"), t_bsr / calib);
        rep.wall.insert(&format!("speedup/{key}"), t_csr / t_bsr);
        rep.lines.push(format!(
            "| SpMM {key} (n={}, bs={}, nrhs=8) | {:.4}s | {:.4}s | **{:.2}×** | {} |",
            a.rows(),
            bsr.block_size(),
            t_csr,
            t_bsr,
            t_csr / t_bsr,
            if bitwise { "bitwise" } else { "**DIFFERS**" },
        ));
    }
}

/// The two blocks of a CGS2 pass at the `diffusion2d_many` shape (one rank's
/// 7 400 concatenated dofs, a 36-vector basis, the partition-of-unity
/// weight): the Gram row and the update `w −= Σ h_j v_j`, panel kernels
/// against the per-vector loops they replaced — written out here, since the
/// library no longer has them. Both pairs must agree to the bit.
fn bench_ortho(rep: &mut Report, calib: f64) {
    const N: usize = 7_400;
    const NV: usize = 36;
    const REPS: usize = 200;
    let d: Vec<f64> = (0..N).map(|g| 1.0 / (1 + g % 4) as f64).collect();
    let w: Vec<f64> = (0..N).map(wave).collect();
    let vs: Vec<Vec<f64>> = (0..NV)
        .map(|j| (0..N).map(|g| wave(3 * g + 31 * j)).collect())
        .collect();

    let gram_loop = |out: &mut [f64]| {
        for (o, v) in out.iter_mut().zip(&vs) {
            let mut acc = 0.0;
            for g in 0..N {
                acc += d[g] * w[g] * v[g];
            }
            *o = acc;
        }
    };
    let mut dw = vec![0.0; N];
    let mut gram_panel = |out: &mut [f64]| {
        vector::hadamard(&d, &w, &mut dw);
        vector::dot_many(&dw, &vs, out);
    };
    let (mut h_loop, mut h_panel) = (vec![0.0; NV], vec![0.0; NV]);
    let t_gram_loop = median_secs(5, || {
        for _ in 0..REPS {
            gram_loop(black_box(&mut h_loop));
        }
    });
    let t_gram_panel = median_secs(5, || {
        for _ in 0..REPS {
            gram_panel(black_box(&mut h_panel));
        }
    });
    let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&h_loop), bits(&h_panel), "gram panel differs");

    let minus_h: Vec<f64> = h_loop.iter().map(|h| -h / N as f64).collect();
    let (mut w_loop, mut w_panel) = (w.clone(), w.clone());
    let t_axpy_loop = median_secs(5, || {
        for _ in 0..REPS {
            for (a, v) in minus_h.iter().zip(&vs) {
                vector::axpy(*a, v, black_box(&mut w_loop));
            }
        }
    });
    let t_axpy_panel = median_secs(5, || {
        for _ in 0..REPS {
            vector::axpy_many(&minus_h, &vs, black_box(&mut w_panel));
        }
    });
    assert_eq!(bits(&w_loop), bits(&w_panel), "axpy panel differs");

    rep.wall
        .insert("ratio/ortho/gram_panel", t_gram_panel / calib);
    rep.wall
        .insert("ratio/ortho/axpy_panel", t_axpy_panel / calib);
    // Gated at 2×; the update block is bandwidth-bound on both sides
    // (≈ 1.5×), so only its calibrated time is held, by the drift gate.
    rep.wall
        .insert("speedup/gram_panel", t_gram_loop / t_gram_panel);
    for (key, t_loop, t_panel) in [
        ("ortho/gram_panel", t_gram_loop, t_gram_panel),
        ("ortho/axpy_panel", t_axpy_loop, t_axpy_panel),
    ] {
        let per = 1e6 / REPS as f64;
        rep.lines.push(format!(
            "| {key} (n={N}, {NV} vectors) | {:.0}µs | {:.0}µs | **{:.2}×** | bitwise |",
            t_loop * per,
            t_panel * per,
            t_loop / t_panel,
        ));
    }
}

/// Allocation counts of warm Krylov solves. `tol: 0.0` never converges, so
/// a run performs exactly `max_iters` iterations; the difference between
/// two budgets divided by the extra iterations is the per-iteration count.
fn bench_krylov_allocs(rep: &mut Report) {
    let a = laplace3d(12); // 1728 unknowns — shape is irrelevant to counts
    let b: Vec<f64> = (0..a.rows()).map(wave).collect();
    let x0 = vec![0.0; a.rows()];

    let gmres_opts = |iters: usize| GmresOpts {
        restart: 30,
        tol: 0.0,
        max_iters: iters,
        record_history: false,
        ..GmresOpts::default()
    };
    let mut ws = GmresWorkspace::new();
    let run_gmres = |iters: usize, ws: &mut GmresWorkspace| {
        try_gmres_with(
            &a,
            &IdentityPrecond,
            &SeqDot,
            &b,
            &x0,
            &gmres_opts(iters),
            None,
            ws,
        )
        .unwrap()
    };
    run_gmres(60, &mut ws); // warmup: fills the workspace pools
    let (g30, r30) = alloc_count::count_allocs(|| run_gmres(30, &mut ws));
    let (g60, r60) = alloc_count::count_allocs(|| run_gmres(60, &mut ws));
    assert_eq!((r30.iterations, r60.iterations), (30, 60));
    let g_per_iter = (g60 - g30) as f64 / 30.0;

    let cg_opts = |iters: usize| CgOpts {
        tol: 0.0,
        max_iters: iters,
        record_history: false,
        ..CgOpts::default()
    };
    let run_cg = |iters: usize| {
        try_cg(
            &a,
            &IdentityPrecond,
            &SeqDot,
            &b,
            &x0,
            &cg_opts(iters),
            None,
        )
        .unwrap()
    };
    run_cg(60);
    let (c30, _) = alloc_count::count_allocs(|| run_cg(30));
    let (c60, _) = alloc_count::count_allocs(|| run_cg(60));
    let c_per_iter = (c60 - c30) as f64 / 30.0;

    rep.exact.insert("gmres/allocs_warm_30", g30 as f64);
    rep.exact.insert("gmres/allocs_warm_60", g60 as f64);
    rep.exact.insert("gmres/allocs_per_iter", g_per_iter);
    rep.exact.insert("cg/allocs_warm_30", c30 as f64);
    rep.exact.insert("cg/allocs_warm_60", c60 as f64);
    rep.exact.insert("cg/allocs_per_iter", c_per_iter);
    rep.lines.push(format!(
        "| GMRES(30) warm solve allocations | 30 it: {g30} | 60 it: {g60} | per-iter: **{g_per_iter}** | {} |",
        if g_per_iter == 0.0 { "alloc-free" } else { "**ALLOCATES**" },
    ));
    rep.lines.push(format!(
        "| CG warm solve allocations | 30 it: {c30} | 60 it: {c60} | per-iter: **{c_per_iter}** | {} |",
        if c_per_iter == 0.0 { "alloc-free" } else { "**ALLOCATES**" },
    ));
}

/// Allocations per Krylov iteration of the SPMD path that `benchmark/` and
/// `dd-serve` run: a resident owner-map solve, 8 subdomains on 2 ranks,
/// classical GMRES under `P⁻¹_A-DEF1`. Same 30-vs-60 difference as the
/// GMRES row, over whole worlds (set-up included, so it cancels) because
/// the counter is process-wide and two ranks allocate concurrently. ν = 1
/// on the κ-contrast problem keeps the solve from finishing — and GMRES
/// from stopping on an invariant subspace — before iteration 60.
///
/// Like the sequential rows this one repeats to the unit: a rank that has
/// to block in a receive or a collective allocates what one that finds its
/// message waiting allocates (the deadlock probe it parks is a plain value),
/// so the scheduler has no say in the count and the baseline allows no
/// tolerance.
fn bench_spmd_allocs(rep: &mut Report) {
    let mesh = Mesh::unit_square(32, 32);
    let part = partition_mesh_rcb(&mesh, 8);
    let problem = presets::heterogeneous_diffusion(2);
    let decomp = Arc::new(decompose(&mesh, &problem, &part, 8, 1));
    let run = |iters: usize| {
        let decomp = Arc::clone(&decomp);
        let opts = SpmdOpts {
            geneo: GeneoOpts {
                nev: 1,
                ..Default::default()
            },
            gmres: GmresOpts {
                restart: 30,
                tol: 0.0,
                max_iters: iters,
                record_history: false,
                side: Side::Right,
                ..GmresOpts::default()
            },
            ..Default::default()
        };
        let cache = CoarseCache::new();
        alloc_count::count_allocs(|| {
            World::run(2, CostModel::default(), move |comm| {
                let plan = repartition_plan(&decomp, comm, None);
                let prepared =
                    try_setup_partitioned(&decomp, comm, &opts, Some(&cache), &plan, true)
                        .expect("owner-map set-up failed");
                let out = prepared
                    .try_apply(&decomp.rhs_global, "solve", None)
                    .expect("owner-map solve failed");
                out.result.iterations
            })
        })
    };
    run(60); // warmup: whatever the runtime initializes once per process
    let (a30, it30) = run(30);
    let (a60, it60) = run(60);
    assert_eq!((it30[0], it60[0]), (30, 60));
    let per_iter = ((a60 - a30) as f64 / 3.0).round() / 10.0;
    rep.exact.insert("spmd/allocs_per_iter", per_iter);
    rep.lines.push(format!(
        "| SPMD owner-map solve allocations (2 ranks, 8 subdomains) | 30 it: {a30} | 60 it: {a60} | per-iter: **{per_iter}** | message payloads and collective buffers |",
    ));
}

/// Ceiling on ordering seconds ÷ numeric-factorization seconds, for the
/// rows that emit `order_over_numeric/*`.
const ORDER_OVER_NUMERIC_MAX: f64 = 0.5;

/// The `--gate-wall` tier: speedups must hold ≥ 2×, and calibrated ratios
/// must not drift ≥ `WALL_FAIL`× vs the committed baseline (≥ `WALL_WARN`×
/// warns). Returns false on failure.
fn gate_wall(cur: &Summary) -> bool {
    const WALL_WARN: f64 = 1.3;
    const WALL_FAIL: f64 = 2.0;
    const MIN_SPEEDUP: f64 = 2.0;
    let mut ok = true;
    for (k, v) in &cur.metrics {
        if let Some(name) = k.strip_prefix("speedup/") {
            if *v < MIN_SPEEDUP {
                println!("- **FAIL** `{name}`: speedup {v:.2}× < required {MIN_SPEEDUP}×");
                ok = false;
            }
        }
        if let Some(name) = k.strip_prefix("order_over_numeric/") {
            if *v > ORDER_OVER_NUMERIC_MAX {
                println!(
                    "- **FAIL** `ordering/{name}`: ordering takes {v:.2}× the numeric factorization, allowed {ORDER_OVER_NUMERIC_MAX}×"
                );
                ok = false;
            }
        }
    }
    let base_path = std::path::Path::new("bench_results")
        .join("baselines")
        .join("kernels_wall.json");
    match std::fs::read_to_string(&base_path) {
        Ok(text) => {
            match Summary::from_json(&text) {
                Ok(base) => {
                    for (k, v) in &cur.metrics {
                        if !k.starts_with("ratio/") {
                            continue;
                        }
                        let Some(b) = base.metrics.get(k) else {
                            println!(
                                "- **FAIL** `{k}`: no wall baseline (regenerate kernels_wall.json)"
                            );
                            ok = false;
                            continue;
                        };
                        let drift = v / b;
                        if drift >= WALL_FAIL {
                            println!("- **FAIL** `{k}`: {drift:.2}× slower than baseline ({v:.2} vs {b:.2})");
                            ok = false;
                        } else if drift >= WALL_WARN {
                            println!(
                                "- WARN `{k}`: {drift:.2}× slower than baseline ({v:.2} vs {b:.2})"
                            );
                        }
                    }
                }
                Err(e) => {
                    println!(
                        "- **FAIL**: unreadable wall baseline {}: {e}",
                        base_path.display()
                    );
                    ok = false;
                }
            }
        }
        Err(_) => println!(
            "- no committed wall baseline at {} — drift check skipped (speedup gate still applies)",
            base_path.display()
        ),
    }
    ok
}

fn main() -> ExitCode {
    let gate = std::env::args().any(|a| a == "--gate-wall");

    println!("## Kernel speed report\n");
    let calib = calibrate();
    println!(
        "calibration: {calib:.3}s for the reference FMA chain (all ratios below are kernel-time / calibration-time)\n"
    );

    let mut rep = Report::new();
    println!("| kernel | scalar / csr | blocked / bsr | speedup | check |");
    println!("|---|---:|---:|---:|---|");
    bench_ldlt(&mut rep, calib);
    bench_ordering(&mut rep, calib);
    bench_spmm(&mut rep, calib);
    bench_ortho(&mut rep, calib);
    bench_krylov_allocs(&mut rep);
    bench_spmd_allocs(&mut rep);
    for l in &rep.lines {
        println!("{l}");
    }

    let correctness_ok = rep
        .exact
        .metrics
        .iter()
        .filter(|(k, _)| k.ends_with("_ok"))
        .all(|(_, v)| *v == 1.0)
        && rep.exact.metrics.get("gmres/allocs_per_iter") == Some(&0.0);

    match dd_bench::write_summary("kernels", &rep.exact) {
        Ok(p) => println!("\nexact metrics → `{}`", p.display()),
        Err(e) => {
            eprintln!("error: writing kernels.json: {e}");
            return ExitCode::FAILURE;
        }
    }
    match dd_bench::write_summary("kernels_wall", &rep.wall) {
        Ok(p) => println!("wall ratios → `{}`", p.display()),
        Err(e) => {
            eprintln!("error: writing kernels_wall.json: {e}");
            return ExitCode::FAILURE;
        }
    }

    if !correctness_ok {
        println!(
            "\n**kernel_bench FAILED** — a correctness flag or the zero-alloc contract broke."
        );
        return ExitCode::FAILURE;
    }
    if gate {
        println!("\n### Wall gate (`--gate-wall`)\n");
        if !gate_wall(&rep.wall) {
            println!("\n**Wall gate FAILED.**");
            return ExitCode::FAILURE;
        }
        println!("\nWall gate passed.");
    }
    ExitCode::SUCCESS
}
