//! §3.5 differential test: fused pipelined GMRES is mathematically
//! equivalent to classical GMRES — same Krylov space, same
//! minimization — so at a fixed iteration count their iterates must agree
//! to floating-point drift. The paper's Figure 12 problem (2D P2
//! heterogeneous diffusion, 8 subdomains) is the reference workload.

use dd_comm::{CostModel, World};
use dd_core::{
    decompose, problem::presets, repartition_plan, try_run_spmd, try_setup_partitioned,
    CoarseCache, Decomposition, GeneoOpts, SolverKind, SpmdOpts,
};
use dd_krylov::{GmresOpts, Side};
use dd_mesh::Mesh;
use dd_part::partition_mesh_rcb;
use std::sync::Arc;

const N: usize = 8;

/// The fig12 workload: `unit_square(28, 28)`, P2, 8 subdomains, δ = 1.
fn fig12_decomp() -> Arc<Decomposition> {
    let mesh = Mesh::unit_square(28, 28);
    let part = partition_mesh_rcb(&mesh, N);
    let problem = presets::heterogeneous_diffusion(2);
    Arc::new(decompose(&mesh, &problem, &part, N, 1))
}

fn opts(kind: SolverKind, tol: f64, max_iters: usize) -> SpmdOpts {
    SpmdOpts {
        solver: kind,
        geneo: GeneoOpts {
            nev: 6,
            ..Default::default()
        },
        n_masters: 2,
        gmres: GmresOpts {
            tol,
            max_iters,
            side: Side::Left,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Run one solver kind and return the global iterate (per-rank locals
/// concatenated in rank order) plus rank 0's residual history.
fn run(decomp: &Arc<Decomposition>, o: &SpmdOpts) -> (Vec<f64>, Vec<f64>, usize, bool) {
    let d = Arc::clone(decomp);
    let o = o.clone();
    let sols = World::run(N, CostModel::default(), move |comm| {
        try_run_spmd(&d, comm, &o).expect("SPMD solve failed")
    });
    let x: Vec<f64> = sols
        .iter()
        .flat_map(|s| s.solve.locals.iter().flat_map(|(_, x)| x.iter().copied()))
        .collect();
    let r0 = &sols[0].solve.result;
    (x, r0.history.clone(), r0.iterations, r0.converged)
}

/// The same solve on the owner map: 2 ranks hosting 4 subdomains each. The
/// iterate comes back in subdomain order, like [`run`]'s.
fn run_owner_map(decomp: &Arc<Decomposition>, o: &SpmdOpts) -> (Vec<f64>, usize) {
    let (d, o) = (Arc::clone(decomp), o.clone());
    let cache = CoarseCache::new();
    let per_rank = World::run(2, CostModel::default(), move |comm| {
        let plan = repartition_plan(&d, comm, None);
        let prepared = try_setup_partitioned(&d, comm, &o, Some(&cache), &plan, true)
            .expect("owner-map set-up failed");
        let out = prepared
            .try_apply(&d.rhs_global, "solve", None)
            .expect("owner-map solve failed");
        (out.result.iterations, out.locals)
    });
    let iterations = per_rank[0].0;
    let mut locals: Vec<(usize, Vec<f64>)> = per_rank.into_iter().flat_map(|r| r.1).collect();
    locals.sort_by_key(|(s, _)| *s);
    (
        locals.into_iter().flat_map(|(_, x)| x).collect(),
        iterations,
    )
}

fn rel_inf(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let scale = a.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1e-300);
    a.iter()
        .zip(b)
        .fold(0.0f64, |m, (x, y)| m.max((x - y).abs()))
        / scale
}

/// At fixed iteration counts the three solvers produce the same iterate to
/// 1e-10 — pipelining reorganizes the reductions, not the mathematics.
#[test]
fn iterates_agree_to_1e10_at_fixed_iteration_counts() {
    let decomp = fig12_decomp();
    // This workload converges in ~11 iterations, and once the residual
    // falls below ~1e-7 (k ≥ 8) the least-squares update is degenerate
    // enough that recurrence drift crosses 1e-10 — so compare while the
    // solve is still in progress.
    for k in [2usize, 4, 6] {
        let (x_ref, h_ref, it_ref, _) = run(&decomp, &opts(SolverKind::Classical, 0.0, k));
        assert_eq!(it_ref, k);
        // The owner map's reference is classical GMRES on the same map (the
        // reductions sum in a different order on 2 ranks than on 8). The
        // recurrence drift that ends the comparison at k = 6 on the identity
        // map (6.6e-11 there) measures 1.04e-10 on this one.
        let owner_ref =
            (k < 6).then(|| run_owner_map(&decomp, &opts(SolverKind::Classical, 0.0, k)).0);
        let kind = SolverKind::Fused;
        let (x, h, it, _) = run(&decomp, &opts(kind, 0.0, k));
        assert_eq!(it, k, "{kind:?} must run exactly {k} iterations");
        let d = rel_inf(&x_ref, &x);
        assert!(
            d <= 1e-10,
            "{kind:?} iterate diverged from classical GMRES after {k} \
             iterations: rel err {d:.3e}"
        );
        // Residual histories track each other too. The fused loop
        // estimates the norm through recurrences instead of
        // recomputing it, so drift relative to the *current* residual
        // grows as it shrinks; normalize by the initial residual.
        let scale = h_ref.first().copied().unwrap_or(1.0).max(1e-300);
        for (i, (a, b)) in h_ref.iter().zip(&h).enumerate() {
            let dr = (a - b).abs() / scale;
            assert!(
                dr <= 1e-8,
                "{kind:?} residual history drifts at iteration {i}: \
                 {a:.6e} vs {b:.6e}"
            );
        }
        // The owner map runs the same loops over the same applies.
        if let Some(x_ref) = &owner_ref {
            let (x, it) = run_owner_map(&decomp, &opts(kind, 0.0, k));
            assert_eq!(it, k, "{kind:?} on the owner map must run {k} iterations");
            let d = rel_inf(x_ref, &x);
            assert!(
                d <= 1e-10,
                "{kind:?} on the owner map diverged from classical GMRES after \
                 {k} iterations: rel err {d:.3e}"
            );
        }
    }
}

/// Run to convergence: both loops stop within a couple of iterations of
/// each other at the same tolerance.
#[test]
fn converged_runs_agree_on_iteration_counts() {
    let decomp = fig12_decomp();
    let (_, _, it_ref, conv_ref) = run(&decomp, &opts(SolverKind::Classical, 1e-6, 300));
    assert!(conv_ref);
    let kind = SolverKind::Fused;
    let (_, _, it, conv) = run(&decomp, &opts(kind, 1e-6, 300));
    assert!(conv, "{kind:?} failed to converge");
    assert!(
        it.abs_diff(it_ref) <= 2,
        "{kind:?} iteration count {it} far from classical {it_ref}"
    );
}
