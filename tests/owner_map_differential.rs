//! One decomposition, solved three ways: sequentially (`TwoLevelPrecond` +
//! `try_gmres`), on the identity owner map (one rank per subdomain,
//! `try_run_spmd`) and on a balanced owner map (2 ranks and 1 rank,
//! `try_setup_partitioned` + `try_apply`). The two SPMD runs share the
//! set-up (`dd_core::spmd::try_setup_on`) and every line after it
//! (`dd_core::resident`); the sequential run is the referee neither of them
//! is derived from.
//!
//! Right preconditioning at `tol = 1e-8`, so the monitored residual is the
//! true one.

use dd_geneo::comm::{CostModel, World};
use dd_geneo::core::problem::presets;
use dd_geneo::core::{
    decompose, repartition_plan, try_run_spmd, try_setup_partitioned, two_level, AssemblyVariant,
    CoarseCache, CoarseSolve, Decomposition, DeflationSource, Election, GeneoOpts, Problem,
    SpmdOpts, TwoLevelOpts,
};
use dd_geneo::krylov::{try_gmres, GmresOpts, SeqDot, Side};
use dd_geneo::mesh::Mesh;
use dd_geneo::part::partition_mesh_rcb;
use std::sync::Arc;

mod common;

fn build(mesh: Mesh, problem: Problem, nparts: usize) -> Arc<Decomposition> {
    let part = partition_mesh_rcb(&mesh, nparts);
    Arc::new(decompose(&mesh, &problem, &part, nparts, 1))
}

fn gmres_opts() -> GmresOpts {
    GmresOpts {
        tol: 1e-8,
        max_iters: 500,
        side: Side::Right,
        ..Default::default()
    }
}

fn spmd_opts(nev: usize, coarse_solve: CoarseSolve) -> SpmdOpts {
    SpmdOpts {
        geneo: GeneoOpts {
            nev,
            ..Default::default()
        },
        gmres: gmres_opts(),
        coarse_solve,
        ..Default::default()
    }
}

/// One answer: the global solution and the iteration count.
struct Answer {
    x: Vec<f64>,
    iterations: usize,
    converged: bool,
}

fn sequential(decomp: &Decomposition, nev: usize) -> Answer {
    let m = two_level(
        decomp,
        &TwoLevelOpts {
            geneo: GeneoOpts {
                nev,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let x0 = vec![0.0; decomp.n_global];
    let res = try_gmres(
        &decomp.a_global,
        &m,
        &SeqDot,
        &decomp.rhs_global,
        &x0,
        &gmres_opts(),
        None,
    )
    .expect("sequential solve interrupted");
    Answer {
        x: res.x,
        iterations: res.iterations,
        converged: res.converged,
    }
}

/// One rank per subdomain.
fn identity_map(decomp: &Arc<Decomposition>, opts: &SpmdOpts) -> Answer {
    let (d, o) = (Arc::clone(decomp), opts.clone());
    let sols = World::run(decomp.n_subdomains(), CostModel::default(), move |comm| {
        try_run_spmd(&d, comm, &o).expect("identity-map solve failed")
    });
    let (iterations, converged) = (sols[0].report.iterations, sols[0].report.converged);
    assert!(sols.iter().all(|s| s.report.iterations == iterations));
    Answer {
        x: common::reassemble(decomp, sols.iter().map(|s| &s.locals)),
        iterations,
        converged,
    }
}

/// `ranks` ranks, each hosting a contiguous chunk of the subdomains, with
/// a fresh coarse cache or none. Also returns where each rank's deflation
/// vectors came from.
fn owner_map_on(
    decomp: &Arc<Decomposition>,
    opts: &SpmdOpts,
    ranks: usize,
    cached: bool,
) -> (Answer, Vec<DeflationSource>) {
    let (d, o) = (Arc::clone(decomp), opts.clone());
    let cache = cached.then(CoarseCache::new);
    let per_rank = World::run(ranks, CostModel::default(), move |comm| {
        let plan = repartition_plan(&d, comm, None);
        let prepared = try_setup_partitioned(&d, comm, &o, cache.as_ref(), &plan, true)
            .expect("owner-map set-up failed");
        let out = prepared
            .try_apply(&d.rhs_global, "solve", None)
            .expect("owner-map solve failed");
        let deflation = prepared.report(&out).run.deflation;
        (
            out.result.iterations,
            out.result.converged,
            out.locals,
            deflation,
        )
    });
    let (iterations, converged) = (per_rank[0].0, per_rank[0].1);
    assert!(per_rank.iter().all(|r| r.0 == iterations));
    let deflation = per_rank.iter().map(|r| r.3).collect();
    let mut locals: Vec<(usize, Vec<f64>)> = per_rank.into_iter().flat_map(|r| r.2).collect();
    locals.sort_by_key(|(s, _)| *s);
    let locals: Vec<Vec<f64>> = locals.into_iter().map(|(_, x)| x).collect();
    let answer = Answer {
        x: decomp.from_locals(&locals),
        iterations,
        converged,
    };
    (answer, deflation)
}

fn owner_map(decomp: &Arc<Decomposition>, opts: &SpmdOpts, ranks: usize) -> Answer {
    owner_map_on(decomp, opts, ranks, true).0
}

fn norm(v: &[f64]) -> f64 {
    v.iter().map(|a| a * a).sum::<f64>().sqrt()
}

fn true_residual(decomp: &Decomposition, x: &[f64]) -> f64 {
    let mut r = vec![0.0; x.len()];
    decomp.a_global.spmv(x, &mut r);
    for (ri, bi) in r.iter_mut().zip(&decomp.rhs_global) {
        *ri -= bi;
    }
    norm(&r) / norm(&decomp.rhs_global)
}

fn assert_agrees(what: &str, decomp: &Decomposition, reference: &Answer, got: &Answer) {
    assert!(got.converged, "{what}: not converged");
    let residual = true_residual(decomp, &got.x);
    assert!(residual <= 1e-7, "{what}: true residual {residual:e}");
    let diff: Vec<f64> = got.x.iter().zip(&reference.x).map(|(a, b)| a - b).collect();
    let rel = norm(&diff) / norm(&reference.x);
    assert!(
        rel <= 1e-8,
        "{what}: solution off the sequential one by {rel:e}"
    );
    assert!(
        got.iterations.abs_diff(reference.iterations) <= 1,
        "{what}: {} iterations, sequential {}",
        got.iterations,
        reference.iterations
    );
}

fn three_ways(name: &str, decomp: &Arc<Decomposition>, nev: usize) {
    let reference = sequential(decomp, nev);
    assert!(reference.converged, "{name}: sequential run not converged");
    for coarse in [CoarseSolve::Distributed, CoarseSolve::Redundant] {
        let opts = spmd_opts(nev, coarse);
        let got = identity_map(decomp, &opts);
        assert_agrees(
            &format!("{name}/{coarse:?}/identity"),
            decomp,
            &reference,
            &got,
        );
        for ranks in [2, 1] {
            let got = owner_map(decomp, &opts, ranks);
            let what = format!("{name}/{coarse:?}/owner map on {ranks}");
            assert_agrees(&what, decomp, &reference, &got);
        }
        // GenEO is per subdomain: a map that adopted nothing gets the
        // eigenvectors on every subdomain, cache or no cache.
        let (got, deflation) = owner_map_on(decomp, &opts, 2, false);
        let what = format!("{name}/{coarse:?}/owner map on 2, no cache");
        assert_eq!(deflation, [DeflationSource::Geneo; 2], "{what}");
        assert_agrees(&what, decomp, &reference, &got);
        options_agree_bitwise(name, decomp, &opts, 2);
    }
    // Four ranks, where the two elections really differ. Redundant: the
    // cooperative factorization's block bounds follow the election, and
    // with them its summation order.
    let opts = spmd_opts(nev, CoarseSolve::Redundant);
    options_agree_bitwise(name, decomp, &opts, 4);
}

/// `Election × AssemblyVariant` on one owner map: which ranks gather `E`
/// and how its entries travel does not change a bit of it (no entry is sent
/// twice, so nothing is summed), hence not a bit of the solution.
fn options_agree_bitwise(name: &str, decomp: &Arc<Decomposition>, base: &SpmdOpts, ranks: usize) {
    let mut first: Option<Vec<u64>> = None;
    for election in [Election::NonUniform, Election::Uniform] {
        for assembly in [AssemblyVariant::IndexFree, AssemblyVariant::NaturalGatherv] {
            let opts = SpmdOpts {
                election,
                assembly,
                ..base.clone()
            };
            let got = owner_map(decomp, &opts, ranks);
            let what = format!(
                "{name}/{:?}/{election:?}/{assembly:?} on {ranks}",
                base.coarse_solve
            );
            assert!(got.converged, "{what}: not converged");
            let bits: Vec<u64> = got.x.iter().map(|v| v.to_bits()).collect();
            match &first {
                None => first = Some(bits),
                Some(f) => assert!(*f == bits, "{what}: solution bits moved"),
            }
        }
    }
}

#[test]
fn diffusion_2d_heterogeneous_three_ways() {
    let decomp = build(
        Mesh::unit_square(24, 24),
        presets::heterogeneous_diffusion(2),
        8,
    );
    three_ways("diffusion2d", &decomp, 4);
}

#[test]
fn elasticity_3d_three_ways() {
    let decomp = build(
        Mesh::box3d(4, 2, 2, 2.0, 1.0, 1.0),
        presets::heterogeneous_elasticity(2, 3),
        4,
    );
    three_ways("elasticity3d", &decomp, 8);
}

/// The input of ROADMAP finding 1(c): 40×40 P2 heterogeneous diffusion, 32
/// subdomains, ν = 3. Only convergence is asserted — that is all that holds
/// at the parent — and the three counts are printed. Measured: sequential
/// 51, identity map 191, owner map 191. The two SPMD runs share the set-up
/// and the applies, differ in the owner map alone, and agree; what
/// separates them from the sequential run is still open (ROADMAP 1(c)).
#[test]
fn finding_1c_converges_three_ways() {
    let decomp = build(
        Mesh::unit_square(40, 40),
        presets::heterogeneous_diffusion(2),
        32,
    );
    let opts = spmd_opts(3, CoarseSolve::Distributed);
    let runs = [
        ("sequential", sequential(&decomp, 3)),
        ("identity map, 32 ranks", identity_map(&decomp, &opts)),
        ("owner map, 2 ranks", owner_map(&decomp, &opts, 2)),
    ];
    for (what, answer) in &runs {
        println!("finding 1(c), {what}: {} iterations", answer.iterations);
        assert!(answer.converged, "{what}: not converged");
        let residual = true_residual(&decomp, &answer.x);
        assert!(residual <= 1e-6, "{what}: true residual {residual:e}");
    }
}
