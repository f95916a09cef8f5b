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
    decompose, repartition_plan, try_run_spmd, try_setup, try_setup_partitioned, two_level,
    AssemblyVariant, CoarseCache, CoarseSolve, Decomposition, DeflationSource, Election, GeneoOpts,
    Problem, RasPrecond, SpmdOpts, TwoLevelOpts,
};
use dd_geneo::krylov::{try_gmres, GmresOpts, Preconditioner, SeqDot, Side};
use dd_geneo::mesh::Mesh;
use dd_geneo::part::partition_mesh_rcb;
use dd_geneo::solver::Ordering;
use std::collections::HashMap;
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
    sequential_with(decomp, &m, &gmres_opts())
}

fn sequential_with(decomp: &Decomposition, m: &dyn Preconditioner, opts: &GmresOpts) -> Answer {
    let x0 = vec![0.0; decomp.n_global];
    let res = try_gmres(
        &decomp.a_global,
        m,
        &SeqDot,
        &decomp.rhs_global,
        &x0,
        opts,
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
    let (iterations, converged) = (
        sols[0].solve.result.iterations,
        sols[0].solve.result.converged,
    );
    assert!(sols.iter().all(|s| s.solve.result.iterations == iterations));
    Answer {
        x: common::reassemble(decomp, sols.iter().map(|s| &s.solve.locals)),
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

/// A rank's Krylov vectors hold each of its distinct dofs once: the
/// resident solve's `op.dim()` — the length of the iterate the loop
/// returns — is the number of distinct global dofs of the owned subdomains
/// on an owner map (less than their summed lengths, since neighbours on one
/// rank share their overlap), and `n_local` on the identity map.
#[test]
fn krylov_vectors_hold_each_distinct_dof_once() {
    let decomp = build(
        Mesh::unit_square(16, 16),
        presets::heterogeneous_diffusion(1),
        8,
    );
    let opts = spmd_opts(2, CoarseSolve::Distributed);
    let dim = |ranks: usize| {
        let (d, o) = (Arc::clone(&decomp), opts.clone());
        World::run(ranks, CostModel::default(), move |comm| {
            let plan = repartition_plan(&d, comm, None);
            let prepared = if ranks == d.n_subdomains() {
                try_setup(&d, comm, &o)
            } else {
                try_setup_partitioned(&d, comm, &o, None, &plan, true)
            }
            .expect("set-up failed");
            let out = prepared
                .try_apply(&d.rhs_global, "solve", None)
                .expect("solve failed");
            assert!(out.result.converged);
            let owned: Vec<usize> = out.locals.iter().map(|(s, _)| *s).collect();
            (owned, out.result.x.len())
        })
    };
    for (owned, n) in dim(2) {
        assert!(
            owned.len() > 1,
            "an owner map with several subdomains a rank"
        );
        let mut dofs: Vec<u32> = owned
            .iter()
            .flat_map(|&s| decomp.subdomains[s].l2g.iter().copied())
            .collect();
        let concatenated = dofs.len();
        dofs.sort_unstable();
        dofs.dedup();
        assert_eq!(n, dofs.len(), "owner map: one value per distinct dof");
        assert!(n < concatenated, "owned neighbours share dofs");
    }
    for (owned, n) in dim(decomp.n_subdomains()) {
        assert_eq!(owned.len(), 1);
        assert_eq!(n, decomp.subdomains[owned[0]].n_local(), "identity map");
    }
}

/// Every copy of a shared dof holds the same bits on every rank, in every
/// vector an apply forms: one `PreparedMulti::debug_apply` on finding
/// 1(c)'s first input (40×40, 32 subdomains, ν = 3) on the identity map
/// and on 2- and 4-rank owner maps, its `z`, `A z` (the RAS round's second
/// column), `A q` (the `T y` round), `q` and `A z` by the SpMV read per
/// global dof. The scrub invariant of DESIGN.md §15.
#[test]
fn copies_of_a_dof_agree_to_the_bit_on_every_rank() {
    let decomp = build(
        Mesh::unit_square(40, 40),
        presets::heterogeneous_diffusion(2),
        32,
    );
    let opts = spmd_opts(3, CoarseSolve::Distributed);
    let names = ["z", "az", "aq", "q", "a_of_z"];
    for ranks in [decomp.n_subdomains(), 2, 4] {
        let (d, o) = (Arc::clone(&decomp), opts.clone());
        let per_rank = World::run(ranks, CostModel::default(), move |comm| {
            let plan = repartition_plan(&d, comm, None);
            let prepared = if ranks == d.n_subdomains() {
                try_setup(&d, comm, &o)
            } else {
                try_setup_partitioned(&d, comm, &o, None, &plan, true)
            }
            .expect("set-up failed");
            let owned: Vec<usize> = (0..d.n_subdomains())
                .filter(|&s| plan.owner_world[s] == comm.world_rank())
                .collect();
            let p = prepared
                .debug_apply(0.0, &d.rhs_global)
                .expect("apply failed");
            (owned, [p.z, p.az, p.aq, p.q, p.a_of_z])
        });
        let mut first: HashMap<(usize, u32), (usize, u64)> = HashMap::new();
        let mut copies = 0;
        for (rank, (owned, vectors)) in per_rank.iter().enumerate() {
            let l2g = owned.iter().flat_map(|&s| &decomp.subdomains[s].l2g);
            for (p, &g) in l2g.enumerate() {
                for (v, (name, x)) in names.iter().zip(vectors).enumerate() {
                    let bits = x[p].to_bits();
                    let &mut (r0, b0) = first.entry((v, g)).or_insert((rank, bits));
                    copies += usize::from(r0 != rank);
                    assert_eq!(
                        bits, b0,
                        "{ranks} ranks: `{name}` at dof {g} differs between ranks {r0} and {rank}"
                    );
                }
            }
        }
        assert!(copies > 0, "{ranks} ranks: no dof held on two ranks");
    }
}

/// The inputs of ROADMAP finding 1(c), P2 heterogeneous diffusion on 32
/// subdomains, each solved four ways: sequentially, on the identity map
/// and on 2- and 4-rank owner maps. The rows: the finding's own (40×40,
/// ν = 3, tol 1e-8), 44×44 at ν = 3 and tol 1e-6, and one-level RAS (no
/// coarse space) on 40×40 at tol 1e-6. Every way converges to a true
/// residual within 100× the tolerance, and all four take the same number
/// of iterations: a halo round writes every copy of a dof on every rank as
/// one sum in one order (DESIGN.md §15), and the SPMD runs take the
/// sequential iteration count. Before that, the identity map took 182
/// iterations on the first row and 98 on the last. The counts are printed
/// (`-- --nocapture`).
#[test]
fn finding_1c_converges_three_ways() {
    for (mesh, nev, tol) in [(40, 3, 1e-8), (44, 3, 1e-6)] {
        two_level_1c_row(mesh, nev, tol);
    }
    let decomp = build(
        Mesh::unit_square(40, 40),
        presets::heterogeneous_diffusion(2),
        32,
    );
    let opts = opts_1c(0, 1e-6);
    let ras = RasPrecond::build(&decomp, Ordering::MinDegree);
    report_1c(
        "40×40, one-level RAS, tol 1e-6",
        &decomp,
        1e-6,
        [
            sequential_with(&decomp, &ras, &opts.gmres),
            identity_map(&decomp, &opts),
            owner_map(&decomp, &opts, 2),
            owner_map(&decomp, &opts, 4),
        ],
    );
}

/// ROADMAP 1(d): the 48×48 mesh on 32 subdomains at ν = 2 and 3 and tol
/// 1e-8, the four ways of `finding_1c_converges_three_ways`, held to the
/// same count. About 30 s in a debug build (as long as the three rows
/// above together), so it runs in release only
/// (`cargo test --release --test owner_map_differential`, about 2 s).
#[test]
#[cfg_attr(debug_assertions, ignore = "48×48 rows: run with --release")]
fn finding_1d_48_by_48_converges_four_ways() {
    for nev in [2, 3] {
        two_level_1c_row(48, nev, 1e-8);
    }
}

/// Finding 1(c)'s GMRES and GenEO options at `nev` and tolerance `tol`.
fn opts_1c(nev: usize, tol: f64) -> SpmdOpts {
    SpmdOpts {
        gmres: GmresOpts {
            tol,
            ..gmres_opts()
        },
        ..spmd_opts(nev, CoarseSolve::Distributed)
    }
}

/// One two-level finding-1(c) row: the `mesh`×`mesh` square on 32
/// subdomains at `nev` and `tol`, solved the four ways of [`report_1c`].
fn two_level_1c_row(mesh: usize, nev: usize, tol: f64) {
    let decomp = build(
        Mesh::unit_square(mesh, mesh),
        presets::heterogeneous_diffusion(2),
        32,
    );
    let opts = opts_1c(nev, tol);
    let m = two_level(
        &decomp,
        &TwoLevelOpts {
            geneo: opts.geneo.clone(),
            ..Default::default()
        },
    );
    report_1c(
        &format!("{mesh}×{mesh}, ν = {nev}, tol {tol:e}"),
        &decomp,
        tol,
        [
            sequential_with(&decomp, &m, &opts.gmres),
            identity_map(&decomp, &opts),
            owner_map(&decomp, &opts, 2),
            owner_map(&decomp, &opts, 4),
        ],
    );
}

/// Print one finding-1(c) row, hold each of its four runs to convergence
/// and a true residual within 100× the tolerance `tol`, and the three SPMD
/// runs to the sequential iteration count.
fn report_1c(row: &str, decomp: &Decomposition, tol: f64, answers: [Answer; 4]) {
    let ways = [
        "sequential",
        "identity map, 32 ranks",
        "owner map, 2 ranks",
        "owner map, 4 ranks",
    ];
    for (what, answer) in ways.iter().zip(&answers) {
        println!(
            "finding 1(c), {row}, {what}: {} iterations",
            answer.iterations
        );
        assert!(answer.converged, "{row}, {what}: not converged");
        let residual = true_residual(decomp, &answer.x);
        assert!(
            residual <= 100.0 * tol,
            "{row}, {what}: true residual {residual:e}"
        );
    }
    let counts: Vec<usize> = answers.iter().map(|a| a.iterations).collect();
    assert!(
        counts.iter().all(|&c| c == counts[0]),
        "{row}: iterations {counts:?} ({ways:?})"
    );
}
