//! Degenerate inputs to the resident solve: a right-hand side holding NaN
//! or +Inf, an all-zero one, a world of one rank holding the only
//! subdomain, and ν = 0 everywhere. A non-finite right-hand side is a typed
//! [`SpmdError::Protocol`] on every rank, before the first message; the
//! others must come back as a [`SolveResult`] that tells the truth — never
//! a panic, and never `converged` beside a non-finite `x`.

mod common;

use dd_geneo::comm::{CostModel, World};
use dd_geneo::core::problem::presets;
use dd_geneo::core::{
    decompose, repartition_plan, try_run_spmd, try_setup, try_setup_partitioned, CoarseCache,
    CoarseOutcome, Decomposition, GeneoOpts, SolverKind, SpmdError, SpmdOpts,
};
use dd_geneo::krylov::{GmresOpts, Side, SolveResult};
use dd_geneo::mesh::Mesh;
use dd_geneo::part::partition_mesh_rcb;
use std::sync::Arc;

fn build(nparts: usize) -> Arc<Decomposition> {
    let mesh = Mesh::unit_square(10, 10);
    let part = partition_mesh_rcb(&mesh, nparts);
    Arc::new(decompose(
        &mesh,
        &presets::heterogeneous_diffusion(1),
        &part,
        nparts,
        1,
    ))
}

/// Every Krylov loop the SPMD solve offers.
fn loops() -> Vec<(SolverKind, Side)> {
    vec![
        (SolverKind::Classical, Side::Right),
        (SolverKind::Classical, Side::Left),
        (SolverKind::Fused, Side::Left),
    ]
}

fn opts(solver: SolverKind, side: Side) -> SpmdOpts {
    SpmdOpts {
        geneo: GeneoOpts {
            nev: 3,
            ..Default::default()
        },
        gmres: GmresOpts {
            tol: 1e-8,
            max_iters: 100,
            side,
            ..Default::default()
        },
        solver,
        ..Default::default()
    }
}

/// The right-hand sides under test, by name.
fn right_hand_sides(n: usize) -> Vec<(&'static str, Vec<f64>)> {
    let poisoned = |v: f64| {
        let mut b = vec![1.0; n];
        b[n / 2] = v;
        b
    };
    vec![
        ("nan", poisoned(f64::NAN)),
        ("inf", poisoned(f64::INFINITY)),
        ("zero", vec![0.0; n]),
    ]
}

/// A result is honest when a converged solve holds a finite `x` and a
/// finite residual.
fn assert_honest(what: &str, res: &Result<SolveResult, SpmdError>) {
    match res {
        Ok(r) if r.converged => {
            assert!(
                r.x.iter().all(|v| v.is_finite()),
                "{what}: converged on a non-finite x"
            );
            assert!(
                r.final_residual.is_finite(),
                "{what}: converged on a non-finite residual"
            );
        }
        Ok(_) | Err(_) => {}
    }
}

/// `try_apply` of every degenerate right-hand side on a 2-rank world, on
/// the identity map (`owner_map = false`: two subdomains) or an owner map
/// (four subdomains, two a rank).
fn apply_on_two_ranks(owner_map: bool) -> Vec<(String, Result<SolveResult, SpmdError>)> {
    let decomp = build(if owner_map { 4 } else { 2 });
    let mut out = Vec::new();
    for (solver, side) in loops() {
        let (d, o) = (Arc::clone(&decomp), opts(solver, side));
        let per_rank = World::run(2, CostModel::default(), move |comm| {
            let prepared = if owner_map {
                let plan = repartition_plan(&d, comm, None);
                try_setup_partitioned(&d, comm, &o, Some(&CoarseCache::new()), &plan, true)
            } else {
                try_setup(&d, comm, &o)
            }
            .expect("set-up of a regular problem");
            right_hand_sides(d.n_global)
                .into_iter()
                .map(|(name, b)| {
                    let res = prepared.try_apply(&b, "solve", None).map(|o| o.result);
                    (format!("{solver:?}/{side:?}/{name}"), res)
                })
                .collect::<Vec<_>>()
        });
        out.extend(per_rank.into_iter().flatten());
    }
    out
}

fn check_two_ranks(owner_map: bool) {
    let rows = apply_on_two_ranks(owner_map);
    assert_eq!(rows.len(), 2 * loops().len() * 3);
    let poisoned_at = build(if owner_map { 4 } else { 2 }).n_global / 2;
    for (what, res) in &rows {
        assert_honest(what, res);
        if what.ends_with("/zero") {
            // b = 0 has the answer x = 0, and the solve must give it.
            let r = res.as_ref().unwrap_or_else(|e| panic!("{what}: {e}"));
            assert!(r.converged, "{what}: b = 0 did not converge");
            assert!(r.x.iter().all(|&v| v == 0.0), "{what}: b = 0 gave x ≠ 0");
        } else {
            // A non-finite right-hand side is refused, naming its column;
            // the zero row after it shows the prepared state still answers.
            let value = if what.ends_with("/nan") { "NaN" } else { "inf" };
            match res {
                Err(SpmdError::Protocol { what: msg, .. }) => assert_eq!(
                    msg,
                    &format!("right-hand side 0 holds {value} at dof {poisoned_at}"),
                    "{what}"
                ),
                Err(e) => panic!("{what}: not a protocol error: {e}"),
                Ok(r) => panic!("{what}: answered ({:?})", r.status),
            }
        }
    }
}

#[test]
fn degenerate_right_hand_sides_on_the_identity_map_are_honest() {
    check_two_ranks(false);
}

#[test]
fn degenerate_right_hand_sides_on_an_owner_map_are_honest() {
    check_two_ranks(true);
}

/// One subdomain on one rank: the coarse space is the subdomain's own
/// deflation block and RAS is the exact local solve.
#[test]
fn one_subdomain_on_one_rank_solves() {
    let decomp = build(1);
    for (solver, side) in loops() {
        let (d, o) = (Arc::clone(&decomp), opts(solver, side));
        let mut per_rank = World::run(1, CostModel::default(), move |comm| {
            try_run_spmd(&d, comm, &o).map(|s| s.solve)
        });
        let what = format!("{solver:?}/{side:?}");
        let solve = per_rank.remove(0).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert!(solve.result.converged, "{what}");
        let x = common::reassemble(&decomp, [&solve.locals]);
        let rr = common::global_residual(&decomp, &x);
        assert!(rr < 1e-6, "{what}: true residual {rr:e}");
    }
}

/// ν = 0 on every subdomain: no coarse space, so eq. 6 is one-level RAS.
/// On the identity map (four ranks) and on a 2-rank owner map, every loop
/// converges to an honest answer and reports an empty coarse level, and
/// the fused loop, which has no coarse solve to ride, gives the
/// classical left-preconditioned answer to the bit. Honest: the monitored
/// residual meets the tolerance, and under right preconditioning, where
/// that residual is the true one, so does the true residual of the
/// reassembled `x`.
#[test]
fn nu_zero_everywhere_is_one_level_ras_under_every_loop() {
    let decomp = build(4);
    for ranks in [4, 2] {
        let mut answers: Vec<(String, Vec<u64>)> = Vec::new();
        for (solver, side) in loops() {
            let (d, mut o) = (Arc::clone(&decomp), opts(solver, side));
            o.geneo.nev = 0;
            let tol = o.gmres.tol;
            let per_rank = World::run(ranks, CostModel::default(), move |comm| {
                let plan = repartition_plan(&d, comm, None);
                let prepared = try_setup_partitioned(&d, comm, &o, None, &plan, true)
                    .expect("set-up at ν = 0");
                prepared
                    .try_apply(&d.rhs_global, "solve", None)
                    .map(|out| (prepared.report(&out).run.coarse, out))
            });
            let what = format!("{ranks} ranks, {solver:?}/{side:?}");
            let mut locals = Vec::new();
            for res in per_rank {
                let (coarse, out) = res.unwrap_or_else(|e| panic!("{what}: {e}"));
                assert_eq!(coarse, CoarseOutcome::EmptyCoarse, "{what}");
                let r = &out.result;
                assert!(r.converged, "{what}: not converged ({})", r.status);
                assert!(r.x.iter().all(|v| v.is_finite()), "{what}: non-finite x");
                assert!(r.final_residual <= tol, "{what}: {:e}", r.final_residual);
                locals.push(out.locals);
            }
            let x = common::reassemble(&decomp, &locals);
            let rr = common::global_residual(&decomp, &x);
            assert!(
                side == Side::Left || rr <= tol,
                "{what}: true residual {rr:e}"
            );
            answers.push((what, x.iter().map(|v| v.to_bits()).collect()));
        }
        let (left, x_left) = &answers[1];
        for (what, x) in &answers[2..] {
            assert!(x == x_left, "{what} differs from {left}");
        }
    }
}
