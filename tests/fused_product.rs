//! The solve phase forms `A q` from `T_s = A_s W_s` and `A z` from the RAS
//! round instead of by distributed SpMVs (`dd_core::resident`). These tests
//! hold both shortcuts to what they replace, on every path that takes them:
//! `A q` from the `T y` round and the fused `A z` equal the distributed SpMV
//! of `q` and of `z` to 1e-13 of `|A| |q|` and `|A| |z|` (the scale of a
//! product's rounding; under the κ contrast of 3·10⁶ cancellation makes
//! `‖A z‖` up to 10³ times smaller), and the one round carrying
//! `D A⁻¹(r − A q) + W y` gives eq. 6 composed from its pieces,
//! `RAS(r − A q) + q`, to 1e-13 relative — on the identity map, on a 2-rank
//! owner map with several subdomains per rank, against a shifted operator
//! (`A + θ·diag A`, its `T y` the resident `T_s y_s` plus the shift of
//! `W_s y_s`), on 3D elasticity (the BSR path) and on the one-level path.

use dd_geneo::comm::{CostModel, World};
use dd_geneo::core::problem::presets;
use dd_geneo::core::resident::DebugApply;
use dd_geneo::core::{
    decompose, repartition_plan, try_setup, try_setup_partitioned, Decomposition, GeneoOpts,
    Problem, SpmdOpts,
};
use dd_geneo::mesh::Mesh;
use dd_geneo::part::partition_mesh_rcb;
use std::sync::Arc;

mod common;
use common::rel_dist;

fn build(mesh: Mesh, problem: Problem, nparts: usize) -> Arc<Decomposition> {
    let part = partition_mesh_rcb(&mesh, nparts);
    Arc::new(decompose(&mesh, &problem, &part, nparts, 1))
}

fn opts(nev: usize) -> SpmdOpts {
    SpmdOpts {
        geneo: GeneoOpts {
            nev,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Deterministic, sign-varying global residual.
fn rhs(n: usize) -> Vec<f64> {
    (0..n).map(|i| (0.37 * i as f64).sin() + 0.5).collect()
}

/// One rank's pieces, with the subdomains it owns (ascending, the order of
/// its concatenated vectors).
struct RankPieces {
    owned: Vec<usize>,
    p: DebugApply,
}

/// The pieces on every rank: one rank per subdomain (`ranks = None`) or
/// `ranks` ranks hosting contiguous chunks; against `decomp` itself or
/// against `theta`'s perturbation of it (the resident operator shifted by
/// `theta`, `PreparedMulti::debug_apply`).
fn pieces(
    decomp: &Arc<Decomposition>,
    opts: &SpmdOpts,
    ranks: Option<usize>,
    theta: Option<f64>,
) -> (Arc<Decomposition>, Vec<RankPieces>) {
    let (d, o) = (Arc::clone(decomp), opts.clone());
    let solved = Arc::new(theta.map_or_else(|| (**decomp).clone(), |t| decomp.perturb_diag(t)));
    let r = rhs(decomp.n_global);
    let size = ranks.unwrap_or(decomp.n_subdomains());
    let per_rank = World::run(size, CostModel::default(), move |comm| {
        let plan = repartition_plan(&d, comm, None);
        let prepared = match ranks {
            None => try_setup(&d, comm, &o),
            Some(_) => try_setup_partitioned(&d, comm, &o, None, &plan, true),
        }
        .expect("set-up failed");
        let owned = (0..d.n_subdomains())
            .filter(|&s| plan.owner_world[s] == comm.world_rank())
            .collect();
        let p = prepared
            .debug_apply(theta.unwrap_or(0.0), &r)
            .expect("apply failed");
        RankPieces { owned, p }
    });
    (solved, per_rank)
}

/// `‖got − A x‖_∞ / ‖ |A| |x| ‖_∞` over one rank's locals, `want = A x`
/// by the distributed SpMV and `|A|` from the owned subdomains' local
/// matrices: the componentwise scale of rounding in a matrix product, which
/// cancellation cannot shrink.
fn product_error(
    decomp: &Decomposition,
    owned: &[usize],
    x: &[f64],
    got: &[f64],
    want: &[f64],
) -> f64 {
    let (mut err, mut scale, mut at) = (0.0f64, 0.0f64, 0);
    for &s in owned {
        let a = &decomp.subdomains[s].a_dirichlet;
        for i in 0..a.rows() {
            let row: f64 = a.row(i).map(|(j, v)| (v * x[at + j]).abs()).sum();
            scale = scale.max(row);
            err = err.max((got[at + i] - want[at + i]).abs());
        }
        at += a.rows();
    }
    assert_eq!(at, x.len(), "owned subdomains cover the locals");
    if err == 0.0 {
        0.0
    } else {
        err / scale
    }
}

fn check(what: &str, (decomp, per_rank): (Arc<Decomposition>, Vec<RankPieces>), two_level: bool) {
    const TOL: f64 = 1e-13;
    for (rank, RankPieces { owned, p }) in per_rank.iter().enumerate() {
        let fused = product_error(&decomp, owned, &p.z, &p.az, &p.a_of_z);
        assert!(
            fused <= TOL,
            "{what}, rank {rank}: A z off the SpMV by {fused:e}"
        );
        let by_t = product_error(&decomp, owned, &p.q, &p.aq, &p.a_of_q);
        assert!(by_t <= TOL, "{what}, rank {rank}: T y off A q by {by_t:e}");
        let composed: Vec<f64> = p.ras.iter().zip(&p.q).map(|(a, b)| a + b).collect();
        let eq6 = rel_dist(&p.z, &composed);
        assert!(eq6 <= TOL, "{what}, rank {rank}: z off eq. 6 by {eq6:e}");
        let q_norm: f64 = p.q.iter().map(|v| v * v).sum();
        assert_eq!(q_norm > 0.0, two_level, "{what}, rank {rank}: coarse part");
    }
}

/// The fig12 decomposition: `unit_square(28, 28)`, P2 heterogeneous
/// diffusion, 8 subdomains.
fn diffusion2d() -> Arc<Decomposition> {
    build(
        Mesh::unit_square(28, 28),
        presets::heterogeneous_diffusion(2),
        8,
    )
}

#[test]
fn fused_product_on_the_identity_map() {
    let decomp = diffusion2d();
    check(
        "fig12, identity map",
        pieces(&decomp, &opts(6), None, None),
        true,
    );
}

#[test]
fn fused_product_on_an_owner_map_with_several_subdomains_a_rank() {
    let decomp = diffusion2d();
    check(
        "fig12, 2-rank owner map",
        pieces(&decomp, &opts(6), Some(2), None),
        true,
    );
}

#[test]
fn fused_product_under_an_operator_override() {
    // The resident factors and E are A(0)'s; the shifted T y and SpMV are
    // A(θ)'s.
    let decomp = diffusion2d();
    check(
        "fig12, θ = 0.01 override, 2-rank owner map",
        pieces(&decomp, &opts(6), Some(2), Some(0.01)),
        true,
    );
}

#[test]
fn fused_product_on_3d_elasticity() {
    let decomp = build(
        Mesh::box3d(4, 2, 2, 2.0, 1.0, 1.0),
        presets::heterogeneous_elasticity(2, 3),
        4,
    );
    assert!(
        decomp
            .subdomains
            .iter()
            .all(|s| s.a_dirichlet_bsr.is_some()),
        "elasticity takes the BSR path"
    );
    check(
        "elasticity3d, identity map",
        pieces(&decomp, &opts(8), None, None),
        true,
    );
}

#[test]
fn fused_product_on_the_one_level_path() {
    let decomp = diffusion2d();
    for ranks in [None, Some(2)] {
        check(
            &format!("fig12, one level, ranks {ranks:?}"),
            pieces(&decomp, &opts(0), ranks, None),
            false,
        );
    }
}
