//! Differential tests pinning the blocked kernels to their scalar oracles.
//!
//! The raw-speed overhaul (supernodal LDLᵀ, padded-BSR SpMV/SpMM,
//! workspace-reusing GMRES) keeps the scalar paths alive as oracles; this
//! suite is the contract:
//!
//! * supernodal LDLᵀ agrees with the scalar factorization to 1e-12 on
//!   seeded random SPD matrices and on really-assembled elasticity
//!   operators, under every fill-reducing ordering;
//! * BSR `spmv`/`bsrmm` are **bitwise** equal to their CSR counterparts
//!   (padding adds exact `+0.0·x` terms; the blocked accumulators follow
//!   the scalar summation order), including singleton/ragged block tails
//!   and multi-vector widths that do not divide the 4-column groups;
//! * `detect_padded` finds the interleaved-component block structure on
//!   real elasticity assemblies (whose exact-zero cross couplings are
//!   dropped, so the exact-tiling detector cannot see them) and never
//!   fires on scalar stencils;
//! * `try_gmres_with` under a long-lived, reused workspace is bitwise
//!   identical to the allocating `try_gmres`, orthogonalization and
//!   preconditioning side notwithstanding;
//! * the SPMD driver converges with `LdltBackend::Supernodal` to the same
//!   tolerance and solution as the scalar default;
//! * the orthogonalisation panels `vector::dot_many` / `vector::axpy_many`
//!   are **bitwise** equal to the one-accumulator dot loop and to successive
//!   `axpy`, for every block remainder, and a NaN poisons every output.

mod common;

use common::Rng;
use dd_geneo::comm::World;
use dd_geneo::core::{decompose, problem::presets, try_run_spmd, GeneoOpts, SpmdOpts};
use dd_geneo::fem::{assemble_elasticity, DofMap};
use dd_geneo::krylov::{
    try_gmres, try_gmres_with, GmresOpts, GmresWorkspace, IdentityPrecond, Ortho, SeqDot, Side,
};
use dd_geneo::linalg::{vector, BsrMatrix, CooBuilder, CsrMatrix, DMat};
use dd_geneo::mesh::Mesh;
use dd_geneo::solver::{LdltBackend, LocalLdlt, Ordering, SparseLdlt};
use std::sync::Arc;

/// Random sparse symmetric diagonally-dominant (hence SPD) matrix.
fn random_spd(rng: &mut Rng, n: usize, extra_per_row: usize) -> CsrMatrix {
    let mut b = CooBuilder::new(n, n);
    let mut row_sum = vec![0.0f64; n];
    for i in 0..n {
        for _ in 0..extra_per_row {
            let j = rng.range_usize(0, n);
            if j == i {
                continue;
            }
            let v = rng.range_f64(-1.0, 1.0);
            b.push(i, j, v);
            b.push(j, i, v);
            row_sum[i] += v.abs();
            row_sum[j] += v.abs();
        }
    }
    for (i, s) in row_sum.iter().enumerate() {
        b.push(i, i, 2.0 * s + 1.0 + rng.unit());
    }
    b.to_csr()
}

/// Small shifted elasticity operator (the shift makes the pure-Neumann
/// assembly SPD without touching the interleaved block sparsity).
fn elasticity_spd(dim: usize) -> CsrMatrix {
    let mesh = match dim {
        2 => Mesh::rectangle(10, 4, 5.0, 1.0),
        _ => Mesh::box3d(6, 3, 3, 2.0, 1.0, 1.0),
    };
    let dm = DofMap::new(&mesh, 1);
    let lame = |x: &[f64]| (1.0 + x[0], 1.0 + 0.5 * x[1]);
    let (a, _) = assemble_elasticity(&mesh, &dm, &lame, &|_, f| f.fill(0.0));
    // A + αI via COO round-trip (keeps every off-diagonal entry).
    let mut b = CooBuilder::new(a.rows(), a.cols());
    for i in 0..a.rows() {
        for (j, v) in a.row(i) {
            b.push(i, j, v);
        }
        b.push(i, i, 0.5);
    }
    b.to_csr()
}

fn rel_diff(x: &[f64], y: &[f64]) -> f64 {
    vector::dist2(x, y) / vector::norm2(y).max(1e-300)
}

#[test]
fn supernodal_matches_scalar_on_seeded_random_spd() {
    let mut rng = Rng::new(4711);
    for trial in 0..8 {
        let n = rng.range_usize(40, 260);
        let extra = rng.range_usize(2, 6);
        let a = random_spd(&mut rng, n, extra);
        let b = rng.vec_f64(n, -1.0, 1.0);
        for ord in [Ordering::Natural, Ordering::Rcm, Ordering::MinDegree] {
            let fs = LocalLdlt::factor(&a, ord, LdltBackend::Scalar).unwrap();
            let fb = LocalLdlt::factor(&a, ord, LdltBackend::Supernodal).unwrap();
            let xs = fs.solve(&b);
            let xb = fb.solve(&b);
            let d = rel_diff(&xb, &xs);
            assert!(d < 1e-12, "trial {trial} n={n} {ord:?}: rel diff {d:e}");
            assert_eq!(fb.n(), fs.n());
            assert_eq!(fb.inertia(), fs.inertia(), "trial {trial} {ord:?}");
        }
    }
}

#[test]
fn supernodal_matches_scalar_on_elasticity_operators() {
    for dim in [2usize, 3] {
        let a = elasticity_spd(dim);
        let b: Vec<f64> = (0..a.rows()).map(|i| (i as f64 * 0.41).cos()).collect();
        for ord in [Ordering::Rcm, Ordering::MinDegree] {
            let xs = LocalLdlt::factor(&a, ord, LdltBackend::Scalar)
                .unwrap()
                .solve(&b);
            let xb = LocalLdlt::factor(&a, ord, LdltBackend::Supernodal)
                .unwrap()
                .solve(&b);
            let d = rel_diff(&xb, &xs);
            assert!(d < 1e-12, "{dim}D {ord:?}: rel diff {d:e}");
        }
    }
}

/// Random block-sparse matrix with every block fully populated except a
/// random hole per block (the padded-BSR regime), plus nonzero values
/// everywhere else (`CooBuilder` drops exact zeros).
fn random_blocked(rng: &mut Rng, nb: usize, bs: usize) -> CsrMatrix {
    let n = nb * bs;
    let mut b = CooBuilder::new(n, n);
    for bi in 0..nb {
        for bj in 0..nb {
            let coupled = bi == bj || rng.unit() < 0.2;
            if !coupled {
                continue;
            }
            let hole = rng.range_usize(0, bs * bs + 3); // sometimes no hole
            for r in 0..bs {
                for c in 0..bs {
                    if r * bs + c == hole {
                        continue;
                    }
                    b.push(bi * bs + r, bj * bs + c, rng.range_f64(0.1, 2.0));
                }
            }
        }
    }
    b.to_csr()
}

#[test]
fn bsr_spmv_and_bsrmm_are_bitwise_equal_to_csr() {
    let mut rng = Rng::new(99);
    for bs in [2usize, 3] {
        for ncols in [1usize, 3, 4, 5, 8, 11] {
            let nb = rng.range_usize(5, 40);
            let a = random_blocked(&mut rng, nb, bs);
            let bsr = BsrMatrix::from_csr(&a, bs);
            let n = a.rows();
            // spmv
            let x = rng.vec_f64(n, -2.0, 2.0);
            let mut y_csr = vec![0.0; n];
            let mut y_bsr = vec![0.0; n];
            a.spmv(&x, &mut y_csr);
            bsr.spmv(&x, &mut y_bsr);
            assert_eq!(y_csr, y_bsr, "spmv bs={bs} nb={nb}");
            // bsrmm, including ragged 4-column-group tails
            let mut w = DMat::zeros(n, ncols);
            for j in 0..ncols {
                for v in w.col_mut(j) {
                    *v = rng.range_f64(-2.0, 2.0);
                }
            }
            let c_csr = a.csrmm(&w);
            let c_bsr = bsr.bsrmm(&w);
            assert_eq!(
                c_csr.data(),
                c_bsr.data(),
                "bsrmm bs={bs} nb={nb} ncols={ncols}"
            );
        }
    }
}

#[test]
fn detect_padded_fires_on_real_elasticity_and_stays_bitwise() {
    for (dim, bs_want) in [(2usize, 2usize), (3, 3)] {
        let a = elasticity_spd(dim);
        let bsr = BsrMatrix::detect_padded(&a)
            .unwrap_or_else(|| panic!("{dim}D elasticity: no padded block structure found"));
        assert_eq!(bsr.block_size(), bs_want, "{dim}D");
        let mut rng = Rng::new(7 + dim as u64);
        let x = rng.vec_f64(a.rows(), -1.0, 1.0);
        let mut y_csr = vec![0.0; a.rows()];
        let mut y_bsr = vec![0.0; a.rows()];
        a.spmv(&x, &mut y_csr);
        bsr.spmv(&x, &mut y_bsr);
        assert_eq!(y_csr, y_bsr, "{dim}D spmv");
        let mut w = DMat::zeros(a.rows(), 6);
        for j in 0..6 {
            for v in w.col_mut(j) {
                *v = rng.range_f64(-1.0, 1.0);
            }
        }
        assert_eq!(a.csrmm(&w).data(), bsr.bsrmm(&w).data(), "{dim}D bsrmm");
    }
    // A scalar 5-point stencil must NOT be mistaken for a blocked operator.
    let mut b = CooBuilder::new(64, 64);
    for i in 0..64 {
        b.push(i, i, 4.0);
        if i + 1 < 64 {
            b.push(i, i + 1, -1.0);
            b.push(i + 1, i, -1.0);
        }
        if i + 8 < 64 {
            b.push(i, i + 8, -1.0);
            b.push(i + 8, i, -1.0);
        }
    }
    assert!(BsrMatrix::detect_padded(&b.to_csr()).is_none());
}

#[test]
fn gmres_with_reused_workspace_is_bitwise_identical() {
    let mut rng = Rng::new(2024);
    let a = random_spd(&mut rng, 120, 4);
    let mut ws = GmresWorkspace::new();
    for (trial, (ortho, side)) in [
        (Ortho::Cgs2, Side::Right),
        (Ortho::Mgs, Side::Right),
        (Ortho::Cgs2, Side::Left),
        (Ortho::Mgs, Side::Left),
    ]
    .into_iter()
    .enumerate()
    {
        let b = rng.vec_f64(120, -1.0, 1.0);
        let x0 = vec![0.0; 120];
        let opts = GmresOpts {
            restart: 25,
            tol: 1e-10,
            max_iters: 120,
            ortho,
            side,
            record_history: true,
            ..Default::default()
        };
        let fresh = try_gmres(&a, &IdentityPrecond, &SeqDot, &b, &x0, &opts, None).unwrap();
        // The same workspace is reused across all four configurations —
        // stale pool contents must never leak into the next solve.
        let reused =
            try_gmres_with(&a, &IdentityPrecond, &SeqDot, &b, &x0, &opts, None, &mut ws).unwrap();
        assert_eq!(fresh.x, reused.x, "trial {trial}: x differs");
        assert_eq!(fresh.iterations, reused.iterations, "trial {trial}");
        assert_eq!(fresh.history, reused.history, "trial {trial}");
        assert_eq!(fresh.final_residual, reused.final_residual, "trial {trial}");
        assert!(fresh.converged, "trial {trial} did not converge");
    }
}

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn ortho_panels_are_bitwise_equal_to_the_per_vector_loops() {
    let mut rng = Rng::new(20);
    for n in [0usize, 1, 7, 4097] {
        for nv in 0..=17usize {
            let x = rng.vec_f64(n, -1.0, 1.0);
            let ys: Vec<Vec<f64>> = (0..nv).map(|_| rng.vec_f64(n, -1.0, 1.0)).collect();
            let alphas = rng.vec_f64(nv, -2.0, 2.0);

            // One accumulator per vector, ascending index.
            let oracle: Vec<f64> = ys
                .iter()
                .map(|y| {
                    let mut acc = 0.0;
                    for g in 0..n {
                        acc += x[g] * y[g];
                    }
                    acc
                })
                .collect();
            let mut out = vec![f64::NAN; nv];
            vector::dot_many(&x, &ys, &mut out);
            assert_eq!(bits(&out), bits(&oracle), "dot_many n={n} nv={nv}");

            let mut oracle = x.clone();
            for (a, y) in alphas.iter().zip(&ys) {
                vector::axpy(*a, y, &mut oracle);
            }
            let mut panel = x.clone();
            vector::axpy_many(&alphas, &ys, &mut panel);
            assert_eq!(bits(&panel), bits(&oracle), "axpy_many n={n} nv={nv}");
        }
    }
}

#[test]
fn a_nan_in_x_poisons_every_panel_output() {
    // The GMRES breakdown and SDC guards see a poisoned candidate through
    // its Gram row: no output of the panel may skip the bad element.
    let mut rng = Rng::new(21);
    for nv in 1..=17usize {
        let mut x = rng.vec_f64(33, -1.0, 1.0);
        x[19] = f64::NAN;
        let ys: Vec<Vec<f64>> = (0..nv).map(|_| rng.vec_f64(33, -1.0, 1.0)).collect();
        let mut out = vec![0.0; nv];
        vector::dot_many(&x, &ys, &mut out);
        assert!(out.iter().all(|v| v.is_nan()), "dot_many nv={nv}: {out:?}");

        let mut poisoned = ys.clone();
        poisoned[nv - 1][19] = f64::NAN;
        let mut y = vec![0.0; 33];
        vector::axpy_many(&vec![1.0; nv], &poisoned, &mut y);
        assert!(y[19].is_nan(), "axpy_many nv={nv}");
        assert_eq!(y.iter().filter(|v| v.is_nan()).count(), 1);
    }
}

#[test]
fn spmd_converges_with_supernodal_backend() {
    let mesh = Mesh::unit_square(16, 16);
    let n_sub = 4;
    let part = dd_geneo::part::partition_mesh_rcb(&mesh, n_sub);
    let problem = presets::heterogeneous_diffusion(1);
    let d = Arc::new(decompose(&mesh, &problem, &part, n_sub, 1));
    let direct = SparseLdlt::factor(&d.a_global, Ordering::MinDegree)
        .unwrap()
        .solve(&d.rhs_global);
    let mut iters = Vec::new();
    for backend in [LdltBackend::Scalar, LdltBackend::Supernodal] {
        let opts = SpmdOpts {
            geneo: GeneoOpts {
                nev: 6,
                ..Default::default()
            },
            gmres: GmresOpts {
                tol: 1e-8,
                max_iters: 200,
                ..Default::default()
            },
            local_ldlt: backend,
            ..Default::default()
        };
        let d2 = Arc::clone(&d);
        let sols = World::run_default(n_sub, move |comm| {
            let s = try_run_spmd(&d2, comm, &opts).expect("SPMD solve failed");
            (s.report.converged, s.report.iterations, s.locals)
        });
        assert!(
            sols.iter().all(|(c, _, _)| *c),
            "{backend:?} did not converge"
        );
        iters.push(sols[0].1);
        let x = common::reassemble(&d, sols.iter().map(|(_, _, l)| l));
        let rel = rel_diff(&x, &direct);
        assert!(rel < 1e-5, "{backend:?} vs direct: {rel}");
    }
    // Different rounding, same mathematics: iteration counts stay close.
    let (a, b) = (iters[0] as i64, iters[1] as i64);
    assert!((a - b).abs() <= 2, "iteration counts diverged: {iters:?}");
}
