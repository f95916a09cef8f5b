//! Differential tests pinning the blocked kernels to their scalar oracles.
//!
//! The raw-speed overhaul (supernodal LDLᵀ, padded-BSR SpMV/SpMM,
//! workspace-reusing GMRES) keeps the scalar paths alive as oracles; this
//! suite is the contract:
//!
//! * supernodal LDLᵀ agrees with the scalar factorization to 1e-12 on
//!   seeded random SPD matrices and on really-assembled elasticity
//!   operators, under every fill-reducing ordering, and under an order it
//!   is, to the bit, the factorization of the permuted copy;
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
//!   tolerance and solution as with the scalar kernel;
//! * the orthogonalisation panels `vector::dot_many` / `vector::axpy_many`
//!   are **bitwise** equal to the one-accumulator dot loop and to successive
//!   `axpy`, for every block remainder, and a NaN poisons every output;
//! * both LDLᵀ kernels solve in one summation order: the backward sweep
//!   sums each column in `vector::dot`'s four lanes, every column of a
//!   panel solve of `k` columns (a single solve is `k = 1`) is the column
//!   loop over the factor's public accessors to the bit, and the lanes
//!   cost no accuracy against the one-chain sweep they replaced;
//! * the GenEO pencils' `B` tiles, and its blocked product is the CSR one
//!   to the bit.

mod common;

use common::{random_spd, Rng};
use dd_geneo::comm::World;
use dd_geneo::core::geneo::overlap_weighted_matrix;
use dd_geneo::core::{
    decompose, problem::presets, try_run_spmd, Decomposition, GeneoOpts, SpmdOpts,
};
use dd_geneo::fem::{assemble_elasticity, DofMap};
use dd_geneo::krylov::{
    try_gmres, try_gmres_with, GmresOpts, GmresWorkspace, IdentityPrecond, Ortho, SeqDot, Side,
};
use dd_geneo::linalg::{vector, BsrMatrix, CooBuilder, CsrMatrix, DMat};
use dd_geneo::mesh::Mesh;
use dd_geneo::solver::{LdltBackend, LocalLdlt, Ordering, PivotPolicy};
use std::sync::Arc;

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

/// The supernodal kernel reads a subdomain matrix in place through its
/// order: on every `elasticity3d`-shaped subdomain (heterogeneous 3D
/// elasticity, four RCB parts) the factor under the minimum-degree order is
/// the factor of the permuted copy under the identity, to the bit, as far
/// as the public surface shows it — the solve, the inertia and the stored
/// footprint.
#[test]
fn supernodal_reads_an_elasticity3d_subdomain_through_its_order_bitwise() {
    let mesh = Mesh::box3d(6, 3, 3, 2.0, 1.0, 1.0);
    let part = dd_geneo::part::partition_mesh_rcb(&mesh, 4);
    let d = decompose(&mesh, &presets::heterogeneous_elasticity(2, 3), &part, 4, 1);
    for (s, sub) in d.subdomains.iter().enumerate() {
        let a = &sub.a_dirichlet;
        let n = a.rows();
        let perm = dd_geneo::solver::ordering::fill_reducing(a, Ordering::MinDegree);
        let identity: Vec<usize> = (0..n).collect();
        let pivot = PivotPolicy::Reject;
        let supernodal = |a: &CsrMatrix, perm: &[usize]| {
            LocalLdlt::factor_ordered(a, perm, pivot, LdltBackend::Supernodal).unwrap()
        };
        let f = supernodal(a, &perm);
        let g = supernodal(&a.permute_sym(&perm), &identity);
        let n_supernodes = |f: &LocalLdlt| match f {
            LocalLdlt::Supernodal(f) => f.n_supernodes(),
            LocalLdlt::Scalar(_) => unreachable!("the kernel is forced"),
        };
        assert_eq!(n_supernodes(&f), n_supernodes(&g), "subdomain {s}");
        assert_eq!(f.nnz_l(), g.nnz_l(), "subdomain {s}");
        assert_eq!(f.inertia(), g.inertia(), "subdomain {s}");
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.29).sin()).collect();
        let x = f.solve(&b);
        let px = g.solve(&perm.iter().map(|&p| b[p]).collect::<Vec<_>>());
        for (i, &p) in perm.iter().enumerate() {
            assert_eq!(x[p].to_bits(), px[i].to_bits(), "subdomain {s} row {p}");
        }
        // The production entry resolves to this kernel and is this factor.
        let local = LocalLdlt::factor_ordered(a, &perm, pivot, LdltBackend::Auto).unwrap();
        assert!(matches!(local, LocalLdlt::Supernodal(_)), "subdomain {s}");
        let y = local.solve(&b);
        assert!(x.iter().zip(&y).all(|(p, q)| p.to_bits() == q.to_bits()));
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
        let reused = try_gmres_with(
            &a,
            &IdentityPrecond,
            &SeqDot,
            &b,
            &x0,
            &opts,
            None,
            None,
            &mut ws,
        )
        .unwrap();
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
    let direct = LocalLdlt::factor(&d.a_global, Ordering::MinDegree, LdltBackend::Scalar)
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

/// The decompositions of the three repo-benchmark configurations
/// (`benchmark/`, `workloads.rs`).
fn benchmark_decompositions() -> Vec<(&'static str, Decomposition)> {
    let split = |mesh: Mesh, problem, nparts: usize| {
        let part = dd_geneo::part::partition_mesh_rcb(&mesh, nparts);
        decompose(&mesh, &problem, &part, nparts, 1)
    };
    vec![
        (
            "elasticity3d",
            split(
                Mesh::box3d(6, 3, 3, 2.0, 1.0, 1.0),
                presets::heterogeneous_elasticity(2, 3),
                4,
            ),
        ),
        (
            "diffusion2d_many",
            split(
                Mesh::unit_square(48, 48),
                presets::heterogeneous_diffusion(2),
                32,
            ),
        ),
        (
            "serve_stream",
            split(Mesh::unit_square(32, 32), presets::uniform_diffusion(2), 16),
        ),
    ]
}

/// The shifted GenEO pencil `K = A − σB` of a subdomain, with the shift the
/// eigensolver picks by default (`σ = −0.01 ‖A‖∞ / ‖B‖∞`).
fn shifted_pencil(sub: &dd_geneo::core::Subdomain) -> CsrMatrix {
    let b = overlap_weighted_matrix(sub);
    let sigma = -0.01 * sub.a_neumann.norm_inf() / b.norm_inf();
    sub.a_neumann.add_scaled(-sigma, &b)
}

/// Every column of a panel solve is the accessor column loop
/// ([`column_solve`]) to the bit, on both kernels, at every width — the
/// single solve is the panel at `k = 1`, so it is held to the same
/// independent oracle rather than compared with itself.
#[test]
fn ldlt_panel_solves_are_single_solves_to_the_bit() {
    let decomps = benchmark_decompositions();
    let mut cases: Vec<(String, &CsrMatrix)> = decomps
        .iter()
        .map(|(name, d)| (format!("{name} A_0"), &d.subdomains[0].a_dirichlet))
        .collect();
    let elasticity = &decomps[0].1.subdomains[0];
    let pencil = shifted_pencil(elasticity);
    cases.push(("elasticity3d K_0".into(), &pencil));
    let mut work = Vec::new();
    for (what, a) in &cases {
        let n = a.rows();
        let order = dd_geneo::solver::ordering::fill_reducing(a, Ordering::MinDegree);
        for backend in [LdltBackend::Scalar, LdltBackend::Supernodal] {
            let f = LocalLdlt::factor_ordered(a, &order, PivotPolicy::Reject, backend).unwrap();
            for k in [1usize, 2, 3, 5, 8] {
                // Columns `ld = n + 3` apart, one of them with a zero entry
                // the forward sweep skips.
                let ld = n + 3;
                let mut panel: Vec<f64> = (0..k * ld)
                    .map(|i| ((i * 13 + 5) % 17) as f64 - 8.0 + (i as f64 * 0.1).sin())
                    .collect();
                panel[(k - 1) * ld] = 0.0;
                let want: Vec<Vec<f64>> = (0..k)
                    .map(|c| column_solve(&f, &panel[c * ld..c * ld + n], false))
                    .collect();
                let gaps: Vec<Vec<f64>> =
                    (1..k).map(|c| panel[c * ld - 3..c * ld].to_vec()).collect();
                f.solve_panel_with(&mut panel, ld, k, &mut work);
                for (c, want) in want.iter().enumerate() {
                    let got = &panel[c * ld..c * ld + n];
                    assert_eq!(bits(got), bits(want), "{what} {backend:?} k={k} column {c}");
                }
                for (c, gap) in (1..k).zip(&gaps) {
                    assert_eq!(
                        bits(&panel[c * ld - 3..c * ld]),
                        bits(gap),
                        "{what} gap {c}"
                    );
                }
            }
        }
    }
}

/// A solve of `f` by columns of `L`, read through the public accessors:
/// forward sweep and `D` as both kernels run them, then the backward sweep
/// either summed by `vector::dot` (what the kernels do) or as the one add
/// chain `x_j −= L[i,j]·x_i` the kernels ran before.
fn column_solve(f: &LocalLdlt, b: &[f64], chained: bool) -> Vec<f64> {
    let (n, perm, d) = (f.n(), f.perm(), f.d());
    let mut z: Vec<f64> = perm.iter().map(|&p| b[p]).collect();
    for j in 0..n {
        let zj = z[j];
        if zj != 0.0 {
            let (rows, vals) = f.l_column(j);
            for (&r, &l) in rows.iter().zip(vals) {
                z[r as usize] -= l * zj;
            }
        }
    }
    for j in 0..n {
        z[j] /= d[j];
    }
    for j in (0..n).rev() {
        let (rows, vals) = f.l_column(j);
        if chained {
            let mut acc = z[j];
            for (&r, &l) in rows.iter().zip(vals) {
                acc -= l * z[r as usize];
            }
            z[j] = acc;
        } else {
            let below: Vec<f64> = rows.iter().map(|&r| z[r as usize]).collect();
            z[j] -= vector::dot(vals, &below);
        }
    }
    let mut x = vec![0.0; n];
    for (i, &p) in perm.iter().enumerate() {
        x[p] = z[i];
    }
    x
}

/// `‖A x − b‖∞ / (‖A‖∞ ‖x‖∞)`.
fn backward_error(a: &CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
    let mut r = vec![0.0; a.rows()];
    a.spmv(x, &mut r);
    let res = r
        .iter()
        .zip(b)
        .fold(0.0f64, |m, (ri, bi)| m.max((ri - bi).abs()));
    res / (a.norm_inf() * vector::norm_inf(x)).max(f64::MIN_POSITIVE)
}

/// 3D 7-point Laplacian with Dirichlet boundary, `nx³` unknowns.
fn laplacian_3d(nx: usize) -> CsrMatrix {
    let n = nx * nx * nx;
    let idx = |i: usize, j: usize, k: usize| (k * nx + j) * nx + i;
    let mut b = CooBuilder::new(n, n);
    for k in 0..nx {
        for j in 0..nx {
            for i in 0..nx {
                let r = idx(i, j, k);
                b.push(r, r, 6.0);
                for (c, inside) in [
                    (r.wrapping_sub(1), i > 0),
                    (r + 1, i + 1 < nx),
                    (r.wrapping_sub(nx), j > 0),
                    (r + nx, j + 1 < nx),
                    (r.wrapping_sub(nx * nx), k > 0),
                    (r + nx * nx, k + 1 < nx),
                ] {
                    if inside {
                        b.push(r, c, -1.0);
                    }
                }
            }
        }
    }
    b.to_csr()
}

#[test]
fn four_lane_backward_sweeps_cost_no_accuracy() {
    let mut rng = Rng::new(37);
    let mut cases: Vec<(String, CsrMatrix, PivotPolicy)> = (0..3)
        .map(|t| {
            let n = rng.range_usize(150, 400);
            let extra = rng.range_usize(3, 8);
            (
                format!("random SPD {t}"),
                random_spd(&mut rng, n, extra),
                PivotPolicy::Reject,
            )
        })
        .collect();
    cases.push(("3D Laplacian".into(), laplacian_3d(9), PivotPolicy::Reject));
    let mesh = Mesh::box3d(6, 3, 3, 2.0, 1.0, 1.0);
    let part = dd_geneo::part::partition_mesh_rcb(&mesh, 4);
    let d = decompose(&mesh, &presets::heterogeneous_elasticity(2, 3), &part, 4, 1);
    cases.push((
        "elasticity3d A_1".into(),
        d.subdomains[1].a_dirichlet.clone(),
        PivotPolicy::Reject,
    ));
    // A floating subdomain's Neumann matrix: singular, factored with
    // boosted pivots.
    cases.push((
        "elasticity3d Neumann A_0".into(),
        d.subdomains[0].a_neumann.clone(),
        PivotPolicy::Boost { rel_tol: 1e-10 },
    ));
    for (what, a, pivot) in &cases {
        let n = a.rows();
        let order = dd_geneo::solver::ordering::fill_reducing(a, Ordering::MinDegree);
        for backend in [LdltBackend::Scalar, LdltBackend::Supernodal] {
            let f = LocalLdlt::factor_ordered(a, &order, *pivot, backend).unwrap();
            if matches!(pivot, PivotPolicy::Boost { .. }) {
                assert!(f.n_boosted() > 0, "{what} {backend:?}: nothing boosted");
            }
            let (mut lanes, mut chain) = (0.0f64, 0.0f64);
            for _ in 0..8 {
                // b in range(A), so a boosted solve has a small residual too.
                let y = rng.vec_f64(n, -1.0, 1.0);
                let mut b = vec![0.0; n];
                a.spmv(&y, &mut b);
                let x = f.solve(&b);
                assert_eq!(
                    bits(&x),
                    bits(&column_solve(&f, &b, false)),
                    "{what} {backend:?}: the solve is not the four-lane column loop"
                );
                lanes = lanes.max(backward_error(a, &x, &b));
                chain = chain.max(backward_error(a, &column_solve(&f, &b, true), &b));
            }
            assert!(
                lanes <= 2.0 * chain,
                "{what} {backend:?}: backward error {lanes:e}, one chain {chain:e}"
            );
        }
    }
}

#[test]
fn geneo_pencil_b_through_bsr_is_the_csr_product_to_the_bit() {
    let mesh = Mesh::box3d(6, 3, 3, 2.0, 1.0, 1.0);
    let part = dd_geneo::part::partition_mesh_rcb(&mesh, 4);
    let d = decompose(&mesh, &presets::heterogeneous_elasticity(2, 3), &part, 4, 1);
    let mut rng = Rng::new(41);
    for (s, sub) in d.subdomains.iter().enumerate() {
        let b = overlap_weighted_matrix(sub);
        let bsr = BsrMatrix::detect_padded(&b)
            .unwrap_or_else(|| panic!("subdomain {s}: B does not tile"));
        assert_eq!(bsr.block_size(), 3, "subdomain {s}");
        let n = b.rows();
        let (mut y_csr, mut y_bsr) = (vec![0.0; n], vec![0.0; n]);
        for _ in 0..4 {
            let x = rng.vec_f64(n, -1.0, 1.0);
            b.spmv(&x, &mut y_csr);
            bsr.spmv(&x, &mut y_bsr);
            assert_eq!(bits(&y_csr), bits(&y_bsr), "subdomain {s}");
        }
    }
}
