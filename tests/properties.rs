//! Property-style tests on the core data structures and numerical
//! invariants across the workspace, driven by a seeded deterministic RNG
//! (see `common::Rng`) so failures replay exactly.

mod common;

use common::Rng;
use dd_geneo::linalg::{jacobi, vector, CooBuilder, CsrMatrix, DMat, Givens};
use dd_geneo::mesh::{refine::uniform_refine, Mesh};
use dd_geneo::part::{partition_mesh_rcb, partition_rcb, quality};
use dd_geneo::solver::{LdltBackend, LocalLdlt, Ordering};
use std::collections::HashMap;

/// Random sparse triplets on an n×n matrix.
fn triplets(rng: &mut Rng, n: usize, max_nnz: usize) -> Vec<(usize, usize, f64)> {
    let nnz = rng.range_usize(0, max_nnz);
    (0..nnz)
        .map(|_| {
            (
                rng.range_usize(0, n),
                rng.range_usize(0, n),
                rng.range_f64(-10.0, 10.0),
            )
        })
        .collect()
}

fn csr_from(tr: &[(usize, usize, f64)], n: usize) -> CsrMatrix {
    let mut b = CooBuilder::new(n, n);
    for &(i, j, v) in tr {
        b.push(i, j, v);
    }
    b.to_csr()
}

#[test]
fn coo_to_csr_accumulates_duplicates() {
    let mut rng = Rng::new(101);
    for _ in 0..48 {
        let tr = triplets(&mut rng, 12, 60);
        let mut b = CooBuilder::new(12, 12);
        let mut reference: HashMap<(usize, usize), f64> = HashMap::new();
        for &(i, j, v) in &tr {
            b.push(i, j, v);
            *reference.entry((i, j)).or_insert(0.0) += v;
        }
        let a = b.to_csr();
        for (&(i, j), &v) in &reference {
            assert!((a.get(i, j) - v).abs() < 1e-12 * v.abs().max(1.0));
        }
        // nnz never exceeds the number of distinct positions
        assert!(a.nnz() <= reference.len());
    }
}

#[test]
fn transpose_is_involution() {
    let mut rng = Rng::new(102);
    for _ in 0..48 {
        let a = csr_from(&triplets(&mut rng, 10, 40), 10);
        assert_eq!(a.transpose().transpose(), a);
    }
}

#[test]
fn spmv_matches_dense() {
    let mut rng = Rng::new(103);
    for _ in 0..48 {
        let a = csr_from(&triplets(&mut rng, 9, 40), 9);
        let x = rng.vec_f64(9, -5.0, 5.0);
        let ad = a.to_dense();
        let mut ys = vec![0.0; 9];
        a.spmv(&x, &mut ys);
        let mut yd = vec![0.0; 9];
        ad.gemv(1.0, &x, 0.0, &mut yd);
        assert!(vector::dist2(&ys, &yd) < 1e-10);
    }
}

#[test]
fn spmm_transpose_identity() {
    // (A B)ᵀ = Bᵀ Aᵀ
    let mut rng = Rng::new(104);
    for _ in 0..48 {
        let a = csr_from(&triplets(&mut rng, 7, 25), 7);
        let b = csr_from(&triplets(&mut rng, 7, 25), 7);
        let lhs = a.spmm(&b).transpose();
        let rhs = b.transpose().spmm(&a.transpose());
        let diff = lhs.add_scaled(-1.0, &rhs);
        assert!(diff.values().iter().all(|v| v.abs() < 1e-10));
    }
}

#[test]
fn ldlt_solves_diag_dominant_spd() {
    let mut rng = Rng::new(105);
    for _ in 0..24 {
        // Tridiagonal diagonally dominant SPD matrix of order 21.
        let n = 21;
        let offd = rng.vec_f64(n - 1, -1.0, 1.0);
        let rhs = rng.vec_f64(n, -3.0, 3.0);
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            b.push(i, i, 4.0);
        }
        for (i, &v) in offd.iter().enumerate() {
            b.push(i, i + 1, v);
            b.push(i + 1, i, v);
        }
        let a = b.to_csr();
        for ord in [Ordering::Natural, Ordering::Rcm, Ordering::MinDegree] {
            let f = LocalLdlt::factor(&a, ord, LdltBackend::Scalar).unwrap();
            let x = f.solve(&rhs);
            let mut ax = vec![0.0; n];
            a.spmv(&x, &mut ax);
            assert!(vector::dist2(&ax, &rhs) < 1e-9, "ordering {ord:?}");
        }
    }
}

#[test]
fn givens_always_annihilates() {
    let mut rng = Rng::new(106);
    for _ in 0..200 {
        let a = rng.range_f64(-1e6, 1e6);
        let b = rng.range_f64(-1e6, 1e6);
        let (g, r) = Givens::compute(a, b);
        let (x, y) = g.apply(a, b);
        assert!((x - r).abs() <= 1e-9 * r.abs().max(1.0));
        assert!(y.abs() <= 1e-9 * (a.abs() + b.abs()).max(1.0));
        assert!((g.c * g.c + g.s * g.s - 1.0).abs() < 1e-12);
    }
}

#[test]
fn jacobi_eigenvalue_sum_is_trace() {
    let mut rng = Rng::new(107);
    for _ in 0..48 {
        // Build a 5×5 symmetric matrix from 15 free entries.
        let n = 5;
        let vals = rng.vec_f64(15, -4.0, 4.0);
        let mut a = DMat::zeros(n, n);
        let mut k = 0;
        for i in 0..n {
            for j in 0..=i {
                a[(i, j)] = vals[k];
                a[(j, i)] = vals[k];
                k += 1;
            }
        }
        let trace: f64 = (0..n).map(|i| a[(i, i)]).sum();
        let e = jacobi::sym_eig(&a, 1e-13);
        let sum: f64 = e.eigenvalues.iter().sum();
        assert!((sum - trace).abs() < 1e-9 * trace.abs().max(1.0));
    }
}

#[test]
fn rcb_partitions_are_balanced() {
    let mut rng = Rng::new(108);
    for _ in 0..48 {
        let npts = rng.range_usize(32, 200);
        let nparts = rng.range_usize(2, 8);
        let flat = rng.vec_f64(2 * npts, 0.0, 1.0);
        let part = partition_rcb(&flat, 2, nparts);
        let mut sizes = vec![0usize; nparts];
        for &p in &part {
            assert!((p as usize) < nparts);
            sizes[p as usize] += 1;
        }
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        assert!(max - min <= 1 + npts / nparts / 2, "sizes {sizes:?}");
    }
}

#[test]
fn mesh_rcb_leaves_no_part_empty() {
    for n_side in 3..8 {
        for nparts in 1..6 {
            let mesh = Mesh::unit_square(n_side, n_side);
            let adj = mesh.dual_graph();
            let part = partition_mesh_rcb(&mesh, nparts);
            let q = quality(&adj, &part, nparts);
            assert_eq!(q.nparts, nparts);
            let mut seen = vec![false; nparts];
            for &p in &part {
                seen[p as usize] = true;
            }
            assert!(seen.iter().all(|&s| s), "empty part");
        }
    }
}

#[test]
fn mesh_refinement_preserves_volume() {
    let mut rng = Rng::new(109);
    for nx in 1..5 {
        for ny in 1..5 {
            let lx = rng.range_f64(0.5, 3.0);
            let m = Mesh::rectangle(nx, ny, lx, 1.0);
            let r = uniform_refine(&m);
            assert!((r.total_volume() - m.total_volume()).abs() < 1e-10);
            assert_eq!(r.n_elements(), 4 * m.n_elements());
        }
    }
}

#[test]
fn csr_norms_consistent() {
    let mut rng = Rng::new(110);
    for _ in 0..48 {
        let a = csr_from(&triplets(&mut rng, 8, 30), 8);
        // ‖A‖₁ = ‖Aᵀ‖∞
        assert!((a.norm_1() - a.transpose().norm_inf()).abs() < 1e-12);
    }
}

#[test]
fn dense_lu_inverts_well_conditioned() {
    let mut rng = Rng::new(111);
    for _ in 0..48 {
        // Diagonally dominated 4×4.
        let n = 4;
        let vals = rng.vec_f64(16, -1.0, 1.0);
        let mut a = DMat::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = vals[i * n + j];
            }
            a[(i, i)] += 5.0;
        }
        let lu = dd_geneo::linalg::DenseLu::factor(&a).unwrap();
        let b = [1.0, -2.0, 3.0, 0.5];
        let x = lu.solve(&b);
        let mut ax = vec![0.0; n];
        a.gemv(1.0, &x, 0.0, &mut ax);
        assert!(vector::dist2(&ax, &b) < 1e-10);
    }
}

/// End-to-end property: for every small decomposition of a fixed mesh, the
/// partition of unity is exact and the distributed SpMV matches the global
/// one.
#[test]
fn decomposition_invariants() {
    use dd_geneo::core::{decompose, problem::presets};
    for nparts in 2..7 {
        for delta in 1..3 {
            let mesh = Mesh::unit_square(10, 10);
            let part = partition_mesh_rcb(&mesh, nparts);
            let problem = presets::uniform_diffusion(1);
            let d = decompose(&mesh, &problem, &part, nparts, delta);
            assert!(d.pou_defect() < 1e-12);
            let x: Vec<f64> = (0..d.n_global)
                .map(|i| ((i * 29) % 17) as f64 - 8.0)
                .collect();
            let locals = d.to_locals(&x);
            let out = d.dist_spmv(&locals);
            let mut want = vec![0.0; d.n_global];
            d.a_global.spmv(&x, &mut want);
            for (s, o) in d.subdomains.iter().zip(&out) {
                let want_i = s.restrict(&want);
                assert!(vector::dist2(o, &want_i) < 1e-9 * vector::norm2(&want_i).max(1.0));
            }
        }
    }
}

/// Deterministic regression companion to the property tests: a couple of
/// adversarial shapes that once caused trouble.
#[test]
fn csr_empty_and_full_rows() {
    let mut b = CooBuilder::new(3, 3);
    b.push(1, 0, 1.0);
    b.push(1, 1, 2.0);
    b.push(1, 2, 3.0);
    let a = b.to_csr();
    assert_eq!(a.row(0).count(), 0);
    assert_eq!(a.row(1).count(), 3);
    assert_eq!(a.row(2).count(), 0);
    let mut y = vec![0.0; 3];
    a.spmv(&[1.0, 1.0, 1.0], &mut y);
    assert_eq!(y, vec![0.0, 6.0, 0.0]);
}

#[test]
fn identity_matrix_roundtrips() {
    let i5 = CsrMatrix::identity(5);
    assert_eq!(i5.spmm(&i5), i5);
    assert_eq!(i5.transpose(), i5);
    let f = LocalLdlt::factor(&i5, Ordering::MinDegree, LdltBackend::Scalar).unwrap();
    assert_eq!(
        f.solve(&[1.0, 2.0, 3.0, 4.0, 5.0]),
        vec![1.0, 2.0, 3.0, 4.0, 5.0]
    );
}
