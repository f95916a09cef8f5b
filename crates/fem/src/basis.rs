//! Lagrange shape functions of arbitrary order on reference simplices.
//!
//! The basis of order `k` in dimension `d` is associated with the lattice
//! nodes `α/k` where `α` ranges over non-negative multi-indices of length
//! `d + 1` summing to `k` (barycentric). Shape functions are represented in
//! the monomial basis; the coefficients come from inverting the Vandermonde
//! matrix at the lattice nodes — exact and simple for `k ≤ 4`, which covers
//! every element order the paper uses.

use dd_linalg::{DMat, DenseLu};

/// Multi-index lattice node of a `P_k` element: barycentric numerators
/// (length `dim + 1`, summing to `k`).
pub type LatticeNode = Vec<u8>;

/// Lagrange basis of order `k` on the reference simplex of dimension `dim` (2 or 3).
///
/// The reference simplex has vertices at the origin and the unit points of
/// each axis; barycentric coordinate 0 belongs to the origin vertex.
#[derive(Clone, Debug)]
pub struct LagrangeBasis {
    dim: usize,
    order: usize,
    /// Lattice nodes (barycentric numerators), one per basis function.
    nodes: Vec<LatticeNode>,
    /// Monomial exponents (length `dim` each).
    monomials: Vec<Vec<u8>>,
    /// `coeff[(m, i)]`: coefficient of monomial `m` in shape function `i`.
    coeff: DMat,
}

/// Enumerate the multi-indices of length `len` summing to `total`,
/// lexicographically.
fn multi_indices(len: usize, total: usize) -> Vec<Vec<u8>> {
    fn rec(len: usize, total: usize, prefix: &mut Vec<u8>, out: &mut Vec<Vec<u8>>) {
        if len == 1 {
            prefix.push(total as u8);
            out.push(prefix.clone());
            prefix.pop();
            return;
        }
        for first in (0..=total).rev() {
            prefix.push(first as u8);
            rec(len - 1, total - first, prefix, out);
            prefix.pop();
        }
    }
    let mut out = Vec::new();
    rec(len, total, &mut Vec::new(), &mut out);
    out
}

impl LagrangeBasis {
    /// Construct the `P_order` basis in dimension `dim`.
    ///
    /// # Panics
    /// Panics for unsupported combinations (`dim ∉ {2, 3}` or `order = 0`
    /// or `order > 4`).
    pub fn new(dim: usize, order: usize) -> Self {
        assert!((2..=3).contains(&dim), "dim must be 2 or 3");
        assert!((1..=4).contains(&order), "order must be in 1..=4");
        let nodes = multi_indices(dim + 1, order);
        // Monomials x^a y^b (z^c) with total degree ≤ order.
        let mut monomials = Vec::new();
        for total in 0..=order {
            for mi in multi_indices(dim, total) {
                monomials.push(mi);
            }
        }
        let n = nodes.len();
        assert_eq!(monomials.len(), n, "dimension count mismatch");
        // Vandermonde: V[(i, m)] = monomial m at node i (cartesian coords of
        // the node are barycentric numerators 1.. / order).
        let mut v = DMat::zeros(n, n);
        for (i, node) in nodes.iter().enumerate() {
            let x: Vec<f64> = (0..dim)
                .map(|d| node[d + 1] as f64 / order as f64)
                .collect();
            for (m, mono) in monomials.iter().enumerate() {
                let mut t = 1.0;
                for d in 0..dim {
                    t *= x[d].powi(mono[d] as i32);
                }
                v[(i, m)] = t;
            }
        }
        // coeff = V⁻¹ (column i of coeff gives shape function i in the
        // monomial basis: φ_i(x_j) = δ_ij).
        let lu = DenseLu::factor(&v).expect("Vandermonde is nonsingular");
        let mut coeff = DMat::zeros(n, n);
        for i in 0..n {
            let mut e = vec![0.0; n];
            e[i] = 1.0;
            // Solve Vᵀ c = e ⟺ row interpolation; we need φ_i with
            // Σ_m c_m mono_m(x_j) = δ_ij, i.e. V c = e_i.
            let c = lu.solve(&e);
            coeff.col_mut(i).copy_from_slice(&c);
        }
        LagrangeBasis {
            dim,
            order,
            nodes,
            monomials,
            coeff,
        }
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    pub fn order(&self) -> usize {
        self.order
    }

    /// Number of shape functions (= lattice nodes).
    pub fn n_basis(&self) -> usize {
        self.nodes.len()
    }

    /// Lattice nodes (barycentric numerators summing to `order`).
    pub fn nodes(&self) -> &[LatticeNode] {
        &self.nodes
    }

    /// Evaluate all shape functions at a reference point (cartesian
    /// coordinates, `dim` entries), writing into `out`.
    pub fn eval(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.dim);
        assert_eq!(out.len(), self.n_basis());
        let n = self.n_basis();
        // Evaluate monomials once.
        let mut mono = vec![1.0f64; n];
        for (m, exps) in self.monomials.iter().enumerate() {
            let mut t = 1.0;
            for d in 0..self.dim {
                t *= x[d].powi(exps[d] as i32);
            }
            mono[m] = t;
        }
        for i in 0..n {
            let ci = self.coeff.col(i);
            out[i] = dd_linalg::vector::dot(ci, &mono);
        }
    }

    /// Evaluate all shape-function gradients at a reference point,
    /// writing `∂φ_i/∂x_d` into `out[i * dim + d]`.
    pub fn eval_grad(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.dim);
        assert_eq!(out.len(), self.n_basis() * self.dim);
        let n = self.n_basis();
        // d(mono_m)/dx_d evaluated at x.
        let mut dmono = vec![0.0f64; n * self.dim];
        for (m, exps) in self.monomials.iter().enumerate() {
            for d in 0..self.dim {
                let e = exps[d] as i32;
                if e == 0 {
                    continue;
                }
                let mut t = e as f64 * x[d].powi(e - 1);
                for dd in 0..self.dim {
                    if dd != d {
                        t *= x[dd].powi(exps[dd] as i32);
                    }
                }
                dmono[m * self.dim + d] = t;
            }
        }
        for i in 0..n {
            let ci = self.coeff.col(i);
            for d in 0..self.dim {
                let mut s = 0.0;
                for m in 0..n {
                    s += ci[m] * dmono[m * self.dim + d];
                }
                out[i * self.dim + d] = s;
            }
        }
    }

    /// Cartesian reference coordinates of lattice node `i`.
    #[cfg(test)]
    fn node_ref_coords(&self, i: usize) -> Vec<f64> {
        (0..self.dim)
            .map(|d| self.nodes[i][d + 1] as f64 / self.order as f64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_match_formula() {
        // dim 2: (k+1)(k+2)/2 ; dim 3: (k+1)(k+2)(k+3)/6
        for k in 1..=4 {
            let b2 = LagrangeBasis::new(2, k);
            assert_eq!(b2.n_basis(), (k + 1) * (k + 2) / 2);
        }
        for k in 1..=2 {
            let b3 = LagrangeBasis::new(3, k);
            assert_eq!(b3.n_basis(), (k + 1) * (k + 2) * (k + 3) / 6);
        }
    }

    #[test]
    fn kronecker_delta_property() {
        for (dim, kmax) in [(2usize, 4usize), (3, 2)] {
            for k in 1..=kmax {
                let b = LagrangeBasis::new(dim, k);
                let n = b.n_basis();
                let mut vals = vec![0.0; n];
                for j in 0..n {
                    let x = b.node_ref_coords(j);
                    b.eval(&x, &mut vals);
                    for i in 0..n {
                        let expect = if i == j { 1.0 } else { 0.0 };
                        assert!(
                            (vals[i] - expect).abs() < 1e-9,
                            "P{k} dim {dim}: φ_{i}(x_{j}) = {}",
                            vals[i]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn partition_of_unity_and_gradient_sum() {
        for (dim, k) in [(2usize, 3usize), (3, 2), (2, 4)] {
            let b = LagrangeBasis::new(dim, k);
            let n = b.n_basis();
            let x: Vec<f64> = match dim {
                2 => vec![0.21, 0.33],
                _ => vec![0.15, 0.22, 0.31],
            };
            let mut vals = vec![0.0; n];
            b.eval(&x, &mut vals);
            let s: f64 = vals.iter().sum();
            assert!((s - 1.0).abs() < 1e-10, "PoU violated: {s}");
            let mut grads = vec![0.0; n * dim];
            b.eval_grad(&x, &mut grads);
            for d in 0..dim {
                let gs: f64 = (0..n).map(|i| grads[i * dim + d]).sum();
                assert!(gs.abs() < 1e-9, "gradient sum {gs}");
            }
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        let b = LagrangeBasis::new(2, 3);
        let n = b.n_basis();
        let x = [0.3, 0.25];
        let h = 1e-6;
        let mut g = vec![0.0; n * 2];
        b.eval_grad(&x, &mut g);
        for d in 0..2 {
            let mut xp = x;
            xp[d] += h;
            let mut xm = x;
            xm[d] -= h;
            let mut vp = vec![0.0; n];
            let mut vm = vec![0.0; n];
            b.eval(&xp, &mut vp);
            b.eval(&xm, &mut vm);
            for i in 0..n {
                let fd = (vp[i] - vm[i]) / (2.0 * h);
                assert!(
                    (g[i * 2 + d] - fd).abs() < 1e-6,
                    "grad mismatch i={i} d={d}: {} vs {fd}",
                    g[i * 2 + d]
                );
            }
        }
    }

    #[test]
    fn p1_is_barycentric() {
        let b = LagrangeBasis::new(2, 1);
        let mut vals = vec![0.0; 3];
        b.eval(&[0.2, 0.3], &mut vals);
        // node order: multi-indices lex-descending on the first slot →
        // (1,0,0) = origin vertex first, then (0,1,0) = x-vertex, (0,0,1).
        assert!((vals[0] - 0.5).abs() < 1e-12);
        assert!((vals[1] - 0.2).abs() < 1e-12);
        assert!((vals[2] - 0.3).abs() < 1e-12);
    }
}
