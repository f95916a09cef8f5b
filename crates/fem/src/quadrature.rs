//! Quadrature rules on reference simplices.
//!
//! Rules are given in barycentric coordinates with weights summing to 1;
//! integrals are obtained by multiplying by the physical element volume.
//! Degrees up to 8 on triangles (enough for P4 mass matrices) and up to 4
//! on tetrahedra (enough for P2 mass matrices) — matching the highest
//! polynomial orders used in the paper (P4 in 2D, P2 in 3D).

/// A quadrature rule on the reference simplex: `points` holds barycentric
/// coordinates (`verts_per_simplex` entries per point).
#[derive(Clone, Debug)]
pub struct Quadrature {
    /// Spatial dimension (2 = triangle, 3 = tetrahedron).
    pub dim: usize,
    /// Barycentric coordinates, `dim + 1` entries per point.
    pub points: Vec<f64>,
    /// Weights summing to 1.
    pub weights: Vec<f64>,
}

impl Quadrature {
    pub fn n_points(&self) -> usize {
        self.weights.len()
    }

    /// Barycentric coordinates of point `q`.
    pub fn point(&self, q: usize) -> &[f64] {
        let k = self.dim + 1;
        &self.points[q * k..(q + 1) * k]
    }

    /// The rule of lowest cost integrating polynomials of degree `deg`
    /// exactly on a simplex of dimension `dim`.
    ///
    /// # Panics
    /// Panics for unsupported `(dim, deg)` combinations.
    pub fn for_degree(dim: usize, deg: usize) -> Quadrature {
        match (dim, deg) {
            (2, 0) | (2, 1) => tri_centroid(),
            (2, 2) => tri_deg2(),
            (2, 3) | (2, 4) => tri_deg4(),
            (2, 5) | (2, 6) => tri_deg6(),
            (2, 7) | (2, 8) => tri_deg8(),
            (3, 0) | (3, 1) => tet_centroid(),
            (3, 2) => tet_deg2(),
            (3, 3) | (3, 4) => tet_deg4(),
            _ => panic!("no quadrature for dim {dim}, degree {deg}"),
        }
    }
}

fn tri_centroid() -> Quadrature {
    Quadrature {
        dim: 2,
        points: vec![1.0 / 3.0; 3],
        weights: vec![1.0],
    }
}

fn tri_deg2() -> Quadrature {
    let mut points = Vec::new();
    for i in 0..3 {
        let mut b = [1.0 / 6.0; 3];
        b[i] = 2.0 / 3.0;
        points.extend_from_slice(&b);
    }
    Quadrature {
        dim: 2,
        points,
        weights: vec![1.0 / 3.0; 3],
    }
}

/// Push the 3 permutations of the barycentric point `(1−2a, a, a)`.
fn tri_sym3(points: &mut Vec<f64>, weights: &mut Vec<f64>, a: f64, w: f64) {
    for i in 0..3 {
        let mut b = [a; 3];
        b[i] = 1.0 - 2.0 * a;
        points.extend_from_slice(&b);
        weights.push(w);
    }
}

/// Push the 6 permutations of the barycentric point `(1−b−c, b, c)`.
fn tri_sym6(points: &mut Vec<f64>, weights: &mut Vec<f64>, b: f64, c: f64, w: f64) {
    let a = 1.0 - b - c;
    for perm in [
        [a, b, c],
        [a, c, b],
        [b, a, c],
        [b, c, a],
        [c, a, b],
        [c, b, a],
    ] {
        points.extend_from_slice(&perm);
        weights.push(w);
    }
}

/// Dunavant degree-4, 6 points.
fn tri_deg4() -> Quadrature {
    let mut points = Vec::new();
    let mut weights = Vec::new();
    tri_sym3(
        &mut points,
        &mut weights,
        0.445948490915965,
        0.223381589678011,
    );
    tri_sym3(
        &mut points,
        &mut weights,
        0.091576213509771,
        0.109951743655322,
    );
    Quadrature {
        dim: 2,
        points,
        weights,
    }
}

/// Dunavant degree-6, 12 points.
fn tri_deg6() -> Quadrature {
    let mut points = Vec::new();
    let mut weights = Vec::new();
    tri_sym3(
        &mut points,
        &mut weights,
        0.249286745170910,
        0.116786275726379,
    );
    tri_sym3(
        &mut points,
        &mut weights,
        0.063089014491502,
        0.050844906370207,
    );
    tri_sym6(
        &mut points,
        &mut weights,
        0.310352451033785,
        0.053145049844816,
        0.082851075618374,
    );
    Quadrature {
        dim: 2,
        points,
        weights,
    }
}

/// Dunavant degree-8, 16 points.
fn tri_deg8() -> Quadrature {
    let mut points = vec![1.0 / 3.0; 3];
    let mut weights = vec![0.14431560767778717];
    tri_sym3(
        &mut points,
        &mut weights,
        0.459_292_588_292_723_2,
        0.09509163426728462,
    );
    tri_sym3(
        &mut points,
        &mut weights,
        0.170_569_307_751_760_2,
        0.10321737053471825,
    );
    tri_sym3(
        &mut points,
        &mut weights,
        0.05054722831703098,
        0.03245849762319808,
    );
    tri_sym6(
        &mut points,
        &mut weights,
        0.263_112_829_634_638_1,
        0.00839477740995761,
        0.02723031417443499,
    );
    Quadrature {
        dim: 2,
        points,
        weights,
    }
}

fn tet_centroid() -> Quadrature {
    Quadrature {
        dim: 3,
        points: vec![0.25; 4],
        weights: vec![1.0],
    }
}

/// 4-point degree-2 rule.
fn tet_deg2() -> Quadrature {
    let a = (5.0 - 5.0f64.sqrt()) / 20.0;
    let mut points = Vec::new();
    for i in 0..4 {
        let mut b = [a; 4];
        b[i] = 1.0 - 3.0 * a;
        points.extend_from_slice(&b);
    }
    Quadrature {
        dim: 3,
        points,
        weights: vec![0.25; 4],
    }
}

/// Keast 14-point degree-4 rule (positive weights).
fn tet_deg4() -> Quadrature {
    let mut points = Vec::new();
    let mut weights = Vec::new();
    // Two vertex-type orbits (1−3a, a, a, a).
    for (a, w) in [
        (0.3108859192633005, 0.1126879257180162),
        (0.09273525031089123, 0.07349304311636196),
    ] {
        for i in 0..4 {
            let mut b = [a; 4];
            b[i] = 1.0 - 3.0 * a;
            points.extend_from_slice(&b);
            weights.push(w);
        }
    }
    // Edge-type orbit (b, b, c, c), 6 permutations.
    let b = 0.04550370412564965;
    let c = 0.5 - b;
    let w = 0.04254602077708147;
    for (i, j) in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)] {
        let mut p = [c; 4];
        p[i] = b;
        p[j] = b;
        points.extend_from_slice(&p);
        weights.push(w);
    }
    Quadrature {
        dim: 3,
        points,
        weights,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn factorial(n: usize) -> f64 {
        (1..=n).map(|i| i as f64).product()
    }

    /// Exact ∫ over the unit reference simplex of x^a y^b (z^c):
    /// a! b! (c!) / (a + b (+ c) + dim)!
    fn exact_monomial(dim: usize, powers: &[usize]) -> f64 {
        let num: f64 = powers.iter().map(|&p| factorial(p)).product();
        let s: usize = powers.iter().sum();
        num / factorial(s + dim)
    }

    /// Integrate x^a y^b (z^c) over the reference simplex with the rule.
    /// The reference simplex has vertices at the origin and the unit axis
    /// points; barycentric (λ0, …) maps to cartesian (λ1, λ2, …).
    fn integrate(q: &Quadrature, powers: &[usize]) -> f64 {
        let vol = 1.0 / factorial(q.dim); // reference simplex volume
        let mut acc = 0.0;
        for k in 0..q.n_points() {
            let b = q.point(k);
            let mut term = 1.0;
            for (d, &p) in powers.iter().enumerate() {
                term *= b[d + 1].powi(p as i32);
            }
            acc += q.weights[k] * term;
        }
        acc * vol
    }

    fn check_rule(dim: usize, deg: usize) {
        let q = Quadrature::for_degree(dim, deg);
        // weights sum to 1
        let sw: f64 = q.weights.iter().sum();
        assert!(
            (sw - 1.0).abs() < 1e-12,
            "weights of ({dim},{deg}) sum to {sw}"
        );
        // barycentric coordinates sum to 1 and are in [0, 1]
        for k in 0..q.n_points() {
            let s: f64 = q.point(k).iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
            assert!(q
                .point(k)
                .iter()
                .all(|&x| (-1e-12..=1.0 + 1e-12).contains(&x)));
        }
        // exact on all monomials of total degree ≤ deg
        let max = deg;
        if dim == 2 {
            for a in 0..=max {
                for b in 0..=max.saturating_sub(a) {
                    let got = integrate(&q, &[a, b]);
                    let want = exact_monomial(2, &[a, b]);
                    assert!(
                        (got - want).abs() < 1e-10 * want.abs().max(1.0),
                        "tri deg {deg}: x^{a} y^{b}: {got} vs {want}"
                    );
                }
            }
        } else {
            for a in 0..=max {
                for b in 0..=max.saturating_sub(a) {
                    for c in 0..=max.saturating_sub(a + b) {
                        let got = integrate(&q, &[a, b, c]);
                        let want = exact_monomial(3, &[a, b, c]);
                        assert!(
                            (got - want).abs() < 1e-10 * want.abs().max(1.0),
                            "tet deg {deg}: x^{a} y^{b} z^{c}: {got} vs {want}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn triangle_rules_exact() {
        for deg in [1usize, 2, 4, 6, 8] {
            check_rule(2, deg);
        }
    }

    #[test]
    fn tet_rules_exact() {
        for deg in [1usize, 2, 4] {
            check_rule(3, deg);
        }
    }

    #[test]
    #[should_panic]
    fn unsupported_degree_panics() {
        Quadrature::for_degree(3, 9);
    }
}
