//! The heterogeneous coefficient fields of the paper's experiments.
//!
//! * [`diffusivity_channels`] — the weak-scaling diffusion coefficient κ
//!   "with channels and inclusions", varying from 1 to 3·10⁶ (Figure 9);
//! * [`elasticity_two_materials`] — the strong-scaling elasticity
//!   coefficients: (E₁, ν₁) = (2·10¹¹, 0.25) (steel-like) and
//!   (E₂, ν₂) = (10⁷, 0.45) (rubber-like), arranged in alternating layers
//!   like the dark/light stripes of the paper's tripod and cantilever
//!   (Figure 6).

/// Lamé parameters from Young's modulus and Poisson's ratio, exactly the
/// conversion stated in the paper:
/// `μ = E / (2(1+ν))`, `λ = Eν / ((1+ν)(1−2ν))`.
pub fn lame_from_young_poisson(e: f64, nu: f64) -> (f64, f64) {
    let mu = e / (2.0 * (1.0 + nu));
    let lambda = e * nu / ((1.0 + nu) * (1.0 - 2.0 * nu));
    (lambda, mu)
}

/// Heterogeneous diffusivity with horizontal high-contrast channels and
/// circular inclusions on the unit square/cube, κ ∈ {1, 3·10⁶}.
///
/// The geometry mimics Figure 9: three channels crossing the whole domain
/// (so they intersect many subdomains — the hard case for one-level
/// methods) plus a lattice of inclusions.
pub fn diffusivity_channels(x: &[f64]) -> f64 {
    const HIGH: f64 = 3.0e6;
    let y = x[1];
    // Channels: bands in y of width 0.08 at three heights.
    for &yc in &[0.25, 0.5, 0.75] {
        if (y - yc).abs() < 0.04 {
            return HIGH;
        }
    }
    // Inclusions: disks of radius 0.045 on a 5×5 lattice offset from the
    // channels.
    let fract = |v: f64| v - v.floor();
    let cx = fract(x[0] * 5.0) - 0.5;
    let cy = fract(x[1] * 5.0 + 0.5) - 0.5;
    let mut r2 = cx * cx + cy * cy;
    if x.len() == 3 {
        let cz = fract(x[2] * 5.0) - 0.5;
        r2 += cz * cz;
    }
    if r2 < 0.22 * 0.22 {
        HIGH
    } else {
        1.0
    }
}

/// Two-material elasticity in alternating layers (the black / light-grey
/// stripes of the paper's geometries): returns `(λ, μ)`.
///
/// Material 1: E = 2·10¹¹, ν = 0.25 (stiff). Material 2: E = 10⁷,
/// ν = 0.45 (soft) — a contrast of 2·10⁴ in Young's modulus.
pub fn elasticity_two_materials(x: &[f64]) -> (f64, f64) {
    // Stripes along the y direction, 7 bands per unit length.
    let band = (x[1] * 7.0).floor() as i64;
    if band.rem_euclid(2) == 0 {
        lame_from_young_poisson(2.0e11, 0.25)
    } else {
        lame_from_young_poisson(1.0e7, 0.45)
    }
}

/// Contrast of a coefficient field sampled on a lattice — used by tests to
/// confirm the fields reach the paper's heterogeneity levels.
#[cfg(test)]
fn sampled_contrast(f: &dyn Fn(&[f64]) -> f64, dim: usize, samples: usize) -> f64 {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    let m = samples;
    match dim {
        2 => {
            for i in 0..m {
                for j in 0..m {
                    let x = [(i as f64 + 0.5) / m as f64, (j as f64 + 0.5) / m as f64];
                    let v = f(&x);
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
            }
        }
        3 => {
            for i in 0..m {
                for j in 0..m {
                    for k in 0..m {
                        let x = [
                            (i as f64 + 0.5) / m as f64,
                            (j as f64 + 0.5) / m as f64,
                            (k as f64 + 0.5) / m as f64,
                        ];
                        let v = f(&x);
                        lo = lo.min(v);
                        hi = hi.max(v);
                    }
                }
            }
        }
        _ => panic!("dim"),
    }
    hi / lo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lame_conversion_matches_paper_values() {
        // (E₁, ν₁) = (2e11, 0.25): μ = 8e10, λ = 8e10.
        let (l, m) = lame_from_young_poisson(2.0e11, 0.25);
        assert!((m - 8.0e10).abs() < 1.0);
        assert!((l - 8.0e10).abs() < 1.0);
        // (E₂, ν₂) = (1e7, 0.45)
        let (l2, m2) = lame_from_young_poisson(1.0e7, 0.45);
        assert!((m2 - 1.0e7 / 2.9).abs() < 1.0);
        assert!((l2 - 1.0e7 * 0.45 / (1.45 * 0.1)).abs() < 1.0);
    }

    #[test]
    fn diffusivity_reaches_paper_contrast() {
        let c2 = sampled_contrast(&diffusivity_channels, 2, 40);
        assert_eq!(c2, 3.0e6);
        let c3 = sampled_contrast(&diffusivity_channels, 3, 16);
        assert_eq!(c3, 3.0e6);
    }

    #[test]
    fn channels_cross_entire_domain() {
        // κ is HIGH across the full width at y = 0.5.
        for i in 0..50 {
            let x = [i as f64 / 49.0, 0.5];
            assert_eq!(diffusivity_channels(&x), 3.0e6);
        }
    }

    #[test]
    fn elasticity_layers_alternate() {
        let (l0, _) = elasticity_two_materials(&[0.3, 0.05]);
        let (l1, _) = elasticity_two_materials(&[0.3, 0.2]);
        assert!(l0 > 1e10, "band 0 stiff");
        assert!(l1 < 1e8, "band 1 soft");
    }
}
