//! The functions being represented: normalized 3D Gaussians.
//!
//! The paper's benchmark projects "3D Gaussian functions (exponent
//! 30 000) to precision of 10⁻⁸ with Gaussian centers distributed
//! randomly in a [−6, 6]³ volume".

use rand::Rng;

/// A normalized 3D Gaussian: f(x) = c · exp(−α‖x − x₀‖²) with
/// c = (2α/π)^(3/4) so that ‖f‖₂ = 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gaussian3 {
    /// Center (world coordinates).
    pub center: [f64; 3],
    /// Exponent α.
    pub exponent: f64,
    /// Normalization coefficient.
    pub coeff: f64,
}

impl Gaussian3 {
    /// Creates a normalized Gaussian.
    pub fn new(center: [f64; 3], exponent: f64) -> Self {
        let coeff = (2.0 * exponent / std::f64::consts::PI).powf(0.75);
        Gaussian3 {
            center,
            exponent,
            coeff,
        }
    }

    /// Evaluates the Gaussian at a world point.
    #[inline]
    pub fn eval(&self, x: f64, y: f64, z: f64) -> f64 {
        let dx = x - self.center[0];
        let dy = y - self.center[1];
        let dz = z - self.center[2];
        self.coeff * (-self.exponent * (dx * dx + dy * dy + dz * dz)).exp()
    }

    /// The unnormalised factor of axis `d` at world coordinate `t`:
    /// exp(−α(t − x₀_d)²). A Gaussian is separable, so
    /// `eval(x, y, z) = coeff · axis(0, x) · axis(1, y) · axis(2, z)` —
    /// the normalisation is applied once, not per axis.
    #[inline]
    pub fn axis(&self, d: usize, t: f64) -> f64 {
        let dt = t - self.center[d];
        (-self.exponent * dt * dt).exp()
    }

    /// Samples `n` Gaussians with centers uniform in `[lo, hi]³` and the
    /// given exponent — the paper's workload generator.
    pub fn random_set(n: usize, lo: f64, hi: f64, exponent: f64, rng: &mut impl Rng) -> Vec<Self> {
        (0..n)
            .map(|_| {
                let c = [
                    rng.gen_range(lo..hi),
                    rng.gen_range(lo..hi),
                    rng.gen_range(lo..hi),
                ];
                Gaussian3::new(c, exponent)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn peak_at_center_and_decay() {
        let g = Gaussian3::new([1.0, 2.0, 3.0], 10.0);
        let peak = g.eval(1.0, 2.0, 3.0);
        assert!(peak > 0.0);
        assert!(g.eval(1.5, 2.0, 3.0) < peak);
        assert!(g.eval(5.0, 5.0, 5.0) < 1e-10 * peak);
    }

    #[test]
    fn axis_factors_multiply_to_the_value() {
        let g = Gaussian3::new([0.3, -1.2, 2.0], 7.5);
        for p in [[0.3, -1.2, 2.0], [0.1, -1.0, 2.4], [1.0, 0.0, 1.5]] {
            let want = g.eval(p[0], p[1], p[2]);
            let got = g.coeff * g.axis(0, p[0]) * g.axis(1, p[1]) * g.axis(2, p[2]);
            assert!((got - want).abs() <= 1e-14 * want, "{got} vs {want}");
        }
    }

    #[test]
    fn l2_norm_is_one() {
        // ∫ f² over all space = c² (π/2α)^{3/2} = 1 by construction;
        // verify numerically on a wide box.
        let g = Gaussian3::new([0.0, 0.0, 0.0], 4.0);
        let n = 40;
        let h = 8.0 / n as f64;
        let mut sum = 0.0;
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let x = -4.0 + (i as f64 + 0.5) * h;
                    let y = -4.0 + (j as f64 + 0.5) * h;
                    let z = -4.0 + (k as f64 + 0.5) * h;
                    let v = g.eval(x, y, z);
                    sum += v * v * h * h * h;
                }
            }
        }
        assert!((sum - 1.0).abs() < 1e-3, "‖f‖² = {sum}");
    }

    #[test]
    fn random_set_is_seed_deterministic() {
        let mut r1 = rand::rngs::StdRng::seed_from_u64(42);
        let mut r2 = rand::rngs::StdRng::seed_from_u64(42);
        let a = Gaussian3::random_set(5, -6.0, 6.0, 100.0, &mut r1);
        let b = Gaussian3::random_set(5, -6.0, 6.0, 100.0, &mut r2);
        assert_eq!(a, b);
        assert!(a
            .iter()
            .all(|g| g.center.iter().all(|&c| (-6.0..6.0).contains(&c))));
    }
}
