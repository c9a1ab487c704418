//! Box–Muller standard-normal sampler.

use rand::Rng;

/// A standard-normal sampler over any `rand` RNG.
///
/// `rand` 0.8 only ships uniform distributions in its core crate (the
/// normal lives in `rand_distr`, which is outside the allowed dependency
/// set), so the classic Box–Muller transform is implemented here. Each
/// transform yields two independent normals; the spare is cached.
#[derive(Debug, Default, Clone)]
pub struct Gaussian {
    spare: Option<f64>,
}

impl Gaussian {
    /// Creates a sampler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Draws one standard normal sample.
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        if let Some(s) = self.spare.take() {
            return s;
        }
        // u1 in (0, 1]: avoid ln(0).
        let u1: f64 = 1.0 - rng.gen::<f64>();
        let u2: f64 = rng.gen();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare = Some(r * theta.sin());
        r * theta.cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn moments_are_approximately_standard() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut g = Gaussian::new();
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| g.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn all_samples_finite() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut g = Gaussian::new();
        assert!((0..10_000).all(|_| g.sample(&mut rng).is_finite()));
    }

    #[test]
    fn deterministic_for_seed() {
        let a: Vec<f64> = {
            let mut rng = StdRng::seed_from_u64(9);
            let mut g = Gaussian::new();
            (0..10).map(|_| g.sample(&mut rng)).collect()
        };
        let b: Vec<f64> = {
            let mut rng = StdRng::seed_from_u64(9);
            let mut g = Gaussian::new();
            (0..10).map(|_| g.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
