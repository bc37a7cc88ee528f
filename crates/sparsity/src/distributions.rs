//! Random-variate samplers used by the workload and sparsity generators.
//!
//! The allowed dependency set includes `rand` but not `rand_distr`, so the
//! two draws the generators need are implemented here: the standard
//! normal by the Box–Muller transform (per-sample sparsity noise) and the
//! exponential by inversion (Poisson-process inter-arrival gaps).

use rand::Rng;

/// Standard normal variate via the Box–Muller transform.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let z = dysta_sparsity::distributions::standard_normal(&mut rng);
/// assert!(z.is_finite());
/// ```
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Draw u1 in (0, 1] to avoid ln(0).
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Exponential variate with the given rate (events per unit time), via
/// inversion. Used for Poisson-process inter-arrival times.
///
/// # Panics
///
/// Panics if `rate` is not strictly positive.
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
    let u: f64 = 1.0 - rng.gen::<f64>();
    -u.ln() / rate
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn moments(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn normal_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let xs: Vec<f64> = (0..20_000).map(|_| standard_normal(&mut rng)).collect();
        let (mean, var) = moments(&xs);
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.06, "var {var}");
    }

    #[test]
    fn exponential_mean_is_inverse_rate() {
        let mut rng = StdRng::seed_from_u64(12);
        let xs: Vec<f64> = (0..20_000).map(|_| exponential(&mut rng, 4.0)).collect();
        let (mean, _) = moments(&xs);
        assert!((mean - 0.25).abs() < 0.01, "mean {mean}");
        assert!(xs.iter().all(|&x| x >= 0.0));
    }
}
