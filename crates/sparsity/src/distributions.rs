//! Random-variate samplers used by the workload and sparsity generators.
//!
//! The allowed dependency set includes `rand` but not `rand_distr`, so the
//! classic sampling algorithms are implemented here: Box–Muller for the
//! normal distribution, Marsaglia–Tsang for the gamma, the beta via two
//! gammas, and inversion/Knuth for the Poisson.

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

/// Normal variate with the given mean and standard deviation.
///
/// # Panics
///
/// Panics if `std_dev` is negative or not finite.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    assert!(
        std_dev >= 0.0 && std_dev.is_finite(),
        "standard deviation must be non-negative and finite"
    );
    mean + std_dev * standard_normal(rng)
}

/// Gamma(shape, scale = 1) variate via Marsaglia & Tsang's method.
///
/// # Panics
///
/// Panics if `shape` is not strictly positive.
pub fn gamma<R: Rng + ?Sized>(rng: &mut R, shape: f64) -> f64 {
    assert!(shape > 0.0, "gamma shape must be positive");
    if shape < 1.0 {
        // Boost: Gamma(a) = Gamma(a + 1) * U^(1/a).
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        return gamma(rng, shape + 1.0) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = standard_normal(rng);
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

/// Beta(alpha, beta) variate (ratio of gammas).
///
/// # Panics
///
/// Panics if either parameter is not strictly positive.
pub fn beta<R: Rng + ?Sized>(rng: &mut R, alpha: f64, beta_param: f64) -> f64 {
    assert!(
        alpha > 0.0 && beta_param > 0.0,
        "beta parameters must be positive"
    );
    let x = gamma(rng, alpha);
    let y = gamma(rng, beta_param);
    if x + y == 0.0 {
        0.5
    } else {
        x / (x + y)
    }
}

/// Poisson(lambda) variate. Uses Knuth's product method for small `lambda`
/// and a normal approximation (rounded, clamped at zero) for large values.
///
/// # Panics
///
/// Panics if `lambda` is negative or not finite.
pub fn poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> u64 {
    assert!(
        lambda >= 0.0 && lambda.is_finite(),
        "poisson rate must be non-negative and finite"
    );
    if lambda == 0.0 {
        return 0;
    }
    if lambda < 30.0 {
        let limit = (-lambda).exp();
        let mut product: f64 = rng.gen();
        let mut count = 0u64;
        while product > limit {
            product *= rng.gen::<f64>();
            count += 1;
        }
        count
    } else {
        let x = normal(rng, lambda, lambda.sqrt());
        x.round().max(0.0) as u64
    }
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
        let xs: Vec<f64> = (0..20_000).map(|_| normal(&mut rng, 3.0, 2.0)).collect();
        let (mean, var) = moments(&xs);
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.25, "var {var}");
    }

    #[test]
    fn gamma_moments() {
        let mut rng = StdRng::seed_from_u64(8);
        for shape in [0.5, 1.0, 2.5, 9.0] {
            let xs: Vec<f64> = (0..20_000).map(|_| gamma(&mut rng, shape)).collect();
            let (mean, var) = moments(&xs);
            assert!(
                (mean - shape).abs() < 0.15 * shape.max(1.0),
                "shape {shape} mean {mean}"
            );
            assert!(
                (var - shape).abs() < 0.3 * shape.max(1.0),
                "shape {shape} var {var}"
            );
        }
    }

    #[test]
    fn beta_moments() {
        let mut rng = StdRng::seed_from_u64(9);
        let (a, b) = (2.0, 5.0);
        let xs: Vec<f64> = (0..20_000).map(|_| beta(&mut rng, a, b)).collect();
        let (mean, var) = moments(&xs);
        let expect_mean = a / (a + b);
        let expect_var = a * b / ((a + b) * (a + b) * (a + b + 1.0));
        assert!((mean - expect_mean).abs() < 0.01);
        assert!((var - expect_var).abs() < 0.005);
        assert!(xs.iter().all(|x| (0.0..=1.0).contains(x)));
    }

    #[test]
    fn poisson_small_and_large_lambda() {
        let mut rng = StdRng::seed_from_u64(10);
        for lambda in [0.5, 4.0, 100.0] {
            let xs: Vec<f64> = (0..20_000)
                .map(|_| poisson(&mut rng, lambda) as f64)
                .collect();
            let (mean, var) = moments(&xs);
            assert!(
                (mean - lambda).abs() < 0.05 * lambda + 0.1,
                "λ={lambda} mean {mean}"
            );
            assert!(
                (var - lambda).abs() < 0.15 * lambda + 0.2,
                "λ={lambda} var {var}"
            );
        }
    }

    #[test]
    fn poisson_zero_rate_is_zero() {
        let mut rng = StdRng::seed_from_u64(11);
        assert_eq!(poisson(&mut rng, 0.0), 0);
    }

    #[test]
    fn exponential_mean_is_inverse_rate() {
        let mut rng = StdRng::seed_from_u64(12);
        let xs: Vec<f64> = (0..20_000).map(|_| exponential(&mut rng, 4.0)).collect();
        let (mean, _) = moments(&xs);
        assert!((mean - 0.25).abs() < 0.01, "mean {mean}");
        assert!(xs.iter().all(|&x| x >= 0.0));
    }

    #[test]
    #[should_panic(expected = "gamma shape must be positive")]
    fn gamma_rejects_zero_shape() {
        let mut rng = StdRng::seed_from_u64(13);
        let _ = gamma(&mut rng, 0.0);
    }
}
