//! Property-based tests on the distribution samplers and statistics.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use dysta_sparsity::distributions::{exponential, standard_normal};
use dysta_sparsity::stats::{correlation_matrix, mean, pearson, relative_range, std_dev};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exponential_always_non_negative(rate in 0.01f64..100.0, seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        prop_assert!(exponential(&mut rng, rate) >= 0.0);
    }

    #[test]
    fn normal_is_finite(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        prop_assert!(standard_normal(&mut rng).is_finite());
    }

    #[test]
    fn pearson_is_bounded_and_symmetric(
        xs in prop::collection::vec(-100.0f64..100.0, 3..40),
        shift in -10.0f64..10.0,
    ) {
        let ys: Vec<f64> = xs.iter().map(|x| x * 2.0 + shift).collect();
        if let Some(r) = pearson(&xs, &ys) {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
            // Perfect linear relation with positive slope.
            prop_assert!((r - 1.0).abs() < 1e-6);
        }
        if let (Some(ab), Some(ba)) = (pearson(&xs, &ys), pearson(&ys, &xs)) {
            prop_assert!((ab - ba).abs() < 1e-12);
        }
    }

    #[test]
    fn correlation_matrix_is_symmetric_unit_diagonal(
        rows in prop::collection::vec(
            prop::collection::vec(-10.0f64..10.0, 4),
            3..20
        ),
    ) {
        let m = correlation_matrix(&rows);
        for i in 0..m.len() {
            prop_assert!((m[i][i] - 1.0).abs() < 1e-12);
            #[allow(clippy::needless_range_loop)]
            for j in 0..m.len() {
                prop_assert!((m[i][j] - m[j][i]).abs() < 1e-12);
                prop_assert!(m[i][j].abs() <= 1.0 + 1e-9);
            }
        }
    }

    #[test]
    fn std_dev_invariant_to_shift(
        xs in prop::collection::vec(-100.0f64..100.0, 2..32),
        shift in -50.0f64..50.0,
    ) {
        let shifted: Vec<f64> = xs.iter().map(|x| x + shift).collect();
        prop_assert!((std_dev(&xs) - std_dev(&shifted)).abs() < 1e-8);
        prop_assert!((mean(&shifted) - mean(&xs) - shift).abs() < 1e-8);
    }

    #[test]
    fn relative_range_is_scale_invariant(
        xs in prop::collection::vec(0.1f64..100.0, 2..32),
        scale in 0.1f64..10.0,
    ) {
        let scaled: Vec<f64> = xs.iter().map(|x| x * scale).collect();
        prop_assert!((relative_range(&xs) - relative_range(&scaled)).abs() < 1e-9);
    }
}
