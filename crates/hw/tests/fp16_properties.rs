//! Property-based tests on the FP16 emulation.

use proptest::prelude::*;

use dysta_hw::F16;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn conversion_error_is_within_half_ulp(x in -60000.0f64..60000.0) {
        let h = F16::from_f64(x);
        prop_assert!(!h.to_f64().is_nan());
        if x.abs() > 6.2e-5 && !h.to_f64().is_infinite() {
            // Normal range: relative error bounded by 2^-11.
            let rel = ((h.to_f64() - x) / x).abs();
            prop_assert!(rel <= 2f64.powi(-11), "x={x} rel={rel}");
        } else {
            // Subnormal range: absolute error bounded by half the
            // smallest subnormal step (2^-25).
            prop_assert!((h.to_f64() - x).abs() <= 2f64.powi(-25) + 1e-18);
        }
    }

    #[test]
    fn conversion_is_monotone(a in -60000.0f64..60000.0, b in -60000.0f64..60000.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(F16::from_f64(lo).to_f64() <= F16::from_f64(hi).to_f64());
    }

    #[test]
    fn conversion_is_idempotent(x in -60000.0f64..60000.0) {
        let once = F16::from_f64(x);
        let twice = F16::from_f64(once.to_f64());
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn addition_commutes(a in -200.0f64..200.0, b in -200.0f64..200.0) {
        let (x, y) = (F16::from_f64(a), F16::from_f64(b));
        prop_assert_eq!(x + y, y + x);
        prop_assert_eq!(x * y, y * x);
    }

    #[test]
    fn multiplication_by_one_is_identity(a in -60000.0f64..60000.0) {
        let x = F16::from_f64(a);
        prop_assert_eq!(x * F16::ONE, x);
    }
}
