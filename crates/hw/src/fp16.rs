//! IEEE 754 binary16 (half-precision) software emulation.
//!
//! The paper's hardware scheduler stores and computes scores in FP16 to
//! cut resource usage (its Figure 16 `Opt_FP16` design). This module
//! emulates that datapath bit-exactly: conversions implement
//! round-to-nearest-even, and arithmetic rounds through f32 the way an
//! FP16 FPGA operator with a normalised result does.

use std::fmt;
use std::ops::{Add, Div, Mul, Sub};

/// An IEEE 754 binary16 value (1 sign, 5 exponent, 10 mantissa bits).
///
/// # Examples
///
/// ```
/// use dysta_hw::F16;
///
/// let x = F16::from_f64(1.5);
/// let y = F16::from_f64(2.25);
/// assert_eq!((x * y).to_f64(), 3.375); // exactly representable
/// let z = F16::from_f64(0.1);
/// assert!((z.to_f64() - 0.1).abs() < 1e-4); // rounded
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct F16(u16);

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0);
    /// One.
    pub const ONE: F16 = F16(0x3C00);
    /// Largest finite value (65504).
    pub const MAX: F16 = F16(0x7BFF);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7C00);

    /// Converts from f32 with round-to-nearest-even, overflowing to
    /// infinity and flushing tiny values through the subnormal range.
    fn from_f32(value: f32) -> Self {
        let bits = value.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let frac = bits & 0x007F_FFFF;

        if exp == 0xFF {
            // Inf / NaN.
            let payload = if frac != 0 { 0x0200 } else { 0 };
            return F16(sign | 0x7C00 | payload);
        }
        // Re-bias from 127 to 15.
        let unbiased = exp - 127;
        if unbiased >= 16 {
            return F16(sign | 0x7C00); // overflow -> inf
        }
        if unbiased >= -14 {
            // Normal half. Keep 10 mantissa bits, round to nearest even.
            let half_exp = (unbiased + 15) as u16;
            let mantissa = frac >> 13;
            let round_bits = frac & 0x1FFF;
            let mut out = (sign as u32) | ((half_exp as u32) << 10) | mantissa;
            if round_bits > 0x1000 || (round_bits == 0x1000 && (mantissa & 1) == 1) {
                out += 1; // may carry into the exponent: that is correct
            }
            return F16(out as u16);
        }
        if unbiased >= -25 {
            // Subnormal half: m = round(1.frac × 2^(unbiased+24)), i.e.
            // shift the 24-bit significand right by (-unbiased - 1).
            let shift = (-unbiased - 1) as u32;
            let full = frac | 0x0080_0000; // implicit leading one
            let mantissa = full >> shift;
            let rem = full & ((1 << shift) - 1);
            let half = 1u32 << (shift - 1);
            let mut out = mantissa;
            if rem > half || (rem == half && (mantissa & 1) == 1) {
                out += 1;
            }
            return F16(sign | out as u16);
        }
        F16(sign) // underflow to signed zero
    }

    /// Converts from f64 (rounds through f32; double rounding is
    /// negligible at 10 mantissa bits).
    pub fn from_f64(value: f64) -> Self {
        F16::from_f32(value as f32)
    }

    /// Converts to f32 (exact).
    pub fn to_f32(self) -> f32 {
        let sign = ((self.0 & 0x8000) as u32) << 16;
        let exp = ((self.0 >> 10) & 0x1F) as u32;
        let frac = (self.0 & 0x03FF) as u32;
        let bits = match (exp, frac) {
            (0, 0) => sign,
            (0, f) => {
                // Subnormal: value = f × 2^-24; normalise around the
                // leading set bit at position p (0..=9).
                let p = 31 - f.leading_zeros();
                let e = 103 + p; // (p - 24) + 127
                let r = f & !(1u32 << p);
                sign | (e << 23) | (r << (23 - p))
            }
            (0x1F, 0) => sign | 0x7F80_0000,
            (0x1F, f) => sign | 0x7F80_0000 | (f << 13),
            (e, f) => sign | ((e + 127 - 15) << 23) | (f << 13),
        };
        f32::from_bits(bits)
    }

    /// Converts to f64 (exact).
    pub fn to_f64(self) -> f64 {
        self.to_f32() as f64
    }

    /// IEEE total-order-ish comparison adequate for score sorting
    /// (NaN sorts last).
    pub fn total_cmp(self, other: F16) -> std::cmp::Ordering {
        self.to_f32().total_cmp(&other.to_f32())
    }
}

impl fmt::Display for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

impl From<F16> for f32 {
    fn from(v: F16) -> f32 {
        v.to_f32()
    }
}

macro_rules! impl_op {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait for F16 {
            type Output = F16;
            fn $method(self, rhs: F16) -> F16 {
                F16::from_f32(self.to_f32() $op rhs.to_f32())
            }
        }
    };
}

impl_op!(Add, add, +);
impl_op!(Sub, sub, -);
impl_op!(Mul, mul, *);
impl_op!(Div, div, /);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_small_integers_roundtrip() {
        for i in -2048..=2048 {
            let h = F16::from_f64(i as f64);
            assert_eq!(h.to_f64(), i as f64, "{i}");
        }
    }

    #[test]
    fn known_bit_patterns() {
        assert_eq!(F16::from_f64(1.0), F16::ONE);
        assert_eq!(F16::from_f64(0.0), F16::ZERO);
        assert_eq!(F16::from_f64(65504.0), F16::MAX);
        assert_eq!(F16::from_f64(1e6), F16::INFINITY);
        assert_eq!(F16::from_f64(0.5).0, 0x3800);
        assert_eq!(F16::from_f64(-2.0).0, 0xC000);
    }

    #[test]
    fn rounding_error_is_bounded() {
        let mut x = 0.001;
        while x < 60000.0 {
            let h = F16::from_f64(x);
            let rel = ((h.to_f64() - x) / x).abs();
            // Half an ULP: 2^-11 relative.
            assert!(rel <= 2f64.powi(-11), "x={x} rel={rel}");
            x *= 1.37;
        }
    }

    #[test]
    fn subnormals_roundtrip() {
        // Smallest positive subnormal: 2^-24.
        let tiny = F16(1);
        assert!((tiny.to_f64() - 2f64.powi(-24)).abs() < 1e-12);
        assert_eq!(F16::from_f32(tiny.to_f32()), tiny);
        // A mid-range subnormal.
        let sub = F16(0x0155);
        assert_eq!(F16::from_f32(sub.to_f32()), sub);
    }

    #[test]
    fn all_finite_bit_patterns_roundtrip_through_f32() {
        for bits in 0..=0xFFFFu16 {
            let h = F16(bits);
            if h.to_f32().is_nan() {
                assert!(F16::from_f32(h.to_f32()).to_f32().is_nan());
            } else {
                assert_eq!(F16::from_f32(h.to_f32()), h, "bits {bits:#06x}");
            }
        }
    }

    #[test]
    fn arithmetic_matches_f32_rounded() {
        let a = F16::from_f64(3.7);
        let b = F16::from_f64(1.9);
        assert_eq!((a + b), F16::from_f32(a.to_f32() + b.to_f32()));
        assert_eq!((a * b), F16::from_f32(a.to_f32() * b.to_f32()));
        assert_eq!((a - b), F16::from_f32(a.to_f32() - b.to_f32()));
        assert_eq!((a / b), F16::from_f32(a.to_f32() / b.to_f32()));
    }

    #[test]
    fn round_to_nearest_even() {
        // 2049 is exactly between 2048 and 2050 -> ties to even (2048).
        assert_eq!(F16::from_f64(2049.0).to_f64(), 2048.0);
        // 2051 is between 2050 and 2052 -> 2052 (even mantissa).
        assert_eq!(F16::from_f64(2051.0).to_f64(), 2052.0);
    }

    #[test]
    fn nan_detected() {
        let nan = F16::from_f32(f32::NAN);
        assert!(nan.to_f32().is_nan());
        assert!(!nan.to_f32().is_infinite());
        assert!(F16::INFINITY.to_f64().is_infinite());
        assert!(F16::from_f64(-1e6).to_f64().is_infinite());
    }
}
