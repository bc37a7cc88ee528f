//! The reconfigurable compute unit (the paper's Figures 10–11).
//!
//! The unit owns three multipliers and three adder/subtractors whose
//! interconnect is reconfigured by mux select signals between two
//! dataflows:
//!
//! * **Coefficient mode** (Figure 11(a)/(c)): the division by the layer
//!   shape is folded into a multiplication by the offline-precomputed
//!   reciprocal, so `γ = num_zeros_complement × (1/shape) × (1/avg_density)`
//!   uses only the last two multipliers.
//! * **Score mode** (Figure 11(b)/(d)): all units are active to evaluate
//!   `remain = γ·Lat_avg` and `score = remain + η·(slack + penalty)`,
//!   with the normalised-isolation division likewise folded into a
//!   precomputed reciprocal multiplication.
//!
//! All arithmetic is FP16, matching the `Opt_FP16` design point. The
//! unit keeps no state between evaluations, so each dataflow is a plain
//! function.

use crate::F16;

/// Computes the sparsity coefficient `γ` from the monitor's raw
/// zero count (Algorithm 3 line 6 in the Figure 11(a) dataflow).
///
/// `num_zeros` and `shape` come from the zero-counting monitor;
/// `inv_avg_density` is the LUT-cached reciprocal of the layer's
/// average density.
pub(crate) fn coefficient(num_zeros: u64, shape: u64, inv_avg_density: F16) -> F16 {
    // Monitored density = 1 - zeros/shape, with the shape division
    // folded into a reciprocal multiplication.
    let inv_shape = F16::from_f64(1.0 / shape.max(1) as f64);
    let zero_frac = F16::from_f64(num_zeros as f64) * inv_shape;
    let density = F16::ONE - zero_frac;
    density * inv_avg_density
}

/// Computes the dynamic score (Algorithm 2 line 11 in the Figure
/// 11(b) dataflow): `γ·lat_avg + η·((ddl − now − γ·lat_avg) + wait·inv_queue)`.
///
/// All time inputs are in milliseconds (the FP16 range comfortably
/// covers the paper's workloads: SSD's 150× SLO is ~80 s = 8e4 ms,
/// near but under the 65504 FP16 max).
pub(crate) fn score(
    gamma: F16,
    lat_avg_ms: F16,
    ddl_ms: F16,
    now_ms: F16,
    wait_ms: F16,
    inv_queue_len: F16,
    eta: F16,
) -> F16 {
    let remain = gamma * lat_avg_ms;
    let slack = ddl_ms - now_ms - remain;
    let penalty = wait_ms * inv_queue_len;
    remain + eta * (slack + penalty)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coefficient_matches_reference_within_fp16() {
        for (zeros, shape, avg_density) in [(100u64, 1000u64, 0.5), (900, 1000, 0.25), (0, 64, 0.9)]
        {
            let g = coefficient(zeros, shape, F16::from_f64(1.0 / avg_density));
            let reference = (1.0 - zeros as f64 / shape as f64) / avg_density;
            let rel = ((g.to_f64() - reference) / reference.max(1e-9)).abs();
            assert!(rel < 5e-3, "γ={} ref={reference}", g.to_f64());
        }
    }

    #[test]
    fn score_matches_reference_within_fp16() {
        let s = score(
            F16::from_f64(1.2),
            F16::from_f64(30.0),  // lat_avg 30 ms
            F16::from_f64(400.0), // deadline
            F16::from_f64(100.0), // now
            F16::from_f64(12.0),  // wait
            F16::from_f64(0.25),  // 1/|Q|
            F16::from_f64(0.03),
        );
        let remain = 1.2 * 30.0;
        let reference = remain + 0.03 * ((400.0 - 100.0 - remain) + 12.0 * 0.25);
        assert!((s.to_f64() - reference).abs() / reference < 5e-3);
    }
}
