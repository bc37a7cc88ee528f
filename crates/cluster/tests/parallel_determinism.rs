//! Bit-exactness of the parallel sweep grid: the rows of a
//! [`SweepGrid`] run must serialize to byte-identical JSON at any
//! thread count, across seeds × all dispatchers × SLO tightness.
//!
//! `f64` values serialize as the shortest round-trip decimal, so any
//! bit-level divergence in any metric surfaces as a string mismatch.

use proptest::prelude::*;

use dysta_cluster::{ClusterConfig, DispatchPolicy, SweepGrid, SweepScenario};
use dysta_core::Policy;
use dysta_workload::Scenario;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn parallel_sweep_grid_json_is_byte_identical_across_thread_counts(
        seed_a in 0u64..500,
        seed_b in 500u64..1000,
        slo in 2u32..20,
    ) {
        let grid = SweepGrid::new(ClusterConfig::heterogeneous(1, 1, Policy::Dysta))
            .seeds(vec![seed_a, seed_b])
            .policies(DispatchPolicy::ALL.to_vec())
            .scenarios(vec![SweepScenario::new("attnn", Scenario::MultiAttNn, 20.0)])
            .slo_multipliers(vec![f64::from(slo)])
            .requests(20)
            .samples_per_variant(2);
        let sequential = SweepGrid::rows_to_json(&grid.run(1));
        for threads in [2, 4, 8] {
            let parallel = SweepGrid::rows_to_json(&grid.run(threads));
            prop_assert_eq!(
                &sequential,
                &parallel,
                "{}-thread sweep JSON diverged from sequential",
                threads
            );
        }
    }
}
