//! Bit-exactness of the parallel sweep grid: the rows of a
//! [`SweepGrid`] run must serialize to byte-identical JSON at any
//! thread count, across seeds × all dispatchers × scenarios × SLO
//! tightness, and must equal an independent replay that builds one
//! fresh trace store per cell.
//!
//! `f64` values serialize as the shortest round-trip decimal, so any
//! bit-level divergence in any metric surfaces as a string mismatch.

use proptest::prelude::*;

use dysta_cluster::{
    simulate_cluster, ClusterConfig, ClusterPolicy, DispatchPolicy, SweepGrid, SweepRow,
    SweepScenario,
};
use dysta_core::Policy;
use dysta_obs::NullTracer;
use dysta_workload::{Scenario, StreamSpec};

fn scenarios() -> Vec<SweepScenario> {
    vec![
        SweepScenario::new("attnn", Scenario::MultiAttNn, 20.0),
        SweepScenario::new("cnn", Scenario::MultiCnn, 3.0),
    ]
}

/// The grid's rows in canonical order, each cell replayed on its own
/// freshly built trace store by direct library calls.
fn fresh_store_rows(grid: &SweepGrid) -> Vec<SweepRow> {
    let mut rows = Vec::new();
    for &seed in &grid.seeds {
        for &policy in &grid.policies {
            for &sc in &grid.scenarios {
                for &slo in &grid.slo_multipliers {
                    let spec = StreamSpec::steady_poisson(sc.scenario, sc.rate, slo)
                        .num_requests(grid.requests)
                        .samples_per_variant(grid.samples_per_variant)
                        .seed(seed);
                    let store = spec.build_store();
                    let report = simulate_cluster(
                        spec.source(&store),
                        &mut ClusterPolicy::from_dispatch(policy),
                        &grid.config,
                        NullTracer,
                    );
                    rows.push(SweepRow {
                        scenario: sc.name.to_string(),
                        policy: policy.name().to_string(),
                        seed,
                        rate: sc.rate,
                        slo_multiplier: slo,
                        antt: report.antt(),
                        violation_rate: report.violation_rate(),
                        goodput_rate: report.goodput_rate(),
                        throughput_inf_s: report.throughput_inf_s(),
                        completed: report.completed_total() as u64,
                    });
                }
            }
        }
    }
    rows
}

#[test]
fn grid_rows_equal_a_fresh_store_per_cell_at_any_thread_count() {
    // Each (seed, scenario) store key spans both policies and both SLO
    // multipliers, so executors reuse stores across both axes; 3
    // executors split a key's four cells unevenly.
    let grid = SweepGrid::new(ClusterConfig::heterogeneous(1, 1, Policy::Dysta))
        .seeds(vec![3, 11])
        .policies(vec![
            DispatchPolicy::JoinShortestQueue,
            DispatchPolicy::SparsityAffinity,
        ])
        .scenarios(scenarios())
        .slo_multipliers(vec![2.0, 10.0])
        .requests(20)
        .samples_per_variant(2);
    let reference = SweepGrid::rows_to_json(&fresh_store_rows(&grid));
    for threads in [1, 2, 3, 8] {
        assert_eq!(
            SweepGrid::rows_to_json(&grid.run(threads)),
            reference,
            "{threads}-thread grid diverged from the fresh-store replay"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn parallel_sweep_grid_json_is_byte_identical_across_thread_counts(
        seed_a in 0u64..500,
        seed_b in 500u64..1000,
        slo_a in 2u32..10,
        slo_b in 10u32..20,
    ) {
        let grid = SweepGrid::new(ClusterConfig::heterogeneous(1, 1, Policy::Dysta))
            .seeds(vec![seed_a, seed_b])
            .policies(DispatchPolicy::ALL.to_vec())
            .scenarios(scenarios())
            .slo_multipliers(vec![f64::from(slo_a), f64::from(slo_b)])
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
