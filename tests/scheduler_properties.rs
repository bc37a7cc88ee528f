//! Property-based tests (proptest) on scheduler and engine invariants.

use proptest::prelude::*;

use dysta::core::Policy;
use dysta::models::ModelId;
use dysta::sim::{simulate, EngineConfig};
use dysta::sparsity::SparsityPattern;
use dysta::trace::{ModelTraces, SparseModelSpec};
use dysta::workload::{Scenario, WorkloadBuilder};

fn policy_strategy() -> impl Strategy<Value = Policy> {
    prop::sample::select(Policy::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Conservation + sanity for arbitrary (policy, seed, rate, SLO).
    #[test]
    fn engine_invariants_hold(
        policy in policy_strategy(),
        seed in 0u64..1000,
        rate in 1.0f64..6.0,
        slo in 2.0f64..60.0,
    ) {
        let w = WorkloadBuilder::new(Scenario::MultiCnn)
            .arrival_rate(rate)
            .slo_multiplier(slo)
            .num_requests(30)
            .samples_per_variant(6)
            .seed(seed)
            .build();
        let report = simulate(&w, policy.build().as_mut(), &EngineConfig::default());

        // Every request completes exactly once.
        prop_assert_eq!(report.completed().len(), 30);
        let mut ids: Vec<u64> = report.completed().iter().map(|c| c.id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), 30);

        for c in report.completed() {
            // No time travel: completion after arrival + pure service.
            prop_assert!(c.completion_ns >= c.arrival_ns + c.isolated_ns);
            // NTT >= 1 by construction.
            prop_assert!(c.normalized_turnaround() >= 1.0);
        }
        prop_assert!(report.antt() >= 1.0);
        prop_assert!((0.0..=1.0).contains(&report.violation_rate()));
    }

    /// Work conservation: total busy time is schedule-independent, so the
    /// last completion differs between policies only by switch overhead.
    #[test]
    fn makespan_bounded_by_switch_overhead(seed in 0u64..500) {
        let w = WorkloadBuilder::new(Scenario::MultiAttNn)
            .num_requests(25)
            .samples_per_variant(6)
            .seed(seed)
            .build();
        let total_work: u64 = w.requests().iter().map(|r| w.isolated_ns(r)).sum();
        let config = EngineConfig { preemption_overhead_ns: 10_000, ..EngineConfig::default() };
        for policy in [Policy::Fcfs, Policy::Dysta] {
            let report = simulate(&w, policy.build().as_mut(), &config);
            let makespan_end = report
                .completed()
                .iter()
                .map(|c| c.completion_ns)
                .max()
                .unwrap();
            let switch_cost = report.preemptions() * config.preemption_overhead_ns;
            let first_arrival = w.requests()[0].arrival_ns;
            // The engine can never finish before doing all the work, nor
            // later than work + idle-gaps + switches.
            prop_assert!(makespan_end >= first_arrival + total_work / 25);
            let last_arrival = w.requests().last().unwrap().arrival_ns;
            prop_assert!(
                makespan_end <= last_arrival + total_work + switch_cost,
                "makespan {} exceeds bound", makespan_end
            );
        }
    }

    /// Monitored sparsities replayed by the engine match the trace.
    #[test]
    fn traces_are_internally_consistent(
        seed in 0u64..1000,
        count in 1u64..16,
    ) {
        let spec = SparseModelSpec::new(ModelId::Bert, SparsityPattern::Dense, 0.0);
        let traces = ModelTraces::generate(&spec, count, seed);
        prop_assert_eq!(traces.num_samples() as u64, count);
        for i in 0..count {
            let t = traces.sample(i);
            // Remaining telescopes to the isolated latency.
            prop_assert_eq!(t.remaining_ns(0), t.isolated_latency_ns());
            let mut acc = 0u64;
            for (j, l) in t.layers().iter().enumerate() {
                prop_assert_eq!(
                    t.isolated_latency_ns() - acc,
                    t.remaining_ns(j)
                );
                acc += l.latency_ns;
                prop_assert!(l.latency_ns > 0);
                prop_assert!((0.0..=1.0).contains(&l.sparsity));
            }
        }
    }
}
