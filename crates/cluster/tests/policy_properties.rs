//! Property tests for the `ClusterPolicy` redesign: deadline-aware
//! dispatch quality, costed-transfer accounting, per-node capacity
//! semantics, and the steal policy's thief-class contract.
//!
//! The EDF-vs-round-robin property is aggregated over a window of
//! consecutive seeds: EDF routes on *estimated* completion, so a single
//! adversarial seed can cost it a violation round-robin happens to
//! dodge, but over any 8-seed window at this operating point EDF's
//! violation total never exceeds round-robin's (pre-verified for every
//! window in the seed range the generator draws from).

use proptest::prelude::*;

use dysta_cluster::{
    simulate_cluster, AcceleratorKind, BacklogGainSteal, ClusterBuilder, ClusterPolicy,
    DispatchContext, DispatchPolicy, FrontendConfig, MigrationConfig, NodeHealth, NodeView,
    StealCandidate, StealConfig, StealPolicy, TransferCostConfig,
};
use dysta_core::{ModelInfoLut, Policy};
use dysta_obs::NullTracer;
use dysta_sim::EngineConfig;
use dysta_workload::{Scenario, Workload, WorkloadBuilder};

fn workload(rate: f64, slo: f64, n: usize, seed: u64) -> Workload {
    WorkloadBuilder::new(Scenario::MultiCnn)
        .arrival_rate(rate)
        .slo_multiplier(slo)
        .num_requests(n)
        .samples_per_variant(4)
        .seed(seed)
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn edf_never_violates_more_than_round_robin_on_a_single_family_pool(
        base_seed in 0u64..292,
    ) {
        // Single-family (all-Eyeriss) pool with one slow node: the
        // deadline-aware router must not lose to blind cycling on SLO
        // violations, aggregated over the window.
        let mut edf_total = 0usize;
        let mut rr_total = 0usize;
        for seed in base_seed..base_seed + 8 {
            let w = workload(12.0, 5.0, 60, seed);
            let pool = ClusterBuilder::homogeneous(3, AcceleratorKind::EyerissV2, Policy::Dysta)
                .node_capacity(1, 0.6)
                .build();
            let rr = simulate_cluster(w.source(), &mut ClusterPolicy::from_dispatch(DispatchPolicy::RoundRobin), &pool, NullTracer);
            let edf = simulate_cluster(w.source(), &mut ClusterPolicy::from_dispatch(DispatchPolicy::EarliestDeadlineFirst), &pool, NullTracer);
            rr_total += rr.completed().filter(|c| c.violated()).count();
            edf_total += edf.completed().filter(|c| c.violated()).count();
        }
        prop_assert!(
            edf_total <= rr_total,
            "edf {} vs round-robin {} violations over window [{base_seed}, {})",
            edf_total,
            rr_total,
            base_seed + 8
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn costed_transfers_conserve_requests_and_strictly_increase_busy_time(
        seed in 0u64..100,
    ) {
        // Homogeneous full-speed pool: every placement costs the same
        // service, so total busy time is placement-invariant and the
        // costed run's busy must exceed the free run's by *exactly* the
        // charged fetch time — strictly more whenever anything moved.
        let w = workload(12.0, 10.0, 60, seed);
        let frontend = FrontendConfig {
            steal: Some(StealConfig {
                min_imbalance: 1.0,
                period_ns: 7_000_000,
            }),
            migration: Some(MigrationConfig {
                min_imbalance: 1.0,
                period_ns: 13_000_000,
                max_per_request: 2,
            }),
            ..FrontendConfig::default()
        };
        let free = ClusterBuilder::homogeneous(4, AcceleratorKind::EyerissV2, Policy::Dysta)
            .frontend(frontend)
            .build();
        let costed = ClusterBuilder::homogeneous(4, AcceleratorKind::EyerissV2, Policy::Dysta)
            .frontend(frontend)
            .transfer_cost(TransferCostConfig::default_costed())
            .build();
        let rf = simulate_cluster(w.source(), &mut ClusterPolicy::from_dispatch(DispatchPolicy::RoundRobin), &free, NullTracer);
        let rc = simulate_cluster(w.source(), &mut ClusterPolicy::from_dispatch(DispatchPolicy::RoundRobin), &costed, NullTracer);

        // Conservation still holds with a nonzero transfer cost.
        prop_assert_eq!(rc.completed_total(), 60);
        for node in rc.nodes() {
            prop_assert_eq!(
                node.routed + node.transferred_in - node.transferred_out,
                node.report.completed().len(),
                "node {} accounting out of balance under costed transfers",
                node.node_id
            );
        }

        // Fetch-cost accounting is exact: busy time exceeds the
        // free-transfer run by exactly the pool's fetch total (strictly,
        // whenever any transfer fired — which this operating point
        // guarantees).
        let fetch = rc.total_transfer_cost_ns();
        let busy_free: u64 = rf.nodes().iter().map(|n| n.busy_ns).sum();
        let busy_costed: u64 = rc.nodes().iter().map(|n| n.busy_ns).sum();
        prop_assert_eq!(busy_costed, busy_free + fetch);
        let moved = rc.serving().steals + rc.serving().migrations;
        prop_assert!(moved > 0, "operating point must trigger transfers");
        prop_assert!(busy_costed > busy_free);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn capacity_scales_a_lone_nodes_makespan_by_exactly_its_inverse(
        seed in 0u64..200,
        speed_bin in 0u8..2,
    ) {
        // A lone node at capacity c = 1/k (k a power of two, so the
        // per-layer rounding in `scale_ns` is exact) runs the same
        // saturated workload with a service makespan and busy time
        // exactly k× the full-speed run. Arrivals are packed (huge
        // rate), so the makespan is service time plus the context
        // switches, which capacity does not scale: both runs switch
        // equally often, and the switch overhead is taken out before
        // comparing.
        let (capacity, factor) = if speed_bin == 0 { (0.5, 2u64) } else { (0.25, 4u64) };
        let w = WorkloadBuilder::new(Scenario::MultiCnn)
            .arrival_rate(1e6)
            .num_requests(20)
            .samples_per_variant(4)
            .seed(seed)
            .build();
        let run = |cap: f64| {
            let pool = ClusterBuilder::homogeneous(1, AcceleratorKind::EyerissV2, Policy::Fcfs)
                .node_capacity(0, cap)
                .build();
            simulate_cluster(w.source(), &mut ClusterPolicy::from_dispatch(DispatchPolicy::RoundRobin), &pool, NullTracer)
        };
        let full = run(1.0);
        let slow = run(capacity);
        let switches = full.nodes()[0].report.preemptions();
        prop_assert_eq!(slow.nodes()[0].report.preemptions(), switches);
        let overhead = switches * EngineConfig::default().preemption_overhead_ns;
        let first_arrival = w.requests()[0].arrival_ns;
        let service_makespan = |r: &dysta_cluster::ClusterReport| {
            r.completed().map(|c| c.completion_ns).max().unwrap() - first_arrival - overhead
        };
        prop_assert_eq!(service_makespan(&slow), factor * service_makespan(&full));
        prop_assert_eq!(
            slow.nodes()[0].busy_ns,
            factor * full.nodes()[0].busy_ns
        );
        // The slowdown lands on turnaround, not on the isolated-time
        // goalposts: ANTT strictly degrades.
        prop_assert!(slow.antt() > full.antt());
    }
}

/// The node classes the steal-contract property draws from:
/// accelerator, capacity and health (up, browned out to half, down).
fn steal_view(id: usize, (accel, cap, health, backlog): (usize, usize, usize, f64)) -> NodeView {
    let capacity = [0.5, 1.0][cap];
    NodeView {
        id,
        accelerator: [AcceleratorKind::EyerissV2, AcceleratorKind::Sanger][accel],
        capacity,
        now_ns: 0,
        queue_len: 0,
        lut_backlog_ns: backlog,
        predicted_backlog_ns: backlog,
        health: match health {
            0 => NodeHealth::Up,
            1 => NodeHealth::Degraded {
                capacity: 0.5 * capacity,
            },
            _ => NodeHealth::Down { until_ns: None },
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn backlog_gain_steal_answers_every_thief_of_a_class_alike(
        nodes in prop::collection::vec((0usize..2, 0usize..2, 0usize..3, 0.0f64..4.0e6), 4..14),
        offers in prop::collection::vec((0usize..64, 1.0e4f64..1.0e6, 0.3f64..3.0, 0.3f64..3.0, 0u64..400_000), 0..24),
        min_imbalance in 0.5f64..2.5,
    ) {
        // The engine asks `choose` once per thief class and takes the
        // answer for every drained thief of that class. Any two
        // thieves that are not down, share a class (accelerator,
        // capacity, health) and hold no candidate get the same list and
        // context, so they must get the same answer.
        let views: Vec<NodeView> = nodes.iter().enumerate().map(|(id, &n)| steal_view(id, n)).collect();
        let candidates: Vec<StealCandidate> = offers
            .iter()
            .enumerate()
            .map(|(i, &(victim, est, victim_scale, thief_scale, cost))| StealCandidate {
                // The first half of the pool holds the stealable work,
                // so the second half has idle thieves to compare.
                victim: victim % (views.len() / 2),
                task_id: i as u64,
                arrival_ns: 0,
                deadline_ns: u64::MAX,
                est_ns: est,
                on_victim_ns: est * victim_scale,
                on_thief_ns: est * thief_scale,
                transfer_cost_ns: cost,
            })
            .collect();
        let lut = ModelInfoLut::default();
        let ctx = DispatchContext::new(0, &views, &lut, &TransferCostConfig::FREE);
        let cfg = StealConfig {
            min_imbalance,
            ..StealConfig::default()
        };
        let class = |v: &NodeView| (v.accelerator, v.capacity.to_bits(), v.health);
        let thieves: Vec<&NodeView> = views
            .iter()
            .filter(|v| v.health.accepts_work() && candidates.iter().all(|c| c.victim != v.id))
            .collect();
        let policy = BacklogGainSteal::new();
        for (i, a) in thieves.iter().enumerate() {
            for b in thieves[i + 1..].iter().filter(|b| class(b) == class(a)) {
                prop_assert_eq!(
                    policy.choose(a.id, &candidates, &ctx, &cfg),
                    policy.choose(b.id, &candidates, &ctx, &cfg),
                    "thieves {} and {} share a class but not an answer",
                    a.id,
                    b.id
                );
            }
        }
    }
}
