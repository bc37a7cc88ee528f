//! Cluster-level integration tests: single-node parity, determinism,
//! and the dispatch-policy orderings the bench sweep reports.

use std::cell::Cell;
use std::rc::Rc;

use dysta_cluster::{
    balanced_mixed_serving_mix, simulate_cluster, AcceleratorKind, ClusterBuilder, ClusterConfig,
    ClusterPolicy, DispatchPolicy, FrontendConfig, MigrationConfig, StealConfig,
    TransferCostConfig,
};
use dysta_core::Policy;
use dysta_obs::{NullTracer, RingTracer};
use dysta_sim::{simulate, EngineConfig};
use dysta_workload::{Scenario, Workload, WorkloadBuilder};

fn workload(scenario: Scenario, rate: f64, n: usize, seed: u64) -> Workload {
    WorkloadBuilder::new(scenario)
        .arrival_rate(rate)
        .num_requests(n)
        .samples_per_variant(8)
        .seed(seed)
        .build()
}

/// The heterogeneous serving mix: CNN perception plus AttNN assistant
/// traffic on one shared pool, balanced per
/// [`balanced_mixed_serving_mix`].
fn mixed_workload(rate: f64, n: usize, seed: u64) -> Workload {
    WorkloadBuilder::from_mix(balanced_mixed_serving_mix())
        .arrival_rate(rate)
        .num_requests(n)
        .samples_per_variant(8)
        .seed(seed)
        .build()
}

/// Each admitted request's admission-queue wait, in id order, read from
/// the trace: admission decision time minus arrival.
fn admission_waits(tracer: &RingTracer) -> Vec<u64> {
    assert_eq!(tracer.dropped(), 0, "the ring must hold the whole run");
    tracer
        .timelines()
        .iter()
        .filter_map(|t| Some(t.admitted_ns? - t.arrival_ns?))
        .collect()
}

#[test]
fn one_node_cluster_reproduces_single_node_simulate_exactly() {
    for (scenario, kind) in [
        (Scenario::MultiCnn, AcceleratorKind::EyerissV2),
        (Scenario::MultiAttNn, AcceleratorKind::Sanger),
    ] {
        let w = workload(scenario, 3.0, 60, 11);
        for policy in [Policy::Fcfs, Policy::Sjf, Policy::Dysta, Policy::Oracle] {
            let single = simulate(&w, policy.build().as_mut(), &EngineConfig::default());
            for dispatch in DispatchPolicy::ALL {
                let pool = ClusterConfig::homogeneous(1, kind, policy);
                let cluster = simulate_cluster(
                    w.source(),
                    &mut ClusterPolicy::from_dispatch(dispatch),
                    &pool,
                    NullTracer,
                );
                assert_eq!(cluster.nodes().len(), 1);
                let node = &cluster.nodes()[0];
                assert_eq!(
                    node.report.completed(),
                    single.completed(),
                    "{policy}/{dispatch} on {scenario:?}"
                );
                assert_eq!(node.report.preemptions(), single.preemptions());
                assert_eq!(
                    node.report.scheduler_invocations(),
                    single.scheduler_invocations()
                );
                // Both reports summarize the same records through one
                // fold, so their metrics agree bit for bit.
                assert_eq!(cluster.metrics(), single.metrics());
                for p in [50.0, 99.0] {
                    assert_eq!(
                        cluster.turnaround_percentile_ns(p),
                        single.turnaround_percentile_ns(p)
                    );
                }
            }
        }
    }
}

#[test]
fn one_node_cluster_with_serving_frontend_stays_bit_exact_with_simulate() {
    // With one node there is no peer to steal from or migrate to, and
    // admission batch 1 dispatches at arrival — the full serving stack
    // must reproduce the single-accelerator engine exactly.
    let w = workload(Scenario::MultiCnn, 3.0, 60, 17);
    let single = simulate(&w, Policy::Dysta.build().as_mut(), &EngineConfig::default());
    let pool = ClusterBuilder::homogeneous(1, AcceleratorKind::EyerissV2, Policy::Dysta)
        .frontend(FrontendConfig::serving())
        .build();
    let cluster = simulate_cluster(
        w.source(),
        &mut ClusterPolicy::from_dispatch(DispatchPolicy::RoundRobin),
        &pool,
        NullTracer,
    );
    assert_eq!(cluster.nodes()[0].report.completed(), single.completed());
    assert_eq!(cluster.serving().steals, 0);
    assert_eq!(cluster.serving().migrations, 0);
    assert_eq!(cluster.serving().admission_wait_total_ns, 0);
}

#[test]
fn stealing_reduces_imbalance_without_antt_regression() {
    // The acceptance scenario: affinity dispatch piles CNN-only traffic
    // onto the Eyeriss half of a heterogeneous pool; with stealing on,
    // the idle Sanger nodes absorb queued work at the mismatch penalty.
    let w = workload(Scenario::MultiCnn, 12.0, 200, 42);
    let baseline_pool = ClusterConfig::heterogeneous(2, 2, Policy::Dysta);
    let steal_pool = ClusterBuilder::heterogeneous(2, 2, Policy::Dysta)
        .frontend(FrontendConfig {
            steal: Some(StealConfig::default()),
            ..FrontendConfig::default()
        })
        .build();
    let baseline = simulate_cluster(
        w.source(),
        &mut ClusterPolicy::from_dispatch(DispatchPolicy::SparsityAffinity),
        &baseline_pool,
        NullTracer,
    );
    let stealing = simulate_cluster(
        w.source(),
        &mut ClusterPolicy::from_dispatch(DispatchPolicy::SparsityAffinity),
        &steal_pool,
        NullTracer,
    );
    assert!(
        stealing.serving().steals > 0,
        "pool imbalance must trigger steals"
    );
    assert!(
        stealing.load_imbalance() < baseline.load_imbalance(),
        "steal imbalance {} vs baseline {}",
        stealing.load_imbalance(),
        baseline.load_imbalance()
    );
    assert!(
        stealing.antt() <= baseline.antt(),
        "steal ANTT {} vs baseline {}",
        stealing.antt(),
        baseline.antt()
    );
    assert!(
        stealing.turnaround_percentile_ns(99.0) <= baseline.turnaround_percentile_ns(99.0),
        "stealing must not lengthen the tail"
    );
}

#[test]
fn costed_transfers_throttle_movement_but_keep_the_pool_balanced() {
    // The transfer-cost acceptance scenario: with the default cost model
    // and the re-tuned (costed) thresholds, steal and migration counts
    // drop vs free transfers — marginal moves no longer pay for
    // themselves — while load imbalance stays well below the no-serving
    // baseline, and every fetch is accounted on the nodes that paid it.
    let w = workload(Scenario::MultiCnn, 12.0, 200, 42);
    let affinity = |pool: &ClusterConfig| {
        let mut policy = ClusterPolicy::from_dispatch(DispatchPolicy::SparsityAffinity);
        simulate_cluster(w.source(), &mut policy, pool, NullTracer)
    };
    let baseline = affinity(&ClusterConfig::heterogeneous(2, 2, Policy::Dysta));
    let free = affinity(
        &ClusterBuilder::heterogeneous(2, 2, Policy::Dysta)
            .frontend(FrontendConfig::serving())
            .build(),
    );
    let costed = affinity(
        &ClusterBuilder::heterogeneous(2, 2, Policy::Dysta)
            .frontend(FrontendConfig::serving_costed())
            .transfer_cost(TransferCostConfig::default_costed())
            .build(),
    );
    assert_eq!(free.total_transfer_cost_ns(), 0, "free moves cost nothing");
    assert!(
        costed.serving().steals > 0,
        "imbalance must still trigger steals"
    );
    assert!(
        costed.serving().steals < free.serving().steals,
        "costed steals {} vs free {}",
        costed.serving().steals,
        free.serving().steals
    );
    assert!(
        costed.serving().migrations < free.serving().migrations,
        "costed migrations {} vs free {}",
        costed.serving().migrations,
        free.serving().migrations
    );
    assert!(
        costed.load_imbalance() < baseline.load_imbalance(),
        "costed imbalance {} vs no-serving {}",
        costed.load_imbalance(),
        baseline.load_imbalance()
    );
    // Fetch accounting: only nodes that received transfers paid
    // anything.
    assert!(costed.total_transfer_cost_ns() > 0);
    for node in costed.nodes() {
        if node.transferred_in == 0 {
            assert_eq!(node.transfer_fetch_ns, 0, "node {}", node.node_id);
        }
        assert!(node.busy_ns >= node.transfer_fetch_ns);
    }
}

#[test]
fn admission_batching_records_queue_waits_and_conserves_requests() {
    let w = workload(Scenario::MultiCnn, 12.0, 120, 7);
    let pool = ClusterBuilder::homogeneous(4, AcceleratorKind::EyerissV2, Policy::Dysta)
        .frontend(FrontendConfig {
            admit_batch: 6,
            ..FrontendConfig::default()
        })
        .build();
    let tracer = RingTracer::new(1 << 16);
    let report = simulate_cluster(
        w.source(),
        &mut ClusterPolicy::from_dispatch(DispatchPolicy::JoinShortestQueue),
        &pool,
        &tracer,
    );
    assert_eq!(report.completed_total(), 120);
    let waits = admission_waits(&tracer);
    assert_eq!(waits.len(), 120);
    // Batching makes most requests wait for the batch to fill; the
    // request closing each batch is dispatched instantly.
    assert!(waits.iter().any(|&wait| wait > 0));
    assert!(waits.iter().filter(|&&wait| wait == 0).count() >= 120 / 6);
    assert_eq!(
        report.serving().admission_wait_total_ns,
        waits.iter().map(|&wait| u128::from(wait)).sum::<u128>()
    );
    assert!(report.mean_admission_wait_ns() > 0.0);
}

#[test]
fn batched_dispatch_delays_execution_to_the_dispatch_instant() {
    // admit_batch = n on a 1-node pool: every request is dispatched at
    // the last arrival, so nothing may start — let alone complete —
    // before that instant, and the recorded admission waits are real
    // turnaround delay rather than bookkeeping.
    let w = workload(Scenario::MultiCnn, 12.0, 60, 7);
    let last_arrival = w.requests().last().unwrap().arrival_ns;
    let immediate_pool = ClusterConfig::homogeneous(1, AcceleratorKind::EyerissV2, Policy::Dysta);
    let batched_pool = ClusterBuilder::homogeneous(1, AcceleratorKind::EyerissV2, Policy::Dysta)
        .frontend(FrontendConfig {
            admit_batch: 60,
            ..FrontendConfig::default()
        })
        .build();
    let immediate = simulate_cluster(
        w.source(),
        &mut ClusterPolicy::from_dispatch(DispatchPolicy::RoundRobin),
        &immediate_pool,
        NullTracer,
    );
    let batched = simulate_cluster(
        w.source(),
        &mut ClusterPolicy::from_dispatch(DispatchPolicy::RoundRobin),
        &batched_pool,
        NullTracer,
    );
    assert!(batched.completed().all(|c| c.completion_ns >= last_arrival));
    assert!(batched.mean_admission_wait_ns() > 0.0);
    assert!(
        batched.antt() > immediate.antt(),
        "admission wait must show up in turnaround: batched {} vs immediate {}",
        batched.antt(),
        immediate.antt()
    );
}

#[test]
fn rejected_migration_candidates_do_not_charge_stateful_dispatchers() {
    use dysta_cluster::{DispatchContext, Dispatcher, RoundRobin};
    use dysta_workload::Request;

    // Round-robin that counts how often its mutable state is charged.
    struct CountingRoundRobin {
        inner: RoundRobin,
        dispatches: Rc<Cell<u64>>,
    }
    impl Dispatcher for CountingRoundRobin {
        fn name(&self) -> &str {
            "counting-round-robin"
        }
        fn peek(&self, request: &Request, ctx: &DispatchContext<'_>) -> usize {
            self.inner.peek(request, ctx)
        }
        fn dispatch(&mut self, request: &Request, ctx: &DispatchContext<'_>) -> usize {
            self.dispatches.set(self.dispatches.get() + 1);
            self.inner.dispatch(request, ctx)
        }
    }

    // CNN-only traffic on a heterogeneous pool under round-robin leaves
    // the Sanger half persistently behind (mismatch slowdown), so the
    // aggressive migration pass keeps evaluating candidates — most of
    // which it rejects.
    let w = workload(Scenario::MultiCnn, 12.0, 120, 7);
    let pool = ClusterBuilder::heterogeneous(2, 2, Policy::Dysta)
        .frontend(FrontendConfig {
            migration: Some(MigrationConfig {
                min_imbalance: 1.0,
                period_ns: 5_000_000,
                max_per_request: 2,
            }),
            ..FrontendConfig::default()
        })
        .build();
    let dispatches = Rc::new(Cell::new(0));
    let mut policy = ClusterPolicy::new(Box::new(CountingRoundRobin {
        inner: RoundRobin::new(),
        dispatches: Rc::clone(&dispatches),
    }));
    let report = simulate_cluster(w.source(), &mut policy, &pool, NullTracer);
    assert!(report.serving().migrations > 0, "pass must move something");
    // State is charged once per admitted request plus once per *applied*
    // migration; rejected re-offers go through the read-only peek path.
    assert_eq!(
        dispatches.get(),
        120 + report.serving().migrations,
        "rejected candidates must not advance the cursor"
    );
}

#[test]
fn admission_timer_bounds_queue_waits() {
    // A huge batch size with a Δt timer: every request waits at most Δt.
    let interval = 40_000_000u64;
    let w = workload(Scenario::MultiCnn, 12.0, 120, 7);
    let pool = ClusterBuilder::homogeneous(4, AcceleratorKind::EyerissV2, Policy::Dysta)
        .frontend(FrontendConfig {
            admit_batch: usize::MAX,
            admit_interval_ns: interval,
            ..FrontendConfig::default()
        })
        .build();
    let tracer = RingTracer::new(1 << 16);
    let report = simulate_cluster(
        w.source(),
        &mut ClusterPolicy::from_dispatch(DispatchPolicy::JoinShortestQueue),
        &pool,
        &tracer,
    );
    assert_eq!(report.completed_total(), 120);
    let waits = admission_waits(&tracer);
    assert_eq!(waits.len(), 120);
    assert!(waits.iter().all(|&wait| wait <= interval));
    assert!(report.mean_admission_wait_ns() > 0.0);
}

#[test]
fn identical_seeds_produce_identical_cluster_reports() {
    let w1 = mixed_workload(30.0, 150, 42);
    let w2 = mixed_workload(30.0, 150, 42);
    let pools = [
        ClusterConfig::heterogeneous(2, 2, Policy::Dysta),
        // The full serving stack (batching + stealing + migration) must
        // be just as deterministic as immediate dispatch.
        ClusterBuilder::heterogeneous(2, 2, Policy::Dysta)
            .frontend(FrontendConfig {
                admit_batch: 4,
                steal: Some(StealConfig::default()),
                migration: Some(MigrationConfig::default()),
                ..FrontendConfig::default()
            })
            .build(),
    ];
    for pool in &pools {
        for dispatch in DispatchPolicy::ALL {
            let a = simulate_cluster(
                w1.source(),
                &mut ClusterPolicy::from_dispatch(dispatch),
                pool,
                NullTracer,
            );
            let b = simulate_cluster(
                w2.source(),
                &mut ClusterPolicy::from_dispatch(dispatch),
                pool,
                NullTracer,
            );
            assert_eq!(a, b, "{dispatch}");
        }
    }
}

#[test]
fn every_dispatch_policy_serves_every_pool_shape() {
    let pools = [
        (
            ClusterConfig::homogeneous(4, AcceleratorKind::EyerissV2, Policy::Dysta),
            workload(Scenario::MultiCnn, 12.0, 120, 5),
        ),
        (
            ClusterConfig::homogeneous(5, AcceleratorKind::Sanger, Policy::Dysta),
            workload(Scenario::MultiAttNn, 150.0, 120, 5),
        ),
        (
            ClusterConfig::heterogeneous(2, 2, Policy::Dysta),
            mixed_workload(30.0, 120, 5),
        ),
    ];
    for (pool, w) in &pools {
        for dispatch in DispatchPolicy::ALL {
            let report = simulate_cluster(
                w.source(),
                &mut ClusterPolicy::from_dispatch(dispatch),
                pool,
                NullTracer,
            );
            assert_eq!(report.completed_total(), 120, "{dispatch}");
            // Exactly-once completion across the whole pool.
            let mut ids: Vec<u64> = report.completed().map(|c| c.id).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), 120, "{dispatch}: duplicated or lost requests");
            let routed: usize = report.nodes().iter().map(|n| n.routed).sum();
            assert_eq!(routed, 120);
            assert!(report.antt() >= 1.0, "{dispatch}");
            assert!((0.0..=1.0).contains(&report.violation_rate()));
            assert!(report.throughput_inf_s() > 0.0);
            assert!(report.load_imbalance() >= 1.0);
            assert!(report
                .per_node_utilization()
                .iter()
                .all(|u| (0.0..=1.0).contains(u)));
        }
    }
}

#[test]
fn informed_dispatch_beats_round_robin_on_homogeneous_pools() {
    // Seed-averaged at the paper's per-node operating points (3 samples/s
    // per CNN node, 30 samples/s per Sanger node) — the comparison the
    // bench sweep prints.
    let configs = [
        (Scenario::MultiCnn, AcceleratorKind::EyerissV2, 3.0),
        (Scenario::MultiAttNn, AcceleratorKind::Sanger, 30.0),
    ];
    let nodes = 4;
    for (scenario, kind, per_node_rate) in configs {
        let antt = |dispatch: DispatchPolicy| {
            let mut total = 0.0;
            for seed in 0..5u64 {
                let w = workload(
                    scenario,
                    per_node_rate * nodes as f64,
                    250,
                    seed * 7919 + 13,
                );
                let pool = ClusterConfig::homogeneous(nodes, kind, Policy::Dysta);
                total += simulate_cluster(
                    w.source(),
                    &mut ClusterPolicy::from_dispatch(dispatch),
                    &pool,
                    NullTracer,
                )
                .antt();
            }
            total / 5.0
        };
        let rr = antt(DispatchPolicy::RoundRobin);
        let jsq = antt(DispatchPolicy::JoinShortestQueue);
        let affinity = antt(DispatchPolicy::SparsityAffinity);
        assert!(jsq < rr, "{scenario:?}: jsq {jsq} vs rr {rr}");
        assert!(
            affinity < rr,
            "{scenario:?}: affinity {affinity} vs rr {rr}"
        );
    }
}

#[test]
fn affinity_wins_on_heterogeneous_pools() {
    // On a mixed Eyeriss+Sanger pool serving mixed traffic, family-aware
    // routing avoids the mismatch penalty that backlog-only policies
    // keep paying.
    let antt = |dispatch: DispatchPolicy| {
        let mut total = 0.0;
        for seed in 0..5u64 {
            // The bench sweep's operating point: 10 samples/s per node.
            let w = mixed_workload(40.0, 250, seed * 104_729 + 7);
            let pool = ClusterConfig::heterogeneous(2, 2, Policy::Dysta);
            total += simulate_cluster(
                w.source(),
                &mut ClusterPolicy::from_dispatch(dispatch),
                &pool,
                NullTracer,
            )
            .antt();
        }
        total / 5.0
    };
    let rr = antt(DispatchPolicy::RoundRobin);
    let affinity = antt(DispatchPolicy::SparsityAffinity);
    assert!(affinity < rr, "affinity {affinity} vs rr {rr}");
}

#[test]
fn mismatched_pool_pays_the_slowdown() {
    // The same CNN workload on an all-Sanger pool must turn around
    // slower than on an all-Eyeriss pool of the same size.
    let w = workload(Scenario::MultiCnn, 6.0, 100, 21);
    let native = ClusterConfig::homogeneous(2, AcceleratorKind::EyerissV2, Policy::Dysta);
    let foreign = ClusterConfig::homogeneous(2, AcceleratorKind::Sanger, Policy::Dysta);
    let native = simulate_cluster(
        w.source(),
        &mut ClusterPolicy::from_dispatch(DispatchPolicy::JoinShortestQueue),
        &native,
        NullTracer,
    );
    let foreign = simulate_cluster(
        w.source(),
        &mut ClusterPolicy::from_dispatch(DispatchPolicy::JoinShortestQueue),
        &foreign,
        NullTracer,
    );
    assert!(
        foreign.antt() > native.antt(),
        "foreign {} vs native {}",
        foreign.antt(),
        native.antt()
    );
}

#[test]
fn adding_nodes_improves_turnaround() {
    let w = workload(Scenario::MultiCnn, 12.0, 150, 31);
    let antt = |n: usize| {
        let pool = ClusterConfig::homogeneous(n, AcceleratorKind::EyerissV2, Policy::Dysta);
        simulate_cluster(
            w.source(),
            &mut ClusterPolicy::from_dispatch(DispatchPolicy::JoinShortestQueue),
            &pool,
            NullTracer,
        )
        .antt()
    };
    let two = antt(2);
    let eight = antt(8);
    assert!(eight < two, "8 nodes {eight} vs 2 nodes {two}");
}
