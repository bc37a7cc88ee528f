//! Property tests for fault injection and recovery: the conservation
//! invariant restated over admitted requests (`admitted == completed +
//! failed + reneged`, exactly once) holds under random crash schedules
//! across pool shapes × dispatchers × recovery settings, the
//! per-request retry budget is never exceeded, the traced event stream
//! obeys the health-ordering rules (no dispatch / steal / retry onto a
//! down node, salvage only after a crash), and an empty schedule is
//! bit-exact with a fault-free run.

use std::collections::HashSet;

use proptest::prelude::*;

use dysta_cluster::{
    simulate_cluster, AcceleratorKind, ClusterBuilder, ClusterConfig, ClusterPolicy,
    DispatchPolicy, FaultConfig, FaultSchedule, FrontendConfig, RecoveryConfig,
};
use dysta_core::Policy;
use dysta_obs::{EventKind, NullTracer, RingTracer};
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

fn pool(shape: u8, frontend: FrontendConfig, faults: FaultConfig) -> ClusterConfig {
    match shape {
        0 => ClusterBuilder::homogeneous(3, AcceleratorKind::EyerissV2, Policy::Dysta),
        1 => ClusterBuilder::heterogeneous(2, 2, Policy::Dysta),
        // The fig14 capacity-heterogeneous shape: one node per family
        // at half clock.
        _ => ClusterBuilder::heterogeneous(2, 2, Policy::Dysta)
            .node_capacity(1, 0.5)
            .node_capacity(3, 0.5),
    }
    .frontend(frontend)
    .faults(faults)
    .build()
}

fn num_nodes(shape: u8) -> usize {
    match shape {
        0 => 3,
        _ => 4,
    }
}

/// A 2-crash + 1-window schedule derived from three raw samples, kept
/// inside the span an overdriven 60-request stream occupies.
fn schedule(
    nodes: usize,
    crash_node: usize,
    crash_at: u64,
    transient: bool,
    window_node: usize,
    window_at: u64,
) -> FaultSchedule {
    let crash_node = crash_node % nodes;
    let window_node = window_node % nodes;
    let s = if transient {
        FaultSchedule::new().transient_crash(crash_node, crash_at, crash_at + 900_000_000)
    } else {
        FaultSchedule::new().crash(crash_node, crash_at)
    };
    s.brownout(window_node, window_at, window_at + 700_000_000, 0.5)
        .transfer_stall(window_node, window_at, window_at + 500_000_000, 3.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn conservation_holds_exactly_once_under_random_crash_schedules(
        seed in 0u64..500,
        shape in 0u8..3,
        dispatch in prop::sample::select(DispatchPolicy::ALL.to_vec()),
        crash_node in 0usize..4,
        crash_at in 100_000_000u64..3_000_000_000,
        transient in 0u8..2,
        window_node in 0usize..4,
        window_at in 100_000_000u64..2_000_000_000,
        salvage in 0u8..2,
        reneging in 0u8..2,
        max_retries in 0u32..3,
    ) {
        let (transient, salvage, reneging) = (transient == 1, salvage == 1, reneging == 1);
        let n = 60;
        // Overdriven so queues are deep when the crash lands.
        let w = workload(25.0, 2.0, n, seed);
        let faults = FaultConfig {
            schedule: schedule(
                num_nodes(shape), crash_node, crash_at, transient, window_node, window_at,
            ),
            recovery: RecoveryConfig { salvage, max_retries, reneging },
        };
        let mut policy = ClusterPolicy::from_dispatch(dispatch);
        let tracer = RingTracer::new(1 << 18);
        let report =
            simulate_cluster(w.source(), &mut policy, &pool(shape, FrontendConfig::serving(), faults), &tracer);
        prop_assert_eq!(tracer.dropped(), 0);

        // AdmitAll: everything offered is admitted, and every admitted
        // request resolves exactly one way.
        prop_assert_eq!(report.rejected_total(), 0);
        prop_assert_eq!(report.admitted_total(), n);
        prop_assert_eq!(
            report.admitted_total(),
            report.completed_total() + report.failed_total() + report.reneged_total(),
            "pool conservation broken"
        );
        // Per-node: routed + in − out − failed − reneged == completed.
        for node in report.nodes() {
            prop_assert_eq!(
                node.routed + node.transferred_in
                    - node.transferred_out
                    - node.failed
                    - node.reneged,
                node.report.completed().len(),
                "node {} accounting out of balance",
                node.node_id
            );
        }
        // The traced outcomes agree with the per-node counters, and the
        // three outcome id sets partition the stream.
        let recovery = report.recovery();
        prop_assert_eq!(tracer.kind_count(EventKind::Failed), report.failed_total() as u64);
        prop_assert_eq!(tracer.kind_count(EventKind::Renege), report.reneged_total() as u64);
        prop_assert!(recovery.retries <= recovery.salvaged);
        if !reneging {
            prop_assert_eq!(report.reneged_total(), 0);
        }
        let timelines = tracer.timelines();
        let completed: HashSet<u64> = report.completed().map(|c| c.id).collect();
        let failed: HashSet<u64> = timelines.iter().filter(|t| t.failed).map(|t| t.id).collect();
        let reneged: HashSet<u64> = timelines.iter().filter(|t| t.reneged).map(|t| t.id).collect();
        prop_assert_eq!(completed.len(), report.completed_total(), "duplicate completion");
        prop_assert_eq!(failed.len(), report.failed_total(), "duplicate failure");
        prop_assert_eq!(reneged.len(), report.reneged_total(), "duplicate renege");
        prop_assert!(completed.is_disjoint(&failed));
        prop_assert!(completed.is_disjoint(&reneged));
        prop_assert!(failed.is_disjoint(&reneged));
        let mut all: HashSet<u64> = completed;
        all.extend(&failed);
        all.extend(&reneged);
        prop_assert_eq!(all.len(), n, "an admitted request vanished");

        // Lost work is only ever attributed when something crashed, and
        // a failed or reneged request never counts toward goodput while
        // still widening its denominator.
        prop_assert!(recovery.crashes >= 1);
        prop_assert!(report.goodput() <= report.completed_total());
        prop_assert!((0.0..=1.0).contains(&report.goodput_rate()));
    }

    #[test]
    fn retry_budget_and_health_ordering_hold_in_the_traced_stream(
        seed in 0u64..500,
        dispatch in prop::sample::select(DispatchPolicy::ALL.to_vec()),
        max_retries in 0u32..3,
        first_crash in 200_000_000u64..900_000_000,
    ) {
        // Three staggered transient crashes of the same node: salvaged
        // work that flows back (or stays elsewhere) can be re-crashed,
        // driving requests through the retry budget.
        let w = workload(25.0, 2.0, 50, seed);
        let schedule = FaultSchedule::new()
            .transient_crash(0, first_crash, first_crash + 400_000_000)
            .transient_crash(0, first_crash + 700_000_000, first_crash + 1_000_000_000)
            .crash(1, first_crash + 500_000_000);
        let faults = FaultConfig {
            schedule,
            recovery: RecoveryConfig { salvage: true, max_retries, reneging: false },
        };
        let tracer = RingTracer::new(1 << 18);
        let mut policy = ClusterPolicy::from_dispatch(dispatch);
        let report = simulate_cluster(w.source(), &mut policy, &pool(0, FrontendConfig::serving(), faults), &tracer);
        // The stream obeys the health-ordering rules: no dispatch,
        // steal, migration, or retry onto a down node, salvage only
        // after a crash, no completion after a renege or failure.
        prop_assert!(tracer.validate().is_ok(), "{:?}", tracer.validate());

        // Retry events per request never exceed the configured budget.
        let mut retries = std::collections::HashMap::new();
        for e in tracer.events() {
            if e.kind == EventKind::Retry {
                *retries.entry(e.request).or_insert(0u32) += 1;
            }
        }
        for (id, count) in retries {
            prop_assert!(
                count <= max_retries,
                "request {} retried {} times, budget {}",
                id, count, max_retries
            );
        }
        prop_assert_eq!(
            report.admitted_total(),
            report.completed_total() + report.failed_total() + report.reneged_total()
        );
    }

    #[test]
    fn empty_schedule_is_bit_exact_with_a_fault_free_run(
        seed in 0u64..500,
        shape in 0u8..3,
        dispatch in prop::sample::select(DispatchPolicy::ALL.to_vec()),
        serving in 0u8..2,
    ) {
        let w = workload(12.0, 5.0, 40, seed);
        let frontend = if serving == 1 {
            FrontendConfig::serving()
        } else {
            FrontendConfig::default()
        };
        let mut policy = ClusterPolicy::from_dispatch(dispatch);
        let baseline =
            simulate_cluster(w.source(), &mut policy, &pool(shape, frontend, FaultConfig::default()), NullTracer);
        // An explicitly-constructed empty schedule with salvage armed
        // takes no code path the fault-free run does not.
        let armed = FaultConfig {
            schedule: FaultSchedule::new(),
            recovery: RecoveryConfig { salvage: true, max_retries: 5, reneging: false },
        };
        let mut policy = ClusterPolicy::from_dispatch(dispatch);
        let with_faults = simulate_cluster(w.source(), &mut policy, &pool(shape, frontend, armed), NullTracer);
        prop_assert_eq!(baseline, with_faults);
    }
}

const MS: u64 = 1_000_000;

/// Runs a traced 2-node round-robin serving pool (steals and migrations
/// on) over 80 MultiCnn requests at 20/s — arrivals span ~4 s, past
/// every fault edge the tests below schedule.
fn traced_two_node_run(schedule: FaultSchedule) -> RingTracer {
    let w = workload(20.0, 5.0, 80, 1);
    let faults = FaultConfig {
        schedule,
        recovery: RecoveryConfig::default(),
    };
    let config = ClusterBuilder::homogeneous(2, AcceleratorKind::EyerissV2, Policy::Dysta)
        .frontend(FrontendConfig::serving())
        .faults(faults)
        .build();
    let tracer = RingTracer::new(1 << 16);
    let mut policy = ClusterPolicy::from_dispatch(DispatchPolicy::RoundRobin);
    let report = simulate_cluster(w.source(), &mut policy, &config, &tracer);
    assert!(tracer.validate().is_ok(), "{:?}", tracer.validate());
    assert_eq!(
        report.admitted_total(),
        report.completed_total() + report.failed_total() + report.reneged_total()
    );
    tracer
}

/// `(t_ns, factor_ppm, until_ns)` of every `kind` window edge on
/// `node`.
fn window_edges(tracer: &RingTracer, kind: EventKind, node: u32) -> Vec<(u64, u64, i64)> {
    tracer
        .events()
        .iter()
        .filter(|e| e.kind == kind && e.node == node)
        .map(|e| (e.t_ns, e.a, e.b))
        .collect()
}

/// Work landing on `node` at or after `from_ns`: dispatches, steals
/// and retries onto it, and migrations accepted towards it.
fn work_onto(tracer: &RingTracer, node: u32, from_ns: u64) -> Vec<(u64, EventKind)> {
    tracer
        .events()
        .iter()
        .filter(|e| e.t_ns >= from_ns)
        .filter(|e| match e.kind {
            EventKind::Dispatch | EventKind::Steal | EventKind::Retry => e.node == node,
            EventKind::MigrationAccept => e.a == u64::from(node),
            _ => false,
        })
        .map(|e| (e.t_ns, e.kind))
        .collect()
}

#[test]
fn touching_windows_listed_in_reverse_hand_over_without_a_closing_edge() {
    // Brown-outs on node 0 and transfer stalls on node 1, each pair
    // touching at 500 ms and listed later window first. At 500 ms the
    // later window's opening edge applies before the earlier window's
    // closing edge, and that closing edge no longer matches the open
    // window: exactly one edge, carrying the second window's factor.
    let schedule = FaultSchedule::new()
        .brownout(0, 500 * MS, 1000 * MS, 0.25)
        .brownout(0, 100 * MS, 500 * MS, 0.5)
        .transfer_stall(1, 500 * MS, 1000 * MS, 4.0)
        .transfer_stall(1, 100 * MS, 500 * MS, 2.0);
    let tracer = traced_two_node_run(schedule);
    assert_eq!(
        window_edges(&tracer, EventKind::Brownout, 0),
        vec![
            (100 * MS, 500_000, (500 * MS) as i64),
            (500 * MS, 250_000, (1000 * MS) as i64),
            (1000 * MS, 1_000_000, 0),
        ]
    );
    assert_eq!(
        window_edges(&tracer, EventKind::TransferStall, 1),
        vec![
            (100 * MS, 2_000_000, (500 * MS) as i64),
            (500 * MS, 4_000_000, (1000 * MS) as i64),
            (1000 * MS, 1_000_000, 0),
        ]
    );
}

#[test]
fn overlapping_brownout_and_stall_on_one_node_trace_as_distinct_kinds() {
    // A stall [200, 600) ms nested in a brown-out [100, 800) ms on node
    // 0. The stall's closing edge must not read as a brown-out ending
    // while the brown-out is still open: each kind lists only its own
    // edges.
    let schedule = FaultSchedule::new()
        .brownout(0, 100 * MS, 800 * MS, 0.5)
        .transfer_stall(0, 200 * MS, 600 * MS, 3.0);
    let tracer = traced_two_node_run(schedule);
    assert_eq!(
        window_edges(&tracer, EventKind::Brownout, 0),
        vec![
            (100 * MS, 500_000, (800 * MS) as i64),
            (800 * MS, 1_000_000, 0),
        ]
    );
    assert_eq!(
        window_edges(&tracer, EventKind::TransferStall, 0),
        vec![
            (200 * MS, 3_000_000, (600 * MS) as i64),
            (600 * MS, 1_000_000, 0),
        ]
    );
    assert!(window_edges(&tracer, EventKind::Brownout, 1).is_empty());
    assert!(window_edges(&tracer, EventKind::TransferStall, 1).is_empty());
}

#[test]
fn permanent_crash_inside_a_transient_outage_keeps_the_node_down() {
    let schedule = FaultSchedule::new()
        .transient_crash(0, 100 * MS, 2000 * MS)
        .crash(0, 500 * MS);
    let tracer = traced_two_node_run(schedule);
    let ups = tracer
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::NodeUp && e.node == 0)
        .count();
    assert_eq!(ups, 0, "a permanently crashed node came back");
    assert_eq!(work_onto(&tracer, 0, 100 * MS), vec![]);
    assert!(!work_onto(&tracer, 1, 100 * MS).is_empty());
}

#[test]
fn nested_shorter_transient_crash_does_not_revive_the_node_early() {
    // A 200–300 ms transient crash inside a 100–2000 ms one: the node
    // stays down until the later recovery.
    let schedule = FaultSchedule::new()
        .transient_crash(0, 100 * MS, 2000 * MS)
        .transient_crash(0, 200 * MS, 300 * MS);
    let tracer = traced_two_node_run(schedule);
    let ups: Vec<u64> = tracer
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::NodeUp && e.node == 0)
        .map(|e| e.t_ns)
        .collect();
    assert_eq!(ups, vec![2000 * MS]);
    let early: Vec<_> = work_onto(&tracer, 0, 100 * MS)
        .into_iter()
        .filter(|&(t, _)| t < 2000 * MS)
        .collect();
    assert_eq!(early, vec![], "work landed on node 0 during its outage");
    assert!(!work_onto(&tracer, 0, 2000 * MS).is_empty());
}
