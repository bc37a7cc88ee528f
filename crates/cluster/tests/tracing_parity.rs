//! Tracing must *observe* a cluster run, never perturb it: a traced
//! run's report is identical to the untraced run's, the recorded event
//! stream is well-formed and consistent with the report's own counters,
//! and two identical traced runs export byte-identical Perfetto JSON.

use dysta_cluster::{
    simulate_cluster, ClusterBuilder, ClusterConfig, ClusterPolicy, DispatchPolicy, FrontendConfig,
    MigrationConfig, StealConfig, TransferCostConfig,
};
use dysta_core::Policy;
use dysta_obs::{EventKind, NullTracer, RingTracer, NODE_FRONTEND};
use dysta_workload::{Scenario, Workload, WorkloadBuilder};

fn serving_workload(seed: u64) -> Workload {
    WorkloadBuilder::new(Scenario::MultiCnn)
        .arrival_rate(9.0)
        .num_requests(60)
        .samples_per_variant(4)
        .seed(seed)
        .build()
}

/// A pool busy enough to exercise steals and migrations.
fn serving_pool() -> ClusterConfig {
    ClusterBuilder::heterogeneous(2, 2, Policy::Dysta)
        .frontend(FrontendConfig {
            admit_batch: 4,
            admit_interval_ns: 25_000_000,
            steal: Some(StealConfig {
                min_imbalance: 1.2,
                period_ns: 7_000_000,
            }),
            migration: Some(MigrationConfig {
                min_imbalance: 1.2,
                period_ns: 13_000_000,
                max_per_request: 2,
            }),
            ..FrontendConfig::default()
        })
        .transfer_cost(TransferCostConfig::default_costed())
        .build()
}

#[test]
fn traced_run_report_is_identical_to_untraced() {
    let w = serving_workload(11);
    let pool = serving_pool();
    let mut a = ClusterPolicy::from_dispatch(DispatchPolicy::LeastLoaded);
    let mut b = ClusterPolicy::from_dispatch(DispatchPolicy::LeastLoaded);
    let untraced = simulate_cluster(w.source(), &mut a, &pool, NullTracer);
    let tracer = RingTracer::new(1 << 16);
    let traced = simulate_cluster(w.source(), &mut b, &pool, &tracer);
    assert_eq!(untraced, traced, "tracing perturbed the run");
    assert!(!tracer.is_empty());
}

#[test]
fn trace_counters_match_report_counters() {
    let w = serving_workload(12);
    let pool = serving_pool();
    let mut policy = ClusterPolicy::from_dispatch(DispatchPolicy::EarliestDeadlineFirst);
    let tracer = RingTracer::new(1 << 16);
    let report = simulate_cluster(w.source(), &mut policy, &pool, &tracer);
    assert_eq!(tracer.dropped(), 0, "ring too small for this scenario");

    // Event counters line up with what the report says happened.
    assert_eq!(tracer.kind_count(EventKind::Arrival), 60);
    assert_eq!(
        tracer.kind_count(EventKind::Completion) as usize,
        report.completed_total()
    );
    assert_eq!(
        tracer.kind_count(EventKind::AdmitReject) as usize,
        report.rejected_total()
    );
    assert_eq!(
        tracer.kind_count(EventKind::AdmitDegrade) as usize,
        report.degraded_total()
    );
    assert_eq!(
        tracer.kind_count(EventKind::Admit) + tracer.kind_count(EventKind::AdmitDegrade),
        report.admitted_total() as u64
    );
    assert_eq!(tracer.kind_count(EventKind::Steal), report.serving().steals);
    assert_eq!(
        tracer.kind_count(EventKind::MigrationAccept),
        report.serving().migrations
    );
    // Every offer either lands or is rejected.
    assert_eq!(
        tracer.kind_count(EventKind::MigrationOffer),
        tracer.kind_count(EventKind::MigrationAccept)
            + tracer.kind_count(EventKind::MigrationReject)
    );

    // The per-request timelines replay the run and pass validation.
    tracer.validate().expect("well-formed event stream");
    let timelines = tracer.timelines();
    assert_eq!(timelines.len(), 60, "one timeline per offered request");
    for tl in &timelines {
        if tl.rejected {
            assert_eq!(tl.segments, 0);
            assert!(tl.completion_ns.is_none());
        } else {
            assert!(tl.completion_ns.is_some(), "request {} unfinished", tl.id);
            assert!(tl.segments >= 1);
        }
    }

    // The trace records each admitted request's wait (rejects never
    // dispatch), and the waits sum to the report's total.
    let waits: u128 = timelines
        .iter()
        .filter_map(|tl| Some(u128::from(tl.admitted_ns? - tl.arrival_ns?)))
        .sum();
    assert_eq!(waits, report.serving().admission_wait_total_ns);
}

#[test]
fn identical_traced_runs_export_byte_identical_perfetto_json() {
    let w = serving_workload(13);
    let pool = serving_pool();
    let export = |seed_policy: DispatchPolicy| {
        let mut policy = ClusterPolicy::from_dispatch(seed_policy);
        let tracer = RingTracer::new(1 << 16);
        simulate_cluster(w.source(), &mut policy, &pool, &tracer);
        tracer.perfetto_json()
    };
    let one = export(DispatchPolicy::LeastLoaded);
    let two = export(DispatchPolicy::LeastLoaded);
    assert_eq!(one, two, "trace export is not deterministic");
    // Sanity: the export names the frontend track and parses back.
    assert!(one.contains("\"traceEvents\""));
    serde_json::from_str(&one).expect("export parses");
}

#[test]
fn frontend_events_use_the_frontend_pseudo_node() {
    let w = serving_workload(14);
    let pool = serving_pool();
    let mut policy = ClusterPolicy::from_dispatch(DispatchPolicy::LeastLoaded);
    let tracer = RingTracer::new(1 << 16);
    simulate_cluster(w.source(), &mut policy, &pool, &tracer);
    for e in tracer.events() {
        match e.kind {
            EventKind::Arrival => assert_eq!(e.node, NODE_FRONTEND),
            EventKind::Segment | EventKind::Preemption | EventKind::Completion => {
                assert!(e.node != NODE_FRONTEND, "execution on the frontend?")
            }
            _ => {}
        }
    }
}

/// The three `#[doc(hidden)]` forwards the benchmark harness still calls
/// reproduce `simulate_cluster` bit for bit — report and event stream —
/// on a costed, faulted pool that steals and migrates.
#[test]
fn legacy_forwards_match_simulate_cluster() {
    use dysta_cluster::{
        simulate_cluster_stream, simulate_cluster_stream_with, simulate_cluster_traced,
        FaultConfig, FaultSchedule, RecoveryConfig,
    };

    let w = serving_workload(11);
    let mut pool = serving_pool();
    pool.faults = FaultConfig {
        schedule: FaultSchedule::new()
            .transient_crash(0, 1_500_000_000, 2_500_000_000)
            .brownout(2, 800_000_000, 2_000_000_000, 0.5),
        recovery: RecoveryConfig {
            salvage: true,
            max_retries: 2,
            reneging: true,
        },
    };
    let dispatch = DispatchPolicy::LeastLoaded;
    let policy = || ClusterPolicy::from_dispatch(dispatch);

    let expected = simulate_cluster(w.source(), &mut policy(), &pool, NullTracer);
    let serving = expected.serving();
    assert!(serving.steals > 0 && serving.migrations > 0);
    assert!(serving.recovery.crashes > 0 && serving.recovery.salvaged > 0);
    assert!(expected.total_transfer_cost_ns() > 0);

    let stream = simulate_cluster_stream(w.source(), dispatch.build().as_mut(), &pool);
    assert_eq!(stream, expected);
    let stream_with = simulate_cluster_stream_with(w.source(), &mut policy(), &pool);
    assert_eq!(stream_with, expected);

    let direct = RingTracer::new(1 << 16);
    let forwarded = RingTracer::new(1 << 16);
    assert_eq!(
        simulate_cluster(w.source(), &mut policy(), &pool, &direct),
        expected
    );
    assert_eq!(
        simulate_cluster_traced(&w, &mut policy(), &pool, &forwarded),
        expected
    );
    assert_eq!(direct.dropped(), 0, "ring too small for this scenario");
    assert_eq!(forwarded.events(), direct.events());
    assert_eq!(forwarded.labels(), direct.labels());
    assert_eq!(forwarded.node_names(), direct.node_names());
}
