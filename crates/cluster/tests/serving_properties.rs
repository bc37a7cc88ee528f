//! Property tests for the serving front-end's mechanics: conservation
//! (every admitted request completes exactly once regardless of how it
//! is batched, stolen, or migrated), the migration cap, and the
//! node-level stealing invariants (started tasks are never stolen; a
//! steal strictly shrinks the victim's queue).

use proptest::prelude::*;

use dysta_cluster::{
    simulate_cluster, AcceleratorKind, ClusterBuilder, ClusterConfig, ClusterPolicy, ClusterReport,
    DispatchPolicy, FrontendConfig, MigrationConfig, StealConfig,
};
use dysta_core::{ModelInfoLut, Policy};
use dysta_obs::{NullTracer, RingTracer};
use dysta_sim::{EngineConfig, NodeEngine};
use dysta_workload::{Scenario, Workload, WorkloadBuilder};

fn workload(scenario: Scenario, rate: f64, n: usize, seed: u64) -> Workload {
    WorkloadBuilder::new(scenario)
        .arrival_rate(rate)
        .num_requests(n)
        .samples_per_variant(4)
        .seed(seed)
        .build()
}

fn pool(shape: u8, frontend: FrontendConfig) -> ClusterConfig {
    match shape {
        0 => ClusterBuilder::homogeneous(3, AcceleratorKind::EyerissV2, Policy::Dysta),
        1 => ClusterBuilder::homogeneous(2, AcceleratorKind::Sanger, Policy::Sjf),
        _ => ClusterBuilder::heterogeneous(2, 2, Policy::Dysta),
    }
    .frontend(frontend)
    .build()
}

fn scenario_for(shape: u8) -> Scenario {
    // Keep traffic plausible for the pool so both halves see load.
    match shape {
        1 => Scenario::MultiAttNn,
        _ => Scenario::MultiCnn,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_admitted_request_completes_exactly_once_across_steals_and_migrations(
        seed in 0u64..1_000,
        shape in 0u8..3,
        dispatch in prop::sample::select(DispatchPolicy::ALL.to_vec()),
        batch in 1usize..9,
        steal_threshold in 1.0f64..3.0,
        max_migrations in 0u32..4,
    ) {
        let n = 60;
        let w = workload(scenario_for(shape), 9.0, n, seed);
        let frontend = FrontendConfig {
            admit_batch: batch,
            admit_interval_ns: 25_000_000,
            steal: Some(StealConfig {
                min_imbalance: steal_threshold,
                period_ns: 7_000_000,
            }),
            migration: Some(MigrationConfig {
                min_imbalance: steal_threshold,
                period_ns: 13_000_000,
                max_per_request: max_migrations,
            }),
            ..FrontendConfig::default()
        };
        let tracer = RingTracer::new(1 << 16);
        let report = simulate_cluster(w.source(), &mut ClusterPolicy::from_dispatch(dispatch), &pool(shape, frontend), &tracer);
        prop_assert_eq!(tracer.dropped(), 0);

        // Conservation: exactly-once completion across the whole pool,
        // no matter how often requests moved.
        prop_assert_eq!(report.completed_total(), n);
        let mut ids: Vec<u64> = report.completed().map(|c| c.id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), n, "duplicated or lost requests");
        // Completions stay causal and metrics well-formed.
        for c in report.completed() {
            prop_assert!(c.completion_ns >= c.arrival_ns);
        }
        prop_assert!(report.antt() >= 1.0);

        // Per-node accounting balances: requests initially dispatched
        // plus transfers in minus transfers out is exactly what each
        // node completed, and the transfer totals match the pass
        // counters.
        let moved = (report.serving().steals + report.serving().migrations) as usize;
        prop_assert_eq!(
            report.nodes().iter().map(|n| n.transferred_in).sum::<usize>(),
            moved
        );
        prop_assert_eq!(
            report
                .nodes()
                .iter()
                .map(|n| n.transferred_out)
                .sum::<usize>(),
            moved
        );
        for node in report.nodes() {
            prop_assert_eq!(
                node.routed + node.transferred_in - node.transferred_out,
                node.report.completed().len(),
                "node {} accounting out of balance",
                node.node_id
            );
        }

        // The migration cap is a hard bound on every single request.
        prop_assert!(
            report.serving().max_migrations_single_request <= max_migrations,
            "cap {} exceeded: {}",
            max_migrations,
            report.serving().max_migrations_single_request
        );
        if max_migrations == 0 {
            prop_assert_eq!(report.serving().migrations, 0);
        }

        // Admission waits exist for every request and respect the timer.
        let waits: Vec<u64> = tracer
            .timelines()
            .iter()
            .filter_map(|t| Some(t.admitted_ns? - t.arrival_ns?))
            .collect();
        prop_assert_eq!(waits.len(), n);
        prop_assert!(waits.iter().all(|&wait| wait <= 25_000_000));
    }

    #[test]
    fn steal_never_takes_a_started_task_and_strictly_shrinks_the_source_queue(
        seed in 0u64..1_000,
        barrier_index in 5usize..25,
    ) {
        // Node-level invariant behind the cluster steal pass, exercised
        // directly on the NodeEngine surface the front-end uses.
        let w = workload(Scenario::MultiCnn, 15.0, 30, seed);
        let lut = ModelInfoLut::from_store(w.store());
        let mut node: NodeEngine =
            NodeEngine::new(0, Policy::Dysta.build(), EngineConfig::default(), &lut);
        let barrier = w.requests()[barrier_index].arrival_ns;
        for req in w.requests().iter().take_while(|r| r.arrival_ns < barrier) {
            node.run_until(req.arrival_ns);
            node.enqueue(req, w.trace_for(req), 1.0, req.arrival_ns);
        }
        node.run_until(barrier);

        let started: Vec<u64> = node
            .queued_tasks()
            .filter(|(t, _)| t.started())
            .map(|(t, _)| t.id)
            .collect();
        let unstarted: Vec<u64> = node.unstarted_tasks().map(|(t, _)| t.id).collect();

        // Started tasks are never stealable.
        for id in started {
            let before = node.queue_len();
            prop_assert!(node.take_unstarted(id).is_none());
            prop_assert_eq!(node.queue_len(), before, "failed steal must not change the queue");
        }
        // Every successful steal shrinks the queue by exactly one and
        // yields an unstarted task.
        for id in unstarted {
            let before = node.queue_len();
            let taken = node.take_unstarted(id);
            prop_assert!(taken.is_some());
            let taken = taken.unwrap();
            prop_assert!(!taken.task().started());
            prop_assert_eq!(taken.task().id, id);
            prop_assert_eq!(node.queue_len(), before - 1);
        }
    }
}

/// 20 MultiCnn requests on a 2-node Eyeriss-V2 pool under `frontend`.
fn clock_edge_run(rate: f64, n: usize, frontend: FrontendConfig) -> ClusterReport {
    let w = workload(Scenario::MultiCnn, rate, n, 7);
    let config = ClusterBuilder::homogeneous(2, AcceleratorKind::EyerissV2, Policy::Dysta)
        .frontend(frontend)
        .build();
    simulate_cluster(
        w.source(),
        &mut ClusterPolicy::from_dispatch(DispatchPolicy::JoinShortestQueue),
        &config,
        NullTracer,
    )
}

#[test]
fn admission_timer_past_the_clock_end_never_fires() {
    // `arrival + u64::MAX` lies past the end of the clock: the timer
    // stays unset, so the final partial batch flushes at its newest
    // arrival, exactly as with the timer disabled.
    let batched = |admit_interval_ns| FrontendConfig {
        admit_batch: 4,
        admit_interval_ns,
        ..FrontendConfig::default()
    };
    let report = clock_edge_run(3.0, 20, batched(u64::MAX));
    assert_eq!(report.completed_total(), 20);
    assert_eq!(report, clock_edge_run(3.0, 20, batched(0)));
}

#[test]
fn tick_past_the_clock_end_stops_rearming() {
    // The first steal tick lands at `u64::MAX`: it runs every node to
    // completion, finds nothing to steal, and its re-arm would lie past
    // the end of the clock, so the tick stops instead of wrapping. The
    // run is the one without stealing.
    let report = clock_edge_run(
        3.0,
        20,
        FrontendConfig {
            steal: Some(StealConfig {
                period_ns: u64::MAX,
                ..StealConfig::costed()
            }),
            ..FrontendConfig::default()
        },
    );
    assert_eq!(report.completed_total(), 20);
    assert_eq!(report, clock_edge_run(3.0, 20, FrontendConfig::default()));
}

#[test]
fn work_dispatched_at_the_clock_end_saturates_the_node_clock() {
    // At 1e12 req/s every arrival rounds to t = 0, so the last partial
    // batch (22 = 5 x 4 + 2) waits for its timer at `0 + u64::MAX`. Its
    // requests start at the end of the clock: the node clock saturates
    // there instead of overflowing, and each request completes once.
    let report = clock_edge_run(
        1e12,
        22,
        FrontendConfig {
            admit_batch: 4,
            admit_interval_ns: u64::MAX,
            ..FrontendConfig::default()
        },
    );
    assert_eq!(report.completed_total(), 22);
    assert_eq!(
        report.admitted_total(),
        report.completed_total() + report.failed_total() + report.reneged_total()
    );
    assert!(report.completed().any(|c| c.completion_ns == u64::MAX));
    // Two requests wait `u64::MAX`: the mean neither overflows nor wraps.
    assert_eq!(
        report.mean_admission_wait_ns(),
        2.0 * u64::MAX as f64 / 22.0
    );
}
