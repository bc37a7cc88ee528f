//! Property tests for admission control: rejected requests never enter
//! the pool (no completion, no transfer can involve them), the serving
//! conservation invariant restated over *admitted* requests holds
//! across pool shapes × dispatchers × steal/migration settings, the
//! default `AdmitAll` bundle is bit-exact with the admission-free
//! engine, and the `u64::MAX` no-deadline sentinel never reads as a
//! missed deadline or gets a deadline-free request rejected.

use std::collections::HashSet;

use proptest::prelude::*;

use dysta_cluster::{
    simulate_cluster, AcceleratorKind, AdmitAll, ClusterBuilder, ClusterConfig, ClusterPolicy,
    DispatchPolicy, FrontendConfig, InfeasibleEverywhere, JoinShortestQueue, SlackLoadShedding,
};
use dysta_core::Policy;
use dysta_obs::{EventKind, NullTracer, RingTracer};
use dysta_workload::{Request, Scenario, Workload, WorkloadBuilder};

/// The ids of the requests the traced run rejected, ascending.
fn traced_rejections(tracer: &RingTracer) -> Vec<u64> {
    assert_eq!(tracer.dropped(), 0, "the ring must hold the whole run");
    tracer
        .timelines()
        .iter()
        .filter(|t| t.rejected)
        .map(|t| t.id)
        .collect()
}

fn workload(rate: f64, slo: f64, n: usize, seed: u64) -> Workload {
    WorkloadBuilder::new(Scenario::MultiCnn)
        .arrival_rate(rate)
        .slo_multiplier(slo)
        .num_requests(n)
        .samples_per_variant(4)
        .seed(seed)
        .build()
}

fn pool(shape: u8, frontend: FrontendConfig) -> ClusterConfig {
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
    .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn rejected_requests_never_complete_and_admission_conserves(
        seed in 0u64..500,
        shape in 0u8..3,
        dispatch in prop::sample::select(DispatchPolicy::ALL.to_vec()),
        serving in 0u8..2,
        batch in 1usize..6,
        slo in 1.5f64..4.0,
        shed in 0u8..2,
    ) {
        let (serving, shed) = (serving == 1, shed == 1);
        let n = 60;
        // Tight SLOs at an overdriven rate so real rejections happen.
        let w = workload(18.0, slo, n, seed);
        let frontend = FrontendConfig {
            admit_batch: batch,
            admit_interval_ns: 25_000_000,
            ..if serving {
                FrontendConfig::serving()
            } else {
                FrontendConfig::default()
            }
        };
        let mut policy = ClusterPolicy::from_dispatch(dispatch).with_admission(if shed {
            Box::new(SlackLoadShedding::new())
        } else {
            Box::new(InfeasibleEverywhere::new())
        });
        let tracer = RingTracer::new(1 << 16);
        let report = simulate_cluster(w.source(), &mut policy, &pool(shape, frontend), &tracer);
        let rejections = traced_rejections(&tracer);

        let rejected = report.rejected_total();
        let admitted = report.admitted_total();
        let degraded = report.degraded_total();

        // Every offered request is either admitted or rejected, and the
        // serving stats agree with the per-node counters.
        prop_assert_eq!(admitted + rejected, n);
        prop_assert_eq!(rejections.len(), rejected);
        prop_assert_eq!(tracer.kind_count(EventKind::AdmitReject), rejected as u64);
        prop_assert_eq!(report.serving().degraded_slo_ns.len(), degraded);
        prop_assert!(degraded <= admitted);

        // admitted == routed == completed: what the front-end let in is
        // exactly what the pool served, exactly once.
        prop_assert_eq!(report.completed_total(), admitted);
        let completed_ids: HashSet<u64> = report.completed().map(|c| c.id).collect();
        prop_assert_eq!(completed_ids.len(), admitted, "duplicate completion");

        // A rejected request appears in no node's completions...
        for id in &rejections {
            prop_assert!(
                !completed_ids.contains(id),
                "rejected request {} completed",
                id
            );
        }
        // ...and no transfer can have involved one: transfers only move
        // requests queued on nodes, and the counters balance exactly
        // over admitted work.
        let moved = (report.serving().steals + report.serving().migrations) as usize;
        prop_assert_eq!(
            report.nodes().iter().map(|nd| nd.transferred_in).sum::<usize>(),
            moved
        );
        prop_assert_eq!(
            report.nodes().iter().map(|nd| nd.transferred_out).sum::<usize>(),
            moved
        );
        // The conservation invariant, restated over admitted requests.
        for node in report.nodes() {
            prop_assert_eq!(
                node.routed + node.transferred_in - node.transferred_out,
                node.report.completed().len(),
                "node {} accounting out of balance",
                node.node_id
            );
        }

        // One admission-wait sample per admitted request, none for the
        // rejected ones.
        let timelines = tracer.timelines();
        prop_assert_eq!(
            timelines.iter().filter(|t| t.admitted_ns.is_some()).count(),
            admitted
        );
        prop_assert!(timelines
            .iter()
            .all(|t| !(t.rejected && t.admitted_ns.is_some())));

        // Goodput counts a subset of completions and the rate is a
        // well-formed fraction of offered work.
        prop_assert!(report.goodput() <= report.completed_total());
        prop_assert!((0.0..=1.0).contains(&report.goodput_rate()));
    }

    #[test]
    fn default_admit_all_bundle_is_bit_exact_with_simulate_cluster(
        seed in 0u64..500,
        dispatch in prop::sample::select(DispatchPolicy::ALL.to_vec()),
    ) {
        let w = workload(12.0, 5.0, 40, seed);
        let config = pool(1, FrontendConfig::serving());
        // An explicit `AdmitAll` is the default bundle's admission.
        let mut default = ClusterPolicy::from_dispatch(dispatch);
        let direct = simulate_cluster(w.source(), &mut default, &config, NullTracer);
        let mut bundle =
            ClusterPolicy::from_dispatch(dispatch).with_admission(Box::new(AdmitAll::new()));
        let with_policy = simulate_cluster(w.source(), &mut bundle, &config, NullTracer);
        prop_assert_eq!(direct, with_policy);
    }
}

/// Re-tags every `stride`-th request as deadline-free (`slo_ns ==
/// u64::MAX`), keeping arrival order and dense ids.
fn with_deadline_free_mix(w: &Workload, stride: usize) -> Workload {
    let requests: Vec<Request> = w
        .requests()
        .iter()
        .map(|r| {
            if (r.id as usize).is_multiple_of(stride) {
                Request {
                    slo_ns: u64::MAX,
                    ..*r
                }
            } else {
                *r
            }
        })
        .collect();
    Workload::from_parts(requests, w.store().clone())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn all_deadline_free_requests_complete_without_violations(
        seed in 0u64..200,
    ) {
        // Every request deadline-free: the u64::MAX no-deadline sentinel
        // must never read as a missed deadline, on any node.
        let w = with_deadline_free_mix(&workload(18.0, 3.0, 30, seed), 1);
        let mut jsq = ClusterPolicy::new(Box::new(JoinShortestQueue::new()));
        let config = pool(0, FrontendConfig::default());
        let report = simulate_cluster(w.source(), &mut jsq, &config, NullTracer);
        prop_assert_eq!(report.completed_total(), 30);
        prop_assert_eq!(report.violation_rate(), 0.0);
    }

    #[test]
    fn infeasible_everywhere_never_rejects_deadline_free_requests(
        seed in 0u64..200,
        stride in 1usize..4,
    ) {
        // Deadline-free requests always project positive slack, so the
        // reject-doomed policy must admit them no matter how overdriven
        // the pool is.
        let w = with_deadline_free_mix(&workload(24.0, 1.5, 40, seed), stride);
        let mut policy = ClusterPolicy::from_dispatch(DispatchPolicy::EarliestDeadlineFirst)
            .with_admission(Box::new(InfeasibleEverywhere::new()));
        let tracer = RingTracer::new(1 << 16);
        let report = simulate_cluster(w.source(), &mut policy, &pool(2, FrontendConfig::default()), &tracer);
        let rejections = traced_rejections(&tracer);
        prop_assert_eq!(rejections.len(), report.rejected_total());
        let free_ids: HashSet<u64> = w
            .requests()
            .iter()
            .filter(|r| r.slo_ns == u64::MAX)
            .map(|r| r.id)
            .collect();
        for id in &rejections {
            prop_assert!(!free_ids.contains(id), "deadline-free request {} rejected", id);
        }
        // Deadline-free completions can never violate.
        let completed_free_violations = report
            .completed()
            .filter(|c| free_ids.contains(&c.id))
            .filter(|c| c.violated())
            .count();
        prop_assert_eq!(completed_free_violations, 0);
    }
}
