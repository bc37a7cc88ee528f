//! The event loop.

use dysta_core::{ModelInfoLut, Scheduler};
use dysta_obs::{EventKind, NullTracer, TraceEvent, Tracer, NODE_FRONTEND};
use dysta_trace::SparseModelSpec;
use dysta_workload::Workload;

use crate::node::NodeEngine;
use crate::report::SimReport;

/// Engine parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Cost of switching the accelerator to a *different* request than
    /// the one that ran last (weight/activation refetch across the
    /// off-chip boundary). The paper's penalty term exists to bound how
    /// often this is paid.
    pub preemption_overhead_ns: u64,
    /// Scheduling granularity: how many consecutive layers of the chosen
    /// request execute before the scheduler is consulted again. The
    /// paper's execution model is "per-layer or per-layer-block"
    /// (Algorithm 2); 1 = per-layer, larger values model fused blocks
    /// with cheaper scheduling but coarser preemption.
    pub layers_per_block: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            preemption_overhead_ns: 20_000,
            layers_per_block: 1,
        }
    }
}

/// Replays `workload` under `scheduler` and returns the completion record.
///
/// [`simulate_traced`] with the [`NullTracer`], which compiles every
/// observability hook away. Deterministic: identical inputs produce
/// identical reports.
///
/// # Panics
///
/// Panics if the workload is empty.
pub fn simulate(
    workload: &Workload,
    scheduler: &mut dyn Scheduler,
    config: &EngineConfig,
) -> SimReport {
    simulate_traced(workload, scheduler, config, NullTracer)
}

/// Replays `workload` under `scheduler` on one [`NodeEngine`]: every
/// request is enqueued up front, and the node runs to completion. The
/// node reports to `tracer` (pass `&RingTracer` to record), emitting an
/// arrival and a dispatch event per request up front plus execution
/// segments, preemptions, and completions as the run unfolds.
///
/// The returned report does not depend on the tracer — tracing
/// observes the run without perturbing it (pinned by tests).
///
/// # Panics
///
/// Panics if the workload is empty.
pub fn simulate_traced<T: Tracer>(
    workload: &Workload,
    scheduler: &mut dyn Scheduler,
    config: &EngineConfig,
    tracer: T,
) -> SimReport {
    let requests = workload.requests();
    assert!(!requests.is_empty(), "workload must contain requests");
    let lut = ModelInfoLut::from_store(workload.store());
    tracer.name_node(0, "node0");
    // Intern one label per model variant; the per-request loop then
    // reuses ids (and one scratch string) instead of re-formatting.
    // Keyed by spec equality (a linear scan over a handful of variants)
    // rather than `variant_id` — enqueue already pays that binary
    // search, and a disabled tracer skips this block outright.
    let mut labels: Vec<(SparseModelSpec, u32)> = Vec::new();
    let mut scratch = String::new();
    let mut node: NodeEngine<'_, &mut dyn Scheduler, &T> =
        NodeEngine::with_tracer(0, scheduler, *config, lut, &tracer);
    for req in requests {
        if tracer.enabled() {
            // A deadline-free request (`slo_ns == u64::MAX`) saturates
            // to `i64::MAX`, the cluster front end's encoding.
            let slo_ns = req.slo_ns.min(i64::MAX as u64) as i64;
            let label = match labels.iter().find(|(spec, _)| *spec == req.spec) {
                Some(&(_, id)) => id,
                None => {
                    use std::fmt::Write as _;
                    scratch.clear();
                    write!(scratch, "{}", req.spec).expect("write to String");
                    let id = tracer.intern(&scratch);
                    labels.push((req.spec, id));
                    id
                }
            };
            tracer.record(TraceEvent {
                t_ns: req.arrival_ns,
                request: req.id,
                node: NODE_FRONTEND,
                kind: EventKind::Arrival,
                a: u64::from(label),
                b: slo_ns,
            });
            // Single-node serving has no front-end: requests land on
            // the node the instant they arrive.
            tracer.record(TraceEvent {
                t_ns: req.arrival_ns,
                request: req.id,
                node: 0,
                kind: EventKind::Dispatch,
                a: 0,
                b: slo_ns,
            });
        }
        node.enqueue(req, workload.trace_for(req));
    }
    node.run_to_completion();
    node.into_report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::CompletedRequest;
    use dysta_core::Policy;
    use dysta_obs::RingTracer;
    use dysta_workload::{Scenario, WorkloadBuilder};

    fn tiny_workload(seed: u64) -> Workload {
        WorkloadBuilder::new(Scenario::MultiCnn)
            .num_requests(40)
            .samples_per_variant(8)
            .seed(seed)
            .build()
    }

    #[test]
    fn every_request_completes_exactly_once() {
        let w = tiny_workload(1);
        for policy in Policy::ALL {
            let r = simulate(&w, policy.build().as_mut(), &EngineConfig::default());
            assert_eq!(r.completed().len(), 40, "{policy}");
            let mut ids: Vec<u64> = r.completed().iter().map(|c| c.id).collect();
            ids.dedup();
            assert_eq!(ids.len(), 40, "{policy}: duplicate completions");
        }
    }

    #[test]
    fn completions_after_arrivals() {
        let w = tiny_workload(2);
        let r = simulate(&w, Policy::Sjf.build().as_mut(), &EngineConfig::default());
        for c in r.completed() {
            assert!(c.completion_ns >= c.arrival_ns + c.isolated_ns);
        }
    }

    #[test]
    fn fcfs_completes_in_arrival_order() {
        let w = tiny_workload(3);
        let r = simulate(&w, Policy::Fcfs.build().as_mut(), &EngineConfig::default());
        let mut by_completion: Vec<&CompletedRequest> = r.completed().iter().collect();
        by_completion.sort_by_key(|c| c.completion_ns);
        let arrivals: Vec<u64> = by_completion.iter().map(|c| c.arrival_ns).collect();
        assert!(
            arrivals.windows(2).all(|p| p[0] <= p[1]),
            "FCFS must finish in arrival order"
        );
    }

    #[test]
    fn deterministic_replay() {
        let w = tiny_workload(4);
        let a = simulate(&w, Policy::Dysta.build().as_mut(), &EngineConfig::default());
        let b = simulate(&w, Policy::Dysta.build().as_mut(), &EngineConfig::default());
        assert_eq!(a.completed(), b.completed());
    }

    #[test]
    fn preemption_overhead_lengthens_makespan() {
        let w = tiny_workload(5);
        let cheap = simulate(
            &w,
            Policy::Dysta.build().as_mut(),
            &EngineConfig {
                preemption_overhead_ns: 0,
                ..EngineConfig::default()
            },
        );
        let costly = simulate(
            &w,
            Policy::Dysta.build().as_mut(),
            &EngineConfig {
                preemption_overhead_ns: 5_000_000,
                ..EngineConfig::default()
            },
        );
        let makespan = |r: &SimReport| r.completed().iter().map(|c| c.completion_ns).max();
        assert!(makespan(&costly) >= makespan(&cheap));
    }

    #[test]
    fn fcfs_never_preempts() {
        let w = tiny_workload(6);
        let r = simulate(&w, Policy::Fcfs.build().as_mut(), &EngineConfig::default());
        // FCFS runs each task to completion: switches = completions - 1
        // at most (one switch per task boundary), never mid-task.
        assert!(r.preemptions() <= 39, "{}", r.preemptions());
    }

    #[test]
    fn timeline_is_ordered_disjoint_and_covers_all_work() {
        // The execution timeline is the traced run's `Segment` events:
        // `t_ns` = start, `a` = end, one per maximal same-task run.
        let w = tiny_workload(8);
        for policy in [Policy::Fcfs, Policy::Dysta] {
            let tracer = RingTracer::new(1 << 14);
            simulate_traced(
                &w,
                policy.build().as_mut(),
                &EngineConfig::default(),
                &tracer,
            );
            assert_eq!(tracer.dropped(), 0, "{policy}");
            let timeline: Vec<TraceEvent> = tracer
                .events()
                .into_iter()
                .filter(|e| e.kind == EventKind::Segment)
                .collect();
            assert!(!timeline.is_empty(), "{policy}");
            for seg in &timeline {
                assert!(seg.t_ns <= seg.a, "{policy}: negative segment");
            }
            for pair in timeline.windows(2) {
                assert!(pair[0].a <= pair[1].t_ns, "{policy}: overlap");
            }
            // Per-task service matches each request's isolated latency.
            for req in w.requests() {
                let per_task: u64 = timeline
                    .iter()
                    .filter(|s| s.request == req.id)
                    .map(|s| s.a - s.t_ns)
                    .sum();
                assert_eq!(per_task, w.isolated_ns(req), "{policy}: task {}", req.id);
            }
        }
    }

    #[test]
    fn coarser_blocks_reduce_scheduler_invocations() {
        let w = tiny_workload(10);
        let total_layers: u64 = w
            .requests()
            .iter()
            .map(|r| w.trace_for(r).num_layers() as u64)
            .sum();
        let mut prev_invocations = u64::MAX;
        for block in [1usize, 4, 16] {
            let config = EngineConfig {
                layers_per_block: block,
                ..EngineConfig::default()
            };
            let r = simulate(&w, Policy::Dysta.build().as_mut(), &config);
            assert_eq!(r.completed().len(), 40, "block {block}");
            assert!(
                r.scheduler_invocations() < prev_invocations,
                "block {block}"
            );
            assert!(r.scheduler_invocations() >= total_layers / block as u64);
            prev_invocations = r.scheduler_invocations();
        }
    }

    #[test]
    #[should_panic(expected = "block must contain layers")]
    fn zero_block_rejected() {
        let w = tiny_workload(11);
        let config = EngineConfig {
            layers_per_block: 0,
            ..EngineConfig::default()
        };
        let _ = simulate(&w, Policy::Fcfs.build().as_mut(), &config);
    }

    #[test]
    fn scheduler_invoked_once_per_layer() {
        let w = tiny_workload(7);
        let total_layers: u64 = w
            .requests()
            .iter()
            .map(|r| w.trace_for(r).num_layers() as u64)
            .sum();
        let r = simulate(&w, Policy::Sjf.build().as_mut(), &EngineConfig::default());
        assert_eq!(r.scheduler_invocations(), total_layers);
    }

    #[test]
    fn queue_compaction_preserves_determinism_for_every_policy() {
        // Completion removal uses `swap_remove`, which permutes the
        // scheduler-visible queue order. Every shipped policy decides
        // from task fields with id tie-breaks, so replays must stay
        // bit-identical — this is the regression test pinning that down.
        let w = tiny_workload(12);
        for policy in Policy::ALL {
            let a = simulate(&w, policy.build().as_mut(), &EngineConfig::default());
            let b = simulate(&w, policy.build().as_mut(), &EngineConfig::default());
            assert_eq!(a.completed(), b.completed(), "{policy}");
            assert_eq!(a.preemptions(), b.preemptions(), "{policy}");
            assert_eq!(
                a.scheduler_invocations(),
                b.scheduler_invocations(),
                "{policy}"
            );
        }
    }

    #[test]
    fn queue_compaction_keeps_fcfs_arrival_order_under_churn() {
        // Heavy completion churn (many short requests in flight) is
        // where swap_remove shuffles the queue hardest; FCFS semantics
        // must be unaffected.
        let w = WorkloadBuilder::new(Scenario::MultiCnn)
            .arrival_rate(20.0)
            .num_requests(120)
            .samples_per_variant(4)
            .seed(13)
            .build();
        let r = simulate(&w, Policy::Fcfs.build().as_mut(), &EngineConfig::default());
        let mut by_completion: Vec<&CompletedRequest> = r.completed().iter().collect();
        by_completion.sort_by_key(|c| c.completion_ns);
        let arrivals: Vec<u64> = by_completion.iter().map(|c| c.arrival_ns).collect();
        assert!(arrivals.windows(2).all(|p| p[0] <= p[1]));
    }
}
