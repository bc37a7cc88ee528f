//! A request with no deadline (`slo_ns == u64::MAX`) must trace like
//! any other: its arrival, dispatch and completion events encode the
//! missing deadline as `i64::MAX` budget or slack (the cluster front
//! end's encoding), it never counts as a violation, and tracing still
//! leaves the report untouched.

use dysta_core::Policy;
use dysta_obs::{EventKind, RingTracer};
use dysta_sim::{simulate, simulate_traced, EngineConfig};
use dysta_workload::{Request, Scenario, Workload, WorkloadBuilder};

fn deadline_free_workload() -> Workload {
    let w = WorkloadBuilder::new(Scenario::MultiCnn)
        .num_requests(20)
        .samples_per_variant(4)
        .seed(3)
        .build();
    let requests: Vec<Request> = w
        .requests()
        .iter()
        .map(|r| Request {
            slo_ns: u64::MAX,
            ..*r
        })
        .collect();
    Workload::from_parts(requests, w.store().clone())
}

#[test]
fn deadline_free_requests_trace_without_overflow() {
    let w = deadline_free_workload();
    for policy in Policy::ALL {
        let tracer = RingTracer::new(1 << 12);
        let traced = simulate_traced(
            &w,
            policy.build().as_mut(),
            &EngineConfig::default(),
            &tracer,
        );
        let plain = simulate(&w, policy.build().as_mut(), &EngineConfig::default());
        assert_eq!(traced, plain, "{policy}: tracing changed the report");
        assert_eq!(traced.violation_rate(), 0.0, "{policy}");
        assert_eq!(tracer.dropped(), 0, "{policy}");

        let mut completions = 0;
        for e in tracer.events() {
            match e.kind {
                EventKind::Arrival | EventKind::Dispatch => {
                    assert_eq!(e.b, i64::MAX, "{policy}: {:?} budget", e.kind);
                }
                EventKind::Completion => {
                    completions += 1;
                    assert_eq!(e.a, 0, "{policy}: request {} violated", e.request);
                    assert_eq!(e.b, i64::MAX, "{policy}: request {} slack", e.request);
                }
                _ => {}
            }
        }
        assert_eq!(completions, w.requests().len(), "{policy}");
    }
}
