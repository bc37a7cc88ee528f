//! A request whose interned variant id does not name its spec is caught
//! where it enters a cluster run, in release builds too, instead of
//! running against another variant's traces and LUT entry.

use dysta_cluster::{simulate_cluster, ClusterConfig, ClusterPolicy, DispatchPolicy};
use dysta_core::Policy;
use dysta_obs::NullTracer;
use dysta_trace::{SampleTrace, TraceStore, VariantId};
use dysta_workload::{Request, RequestSource, Scenario, WorkloadBuilder, WorkloadSource};

/// Re-stamps a variant id, given the id and the store's variant count.
type Retag = fn(VariantId, usize) -> VariantId;

/// Replays a workload, re-stamping request 3's variant id with `retag`
/// — a custom source that mints its ids wrong.
struct Retagged<'w> {
    inner: WorkloadSource<'w>,
    retag: Retag,
}

impl<'w> RequestSource<'w> for Retagged<'w> {
    fn peek_arrival_ns(&mut self) -> Option<u64> {
        self.inner.peek_arrival_ns()
    }

    fn next_request(&mut self) -> Option<Request> {
        self.inner.next_request().map(|r| match r.id {
            3 => Request {
                variant: (self.retag)(r.variant, self.store().len()),
                ..r
            },
            _ => r,
        })
    }

    fn trace_for(&self, request: &Request) -> &'w SampleTrace {
        self.inner.trace_for(request)
    }

    fn store(&self) -> &'w TraceStore {
        self.inner.store()
    }

    fn len_hint(&self) -> usize {
        self.inner.len_hint()
    }
}

fn run_retagged(retag: Retag) {
    let w = WorkloadBuilder::new(Scenario::MultiCnn)
        .num_requests(12)
        .samples_per_variant(2)
        .seed(5)
        .build();
    assert!(w.store().len() > 1, "need a second profiled variant");
    let source = Retagged {
        inner: w.source(),
        retag,
    };
    let pool = ClusterConfig::heterogeneous(1, 1, Policy::Dysta);
    simulate_cluster(
        source,
        &mut ClusterPolicy::from_dispatch(DispatchPolicy::SparsityAffinity),
        &pool,
        NullTracer,
    );
}

#[test]
#[should_panic(expected = "request 3 carries variant")]
fn id_naming_another_profiled_variant_panics_at_arrival() {
    // The next id (wrapping) is in range: a profiled variant, but not
    // the request's own.
    run_retagged(|v, len| VariantId::from_index((v.index() + 1) % len));
}

#[test]
#[should_panic(expected = "request 3 carries variant 1000")]
fn out_of_range_id_panics_at_arrival() {
    run_retagged(|_, _| VariantId::from_index(1000));
}

#[test]
fn correct_ids_run_cleanly() {
    run_retagged(|v, _| v);
}
