//! The streaming request-source abstraction the cluster engine consumes.
//!
//! A [`RequestSource`] is a peekable, forward-only stream of
//! [`Request`]s backed by a Phase-1 trace library. The historical
//! fully-materialized [`Workload`] adapts to it via [`WorkloadSource`]
//! (a cursor over the request slice); the open-loop generator
//! ([`crate::ArrivalSource`]) implements it natively, producing
//! requests lazily so the request list never resides in memory. A
//! serving run still keeps its report, which grows with the stream: a
//! 56 B completion record plus 8 B of admission wait per request.

use dysta_trace::{SampleTrace, TraceStore};

use crate::{Request, Workload};

/// A forward-only stream of inference requests plus the trace library
/// backing them.
///
/// # Contract
///
/// Implementations must yield requests in non-decreasing `arrival_ns`
/// order with unique ids (the stream — not its consumer — owns id
/// minting), and every yielded request's `spec` must resolve in
/// [`RequestSource::store`]. The stream mints the variant ids too: each
/// request's [`Request::variant`] must be its spec's id in this
/// source's own `store()` (`store().variant_id(&spec)`, resolved once
/// per spec, not per request). The cluster engine checks every arrival
/// against it and panics on a mismatch.
/// [`RequestSource::peek_arrival_ns`] must agree with the next
/// [`RequestSource::next_request`] without consuming it.
///
/// The lifetime `'w` is the trace library's: returned trace references
/// outlive the source value itself, which lets a cluster engine hold
/// `&'w SampleTrace` on its nodes while the source keeps streaming.
pub trait RequestSource<'w> {
    /// Arrival instant of the next request, `None` when the stream is
    /// exhausted. Idempotent until the next [`RequestSource::next_request`].
    fn peek_arrival_ns(&mut self) -> Option<u64>;

    /// Produces the next request, advancing the stream.
    fn next_request(&mut self) -> Option<Request>;

    /// The input-sample trace `request` carries, looked up by its
    /// [`Request::variant`].
    ///
    /// # Panics
    ///
    /// May panic if `request` did not come from this source.
    fn trace_for(&self, request: &Request) -> &'w SampleTrace;

    /// The Phase-1 trace library every yielded request resolves in.
    fn store(&self) -> &'w TraceStore;

    /// Total number of requests the stream will yield, when known up
    /// front (both shipped sources know it). Used only for capacity
    /// hints — a lower bound is safe.
    fn len_hint(&self) -> usize;
}

/// A [`RequestSource`] over a fully-materialized [`Workload`]: a
/// cursor walking the request slice. This is the adapter behind the
/// `simulate_cluster*` entry points that take a materialized workload.
#[derive(Debug, Clone)]
pub struct WorkloadSource<'w> {
    workload: &'w Workload,
    cursor: usize,
}

impl<'w> WorkloadSource<'w> {
    /// Starts a cursor at the beginning of `workload`'s request stream.
    pub fn new(workload: &'w Workload) -> Self {
        WorkloadSource {
            workload,
            cursor: 0,
        }
    }
}

impl<'w> RequestSource<'w> for WorkloadSource<'w> {
    fn peek_arrival_ns(&mut self) -> Option<u64> {
        self.workload
            .requests()
            .get(self.cursor)
            .map(|r| r.arrival_ns)
    }

    fn next_request(&mut self) -> Option<Request> {
        let r = self.workload.requests().get(self.cursor).copied();
        if r.is_some() {
            self.cursor += 1;
        }
        r
    }

    fn trace_for(&self, request: &Request) -> &'w SampleTrace {
        self.workload.trace_for(request)
    }

    fn store(&self) -> &'w TraceStore {
        self.workload.store()
    }

    fn len_hint(&self) -> usize {
        self.workload.requests().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Scenario, WorkloadBuilder};

    #[test]
    fn workload_source_replays_the_slice_in_order() {
        let w = WorkloadBuilder::new(Scenario::MultiCnn)
            .num_requests(25)
            .samples_per_variant(4)
            .seed(2)
            .build();
        let mut source = WorkloadSource::new(&w);
        assert_eq!(source.len_hint(), 25);
        for expected in w.requests() {
            assert_eq!(source.peek_arrival_ns(), Some(expected.arrival_ns));
            // Peek must be idempotent.
            assert_eq!(source.peek_arrival_ns(), Some(expected.arrival_ns));
            let got = source.next_request().expect("request available");
            assert_eq!(&got, expected);
            assert_eq!(
                source.trace_for(&got).isolated_latency_ns(),
                w.trace_for(expected).isolated_latency_ns()
            );
        }
        assert_eq!(source.peek_arrival_ns(), None);
        assert_eq!(source.next_request(), None);
    }
}
