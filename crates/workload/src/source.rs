//! The streaming request-source abstraction the cluster engine consumes.
//!
//! A [`RequestSource`] is a peekable, forward-only stream of
//! [`Request`]s backed by a Phase-1 trace library. The historical
//! fully-materialized [`Workload`] adapts to it via [`Workload::source`]
//! (a [`WorkloadSource`] cursor over the request slice); the open-loop
//! generator ([`crate::ArrivalSource`]) implements it natively,
//! producing requests lazily so the request list never resides in
//! memory. A
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
    /// front. Used only for capacity hints, so a lower bound is safe:
    /// [`crate::ArrivalSource`] caps its hint at 2^24, since its budget
    /// can exceed what its arrival clock lets it yield.
    fn len_hint(&self) -> usize;
}

/// A [`RequestSource`] over a fully-materialized [`Workload`]: a
/// cursor walking the request slice, made by [`Workload::source`]. This
/// is how a materialized workload enters `dysta_cluster::simulate_cluster`.
#[derive(Debug, Clone)]
pub struct WorkloadSource<'w> {
    workload: &'w Workload,
    cursor: usize,
}

impl Workload {
    /// A cursor at the beginning of this workload's request stream.
    ///
    /// # Panics
    ///
    /// Panics unless the request ids are dense, `0..len` in order. A
    /// streaming source owns its id minting (the [`RequestSource`]
    /// contract), but a hand-assembled [`Workload::from_parts`] slice
    /// does not, and the cluster front-end keys waits and migrations by
    /// id, so gaps or duplicates would mis-account them (O(n), once).
    pub fn source(&self) -> WorkloadSource<'_> {
        assert!(
            self.requests()
                .iter()
                .enumerate()
                .all(|(i, r)| r.id == i as u64),
            "cluster front-end requires dense request ids 0..len"
        );
        WorkloadSource {
            workload: self,
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
        let mut source = w.source();
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

    /// A 6-request workload whose ids `edit` rewrote, reassembled.
    fn with_ids(edit: fn(&mut [Request])) -> Workload {
        let w = WorkloadBuilder::new(Scenario::MultiCnn)
            .num_requests(6)
            .samples_per_variant(2)
            .seed(2)
            .build();
        let mut requests = w.requests().to_vec();
        edit(&mut requests);
        Workload::from_parts(requests, w.store().clone())
    }

    #[test]
    #[should_panic(expected = "cluster front-end requires dense request ids")]
    fn source_rejects_an_id_gap() {
        with_ids(|r| r[4].id = 9).source();
    }

    #[test]
    #[should_panic(expected = "cluster front-end requires dense request ids")]
    fn source_rejects_a_duplicate_id() {
        with_ids(|r| r[4].id = 3).source();
    }
}
