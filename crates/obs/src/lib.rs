//! Deterministic, sim-time-stamped observability for the Sparse-DySta
//! engine stack.
//!
//! The simulator's end-of-run reports say *what* happened (ANTT, SLO
//! violations, goodput); this crate records *why* — the per-request
//! event sequence (arrival → admission → dispatch → execution segments
//! → completion, with preemptions, steals, and migrations in between)
//! plus per-kind event counts.
//!
//! Two layers:
//!
//! - [`Tracer`]: the sink trait engines are generic over. The default
//!   [`NullTracer`] is a zero-sized no-op, so untraced simulations
//!   monomorphize to exactly the pre-observability hot path (pinned by
//!   counting-allocator and golden-fixture tests). [`RingTracer`]
//!   records [`TraceEvent`]s into a bounded ring — fixed-size `Copy`
//!   records, interned labels, no per-event allocation — and counts
//!   them by kind ([`RingTracer::kind_count`]).
//! - Exporters: [`perfetto_json`] renders a run as a Chrome trace
//!   loadable in [ui.perfetto.dev](https://ui.perfetto.dev) (one track
//!   per node, one flow per dispatched request, ended by its
//!   completion, renege or failure); [`timelines`] folds the stream
//!   into compact per-request [`RequestTimeline`] summaries and
//!   [`validate`] checks their well-formedness (used by tests and the
//!   CI trace smoke check).
//!
//! # Adding an event kind
//!
//! A new kind touches: its [`EventKind`] variant (which documents what
//! `a` and `b` mean), `COUNT` and `ALL`, its row in the event table in
//! `event.rs` (name, Perfetto title, argument names, colour), its arm
//! in [`timelines`], and its emit site. The Perfetto export draws it as
//! a plain instant from its row; only a kind drawn as something else
//! (a slice, a counter, a flow end) needs code in [`perfetto_json`].
//! The `trace_every_kind` golden and the `trace_check` smoke binary
//! both fail until the new kind is in their streams.
//!
//! # Examples
//!
//! ```
//! use dysta_obs::{EventKind, RingTracer, TraceEvent, Tracer, NODE_FRONTEND};
//!
//! let tracer = RingTracer::new(1024);
//! let label = tracer.intern("resnet50@eyeriss");
//! tracer.record(TraceEvent {
//!     t_ns: 0,
//!     request: 0,
//!     node: NODE_FRONTEND,
//!     kind: EventKind::Arrival,
//!     a: u64::from(label),
//!     b: 5_000_000,
//! });
//! assert_eq!(tracer.len(), 1);
//! assert_eq!(tracer.kind_count(EventKind::Arrival), 1);
//! let json = tracer.perfetto_json();
//! assert!(json.contains("traceEvents"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod export;
mod tracer;

pub use event::{EventKind, Phase, TraceEvent, NODE_FRONTEND, REQ_NONE};
pub use export::{perfetto_json, timelines, validate, RequestTimeline};
pub use tracer::{NullTracer, RingTracer, Tracer};
