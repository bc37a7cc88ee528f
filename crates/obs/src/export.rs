//! Exporters: Perfetto/Chrome-trace JSON and the compact per-request
//! timeline summary the tests (and the CI smoke check) consume.
//!
//! Everything here is offline post-processing over the event slice a
//! [`RingTracer`] hands out — allocation is fine, determinism is not
//! optional: identical runs must serialize byte-identically (pinned by
//! the golden fixture and the determinism test).

use std::collections::{BTreeMap, BTreeSet};

use serde::Value;

use crate::event::{EventKind, TraceEvent, NODE_FRONTEND, REQ_NONE};
use crate::tracer::RingTracer;

/// One request's life, folded out of the event stream.
///
/// `Option` fields are `None` when the corresponding event is absent —
/// either because it never happened (a rejected request has no
/// dispatch) or because the ring overwrote it; validation assumes the
/// ring was large enough to hold the whole run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RequestTimeline {
    /// Request id.
    pub id: u64,
    /// Interned model-variant label id (from the arrival event).
    pub label: Option<u32>,
    /// Arrival time.
    pub arrival_ns: Option<u64>,
    /// SLO budget (from the arrival event).
    pub slo_ns: Option<i64>,
    /// Admission decision time (admit or degrade).
    pub admitted_ns: Option<u64>,
    /// True when admission control rejected the request.
    pub rejected: bool,
    /// True when admission control relaxed the request's SLO.
    pub degraded: bool,
    /// Front-end dispatch time (first placement on a node).
    pub dispatch_ns: Option<u64>,
    /// Slack at dispatch (deadline − dispatch time).
    pub dispatch_slack_ns: Option<i64>,
    /// The node that completed (or last executed) the request.
    pub node: Option<u32>,
    /// Start of the first execution segment.
    pub first_exec_ns: Option<u64>,
    /// Total time spent executing, summed over segments.
    pub executed_ns: u64,
    /// Layers executed, summed over segments.
    pub layers: u64,
    /// Number of contiguous execution segments.
    pub segments: u32,
    /// Times this request was switched *in* paying the penalty.
    pub preemptions: u32,
    /// Times this request moved between nodes (steal or migration).
    pub transfers: u32,
    /// Completion time.
    pub completion_ns: Option<u64>,
    /// True when the request finished past its deadline.
    pub violated: bool,
    /// Completion slack (deadline − completion; negative = violated).
    pub completion_slack_ns: Option<i64>,
    /// Times this request was salvaged off a crashed node.
    pub salvages: u32,
    /// Times a salvage landed the request on a new node.
    pub retries: u32,
    /// True when the request reneged from a queue (projected slack went
    /// negative before it ever started).
    pub reneged: bool,
    /// True when the request failed permanently (out of retry budget or
    /// no live node to take it).
    pub failed: bool,
}

/// Folds an event stream into per-request timelines, sorted by request
/// id. Events not tied to a request ([`REQ_NONE`]) are skipped.
pub fn timelines(events: &[TraceEvent]) -> Vec<RequestTimeline> {
    let mut map: BTreeMap<u64, RequestTimeline> = BTreeMap::new();
    for e in events {
        if e.request == REQ_NONE {
            continue;
        }
        let t = map.entry(e.request).or_insert_with(|| RequestTimeline {
            id: e.request,
            ..RequestTimeline::default()
        });
        match e.kind {
            EventKind::Arrival => {
                t.arrival_ns = Some(e.t_ns);
                t.label = Some(e.a as u32);
                t.slo_ns = Some(e.b);
            }
            EventKind::Admit => t.admitted_ns = Some(e.t_ns),
            EventKind::AdmitReject => t.rejected = true,
            EventKind::AdmitDegrade => {
                t.admitted_ns = Some(e.t_ns);
                t.degraded = true;
            }
            EventKind::Dispatch => {
                if t.dispatch_ns.is_none() {
                    t.dispatch_ns = Some(e.t_ns);
                    t.dispatch_slack_ns = Some(e.b);
                }
                t.node = Some(e.node);
            }
            EventKind::Segment => {
                if t.first_exec_ns.is_none() {
                    t.first_exec_ns = Some(e.t_ns);
                }
                t.executed_ns += e.a.saturating_sub(e.t_ns);
                t.layers += e.b.max(0) as u64;
                t.segments += 1;
                t.node = Some(e.node);
            }
            EventKind::Preemption => t.preemptions += 1,
            EventKind::Steal | EventKind::MigrationAccept => {
                t.transfers += 1;
            }
            EventKind::MigrationOffer | EventKind::MigrationReject => {}
            EventKind::SlackProjection => {}
            EventKind::Completion => {
                t.completion_ns = Some(e.t_ns);
                t.violated = e.a == 1;
                t.completion_slack_ns = Some(e.b);
                t.node = Some(e.node);
            }
            // Node-scoped fault events carry REQ_NONE and never reach
            // here; the arms exist for exhaustiveness.
            EventKind::NodeDown
            | EventKind::NodeUp
            | EventKind::Brownout
            | EventKind::TransferStall => {}
            EventKind::Salvage => t.salvages += 1,
            EventKind::Retry => {
                t.retries += 1;
                t.transfers += 1;
                t.node = Some(e.node);
            }
            EventKind::Renege => t.reneged = true,
            EventKind::Failed => t.failed = true,
        }
    }
    map.into_values().collect()
}

/// Checks that every request's event sequence is well-formed:
/// arrival ≤ dispatch ≤ first execution ≤ completion, rejected requests
/// never execute, and per-node execution segments never overlap.
///
/// Assumes a complete trace (ring capacity ≥ events recorded); a
/// truncated stream can produce spurious orphans.
///
/// # Errors
///
/// Returns the first malformation found, described for humans.
pub fn validate(events: &[TraceEvent]) -> Result<(), String> {
    for t in timelines(events) {
        let id = t.id;
        if t.rejected {
            if t.segments > 0 || t.completion_ns.is_some() || t.dispatch_ns.is_some() {
                return Err(format!("rejected request {id} has execution events"));
            }
            continue;
        }
        if let (Some(arr), Some(disp)) = (t.arrival_ns, t.dispatch_ns) {
            if arr > disp {
                return Err(format!(
                    "request {id}: dispatch {disp} before arrival {arr}"
                ));
            }
        }
        if let (Some(disp), Some(exec)) = (t.dispatch_ns, t.first_exec_ns) {
            if disp > exec {
                return Err(format!(
                    "request {id}: first quantum {exec} before dispatch {disp}"
                ));
            }
        }
        if let (Some(exec), Some(done)) = (t.first_exec_ns, t.completion_ns) {
            if exec > done {
                return Err(format!(
                    "request {id}: completion {done} before first quantum {exec}"
                ));
            }
        }
        if t.completion_ns.is_some() && t.first_exec_ns.is_none() {
            return Err(format!("request {id} completed without executing"));
        }
        if t.reneged && t.completion_ns.is_some() {
            return Err(format!("reneged request {id} completed anyway"));
        }
        if t.failed && t.completion_ns.is_some() {
            return Err(format!("failed request {id} completed anyway"));
        }
    }
    // Fault-window discipline, checked in stream order: work must never
    // be placed on a node while it is down, and salvage only happens
    // off a node that actually crashed.
    let mut down: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
    for e in events {
        match e.kind {
            EventKind::NodeDown => {
                down.insert(e.node);
            }
            EventKind::NodeUp => {
                down.remove(&e.node);
            }
            EventKind::Dispatch if down.contains(&e.node) => {
                return Err(format!(
                    "request {} dispatched to down node {}",
                    e.request, e.node
                ));
            }
            EventKind::Steal if down.contains(&e.node) => {
                return Err(format!("down node {} stole request {}", e.node, e.request));
            }
            EventKind::MigrationAccept if down.contains(&(e.a as u32)) => {
                return Err(format!(
                    "request {} migrated to down node {}",
                    e.request, e.a
                ));
            }
            EventKind::Retry if down.contains(&e.node) => {
                return Err(format!(
                    "request {} retried onto down node {}",
                    e.request, e.node
                ));
            }
            EventKind::Salvage if !down.contains(&e.node) => {
                return Err(format!(
                    "request {} salvaged from node {} which is not down",
                    e.request, e.node
                ));
            }
            _ => {}
        }
    }
    // Execution segments on one node must not overlap.
    let mut per_node: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for e in events {
        if e.kind == EventKind::Segment {
            per_node.entry(e.node).or_default().push((e.t_ns, e.a));
        }
    }
    for (node, mut segs) in per_node {
        segs.sort_unstable();
        for w in segs.windows(2) {
            if w[0].1 > w[1].0 {
                return Err(format!(
                    "node {node}: overlapping segments [{}, {}) and [{}, {})",
                    w[0].0, w[0].1, w[1].0, w[1].1
                ));
            }
        }
    }
    Ok(())
}

/// Chrome-trace `tid` for a node id: the front-end pseudo-node is
/// thread 0, accelerator node `n` is thread `n + 1`.
fn tid(node: u32) -> u64 {
    if node == NODE_FRONTEND {
        0
    } else {
        u64::from(node) + 1
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Sim-time ns → Chrome-trace µs timestamp.
fn us(t_ns: u64) -> Value {
    Value::Float(t_ns as f64 / 1000.0)
}

/// The fields every per-event record starts with: phase, track,
/// timestamp and name.
fn event_base(ph: &str, e: &TraceEvent, name: String) -> Vec<(&'static str, Value)> {
    vec![
        ("ph", Value::Str(ph.into())),
        ("pid", Value::UInt(1)),
        ("tid", Value::UInt(tid(e.node))),
        ("ts", us(e.t_ns)),
        ("name", Value::Str(name)),
    ]
}

/// `e`'s payload words under its kind's argument names (a completion's
/// `a` as a bool).
fn args(e: &TraceEvent) -> Vec<(&'static str, Value)> {
    let row = e.kind.row();
    let a = match e.kind {
        EventKind::Completion => Value::Bool(e.a == 1),
        _ => Value::UInt(e.a),
    };
    [(row.a, a), (row.b, Value::Int(e.b))]
        .into_iter()
        .filter_map(|(key, value)| Some((key?, value)))
        .collect()
}

/// The instant that draws `e`, in its kind's colour.
fn instant(e: &TraceEvent, title: String) -> Value {
    let mut fields = event_base("i", e, title);
    fields.push(("s", Value::Str("t".into())));
    if let Some(cname) = e.kind.row().cname {
        fields.push(("cname", Value::Str(cname.into())));
    }
    let args = args(e);
    if !args.is_empty() {
        fields.push(("args", obj(args)));
    }
    obj(fields)
}

/// One sample of the per-node counter track `{name} node{node}`.
fn counter(e: &TraceEvent, name: &str, key: &str, value: Value) -> Value {
    obj(vec![
        ("ph", Value::Str("C".into())),
        ("pid", Value::UInt(1)),
        ("ts", us(e.t_ns)),
        ("name", Value::Str(format!("{name} node{}", e.node))),
        ("args", obj(vec![(key, value)])),
    ])
}

/// Renders `events` as a Perfetto-loadable Chrome trace: one track
/// (thread) per node plus a front-end track, one `X` slice per
/// execution segment, one instant per control-plane event (drawn from
/// its kind's row of the event table), one flow (`s`/`f`) per
/// dispatched request connecting dispatch to its completion, renege or
/// failure, and counter tracks for queue depth / backlog.
/// Deterministic: identical inputs produce identical bytes.
///
/// `labels` is the interned label table (arrival `a` payloads index
/// it); `node_names` maps node ids to display names.
pub fn perfetto_json(
    events: &[TraceEvent],
    labels: &[String],
    node_names: &[(u32, String)],
) -> String {
    // Request id → label string, resolved from arrival events.
    let mut req_label: BTreeMap<u64, &str> = BTreeMap::new();
    for e in events {
        if e.kind == EventKind::Arrival {
            if let Some(label) = labels.get(e.a as usize) {
                req_label.insert(e.request, label.as_str());
            }
        }
    }
    let slice_name = |req: u64| match req_label.get(&req) {
        Some(label) => format!("r{req} {label}"),
        None => format!("r{req}"),
    };

    // Track metadata first: the front-end, then every named node.
    let mut out: Vec<Value> = std::iter::once((NODE_FRONTEND, "frontend"))
        .chain(node_names.iter().map(|(node, name)| (*node, name.as_str())))
        .map(|(node, name)| {
            obj(vec![
                ("ph", Value::Str("M".into())),
                ("pid", Value::UInt(1)),
                ("tid", Value::UInt(tid(node))),
                ("name", Value::Str("thread_name".into())),
                ("args", obj(vec![("name", Value::Str(name.into()))])),
            ])
        })
        .collect();

    // Requests whose dispatch → end flow is still open.
    let mut open_flows: BTreeSet<u64> = BTreeSet::new();
    for e in events {
        let row = e.kind.row();
        let title = match e.kind {
            EventKind::Segment => {
                let mut fields = event_base("X", e, slice_name(e.request));
                let dur = e.a.saturating_sub(e.t_ns) as f64 / 1000.0;
                fields.push(("dur", Value::Float(dur)));
                fields.push(("args", obj(args(e))));
                out.push(obj(fields));
                continue;
            }
            EventKind::SlackProjection => {
                out.push(counter(e, "queue_depth", "depth", Value::UInt(e.a)));
                let ms = Value::Float(e.b as f64 / 1e6);
                out.push(counter(e, "backlog_ms", "ms", ms));
                continue;
            }
            EventKind::Arrival => format!("{} {}", row.title, slice_name(e.request)),
            EventKind::Preemption => format!("{} r{} -> r{}", row.title, e.a, e.request),
            _ if e.request == REQ_NONE => format!("{} n{}", row.title, e.node),
            _ => format!("{} r{}", row.title, e.request),
        };
        out.push(instant(e, title));
        // Flows: one arrow per request, from dispatch to its end.
        let flow = |ph| {
            let mut fields = event_base(ph, e, slice_name(e.request));
            fields.push(("cat", Value::Str("request".into())));
            fields.push(("id", Value::UInt(e.request)));
            fields
        };
        match e.kind {
            EventKind::Dispatch => {
                open_flows.insert(e.request);
                out.push(obj(flow("s")));
                out.push(counter(e, "queue_depth", "depth", Value::UInt(e.a)));
            }
            // A completion always ends its flow; a renege or a failure
            // ends one only if the request was dispatched (a request
            // failed at the door never was).
            EventKind::Completion | EventKind::Renege | EventKind::Failed
                if open_flows.remove(&e.request) || e.kind == EventKind::Completion =>
            {
                let mut fields = flow("f");
                fields.push(("bp", Value::Str("e".into())));
                out.push(obj(fields));
            }
            _ => {}
        }
    }

    let doc = obj(vec![
        ("displayTimeUnit", Value::Str("ns".into())),
        ("traceEvents", Value::Array(out)),
    ]);
    serde_json::to_string(&doc).expect("trace document serializes")
}

impl RingTracer {
    /// Renders everything currently held as a Perfetto-loadable Chrome
    /// trace (see [`perfetto_json`]).
    pub fn perfetto_json(&self) -> String {
        perfetto_json(&self.events(), &self.labels(), &self.node_names())
    }

    /// Folds the held events into per-request timelines (see
    /// [`timelines`]).
    pub fn timelines(&self) -> Vec<RequestTimeline> {
        timelines(&self.events())
    }

    /// Validates the held events' well-formedness (see [`validate`]).
    ///
    /// # Errors
    ///
    /// Returns the first malformation found.
    pub fn validate(&self) -> Result<(), String> {
        validate(&self.events())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(t_ns: u64, request: u64, node: u32, kind: EventKind, a: u64, b: i64) -> TraceEvent {
        TraceEvent {
            t_ns,
            request,
            node,
            kind,
            a,
            b,
        }
    }

    fn well_formed_run() -> Vec<TraceEvent> {
        vec![
            e(0, 7, NODE_FRONTEND, EventKind::Arrival, 0, 1_000_000),
            e(100, 7, NODE_FRONTEND, EventKind::Admit, 100, 0),
            e(100, 7, 0, EventKind::Dispatch, 1, 999_900),
            e(200, 7, 0, EventKind::Segment, 700, 3),
            e(700, 8, 0, EventKind::Preemption, 7, 20),
            e(720, 8, 0, EventKind::Segment, 900, 2),
            e(900, 7, 0, EventKind::Segment, 1_000, 1),
            e(1_000, 7, 0, EventKind::Completion, 0, 999_000),
            e(50, 9, NODE_FRONTEND, EventKind::Arrival, 1, 500),
            e(150, 9, NODE_FRONTEND, EventKind::AdmitReject, 100, 0),
        ]
    }

    #[test]
    fn timelines_fold_the_request_lifecycle() {
        let tl = timelines(&well_formed_run());
        assert_eq!(tl.len(), 3);
        let r7 = &tl[0];
        assert_eq!(r7.id, 7);
        assert_eq!(r7.arrival_ns, Some(0));
        assert_eq!(r7.dispatch_ns, Some(100));
        assert_eq!(r7.first_exec_ns, Some(200));
        assert_eq!(r7.completion_ns, Some(1_000));
        assert_eq!(r7.segments, 2);
        assert_eq!(r7.layers, 4);
        assert_eq!(r7.executed_ns, 600);
        assert!(!r7.violated);
        assert!(!r7.rejected);
        let r9 = &tl[2];
        assert!(r9.rejected);
        assert_eq!(r9.segments, 0);
        assert_eq!(r9.completion_ns, None);
    }

    #[test]
    fn validation_accepts_a_well_formed_run() {
        assert_eq!(validate(&well_formed_run()), Ok(()));
    }

    #[test]
    fn validation_rejects_execution_after_rejection() {
        let mut events = well_formed_run();
        events.push(e(2_000, 9, 0, EventKind::Segment, 2_100, 1));
        let err = validate(&events).unwrap_err();
        assert!(err.contains("rejected request 9"), "{err}");
    }

    #[test]
    fn validation_rejects_dispatch_before_arrival() {
        let events = vec![
            e(500, 1, NODE_FRONTEND, EventKind::Arrival, 0, 0),
            e(400, 1, 0, EventKind::Dispatch, 1, 0),
        ];
        let err = validate(&events).unwrap_err();
        assert!(err.contains("before arrival"), "{err}");
    }

    #[test]
    fn validation_rejects_dispatch_to_a_down_node() {
        let events = vec![
            e(0, 1, NODE_FRONTEND, EventKind::Arrival, 0, 1_000),
            e(10, REQ_NONE, 0, EventKind::NodeDown, 0, -1),
            e(20, 1, 0, EventKind::Dispatch, 1, 900),
        ];
        let err = validate(&events).unwrap_err();
        assert!(err.contains("down node 0"), "{err}");
    }

    #[test]
    fn validation_requires_salvage_to_follow_node_down() {
        let events = vec![e(10, 1, 0, EventKind::Salvage, 0, 0)];
        let err = validate(&events).unwrap_err();
        assert!(err.contains("not down"), "{err}");
    }

    #[test]
    fn validation_accepts_dispatch_after_recovery() {
        let events = vec![
            e(0, 1, NODE_FRONTEND, EventKind::Arrival, 0, 10_000),
            e(10, REQ_NONE, 0, EventKind::NodeDown, 0, 50),
            e(50, REQ_NONE, 0, EventKind::NodeUp, 0, 0),
            e(60, 1, 0, EventKind::Dispatch, 1, 9_000),
            e(70, 1, 0, EventKind::Segment, 90, 1),
            e(90, 1, 0, EventKind::Completion, 0, 100),
        ];
        assert_eq!(validate(&events), Ok(()));
    }

    #[test]
    fn validation_rejects_completion_after_renege() {
        let mut events = well_formed_run();
        events.push(e(950, 7, 0, EventKind::Renege, 900, -5));
        let err = validate(&events).unwrap_err();
        assert!(err.contains("reneged request 7"), "{err}");
    }

    #[test]
    fn validation_rejects_overlapping_segments_on_one_node() {
        let events = vec![
            e(0, 1, 0, EventKind::Segment, 100, 1),
            e(50, 2, 0, EventKind::Segment, 150, 1),
        ];
        let err = validate(&events).unwrap_err();
        assert!(err.contains("overlapping"), "{err}");
    }

    #[test]
    fn perfetto_export_is_deterministic_and_parses() {
        let events = well_formed_run();
        let labels = vec!["resnet50@eyeriss".to_string(), "bert@sanger".to_string()];
        let names = vec![(0u32, "node0 EyerissV2".to_string())];
        let one = perfetto_json(&events, &labels, &names);
        let two = perfetto_json(&events, &labels, &names);
        assert_eq!(one, two);
        let doc: Value = serde_json::from_str(&one).expect("valid JSON");
        let trace_events = doc.field("traceEvents").expect("traceEvents");
        let Value::Array(items) = trace_events else {
            panic!("traceEvents must be an array");
        };
        // 2 metadata + at least one entry per input event.
        assert!(items.len() >= events.len() + 2, "{}", items.len());
        // Slices carry the interned label.
        assert!(one.contains("r7 resnet50@eyeriss"));
        // Exactly one X slice per Segment event — the rejected request
        // contributes none.
        assert_eq!(one.matches("\"ph\":\"X\"").count(), 3);
    }

    #[test]
    fn ring_tracer_convenience_exports_match_free_functions() {
        use crate::tracer::Tracer;
        let tracer = RingTracer::new(64);
        let label = tracer.intern("resnet50");
        tracer.name_node(0, "node0");
        for mut ev in well_formed_run() {
            if ev.kind == EventKind::Arrival {
                ev.a = u64::from(label);
            }
            tracer.record(ev);
        }
        assert_eq!(tracer.validate(), Ok(()));
        assert_eq!(tracer.timelines().len(), 3);
        assert_eq!(
            tracer.perfetto_json(),
            perfetto_json(&tracer.events(), &tracer.labels(), &tracer.node_names())
        );
    }
}
