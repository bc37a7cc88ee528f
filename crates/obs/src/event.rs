//! The structured trace-event vocabulary.
//!
//! Every event is a fixed-size `Copy` record stamped with *simulated*
//! time, so recording one is a handful of word moves — no formatting, no
//! allocation, no wall-clock reads on the hot path. Free-form data
//! (model-variant names, node names) is interned once through
//! [`crate::Tracer::intern`] and referenced by id.

/// Pseudo-node id for events emitted by the cluster front-end rather
/// than an accelerator node (arrival, admission decisions).
pub const NODE_FRONTEND: u32 = u32::MAX;

/// Sentinel request id for events not tied to a single request
/// (per-node slack re-projections).
pub const REQ_NONE: u64 = u64::MAX;

/// What happened. The payload fields `a`/`b` of [`TraceEvent`] are
/// overloaded per kind; each variant documents its convention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// A request entered the system. `a` = interned label id of the
    /// model variant, `b` = the request's SLO budget in ns.
    Arrival = 0,
    /// Admission control accepted the request as-is. `a` = admission
    /// wait in ns (batching delay between arrival and the decision).
    Admit = 1,
    /// Admission control rejected the request outright. `a` = admission
    /// wait in ns.
    AdmitReject = 2,
    /// Admission control admitted the request at a degraded
    /// (relaxed) SLO. `a` = admission wait in ns, `b` = the relaxed SLO
    /// budget in ns.
    AdmitDegrade = 3,
    /// The request was placed on a node's queue. `node` = target node,
    /// `a` = the node's queue length after dispatch, `b` = slack at
    /// dispatch (deadline − now; negative = already doomed).
    Dispatch = 4,
    /// A maximal contiguous run of quanta one request executed on a
    /// node. `t_ns` = start, `a` = end in ns, `b` = layers executed.
    /// One segment spans every back-to-back quantum of the same
    /// request, so segment count ≈ context-switch count, not layer
    /// count.
    Segment = 5,
    /// Execution switched to a different request than the one that ran
    /// last (the engine paid the context-switch penalty). `request` =
    /// the incoming request, `a` = the outgoing request's id, `b` = the
    /// switch overhead in ns.
    Preemption = 6,
    /// A work-stealing transfer. `node` = the thief, `request` = the
    /// stolen request, `a` = the victim node, `b` = the weight/activation
    /// re-fetch cost in ns charged to the thief.
    Steal = 7,
    /// A migration pass offered this request to the pool. `node` = the
    /// overloaded source node, `a` = how many times the request has
    /// already migrated (the per-request budget the engine enforces).
    MigrationOffer = 8,
    /// A migration offer was accepted. `node` = the source node, `a` =
    /// the destination node, `b` = the re-fetch cost in ns.
    MigrationAccept = 9,
    /// A migration offer found no taker. `node` = the source node.
    MigrationReject = 10,
    /// A per-node slack re-projection at a front-end decision point.
    /// `request` = [`REQ_NONE`], `a` = the node's queue length, `b` =
    /// the node's estimated backlog in ns.
    SlackProjection = 11,
    /// A request finished. `a` = 1 if its SLO was violated else 0,
    /// `b` = completion slack (deadline − completion; negative =
    /// violated by that much).
    Completion = 12,
    /// A node crashed (fault injection). `node` = the crashed node,
    /// `request` = [`REQ_NONE`], `a` = how many queued/in-flight
    /// requests were salvaged off the node, `b` = the scheduled
    /// recovery time in ns for a transient crash, or −1 for a
    /// permanent one.
    NodeDown = 13,
    /// A transiently-crashed node came back up. `node` = the
    /// recovered node, `request` = [`REQ_NONE`].
    NodeUp = 14,
    /// A brown-out window toggled on a node. `request` = [`REQ_NONE`],
    /// `a` = the capacity multiplier in parts per million (1_000_000 =
    /// back to nominal), `b` = the window end in ns (0 when the window
    /// is closing).
    Brownout = 15,
    /// A request was pulled off a crashed node for re-dispatch.
    /// `node` = the crashed node, `a` = the request's retry count so
    /// far, `b` = executed work lost on the dead node in ns.
    Salvage = 16,
    /// A salvaged request landed on a new node. `node` = the new
    /// target, `a` = the crashed node it came from, `b` = the
    /// re-fetch cost in ns charged to the target.
    Retry = 17,
    /// A queued request reneged: its re-projected slack went negative
    /// before it ever started, so the front-end dropped it. `node` =
    /// the node it was queued on, `a` = time spent queued in ns,
    /// `b` = the (negative) projected slack at the drop.
    Renege = 18,
    /// A request failed permanently: out of retry budget or no live
    /// node to run it. `node` = the node it died on (or
    /// [`NODE_FRONTEND`] when it never landed anywhere), `a` = its
    /// retry count.
    Failed = 19,
    /// A transfer-stall window toggled on a node. `request` =
    /// [`REQ_NONE`], `a` = the fetch-cost multiplier in parts per
    /// million (1_000_000 = back to nominal), `b` = the window end in ns
    /// (0 when the window is closing).
    TransferStall = 20,
}

impl EventKind {
    /// Number of kinds (size for per-kind counter arrays).
    pub const COUNT: usize = 21;

    /// Every kind, in discriminant order.
    pub const ALL: [EventKind; EventKind::COUNT] = [
        EventKind::Arrival,
        EventKind::Admit,
        EventKind::AdmitReject,
        EventKind::AdmitDegrade,
        EventKind::Dispatch,
        EventKind::Segment,
        EventKind::Preemption,
        EventKind::Steal,
        EventKind::MigrationOffer,
        EventKind::MigrationAccept,
        EventKind::MigrationReject,
        EventKind::SlackProjection,
        EventKind::Completion,
        EventKind::NodeDown,
        EventKind::NodeUp,
        EventKind::Brownout,
        EventKind::Salvage,
        EventKind::Retry,
        EventKind::Renege,
        EventKind::Failed,
        EventKind::TransferStall,
    ];

    /// Stable lower-snake name (used in exports and metric keys).
    pub fn name(self) -> &'static str {
        self.row().name
    }

    /// This kind's row of the event table.
    pub(crate) fn row(self) -> &'static KindRow {
        &KINDS[self as usize]
    }
}

/// How one [`EventKind`] is named and drawn: its row of [`KINDS`].
pub(crate) struct KindRow {
    /// Stable lower-snake name.
    pub name: &'static str,
    /// Title prefix of the kind's Perfetto instant.
    pub title: &'static str,
    /// Argument name the unsigned payload `a` is exported under.
    pub a: Option<&'static str>,
    /// Argument name the signed payload `b` is exported under.
    pub b: Option<&'static str>,
    /// Chrome-trace colour (`cname`) of the kind's instant.
    pub cname: Option<&'static str>,
}

/// A [`KindRow`] from its table cells; an empty cell means the title is
/// the name, the payload word is not exported, or the instant keeps the
/// viewer's default colour.
const fn row(
    name: &'static str,
    title: &'static str,
    a: &'static str,
    b: &'static str,
    cname: &'static str,
) -> KindRow {
    const fn cell(s: &'static str) -> Option<&'static str> {
        if s.is_empty() {
            None
        } else {
            Some(s)
        }
    }
    KindRow {
        name,
        title: if title.is_empty() { name } else { title },
        a: cell(a),
        b: cell(b),
        cname: cell(cname),
    }
}

/// Every kind's name, Perfetto title, exported argument names and
/// colour, in discriminant order. The meaning of `a` and `b` is on the
/// [`EventKind`] variants. Crashes and permanent failures are red
/// ("terrible"), degradation yellow ("bad"), recoveries green ("good").
#[rustfmt::skip]
static KINDS: [KindRow; EventKind::COUNT] = [
    //   name                title       a              b                 colour
    row("arrival",          "",         "",            "slo_ns",         ""),
    row("admit",            "",         "wait_ns",     "",               ""),
    row("admit_reject",     "reject",   "wait_ns",     "",               ""),
    row("admit_degrade",    "degrade",  "wait_ns",     "relaxed_slo_ns", ""),
    row("dispatch",         "",         "queue_depth", "slack_ns",       ""),
    row("segment",          "",         "",            "layers",         ""),
    row("preemption",       "preempt",  "",            "overhead_ns",    ""),
    row("steal",            "",         "victim_node", "fetch_ns",       ""),
    row("migration_offer",  "offer",    "migrations",  "",               ""),
    row("migration_accept", "migrate",  "to_node",     "fetch_ns",       ""),
    row("migration_reject", "keep",     "",            "",               ""),
    row("slack_projection", "",         "",            "",               ""),
    row("completion",       "complete", "violated",    "slack_ns",       ""),
    row("node_down",        "",         "salvaged",    "down_until_ns",  "terrible"),
    row("node_up",          "",         "",            "",               "good"),
    row("brownout",         "",         "factor_ppm",  "until_ns",       "bad"),
    row("salvage",          "",         "retry_count", "lost_exec_ns",   "bad"),
    row("retry",            "",         "from_node",   "fetch_ns",       "good"),
    row("renege",           "",         "queued_ns",   "slack_ns",       "bad"),
    row("failed",           "",         "retry_count", "",               "terrible"),
    row("transfer_stall",   "",         "factor_ppm",  "until_ns",       "bad"),
];

/// One structured, sim-time-stamped observation.
///
/// `a` and `b` are per-kind payloads (see [`EventKind`]); `b` is signed
/// because several kinds carry slack, which goes negative exactly when
/// it matters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time of the event in ns (for [`EventKind::Segment`]:
    /// the segment start).
    pub t_ns: u64,
    /// The request the event concerns, or [`REQ_NONE`].
    pub request: u64,
    /// The node the event happened on, or [`NODE_FRONTEND`].
    pub node: u32,
    /// What happened.
    pub kind: EventKind,
    /// First per-kind payload word.
    pub a: u64,
    /// Second per-kind payload word (signed: often slack).
    pub b: i64,
}

impl TraceEvent {
    /// A placeholder event (ring-buffer fill value; never exported).
    pub const EMPTY: TraceEvent = TraceEvent {
        t_ns: 0,
        request: REQ_NONE,
        node: NODE_FRONTEND,
        kind: EventKind::Arrival,
        a: 0,
        b: 0,
    };
}

/// Wall-clock phases the engines attribute profiling time to (see
/// [`crate::Tracer::phase_ns`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Scheduler `pick_next` calls. A forced decision (one runnable
    /// task, a side-effect-free scheduler) makes no call and is not
    /// timed.
    Pick = 0,
    /// Quantum execution (layer replay + bookkeeping).
    Execute = 1,
    /// Cluster front-end work (admission, dispatch, steal/migration
    /// passes).
    Frontend = 2,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_are_unique() {
        let mut names: Vec<&str> = EventKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EventKind::COUNT);
    }
}
