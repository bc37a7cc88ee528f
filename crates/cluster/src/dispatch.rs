//! Pluggable request-dispatch policies and the shared decision context.
//!
//! The dispatcher is the cluster-level analogue of the node-level
//! [`dysta_core::Scheduler`]: it is consulted through a
//! [`DispatchContext`] — a snapshot of every node as it could have been
//! observed at that instant plus the LUT and the pool's transfer-cost
//! model — and returns the node that will serve the request. The serving
//! front-end consults it when a request leaves the admission queue — and
//! again whenever the migration pass re-offers a queued, never-started
//! request from a node that fell behind its backlog estimate. Re-offers
//! go through the read-only [`Dispatcher::peek`] path first, and only an
//! *applied* move charges stateful policies (a rejected candidate never
//! perturbs the round-robin cursor).
//!
//! The same context type feeds the steal and migration sides of the
//! [`crate::ClusterPolicy`] family (see the `policy` module), so every
//! cluster-level decision — routing, victim choice, migration acceptance
//! — reads one coherent view of the pool. A [`NodeView`] holds only what
//! some shipped policy reads; a policy that needs another per-node
//! summary adds the field together with its fold in the engine's view
//! builder, which rebuilds a node's view whenever that node changed.

use std::cell::OnceCell;

use dysta_core::ModelInfoLut;
use dysta_models::ModelFamily;
use dysta_workload::Request;

use crate::{AcceleratorKind, TransferCostConfig};

/// What a cluster policy can observe about one node at a scheduling
/// point.
///
/// Snapshots are plain data, so dispatchers stay pure functions over
/// them. The engine caches them per node and rebuilds a node's view
/// only when that node's state changed since the last build (its
/// mutation epoch moved). Per-node policy code reads these fields and
/// scales; it must not resolve a request's spec against the LUT, which
/// formats and binary-searches a key — look the estimate up once per
/// decision ([`DispatchContext::request_estimate_ns`]).
///
/// The two backlog figures mirror the information tiers the paper's
/// schedulers work with: `lut_backlog_ns` is the static, profiled
/// estimate any dispatcher could precompute, while
/// `predicted_backlog_ns` folds in the runtime sparsity monitor via the
/// [`dysta_core::SparseLatencyPredictor`] — the cluster-level use of the
/// paper's Algorithm 3. Deadline-aware policies such as
/// [`EarliestDeadlineFirst`] project a request's slack from the
/// backlog; steal and migration policies price individual moves
/// ([`crate::StealCandidate::transfer_cost_ns`],
/// [`DispatchContext::request_transfer_cost_ns`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeView {
    /// Node id (index into the cluster's node list).
    pub id: usize,
    /// Installed accelerator.
    pub accelerator: AcceleratorKind,
    /// Node speed factor in `(0, 1]` ([`crate::NodeConfig::capacity`]).
    pub capacity: f64,
    /// Node-local clock.
    pub now_ns: u64,
    /// Unfinished requests on the node (admitted + queued).
    pub queue_len: usize,
    /// Remaining queued work estimated from LUT averages, scaled by each
    /// request's node-local service-time multiplier (which folds in the
    /// node capacity).
    pub lut_backlog_ns: f64,
    /// Remaining queued work estimated by the sparse latency predictor
    /// from each in-flight request's running sparsity-monitor state.
    pub predicted_backlog_ns: f64,
    /// Liveness as injected by the pool's [`crate::FaultSchedule`]:
    /// `Up` in a fault-free run, `Down` while crashed (accepts no
    /// work), `Degraded` during a brown-out window (carrying the
    /// *effective* capacity — configured capacity times the brown-out
    /// factor — which [`NodeView::service_scale`] prices with).
    pub health: crate::NodeHealth,
}

impl NodeView {
    /// The service-time scale a request of `family` would pay here —
    /// the same formula the engine charges through
    /// [`crate::NodeConfig::effective_scale`] (one shared definition,
    /// so the dispatcher's cost model cannot desync from what requests
    /// actually pay). During a brown-out the health's reduced effective
    /// capacity is what gets charged.
    pub fn service_scale(&self, family: ModelFamily) -> f64 {
        let capacity = match self.health {
            crate::NodeHealth::Degraded { capacity } => capacity,
            _ => self.capacity,
        };
        crate::config::effective_scale(self.accelerator.serves(family), capacity)
    }
}

/// Everything a cluster-level decision gets to look at: causal node
/// snapshots, the profiled LUT, and the pool's transfer-cost model, at
/// one instant of simulated time.
///
/// Shared by all three policy kinds ([`Dispatcher`],
/// [`crate::StealPolicy`], [`crate::MigrationPolicy`]) so their
/// decisions are made against the same information surface. The engine
/// builds one context per view refresh and hands it to every decision
/// that reads that refresh, so per-snapshot facts such as
/// [`DispatchContext::mean_lut_backlog_ns`] are computed once per
/// refresh, not once per call.
#[derive(Clone)]
pub struct DispatchContext<'a> {
    /// The decision instant (front-end sim-time).
    pub now_ns: u64,
    /// One causal snapshot per node, in node-id order.
    pub nodes: &'a [NodeView],
    /// Profiled per-variant statistics.
    pub lut: &'a ModelInfoLut,
    /// The pool's transfer-cost model.
    pub transfer_cost: &'a TransferCostConfig,
    /// `Some(src)` when the request being routed is a migration
    /// re-offer already queued on node `src` — that node's backlog
    /// estimates *include* the request itself, so estimate-projecting
    /// policies (e.g. [`EarliestDeadlineFirst`]) must not charge its
    /// service there a second time. `None` on the admission path.
    pub reoffer_src: Option<usize>,
    /// `nodes`' mean LUT backlog, stored by the first
    /// [`DispatchContext::mean_lut_backlog_ns`] call.
    mean_lut_backlog_ns: OnceCell<f64>,
}

impl<'a> DispatchContext<'a> {
    /// A context over `nodes` at `now_ns` on the admission path
    /// (`reoffer_src` is `None`; a re-offer sets it).
    pub fn new(
        now_ns: u64,
        nodes: &'a [NodeView],
        lut: &'a ModelInfoLut,
        transfer_cost: &'a TransferCostConfig,
    ) -> Self {
        DispatchContext {
            now_ns,
            nodes,
            lut,
            transfer_cost,
            reoffer_src: None,
            mean_lut_backlog_ns: OnceCell::new(),
        }
    }

    /// Pool-mean LUT-estimated backlog — the reference level the steal
    /// and migration thresholds are expressed against.
    ///
    /// The first call sums `nodes` in id order and stores the mean;
    /// later calls return the stored value, so every decision made on
    /// one context compares against the same bits and a pass that asks
    /// many times pays for one sum over the pool. A context nobody asks
    /// (the admission path) never computes it. The stored value
    /// belongs to the `nodes` slice the context was built over: build
    /// a new context for another slice rather than reassigning
    /// `nodes` (debug builds check the stored value on every call).
    pub fn mean_lut_backlog_ns(&self) -> f64 {
        let pool_mean =
            || self.nodes.iter().map(|n| n.lut_backlog_ns).sum::<f64>() / self.nodes.len() as f64;
        let mean = *self.mean_lut_backlog_ns.get_or_init(pool_mean);
        debug_assert_eq!(
            mean.to_bits(),
            pool_mean().to_bits(),
            "stored pool mean is stale: `nodes` changed after it was computed"
        );
        mean
    }

    /// The request's own unscaled LUT latency estimate, indexed by its
    /// [`Request::variant`] (0 for an id with no LUT entry). Every
    /// decision looks it up once here and then scales it per node
    /// ([`EarliestDeadlineFirst::projected_slack_ns`]).
    pub fn request_estimate_ns(&self, request: &Request) -> f64 {
        self.lut
            .try_info(request.variant)
            .map_or(0.0, |info| info.avg_latency_ns())
    }

    /// The estimated re-fetch cost of moving `request` between any two
    /// nodes. An id with no LUT entry (nothing to size the variable part
    /// from) still pays the flat `base_ns`.
    pub fn request_transfer_cost_ns(&self, request: &Request) -> u64 {
        if self.transfer_cost.is_free() {
            return 0;
        }
        self.lut
            .try_info(request.variant)
            .map_or(self.transfer_cost.base_ns, |info| {
                self.transfer_cost.estimate_ns(info.avg_latency_ns())
            })
    }
}

/// A cluster-level request router.
pub trait Dispatcher {
    /// Stable lower-case policy name (used in sweep tables).
    fn name(&self) -> &str;

    /// The node [`Dispatcher::dispatch`] would pick for `request`,
    /// without charging any internal policy state. The migration pass
    /// evaluates candidate moves (most of which it rejects) through this
    /// path, so a rebalance that moves nothing leaves the routing of
    /// subsequent arrivals untouched.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `ctx.nodes` is empty; the cluster
    /// engine never calls with an empty pool.
    fn peek(&self, request: &Request, ctx: &DispatchContext<'_>) -> usize;

    /// Chooses the node that will serve `request` and advances any
    /// internal policy state (e.g. the round-robin cursor). Returns an
    /// index into `ctx.nodes`, and must agree with [`Dispatcher::peek`]
    /// on the same snapshot. The default forwards to `peek` — correct
    /// for every stateless policy.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `ctx.nodes` is empty; the cluster
    /// engine never calls with an empty pool.
    fn dispatch(&mut self, request: &Request, ctx: &DispatchContext<'_>) -> usize {
        self.peek(request, ctx)
    }
}

/// Cycles through nodes in order, ignoring load — the baseline every
/// smarter policy has to beat.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundRobin {
    next: usize,
}

impl RoundRobin {
    /// Creates a round-robin dispatcher starting at node 0.
    pub fn new() -> Self {
        RoundRobin::default()
    }
}

impl Dispatcher for RoundRobin {
    fn name(&self) -> &str {
        "round-robin"
    }

    fn peek(&self, _request: &Request, ctx: &DispatchContext<'_>) -> usize {
        // Scan forward from the cursor for the first live node; on an
        // all-healthy pool this is the cursor itself (the historical
        // behavior, bit-exact). With every node down the cursor's pick
        // stands and the engine records the failure.
        let start = self.next % ctx.nodes.len();
        (0..ctx.nodes.len())
            .map(|k| (start + k) % ctx.nodes.len())
            .find(|&i| ctx.nodes[i].health.accepts_work())
            .unwrap_or(start)
    }

    fn dispatch(&mut self, request: &Request, ctx: &DispatchContext<'_>) -> usize {
        let pick = self.peek(request, ctx);
        self.next = (pick + 1) % ctx.nodes.len();
        pick
    }
}

/// Join-shortest-queue by *queued work*: routes to the node with the
/// least LUT-estimated backlog (not the shortest request count, which
/// mis-ranks nodes holding a few long requests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinShortestQueue;

impl JoinShortestQueue {
    /// Creates a JSQ dispatcher.
    pub fn new() -> Self {
        JoinShortestQueue
    }
}

impl Dispatcher for JoinShortestQueue {
    fn name(&self) -> &str {
        "jsq"
    }

    fn peek(&self, _request: &Request, ctx: &DispatchContext<'_>) -> usize {
        let by_lut_backlog = |a: &&NodeView, b: &&NodeView| {
            a.lut_backlog_ns
                .total_cmp(&b.lut_backlog_ns)
                .then(a.id.cmp(&b.id))
        };
        ctx.nodes
            .iter()
            .filter(|n| n.health.accepts_work())
            .min_by(by_lut_backlog)
            .or_else(|| ctx.nodes.iter().min_by(by_lut_backlog))
            .map(|n| n.id)
            .expect("cluster engine never passes an empty pool")
    }
}

/// Least-estimated-load: like JSQ but ranking nodes by the sparse
/// latency predictor's backlog estimate, so a node whose in-flight
/// requests were monitored to be sparser (and will finish sooner) is
/// preferred over one that merely *looks* equally loaded in the LUT.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeastLoaded;

impl LeastLoaded {
    /// Creates a least-estimated-load dispatcher.
    pub fn new() -> Self {
        LeastLoaded
    }
}

impl Dispatcher for LeastLoaded {
    fn name(&self) -> &str {
        "least-loaded"
    }

    fn peek(&self, _request: &Request, ctx: &DispatchContext<'_>) -> usize {
        ctx.nodes
            .iter()
            .filter(|n| n.health.accepts_work())
            .min_by(|a, b| by_predicted_backlog(a, b))
            .or_else(|| ctx.nodes.iter().min_by(|a, b| by_predicted_backlog(a, b)))
            .map(|n| n.id)
            .expect("cluster engine never passes an empty pool")
    }
}

/// Sparsity/LUT-aware affinity: restricts candidates to nodes whose
/// accelerator natively serves the request's model family (CNNs to
/// Eyeriss-V2, AttNNs to Sanger), then picks the least
/// predictor-estimated load among them. Falls back to the whole pool
/// (by predicted load) when no node natively serves the family.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SparsityAffinity;

impl SparsityAffinity {
    /// Creates an affinity dispatcher.
    pub fn new() -> Self {
        SparsityAffinity
    }
}

impl Dispatcher for SparsityAffinity {
    fn name(&self) -> &str {
        "affinity"
    }

    fn peek(&self, request: &Request, ctx: &DispatchContext<'_>) -> usize {
        let family = request.spec.model.family();
        let live = |n: &&NodeView| n.health.accepts_work();
        ctx.nodes
            .iter()
            .filter(|n| n.accelerator.serves(family))
            .filter(live)
            .min_by(|a, b| by_predicted_backlog(a, b))
            .or_else(|| {
                ctx.nodes
                    .iter()
                    .filter(live)
                    .min_by(|a, b| by_predicted_backlog(a, b))
            })
            .or_else(|| ctx.nodes.iter().min_by(|a, b| by_predicted_backlog(a, b)))
            .map(|n| n.id)
            .expect("cluster engine never passes an empty pool")
    }
}

/// Cluster-level EDF-family routing on slack: places the request on the
/// node that leaves it the most deadline headroom, spilling across
/// accelerator families only when the deadline demands it.
///
/// For every node the policy projects the request's completion —
/// `max(node clock, now)` plus the node's predictor-estimated backlog
/// (the same tier [`SparsityAffinity`] ranks with) plus the request's
/// own LUT estimate under the node's *effective* service scale
/// (mismatch penalty over capacity) — giving a per-node slack
/// `deadline − projected completion`
/// ([`dysta_workload::Request::slack_ns`]). Routing is three-stage:
///
/// 1. Among family-native nodes that still meet the deadline
///    (slack ≥ 0), pick the least predictor-estimated backlog — the
///    exact ordering [`SparsityAffinity`] uses, so under no deadline
///    pressure the two policies route identically and EDF inherits
///    affinity's ANTT. Unlike affinity, a node whose capacity or
///    straddling clock makes the inbound request *miss* its deadline is
///    excluded here even if its queue is the shortest.
/// 2. When no native node can hold the SLO but some foreign node can,
///    spill to the least-backlogged feasible node. Paying the 2.5×
///    mismatch penalty is exactly the trade a violation-minimizing
///    router must make once the matched nodes are saturated — and it is
///    never made while a native node can still hold the deadline.
/// 3. When *nobody* can hold the deadline, the violation is already
///    decided: fall back to affinity's exact pick (least-backlogged
///    native), rather than dumping a doomed mismatched request onto the
///    other family's nodes where it would stall their tighter traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EarliestDeadlineFirst;

impl EarliestDeadlineFirst {
    /// Creates an EDF dispatcher.
    pub fn new() -> Self {
        EarliestDeadlineFirst
    }

    /// The request's projected slack if routed to `node` now: deadline
    /// minus projected completion, charging the request's unscaled
    /// estimate `est_ns` ([`DispatchContext::request_estimate_ns`])
    /// under the node's effective scale. For a migration re-offer
    /// evaluated against its own source node
    /// ([`DispatchContext::reoffer_src`]), the node's backlog already
    /// contains the request, so its service is not charged again.
    pub fn projected_slack_ns(
        request: &Request,
        est_ns: f64,
        node: &NodeView,
        ctx: &DispatchContext<'_>,
    ) -> i64 {
        let own = if ctx.reoffer_src == Some(node.id) {
            0.0
        } else {
            est_ns * node.service_scale(request.spec.model.family())
        };
        let start = node.now_ns.max(ctx.now_ns);
        // The queue ahead is estimated with the sparsity predictor, the
        // inbound request with its LUT average (it has no monitored
        // stream yet).
        let wait = dysta_core::round_ns(node.predicted_backlog_ns + own);
        request.slack_ns(start, wait)
    }
}

impl Dispatcher for EarliestDeadlineFirst {
    fn name(&self) -> &str {
        "edf"
    }

    fn peek(&self, request: &Request, ctx: &DispatchContext<'_>) -> usize {
        let family = request.spec.model.family();
        let est_ns = ctx.request_estimate_ns(request);
        let feasible = |n: &&NodeView| {
            n.health.accepts_work()
                && EarliestDeadlineFirst::projected_slack_ns(request, est_ns, n, ctx) >= 0
        };
        // Stage 1: live, feasible native nodes, balanced exactly like
        // SparsityAffinity balances.
        if let Some(node) = ctx
            .nodes
            .iter()
            .filter(|n| n.accelerator.serves(family))
            .filter(feasible)
            .min_by(|a, b| by_predicted_backlog(a, b))
        {
            return node.id;
        }
        // Stage 2: deadline pressure — spill to a live, feasible node of
        // any family.
        if let Some(node) = ctx
            .nodes
            .iter()
            .filter(feasible)
            .min_by(|a, b| by_predicted_backlog(a, b))
        {
            return node.id;
        }
        // Stage 3: the deadline is lost everywhere — affinity's pick
        // among whatever is still alive.
        SparsityAffinity.peek(request, ctx)
    }
}

/// Shared ranking: least predictor-estimated backlog, node-id tie-break.
fn by_predicted_backlog(a: &NodeView, b: &NodeView) -> std::cmp::Ordering {
    a.predicted_backlog_ns
        .total_cmp(&b.predicted_backlog_ns)
        .then(a.id.cmp(&b.id))
}

/// Every shipped dispatch policy, as a constructible enum (the sweep
/// harness iterates this the way `Policy::ALL` iterates schedulers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DispatchPolicy {
    /// [`RoundRobin`].
    RoundRobin,
    /// [`JoinShortestQueue`].
    JoinShortestQueue,
    /// [`LeastLoaded`].
    LeastLoaded,
    /// [`SparsityAffinity`].
    SparsityAffinity,
    /// [`EarliestDeadlineFirst`].
    EarliestDeadlineFirst,
}

impl DispatchPolicy {
    /// All policies, baseline first.
    pub const ALL: [DispatchPolicy; 5] = [
        DispatchPolicy::RoundRobin,
        DispatchPolicy::JoinShortestQueue,
        DispatchPolicy::LeastLoaded,
        DispatchPolicy::SparsityAffinity,
        DispatchPolicy::EarliestDeadlineFirst,
    ];

    /// The original PR-1 policy set (no EDF) — the grid the recorded
    /// golden fixtures and the like-for-like perf history sweep.
    pub const CLASSIC: [DispatchPolicy; 4] = [
        DispatchPolicy::RoundRobin,
        DispatchPolicy::JoinShortestQueue,
        DispatchPolicy::LeastLoaded,
        DispatchPolicy::SparsityAffinity,
    ];

    /// Stable lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            DispatchPolicy::RoundRobin => "round-robin",
            DispatchPolicy::JoinShortestQueue => "jsq",
            DispatchPolicy::LeastLoaded => "least-loaded",
            DispatchPolicy::SparsityAffinity => "affinity",
            DispatchPolicy::EarliestDeadlineFirst => "edf",
        }
    }

    /// Instantiates the dispatcher.
    pub fn build(self) -> Box<dyn Dispatcher> {
        match self {
            DispatchPolicy::RoundRobin => Box::new(RoundRobin::new()),
            DispatchPolicy::JoinShortestQueue => Box::new(JoinShortestQueue::new()),
            DispatchPolicy::LeastLoaded => Box::new(LeastLoaded::new()),
            DispatchPolicy::SparsityAffinity => Box::new(SparsityAffinity::new()),
            DispatchPolicy::EarliestDeadlineFirst => Box::new(EarliestDeadlineFirst::new()),
        }
    }
}

impl std::fmt::Display for DispatchPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dysta_models::ModelId;
    use dysta_sparsity::SparsityPattern;
    use dysta_trace::{SparseModelSpec, VariantId};

    fn view(id: usize, accelerator: AcceleratorKind, lut: f64, predicted: f64) -> NodeView {
        NodeView {
            id,
            accelerator,
            capacity: 1.0,
            now_ns: 0,
            queue_len: 0,
            lut_backlog_ns: lut,
            predicted_backlog_ns: predicted,
            health: crate::NodeHealth::Up,
        }
    }

    fn ctx<'a>(nodes: &'a [NodeView], lut: &'a ModelInfoLut) -> DispatchContext<'a> {
        DispatchContext::new(0, nodes, lut, &TransferCostConfig::FREE)
    }

    fn cnn_request() -> Request {
        Request {
            id: 0,
            spec: SparseModelSpec::new(ModelId::ResNet50, SparsityPattern::RandomPointwise, 0.8),
            // Id 0: the spec's id in a one-variant store built from it
            // (`profiled_lut`); no entry in an empty LUT.
            variant: VariantId::default(),
            sample_index: 0,
            arrival_ns: 0,
            slo_ns: 1_000_000_000,
        }
    }

    #[test]
    fn round_robin_cycles() {
        let views = [
            view(0, AcceleratorKind::EyerissV2, 0.0, 0.0),
            view(1, AcceleratorKind::EyerissV2, 0.0, 0.0),
        ];
        let mut rr = RoundRobin::new();
        let lut = ModelInfoLut::default();
        let ctx = ctx(&views, &lut);
        let req = cnn_request();
        assert_eq!(rr.dispatch(&req, &ctx), 0);
        assert_eq!(rr.dispatch(&req, &ctx), 1);
        assert_eq!(rr.dispatch(&req, &ctx), 0);
    }

    #[test]
    fn peek_agrees_with_dispatch_and_never_advances_state() {
        let views = [
            view(0, AcceleratorKind::EyerissV2, 4.0, 4.0),
            view(1, AcceleratorKind::EyerissV2, 2.0, 2.0),
            view(2, AcceleratorKind::Sanger, 1.0, 1.0),
        ];
        let lut = ModelInfoLut::default();
        let ctx = ctx(&views, &lut);
        let req = cnn_request();
        for policy in DispatchPolicy::ALL {
            let mut d = policy.build();
            // Any number of peeks is free of side effects...
            let peeked = d.peek(&req, &ctx);
            assert_eq!(d.peek(&req, &ctx), peeked, "{policy}");
            // ...and dispatch agrees with the last peek on the snapshot.
            assert_eq!(d.dispatch(&req, &ctx), peeked, "{policy}");
        }
    }

    #[test]
    fn jsq_follows_lut_backlog_least_loaded_follows_predictor() {
        // Node 0 looks busier in the LUT but its in-flight work was
        // monitored to be sparse (small predicted backlog); the two
        // policies must disagree exactly here.
        let views = [
            view(0, AcceleratorKind::EyerissV2, 10.0, 1.0),
            view(1, AcceleratorKind::EyerissV2, 5.0, 8.0),
        ];
        let lut = ModelInfoLut::default();
        let ctx = ctx(&views, &lut);
        let req = cnn_request();
        assert_eq!(JoinShortestQueue::new().dispatch(&req, &ctx), 1);
        assert_eq!(LeastLoaded::new().dispatch(&req, &ctx), 0);
    }

    #[test]
    fn affinity_prefers_native_accelerator_even_when_busier() {
        let views = [
            view(0, AcceleratorKind::Sanger, 0.0, 0.0),
            view(1, AcceleratorKind::EyerissV2, 5.0, 5.0),
            view(2, AcceleratorKind::EyerissV2, 3.0, 3.0),
        ];
        let lut = ModelInfoLut::default();
        let ctx = ctx(&views, &lut);
        let req = cnn_request();
        assert_eq!(SparsityAffinity::new().dispatch(&req, &ctx), 2);
    }

    #[test]
    fn affinity_falls_back_to_whole_pool() {
        let views = [
            view(0, AcceleratorKind::Sanger, 2.0, 2.0),
            view(1, AcceleratorKind::Sanger, 1.0, 1.0),
        ];
        let lut = ModelInfoLut::default();
        let ctx = ctx(&views, &lut);
        let req = cnn_request();
        assert_eq!(SparsityAffinity::new().dispatch(&req, &ctx), 1);
    }

    #[test]
    fn edf_dodges_infeasible_nodes_spills_under_pressure_and_falls_back_to_affinity() {
        // Node 0 has the shorter queue (affinity's pick) but its clock
        // already straddles far enough that the request's deadline dies
        // there; node 1 can still make it. (Empty LUT: the request's own
        // estimate is 0, so slack = deadline − start − backlog.)
        let mut straddling = view(0, AcceleratorKind::EyerissV2, 1.0e6, 1.0e6);
        straddling.now_ns = 4_000_000;
        let views = [
            straddling,
            view(1, AcceleratorKind::EyerissV2, 3.0e6, 3.0e6),
        ];
        let lut = ModelInfoLut::default();
        let ctx = ctx(&views, &lut);
        let req = Request {
            slo_ns: 4_500_000,
            ..cnn_request()
        };
        assert_eq!(SparsityAffinity::new().dispatch(&req, &ctx), 0);
        assert_eq!(EarliestDeadlineFirst::new().dispatch(&req, &ctx), 1);

        // Same pressure, but node 1 is a Sanger: no native node can hold
        // the deadline, the foreign node can — EDF spills.
        let mut spill = views;
        spill[1].accelerator = AcceleratorKind::Sanger;
        let ctx2 = DispatchContext::new(0, &spill, &lut, &TransferCostConfig::FREE);
        assert_eq!(EarliestDeadlineFirst::new().dispatch(&req, &ctx2), 1);

        // Deadline lost everywhere: EDF makes affinity's exact pick (the
        // least-backlogged native) instead of dumping the doomed request
        // on the other family.
        let doomed = Request {
            slo_ns: 500_000,
            ..cnn_request()
        };
        assert_eq!(
            EarliestDeadlineFirst::new().dispatch(&doomed, &ctx2),
            SparsityAffinity::new().dispatch(&doomed, &ctx2)
        );
    }

    /// A LUT profiled from a real trace store, holding `spec`, and
    /// `spec`'s unscaled estimate in it.
    fn profiled_lut(spec: &SparseModelSpec) -> (ModelInfoLut, f64) {
        let mut store = dysta_trace::TraceStore::new();
        store.insert(dysta_trace::ModelTraces::generate(spec, 4, 0));
        let variant = store.variant_id(spec).expect("profiled");
        let lut = ModelInfoLut::from_store(&store);
        let est = lut.info(variant).avg_latency_ns();
        assert!(est > 0.0);
        (lut, est)
    }

    #[test]
    fn edf_scales_the_requests_own_estimate_per_node() {
        let req = cnn_request();
        let (lut, est) = profiled_lut(&req.spec);
        // SLO of two estimates. Node 0 is native with half an estimate
        // queued: it finishes the request at 1.5 estimates. Nodes 1
        // (browned out to 0.4 capacity) and 2 (mismatched Sanger, 2.5x)
        // are empty but take 2.5 estimates to serve it.
        let req = Request {
            slo_ns: (2.0 * est).round() as u64,
            ..req
        };
        let mut browned = view(1, AcceleratorKind::EyerissV2, 0.0, 0.0);
        browned.health = crate::NodeHealth::Degraded { capacity: 0.4 };
        let views = [
            view(0, AcceleratorKind::EyerissV2, 0.5 * est, 0.5 * est),
            browned,
            view(2, AcceleratorKind::Sanger, 0.0, 0.0),
        ];
        let ctx = ctx(&views, &lut);
        let est_ns = ctx.request_estimate_ns(&req);
        assert_eq!(est_ns, est);
        let slack = |n: &NodeView| EarliestDeadlineFirst::projected_slack_ns(&req, est_ns, n, &ctx);
        assert_eq!(
            slack(&views[0]),
            req.slack_ns(0, dysta_core::round_ns(0.5 * est + est))
        );
        assert!(slack(&views[0]) >= 0, "native node holds the deadline");
        assert!(slack(&views[1]) < 0, "browned-out node misses it");
        assert!(slack(&views[2]) < 0, "mismatched node misses it");
        // Only the native node is feasible, although the browned-out
        // native node has the shorter queue.
        assert_eq!(EarliestDeadlineFirst::new().peek(&req, &ctx), 0);
        // With an empty LUT the request's own estimate is 0 and the
        // emptier browned-out node wins instead.
        let empty = ModelInfoLut::default();
        let blind = DispatchContext {
            lut: &empty,
            ..ctx.clone()
        };
        assert_eq!(blind.request_estimate_ns(&req), 0.0);
        assert_eq!(EarliestDeadlineFirst::new().peek(&req, &blind), 1);

        // Re-offered from node 1: its backlog already holds the
        // request, so the estimate is not charged there a second time
        // and the emptier node 1 holds the deadline again.
        let reoffer = DispatchContext {
            reoffer_src: Some(1),
            ..ctx.clone()
        };
        assert_eq!(
            EarliestDeadlineFirst::projected_slack_ns(&req, est_ns, &views[1], &reoffer),
            req.slack_ns(0, 0)
        );
        assert!(EarliestDeadlineFirst::projected_slack_ns(&req, est_ns, &views[2], &reoffer) < 0);
        assert_eq!(EarliestDeadlineFirst::new().peek(&req, &reoffer), 1);
    }

    #[test]
    fn every_dispatcher_skips_down_nodes() {
        let mut views = [
            view(0, AcceleratorKind::EyerissV2, 0.0, 0.0),
            view(1, AcceleratorKind::EyerissV2, 5.0, 5.0),
            view(2, AcceleratorKind::Sanger, 9.0, 9.0),
        ];
        // The otherwise-best node (0: native, empty) is down.
        views[0].health = crate::NodeHealth::Down { until_ns: None };
        let lut = ModelInfoLut::default();
        let ctx = ctx(&views, &lut);
        let req = cnn_request();
        for policy in DispatchPolicy::ALL {
            let mut d = policy.build();
            assert_ne!(d.dispatch(&req, &ctx), 0, "{policy} routed to a down node");
        }
        // Round-robin resumes its cycle once the node recovers.
        let mut rr = RoundRobin::new();
        assert_eq!(rr.dispatch(&req, &ctx), 1);
        assert_eq!(rr.dispatch(&req, &ctx), 2);
        assert_eq!(
            rr.dispatch(&req, &ctx),
            1,
            "cursor wraps past the down node"
        );
    }

    #[test]
    fn degraded_health_prices_into_service_scale() {
        let mut n = view(0, AcceleratorKind::EyerissV2, 0.0, 0.0);
        n.health = crate::NodeHealth::Degraded { capacity: 0.5 };
        assert_eq!(n.service_scale(ModelFamily::Cnn), 2.0);
        // The configured capacity field is untouched by a brown-out.
        assert_eq!(n.capacity, 1.0);
    }

    #[test]
    fn service_scale_folds_mismatch_and_capacity() {
        let mut n = view(0, AcceleratorKind::EyerissV2, 0.0, 0.0);
        assert_eq!(n.service_scale(ModelFamily::Cnn), 1.0);
        assert_eq!(n.service_scale(ModelFamily::AttNn), 2.5);
        n.capacity = 0.5;
        assert_eq!(n.service_scale(ModelFamily::Cnn), 2.0);
        assert_eq!(n.service_scale(ModelFamily::AttNn), 5.0);
    }

    #[test]
    fn names_are_stable() {
        for policy in DispatchPolicy::ALL {
            assert_eq!(policy.build().name(), policy.name());
        }
        assert_eq!(DispatchPolicy::EarliestDeadlineFirst.name(), "edf");
    }
}
