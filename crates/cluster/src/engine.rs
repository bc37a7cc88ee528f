//! The cluster event loop: N node engines behind one [`ClusterPolicy`],
//! fed by the serving front-end (admission batching, work stealing,
//! request migration, fault injection).
//!
//! The loop only *sequences*: it pops the earliest pending deadline
//! (arrival, fault edge, admission flush, migrate tick, steal tick),
//! advances nodes causally, snapshots the pool into a
//! [`DispatchContext`], consults the policy family (dispatcher for
//! routing, [`crate::StealPolicy`] for victim choice,
//! [`crate::MigrationPolicy`] for rebalance acceptance), and applies
//! whatever they decide. Crash salvage, migration and stealing all move
//! a request through one path, which charges the pool's
//! [`crate::TransferCostConfig`] on the receiving node. Per-node counts
//! and fault state live in one ledger entry per node; run-wide counts
//! fill the report's [`ServingStats`] as the run goes. All decision
//! logic lives behind the policy traits.

use std::collections::{HashMap, VecDeque};

use dysta_core::{scale_ns, ModelInfoLut, SparseLatencyPredictor, VariantId};
use dysta_models::ModelFamily;
use dysta_obs::{EventKind, NullTracer, Phase, TraceEvent, Tracer, NODE_FRONTEND, REQ_NONE};
use dysta_sim::{EngineConfig, NodeEngine, TransferableTask, VariantLabels};
use dysta_workload::{Request, RequestSource, Workload};

use crate::dispatch::{DispatchContext, Dispatcher, EarliestDeadlineFirst, NodeView};
use crate::faults::{FaultEvent, FaultKind, FaultSchedule, NodeHealth};
use crate::policy::{
    AdmissionDecision, AdmissionPolicy, AdmitAll, BacklogGainSteal, BacklogThresholdMigration,
    ClusterPolicy, InfeasibleEverywhere, MigrationPolicy, StealCandidate, StealPolicy,
};
use crate::report::{ClusterReport, NodeReport, ServingStats};
use crate::{AcceleratorKind, ClusterConfig, FrontendConfig};

/// Serves the requests `source` yields on the pool `config` describes,
/// under the `policy` bundle, honouring the pool's [`FrontendConfig`]:
/// the one way to run a cluster.
///
/// A materialized [`dysta_workload::Workload`] enters as `w.source()`;
/// an open-loop [`dysta_workload::ArrivalSource`] streams its requests,
/// so million-request runs never hold the request list. A bare
/// dispatcher enters as [`ClusterPolicy::from_dispatch`] or
/// [`ClusterPolicy::new`], which add the default admission
/// ([`AdmitAll`]), steal and migration policies. With a non-default
/// [`AdmissionPolicy`] the pool may complete fewer requests than the
/// source yields: rejected requests never enter any node engine, and no
/// steal or migration pass can resurrect them.
///
/// Pass [`NullTracer`] for an untraced run, or `&RingTracer` to record
/// arrivals, admission decisions, dispatches, execution segments,
/// preemptions, steal/migration traffic, per-node slack re-projections
/// at every rebalance tick, and completions. Tracing observes the run
/// without perturbing it: the report is the untraced one (pinned by
/// tests).
///
/// Causality: before any front-end action at sim-time `t` (batch
/// dispatch, steal check, rebalance pass), every node is advanced up to
/// `t` ([`NodeEngine::run_until`]), so decisions see exactly the queue
/// states a real front-end could have observed at that instant.
///
/// The default front-end dispatches each request the moment it arrives
/// (admission batch 1, no timer, stealing and migration off), bit-exact
/// with [`dysta_sim::simulate`] on a 1-node pool. With batching
/// enabled, requests queue at the front-end and are dispatched `k` at a
/// time (or when the admission timer fires); with stealing/migration
/// enabled, periodic passes move queued, never-started requests between
/// nodes, each move paying the configured transfer cost on the
/// receiving node.
///
/// Scheduling state is live state only: the front-end's admission
/// queue and in-flight bookkeeping (see
/// [`ServingStats::peak_live_requests`]), and each node's live-task
/// list, which requests leave when they finish or move. What still
/// grows with the stream is the report's 56 B
/// [`dysta_sim::CompletedRequest`] per completion, kept because the
/// turnaround percentiles are computed from it. The report keeps the
/// summed admission wait and the rejected, failed and reneged counts;
/// a traced run records each request's wait and outcome.
///
/// Deterministic: identical inputs produce identical reports.
///
/// # Panics
///
/// Panics if the source is empty, any config knob is out of range
/// ([`ClusterConfig::validate`]), or the dispatcher returns an
/// out-of-range node index.
///
/// # Examples
///
/// ```
/// use dysta_cluster::{simulate_cluster, AcceleratorKind, ClusterConfig, ClusterPolicy};
/// use dysta_cluster::DispatchPolicy;
/// use dysta_core::Policy;
/// use dysta_obs::{NullTracer, RingTracer};
/// use dysta_workload::{Scenario, StreamSpec, WorkloadBuilder};
///
/// let pool = ClusterConfig::homogeneous(4, AcceleratorKind::EyerissV2, Policy::Dysta);
/// let mut policy = ClusterPolicy::from_dispatch(DispatchPolicy::JoinShortestQueue);
///
/// // A materialized workload, traced.
/// let w = WorkloadBuilder::new(Scenario::MultiCnn)
///     .num_requests(40)
///     .samples_per_variant(4)
///     .seed(1)
///     .build();
/// let tracer = RingTracer::new(1 << 14);
/// let report = simulate_cluster(w.source(), &mut policy, &pool, &tracer);
/// assert_eq!(report.completed_total(), 40);
/// assert!(tracer.validate().is_ok());
///
/// // An open-loop stream, untraced.
/// let spec = StreamSpec::steady_poisson(Scenario::MultiCnn, 3.0, 10.0)
///     .num_requests(40)
///     .samples_per_variant(4)
///     .seed(1);
/// let store = spec.build_store();
/// let report = simulate_cluster(spec.source(&store), &mut policy, &pool, NullTracer);
/// assert_eq!(report.completed_total(), 40);
/// ```
pub fn simulate_cluster<'w, S, T>(
    source: S,
    policy: &mut ClusterPolicy,
    config: &ClusterConfig,
    tracer: T,
) -> ClusterReport
where
    S: RequestSource<'w>,
    T: Tracer + Copy,
{
    serve(
        source,
        policy.dispatcher.as_mut(),
        policy.admission.as_ref(),
        policy.steal.as_ref(),
        policy.migration.as_ref(),
        config,
        tracer,
    )
}

/// perfbench's call; ROADMAP item 1's benchmark change deletes it.
///
/// [`simulate_cluster`] with a borrowed dispatcher, the default
/// admission, steal and migration policies, and no tracer.
///
/// # Examples
///
/// ```
/// use dysta_cluster::{simulate_cluster, simulate_cluster_stream, AcceleratorKind};
/// use dysta_cluster::{ClusterConfig, ClusterPolicy, DispatchPolicy};
/// use dysta_core::Policy;
/// use dysta_obs::NullTracer;
/// use dysta_workload::{Scenario, StreamSpec};
///
/// let spec = StreamSpec::steady_poisson(Scenario::MultiCnn, 3.0, 10.0)
///     .num_requests(40)
///     .samples_per_variant(4)
///     .seed(1);
/// let store = spec.build_store();
/// let pool = ClusterConfig::homogeneous(4, AcceleratorKind::EyerissV2, Policy::Dysta);
/// let report = simulate_cluster_stream(
///     spec.source(&store),
///     DispatchPolicy::JoinShortestQueue.build().as_mut(),
///     &pool,
/// );
/// assert_eq!(report.completed_total(), 40);
///
/// let mut policy = ClusterPolicy::from_dispatch(DispatchPolicy::JoinShortestQueue);
/// let folded = simulate_cluster(spec.source(&store), &mut policy, &pool, NullTracer);
/// assert_eq!(report, folded);
/// ```
#[doc(hidden)]
pub fn simulate_cluster_stream<'w, S: RequestSource<'w>>(
    source: S,
    dispatcher: &mut dyn Dispatcher,
    config: &ClusterConfig,
) -> ClusterReport {
    // A borrowed dispatcher cannot go into a `ClusterPolicy`, which owns
    // its members, so this forward calls the body with the default
    // admission, steal and migration policies `ClusterPolicy::new` adds.
    serve(
        source,
        dispatcher,
        &AdmitAll::new(),
        &BacklogGainSteal::new(),
        &BacklogThresholdMigration::new(),
        config,
        NullTracer,
    )
}

/// perfbench's call; ROADMAP item 1's benchmark change deletes it.
#[doc(hidden)]
pub fn simulate_cluster_stream_with<'w, S: RequestSource<'w>>(
    source: S,
    policy: &mut ClusterPolicy,
    config: &ClusterConfig,
) -> ClusterReport {
    simulate_cluster(source, policy, config, NullTracer)
}

/// perfbench's call; ROADMAP item 1's benchmark change deletes it.
///
/// [`simulate_cluster`] over a materialized workload.
///
/// # Examples
///
/// ```
/// use dysta_cluster::{simulate_cluster, simulate_cluster_traced, ClusterConfig, ClusterPolicy};
/// use dysta_cluster::{AcceleratorKind, DispatchPolicy};
/// use dysta_core::Policy;
/// use dysta_obs::{NullTracer, RingTracer};
/// use dysta_workload::{Scenario, WorkloadBuilder};
///
/// let w = WorkloadBuilder::new(Scenario::MultiCnn)
///     .num_requests(20)
///     .samples_per_variant(4)
///     .seed(1)
///     .build();
/// let pool = ClusterConfig::homogeneous(2, AcceleratorKind::EyerissV2, Policy::Dysta);
/// let tracer = RingTracer::new(1 << 14);
/// let mut policy = ClusterPolicy::from_dispatch(DispatchPolicy::LeastLoaded);
/// let report = simulate_cluster_traced(&w, &mut policy, &pool, &tracer);
/// assert_eq!(report.completed_total(), 20);
/// assert!(tracer.validate().is_ok());
///
/// let mut policy = ClusterPolicy::from_dispatch(DispatchPolicy::LeastLoaded);
/// assert_eq!(report, simulate_cluster(w.source(), &mut policy, &pool, NullTracer));
/// ```
#[doc(hidden)]
pub fn simulate_cluster_traced<T: Tracer + Copy>(
    workload: &Workload,
    policy: &mut ClusterPolicy,
    config: &ClusterConfig,
    tracer: T,
) -> ClusterReport {
    simulate_cluster(workload.source(), policy, config, tracer)
}

/// The body of [`simulate_cluster`], over the policy bundle's members.
fn serve<'w, S, T>(
    mut source: S,
    dispatcher: &mut dyn Dispatcher,
    admission_policy: &dyn AdmissionPolicy,
    steal_policy: &dyn StealPolicy,
    migration_policy: &dyn MigrationPolicy,
    config: &ClusterConfig,
    tracer: T,
) -> ClusterReport
where
    S: RequestSource<'w>,
    T: Tracer + Copy,
{
    assert!(
        source.peek_arrival_ns().is_some(),
        "workload must contain requests"
    );
    // Every range invariant — node knobs, front-end, transfer cost — is
    // checked once here, so hand-assembled configs cannot reach the
    // engine unvalidated.
    config.validate();

    // The run's one LUT: every node and the front end borrow it.
    let lut = ModelInfoLut::from_store(source.store());
    let predictor = SparseLatencyPredictor::default();
    let nodes: Vec<NodeEngine<'_, Box<dyn dysta_core::Scheduler>, T>> = config
        .nodes
        .iter()
        .enumerate()
        .map(|(id, nc)| {
            if tracer.enabled() {
                let mut name = String::new();
                use std::fmt::Write as _;
                write!(name, "node{id} {:?}", nc.accelerator).expect("write to String");
                tracer.name_node(id as u32, &name);
            }
            NodeEngine::with_tracer(id, nc.policy.build(), EngineConfig::default(), &lut, tracer)
        })
        .collect();

    let mut frontend = Frontend {
        source,
        config,
        dispatcher,
        admission_policy,
        steal_policy,
        migration_policy,
        lut: &lut,
        predictor,
        nodes,
        ledger: vec![Ledger::default(); config.nodes.len()],
        serving: ServingStats::default(),
        live_requests: HashMap::new(),
        last_arrival_ns: 0,
        fault_timeline: fault_timeline(&config.faults.schedule),
        next_fault: 0,
        live: Vec::new(),
        view_cache: Vec::new(),
        view_epoch: vec![u64::MAX; config.nodes.len()],
        tracer,
        labels: VariantLabels::new(lut.len()),
    };
    frontend.run();
    frontend.into_report()
}

/// Event kinds, in processing priority at equal timestamps: arrivals
/// join the admission queue before the queue flushes, fault edges
/// land before the queue flushes (a batch dispatched at crash time must
/// see the post-crash pool), dispatch happens before rebalancing, and
/// migration (which needs backlogged *and* underloaded nodes) runs
/// before stealing (which needs idle ones).
const EV_ARRIVAL: u8 = 0;
const EV_FAULT: u8 = 1;
const EV_DISPATCH: u8 = 2;
const EV_MIGRATE: u8 = 3;
const EV_STEAL: u8 = 4;

/// Number of distinct event kinds (one armed deadline slot each).
const EV_KINDS: usize = 5;

/// The front-end's pending deadlines: at most one armed instant per
/// event kind.
#[derive(Default)]
struct EventQueue {
    /// The armed instant per kind; `None` = disarmed.
    armed: [Option<u64>; EV_KINDS],
}

impl EventQueue {
    /// Arms `kind` at `t` (disarms it when `t` is `None`).
    fn arm(&mut self, kind: u8, t: Option<u64>) {
        self.armed[kind as usize] = t;
    }

    /// Pops the earliest armed `(t, kind)` (kind-priority tie-break at
    /// equal instants), disarming it. `None` when nothing is armed.
    fn pop(&mut self) -> Option<(u64, u8)> {
        let (t, kind) = (0..EV_KINDS as u8)
            .filter_map(|kind| self.armed[kind as usize].map(|t| (t, kind)))
            .min()?;
        self.armed[kind as usize] = None;
        Some((t, kind))
    }
}

/// Expands a validated schedule into its time-sorted edges: every
/// entry opens at `at_ns`, and a transient crash or a window also has a
/// closing edge (`true`) at its recovery or window end. The sort is
/// stable, so same-instant edges apply in schedule-entry order.
fn fault_timeline(schedule: &FaultSchedule) -> Vec<(u64, FaultEvent, bool)> {
    let mut timeline: Vec<_> = schedule
        .events
        .iter()
        .flat_map(|&ev| {
            let end = match ev.kind {
                FaultKind::Crash => None,
                FaultKind::TransientCrash { down_until_ns } => Some(down_until_ns),
                FaultKind::Brownout { until_ns, .. }
                | FaultKind::TransferStall { until_ns, .. } => Some(until_ns),
            };
            std::iter::once((ev.at_ns, ev, false)).chain(end.map(|t| (t, ev, true)))
        })
        .collect();
    timeline.sort_by_key(|&(t, ..)| t);
    timeline
}

/// The front-end's live fault state for one node. Window ends carry
/// the closing instant so a closing edge from an *earlier* touching
/// window cannot clear a later one (and an expired transient recovery
/// cannot revive a node a permanent crash took down in the meantime).
#[derive(Debug, Clone, Copy, Default)]
struct HealthState {
    down: bool,
    down_until_ns: Option<u64>,
    brownout: Option<(f64, u64)>,
    stall: Option<(f64, u64)>,
}

impl HealthState {
    /// The [`NodeHealth`] policies see, given the node's configured
    /// capacity: a brown-out discounts capacity, a crash dominates.
    fn as_node_health(&self, configured_capacity: f64) -> NodeHealth {
        if self.down {
            NodeHealth::Down {
                until_ns: self.down_until_ns,
            }
        } else if let Some((factor, _)) = self.brownout {
            NodeHealth::Degraded {
                capacity: configured_capacity * factor,
            }
        } else {
            NodeHealth::Up
        }
    }
}

/// One node's front-end accounting: the [`NodeReport`] counters and the
/// node's live fault state.
#[derive(Clone, Default)]
struct Ledger {
    routed: usize,
    rejected: usize,
    degraded: usize,
    transferred_in: usize,
    transferred_out: usize,
    transfer_fetch_ns: u64,
    failed: usize,
    reneged: usize,
    /// Cursor into [`NodeEngine::completed_since`]: completions already
    /// evicted from the live-request table.
    completed_seen: usize,
    /// Updated by [`Frontend::fault_tick`].
    health: HealthState,
}

/// A thief's steal-pricing class (see [`Frontend::steal_class`]):
/// accelerator and capacity bits, and the bits of any open brown-out and
/// transfer-stall factor.
type StealClass = (AcceleratorKind, u64, Option<u64>, Option<u64>);

/// One admitted request's front-end bookkeeping, kept only while the
/// request is in flight (inserted at admission, removed when its
/// completion is observed — or immediately on failure/renege). The
/// stored request is the *original* admitted class: salvage, migration,
/// and steal re-dispatch consult it exactly as the historical
/// id-indexed slice did, with degradation applied only at the node.
struct LiveEntry {
    request: Request,
    /// Rebalance moves applied so far (bounded by
    /// [`crate::MigrationConfig::max_per_request`]).
    migrations: u32,
    /// Crash-salvage retries applied so far (bounded by
    /// [`crate::RecoveryConfig::max_retries`]).
    retries: u32,
}

struct Frontend<'c, S, T> {
    source: S,
    config: &'c ClusterConfig,
    dispatcher: &'c mut dyn Dispatcher,
    admission_policy: &'c dyn AdmissionPolicy,
    steal_policy: &'c dyn StealPolicy,
    migration_policy: &'c dyn MigrationPolicy,
    /// The run's one LUT, also lent to every node.
    lut: &'c ModelInfoLut,
    predictor: SparseLatencyPredictor,
    nodes: Vec<NodeEngine<'c, Box<dyn dysta_core::Scheduler>, T>>,
    /// One entry per node, indexed like `nodes`.
    ledger: Vec<Ledger>,
    /// The run-wide statistics the report carries, filled as the run
    /// goes.
    serving: ServingStats,
    /// In-flight requests keyed by id: admitted but not yet observed
    /// complete. This is the only per-request state the front-end holds,
    /// so memory tracks the pool's backlog, not the trace length.
    live_requests: HashMap<u64, LiveEntry>,
    /// Newest arrival timestamp handed out by the source; once the
    /// stream is exhausted this is the tail-flush deadline.
    last_arrival_ns: u64,
    /// The schedule's time-sorted fault edges (see [`fault_timeline`]).
    fault_timeline: Vec<(u64, FaultEvent, bool)>,
    /// Cursor into `fault_timeline`: the first unapplied edge.
    next_fault: usize,
    /// Ids of nodes not known to be drained, ascending. A conservative
    /// superset of the truly-busy nodes: entries join when the
    /// front-end hands a node work and leave when [`Frontend::prune_live`]
    /// observes them drained. Every per-tick pass walks this set
    /// instead of all N nodes — a drained node's `run_until` is a
    /// no-op and a drained node holds nothing to migrate or steal, so
    /// idle nodes cost nothing.
    live: Vec<usize>,
    /// Cached per-node dispatch views, refreshed lazily by
    /// [`Frontend::refresh_views`]. Empty until the first refresh.
    view_cache: Vec<NodeView>,
    /// The [`NodeEngine::mutation_epoch`] each cached view was computed
    /// at. `u64::MAX` forces a rebuild — fault edits use it, because
    /// node health lives on the front-end, outside the node's epoch.
    view_epoch: Vec<u64>,
    tracer: T,
    /// Interned label id per model variant.
    labels: VariantLabels,
}

impl<'w: 'c, 'c, S: RequestSource<'w>, T: Tracer + Copy> Frontend<'c, S, T> {
    /// The original (pre-degrade) admitted request for a live id.
    /// `Request` is `Copy`, so this hands out an owned value and leaves
    /// `self` free for further mutation.
    fn live_request(&self, id: u64) -> Request {
        self.live_requests
            .get(&id)
            .expect("request is live")
            .request
    }

    /// Records one per-node queue/backlog re-projection per rebalance
    /// tick (the live signal admission and migration reason from).
    fn record_slack_projections(&self, views: &[NodeView], t: u64) {
        if !self.tracer.enabled() {
            return;
        }
        for view in views {
            self.tracer.record(TraceEvent {
                t_ns: t,
                request: REQ_NONE,
                node: view.id as u32,
                kind: EventKind::SlackProjection,
                a: view.queue_len as u64,
                b: view.lut_backlog_ns as i64,
            });
        }
    }

    fn run(&mut self) {
        let fe: FrontendConfig = self.config.frontend;
        let mut queue: VecDeque<Request> = VecDeque::new();
        // Set when the admission timer is armed: oldest queued arrival
        // plus the admission interval.
        let mut timer_deadline: Option<u64> = None;
        let mut next_migration = fe.migration.map(|m| m.period_ns);
        let mut next_steal = fe.steal.map(|s| s.period_ns);
        let mut events = EventQueue::default();

        loop {
            let arrival = self.source.peek_arrival_ns();
            let feeding = arrival.is_some() || !queue.is_empty();
            if !feeding {
                // Every request is placed: drop the nodes a crash, renege
                // or steal left drained, so the ticks stop once the pool
                // has. (While feeding the ticks stay armed anyway, and
                // every handler that advances a node prunes after it.)
                self.prune_live();
            }
            let deadline = if queue.is_empty() {
                None
            } else if arrival.is_none() && timer_deadline.is_none() {
                // No more arrivals can ever fill the batch: flush the
                // remainder at its newest (= the stream's last) arrival.
                Some(self.last_arrival_ns)
            } else {
                timer_deadline
            };
            // Once every request is placed, ticks keep firing only while
            // a node holds work (an idle node may still steal the tail of
            // a backlogged peer's queue); fault edges that outlive the
            // stream still replay, so crashes salvage, windows close and
            // transient nodes recover.
            let ticking = feeding || !self.live.is_empty();
            events.arm(EV_ARRIVAL, arrival);
            events.arm(EV_FAULT, self.next_fault_deadline());
            events.arm(EV_DISPATCH, deadline);
            events.arm(EV_MIGRATE, next_migration.filter(|_| ticking));
            events.arm(EV_STEAL, next_steal.filter(|_| ticking));
            let Some((t, kind)) = events.pop() else {
                break;
            };

            match kind {
                EV_ARRIVAL => {
                    let request = self
                        .source
                        .next_request()
                        .expect("peeked arrival has a request");
                    debug_assert!(
                        request.arrival_ns >= self.last_arrival_ns,
                        "request sources must yield monotone arrivals"
                    );
                    // Every later path indexes by the request's variant
                    // id: check once, here, that it names the spec.
                    request.assert_variant_in(self.source.store());
                    if queue.is_empty() && fe.admit_interval_ns > 0 {
                        // A deadline past the end of the clock never
                        // fires: the timer stays unset.
                        timer_deadline = t.checked_add(fe.admit_interval_ns);
                    }
                    if self.tracer.enabled() {
                        let label = self.labels.id(&self.tracer, &request);
                        self.tracer.record(TraceEvent {
                            t_ns: t,
                            request: request.id,
                            node: NODE_FRONTEND,
                            kind: EventKind::Arrival,
                            a: u64::from(label),
                            b: request.slo_ns.min(i64::MAX as u64) as i64,
                        });
                    }
                    self.last_arrival_ns = request.arrival_ns;
                    queue.push_back(request);
                    if queue.len() >= fe.admit_batch {
                        self.dispatch_batch(&mut queue, t);
                        timer_deadline = None;
                    }
                }
                EV_FAULT => self.fault_tick(t),
                EV_DISPATCH => {
                    self.dispatch_batch(&mut queue, t);
                    timer_deadline = None;
                }
                EV_MIGRATE => next_migration = self.rebalance_tick(EV_MIGRATE, t),
                EV_STEAL => next_steal = self.rebalance_tick(EV_STEAL, t),
                _ => unreachable!(),
            }
        }
        for node in &mut self.nodes {
            node.run_to_completion();
        }
    }

    /// One migrate or steal tick at sim-time `t`: advance the pool,
    /// run the pass, and return the tick's re-armed next deadline —
    /// `None` once it would lie past the end of the clock, so the tick
    /// stops.
    fn rebalance_tick(&mut self, kind: u8, t: u64) -> Option<u64> {
        self.sync_nodes(t);
        // Front-end phase timing starts after the node sync, so node
        // execution (its own pick/execute phases) is not double-counted.
        let t0 = self.tracer.profiling().then(std::time::Instant::now);
        let mut views = std::mem::take(&mut self.view_cache);
        self.refresh_views(&mut views);
        self.record_slack_projections(&views, t);
        let fe = self.config.frontend;
        let next = if kind == EV_MIGRATE {
            self.migration_pass(t, &mut views);
            t.checked_add(fe.migration.expect("tick implies config").period_ns)
        } else {
            self.steal_pass(t, &mut views);
            t.checked_add(fe.steal.expect("tick implies config").period_ns)
        };
        self.view_cache = views;
        if let Some(t0) = t0 {
            self.tracer
                .phase_ns(Phase::Frontend, t0.elapsed().as_nanos() as u64);
        }
        next
    }

    /// Advances every node that may hold work up to sim-time `t` so
    /// front-end observations are causal. Drained nodes are skipped —
    /// their `run_until` is a no-op that leaves the clock untouched
    /// (the dispatch seam re-floors a stale idle clock at the decision
    /// instant), so the skip is bit-exact — and observed-drained nodes
    /// are pruned from the live set on the way out.
    fn sync_nodes(&mut self, t: u64) {
        for &id in &self.live {
            self.nodes[id].run_until(t);
        }
        self.prune_live();
    }

    /// Drops every now-drained node from the live set, restoring the
    /// invariant `live == {nodes with unfinished work}` (between
    /// front-end actions the set is a conservative superset), and
    /// evicts every newly observed completion from the live-request
    /// table. Eviction runs on each node sync, so the table tracks the
    /// pool's in-flight backlog rather than the trace length — the
    /// memory contract streaming sources rely on.
    fn prune_live(&mut self) {
        for &node_id in &self.live {
            let node = &self.nodes[node_id];
            let seen = &mut self.ledger[node_id].completed_seen;
            if node.completed_count() > *seen {
                for completed in node.completed_since(*seen) {
                    self.live_requests.remove(&completed.id);
                }
                *seen = node.completed_count();
            }
        }
        let nodes = &self.nodes;
        self.live.retain(|&id| !nodes[id].is_drained());
        // Debug builds check the live set, the completion cursors and
        // the live-request table against a walk over every node: a node
        // handed work without `mark_live` would never advance, a cursor
        // behind its node would keep finished requests in the table,
        // and a renege or failure that skipped its removal would too.
        #[cfg(debug_assertions)]
        {
            let busy: Vec<usize> = (0..self.nodes.len())
                .filter(|&id| !self.nodes[id].is_drained())
                .collect();
            assert_eq!(self.live, busy, "live set is not the busy nodes");
            for (id, node) in self.nodes.iter().enumerate() {
                assert_eq!(
                    self.ledger[id].completed_seen,
                    node.completed_count(),
                    "node {id}'s completion cursor is stale"
                );
            }
            // The live-request table holds exactly the requests some
            // node queues: dispatched, and not yet completed, failed or
            // reneged.
            let mut live: Vec<u64> = self.live_requests.keys().copied().collect();
            let mut queued: Vec<u64> = self
                .nodes
                .iter()
                .flat_map(|node| node.queued_tasks().map(|(task, _)| task.id))
                .collect();
            live.sort_unstable();
            queued.sort_unstable();
            assert_eq!(
                live, queued,
                "live-request table is not the queued requests"
            );
        }
    }

    /// Lands `transfer`, withdrawn from `src`, on `dst` at sim-time `t`
    /// — the one move path crash salvage, migration and stealing share.
    /// The task runs at `dst`'s [dispatch scale](Frontend::dispatch_scale)
    /// for its family and pays [`Frontend::fetch_ns`] there, which this
    /// returns.
    fn move_task(&mut self, src: usize, dst: usize, transfer: TransferableTask<'c>, t: u64) -> u64 {
        let task = transfer.task();
        let fetch_ns = self.fetch_ns(src, dst, task.variant);
        let scale = self.dispatch_scale(dst, task.spec.model.family());
        self.nodes[dst].accept_transfer(transfer, scale, t, fetch_ns);
        self.mark_live(dst);
        self.ledger[src].transferred_out += 1;
        self.ledger[dst].transferred_in += 1;
        self.ledger[dst].transfer_fetch_ns += fetch_ns;
        fetch_ns
    }

    /// Marks `node` as holding work (idempotent; keeps `live` sorted).
    fn mark_live(&mut self, node: usize) {
        if let Err(i) = self.live.binary_search(&node) {
            self.live.insert(i, node);
        }
    }

    /// The smallest live node id strictly greater than `prev` (`None`
    /// starts from the beginning). Robust to insertions and removals
    /// between calls — the per-source rebalance loops use it as a
    /// cursor so a node handed work mid-pass is still visited when the
    /// ascending sweep reaches its id, exactly as the historical
    /// `0..n` scan did.
    fn next_live_after(&self, prev: Option<usize>) -> Option<usize> {
        let i = match prev {
            None => 0,
            Some(p) => match self.live.binary_search(&p) {
                Ok(i) => i + 1,
                Err(i) => i,
            },
        };
        self.live.get(i).copied()
    }

    /// The instant of the first unapplied fault edge (`None` once the
    /// schedule — empty or not — is fully replayed).
    fn next_fault_deadline(&self) -> Option<u64> {
        self.fault_timeline.get(self.next_fault).map(|&(t, ..)| t)
    }

    /// Applies every fault edge scheduled at sim-time `t`: crashes
    /// (with salvage-and-redispatch), transient recoveries, and
    /// brown-out / transfer-stall window edges. Nodes are synced first
    /// so a crash sees exactly the queue a real failure would strand.
    fn fault_tick(&mut self, t: u64) {
        self.sync_nodes(t);
        let t0 = self.tracer.profiling().then(std::time::Instant::now);
        while let Some(&(at, event, closing)) = self.fault_timeline.get(self.next_fault) {
            if at != t {
                break;
            }
            self.next_fault += 1;
            self.apply_fault_edge(t, event, closing);
        }
        if let Some(t0) = t0 {
            self.tracer
                .phase_ns(Phase::Frontend, t0.elapsed().as_nanos() as u64);
        }
    }

    /// Applies one edge of `event`: its opening edge, or with `closing`
    /// its transient recovery or window end.
    fn apply_fault_edge(&mut self, t: u64, event: FaultEvent, closing: bool) {
        let node = event.node;
        // Health lives on the front-end, outside the node engine's
        // mutation epoch: force the touched node's cached view stale
        // so the next refresh re-reads its health (even for the
        // conditional closing edges — a spurious recompute is
        // value-identical, a missed one is not).
        self.view_epoch[node] = u64::MAX;
        let health = &mut self.ledger[node].health;
        match (event.kind, closing) {
            (FaultKind::Crash, _) => self.crash_node(t, node, None),
            (FaultKind::TransientCrash { down_until_ns }, false) => {
                self.crash_node(t, node, Some(down_until_ns));
            }
            (FaultKind::TransientCrash { .. }, true) => {
                // Only the recovery matching the *current* down window
                // may revive the node: a permanent crash (or a longer
                // transient one) taken in the meantime wins.
                if health.down && health.down_until_ns == Some(t) {
                    health.down = false;
                    health.down_until_ns = None;
                    if self.tracer.enabled() {
                        self.tracer.record(TraceEvent {
                            t_ns: t,
                            request: REQ_NONE,
                            node: node as u32,
                            kind: EventKind::NodeUp,
                            a: 0,
                            b: 0,
                        });
                    }
                }
            }
            (
                FaultKind::Brownout {
                    until_ns,
                    capacity_factor: factor,
                }
                | FaultKind::TransferStall { until_ns, factor },
                _,
            ) => {
                let (window, kind) = if matches!(event.kind, FaultKind::Brownout { .. }) {
                    (&mut health.brownout, EventKind::Brownout)
                } else {
                    (&mut health.stall, EventKind::TransferStall)
                };
                if !closing {
                    *window = Some((factor, until_ns));
                    self.record_window_edge(t, node, kind, factor, until_ns);
                } else if window.map(|(_, u)| u) == Some(t) {
                    *window = None;
                    self.record_window_edge(t, node, kind, 1.0, 0);
                }
            }
        }
    }

    /// One [`EventKind::Brownout`] or [`EventKind::TransferStall`] edge:
    /// factor in parts-per-million (1 000 000 = nominal, also the closing
    /// edge), window end in `b`.
    fn record_window_edge(&self, t: u64, node: usize, kind: EventKind, factor: f64, until_ns: u64) {
        if !self.tracer.enabled() {
            return;
        }
        self.tracer.record(TraceEvent {
            t_ns: t,
            request: REQ_NONE,
            node: node as u32,
            kind,
            a: (factor * 1e6).round() as u64,
            b: until_ns as i64,
        });
    }

    /// Takes `crashed` down at sim-time `t` and salvages its stranded
    /// queue: every request still on the node (queued or mid-run) is
    /// pulled off and re-dispatched to a live peer as a from-scratch
    /// retry — executed work on the dead node is lost
    /// ([`RecoveryStats::lost_busy_ns`]), an in-flight request restarts
    /// from layer 0 elsewhere. A request out of retry budget (or with
    /// salvage disabled, or with no live node left) is recorded as
    /// *failed* — never silently dropped.
    fn crash_node(&mut self, t: u64, crashed: usize, until_ns: Option<u64>) {
        let hs = &mut self.ledger[crashed].health;
        // A crash landing on a node that is already down keeps the later
        // recovery; a permanent crash (`None`) dominates either way.
        hs.down_until_ns = if hs.down {
            hs.down_until_ns.zip(until_ns).map(|(a, b)| a.max(b))
        } else {
            until_ns
        };
        hs.down = true;
        let until_ns = hs.down_until_ns;
        self.serving.recovery.crashes += 1;
        let salvaged = self.nodes[crashed].crash_salvage();
        self.serving.recovery.lost_busy_ns += salvaged.iter().map(|&(_, lost)| lost).sum::<u64>();
        if self.tracer.enabled() {
            self.tracer.record(TraceEvent {
                t_ns: t,
                request: REQ_NONE,
                node: crashed as u32,
                kind: EventKind::NodeDown,
                a: salvaged.len() as u64,
                b: until_ns.map_or(-1, |u| u.min(i64::MAX as u64) as i64),
            });
        }
        let recovery_cfg = self.config.faults.recovery;
        let mut views = std::mem::take(&mut self.view_cache);
        for (transfer, lost_ns) in salvaged {
            let id = transfer.task().id;
            self.serving.recovery.salvaged += 1;
            if self.tracer.enabled() {
                self.tracer.record(TraceEvent {
                    t_ns: t,
                    request: id,
                    node: crashed as u32,
                    kind: EventKind::Salvage,
                    a: u64::from(self.live_requests[&id].retries),
                    b: lost_ns as i64,
                });
            }
            if !recovery_cfg.salvage || self.live_requests[&id].retries >= recovery_cfg.max_retries
            {
                self.fail_request(t, id, crashed);
                continue;
            }
            // Routing consults the live table's original request; the
            // salvaged task keeps the deadline class it was admitted
            // under (relaxed, if admission degraded it).
            let request = self.live_request(id);
            self.refresh_views(&mut views);
            let ctx = DispatchContext::new(t, &views, self.lut, &self.config.transfer_cost);
            let target = self.dispatcher.dispatch(&request, &ctx);
            self.check_target(target);
            if !views[target].health.accepts_work() {
                // Every node is down: nothing can host the retry.
                self.fail_request(t, id, crashed);
                continue;
            }
            let fetch_ns = self.move_task(crashed, target, transfer, t);
            self.live_requests
                .get_mut(&id)
                .expect("request is live")
                .retries += 1;
            self.serving.recovery.retries += 1;
            if self.tracer.enabled() {
                self.tracer.record(TraceEvent {
                    t_ns: t,
                    request: id,
                    node: target as u32,
                    kind: EventKind::Retry,
                    a: crashed as u64,
                    b: fetch_ns as i64,
                });
            }
        }
        self.view_cache = views;
    }

    /// Records an unsalvageable request against `node`: it stays in the
    /// admitted population ([`NodeReport::routed`]) but never completes,
    /// so conservation closes through [`NodeReport::failed`].
    fn fail_request(&mut self, t: u64, id: u64, node: usize) {
        let entry = self.live_requests.remove(&id);
        self.ledger[node].failed += 1;
        if self.tracer.enabled() {
            self.tracer.record(TraceEvent {
                t_ns: t,
                request: id,
                node: node as u32,
                kind: EventKind::Failed,
                a: u64::from(entry.map_or(0, |e| e.retries)),
                b: 0,
            });
        }
    }

    /// The service scale `family` pays when dispatched to `target`
    /// *right now*: the configured [`crate::NodeConfig::effective_scale`]
    /// with capacity discounted by any open brown-out window (bit-exact
    /// with the plain config scale when none is). Work already queued
    /// keeps the scale it was enqueued with — a brown-out prices
    /// dispatches made during the window, it does not re-time the queue.
    fn dispatch_scale(&self, target: usize, family: ModelFamily) -> f64 {
        let nc = &self.config.nodes[target];
        match self.ledger[target].health.brownout {
            Some((factor, _)) => {
                crate::config::effective_scale(nc.accelerator.serves(family), nc.capacity * factor)
            }
            None => nc.effective_scale(family),
        }
    }

    /// The re-fetch cost of moving a `variant` task from `src` to `dst`
    /// right now: the pool's [`crate::TransferCostConfig`] estimate,
    /// inflated by any transfer-stall window covering either endpoint —
    /// the slower side bounds the transfer, so overlapping stalls take
    /// the larger factor. 0 under free transfers.
    fn fetch_ns(&self, src: usize, dst: usize, variant: VariantId) -> u64 {
        let cost = &self.config.transfer_cost;
        if cost.is_free() {
            return 0;
        }
        let fetch_ns = cost.estimate_ns(self.lut.info(variant).avg_latency_ns());
        let factor = |i: usize| self.ledger[i].health.stall.map(|(f, _)| f);
        match (factor(src), factor(dst)) {
            (None, None) => fetch_ns,
            (a, b) => scale_ns(fetch_ns, a.unwrap_or(1.0).max(b.unwrap_or(1.0))),
        }
    }

    /// One causal snapshot of node `i` — computed exactly as the
    /// historical full-pool pass did (same summation order over the
    /// node's queue, so estimates are bit-stable), reading nothing but
    /// this node's state, its config, and its front-end health.
    fn view_of(&self, i: usize) -> NodeView {
        let node = &self.nodes[i];
        let nc = &self.config.nodes[i];
        let mut lut_backlog_ns = 0.0;
        let mut predicted_backlog_ns = 0.0;
        for (task, scale) in node.queued_tasks() {
            let info = self.lut.info(task.variant);
            lut_backlog_ns += info.avg_remaining_ns(task.next_layer) * scale;
            predicted_backlog_ns += self.predictor.remaining_ns(task, info) * scale;
        }
        NodeView {
            id: node.id(),
            accelerator: nc.accelerator,
            capacity: nc.capacity,
            now_ns: node.now_ns(),
            queue_len: node.queue_len(),
            lut_backlog_ns,
            predicted_backlog_ns,
            health: self.ledger[i].health.as_node_health(nc.capacity),
        }
    }

    /// Brings `views` up to the current causal snapshot, recomputing
    /// only the nodes whose [`NodeEngine::mutation_epoch`] moved (or
    /// whose cached epoch was force-staled by a fault edit) since the
    /// cached view was taken. Because [`Frontend::view_of`] is a pure
    /// function of exactly the state the epoch covers, the refreshed
    /// slice is value-identical to a from-scratch build of every node
    /// — pinned by the golden fixtures.
    fn refresh_views(&mut self, views: &mut Vec<NodeView>) {
        if views.len() != self.nodes.len() {
            // First use (the cache starts empty): build everything.
            views.clear();
            views.extend((0..self.nodes.len()).map(|i| self.view_of(i)));
            for (i, slot) in self.view_epoch.iter_mut().enumerate() {
                *slot = self.nodes[i].mutation_epoch();
            }
            return;
        }
        for (i, view) in views.iter_mut().enumerate() {
            let epoch = self.nodes[i].mutation_epoch();
            if self.view_epoch[i] != epoch {
                *view = self.view_of(i);
                self.view_epoch[i] = epoch;
            }
        }
        // A mutation that skips its epoch bump leaves a stale view that
        // the goldens may not exercise; debug builds catch it here.
        #[cfg(debug_assertions)]
        for (i, view) in views.iter().enumerate() {
            let fresh = self.view_of(i);
            let bits = |v: &NodeView| {
                [v.capacity, v.lut_backlog_ns, v.predicted_backlog_ns].map(f64::to_bits)
            };
            assert!(
                *view == fresh && bits(view) == bits(&fresh),
                "stale cached view of node {i}: cached {view:?}, rebuilt {fresh:?}"
            );
        }
    }

    /// Panics when the dispatcher returned an out-of-range node index.
    fn check_target(&self, target: usize) {
        assert!(
            target < self.nodes.len(),
            "dispatcher `{}` returned out-of-range node {target}",
            self.dispatcher.name()
        );
    }

    /// Flushes the admission queue at sim-time `t`: gates every queued
    /// request through the [`AdmissionPolicy`] and routes the admitted
    /// ones in arrival order, recomputing node views between requests
    /// so one batch spreads over the pool instead of dog-piling the
    /// momentarily-emptiest node. Execution is floored at `t` — a
    /// request held back by admission batching cannot start before the
    /// instant it was dispatched, so the recorded admission wait is real
    /// delay, not bookkeeping — and admission is evaluated at `t` too,
    /// so a deadline lost while the batch filled counts against the
    /// request.
    ///
    /// A rejected request never reaches any [`NodeEngine`]: it is
    /// attributed (via the read-only [`Dispatcher::peek`], so the
    /// rejection cannot perturb how subsequent admissions are routed)
    /// to the node that would have served it and dropped. A degraded
    /// request is re-classed to its relaxed SLO before routing, with
    /// the original SLO recorded for the report's goodput accounting.
    fn dispatch_batch(&mut self, queue: &mut VecDeque<Request>, t: u64) {
        self.sync_nodes(t);
        // Front-end phase timing starts after the node sync, so node
        // execution (its own pick/execute phases) is not double-counted.
        let t0 = self.tracer.profiling().then(std::time::Instant::now);
        let admission_cfg = self.config.frontend.admission;
        let mut views = std::mem::take(&mut self.view_cache);
        while let Some(original) = queue.pop_front() {
            let id = original.id;
            let wait_ns = t - original.arrival_ns;
            self.refresh_views(&mut views);
            let ctx = DispatchContext::new(t, &views, self.lut, &self.config.transfer_cost);
            let decision = self
                .admission_policy
                .decide(&original, &ctx, &admission_cfg);
            if decision == AdmissionDecision::Reject {
                let would_serve = self.dispatcher.peek(&original, &ctx);
                self.check_target(would_serve);
                self.ledger[would_serve].rejected += 1;
                if self.tracer.enabled() {
                    self.tracer.record(TraceEvent {
                        t_ns: t,
                        request: id,
                        node: NODE_FRONTEND,
                        kind: EventKind::AdmitReject,
                        a: wait_ns,
                        b: 0,
                    });
                }
                continue;
            }
            // Track the admitted request while it is in flight (inlined
            // rather than a `&mut self` helper so the `ctx` borrow of
            // `config` stays field-disjoint). Sources mint unique
            // ids and completed/failed ids are never re-admitted, so
            // the insert never displaces an entry.
            let prev = self.live_requests.insert(
                id,
                LiveEntry {
                    request: original,
                    migrations: 0,
                    retries: 0,
                },
            );
            debug_assert!(prev.is_none(), "request id admitted twice");
            self.serving.peak_live_requests = self
                .serving
                .peak_live_requests
                .max(self.live_requests.len());
            let request = if decision == AdmissionDecision::Degrade {
                self.serving.degraded_slo_ns.push((id, original.slo_ns));
                original.relax_slo(admission_cfg.degrade_slo_multiplier)
            } else {
                original
            };
            if self.tracer.enabled() {
                let (kind, relaxed_slo) = if decision == AdmissionDecision::Degrade {
                    (
                        EventKind::AdmitDegrade,
                        request.slo_ns.min(i64::MAX as u64) as i64,
                    )
                } else {
                    (EventKind::Admit, 0)
                };
                self.tracer.record(TraceEvent {
                    t_ns: t,
                    request: id,
                    node: NODE_FRONTEND,
                    kind,
                    a: wait_ns,
                    b: relaxed_slo,
                });
            }
            let target = self.dispatcher.dispatch(&request, &ctx);
            self.check_target(target);
            if decision == AdmissionDecision::Degrade {
                self.ledger[target].degraded += 1;
            }
            if !views[target].health.accepts_work() {
                // Dispatchers only pick a down node when the whole pool
                // is down: the request is admitted (it counts against
                // `routed`) but has nowhere to run — fail it at the
                // door instead of queueing on a dead engine.
                self.ledger[target].routed += 1;
                self.serving.admission_wait_total_ns += u128::from(wait_ns);
                self.fail_request(t, id, target);
                continue;
            }
            let scale = self.dispatch_scale(target, request.spec.model.family());
            let trace = self.source.trace_for(&request);
            self.nodes[target].enqueue(&request, trace, scale, t);
            self.mark_live(target);
            self.ledger[target].routed += 1;
            self.serving.admission_wait_total_ns += u128::from(wait_ns);
            if self.tracer.enabled() {
                let deadline = request.arrival_ns.saturating_add(request.slo_ns);
                let slack = if deadline == u64::MAX {
                    i64::MAX // no deadline
                } else {
                    deadline as i64 - t as i64
                };
                self.tracer.record(TraceEvent {
                    t_ns: t,
                    request: id,
                    node: target as u32,
                    kind: EventKind::Dispatch,
                    a: self.nodes[target].queue_len() as u64,
                    b: slack,
                });
            }
        }
        self.view_cache = views;
        if let Some(t0) = t0 {
            self.tracer
                .phase_ns(Phase::Frontend, t0.elapsed().as_nanos() as u64);
        }
    }

    /// The periodic rebalance: the [`MigrationPolicy`] selects which
    /// nodes are behind, their queued, never-started requests are
    /// re-offered to the dispatcher in arrival order, and the policy
    /// accepts or rejects each proposed move (the engine additionally
    /// enforces the per-request migration budget). Candidates are
    /// evaluated through the read-only [`Dispatcher::peek`] path — only
    /// an applied move charges stateful policies, so a pass that moves
    /// nothing cannot perturb how subsequent arrivals are routed. An
    /// applied move pays the transfer cost on the receiving node.
    fn migration_pass(&mut self, t: u64, views: &mut Vec<NodeView>) {
        if self.config.faults.recovery.reneging {
            // Doomed work leaves the queue before the rebalance tries
            // to move it: reneging runs at the migration cadence (no
            // migration tick configured means no reneging sweep).
            self.renege_pass(t, views);
        }
        let cfg = self.config.frontend.migration.expect("pass implies config");
        // One context per view refresh serves the whole pass: it stays
        // valid across rejected candidates and across source nodes
        // (peek and the policy checks are read-only), so the pool mean
        // `should_rebalance` compares against is summed once per
        // refresh. Only an applied move refreshes the views, and the
        // context with them. Only live nodes can hold unstarted work,
        // so the ascending id cursor walks the live set — a node handed
        // work mid-pass is visited when the sweep reaches its id,
        // exactly as the historical all-nodes scan did.
        let mut ctx = DispatchContext::new(t, views, self.lut, &self.config.transfer_cost);
        let mut cursor: Option<usize> = None;
        while let Some(src) = self.next_live_after(cursor) {
            cursor = Some(src);
            // The candidates are already queued on `src`, whose backlog
            // estimates include them — estimate-projecting dispatchers
            // must not charge them there twice.
            ctx.reoffer_src = Some(src);
            // Candidates in arrival order (the active list's order is
            // arbitrary), frozen before any movement from this node.
            let mut candidates: Vec<(u64, u64)> = self.nodes[src]
                .unstarted_tasks()
                .map(|(task, _)| (task.arrival_ns, task.id))
                .collect();
            candidates.sort_unstable();
            for (_, id) in candidates {
                if !self.migration_policy.should_rebalance(src, &ctx, &cfg) {
                    break; // src is no longer behind.
                }
                let migrations_so_far = self.live_requests[&id].migrations;
                if migrations_so_far >= cfg.max_per_request {
                    continue;
                }
                let request = self.live_request(id);
                if self.tracer.enabled() {
                    self.tracer.record(TraceEvent {
                        t_ns: t,
                        request: id,
                        node: src as u32,
                        kind: EventKind::MigrationOffer,
                        a: u64::from(migrations_so_far),
                        b: 0,
                    });
                }
                let target = self.dispatcher.peek(&request, &ctx);
                self.check_target(target);
                if !self
                    .migration_policy
                    .accept(&request, src, target, &ctx, &cfg)
                {
                    if self.tracer.enabled() {
                        self.tracer.record(TraceEvent {
                            t_ns: t,
                            request: id,
                            node: src as u32,
                            kind: EventKind::MigrationReject,
                            a: 0,
                            b: 0,
                        });
                    }
                    continue;
                }
                // The move is real: charge the dispatcher's state from
                // the same snapshot the decision was made on.
                let charged = self.dispatcher.dispatch(&request, &ctx);
                assert_eq!(
                    charged,
                    target,
                    "dispatcher `{}` peek/dispatch disagree on one snapshot",
                    self.dispatcher.name()
                );
                let transfer = self.nodes[src]
                    .take_unstarted(id)
                    .expect("candidate is queued and unstarted");
                let fetch_ns = self.move_task(src, target, transfer, t);
                let entry = self.live_requests.get_mut(&id).expect("request is live");
                entry.migrations += 1;
                let stats = &mut self.serving;
                stats.max_migrations_single_request =
                    stats.max_migrations_single_request.max(entry.migrations);
                stats.migrations += 1;
                if self.tracer.enabled() {
                    self.tracer.record(TraceEvent {
                        t_ns: t,
                        request: id,
                        node: src as u32,
                        kind: EventKind::MigrationAccept,
                        a: target as u64,
                        b: fetch_ns as i64,
                    });
                }
                self.refresh_views(views);
                ctx = DispatchContext::new(t, views, self.lut, &self.config.transfer_cost);
                ctx.reoffer_src = Some(src);
            }
        }
    }

    /// Queue-time reneging: drops queued, never-started requests whose
    /// deadline the projected-slack estimate says is already lost on
    /// *every* live node — its own queue included (the re-offer rule:
    /// the source's backlog already contains it). Serving such a
    /// request could only burn capacity requests with live deadlines
    /// still need. A reneged request stays in the admitted population
    /// and closes conservation through [`NodeReport::reneged`]; a
    /// deadline-free request is never infeasible and never reneges.
    fn renege_pass(&mut self, t: u64, views: &mut Vec<NodeView>) {
        // Only live nodes can hold unstarted work; the id cursor is
        // robust to the removals the pass itself applies. One context
        // serves every candidate until a renege refreshes the views.
        let mut ctx = DispatchContext::new(t, views, self.lut, &self.config.transfer_cost);
        let mut cursor: Option<usize> = None;
        while let Some(src) = self.next_live_after(cursor) {
            cursor = Some(src);
            // Candidates in arrival order, frozen before any removal;
            // the queued task's SLO is carried along so a degraded
            // admission is judged against its relaxed class, and its
            // interned variant so the estimate needs no spec lookup.
            let mut candidates: Vec<(u64, u64, u64, VariantId)> = self.nodes[src]
                .unstarted_tasks()
                .map(|(task, _)| (task.arrival_ns, task.id, task.slo_ns, task.variant))
                .collect();
            candidates.sort_unstable();
            ctx.reoffer_src = Some(src);
            for (arrival_ns, id, slo_ns, variant) in candidates {
                let mut request = self.live_request(id);
                request.slo_ns = slo_ns;
                let est_ns = self.lut.info(variant).avg_latency_ns();
                if !InfeasibleEverywhere::infeasible_everywhere(&request, est_ns, &ctx) {
                    continue;
                }
                let slack =
                    EarliestDeadlineFirst::projected_slack_ns(&request, est_ns, &views[src], &ctx);
                self.nodes[src]
                    .take_unstarted(id)
                    .expect("candidate is queued and unstarted");
                self.live_requests.remove(&id);
                self.ledger[src].reneged += 1;
                if self.tracer.enabled() {
                    self.tracer.record(TraceEvent {
                        t_ns: t,
                        request: id,
                        node: src as u32,
                        kind: EventKind::Renege,
                        a: t.saturating_sub(arrival_ns),
                        b: slack,
                    });
                }
                self.refresh_views(views);
                ctx = DispatchContext::new(t, views, self.lut, &self.config.transfer_cost);
                ctx.reoffer_src = Some(src);
            }
        }
    }

    /// The ids (ascending) of nodes currently holding stealable —
    /// queued, never-started — work. Only live nodes can qualify, so
    /// the scan never touches a drained node.
    fn stealable_victims(&self) -> Vec<usize> {
        self.live
            .iter()
            .copied()
            .filter(|&v| self.nodes[v].unstarted_tasks().next().is_some())
            .collect()
    }

    /// What a steal price reads from the thief: its accelerator and
    /// capacity (through
    /// [`Frontend::dispatch_scale`]) and its open brown-out and
    /// transfer-stall factors (through [`Frontend::fetch_ns`]).
    /// Thieves with equal classes get bit-identical candidate lists.
    fn steal_class(&self, thief: usize) -> StealClass {
        let nc = &self.config.nodes[thief];
        let health = &self.ledger[thief].health;
        (
            nc.accelerator,
            nc.capacity.to_bits(),
            health.brownout.map(|(factor, _)| factor.to_bits()),
            health.stall.map(|(factor, _)| factor.to_bits()),
        )
    }

    /// Every queued, never-started request on `victims`, priced for
    /// `thief`'s [class](Frontend::steal_class) (service estimates on
    /// both sides plus the transfer cost). `victims` is ascending, so
    /// candidate order matches the historical all-nodes scan. A drained
    /// thief holds no unstarted work, so it is never among them.
    fn steal_candidates(&self, thief: usize, victims: &[usize]) -> Vec<StealCandidate> {
        let mut candidates = Vec::new();
        for &victim in victims {
            debug_assert_ne!(victim, thief, "a drained thief is never a victim");
            let node = &self.nodes[victim];
            for (task, victim_scale) in node.unstarted_tasks() {
                let info = self.lut.info(task.variant);
                let est_ns = info.avg_latency_ns();
                let thief_scale = self.dispatch_scale(thief, task.spec.model.family());
                candidates.push(StealCandidate {
                    victim,
                    task_id: task.id,
                    arrival_ns: task.arrival_ns,
                    deadline_ns: task.arrival_ns.saturating_add(task.slo_ns),
                    est_ns,
                    on_victim_ns: est_ns * victim_scale,
                    on_thief_ns: est_ns * thief_scale,
                    transfer_cost_ns: self.fetch_ns(victim, thief, task.variant),
                });
            }
        }
        candidates
    }

    /// The steal pass: each idle (fully drained) node may pull one
    /// request from the pool's stealable work, as the [`StealPolicy`]
    /// picks; an applied steal pays the transfer cost on the thief.
    fn steal_pass(&mut self, t: u64, views: &mut Vec<NodeView>) {
        let cfg = self.config.frontend.steal.expect("pass implies config");
        let n = self.nodes.len();
        // No stealable work anywhere means no thief can act: skip the
        // whole pass. ([`StealPolicy::choose`] is a read-only `&self`
        // call, so not consulting it over an empty candidate list is
        // unobservable.) With work present, the pass costs per thief
        // class, not per thief: candidates are priced once per class
        // over the victim list only, and the policy is asked once per
        // class, for the class's lowest-id drained thief. Its answer may
        // depend on the thief only through the class (the
        // [`StealPolicy::choose`] contract), so a class that declines
        // declines for every later thief of it. Between two applied
        // steals this turns the historical drained-thieves × all-victims
        // O(N²) sweep into O(classes × stealable).
        let mut victims = self.stealable_victims();
        if victims.is_empty() {
            return;
        }
        // Per thief class seen since the last applied steal: its priced
        // list and whether the policy declined it. The lists, the views
        // and the context (with its pool mean) stay valid across
        // thieves that steal nothing; only an applied transfer
        // invalidates them.
        let mut priced: Vec<(StealClass, Vec<StealCandidate>, bool)> = Vec::new();
        let mut ctx = DispatchContext::new(t, views, self.lut, &self.config.transfer_cost);
        for thief in 0..n {
            // A down node is drained (salvage emptied it) and would
            // otherwise look like the perfect thief: skip it at the
            // engine level too, whatever the policy says.
            if self.ledger[thief].health.down || !self.nodes[thief].is_drained() {
                continue;
            }
            let class = self.steal_class(thief);
            let slot = match priced.iter().position(|(c, ..)| *c == class) {
                Some(slot) => {
                    // The shared list must be exactly what this thief
                    // would have priced for itself.
                    #[cfg(debug_assertions)]
                    {
                        let fresh = self.steal_candidates(thief, &victims);
                        let bits = |c: &StealCandidate| {
                            [c.est_ns, c.on_victim_ns, c.on_thief_ns].map(f64::to_bits)
                        };
                        let shared = &priced[slot].1;
                        assert!(
                            *shared == fresh && shared.iter().map(bits).eq(fresh.iter().map(bits)),
                            "thief {thief} shares a steal list its own pricing does not match: \
                             shared {shared:?}, priced {fresh:?}"
                        );
                    }
                    slot
                }
                None => {
                    priced.push((class, self.steal_candidates(thief, &victims), false));
                    priced.len() - 1
                }
            };
            let (_, candidates, declined) = &priced[slot];
            if *declined {
                // Debug builds re-ask every thief the class verdict
                // stands in for.
                debug_assert!(
                    self.steal_policy
                        .choose(thief, candidates, &ctx, &cfg)
                        .is_none(),
                    "steal policy `{}` declined thief class {class:?} but picks for its thief {thief}",
                    self.steal_policy.name()
                );
                continue;
            }
            let Some(pick) = self.steal_policy.choose(thief, candidates, &ctx, &cfg) else {
                priced[slot].2 = true;
                continue;
            };
            assert!(
                pick < candidates.len(),
                "steal policy `{}` returned out-of-range candidate {pick}",
                self.steal_policy.name()
            );
            let chosen = candidates[pick];
            let transfer = self.nodes[chosen.victim]
                .take_unstarted(chosen.task_id)
                .expect("chosen candidate is queued and unstarted");
            let fetch_ns = self.move_task(chosen.victim, thief, transfer, t);
            debug_assert_eq!(
                fetch_ns, chosen.transfer_cost_ns,
                "steal of {} paid a fetch its pricing did not quote",
                chosen.task_id
            );
            self.serving.steals += 1;
            if self.tracer.enabled() {
                self.tracer.record(TraceEvent {
                    t_ns: t,
                    request: chosen.task_id,
                    node: thief as u32,
                    kind: EventKind::Steal,
                    a: chosen.victim as u64,
                    b: fetch_ns as i64,
                });
            }
            self.refresh_views(views);
            victims = self.stealable_victims();
            priced.clear();
            ctx = DispatchContext::new(t, views, self.lut, &self.config.transfer_cost);
        }
    }

    fn into_report(self) -> ClusterReport
    where
        T: Tracer,
    {
        let Frontend {
            nodes,
            config,
            ledger,
            serving,
            ..
        } = self;
        ClusterReport::with_serving(
            nodes
                .into_iter()
                .zip(&config.nodes)
                .zip(ledger)
                .map(|((node, nc), l)| NodeReport {
                    node_id: node.id(),
                    accelerator: nc.accelerator,
                    routed: l.routed,
                    rejected: l.rejected,
                    degraded: l.degraded,
                    transferred_in: l.transferred_in,
                    transferred_out: l.transferred_out,
                    transfer_fetch_ns: l.transfer_fetch_ns,
                    failed: l.failed,
                    reneged: l.reneged,
                    busy_ns: node.busy_ns(),
                    report: node.into_report(),
                })
                .collect(),
            serving,
        )
    }
}
