//! The resumable per-accelerator engine.
//!
//! [`NodeEngine`] is the paper's single-accelerator event loop broken
//! into explicit, externally driveable steps — admit, pick, execute one
//! scheduling quantum — so that a pool of nodes can be co-simulated on a
//! shared global clock (see the `dysta-cluster` crate). The caller owns
//! the arrivals: a node holds only admitted work, and
//! [`NodeEngine::enqueue`] admits a request at once. The classic
//! whole-workload [`crate::simulate`] is a thin wrapper that feeds each
//! request at its arrival and runs the engine to completion.
//!
//! # Time model
//!
//! Each node owns a local clock `now_ns`. Executing a quantum advances
//! the clock by the quantum's service time (plus a context-switch
//! penalty when execution moves between requests); an idle node's clock
//! stands still until the next enqueue or transfer pulls it forward to
//! that instant. A driver keeps a node causally consistent by calling
//! [`NodeEngine::run_until`] with each request's arrival (or dispatch)
//! time before enqueueing it: every quantum that *starts* before that
//! instant has then been executed, which is exactly the information a
//! real dispatcher could have observed.

use dysta_core::{scale_ns, ModelInfoLut, Scheduler, TaskState};
use dysta_obs::{EventKind, NullTracer, Phase, TraceEvent, Tracer};
use dysta_trace::SampleTrace;
use dysta_workload::Request;

use crate::report::{CompletedRequest, SimReport};
use crate::EngineConfig;

/// A queued, never-started request withdrawn from one node so a cluster
/// front-end can hand it to a peer (work stealing / migration).
///
/// Produced by [`NodeEngine::take_unstarted`] and consumed by
/// [`NodeEngine::accept_transfer`]; the trace reference stays private so
/// a withdrawn request can only re-enter the system whole.
pub struct TransferableTask<'w> {
    task: TaskState,
    trace: &'w SampleTrace,
}

impl TransferableTask<'_> {
    /// The withdrawn request's scheduler-visible state (always
    /// unstarted).
    pub fn task(&self) -> &TaskState {
        &self.task
    }
}

/// An execution run of one task still accumulating back-to-back
/// quanta; closed (recorded as one [`EventKind::Segment`] event) when
/// execution switches away or the task completes. Coalescing keeps
/// traced runs at one event per context switch instead of one per
/// layer, and the open segment stores only its *start* — the end time
/// is whatever the clock reads at close, and the layer count is the
/// task's `next_layer` delta — so extending a segment costs nothing
/// per quantum. Sound because a same-task *idle* gap cannot occur: an
/// active task stays runnable until it finishes, and the only mid-run
/// clock jump is a transfer's `fetch_ns` ([`NodeEngine::accept_transfer`]),
/// which the running segment absorbs — the node is busy fetching then,
/// not idle.
struct OpenSegment {
    /// Position of the running task in the node's live list. A task
    /// leaves the list only after its segment was flushed (completion
    /// and [`NodeEngine::crash_salvage`] flush first, and
    /// [`NodeEngine::take_unstarted`] only takes tasks that never ran,
    /// so never the open segment's), but a withdrawal can move the
    /// running task: [`NodeEngine::remove`] re-points this then.
    task_idx: usize,
    start_ns: u64,
    /// The task's `next_layer` when the segment opened.
    start_layer: usize,
}

/// A single simulated accelerator node: scheduler, live-task list, local
/// clock, and completion records.
///
/// Generic over the scheduler storage so the single-node wrapper can
/// borrow (`&mut dyn Scheduler`) while a cluster owns its schedulers
/// (`Box<dyn Scheduler>`, the default), and over the [`Tracer`] so the
/// default untraced engine ([`NullTracer`]) monomorphizes every
/// observability hook away.
///
/// # Examples
///
/// ```
/// use dysta_core::{ModelInfoLut, Policy};
/// use dysta_sim::{EngineConfig, NodeEngine};
/// use dysta_workload::{Scenario, WorkloadBuilder};
///
/// let w = WorkloadBuilder::new(Scenario::MultiCnn)
///     .num_requests(10)
///     .samples_per_variant(4)
///     .seed(1)
///     .build();
/// let lut = ModelInfoLut::from_store(w.store());
/// let mut node = NodeEngine::new(0, Policy::Sjf.build(), EngineConfig::default(), &lut);
/// for req in w.requests() {
///     node.run_until(req.arrival_ns);
///     node.enqueue(req, w.trace_for(req), 1.0, req.arrival_ns);
/// }
/// node.run_to_completion();
/// assert_eq!(node.into_report().completed().len(), 10);
/// ```
pub struct NodeEngine<'w, S = Box<dyn Scheduler>, T = NullTracer> {
    id: usize,
    scheduler: S,
    config: EngineConfig,
    /// The run's one LUT, built from the store the node's requests come
    /// from and shared by every node of a pool: tasks index it by their
    /// [`dysta_core::TaskState::variant`].
    lut: &'w ModelInfoLut,
    tracer: T,
    /// Tracing only: the in-progress execution segment (see
    /// [`OpenSegment`]). Stays `None` under a disabled tracer.
    open_seg: Option<OpenSegment>,
    /// The live list: every admitted, unfinished task. Admission
    /// ([`NodeEngine::enqueue`], [`NodeEngine::accept_transfer`])
    /// pushes; completion and [`NodeEngine::take_unstarted`]
    /// `swap_remove` ([`NodeEngine::remove`]); [`NodeEngine::crash_salvage`]
    /// empties it. Order is therefore arbitrary: schedulers must not
    /// read meaning into queue positions, only into task fields. The
    /// scheduler's [`TaskQueue`](dysta_core::TaskQueue) is this slice,
    /// and `queued_tasks` and `unstarted_tasks` walk it, so dispatch
    /// views sum in list order.
    /// `traces`, `scales` and `remaining` are parallel to it.
    tasks: Vec<TaskState>,
    traces: Vec<&'w SampleTrace>,
    scales: Vec<f64>,
    /// Unscaled trace latency of each live task's unexecuted layers:
    /// set to the whole trace on admission, reduced by each executed
    /// layer, so a quantum refreshes `true_remaining_ns` without
    /// re-summing the rest of the trace.
    remaining: Vec<u64>,
    /// Bumped on every externally observable mutation (clock movement,
    /// queue change, executed work); a cluster front-end caches its
    /// per-node dispatch views against this.
    mutation_epoch: u64,
    /// The node's clock. Every advance saturates, so work dispatched near
    /// the end of `u64` finishes at `u64::MAX` instead of wrapping.
    now_ns: u64,
    last_ran: Option<u64>,
    preemptions: u64,
    invocations: u64,
    busy_ns: u64,
    completed: Vec<CompletedRequest>,
}

impl<'w, S: Scheduler> NodeEngine<'w, S, NullTracer> {
    /// Creates an idle, untraced node that reads `lut`, the LUT built
    /// from the trace store its requests come from.
    ///
    /// # Panics
    ///
    /// Panics if the config requests zero layers per block.
    pub fn new(id: usize, scheduler: S, config: EngineConfig, lut: &'w ModelInfoLut) -> Self {
        NodeEngine::with_tracer(id, scheduler, config, lut, NullTracer)
    }
}

impl<'w, S: Scheduler, T: Tracer> NodeEngine<'w, S, T> {
    /// Creates an idle node reading `lut` and reporting to `tracer`. The
    /// LUT is borrowed, so a pool of nodes shares the run's one table;
    /// the tracer is held by value, and a pool shares one recorder by
    /// passing `&RingTracer` (every `&T` where `T: Tracer` is itself a
    /// tracer).
    ///
    /// # Panics
    ///
    /// Panics if the config requests zero layers per block.
    pub fn with_tracer(
        id: usize,
        scheduler: S,
        config: EngineConfig,
        lut: &'w ModelInfoLut,
        tracer: T,
    ) -> Self {
        assert!(config.layers_per_block > 0, "block must contain layers");
        NodeEngine {
            id,
            scheduler,
            config,
            lut,
            tracer,
            open_seg: None,
            tasks: Vec::new(),
            traces: Vec::new(),
            scales: Vec::new(),
            remaining: Vec::new(),
            mutation_epoch: 0,
            now_ns: 0,
            last_ran: None,
            preemptions: 0,
            invocations: 0,
            busy_ns: 0,
            completed: Vec::new(),
        }
    }

    /// The node's identifier (used in cluster reports).
    pub fn id(&self) -> usize {
        self.id
    }

    /// The node's local clock in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// A counter bumped on every externally observable mutation of the
    /// node (clock movement, queue change, executed work). Two equal
    /// readings bracket a window in which any dispatch view of the node
    /// is still valid — the cluster front-end uses this to skip
    /// rebuilding views of untouched nodes.
    pub fn mutation_epoch(&self) -> u64 {
        self.mutation_epoch
    }

    /// Total service time executed so far (excludes switch overhead and
    /// idle time) — the numerator of the node's utilization.
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns
    }

    /// Number of requests finished so far.
    pub fn completed_count(&self) -> usize {
        self.completed.len()
    }

    /// The completion records appended since `cursor` (a previous
    /// [`NodeEngine::completed_count`] reading), in completion order.
    /// A cluster front-end uses this to retire its live-request
    /// bookkeeping incrementally, so its working set tracks the pool's
    /// backlog instead of the whole trace.
    ///
    /// # Panics
    ///
    /// Panics if `cursor` exceeds the current completion count.
    pub fn completed_since(&self, cursor: usize) -> &[CompletedRequest] {
        &self.completed[cursor..]
    }

    /// Number of unfinished requests on the node.
    pub fn queue_len(&self) -> usize {
        self.tasks.len()
    }

    /// True when no unfinished work remains on the node.
    pub fn is_drained(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Iterates over every unfinished request on the node, in live-list
    /// order, paired with the node-local service-time scale each
    /// executes under.
    pub fn queued_tasks(&self) -> impl Iterator<Item = (&TaskState, f64)> {
        self.tasks.iter().zip(self.scales.iter().copied())
    }

    /// Iterates the *never started* requests — the only ones a cluster
    /// front-end may steal or migrate — paired with the node-local
    /// service-time scale each would execute under.
    pub fn unstarted_tasks(&self) -> impl Iterator<Item = (&TaskState, f64)> {
        self.tasks
            .iter()
            .zip(self.scales.iter().copied())
            .filter(|(t, _)| !t.started())
    }

    /// Withdraws the request `id` from the node, provided it has not
    /// executed a single layer. Returns `None` when the request is
    /// unknown here, already started, or finished — a started task is
    /// never stealable. On success the node's queue shrinks by exactly
    /// one.
    pub fn take_unstarted(&mut self, id: u64) -> Option<TransferableTask<'w>> {
        let pos = self.tasks.iter().position(|t| t.id == id)?;
        if self.tasks[pos].started() {
            return None;
        }
        self.mutation_epoch += 1;
        let (task, trace) = self.remove(pos);
        Some(TransferableTask { task, trace })
    }

    /// Admits a request withdrawn from a peer node at transfer time
    /// `at_ns`, re-scaling its service time for this node's accelerator.
    /// The request keeps its original arrival time (turnaround metrics
    /// keep charging the full wait) but cannot execute before `at_ns` —
    /// an idle node's clock is pulled forward to the transfer instant.
    ///
    /// `fetch_ns` is the weight/activation re-fetch cost of re-homing
    /// the request: the receiving node's memory interface is occupied
    /// for that long before anything else can run, so the cost lands on
    /// the clock *and* on `busy_ns` (a transfer is work, not idle time).
    /// Pass 0 for the historical free-transfer behavior.
    ///
    /// # Panics
    ///
    /// Panics if `scale < 1` or the task has already started.
    pub fn accept_transfer(
        &mut self,
        transfer: TransferableTask<'w>,
        scale: f64,
        at_ns: u64,
        fetch_ns: u64,
    ) {
        let TransferableTask { task, trace } = transfer;
        assert!(!task.started(), "only unstarted tasks can transfer");
        self.admit(task, trace, scale, at_ns, fetch_ns);
    }

    /// Crashes the node: every unfinished request — queued *and
    /// in-flight* — is withdrawn for re-dispatch elsewhere, and the
    /// node is left drained. Returns the withdrawn requests in
    /// `(arrival, id)` order, each paired with the executed work the
    /// crash destroyed on this node (0 for never-started requests).
    ///
    /// A started request is rebuilt from scratch — it will restart from
    /// layer 0 wherever it lands, with a fresh sparsity monitor — so
    /// the returned tasks all satisfy [`NodeEngine::accept_transfer`]'s
    /// unstarted precondition. The node's `busy_ns` keeps the destroyed
    /// work (the accelerator really was occupied); callers account the
    /// returned per-task losses separately. The open trace segment is
    /// flushed first, so executed quanta stay visible in the trace.
    pub fn crash_salvage(&mut self) -> Vec<(TransferableTask<'w>, u64)> {
        self.flush_segment();
        self.mutation_epoch += 1;
        let mut salvaged: Vec<(TransferableTask<'w>, u64)> = Vec::new();
        self.scales.clear();
        self.remaining.clear();
        for (task, trace) in self.tasks.drain(..).zip(self.traces.drain(..)) {
            let lost_ns = task.executed_ns;
            let task = if task.started() {
                // Restart from layer 0: fresh monitor state, no executed
                // layers. Admission on the new node recomputes the
                // remaining time under its scale.
                TaskState::arrived(
                    task.id,
                    task.spec,
                    task.variant,
                    task.arrival_ns,
                    task.slo_ns,
                    task.num_layers,
                )
            } else {
                task
            };
            salvaged.push((TransferableTask { task, trace }, lost_ns));
        }
        self.last_ran = None;
        salvaged.sort_by_key(|(t, _)| (t.task.arrival_ns, t.task.id));
        salvaged
    }

    /// Admits `request` on the node at the front-end dispatch instant
    /// `at_ns`, with a service-time multiplier `scale` (1.0 = the trace's
    /// native accelerator; >1 models running on an accelerator the
    /// model was not profiled on). The request keeps its original
    /// arrival time (turnaround metrics keep charging any admission
    /// wait), but the node cannot start it before `at_ns`: an idle
    /// node's clock is pulled forward to the dispatch instant, the same
    /// causality guard [`NodeEngine::accept_transfer`] applies to
    /// transfers. Call [`NodeEngine::run_until`]`(at_ns)` first, so no
    /// quantum that starts earlier sees the request.
    ///
    /// The node trusts [`Request::variant`] to name the request's spec
    /// in the store its LUT was built from; the run entry points
    /// (`simulate_traced`, the cluster engine) check that once per
    /// request with [`Request::assert_variant_in`].
    ///
    /// # Panics
    ///
    /// Panics if `scale < 1` or `at_ns` precedes the request's arrival.
    pub fn enqueue(&mut self, request: &Request, trace: &'w SampleTrace, scale: f64, at_ns: u64) {
        assert!(
            at_ns >= request.arrival_ns,
            "dispatch cannot precede arrival"
        );
        let task = TaskState::arrived(
            request.id,
            request.spec,
            request.variant,
            request.arrival_ns,
            request.slo_ns,
            trace.num_layers(),
        );
        self.admit(task, trace, scale, at_ns, 0);
    }

    /// The one way into the live list: floors the clock at `at_ns`, then
    /// charges `fetch_ns` of busy time for re-homing the request (0 for
    /// a fresh dispatch), and appends the unstarted task. Its remainder
    /// is the whole trace, and its true remaining time is set here under
    /// this node's scale.
    fn admit(
        &mut self,
        mut task: TaskState,
        trace: &'w SampleTrace,
        scale: f64,
        at_ns: u64,
        fetch_ns: u64,
    ) {
        assert!(
            scale >= 1.0 && scale.is_finite(),
            "service-time scale must be >= 1"
        );
        debug_assert!(!task.started(), "only unstarted tasks are admitted");
        self.now_ns = self.now_ns.max(at_ns).saturating_add(fetch_ns);
        self.busy_ns += fetch_ns;
        self.mutation_epoch += 1;
        let remaining = trace.isolated_latency_ns();
        task.true_remaining_ns = scale_ns(remaining, scale);
        self.tasks.push(task);
        self.traces.push(trace);
        self.scales.push(scale);
        self.remaining.push(remaining);
    }

    /// Takes the live task at `pos` out of the list in O(1): the last
    /// live task moves into its place (`swap_remove`). If that is the
    /// task the open segment runs, the segment follows it. The caller
    /// has flushed the segment if it belongs to the removed task.
    fn remove(&mut self, pos: usize) -> (TaskState, &'w SampleTrace) {
        let last = self.tasks.len() - 1;
        if let Some(seg) = &mut self.open_seg {
            debug_assert_ne!(seg.task_idx, pos, "the running task's segment is open");
            if seg.task_idx == last {
                seg.task_idx = pos;
            }
        }
        self.scales.swap_remove(pos);
        self.remaining.swap_remove(pos);
        (self.tasks.swap_remove(pos), self.traces.swap_remove(pos))
    }

    /// Runs one engine step: executes one scheduling quantum. Returns
    /// `false`, doing nothing, once the node is drained.
    pub fn step(&mut self) -> bool {
        if self.tasks.is_empty() {
            return false;
        }
        self.execute_quantum();
        true
    }

    /// Advances the node up to (exclusive) `t_ns`: every quantum that
    /// would *start* before `t_ns` is executed. The clock may end beyond
    /// `t_ns` when a quantum straddles it — a node cannot abandon a
    /// layer mid-flight — and an idle node's clock stays where it is.
    pub fn run_until(&mut self, t_ns: u64) {
        while !self.tasks.is_empty() && self.now_ns < t_ns {
            self.execute_quantum();
        }
    }

    /// Runs until every queued request has completed.
    pub fn run_to_completion(&mut self) {
        while self.step() {}
    }

    /// One scheduling quantum: decide which task runs, pay the context
    /// switch if execution moves between requests, execute up to
    /// `layers_per_block` consecutive layers of the choice, and retire
    /// it when it finishes.
    ///
    /// The decision is forced when one task is runnable: a pick is a
    /// pure function of (queue, LUT, now), so the engine takes position
    /// 0 without calling [`Scheduler::pick_next`]. Otherwise the
    /// scheduler is asked. Both count as one scheduler invocation;
    /// [`Phase::Pick`] times only the calls.
    ///
    /// # Panics
    ///
    /// Panics if no task is runnable or the scheduler returns an
    /// out-of-range index.
    fn execute_quantum(&mut self) {
        self.mutation_epoch += 1;
        debug_assert!(
            !self.tasks.is_empty(),
            "execute_quantum needs a runnable task"
        );
        self.invocations += 1;
        let profiling = self.tracer.profiling();
        let task_idx = if self.tasks.len() == 1 {
            0
        } else {
            // The scheduler reads the live list itself — no per-quantum
            // `Vec<&TaskState>` materialisation. The slice is taken
            // before the pick clock starts, so the timed region holds
            // the pick alone.
            let queue = self.tasks.as_slice();
            let pick_t0 = profiling.then(std::time::Instant::now);
            let pick = self.scheduler.pick_next(queue, self.lut, self.now_ns);
            if let Some(t0) = pick_t0 {
                self.tracer
                    .phase_ns(Phase::Pick, t0.elapsed().as_nanos() as u64);
            }
            pick
        };
        assert!(
            task_idx < self.tasks.len(),
            "scheduler returned out-of-range index"
        );
        let exec_t0 = profiling.then(std::time::Instant::now);

        // Pay the context switch when execution moves between requests.
        let switching = self.last_ran.is_some() && self.last_ran != Some(self.tasks[task_idx].id);
        if switching {
            self.preemptions += 1;
            if self.tracer.enabled() {
                // The outgoing task's segment ends here, before the
                // switch overhead is paid.
                self.flush_segment();
                self.tracer.record(TraceEvent {
                    t_ns: self.now_ns,
                    request: self.tasks[task_idx].id,
                    node: self.id as u32,
                    kind: EventKind::Preemption,
                    a: self.last_ran.expect("switching implies a previous task"),
                    b: self.config.preemption_overhead_ns as i64,
                });
            }
            self.now_ns = self
                .now_ns
                .saturating_add(self.config.preemption_overhead_ns);
            if self.tracer.enabled() {
                // The incoming task's segment starts once the switch
                // overhead is paid.
                self.open_segment(task_idx);
            }
        } else if self.last_ran.is_none() && self.tracer.enabled() {
            // Very first quantum of the run. Every other segment opens
            // in the switching arm above: a task completion leaves
            // `last_ran` pointing at the finished task, so the next
            // quantum (necessarily a different task) counts as a
            // switch. Extending an open segment is therefore free —
            // steady-state quanta skip both arms — and the close reads
            // the clock and the task's layer counter directly.
            self.open_segment(task_idx);
        }
        self.last_ran = Some(self.tasks[task_idx].id);

        let trace = self.traces[task_idx];
        let scale = self.scales[task_idx];
        let info = self.lut.info(self.tasks[task_idx].variant);
        for _ in 0..self.config.layers_per_block {
            if self.tasks[task_idx].finished() {
                break;
            }
            let layer = trace.layers()[self.tasks[task_idx].next_layer];
            let latency_ns = scale_ns(layer.latency_ns, scale);
            self.now_ns = self.now_ns.saturating_add(latency_ns);
            self.busy_ns += latency_ns;
            let task = &mut self.tasks[task_idx];
            task.executed_ns += latency_ns;
            task.record_layer(layer.sparsity, info);
            self.remaining[task_idx] -= layer.latency_ns;
            task.true_remaining_ns = scale_ns(self.remaining[task_idx], scale);
            debug_assert_eq!(
                self.remaining[task_idx],
                trace.remaining_ns(task.next_layer),
                "request {}: running remainder drifted from the trace",
                task.id
            );
        }
        if let Some(t0) = exec_t0 {
            self.tracer
                .phase_ns(Phase::Execute, t0.elapsed().as_nanos() as u64);
        }

        if self.tasks[task_idx].finished() {
            if self.tracer.enabled() {
                // The finished task's segment is the open one; close it
                // so its completion event never precedes its last work.
                self.flush_segment();
                let task = &self.tasks[task_idx];
                let deadline_ns = task.deadline_ns();
                let slack_ns = if deadline_ns == u64::MAX {
                    i64::MAX // no deadline
                } else {
                    deadline_ns as i64 - self.now_ns as i64
                };
                self.tracer.record(TraceEvent {
                    t_ns: self.now_ns,
                    request: task.id,
                    node: self.id as u32,
                    kind: EventKind::Completion,
                    a: u64::from(self.now_ns > deadline_ns),
                    b: slack_ns,
                });
            }
            let task = &self.tasks[task_idx];
            self.completed.push(CompletedRequest {
                id: task.id,
                spec: task.spec,
                arrival_ns: task.arrival_ns,
                completion_ns: self.now_ns,
                isolated_ns: trace.isolated_latency_ns(),
                slo_ns: task.slo_ns,
            });
            // O(1) removal. The hole is filled by the last live task, so
            // scheduler-visible queue *order* changes — every shipped
            // scheduler decides from task fields with id tie-breaks, so
            // decisions are order-independent (pinned by the determinism
            // regression tests in `engine.rs`). The segment was flushed
            // above.
            self.remove(task_idx);
        }
    }

    /// Starts a segment for `task_idx` at the current clock. The caller
    /// guarantees no segment is open (the previous one was flushed at
    /// the switch or completion that made this open necessary).
    fn open_segment(&mut self, task_idx: usize) {
        debug_assert!(self.open_seg.is_none(), "segment already open");
        self.open_seg = Some(OpenSegment {
            task_idx,
            start_ns: self.now_ns,
            start_layer: self.tasks[task_idx].next_layer,
        });
    }

    /// Records and clears the open execution segment, ending it at the
    /// current clock. The layer count is the task's `next_layer` delta
    /// since the segment opened, so extending a segment costs nothing
    /// per quantum — all bookkeeping happens here, at the close.
    fn flush_segment(&mut self) {
        if let Some(seg) = self.open_seg.take() {
            let task = &self.tasks[seg.task_idx];
            let event = TraceEvent {
                t_ns: seg.start_ns,
                request: task.id,
                node: self.id as u32,
                kind: EventKind::Segment,
                a: self.now_ns,
                b: (task.next_layer - seg.start_layer) as i64,
            };
            self.tracer.record(event);
        }
    }

    /// Finishes the node, returning its completion report.
    ///
    /// # Panics
    ///
    /// Panics if unfinished work remains.
    pub fn into_report(mut self) -> SimReport {
        assert!(self.is_drained(), "node {} still has queued work", self.id);
        // A drained node closed every segment at task completion, but
        // flush defensively so no recorded work can be lost.
        self.flush_segment();
        let mut completed = self.completed;
        completed.sort_by_key(|c| c.id);
        SimReport::new(completed, self.preemptions, self.invocations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dysta_core::Policy;
    use dysta_workload::{Scenario, Workload, WorkloadBuilder};
    use std::ops::RangeBounds;

    fn tiny(seed: u64) -> Workload {
        WorkloadBuilder::new(Scenario::MultiCnn)
            .num_requests(30)
            .samples_per_variant(6)
            .seed(seed)
            .build()
    }

    /// Feeds `node` the requests of `w` arriving in `arrivals` the way
    /// `simulate` does: run up to each arrival, then admit the request
    /// there at `scale`.
    fn feed<'w>(
        node: &mut NodeEngine<'w>,
        w: &'w Workload,
        arrivals: impl RangeBounds<u64>,
        scale: f64,
    ) {
        for req in w.requests() {
            if arrivals.contains(&req.arrival_ns) {
                node.run_until(req.arrival_ns);
                node.enqueue(req, w.trace_for(req), scale, req.arrival_ns);
            }
        }
    }

    /// A node reading `lut` under `policy`, fed the requests of `w`
    /// arriving in `arrivals`.
    fn engine_for<'w>(
        w: &'w Workload,
        lut: &'w ModelInfoLut,
        policy: Policy,
        arrivals: impl RangeBounds<u64>,
    ) -> NodeEngine<'w> {
        let mut node = NodeEngine::new(0, policy.build(), EngineConfig::default(), lut);
        feed(&mut node, w, arrivals, 1.0);
        node
    }

    #[test]
    fn stepping_matches_run_to_completion() {
        let w = tiny(1);
        let lut = ModelInfoLut::from_store(w.store());
        let mut stepped = engine_for(&w, &lut, Policy::Dysta, ..);
        while stepped.step() {}
        let mut ran = engine_for(&w, &lut, Policy::Dysta, ..);
        ran.run_to_completion();
        assert_eq!(stepped.into_report(), ran.into_report());
    }

    #[test]
    fn run_until_is_equivalent_to_uninterrupted_execution() {
        // Driving the engine with arbitrary run_until barriers, between
        // enqueues as well as after the last one, must not change any
        // completion: barriers only bound how far the node may get
        // ahead, never what it executes.
        let w = tiny(2);
        let lut = ModelInfoLut::from_store(w.store());
        let mut reference = engine_for(&w, &lut, Policy::Dysta, ..);
        reference.run_to_completion();
        let reference = reference.into_report();

        let mut chunked = NodeEngine::new(0, Policy::Dysta.build(), EngineConfig::default(), &lut);
        let horizon = w.requests().last().unwrap().arrival_ns * 2;
        let mut t = 0;
        while t < horizon {
            let next = t + horizon / 37 + 1;
            feed(&mut chunked, &w, t..next, 1.0);
            chunked.run_until(next);
            t = next;
        }
        chunked.run_to_completion();
        assert_eq!(chunked.into_report(), reference);
    }

    #[test]
    fn run_until_does_not_start_quanta_at_or_past_the_barrier() {
        let w = tiny(3);
        let lut = ModelInfoLut::from_store(w.store());
        let barrier = w.requests()[10].arrival_ns;
        let mut node = engine_for(&w, &lut, Policy::Fcfs, ..barrier);
        node.run_until(barrier);
        // No request is admitted ahead of the node's clock.
        assert!(node
            .queued_tasks()
            .all(|(t, _)| t.started() || t.arrival_ns <= node.now_ns() || t.arrival_ns >= barrier));
        // The node stopped at the barrier: asking again starts nothing.
        assert!(!node.is_drained() && node.now_ns() >= barrier);
        let epoch = node.mutation_epoch();
        node.run_until(barrier);
        assert_eq!(node.mutation_epoch(), epoch);
    }

    #[test]
    fn backlog_estimates_shrink_as_work_completes() {
        let w = tiny(4);
        let lut = ModelInfoLut::from_store(w.store());
        let mut node = engine_for(&w, &lut, Policy::Sjf, ..w.requests()[10].arrival_ns);
        let backlog = |node: &NodeEngine<'_>| -> f64 {
            node.queued_tasks()
                .map(|(t, scale)| lut.info(t.variant).avg_remaining_ns(t.next_layer) * scale)
                .sum()
        };
        let full = backlog(&node);
        assert!(full > 0.0);
        node.run_until(w.requests()[15].arrival_ns);
        let half = backlog(&node);
        assert!(half < full, "backlog {half} should shrink below {full}");
        node.run_to_completion();
        assert_eq!(backlog(&node), 0.0);
        assert!(node.is_drained());
        assert!(node.busy_ns() > 0);
    }

    #[test]
    fn scaled_execution_slows_the_node_but_keeps_native_isolated_times() {
        let w = tiny(5);
        let lut = ModelInfoLut::from_store(w.store());
        let mut native = engine_for(&w, &lut, Policy::Fcfs, ..);
        native.run_to_completion();
        let native = native.into_report();

        let mut slowed = NodeEngine::new(0, Policy::Fcfs.build(), EngineConfig::default(), &lut);
        feed(&mut slowed, &w, .., 2.0);
        slowed.run_to_completion();
        let slowed = slowed.into_report();

        let makespan = |r: &SimReport| r.completed().iter().map(|c| c.completion_ns).max();
        assert!(makespan(&slowed) > makespan(&native));
        // `isolated_ns` stays the native profile, so slowdown shows up
        // as worse normalized turnaround rather than a moved goalpost.
        for (a, b) in native.completed().iter().zip(slowed.completed()) {
            assert_eq!(a.isolated_ns, b.isolated_ns);
            assert!(b.completion_ns >= a.completion_ns);
        }
    }

    #[test]
    fn enqueued_work_is_admitted_at_once() {
        // A node holds only admitted work: a request enqueued at its
        // dispatch instant is live, unstarted and withdrawable before
        // the node runs again.
        let w = tiny(6);
        let lut = ModelInfoLut::from_store(w.store());
        let barrier = w.requests()[5].arrival_ns;
        let mut node = engine_for(&w, &lut, Policy::Fcfs, ..barrier);
        node.run_until(barrier);
        let req = &w.requests()[5];
        let t = node.now_ns().max(req.arrival_ns);
        let before = node.queue_len();
        node.enqueue(req, w.trace_for(req), 1.0, t);
        assert_eq!(node.queue_len(), before + 1);
        assert!(node.unstarted_tasks().any(|(task, _)| task.id == req.id));
        let taken = node.take_unstarted(req.id).expect("admitted at enqueue");
        assert_eq!(taken.task().id, req.id);
        assert_eq!(node.queue_len(), before);
    }

    #[test]
    fn take_unstarted_refuses_started_and_unknown_tasks() {
        let w = tiny(8);
        let lut = ModelInfoLut::from_store(w.store());
        let barrier = w.requests()[3].arrival_ns;
        let mut node = engine_for(&w, &lut, Policy::Fcfs, ..barrier);
        // Run a few quanta so the first request has started.
        node.run_until(barrier);
        let started: Vec<u64> = node
            .queued_tasks()
            .filter(|(t, _)| t.started())
            .map(|(t, _)| t.id)
            .collect();
        for id in started {
            assert!(node.take_unstarted(id).is_none(), "started task {id}");
        }
        assert!(node.take_unstarted(9_999).is_none(), "unknown id");
    }

    #[test]
    fn take_unstarted_shrinks_the_queue_by_exactly_one() {
        let w = tiny(9);
        let lut = ModelInfoLut::from_store(w.store());
        let barrier = w.requests()[10].arrival_ns;
        let mut node = engine_for(&w, &lut, Policy::Fcfs, ..barrier);
        node.run_until(barrier);
        let victim = node
            .unstarted_tasks()
            .map(|(t, _)| t.id)
            .next()
            .expect("an admitted unstarted task exists");
        let before = node.queue_len();
        let taken = node.take_unstarted(victim).expect("victim is unstarted");
        assert_eq!(taken.task().id, victim);
        assert!(!taken.task().started());
        assert_eq!(node.queue_len(), before - 1);
    }

    #[test]
    fn transfer_preserves_completion_exactly_once() {
        // Move one unstarted request from a loaded node to an idle one;
        // every request still completes exactly once across both nodes,
        // and the moved request keeps its original arrival time.
        let w = tiny(10);
        let lut = ModelInfoLut::from_store(w.store());
        let barrier = w.requests()[15].arrival_ns;
        let mut src = engine_for(&w, &lut, Policy::Sjf, ..barrier);
        let mut dst: NodeEngine =
            NodeEngine::new(1, Policy::Sjf.build(), EngineConfig::default(), &lut);
        src.run_until(barrier);
        let victim = src
            .unstarted_tasks()
            .map(|(t, _)| t.id)
            .min()
            .expect("unstarted work exists");
        let arrival = w.requests()[victim as usize].arrival_ns;
        let transfer = src.take_unstarted(victim).expect("victim is unstarted");
        dst.accept_transfer(transfer, 2.0, barrier, 0);
        assert!(dst.now_ns() >= barrier, "idle thief clock pulled forward");
        feed(&mut src, &w, barrier.., 1.0);
        src.run_to_completion();
        dst.run_to_completion();
        let src_report = src.into_report();
        let dst_report = dst.into_report();
        assert_eq!(dst_report.completed().len(), 1);
        assert_eq!(dst_report.completed()[0].id, victim);
        assert_eq!(dst_report.completed()[0].arrival_ns, arrival);
        assert_eq!(src_report.completed().len(), 29);
        assert!(src_report.completed().iter().all(|c| c.id != victim));
    }

    #[test]
    fn crash_salvage_drains_the_node_and_resets_started_work() {
        let w = tiny(14);
        let lut = ModelInfoLut::from_store(w.store());
        let barrier = w.requests()[12].arrival_ns;
        let mut node = engine_for(&w, &lut, Policy::Fcfs, ..barrier);
        node.run_until(barrier);
        let busy_before = node.busy_ns();
        let in_flight: Vec<u64> = node
            .queued_tasks()
            .filter(|(t, _)| t.started())
            .map(|(t, _)| t.id)
            .collect();
        let queued = node.queue_len() + node.completed_count();
        let salvaged = node.crash_salvage();
        // Everything unfinished came out, in (arrival, id) order, reset
        // to unstarted.
        assert_eq!(salvaged.len() + node.completed_count(), queued);
        assert!(node.is_drained());
        assert_eq!(node.busy_ns(), busy_before, "busy time is not erased");
        for w in salvaged.windows(2) {
            assert!(
                (w[0].0.task().arrival_ns, w[0].0.task().id)
                    <= (w[1].0.task().arrival_ns, w[1].0.task().id)
            );
        }
        for (t, lost_ns) in &salvaged {
            assert!(!t.task().started());
            assert_eq!(t.task().executed_ns, 0);
            if in_flight.contains(&t.task().id) {
                assert!(*lost_ns > 0, "in-flight work reports its loss");
            } else {
                assert_eq!(*lost_ns, 0);
            }
        }
        // A crashed-then-drained node still produces a report for what
        // it did finish.
        let report = node.into_report();
        assert!(report.completed().len() + salvaged.len() == queued);
    }

    #[test]
    fn salvaged_tasks_redispatch_and_complete_elsewhere() {
        let w = tiny(15);
        let lut = ModelInfoLut::from_store(w.store());
        let crash_ns = w.requests()[10].arrival_ns;
        let mut src = engine_for(&w, &lut, Policy::Sjf, ..crash_ns);
        let mut dst: NodeEngine =
            NodeEngine::new(1, Policy::Sjf.build(), EngineConfig::default(), &lut);
        src.run_until(crash_ns);
        let salvaged = src.crash_salvage();
        assert!(!salvaged.is_empty());
        let moved = salvaged.len();
        for (t, _) in salvaged {
            dst.accept_transfer(t, 1.0, crash_ns, 0);
        }
        // The node comes back for the requests arriving after the crash.
        feed(&mut src, &w, crash_ns.., 1.0);
        src.run_to_completion();
        let done_on_src = src.completed_count();
        dst.run_to_completion();
        let dst_report = dst.into_report();
        // Exactly-once across the crash: src's completions plus the
        // re-homed ones cover the workload with no duplicates.
        assert_eq!(dst_report.completed().len(), moved);
        assert_eq!(done_on_src + moved, 30);
        let src_ids: Vec<u64> = src.into_report().completed().iter().map(|c| c.id).collect();
        assert!(dst_report
            .completed()
            .iter()
            .all(|c| !src_ids.contains(&c.id)));
    }

    #[test]
    fn costed_transfer_charges_the_receiving_node() {
        // A nonzero fetch cost delays the receiving node's clock by
        // exactly the fetch and shows up in its busy time, so transfer
        // traffic is visible in utilization and load-imbalance metrics.
        let w = tiny(13);
        let lut = ModelInfoLut::from_store(w.store());
        let barrier = w.requests()[10].arrival_ns;
        let mut src = engine_for(&w, &lut, Policy::Fcfs, ..barrier);
        let mut dst: NodeEngine =
            NodeEngine::new(1, Policy::Fcfs.build(), EngineConfig::default(), &lut);
        src.run_until(barrier);
        let victim = src
            .unstarted_tasks()
            .map(|(t, _)| t.id)
            .min()
            .expect("unstarted work exists");
        let fetch = 3_000_000u64;
        let transfer = src.take_unstarted(victim).expect("victim is unstarted");
        dst.accept_transfer(transfer, 1.0, barrier, fetch);
        assert_eq!(dst.now_ns(), barrier + fetch);
        assert_eq!(dst.busy_ns(), fetch);
        dst.run_to_completion();
        let report = dst.into_report();
        assert!(report.completed()[0].completion_ns >= barrier + fetch);
    }

    #[test]
    fn enqueue_at_floors_execution_at_the_dispatch_instant() {
        // A request dispatched late (front-end admission batching) keeps
        // its arrival time for metrics but cannot execute before the
        // dispatch instant.
        let w = tiny(11);
        let lut = ModelInfoLut::from_store(w.store());
        let mut node: NodeEngine =
            NodeEngine::new(0, Policy::Fcfs.build(), EngineConfig::default(), &lut);
        let dispatch_ns = w.requests().last().unwrap().arrival_ns + 5_000_000;
        for req in w.requests() {
            node.enqueue(req, w.trace_for(req), 1.0, dispatch_ns);
        }
        assert!(node.now_ns() >= dispatch_ns, "clock floored at dispatch");
        node.run_to_completion();
        let report = node.into_report();
        for c in report.completed() {
            assert!(c.completion_ns >= dispatch_ns);
            assert_eq!(c.arrival_ns, w.requests()[c.id as usize].arrival_ns);
        }
    }

    #[test]
    #[should_panic(expected = "dispatch cannot precede arrival")]
    fn dispatch_before_arrival_rejected() {
        let w = tiny(12);
        let lut = ModelInfoLut::from_store(w.store());
        let mut node: NodeEngine =
            NodeEngine::new(0, Policy::Fcfs.build(), EngineConfig::default(), &lut);
        let req = w.requests().last().unwrap();
        node.enqueue(req, w.trace_for(req), 1.0, req.arrival_ns - 1);
    }

    /// Live-list invariants, checked after every operation on one node.
    #[derive(Default)]
    struct LiveCheck {
        /// Most tasks ever live on the node at once.
        peak_live: usize,
    }

    impl LiveCheck {
        fn check(&mut self, node: &NodeEngine<'_>) {
            self.peak_live = self.peak_live.max(node.tasks.len());
            assert_eq!(node.traces.len(), node.tasks.len());
            assert_eq!(node.scales.len(), node.tasks.len());
            assert_eq!(node.remaining.len(), node.tasks.len());
            // The running remainder of every live task equals the suffix
            // walk of its trace, so the Oracle's ground truth matches
            // the trace at any scale and after any move in the list.
            for (pos, (task, trace)) in node.tasks.iter().zip(&node.traces).enumerate() {
                assert_eq!(
                    node.remaining[pos],
                    trace.remaining_ns(task.next_layer),
                    "request {} carries a stale remainder",
                    task.id
                );
                assert_eq!(
                    task.true_remaining_ns,
                    scale_ns(trace.remaining_ns(task.next_layer), node.scales[pos]),
                    "request {} reports a stale true remaining time",
                    task.id
                );
            }
            // The queue the next pick folds over: each task shows only
            // its own progress.
            for task in &node.tasks {
                assert!(!task.finished(), "request {} already finished", task.id);
                if !task.started() {
                    assert_eq!(task.executed_ns, 0);
                    assert_eq!(task.sparsity, dysta_core::SparsitySummary::default());
                }
            }
        }

        /// Feeds `node` `reqs` the way `feed` does, checking after every
        /// quantum and every admission.
        fn feed<'w>(&mut self, node: &mut NodeEngine<'w>, w: &'w Workload, reqs: &[Request]) {
            for req in reqs {
                while node.now_ns() < req.arrival_ns && node.step() {
                    self.check(node);
                }
                node.enqueue(req, w.trace_for(req), 1.0, req.arrival_ns);
                self.check(node);
            }
        }
    }

    #[test]
    fn arena_slots_track_concurrency_and_reuse_cleanly() {
        // One loaded FCFS source and one Dysta destination (preemptive,
        // so many tasks there hold partial progress at once), driven
        // through every way a task enters or leaves a live list.
        let w = tiny(16);
        let lut = ModelInfoLut::from_store(w.store());
        let mut src: NodeEngine =
            NodeEngine::new(0, Policy::Fcfs.build(), EngineConfig::default(), &lut);
        let mut dst: NodeEngine =
            NodeEngine::new(1, Policy::Dysta.build(), EngineConfig::default(), &lut);
        let (mut src_check, mut dst_check) = (LiveCheck::default(), LiveCheck::default());

        // Admissions and completions.
        let reqs = w.requests();
        src_check.feed(&mut src, &w, &reqs[..20]);
        assert!(src.completed_count() > 0, "completions left the list");

        // Withdrawals land on the destination at a mismatch scale.
        for _ in 0..3 {
            let victim = src
                .unstarted_tasks()
                .map(|(t, _)| t.id)
                .min()
                .expect("unstarted work exists");
            let transfer = src.take_unstarted(victim).expect("victim is unstarted");
            src_check.check(&src);
            dst.accept_transfer(transfer, 2.0, src.now_ns(), 0);
            dst_check.check(&dst);
        }
        for _ in 0..40 {
            dst.step();
            dst_check.check(&dst);
        }
        src_check.feed(&mut src, &w, &reqs[20..25]);
        for _ in 0..3 {
            src.step();
            src_check.check(&src);
        }

        // A crash empties the list; the salvage, started requests
        // restarted from layer 0, joins the destination's at both
        // scales.
        let salvaged = src.crash_salvage();
        src_check.check(&src);
        assert!(src.is_drained(), "a crashed node holds no task");
        assert!(
            salvaged.iter().any(|(_, lost_ns)| *lost_ns > 0),
            "the crash salvages a started request"
        );
        for (i, (transfer, _)) in salvaged.into_iter().enumerate() {
            let scale = if i % 2 == 0 { 1.0 } else { 2.0 };
            dst.accept_transfer(transfer, scale, src.now_ns(), 0);
            dst_check.check(&dst);
        }
        // The requests arriving after the crash go to the destination.
        dst_check.feed(&mut dst, &w, &reqs[25..]);
        while dst.step() {
            dst_check.check(&dst);
        }

        let served = src.completed_count() + dst.completed_count();
        assert_eq!(served, 30, "every request completes exactly once");
        // Each node held several tasks at once, yet never one per
        // request: the live list tracks concurrency, not the trace.
        assert!(src_check.peak_live > 1 && dst_check.peak_live > 1);
        assert!(
            src_check.peak_live + dst_check.peak_live < served,
            "peak live tasks {} + {} should stay below the {served} served",
            src_check.peak_live,
            dst_check.peak_live
        );
    }

    #[test]
    fn withdrawal_below_the_running_task_keeps_its_segment() {
        // FCFS over three requests admitted at once: the first completes
        // and `swap_remove` moves the third into its place, so the
        // second runs from the last position. Withdrawing the third
        // (below it) moves the running task again; its open segment must
        // follow, or the position it left, refilled by the next
        // admission, would close as another request's segment.
        let w = tiny(17);
        let lut = ModelInfoLut::from_store(w.store());
        let tracer = dysta_obs::RingTracer::new(1 << 12);
        let mut node: NodeEngine<'_, Box<dyn Scheduler>, &dysta_obs::RingTracer> =
            NodeEngine::with_tracer(
                0,
                Policy::Fcfs.build(),
                EngineConfig::default(),
                &lut,
                &tracer,
            );
        let reqs = w.requests();
        for req in &reqs[..3] {
            node.enqueue(req, w.trace_for(req), 1.0, reqs[2].arrival_ns);
        }
        while node.completed_count() == 0 {
            assert!(node.step());
        }
        assert!(node.step());
        let running = reqs[1].id;
        assert_eq!(node.tasks.len(), 2);
        assert_eq!(node.tasks[1].id, running, "the running task sits last");
        assert!(node.tasks[1].started());
        let layers_before = node.tasks[1].next_layer;

        let withdrawn = node.take_unstarted(reqs[2].id).expect("unstarted");
        assert_eq!(node.tasks[0].id, running, "the withdrawal moved it");
        let late = &reqs[3];
        let at_ns = node.now_ns().max(late.arrival_ns);
        node.enqueue(late, w.trace_for(late), 1.0, at_ns);
        node.run_to_completion();

        let num_layers = withdrawn.task().num_layers;
        assert!(num_layers > layers_before);
        let segments: Vec<TraceEvent> = tracer
            .events()
            .into_iter()
            .filter(|e| e.kind == EventKind::Segment)
            .collect();
        // The running task's segment spans from its first layer to its
        // completion, uninterrupted by the withdrawal and the admission.
        let own: Vec<&TraceEvent> = segments.iter().filter(|e| e.request == running).collect();
        assert_eq!(own.len(), 1, "one segment for request {running}");
        assert_eq!(own[0].b as usize, w.trace_for(&reqs[1]).num_layers());
        // Every completed request's segments cover its layers exactly.
        for req in [&reqs[0], &reqs[1], late] {
            let layers: i64 = segments
                .iter()
                .filter(|e| e.request == req.id)
                .map(|e| e.b)
                .sum();
            assert_eq!(layers as usize, w.trace_for(req).num_layers());
        }
        assert!(segments.iter().all(|e| e.request != reqs[2].id));
    }

    #[test]
    #[should_panic(expected = "scale must be >= 1")]
    fn speedup_scales_rejected() {
        let w = tiny(7);
        let lut = ModelInfoLut::from_store(w.store());
        let mut node: NodeEngine =
            NodeEngine::new(0, Policy::Fcfs.build(), EngineConfig::default(), &lut);
        let req = &w.requests()[0];
        node.enqueue(req, w.trace_for(req), 0.5, req.arrival_ns);
    }
}
