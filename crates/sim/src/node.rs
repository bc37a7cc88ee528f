//! The resumable per-accelerator engine.
//!
//! [`NodeEngine`] is the paper's single-accelerator event loop broken
//! into explicit, externally driveable steps — admit due arrivals, pick,
//! execute one scheduling quantum — so that a pool of nodes can be
//! co-simulated on a shared global clock (see the `dysta-cluster` crate).
//! The classic whole-workload [`crate::simulate`] is a thin wrapper that
//! enqueues every request up front and runs the engine to completion.
//!
//! # Time model
//!
//! Each node owns a local clock `now_ns`. Executing a quantum advances
//! the clock by the quantum's service time (plus a context-switch
//! penalty when execution moves between requests); when the node is idle
//! it jumps forward to the next queued arrival. A cluster driver keeps
//! nodes causally consistent by calling [`NodeEngine::run_until`] with
//! each request's arrival time before routing it: every quantum that
//! *starts* before the arrival has then been executed, which is exactly
//! the information a real dispatcher could have observed.

use std::collections::VecDeque;

use dysta_core::{scale_ns, ModelInfoLut, MonitoredLayer, Scheduler, TaskQueue, TaskState};
use dysta_obs::{EventKind, NullTracer, Phase, TraceEvent, Tracer};
use dysta_trace::SampleTrace;
use dysta_workload::Request;

use crate::report::{CompletedRequest, SimReport};
use crate::EngineConfig;

/// A request queued on a node but not yet visible to the scheduler
/// (its arrival time is still in the node's future).
struct PendingTask<'w> {
    task: TaskState,
    trace: &'w SampleTrace,
    /// Service-time multiplier on this node (1.0 = the trace's native
    /// accelerator; >1 models running on a mismatched accelerator).
    scale: f64,
}

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
    /// Index into the task arena. Stable while the segment is open:
    /// a slot is freed only after its task's segment was flushed
    /// (completion and [`NodeEngine::crash_salvage`] flush first, and
    /// [`NodeEngine::take_unstarted`] only takes tasks that never ran,
    /// so never the open segment's).
    task_idx: usize,
    start_ns: u64,
    /// The task's `next_layer` when the segment opened.
    start_layer: usize,
}

/// A single simulated accelerator node: scheduler, task queues, local
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
/// let mut node = NodeEngine::new(0, Policy::Sjf.build(), EngineConfig::default(), lut);
/// for req in w.requests() {
///     node.enqueue(req, w.trace_for(req));
/// }
/// node.run_to_completion();
/// assert_eq!(node.into_report().completed().len(), 10);
/// ```
pub struct NodeEngine<'w, S = Box<dyn Scheduler>, T = NullTracer> {
    id: usize,
    scheduler: S,
    config: EngineConfig,
    lut: ModelInfoLut,
    tracer: T,
    /// Tracing only: the in-progress execution segment (see
    /// [`OpenSegment`]). Stays `None` under a disabled tracer.
    open_seg: Option<OpenSegment>,
    /// Enqueued-but-not-admitted requests, in arrival order.
    pending: VecDeque<PendingTask<'w>>,
    /// The task arena: one slot per admitted, unfinished task, plus
    /// freed slots awaiting reuse (listed in `free`). A task leaves its
    /// slot when it completes, is withdrawn by
    /// [`NodeEngine::take_unstarted`] or is salvaged by
    /// [`NodeEngine::crash_salvage`], so the arena's length is the
    /// high-water mark of `active.len()`, not the number of requests
    /// served. `traces` and `scales` are parallel to it.
    tasks: Vec<TaskState>,
    traces: Vec<&'w SampleTrace>,
    scales: Vec<f64>,
    /// Freed arena slots, reused last-in first-out by the next admission.
    free: Vec<usize>,
    /// Indices into `tasks` of admitted, unfinished tasks. Order is
    /// arbitrary (completion removal is `swap_remove`); schedulers must
    /// not read meaning into queue positions, only into task fields.
    ///
    /// Slot reuse keeps every run bit-exact: it changes which slot
    /// numbers `active` holds, never which tasks it lists or in what
    /// order (admission still pushes, removal still `swap_remove`s).
    /// Schedulers see tasks only as positions in a
    /// [`TaskQueue::indexed`] over `active`; `queued_tasks` and
    /// `unstarted_tasks` walk `active`, so dispatch views sum in the
    /// same order; and an [`OpenSegment`] is flushed before its slot
    /// is freed.
    active: Vec<usize>,
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
    /// Creates an idle, untraced node.
    ///
    /// # Panics
    ///
    /// Panics if the config requests zero layers per block.
    pub fn new(id: usize, scheduler: S, config: EngineConfig, lut: ModelInfoLut) -> Self {
        NodeEngine::with_tracer(id, scheduler, config, lut, NullTracer)
    }
}

impl<'w, S: Scheduler, T: Tracer> NodeEngine<'w, S, T> {
    /// Creates an idle node reporting to `tracer`. The tracer is held
    /// by value; a pool of nodes shares one recorder by passing
    /// `&RingTracer` (every `&T` where `T: Tracer` is itself a tracer).
    ///
    /// # Panics
    ///
    /// Panics if the config requests zero layers per block.
    pub fn with_tracer(
        id: usize,
        scheduler: S,
        config: EngineConfig,
        lut: ModelInfoLut,
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
            pending: VecDeque::new(),
            tasks: Vec::new(),
            traces: Vec::new(),
            scales: Vec::new(),
            free: Vec::new(),
            active: Vec::new(),
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

    /// Number of admitted-or-queued unfinished requests.
    pub fn queue_len(&self) -> usize {
        self.active.len() + self.pending.len()
    }

    /// True when no unfinished work remains anywhere on the node.
    pub fn is_drained(&self) -> bool {
        self.active.is_empty() && self.pending.is_empty()
    }

    /// Iterates over every unfinished request on the node — admitted
    /// tasks first, then not-yet-admitted arrivals — paired with the
    /// node-local service-time scale each would execute under.
    pub fn queued_tasks(&self) -> impl Iterator<Item = (&TaskState, f64)> {
        self.active
            .iter()
            .map(|&i| (&self.tasks[i], self.scales[i]))
            .chain(self.pending.iter().map(|p| (&p.task, p.scale)))
    }

    /// Iterates the *admitted but never started* requests — the only
    /// ones a cluster front-end may steal or migrate — paired with the
    /// node-local service-time scale each would execute under.
    pub fn unstarted_tasks(&self) -> impl Iterator<Item = (&TaskState, f64)> {
        self.active
            .iter()
            .map(|&i| (&self.tasks[i], self.scales[i]))
            .filter(|(t, _)| !t.started())
    }

    /// Withdraws the admitted request `id` from the node, provided it
    /// has not executed a single layer. Returns `None` when the request
    /// is unknown here, already started, pending (its arrival is still
    /// in the node's future), or finished — a started task is never
    /// stealable. On success the node's queue shrinks by exactly one.
    pub fn take_unstarted(&mut self, id: u64) -> Option<TransferableTask<'w>> {
        let pos = self.active.iter().position(|&i| self.tasks[i].id == id)?;
        let idx = self.active[pos];
        if self.tasks[idx].started() {
            return None;
        }
        // `swap_remove` keeps removal O(1); the task moves out of its
        // slot whole, pre-sized `monitored` buffer included.
        self.active.swap_remove(pos);
        self.mutation_epoch += 1;
        let task = self.vacate(idx);
        Some(TransferableTask {
            task,
            trace: self.traces[idx],
        })
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
        assert!(
            scale >= 1.0 && scale.is_finite(),
            "service-time scale must be >= 1"
        );
        let TransferableTask { mut task, trace } = transfer;
        assert!(!task.started(), "only unstarted tasks can transfer");
        task.true_remaining_ns = scale_ns(trace.isolated_latency_ns(), scale);
        self.now_ns = self.now_ns.max(at_ns).saturating_add(fetch_ns);
        self.busy_ns += fetch_ns;
        self.mutation_epoch += 1;
        self.occupy(task, trace, scale);
    }

    /// Crashes the node: every unfinished request — queued, pending,
    /// *and in-flight* — is withdrawn for re-dispatch elsewhere, and the
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
        let active = std::mem::take(&mut self.active);
        for idx in active {
            let task = self.vacate(idx);
            let lost_ns = task.executed_ns;
            let task = if task.started() {
                // Restart from layer 0: fresh monitor state, no executed
                // layers. `accept_transfer` recomputes the remaining
                // time under the new node's scale.
                TaskState::arrived(
                    task.id,
                    task.spec,
                    task.variant,
                    task.arrival_ns,
                    task.slo_ns,
                    self.traces[idx].num_layers(),
                )
            } else {
                task
            };
            salvaged.push((
                TransferableTask {
                    task,
                    trace: self.traces[idx],
                },
                lost_ns,
            ));
        }
        // Pending arrivals never executed; they salvage with zero loss.
        for p in self.pending.drain(..) {
            salvaged.push((
                TransferableTask {
                    task: p.task,
                    trace: p.trace,
                },
                0,
            ));
        }
        self.last_ran = None;
        salvaged.sort_by_key(|(t, _)| (t.task.arrival_ns, t.task.id));
        salvaged
    }

    /// Queues `request` on the node at its native service time.
    ///
    /// The node trusts [`Request::variant`] to name the request's spec
    /// in the store its LUT was built from; the run entry points
    /// (`simulate_traced`, the cluster engine) check that once per
    /// request with [`Request::assert_variant_in`].
    ///
    /// # Panics
    ///
    /// Panics if arrivals are enqueued out of order.
    pub fn enqueue(&mut self, request: &Request, trace: &'w SampleTrace) {
        self.enqueue_scaled(request, trace, 1.0);
    }

    /// Queues `request` like [`NodeEngine::enqueue`], but with a
    /// service-time multiplier `scale` (≥ 1, modelling execution on an
    /// accelerator the model was not profiled on), flooring execution at
    /// the front-end dispatch instant `at_ns`. The request keeps its
    /// original arrival time (turnaround metrics keep charging the
    /// admission wait), but the node cannot start it before `at_ns`: an
    /// idle node's clock is pulled forward to the dispatch instant, the
    /// same causality guard [`NodeEngine::accept_transfer`] applies to
    /// transfers.
    ///
    /// # Panics
    ///
    /// Panics if `scale < 1`, `at_ns` precedes the request's arrival, or
    /// arrivals are enqueued out of order.
    pub fn enqueue_scaled_at(
        &mut self,
        request: &Request,
        trace: &'w SampleTrace,
        scale: f64,
        at_ns: u64,
    ) {
        assert!(
            at_ns >= request.arrival_ns,
            "dispatch cannot precede arrival"
        );
        self.enqueue_scaled(request, trace, scale);
        self.now_ns = self.now_ns.max(at_ns);
        self.mutation_epoch += 1;
    }

    /// Queues `request` with a service-time multiplier (≥ 1), modelling
    /// execution on an accelerator the model was not profiled on.
    ///
    /// # Panics
    ///
    /// Panics if `scale < 1` or arrivals are enqueued out of order.
    fn enqueue_scaled(&mut self, request: &Request, trace: &'w SampleTrace, scale: f64) {
        assert!(
            scale >= 1.0 && scale.is_finite(),
            "service-time scale must be >= 1"
        );
        if let Some(back) = self.pending.back() {
            assert!(
                back.task.arrival_ns <= request.arrival_ns,
                "requests must be enqueued in arrival order"
            );
        }
        let task = TaskState {
            true_remaining_ns: scale_ns(trace.isolated_latency_ns(), scale),
            ..TaskState::arrived(
                request.id,
                request.spec,
                request.variant,
                request.arrival_ns,
                request.slo_ns,
                trace.num_layers(),
            )
        };
        self.pending.push_back(PendingTask { task, trace, scale });
        self.mutation_epoch += 1;
    }

    /// Admits every queued arrival whose time has come, in arrival
    /// order.
    fn admit_due(&mut self) {
        while let Some(front) = self.pending.front() {
            if front.task.arrival_ns > self.now_ns {
                break;
            }
            let PendingTask { task, trace, scale } = self.pending.pop_front().expect("non-empty");
            self.occupy(task, trace, scale);
        }
    }

    /// Places an admitted task in a free arena slot (the most recently
    /// freed one), appending a slot only when none is free, and lists
    /// it as live.
    fn occupy(&mut self, task: TaskState, trace: &'w SampleTrace, scale: f64) {
        let idx = match self.free.pop() {
            Some(idx) => {
                self.tasks[idx] = task;
                self.traces[idx] = trace;
                self.scales[idx] = scale;
                idx
            }
            None => {
                self.tasks.push(task);
                self.traces.push(trace);
                self.scales.push(scale);
                self.tasks.len() - 1
            }
        };
        self.active.push(idx);
    }

    /// Moves the task out of arena slot `idx` and frees the slot. The
    /// caller has already dropped `idx` from `active`. The slot keeps
    /// an allocation-free stand-in until [`NodeEngine::occupy`]
    /// overwrites it; its trace and scale entries stay behind, unread.
    fn vacate(&mut self, idx: usize) -> TaskState {
        debug_assert!(
            self.open_seg.as_ref().is_none_or(|s| s.task_idx != idx),
            "a slot is freed only after its segment is flushed"
        );
        let t = &self.tasks[idx];
        let stand_in = TaskState::arrived(t.id, t.spec, t.variant, t.arrival_ns, t.slo_ns, 0);
        self.free.push(idx);
        std::mem::replace(&mut self.tasks[idx], stand_in)
    }

    /// Runs one engine step: admit due arrivals, then either execute one
    /// scheduling quantum or jump the clock to the next arrival. Returns
    /// `false` once the node is drained.
    pub fn step(&mut self) -> bool {
        self.admit_due();
        if self.active.is_empty() {
            let Some(arrival) = self.pending.front().map(|p| p.task.arrival_ns) else {
                return false;
            };
            self.now_ns = self.now_ns.max(arrival);
            self.mutation_epoch += 1;
            self.admit_due();
        }
        self.execute_quantum();
        true
    }

    /// Advances the node up to (exclusive) `t_ns`: every quantum that
    /// would *start* before `t_ns` is executed, and idle gaps before
    /// `t_ns` are skipped. The clock may end beyond `t_ns` when a
    /// quantum straddles it — a node cannot abandon a layer mid-flight.
    pub fn run_until(&mut self, t_ns: u64) {
        loop {
            self.admit_due();
            if !self.active.is_empty() {
                if self.now_ns >= t_ns {
                    return;
                }
                self.execute_quantum();
            } else if let Some(arrival) = self.pending.front().map(|p| p.task.arrival_ns) {
                if arrival >= t_ns {
                    return;
                }
                self.now_ns = self.now_ns.max(arrival);
                self.mutation_epoch += 1;
            } else {
                return;
            }
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
    /// Panics if no task is runnable (callers admit first) or the
    /// scheduler returns an out-of-range index.
    fn execute_quantum(&mut self) {
        self.mutation_epoch += 1;
        debug_assert!(
            !self.active.is_empty(),
            "execute_quantum needs a runnable task"
        );
        self.invocations += 1;
        let profiling = self.tracer.profiling();
        let pick = if self.active.len() == 1 {
            0
        } else {
            // The scheduler reads the task arena through the live
            // indices directly — no per-quantum `Vec<&TaskState>`
            // materialisation.
            let queue = TaskQueue::indexed(&self.tasks, &self.active);
            let pick_t0 = profiling.then(std::time::Instant::now);
            let pick = self.scheduler.pick_next(queue, &self.lut, self.now_ns);
            if let Some(t0) = pick_t0 {
                self.tracer
                    .phase_ns(Phase::Pick, t0.elapsed().as_nanos() as u64);
            }
            pick
        };
        assert!(
            pick < self.active.len(),
            "scheduler returned out-of-range index"
        );
        let task_idx = self.active[pick];
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
            task.next_layer += 1;
            task.executed_ns += latency_ns;
            task.record_layer(
                MonitoredLayer {
                    sparsity: layer.sparsity,
                    latency_ns,
                },
                info,
            );
            task.true_remaining_ns = scale_ns(trace.remaining_ns(task.next_layer), scale);
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
            // O(1) removal. The hole is filled by the last active entry,
            // so scheduler-visible queue *order* changes — every shipped
            // scheduler decides from task fields with id tie-breaks, so
            // decisions are order-independent (pinned by the determinism
            // regression tests in `engine.rs`). The segment was flushed
            // above, so the slot can go back to the free list.
            self.active.swap_remove(pick);
            self.vacate(task_idx);
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

    fn tiny(seed: u64) -> Workload {
        WorkloadBuilder::new(Scenario::MultiCnn)
            .num_requests(30)
            .samples_per_variant(6)
            .seed(seed)
            .build()
    }

    fn engine_for<'w>(w: &'w Workload, policy: Policy) -> NodeEngine<'w> {
        let lut = ModelInfoLut::from_store(w.store());
        let mut node = NodeEngine::new(0, policy.build(), EngineConfig::default(), lut);
        for req in w.requests() {
            node.enqueue(req, w.trace_for(req));
        }
        node
    }

    #[test]
    fn stepping_matches_run_to_completion() {
        let w = tiny(1);
        let mut stepped = engine_for(&w, Policy::Dysta);
        while stepped.step() {}
        let mut ran = engine_for(&w, Policy::Dysta);
        ran.run_to_completion();
        assert_eq!(stepped.into_report(), ran.into_report());
    }

    #[test]
    fn run_until_is_equivalent_to_uninterrupted_execution() {
        // Driving the engine with arbitrary run_until barriers must not
        // change any completion: barriers only bound how far the node
        // may get ahead, never what it executes.
        let w = tiny(2);
        let mut reference = engine_for(&w, Policy::Dysta);
        reference.run_to_completion();
        let reference = reference.into_report();

        let mut chunked = engine_for(&w, Policy::Dysta);
        let horizon = w.requests().last().unwrap().arrival_ns * 2;
        let mut t = 0;
        while t < horizon {
            chunked.run_until(t);
            t += horizon / 37 + 1;
        }
        chunked.run_to_completion();
        assert_eq!(chunked.into_report(), reference);
    }

    #[test]
    fn run_until_does_not_start_quanta_at_or_past_the_barrier() {
        let w = tiny(3);
        let mut node = engine_for(&w, Policy::Fcfs);
        let barrier = w.requests()[10].arrival_ns;
        node.run_until(barrier);
        // Pending requests arriving at or after the barrier are untouched.
        assert!(node
            .queued_tasks()
            .all(|(t, _)| t.started() || t.arrival_ns <= node.now_ns() || t.arrival_ns >= barrier));
    }

    #[test]
    fn backlog_estimates_shrink_as_work_completes() {
        let w = tiny(4);
        let lut = ModelInfoLut::from_store(w.store());
        let mut node = engine_for(&w, Policy::Sjf);
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
        let mut native = engine_for(&w, Policy::Fcfs);
        native.run_to_completion();
        let native = native.into_report();

        let mut slowed = NodeEngine::new(0, Policy::Fcfs.build(), EngineConfig::default(), lut);
        for req in w.requests() {
            slowed.enqueue_scaled(req, w.trace_for(req), 2.0);
        }
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
    #[should_panic(expected = "arrival order")]
    fn out_of_order_enqueue_rejected() {
        let w = tiny(6);
        let lut = ModelInfoLut::from_store(w.store());
        let mut node: NodeEngine =
            NodeEngine::new(0, Policy::Fcfs.build(), EngineConfig::default(), lut);
        let reqs = w.requests();
        node.enqueue(&reqs[5], w.trace_for(&reqs[5]));
        node.enqueue(&reqs[0], w.trace_for(&reqs[0]));
    }

    #[test]
    fn take_unstarted_refuses_started_and_unknown_tasks() {
        let w = tiny(8);
        let mut node = engine_for(&w, Policy::Fcfs);
        // Run a few quanta so the first request has started.
        node.run_until(w.requests()[3].arrival_ns);
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
        let mut node = engine_for(&w, Policy::Fcfs);
        node.run_until(w.requests()[10].arrival_ns);
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
        let mut src = engine_for(&w, Policy::Sjf);
        let mut dst: NodeEngine =
            NodeEngine::new(1, Policy::Sjf.build(), EngineConfig::default(), lut);
        let barrier = w.requests()[15].arrival_ns;
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
        let mut node = engine_for(&w, Policy::Fcfs);
        let barrier = w.requests()[12].arrival_ns;
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
        let mut src = engine_for(&w, Policy::Sjf);
        let mut dst: NodeEngine =
            NodeEngine::new(1, Policy::Sjf.build(), EngineConfig::default(), lut);
        let crash_ns = w.requests()[10].arrival_ns;
        src.run_until(crash_ns);
        let done_on_src = src.completed_count();
        let salvaged = src.crash_salvage();
        assert!(!salvaged.is_empty());
        let moved = salvaged.len();
        for (t, _) in salvaged {
            dst.accept_transfer(t, 1.0, crash_ns, 0);
        }
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
        let mut src = engine_for(&w, Policy::Fcfs);
        let mut dst: NodeEngine =
            NodeEngine::new(1, Policy::Fcfs.build(), EngineConfig::default(), lut);
        let barrier = w.requests()[10].arrival_ns;
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
            NodeEngine::new(0, Policy::Fcfs.build(), EngineConfig::default(), lut);
        let dispatch_ns = w.requests().last().unwrap().arrival_ns + 5_000_000;
        for req in w.requests() {
            node.enqueue_scaled_at(req, w.trace_for(req), 1.0, dispatch_ns);
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
            NodeEngine::new(0, Policy::Fcfs.build(), EngineConfig::default(), lut);
        let req = w.requests().last().unwrap();
        node.enqueue_scaled_at(req, w.trace_for(req), 1.0, req.arrival_ns - 1);
    }

    /// Arena invariants, checked after every operation on one node.
    #[derive(Default)]
    struct ArenaCheck {
        /// Most tasks ever live on the node at once.
        high_water: usize,
    }

    impl ArenaCheck {
        fn check(&mut self, node: &NodeEngine<'_>) {
            self.high_water = self.high_water.max(node.active.len());
            assert_eq!(
                node.tasks.len(),
                self.high_water,
                "a slot is appended only when none is free"
            );
            assert_eq!(node.traces.len(), node.tasks.len());
            assert_eq!(node.scales.len(), node.tasks.len());
            let mut slots: Vec<usize> = node.active.iter().chain(&node.free).copied().collect();
            slots.sort_unstable();
            assert!(
                slots.iter().copied().eq(0..node.tasks.len()),
                "live and free slots partition the arena"
            );
            // The queue the next pick folds over: a reused slot must show
            // only its new task's own progress.
            for task in TaskQueue::indexed(&node.tasks, &node.active).iter() {
                assert!(!task.finished(), "request {} already finished", task.id);
                assert_eq!(
                    task.monitored.len(),
                    task.next_layer,
                    "request {} sees stale monitor records",
                    task.id
                );
                if !task.started() {
                    assert_eq!(task.executed_ns, 0);
                    assert_eq!(task.sparsity, dysta_core::SparsitySummary::default());
                }
            }
        }
    }

    #[test]
    fn arena_slots_track_concurrency_and_reuse_cleanly() {
        // One loaded FCFS source and one Dysta destination (preemptive,
        // so many tasks there hold partial progress at once), driven
        // through every way a task enters or leaves an arena.
        let w = tiny(16);
        let lut = ModelInfoLut::from_store(w.store());
        let mut src = engine_for(&w, Policy::Fcfs);
        let mut dst: NodeEngine =
            NodeEngine::new(1, Policy::Dysta.build(), EngineConfig::default(), lut);
        let (mut src_check, mut dst_check) = (ArenaCheck::default(), ArenaCheck::default());

        // Admissions and completions.
        let barrier = w.requests()[20].arrival_ns;
        while src.now_ns() < barrier && src.step() {
            src_check.check(&src);
        }
        assert!(src.completed_count() > 0, "completions freed slots");

        // Withdrawals land on the destination.
        for _ in 0..3 {
            let victim = src
                .unstarted_tasks()
                .map(|(t, _)| t.id)
                .min()
                .expect("unstarted work exists");
            let transfer = src.take_unstarted(victim).expect("victim is unstarted");
            src_check.check(&src);
            dst.accept_transfer(transfer, 1.0, src.now_ns(), 0);
            dst_check.check(&dst);
        }
        for _ in 0..40 {
            src.step();
            src_check.check(&src);
            dst.step();
            dst_check.check(&dst);
        }

        // A crash frees every slot; the salvage reuses the destination's.
        let salvaged = src.crash_salvage();
        src_check.check(&src);
        assert_eq!(
            src.free.len(),
            src.tasks.len(),
            "a crashed node holds no task"
        );
        for (transfer, _) in salvaged {
            dst.accept_transfer(transfer, 1.0, src.now_ns(), 0);
            dst_check.check(&dst);
        }
        while dst.step() {
            dst_check.check(&dst);
        }

        let served = src.completed_count() + dst.completed_count();
        assert_eq!(served, 30, "every request completes exactly once");
        assert!(
            src.tasks.len() + dst.tasks.len() < served,
            "slots were reused rather than one kept per request"
        );
    }

    #[test]
    #[should_panic(expected = "scale must be >= 1")]
    fn speedup_scales_rejected() {
        let w = tiny(7);
        let lut = ModelInfoLut::from_store(w.store());
        let mut node: NodeEngine =
            NodeEngine::new(0, Policy::Fcfs.build(), EngineConfig::default(), lut);
        let req = &w.requests()[0];
        node.enqueue_scaled(req, w.trace_for(req), 0.5);
    }
}
