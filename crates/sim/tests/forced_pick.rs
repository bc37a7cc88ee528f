//! The forced pick: with one runnable task, the engine takes position 0
//! without asking a scheduler whose pick is side-effect free
//! (`Scheduler::pick_is_pure`). The skip must change nothing a run
//! reports, and it must skip exactly the single-task decisions.

use dysta_core::{ModelInfoLut, Policy, Scheduler, TaskQueue, TaskState};
use dysta_sim::{simulate, EngineConfig, SimReport};
use dysta_workload::{Scenario, Workload, WorkloadBuilder};

/// Wraps a scheduler, counts its `pick_next` calls, and declares the
/// purity it is built with.
struct Counting {
    inner: Box<dyn Scheduler>,
    pure: bool,
    /// `pick_next` calls.
    calls: u64,
    /// `pick_next` calls over two or more runnable tasks.
    open_calls: u64,
}

impl Counting {
    fn new(policy: Policy, pure: bool) -> Self {
        Counting {
            inner: policy.build(),
            pure,
            calls: 0,
            open_calls: 0,
        }
    }
}

impl Scheduler for Counting {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_arrival(&mut self, task: &TaskState, lut: &ModelInfoLut, now_ns: u64) {
        self.inner.on_arrival(task, lut, now_ns);
    }

    fn on_layer_complete(&mut self, task: &TaskState, lut: &ModelInfoLut, now_ns: u64) {
        self.inner.on_layer_complete(task, lut, now_ns);
    }

    fn on_task_complete(&mut self, task: &TaskState, now_ns: u64) {
        self.inner.on_task_complete(task, now_ns);
    }

    fn on_task_removed(&mut self, task: &TaskState, now_ns: u64) {
        self.inner.on_task_removed(task, now_ns);
    }

    fn pick_next(&mut self, queue: TaskQueue<'_>, lut: &ModelInfoLut, now_ns: u64) -> usize {
        self.calls += 1;
        self.open_calls += u64::from(queue.len() >= 2);
        self.inner.pick_next(queue, lut, now_ns)
    }

    fn pick_is_pure(&self) -> bool {
        self.pure
    }
}

fn workload() -> Workload {
    WorkloadBuilder::new(Scenario::MultiCnn)
        .num_requests(40)
        .samples_per_variant(8)
        .seed(5)
        .build()
}

fn run(w: &Workload, policy: Policy, pure: bool) -> (SimReport, Counting) {
    let mut sched = Counting::new(policy, pure);
    let report = simulate(w, &mut sched, &EngineConfig::default());
    (report, sched)
}

#[test]
fn forced_picks_change_nothing_and_skip_only_single_task_decisions() {
    let w = workload();
    for policy in Policy::ALL {
        // Only a scheduler whose own pick is pure may be skipped.
        if !policy.build().pick_is_pure() {
            continue;
        }
        let (asked, always) = run(&w, policy, false);
        let (forced, skipping) = run(&w, policy, true);
        assert_eq!(asked, forced, "{policy}: the skip changed the report");

        let decisions = asked.scheduler_invocations();
        assert_eq!(
            always.calls, decisions,
            "{policy}: without the flag every decision calls pick_next"
        );
        assert_eq!(
            skipping.calls, always.open_calls,
            "{policy}: with the flag exactly the open decisions call pick_next"
        );
        assert_eq!(
            skipping.open_calls, skipping.calls,
            "{policy}: a single-task decision called pick_next"
        );
        assert!(
            0 < skipping.calls && skipping.calls < decisions,
            "{policy}: the workload must mix open and forced decisions \
             ({} calls of {decisions})",
            skipping.calls
        );
    }
}
