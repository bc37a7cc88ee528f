//! The forced pick: with one runnable task, the engine takes position 0
//! without asking the scheduler. It must skip exactly the single-task
//! decisions, for every policy. That the skip changes no decision is
//! the purity property in `crates/core/tests/scheduler_contract.rs`.

use dysta_core::{ModelInfoLut, Policy, Scheduler, TaskQueue};
use dysta_sim::{simulate, EngineConfig};
use dysta_workload::{Scenario, WorkloadBuilder};

/// Wraps a scheduler and counts its `pick_next` calls.
struct Counting {
    inner: Box<dyn Scheduler>,
    /// `pick_next` calls.
    calls: u64,
    /// `pick_next` calls over fewer than two runnable tasks.
    forced_calls: u64,
}

impl Scheduler for Counting {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn pick_next(&mut self, queue: TaskQueue<'_>, lut: &ModelInfoLut, now_ns: u64) -> usize {
        self.calls += 1;
        self.forced_calls += u64::from(queue.len() < 2);
        self.inner.pick_next(queue, lut, now_ns)
    }
}

#[test]
fn the_engine_asks_only_at_decisions_over_two_or_more_tasks() {
    let w = WorkloadBuilder::new(Scenario::MultiCnn)
        .num_requests(40)
        .samples_per_variant(8)
        .seed(5)
        .build();
    for policy in Policy::ALL {
        let mut sched = Counting {
            inner: policy.build(),
            calls: 0,
            forced_calls: 0,
        };
        let report = simulate(&w, &mut sched, &EngineConfig::default());
        assert_eq!(
            sched.forced_calls, 0,
            "{policy}: a single-task decision called pick_next"
        );
        let decisions = report.scheduler_invocations();
        assert!(
            0 < sched.calls && sched.calls < decisions,
            "{policy}: the workload must mix open and forced decisions \
             ({} calls of {decisions})",
            sched.calls
        );
    }
}
