//! The scheduler interface the discrete-event engine drives.

use std::cmp::Ordering;

use crate::{ModelInfoLut, TaskState};

/// The runnable queue at one scheduling point: the engine's live-task
/// slice, handed to the scheduler as is. Slice indices are what
/// [`Scheduler::pick_next`] returns.
pub type TaskQueue<'a> = &'a [TaskState];

/// A multi-DNN scheduling policy.
///
/// The engine takes a scheduling decision at every scheduling point —
/// request arrival while idle, and each layer(-block) completion —
/// exactly the preemptive layer-granularity model of the paper's
/// Algorithm 2. It asks the scheduler whenever two or more tasks are
/// runnable and takes position 0 without asking when one is. The
/// engine owns all task state: [`Scheduler::pick_next`] is a pure
/// function of (queue, LUT, now), so skipping or repeating a call
/// changes no later decision.
///
/// Implementations must keep the steady-state `pick_next` path
/// allocation-free and evaluate each task's score exactly once per
/// invocation (use [`pick_min_score`]); the
/// score-evaluation-count and allocation regression tests pin this.
///
/// # Examples
///
/// ```
/// use dysta_core::{Fcfs, Scheduler};
///
/// let sched = Fcfs::new();
/// assert_eq!(sched.name(), "fcfs");
/// ```
pub trait Scheduler {
    /// Stable lower-case policy name (used in experiment tables).
    fn name(&self) -> &str;

    /// Chooses which queued task runs its next layer. Returns a queue
    /// position (`0..queue.len()`).
    ///
    /// The answer depends only on `queue`, `lut` and `now_ns`: a call
    /// leaves nothing behind that a later call reads. `&mut self` lets
    /// an implementation reuse scratch buffers across calls.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `queue` is empty; the engine never
    /// calls with an empty queue.
    fn pick_next(&mut self, queue: TaskQueue<'_>, lut: &ModelInfoLut, now_ns: u64) -> usize;

    /// Never called by the engine. Kept, with the three hooks below, as
    /// a no-op default only because perfbench's `TimedScheduler` still
    /// overrides them; ROADMAP item 1's benchmark change deletes all
    /// four.
    #[doc(hidden)]
    fn on_arrival(&mut self, task: &TaskState, lut: &ModelInfoLut, now_ns: u64) {
        let _ = (task, lut, now_ns);
    }

    /// Never called by the engine (see [`Scheduler::on_arrival`]).
    #[doc(hidden)]
    fn on_layer_complete(&mut self, task: &TaskState, lut: &ModelInfoLut, now_ns: u64) {
        let _ = (task, lut, now_ns);
    }

    /// Never called by the engine (see [`Scheduler::on_arrival`]).
    #[doc(hidden)]
    fn on_task_complete(&mut self, task: &TaskState, now_ns: u64) {
        let _ = (task, now_ns);
    }

    /// Never called by the engine (see [`Scheduler::on_arrival`]).
    #[doc(hidden)]
    fn on_task_removed(&mut self, task: &TaskState, now_ns: u64) {
        let _ = (task, now_ns);
    }
}

impl<S: Scheduler + ?Sized> Scheduler for &mut S {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn pick_next(&mut self, queue: TaskQueue<'_>, lut: &ModelInfoLut, now_ns: u64) -> usize {
        (**self).pick_next(queue, lut, now_ns)
    }
}

impl<S: Scheduler + ?Sized> Scheduler for Box<S> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn pick_next(&mut self, queue: TaskQueue<'_>, lut: &ModelInfoLut, now_ns: u64) -> usize {
        (**self).pick_next(queue, lut, now_ns)
    }
}

/// Single-pass argmin over the queue: evaluates `score` exactly once per
/// task (the double-evaluation `min_by`-with-closure pattern this
/// replaces recomputed both sides at every comparison), breaking score
/// ties towards the smaller task id. An argmax negates its score:
/// [`f64::total_cmp`] orders negated values in exactly reverse order.
///
/// # Panics
///
/// Panics if the queue is empty.
pub fn pick_min_score(queue: TaskQueue<'_>, mut score: impl FnMut(&TaskState) -> f64) -> usize {
    let mut best: Option<(f64, u64, usize)> = None;
    for (pos, task) in queue.iter().enumerate() {
        let s = score(task);
        let better = match &best {
            None => true,
            Some((best_s, best_id, _)) => match s.total_cmp(best_s) {
                Ordering::Less => true,
                Ordering::Equal => task.id < *best_id,
                Ordering::Greater => false,
            },
        };
        if better {
            best = Some((s, task.id, pos));
        }
    }
    best.expect("engine never passes an empty queue").2
}

/// Shared helper: sparsity-unaware estimate of remaining time from the
/// latency LUT (what SJF/PREMA/Planaria/SDRM3 use — profiled averages
/// under the static-workload assumption the paper critiques).
#[inline]
pub(crate) fn lut_remaining_ns(task: &TaskState, lut: &ModelInfoLut) -> f64 {
    lut.info(task.variant).avg_remaining_ns(task.next_layer)
}

/// Shared helper: sparsity-unaware isolated-latency estimate.
#[inline]
pub(crate) fn lut_isolated_ns(task: &TaskState, lut: &ModelInfoLut) -> f64 {
    lut.info(task.variant).avg_latency_ns()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::tests_support::dense_queue_tasks;

    #[test]
    fn pick_helpers_evaluate_each_task_exactly_once() {
        for n in [1usize, 2, 7, 32] {
            let tasks = dense_queue_tasks(n);
            let mut evals = 0usize;
            let _ = pick_min_score(&tasks, |_| {
                evals += 1;
                0.0
            });
            assert_eq!(evals, n, "one evaluation per task");
        }
    }

    #[test]
    fn ties_break_towards_smaller_id() {
        let tasks = dense_queue_tasks(5);
        // All-equal scores: position of the smallest id wins. Task ids
        // are assigned in reverse so position != id.
        let min = pick_min_score(&tasks, |_| 1.0);
        assert_eq!(tasks[min].id, 0);
    }

    #[test]
    fn min_and_max_agree_with_reference_scan() {
        let tasks = dense_queue_tasks(9);
        let score = |t: &TaskState| ((t.id * 7919) % 13) as f64;
        let min = pick_min_score(&tasks, score);
        // An argmax is the argmin of the negated score.
        let max = pick_min_score(&tasks, |t| -score(t));
        for t in &tasks {
            assert!(score(&tasks[min]) <= score(t));
            assert!(score(&tasks[max]) >= score(t));
        }
    }
}
