//! The scheduler interface the discrete-event engine drives.

use std::cmp::Ordering;

use crate::{ModelInfoLut, TaskState};

/// A borrowed view of the runnable queue at one scheduling point.
///
/// Either a dense slice of tasks ([`TaskQueue::dense`], what tests and
/// analysis harnesses build) or the engine's task arena plus the live
/// indices into it ([`TaskQueue::indexed`]) — so the engine hands its
/// existing storage straight to the scheduler instead of materialising a
/// fresh `Vec<&TaskState>` every quantum. Positions (`0..len()`) are
/// what [`Scheduler::pick_next`] returns.
#[derive(Debug, Clone, Copy)]
pub struct TaskQueue<'a> {
    tasks: &'a [TaskState],
    /// Live positions into `tasks`; `None` means every task is live.
    active: Option<&'a [usize]>,
}

impl<'a> TaskQueue<'a> {
    /// A queue over every task in the slice.
    pub fn dense(tasks: &'a [TaskState]) -> Self {
        TaskQueue {
            tasks,
            active: None,
        }
    }

    /// A queue over `active` positions into a task arena.
    ///
    /// The arena may reuse the slot of a task that left for the next
    /// one admitted, so a slot number says nothing about a task's
    /// identity or history. Queue position `i` is `active[i]`, whatever
    /// slot that is; a scheduler keys any per-task state it keeps by
    /// [`TaskState::id`] (PREMA's token map, for example), never by
    /// position or slot. With `active` listing the same tasks in the
    /// same order, every pick is the same whichever slots they occupy.
    ///
    /// # Panics
    ///
    /// Debug-asserts every index is in range; release builds surface
    /// out-of-range indices at access time.
    pub fn indexed(tasks: &'a [TaskState], active: &'a [usize]) -> Self {
        debug_assert!(active.iter().all(|&i| i < tasks.len()));
        TaskQueue {
            tasks,
            active: Some(active),
        }
    }

    /// Number of runnable tasks.
    pub fn len(&self) -> usize {
        self.active.map_or(self.tasks.len(), <[usize]>::len)
    }

    /// True when no task is runnable.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The task at queue position `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= len()`.
    #[inline]
    pub fn get(&self, pos: usize) -> &'a TaskState {
        match self.active {
            Some(active) => &self.tasks[active[pos]],
            None => &self.tasks[pos],
        }
    }

    /// Iterates the runnable tasks in queue-position order.
    pub fn iter(&self) -> impl Iterator<Item = &'a TaskState> + '_ {
        (0..self.len()).map(|pos| self.get(pos))
    }
}

/// A multi-DNN scheduling policy.
///
/// The engine takes a scheduling decision at every scheduling point —
/// request arrival while idle, and each layer(-block) completion —
/// exactly the preemptive layer-granularity model of the paper's
/// Algorithm 2. It asks the scheduler whenever two or more tasks are
/// runnable; with one runnable task it skips [`Scheduler::pick_next`]
/// and takes position 0 if the scheduler declares
/// [`Scheduler::pick_is_pure`], and asks as usual otherwise. The
/// engine owns task state; schedulers keep whatever per-task
/// bookkeeping they need internally (keyed by `TaskState::id`).
///
/// Implementations must keep the steady-state `pick_next` path
/// allocation-free and evaluate each task's score exactly once per
/// invocation (use [`pick_min_score`] / [`pick_max_score`]); the
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

    /// Notification that `task` has entered the system.
    fn on_arrival(&mut self, task: &TaskState, lut: &ModelInfoLut, now_ns: u64) {
        let _ = (task, lut, now_ns);
    }

    /// Notification that one layer of `task` finished executing (its
    /// `monitored` stream includes the new record).
    fn on_layer_complete(&mut self, task: &TaskState, lut: &ModelInfoLut, now_ns: u64) {
        let _ = (task, lut, now_ns);
    }

    /// Notification that `task` completed all layers and left the system.
    fn on_task_complete(&mut self, task: &TaskState, now_ns: u64) {
        let _ = (task, now_ns);
    }

    /// Notification that `task` was withdrawn from this node *without*
    /// executing — a cluster front-end stole or migrated it to a peer.
    /// Only never-started tasks are ever withdrawn. Stateful schedulers
    /// drop their per-task bookkeeping here, exactly as on completion.
    fn on_task_removed(&mut self, task: &TaskState, now_ns: u64) {
        let _ = (task, now_ns);
    }

    /// Chooses which queued task runs its next layer. Returns a queue
    /// position (`0..queue.len()`).
    ///
    /// # Panics
    ///
    /// Implementations may panic if `queue` is empty; the engine never
    /// calls with an empty queue.
    fn pick_next(&mut self, queue: TaskQueue<'_>, lut: &ModelInfoLut, now_ns: u64) -> usize;

    /// True when [`Scheduler::pick_next`] is side-effect free: a call
    /// leaves no observable state in `self`, so skipping one changes no
    /// later decision and nothing the scheduler reports. The answer must
    /// be constant for the scheduler's lifetime (the engine reads it
    /// once, at construction).
    ///
    /// A pure scheduler is not asked to pick from a single runnable
    /// task: the engine takes position 0 without calling it. The default
    /// is `false`, which is always safe; a scheduler whose pick ages,
    /// caches or counts anything (PREMA's tokens, a hardware model's
    /// cycle counter) must keep it.
    fn pick_is_pure(&self) -> bool {
        false
    }
}

impl<S: Scheduler + ?Sized> Scheduler for &mut S {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn on_arrival(&mut self, task: &TaskState, lut: &ModelInfoLut, now_ns: u64) {
        (**self).on_arrival(task, lut, now_ns);
    }

    fn on_layer_complete(&mut self, task: &TaskState, lut: &ModelInfoLut, now_ns: u64) {
        (**self).on_layer_complete(task, lut, now_ns);
    }

    fn on_task_complete(&mut self, task: &TaskState, now_ns: u64) {
        (**self).on_task_complete(task, now_ns);
    }

    fn on_task_removed(&mut self, task: &TaskState, now_ns: u64) {
        (**self).on_task_removed(task, now_ns);
    }

    fn pick_next(&mut self, queue: TaskQueue<'_>, lut: &ModelInfoLut, now_ns: u64) -> usize {
        (**self).pick_next(queue, lut, now_ns)
    }

    fn pick_is_pure(&self) -> bool {
        (**self).pick_is_pure()
    }
}

impl<S: Scheduler + ?Sized> Scheduler for Box<S> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn on_arrival(&mut self, task: &TaskState, lut: &ModelInfoLut, now_ns: u64) {
        (**self).on_arrival(task, lut, now_ns);
    }

    fn on_layer_complete(&mut self, task: &TaskState, lut: &ModelInfoLut, now_ns: u64) {
        (**self).on_layer_complete(task, lut, now_ns);
    }

    fn on_task_complete(&mut self, task: &TaskState, now_ns: u64) {
        (**self).on_task_complete(task, now_ns);
    }

    fn on_task_removed(&mut self, task: &TaskState, now_ns: u64) {
        (**self).on_task_removed(task, now_ns);
    }

    fn pick_next(&mut self, queue: TaskQueue<'_>, lut: &ModelInfoLut, now_ns: u64) -> usize {
        (**self).pick_next(queue, lut, now_ns)
    }

    fn pick_is_pure(&self) -> bool {
        (**self).pick_is_pure()
    }
}

/// Single-pass argmin over the queue: evaluates `score` exactly once per
/// task (the double-evaluation `min_by`-with-closure pattern this
/// replaces recomputed both sides at every comparison), breaking score
/// ties towards the smaller task id.
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

/// Single-pass argmax counterpart of [`pick_min_score`] (same
/// evaluate-once guarantee, same smaller-id tie-break).
///
/// # Panics
///
/// Panics if the queue is empty.
pub fn pick_max_score(queue: TaskQueue<'_>, mut score: impl FnMut(&TaskState) -> f64) -> usize {
    let mut best: Option<(f64, u64, usize)> = None;
    for (pos, task) in queue.iter().enumerate() {
        let s = score(task);
        let better = match &best {
            None => true,
            Some((best_s, best_id, _)) => match s.total_cmp(best_s) {
                Ordering::Greater => true,
                Ordering::Equal => task.id < *best_id,
                Ordering::Less => false,
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
            let _ = pick_min_score(TaskQueue::dense(&tasks), |_| {
                evals += 1;
                0.0
            });
            assert_eq!(evals, n, "min: one evaluation per task");
            evals = 0;
            let _ = pick_max_score(TaskQueue::dense(&tasks), |_| {
                evals += 1;
                0.0
            });
            assert_eq!(evals, n, "max: one evaluation per task");
        }
    }

    #[test]
    fn ties_break_towards_smaller_id() {
        let tasks = dense_queue_tasks(5);
        // All-equal scores: position of the smallest id wins. Task ids
        // are assigned in reverse so position != id.
        let min = pick_min_score(TaskQueue::dense(&tasks), |_| 1.0);
        let max = pick_max_score(TaskQueue::dense(&tasks), |_| 1.0);
        assert_eq!(tasks[min].id, 0);
        assert_eq!(tasks[max].id, 0);
    }

    #[test]
    fn min_and_max_agree_with_reference_scan() {
        let tasks = dense_queue_tasks(9);
        let score = |t: &TaskState| ((t.id * 7919) % 13) as f64;
        let q = TaskQueue::dense(&tasks);
        let min = pick_min_score(q, score);
        let max = pick_max_score(q, score);
        for t in &tasks {
            assert!(score(&tasks[min]) <= score(t));
            assert!(score(&tasks[max]) >= score(t));
        }
    }

    #[test]
    fn indexed_queue_exposes_only_active_positions() {
        let tasks = dense_queue_tasks(6);
        let active = [4usize, 1, 3];
        let q = TaskQueue::indexed(&tasks, &active);
        assert_eq!(q.len(), 3);
        assert_eq!(q.get(0).id, tasks[4].id);
        let ids: Vec<u64> = q.iter().map(|t| t.id).collect();
        assert_eq!(
            ids,
            vec![tasks[4].id, tasks[1].id, tasks[3].id],
            "iteration follows active order"
        );
    }
}
