//! PREMA: predictive token-based preemptive scheduling
//! (Choi & Rhu, HPCA 2020).

use std::collections::HashMap;

use crate::scheduler::{lut_isolated_ns, lut_remaining_ns, Scheduler, TaskQueue};
use crate::{ModelInfoLut, TaskState};

/// PREMA combines token-based aging with shortest-estimated-job
/// dispatch: every waiting task accumulates tokens proportional to its
/// normalized waiting time (`wait / T_isol`); tasks whose tokens reach
/// the threshold of 1 become *candidates*, and the candidate with the
/// shortest estimated time runs next.
///
/// Following the paper's evaluation setup, the candidate condition uses
/// `Token ≥ Threshold` (their modification of PREMA's line 9, which fixes
/// the cold-start where all tokens are zero and no task qualifies), all
/// tasks share one priority class (so no per-model weight enters the
/// token), and when no task reaches the threshold
/// the whole queue is eligible (pure SJF until aging kicks in).
///
/// Aging happens inside [`Scheduler::pick_next`], which also records the
/// running task, so a skipped pick would change later tokens: PREMA
/// keeps the default [`Scheduler::pick_is_pure`] (`false`) and is asked
/// even when one task is runnable.
///
/// # Examples
///
/// ```
/// use dysta_core::{Prema, Scheduler};
/// assert_eq!(Prema::default().name(), "prema");
/// ```
#[derive(Debug, Clone, Default)]
pub struct Prema {
    tokens: HashMap<u64, TokenState>,
    current: Option<u64>,
}

/// Token level at which a waiting task becomes a candidate.
const THRESHOLD: f64 = 1.0;

#[derive(Debug, Clone, Copy)]
struct TokenState {
    token: f64,
    last_update_ns: u64,
}

impl Prema {
    fn age_tokens(&mut self, queue: TaskQueue<'_>, lut: &ModelInfoLut, now_ns: u64) {
        for task in queue.iter() {
            let entry = self.tokens.entry(task.id).or_insert(TokenState {
                token: 0.0,
                last_update_ns: task.arrival_ns,
            });
            let waited = now_ns.saturating_sub(entry.last_update_ns) as f64;
            entry.last_update_ns = now_ns;
            // The running task is receiving service, not waiting.
            if self.current != Some(task.id) {
                let isolated = lut_isolated_ns(task, lut).max(1.0);
                entry.token += waited / isolated;
            }
        }
    }
}

impl Scheduler for Prema {
    fn name(&self) -> &str {
        "prema"
    }

    fn on_task_complete(&mut self, task: &TaskState, _now_ns: u64) {
        self.tokens.remove(&task.id);
        if self.current == Some(task.id) {
            self.current = None;
        }
    }

    fn on_task_removed(&mut self, task: &TaskState, _now_ns: u64) {
        // A withdrawn task never ran, so it cannot be `current`; only its
        // aging bookkeeping needs dropping.
        self.tokens.remove(&task.id);
    }

    fn pick_next(&mut self, queue: TaskQueue<'_>, lut: &ModelInfoLut, now_ns: u64) -> usize {
        self.age_tokens(queue, lut, now_ns);
        // One pass, one score evaluation per task: track the shortest
        // candidate (token over threshold) and the shortest task overall;
        // the overall minimum only decides when no candidate exists.
        let mut best_candidate: Option<(f64, u64, usize)> = None;
        let mut best_any: Option<(f64, u64, usize)> = None;
        for (pos, t) in queue.iter().enumerate() {
            let remaining = lut_remaining_ns(t, lut);
            let better = |best: &Option<(f64, u64, usize)>| match best {
                None => true,
                Some((bs, bid, _)) => match remaining.total_cmp(bs) {
                    std::cmp::Ordering::Less => true,
                    std::cmp::Ordering::Equal => t.id < *bid,
                    std::cmp::Ordering::Greater => false,
                },
            };
            if better(&best_any) {
                best_any = Some((remaining, t.id, pos));
            }
            if self.tokens[&t.id].token >= THRESHOLD && better(&best_candidate) {
                best_candidate = Some((remaining, t.id, pos));
            }
        }
        let idx = best_candidate
            .or(best_any)
            .expect("eligible set is never empty")
            .2;
        self.current = Some(queue.get(idx).id);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dysta_models::ModelId;
    use dysta_sparsity::SparsityPattern;
    use dysta_trace::{ModelTraces, SparseModelSpec, TraceStore};

    fn setup() -> (SparseModelSpec, SparseModelSpec, ModelInfoLut) {
        let small = SparseModelSpec::new(ModelId::MobileNet, SparsityPattern::Dense, 0.0);
        let big = SparseModelSpec::new(ModelId::Vgg16, SparsityPattern::Dense, 0.0);
        let mut store = TraceStore::new();
        store.insert(ModelTraces::generate(&small, 2, 0));
        store.insert(ModelTraces::generate(&big, 2, 0));
        (small, big, ModelInfoLut::from_store(&store))
    }

    fn mk(id: u64, spec: SparseModelSpec, lut: &ModelInfoLut, arrival: u64) -> TaskState {
        let variant = lut.variant_id(&spec).expect("spec profiled");
        TaskState::arrived(id, spec, variant, arrival, u64::MAX / 2, 10)
    }

    #[test]
    fn behaves_like_sjf_before_aging() {
        let (small, big, lut) = setup();
        let queue = [mk(0, big, &lut, 0), mk(1, small, &lut, 0)];
        let mut p = Prema::default();
        assert_eq!(
            p.pick_next(TaskQueue::dense(&queue), &lut, 0),
            1,
            "short job first"
        );
    }

    #[test]
    fn starved_long_job_eventually_wins() {
        let (small, big, lut) = setup();
        let long_task = mk(0, big, &lut, 0);
        let mut p = Prema::default();
        // Age the long task far beyond its isolated time while short jobs
        // keep arriving fresh.
        let isolated = lut.expect(&big).avg_latency_ns();
        let much_later = (isolated * 3.0) as u64;
        let fresh_short = mk(99, small, &lut, much_later);
        let queue = [long_task, fresh_short];
        let idx = p.pick_next(TaskQueue::dense(&queue), &lut, much_later);
        assert_eq!(idx, 0, "aged long job must win over fresh short job");
    }

    #[test]
    fn completion_clears_bookkeeping() {
        let (small, _, lut) = setup();
        let t = mk(0, small, &lut, 0);
        let mut p = Prema::default();
        let queue = [t.clone()];
        p.pick_next(TaskQueue::dense(&queue), &lut, 0);
        p.on_task_complete(&t, 100);
        assert!(p.tokens.is_empty());
        assert_eq!(p.current, None);
    }
}
