//! PREMA: predictive token-based preemptive scheduling
//! (Choi & Rhu, HPCA 2020).

use crate::scheduler::{lut_isolated_ns, lut_remaining_ns, Scheduler, TaskQueue};
use crate::ModelInfoLut;

/// PREMA combines token-based aging with shortest-estimated-job
/// dispatch: a task's token is its normalized waiting time
/// (`wait / T_isol`, with `wait` = [`crate::TaskState::waiting_ns`],
/// time queued and not executing); tasks whose tokens reach the
/// threshold of 1 become *candidates*, and the candidate with the
/// shortest estimated time runs next.
///
/// Following the paper's evaluation setup, the candidate condition uses
/// `Token ≥ Threshold` (their modification of PREMA's line 9, which fixes
/// the cold-start where all tokens are zero and no task qualifies), all
/// tasks share one priority class (so no per-model weight enters the
/// token), and when no task reaches the threshold
/// the whole queue is eligible (pure SJF until aging kicks in).
///
/// # Examples
///
/// ```
/// use dysta_core::{Prema, Scheduler};
/// assert_eq!(Prema.name(), "prema");
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Prema;

/// Token level at which a waiting task becomes a candidate.
const THRESHOLD: f64 = 1.0;

impl Scheduler for Prema {
    fn name(&self) -> &str {
        "prema"
    }

    fn pick_next(&mut self, queue: TaskQueue<'_>, lut: &ModelInfoLut, now_ns: u64) -> usize {
        // One pass, one evaluation per task. The key orders candidates
        // (token over threshold) first, then by shortest estimated time
        // and smaller id, so the shortest task overall decides only when
        // no candidate exists.
        let mut best: Option<((bool, f64, u64), usize)> = None;
        for (pos, t) in queue.iter().enumerate() {
            let token = t.waiting_ns(now_ns) as f64 / lut_isolated_ns(t, lut).max(1.0);
            let key = (token < THRESHOLD, lut_remaining_ns(t, lut), t.id);
            let better = best.is_none_or(|(b, _)| {
                key.0
                    .cmp(&b.0)
                    .then(key.1.total_cmp(&b.1))
                    .then(key.2.cmp(&b.2))
                    .is_lt()
            });
            if better {
                best = Some((key, pos));
            }
        }
        best.expect("engine never passes an empty queue").1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TaskState;
    use dysta_models::ModelId;
    use dysta_sparsity::SparsityPattern;
    use dysta_trace::{ModelTraces, SparseModelSpec, TraceStore, VariantId};

    /// A profiled variant: its spec and its id in the store.
    type Variant = (SparseModelSpec, VariantId);

    /// A short and a long variant, and their LUT.
    fn setup() -> (Variant, Variant, ModelInfoLut) {
        let small = SparseModelSpec::new(ModelId::MobileNet, SparsityPattern::Dense, 0.0);
        let big = SparseModelSpec::new(ModelId::Vgg16, SparsityPattern::Dense, 0.0);
        let mut store = TraceStore::new();
        store.insert(ModelTraces::generate(&small, 2, 0));
        store.insert(ModelTraces::generate(&big, 2, 0));
        let id = |spec| store.variant_id(&spec).expect("spec profiled");
        (
            (small, id(small)),
            (big, id(big)),
            ModelInfoLut::from_store(&store),
        )
    }

    fn mk(id: u64, (spec, variant): Variant, arrival: u64) -> TaskState {
        TaskState::arrived(id, spec, variant, arrival, u64::MAX / 2, 10)
    }

    #[test]
    fn behaves_like_sjf_before_aging() {
        let (small, big, lut) = setup();
        let queue = [mk(0, big, 0), mk(1, small, 0)];
        let mut p = Prema;
        assert_eq!(p.pick_next(&queue, &lut, 0), 1, "short job first");
    }

    #[test]
    fn starved_long_job_eventually_wins() {
        let (small, big, lut) = setup();
        let long_task = mk(0, big, 0);
        let mut p = Prema;
        // Age the long task far beyond its isolated time while short jobs
        // keep arriving fresh.
        let isolated = lut.info(big.1).avg_latency_ns();
        let much_later = (isolated * 3.0) as u64;
        let fresh_short = mk(99, small, much_later);
        let queue = [long_task, fresh_short];
        let idx = p.pick_next(&queue, &lut, much_later);
        assert_eq!(idx, 0, "aged long job must win over fresh short job");
    }

    #[test]
    fn token_counts_waiting_not_service() {
        let (small, big, lut) = setup();
        let isolated = lut.info(big.1).avg_latency_ns().ceil() as u64;
        // The long task waited its isolated latency: its token reaches
        // the threshold and it beats the shorter job.
        let waited = mk(0, big, 0);
        let short = mk(1, small, isolated);
        let queue = [waited, short];
        let mut p = Prema;
        assert_eq!(p.pick_next(&queue, &lut, isolated), 0);
        // One nanosecond less and it is no candidate: SJF decides.
        assert_eq!(p.pick_next(&queue, &lut, isolated - 1), 1);
        // Time spent executing is service, not waiting: the same
        // elapsed time with 1 ns of it executed leaves the token short.
        let served = TaskState {
            executed_ns: 1,
            ..waited
        };
        let queue = [served, short];
        assert_eq!(p.pick_next(&queue, &lut, isolated), 1);
    }
}
