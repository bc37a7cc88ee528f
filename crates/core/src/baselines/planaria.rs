//! Planaria's task scheduler (Ghodrati et al., MICRO 2020), specialised
//! to time-shared execution.

use crate::scheduler::{lut_remaining_ns, Scheduler, TaskQueue};
use crate::ModelInfoLut;

/// Planaria schedules by deadline urgency: its dispatcher sorts tasks by
/// slack, *checks feasibility* (can the task still meet its deadline with
/// the resources available?) and admits the most urgent feasible tasks
/// first. The paper sets every task's resource requirement to 1 because
/// both target accelerators are time-shared, which reduces Planaria's
/// scheduler to earliest-deadline-first over the deadline-feasible tasks
/// (tasks whose estimated slack is already negative are served
/// best-effort behind them, mirroring Planaria's admission behaviour) —
/// strongly SLO-optimized, weak on ANTT, exactly its Table 5 profile.
///
/// # Examples
///
/// ```
/// use dysta_core::{Planaria, Scheduler};
/// assert_eq!(Planaria::new().name(), "planaria");
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Planaria;

impl Planaria {
    /// Creates a Planaria scheduler.
    pub fn new() -> Self {
        Planaria
    }
}

impl Scheduler for Planaria {
    fn name(&self) -> &str {
        "planaria"
    }

    fn pick_next(&mut self, queue: TaskQueue<'_>, lut: &ModelInfoLut, now_ns: u64) -> usize {
        // Single pass; each task's LUT estimate (the only non-trivial
        // term) is computed exactly once and reused for both the
        // feasibility flag and the remaining-time tie-break.
        let mut best: Option<((bool, u64, f64, u64), usize)> = None;
        for (pos, t) in queue.iter().enumerate() {
            let remaining = lut_remaining_ns(t, lut);
            let infeasible = t.deadline_ns() as f64 - now_ns as f64 - remaining < 0.0;
            let key = (infeasible, t.deadline_ns(), remaining, t.id);
            let better = match &best {
                None => true,
                Some((bk, _)) => key
                    .0
                    .cmp(&bk.0)
                    .then(key.1.cmp(&bk.1))
                    .then(key.2.total_cmp(&bk.2))
                    .then(key.3.cmp(&bk.3))
                    .is_lt(),
            };
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
    use dysta_trace::{ModelTraces, SparseModelSpec, TraceStore};

    fn setup() -> (SparseModelSpec, ModelInfoLut) {
        let spec = SparseModelSpec::new(ModelId::MobileNet, SparsityPattern::Dense, 0.0);
        let mut store = TraceStore::new();
        store.insert(ModelTraces::generate(&spec, 2, 0));
        (spec, ModelInfoLut::from_store(&store))
    }

    fn mk(id: u64, spec: SparseModelSpec, lut: &ModelInfoLut, arrival: u64, slo: u64) -> TaskState {
        let variant = lut.variant_id(&spec).expect("spec profiled");
        TaskState::arrived(id, spec, variant, arrival, slo, 3)
    }

    #[test]
    fn earliest_feasible_deadline_first() {
        let (spec, lut) = setup();
        // Task 1 arrives later but has a much tighter (yet feasible) SLO.
        let queue = [
            mk(0, spec, &lut, 0, 10_000_000_000),
            mk(1, spec, &lut, 100, 1_000_000_000),
        ];
        assert_eq!(
            Planaria::new().pick_next(TaskQueue::dense(&queue), &lut, 200),
            1
        );
    }

    #[test]
    fn lost_causes_are_served_best_effort() {
        let (spec, lut) = setup();
        // Task 0's deadline has already passed; the feasible task 1 with a
        // later-but-reachable deadline must run first.
        let queue = [
            mk(0, spec, &lut, 0, 1),
            mk(1, spec, &lut, 0, 10_000_000_000),
        ];
        assert_eq!(
            Planaria::new().pick_next(TaskQueue::dense(&queue), &lut, 1_000_000),
            1
        );
    }
}
