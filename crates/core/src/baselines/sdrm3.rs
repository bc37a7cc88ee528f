//! SDRM3's MapScore scheduler (Kim et al., ASPLOS 2024).

use crate::scheduler::{lut_isolated_ns, lut_remaining_ns, pick_max_score, Scheduler, TaskQueue};
use crate::{ModelInfoLut, TaskState};

/// SDRM3 scores every (task, accelerator) mapping and dispatches the
/// highest score. Following the paper's setup: `Pref = 1` (single
/// accelerator), so `MapScore = α·Urgency + (1−α)·Fairness` with `α`
/// tuned per SDRM3's own methodology to `α = 0.5`.
///
/// * **Urgency** — how close the task is to missing its deadline:
///   `est_remaining / max(slack, ε)`, saturating once slack is exhausted.
/// * **Fairness** — the task's projected slowdown
///   `(wait + executed + est_remaining) / T_isol`, so chronically
///   under-served requests rise.
///
/// Both terms favour long-waiting tasks over short fresh ones, which is
/// why SDRM3 lands on the poor-ANTT side of the paper's Table 5 in a
/// purely time-shared setting.
///
/// # Examples
///
/// ```
/// use dysta_core::{Scheduler, Sdrm3};
/// assert_eq!(Sdrm3::new().name(), "sdrm3");
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Sdrm3;

/// Urgency weight `α` of the MapScore; fairness gets `1 − α`.
const ALPHA: f64 = 0.5;

impl Sdrm3 {
    /// Creates an SDRM3 scheduler.
    pub fn new() -> Self {
        Sdrm3
    }

    fn map_score(&self, task: &TaskState, lut: &ModelInfoLut, now_ns: u64) -> f64 {
        let remaining = lut_remaining_ns(task, lut);
        let isolated = lut_isolated_ns(task, lut).max(1.0);
        let slack = task.deadline_ns() as f64 - now_ns as f64 - remaining;
        // Saturate urgency when the deadline is unreachable (cap keeps the
        // fairness term relevant, per SDRM3's bounded-score design).
        let urgency = if slack <= 0.0 {
            10.0
        } else {
            (remaining / slack).min(10.0)
        };
        let turnaround = (now_ns.saturating_sub(task.arrival_ns)) as f64 + remaining;
        let fairness = turnaround / isolated;
        ALPHA * urgency + (1.0 - ALPHA) * fairness
    }
}

impl Scheduler for Sdrm3 {
    fn name(&self) -> &str {
        "sdrm3"
    }

    fn pick_next(&mut self, queue: TaskQueue<'_>, lut: &ModelInfoLut, now_ns: u64) -> usize {
        pick_max_score(queue, |t| self.map_score(t, lut, now_ns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dysta_models::ModelId;
    use dysta_sparsity::SparsityPattern;
    use dysta_trace::{ModelTraces, SparseModelSpec, TraceStore};

    fn lut() -> (SparseModelSpec, ModelInfoLut) {
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
    fn urgent_task_wins() {
        let (spec, lut) = lut();
        let queue = [
            mk(0, spec, &lut, 0, 1_000_000_000),
            mk(1, spec, &lut, 0, 1_000),
        ];
        assert_eq!(
            Sdrm3::new().pick_next(TaskQueue::dense(&queue), &lut, 500),
            1
        );
    }

    #[test]
    fn long_waiting_task_wins_on_fairness() {
        let (spec, lut) = lut();
        let queue = [
            mk(0, spec, &lut, 0, u64::MAX / 2),
            mk(1, spec, &lut, 900_000_000, u64::MAX / 2),
        ];
        // Urgency is ~0 against these far-off deadlines, so fairness
        // decides.
        assert_eq!(
            Sdrm3::new().pick_next(TaskQueue::dense(&queue), &lut, 1_000_000_000),
            0,
            "fairness favours the older task"
        );
    }
}
