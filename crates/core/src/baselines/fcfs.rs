//! First-Come First-Served.

use crate::scheduler::{Scheduler, TaskQueue};
use crate::ModelInfoLut;

/// Non-preemptive-in-spirit FCFS: always runs the earliest-arrived active
/// request to completion (a later arrival never overtakes, because the
/// earliest arrival stays the minimum until it finishes).
///
/// # Examples
///
/// ```
/// use dysta_core::{Fcfs, Scheduler};
/// assert_eq!(Fcfs::new().name(), "fcfs");
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fcfs;

impl Fcfs {
    /// Creates an FCFS scheduler.
    pub fn new() -> Self {
        Fcfs
    }
}

impl Scheduler for Fcfs {
    fn name(&self) -> &str {
        "fcfs"
    }

    fn pick_is_pure(&self) -> bool {
        true
    }

    fn pick_next(&mut self, queue: TaskQueue<'_>, _lut: &ModelInfoLut, _now_ns: u64) -> usize {
        queue
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| (t.arrival_ns, t.id))
            .map(|(i, _)| i)
            .expect("engine never passes an empty queue")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModelInfoLut, TaskState};
    use dysta_models::ModelId;
    use dysta_sparsity::SparsityPattern;
    use dysta_trace::{SparseModelSpec, VariantId};

    fn task(id: u64, arrival: u64) -> TaskState {
        let spec = SparseModelSpec::new(ModelId::MobileNet, SparsityPattern::Dense, 0.0);
        TaskState {
            true_remaining_ns: 100,
            ..TaskState::arrived(id, spec, VariantId::default(), arrival, 1_000_000, 3)
        }
    }

    #[test]
    fn picks_earliest_arrival() {
        let queue = [task(0, 30), task(1, 10), task(2, 20)];
        let mut s = Fcfs::new();
        assert_eq!(
            s.pick_next(TaskQueue::dense(&queue), &ModelInfoLut::default(), 100),
            1
        );
    }

    #[test]
    fn ties_break_by_id() {
        let queue = [task(7, 10), task(3, 10)];
        let mut s = Fcfs::new();
        assert_eq!(
            s.pick_next(TaskQueue::dense(&queue), &ModelInfoLut::default(), 100),
            1
        );
    }
}
