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

    fn pick_next(&mut self, queue: TaskQueue<'_>, _lut: &ModelInfoLut, _now_ns: u64) -> usize {
        // A plain loop, like `pick_min_score`, is inlined whatever
        // codegen unit it lands in. A `min_by_key` chain's fold can be
        // left out of line, which doubles the pick's cost.
        let mut best: Option<((u64, u64), usize)> = None;
        for (pos, t) in queue.iter().enumerate() {
            let key = (t.arrival_ns, t.id);
            if best.is_none_or(|(best_key, _)| key < best_key) {
                best = Some((key, pos));
            }
        }
        best.expect("engine never passes an empty queue").1
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
        assert_eq!(s.pick_next(&queue, &ModelInfoLut::default(), 100), 1);
    }

    #[test]
    fn ties_break_by_id() {
        let queue = [task(7, 10), task(3, 10)];
        let mut s = Fcfs::new();
        assert_eq!(s.pick_next(&queue, &ModelInfoLut::default(), 100), 1);
    }
}
