//! Shortest-Job First (shortest-remaining-time variant).

use crate::scheduler::{lut_remaining_ns, pick_min_score, Scheduler, TaskQueue};
use crate::ModelInfoLut;

/// Preemptive shortest-job-first using the *sparsity-unaware* LUT
/// estimate of remaining time — the paper's traditional heuristic
/// baseline (its Figure 5 shows exactly this scheduler making a wrong
/// preemption call for lack of sparsity information).
///
/// # Examples
///
/// ```
/// use dysta_core::{Scheduler, Sjf};
/// assert_eq!(Sjf::new().name(), "sjf");
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sjf;

impl Sjf {
    /// Creates an SJF scheduler.
    pub fn new() -> Self {
        Sjf
    }
}

impl Scheduler for Sjf {
    fn name(&self) -> &str {
        "sjf"
    }

    fn pick_next(&mut self, queue: TaskQueue<'_>, lut: &ModelInfoLut, _now_ns: u64) -> usize {
        pick_min_score(queue, |t| lut_remaining_ns(t, lut))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TaskState;
    use dysta_models::ModelId;
    use dysta_sparsity::SparsityPattern;
    use dysta_trace::{ModelTraces, SparseModelSpec, TraceStore};

    #[test]
    fn prefers_shorter_model() {
        let small = SparseModelSpec::new(ModelId::MobileNet, SparsityPattern::Dense, 0.0);
        let big = SparseModelSpec::new(ModelId::Vgg16, SparsityPattern::Dense, 0.0);
        let mut store = TraceStore::new();
        store.insert(ModelTraces::generate(&small, 2, 0));
        store.insert(ModelTraces::generate(&big, 2, 0));
        let lut = ModelInfoLut::from_store(&store);

        let mk = |id, spec: SparseModelSpec, layers| {
            let variant = store.variant_id(&spec).expect("spec profiled");
            TaskState::arrived(id, spec, variant, 0, u64::MAX / 2, layers)
        };
        let queue = [mk(0, big, 21), mk(1, small, 29)];
        assert_eq!(Sjf::new().pick_next(&queue, &lut, 0), 1);
    }
}
