//! Scheduler-visible task state.

use dysta_trace::{SparseModelSpec, VariantId};

use crate::ModelInfo;

/// The constant-size running state of one task's hardware monitor:
/// what the sparse latency predictor and the FP16 coefficient read of
/// the layers executed so far.
///
/// Maintained incrementally by [`TaskState::record_layer`], so every
/// [`crate::CoeffStrategy`] reads O(1) state instead of re-scanning the
/// task's executed layers per decision.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SparsitySummary {
    /// Number of dynamic layers observed so far.
    pub ratio_count: u32,
    /// Sum of their density ratios, in execution order.
    pub ratio_sum: f64,
    /// The latest three density ratios: ratio `k` (counting from 0)
    /// sits in slot `k % 3`.
    recent: [f64; 3],
    /// Index and raw monitored sparsity of the most recent dynamic
    /// layer.
    last_dynamic: Option<(u32, f64)>,
}

impl SparsitySummary {
    /// Folds one observed dynamic-layer density ratio in.
    pub fn observe(&mut self, ratio: f64) {
        self.recent[(self.ratio_count % 3) as usize] = ratio;
        self.ratio_count += 1;
        self.ratio_sum += ratio;
    }

    /// Index and raw monitored sparsity of the most recent dynamic
    /// layer, if any has executed.
    pub fn last_dynamic(&self) -> Option<(usize, f64)> {
        self.last_dynamic
            .map(|(layer, sparsity)| (layer as usize, sparsity))
    }

    /// The most recent ratio, if any dynamic layer has executed.
    pub fn last(&self) -> Option<f64> {
        let newest = self.ratio_count.checked_sub(1)?;
        Some(self.recent[(newest % 3) as usize])
    }

    /// Mean ratio over every observed dynamic layer, if any.
    pub fn mean(&self) -> Option<f64> {
        (self.ratio_count > 0).then(|| self.ratio_sum / f64::from(self.ratio_count))
    }

    /// Mean ratio over the last (up to) three observed dynamic layers,
    /// if any, summed oldest first.
    pub fn last_three_mean(&self) -> Option<f64> {
        let n = self.ratio_count.min(3);
        if n == 0 {
            return None;
        }
        let sum: f64 = (self.ratio_count - n..self.ratio_count)
            .map(|k| self.recent[(k % 3) as usize])
            .sum();
        Some(sum / f64::from(n))
    }
}

/// The state of one in-flight request as seen at a scheduling point.
///
/// The discrete-event engine owns these and exposes them to schedulers.
/// Fields are grouped by information source:
///
/// * request metadata (`id`, `spec`, `variant`, `arrival_ns`, `slo_ns`)
///   — known to every scheduler; `variant` is the request's interned
///   LUT handle, resolved once at enqueue time;
/// * progress (`next_layer`, `num_layers`, `executed_ns`) — known to every
///   scheduler (layer boundaries are architecturally visible);
/// * `sparsity` — the running state of the runtime sparsity monitor,
///   which only sparsity-aware schedulers exploit;
/// * `true_remaining_ns` — ground truth reserved for the Oracle, its
///   only scheduler reader. Fair schedulers must not read it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskState {
    /// Request id.
    pub id: u64,
    /// Sparse-model variant of the request.
    pub spec: SparseModelSpec,
    /// Interned LUT handle of `spec` (dense index into the engine's
    /// `ModelInfoLut`), resolved once when the request enters the system.
    pub variant: VariantId,
    /// Arrival time (ns since workload start).
    pub arrival_ns: u64,
    /// Relative latency SLO (ns).
    pub slo_ns: u64,
    /// Index of the next layer to execute (0 = not started).
    pub next_layer: usize,
    /// Total layer count of the model.
    pub num_layers: usize,
    /// Accumulated service time (ns).
    pub executed_ns: u64,
    /// Running monitor state over the executed layers (kept current by
    /// [`TaskState::record_layer`]).
    pub sparsity: SparsitySummary,
    /// Ground-truth remaining execution time (ns), scaled to the node
    /// serving the task. The Oracle is its only scheduler reader. The
    /// engine sets it when a node admits the task and keeps it current
    /// in O(1) per quantum from a running remainder of the task's
    /// trace.
    pub true_remaining_ns: u64,
}

impl TaskState {
    /// Fresh, unstarted state for a request entering the system, with
    /// an empty monitor.
    pub fn arrived(
        id: u64,
        spec: SparseModelSpec,
        variant: VariantId,
        arrival_ns: u64,
        slo_ns: u64,
        num_layers: usize,
    ) -> Self {
        TaskState {
            id,
            spec,
            variant,
            arrival_ns,
            slo_ns,
            next_layer: 0,
            num_layers,
            executed_ns: 0,
            sparsity: SparsitySummary::default(),
            true_remaining_ns: 0,
        }
    }

    /// Completes layer `next_layer` and advances it, folding the
    /// layer's monitored `sparsity` into the running
    /// [`SparsitySummary`]: its density ratio and raw sparsity count
    /// when the layer has a dynamic-sparsity source in `info` (the
    /// task's own LUT entry).
    pub fn record_layer(&mut self, sparsity: f64, info: &ModelInfo) {
        let layer = self.next_layer;
        self.next_layer += 1;
        if let Some(ratio) = info.density_ratio(layer, sparsity) {
            self.sparsity.observe(ratio);
            self.sparsity.last_dynamic = Some((layer as u32, sparsity));
        }
    }

    /// Absolute deadline (arrival + SLO).
    pub fn deadline_ns(&self) -> u64 {
        self.arrival_ns.saturating_add(self.slo_ns)
    }

    /// Time spent waiting (neither arriving nor being served) up to `now`.
    pub fn waiting_ns(&self, now_ns: u64) -> u64 {
        now_ns
            .saturating_sub(self.arrival_ns)
            .saturating_sub(self.executed_ns)
    }

    /// True once at least one layer has executed.
    pub fn started(&self) -> bool {
        self.next_layer > 0
    }

    /// True once every layer has executed.
    pub fn finished(&self) -> bool {
        self.next_layer >= self.num_layers
    }
}

#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;
    use dysta_models::ModelId;
    use dysta_sparsity::SparsityPattern;

    /// A queue of unstarted tasks whose ids run *opposite* to their
    /// positions, so position/id mix-ups show up in tie-break tests.
    pub(crate) fn dense_queue_tasks(n: usize) -> Vec<TaskState> {
        let spec = SparseModelSpec::new(ModelId::MobileNet, SparsityPattern::Dense, 0.0);
        (0..n)
            .map(|pos| {
                TaskState::arrived(
                    (n - 1 - pos) as u64,
                    spec,
                    VariantId::default(),
                    0,
                    1_000_000,
                    4,
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dysta_models::ModelId;
    use dysta_sparsity::SparsityPattern;

    pub(crate) fn dummy_task(id: u64) -> TaskState {
        let spec = SparseModelSpec::new(ModelId::MobileNet, SparsityPattern::Dense, 0.0);
        TaskState {
            true_remaining_ns: 5_000,
            ..TaskState::arrived(id, spec, VariantId::default(), 1_000, 10_000, 4)
        }
    }

    #[test]
    fn deadline_and_waiting() {
        let mut t = dummy_task(0);
        assert_eq!(t.deadline_ns(), 11_000);
        assert_eq!(t.waiting_ns(3_000), 2_000);
        t.executed_ns = 1_500;
        assert_eq!(t.waiting_ns(3_000), 500);
        // Waiting never goes negative.
        assert_eq!(t.waiting_ns(0), 0);
    }

    #[test]
    fn lifecycle_flags() {
        let mut t = dummy_task(0);
        assert!(!t.started() && !t.finished());
        t.next_layer = 2;
        assert!(t.started() && !t.finished());
        t.next_layer = 4;
        assert!(t.finished());
    }

    #[test]
    fn summary_tracks_mean_and_last() {
        let mut s = SparsitySummary::default();
        assert_eq!(s.last(), None);
        assert_eq!(s.mean(), None);
        assert_eq!(s.last_three_mean(), None);
        s.observe(0.5);
        s.observe(1.5);
        assert_eq!(s.last(), Some(1.5));
        assert_eq!(s.mean(), Some(1.0));
        assert_eq!(s.last_three_mean(), Some(1.0));
        // The ring keeps only the latest three, wrapping in place.
        s.observe(2.5);
        s.observe(3.5);
        assert_eq!(s.last(), Some(3.5));
        assert_eq!(s.mean(), Some(2.0));
        assert_eq!(s.last_three_mean(), Some(2.5));
    }
}
