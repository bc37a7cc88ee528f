//! Scheduler-visible task state.

use dysta_trace::{SparseModelSpec, VariantId};

use crate::ModelInfo;

/// What the hardware monitor reports for one executed layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitoredLayer {
    /// Monitored layer sparsity (zero-counting circuit output).
    pub sparsity: f64,
    /// Observed layer latency in nanoseconds.
    pub latency_ns: u64,
}

/// Running aggregates over the monitored *dynamic* layers of one task:
/// the density ratios (monitored vs LUT-average density) the sparse
/// latency predictor folds into its coefficient.
///
/// Maintained incrementally by [`TaskState::record_layer`] so the
/// predictor's `LastOne` / `AverageAll` strategies read O(1) state
/// instead of re-scanning the whole monitored stream per decision.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SparsitySummary {
    /// Number of dynamic layers observed so far.
    pub ratio_count: u32,
    /// Sum of their density ratios, in execution order.
    pub ratio_sum: f64,
    /// The most recent density ratio.
    pub last_ratio: f64,
}

impl SparsitySummary {
    /// Folds one observed dynamic-layer density ratio in.
    pub fn observe(&mut self, ratio: f64) {
        self.ratio_count += 1;
        self.ratio_sum += ratio;
        self.last_ratio = ratio;
    }

    /// The most recent ratio, if any dynamic layer has executed.
    pub fn last(&self) -> Option<f64> {
        (self.ratio_count > 0).then_some(self.last_ratio)
    }

    /// Mean ratio over every observed dynamic layer, if any.
    pub fn mean(&self) -> Option<f64> {
        (self.ratio_count > 0).then(|| self.ratio_sum / f64::from(self.ratio_count))
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
/// * `monitored` / `sparsity` — the runtime sparsity/latency stream and
///   its running aggregates, which only sparsity-aware schedulers
///   exploit;
/// * `true_remaining_ns` — ground truth reserved for the Oracle, its
///   only scheduler reader. Fair schedulers must not read it.
#[derive(Debug, Clone, PartialEq)]
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
    /// Monitored records of executed layers, in execution order.
    pub monitored: Vec<MonitoredLayer>,
    /// Running density-ratio aggregates over the dynamic layers of
    /// `monitored` (kept in lockstep by [`TaskState::record_layer`]).
    pub sparsity: SparsitySummary,
    /// Ground-truth remaining execution time (ns), scaled to the node
    /// serving the task. The Oracle is its only scheduler reader. The
    /// engine sets it when a node admits the task and keeps it current
    /// in O(1) per quantum from a running remainder of the task's
    /// trace.
    pub true_remaining_ns: u64,
}

impl TaskState {
    /// Fresh, unstarted state for a request entering the system. The
    /// monitored stream starts empty and unallocated: a queued request
    /// holds no buffer until a node admits it and sizes the stream to
    /// `num_layers`.
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
            monitored: Vec::new(),
            sparsity: SparsitySummary::default(),
            true_remaining_ns: 0,
        }
    }

    /// Appends one executed-layer record and folds its density ratio into
    /// the running [`SparsitySummary`] when the layer has a
    /// dynamic-sparsity source in `info` (the task's own LUT entry).
    pub fn record_layer(&mut self, record: MonitoredLayer, info: &ModelInfo) {
        let layer = self.monitored.len();
        self.monitored.push(record);
        if let Some(ratio) = info.density_ratio(layer, record.sparsity) {
            self.sparsity.observe(ratio);
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
        s.observe(0.5);
        s.observe(1.5);
        assert_eq!(s.last(), Some(1.5));
        assert_eq!(s.mean(), Some(1.0));
    }
}
