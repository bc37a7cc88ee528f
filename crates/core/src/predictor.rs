//! The sparse latency predictor (the paper's Algorithm 3 and Table 4).
//!
//! The paper profiles per-layer sparsity of BERT and GPT-2 (its Figure 9)
//! and finds the layers strongly linearly correlated, motivating a linear
//! predictor: monitor the sparsity of executed layers, form a *sparsity
//! coefficient* `γ` against the LUT averages, and scale the LUT remaining
//! latency: `Lat_sparse = α · γ · Lat_avg`. The target accelerators
//! exploit both weight and activation sparsity, so `α = 1` (the paper's
//! setting) and the predictor scales by `γ` alone.
//!
//! Because accelerator latency scales with surviving (non-zero) work, `γ`
//! is computed as a ratio of *densities*: `(1 − S_monitor)/(1 − S_avg)`.
//! A sample sparser than average yields `γ < 1` (it will finish sooner).

use crate::{ModelInfo, TaskState};

/// How the sparsity coefficient aggregates monitored layers (Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoeffStrategy {
    /// Average the density ratio over every executed dynamic layer.
    AverageAll,
    /// Average over the last three executed dynamic layers.
    LastThree,
    /// Use only the most recent dynamic layer — the paper's choice, as it
    /// matches average-all accuracy at lower hardware cost.
    LastOne,
    /// Ignore monitored sparsity entirely (`γ = 1`, pure LUT averages):
    /// the sparsity-unaware ablation.
    Disabled,
}

/// The hardware sparse latency predictor.
///
/// # Examples
///
/// ```
/// use dysta_core::{CoeffStrategy, SparseLatencyPredictor};
///
/// let p = SparseLatencyPredictor::new(CoeffStrategy::LastOne);
/// assert_eq!(p.strategy(), CoeffStrategy::LastOne);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparseLatencyPredictor {
    strategy: CoeffStrategy,
}

impl Default for SparseLatencyPredictor {
    /// The paper's configuration: the last-one strategy.
    fn default() -> Self {
        SparseLatencyPredictor::new(CoeffStrategy::LastOne)
    }
}

impl SparseLatencyPredictor {
    /// Creates a predictor.
    pub fn new(strategy: CoeffStrategy) -> Self {
        SparseLatencyPredictor { strategy }
    }

    /// The configured aggregation strategy.
    pub fn strategy(&self) -> CoeffStrategy {
        self.strategy
    }

    /// The sparsity coefficient `γ` for `task` (Algorithm 3, line 6).
    ///
    /// Only layers with a dynamic-sparsity source (non-zero LUT average
    /// sparsity) participate; before any such layer has executed, `γ = 1`
    /// (fall back to the LUT average).
    ///
    /// O(1) for every strategy: it reads the task's running
    /// [`crate::SparsitySummary`]. No allocation on any path.
    pub fn coefficient(&self, task: &TaskState, info: &ModelInfo) -> f64 {
        let ratio = match self.strategy {
            CoeffStrategy::Disabled => return 1.0,
            CoeffStrategy::LastOne => task.sparsity.last(),
            CoeffStrategy::AverageAll => task.sparsity.mean(),
            CoeffStrategy::LastThree => task.sparsity.last_three_mean(),
        };
        match ratio {
            None => 1.0,
            // The profiled hardware-effectiveness exponent maps the
            // monitored density ratio onto a latency ratio for this
            // variant.
            Some(r) => r.powf(info.gamma_exponent()),
        }
    }

    /// Predicted remaining latency of `task` in nanoseconds
    /// (`γ · Lat_avg_remaining`, Algorithm 3 line 7 with `α = 1` applied
    /// to the remaining-layer suffix).
    pub fn remaining_ns(&self, task: &TaskState, info: &ModelInfo) -> f64 {
        self.coefficient(task, info) * info.avg_remaining_ns(task.next_layer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelInfoLut;
    use dysta_models::ModelId;
    use dysta_sparsity::SparsityPattern;
    use dysta_trace::{ModelTraces, SparseModelSpec, TraceStore, VariantId};

    fn bert_setup() -> (SparseModelSpec, VariantId, ModelInfoLut, ModelTraces) {
        let spec = SparseModelSpec::new(ModelId::Bert, SparsityPattern::Dense, 0.0);
        let traces = ModelTraces::generate(&spec, 32, 11);
        let mut store = TraceStore::new();
        store.insert(traces.clone());
        let variant = store.variant_id(&spec).expect("spec profiled");
        (spec, variant, ModelInfoLut::from_store(&store), traces)
    }

    fn task_with_monitored(
        spec: SparseModelSpec,
        variant: VariantId,
        lut: &ModelInfoLut,
        trace: &dysta_trace::SampleTrace,
        upto: usize,
    ) -> TaskState {
        let mut task = TaskState {
            executed_ns: trace.layers()[..upto].iter().map(|l| l.latency_ns).sum(),
            true_remaining_ns: trace.remaining_ns(upto),
            ..TaskState::arrived(0, spec, variant, 0, u64::MAX / 2, trace.num_layers())
        };
        for l in &trace.layers()[..upto] {
            task.record_layer(l.sparsity, lut.info(variant));
        }
        task
    }

    #[test]
    fn coefficient_is_one_before_dynamic_layers() {
        let (spec, variant, lut, traces) = bert_setup();
        let t = task_with_monitored(spec, variant, &lut, traces.sample(0), 0);
        let p = SparseLatencyPredictor::default();
        assert_eq!(p.coefficient(&t, lut.info(variant)), 1.0);
    }

    #[test]
    fn denser_than_average_sample_has_gamma_above_one() {
        let (spec, variant, lut, traces) = bert_setup();
        let info = lut.info(variant);
        // Find the sample with the highest isolated latency (densest).
        let dense_idx = (0..traces.num_samples() as u64)
            .max_by_key(|&i| traces.sample(i).isolated_latency_ns())
            .unwrap();
        let trace = traces.sample(dense_idx);
        let t = task_with_monitored(spec, variant, &lut, trace, trace.num_layers() / 2);
        let p = SparseLatencyPredictor::default();
        assert!(p.coefficient(&t, info) > 1.0);
    }

    #[test]
    fn prediction_tracks_true_remaining_better_than_lut() {
        let (spec, variant, lut, traces) = bert_setup();
        let info = lut.info(variant);
        let p = SparseLatencyPredictor::default();
        let mut pred_err = 0.0;
        let mut lut_err = 0.0;
        for i in 0..traces.num_samples() as u64 {
            let trace = traces.sample(i);
            let mid = trace.num_layers() / 2;
            let t = task_with_monitored(spec, variant, &lut, trace, mid);
            let truth = trace.remaining_ns(mid) as f64;
            pred_err += (p.remaining_ns(&t, info) - truth).powi(2);
            lut_err += (info.avg_remaining_ns(mid) - truth).powi(2);
        }
        assert!(
            pred_err < lut_err,
            "sparsity-aware prediction must beat the static LUT: {pred_err} vs {lut_err}"
        );
    }

    #[test]
    fn strategies_agree_on_single_observation() {
        let (spec, variant, lut, traces) = bert_setup();
        let info = lut.info(variant);
        let trace = traces.sample(1);
        // Execute exactly up to (and including) the first dynamic layer.
        let first_dyn = trace
            .layers()
            .iter()
            .position(|l| l.sparsity > 0.0)
            .unwrap();
        let t = task_with_monitored(spec, variant, &lut, trace, first_dyn + 1);
        let g_all = SparseLatencyPredictor::new(CoeffStrategy::AverageAll).coefficient(&t, info);
        let g_n = SparseLatencyPredictor::new(CoeffStrategy::LastThree).coefficient(&t, info);
        let g_one = SparseLatencyPredictor::new(CoeffStrategy::LastOne).coefficient(&t, info);
        assert!((g_all - g_one).abs() < 1e-12);
        assert!((g_n - g_one).abs() < 1e-12);
    }

    #[test]
    fn disabled_strategy_is_always_one() {
        let (spec, variant, lut, traces) = bert_setup();
        let info = lut.info(variant);
        let trace = traces.sample(3);
        let t = task_with_monitored(spec, variant, &lut, trace, trace.num_layers() / 2);
        let p = SparseLatencyPredictor::new(CoeffStrategy::Disabled);
        assert_eq!(p.coefficient(&t, info), 1.0);
        assert!((p.remaining_ns(&t, info) - info.avg_remaining_ns(t.next_layer)).abs() < 1e-9);
    }
}
