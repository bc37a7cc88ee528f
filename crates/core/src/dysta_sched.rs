//! The Dysta bi-level scheduler (Algorithms 1 and 2) plus its ablation
//! and the Oracle reference.

use crate::scheduler::{lut_isolated_ns, pick_min_score, Scheduler, TaskQueue};
use crate::{ModelInfoLut, SparseLatencyPredictor};

/// Hyperparameters of the Dysta scoring functions.
///
/// * `beta` weights slack against estimated latency in the static score
///   (Algorithm 1, line 7): larger `beta` biases towards SLO compliance,
///   smaller towards ANTT.
/// * `eta` weights `(T_slack + T_penalty)` against remaining time in the
///   dynamic score (Algorithm 2, line 11) — the tunable ANTT/violation
///   trade-off knob.
///
/// Scores are computed in milliseconds, the unit the FP16 hardware
/// scheduler operates in; the paper's dimensionless waiting-time penalty
/// `(T_wait/T_isol)/|Q|` is multiplied through by `T_isol` so every term
/// shares units (equivalently, `T_wait/|Q|`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DystaConfig {
    /// Static-score slack weight `β`.
    pub beta: f64,
    /// Dynamic-score slack/penalty weight `η`.
    pub eta: f64,
}

impl Default for DystaConfig {
    fn default() -> Self {
        DystaConfig {
            beta: 0.5,
            eta: 0.03,
        }
    }
}

impl DystaConfig {
    /// The Algorithm 1 static score, in milliseconds.
    pub fn static_score_ms(&self, predicted_latency_ns: f64, slo_ns: u64) -> f64 {
        let lat_ms = predicted_latency_ns / 1e6;
        let slack_ms = slo_ns as f64 / 1e6 - lat_ms;
        lat_ms + self.beta * slack_ms
    }

    /// The Algorithm 2 dynamic score, in milliseconds.
    ///
    /// Requests whose predicted slack is already negative cannot meet
    /// their SLO under any schedule; they are demoted to best-effort
    /// (a large score offset) so the slack term cannot starve feasible
    /// requests chasing a lost cause. This matches the admission
    /// behaviour of deadline-aware accelerator schedulers (Planaria drops
    /// or demotes infeasible tasks) and only engages under overload.
    pub fn dynamic_score_ms(
        &self,
        remain_ns: f64,
        deadline_ns: u64,
        wait_ns: u64,
        queue_len: usize,
        now_ns: u64,
    ) -> f64 {
        /// Score offset pushing deadline-infeasible requests behind every
        /// feasible one while preserving their relative order.
        const BEST_EFFORT_OFFSET_MS: f64 = 1.0e7;
        let remain_ms = remain_ns / 1e6;
        let slack_ms = (deadline_ns as f64 - now_ns as f64) / 1e6 - remain_ms;
        let penalty_ms = wait_ns as f64 / 1e6 / queue_len.max(1) as f64;
        if slack_ms < 0.0 {
            BEST_EFFORT_OFFSET_MS + remain_ms + self.eta * penalty_ms
        } else {
            remain_ms + self.eta * (slack_ms + penalty_ms)
        }
    }
}

/// The full Dysta scheduler: the dynamic level (Algorithm 2) with the
/// sparse latency predictor.
///
/// In the paper, Algorithm 1's static score orders the software queue
/// that feeds a bounded hardware FIFO. Here every queued task is visible
/// to the dynamic level (FIFO depth is modelled by
/// `dysta_hw::HardwareDystaScheduler`), so a static order would decide
/// nothing and none is kept.
///
/// # Examples
///
/// ```
/// use dysta_core::{DystaScheduler, Scheduler};
/// assert_eq!(DystaScheduler::default().name(), "dysta");
/// ```
#[derive(Debug, Clone, Default)]
pub struct DystaScheduler {
    config: DystaConfig,
    predictor: SparseLatencyPredictor,
}

impl DystaScheduler {
    /// Creates the scheduler with explicit hyperparameters and predictor.
    pub fn new(config: DystaConfig, predictor: SparseLatencyPredictor) -> Self {
        DystaScheduler { config, predictor }
    }

    /// The active configuration.
    pub fn config(&self) -> &DystaConfig {
        &self.config
    }
}

impl Scheduler for DystaScheduler {
    fn name(&self) -> &str {
        "dysta"
    }

    fn pick_next(&mut self, queue: TaskQueue<'_>, lut: &ModelInfoLut, now_ns: u64) -> usize {
        // Algorithm 2 lines 7-13: refresh every score with the sparse
        // latency predictor — once per task — and dispatch the minimum.
        let queue_len = queue.len();
        pick_min_score(queue, |t| {
            let info = lut.info(t.variant);
            let remain = self.predictor.remaining_ns(t, info);
            self.config.dynamic_score_ms(
                remain,
                t.deadline_ns(),
                t.waiting_ns(now_ns),
                queue_len,
                now_ns,
            )
        })
    }
}

/// `Dysta-w/o-sparse`: the paper's ablation (its Figure 13) with the
/// dynamic hardware level and sparsity awareness disabled — tasks run in
/// the order of their frozen static scores.
#[derive(Debug, Clone, Default)]
pub struct DystaStaticScheduler {
    config: DystaConfig,
}

impl DystaStaticScheduler {
    /// Creates the ablated scheduler.
    pub fn new(config: DystaConfig) -> Self {
        DystaStaticScheduler { config }
    }
}

impl Scheduler for DystaStaticScheduler {
    fn name(&self) -> &str {
        "dysta-static"
    }

    fn pick_next(&mut self, queue: TaskQueue<'_>, lut: &ModelInfoLut, _now_ns: u64) -> usize {
        // Algorithm 1: the LUT's average latency and the SLO, both fixed
        // at arrival, so the score needs no per-task state.
        pick_min_score(queue, |t| {
            self.config
                .static_score_ms(lut_isolated_ns(t, lut), t.slo_ns)
        })
    }
}

/// The Oracle reference scheduler: Dysta's dynamic scoring with *perfect*
/// remaining-time knowledge (reads the trace ground truth instead of the
/// predictor). Upper-bounds what any latency predictor can achieve.
#[derive(Debug, Clone, Default)]
pub struct OracleScheduler {
    config: DystaConfig,
}

impl OracleScheduler {
    /// Creates the oracle with the same scoring hyperparameters as Dysta.
    pub fn new(config: DystaConfig) -> Self {
        OracleScheduler { config }
    }
}

impl Scheduler for OracleScheduler {
    fn name(&self) -> &str {
        "oracle"
    }

    fn pick_next(&mut self, queue: TaskQueue<'_>, _lut: &ModelInfoLut, now_ns: u64) -> usize {
        let queue_len = queue.len();
        pick_min_score(queue, |t| {
            self.config.dynamic_score_ms(
                t.true_remaining_ns as f64,
                t.deadline_ns(),
                t.waiting_ns(now_ns),
                queue_len,
                now_ns,
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TaskState;
    use dysta_models::ModelId;
    use dysta_sparsity::SparsityPattern;
    use dysta_trace::{ModelTraces, SparseModelSpec, TraceStore, VariantId};

    fn setup() -> (SparseModelSpec, VariantId, ModelInfoLut) {
        let spec = SparseModelSpec::new(ModelId::Bert, SparsityPattern::Dense, 0.0);
        let mut store = TraceStore::new();
        store.insert(ModelTraces::generate(&spec, 16, 21));
        let variant = store.variant_id(&spec).expect("spec profiled");
        (spec, variant, ModelInfoLut::from_store(&store))
    }

    fn mk(id: u64, spec: SparseModelSpec, variant: VariantId, arrival: u64, slo: u64) -> TaskState {
        TaskState {
            true_remaining_ns: 30_000_000,
            ..TaskState::arrived(id, spec, variant, arrival, slo, 109)
        }
    }

    #[test]
    fn static_score_balances_latency_and_slack() {
        let cfg = DystaConfig {
            beta: 0.5,
            eta: 0.4,
        };
        // lat 10ms, slo 100ms -> slack 90ms -> score 10 + 45 = 55.
        let s = cfg.static_score_ms(10e6, 100_000_000);
        assert!((s - 55.0).abs() < 1e-9);
    }

    #[test]
    fn beta_zero_reduces_static_score_to_latency() {
        let cfg = DystaConfig {
            beta: 0.0,
            eta: 0.4,
        };
        assert!((cfg.static_score_ms(10e6, 100_000_000) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn dynamic_score_prefers_tight_slack() {
        let cfg = DystaConfig::default();
        let tight = cfg.dynamic_score_ms(10e6, 20_000_000, 0, 2, 0);
        let loose = cfg.dynamic_score_ms(10e6, 500_000_000, 0, 2, 0);
        assert!(tight < loose);
    }

    #[test]
    fn sparsity_info_changes_dispatch() {
        // Two identical-looking tasks; one monitored to be much denser
        // than average. Dysta should prefer the sparser (shorter) one.
        let (spec, variant, lut) = setup();
        let info = lut.info(variant);
        let dyn_layer = info
            .avg_layer_sparsity()
            .iter()
            .position(|&s| s > 0.1)
            .unwrap();
        let avg_s = info.avg_layer_sparsity()[dyn_layer];

        // Layers before `dyn_layer` report zero sparsity; `dyn_layer`
        // reports `last`.
        let monitored = |id, last: f64| {
            let mut task = mk(id, spec, variant, 0, u64::MAX / 4);
            for layer in 0..=dyn_layer {
                let sparsity = if layer == dyn_layer { last } else { 0.0 };
                task.record_layer(sparsity, info);
            }
            task
        };
        let dense_task = monitored(0, (avg_s - 0.15).max(0.0)); // denser than average
        let sparse_task = monitored(1, (avg_s + 0.15).min(0.99));

        let queue = [dense_task, sparse_task];
        let mut sched = DystaScheduler::default();
        assert_eq!(sched.pick_next(&queue, &lut, 0), 1);
    }

    #[test]
    fn oracle_uses_ground_truth() {
        let (spec, variant, lut) = setup();
        let mut short = mk(0, spec, variant, 0, u64::MAX / 4);
        short.true_remaining_ns = 1_000_000;
        let mut long = mk(1, spec, variant, 0, u64::MAX / 4);
        long.true_remaining_ns = 50_000_000;
        let queue = [long, short];
        let mut oracle = OracleScheduler::default();
        assert_eq!(oracle.pick_next(&queue, &lut, 0), 1);
    }

    #[test]
    fn static_ablation_freezes_order() {
        let (spec, variant, lut) = setup();
        let mut sched = DystaStaticScheduler::default();
        let a = mk(0, spec, variant, 0, 200_000_000);
        let b = mk(1, spec, variant, 0, 800_000_000);
        let queue = [a, b];
        // Tighter SLO -> smaller slack -> smaller static score -> first.
        assert_eq!(sched.pick_next(&queue, &lut, 0), 0);
    }
}
