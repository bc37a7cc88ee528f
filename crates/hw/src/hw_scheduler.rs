//! The hardware Dysta scheduler: Algorithm 2 executed through the FP16
//! datapath, behind a FIFO modelled by its depth.

use dysta_core::{DystaConfig, ModelInfo, ModelInfoLut, Scheduler, TaskQueue, TaskState};

use crate::compute_unit::{coefficient, score};
use crate::F16;

/// Fixed-point resolution of the zero-counting monitor interface: the
/// monitored sparsity is reported as a zero count out of this many
/// elements (the real circuit counts zeros over the layer's true shape;
/// the reciprocal-multiply normalisation makes the two equivalent up to
/// FP16 resolution).
const MONITOR_SHAPE: u64 = 1024;

/// Slack values are clamped to this many milliseconds before FP16
/// conversion so very loose deadlines saturate instead of overflowing to
/// infinity (FP16 tops out at 65504).
const SLACK_CLAMP_MS: f64 = 60_000.0;

/// A [`Scheduler`] implementation that computes every Dysta dynamic score
/// in half precision through the compute unit's FP16 dataflows, with
/// request capacity bounded by the tag/score FIFO depth.
///
/// When more requests are outstanding than the FIFO depth, only the
/// `depth` earliest-arrived requests are visible to the hardware (the
/// host holds the overflow), matching the back-pressure behaviour of the
/// RTL design.
///
/// Used to verify the paper's claim that the `Opt_FP16` design point
/// preserves scheduling quality: on the benchmark workloads its decisions
/// track the f64 software scheduler's.
///
/// # Examples
///
/// ```
/// use dysta_core::Scheduler;
/// use dysta_hw::HardwareDystaScheduler;
///
/// let hw = HardwareDystaScheduler::new(Default::default(), 64);
/// assert_eq!(hw.name(), "dysta-hw-fp16");
/// ```
#[derive(Debug, Clone)]
pub struct HardwareDystaScheduler {
    config: DystaConfig,
    fifo_depth: usize,
    /// Reusable buffer for the FIFO-visible queue positions, so
    /// steady-state picks don't allocate.
    visible: Vec<usize>,
}

impl HardwareDystaScheduler {
    /// Creates the hardware scheduler with the given scoring
    /// hyperparameters and FIFO depth.
    ///
    /// # Panics
    ///
    /// Panics if `fifo_depth` is zero.
    pub fn new(config: DystaConfig, fifo_depth: usize) -> Self {
        assert!(fifo_depth > 0, "FIFO depth must be positive");
        HardwareDystaScheduler {
            config,
            fifo_depth,
            visible: Vec::new(),
        }
    }

    /// The FIFO depth.
    pub fn fifo_depth(&self) -> usize {
        self.fifo_depth
    }
}

/// The FP16 sparsity coefficient of a task (last-one strategy through
/// the coefficient dataflow): `1` until the monitor has seen a dynamic
/// layer, then the coefficient of the most recent one.
fn gamma(task: &TaskState, lut: &ModelInfoLut) -> F16 {
    let info = lut.info(task.variant);
    task.sparsity
        .last_dynamic()
        .map_or(F16::ONE, |(layer, sparsity)| {
            layer_gamma(layer, sparsity, info)
        })
}

/// The FP16 coefficient of one monitored dynamic layer: its zero count
/// through the coefficient dataflow, raised to the variant's exponent.
fn layer_gamma(layer: usize, sparsity: f64, info: &ModelInfo) -> F16 {
    // `dynamic_layer_avg_density` owns the epsilon/floor shared with
    // the software predictor.
    let Some(avg_density) = info.dynamic_layer_avg_density(layer) else {
        return F16::ONE;
    };
    let num_zeros = (sparsity.clamp(0.0, 1.0) * MONITOR_SHAPE as f64).round() as u64;
    let ratio = coefficient(num_zeros, MONITOR_SHAPE, F16::from_f64(1.0 / avg_density));
    // The per-variant hardware-effectiveness exponent is applied
    // through a small ratio->gamma lookup table in the RTL design;
    // modelled here as an FP16-quantised pow.
    F16::from_f64(ratio.to_f64().max(1e-3).powf(info.gamma_exponent()))
}

impl Scheduler for HardwareDystaScheduler {
    fn name(&self) -> &str {
        "dysta-hw-fp16"
    }

    fn pick_next(&mut self, queue: TaskQueue<'_>, lut: &ModelInfoLut, now_ns: u64) -> usize {
        // Hardware visibility: the `fifo_depth` earliest arrivals, staged
        // in a reusable buffer (capacity stabilises after warm-up).
        self.visible.clear();
        self.visible.extend(0..queue.len());
        if queue.len() > self.fifo_depth {
            self.visible
                .sort_by_key(|&i| (queue[i].arrival_ns, queue[i].id));
            self.visible.truncate(self.fifo_depth);
        }

        let eta = F16::from_f64(self.config.eta);
        let inv_queue = F16::from_f64(1.0 / self.visible.len() as f64);
        // Selection key: (deadline-infeasible flag, FP16 score, id). The
        // flag is a single comparator bit in the RTL design — requests
        // whose predicted slack is already negative are served
        // best-effort behind every feasible one, matching the software
        // scheduler's lost-cause demotion.
        let mut best: Option<(usize, (bool, F16))> = None;
        for &i in &self.visible {
            let t = &queue[i];
            let info = lut.info(t.variant);
            let gamma = gamma(t, lut);
            let lat_avg_ms = F16::from_f64(info.avg_remaining_ns(t.next_layer) / 1e6);
            let ttd_ms = ((t.deadline_ns() as f64 - now_ns as f64) / 1e6)
                .clamp(-SLACK_CLAMP_MS, SLACK_CLAMP_MS);
            let wait_ms = (t.waiting_ns(now_ns) as f64 / 1e6).min(SLACK_CLAMP_MS);
            let ttd = F16::from_f64(ttd_ms);
            let score = score(
                gamma,
                lat_avg_ms,
                ttd,
                F16::ZERO, // deadline passed in relative to `now`
                F16::from_f64(wait_ms),
                inv_queue,
                eta,
            );
            let remain = gamma * lat_avg_ms;
            let infeasible = (ttd - remain).total_cmp(F16::ZERO) == std::cmp::Ordering::Less;
            let key = (infeasible, score);
            let better = match best {
                None => true,
                Some((bi, (b_inf, b_score))) => {
                    (key.0, key.1.to_f32()) < (b_inf, b_score.to_f32())
                        || (key.0 == b_inf && key.1 == b_score && t.id < queue[bi].id)
                }
            };
            if better {
                best = Some((i, key));
            }
        }
        best.expect("engine never passes an empty queue").0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dysta_core::{DystaScheduler, SparseLatencyPredictor};
    use dysta_models::ModelId;
    use dysta_sparsity::SparsityPattern;
    use dysta_trace::{ModelTraces, SparseModelSpec, TraceStore, VariantId};
    use proptest::prelude::*;

    fn setup() -> (SparseModelSpec, VariantId, ModelInfoLut) {
        let spec = SparseModelSpec::new(ModelId::Bert, SparsityPattern::Dense, 0.0);
        let mut store = TraceStore::new();
        store.insert(ModelTraces::generate(&spec, 16, 5));
        let variant = store.variant_id(&spec).expect("spec profiled");
        (spec, variant, ModelInfoLut::from_store(&store))
    }

    fn mk(id: u64, spec: SparseModelSpec, variant: VariantId, arrival: u64) -> TaskState {
        TaskState {
            true_remaining_ns: 30_000_000,
            ..TaskState::arrived(id, spec, variant, arrival, 300_000_000, 109)
        }
    }

    #[test]
    fn agrees_with_software_scheduler_on_clear_cases() {
        let (spec, variant, lut) = setup();
        let info = lut.info(variant);
        let info_sparsity = info.avg_layer_sparsity().to_vec();
        let dyn_layer = info_sparsity.iter().position(|&s| s > 0.1).unwrap();
        let avg_s = info_sparsity[dyn_layer];

        // Layers before `dyn_layer` report zero sparsity; `dyn_layer`
        // reports `last`.
        let monitored = |id, last: f64| {
            let mut task = mk(id, spec, variant, 0);
            for layer in 0..=dyn_layer {
                let sparsity = if layer == dyn_layer { last } else { 0.0 };
                task.record_layer(sparsity, info);
            }
            task
        };
        let sparse = monitored(0, (avg_s + 0.12).min(0.99));
        let dense = monitored(1, (avg_s - 0.12).max(0.0));

        let queue = [dense, sparse];
        let mut hw = HardwareDystaScheduler::new(DystaConfig::default(), 64);
        let mut sw = DystaScheduler::new(DystaConfig::default(), SparseLatencyPredictor::default());
        assert_eq!(
            hw.pick_next(&queue, &lut, 0),
            sw.pick_next(&queue, &lut, 0),
            "FP16 must preserve the decision"
        );
    }

    #[test]
    fn fifo_depth_limits_visibility() {
        let (spec, variant, lut) = setup();
        // Task 9 arrived latest; with depth 2 only tasks 0 and 1 are
        // visible even if 9 would score best.
        let tasks: Vec<TaskState> = (0..10).map(|i| mk(i, spec, variant, i * 1000)).collect();
        let mut hw = HardwareDystaScheduler::new(DystaConfig::default(), 2);
        let picked = hw.pick_next(&tasks, &lut, 1_000_000);
        assert!(tasks[picked].id < 2, "picked {}", tasks[picked].id);
    }

    #[test]
    fn extra_picks_leave_the_next_pick_unchanged() {
        let (spec, variant, lut) = setup();
        // More tasks than the FIFO holds, so the visibility buffer is
        // refilled and truncated on every pick. Later arrivals have
        // earlier deadlines, so the earliest arrival is not the pick.
        let tasks: Vec<TaskState> = (0..6)
            .map(|i| TaskState {
                slo_ns: 300_000_000 - i * 45_000_000,
                ..mk(i, spec, variant, i * 7_000_000)
            })
            .collect();
        let mut probed = HardwareDystaScheduler::new(DystaConfig::default(), 4);
        let mut twin = probed.clone();
        for (step, now) in [50_000_000u64, 90_000_000, 400_000_000]
            .into_iter()
            .enumerate()
        {
            // Extra picks on a singleton, a reversed sub-queue and the
            // whole queue, at other instants.
            let reversed = [tasks[5], tasks[3], tasks[1]];
            for (k, extra) in [&tasks[step..=step], &reversed, &tasks]
                .into_iter()
                .enumerate()
            {
                let t = now - 1_000_000 * (k as u64 + 1);
                probed.pick_next(extra, &lut, t);
            }
            let queue = &tasks;
            assert_eq!(
                probed.pick_next(queue, &lut, now),
                twin.pick_next(queue, &lut, now),
                "extra picks changed the decision at {now} ns"
            );
        }
    }

    /// The walk-back definition the running summary replaced: the
    /// coefficient of the last layer of `stream` (layer `j` monitored
    /// at `stream[j]`) that has a dynamic-sparsity source, else `1`.
    fn walk_back_gamma(stream: &[f64], info: &ModelInfo) -> F16 {
        stream
            .iter()
            .enumerate()
            .rev()
            .find(|&(j, _)| info.dynamic_layer_avg_density(j).is_some())
            .map_or(F16::ONE, |(j, &s)| layer_gamma(j, s, info))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `gamma` reads the task's running summary, and equals the
        /// walk back over the monitored stream at every prefix, on a
        /// transformer (every attention layer dynamic) and on a CNN
        /// (dynamic layers spread out).
        #[test]
        fn summary_gamma_matches_walk_back(
            model_pick in 0usize..2,
            sparsities in prop::collection::vec(0.0f64..1.0, 1..120),
        ) {
            let model = [ModelId::Bert, ModelId::MobileNet][model_pick];
            let spec = SparseModelSpec::new(model, SparsityPattern::Dense, 0.0);
            let mut store = TraceStore::new();
            store.insert(ModelTraces::generate(&spec, 8, 29));
            let variant = store.variant_id(&spec).expect("spec profiled");
            let lut = ModelInfoLut::from_store(&store);
            let info = lut.info(variant);
            let mut task = mk(0, spec, variant, 0);
            let stream = &sparsities[..sparsities.len().min(info.num_layers())];
            for (j, &s) in stream.iter().enumerate() {
                task.record_layer(s, info);
                // `F16` equality compares the half-precision bits.
                prop_assert_eq!(
                    gamma(&task, &lut),
                    walk_back_gamma(&stream[..=j], info),
                    "prefix {}",
                    j + 1
                );
            }
        }
    }
}
