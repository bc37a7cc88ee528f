//! The hardware Dysta scheduler: Algorithm 2 executed through the FP16
//! datapath, behind a FIFO modelled by its depth.

use dysta_core::{DystaConfig, ModelInfoLut, Scheduler, TaskQueue, TaskState};

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
/// the coefficient dataflow).
fn gamma(task: &TaskState, lut: &ModelInfoLut) -> F16 {
    let info = lut.info(task.variant);
    // Walk back to the most recent dynamic layer the monitor saw
    // (`dynamic_layer_avg_density` owns the epsilon/floor shared
    // with the software predictor).
    let last_dynamic = task
        .monitored
        .iter()
        .enumerate()
        .rev()
        .find_map(|(j, m)| info.dynamic_layer_avg_density(j).map(|d| (m, d)));
    match last_dynamic {
        None => F16::ONE,
        Some((m, avg_density)) => {
            let num_zeros = (m.sparsity.clamp(0.0, 1.0) * MONITOR_SHAPE as f64).round() as u64;
            let ratio = coefficient(num_zeros, MONITOR_SHAPE, F16::from_f64(1.0 / avg_density));
            // The per-variant hardware-effectiveness exponent is
            // applied through a small ratio->gamma lookup table in the
            // RTL design; modelled here as an FP16-quantised pow.
            F16::from_f64(ratio.to_f64().max(1e-3).powf(info.gamma_exponent()))
        }
    }
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
                .sort_by_key(|&i| (queue.get(i).arrival_ns, queue.get(i).id));
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
            let t = queue.get(i);
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
                        || (key.0 == b_inf && key.1 == b_score && t.id < queue.get(bi).id)
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
    use dysta_core::{DystaScheduler, MonitoredLayer, SparseLatencyPredictor};
    use dysta_models::ModelId;
    use dysta_sparsity::SparsityPattern;
    use dysta_trace::{ModelTraces, SparseModelSpec, TraceStore};

    fn setup() -> (SparseModelSpec, ModelInfoLut) {
        let spec = SparseModelSpec::new(ModelId::Bert, SparsityPattern::Dense, 0.0);
        let mut store = TraceStore::new();
        store.insert(ModelTraces::generate(&spec, 16, 5));
        (spec, ModelInfoLut::from_store(&store))
    }

    fn mk(id: u64, spec: SparseModelSpec, lut: &ModelInfoLut, arrival: u64) -> TaskState {
        let variant = lut.variant_id(&spec).expect("spec profiled");
        TaskState {
            true_remaining_ns: 30_000_000,
            ..TaskState::arrived(id, spec, variant, arrival, 300_000_000, 109)
        }
    }

    #[test]
    fn agrees_with_software_scheduler_on_clear_cases() {
        let (spec, lut) = setup();
        let info = lut.expect(&spec);
        let info_sparsity = info.avg_layer_sparsity().to_vec();
        let dyn_layer = info_sparsity.iter().position(|&s| s > 0.1).unwrap();
        let avg_s = info_sparsity[dyn_layer];

        let mut sparse = mk(0, spec, &lut, 0);
        sparse.next_layer = dyn_layer + 1;
        sparse.monitored = vec![
            MonitoredLayer {
                sparsity: 0.0,
                latency_ns: 1
            };
            dyn_layer
        ];
        sparse.monitored.push(MonitoredLayer {
            sparsity: (avg_s + 0.12).min(0.99),
            latency_ns: 1,
        });
        sparse.rebuild_sparsity_summary(info);
        let mut dense = sparse.clone();
        dense.id = 1;
        dense.monitored.last_mut().unwrap().sparsity = (avg_s - 0.12).max(0.0);
        dense.rebuild_sparsity_summary(info);

        let queue = [dense, sparse];
        let mut hw = HardwareDystaScheduler::new(DystaConfig::default(), 64);
        let mut sw = DystaScheduler::new(DystaConfig::default(), SparseLatencyPredictor::default());
        assert_eq!(
            hw.pick_next(TaskQueue::dense(&queue), &lut, 0),
            sw.pick_next(TaskQueue::dense(&queue), &lut, 0),
            "FP16 must preserve the decision"
        );
    }

    #[test]
    fn fifo_depth_limits_visibility() {
        let (spec, lut) = setup();
        // Task 9 arrived latest; with depth 2 only tasks 0 and 1 are
        // visible even if 9 would score best.
        let tasks: Vec<TaskState> = (0..10).map(|i| mk(i, spec, &lut, i * 1000)).collect();
        let mut hw = HardwareDystaScheduler::new(DystaConfig::default(), 2);
        let picked = hw.pick_next(TaskQueue::dense(&tasks), &lut, 1_000_000);
        assert!(tasks[picked].id < 2, "picked {}", tasks[picked].id);
    }

    #[test]
    fn extra_picks_leave_the_next_pick_unchanged() {
        let (spec, lut) = setup();
        // More tasks than the FIFO holds, so the visibility buffer is
        // refilled and truncated on every pick. Later arrivals have
        // earlier deadlines, so the earliest arrival is not the pick.
        let tasks: Vec<TaskState> = (0..6)
            .map(|i| TaskState {
                slo_ns: 300_000_000 - i * 45_000_000,
                ..mk(i, spec, &lut, i * 7_000_000)
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
            for (k, active) in [vec![step], vec![5, 3, 1], (0..6).collect()]
                .iter()
                .enumerate()
            {
                let t = now - 1_000_000 * (k as u64 + 1);
                probed.pick_next(TaskQueue::indexed(&tasks, active), &lut, t);
            }
            let queue = TaskQueue::dense(&tasks);
            assert_eq!(
                probed.pick_next(queue, &lut, now),
                twin.pick_next(queue, &lut, now),
                "extra picks changed the decision at {now} ns"
            );
        }
    }
}
