//! The single-accelerator experiments: Table 4 (predictor RMSE), Table 5,
//! Figs. 12–15, and the hardware scheduler's cost (Fig. 16, Table 6).
//! Each is defined here once, as its grid, its policy list and its row
//! type. The figure binaries print these rows and the golden suite pins
//! them at quick scale.

use serde::Serialize;

use dysta::core::{
    CoeffStrategy, DystaConfig, ModelInfoLut, Policy, SparseLatencyPredictor, TaskState,
};
use dysta::hw::resources::{eyeriss_v2_baseline, overhead_percent, DesignPoint, ResourceUsage};
use dysta::models::ModelId;
use dysta::sparsity::SparsityPattern;
use dysta::trace::{ModelTraces, SparseModelSpec, TraceStore};
use dysta::workload::Scenario;

use crate::{compare_policies, PolicyMetrics, Scale};

/// One operating point: the scenario's key in the rows, the scenario,
/// and its arrival rate in samples/s.
pub type Point = (&'static str, Scenario, f64);

/// The paper's operating points (Table 5, Fig. 13): multi-AttNN at
/// 30 samples/s, multi-CNN at 3.
pub const OPERATING_POINTS: [Point; 2] = [
    ("multi_attnn", Scenario::MultiAttNn, 30.0),
    ("multi_cnn", Scenario::MultiCnn, 3.0),
];

/// Fig. 12's trade-off planes: each operating point and one heavier
/// rate.
pub const FIG12_POINTS: [Point; 4] = [
    ("multi_attnn", Scenario::MultiAttNn, 30.0),
    ("multi_attnn", Scenario::MultiAttNn, 40.0),
    ("multi_cnn", Scenario::MultiCnn, 3.0),
    ("multi_cnn", Scenario::MultiCnn, 4.0),
];

/// Fig. 13's optimization breakdown: PREMA, static-only Dysta, full
/// Dysta.
pub const FIG13_POLICIES: [Policy; 3] = [Policy::Prema, Policy::DystaStatic, Policy::Dysta];

/// The sweep figures' policy list (Figs. 14 and 15): the baselines,
/// the Oracle and Dysta.
pub const SWEEP_POLICIES: [Policy; 7] = [
    Policy::Fcfs,
    Policy::Sjf,
    Policy::Prema,
    Policy::Planaria,
    Policy::Sdrm3,
    Policy::Oracle,
    Policy::Dysta,
];

/// The SLO multiplier of every single-accelerator experiment except
/// Fig. 14's sweep.
pub const SLO_MULTIPLIER: f64 = 10.0;

/// The section title the binaries print for a paper scenario.
pub fn title(scenario: Scenario) -> &'static str {
    match scenario {
        Scenario::MultiAttNn => "Multi-AttNNs",
        Scenario::MultiCnn => "Multi-CNNs",
        other => unreachable!("no paper experiment runs {other:?}"),
    }
}

/// Runs `policies` at every point in order, one row per policy.
fn grid<R>(
    points: &[Point],
    slo_multiplier: f64,
    policies: &[Policy],
    scale: Scale,
    row: impl Fn(&str, f64, PolicyMetrics) -> R,
) -> Vec<R> {
    let mut rows = Vec::new();
    for &(key, scenario, rate) in points {
        for cell in compare_policies(
            scenario,
            rate,
            slo_multiplier,
            scale,
            policies,
            DystaConfig::default(),
        ) {
            rows.push(row(key, rate, cell));
        }
    }
    rows
}

/// One Table 5 row.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PolicyRow {
    pub scenario: String,
    pub policy: String,
    pub antt: f64,
    pub violation_rate: f64,
    pub throughput_inf_s: f64,
}

/// Table 5: every Table 5 policy at both operating points, SLO x10.
pub fn table05_rows(scale: Scale) -> Vec<PolicyRow> {
    grid(
        &OPERATING_POINTS,
        SLO_MULTIPLIER,
        &Policy::TABLE5,
        scale,
        |key, _, c| PolicyRow {
            scenario: key.to_string(),
            policy: c.policy.name().to_string(),
            antt: c.metrics.antt,
            violation_rate: c.metrics.violation_rate,
            throughput_inf_s: c.metrics.throughput_inf_s,
        },
    )
}

/// One point of a Fig. 12 ANTT / SLO-violation plane.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TradeoffRow {
    pub scenario: String,
    pub rate: f64,
    pub policy: String,
    pub antt: f64,
    pub violation_rate: f64,
}

/// Fig. 12: every Table 5 policy on each plane of [`FIG12_POINTS`],
/// SLO x10.
pub fn fig12_rows(scale: Scale) -> Vec<TradeoffRow> {
    grid(
        &FIG12_POINTS,
        SLO_MULTIPLIER,
        &Policy::TABLE5,
        scale,
        |key, rate, c| TradeoffRow {
            scenario: key.to_string(),
            rate,
            policy: c.policy.name().to_string(),
            antt: c.metrics.antt,
            violation_rate: c.metrics.violation_rate,
        },
    )
}

/// One variant of the Fig. 13 breakdown.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BreakdownRow {
    pub scenario: String,
    pub policy: String,
    pub antt: f64,
    pub violation_rate: f64,
}

/// Fig. 13: [`FIG13_POLICIES`] at both operating points, SLO x10.
pub fn fig13_rows(scale: Scale) -> Vec<BreakdownRow> {
    grid(
        &OPERATING_POINTS,
        SLO_MULTIPLIER,
        &FIG13_POLICIES,
        scale,
        |key, _, c| BreakdownRow {
            scenario: key.to_string(),
            policy: c.policy.name().to_string(),
            antt: c.metrics.antt,
            violation_rate: c.metrics.violation_rate,
        },
    )
}

/// One cell of the Fig. 14 SLO sweep.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SloRow {
    pub scenario: String,
    pub rate: f64,
    pub slo_multiplier: f64,
    pub policy: String,
    pub antt: f64,
    pub violation_rate: f64,
}

/// Fig. 14: [`SWEEP_POLICIES`] at every point and SLO multiplier
/// (point-major), one row per policy.
pub fn fig14_rows(points: &[Point], multipliers: &[f64], scale: Scale) -> Vec<SloRow> {
    let mut rows = Vec::new();
    for &point in points {
        for &m in multipliers {
            rows.extend(grid(&[point], m, &SWEEP_POLICIES, scale, |key, rate, c| {
                SloRow {
                    scenario: key.to_string(),
                    rate,
                    slo_multiplier: m,
                    policy: c.policy.name().to_string(),
                    antt: c.metrics.antt,
                    violation_rate: c.metrics.violation_rate,
                }
            }));
        }
    }
    rows
}

/// One cell of the Fig. 15 rate sweep.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RateRow {
    pub scenario: String,
    pub rate: f64,
    pub policy: String,
    pub antt: f64,
    pub violation_rate: f64,
    pub throughput_inf_s: f64,
}

/// Fig. 15: [`SWEEP_POLICIES`] at every point, SLO x10.
pub fn fig15_rows(points: &[Point], scale: Scale) -> Vec<RateRow> {
    grid(
        points,
        SLO_MULTIPLIER,
        &SWEEP_POLICIES,
        scale,
        |key, rate, c| RateRow {
            scenario: key.to_string(),
            rate,
            policy: c.policy.name().to_string(),
            antt: c.metrics.antt,
            violation_rate: c.metrics.violation_rate,
            throughput_inf_s: c.metrics.throughput_inf_s,
        },
    )
}

/// The Table 4 models.
pub const TABLE4_MODELS: [ModelId; 2] = [ModelId::Bert, ModelId::Gpt2];

/// One Table 4 row: the predictor's remaining-latency RMSE in seconds
/// under each coefficient strategy.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RmseRow {
    pub model: String,
    pub average_all: f64,
    pub last_3: f64,
    pub last_one: f64,
}

/// The predictor's RMSE on `samples` dense traces of `model`: at every
/// layer boundary it estimates the remaining latency, scored against
/// the trace ground truth.
fn rmse_for(model: ModelId, strategy: CoeffStrategy, samples: u64) -> f64 {
    let spec = SparseModelSpec::new(model, SparsityPattern::Dense, 0.0);
    let traces = ModelTraces::generate(&spec, samples, 7);
    let mut store = TraceStore::new();
    store.insert(traces.clone());
    let variant = store.variant_id(&spec).expect("spec profiled");
    let lut = ModelInfoLut::from_store(&store);
    let info = lut.info(variant);
    let predictor = SparseLatencyPredictor::new(strategy);

    let mut sq_err = 0.0;
    let mut count = 0u64;
    for idx in 0..traces.num_samples() as u64 {
        let trace = traces.sample(idx);
        let mut task = TaskState {
            true_remaining_ns: trace.isolated_latency_ns(),
            ..TaskState::arrived(idx, spec, variant, 0, u64::MAX / 2, trace.num_layers())
        };
        for layer in trace.layers() {
            // Feed the monitor the way the engine does.
            task.record_layer(layer.sparsity, info);
            let predicted_s = predictor.remaining_ns(&task, info) / 1e9;
            let truth_s = trace.remaining_ns(task.next_layer) as f64 / 1e9;
            sq_err += (predicted_s - truth_s).powi(2);
            count += 1;
        }
    }
    (sq_err / count as f64).sqrt()
}

/// Table 4: average-all, last-3 and last-one RMSE for each of
/// [`TABLE4_MODELS`].
pub fn table04_rows(scale: Scale) -> Vec<RmseRow> {
    let samples = (scale.samples_per_variant * 4).max(128);
    TABLE4_MODELS
        .iter()
        .map(|&model| RmseRow {
            model: model.to_string(),
            average_all: rmse_for(model, CoeffStrategy::AverageAll, samples),
            last_3: rmse_for(model, CoeffStrategy::LastThree, samples),
            last_one: rmse_for(model, CoeffStrategy::LastOne, samples),
        })
        .collect()
}

/// Fig. 16's request FIFO depths.
pub const FIG16_DEPTHS: [u32; 2] = [512, 64];

/// One Fig. 16 bar: a scheduler design's resources at one FIFO depth,
/// absolute and normalized to `Non_Opt_FP32` at the same depth.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HwResourceRow {
    pub depth: u32,
    pub design: String,
    pub luts: u32,
    pub ffs: u32,
    pub dsps: u32,
    pub ram_kb: f64,
    pub lut_norm: f64,
    pub ff_norm: f64,
    pub dsp_norm: f64,
}

/// Fig. 16: `Non_Opt_FP32`, `Opt_FP32` and `Opt_FP16` at each of
/// [`FIG16_DEPTHS`], in that order.
pub fn fig16_rows() -> Vec<HwResourceRow> {
    let mut rows = Vec::new();
    for depth in FIG16_DEPTHS {
        let base = DesignPoint::non_opt_fp32(depth).usage();
        for design in [
            DesignPoint::non_opt_fp32(depth),
            DesignPoint::opt_fp32(depth),
            DesignPoint::opt_fp16(depth),
        ] {
            let u = design.usage();
            let (lut_norm, ff_norm, dsp_norm) = u.normalized_to(base);
            rows.push(HwResourceRow {
                depth,
                design: design.label().to_string(),
                luts: u.luts,
                ffs: u.ffs,
                dsps: u.dsps,
                ram_kb: u.ram_kb,
                lut_norm,
                ff_norm,
                dsp_norm,
            });
        }
    }
    rows
}

/// One Table 6 module row.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ModuleRow {
    pub module: String,
    pub luts: u32,
    pub dsps: u32,
    pub ram_kb: f64,
}

/// Table 6: the modules and the scheduler's overhead on Eyeriss-V2 in
/// percent.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct OverheadTable {
    pub modules: Vec<ModuleRow>,
    pub lut_pct: f64,
    pub dsp_pct: f64,
    pub ram_pct: f64,
}

/// Table 6: Eyeriss-V2, the deployed scheduler (`Opt_FP16` at FIFO
/// depth 64) and their sum.
pub fn table06() -> OverheadTable {
    let eyeriss = eyeriss_v2_baseline();
    let sched = DesignPoint::opt_fp16(64).usage();
    let module = |name: &str, u: ResourceUsage| ModuleRow {
        module: name.to_string(),
        luts: u.luts,
        dsps: u.dsps,
        ram_kb: u.ram_kb,
    };
    let (lut_pct, dsp_pct, ram_pct) = overhead_percent(sched, eyeriss);
    OverheadTable {
        modules: vec![
            module("Eyeriss-V2", eyeriss),
            module("Scheduler", sched),
            module("Dysta-Eyeriss-V2", eyeriss.plus(sched)),
        ],
        lut_pct,
        dsp_pct,
        ram_pct,
    }
}
