//! The cluster serving experiments: Fig. 14's cluster EDF section,
//! admission control (`fig_admission`), fault injection (`fig_faults`)
//! and the open-loop load curve (`fig_load_curve`). Each is defined here
//! once, as its grid and its row type. All four serve the balanced
//! mixed serving mix on the capacity-heterogeneous 2+2 pool.

use serde::Serialize;

use dysta::cluster::{
    balanced_mixed_serving_mix, simulate_cluster, AdmissionPolicy, AdmitAll, ClusterBuilder,
    ClusterPolicy, DispatchPolicy, FaultConfig, FaultSchedule, FrontendConfig,
    InfeasibleEverywhere, RecoveryConfig, SlackLoadShedding,
};
use dysta::core::Policy;
use dysta::obs::NullTracer;
use dysta::workload::{
    ArrivalProcess, PhaseSpec, Popularity, SloModel, StreamSpec, Workload, WorkloadBuilder,
};

use crate::{replicate, Scale};

/// The steady operating point of the admission, fault and load-curve
/// experiments, in requests/s.
pub const BASE_RATE: f64 = 45.0;

/// The tight serving SLO multiplier of the admission, fault and
/// load-curve experiments.
pub const TIGHT_SLO: f64 = 2.0;

/// The capacity-heterogeneous 2+2 pool: two Eyeriss-V2 and two Sanger
/// nodes, one per family at half capacity, every node scheduling with
/// `node_policy`.
pub fn capacity_het_pool(node_policy: Policy) -> ClusterBuilder {
    ClusterBuilder::heterogeneous(2, 2, node_policy)
        .node_capacity(1, 0.5)
        .node_capacity(3, 0.5)
}

/// The balanced mixed serving mix at `rate` requests/s and SLO
/// multiplier `slo_multiplier`, sized by `scale`.
fn mixed_workload(rate: f64, slo_multiplier: f64, scale: Scale, seed: u64) -> Workload {
    let mix = WorkloadBuilder::from_mix(balanced_mixed_serving_mix())
        .arrival_rate(rate)
        .slo_multiplier(slo_multiplier);
    scale.workload(&mix, seed)
}

/// `dispatch` behind the named admission policy (one of
/// [`ADMISSIONS`]).
fn cluster_policy(dispatch: DispatchPolicy, admission: &str) -> ClusterPolicy {
    let admission: Box<dyn AdmissionPolicy> = match admission {
        "admit-all" => Box::new(AdmitAll::new()),
        "infeasible-everywhere" => Box::new(InfeasibleEverywhere::new()),
        "slack-load-shed" => Box::new(SlackLoadShedding::new()),
        other => unreachable!("unknown admission policy {other}"),
    };
    ClusterPolicy::from_dispatch(dispatch).with_admission(admission)
}

// --- Fig. 14, cluster section ------------------------------------------------

/// The dispatchers Fig. 14's cluster section compares.
pub const EDF_DISPATCHERS: [DispatchPolicy; 3] = [
    DispatchPolicy::JoinShortestQueue,
    DispatchPolicy::SparsityAffinity,
    DispatchPolicy::EarliestDeadlineFirst,
];

/// One Fig. 14 cluster cell, seed-averaged.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EdfClusterCell {
    pub dispatch: String,
    pub slo_multiplier: f64,
    pub antt: f64,
    pub violation_rate: f64,
}

/// Fig. 14's cluster section: each of [`EDF_DISPATCHERS`] at each SLO
/// multiplier (multiplier-major), serving mixed traffic at 30
/// samples/s on the capacity-heterogeneous pool of Dysta nodes.
pub fn edf_cells(multipliers: &[f64], scale: Scale) -> Vec<EdfClusterCell> {
    let mut cells = Vec::new();
    for &m in multipliers {
        let sums = replicate(
            scale.cluster_seeds(),
            |seed| mixed_workload(30.0, m, scale, seed),
            &EDF_DISPATCHERS,
            |&dispatch, w| {
                let pool = capacity_het_pool(Policy::Dysta).build();
                let mut policy = ClusterPolicy::from_dispatch(dispatch);
                let report = simulate_cluster(w.source(), &mut policy, &pool, NullTracer);
                [report.antt(), report.violation_rate()]
            },
        );
        for (dispatch, s) in EDF_DISPATCHERS.iter().zip(sums) {
            let [antt, violation_rate] = s.mean();
            cells.push(EdfClusterCell {
                dispatch: dispatch.name().to_string(),
                slo_multiplier: m,
                antt,
                violation_rate,
            });
        }
    }
    cells
}

// --- Admission control -------------------------------------------------------

/// The dispatchers the admission and fault experiments run under.
pub const SERVING_DISPATCHERS: [DispatchPolicy; 2] = [
    DispatchPolicy::SparsityAffinity,
    DispatchPolicy::EarliestDeadlineFirst,
];

/// The admission policies compared, by name.
pub const ADMISSIONS: [&str; 3] = ["admit-all", "infeasible-everywhere", "slack-load-shed"];

/// One admission-control cell: rates are seed-averaged, counts summed
/// over the seeds.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AdmissionCell {
    pub dispatch: String,
    pub admission: String,
    pub antt: f64,
    pub violation_rate: f64,
    /// Completions meeting the *original* SLO, summed over the seeds.
    pub goodput: usize,
    pub goodput_rate: f64,
    pub completed: usize,
    pub rejected: usize,
    pub degraded: usize,
}

/// Admission control: each of [`SERVING_DISPATCHERS`] behind each of
/// [`ADMISSIONS`], serving mixed traffic at [`BASE_RATE`] and
/// [`TIGHT_SLO`] on the capacity-heterogeneous pool of FCFS nodes,
/// where doomed head-of-queue work really blocks feasible work.
pub fn admission_cells(scale: Scale) -> Vec<AdmissionCell> {
    let configs: Vec<_> = SERVING_DISPATCHERS
        .iter()
        .flat_map(|&d| ADMISSIONS.map(|a| (d, a)))
        .collect();
    let sums = replicate(
        scale.cluster_seeds(),
        |seed| mixed_workload(BASE_RATE, TIGHT_SLO, scale, seed),
        &configs,
        |&(dispatch, admission), w| {
            let pool = capacity_het_pool(Policy::Fcfs).build();
            let mut policy = cluster_policy(dispatch, admission);
            let report = simulate_cluster(w.source(), &mut policy, &pool, NullTracer);
            [
                report.antt(),
                report.violation_rate(),
                report.goodput_rate(),
                report.goodput() as f64,
                report.completed_total() as f64,
                report.rejected_total() as f64,
                report.degraded_total() as f64,
            ]
        },
    );
    configs
        .iter()
        .zip(sums)
        .map(|(&(dispatch, admission), s)| {
            let [antt, violation_rate, goodput_rate, ..] = s.mean();
            let [.., goodput, completed, rejected, degraded] = s.sum;
            AdmissionCell {
                dispatch: dispatch.name().to_string(),
                admission: admission.to_string(),
                antt,
                violation_rate,
                goodput: goodput as usize,
                goodput_rate,
                completed: completed as usize,
                rejected: rejected as usize,
                degraded: degraded as usize,
            }
        })
        .collect()
}

// --- Fault injection ---------------------------------------------------------

/// The recovery configurations compared, by name.
pub const RECOVERIES: [(&str, RecoveryConfig); 2] = [
    (
        "salvage+renege",
        RecoveryConfig {
            salvage: true,
            max_retries: 2,
            reneging: true,
        },
    ),
    (
        "none",
        RecoveryConfig {
            salvage: false,
            max_retries: 0,
            reneging: false,
        },
    ),
];

/// The fault schedule. The arrival stream spans ~2.2 s at
/// [`BASE_RATE`] and overdrives the pool, so queues deepen over the
/// run: crashing the full-speed Eyeriss node at 1.5 s strands a real
/// backlog (healing after the stream ends), and the brown-out halves
/// the full-speed Sanger node over the back half of the stream.
pub fn fault_schedule() -> FaultSchedule {
    FaultSchedule::new()
        .transient_crash(0, 1_500_000_000, 2_500_000_000)
        .brownout(2, 800_000_000, 2_000_000_000, 0.5)
}

/// One fault-injection cell: rates are seed-averaged, counts summed
/// over the seeds.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultCell {
    pub dispatch: String,
    pub recovery: String,
    pub antt: f64,
    pub violation_rate: f64,
    /// Completions meeting the *original* SLO, summed over the seeds.
    pub goodput: usize,
    pub goodput_rate: f64,
    pub completed: usize,
    pub failed: usize,
    pub reneged: usize,
    pub salvaged: usize,
    pub retries: usize,
    pub lost_busy_ms: f64,
}

/// Fault injection: each of [`SERVING_DISPATCHERS`] under each of
/// [`RECOVERIES`], on the admission experiment's pool and traffic
/// behind the serving front-end, facing [`fault_schedule`].
///
/// # Panics
///
/// Panics if a run does not conserve requests: every admitted request
/// must complete, fail or renege.
pub fn fault_cells(scale: Scale) -> Vec<FaultCell> {
    let configs: Vec<_> = SERVING_DISPATCHERS
        .iter()
        .flat_map(|&d| RECOVERIES.map(|r| (d, r)))
        .collect();
    let sums = replicate(
        scale.cluster_seeds(),
        |seed| mixed_workload(BASE_RATE, TIGHT_SLO, scale, seed),
        &configs,
        |&(dispatch, (_, recovery)), w| {
            let pool = capacity_het_pool(Policy::Fcfs)
                .frontend(FrontendConfig::serving())
                .faults(FaultConfig {
                    schedule: fault_schedule(),
                    recovery,
                })
                .build();
            let mut policy = ClusterPolicy::from_dispatch(dispatch);
            let report = simulate_cluster(w.source(), &mut policy, &pool, NullTracer);
            assert_eq!(
                report.admitted_total(),
                report.completed_total() + report.failed_total() + report.reneged_total(),
                "conservation must close under faults"
            );
            let recovery = report.recovery();
            [
                report.antt(),
                report.violation_rate(),
                report.goodput_rate(),
                report.goodput() as f64,
                report.completed_total() as f64,
                report.failed_total() as f64,
                report.reneged_total() as f64,
                recovery.salvaged as f64,
                recovery.retries as f64,
                recovery.lost_busy_ns as f64,
            ]
        },
    );
    configs
        .iter()
        .zip(sums)
        .map(|(&(dispatch, (recovery, _)), s)| {
            let [antt, violation_rate, goodput_rate, ..] = s.mean();
            let [.., goodput, completed, failed, reneged, salvaged, retries, lost_busy_ns] = s.sum;
            FaultCell {
                dispatch: dispatch.name().to_string(),
                recovery: recovery.to_string(),
                antt,
                violation_rate,
                goodput: goodput as usize,
                goodput_rate,
                completed: completed as usize,
                failed: failed as usize,
                reneged: reneged as usize,
                salvaged: salvaged as usize,
                retries: retries as usize,
                lost_busy_ms: lost_busy_ns / 1e6,
            }
        })
        .collect()
}

// --- Load curve --------------------------------------------------------------

/// The open-loop stream shapes of the load curve.
pub const SHAPES: [&str; 2] = ["flash-crowd", "phase-change"];

/// Offered-load multipliers applied to the stream's hot section.
pub const LOAD_FACTORS: [f64; 4] = [1.0, 2.0, 3.0, 4.0];

/// The admission policies the load curve compares.
pub const LOAD_ADMISSIONS: [&str; 2] = ["admit-all", "slack-load-shed"];

/// One stream shape at offered-load factor `load`: `num_requests` and
/// trace resolution come from the run scale, everything else from the
/// shape. Both shapes start at [`BASE_RATE`] and spend their second
/// half at `load x` that rate, so a factor above the pool's capacity
/// overloads the tail of the run.
pub fn stream_spec(shape: &str, load: f64, scale: Scale, seed: u64) -> StreamSpec {
    let mix = balanced_mixed_serving_mix();
    let phases = match shape {
        // Steady base rate with a crowd spike to `load x base` opening
        // half a second in (~22 requests at the base rate) and long
        // enough to cover the rest of the run at any factor.
        "flash-crowd" => vec![PhaseSpec {
            start_ns: 0,
            process: ArrivalProcess::FlashCrowd {
                base_rate: BASE_RATE,
                peak_rate: BASE_RATE * load,
                start_s: 0.5,
                duration_s: 60.0,
            },
            mix,
            popularity: Popularity::Weighted,
            slo: SloModel::Fixed(TIGHT_SLO),
        }],
        // Steady first phase, then the rate jumps to `load x base` and
        // popularity skews Zipfian (a hot-model shift riding the surge).
        "phase-change" => vec![
            PhaseSpec::steady(0, BASE_RATE, mix.clone(), SloModel::Fixed(TIGHT_SLO)),
            PhaseSpec {
                start_ns: 500_000_000,
                process: ArrivalProcess::Poisson {
                    rate: BASE_RATE * load,
                },
                mix,
                popularity: Popularity::Zipfian { exponent: 1.0 },
                slo: SloModel::Fixed(TIGHT_SLO),
            },
        ],
        other => unreachable!("unknown stream shape {other}"),
    };
    StreamSpec {
        phases,
        num_requests: scale.requests as u64,
        samples_per_variant: scale.samples_per_variant,
        seed,
    }
}

/// One load-curve cell.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LoadCurveCell {
    pub shape: String,
    pub load: f64,
    pub admission: String,
    pub goodput_rate: f64,
    pub p99_ms: f64,
    /// Summed over the seeds (exact counts, like [`AdmissionCell`]).
    pub rejected: usize,
    pub degraded: usize,
    /// Max over the seeds: the front-end's in-flight high-water mark.
    pub peak_live: usize,
}

/// The load curve: each of [`SHAPES`] at each of [`LOAD_FACTORS`],
/// served behind each of [`LOAD_ADMISSIONS`] with EDF dispatch on the
/// admission experiment's pool. Streams run open-loop through
/// `simulate_cluster`, never materialized as a workload.
pub fn load_curve_cells(scale: Scale) -> Vec<LoadCurveCell> {
    let mut cells = Vec::new();
    for shape in SHAPES {
        for load in LOAD_FACTORS {
            let sums = replicate(
                scale.cluster_seeds(),
                |seed| {
                    let spec = stream_spec(shape, load, scale, seed);
                    let store = spec.build_store();
                    (spec, store)
                },
                &LOAD_ADMISSIONS,
                |&admission, (spec, store)| {
                    let pool = capacity_het_pool(Policy::Fcfs).build();
                    let mut policy =
                        cluster_policy(DispatchPolicy::EarliestDeadlineFirst, admission);
                    let report =
                        simulate_cluster(spec.source(store), &mut policy, &pool, NullTracer);
                    [
                        report.goodput_rate(),
                        report.turnaround_percentile_ns(99.0) as f64,
                        report.rejected_total() as f64,
                        report.degraded_total() as f64,
                        report.serving().peak_live_requests as f64,
                    ]
                },
            );
            for (admission, s) in LOAD_ADMISSIONS.iter().zip(sums) {
                let [goodput_rate, p99_ns, ..] = s.mean();
                let [.., rejected, degraded, _] = s.sum;
                let [.., peak_live] = s.max;
                cells.push(LoadCurveCell {
                    shape: shape.to_string(),
                    load,
                    admission: admission.to_string(),
                    goodput_rate,
                    p99_ms: p99_ns / 1e6,
                    rejected: rejected as usize,
                    degraded: degraded as usize,
                    peak_live: peak_live as usize,
                });
            }
        }
    }
    cells
}
