//! Time-shift invariance of the whole cluster pipeline.
//!
//! Steal and migration ticks fire at absolute multiples of their
//! period, and the admission timer runs from the oldest queued arrival.
//! So shifting every arrival and every fault edge by Δ = k × 1 s, with
//! every period and interval dividing 1 s, must shift every completion
//! by exactly Δ and change nothing else: the serving statistics, every
//! per-node counter and every node's busy time stay identical. The
//! property covers the whole front end (batching with a timer, costed
//! steals and migrations, load shedding, reneging, a transient crash, a
//! brown-out and a transfer stall) and targets code that mixes absolute
//! and relative times.

use proptest::prelude::*;

use dysta_cluster::{
    balanced_mixed_serving_mix, simulate_cluster, AdmissionConfig, ClusterBuilder, ClusterConfig,
    ClusterPolicy, ClusterReport, DispatchPolicy, FaultConfig, FaultSchedule, FrontendConfig,
    MigrationConfig, NodeReport, RecoveryConfig, SlackLoadShedding, StealConfig,
    TransferCostConfig,
};
use dysta_core::Policy;
use dysta_obs::NullTracer;
use dysta_sim::{CompletedRequest, SimReport};
use dysta_workload::{Request, Workload, WorkloadBuilder};

const MS: u64 = 1_000_000;
const S: u64 = 1_000 * MS;

/// Tick periods and admission intervals in ms; each divides 1 s, so a
/// whole-second shift keeps every tick at the same phase relative to
/// the arrivals.
const DIVISORS_OF_1S_MS: [u64; 5] = [10, 20, 25, 50, 100];

/// The fault windows, in ms from the start of the stream.
#[derive(Debug, Clone, Copy)]
struct Faults {
    crash_ms: u64,
    down_ms: u64,
    brownout_ms: u64,
    stall_ms: u64,
    window_ms: u64,
}

impl Faults {
    /// A transient crash of Eyeriss node 0, a half-capacity brown-out
    /// of Sanger node 3 and a 4× transfer stall on Sanger node 2, every
    /// edge shifted by `delta`.
    fn schedule(self, delta: u64) -> FaultSchedule {
        let at = |ms: u64| delta + ms * MS;
        FaultSchedule::new()
            .transient_crash(0, at(self.crash_ms), at(self.crash_ms + self.down_ms))
            .brownout(
                3,
                at(self.brownout_ms),
                at(self.brownout_ms + self.window_ms),
                0.5,
            )
            .transfer_stall(
                2,
                at(self.stall_ms),
                at(self.stall_ms + self.window_ms),
                4.0,
            )
    }
}

/// A 2+2 Eyeriss/Sanger pool with one half-capacity Eyeriss node, the
/// costed serving front end and reneging on.
fn pool(policy: Policy, frontend: FrontendConfig, faults: FaultSchedule) -> ClusterConfig {
    ClusterBuilder::heterogeneous(2, 2, policy)
        .node_capacity(1, 0.5)
        .frontend(frontend)
        .transfer_cost(TransferCostConfig::default_costed())
        .faults(FaultConfig {
            schedule: faults,
            recovery: RecoveryConfig {
                salvage: true,
                max_retries: 2,
                reneging: true,
            },
        })
        .build()
}

fn shifted(w: &Workload, delta: u64) -> Workload {
    let requests = w
        .requests()
        .iter()
        .map(|r| Request {
            arrival_ns: r.arrival_ns + delta,
            ..*r
        })
        .collect();
    Workload::from_parts(requests, w.store().clone())
}

/// `report` with every completion moved `delta` earlier; everything
/// else is kept as it is.
fn unshifted(report: &ClusterReport, delta: u64) -> ClusterReport {
    let nodes = report
        .nodes()
        .iter()
        .map(|n| {
            let completed = n
                .report
                .completed()
                .iter()
                .map(|c| CompletedRequest {
                    arrival_ns: c.arrival_ns - delta,
                    completion_ns: c.completion_ns - delta,
                    ..*c
                })
                .collect();
            NodeReport {
                report: SimReport::new(
                    completed,
                    n.report.preemptions(),
                    n.report.scheduler_invocations(),
                ),
                ..n.clone()
            }
        })
        .collect();
    ClusterReport::with_serving(nodes, report.serving().clone())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn shifting_every_input_time_by_whole_seconds_shifts_only_the_completions(
        seed in 0u64..1_000,
        k in 1u64..6,
        dispatch in prop::sample::select(DispatchPolicy::ALL.to_vec()),
        policy in prop::sample::select(Policy::ALL.to_vec()),
        batch in 1usize..5,
        interval_ms in prop::sample::select(DIVISORS_OF_1S_MS.to_vec()),
        steal_ms in prop::sample::select(DIVISORS_OF_1S_MS.to_vec()),
        migration_ms in prop::sample::select(DIVISORS_OF_1S_MS.to_vec()),
        crash_ms in 200u64..2_000,
        down_ms in 100u64..1_500,
        brownout_ms in 100u64..2_500,
        stall_ms in 100u64..2_500,
        window_ms in 200u64..2_000,
    ) {
        let w = WorkloadBuilder::from_mix(balanced_mixed_serving_mix())
            .arrival_rate(40.0)
            .slo_multiplier(5.0)
            .num_requests(120)
            .samples_per_variant(4)
            .seed(seed)
            .build();
        let frontend = FrontendConfig {
            admit_batch: batch,
            admit_interval_ns: interval_ms * MS,
            admission: AdmissionConfig::default(),
            steal: Some(StealConfig {
                period_ns: steal_ms * MS,
                ..StealConfig::costed()
            }),
            migration: Some(MigrationConfig {
                period_ns: migration_ms * MS,
                ..MigrationConfig::costed()
            }),
        };
        let faults = Faults { crash_ms, down_ms, brownout_ms, stall_ms, window_ms };
        let run = |w: &Workload, delta: u64| {
            let mut cluster_policy = ClusterPolicy::from_dispatch(dispatch)
                .with_admission(Box::new(SlackLoadShedding::new()));
            let config = pool(policy, frontend, faults.schedule(delta));
            simulate_cluster(w.source(), &mut cluster_policy, &config, NullTracer)
        };
        let delta = k * S;
        let base = run(&w, 0);
        let moved = run(&shifted(&w, delta), delta);
        prop_assert_eq!(unshifted(&moved, delta), base);
    }
}
