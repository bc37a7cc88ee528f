//! Multi-accelerator cluster simulation (`dysta-cluster`).
//!
//! The paper schedules multi-DNN workloads on a *single* time-shared
//! accelerator; this crate opens the scale-out dimension the ROADMAP's
//! production north-star needs: a pool of N accelerator nodes — each a
//! resumable [`dysta_sim::NodeEngine`] running its own scheduling policy
//! — behind the pluggable cluster-control family [`ClusterPolicy`].
//!
//! # The decision surface
//!
//! Every cluster-level decision is made by one of four traits, all
//! consulted through the same [`DispatchContext`] (causal [`NodeView`]
//! snapshots + the profiled LUT + the pool's [`TransferCostConfig`]):
//!
//! * [`AdmissionPolicy`] gates each request at batch-dispatch time —
//!   Admit, Reject (the request never enters any node engine, and no
//!   steal or migration pass can resurrect it), or Degrade (admit in a
//!   relaxed SLO class recorded on the request;
//!   [`ClusterReport::goodput`] still judges the completion against
//!   the original deadline). Three policies ship: [`AdmitAll`] (the
//!   default — bit-exact with the admission-free engine),
//!   [`InfeasibleEverywhere`] (reject iff the projected slack is
//!   negative on every node — stop serving doomed work), and
//!   [`SlackLoadShedding`] (additionally degrade feasible requests
//!   whose best headroom is under
//!   [`AdmissionConfig::min_slack_fraction`] of their SLO).
//! * [`Dispatcher`] routes each admitted request. Five policies ship:
//!   [`RoundRobin`], [`JoinShortestQueue`] (LUT-estimated queued work),
//!   [`LeastLoaded`] (sparse-latency-predictor backlog — the paper's
//!   Algorithm 3 applied at cluster level), [`SparsityAffinity`]
//!   (family-matched routing on heterogeneous Eyeriss+Sanger pools),
//!   and [`EarliestDeadlineFirst`] (deadline-aware routing on projected
//!   slack, charging each node's capacity and mismatch penalty against
//!   the inbound request).
//! * [`StealPolicy`] picks what an idle node pulls from its peers
//!   (default: [`BacklogGainSteal`], the victim/gain rule the PR 3
//!   engine hard-coded, generalized to price the transfer cost into
//!   every prospective move).
//! * [`MigrationPolicy`] gates the periodic rebalance pass (default:
//!   [`BacklogThresholdMigration`]).
//!
//! The event loop in `engine.rs` only *sequences* — sync nodes,
//! snapshot, consult, apply — so new routing/steal/migration behaviors
//! are libraries, not engine patches. [`simulate_cluster`] is the one
//! run function: it serves any [`dysta_workload::RequestSource`] (a
//! materialized workload enters as `workload.source()`) under a
//! [`ClusterPolicy`] bundle (a bare dispatcher enters as
//! [`ClusterPolicy::from_dispatch`] or [`ClusterPolicy::new`]), and
//! reports to a tracer ([`dysta_obs::NullTracer`] for none).
//!
//! # Configuration
//!
//! [`ClusterConfig`] describes the pool: a (possibly heterogeneous)
//! accelerator mix, each node's scheduling policy and `capacity` speed
//! factor (DVFS / binned silicon — a 0.5 node runs everything twice as
//! slow), the serving front-end ([`FrontendConfig`]: admission
//! batching, work stealing, request migration), and the transfer-cost
//! model ([`TransferCostConfig`]: the weight/activation re-fetch price
//! charged on the receiving node per steal or migration). Every node
//! runs the default [`dysta_sim::EngineConfig`] and Dysta
//! hyperparameters, and a request of the foreign model family pays the
//! fixed [`MISMATCH_SLOWDOWN`] (2.5×).
//!
//! Anything beyond a plain default pool goes through the validating
//! [`ClusterBuilder`]; [`ClusterConfig::validate`] re-checks every
//! range invariant once per [`simulate_cluster`] call, so hand-mutated
//! configs cannot reach the engine unvalidated.
//!
//! # Fault injection & recovery
//!
//! [`ClusterConfig`] also carries a [`FaultConfig`]: a deterministic,
//! sim-clock-keyed [`FaultSchedule`] (permanent/transient crashes,
//! brown-out capacity windows, transfer-stall windows) replayed by the
//! event loop exactly like its migrate/steal ticks, plus a
//! [`RecoveryConfig`] governing what the front-end does about it —
//! salvage-and-redispatch of never-started work off crashed nodes with
//! a bounded per-request retry budget, and optional queue-time
//! reneging. Every [`NodeView`] exposes a [`NodeHealth`] so all four
//! policy traits skip or discount sick nodes. [`ServingStats::recovery`]
//! ([`RecoveryStats`]) counts crashes, salvages and retries, and each
//! [`NodeReport`] counts its failed and reneged requests: conservation
//! becomes admitted == completed + failed + reneged, exactly once. An
//! empty schedule is a guaranteed no-op (bit-exact with a fault-free
//! build).
//!
//! [`ClusterReport`] aggregates per-node [`dysta_sim::SimReport`]s into
//! cluster-wide ANTT / SLO-violation / throughput plus per-node
//! utilization, transfer-cost accounting, load imbalance, turnaround
//! percentiles ([`LatencyPercentiles`]: p50/p90/p99), and the front-end's
//! steal/migration/admission statistics ([`ServingStats`]).
//!
//! A cluster of one node behind any dispatcher — with the default
//! front-end, or batching `k = 1` with stealing/migration enabled (no
//! peers means nothing can move) — reproduces the single-node
//! [`dysta_sim::simulate`] results exactly (pinned by this crate's
//! parity tests). The default configuration (free transfers, full
//! capacity) is bit-exact with the PR 3 engine for all four original
//! dispatchers.
//!
//! # Examples
//!
//! ```
//! use dysta_cluster::{simulate_cluster, ClusterConfig, ClusterPolicy, DispatchPolicy};
//! use dysta_core::Policy;
//! use dysta_obs::NullTracer;
//! use dysta_workload::{Scenario, WorkloadBuilder};
//!
//! let workload = WorkloadBuilder::new(Scenario::MultiAttNn)
//!     .num_requests(60)
//!     .samples_per_variant(4)
//!     .seed(7)
//!     .build();
//! let pool = ClusterConfig::heterogeneous(2, 2, Policy::Dysta);
//! let mut policy = ClusterPolicy::from_dispatch(DispatchPolicy::SparsityAffinity);
//! let report = simulate_cluster(workload.source(), &mut policy, &pool, NullTracer);
//! assert_eq!(report.completed_total(), 60);
//! assert!(report.antt() >= 1.0);
//! assert!(report.load_imbalance() >= 1.0);
//! ```
//!
//! Deadline-aware serving on a capacity-heterogeneous pool with costed
//! transfers:
//!
//! ```
//! use dysta_cluster::{
//!     simulate_cluster, ClusterBuilder, ClusterPolicy, DispatchPolicy, FrontendConfig,
//!     TransferCostConfig,
//! };
//! use dysta_core::Policy;
//! use dysta_obs::NullTracer;
//! use dysta_workload::{Scenario, WorkloadBuilder};
//!
//! let workload = WorkloadBuilder::new(Scenario::MultiCnn)
//!     .num_requests(60)
//!     .samples_per_variant(4)
//!     .slo_multiplier(5.0)
//!     .seed(7)
//!     .build();
//! let pool = ClusterBuilder::heterogeneous(2, 2, Policy::Dysta)
//!     .node_capacity(1, 0.5) // one Eyeriss node at half clock
//!     .frontend(FrontendConfig::serving_costed())
//!     .transfer_cost(TransferCostConfig::default_costed())
//!     .build();
//! let mut policy = ClusterPolicy::from_dispatch(DispatchPolicy::EarliestDeadlineFirst);
//! let report = simulate_cluster(workload.source(), &mut policy, &pool, NullTracer);
//! assert_eq!(report.completed_total(), 60);
//! assert_eq!(
//!     report.total_transfer_cost_ns(),
//!     report.nodes().iter().map(|n| n.transfer_fetch_ns).sum::<u64>()
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod dispatch;
mod engine;
mod faults;
mod policy;
mod report;
mod sweep;

pub use config::{
    balanced_mixed_serving_mix, AcceleratorKind, AdmissionConfig, ClusterBuilder, ClusterConfig,
    FrontendConfig, MigrationConfig, NodeConfig, StealConfig, TransferCostConfig,
    MISMATCH_SLOWDOWN,
};
pub use dispatch::{
    DispatchContext, DispatchPolicy, Dispatcher, EarliestDeadlineFirst, JoinShortestQueue,
    LeastLoaded, NodeView, RoundRobin, SparsityAffinity,
};
pub use engine::simulate_cluster;
#[doc(hidden)]
pub use engine::{simulate_cluster_stream, simulate_cluster_stream_with, simulate_cluster_traced};
pub use faults::{
    FaultConfig, FaultEvent, FaultKind, FaultSchedule, NodeHealth, RecoveryConfig, RecoveryStats,
};
pub use policy::{
    AdmissionDecision, AdmissionPolicy, AdmitAll, BacklogGainSteal, BacklogThresholdMigration,
    ClusterPolicy, InfeasibleEverywhere, MigrationPolicy, SlackLoadShedding, StealCandidate,
    StealPolicy,
};
pub use report::{ClusterReport, LatencyPercentiles, NodeReport, ServingStats};
pub use sweep::{SweepGrid, SweepRow, SweepScenario};
