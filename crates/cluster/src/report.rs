//! Cluster-wide aggregation of per-node simulation results.

use dysta_sim::{summarize, CompletedRequest, Metrics, SimReport};

use crate::AcceleratorKind;

/// One node's outcome inside a cluster run.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeReport {
    /// Node id (index into the cluster config).
    pub node_id: usize,
    /// The node's accelerator.
    pub accelerator: AcceleratorKind,
    /// *Admitted* requests initially dispatched to the node by the
    /// admission front-end (full-class and degraded; never rejected
    /// ones). Stealing, migration, and crash salvage move requests after
    /// initial dispatch, so per node `routed + transferred_in -
    /// transferred_out - failed - reneged` equals the requests it
    /// completed; summed across the pool `routed` alone equals the
    /// number of admitted requests (the workload size minus every
    /// rejection).
    pub routed: usize,
    /// Requests the admission policy rejected whose dispatcher pick —
    /// the node that *would* have served them, read through the
    /// side-effect-free peek path — was this node. Rejected requests
    /// never enter any node engine.
    pub rejected: usize,
    /// Requests admitted to this node in the degraded (relaxed-SLO)
    /// class.
    pub degraded: usize,
    /// Requests moved *onto* this node by work stealing or migration.
    pub transferred_in: usize,
    /// Requests moved *off* this node (after initial dispatch, before
    /// starting) by work stealing or migration.
    pub transferred_out: usize,
    /// Weight/activation re-fetch time this node paid for incoming
    /// transfers (ns) — part of `busy_ns`, zero under free transfers.
    pub transfer_fetch_ns: u64,
    /// Admitted requests that *failed* on this node: they were queued or
    /// running here when the node crashed and could not be salvaged
    /// (recovery disabled, retry budget exhausted, or no live node to
    /// re-dispatch to). Zero under an empty [`crate::FaultSchedule`].
    pub failed: usize,
    /// Admitted requests that *reneged* from this node's queue: dropped
    /// by the front-end before starting because their re-projected slack
    /// had gone negative on every live node. Zero unless
    /// [`crate::RecoveryConfig::reneging`] is enabled.
    pub reneged: usize,
    /// Service time the node executed (ns), including
    /// `transfer_fetch_ns`.
    pub busy_ns: u64,
    /// The node's completion record.
    pub report: SimReport,
}

/// What the serving front-end did during one cluster run: admission
/// queueing, work stealing, and request migration, summarized.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServingStats {
    /// Requests pulled by idle nodes from backlogged peers.
    pub steals: u64,
    /// Requests re-dispatched by the periodic rebalance pass.
    pub migrations: u64,
    /// The largest migration count any single request accumulated
    /// (bounded by [`crate::MigrationConfig::max_per_request`]).
    pub max_migrations_single_request: u32,
    /// Summed admission-queue wait of every *admitted* request (ns):
    /// time from arrival to dispatch, 0 under immediate dispatch.
    /// Rejected requests never dispatch and add nothing. A traced run
    /// records each request's wait (the `Admit`/`AdmitDegrade` event's
    /// `a` field) and outcome; the report keeps only this total.
    pub admission_wait_total_ns: u128,
    /// For each degraded admission: the request id and its *original*
    /// SLO in nanoseconds, in decision order. The request runs the
    /// pool under the relaxed deadline; [`ClusterReport::goodput`]
    /// judges its completion against the original recorded here.
    pub degraded_slo_ns: Vec<(u64, u64)>,
    /// What fault injection and recovery did during the run: crashes
    /// seen, requests salvaged off dead nodes, retries applied, and the
    /// executed work lost to crashes (failed and reneged requests are
    /// counted per node). All zero under an empty
    /// [`crate::FaultSchedule`].
    pub recovery: crate::RecoveryStats,
    /// High-water mark of the front-end's live-request table: requests
    /// admitted but not yet observed retired (completed, failed, or
    /// reneged). Bounded by the pool's in-flight backlog — not by the
    /// trace length — and so are the scheduling state behind it (this
    /// table and every node's live-task list). A streamed run's memory is
    /// therefore this live state plus the per-request report floor:
    /// 56 B of [`CompletedRequest`] per completion, and 16 B of
    /// [`ServingStats::degraded_slo_ns`] per degraded admission.
    pub peak_live_requests: usize,
}

/// The p50/p90/p99 turnaround triple — the tail-latency summary the
/// serving front-end reports next to ANTT.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyPercentiles {
    /// Median turnaround (ns).
    pub p50_ns: u64,
    /// 90th-percentile turnaround (ns).
    pub p90_ns: u64,
    /// 99th-percentile turnaround (ns).
    pub p99_ns: u64,
}

/// The full outcome of one cluster simulation.
///
/// Aggregates the paper's evaluation triple (ANTT / SLO violation rate /
/// throughput) over every request regardless of which node served it,
/// plus the cluster-only metrics: per-node utilization, load imbalance,
/// turnaround percentiles, and the serving front-end's steal/migration/
/// admission statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    nodes: Vec<NodeReport>,
    serving: ServingStats,
}

impl ClusterReport {
    /// Assembles a report from per-node results with no front-end
    /// statistics (all serving counters zero).
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty.
    pub fn new(nodes: Vec<NodeReport>) -> Self {
        ClusterReport::with_serving(nodes, ServingStats::default())
    }

    /// Assembles a report including the serving front-end's statistics.
    ///
    /// A report with zero completions is legal — an admission policy
    /// may reject every request of a run — and yields neutral metrics
    /// (ANTT, violation rate, throughput, and load imbalance all 0).
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty.
    pub fn with_serving(nodes: Vec<NodeReport>, serving: ServingStats) -> Self {
        assert!(!nodes.is_empty(), "cluster report needs nodes");
        ClusterReport { nodes, serving }
    }

    /// The serving front-end's steal/migration/admission statistics.
    pub fn serving(&self) -> &ServingStats {
        &self.serving
    }

    /// Nearest-rank percentile of per-request turnaround across every
    /// node.
    ///
    /// **Population: completed requests only.** Rejected requests never
    /// ran and have no turnaround; under a shedding admission policy
    /// the tail reported here is conditioned on admission (compare
    /// against [`ClusterReport::offered_total`] to see how much of the
    /// stream it covers).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn turnaround_percentile_ns(&self, p: f64) -> u64 {
        summarize(self.completed(), [p]).turnaround_ns[0]
    }

    /// The p50/p90/p99 turnaround triple.
    ///
    /// **Population: completed requests only** — same caveat as
    /// [`ClusterReport::turnaround_percentile_ns`].
    pub fn latency_percentiles(&self) -> LatencyPercentiles {
        let [p50_ns, p90_ns, p99_ns] =
            summarize(self.completed(), [50.0, 90.0, 99.0]).turnaround_ns;
        LatencyPercentiles {
            p50_ns,
            p90_ns,
            p99_ns,
        }
    }

    /// Per-node outcomes, in node-id order.
    pub fn nodes(&self) -> &[NodeReport] {
        &self.nodes
    }

    /// Iterates every completed request across all nodes.
    pub fn completed(&self) -> impl Iterator<Item = &CompletedRequest> {
        self.nodes.iter().flat_map(|n| n.report.completed().iter())
    }

    /// Total completed requests.
    pub fn completed_total(&self) -> usize {
        self.nodes.iter().map(|n| n.report.completed().len()).sum()
    }

    /// Requests the admission policy turned away at the front-end door
    /// (sum of the per-node [`NodeReport::rejected`] counters; 0 under
    /// [`crate::AdmitAll`]).
    pub fn rejected_total(&self) -> usize {
        self.nodes.iter().map(|n| n.rejected).sum()
    }

    /// Requests admitted in the degraded (relaxed-SLO) class (sum of
    /// the per-node [`NodeReport::degraded`] counters).
    pub fn degraded_total(&self) -> usize {
        self.nodes.iter().map(|n| n.degraded).sum()
    }

    /// Requests the front-end admitted into the pool — full-class plus
    /// degraded, i.e. the sum of the per-node `routed` counters. The
    /// serving conservation invariant is stated over these: per node
    /// `routed + transferred_in − transferred_out − failed − reneged
    /// == completed`, and summed across the pool `admitted_total ==
    /// completed_total + failed_total + reneged_total` once the pool
    /// drains — every admitted request is accounted exactly once, even
    /// under crashes. With an empty [`crate::FaultSchedule`] and
    /// reneging off the last two terms are zero and this collapses to
    /// the fault-free `admitted_total == completed_total`.
    pub fn admitted_total(&self) -> usize {
        self.nodes.iter().map(|n| n.routed).sum()
    }

    /// Admitted requests lost to node crashes (sum of the per-node
    /// [`NodeReport::failed`] counters; 0 under an empty
    /// [`crate::FaultSchedule`]). A failed request counts in
    /// [`ClusterReport::admitted_total`] and
    /// [`ClusterReport::offered_total`] but never completes, so it
    /// weighs down [`ClusterReport::goodput_rate`] automatically.
    pub fn failed_total(&self) -> usize {
        self.nodes.iter().map(|n| n.failed).sum()
    }

    /// Admitted requests dropped from a queue by reneging (sum of the
    /// per-node [`NodeReport::reneged`] counters; 0 unless
    /// [`crate::RecoveryConfig::reneging`] is on). Like failures they
    /// stay in the offered/admitted populations without completing.
    pub fn reneged_total(&self) -> usize {
        self.nodes.iter().map(|n| n.reneged).sum()
    }

    /// The run's fault-injection and recovery accounting
    /// ([`crate::RecoveryStats`]) — shorthand for
    /// `self.serving().recovery`.
    pub fn recovery(&self) -> &crate::RecoveryStats {
        &self.serving.recovery
    }

    /// Every request the front-end saw: admitted (full-class plus
    /// degraded) plus rejected. This is the denominator population for
    /// offered-stream rates such as [`ClusterReport::goodput_rate`];
    /// the latency summaries ([`ClusterReport::turnaround_percentile_ns`],
    /// [`ClusterReport::mean_admission_wait_ns`]) cover only the admitted
    /// subset.
    pub fn offered_total(&self) -> usize {
        self.admitted_total() + self.rejected_total()
    }

    /// Mean admission-queue wait in nanoseconds: the summed wait over
    /// [`ClusterReport::admitted_total`] (0 when nothing was admitted).
    ///
    /// **Population: admitted requests only.** Rejected requests never
    /// dispatch and contribute no wait, so under a shedding admission
    /// policy this mean describes the survivors, not the offered
    /// stream.
    pub fn mean_admission_wait_ns(&self) -> f64 {
        match self.admitted_total() {
            0 => 0.0,
            admitted => self.serving.admission_wait_total_ns as f64 / admitted as f64,
        }
    }

    /// Cluster ANTT: the mean normalized turnaround over every request
    /// served anywhere in the pool (0 when nothing completed).
    pub fn antt(&self) -> f64 {
        self.metrics().antt
    }

    /// Cluster SLO violation rate in `[0, 1]`, over the requests the
    /// pool actually served — a degraded admission is judged against
    /// its relaxed deadline here (see [`ClusterReport::goodput`] for
    /// the original-SLO view), and a rejected request is no violation
    /// because it was never served (0 when nothing completed).
    pub fn violation_rate(&self) -> f64 {
        self.metrics().violation_rate
    }

    /// Goodput: completions that met their *original* SLO. For a
    /// degraded admission the node-side record carries the relaxed
    /// deadline, so this looks the original up in
    /// [`ServingStats::degraded_slo_ns`] — a degraded request that
    /// finished within its relaxed class but past its requested
    /// deadline counts toward throughput and not toward goodput.
    pub fn goodput(&self) -> usize {
        // One map build per call keeps this O(completed + degraded)
        // instead of a per-completion scan of the degraded list.
        let original: std::collections::HashMap<u64, u64> =
            self.serving.degraded_slo_ns.iter().copied().collect();
        self.completed()
            .filter(|c| {
                let original_slo = original.get(&c.id).copied().unwrap_or(c.slo_ns);
                c.completion_ns <= c.arrival_ns.saturating_add(original_slo)
            })
            .count()
    }

    /// Goodput as a fraction of the requests *offered* to the pool
    /// ([`ClusterReport::offered_total`]) — so shedding work can never
    /// inflate it (0 when nothing was offered).
    pub fn goodput_rate(&self) -> f64 {
        let offered = self.offered_total();
        if offered == 0 {
            return 0.0;
        }
        self.goodput() as f64 / offered as f64
    }

    /// Cluster throughput: completions per second of the observation
    /// window, first arrival to last completion across all nodes.
    pub fn throughput_inf_s(&self) -> f64 {
        self.metrics().throughput_inf_s
    }

    /// The evaluation triple, cluster-wide, summed over the nodes in
    /// order and each node's completions in order.
    pub fn metrics(&self) -> Metrics {
        summarize(self.completed(), []).metrics
    }

    /// Per-node utilization: each node's busy time over the shared
    /// observation window, in `[0, 1]` (a node can idle-wait while the
    /// window runs, never exceed it).
    pub fn per_node_utilization(&self) -> Vec<f64> {
        let span = summarize(self.completed(), []).span_ns.max(1) as f64;
        self.nodes
            .iter()
            .map(|n| (n.busy_ns as f64 / span).min(1.0))
            .collect()
    }

    /// Total weight/activation re-fetch time the pool paid for steals
    /// and migrations (ns): the sum of the per-node
    /// [`NodeReport::transfer_fetch_ns`] entries, zero under free
    /// transfers.
    pub fn total_transfer_cost_ns(&self) -> u64 {
        self.nodes.iter().map(|n| n.transfer_fetch_ns).sum()
    }

    /// Load imbalance: the busiest node's service time over the mean —
    /// 1.0 is a perfectly balanced pool, and the node count means one
    /// node did all the work. Defined as 0.0 for an all-idle pool (zero mean
    /// busy time would otherwise divide to NaN): no work means no
    /// imbalance, and the 0 is distinguishable from a genuinely
    /// balanced pool's 1.0.
    pub fn load_imbalance(&self) -> f64 {
        let busy: Vec<f64> = self.nodes.iter().map(|n| n.busy_ns as f64).collect();
        let mean = busy.iter().sum::<f64>() / busy.len() as f64;
        if mean <= 0.0 {
            0.0
        } else {
            busy.iter().cloned().fold(0.0f64, f64::max) / mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dysta_models::ModelId;
    use dysta_sparsity::SparsityPattern;
    use dysta_trace::SparseModelSpec;

    fn completion(id: u64, arrival: u64, completion: u64, isolated: u64) -> CompletedRequest {
        CompletedRequest {
            id,
            spec: SparseModelSpec::new(ModelId::MobileNet, SparsityPattern::Dense, 0.0),
            arrival_ns: arrival,
            completion_ns: completion,
            isolated_ns: isolated,
            slo_ns: u64::MAX / 2,
        }
    }

    fn node(id: usize, completed: Vec<CompletedRequest>, busy_ns: u64) -> NodeReport {
        NodeReport {
            node_id: id,
            accelerator: AcceleratorKind::EyerissV2,
            routed: completed.len(),
            rejected: 0,
            degraded: 0,
            transferred_in: 0,
            transferred_out: 0,
            transfer_fetch_ns: 0,
            failed: 0,
            reneged: 0,
            busy_ns,
            report: SimReport::new(completed, 0, 0),
        }
    }

    #[test]
    fn antt_spans_all_nodes() {
        // NTT 2.0 on node 0, NTT 4.0 on node 1 -> cluster ANTT 3.0.
        let r = ClusterReport::new(vec![
            node(0, vec![completion(0, 0, 20, 10)], 10),
            node(1, vec![completion(1, 0, 40, 10)], 10),
        ]);
        assert!((r.antt() - 3.0).abs() < 1e-12);
        assert_eq!(r.completed_total(), 2);
    }

    #[test]
    fn idle_nodes_are_tolerated_and_show_in_imbalance() {
        let r = ClusterReport::new(vec![
            node(0, vec![completion(0, 0, 20, 10)], 20),
            node(1, Vec::new(), 0),
        ]);
        assert_eq!(r.completed_total(), 1);
        // One node did everything: imbalance = max/mean = 20/10.
        assert!((r.load_imbalance() - 2.0).abs() < 1e-12);
        let util = r.per_node_utilization();
        assert!(util[0] > 0.0);
        assert_eq!(util[1], 0.0);
    }

    #[test]
    fn throughput_uses_cluster_window() {
        let r = ClusterReport::new(vec![
            node(0, vec![completion(0, 0, 1_000_000_000, 10)], 10),
            node(1, vec![completion(1, 500_000_000, 2_000_000_000, 10)], 10),
        ]);
        // 2 completions over the 2-second window.
        assert!((r.throughput_inf_s() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_span_window_yields_zero_throughput_not_inf() {
        // A run can complete work over a zero-width observation window
        // (every completion at its own arrival instant — e.g. one
        // zero-layer request, or all completions at one timestamp).
        // `completions / 0 s` must pin to 0.0, never +inf or NaN,
        // matching the empty-run convention above.
        let r = ClusterReport::new(vec![
            node(0, vec![completion(0, 5, 5, 10)], 0),
            node(1, vec![completion(1, 5, 5, 10)], 0),
        ]);
        assert_eq!(summarize(r.completed(), []).span_ns, 0);
        assert_eq!(r.completed_total(), 2);
        assert_eq!(r.throughput_inf_s(), 0.0);
        assert!(r.throughput_inf_s().is_finite());
        assert!(r.metrics().throughput_inf_s.is_finite());
    }

    #[test]
    fn empty_traffic_run_yields_neutral_metrics() {
        // An admission policy may reject every request: the all-idle
        // report is legal and every metric is neutral — in particular
        // load_imbalance is 0.0 (it used to divide max busy by the
        // zero mean), not NaN/inf.
        let mut rejecting = node(0, Vec::new(), 0);
        rejecting.rejected = 5;
        let r = ClusterReport::new(vec![rejecting, node(1, Vec::new(), 0)]);
        assert_eq!(r.completed_total(), 0);
        assert_eq!(r.admitted_total(), 0);
        assert_eq!(r.rejected_total(), 5);
        assert_eq!(r.offered_total(), 5);
        assert_eq!(r.load_imbalance(), 0.0);
        assert!(r.load_imbalance().is_finite());
        assert_eq!(r.antt(), 0.0);
        assert_eq!(r.violation_rate(), 0.0);
        assert_eq!(r.throughput_inf_s(), 0.0);
        assert_eq!(r.goodput(), 0);
        assert_eq!(r.goodput_rate(), 0.0);
        assert_eq!(r.turnaround_percentile_ns(99.0), 0);
        assert_eq!(r.mean_admission_wait_ns(), 0.0);
    }

    #[test]
    fn goodput_judges_degraded_completions_against_their_original_slo() {
        // Request 1 was degraded: it runs the pool with a relaxed SLO
        // of 100 ns (meets it, so it is no node-side violation) but its
        // original class was 15 ns, which its completion at 40 missed.
        let on_time = CompletedRequest {
            slo_ns: 25,
            ..completion(0, 0, 20, 10)
        };
        let degraded_late = CompletedRequest {
            slo_ns: 100,
            ..completion(1, 0, 40, 10)
        };
        let mut n0 = node(0, vec![on_time, degraded_late], 50);
        n0.degraded = 1;
        let serving = ServingStats {
            degraded_slo_ns: vec![(1, 15)],
            ..ServingStats::default()
        };
        let r = ClusterReport::with_serving(vec![n0], serving);
        assert_eq!(r.violation_rate(), 0.0, "relaxed class was met");
        assert_eq!(r.goodput(), 1, "original class was not");
        assert_eq!(r.degraded_total(), 1);
        assert!((r.goodput_rate() - 0.5).abs() < 1e-12);
        // Rejections widen the goodput denominator: shedding can never
        // inflate the rate.
        let mut shed = r.clone();
        shed.nodes[0].rejected = 2;
        assert_eq!(shed.offered_total(), 4);
        assert!((shed.goodput_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn turnaround_percentiles_match_hand_computation() {
        // Turnarounds 10, 20, 30, 40 ns across two nodes.
        let r = ClusterReport::new(vec![
            node(
                0,
                vec![completion(0, 0, 10, 5), completion(1, 0, 30, 5)],
                40,
            ),
            node(
                1,
                vec![completion(2, 0, 20, 5), completion(3, 0, 40, 5)],
                60,
            ),
        ]);
        assert_eq!(r.turnaround_percentile_ns(50.0), 20);
        assert_eq!(r.turnaround_percentile_ns(90.0), 40);
        let p = r.latency_percentiles();
        assert_eq!((p.p50_ns, p.p90_ns, p.p99_ns), (20, 40, 40));
    }

    #[test]
    fn single_request_percentiles_collapse_to_its_turnaround() {
        let r = ClusterReport::new(vec![node(0, vec![completion(0, 5, 35, 10)], 30)]);
        let p = r.latency_percentiles();
        assert_eq!((p.p50_ns, p.p90_ns, p.p99_ns), (30, 30, 30));
    }

    #[test]
    fn default_serving_stats_are_neutral() {
        let r = ClusterReport::new(vec![node(0, vec![completion(0, 0, 10, 5)], 10)]);
        assert_eq!(r.serving().steals, 0);
        assert_eq!(r.serving().migrations, 0);
        assert_eq!(r.mean_admission_wait_ns(), 0.0);
    }

    #[test]
    fn admission_wait_summary_edges_are_total() {
        // A run that admitted nothing: the mean is 0, never NaN.
        let empty = ClusterReport::new(vec![node(0, Vec::new(), 0)]);
        assert_eq!(empty.mean_admission_wait_ns(), 0.0);
        assert!(empty.mean_admission_wait_ns().is_finite());
        // Three admitted requests waited 60 ns between them.
        let mut n0 = node(0, Vec::new(), 0);
        n0.routed = 3;
        let some = ClusterReport::with_serving(
            vec![n0],
            ServingStats {
                admission_wait_total_ns: 60,
                ..ServingStats::default()
            },
        );
        assert!((some.mean_admission_wait_ns() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn transfer_cost_total_sums_the_per_node_fetches() {
        // Node 0 paid 5 ns of fetch cost and node 1 paid 7 ns.
        let mut n0 = node(0, vec![completion(0, 0, 20, 10)], 10);
        n0.transfer_fetch_ns = 5;
        let mut n1 = node(1, vec![completion(1, 0, 40, 10)], 17);
        n1.transfer_fetch_ns = 7;
        let r = ClusterReport::new(vec![n0, n1]);
        assert_eq!(r.total_transfer_cost_ns(), 12);
    }

    #[test]
    fn failed_and_reneged_totals_restate_conservation() {
        // Node 0 admitted 3: completed 1, failed 1, reneged 1. The pool
        // totals balance (admitted == completed + failed + reneged) and
        // the goodput denominator keeps the lost requests.
        let mut n0 = node(0, vec![completion(0, 0, 10, 5)], 10);
        n0.routed = 3;
        n0.failed = 1;
        n0.reneged = 1;
        let serving = ServingStats {
            recovery: crate::RecoveryStats {
                crashes: 1,
                salvaged: 1,
                lost_busy_ns: 42,
                ..crate::RecoveryStats::default()
            },
            ..ServingStats::default()
        };
        let r = ClusterReport::with_serving(vec![n0], serving);
        assert_eq!(r.admitted_total(), 3);
        assert_eq!(r.failed_total(), 1);
        assert_eq!(r.reneged_total(), 1);
        assert_eq!(
            r.admitted_total(),
            r.completed_total() + r.failed_total() + r.reneged_total()
        );
        assert_eq!(r.offered_total(), 3);
        assert!((r.goodput_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.recovery().crashes, 1);
        assert_eq!(r.recovery().lost_busy_ns, 42);
        assert_eq!(r.recovery().salvaged, 1);
    }

    #[test]
    fn admission_wait_summary() {
        let serving = ServingStats {
            steals: 3,
            migrations: 1,
            max_migrations_single_request: 1,
            admission_wait_total_ns: 60,
            ..ServingStats::default()
        };
        // Four admitted requests waited 0, 10, 20 and 30 ns.
        let mut n0 = node(0, vec![completion(0, 0, 10, 5)], 10);
        n0.routed = 4;
        let r = ClusterReport::with_serving(vec![n0], serving);
        assert!((r.mean_admission_wait_ns() - 15.0).abs() < 1e-12);
    }
}
