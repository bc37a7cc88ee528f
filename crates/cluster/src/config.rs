//! Cluster topology configuration and the validating [`ClusterBuilder`].
//!
//! Every knob of the pool — node list, per-node policy and capacity,
//! serving front-end, transfer cost model, faults — is plain data on
//! [`ClusterConfig`]; range validation is centralized in
//! [`ClusterConfig::validate`], which [`ClusterBuilder::build`] and
//! [`crate::simulate_cluster`] both call, so a hand-mutated config can
//! never reach the engine unchecked.

pub use dysta_accel::AcceleratorKind;
use dysta_core::Policy;
use dysta_models::ModelFamily;
use dysta_trace::SparseModelSpec;
use dysta_workload::Scenario;

/// One node of the cluster: an accelerator, the scheduling policy it
/// runs, and its speed. Every node runs the default
/// [`dysta_sim::EngineConfig`] and Dysta hyperparameters, and pays
/// [`MISMATCH_SLOWDOWN`] for a foreign-family request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeConfig {
    /// Installed accelerator.
    pub accelerator: AcceleratorKind,
    /// Node-local scheduling policy.
    pub policy: Policy,
    /// Node speed factor in `(0, 1]` relative to the profiled baseline
    /// (DVFS state, binned silicon, an older accelerator revision): a
    /// `0.5` node executes every layer in twice its profiled latency.
    /// The capacity divides into the service-time scale, so the
    /// effective scale a request pays is the mismatch penalty over
    /// `capacity`. Traces are profiled at full speed, so capacities
    /// above 1 are rejected.
    pub capacity: f64,
}

impl NodeConfig {
    /// A full-speed node.
    pub fn new(accelerator: AcceleratorKind, policy: Policy) -> Self {
        NodeConfig {
            accelerator,
            policy,
            capacity: 1.0,
        }
    }

    /// The full service-time scale a request of `family` pays on this
    /// node: the mismatch penalty (1 on the native family) divided by
    /// the node's capacity.
    pub fn effective_scale(&self, family: ModelFamily) -> f64 {
        effective_scale(self.accelerator.serves(family), self.capacity)
    }

    /// Panics when the capacity is out of range.
    fn validate(&self, id: usize) {
        assert!(
            self.capacity > 0.0 && self.capacity <= 1.0,
            "node {id}: capacity must be in (0, 1]"
        );
    }
}

/// The mismatch penalty: a sparse model on the wrong accelerator falls
/// back to dense-equivalent execution of its dynamic layers, which the
/// Phase-1 traces put at roughly 2–3× the native latency.
pub const MISMATCH_SLOWDOWN: f64 = 2.5;

/// The one definition of the service-time scale: the family-mismatch
/// penalty over the node capacity. [`NodeConfig::effective_scale`]
/// (what the engine charges) and [`crate::NodeView::service_scale`]
/// (what policies price with) both resolve through here, so the two
/// can never drift apart.
pub(crate) fn effective_scale(native: bool, capacity: f64) -> f64 {
    let mismatch = if native { 1.0 } else { MISMATCH_SLOWDOWN };
    mismatch / capacity
}

/// The mixed CNN+AttNN serving mix for heterogeneous pools, with load
/// balanced across the pool halves: a Sanger node sustains roughly 10×
/// an Eyeriss-V2 node's request rate (30 vs 3 samples/s at the paper's
/// operating points), so AttNN requests outnumber CNN ones 10:1. The
/// CNN mix weights sum to 4.0; scaling each AttNN weight by 40/3
/// brings the AttNN total to 40.0.
///
/// Shared by the `cluster_sweep` bench, the `cluster_scaling` example,
/// and the dispatch-ordering tests so they all exercise one traffic
/// definition.
pub fn balanced_mixed_serving_mix() -> Vec<(SparseModelSpec, f64)> {
    let mut mix = Scenario::MultiCnn.mix();
    mix.extend(
        Scenario::MultiAttNn
            .mix()
            .into_iter()
            .map(|(spec, w)| (spec, w * 40.0 / 3.0)),
    );
    mix
}

/// The price of re-homing a queued request onto another node: the
/// weights and any staged activations have to be re-fetched across the
/// interconnect before the receiving accelerator can run it.
///
/// The model is `base_ns + compute_fraction × avg_isolated_latency`:
/// a flat per-move interconnect/setup cost plus a variable part that
/// tracks the request's LUT-estimated compute (weight volume correlates
/// with model compute across the zoo). The cost is charged on the
/// *receiving* node by [`dysta_sim::NodeEngine::accept_transfer`] — it
/// delays the node's clock and counts as busy time.
///
/// The default is [`TransferCostConfig::FREE`], which reproduces the
/// historical free-transfer behavior bit-exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferCostConfig {
    /// Flat per-move cost in nanoseconds (interconnect setup, descriptor
    /// rewrite).
    pub base_ns: u64,
    /// Variable part: fraction of the request's LUT-estimated isolated
    /// latency added on top of `base_ns`. Must be finite and `>= 0`.
    pub compute_fraction: f64,
}

impl TransferCostConfig {
    /// Free transfers — the historical behavior, and the default.
    pub const FREE: TransferCostConfig = TransferCostConfig {
        base_ns: 0,
        compute_fraction: 0.0,
    };

    /// The workspace's default *costed* model: 1 ms of flat interconnect
    /// cost plus 2% of the request's estimated compute (a 300 ms CNN
    /// request pays ~7 ms — noticeable against marginal moves, cheap
    /// against draining a deep queue).
    pub fn default_costed() -> Self {
        TransferCostConfig {
            base_ns: 1_000_000,
            compute_fraction: 0.02,
        }
    }

    /// True when every transfer is free (no accounting, bit-exact with
    /// the pre-cost engine).
    pub fn is_free(&self) -> bool {
        self.base_ns == 0 && self.compute_fraction == 0.0
    }

    /// The estimated cost of moving one request whose LUT-estimated
    /// isolated latency is `avg_isolated_ns`
    /// ([`dysta_core::ModelInfo::avg_latency_ns`]).
    pub fn estimate_ns(&self, avg_isolated_ns: f64) -> u64 {
        self.base_ns + dysta_core::round_ns(self.compute_fraction * avg_isolated_ns)
    }

    fn validate(&self) {
        assert!(
            self.compute_fraction >= 0.0 && self.compute_fraction.is_finite(),
            "transfer-cost compute fraction must be finite and >= 0"
        );
    }
}

impl Default for TransferCostConfig {
    fn default() -> Self {
        TransferCostConfig::FREE
    }
}

/// Work-stealing knobs for the serving front-end.
///
/// Every `period_ns` of simulated time, each *idle* (fully drained) node
/// may pull one queued, never-started request from a backlogged peer
/// (victim and candidate choice belong to the pluggable
/// [`crate::StealPolicy`]). A steal only happens when the victim's
/// LUT-estimated backlog exceeds `min_imbalance` times the pool-mean
/// backlog — on a balanced pool nothing moves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StealConfig {
    /// Minimum victim-backlog over pool-mean-backlog ratio before an
    /// idle node steals (≥ 1; 1 steals at any imbalance).
    pub min_imbalance: f64,
    /// Sim-time between idle checks, in nanoseconds (> 0). Bounds how
    /// long a node can sit idle before it looks for work.
    pub period_ns: u64,
}

impl StealConfig {
    /// Thresholds re-tuned for nonzero transfer costs: with every move
    /// paying a re-fetch, stealing waits for a deeper imbalance (2×
    /// pool mean instead of 1.5×) so marginal steals whose gain the
    /// fetch would eat never fire.
    pub fn costed() -> Self {
        StealConfig {
            min_imbalance: 2.0,
            ..StealConfig::default()
        }
    }
}

impl Default for StealConfig {
    fn default() -> Self {
        StealConfig {
            min_imbalance: 1.5,
            period_ns: 10_000_000,
        }
    }
}

/// Request-migration knobs for the serving front-end.
///
/// Every `period_ns` of simulated time, nodes whose LUT-estimated
/// backlog exceeds `min_imbalance` times the pool mean get their queued,
/// never-started requests re-offered to the dispatcher; whether a
/// proposed move is applied belongs to the pluggable
/// [`crate::MigrationPolicy`]. Each request migrates at most
/// `max_per_request` times, so a request can never ping-pong
/// indefinitely.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationConfig {
    /// Minimum node-backlog over pool-mean-backlog ratio before a node's
    /// queue is rebalanced (≥ 1).
    pub min_imbalance: f64,
    /// Sim-time between rebalance passes, in nanoseconds (> 0).
    pub period_ns: u64,
    /// Hard cap on how many times one request may be re-dispatched.
    pub max_per_request: u32,
}

impl MigrationConfig {
    /// Thresholds re-tuned for nonzero transfer costs: rebalance only
    /// clearly-behind nodes (2× pool mean) and allow each request one
    /// costed move instead of two — a second re-fetch almost never pays
    /// for itself.
    pub fn costed() -> Self {
        MigrationConfig {
            min_imbalance: 2.0,
            max_per_request: 1,
            ..MigrationConfig::default()
        }
    }
}

impl Default for MigrationConfig {
    fn default() -> Self {
        MigrationConfig {
            min_imbalance: 1.5,
            period_ns: 50_000_000,
            max_per_request: 2,
        }
    }
}

/// Admission-control knobs for the serving front-end — the numeric
/// side of the pluggable [`crate::AdmissionPolicy`] (the same split
/// [`StealConfig`] / [`crate::StealPolicy`] use): the policy decides
/// Admit / Reject / Degrade, this config parameterizes the thresholds
/// it decides with.
///
/// The defaults are inert under [`crate::AdmitAll`] (which never reads
/// them), so a default front-end stays bit-exact with the
/// admission-free engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Required deadline headroom for a full-class admission, as a
    /// fraction of the request's SLO: load-shedding policies degrade or
    /// reject a request whose best projected slack across the pool is
    /// below `min_slack_fraction × slo_ns`. Must be finite and `>= 0`
    /// (0 sheds only infeasible-everywhere requests).
    pub min_slack_fraction: f64,
    /// SLO relaxation applied to a degraded admission: the request
    /// enters the pool with `slo_ns × degrade_slo_multiplier`
    /// (saturating), and its completion is judged against the *relaxed*
    /// deadline node-side while [`crate::ClusterReport::goodput`] keeps
    /// judging it against the original. Must be finite and `>= 1`.
    pub degrade_slo_multiplier: f64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            min_slack_fraction: 0.25,
            degrade_slo_multiplier: 4.0,
        }
    }
}

impl AdmissionConfig {
    fn validate(&self) {
        assert!(
            self.min_slack_fraction >= 0.0 && self.min_slack_fraction.is_finite(),
            "admission slack fraction must be finite and >= 0"
        );
        assert!(
            self.degrade_slo_multiplier >= 1.0 && self.degrade_slo_multiplier.is_finite(),
            "admission degrade multiplier must be >= 1"
        );
    }
}

/// The cluster-level serving front-end: admission batching plus the
/// optional work-stealing and request-migration mechanisms.
///
/// The default configuration (`admit_batch == 1`, no timer, stealing and
/// migration off) reproduces pure arrival-time dispatch — a 1-node pool
/// then matches [`dysta_sim::simulate`] bit-exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontendConfig {
    /// Admission batch size `k` (≥ 1): arrivals queue at the front-end
    /// and the whole queue is dispatched once `k` requests are waiting.
    pub admit_batch: usize,
    /// Admission timer `Δt` in nanoseconds: a non-empty admission queue
    /// is flushed `Δt` after its oldest request arrived even if the
    /// batch never fills. 0 disables the timer (a final partial batch
    /// then flushes at its newest arrival).
    pub admit_interval_ns: u64,
    /// Admission-control thresholds, read by the pool's
    /// [`crate::AdmissionPolicy`] at batch-dispatch time (inert under
    /// the default [`crate::AdmitAll`]).
    pub admission: AdmissionConfig,
    /// Work stealing, when enabled.
    pub steal: Option<StealConfig>,
    /// Request migration, when enabled.
    pub migration: Option<MigrationConfig>,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        FrontendConfig {
            admit_batch: 1,
            admit_interval_ns: 0,
            admission: AdmissionConfig::default(),
            steal: None,
            migration: None,
        }
    }
}

impl FrontendConfig {
    /// The full serving stack with default knobs: stealing and migration
    /// on, immediate admission. Tuned for free transfers; combine with
    /// [`FrontendConfig::serving_costed`] when a transfer cost is set.
    pub fn serving() -> Self {
        FrontendConfig {
            steal: Some(StealConfig::default()),
            migration: Some(MigrationConfig::default()),
            ..FrontendConfig::default()
        }
    }

    /// The full serving stack with thresholds re-tuned for nonzero
    /// transfer costs ([`StealConfig::costed`],
    /// [`MigrationConfig::costed`]).
    pub fn serving_costed() -> Self {
        FrontendConfig {
            steal: Some(StealConfig::costed()),
            migration: Some(MigrationConfig::costed()),
            ..FrontendConfig::default()
        }
    }

    /// Validates the knob ranges (part of [`ClusterConfig::validate`]).
    ///
    /// # Panics
    ///
    /// Panics on a zero batch, an out-of-range admission knob
    /// (negative slack fraction, degrade multiplier below 1), a zero
    /// steal/migration period, or an imbalance threshold below 1.
    pub fn validate(&self) {
        assert!(self.admit_batch >= 1, "admission batch must be at least 1");
        self.admission.validate();
        if let Some(s) = &self.steal {
            assert!(s.period_ns > 0, "steal period must be positive");
            assert!(
                s.min_imbalance >= 1.0 && s.min_imbalance.is_finite(),
                "steal imbalance threshold must be >= 1"
            );
        }
        if let Some(m) = &self.migration {
            assert!(m.period_ns > 0, "migration period must be positive");
            assert!(
                m.min_imbalance >= 1.0 && m.min_imbalance.is_finite(),
                "migration imbalance threshold must be >= 1"
            );
        }
    }
}

/// The whole cluster: an ordered list of nodes, the serving front-end,
/// and the transfer-cost model.
///
/// Construct simple pools with [`ClusterConfig::homogeneous`] /
/// [`ClusterConfig::heterogeneous`]; anything configured beyond the
/// defaults goes through the validating [`ClusterBuilder`]. Fields stay
/// public for inspection; whatever route a config takes,
/// [`crate::simulate_cluster`] re-validates it once up front.
///
/// # Examples
///
/// ```
/// use dysta_cluster::{AcceleratorKind, ClusterBuilder, ClusterConfig, FrontendConfig};
/// use dysta_core::Policy;
///
/// let pool = ClusterConfig::homogeneous(4, AcceleratorKind::EyerissV2, Policy::Dysta);
/// assert_eq!(pool.len(), 4);
/// let het = ClusterBuilder::heterogeneous(2, 2, Policy::Dysta)
///     .frontend(FrontendConfig::serving())
///     .build();
/// assert_eq!(het.len(), 4);
/// assert!(het.frontend.steal.is_some());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Per-node configurations; node ids are indices into this list.
    pub nodes: Vec<NodeConfig>,
    /// Cluster-level serving front-end (admission batching, work
    /// stealing, request migration). Defaults to pure arrival-time
    /// dispatch with both mechanisms off.
    pub frontend: FrontendConfig,
    /// The weight/activation re-fetch cost charged per steal or
    /// migration. Defaults to [`TransferCostConfig::FREE`].
    pub transfer_cost: TransferCostConfig,
    /// Deterministic fault injection and recovery behavior. Defaults to
    /// an empty schedule with salvage-and-redispatch enabled — inert
    /// until faults are actually scheduled or reneging is switched on.
    pub faults: crate::faults::FaultConfig,
}

impl ClusterConfig {
    /// A cluster of identical full-speed nodes with the default
    /// front-end and free transfers.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn homogeneous(n: usize, accelerator: AcceleratorKind, policy: Policy) -> Self {
        ClusterBuilder::homogeneous(n, accelerator, policy).build()
    }

    /// A mixed pool: `eyeriss` CNN nodes followed by `sanger` attention
    /// nodes, all running `policy`, with the default front-end and free
    /// transfers.
    ///
    /// # Panics
    ///
    /// Panics if both counts are zero.
    pub fn heterogeneous(eyeriss: usize, sanger: usize, policy: Policy) -> Self {
        ClusterBuilder::heterogeneous(eyeriss, sanger, policy).build()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the cluster has no nodes (never constructible through
    /// the builder).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Checks every range invariant of the pool in one place: node list
    /// non-empty, per-node capacity in range, front-end knobs valid,
    /// transfer-cost model finite, fault schedule in range.
    /// [`ClusterBuilder::build`] and [`crate::simulate_cluster`] both
    /// call this, so a hand-assembled or field-mutated config cannot
    /// reach the engine unvalidated.
    ///
    /// # Panics
    ///
    /// Panics with a field-specific message on the first violation.
    pub fn validate(&self) {
        assert!(!self.nodes.is_empty(), "cluster needs at least one node");
        for (id, node) in self.nodes.iter().enumerate() {
            node.validate(id);
        }
        self.frontend.validate();
        self.transfer_cost.validate();
        if let Err(msg) = self.faults.validate(self.nodes.len()) {
            panic!("{msg}");
        }
    }
}

/// Validating builder for [`ClusterConfig`] — the one construction path
/// for anything beyond a plain default pool.
///
/// Setters only record values; every range check runs once in
/// [`ClusterBuilder::build`] (and again in [`crate::simulate_cluster`],
/// guarding configs assembled or mutated by hand).
///
/// # Examples
///
/// ```
/// use dysta_cluster::{AcceleratorKind, ClusterBuilder, FrontendConfig, TransferCostConfig};
/// use dysta_core::Policy;
///
/// let pool = ClusterBuilder::heterogeneous(2, 2, Policy::Dysta)
///     .node_capacity(1, 0.5) // one Eyeriss node at half clock
///     .frontend(FrontendConfig::serving_costed())
///     .transfer_cost(TransferCostConfig::default_costed())
///     .build();
/// assert_eq!(pool.nodes[1].capacity, 0.5);
/// assert!(!pool.transfer_cost.is_free());
/// ```
#[derive(Debug, Clone)]
pub struct ClusterBuilder {
    nodes: Vec<NodeConfig>,
    frontend: FrontendConfig,
    transfer_cost: TransferCostConfig,
    faults: crate::faults::FaultConfig,
}

impl ClusterBuilder {
    /// Starts from `n` identical full-speed nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn homogeneous(n: usize, accelerator: AcceleratorKind, policy: Policy) -> Self {
        assert!(n > 0, "cluster needs at least one node");
        ClusterBuilder::from_nodes(vec![NodeConfig::new(accelerator, policy); n])
    }

    /// Starts from `eyeriss` CNN nodes followed by `sanger` attention
    /// nodes, all running `policy`.
    ///
    /// # Panics
    ///
    /// Panics if both counts are zero.
    pub fn heterogeneous(eyeriss: usize, sanger: usize, policy: Policy) -> Self {
        assert!(eyeriss + sanger > 0, "cluster needs at least one node");
        let eyeriss =
            std::iter::repeat_n(NodeConfig::new(AcceleratorKind::EyerissV2, policy), eyeriss);
        let sanger = std::iter::repeat_n(NodeConfig::new(AcceleratorKind::Sanger, policy), sanger);
        ClusterBuilder::from_nodes(eyeriss.chain(sanger).collect())
    }

    /// Starts from explicit node configs.
    fn from_nodes(nodes: Vec<NodeConfig>) -> Self {
        ClusterBuilder {
            nodes,
            frontend: FrontendConfig::default(),
            transfer_cost: TransferCostConfig::FREE,
            faults: crate::faults::FaultConfig::default(),
        }
    }

    /// Sets one node's capacity (heterogeneous speeds / DVFS states).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn node_capacity(mut self, node: usize, capacity: f64) -> Self {
        self.nodes[node].capacity = capacity;
        self
    }

    /// Replaces the serving front-end configuration.
    pub fn frontend(mut self, frontend: FrontendConfig) -> Self {
        self.frontend = frontend;
        self
    }

    /// Replaces the transfer-cost model.
    pub fn transfer_cost(mut self, transfer_cost: TransferCostConfig) -> Self {
        self.transfer_cost = transfer_cost;
        self
    }

    /// Replaces the fault-injection/recovery configuration.
    pub fn faults(mut self, faults: crate::faults::FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Validates every knob and produces the config.
    ///
    /// # Panics
    ///
    /// Panics with a field-specific message on the first out-of-range
    /// knob ([`ClusterConfig::validate`]).
    pub fn build(self) -> ClusterConfig {
        let config = ClusterConfig {
            nodes: self.nodes,
            frontend: self.frontend,
            transfer_cost: self.transfer_cost,
            faults: self.faults,
        };
        config.validate();
        config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairing_matches_paper() {
        assert!(AcceleratorKind::EyerissV2.serves(ModelFamily::Cnn));
        assert!(!AcceleratorKind::EyerissV2.serves(ModelFamily::AttNn));
        assert!(AcceleratorKind::Sanger.serves(ModelFamily::AttNn));
    }

    #[test]
    fn mismatch_scale_applies_to_foreign_family_only() {
        let node = NodeConfig::new(AcceleratorKind::Sanger, Policy::Fcfs);
        assert_eq!(node.effective_scale(ModelFamily::AttNn), 1.0);
        assert_eq!(node.effective_scale(ModelFamily::Cnn), MISMATCH_SLOWDOWN);
    }

    #[test]
    fn effective_scale_divides_by_capacity_and_is_exact_at_full_speed() {
        let mut node = NodeConfig::new(AcceleratorKind::EyerissV2, Policy::Fcfs);
        // Bit-exact with the mismatch-only scale at capacity 1.
        assert_eq!(
            node.effective_scale(ModelFamily::AttNn).to_bits(),
            MISMATCH_SLOWDOWN.to_bits()
        );
        node.capacity = 0.5;
        assert_eq!(node.effective_scale(ModelFamily::Cnn), 2.0);
        assert_eq!(
            node.effective_scale(ModelFamily::AttNn),
            MISMATCH_SLOWDOWN * 2.0
        );
    }

    #[test]
    fn heterogeneous_layout_is_eyeriss_then_sanger() {
        let c = ClusterConfig::heterogeneous(2, 3, Policy::Sjf);
        assert_eq!(c.len(), 5);
        assert!(c.nodes[..2]
            .iter()
            .all(|n| n.accelerator == AcceleratorKind::EyerissV2));
        assert!(c.nodes[2..]
            .iter()
            .all(|n| n.accelerator == AcceleratorKind::Sanger));
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_cluster_rejected() {
        let _ = ClusterConfig::homogeneous(0, AcceleratorKind::EyerissV2, Policy::Fcfs);
    }

    #[test]
    fn default_frontend_is_immediate_dispatch() {
        let f = FrontendConfig::default();
        assert_eq!(f.admit_batch, 1);
        assert_eq!(f.admit_interval_ns, 0);
        assert!(f.steal.is_none() && f.migration.is_none());
        f.validate();
        FrontendConfig::serving().validate();
        FrontendConfig::serving_costed().validate();
    }

    #[test]
    fn costed_presets_are_stricter_than_free_defaults() {
        assert!(StealConfig::costed().min_imbalance > StealConfig::default().min_imbalance);
        assert!(MigrationConfig::costed().min_imbalance > MigrationConfig::default().min_imbalance);
        assert!(
            MigrationConfig::costed().max_per_request < MigrationConfig::default().max_per_request
        );
    }

    #[test]
    fn transfer_cost_estimate_is_base_plus_compute_fraction() {
        assert!(TransferCostConfig::FREE.is_free());
        let costed = TransferCostConfig {
            base_ns: 500,
            compute_fraction: 0.1,
        };
        assert!(!costed.is_free());
        // avg isolated latency 4000 -> 500 + 400.
        assert_eq!(costed.estimate_ns(4_000.0), 900);
        assert_eq!(TransferCostConfig::FREE.estimate_ns(4_000.0), 0);
    }

    #[test]
    #[should_panic(expected = "admission batch must be at least 1")]
    fn zero_admission_batch_rejected() {
        let _ = ClusterBuilder::homogeneous(1, AcceleratorKind::EyerissV2, Policy::Fcfs)
            .frontend(FrontendConfig {
                admit_batch: 0,
                ..FrontendConfig::default()
            })
            .build();
    }

    #[test]
    #[should_panic(expected = "admission degrade multiplier must be >= 1")]
    fn sub_one_degrade_multiplier_rejected() {
        FrontendConfig {
            admission: AdmissionConfig {
                degrade_slo_multiplier: 0.5,
                ..AdmissionConfig::default()
            },
            ..FrontendConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "admission slack fraction must be finite and >= 0")]
    fn negative_slack_fraction_rejected() {
        FrontendConfig {
            admission: AdmissionConfig {
                min_slack_fraction: -0.1,
                ..AdmissionConfig::default()
            },
            ..FrontendConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "steal imbalance threshold must be >= 1")]
    fn sub_one_steal_threshold_rejected() {
        FrontendConfig {
            steal: Some(StealConfig {
                min_imbalance: 0.5,
                period_ns: 1,
            }),
            ..FrontendConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "node 1: capacity must be in (0, 1]")]
    fn overclocked_capacity_rejected() {
        let _ = ClusterBuilder::homogeneous(2, AcceleratorKind::EyerissV2, Policy::Fcfs)
            .node_capacity(1, 1.5)
            .build();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fault_schedule_against_missing_node_rejected() {
        let _ = ClusterBuilder::homogeneous(2, AcceleratorKind::EyerissV2, Policy::Fcfs)
            .faults(crate::faults::FaultConfig {
                schedule: crate::faults::FaultSchedule::new().crash(5, 1_000),
                ..crate::faults::FaultConfig::default()
            })
            .build();
    }

    #[test]
    #[should_panic(expected = "node 0: capacity must be in (0, 1]")]
    fn hand_assembled_config_is_still_validated() {
        // The builder is the normal path, but a field-mutated config must
        // not sneak past: validate() is the single choke point.
        let mut config = ClusterConfig::homogeneous(2, AcceleratorKind::EyerissV2, Policy::Fcfs);
        config.nodes[0].capacity = 0.0;
        config.validate();
    }
}
