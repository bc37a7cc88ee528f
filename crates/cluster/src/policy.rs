//! The cluster-control policy family: steal-victim choice and
//! migration acceptance as pluggable policies, bundled with the
//! [`Dispatcher`] into one [`ClusterPolicy`].
//!
//! PR 3 hard-coded steal and migration decisions inside the cluster
//! event loop; this module lifts them behind traits sharing the
//! [`DispatchContext`] the dispatcher already reads, so the engine only
//! *sequences* events (sync nodes → consult policy → apply transfer)
//! and every decision — routing, victim choice, acceptance — is
//! swappable and testable in isolation. The default implementations
//! ([`BacklogGainSteal`], [`BacklogThresholdMigration`]) reproduce the
//! PR 3 behavior bit-exactly under free transfers, and generalize it by
//! charging the pool's [`crate::TransferCostConfig`] against every
//! prospective move.

use dysta_workload::Request;

use crate::dispatch::{DispatchContext, Dispatcher};
use crate::{DispatchPolicy, MigrationConfig, StealConfig};

/// One stealable request on a victim node, pre-priced for the thief's
/// class: the engine enumerates these (every queued, never-started
/// request on every peer) and the [`StealPolicy`] ranks them. Thieves
/// that agree on accelerator, mismatch slowdown, capacity and their open
/// brown-out and transfer-stall factors — one thief class — get
/// identical prices, so one list, and one policy verdict, serves them
/// all.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StealCandidate {
    /// Node currently holding the request.
    pub victim: usize,
    /// Request id.
    pub task_id: u64,
    /// Request arrival time (ns).
    pub arrival_ns: u64,
    /// Absolute deadline (arrival + SLO, saturating).
    pub deadline_ns: u64,
    /// LUT-estimated isolated latency of the request (unscaled).
    pub est_ns: f64,
    /// Estimated service on the victim (est × the victim's stored
    /// per-task scale).
    pub on_victim_ns: f64,
    /// Estimated service on the thief (est × the thief's effective
    /// scale for the request's family).
    pub on_thief_ns: f64,
    /// Weight/activation re-fetch cost the thief would pay to take it.
    pub transfer_cost_ns: u64,
}

/// Chooses what an idle node steals.
pub trait StealPolicy {
    /// Stable lower-case policy name.
    fn name(&self) -> &str;

    /// Picks the candidate the idle `thief` should pull, as an index
    /// into `candidates`, or `None` to steal nothing this tick.
    /// `candidates` covers every queued, never-started request on every
    /// peer; the thief is drained, so its own work never appears.
    /// Implementations must be pure functions of their arguments (the
    /// engine may re-consult them at any tick).
    ///
    /// **Contract: the answer may depend on the thief only through its
    /// class.** Thieves of one class (see [`StealCandidate`]) are
    /// handed the same slice and the same `ctx` until a steal is
    /// applied, and the engine asks once per class, for the class's
    /// lowest-id drained thief: when that thief gets `None`, every
    /// other thief of the class is taken to get `None` too, and is not
    /// asked (debug builds ask it and assert that). So a policy may
    /// read the thief's accelerator, capacity and open brown-out (its
    /// `ctx.nodes[thief]` health, which the class fixes for a thief
    /// that is not down) and may exclude the thief as a victim (a
    /// drained thief never is one), but must not otherwise tell
    /// thieves of one class apart, e.g. by id.
    fn choose(
        &self,
        thief: usize,
        candidates: &[StealCandidate],
        ctx: &DispatchContext<'_>,
        cfg: &StealConfig,
    ) -> Option<usize>;
}

/// The default steal policy: pull the best request from the single
/// most-backlogged peer, provided the pool is imbalanced enough and the
/// move — including its transfer cost — finishes the request sooner
/// than the victim's whole backlog would.
///
/// Victim: the peer with the largest LUT-estimated backlog that holds
/// stealable work (smaller id on ties), gated by
/// [`StealConfig::min_imbalance`] over the pool mean. Candidate: the
/// request whose move frees the most victim time net of what the thief
/// pays (`on_victim − on_thief − transfer_cost`), requiring
/// `on_thief + transfer_cost < victim backlog` so stealing can never
/// extend the tail; ties prefer the bigger victim-side estimate, then
/// the smaller id. Under [`crate::TransferCostConfig::FREE`] this is
/// bit-exact with the PR 3 in-engine steal pass.
///
/// It meets the [`StealPolicy::choose`] class contract: of the thief it
/// reads only its health (a down thief steals nothing; every other
/// health accepts work) and its id, to exclude it as a victim.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BacklogGainSteal;

impl BacklogGainSteal {
    /// Creates the default steal policy.
    pub fn new() -> Self {
        BacklogGainSteal
    }
}

impl StealPolicy for BacklogGainSteal {
    fn name(&self) -> &str {
        "backlog-gain"
    }

    fn choose(
        &self,
        thief: usize,
        candidates: &[StealCandidate],
        ctx: &DispatchContext<'_>,
        cfg: &StealConfig,
    ) -> Option<usize> {
        // A down node must not pull work onto itself (it is drained by
        // the crash salvage, so it would otherwise look like a perfect
        // thief).
        if !ctx.nodes[thief].health.accepts_work() {
            return None;
        }
        let mean = ctx.mean_lut_backlog_ns();
        if mean <= 0.0 {
            return None;
        }
        // Most-backlogged peer holding stealable work; smaller id on
        // ties. One pass over the candidates: only a node that holds one
        // can be the victim.
        let victim = candidates
            .iter()
            .map(|c| c.victim)
            .filter(|&v| v != thief)
            .max_by(|&a, &b| {
                ctx.nodes[a]
                    .lut_backlog_ns
                    .total_cmp(&ctx.nodes[b].lut_backlog_ns)
                    .then(b.cmp(&a))
            })?;
        let victim_backlog = ctx.nodes[victim].lut_backlog_ns;
        if victim_backlog < cfg.min_imbalance * mean {
            return None;
        }
        // Best candidate on that victim: max gain net of the transfer
        // cost (ties: bigger victim-side estimate, then smaller id).
        let mut best: Option<(f64, f64, u64, usize)> = None;
        for (i, c) in candidates.iter().enumerate() {
            if c.victim != victim {
                continue;
            }
            let landed = c.on_thief_ns + c.transfer_cost_ns as f64;
            if landed >= victim_backlog {
                continue;
            }
            let gain = c.on_victim_ns - landed;
            let better = match &best {
                None => true,
                Some((bg, bv, bid, _)) => match gain.total_cmp(bg) {
                    std::cmp::Ordering::Greater => true,
                    std::cmp::Ordering::Equal => match c.on_victim_ns.total_cmp(bv) {
                        std::cmp::Ordering::Greater => true,
                        std::cmp::Ordering::Equal => c.task_id < *bid,
                        std::cmp::Ordering::Less => false,
                    },
                    std::cmp::Ordering::Less => false,
                },
            };
            if better {
                best = Some((gain, c.on_victim_ns, c.task_id, i));
            }
        }
        best.map(|(_, _, _, i)| i)
    }
}

/// Decides which nodes the periodic rebalance pass drains and whether a
/// dispatcher-proposed move is applied.
pub trait MigrationPolicy {
    /// Stable lower-case policy name.
    fn name(&self) -> &str;

    /// True when `src`'s queue should be re-offered to the dispatcher
    /// under this snapshot. Consulted before every candidate (the
    /// snapshot refreshes after each applied move), so returning `false`
    /// stops draining a node the pass has already rebalanced enough.
    fn should_rebalance(
        &self,
        src: usize,
        ctx: &DispatchContext<'_>,
        cfg: &MigrationConfig,
    ) -> bool;

    /// True when moving `request` from `src` to the dispatcher-proposed
    /// `target` should be applied.
    fn accept(
        &self,
        request: &Request,
        src: usize,
        target: usize,
        ctx: &DispatchContext<'_>,
        cfg: &MigrationConfig,
    ) -> bool;
}

/// The default migration policy: rebalance nodes whose LUT-estimated
/// backlog exceeds [`MigrationConfig::min_imbalance`] times the pool
/// mean, and apply a move only when the target — after paying the
/// transfer cost — is still strictly less backlogged than the source.
/// Under [`crate::TransferCostConfig::FREE`] this is bit-exact with the
/// PR 3 in-engine migration pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BacklogThresholdMigration;

impl BacklogThresholdMigration {
    /// Creates the default migration policy.
    pub fn new() -> Self {
        BacklogThresholdMigration
    }
}

impl MigrationPolicy for BacklogThresholdMigration {
    fn name(&self) -> &str {
        "backlog-threshold"
    }

    fn should_rebalance(
        &self,
        src: usize,
        ctx: &DispatchContext<'_>,
        cfg: &MigrationConfig,
    ) -> bool {
        let mean = ctx.mean_lut_backlog_ns();
        mean > 0.0 && ctx.nodes[src].lut_backlog_ns > cfg.min_imbalance * mean
    }

    fn accept(
        &self,
        request: &Request,
        src: usize,
        target: usize,
        ctx: &DispatchContext<'_>,
        _cfg: &MigrationConfig,
    ) -> bool {
        if target == src || !ctx.nodes[target].health.accepts_work() {
            return false;
        }
        let cost = ctx.request_transfer_cost_ns(request) as f64;
        ctx.nodes[target].lut_backlog_ns + cost < ctx.nodes[src].lut_backlog_ns
    }
}

/// What the [`AdmissionPolicy`] decided for one request at
/// batch-dispatch time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionDecision {
    /// Serve the request at its requested SLO class.
    Admit,
    /// Drop the request at the front-end door: it never enters any node
    /// engine, and no later steal or migration pass can resurrect it.
    Reject,
    /// Serve the request in a relaxed SLO class: it enters the pool
    /// with its SLO multiplied by
    /// [`crate::AdmissionConfig::degrade_slo_multiplier`], while
    /// [`crate::ClusterReport::goodput`] keeps judging its completion
    /// against the original deadline.
    Degrade,
}

/// Gates every request at batch-dispatch time — the fourth member of
/// the [`ClusterPolicy`] family.
///
/// Consulted when a request leaves the admission queue (after any
/// batching delay, so a deadline lost while waiting for the batch to
/// fill counts against it), against the same [`DispatchContext`]
/// snapshot the dispatcher routes with. Implementations must be pure
/// functions of their arguments.
pub trait AdmissionPolicy {
    /// Stable lower-case policy name.
    fn name(&self) -> &str;

    /// Decides whether `request` is served, shed, or degraded under
    /// this snapshot. `cfg` carries the pool's admission thresholds
    /// ([`crate::FrontendConfig::admission`]).
    fn decide(
        &self,
        request: &Request,
        ctx: &DispatchContext<'_>,
        cfg: &crate::AdmissionConfig,
    ) -> AdmissionDecision;
}

/// The default admission policy: serve everything — bit-exact with the
/// admission-free engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmitAll;

impl AdmitAll {
    /// Creates the default admission policy.
    pub fn new() -> Self {
        AdmitAll
    }
}

impl AdmissionPolicy for AdmitAll {
    fn name(&self) -> &str {
        "admit-all"
    }

    fn decide(
        &self,
        _request: &Request,
        _ctx: &DispatchContext<'_>,
        _cfg: &crate::AdmissionConfig,
    ) -> AdmissionDecision {
        AdmissionDecision::Admit
    }
}

/// Rejects a request iff its deadline is already infeasible on *every*
/// node — the projected slack
/// ([`crate::EarliestDeadlineFirst::projected_slack_ns`], the same
/// estimate deadline-aware dispatch routes on) is negative across the
/// whole pool, so wherever the dispatcher would place it the SLO is
/// lost before a single layer runs. Serving such a request cannot
/// reduce the violation count; it can only steal capacity from
/// feasible requests. Everything feasible somewhere is admitted
/// unchanged.
///
/// Deadline-free requests (saturated SLO) always project positive
/// slack and are never rejected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InfeasibleEverywhere;

impl InfeasibleEverywhere {
    /// Creates the reject-doomed-work admission policy.
    pub fn new() -> Self {
        InfeasibleEverywhere
    }

    /// True when no *live* node in the snapshot can hold the request's
    /// deadline under the projected-slack estimate, charging the
    /// request's unscaled estimate `est_ns`
    /// ([`DispatchContext::request_estimate_ns`]) on each node (a down
    /// node cannot save a deadline; with the whole pool down,
    /// everything is infeasible).
    pub fn infeasible_everywhere(
        request: &Request,
        est_ns: f64,
        ctx: &DispatchContext<'_>,
    ) -> bool {
        ctx.nodes
            .iter()
            .filter(|n| n.health.accepts_work())
            .all(|n| crate::EarliestDeadlineFirst::projected_slack_ns(request, est_ns, n, ctx) < 0)
    }
}

impl AdmissionPolicy for InfeasibleEverywhere {
    fn name(&self) -> &str {
        "infeasible-everywhere"
    }

    fn decide(
        &self,
        request: &Request,
        ctx: &DispatchContext<'_>,
        _cfg: &crate::AdmissionConfig,
    ) -> AdmissionDecision {
        let est_ns = ctx.request_estimate_ns(request);
        if InfeasibleEverywhere::infeasible_everywhere(request, est_ns, ctx) {
            AdmissionDecision::Reject
        } else {
            AdmissionDecision::Admit
        }
    }
}

/// Load shedding with a configurable headroom threshold: requests whose
/// deadline is infeasible everywhere are rejected (as
/// [`InfeasibleEverywhere`]); requests that are feasible somewhere but
/// whose *best* projected slack across the pool is thinner than
/// [`crate::AdmissionConfig::min_slack_fraction`] of their SLO are
/// admitted in the degraded class (their deadline is unlikely to
/// survive estimation error, so they are re-classed rather than
/// allowed to count against the tight class); everything with real
/// headroom is admitted unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlackLoadShedding;

impl SlackLoadShedding {
    /// Creates the headroom-thresholded load-shedding policy.
    pub fn new() -> Self {
        SlackLoadShedding
    }
}

impl AdmissionPolicy for SlackLoadShedding {
    fn name(&self) -> &str {
        "slack-load-shed"
    }

    fn decide(
        &self,
        request: &Request,
        ctx: &DispatchContext<'_>,
        cfg: &crate::AdmissionConfig,
    ) -> AdmissionDecision {
        let est_ns = ctx.request_estimate_ns(request);
        let Some(best) = ctx
            .nodes
            .iter()
            .filter(|n| n.health.accepts_work())
            .map(|n| crate::EarliestDeadlineFirst::projected_slack_ns(request, est_ns, n, ctx))
            .max()
        else {
            // The whole pool is down: nothing can be served.
            return AdmissionDecision::Reject;
        };
        if best < 0 {
            return AdmissionDecision::Reject;
        }
        // A deadline-free request (saturated SLO, slack clamped at
        // i64::MAX) has infinite headroom by definition: admit it
        // outright. Without this guard a fraction above ~0.5 would
        // degrade it, because the clamped slack (~9.2e18) undershoots
        // the threshold computed from the unclamped u64::MAX SLO.
        if request.slo_ns == u64::MAX || best == i64::MAX {
            return AdmissionDecision::Admit;
        }
        // f64 comparison so a huge-but-finite SLO cannot overflow.
        if (best as f64) < cfg.min_slack_fraction * request.slo_ns as f64 {
            AdmissionDecision::Degrade
        } else {
            AdmissionDecision::Admit
        }
    }
}

/// The full cluster control surface: admission gating and request
/// routing plus the steal and migration sides, consulted by
/// [`crate::simulate_cluster`].
///
/// A bare dispatcher enters through [`ClusterPolicy::new`] (or
/// [`ClusterPolicy::from_dispatch`]), which adds the default
/// admission, steal and migration policies.
pub struct ClusterPolicy {
    /// Gates each request at batch-dispatch time (default:
    /// [`AdmitAll`]).
    pub admission: Box<dyn AdmissionPolicy>,
    /// Routes each admitted (or re-offered) request to a node.
    pub dispatcher: Box<dyn Dispatcher>,
    /// Chooses what idle nodes steal.
    pub steal: Box<dyn StealPolicy>,
    /// Gates the periodic rebalance pass.
    pub migration: Box<dyn MigrationPolicy>,
}

impl ClusterPolicy {
    /// Bundles `dispatcher` with the default admission, steal, and
    /// migration policies.
    pub fn new(dispatcher: Box<dyn Dispatcher>) -> Self {
        ClusterPolicy {
            admission: Box::new(AdmitAll::new()),
            dispatcher,
            steal: Box::new(BacklogGainSteal::new()),
            migration: Box::new(BacklogThresholdMigration::new()),
        }
    }

    /// Convenience: the bundle for a shipped [`DispatchPolicy`].
    pub fn from_dispatch(policy: DispatchPolicy) -> Self {
        ClusterPolicy::new(policy.build())
    }

    /// Replaces the admission policy.
    pub fn with_admission(mut self, admission: Box<dyn AdmissionPolicy>) -> Self {
        self.admission = admission;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::NodeView;
    use crate::{AcceleratorKind, TransferCostConfig};
    use dysta_core::ModelInfoLut;

    fn view(id: usize, backlog: f64) -> NodeView {
        NodeView {
            id,
            accelerator: AcceleratorKind::EyerissV2,
            capacity: 1.0,
            now_ns: 0,
            queue_len: 0,
            lut_backlog_ns: backlog,
            predicted_backlog_ns: backlog,
            health: crate::NodeHealth::Up,
        }
    }

    fn candidate(victim: usize, task_id: u64, est: f64, cost: u64) -> StealCandidate {
        StealCandidate {
            victim,
            task_id,
            arrival_ns: 0,
            deadline_ns: u64::MAX,
            est_ns: est,
            on_victim_ns: est,
            on_thief_ns: est,
            transfer_cost_ns: cost,
        }
    }

    #[test]
    fn steal_targets_most_backlogged_victim_and_respects_threshold() {
        let lut = ModelInfoLut::default();
        let views = [view(0, 0.0), view(1, 40.0), view(2, 100.0)];
        let ctx = DispatchContext::new(0, &views, &lut, &TransferCostConfig::FREE);
        let candidates = [candidate(1, 10, 5.0, 0), candidate(2, 20, 5.0, 0)];
        let policy = BacklogGainSteal::new();
        let cfg = StealConfig::default();
        // Node 2 is the most backlogged: its candidate wins.
        let pick = policy.choose(0, &candidates, &ctx, &cfg).unwrap();
        assert_eq!(candidates[pick].task_id, 20);
        // A tight threshold (victim must exceed 3x the mean ~46.7)
        // suppresses the steal entirely.
        let strict = StealConfig {
            min_imbalance: 3.0,
            ..cfg
        };
        assert_eq!(policy.choose(0, &candidates, &ctx, &strict), None);
    }

    fn steal_ctx<'a>(views: &'a [NodeView], lut: &'a ModelInfoLut) -> DispatchContext<'a> {
        DispatchContext::new(0, views, lut, &TransferCostConfig::FREE)
    }

    #[test]
    fn steal_victim_ties_go_to_the_smaller_id() {
        let lut = ModelInfoLut::default();
        let views = [view(0, 0.0), view(1, 100.0), view(2, 100.0)];
        let ctx = steal_ctx(&views, &lut);
        let cfg = StealConfig {
            min_imbalance: 1.0,
            ..StealConfig::default()
        };
        // Victim 2's candidate comes first and is the better steal on
        // its own, but victims tie on backlog and node 1 has the
        // smaller id.
        let candidates = [candidate(2, 20, 50.0, 0), candidate(1, 10, 5.0, 0)];
        let pick = BacklogGainSteal::new()
            .choose(0, &candidates, &ctx, &cfg)
            .unwrap();
        assert_eq!(candidates[pick].victim, 1);
    }

    #[test]
    fn steal_victim_is_never_the_thief() {
        let lut = ModelInfoLut::default();
        // The thief (2) is the most backlogged node and a candidate
        // names it as the victim; the policy must look past it.
        let views = [view(0, 0.0), view(1, 100.0), view(2, 300.0)];
        let ctx = steal_ctx(&views, &lut);
        let cfg = StealConfig {
            min_imbalance: 0.5,
            ..StealConfig::default()
        };
        let candidates = [candidate(2, 20, 5.0, 0), candidate(1, 10, 5.0, 0)];
        let pick = BacklogGainSteal::new()
            .choose(2, &candidates, &ctx, &cfg)
            .unwrap();
        assert_eq!(candidates[pick].victim, 1);
        // With only its own work on offer the thief steals nothing.
        assert_eq!(
            BacklogGainSteal::new().choose(2, &candidates[..1], &ctx, &cfg),
            None
        );
    }

    #[test]
    fn steal_victim_must_hold_a_candidate() {
        let lut = ModelInfoLut::default();
        // Node 2 is far more backlogged but has nothing stealable.
        let views = [view(0, 0.0), view(1, 50.0), view(2, 500.0)];
        let ctx = steal_ctx(&views, &lut);
        let cfg = StealConfig {
            min_imbalance: 0.1,
            ..StealConfig::default()
        };
        let candidates = [candidate(1, 10, 5.0, 0)];
        let pick = BacklogGainSteal::new()
            .choose(0, &candidates, &ctx, &cfg)
            .unwrap();
        assert_eq!(candidates[pick].victim, 1);
        assert_eq!(BacklogGainSteal::new().choose(0, &[], &ctx, &cfg), None);
    }

    #[test]
    fn transfer_cost_disqualifies_marginal_steals() {
        let lut = ModelInfoLut::default();
        let views = [view(0, 0.0), view(1, 100.0)];
        let ctx = DispatchContext::new(0, &views, &lut, &TransferCostConfig::FREE);
        let cfg = StealConfig {
            min_imbalance: 1.0,
            ..StealConfig::default()
        };
        let policy = BacklogGainSteal::new();
        // Free: on_thief (60) < victim backlog (100) qualifies.
        let free = [candidate(1, 1, 60.0, 0)];
        assert!(policy.choose(0, &free, &ctx, &cfg).is_some());
        // Costed: 60 + 50 >= 100 — the move would outlast the victim's
        // whole backlog, so it never fires.
        let costed = [candidate(1, 1, 60.0, 50)];
        assert_eq!(policy.choose(0, &costed, &ctx, &cfg), None);
    }

    fn admission_request(arrival_ns: u64, slo_ns: u64) -> dysta_workload::Request {
        use dysta_models::ModelId;
        use dysta_sparsity::SparsityPattern;
        use dysta_trace::SparseModelSpec;
        dysta_workload::Request {
            id: 0,
            spec: SparseModelSpec::new(ModelId::ResNet50, SparsityPattern::Dense, 0.0),
            // Id 0: the spec's id in a one-variant store built from it;
            // no entry in an empty LUT.
            variant: dysta_trace::VariantId::default(),
            sample_index: 0,
            arrival_ns,
            slo_ns,
        }
    }

    #[test]
    fn admit_all_admits_unconditionally() {
        let lut = ModelInfoLut::default();
        let views = [view(0, 1.0e18)];
        let ctx = DispatchContext::new(0, &views, &lut, &TransferCostConfig::FREE);
        let cfg = crate::AdmissionConfig::default();
        // Even a request whose deadline is hopeless everywhere.
        let doomed = admission_request(0, 1);
        assert_eq!(
            AdmitAll::new().decide(&doomed, &ctx, &cfg),
            AdmissionDecision::Admit
        );
    }

    #[test]
    fn infeasible_everywhere_rejects_only_when_no_node_can_hold_the_deadline() {
        // Empty LUT: the request's own estimate is 0, so per-node slack
        // is deadline − predicted backlog.
        let lut = ModelInfoLut::default();
        let cfg = crate::AdmissionConfig::default();
        let policy = InfeasibleEverywhere::new();
        let req = admission_request(0, 50);

        let hopeless = [view(0, 100.0), view(1, 200.0)];
        let ctx = DispatchContext::new(0, &hopeless, &lut, &TransferCostConfig::FREE);
        assert_eq!(policy.decide(&req, &ctx, &cfg), AdmissionDecision::Reject);

        // One feasible node is enough to admit.
        let one_open = [view(0, 100.0), view(1, 10.0)];
        let ctx_open = DispatchContext::new(0, &one_open, &lut, &TransferCostConfig::FREE);
        assert_eq!(
            policy.decide(&req, &ctx_open, &cfg),
            AdmissionDecision::Admit
        );

        // A deadline-free request is never rejected, no matter the load.
        let relaxed = admission_request(0, u64::MAX);
        assert_eq!(
            policy.decide(&relaxed, &ctx, &cfg),
            AdmissionDecision::Admit
        );
    }

    #[test]
    fn slack_load_shedding_degrades_thin_headroom_and_rejects_infeasible() {
        let lut = ModelInfoLut::default();
        let cfg = crate::AdmissionConfig {
            min_slack_fraction: 0.25,
            degrade_slo_multiplier: 4.0,
        };
        let policy = SlackLoadShedding::new();
        // SLO 1000 ⇒ full-class admission needs 250 ns of slack on the
        // best node.
        let req = admission_request(0, 1_000);
        let wide = [view(0, 100.0), view(1, 900.0)];
        let thin = [view(0, 800.0), view(1, 900.0)];
        let none = [view(0, 1_200.0), view(1, 1_500.0)];
        let base = DispatchContext::new(0, &wide, &lut, &TransferCostConfig::FREE);
        assert_eq!(policy.decide(&req, &base, &cfg), AdmissionDecision::Admit);
        let thin_ctx = DispatchContext::new(0, &thin, &lut, &TransferCostConfig::FREE);
        assert_eq!(
            policy.decide(&req, &thin_ctx, &cfg),
            AdmissionDecision::Degrade
        );
        let none_ctx = DispatchContext::new(0, &none, &lut, &TransferCostConfig::FREE);
        assert_eq!(
            policy.decide(&req, &none_ctx, &cfg),
            AdmissionDecision::Reject
        );
        // At fraction 0 the policy collapses to InfeasibleEverywhere.
        let strict0 = crate::AdmissionConfig {
            min_slack_fraction: 0.0,
            ..cfg
        };
        assert_eq!(
            policy.decide(&req, &thin_ctx, &strict0),
            AdmissionDecision::Admit
        );
        // A deadline-free request has infinite headroom: it is admitted
        // at full class even under a fraction high enough that the
        // clamped slack (i64::MAX) undershoots a threshold computed
        // from its unclamped u64::MAX SLO.
        let free = admission_request(0, u64::MAX);
        let greedy = crate::AdmissionConfig {
            min_slack_fraction: 0.9,
            ..cfg
        };
        assert_eq!(
            policy.decide(&free, &none_ctx, &greedy),
            AdmissionDecision::Admit
        );
    }

    #[test]
    fn admission_scales_the_requests_own_estimate_per_node() {
        let req = admission_request(0, 0);
        let mut store = dysta_trace::TraceStore::new();
        store.insert(dysta_trace::ModelTraces::generate(&req.spec, 4, 0));
        let variant = store.variant_id(&req.spec).expect("profiled");
        let lut = ModelInfoLut::from_store(&store);
        let est = lut.info(variant).avg_latency_ns();
        assert!(est > 0.0);
        // SLO of two estimates. Node 0 (mismatched Sanger, 2.5x) and
        // node 1 (browned out to 0.4 capacity) are empty but take 2.5
        // estimates to serve the request; native node 2 holds
        // `native_backlog` ahead of it.
        let req = admission_request(0, (2.0 * est).round() as u64);
        let pool = |native_backlog: f64| {
            let mut views = [view(0, 0.0), view(1, 0.0), view(2, native_backlog)];
            views[0].accelerator = AcceleratorKind::Sanger;
            views[1].health = crate::NodeHealth::Degraded { capacity: 0.4 };
            views
        };
        let cfg = crate::AdmissionConfig {
            min_slack_fraction: 0.25,
            degrade_slo_multiplier: 4.0,
        };
        let shed = SlackLoadShedding::new();
        let doomed = InfeasibleEverywhere::new();

        // Native node overcommitted: nobody holds the deadline.
        let hopeless = pool(1.5 * est);
        let ctx = DispatchContext::new(0, &hopeless, &lut, &TransferCostConfig::FREE);
        assert!(InfeasibleEverywhere::infeasible_everywhere(&req, est, &ctx));
        assert_eq!(doomed.decide(&req, &ctx, &cfg), AdmissionDecision::Reject);
        assert_eq!(shed.decide(&req, &ctx, &cfg), AdmissionDecision::Reject);
        // An empty LUT charges no own estimate, so the empty mismatched
        // and browned-out nodes look feasible: the lookup decides.
        let empty = ModelInfoLut::default();
        let blind = DispatchContext::new(0, ctx.nodes, &empty, &TransferCostConfig::FREE);
        assert_eq!(doomed.decide(&req, &blind, &cfg), AdmissionDecision::Admit);
        assert_eq!(shed.decide(&req, &blind, &cfg), AdmissionDecision::Admit);

        // Native node empty: one estimate of slack (half the SLO).
        let open = pool(0.0);
        let ctx_open = DispatchContext::new(0, &open, &lut, &TransferCostConfig::FREE);
        assert_eq!(
            doomed.decide(&req, &ctx_open, &cfg),
            AdmissionDecision::Admit
        );
        assert_eq!(shed.decide(&req, &ctx_open, &cfg), AdmissionDecision::Admit);
        // Native node 0.8 estimates behind: slack 0.2 estimates, under
        // a quarter of the SLO.
        let thin = pool(0.8 * est);
        let ctx_thin = DispatchContext::new(0, &thin, &lut, &TransferCostConfig::FREE);
        assert_eq!(
            shed.decide(&req, &ctx_thin, &cfg),
            AdmissionDecision::Degrade
        );

        // Re-offered from the browned-out node: its backlog already
        // holds the request, so it is not charged the estimate again
        // and holds the deadline.
        let mut reoffer = ctx.clone();
        reoffer.reoffer_src = Some(1);
        assert!(!InfeasibleEverywhere::infeasible_everywhere(
            &req, est, &reoffer
        ));
        assert_eq!(
            doomed.decide(&req, &reoffer, &cfg),
            AdmissionDecision::Admit
        );
    }

    #[test]
    fn health_gates_every_policy_kind() {
        let lut = ModelInfoLut::default();
        let cfg = crate::AdmissionConfig::default();
        let mcfg = MigrationConfig::default();
        let scfg = StealConfig {
            min_imbalance: 1.0,
            ..StealConfig::default()
        };
        // Node 1 is the obviously-best target for everything — but down.
        let mut views = [view(0, 100.0), view(1, 0.0)];
        views[1].health = crate::NodeHealth::Down { until_ns: None };
        let ctx = DispatchContext::new(0, &views, &lut, &TransferCostConfig::FREE);
        // Migration never lands on a down node.
        let req = admission_request(0, u64::MAX);
        assert!(!BacklogThresholdMigration::new().accept(&req, 0, 1, &ctx, &mcfg));
        // A down thief steals nothing.
        let candidates = [candidate(0, 1, 5.0, 0)];
        assert_eq!(
            BacklogGainSteal::new().choose(1, &candidates, &ctx, &scfg),
            None
        );
        // Admission ignores the down node's (empty) headroom: with only
        // the overcommitted node alive, a tight deadline is infeasible.
        let tight = admission_request(0, 50);
        assert!(InfeasibleEverywhere::infeasible_everywhere(
            &tight, 0.0, &ctx
        ));
        assert_eq!(
            SlackLoadShedding::new().decide(&tight, &ctx, &cfg),
            AdmissionDecision::Reject
        );
        // With the whole pool down everything is rejected, even
        // deadline-free work.
        let mut all_down = views;
        all_down[0].health = crate::NodeHealth::Down { until_ns: Some(9) };
        let ctx_down = DispatchContext::new(0, &all_down, &lut, &TransferCostConfig::FREE);
        assert!(InfeasibleEverywhere::infeasible_everywhere(
            &req, 0.0, &ctx_down
        ));
        assert_eq!(
            SlackLoadShedding::new().decide(&req, &ctx_down, &cfg),
            AdmissionDecision::Reject
        );
    }

    #[test]
    fn admission_policy_names_are_stable() {
        assert_eq!(AdmitAll::new().name(), "admit-all");
        assert_eq!(InfeasibleEverywhere::new().name(), "infeasible-everywhere");
        assert_eq!(SlackLoadShedding::new().name(), "slack-load-shed");
    }

    #[test]
    fn migration_accepts_only_strictly_cheaper_targets_net_of_cost() {
        use dysta_models::ModelId;
        use dysta_sparsity::SparsityPattern;
        use dysta_trace::SparseModelSpec;
        use dysta_workload::Request;

        let lut = ModelInfoLut::default();
        let views = [view(0, 100.0), view(1, 99.0)];
        let ctx = DispatchContext::new(0, &views, &lut, &TransferCostConfig::FREE);
        let req = Request {
            id: 0,
            spec: SparseModelSpec::new(ModelId::ResNet50, SparsityPattern::Dense, 0.0),
            // No entry in the empty LUT: the variant is unprofiled.
            variant: dysta_trace::VariantId::default(),
            sample_index: 0,
            arrival_ns: 0,
            slo_ns: u64::MAX,
        };
        let policy = BacklogThresholdMigration::new();
        let cfg = MigrationConfig::default();
        assert!(policy.accept(&req, 0, 1, &ctx, &cfg));
        assert!(!policy.accept(&req, 0, 0, &ctx, &cfg), "self-move");
        assert!(!policy.accept(&req, 1, 0, &ctx, &cfg), "uphill move");
        // With a base cost wider than the 1 ns gap the move stops
        // paying for itself. (An unprofiled spec prices at base only.)
        let costed = TransferCostConfig {
            base_ns: 10,
            compute_fraction: 0.0,
        };
        let ctx_costed = DispatchContext::new(0, &views, &lut, &costed);
        assert!(!policy.accept(&req, 0, 1, &ctx_costed, &cfg));
    }
}
