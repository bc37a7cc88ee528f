//! Deterministic fault injection and recovery configuration.
//!
//! A [`FaultSchedule`] is a list of sim-clock-keyed [`FaultEvent`]s the
//! cluster event loop replays exactly like its migrate/steal ticks:
//! permanent crashes, transient crashes with a recovery time, brown-out
//! windows (a capacity multiplier), and transfer-stall windows (a
//! fetch-cost multiplier). [`RecoveryConfig`] controls what the
//! front-end does about it — salvage-and-redispatch off crashed nodes
//! with a bounded retry budget, and queue-time reneging of requests
//! whose projected slack has gone negative.
//!
//! An empty schedule with the default recovery settings is a guaranteed
//! no-op: the engine takes none of the fault paths and every report is
//! byte-identical with a fault-free build.

/// Liveness of one node, as seen by every cluster policy through
/// [`crate::NodeView::health`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeHealth {
    /// Fully operational.
    Up,
    /// Crashed: accepts no work. `until_ns` is the scheduled recovery
    /// time for a transient crash, or `None` for a permanent one.
    Down {
        /// Recovery time, or `None` when the node never comes back.
        until_ns: Option<u64>,
    },
    /// Browned out: alive, but running at a reduced effective capacity
    /// (the configured node capacity times the brown-out factor).
    Degraded {
        /// The effective capacity while the brown-out window is open.
        capacity: f64,
    },
}

impl NodeHealth {
    /// True when the node can take new work (everything but `Down`;
    /// a `Degraded` node is slow, not dead).
    pub fn accepts_work(&self) -> bool {
        !matches!(self, NodeHealth::Down { .. })
    }
}

/// What kind of fault hits a node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The node goes down and never recovers.
    Crash,
    /// The node goes down and comes back at `down_until_ns`. Crashes
    /// on a node that is already down extend its outage and never
    /// shorten it: the node comes back at the later of the two recovery
    /// times, and never if either crash is permanent.
    TransientCrash {
        /// Sim time at which the node recovers (must be after the
        /// fault's `at_ns`).
        down_until_ns: u64,
    },
    /// The node's effective capacity is multiplied by
    /// `capacity_factor` until `until_ns` (new dispatches and
    /// transfers land slower; already-queued work keeps the service
    /// scale it was admitted with).
    Brownout {
        /// Window end in sim ns (must be after the fault's `at_ns`).
        until_ns: u64,
        /// Capacity multiplier in `(0, 1]`.
        capacity_factor: f64,
    },
    /// Every transfer touching the node (steal, migration, salvage)
    /// pays `factor` times the modeled fetch cost until `until_ns`.
    TransferStall {
        /// Window end in sim ns (must be after the fault's `at_ns`).
        until_ns: u64,
        /// Fetch-cost multiplier, ≥ 1.
        factor: f64,
    },
}

/// One scheduled fault: `kind` hits `node` at sim time `at_ns`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Sim time at which the fault fires.
    pub at_ns: u64,
    /// The node it hits.
    pub node: usize,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic, sim-clock-keyed fault schedule.
///
/// Built with the chainable helpers; replayed in time order by the
/// cluster event loop, with edges at the same instant applied in entry
/// order. The default (empty) schedule injects nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    /// The scheduled faults, in any order (the engine sorts).
    pub events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// An empty schedule (injects nothing).
    pub fn new() -> Self {
        FaultSchedule::default()
    }

    /// True when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Adds a permanent crash of `node` at `at_ns`.
    #[must_use]
    pub fn crash(mut self, node: usize, at_ns: u64) -> Self {
        self.events.push(FaultEvent {
            at_ns,
            node,
            kind: FaultKind::Crash,
        });
        self
    }

    /// Adds a transient crash of `node` over `[at_ns, down_until_ns)`.
    #[must_use]
    pub fn transient_crash(mut self, node: usize, at_ns: u64, down_until_ns: u64) -> Self {
        self.events.push(FaultEvent {
            at_ns,
            node,
            kind: FaultKind::TransientCrash { down_until_ns },
        });
        self
    }

    /// Adds a brown-out of `node` over `[at_ns, until_ns)` at
    /// `capacity_factor` of its configured capacity.
    #[must_use]
    pub fn brownout(
        mut self,
        node: usize,
        at_ns: u64,
        until_ns: u64,
        capacity_factor: f64,
    ) -> Self {
        self.events.push(FaultEvent {
            at_ns,
            node,
            kind: FaultKind::Brownout {
                until_ns,
                capacity_factor,
            },
        });
        self
    }

    /// Adds a transfer-stall window on `node` over `[at_ns, until_ns)`
    /// inflating fetch costs by `factor`.
    #[must_use]
    pub fn transfer_stall(mut self, node: usize, at_ns: u64, until_ns: u64, factor: f64) -> Self {
        self.events.push(FaultEvent {
            at_ns,
            node,
            kind: FaultKind::TransferStall { until_ns, factor },
        });
        self
    }

    /// Range-checks every scheduled fault against a pool of
    /// `num_nodes` nodes.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid event: node index out
    /// of range, a recovery/window end not after the fault time, a
    /// brown-out factor outside `(0, 1]`, a non-finite / sub-unity
    /// stall factor, or two same-kind windows overlapping on one node.
    /// The engine keeps exactly one open brown-out and one open stall
    /// per node, so a second overlapping window would silently
    /// overwrite the first's factor and orphan its closing edge —
    /// ill-defined semantics the schedule must reject up front.
    /// Half-open `[at_ns, until_ns)` windows that merely touch
    /// (`a.until == b.at`) do not overlap, and windows of different
    /// kinds may freely coincide.
    pub fn validate(&self, num_nodes: usize) -> Result<(), String> {
        for (i, ev) in self.events.iter().enumerate() {
            if ev.node >= num_nodes {
                return Err(format!(
                    "fault {i}: node {} out of range (pool has {num_nodes} nodes)",
                    ev.node
                ));
            }
            match ev.kind {
                FaultKind::Crash => {}
                FaultKind::TransientCrash { down_until_ns } => {
                    if down_until_ns <= ev.at_ns {
                        return Err(format!(
                            "fault {i}: recovery time {down_until_ns} not after crash at {}",
                            ev.at_ns
                        ));
                    }
                }
                FaultKind::Brownout {
                    until_ns,
                    capacity_factor,
                } => {
                    if until_ns <= ev.at_ns {
                        return Err(format!(
                            "fault {i}: brownout end {until_ns} not after start {}",
                            ev.at_ns
                        ));
                    }
                    if !capacity_factor.is_finite()
                        || capacity_factor <= 0.0
                        || capacity_factor > 1.0
                    {
                        return Err(format!(
                            "fault {i}: brownout capacity factor must be in (0, 1], got {capacity_factor}"
                        ));
                    }
                }
                FaultKind::TransferStall { until_ns, factor } => {
                    if until_ns <= ev.at_ns {
                        return Err(format!(
                            "fault {i}: stall end {until_ns} not after start {}",
                            ev.at_ns
                        ));
                    }
                    if !factor.is_finite() || factor < 1.0 {
                        return Err(format!(
                            "fault {i}: stall factor must be finite and >= 1, got {factor}"
                        ));
                    }
                }
            }
        }
        // Same-kind windows must not overlap on one node (the engine
        // tracks one open window of each kind per node). Half-open
        // windows: touching is fine, overlap is not.
        let mut windows: Vec<(usize, u8, u64, u64)> = self
            .events
            .iter()
            .filter_map(|ev| match ev.kind {
                FaultKind::Brownout { until_ns, .. } => Some((ev.node, 0u8, ev.at_ns, until_ns)),
                FaultKind::TransferStall { until_ns, .. } => {
                    Some((ev.node, 1u8, ev.at_ns, until_ns))
                }
                FaultKind::Crash | FaultKind::TransientCrash { .. } => None,
            })
            .collect();
        windows.sort_unstable();
        for pair in windows.windows(2) {
            let (node, tag, start, end) = pair[0];
            let (node2, tag2, start2, _) = pair[1];
            if node == node2 && tag == tag2 && start2 < end {
                let kind = if tag == 0 {
                    "brown-out"
                } else {
                    "transfer-stall"
                };
                return Err(format!(
                    "overlapping {kind} windows on node {node}: \
                     [{start}, {end}) and a second starting at {start2}"
                ));
            }
        }
        Ok(())
    }
}

/// What the front-end does when faults hit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryConfig {
    /// Salvage queued/in-flight requests off a crashed node and
    /// re-dispatch them through the live [`crate::Dispatcher`]. When
    /// false, everything on a crashed node is recorded as failed.
    pub salvage: bool,
    /// Per-request salvage budget: a request crashed out more than
    /// this many times is recorded as failed instead of re-dispatched.
    pub max_retries: u32,
    /// Drop a never-started request from its queue the moment its
    /// re-projected slack goes negative on every live node (checked at
    /// migration ticks, so it requires a migration-enabled front-end).
    pub reneging: bool,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            salvage: true,
            max_retries: 2,
            reneging: false,
        }
    }
}

/// The complete fault-injection configuration carried by
/// [`crate::ClusterConfig`]: the schedule plus the recovery behavior.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultConfig {
    /// What goes wrong, and when.
    pub schedule: FaultSchedule,
    /// What the front-end does about it.
    pub recovery: RecoveryConfig,
}

impl FaultConfig {
    /// Range-checks the schedule against a pool of `num_nodes` nodes.
    ///
    /// # Errors
    ///
    /// Returns the first invalid scheduled fault (see
    /// [`FaultSchedule::validate`]).
    pub fn validate(&self, num_nodes: usize) -> Result<(), String> {
        self.schedule.validate(num_nodes)
    }
}

/// Cluster-wide fault/recovery accounting, carried in
/// [`crate::ServingStats::recovery`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryStats {
    /// Crash events that fired (permanent + transient).
    pub crashes: u64,
    /// Requests pulled off crashed nodes for re-dispatch.
    pub salvaged: u64,
    /// Successful re-dispatches of salvaged requests.
    pub retries: u64,
    /// Executed work destroyed by crashes, in ns (the dead node's busy
    /// time keeps it; this reports how much of that busy time produced
    /// nothing).
    pub lost_busy_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_inert() {
        let cfg = FaultConfig::default();
        assert!(cfg.schedule.is_empty());
        assert!(cfg.recovery.salvage);
        assert_eq!(cfg.recovery.max_retries, 2);
        assert!(!cfg.recovery.reneging);
        assert_eq!(cfg.validate(0), Ok(()));
    }

    #[test]
    fn builder_helpers_chain() {
        let s = FaultSchedule::new()
            .crash(0, 1_000)
            .transient_crash(1, 2_000, 3_000)
            .brownout(2, 100, 900, 0.5)
            .transfer_stall(3, 50, 60, 4.0);
        assert_eq!(s.events.len(), 4);
        assert_eq!(s.validate(4), Ok(()));
    }

    #[test]
    fn validate_rejects_bad_events() {
        let oob = FaultSchedule::new().crash(3, 0);
        assert!(oob.validate(3).unwrap_err().contains("out of range"));
        let inverted = FaultSchedule::new().transient_crash(0, 500, 500);
        assert!(inverted.validate(1).unwrap_err().contains("not after"));
        let factor = FaultSchedule::new().brownout(0, 0, 10, 1.5);
        assert!(factor.validate(1).unwrap_err().contains("(0, 1]"));
        let stall = FaultSchedule::new().transfer_stall(0, 0, 10, 0.5);
        assert!(stall.validate(1).unwrap_err().contains(">= 1"));
    }

    #[test]
    fn validate_rejects_overlapping_brownout_windows() {
        // The engine holds one open brown-out per node: a second window
        // opening inside the first would overwrite its factor and
        // orphan its closing edge.
        let s = FaultSchedule::new()
            .brownout(0, 100, 1_000, 0.5)
            .brownout(0, 500, 2_000, 0.25);
        let err = s.validate(1).unwrap_err();
        assert!(err.contains("overlapping brown-out"), "got: {err}");
        // Builder order does not matter — overlap is detected on the
        // sorted windows.
        let s = FaultSchedule::new()
            .brownout(0, 500, 2_000, 0.25)
            .brownout(0, 100, 1_000, 0.5);
        assert!(s.validate(1).is_err());
    }

    #[test]
    fn validate_rejects_overlapping_stall_windows() {
        let s = FaultSchedule::new()
            .transfer_stall(2, 0, 60, 4.0)
            .transfer_stall(2, 59, 120, 2.0);
        let err = s.validate(3).unwrap_err();
        assert!(err.contains("overlapping transfer-stall"), "got: {err}");
        assert!(err.contains("node 2"), "got: {err}");
    }

    #[test]
    fn validate_allows_touching_and_cross_kind_windows() {
        // Half-open windows: [0, 100) then [100, 200) merely touch.
        let touching = FaultSchedule::new()
            .brownout(0, 0, 100, 0.5)
            .brownout(0, 100, 200, 0.25);
        assert!(touching.validate(1).is_ok());
        // Different kinds (or different nodes) may overlap freely.
        let cross = FaultSchedule::new()
            .brownout(0, 0, 1_000, 0.5)
            .transfer_stall(0, 500, 2_000, 4.0)
            .brownout(1, 0, 1_000, 0.5);
        assert!(cross.validate(2).is_ok());
    }

    #[test]
    fn health_accepts_work() {
        assert!(NodeHealth::Up.accepts_work());
        assert!(NodeHealth::Degraded { capacity: 0.25 }.accepts_work());
        assert!(!NodeHealth::Down { until_ns: None }.accepts_work());
        assert!(!NodeHealth::Down { until_ns: Some(10) }.accepts_work());
    }
}
