//! The per-layer metrics of a traced run. Every workload reports the
//! same list, in the order `BENCHMARK.json` names them; a layer a
//! workload never calls into reports 0.

use crate::adapter::{self, Outcome, PolicyStats, Profile};
use crate::measure::Report;

#[derive(Default)]
pub struct Layers {
    pub workload_build_ms: f64,
    pub workload_next_request_ns_mean: f64,
    pub workload_requests: f64,
    pub trace_store_ms: f64,
    pub trace_store_builds: f64,
    pub core_picks: f64,
    pub core_pick_ns_mean: f64,
    /// Mean pick ns per policy, in `Policy::ALL` order.
    pub core_pick_ns: [f64; 8],
    pub core_hook_calls: f64,
    pub core_hook_ns_mean: f64,
    pub core_queue_len_mean: f64,
    pub core_queue_len_max: f64,
    pub core_pick_s: f64,
    pub sim_run_ms_p50: f64,
    pub sim_run_ms_p90: f64,
    pub sim_self_ns_per_event: f64,
    pub sim_execute_s: f64,
    pub sim_preemptions: f64,
    pub cluster_frontend_s: f64,
    pub cluster_loop_s: f64,
    /// Calls and mean ns of the wrapped dispatcher, admission, steal
    /// and migration policies.
    pub cluster_policy: [(f64, f64); 4],
    pub cluster_rejected: f64,
    pub cluster_degraded: f64,
    pub cluster_steals: f64,
    pub cluster_migrations: f64,
    pub cluster_salvaged: f64,
    pub cluster_reneged: f64,
    pub cluster_failed: f64,
    pub cluster_peak_live: f64,
    pub sweep_cells: f64,
    pub sweep_cell_ms_p50: f64,
    pub sweep_parallel_efficiency: f64,
    pub obs_trace_overhead_pct: f64,
}

impl Layers {
    /// Fills the `core`, `sim` and `cluster` rows from traced cluster
    /// runs: their summed outcomes, phase times, policy statistics, and
    /// host seconds inside the cluster entry point. The node schedulers
    /// are built inside the engine, so picks come from the engine's
    /// `Phase::Pick` time, and hooks and queue lengths are not seen.
    pub fn cluster(
        &mut self,
        outcomes: &[Outcome],
        profile: &Profile,
        policy: &PolicyStats,
        run_secs: f64,
    ) {
        let events: u64 = outcomes.iter().map(|o| o.events).sum();
        let sum = |f: fn(&Outcome) -> u64| outcomes.iter().map(f).sum::<u64>() as f64;
        self.core_picks = events as f64;
        self.core_pick_s = profile.pick_secs();
        self.core_pick_ns_mean = profile.pick_secs() * 1e9 / events as f64;
        // Every node of both pools runs Dysta.
        let dysta = adapter::paper_policies()
            .iter()
            .position(|&p| p == "dysta")
            .expect("dysta is a shipped policy");
        self.core_pick_ns[dysta] = self.core_pick_ns_mean;
        self.sim_execute_s = profile.execute_secs();
        self.sim_self_ns_per_event = profile.execute_secs() * 1e9 / events as f64;
        self.sim_preemptions = sum(|o| o.preemptions);
        self.cluster_frontend_s = profile.frontend_secs();
        self.cluster_loop_s =
            run_secs - profile.frontend_secs() - profile.pick_secs() - profile.execute_secs();
        for (slot, stat) in self.cluster_policy.iter_mut().zip([
            &policy.dispatch,
            &policy.admission,
            &policy.steal,
            &policy.migration,
        ]) {
            *slot = (stat.calls() as f64, stat.ns_mean());
        }
        self.cluster_rejected = sum(|o| o.rejected);
        self.cluster_degraded = sum(|o| o.degraded);
        self.cluster_steals = sum(|o| o.steals);
        self.cluster_migrations = sum(|o| o.migrations);
        self.cluster_salvaged = sum(|o| o.salvaged);
        self.cluster_reneged = sum(|o| o.reneged);
        self.cluster_failed = sum(|o| o.failed);
        self.cluster_peak_live = outcomes.iter().map(|o| o.peak_live).max().unwrap_or(0) as f64;
    }

    pub fn emit(&self, report: &mut Report) {
        let mut m = |name: &str, value: f64, unit: &'static str| report.metric(name, value, unit);
        m("workload.build_ms", self.workload_build_ms, "ms");
        m(
            "workload.next_request_ns_mean",
            self.workload_next_request_ns_mean,
            "ns",
        );
        m("workload.requests", self.workload_requests, "count");
        m("trace.store_ms", self.trace_store_ms, "ms");
        m("trace.store_builds", self.trace_store_builds, "count");
        m("core.picks", self.core_picks, "count");
        m("core.pick_ns_mean", self.core_pick_ns_mean, "ns");
        for (name, ns) in adapter::paper_policies().iter().zip(self.core_pick_ns) {
            m(&format!("core.pick_ns.{name}"), ns, "ns");
        }
        m("core.hook_calls", self.core_hook_calls, "count");
        m("core.hook_ns_mean", self.core_hook_ns_mean, "ns");
        m("core.queue_len_mean", self.core_queue_len_mean, "count");
        m("core.queue_len_max", self.core_queue_len_max, "count");
        m("core.pick_s", self.core_pick_s, "s");
        m("sim.run_ms_p50", self.sim_run_ms_p50, "ms");
        m("sim.run_ms_p90", self.sim_run_ms_p90, "ms");
        m("sim.self_ns_per_event", self.sim_self_ns_per_event, "ns");
        m("sim.execute_s", self.sim_execute_s, "s");
        m("sim.preemptions", self.sim_preemptions, "count");
        m("cluster.frontend_s", self.cluster_frontend_s, "s");
        m("cluster.loop_s", self.cluster_loop_s, "s");
        for (kind, (calls, ns)) in ["dispatch", "admission", "steal", "migration"]
            .iter()
            .zip(self.cluster_policy)
        {
            m(&format!("cluster.{kind}_calls"), calls, "count");
            m(&format!("cluster.{kind}_ns_mean"), ns, "ns");
        }
        m("cluster.rejected", self.cluster_rejected, "count");
        m("cluster.degraded", self.cluster_degraded, "count");
        m("cluster.steals", self.cluster_steals, "count");
        m("cluster.migrations", self.cluster_migrations, "count");
        m("cluster.salvaged", self.cluster_salvaged, "count");
        m("cluster.reneged", self.cluster_reneged, "count");
        m("cluster.failed", self.cluster_failed, "count");
        m("cluster.peak_live", self.cluster_peak_live, "count");
        m("sweep.cells", self.sweep_cells, "count");
        m("sweep.cell_ms_p50", self.sweep_cell_ms_p50, "ms");
        m(
            "sweep.parallel_efficiency",
            self.sweep_parallel_efficiency,
            "ratio",
        );
        m("obs.trace_overhead_pct", self.obs_trace_overhead_pct, "%");
    }
}
