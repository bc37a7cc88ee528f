//! The benchmark's one door into the simulator.
//!
//! Every call into a `dysta` entry point, and every wrapper around one of
//! its public traits, lives in this file. The workload modules see only
//! the plain data types defined here, so when an entry point is renamed
//! or folded (the `simulate_cluster*` family, the sweep's worker pool)
//! this is the only benchmark file to edit.
//!
//! Timing is taken from outside: each `Timed::secs` covers exactly one
//! call into an entry point, and the wrappers time each call into a
//! wrapped policy. Nothing under `crates/` is instrumented for the
//! benchmark; the engine's own `Phase` wall times are collected through
//! [`Profile`], a tracer that profiles but records no events.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use dysta::cluster::{
    balanced_mixed_serving_mix, simulate_cluster_stream, simulate_cluster_stream_with,
    simulate_cluster_traced, AdmissionConfig, AdmissionDecision, AdmissionPolicy, ClusterBuilder,
    ClusterConfig, ClusterPolicy, ClusterReport, DispatchContext, DispatchPolicy, Dispatcher,
    FaultConfig, FaultSchedule, FrontendConfig, MigrationConfig, MigrationPolicy, RecoveryConfig,
    SlackLoadShedding, StealCandidate, StealConfig, StealPolicy, SweepGrid, SweepRow,
    SweepScenario, TransferCostConfig,
};
use dysta::core::{ModelInfoLut, Policy, Scheduler, TaskQueue, TaskState};
use dysta::obs::{Phase, Tracer};
use dysta::sim::{simulate, simulate_traced, EngineConfig, SimReport};
use dysta::trace::{SampleTrace, TraceStore};
use dysta::workload::{
    ArrivalProcess, PhaseSpec, Popularity, Request, RequestSource, Scenario, SloModel, StreamSpec,
    Workload, WorkloadBuilder,
};

/// A value together with the host seconds one entry-point call took.
pub struct Timed<T> {
    pub value: T,
    pub secs: f64,
}

fn timed<T>(f: impl FnOnce() -> T) -> Timed<T> {
    let t0 = Instant::now();
    let value = std::hint::black_box(f());
    Timed {
        value,
        secs: t0.elapsed().as_secs_f64(),
    }
}

/// The simulated outcome of one op, reduced to plain numbers. Equal
/// inputs must give equal outcomes, field for field.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Outcome {
    pub offered: u64,
    pub admitted: u64,
    pub completed: u64,
    pub rejected: u64,
    pub degraded: u64,
    pub failed: u64,
    pub reneged: u64,
    pub salvaged: u64,
    pub steals: u64,
    pub migrations: u64,
    pub peak_live: u64,
    /// Completions past the deadline they were served under.
    pub violated: u64,
    /// Completions within their original SLO.
    pub good: u64,
    pub antt: f64,
    /// Simulated layer executions: Σ scheduler invocations over nodes
    /// (`layers_per_block` is 1 everywhere in this benchmark).
    pub events: u64,
    pub preemptions: u64,
    /// Nearest-rank p99 of simulated turnaround, ns.
    pub p99_ns: u64,
}

impl Outcome {
    /// Conservation: `offered == admitted + rejected` and
    /// `admitted == completed + failed + reneged`.
    pub fn check_conservation(&self) -> Result<(), String> {
        if self.offered != self.admitted + self.rejected {
            return Err(format!(
                "offered {} != admitted {} + rejected {}",
                self.offered, self.admitted, self.rejected
            ));
        }
        if self.admitted != self.completed + self.failed + self.reneged {
            return Err(format!(
                "admitted {} != completed {} + failed {} + reneged {}",
                self.admitted, self.completed, self.failed, self.reneged
            ));
        }
        Ok(())
    }

    fn from_sim(offered: usize, report: &SimReport) -> Self {
        let completed = report.completed();
        let violated = completed.iter().filter(|c| c.violated()).count() as u64;
        Outcome {
            offered: offered as u64,
            admitted: offered as u64,
            completed: completed.len() as u64,
            violated,
            good: completed.len() as u64 - violated,
            antt: report.antt(),
            events: report.scheduler_invocations(),
            preemptions: report.preemptions(),
            p99_ns: report.turnaround_percentile_ns(99.0),
            ..Outcome::default()
        }
    }

    fn from_cluster(report: &ClusterReport) -> Self {
        let serving = report.serving();
        Outcome {
            offered: report.offered_total() as u64,
            admitted: report.admitted_total() as u64,
            completed: report.completed_total() as u64,
            rejected: report.rejected_total() as u64,
            degraded: report.degraded_total() as u64,
            failed: report.failed_total() as u64,
            reneged: report.reneged_total() as u64,
            salvaged: serving.recovery.salvaged,
            steals: serving.steals,
            migrations: serving.migrations,
            peak_live: serving.peak_live_requests as u64,
            violated: report.completed().filter(|c| c.violated()).count() as u64,
            good: report.goodput() as u64,
            antt: report.antt(),
            events: report
                .nodes()
                .iter()
                .map(|n| n.report.scheduler_invocations())
                .sum(),
            preemptions: report.nodes().iter().map(|n| n.report.preemptions()).sum(),
            p99_ns: report.turnaround_percentile_ns(99.0),
        }
    }
}

// ---------------------------------------------------------------------
// Wrappers: a profiling tracer and timed versions of the public traits.
// ---------------------------------------------------------------------

/// A tracer that records no events (`enabled` is false) but asks the
/// engines for their wall-clock `Phase` times.
#[derive(Debug, Default)]
pub struct Profile {
    ns: [Cell<u64>; 3],
}

impl Tracer for Profile {
    fn profiling(&self) -> bool {
        true
    }

    fn phase_ns(&self, phase: Phase, wall_ns: u64) {
        let cell = &self.ns[phase as usize];
        cell.set(cell.get() + wall_ns);
    }
}

impl Profile {
    fn secs(&self, phase: Phase) -> f64 {
        self.ns[phase as usize].get() as f64 * 1e-9
    }

    pub fn pick_secs(&self) -> f64 {
        self.secs(Phase::Pick)
    }

    pub fn execute_secs(&self) -> f64 {
        self.secs(Phase::Execute)
    }

    pub fn frontend_secs(&self) -> f64 {
        self.secs(Phase::Frontend)
    }
}

/// Call count and host time of one wrapped trait method family.
#[derive(Debug, Default)]
pub struct CallStat {
    calls: Cell<u64>,
    ns: Cell<u64>,
}

impl CallStat {
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.ns.set(self.ns.get() + t0.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
        r
    }

    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Mean host ns per call (0 without calls).
    pub fn ns_mean(&self) -> f64 {
        match self.calls.get() {
            0 => 0.0,
            n => self.ns.get() as f64 / n as f64,
        }
    }
}

/// What the wrapped cluster policies were asked, and how long they took.
#[derive(Debug, Default)]
pub struct PolicyStats {
    pub dispatch: CallStat,
    pub admission: CallStat,
    pub steal: CallStat,
    pub migration: CallStat,
}

struct TimedDispatcher {
    inner: Box<dyn Dispatcher>,
    stats: Rc<PolicyStats>,
}

impl Dispatcher for TimedDispatcher {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn peek(&self, request: &Request, ctx: &DispatchContext<'_>) -> usize {
        self.stats.dispatch.time(|| self.inner.peek(request, ctx))
    }

    fn dispatch(&mut self, request: &Request, ctx: &DispatchContext<'_>) -> usize {
        let inner = &mut self.inner;
        self.stats.dispatch.time(|| inner.dispatch(request, ctx))
    }
}

struct TimedAdmission {
    inner: Box<dyn AdmissionPolicy>,
    stats: Rc<PolicyStats>,
}

impl AdmissionPolicy for TimedAdmission {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(
        &self,
        request: &Request,
        ctx: &DispatchContext<'_>,
        cfg: &AdmissionConfig,
    ) -> AdmissionDecision {
        self.stats
            .admission
            .time(|| self.inner.decide(request, ctx, cfg))
    }
}

struct TimedSteal {
    inner: Box<dyn StealPolicy>,
    stats: Rc<PolicyStats>,
}

impl StealPolicy for TimedSteal {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn choose(
        &self,
        thief: usize,
        candidates: &[StealCandidate],
        ctx: &DispatchContext<'_>,
        cfg: &StealConfig,
    ) -> Option<usize> {
        self.stats
            .steal
            .time(|| self.inner.choose(thief, candidates, ctx, cfg))
    }
}

struct TimedMigration {
    inner: Box<dyn MigrationPolicy>,
    stats: Rc<PolicyStats>,
}

impl MigrationPolicy for TimedMigration {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn should_rebalance(
        &self,
        src: usize,
        ctx: &DispatchContext<'_>,
        cfg: &MigrationConfig,
    ) -> bool {
        self.stats
            .migration
            .time(|| self.inner.should_rebalance(src, ctx, cfg))
    }

    fn accept(
        &self,
        request: &Request,
        src: usize,
        target: usize,
        ctx: &DispatchContext<'_>,
        cfg: &MigrationConfig,
    ) -> bool {
        self.stats
            .migration
            .time(|| self.inner.accept(request, src, target, ctx, cfg))
    }
}

/// Wraps all four members of a policy bundle so each call is counted
/// and timed into `stats`.
fn timed_policy(policy: ClusterPolicy, stats: &Rc<PolicyStats>) -> ClusterPolicy {
    ClusterPolicy {
        admission: Box::new(TimedAdmission {
            inner: policy.admission,
            stats: Rc::clone(stats),
        }),
        dispatcher: Box::new(TimedDispatcher {
            inner: policy.dispatcher,
            stats: Rc::clone(stats),
        }),
        steal: Box::new(TimedSteal {
            inner: policy.steal,
            stats: Rc::clone(stats),
        }),
        migration: Box::new(TimedMigration {
            inner: policy.migration,
            stats: Rc::clone(stats),
        }),
    }
}

/// Pick and hook counts of one wrapped scheduler, with their host time
/// and the queue lengths seen at pick time.
#[derive(Debug, Default, Clone)]
pub struct SchedStats {
    pub picks: u64,
    pub pick_ns: u64,
    pub hook_calls: u64,
    pub hook_ns: u64,
    pub queue_len_sum: u64,
    pub queue_len_max: u64,
}

impl SchedStats {
    pub fn add(&mut self, other: &SchedStats) {
        self.picks += other.picks;
        self.pick_ns += other.pick_ns;
        self.hook_calls += other.hook_calls;
        self.hook_ns += other.hook_ns;
        self.queue_len_sum += other.queue_len_sum;
        self.queue_len_max = self.queue_len_max.max(other.queue_len_max);
    }
}

struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    stats: SchedStats,
}

impl TimedScheduler {
    fn hook(&mut self, f: impl FnOnce(&mut dyn Scheduler)) {
        let t0 = Instant::now();
        f(self.inner.as_mut());
        self.stats.hook_ns += t0.elapsed().as_nanos() as u64;
        self.stats.hook_calls += 1;
    }
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_arrival(&mut self, task: &TaskState, lut: &ModelInfoLut, now_ns: u64) {
        self.hook(|s| s.on_arrival(task, lut, now_ns));
    }

    fn on_layer_complete(&mut self, task: &TaskState, lut: &ModelInfoLut, now_ns: u64) {
        self.hook(|s| s.on_layer_complete(task, lut, now_ns));
    }

    fn on_task_complete(&mut self, task: &TaskState, now_ns: u64) {
        self.hook(|s| s.on_task_complete(task, now_ns));
    }

    fn on_task_removed(&mut self, task: &TaskState, now_ns: u64) {
        self.hook(|s| s.on_task_removed(task, now_ns));
    }

    fn pick_next(&mut self, queue: TaskQueue<'_>, lut: &ModelInfoLut, now_ns: u64) -> usize {
        let len = queue.len() as u64;
        let t0 = Instant::now();
        let pick = self.inner.pick_next(queue, lut, now_ns);
        self.stats.pick_ns += t0.elapsed().as_nanos() as u64;
        self.stats.picks += 1;
        self.stats.queue_len_sum += len;
        self.stats.queue_len_max = self.stats.queue_len_max.max(len);
        pick
    }
}

/// A request source that counts and times every generation call.
struct TimedSource<S> {
    inner: S,
    ns: u64,
}

impl<'w, S: RequestSource<'w>> RequestSource<'w> for TimedSource<S> {
    fn peek_arrival_ns(&mut self) -> Option<u64> {
        let t0 = Instant::now();
        let r = self.inner.peek_arrival_ns();
        self.ns += t0.elapsed().as_nanos() as u64;
        r
    }

    fn next_request(&mut self) -> Option<Request> {
        let t0 = Instant::now();
        let r = self.inner.next_request();
        self.ns += t0.elapsed().as_nanos() as u64;
        r
    }

    fn trace_for(&self, request: &Request) -> &'w SampleTrace {
        self.inner.trace_for(request)
    }

    fn store(&self) -> &'w TraceStore {
        self.inner.store()
    }

    fn len_hint(&self) -> usize {
        self.inner.len_hint()
    }
}

/// A stream drained through [`TimedSource`] into a materialized
/// workload.
struct Generation {
    workload: Workload,
    /// Host ns spent inside the source's generation calls.
    ns: u64,
    requests: u64,
}

fn materialize(spec: &StreamSpec, store: &TraceStore) -> Generation {
    let mut source = TimedSource {
        inner: spec.source(store),
        ns: 0,
    };
    let mut requests = Vec::with_capacity(source.len_hint());
    while let Some(r) = source.next_request() {
        requests.push(r);
    }
    let n = requests.len() as u64;
    Generation {
        workload: Workload::from_parts(requests, store.clone()),
        ns: source.ns,
        requests: n,
    }
}

/// One traced cluster run: its outcome, the engine's phase times, the
/// wrapped policies' call statistics, and the stream generation cost.
pub struct TracedCluster {
    pub outcome: Outcome,
    pub secs: f64,
    pub profile: Profile,
    pub policy: Rc<PolicyStats>,
    pub generation_ns: u64,
    pub requests: u64,
}

/// Materializes `spec`'s stream and runs it through
/// `simulate_cluster_traced` (the streaming entry points take no
/// tracer) with every policy wrapped.
fn traced_cluster(
    spec: &StreamSpec,
    store: &TraceStore,
    policy: ClusterPolicy,
    config: &ClusterConfig,
) -> TracedCluster {
    let generation = materialize(spec, store);
    let stats = Rc::new(PolicyStats::default());
    let mut policy = timed_policy(policy, &stats);
    let profile = Profile::default();
    let run =
        timed(|| simulate_cluster_traced(&generation.workload, &mut policy, config, &profile));
    TracedCluster {
        outcome: Outcome::from_cluster(&run.value),
        secs: run.secs,
        profile,
        policy: stats,
        generation_ns: generation.ns,
        requests: generation.requests,
    }
}

// ---------------------------------------------------------------------
// paper_replay: Table 5 on one accelerator through `dysta::sim`.
// ---------------------------------------------------------------------

/// The two Table 5 traffic classes at their operating points (req/s).
const PAPER_SCENARIOS: [(Scenario, f64); 2] =
    [(Scenario::MultiAttNn, 30.0), (Scenario::MultiCnn, 3.0)];
const PAPER_SEEDS: u64 = 5;
/// Distinct input sets of one run, each 2 scenarios × 5 seeds. One set
/// alone is too small a sample: near saturation a single seed's ANTT
/// ranges over 3×, so the simulated metrics pool 36 sets.
pub const PAPER_SETS: u64 = 36;
/// `simulate` calls per input set: every workload under every policy.
pub const PAPER_OPS_PER_SET: usize =
    PAPER_SCENARIOS.len() * PAPER_SEEDS as usize * Policy::ALL.len();
pub const PAPER_REQUESTS: usize = 1000;
const PAPER_SAMPLES: u64 = 64;
const PAPER_SLO: f64 = 10.0;

/// Policy names in `Policy::ALL` order.
pub fn paper_policies() -> Vec<&'static str> {
    Policy::ALL.iter().map(|p| p.name()).collect()
}

/// The (scenario, rate, workload seed) of every workload of input set
/// `set`.
fn paper_configs(seed: u64, set: u64) -> Vec<(Scenario, f64, u64)> {
    let mut configs = Vec::new();
    for (scenario, rate) in PAPER_SCENARIOS {
        for i in 0..PAPER_SEEDS {
            configs.push((scenario, rate, (seed * PAPER_SETS + set) * PAPER_SEEDS + i));
        }
    }
    configs
}

/// One input set of paper workloads: 2 scenarios × 5 seeds.
pub struct PaperInputs {
    workloads: Vec<Workload>,
}

impl PaperInputs {
    pub fn workloads(&self) -> usize {
        self.workloads.len()
    }

    pub fn requests(&self) -> u64 {
        self.workloads
            .iter()
            .map(|w| w.requests().len() as u64)
            .sum()
    }
}

/// Builds every paper workload and constructs (then drops) one
/// scheduler per workload × policy: the set-up a Table 5 replay pays
/// before its first `simulate` call.
pub fn paper_setup(seed: u64, set: u64) -> Timed<PaperInputs> {
    timed(|| {
        let workloads: Vec<Workload> = paper_configs(seed, set)
            .into_iter()
            .map(|(scenario, rate, s)| {
                WorkloadBuilder::new(scenario)
                    .arrival_rate(rate)
                    .slo_multiplier(PAPER_SLO)
                    .num_requests(PAPER_REQUESTS)
                    .samples_per_variant(PAPER_SAMPLES)
                    .seed(s)
                    .build()
            })
            .collect();
        for _ in &workloads {
            for policy in Policy::ALL {
                std::hint::black_box(policy.build());
            }
        }
        PaperInputs { workloads }
    })
}

/// Host seconds to build each paper workload's trace library alone,
/// through the stream spec that generates the identical store; the
/// number of stores built is `PaperInputs::workloads`.
pub fn paper_store_secs(seed: u64, set: u64) -> f64 {
    paper_configs(seed, set)
        .into_iter()
        .map(|(scenario, rate, s)| {
            let spec = StreamSpec::steady_poisson(scenario, rate, PAPER_SLO)
                .num_requests(PAPER_REQUESTS as u64)
                .samples_per_variant(PAPER_SAMPLES)
                .seed(s);
            timed(|| spec.build_store()).secs
        })
        .sum()
}

/// One op: `simulate` of workload `w` under policy `p` (an index into
/// `Policy::ALL`).
pub fn paper_run(inputs: &PaperInputs, w: usize, p: usize) -> Timed<Outcome> {
    let workload = &inputs.workloads[w];
    let mut scheduler = Policy::ALL[p].build();
    let run = timed(|| simulate(workload, scheduler.as_mut(), &EngineConfig::default()));
    Timed {
        value: Outcome::from_sim(workload.requests().len(), &run.value),
        secs: run.secs,
    }
}

/// [`paper_run`] through `simulate_traced` with a wrapped scheduler and
/// the profiling tracer.
pub fn paper_run_traced(
    inputs: &PaperInputs,
    w: usize,
    p: usize,
    profile: &Profile,
) -> (Timed<Outcome>, SchedStats) {
    let workload = &inputs.workloads[w];
    let mut scheduler = TimedScheduler {
        inner: Policy::ALL[p].build(),
        stats: SchedStats::default(),
    };
    let run =
        timed(|| simulate_traced(workload, &mut scheduler, &EngineConfig::default(), profile));
    let outcome = Outcome::from_sim(workload.requests().len(), &run.value);
    (
        Timed {
            value: outcome,
            secs: run.secs,
        },
        scheduler.stats,
    )
}

// ---------------------------------------------------------------------
// fleet_serving: an open-loop stream on a 32 + 32 serving pool.
// ---------------------------------------------------------------------

pub const FLEET_REQUESTS: u64 = 10_000;
/// Distinct streams of one run. One 10 000-request stream moves the
/// violation share by ~16 % from seed to seed; ten pool to a steady one.
pub const FLEET_STREAMS: u64 = 10;
const FLEET_SAMPLES: u64 = 64;
const S: u64 = 1_000_000_000;

pub struct FleetInputs {
    spec: StreamSpec,
    store: TraceStore,
    config: ClusterConfig,
}

/// Bursty mixed traffic: 250 req/s for 5 s, then 40 req/s for 10 s,
/// repeating; Zipfian popularity over the balanced CNN + AttNN mix and
/// per-request SLOs drawn from 5–15× isolated latency.
fn fleet_spec(seed: u64) -> StreamSpec {
    StreamSpec {
        phases: vec![PhaseSpec {
            start_ns: 0,
            process: ArrivalProcess::OnOff {
                on_rate: 250.0,
                off_rate: 40.0,
                on_s: 5.0,
                off_s: 10.0,
            },
            mix: balanced_mixed_serving_mix(),
            popularity: Popularity::Zipfian { exponent: 1.0 },
            slo: SloModel::Range { lo: 5.0, hi: 15.0 },
        }],
        num_requests: FLEET_REQUESTS,
        samples_per_variant: FLEET_SAMPLES,
        seed,
    }
}

/// 32 Eyeriss + 32 Sanger nodes with the costed serving front-end, a
/// transient crash of node 0 and a half-capacity brown-out of node 33,
/// salvage with two retries, and reneging.
fn fleet_pool() -> ClusterConfig {
    ClusterBuilder::heterogeneous(32, 32, Policy::Dysta)
        .frontend(FrontendConfig::serving_costed())
        .transfer_cost(TransferCostConfig::default_costed())
        .faults(FaultConfig {
            schedule: FaultSchedule::new()
                .transient_crash(0, 6 * S, 20 * S)
                .brownout(33, 3 * S, 30 * S, 0.5),
            recovery: RecoveryConfig {
                salvage: true,
                max_retries: 2,
                reneging: true,
            },
        })
        .build()
}

fn fleet_policy() -> ClusterPolicy {
    ClusterPolicy::from_dispatch(DispatchPolicy::EarliestDeadlineFirst)
        .with_admission(Box::new(SlackLoadShedding::new()))
}

/// Set-up of stream `stream` before its first cluster call: stream
/// spec, trace library, pool, and policy bundle. Also returns the
/// trace-library share.
pub fn fleet_setup(seed: u64, stream: u64) -> (Timed<FleetInputs>, f64) {
    let mut store_secs = 0.0;
    let setup = timed(|| {
        let spec = fleet_spec(seed * FLEET_STREAMS + stream);
        let store = timed(|| spec.build_store());
        store_secs = store.secs;
        let config = fleet_pool();
        std::hint::black_box(fleet_policy());
        FleetInputs {
            spec,
            store: store.value,
            config,
        }
    });
    (setup, store_secs)
}

/// One op: the stream served by `simulate_cluster_stream_with`.
pub fn fleet_run(inputs: &FleetInputs) -> Timed<Outcome> {
    let source = inputs.spec.source(&inputs.store);
    let mut policy = fleet_policy();
    let run = timed(|| simulate_cluster_stream_with(source, &mut policy, &inputs.config));
    Timed {
        value: Outcome::from_cluster(&run.value),
        secs: run.secs,
    }
}

/// The same stream, materialized and traced.
pub fn fleet_run_traced(inputs: &FleetInputs) -> TracedCluster {
    traced_cluster(&inputs.spec, &inputs.store, fleet_policy(), &inputs.config)
}

// ---------------------------------------------------------------------
// sweep_grid: the `fleet_sweep` full grid through `SweepGrid::run`.
// ---------------------------------------------------------------------

const SWEEP_SEEDS: u64 = 5;
/// Tighter than `fleet_sweep`'s ×10, under which 2 in 10 000 requests
/// miss: too few for a steady violation share.
const SWEEP_SLO: f64 = 2.0;

pub struct SweepInputs {
    grid: SweepGrid,
}

/// Rows of a grid run, comparable for equality.
#[derive(Debug, PartialEq)]
pub struct GridRows(Vec<SweepRow>);

/// The `fleet_sweep` grid: a 2 + 2 pool, 5 seeds × 5 dispatchers × 2
/// scenarios, 1000 requests per cell, at SLO ×2.
/// Builds the grid `reps` times; `secs` is the mean per build.
pub fn sweep_setup(seed: u64, reps: usize) -> Timed<SweepInputs> {
    let run = timed(|| {
        let mut inputs = sweep_inputs(seed);
        for _ in 1..reps {
            inputs = sweep_inputs(seed);
        }
        inputs
    });
    Timed {
        value: run.value,
        secs: run.secs / reps as f64,
    }
}

fn sweep_inputs(seed: u64) -> SweepInputs {
    let seeds = (0..SWEEP_SEEDS)
        .map(|s| (seed * SWEEP_SEEDS + s) * 7919 + 13)
        .collect();
    let grid = SweepGrid::new(ClusterConfig::heterogeneous(2, 2, Policy::Dysta))
        .seeds(seeds)
        .policies(DispatchPolicy::ALL.to_vec())
        .scenarios(vec![
            SweepScenario::new("multi_attnn", Scenario::MultiAttNn, 30.0),
            SweepScenario::new("multi_cnn", Scenario::MultiCnn, 3.0),
        ])
        .slo_multipliers(vec![SWEEP_SLO])
        .requests(1000)
        .samples_per_variant(64);
    SweepInputs { grid }
}

impl SweepInputs {
    pub fn cells(&self) -> usize {
        self.grid.cell_count()
    }

    pub fn requests_per_cell(&self) -> u64 {
        self.grid.requests
    }

    /// Every cell's stream spec and dispatcher, in the grid's canonical
    /// order (seeds, policies, scenarios, SLO multipliers).
    fn cells_in_order(&self) -> Vec<(StreamSpec, SweepScenario, DispatchPolicy, u64, f64)> {
        let g = &self.grid;
        let mut cells = Vec::new();
        for &seed in &g.seeds {
            for &policy in &g.policies {
                for &sc in &g.scenarios {
                    for &slo in &g.slo_multipliers {
                        let spec = StreamSpec::steady_poisson(sc.scenario, sc.rate, slo)
                            .num_requests(g.requests)
                            .samples_per_variant(g.samples_per_variant)
                            .seed(seed);
                        cells.push((spec, sc, policy, seed, slo));
                    }
                }
            }
        }
        cells
    }
}

/// One op: the whole grid through `SweepGrid::run` on `workers`.
pub fn sweep_run(inputs: &SweepInputs, workers: usize) -> Timed<GridRows> {
    let run = timed(|| inputs.grid.run(workers));
    Timed {
        value: GridRows(run.value),
        secs: run.secs,
    }
}

fn sweep_row(
    report: &ClusterReport,
    sc: SweepScenario,
    policy: DispatchPolicy,
    seed: u64,
    slo: f64,
) -> SweepRow {
    SweepRow {
        scenario: sc.name.to_string(),
        policy: policy.name().to_string(),
        seed,
        rate: sc.rate,
        slo_multiplier: slo,
        antt: report.antt(),
        violation_rate: report.violation_rate(),
        goodput_rate: report.goodput_rate(),
        throughput_inf_s: report.throughput_inf_s(),
        completed: report.completed_total() as u64,
    }
}

/// One cell of a sequential replay.
pub struct ReplayCell {
    pub outcome: Outcome,
    pub store_secs: f64,
    pub run_secs: f64,
}

/// A sequential replay of the grid.
pub struct Replay {
    pub rows: GridRows,
    pub cells: Vec<ReplayCell>,
    /// Host seconds of the whole replay.
    pub secs: f64,
}

/// Replays the grid one cell at a time by direct calls to
/// `StreamSpec::build_store` and `simulate_cluster_stream`, the calls
/// each grid cell makes.
pub fn sweep_replay(inputs: &SweepInputs) -> Replay {
    let t0 = Instant::now();
    let mut rows = Vec::new();
    let mut cells = Vec::new();
    for (spec, sc, policy, seed, slo) in inputs.cells_in_order() {
        let store = timed(|| spec.build_store());
        let source = spec.source(&store.value);
        let mut dispatcher = policy.build();
        let run =
            timed(|| simulate_cluster_stream(source, dispatcher.as_mut(), &inputs.grid.config));
        rows.push(sweep_row(&run.value, sc, policy, seed, slo));
        cells.push(ReplayCell {
            outcome: Outcome::from_cluster(&run.value),
            store_secs: store.secs,
            run_secs: run.secs,
        });
    }
    Replay {
        rows: GridRows(rows),
        cells,
        secs: t0.elapsed().as_secs_f64(),
    }
}

/// The sequential replay, each cell materialized and traced with its
/// policies wrapped; phase times and policy statistics are summed over
/// cells.
pub struct TracedReplay {
    pub rows: GridRows,
    pub outcomes: Vec<Outcome>,
    /// Host seconds of the whole replay: stores, generation, and runs.
    pub secs: f64,
    pub run_secs: f64,
    pub profile: Profile,
    pub policy: Rc<PolicyStats>,
    pub generation_ns: u64,
    pub requests: u64,
}

pub fn sweep_replay_traced(inputs: &SweepInputs) -> TracedReplay {
    let t0 = Instant::now();
    let profile = Profile::default();
    let policy = Rc::new(PolicyStats::default());
    let mut rows = Vec::new();
    let mut outcomes = Vec::new();
    let mut run_secs = 0.0;
    let mut generation_ns = 0;
    let mut requests = 0;
    for (spec, sc, dispatch, seed, slo) in inputs.cells_in_order() {
        let store = spec.build_store();
        let generation = materialize(&spec, &store);
        let mut bundle = timed_policy(ClusterPolicy::from_dispatch(dispatch), &policy);
        let run = timed(|| {
            simulate_cluster_traced(
                &generation.workload,
                &mut bundle,
                &inputs.grid.config,
                &profile,
            )
        });
        rows.push(sweep_row(&run.value, sc, dispatch, seed, slo));
        outcomes.push(Outcome::from_cluster(&run.value));
        run_secs += run.secs;
        generation_ns += generation.ns;
        requests += generation.requests;
    }
    TracedReplay {
        rows: GridRows(rows),
        outcomes,
        secs: t0.elapsed().as_secs_f64(),
        run_secs,
        profile,
        policy,
        generation_ns,
        requests,
    }
}
