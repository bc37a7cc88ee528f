//! Records the repository's performance trajectory to `BENCH_engine.json`.
//!
//! Wall-clock measurements of the three hot paths the scheduling engine
//! is judged by — simulator throughput (layer events/sec), scheduler
//! decision cost (ns per `pick_next`), and the cluster sweep — tagged
//! with a label so successive PRs can diff perf against the recorded
//! history instead of re-deriving a baseline in a different environment.
//!
//! Usage: `record_bench <label> [path-to-BENCH_engine.json]`
//! Re-recording an existing label replaces that record in place.

use std::time::Instant;

use serde::{Deserialize, Serialize};

use dysta::cluster::{
    simulate_cluster, AcceleratorKind, ClusterBuilder, ClusterConfig, DispatchPolicy,
    FrontendConfig, MigrationConfig, StealConfig, TransferCostConfig,
};
use dysta::core::{ModelInfoLut, Policy, TaskQueue, TaskState};
use dysta::sim::{simulate, EngineConfig};
use dysta::workload::{Scenario, Workload, WorkloadBuilder};
use dysta_bench::mid_execution_tasks;

/// One simulator-throughput measurement cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct EngineRow {
    scenario: String,
    policy: String,
    events_per_sec: f64,
    sim_ms: f64,
}

/// One scheduler-decision-cost measurement cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct PickRow {
    policy: String,
    queue_len: usize,
    ns_per_pick: f64,
}

/// One labelled recording session (all cells measured back-to-back in
/// the same environment, so ratios within a record are meaningful).
#[derive(Debug, Clone, Serialize)]
struct BenchRecord {
    label: String,
    engine: Vec<EngineRow>,
    picks: Vec<PickRow>,
    cluster_sweep_ms: f64,
    /// Wall time of the serving-front-end sweep (batching + stealing +
    /// migration). `None` in records from before the front-end existed —
    /// hand-written `Deserialize` below keeps the old history parseable.
    cluster_serving_ms: Option<f64>,
    /// Wall time of a deadline-aware serving run: EDF dispatch with
    /// costed transfers on a capacity-heterogeneous pool. `None` in
    /// records from before the `ClusterPolicy` redesign.
    cluster_edf_ms: Option<f64>,
    /// Wall time of an admission-controlled serving run: load-shedding
    /// admission (per-request pool-wide slack projections at every
    /// batch dispatch) over EDF routing on the capacity-heterogeneous
    /// pool. `None` in records from before admission control existed.
    cluster_admission_ms: Option<f64>,
    /// Wall time of a fault-injected serving run: a transient crash and
    /// a brown-out window on the admission-cell pool with salvage,
    /// retry, and reneging all armed — the recovery machinery's full
    /// hot path. `None` in records from before fault injection existed.
    cluster_faults_ms: Option<f64>,
    /// Tracing overhead on the fastest engine path (the worst case for
    /// relative cost): the same run untraced, under a `NullTracer`
    /// (must compile away), and under a recording `RingTracer`. `None`
    /// in records from before the observability layer existed.
    trace_overhead: Option<TraceOverheadCell>,
    /// Wall time of 20 000 Dysta picks at q=256 served from the (since
    /// deleted) indexed pick heaps. Kept so older records still load;
    /// every scheduler now picks by its fold (the `picks` cell), so new
    /// records write `None`.
    pick_indexed_ms: Option<f64>,
    /// Wall time of the serving cell's workload (200 requests,
    /// batching + steal + migration armed) on a 1000-node pool where
    /// ~99% of nodes never see work — the event-queue core's
    /// idle-nodes-cost-nothing claim, measured. `None` in records
    /// from before the event-driven cluster loop existed.
    cluster_eventq_ms: Option<f64>,
    /// The open-loop workload generator's hot paths: streaming a
    /// million-request arrival process, and serving a streamed slice
    /// on a busy 64-node pool with the front-end holding only live
    /// state. `None` in records from before streaming generation
    /// existed.
    workload_stream: Option<WorkloadStreamCell>,
    /// Wall time of the fleet sweep grid (seed × policy × scenario,
    /// 40 cells) run sequentially (1 thread). `None` in records from
    /// before the parallel execution stack existed.
    fleet_sweep_seq_ms: Option<f64>,
    /// The same grid fanned over an 8-worker pool. The
    /// `fleet_sweep_seq_ms / fleet_sweep_ms` ratio is the recorded
    /// sweep speedup — ≥3× on a machine with ≥8 cores; on a
    /// single-core container the two are within noise (see
    /// EXPERIMENTS.md's scaling table for the caveat).
    fleet_sweep_ms: Option<f64>,
    /// Wall time of one busy serving run (16-node pool, overdriven
    /// traffic, steal+migrate armed) with the sequential advance loop.
    /// Kept so older records still load; the sharded advance it was
    /// compared against is gone, so new records write `None`.
    cluster_par_seq_ms: Option<f64>,
    /// The same run with the (since deleted) sharded advance on 8
    /// worker threads. `None` in new records.
    cluster_par_ms: Option<f64>,
}

/// The streaming-workload measurement cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct WorkloadStreamCell {
    /// Wall time to stream-generate 1 000 000 requests (two-phase
    /// steady -> flash-crowd profile; the trace store is built outside
    /// the timed region, so this is pure request generation).
    generate_1m_ms: f64,
    /// Requests generated per second in that run.
    generate_per_sec: f64,
    /// Wall time of a 10 000-request streamed serving slice on a busy
    /// 64-node pool (~80% of aggregate capacity, EDF dispatch).
    serve_64node_ms: f64,
    /// The front-end's in-flight high-water mark during that slice —
    /// the O(pool-backlog)-not-O(trace) memory claim, recorded.
    serve_peak_live: usize,
}

/// The tracing-overhead measurement cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct TraceOverheadCell {
    scenario: String,
    policy: String,
    base_ms: f64,
    null_tracer_ms: f64,
    ring_tracer_ms: f64,
    /// `(null − base) / base`, percent — statistical noise around 0.
    null_overhead_pct: f64,
    /// `(ring − base) / base`, percent — the number the < 2% target
    /// in EXPERIMENTS.md is judged on.
    ring_overhead_pct: f64,
}

impl serde::Deserialize for BenchRecord {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        // Optional fields absent from older records deserialize to
        // `None` so the recorded history stays parseable forever.
        let optional = |name: &str| -> Result<Option<f64>, serde::DeError> {
            match value.field(name) {
                Ok(v) => serde::Deserialize::from_value(v),
                Err(_) => Ok(None),
            }
        };
        Ok(BenchRecord {
            label: serde::Deserialize::from_value(value.field("label")?)?,
            engine: serde::Deserialize::from_value(value.field("engine")?)?,
            picks: serde::Deserialize::from_value(value.field("picks")?)?,
            cluster_sweep_ms: serde::Deserialize::from_value(value.field("cluster_sweep_ms")?)?,
            cluster_serving_ms: optional("cluster_serving_ms")?,
            cluster_edf_ms: optional("cluster_edf_ms")?,
            cluster_admission_ms: optional("cluster_admission_ms")?,
            cluster_faults_ms: optional("cluster_faults_ms")?,
            trace_overhead: match value.field("trace_overhead") {
                Ok(v) => serde::Deserialize::from_value(v)?,
                Err(_) => None,
            },
            pick_indexed_ms: optional("pick_indexed_ms")?,
            cluster_eventq_ms: optional("cluster_eventq_ms")?,
            workload_stream: match value.field("workload_stream") {
                Ok(v) => serde::Deserialize::from_value(v)?,
                Err(_) => None,
            },
            fleet_sweep_seq_ms: optional("fleet_sweep_seq_ms")?,
            fleet_sweep_ms: optional("fleet_sweep_ms")?,
            cluster_par_seq_ms: optional("cluster_par_seq_ms")?,
            cluster_par_ms: optional("cluster_par_ms")?,
        })
    }
}

/// The whole perf-trajectory file.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BenchFile {
    records: Vec<BenchRecord>,
}

/// Median wall time of `runs` executions of `f`, in seconds.
fn median_secs(runs: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up (page in traces, heat caches)
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn engine_workload(scenario: Scenario) -> Workload {
    WorkloadBuilder::new(scenario)
        .num_requests(200)
        .samples_per_variant(16)
        .seed(0)
        .build()
}

fn measure_engine(records: &mut Vec<EngineRow>) {
    for (name, scenario) in [
        ("multi_attnn", Scenario::MultiAttNn),
        ("multi_cnn", Scenario::MultiCnn),
    ] {
        let workload = engine_workload(scenario);
        let total_layers: u64 = workload
            .requests()
            .iter()
            .map(|r| workload.trace_for(r).num_layers() as u64)
            .sum();
        for policy in Policy::ALL {
            let secs = median_secs(7, || {
                std::hint::black_box(simulate(
                    std::hint::black_box(&workload),
                    policy.build().as_mut(),
                    &EngineConfig::default(),
                ));
            });
            records.push(EngineRow {
                scenario: name.to_string(),
                policy: policy.name().to_string(),
                events_per_sec: total_layers as f64 / secs,
                sim_ms: secs * 1e3,
            });
            println!(
                "engine {name:<12} {:<13} {:>10.0} events/s ({:.2} ms)",
                policy.name(),
                total_layers as f64 / secs,
                secs * 1e3
            );
        }
    }
}

fn measure_picks(records: &mut Vec<PickRow>) {
    for &queue_len in &[16usize, 64, 256] {
        let (tasks, lut) = mid_execution_tasks(queue_len);
        for policy in [
            Policy::Fcfs,
            Policy::Sjf,
            Policy::Prema,
            Policy::Planaria,
            Policy::Sdrm3,
            Policy::Dysta,
            Policy::Oracle,
        ] {
            let ns = time_picks(policy, &tasks, &lut);
            records.push(PickRow {
                policy: policy.name().to_string(),
                queue_len,
                ns_per_pick: ns,
            });
            println!(
                "pick   q={queue_len:<4} {:<13} {ns:>10.1} ns",
                policy.name()
            );
        }
    }
}

/// Mean ns per `pick_next` over an adaptively sized timed loop.
fn time_picks(policy: Policy, tasks: &[TaskState], lut: &ModelInfoLut) -> f64 {
    let mut sched = policy.build();
    for t in tasks {
        sched.on_arrival(t, lut, t.arrival_ns);
    }
    for _ in 0..1_000 {
        std::hint::black_box(sched.pick_next(
            std::hint::black_box(TaskQueue::dense(tasks)),
            lut,
            1_000_000,
        ));
    }
    let mut iters = 1_000u64;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(sched.pick_next(
                std::hint::black_box(TaskQueue::dense(tasks)),
                lut,
                1_000_000,
            ));
        }
        let elapsed = t.elapsed();
        if elapsed.as_millis() >= 50 {
            return elapsed.as_nanos() as f64 / iters as f64;
        }
        iters *= 4;
    }
}

fn measure_cluster_eventq() -> f64 {
    // The serving cell's traffic on a 1000-node pool: 200 requests
    // land on a handful of nodes while the rest stay idle forever.
    // Under the old per-tick scan loop every steal/migration tick
    // walked all 1000 nodes; the event-queue core with its live-set
    // only visits nodes that actually hold work, so this cell tracks
    // the idle-nodes-cost-nothing claim directly.
    let workload = WorkloadBuilder::new(Scenario::MultiCnn)
        .arrival_rate(12.0)
        .num_requests(200)
        .samples_per_variant(16)
        .seed(13)
        .build();
    let frontend = FrontendConfig {
        admit_batch: 4,
        admit_interval_ns: 20_000_000,
        steal: Some(StealConfig::default()),
        migration: Some(MigrationConfig::default()),
        ..FrontendConfig::default()
    };
    let secs = median_secs(3, || {
        let pool = ClusterBuilder::heterogeneous(500, 500, Policy::Dysta)
            .frontend(frontend)
            .build();
        std::hint::black_box(simulate_cluster(
            &workload,
            DispatchPolicy::SparsityAffinity.build().as_mut(),
            &pool,
        ));
    });
    println!(
        "cluster_eventq (1000 nodes mostly idle, batch+steal+migrate, 200 reqs): {:.1} ms",
        secs * 1e3
    );
    secs * 1e3
}

fn measure_cluster_sweep() -> f64 {
    // Workload/trace generation happens outside the timed region — the
    // recorded number tracks cluster *simulation* cost only. Sweeps the
    // original four dispatchers (`CLASSIC`) so the cell stays
    // like-for-like with the recorded history; EDF is timed separately
    // in `measure_cluster_edf`.
    let workload = WorkloadBuilder::new(Scenario::MultiCnn)
        .arrival_rate(12.0)
        .num_requests(200)
        .samples_per_variant(16)
        .seed(13)
        .build();
    let secs = median_secs(3, || {
        for dispatch in DispatchPolicy::CLASSIC {
            let config = ClusterConfig::homogeneous(4, AcceleratorKind::EyerissV2, Policy::Dysta);
            std::hint::black_box(simulate_cluster(
                &workload,
                dispatch.build().as_mut(),
                &config,
            ));
        }
    });
    println!(
        "cluster_sweep (4 nodes x 4 dispatchers x 200 reqs): {:.1} ms",
        secs * 1e3
    );
    secs * 1e3
}

fn measure_cluster_serving() -> f64 {
    // The serving front-end's hot path: admission batching plus steal
    // and migration passes on the pool shape that triggers them most
    // (CNN traffic + affinity on a heterogeneous pool).
    let workload = WorkloadBuilder::new(Scenario::MultiCnn)
        .arrival_rate(12.0)
        .num_requests(200)
        .samples_per_variant(16)
        .seed(13)
        .build();
    let frontend = FrontendConfig {
        admit_batch: 4,
        admit_interval_ns: 20_000_000,
        steal: Some(StealConfig::default()),
        migration: Some(MigrationConfig::default()),
        ..FrontendConfig::default()
    };
    let secs = median_secs(3, || {
        let pool = ClusterBuilder::heterogeneous(2, 2, Policy::Dysta)
            .frontend(frontend)
            .build();
        std::hint::black_box(simulate_cluster(
            &workload,
            DispatchPolicy::SparsityAffinity.build().as_mut(),
            &pool,
        ));
    });
    println!(
        "cluster_serving (2+2 nodes, batch+steal+migrate, 200 reqs): {:.1} ms",
        secs * 1e3
    );
    secs * 1e3
}

fn measure_cluster_edf() -> f64 {
    // The ClusterPolicy redesign's hot path: deadline-aware dispatch
    // (per-node slack projections on every routing decision) plus
    // costed steal/migration passes on a capacity-heterogeneous pool.
    let workload = WorkloadBuilder::new(Scenario::MultiCnn)
        .arrival_rate(12.0)
        .slo_multiplier(5.0)
        .num_requests(200)
        .samples_per_variant(16)
        .seed(13)
        .build();
    let secs = median_secs(3, || {
        let pool = ClusterBuilder::heterogeneous(2, 2, Policy::Dysta)
            .node_capacity(1, 0.5)
            .node_capacity(3, 0.5)
            .frontend(FrontendConfig::serving_costed())
            .transfer_cost(TransferCostConfig::default_costed())
            .build();
        std::hint::black_box(simulate_cluster(
            &workload,
            DispatchPolicy::EarliestDeadlineFirst.build().as_mut(),
            &pool,
        ));
    });
    println!(
        "cluster_edf (2+2 nodes, capacity-het, costed serving, 200 reqs): {:.1} ms",
        secs * 1e3
    );
    secs * 1e3
}

fn measure_cluster_admission() -> f64 {
    // Admission control's hot path: every batch dispatch projects the
    // request's slack on every node (feasibility for the reject side,
    // best headroom for the degrade side) before routing — measured
    // over the same capacity-heterogeneous pool as the EDF cell so the
    // two wall times are directly comparable.
    use dysta::cluster::{simulate_cluster_with, ClusterPolicy, SlackLoadShedding};
    let workload = WorkloadBuilder::new(Scenario::MultiCnn)
        .arrival_rate(12.0)
        .slo_multiplier(5.0)
        .num_requests(200)
        .samples_per_variant(16)
        .seed(13)
        .build();
    let secs = median_secs(3, || {
        let pool = ClusterBuilder::heterogeneous(2, 2, Policy::Dysta)
            .node_capacity(1, 0.5)
            .node_capacity(3, 0.5)
            .frontend(FrontendConfig::serving_costed())
            .transfer_cost(TransferCostConfig::default_costed())
            .build();
        let mut policy = ClusterPolicy::from_dispatch(DispatchPolicy::EarliestDeadlineFirst)
            .with_admission(Box::new(SlackLoadShedding::new()));
        std::hint::black_box(simulate_cluster_with(&workload, &mut policy, &pool));
    });
    println!(
        "cluster_admission (2+2 nodes, capacity-het, slack-load-shed + edf, 200 reqs): {:.1} ms",
        secs * 1e3
    );
    secs * 1e3
}

fn measure_cluster_faults() -> f64 {
    // The recovery machinery's hot path: a transient crash (salvage +
    // redispatch of everything queued on the dead node, then the
    // rejoin) plus a brown-out window, with queue-time reneging armed
    // so the migration pass re-projects slack every tick — on the same
    // capacity-heterogeneous pool and workload as the admission cell
    // so the wall times are directly comparable.
    use dysta::cluster::{FaultConfig, FaultSchedule, RecoveryConfig};
    let workload = WorkloadBuilder::new(Scenario::MultiCnn)
        .arrival_rate(12.0)
        .slo_multiplier(5.0)
        .num_requests(200)
        .samples_per_variant(16)
        .seed(13)
        .build();
    let faults = FaultConfig {
        schedule: FaultSchedule::new()
            .transient_crash(0, 1_500_000_000, 2_500_000_000)
            .brownout(2, 800_000_000, 2_000_000_000, 0.5),
        recovery: RecoveryConfig {
            salvage: true,
            max_retries: 2,
            reneging: true,
        },
    };
    let secs = median_secs(3, || {
        let pool = ClusterBuilder::heterogeneous(2, 2, Policy::Dysta)
            .node_capacity(1, 0.5)
            .node_capacity(3, 0.5)
            .frontend(FrontendConfig::serving_costed())
            .transfer_cost(TransferCostConfig::default_costed())
            .faults(faults.clone())
            .build();
        std::hint::black_box(simulate_cluster(
            &workload,
            DispatchPolicy::EarliestDeadlineFirst.build().as_mut(),
            &pool,
        ));
    });
    println!(
        "cluster_faults (2+2 nodes, crash+brownout, salvage+renege, 200 reqs): {:.1} ms",
        secs * 1e3
    );
    secs * 1e3
}

fn measure_fleet_sweep() -> (f64, f64) {
    // The fleet sweep grid at the quick experiment scale: 2 seeds x 5
    // dispatchers x 2 scenarios = 20 cells of 100 requests each, the
    // same grid `fleet_sweep` runs under DYSTA_QUICK=1. Timed once
    // sequentially and once fanned over 8 workers — the ratio is the
    // recorded sweep speedup. Rows are byte-identical either way, so
    // only the wall clock distinguishes the two cells.
    use dysta::cluster::{SweepGrid, SweepScenario};
    let grid = SweepGrid::new(ClusterConfig::heterogeneous(2, 2, Policy::Dysta))
        .seeds((0..2).map(|s| s * 7919 + 13).collect())
        .policies(DispatchPolicy::ALL.to_vec())
        .scenarios(vec![
            SweepScenario::new("multi_attnn", Scenario::MultiAttNn, 30.0),
            SweepScenario::new("multi_cnn", Scenario::MultiCnn, 3.0),
        ])
        .slo_multipliers(vec![10.0])
        .requests(100)
        .samples_per_variant(16);
    let seq = median_secs(3, || {
        std::hint::black_box(grid.run(1));
    });
    let par = median_secs(3, || {
        std::hint::black_box(grid.run(8));
    });
    println!(
        "fleet_sweep (20 cells x 100 reqs): seq {:.1} ms, 8 threads {:.1} ms ({:.2}x)",
        seq * 1e3,
        par * 1e3,
        seq / par,
    );
    (seq * 1e3, par * 1e3)
}

fn measure_workload_stream() -> WorkloadStreamCell {
    use dysta::cluster::simulate_cluster_stream;
    use dysta::workload::{ArrivalProcess, PhaseSpec, Popularity, SloModel, StreamSpec};

    // Generation: a million requests through a two-phase profile
    // (steady, then a flash crowd with Zipfian popularity) — every
    // process and popularity branch of the per-request hot loop. The
    // trace store is built once outside the timed region; the timed
    // closure is pure streaming generation.
    let spec = StreamSpec {
        phases: vec![
            PhaseSpec::steady(0, 2_000.0, Scenario::MultiCnn.mix(), SloModel::Fixed(10.0)),
            PhaseSpec {
                start_ns: 100_000_000_000,
                process: ArrivalProcess::FlashCrowd {
                    base_rate: 2_000.0,
                    peak_rate: 20_000.0,
                    start_s: 10.0,
                    duration_s: 20.0,
                },
                mix: Scenario::MultiCnn.mix(),
                popularity: Popularity::Zipfian { exponent: 1.0 },
                slo: SloModel::Fixed(10.0),
            },
        ],
        num_requests: 1_000_000,
        samples_per_variant: 16,
        seed: 13,
    };
    let store = spec.build_store();
    let secs = median_secs(3, || {
        let mut count = 0u64;
        for request in spec.source(&store) {
            std::hint::black_box(&request);
            count += 1;
        }
        assert_eq!(count, 1_000_000);
    });
    let generate_1m_ms = secs * 1e3;
    let generate_per_sec = 1_000_000.0 / secs;
    println!("workload_stream generate (1M requests, 2 phases): {generate_1m_ms:.1} ms ({generate_per_sec:.0} req/s)");

    // Serving: a 10k-request streamed slice on a busy 64-node pool at
    // ~80% of aggregate capacity, so every node works the whole run
    // while the backlog stays bounded. The recorded peak-live cell is
    // the memory claim: in-flight state tracks the pool's backlog
    // (hundreds), not the trace length (tens of thousands).
    let serve_spec = StreamSpec::steady_poisson(Scenario::MultiCnn, 150.0, 10.0)
        .num_requests(10_000)
        .samples_per_variant(16)
        .seed(13);
    let serve_store = serve_spec.build_store();
    let pool = ClusterConfig::homogeneous(64, AcceleratorKind::EyerissV2, Policy::Dysta);
    let mut peak_live = 0usize;
    let secs = median_secs(3, || {
        let report = simulate_cluster_stream(
            serve_spec.source(&serve_store),
            DispatchPolicy::EarliestDeadlineFirst.build().as_mut(),
            &pool,
        );
        assert_eq!(report.completed_total(), 10_000);
        peak_live = report.serving().peak_live_requests;
    });
    assert!(
        peak_live < 2_500,
        "front-end live state must stay O(pool backlog), not O(trace): \
         peak {peak_live} on a 10k-request stream"
    );
    let serve_64node_ms = secs * 1e3;
    println!(
        "workload_stream serve (64 nodes, 10k streamed reqs): {serve_64node_ms:.1} ms \
         (peak live {peak_live})"
    );
    WorkloadStreamCell {
        generate_1m_ms,
        generate_per_sec,
        serve_64node_ms,
        serve_peak_live: peak_live,
    }
}

fn measure_trace_overhead() -> TraceOverheadCell {
    use dysta::obs::{NullTracer, RingTracer};
    use dysta::sim::simulate_traced;
    // FCFS on the attention mix is the fastest engine configuration
    // (highest events/sec), so per-event tracing cost is most visible
    // there — the honest worst case for the relative overhead claim.
    // 5x the standard engine workload: the machine's run-to-run noise
    // floor is tens of microseconds, so a longer run keeps it well
    // under the percent-level signal being measured.
    let workload = WorkloadBuilder::new(Scenario::MultiAttNn)
        .num_requests(1000)
        .samples_per_variant(16)
        .seed(0)
        .build();
    let policy = Policy::Fcfs;
    let run_base = || {
        std::hint::black_box(simulate(
            std::hint::black_box(&workload),
            policy.build().as_mut(),
            &EngineConfig::default(),
        ));
    };
    let run_null = || {
        std::hint::black_box(simulate_traced(
            std::hint::black_box(&workload),
            policy.build().as_mut(),
            &EngineConfig::default(),
            NullTracer,
        ));
    };
    let tracer = RingTracer::new(1 << 20);
    let run_ring = || {
        tracer.clear();
        std::hint::black_box(simulate_traced(
            std::hint::black_box(&workload),
            policy.build().as_mut(),
            &EngineConfig::default(),
            &tracer,
        ));
    };
    // The per-event cost being measured is a few percent of the run
    // time, under this machine's drift (frequency states, co-tenancy)
    // across a whole measurement. Defense: run the three variants
    // back-to-back within each round and keep the per-round *ratios* —
    // drift slower than one round hits all three equally and divides
    // out — then take the median ratio across rounds.
    run_base();
    run_null();
    run_ring();
    let rounds = 60;
    let mut base_samples = Vec::with_capacity(rounds);
    let mut null_ratios = Vec::with_capacity(rounds);
    let mut ring_ratios = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t = Instant::now();
        run_base();
        let b = t.elapsed().as_secs_f64();
        let t = Instant::now();
        run_null();
        let n = t.elapsed().as_secs_f64();
        let t = Instant::now();
        run_ring();
        let r = t.elapsed().as_secs_f64();
        base_samples.push(b);
        null_ratios.push(n / b);
        ring_ratios.push(r / b);
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let base = median(&mut base_samples);
    let null = base * median(&mut null_ratios);
    let ring = base * median(&mut ring_ratios);
    let cell = TraceOverheadCell {
        scenario: "multi_attnn".to_string(),
        policy: policy.name().to_string(),
        base_ms: base * 1e3,
        null_tracer_ms: null * 1e3,
        ring_tracer_ms: ring * 1e3,
        null_overhead_pct: (null - base) / base * 100.0,
        ring_overhead_pct: (ring - base) / base * 100.0,
    };
    println!(
        "trace_overhead ({} {}): base {:.3} ms, null {:.3} ms ({:+.2}%), ring {:.3} ms ({:+.2}%)",
        cell.scenario,
        cell.policy,
        cell.base_ms,
        cell.null_tracer_ms,
        cell.null_overhead_pct,
        cell.ring_tracer_ms,
        cell.ring_overhead_pct,
    );
    cell
}

fn main() {
    let mut args = std::env::args().skip(1);
    let label = args.next().unwrap_or_else(|| "unlabelled".to_string());
    let path = args
        .next()
        .unwrap_or_else(|| "BENCH_engine.json".to_string());

    let mut engine = Vec::new();
    let mut picks = Vec::new();
    measure_engine(&mut engine);
    measure_picks(&mut picks);
    let cluster_sweep_ms = measure_cluster_sweep();
    let cluster_serving_ms = measure_cluster_serving();
    let cluster_edf_ms = measure_cluster_edf();
    let cluster_admission_ms = measure_cluster_admission();
    let cluster_faults_ms = measure_cluster_faults();
    let cluster_eventq_ms = measure_cluster_eventq();
    let workload_stream = measure_workload_stream();
    let trace_overhead = measure_trace_overhead();
    let (fleet_sweep_seq_ms, fleet_sweep_ms) = measure_fleet_sweep();

    let record = BenchRecord {
        label: label.clone(),
        engine,
        picks,
        cluster_sweep_ms,
        cluster_serving_ms: Some(cluster_serving_ms),
        cluster_edf_ms: Some(cluster_edf_ms),
        cluster_admission_ms: Some(cluster_admission_ms),
        cluster_faults_ms: Some(cluster_faults_ms),
        trace_overhead: Some(trace_overhead),
        pick_indexed_ms: None,
        cluster_eventq_ms: Some(cluster_eventq_ms),
        workload_stream: Some(workload_stream),
        fleet_sweep_seq_ms: Some(fleet_sweep_seq_ms),
        fleet_sweep_ms: Some(fleet_sweep_ms),
        cluster_par_seq_ms: None,
        cluster_par_ms: None,
    };

    // A malformed history file must abort, not be silently replaced —
    // overwriting would erase the recorded perf trajectory.
    let mut file: BenchFile = match std::fs::read_to_string(&path) {
        Ok(text) => serde_json::from_str(&text).unwrap_or_else(|e| {
            panic!("refusing to overwrite unparseable {path}: {e}");
        }),
        Err(_) => BenchFile {
            records: Vec::new(),
        },
    };
    file.records.retain(|r| r.label != label);
    file.records.push(record);
    let json = serde_json::to_string(&file).expect("bench record serializes");
    std::fs::write(&path, json + "\n").expect("bench file writes");
    println!("recorded `{label}` -> {path}");
}
