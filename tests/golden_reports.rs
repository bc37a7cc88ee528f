//! Golden-report regression suite: the experiments behind Tables 4–6,
//! Figs. 12–16 and the serving extensions, run in-process at quick scale
//! and pinned byte-for-byte against recorded JSON fixtures under
//! `tests/golden/`.
//!
//! Eleven fixtures pin the figure binaries' own cells: each test calls
//! the `dysta_bench::paper` or `dysta_bench::serving` function its binary
//! prints from, and keeps only the grid points it pins, the claims it
//! asserts and the fixture check (`table04_predictor_rmse`,
//! `table05_end2end`, `table06_overhead`, `fig12_tradeoff`,
//! `fig13_breakdown`, `fig14_slo_sweep`, `fig15_rate_sweep`,
//! `fig16_hw_resources`, `fig_admission`, `fig_faults`,
//! `fig_load_curve`). Four pin
//! configurations that only this suite runs: `cluster_sweep` (a small
//! dispatch and serving front-end grid), `trace_export` (the Perfetto
//! export of a small traced serving run), `trace_every_kind` (the
//! Perfetto export of a hand-built stream holding every event kind) and
//! `steal_classes` (costed steals onto thieves of different capacity
//! and fault state).
//!
//! Every run of the simulator is a pure function of its seed, so *exact*
//! equality is meaningful: any scheduling, dispatch, or front-end change
//! that shifts a single completion time shows up as a fixture diff. To
//! accept an intentional behavior change, regenerate the fixtures with
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test golden_reports
//! ```
//!
//! and review the diff like any other code change.

use dysta::cluster::{
    simulate_cluster, BacklogGainSteal, ClusterBuilder, ClusterConfig, ClusterPolicy,
    DispatchContext, DispatchPolicy, FrontendConfig, MigrationConfig, StealCandidate, StealConfig,
    StealPolicy,
};
use dysta::core::Policy;
use dysta::obs::NullTracer;
use dysta::workload::{Scenario, WorkloadBuilder};
use dysta_bench::paper::{self, OPERATING_POINTS, SWEEP_POLICIES};
use dysta_bench::serving;
use dysta_bench::Scale;
use serde::Serialize;

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares (or, under `UPDATE_GOLDEN=1`, records) one serialized report
/// against its fixture.
fn check_golden(name: &str, current: &str) {
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDEN")
        .map(|v| v == "1")
        .unwrap_or(false)
    {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir golden");
        std::fs::write(&path, format!("{current}\n")).expect("write fixture");
        return;
    }
    let recorded = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); record it with \
             `UPDATE_GOLDEN=1 cargo test --test golden_reports`",
            path.display()
        )
    });
    assert_eq!(
        current,
        recorded.trim_end(),
        "\n`{name}` drifted from its golden fixture. If the change is \
         intentional, regenerate with `UPDATE_GOLDEN=1 cargo test --test \
         golden_reports` and commit the diff."
    );
}

// --- table04_predictor_rmse (quick mode) ---------------------------------

/// Pins the `table04_predictor_rmse` binary's rows and the paper's claim
/// behind them: the cheap last-one coefficient predicts about as well as
/// averaging over every executed layer. On BERT and GPT-2, last-one's
/// RMSE stays within 5% of average-all's.
#[test]
fn golden_table04_predictor_rmse_quick() {
    let rows = paper::table04_rows(Scale::quick());
    for row in &rows {
        assert!(
            (row.last_one - row.average_all).abs() <= 0.05 * row.average_all,
            "{}: last-one RMSE {} vs average-all {}",
            row.model,
            row.last_one,
            row.average_all
        );
    }
    let json = serde_json::to_string(&rows).expect("rows serialize");
    check_golden("table04_predictor_rmse.json", &json);
}

// --- fig16_hw_resources ---------------------------------------------------

/// Pins the `fig16_hw_resources` binary's rows and the paper's claim:
/// at both request depths, each optimization cuts LUTs, FFs and DSPs,
/// so `Opt_FP16` < `Opt_FP32` < `Non_Opt_FP32` on all three.
#[test]
fn golden_fig16_hw_resources() {
    let rows = paper::fig16_rows();
    for depth in paper::FIG16_DEPTHS {
        let [non, opt32, opt16] = ["Non_Opt_FP32", "Opt_FP32", "Opt_FP16"].map(|label| {
            let r = rows
                .iter()
                .find(|r| r.depth == depth && r.design == label)
                .unwrap_or_else(|| panic!("no {label} row at depth {depth}"));
            [r.luts, r.ffs, r.dsps]
        });
        for (i, name) in ["LUTs", "FFs", "DSPs"].into_iter().enumerate() {
            assert!(
                opt16[i] < opt32[i] && opt32[i] < non[i],
                "depth {depth} {name}: Opt_FP16 {} / Opt_FP32 {} / Non_Opt_FP32 {}",
                opt16[i],
                opt32[i],
                non[i]
            );
        }
    }
    let json = serde_json::to_string(&rows).expect("rows serialize");
    check_golden("fig16_hw_resources.json", &json);
}

// --- table06_overhead ----------------------------------------------------

/// Pins the `table06_overhead` binary's table and the paper's claim: the
/// scheduler adds under 2% to Eyeriss-V2's LUTs, DSPs and on-chip RAM.
#[test]
fn golden_table06_overhead() {
    let table = paper::table06();
    for (name, pct) in [
        ("LUT", table.lut_pct),
        ("DSP", table.dsp_pct),
        ("RAM", table.ram_pct),
    ] {
        assert!(pct < 2.0, "{name} overhead {pct}% is not below 2%");
    }
    let json = serde_json::to_string(&table).expect("table serializes");
    check_golden("table06_overhead.json", &json);
}

// --- table05_end2end (quick mode) ----------------------------------------

#[test]
fn golden_table05_end2end_quick() {
    let rows = paper::table05_rows(Scale::quick());
    let json = serde_json::to_string(&rows).expect("rows serialize");
    check_golden("table05_end2end.json", &json);
}

// --- fig12_tradeoff (quick mode) ------------------------------------------

/// The `fig12_tradeoff` binary's experiment grid (both scenarios at
/// both arrival rates, full Table 5 policy set, SLO ×10) pinned at
/// quick scale.
#[test]
fn golden_fig12_tradeoff_quick() {
    let rows = paper::fig12_rows(Scale::quick());

    // Acceptance: the binary's headline — Dysta sits on the Pareto
    // frontier of every plane (no policy beats it on both axes).
    for (scenario, _, rate) in paper::FIG12_POINTS {
        let plane: Vec<_> = rows
            .iter()
            .filter(|r| r.scenario == scenario && r.rate == rate)
            .collect();
        let dysta = plane
            .iter()
            .find(|r| r.policy == Policy::Dysta.name())
            .expect("dysta in set");
        for row in &plane {
            assert!(
                row.antt >= dysta.antt - 1e-9 || row.violation_rate >= dysta.violation_rate - 1e-9,
                "{scenario}@{rate}: {} dominates Dysta on both axes",
                row.policy
            );
        }
    }

    let json = serde_json::to_string(&rows).expect("rows serialize");
    check_golden("fig12_tradeoff.json", &json);
}

// --- fig13_breakdown (quick mode) -----------------------------------------

/// The `fig13_breakdown` binary's experiment (PREMA vs static-only
/// Dysta vs full Dysta at the paper's operating points, SLO ×10)
/// pinned at quick scale.
#[test]
fn golden_fig13_breakdown_quick() {
    let rows = paper::fig13_rows(Scale::quick());
    // Acceptance: the binary's headline — full Dysta improves ANTT over
    // PREMA (the breakdown's total gain is positive).
    for (name, _, _) in OPERATING_POINTS {
        let plane: Vec<_> = rows.iter().filter(|r| r.scenario == name).collect();
        assert!(
            plane[2].antt <= plane[0].antt,
            "{name}: full Dysta ANTT {} worse than PREMA {}",
            plane[2].antt,
            plane[0].antt
        );
    }
    let json = serde_json::to_string(&rows).expect("rows serialize");
    check_golden("fig13_breakdown.json", &json);
}

// --- cluster_sweep + serving front-end (quick mode) -----------------------

#[derive(Debug, Serialize, PartialEq)]
struct ClusterCell {
    pool: String,
    nodes: usize,
    dispatch: String,
    frontend: String,
    antt: f64,
    violation_rate: f64,
    throughput_inf_s: f64,
    load_imbalance: f64,
    p50_ns: u64,
    p90_ns: u64,
    p99_ns: u64,
    steals: u64,
    migrations: u64,
    mean_admission_wait_ns: f64,
}

fn cell(
    pool_name: &str,
    config: &ClusterConfig,
    dispatch: DispatchPolicy,
    frontend_name: &str,
    workload: &dysta::workload::Workload,
) -> ClusterCell {
    let report = simulate_cluster(
        workload.source(),
        &mut ClusterPolicy::from_dispatch(dispatch),
        config,
        NullTracer,
    );
    let p = report.latency_percentiles();
    ClusterCell {
        pool: pool_name.to_string(),
        nodes: config.len(),
        dispatch: dispatch.name().to_string(),
        frontend: frontend_name.to_string(),
        antt: report.antt(),
        violation_rate: report.violation_rate(),
        throughput_inf_s: report.throughput_inf_s(),
        load_imbalance: report.load_imbalance(),
        p50_ns: p.p50_ns,
        p90_ns: p.p90_ns,
        p99_ns: p.p99_ns,
        steals: report.serving().steals,
        migrations: report.serving().migrations,
        mean_admission_wait_ns: report.mean_admission_wait_ns(),
    }
}

#[test]
fn golden_cluster_sweep_quick() {
    use dysta::cluster::AcceleratorKind;

    let mut cells = Vec::new();

    // The bench sweep's homogeneous shape at smoke scale: the original
    // four dispatch policies on identical request streams (EDF is pinned
    // separately in the fig14 fixture, keeping this file byte-identical
    // across the ClusterPolicy redesign).
    let cnn = WorkloadBuilder::new(Scenario::MultiCnn)
        .arrival_rate(12.0)
        .num_requests(100)
        .samples_per_variant(8)
        .seed(13)
        .build();
    let eyeriss_pool = ClusterConfig::homogeneous(4, AcceleratorKind::EyerissV2, Policy::Dysta);
    for dispatch in DispatchPolicy::CLASSIC {
        cells.push(cell(
            "eyeriss-x4",
            &eyeriss_pool,
            dispatch,
            "immediate",
            &cnn,
        ));
    }

    // The serving front-end on the acceptance scenario: CNN-only traffic
    // on a heterogeneous pool under affinity dispatch — steal-disabled
    // baseline, steal-enabled, and the full serving stack.
    let het_base = ClusterConfig::heterogeneous(2, 2, Policy::Dysta);
    let het_steal = ClusterBuilder::heterogeneous(2, 2, Policy::Dysta)
        .frontend(FrontendConfig {
            steal: Some(StealConfig::default()),
            ..FrontendConfig::default()
        })
        .build();
    let het_serving = ClusterBuilder::heterogeneous(2, 2, Policy::Dysta)
        .frontend(FrontendConfig {
            admit_batch: 4,
            admit_interval_ns: 20_000_000,
            steal: Some(StealConfig::default()),
            migration: Some(MigrationConfig::default()),
            ..FrontendConfig::default()
        })
        .build();
    let affinity = DispatchPolicy::SparsityAffinity;
    cells.push(cell("het-2+2", &het_base, affinity, "immediate", &cnn));
    cells.push(cell("het-2+2", &het_steal, affinity, "steal", &cnn));
    cells.push(cell(
        "het-2+2",
        &het_serving,
        affinity,
        "batch+steal+migrate",
        &cnn,
    ));

    // The acceptance criterion rides on the same cells: with affinity
    // dispatch on a heterogeneous pool, stealing strictly reduces load
    // imbalance and does not regress ANTT vs the steal-disabled baseline.
    let baseline = &cells[cells.len() - 3];
    let stealing = &cells[cells.len() - 2];
    assert!(stealing.steals > 0);
    assert!(
        stealing.load_imbalance < baseline.load_imbalance,
        "steal imbalance {} vs baseline {}",
        stealing.load_imbalance,
        baseline.load_imbalance
    );
    assert!(
        stealing.antt <= baseline.antt,
        "steal ANTT {} vs baseline {}",
        stealing.antt,
        baseline.antt
    );

    let json = serde_json::to_string(&cells).expect("cells serialize");
    check_golden("cluster_sweep.json", &json);
}

// --- trace_export ---------------------------------------------------------

/// Pins the Perfetto trace export byte-for-byte on a small serving
/// scenario that exercises the full event vocabulary: batched
/// admission, steals, migrations, preemptive execution, completions.
/// Any change to the event stream *or* the exporter shows up as a
/// fixture diff; regenerate intentionally changed fixtures with
/// `UPDATE_GOLDEN=1 cargo test --test golden_reports`.
#[test]
fn golden_trace_export() {
    use dysta::obs::RingTracer;

    let w = WorkloadBuilder::new(Scenario::MultiCnn)
        .arrival_rate(9.0)
        .num_requests(12)
        .samples_per_variant(4)
        .seed(23)
        .build();
    let pool = ClusterBuilder::heterogeneous(1, 1, Policy::Dysta)
        .frontend(FrontendConfig {
            admit_batch: 3,
            admit_interval_ns: 25_000_000,
            steal: Some(StealConfig::default()),
            migration: Some(MigrationConfig::default()),
            ..FrontendConfig::default()
        })
        .build();
    let mut policy = ClusterPolicy::from_dispatch(DispatchPolicy::SparsityAffinity);
    let tracer = RingTracer::new(1 << 14);
    let report = simulate_cluster(w.source(), &mut policy, &pool, &tracer);
    assert_eq!(report.completed_total(), 12);
    assert_eq!(tracer.dropped(), 0, "fixture scenario must fit the ring");
    tracer.validate().expect("well-formed event stream");

    let json = tracer.perfetto_json();
    // The export must survive a JSON round-trip (what ui.perfetto.dev
    // and the CI smoke check will do to it).
    serde_json::from_str(&json).expect("export parses");
    check_golden("trace_export.json", &json);
}

// --- trace_every_kind -----------------------------------------------------

/// Pins how the Perfetto export draws every event kind, on a hand-built
/// stream no simulated run has to produce: each of the 21 kinds at
/// least once, a labelled arrival → dispatch → completion chain (flows
/// and slice labels), an arrival whose label id is unknown, a violated
/// completion, negative slack, node-scoped fault windows opening and
/// closing, and events on the front-end track and on an unnamed node.
#[test]
fn golden_trace_every_kind() {
    use dysta::obs::{perfetto_json, EventKind as K, TraceEvent, NODE_FRONTEND, REQ_NONE};

    const FE: u32 = NODE_FRONTEND;
    const NONE: u64 = REQ_NONE;
    let e = |t_ns, request, node, kind, a, b| TraceEvent {
        t_ns,
        request,
        node,
        kind,
        a,
        b,
    };
    let events = vec![
        e(0, 1, FE, K::Arrival, 0, 5_000_000),
        e(50, 2, FE, K::Arrival, 1, 3_000_000),
        e(60, 3, FE, K::Arrival, 99, 1_000),
        e(70, 4, FE, K::Arrival, 0, 8_000_000),
        e(80, 5, FE, K::Arrival, 1, 2_000_000),
        e(90, 6, FE, K::Arrival, 1, 9_000_000),
        e(100, 1, FE, K::Admit, 100, 0),
        e(100, 1, 0, K::Dispatch, 1, 4_999_900),
        e(120, 2, FE, K::AdmitDegrade, 70, 6_000_000),
        e(120, 2, 0, K::Dispatch, 2, 5_999_880),
        e(150, NONE, 0, K::SlackProjection, 2, 2_500_000),
        e(150, NONE, 1, K::SlackProjection, 0, 0),
        e(160, 3, FE, K::AdmitReject, 100, 0),
        e(170, 4, FE, K::Admit, 100, 0),
        e(170, 4, 1, K::Dispatch, 1, 7_999_830),
        e(180, 5, FE, K::Admit, 100, 0),
        e(180, 5, 2, K::Dispatch, 1, 1_999_820),
        e(190, 6, FE, K::Admit, 100, 0),
        e(190, 6, 2, K::Dispatch, 2, -10),
        e(200, 1, 0, K::Segment, 700, 3),
        e(300, 2, 0, K::MigrationOffer, 0, 0),
        e(300, 2, 0, K::MigrationReject, 0, 0),
        e(400, 4, 1, K::MigrationOffer, 1, 0),
        e(400, 4, 1, K::MigrationAccept, 0, 25_000),
        e(450, 5, 2, K::Renege, 270, -50),
        e(500, NONE, 1, K::NodeDown, 1, 900),
        e(500, 4, 1, K::Salvage, 0, 1_000),
        e(500, 4, 0, K::Retry, 1, 30_000),
        e(550, NONE, 0, K::Brownout, 500_000, 2_000),
        e(560, NONE, 2, K::TransferStall, 4_000_000, 3_000),
        e(700, 2, 0, K::Preemption, 1, 20),
        e(720, 2, 0, K::Segment, 900, 2),
        e(900, NONE, 1, K::NodeUp, 0, 0),
        e(900, 1, 0, K::Segment, 1_000, 1),
        e(950, 2, 1, K::Steal, 0, 15_000),
        e(1_000, 1, 0, K::Completion, 0, 4_000_000),
        e(1_000, 2, 1, K::Segment, 1_200, 1),
        e(1_200, 2, 1, K::Completion, 1, -200),
        e(2_000, NONE, 0, K::Brownout, 1_000_000, 0),
        e(2_600, NONE, 2, K::NodeDown, 0, -1),
        e(2_600, 6, 2, K::Salvage, 1, 0),
        e(2_600, 6, FE, K::Failed, 1, 0),
        e(3_000, NONE, 2, K::TransferStall, 1_000_000, 0),
    ];
    for kind in K::ALL {
        assert!(
            events.iter().any(|ev| ev.kind == kind),
            "{} missing from the stream",
            kind.name()
        );
    }
    let labels = ["resnet50@eyeriss".to_string(), "bert@sanger".to_string()];
    let nodes = [
        (0, "node0 EyerissV2".to_string()),
        (1, "node1 Sanger".to_string()),
    ];

    let json = perfetto_json(&events, &labels, &nodes);
    serde_json::from_str(&json).expect("export parses");
    check_golden("trace_every_kind.json", &json);
}

// --- steal_classes ----------------------------------------------------------

/// One applied steal, as the traced run records it.
#[derive(Serialize)]
struct StealRow {
    t_ns: u64,
    request: u64,
    thief: u32,
    victim: u64,
    fetch_ns: i64,
}

/// One node's transfer accounting at the end of the run.
#[derive(Serialize)]
struct TransferRow {
    node: usize,
    transferred_in: usize,
    transferred_out: usize,
    transfer_fetch_ns: u64,
}

#[derive(Serialize)]
struct StealClassesGolden {
    steals: Vec<StealRow>,
    nodes: Vec<TransferRow>,
}

/// The `steal_classes` brown-outs: (node, from, until, factor).
const STEAL_BROWNOUTS: [(usize, u64, u64, f64); 2] = [
    (3, 500_000_000, 3_000_000_000, 0.5),
    (4, 200_000_000, 1_000_000_000, 0.001),
];
/// The `steal_classes` transfer stalls: (node, from, until, factor).
const STEAL_STALLS: [(usize, u64, u64, f64); 1] = [(4, 1_000_000_000, 3_000_000_000, 10_000.0)];

/// Runs the `steal_classes` configuration with `steal` as its steal
/// policy. On a 3+3 pool whose first node of each family runs at half
/// capacity, an overdriven CNN stream under affinity dispatch leaves
/// the Sanger nodes idle, so they steal from the Eyeriss side. Node 3
/// browns out to half while it steals. Node 4 browns out to 0.1% and
/// then stalls its transfers ×10⁴, so it declines candidates that node
/// 5 takes; the two share a thief class only while node 4's windows are
/// closed. Returns the pool, the report and every applied steal.
fn run_steal_classes(
    steal: Box<dyn StealPolicy>,
) -> (ClusterConfig, dysta::cluster::ClusterReport, Vec<StealRow>) {
    use dysta::cluster::{FaultConfig, FaultSchedule, TransferCostConfig};
    use dysta::obs::{EventKind, RingTracer};

    let w = WorkloadBuilder::new(Scenario::MultiCnn)
        .arrival_rate(60.0)
        .num_requests(160)
        .samples_per_variant(8)
        .seed(31)
        .build();
    let mut schedule = FaultSchedule::new();
    for (node, from, until, factor) in STEAL_BROWNOUTS {
        schedule = schedule.brownout(node, from, until, factor);
    }
    for (node, from, until, factor) in STEAL_STALLS {
        schedule = schedule.transfer_stall(node, from, until, factor);
    }
    let pool = ClusterBuilder::heterogeneous(3, 3, Policy::Dysta)
        .node_capacity(0, 0.5)
        .node_capacity(3, 0.5)
        .frontend(FrontendConfig::serving_costed())
        .transfer_cost(TransferCostConfig::default_costed())
        .faults(FaultConfig {
            schedule,
            ..FaultConfig::default()
        })
        .build();
    let mut policy = ClusterPolicy::from_dispatch(DispatchPolicy::SparsityAffinity);
    policy.steal = steal;
    let tracer = RingTracer::new(1 << 16);
    let report = simulate_cluster(w.source(), &mut policy, &pool, &tracer);
    assert_eq!(tracer.dropped(), 0, "fixture scenario must fit the ring");

    let steals: Vec<StealRow> = tracer
        .events()
        .into_iter()
        .filter(|e| e.kind == EventKind::Steal)
        .map(|e| StealRow {
            t_ns: e.t_ns,
            request: e.request,
            thief: e.node,
            victim: e.a,
            fetch_ns: e.b,
        })
        .collect();
    assert_eq!(steals.len() as u64, report.serving().steals);
    (pool, report, steals)
}

/// `thief`'s steal-pricing class at `t` in the `steal_classes` pool:
/// accelerator, capacity bits, and the factor bits of its open
/// brown-out and transfer stall.
fn steal_class_at(
    pool: &ClusterConfig,
    thief: usize,
    t: u64,
) -> (&'static str, u64, Option<u64>, Option<u64>) {
    let open = |windows: &[(usize, u64, u64, f64)]| {
        windows
            .iter()
            .find(|&&(node, from, until, _)| node == thief && (from..until).contains(&t))
            .map(|w| w.3.to_bits())
    };
    let nc = &pool.nodes[thief];
    (
        nc.accelerator.name(),
        nc.capacity.to_bits(),
        open(&STEAL_BROWNOUTS),
        open(&STEAL_STALLS),
    )
}

/// The `steal_classes` fixture: the run's steals and every node's
/// transfer accounting, serialized.
fn steal_classes_json(report: &dysta::cluster::ClusterReport, steals: Vec<StealRow>) -> String {
    let nodes = report
        .nodes()
        .iter()
        .map(|n| TransferRow {
            node: n.node_id,
            transferred_in: n.transferred_in,
            transferred_out: n.transferred_out,
            transfer_fetch_ns: n.transfer_fetch_ns,
        })
        .collect();
    serde_json::to_string(&StealClassesGolden { steals, nodes }).expect("steal rows serialize")
}

/// Pins costed steals onto thieves that differ in what a steal price
/// reads from the thief: capacity, an open brown-out and an open
/// transfer stall (see [`run_steal_classes`]). Every steal (time,
/// request, thief, victim, fetch cost) and every node's transfer
/// accounting is pinned.
#[test]
fn golden_steal_classes() {
    let (pool, report, steals) = run_steal_classes(Box::new(BacklogGainSteal::new()));

    // The fixture must exercise distinct thief classes, including one
    // priced under an open fault window on the thief.
    let classes: std::collections::BTreeSet<_> = steals
        .iter()
        .map(|s| steal_class_at(&pool, s.thief as usize, s.t_ns))
        .collect();
    assert!(classes.len() >= 3, "steals reach only {classes:?}");
    assert!(
        classes.iter().any(|c| c.2.is_some() || c.3.is_some()),
        "no steal lands under an open fault window: {classes:?}"
    );
    check_golden("steal_classes.json", &steal_classes_json(&report, steals));
}

/// [`BacklogGainSteal`] that logs every `choose` call as
/// (decision instant, thief, whether it picked a candidate).
struct CountingSteal(std::rc::Rc<std::cell::RefCell<Vec<(u64, usize, bool)>>>);

impl StealPolicy for CountingSteal {
    fn name(&self) -> &str {
        BacklogGainSteal.name()
    }

    fn choose(
        &self,
        thief: usize,
        candidates: &[StealCandidate],
        ctx: &DispatchContext<'_>,
        cfg: &StealConfig,
    ) -> Option<usize> {
        let pick = BacklogGainSteal.choose(thief, candidates, ctx, cfg);
        self.0
            .borrow_mut()
            .push((ctx.now_ns, thief, pick.is_some()));
        pick
    }
}

/// Pins how often the steal pass asks its policy on the
/// `steal_classes` pool, where several idle thieves share a class
/// (the full-capacity Eyeriss nodes 1 and 2, and Sanger nodes 4 and 5
/// while node 4's windows are closed). The pass asks once per thief
/// class per view snapshot: no class is asked twice within one pass
/// between two applied steals, except by the debug builds' check,
/// which re-asks every skipped thief and must get `None`. Counting the
/// calls changes nothing: the run still matches the fixture.
#[test]
fn steal_pass_asks_once_per_thief_class() {
    let calls = std::rc::Rc::default();
    let (pool, report, steals) =
        run_steal_classes(Box::new(CountingSteal(std::rc::Rc::clone(&calls))));
    check_golden("steal_classes.json", &steal_classes_json(&report, steals));

    // Replay the log: a pass is one decision instant, and an applied
    // steal starts a new snapshot.
    let calls = calls.borrow();
    let (mut asks, mut reasks) = (0, 0);
    let mut asked = Vec::new();
    let mut pass = None;
    for &(t, thief, stole) in calls.iter() {
        if pass != Some(t) {
            pass = Some(t);
            asked.clear();
        }
        let class = steal_class_at(&pool, thief, t);
        if asked.contains(&class) {
            assert!(
                !stole,
                "thief {thief} at {t} stole after its class declined"
            );
            reasks += 1;
            continue;
        }
        asks += 1;
        if stole {
            asked.clear();
        } else {
            asked.push(class);
        }
    }
    // Asking every drained thief, as the pass did before it asked per
    // class, makes asks + the debug re-asks = 2 142 calls.
    assert_eq!(asks, 1610, "policy asks, one per class and snapshot");
    assert_eq!(
        reasks,
        if cfg!(debug_assertions) { 532 } else { 0 },
        "only the debug check re-asks a class that declined"
    );
}

// --- fig_admission (quick mode) -------------------------------------------

/// Pins the admission-control configuration and its acceptance
/// criterion: on the fig14 2+2 capacity-heterogeneous pool at tight
/// SLOs (FCFS node scheduling, where doomed head-of-queue work really
/// blocks feasible work), `InfeasibleEverywhere` strictly reduces the
/// violation rate among admitted requests with goodput no worse than
/// admit-all, and `SlackLoadShedding` cuts violations further by
/// re-classing thin-headroom admissions.
#[test]
fn golden_fig_admission_quick() {
    let cells = serving::admission_cells(Scale::quick());

    // Acceptance: for both dispatchers, rejecting doomed work strictly
    // reduces the violation rate among admitted requests with goodput
    // no worse than admit-all; load shedding cuts violations at least
    // as far again via degraded re-classing. AdmitAll must be a true
    // no-op control (nothing rejected, nothing degraded, everything
    // completed).
    let cell = |dispatch: &str, admission: &str| {
        cells
            .iter()
            .find(|c| c.dispatch == dispatch && c.admission == admission)
            .expect("cell exists")
    };
    for dispatch in ["affinity", "edf"] {
        let all = cell(dispatch, "admit-all");
        let reject = cell(dispatch, "infeasible-everywhere");
        let shed = cell(dispatch, "slack-load-shed");
        assert_eq!(all.rejected, 0);
        assert_eq!(all.degraded, 0);
        assert_eq!(
            all.completed,
            Scale::quick().requests * Scale::quick().seeds as usize
        );
        assert!(
            reject.violation_rate < all.violation_rate,
            "{dispatch}: reject viol {} vs admit-all {}",
            reject.violation_rate,
            all.violation_rate
        );
        assert!(
            reject.goodput >= all.goodput,
            "{dispatch}: reject goodput {} vs admit-all {}",
            reject.goodput,
            all.goodput
        );
        assert!(reject.rejected > 0, "{dispatch}: rejection must engage");
        assert!(
            shed.violation_rate <= reject.violation_rate,
            "{dispatch}: shed viol {} vs reject {}",
            shed.violation_rate,
            reject.violation_rate
        );
        assert!(shed.degraded > 0, "{dispatch}: degrading must engage");
        assert!(
            shed.goodput >= all.goodput,
            "{dispatch}: shed goodput {} vs admit-all {}",
            shed.goodput,
            all.goodput
        );
    }

    let json = serde_json::to_string(&cells).expect("admission cells serialize");
    check_golden("fig_admission.json", &json);
}

// --- fig_faults (quick mode) ----------------------------------------------

/// Pins the fault-injection configuration and its acceptance criterion:
/// on the fig_admission pool (2+2 capacity-heterogeneous, FCFS node
/// scheduling) under the serving front-end, with one mid-stream
/// transient crash and one brown-out window, salvage-and-redispatch
/// plus reneging strictly improves goodput and loses strictly fewer
/// requests than a recovery-disabled pool facing the same schedule.
/// Every run must also conserve requests (`fault_cells` asserts it per
/// seed).
#[test]
fn golden_fig_faults_quick() {
    let cells = serving::fault_cells(Scale::quick());

    // Acceptance: for both dispatchers, recovery strictly improves
    // goodput over letting the crash take its queue down, and the
    // crash must really strand work in both configurations.
    let cell = |dispatch: &str, recovery: &str| {
        cells
            .iter()
            .find(|c| c.dispatch == dispatch && c.recovery == recovery)
            .expect("cell exists")
    };
    for dispatch in ["affinity", "edf"] {
        let on = cell(dispatch, "salvage+renege");
        let off = cell(dispatch, "none");
        assert!(on.salvaged > 0, "{dispatch}: crash must strand work");
        assert!(off.failed > 0, "{dispatch}: no-recovery must lose work");
        assert!(
            on.failed < off.failed,
            "{dispatch}: recovery failed {} vs none {}",
            on.failed,
            off.failed
        );
        assert!(
            on.goodput > off.goodput,
            "{dispatch}: recovery goodput {} vs none {}",
            on.goodput,
            off.goodput
        );
        assert!(
            on.goodput_rate > off.goodput_rate,
            "{dispatch}: recovery goodput_rate {} vs none {}",
            on.goodput_rate,
            off.goodput_rate
        );
    }

    let json = serde_json::to_string(&cells).expect("fault cells serialize");
    check_golden("fig_faults.json", &json);
}

// --- fig14_slo_sweep (quick mode) -----------------------------------------

/// The fig14 fixture: both sections of the binary in one file.
#[derive(Serialize)]
struct Fig14Golden {
    single_node: Vec<paper::SloRow>,
    cluster_edf: Vec<serving::EdfClusterCell>,
}

/// Pins the deadline-flavored `fig14_slo_sweep` configuration: the
/// single-accelerator SLO sweep at the ends of the multiplier range,
/// plus the cluster EDF section (the first client of the
/// `ClusterPolicy` redesign) at its two tightest multipliers. The
/// acceptance criterion for deadline-aware dispatch rides on the same
/// cells.
#[test]
fn golden_fig14_slo_sweep_quick() {
    let scale = Scale::quick();
    let single_node = paper::fig14_rows(&OPERATING_POINTS, &[10.0, 150.0], scale);
    let cluster_edf = serving::edf_cells(&[3.0, 5.0], scale);

    // Acceptance: at the tight multiplier deadline-aware dispatch
    // strictly reduces the violation rate vs both jsq and affinity with
    // ANTT no more than 10% worse; at the looser one it never does
    // worse than either.
    let cell = |dispatch: &str, m: f64| {
        cluster_edf
            .iter()
            .find(|c| c.dispatch == dispatch && c.slo_multiplier == m)
            .expect("cell exists")
    };
    for m in [3.0, 5.0] {
        let jsq = cell("jsq", m);
        let affinity = cell("affinity", m);
        let edf = cell("edf", m);
        assert!(
            edf.violation_rate <= affinity.violation_rate
                && edf.violation_rate <= jsq.violation_rate,
            "x{m}: edf {} vs affinity {} / jsq {}",
            edf.violation_rate,
            affinity.violation_rate,
            jsq.violation_rate
        );
        assert!(
            edf.antt <= affinity.antt.min(jsq.antt) * 1.1,
            "x{m}: edf ANTT {} vs affinity {} / jsq {}",
            edf.antt,
            affinity.antt,
            jsq.antt
        );
    }
    assert!(
        cell("edf", 3.0).violation_rate < cell("affinity", 3.0).violation_rate,
        "tight-SLO cell must show a strict violation reduction"
    );

    let golden = Fig14Golden {
        single_node,
        cluster_edf,
    };
    let json = serde_json::to_string(&golden).expect("fig14 rows serialize");
    check_golden("fig14_slo_sweep.json", &json);
}

// --- fig15_rate_sweep (quick mode) ----------------------------------------

/// Pins the `fig15_rate_sweep` configuration at the ends of each
/// scenario's rate range (the cells that anchor the figure's "metrics
/// rise with the arrival rate" shape), with the binary's full policy
/// list.
#[test]
fn golden_fig15_rate_sweep_quick() {
    let rows = paper::fig15_rows(
        &[
            ("multi_attnn", Scenario::MultiAttNn, 10.0),
            ("multi_attnn", Scenario::MultiAttNn, 40.0),
            ("multi_cnn", Scenario::MultiCnn, 2.0),
            ("multi_cnn", Scenario::MultiCnn, 6.0),
        ],
        Scale::quick(),
    );

    // Acceptance: heavier traffic never helps — for every scenario and
    // policy, ANTT and the violation rate are no better at the heavy
    // end of the rate range than at the light end.
    for (scenario, light, heavy) in [("multi_attnn", 10.0, 40.0), ("multi_cnn", 2.0, 6.0)] {
        for policy in SWEEP_POLICIES {
            let at = |rate: f64| {
                rows.iter()
                    .find(|r| r.scenario == scenario && r.rate == rate && r.policy == policy.name())
                    .expect("row exists")
            };
            let (l, h) = (at(light), at(heavy));
            assert!(
                h.antt >= l.antt,
                "{scenario}/{}: ANTT fell from {} to {} under heavier traffic",
                policy.name(),
                l.antt,
                h.antt
            );
            assert!(
                h.violation_rate >= l.violation_rate,
                "{scenario}/{}: violations fell from {} to {} under heavier traffic",
                policy.name(),
                l.violation_rate,
                h.violation_rate
            );
        }
    }

    let json = serde_json::to_string(&rows).expect("fig15 rows serialize");
    check_golden("fig15_rate_sweep.json", &json);
}

// --- fig_load_curve (quick mode) ------------------------------------------

/// Pins the `fig_load_curve` configuration: open-loop flash-crowd and
/// phase-change streams at 1x..4x the steady operating point
/// (45 req/s, the `fig_admission` pool, SLO x2, EDF dispatch), served
/// with and without slack load shedding. The acceptance criterion: at
/// 3x and 4x the operating point, shedding engages and goodput degrades
/// gracefully — no worse than admit-all's. This is also the fixture
/// that runs entirely through a streaming source (no materialized
/// workload).
#[test]
fn golden_fig_load_curve_quick() {
    let cells = serving::load_curve_cells(Scale::quick());

    // Acceptance: on both shapes at >= 3x the steady operating point,
    // shedding must have engaged, goodput must degrade gracefully — at
    // or above admit-all's at the same load — and shedding must cut the
    // p99 turnaround below admit-all's, whose p99 grows with the load.
    let cell = |shape: &str, load: f64, admission: &str| {
        cells
            .iter()
            .find(|c| c.shape == shape && c.load == load && c.admission == admission)
            .expect("cell exists")
    };
    for shape in ["flash-crowd", "phase-change"] {
        let all_1x = cell(shape, 1.0, "admit-all");
        assert_eq!(all_1x.rejected, 0, "{shape}: admit-all is a no-op control");
        assert_eq!(all_1x.degraded, 0, "{shape}: admit-all is a no-op control");
        for load in [3.0, 4.0] {
            let all = cell(shape, load, "admit-all");
            let shed = cell(shape, load, "slack-load-shed");
            assert!(
                shed.rejected + shed.degraded > 0,
                "{shape} at {load}x: shedding must engage"
            );
            assert!(
                shed.goodput_rate >= all.goodput_rate,
                "{shape} at {load}x: shed goodput {} vs admit-all {}",
                shed.goodput_rate,
                all.goodput_rate
            );
            assert!(
                shed.p99_ms < all.p99_ms,
                "{shape} at {load}x: shed p99 {} ms vs admit-all {} ms",
                shed.p99_ms,
                all.p99_ms
            );
        }
        for pair in serving::LOAD_FACTORS.windows(2) {
            let (lighter, heavier) = (
                cell(shape, pair[0], "admit-all"),
                cell(shape, pair[1], "admit-all"),
            );
            assert!(
                heavier.p99_ms >= lighter.p99_ms,
                "{shape}: admit-all p99 fell from {} ms at {}x to {} ms at {}x",
                lighter.p99_ms,
                pair[0],
                heavier.p99_ms,
                pair[1]
            );
        }
    }

    let json = serde_json::to_string(&cells).expect("load-curve cells serialize");
    check_golden("fig_load_curve.json", &json);
}
