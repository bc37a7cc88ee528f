//! Cluster sweep: node count x dispatch policy x scenario, seed-averaged.
//!
//! The cluster-scale counterpart of the paper's Table 5: every dispatch
//! policy serves identical request streams, per-node arrival rates stay
//! at the paper's single-node operating points (3 samples/s per Eyeriss
//! node, 30 per Sanger node), and each cell averages the configured seed
//! count. Reports cluster ANTT, SLO violation rate, throughput, and load
//! imbalance; `DYSTA_QUICK=1` drops to smoke-test scale.
//!
//! A serving-front-end section sweeps work stealing and request
//! migration on the pool shape affinity routing stresses most
//! (CNN-only traffic on a heterogeneous installation), an
//! admission-control section compares admit-all against the
//! reject/degrade policies on the capacity-heterogeneous pool at tight
//! SLOs, and a fault-injection section crashes a node mid-stream to
//! compare salvage-and-redispatch recovery against letting the work
//! die with the node.

use dysta::cluster::{
    balanced_mixed_serving_mix, simulate_cluster, AcceleratorKind, ClusterBuilder, ClusterConfig,
    ClusterPolicy, DispatchPolicy, FrontendConfig, MigrationConfig, StealConfig,
    TransferCostConfig,
};
use dysta::core::Policy;
use dysta::obs::NullTracer;
use dysta::workload::{Scenario, WorkloadBuilder};
use dysta_bench::serving::{admission_cells, fault_cells};
use dysta_bench::{banner, replicate, Scale};

/// A pool shape: `nodes` Dysta nodes.
type Pool = fn(usize) -> ClusterConfig;

fn main() {
    let scale = Scale::from_env();
    banner(
        "cluster_sweep",
        "node count x dispatch policy x scenario (seed-averaged)",
    );

    let sweeps: [(&str, WorkloadBuilder, Pool, f64); 3] = [
        (
            "multi-cnn / eyeriss pool",
            WorkloadBuilder::new(Scenario::MultiCnn),
            |n| ClusterConfig::homogeneous(n, AcceleratorKind::EyerissV2, Policy::Dysta),
            3.0,
        ),
        (
            "multi-attnn / sanger pool",
            WorkloadBuilder::new(Scenario::MultiAttNn),
            |n| ClusterConfig::homogeneous(n, AcceleratorKind::Sanger, Policy::Dysta),
            30.0,
        ),
        (
            // CNN + AttNN traffic blended onto half Eyeriss-V2, half
            // Sanger (odd remainders go to Sanger).
            "mixed traffic / eyeriss+sanger pool",
            WorkloadBuilder::from_mix(balanced_mixed_serving_mix()),
            |n| ClusterConfig::heterogeneous(n / 2, n - n / 2, Policy::Dysta),
            10.0,
        ),
    ];

    for (title, traffic, pool, per_node_rate) in &sweeps {
        println!("\n=== {title} (rate {per_node_rate}/s per node) ===");
        println!(
            "{:<6} {:<14} {:>8} {:>9} {:>12} {:>10}",
            "nodes", "dispatch", "ANTT", "viol %", "thr inf/s", "imbalance"
        );
        for nodes in [2usize, 4, 8] {
            let builder = traffic.clone().arrival_rate(per_node_rate * nodes as f64);
            let config = pool(nodes);
            let sums = replicate(
                scale.cluster_seeds(),
                |seed| scale.workload(&builder, seed),
                &DispatchPolicy::ALL,
                |&dispatch, w| {
                    let report = simulate_cluster(
                        w.source(),
                        &mut ClusterPolicy::from_dispatch(dispatch),
                        &config,
                        NullTracer,
                    );
                    [
                        report.antt(),
                        report.violation_rate(),
                        report.throughput_inf_s(),
                        report.load_imbalance(),
                    ]
                },
            );
            let rows: Vec<_> = DispatchPolicy::ALL
                .into_iter()
                .zip(sums.iter().map(|s| s.mean()))
                .collect();
            for (dispatch, [antt, violation, throughput, imbalance]) in &rows {
                println!(
                    "{nodes:<6} {:<14} {antt:>8.3} {:>8.1}% {throughput:>12.1} {imbalance:>10.2}",
                    dispatch.name(),
                    violation * 100.0,
                );
            }
            let antt = |policy| {
                rows.iter()
                    .find(|(d, _)| *d == policy)
                    .expect("policy is in ALL")
                    .1[0]
            };
            let rr = antt(DispatchPolicy::RoundRobin);
            for informed in [
                DispatchPolicy::JoinShortestQueue,
                DispatchPolicy::SparsityAffinity,
            ] {
                let informed_antt = antt(informed);
                let verdict = if informed_antt < rr {
                    "better"
                } else {
                    "worse"
                };
                println!(
                    "       -> {} vs round-robin ANTT: {informed_antt:.3} vs {rr:.3} ({verdict})",
                    informed.name(),
                );
            }
            println!();
        }
    }

    serving_frontend_sweep(&scale);
    admission_sweep(&scale);
    faults_sweep(&scale);
}

/// The serving front-end on a heterogeneous pool: CNN-only traffic
/// saturates the Eyeriss half while the Sanger half idles unless
/// stealing/migration put it to work. The last two rows are the
/// `ClusterPolicy` clients: the default *costed* transfer model under
/// the re-tuned thresholds (every move pays a weight/activation
/// re-fetch on the receiving node), and deadline-aware `edf` dispatch
/// on top of it — both covered by the CI smoke run.
fn serving_frontend_sweep(scale: &Scale) {
    println!("\n=== serving front-end / CNN traffic on eyeriss+sanger pool ===");
    println!(
        "{:<22} {:>8} {:>9} {:>10} {:>10} {:>7} {:>9} {:>9}",
        "front-end", "ANTT", "viol %", "p99 ms", "imbalance", "steals", "migrated", "fetch ms"
    );
    let free = TransferCostConfig::FREE;
    let costed = TransferCostConfig::default_costed();
    let rows: [(&str, FrontendConfig, TransferCostConfig, DispatchPolicy); 5] = [
        (
            "immediate",
            FrontendConfig::default(),
            free,
            DispatchPolicy::SparsityAffinity,
        ),
        (
            "steal",
            FrontendConfig {
                steal: Some(StealConfig::default()),
                ..FrontendConfig::default()
            },
            free,
            DispatchPolicy::SparsityAffinity,
        ),
        (
            "steal+migrate",
            FrontendConfig {
                steal: Some(StealConfig::default()),
                migration: Some(MigrationConfig::default()),
                ..FrontendConfig::default()
            },
            free,
            DispatchPolicy::SparsityAffinity,
        ),
        (
            "steal+migrate costed",
            FrontendConfig::serving_costed(),
            costed,
            DispatchPolicy::SparsityAffinity,
        ),
        (
            "edf costed",
            FrontendConfig::serving_costed(),
            costed,
            DispatchPolicy::EarliestDeadlineFirst,
        ),
    ];
    let builder = WorkloadBuilder::new(Scenario::MultiCnn).arrival_rate(12.0);
    let sums = replicate(
        scale.cluster_seeds(),
        |seed| scale.workload(&builder, seed),
        &rows,
        |&(_, frontend, transfer_cost, dispatch), w| {
            let pool = ClusterBuilder::heterogeneous(2, 2, Policy::Dysta)
                .frontend(frontend)
                .transfer_cost(transfer_cost)
                .build();
            let report = simulate_cluster(
                w.source(),
                &mut ClusterPolicy::from_dispatch(dispatch),
                &pool,
                NullTracer,
            );
            let serving = report.serving();
            [
                report.antt(),
                report.violation_rate(),
                report.turnaround_percentile_ns(99.0) as f64 / 1e6,
                report.load_imbalance(),
                serving.steals as f64,
                serving.migrations as f64,
                report.total_transfer_cost_ns() as f64 / 1e6,
            ]
        },
    );
    // Counters are seed-averaged like every other column, so a row
    // reads as "one run at this operating point".
    for ((name, ..), s) in rows.iter().zip(sums) {
        let [antt, viol, p99, imbalance, steals, migrations, fetch_ms] = s.mean();
        println!(
            "{name:<22} {antt:>8.3} {:>8.1}% {p99:>10.1} {imbalance:>10.2} {steals:>7.1} {migrations:>9.1} {fetch_ms:>9.1}",
            viol * 100.0,
        );
    }
}

/// Fault injection on the `fig_faults` schedule: a transient crash of
/// node 0 mid-stream plus a brown-out window on node 2, served by the
/// mixed-traffic workload on the capacity-heterogeneous pool. The
/// recovery rows are the golden cells: salvage-and-redispatch with
/// queue-time reneging must strictly beat letting crashed work die
/// with the node on both goodput and violation rate. Covered by the
/// CI smoke run.
fn faults_sweep(scale: &Scale) {
    println!(
        "\n=== fault injection / transient crash + brownout on capacity-het 2+2 pool (slo x2) ==="
    );
    println!(
        "{:<10} {:<16} {:>8} {:>9} {:>9} {:>8} {:>8} {:>9} {:>9} {:>11}",
        "dispatch",
        "recovery",
        "ANTT",
        "viol %",
        "goodput",
        "failed",
        "reneged",
        "salvaged",
        "retries",
        "lost ms"
    );
    let n = scale.cluster_seeds().count() as f64;
    for cell in fault_cells(*scale) {
        println!(
            "{:<10} {:<16} {:>8.3} {:>8.1}% {:>9.1} {:>8.1} {:>8.1} {:>9.1} {:>9.1} {:>11.1}",
            cell.dispatch,
            cell.recovery,
            cell.antt,
            cell.violation_rate * 100.0,
            cell.goodput as f64 / n,
            cell.failed as f64 / n,
            cell.reneged as f64 / n,
            cell.salvaged as f64 / n,
            cell.retries as f64 / n,
            cell.lost_busy_ms / n,
        );
    }
}

/// Admission control on the fig14 capacity-heterogeneous pool at tight
/// SLOs, with FCFS node scheduling — the shape where doomed
/// head-of-queue work genuinely blocks feasible work. The three
/// `AdmissionPolicy` rows per dispatcher are the `fig_admission` golden
/// cells: rejecting infeasible-everywhere requests must cut the
/// violation rate among admitted work without costing goodput, and
/// slack-based load shedding cuts it further by re-classing
/// thin-headroom admissions. Covered by the CI smoke run.
fn admission_sweep(scale: &Scale) {
    println!(
        "\n=== admission control / mixed traffic on capacity-het 2+2 pool (fcfs nodes, slo x2) ==="
    );
    println!(
        "{:<10} {:<22} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "dispatch", "admission", "ANTT", "viol %", "goodput", "rejected", "degraded", "good %"
    );
    let n = scale.cluster_seeds().count() as f64;
    for cell in admission_cells(*scale) {
        println!(
            "{:<10} {:<22} {:>8.3} {:>8.1}% {:>9.1} {:>9.1} {:>9.1} {:>8.1}%",
            cell.dispatch,
            cell.admission,
            cell.antt,
            cell.violation_rate * 100.0,
            cell.goodput as f64 / n,
            cell.rejected as f64 / n,
            cell.degraded as f64 / n,
            cell.goodput_rate * 100.0,
        );
    }
}
