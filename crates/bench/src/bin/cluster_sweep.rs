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
    DispatchPolicy, FrontendConfig, MigrationConfig, StealConfig, TransferCostConfig,
};
use dysta::core::Policy;
use dysta::workload::{Scenario, WorkloadBuilder};
use dysta_bench::serving::{admission_cells, fault_cells};
use dysta_bench::{banner, Scale};

struct Cell {
    antt: f64,
    violation: f64,
    throughput: f64,
    imbalance: f64,
}

/// One pool shape of the sweep.
enum Pool {
    Homogeneous(AcceleratorKind),
    /// Half Eyeriss-V2, half Sanger (odd remainders go to Sanger).
    Mixed,
}

fn pool_config(pool: &Pool, nodes: usize) -> ClusterConfig {
    match pool {
        Pool::Homogeneous(kind) => ClusterConfig::homogeneous(nodes, *kind, Policy::Dysta),
        Pool::Mixed => ClusterConfig::heterogeneous(nodes / 2, nodes - nodes / 2, Policy::Dysta),
    }
}

fn workload_builder(scenario: &SweepScenario, rate: f64) -> WorkloadBuilder {
    match scenario {
        SweepScenario::Preset(s) => WorkloadBuilder::new(*s).arrival_rate(rate),
        SweepScenario::MixedTraffic => {
            WorkloadBuilder::from_mix(balanced_mixed_serving_mix()).arrival_rate(rate)
        }
    }
}

enum SweepScenario {
    Preset(Scenario),
    /// CNN + AttNN traffic blended onto one pool.
    MixedTraffic,
}

fn main() {
    let scale = Scale::from_env();
    banner(
        "cluster_sweep",
        "node count x dispatch policy x scenario (seed-averaged)",
    );

    let sweeps: [(&str, SweepScenario, Pool, f64); 3] = [
        (
            "multi-cnn / eyeriss pool",
            SweepScenario::Preset(Scenario::MultiCnn),
            Pool::Homogeneous(AcceleratorKind::EyerissV2),
            3.0,
        ),
        (
            "multi-attnn / sanger pool",
            SweepScenario::Preset(Scenario::MultiAttNn),
            Pool::Homogeneous(AcceleratorKind::Sanger),
            30.0,
        ),
        (
            "mixed traffic / eyeriss+sanger pool",
            SweepScenario::MixedTraffic,
            Pool::Mixed,
            10.0,
        ),
    ];

    for (title, scenario, pool, per_node_rate) in &sweeps {
        println!("\n=== {title} (rate {per_node_rate}/s per node) ===");
        println!(
            "{:<6} {:<14} {:>8} {:>9} {:>12} {:>10}",
            "nodes", "dispatch", "ANTT", "viol %", "thr inf/s", "imbalance"
        );
        for nodes in [2usize, 4, 8] {
            let mut rows: Vec<(DispatchPolicy, Cell)> = Vec::new();
            for dispatch in DispatchPolicy::ALL {
                let mut cell = Cell {
                    antt: 0.0,
                    violation: 0.0,
                    throughput: 0.0,
                    imbalance: 0.0,
                };
                for seed in scale.cluster_seeds() {
                    let workload = workload_builder(scenario, per_node_rate * nodes as f64)
                        .num_requests(scale.requests)
                        .samples_per_variant(scale.samples_per_variant)
                        .seed(seed)
                        .build();
                    let config = pool_config(pool, nodes);
                    let report = simulate_cluster(&workload, dispatch.build().as_mut(), &config);
                    cell.antt += report.antt();
                    cell.violation += report.violation_rate();
                    cell.throughput += report.throughput_inf_s();
                    cell.imbalance += report.load_imbalance();
                }
                let n = scale.seeds as f64;
                cell.antt /= n;
                cell.violation /= n;
                cell.throughput /= n;
                cell.imbalance /= n;
                rows.push((dispatch, cell));
            }
            for (dispatch, cell) in &rows {
                println!(
                    "{:<6} {:<14} {:>8.3} {:>8.1}% {:>12.1} {:>10.2}",
                    nodes,
                    dispatch.name(),
                    cell.antt,
                    cell.violation * 100.0,
                    cell.throughput,
                    cell.imbalance,
                );
            }
            let rr = rows
                .iter()
                .find(|(d, _)| *d == DispatchPolicy::RoundRobin)
                .expect("round-robin is in ALL");
            for informed in [
                DispatchPolicy::JoinShortestQueue,
                DispatchPolicy::SparsityAffinity,
            ] {
                let row = rows
                    .iter()
                    .find(|(d, _)| *d == informed)
                    .expect("policy is in ALL");
                println!(
                    "       -> {} vs round-robin ANTT: {:.3} vs {:.3} ({})",
                    informed.name(),
                    row.1.antt,
                    rr.1.antt,
                    if row.1.antt < rr.1.antt {
                        "better"
                    } else {
                        "worse"
                    },
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
    for (name, frontend, transfer_cost, dispatch) in rows {
        let mut antt = 0.0;
        let mut viol = 0.0;
        let mut p99 = 0.0;
        let mut imbalance = 0.0;
        let mut steals = 0u64;
        let mut migrations = 0u64;
        let mut fetch_ms = 0.0;
        for seed in scale.cluster_seeds() {
            let workload = WorkloadBuilder::new(Scenario::MultiCnn)
                .arrival_rate(12.0)
                .num_requests(scale.requests)
                .samples_per_variant(scale.samples_per_variant)
                .seed(seed)
                .build();
            let pool = ClusterBuilder::heterogeneous(2, 2, Policy::Dysta)
                .frontend(frontend)
                .transfer_cost(transfer_cost)
                .build();
            let report = simulate_cluster(&workload, dispatch.build().as_mut(), &pool);
            antt += report.antt();
            viol += report.violation_rate();
            p99 += report.turnaround_percentile_ns(99.0) as f64 / 1e6;
            imbalance += report.load_imbalance();
            steals += report.serving().steals;
            migrations += report.serving().migrations;
            fetch_ms += report.total_transfer_cost_ns() as f64 / 1e6;
        }
        // Counters are seed-averaged like every other column, so a row
        // reads as "one run at this operating point".
        let n = scale.seeds as f64;
        println!(
            "{:<22} {:>8.3} {:>8.1}% {:>10.1} {:>10.2} {:>7.1} {:>9.1} {:>9.1}",
            name,
            antt / n,
            viol / n * 100.0,
            p99 / n,
            imbalance / n,
            steals as f64 / n,
            migrations as f64 / n,
            fetch_ms / n,
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
    for cell in fault_cells(*scale) {
        let n = scale.seeds as f64;
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
    for cell in admission_cells(*scale) {
        let n = scale.seeds as f64;
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
