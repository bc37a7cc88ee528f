//! Cluster scaling: serve one heavy multi-DNN stream on growing pools of
//! accelerator nodes and watch ANTT, throughput, utilization, and load
//! imbalance respond to the dispatch policy.
//!
//! Run with `cargo run --release --example cluster_scaling`.
//!
//! Pass `--trace <path>` to replay the heterogeneous-pool scenario
//! under a [`dysta::obs::RingTracer`] and write a Perfetto/Chrome
//! trace JSON viewable at <https://ui.perfetto.dev>.

use dysta::cluster::{
    balanced_mixed_serving_mix, simulate_cluster, AcceleratorKind, ClusterConfig, ClusterPolicy,
    DispatchPolicy,
};
use dysta::core::Policy;
use dysta::obs::NullTracer;
use dysta::workload::{Scenario, WorkloadBuilder};
use dysta_bench::{export_trace, trace_arg};

fn main() {
    let trace = trace_arg("cluster_scaling");

    // One shared traffic stream: the paper's multi-CNN perception mix at
    // a rate a single Eyeriss-V2 cannot sustain (the single-node default
    // is 3 samples/s; we offer 4x that).
    let workload = WorkloadBuilder::new(Scenario::MultiCnn)
        .arrival_rate(12.0)
        .slo_multiplier(10.0)
        .num_requests(400)
        .samples_per_variant(16)
        .seed(42)
        .build();
    println!(
        "workload: {} requests at 12 samples/s (4x one node's operating point)\n",
        workload.requests().len()
    );

    println!(
        "{:<6} {:<14} {:>7} {:>9} {:>12} {:>10} {:>10}",
        "nodes", "dispatch", "ANTT", "viol %", "thr inf/s", "util", "imbalance"
    );
    for nodes in [1usize, 2, 4, 8] {
        let pool = ClusterConfig::homogeneous(nodes, AcceleratorKind::EyerissV2, Policy::Dysta);
        for dispatch in DispatchPolicy::ALL {
            let report = simulate_cluster(
                workload.source(),
                &mut ClusterPolicy::from_dispatch(dispatch),
                &pool,
                NullTracer,
            );
            let util = report.per_node_utilization();
            let mean_util = util.iter().sum::<f64>() / util.len() as f64;
            println!(
                "{:<6} {:<14} {:>7.3} {:>8.1}% {:>12.1} {:>9.1}% {:>10.2}",
                nodes,
                dispatch.name(),
                report.antt(),
                report.violation_rate() * 100.0,
                report.throughput_inf_s(),
                mean_util * 100.0,
                report.load_imbalance(),
            );
        }
        println!();
    }

    // Heterogeneous pool: CNN + AttNN traffic on a mixed
    // Eyeriss-V2 + Sanger installation. Family-aware affinity routing is
    // the only policy that avoids the mismatch penalty; the mix balances
    // offered load across the pool halves.
    let mixed = WorkloadBuilder::from_mix(balanced_mixed_serving_mix())
        .arrival_rate(40.0)
        .slo_multiplier(10.0)
        .num_requests(400)
        .samples_per_variant(16)
        .seed(42)
        .build();
    println!("heterogeneous pool (2x Eyeriss-V2 + 2x Sanger), mixed CNN+AttNN traffic:");
    let pool = ClusterConfig::heterogeneous(2, 2, Policy::Dysta);
    for dispatch in DispatchPolicy::ALL {
        let report = simulate_cluster(
            mixed.source(),
            &mut ClusterPolicy::from_dispatch(dispatch),
            &pool,
            NullTracer,
        );
        println!(
            "  {:<14} ANTT {:>6.3}  viol {:>5.1}%  thr {:>7.1} inf/s  imbalance {:>5.2}",
            dispatch.name(),
            report.antt(),
            report.violation_rate() * 100.0,
            report.throughput_inf_s(),
            report.load_imbalance(),
        );
    }

    if let Some(path) = trace {
        // Trace the affinity run on the heterogeneous pool — the one
        // whose per-node tracks tell the clearest routing story.
        export_trace(&path, &mixed, &pool);
    }
}
