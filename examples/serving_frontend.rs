//! The cluster serving front-end: admission batching, work stealing,
//! and request migration on a heterogeneous pool.
//!
//! The scenario is the one affinity routing is worst at: CNN-only
//! traffic offered to a mixed Eyeriss-V2 + Sanger installation. Affinity
//! piles every request onto the two CNN nodes while the attention nodes
//! idle; the front-end's stealing and migration put that idle capacity
//! to work (at the mismatch penalty) and the report's new tail-latency
//! fields show what that buys.
//!
//! Run with `cargo run --release --example serving_frontend`.
//!
//! Pass `--trace <path>` to additionally replay the full serving
//! configuration under a [`dysta::obs::RingTracer`] and write a
//! Perfetto/Chrome trace JSON — open it at <https://ui.perfetto.dev>
//! to see per-node execution tracks, request flows, and queue-depth
//! counters.

use dysta::cluster::{
    simulate_cluster, ClusterBuilder, ClusterPolicy, DispatchPolicy, FrontendConfig, StealConfig,
    TransferCostConfig,
};
use dysta::core::Policy;
use dysta::obs::NullTracer;
use dysta::workload::{Scenario, WorkloadBuilder};
use dysta_bench::{export_trace, trace_arg};

fn main() {
    let trace = trace_arg("serving_frontend");

    let workload = WorkloadBuilder::new(Scenario::MultiCnn)
        .arrival_rate(12.0)
        .slo_multiplier(10.0)
        .num_requests(300)
        .samples_per_variant(16)
        .seed(42)
        .build();
    println!(
        "workload: {} CNN requests at 12 samples/s; pool: 2x Eyeriss-V2 + 2x Sanger,\n\
         affinity dispatch (all CNN traffic lands on the 2 Eyeriss nodes)\n",
        workload.requests().len()
    );

    let frontends: [(&str, FrontendConfig); 6] = [
        ("immediate", FrontendConfig::default()),
        (
            "batch k=8",
            FrontendConfig {
                admit_batch: 8,
                ..FrontendConfig::default()
            },
        ),
        (
            "batch 20ms",
            FrontendConfig {
                admit_batch: usize::MAX,
                admit_interval_ns: 20_000_000,
                ..FrontendConfig::default()
            },
        ),
        (
            "+steal",
            FrontendConfig {
                steal: Some(StealConfig::default()),
                ..FrontendConfig::default()
            },
        ),
        ("+steal+migrate", FrontendConfig::serving()),
        // Costed transfers: every move pays a weight/activation
        // re-fetch on the receiving node, under the re-tuned (stricter)
        // steal/migration thresholds.
        ("costed transfers", FrontendConfig::serving_costed()),
    ];

    println!(
        "{:<16} {:>7} {:>9} {:>9} {:>9} {:>9} {:>10} {:>7} {:>9} {:>11}",
        "front-end",
        "ANTT",
        "viol %",
        "p50 ms",
        "p90 ms",
        "p99 ms",
        "imbalance",
        "steals",
        "migrated",
        "adm.wait ms"
    );
    for (name, frontend) in frontends {
        let transfer_cost = if name == "costed transfers" {
            TransferCostConfig::default_costed()
        } else {
            TransferCostConfig::FREE
        };
        let pool = ClusterBuilder::heterogeneous(2, 2, Policy::Dysta)
            .frontend(frontend)
            .transfer_cost(transfer_cost)
            .build();
        let report = simulate_cluster(
            workload.source(),
            &mut ClusterPolicy::from_dispatch(DispatchPolicy::SparsityAffinity),
            &pool,
            NullTracer,
        );
        let p = report.latency_percentiles();
        let s = report.serving();
        println!(
            "{:<16} {:>7.3} {:>8.1}% {:>9.1} {:>9.1} {:>9.1} {:>10.2} {:>7} {:>9} {:>11.2}",
            name,
            report.antt(),
            report.violation_rate() * 100.0,
            p.p50_ns as f64 / 1e6,
            p.p90_ns as f64 / 1e6,
            p.p99_ns as f64 / 1e6,
            report.load_imbalance(),
            s.steals,
            s.migrations,
            report.mean_admission_wait_ns() / 1e6,
        );
    }

    println!(
        "\nStealing helps exactly when matched nodes are saturated while others idle:\n\
         the mismatch penalty (2.5x) is still cheaper than waiting out a deep queue.\n\
         Admission waits are real delay — a held-back request cannot start before\n\
         its batch dispatches — so count-based batches at low arrival rates hold\n\
         requests for a long time and the wait lands straight on ANTT and the tail;\n\
         the 20ms timer caps every wait at the interval (at this sparse arrival\n\
         rate most windows hold one request, so the mean sits near the cap)."
    );

    if let Some(path) = trace {
        // Re-run the full serving configuration under a tracer and dump
        // the Perfetto view of it.
        let pool = ClusterBuilder::heterogeneous(2, 2, Policy::Dysta)
            .frontend(FrontendConfig::serving_costed())
            .transfer_cost(TransferCostConfig::default_costed())
            .build();
        export_trace(&path, &workload, &pool);
    }
}
