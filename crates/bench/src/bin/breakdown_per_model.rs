//! Per-tenant breakdown: which models each scheduler sacrifices.
//!
//! FCFS queues short interactive models behind long ones; EDF-style
//! schedulers starve long models near their deadlines; Dysta balances.
//! This view explains the aggregate Table 5 numbers.

use dysta::core::Policy;
use dysta::sim::{simulate, EngineConfig};
use dysta::workload::{Scenario, WorkloadBuilder};
use dysta_bench::{banner, Scale};

fn main() {
    banner("Breakdown", "per-model ANTT / violation rate by scheduler");
    let scale = Scale::from_env();
    for (title, scenario, rate) in [
        ("Multi-AttNNs @ 30/s", Scenario::MultiAttNn, 30.0),
        ("Multi-CNNs @ 3/s", Scenario::MultiCnn, 3.0),
    ] {
        println!("--- {title} (SLO x10, seed 0, {} reqs) ---", scale.requests);
        let builder = WorkloadBuilder::new(scenario)
            .arrival_rate(rate)
            .slo_multiplier(10.0);
        let workload = scale.workload(&builder, 0);
        for policy in [Policy::Fcfs, Policy::Sjf, Policy::Planaria, Policy::Dysta] {
            let report = simulate(&workload, policy.build().as_mut(), &EngineConfig::default());
            println!("{}:", policy.name());
            println!(
                "  {:<12} {:>6} {:>8} {:>10}",
                "model", "reqs", "ANTT", "viol [%]"
            );
            for (model, n, antt, viol) in report.per_model() {
                println!(
                    "  {:<12} {:>6} {:>8.2} {:>9.1}%",
                    model.to_string(),
                    n,
                    antt,
                    viol * 100.0
                );
            }
        }
        println!();
    }
    println!("expectation: FCFS's worst ANTT concentrates on the shortest");
    println!("model (stuck behind long jobs); Dysta keeps every tenant's");
    println!("ANTT and violations low simultaneously");
}
