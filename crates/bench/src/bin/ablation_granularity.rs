//! Ablation: scheduling granularity (per-layer vs per-layer-block).
//!
//! The paper's execution model consults the scheduler at every layer or
//! layer-block boundary. Coarser blocks mean fewer scheduling decisions
//! (less scheduler overhead pressure) but slower reaction to arrivals
//! and monitored sparsity.

use dysta::core::Policy;
use dysta::sim::{simulate, EngineConfig};
use dysta::workload::{Scenario, WorkloadBuilder};
use dysta_bench::{banner, replicate, Scale};

fn main() {
    banner("Ablation", "scheduling granularity (layers per block)");
    let scale = Scale::from_env();
    for (title, scenario, rate) in [
        ("Multi-AttNNs @ 30/s", Scenario::MultiAttNn, 30.0),
        ("Multi-CNNs @ 3/s", Scenario::MultiCnn, 3.0),
    ] {
        println!("--- {title} (SLO x10, Dysta) ---");
        println!(
            "{:<8} {:>8} {:>10} {:>14}",
            "block", "ANTT", "viol [%]", "decisions/req"
        );
        let blocks = [1usize, 2, 4, 8, 16, 32];
        let builder = WorkloadBuilder::new(scenario)
            .arrival_rate(rate)
            .slo_multiplier(10.0);
        let sums = replicate(
            0..scale.seeds,
            |seed| scale.workload(&builder, seed),
            &blocks,
            |&block, w| {
                let config = EngineConfig {
                    layers_per_block: block,
                    ..EngineConfig::default()
                };
                let report = simulate(w, Policy::Dysta.build().as_mut(), &config);
                let m = report.metrics();
                [
                    m.antt,
                    m.violation_rate,
                    report.scheduler_invocations() as f64,
                ]
            },
        );
        for (block, s) in blocks.iter().zip(sums) {
            let [antt, viol, decisions] = s.mean();
            let per_request = decisions / scale.requests as f64;
            println!(
                "{block:<8} {antt:>8.2} {:>9.1}% {per_request:>14.1}",
                viol * 100.0
            );
        }
        println!();
    }
    println!("expectation: quality degrades gracefully with coarser blocks");
    println!("while scheduling decisions per request fall proportionally —");
    println!("the layer-granularity design point is cheap enough (Table 6)");
    println!("that the paper's choice of finest granularity is justified");
}
