//! Ablation: preemption (context-switch) overhead.
//!
//! The paper's penalty term exists to bound preemption frequency. This
//! ablation sweeps the per-switch cost and reports how each scheduler's
//! preemption count and metrics respond.

use dysta::core::Policy;
use dysta::sim::{simulate, EngineConfig};
use dysta::workload::{Scenario, WorkloadBuilder};
use dysta_bench::{banner, replicate, Scale};

fn main() {
    banner("Ablation", "context-switch overhead sensitivity");
    let scale = Scale::from_env();
    for (title, scenario, rate) in [
        ("Multi-AttNNs @ 30/s", Scenario::MultiAttNn, 30.0),
        ("Multi-CNNs @ 3/s", Scenario::MultiCnn, 3.0),
    ] {
        println!("--- {title} ---");
        println!(
            "{:<12} {:<10} {:>8} {:>10} {:>12}",
            "overhead", "policy", "ANTT", "viol [%]", "switches"
        );
        let configs: Vec<_> = [0u64, 20, 100, 500]
            .into_iter()
            .flat_map(|us| [Policy::Fcfs, Policy::Sjf, Policy::Dysta].map(|p| (us, p)))
            .collect();
        let builder = WorkloadBuilder::new(scenario)
            .arrival_rate(rate)
            .slo_multiplier(10.0);
        let sums = replicate(
            0..scale.seeds,
            |seed| scale.workload(&builder, seed),
            &configs,
            |&(overhead_us, policy), w| {
                let config = EngineConfig {
                    preemption_overhead_ns: overhead_us * 1000,
                    ..EngineConfig::default()
                };
                let report = simulate(w, policy.build().as_mut(), &config);
                let m = report.metrics();
                [m.antt, m.violation_rate, report.preemptions() as f64]
            },
        );
        for ((overhead_us, policy), s) in configs.iter().zip(sums) {
            let [antt, viol, switches] = s.mean();
            println!(
                "{:<12} {:<10} {antt:>8.2} {:>9.1}% {:>12}",
                format!("{overhead_us} us"),
                policy.name(),
                viol * 100.0,
                switches.round() as u64
            );
        }
        println!();
    }
    println!("expectation: Dysta's waiting-time penalty keeps its switch");
    println!("count bounded, so its advantage survives realistic context-");
    println!("switch costs; FCFS never switches mid-task and is immune");
}
