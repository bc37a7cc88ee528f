//! Ablation: end-to-end effect of the sparse-latency-predictor strategy
//! (extends Table 4's offline RMSE comparison into full scheduling).

use dysta::core::{
    CoeffStrategy, DystaConfig, DystaScheduler, Policy, Scheduler, SparseLatencyPredictor,
};
use dysta::sim::{simulate, EngineConfig};
use dysta::workload::{Scenario, WorkloadBuilder};
use dysta_bench::{banner, replicate, Scale};

fn main() {
    banner(
        "Ablation",
        "predictor strategy inside full Dysta scheduling",
    );
    let scale = Scale::from_env();
    let strategies: [(&str, Option<CoeffStrategy>); 5] = [
        ("disabled (γ=1)", Some(CoeffStrategy::Disabled)),
        ("average-all", Some(CoeffStrategy::AverageAll)),
        ("last-3", Some(CoeffStrategy::LastN(3))),
        ("last-one", Some(CoeffStrategy::LastOne)),
        ("oracle (exact)", None),
    ];
    for (title, scenario, rate) in [
        ("Multi-AttNNs @ 30/s", Scenario::MultiAttNn, 30.0),
        ("Multi-CNNs @ 3/s", Scenario::MultiCnn, 3.0),
    ] {
        println!("--- {title} (SLO x10) ---");
        println!("{:<16} {:>8} {:>10}", "strategy", "ANTT", "viol [%]");
        let builder = WorkloadBuilder::new(scenario)
            .arrival_rate(rate)
            .slo_multiplier(10.0);
        let sums = replicate(
            0..scale.seeds,
            |seed| scale.workload(&builder, seed),
            &strategies,
            |&(_, strategy), w| {
                // No strategy: the Oracle reference.
                let mut sched: Box<dyn Scheduler> = match strategy {
                    Some(strategy) => Box::new(DystaScheduler::new(
                        DystaConfig::default(),
                        SparseLatencyPredictor::new(strategy),
                    )),
                    None => Policy::Oracle.build(),
                };
                let m = simulate(w, sched.as_mut(), &EngineConfig::default()).metrics();
                [m.antt, m.violation_rate]
            },
        );
        for ((name, _), s) in strategies.iter().zip(sums) {
            let [antt, viol] = s.mean();
            println!("{:<16} {:>8.2} {:>9.1}%", name, antt, viol * 100.0);
        }
        println!();
    }
    println!("expectation: any monitoring strategy beats γ=1; last-one");
    println!("matches average-all (the paper's justification for choosing");
    println!("the cheapest hardware implementation); the oracle bounds all");
}
