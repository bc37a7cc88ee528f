//! Ablation: end-to-end effect of the sparse-latency-predictor strategy
//! (extends Table 4's offline RMSE comparison into full scheduling).

use std::cmp::Ordering;

use dysta::core::{
    CoeffStrategy, DystaConfig, DystaScheduler, Policy, Scheduler, SparseLatencyPredictor,
};
use dysta::sim::{simulate, EngineConfig};
use dysta::workload::{Scenario, WorkloadBuilder};
use dysta_bench::{banner, replicate, Scale};

/// `antt` as the table prints it (two decimals), so the footer's ties
/// are the ties a reader sees.
fn shown(antt: f64) -> f64 {
    format!("{antt:.2}").parse().expect("printed ANTT")
}

/// The names in `rows` whose shown ANTT compares to `reference` as
/// `order`, comma-separated ("none" if there are none).
fn names(rows: &[(&str, f64)], reference: f64, order: Ordering) -> String {
    let hits: Vec<&str> = rows
        .iter()
        .filter(|(_, antt)| antt.total_cmp(&reference) == order)
        .map(|&(name, _)| name)
        .collect();
    if hits.is_empty() {
        "none".to_owned()
    } else {
        hits.join(", ")
    }
}

fn main() {
    banner(
        "Ablation",
        "predictor strategy inside full Dysta scheduling",
    );
    let scale = Scale::from_env();
    let strategies: [(&str, Option<CoeffStrategy>); 5] = [
        ("disabled (γ=1)", Some(CoeffStrategy::Disabled)),
        ("average-all", Some(CoeffStrategy::AverageAll)),
        ("last-3", Some(CoeffStrategy::LastThree)),
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
        let mut rows = Vec::new();
        for ((name, _), s) in strategies.iter().zip(sums) {
            let [antt, viol] = s.mean();
            println!("{:<16} {:>8.2} {:>9.1}%", name, antt, viol * 100.0);
            rows.push((*name, shown(antt)));
        }
        // Rows: disabled (γ=1), the three monitoring strategies, oracle.
        let (disabled, monitoring) = (rows[0].1, &rows[1..4]);
        let min = rows.iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
        println!("lowest ANTT: {}", names(&rows, min, Ordering::Equal));
        println!(
            "ANTT vs disabled (γ=1): lower {}; tied {}; higher {}",
            names(monitoring, disabled, Ordering::Less),
            names(monitoring, disabled, Ordering::Equal),
            names(monitoring, disabled, Ordering::Greater)
        );
        let (average_all, last_one) = (rows[1].1, rows[3].1);
        let verdict = match last_one.total_cmp(&average_all) {
            Ordering::Less => "lower",
            Ordering::Equal => "tied",
            Ordering::Greater => "higher",
        };
        println!("ANTT of last-one vs average-all: {verdict}");
        println!();
    }
}
