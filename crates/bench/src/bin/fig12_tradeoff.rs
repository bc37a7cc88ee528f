//! Figure 12: the ANTT / SLO-violation trade-off plane.
//!
//! Multi-AttNN workloads at 30 and 40 samples/s; multi-CNN at 3 and 4.
//! The paper shows Dysta in the lower-left (Pareto) corner of every
//! plane.

use dysta::core::Policy;
use dysta_bench::paper::{fig12_rows, title, FIG12_POINTS};
use dysta_bench::{banner, Scale};

fn main() {
    banner("Figure 12", "SLO violation rate vs ANTT trade-off");
    let rows = fig12_rows(Scale::from_env());
    for (key, scenario, rate) in FIG12_POINTS {
        println!("--- {} @ {rate} samples/s (SLO x10) ---", title(scenario));
        println!("{:<14} {:>10} {:>8}", "policy", "viol [%]", "ANTT");
        let plane: Vec<_> = rows
            .iter()
            .filter(|r| r.scenario == key && r.rate == rate)
            .collect();
        let dysta = plane
            .iter()
            .find(|r| r.policy == Policy::Dysta.name())
            .expect("dysta in set");
        for row in &plane {
            let pareto =
                row.violation_rate >= dysta.violation_rate - 1e-9 && row.antt >= dysta.antt - 1e-9;
            println!(
                "{:<14} {:>9.1}% {:>8.2}{}",
                row.policy,
                row.violation_rate * 100.0,
                row.antt,
                if row.policy == Policy::Dysta.name() {
                    "   <- Dysta"
                } else if pareto {
                    "   (dominated by Dysta)"
                } else {
                    ""
                }
            );
        }
        println!();
    }
    println!("shape to preserve: Dysta sits at the lower-left corner of the");
    println!("violation-rate/ANTT plane at every arrival rate");
}
