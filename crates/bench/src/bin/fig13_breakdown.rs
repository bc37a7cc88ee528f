//! Figure 13: optimization breakdown — PREMA (state of the art) vs
//! Dysta-w/o-sparse (static level only) vs full Dysta.
//!
//! The static score already improves on PREMA; adding the dynamic
//! sparsity-aware level mainly improves ANTT (violations are governed by
//! the SLO looseness, as the paper notes).

use dysta_bench::paper::{fig13_rows, title, OPERATING_POINTS};
use dysta_bench::{banner, Scale};

fn main() {
    banner(
        "Figure 13",
        "optimization breakdown (PREMA -> +static -> +dynamic)",
    );
    let rows = fig13_rows(Scale::from_env());
    for (key, scenario, rate) in OPERATING_POINTS {
        println!("--- {} @ {rate} samples/s (SLO x10) ---", title(scenario));
        println!("{:<14} {:>10} {:>8}", "variant", "viol [%]", "ANTT");
        let plane: Vec<_> = rows.iter().filter(|r| r.scenario == key).collect();
        for row in &plane {
            println!(
                "{:<14} {:>9.1}% {:>8.2}",
                row.policy,
                row.violation_rate * 100.0,
                row.antt
            );
        }
        let (prema, full) = (plane[0], plane[2]);
        println!(
            "total gain vs PREMA: viol {:+.1} pp, ANTT {:.2}x\n",
            (full.violation_rate - prema.violation_rate) * 100.0,
            prema.antt / full.antt
        );
    }
    println!("shape to preserve: static level improves over PREMA; the dynamic");
    println!("sparsity-aware level adds a further ANTT drop");
}
