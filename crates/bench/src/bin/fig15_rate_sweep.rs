//! Figure 15: robustness across arrival rates (violation rate, system
//! throughput and ANTT), at SLO multiplier 10.

use dysta::workload::Scenario;
use dysta_bench::paper::{fig15_rows, title, SWEEP_POLICIES};
use dysta_bench::{banner, Scale};

fn sweep(key: &'static str, scenario: Scenario, rates: [f64; 5], scale: Scale) {
    println!("--- {} (SLO x10) ---", title(scenario));
    let rows = fig15_rows(&rates.map(|rate| (key, scenario, rate)), scale);
    let per_rate: Vec<_> = rows.chunks(SWEEP_POLICIES.len()).collect();
    for metric in ["SLO violation rate [%]", "throughput [inf/s]", "ANTT"] {
        println!("{metric}:");
        print!("{:<14}", "policy");
        for rate in rates {
            print!("{rate:>8}");
        }
        println!();
        for (i, policy) in SWEEP_POLICIES.iter().enumerate() {
            print!("{:<14}", policy.name());
            for plane in &per_rate {
                let r = &plane[i];
                let v = match metric {
                    "ANTT" => r.antt,
                    "throughput [inf/s]" => r.throughput_inf_s,
                    _ => r.violation_rate * 100.0,
                };
                print!("{v:>8.2}");
            }
            println!();
        }
    }
    println!();
}

fn main() {
    banner(
        "Figure 15",
        "violation rate, throughput and ANTT across arrival rates",
    );
    let scale = Scale::from_env();
    sweep(
        "multi_attnn",
        Scenario::MultiAttNn,
        [10.0, 20.0, 30.0, 35.0, 40.0],
        scale,
    );
    sweep(
        "multi_cnn",
        Scenario::MultiCnn,
        [2.0, 3.0, 4.0, 5.0, 6.0],
        scale,
    );
    println!("shape to preserve: all metrics rise with the arrival rate;");
    println!("throughput is scheduler-independent (capacity-bound); Dysta");
    println!("stays lowest on violations and ANTT, tracking the Oracle, with");
    println!("gains growing under heavier traffic");
}
