//! Figure 14: robustness across latency SLO multipliers (10x–150x), at
//! two arrival rates per workload family, including the Oracle — plus
//! the cluster-level extension: deadline-aware (EDF) dispatch vs
//! jsq/affinity across *tight* SLO multipliers on a
//! capacity-heterogeneous pool.

use dysta::workload::Scenario;
use dysta_bench::paper::{fig14_rows, title, SWEEP_POLICIES};
use dysta_bench::serving::{edf_cells, EDF_DISPATCHERS};
use dysta_bench::{banner, Scale};

fn main() {
    banner(
        "Figure 14",
        "violation rate and ANTT across latency SLO multipliers",
    );
    let scale = Scale::from_env();
    let multipliers = [10.0, 25.0, 50.0, 100.0, 150.0];
    for (key, scenario, rates) in [
        ("multi_attnn", Scenario::MultiAttNn, [30.0, 40.0]),
        ("multi_cnn", Scenario::MultiCnn, [3.0, 4.0]),
    ] {
        for rate in rates {
            println!("--- {} @ {rate} samples/s ---", title(scenario));
            let rows = fig14_rows(&[(key, scenario, rate)], &multipliers, scale);
            let per_multiplier: Vec<_> = rows.chunks(SWEEP_POLICIES.len()).collect();
            for metric in ["SLO violation rate [%]", "ANTT"] {
                println!("{metric}:");
                print!("{:<14}", "policy");
                for m in multipliers {
                    print!("{:>9}", format!("x{m:.0}"));
                }
                println!();
                for (i, policy) in SWEEP_POLICIES.iter().enumerate() {
                    print!("{:<14}", policy.name());
                    for plane in &per_multiplier {
                        if metric == "ANTT" {
                            print!("{:>9.2}", plane[i].antt);
                        } else {
                            print!("{:>8.1}%", plane[i].violation_rate * 100.0);
                        }
                    }
                    println!();
                }
            }
            println!();
        }
    }
    println!("shape to preserve: both metrics fall as the SLO relaxes; Dysta");
    println!("tracks the Oracle and stays lowest across the whole sweep");
    println!();
    cluster_edf_sweep(scale);
}

/// The cluster-level slice of the SLO sweep: the deadline-aware `edf`
/// dispatcher against `jsq` and `affinity` on a heterogeneous 2+2 pool
/// where one node of each family runs at 0.5 capacity, under tight SLO
/// multipliers. `edf` charges each node's capacity and mismatch penalty
/// against the inbound request, so it dodges the slow nodes exactly
/// when the deadline cannot absorb them.
fn cluster_edf_sweep(scale: Scale) {
    banner(
        "Figure 14 (cluster)",
        "EDF vs jsq/affinity across tight SLO multipliers, capacity-heterogeneous pool",
    );
    let multipliers = [3.0, 5.0, 10.0];
    println!("mixed CNN+AttNN traffic at 30 samples/s, 2x Eyeriss + 2x Sanger,");
    println!("one node per family at 0.5 capacity\n");
    // One pass over the grid; both tables print from the stored cells.
    let cells = edf_cells(&multipliers, scale);
    for metric in ["SLO violation rate [%]", "ANTT"] {
        println!("{metric}:");
        print!("{:<14}", "dispatch");
        for m in multipliers {
            print!("{:>9}", format!("x{m:.0}"));
        }
        println!();
        for dispatch in EDF_DISPATCHERS {
            print!("{:<14}", dispatch.name());
            for cell in cells.iter().filter(|c| c.dispatch == dispatch.name()) {
                if metric == "ANTT" {
                    print!("{:>9.2}", cell.antt);
                } else {
                    print!("{:>8.1}%", cell.violation_rate * 100.0);
                }
            }
            println!();
        }
        println!();
    }
    println!("shape to preserve: at the tightest multiplier edf beats affinity on");
    println!("violations AND ANTT (both far below jsq); at looser multipliers the two");
    println!("coincide to within noise — edf routes exactly like affinity whenever no");
    println!("deadline is at risk, and only spills under pressure");
}
