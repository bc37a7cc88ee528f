//! Table 5: end-to-end ANTT and SLO violation rate of all scheduling
//! approaches on the multi-AttNN (30 samples/s) and multi-CNN
//! (3 samples/s) workloads at SLO multiplier 10.

use dysta_bench::paper::{table05_rows, title, PolicyRow, OPERATING_POINTS};
use dysta_bench::{banner, Scale};

/// The policies (comma-separated, ties included) with the lowest
/// `metric` among `rows`.
fn lowest(rows: &[&PolicyRow], metric: fn(&PolicyRow) -> f64) -> String {
    let min = rows.iter().map(|r| metric(r)).fold(f64::INFINITY, f64::min);
    let best: Vec<&str> = rows
        .iter()
        .filter(|r| metric(r) == min)
        .map(|r| r.policy.as_str())
        .collect();
    best.join(", ")
}

fn main() {
    banner("Table 5", "comparison of scheduling approaches");
    let scale = Scale::from_env();
    // Paper reference rows (ANTT, violation %) for orientation.
    let paper_attnn = [
        ("fcfs", 18.9, 55.1),
        ("sjf", 5.0, 15.2),
        ("sdrm3", 18.9, 63.3),
        ("prema", 5.4, 15.3),
        ("planaria", 16.0, 6.8),
        ("dysta", 4.7, 5.1),
    ];
    let paper_cnn = [
        ("fcfs", 11.4, 23.1),
        ("sjf", 2.6, 3.4),
        ("sdrm3", 9.3, 33.7),
        ("prema", 3.0, 3.2),
        ("planaria", 4.2, 2.1),
        ("dysta", 2.5, 2.0),
    ];
    let rows = table05_rows(scale);
    for ((key, scenario, rate), paper) in
        OPERATING_POINTS.into_iter().zip([&paper_attnn, &paper_cnn])
    {
        println!(
            "--- {} @ {rate} samples/s (SLO x10, {} reqs, {} seeds) ---",
            title(scenario),
            scale.requests,
            scale.seeds
        );
        println!(
            "{:<14} {:>8} {:>10} | {:>10} {:>12}",
            "policy", "ANTT", "viol [%]", "paper ANTT", "paper viol"
        );
        let here: Vec<&PolicyRow> = rows.iter().filter(|r| r.scenario == key).collect();
        for row in &here {
            let reference = paper.iter().find(|(name, _, _)| *name == row.policy);
            let (pa, pv) = reference
                .map(|&(_, a, v)| (a, v))
                .unwrap_or((f64::NAN, f64::NAN));
            println!(
                "{:<14} {:>8.2} {:>9.1}% | {:>10.1} {:>11.1}%",
                row.policy,
                row.antt,
                row.violation_rate * 100.0,
                pa,
                pv
            );
        }
        println!("lowest ANTT: {}", lowest(&here, |r| r.antt));
        println!(
            "lowest violation rate: {}",
            lowest(&here, |r| r.violation_rate)
        );
        println!();
    }
}
