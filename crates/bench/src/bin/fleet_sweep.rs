//! Fleet-scale sweep: the seed × policy × scenario × SLO grid fanned
//! over `--threads N` threads (default 1, at most one per cell), with
//! byte-identical JSON at any thread count.
//!
//! `--json <path>` writes the rows as JSON — the CI sweep-smoke step
//! runs the quick grid at 1, 3 and 4 threads and diffs the files.
//! `DYSTA_QUICK=1` shrinks the grid the same way it shrinks every other
//! experiment binary.

use dysta::cluster::{ClusterConfig, DispatchPolicy, SweepGrid, SweepRow, SweepScenario};
use dysta::core::Policy;
use dysta::workload::Scenario;
use dysta_bench::{banner, Scale};

const USAGE: &str = "usage: fleet_sweep [--threads N] [--json PATH]";

/// Prints `msg` and the usage on one stderr line and exits with status 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}; {USAGE}");
    std::process::exit(2);
}

/// Parses `--threads N` / `--json <path>` from the command line.
fn args() -> (usize, Option<std::path::PathBuf>) {
    let mut threads = 1usize;
    let mut json = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => {
                // Larger counts are fine: `SweepGrid::run` clamps them
                // to the cell count.
                threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage_error("--threads requires an integer >= 1"))
            }
            "--json" => {
                // A value that looks like a flag is a missing path, not
                // a file to create.
                json = Some(
                    args.next()
                        .filter(|v| !v.starts_with('-'))
                        .map(std::path::PathBuf::from)
                        .unwrap_or_else(|| usage_error("--json requires a path argument")),
                )
            }
            other => usage_error(&format!("unknown argument {other}")),
        }
    }
    (threads, json)
}

/// The sweep grid at the run scale: every dispatcher over both paper
/// scenarios at their operating points, one seed per scale seed.
fn grid(scale: Scale) -> SweepGrid {
    SweepGrid::new(ClusterConfig::heterogeneous(2, 2, Policy::Dysta))
        .seeds(scale.cluster_seeds().collect())
        .policies(DispatchPolicy::ALL.to_vec())
        .scenarios(vec![
            SweepScenario::new("multi_attnn", Scenario::MultiAttNn, 30.0),
            SweepScenario::new("multi_cnn", Scenario::MultiCnn, 3.0),
        ])
        .slo_multipliers(vec![10.0])
        .requests(scale.requests as u64)
        .samples_per_variant(scale.samples_per_variant)
}

fn main() {
    let (threads, json_path) = args();
    banner(
        "Fleet sweep",
        "seed x policy x scenario grid over scoped threads",
    );
    let scale = Scale::from_env();
    let grid = grid(scale);
    println!(
        "{} cells ({} seeds x {} policies x {} scenarios), {} requests/cell, {} thread(s)\n",
        grid.cell_count(),
        grid.seeds.len(),
        grid.policies.len(),
        grid.scenarios.len(),
        grid.requests,
        threads,
    );

    let t0 = std::time::Instant::now();
    let rows = grid.run(threads);
    let wall = t0.elapsed();

    // Per-policy means across seeds, per scenario — the fleet view.
    println!(
        "{:<14} {:<12} {:>8} {:>10} {:>10}",
        "policy", "scenario", "ANTT", "viol [%]", "thr inf/s"
    );
    for policy in &grid.policies {
        for scenario in &grid.scenarios {
            let cells: Vec<&SweepRow> = rows
                .iter()
                .filter(|r| r.policy == policy.name() && r.scenario == scenario.name)
                .collect();
            let n = cells.len() as f64;
            println!(
                "{:<14} {:<12} {:>8.3} {:>9.1}% {:>10.1}",
                policy.name(),
                scenario.name,
                cells.iter().map(|r| r.antt).sum::<f64>() / n,
                cells.iter().map(|r| r.violation_rate).sum::<f64>() / n * 100.0,
                cells.iter().map(|r| r.throughput_inf_s).sum::<f64>() / n,
            );
        }
    }
    println!(
        "\nwall time: {:.1} ms on {} thread(s) — rows are byte-identical at any count",
        wall.as_secs_f64() * 1e3,
        threads
    );

    if let Some(path) = json_path {
        let json = SweepGrid::rows_to_json(&rows);
        std::fs::write(&path, json).unwrap_or_else(|e| {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1);
        });
        println!("wrote {} rows to {}", rows.len(), path.display());
    }
}
