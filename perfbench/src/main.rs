//! Host-speed benchmark of the dysta simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_replay|fleet_serving|sweep_grid> \
//!     --seed <n|held-out> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the seven end-to-end metrics on untraced
//! passes; `--trace 1` makes the traced run that reports the per-layer
//! metrics. Either way the last stdout line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. See README.md for
//! why each workload exists and which layer metric should move which
//! end-to-end metric.

mod adapter;
mod fleet_serving;
mod layers;
mod measure;
mod paper_replay;
mod sweep_grid;

/// A seed kept out of tuning: a change that claims a gain should also
/// show it with `--seed held-out`.
const HELD_OUT_SEED: u64 = 104_729;

const USAGE: &str = "usage: perfbench --workload <paper_replay|fleet_serving|sweep_grid> \
                     --seed <n|held-out> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" if value == "held-out" => seed = Some(HELD_OUT_SEED),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| format!("--seconds must be 1..=600, got {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Refuses settings that would silently change what is measured: a
/// thread count for the sharded cluster advance other than 1, or the
/// quick experiment scale.
fn check_environment() -> Result<(), String> {
    if let Ok(threads) = std::env::var("DYSTA_THREADS") {
        if threads.trim() != "1" {
            return Err(format!(
                "DYSTA_THREADS={threads} would change the measured program; unset it or set 1"
            ));
        }
    }
    if std::env::var_os("DYSTA_QUICK").is_some() {
        return Err("DYSTA_QUICK is set; the benchmark runs at its own fixed scale".into());
    }
    Ok(())
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    if let Err(e) = check_environment() {
        eprintln!("perfbench: refusing to run: {e}");
        std::process::exit(2);
    }
    let (seed, seconds) = (args.seed, args.seconds);
    let report = match (args.workload.as_str(), args.trace) {
        ("paper_replay", false) => paper_replay::run(seed, seconds),
        ("paper_replay", true) => paper_replay::run_traced(seed, seconds),
        ("fleet_serving", false) => fleet_serving::run(seed, seconds),
        ("fleet_serving", true) => fleet_serving::run_traced(seed, seconds),
        ("sweep_grid", false) => sweep_grid::run(seed, seconds),
        ("sweep_grid", true) => sweep_grid::run_traced(seed, seconds),
        (other, _) => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    };
    report.print(&args.workload);
}
