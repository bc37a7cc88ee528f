//! Load–latency curves under open-loop traffic: offered load is swept
//! as a multiple of the pool's steady operating point (45 req/s of the
//! balanced mixed serving mix on the 2+2 capacity-heterogeneous pool,
//! SLO x2 — the `fig_admission` configuration) under two stream
//! shapes, and each cell is served twice — admit-all vs slack load
//! shedding — so the curves show what admission control buys when the
//! offered load exceeds capacity:
//!
//! * **flash-crowd**: steady 45 req/s with a mid-run crowd spike to
//!   `L x 45` req/s (the [`ArrivalProcess::FlashCrowd`] profile);
//! * **phase-change**: a steady first phase that switches to
//!   `L x 45` req/s with Zipfian popularity at the phase boundary.
//!
//! Shape to preserve: goodput degrades *gracefully* under overload —
//! by `L = 3` the shedding front-end rejects or degrades work and its
//! goodput stays at or above admit-all's, while admit-all's p99
//! turnaround blows up with the queue.

use dysta::cluster::{
    balanced_mixed_serving_mix, ClusterBuilder, ClusterPolicy, DispatchPolicy, SlackLoadShedding,
};
use dysta::cluster::{simulate_cluster_stream_with, ClusterConfig, ClusterReport};
use dysta::core::Policy;
use dysta::workload::{ArrivalProcess, PhaseSpec, Popularity, SloModel, StreamSpec};
use dysta_bench::{banner, Scale};

/// The steady operating point: the `fig_admission` arrival rate.
const BASE_RATE: f64 = 45.0;
/// Offered-load multipliers applied to the stream's hot section.
const LOAD_FACTORS: [f64; 4] = [1.0, 2.0, 3.0, 4.0];
/// Tight serving SLO (the admission experiments' multiplier).
const SLO_MULTIPLIER: f64 = 2.0;

/// One stream shape at offered-load factor `load`: `num_requests` and
/// trace resolution come from the run scale, everything else from the
/// shape. Both shapes start at the steady operating point and spend
/// their second half at `load x` the base rate, so a factor above the
/// pool's capacity overloads the tail of the run.
fn stream_spec(shape: &str, load: f64, scale: Scale, seed: u64) -> StreamSpec {
    let mix = balanced_mixed_serving_mix();
    let phases = match shape {
        // Steady base rate with a crowd spike to `load x base` opening
        // half a second in (~22 requests at the base rate) and long
        // enough to cover the rest of the run at any factor.
        "flash-crowd" => vec![PhaseSpec {
            start_ns: 0,
            process: ArrivalProcess::FlashCrowd {
                base_rate: BASE_RATE,
                peak_rate: BASE_RATE * load,
                start_s: 0.5,
                duration_s: 60.0,
            },
            mix,
            popularity: Popularity::Weighted,
            slo: SloModel::Fixed(SLO_MULTIPLIER),
        }],
        // Steady first phase, then the rate jumps to `load x base` and
        // popularity skews Zipfian (a hot-model shift riding the surge).
        "phase-change" => vec![
            PhaseSpec::steady(0, BASE_RATE, mix.clone(), SloModel::Fixed(SLO_MULTIPLIER)),
            PhaseSpec {
                start_ns: 500_000_000,
                process: ArrivalProcess::Poisson {
                    rate: BASE_RATE * load,
                },
                mix,
                popularity: Popularity::Zipfian { exponent: 1.0 },
                slo: SloModel::Fixed(SLO_MULTIPLIER),
            },
        ],
        other => unreachable!("unknown stream shape {other}"),
    };
    StreamSpec {
        phases,
        num_requests: scale.requests as u64,
        samples_per_variant: scale.samples_per_variant,
        seed,
    }
}

/// The `fig_admission` pool: 2+2 heterogeneous, FCFS node scheduling,
/// one node per family at half capacity.
fn pool() -> ClusterConfig {
    ClusterBuilder::heterogeneous(2, 2, Policy::Fcfs)
        .node_capacity(1, 0.5)
        .node_capacity(3, 0.5)
        .build()
}

struct Cell {
    goodput_rate: f64,
    p99_ms: f64,
    rejected: usize,
    degraded: usize,
    peak_live: usize,
}

fn run_cell(shape: &str, load: f64, shed: bool, scale: Scale) -> Cell {
    let mut goodput_rate = 0.0;
    let mut p99_ns = 0u64;
    let mut rejected = 0usize;
    let mut degraded = 0usize;
    let mut peak_live = 0usize;
    for seed in 0..scale.seeds {
        let spec = stream_spec(shape, load, scale, seed * 7919 + 13);
        let store = spec.build_store();
        let mut policy = ClusterPolicy::from_dispatch(DispatchPolicy::EarliestDeadlineFirst);
        if shed {
            policy = policy.with_admission(Box::new(SlackLoadShedding::new()));
        }
        let report: ClusterReport =
            simulate_cluster_stream_with(spec.source(&store), &mut policy, &pool());
        goodput_rate += report.goodput_rate();
        p99_ns += report.turnaround_percentile_ns(0.99);
        rejected += report.rejected_total();
        degraded += report.degraded_total();
        peak_live = peak_live.max(report.serving().peak_live_requests);
    }
    let n = scale.seeds as f64;
    Cell {
        goodput_rate: goodput_rate / n,
        p99_ms: p99_ns as f64 / n / 1e6,
        rejected,
        degraded,
        peak_live,
    }
}

fn main() {
    banner(
        "Load curve",
        "goodput and p99 turnaround vs offered load, admit-all vs load shedding",
    );
    let scale = Scale::from_env();
    for shape in ["flash-crowd", "phase-change"] {
        println!("--- {shape} (EDF dispatch, SLO x{SLO_MULTIPLIER}) ---");
        println!(
            "{:>6} {:>10} {:>12} {:>10} {:>12} {:>9} {:>9} {:>9}",
            "load", "goodput", "p99 [ms]", "goodput", "p99 [ms]", "rejected", "degraded", "peak"
        );
        println!(
            "{:>6} {:>10} {:>12} {:>10} {:>12} {:>9} {:>9} {:>9}",
            "", "admit-all", "admit-all", "shed", "shed", "shed", "shed", "live"
        );
        for load in LOAD_FACTORS {
            let all = run_cell(shape, load, false, scale);
            let shed = run_cell(shape, load, true, scale);
            println!(
                "{:>5}x {:>10.3} {:>12.2} {:>10.3} {:>12.2} {:>9} {:>9} {:>9}",
                load,
                all.goodput_rate,
                all.p99_ms,
                shed.goodput_rate,
                shed.p99_ms,
                shed.rejected,
                shed.degraded,
                shed.peak_live.max(all.peak_live),
            );
        }
        println!();
    }
    println!("shape to preserve: past ~2x the operating point the shedding");
    println!("front-end engages (rejected + degraded > 0) and holds goodput at");
    println!("or above admit-all while admit-all's p99 grows with the backlog");
}
