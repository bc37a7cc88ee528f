//! Load–latency curves under open-loop traffic: offered load is swept
//! as a multiple of the pool's steady operating point (45 req/s of the
//! balanced mixed serving mix on the 2+2 capacity-heterogeneous pool,
//! SLO x2 — the `fig_admission` configuration) under two stream
//! shapes, and each cell is served twice — admit-all vs slack load
//! shedding — so the curves show what admission control buys when the
//! offered load exceeds capacity:
//!
//! * **flash-crowd**: steady 45 req/s with a mid-run crowd spike to
//!   `L x 45` req/s (the
//!   [`FlashCrowd`](dysta::workload::ArrivalProcess::FlashCrowd) profile);
//! * **phase-change**: a steady first phase that switches to
//!   `L x 45` req/s with Zipfian popularity at the phase boundary.
//!
//! Shape to preserve: goodput degrades *gracefully* under overload —
//! by `L = 3` the shedding front-end rejects or degrades work, its
//! goodput stays at or above admit-all's and its p99 turnaround below
//! admit-all's, which grows with the queue.

use dysta_bench::serving::{load_curve_cells, LOAD_FACTORS, SHAPES, TIGHT_SLO};
use dysta_bench::{banner, Scale};

fn main() {
    banner(
        "Load curve",
        "goodput and p99 turnaround vs offered load, admit-all vs load shedding",
    );
    let cells = load_curve_cells(Scale::from_env());
    for shape in SHAPES {
        println!("--- {shape} (EDF dispatch, SLO x{TIGHT_SLO}) ---");
        println!(
            "{:>6} {:>10} {:>12} {:>10} {:>12} {:>9} {:>9} {:>9}",
            "load", "goodput", "p99 [ms]", "goodput", "p99 [ms]", "rejected", "degraded", "peak"
        );
        println!(
            "{:>6} {:>10} {:>12} {:>10} {:>12} {:>9} {:>9} {:>9}",
            "", "admit-all", "admit-all", "shed", "shed", "shed", "shed", "live"
        );
        for load in LOAD_FACTORS {
            let cell = |admission: &str| {
                cells
                    .iter()
                    .find(|c| c.shape == shape && c.load == load && c.admission == admission)
                    .expect("cell exists")
            };
            let (all, shed) = (cell("admit-all"), cell("slack-load-shed"));
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
