//! Table 4: RMSE of the sparse latency predictor under the average-all,
//! last-three and last-one coefficient strategies, on BERT and GPT-2.
//!
//! At every layer boundary of every sampled trace the predictor estimates
//! the remaining latency; RMSE is computed against the trace ground truth
//! in seconds (the paper's reported magnitudes are in the 1e-4 range).

use dysta_bench::paper::table04_rows;
use dysta_bench::{banner, Scale};

fn main() {
    banner("Table 4", "RMSE of the sparse latency predictor [seconds]");
    println!(
        "{:<8} {:>14} {:>14} {:>14}",
        "model", "average-all", "last-3", "last-one"
    );
    for row in table04_rows(Scale::from_env()) {
        println!(
            "{:<8} {:>14.6} {:>14.6} {:>14.6}",
            row.model, row.average_all, row.last_3, row.last_one
        );
    }
    println!();
    println!("paper reports (BERT):  avg-all 0.000286, last-3 0.000419, last-one 0.000252");
    println!("paper reports (GPT-2): avg-all 0.000218, last-3 0.000421, last-one 0.000226");
    println!("shape to preserve: last-one ~ average-all, both clearly usable;");
    println!("last-one is chosen for its lower hardware cost");
}
