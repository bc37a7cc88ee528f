//! Table 6: resource overhead of the Dysta hardware scheduler relative
//! to the Eyeriss-V2 accelerator (FIFO depth 64, Opt_FP16).

use dysta_bench::banner;
use dysta_bench::paper::table06;

fn main() {
    banner("Table 6", "resource overhead of the Dysta scheduler");
    let table = table06();
    println!(
        "{:<18} {:>8} {:>6} {:>14}",
        "module", "LUTs", "DSPs", "On-chip RAM"
    );
    for row in &table.modules {
        println!(
            "{:<18} {:>8} {:>6} {:>11.2} KB",
            row.module, row.luts, row.dsps, row.ram_kb
        );
    }
    println!(
        "{:<18} {:>7.2}% {:>5.1}% {:>12.2}%",
        "Total Overhead", table.lut_pct, table.dsp_pct, table.ram_pct
    );
    println!();
    println!("paper reports: scheduler 553 LUTs / 3 DSPs / 0.5 KB;");
    println!("overhead 0.55% LUTs, 1.5% DSPs, 0.35% RAM");
}
