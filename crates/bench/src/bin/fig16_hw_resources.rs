//! Figure 16: normalized resource usage of the hardware scheduler under
//! the two optimizations (reconfigurable shared compute unit, FP16), at
//! request FIFO depths 512 and 64.

use dysta_bench::banner;
use dysta_bench::paper::{fig16_rows, FIG16_DEPTHS};

fn main() {
    banner("Figure 16", "resource usage with different optimizations");
    let rows = fig16_rows();
    for depth in FIG16_DEPTHS {
        println!("--- request depth {depth} (normalized to Non_Opt_FP32) ---");
        println!(
            "{:<14} {:>8} {:>8} {:>8} | {:>7} {:>7} {:>7} {:>9}",
            "design", "LUT", "FF", "DSP", "LUTs", "FFs", "DSPs", "RAM [KB]"
        );
        for row in rows.iter().filter(|r| r.depth == depth) {
            println!(
                "{:<14} {:>8.2} {:>8.2} {:>8.2} | {:>7} {:>7} {:>7} {:>9.2}",
                row.design,
                row.lut_norm,
                row.ff_norm,
                row.dsp_norm,
                row.luts,
                row.ffs,
                row.dsps,
                row.ram_kb
            );
        }
        println!();
    }
    println!("shape to preserve: the shared reconfigurable unit cuts LUT/FF/DSP");
    println!("significantly; FP16 cuts all three again; consistent at both depths");
}
