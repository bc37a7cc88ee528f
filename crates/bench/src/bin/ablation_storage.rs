//! Ablation: sparse-storage format crossovers per sparsity pattern.
//!
//! Prices the compressed footprint of ResNet-50's weights under each
//! storage format, pattern and rate — the "efficient sparse-storage
//! schemes" dimension of the paper's Section 2.2 substrate.

use dysta::accel::storage::StorageFormat;
use dysta::models::zoo;
use dysta::sparsity::SparsityPattern;
use dysta_bench::banner;

/// The format's variant name, without its parameters.
fn name(format: &StorageFormat) -> &'static str {
    match format {
        StorageFormat::Dense => "Dense",
        StorageFormat::Bitmap => "Bitmap",
        StorageFormat::Csr { .. } => "Csr",
        StorageFormat::RunLength { .. } => "RunLength",
    }
}

fn main() {
    banner(
        "Ablation",
        "sparse-storage format comparison (ResNet-50 weights)",
    );
    let model = zoo::resnet50();
    let params = model.total_params();
    let formats = [
        StorageFormat::Dense,
        StorageFormat::Bitmap,
        StorageFormat::Csr { index_bits: 16 },
        StorageFormat::RunLength { run_bits: 16 },
    ];
    // (row label, smallest format(s)) for the footer.
    let mut rows = Vec::new();
    println!("compressed size [MB] at pattern-typical zero clustering:");
    print!("{:<22}", "pattern @ rate");
    for f in &formats {
        print!("{:>12}", name(f));
    }
    println!();
    for (pattern, rate) in [
        (SparsityPattern::RandomPointwise, 0.5),
        (SparsityPattern::RandomPointwise, 0.8),
        (SparsityPattern::RandomPointwise, 0.95),
        (SparsityPattern::BlockNm { n: 2, m: 4 }, 0.5),
        (SparsityPattern::ChannelWise, 0.5),
        (SparsityPattern::ChannelWise, 0.8),
    ] {
        let run = StorageFormat::typical_zero_run(pattern, rate, 576);
        let label = format!("{pattern} @ {:.0}%", rate * 100.0);
        print!("{label:<22}");
        // Sizes rounded as printed, so a tie in the table is a tie here.
        let sizes: Vec<f64> = formats
            .iter()
            .map(|f| format!("{:.2}", f.bytes(params, rate, run) / 1e6))
            .map(|mb| mb.parse().expect("printed size"))
            .collect();
        for size in &sizes {
            print!("{size:>12.2}");
        }
        println!();
        let min = sizes.iter().copied().fold(f64::INFINITY, f64::min);
        let smallest: Vec<&str> = formats
            .iter()
            .zip(&sizes)
            .filter(|&(_, &size)| size == min)
            .map(|(f, _)| name(f))
            .collect();
        rows.push((label, smallest.join(", ")));
    }
    println!();
    println!("preferred format per pattern:");
    for pattern in SparsityPattern::ALL {
        println!(
            "  {:<10} -> {:?}",
            pattern.short_name(),
            StorageFormat::preferred_for(pattern)
        );
    }
    println!();
    println!("smallest format per row (ties listed together):");
    for (label, smallest) in rows {
        println!("  {label:<20} -> {smallest}");
    }
}
