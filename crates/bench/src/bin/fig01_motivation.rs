//! Figure 1: the motivating examples of sparse multi-DNN dynamicity.
//!
//! (b) two CNNs with the *same* sparsity rate but different patterns
//!     deliver different latencies; (c) a simple prompt is shorter and
//!     sparser — hence several times faster — than a complex one.

use dysta::models::ModelId;
use dysta::sparsity::SparsityPattern;
use dysta::trace::{ModelTraces, SparseModelSpec};
use dysta_bench::banner;

fn main() {
    banner("Figure 1", "sparsity pattern and dynamicity examples");

    println!("(b) sparsity pattern at identical 83% rate (ResNet-50):");
    for pattern in [
        SparsityPattern::RandomPointwise,
        SparsityPattern::ChannelWise,
    ] {
        let spec = SparseModelSpec::new(ModelId::ResNet50, pattern, 0.83);
        let traces = ModelTraces::generate(&spec, 32, 0);
        println!(
            "    {:<10} pattern, rate 83% -> isolated latency {:6.1} ms",
            pattern,
            traces.avg_latency_ns() / 1e6
        );
    }
    println!();

    println!("(c) sparsity dynamicity (GPT-2 under dynamic attention pruning):");
    let spec = SparseModelSpec::new(ModelId::Gpt2, SparsityPattern::Dense, 0.0);
    let traces = ModelTraces::generate(&spec, 256, 0);
    let simple = (0..traces.num_samples() as u64)
        .min_by_key(|&i| traces.sample(i).isolated_latency_ns())
        .unwrap();
    let complex = (0..traces.num_samples() as u64)
        .max_by_key(|&i| traces.sample(i).isolated_latency_ns())
        .unwrap();
    for (label, idx) in [("simple prompt", simple), ("complex prompt", complex)] {
        let t = traces.sample(idx);
        println!(
            "    {:<15} latency {:5.1} ms, dynamic sparsity {:4.1}%, rel. length {:.2}",
            label,
            t.isolated_latency_ns() as f64 / 1e6,
            t.mean_dynamic_sparsity() * 100.0,
            t.seq_scale()
        );
    }
    let ratio = traces.sample(complex).isolated_latency_ns() as f64
        / traces.sample(simple).isolated_latency_ns() as f64;
    println!("    complex/simple latency ratio: {ratio:.1}x");
    println!();
    println!("paper's example: simple 1 ms @ 90% sparsity vs complex 4 ms @ 30%");
}
