//! Figure 2: impact of dynamic sparsity on language-model layer latency.
//!
//! Profiles sparse BERT over the SQuAD profile on Sanger and plots the
//! distribution of the last and second-last layers' latency, normalized
//! by their averages. The paper observes normalized latency spanning
//! roughly 0.6–1.8.

use dysta::models::ModelId;
use dysta::sparsity::stats::{mean, Histogram};
use dysta::sparsity::SparsityPattern;
use dysta::trace::{ModelTraces, SparseModelSpec};
use dysta_bench::{banner, print_histogram, Scale};

fn main() {
    banner(
        "Figure 2",
        "normalized latency distribution of BERT's last layers",
    );
    let scale = Scale::from_env();
    let samples = (scale.samples_per_variant * 16).max(512);
    let spec = SparseModelSpec::new(ModelId::Bert, SparsityPattern::Dense, 0.0);
    let traces = ModelTraces::generate(&spec, samples, 0);

    let n = traces.num_layers();
    for (label, layer) in [("second-last layer", n - 2), ("last layer", n - 1)] {
        let lats: Vec<f64> = traces
            .samples()
            .iter()
            .map(|s| s.layers()[layer].latency_ns as f64)
            .collect();
        let avg = mean(&lats);
        let normalized: Vec<f64> = lats.iter().map(|l| l / avg).collect();
        let min = normalized.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = normalized.iter().cloned().fold(0.0f64, f64::max);
        let mut hist = Histogram::new(0.4, 2.0, 16);
        hist.extend(normalized.iter().copied());
        print_histogram(
            &format!("{label}: normalized latency (min {min:.2}, max {max:.2})"),
            &hist.centers(),
            &hist.density(),
        );
    }
    println!();
    println!("paper reports: normalized latency varies from ~0.6 to ~1.8");
}
