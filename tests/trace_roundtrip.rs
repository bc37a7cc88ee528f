//! Phase-1 traces across the crate boundary, generated with the real
//! accelerator models.

use dysta::models::ModelId;
use dysta::sparsity::SparsityPattern;
use dysta::trace::{ModelTraces, SparseModelSpec};

#[test]
fn pattern_variants_have_distinct_latencies() {
    // The pattern-aware LUT is the static scheduler's edge: the same
    // model under different patterns must profile differently.
    let random = ModelTraces::generate(
        &SparseModelSpec::new(ModelId::ResNet50, SparsityPattern::RandomPointwise, 0.8),
        8,
        0,
    );
    let channel = ModelTraces::generate(
        &SparseModelSpec::new(ModelId::ResNet50, SparsityPattern::ChannelWise, 0.8),
        8,
        0,
    );
    let rel = (random.avg_latency_ns() - channel.avg_latency_ns()).abs() / random.avg_latency_ns();
    assert!(rel > 0.05, "patterns indistinguishable: {rel}");
}
