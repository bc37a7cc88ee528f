//! Phase-1 trace persistence across the crate boundary: generate with
//! real accelerator models, save, load, and rebuild identical LUTs.

use std::path::PathBuf;

use dysta::core::ModelInfoLut;
use dysta::models::ModelId;
use dysta::sparsity::SparsityPattern;
use dysta::trace::{ModelTraces, SparseModelSpec, TraceStore};

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("dysta-integration");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

#[test]
fn full_store_roundtrip_preserves_luts() {
    let mut store = TraceStore::new();
    let specs = [
        SparseModelSpec::new(ModelId::Bert, SparsityPattern::Dense, 0.0),
        SparseModelSpec::new(ModelId::ResNet50, SparsityPattern::RandomPointwise, 0.8),
        SparseModelSpec::new(ModelId::Vgg16, SparsityPattern::ChannelWise, 0.6),
        SparseModelSpec::new(
            ModelId::MobileNet,
            SparsityPattern::BlockNm { n: 2, m: 4 },
            0.5,
        ),
    ];
    for spec in &specs {
        store.insert(ModelTraces::generate(spec, 6, 0));
    }
    let path = temp_path("roundtrip.json");
    store.save(&path).expect("save");
    let loaded = TraceStore::load(&path).expect("load");
    std::fs::remove_file(&path).ok();

    assert_eq!(store, loaded);
    let lut_a = ModelInfoLut::from_store(&store);
    let lut_b = ModelInfoLut::from_store(&loaded);
    for spec in &specs {
        assert_eq!(lut_a.expect(spec), lut_b.expect(spec));
    }
}

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
