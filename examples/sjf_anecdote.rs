//! Figure 5 reconstruction: the SJF preemption mistake that motivates
//! sparsity-aware scheduling.
//!
//! A ResNet-50 request is mid-flight when a MobileNet request arrives.
//! Without sparsity information SJF estimates the newcomer from the
//! profiled average; with per-sample sparsity the newcomer's true
//! (much shorter) latency is known, flipping the preemption decision.
//!
//! Run with `cargo run --release --example sjf_anecdote`.

use dysta::core::{ModelInfoLut, Policy};
use dysta::models::ModelId;
use dysta::sparsity::SparsityPattern;
use dysta::trace::{ModelTraces, SparseModelSpec, TraceStore};

fn main() {
    let resnet = SparseModelSpec::new(ModelId::ResNet50, SparsityPattern::RandomPointwise, 0.8);
    let mobilenet = SparseModelSpec::new(ModelId::MobileNet, SparsityPattern::RandomPointwise, 0.7);
    let mut store = TraceStore::new();
    store.insert(ModelTraces::generate(&resnet, 64, 0));
    store.insert(ModelTraces::generate(&mobilenet, 64, 0));
    let lut = ModelInfoLut::from_store(&store);

    // Pick the *sparsest* (fastest) MobileNet sample: the case where the
    // profiled average most overestimates its latency.
    let mob_traces = store.get(&mobilenet).unwrap();
    let fast_idx = (0..mob_traces.num_samples() as u64)
        .min_by_key(|&i| mob_traces.sample(i).isolated_latency_ns())
        .unwrap();
    let fast = mob_traces.sample(fast_idx);
    let avg_ms = mob_traces.avg_latency_ns() / 1e6;
    let true_ms = fast.isolated_latency_ns() as f64 / 1e6;
    println!("MobileNet arrival:");
    println!("  profiled-average latency estimate : {avg_ms:.2} ms");
    println!("  true latency of THIS sparse input : {true_ms:.2} ms");
    println!();

    // The paper's Figure 5 is a constructed illustration: the in-flight
    // ResNet-50's remaining time falls *between* the newcomer's true and
    // profiled-average latencies, so the preemption call hinges on which
    // estimate the scheduler trusts. Find the layer boundary where that
    // holds.
    let res_info = lut.info(store.variant_id(&resnet).unwrap());
    let target_ms = (avg_ms + true_ms) / 2.0;
    let progress = (0..res_info.num_layers())
        .min_by(|&a, &b| {
            let da = (res_info.avg_remaining_ns(a) / 1e6 - target_ms).abs();
            let db = (res_info.avg_remaining_ns(b) / 1e6 - target_ms).abs();
            da.total_cmp(&db)
        })
        .unwrap();
    let res_remaining_ms = res_info.avg_remaining_ns(progress) / 1e6;
    println!(
        "ResNet-50 in flight at layer {progress}/{}: ~{res_remaining_ms:.2} ms remaining",
        res_info.num_layers()
    );
    println!();

    let decision = |estimate_ms: f64| {
        if estimate_ms < res_remaining_ms {
            "PREEMPT (run MobileNet first)"
        } else {
            "no preemption (finish ResNet-50)"
        }
    };
    println!(
        "(a) SJF without sparsity info: estimate {avg_ms:.2} ms -> {}",
        decision(avg_ms)
    );
    println!(
        "(b) SJF with sparsity info   : estimate {true_ms:.2} ms -> {}",
        decision(true_ms)
    );
    println!();
    if decision(avg_ms) != decision(true_ms) {
        println!("sparsity information flipped the preemption decision — the");
        println!("paper's Figure 5 scenario, where (a) violates the MobileNet");
        println!("SLO and (b) meets it.");
    } else {
        println!("note: with this seed both estimates agree; the Dysta policy");
        println!("still refines decisions at every layer boundary.");
    }

    let dysta = Policy::Dysta.build();
    println!(
        "\nthe {} policy makes decision (b) automatically.",
        dysta.name()
    );
}
