//! Property test: the predictor's O(1) coefficient (running
//! `SparsitySummary` state) equals the batch recompute over the whole
//! monitored sparsity stream, across random execution prefixes and
//! every `CoeffStrategy`.
//!
//! The batch reference below reads the test's own input stream, not
//! the task, and is a line-for-line port of the collect-into-`Vec`
//! implementation the running state replaced, so this test is the
//! contract that the running state changed *no* numerics.

use proptest::prelude::*;

use dysta_core::{
    CoeffStrategy, ModelInfo, ModelInfoLut, SparseLatencyPredictor, SparsitySummary, TaskState,
};
use dysta_models::ModelId;
use dysta_sparsity::SparsityPattern;
use dysta_trace::{ModelTraces, SparseModelSpec, TraceStore, VariantId};

/// The batch computation over the executed layers' monitored
/// `sparsities` (layer `j` at index `j`): collect every dynamic layer's
/// density ratio, window it, average, exponentiate.
fn batch_coefficient(strategy: CoeffStrategy, sparsities: &[f64], info: &ModelInfo) -> f64 {
    if strategy == CoeffStrategy::Disabled {
        return 1.0;
    }
    let avg = info.avg_layer_sparsity();
    let ratios: Vec<f64> = sparsities
        .iter()
        .enumerate()
        .filter(|&(j, _)| avg.get(j).copied().unwrap_or(0.0) > 1e-6)
        .map(|(j, &s)| {
            let avg_density = (1.0 - avg[j]).max(1e-3);
            let mon_density = (1.0 - s).max(1e-3);
            mon_density / avg_density
        })
        .collect();
    if ratios.is_empty() {
        return 1.0;
    }
    let window: &[f64] = match strategy {
        CoeffStrategy::AverageAll => &ratios,
        CoeffStrategy::LastThree => &ratios[ratios.len().saturating_sub(3)..],
        CoeffStrategy::LastOne => &ratios[ratios.len() - 1..],
        CoeffStrategy::Disabled => unreachable!("handled above"),
    };
    let ratio = window.iter().sum::<f64>() / window.len() as f64;
    ratio.powf(info.gamma_exponent())
}

fn lut_for(model: ModelId) -> (SparseModelSpec, VariantId, ModelInfoLut) {
    let spec = SparseModelSpec::new(model, SparsityPattern::Dense, 0.0);
    let mut store = TraceStore::new();
    store.insert(ModelTraces::generate(&spec, 8, 17));
    let variant = store.variant_id(&spec).expect("profiled");
    (spec, variant, ModelInfoLut::from_store(&store))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Running state == batch for every strategy, any random prefix of
    /// any random monitored stream, on both a transformer (rich dynamic
    /// sparsity) and a CNN (sparser dynamic coverage).
    #[test]
    fn incremental_coefficient_matches_batch(
        model_pick in 0usize..2,
        sparsities in prop::collection::vec(0.0f64..0.999, 1..120),
    ) {
        let model = [ModelId::Bert, ModelId::MobileNet][model_pick];
        let (spec, variant, lut) = lut_for(model);
        let info = lut.info(variant);
        let num_layers = info.num_layers();
        let stream = &sparsities[..sparsities.len().min(num_layers)];

        let strategies = [
            CoeffStrategy::AverageAll,
            CoeffStrategy::LastOne,
            CoeffStrategy::LastThree,
            CoeffStrategy::Disabled,
        ];

        // Grow the task layer by layer the way the engine does, checking
        // equivalence at *every* prefix, not just the final state.
        let mut task = TaskState::arrived(0, spec, variant, 0, u64::MAX / 2, num_layers);
        for (j, &s) in stream.iter().enumerate() {
            task.record_layer(s, info);
            for strategy in strategies {
                let predictor = SparseLatencyPredictor::new(strategy);
                let incremental = predictor.coefficient(&task, info);
                let batch = batch_coefficient(strategy, &stream[..=j], info);
                prop_assert!(
                    incremental.to_bits() == batch.to_bits(),
                    "{strategy:?} at prefix {}: incremental {incremental} vs batch {batch}",
                    j + 1
                );
            }
        }

        // The incrementally grown summary equals a batch fold of the
        // input stream.
        let mut batch = SparsitySummary::default();
        for (layer, &s) in stream.iter().enumerate() {
            if let Some(ratio) = info.density_ratio(layer, s) {
                batch.observe(ratio);
            }
        }
        prop_assert_eq!(task.sparsity.ratio_count, batch.ratio_count);
        prop_assert_eq!(task.sparsity.ratio_sum.to_bits(), batch.ratio_sum.to_bits());
        prop_assert_eq!(task.sparsity.last_three_mean(), batch.last_three_mean());
        prop_assert_eq!(task.next_layer, stream.len());
    }
}
