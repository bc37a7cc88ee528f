//! Sanger performance model (sparse attention accelerator).
//!
//! Sanger (Lu et al., MICRO 2021) predicts the attention mask with a
//! low-precision pass, then packs the surviving attention scores onto a
//! reconfigurable systolic array using load-balanced split-and-pack, so
//! attention latency scales close to linearly with attention *density*.
//! Projection/FFN matmuls execute densely on the same array. The
//! calibration uses a datacenter-class deployment (2048 MACs at 1 GHz,
//! HBM-class bandwidth) sized so the multi-AttNN workload saturates
//! around the paper's 40 samples/s operating point.

use dysta_models::{Layer, LayerKind};

use crate::{EffectiveWork, SparseContext};

/// Number of MAC units in the reconfigurable array.
const MACS: u32 = 2048;
/// Clock frequency in hertz.
const CLOCK_HZ: f64 = 1.0e9;
/// Off-chip bandwidth in bytes per second.
const DRAM_BYTES_PER_SEC: f64 = 25.0e9;
/// Array utilization on dense matmuls (projections, FFNs).
const UTIL_DENSE: f64 = 0.49;
/// Array utilization on load-balanced sparse attention; Sanger's
/// split-and-pack keeps this high even for irregular masks.
const UTIL_SPARSE_ATTENTION: f64 = 0.82;
/// Overhead of the mask-prediction pre-pass, as a fraction of the dense
/// attention-score time.
const MASK_PREDICT_OVERHEAD: f64 = 0.08;
/// Fixed per-layer dispatch overhead in nanoseconds.
const LAYER_OVERHEAD_NS: f64 = 10_000.0;

/// Latency of `layer` under `ctx` on Sanger, in nanoseconds.
pub(crate) fn layer_latency_ns(layer: &Layer, ctx: &SparseContext) -> f64 {
    let work = EffectiveWork::compute(layer, ctx);
    let peak = MACS as f64 * CLOCK_HZ;
    let compute_ns = match layer.kind() {
        LayerKind::AttentionScore(_) | LayerKind::AttentionContext(_) => {
            let balanced = peak * UTIL_SPARSE_ATTENTION;
            let sparse_ns = work.effective_macs / balanced * 1e9;
            // The low-precision mask predictor runs over the dense
            // score matrix regardless of the final density.
            let predict_ns = if matches!(layer.kind(), LayerKind::AttentionScore(_)) {
                work.dense_macs * MASK_PREDICT_OVERHEAD / (peak * UTIL_DENSE) * 1e9
            } else {
                0.0
            };
            sparse_ns + predict_ns
        }
        _ => work.effective_macs / (peak * UTIL_DENSE) * 1e9,
    };
    let memory_ns = work.bytes_moved / DRAM_BYTES_PER_SEC * 1e9;
    compute_ns.max(memory_ns) + LAYER_OVERHEAD_NS
}
#[cfg(test)]
mod tests {
    use super::*;
    use dysta_models::zoo;
    use dysta_sparsity::SparsityPattern;

    fn nlp_ctx(attention_sparsity: f64, seq_scale: f64) -> SparseContext {
        SparseContext {
            pattern: SparsityPattern::Dense,
            weight_rate: 0.0,
            input_activation_sparsity: 0.05,
            layer_sparsity: attention_sparsity,
            seq_scale,
        }
    }

    fn model_latency_ms(model: &dysta_models::ModelGraph, ctx: &SparseContext) -> f64 {
        model
            .layers()
            .iter()
            .map(|l| {
                let mut c = *ctx;
                if !l.is_dynamic_attention() {
                    c.layer_sparsity = 0.0;
                }
                layer_latency_ns(l, &c)
            })
            .sum::<f64>()
            / 1e6
    }

    #[test]
    fn bert_latency_in_tens_of_ms() {
        let ms = model_latency_ms(&zoo::bert(384), &nlp_ctx(0.75, 1.0));
        assert!((10.0..60.0).contains(&ms), "{ms} ms");
    }

    #[test]
    fn all_attnn_models_fit_30_per_sec_regime() {
        // The paper drives Sanger at 30 samples/s: the mean service time
        // of the deployed mix (GLUE GPT-2 inputs are short, seq 128) must
        // sit below but near the 33.3 ms budget so the operating point is
        // loaded but feasible.
        let models = [zoo::bert(384), zoo::gpt2(128), zoo::bart(256, 256)];
        let mean: f64 = models
            .iter()
            .map(|m| model_latency_ms(m, &nlp_ctx(0.75, 1.0)))
            .sum::<f64>()
            / models.len() as f64;
        assert!((18.0..33.3).contains(&mean), "mean {mean} ms");
    }

    #[test]
    fn shorter_sequences_are_faster() {
        let long = model_latency_ms(&zoo::bert(384), &nlp_ctx(0.75, 1.4));
        let short = model_latency_ms(&zoo::bert(384), &nlp_ctx(0.75, 0.5));
        assert!(short < long * 0.55, "short {short} long {long}");
    }

    #[test]
    fn attention_sparsity_reduces_attention_latency() {
        let score = zoo::bert(384)
            .layers()
            .iter()
            .find(|l| l.is_dynamic_attention())
            .cloned()
            .unwrap();
        let dense = layer_latency_ns(&score, &nlp_ctx(0.0, 1.0));
        let sparse = layer_latency_ns(&score, &nlp_ctx(0.9, 1.0));
        assert!(sparse < dense);
    }

    #[test]
    fn mask_predictor_pays_fixed_cost() {
        // Even at extreme sparsity the score layer retains the predictor
        // pre-pass cost, so latency never collapses to the overhead floor.
        let score = zoo::bert(384)
            .layers()
            .iter()
            .find(|l| matches!(l.kind(), LayerKind::AttentionScore(_)))
            .cloned()
            .unwrap();
        let ns = layer_latency_ns(&score, &nlp_ctx(0.995, 1.0));
        assert!(ns > LAYER_OVERHEAD_NS * 1.5);
    }
}
