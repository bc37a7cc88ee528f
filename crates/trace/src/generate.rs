//! Phase-1 trace generation: drive the accelerator models over sampled
//! inputs.

use dysta_accel::{AcceleratorKind, SparseContext};
use dysta_models::{zoo, ModelGraph};
use dysta_sparsity::{SampleSparsityGenerator, SparsityPattern};

use crate::{LayerRecord, ModelTraces, SampleTrace, SparseModelSpec};

impl ModelTraces {
    /// Generates `count` sample traces for `spec`, deterministically from
    /// `seed`, by iterating the sparse model over sampled inputs on the
    /// accelerator the paper pairs with its family — the paper's "insert
    /// hardware simulator via layer hooks and iterate through the
    /// dataset" step.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use dysta_trace::{ModelTraces, SparseModelSpec};
    /// use dysta_models::ModelId;
    /// use dysta_sparsity::SparsityPattern;
    ///
    /// let spec = SparseModelSpec::new(ModelId::Bert, SparsityPattern::Dense, 0.0);
    /// let traces = ModelTraces::generate(&spec, 8, 1);
    /// assert_eq!(traces.num_layers(), dysta_models::zoo::bert(384).num_layers());
    /// ```
    pub fn generate(spec: &SparseModelSpec, count: u64, seed: u64) -> ModelTraces {
        assert!(count > 0, "need at least one sample");
        let model = zoo::build(spec.model);
        let accel = AcceleratorKind::for_family(spec.model.family());
        let sparsity_gen = SampleSparsityGenerator::new(&model, spec.profile, seed);
        let samples = (0..count)
            .map(|i| trace_one(&model, spec, accel, &sparsity_gen, i))
            .collect();
        ModelTraces::new(*spec, samples)
    }
}

fn trace_one(
    model: &ModelGraph,
    spec: &SparseModelSpec,
    accel: AcceleratorKind,
    sparsity_gen: &SampleSparsityGenerator,
    index: u64,
) -> SampleTrace {
    let sample = sparsity_gen.sample(index);
    let weight_rate = match spec.pattern {
        SparsityPattern::Dense => 0.0,
        SparsityPattern::BlockNm { n, m } => 1.0 - n as f64 / m as f64,
        _ => spec.weight_rate,
    };
    let mut prev_out_sparsity = 0.0;
    let layers = model
        .iter()
        .map(|(i, layer)| {
            let own = sample.layer(i);
            let ctx = SparseContext {
                pattern: spec.pattern,
                weight_rate,
                input_activation_sparsity: prev_out_sparsity,
                layer_sparsity: own,
                seq_scale: sample.seq_scale(),
            };
            let latency_ns = accel.layer_latency_ns(layer, &ctx).round().max(1.0) as u64;
            // Attention-matrix sparsity does not propagate as input
            // activation sparsity; ReLU output sparsity does.
            prev_out_sparsity = if layer.relu() { own } else { 0.0 };
            // The hardware monitor counts zeros over the *nominal*
            // layer shape, so for attention layers the recorded
            // sparsity folds in the sample's sequence length: a short
            // prompt leaves most of the nominal attention matrix
            // empty. This is exactly the signal that makes the
            // monitored value predictive of remaining latency.
            let recorded = if layer.is_dynamic_attention() {
                let nominal_density =
                    ((1.0 - own) * sample.seq_scale() * sample.seq_scale()).min(1.0);
                1.0 - nominal_density
            } else {
                own
            };
            LayerRecord {
                latency_ns,
                sparsity: recorded,
            }
        })
        .collect();
    SampleTrace::new(layers, sample.seq_scale())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dysta_models::ModelId;
    use dysta_sparsity::stats;

    #[test]
    fn deterministic_generation() {
        let spec = SparseModelSpec::new(ModelId::MobileNet, SparsityPattern::RandomPointwise, 0.8);
        assert_eq!(
            ModelTraces::generate(&spec, 4, 9),
            ModelTraces::generate(&spec, 4, 9)
        );
    }

    #[test]
    fn latency_varies_across_samples_for_language_models() {
        let spec = SparseModelSpec::new(ModelId::Bert, SparsityPattern::Dense, 0.0);
        let traces = ModelTraces::generate(&spec, 64, 2);
        let lats: Vec<f64> = traces
            .samples()
            .iter()
            .map(|s| s.isolated_latency_ns() as f64)
            .collect();
        let cv = stats::std_dev(&lats) / stats::mean(&lats);
        // Sequence-length + attention-density dynamicity: strong variance.
        assert!(cv > 0.1, "coefficient of variation {cv}");
        // And a meaningful min-max spread (the paper's Fig. 1c shows ~4x).
        let min = lats.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = lats.iter().cloned().fold(0.0f64, f64::max);
        assert!(max / min > 1.8, "spread {}", max / min);
    }

    #[test]
    fn cnn_latency_varies_mildly_across_samples() {
        let spec = SparseModelSpec::new(ModelId::ResNet50, SparsityPattern::RandomPointwise, 0.8);
        let traces = ModelTraces::generate(&spec, 64, 3);
        let lats: Vec<f64> = traces
            .samples()
            .iter()
            .map(|s| s.isolated_latency_ns() as f64)
            .collect();
        let cv = stats::std_dev(&lats) / stats::mean(&lats);
        assert!(cv > 0.005 && cv < 0.3, "cv {cv}");
    }

    #[test]
    fn sparser_variant_is_faster() {
        let dense = ModelTraces::generate(
            &SparseModelSpec::new(ModelId::Vgg16, SparsityPattern::Dense, 0.0),
            8,
            4,
        );
        let sparse = ModelTraces::generate(
            &SparseModelSpec::new(ModelId::Vgg16, SparsityPattern::RandomPointwise, 0.9),
            8,
            4,
        );
        assert!(sparse.avg_latency_ns() < dense.avg_latency_ns());
    }

    #[test]
    fn attention_layers_record_their_sparsity() {
        let spec = SparseModelSpec::new(ModelId::Gpt2, SparsityPattern::Dense, 0.0);
        let traces = ModelTraces::generate(&spec, 4, 5);
        let model = zoo::gpt2(256);
        let t = traces.sample(0);
        for (i, _) in model.iter().filter(|(_, l)| l.is_dynamic_attention()) {
            assert!(t.layers()[i].sparsity > 0.3, "layer {i}");
        }
    }
}
