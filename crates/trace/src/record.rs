//! Trace record types.

use std::fmt;

use dysta_models::ModelId;
use dysta_sparsity::{DatasetProfile, SparsityPattern};

/// Identifies one sparse-model variant: the unit the paper's LUTs key on
/// ("model-pattern pair") plus the dataset profile driving its dynamic
/// sparsity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparseModelSpec {
    /// Which benchmark architecture.
    pub model: ModelId,
    /// Weight-sparsity pattern.
    pub pattern: SparsityPattern,
    /// Weight-sparsity rate (ignored for `Dense`; fixed by N:M patterns).
    pub weight_rate: f64,
    /// Dataset profile driving dynamic sparsity.
    pub profile: DatasetProfile,
}

impl SparseModelSpec {
    /// Creates a spec with the model's default dataset profile.
    pub fn new(model: ModelId, pattern: SparsityPattern, weight_rate: f64) -> Self {
        SparseModelSpec {
            model,
            pattern,
            weight_rate,
            profile: DatasetProfile::default_for(model),
        }
    }

    /// The variant's stable string key, `model|pattern|rate|profile`
    /// with the rate to four decimals: specs that agree to that
    /// precision are one variant. [`crate::TraceStore`] sorts its
    /// entries by it and resolves specs with it, so a key's rank is the
    /// variant's [`VariantId`]. Formatting one allocates, so only
    /// construction code builds keys; per-request paths index by the id
    /// each request carries.
    pub fn key(&self) -> String {
        format!(
            "{}|{}|{:.4}|{:?}",
            self.model, self.pattern, self.weight_rate, self.profile
        )
    }
}

/// Dense handle of one profiled sparse-model variant.
///
/// The variant's sorted-key rank in a [`crate::TraceStore`], the one
/// place a spec resolves to an id ([`crate::TraceStore::variant_id`]).
/// The `ModelInfoLut` built from the store holds its entries in the
/// same order, so schedulers index the LUT with a plain array offset.
/// Resolved once per variant where requests are minted (a request
/// source) and carried on every request from there.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct VariantId(u32);

impl VariantId {
    /// Builds an id from a dense index (the variant's sorted-key rank).
    pub fn from_index(index: usize) -> Self {
        VariantId(u32::try_from(index).expect("variant count fits in u32"))
    }

    /// The dense index this id names.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SparseModelSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} @ {:.0}%)",
            self.model,
            self.pattern,
            self.weight_rate * 100.0
        )
    }
}

/// Per-layer runtime record: what the hardware monitor would report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerRecord {
    /// Layer execution latency in nanoseconds.
    pub latency_ns: u64,
    /// Monitored layer sparsity (output-activation sparsity for CNN
    /// layers, attention-matrix sparsity for attention matmuls, 0
    /// otherwise).
    pub sparsity: f64,
}

/// The runtime information of one input sample on one sparse model.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleTrace {
    layers: Vec<LayerRecord>,
    seq_scale: f64,
}

impl SampleTrace {
    /// Builds a trace from per-layer records.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty.
    pub fn new(layers: Vec<LayerRecord>, seq_scale: f64) -> Self {
        assert!(!layers.is_empty(), "trace must have at least one layer");
        SampleTrace { layers, seq_scale }
    }

    /// Per-layer records in execution order.
    pub fn layers(&self) -> &[LayerRecord] {
        &self.layers
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Relative sequence length of this sample.
    pub fn seq_scale(&self) -> f64 {
        self.seq_scale
    }

    /// Total uninterrupted execution time (the paper's `T_isol`).
    pub fn isolated_latency_ns(&self) -> u64 {
        self.layers.iter().map(|l| l.latency_ns).sum()
    }

    /// True remaining execution time starting at layer `next_layer`
    /// (0 = nothing executed yet). Layers before `next_layer` are done.
    ///
    /// Walks every remaining layer, O(layers) per call: it serves
    /// offline analysis and checks. The engine keeps each task's
    /// remainder as a running total instead of calling this per quantum.
    pub fn remaining_ns(&self, next_layer: usize) -> u64 {
        self.layers
            .iter()
            .skip(next_layer)
            .map(|l| l.latency_ns)
            .sum()
    }

    /// Mean monitored sparsity across layers that have a dynamic-sparsity
    /// source (non-zero records).
    pub fn mean_dynamic_sparsity(&self) -> f64 {
        let dynamic: Vec<f64> = self
            .layers
            .iter()
            .map(|l| l.sparsity)
            .filter(|&s| s > 0.0)
            .collect();
        if dynamic.is_empty() {
            0.0
        } else {
            dynamic.iter().sum::<f64>() / dynamic.len() as f64
        }
    }
}

/// All sampled traces of one sparse-model variant — the in-memory
/// equivalent of one Phase-1 CSV file, plus the LUT statistics derived
/// from it.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelTraces {
    spec: SparseModelSpec,
    samples: Vec<SampleTrace>,
}

impl ModelTraces {
    /// Bundles sampled traces for `spec`.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or the samples disagree on layer
    /// count.
    pub fn new(spec: SparseModelSpec, samples: Vec<SampleTrace>) -> Self {
        assert!(!samples.is_empty(), "need at least one sample");
        let n = samples[0].num_layers();
        assert!(
            samples.iter().all(|s| s.num_layers() == n),
            "inconsistent layer counts"
        );
        ModelTraces { spec, samples }
    }

    /// The variant this trace set describes.
    pub fn spec(&self) -> &SparseModelSpec {
        &self.spec
    }

    /// All sampled traces.
    pub fn samples(&self) -> &[SampleTrace] {
        &self.samples
    }

    /// Number of sampled inputs.
    pub fn num_samples(&self) -> usize {
        self.samples.len()
    }

    /// Number of layers (identical across samples).
    pub fn num_layers(&self) -> usize {
        self.samples[0].num_layers()
    }

    /// Trace of sample `index`, wrapping around (the scheduler engine
    /// draws sample indices beyond the trace count).
    pub fn sample(&self, index: u64) -> &SampleTrace {
        &self.samples[(index % self.samples.len() as u64) as usize]
    }

    /// Average isolated latency over all samples — the latency-LUT entry
    /// the static scheduler uses (Algorithm 1, line 5).
    pub fn avg_latency_ns(&self) -> f64 {
        self.samples
            .iter()
            .map(|s| s.isolated_latency_ns() as f64)
            .sum::<f64>()
            / self.samples.len() as f64
    }

    /// Average monitored sparsity of layer `layer` over all samples — the
    /// sparsity-LUT entry (Algorithm 3, line 4).
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn avg_layer_sparsity(&self, layer: usize) -> f64 {
        assert!(layer < self.num_layers(), "layer index out of range");
        self.samples
            .iter()
            .map(|s| s.layers()[layer].sparsity)
            .sum::<f64>()
            / self.samples.len() as f64
    }

    /// Average per-layer latency profile.
    pub fn avg_layer_latency_ns(&self) -> Vec<f64> {
        let n = self.num_layers();
        let mut acc = vec![0.0; n];
        for s in &self.samples {
            for (i, l) in s.layers().iter().enumerate() {
                acc[i] += l.latency_ns as f64;
            }
        }
        for a in &mut acc {
            *a /= self.samples.len() as f64;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(lat: &[u64], sp: &[f64]) -> SampleTrace {
        SampleTrace::new(
            lat.iter()
                .zip(sp)
                .map(|(&latency_ns, &sparsity)| LayerRecord {
                    latency_ns,
                    sparsity,
                })
                .collect(),
            1.0,
        )
    }

    #[test]
    fn isolated_and_remaining() {
        let t = trace(&[10, 20, 30], &[0.1, 0.2, 0.3]);
        assert_eq!(t.isolated_latency_ns(), 60);
        assert_eq!(t.remaining_ns(0), 60);
        assert_eq!(t.remaining_ns(1), 50);
        assert_eq!(t.remaining_ns(3), 0);
    }

    #[test]
    fn mean_dynamic_sparsity_ignores_zero_layers() {
        let t = trace(&[1, 1, 1], &[0.0, 0.4, 0.2]);
        assert!((t.mean_dynamic_sparsity() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn luts_average_over_samples() {
        let spec = SparseModelSpec::new(ModelId::MobileNet, SparsityPattern::RandomPointwise, 0.8);
        let m = ModelTraces::new(
            spec,
            vec![trace(&[10, 10], &[0.2, 0.4]), trace(&[30, 10], &[0.4, 0.8])],
        );
        assert!((m.avg_latency_ns() - 30.0).abs() < 1e-12);
        assert!((m.avg_layer_sparsity(0) - 0.3).abs() < 1e-12);
        assert_eq!(m.avg_layer_latency_ns(), vec![20.0, 10.0]);
    }

    #[test]
    fn sample_wraps_around() {
        let spec = SparseModelSpec::new(ModelId::Vgg16, SparsityPattern::Dense, 0.0);
        let m = ModelTraces::new(spec, vec![trace(&[1], &[0.0]), trace(&[2], &[0.0])]);
        assert_eq!(m.sample(0).isolated_latency_ns(), 1);
        assert_eq!(m.sample(3).isolated_latency_ns(), 2);
    }

    #[test]
    #[should_panic(expected = "inconsistent layer counts")]
    fn rejects_ragged_samples() {
        let spec = SparseModelSpec::new(ModelId::Vgg16, SparsityPattern::Dense, 0.0);
        let _ = ModelTraces::new(spec, vec![trace(&[1], &[0.0]), trace(&[1, 2], &[0.0, 0.0])]);
    }

    #[test]
    fn spec_key_distinguishes_variants() {
        let a = SparseModelSpec::new(ModelId::Vgg16, SparsityPattern::RandomPointwise, 0.8);
        let b = SparseModelSpec::new(ModelId::Vgg16, SparsityPattern::ChannelWise, 0.8);
        let c = SparseModelSpec::new(ModelId::Vgg16, SparsityPattern::RandomPointwise, 0.9);
        assert_ne!(a.key(), b.key());
        assert_ne!(a.key(), c.key());
    }
}
