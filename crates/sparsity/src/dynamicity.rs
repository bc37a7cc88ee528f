//! Input-dependent sparsity dynamicity (the paper's Section 2.3.1).
//!
//! This module is the substitution for the real datasets the paper
//! profiles (ImageNet, ExDark, DarkFace, COCO for vision; SQuAD, GLUE for
//! language). Each [`DatasetProfile`] is a calibrated statistical model of
//! per-sample, per-layer sparsity with three properties the paper measures
//! and the Dysta scheduler exploits:
//!
//! 1. **Per-sample variance** — normalized attention-layer latency spreads
//!    over roughly 0.6–1.8× the mean (paper Figure 2), and CNN layer
//!    activation sparsities span 10–45% (Figure 3).
//! 2. **Inter-layer correlation** — per-layer sparsities within one sample
//!    are strongly linearly correlated (Figure 9), which is precisely what
//!    makes Dysta's *last-one* linear latency predictor accurate.
//! 3. **Per-model sensitivity** — the relative range of network sparsity
//!    differs per architecture (Table 2: 15.1%–28.3%).
//!
//! The generative model per sample: a global latent "input complexity"
//! factor `z ~ N(0,1)` is shared by all layers with weight `sqrt(rho)` and
//! mixed with per-layer noise, then mapped through a clamp (CNNs) or a
//! lognormal transform (attention densities, producing the right skew).
//! Low-light datasets add a mixture over illumination conditions.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dysta_models::{ModelFamily, ModelGraph, ModelId};

use crate::distributions::standard_normal;

/// Calibrated sparsity-statistics profile standing in for a real dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetProfile {
    /// Well-lit natural images (baseline activation sparsity).
    ImageNet,
    /// Exclusively-Dark low-light images: higher sparsity, higher variance.
    ExDark,
    /// DarkFace low-light face images: highest sparsity and variance.
    DarkFace,
    /// COCO detection images: close to ImageNet statistics.
    Coco,
    /// The paper's profiling mixture (ImageNet + ExDark + DarkFace),
    /// used for Figure 3 and Table 2.
    VisionMixture,
    /// SQuAD question answering (drives BERT attention sparsity).
    Squad,
    /// GLUE sentence tasks (drives GPT-2/BART attention sparsity).
    Glue,
}

impl DatasetProfile {
    /// The profile the paper pairs with each benchmark model in the
    /// scheduling experiments.
    pub fn default_for(model: ModelId) -> DatasetProfile {
        match model.family() {
            ModelFamily::Cnn => DatasetProfile::VisionMixture,
            ModelFamily::AttNn => match model {
                ModelId::Bert => DatasetProfile::Squad,
                _ => DatasetProfile::Glue,
            },
        }
    }

    /// `(sparsity at depth 0, sparsity at depth 1)` for CNN ReLU outputs.
    fn cnn_sparsity_span(self) -> (f64, f64) {
        match self {
            DatasetProfile::ImageNet => (0.30, 0.55),
            DatasetProfile::Coco => (0.31, 0.56),
            DatasetProfile::ExDark => (0.32, 0.57),
            DatasetProfile::DarkFace => (0.33, 0.585),
            // Resolved per mixture component at sampling time.
            DatasetProfile::VisionMixture => (0.32, 0.58),
            DatasetProfile::Squad | DatasetProfile::Glue => (0.05, 0.05),
        }
    }

    /// Per-sample standard deviation of the per-layer sparsity noise.
    fn sample_std(self) -> f64 {
        match self {
            DatasetProfile::ImageNet | DatasetProfile::Coco => 0.04,
            DatasetProfile::ExDark => 0.055,
            DatasetProfile::DarkFace => 0.06,
            DatasetProfile::VisionMixture => 0.035,
            DatasetProfile::Squad => 0.05,
            DatasetProfile::Glue => 0.06,
        }
    }

    /// Inter-layer correlation of per-sample sparsity. Figure 9 shows
    /// this is very high for language models (which is what makes the
    /// last-one linear predictor viable); for CNNs the per-layer ReLU
    /// noise is mostly layer-local and the *common* component comes from
    /// the input's illumination/content (the mixture component), so the
    /// latent-factor weight is small — this is also what keeps the
    /// network-level relative range (Table 2) an order of magnitude
    /// below the per-layer spread (Figure 3).
    fn layer_correlation(self) -> f64 {
        match self {
            DatasetProfile::Squad => 0.88,
            DatasetProfile::Glue => 0.85,
            _ => 0.05,
        }
    }

    /// Mean attention-matrix *density* after dynamic pruning (Sanger-style
    /// thresholding keeps ~25% of attention scores at matched accuracy).
    fn attention_density_mean(self) -> f64 {
        match self {
            DatasetProfile::Squad => 0.25,
            DatasetProfile::Glue => 0.30,
            _ => 1.0,
        }
    }

    /// Lognormal sigma of the attention density (calibrated so normalized
    /// latency spans ≈0.6–1.8, Figure 2).
    fn attention_density_sigma(self) -> f64 {
        match self {
            DatasetProfile::Squad => 0.22,
            DatasetProfile::Glue => 0.20,
            _ => 0.0,
        }
    }

    /// True for language profiles.
    fn is_language(self) -> bool {
        matches!(self, DatasetProfile::Squad | DatasetProfile::Glue)
    }
}

/// How strongly a CNN architecture's activation sparsity responds to input
/// condition shifts (darkness, low information). Calibrated so the
/// relative range of network sparsity matches Table 2: architectures with
/// residual connections and batch-norm (ResNet) are the most stable, while
/// inception-style networks respond the most.
fn model_sensitivity(model: ModelId) -> f64 {
    match model {
        ModelId::GoogLeNet => 1.30,
        ModelId::InceptionV3 => 1.05,
        ModelId::Vgg16 => 0.95,
        ModelId::MobileNet => 0.85,
        ModelId::Ssd => 0.85,
        ModelId::ResNet50 => 0.62,
        // Attention models are governed by the attention-density model.
        ModelId::Bert | ModelId::Gpt2 | ModelId::Bart => 1.0,
    }
}

/// Per-sample, per-layer sparsity drawn from a [`SampleSparsityGenerator`].
///
/// For CNN layers the value is the output-activation sparsity (fraction of
/// zeros after ReLU); for attention score/context layers it is the
/// attention-matrix sparsity (fraction of pruned attention weights);
/// layers without a dynamic-sparsity source report 0.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleSparsity {
    per_layer: Vec<f64>,
    seq_scale: f64,
}

impl SampleSparsity {
    /// Relative input-sequence length of this sample (1.0 for vision
    /// workloads).
    ///
    /// Language inputs vary in length: simple prompts are short *and*
    /// produce higher attention sparsity, complex prompts are long and
    /// dense (the paper's Figure 1(c): 1 ms / 90% sparsity vs 4 ms / 30%
    /// sparsity). Linear-layer work scales with `seq_scale`, attention
    /// matmuls with `seq_scale²`.
    pub fn seq_scale(&self) -> f64 {
        self.seq_scale
    }

    /// Per-layer sparsity values, indexed like the model's layers.
    pub fn per_layer(&self) -> &[f64] {
        &self.per_layer
    }

    /// Sparsity of one layer.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn layer(&self, index: usize) -> f64 {
        self.per_layer[index]
    }

    /// Network sparsity: the plain average of layer sparsities, as defined
    /// for Table 2.
    pub fn network_sparsity(&self) -> f64 {
        if self.per_layer.is_empty() {
            0.0
        } else {
            self.per_layer.iter().sum::<f64>() / self.per_layer.len() as f64
        }
    }
}

/// Deterministic generator of per-sample sparsity vectors for one model
/// under one dataset profile.
///
/// `sample(i)` is a pure function of `(seed, i)`, so traces are exactly
/// reproducible and samples can be drawn in any order.
///
/// # Examples
///
/// ```
/// use dysta_models::zoo;
/// use dysta_sparsity::{DatasetProfile, SampleSparsityGenerator};
///
/// let bert = zoo::bert(384);
/// let gen = SampleSparsityGenerator::new(&bert, DatasetProfile::Squad, 7);
/// let a = gen.sample(3);
/// let b = gen.sample(3);
/// assert_eq!(a, b); // deterministic
/// ```
#[derive(Debug, Clone)]
pub struct SampleSparsityGenerator {
    model: ModelId,
    profile: DatasetProfile,
    seed: u64,
    /// Per-layer: (has_relu, is_attention, depth_fraction).
    layer_info: Vec<(bool, bool, f64)>,
}

impl SampleSparsityGenerator {
    /// Creates a generator for `model` under `profile`.
    pub fn new(model: &ModelGraph, profile: DatasetProfile, seed: u64) -> Self {
        let n = model.num_layers().max(1);
        let layer_info = model
            .iter()
            .map(|(i, l)| {
                let depth = if n > 1 {
                    i as f64 / (n - 1) as f64
                } else {
                    0.0
                };
                (l.relu(), l.is_dynamic_attention(), depth)
            })
            .collect();
        SampleSparsityGenerator {
            model: model.id(),
            profile,
            seed,
            layer_info,
        }
    }

    /// The dataset profile in use.
    pub fn profile(&self) -> DatasetProfile {
        self.profile
    }

    /// Draws the sparsity vector for sample `index`.
    pub fn sample(&self, index: u64) -> SampleSparsity {
        // SplitMix64-style mixing of (seed, index) into an independent
        // stream per sample.
        let mut state = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(0x94D0_49BB_1331_11EB);
        state ^= state >> 30;
        state = state.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let mut rng = StdRng::seed_from_u64(state);

        // Mixture component selection (low-light emulation).
        let component = match self.profile {
            DatasetProfile::VisionMixture => {
                let u: f64 = rng.gen();
                if u < 0.5 {
                    DatasetProfile::ImageNet
                } else if u < 0.75 {
                    DatasetProfile::ExDark
                } else {
                    DatasetProfile::DarkFace
                }
            }
            p => p,
        };

        let sensitivity = model_sensitivity(self.model);
        let rho = self.profile.layer_correlation();
        let z = standard_normal(&mut rng);
        // Input complexity drives both sequence length and attention
        // density through the shared latent factor `z`.
        let seq_scale = if self.profile.is_language() {
            (0.35 * z).exp().clamp(0.45, 1.9)
        } else {
            1.0
        };
        let (lo, hi) = component.cnn_sparsity_span();
        let cnn_std = component.sample_std() * sensitivity;
        let att_mu = component.attention_density_mean();
        let att_sigma = component.attention_density_sigma();

        let per_layer = self
            .layer_info
            .iter()
            .map(|&(has_relu, is_attention, depth)| {
                let eps = standard_normal(&mut rng);
                let shock = rho.sqrt() * z + (1.0 - rho).sqrt() * eps;
                if is_attention {
                    // Lognormal density, converted to sparsity.
                    let density = att_mu * (att_sigma * shock - 0.5 * att_sigma * att_sigma).exp();
                    (1.0 - density).clamp(0.0, 0.995)
                } else if has_relu {
                    let mean = lo + (hi - lo) * depth;
                    // Center the mixture around the canonical ImageNet span
                    // scaled by architecture sensitivity.
                    let (base_lo, base_hi) = DatasetProfile::ImageNet.cnn_sparsity_span();
                    let base = base_lo + (base_hi - base_lo) * depth;
                    let shifted = base + (mean - base) * sensitivity;
                    (shifted + cnn_std * shock).clamp(0.01, 0.95)
                } else {
                    0.0
                }
            })
            .collect();
        SampleSparsity {
            per_layer,
            seq_scale,
        }
    }

    /// Draws `count` consecutive samples starting at index 0.
    pub fn samples(&self, count: u64) -> Vec<SampleSparsity> {
        (0..count).map(|i| self.sample(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;
    use dysta_models::zoo;

    #[test]
    fn deterministic_per_index() {
        let g = SampleSparsityGenerator::new(&zoo::vgg16(), DatasetProfile::ImageNet, 1);
        assert_eq!(g.sample(5), g.sample(5));
        assert_ne!(g.sample(5), g.sample(6));
    }

    #[test]
    fn different_seeds_differ() {
        let m = zoo::vgg16();
        let a = SampleSparsityGenerator::new(&m, DatasetProfile::ImageNet, 1).sample(0);
        let b = SampleSparsityGenerator::new(&m, DatasetProfile::ImageNet, 2).sample(0);
        assert_ne!(a, b);
    }

    #[test]
    fn sparsities_in_unit_interval() {
        let m = zoo::resnet50();
        let g = SampleSparsityGenerator::new(&m, DatasetProfile::VisionMixture, 3);
        for s in g.samples(100) {
            for &v in s.per_layer() {
                assert!((0.0..=1.0).contains(&v));
            }
        }
    }

    #[test]
    fn non_relu_layers_report_zero() {
        let m = zoo::resnet50();
        let g = SampleSparsityGenerator::new(&m, DatasetProfile::ImageNet, 4);
        let s = g.sample(0);
        for (i, l) in m.iter() {
            if !l.relu() && !l.is_dynamic_attention() {
                assert_eq!(s.layer(i), 0.0, "layer {}", l.name());
            }
        }
    }

    #[test]
    fn attention_sparsity_is_high_for_squad() {
        let m = zoo::bert(384);
        let g = SampleSparsityGenerator::new(&m, DatasetProfile::Squad, 5);
        let attn_idx: Vec<usize> = m
            .iter()
            .filter(|(_, l)| l.is_dynamic_attention())
            .map(|(i, _)| i)
            .collect();
        let mean: f64 = g
            .samples(200)
            .iter()
            .flat_map(|s| attn_idx.iter().map(move |&i| s.layer(i)))
            .sum::<f64>()
            / (200 * attn_idx.len()) as f64;
        // Mean density 0.25 -> sparsity ~0.75.
        assert!((0.70..0.80).contains(&mean), "{mean}");
    }

    #[test]
    fn attention_latency_spread_matches_fig2() {
        // Normalized density (∝ latency on Sanger) should span ~0.6–1.8.
        let m = zoo::bert(384);
        let g = SampleSparsityGenerator::new(&m, DatasetProfile::Squad, 6);
        let last_attn = m
            .layers()
            .iter()
            .rposition(|l| l.is_dynamic_attention())
            .unwrap();
        let densities: Vec<f64> = g
            .samples(2000)
            .iter()
            .map(|s| 1.0 - s.layer(last_attn))
            .collect();
        let mean = stats::mean(&densities);
        let normalized: Vec<f64> = densities.iter().map(|d| d / mean).collect();
        let min = normalized.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = normalized.iter().cloned().fold(0.0f64, f64::max);
        assert!(min < 0.75 && min > 0.3, "min {min}");
        assert!(max > 1.4 && max < 2.6, "max {max}");
    }

    #[test]
    fn dark_profiles_are_sparser_than_imagenet() {
        let m = zoo::vgg16();
        let mean_net = |p: DatasetProfile| {
            let g = SampleSparsityGenerator::new(&m, p, 7);
            stats::mean(
                &g.samples(200)
                    .iter()
                    .map(|s| s.network_sparsity())
                    .collect::<Vec<_>>(),
            )
        };
        assert!(mean_net(DatasetProfile::DarkFace) > mean_net(DatasetProfile::ImageNet) + 0.015);
    }

    #[test]
    fn layers_are_correlated_within_sample() {
        let m = zoo::gpt2(256);
        let g = SampleSparsityGenerator::new(&m, DatasetProfile::Glue, 8);
        let layers = m.layers();
        let a = layers
            .iter()
            .position(|l| l.is_dynamic_attention())
            .unwrap();
        let b = layers
            .iter()
            .rposition(|l| l.is_dynamic_attention())
            .unwrap();
        let samples = g.samples(500);
        let xs: Vec<f64> = samples.iter().map(|s| s.layer(a)).collect();
        let ys: Vec<f64> = samples.iter().map(|s| s.layer(b)).collect();
        let r = stats::pearson(&xs, &ys).unwrap();
        assert!(r > 0.6, "correlation {r}");
    }

    #[test]
    fn network_sparsity_is_layer_mean() {
        let s = SampleSparsity {
            per_layer: vec![0.2, 0.4, 0.6],
            seq_scale: 1.0,
        };
        assert!((s.network_sparsity() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn seq_scale_fixed_for_vision_varies_for_language() {
        let cnn = zoo::resnet50();
        let g = SampleSparsityGenerator::new(&cnn, DatasetProfile::VisionMixture, 9);
        assert!(g.samples(20).iter().all(|s| s.seq_scale() == 1.0));

        let nlp = zoo::bert(384);
        let g = SampleSparsityGenerator::new(&nlp, DatasetProfile::Squad, 9);
        let scales: Vec<f64> = g.samples(200).iter().map(|s| s.seq_scale()).collect();
        assert!(scales.iter().all(|&s| (0.45..=1.9).contains(&s)));
        assert!(
            stats::std_dev(&scales) > 0.1,
            "language seq length must vary"
        );
    }

    #[test]
    fn complex_prompts_are_longer_and_denser() {
        // Figure 1(c): seq length and attention density share the latent
        // complexity factor, so they correlate positively.
        let nlp = zoo::gpt2(256);
        let g = SampleSparsityGenerator::new(&nlp, DatasetProfile::Glue, 10);
        let attn = nlp
            .layers()
            .iter()
            .position(|l| l.is_dynamic_attention())
            .unwrap();
        let samples = g.samples(400);
        let seq: Vec<f64> = samples.iter().map(|s| s.seq_scale()).collect();
        let density: Vec<f64> = samples.iter().map(|s| 1.0 - s.layer(attn)).collect();
        let r = stats::pearson(&seq, &density).unwrap();
        assert!(r > 0.5, "correlation {r}");
    }

    #[test]
    fn default_profiles_match_paper_pairing() {
        assert_eq!(
            DatasetProfile::default_for(ModelId::Bert),
            DatasetProfile::Squad
        );
        assert_eq!(
            DatasetProfile::default_for(ModelId::Gpt2),
            DatasetProfile::Glue
        );
        assert_eq!(
            DatasetProfile::default_for(ModelId::ResNet50),
            DatasetProfile::VisionMixture
        );
    }
}
