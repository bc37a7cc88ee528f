//! Constructors for the nine benchmark architectures.
//!
//! Each function builds a [`ModelGraph`] with exact published shapes. The
//! attention models take sequence lengths as parameters (the paper varies
//! them per dataset); [`build`] applies the defaults used throughout the
//! evaluation.
//!
//! # Examples
//!
//! ```
//! use dysta_models::{zoo, ModelId};
//!
//! for id in ModelId::ALL {
//!     let graph = zoo::build(id);
//!     assert_eq!(graph.id(), id);
//!     assert!(graph.total_macs() > 0);
//! }
//! ```

mod cnn_util;
mod googlenet;
mod inception_v3;
mod mobilenet;
mod resnet;
mod ssd;
mod transformer;
mod vgg;

pub use googlenet::googlenet;
pub use inception_v3::inception_v3;
pub use mobilenet::mobilenet;
pub use resnet::resnet50;
pub use ssd::ssd300;
pub use transformer::{bart, bert, gpt2};
pub use vgg::vgg16;

use crate::{ModelGraph, ModelId};

/// Default BERT sequence length (SQuAD question answering).
pub const BERT_DEFAULT_SEQ: u32 = 384;
/// Default GPT-2 sequence length (GLUE-style inputs).
pub const GPT2_DEFAULT_SEQ: u32 = 128;
/// Default BART encoder/decoder sequence lengths (machine translation).
pub const BART_DEFAULT_SEQ: (u32, u32) = (256, 256);

/// Builds the graph for `id` with the default configuration used in the
/// paper's evaluation (224×224 images for classifiers, 300×300 for SSD,
/// 299×299 for Inception-V3, default sequence lengths for AttNNs).
pub fn build(id: ModelId) -> ModelGraph {
    match id {
        ModelId::Ssd => ssd300(),
        ModelId::ResNet50 => resnet50(),
        ModelId::Vgg16 => vgg16(),
        ModelId::MobileNet => mobilenet(),
        ModelId::GoogLeNet => googlenet(),
        ModelId::InceptionV3 => inception_v3(),
        ModelId::Bert => bert(BERT_DEFAULT_SEQ),
        ModelId::Gpt2 => gpt2(GPT2_DEFAULT_SEQ),
        ModelId::Bart => bart(BART_DEFAULT_SEQ.0, BART_DEFAULT_SEQ.1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Published dense-MAC figures (fused multiply-add counted once).
    /// Tolerances are loose enough to absorb head/pooling bookkeeping
    /// differences but tight enough to catch shape bugs.
    #[test]
    fn gmacs_match_published_figures() {
        let cases: [(ModelId, f64, f64); 6] = [
            (ModelId::ResNet50, 3.8, 4.4),    // ~4.1 GMACs
            (ModelId::Vgg16, 14.5, 16.5),     // ~15.5 GMACs
            (ModelId::MobileNet, 0.52, 0.62), // ~0.57 GMACs
            (ModelId::GoogLeNet, 1.3, 1.7),   // ~1.5 GMACs
            (ModelId::InceptionV3, 5.0, 6.2), // ~5.7 GMACs
            (ModelId::Ssd, 28.0, 36.0),       // ~31 GMACs (SSD300-VGG)
        ];
        for (id, lo, hi) in cases {
            let gmacs = build(id).total_macs() as f64 / 1e9;
            assert!(
                (lo..=hi).contains(&gmacs),
                "{id}: {gmacs:.2} GMACs outside [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn param_counts_match_published_figures() {
        let cases: [(ModelId, f64, f64); 4] = [
            (ModelId::ResNet50, 23.0, 27.0), // 25.5 M
            (ModelId::Vgg16, 132.0, 140.0),  // 138 M
            (ModelId::MobileNet, 3.6, 4.8),  // 4.2 M
            (ModelId::GoogLeNet, 5.5, 7.5),  // ~6.6 M (conv weights)
        ];
        for (id, lo, hi) in cases {
            let mparams = build(id).total_params() as f64 / 1e6;
            assert!(
                (lo..=hi).contains(&mparams),
                "{id}: {mparams:.2} M params outside [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn every_model_builds_and_validates() {
        for id in ModelId::ALL {
            let g = build(id);
            assert_eq!(g.id(), id);
            assert!(g.num_layers() >= 10, "{id} suspiciously small");
        }
    }

    #[test]
    fn cnns_have_relu_layers_attnns_have_attention() {
        for id in ModelId::ALL {
            let g = build(id);
            match id.family() {
                crate::ModelFamily::Cnn => {
                    assert!(!g.relu_layer_indices().is_empty(), "{id} has no ReLUs");
                    assert!(!g.layers().iter().any(|l| l.is_dynamic_attention()));
                }
                crate::ModelFamily::AttNn => {
                    assert!(
                        g.layers().iter().any(|l| l.is_dynamic_attention()),
                        "{id} has no attention layers"
                    );
                }
            }
        }
    }
}
