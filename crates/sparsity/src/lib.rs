//! Weight-sparsity patterns and dynamic activation-sparsity profiles.
//!
//! The Sparse-DySta paper identifies two sparsity properties that drive
//! runtime dynamicity in multi-DNN workloads (its Section 2.3):
//!
//! * **Sparsity pattern** — the mask structure used when pruning weights
//!   (random point-wise, N:M block-wise, channel-wise). Modelled by
//!   [`SparsityPattern`]; the performance models price a pattern through
//!   its sparsity rate, so no explicit weight mask is ever built.
//! * **Sparsity dynamicity** — input-dependent activation and attention
//!   sparsity that varies per sample. Modelled by per-dataset statistical
//!   profiles in [`dynamicity`] (the substitution for the real ImageNet /
//!   ExDark / DarkFace / SQuAD / GLUE datasets).
//!
//! The [`stats`] module provides the estimators the paper's profiling
//! figures use (Pearson correlation, relative range, histograms), and
//! [`distributions`] implements the needed samplers (standard normal,
//! exponential) on top of `rand`.
//!
//! # Examples
//!
//! ```
//! use dysta_sparsity::{DatasetProfile, SampleSparsityGenerator, SparsityPattern};
//! use dysta_models::zoo;
//!
//! let model = zoo::resnet50();
//! let gen = SampleSparsityGenerator::new(&model, DatasetProfile::ImageNet, 42);
//! let sample = gen.sample(0);
//! assert_eq!(sample.per_layer().len(), model.num_layers());
//! assert_eq!("channel".parse(), Ok(SparsityPattern::ChannelWise));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distributions;
pub mod dynamicity;
pub mod pattern;
pub mod stats;

pub use dynamicity::{DatasetProfile, SampleSparsity, SampleSparsityGenerator};
pub use pattern::{ParsePatternError, SparsityPattern};
