//! Analytic performance models of the paper's two target accelerators.
//!
//! The paper evaluates scheduling on two sparse DNN accelerators via
//! simulation: **Eyeriss-V2** (Chen et al., JETCAS 2019) for CNNs, which
//! skips ineffectual MACs from both weight and activation zeros, and
//! **Sanger** (Lu et al., MICRO 2021) for attention NNs, which prunes the
//! attention matrix dynamically and executes the surviving scores on a
//! load-balanced reconfigurable array.
//!
//! The schedulers only ever consume the *mapping from (layer shapes,
//! sparsity) to latency*, so this crate models each accelerator
//! analytically: a compute roofline (effective MACs over sparse-adjusted
//! PE throughput), a memory roofline (compressed tensor traffic over DRAM
//! bandwidth), and a fixed per-layer dispatch overhead. Each model's
//! calibration is a set of constants fixed to the paper's operating
//! points; [`AcceleratorKind`] names the two models and dispatches to them.
//!
//! # Examples
//!
//! ```
//! use dysta_accel::{AcceleratorKind, SparseContext};
//! use dysta_models::zoo;
//! use dysta_sparsity::SparsityPattern;
//!
//! let model = zoo::mobilenet();
//! let ctx = SparseContext {
//!     pattern: SparsityPattern::RandomPointwise,
//!     weight_rate: 0.8,
//!     input_activation_sparsity: 0.4,
//!     layer_sparsity: 0.4,
//!     seq_scale: 1.0,
//! };
//! let ns: f64 = model
//!     .layers()
//!     .iter()
//!     .map(|l| AcceleratorKind::EyerissV2.layer_latency_ns(l, &ctx))
//!     .sum();
//! assert!(ns > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod eyeriss;
mod sanger;
pub mod storage;
mod work;

pub use work::{EffectiveWork, SparseContext};

use dysta_models::{Layer, ModelFamily};

/// One of the paper's two target accelerators.
///
/// # Examples
///
/// ```
/// use dysta_accel::AcceleratorKind;
/// use dysta_models::ModelFamily;
///
/// let a = AcceleratorKind::for_family(ModelFamily::AttNn);
/// assert_eq!(a, AcceleratorKind::Sanger);
/// assert_eq!(a.name(), "sanger");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AcceleratorKind {
    /// Eyeriss-V2: sparse CNN accelerator.
    EyerissV2,
    /// Sanger: sparse-attention accelerator.
    Sanger,
}

impl AcceleratorKind {
    /// The accelerator the paper pairs with (and profiles) each model
    /// family: Eyeriss-V2 for CNNs, Sanger for AttNNs.
    #[inline]
    pub fn for_family(family: ModelFamily) -> Self {
        match family {
            ModelFamily::Cnn => AcceleratorKind::EyerissV2,
            ModelFamily::AttNn => AcceleratorKind::Sanger,
        }
    }

    /// The model family this accelerator was designed for; the inverse
    /// of [`AcceleratorKind::for_family`].
    #[inline]
    fn native_family(self) -> ModelFamily {
        match self {
            AcceleratorKind::EyerissV2 => ModelFamily::Cnn,
            AcceleratorKind::Sanger => ModelFamily::AttNn,
        }
    }

    /// True when `family` runs at its profiled (native) speed here.
    #[inline]
    pub fn serves(self, family: ModelFamily) -> bool {
        self.native_family() == family
    }

    /// Stable lower-case name.
    #[inline]
    pub fn name(self) -> &'static str {
        match self {
            AcceleratorKind::EyerissV2 => "eyeriss-v2",
            AcceleratorKind::Sanger => "sanger",
        }
    }

    /// Latency of executing `layer` under `ctx`, in nanoseconds.
    pub fn layer_latency_ns(self, layer: &Layer, ctx: &SparseContext) -> f64 {
        match self {
            AcceleratorKind::EyerissV2 => eyeriss::layer_latency_ns(layer, ctx),
            AcceleratorKind::Sanger => sanger::layer_latency_ns(layer, ctx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_pairing() {
        assert_eq!(
            AcceleratorKind::for_family(ModelFamily::Cnn),
            AcceleratorKind::EyerissV2
        );
        assert_eq!(
            AcceleratorKind::for_family(ModelFamily::AttNn),
            AcceleratorKind::Sanger
        );
        for family in [ModelFamily::Cnn, ModelFamily::AttNn] {
            assert_eq!(AcceleratorKind::for_family(family).native_family(), family);
        }
    }
}
