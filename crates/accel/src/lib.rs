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
//! bandwidth), and a fixed per-layer dispatch overhead.
//!
//! # Examples
//!
//! ```
//! use dysta_accel::{Accelerator, EyerissV2, SparseContext};
//! use dysta_models::zoo;
//! use dysta_sparsity::SparsityPattern;
//!
//! let accel = EyerissV2::default();
//! let model = zoo::mobilenet();
//! let ctx = SparseContext {
//!     pattern: SparsityPattern::RandomPointwise,
//!     weight_rate: 0.8,
//!     input_activation_sparsity: 0.4,
//!     layer_sparsity: 0.4,
//!     seq_scale: 1.0,
//! };
//! let ns: f64 = model.layers().iter().map(|l| accel.layer_latency_ns(l, &ctx)).sum();
//! assert!(ns > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod eyeriss;
mod sanger;
pub mod storage;
mod work;

pub use eyeriss::{EyerissV2, EyerissV2Config};
pub use sanger::{Sanger, SangerConfig};
pub use work::{EffectiveWork, SparseContext};

use dysta_models::{Layer, ModelFamily};

/// A hardware performance model mapping one layer plus its sparsity
/// context to latency.
pub trait Accelerator {
    /// Human-readable accelerator name.
    fn name(&self) -> &str;

    /// Core clock frequency in hertz.
    fn clock_hz(&self) -> f64;

    /// Latency of executing `layer` under `ctx`, in nanoseconds.
    fn layer_latency_ns(&self, layer: &Layer, ctx: &SparseContext) -> f64;
}

/// Either of the paper's two accelerators, as a concrete dispatchable type.
///
/// # Examples
///
/// ```
/// use dysta_accel::{Accelerator, AnyAccelerator};
/// use dysta_models::ModelFamily;
///
/// let a = AnyAccelerator::default_for(ModelFamily::AttNn);
/// assert_eq!(a.name(), "sanger");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum AnyAccelerator {
    /// Eyeriss-V2 CNN accelerator model.
    Eyeriss(EyerissV2),
    /// Sanger sparse-attention accelerator model.
    Sanger(Sanger),
}

impl AnyAccelerator {
    /// The accelerator the paper pairs with each model family
    /// (Eyeriss-V2 for CNNs, Sanger for AttNNs).
    pub fn default_for(family: ModelFamily) -> Self {
        match family {
            ModelFamily::Cnn => AnyAccelerator::Eyeriss(EyerissV2::default()),
            ModelFamily::AttNn => AnyAccelerator::Sanger(Sanger::default()),
        }
    }
}

impl Accelerator for AnyAccelerator {
    fn name(&self) -> &str {
        match self {
            AnyAccelerator::Eyeriss(a) => a.name(),
            AnyAccelerator::Sanger(a) => a.name(),
        }
    }

    fn clock_hz(&self) -> f64 {
        match self {
            AnyAccelerator::Eyeriss(a) => a.clock_hz(),
            AnyAccelerator::Sanger(a) => a.clock_hz(),
        }
    }

    fn layer_latency_ns(&self, layer: &Layer, ctx: &SparseContext) -> f64 {
        match self {
            AnyAccelerator::Eyeriss(a) => a.layer_latency_ns(layer, ctx),
            AnyAccelerator::Sanger(a) => a.layer_latency_ns(layer, ctx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_pairing() {
        assert!(matches!(
            AnyAccelerator::default_for(ModelFamily::Cnn),
            AnyAccelerator::Eyeriss(_)
        ));
        assert!(matches!(
            AnyAccelerator::default_for(ModelFamily::AttNn),
            AnyAccelerator::Sanger(_)
        ));
    }
}
