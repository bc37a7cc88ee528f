//! Layer descriptions and arithmetic-cost accounting.
//!
//! Every layer knows its exact output shape, MAC count and parameter count.
//! These are the quantities the accelerator performance models (and hence
//! the schedulers) consume; no trained weights are required.

use std::fmt;

/// A 2-D convolution (grouped, depthwise and asymmetric kernels supported).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2d {
    /// Input channels.
    pub in_channels: u32,
    /// Output channels.
    pub out_channels: u32,
    /// Kernel height.
    pub kernel_h: u32,
    /// Kernel width.
    pub kernel_w: u32,
    /// Stride (same in both spatial dimensions).
    pub stride: u32,
    /// Zero padding along the height dimension.
    pub padding_h: u32,
    /// Zero padding along the width dimension.
    pub padding_w: u32,
    /// Number of groups; `groups == in_channels == out_channels` is a
    /// depthwise convolution.
    pub groups: u32,
    /// Input spatial size (square feature map edge length).
    pub in_size: u32,
}

impl Conv2d {
    /// Convenience constructor for the common square-kernel case.
    pub fn square(
        in_channels: u32,
        out_channels: u32,
        kernel: u32,
        stride: u32,
        padding: u32,
        in_size: u32,
    ) -> Self {
        Conv2d {
            in_channels,
            out_channels,
            kernel_h: kernel,
            kernel_w: kernel,
            stride,
            padding_h: padding,
            padding_w: padding,
            groups: 1,
            in_size,
        }
    }

    /// Output height after this convolution.
    pub fn out_h(&self) -> u32 {
        (self.in_size + 2 * self.padding_h).saturating_sub(self.kernel_h) / self.stride + 1
    }

    /// Output width after this convolution.
    pub fn out_w(&self) -> u32 {
        (self.in_size + 2 * self.padding_w).saturating_sub(self.kernel_w) / self.stride + 1
    }

    /// Dense multiply-accumulate operations.
    pub fn macs(&self) -> u64 {
        self.out_h() as u64
            * self.out_w() as u64
            * self.out_channels as u64
            * (self.in_channels as u64 / self.groups as u64)
            * self.kernel_h as u64
            * self.kernel_w as u64
    }

    /// Weight parameter count (bias ignored, as in the paper's profiling).
    pub fn params(&self) -> u64 {
        self.out_channels as u64
            * (self.in_channels as u64 / self.groups as u64)
            * self.kernel_h as u64
            * self.kernel_w as u64
    }

    /// Number of output activation elements.
    pub fn output_elements(&self) -> u64 {
        self.out_h() as u64 * self.out_w() as u64 * self.out_channels as u64
    }

    /// True if this is a depthwise convolution.
    pub fn is_depthwise(&self) -> bool {
        self.groups == self.in_channels && self.groups == self.out_channels
    }
}

/// A fully-connected layer, optionally applied per token of a sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Linear {
    /// Input features.
    pub in_features: u32,
    /// Output features.
    pub out_features: u32,
    /// How many positions the layer is applied to (1 for CNN classifier
    /// heads, the sequence length for transformer projections).
    pub tokens: u32,
}

impl Linear {
    /// Dense multiply-accumulate operations.
    pub fn macs(&self) -> u64 {
        self.tokens as u64 * self.in_features as u64 * self.out_features as u64
    }

    /// Weight parameter count.
    pub fn params(&self) -> u64 {
        self.in_features as u64 * self.out_features as u64
    }

    /// Number of output activation elements.
    pub fn output_elements(&self) -> u64 {
        self.tokens as u64 * self.out_features as u64
    }
}

/// Multi-head attention score (`Q·Kᵀ`) or context (`A·V`) computation.
///
/// These are the layers whose work shrinks under *dynamic attention
/// sparsity* (the paper's Section 2.3.1): when a fraction of the attention
/// matrix is pruned, a proportional fraction of the MACs is skipped by
/// accelerators such as Sanger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Attention {
    /// Number of attention heads.
    pub heads: u32,
    /// Per-head feature dimension.
    pub head_dim: u32,
    /// Query sequence length.
    pub q_len: u32,
    /// Key/value sequence length (differs from `q_len` in cross-attention).
    pub kv_len: u32,
}

impl Attention {
    /// Dense multiply-accumulate operations of one score or context matmul.
    pub fn macs(&self) -> u64 {
        self.heads as u64 * self.q_len as u64 * self.kv_len as u64 * self.head_dim as u64
    }

    /// Elements of the attention matrix (`heads × q_len × kv_len`); the
    /// quantity monitored by the hardware sparsity monitor.
    pub fn attention_elements(&self) -> u64 {
        self.heads as u64 * self.q_len as u64 * self.kv_len as u64
    }
}

/// Pooling flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoolKind {
    /// Max pooling.
    Max,
    /// Average pooling (including global average pooling).
    Avg,
}

/// A pooling layer. Contributes no MACs but changes the spatial size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pool {
    /// Max or average.
    pub kind: PoolKind,
    /// Channels (unchanged by pooling).
    pub channels: u32,
    /// Kernel size.
    pub kernel: u32,
    /// Stride.
    pub stride: u32,
    /// Input spatial edge length.
    pub in_size: u32,
}

impl Pool {
    /// Output spatial edge length.
    pub fn out_size(&self) -> u32 {
        if self.kernel >= self.in_size {
            1
        } else {
            (self.in_size - self.kernel) / self.stride + 1
        }
    }

    /// Number of output activation elements.
    pub fn output_elements(&self) -> u64 {
        let out = self.out_size() as u64;
        out * out * self.channels as u64
    }
}

/// The operation performed by a [`Layer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// 2-D convolution.
    Conv2d(Conv2d),
    /// Fully-connected / projection layer.
    Linear(Linear),
    /// Attention score computation (`Q·Kᵀ`), dynamically sparse.
    AttentionScore(Attention),
    /// Attention context computation (`A·V`), dynamically sparse.
    AttentionContext(Attention),
    /// Pooling.
    Pool(Pool),
}

impl LayerKind {
    /// Dense multiply-accumulate operations of this layer.
    pub fn macs(&self) -> u64 {
        match self {
            LayerKind::Conv2d(c) => c.macs(),
            LayerKind::Linear(l) => l.macs(),
            LayerKind::AttentionScore(a) | LayerKind::AttentionContext(a) => a.macs(),
            LayerKind::Pool(_) => 0,
        }
    }

    /// Weight parameter count of this layer.
    pub fn params(&self) -> u64 {
        match self {
            LayerKind::Conv2d(c) => c.params(),
            LayerKind::Linear(l) => l.params(),
            LayerKind::AttentionScore(_) | LayerKind::AttentionContext(_) => 0,
            LayerKind::Pool(_) => 0,
        }
    }

    /// Number of output activation elements.
    pub fn output_elements(&self) -> u64 {
        match self {
            LayerKind::Conv2d(c) => c.output_elements(),
            LayerKind::Linear(l) => l.output_elements(),
            LayerKind::AttentionScore(a) => a.attention_elements(),
            LayerKind::AttentionContext(a) => a.heads as u64 * a.q_len as u64 * a.head_dim as u64,
            LayerKind::Pool(p) => p.output_elements(),
        }
    }

    /// True for the attention matmuls whose work scales with dynamic
    /// attention sparsity.
    pub fn is_dynamic_attention(&self) -> bool {
        matches!(
            self,
            LayerKind::AttentionScore(_) | LayerKind::AttentionContext(_)
        )
    }
}

/// One layer of a [`crate::ModelGraph`].
///
/// # Examples
///
/// ```
/// use dysta_models::{Conv2d, Layer, LayerKind};
///
/// let conv = Layer::new(
///     "conv1",
///     LayerKind::Conv2d(Conv2d::square(3, 64, 7, 2, 3, 224)),
/// )
/// .with_relu();
/// assert!(conv.relu());
/// assert_eq!(conv.macs(), 112 * 112 * 64 * 3 * 7 * 7);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Layer {
    name: String,
    kind: LayerKind,
    relu: bool,
}

impl Layer {
    /// Creates a layer with the given name and operation, without a ReLU.
    pub fn new(name: impl Into<String>, kind: LayerKind) -> Self {
        Layer {
            name: name.into(),
            kind,
            relu: false,
        }
    }

    /// Marks the layer as followed by a ReLU activation.
    ///
    /// ReLU outputs regularly contain zeros, which is the paper's main
    /// source of *dynamic activation sparsity* in CNNs (Section 2.3.1).
    pub fn with_relu(mut self) -> Self {
        self.relu = true;
        self
    }

    /// The layer's human-readable name (unique within its graph).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The operation performed by this layer.
    pub fn kind(&self) -> &LayerKind {
        &self.kind
    }

    /// Whether a ReLU follows this layer.
    pub fn relu(&self) -> bool {
        self.relu
    }

    /// Dense multiply-accumulate operations.
    pub fn macs(&self) -> u64 {
        self.kind.macs()
    }

    /// Weight parameter count.
    pub fn params(&self) -> u64 {
        self.kind.params()
    }

    /// Number of output activation elements.
    pub fn output_elements(&self) -> u64 {
        self.kind.output_elements()
    }

    /// True for attention matmuls subject to dynamic attention sparsity.
    pub fn is_dynamic_attention(&self) -> bool {
        self.kind.is_dynamic_attention()
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({:.2} MMACs)", self.name, self.macs() as f64 / 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv(in_ch: u32, out_ch: u32, k: u32, s: u32, p: u32, size: u32) -> Conv2d {
        Conv2d::square(in_ch, out_ch, k, s, p, size)
    }

    #[test]
    fn conv_output_size_standard_cases() {
        // 3x3 stride-1 pad-1 preserves size.
        assert_eq!(conv(64, 64, 3, 1, 1, 56).out_h(), 56);
        // 7x7 stride-2 pad-3 halves 224 -> 112.
        assert_eq!(conv(3, 64, 7, 2, 3, 224).out_h(), 112);
        // 1x1 stride-2 halves.
        assert_eq!(conv(256, 512, 1, 2, 0, 56).out_h(), 28);
    }

    #[test]
    fn conv_macs_match_formula() {
        let c = conv(3, 64, 7, 2, 3, 224);
        assert_eq!(c.macs(), 112 * 112 * 64 * 3 * 7 * 7);
        assert_eq!(c.params(), 64 * 3 * 7 * 7);
    }

    #[test]
    fn depthwise_conv_divides_by_groups() {
        let dw = Conv2d {
            groups: 32,
            ..Conv2d::square(32, 32, 3, 1, 1, 112)
        };
        assert!(dw.is_depthwise());
        assert_eq!(dw.macs(), 112 * 112 * 32 * 3 * 3);
    }

    #[test]
    fn linear_macs() {
        let l = Linear {
            in_features: 2048,
            out_features: 1000,
            tokens: 1,
        };
        assert_eq!(l.macs(), 2048 * 1000);
        assert_eq!(l.output_elements(), 1000);
    }

    #[test]
    fn attention_macs_scale_with_seq() {
        let a = Attention {
            heads: 12,
            head_dim: 64,
            q_len: 384,
            kv_len: 384,
        };
        assert_eq!(a.macs(), 12 * 384 * 384 * 64);
        assert_eq!(a.attention_elements(), 12 * 384 * 384);
    }

    #[test]
    fn pool_has_no_macs() {
        let p = LayerKind::Pool(Pool {
            kind: PoolKind::Max,
            channels: 64,
            kernel: 2,
            stride: 2,
            in_size: 112,
        });
        assert_eq!(p.macs(), 0);
        assert_eq!(p.output_elements(), 56 * 56 * 64);
    }

    #[test]
    fn global_pool_collapses_to_one() {
        let p = Pool {
            kind: PoolKind::Avg,
            channels: 2048,
            kernel: 7,
            stride: 1,
            in_size: 7,
        };
        assert_eq!(p.out_size(), 1);
        assert_eq!(p.output_elements(), 2048);
    }

    #[test]
    fn dynamic_attention_flag() {
        let a = Attention {
            heads: 12,
            head_dim: 64,
            q_len: 128,
            kv_len: 128,
        };
        assert!(LayerKind::AttentionScore(a).is_dynamic_attention());
        assert!(LayerKind::AttentionContext(a).is_dynamic_attention());
        assert!(!LayerKind::Linear(Linear {
            in_features: 768,
            out_features: 768,
            tokens: 128
        })
        .is_dynamic_attention());
    }

    #[test]
    fn layer_display_mentions_name() {
        let l = Layer::new(
            "fc",
            LayerKind::Linear(Linear {
                in_features: 4096,
                out_features: 1000,
                tokens: 1,
            }),
        );
        assert!(l.to_string().contains("fc"));
    }
}
