//! Inception-V3 (Szegedy et al., CVPR 2016) for 299×299 inputs.

use super::cnn_util::{conv_asym_relu, conv_relu, global_avg_pool, max_pool};
use crate::{Layer, LayerKind, Linear, ModelGraph, ModelId};

/// Inception-A module (35×35 grid). Returns output channels.
fn inception_a(layers: &mut Vec<Layer>, name: &str, in_ch: u32, pool_ch: u32) -> u32 {
    let s = 35;
    layers.push(conv_relu(&format!("{name}_1x1"), in_ch, 64, 1, 1, 0, s));
    layers.push(conv_relu(&format!("{name}_5x5r"), in_ch, 48, 1, 1, 0, s));
    layers.push(conv_relu(&format!("{name}_5x5"), 48, 64, 5, 1, 2, s));
    layers.push(conv_relu(&format!("{name}_3x3r"), in_ch, 64, 1, 1, 0, s));
    layers.push(conv_relu(&format!("{name}_3x3a"), 64, 96, 3, 1, 1, s));
    layers.push(conv_relu(&format!("{name}_3x3b"), 96, 96, 3, 1, 1, s));
    layers.push(conv_relu(&format!("{name}_pp"), in_ch, pool_ch, 1, 1, 0, s));
    64 + 64 + 96 + pool_ch
}

/// Inception-B module (grid reduction 35→17). Returns output channels.
fn inception_b(layers: &mut Vec<Layer>, name: &str, in_ch: u32) -> u32 {
    layers.push(conv_relu(&format!("{name}_3x3"), in_ch, 384, 3, 2, 0, 35));
    layers.push(conv_relu(&format!("{name}_dblr"), in_ch, 64, 1, 1, 0, 35));
    layers.push(conv_relu(&format!("{name}_dbla"), 64, 96, 3, 1, 1, 35));
    layers.push(conv_relu(&format!("{name}_dblb"), 96, 96, 3, 2, 0, 35));
    layers.push(max_pool(&format!("{name}_pool"), in_ch, 3, 2, 35));
    384 + 96 + in_ch
}

/// Inception-C module (17×17 grid, factorised 7×7). Returns output channels.
fn inception_c(layers: &mut Vec<Layer>, name: &str, in_ch: u32, c7: u32) -> u32 {
    let s = 17;
    layers.push(conv_relu(&format!("{name}_1x1"), in_ch, 192, 1, 1, 0, s));
    layers.push(conv_relu(&format!("{name}_7x7r"), in_ch, c7, 1, 1, 0, s));
    layers.push(conv_asym_relu(&format!("{name}_1x7a"), c7, c7, 1, 7, s));
    layers.push(conv_asym_relu(&format!("{name}_7x1a"), c7, 192, 7, 1, s));
    layers.push(conv_relu(&format!("{name}_dblr"), in_ch, c7, 1, 1, 0, s));
    layers.push(conv_asym_relu(&format!("{name}_7x1b"), c7, c7, 7, 1, s));
    layers.push(conv_asym_relu(&format!("{name}_1x7b"), c7, c7, 1, 7, s));
    layers.push(conv_asym_relu(&format!("{name}_7x1c"), c7, c7, 7, 1, s));
    layers.push(conv_asym_relu(&format!("{name}_1x7c"), c7, 192, 1, 7, s));
    layers.push(conv_relu(&format!("{name}_pp"), in_ch, 192, 1, 1, 0, s));
    192 * 4
}

/// Inception-D module (grid reduction 17→8). Returns output channels.
fn inception_d(layers: &mut Vec<Layer>, name: &str, in_ch: u32) -> u32 {
    layers.push(conv_relu(&format!("{name}_3x3r"), in_ch, 192, 1, 1, 0, 17));
    layers.push(conv_relu(&format!("{name}_3x3"), 192, 320, 3, 2, 0, 17));
    layers.push(conv_relu(&format!("{name}_7x7r"), in_ch, 192, 1, 1, 0, 17));
    layers.push(conv_asym_relu(&format!("{name}_1x7"), 192, 192, 1, 7, 17));
    layers.push(conv_asym_relu(&format!("{name}_7x1"), 192, 192, 7, 1, 17));
    layers.push(conv_relu(&format!("{name}_3x3b"), 192, 192, 3, 2, 0, 17));
    layers.push(max_pool(&format!("{name}_pool"), in_ch, 3, 2, 17));
    320 + 192 + in_ch
}

/// Inception-E module (8×8 grid, expanded filter bank). Returns channels.
fn inception_e(layers: &mut Vec<Layer>, name: &str, in_ch: u32) -> u32 {
    let s = 8;
    layers.push(conv_relu(&format!("{name}_1x1"), in_ch, 320, 1, 1, 0, s));
    layers.push(conv_relu(&format!("{name}_3x3r"), in_ch, 384, 1, 1, 0, s));
    layers.push(conv_asym_relu(&format!("{name}_1x3a"), 384, 384, 1, 3, s));
    layers.push(conv_asym_relu(&format!("{name}_3x1a"), 384, 384, 3, 1, s));
    layers.push(conv_relu(&format!("{name}_dblr"), in_ch, 448, 1, 1, 0, s));
    layers.push(conv_relu(&format!("{name}_dbl3"), 448, 384, 3, 1, 1, s));
    layers.push(conv_asym_relu(&format!("{name}_1x3b"), 384, 384, 1, 3, s));
    layers.push(conv_asym_relu(&format!("{name}_3x1b"), 384, 384, 3, 1, s));
    layers.push(conv_relu(&format!("{name}_pp"), in_ch, 192, 1, 1, 0, s));
    320 + 768 + 768 + 192
}

/// Builds Inception-V3 (~5.7 GMACs, ~24 M parameters).
///
/// Used for the Table 2 network-sparsity profiling.
///
/// # Examples
///
/// ```
/// let g = dysta_models::zoo::inception_v3();
/// assert!(g.num_layers() > 90);
/// ```
#[allow(clippy::vec_init_then_push)]
pub fn inception_v3() -> ModelGraph {
    let mut layers = Vec::new();
    layers.push(conv_relu("conv1", 3, 32, 3, 2, 0, 299)); // 149
    layers.push(conv_relu("conv2", 32, 32, 3, 1, 0, 149)); // 147
    layers.push(conv_relu("conv3", 32, 64, 3, 1, 1, 147)); // 147
    layers.push(max_pool("pool1", 64, 3, 2, 147)); // 73
    layers.push(conv_relu("conv4", 64, 80, 1, 1, 0, 73)); // 73
    layers.push(conv_relu("conv5", 80, 192, 3, 1, 0, 73)); // 71
    layers.push(max_pool("pool2", 192, 3, 2, 71)); // 35

    let mut ch = 192;
    ch = inception_a(&mut layers, "a1", ch, 32);
    ch = inception_a(&mut layers, "a2", ch, 64);
    ch = inception_a(&mut layers, "a3", ch, 64);
    debug_assert_eq!(ch, 288);
    ch = inception_b(&mut layers, "b1", ch);
    debug_assert_eq!(ch, 768);
    ch = inception_c(&mut layers, "c1", ch, 128);
    ch = inception_c(&mut layers, "c2", ch, 160);
    ch = inception_c(&mut layers, "c3", ch, 160);
    ch = inception_c(&mut layers, "c4", ch, 192);
    ch = inception_d(&mut layers, "d1", ch);
    debug_assert_eq!(ch, 1280);
    ch = inception_e(&mut layers, "e1", ch);
    ch = inception_e(&mut layers, "e2", ch);
    debug_assert_eq!(ch, 2048);

    layers.push(global_avg_pool("avgpool", 2048, 8));
    layers.push(Layer::new(
        "fc",
        LayerKind::Linear(Linear {
            in_features: 2048,
            out_features: 1000,
            tokens: 1,
        }),
    ));
    ModelGraph::new(ModelId::InceptionV3, layers).expect("inception_v3 graph is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stem_reduces_to_35() {
        let g = inception_v3();
        let conv5 = g.layers().iter().find(|l| l.name() == "conv5").unwrap();
        match conv5.kind() {
            crate::LayerKind::Conv2d(c) => assert_eq!(c.out_h(), 71),
            _ => panic!("expected conv"),
        }
    }

    #[test]
    fn factorised_convs_have_asymmetric_kernels() {
        let g = inception_v3();
        let l = g.layers().iter().find(|l| l.name() == "c1_1x7a").unwrap();
        match l.kind() {
            crate::LayerKind::Conv2d(c) => {
                assert_eq!((c.kernel_h, c.kernel_w), (1, 7));
                assert_eq!(c.out_h(), 17);
                assert_eq!(c.out_w(), 17);
            }
            _ => panic!("expected conv"),
        }
    }

    #[test]
    fn param_count_close_to_published() {
        let g = inception_v3();
        let mparams = g.total_params() as f64 / 1e6;
        assert!((20.0..26.0).contains(&mparams), "{mparams}");
    }
}
