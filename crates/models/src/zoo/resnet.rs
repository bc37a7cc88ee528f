//! ResNet-50 (He et al., CVPR 2016) for 224×224 inputs.

use super::cnn_util::{conv_plain, conv_relu, global_avg_pool, max_pool};
use crate::{Layer, LayerKind, Linear, ModelGraph, ModelId};

/// Builds ResNet-50: conv1 + 4 stages of [3, 4, 6, 3] bottleneck blocks +
/// global average pool + 1000-way classifier (~4.1 GMACs, 25.5 M params).
///
/// Shortcut projection convolutions are included (they execute on the
/// accelerator like any other layer); element-wise residual additions are
/// not, as they contribute no MACs.
///
/// # Examples
///
/// ```
/// let g = dysta_models::zoo::resnet50();
/// // 1 stem + 16 blocks x 3 convs + 4 projections + 1 classifier = 54
/// assert_eq!(g.layers().iter().filter(|l| l.params() > 0).count(), 54);
/// ```
pub fn resnet50() -> ModelGraph {
    let mut layers = Vec::new();
    layers.push(conv_relu("conv1", 3, 64, 7, 2, 3, 224));
    layers.push(max_pool("maxpool", 64, 3, 2, 112));

    // (stage index, blocks, bottleneck width, input size)
    let stages: [(u32, u32, u32, u32); 4] = [
        (1, 3, 64, 56),
        (2, 4, 128, 56),
        (3, 6, 256, 28),
        (4, 3, 512, 14),
    ];
    let mut in_ch = 64;
    for (stage, blocks, width, mut size) in stages {
        let out_ch = width * 4;
        for block in 0..blocks {
            // First block of stages 2-4 downsamples spatially.
            let stride = if block == 0 && stage > 1 { 2 } else { 1 };
            let prefix = format!("s{stage}b{block}");
            layers.push(conv_relu(
                &format!("{prefix}_conv1"),
                in_ch,
                width,
                1,
                1,
                0,
                size,
            ));
            layers.push(conv_relu(
                &format!("{prefix}_conv2"),
                width,
                width,
                3,
                stride,
                1,
                size,
            ));
            let post = size / stride;
            layers.push(conv_relu(
                &format!("{prefix}_conv3"),
                width,
                out_ch,
                1,
                1,
                0,
                post,
            ));
            if block == 0 {
                layers.push(conv_plain(
                    &format!("{prefix}_proj"),
                    in_ch,
                    out_ch,
                    1,
                    stride,
                    0,
                    size,
                ));
            }
            in_ch = out_ch;
            size = post;
        }
    }

    layers.push(global_avg_pool("avgpool", 2048, 7));
    layers.push(Layer::new(
        "fc",
        LayerKind::Linear(Linear {
            in_features: 2048,
            out_features: 1000,
            tokens: 1,
        }),
    ));
    ModelGraph::new(ModelId::ResNet50, layers).expect("resnet50 graph is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_counts_match_3463() {
        let g = resnet50();
        for (stage, expected) in [(1u32, 3usize), (2, 4), (3, 6), (4, 3)] {
            let blocks = g
                .layers()
                .iter()
                .filter(|l| {
                    l.name().starts_with(&format!("s{stage}b")) && l.name().ends_with("conv1")
                })
                .count();
            assert_eq!(blocks, expected, "stage {stage}");
        }
    }

    #[test]
    fn projection_only_in_first_block_of_each_stage() {
        let g = resnet50();
        let projs: Vec<&str> = g
            .layers()
            .iter()
            .filter(|l| l.name().ends_with("_proj"))
            .map(|l| l.name())
            .collect();
        assert_eq!(projs, ["s1b0_proj", "s2b0_proj", "s3b0_proj", "s4b0_proj"]);
    }

    #[test]
    fn downsampling_halves_spatial_size() {
        let g = resnet50();
        let s2 = g
            .layers()
            .iter()
            .find(|l| l.name() == "s2b0_conv2")
            .unwrap();
        match s2.kind() {
            crate::LayerKind::Conv2d(c) => {
                assert_eq!(c.stride, 2);
                assert_eq!(c.out_h(), 28);
            }
            _ => panic!("expected conv"),
        }
    }

    #[test]
    fn classifier_head_shape() {
        let g = resnet50();
        let fc = g.layers().last().unwrap();
        assert_eq!(fc.params(), 2048 * 1000);
        assert_eq!(fc.macs(), 2048 * 1000);
    }
}
