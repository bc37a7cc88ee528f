//! Attention-based models: BERT, GPT-2 and BART.
//!
//! All three use the base configuration (hidden 768, 12 heads, FFN 3072)
//! matching the checkpoints the paper obtains from HuggingFace. Each
//! transformer block is expanded into its constituent matmuls so that the
//! attention score (`Q·Kᵀ`) and context (`A·V`) layers — the ones subject to
//! dynamic attention sparsity on Sanger — appear as individual schedulable
//! layers.

use crate::{Attention, Layer, LayerKind, Linear, ModelGraph, ModelId};

const HIDDEN: u32 = 768;
const HEADS: u32 = 12;
const HEAD_DIM: u32 = HIDDEN / HEADS;
const FFN: u32 = 3072;
/// GPT-2 byte-pair-encoding vocabulary.
const GPT2_VOCAB: u32 = 50257;
/// BART vocabulary.
const BART_VOCAB: u32 = 50265;

fn linear(name: String, in_f: u32, out_f: u32, tokens: u32) -> Layer {
    Layer::new(
        name,
        LayerKind::Linear(Linear {
            in_features: in_f,
            out_features: out_f,
            tokens,
        }),
    )
}

/// Appends one self-attention sub-block (QKV projection, score, context,
/// output projection).
fn self_attention(layers: &mut Vec<Layer>, prefix: &str, seq: u32) {
    layers.push(linear(format!("{prefix}_qkv"), HIDDEN, 3 * HIDDEN, seq));
    let attn = Attention {
        heads: HEADS,
        head_dim: HEAD_DIM,
        q_len: seq,
        kv_len: seq,
    };
    layers.push(Layer::new(
        format!("{prefix}_score"),
        LayerKind::AttentionScore(attn),
    ));
    layers.push(Layer::new(
        format!("{prefix}_ctx"),
        LayerKind::AttentionContext(attn),
    ));
    layers.push(linear(format!("{prefix}_out"), HIDDEN, HIDDEN, seq));
}

/// Appends one cross-attention sub-block (decoder queries over encoder keys).
fn cross_attention(layers: &mut Vec<Layer>, prefix: &str, q_len: u32, kv_len: u32) {
    layers.push(linear(format!("{prefix}_q"), HIDDEN, HIDDEN, q_len));
    layers.push(linear(format!("{prefix}_kv"), HIDDEN, 2 * HIDDEN, kv_len));
    let attn = Attention {
        heads: HEADS,
        head_dim: HEAD_DIM,
        q_len,
        kv_len,
    };
    layers.push(Layer::new(
        format!("{prefix}_score"),
        LayerKind::AttentionScore(attn),
    ));
    layers.push(Layer::new(
        format!("{prefix}_ctx"),
        LayerKind::AttentionContext(attn),
    ));
    layers.push(linear(format!("{prefix}_out"), HIDDEN, HIDDEN, q_len));
}

/// Appends one feed-forward sub-block.
fn ffn(layers: &mut Vec<Layer>, prefix: &str, seq: u32) {
    layers.push(linear(format!("{prefix}_ffn1"), HIDDEN, FFN, seq));
    layers.push(linear(format!("{prefix}_ffn2"), FFN, HIDDEN, seq));
}

/// Builds BERT-base (12 encoder blocks) for sequence length `seq`, with a
/// span-prediction head as used for SQuAD question answering.
///
/// # Examples
///
/// ```
/// let g = dysta_models::zoo::bert(384);
/// let attention = g.layers().iter().filter(|l| l.is_dynamic_attention());
/// assert_eq!(attention.count(), 24);
/// ```
pub fn bert(seq: u32) -> ModelGraph {
    assert!(seq > 0, "sequence length must be positive");
    let mut layers = Vec::new();
    for b in 0..12 {
        let p = format!("enc{b}");
        self_attention(&mut layers, &p, seq);
        ffn(&mut layers, &p, seq);
    }
    layers.push(linear("qa_head".into(), HIDDEN, 2, seq));
    ModelGraph::new(ModelId::Bert, layers).expect("bert graph is valid")
}

/// Builds GPT-2 small (12 decoder blocks) for sequence length `seq`, with
/// the tied language-model head.
///
/// # Examples
///
/// ```
/// let g = dysta_models::zoo::gpt2(256);
/// assert!(g.total_macs() > 0);
/// ```
pub fn gpt2(seq: u32) -> ModelGraph {
    assert!(seq > 0, "sequence length must be positive");
    let mut layers = Vec::new();
    for b in 0..12 {
        let p = format!("dec{b}");
        self_attention(&mut layers, &p, seq);
        ffn(&mut layers, &p, seq);
    }
    layers.push(linear("lm_head".into(), HIDDEN, GPT2_VOCAB, seq));
    ModelGraph::new(ModelId::Gpt2, layers).expect("gpt2 graph is valid")
}

/// Builds BART-base (6 encoder + 6 decoder blocks) for the given encoder
/// (`src_seq`) and decoder (`tgt_seq`) sequence lengths, with the
/// generation head, as used for machine translation.
///
/// # Examples
///
/// ```
/// let g = dysta_models::zoo::bart(256, 256);
/// // encoder self-attn (6*2) + decoder self-attn (6*2) + cross-attn (6*2)
/// let attention = g.layers().iter().filter(|l| l.is_dynamic_attention());
/// assert_eq!(attention.count(), 36);
/// ```
pub fn bart(src_seq: u32, tgt_seq: u32) -> ModelGraph {
    assert!(
        src_seq > 0 && tgt_seq > 0,
        "sequence lengths must be positive"
    );
    let mut layers = Vec::new();
    for b in 0..6 {
        let p = format!("enc{b}");
        self_attention(&mut layers, &p, src_seq);
        ffn(&mut layers, &p, src_seq);
    }
    for b in 0..6 {
        let p = format!("dec{b}");
        self_attention(&mut layers, &p, tgt_seq);
        cross_attention(&mut layers, &format!("{p}_x"), tgt_seq, src_seq);
        ffn(&mut layers, &p, tgt_seq);
    }
    layers.push(linear("lm_head".into(), HIDDEN, BART_VOCAB, tgt_seq));
    ModelGraph::new(ModelId::Bart, layers).expect("bart graph is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bert_macs_scale_quadratically_in_attention() {
        let short = bert(128);
        let long = bert(256);
        let attn_macs = |g: &ModelGraph| -> u64 {
            g.layers()
                .iter()
                .filter(|l| l.is_dynamic_attention())
                .map(|l| l.macs())
                .sum()
        };
        // Doubling seq quadruples attention MACs.
        assert_eq!(attn_macs(&long), 4 * attn_macs(&short));
    }

    #[test]
    fn bert_base_parameter_count() {
        // Encoder-only weights: 12 * (4*768^2 + 2*768*3072) ≈ 85 M.
        let g = bert(384);
        let mparams = g.total_params() as f64 / 1e6;
        assert!((80.0..90.0).contains(&mparams), "{mparams}");
    }

    #[test]
    fn gpt2_lm_head_dominates_params() {
        let g = gpt2(256);
        let head = g.layers().last().unwrap();
        assert_eq!(head.name(), "lm_head");
        assert!(head.params() as f64 / g.total_params() as f64 > 0.25);
    }

    #[test]
    fn bart_cross_attention_uses_encoder_kv_length() {
        let g = bart(384, 128);
        let cross = g
            .layers()
            .iter()
            .find(|l| l.name() == "dec0_x_score")
            .unwrap();
        match cross.kind() {
            LayerKind::AttentionScore(a) => {
                assert_eq!(a.q_len, 128);
                assert_eq!(a.kv_len, 384);
            }
            _ => panic!("expected attention score"),
        }
    }

    #[test]
    #[should_panic(expected = "sequence length must be positive")]
    fn bert_rejects_zero_seq() {
        let _ = bert(0);
    }
}
