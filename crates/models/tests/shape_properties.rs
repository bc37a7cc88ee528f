//! Property-based tests on layer shape and cost accounting.

use proptest::prelude::*;

use dysta_models::{Attention, Conv2d, Linear};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// MACs = output positions × per-position dot-product length; params
    /// are independent of spatial size; output elements are consistent.
    #[test]
    fn conv_accounting_is_internally_consistent(
        in_ch in 1u32..128,
        out_ch in 1u32..128,
        kernel in prop::sample::select(vec![1u32, 3, 5, 7]),
        stride in 1u32..3,
        in_size in 8u32..128,
    ) {
        let padding = kernel / 2;
        let c = Conv2d::square(in_ch, out_ch, kernel, stride, padding, in_size);
        let per_position = (in_ch * kernel * kernel) as u64;
        prop_assert_eq!(c.macs(), c.output_elements() * per_position);
        prop_assert_eq!(c.params(), out_ch as u64 * per_position);
        // Stride-1 same-padding preserves the spatial size for odd kernels.
        if stride == 1 && kernel % 2 == 1 {
            prop_assert_eq!(c.out_h(), in_size);
        }
        // Output size never exceeds input size for stride >= 1, pad <= k/2.
        prop_assert!(c.out_h() <= in_size);
    }

    #[test]
    fn depthwise_divides_macs_by_channels(
        ch in 1u32..256,
        in_size in 4u32..64,
    ) {
        let dense = Conv2d::square(ch, ch, 3, 1, 1, in_size);
        let dw = Conv2d { groups: ch, ..dense };
        prop_assert_eq!(dense.macs(), dw.macs() * ch as u64);
    }

    #[test]
    fn linear_macs_equal_params_times_tokens(
        in_f in 1u32..4096,
        out_f in 1u32..4096,
        tokens in 1u32..512,
    ) {
        let l = Linear { in_features: in_f, out_features: out_f, tokens };
        prop_assert_eq!(l.macs(), l.params() * tokens as u64);
    }

    #[test]
    fn attention_macs_symmetric_in_q_and_kv(
        heads in 1u32..16,
        head_dim in 8u32..128,
        q in 1u32..512,
        kv in 1u32..512,
    ) {
        let a = Attention { heads, head_dim, q_len: q, kv_len: kv };
        let b = Attention { heads, head_dim, q_len: kv, kv_len: q };
        prop_assert_eq!(a.macs(), b.macs());
        prop_assert_eq!(a.attention_elements(), b.attention_elements());
    }
}
