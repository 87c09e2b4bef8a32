//! Bit-identity of the plan's packed GEMM and fused conv kernels
//! (`gemm_fused_into`, `conv2d_fused_into`) against the naive saturating
//! kernels. Both reorder *memory traversal* only — every
//! output element still accumulates its k products in ascending order
//! with the per-MAC `i64 → i32` clamp, or provably never reaches the
//! clamp — so the results must match the dense kernels bit for bit at
//! every shape (including GEMM shapes that are not multiples of the
//! 64-wide panel, and every conv stride, padding and grouping), at every
//! thread count and under both the baseline and the detected ISA.

use proptest::prelude::*;
use t2c_tensor::ops::{conv2d_i32, Conv2dSpec};
use t2c_tensor::{
    conv2d_fused_into, gemm_fused_into, isa, with_isa, with_threads, ConvWeight, Isa, PackedMat,
    RowChannels, Tensor,
};

/// Every (ISA, thread count) pair the kernels must agree at: the baseline
/// and the host's detected ISA, each at 1, 2 and 4 workers.
fn sweep() -> impl Iterator<Item = (Isa, usize)> {
    [Isa::Scalar, isa()].into_iter().flat_map(|i| [1, 2, 4].map(|t| (i, t)))
}

/// A channel-tagging epilogue map, so a run handed over under the wrong
/// channel shows in the output.
fn tag(v: i32, ch: usize) -> i32 {
    v.wrapping_mul(3).wrapping_add(ch as i32)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fused_gemm_is_bit_identical_across_shapes_and_threads(
        m in 1usize..20,
        k in 1usize..70,
        n in 1usize..140,
        seed in any::<u64>(),
        // Large magnitudes so a fraction of cases drive the accumulator
        // through the saturating clamp mid-chain.
        big in any::<bool>(),
    ) {
        let scale: i32 = if big { 1 << 20 } else { 1 };
        let xv: Vec<i32> = (0..m * k)
            .map(|i| ((seed.wrapping_mul(i as u64 + 1).wrapping_mul(2_654_435_761) >> 16) as i32 % 1000) * scale)
            .collect();
        let wv: Vec<i32> = (0..n * k)
            .map(|i| ((seed.wrapping_mul(i as u64 + 7).wrapping_mul(2_246_822_519) >> 16) as i32 % 1000) * scale)
            .collect();
        let x = Tensor::from_vec(xv, &[m, k]).unwrap();
        let w = Tensor::from_vec(wv, &[n, k]).unwrap();
        let reference: Vec<i32> = x
            .matmul_i(&w.transpose().unwrap())
            .unwrap()
            .as_slice()
            .iter()
            .enumerate()
            .map(|(i, &v)| tag(v, i % n))
            .collect();
        let packed = PackedMat::from_weight(&w).unwrap();
        for (isa, threads) in sweep() {
            let mut out = vec![0i32; m * n];
            with_isa(isa, || with_threads(threads, || {
                gemm_fused_into(
                    x.as_slice(), m, &packed,
                    &|row: &mut [i32], chans: RowChannels| {
                        let RowChannels::From(c0) = chans else { panic!("GEMM rows start a channel run") };
                        for (j, v) in row.iter_mut().enumerate() {
                            *v = tag(*v, c0 + j);
                        }
                    },
                    &mut out,
                )
            })).unwrap();
            prop_assert_eq!(
                out.as_slice(), reference.as_slice(),
                "m={} k={} n={} {} threads={}", m, k, n, isa, threads
            );
        }
    }

    #[test]
    fn fused_conv_is_bit_identical_across_shapes_and_threads(
        nimg in 1usize..3,
        c in 1usize..5,
        group_sel in 0usize..3,
        // Per-group output channels below 8 or above 64.
        ocg_small in 1usize..8,
        ocg_big in 65usize..70,
        wide in any::<bool>(),
        hw in 1usize..7,
        kk in 1usize..5,
        stride in 1usize..3,
        padding in 0usize..2,
        // Full-range values drive some rows through the clamped chain.
        full in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // groups {1, d, C}, d the smallest divisor of C above 1: C = 3
        // gives an RGB-stem group of 3 channels and a 3-way depthwise
        // conv, C = 4 two groups of 2.
        let d = (2..=c).find(|d| c % d == 0).unwrap_or(1);
        let groups = [1, d, c][group_sel];
        let ocg = if wide { ocg_big } else { ocg_small };
        let (cg, oc) = (c / groups, ocg * groups);
        let hw = hw.max(kk.saturating_sub(2 * padding));
        // int8-range codes, or any i32 at all.
        let draw = |i: usize, salt: u64| -> i32 {
            let h = seed.wrapping_add(salt).wrapping_mul(i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            if full { (h >> 32) as u32 as i32 } else { ((h >> 40) % 256) as i32 - 128 }
        };
        let xv: Vec<i32> = (0..nimg * c * hw * hw).map(|i| draw(i, 3)).collect();
        let wv: Vec<i32> = (0..oc * cg * kk * kk).map(|i| draw(i, 11)).collect();
        let x = Tensor::from_vec(xv, &[nimg, c, hw, hw]).unwrap();
        let w = Tensor::from_vec(wv, &[oc, cg, kk, kk]).unwrap();
        let spec = Conv2dSpec { stride, padding, groups };
        let plain = conv2d_i32(&x, &w, None, spec).unwrap();
        let l = plain.dim(2) * plain.dim(3);
        let reference: Vec<i32> = plain
            .as_slice()
            .iter()
            .enumerate()
            .map(|(i, &v)| tag(v, (i / l) % oc))
            .collect();
        let weight = ConvWeight::new(&w, groups).unwrap();
        let need = weight.scratch_len(hw, hw, spec).unwrap();
        prop_assert_eq!(need == 0, kk == 1 && stride == 1 && padding == 0);
        for (isa, threads) in sweep() {
            let mut out = vec![0i32; reference.len()];
            let mut scratch = vec![i32::MIN; need];
            with_isa(isa, || with_threads(threads, || {
                conv2d_fused_into(
                    x.as_slice(), [nimg, c, hw, hw], &weight, spec,
                    &|row: &mut [i32], chans: RowChannels| {
                        let RowChannels::One(ch) = chans else { panic!("conv rows have one channel") };
                        for v in row.iter_mut() {
                            *v = tag(*v, ch);
                        }
                    },
                    &mut scratch, &mut out,
                )
            })).unwrap();
            prop_assert_eq!(
                out.as_slice(), reference.as_slice(),
                "n={} c={} oc={} hw={} k={} stride={} pad={} groups={} full={} {} threads={}",
                nimg, c, oc, hw, kk, stride, padding, groups, full, isa, threads
            );
        }
    }
}
