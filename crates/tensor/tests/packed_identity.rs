//! Bit-identity of the packed GEMM/conv kernels against the naive
//! saturating kernels. The packed kernels reorder *memory traversal* only
//! — every output element still accumulates its k products in ascending
//! order with the per-MAC `i64 → i32` clamp — so the results must match
//! the dense kernels bit for bit at every shape (including shapes that
//! are not multiples of the 64-wide panel) and at every thread count.

use proptest::prelude::*;
use t2c_tensor::ops::{conv2d_i32, Conv2dSpec};
use t2c_tensor::{
    conv2d_i32_packed, matmul_i32_sat_packed, with_threads, PackedConv, PackedMat, Tensor,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn packed_matmul_is_bit_identical_across_shapes_and_threads(
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
        let reference = x.matmul_i(&w.transpose().unwrap()).unwrap();
        let packed = PackedMat::from_weight(&w).unwrap();
        for threads in [1usize, 2, 4] {
            let got = with_threads(threads, || matmul_i32_sat_packed(&x, &packed)).unwrap();
            prop_assert_eq!(
                got.as_slice(), reference.as_slice(),
                "m={} k={} n={} threads={}", m, k, n, threads
            );
        }
    }

    #[test]
    fn packed_conv_is_bit_identical_across_shapes_and_threads(
        nimg in 1usize..3,
        c in 1usize..5,
        oc_per_c in 1usize..4,
        hw in 3usize..8,
        kk in 1usize..4,
        depthwise in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let kk = kk.min(hw);
        let (groups, cg, oc) = if depthwise { (c, 1, c * oc_per_c) } else { (1, c, oc_per_c * 2) };
        let xv: Vec<i32> = (0..nimg * c * hw * hw)
            .map(|i| (seed.wrapping_mul(i as u64 + 3) >> 17) as i32 % 200 - 100)
            .collect();
        let wv: Vec<i32> = (0..oc * cg * kk * kk)
            .map(|i| (seed.wrapping_mul(i as u64 + 11) >> 19) as i32 % 30 - 15)
            .collect();
        let x = Tensor::from_vec(xv, &[nimg, c, hw, hw]).unwrap();
        let w = Tensor::from_vec(wv, &[oc, cg, kk, kk]).unwrap();
        let spec = Conv2dSpec { stride: 1, padding: 1, groups };
        let reference = conv2d_i32(&x, &w, None, spec).unwrap();
        let packed = PackedConv::from_weight(&w, groups).unwrap();
        for threads in [1usize, 2, 4] {
            let got = with_threads(threads, || conv2d_i32_packed(&x, &packed, spec)).unwrap();
            prop_assert_eq!(
                got.as_slice(), reference.as_slice(),
                "n={} c={} oc={} hw={} k={} groups={} threads={}",
                nimg, c, oc, hw, kk, groups, threads
            );
        }
    }
}
