//! Fused integer kernels: the packed/sparse tile loops with a
//! caller-supplied per-element epilogue.
//!
//! Compiled execution plans (`t2c-core`'s `plan` module) collapse the
//! interpreter's `MAC → bias → requant → activation` node chain into a
//! single kernel call. The kernels here are the same cache-blocked loops
//! as [`crate::packed`] and [`crate::sparse`], except that at the moment
//! an output element leaves the per-worker accumulator it passes through
//! `epi(acc, out_channel)` and the **narrow** requantized value is written
//! to the caller's buffer — the wide `i32` accumulator block never
//! materializes as a full tensor.
//!
//! # Bit-identity
//!
//! The accumulation order is untouched: for any fixed output element the
//! reduction index still ascends with the same per-MAC saturation chain as
//! the unfused kernels (see the `packed`/`sparse` module docs), and the
//! epilogue is a pure per-element function of the finished accumulator and
//! its output channel — exactly what the interpreter's separate
//! bias/requant/LUT passes compute element-wise. Workers own disjoint
//! output units, so results are bit-identical to the unfused chain at any
//! thread count.
//!
//! # Trust contract
//!
//! These entry points check the shapes they are handed but — unlike the
//! public kernels — do **not** re-validate the packed/sparse weight
//! structure on every call: plans validate once at compile time, and
//! re-walking the weight per inference would defeat the point of the
//! fused path. A corrupted structure panics on an out-of-bounds index
//! (this crate forbids `unsafe`), it cannot read out of bounds.
//!
//! `gemm_fused_into` and `spmm_fused_into` perform **zero heap
//! allocations** when the resolved worker count is 1 (the accumulator tile
//! lives on the stack); `conv2d_fused_into` allocates its im2col patch
//! matrix and per-worker scratch like the unfused path.

use crate::ops::Conv2dSpec;
use crate::packed::{
    conv2d_packed_epi, conv2d_packed_shape, packed_tile, PackedConv, PackedMat, MR, PANEL,
};
use crate::parallel::par_units;
use crate::sparse::{spmm_into, SparseMat};
use crate::{Result, Tensor, TensorError};

/// Packed GEMM with fused epilogue: `[rows, w.k]` activations (`x`, row
/// major) × packed `[w.n, w.k]` weight, writing
/// `epi(acc[i][j], j)` into `out[i * w.n + j]`.
///
/// Bit-identical to [`crate::packed::matmul_i32_sat_packed`] followed by
/// an element-wise `epi` pass, at any thread count. Performs no heap
/// allocation when the resolved worker count is 1.
///
/// # Errors
///
/// Returns an error if `x` or `out` disagree with `rows` and the packed
/// dimensions.
pub fn gemm_fused_into<E>(
    x: &[i32],
    rows: usize,
    w: &PackedMat,
    epi: &E,
    out: &mut [i32],
) -> Result<()>
where
    E: Fn(i32, usize) -> i32 + Sync,
{
    let (n, k) = (w.n, w.k);
    if x.len() != rows * k || out.len() != rows * n {
        return Err(TensorError::InvalidArgument(format!(
            "gemm_fused_into: {} activations / {} outputs do not form [{rows}, {k}] x [{n}, {k}]",
            x.len(),
            out.len()
        )));
    }
    let _t = t2c_obs::Timer::scoped("kernel.gemm_fused.time_ns");
    record_fused("kernel.gemm_fused", rows, k, n);
    par_units(out, n.max(1), |row0, run| {
        let mut tile = [0i32; MR * PANEL];
        let nrows = run.len() / n.max(1);
        let mut r0 = 0usize;
        while r0 < nrows {
            let rblk = MR.min(nrows - r0);
            for (t, pdata) in w.data.chunks(k * PANEL).enumerate() {
                let cols = PANEL.min(n - t * PANEL);
                tile.fill(0);
                packed_tile(&x[(row0 + r0) * k..], rblk, k, pdata, w.panel_max[t], &mut tile);
                for r in 0..rblk {
                    let obase = (r0 + r) * n + t * PANEL;
                    for (j, ov) in run[obase..obase + cols].iter_mut().enumerate() {
                        *ov = epi(tile[r * PANEL + j], t * PANEL + j);
                    }
                }
            }
            r0 += rblk;
        }
    });
    Ok(())
}

/// Sparse skip-zero matmul with fused epilogue: `[rows, w.cols]`
/// activations × compressed `[w.rows, w.cols]` weight, writing
/// `epi(acc[i][j], j)` into `out[i * w.rows + j]`.
///
/// `cols` must be `w.col_indices()` precomputed by the caller (plans do
/// this at compile time so the steady state allocates nothing).
/// Bit-identical to [`crate::sparse::matmul_sparse_i`] followed by an
/// element-wise `epi` pass, at any thread count.
///
/// # Errors
///
/// Returns an error if `x`, `cols` or `out` disagree with `rows` and the
/// sparse dimensions.
pub fn spmm_fused_into<E>(
    x: &[i32],
    rows: usize,
    w: &SparseMat,
    cols: &[u32],
    epi: &E,
    out: &mut [i32],
) -> Result<()>
where
    E: Fn(i32, usize) -> i32 + Sync,
{
    let (n_out, k) = (w.rows, w.cols);
    if x.len() != rows * k || out.len() != rows * n_out {
        return Err(TensorError::InvalidArgument(format!(
            "spmm_fused_into: {} activations / {} outputs do not form [{rows}, {k}] x [{n_out}, {k}]",
            x.len(),
            out.len()
        )));
    }
    if cols.len() != w.vals.len() {
        return Err(TensorError::InvalidArgument(format!(
            "spmm_fused_into: {} column indices for {} stored values",
            cols.len(),
            w.vals.len()
        )));
    }
    let _t = t2c_obs::Timer::scoped("kernel.spmm_fused.time_ns");
    record_fused("kernel.spmm_fused", rows, k, n_out);
    spmm_into(x, w, cols, epi, out);
    Ok(())
}

/// Packed 2-D convolution with fused epilogue: `[N,C,H,W]` ⊛ packed
/// `[OC,C/g,KH,KW]`, writing `epi(acc, oc)` (where `oc` is the output
/// channel) into `out` in `[N,OC,OH,OW]` order, and returning that shape.
///
/// Bit-identical to [`crate::packed::conv2d_i32_packed`] followed by an
/// element-wise `epi` pass, at any thread count. Unlike the GEMM entry
/// points this allocates (im2col + per-worker scratch), matching the
/// unfused path.
///
/// # Errors
///
/// Returns an error on rank/shape/geometry mismatches or if `out` has the
/// wrong length.
pub fn conv2d_fused_into<E>(
    x: &Tensor<i32>,
    weight: &PackedConv,
    spec: Conv2dSpec,
    epi: &E,
    out: &mut [i32],
) -> Result<[usize; 4]>
where
    E: Fn(i32, usize) -> i32 + Sync,
{
    let dims = conv2d_packed_shape(x, weight, spec)?;
    let need: usize = dims.iter().product();
    if out.len() != need {
        return Err(TensorError::InvalidArgument(format!(
            "conv2d_fused_into: output buffer holds {} values, shape {dims:?} needs {need}",
            out.len()
        )));
    }
    conv2d_packed_epi(x, weight, spec, epi, out)?;
    Ok(dims)
}

/// Records call/MAC counters for a fused product. One branch when
/// profiling is disabled.
fn record_fused(op: &str, m: usize, k: usize, n: usize) {
    if t2c_obs::enabled() {
        let (m, k, n) = (m as u64, k as u64, n as u64);
        t2c_obs::counter_add(&format!("{op}.calls"), 1);
        t2c_obs::counter_add(&format!("{op}.macs"), m * k * n);
        t2c_obs::counter_add(&format!("{op}.elements"), m * n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::matmul_i32_sat_packed;
    use crate::parallel::with_threads;
    use crate::sparse::matmul_sparse_i;
    use crate::Tensor;

    fn pseudo_i(dims: &[usize], seed: u64, span: i64) -> Tensor<i32> {
        Tensor::from_fn(dims, |i| {
            let h = (i as u64).wrapping_mul(6364136223846793005).wrapping_add(seed);
            ((h >> 33) as i64 % span - span / 2) as i32
        })
    }

    /// A channel-dependent epilogue exercising bias, shift and clamp.
    fn epi(acc: i32, ch: usize) -> i32 {
        let v = i64::from(acc) + (ch as i64 % 7) - 3;
        let v = (v + 8) >> 4;
        v.clamp(-128, 127) as i32
    }

    #[test]
    fn fused_gemm_matches_unfused_plus_map() {
        for (m, k, n) in [(1, 1, 1), (3, 5, 2), (8, 16, 64), (9, 17, 65), (23, 40, 130)] {
            let x = pseudo_i(&[m, k], 11, 255);
            let w = pseudo_i(&[n, k], 13, 255);
            let packed = PackedMat::from_weight(&w).unwrap();
            let expect: Vec<i32> = matmul_i32_sat_packed(&x, &packed)
                .unwrap()
                .as_slice()
                .iter()
                .enumerate()
                .map(|(i, &v)| epi(v, i % n))
                .collect();
            for threads in [1, 2, 4] {
                let mut out = vec![0i32; m * n];
                with_threads(threads, || {
                    gemm_fused_into(x.as_slice(), m, &packed, &epi, &mut out).unwrap();
                });
                assert_eq!(out, expect, "m={m} k={k} n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn fused_gemm_saturates_identically_at_the_rails() {
        let x = Tensor::from_fn(&[4, 9], |i| match i % 4 {
            0 => i32::MAX,
            1 => 0,
            2 => i32::MIN,
            _ => (i as i32 % 89) - 44,
        });
        let w = Tensor::from_fn(&[70, 9], |i| match i % 3 {
            0 => i32::MAX / 2,
            1 => 0,
            _ => -(i as i32 % 97),
        });
        let packed = PackedMat::from_weight(&w).unwrap();
        let expect: Vec<i32> = matmul_i32_sat_packed(&x, &packed)
            .unwrap()
            .as_slice()
            .iter()
            .enumerate()
            .map(|(i, &v)| epi(v, i % 70))
            .collect();
        for threads in [1, 4] {
            let mut out = vec![0i32; 4 * 70];
            with_threads(threads, || {
                gemm_fused_into(x.as_slice(), 4, &packed, &epi, &mut out).unwrap();
            });
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn fused_spmm_matches_unfused_plus_map() {
        for (m, k, n) in [(1, 4, 3), (17, 33, 20), (32, 64, 48)] {
            let x = pseudo_i(&[m, k], 7, 255);
            let w = Tensor::from_fn(&[n, k], |i| if i % 3 == 0 { (i as i32 % 11) - 5 } else { 0 });
            let sp = SparseMat::from_dense(&w).unwrap();
            let cols = sp.col_indices();
            let expect: Vec<i32> = matmul_sparse_i(&x, &sp)
                .unwrap()
                .as_slice()
                .iter()
                .enumerate()
                .map(|(i, &v)| epi(v, i % n))
                .collect();
            for threads in [1, 2, 4] {
                let mut out = vec![0i32; m * n];
                with_threads(threads, || {
                    spmm_fused_into(x.as_slice(), m, &sp, &cols, &epi, &mut out).unwrap();
                });
                assert_eq!(out, expect, "m={m} k={k} n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn fused_conv_matches_unfused_plus_map() {
        use crate::packed::conv2d_i32_packed;
        let cases = [
            ([2, 3, 7, 7], [5, 3, 3, 3], Conv2dSpec::new(1, 1)),
            ([1, 2, 8, 8], [3, 2, 3, 3], Conv2dSpec::new(2, 1)),
            ([2, 4, 6, 6], [4, 1, 3, 3], Conv2dSpec::new(1, 1).with_groups(4)),
        ];
        for (xd, wdim, spec) in cases {
            let x = pseudo_i(&xd, 31, 255);
            let w = pseudo_i(&wdim, 37, 255);
            let packed = PackedConv::from_weight(&w, spec.groups).unwrap();
            let plain = conv2d_i32_packed(&x, &packed, spec).unwrap();
            let (oc, l) = (plain.dim(1), plain.dim(2) * plain.dim(3));
            let expect: Vec<i32> =
                plain.as_slice().iter().enumerate().map(|(i, &v)| epi(v, (i / l) % oc)).collect();
            for threads in [1, 3] {
                let mut out = vec![0i32; plain.numel()];
                let dims = with_threads(threads, || {
                    conv2d_fused_into(&x, &packed, spec, &epi, &mut out).unwrap()
                });
                assert_eq!(&dims[..], plain.dims());
                assert_eq!(out, expect, "threads={threads}");
            }
        }
    }

    #[test]
    fn fused_entry_points_reject_bad_shapes() {
        let w = pseudo_i(&[8, 5], 1, 10);
        let packed = PackedMat::from_weight(&w).unwrap();
        let mut out = vec![0i32; 16];
        // Activation length disagrees with rows * k.
        assert!(gemm_fused_into(&[0i32; 9], 2, &packed, &|a, _| a, &mut out).is_err());
        // Output length disagrees with rows * n.
        assert!(gemm_fused_into(&[0i32; 10], 2, &packed, &|a, _| a, &mut [0i32; 3]).is_err());

        let sp = SparseMat::from_dense(&w).unwrap();
        let cols = sp.col_indices();
        assert!(spmm_fused_into(&[0i32; 9], 2, &sp, &cols, &|a, _| a, &mut out).is_err());
        assert!(spmm_fused_into(&[0i32; 10], 2, &sp, &cols[1..], &|a, _| a, &mut out).is_err());
    }
}
