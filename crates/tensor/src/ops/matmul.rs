//! Matrix multiplication for the float (training) and integer (inference)
//! domains.
//!
//! Both kernels parallelize over contiguous blocks of output rows (see
//! [`crate::parallel`]); each worker owns a disjoint row range and the
//! per-element accumulation order never changes, so results are
//! bit-identical to the sequential kernels at any thread count.

use crate::fused::RowChannels;
use crate::isa::{dispatch, isa, Kernel};
use crate::ops::require_rank;
use crate::parallel::par_units;
use crate::{Result, Tensor, TensorError};

/// Tile edge for the blocked f32 kernel; chosen so three tiles fit in L1.
/// Also the panel width of the packed integer layout ([`crate::packed`]).
pub(crate) const BLOCK: usize = 64;

impl Tensor<f32> {
    /// Matrix product of two rank-2 tensors: `[m, k] × [k, n] → [m, n]`.
    ///
    /// # Errors
    ///
    /// Returns an error if either operand is not rank 2 or the inner
    /// dimensions disagree.
    ///
    /// ```
    /// use t2c_tensor::Tensor;
    /// # fn main() -> Result<(), t2c_tensor::TensorError> {
    /// let a = Tensor::from_vec(vec![1.0_f32, 2.0, 3.0, 4.0], &[2, 2])?;
    /// let i = Tensor::from_vec(vec![1.0_f32, 0.0, 0.0, 1.0], &[2, 2])?;
    /// assert_eq!(a.matmul(&i)?.as_slice(), a.as_slice());
    /// # Ok(())
    /// # }
    /// ```
    pub fn matmul(&self, other: &Tensor<f32>) -> Result<Tensor<f32>> {
        require_rank(self, 2, "matmul")?;
        require_rank(other, 2, "matmul")?;
        let (m, k) = (self.dim(0), self.dim(1));
        let (k2, n) = (other.dim(0), other.dim(1));
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
                op: "matmul",
            });
        }
        let _t = t2c_obs::Timer::scoped("kernel.matmul_f32.time_ns");
        record_matmul("kernel.matmul_f32", 1, m, k, n, 4);
        let mut out = vec![0f32; m * n];
        let a = self.as_slice();
        let b = other.as_slice();
        par_units(&mut out, n, |row0, run| {
            let rows = run.len() / n;
            matmul_f32_into(&a[row0 * k..(row0 + rows) * k], b, run, rows, k, n);
        });
        Tensor::from_vec(out, &[m, n])
    }

    /// Batched matrix product of two rank-3 tensors:
    /// `[b, m, k] × [b, k, n] → [b, m, n]`.
    ///
    /// # Errors
    ///
    /// Returns an error on rank or dimension mismatch.
    pub fn bmm(&self, other: &Tensor<f32>) -> Result<Tensor<f32>> {
        require_rank(self, 3, "bmm")?;
        require_rank(other, 3, "bmm")?;
        let (b, m, k) = (self.dim(0), self.dim(1), self.dim(2));
        let (b2, k2, n) = (other.dim(0), other.dim(1), other.dim(2));
        if b != b2 || k != k2 {
            return Err(TensorError::ShapeMismatch {
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
                op: "bmm",
            });
        }
        let _t = t2c_obs::Timer::scoped("kernel.bmm_f32.time_ns");
        record_matmul("kernel.bmm_f32", b, m, k, n, 4);
        let mut out = vec![0f32; b * m * n];
        let lhs = self.as_slice();
        let rhs = other.as_slice();
        par_units(&mut out, m * n, |b0, run| {
            for (bi, obatch) in run.chunks_mut(m * n).enumerate() {
                let i = b0 + bi;
                matmul_f32_into(
                    &lhs[i * m * k..(i + 1) * m * k],
                    &rhs[i * k * n..(i + 1) * k * n],
                    obatch,
                    m,
                    k,
                    n,
                );
            }
        });
        Tensor::from_vec(out, &[b, m, n])
    }
}

impl Tensor<i32> {
    /// Integer matrix product with 64-bit accumulation, saturated back to
    /// `i32` — the behaviour of a wide-accumulator MAC array.
    ///
    /// # Errors
    ///
    /// Returns an error if either operand is not rank 2 or the inner
    /// dimensions disagree.
    pub fn matmul_i(&self, other: &Tensor<i32>) -> Result<Tensor<i32>> {
        require_rank(self, 2, "matmul_i")?;
        require_rank(other, 2, "matmul_i")?;
        let (m, k) = (self.dim(0), self.dim(1));
        let (k2, n) = (other.dim(0), other.dim(1));
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
                op: "matmul_i",
            });
        }
        let _t = t2c_obs::Timer::scoped("kernel.matmul_i32.time_ns");
        record_matmul("kernel.matmul_i32", 1, m, k, n, 4);
        let a = self.as_slice();
        let b = other.as_slice();
        let mut out = vec![0i32; m * n];
        par_units(&mut out, n, |row0, run| {
            let rows = run.len() / n;
            matmul_i32_sat_into(&a[row0 * k..(row0 + rows) * k], b, run, rows, k, n);
        });
        Tensor::from_vec(out, &[m, n])
    }

    /// Batched integer matrix product, `[b, m, k] × [b, k, n] → [b, m, n]`.
    ///
    /// # Errors
    ///
    /// Returns an error on rank or dimension mismatch.
    pub fn bmm_i(&self, other: &Tensor<i32>) -> Result<Tensor<i32>> {
        require_rank(self, 3, "bmm_i")?;
        require_rank(other, 3, "bmm_i")?;
        let (b, m, k) = (self.dim(0), self.dim(1), self.dim(2));
        let (b2, k2, n) = (other.dim(0), other.dim(1), other.dim(2));
        if b != b2 || k != k2 {
            return Err(TensorError::ShapeMismatch {
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
                op: "bmm_i",
            });
        }
        let mut out = vec![0i32; b * m * n];
        let identity = |_: &mut [i32], _| {};
        bmm_i32_sat_into(
            self.as_slice(),
            other.as_slice(),
            [b, m, k, n],
            false,
            &identity,
            &mut out,
        )?;
        Tensor::from_vec(out, &[b, m, n])
    }
}

/// Records call/MAC/byte counters for a (batched) `[m,k]×[k,n]` product.
/// One branch when profiling is disabled.
fn record_matmul(op: &str, batches: usize, m: usize, k: usize, n: usize, elem_bytes: usize) {
    if t2c_obs::enabled() {
        let b = batches as u64;
        let (m, k, n) = (m as u64, k as u64, n as u64);
        t2c_obs::counter_add(&format!("{op}.calls"), 1);
        t2c_obs::counter_add(&format!("{op}.macs"), b * m * k * n);
        t2c_obs::counter_add(&format!("{op}.elements"), b * m * n);
        t2c_obs::counter_add(
            &format!("{op}.bytes"),
            b * (m * k + k * n + m * n) * elem_bytes as u64,
        );
    }
}

/// Blocked `[m,k] × [k,n]` f32 kernel writing into a caller-provided buffer.
///
/// No zero-skip here: `0.0 × inf` and `0.0 × NaN` must propagate `NaN` so
/// the float reference stays IEEE-faithful for the dual-path divergence
/// audit. Only the integer kernel (where zero products are exact no-ops
/// under per-MAC saturation) models PE gating by skipping.
pub(crate) fn matmul_f32_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    for ib in (0..m).step_by(BLOCK) {
        let i_end = (ib + BLOCK).min(m);
        for pb in (0..k).step_by(BLOCK) {
            let p_end = (pb + BLOCK).min(k);
            for i in ib..i_end {
                let arow = &a[i * k..(i + 1) * k];
                let orow = &mut out[i * n..(i + 1) * n];
                for p in pb..p_end {
                    let av = arow[p];
                    let brow = &b[p * n..(p + 1) * n];
                    for j in 0..n {
                        orow[j] += av * brow[j];
                    }
                }
            }
        }
    }
}

/// `[m,k] × [k,n]` integer kernel with 64-bit accumulation saturated to
/// `i32` after every MAC — the behaviour of a wide-accumulator MAC array.
/// Shared by [`Tensor::matmul_i`], [`Tensor::bmm_i`] and
/// [`crate::ops::conv2d_i32`]; zero weights are skipped, which models (and
/// benchmarks) sparsity-aware PE gating.
#[inline(always)]
pub(crate) fn matmul_i32_sat_into(
    a: &[i32],
    b: &[i32],
    out: &mut [i32],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for p in 0..k {
            let av = arow[p] as i64;
            if av == 0 {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            for j in 0..n {
                let acc = orow[j] as i64 + av * brow[j] as i64;
                orow[j] = acc.clamp(i32::MIN as i64, i32::MAX as i64) as i32;
            }
        }
    }
}

/// Batched saturating integer product with a fused epilogue, into a
/// caller-provided buffer — the kernel behind [`Tensor::bmm_i`] (which
/// passes the identity epilogue) and the compiled plans' `Bmm` step (which
/// passes its requantizer and runs straight into its arena). `a` is
/// `[batches, m, k]`; `b` is `[batches, k, n]`, or `[batches, n, k]` with
/// `transpose_rhs` (multiplied as its per-batch transpose); `out` receives
/// `[batches, m, n]` (prior contents are ignored).
///
/// Every output element accumulates `a[i, p] · b[p, j]` with `p`
/// ascending, the `i64 → i32` clamp after every MAC and zero activations
/// skipped, so the transposed form — dot products over the rows of `b` —
/// is bit-identical to permuting `b` first. A batch's product carries no
/// channel axis: each finished `[m, n]` batch matrix is handed to
/// `epi(batch, RowChannels::One(0))`, which must rewrite every value as a
/// pure function of that value. Parallel over batches; each worker's
/// batches run the body compiled for the calling thread's
/// [`crate::isa::isa`], and the result is bit-identical at any thread
/// count and under either ISA. Performs no heap allocation when the
/// resolved worker count is 1.
///
/// # Errors
///
/// Returns an error if `a`, `b` or `out` disagree with the dimensions.
pub fn bmm_i32_sat_into<E>(
    a: &[i32],
    b: &[i32],
    [batches, m, k, n]: [usize; 4],
    transpose_rhs: bool,
    epi: &E,
    out: &mut [i32],
) -> Result<()>
where
    E: Fn(&mut [i32], RowChannels) + Sync,
{
    if a.len() != batches * m * k || b.len() != batches * k * n || out.len() != batches * m * n {
        return Err(TensorError::InvalidArgument(format!(
            "bmm_i32_sat_into: {} / {} / {} values do not form [{batches}, {m}, {k}] x \
             [{batches}, {k}, {n}] -> [{batches}, {m}, {n}]",
            a.len(),
            b.len(),
            out.len()
        )));
    }
    let _t = t2c_obs::Timer::scoped("kernel.bmm_i32.time_ns");
    record_matmul("kernel.bmm_i32", batches, m, k, n, 4);
    if out.is_empty() {
        return Ok(());
    }
    let isa = isa();
    par_units(out, m * n, |b0, run| {
        let (a, b) = (&a[b0 * m * k..], &b[b0 * k * n..]);
        dispatch(isa, BmmBatches { a, b, mkn: [m, k, n], transpose_rhs, epi, run });
    });
    Ok(())
}

/// The batches behind [`bmm_i32_sat_into`]: the `[m, k]` × `[k, n]`
/// products at the heads of `a` and `b` into the `[m, n]` matrices of
/// `run`, each handed to `epi` when finished.
struct BmmBatches<'a, E> {
    a: &'a [i32],
    b: &'a [i32],
    mkn: [usize; 3],
    transpose_rhs: bool,
    epi: &'a E,
    run: &'a mut [i32],
}

impl<E: Fn(&mut [i32], RowChannels)> Kernel for BmmBatches<'_, E> {
    type Out = ();

    #[inline(always)]
    fn run(self) {
        let BmmBatches { a, b, mkn: [m, k, n], transpose_rhs, epi, run } = self;
        for (i, obatch) in run.chunks_mut(m * n).enumerate() {
            let (lhs, rhs) = (&a[i * m * k..(i + 1) * m * k], &b[i * k * n..(i + 1) * k * n]);
            if transpose_rhs {
                for (e, o) in obatch.iter_mut().enumerate() {
                    let (arow, brow) = (&lhs[(e / n) * k..][..k], &rhs[(e % n) * k..][..k]);
                    let mut acc = 0i32;
                    for (&av, &bv) in arow.iter().zip(brow) {
                        if av != 0 {
                            let v = i64::from(acc) + i64::from(av) * i64::from(bv);
                            acc = v.clamp(i64::from(i32::MIN), i64::from(i32::MAX)) as i32;
                        }
                    }
                    *o = acc;
                }
            } else {
                obatch.fill(0);
                matmul_i32_sat_into(lhs, rhs, obatch, m, k, n);
            }
            epi(obatch, RowChannels::One(0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![1.0_f32, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0_f32, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_rejects_bad_inner_dim() {
        let a = Tensor::<f32>::zeros(&[2, 3]);
        let b = Tensor::<f32>::zeros(&[4, 2]);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn matmul_blocked_matches_naive_on_odd_sizes() {
        // Sizes straddling the block edge exercise the tiling logic.
        let m = 67;
        let k = 65;
        let n = 3;
        let a = Tensor::from_fn(&[m, k], |i| ((i * 2654435761) % 17) as f32 - 8.0);
        let b = Tensor::from_fn(&[k, n], |i| ((i * 2246822519) % 13) as f32 - 6.0);
        let c = a.matmul(&b).unwrap();
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a.at(&[i, p]) * b.at(&[p, j]);
                }
                assert!((c.at(&[i, j]) - acc).abs() < 1e-3, "mismatch at ({i},{j})");
            }
        }
    }

    #[test]
    fn float_matmul_propagates_nan_from_zero_times_inf() {
        // Regression: the old kernel skipped av == 0.0, silently turning
        // 0.0 × inf into a 0 contribution instead of NaN.
        let a = Tensor::from_vec(vec![0.0_f32, 1.0], &[1, 2]).unwrap();
        let b = Tensor::from_vec(vec![f32::INFINITY, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert!(c.as_slice()[0].is_nan(), "0·inf must contribute NaN, got {}", c.as_slice()[0]);
        assert_eq!(c.as_slice()[1], 4.0);
    }

    #[test]
    fn integer_matmul_matches_float_on_small_ints() {
        let a = Tensor::from_fn(&[5, 7], |i| (i as i32 % 11) - 5);
        let b = Tensor::from_fn(&[7, 4], |i| (i as i32 % 7) - 3);
        let ci = a.matmul_i(&b).unwrap();
        let cf = a.to_f32().matmul(&b.to_f32()).unwrap();
        for (x, y) in ci.as_slice().iter().zip(cf.as_slice()) {
            assert_eq!(*x as f32, *y);
        }
    }

    #[test]
    fn integer_matmul_saturates_instead_of_wrapping() {
        let a = Tensor::from_vec(vec![i32::MAX, i32::MAX], &[1, 2]).unwrap();
        let b = Tensor::from_vec(vec![1, 1], &[2, 1]).unwrap();
        let c = a.matmul_i(&b).unwrap();
        assert_eq!(c.as_slice(), &[i32::MAX]);
    }

    #[test]
    fn bmm_matches_per_batch_matmul() {
        let a = Tensor::from_fn(&[2, 3, 4], |i| i as f32 * 0.5 - 3.0);
        let b = Tensor::from_fn(&[2, 4, 2], |i| i as f32 * 0.25 - 1.0);
        let c = a.bmm(&b).unwrap();
        for batch in 0..2 {
            let ab = a.index_axis0(batch).unwrap();
            let bb = b.index_axis0(batch).unwrap();
            let cb = ab.matmul(&bb).unwrap();
            assert_eq!(c.index_axis0(batch).unwrap().as_slice(), cb.as_slice());
        }
    }

    #[test]
    fn bmm_into_matches_per_batch_matmul_plain_and_transposed() {
        use crate::isa::{isa, with_isa, Isa};
        use crate::parallel::with_threads;
        for (bs, m, k, n) in [(1, 1, 1, 1), (3, 5, 7, 4), (4, 9, 16, 9)] {
            // int8 range, and magnitudes that drive the clamp mid-chain.
            for span in [255i64, 1 << 30] {
                let draw = |len: usize, salt: usize| {
                    (0..len)
                        .map(move |i| ((i * 2_654_435_761 + salt) as i64 % span - span / 2) as i32)
                };
                let x = Tensor::from_vec(draw(bs * m * k, 3).collect(), &[bs, m, k]).unwrap();
                let y = Tensor::from_vec(draw(bs * k * n, 5).collect(), &[bs, k, n]).unwrap();
                // A value-tagging epilogue, so a batch handed over twice or
                // not at all shows in the output.
                let tag = |v: i32| v.wrapping_mul(3) ^ 1;
                let epi = |run: &mut [i32], chans| {
                    assert_eq!(chans, RowChannels::One(0), "bmm outputs carry no channel axis");
                    run.iter_mut().for_each(|v| *v = tag(*v));
                };
                let want: Vec<i32> = (0..bs)
                    .flat_map(|i| {
                        let (xb, yb) = (x.index_axis0(i).unwrap(), y.index_axis0(i).unwrap());
                        xb.matmul_i(&yb).unwrap().as_slice().to_vec()
                    })
                    .map(tag)
                    .collect();
                let yt = y.permute(&[0, 2, 1]).unwrap();
                for (rhs, transpose) in [(&y, false), (&yt, true)] {
                    for (isa, threads) in [Isa::Scalar, isa()].map(|i| [(i, 1), (i, 2)]).concat() {
                        let mut out = vec![-1i32; bs * m * n];
                        let dims = [bs, m, k, n];
                        let run = || {
                            bmm_i32_sat_into(
                                x.as_slice(),
                                rhs.as_slice(),
                                dims,
                                transpose,
                                &epi,
                                &mut out,
                            )
                        };
                        with_isa(isa, || with_threads(threads, run)).unwrap();
                        assert_eq!(out, want, "{bs}x{m}x{k}x{n} transpose={transpose} {isa}");
                    }
                }
            }
        }
        let identity = |_: &mut [i32], _| {};
        assert!(bmm_i32_sat_into(&[0; 6], &[0; 6], [1, 2, 3, 2], false, &identity, &mut [0; 3])
            .is_err());
    }

    #[test]
    fn bmm_i_matches_per_batch() {
        let a = Tensor::from_fn(&[2, 2, 3], |i| i as i32 - 5);
        let b = Tensor::from_fn(&[2, 3, 2], |i| i as i32 - 4);
        let c = a.bmm_i(&b).unwrap();
        for batch in 0..2 {
            let cb =
                a.index_axis0(batch).unwrap().matmul_i(&b.index_axis0(batch).unwrap()).unwrap();
            assert_eq!(c.index_axis0(batch).unwrap().as_slice(), cb.as_slice());
        }
    }
}
