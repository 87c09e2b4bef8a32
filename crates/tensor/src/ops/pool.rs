//! 2-D pooling with the index bookkeeping the autograd backward passes need.

use crate::ops::require_rank;
use crate::parallel::{par_units, par_units2};
use crate::{Result, Tensor, TensorError};

/// Geometry of a 2-D pooling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PoolSpec {
    /// Window edge length.
    pub kernel: usize,
    /// Stride along both spatial axes.
    pub stride: usize,
    /// Zero padding (average pooling counts padding as zeros outside the
    /// divisor; max pooling ignores padded positions).
    pub padding: usize,
}

impl PoolSpec {
    /// A square window with `stride == kernel` (non-overlapping).
    pub fn new(kernel: usize) -> Self {
        PoolSpec { kernel, stride: kernel, padding: 0 }
    }

    /// Output spatial extent for an input extent `h`.
    ///
    /// # Errors
    ///
    /// Returns an error if the kernel or stride is zero, or the window
    /// does not fit in the padded input.
    pub fn out_extent(&self, h: usize) -> Result<usize> {
        if self.stride == 0 || self.kernel == 0 {
            return Err(TensorError::InvalidGeometry("pool kernel/stride must be nonzero".into()));
        }
        let padded = h + 2 * self.padding;
        if self.kernel > padded {
            return Err(TensorError::InvalidGeometry(format!(
                "pool kernel {} larger than padded input {padded}",
                self.kernel
            )));
        }
        Ok((padded - self.kernel) / self.stride + 1)
    }
}

/// Max pooling over `[N,C,H,W]`, returning the pooled tensor and the flat
/// source index of each maximum (for the backward pass).
///
/// # Errors
///
/// Returns an error if `x` is not rank 4 or the geometry is invalid.
pub fn max_pool2d(x: &Tensor<f32>, spec: PoolSpec) -> Result<(Tensor<f32>, Tensor<usize>)> {
    require_rank(x, 4, "max_pool2d")?;
    let (n, c, h, w) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
    let oh = spec.out_extent(h)?;
    let ow = spec.out_extent(w)?;
    let _t = t2c_obs::Timer::scoped("kernel.max_pool2d.time_ns");
    if t2c_obs::enabled() {
        t2c_obs::counter_add("kernel.max_pool2d.calls", 1);
        t2c_obs::counter_add("kernel.max_pool2d.elements", (n * c * oh * ow) as u64);
        t2c_obs::counter_add("kernel.max_pool2d.bytes", ((x.numel() + n * c * oh * ow) * 4) as u64);
    }
    let mut out = Tensor::<f32>::zeros(&[n, c, oh, ow]);
    let mut arg = Tensor::<usize>::zeros(&[n, c, oh, ow]);
    let xs = x.as_slice();
    let l = oh * ow;
    // One unit per (image, channel) plane; values and argmax stay paired.
    par_units2(out.as_mut_slice(), arg.as_mut_slice(), l, l, |p0, orun, arun| {
        for (i, (oplane, aplane)) in orun.chunks_mut(l).zip(arun.chunks_mut(l)).enumerate() {
            let base = (p0 + i) * h * w;
            let mut o = 0usize;
            for oi in 0..oh {
                for oj in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = base;
                    for ki in 0..spec.kernel {
                        let ii = (oi * spec.stride + ki) as isize - spec.padding as isize;
                        if ii < 0 || ii as usize >= h {
                            continue;
                        }
                        for kj in 0..spec.kernel {
                            let jj = (oj * spec.stride + kj) as isize - spec.padding as isize;
                            if jj < 0 || jj as usize >= w {
                                continue;
                            }
                            let idx = base + ii as usize * w + jj as usize;
                            if xs[idx] > best {
                                best = xs[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    oplane[o] = best;
                    aplane[o] = best_idx;
                    o += 1;
                }
            }
        }
    });
    Ok((out, arg))
}

/// Scatters pooled gradients back to the max positions recorded by
/// [`max_pool2d`].
///
/// # Errors
///
/// Returns an error if `grad` and `argmax` shapes disagree.
pub fn max_pool2d_backward(
    grad: &Tensor<f32>,
    argmax: &Tensor<usize>,
    input_dims: &[usize],
) -> Result<Tensor<f32>> {
    if grad.shape() != argmax.shape() {
        return Err(TensorError::ShapeMismatch {
            lhs: grad.dims().to_vec(),
            rhs: argmax.dims().to_vec(),
            op: "max_pool2d_backward",
        });
    }
    let mut out = Tensor::<f32>::zeros(input_dims);
    let os = out.as_mut_slice();
    for (g, &idx) in grad.as_slice().iter().zip(argmax.as_slice()) {
        os[idx] += g;
    }
    Ok(out)
}

/// Average pooling over `[N,C,H,W]`. The divisor is always `kernel²`
/// (count-includes-padding), matching the integer-friendly hardware variant.
///
/// # Errors
///
/// Returns an error if `x` is not rank 4 or the geometry is invalid.
pub fn avg_pool2d(x: &Tensor<f32>, spec: PoolSpec) -> Result<Tensor<f32>> {
    require_rank(x, 4, "avg_pool2d")?;
    let (n, c, h, w) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
    let oh = spec.out_extent(h)?;
    let ow = spec.out_extent(w)?;
    let inv = 1.0 / (spec.kernel * spec.kernel) as f32;
    let _t = t2c_obs::Timer::scoped("kernel.avg_pool2d.time_ns");
    if t2c_obs::enabled() {
        t2c_obs::counter_add("kernel.avg_pool2d.calls", 1);
        t2c_obs::counter_add("kernel.avg_pool2d.elements", (n * c * oh * ow) as u64);
        t2c_obs::counter_add("kernel.avg_pool2d.bytes", ((x.numel() + n * c * oh * ow) * 4) as u64);
    }
    let mut out = Tensor::<f32>::zeros(&[n, c, oh, ow]);
    let xs = x.as_slice();
    let l = oh * ow;
    par_units(out.as_mut_slice(), l, |p0, run| {
        for (i, oplane) in run.chunks_mut(l).enumerate() {
            let base = (p0 + i) * h * w;
            let mut o = 0usize;
            for oi in 0..oh {
                for oj in 0..ow {
                    let mut acc = 0.0;
                    for ki in 0..spec.kernel {
                        let ii = (oi * spec.stride + ki) as isize - spec.padding as isize;
                        if ii < 0 || ii as usize >= h {
                            continue;
                        }
                        for kj in 0..spec.kernel {
                            let jj = (oj * spec.stride + kj) as isize - spec.padding as isize;
                            if jj < 0 || jj as usize >= w {
                                continue;
                            }
                            acc += xs[base + ii as usize * w + jj as usize];
                        }
                    }
                    oplane[o] = acc * inv;
                    o += 1;
                }
            }
        }
    });
    Ok(out)
}

/// Backward of [`avg_pool2d`]: spreads each output gradient uniformly over
/// its window.
///
/// # Errors
///
/// Returns an error if `grad` is not rank 4 or geometry is invalid.
pub fn avg_pool2d_backward(
    grad: &Tensor<f32>,
    input_dims: &[usize],
    spec: PoolSpec,
) -> Result<Tensor<f32>> {
    require_rank(grad, 4, "avg_pool2d_backward")?;
    let (n, c, h, w) = (input_dims[0], input_dims[1], input_dims[2], input_dims[3]);
    let oh = grad.dim(2);
    let ow = grad.dim(3);
    let inv = 1.0 / (spec.kernel * spec.kernel) as f32;
    let mut out = Tensor::<f32>::zeros(input_dims);
    let os = out.as_mut_slice();
    let gs = grad.as_slice();
    let mut gi = 0usize;
    for img in 0..n {
        for ch in 0..c {
            let base = (img * c + ch) * h * w;
            for oi in 0..oh {
                for oj in 0..ow {
                    let g = gs[gi] * inv;
                    gi += 1;
                    for ki in 0..spec.kernel {
                        let ii = (oi * spec.stride + ki) as isize - spec.padding as isize;
                        if ii < 0 || ii as usize >= h {
                            continue;
                        }
                        for kj in 0..spec.kernel {
                            let jj = (oj * spec.stride + kj) as isize - spec.padding as isize;
                            if jj < 0 || jj as usize >= w {
                                continue;
                            }
                            os[base + ii as usize * w + jj as usize] += g;
                        }
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Global average pooling `[N,C,H,W] → [N,C]`.
///
/// # Errors
///
/// Returns an error if `x` is not rank 4.
pub fn global_avg_pool2d(x: &Tensor<f32>) -> Result<Tensor<f32>> {
    require_rank(x, 4, "global_avg_pool2d")?;
    let (n, c, h, w) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
    let inv = 1.0 / (h * w) as f32;
    let mut out = Tensor::<f32>::zeros(&[n, c]);
    let xs = x.as_slice();
    for img in 0..n {
        for ch in 0..c {
            let base = (img * c + ch) * h * w;
            let sum: f32 = xs[base..base + h * w].iter().sum();
            out.as_mut_slice()[img * c + ch] = sum * inv;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_pool_2x2() {
        let x = Tensor::from_vec(
            vec![
                1.0_f32, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0,
                15.0, 16.0,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let (y, arg) = max_pool2d(&x, PoolSpec::new(2)).unwrap();
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[6.0, 8.0, 14.0, 16.0]);
        assert_eq!(arg.as_slice(), &[5, 7, 13, 15]);
    }

    #[test]
    fn max_pool_backward_scatters_to_argmax() {
        let x = Tensor::from_vec(vec![1.0_f32, 5.0, 2.0, 3.0], &[1, 1, 2, 2]).unwrap();
        let (_, arg) = max_pool2d(&x, PoolSpec::new(2)).unwrap();
        let grad = Tensor::from_vec(vec![10.0_f32], &[1, 1, 1, 1]).unwrap();
        let gx = max_pool2d_backward(&grad, &arg, &[1, 1, 2, 2]).unwrap();
        assert_eq!(gx.as_slice(), &[0.0, 10.0, 0.0, 0.0]);
    }

    #[test]
    fn avg_pool_2x2() {
        let x = Tensor::from_vec(vec![1.0_f32, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let y = avg_pool2d(&x, PoolSpec::new(2)).unwrap();
        assert_eq!(y.as_slice(), &[2.5]);
    }

    #[test]
    fn avg_pool_backward_spreads_uniformly() {
        let grad = Tensor::from_vec(vec![4.0_f32], &[1, 1, 1, 1]).unwrap();
        let gx = avg_pool2d_backward(&grad, &[1, 1, 2, 2], PoolSpec::new(2)).unwrap();
        assert_eq!(gx.as_slice(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn global_avg_pool_means_channels() {
        let x = Tensor::from_vec(vec![1.0_f32, 3.0, 5.0, 7.0, 2.0, 2.0, 2.0, 2.0], &[1, 2, 2, 2])
            .unwrap();
        let y = global_avg_pool2d(&x).unwrap();
        assert_eq!(y.dims(), &[1, 2]);
        assert_eq!(y.as_slice(), &[4.0, 2.0]);
    }

    #[test]
    fn pool_geometry_errors() {
        let x = Tensor::<f32>::zeros(&[1, 1, 2, 2]);
        assert!(max_pool2d(&x, PoolSpec { kernel: 5, stride: 1, padding: 0 }).is_err());
        assert!(avg_pool2d(&x, PoolSpec { kernel: 0, stride: 1, padding: 0 }).is_err());
    }
}
