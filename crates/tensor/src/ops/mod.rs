//! Tensor operations: broadcasting elementwise arithmetic, matrix
//! multiplication, grouped 2-D convolution, pooling and reductions.
//!
//! Floating-point operations live on `Tensor<f32>`; the integer twins used by
//! Torch2Chip's inference path live on `Tensor<i32>`.

mod conv;
mod elementwise;
mod matmul;
mod pool;
mod reduce;

pub use conv::{col2im, conv2d, conv2d_i32, im2col, Conv2dSpec};
pub use matmul::bmm_i32_sat_into;
pub(crate) use matmul::{matmul_i32_sat_into, BLOCK};
pub use pool::{
    avg_pool2d, avg_pool2d_backward, global_avg_pool2d, max_pool2d, max_pool2d_backward, PoolSpec,
};

use crate::{Element, Result, Shape, Tensor, TensorError};

/// Combines two tensors elementwise under NumPy broadcasting rules.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the shapes do not broadcast.
///
/// ```
/// use t2c_tensor::{ops, Tensor};
/// # fn main() -> Result<(), t2c_tensor::TensorError> {
/// let a = Tensor::from_vec(vec![1.0_f32, 2.0], &[2, 1])?;
/// let b = Tensor::from_vec(vec![10.0_f32, 20.0, 30.0], &[3])?;
/// let c = ops::broadcast_zip(&a, &b, |x, y| x * y)?;
/// assert_eq!(c.dims(), &[2, 3]);
/// assert_eq!(c.as_slice(), &[10.0, 20.0, 30.0, 20.0, 40.0, 60.0]);
/// # Ok(())
/// # }
/// ```
pub fn broadcast_zip<T: Element, U: Element, V: Element>(
    a: &Tensor<T>,
    b: &Tensor<U>,
    f: impl Fn(T, U) -> V,
) -> Result<Tensor<V>> {
    // Fast path: identical shapes.
    if a.shape() == b.shape() {
        let data = a.as_slice().iter().zip(b.as_slice()).map(|(&x, &y)| f(x, y)).collect();
        return Tensor::from_vec(data, a.dims());
    }
    // Fast path: scalar on either side.
    if b.numel() == 1 {
        let y = b.as_slice()[0];
        return Ok(a.map(|x| f(x, y)));
    }
    if a.numel() == 1 {
        let x = a.as_slice()[0];
        return Ok(b.map(|y| f(x, y)));
    }
    let out_shape = a.shape().broadcast(b.shape())?;
    let sa = a.shape().broadcast_strides(&out_shape)?;
    let sb = b.shape().broadcast_strides(&out_shape)?;
    let dims = out_shape.dims().to_vec();
    let numel = out_shape.numel();
    let mut data = Vec::with_capacity(numel);
    let mut idx = vec![0usize; dims.len()];
    let (da, db) = (a.as_slice(), b.as_slice());
    let mut off_a = 0usize;
    let mut off_b = 0usize;
    for _ in 0..numel {
        data.push(f(da[off_a], db[off_b]));
        // Increment the multi-index and the two strided offsets together.
        for axis in (0..dims.len()).rev() {
            idx[axis] += 1;
            off_a += sa[axis];
            off_b += sb[axis];
            if idx[axis] < dims[axis] {
                break;
            }
            off_a -= sa[axis] * dims[axis];
            off_b -= sb[axis] * dims[axis];
            idx[axis] = 0;
        }
    }
    Tensor::from_vec(data, &dims)
}

/// Sums `grad` (shaped like the broadcast output) back down to `shape`
/// (the original operand's shape) by accumulating over broadcast axes.
///
/// This is the adjoint of broadcasting and is used by the autograd engine.
///
/// # Errors
///
/// Returns an error if `shape` does not broadcast to `grad.shape()`.
pub fn reduce_to_shape(grad: &Tensor<f32>, shape: &Shape) -> Result<Tensor<f32>> {
    if grad.shape() == shape {
        return Ok(grad.clone());
    }
    let strides = shape.broadcast_strides(grad.shape())?;
    let dims = grad.dims();
    let mut out = vec![0f32; shape.numel()];
    let mut idx = vec![0usize; dims.len()];
    let mut off = 0usize;
    let g = grad.as_slice();
    for &gv in g {
        out[off] += gv;
        for axis in (0..dims.len()).rev() {
            idx[axis] += 1;
            off += strides[axis];
            if idx[axis] < dims[axis] {
                break;
            }
            off -= strides[axis] * dims[axis];
            idx[axis] = 0;
        }
    }
    Tensor::from_vec(out, shape.dims())
}

impl Tensor<f32> {
    /// Elementwise broadcasting addition.
    ///
    /// # Errors
    ///
    /// Returns an error if shapes do not broadcast.
    pub fn add(&self, other: &Tensor<f32>) -> Result<Tensor<f32>> {
        broadcast_zip(self, other, |a, b| a + b)
    }

    /// Elementwise broadcasting subtraction.
    ///
    /// # Errors
    ///
    /// Returns an error if shapes do not broadcast.
    pub fn sub(&self, other: &Tensor<f32>) -> Result<Tensor<f32>> {
        broadcast_zip(self, other, |a, b| a - b)
    }

    /// Elementwise broadcasting multiplication.
    ///
    /// # Errors
    ///
    /// Returns an error if shapes do not broadcast.
    pub fn mul(&self, other: &Tensor<f32>) -> Result<Tensor<f32>> {
        broadcast_zip(self, other, |a, b| a * b)
    }

    /// Elementwise broadcasting division.
    ///
    /// # Errors
    ///
    /// Returns an error if shapes do not broadcast.
    pub fn div(&self, other: &Tensor<f32>) -> Result<Tensor<f32>> {
        broadcast_zip(self, other, |a, b| a / b)
    }
}

/// Validates that a tensor has exactly rank `expected`.
pub(crate) fn require_rank<T: Element>(
    t: &Tensor<T>,
    expected: usize,
    op: &'static str,
) -> Result<()> {
    if t.rank() != expected {
        return Err(TensorError::RankMismatch { got: t.rank(), expected, op });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_zip_scalar_fast_path() {
        let a = Tensor::from_vec(vec![1.0_f32, 2.0, 3.0], &[3]).unwrap();
        let s = Tensor::scalar(2.0_f32);
        let c = broadcast_zip(&a, &s, |x, y| x * y).unwrap();
        assert_eq!(c.as_slice(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn broadcast_zip_row_and_column() {
        let col = Tensor::from_vec(vec![0.0_f32, 10.0], &[2, 1]).unwrap();
        let row = Tensor::from_vec(vec![1.0_f32, 2.0, 3.0], &[1, 3]).unwrap();
        let c = col.add(&row).unwrap();
        assert_eq!(c.dims(), &[2, 3]);
        assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0, 11.0, 12.0, 13.0]);
    }

    #[test]
    fn broadcast_zip_rejects_incompatible() {
        let a = Tensor::<f32>::zeros(&[2, 3]);
        let b = Tensor::<f32>::zeros(&[4]);
        assert!(a.add(&b).is_err());
    }

    #[test]
    fn reduce_to_shape_sums_broadcast_axes() {
        let grad = Tensor::from_vec(vec![1.0_f32; 6], &[2, 3]).unwrap();
        let reduced = reduce_to_shape(&grad, &Shape::new(&[1, 3])).unwrap();
        assert_eq!(reduced.as_slice(), &[2.0, 2.0, 2.0]);
        let reduced0 = reduce_to_shape(&grad, &Shape::new(&[2, 1])).unwrap();
        assert_eq!(reduced0.as_slice(), &[3.0, 3.0]);
    }

    #[test]
    fn reduce_to_shape_identity_when_same() {
        let grad = Tensor::from_vec(vec![1.0_f32, 2.0], &[2]).unwrap();
        let r = reduce_to_shape(&grad, &Shape::new(&[2])).unwrap();
        assert_eq!(r.as_slice(), grad.as_slice());
    }
}
