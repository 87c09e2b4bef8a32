//! # t2c-tensor
//!
//! A compact, dependency-light n-dimensional tensor library that serves as
//! the computational substrate for the Torch2Chip toolkit.
//!
//! The design goals, in order:
//!
//! 1. **Correctness** — every operation is written against an explicit
//!    row-major contiguous layout, with shape checking at the boundaries.
//! 2. **Completeness for DNN workloads** — broadcasting elementwise ops,
//!    matrix multiplication, grouped 2-D convolution (with the im2col
//!    machinery exposed for the autograd backward passes), pooling and
//!    reductions cover everything the CNN / ViT model zoo requires.
//! 3. **Dual-domain arithmetic** — the same containers hold `f32` tensors
//!    (training path) and `i32` tensors (integer-only inference path), which
//!    is the heart of Torch2Chip's "Dual-Path" design.
//!
//! ## Example
//!
//! ```
//! use t2c_tensor::Tensor;
//!
//! # fn main() -> Result<(), t2c_tensor::TensorError> {
//! let a = Tensor::from_vec(vec![1.0_f32, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::full(&[2, 2], 10.0_f32);
//! let c = a.add(&b)?;
//! assert_eq!(c.as_slice(), &[11.0, 12.0, 13.0, 14.0]);
//! # Ok(())
//! # }
//! ```
//!
//! ## Unsafe code
//!
//! The crate is safe Rust except for one call: entering the AVX2
//! instantiation of an integer kernel body (see [`isa`](mod@isa)). Calling a
//! `#[target_feature(enable = "avx2")]` function needs `unsafe`, and its
//! only requirement is that the CPU has AVX2, which runtime detection has
//! confirmed before the call. The workspace lint `unsafe_code = "deny"`
//! holds everywhere else in the crate; `isa::dispatch` is the single
//! item that allows it. Every other crate of the workspace forbids
//! `unsafe` outright.

#![warn(missing_docs)]

mod error;
mod shape;
mod tensor;

pub mod fused;
pub mod isa;
pub mod ops;
pub mod packed;
pub mod parallel;
pub mod rng;
pub mod sparse;

pub use error::TensorError;
pub use fused::{conv2d_fused_into, gemm_fused_into, spmm_fused_into, ConvWeight, RowChannels};
pub use isa::{isa, with_isa, Isa};
pub use packed::PackedMat;
pub use parallel::{num_threads, set_num_threads, with_threads};
pub use shape::Shape;
pub use sparse::{matmul_sparse_i, SparseEncoding, SparseError, SparseMat};
pub use tensor::{Element, Tensor};

/// Convenience alias for the crate's `Result`.
pub type Result<T> = std::result::Result<T, TensorError>;
