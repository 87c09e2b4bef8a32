//! The integer-only model IR — the paper's "deploy mode" (Figure 3c/4c).
//!
//! After fusion and extraction, a network is a graph of **vanilla integer
//! operations**: convolutions and matrix multiplies over integer tensors,
//! fixed-point [`MulQuant`] requantization, LUT non-linearities and integer
//! LayerNorm. No floating point exists anywhere in [`IntModel::run`] after
//! the initial input quantization — this is the property RTL verification
//! needs, and the export crate serializes exactly this structure.

use std::borrow::Cow;

use t2c_tensor::ops::{conv2d_i32, Conv2dSpec, PoolSpec};
use t2c_tensor::{matmul_sparse_i, SparseEncoding, SparseMat, Tensor, TensorError};

use crate::fixed::{round_shift, FixedScalar};
use crate::lut::{isqrt, GeluLut, SoftmaxLut};
use crate::mulquant::MulQuant;
use crate::qconfig::QuantSpec;
use crate::Result;

/// Where an op reads its operand from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Src {
    /// The model's (already quantized) input.
    Input,
    /// The output of a previous node.
    Node(usize),
}

/// Integer LayerNorm parameters (instant statistics, paper §3.2.2).
#[derive(Debug, Clone, PartialEq)]
pub struct LayerNormInt {
    /// Per-feature fixed-point multipliers `round(γ_j/(S_y·2^shift)·2^frac)`.
    pub gamma_m: Vec<i32>,
    /// Per-feature fixed-point biases `round(β_j/S_y·2^frac)`.
    pub beta_b: Vec<i64>,
    /// Fractional bits of the multipliers/biases.
    pub frac: u8,
    /// Extra precision bits given to the normalized value.
    pub shift: u8,
    /// Output grid.
    pub out_spec: QuantSpec,
}

impl LayerNormInt {
    /// Applies integer LayerNorm over the last axis.
    pub fn apply(&self, x: &Tensor<i32>) -> Tensor<i32> {
        let d = x.dim(x.rank() - 1);
        let mut out = Tensor::<i32>::zeros(x.dims());
        self.apply_into(x.as_slice(), d, out.as_mut_slice());
        out
    }

    /// The allocation-free core of [`LayerNormInt::apply`]: normalizes
    /// rows of `d` values from `xs` into `os` (compiled plans call this
    /// directly on arena slices).
    ///
    /// # Panics
    ///
    /// Panics if `xs`/`os` lengths disagree or the parameter vectors are
    /// shorter than `d`.
    pub(crate) fn apply_into(&self, xs: &[i32], d: usize, os: &mut [i32]) {
        assert_eq!(xs.len(), os.len());
        let rows = xs.len() / d.max(1);
        let (qmin, qmax) = (self.out_spec.qmin() as i64, self.out_spec.qmax() as i64);
        for r in 0..rows {
            let row = &xs[r * d..(r + 1) * d];
            let sum: i64 = row.iter().map(|&v| v as i64).sum();
            let mean = round_shift_div(sum, d as i64);
            let var: i64 = row
                .iter()
                .map(|&v| {
                    let c = v as i64 - mean;
                    c * c
                })
                .sum::<i64>()
                / d as i64;
            let std = isqrt(var).max(1);
            for j in 0..d {
                let c = row[j] as i64 - mean;
                let xhat = (c << self.shift) / std;
                let v = self.gamma_m[j] as i64 * xhat + self.beta_b[j];
                os[r * d + j] = round_shift(v, self.frac).clamp(qmin, qmax) as i32;
            }
        }
    }
}

fn round_shift_div(v: i64, d: i64) -> i64 {
    // round(v/d) for positive d, round-half-away.
    if v >= 0 {
        (v + d / 2) / d
    } else {
        (v - d / 2) / d
    }
}

/// One integer operation.
#[derive(Debug, Clone)]
pub enum IntOp {
    /// Quantizes the float model input: `round(x/scale)` clamped.
    Quantize {
        /// Input scale.
        scale: f32,
        /// Input grid.
        spec: QuantSpec,
    },
    /// Integer convolution → MulQuant requantization (+ optional ReLU).
    Conv2d {
        /// Integer weights `[OC, C/g, K, K]`.
        weight: Tensor<i32>,
        /// Accumulator-domain bias (length OC).
        bias: Option<Vec<i64>>,
        /// Geometry.
        spec: Conv2dSpec,
        /// The fused requantizer.
        requant: MulQuant,
        /// Integer ReLU before the output clamp.
        relu: bool,
        /// Grid the weights live on (for size accounting).
        weight_spec: QuantSpec,
    },
    /// Integer linear layer; without a requantizer the raw i32 accumulators
    /// are the output (classifier head — argmax is scale-invariant).
    Linear {
        /// Integer weights `[OUT, IN]`, dense or compressed.
        weight: LinearWeight,
        /// Accumulator-domain bias (length OUT).
        bias: Option<Vec<i64>>,
        /// Optional requantizer.
        requant: Option<MulQuant>,
        /// Integer ReLU before the clamp (requires `requant`).
        relu: bool,
        /// Grid the weight codes live on.
        weight_spec: QuantSpec,
    },
    /// Residual add: each branch is rescaled into the output grid by a
    /// fixed-point factor, then summed (+ optional ReLU).
    AddRequant {
        /// Factor for the first input (`S_a/S_out`).
        m_a: FixedScalar,
        /// Factor for the second input (`S_b/S_out`).
        m_b: FixedScalar,
        /// Output grid.
        out_spec: QuantSpec,
        /// Integer ReLU.
        relu: bool,
    },
    /// Adds a pre-quantized constant (position embedding), then rescales.
    AddConstRequant {
        /// Constant in the input's scale (broadcast over batch).
        value: Tensor<i32>,
        /// `S_in/S_out` fixed-point factor.
        m: FixedScalar,
        /// Output grid.
        out_spec: QuantSpec,
    },
    /// Integer max pooling (scale-preserving).
    MaxPool2d {
        /// Window geometry.
        spec: PoolSpec,
    },
    /// Global average pooling with a runtime fixed-point `1/(H·W)`
    /// multiplier: `[N,C,H,W] → [N,C]`. The output keeps `frac_bits` extra
    /// fractional bits (output scale = input scale / 2^frac_bits) so the
    /// classifier does not lose sub-LSB precision to the division.
    GlobalAvgPool {
        /// Extra fractional bits retained in the pooled codes.
        frac_bits: u8,
    },
    /// `[N, C, H, W] → [N, C·H·W]`.
    Flatten,
    /// `[N, D, h, w] → [N, h·w, D]` (patch embedding to token sequence).
    PatchToTokens,
    /// Prepends a constant token `[1, D]` to every sequence.
    ConcatToken {
        /// The class token, quantized at the sequence's scale.
        token: Tensor<i32>,
    },
    /// Extracts token `index`: `[N, L, D] → [N, D]`.
    TakeToken {
        /// Token position.
        index: usize,
    },
    /// `[N, L, H·Dh] → [N·H, L, Dh]`.
    SplitHeads {
        /// Head count.
        heads: usize,
    },
    /// `[N·H, L, Dh] → [N, L, H·Dh]`.
    MergeHeads {
        /// Head count.
        heads: usize,
    },
    /// Batched integer matmul with requantization; optionally transposes
    /// the last two axes of the second operand (for `q·kᵀ`).
    BmmRequant {
        /// Transpose the rhs.
        transpose_rhs: bool,
        /// `S_a·S_b/S_out` fixed-point factor.
        m: FixedScalar,
        /// Output grid.
        out_spec: QuantSpec,
    },
    /// Elementwise integer rescale between two activation grids (e.g. the
    /// 8-bit residual stream feeding a 2-bit conv input).
    Requant {
        /// `S_in/S_out` fixed-point factor.
        m: FixedScalar,
        /// Output grid.
        out_spec: QuantSpec,
    },
    /// Integer LayerNorm.
    LayerNorm(LayerNormInt),
    /// LUT softmax over the last axis.
    SoftmaxLut(SoftmaxLut),
    /// LUT GELU, elementwise.
    GeluLut(GeluLut),
}

/// The `[OUT, IN]` code matrix of an [`IntOp::Linear`] in one of its two
/// storage layouts. Both layouts describe the same matrix and execute
/// bit-identically; only the storage and the kernel that reads it differ
/// (the dense GEMM, or the skip-zero kernel over the stored slots).
#[derive(Debug, Clone)]
pub enum LinearWeight {
    /// Every code, row-major.
    Dense(Tensor<i32>),
    /// Compressed codes (bitmask or N:M layout), as
    /// [`IntModel::sparsify`] produces them from a pruned dense weight.
    Sparse {
        /// The stored slots and their structure.
        mat: SparseMat,
        /// Structural sparsity the producer claims for this weight; the
        /// lint layer cross-checks it against the stored structure
        /// (T2C503).
        declared_sparsity: f32,
    },
}

impl From<Tensor<i32>> for LinearWeight {
    fn from(w: Tensor<i32>) -> Self {
        LinearWeight::Dense(w)
    }
}

impl LinearWeight {
    /// A compressed weight declaring the sparsity it actually stores.
    pub fn sparse(mat: SparseMat) -> Self {
        let declared_sparsity = mat.sparsity();
        LinearWeight::Sparse { mat, declared_sparsity }
    }

    /// The `[OUT, IN]` extents (a malformed dense weight reports its own
    /// dims, which [`IntOp::out_dims`] refuses).
    pub fn dims(&self) -> Vec<usize> {
        match self {
            LinearWeight::Dense(w) => w.dims().to_vec(),
            LinearWeight::Sparse { mat, .. } => vec![mat.rows, mat.cols],
        }
    }

    /// Dense element count `OUT·IN`.
    pub fn numel(&self) -> usize {
        match self {
            LinearWeight::Dense(w) => w.numel(),
            LinearWeight::Sparse { mat, .. } => mat.rows * mat.cols,
        }
    }

    /// The stored codes — what a weight memory holds and the kernel
    /// multiplies: every element, or the packed slots (N:M padding
    /// included).
    pub fn codes(&self) -> &[i32] {
        match self {
            LinearWeight::Dense(w) => w.as_slice(),
            LinearWeight::Sparse { mat, .. } => &mat.vals,
        }
    }

    /// Structural-index storage in bits: none when dense, one mask bit
    /// per dense element for the bitmask layout, `ceil(log2 m)` offset
    /// bits per stored slot for N:M.
    pub fn index_bits(&self) -> usize {
        match self {
            LinearWeight::Dense(_) => 0,
            LinearWeight::Sparse { mat, .. } => match &mat.encoding {
                SparseEncoding::Bitmask { .. } => mat.rows * mat.cols,
                SparseEncoding::Nm { m, .. } => {
                    let off_bits = usize::BITS - usize::from(*m).saturating_sub(1).leading_zeros();
                    mat.stored() * off_bits as usize
                }
            },
        }
    }

    /// Zero codes in the `[OUT, IN]` matrix (unstored elements count).
    pub fn zeros(&self) -> usize {
        match self {
            LinearWeight::Dense(w) => w.count_zeros(),
            LinearWeight::Sparse { mat, .. } => mat.rows * mat.cols - mat.nnz(),
        }
    }

    /// The dense `[OUT, IN]` matrix, borrowed when already dense.
    pub fn to_dense(&self) -> Cow<'_, Tensor<i32>> {
        match self {
            LinearWeight::Dense(w) => Cow::Borrowed(w),
            LinearWeight::Sparse { mat, .. } => Cow::Owned(mat.to_dense()),
        }
    }

    /// A short label for the storage layout: `"dense"`, `"bitmask"` or
    /// `"n:m"`.
    pub fn layout_label(&self) -> String {
        match self {
            LinearWeight::Dense(_) => "dense".to_owned(),
            LinearWeight::Sparse { mat, .. } => mat.layout_label(),
        }
    }
}

impl IntOp {
    /// Canonical short label of the op kind — shared by export manifests,
    /// lint diagnostics and reports.
    pub fn label(&self) -> &'static str {
        match self {
            IntOp::Quantize { .. } => "quantize",
            IntOp::Conv2d { .. } => "conv2d_int",
            IntOp::Linear { weight: LinearWeight::Dense(_), .. } => "linear_int",
            IntOp::Linear { weight: LinearWeight::Sparse { .. }, .. } => "linear_sparse",
            IntOp::AddRequant { .. } => "add_requant",
            IntOp::AddConstRequant { .. } => "add_const_requant",
            IntOp::MaxPool2d { .. } => "max_pool",
            IntOp::GlobalAvgPool { .. } => "global_avg_pool",
            IntOp::Flatten => "flatten",
            IntOp::PatchToTokens => "patch_to_tokens",
            IntOp::ConcatToken { .. } => "concat_token",
            IntOp::TakeToken { .. } => "take_token",
            IntOp::SplitHeads { .. } => "split_heads",
            IntOp::MergeHeads { .. } => "merge_heads",
            IntOp::BmmRequant { .. } => "bmm_requant",
            IntOp::Requant { .. } => "requant",
            IntOp::LayerNorm(_) => "layer_norm_int",
            IntOp::SoftmaxLut(_) => "softmax_lut",
            IntOp::GeluLut(_) => "gelu_lut",
        }
    }

    /// The integer grid this op's output is clamped onto, when the op
    /// declares one. Shape-only ops (`Flatten`, pooling, token plumbing)
    /// and `Linear` heads without a requantizer return `None`: their
    /// output inherits the producer's grid or is a raw accumulator.
    pub fn out_spec(&self) -> Option<QuantSpec> {
        match self {
            IntOp::Quantize { spec, .. } => Some(*spec),
            IntOp::Conv2d { requant, .. } => Some(requant.out_spec),
            IntOp::Linear { requant, .. } => requant.as_ref().map(|r| r.out_spec),
            IntOp::AddRequant { out_spec, .. }
            | IntOp::AddConstRequant { out_spec, .. }
            | IntOp::BmmRequant { out_spec, .. }
            | IntOp::Requant { out_spec, .. } => Some(*out_spec),
            IntOp::LayerNorm(ln) => Some(ln.out_spec),
            IntOp::SoftmaxLut(lut) => Some(lut.out_spec),
            IntOp::GeluLut(lut) => Some(lut.out_spec),
            _ => None,
        }
    }

    /// The codes a MAC op's weight memory holds — every element of a
    /// dense weight, only the stored slots of a compressed one — and the
    /// grid they live on; `None` for ops without a weight memory.
    pub fn weight_codes(&self) -> Option<(&[i32], QuantSpec)> {
        match self {
            IntOp::Conv2d { weight, weight_spec, .. } => Some((weight.as_slice(), *weight_spec)),
            IntOp::Linear { weight, weight_spec, .. } => Some((weight.codes(), *weight_spec)),
            _ => None,
        }
    }

    /// Number of graph operands the op consumes at execution time.
    pub fn arity(&self) -> usize {
        match self {
            IntOp::Quantize { .. } => 0,
            IntOp::AddRequant { .. } | IntOp::BmmRequant { .. } => 2,
            _ => 1,
        }
    }

    /// The output shape for operands of shape `inputs` — the one static
    /// shape rule that the interpreter, the plan compiler, lint, the
    /// error-bound certifier and the accelerator model all share.
    /// `Quantize` reads the model input, so its one operand is the input
    /// shape.
    ///
    /// It checks every precondition the kernels index by: operand ranks
    /// and nonzero extents; non-empty MAC weights and requantizer
    /// parameters; conv group/channel fit and windows; linear `IN`; pool
    /// windows that touch the input; residual operand equality and
    /// constant broadcast; token length and index; head divisibility; the
    /// bmm contraction; LayerNorm parameter lengths; and at most 31 pooled
    /// fractional bits. LayerNorm and softmax reduce the last axis, so it
    /// must not be the batch axis (rank ≥ 2). LUT table coverage is a
    /// value-domain property and stays with lint (T2C301).
    ///
    /// # Errors
    ///
    /// Returns an error naming the violated precondition.
    pub fn out_dims(&self, inputs: &[&[usize]]) -> Result<Vec<usize>> {
        let op = self.label();
        let x = |idx: usize| -> Result<&[usize]> {
            inputs.get(idx).copied().ok_or_else(|| {
                TensorError::InvalidArgument(format!(
                    "`{op}` expects operand {idx} but got {} operand(s)",
                    inputs.len()
                ))
            })
        };
        let mismatch = |lhs: &[usize], rhs: &[usize]| TensorError::ShapeMismatch {
            lhs: lhs.to_vec(),
            rhs: rhs.to_vec(),
            op,
        };
        let geometry = |msg: String| Err(TensorError::InvalidGeometry(format!("`{op}`: {msg}")));
        if let Some(d) = inputs.iter().find(|d| d.contains(&0)) {
            return geometry(format!("operand {d:?} has a zero extent"));
        }
        match self {
            IntOp::Quantize { .. } | IntOp::Requant { .. } | IntOp::GeluLut(_) => {
                Ok(x(0)?.to_vec())
            }
            IntOp::Conv2d { weight, spec, requant, .. } => {
                let [n, c, h, w] = ranked(x(0)?, op)?;
                let [oc, cg, kh, kw] = mac_weight(weight.dims(), op)?;
                requant_params(Some(requant), op)?;
                let g = spec.groups;
                if g == 0 || cg * g != c || oc % g != 0 {
                    return geometry(format!(
                        "weight {:?} with {g} group(s) does not fit {c} input channels",
                        weight.dims()
                    ));
                }
                Ok(vec![n, oc, spec.out_extent(h, kh)?, spec.out_extent(w, kw)?])
            }
            IntOp::Linear { weight, requant, .. } => {
                let [out_f, in_f] = mac_weight(&weight.dims(), op)?;
                requant_params(requant.as_ref(), op)?;
                linear_out(x(0)?, out_f, in_f, op)
            }
            IntOp::AddRequant { .. } => {
                let (a, b) = (x(0)?, x(1)?);
                if a != b {
                    return Err(mismatch(a, b));
                }
                Ok(a.to_vec())
            }
            IntOp::AddConstRequant { value, .. } => {
                // The constant tiles the non-batch extent.
                let a = x(0)?;
                let inner: usize = a.iter().skip(1).product();
                if value.numel() == 0 || !inner.is_multiple_of(value.numel()) {
                    return Err(mismatch(a, value.dims()));
                }
                Ok(a.to_vec())
            }
            IntOp::MaxPool2d { spec } => {
                let [n, c, h, w] = ranked(x(0)?, op)?;
                if spec.padding >= spec.kernel.max(1) {
                    // A window could then lie entirely in the padding.
                    return geometry(format!(
                        "padding {} reaches a kernel of {}",
                        spec.padding, spec.kernel
                    ));
                }
                Ok(vec![n, c, spec.out_extent(h)?, spec.out_extent(w)?])
            }
            IntOp::GlobalAvgPool { frac_bits } => {
                let [n, c, _, _] = ranked(x(0)?, op)?;
                if *frac_bits > 31 {
                    return geometry(format!("{frac_bits} fractional bits exceed 31"));
                }
                Ok(vec![n, c])
            }
            IntOp::Flatten => match x(0)? {
                [n, rest @ ..] => Ok(vec![*n, rest.iter().product()]),
                [] => geometry("input has rank 0".into()),
            },
            IntOp::PatchToTokens => {
                let [n, d, h, w] = ranked(x(0)?, op)?;
                Ok(vec![n, h * w, d])
            }
            IntOp::ConcatToken { token } => {
                let [n, l, d] = ranked(x(0)?, op)?;
                if token.numel() != d {
                    return Err(mismatch(token.dims(), &[d]));
                }
                Ok(vec![n, l + 1, d])
            }
            IntOp::TakeToken { index } => {
                let [n, l, d] = ranked(x(0)?, op)?;
                if *index >= l {
                    return geometry(format!("token {index} out of {l}"));
                }
                Ok(vec![n, d])
            }
            IntOp::SplitHeads { heads } => {
                let [n, l, d] = ranked(x(0)?, op)?;
                if *heads == 0 || d % heads != 0 {
                    return geometry(format!("cannot split width {d} into {heads} head(s)"));
                }
                Ok(vec![n * heads, l, d / heads])
            }
            IntOp::MergeHeads { heads } => {
                let [nh, l, dh] = ranked(x(0)?, op)?;
                if *heads == 0 || nh % heads != 0 {
                    return geometry(format!("cannot merge {nh} sequences from {heads} head(s)"));
                }
                Ok(vec![nh / heads, l, dh * heads])
            }
            IntOp::BmmRequant { transpose_rhs, .. } => {
                let ([bs, m, k], b) = (ranked(x(0)?, op)?, x(1)?);
                let [bs_b, r0, r1] = ranked(b, op)?;
                let (k_rhs, n) = if *transpose_rhs { (r1, r0) } else { (r0, r1) };
                if bs != bs_b || k != k_rhs {
                    return Err(mismatch(x(0)?, b));
                }
                Ok(vec![bs, m, n])
            }
            IntOp::LayerNorm(ln) => {
                let a = x(0)?;
                let [_, .., d] = *a else { return geometry(format!("{a:?} has no feature axis")) };
                if ln.gamma_m.len() != d || ln.beta_b.len() != d {
                    return geometry(format!(
                        "gamma/beta lengths {}/{} do not match the {d}-wide feature axis",
                        ln.gamma_m.len(),
                        ln.beta_b.len()
                    ));
                }
                Ok(a.to_vec())
            }
            IntOp::SoftmaxLut(_) => {
                let a = x(0)?;
                if a.len() < 2 {
                    return geometry(format!("{a:?} has no feature axis"));
                }
                Ok(a.to_vec())
            }
        }
    }

    /// Element counts of one execution for operand shapes `inputs` and the
    /// output shape `out` that [`IntOp::out_dims`] returned for them.
    pub fn cost(&self, inputs: &[&[usize]], out: &[usize]) -> OpCost {
        let out_elems = out.iter().product::<usize>() as u64;
        let (macs, weight_elems) = match self {
            IntOp::Conv2d { weight, .. } => {
                // Each output accumulates one weight row of C/g·K·K.
                let per_out = weight.numel() / weight.dims().first().map_or(1, |&d| d.max(1));
                (out_elems * per_out as u64, weight.numel() as u64)
            }
            IntOp::Linear { weight, .. } => {
                // Each output row multiplies every stored code once: all
                // of them when dense, only the stored slots when sparse.
                let stored = weight.codes().len() as u64;
                let out_f = weight.dims().first().map_or(1, |&d| d.max(1));
                (out_elems / out_f as u64 * stored, stored)
            }
            IntOp::BmmRequant { .. } => {
                let k = inputs.first().and_then(|a| a.last()).copied().unwrap_or(0);
                (out_elems * k as u64, 0)
            }
            _ => (0, 0),
        };
        let in_elems = inputs.iter().map(|d| d.iter().product::<usize>() as u64).sum();
        OpCost { macs, weight_elems, in_elems, out_elems }
    }
}

/// Element counts of one op execution ([`IntOp::cost`]) — what profiling
/// and the accelerator model derive MACs and traffic from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCost {
    /// Multiply-accumulates (stored MACs for a sparse `Linear`).
    pub macs: u64,
    /// Weight elements read (stored slots for a sparse `Linear`).
    pub weight_elems: u64,
    /// Operand elements read.
    pub in_elems: u64,
    /// Output elements written.
    pub out_elems: u64,
}

/// `dims` as a fixed-rank array, or a rank error.
fn ranked<const R: usize>(dims: &[usize], op: &'static str) -> Result<[usize; R]> {
    dims.try_into().map_err(|_| TensorError::RankMismatch { got: dims.len(), expected: R, op })
}

/// A MAC weight's dims, refusing a zero extent: the kernels split work
/// into nonzero units.
fn mac_weight<const R: usize>(dims: &[usize], op: &'static str) -> Result<[usize; R]> {
    if dims.contains(&0) {
        return Err(TensorError::InvalidGeometry(format!("`{op}` weight {dims:?} is empty")));
    }
    ranked(dims, op)
}

/// A requantizer must carry at least one multiplier and one bias: its
/// per-channel lookups clamp the channel to the last entry.
fn requant_params(requant: Option<&MulQuant>, op: &'static str) -> Result<()> {
    match requant {
        Some(r) if r.scale_raw.is_empty() || r.bias_raw.is_empty() => {
            Err(TensorError::InvalidArgument(format!(
                "`{op}` requantizer has {} multiplier(s) and {} bias(es)",
                r.scale_raw.len(),
                r.bias_raw.len()
            )))
        }
        _ => Ok(()),
    }
}

/// `[N, IN]` or `[N, L, IN]` against an `[OUT, IN]` weight.
fn linear_out(x: &[usize], out_f: usize, in_f: usize, op: &'static str) -> Result<Vec<usize>> {
    match x {
        [.., last] if (2..=3).contains(&x.len()) && *last == in_f => {
            let mut out = x.to_vec();
            out[x.len() - 1] = out_f;
            Ok(out)
        }
        _ => Err(TensorError::ShapeMismatch { lhs: x.to_vec(), rhs: vec![out_f, in_f], op }),
    }
}

/// One node: an op plus where its operands come from.
#[derive(Debug, Clone)]
pub struct IntNode {
    /// The operation.
    pub op: IntOp,
    /// Operand sources (1 for most ops, 2 for adds/bmm).
    pub inputs: Vec<Src>,
    /// Human-readable name for reports and export manifests.
    pub name: String,
}

impl IntNode {
    /// Shapes of the operands this node reads, given the model input's
    /// shape and the earlier nodes' output shapes. `Quantize` reads the
    /// model input.
    ///
    /// # Panics
    ///
    /// Panics if an operand is unlisted or not yet in `shapes`;
    /// [`IntModel::infer_shapes`] refuses such graphs first.
    pub fn operand_dims<'a>(
        &self,
        input: &'a [usize],
        shapes: &'a [Vec<usize>],
    ) -> Vec<&'a [usize]> {
        if matches!(self.op, IntOp::Quantize { .. }) {
            return vec![input];
        }
        self.inputs[..self.op.arity()]
            .iter()
            .map(|src| match src {
                Src::Input => input,
                Src::Node(id) => &shapes[*id][..],
            })
            .collect()
    }
}

/// An integer-only network: a topologically ordered op list.
#[derive(Debug, Clone, Default)]
pub struct IntModel {
    /// Nodes in execution order.
    pub nodes: Vec<IntNode>,
}

impl IntModel {
    /// Creates an empty model.
    pub fn new() -> Self {
        IntModel::default()
    }

    /// Appends a node, returning its id.
    pub fn push(&mut self, name: impl Into<String>, op: IntOp, inputs: Vec<Src>) -> usize {
        self.nodes.push(IntNode { op, inputs, name: name.into() });
        self.nodes.len() - 1
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the model has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Runs the model on a float input batch; the last node's output are
    /// the integer logits.
    ///
    /// # Errors
    ///
    /// Returns an error if the graph is malformed or shapes mismatch.
    pub fn run(&self, x: &Tensor<f32>) -> Result<Tensor<i32>> {
        // The input enters through the first Quantize node.
        let quantized = match self.nodes.first().map(|n| &n.op) {
            Some(IntOp::Quantize { scale, spec }) => {
                x.map(|v| ((v / scale).round() as i32).clamp(spec.qmin(), spec.qmax()))
            }
            _ => {
                return Err(TensorError::InvalidArgument(
                    "IntModel must start with a Quantize node".into(),
                ))
            }
        };
        self.run_quantized(&quantized)
    }

    /// Runs the model and returns *every* node's output — the hook
    /// per-layer verification and divergence analysis use.
    ///
    /// # Errors
    ///
    /// Returns an error if the graph is malformed or shapes mismatch.
    pub fn run_all(&self, x: &Tensor<f32>) -> Result<Vec<Tensor<i32>>> {
        let quantized = match self.nodes.first().map(|n| &n.op) {
            Some(IntOp::Quantize { scale, spec }) => {
                x.map(|v| ((v / scale).round() as i32).clamp(spec.qmin(), spec.qmax()))
            }
            _ => {
                return Err(TensorError::InvalidArgument(
                    "IntModel must start with a Quantize node".into(),
                ))
            }
        };
        self.execute(&quantized)
    }

    /// Runs the model on an already-quantized integer input (skipping the
    /// leading Quantize node) — the accelerator-simulator entry point.
    ///
    /// # Errors
    ///
    /// Returns an error if the graph is malformed or shapes mismatch.
    pub fn run_quantized(&self, input: &Tensor<i32>) -> Result<Tensor<i32>> {
        let (mut values, _) = self.execute_droppable(input, false)?;
        values.pop().flatten().ok_or_else(|| TensorError::InvalidArgument("empty IntModel".into()))
    }

    /// Keep-everything execution — the hook `run_all` uses.
    fn execute(&self, input: &Tensor<i32>) -> Result<Vec<Tensor<i32>>> {
        let (values, _) = self.execute_droppable(input, true)?;
        Ok(values.into_iter().map(|v| v.expect("keep_all retains every value")).collect())
    }

    /// Per-node output shapes for a quantized input of `input_dims`,
    /// derived statically from [`IntOp::out_dims`] without executing
    /// anything. Sources are checked first — dangling or forward
    /// references and missing operands — then each node's shape rule.
    ///
    /// # Errors
    ///
    /// Returns the first failure, naming the node.
    pub fn infer_shapes(&self, input_dims: &[usize]) -> Result<Vec<Vec<usize>>> {
        let mut shapes: Vec<Vec<usize>> = Vec::with_capacity(self.nodes.len());
        for (i, node) in self.nodes.iter().enumerate() {
            let fail = |msg: String| {
                Err(TensorError::InvalidArgument(format!("node {i} ({}) {msg}", node.name)))
            };
            for src in &node.inputs {
                match src {
                    Src::Node(id) if *id >= i => {
                        return fail(format!("reads not-yet-computed node {id}"))
                    }
                    _ => {}
                }
            }
            let arity = node.op.arity();
            if node.inputs.len() < arity {
                return fail(format!("expects {arity} operand(s) but lists {}", node.inputs.len()));
            }
            let out = node.op.out_dims(&node.operand_dims(input_dims, &shapes)).map_err(|e| {
                TensorError::InvalidArgument(format!("node {i} ({}): {e}", node.name))
            })?;
            shapes.push(out);
        }
        Ok(shapes)
    }

    /// Index of the step after which each node's output is dead: the
    /// maximum consumer index, the node's own index if nothing consumes
    /// it, and `usize::MAX` for the model output.
    fn last_uses(&self) -> Vec<usize> {
        let n = self.nodes.len();
        let mut last: Vec<usize> = (0..n).collect();
        for (i, node) in self.nodes.iter().enumerate() {
            for src in &node.inputs {
                if let Src::Node(id) = src {
                    if *id < n {
                        last[*id] = last[*id].max(i);
                    }
                }
            }
        }
        if n > 0 {
            last[n - 1] = usize::MAX;
        }
        last
    }

    /// The interpreter loop. Shapes are inferred up front, so a malformed
    /// graph fails before any kernel runs. With `keep_all` every node's
    /// output is retained (the `run_all` contract); otherwise each
    /// intermediate is dropped right after its last consumer runs, so peak
    /// liveness is bounded by the widest producer/consumer frontier
    /// instead of the sum of every layer in the network. Returns the
    /// (partially `None` when dropping) value list and the peak number of
    /// simultaneously live output elements.
    fn execute_droppable(
        &self,
        input: &Tensor<i32>,
        keep_all: bool,
    ) -> Result<(Vec<Option<Tensor<i32>>>, usize)> {
        let shapes = self.infer_shapes(input.dims())?;
        let last = self.last_uses();
        let mut values: Vec<Option<Tensor<i32>>> = Vec::with_capacity(self.nodes.len());
        let mut live_elems = 0usize;
        let mut peak_elems = 0usize;
        for (i, node) in self.nodes.iter().enumerate() {
            let _t = t2c_obs::Timer::scoped_with(|| format!("layer.{}.forward_ns", node.name));
            // `infer_shapes` proved every operand is listed and earlier,
            // and liveness keeps each value until its last reader.
            let operand = |idx: usize| -> &Tensor<i32> {
                match node.inputs[idx] {
                    Src::Input => input,
                    Src::Node(id) => values[id].as_ref().expect("operand is live"),
                }
            };
            let out_dims = &shapes[i];
            // Routes a requantizer through the saturation-counting path when
            // profiling so each node reports `layer.<name>.saturated`.
            let requant_counted = |r: &MulQuant, acc: &Tensor<i32>, axis: usize, relu: bool| {
                if t2c_obs::enabled() {
                    let (y, sat) = r.apply_with_saturation(acc, axis, relu);
                    t2c_obs::counter_add(&format!("layer.{}.saturated", node.name), sat);
                    y
                } else {
                    r.apply(acc, axis, relu)
                }
            };
            let out = match &node.op {
                IntOp::Quantize { .. } => input.clone(),
                IntOp::Conv2d { weight, bias, spec, requant, relu, .. } => {
                    let acc = conv2d_i32(operand(0), weight, None, *spec)?;
                    let acc = match bias {
                        Some(b) => add_channel_bias(&acc, b, 1),
                        None => acc,
                    };
                    requant_counted(requant, &acc, 1, *relu)
                }
                IntOp::Linear { weight, bias, requant, relu, .. } => {
                    let acc = linear_i32(operand(0), weight, out_dims)?;
                    let axis = acc.rank() - 1;
                    let acc = match bias {
                        Some(b) => add_channel_bias(&acc, b, axis),
                        None => acc,
                    };
                    match requant {
                        Some(r) => requant_counted(r, &acc, axis, *relu),
                        None => acc,
                    }
                }
                IntOp::AddRequant { m_a, m_b, out_spec, relu } => {
                    add_requant(operand(0), operand(1), *m_a, *m_b, *out_spec, *relu)?
                }
                IntOp::AddConstRequant { value, m, out_spec } => {
                    add_const_requant(operand(0), value, *m, *out_spec)
                }
                IntOp::MaxPool2d { spec } => max_pool_i32(operand(0), *spec),
                IntOp::GlobalAvgPool { frac_bits } => global_avg_pool_i32(operand(0), *frac_bits),
                IntOp::Flatten => operand(0).reshape(out_dims)?,
                IntOp::PatchToTokens => {
                    let a = operand(0);
                    let (n, d, h, w) = (a.dim(0), a.dim(1), a.dim(2), a.dim(3));
                    a.reshape(&[n, d, h * w])?.permute(&[0, 2, 1])?
                }
                IntOp::ConcatToken { token } => concat_token(operand(0), token),
                IntOp::TakeToken { index } => take_token(operand(0), *index)?,
                IntOp::SplitHeads { heads } => {
                    let a = operand(0);
                    let (n, l, d) = (a.dim(0), a.dim(1), a.dim(2));
                    a.reshape(&[n, l, *heads, d / heads])?
                        .permute(&[0, 2, 1, 3])?
                        .reshape(out_dims)?
                }
                IntOp::MergeHeads { heads } => {
                    let a = operand(0);
                    let (nh, l, dh) = (a.dim(0), a.dim(1), a.dim(2));
                    a.reshape(&[nh / heads, *heads, l, dh])?
                        .permute(&[0, 2, 1, 3])?
                        .reshape(out_dims)?
                }
                IntOp::BmmRequant { transpose_rhs, m, out_spec } => {
                    let (a, b) = (operand(0), operand(1));
                    // Only the transposing branch needs a new tensor; the
                    // plain branch multiplies against the operand in place.
                    let acc = if *transpose_rhs {
                        let bt = b.permute(&[0, 2, 1])?;
                        a.bmm_i(&bt)?
                    } else {
                        a.bmm_i(b)?
                    };
                    requant_per_tensor(&acc, *m, *out_spec, false)
                }
                IntOp::Requant { m, out_spec } => {
                    requant_per_tensor(operand(0), *m, *out_spec, false)
                }
                IntOp::LayerNorm(ln) => ln.apply(operand(0)),
                IntOp::SoftmaxLut(lut) => lut.apply(operand(0)),
                IntOp::GeluLut(lut) => lut.apply(operand(0)),
            };
            if t2c_obs::enabled() {
                let name = &node.name;
                let cost = node.op.cost(&node.operand_dims(input.dims(), &shapes), out_dims);
                t2c_obs::counter_add(&format!("layer.{name}.macs"), cost.macs);
                t2c_obs::counter_add(&format!("layer.{name}.elements"), cost.out_elems);
                t2c_obs::counter_add(
                    &format!("layer.{name}.bytes"),
                    (cost.in_elems + cost.weight_elems + cost.out_elems) * 4,
                );
            }
            live_elems += out.numel();
            peak_elems = peak_elems.max(live_elems);
            values.push(Some(out));
            if !keep_all {
                // Drop every operand this node was the last consumer of
                // (and the node's own output when nothing consumes it).
                for src in &self.nodes[i].inputs {
                    if let Src::Node(id) = src {
                        if last.get(*id) == Some(&i) {
                            if let Some(t) = values[*id].take() {
                                live_elems -= t.numel();
                            }
                        }
                    }
                }
                if last[i] == i {
                    if let Some(t) = values[i].take() {
                        live_elems -= t.numel();
                    }
                }
            }
        }
        Ok((values, peak_elems))
    }

    /// Classifies a float batch: integer forward + argmax over logits.
    ///
    /// # Errors
    ///
    /// Returns an error if the model is malformed.
    pub fn predict(&self, x: &Tensor<f32>) -> Result<Vec<usize>> {
        let logits = self.run(x)?;
        logits.to_f32().argmax_rows()
    }

    /// Total packed weight storage in bytes at the deployed bit widths
    /// (the paper's "Model Size (MB)" column).
    pub fn weight_bytes(&self) -> usize {
        let mut bits = 0usize;
        for node in &self.nodes {
            match &node.op {
                IntOp::Conv2d { weight, weight_spec, bias, requant, .. } => {
                    bits += weight.numel() * weight_spec.bits as usize;
                    bits += bias.as_ref().map_or(0, |b| b.len() * 32);
                    bits += requant.size_bytes() * 8;
                }
                IntOp::Linear { weight, weight_spec, bias, requant, .. } => {
                    bits += weight.codes().len() * weight_spec.bits as usize;
                    bits += weight.index_bits();
                    bits += bias.as_ref().map_or(0, |b| b.len() * 32);
                    bits += requant.as_ref().map_or(0, super::mulquant::MulQuant::size_bytes) * 8;
                }
                IntOp::SoftmaxLut(l) => bits += l.size_bytes() * 8,
                IntOp::GeluLut(l) => bits += l.size_bytes() * 8,
                IntOp::LayerNorm(ln) => bits += (ln.gamma_m.len() + ln.beta_b.len()) * 16,
                IntOp::ConcatToken { token } => bits += token.numel() * 8,
                IntOp::AddConstRequant { value, .. } => bits += value.numel() * 8,
                _ => {}
            }
        }
        bits.div_ceil(8)
    }

    /// A human-readable per-op summary: `id name(op) ← inputs`.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for (i, node) in self.nodes.iter().enumerate() {
            let srcs: Vec<String> = node
                .inputs
                .iter()
                .map(|s| match s {
                    Src::Input => "input".to_string(),
                    Src::Node(id) => format!("#{id}"),
                })
                .collect();
            out.push_str(&format!("#{i:<3} {:<24} ← [{}]\n", node.name, srcs.join(", ")));
        }
        out
    }

    /// Fraction of zero weights across conv/linear nodes (sparsity audit).
    pub fn weight_sparsity(&self) -> f32 {
        let mut zeros = 0usize;
        let mut total = 0usize;
        for node in &self.nodes {
            match &node.op {
                IntOp::Conv2d { weight, .. } => {
                    zeros += weight.count_zeros();
                    total += weight.numel();
                }
                IntOp::Linear { weight, .. } => {
                    zeros += weight.zeros();
                    total += weight.numel();
                }
                _ => {}
            }
        }
        if total == 0 {
            0.0
        } else {
            zeros as f32 / total as f32
        }
    }

    /// Compresses, in place, every dense [`IntOp::Linear`] weight whose
    /// zero-code fraction is at least `threshold` into a
    /// [`LinearWeight::Sparse`], returning the number of nodes converted.
    ///
    /// This is the deployment half of pruning: the pruners zero float
    /// weights, symmetric quantization maps those zeros to code 0, and
    /// this pass compresses the zero codes away. Encoding choice per node:
    /// a 1:4 or 2:4 N:M layout when the weights satisfy the pattern and
    /// its structural sparsity is close to the value sparsity (padding
    /// would otherwise store more than a bitmask), else the per-row
    /// bitmask. Nodes below the threshold — where skip-zero bookkeeping
    /// would cost more than it saves — `Conv2d` nodes (no sparse conv
    /// kernel) and malformed weights that are not rank 2 stay dense; the
    /// dense kernels are the fallback dispatch.
    pub fn sparsify(&mut self, threshold: f32) -> usize {
        let mut converted = 0usize;
        for node in &mut self.nodes {
            let IntOp::Linear { weight, .. } = &mut node.op else { continue };
            let LinearWeight::Dense(dense) = weight else { continue };
            let numel = dense.numel();
            let value_sparsity = dense.count_zeros() as f32 / numel.max(1) as f32;
            if numel == 0 || value_sparsity < threshold {
                continue;
            }
            let Some(mat) = pick_encoding(dense, value_sparsity) else { continue };
            *weight = LinearWeight::sparse(mat);
            converted += 1;
        }
        converted
    }
}

/// Chooses the tightest supported sparse encoding for a linear weight:
/// an N:M layout (1:4, then 2:4) when the weights satisfy the pattern and
/// its structural sparsity `1 − n/m` is within 0.125 of the value
/// sparsity, else the general bitmask. `None` for a weight that is not
/// rank 2 (a malformed graph, which [`IntOp::out_dims`] refuses).
fn pick_encoding(weight: &Tensor<i32>, value_sparsity: f32) -> Option<SparseMat> {
    for (n, m) in [(1u8, 4u8), (2, 4)] {
        let structural = 1.0 - f32::from(n) / f32::from(m);
        if (value_sparsity - structural).abs() <= 0.125 {
            if let Ok(sp) = SparseMat::from_dense_nm(weight, n, m) {
                return Some(sp);
            }
        }
    }
    SparseMat::from_dense(weight).ok()
}

/// Adds an accumulator-domain bias along `ch_axis` with the saturating-i32
/// semantics the lint interval model (T2C101–103) assumes: the i64
/// intermediate saturates instead of wrapping (`bias` values are arbitrary
/// i64, so `acc + bias` can exceed the i64 range the naive `+` assumes),
/// and the result is clamped onto the i32 accumulator rails. An empty bias
/// is a no-op rather than an index underflow.
pub(crate) fn add_channel_bias(acc: &Tensor<i32>, bias: &[i64], ch_axis: usize) -> Tensor<i32> {
    if bias.is_empty() {
        return acc.clone();
    }
    let dims = acc.dims();
    let ch_extent = dims[ch_axis];
    let inner: usize = dims[ch_axis + 1..].iter().product();
    let mut out = acc.clone();
    let os = out.as_mut_slice();
    for (i, v) in os.iter_mut().enumerate() {
        let ch = (i / inner.max(1)) % ch_extent.max(1);
        *v = (*v as i64)
            .saturating_add(bias[ch.min(bias.len() - 1)])
            .clamp(i32::MIN as i64, i32::MAX as i64) as i32;
    }
    out
}

/// The MAC of a `Linear` node over `[N, IN]` or `[N, L, IN]`; rank-3
/// inputs fold their leading axes into GEMM rows.
fn linear_i32(x: &Tensor<i32>, weight: &LinearWeight, out_dims: &[usize]) -> Result<Tensor<i32>> {
    let folded;
    let rows = if x.rank() == 2 {
        x
    } else {
        let din = x.dim(x.rank() - 1);
        folded = x.reshape(&[x.numel() / din, din])?;
        &folded
    };
    let acc = match weight {
        LinearWeight::Dense(w) => rows.matmul_i(&w.transpose()?)?,
        LinearWeight::Sparse { mat, .. } => matmul_sparse_i(rows, mat)?,
    };
    if x.rank() == 2 {
        Ok(acc)
    } else {
        acc.reshape(out_dims)
    }
}

pub(crate) fn requant_per_tensor(
    acc: &Tensor<i32>,
    m: FixedScalar,
    spec: QuantSpec,
    relu: bool,
) -> Tensor<i32> {
    acc.map(|v| requant_scalar(v, m, spec, relu))
}

/// One per-tensor requant step of the interpreter (compiled plans run
/// the same arithmetic as a one-channel epilogue).
#[inline]
fn requant_scalar(v: i32, m: FixedScalar, spec: QuantSpec, relu: bool) -> i32 {
    let mut s = m.mul_shift(v as i64);
    if relu {
        s = s.max(0);
    }
    s.clamp(spec.qmin() as i64, spec.qmax() as i64) as i32
}

/// One residual-add requant step (shared with the plan executor).
#[inline]
pub(crate) fn add_requant_scalar(
    x: i32,
    y: i32,
    m_a: FixedScalar,
    m_b: FixedScalar,
    spec: QuantSpec,
    relu: bool,
) -> i32 {
    let mut v = m_a.mul_shift(x as i64) + m_b.mul_shift(y as i64);
    if relu {
        v = v.max(0);
    }
    v.clamp(spec.qmin() as i64, spec.qmax() as i64) as i32
}

fn add_requant(
    a: &Tensor<i32>,
    b: &Tensor<i32>,
    m_a: FixedScalar,
    m_b: FixedScalar,
    spec: QuantSpec,
    relu: bool,
) -> Result<Tensor<i32>> {
    a.zip_map(b, |x, y| add_requant_scalar(x, y, m_a, m_b, spec, relu))
}

/// One constant-add requant step (shared with the plan executor).
#[inline]
pub(crate) fn add_const_requant_scalar(v: i32, c: i32, m: FixedScalar, spec: QuantSpec) -> i32 {
    let sum = v as i64 + c as i64;
    m.mul_shift(sum).clamp(spec.qmin() as i64, spec.qmax() as i64) as i32
}

fn add_const_requant(
    a: &Tensor<i32>,
    c: &Tensor<i32>,
    m: FixedScalar,
    spec: QuantSpec,
) -> Tensor<i32> {
    // c broadcasts over the batch axis: c is [1, …] tiling a[1..].
    let inner = c.numel();
    let cs = c.as_slice();
    let mut out = Tensor::<i32>::zeros(a.dims());
    let os = out.as_mut_slice();
    for (i, &v) in a.as_slice().iter().enumerate() {
        os[i] = add_const_requant_scalar(v, cs[i % inner], m, spec);
    }
    out
}

fn max_pool_i32(x: &Tensor<i32>, spec: PoolSpec) -> Tensor<i32> {
    // Reuse the float kernel's geometry through a lossless i32→f32 round
    // trip is unacceptable for large ints; implement directly.
    let (n, c, h, w) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
    let oh = (h + 2 * spec.padding - spec.kernel) / spec.stride + 1;
    let ow = (w + 2 * spec.padding - spec.kernel) / spec.stride + 1;
    let mut out = Tensor::<i32>::zeros(&[n, c, oh, ow]);
    max_pool_into(x.as_slice(), [n, c, h, w], spec, out.as_mut_slice());
    out
}

/// The allocation-free core of the integer max pool (shared with the plan
/// executor): `xs` is `[n, c, h, w]` row-major, `os` holds the pooled
/// `[n, c, oh, ow]` result.
pub(crate) fn max_pool_into(xs: &[i32], dims: [usize; 4], spec: PoolSpec, os: &mut [i32]) {
    let [n, c, h, w] = dims;
    let oh = (h + 2 * spec.padding - spec.kernel) / spec.stride + 1;
    let ow = (w + 2 * spec.padding - spec.kernel) / spec.stride + 1;
    debug_assert_eq!(os.len(), n * c * oh * ow);
    let mut o = 0usize;
    for img in 0..n {
        for ch in 0..c {
            let base = (img * c + ch) * h * w;
            for oi in 0..oh {
                for oj in 0..ow {
                    let mut best = i32::MIN;
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
                            best = best.max(xs[base + ii as usize * w + jj as usize]);
                        }
                    }
                    os[o] = best;
                    o += 1;
                }
            }
        }
    }
}

fn global_avg_pool_i32(x: &Tensor<i32>, frac_bits: u8) -> Tensor<i32> {
    let (n, c, h, w) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
    let mut out = Tensor::<i32>::zeros(&[n, c]);
    global_avg_pool_into(x.as_slice(), [n, c, h, w], frac_bits, out.as_mut_slice());
    out
}

/// The allocation-free core of the global average pool (shared with the
/// plan executor).
pub(crate) fn global_avg_pool_into(xs: &[i32], dims: [usize; 4], frac_bits: u8, os: &mut [i32]) {
    let [n, c, h, w] = dims;
    debug_assert_eq!(os.len(), n * c);
    // Fixed-point 2^frac/(H·W) with 16 fractional bits of intermediate
    // precision; the output keeps `frac_bits` fractional bits.
    let m = (((1i64 << (16 + frac_bits as i64)) as f64) / (h * w) as f64).round() as i64;
    for img in 0..n {
        for ch in 0..c {
            let base = (img * c + ch) * h * w;
            let sum: i64 = xs[base..base + h * w].iter().map(|&v| v as i64).sum();
            os[img * c + ch] = round_shift(sum * m, 16) as i32;
        }
    }
}

fn concat_token(x: &Tensor<i32>, token: &Tensor<i32>) -> Tensor<i32> {
    let (n, l, d) = (x.dim(0), x.dim(1), x.dim(2));
    let mut out = Tensor::<i32>::zeros(&[n, l + 1, d]);
    concat_token_into(x.as_slice(), [n, l, d], token.as_slice(), out.as_mut_slice());
    out
}

/// The allocation-free core of the class-token prepend (shared with the
/// plan executor).
pub(crate) fn concat_token_into(xs: &[i32], dims: [usize; 3], ts: &[i32], os: &mut [i32]) {
    let [n, l, d] = dims;
    debug_assert_eq!(os.len(), n * (l + 1) * d);
    for img in 0..n {
        let base = img * (l + 1) * d;
        os[base..base + d].copy_from_slice(ts);
        os[base + d..base + (l + 1) * d].copy_from_slice(&xs[img * l * d..(img + 1) * l * d]);
    }
}

fn take_token(x: &Tensor<i32>, index: usize) -> Result<Tensor<i32>> {
    let (n, l, d) = (x.dim(0), x.dim(1), x.dim(2));
    if index >= l {
        return Err(TensorError::InvalidArgument(format!("token {index} out of {l}")));
    }
    let mut out = Tensor::<i32>::zeros(&[n, d]);
    take_token_into(x.as_slice(), [n, l, d], index, out.as_mut_slice());
    Ok(out)
}

/// The allocation-free core of the token extraction (shared with the plan
/// executor).
pub(crate) fn take_token_into(xs: &[i32], dims: [usize; 3], index: usize, os: &mut [i32]) {
    let [n, l, d] = dims;
    debug_assert_eq!(os.len(), n * d);
    for img in 0..n {
        os[img * d..(img + 1) * d]
            .copy_from_slice(&xs[(img * l + index) * d..(img * l + index) * d + d]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::FixedPointFormat;

    fn fixed(v: f32) -> FixedScalar {
        FixedPointFormat::int16_frac12().quantize(v)
    }

    #[test]
    fn minimal_model_runs_quantize_and_linear() {
        let mut m = IntModel::new();
        m.push("input", IntOp::Quantize { scale: 0.1, spec: QuantSpec::signed(8) }, vec![]);
        let w = Tensor::from_vec(vec![1, 0, 0, 1], &[2, 2]).unwrap();
        m.push(
            "fc",
            IntOp::Linear {
                weight: w.into(),
                bias: Some(vec![10, -10]),
                requant: None,
                relu: false,
                weight_spec: QuantSpec::signed(8),
            },
            vec![Src::Node(0)],
        );
        let x = Tensor::from_vec(vec![1.0_f32, -0.5], &[1, 2]).unwrap();
        let y = m.run(&x).unwrap();
        // codes: [10, −5]; logits = codes + bias
        assert_eq!(y.as_slice(), &[20, -15]);
        assert_eq!(m.predict(&x).unwrap(), vec![0]);
    }

    #[test]
    fn malformed_graphs_error_instead_of_panicking() {
        // A node listing fewer operands than its op consumes used to panic
        // on `node.inputs[0]` / `[1]`; it must surface as Err.
        let mut m = IntModel::new();
        m.push("input", IntOp::Quantize { scale: 1.0, spec: QuantSpec::signed(8) }, vec![]);
        m.push(
            "fc",
            IntOp::Linear {
                weight: Tensor::from_vec(vec![1, 0, 0, 1], &[2, 2]).unwrap().into(),
                bias: None,
                requant: None,
                relu: false,
                weight_spec: QuantSpec::signed(8),
            },
            vec![], // missing operand
        );
        let x = Tensor::from_vec(vec![1.0_f32, 2.0], &[1, 2]).unwrap();
        let err = m.run(&x).unwrap_err();
        assert!(format!("{err}").contains("operand"), "unexpected error: {err}");

        // A binary op with only one listed input.
        let mut m = IntModel::new();
        m.push("input", IntOp::Quantize { scale: 1.0, spec: QuantSpec::signed(8) }, vec![]);
        m.push(
            "add",
            IntOp::AddRequant {
                m_a: fixed(1.0),
                m_b: fixed(1.0),
                out_spec: QuantSpec::signed(8),
                relu: false,
            },
            vec![Src::Node(0)],
        );
        assert!(m.run(&x).is_err());

        // Dangling / forward references already error; they must keep doing
        // so through run_quantized as well.
        let mut m = IntModel::new();
        m.push("input", IntOp::Quantize { scale: 1.0, spec: QuantSpec::signed(8) }, vec![]);
        m.push("flat", IntOp::Flatten, vec![Src::Node(7)]);
        let xq = Tensor::from_vec(vec![1, 2], &[1, 1, 1, 2]).unwrap();
        let err = m.run_quantized(&xq).unwrap_err();
        assert!(format!("{err}").contains("not-yet-computed"), "unexpected error: {err}");

        // A pool fed a flattened (rank-2) tensor and a pool window larger
        // than its input used to panic inside the kernels; padding that
        // reaches the kernel put windows entirely in padding (i32::MIN).
        let xq = Tensor::<i32>::zeros(&[1, 1, 4, 4]);
        let padded = PoolSpec { kernel: 1, stride: 1, padding: 1 };
        for (flatten, spec) in
            [(true, PoolSpec::new(2)), (false, PoolSpec::new(8)), (false, padded)]
        {
            let mut m = IntModel::new();
            m.push("input", IntOp::Quantize { scale: 1.0, spec: QuantSpec::signed(8) }, vec![]);
            if flatten {
                m.push("flat", IntOp::Flatten, vec![Src::Node(0)]);
            }
            let src = Src::Node(m.len() - 1);
            m.push("pool", IntOp::MaxPool2d { spec }, vec![src]);
            let err = m.run_quantized(&xq).unwrap_err();
            assert!(format!("{err}").contains("pool"), "error must name the node: {err}");
            assert!(m.infer_shapes(xq.dims()).is_err());
        }

        // A zero-extent operand used to panic the kernels' work split.
        let mut m = IntModel::new();
        m.push("input", IntOp::Quantize { scale: 1.0, spec: QuantSpec::signed(8) }, vec![]);
        let bmm = IntOp::BmmRequant {
            transpose_rhs: true,
            m: fixed(1.0),
            out_spec: QuantSpec::signed(8),
        };
        m.push("bmm", bmm, vec![Src::Node(0), Src::Node(0)]);
        assert!(m.run_quantized(&Tensor::zeros(&[1, 0, 2])).is_err());
    }

    #[test]
    fn op_cost_counts_macs_weights_and_elements() {
        let conv = IntOp::Conv2d {
            weight: Tensor::zeros(&[4, 2, 3, 3]),
            bias: None,
            spec: Conv2dSpec::new(1, 1),
            requant: MulQuant::from_float(
                &[0.5],
                &[0.0],
                FixedPointFormat::int16_frac12(),
                QuantSpec::signed(8),
            ),
            relu: false,
            weight_spec: QuantSpec::signed(8),
        };
        let out = conv.out_dims(&[&[2, 2, 5, 5]]).unwrap();
        assert_eq!(out, vec![2, 4, 5, 5]);
        let cost = conv.cost(&[&[2, 2, 5, 5]], &out);
        assert_eq!(
            cost,
            OpCost { macs: 200 * 18, weight_elems: 72, in_elems: 100, out_elems: 200 }
        );
        let bmm = IntOp::BmmRequant {
            transpose_rhs: true,
            m: fixed(1.0),
            out_spec: QuantSpec::signed(8),
        };
        let out = bmm.out_dims(&[&[2, 3, 4], &[2, 5, 4]]).unwrap();
        assert_eq!(out, vec![2, 3, 5]);
        assert_eq!(bmm.cost(&[&[2, 3, 4], &[2, 5, 4]], &out).macs, 30 * 4);
        assert!(bmm.out_dims(&[&[2, 3, 4], &[2, 4, 5]]).is_err(), "contraction mismatch");
    }

    #[test]
    fn op_metadata_accessors() {
        let q = IntOp::Quantize { scale: 0.1, spec: QuantSpec::unsigned(8) };
        assert_eq!(q.label(), "quantize");
        assert_eq!(q.out_spec(), Some(QuantSpec::unsigned(8)));
        assert_eq!(q.arity(), 0);
        assert_eq!(IntOp::Flatten.label(), "flatten");
        assert_eq!(IntOp::Flatten.out_spec(), None);
        assert_eq!(IntOp::Flatten.arity(), 1);
        let add = IntOp::AddRequant {
            m_a: fixed(1.0),
            m_b: fixed(0.5),
            out_spec: QuantSpec::signed(4),
            relu: false,
        };
        assert_eq!(add.arity(), 2);
        assert_eq!(add.out_spec(), Some(QuantSpec::signed(4)));
    }

    #[test]
    fn model_requires_leading_quantize() {
        let mut m = IntModel::new();
        m.push("flatten", IntOp::Flatten, vec![Src::Input]);
        assert!(m.run(&Tensor::ones(&[1, 1, 2, 2])).is_err());
    }

    #[test]
    fn add_requant_aligns_scales() {
        // a at scale 0.5, b at scale 0.25, out at scale 0.5:
        // a·1.0 + b·0.5
        let a = Tensor::from_vec(vec![4], &[1]).unwrap();
        let b = Tensor::from_vec(vec![4], &[1]).unwrap();
        let y = add_requant(&a, &b, fixed(1.0), fixed(0.5), QuantSpec::signed(8), false).unwrap();
        assert_eq!(y.as_slice(), &[6]);
    }

    #[test]
    fn global_avg_pool_fixed_point_division() {
        let x = Tensor::from_vec(vec![10, 20, 30, 40], &[1, 1, 2, 2]).unwrap();
        let y = global_avg_pool_i32(&x, 0);
        assert_eq!(y.as_slice(), &[25]);
        // With 4 fractional bits the mean carries sub-LSB precision.
        let x2 = Tensor::from_vec(vec![10, 11, 10, 11], &[1, 1, 2, 2]).unwrap();
        let y2 = global_avg_pool_i32(&x2, 4);
        assert_eq!(y2.as_slice(), &[168]); // 10.5 · 16
    }

    #[test]
    fn max_pool_int() {
        let x = Tensor::from_vec(vec![-5, 2, 7, 1], &[1, 1, 2, 2]).unwrap();
        let y = max_pool_i32(&x, PoolSpec::new(2));
        assert_eq!(y.as_slice(), &[7]);
    }

    #[test]
    fn token_ops_round_trip() {
        let x = Tensor::from_vec((0..12).collect::<Vec<i32>>(), &[1, 3, 4]).unwrap();
        let token = Tensor::from_vec(vec![100, 101, 102, 103], &[4]).unwrap();
        let with = concat_token(&x, &token);
        assert_eq!(with.dims(), &[1, 4, 4]);
        assert_eq!(take_token(&with, 0).unwrap().as_slice(), token.as_slice());
        assert_eq!(take_token(&with, 1).unwrap().as_slice(), &[0, 1, 2, 3]);
        assert!(take_token(&with, 4).is_err());
    }

    #[test]
    fn requant_op_rescales_between_grids() {
        // 8-bit stream (scale 0.02) → 2-bit conv input (scale 0.64):
        // m = 0.02/0.64 = 1/32.
        let mut m = IntModel::new();
        m.push("input", IntOp::Quantize { scale: 0.02, spec: QuantSpec::unsigned(8) }, vec![]);
        m.push(
            "in_requant",
            IntOp::Requant {
                m: FixedPointFormat::int16_frac12().quantize(1.0 / 32.0),
                out_spec: QuantSpec::unsigned(2),
            },
            vec![Src::Node(0)],
        );
        let x = Tensor::from_vec(vec![0.0_f32, 0.64, 1.28, 5.0], &[1, 4]).unwrap();
        let y = m.run(&x).unwrap();
        // codes 0, 32, 64, 250 → /32 → 0, 1, 2, clamp(8→3)
        assert_eq!(y.as_slice(), &[0, 1, 2, 3]);
    }

    #[test]
    fn split_merge_heads_inverse() {
        let mut m = IntModel::new();
        m.push("input", IntOp::Quantize { scale: 1.0, spec: QuantSpec::signed(8) }, vec![]);
        m.push("split", IntOp::SplitHeads { heads: 2 }, vec![Src::Node(0)]);
        m.push("merge", IntOp::MergeHeads { heads: 2 }, vec![Src::Node(1)]);
        let x = Tensor::from_fn(&[2, 3, 4], |i| (i as f32) - 10.0);
        let y = m.run(&x).unwrap();
        assert_eq!(y.dims(), &[2, 3, 4]);
        assert_eq!(y.as_slice(), x.map(|v| v as i32).as_slice());
    }

    #[test]
    fn layer_norm_int_standardizes_rows() {
        let d = 8;
        let ln = LayerNormInt {
            gamma_m: vec![FixedPointFormat::int16_frac12().quantize(1.0 / (0.05 * 64.0)).raw; d],
            beta_b: vec![0; d],
            frac: 12,
            shift: 6,
            out_spec: QuantSpec::signed(8),
        };
        let x = Tensor::from_vec(vec![100, 120, 80, 90, 110, 105, 95, 100], &[1, 8]).unwrap();
        let y = ln.apply(&x);
        // Output scale 0.05: dequantized row mean ≈ 0, std ≈ 1.
        let vals: Vec<f32> = y.as_slice().iter().map(|&v| v as f32 * 0.05).collect();
        let mean: f32 = vals.iter().sum::<f32>() / 8.0;
        assert!(mean.abs() < 0.1, "mean {mean}");
        let var: f32 = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 8.0;
        assert!((var - 1.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn sparsify_converts_pruned_linears_and_stays_bit_identical() {
        // fc: 2:4-patterned weights (50% zeros); head: dense. With
        // threshold 0.3 only fc converts, and it picks the N:M layout.
        let mut m = IntModel::new();
        m.push("input", IntOp::Quantize { scale: 0.1, spec: QuantSpec::signed(8) }, vec![]);
        let wfc = Tensor::from_fn(&[6, 8], |i| if i % 4 < 2 { (i as i32 % 5) - 2 } else { 0 });
        m.push(
            "fc",
            IntOp::Linear {
                weight: wfc.into(),
                bias: Some((0..6).map(|i| i as i64 - 3).collect()),
                requant: None,
                relu: false,
                weight_spec: QuantSpec::signed(4),
            },
            vec![Src::Node(0)],
        );
        let whead = Tensor::from_fn(&[3, 6], |i| (i as i32 % 5) - 2);
        m.push(
            "head",
            IntOp::Linear {
                weight: whead.into(),
                bias: None,
                requant: None,
                relu: false,
                weight_spec: QuantSpec::signed(4),
            },
            vec![Src::Node(1)],
        );
        let dense = m.clone();
        assert_eq!(m.sparsify(0.3), 1);
        assert_eq!(m.nodes[1].op.label(), "linear_sparse");
        assert_eq!(m.nodes[2].op.label(), "linear_int", "low-sparsity node stays dense");
        let IntOp::Linear {
            weight: LinearWeight::Sparse { mat: weight, declared_sparsity }, ..
        } = &m.nodes[1].op
        else {
            panic!("fc did not convert");
        };
        assert_eq!(weight.layout_label(), "2:4");
        assert!((declared_sparsity - weight.sparsity()).abs() < 1e-6);

        let x = Tensor::from_fn(&[4, 8], |i| (i as f32) * 0.07 - 1.1);
        let yd = dense.run(&x).unwrap();
        let ys = m.run(&x).unwrap();
        assert_eq!(yd.as_slice(), ys.as_slice());
        // Sparsity audit sees through the compressed storage.
        assert!((m.weight_sparsity() - dense.weight_sparsity()).abs() < 1e-6);
        // Compressed storage is smaller than dense at the same widths.
        assert!(m.weight_bytes() < dense.weight_bytes());
    }

    #[test]
    fn sparsify_prefers_bitmask_for_unstructured_masks() {
        let mut m = IntModel::new();
        m.push("input", IntOp::Quantize { scale: 0.1, spec: QuantSpec::signed(8) }, vec![]);
        // ~90% unstructured zeros: no N:M pattern fits tightly.
        let w = Tensor::from_fn(&[8, 10], |i| if i % 10 == 3 { 7 } else { 0 });
        m.push(
            "fc",
            IntOp::Linear {
                weight: w.into(),
                bias: None,
                requant: None,
                relu: false,
                weight_spec: QuantSpec::signed(8),
            },
            vec![Src::Node(0)],
        );
        assert_eq!(m.sparsify(0.5), 1);
        let IntOp::Linear { weight: LinearWeight::Sparse { mat: weight, .. }, .. } = &m.nodes[1].op
        else {
            panic!("not converted")
        };
        assert_eq!(weight.layout_label(), "bitmask");
        assert!((weight.sparsity() - 0.9).abs() < 1e-6);
    }

    #[test]
    fn sparsify_leaves_a_malformed_weight_dense() {
        // A rank-3 all-zero weight: the shape walk refuses the graph, and
        // sparsify must skip the node rather than panic compressing it.
        let mut m = IntModel::new();
        m.push("input", IntOp::Quantize { scale: 0.1, spec: QuantSpec::signed(8) }, vec![]);
        m.push(
            "fc",
            IntOp::Linear {
                weight: Tensor::<i32>::zeros(&[2, 2, 2]).into(),
                bias: None,
                requant: None,
                relu: false,
                weight_spec: QuantSpec::signed(8),
            },
            vec![Src::Node(0)],
        );
        assert!(m.infer_shapes(&[1, 2]).is_err());
        assert_eq!(m.sparsify(0.5), 0);
        assert_eq!(m.nodes[1].op.label(), "linear_int");
    }

    #[test]
    fn add_channel_bias_saturates_instead_of_wrapping() {
        // Accumulator near the positive rail plus a huge i64 bias: the old
        // `acc + bias` i64 add wrapped to a negative value for biases near
        // i64::MAX, producing i32::MIN instead of i32::MAX.
        let acc = Tensor::from_vec(vec![5, -5], &[1, 2]).unwrap();
        let y = add_channel_bias(&acc, &[i64::MAX, i64::MIN], 1);
        assert_eq!(y.as_slice(), &[i32::MAX, i32::MIN]);
        // Near-i32::MAX bias saturates onto the accumulator rail exactly.
        let y2 = add_channel_bias(&acc, &[i64::from(i32::MAX) - 1], 1);
        assert_eq!(y2.as_slice(), &[i32::MAX, i32::MAX - 6]);
        // Empty bias is a no-op, not an index underflow panic.
        let y3 = add_channel_bias(&acc, &[], 1);
        assert_eq!(y3.as_slice(), acc.as_slice());
    }

    #[test]
    fn intermediates_are_dropped_after_their_last_consumer() {
        // A deep chain of Requant nodes: with eager dropping the peak
        // liveness is 2 tensors (producer + consumer), not the whole chain.
        let mut m = IntModel::new();
        m.push("input", IntOp::Quantize { scale: 1.0, spec: QuantSpec::signed(8) }, vec![]);
        let depth = 16usize;
        for i in 0..depth {
            m.push(
                format!("rq{i}"),
                IntOp::Requant { m: fixed(1.0), out_spec: QuantSpec::signed(8) },
                vec![Src::Node(i)],
            );
        }
        let n = 64usize;
        let xq = Tensor::from_fn(&[1, n], |i| (i as i32 % 17) - 8);
        let (values, peak) = m.execute_droppable(&xq, false).unwrap();
        assert_eq!(peak, 2 * n, "peak {peak} elements, expected 2 tensors of {n}");
        // Every intermediate was released; only the output survives.
        for (i, v) in values.iter().enumerate() {
            assert_eq!(v.is_some(), i == depth, "node {i}");
        }
        // The keep-all path still retains everything (run_all contract)
        // and its peak is the full chain.
        let (all, peak_all) = m.execute_droppable(&xq, true).unwrap();
        assert!(all.iter().all(Option::is_some));
        assert_eq!(peak_all, (depth + 1) * n);
        // Outputs are identical either way.
        let y = m.run_quantized(&xq).unwrap();
        assert_eq!(y.as_slice(), all.last().unwrap().as_ref().unwrap().as_slice());
    }

    #[test]
    fn dropping_respects_multi_consumer_fanout() {
        // Node 0 feeds both branches of a residual add several steps
        // apart; it must stay live until the add consumes it.
        let mut m = IntModel::new();
        m.push("input", IntOp::Quantize { scale: 1.0, spec: QuantSpec::signed(8) }, vec![]);
        m.push(
            "rq",
            IntOp::Requant { m: fixed(0.5), out_spec: QuantSpec::signed(8) },
            vec![Src::Node(0)],
        );
        m.push(
            "add",
            IntOp::AddRequant {
                m_a: fixed(1.0),
                m_b: fixed(1.0),
                out_spec: QuantSpec::signed(8),
                relu: false,
            },
            vec![Src::Node(0), Src::Node(1)],
        );
        let xq = Tensor::from_vec(vec![10, -6, 4, 0], &[1, 4]).unwrap();
        let y = m.run_quantized(&xq).unwrap();
        assert_eq!(y.as_slice(), &[15, -9, 6, 0]);
    }

    #[test]
    fn bmm_requant_borrows_rhs_on_the_plain_branch() {
        // Both branches must agree with a manual bmm + per-tensor requant;
        // the plain branch used to clone its operand wholesale.
        let a = Tensor::from_fn(&[2, 3, 4], |i| (i as i32 % 11) - 5);
        let m_fix = fixed(0.25);
        let spec = QuantSpec::signed(8);
        let mut m = IntModel::new();
        m.push("input", IntOp::Quantize { scale: 1.0, spec: QuantSpec::signed(8) }, vec![]);
        m.push("split", IntOp::SplitHeads { heads: 1 }, vec![Src::Node(0)]);
        m.push(
            "bmm",
            IntOp::BmmRequant { transpose_rhs: false, m: m_fix, out_spec: spec },
            vec![Src::Node(1), Src::Node(1)],
        );
        // SplitHeads with 1 head is identity on [N, L, D]; bmm squares it.
        let sq = Tensor::from_fn(&[2, 4, 4], |i| (i as i32 % 5) - 2);
        let expect = requant_per_tensor(&sq.bmm_i(&sq).unwrap(), m_fix, spec, false);
        let y = m.run_quantized(&sq).unwrap();
        assert_eq!(y.as_slice(), expect.as_slice());

        // And the transposing branch matches a manual permute + bmm.
        let mut mt = IntModel::new();
        mt.push("input", IntOp::Quantize { scale: 1.0, spec: QuantSpec::signed(8) }, vec![]);
        mt.push("split", IntOp::SplitHeads { heads: 1 }, vec![Src::Node(0)]);
        mt.push(
            "bmm",
            IntOp::BmmRequant { transpose_rhs: true, m: m_fix, out_spec: spec },
            vec![Src::Node(1), Src::Node(1)],
        );
        let at = a.bmm_i(&a.permute(&[0, 2, 1]).unwrap()).unwrap();
        let expect_t = requant_per_tensor(&at, m_fix, spec, false);
        let yt = mt.run_quantized(&a).unwrap();
        assert_eq!(yt.as_slice(), expect_t.as_slice());
    }

    #[test]
    fn weight_accounting_scales_with_bits() {
        let mut m8 = IntModel::new();
        m8.push("input", IntOp::Quantize { scale: 1.0, spec: QuantSpec::signed(8) }, vec![]);
        let w = Tensor::<i32>::zeros(&[16, 16]);
        m8.push(
            "fc",
            IntOp::Linear {
                weight: w.clone().into(),
                bias: None,
                requant: None,
                relu: false,
                weight_spec: QuantSpec::signed(8),
            },
            vec![Src::Node(0)],
        );
        let mut m4 = m8.clone();
        if let IntOp::Linear { weight_spec, .. } = &mut m4.nodes[1].op {
            *weight_spec = QuantSpec::signed(4);
        }
        assert_eq!(m8.weight_bytes(), 256);
        assert_eq!(m4.weight_bytes(), 128);
        assert_eq!(m8.weight_sparsity(), 1.0);
    }
}
