//! Compiled execution plans: fused MAC epilogues + arena inference.
//!
//! [`IntModel::compile`] lowers the interpreted node graph into an
//! [`ExecPlan`] — a flat step list that the serving hot path replays with
//! **zero steady-state heap allocations** on one kernel thread:
//!
//! 1. **Fusion.** Every `Linear` (dense or sparse) / `Conv2d` node — which
//!    the reference interpreter runs as up to four full-tensor passes (MAC,
//!    channel bias, `MulQuant` requant + ReLU, optionally a following
//!    `GeluLut`) — becomes one fused step. Its epilogue is compiled into
//!    flat per-output-channel constants (channel bias, multiplier,
//!    pre-shift bias) plus scalars (shift, rounding half, a lower clamp
//!    with the ReLU folded in, an upper clamp, the folded table). The
//!    kernels of `t2c_tensor::fused` hand it each finished run of
//!    accumulators — a conv channel row, a GEMM tile row, a sparse row
//!    block — and it rewrites the run in place with flat loops that test
//!    no option and resolve no channel index per value, so the wide `i32`
//!    intermediate never materializes. `Bmm` hands it each finished batch
//!    matrix, and `Requant` steps run the same loop, both with one
//!    per-tensor channel. The epilogue is always inlined, so it runs in
//!    whichever instruction set the kernel body was dispatched to
//!    (`t2c_tensor::isa`).
//!    Dense linear weights are packed into GEMM panels **once, at compile
//!    time** — the panel layout belongs to the plan, and the graph keeps
//!    its plain dense weights (the interpreter's dense path transposes
//!    the weight on every call); sparse column indices are likewise
//!    precomputed. Convolutions keep the graph's `[oc, cg·kh·kw]`
//!    rows and run row by row in the interpreter's orientation (each
//!    channel row against the group's im2col patch block), with per-channel
//!    `Σ|w|` bounds computed at compile time. A `GeluLut` node is folded
//!    into its producer when it is the producer's sole consumer.
//! 2. **Liveness + arena.** A last-use pass computes, per node, the step
//!    after which its output is dead; a greedy best-fit allocator then
//!    assigns every output an offset in one shared scratch arena,
//!    returning freed intervals to a coalescing free list. Behind the node
//!    slots the arena reserves one im2col patch block — the largest any
//!    conv step needs, independent of the batch. The arena is sized at
//!    compile time ([`ExecPlan::arena_bytes`] per sample plus
//!    [`ExecPlan::scratch_bytes`]) and reused across batches — [`Arena`]
//!    grows monotonically and never shrinks, so steady-state inference
//!    touches the allocator only when a larger batch arrives. Batched
//!    matmuls accumulate straight into their destination slot.
//!
//! # Bit-identity
//!
//! Plan execution is bit-identical to [`IntModel::run_quantized`] at any
//! `T2C_THREADS` setting, by composition of two arguments:
//!
//! * The fused kernels keep the per-output-element reduction order and
//!   per-MAC saturation chain of the unfused kernels untouched (see
//!   `t2c_tensor::fused`); only *where* the finished accumulator is
//!   written changes.
//! * The compiled epilogue computes, per value, what the interpreter's
//!   `add_channel_bias` → [`MulQuant::apply_scalar_relu`] →
//!   [`GeluLut::lookup`] chain computes. Channel `c`'s constants are
//!   resolved at compile time with the interpreter's index rule —
//!   `bias[min(c, len−1)]` (an empty bias adds nothing),
//!   `scale_raw[min(c, S−1)]`, `bias_raw[min(min(c, S−1), B−1)]` — and
//!   the arithmetic keeps its association `(x·s + b) + half`. Channel
//!   biases are pinned to `±2^32` first, which cannot change a
//!   saturating add onto an `i32` accumulator, and ReLU-then-clamp
//!   becomes one `max(lo).min(hi)`. The non-fused steps call the very
//!   same slice cores (`apply_into`, `max_pool_into`, …) that the
//!   interpreter's tensor wrappers delegate to.
//!
//! Plans are compiled **per sample shape**: batch-1 shapes are inferred
//! once and every slot offset scales linearly with the runtime batch,
//! which preserves interval disjointness (every zoo op's leading axis is
//! linear in the batch). The graph itself is untouched — lint,
//! error-bound certification, export and the accelerator simulator keep
//! operating on the `IntModel`, so their verdicts apply to the plan
//! verbatim.
//!
//! When profiling is enabled, compiling emits the `plan.arena_bytes` and
//! `plan.fused_nodes` gauges.

use t2c_tensor::ops::{bmm_i32_sat_into, Conv2dSpec, PoolSpec};
use t2c_tensor::{
    conv2d_fused_into, gemm_fused_into, spmm_fused_into, ConvWeight, PackedMat, RowChannels,
    SparseMat, Tensor, TensorError,
};

use crate::fixed::FixedScalar;
use crate::intmodel::{
    add_const_requant_scalar, add_requant_scalar, concat_token_into, global_avg_pool_into,
    max_pool_into, take_token_into, IntModel, IntNode, IntOp, LayerNormInt, LinearWeight, Src,
};
use crate::lut::{GeluLut, SoftmaxLut};
use crate::mulquant::MulQuant;
use crate::qconfig::QuantSpec;
use crate::Result;

/// A reusable scratch buffer for plan execution. One arena per worker: it
/// grows monotonically to the largest `arena_words × batch + scratch_words`
/// seen and is reused across batches, so steady-state inference allocates
/// nothing.
#[derive(Debug, Default)]
pub struct Arena {
    buf: Vec<i32>,
}

impl Arena {
    /// An empty arena; the first [`ExecPlan::run_quantized_into`] call
    /// sizes it.
    pub fn new() -> Self {
        Arena::default()
    }

    /// Current capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.buf.len() * 4
    }

    /// Grows (never shrinks) the buffer to at least `words` values.
    fn ensure(&mut self, words: usize) -> &mut [i32] {
        if self.buf.len() < words {
            self.buf.resize(words, 0);
        }
        &mut self.buf[..words]
    }
}

/// Channel biases are clamped to `±2^32` when an epilogue is compiled:
/// any larger bias already pins every `i32` accumulator to the same rail
/// under the interpreter's `saturating_add` + clamp, and a clamped one
/// lets the plan add without saturating.
const BIAS_PIN: i64 = 1 << 32;

/// One output channel's constants in a compiled [`Epilogue`].
#[derive(Debug, Clone, Copy)]
struct ChannelConst {
    /// Channel bias (pinned to `±BIAS_PIN`), 0 when the node has none.
    bias: i64,
    /// Fixed-point multiplier (`MulQuant::scale_raw`).
    scale: i64,
    /// Pre-shift fixed-point bias (`MulQuant::bias_raw`).
    offset: i64,
}

/// The tail of a fused MAC step, compiled to flat per-channel constants:
/// channel bias (saturating at the `i32` accumulator rails), `MulQuant`
/// requant with the ReLU folded into its lower clamp, and an optionally
/// folded GELU table. Each channel's constants are resolved once, at
/// compile time, with the interpreter's index rule, and the fused kernels
/// hand it whole runs of finished accumulators (see [`Epilogue::apply`]).
/// `Requant` and `Bmm` steps use a one-channel epilogue with the node's
/// per-tensor multiplier.
#[derive(Debug, Clone)]
struct Epilogue {
    channels: Vec<ChannelConst>,
    shift: u32,
    /// The round-half-up addend `2^(shift−1)` (0 when `shift` is 0).
    half: i64,
    /// Lower clamp: the output grid's `qmin`, raised to 0 under ReLU.
    lo: i32,
    /// Upper clamp: the output grid's `qmax`.
    hi: i32,
    lut: Option<GeluLut>,
}

impl Epilogue {
    /// Compiles a MAC node's tail for `channels` output channels. Channel
    /// `c` takes `bias[min(c, len−1)]` (an empty or absent bias adds
    /// nothing), `scale_raw[min(c, S−1)]` and `bias_raw[min(min(c, S−1),
    /// B−1)]` — exactly [`MulQuant::apply_scalar_relu`]'s rule. Without a
    /// requantizer the tail is the biased accumulator itself (multiplier
    /// 1, no shift, clamped to the `i32` rails, ReLU ignored as the
    /// interpreter ignores it).
    fn compile(
        channels: usize,
        bias: Option<&[i64]>,
        requant: Option<&MulQuant>,
        relu: bool,
        lut: Option<GeluLut>,
    ) -> Self {
        let channels = (0..channels)
            .map(|c| {
                let bias = match bias {
                    Some(b) if !b.is_empty() => b[c.min(b.len() - 1)].clamp(-BIAS_PIN, BIAS_PIN),
                    _ => 0,
                };
                let Some(r) = requant else { return ChannelConst { bias, scale: 1, offset: 0 } };
                let i = c.min(r.scale_raw.len() - 1);
                let (scale, offset) = (r.scale_raw[i], r.bias_raw[i.min(r.bias_raw.len() - 1)]);
                ChannelConst { bias, scale: i64::from(scale), offset }
            })
            .collect();
        let (shift, lo, hi) = match requant {
            Some(r) => {
                let qmin = r.out_spec.qmin();
                let lo = if relu { qmin.max(0) } else { qmin };
                (u32::from(r.format.frac_bits), lo, r.out_spec.qmax())
            }
            None => (0, i32::MIN, i32::MAX),
        };
        // `round_shift`'s addend, with a release build's shift semantics.
        let half = if shift == 0 { 0 } else { 1i64.wrapping_shl(shift - 1) };
        Epilogue { channels, shift, half, lo, hi, lut }
    }

    /// A one-channel epilogue for a per-tensor `FixedScalar` requant onto
    /// `out_spec` (the interpreter's `requant_scalar` without ReLU).
    fn per_tensor(m: FixedScalar, out_spec: QuantSpec) -> Self {
        let mq = MulQuant { scale_raw: vec![m.raw], bias_raw: vec![0], format: m.format, out_spec };
        Self::compile(1, None, Some(&mq), false, None)
    }

    /// Rewrites a finished run of accumulators in place with the narrow
    /// outputs: `clamp((clamp_i32(acc + bias)·scale + offset + half) >>
    /// shift, lo, hi)` per value, then the folded GELU table. The add
    /// keeps the interpreter's association `(x·s + b) + half`, and
    /// `max(lo).min(hi)` equals its ReLU-then-clamp, so every value is
    /// bit-identical to the per-element chain.
    ///
    /// The shifted value is first saturated onto the `i32` rails, which
    /// cannot change the result (`[lo, hi]` lies inside them) but lets the
    /// output clamp run as its own pass of `i32` selects. Those compile to
    /// branch-free vector code; clamping in the `i64` pass instead
    /// compiles to branches that data near a ReLU or grid edge keeps
    /// mispredicting.
    ///
    /// Always inlined, so that it is compiled into each ISA's
    /// instantiation of the fused kernel body that calls it.
    #[inline(always)]
    fn apply(&self, run: &mut [i32], chans: RowChannels) {
        let (shift, half) = (self.shift, self.half);
        let (min, max) = (i64::from(i32::MIN), i64::from(i32::MAX));
        let wide = |acc: i32, k: &ChannelConst| -> i32 {
            let v = (i64::from(acc) + k.bias).clamp(min, max);
            ((v * k.scale + k.offset + half) >> shift).clamp(min, max) as i32
        };
        match chans {
            RowChannels::One(c) => {
                let k = self.channels[c];
                for v in run.iter_mut() {
                    *v = wide(*v, &k);
                }
            }
            RowChannels::From(c0) => {
                let consts = &self.channels[c0..c0 + run.len()];
                for (v, k) in run.iter_mut().zip(consts) {
                    *v = wide(*v, k);
                }
            }
        }
        let (lo, hi) = (self.lo, self.hi);
        for v in run.iter_mut() {
            *v = (*v).max(lo).min(hi);
        }
        if let Some(lut) = &self.lut {
            for v in run.iter_mut() {
                *v = lut.lookup(*v);
            }
        }
    }

    /// Graph nodes this epilogue absorbs beyond the MAC node itself.
    fn folded(&self) -> usize {
        usize::from(self.lut.is_some())
    }
}

/// Where a node's output lives at execution time.
#[derive(Debug, Clone, Copy)]
enum SlotKind {
    /// An interval of the arena (offset/len are per-sample words, scaled
    /// by the runtime batch).
    Arena,
    /// The node's output *is* the quantized model input (`Quantize`).
    InputAlias,
    /// Never materialized (a folded node, or a node without a step).
    Dead,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    offset: usize,
    len: usize,
    kind: SlotKind,
}

/// One compiled step. `dst` is the graph node whose value the step
/// produces (for a fused producer+GELU pair, the GELU node); `in_dims`
/// fields hold batch-1 operand shapes whose leading axis scales with the
/// runtime batch.
#[derive(Debug, Clone)]
enum Step {
    /// A `Quantize` node: no work, the slot aliases the input.
    InputAlias { dst: usize },
    /// Raw data copy (`Flatten` — a reshape never moves values).
    Copy { src: Src, dst: usize },
    /// Fused dense/packed linear: packed GEMM + epilogue.
    Gemm { src: Src, dst: usize, weight: PackedMat, epi: Epilogue },
    /// Fused sparse linear: skip-zero matmul + epilogue.
    Spmm { src: Src, dst: usize, weight: SparseMat, cols: Vec<u32>, epi: Epilogue },
    /// Fused convolution: row-oriented conv + epilogue, unrolling into
    /// the arena's patch scratch.
    Conv {
        src: Src,
        dst: usize,
        weight: ConvWeight,
        spec: Conv2dSpec,
        epi: Epilogue,
        in_dims: [usize; 4],
    },
    /// Residual add with per-branch rescale.
    AddRequant {
        a: Src,
        b: Src,
        dst: usize,
        m_a: FixedScalar,
        m_b: FixedScalar,
        out_spec: QuantSpec,
        relu: bool,
    },
    /// Pre-quantized constant add (position embeddings).
    AddConst { src: Src, dst: usize, value: Vec<i32>, m: FixedScalar, out_spec: QuantSpec },
    /// Integer max pooling.
    MaxPool { src: Src, dst: usize, spec: PoolSpec, in_dims: [usize; 4] },
    /// Global average pooling.
    GlobalAvgPool { src: Src, dst: usize, frac_bits: u8, in_dims: [usize; 4] },
    /// `[N, D, h, w] → [N, h·w, D]`.
    PatchToTokens { src: Src, dst: usize, in_dims: [usize; 4] },
    /// Class-token prepend.
    ConcatToken { src: Src, dst: usize, token: Vec<i32>, in_dims: [usize; 3] },
    /// Token extraction.
    TakeToken { src: Src, dst: usize, index: usize, in_dims: [usize; 3] },
    /// `[N, L, H·Dh] → [N·H, L, Dh]`.
    SplitHeads { src: Src, dst: usize, heads: usize, in_dims: [usize; 3] },
    /// `[N·H, L, Dh] → [N, L, H·Dh]`.
    MergeHeads { src: Src, dst: usize, heads: usize, in_dims: [usize; 3] },
    /// Elementwise rescale between grids (a one-channel epilogue).
    Requant { src: Src, dst: usize, epi: Epilogue },
    /// Integer LayerNorm over rows of `d`.
    LayerNorm { src: Src, dst: usize, ln: LayerNormInt, d: usize },
    /// LUT softmax over rows of `cols`.
    Softmax { src: Src, dst: usize, lut: SoftmaxLut, cols: usize },
    /// Standalone LUT GELU (one that could not be folded).
    Gelu { src: Src, dst: usize, lut: GeluLut },
    /// Batched matmul accumulated into the destination slot, each batch
    /// matrix requantized by a one-channel epilogue as it is finished.
    Bmm {
        a: Src,
        b: Src,
        dst: usize,
        transpose_rhs: bool,
        epi: Epilogue,
        a_dims: [usize; 3],
        b_dims: [usize; 3],
    },
}

impl Step {
    fn dst(&self) -> usize {
        match self {
            Step::InputAlias { dst }
            | Step::Copy { dst, .. }
            | Step::Gemm { dst, .. }
            | Step::Spmm { dst, .. }
            | Step::Conv { dst, .. }
            | Step::AddRequant { dst, .. }
            | Step::AddConst { dst, .. }
            | Step::MaxPool { dst, .. }
            | Step::GlobalAvgPool { dst, .. }
            | Step::PatchToTokens { dst, .. }
            | Step::ConcatToken { dst, .. }
            | Step::TakeToken { dst, .. }
            | Step::SplitHeads { dst, .. }
            | Step::MergeHeads { dst, .. }
            | Step::Requant { dst, .. }
            | Step::LayerNorm { dst, .. }
            | Step::Softmax { dst, .. }
            | Step::Gelu { dst, .. }
            | Step::Bmm { dst, .. } => *dst,
        }
    }

    /// Sources this step reads (for liveness).
    fn reads(&self) -> Vec<Src> {
        match self {
            Step::InputAlias { .. } => vec![],
            Step::Copy { src, .. }
            | Step::Gemm { src, .. }
            | Step::Spmm { src, .. }
            | Step::Conv { src, .. }
            | Step::AddConst { src, .. }
            | Step::MaxPool { src, .. }
            | Step::GlobalAvgPool { src, .. }
            | Step::PatchToTokens { src, .. }
            | Step::ConcatToken { src, .. }
            | Step::TakeToken { src, .. }
            | Step::SplitHeads { src, .. }
            | Step::MergeHeads { src, .. }
            | Step::Requant { src, .. }
            | Step::LayerNorm { src, .. }
            | Step::Softmax { src, .. }
            | Step::Gelu { src, .. } => vec![*src],
            Step::AddRequant { a, b, .. } | Step::Bmm { a, b, .. } => vec![*a, *b],
        }
    }
}

/// A compiled, shape-specialized execution plan (see the module docs).
/// Built by [`IntModel::compile`]; the model graph itself is untouched,
/// so every static analysis of the `IntModel` applies to the plan
/// verbatim.
#[derive(Debug, Clone)]
pub struct ExecPlan {
    steps: Vec<Step>,
    slots: Vec<Slot>,
    arena_words: usize,
    input_dims1: Vec<usize>,
    out_dims1: Vec<usize>,
    out_node: usize,
    in_quant: Option<(f32, QuantSpec)>,
    fused_nodes: usize,
    scratch_words: usize,
}

impl IntModel {
    /// Compiles the model for samples of shape `input_dims` (the leading
    /// axis is treated as the batch and normalized to 1): infers every
    /// node's shape statically ([`IntModel::infer_shapes`] — nothing
    /// executes), packs dense weights, fuses MAC epilogues, runs liveness
    /// and lays node outputs into a shared arena. The model is unchanged —
    /// keep using it for lint, certification, export and as the reference
    /// oracle ([`IntModel::run_quantized`]) that plan outputs are checked
    /// against.
    ///
    /// # Errors
    ///
    /// Returns an error if the model is empty, a node's sources or shape
    /// rule fail on the given shape, a weight fails validation / packing,
    /// or a LUT's table does not cover what the step indexes (a GELU
    /// table shorter than its input grid, an empty softmax table).
    pub fn compile(&self, input_dims: &[usize]) -> Result<ExecPlan> {
        if self.nodes.is_empty() {
            return Err(TensorError::InvalidArgument("cannot compile an empty IntModel".into()));
        }
        if input_dims.is_empty() {
            return Err(TensorError::InvalidArgument(
                "plan input shape needs at least a batch axis".into(),
            ));
        }
        let mut dims1 = input_dims.to_vec();
        dims1[0] = 1;
        // The static shape walk doubles as full graph validation: sources,
        // arity, ranks, extents and parameter lengths all fail here,
        // before any packing work, and nothing executes.
        let shapes = self.infer_shapes(&dims1)?;
        let n = self.nodes.len();

        // Consumer census drives GELU folding: a LUT GELU whose operand
        // is a MAC node with no other reader merges into that node's
        // epilogue.
        let mut consumers = vec![0usize; n];
        for node in &self.nodes {
            for src in &node.inputs {
                if let Src::Node(id) = src {
                    consumers[*id] += 1;
                }
            }
        }
        let mut fold_dst: Vec<Option<usize>> = vec![None; n];
        let mut folded = vec![false; n];
        for (j, node) in self.nodes.iter().enumerate() {
            if !matches!(node.op, IntOp::GeluLut(_)) {
                continue;
            }
            let [Src::Node(i)] = node.inputs.as_slice() else { continue };
            if consumers[*i] != 1 {
                continue;
            }
            if matches!(self.nodes[*i].op, IntOp::Linear { .. } | IntOp::Conv2d { .. }) {
                fold_dst[*i] = Some(j);
                folded[j] = true;
            }
        }

        let shape_of = |src: &Src| -> &[usize] {
            match src {
                Src::Input => &dims1,
                Src::Node(id) => &shapes[*id],
            }
        };
        let geo4 = |src: &Src| -> [usize; 4] {
            let s = shape_of(src);
            [s[0], s[1], s[2], s[3]]
        };
        let geo3 = |src: &Src| -> [usize; 3] {
            let s = shape_of(src);
            [s[0], s[1], s[2]]
        };
        let lut_of = |i: usize| -> Option<GeluLut> {
            fold_dst[i].map(|j| match &self.nodes[j].op {
                IntOp::GeluLut(l) => l.clone(),
                _ => unreachable!("fold targets are GeluLut nodes"),
            })
        };

        let mut fused_nodes = 0usize;
        // A MAC node's fused epilogue over its `channels` outputs, counting
        // the nodes it absorbs.
        let mut epilogue = |i: usize, channels, bias: &Option<Vec<i64>>, requant, relu: &bool| {
            let epi = Epilogue::compile(channels, bias.as_deref(), requant, *relu, lut_of(i));
            fused_nodes += 1 + epi.folded();
            epi
        };
        let mut steps = Vec::with_capacity(n);
        let mut scratch_words = 0usize;
        for (i, node) in self.nodes.iter().enumerate() {
            check_table(i, node)?;
            if folded[i] {
                continue;
            }
            let dst = fold_dst[i].unwrap_or(i);
            // `infer_shapes` proved every operand is listed.
            let operand = |idx: usize| node.inputs[idx];
            let step = match &node.op {
                IntOp::Quantize { .. } => Step::InputAlias { dst },
                IntOp::Linear { weight, bias, requant, relu, .. } => {
                    let epi = epilogue(i, weight.dims()[0], bias, requant.as_ref(), relu);
                    let src = operand(0);
                    match weight {
                        LinearWeight::Dense(w) => {
                            Step::Gemm { src, dst, weight: PackedMat::from_weight(w)?, epi }
                        }
                        LinearWeight::Sparse { mat, .. } => {
                            mat.validate().map_err(|e| {
                                TensorError::InvalidArgument(format!(
                                    "node {i} ({}) has an invalid sparse weight: {e}",
                                    node.name
                                ))
                            })?;
                            Step::Spmm {
                                src,
                                dst,
                                cols: mat.col_indices(),
                                weight: mat.clone(),
                                epi,
                            }
                        }
                    }
                }
                IntOp::Conv2d { weight, bias, spec, requant, relu, .. } => {
                    let epi = epilogue(i, weight.dim(0), bias, Some(requant), relu);
                    let src = operand(0);
                    let (weight, in_dims) = (ConvWeight::new(weight, spec.groups)?, geo4(&src));
                    let need = weight.scratch_len(in_dims[2], in_dims[3], *spec)?;
                    scratch_words = scratch_words.max(need);
                    Step::Conv { dst, weight, spec: *spec, epi, in_dims, src }
                }
                IntOp::AddRequant { m_a, m_b, out_spec, relu } => Step::AddRequant {
                    a: operand(0),
                    b: operand(1),
                    dst,
                    m_a: *m_a,
                    m_b: *m_b,
                    out_spec: *out_spec,
                    relu: *relu,
                },
                IntOp::AddConstRequant { value, m, out_spec } => Step::AddConst {
                    src: operand(0),
                    dst,
                    value: value.as_slice().to_vec(),
                    m: *m,
                    out_spec: *out_spec,
                },
                IntOp::MaxPool2d { spec } => {
                    let src = operand(0);
                    Step::MaxPool { dst, spec: *spec, in_dims: geo4(&src), src }
                }
                IntOp::GlobalAvgPool { frac_bits } => {
                    let src = operand(0);
                    Step::GlobalAvgPool { dst, frac_bits: *frac_bits, in_dims: geo4(&src), src }
                }
                IntOp::Flatten => Step::Copy { src: operand(0), dst },
                IntOp::PatchToTokens => {
                    let src = operand(0);
                    Step::PatchToTokens { dst, in_dims: geo4(&src), src }
                }
                IntOp::ConcatToken { token } => {
                    let src = operand(0);
                    Step::ConcatToken {
                        dst,
                        token: token.as_slice().to_vec(),
                        in_dims: geo3(&src),
                        src,
                    }
                }
                IntOp::TakeToken { index } => {
                    let src = operand(0);
                    Step::TakeToken { dst, index: *index, in_dims: geo3(&src), src }
                }
                IntOp::SplitHeads { heads } => {
                    let src = operand(0);
                    Step::SplitHeads { dst, heads: *heads, in_dims: geo3(&src), src }
                }
                IntOp::MergeHeads { heads } => {
                    let src = operand(0);
                    Step::MergeHeads { dst, heads: *heads, in_dims: geo3(&src), src }
                }
                IntOp::BmmRequant { transpose_rhs, m, out_spec } => {
                    let (a, b) = (operand(0), operand(1));
                    Step::Bmm {
                        dst,
                        transpose_rhs: *transpose_rhs,
                        epi: Epilogue::per_tensor(*m, *out_spec),
                        a_dims: geo3(&a),
                        b_dims: geo3(&b),
                        a,
                        b,
                    }
                }
                IntOp::Requant { m, out_spec } => {
                    Step::Requant { src: operand(0), dst, epi: Epilogue::per_tensor(*m, *out_spec) }
                }
                IntOp::LayerNorm(ln) => {
                    let src = operand(0);
                    let d = *shape_of(&src).last().unwrap_or(&1);
                    Step::LayerNorm { src, dst, ln: ln.clone(), d }
                }
                IntOp::SoftmaxLut(lut) => {
                    let src = operand(0);
                    let cols = *shape_of(&src).last().unwrap_or(&1);
                    Step::Softmax { src, dst, lut: lut.clone(), cols }
                }
                IntOp::GeluLut(lut) => Step::Gelu { src: operand(0), dst, lut: lut.clone() },
            };
            steps.push(step);
        }

        // Liveness over steps: a node dies after the last step reading
        // it; the model output never dies.
        let out_node = n - 1;
        let mut last = vec![0usize; n];
        for (s, step) in steps.iter().enumerate() {
            last[step.dst()] = s;
            for src in step.reads() {
                if let Src::Node(id) = src {
                    last[id] = last[id].max(s);
                }
            }
        }
        last[out_node] = usize::MAX;

        // Greedy best-fit arena assignment. Intervals freed *strictly
        // before* the current step return to a coalescing free list, so a
        // step's destination can never land on one of its own operands.
        let mut slots = vec![Slot { offset: 0, len: 0, kind: SlotKind::Dead }; n];
        let mut free: Vec<(usize, usize)> = Vec::new();
        let mut released = vec![false; n];
        let mut arena_words = 0usize;
        for (s, step) in steps.iter().enumerate() {
            for node in 0..n {
                if !released[node] && matches!(slots[node].kind, SlotKind::Arena) && last[node] < s
                {
                    free_insert(&mut free, slots[node].offset, slots[node].len);
                    released[node] = true;
                }
            }
            let dst = step.dst();
            let len = shapes[dst].iter().product::<usize>();
            slots[dst] = if matches!(step, Step::InputAlias { .. }) {
                Slot { offset: 0, len, kind: SlotKind::InputAlias }
            } else {
                Slot {
                    offset: best_fit(&mut free, &mut arena_words, len),
                    len,
                    kind: SlotKind::Arena,
                }
            };
        }

        let in_quant = match self.nodes[0].op {
            IntOp::Quantize { scale, spec } => Some((scale, spec)),
            _ => None,
        };
        if t2c_obs::enabled() {
            t2c_obs::gauge_set("plan.arena_bytes", (arena_words * 4) as f64);
            t2c_obs::gauge_set("plan.fused_nodes", fused_nodes as f64);
        }
        Ok(ExecPlan {
            steps,
            slots,
            arena_words,
            input_dims1: dims1,
            out_dims1: shapes[out_node].clone(),
            out_node,
            in_quant,
            fused_nodes,
            scratch_words,
        })
    }
}

/// Refuses a LUT node whose table a plan step would index out of bounds:
/// a GELU table shorter than its input grid, or an empty softmax table.
/// Lint reports both (T2C301), but a model admitted without lint must
/// fail here, with an error, rather than panic in the worker that runs
/// it.
fn check_table(i: usize, node: &IntNode) -> Result<()> {
    let gap = match &node.op {
        IntOp::GeluLut(lut) => {
            let codes = i64::from(lut.in_spec.qmax()) - i64::from(lut.in_spec.qmin()) + 1;
            let len = lut.table.len();
            ((len as i64) < codes)
                .then(|| format!("GELU table has {len} entries for {codes} input codes"))
        }
        IntOp::SoftmaxLut(lut) => {
            lut.table.is_empty().then(|| "softmax exp table is empty".to_owned())
        }
        _ => None,
    };
    match gap {
        Some(gap) => Err(TensorError::InvalidArgument(format!("node {i} ({}): {gap}", node.name))),
        None => Ok(()),
    }
}

/// Returns `(offset, len)` intervals to an offset-sorted free list,
/// coalescing with adjacent neighbours.
fn free_insert(free: &mut Vec<(usize, usize)>, off: usize, len: usize) {
    if len == 0 {
        return;
    }
    let pos = free.partition_point(|&(o, _)| o < off);
    free.insert(pos, (off, len));
    if pos + 1 < free.len() && free[pos].0 + free[pos].1 == free[pos + 1].0 {
        free[pos].1 += free[pos + 1].1;
        free.remove(pos + 1);
    }
    if pos > 0 && free[pos - 1].0 + free[pos - 1].1 == free[pos].0 {
        free[pos - 1].1 += free[pos].1;
        free.remove(pos);
    }
}

/// Best-fit allocation: the smallest free interval that holds `len`
/// (lowest offset on ties), else fresh words at the arena's end.
fn best_fit(free: &mut Vec<(usize, usize)>, arena_words: &mut usize, len: usize) -> usize {
    if len == 0 {
        return 0;
    }
    let mut best: Option<usize> = None;
    for (idx, &(_, flen)) in free.iter().enumerate() {
        if flen >= len && best.is_none_or(|b| flen < free[b].1) {
            best = Some(idx);
        }
    }
    match best {
        Some(idx) => {
            let (off, flen) = free[idx];
            if flen == len {
                free.remove(idx);
            } else {
                free[idx] = (off + len, flen - len);
            }
            off
        }
        None => {
            let off = *arena_words;
            *arena_words += len;
            off
        }
    }
}

impl ExecPlan {
    /// Number of graph nodes executed inside fused MAC steps (each MAC
    /// node plus any folded activation).
    pub fn fused_nodes(&self) -> usize {
        self.fused_nodes
    }

    /// Peak footprint of the node slots per sample, in bytes. The runtime
    /// arena holds `arena_bytes() × batch + scratch_bytes()`.
    pub fn arena_bytes(&self) -> usize {
        self.arena_words * 4
    }

    /// The conv patch scratch the arena reserves behind the node slots, in
    /// bytes: the largest im2col block any conv step unrolls, whatever the
    /// batch (0 when no conv step unrolls).
    pub fn scratch_bytes(&self) -> usize {
        self.scratch_words * 4
    }

    /// The batch-1 input shape the plan was compiled for.
    pub fn input_dims(&self) -> &[usize] {
        &self.input_dims1
    }

    /// The output shape for a batch of `batch` samples.
    pub fn output_dims(&self, batch: usize) -> Vec<usize> {
        let mut dims = self.out_dims1.clone();
        if let Some(d0) = dims.first_mut() {
            *d0 *= batch;
        }
        dims
    }

    /// Validates a quantized input against the compiled sample shape and
    /// returns the batch size.
    fn batch_of(&self, dims: &[usize]) -> Result<usize> {
        if dims.len() != self.input_dims1.len()
            || dims[1..] != self.input_dims1[1..]
            || dims[0] == 0
        {
            return Err(TensorError::InvalidArgument(format!(
                "plan compiled for samples of {:?} cannot run input {dims:?}",
                self.input_dims1
            )));
        }
        Ok(dims[0])
    }

    /// Runs the plan on an already-quantized input, writing the flat
    /// output into `out` (cleared and refilled — reuse the same `Vec`
    /// across calls to keep the steady state allocation-free once its
    /// capacity has grown).
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape disagrees with the compiled
    /// sample shape.
    pub fn run_quantized_into(
        &self,
        x: &Tensor<i32>,
        arena: &mut Arena,
        out: &mut Vec<i32>,
    ) -> Result<()> {
        let bs = self.batch_of(x.dims())?;
        let xs = x.as_slice();
        let words = self.arena_words * bs;
        let (buf, scratch) = arena.ensure(words + self.scratch_words).split_at_mut(words);
        for step in &self.steps {
            exec_step(step, &self.slots, xs, bs, buf, scratch)?;
        }
        out.clear();
        let slot = self.slots[self.out_node];
        match slot.kind {
            SlotKind::InputAlias => out.extend_from_slice(xs),
            SlotKind::Arena => {
                out.extend_from_slice(&buf[slot.offset * bs..(slot.offset + slot.len) * bs]);
            }
            SlotKind::Dead => {
                return Err(TensorError::InvalidArgument(
                    "plan output slot was never materialized".into(),
                ))
            }
        }
        Ok(())
    }

    /// Runs the plan on an already-quantized input — the convenience
    /// wrapper serve workers use (one allocation, for the output tensor).
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape disagrees with the compiled
    /// sample shape.
    pub fn run_quantized(&self, x: &Tensor<i32>, arena: &mut Arena) -> Result<Tensor<i32>> {
        let bs = self.batch_of(x.dims())?;
        let mut out = Vec::new();
        self.run_quantized_into(x, arena, &mut out)?;
        Tensor::from_vec(out, &self.output_dims(bs))
    }

    /// Runs the plan on a float input batch, quantizing through the
    /// model's leading `Quantize` node exactly like [`IntModel::run`].
    ///
    /// # Errors
    ///
    /// Returns an error if the model had no leading `Quantize` node or
    /// the input shape disagrees with the compiled sample shape.
    pub fn run(&self, x: &Tensor<f32>, arena: &mut Arena) -> Result<Tensor<i32>> {
        let Some((scale, spec)) = self.in_quant else {
            return Err(TensorError::InvalidArgument(
                "IntModel must start with a Quantize node".into(),
            ));
        };
        let q = x.map(|v| ((v / scale).round() as i32).clamp(spec.qmin(), spec.qmax()));
        self.run_quantized(&q, arena)
    }
}

/// Resolves a step operand to a slice: the model input, or its arena
/// interval re-anchored to the halves left / right of the mutably split
/// destination interval `[d0, d1)`.
#[allow(clippy::too_many_arguments)]
fn read_slice<'a>(
    slots: &[Slot],
    src: Src,
    xs: &'a [i32],
    left: &'a [i32],
    right: &'a [i32],
    d0: usize,
    d1: usize,
    bs: usize,
) -> Result<&'a [i32]> {
    match src {
        Src::Input => Ok(xs),
        Src::Node(id) => {
            let s = slots[id];
            match s.kind {
                SlotKind::InputAlias => Ok(xs),
                SlotKind::Dead => Err(TensorError::InvalidArgument(format!(
                    "plan step reads unmaterialized node {id}"
                ))),
                SlotKind::Arena => {
                    let (a, z) = (s.offset * bs, (s.offset + s.len) * bs);
                    // Live intervals are disjoint, so a source lies
                    // entirely on one side of the destination.
                    if z <= d0 {
                        Ok(&left[a..z])
                    } else {
                        Ok(&right[a - d1..z - d1])
                    }
                }
            }
        }
    }
}

fn scale4(mut d: [usize; 4], bs: usize) -> [usize; 4] {
    d[0] *= bs;
    d
}

fn scale3(mut d: [usize; 3], bs: usize) -> [usize; 3] {
    d[0] *= bs;
    d
}

/// Executes one step against the arena: the destination interval is
/// split out of `buf` mutably, operands resolve through [`read_slice`],
/// and conv steps unroll their patches into `scratch`.
fn exec_step(
    step: &Step,
    slots: &[Slot],
    xs: &[i32],
    bs: usize,
    buf: &mut [i32],
    scratch: &mut [i32],
) -> Result<()> {
    if matches!(step, Step::InputAlias { .. }) {
        return Ok(()); // the input itself is the value
    }
    let slot = slots[step.dst()];
    let (d0, d1) = (slot.offset * bs, (slot.offset + slot.len) * bs);
    let (left, rest) = buf.split_at_mut(d0);
    let (dbuf, right) = rest.split_at_mut(d1 - d0);
    let (left, right) = (&*left, &*right);
    let rd = |src: Src| read_slice(slots, src, xs, left, right, d0, d1, bs);
    match step {
        Step::InputAlias { .. } => unreachable!("handled above"),
        Step::Copy { src, .. } => dbuf.copy_from_slice(rd(*src)?),
        Step::Gemm { src, weight, epi, .. } => {
            let x = rd(*src)?;
            let rows = x.len() / weight.k.max(1);
            gemm_fused_into(x, rows, weight, &|run, chans| epi.apply(run, chans), dbuf)?;
        }
        Step::Spmm { src, weight, cols, epi, .. } => {
            let x = rd(*src)?;
            let rows = x.len() / weight.cols.max(1);
            spmm_fused_into(x, rows, weight, cols, &|run, chans| epi.apply(run, chans), dbuf)?;
        }
        Step::Conv { src, weight, spec, epi, in_dims, .. } => {
            let epi = |run: &mut [i32], chans| epi.apply(run, chans);
            let x_dims = scale4(*in_dims, bs);
            conv2d_fused_into(rd(*src)?, x_dims, weight, *spec, &epi, scratch, dbuf)?;
        }
        Step::AddRequant { a, b, m_a, m_b, out_spec, relu, .. } => {
            let (av, bv) = (rd(*a)?, rd(*b)?);
            for (o, (&x, &y)) in dbuf.iter_mut().zip(av.iter().zip(bv)) {
                *o = add_requant_scalar(x, y, *m_a, *m_b, *out_spec, *relu);
            }
        }
        Step::AddConst { src, value, m, out_spec, .. } => {
            let x = rd(*src)?;
            let inner = value.len().max(1);
            for (i, (o, &v)) in dbuf.iter_mut().zip(x).enumerate() {
                *o = add_const_requant_scalar(v, value[i % inner], *m, *out_spec);
            }
        }
        Step::MaxPool { src, spec, in_dims, .. } => {
            max_pool_into(rd(*src)?, scale4(*in_dims, bs), *spec, dbuf);
        }
        Step::GlobalAvgPool { src, frac_bits, in_dims, .. } => {
            global_avg_pool_into(rd(*src)?, scale4(*in_dims, bs), *frac_bits, dbuf);
        }
        Step::PatchToTokens { src, in_dims, .. } => {
            let x = rd(*src)?;
            let [_, d, h, w] = *in_dims;
            let l = h * w;
            for img in 0..bs {
                for c in 0..d {
                    for t in 0..l {
                        dbuf[(img * l + t) * d + c] = x[(img * d + c) * l + t];
                    }
                }
            }
        }
        Step::ConcatToken { src, token, in_dims, .. } => {
            concat_token_into(rd(*src)?, scale3(*in_dims, bs), token, dbuf);
        }
        Step::TakeToken { src, index, in_dims, .. } => {
            take_token_into(rd(*src)?, scale3(*in_dims, bs), *index, dbuf);
        }
        Step::SplitHeads { src, heads, in_dims, .. } => {
            let x = rd(*src)?;
            let (heads, [imgs, l, d]) = (*heads, scale3(*in_dims, bs));
            let dh = d / heads.max(1);
            for img in 0..imgs {
                for hd in 0..heads {
                    for t in 0..l {
                        let obase = ((img * heads + hd) * l + t) * dh;
                        let ibase = (img * l + t) * d + hd * dh;
                        dbuf[obase..obase + dh].copy_from_slice(&x[ibase..ibase + dh]);
                    }
                }
            }
        }
        Step::MergeHeads { src, heads, in_dims, .. } => {
            let x = rd(*src)?;
            let (heads, [rows, l, dh]) = (*heads, scale3(*in_dims, bs));
            let d = heads * dh;
            for img in 0..rows / heads.max(1) {
                for hd in 0..heads {
                    for t in 0..l {
                        let obase = (img * l + t) * d + hd * dh;
                        let ibase = ((img * heads + hd) * l + t) * dh;
                        dbuf[obase..obase + dh].copy_from_slice(&x[ibase..ibase + dh]);
                    }
                }
            }
        }
        Step::Requant { src, epi, .. } => {
            dbuf.copy_from_slice(rd(*src)?);
            epi.apply(dbuf, RowChannels::One(0));
        }
        Step::LayerNorm { src, ln, d, .. } => ln.apply_into(rd(*src)?, *d, dbuf),
        Step::Softmax { src, lut, cols, .. } => lut.apply_into(rd(*src)?, *cols, dbuf),
        Step::Gelu { src, lut, .. } => {
            for (o, &v) in dbuf.iter_mut().zip(rd(*src)?) {
                *o = lut.lookup(v);
            }
        }
        Step::Bmm { a, b, transpose_rhs, epi, a_dims, b_dims, .. } => {
            let [batches, rows, k] = scale3(*a_dims, bs);
            let n = if *transpose_rhs { b_dims[1] } else { b_dims[2] };
            let epi = |run: &mut [i32], chans| epi.apply(run, chans);
            bmm_i32_sat_into(rd(*a)?, rd(*b)?, [batches, rows, k, n], *transpose_rhs, &epi, dbuf)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::FixedPointFormat;
    use crate::zoo::{tiny_mlp, tiny_mlp_nm, tiny_mlp_pruned};
    use t2c_tensor::{with_isa, with_threads, Isa};

    fn float_batch(dims: &[usize], seed: usize) -> Tensor<f32> {
        Tensor::from_fn(dims, move |i| ((i * 31 + seed * 17) % 211) as f32 * 0.01 - 1.0)
    }

    /// Accumulators from both rails inward: the extremes, small values
    /// and a spread over the whole `i32` range.
    fn accumulators(n: usize) -> Vec<i32> {
        let edges = [i32::MIN, i32::MAX, 0, 1, -1, i32::MIN + 1, i32::MAX - 1];
        (0..n)
            .map(|i| match edges.get(i % 16) {
                Some(&e) => e,
                None if i % 3 == 0 => (i as i32 % 601) - 300,
                None => (i as u32).wrapping_mul(2_654_435_761) as i32,
            })
            .collect()
    }

    /// One fused MAC tail: what a `Linear`/`Conv2d` node carries, plus a
    /// folded GELU.
    struct Tail {
        tag: &'static str,
        bias: Option<Vec<i64>>,
        requant: Option<MulQuant>,
        relu: bool,
        lut: Option<GeluLut>,
    }

    /// The interpreter's chain on an `[…, C, inner]` accumulator tensor
    /// (channel axis 1): `add_channel_bias` → `MulQuant::apply_scalar_relu`
    /// → `GeluLut::lookup`, element by element.
    fn oracle(acc: &Tensor<i32>, inner: usize, t: &Tail) -> Vec<i32> {
        let c = acc.dim(1);
        let biased = match &t.bias {
            Some(b) => crate::intmodel::add_channel_bias(acc, b, 1),
            None => acc.clone(),
        };
        let chain = |(i, &v): (usize, &i32)| {
            let ch = (i / inner) % c;
            let v = t.requant.as_ref().map_or(v, |r| r.apply_scalar_relu(v, ch, t.relu));
            t.lut.as_ref().map_or(v, |l| l.lookup(v))
        };
        biased.as_slice().iter().enumerate().map(chain).collect()
    }

    #[test]
    fn compiled_epilogue_matches_the_per_element_chain() {
        let c = 5usize;
        let mq = |scale: Vec<i32>, bias: Vec<i64>, frac: u8, out_spec| {
            let format = FixedPointFormat { int_bits: 4, frac_bits: frac };
            Some(MulQuant { scale_raw: scale, bias_raw: bias, format, out_spec })
        };
        let tail = |tag, bias: &Option<Vec<i64>>, requant, relu| Tail {
            tag,
            bias: bias.clone(),
            requant,
            relu,
            lut: None,
        };
        let (s8, s16, u4) = (QuantSpec::signed(8), QuantSpec::signed(16), QuantSpec::unsigned(4));
        let some = Some(vec![3, -40_000, 0, 1 << 20]);
        let rails = Some(vec![i64::MAX, i64::MIN, i64::from(i32::MAX) - 1, -(1 << 33), 5]);
        let tails = [
            tail(
                "per-tensor scale, per-channel bias_raw",
                &some,
                mq(vec![3000], vec![-5000, 0, 7000, 123_456, -99], 12, s8),
                false,
            ),
            tail(
                "per-channel scale, per-tensor bias_raw",
                &some,
                mq(vec![3000, -12, 1, 40_000, 7], vec![777], 12, s8),
                false,
            ),
            tail("empty bias", &Some(vec![]), mq(vec![2500], vec![100], 12, s8), false),
            tail("no requant (bare linear head)", &some, None, true),
            tail("frac_bits 0", &None, mq(vec![1, -2, 3, 0, 5], vec![-3, 9], 0, s16), false),
            tail("rail channel biases", &rails, mq(vec![4096], vec![0], 12, s16), true),
            tail(
                "negative multipliers",
                &some,
                mq(vec![-3000, -1, -65_536, -7, i32::MIN], vec![50, -50], 13, s16),
                false,
            ),
            tail("relu, signed grid", &None, mq(vec![-700, 900], vec![3], 10, s8), true),
            tail("relu, unsigned grid", &None, mq(vec![-700, 900], vec![3], 10, u4), true),
            tail("unsigned grid", &some, mq(vec![300], vec![0], 10, u4), false),
            Tail {
                lut: Some(GeluLut::build(s8, 0.02, s8, 0.02)),
                ..tail(
                    "folded gelu",
                    &some,
                    mq(vec![2000, -2000, 50], vec![4000, 0], 12, s8),
                    false,
                )
            },
        ];
        for t in &tails {
            let epi =
                Epilogue::compile(c, t.bias.as_deref(), t.requant.as_ref(), t.relu, t.lut.clone());
            // Conv-row form: `[N, C, L]`, each channel row handed over whole.
            let l = 23;
            let acc = Tensor::from_vec(accumulators(2 * c * l), &[2, c, l]).unwrap();
            let want = oracle(&acc, l, t);
            let mut got = acc.as_slice().to_vec();
            for (r, row) in got.chunks_mut(l).enumerate() {
                epi.apply(row, RowChannels::One(r % c));
            }
            assert_eq!(got, want, "{}: conv rows", t.tag);
            // GEMM-column form: `[R, C]`, each row cut into runs of two
            // consecutive channels, as tile rows cut it at panel bounds.
            let acc = Tensor::from_vec(accumulators(37 * c), &[37, c]).unwrap();
            let want = oracle(&acc, 1, t);
            let mut got = acc.as_slice().to_vec();
            for row in got.chunks_mut(c) {
                for (k, run) in row.chunks_mut(2).enumerate() {
                    epi.apply(run, RowChannels::From(2 * k));
                }
            }
            assert_eq!(got, want, "{}: gemm columns", t.tag);
        }
    }

    #[test]
    fn plan_matches_interpreter_on_the_mlp_family() {
        for (tag, (model, dims)) in
            [("dense", tiny_mlp()), ("pruned", tiny_mlp_pruned(0.8)), ("nm", tiny_mlp_nm(2, 4))]
        {
            let plan = model.compile(&dims).unwrap();
            let mut arena = Arena::new();
            for batch in [1usize, 3] {
                let mut bdims = dims.clone();
                bdims[0] = batch;
                let x = float_batch(&bdims, batch);
                let want = model.run(&x).unwrap();
                let got = plan.run(&x, &mut arena).unwrap();
                assert_eq!(got.dims(), want.dims(), "{tag} batch {batch}");
                assert_eq!(got.as_slice(), want.as_slice(), "{tag} batch {batch}");
            }
        }
    }

    #[test]
    fn plan_is_thread_count_invariant() {
        let (model, dims) = tiny_mlp();
        let plan = model.compile(&dims).unwrap();
        let x = float_batch(&[4, dims[1]], 7);
        let want = with_threads(1, || model.run(&x).unwrap());
        for isa in [Isa::Scalar, t2c_tensor::isa()] {
            for threads in [1usize, 2, 4] {
                let run = || plan.run(&x, &mut Arena::new()).unwrap();
                let got = with_isa(isa, || with_threads(threads, run));
                assert_eq!(got.as_slice(), want.as_slice(), "{isa}, threads {threads}");
            }
        }
    }

    /// quantize → linear(+requant) → gelu → linear: the GELU must fold
    /// into fc1's epilogue and the step count must drop by one.
    fn gelu_model() -> (IntModel, Vec<usize>) {
        let spec8 = QuantSpec::signed(8);
        let mut m = IntModel::new();
        m.push("input", IntOp::Quantize { scale: 0.05, spec: spec8 }, vec![]);
        let w1 = Tensor::from_fn(&[16, 12], |i| (i as i32 % 7) - 3);
        let rq = MulQuant::from_float(&[0.02], &[0.0], FixedPointFormat::int16_frac12(), spec8);
        m.push(
            "fc1",
            IntOp::Linear {
                weight: w1.into(),
                bias: Some(vec![5; 16]),
                requant: Some(rq),
                relu: false,
                weight_spec: QuantSpec::signed(3),
            },
            vec![Src::Node(0)],
        );
        let lut = GeluLut::build(spec8, 0.02, spec8, 0.02);
        m.push("act", IntOp::GeluLut(lut), vec![Src::Node(1)]);
        let w2 = Tensor::from_fn(&[4, 16], |i| (i as i32 % 5) - 2);
        m.push(
            "head",
            IntOp::Linear {
                weight: w2.into(),
                bias: None,
                requant: None,
                relu: false,
                weight_spec: QuantSpec::signed(3),
            },
            vec![Src::Node(2)],
        );
        (m, vec![1, 12])
    }

    #[test]
    fn gelu_folds_into_its_producer() {
        let (model, dims) = gelu_model();
        let plan = model.compile(&dims).unwrap();
        assert_eq!(plan.steps.len(), model.len() - 1, "gelu step must disappear");
        assert_eq!(plan.fused_nodes(), 3, "fc1 + folded gelu + head");
        let x = float_batch(&[2, 12], 3);
        let want = model.run(&x).unwrap();
        let got = plan.run(&x, &mut Arena::new()).unwrap();
        assert_eq!(got.as_slice(), want.as_slice());
    }

    #[test]
    fn gelu_with_a_second_consumer_is_not_folded() {
        let (mut model, dims) = gelu_model();
        // A second reader of fc1 blocks the fold: requant fc1's output
        // alongside the GELU and mix the two back together.
        let spec8 = QuantSpec::signed(8);
        let one = FixedPointFormat::int16_frac12().quantize(1.0);
        let half = FixedPointFormat::int16_frac12().quantize(0.5);
        model.push("echo", IntOp::Requant { m: one, out_spec: spec8 }, vec![Src::Node(1)]);
        model.push(
            "mix",
            IntOp::AddRequant { m_a: half, m_b: half, out_spec: spec8, relu: false },
            vec![Src::Node(2), Src::Node(4)],
        );
        let plan = model.compile(&dims).unwrap();
        assert_eq!(plan.steps.len(), model.len(), "nothing may fold");
        let x = float_batch(&[2, 12], 11);
        let want = model.run(&x).unwrap();
        let got = plan.run(&x, &mut Arena::new()).unwrap();
        assert_eq!(got.as_slice(), want.as_slice());
    }

    #[test]
    fn dead_slots_are_recycled_by_later_steps() {
        // quantize → requant ×4: each link dies as soon as the next one
        // is written, so best-fit reuse needs two 12-word slots no matter
        // how long the chain grows (keep-all would need one per link).
        let spec8 = QuantSpec::signed(8);
        let one = FixedPointFormat::int16_frac12().quantize(1.0);
        let mut m = IntModel::new();
        m.push("input", IntOp::Quantize { scale: 0.05, spec: spec8 }, vec![]);
        for k in 1..=4usize {
            m.push(
                format!("r{k}"),
                IntOp::Requant { m: one, out_spec: spec8 },
                vec![Src::Node(k - 1)],
            );
        }
        let plan = m.compile(&[1, 12]).unwrap();
        assert_eq!(plan.arena_bytes(), 2 * 12 * 4, "two live links at a time, not four");
        let x = float_batch(&[3, 12], 5);
        let want = m.run(&x).unwrap();
        let got = plan.run(&x, &mut Arena::new()).unwrap();
        assert_eq!(got.as_slice(), want.as_slice());
    }

    #[test]
    fn arena_is_sized_once_and_reused_across_calls() {
        let (model, dims) = tiny_mlp();
        let plan = model.compile(&dims).unwrap();
        // fc1 is still live while the head computes, so the arena holds
        // both; the quantize output costs nothing (it aliases the input).
        assert_eq!(plan.arena_bytes(), (128 + 10) * 4);
        let mut arena = Arena::new();
        let x = float_batch(&[2, dims[1]], 1).map(|v| (v / 0.05).round() as i32);
        let mut out = Vec::new();
        plan.run_quantized_into(&x, &mut arena, &mut out).unwrap();
        let cap = arena.capacity_bytes();
        assert_eq!(cap, plan.arena_bytes() * 2, "arena sized at batch × per-sample bytes");
        let first = out.clone();
        plan.run_quantized_into(&x, &mut arena, &mut out).unwrap();
        assert_eq!(out, first, "stale arena contents must not leak into a rerun");
        assert_eq!(arena.capacity_bytes(), cap, "steady-state reruns must not regrow the arena");
    }

    /// quantize → padded 3×3 conv → 1×1 conv: the 3×3 conv unrolls its
    /// patches into scratch the arena reserves once, whatever the batch;
    /// the 1×1 conv reads its input in place and needs none.
    #[test]
    fn conv_patch_scratch_is_reserved_once_whatever_the_batch() {
        let spec8 = QuantSpec::signed(8);
        let rq = MulQuant::from_float(&[0.01], &[0.0], FixedPointFormat::int16_frac12(), spec8);
        let conv = |oc: usize, c: usize, k: usize, pad: usize, relu: bool| IntOp::Conv2d {
            weight: Tensor::from_fn(&[oc, c, k, k], |i| (i as i32 % 7) - 3),
            bias: Some(vec![3; oc]),
            spec: Conv2dSpec::new(1, pad),
            requant: rq.clone(),
            relu,
            weight_spec: QuantSpec::signed(3),
        };
        let mut m = IntModel::new();
        m.push("input", IntOp::Quantize { scale: 0.05, spec: spec8 }, vec![]);
        m.push("conv3", conv(4, 2, 3, 1, true), vec![Src::Node(0)]);
        m.push("conv1", conv(6, 4, 1, 0, false), vec![Src::Node(1)]);
        let plan = m.compile(&[1, 2, 5, 5]).unwrap();
        assert_eq!(plan.scratch_bytes(), (2 * 3 * 3) * (5 * 5) * 4, "one conv3 patch block");
        let mut arena = Arena::new();
        for batch in [1usize, 3] {
            let x = float_batch(&[batch, 2, 5, 5], batch);
            let got = plan.run(&x, &mut arena).unwrap();
            assert_eq!(got.as_slice(), m.run(&x).unwrap().as_slice(), "batch {batch}");
        }
        assert_eq!(arena.capacity_bytes(), plan.arena_bytes() * 3 + plan.scratch_bytes());
    }

    #[test]
    fn plan_reports_shapes_and_rejects_mismatched_inputs() {
        let (model, dims) = tiny_mlp();
        let plan = model.compile(&dims).unwrap();
        assert_eq!(plan.input_dims(), &[1, 256]);
        assert_eq!(plan.output_dims(5), vec![5, 10]);
        let bad = Tensor::<i32>::zeros(&[1, 255]);
        assert!(plan.run_quantized(&bad, &mut Arena::new()).is_err());
        assert!(IntModel::new().compile(&[1, 4]).is_err(), "empty model must not compile");
    }

    #[test]
    fn a_reduction_over_the_batch_axis_does_not_compile() {
        // On a rank-1 input the softmax row is the batch itself, which a
        // per-sample plan cannot reproduce; it is refused, not miscompiled.
        let mut m = IntModel::new();
        m.push("input", IntOp::Quantize { scale: 0.1, spec: QuantSpec::signed(8) }, vec![]);
        let lut = SoftmaxLut::build(0.1, QuantSpec::unsigned(8), 16, 12);
        m.push("softmax", IntOp::SoftmaxLut(lut), vec![Src::Node(0)]);
        assert!(m.compile(&[2]).is_err());
        assert!(m.compile(&[2, 3]).is_ok());
    }

    #[test]
    fn head_splits_walk_the_scaled_leading_axis() {
        // SplitHeads{2} → MergeHeads{1} on [1, 1, 4]: the split's output
        // is [2, 1, 2], so the merge walks two images per sample — not
        // one per sample of the runtime batch.
        let mut m = IntModel::new();
        m.push("input", IntOp::Quantize { scale: 0.01, spec: QuantSpec::signed(8) }, vec![]);
        m.push("split", IntOp::SplitHeads { heads: 2 }, vec![Src::Node(0)]);
        m.push("merge", IntOp::MergeHeads { heads: 1 }, vec![Src::Node(1)]);
        // Then a split of those two images ([4, 1, 1]) and a merge of
        // four images in pairs ([2, 1, 2]).
        m.push("split2", IntOp::SplitHeads { heads: 2 }, vec![Src::Node(2)]);
        m.push("merge2", IntOp::MergeHeads { heads: 2 }, vec![Src::Node(3)]);
        let plan = m.compile(&[1, 1, 4]).unwrap();
        let mut arena = Arena::new();
        for batch in [1usize, 3] {
            // Poison the arena so stale words cannot pass for results.
            arena.ensure(64).fill(i32::MIN);
            let x = float_batch(&[batch, 1, 4], batch);
            let want = m.run(&x).unwrap();
            let got = plan.run(&x, &mut arena).unwrap();
            assert_eq!(got.dims(), want.dims(), "batch {batch}");
            assert_eq!(got.as_slice(), want.as_slice(), "batch {batch}");
        }
    }

    #[test]
    fn short_gelu_tables_are_refused_at_compile_time() {
        // Standalone and folded into a linear producer: either way the
        // step would index past a 10-entry table for a 256-code grid.
        let (mut folded, dims) = gelu_model();
        let IntOp::GeluLut(lut) = &mut folded.nodes[2].op else { panic!("node 2 is the GELU") };
        lut.table.truncate(10);
        let mut alone = IntModel::new();
        alone.push("input", IntOp::Quantize { scale: 0.05, spec: QuantSpec::signed(8) }, vec![]);
        alone.push("act", folded.nodes[2].op.clone(), vec![Src::Node(0)]);
        for (tag, model) in [("folded", &folded), ("standalone", &alone)] {
            let err = model.compile(&dims).expect_err(tag).to_string();
            assert!(err.contains("GELU table has 10 entries for 256"), "{tag}: {err}");
        }
    }

    #[test]
    fn empty_softmax_tables_are_refused_at_compile_time() {
        let mut m = IntModel::new();
        m.push("input", IntOp::Quantize { scale: 0.1, spec: QuantSpec::signed(8) }, vec![]);
        let mut lut = SoftmaxLut::build(0.1, QuantSpec::unsigned(8), 16, 12);
        lut.table.clear();
        m.push("softmax", IntOp::SoftmaxLut(lut), vec![Src::Node(0)]);
        let err = m.compile(&[1, 3]).expect_err("empty table").to_string();
        assert!(err.contains("node 1 (softmax): softmax exp table is empty"), "{err}");
    }

    #[test]
    fn malformed_pool_graphs_are_refused_without_executing() {
        // Flatten → MaxPool (rank-2 pool input) and an 8×8 window on a 4×4
        // input: compile's shape walk refuses both instead of panicking.
        for (flatten, kernel) in [(true, 2), (false, 8)] {
            let mut m = IntModel::new();
            m.push("input", IntOp::Quantize { scale: 1.0, spec: QuantSpec::signed(8) }, vec![]);
            if flatten {
                m.push("flat", IntOp::Flatten, vec![Src::Node(0)]);
            }
            let src = Src::Node(m.len() - 1);
            m.push("pool", IntOp::MaxPool2d { spec: PoolSpec::new(kernel) }, vec![src]);
            let err = m.compile(&[1, 1, 4, 4]).unwrap_err();
            assert!(format!("{err}").contains("pool"), "error must name the node: {err}");
        }
    }
}
