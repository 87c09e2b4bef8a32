//! The one graph walk behind [`lint_model`] and [`crate::certify_model`].
//!
//! The walk visits the topologically ordered op list once, carrying a
//! per-node [`State`]: the output shape (core's [`IntOp::out_dims`]), the
//! exact value interval of the output codes, the declared grid when the
//! op clamps onto one, and the certified error state
//! ([`crate::errorbound`]). Each node's transfer computes all of them
//! together and files lint findings (`T2C0xx`–`T2C5xx`) and certificate
//! findings (`T2C6xx`) in separate lists. All interval arithmetic is done
//! in `i128`, mirrors the hardware datapath op for op (`round_shift`,
//! per-MAC `i32` saturation envelopes, bias broadcast), and is **sound**:
//! if a rule does not fire, the proven property holds for *every* input on
//! the declared input grid.

use std::collections::BTreeSet;

use t2c_core::intmodel::{IntNode, IntOp, LinearWeight, Src};
use t2c_core::lut::{GeluLut, SoftmaxLut};
use t2c_core::{FixedScalar, IntModel, MulQuant, QuantSpec};
use t2c_tensor::{SparseError, Tensor};

use crate::errorbound::{edge_err, half_ulp, maxabs, overshoot, Cert};
use crate::interval::{round_shift_i128, slice_min_max, Interval};
use crate::{Diagnostic, LintReport, Rule, Severity};

/// Overshoot beyond this many grid widths escalates a scale-chain finding
/// from "worst-case saturation risk" (Warn) to "multiplier/shift mismatch"
/// (Error). Calibrated models legitimately carry worst-case overshoot of a
/// few grid widths; a shift that is off by even a few bits lands orders of
/// magnitude outside.
pub const SCALE_CHAIN_ERROR_FACTOR: i128 = 64;

/// Per-node analysis result surfaced in reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSummary {
    /// Node index in execution order.
    pub id: usize,
    /// Layer name.
    pub name: String,
    /// Op label ([`IntOp::label`]).
    pub op: &'static str,
    /// Inferred output shape (empty when inference failed upstream).
    pub shape: Vec<usize>,
    /// Proven lower bound of the output codes (saturated to `i64`).
    pub lo: i64,
    /// Proven upper bound of the output codes (saturated to `i64`).
    pub hi: i64,
}

/// Dataflow state of one tensor edge.
#[derive(Debug, Clone)]
pub(crate) struct State {
    pub(crate) shape: Vec<usize>,
    pub(crate) range: Interval,
    spec: Option<QuantSpec>,
    /// The certified error state; `None` once a finding upstream (or here)
    /// leaves the divergence unbounded, while the interval analysis may
    /// carry on.
    pub(crate) cert: Option<Cert>,
}

/// One output channel of a conv/linear layer against a per-tensor input
/// interval.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Channel {
    /// The exact end-of-sum interval, bias included.
    pub(crate) fin: Interval,
    /// Bounds every partial sum as well (bias included): what the per-MAC
    /// saturating kernel clips on.
    pub(crate) env: Interval,
    /// `Σ|w|` over the channel's weights.
    pub(crate) abs_w: f64,
}

fn sat_i64(v: i128) -> i64 {
    v.clamp(i64::MIN as i128, i64::MAX as i128) as i64
}

/// Runs the full static verification pass over `model`, assuming the
/// model input has shape `input_shape` (batch included) and spans the
/// entire grid declared by the leading `Quantize` node.
pub fn lint_model(model: &IntModel, input_shape: &[usize], tag: &str) -> LintReport {
    let (mut ctx, states) = walk(model, input_shape);
    // -- reachability --------------------------------------------------
    let consumed: BTreeSet<usize> = model
        .nodes
        .iter()
        .flat_map(|n| n.inputs.iter())
        .filter_map(|s| match s {
            Src::Node(id) => Some(*id),
            Src::Input => None,
        })
        .collect();
    // Node 0 is the Quantize entry whose output downstream nodes read as
    // `Src::Input`, so it is reachable by construction.
    for (i, node) in model.nodes.iter().enumerate() {
        if i > 0 && i + 1 < model.len() && !consumed.contains(&i) {
            ctx.push(Diagnostic::node(
                Rule::UnreachableNode,
                Severity::Warn,
                i,
                node.name.clone(),
                "output is never consumed and this is not the model output".to_owned(),
                "remove the node or wire its output into the graph",
            ));
        }
    }
    ctx.into_report(tag, model, &states)
}

/// Walks `model` once: every node's [`State`] (`None` where the interval
/// analysis stops), with the lint and certificate findings in `Ctx`.
pub(crate) fn walk(model: &IntModel, input_shape: &[usize]) -> (Ctx, Vec<Option<State>>) {
    let mut ctx = Ctx { lint: Vec::new(), cert: Vec::new() };
    let mut states: Vec<Option<State>> = Vec::with_capacity(model.len());

    let input_state = match model.nodes.first().map(|n| &n.op) {
        Some(IntOp::Quantize { scale, spec }) => Some(State {
            shape: input_shape.to_vec(),
            range: Interval::of_spec(*spec),
            spec: Some(*spec),
            // The input quantizer's own rounding: half a step.
            cert: Some(Cert { err: 0.5, local: 0.5, scale: Some(f64::from(*scale)) }),
        }),
        Some(op) => {
            ctx.push(Diagnostic::node(
                Rule::MissingQuantize,
                Severity::Error,
                0,
                model.nodes[0].name.clone(),
                format!("first node is `{}`, not `quantize`", op.label()),
                "IntModel::run requires a leading Quantize node declaring the input grid",
            ));
            None
        }
        None => {
            ctx.push(Diagnostic::global(
                Rule::MissingQuantize,
                Severity::Error,
                "model",
                "model has no nodes",
                "push at least a Quantize node",
            ));
            None
        }
    };

    for (i, node) in model.nodes.iter().enumerate() {
        // -- source well-formedness -----------------------------------
        let mut sources_ok = true;
        for src in &node.inputs {
            if let Src::Node(id) = src {
                // The certificate ends at the first dangling or forward
                // source.
                ctx.lose_certificate(
                    *id >= i && sources_ok,
                    i,
                    &node.name,
                    "the node reads a dangling or forward source",
                );
                if *id >= model.len() {
                    sources_ok = false;
                    ctx.push(Diagnostic::node(
                        Rule::DanglingSrc,
                        Severity::Error,
                        i,
                        node.name.clone(),
                        format!("reads Src::Node({id}) but the graph has {} nodes", model.len()),
                        "point the input at an existing, earlier node",
                    ));
                } else if *id >= i {
                    sources_ok = false;
                    ctx.push(Diagnostic::node(
                        Rule::ForwardSrc,
                        Severity::Error,
                        i,
                        node.name.clone(),
                        format!("reads Src::Node({id}), which executes at or after position {i}"),
                        "IntModel graphs are topologically ordered; reference earlier nodes only",
                    ));
                }
            }
        }
        let arity = node.op.arity();
        if node.inputs.len() < arity {
            sources_ok = false;
            ctx.push(Diagnostic::node(
                Rule::MissingOperand,
                Severity::Error,
                i,
                node.name.clone(),
                format!(
                    "op `{}` needs {arity} operand(s), {} listed",
                    node.op.label(),
                    node.inputs.len()
                ),
                "list every operand in IntNode::inputs",
            ));
        }

        // Resolve operand states (cloned; shapes are tiny).
        let operand = |idx: usize| -> Option<State> {
            match node.inputs.get(idx)? {
                Src::Input => input_state.clone(),
                Src::Node(id) if *id < i => states.get(*id).and_then(Clone::clone),
                Src::Node(_) => None,
            }
        };

        let state = if sources_ok {
            ctx.analyze_op(i, node, operand(0), operand(1), input_state.as_ref())
        } else {
            None
        };
        states.push(state);
    }
    (ctx, states)
}

/// The walk's findings: lint's and the certificate's, kept apart.
pub(crate) struct Ctx {
    lint: Vec<Diagnostic>,
    pub(crate) cert: Vec<Diagnostic>,
}

impl Ctx {
    fn push(&mut self, d: Diagnostic) {
        self.lint.push(d);
    }

    fn into_report(self, tag: &str, model: &IntModel, states: &[Option<State>]) -> LintReport {
        let nodes = model
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| {
                let st = states.get(i).and_then(Option::as_ref);
                NodeSummary {
                    id: i,
                    name: n.name.clone(),
                    op: n.op.label(),
                    shape: st.map(|s| s.shape.clone()).unwrap_or_default(),
                    lo: st.map_or(0, |s| sat_i64(s.range.lo)),
                    hi: st.map_or(0, |s| sat_i64(s.range.hi)),
                }
            })
            .collect();
        LintReport { tag: tag.to_owned(), diagnostics: self.lint, nodes }
    }

    /// Per-`FixedScalar` representability checks (T2C202 / T2C203).
    fn fixed_scalar_check(&mut self, i: usize, name: &str, m: FixedScalar, what: &str) {
        if m.raw == 0 {
            self.push(Diagnostic::node(
                Rule::ZeroMultiplier,
                Severity::Warn,
                i,
                name,
                format!("{what} multiplier quantized to zero in {}", m.format),
                "increase frac_bits (the scale underflows the fractional width)",
            ));
        } else if m.raw.unsigned_abs() < 8 {
            self.push(Diagnostic::node(
                Rule::LowPrecisionScale,
                Severity::Warn,
                i,
                name,
                format!(
                    "{what} multiplier raw value {} keeps fewer than 3 significant bits in {}",
                    m.raw, m.format
                ),
                "widen frac_bits so the scale retains usable precision",
            ));
        }
    }

    /// Scale-chain consistency for one mapped interval (T2C201). Returns
    /// the grid-clamped output interval.
    fn scale_chain(
        &mut self,
        i: usize,
        name: &str,
        mapped: Interval,
        spec: QuantSpec,
        what: &str,
    ) -> Interval {
        let (glo, ghi) = spec.range();
        let (glo, ghi) = (glo as i128, ghi as i128);
        if mapped.lo < glo || mapped.hi > ghi {
            let overshoot = (glo - mapped.lo).max(mapped.hi - ghi).max(0);
            let disjoint = mapped.hi < glo || mapped.lo > ghi;
            let gross = disjoint || overshoot > SCALE_CHAIN_ERROR_FACTOR * spec.width() as i128;
            let severity = if gross { Severity::Error } else { Severity::Warn };
            let message = if disjoint {
                format!("{what} maps the producer range to {mapped}, entirely outside {spec} [{glo}, {ghi}]")
            } else {
                format!(
                    "{what} maps the worst-case producer range to {mapped}, overshooting {spec} [{glo}, {ghi}] by {overshoot} code(s)"
                )
            };
            self.push(Diagnostic::node(
                Rule::ScaleChain,
                severity,
                i,
                name,
                message,
                if gross {
                    "the fixed-point multiplier/shift does not match the scale chain; re-derive it from S_in/S_out"
                } else {
                    "worst-case inputs saturate; recalibrate the producer range or widen the output grid"
                },
            ));
        }
        mapped.clamp_to(spec)
    }

    /// Requantizer checks over per-channel accumulator intervals
    /// (T2C102/T2C103/T2C201/T2C202/T2C203). Returns each channel's
    /// image after the ReLU and before the output clamp, `None` where the
    /// requantization product leaves `i64`.
    fn requant(
        &mut self,
        i: usize,
        name: &str,
        mq: &MulQuant,
        acc: &[Channel],
        relu: bool,
    ) -> Vec<Option<Interval>> {
        let headroom = mq.bias_headroom();
        for (ci, &b) in mq.bias_raw.iter().enumerate() {
            if b.abs() > headroom {
                self.push(Diagnostic::node(
                    Rule::BiasHeadroom,
                    Severity::Error,
                    i,
                    name,
                    format!(
                        "MulQuant bias_raw[{ci}] = {b} exceeds the accumulator headroom ±{headroom} for {}",
                        mq.format
                    ),
                    "rebuild the requantizer with MulQuant::from_float (it clamps biases to headroom)",
                ));
            }
        }
        for (ci, &sr) in mq.scale_raw.iter().enumerate() {
            let m = FixedScalar { raw: sr, format: mq.format };
            self.fixed_scalar_check(i, name, m, &format!("MulQuant channel {ci}"));
        }
        let mapped: Vec<Option<Interval>> = acc
            .iter()
            .enumerate()
            .map(|(ch, c)| {
                let a = c.fin;
                let ci = ch.min(mq.scale_raw.len() - 1);
                let bias = mq.bias_raw[ci.min(mq.bias_raw.len() - 1)] as i128;
                let scale = mq.scale_raw[ci] as i128;
                let full = Interval::new(a.lo * scale + bias, a.hi * scale + bias);
                if !full.fits_i64() {
                    self.push(Diagnostic::node(
                        Rule::WideProductOverflow,
                        Severity::Error,
                        i,
                        name,
                        format!(
                            "requant product acc·M + B spans {full}, outside i64 (channel {ch})"
                        ),
                        "shrink the accumulator range or the multiplier magnitude",
                    ));
                    return None;
                }
                let mapped = Interval::new(
                    round_shift_i128(full.lo, mq.format.frac_bits),
                    round_shift_i128(full.hi, mq.format.frac_bits),
                );
                Some(if relu { mapped.relu() } else { mapped })
            })
            .collect();
        // Worst mapped interval across channels, pre-clamp; checked once
        // so a 512-channel layer produces one finding, not 512.
        if let Some(worst) = mapped.iter().flatten().copied().reduce(Interval::union) {
            self.scale_chain(i, name, worst, mq.out_spec, "MulQuant");
        }
        mapped
    }

    /// Per-output-channel accumulators for a conv/linear weight tensor
    /// against a per-tensor input interval `x`.
    fn mac_channels(
        &mut self,
        i: usize,
        name: &str,
        weight: &Tensor<i32>,
        x: Interval,
        bias: Option<&[i64]>,
        weight_spec: QuantSpec,
    ) -> Vec<Channel> {
        let ws = weight.as_slice();
        let oc = weight.dim(0);
        let per = ws.len() / oc.max(1);
        let (min, max) = slice_min_max(ws);
        if !weight_spec.contains(min as i64) || !weight_spec.contains(max as i64) {
            self.push(Diagnostic::node(
                Rule::WeightOffGrid,
                Severity::Error,
                i,
                name,
                format!(
                    "weight codes span [{min}, {max}], outside the declared {weight_spec} grid"
                ),
                "fix weight_spec or re-quantize the weights onto the declared grid",
            ));
        }
        if let Some(b) = bias {
            if b.len() != oc && b.len() != 1 {
                self.push(Diagnostic::node(
                    Rule::ShapeMismatch,
                    Severity::Warn,
                    i,
                    name,
                    format!("bias has {} entries for {oc} output channels", b.len()),
                    "match the bias length to the output channel count (the runtime broadcasts the last entry)",
                ));
            }
        }
        (0..oc)
            .map(|c| {
                // x is one interval for every MAC, so each sum only needs
                // the channel's positive and negative weight mass.
                let (mut pos, mut neg) = (0i64, 0i64);
                for &w in &ws[c * per..(c + 1) * per] {
                    if w > 0 {
                        pos += i64::from(w);
                    } else {
                        neg += i64::from(w);
                    }
                }
                let (pos, neg) = (i128::from(pos), i128::from(neg));
                // The runtime broadcasts the last entry; an empty bias adds nothing.
                let bv = bias.and_then(|b| b.get(c).or(b.last())).map_or(0, |&b| i128::from(b));
                let (lo0, hi0) = (x.lo.min(0), x.hi.max(0));
                Channel {
                    fin: Interval::new(pos * x.lo + neg * x.hi + bv, pos * x.hi + neg * x.lo + bv),
                    env: Interval::new(
                        pos * lo0 + neg * hi0 + bv.min(0),
                        pos * hi0 + neg * lo0 + bv.max(0),
                    ),
                    abs_w: (pos - neg) as f64,
                }
            })
            .collect()
    }

    /// Emits T2C101 if any channel's saturation envelope (partial sums
    /// plus bias) can leave `i32`. Reports the single worst channel.
    fn acc_overflow(&mut self, i: usize, name: &str, chans: &[Channel]) {
        let worst = chans
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.fin.fits_i32() || !c.env.fits_i32())
            .max_by_key(|(_, c)| c.fin.union(c.env).width());
        if let Some((ch, c)) = worst {
            self.push(Diagnostic::node(
                Rule::AccOverflow,
                Severity::Error,
                i,
                name,
                format!(
                    "channel {ch} accumulator can reach {} (partial-sum envelope {}), outside i32 — the saturating MAC array silently clips",
                    c.fin.union(c.env),
                    c.env
                ),
                "reduce MAC count per output, weight magnitude or input bit width so the proof closes",
            ));
        }
    }

    #[allow(clippy::too_many_lines)]
    fn analyze_op(
        &mut self,
        i: usize,
        node: &IntNode,
        in0: Option<State>,
        in1: Option<State>,
        input_state: Option<&State>,
    ) -> Option<State> {
        let name = node.name.clone();
        if let IntOp::Quantize { spec, .. } = &node.op {
            if i > 0 {
                self.push(Diagnostic::node(
                    Rule::MissingQuantize,
                    Severity::Warn,
                    i,
                    &name,
                    "Quantize after position 0 acts as a passthrough of the model input".to_owned(),
                    "quantize exactly once, at the graph entry",
                ));
                return input_state.cloned().map(State::moved);
            }
            return input_state.cloned().map(|s| State { spec: Some(*spec), ..s });
        }
        // The output shape comes from core's shared shape rule; an
        // operand missing upstream ends the analysis silently, and one
        // whose certificate was lost ends the certificate silently.
        let operands = &[&in0, &in1][..node.op.arity()];
        let dims: Vec<&[usize]> = operands
            .iter()
            .map(|s| s.as_ref().map(|s| s.shape.as_slice()))
            .collect::<Option<_>>()?;
        let live = operands.iter().all(|s| s.as_ref().is_some_and(|s| s.cert.is_some()));
        let shape = match node.op.out_dims(&dims) {
            Ok(shape) => shape,
            Err(e) => {
                self.push(Diagnostic::node(
                    Rule::ShapeMismatch,
                    Severity::Error,
                    i,
                    &name,
                    e.to_string(),
                    "fix the operand shapes or the op parameters (ranks, extents, lengths)",
                ));
                self.lose_certificate(live, i, &name, &format!("shape inference failed: {e}"));
                return None;
            }
        };
        match &node.op {
            IntOp::Quantize { .. } => unreachable!("handled above"),
            IntOp::Conv2d { weight, bias, spec, requant, relu, weight_spec } => {
                let x = in0?;
                let xr = if spec.padding > 0 { x.range.include_zero() } else { x.range };
                let mac = Mac {
                    weight,
                    bias: bias.as_deref(),
                    requant: Some(requant),
                    relu: *relu,
                    weight_spec: *weight_spec,
                    axis: ("channels", "OC"),
                };
                Some(self.mac_body(i, &name, &mac, xr, x.cert, shape))
            }
            IntOp::Linear { weight, bias, requant, relu, weight_spec } => {
                let x = in0?;
                if let LinearWeight::Sparse { mat, declared_sparsity } = weight {
                    // Structural integrity first: a mask that disagrees
                    // with the payload means the skip-zero kernel computes
                    // garbage, so nothing downstream is worth analyzing.
                    if let Err(e) = mat.validate() {
                        let (rule, hint) = match &e {
                            SparseError::Mask(_) => (
                                Rule::SparseMaskMismatch,
                                "re-pack the layer with SparseMat::from_dense — mask and row \
                                 pointers must describe the stored payload exactly",
                            ),
                            SparseError::NmConstraint(_) => (
                                Rule::NmConstraintViolation,
                                "re-prune so every group of m keeps at most n survivors, then \
                                 re-pack with SparseMat::from_dense_nm",
                            ),
                        };
                        self.push(Diagnostic::node(
                            rule,
                            Severity::Error,
                            i,
                            &name,
                            format!("{e}"),
                            hint,
                        ));
                        self.lose_certificate(live, i, &name, "the sparse weight fails validation");
                        return None;
                    }
                    let actual = mat.sparsity();
                    if (actual - declared_sparsity).abs() > 0.01 {
                        self.push(Diagnostic::node(
                            Rule::SparsityMismatch,
                            Severity::Error,
                            i,
                            &name,
                            format!(
                                "declares {declared_sparsity:.4} sparsity but stores {} of {} slots (actual {actual:.4})",
                                mat.stored(),
                                mat.rows * mat.cols
                            ),
                            "recompute declared_sparsity from the packed layout (IntModel::sparsify keeps them in sync)",
                        ));
                    }
                }
                // The skip-zero kernel is bit-identical to the masked-dense
                // path, so the dense expansion carries the exact intervals.
                let weight = weight.to_dense();
                let mac = Mac {
                    weight: &weight,
                    bias: bias.as_deref(),
                    requant: requant.as_ref(),
                    relu: *relu,
                    weight_spec: *weight_spec,
                    axis: ("features", "OUT"),
                };
                Some(self.mac_body(i, &name, &mac, x.range, x.cert, shape))
            }
            IntOp::AddRequant { m_a, m_b, out_spec, relu } => {
                let (a, b) = (in0?, in1?);
                self.fixed_scalar_check(i, &name, *m_a, "branch-a");
                self.fixed_scalar_check(i, &name, *m_b, "branch-b");
                let mut mapped = a.range.map_fixed(*m_a) + b.range.map_fixed(*m_b);
                if *relu {
                    mapped = mapped.relu();
                }
                let out = self.scale_chain(i, &name, mapped, *out_spec, "add_requant");
                let cert = a.cert.zip(b.cert).map(|(ca, cb)| {
                    let err = edge_err(*m_a, a.range, ca.err)
                        + edge_err(*m_b, b.range, cb.err)
                        + overshoot(mapped, *out_spec);
                    let local = err - m_a.magnitude() * ca.err - m_b.magnitude() * cb.err;
                    let ulp = half_ulp(*m_a, a.range) + half_ulp(*m_b, b.range);
                    self.check_scale_amplification(i, &name, ulp, local);
                    Cert { err, local, scale: None }
                });
                Some(State { shape, range: out, spec: Some(*out_spec), cert })
            }
            IntOp::AddConstRequant { value, m, out_spec } => {
                let a = in0?;
                self.fixed_scalar_check(i, &name, *m, "const-add");
                let (cmin, cmax) = slice_min_max(value.as_slice());
                let sum = a.range + Interval::new(cmin as i128, cmax as i128);
                let mapped = sum.map_fixed(*m);
                let out = self.scale_chain(i, &name, mapped, *out_spec, "add_const_requant");
                let cert = a.cert.map(|c| {
                    // The stored constant stands for a real within ½ code.
                    let err = edge_err(*m, sum, c.err + 0.5) + overshoot(mapped, *out_spec);
                    Cert { err, local: err - m.magnitude() * c.err, scale: None }
                });
                Some(State { shape, range: out, spec: Some(*out_spec), cert })
            }
            // Shape-only ops keep the operand's range, grid and error (max
            // over a window is 1-Lipschitz in the ∞-norm).
            IntOp::MaxPool2d { .. }
            | IntOp::Flatten
            | IntOp::PatchToTokens
            | IntOp::TakeToken { .. }
            | IntOp::SplitHeads { .. }
            | IntOp::MergeHeads { .. } => Some(State { shape, ..in0?.moved() }),
            IntOp::GlobalAvgPool { frac_bits } => {
                let x = in0?;
                let hw = (x.shape[2] * x.shape[3]).max(1);
                // The runtime's fixed-point 2^(16+frac)/(H·W) multiplier.
                let m = (((1i64 << (16 + *frac_bits as i64)) as f64) / hw as f64).round();
                let sum = x.range.scale(hw as i128);
                let product = sum.scale(m as i128);
                if !product.fits_i64() {
                    self.push(Diagnostic::node(
                        Rule::WideProductOverflow,
                        Severity::Error,
                        i,
                        &name,
                        format!("pooling product sum·m spans {product}, outside i64"),
                        "reduce the pooled extent or the retained fractional bits",
                    ));
                    self.lose_certificate(live, i, &name, "the pooling product leaves i64");
                    return None;
                }
                let out = Interval::new(
                    round_shift_i128(product.lo, 16),
                    round_shift_i128(product.hi, 16),
                );
                if !out.fits_i32() {
                    self.push(Diagnostic::node(
                        Rule::AccOverflow,
                        Severity::Error,
                        i,
                        &name,
                        format!("pooled output range {out} does not fit i32"),
                        "lower frac_bits",
                    ));
                    self.lose_certificate(live, i, &name, "the pooled output leaves i32");
                }
                let cert = x.cert.filter(|_| out.fits_i32()).map(|c| {
                    // Sum error ≤ hw·e_in through the multiplier, the
                    // reciprocal's rounding (≤ ½ raw) amplified by the sum,
                    // and the final rounding shift.
                    let propagated = (m / 65536.0) * hw as f64 * c.err;
                    let err = 0.5 + propagated + maxabs(sum) * 0.5 / 65536.0;
                    let scale = c.scale.map(|s| s / f64::from(1u32 << *frac_bits));
                    Cert { err, local: err - propagated, scale }
                });
                let spec = if *frac_bits == 0 { x.spec } else { None };
                Some(State { shape, range: out, spec, cert })
            }
            IntOp::ConcatToken { token } => {
                let x = in0?;
                let (tmin, tmax) = slice_min_max(token.as_slice());
                if let Some(spec) = x.spec {
                    if !spec.contains(tmin as i64) || !spec.contains(tmax as i64) {
                        self.push(Diagnostic::node(
                            Rule::WeightOffGrid,
                            Severity::Warn,
                            i,
                            &name,
                            format!("class token codes span [{tmin}, {tmax}], outside the stream's {spec} grid"),
                            "quantize the token at the sequence's scale and grid",
                        ));
                    }
                }
                Some(State {
                    shape,
                    range: x.range.union(Interval::new(tmin as i128, tmax as i128)),
                    spec: x.spec,
                    // The stored token stands for a real within ½ code.
                    cert: x.cert.map(|c| Cert { err: c.err.max(0.5), local: 0.5, ..c }),
                })
            }
            IntOp::BmmRequant { m, out_spec, .. } => {
                let (a, b) = (in0?, in1?);
                let k = a.shape[2];
                let product = a.range * b.range;
                let envelope =
                    Interval::new(product.lo.min(0) * k as i128, product.hi.max(0) * k as i128);
                if !envelope.fits_i32() {
                    self.push(Diagnostic::node(
                        Rule::AccOverflow,
                        Severity::Error,
                        i,
                        &name,
                        format!(
                            "bmm accumulator envelope {envelope} over {k} MACs leaves i32 — the saturating MAC array silently clips"
                        ),
                        "reduce the contraction length or operand bit widths",
                    ));
                    self.lose_certificate(
                        live,
                        i,
                        &name,
                        "the bmm accumulator envelope leaves i32 — the saturating MAC array clips by an unbounded amount",
                    );
                }
                self.fixed_scalar_check(i, &name, *m, "bmm");
                let acc = product.scale(k as i128);
                let mapped = acc.map_fixed(*m);
                let out = self.scale_chain(i, &name, mapped, *out_spec, "bmm_requant");
                let cert = a.cert.zip(b.cert).filter(|_| envelope.fits_i32()).map(|(ca, cb)| {
                    // Both operands are data tensors: error of a product of
                    // perturbed factors, summed over the contraction.
                    let e_acc = k as f64
                        * (maxabs(a.range) * cb.err + maxabs(b.range) * ca.err + ca.err * cb.err);
                    let err = edge_err(*m, acc, e_acc) + overshoot(mapped, *out_spec);
                    let local = err - m.magnitude() * e_acc;
                    self.check_scale_amplification(i, &name, half_ulp(*m, acc), local);
                    Cert { err, local, scale: None }
                });
                Some(State { shape, range: out, spec: Some(*out_spec), cert })
            }
            IntOp::Requant { m, out_spec } => {
                let x = in0?;
                self.fixed_scalar_check(i, &name, *m, "requant");
                let mapped = x.range.map_fixed(*m);
                let out = self.scale_chain(i, &name, mapped, *out_spec, "requant");
                let cert = x.cert.map(|c| {
                    let err = edge_err(*m, x.range, c.err) + overshoot(mapped, *out_spec);
                    let local = err - m.magnitude() * c.err;
                    self.check_scale_amplification(i, &name, half_ulp(*m, x.range), local);
                    Cert { err, local, scale: None }
                });
                Some(State { shape, range: out, spec: Some(*out_spec), cert })
            }
            IntOp::LayerNorm(ln) => Some(State {
                shape,
                range: Interval::of_spec(ln.out_spec),
                spec: Some(ln.out_spec),
                // Coarse, input-independent: both the int path and the
                // grid-clamped reference land on the declared output grid,
                // so their divergence is at most the grid width. This also
                // *resets* the incoming error — normalization re-anchors
                // the scale chain.
                cert: live.then(|| {
                    let err = ln.out_spec.width() as f64;
                    Cert { err, local: err, scale: None }
                }),
            }),
            IntOp::SoftmaxLut(lut) => self.softmax_lut(i, &name, lut, live, in0?.range, shape),
            IntOp::GeluLut(lut) => self.gelu_lut(i, &name, lut, in0?, shape),
        }
    }

    /// A conv/linear layer over an input range `x` (a compressed linear
    /// weight after densifying): per-channel accumulators, the overflow
    /// proof, requantizer checks and the layer's error state.
    fn mac_body(
        &mut self,
        i: usize,
        name: &str,
        mac: &Mac<'_>,
        x: Interval,
        x_cert: Option<Cert>,
        shape: Vec<usize>,
    ) -> State {
        let chans = self.mac_channels(i, name, mac.weight, x, mac.bias, mac.weight_spec);
        self.acc_overflow(i, name, &chans);
        let (range, spec, mapped) = match mac.requant {
            Some(mq) => {
                if mq_channel_mismatch(mq, chans.len()) {
                    let (unit, per) = mac.axis;
                    self.push(Diagnostic::node(
                        Rule::ShapeMismatch,
                        Severity::Warn,
                        i,
                        name,
                        format!(
                            "requantizer carries {} channel(s) for {} output {unit}",
                            mq.channels(),
                            chans.len()
                        ),
                        format!("use 1 (per-tensor) or {per} requantizer channels"),
                    ));
                }
                let mapped = self.requant(i, name, mq, &chans, mac.relu);
                let out = mapped
                    .iter()
                    .flatten()
                    .map(|m| m.clamp_to(mq.out_spec))
                    .reduce(Interval::union)
                    .unwrap_or_else(|| Interval::of_spec(mq.out_spec));
                (out, Some(mq.out_spec), mapped)
            }
            None => {
                let range = chans
                    .iter()
                    .map(|c| c.fin)
                    .reduce(Interval::union)
                    .unwrap_or(Interval::point(0));
                (range, None, Vec::new())
            }
        };
        let layer = (mac.weight.numel() / chans.len().max(1), mac.bias.is_some());
        let cert = x_cert
            .and_then(|c| self.mac_cert(i, name, &chans, mac.requant, &mapped, layer, x, c.err));
        State { shape, range, spec, cert }
    }

    fn softmax_lut(
        &mut self,
        i: usize,
        name: &str,
        lut: &SoftmaxLut,
        live: bool,
        x: Interval,
        shape: Vec<usize>,
    ) -> Option<State> {
        if lut.table.is_empty() {
            self.push(Diagnostic::node(
                Rule::LutDomainGap,
                Severity::Error,
                i,
                name,
                "softmax exp table is empty".to_owned(),
                "build the table with at least one entry",
            ));
            self.lose_certificate(live, i, name, "the softmax exp table is empty");
            return None;
        }
        let spread = x.width();
        if spread > (lut.table.len() - 1) as i128 {
            self.push(Diagnostic::node(
                Rule::LutRangeTruncated,
                Severity::Warn,
                i,
                name,
                format!(
                    "scores can sit {spread} codes below the row max but the exp table covers {}; the tail flattens to ≈0",
                    lut.table.len() - 1
                ),
                "grow table_size to cover the producer's score spread",
            ));
        }
        // Probabilities: both the int path and the reference live in
        // [0, qmax] by construction, so the grid width is a sound,
        // input-independent bound (and an error reset).
        let cert = live.then(|| {
            let err = lut.out_spec.qmax() as f64;
            self.check_lut_domination(i, name, err, err);
            Cert { err, local: err, scale: Some(f64::from(lut.out_scale())) }
        });
        Some(State {
            shape,
            range: Interval::new(0, lut.out_spec.qmax() as i128),
            spec: Some(lut.out_spec),
            cert,
        })
    }

    fn gelu_lut(
        &mut self,
        i: usize,
        name: &str,
        lut: &GeluLut,
        x: State,
        shape: Vec<usize>,
    ) -> Option<State> {
        let expected = lut.in_spec.width() as usize + 1;
        if lut.table.len() < expected {
            self.push(Diagnostic::node(
                Rule::LutDomainGap,
                Severity::Error,
                i,
                name,
                format!(
                    "GELU table has {} entries but the {} input grid needs {expected}; codes above {} index out of bounds",
                    lut.table.len(),
                    lut.in_spec,
                    lut.in_spec.qmin() as i128 + lut.table.len() as i128 - 1
                ),
                "rebuild the table with GeluLut::build over the full input grid",
            ));
            self.lose_certificate(
                x.cert.is_some(),
                i,
                name,
                "the GELU table does not cover the input grid",
            );
            return None;
        }
        if !x.range.within(lut.in_spec) {
            self.push(Diagnostic::node(
                Rule::LutRangeTruncated,
                Severity::Warn,
                i,
                name,
                format!(
                    "producer range {} exceeds the table's {} domain; out-of-domain codes clamp to the edge entries",
                    x.range, lut.in_spec
                ),
                "requantize the producer onto the table's input grid",
            ));
        }
        let (tmin, tmax) = slice_min_max(&lut.table);
        Some(State {
            shape,
            range: Interval::new(tmin as i128, tmax as i128),
            spec: Some(lut.out_spec),
            cert: x.cert.map(|c| self.gelu_cert(i, name, lut, x.range, c)),
        })
    }
}

impl State {
    /// The state after an op that moves values without changing them: no
    /// local error.
    fn moved(self) -> State {
        State { cert: self.cert.map(|c| Cert { local: 0.0, ..c }), ..self }
    }
}

/// The parameters of a conv/linear layer that its analysis reads.
struct Mac<'a> {
    weight: &'a Tensor<i32>,
    bias: Option<&'a [i64]>,
    requant: Option<&'a MulQuant>,
    relu: bool,
    weight_spec: QuantSpec,
    /// How findings name the output axis and its requantizer channel
    /// count.
    axis: (&'static str, &'static str),
}

fn mq_channel_mismatch(mq: &MulQuant, oc: usize) -> bool {
    let ch = mq.channels();
    ch != 1 && ch != oc
}

#[cfg(test)]
mod tests {
    use super::*;
    use t2c_core::FixedPointFormat;
    use t2c_tensor::ops::Conv2dSpec;

    fn quantize(spec: QuantSpec) -> IntOp {
        IntOp::Quantize { scale: 1.0, spec }
    }

    fn unit_requant(out_spec: QuantSpec) -> MulQuant {
        MulQuant::from_float(&[1.0], &[0.0], FixedPointFormat::int16_frac12(), out_spec)
    }

    /// 4-bit input, one 1x1 weight of +1, identity requant: every range is
    /// exact and every check closes.
    fn clean_conv_model() -> IntModel {
        let mut m = IntModel::new();
        m.push("input", quantize(QuantSpec::unsigned(4)), vec![]);
        m.push(
            "conv1",
            IntOp::Conv2d {
                weight: Tensor::from_vec(vec![1i32], &[1, 1, 1, 1]).unwrap(),
                bias: None,
                spec: Conv2dSpec::new(1, 0),
                requant: unit_requant(QuantSpec::unsigned(4)),
                relu: false,
                weight_spec: QuantSpec::signed(4),
            },
            vec![Src::Input],
        );
        m
    }

    fn ids(report: &LintReport) -> Vec<&str> {
        report.diagnostics.iter().map(|d| d.rule.id()).collect()
    }

    #[test]
    fn clean_model_has_no_findings() {
        let report = lint_model(&clean_conv_model(), &[1, 1, 4, 4], "clean");
        assert!(report.is_clean(), "unexpected findings:\n{}", report.to_text());
        assert_eq!(report.verdict(), "pass");
        // Range metadata: conv output is exactly the 4-bit grid image.
        assert_eq!(report.nodes[1].shape, vec![1, 1, 4, 4]);
        assert_eq!((report.nodes[1].lo, report.nodes[1].hi), (0, 15));
    }

    #[test]
    fn injected_accumulator_overflow_fires_t2c101() {
        let mut m = IntModel::new();
        m.push("input", quantize(QuantSpec::unsigned(8)), vec![]);
        // One 1x1 weight of 2^24: acc can reach 255·2^24 ≈ 4.3e9 > i32::MAX.
        m.push(
            "conv_hot",
            IntOp::Conv2d {
                weight: Tensor::from_vec(vec![1i32 << 24], &[1, 1, 1, 1]).unwrap(),
                bias: None,
                spec: Conv2dSpec::new(1, 0),
                requant: unit_requant(QuantSpec::unsigned(8)),
                relu: false,
                weight_spec: QuantSpec::signed(31),
            },
            vec![Src::Input],
        );
        let report = lint_model(&m, &[1, 1, 2, 2], "overflow");
        assert!(ids(&report).contains(&"T2C101"), "got {:?}", ids(&report));
        assert_eq!(report.verdict(), "fail");
    }

    #[test]
    fn bmm_accumulator_beyond_i64_maps_without_overflow() {
        // A signed-16 input through a bias-free, requant-free linear whose
        // weights are shifted left by up to 22 bits: its accumulator
        // envelope leaves i32, and the bmm of that output with itself has
        // an accumulator envelope beyond i64 before its requant maps it.
        let mut m = IntModel::new();
        m.push("input", quantize(QuantSpec::signed(16)), vec![]);
        m.push(
            "wide",
            IntOp::Linear {
                weight: Tensor::from_fn(&[8, 8], |i| ((i as i32 % 5) - 2) << (22 - i % 3)).into(),
                bias: None,
                requant: None,
                relu: false,
                weight_spec: QuantSpec::signed(26),
            },
            vec![Src::Input],
        );
        let m_q = FixedPointFormat::int16_frac12().quantize(0.75);
        let bmm = IntOp::BmmRequant { transpose_rhs: true, m: m_q, out_spec: QuantSpec::signed(8) };
        m.push("scores", bmm, vec![Src::Node(1), Src::Node(1)]);
        let report = lint_model(&m, &[1, 4, 8], "wide-bmm");
        assert!(ids(&report).contains(&"T2C101"), "got {:?}", ids(&report));
        // The requant's image is computed exactly and then clamped onto the
        // output grid — a wrapped product would leave a garbage range.
        let scores = &report.nodes[2];
        assert_eq!((scores.lo, scores.hi), (-128, 127), "{}", report.to_text());
    }

    #[test]
    fn injected_shift_mismatch_fires_t2c201_error() {
        let mut m = clean_conv_model();
        // Corrupt the requantizer: same format label, but the raw multiplier
        // is 128x what the scale chain needs (a frac_bits bookkeeping slip).
        if let IntOp::Conv2d { requant, .. } = &mut m.nodes[1].op {
            requant.scale_raw = vec![4096 * 128];
        } else {
            unreachable!();
        }
        let report = lint_model(&m, &[1, 1, 4, 4], "shift");
        let hit = report
            .diagnostics
            .iter()
            .find(|d| d.rule == Rule::ScaleChain)
            .expect("scale-chain finding");
        assert_eq!(hit.rule.id(), "T2C201");
        assert_eq!(hit.severity, Severity::Error);
        assert_eq!(report.verdict(), "fail");
    }

    #[test]
    fn residual_saturation_risk_is_a_warning_not_an_error() {
        let mut m = clean_conv_model();
        // 2x the exact multiplier: overshoots the grid by one width —
        // plausible for a calibrated model, so Warn, and the verdict stays
        // "pass" while is_clean() goes false.
        if let IntOp::Conv2d { requant, .. } = &mut m.nodes[1].op {
            requant.scale_raw = vec![4096 * 2];
        } else {
            unreachable!();
        }
        let report = lint_model(&m, &[1, 1, 4, 4], "warn");
        let hit = report
            .diagnostics
            .iter()
            .find(|d| d.rule == Rule::ScaleChain)
            .expect("scale-chain finding");
        assert_eq!(hit.severity, Severity::Warn);
        assert_eq!(report.verdict(), "pass");
        assert!(!report.is_clean());
    }

    #[test]
    fn injected_dangling_src_fires_t2c002() {
        let mut m = clean_conv_model();
        m.nodes[1].inputs = vec![Src::Node(7)];
        let report = lint_model(&m, &[1, 1, 4, 4], "dangling");
        assert!(ids(&report).contains(&"T2C002"), "got {:?}", ids(&report));
        assert_eq!(report.verdict(), "fail");
    }

    #[test]
    fn forward_reference_fires_t2c003() {
        let mut m = clean_conv_model();
        m.nodes[1].inputs = vec![Src::Node(1)];
        let report = lint_model(&m, &[1, 1, 4, 4], "forward");
        assert!(ids(&report).contains(&"T2C003"), "got {:?}", ids(&report));
    }

    #[test]
    fn missing_operand_fires_t2c004() {
        let mut m = clean_conv_model();
        m.nodes[1].inputs = vec![];
        let report = lint_model(&m, &[1, 1, 4, 4], "arity");
        assert!(ids(&report).contains(&"T2C004"), "got {:?}", ids(&report));
    }

    #[test]
    fn zero_extent_weights_fire_t2c005_and_fail_to_run() {
        // A conv with no output channels and a linear head with no output
        // features: both must fail lint, and the interpreter must refuse
        // them with an error rather than panic in the kernels.
        let mut conv = clean_conv_model();
        if let IntOp::Conv2d { weight, .. } = &mut conv.nodes[1].op {
            *weight = Tensor::zeros(&[0, 1, 1, 1]);
        }
        let mut linear = IntModel::new();
        linear.push("input", quantize(QuantSpec::signed(8)), vec![]);
        linear.push(
            "head",
            IntOp::Linear {
                weight: Tensor::zeros(&[0, 4]).into(),
                bias: None,
                requant: None,
                relu: false,
                weight_spec: QuantSpec::signed(8),
            },
            vec![Src::Node(0)],
        );
        for (m, dims) in [(conv, vec![1, 1, 4, 4]), (linear, vec![1, 4])] {
            let report = lint_model(&m, &dims, "empty");
            assert!(ids(&report).contains(&"T2C005"), "got {:?}", ids(&report));
            assert_eq!(report.verdict(), "fail");
            assert!(m.run_quantized(&Tensor::zeros(&dims)).is_err());
        }
    }

    #[test]
    fn injected_gelu_lut_gap_fires_t2c301() {
        let mut m = IntModel::new();
        m.push("input", quantize(QuantSpec::signed(8)), vec![]);
        // The signed-8 grid has 256 codes; a 100-entry table leaves the top
        // 156 codes indexing out of bounds at runtime.
        m.push(
            "gelu",
            IntOp::GeluLut(GeluLut {
                table: vec![0i32; 100],
                in_spec: QuantSpec::signed(8),
                in_scale: 0.05,
                out_spec: QuantSpec::signed(8),
                out_scale: 0.05,
            }),
            vec![Src::Input],
        );
        let report = lint_model(&m, &[1, 8], "lut-gap");
        let hit =
            report.diagnostics.iter().find(|d| d.rule == Rule::LutDomainGap).expect("LUT finding");
        assert_eq!(hit.rule.id(), "T2C301");
        assert_eq!(hit.severity, Severity::Error);
        assert_eq!(report.verdict(), "fail");
    }

    #[test]
    fn full_gelu_table_is_accepted() {
        let mut m = IntModel::new();
        m.push("input", quantize(QuantSpec::signed(8)), vec![]);
        m.push(
            "gelu",
            IntOp::GeluLut(GeluLut::build(QuantSpec::signed(8), 0.05, QuantSpec::signed(8), 0.05)),
            vec![Src::Input],
        );
        let report = lint_model(&m, &[1, 8], "lut-ok");
        assert!(report.is_clean(), "unexpected findings:\n{}", report.to_text());
    }

    #[test]
    fn unreachable_node_fires_t2c006() {
        let mut m = clean_conv_model();
        // A second conv reading the input whose output nobody consumes;
        // push the real output last so conv1 stays reachable.
        let orphan = m.nodes[1].clone();
        m.nodes.insert(1, orphan);
        m.nodes[1].name = "orphan".into();
        m.nodes[2].inputs = vec![Src::Input];
        let report = lint_model(&m, &[1, 1, 4, 4], "orphan");
        let hit = report
            .diagnostics
            .iter()
            .find(|d| d.rule == Rule::UnreachableNode)
            .expect("unreachable finding");
        assert_eq!(hit.rule.id(), "T2C006");
        assert_eq!(hit.layer, "orphan");
        assert_eq!(hit.severity, Severity::Warn);
    }

    #[test]
    fn not_starting_with_quantize_fires_t2c001() {
        let mut m = IntModel::new();
        m.push("flat", IntOp::Flatten, vec![Src::Input]);
        let report = lint_model(&m, &[1, 3, 4, 4], "no-quant");
        assert!(ids(&report).contains(&"T2C001"), "got {:?}", ids(&report));
        assert_eq!(report.verdict(), "fail");
    }

    #[test]
    fn oversized_bias_fires_t2c102() {
        let mut m = clean_conv_model();
        if let IntOp::Conv2d { requant, .. } = &mut m.nodes[1].op {
            requant.bias_raw = vec![i64::MAX / 2];
        } else {
            unreachable!();
        }
        let report = lint_model(&m, &[1, 1, 4, 4], "bias");
        assert!(ids(&report).contains(&"T2C102"), "got {:?}", ids(&report));
    }

    fn sparse_linear_model(weight: t2c_tensor::SparseMat, declared: f32) -> IntModel {
        let mut m = IntModel::new();
        m.push("input", quantize(QuantSpec::signed(4)), vec![]);
        m.push(
            "fc_sparse",
            IntOp::Linear {
                weight: LinearWeight::Sparse { mat: weight, declared_sparsity: declared },
                bias: None,
                requant: None,
                relu: false,
                weight_spec: QuantSpec::signed(2),
            },
            vec![Src::Input],
        );
        m
    }

    fn sparse_weight() -> t2c_tensor::SparseMat {
        let dense = Tensor::from_fn(&[2, 8], |i| i32::from(i % 2 == 0));
        t2c_tensor::SparseMat::from_dense(&dense).unwrap()
    }

    #[test]
    fn clean_sparse_linear_has_no_findings() {
        let w = sparse_weight();
        let declared = w.sparsity();
        let report = lint_model(&sparse_linear_model(w, declared), &[1, 8], "sparse-ok");
        assert!(report.is_clean(), "unexpected findings:\n{}", report.to_text());
        assert_eq!(report.nodes[1].shape, vec![1, 2]);
        // 4 surviving weights of +1 against the signed-4 grid [-8, 7].
        assert_eq!((report.nodes[1].lo, report.nodes[1].hi), (-32, 28));
    }

    #[test]
    fn corrupted_sparse_payload_fires_t2c501() {
        let mut w = sparse_weight();
        w.vals.pop();
        let declared = 0.5;
        let report = lint_model(&sparse_linear_model(w, declared), &[1, 8], "sparse-mask");
        let hit = report
            .diagnostics
            .iter()
            .find(|d| d.rule == Rule::SparseMaskMismatch)
            .expect("mask finding");
        assert_eq!(hit.rule.id(), "T2C501");
        assert_eq!(hit.severity, Severity::Error);
        assert_eq!(report.verdict(), "fail");
    }

    #[test]
    fn broken_nm_constraint_fires_t2c502() {
        let dense = Tensor::from_vec(vec![1, 0, 2, 0, 0, 3, 0, 4], &[2, 4]).unwrap();
        let mut w = t2c_tensor::SparseMat::from_dense_nm(&dense, 2, 4).unwrap();
        if let t2c_tensor::SparseEncoding::Nm { n, .. } = &mut w.encoding {
            *n = 0;
        }
        let report = lint_model(&sparse_linear_model(w, 0.5), &[1, 4], "sparse-nm");
        let hit = report
            .diagnostics
            .iter()
            .find(|d| d.rule == Rule::NmConstraintViolation)
            .expect("nm finding");
        assert_eq!(hit.rule.id(), "T2C502");
        assert_eq!(hit.severity, Severity::Error);
        assert_eq!(report.verdict(), "fail");
    }

    #[test]
    fn declared_sparsity_drift_fires_t2c503() {
        let w = sparse_weight();
        let declared = w.sparsity() + 0.2;
        let report = lint_model(&sparse_linear_model(w, declared), &[1, 8], "sparse-drift");
        let hit = report
            .diagnostics
            .iter()
            .find(|d| d.rule == Rule::SparsityMismatch)
            .expect("sparsity finding");
        assert_eq!(hit.rule.id(), "T2C503");
        assert_eq!(hit.severity, Severity::Error);
        // The structural analysis still runs: shape and ranges are derived
        // from the (valid) layout even though the declaration drifted.
        assert_eq!(report.nodes[1].shape, vec![1, 2]);
        assert_eq!(report.verdict(), "fail");
    }

    #[test]
    fn softmax_truncated_tail_is_a_warning() {
        let mut m = IntModel::new();
        m.push("input", quantize(QuantSpec::signed(8)), vec![]);
        m.push(
            "softmax",
            IntOp::SoftmaxLut(SoftmaxLut::build(0.1, QuantSpec::unsigned(8), 32, 15)),
            vec![Src::Input],
        );
        let report = lint_model(&m, &[1, 4, 8], "softmax");
        let hit = report
            .diagnostics
            .iter()
            .find(|d| d.rule == Rule::LutRangeTruncated)
            .expect("truncation finding");
        assert_eq!(hit.rule.id(), "T2C302");
        assert_eq!(hit.severity, Severity::Warn);
        assert_eq!(report.verdict(), "pass");
    }
}
