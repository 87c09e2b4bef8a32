use t2c_autograd::{Param, Var};
use t2c_nn::layers::{Activation, Conv2d, LayerNorm, Linear};
use t2c_nn::models::ViT;
use t2c_nn::Module;
use t2c_tensor::TensorError;

use crate::fuse::{bias_to_accumulator, fuse_layer};
use crate::intmodel::{IntOp, LayerNormInt, Src};
use crate::lut::{GeluLut, SoftmaxLut};
use crate::qlayers::{PathMode, QAdd, QConvUnit, QLinearUnit};
use crate::qmodels::{QuantFactory, QuantModel};
use crate::quantizer::ActQuantizer;
use crate::{FuseScheme, IntModel, QuantConfig, QuantSpec, Result};

/// Quantized multi-head attention (paper Figure 4): integer Q/K/V/proj
/// projections, an observed score scale feeding the LUT softmax, and fixed
/// unsigned-8 probability codes.
struct QAttn {
    q: QLinearUnit,
    k: QLinearUnit,
    v: QLinearUnit,
    proj: QLinearUnit,
    scores_q: Box<dyn ActQuantizer>,
    ctx_q: Box<dyn ActQuantizer>,
    heads: usize,
    head_dim: usize,
    probs_spec: QuantSpec,
    mode: std::cell::Cell<PathMode>,
}

impl QAttn {
    fn split_heads(&self, x: &Var, n: usize, l: usize) -> Result<Var> {
        x.reshape(&[n, l, self.heads, self.head_dim])?.permute(&[0, 2, 1, 3])?.reshape(&[
            n * self.heads,
            l,
            self.head_dim,
        ])
    }

    fn apply_q(&self, q: &dyn ActQuantizer, x: &Var) -> Result<Var> {
        match self.mode.get() {
            PathMode::Quant => q.train_path(x),
            PathMode::Calibrate => {
                q.observe(&x.value());
                Ok(x.clone())
            }
            PathMode::Float => Ok(x.clone()),
        }
    }

    fn forward(&self, x: &Var) -> Result<Var> {
        let dims = x.dims();
        let (n, l) = (dims[0], dims[1]);
        let q = self.split_heads(&self.q.forward(x)?, n, l)?;
        let k = self.split_heads(&self.k.forward(x)?, n, l)?;
        let v = self.split_heads(&self.v.forward(x)?, n, l)?;
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let scores = q.bmm(&k.permute(&[0, 2, 1])?)?.mul_scalar(scale);
        let scores = self.apply_q(self.scores_q.as_ref(), &scores)?;
        let mut probs = scores.softmax_lastdim()?;
        if self.mode.get() == PathMode::Quant {
            // Probability codes live on a fixed unsigned grid (scale 1/qmax).
            let qmax = self.probs_spec.qmax() as f32;
            probs = probs.mul_scalar(qmax).round_ste().mul_scalar(1.0 / qmax);
        }
        let ctx = probs
            .bmm(&v)?
            .reshape(&[n, self.heads, l, self.head_dim])?
            .permute(&[0, 2, 1, 3])?
            .reshape(&[n, l, self.heads * self.head_dim])?;
        let ctx = self.apply_q(self.ctx_q.as_ref(), &ctx)?;
        self.proj.forward(&ctx)
    }

    fn set_mode(&self, mode: PathMode) {
        self.mode.set(mode);
        self.q.set_mode(mode);
        self.k.set_mode(mode);
        self.v.set_mode(mode);
        self.proj.set_mode(mode);
    }

    fn quant_trainables(&self) -> Vec<Param> {
        let mut out = Vec::new();
        for u in [&self.q, &self.k, &self.v, &self.proj] {
            out.extend(u.quant_trainables());
        }
        out.extend(self.scores_q.trainable());
        out.extend(self.ctx_q.trainable());
        out
    }
}

struct QViTBlock {
    ln1: LayerNorm,
    ln1_q: Box<dyn ActQuantizer>,
    attn: QAttn,
    add1: QAdd,
    ln2: LayerNorm,
    ln2_q: Box<dyn ActQuantizer>,
    fc1: QLinearUnit,
    fc2: QLinearUnit,
    add2: QAdd,
}

/// The quantized twin of [`ViT`]: integer-only attention with LUT softmax
/// and GELU, integer LayerNorm with instant statistics.
pub struct QViT {
    input_q: Box<dyn ActQuantizer>,
    patch: QConvUnit,
    cls: Param,
    pos: Param,
    embed_q: Box<dyn ActQuantizer>,
    blocks: Vec<QViTBlock>,
    lnf: LayerNorm,
    lnf_q: Box<dyn ActQuantizer>,
    head: QLinearUnit,
    mode: std::cell::Cell<PathMode>,
    config: QuantConfig,
    method: String,
    heads: usize,
}

fn share_linear(l: &Linear) -> Linear {
    Linear::from_params(l.weight().clone(), l.bias().cloned())
}

fn share_ln(ln: &LayerNorm) -> LayerNorm {
    LayerNorm::from_params(ln.gamma().clone(), ln.beta().clone(), ln.eps())
}

fn q_linear(name: &str, l: &Linear, factory: &QuantFactory) -> QLinearUnit {
    QLinearUnit::new(
        name,
        share_linear(l),
        Activation::Identity,
        factory.weight(name),
        Some(factory.act_signed(&format!("{name}.out"))),
    )
}

impl QViT {
    /// Wraps a float ViT with the factory's quantizers.
    pub fn from_float(model: &ViT, factory: &QuantFactory) -> Self {
        let cfg = model.config().clone();
        let patch = QConvUnit::new(
            "patch_embed",
            Conv2d::from_params(
                model.patch_embed().weight().clone(),
                model.patch_embed().bias().cloned(),
                model.patch_embed().spec(),
            ),
            None,
            Activation::Identity,
            factory.weight("patch_embed"),
            factory.act_signed("patch_embed.out"),
        );
        let blocks = model
            .blocks()
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let p = format!("block{i}");
                QViTBlock {
                    ln1: share_ln(b.ln1()),
                    ln1_q: factory.act_signed(&format!("{p}.ln1.out")),
                    attn: QAttn {
                        q: q_linear(&format!("{p}.attn.q"), b.attn().q_proj(), factory),
                        k: q_linear(&format!("{p}.attn.k"), b.attn().k_proj(), factory),
                        v: q_linear(&format!("{p}.attn.v"), b.attn().v_proj(), factory),
                        proj: q_linear(&format!("{p}.attn.proj"), b.attn().out_proj(), factory),
                        scores_q: factory.act_signed(&format!("{p}.attn.scores")),
                        ctx_q: factory.act_signed(&format!("{p}.attn.ctx")),
                        heads: b.attn().heads(),
                        head_dim: b.attn().dim() / b.attn().heads(),
                        probs_spec: QuantSpec::unsigned(8),
                        mode: std::cell::Cell::new(PathMode::Quant),
                    },
                    add1: QAdd::new(Activation::Identity, factory.act_signed(&format!("{p}.add1"))),
                    ln2: share_ln(b.ln2()),
                    ln2_q: factory.act_signed(&format!("{p}.ln2.out")),
                    fc1: QLinearUnit::new(
                        &format!("{p}.fc1"),
                        share_linear(b.fc1()),
                        Activation::Gelu,
                        factory.weight(&format!("{p}.fc1")),
                        Some(factory.act_signed(&format!("{p}.fc1.out"))),
                    )
                    .with_pre_q(factory.act_signed(&format!("{p}.fc1.pre"))),
                    fc2: q_linear(&format!("{p}.fc2"), b.fc2(), factory),
                    add2: QAdd::new(Activation::Identity, factory.act_signed(&format!("{p}.add2"))),
                }
            })
            .collect();
        let head = QLinearUnit::new(
            "head",
            share_linear(model.head()),
            Activation::Identity,
            // The classifier head stays per-tensor 8-bit (standard practice
            // for first/last layers): its logits are raw accumulators with
            // no requantizer, and argmax over them is only scale-invariant
            // if every class shares one scale.
            Box::new(crate::quantizer::MinMaxWeight::new(crate::QuantSpec::signed(8), false)),
            None,
        );
        QViT {
            input_q: factory.input(),
            patch,
            cls: model.cls_token().clone(),
            pos: model.pos_embed().clone(),
            embed_q: factory.act_signed("embed.out"),
            blocks,
            lnf: share_ln(model.final_ln()),
            lnf_q: factory.act_signed("lnf.out"),
            head,
            mode: std::cell::Cell::new(PathMode::Quant),
            config: factory.config(),
            method: factory.method().to_string(),
            heads: cfg.heads,
        }
    }

    /// The model-input quantizer.
    pub fn input_quantizer(&self) -> &dyn ActQuantizer {
        self.input_q.as_ref()
    }

    /// The layer configuration in force.
    pub fn config(&self) -> QuantConfig {
        self.config
    }

    fn apply_q(&self, q: &dyn ActQuantizer, x: &Var) -> Result<Var> {
        match self.mode.get() {
            PathMode::Quant => q.train_path(x),
            PathMode::Calibrate => {
                q.observe(&x.value());
                Ok(x.clone())
            }
            PathMode::Float => Ok(x.clone()),
        }
    }

    fn embed(&self, x: &Var) -> Result<Var> {
        let g = x.graph_handle();
        let p = self.patch.forward(x)?;
        let dims = p.dims();
        let (n, d, l) = (dims[0], dims[1], dims[2] * dims[3]);
        let tokens = p.reshape(&[n, d, l])?.permute(&[0, 2, 1])?;
        let cls = g.param(&self.cls);
        let ones = g.leaf(t2c_tensor::Tensor::ones(&[n, 1, 1]));
        let seq = ones.mul(&cls)?.concat(&tokens, 1)?;
        let seq = seq.add(&g.param(&self.pos))?;
        self.apply_q(self.embed_q.as_ref(), &seq)
    }
}

impl Module for QViT {
    fn forward(&self, x: &Var) -> Result<Var> {
        let x = match self.mode.get() {
            PathMode::Quant => self.input_q.train_path(x)?,
            PathMode::Calibrate => {
                self.input_q.observe(&x.value());
                x.clone()
            }
            PathMode::Float => x.clone(),
        };
        let mut h = self.embed(&x)?;
        for b in &self.blocks {
            let a = self.apply_q(b.ln1_q.as_ref(), &b.ln1.forward(&h)?)?;
            let at = b.attn.forward(&a)?;
            let h1 = b.add1.forward(&h, &at)?;
            let m = self.apply_q(b.ln2_q.as_ref(), &b.ln2.forward(&h1)?)?;
            let mlp = b.fc2.forward(&b.fc1.forward(&m)?)?;
            h = b.add2.forward(&h1, &mlp)?;
        }
        let hf = self.apply_q(self.lnf_q.as_ref(), &self.lnf.forward(&h)?)?;
        let cls = hf.narrow(1, 0, 1)?;
        let dims = cls.dims();
        self.head.forward(&cls.reshape(&[dims[0], dims[2]])?)
    }

    fn params(&self) -> Vec<Param> {
        let mut out = self.patch.params();
        out.push(self.cls.clone());
        out.push(self.pos.clone());
        for b in &self.blocks {
            out.extend(b.ln1.params());
            for u in [&b.attn.q, &b.attn.k, &b.attn.v, &b.attn.proj, &b.fc1, &b.fc2] {
                out.extend(u.params());
            }
            out.extend(b.ln2.params());
        }
        out.extend(self.lnf.params());
        out.extend(self.head.params());
        out
    }

    fn set_training(&self, training: bool) {
        let frozen = !training;
        self.input_q.set_frozen(frozen);
        self.patch.set_training(training);
        self.embed_q.set_frozen(frozen);
        for b in &self.blocks {
            b.ln1_q.set_frozen(frozen);
            for u in [&b.attn.q, &b.attn.k, &b.attn.v, &b.attn.proj, &b.fc1, &b.fc2] {
                u.set_training(training);
            }
            b.attn.scores_q.set_frozen(frozen);
            b.attn.ctx_q.set_frozen(frozen);
            b.add1.set_training(training);
            b.ln2_q.set_frozen(frozen);
            b.add2.set_training(training);
        }
        self.lnf_q.set_frozen(frozen);
        self.head.set_training(training);
    }
}

impl QuantModel for QViT {
    fn set_path(&self, mode: PathMode) {
        self.mode.set(mode);
        self.patch.set_mode(mode);
        for b in &self.blocks {
            b.attn.set_mode(mode);
            b.add1.set_mode(mode);
            b.add2.set_mode(mode);
            b.fc1.set_mode(mode);
            b.fc2.set_mode(mode);
        }
        self.head.set_mode(mode);
    }

    fn quant_trainables(&self) -> Vec<Param> {
        let mut out = self.input_q.trainable();
        out.extend(self.patch.quant_trainables());
        out.extend(self.embed_q.trainable());
        for b in &self.blocks {
            out.extend(b.ln1_q.trainable());
            out.extend(b.attn.quant_trainables());
            out.extend(b.add1.out_quantizer().trainable());
            out.extend(b.ln2_q.trainable());
            out.extend(b.fc1.quant_trainables());
            out.extend(b.fc2.quant_trainables());
            out.extend(b.add2.out_quantizer().trainable());
        }
        out.extend(self.lnf_q.trainable());
        out.extend(self.head.quant_trainables());
        out
    }

    fn to_int(&self, scheme: FuseScheme) -> Result<IntModel> {
        if !self.input_q.is_calibrated() {
            return Err(TensorError::InvalidArgument(
                "model is uncalibrated: run calibration or QAT before conversion".into(),
            ));
        }
        let fmt = self.config.fixed;
        let mut m = IntModel::new();
        let input = m.push(
            "input_quant",
            IntOp::Quantize { scale: self.input_q.scale(), spec: self.input_q.spec() },
            vec![],
        );
        // ---- Patch embedding + tokens ------------------------------------
        let s_patch = self.patch.out_quantizer().scale();
        let fused = fuse_layer(
            &self.patch.conv().weight().value(),
            self.patch.conv().bias().map(t2c_autograd::Param::value).as_ref(),
            None,
            self.patch.weight_quantizer(),
            self.input_q.scale(),
            s_patch,
            scheme,
            fmt,
            self.patch.out_quantizer().spec(),
        )?;
        let conv = m.push(
            "patch_embed",
            IntOp::Conv2d {
                weight: fused.weight_q,
                bias: None,
                spec: self.patch.conv().spec(),
                requant: fused.requant,
                relu: false,
                weight_spec: self.patch.weight_quantizer().spec(),
            },
            vec![Src::Node(input)],
        );
        let tokens = m.push("patch_to_tokens", IntOp::PatchToTokens, vec![Src::Node(conv)]);
        // Class token and position embedding, quantized at the patch scale.
        let cls_val = self.cls.value();
        let d = cls_val.numel();
        let cls_q = cls_val.map(|v| (v / s_patch).round() as i32).reshape(&[d])?;
        let with_cls =
            m.push("concat_cls", IntOp::ConcatToken { token: cls_q }, vec![Src::Node(tokens)]);
        let pos_val = self.pos.value();
        let pos_dims = pos_val.dims().to_vec();
        let pos_q =
            pos_val.map(|v| (v / s_patch).round() as i32).reshape(&[pos_dims[1], pos_dims[2]])?;
        let s_embed = self.embed_q.scale();
        let mut cur = m.push(
            "add_pos_embed",
            IntOp::AddConstRequant {
                value: pos_q,
                m: crate::FixedScalar::auto(s_patch / s_embed, fmt.total_bits()),
                out_spec: self.embed_q.spec(),
            },
            vec![Src::Node(with_cls)],
        );
        let mut s_cur = s_embed;
        // ---- Transformer blocks ------------------------------------------
        let push_ln = |m: &mut IntModel,
                       name: &str,
                       ln: &LayerNorm,
                       q: &dyn ActQuantizer,
                       src: usize|
         -> (usize, f32) {
            let s_out = q.scale();
            let shift = 6u8;
            let gamma = ln.gamma().value();
            let beta = ln.beta().value();
            let denom = s_out * (1u32 << shift) as f32;
            let max_gamma = gamma.as_slice().iter().fold(0.0f32, |m, &g| m.max((g / denom).abs()));
            let ln_fmt = crate::FixedPointFormat::auto(fmt.total_bits(), max_gamma);
            let ln_int = LayerNormInt {
                gamma_m: gamma.as_slice().iter().map(|&g| ln_fmt.quantize(g / denom).raw).collect(),
                beta_b: beta
                    .as_slice()
                    .iter()
                    .map(|&b| ((b / s_out) * (1i64 << ln_fmt.frac_bits) as f32).round() as i64)
                    .collect(),
                frac: ln_fmt.frac_bits,
                shift,
                out_spec: q.spec(),
            };
            (m.push(name, IntOp::LayerNorm(ln_int), vec![Src::Node(src)]), s_out)
        };
        let push_linear = |m: &mut IntModel,
                           unit: &QLinearUnit,
                           s_x: f32,
                           s_y: f32,
                           out_spec: QuantSpec,
                           src: usize|
         -> Result<usize> {
            let fused = fuse_layer(
                &unit.linear().weight().value(),
                unit.linear().bias().map(t2c_autograd::Param::value).as_ref(),
                None,
                unit.weight_quantizer(),
                s_x,
                s_y,
                scheme,
                fmt,
                out_spec,
            )?;
            Ok(m.push(
                unit.name(),
                IntOp::Linear {
                    weight: fused.weight_q.into(),
                    bias: None,
                    requant: Some(fused.requant),
                    relu: false,
                    weight_spec: unit.weight_quantizer().spec(),
                },
                vec![Src::Node(src)],
            ))
        };
        for b in &self.blocks {
            let (ln1, s_ln1) = push_ln(&mut m, "ln1", &b.ln1, b.ln1_q.as_ref(), cur);
            let a = &b.attn;
            let (sq, sk, sv) = (
                a.q.out_quantizer().expect("q out_q").scale(),
                a.k.out_quantizer().expect("k out_q").scale(),
                a.v.out_quantizer().expect("v out_q").scale(),
            );
            let q_id =
                push_linear(&mut m, &a.q, s_ln1, sq, a.q.out_quantizer().unwrap().spec(), ln1)?;
            let k_id =
                push_linear(&mut m, &a.k, s_ln1, sk, a.k.out_quantizer().unwrap().spec(), ln1)?;
            let v_id =
                push_linear(&mut m, &a.v, s_ln1, sv, a.v.out_quantizer().unwrap().spec(), ln1)?;
            let qh =
                m.push("split_q", IntOp::SplitHeads { heads: self.heads }, vec![Src::Node(q_id)]);
            let kh =
                m.push("split_k", IntOp::SplitHeads { heads: self.heads }, vec![Src::Node(k_id)]);
            let vh =
                m.push("split_v", IntOp::SplitHeads { heads: self.heads }, vec![Src::Node(v_id)]);
            let s_scores = a.scores_q.scale();
            let inv_sqrt = 1.0 / (a.head_dim as f32).sqrt();
            let scores = m.push(
                "attn_scores",
                IntOp::BmmRequant {
                    transpose_rhs: true,
                    m: crate::FixedScalar::auto(sq * sk * inv_sqrt / s_scores, fmt.total_bits()),
                    out_spec: a.scores_q.spec(),
                },
                vec![Src::Node(qh), Src::Node(kh)],
            );
            let table_size = ((16.0 / s_scores).ceil() as usize).clamp(16, 8192);
            let probs = m.push(
                "softmax_lut",
                IntOp::SoftmaxLut(SoftmaxLut::build(s_scores, a.probs_spec, table_size, 15)),
                vec![Src::Node(scores)],
            );
            let s_probs = 1.0 / a.probs_spec.qmax() as f32;
            let s_ctx = a.ctx_q.scale();
            let ctx = m.push(
                "attn_context",
                IntOp::BmmRequant {
                    transpose_rhs: false,
                    m: crate::FixedScalar::auto(s_probs * sv / s_ctx, fmt.total_bits()),
                    out_spec: a.ctx_q.spec(),
                },
                vec![Src::Node(probs), Src::Node(vh)],
            );
            let merged = m.push(
                "merge_heads",
                IntOp::MergeHeads { heads: self.heads },
                vec![Src::Node(ctx)],
            );
            let s_proj = a.proj.out_quantizer().unwrap().scale();
            let proj = push_linear(
                &mut m,
                &a.proj,
                s_ctx,
                s_proj,
                a.proj.out_quantizer().unwrap().spec(),
                merged,
            )?;
            let s_add1 = b.add1.out_quantizer().scale();
            let add1 = m.push(
                "residual_add1",
                IntOp::AddRequant {
                    m_a: crate::FixedScalar::auto(s_cur / s_add1, fmt.total_bits()),
                    m_b: crate::FixedScalar::auto(s_proj / s_add1, fmt.total_bits()),
                    out_spec: b.add1.out_quantizer().spec(),
                    relu: false,
                },
                vec![Src::Node(cur), Src::Node(proj)],
            );
            let (ln2, s_ln2) = push_ln(&mut m, "ln2", &b.ln2, b.ln2_q.as_ref(), add1);
            // fc1 → GELU LUT → fc2
            let pre = b.fc1.pre_quantizer().expect("fc1 pre_q");
            let fc1 = push_linear(&mut m, &b.fc1, s_ln2, pre.scale(), pre.spec(), ln2)?;
            let s_gelu_out = b.fc1.out_quantizer().unwrap().scale();
            let gelu = m.push(
                "gelu_lut",
                IntOp::GeluLut(GeluLut::build(
                    pre.spec(),
                    pre.scale(),
                    b.fc1.out_quantizer().unwrap().spec(),
                    s_gelu_out,
                )),
                vec![Src::Node(fc1)],
            );
            let s_fc2 = b.fc2.out_quantizer().unwrap().scale();
            let fc2 = push_linear(
                &mut m,
                &b.fc2,
                s_gelu_out,
                s_fc2,
                b.fc2.out_quantizer().unwrap().spec(),
                gelu,
            )?;
            let s_add2 = b.add2.out_quantizer().scale();
            cur = m.push(
                "residual_add2",
                IntOp::AddRequant {
                    m_a: crate::FixedScalar::auto(s_add1 / s_add2, fmt.total_bits()),
                    m_b: crate::FixedScalar::auto(s_fc2 / s_add2, fmt.total_bits()),
                    out_spec: b.add2.out_quantizer().spec(),
                    relu: false,
                },
                vec![Src::Node(add1), Src::Node(fc2)],
            );
            s_cur = s_add2;
        }
        // ---- Final LN, class token, head ---------------------------------
        let (lnf, s_lnf) = push_ln(&mut m, "final_ln", &self.lnf, self.lnf_q.as_ref(), cur);
        let cls_tok = m.push("take_cls", IntOp::TakeToken { index: 0 }, vec![Src::Node(lnf)]);
        let head_w = self.head.linear().weight().value();
        self.head.weight_quantizer().calibrate(&head_w);
        let weight_q = self.head.weight_quantizer().quantize(&head_w);
        let w_scales = self.head.weight_quantizer().scale().to_per_channel(head_w.dim(0));
        let bias =
            self.head.linear().bias().map(|b| bias_to_accumulator(&b.value(), &w_scales, s_lnf));
        m.push(
            "head",
            IntOp::Linear {
                weight: weight_q.into(),
                bias,
                requant: None,
                relu: false,
                weight_spec: self.head.weight_quantizer().spec(),
            },
            vec![Src::Node(cls_tok)],
        );
        Ok(m)
    }

    fn method(&self) -> &str {
        &self.method
    }
}

impl std::fmt::Debug for QViT {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "QViT({} blocks, method {})", self.blocks.len(), self.method)
    }
}
