use t2c_autograd::{Param, Var};
use t2c_nn::layers::{Activation, BatchNorm2d, Conv2d, Linear};
use t2c_nn::models::ResNet;
use t2c_nn::Module;
use t2c_tensor::TensorError;

use crate::fuse::{bias_to_accumulator, fuse_layer};
use crate::intmodel::{IntOp, Src};
use crate::qlayers::{PathMode, QAdd, QConvUnit, QLinearUnit};
use crate::qmodels::{QuantFactory, QuantModel};
use crate::quantizer::ActQuantizer;
use crate::{FuseScheme, IntModel, QuantConfig, Result};

struct QBlock {
    cb1: QConvUnit,
    cb2: QConvUnit,
    down: Option<QConvUnit>,
    add: QAdd,
}

/// The quantized twin of [`ResNet`] — shares parameter storage with the
/// float model it was built from.
pub struct QResNet {
    input_q: Box<dyn ActQuantizer>,
    stem: QConvUnit,
    blocks: Vec<QBlock>,
    head: QLinearUnit,
    mode: std::cell::Cell<PathMode>,
    config: QuantConfig,
    method: String,
}

fn share_conv(conv: &Conv2d) -> Conv2d {
    Conv2d::from_params(conv.weight().clone(), conv.bias().cloned(), conv.spec())
}

fn share_bn(bn: &BatchNorm2d) -> BatchNorm2d {
    BatchNorm2d::from_params(
        bn.gamma().clone(),
        bn.beta().clone(),
        bn.running_mean().clone(),
        bn.running_var().clone(),
        bn.eps(),
    )
}

fn share_linear(l: &Linear) -> Linear {
    Linear::from_params(l.weight().clone(), l.bias().cloned())
}

impl QResNet {
    /// Wraps a float ResNet with the factory's quantizers.
    ///
    /// Sub-8-bit activation configs keep an 8-bit inter-layer stream and
    /// attach the low-precision quantizer at every conv input (per-layer
    /// `X_Q`); see [`QuantFactory::narrow_acts`].
    pub fn from_float(model: &ResNet, factory: &QuantFactory) -> Self {
        let narrow = factory.narrow_acts();
        let stem_out: Box<dyn crate::quantizer::ActQuantizer> =
            if narrow { factory.stream_act("stem.out") } else { factory.stem_act("stem.out") };
        let stem = QConvUnit::new(
            "stem",
            share_conv(model.stem()),
            Some(share_bn(model.stem_bn())),
            Activation::Relu,
            factory.stem_weight("stem"),
            stem_out,
        );
        let blocks = model
            .blocks()
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let mut cb1 = QConvUnit::new(
                    &format!("block{i}.cb1"),
                    share_conv(b.conv1()),
                    Some(share_bn(b.bn1())),
                    Activation::Relu,
                    factory.weight(&format!("block{i}.cb1")),
                    if narrow {
                        factory.stream_act(&format!("block{i}.cb1.out"))
                    } else {
                        factory.act(&format!("block{i}.cb1.out"))
                    },
                );
                if let Some(q) = factory.conv_in(&format!("block{i}.cb1.in")) {
                    cb1 = cb1.with_in_q(q);
                }
                let mut cb2 = QConvUnit::new(
                    &format!("block{i}.cb2"),
                    share_conv(b.conv2()),
                    Some(share_bn(b.bn2())),
                    Activation::Identity,
                    factory.weight(&format!("block{i}.cb2")),
                    if narrow {
                        factory.stream_act_signed(&format!("block{i}.cb2.out"))
                    } else {
                        factory.act_signed(&format!("block{i}.cb2.out"))
                    },
                );
                if let Some(q) = factory.conv_in(&format!("block{i}.cb2.in")) {
                    cb2 = cb2.with_in_q(q);
                }
                let down = b.downsample().map(|(conv, bn)| {
                    let mut d = QConvUnit::new(
                        &format!("block{i}.down"),
                        share_conv(conv),
                        Some(share_bn(bn)),
                        Activation::Identity,
                        factory.weight(&format!("block{i}.down")),
                        if narrow {
                            factory.stream_act_signed(&format!("block{i}.down.out"))
                        } else {
                            factory.act_signed(&format!("block{i}.down.out"))
                        },
                    );
                    if let Some(q) = factory.conv_in(&format!("block{i}.down.in")) {
                        d = d.with_in_q(q);
                    }
                    d
                });
                let add = QAdd::new(
                    Activation::Relu,
                    if narrow {
                        factory.stream_act(&format!("block{i}.add.out"))
                    } else {
                        factory.act(&format!("block{i}.add.out"))
                    },
                );
                QBlock { cb1, cb2, down, add }
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
        QResNet {
            input_q: factory.input(),
            stem,
            blocks,
            head,
            mode: std::cell::Cell::new(PathMode::Quant),
            config: factory.config(),
            method: factory.method().to_string(),
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

    fn apply_input_q(&self, x: &Var) -> Result<Var> {
        match self.mode.get() {
            PathMode::Quant => self.input_q.train_path(x),
            PathMode::Calibrate => {
                self.input_q.observe(&x.value());
                Ok(x.clone())
            }
            PathMode::Float => Ok(x.clone()),
        }
    }
}

impl Module for QResNet {
    fn forward(&self, x: &Var) -> Result<Var> {
        let mut h = self.stem.forward(&self.apply_input_q(x)?)?;
        for b in &self.blocks {
            let main = b.cb2.forward(&b.cb1.forward(&h)?)?;
            let skip = match &b.down {
                Some(d) => d.forward(&h)?,
                None => h.clone(),
            };
            h = b.add.forward(&main, &skip)?;
        }
        self.head.forward(&h.global_avg_pool2d()?)
    }

    fn params(&self) -> Vec<Param> {
        let mut out = self.stem.params();
        for b in &self.blocks {
            out.extend(b.cb1.params());
            out.extend(b.cb2.params());
            if let Some(d) = &b.down {
                out.extend(d.params());
            }
        }
        out.extend(self.head.params());
        out
    }

    fn set_training(&self, training: bool) {
        self.input_q.set_frozen(!training);
        self.stem.set_training(training);
        for b in &self.blocks {
            b.cb1.set_training(training);
            b.cb2.set_training(training);
            if let Some(d) = &b.down {
                d.set_training(training);
            }
            b.add.set_training(training);
        }
        self.head.set_training(training);
    }
}

impl QuantModel for QResNet {
    fn set_path(&self, mode: PathMode) {
        self.mode.set(mode);
        self.stem.set_mode(mode);
        for b in &self.blocks {
            b.cb1.set_mode(mode);
            b.cb2.set_mode(mode);
            if let Some(d) = &b.down {
                d.set_mode(mode);
            }
            b.add.set_mode(mode);
        }
        self.head.set_mode(mode);
    }

    fn quant_trainables(&self) -> Vec<Param> {
        let mut out = self.input_q.trainable();
        out.extend(self.stem.quant_trainables());
        for b in &self.blocks {
            out.extend(b.cb1.quant_trainables());
            out.extend(b.cb2.quant_trainables());
            if let Some(d) = &b.down {
                out.extend(d.quant_trainables());
            }
            out.extend(b.add.out_quantizer().trainable());
        }
        out.extend(self.head.quant_trainables());
        out
    }

    fn conv_units(&self) -> Vec<&QConvUnit> {
        let mut out = vec![&self.stem];
        for b in &self.blocks {
            out.push(&b.cb1);
            out.push(&b.cb2);
            if let Some(d) = &b.down {
                out.push(d);
            }
        }
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
        let push_conv = |m: &mut IntModel,
                         unit: &QConvUnit,
                         s_x: f32,
                         src: Src,
                         relu: bool|
         -> Result<(usize, f32)> {
            // Per-layer input requantization (the paper's X_Q): drop from
            // the 8-bit stream onto the conv's low-precision input grid.
            let (src, s_x) = match unit.in_quantizer() {
                Some(iq) => {
                    let s_in = iq.scale();
                    let id = m.push(
                        format!("{}_in_requant", unit.name()),
                        IntOp::Requant {
                            m: crate::FixedScalar::auto(s_x / s_in, fmt.total_bits()),
                            out_spec: iq.spec(),
                        },
                        vec![src],
                    );
                    (Src::Node(id), s_in)
                }
                None => (src, s_x),
            };
            let s_y = unit.out_quantizer().scale();
            let fused = fuse_layer(
                &unit.conv().weight().value(),
                unit.conv().bias().map(t2c_autograd::Param::value).as_ref(),
                unit.bn_params().as_ref(),
                unit.weight_quantizer(),
                s_x,
                s_y,
                scheme,
                fmt,
                unit.out_quantizer().spec(),
            )?;
            let id = m.push(
                unit.name(),
                IntOp::Conv2d {
                    weight: fused.weight_q,
                    bias: None,
                    spec: unit.conv().spec(),
                    requant: fused.requant,
                    relu,
                    weight_spec: unit.weight_quantizer().spec(),
                },
                vec![src],
            );
            Ok((id, s_y))
        };
        let (mut cur, mut s_cur) =
            push_conv(&mut m, &self.stem, self.input_q.scale(), Src::Node(input), true)?;
        for b in &self.blocks {
            let (c1, s1) = push_conv(&mut m, &b.cb1, s_cur, Src::Node(cur), true)?;
            let (c2, s2) = push_conv(&mut m, &b.cb2, s1, Src::Node(c1), false)?;
            let (skip, s_skip) = match &b.down {
                Some(d) => push_conv(&mut m, d, s_cur, Src::Node(cur), false)?,
                None => (cur, s_cur),
            };
            let s_out = b.add.out_quantizer().scale();
            let add = m.push(
                "residual_add",
                IntOp::AddRequant {
                    m_a: crate::FixedScalar::auto(s2 / s_out, fmt.total_bits()),
                    m_b: crate::FixedScalar::auto(s_skip / s_out, fmt.total_bits()),
                    out_spec: b.add.out_quantizer().spec(),
                    relu: true,
                },
                vec![Src::Node(c2), Src::Node(skip)],
            );
            cur = add;
            s_cur = s_out;
        }
        const GAP_FRAC: u8 = 4;
        let gap = m.push(
            "global_avg_pool",
            IntOp::GlobalAvgPool { frac_bits: GAP_FRAC },
            vec![Src::Node(cur)],
        );
        let s_cur = s_cur / (1 << GAP_FRAC) as f32;
        // Head: raw accumulator logits (argmax is scale-invariant).
        let head_w = self.head.linear().weight().value();
        self.head.weight_quantizer().calibrate(&head_w);
        let weight_q = self.head.weight_quantizer().quantize(&head_w);
        let w_scales = self.head.weight_quantizer().scale().to_per_channel(head_w.dim(0));
        let bias =
            self.head.linear().bias().map(|b| bias_to_accumulator(&b.value(), &w_scales, s_cur));
        m.push(
            "head",
            IntOp::Linear {
                weight: weight_q.into(),
                bias,
                requant: None,
                relu: false,
                weight_spec: self.head.weight_quantizer().spec(),
            },
            vec![Src::Node(gap)],
        );
        Ok(m)
    }

    fn method(&self) -> &str {
        &self.method
    }
}

impl std::fmt::Debug for QResNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "QResNet({} blocks, method {})", self.blocks.len(), self.method)
    }
}
