use t2c_autograd::{Param, Var};
use t2c_nn::layers::{Activation, BatchNorm2d, Conv2d, Linear};
use t2c_nn::models::MobileNetV1;
use t2c_nn::Module;
use t2c_tensor::TensorError;

use crate::fuse::{bias_to_accumulator, fuse_layer};
use crate::intmodel::{IntOp, Src};
use crate::qlayers::{PathMode, QConvUnit, QLinearUnit};
use crate::qmodels::{QuantFactory, QuantModel};
use crate::quantizer::ActQuantizer;
use crate::{FuseScheme, IntModel, QuantConfig, Result};

/// The quantized twin of [`MobileNetV1`] — a pure layer chain, making it
/// the cleanest demonstration of the fuse-and-extract pipeline (and the
/// model the paper uses for the PROFIT and SSL experiments).
pub struct QMobileNet {
    input_q: Box<dyn ActQuantizer>,
    units: Vec<QConvUnit>,
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

impl QMobileNet {
    /// Wraps a float MobileNet-V1 with the factory's quantizers.
    ///
    /// Sub-8-bit activation configs keep an 8-bit inter-layer stream and
    /// attach the low-precision quantizer at every conv input (per-layer
    /// `X_Q`); see [`QuantFactory::narrow_acts`].
    pub fn from_float(model: &MobileNetV1, factory: &QuantFactory) -> Self {
        let narrow = factory.narrow_acts();
        let stem_out: Box<dyn crate::quantizer::ActQuantizer> =
            if narrow { factory.stream_act("stem.out") } else { factory.stem_act("stem.out") };
        let mut units = vec![QConvUnit::new(
            "stem",
            share_conv(model.stem()),
            Some(share_bn(model.stem_bn())),
            Activation::Relu,
            factory.stem_weight("stem"),
            stem_out,
        )];
        for (i, b) in model.blocks().iter().enumerate() {
            let make_out = |name: &str| -> Box<dyn crate::quantizer::ActQuantizer> {
                if narrow {
                    factory.stream_act(name)
                } else {
                    factory.act(name)
                }
            };
            let mut dw = QConvUnit::new(
                &format!("block{i}.dw"),
                share_conv(b.dw()),
                Some(share_bn(b.bn1())),
                Activation::Relu,
                factory.weight(&format!("block{i}.dw")),
                make_out(&format!("block{i}.dw.out")),
            );
            if let Some(q) = factory.conv_in(&format!("block{i}.dw.in")) {
                dw = dw.with_in_q(q);
            }
            units.push(dw);
            let mut pw = QConvUnit::new(
                &format!("block{i}.pw"),
                share_conv(b.pw()),
                Some(share_bn(b.bn2())),
                Activation::Relu,
                factory.weight(&format!("block{i}.pw")),
                make_out(&format!("block{i}.pw.out")),
            );
            if let Some(q) = factory.conv_in(&format!("block{i}.pw.in")) {
                pw = pw.with_in_q(q);
            }
            units.push(pw);
        }
        let head = QLinearUnit::new(
            "head",
            Linear::from_params(model.head().weight().clone(), model.head().bias().cloned()),
            Activation::Identity,
            // The classifier head stays per-tensor 8-bit (standard practice
            // for first/last layers): its logits are raw accumulators with
            // no requantizer, and argmax over them is only scale-invariant
            // if every class shares one scale.
            Box::new(crate::quantizer::MinMaxWeight::new(crate::QuantSpec::signed(8), false)),
            None,
        );
        QMobileNet {
            input_q: factory.input(),
            units,
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

impl Module for QMobileNet {
    fn forward(&self, x: &Var) -> Result<Var> {
        let mut h = self.apply_input_q(x)?;
        for unit in &self.units {
            h = unit.forward(&h)?;
        }
        self.head.forward(&h.global_avg_pool2d()?)
    }

    fn params(&self) -> Vec<Param> {
        let mut out: Vec<Param> = self.units.iter().flat_map(t2c_nn::Module::params).collect();
        out.extend(self.head.params());
        out
    }

    fn set_training(&self, training: bool) {
        self.input_q.set_frozen(!training);
        for u in &self.units {
            u.set_training(training);
        }
        self.head.set_training(training);
    }
}

impl QuantModel for QMobileNet {
    fn set_path(&self, mode: PathMode) {
        self.mode.set(mode);
        for u in &self.units {
            u.set_mode(mode);
        }
        self.head.set_mode(mode);
    }

    fn quant_trainables(&self) -> Vec<Param> {
        let mut out = self.input_q.trainable();
        for u in &self.units {
            out.extend(u.quant_trainables());
        }
        out.extend(self.head.quant_trainables());
        out
    }

    fn conv_units(&self) -> Vec<&QConvUnit> {
        self.units.iter().collect()
    }

    fn to_int(&self, scheme: FuseScheme) -> Result<IntModel> {
        if !self.input_q.is_calibrated() {
            return Err(TensorError::InvalidArgument(
                "model is uncalibrated: run calibration or QAT before conversion".into(),
            ));
        }
        let fmt = self.config.fixed;
        let mut m = IntModel::new();
        let mut cur = m.push(
            "input_quant",
            IntOp::Quantize { scale: self.input_q.scale(), spec: self.input_q.spec() },
            vec![],
        );
        let mut s_cur = self.input_q.scale();
        for unit in &self.units {
            // Per-layer input requantization (the paper's X_Q).
            if let Some(iq) = unit.in_quantizer() {
                let s_in = iq.scale();
                cur = m.push(
                    format!("{}_in_requant", unit.name()),
                    IntOp::Requant {
                        m: crate::FixedScalar::auto(s_cur / s_in, fmt.total_bits()),
                        out_spec: iq.spec(),
                    },
                    vec![Src::Node(cur)],
                );
                s_cur = s_in;
            }
            let s_y = unit.out_quantizer().scale();
            let fused = fuse_layer(
                &unit.conv().weight().value(),
                unit.conv().bias().map(t2c_autograd::Param::value).as_ref(),
                unit.bn_params().as_ref(),
                unit.weight_quantizer(),
                s_cur,
                s_y,
                scheme,
                fmt,
                unit.out_quantizer().spec(),
            )?;
            cur = m.push(
                unit.name(),
                IntOp::Conv2d {
                    weight: fused.weight_q,
                    bias: None,
                    spec: unit.conv().spec(),
                    requant: fused.requant,
                    relu: true,
                    weight_spec: unit.weight_quantizer().spec(),
                },
                vec![Src::Node(cur)],
            );
            s_cur = s_y;
        }
        const GAP_FRAC: u8 = 4;
        let gap = m.push(
            "global_avg_pool",
            IntOp::GlobalAvgPool { frac_bits: GAP_FRAC },
            vec![Src::Node(cur)],
        );
        let s_cur = s_cur / (1 << GAP_FRAC) as f32;
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

impl std::fmt::Debug for QMobileNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "QMobileNet({} conv units, method {})", self.units.len(), self.method)
    }
}
