//! The deployable model zoo shared by the toolkit's end-to-end binaries.
//!
//! `t2c-check` (static verification), `t2c-serve` (the serving runtime)
//! and the `loadgen` bench all need the same thing: a small set of
//! trained, converted, integer-only models with known input shapes. This
//! module is the single source of truth for building them, so the three
//! consumers stay in lockstep — a model admitted by the lint gate is the
//! same model the server hosts and the load generator hammers.
//!
//! Each builder trains/calibrates a tiny instance on the synthetic
//! substrate, converts it with `nn2chip` and returns the integer graph
//! plus the canonical single-sample input shape (batch axis = 1).

use t2c_nn::models::{MobileNetConfig, MobileNetV1, ResNet, ResNetConfig, ViT, ViTConfig};
use t2c_nn::Module;
use t2c_tensor::rng::TensorRng;
use t2c_tensor::Tensor;

use crate::intmodel::{IntOp, LinearWeight, Src};
use crate::qmodels::{QMobileNet, QResNet, QViT, QuantFactory};
use crate::trainer::{FpTrainer, PtqPipeline, QatTrainer, TrainConfig};
use crate::{FixedPointFormat, FuseScheme, IntModel, MulQuant, QuantConfig, QuantSpec, T2C};
use t2c_data::{SynthVision, SynthVisionConfig};

/// A builder producing `(integer model, single-sample input dims)`.
pub type ZooBuilder = fn() -> (IntModel, Vec<usize>);

/// The e2e zoo: `(tag, builder)` for every model the end-to-end binaries
/// verify and serve.
pub fn zoo() -> [(&'static str, ZooBuilder); 3] {
    [("mobilenet-ptq", mobilenet_ptq), ("resnet-qat", resnet_qat), ("vit-ptq", vit_ptq)]
}

/// The quickstart MobileNet: FP train → PTQ → convert.
///
/// # Panics
///
/// Panics if training or conversion fails — zoo consumers are end-to-end
/// binaries that want loud failures.
pub fn mobilenet_ptq() -> (IntModel, Vec<usize>) {
    let data = SynthVision::generate(&SynthVisionConfig::tiny(3, 16));
    let mut rng = TensorRng::seed_from(9);
    let model = MobileNetV1::new(&mut rng, MobileNetConfig::tiny(3));
    FpTrainer::new(TrainConfig::quick(2)).fit(&model, &data).expect("fp training");
    let qnn = QMobileNet::from_float(&model, &QuantFactory::minmax(QuantConfig::wa(8)));
    PtqPipeline::calibrate(4, 16).run(&qnn, &data).expect("ptq");
    qnn.set_training(false);
    let (chip, _) = T2C::new(&qnn).nn2chip(FuseScheme::PreFuse).expect("conversion");
    let (images, _) = data.test_batch(&[0]);
    (chip, images.dims().to_vec())
}

/// The e2e ResNet: QAT → convert.
///
/// # Panics
///
/// Panics if training or conversion fails.
pub fn resnet_qat() -> (IntModel, Vec<usize>) {
    let data = SynthVision::generate(&SynthVisionConfig::tiny(3, 16));
    let mut rng = TensorRng::seed_from(900);
    let model = ResNet::new(&mut rng, ResNetConfig::tiny(data.num_classes()));
    let qnn = QResNet::from_float(&model, &QuantFactory::minmax(QuantConfig::wa(8)));
    QatTrainer::new(TrainConfig::quick(2)).fit(&qnn, &data).expect("qat");
    qnn.set_training(false);
    let (chip, _) = T2C::new(&qnn).nn2chip(FuseScheme::PreFuse).expect("conversion");
    let (images, _) = data.test_batch(&[0]);
    (chip, images.dims().to_vec())
}

/// The e2e ViT: PTQ → convert (exercises LN/softmax/GELU LUT paths).
///
/// # Panics
///
/// Panics if training or conversion fails.
pub fn vit_ptq() -> (IntModel, Vec<usize>) {
    let data = SynthVision::generate(&SynthVisionConfig::tiny(2, 10));
    let mut rng = TensorRng::seed_from(911);
    let model = ViT::new(&mut rng, ViTConfig::tiny(data.num_classes()));
    let qnn = QViT::from_float(&model, &QuantFactory::minmax(QuantConfig::vit(8)));
    PtqPipeline::calibrate(3, 10).run(&qnn, &data).expect("ptq");
    qnn.set_training(false);
    let (chip, _) = T2C::new(&qnn).nn2chip(FuseScheme::PreFuse).expect("conversion");
    let (images, _) = data.test_batch(&[0]);
    (chip, images.dims().to_vec())
}

/// A hand-built two-layer integer MLP — no training, constructed in
/// microseconds. This is the serving benchmark's workhorse: its per-batch
/// fixed costs (weight transpose, dispatch) dominate the per-sample MACs,
/// so it exposes the micro-batcher's amortization win cleanly.
///
/// Layout: quantize(s8) → linear 256→128 + ReLU requant(u8) → linear 128→10
/// head (raw accumulators). Weights cycle over a small signed range; the
/// requant scale maps the worst-case accumulator into the u8 grid, so the
/// lint gate admits it (zero error-level findings).
pub fn tiny_mlp() -> (IntModel, Vec<usize>) {
    const D: usize = 256;
    const H: usize = 128;
    const OUT: usize = 10;
    let mut m = IntModel::new();
    m.push("input", IntOp::Quantize { scale: 0.05, spec: QuantSpec::signed(8) }, vec![]);
    // Weights in [-3, 3]; worst-case |acc| = D · 127 · 3.
    let w1 = Tensor::from_fn(&[H, D], |i| (i as i32 % 7) - 3);
    let worst = (D as f64) * 127.0 * 3.0;
    let scale = 255.0 / worst;
    m.push(
        "fc1",
        IntOp::Linear {
            weight: w1.into(),
            bias: Some(vec![0; H]),
            requant: Some(MulQuant::from_float(
                &[scale as f32],
                &[0.0],
                FixedPointFormat::int16_frac12(),
                QuantSpec::unsigned(8),
            )),
            relu: true,
            weight_spec: QuantSpec::signed(3),
        },
        vec![Src::Node(0)],
    );
    let w2 = Tensor::from_fn(&[OUT, H], |i| (i as i32 % 5) - 2);
    m.push(
        "head",
        IntOp::Linear {
            weight: w2.into(),
            bias: None,
            requant: None,
            relu: false,
            weight_spec: QuantSpec::signed(3),
        },
        vec![Src::Node(1)],
    );
    (m, vec![1, D])
}

/// The sparse-serving variant of [`tiny_mlp`]: fc1's weight codes are
/// magnitude-pruned to `sparsity` (budget-based, ties broken by index —
/// deterministic) and the model is compressed with [`IntModel::sparsify`].
/// The head stays dense, demonstrating mixed dense/sparse graphs.
///
/// Pruning only removes accumulator terms, so [`tiny_mlp`]'s worst-case
/// requant scale stays valid and the lint gate keeps admitting the model.
///
/// # Panics
///
/// Panics if fc1 fails to compress — zoo consumers want loud failures.
pub fn tiny_mlp_pruned(sparsity: f32) -> (IntModel, Vec<usize>) {
    let (mut m, dims) = tiny_mlp();
    if let IntOp::Linear { weight: LinearWeight::Dense(weight), .. } = &mut m.nodes[1].op {
        prune_codes_by_magnitude(weight, sparsity);
    }
    assert_eq!(m.sparsify(0.45), 1, "fc1 must compress to the sparse layout");
    (m, dims)
}

/// The N:M-structured variant of [`tiny_mlp`]: within every in-row group
/// of `m` consecutive fc1 codes only the `n` largest magnitudes survive,
/// then the model is compressed (picking the dedicated N:M layout).
///
/// # Panics
///
/// Panics if fc1 fails to compress.
pub fn tiny_mlp_nm(n: usize, m_group: usize) -> (IntModel, Vec<usize>) {
    let (mut m, dims) = tiny_mlp();
    if let IntOp::Linear { weight: LinearWeight::Dense(weight), .. } = &mut m.nodes[1].op {
        prune_codes_nm(weight, n, m_group);
    }
    assert_eq!(m.sparsify(0.45), 1, "fc1 must compress to the sparse layout");
    (m, dims)
}

/// Zeroes the `round(numel · sparsity)` smallest-|code| weights. Stable
/// sort ⇒ ties break by index, so the budget is exact (see the pruner
/// crate's tie-overshoot fix).
fn prune_codes_by_magnitude(w: &mut Tensor<i32>, sparsity: f32) {
    let k = (w.numel() as f32 * sparsity).round() as usize;
    let codes = w.as_slice().to_vec();
    let mut order: Vec<usize> = (0..codes.len()).collect();
    order.sort_by_key(|&i| codes[i].unsigned_abs());
    let s = w.as_mut_slice();
    for &i in order.iter().take(k) {
        s[i] = 0;
    }
}

/// Applies per-row N:M pruning to integer codes: each in-row group of
/// `m_group` keeps its `n` largest magnitudes (ties by index).
fn prune_codes_nm(w: &mut Tensor<i32>, n: usize, m_group: usize) {
    let cols = w.dim(1);
    for row in w.as_mut_slice().chunks_mut(cols) {
        for group in row.chunks_mut(m_group) {
            let mut idx: Vec<usize> = (0..group.len()).collect();
            idx.sort_by_key(|&i| std::cmp::Reverse(group[i].unsigned_abs()));
            for &i in idx.iter().skip(n) {
                group[i] = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_mlp_runs_and_is_deterministic() {
        let (m, dims) = tiny_mlp();
        assert_eq!(dims, vec![1, 256]);
        let x = Tensor::from_fn(&dims, |i| (i as f32) * 0.01 - 0.3);
        let a = m.run(&x).unwrap();
        let b = m.run(&x).unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
        assert_eq!(a.dims(), &[1, 10]);
    }

    #[test]
    fn pruned_mlp_matches_masked_dense_bit_for_bit() {
        // Compressing the pruned codes must not change a single output
        // bit versus running the same zeroed codes through the dense
        // kernels.
        let x = Tensor::from_fn(&[8, 256], |i| ((i * 53) % 200) as f32 * 0.01 - 1.0);
        for (sparse, masked) in [
            (tiny_mlp_pruned(0.8).0, {
                let (mut d, _) = tiny_mlp();
                if let IntOp::Linear { weight: LinearWeight::Dense(weight), .. } =
                    &mut d.nodes[1].op
                {
                    prune_codes_by_magnitude(weight, 0.8);
                }
                d
            }),
            (tiny_mlp_nm(2, 4).0, {
                let (mut d, _) = tiny_mlp();
                if let IntOp::Linear { weight: LinearWeight::Dense(weight), .. } =
                    &mut d.nodes[1].op
                {
                    prune_codes_nm(weight, 2, 4);
                }
                d
            }),
        ] {
            assert_eq!(sparse.nodes[1].op.label(), "linear_sparse");
            let ys = sparse.run(&x).unwrap();
            let yd = masked.run(&x).unwrap();
            assert_eq!(ys.as_slice(), yd.as_slice());
        }
    }

    #[test]
    fn nm_mlp_uses_the_dedicated_layout() {
        let (m, _) = tiny_mlp_nm(2, 4);
        let IntOp::Linear {
            weight: LinearWeight::Sparse { mat: weight, declared_sparsity }, ..
        } = &m.nodes[1].op
        else {
            panic!("fc1 not sparse");
        };
        assert_eq!(weight.layout_label(), "2:4");
        assert!((declared_sparsity - 0.5).abs() < 1e-6);
        weight.validate().unwrap();
    }

    #[test]
    fn tiny_mlp_batches_consistently() {
        // Batched execution must equal per-sample execution row by row —
        // the invariant the serving micro-batcher relies on.
        let (m, _) = tiny_mlp();
        let batch = Tensor::from_fn(&[4, 256], |i| ((i * 37) % 100) as f32 * 0.01 - 0.5);
        let batched = m.run(&batch).unwrap();
        for r in 0..4 {
            let one = batch.index_axis0(r).unwrap().reshape(&[1, 256]).unwrap();
            let single = m.run(&one).unwrap();
            assert_eq!(
                &batched.as_slice()[r * 10..(r + 1) * 10],
                single.as_slice(),
                "row {r} diverged between batched and single execution"
            );
        }
    }
}
