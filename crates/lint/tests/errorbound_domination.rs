//! Property test: the static quantization-error certificate dominates the
//! divergence an actual dual-path run observes (DESIGN.md §6.11).
//!
//! A hand-written real-arithmetic interpreter evaluates the *center* of
//! the reference family the certifier reasons about — stored integer
//! parameters taken at face value, `round_shift` replaced by exact
//! division, the input quantizer replaced by exact (clamped, unrounded)
//! division, and the output clamp applied. That member's divergence from
//! the integer path must sit under the certified end-to-end bound for
//! every zoo MLP variant (dense, pruned, N:M), every random
//! input, and independent of kernel thread count.

use proptest::prelude::*;
use t2c_core::intmodel::{IntOp, Src};
use t2c_core::{IntModel, MulQuant};
use t2c_lint::{certify_model, ErrorBoundConfig};
use t2c_tensor::{with_threads, Tensor};

/// Real-arithmetic requantization: exact division instead of the rounding
/// shift, same ReLU-before-clamp order as `MulQuant::apply_scalar`.
fn reference_requant(mq: &MulQuant, acc: f64, ch: usize, relu: bool) -> f64 {
    let i = ch.min(mq.scale_raw.len() - 1);
    let b = mq.bias_raw[i.min(mq.bias_raw.len() - 1)] as f64;
    let mut v = (acc * f64::from(mq.scale_raw[i]) + b) / f64::from(1u32 << mq.format.frac_bits);
    if relu {
        v = v.max(0.0);
    }
    v.clamp(f64::from(mq.out_spec.qmin()), f64::from(mq.out_spec.qmax()))
}

/// Evaluates the MLP-shaped graph (`Quantize` → requantized MAC layers →
/// raw-accumulator head) in real arithmetic. Panics on any other op so
/// the test fails loudly if the zoo builders grow.
fn reference_run(model: &IntModel, x: &Tensor<f32>) -> Vec<f64> {
    let mut v: Vec<f64> = Vec::new();
    for (i, node) in model.nodes.iter().enumerate() {
        assert!(
            i == 0 || node.inputs == vec![Src::Node(i - 1)],
            "the zoo MLPs are straight-line graphs"
        );
        v = match &node.op {
            IntOp::Quantize { scale, spec } => x
                .as_slice()
                .iter()
                .map(|&f| {
                    (f64::from(f) / f64::from(*scale))
                        .clamp(f64::from(spec.qmin()), f64::from(spec.qmax()))
                })
                .collect(),
            IntOp::Linear { weight, bias, requant, relu, .. } => {
                mac(&weight.to_dense(), bias.as_deref(), requant.as_ref(), *relu, &v)
            }
            other => panic!("reference interpreter does not model {}", other.label()),
        };
    }
    v
}

fn mac(
    weight: &Tensor<i32>,
    bias: Option<&[i64]>,
    requant: Option<&MulQuant>,
    relu: bool,
    x: &[f64],
) -> Vec<f64> {
    let (out_f, in_f) = (weight.dim(0), weight.dim(1));
    assert_eq!(x.len(), in_f);
    let ws = weight.as_slice();
    (0..out_f)
        .map(|o| {
            let mut acc = 0.0f64;
            for (i, &xi) in x.iter().enumerate() {
                acc += f64::from(ws[o * in_f + i]) * xi;
            }
            acc += bias.map_or(0.0, |b| b[o.min(b.len() - 1)] as f64);
            match requant {
                Some(mq) => reference_requant(mq, acc, o, relu),
                None => acc,
            }
        })
        .collect()
}

fn variant(idx: usize) -> (&'static str, IntModel, Vec<usize>) {
    match idx {
        0 => {
            let (m, d) = t2c_core::zoo::tiny_mlp();
            ("dense", m, d)
        }
        1 => {
            let (m, d) = t2c_core::zoo::tiny_mlp_pruned(0.8);
            ("pruned", m, d)
        }
        _ => {
            let (m, d) = t2c_core::zoo::tiny_mlp_nm(2, 4);
            ("nm", m, d)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn certified_bound_dominates_observed_divergence(
        seed in 0u64..1_000_000,
        variant_idx in 0usize..3,
        four_threads in any::<bool>(),
    ) {
        let threads = if four_threads { 4 } else { 1 };
        let (tag, model, dims) = variant(variant_idx);
        let (report, lint) = certify_model(&model, &dims, ErrorBoundConfig::default(), tag);
        prop_assert!(
            report.certified(),
            "{tag} must get a finite certificate:\n{}",
            lint.to_text()
        );

        // Deterministic pseudo-random input covering the grid and a bit
        // beyond it (the reference clamps exactly like the int path).
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let x = Tensor::from_fn(&dims, |_| {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            ((state >> 33) as f64 / f64::from(1u32 << 31) - 1.0) as f32 * 8.0
        });

        let served = with_threads(threads, || model.run(&x)).unwrap();
        let reference = reference_run(&model, &x);
        prop_assert_eq!(reference.len(), served.numel());

        let worst = reference
            .iter()
            .zip(served.as_slice())
            .fold(0.0f64, |m, (&r, &s)| m.max((r - f64::from(s)).abs()));
        prop_assert!(
            worst <= report.end_to_end_steps + 1e-6,
            "{tag}: observed divergence {worst} exceeds certified bound {} (threads {threads})",
            report.end_to_end_steps
        );
    }
}
