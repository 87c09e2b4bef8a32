//! Bias saturation agreement: the runtime `add_channel_bias` epilogue
//! saturates to the `i32` rails (it models the accumulator register of a
//! saturating MAC array), and the T2C101 accumulator-overflow proof is the
//! static counterpart. The contract this file pins down:
//!
//! * lint **clean** ⇒ the runtime result is the *exact* integer sum, even
//!   within a few hundred codes of `i32::MAX` (a wrapping add would go
//!   negative here — the original bug);
//! * lint **T2C101 error** ⇒ the runtime clips to the rail instead of
//!   wrapping, so the static verdict describes the real failure mode.

use t2c_core::intmodel::{IntOp, Src};
use t2c_core::{IntModel, QuantSpec};
use t2c_lint::{lint_model, Rule};
use t2c_tensor::Tensor;

/// Identity 1×1 linear layer with a raw (un-requantized) output, so the
/// model output *is* the accumulator + bias.
fn biased_linear(bias: i64) -> IntModel {
    let mut m = IntModel::new();
    m.push("input", IntOp::Quantize { scale: 1.0, spec: QuantSpec::signed(8) }, vec![]);
    m.push(
        "fc",
        IntOp::Linear {
            weight: Tensor::from_vec(vec![1i32], &[1, 1]).unwrap().into(),
            bias: Some(vec![bias]),
            requant: None,
            relu: false,
            weight_spec: QuantSpec::signed(8),
        },
        vec![Src::Input],
    );
    m
}

#[test]
fn near_max_bias_is_exact_when_the_lint_verdict_is_clean() {
    // Worst case over the signed-8 grid: 127 + (i32::MAX - 200) < i32::MAX,
    // so the overflow proof closes and the lint admits the model.
    let bias = i64::from(i32::MAX) - 200;
    let model = biased_linear(bias);
    let report = lint_model(&model, &[1, 1], "near-max-bias");
    assert_eq!(report.error_count(), 0, "proof must close:\n{}", report.to_text());

    let x = Tensor::from_vec(vec![100.0f32], &[1, 1]).unwrap();
    let out = model.run(&x).unwrap();
    // A wrapping i32 add would land near i32::MIN; the saturating epilogue
    // must return the exact sum the interval analysis proved reachable.
    assert_eq!(out.as_slice(), &[i32::MAX - 100]);
}

#[test]
fn overflowing_bias_is_flagged_statically_and_clips_at_runtime() {
    // The bias alone exceeds i32: statically this must fail the T2C101
    // accumulator proof, and dynamically the epilogue must clip to the
    // rail — never wrap.
    let bias = i64::from(i32::MAX) + 1_000;
    let model = biased_linear(bias);
    let report = lint_model(&model, &[1, 1], "overflowing-bias");
    assert!(
        report.diagnostics.iter().any(|d| d.rule == Rule::AccOverflow),
        "overflowing bias must trip T2C101:\n{}",
        report.to_text()
    );

    let x = Tensor::from_vec(vec![5.0f32], &[1, 1]).unwrap();
    let out = model.run(&x).unwrap();
    assert_eq!(out.as_slice(), &[i32::MAX], "saturate at the rail, never wrap");
}
