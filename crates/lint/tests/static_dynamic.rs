//! Static/dynamic agreement: a model `t2c-lint` passes as **clean** (no
//! warnings, no errors) is statically proven never to saturate a
//! requantizer — so the runtime `mulquant.saturated` observability counter
//! must stay at zero for *any* input spanning the full declared activation
//! grid. Randomized conv models + randomized full-range inputs check that
//! the interval analysis really is sound against the deployed kernels.

use std::sync::{Mutex, PoisonError};

use proptest::prelude::*;
use t2c_core::intmodel::{IntOp, Src};
use t2c_core::{FixedPointFormat, IntModel, MulQuant, QuantSpec};
use t2c_lint::lint_model;
use t2c_tensor::ops::Conv2dSpec;
use t2c_tensor::Tensor;

const IN_SPEC: QuantSpec = QuantSpec { bits: 4, signed: false };
const SPATIAL: usize = 4;

fn conv_model(weights: Vec<i32>, shape: [usize; 4], scale: f32, relu: bool) -> IntModel {
    let mut m = IntModel::new();
    m.push("input", IntOp::Quantize { scale: 1.0, spec: IN_SPEC }, vec![]);
    m.push(
        "conv",
        IntOp::Conv2d {
            weight: Tensor::from_vec(weights, &shape).unwrap(),
            bias: None,
            spec: Conv2dSpec::new(1, 0),
            requant: MulQuant::from_float(
                &[scale],
                &[0.0],
                FixedPointFormat::int16_frac12(),
                QuantSpec::unsigned(8),
            ),
            relu,
            weight_spec: QuantSpec::signed(4),
        },
        vec![Src::Input],
    );
    m
}

/// Serializes the tests' use of the process-global profiler: the test
/// harness runs tests on parallel threads, and one test's deliberately
/// clipping run must not bleed into another test's saturation count.
static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Runs `model` on input codes (already on the 4-bit grid) and returns the
/// runtime saturation count the requantizer epilogue observed.
fn saturated_after_run(model: &IntModel, codes: &[i32], dims: &[usize]) -> u64 {
    let x = Tensor::from_vec(codes.iter().map(|&c| c as f32).collect(), dims).unwrap();
    let _guard = OBS_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    t2c_obs::set_enabled(true);
    t2c_obs::reset();
    model.run(&x).expect("clean model must run");
    let report = t2c_obs::report::Report::capture("static_dynamic");
    t2c_obs::set_enabled(false);
    report.counters.get("mulquant.saturated").copied().unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn clean_models_never_saturate_at_runtime(
        oc in 1usize..3,
        ic in 1usize..3,
        k in 1usize..3,
        weight_codes in proptest::collection::vec(-7i32..8, 2 * 2 * 2 * 2),
        input_codes in proptest::collection::vec(0i32..16, 2 * 2 * SPATIAL * SPATIAL),
        scale_milli in 1u32..500,
        relu in any::<bool>(),
    ) {
        let weights: Vec<i32> =
            (0..oc * ic * k * k).map(|i| weight_codes[i % weight_codes.len()]).collect();
        let model = conv_model(weights, [oc, ic, k, k], scale_milli as f32 / 1000.0, relu);
        let dims = [2, ic, SPATIAL, SPATIAL];
        let report = lint_model(&model, &dims, "prop");
        prop_assert_eq!(report.error_count(), 0, "random models stay well-formed:\n{}", report.to_text());
        if report.is_clean() {
            // Force both grid endpoints into the batch so the runtime sweep
            // genuinely spans the declared activation range.
            let mut codes: Vec<i32> =
                (0..dims.iter().product()).map(|i| input_codes[i % input_codes.len()]).collect();
            codes[0] = 15;
            codes[1] = 0;
            let saturated = saturated_after_run(&model, &codes, &dims);
            prop_assert_eq!(
                saturated, 0,
                "lint said clean but the runtime clipped {} output(s):\n{}",
                saturated, report.to_text()
            );
        }
    }
}

/// Deterministic anchor for the property: an exactly-scaled requantizer is
/// clean and never clips, while a 2x-overdriven one is flagged (Warn) and
/// really does clip at runtime — the warning is not noise.
#[test]
fn exact_scale_is_clean_and_overdrive_is_flagged_and_clips() {
    // One 1x1 weight of +7: acc spans [0, 105]; 255/105 maps it exactly.
    let dims = [1, 1, SPATIAL, SPATIAL];
    let sweep: Vec<i32> = (0..16).collect();

    let clean = conv_model(vec![7], [1, 1, 1, 1], 255.0 / 105.0, false);
    let report = lint_model(&clean, &dims, "exact");
    assert!(report.is_clean(), "exact scaling must be clean:\n{}", report.to_text());
    assert_eq!(saturated_after_run(&clean, &sweep, &dims), 0);

    let hot = conv_model(vec![7], [1, 1, 1, 1], 2.0 * 255.0 / 105.0, false);
    let report = lint_model(&hot, &dims, "hot");
    assert!(!report.is_clean(), "2x overdrive must be flagged");
    assert_eq!(report.error_count(), 0, "plausible saturation is a warning, not an error");
    assert!(
        saturated_after_run(&hot, &sweep, &dims) > 0,
        "the flagged model must actually clip on a full-grid sweep"
    );
}
