//! Property tests for the sparse deployment path: a pruner's mask must
//! survive quantization and compression bit-for-bit. Arbitrary weights are
//! masked (unstructured at sparsity 0 / 0.5 / 0.9, structured at 2:4 and
//! 1:4), quantized to integer codes, and compressed into an `IntModel`;
//! the packed layout must reproduce the masked codes exactly and the
//! compressed graph must match its masked-dense twin on every output bit.

use proptest::prelude::*;
use t2c_autograd::Param;
use t2c_core::intmodel::{IntOp, LinearWeight, Src};
use t2c_core::{IntModel, QuantSpec};
use t2c_sparse::{MagnitudePruner, NmPruner, Pruner};
use t2c_tensor::{SparseMat, Tensor};

const ROWS: usize = 8;
const COLS: usize = 32;

/// Index-offset floats so magnitudes are distinct and threshold cuts are
/// deterministic across the pruner's tie handling.
fn float_weights(raw: &[i32]) -> Vec<f32> {
    raw.iter().enumerate().map(|(i, &v)| v as f32 / 100.0 + i as f32 * 1e-4).collect()
}

/// Symmetric per-tensor quantization of masked weights to signed-4 codes.
/// Zeros map to code 0, so the mask's zero positions survive exactly.
fn quantize_codes(w: &[f32]) -> Vec<i32> {
    let max = w.iter().fold(0f32, |a, &v| a.max(v.abs())).max(1e-6);
    let scale = max / 7.0;
    w.iter().map(|&v| (v / scale).round().clamp(-7.0, 7.0) as i32).collect()
}

/// `quantize(s8) → fc` integer model around the given weight codes.
fn linear_model(codes: Vec<i32>) -> IntModel {
    let mut m = IntModel::new();
    m.push("input", IntOp::Quantize { scale: 0.1, spec: QuantSpec::signed(8) }, vec![]);
    m.push(
        "fc",
        IntOp::Linear {
            weight: Tensor::from_vec(codes, &[ROWS, COLS]).unwrap().into(),
            bias: None,
            requant: None,
            relu: false,
            weight_spec: QuantSpec::signed(4),
        },
        vec![Src::Node(0)],
    );
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn unstructured_mask_to_intmodel_is_bit_faithful(
        raw in proptest::collection::vec(-1000i32..1000, ROWS * COLS),
        xin in proptest::collection::vec(-100i32..100, 4 * COLS),
    ) {
        let x = Tensor::from_vec(xin.iter().map(|&v| v as f32 / 40.0).collect(), &[4, COLS]).unwrap();
        for target in [0.0f32, 0.5, 0.9] {
            let p = Param::new("w", Tensor::from_vec(float_weights(&raw), &[ROWS * COLS]).unwrap());
            let mut pruner = MagnitudePruner::new(vec![p.clone()], target);
            pruner.prune_to(target);
            pruner.apply();
            let masked = p.value();
            let codes = quantize_codes(masked.as_slice());

            let dense = linear_model(codes.clone());
            let mut sparse = dense.clone();
            prop_assert_eq!(sparse.sparsify(0.0), 1, "fc must compress at target {}", target);
            let IntOp::Linear {
                weight: LinearWeight::Sparse { mat: weight, declared_sparsity }, ..
            } = &sparse.nodes[1].op else {
                panic!("fc did not convert to the sparse layout");
            };
            prop_assert!(weight.validate().is_ok());
            // Mask fidelity: the packed layout decompresses to exactly the
            // masked code tensor (pruned positions are zero, kept codes
            // unchanged), and the declared sparsity covers the mask.
            prop_assert_eq!(weight.to_dense().as_slice(), codes.as_slice());
            // The pruner's budget is round(numel · target) elements.
            let budget = (target * (ROWS * COLS) as f32).round() / (ROWS * COLS) as f32;
            prop_assert!(
                *declared_sparsity >= budget - 1e-3,
                "declared {} below mask budget {}", declared_sparsity, budget
            );
            let yd = dense.run(&x).unwrap();
            let ys = sparse.run(&x).unwrap();
            prop_assert_eq!(yd.as_slice(), ys.as_slice(), "outputs diverged at target {}", target);
        }
    }

    #[test]
    fn nm_mask_to_intmodel_is_bit_faithful(
        raw in proptest::collection::vec(-1000i32..1000, ROWS * COLS),
        xin in proptest::collection::vec(-100i32..100, 4 * COLS),
    ) {
        let x = Tensor::from_vec(xin.iter().map(|&v| v as f32 / 40.0).collect(), &[4, COLS]).unwrap();
        for n in [2usize, 1] {
            let p = Param::new("w", Tensor::from_vec(float_weights(&raw), &[ROWS * COLS]).unwrap());
            let mut pruner = NmPruner::new(vec![p.clone()], n, 4);
            pruner.update_masks();
            pruner.apply();
            prop_assert!(pruner.masks_satisfy_constraint());
            let codes = quantize_codes(p.value().as_slice());
            let wt = Tensor::from_vec(codes.clone(), &[ROWS, COLS]).unwrap();

            // The dedicated N:M layout must hold the masked codes exactly.
            let nm = SparseMat::from_dense_nm(&wt, n as u8, 4).unwrap();
            prop_assert!(nm.validate().is_ok());
            prop_assert_eq!(nm.layout_label(), format!("{n}:4"));
            prop_assert_eq!(nm.to_dense().as_slice(), codes.as_slice());

            let dense = linear_model(codes);
            let mut sparse = dense.clone();
            sparse.nodes[1].op = IntOp::Linear {
                weight: LinearWeight::sparse(nm),
                bias: None,
                requant: None,
                relu: false,
                weight_spec: QuantSpec::signed(4),
            };
            let yd = dense.run(&x).unwrap();
            let ys = sparse.run(&x).unwrap();
            prop_assert_eq!(yd.as_slice(), ys.as_slice(), "outputs diverged at {}:4", n);
        }
    }
}
