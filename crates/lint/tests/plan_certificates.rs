//! Certificates survive plan compilation (DESIGN.md §6.13): lowering an
//! `IntModel` into a fused [`t2c_core::ExecPlan`] must not move a single
//! lint finding or error-bound figure. The plan borrows the graph and
//! leaves it untouched, so the static verdicts are compared byte for byte
//! on their JSON dumps — and because the planned path is bit-identical to
//! the interpreter, a certificate proven on the graph bounds the planned
//! execution too. The final test demonstrates exactly that: the observed
//! integer outputs of the plan equal the interpreter's, so the certified
//! end-to-end bound applies verbatim to planned serving.

use t2c_core::{zoo, Arena, IntModel};
use t2c_lint::{certify_model, lint_model, ErrorBoundConfig};
use t2c_tensor::rng::TensorRng;

fn fixtures() -> Vec<(String, IntModel, Vec<usize>)> {
    let (dense, dims) = zoo::tiny_mlp();
    let (pruned, pdims) = zoo::tiny_mlp_pruned(0.8);
    let (nm, ndims) = zoo::tiny_mlp_nm(2, 4);
    vec![
        ("mlp-dense".into(), dense, dims),
        ("mlp-pruned".into(), pruned, pdims),
        ("mlp-nm".into(), nm, ndims),
    ]
}

#[test]
fn lint_findings_are_identical_before_and_after_compilation() {
    for (tag, model, dims) in fixtures() {
        let before = lint_model(&model, &dims, &tag).to_json();
        let plan = model.compile(&dims).unwrap_or_else(|e| panic!("{tag}: compile: {e}"));
        assert!(plan.fused_nodes() > 0, "{tag}: expected fused conv/linear chains");
        let after = lint_model(&model, &dims, &tag).to_json();
        assert_eq!(before, after, "{tag}: compilation moved a lint finding");
    }
}

#[test]
fn error_bound_certificates_are_identical_before_and_after_compilation() {
    let cfg = ErrorBoundConfig::default();
    for (tag, model, dims) in fixtures() {
        let (cert_before, lint_before) = certify_model(&model, &dims, cfg, &tag);
        let plan = model.compile(&dims).unwrap_or_else(|e| panic!("{tag}: compile: {e}"));
        let (cert_after, lint_after) = certify_model(&model, &dims, cfg, &tag);
        assert_eq!(
            cert_before.to_json(),
            cert_after.to_json(),
            "{tag}: compilation moved the error certificate"
        );
        assert_eq!(
            lint_before.to_json(),
            lint_after.to_json(),
            "{tag}: compilation moved the certifier's lint findings"
        );
        assert!(cert_after.certified(), "{tag}: zoo MLPs certify with a finite bound");
        // The bound is stated against interpreter semantics; it covers the
        // plan because the plan's integer outputs are the interpreter's.
        let mut arena = Arena::new();
        for seed in [11u64, 12, 13] {
            let x = TensorRng::seed_from(seed).uniform(&dims, -1.0, 1.0);
            let want = model.run(&x).expect("interpreter run");
            let got = plan.run(&x, &mut arena).expect("planned run");
            assert_eq!(got.as_slice(), want.as_slice(), "{tag}: planned logits diverge");
        }
    }
}
