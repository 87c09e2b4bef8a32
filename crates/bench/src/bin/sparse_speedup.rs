//! `sparse-speedup` — the skip-zero deployment gate.
//!
//! Benchmarks the compressed sparse integer kernel against the dense
//! saturating matmul on the zoo MLP's fc1 layer (128×256) at the two
//! deployment sparsity points the paper's pruning recipes produce:
//! 80% unstructured (bitmask layout) and 2:4 structured (dedicated N:M
//! layout). Both kernels are bit-identical by construction (the per-MAC
//! saturating accumulator makes zero products no-ops); this binary
//! re-checks that on every measured run and additionally at the full-model
//! level, then gates on the skip-zero kernel delivering at least 1.5× the
//! dense throughput at both points (2:4 halves the MACs; past 2× only
//! because the skip-zero kernel's saturation-free path makes each MAC
//! cheaper than the dense kernel's clamped one). Dense and sparse are
//! timed in interleaved pairs and the gate reads the median per-pair
//! ratio, so a host slowdown spanning a pair cancels out. Results land in
//! `bench_results/sparse_speedup.json` ([`t2c_bench::report`]); exits
//! non-zero when the gate fails — `scripts/verify.sh` runs it as the
//! sparse-deployment gate.
//!
//! ```sh
//! cargo run --release -p t2c-bench --bin sparse_speedup
//! ```

use std::process::ExitCode;

use t2c_bench::paired_median;
use t2c_bench::report::{Case, Report};
use t2c_core::intmodel::{IntOp, LinearWeight};
use t2c_core::IntModel;
use t2c_tensor::{matmul_sparse_i, SparseMat, Tensor};

/// Timed batch height for the kernel measurements.
const BATCH: usize = 256;
/// Timed dense/sparse pairs (median-of); two warm-up pairs precede them.
const REPS: usize = 9;
/// Skip-zero over dense speedup floor at each sparsity point.
const FLOOR: f64 = 1.5;

/// The dense twin of a sparsified model: every compressed weight expanded
/// back to its masked-dense codes.
fn densified(m: &IntModel) -> IntModel {
    let mut d = m.clone();
    for node in &mut d.nodes {
        if let IntOp::Linear { weight, .. } = &mut node.op {
            *weight = LinearWeight::Dense(weight.to_dense().into_owned());
        }
    }
    d
}

fn fc1_weight(m: &IntModel) -> &SparseMat {
    let IntOp::Linear { weight: LinearWeight::Sparse { mat, .. }, .. } = &m.nodes[1].op else {
        panic!("zoo sparse MLP must carry a compressed fc1");
    };
    mat
}

/// Checks and times one sparsified model and records its case; returns
/// its speedup.
fn measure(report: &mut Report, model: &str, m: &IntModel) -> f64 {
    let sp = fc1_weight(m);
    let dense = sp.to_dense();
    // Pre-transpose outside the timed region: the deployed dense path pays
    // this per call, so excluding it is conservative for the sparse side.
    let wt = dense.transpose().expect("rank-2 weight");
    let xc = Tensor::from_fn(&[BATCH, sp.cols], |i| ((i * 37) % 255) as i32 - 127);

    let dense_out = xc.matmul_i(&wt).expect("conforming shapes");
    let sparse_out = matmul_sparse_i(&xc, sp).expect("valid packed layout");
    let kernel_identical = dense_out.as_slice() == sparse_out.as_slice();

    // Full-model check: the compressed graph and its masked-dense twin
    // must agree on every output bit.
    let dense_model = densified(m);
    let xf = Tensor::from_fn(&[16, sp.cols], |i| ((i * 53) % 200) as f32 * 0.01 - 1.0);
    let model_identical =
        m.run(&xf).unwrap().as_slice() == dense_model.run(&xf).unwrap().as_slice();

    let t = paired_median(
        REPS,
        || {
            std::hint::black_box(xc.matmul_i(&wt).expect("conforming shapes"));
        },
        || {
            std::hint::black_box(matmul_sparse_i(&xc, sp).expect("valid packed layout"));
        },
    );
    let bit_identical = kernel_identical && model_identical;
    report.case(
        Case::new()
            .with("model", model)
            .with("layout", sp.layout_label())
            .with("sparsity", f64::from(sp.sparsity()))
            .paired("dense_ns", "sparse_ns", &t)
            .with("bit_identical", bit_identical)
            .pass(bit_identical),
    );
    t.speedup
}

fn main() -> ExitCode {
    let mut report = Report::new("sparse_speedup");
    let (pruned, _) = t2c_core::zoo::tiny_mlp_pruned(0.8);
    let (nm, _) = t2c_core::zoo::tiny_mlp_nm(2, 4);
    let unstructured = measure(&mut report, "tiny-mlp-pruned80", &pruned);
    let structured = measure(&mut report, "tiny-mlp-2of4", &nm);
    report.gate("tiny-mlp-pruned80 speedup", FLOOR, unstructured);
    report.gate("tiny-mlp-2of4 speedup", FLOOR, structured);
    report.finish()
}
