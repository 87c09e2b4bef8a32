//! `gemm-pack` — the panel-kernel gate.
//!
//! Benchmarks `gemm_fused_into` — the packed integer GEMM the compiled
//! plan's fused `Gemm` steps run, under the ISA `t2c_tensor::isa`
//! dispatches to on this host — with an identity epilogue against the
//! interpreter's dense path across the GEMM shapes the zoo's serving
//! traffic covers, from a single-sample MLP call (1×256×128) and the zoo
//! ViT's sub-panel MLP down-projection at batch 16 (272×64×32) up to a
//! batched transformer block (64×1024×1024). The dense side measures what
//! `IntOp::Linear` pays per call in the interpreter — the `[out, in]`
//! weight transpose *plus* the naive saturating matmul — because
//! eliminating that per-call weight transformation is precisely what
//! packing buys the plan. The packed side pays its panel repacking once,
//! outside the timed region, exactly like `IntModel::compile` does.
//!
//! Both kernels are bit-identical by construction (per-MAC saturating
//! accumulation in ascending k order); every measured shape re-checks
//! that. Gates on the packed kernel delivering at least 1.5× the dense
//! path at the largest shape; the report's `host.isa` names the kernel
//! instantiation that ran. Results land in `bench_results/gemm_pack.json`
//! ([`t2c_bench::report`]); exits non-zero when the gate fails —
//! `scripts/verify.sh` runs it with `T2C_THREADS=4`.
//!
//! ```sh
//! T2C_THREADS=4 cargo run --release -p t2c-bench --bin gemm_pack
//! ```

use std::process::ExitCode;

use t2c_bench::paired_median;
use t2c_bench::report::{Case, Report};
use t2c_tensor::{gemm_fused_into, PackedMat, RowChannels, Tensor};

/// Timed dense/packed pairs (median-of); two warm-up pairs precede them.
const REPS: usize = 9;
/// The gated shape: the largest serving GEMM in the sweep.
const GATE_SHAPE: (usize, usize, usize) = (64, 1024, 1024);
/// Speedup floor at the gated shape.
const FLOOR: f64 = 1.5;

/// The plan's GEMM with a no-op epilogue: the raw saturating accumulators.
fn packed_matmul(x: &Tensor<i32>, w: &PackedMat, out: &mut [i32]) {
    gemm_fused_into(x.as_slice(), x.dim(0), w, &|_: &mut [i32], _: RowChannels| {}, out)
        .expect("conforming shapes");
}

/// Checks and times one shape and records its case; returns its speedup.
fn measure(report: &mut Report, m: usize, k: usize, n: usize) -> f64 {
    // Activation codes on the int8 grid, weights [n, k] in the Linear
    // layer's [OUT, IN] orientation.
    let x = Tensor::from_fn(&[m, k], |i| ((i * 37) % 255) as i32 - 127);
    let w = Tensor::from_fn(&[n, k], |i| ((i * 53) % 15) as i32 - 7);
    let packed = PackedMat::from_weight(&w).expect("rank-2 weight packs");

    let dense_out = x.matmul_i(&w.transpose().expect("rank-2")).expect("conforming shapes");
    let mut packed_out = vec![0i32; m * n];
    packed_matmul(&x, &packed, &mut packed_out);
    let bit_identical = dense_out.as_slice() == packed_out.as_slice();

    // Dense interpreter path: per-call transpose + naive saturating
    // matmul — the exact sequence the interpreter runs for `IntOp::Linear`.
    // Packed kernel: the panels were built once and the output buffer is
    // reused, as plan compilation and the plan's arena do.
    let t = paired_median(
        REPS,
        || {
            let wt = w.transpose().expect("rank-2");
            std::hint::black_box(x.matmul_i(&wt).expect("conforming shapes"));
        },
        || {
            packed_matmul(&x, &packed, &mut packed_out);
            std::hint::black_box(&packed_out);
        },
    );
    report.case(
        Case::new()
            .with("m", m)
            .with("k", k)
            .with("n", n)
            .paired("dense_ns", "packed_ns", &t)
            .with("bit_identical", bit_identical)
            .pass(bit_identical),
    );
    t.speedup
}

fn main() -> ExitCode {
    let mut report = Report::new("gemm_pack");
    for (m, k, n) in [(1, 256, 128), (16, 256, 128), (272, 64, 32), (64, 512, 512), GATE_SHAPE] {
        let speedup = measure(&mut report, m, k, n);
        if (m, k, n) == GATE_SHAPE {
            report.gate(&format!("speedup at {m}x{k}x{n}"), FLOOR, speedup);
        }
    }
    report.finish()
}
