//! `plan-speedup` — the compiled-execution-plan deployment gate.
//!
//! Benchmarks [`t2c_core::ExecPlan`] (fused MAC epilogues + arena-backed
//! intermediates, compiled once at admission) against the plain
//! `IntModel::run_quantized` interpreter on every model the toolkit
//! serves — the zoo MLP and the MobileNet, ResNet and ViT zoo models —
//! single-threaded, end to end, at batch 16, with the kernels on the
//! host's detected instruction set (`t2c_tensor::isa`, recorded in the
//! report's `host`). Each case demands three properties at once:
//!
//! 1. **speedup** — at least 1.3× on the MLP (fusion skips the
//!    materialized i32 intermediates and the per-call weight transpose the
//!    interpreter pays) and at least 1.2× on each zoo model;
//! 2. **zero steady-state heap allocations** — measured for real with a
//!    counting global allocator wrapped around the system allocator: after
//!    one warm-up call sizes the arena and the output vector, repeated
//!    `run_quantized_into` calls must not allocate a single time;
//! 3. **bit identity** — planned and interpreted outputs agree exactly.
//!
//! Results land in `bench_results/plan_speedup.json` (relative to the
//! working directory, [`t2c_bench::report`]): one case per model, whose
//! own `pass` covers (2) and (3), and one speedup gate per model. Exits
//! non-zero when any of them fails — `scripts/verify.sh` runs it as the
//! plan gate.
//!
//! ```sh
//! cargo run --release -p t2c-bench --bin plan_speedup
//! ```

// The counting allocator is the measurement instrument for gate (2); a
// `GlobalAlloc` impl is necessarily unsafe.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};

use t2c_bench::paired_median;
use t2c_bench::report::{Case, Report};
use t2c_core::intmodel::IntOp;
use t2c_core::{zoo, Arena, IntModel};
use t2c_tensor::{with_threads, Tensor};

/// System allocator with an allocation-event odometer. `alloc` and
/// `realloc` both count (a realloc that moves is exactly the kind of
/// hidden traffic the zero-alloc gate exists to catch); `dealloc` does
/// not — freeing is not acquiring.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Batch height of the timed end-to-end runs.
const BATCH: usize = 16;
/// Timed interpreter/plan pairs (median-of); two warm-up pairs precede
/// them.
const REPS: usize = 11;
/// Steady-state iterations the allocation odometer watches.
const STEADY_ITERS: u64 = 100;
/// The MLP gate: planned end-to-end over interpreted, 1 thread.
const GATE_MLP: f64 = 1.3;
/// The zoo-model gate. Lower than the MLP's because `vit-ptq`, whose plan
/// gains least, measures 1.37–1.87× run to run; 1.3× would flake.
const GATE_ZOO: f64 = 1.2;

/// Times the plan against the interpreter on a `BATCH`-row input of
/// on-grid codes (both paths treat the leading `Quantize` node as a
/// pass-through on pre-quantized input), then counts the allocations of
/// `STEADY_ITERS` warm planned runs. Records the case and returns its
/// speedup.
fn measure(report: &mut Report, model_name: &str, model: &IntModel, dims: &[usize]) -> f64 {
    let IntOp::Quantize { spec, .. } = model.nodes[0].op else {
        panic!("{model_name} must start with a Quantize node");
    };
    let span = (spec.qmax() - spec.qmin() + 1) as usize;
    let mut in_dims = dims.to_vec();
    in_dims[0] = BATCH;
    let x = Tensor::from_fn(&in_dims, |i| spec.qmin() + ((i * 37 + i / 7) % span) as i32);

    let plan = model.compile(dims).expect("zoo model compiles");
    let mut arena = Arena::new();
    let mut out: Vec<i32> = Vec::new();

    let want = model.run_quantized(&x).expect("interpreter run");
    plan.run_quantized_into(&x, &mut arena, &mut out).expect("planned run");
    let bit_identical = want.as_slice() == out.as_slice();

    let t = paired_median(
        REPS,
        || {
            std::hint::black_box(model.run_quantized(&x).expect("interpreter run"));
        },
        || {
            plan.run_quantized_into(&x, &mut arena, &mut out).expect("planned run");
            std::hint::black_box(&out);
        },
    );

    // The odometer run: arena and output vector are warm, so the only
    // permissible count is zero. Any stray Vec inside the step loop
    // shows up here as a hard failure.
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..STEADY_ITERS {
        plan.run_quantized_into(&x, &mut arena, &mut out).expect("planned run");
        std::hint::black_box(&out);
    }
    let steady_allocs = ALLOCS.load(Ordering::Relaxed) - before;
    report.case(
        Case::new()
            .with("model", model_name)
            .with("batch", BATCH)
            .paired("unplanned_ns", "planned_ns", &t)
            .with("bit_identical", bit_identical)
            .with("steady_allocs", steady_allocs)
            .with("steady_iters", STEADY_ITERS)
            .with("arena_bytes", plan.arena_bytes())
            .with("fused_nodes", plan.fused_nodes())
            .pass(bit_identical && steady_allocs == 0),
    );
    t.speedup
}

fn main() -> ExitCode {
    // Single-threaded throughout, so the report's host records 1 thread.
    with_threads(1, || {
        let mut report = Report::new("plan_speedup");
        let (mlp, mlp_dims) = zoo::tiny_mlp();
        let mut gates =
            vec![("tiny-mlp", GATE_MLP, measure(&mut report, "tiny-mlp", &mlp, &mlp_dims))];
        for (name, build) in zoo::zoo() {
            let (model, dims) = build();
            gates.push((name, GATE_ZOO, measure(&mut report, name, &model, &dims)));
        }
        for (name, floor, speedup) in gates {
            report.gate(&format!("{name} speedup"), floor, speedup);
        }
        report.finish()
    })
}
