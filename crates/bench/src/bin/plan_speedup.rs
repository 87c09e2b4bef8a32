//! `plan-speedup` — the compiled-execution-plan deployment gate.
//!
//! Benchmarks [`t2c_core::ExecPlan`] (fused GEMM epilogues + arena-backed
//! intermediates, compiled once at admission) against the plain
//! `IntModel::run_quantized` interpreter on the zoo MLP, single-threaded,
//! end to end. The gate demands three properties at once:
//!
//! 1. **speedup ≥ 1.3×** — fusion skips the materialized i32
//!    intermediates and the per-call weight packing the interpreter pays;
//! 2. **zero steady-state heap allocations** — measured for real with a
//!    counting global allocator wrapped around the system allocator: after
//!    one warm-up call sizes the arena and the output vector, repeated
//!    `run_quantized_into` calls must not allocate a single time;
//! 3. **bit identity** — planned and interpreted logits agree exactly.
//!
//! Results land in `bench_results/plan_speedup.json`; exits non-zero when
//! any gate fails — `scripts/verify.sh` runs it as the plan gate.
//!
//! ```sh
//! cargo run --release -p t2c-bench --bin plan_speedup
//! ```

// The counting allocator is the measurement instrument for gate (2); a
// `GlobalAlloc` impl is necessarily unsafe.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use t2c_bench::paired_median;
use t2c_core::{zoo, Arena};
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
/// The deployment gate: planned end-to-end over interpreted, 1 thread.
const GATE_SPEEDUP: f64 = 1.3;

fn main() {
    let (model, dims) = zoo::tiny_mlp();
    let mut in_dims = dims.clone();
    in_dims[0] = BATCH;
    // Signed-8 codes straight into the graph: both paths treat the leading
    // Quantize node as a pass-through on pre-quantized input.
    let x = Tensor::from_fn(&in_dims, |i| ((i * 37) % 255) as i32 - 127);

    let plan = model.compile(&dims).expect("zoo MLP compiles");
    let mut arena = Arena::new();
    let mut out: Vec<i32> = Vec::new();

    let (t, bit_identical, steady_allocs) = with_threads(1, || {
        let want = model.run_quantized(&x).expect("interpreter run");
        plan.run_quantized_into(&x, &mut arena, &mut out).expect("planned run");
        let identical = want.as_slice() == out.as_slice();

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
        let steady = ALLOCS.load(Ordering::Relaxed) - before;
        (t, identical, steady)
    });

    let (unplanned_ns, planned_ns, speedup) = (t.baseline_ns, t.candidate_ns, t.speedup);
    let pass = speedup >= GATE_SPEEDUP && bit_identical && steady_allocs == 0;

    println!("| path | ms/batch ({BATCH} rows) |");
    println!("|---|---|");
    println!("| interpreter | {:.3} |", unplanned_ns as f64 / 1e6);
    println!("| compiled plan | {:.3} |", planned_ns as f64 / 1e6);
    println!(
        "\nplan speedup: {:.2}x (floor {GATE_SPEEDUP:.2}x), steady allocs: {} / {} iters, \
         arena: {} bytes, fused nodes: {}, {} — {}",
        speedup,
        steady_allocs,
        STEADY_ITERS,
        plan.arena_bytes(),
        plan.fused_nodes(),
        if bit_identical { "bit-identical" } else { "MISMATCH" },
        if pass { "pass" } else { "FAIL" }
    );

    let created = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let json = format!(
        "{{\n  \"version\": 1,\n  \"bench\": \"plan_speedup\",\n  \"created_unix\": {created},\n  \
         \"threads\": 1,\n  \"batch\": {BATCH},\n  \"unplanned_ns\": {unplanned_ns},\n  \
         \"planned_ns\": {planned_ns},\n  \"speedup\": {speedup:.3},\n  \
         \"bit_identical\": {bit_identical},\n  \"steady_allocs\": {steady_allocs},\n  \
         \"arena_bytes\": {},\n  \"fused_nodes\": {},\n  \"gate_speedup\": {GATE_SPEEDUP},\n  \
         \"pass\": {pass}\n}}\n",
        plan.arena_bytes(),
        plan.fused_nodes(),
    );
    std::fs::create_dir_all("bench_results").expect("create bench_results");
    let path = "bench_results/plan_speedup.json";
    std::fs::write(path, json).expect("write plan speedup report");
    println!("plan speedup report: {path}");
    if !pass {
        std::process::exit(1);
    }
}
