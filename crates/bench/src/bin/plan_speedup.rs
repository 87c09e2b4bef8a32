//! `plan-speedup` — the compiled-execution-plan deployment gate.
//!
//! Benchmarks [`t2c_core::ExecPlan`] (fused MAC epilogues + arena-backed
//! intermediates, compiled once at admission) against the plain
//! `IntModel::run_quantized` interpreter on every model the toolkit
//! serves — the zoo MLP and the MobileNet, ResNet and ViT zoo models —
//! single-threaded, end to end, at batch 16. Each case demands three
//! properties at once:
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
//! working directory): the top-level fields report the MLP case, `cases`
//! lists every model, and `pass` holds only if every case passes. Exits
//! non-zero when any gate fails — `scripts/verify.sh` runs it as the plan
//! gate.
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

/// One model's measurements.
struct Case {
    model: &'static str,
    gate: f64,
    unplanned_ns: u64,
    planned_ns: u64,
    speedup: f64,
    bit_identical: bool,
    steady_allocs: u64,
    arena_bytes: usize,
    fused_nodes: usize,
}

impl Case {
    fn pass(&self) -> bool {
        self.speedup >= self.gate && self.bit_identical && self.steady_allocs == 0
    }

    /// The case's fields as JSON members at `indent`.
    fn json_fields(&self, indent: &str) -> String {
        format!(
            "{indent}\"unplanned_ns\": {},\n{indent}\"planned_ns\": {},\n\
             {indent}\"speedup\": {:.3},\n{indent}\"bit_identical\": {},\n\
             {indent}\"steady_allocs\": {},\n{indent}\"arena_bytes\": {},\n\
             {indent}\"fused_nodes\": {},\n{indent}\"gate_speedup\": {},\n",
            self.unplanned_ns,
            self.planned_ns,
            self.speedup,
            self.bit_identical,
            self.steady_allocs,
            self.arena_bytes,
            self.fused_nodes,
            self.gate,
        )
    }
}

/// Times the plan against the interpreter on a `BATCH`-row input of
/// on-grid codes (both paths treat the leading `Quantize` node as a
/// pass-through on pre-quantized input), then counts the allocations of
/// `STEADY_ITERS` warm planned runs.
fn measure(model_name: &'static str, gate: f64, model: &IntModel, dims: &[usize]) -> Case {
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

    with_threads(1, || {
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
        Case {
            model: model_name,
            gate,
            unplanned_ns: t.baseline_ns,
            planned_ns: t.candidate_ns,
            speedup: t.speedup,
            bit_identical,
            steady_allocs,
            arena_bytes: plan.arena_bytes(),
            fused_nodes: plan.fused_nodes(),
        }
    })
}

fn main() {
    let (mlp, mlp_dims) = zoo::tiny_mlp();
    let mut cases = vec![measure("tiny-mlp", GATE_MLP, &mlp, &mlp_dims)];
    for (name, build) in zoo::zoo() {
        let (model, dims) = build();
        cases.push(measure(name, GATE_ZOO, &model, &dims));
    }
    let pass = cases.iter().all(Case::pass);

    println!("| model | interpreter ms/batch | plan ms/batch | speedup | floor | steady allocs | identical |");
    println!("|---|---|---|---|---|---|---|");
    for c in &cases {
        println!(
            "| {} | {:.3} | {:.3} | {:.2}x | {:.2}x | {} / {STEADY_ITERS} | {} |",
            c.model,
            c.unplanned_ns as f64 / 1e6,
            c.planned_ns as f64 / 1e6,
            c.speedup,
            c.gate,
            c.steady_allocs,
            if c.bit_identical { "yes" } else { "MISMATCH" },
        );
    }
    println!("\nplan speedup ({BATCH} rows, 1 thread): {}", if pass { "pass" } else { "FAIL" });

    let created = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let case_json: Vec<String> = cases
        .iter()
        .map(|c| {
            format!(
                "    {{\n      \"model\": \"{}\",\n{}      \"pass\": {}\n    }}",
                c.model,
                c.json_fields("      "),
                c.pass()
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"version\": 2,\n  \"bench\": \"plan_speedup\",\n  \"created_unix\": {created},\n  \
         \"threads\": 1,\n  \"batch\": {BATCH},\n  \"steady_iters\": {STEADY_ITERS},\n{}  \
         \"cases\": [\n{}\n  ],\n  \"pass\": {pass}\n}}\n",
        cases[0].json_fields("  "),
        case_json.join(",\n"),
    );
    std::fs::create_dir_all("bench_results").expect("create bench_results");
    let path = "bench_results/plan_speedup.json";
    std::fs::write(path, json).expect("write plan speedup report");
    println!("plan speedup report: {path}");
    if !pass {
        std::process::exit(1);
    }
}
