//! `loadgen` — closed-loop load generator for the `t2c-serve` runtime.
//!
//! Sweeps micro-batch × client-concurrency settings over the in-process
//! serving handle with the shared closed-loop driver
//! ([`t2c_bench::load`]), checks every response against the interpreter,
//! and records throughput, latency percentiles and batch amortization in
//! `bench_results/serve_loadgen.json`. The gate runs **device-paced**
//! (`ServerConfig::pace_batch_ns`, as `cluster_loadgen` does): each batch
//! dispatch is held to a fixed service time modeling one invocation of an
//! attached accelerator board, and `max_batch=16` must then deliver at
//! least 2× the throughput of `max_batch=1` on the zoo MLP at 32-way
//! concurrency (ceiling 16×). Unpaced, the compiled plan leaves only
//! noise-level host fixed costs for batching to amortize, so the unpaced
//! sweep is recorded but not gated. A free worker cuts a batch whenever
//! the queue is non-empty, so batches fill from the backlog that builds
//! up while the paced worker is busy.
//!
//! ```sh
//! cargo run --release -p t2c-bench --bin loadgen
//! ```

use std::process::ExitCode;
use std::sync::Arc;

use t2c_bench::load::ClosedLoop;
use t2c_bench::report::{Case, Report};
use t2c_serve::{BatchConfig, ModelRegistry, Server, ServerConfig};

/// Fixed per-batch device service time for the paced gate configs —
/// the same figure `cluster_loadgen` paces its replicas to (one
/// invocation of an attached accelerator board per coalesced batch).
const PACE_BATCH_NS: u64 = 1_000_000;
/// Paced `max_batch=16` over `max_batch=1` throughput floor.
const FLOOR: f64 = 2.0;

/// Runs and records one closed-loop configuration: `concurrency` client
/// threads share `requests` in-process requests. Returns its throughput.
fn run_config(
    report: &mut Report,
    registry: &Arc<ModelRegistry>,
    model: &str,
    max_batch: usize,
    concurrency: usize,
    requests: usize,
    pace_batch_ns: u64,
) -> f64 {
    let admitted = registry.get(model).expect("model admitted");
    let run = ClosedLoop::new(&admitted, concurrency, requests);
    let cfg = ServerConfig {
        batch: BatchConfig { max_batch, queue_cap: 4096 },
        workers: 2,
        pace_batch_ns,
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(registry), cfg);
    let handle = server.handle();
    let load = run.run(|codes| handle.infer(model, codes));
    let stats = server.shutdown();
    let case = Case::new()
        .with("model", model)
        .with("max_batch", max_batch)
        .with("pace_batch_ns", pace_batch_ns)
        .with("concurrency", concurrency);
    report.case(
        load.record(case)
            .with("rejected_busy", stats.rejected_busy)
            .with("deadline_exceeded", stats.deadline_exceeded)
            .with("mean_batch_rows", stats.mean_batch_rows()),
    );
    load.throughput_rps
}

fn main() -> ExitCode {
    let registry = Arc::new(ModelRegistry::new());
    let (mlp, mlp_dims) = t2c_core::zoo::tiny_mlp();
    registry.admit("tiny-mlp", mlp, &mlp_dims).expect("tiny_mlp passes the lint gate");
    let mut report = Report::new("serve_loadgen");

    // The unpaced host-compute sweep (telemetry, see module doc).
    for concurrency in [8, 32] {
        for max_batch in [1, 4, 16] {
            run_config(&mut report, &registry, "tiny-mlp", max_batch, concurrency, 2048, 0);
        }
    }

    // The gated pair: device-paced batch amortization (see module doc).
    let b1 = run_config(&mut report, &registry, "tiny-mlp", 1, 32, 1024, PACE_BATCH_NS);
    let b16 = run_config(&mut report, &registry, "tiny-mlp", 16, 32, 1024, PACE_BATCH_NS);

    // One pass per trained zoo model (admission through the lint gate is
    // part of what this measures end to end).
    for (tag, build) in t2c_core::zoo::zoo() {
        let (model, dims) = build();
        registry.admit(tag, model, &dims).expect("zoo model passes the lint gate");
        run_config(&mut report, &registry, tag, 8, 8, 64, 0);
    }

    report.gate("tiny-mlp paced throughput, max_batch 16 over 1", FLOOR, b16 / b1);
    report.finish()
}
