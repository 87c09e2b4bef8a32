//! `cluster_loadgen` — closed-loop load generator for the `t2c-cluster`
//! scale-out tier.
//!
//! Sweeps replica counts over the in-process cluster on the zoo MLP at
//! 32-way client concurrency with the shared closed-loop driver
//! ([`t2c_bench::load`]) and records throughput scaling into
//! `bench_results/cluster_loadgen.json`. Two headline checks:
//!
//! 1. **Scale-out**: 4 replicas must deliver at least 2.5× the
//!    throughput of 1 replica, read as the median ratio over alternating
//!    1-replica/4-replica pairs so one stalled run does not decide the gate.
//! 2. **Losslessness**: a replica killed mid-run must lose zero
//!    admitted requests — queued work drains, racing work re-routes.
//!
//! **Device-paced** — the host may have a single CPU, so raw host-side
//! compute cannot scale with replica count. Each replica's
//! runtime is therefore paced (`ServerConfig::pace_batch_ns`) to model a
//! fixed-rate attached accelerator: every batch occupies its replica's
//! device for a fixed minimum service time, exactly one batch at a time
//! per replica. Pacing sleeps overlap across replicas, so throughput
//! honestly multiplies with replica count the way independent
//! accelerator boards would — which is the deployment this tier exists
//! for. The routed results themselves are still computed exactly and are
//! checked against direct execution. Batches fill from the backlog that
//! queues up while a replica's device is busy; a free worker cuts a batch
//! whenever its queue is non-empty.
//!
//! ```sh
//! cargo run --release -p t2c-bench --bin cluster_loadgen
//! ```

use std::process::ExitCode;
use std::time::Duration;

use t2c_bench::load::ClosedLoop;
use t2c_bench::percentile;
use t2c_bench::report::{Case, Report};
use t2c_cluster::{Cluster, ClusterConfig, RouterConfig};
use t2c_serve::{BatchConfig, ModelRegistry, ServerConfig};

/// Fixed per-batch device service time (1 ms → 4 rows/ms/replica at
/// `max_batch = 4`). The batch size is half the per-replica client
/// cohort at the largest sweep point (32 clients / 4 replicas = 8), so
/// every scale point keeps enough arrival slack to fill its batches and
/// the sweep measures replication, not batch-fill luck.
const PACE_BATCH_NS: u64 = 1_000_000;
const MAX_BATCH: usize = 4;
const CONCURRENCY: usize = 32;
/// 4-replica over 1-replica throughput floor.
const FLOOR: f64 = 2.5;
/// Alternating 1-replica/4-replica pairs whose median ratio is gated.
const PAIRS: usize = 5;

/// Runs and records one closed-loop configuration: `CONCURRENCY` client
/// threads share `requests` routed requests. With `kill_mid_run`, one
/// replica is killed while the run is in flight. Returns its throughput.
fn run_config(report: &mut Report, replicas: usize, requests: usize, kill_mid_run: bool) -> f64 {
    let cfg = ClusterConfig {
        replicas,
        // Replication = replica count: the one benched model lives on
        // every replica, so added replicas add serving capacity.
        router: RouterConfig { replication: replicas, ..RouterConfig::default() },
        server: ServerConfig {
            batch: BatchConfig { max_batch: MAX_BATCH, queue_cap: 4096 },
            workers: 1,
            pace_batch_ns: PACE_BATCH_NS,
            ..ServerConfig::default()
        },
        ..ClusterConfig::default()
    };
    let cluster = Cluster::start(cfg);
    let (model, dims) = t2c_core::zoo::tiny_mlp();
    // A reference admission for quantization and the expected output.
    let reference = ModelRegistry::new();
    let admitted = reference.admit("ref", model.clone(), &dims).expect("reference admission");
    cluster.deploy("tiny-mlp", model, &dims).expect("cluster deploy");

    let run = ClosedLoop::new(&admitted, CONCURRENCY, requests);
    let load = std::thread::scope(|scope| {
        if kill_mid_run {
            scope.spawn(|| {
                // Land the kill squarely inside the run (the paced run
                // takes well over 100 ms).
                std::thread::sleep(Duration::from_millis(40));
                assert!(cluster.kill_replica(1), "kill target must be live");
            });
        }
        run.run(|codes| cluster.infer("tiny-mlp", codes))
    });
    // Batch fill over the replicas still live at the end of the run.
    let (rows, batches) = cluster
        .replica_stats()
        .iter()
        .fold((0, 0), |(r, b), (_, s)| (r + s.batched_rows, b + s.batches));
    let stats = cluster.shutdown();
    let case = Case::new()
        .with("replicas", replicas)
        .with("pace_batch_ns", PACE_BATCH_NS)
        .with("concurrency", CONCURRENCY)
        .with("killed_replica", kill_mid_run);
    report.case(
        load.record(case)
            .with("retries", stats.retries)
            .with("hedges", stats.hedges)
            .with("mean_batch_rows", rows as f64 / batches.max(1) as f64),
    );
    load.throughput_rps
}

fn main() -> ExitCode {
    let mut report = Report::new("cluster_loadgen");
    // Each pair's order alternates so neither side always runs first.
    let mut ratios: Vec<f64> = (0..PAIRS)
        .map(|pair| {
            let (one, four) = if pair.is_multiple_of(2) {
                let one = run_config(&mut report, 1, 2048, false);
                (one, run_config(&mut report, 4, 2048, false))
            } else {
                let four = run_config(&mut report, 4, 2048, false);
                (run_config(&mut report, 1, 2048, false), four)
            };
            four / one
        })
        .collect();
    run_config(&mut report, 2, 2048, false);
    // The lossless-kill run: longer, with a replica killed in flight.
    run_config(&mut report, 4, 4096, true);

    for (pair, &ratio) in ratios.iter().enumerate() {
        report.case(Case::new().with("pair", pair).with("scaleout_4v1", ratio));
    }
    ratios.sort_unstable_by(f64::total_cmp);
    report.gate("median scale-out, 4 replicas over 1", FLOOR, percentile(&ratios, 50.0));
    report.finish()
}
