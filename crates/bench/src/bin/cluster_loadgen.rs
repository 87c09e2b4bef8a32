//! `cluster_loadgen` — closed-loop load generator for the `t2c-cluster`
//! scale-out tier.
//!
//! Sweeps replica counts over the in-process cluster on the zoo MLP at
//! 32-way client concurrency and records throughput scaling into
//! `bench_results/cluster_loadgen.json`. Two headline checks:
//!
//! 1. **Scale-out**: 4 replicas must deliver at least 2.5× the
//!    throughput of 1 replica.
//! 2. **Losslessness**: a replica killed mid-run must lose zero
//!    admitted requests — queued work drains, racing work re-routes.
//!
//! **`device_paced: true`** — this host is a single-CPU machine, so raw
//! host-side compute cannot scale with replica count. Each replica's
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

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use t2c_cluster::{Cluster, ClusterConfig, RouterConfig};
use t2c_serve::{BatchConfig, ModelRegistry, ServerConfig};
use t2c_tensor::Tensor;

/// Fixed per-batch device service time (1 ms → 4 rows/ms/replica at
/// `max_batch = 4`). The batch size is half the per-replica client
/// cohort at the largest sweep point (32 clients / 4 replicas = 8), so
/// every scale point keeps enough arrival slack to fill its batches and
/// the sweep measures replication, not batch-fill luck.
const PACE_BATCH_NS: u64 = 1_000_000;
const MAX_BATCH: usize = 4;
const CONCURRENCY: usize = 32;

/// One measured configuration.
struct RunResult {
    replicas: usize,
    concurrency: usize,
    requests: usize,
    completed: u64,
    errors: u64,
    retries: u64,
    hedges: u64,
    wall_ns: u64,
    throughput_rps: f64,
    p50_ns: u64,
    p99_ns: u64,
    killed_replica: bool,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p / 100.0).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Runs one closed-loop configuration: `CONCURRENCY` client threads each
/// issue `requests / CONCURRENCY` sequential routed requests. With
/// `kill_mid_run`, one replica is killed while the run is in flight.
fn run_config(replicas: usize, requests: usize, kill_mid_run: bool) -> RunResult {
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

    let per_thread = requests.div_ceil(CONCURRENCY);
    // Pre-generate payloads and their expected outputs outside the timed
    // region; every routed result is checked for exactness.
    let payloads: Vec<Vec<(Tensor<i32>, Vec<i32>)>> = (0..CONCURRENCY)
        .map(|t| {
            (0..per_thread)
                .map(|r| {
                    let salt = t * per_thread + r;
                    let x = Tensor::from_fn(admitted.input_dims(), |i| {
                        ((i * 131 + salt * 29) % 255) as f32 * 0.004 - 0.5
                    });
                    let codes = admitted.quantize(&x);
                    let direct = admitted.model().run_quantized(&codes).expect("direct run");
                    (codes, direct.as_slice().to_vec())
                })
                .collect()
        })
        .collect();
    let latencies: Mutex<Vec<u64>> = Mutex::new(Vec::with_capacity(requests));
    let errors = AtomicU64::new(0);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for batch in payloads {
            let cluster = cluster.clone();
            let latencies = &latencies;
            let errors = &errors;
            scope.spawn(move || {
                let mut mine = Vec::with_capacity(per_thread);
                for (codes, direct) in batch {
                    let t0 = Instant::now();
                    match cluster.infer("tiny-mlp", codes) {
                        Ok(out) if out.as_slice() == &direct[..] => {
                            mine.push(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(0));
                        }
                        _ => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                latencies.lock().unwrap().extend(mine);
            });
        }
        if kill_mid_run {
            let cluster = cluster.clone();
            scope.spawn(move || {
                // Land the kill squarely inside the run (the paced run
                // takes well over 100 ms).
                std::thread::sleep(Duration::from_millis(40));
                assert!(cluster.kill_replica(1), "kill target must be live");
            });
        }
    });
    let wall_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    if std::env::var_os("CLUSTER_LOADGEN_DEBUG").is_some() {
        for (id, s) in cluster.replica_stats() {
            eprintln!(
                "debug: replica {id}: completed {} batches {} rows/batch {:.2}",
                s.completed,
                s.batches,
                s.mean_batch_rows()
            );
        }
    }
    let stats = cluster.shutdown();
    let mut lat = latencies.into_inner().unwrap();
    lat.sort_unstable();
    RunResult {
        replicas,
        concurrency: CONCURRENCY,
        requests: per_thread * CONCURRENCY,
        completed: lat.len() as u64,
        errors: errors.into_inner(),
        retries: stats.retries,
        hedges: stats.hedges,
        wall_ns,
        throughput_rps: lat.len() as f64 / (wall_ns as f64 / 1e9),
        p50_ns: percentile(&lat, 50.0),
        p99_ns: percentile(&lat, 99.0),
        killed_replica: kill_mid_run,
    }
}

fn json_row(r: &RunResult) -> String {
    format!(
        "    {{\"replicas\": {}, \"concurrency\": {}, \"requests\": {}, \"completed\": {}, \
         \"errors\": {}, \"retries\": {}, \"hedges\": {}, \"wall_ns\": {}, \
         \"throughput_rps\": {:.2}, \"p50_ns\": {}, \"p99_ns\": {}, \"killed_replica\": {}}}",
        r.replicas,
        r.concurrency,
        r.requests,
        r.completed,
        r.errors,
        r.retries,
        r.hedges,
        r.wall_ns,
        r.throughput_rps,
        r.p50_ns,
        r.p99_ns,
        r.killed_replica
    )
}

fn main() {
    println!("| replicas | conc | reqs | rps | p50 µs | p99 µs | retries | hedges | kill |");
    println!("|---|---|---|---|---|---|---|---|---|");
    let mut results: Vec<RunResult> = Vec::new();
    let mut show = |r: RunResult| {
        println!(
            "| {} | {} | {} | {:.0} | {:.0} | {:.0} | {} | {} | {} |",
            r.replicas,
            r.concurrency,
            r.requests,
            r.throughput_rps,
            r.p50_ns as f64 / 1e3,
            r.p99_ns as f64 / 1e3,
            r.retries,
            r.hedges,
            r.killed_replica
        );
        results.push(r);
    };

    for &replicas in &[1usize, 2, 4] {
        show(run_config(replicas, 2048, false));
    }
    // The lossless-kill run: longer, with a replica killed in flight.
    show(run_config(4, 4096, true));

    let base = results.iter().find(|r| r.replicas == 1).expect("1-replica baseline");
    let four =
        results.iter().find(|r| r.replicas == 4 && !r.killed_replica).expect("4-replica run");
    let scaleout = four.throughput_rps / base.throughput_rps.max(1e-9);
    let kill = results.iter().find(|r| r.killed_replica).expect("kill run");
    let kill_lost = kill.requests as u64 - kill.completed + kill.errors;
    let all_exact = results.iter().all(|r| r.errors == 0 && r.completed == r.requests as u64);
    let pass = scaleout >= 2.5 && kill_lost == 0 && all_exact;
    println!(
        "\ncluster scale-out (4 replicas vs 1 @ conc {CONCURRENCY}): {scaleout:.2}x, \
         kill-run lost requests: {kill_lost} — {}",
        if pass { "pass" } else { "FAIL" }
    );

    let created = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let rows: Vec<String> = results.iter().map(json_row).collect();
    let json = format!(
        "{{\n  \"version\": 1,\n  \"bench\": \"cluster_loadgen\",\n  \"created_unix\": {created},\n  \
         \"device_paced\": true,\n  \"pace_batch_ns\": {PACE_BATCH_NS},\n  \"configs\": [\n{}\n  ],\n  \
         \"scaleout_4v1\": {scaleout:.3},\n  \"kill_lost_requests\": {kill_lost},\n  \"pass\": {pass}\n}}\n",
        rows.join(",\n")
    );
    std::fs::create_dir_all("bench_results").expect("create bench_results");
    let path = "bench_results/cluster_loadgen.json";
    std::fs::write(path, json).expect("write cluster loadgen report");
    println!("cluster loadgen report: {path}");
    if !pass {
        std::process::exit(1);
    }
}
