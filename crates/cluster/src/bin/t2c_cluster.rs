//! `t2c-cluster` — hosts the e2e model zoo on a replicated serving tier
//! behind the same length-prefixed TCP protocol as `t2c-serve`, so
//! `TcpClient` (and any wire-speaking client) works unchanged.
//!
//! Every replica runs its own lint-gated registry and micro-batching
//! runtime; the cluster places each model on R replicas by consistent
//! hash and routes requests to the healthiest, least-loaded holder.
//!
//! ```sh
//! t2c-cluster [--port P] [--replicas N] [--replication R] [--workers W]
//!             [--max-batch B] [--queue-cap C] [--mlp-only] [--smoke]
//! ```
//!
//! `--smoke` binds an ephemeral port and exercises the whole tier:
//! TCP round-trips for every hosted model (checked against direct
//! execution), a rolling update flip, a replica kill with continued
//! service, and a structured rejection — then drains and exits. The CI
//! gate `scripts/verify.sh` runs exactly this.

use std::net::TcpListener;
use std::process::exit;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use t2c_cluster::{Cluster, ClusterConfig, RouterConfig};
use t2c_serve::{serve_tcp_backend, ModelRegistry, ServeError, ServerConfig, TcpClient};
use t2c_tensor::Tensor;

struct Options {
    port: u16,
    replicas: usize,
    replication: usize,
    server: ServerConfig,
    mlp_only: bool,
    smoke: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            port: 7434,
            replicas: 3,
            replication: 2,
            server: ServerConfig { workers: 1, ..ServerConfig::default() },
            mlp_only: false,
            smoke: false,
        }
    }
}

fn parse_args() -> Options {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    let usage = "usage: t2c-cluster [--port P] [--replicas N] [--replication R] [--workers W] \
                 [--max-batch B] [--queue-cap C] [--mlp-only] [--smoke]";
    let numeric = |args: &mut dyn Iterator<Item = String>, flag: &str| -> u64 {
        args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
            eprintln!("{flag} needs a numeric value\n{usage}");
            exit(2);
        })
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--port" => {
                opts.port = u16::try_from(numeric(&mut args, "--port")).unwrap_or_else(|_| {
                    eprintln!("--port must be at most 65535\n{usage}");
                    exit(2);
                });
            }
            "--replicas" => opts.replicas = numeric(&mut args, "--replicas") as usize,
            "--replication" => opts.replication = numeric(&mut args, "--replication") as usize,
            "--workers" => opts.server.workers = numeric(&mut args, "--workers") as usize,
            "--max-batch" => {
                opts.server.batch.max_batch = numeric(&mut args, "--max-batch") as usize;
            }
            "--queue-cap" => {
                opts.server.batch.queue_cap = numeric(&mut args, "--queue-cap") as usize;
            }
            "--mlp-only" => opts.mlp_only = true,
            "--smoke" => opts.smoke = true,
            "--help" | "-h" => {
                println!("{usage}");
                exit(0);
            }
            other => {
                eprintln!("unknown argument `{other}`\n{usage}");
                exit(2);
            }
        }
    }
    opts
}

fn cluster_config(opts: &Options) -> ClusterConfig {
    ClusterConfig {
        replicas: opts.replicas,
        router: RouterConfig { replication: opts.replication, ..RouterConfig::default() },
        server: opts.server,
        ..ClusterConfig::default()
    }
}

/// A zoo model builder: returns the integer model and its input dims.
type ZooBuilder = fn() -> (t2c_core::IntModel, Vec<usize>);

/// The hosted catalog: `(public name, builder)` pairs.
fn catalog(mlp_only: bool) -> Vec<(&'static str, ZooBuilder)> {
    let mut models: Vec<(&'static str, ZooBuilder)> = vec![("tiny-mlp", t2c_core::zoo::tiny_mlp)];
    if !mlp_only {
        models.extend(t2c_core::zoo::zoo());
    }
    models
}

/// Deploys the catalog onto the cluster and returns a client-side
/// reference registry: the same models admitted locally, used to
/// quantize inputs and compute the expected outputs each round trip is
/// checked against.
fn deploy_catalog(cluster: &Cluster, mlp_only: bool) -> Arc<ModelRegistry> {
    let reference = Arc::new(ModelRegistry::new());
    for (name, build) in catalog(mlp_only) {
        let (model, dims) = build();
        reference.admit(name, model.clone(), &dims).unwrap_or_else(|e| {
            eprintln!("reference admission of '{name}' failed: {e}");
            exit(1);
        });
        match cluster.deploy(name, model, &dims) {
            Ok(()) => println!("deployed '{name}' (input {dims:?})"),
            Err(e) => {
                eprintln!("cluster refused '{name}': {e}");
                exit(1);
            }
        }
    }
    reference
}

/// An in-grid synthetic request: a deterministic float ramp quantized
/// with the model's own input scale/spec.
fn sample_codes(model: &t2c_serve::AdmittedModel) -> Tensor<i32> {
    let x = Tensor::from_fn(model.input_dims(), |i| ((i % 89) as f32) * 0.011 - 0.44);
    model.quantize(&x)
}

/// Round-trips every reference model through the wire client and checks
/// the routed result against direct local execution.
fn check_round_trips(
    client: &mut TcpClient,
    reference: &ModelRegistry,
    phase: &str,
) -> Result<(), String> {
    for name in reference.names() {
        let model = reference.get(&name).expect("reference model");
        let codes = sample_codes(&model);
        let direct = model
            .model()
            .run_quantized(&codes)
            .map_err(|e| format!("direct run of '{name}': {e}"))?;
        match client.infer(&name, &codes, 30_000) {
            Ok(served) if served.as_slice() == direct.as_slice() => {
                println!("smoke[{phase}]: '{name}' round-trip ok ({:?})", served.dims());
            }
            Ok(_) => {
                return Err(format!("[{phase}] '{name}' routed result diverges from direct"));
            }
            Err(e) => return Err(format!("[{phase}] '{name}' round trip failed: {e}")),
        }
    }
    Ok(())
}

#[allow(clippy::too_many_lines)]
fn run_smoke(opts: &Options) -> Result<(), String> {
    let cluster = Arc::new(Cluster::start(cluster_config(opts)));
    let reference = deploy_catalog(&cluster, opts.mlp_only);
    let stop = Arc::new(AtomicBool::new(false));
    let listener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind ephemeral port: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let accept = serve_tcp_backend(Arc::clone(&cluster), listener, Arc::clone(&stop))
        .map_err(|e| format!("start accept loop: {e}"))?;
    println!(
        "smoke: {} replica(s), replication {}, {} model(s) on {addr}",
        opts.replicas,
        opts.replication,
        reference.len()
    );
    let mut client = TcpClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;

    // Phase 1: every model routes and matches direct execution.
    check_round_trips(&mut client, &reference, "deploy")?;

    // Phase 2: rolling update — flip tiny-mlp to its pruned successor
    // and verify the route serves the new version.
    let (pruned, dims) = t2c_core::zoo::tiny_mlp_pruned(0.8);
    let pruned_ref = Arc::new(ModelRegistry::new());
    pruned_ref
        .admit("tiny-mlp", pruned.clone(), &dims)
        .map_err(|e| format!("reference admission of pruned mlp: {e}"))?;
    cluster.update("tiny-mlp", pruned).map_err(|e| format!("rolling update: {e}"))?;
    if cluster.version("tiny-mlp") != Some(2) {
        return Err(format!(
            "rolling update should leave tiny-mlp at v2, got {:?}",
            cluster.version("tiny-mlp")
        ));
    }
    check_round_trips(&mut client, &pruned_ref, "update")?;
    println!("smoke: rolling update flipped tiny-mlp to v2");

    // Phase 3: kill a replica mid-service; every model keeps serving
    // from the survivors (re-placed where needed).
    if !cluster.kill_replica(0) {
        return Err("replica 0 should have been live".into());
    }
    println!("smoke: killed replica 0, re-placing its models");
    check_round_trips(&mut client, &pruned_ref, "post-kill")?;
    let survivors = reference.names().into_iter().filter(|n| n != "tiny-mlp");
    for name in survivors {
        let model = reference.get(&name).expect("reference model");
        let codes = sample_codes(&model);
        client
            .infer(&name, &codes, 30_000)
            .map_err(|e| format!("[post-kill] '{name}' round trip failed: {e}"))?;
    }

    // Phase 4: structured rejection for unknown models.
    match client.infer("no-such-model", &Tensor::zeros(&[1, 4]), 0) {
        Err(ServeError::ModelNotFound(_)) => {
            println!("smoke: unknown model rejected with a structured status");
        }
        other => {
            return Err(format!("unknown model should reject with ModelNotFound, got {other:?}"));
        }
    }

    drop(client);
    stop.store(true, Ordering::Release);
    accept.join().ok();
    let stats = cluster.shutdown();
    println!(
        "smoke: drained — {} completed, {} retries, {} hedge(s) ({} won), {} live replica(s)",
        stats.completed, stats.retries, stats.hedges, stats.hedge_wins, stats.live_replicas
    );
    Ok(())
}

fn main() {
    let opts = parse_args();
    if opts.smoke {
        if let Err(msg) = run_smoke(&opts) {
            eprintln!("smoke FAILED: {msg}");
            exit(1);
        }
        println!("cluster smoke ok");
        return;
    }
    let cluster = Arc::new(Cluster::start(cluster_config(&opts)));
    deploy_catalog(&cluster, opts.mlp_only);
    let stop = Arc::new(AtomicBool::new(false));
    let listener = TcpListener::bind(("127.0.0.1", opts.port)).unwrap_or_else(|e| {
        eprintln!("bind 127.0.0.1:{}: {e}", opts.port);
        exit(1);
    });
    let addr = listener.local_addr().expect("local addr");
    let accept = match serve_tcp_backend(Arc::clone(&cluster), listener, Arc::clone(&stop)) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("start accept loop: {e}");
            exit(1);
        }
    };
    println!(
        "t2c-cluster listening on {addr} ({} replica(s), {} model(s))",
        opts.replicas,
        cluster.models().len()
    );
    accept.join().ok();
    cluster.shutdown();
}
