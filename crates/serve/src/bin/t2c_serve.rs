//! `t2c-serve` — hosts the e2e model zoo behind the length-prefixed TCP
//! protocol.
//!
//! Every model goes through the lint-gated registry (admission refuses
//! any error-level `t2c-lint` finding), then the micro-batching runtime
//! serves quantized-input requests with bounded queues, deadlines and
//! panic isolation.
//!
//! ```sh
//! t2c-serve [--port P] [--workers N] [--max-batch B] [--queue-cap C]
//!           [--audit-every N] [--mlp-only] [--smoke]
//! ```
//!
//! `--smoke` binds an ephemeral port, round-trips one request per hosted
//! model over TCP (plus one structured rejection), drains and exits —
//! the CI gate `scripts/verify.sh` runs exactly this.

use std::net::TcpListener;
use std::process::exit;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use t2c_serve::{serve_tcp, ModelRegistry, ServeError, Server, ServerConfig, TcpClient};
use t2c_tensor::Tensor;

struct Options {
    port: u16,
    server: ServerConfig,
    mlp_only: bool,
    smoke: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options { port: 7433, server: ServerConfig::default(), mlp_only: false, smoke: false }
    }
}

fn parse_args() -> Options {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    let usage = "usage: t2c-serve [--port P] [--workers N] [--max-batch B] [--queue-cap C] \
                 [--audit-every N] [--mlp-only] [--smoke]";
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
            "--workers" => opts.server.workers = numeric(&mut args, "--workers") as usize,
            "--max-batch" => {
                opts.server.batch.max_batch = numeric(&mut args, "--max-batch") as usize;
            }
            "--queue-cap" => {
                opts.server.batch.queue_cap = numeric(&mut args, "--queue-cap") as usize;
            }
            "--audit-every" => opts.server.audit_every = numeric(&mut args, "--audit-every"),
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

/// Builds the registry: the hand-built MLP plus (unless `--mlp-only`) the
/// trained e2e zoo, all admitted through the lint gate.
fn build_registry(mlp_only: bool) -> Arc<ModelRegistry> {
    let registry = Arc::new(ModelRegistry::new());
    let admit = |name: &str, build: fn() -> (t2c_core::IntModel, Vec<usize>)| {
        let (model, dims) = build();
        match registry.admit(name, model, &dims) {
            Ok(m) => {
                println!(
                    "admitted '{name}' (input {:?}, {} lint warning(s))",
                    m.input_dims(),
                    m.lint().count(t2c_lint::Severity::Warn)
                );
            }
            Err(e) => {
                eprintln!("refused '{name}': {e}");
                exit(1);
            }
        }
    };
    admit("tiny-mlp", t2c_core::zoo::tiny_mlp);
    if !mlp_only {
        for (tag, build) in t2c_core::zoo::zoo() {
            admit(tag, build);
        }
    }
    registry
}

/// An in-grid synthetic request for a hosted model: a deterministic float
/// ramp quantized with the model's own input scale/spec.
fn sample_codes(model: &t2c_serve::AdmittedModel) -> Tensor<i32> {
    let dims = model.input_dims();
    let x = Tensor::from_fn(dims, |i| ((i % 97) as f32) * 0.01 - 0.45);
    model.quantize(&x)
}

fn run_smoke(opts: &Options) -> Result<(), String> {
    let registry = build_registry(opts.mlp_only);
    let server = Server::start(Arc::clone(&registry), opts.server);
    let stop = Arc::new(AtomicBool::new(false));
    let listener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind ephemeral port: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let accept = serve_tcp(server.handle(), listener, Arc::clone(&stop))
        .map_err(|e| format!("start accept loop: {e}"))?;
    println!("smoke: serving {} model(s) on {addr}", registry.len());

    let mut client = TcpClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut verdict = Ok(());
    for name in registry.names() {
        let model = registry.get(&name).expect("registered");
        let codes = sample_codes(&model);
        let direct = model
            .model()
            .run_quantized(&codes)
            .map_err(|e| format!("direct run of '{name}': {e}"))?;
        match client.infer(&name, &codes, 30_000) {
            Ok(served) if served.as_slice() == direct.as_slice() => {
                println!(
                    "smoke: '{name}' round-trip ok ({:?} → {:?})",
                    codes.dims(),
                    served.dims()
                );
            }
            Ok(_) => {
                verdict = Err(format!("'{name}' served result diverges from direct execution"));
                break;
            }
            Err(e) => {
                verdict = Err(format!("'{name}' round trip failed: {e}"));
                break;
            }
        }
    }
    if verdict.is_ok() {
        match client.infer("no-such-model", &Tensor::zeros(&[1, 4]), 0) {
            Err(ServeError::ModelNotFound(_)) => {
                println!("smoke: unknown model rejected with a structured status");
            }
            other => {
                verdict =
                    Err(format!("unknown model should reject with ModelNotFound, got {other:?}"));
            }
        }
    }
    drop(client);
    stop.store(true, Ordering::Release);
    accept.join().ok();
    let stats = server.shutdown();
    println!(
        "smoke: drained — {} completed, {} batches, mean batch rows {:.2}",
        stats.completed,
        stats.batches,
        stats.mean_batch_rows()
    );
    verdict
}

fn main() {
    let opts = parse_args();
    if opts.smoke {
        if let Err(msg) = run_smoke(&opts) {
            eprintln!("smoke FAILED: {msg}");
            exit(1);
        }
        println!("serve smoke ok");
        return;
    }
    let registry = build_registry(opts.mlp_only);
    let server = Server::start(Arc::clone(&registry), opts.server);
    let stop = Arc::new(AtomicBool::new(false));
    let listener = TcpListener::bind(("127.0.0.1", opts.port)).unwrap_or_else(|e| {
        eprintln!("bind 127.0.0.1:{}: {e}", opts.port);
        exit(1);
    });
    let addr = listener.local_addr().expect("local addr");
    let accept = match serve_tcp(server.handle(), listener, Arc::clone(&stop)) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("start accept loop: {e}");
            exit(1);
        }
    };
    println!("t2c-serve listening on {addr} ({} model(s))", registry.len());
    // Serve until the process is killed; the accept thread owns the socket.
    accept.join().ok();
    server.shutdown();
}
