//! `t2c-perfbench` — the repository benchmark.
//!
//! ```sh
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload mlp-tcp-open --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs one workload for `--seconds` and prints, as the last line of
//! stdout, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics (from spans recorded around every layer call) with `--trace 1`.
//! See `perfbench/README.md` for the workloads and metric definitions.

mod layers;
mod report;
mod serving;
mod trace;
mod workloads;

use std::sync::Arc;
use std::time::Instant;

use workloads::Ctx;

/// Kernel threads per inference: one, so the two serving workers and the
/// load generator share the host's cores without oversubscription.
const KERNEL_THREADS: usize = 1;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

fn main() {
    let epoch = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: t2c-perfbench --workload <mlp-tcp-open|zoo-tcp-closed|cluster-rolling> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    t2c_tensor::set_num_threads(KERNEL_THREADS);
    let (nproc, cpu) = report::host();
    let tracer = Arc::new(trace::Tracer::new(epoch));
    tracer.set_enabled(args.trace);
    let out_dir =
        std::path::PathBuf::from(".bench_build").join("perfbench-out").join(&args.workload);
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        conns: nproc.min(2),
        tracer,
        out_dir,
    };
    println!(
        "host: nproc {nproc}, cpu \"{cpu}\"; kernel threads {}; load connections {}",
        t2c_tensor::num_threads(),
        ctx.conns
    );
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace
    );
    let out = match args.workload.as_str() {
        "mlp-tcp-open" => workloads::mlp_tcp_open(&ctx),
        "zoo-tcp-closed" => workloads::zoo_tcp_closed(&ctx),
        "cluster-rolling" => workloads::cluster_rolling(&ctx),
        other => {
            eprintln!("error: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let shown = if args.trace { &out.layers } else { &out.e2e };
    println!("end-to-end (untraced{}):", if args.trace { " half" } else { "" });
    out.e2e.print_table();
    if args.trace {
        println!("per-layer (traced half and layer sweep):");
        out.layers.print_table();
    }
    println!("{}", shown.result_line());
}
