//! Per-layer measurement: the layer sweep over one workload's models and
//! the derivation of every per-layer metric from the recorded spans.

use std::collections::BTreeMap;

use t2c_accel::{Accelerator, AcceleratorConfig};
use t2c_core::Arena;
use t2c_lint::{certify_model, lint_model, ErrorBoundConfig};
use t2c_serve::AdmittedModel;
use t2c_tensor::rng::TensorRng;

use crate::report::{median, Report};
use crate::serving::float_input;
use crate::trace::{self_times, self_times_by_name, Span, Tracer};

/// Every model a workload can serve, in metric order.
pub const MODELS: [&str; 4] = ["tiny-mlp", "mobilenet-ptq", "resnet-qat", "vit-ptq"];

/// Per-model metrics: `(name, unit)`; the `export`/`accel` ones exist only
/// for the trained zoo models, which are the ones the deploy sweep of
/// `zoo-tcp-closed` exports.
const PER_MODEL: [(&str, &str); 13] = [
    ("serve.admit_ms", "ms"),
    ("core.plan_ms_per_sample", "ms"),
    ("core.interp_ms_per_sample", "ms"),
    ("core.plan_vs_interp", "x"),
    ("core.compile_ms", "ms"),
    ("core.zoo_build_ms", "ms"),
    ("core.arena_bytes", "bytes"),
    ("core.fused_nodes", "count"),
    ("tensor.macs_per_sample", "count"),
    ("tensor.bytes_per_sample", "bytes"),
    ("tensor.gops", "GOP/s"),
    ("lint.lint_ms", "ms"),
    ("lint.certify_ms", "ms"),
];
const PER_ZOO_MODEL: [(&str, &str); 7] = [
    ("export.write_ms", "ms"),
    ("export.read_ms", "ms"),
    ("export.package_bytes", "bytes"),
    ("accel.sim_ms", "ms"),
    ("accel.cycles", "count"),
    ("accel.macs", "count"),
    ("accel.traffic_bytes", "bytes"),
];
const GLOBAL: [(&str, &str); 16] = [
    ("serve.wire_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.batches", "count"),
    ("serve.batch_rows_mean", "rows"),
    ("serve.rejected_busy", "count"),
    ("serve.deadline_exceeded", "count"),
    ("cluster.route_ms", "ms"),
    ("cluster.update_ms", "ms"),
    ("cluster.retries", "count"),
    ("cluster.hedges", "count"),
    ("cluster.hedge_useful_frac", "frac"),
    ("cluster.refused", "count"),
    ("loadgen.late_ms_max", "ms"),
    ("loadgen.late_frac", "frac"),
    ("trace.overhead_ms", "ms"),
    ("latency.unaccounted_ms", "ms"),
];

/// Every per-layer metric name with its unit, in report order.
pub fn all_metrics() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        GLOBAL.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for m in MODELS {
        for &(n, u) in &PER_MODEL {
            out.push((format!("{n}.{m}"), u));
        }
        if m != "tiny-mlp" {
            for &(n, u) in &PER_ZOO_MODEL {
                out.push((format!("{n}.{m}"), u));
            }
        }
    }
    out
}

/// Values a workload observed directly (stats deltas, exact counts),
/// keyed by full metric name, plus the batch size each model ran at.
#[derive(Debug, Default)]
pub struct Observed {
    pub values: BTreeMap<String, f64>,
    pub rows: BTreeMap<String, usize>,
}

impl Observed {
    pub fn set(&mut self, name: impl Into<String>, v: f64) {
        self.values.insert(name.into(), v);
    }
}

/// Times calls of `f` as spans: at least 3, more until ~`budget_ms` is spent.
fn repeat(tracer: &Tracer, name: &'static str, model: &str, budget_ms: f64, mut f: impl FnMut()) {
    let mut spent = 0.0;
    let mut n = 0;
    while n < 3 || (spent < budget_ms && n < 200) {
        spent += tracer.time(name, model, 0, &mut f).1;
        n += 1;
    }
}

/// The layer sweep for one admitted model at the batch size the workload
/// ran it at: compile, lint, certify, and the compiled plan against the
/// interpreter, interleaved so drift hits both alike. The plan and the
/// interpreter run on `concurrency` threads at once, as many as the
/// workload kept executing side by side, so they share the cores as the
/// serving workers did. Records spans and the exact counts (arena, fused
/// nodes, MACs and bytes from tensor sizes).
pub fn sweep(
    tracer: &Tracer,
    admitted: &AdmittedModel,
    rows: usize,
    concurrency: usize,
    seed: u64,
    obs: &mut Observed,
) {
    let tag = admitted.name();
    let model = admitted.model();
    let dims = admitted.input_dims();
    repeat(tracer, "core.IntModel::compile", tag, 20.0, || {
        std::hint::black_box(model.compile(dims).expect("compile"));
    });
    repeat(tracer, "lint.lint_model", tag, 20.0, || {
        std::hint::black_box(lint_model(model, dims, tag));
    });
    repeat(tracer, "lint.certify_model", tag, 20.0, || {
        std::hint::black_box(certify_model(model, dims, ErrorBoundConfig::default(), tag));
    });
    let plan = admitted.plan().expect("admission compiles a plan");
    let mut rng = TensorRng::seed_from(seed ^ 0x5EED);
    let x = admitted.quantize(&float_input(dims, rows, &mut rng));
    let want = model.run_quantized(&x).expect("interpreter run");
    let got = plan.run_quantized(&x, &mut Arena::new()).expect("plan run");
    assert_eq!(got.as_slice(), want.as_slice(), "plan diverges from the interpreter on {tag}");
    std::thread::scope(|scope| {
        for _ in 0..concurrency.max(1) {
            scope.spawn(|| {
                let mut arena = Arena::new();
                for _ in 0..5 {
                    repeat(tracer, "core.ExecPlan::run_quantized", tag, 40.0, || {
                        std::hint::black_box(plan.run_quantized(&x, &mut arena).expect("plan run"));
                    });
                    repeat(tracer, "core.IntModel::run_quantized", tag, 40.0, || {
                        std::hint::black_box(model.run_quantized(&x).expect("interpreter run"));
                    });
                }
            });
        }
    });
    obs.rows.insert(tag.to_string(), rows);
    obs.set(format!("core.arena_bytes.{tag}"), plan.arena_bytes() as f64);
    obs.set(format!("core.fused_nodes.{tag}"), plan.fused_nodes() as f64);
    // MACs and bytes are computed from tensor sizes by a symbolic shape
    // walk (the accelerator model's trace), not measured.
    let shape = Accelerator::new(model.clone(), AcceleratorConfig::dense16x16())
        .trace(dims)
        .expect("shape walk");
    let bytes: u64 = shape.layers.iter().map(|l| l.weight_bytes + l.activation_bytes).sum();
    obs.set(format!("tensor.macs_per_sample.{tag}"), shape.total_macs() as f64);
    obs.set(format!("tensor.bytes_per_sample.{tag}"), bytes as f64);
}

/// Which server-side span a request's queue wait is read from, and the
/// routing cost to take off it.
pub struct RequestPath {
    pub server_span: &'static str,
    pub route_ms: f64,
}

/// Prints where the traced requests' time went: the median self time of
/// each span on the request path and its share of the median request, with
/// the server-side span split into plan execution (timed in the sweep at
/// the observed batch size), routing, and the queue wait, which is the
/// server-side residual. Returns the part of the median request that these
/// medians leave unaccounted: the median request minus the sum of the
/// medians of its parts (the root span's own gaps are not a part).
fn print_breakdown(
    spans: &[Span],
    own: &std::collections::HashMap<u64, f64>,
    plan_batch: &BTreeMap<String, f64>,
    path: &RequestPath,
) -> (f64, usize) {
    let mut total: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "request")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .collect();
    let p50 = median(&mut total);
    if total.is_empty() || p50 <= 0.0 {
        return (0.0, 0);
    }
    let roots: std::collections::HashSet<u64> =
        spans.iter().filter(|s| s.name == "request").map(|s| s.id).collect();
    let mut by: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.req != 0 || roots.contains(&s.parent)) {
        if s.name == path.server_span {
            let plan = plan_batch.get(&s.model).copied().unwrap_or(0.0);
            by.entry("core.ExecPlan (modeled)").or_default().push(plan);
            by.entry("cluster.route (probe)").or_default().push(path.route_ms);
            by.entry("serve.queue_wait (rest)")
                .or_default()
                .push(own[&s.id] - plan - path.route_ms);
        } else {
            by.entry(s.name).or_default().push(own[&s.id]);
        }
    }
    println!(
        "p50 request {p50:.4} ms (n={}); median self time per span on the request path:",
        total.len()
    );
    let mut accounted = 0.0;
    for (name, mut v) in by {
        let n = v.len();
        let m = median(&mut v);
        if name != "request" {
            accounted += m;
        }
        if m != 0.0 {
            println!("  {name:<40} {m:>10.4} ms {:>6.1}% (n={n})", 100.0 * m / p50);
        }
    }
    let unaccounted = p50 - accounted;
    println!(
        "  {:<40} {unaccounted:>10.4} ms {:>6.1}%",
        "(unaccounted)",
        100.0 * unaccounted / p50
    );
    (unaccounted, total.len())
}

/// Fills `out` with every per-layer metric: span self times for timings,
/// `obs` for counts. Metrics of layers or models the workload bypasses
/// read 0.
pub fn emit(spans: &[Span], path: &RequestPath, obs: &Observed, out: &mut Report) {
    let by_name = self_times_by_name(spans);
    let med = |name: &'static str, model: &str| -> (f64, usize) {
        by_name.get(&(name, model.to_string())).map_or((0.0, 0), |v| {
            let mut v = v.clone();
            (median(&mut v), v.len())
        })
    };
    let all = |name: &'static str| -> Vec<f64> {
        by_name
            .iter()
            .filter(|((n, _), _)| *n == name)
            .flat_map(|(_, v)| v.iter().copied())
            .collect()
    };
    let mut timed: BTreeMap<String, (f64, usize)> = BTreeMap::new();

    let plan_batch: BTreeMap<String, f64> =
        MODELS.iter().map(|&m| (m.to_string(), med("core.ExecPlan::run_quantized", m).0)).collect();
    let mut wire = all("serve.TcpClient::infer");
    timed.insert("serve.wire_ms".into(), (median(&mut wire), wire.len()));
    let own = self_times(spans);
    let mut queue: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == path.server_span)
        .map(|s| own[&s.id] - plan_batch.get(&s.model).copied().unwrap_or(0.0) - path.route_ms)
        .collect();
    timed.insert("serve.queue_wait_ms".into(), (median(&mut queue), queue.len()));
    let mut upd = all("cluster.Cluster::update");
    timed.insert("cluster.update_ms".into(), (median(&mut upd), upd.len()));
    timed.insert("latency.unaccounted_ms".into(), print_breakdown(spans, &own, &plan_batch, path));

    for m in MODELS {
        let rows = obs.rows.get(m).copied().unwrap_or(1).max(1) as f64;
        let (plan, n_plan) = med("core.ExecPlan::run_quantized", m);
        let (interp, n_interp) = med("core.IntModel::run_quantized", m);
        timed.insert(format!("serve.admit_ms.{m}"), med("serve.ModelRegistry::admit", m));
        timed.insert(format!("core.plan_ms_per_sample.{m}"), (plan / rows, n_plan));
        timed.insert(format!("core.interp_ms_per_sample.{m}"), (interp / rows, n_interp));
        let ratio = if interp > 0.0 { plan / interp } else { 0.0 };
        timed.insert(format!("core.plan_vs_interp.{m}"), (ratio, n_plan.min(n_interp)));
        for (metric, span) in [
            ("core.compile_ms", "core.IntModel::compile"),
            ("core.zoo_build_ms", "core.zoo_build"),
            ("lint.lint_ms", "lint.lint_model"),
            ("lint.certify_ms", "lint.certify_model"),
            ("export.write_ms", "export.export_package"),
            ("export.read_ms", "export.read_package"),
            ("accel.sim_ms", "accel.Accelerator::verify_against"),
        ] {
            timed.insert(format!("{metric}.{m}"), med(span, m));
        }
        let macs = obs.values.get(&format!("tensor.macs_per_sample.{m}")).copied().unwrap_or(0.0);
        let gops = if plan > 0.0 { 2.0 * macs / (plan / rows * 1e-3) / 1e9 } else { 0.0 };
        timed.insert(format!("tensor.gops.{m}"), (gops, n_plan));
    }

    for (name, unit) in all_metrics() {
        let (v, n) = timed
            .get(&name)
            .copied()
            .or_else(|| obs.values.get(&name).map(|&v| (v, 1)))
            .unwrap_or((0.0, 0));
        out.put(name, v, unit, n);
    }
}
