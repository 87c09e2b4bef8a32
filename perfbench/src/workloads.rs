//! The three workloads. Each builds its system from source models, times
//! set-up, drives its load for the measured window, checks every output
//! against the interpreter oracle, and reports the end-to-end metrics (or,
//! in the traced run, the per-layer ones).

use std::path::Path;
use std::sync::Arc;

use t2c_accel::{Accelerator, AcceleratorConfig};
use t2c_cluster::{Cluster, ClusterConfig};
use t2c_core::{zoo, Arena, IntModel};
use t2c_export::{export_package, read_package, write_certified, write_intmodel};
use t2c_lint::{certify_model, lint_model, ErrorBoundConfig};
use t2c_serve::{
    AdmittedModel, Handle, InferBackend, ModelRegistry, Server, ServerConfig, StatsSnapshot,
};
use t2c_tensor::rng::TensorRng;

use crate::layers::{self, Observed, RequestPath};
use crate::report::{median, supported_tail, Report};
use crate::serving::{drive, float_input, Arrivals, Front, Load, Outcome, Pool, Traced};
use crate::trace::{Span, Tracer};

/// Open-loop rate of `mlp-tcp-open`, requests/s over all connections.
/// About half the knee of two blocking connections, each of which waits
/// out the 2 ms flush window of `ServerConfig::default()`.
pub const MLP_RATE: f64 = 400.0;
/// Latency limit of `mlp-tcp-open`: five flush windows, so that it counts
/// stalls rather than the host's ordinary wake-up jitter.
pub const MLP_LIMIT_MS: f64 = 10.0;
/// Rows per `zoo-tcp-closed` request: fills `max_batch`, so a request
/// dispatches at once and plan execution dominates.
pub const ZOO_ROWS: usize = 16;
/// Latency limit of `zoo-tcp-closed`.
pub const ZOO_LIMIT_MS: f64 = 60.0;
/// Open-loop rate of `cluster-rolling` over its one connection.
pub const CLUSTER_RATE: f64 = 200.0;
/// Latency limit of `cluster-rolling`.
pub const CLUSTER_LIMIT_MS: f64 = 10.0;
/// Set-ups per run: about 0.2 s (MLP), 0.8 s (cluster) and 2 s (zoo) of
/// set-up in all, so that a run's median does not follow one of the
/// host's sub-second speed swings.
const MLP_SETUPS: usize = 201;
const ZOO_SETUPS: usize = 9;
const CLUSTER_SETUPS: usize = 61;

/// Run-wide settings.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub conns: usize,
    pub tracer: Arc<Tracer>,
    /// Scratch directory for exported packages and the span file.
    pub out_dir: std::path::PathBuf,
}

/// A workload's result: end-to-end and per-layer reports.
pub struct Outcomes {
    pub e2e: Report,
    pub layers: Report,
}

fn sample_seed(seed: u64, tag: &str) -> u64 {
    tag.bytes().fold(seed.wrapping_mul(0x0100_0000_01B3) ^ 0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

/// Set-ups timed before the window, out of `reps`; the rest are timed after
/// it, so that the median of a run samples the host at both of its ends.
fn setups_before(reps: usize) -> usize {
    reps.div_ceil(2)
}

/// Times `reps` set-ups with `f` (which returns the built system), appending
/// each time to `times`, and keeps the last. With `from_start`, the first
/// set-up is timed from process start.
fn setup<S>(
    ctx: &Ctx,
    reps: usize,
    from_start: bool,
    mut f: impl FnMut(u64) -> S,
    mut teardown: impl FnMut(S),
    times: &mut Vec<f64>,
) -> S {
    let mut kept = None;
    for r in 0..reps {
        let start_ns = if r == 0 && from_start { 0 } else { ctx.tracer.now_ns() };
        let id = ctx.tracer.next_id();
        let sys = f(id);
        let end_ns = ctx.tracer.now_ns();
        ctx.tracer.record(Span {
            id,
            parent: 0,
            req: 0,
            name: "setup",
            model: String::new(),
            start_ns,
            end_ns,
        });
        times.push((end_ns - start_ns) as f64 / 1e9);
        if let Some(old) = kept.replace(sys) {
            teardown(old);
        }
    }
    kept.expect("at least one set-up")
}

/// Builds a zoo model, timed as `core.zoo_build`.
fn build(ctx: &Ctx, tag: &str, parent: u64) -> (IntModel, Vec<usize>) {
    let f = match tag {
        "tiny-mlp" => zoo::tiny_mlp,
        "mobilenet-ptq" => zoo::mobilenet_ptq,
        "resnet-qat" => zoo::resnet_qat,
        "vit-ptq" => zoo::vit_ptq,
        _ => unreachable!("unknown model {tag}"),
    };
    ctx.tracer.time("core.zoo_build", tag, parent, f).0
}

/// Aggregated end-to-end numbers of a request window.
struct Window {
    attempted: u64,
    p50_ms: f64,
    n_ok: usize,
    tail: Option<(&'static str, f64)>,
    slo_frac: f64,
    samples_s: f64,
    late_ms_max: f64,
    late_frac: f64,
    backlog: bool,
}

fn window(outs: &[&Outcome], limit_ms: f64, start_ns: u64, open: bool) -> Window {
    let attempted = outs.len() as u64;
    let ok: Vec<&&Outcome> = outs.iter().filter(|o| o.ok).collect();
    let mut lat: Vec<f64> = ok.iter().map(|o| o.latency_ms()).collect();
    let within = lat.iter().filter(|&&l| l <= limit_ms).count();
    let rows: usize = ok.iter().map(|o| o.rows).sum();
    let last = outs.iter().map(|o| o.done_ns).max().unwrap_or(start_ns);
    // Completions over the time from the window's start to the last one.
    let span_s = (last.max(start_ns + 1) - start_ns) as f64 / 1e9;
    let mut by_due: Vec<&&Outcome> = outs.iter().collect();
    by_due.sort_by_key(|o| o.due_ns);
    // A growing backlog: the generator is still far behind schedule at the
    // end of the window, so requests were not sent when due.
    let tail_n = (by_due.len() / 10).max(1);
    let mut tail_late: Vec<f64> = by_due.iter().rev().take(tail_n).map(|o| o.late_ms()).collect();
    let backlog = open && median(&mut tail_late) > 50.0;
    Window {
        attempted,
        p50_ms: median(&mut lat.clone()),
        n_ok: ok.len(),
        tail: supported_tail(&mut lat),
        slo_frac: within as f64 / attempted.max(1) as f64,
        samples_s: rows as f64 / span_s,
        late_ms_max: outs.iter().map(|o| o.late_ms()).fold(0.0, f64::max),
        late_frac: outs.iter().filter(|o| o.late_ms() > 1.0).count() as f64
            / attempted.max(1) as f64,
        backlog,
    }
}

/// Reports the end-to-end metrics of the untraced window, or (traced run)
/// fills the loadgen and tracing-overhead layer values from both halves.
fn finish_window(
    ctx: &Ctx,
    outs: &[Outcome],
    limit_ms: f64,
    load: (u64, u64),
    open: bool,
    e2e: &mut Report,
    obs: &mut Observed,
) -> Window {
    let (start_ns, mid_ns) = load;
    let plain: Vec<&Outcome> = outs.iter().filter(|o| !o.traced).collect();
    let w = window(&plain, limit_ms, start_ns, open);
    if ctx.trace {
        let traced: Vec<&Outcome> = outs.iter().filter(|o| o.traced).collect();
        let t = window(&traced, limit_ms, mid_ns, open);
        obs.set("trace.overhead_ms", t.p50_ms - w.p50_ms);
        obs.set("loadgen.late_ms_max", t.late_ms_max);
        obs.set("loadgen.late_frac", t.late_frac);
        println!(
            "traced half: p50 {:.4} ms (n={}), untraced half: p50 {:.4} ms (n={})",
            t.p50_ms, t.n_ok, w.p50_ms, w.n_ok
        );
    }
    // Every response of both halves was checked against the oracle.
    e2e.attempted += outs.len() as u64;
    e2e.failed += outs.iter().filter(|o| !o.ok).count() as u64;
    e2e.correct = e2e.failed == 0 && !outs.is_empty() && !w.backlog;
    match w.tail {
        Some((label, v)) => println!("latency {label} = {v:.4} ms (n={})", w.n_ok),
        None => println!("latency tail: fewer than 100 samples (n={})", w.n_ok),
    }
    if open {
        println!("open loop: late_ms_max {:.3}, late_frac {:.4}", w.late_ms_max, w.late_frac);
        if w.backlog {
            println!("open loop INVALID: completions fell behind the schedule (growing backlog)");
        }
    }
    w
}

/// `peak_rss_mb` is read before the set-ups after the window, which build
/// a second system beside the first one's leftovers.
fn put_e2e(e2e: &mut Report, w: &Window, setup: &[f64], peak_rss_mb: f64) {
    let ms: Vec<String> = setup.iter().map(|t| format!("{:.1}", t * 1e3)).collect();
    println!("set-ups (ms, in order): {}", ms.join(" "));
    let mut s = setup.to_vec();
    e2e.put("setup_s", median(&mut s), "s", s.len());
    e2e.put("latency_p50_ms", w.p50_ms, "ms", w.n_ok);
    e2e.put("slo_frac", w.slo_frac, "frac", w.attempted as usize);
    e2e.put("throughput_samples_s", w.samples_s, "1/s", w.n_ok);
    let ops = e2e.attempted.max(1);
    e2e.put("success_frac", (ops - e2e.failed) as f64 / ops as f64, "frac", ops as usize);
    e2e.put("peak_rss_mb", peak_rss_mb, "MB", 1);
}

/// Interval of the rolling updates that run beside the request load on
/// `cluster-rolling`.
pub const UPDATE_EVERY_MS: u64 = 100;

/// Drives `load` while a second thread calls `update()` every
/// [`UPDATE_EVERY_MS`] through the window, and counts the updates in the
/// run's totals. Returns the request outcomes and the successful updates.
fn drive_with_updates(
    ctx: &Ctx,
    clients: Vec<t2c_serve::TcpClient>,
    load: &Load<'_>,
    e2e: &mut Report,
    update: impl FnMut() -> bool + Send,
) -> (Vec<Outcome>, usize) {
    let mut update = update;
    let (outs, results) = std::thread::scope(|scope| {
        let updater = scope.spawn(move || {
            let mut done = Vec::new();
            for k in 1u64.. {
                let due = load.start_ns + k * UPDATE_EVERY_MS * 1_000_000;
                if due >= load.end_ns {
                    break;
                }
                let now = ctx.tracer.now_ns();
                if due > now {
                    std::thread::sleep(std::time::Duration::from_nanos(due - now));
                }
                done.push(update());
            }
            done
        });
        let outs = drive(&ctx.tracer, clients, load);
        (outs, updater.join().expect("update thread panicked"))
    });
    let ok = results.iter().filter(|&&r| r).count();
    e2e.attempted += results.len() as u64;
    e2e.failed += (results.len() - ok) as u64;
    (outs, ok)
}

/// Stats deltas of the serving runtime(s) over the window.
fn serve_deltas(obs: &mut Observed, before: &StatsSnapshot, after: &StatsSnapshot) {
    let batches = after.batches - before.batches;
    obs.set("serve.batches", batches as f64);
    obs.set(
        "serve.batch_rows_mean",
        (after.batched_rows - before.batched_rows) as f64 / batches.max(1) as f64,
    );
    obs.set("serve.rejected_busy", (after.rejected_busy - before.rejected_busy) as f64);
    obs.set("serve.deadline_exceeded", (after.deadline_exceeded - before.deadline_exceeded) as f64);
}

fn sum_stats(stats: &[(usize, StatsSnapshot)]) -> StatsSnapshot {
    let mut s = StatsSnapshot::default();
    for (_, r) in stats {
        s.batches += r.batches;
        s.batched_rows += r.batched_rows;
        s.rejected_busy += r.rejected_busy;
        s.deadline_exceeded += r.deadline_exceeded;
    }
    s
}

/// The measured window's bounds: a short lead-in, then `seconds`, split in
/// half in the traced run (untraced first half, traced second half).
fn load_bounds(ctx: &Ctx) -> (u64, u64, u64) {
    let start = ctx.tracer.now_ns() + 20_000_000;
    let len = (ctx.seconds * 1e9) as u64;
    (start, start + len / 2, start + len)
}

/// A single-server serving system: registry, runtime and TCP front-end.
struct ServeSys {
    registry: Arc<ModelRegistry>,
    /// The source models as built, before admission prepacks them.
    raw: Vec<IntModel>,
    server: Server,
    front: Front,
    clients: Vec<t2c_serve::TcpClient>,
}

fn serve_sys(ctx: &Ctx, models: &[&str], parent: u64) -> ServeSys {
    let registry = Arc::new(ModelRegistry::new());
    let mut raw = Vec::new();
    for &tag in models {
        let (model, dims) = build(ctx, tag, parent);
        raw.push(model.clone());
        ctx.tracer
            .time("serve.ModelRegistry::admit", tag, parent, || registry.admit(tag, model, &dims))
            .0
            .expect("zoo model passes admission");
    }
    let server = Server::start(Arc::clone(&registry), ServerConfig::default());
    let front = front(ctx, server.handle(), "serve.Handle::infer");
    let clients = front.connect(ctx.conns);
    ServeSys { registry, raw, server, front, clients }
}

fn front<B: InferBackend>(ctx: &Ctx, backend: B, span: &'static str) -> Front {
    if ctx.trace {
        Front::start(Arc::new(Traced { inner: backend, tracer: Arc::clone(&ctx.tracer), span }))
    } else {
        Front::start(Arc::new(backend))
    }
}

fn stop_serve(sys: ServeSys) -> StatsSnapshot {
    drop(sys.clients);
    sys.front.stop();
    sys.server.shutdown()
}

/// Shared body of the two single-server workloads. With `exports`, the
/// traced run also deploys every model through the export and accelerator
/// layers (the deploy sweep).
#[allow(clippy::too_many_arguments)]
fn serve_workload(
    ctx: &Ctx,
    models: &[&str],
    rows: usize,
    pool_size: usize,
    arrivals: Arrivals,
    limit_ms: f64,
    reps: usize,
    exports: bool,
) -> Outcomes {
    let mut make = |id| serve_sys(ctx, models, id);
    let teardown = |old| {
        stop_serve(old);
    };
    let mut setup_times = Vec::new();
    let mut sys = setup(ctx, setups_before(reps), true, &mut make, teardown, &mut setup_times);
    let pools: Vec<Pool> = models
        .iter()
        .map(|&m| {
            let admitted = sys.registry.get(m).expect("admitted");
            Pool::new(&admitted, rows, pool_size, sample_seed(ctx.seed, m))
        })
        .collect();
    let weights = vec![1u32; pools.len()];
    let handle: Handle = sys.server.handle();
    let before = handle.stats();
    let (start_ns, mid_ns, end_ns) = load_bounds(ctx);
    let load = Load {
        pools: &pools,
        weights: &weights,
        arrivals,
        seed: ctx.seed,
        start_ns,
        end_ns,
        trace_from_ns: if ctx.trace { mid_ns } else { u64::MAX },
    };
    let outs = drive(&ctx.tracer, std::mem::take(&mut sys.clients), &load);
    let after = handle.stats();
    let mut e2e = Report::default();
    let mut obs = Observed::default();
    let open = matches!(arrivals, Arrivals::Open { .. });
    let w = finish_window(ctx, &outs, limit_ms, (start_ns, mid_ns), open, &mut e2e, &mut obs);
    serve_deltas(&mut obs, &before, &after);
    let mut lay = Report::default();
    if ctx.trace {
        let b = obs.values["serve.batch_rows_mean"].round().max(1.0) as usize;
        // A closed loop keeps one request per connection executing; the
        // open loops' requests rarely overlap.
        let concurrency = if open { 1 } else { ctx.conns };
        let (mut deployed, mut deploys_failed) = (0, 0);
        for (&m, raw) in models.iter().zip(&sys.raw) {
            let admitted = sys.registry.get(m).expect("admitted");
            layers::sweep(&ctx.tracer, &admitted, b, concurrency, ctx.seed, &mut obs);
            if exports {
                let failed = deploy_sweep(ctx, raw, &admitted, &mut obs);
                deployed += DEPLOYS_PER_MODEL as u64;
                deploys_failed += failed;
            }
        }
        let spans = ctx.tracer.take();
        let path = RequestPath { server_span: "serve.Handle::infer", route_ms: 0.0 };
        layers::emit(&spans, &path, &obs, &mut lay);
        write_spans(ctx, &spans);
        lay.correct = e2e.correct && deploys_failed == 0;
        lay.attempted = e2e.attempted + deployed;
        lay.failed = e2e.failed + deploys_failed;
    }
    stop_serve(sys);
    let peak_rss_mb = crate::report::peak_rss_mb();
    let after_window = reps - setups_before(reps);
    teardown(setup(ctx, after_window, false, &mut make, teardown, &mut setup_times));
    put_e2e(&mut e2e, &w, &setup_times, peak_rss_mb);
    Outcomes { e2e, layers: lay }
}

fn write_spans(ctx: &Ctx, spans: &[Span]) {
    let path = ctx.out_dir.join(format!("spans-seed{}.json", ctx.seed));
    match crate::trace::write_json(spans, &path) {
        Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("warning: could not write spans to {}: {e}", path.display()),
    }
}

/// `mlp-tcp-open`: `tiny_mlp`, 1-row requests, open loop at [`MLP_RATE`].
pub fn mlp_tcp_open(ctx: &Ctx) -> Outcomes {
    let arrivals = Arrivals::Open { rate: MLP_RATE };
    serve_workload(ctx, &["tiny-mlp"], 1, 256, arrivals, MLP_LIMIT_MS, MLP_SETUPS, false)
}

/// `zoo-tcp-closed`: the three trained zoo models, 16-row requests, closed
/// loop. Its traced run also runs the deploy sweep, the only measurement of
/// the `export` and `accel` layers.
pub fn zoo_tcp_closed(ctx: &Ctx) -> Outcomes {
    serve_workload(
        ctx,
        &["mobilenet-ptq", "resnet-qat", "vit-ptq"],
        ZOO_ROWS,
        6,
        Arrivals::Closed,
        ZOO_LIMIT_MS,
        ZOO_SETUPS,
        true,
    )
}

/// The cluster system of `cluster-rolling`.
struct ClusterSys {
    reference: Arc<ModelRegistry>,
    cluster: Cluster,
    /// The source models, in the order of the workload's model list.
    raw: Vec<IntModel>,
    front: Front,
    clients: Vec<t2c_serve::TcpClient>,
}

fn stop_cluster(sys: ClusterSys) {
    drop(sys.clients);
    sys.front.stop();
    sys.cluster.shutdown();
}

/// `cluster-rolling`: a 2-replica cluster serving `tiny_mlp` and `vit-ptq`
/// 3:1, open loop over one connection, while a second thread rolls
/// `vit-ptq` to a new version every [`UPDATE_EVERY_MS`].
pub fn cluster_rolling(ctx: &Ctx) -> Outcomes {
    let models = ["tiny-mlp", "vit-ptq"];
    let mut make = |id| {
        let cluster = Cluster::start(ClusterConfig::default());
        // The reference registry quantizes client inputs, as a client
        // holding the model's input scale would.
        let reference = Arc::new(ModelRegistry::new());
        let mut raw = Vec::new();
        for tag in models {
            let (model, dims) = build(ctx, tag, id);
            ctx.tracer
                .time("serve.ModelRegistry::admit", tag, id, || {
                    reference.admit(tag, model.clone(), &dims)
                })
                .0
                .expect("zoo model passes admission");
            raw.push(model.clone());
            ctx.tracer
                .time("cluster.Cluster::deploy", tag, id, || cluster.deploy(tag, model, &dims))
                .0
                .expect("cluster deploy");
        }
        let front = front(ctx, cluster.clone(), "cluster.Cluster::infer");
        let clients = front.connect(1);
        ClusterSys { reference, cluster, raw, front, clients }
    };
    let mut setup_times = Vec::new();
    let mut sys =
        setup(ctx, setups_before(CLUSTER_SETUPS), true, &mut make, stop_cluster, &mut setup_times);
    let pools: Vec<Pool> = models
        .iter()
        .map(|&m| {
            let admitted = sys.reference.get(m).expect("admitted");
            Pool::new(&admitted, 1, 128, sample_seed(ctx.seed, m))
        })
        .collect();
    let weights = [3u32, 1];
    let c_before = sys.cluster.stats();
    let r_before = sum_stats(&sys.cluster.replica_stats());
    let (start_ns, mid_ns, end_ns) = load_bounds(ctx);
    let load = Load {
        pools: &pools,
        weights: &weights,
        arrivals: Arrivals::Open { rate: CLUSTER_RATE },
        seed: ctx.seed,
        start_ns,
        end_ns,
        trace_from_ns: if ctx.trace { mid_ns } else { u64::MAX },
    };
    let clients = std::mem::take(&mut sys.clients);
    let mut e2e = Report::default();
    let (outs, updated) = drive_with_updates(ctx, clients, &load, &mut e2e, || {
        ctx.tracer
            .time("cluster.Cluster::update", "vit-ptq", 0, || {
                sys.cluster.update("vit-ptq", sys.raw[1].clone())
            })
            .0
            .is_ok()
    });
    let updates_failed = e2e.failed;
    let c_after = sys.cluster.stats();
    let r_after = sum_stats(&sys.cluster.replica_stats());
    let mut obs = Observed::default();
    let w =
        finish_window(ctx, &outs, CLUSTER_LIMIT_MS, (start_ns, mid_ns), true, &mut e2e, &mut obs);
    println!("rolling updates: {updated} ok, {updates_failed} refused");
    serve_deltas(&mut obs, &r_before, &r_after);
    let hedges = c_after.hedges - c_before.hedges;
    obs.set("cluster.retries", (c_after.retries - c_before.retries) as f64);
    obs.set("cluster.hedges", hedges as f64);
    obs.set(
        "cluster.hedge_useful_frac",
        if hedges == 0 {
            0.0
        } else {
            (c_after.hedge_wins - c_before.hedge_wins) as f64 / hedges as f64
        },
    );
    // Requests refused or answered wrongly, plus refused rolling updates.
    obs.set("cluster.refused", e2e.failed as f64);
    let mut lay = Report::default();
    if ctx.trace {
        let route_ms = route_probe(ctx, &sys, &pools[0]);
        obs.set("cluster.route_ms", route_ms);
        let b = obs.values["serve.batch_rows_mean"].round().max(1.0) as usize;
        for m in models {
            let admitted = sys.reference.get(m).expect("admitted");
            layers::sweep(&ctx.tracer, &admitted, b, 1, ctx.seed, &mut obs);
        }
        let spans = ctx.tracer.take();
        let path = RequestPath { server_span: "cluster.Cluster::infer", route_ms };
        layers::emit(&spans, &path, &obs, &mut lay);
        write_spans(ctx, &spans);
        lay.correct = e2e.correct;
        lay.attempted = e2e.attempted;
        lay.failed = e2e.failed;
    }
    stop_cluster(sys);
    let peak_rss_mb = crate::report::peak_rss_mb();
    let after_window = CLUSTER_SETUPS - setups_before(CLUSTER_SETUPS);
    stop_cluster(setup(ctx, after_window, false, &mut make, stop_cluster, &mut setup_times));
    put_e2e(&mut e2e, &w, &setup_times, peak_rss_mb);
    Outcomes { e2e, layers: lay }
}

/// Routing cost: sequential `Cluster::infer` calls against the same calls
/// on a single replica-configured runtime (`ServerConfig::default()`),
/// alternated so drift hits both alike. Returns the difference of medians.
fn route_probe(ctx: &Ctx, sys: &ClusterSys, pool: &Pool) -> f64 {
    let server = Server::start(Arc::clone(&sys.reference), ServerConfig::default());
    let handle = server.handle();
    let (mut direct, mut routed) = (Vec::new(), Vec::new());
    for i in 0..150 {
        let k = i % pool.inputs.len();
        let x = &pool.inputs[k];
        let (a, ms_a) = ctx
            .tracer
            .time("probe.Handle::infer", &pool.model, 0, || handle.infer(&pool.model, x.clone()));
        let (b, ms_b) = ctx.tracer.time("probe.Cluster::infer", &pool.model, 0, || {
            sys.cluster.infer(&pool.model, x.clone())
        });
        let want = pool.expected[k].as_slice();
        assert!(
            a.is_ok_and(|t| t.as_slice() == want) && b.is_ok_and(|t| t.as_slice() == want),
            "route probe output differs from the oracle"
        );
        direct.push(ms_a);
        routed.push(ms_b);
    }
    server.shutdown();
    median(&mut routed) - median(&mut direct)
}

/// Deployments of each model in the deploy sweep.
const DEPLOYS_PER_MODEL: usize = 20;

/// The deploy sweep of one model, after the traced window:
/// [`DEPLOYS_PER_MODEL`] deployments of the source model `raw`, each
/// running lint → certify → export (with its certificate) → read_package →
/// admit_package (read, verify, lint, compile) → the admitted plan on one
/// sample → accelerator verification, with the package round trip and the
/// plan checked against the oracle. Returns the failed deployments.
///
/// The package directory is emptied before every export, so each export
/// creates new files: rewriting files in place would truncate files whose
/// blocks are already allocated, which on a filesystem mounted with online
/// discard waits for the device.
fn deploy_sweep(ctx: &Ctx, raw: &IntModel, admitted: &AdmittedModel, obs: &mut Observed) -> u64 {
    let (tag, dims) = (admitted.name(), admitted.input_dims());
    let dir = ctx.out_dir.join("packages").join(tag);
    let golden = write_intmodel(raw);
    let mut rng = TensorRng::seed_from(sample_seed(ctx.seed, tag) ^ 0xDE91_0A11);
    let x = float_input(dims, 1, &mut rng);
    let want = raw.run(&x).expect("oracle run").as_slice().to_vec();
    let (registry, mut arena) = (ModelRegistry::new(), Arena::new());
    let mut failed = 0;
    for _ in 0..DEPLOYS_PER_MODEL {
        remove_files(&dir);
        let ok =
            deploy_once(ctx, tag, raw, dims, &dir, &registry, &golden, &x, &want, &mut arena, obs);
        failed += u64::from(!ok);
    }
    remove_files(&dir);
    failed
}

/// Deletes every file under `dir`, keeping the directories.
fn remove_files(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        if entry.file_type().is_ok_and(|t| t.is_dir()) {
            remove_files(&entry.path());
        } else {
            std::fs::remove_file(entry.path()).ok();
        }
    }
}

/// One deployment of `model`; returns whether every stage passed and every
/// output matched the oracle.
#[allow(clippy::too_many_arguments)]
fn deploy_once(
    ctx: &Ctx,
    tag: &str,
    model: &IntModel,
    dims: &[usize],
    dir: &Path,
    registry: &ModelRegistry,
    golden: &[u8],
    x: &t2c_tensor::Tensor<f32>,
    want: &[i32],
    arena: &mut Arena,
    obs: &mut Observed,
) -> bool {
    let t = &ctx.tracer;
    let lint = t.time("lint.lint_model", tag, 0, || lint_model(model, dims, tag)).0;
    if lint.error_count() > 0 {
        return false;
    }
    let (cert, _) = t
        .time("lint.certify_model", tag, 0, || {
            certify_model(model, dims, ErrorBoundConfig::default(), tag)
        })
        .0;
    if !cert.certified() {
        return false;
    }
    let exported = t
        .time("export.export_package", tag, 0, || {
            let mut manifest = export_package(model, dir)?;
            write_certified(&mut manifest, cert.to_certified())?;
            Ok::<_, t2c_export::ExportError>(manifest)
        })
        .0;
    let Ok(manifest) = exported else { return false };
    obs.set(format!("export.package_bytes.{tag}"), manifest.total_bytes as f64);
    let Ok((read, _)) = t.time("export.read_package", tag, 0, || read_package(dir)).0 else {
        return false;
    };
    if write_intmodel(&read) != golden {
        return false;
    }
    let Ok(admitted) = t
        .time("serve.ModelRegistry::admit_package", tag, 0, || {
            registry.admit_package(tag, dir, dims)
        })
        .0
    else {
        return false;
    };
    let plan_ok = t
        .time("core.ExecPlan::run", tag, 0, || {
            admitted.plan().and_then(|p| p.run(x, arena).ok()).is_some_and(|y| y.as_slice() == want)
        })
        .0;
    registry.remove(tag);
    let verified = t
        .time("accel.Accelerator::verify_against", tag, 0, || {
            Accelerator::from_package(dir, AcceleratorConfig::dense16x16())
                .and_then(|acc| acc.verify_against(model, x))
        })
        .0;
    let Ok(trace) = verified else { return false };
    obs.set(format!("accel.cycles.{tag}"), trace.total_cycles() as f64);
    obs.set(format!("accel.macs.{tag}"), trace.total_macs() as f64);
    obs.set(format!("accel.traffic_bytes.{tag}"), trace.total_traffic() as f64);
    plan_ok
}
