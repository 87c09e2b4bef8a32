//! The threaded serving runtime.
//!
//! Wraps the pure [`MicroBatcher`] behind a mutex/condvar and drives it
//! with a pool of worker threads that pull batches straight from it:
//!
//! ```text
//! Handle::submit ──admit──▶ MicroBatcher (bounded queue)
//!                                │ each free worker, under the queue lock:
//!                                ▼ take_expired → next_batch (≤ max_batch rows)
//!                                │ lock dropped
//!                                ▼ concat_axis0 → ExecPlan::run_quantized → split_axis0
//!                        completion slots (per request)
//! ```
//!
//! A batch is cut only when a worker is free to run it, so under load
//! batches fill from the backlog, and a request that finds an idle worker
//! dispatches at once.
//!
//! Robustness policy:
//! * **Backpressure** — the admission queue is bounded; a full queue
//!   rejects with [`ServeError::Busy`] instead of buffering unboundedly.
//! * **Deadlines** — requests carry an absolute expiry; a worker expires
//!   overdue tickets before cutting a batch and re-checks before running.
//! * **Panic isolation** — worker inference runs under `catch_unwind`; a
//!   panic fails only the affected batch, and a per-model circuit breaker
//!   quarantines a model after `max_panics` panics
//!   ([`ServeError::ModelPoisoned`]).
//! * **Graceful drain** — shutdown stops admission, flushes the queue in
//!   FIFO order, and joins every worker; all in-flight requests resolve.
//!
//! Observability (active under `T2C_PROFILE=1`): `serve.queue_depth`
//! gauge, `serve.batch_rows` and `serve.latency_ns` histograms,
//! `serve.rejected_busy` / `serve.deadline_exceeded` /
//! `serve.worker_panics` / `serve.audit_runs` /
//! `serve.audit_certificate_violations` counters and the per-model
//! `serve.<name>.dualpath_max_err` audit and
//! `serve.<name>.cert_violation_steps` canary gauges. A small always-on
//! [`StatsSnapshot`] backs the load generator.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use t2c_core::Arena;
use t2c_obs::SampledAudit;
use t2c_tensor::Tensor;

use crate::batcher::{MicroBatcher, Ticket, NO_DEADLINE};
use crate::clock::{Clock, SystemClock};
use crate::error::ServeError;
use crate::registry::{AdmittedModel, ModelRegistry};

/// Runtime policy knobs on top of the batcher's [`crate::BatchConfig`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Micro-batching policy (batch size, queue bound).
    pub batch: crate::batcher::BatchConfig,
    /// Worker threads executing batches (min 1).
    pub workers: usize,
    /// Worker panics a model survives before the circuit breaker
    /// quarantines it.
    pub max_panics: u32,
    /// Dual-path audit sampling period: every Nth completed request is
    /// re-run from its de-quantized input through the interpreter and
    /// compared (0 = audit off).
    pub audit_every: u64,
    /// Circuit-breaker cooldown: how long a poisoned model stays open
    /// before the breaker goes half-open and admits a single recovery
    /// probe. `0` (the default) never recovers — the pre-cooldown
    /// quarantine-forever contract.
    pub breaker_cooldown_ns: u64,
    /// Minimum wall-clock service time per dispatched batch, emulating a
    /// fixed-rate attached accelerator (the device the toolkit's export
    /// path targets): after host compute finishes, the worker holds the
    /// batch until the pace window elapses. `0` (the default) disables
    /// pacing. The cluster bench uses this to model device-bound
    /// replicas, where scale-out multiplies throughput even when the
    /// replicas share host cores.
    pub pace_batch_ns: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            batch: crate::batcher::BatchConfig::default(),
            workers: 2,
            max_panics: 3,
            audit_every: 0,
            breaker_cooldown_ns: 0,
            pace_batch_ns: 0,
        }
    }
}

/// One request's completion slot: fulfilled exactly once by a worker
/// (expiry or result), awaited by the requester.
#[derive(Debug, Default)]
struct Pending {
    cell: Mutex<Option<Result<Tensor<i32>, ServeError>>>,
    cv: Condvar,
}

impl Pending {
    fn fulfill(&self, result: Result<Tensor<i32>, ServeError>) {
        let mut cell = self.cell.lock().unwrap_or_else(PoisonError::into_inner);
        if cell.is_none() {
            *cell = Some(result);
            self.cv.notify_all();
        }
    }

    fn wait(&self) -> Result<Tensor<i32>, ServeError> {
        let mut cell = self.cell.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(result) = cell.take() {
                return result;
            }
            cell = self.cv.wait(cell).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn wait_timeout(&self, dur: Duration) -> Option<Result<Tensor<i32>, ServeError>> {
        let deadline = std::time::Instant::now() + dur;
        let mut cell = self.cell.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(result) = cell.take() {
                return Some(result);
            }
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                return None;
            }
            let (guard, timeout) =
                self.cv.wait_timeout(cell, left).unwrap_or_else(PoisonError::into_inner);
            cell = guard;
            if timeout.timed_out() {
                return cell.take();
            }
        }
    }
}

/// Handle to an in-flight request returned by [`Handle::submit`].
#[derive(Debug)]
pub struct PendingResponse {
    inner: Arc<Pending>,
}

impl PendingResponse {
    /// Blocks until the request resolves (result, rejection or expiry).
    ///
    /// # Errors
    ///
    /// Whatever the server resolved the request to — see [`ServeError`].
    pub fn wait(self) -> Result<Tensor<i32>, ServeError> {
        self.inner.wait()
    }

    /// Polls for the result for up to `dur` without consuming the handle:
    /// `None` means the request is still in flight and a later call can
    /// still win. The cluster's hedging path uses this to race two
    /// in-flight attempts and take whichever resolves first.
    pub fn wait_timeout(&self, dur: Duration) -> Option<Result<Tensor<i32>, ServeError>> {
        self.inner.wait_timeout(dur)
    }
}

/// A queued unit of work (the batcher ticket payload).
struct Job {
    model: Arc<AdmittedModel>,
    input: Tensor<i32>,
    pending: Arc<Pending>,
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Job({}, rows={})", self.model.name(), self.input.dims()[0])
    }
}

/// Always-on runtime counters (independent of `T2C_PROFILE`).
#[derive(Debug, Default)]
struct ServeStats {
    completed: AtomicU64,
    rejected_busy: AtomicU64,
    deadline_exceeded: AtomicU64,
    panics: AtomicU64,
    batches: AtomicU64,
    batched_rows: AtomicU64,
    audits: AtomicU64,
    audits_invalid: AtomicU64,
    max_audit_divergence_bits: AtomicU64,
}

impl ServeStats {
    fn note_audit(&self, divergence: f64) {
        // A NaN or infinite divergence is an audit-path fault, not a
        // measurement: folding it into the running maximum would either
        // vanish (NaN bit patterns compare arbitrarily) or permanently
        // poison the gauge. Count it separately and keep the maximum
        // meaningful.
        if !divergence.is_finite() {
            self.audits_invalid.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.audits.fetch_add(1, Ordering::Relaxed);
        // Non-negative f64 bit patterns order like the floats themselves.
        let bits = divergence.max(0.0).to_bits();
        self.max_audit_divergence_bits.fetch_max(bits, Ordering::Relaxed);
    }
}

/// A point-in-time copy of the runtime counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct StatsSnapshot {
    /// Requests resolved with a result.
    pub completed: u64,
    /// Admissions rejected with [`ServeError::Busy`].
    pub rejected_busy: u64,
    /// Requests expired before execution.
    pub deadline_exceeded: u64,
    /// Isolated worker panics.
    pub panics: u64,
    /// Batches dispatched to workers.
    pub batches: u64,
    /// Total rows across dispatched batches.
    pub batched_rows: u64,
    /// Dual-path audits performed.
    pub audits: u64,
    /// Audit measurements rejected for being non-finite (NaN/∞) — an
    /// audit-path fault rather than a divergence observation.
    pub audits_invalid: u64,
    /// Worst normalized plan-vs-interpreter divergence seen by the audit.
    pub max_audit_divergence: f64,
    /// Requests sitting in the admission queue at snapshot time.
    pub queue_depth: u64,
}

impl StatsSnapshot {
    /// Average rows per dispatched batch (0 when nothing ran).
    pub fn mean_batch_rows(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_rows as f64 / self.batches as f64
        }
    }
}

struct Shared {
    registry: Arc<ModelRegistry>,
    cfg: ServerConfig,
    clock: Arc<dyn Clock>,
    queue: Mutex<MicroBatcher<Job>>,
    wakeup: Condvar,
    stop: AtomicBool,
    stats: ServeStats,
    audit: SampledAudit,
}

/// Cloneable submission handle — the in-process client.
#[derive(Clone)]
pub struct Handle {
    shared: Arc<Shared>,
}

impl Handle {
    /// Names of the admitted models.
    pub fn models(&self) -> Vec<String> {
        self.shared.registry.names()
    }

    /// Submits a request without a deadline; returns immediately with a
    /// completion handle.
    ///
    /// # Errors
    ///
    /// Synchronous rejections: [`ServeError::ModelNotFound`],
    /// [`ServeError::ModelPoisoned`], [`ServeError::BadRequest`] (shape),
    /// [`ServeError::Busy`] (backpressure), [`ServeError::ShuttingDown`].
    pub fn submit(&self, model: &str, input: Tensor<i32>) -> Result<PendingResponse, ServeError> {
        self.submit_inner(model, input, NO_DEADLINE)
    }

    /// Submits with an explicit deadline budget from now.
    ///
    /// # Errors
    ///
    /// As [`Self::submit`].
    pub fn submit_within(
        &self,
        model: &str,
        input: Tensor<i32>,
        budget_ns: u64,
    ) -> Result<PendingResponse, ServeError> {
        let deadline = self.shared.clock.now_ns().saturating_add(budget_ns);
        self.submit_inner(model, input, deadline)
    }

    /// Blocking convenience: submit + wait.
    ///
    /// # Errors
    ///
    /// Synchronous rejections plus anything the request resolved to
    /// ([`ServeError::DeadlineExceeded`], [`ServeError::Internal`], …).
    pub fn infer(&self, model: &str, input: Tensor<i32>) -> Result<Tensor<i32>, ServeError> {
        self.submit(model, input)?.wait()
    }

    /// Current runtime counters — the same snapshot as
    /// [`Server::stats`], reachable from the cloneable handle so the
    /// cluster's health monitor can poll replicas it doesn't own.
    pub fn stats(&self) -> StatsSnapshot {
        snapshot(&self.shared)
    }

    /// Blocking convenience with a deadline budget.
    ///
    /// # Errors
    ///
    /// As [`Self::infer`].
    pub fn infer_within(
        &self,
        model: &str,
        input: Tensor<i32>,
        budget_ns: u64,
    ) -> Result<Tensor<i32>, ServeError> {
        self.submit_within(model, input, budget_ns)?.wait()
    }

    fn submit_inner(
        &self,
        model: &str,
        input: Tensor<i32>,
        deadline_ns: u64,
    ) -> Result<PendingResponse, ServeError> {
        let shared = &self.shared;
        let admitted = shared
            .registry
            .get(model)
            .ok_or_else(|| ServeError::ModelNotFound(model.to_string()))?;
        // Breaker gate: closed admits, open rejects, and once the cooldown
        // elapses a single request slips through as the recovery probe.
        let decision =
            admitted.breaker_admit(shared.clock.now_ns(), shared.cfg.breaker_cooldown_ns);
        if decision == crate::registry::BreakerDecision::Reject {
            return Err(ServeError::ModelPoisoned(admitted.name().to_string()));
        }
        let want = admitted.input_dims();
        let got = input.dims();
        if got.len() != want.len() || got[1..] != want[1..] || got[0] == 0 {
            return Err(ServeError::BadRequest(format!(
                "input dims {got:?} incompatible with model '{model}' sample dims {want:?} \
                 (batch axis 0 may vary, must be ≥ 1)"
            )));
        }
        let rows = got[0];
        let pending = Arc::new(Pending::default());
        let job = Job { model: Arc::clone(&admitted), input, pending: Arc::clone(&pending) };
        let now = shared.clock.now_ns();
        let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
        let was_empty = queue.is_empty();
        match queue.admit(job, admitted.group(), rows, now, deadline_ns) {
            Ok(()) => {
                t2c_obs::gauge_set("serve.queue_depth", queue.len() as f64);
                // Wakeup coalescing: workers sleep only on an empty queue,
                // so admission into one must wake a worker. A group that
                // just filled a batch wakes one more, so a second idle
                // worker can start before the first has cut its batch; any
                // other admission joins a queue that a worker already
                // answers for (see `worker_loop`).
                let batch_full = queue.group_rows(admitted.group()) >= shared.cfg.batch.max_batch;
                drop(queue);
                if was_empty || batch_full {
                    shared.wakeup.notify_one();
                }
                Ok(PendingResponse { inner: pending })
            }
            Err(e) => {
                drop(queue);
                match e {
                    ServeError::Busy => {
                        shared.stats.rejected_busy.fetch_add(1, Ordering::Relaxed);
                        t2c_obs::counter_add("serve.rejected_busy", 1);
                    }
                    // Expired on arrival: counted with the queue-side
                    // expiries so the deadline stat covers every path a
                    // request can miss its budget on.
                    ServeError::DeadlineExceeded => {
                        shared.stats.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                        t2c_obs::counter_add("serve.deadline_exceeded", 1);
                    }
                    _ => {}
                }
                Err(e)
            }
        }
    }
}

/// The serving runtime: owns the worker pool.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts the runtime over an admitted-model registry with the
    /// production clock.
    pub fn start(registry: Arc<ModelRegistry>, cfg: ServerConfig) -> Self {
        Self::start_with_clock(registry, cfg, Arc::new(SystemClock::new()))
    }

    /// Starts the runtime with an injected clock (tests use
    /// [`crate::FakeClock`] for deterministic deadline behavior).
    ///
    /// # Panics
    ///
    /// Panics if the OS refuses to spawn the worker threads.
    pub fn start_with_clock(
        registry: Arc<ModelRegistry>,
        cfg: ServerConfig,
        clock: Arc<dyn Clock>,
    ) -> Self {
        let workers = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            registry,
            cfg,
            clock,
            queue: Mutex::new(MicroBatcher::new(cfg.batch)),
            wakeup: Condvar::new(),
            stop: AtomicBool::new(false),
            stats: ServeStats::default(),
            audit: SampledAudit::new(cfg.audit_every),
        });
        let pool = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("t2c-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        Server { shared, workers: pool }
    }

    /// An in-process submission handle (cloneable, thread-safe).
    pub fn handle(&self) -> Handle {
        Handle { shared: Arc::clone(&self.shared) }
    }

    /// The registry the server hosts.
    pub fn registry(&self) -> Arc<ModelRegistry> {
        Arc::clone(&self.shared.registry)
    }

    /// Current runtime counters.
    pub fn stats(&self) -> StatsSnapshot {
        snapshot(&self.shared)
    }

    /// Graceful drain: stops admission, flushes every queued request in
    /// FIFO order, joins the worker threads, and returns
    /// the final counters. All in-flight requests resolve before this
    /// returns.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.shutdown_inner();
        self.stats()
    }

    fn shutdown_inner(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        {
            let mut queue = self.shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            queue.start_drain();
        }
        self.shared.wakeup.notify_all();
        for w in self.workers.drain(..) {
            w.join().ok();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.shutdown_inner();
        }
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("models", &self.shared.registry.names())
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

fn snapshot(shared: &Shared) -> StatsSnapshot {
    let s = &shared.stats;
    let queue_depth = {
        let queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
        queue.len() as u64
    };
    StatsSnapshot {
        completed: s.completed.load(Ordering::Relaxed),
        rejected_busy: s.rejected_busy.load(Ordering::Relaxed),
        deadline_exceeded: s.deadline_exceeded.load(Ordering::Relaxed),
        panics: s.panics.load(Ordering::Relaxed),
        batches: s.batches.load(Ordering::Relaxed),
        batched_rows: s.batched_rows.load(Ordering::Relaxed),
        audits: s.audits.load(Ordering::Relaxed),
        audits_invalid: s.audits_invalid.load(Ordering::Relaxed),
        max_audit_divergence: f64::from_bits(s.max_audit_divergence_bits.load(Ordering::Relaxed)),
        queue_depth,
    }
}

/// One worker: cut the next batch under the queue lock, run it with the
/// lock dropped, repeat.
///
/// Wakeup invariant: a worker sleeps only when the queue is empty, and
/// every transition that makes work available notifies (admission into an
/// empty queue or filling a group, a dispatch that leaves work behind, the
/// start of drain). A non-empty queue thus always has a worker running a
/// batch, which polls the queue again before it sleeps, or one that was
/// notified and has yet to take the lock.
fn worker_loop(shared: &Arc<Shared>) {
    // One scratch arena per worker: compiled plans execute inside it,
    // growing it monotonically to the largest model × batch seen. Reusing
    // it across batches keeps plan inference free of steady-state heap
    // allocations.
    let mut arena = Arena::new();
    let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
    loop {
        let now = shared.clock.now_ns();
        for ticket in queue.take_expired(now) {
            shared.stats.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
            t2c_obs::counter_add("serve.deadline_exceeded", 1);
            ticket.payload.pending.fulfill(Err(ServeError::DeadlineExceeded));
        }
        if let Some(batch) = queue.next_batch() {
            t2c_obs::gauge_set("serve.queue_depth", queue.len() as f64);
            let more = !queue.is_empty();
            drop(queue);
            if more {
                shared.wakeup.notify_one();
            }
            process_batch(shared, batch, &mut arena);
            queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
        } else if shared.stop.load(Ordering::Acquire) {
            break;
        } else {
            queue = shared.wakeup.wait(queue).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn process_batch(shared: &Arc<Shared>, tickets: Vec<Ticket<Job>>, arena: &mut Arena) {
    let now = shared.clock.now_ns();
    // Last-chance expiry: the clock is read again here, after the queue
    // lock was dropped, so a ticket that expired in between never runs.
    let mut live = Vec::with_capacity(tickets.len());
    for ticket in tickets {
        if ticket.deadline_ns <= now {
            shared.stats.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
            t2c_obs::counter_add("serve.deadline_exceeded", 1);
            ticket.payload.pending.fulfill(Err(ServeError::DeadlineExceeded));
        } else {
            live.push(ticket);
        }
    }
    let Some(first) = live.first() else {
        return;
    };
    let model = Arc::clone(&first.payload.model);
    let rows: usize = live.iter().map(|t| t.rows).sum();
    shared.stats.batches.fetch_add(1, Ordering::Relaxed);
    shared.stats.batched_rows.fetch_add(rows as u64, Ordering::Relaxed);
    t2c_obs::record("serve.batch_rows", rows as f64);

    let fail_all = |live: Vec<Ticket<Job>>, err: ServeError| {
        for ticket in live {
            ticket.payload.pending.fulfill(Err(err.clone()));
        }
    };
    // A fully-open breaker fails queued batches without running them; a
    // half-open one lets the batch through — that batch *is* the recovery
    // probe, and its outcome decides whether the breaker closes.
    if model.breaker_is_open() {
        fail_all(live, ServeError::ModelPoisoned(model.name().to_string()));
        return;
    }
    let inputs: Vec<&Tensor<i32>> = live.iter().map(|t| &t.payload.input).collect();
    let joined = if inputs.len() == 1 {
        inputs[0].clone()
    } else {
        match Tensor::concat_axis0(&inputs) {
            Ok(j) => j,
            Err(e) => {
                fail_all(live, ServeError::Internal(format!("batch concat failed: {e}")));
                return;
            }
        }
    };
    // Every admitted model runs its compiled execution plan inside the
    // worker's arena (fused epilogues, zero steady-state allocations,
    // bit-identical to the interpreter).
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
        #[cfg(test)]
        {
            tests::inject_fault(model.name(), &joined);
            tests::hold(model.name());
        }
        model.plan.run_quantized(&joined, arena)
    }));
    match outcome {
        Err(payload) => {
            shared.stats.panics.fetch_add(1, Ordering::Relaxed);
            t2c_obs::counter_add("serve.worker_panics", 1);
            let count = model.record_panic(shared.cfg.max_panics, shared.clock.now_ns());
            if model.is_poisoned() {
                t2c_obs::counter_add("serve.models_poisoned", 1);
            }
            let what = panic_message(payload.as_ref());
            fail_all(
                live,
                ServeError::Internal(format!(
                    "inference panicked ({what}); model '{}' panic {count}/{}",
                    model.name(),
                    shared.cfg.max_panics
                )),
            );
        }
        Ok(Err(e)) => {
            fail_all(live, ServeError::Internal(format!("model error: {e}")));
        }
        Ok(Ok(output)) => {
            model.breaker_on_success();
            // Device pacing: hold the batch until the configured per-batch
            // service window elapses, emulating a fixed-rate attached
            // accelerator (see `ServerConfig::pace_batch_ns`).
            if shared.cfg.pace_batch_ns > 0 {
                let elapsed = shared.clock.now_ns().saturating_sub(now);
                if elapsed < shared.cfg.pace_batch_ns {
                    std::thread::sleep(Duration::from_nanos(shared.cfg.pace_batch_ns - elapsed));
                }
            }
            let sizes: Vec<usize> = live.iter().map(|t| t.rows).collect();
            match output.split_axis0(&sizes) {
                Err(e) => {
                    fail_all(live, ServeError::Internal(format!("batch output split failed: {e}")));
                }
                Ok(parts) => {
                    let done = shared.clock.now_ns();
                    for (ticket, part) in live.into_iter().zip(parts) {
                        let latency = done.saturating_sub(ticket.enqueued_ns);
                        t2c_obs::record("serve.latency_ns", latency as f64);
                        shared.stats.completed.fetch_add(1, Ordering::Relaxed);
                        if shared.cfg.audit_every > 0 && shared.audit.should_sample() {
                            audit_request(shared, &model, &ticket.payload.input, &part);
                        }
                        ticket.payload.pending.fulfill(Ok(part));
                    }
                }
            }
        }
    }
}

/// Dual-path divergence audit: de-quantizes the sampled request's integer
/// codes and re-runs them through `IntModel::run`, which requantizes them
/// and executes the same integer graph in the reference interpreter,
/// unbatched. It compares the result against the rows the batched
/// compiled plan produced. Any divergence is a plan, batching-invariance
/// or quantize-path fault; the worst normalized error lands in the
/// `serve.<model>.dualpath_max_err` gauge and the stats snapshot.
///
/// Both sides are integer paths, so the audit does not measure
/// quantization error. It compares the plan↔interpreter divergence (in
/// final code units) against the static error certificate the model was
/// admitted under (DESIGN.md §6.11): divergence beyond the certified
/// bound fires `serve.audit_certificate_violations` and the
/// `serve.<model>.cert_violation_steps` gauge. The plan and the
/// interpreter are bit-identical, so a violation means a plan or kernel
/// fault; it does not test whether the certificate bounds the float
/// reference.
fn audit_request(
    shared: &Arc<Shared>,
    model: &Arc<AdmittedModel>,
    codes: &Tensor<i32>,
    served: &Tensor<i32>,
) {
    t2c_obs::counter_add("serve.audit_runs", 1);
    let float_input = model.dequantize(codes);
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| model.model().run(&float_input)));
    let Ok(Ok(reference)) = outcome else {
        // The interpreter failing where the plan succeeded is itself
        // maximal divergence.
        shared.stats.note_audit(1.0);
        t2c_obs::counter_add("serve.audit_divergences", 1);
        t2c_obs::gauge_set(&format!("serve.{}.dualpath_max_err", model.name()), 1.0);
        return;
    };
    let divergence = if reference.dims() == served.dims() {
        let denom = reference.as_slice().iter().fold(1.0f64, |m, &v| m.max(f64::from(v).abs()));
        let abs_div = reference
            .as_slice()
            .iter()
            .zip(served.as_slice())
            .fold(0.0f64, |m, (&a, &b)| m.max((f64::from(a) - f64::from(b)).abs()));
        if let Some(bound) = model.certified_error_steps() {
            if abs_div > bound {
                t2c_obs::counter_add("serve.audit_certificate_violations", 1);
                t2c_obs::gauge_set(
                    &format!("serve.{}.cert_violation_steps", model.name()),
                    abs_div - bound,
                );
            }
        }
        abs_div / denom
    } else {
        1.0
    };
    shared.stats.note_audit(divergence);
    if divergence > 0.0 {
        t2c_obs::counter_add("serve.audit_divergences", 1);
    }
    t2c_obs::gauge_set(&format!("serve.{}.dualpath_max_err", model.name()), divergence);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::BatchConfig;
    use crate::clock::FakeClock;
    use t2c_core::intmodel::{IntOp, Src};
    use t2c_core::lut::GeluLut;
    use t2c_core::zoo;
    use t2c_core::QuantSpec;

    fn mlp_registry() -> (Arc<ModelRegistry>, Arc<crate::registry::AdmittedModel>) {
        let reg = Arc::new(ModelRegistry::new());
        let (m, dims) = zoo::tiny_mlp();
        let admitted = reg.admit("mlp", m, &dims).expect("tiny_mlp passes the gate");
        (reg, admitted)
    }

    fn codes_for(
        admitted: &crate::registry::AdmittedModel,
        rows: usize,
        salt: usize,
    ) -> Tensor<i32> {
        let mut dims = admitted.input_dims().to_vec();
        dims[0] = rows;
        let x = Tensor::from_fn(&dims, |i| ((i * 31 + salt * 17) % 100) as f32 * 0.01 - 0.5);
        admitted.quantize(&x)
    }

    /// Models named with this prefix block inside the worker until the
    /// test releases them by name (see [`Held`]), which keeps a worker
    /// busy for exactly as long as a test needs queued work to stay put.
    /// Each test holds its own name, so tests running in parallel never
    /// release each other.
    const HELD: &str = "held";

    /// Held model names: `false` while a worker is blocked on the name,
    /// `true` once released.
    static HOLDS: Mutex<Vec<(String, bool)>> = Mutex::new(Vec::new());
    static HOLDS_CHANGED: Condvar = Condvar::new();

    pub(super) fn hold(model: &str) {
        if !model.starts_with(HELD) {
            return;
        }
        let mut holds = HOLDS.lock().unwrap_or_else(PoisonError::into_inner);
        if !holds.iter().any(|(m, _)| m == model) {
            holds.push((model.to_string(), false));
            HOLDS_CHANGED.notify_all();
        }
        while !holds.iter().any(|(m, released)| m == model && *released) {
            holds = HOLDS_CHANGED.wait(holds).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// A worker blocked by [`hold_the_worker`]. Dropping it releases the
    /// worker too, so a failing assertion cannot leave the server's
    /// shutdown waiting on it forever.
    struct Held(String);

    impl Held {
        /// Lets the held worker finish its batch.
        fn release(&self) {
            let mut holds = HOLDS.lock().unwrap_or_else(PoisonError::into_inner);
            for (m, released) in holds.iter_mut() {
                *released |= *m == self.0;
            }
            HOLDS_CHANGED.notify_all();
        }
    }

    impl Drop for Held {
        fn drop(&mut self) {
            self.release();
        }
    }

    /// Submits one request to a fresh `held-<tag>` copy of the MLP and
    /// returns once the server's only worker is blocked running it.
    fn hold_the_worker(reg: &ModelRegistry, handle: &Handle, tag: &str) -> (Held, PendingResponse) {
        let name = format!("{HELD}-{tag}");
        let (m, dims) = zoo::tiny_mlp();
        let admitted = reg.admit(&name, m, &dims).expect("tiny_mlp passes the gate");
        let pending = handle.submit(&name, codes_for(&admitted, 1, 0)).unwrap();
        let mut holds = HOLDS.lock().unwrap_or_else(PoisonError::into_inner);
        while !holds.iter().any(|(m, _)| *m == name) {
            holds = HOLDS_CHANGED.wait(holds).unwrap_or_else(PoisonError::into_inner);
        }
        (Held(name), pending)
    }

    #[test]
    fn served_results_match_direct_execution_under_concurrency() {
        let (reg, admitted) = mlp_registry();
        let cfg = ServerConfig {
            batch: BatchConfig { max_batch: 8, queue_cap: 256 },
            workers: 3,
            ..ServerConfig::default()
        };
        let server = Server::start(Arc::clone(&reg), cfg);
        let handle = server.handle();
        std::thread::scope(|scope| {
            for t in 0..8 {
                let handle = handle.clone();
                let admitted = &admitted;
                scope.spawn(move || {
                    for r in 0..4 {
                        let codes = codes_for(admitted, 1 + (t + r) % 3, t * 100 + r);
                        let want = admitted.model().run_quantized(&codes).unwrap();
                        let got = handle.infer("mlp", codes).unwrap();
                        assert_eq!(got.as_slice(), want.as_slice(), "thread {t} req {r}");
                    }
                });
            }
        });
        let stats = server.shutdown();
        assert_eq!(stats.completed, 32);
        assert_eq!(stats.panics, 0);
        assert_eq!(stats.deadline_exceeded, 0);
    }

    #[test]
    fn saturation_rejects_busy_and_drain_still_resolves_queued_work() {
        let (reg, admitted) = mlp_registry();
        // The only worker is held, so the queue fills deterministically.
        let cfg = ServerConfig {
            batch: BatchConfig { max_batch: 1_000, queue_cap: 4 },
            workers: 1,
            ..ServerConfig::default()
        };
        let server = Server::start(Arc::clone(&reg), cfg);
        let handle = server.handle();
        let (held, held_req) = hold_the_worker(&reg, &handle, "saturation");
        let mut pending = Vec::new();
        for i in 0..4 {
            pending.push(handle.submit("mlp", codes_for(&admitted, 1, i)).unwrap());
        }
        let rejected = handle.submit("mlp", codes_for(&admitted, 1, 99));
        assert_eq!(rejected.err(), Some(ServeError::Busy), "5th request must hit backpressure");
        // Shutdown itself starts the drain while the four requests are still
        // queued behind the held worker; graceful drain then flushes them.
        let shared = Arc::clone(&server.shared);
        let stats = std::thread::scope(move |scope| {
            let shutdown = scope.spawn(move || server.shutdown());
            let queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            let (queue, waited) = shared
                .wakeup
                .wait_timeout_while(queue, Duration::from_secs(10), |q| !q.is_draining())
                .unwrap_or_else(PoisonError::into_inner);
            assert!(!waited.timed_out(), "shutdown must start draining the queue");
            assert_eq!(queue.len(), 4, "drain starts before the queued requests run");
            drop(queue);
            // Moved into the scope, so a failed assertion above drops it
            // and frees the worker before the scope joins the shutdown.
            held.release();
            shutdown.join().expect("shutdown completes")
        });
        held_req.wait().expect("the held request completes");
        for p in pending {
            p.wait().expect("drained request must resolve with a result");
        }
        assert_eq!(stats.completed, 5);
        assert_eq!(stats.rejected_busy, 1);
        // After shutdown the batcher is draining: no new admissions.
        let late = handle.submit("mlp", codes_for(&admitted, 1, 7));
        assert_eq!(late.err(), Some(ServeError::ShuttingDown));
    }

    #[test]
    fn deadlines_expire_deterministically_with_a_fake_clock() {
        let (reg, admitted) = mlp_registry();
        let clock = Arc::new(FakeClock::new(1_000));
        let cfg = ServerConfig {
            batch: BatchConfig { max_batch: 1_000, queue_cap: 16 },
            workers: 1,
            ..ServerConfig::default()
        };
        let server =
            Server::start_with_clock(Arc::clone(&reg), cfg, Arc::<FakeClock>::clone(&clock));
        let handle = server.handle();
        let (held, held_req) = hold_the_worker(&reg, &handle, "deadline");
        let doomed = handle.submit_within("mlp", codes_for(&admitted, 1, 0), 5_000).unwrap();
        // Nothing sleeps: advance fake time past the deadline, release the
        // worker and let its next poll expire the ticket; wait() blocks
        // until then.
        clock.advance(10_000);
        held.release();
        assert_eq!(doomed.wait().err(), Some(ServeError::DeadlineExceeded));
        held_req.wait().expect("the held request completes");
        let stats = server.shutdown();
        assert_eq!(stats.deadline_exceeded, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn expired_on_arrival_is_rejected_synchronously_not_queued() {
        let (reg, admitted) = mlp_registry();
        let clock = Arc::new(FakeClock::new(1_000));
        // Tiny queue so the test can also prove the rejection happens
        // before the capacity check.
        let cfg = ServerConfig {
            batch: BatchConfig { max_batch: 1_000, queue_cap: 2 },
            workers: 1,
            ..ServerConfig::default()
        };
        let server =
            Server::start_with_clock(Arc::clone(&reg), cfg, Arc::<FakeClock>::clone(&clock));
        let handle = server.handle();
        let (held, held_req) = hold_the_worker(&reg, &handle, "arrival");
        // A zero budget makes deadline == now: dead on arrival. The
        // rejection is synchronous — no ticket is queued, no worker runs.
        let dead = handle.submit_within("mlp", codes_for(&admitted, 1, 0), 0);
        assert_eq!(dead.err(), Some(ServeError::DeadlineExceeded));
        // The queue is untouched: both capacity slots are still free.
        let p0 = handle.submit("mlp", codes_for(&admitted, 1, 1)).unwrap();
        let p1 = handle.submit("mlp", codes_for(&admitted, 1, 2)).unwrap();
        // With the queue full, an expired request still reports the
        // deadline — the caller's real problem — rather than Busy.
        assert_eq!(handle.stats().queue_depth, 2);
        let dead_on_full = handle.submit_within("mlp", codes_for(&admitted, 1, 3), 0);
        assert_eq!(dead_on_full.err(), Some(ServeError::DeadlineExceeded));
        held.release();
        let stats = server.shutdown();
        held_req.wait().expect("the held request completes");
        p0.wait().expect("queued request must drain");
        p1.wait().expect("queued request must drain");
        assert_eq!(stats.deadline_exceeded, 2);
        assert_eq!(stats.rejected_busy, 0);
        assert_eq!(stats.completed, 3);
    }

    /// Models named with this prefix panic inside the worker on any
    /// positive input code, as a kernel bug would. Plan compilation
    /// refuses every malformed graph that could otherwise provoke a panic
    /// (a short GELU table used to), so the fault is injected here.
    const FAULTY: &str = "faulty";

    pub(super) fn inject_fault(model: &str, x: &Tensor<i32>) {
        if model.starts_with(FAULTY) && x.as_slice().iter().any(|&c| c > 0) {
            panic!("injected fault: positive input code");
        }
    }

    /// quantize → GELU: a well-formed model for [`FAULTY`] names.
    fn gelu_model() -> t2c_core::IntModel {
        let spec = QuantSpec::signed(8);
        let mut m = t2c_core::IntModel::new();
        m.push("input", IntOp::Quantize { scale: 0.01, spec }, vec![]);
        let lut = GeluLut::build(spec, 0.01, spec, 0.01);
        m.push("act", IntOp::GeluLut(lut), vec![Src::Node(0)]);
        m
    }

    #[test]
    fn worker_panics_are_isolated_and_poison_the_model() {
        // Any positive input code panics inside the worker (see
        // `inject_fault`).
        let reg = Arc::new(ModelRegistry::new());
        let admitted = reg.admit_unchecked("faulty", gelu_model(), &[1, 8]).unwrap();
        let (healthy, hdims) = zoo::tiny_mlp();
        let good = reg.admit("mlp", healthy, &hdims).unwrap();

        let cfg = ServerConfig {
            batch: BatchConfig { max_batch: 4, queue_cap: 64 },
            workers: 2,
            max_panics: 2,
            ..ServerConfig::default()
        };
        let server = Server::start(Arc::clone(&reg), cfg);
        let handle = server.handle();
        let bad_input = Tensor::from_fn(&[1, 8], |_| 100); // a positive code panics

        let first = handle.infer("faulty", bad_input.clone());
        match first {
            Err(ServeError::Internal(msg)) => {
                assert!(msg.contains("panicked"), "expected isolated panic, got: {msg}");
            }
            other => panic!("expected Internal(panic), got {other:?}"),
        }
        assert!(!admitted.is_poisoned(), "one panic is under the budget of 2");
        let second = handle.infer("faulty", bad_input.clone());
        assert!(matches!(second, Err(ServeError::Internal(_))));
        assert!(admitted.is_poisoned(), "second panic must trip the breaker");
        // Quarantined at admission now.
        let third = handle.infer("faulty", bad_input);
        assert_eq!(third.err(), Some(ServeError::ModelPoisoned("faulty".into())));
        // The healthy model keeps serving on the same pool.
        let codes = codes_for(&good, 2, 5);
        let want = good.model().run_quantized(&codes).unwrap();
        assert_eq!(handle.infer("mlp", codes).unwrap().as_slice(), want.as_slice());
        let stats = server.shutdown();
        assert_eq!(stats.panics, 2);
        assert!(stats.completed >= 1);
    }

    #[test]
    fn sampled_dual_path_audit_sees_zero_divergence_on_a_sound_model() {
        let (reg, admitted) = mlp_registry();
        let cfg = ServerConfig {
            batch: BatchConfig { max_batch: 4, queue_cap: 64 },
            workers: 2,
            audit_every: 2,
            ..ServerConfig::default()
        };
        let server = Server::start(Arc::clone(&reg), cfg);
        let handle = server.handle();
        for i in 0..10 {
            let codes = codes_for(&admitted, 1, i);
            handle.infer("mlp", codes).unwrap();
        }
        let stats = server.shutdown();
        assert_eq!(stats.completed, 10);
        assert!(stats.audits >= 5, "1-in-2 sampling over 10 requests, got {}", stats.audits);
        assert_eq!(
            stats.max_audit_divergence, 0.0,
            "integer and float paths must agree on tiny_mlp"
        );
    }

    #[test]
    fn note_audit_rejects_non_finite_divergence() {
        let stats = ServeStats::default();
        stats.note_audit(f64::NAN);
        stats.note_audit(f64::INFINITY);
        stats.note_audit(f64::NEG_INFINITY);
        stats.note_audit(0.25);
        assert_eq!(stats.audits.load(Ordering::Relaxed), 1, "only the finite sample counts");
        assert_eq!(stats.audits_invalid.load(Ordering::Relaxed), 3);
        let max = f64::from_bits(stats.max_audit_divergence_bits.load(Ordering::Relaxed));
        assert_eq!(max, 0.25, "non-finite samples must not poison the maximum");
    }

    #[test]
    fn audited_serving_stays_within_the_certified_error_bound() {
        // The dual-path float reference is one member of the family the
        // static certificate dominates: an audited run must never trip
        // the certificate canary on a sound model.
        let (reg, admitted) = mlp_registry();
        let bound = admitted.certified_error_steps().expect("tiny_mlp certifies");
        let cfg = ServerConfig {
            batch: BatchConfig { max_batch: 4, queue_cap: 64 },
            workers: 2,
            audit_every: 1,
            ..ServerConfig::default()
        };
        let server = Server::start(Arc::clone(&reg), cfg);
        let handle = server.handle();
        for i in 0..6 {
            let codes = codes_for(&admitted, 1, i);
            handle.infer("mlp", codes).unwrap();
        }
        let stats = server.shutdown();
        assert!(stats.audits >= 6);
        assert_eq!(stats.audits_invalid, 0);
        // Zero observed divergence trivially sits under any finite bound,
        // which is exactly what the canary asserts at runtime.
        assert!(stats.max_audit_divergence <= bound);
    }

    #[test]
    fn in_flight_requests_complete_on_the_old_version_across_a_swap() {
        // The only worker is held, so v1's tickets are still queued when
        // the swap lands; drain resolves everything.
        let (reg, v1) = mlp_registry();
        let cfg = ServerConfig {
            batch: BatchConfig { max_batch: 1_000, queue_cap: 16 },
            workers: 1,
            ..ServerConfig::default()
        };
        let server = Server::start(Arc::clone(&reg), cfg);
        let handle = server.handle();
        let (held, held_req) = hold_the_worker(&reg, &handle, "swap");
        let x = Tensor::from_fn(v1.input_dims(), |i| (i as f32) * 0.013 - 0.4);
        let old_codes = v1.quantize(&x);
        let want_old = v1.model().run_quantized(&old_codes).unwrap();
        let p_old_a = handle.submit("mlp", old_codes.clone()).unwrap();
        let p_old_b = handle.submit("mlp", old_codes.clone()).unwrap();
        // Rolling update: replace the graph in place while those tickets
        // are in flight. The new version is a genuinely different graph
        // (heavily pruned fc1) with the same input shape.
        let (v2_model, _) = zoo::tiny_mlp_pruned(0.8);
        let v2 = reg.swap("mlp", v2_model).expect("swap passes the gate");
        let want_new = v2.model().run_quantized(&old_codes).unwrap();
        assert_ne!(want_old.as_slice(), want_new.as_slice(), "versions must differ");
        let p_new = handle.submit("mlp", old_codes).unwrap();
        held.release();
        let stats = server.shutdown();
        held_req.wait().expect("the held request completes");
        // The in-flight v1 requests completed on the graph they were
        // admitted under; the post-swap request ran v2. Fresh batching
        // groups guarantee the drain never mixed them into one batch.
        assert_eq!(p_old_a.wait().unwrap().as_slice(), want_old.as_slice());
        assert_eq!(p_old_b.wait().unwrap().as_slice(), want_old.as_slice());
        assert_eq!(p_new.wait().unwrap().as_slice(), want_new.as_slice());
        assert_eq!(stats.completed, 4);
        // One batch is the held request's.
        assert!(stats.batches >= 3, "v1 and v2 tickets must dispatch as separate batches");
    }

    #[test]
    fn breaker_recovers_through_a_half_open_probe_end_to_end() {
        // Same injected fault as the isolation test: any positive code
        // panics; code −128 succeeds — that's the probe's recovery
        // evidence.
        let reg = Arc::new(ModelRegistry::new());
        reg.admit_unchecked("faulty-flaky", gelu_model(), &[1, 8]).unwrap();
        let clock = Arc::new(FakeClock::new(1_000));
        let cooldown = 1_000_000u64;
        let cfg = ServerConfig {
            batch: BatchConfig { max_batch: 1, queue_cap: 16 },
            workers: 1,
            max_panics: 1,
            breaker_cooldown_ns: cooldown,
            ..ServerConfig::default()
        };
        let server =
            Server::start_with_clock(Arc::clone(&reg), cfg, Arc::<FakeClock>::clone(&clock));
        let handle = server.handle();
        let bad = Tensor::from_fn(&[1, 8], |_| 100);
        let good = Tensor::from_fn(&[1, 8], |_| -128);
        // One panic trips the breaker (budget 1) — open.
        assert!(matches!(handle.infer("faulty-flaky", bad.clone()), Err(ServeError::Internal(_))));
        assert_eq!(
            handle.infer("faulty-flaky", good.clone()).err(),
            Some(ServeError::ModelPoisoned("faulty-flaky".into()))
        );
        // Cooldown elapses: the next request is the single recovery probe.
        clock.advance(cooldown + 1);
        handle.infer("faulty-flaky", good.clone()).expect("probe with a good input must succeed");
        // Probe success closed the breaker: traffic flows again.
        handle.infer("faulty-flaky", good).expect("breaker must be closed after a good probe");
        // And a fresh panic re-opens it with the reset budget.
        assert!(matches!(handle.infer("faulty-flaky", bad), Err(ServeError::Internal(_))));
        assert!(reg.get("faulty-flaky").unwrap().is_poisoned());
        server.shutdown();
    }

    #[test]
    fn idle_server_dispatches_a_lone_request_without_waiting() {
        // Frozen fake time: only the admission itself can wake the
        // worker, and with the default policy it takes the request at once.
        let (reg, admitted) = mlp_registry();
        let clock = Arc::new(FakeClock::new(1_000));
        let server = Server::start_with_clock(
            Arc::clone(&reg),
            ServerConfig::default(),
            Arc::<FakeClock>::clone(&clock),
        );
        let codes = codes_for(&admitted, 1, 3);
        let want = admitted.model().run_quantized(&codes).unwrap();
        let pending = server.handle().submit("mlp", codes).unwrap();
        let got = pending.wait_timeout(Duration::from_secs(5)).expect("must dispatch at once");
        assert_eq!(got.unwrap().as_slice(), want.as_slice());
        let stats = server.shutdown();
        assert_eq!((stats.completed, stats.batches), (1, 1));
    }

    #[test]
    fn requests_arriving_while_workers_are_busy_share_the_next_batch() {
        // The only worker is held on a first request (to a copy of the same
        // MLP), and the eight that arrive meanwhile must leave together once
        // it is free, not as singletons cut while it was busy.
        let (reg, admitted) = mlp_registry();
        let server =
            Server::start(Arc::clone(&reg), ServerConfig { workers: 1, ..ServerConfig::default() });
        let handle = server.handle();
        let (held, held_req) = hold_the_worker(&reg, &handle, "backlog");
        let mut pending = vec![held_req];
        for i in 1..9 {
            pending.push(handle.submit("mlp", codes_for(&admitted, 1, i)).unwrap());
        }
        held.release();
        for (i, p) in pending.into_iter().enumerate() {
            let want = admitted.model().run_quantized(&codes_for(&admitted, 1, i)).unwrap();
            assert_eq!(p.wait().unwrap().as_slice(), want.as_slice(), "request {i}");
        }
        let stats = server.shutdown();
        assert_eq!((stats.batches, stats.batched_rows), (2, 9));
    }

    #[test]
    fn unknown_model_and_bad_shape_reject_synchronously() {
        let (reg, admitted) = mlp_registry();
        let d = admitted.input_dims()[1];
        let server = Server::start(Arc::clone(&reg), ServerConfig::default());
        let handle = server.handle();
        assert!(matches!(
            handle.infer("ghost", Tensor::zeros(&[1, d])),
            Err(ServeError::ModelNotFound(_))
        ));
        assert!(matches!(
            handle.infer("mlp", Tensor::zeros(&[1, d - 1])),
            Err(ServeError::BadRequest(_))
        ));
        assert!(matches!(
            handle.infer("mlp", Tensor::zeros(&[0, d])),
            Err(ServeError::BadRequest(_))
        ));
        drop(server); // Drop also drains cleanly.
    }
}
