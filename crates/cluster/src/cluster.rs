//! The replicated serving runtime: N in-process `t2c-serve` replicas
//! behind the pure [`Router`].
//!
//! Each replica is a full serve stack — its own lint-gated
//! [`ModelRegistry`] and [`Server`] (batch queue + worker pool). The cluster
//! deploys a model by admitting it (through the replica's own lint gate)
//! on the R replicas the placement ring names, and routes each request
//! to the least-loaded healthy holder. Everything stateful-and-pure
//! lives in the router behind one mutex; this module owns the threads,
//! clocks and retries:
//!
//! * **Retry** — synchronous rejections and drain races
//!   (`Busy`, `ShuttingDown`, `ModelPoisoned`, holder-local
//!   `ModelNotFound`) re-route to another holder, bounded by
//!   [`ClusterConfig::max_attempts`]. This is what makes a mid-run
//!   replica kill lossless: work queued on the dying replica drains to
//!   completion, work racing the kill re-routes.
//! * **Hedging** — when the router supplies a hedge budget and the
//!   primary hasn't answered within it, a duplicate fires on another
//!   holder and the first response wins; the abandoned attempt is
//!   reaped in the background so outstanding counts stay truthful.
//! * **Rolling updates** — [`Cluster::update`] admits version N+1 under
//!   a versioned registry name on its own fresh placement, flips the
//!   route atomically, then evicts version N from its old holders.
//!   In-flight requests hold `Arc`s to the old admitted model and
//!   complete; no request observes a refusal during the flip.
//! * **Health** — a lazy, rate-limited poll of each replica's
//!   [`StatsSnapshot`] feeds the router queue depth, breaker poisonings
//!   and deadline-miss/panic deltas.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::Duration;

use t2c_core::IntModel;
use t2c_serve::{
    AdmissionError, Clock, Handle, ModelRegistry, PendingResponse, ServeError, Server,
    ServerConfig, StatsSnapshot, SystemClock,
};
use t2c_tensor::Tensor;

use crate::router::{ReplicaObservation, Router, RouterConfig};

/// Cluster-level policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Replicas to start.
    pub replicas: usize,
    /// Routing policy (replication factor, health thresholds, hedging).
    pub router: RouterConfig,
    /// Per-replica serve runtime configuration.
    pub server: ServerConfig,
    /// Total submission attempts per request (first try + re-routes).
    pub max_attempts: usize,
    /// Minimum interval between replica health polls.
    pub health_refresh_ns: u64,
    /// Poll granularity while racing a hedged pair.
    pub hedge_poll_ns: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            replicas: 2,
            router: RouterConfig::default(),
            server: ServerConfig::default(),
            max_attempts: 6,
            health_refresh_ns: 20_000_000,
            hedge_poll_ns: 200_000,
        }
    }
}

/// One replica: its registry, submission handle, and (until killed) the
/// running server.
struct ReplicaCell {
    id: usize,
    registry: Arc<ModelRegistry>,
    handle: Handle,
    server: Mutex<Option<Server>>,
    /// Previous stats snapshot, for delta-feeding the router.
    last_stats: Mutex<StatsSnapshot>,
}

/// A deployed model's master copy — what rebalancing admits onto new
/// holders when membership changes.
struct CatalogEntry {
    model: IntModel,
    dims: Vec<usize>,
    version: u64,
}

/// Always-on cluster counters.
#[derive(Debug, Default)]
struct ClusterCounters {
    completed: AtomicU64,
    retries: AtomicU64,
    hedges: AtomicU64,
    hedge_wins: AtomicU64,
}

/// Point-in-time cluster counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClusterStats {
    /// Requests the cluster resolved with a result.
    pub completed: u64,
    /// Re-routed submission attempts (rejections + drain races).
    pub retries: u64,
    /// Hedged duplicates fired.
    pub hedges: u64,
    /// Hedges whose duplicate beat the primary.
    pub hedge_wins: u64,
    /// Live replicas.
    pub live_replicas: usize,
}

struct Shared {
    cfg: ClusterConfig,
    clock: Arc<dyn Clock>,
    router: Mutex<Router>,
    replicas: RwLock<Vec<Option<Arc<ReplicaCell>>>>,
    catalog: Mutex<BTreeMap<String, CatalogEntry>>,
    counters: ClusterCounters,
    last_refresh: AtomicU64,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The scale-out serving tier. Cheap to clone (all clones share state);
/// see the module docs for semantics.
#[derive(Clone)]
pub struct Cluster {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("replicas", &lock(&self.shared.router).replica_ids())
            .field("models", &lock(&self.shared.router).models())
            .finish_non_exhaustive()
    }
}

impl Cluster {
    /// Starts `cfg.replicas` serve runtimes with the production clock.
    pub fn start(cfg: ClusterConfig) -> Self {
        Self::start_with_clock(cfg, Arc::new(SystemClock::new()))
    }

    /// Starts the cluster with an injected clock — shared by the router
    /// and every replica runtime, so FakeClock tests control the whole
    /// tier's notion of time.
    pub fn start_with_clock(cfg: ClusterConfig, clock: Arc<dyn Clock>) -> Self {
        let n = cfg.replicas.max(1);
        let mut router = Router::new(cfg.router);
        let mut cells = Vec::with_capacity(n);
        for id in 0..n {
            router.add_replica(id);
            let registry = Arc::new(ModelRegistry::new());
            let server =
                Server::start_with_clock(Arc::clone(&registry), cfg.server, Arc::clone(&clock));
            cells.push(Some(Arc::new(ReplicaCell {
                id,
                registry,
                handle: server.handle(),
                server: Mutex::new(Some(server)),
                last_stats: Mutex::new(StatsSnapshot::default()),
            })));
        }
        Cluster {
            shared: Arc::new(Shared {
                cfg,
                clock,
                router: Mutex::new(router),
                replicas: RwLock::new(cells),
                catalog: Mutex::new(BTreeMap::new()),
                counters: ClusterCounters::default(),
                last_refresh: AtomicU64::new(0),
            }),
        }
    }

    fn cell(&self, id: usize) -> Option<Arc<ReplicaCell>> {
        let replicas = self.shared.replicas.read().unwrap_or_else(PoisonError::into_inner);
        replicas.get(id).and_then(Option::clone)
    }

    /// Admits `internal` (cloned from the catalog master) on each listed
    /// replica, through the replica's own lint gate. Already-admitted
    /// holders are fine (idempotent); vanished replicas are skipped.
    fn admit_on(&self, placements: &[(String, String, usize)]) -> Result<(), AdmissionError> {
        let catalog = lock(&self.shared.catalog);
        for (model, internal, replica) in placements {
            let Some(entry) = catalog.get(model) else { continue };
            let Some(cell) = self.cell(*replica) else { continue };
            match cell.registry.admit(internal, entry.model.clone(), &entry.dims) {
                Ok(_) | Err(AdmissionError::Duplicate(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Deploys a new model: lint-gated admission on its R placed holders,
    /// then the route goes live. `input_dims` is the single-sample shape
    /// (batch axis 1), as for `ModelRegistry::admit`.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::Duplicate`] if the name is already deployed; any
    /// lint-gate refusal from the holders (nothing goes live on failure).
    pub fn deploy(
        &self,
        name: &str,
        model: IntModel,
        input_dims: &[usize],
    ) -> Result<(), AdmissionError> {
        if lock(&self.shared.catalog).contains_key(name) {
            return Err(AdmissionError::Duplicate(name.to_string()));
        }
        self.roll(name, model, input_dims.to_vec(), 1)
    }

    /// Rolling update to a new version of a deployed model: admit on R
    /// fresh placements, flip the route atomically, evict the old
    /// version. In-flight requests on the old version complete; no
    /// request is refused during the flip.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::NotFound`] for unknown names; lint-gate
    /// refusals leave the old version serving, untouched.
    pub fn update(&self, name: &str, model: IntModel) -> Result<(), AdmissionError> {
        let (dims, version) = {
            let catalog = lock(&self.shared.catalog);
            let entry =
                catalog.get(name).ok_or_else(|| AdmissionError::NotFound(name.to_string()))?;
            (entry.dims.clone(), entry.version + 1)
        };
        self.roll(name, model, dims, version)
    }

    /// Shared deploy/update path: gate on the fresh placement, then flip.
    fn roll(
        &self,
        name: &str,
        model: IntModel,
        dims: Vec<usize>,
        version: u64,
    ) -> Result<(), AdmissionError> {
        let internal = format!("{name}@v{version}");
        let holders = lock(&self.shared.router).plan_placement(&internal);
        if holders.is_empty() {
            return Err(AdmissionError::BadModel("cluster has no live replicas".into()));
        }
        // Admit the new version everywhere it will live *before* any
        // traffic can route to it; unwind the partial admissions if any
        // holder's gate refuses.
        let mut admitted: Vec<usize> = Vec::with_capacity(holders.len());
        for &h in &holders {
            let Some(cell) = self.cell(h) else { continue };
            match cell.registry.admit(&internal, model.clone(), &dims) {
                Ok(_) => admitted.push(h),
                Err(e) => {
                    for &a in &admitted {
                        if let Some(cell) = self.cell(a) {
                            cell.registry.remove(&internal);
                        }
                    }
                    return Err(e);
                }
            }
        }
        // The flip is atomic under the router lock: a pick either sees
        // the old internal name (and its holders still serve it) or the
        // new one (already admitted above). Zero refusals by design.
        let flip = lock(&self.shared.router).flip_route(name, internal);
        if let Some(old) = flip.retired {
            for &h in &flip.retired_holders {
                if let Some(cell) = self.cell(h) {
                    // In-flight requests hold their own Arc to the old
                    // admitted model and complete against it.
                    cell.registry.remove(&old);
                }
            }
            t2c_obs::counter_add("cluster.route_flips", 1);
        }
        let mut catalog = lock(&self.shared.catalog);
        catalog.insert(name.to_string(), CatalogEntry { model, dims, version });
        Ok(())
    }

    /// Kills a replica: drains it from routing, re-places its models on
    /// the survivors, and shuts the runtime down gracefully (queued work
    /// resolves). Admitted requests are never lost: queued ones drain,
    /// racing ones re-route.
    ///
    /// Returns `false` if the replica was already gone.
    pub fn kill_replica(&self, id: usize) -> bool {
        let preview = {
            let mut router = lock(&self.shared.router);
            if !router.replica_ids().contains(&id) {
                return false;
            }
            // Draining closes the pick window for this replica while the
            // future holders are prepared; routes still point at the
            // survivors, so service never pauses.
            router.set_draining(id, true);
            router.preview_remove(id)
        };
        // Admit displaced models onto their future holders *before* the
        // routes flip — admission re-runs the lint gate, which is far too
        // slow to leave a live route pointing at an unprepared holder.
        self.admit_on(&preview).ok();
        let needed = lock(&self.shared.router).remove_replica(id);
        // Backstop for routes flipped between the preview and the removal.
        self.admit_on(&needed).ok();
        let cell = {
            let mut replicas = self.shared.replicas.write().unwrap_or_else(PoisonError::into_inner);
            replicas.get_mut(id).and_then(Option::take)
        };
        let Some(cell) = cell else { return false };
        if let Some(server) = lock(&cell.server).take() {
            // Graceful drain: every request already admitted to this
            // replica resolves before shutdown returns.
            server.shutdown();
        }
        t2c_obs::counter_add("cluster.replicas_killed", 1);
        true
    }

    /// Names of the deployed (public) models.
    pub fn models(&self) -> Vec<String> {
        lock(&self.shared.router).models()
    }

    /// The live version number of a deployed model.
    pub fn version(&self, name: &str) -> Option<u64> {
        lock(&self.shared.router).route_version(name)
    }

    /// Current cluster counters.
    pub fn stats(&self) -> ClusterStats {
        let c = &self.shared.counters;
        let live = {
            let replicas = self.shared.replicas.read().unwrap_or_else(PoisonError::into_inner);
            replicas.iter().flatten().count()
        };
        ClusterStats {
            completed: c.completed.load(Ordering::Relaxed),
            retries: c.retries.load(Ordering::Relaxed),
            hedges: c.hedges.load(Ordering::Relaxed),
            hedge_wins: c.hedge_wins.load(Ordering::Relaxed),
            live_replicas: live,
        }
    }

    /// Per-replica runtime counters for the live replicas, keyed by
    /// replica id — the operator's per-shard view (batch amortization,
    /// rejection counts, queue depths).
    pub fn replica_stats(&self) -> Vec<(usize, StatsSnapshot)> {
        let replicas = self.shared.replicas.read().unwrap_or_else(PoisonError::into_inner);
        replicas.iter().flatten().map(|cell| (cell.id, cell.handle.stats())).collect()
    }

    /// Rate-limited health poll: feeds each replica's stats deltas and
    /// breaker state into the router.
    fn maybe_refresh_health(&self) {
        let now = self.shared.clock.now_ns();
        let last = self.shared.last_refresh.load(Ordering::Relaxed);
        if now.saturating_sub(last) < self.shared.cfg.health_refresh_ns {
            return;
        }
        if self
            .shared
            .last_refresh
            .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            return; // another thread is refreshing
        }
        let cells: Vec<Arc<ReplicaCell>> = {
            let replicas = self.shared.replicas.read().unwrap_or_else(PoisonError::into_inner);
            replicas.iter().flatten().cloned().collect()
        };
        for cell in cells {
            let snap = cell.handle.stats();
            let prev = {
                let mut last = lock(&cell.last_stats);
                std::mem::replace(&mut *last, snap)
            };
            let poisoned =
                cell.registry.health().values().filter(|(poisoned, _)| *poisoned).count() as u64;
            let obs = ReplicaObservation {
                queue_depth: snap.queue_depth,
                completed: snap.completed.saturating_sub(prev.completed),
                deadline_missed: snap.deadline_exceeded.saturating_sub(prev.deadline_exceeded),
                panics: snap.panics.saturating_sub(prev.panics),
                poisoned_models: poisoned,
            };
            lock(&self.shared.router).observe(cell.id, obs, now);
            if t2c_obs::enabled() {
                t2c_obs::gauge_set(
                    &format!("cluster.replica{}.queue_depth", cell.id),
                    snap.queue_depth as f64,
                );
            }
        }
    }

    /// Whether a rejection should be retried on another holder.
    fn retryable(e: &ServeError) -> bool {
        matches!(
            e,
            ServeError::Busy
                | ServeError::ShuttingDown
                | ServeError::ModelPoisoned(_)
                | ServeError::ModelNotFound(_)
        )
    }

    /// Routed inference with the replicas' default deadline policy.
    ///
    /// # Errors
    ///
    /// [`ServeError::ModelNotFound`] for undeployed models; otherwise
    /// whatever the final attempt resolved to.
    pub fn infer(&self, model: &str, input: Tensor<i32>) -> Result<Tensor<i32>, ServeError> {
        self.infer_deadline(model, &input, 0)
    }

    /// Routed inference with an explicit deadline budget from now. The
    /// budget spans retries and hedges — it is the caller's end-to-end
    /// deadline, not a per-attempt one.
    ///
    /// # Errors
    ///
    /// As [`Self::infer`], plus [`ServeError::DeadlineExceeded`].
    pub fn infer_within(
        &self,
        model: &str,
        input: Tensor<i32>,
        budget_ns: u64,
    ) -> Result<Tensor<i32>, ServeError> {
        let deadline = self.shared.clock.now_ns().saturating_add(budget_ns.max(1));
        self.infer_deadline(model, &input, deadline)
    }

    /// The retry loop. `deadline_ns == 0` means no deadline.
    fn infer_deadline(
        &self,
        model: &str,
        input: &Tensor<i32>,
        deadline_ns: u64,
    ) -> Result<Tensor<i32>, ServeError> {
        let mut last_err = ServeError::ShuttingDown;
        for attempt in 0..self.shared.cfg.max_attempts.max(1) {
            self.maybe_refresh_health();
            let now = self.shared.clock.now_ns();
            if deadline_ns > 0 && now >= deadline_ns {
                return Err(ServeError::DeadlineExceeded);
            }
            if attempt > 0 {
                self.shared.counters.retries.fetch_add(1, Ordering::Relaxed);
                t2c_obs::counter_add("cluster.retries", 1);
            }
            // A pick-level ModelNotFound means the model has no route at
            // all — terminal. (A *submit*-level ModelNotFound is a
            // holder-local race with rebalancing and is retried.)
            let pick = match lock(&self.shared.router).pick(model, now) {
                Ok(p) => p,
                Err(e @ ServeError::ModelNotFound(_)) => return Err(e),
                Err(e) if Self::retryable(&e) => {
                    last_err = e;
                    continue;
                }
                Err(e) => return Err(e),
            };
            match self.attempt(model, pick, input, deadline_ns) {
                Ok(result) => {
                    self.shared.counters.completed.fetch_add(1, Ordering::Relaxed);
                    return Ok(result);
                }
                Err(e) if Self::retryable(&e) => last_err = e,
                Err(e) => return Err(e),
            }
        }
        Err(last_err)
    }

    /// One routed attempt: submit to the picked replica, hedged wait.
    fn attempt(
        &self,
        model: &str,
        pick: crate::router::Pick,
        input: &Tensor<i32>,
        deadline_ns: u64,
    ) -> Result<Tensor<i32>, ServeError> {
        let (pending, start) =
            match self.submit_to(pick.replica, &pick.internal, input, deadline_ns) {
                Ok(p) => p,
                Err(e) => {
                    lock(&self.shared.router).note_result(model, pick.replica, None);
                    return Err(e);
                }
            };
        // No hedge budget: plain wait.
        let Some(delay) = pick.hedge_delay_ns else {
            return self.settle(model, pick.replica, start, pending.wait());
        };
        if let Some(result) = pending.wait_timeout(Duration::from_nanos(delay.max(1))) {
            return self.settle(model, pick.replica, start, result);
        }
        // Primary is slow: fire the duplicate on another holder.
        let hedge =
            lock(&self.shared.router).pick_hedge(model, pick.replica, self.shared.clock.now_ns());
        let Some(hedge) = hedge else {
            return self.settle(model, pick.replica, start, pending.wait());
        };
        self.shared.counters.hedges.fetch_add(1, Ordering::Relaxed);
        t2c_obs::counter_add("cluster.hedges", 1);
        let hedged = match self.submit_to(hedge.replica, &hedge.internal, input, deadline_ns) {
            Ok((p, s)) => (p, s),
            Err(_) => {
                lock(&self.shared.router).note_result(model, hedge.replica, None);
                return self.settle(model, pick.replica, start, pending.wait());
            }
        };
        self.race(model, (pick.replica, pending, start), (hedge.replica, hedged.0, hedged.1))
    }

    /// Submits to one replica, translating the cluster deadline into the
    /// replica's remaining budget.
    fn submit_to(
        &self,
        replica: usize,
        internal: &str,
        input: &Tensor<i32>,
        deadline_ns: u64,
    ) -> Result<(PendingResponse, u64), ServeError> {
        let cell = self.cell(replica).ok_or(ServeError::ShuttingDown)?;
        let start = self.shared.clock.now_ns();
        let pending = if deadline_ns == 0 {
            cell.handle.submit(internal, input.clone())?
        } else {
            let remaining = deadline_ns.saturating_sub(start);
            if remaining == 0 {
                return Err(ServeError::DeadlineExceeded);
            }
            cell.handle.submit_within(internal, input.clone(), remaining)?
        };
        Ok((pending, start))
    }

    /// Books one resolved attempt into the router and returns it.
    fn settle(
        &self,
        model: &str,
        replica: usize,
        start_ns: u64,
        result: Result<Tensor<i32>, ServeError>,
    ) -> Result<Tensor<i32>, ServeError> {
        let latency = result.is_ok().then(|| self.shared.clock.now_ns().saturating_sub(start_ns));
        lock(&self.shared.router).note_result(model, replica, latency);
        result
    }

    /// Races the primary against its hedge: first success wins; if one
    /// fails, the other gets to finish; if both fail, the primary's
    /// error stands. The abandoned in-flight attempt is reaped by a
    /// detached thread so its outstanding count resolves truthfully.
    fn race(
        &self,
        model: &str,
        primary: (usize, PendingResponse, u64),
        hedge: (usize, PendingResponse, u64),
    ) -> Result<Tensor<i32>, ServeError> {
        let poll = Duration::from_nanos(self.shared.cfg.hedge_poll_ns.clamp(50_000, 5_000_000));
        let (p_replica, p_pending, p_start) = primary;
        let (h_replica, h_pending, h_start) = hedge;
        let mut p_res: Option<Result<Tensor<i32>, ServeError>> = None;
        let mut h_res: Option<Result<Tensor<i32>, ServeError>> = None;
        loop {
            if p_res.is_none() {
                p_res = p_pending.wait_timeout(poll);
            }
            if matches!(p_res, Some(Ok(_))) || (p_res.is_some() && h_res.is_some()) {
                break;
            }
            if h_res.is_none() {
                h_res = h_pending.wait_timeout(poll);
            }
            if matches!(h_res, Some(Ok(_))) || (p_res.is_some() && h_res.is_some()) {
                break;
            }
        }
        // Loop exit invariant: primary succeeded, hedge succeeded, or
        // both resolved (with at least the primary's error in hand).
        let hedge_won = matches!(h_res, Some(Ok(_))) && !matches!(p_res, Some(Ok(_)));
        if hedge_won {
            self.shared.counters.hedge_wins.fetch_add(1, Ordering::Relaxed);
            t2c_obs::counter_add("cluster.hedge_wins", 1);
        }
        // Settle whatever resolved; reap whatever is still in flight.
        let settled_primary = match p_res {
            Some(res) => Some(self.settle(model, p_replica, p_start, res)),
            None => {
                self.reap(model, p_replica, p_pending, p_start);
                None
            }
        };
        let settled_hedge = match h_res {
            Some(res) => Some(self.settle(model, h_replica, h_start, res)),
            None => {
                self.reap(model, h_replica, h_pending, h_start);
                None
            }
        };
        let winner = if hedge_won { settled_hedge } else { settled_primary };
        winner.unwrap_or_else(|| {
            Err(ServeError::Internal("hedged race exited with no resolved attempt".into()))
        })
    }

    /// Detached background wait for an abandoned hedge attempt.
    fn reap(&self, model: &str, replica: usize, pending: PendingResponse, start_ns: u64) {
        let shared = Arc::clone(&self.shared);
        let model = model.to_string();
        std::thread::Builder::new()
            .name("t2c-cluster-reaper".into())
            .spawn(move || {
                let result = pending.wait();
                let latency =
                    result.is_ok().then(|| shared.clock.now_ns().saturating_sub(start_ns));
                lock(&shared.router).note_result(&model, replica, latency);
            })
            .ok();
    }

    /// Shuts every live replica down gracefully (idempotent): queued
    /// requests drain and resolve first. Returns the final counters.
    pub fn shutdown(&self) -> ClusterStats {
        let cells: Vec<Arc<ReplicaCell>> = {
            let mut replicas = self.shared.replicas.write().unwrap_or_else(PoisonError::into_inner);
            replicas.iter_mut().filter_map(Option::take).collect()
        };
        for cell in cells {
            lock(&self.shared.router).remove_replica(cell.id);
            if let Some(server) = lock(&cell.server).take() {
                server.shutdown();
            }
        }
        self.stats()
    }
}

impl Drop for Shared {
    fn drop(&mut self) {
        let replicas = self.replicas.get_mut().unwrap_or_else(PoisonError::into_inner);
        for cell in replicas.iter_mut().filter_map(Option::take) {
            if let Some(server) = lock(&cell.server).take() {
                server.shutdown();
            }
        }
    }
}

impl t2c_serve::InferBackend for Cluster {
    fn infer_wire(
        &self,
        model: &str,
        input: Tensor<i32>,
        deadline_ms: u32,
    ) -> Result<Tensor<i32>, ServeError> {
        match deadline_ms {
            0 => self.infer(model, input),
            ms => self.infer_within(model, input, u64::from(ms) * 1_000_000),
        }
    }
}
