//! The lint-gated model registry.
//!
//! A model becomes servable only by passing the same static verifier the
//! deploy pipeline runs (`t2c-lint`): admission re-lints the integer graph
//! against its declared input shape (and, for on-disk packages, the
//! export manifest) and refuses the model if *any* error-level finding
//! fires — the rejection diagnostic names the `T2Cxxx` rule ids. This
//! makes the registry the runtime enforcement point of the toolkit's
//! deployment contract: what the server hosts is exactly what `t2c-check`
//! would sign off on. Admission then compiles the model's execution plan
//! — the only executor the workers run — and refuses the model with
//! [`AdmissionError::BadModel`] when it does not compile.
//!
//! Each admitted model also carries its runtime health: a panic counter
//! fed by worker isolation and a circuit breaker that quarantines the
//! model once the counter crosses the configured budget. The breaker is
//! a three-state machine (closed → open → half-open): with a nonzero
//! cooldown configured, an open breaker admits a *single probe* request
//! once the cooldown elapses — a successful probe closes the breaker and
//! resets the panic budget, a failed probe re-opens it for another
//! cooldown. With cooldown 0 (the default) an open breaker stays open,
//! matching the pre-cooldown behavior.
//!
//! The registry supports live mutation for rolling updates:
//! [`ModelRegistry::remove`] evicts a model (freeing its storage slot for
//! reuse) and [`ModelRegistry::swap`] replaces a model's graph in place
//! through the same lint gate. Both are `Arc`-safe with respect to
//! in-flight work: requests queued against the old [`AdmittedModel`] hold
//! their own `Arc` and complete against the graph they were admitted
//! under. Every admitted instance gets a *fresh* batching-group id
//! ([`AdmittedModel::group`]) even when it reuses a storage slot, so the
//! micro-batcher can never coalesce tickets of an evicted model with
//! tickets of its slot successor.
//!
//! Admission additionally runs the quantization-error certifier
//! (`t2c_lint::certify_model`, DESIGN.md §6.11) and stores the certified
//! end-to-end float↔int divergence bound on the [`AdmittedModel`] — the
//! sampled dual-path audit compares plan↔interpreter divergence against
//! it. A registry
//! built with [`ModelRegistry::with_error_tolerance`] turns the
//! certificate into a gate: models whose certified bound exceeds the
//! tolerance (or that are uncertifiable) are refused with the `T2C60x`
//! rule naming the offending layer.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

use t2c_core::intmodel::IntOp;
use t2c_core::{ExecPlan, IntModel, QuantSpec};
use t2c_lint::{certify_model, lint_model, lint_package, ErrorBoundConfig, LintReport, Severity};
use t2c_tensor::Tensor;

use crate::error::AdmissionError;

/// Circuit-breaker state (see the module docs). The `quarantined` mirror
/// on [`AdmittedModel`] keeps the hot-path check a single atomic load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    /// Healthy: requests flow.
    Closed,
    /// Tripped at `since_ns`: requests are rejected until the cooldown
    /// elapses (never, when the cooldown is 0).
    Open { since_ns: u64 },
    /// Cooldown elapsed at `since_ns`: exactly one probe request is in
    /// flight; everything else is still rejected.
    HalfOpen { since_ns: u64 },
}

/// What the breaker decided for one incoming request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BreakerDecision {
    /// Breaker closed — serve normally.
    Admit,
    /// Breaker half-open — this request is the single recovery probe.
    Probe,
    /// Breaker open (or a probe is already in flight) — reject with
    /// [`crate::ServeError::ModelPoisoned`].
    Reject,
}

/// A model that passed the admission gate, plus its serving metadata.
#[derive(Debug)]
pub struct AdmittedModel {
    name: String,
    model: IntModel,
    pub(crate) plan: ExecPlan,
    input_dims: Vec<usize>,
    lint: LintReport,
    slot: usize,
    group: usize,
    input_scale: f32,
    input_spec: QuantSpec,
    certified_steps: Option<f64>,
    quarantined: AtomicBool,
    breaker: Mutex<BreakerState>,
    panics: AtomicU32,
}

impl AdmittedModel {
    /// The registry name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The integer graph.
    pub fn model(&self) -> &IntModel {
        &self.model
    }

    /// The compiled execution plan (fused epilogues + arena layout).
    /// Admission refuses any model whose plan does not compile, so this
    /// is always `Some`; workers run it with a per-worker
    /// [`t2c_core::Arena`].
    pub fn plan(&self) -> Option<&ExecPlan> {
        Some(&self.plan)
    }

    /// Canonical input dims with batch axis 1 (e.g. `[1, 3, 8, 8]`).
    pub fn input_dims(&self) -> &[usize] {
        &self.input_dims
    }

    /// The lint report the model was admitted under.
    pub fn lint(&self) -> &LintReport {
        &self.lint
    }

    /// The storage slot (reused after [`ModelRegistry::remove`]).
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// The batching group id: unique per admitted *instance*, never
    /// reused — even when a removal/swap recycles the storage slot. The
    /// runtime batches by this id, so tickets of two models (or two
    /// versions of one model) can never share a batch.
    pub fn group(&self) -> usize {
        self.group
    }

    /// The grid the leading `Quantize` node clamps input codes to.
    pub fn input_spec(&self) -> QuantSpec {
        self.input_spec
    }

    /// The leading `Quantize` node's scale.
    pub fn input_scale(&self) -> f32 {
        self.input_scale
    }

    /// Quantizes a float input onto the model's input grid — what the
    /// leading `Quantize` node would do. Clients use this to build the
    /// integer codes the serving protocol carries.
    pub fn quantize(&self, x: &Tensor<f32>) -> Tensor<i32> {
        let (scale, spec) = (self.input_scale, self.input_spec);
        x.map(|v| ((v / scale).round() as i32).clamp(spec.qmin(), spec.qmax()))
    }

    /// Maps integer input codes back to floats (`codes · scale`) — the
    /// dual-path audit uses this to re-enter `IntModel::run`, which
    /// requantizes them.
    pub fn dequantize(&self, codes: &Tensor<i32>) -> Tensor<f32> {
        let scale = self.input_scale;
        codes.map(|c| c as f32 * scale)
    }

    /// The certified end-to-end error bound (final-output code units) the
    /// model was admitted under, when admission could prove a finite one.
    /// `None` for `admit_unchecked` models and uncertifiable graphs. The
    /// sampled dual-path audit counts plan↔interpreter divergence beyond
    /// this bound in `serve.audit_certificate_violations`; both paths are
    /// integer, so that counter flags plan or kernel faults, not
    /// quantization error.
    pub fn certified_error_steps(&self) -> Option<f64> {
        self.certified_steps
    }

    /// True while the circuit breaker quarantines the model (open *or*
    /// half-open — a probing model is still closed to normal traffic).
    pub fn is_poisoned(&self) -> bool {
        self.quarantined.load(Ordering::Acquire)
    }

    /// Worker panics observed so far (reset when a half-open probe
    /// closes the breaker).
    pub fn panic_count(&self) -> u32 {
        self.panics.load(Ordering::Relaxed)
    }

    fn breaker_lock(&self) -> std::sync::MutexGuard<'_, BreakerState> {
        self.breaker.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records one isolated worker panic; trips the breaker at
    /// `max_panics` (and re-opens a half-open breaker unconditionally —
    /// a failed probe proves the model is still broken). Returns the new
    /// panic count.
    pub(crate) fn record_panic(&self, max_panics: u32, now_ns: u64) -> u32 {
        let n = self.panics.fetch_add(1, Ordering::AcqRel) + 1;
        let mut state = self.breaker_lock();
        match *state {
            BreakerState::Closed if n >= max_panics => {
                *state = BreakerState::Open { since_ns: now_ns };
                self.quarantined.store(true, Ordering::Release);
            }
            BreakerState::HalfOpen { .. } => {
                *state = BreakerState::Open { since_ns: now_ns };
            }
            BreakerState::Closed | BreakerState::Open { .. } => {}
        }
        n
    }

    /// The breaker's verdict for one incoming request. `cooldown_ns = 0`
    /// never recovers (an open breaker stays open). A half-open breaker
    /// whose probe went missing (expired in queue, lost batch) re-arms
    /// after another cooldown so the model cannot stay wedged.
    pub(crate) fn breaker_admit(&self, now_ns: u64, cooldown_ns: u64) -> BreakerDecision {
        if !self.quarantined.load(Ordering::Acquire) {
            return BreakerDecision::Admit;
        }
        let mut state = self.breaker_lock();
        match *state {
            BreakerState::Closed => BreakerDecision::Admit,
            BreakerState::Open { since_ns } | BreakerState::HalfOpen { since_ns } => {
                if cooldown_ns > 0 && now_ns.saturating_sub(since_ns) >= cooldown_ns {
                    *state = BreakerState::HalfOpen { since_ns: now_ns };
                    BreakerDecision::Probe
                } else {
                    BreakerDecision::Reject
                }
            }
        }
    }

    /// True while the breaker is fully open — queued batches for the
    /// model fail without running. Half-open is *not* open: the probe
    /// batch must be allowed to execute.
    pub(crate) fn breaker_is_open(&self) -> bool {
        if !self.quarantined.load(Ordering::Acquire) {
            return false;
        }
        matches!(*self.breaker_lock(), BreakerState::Open { .. })
    }

    /// Notes a successful batch: a half-open breaker closes and the
    /// panic budget resets. One atomic load on the (common) closed path.
    pub(crate) fn breaker_on_success(&self) {
        if !self.quarantined.load(Ordering::Acquire) {
            return;
        }
        let mut state = self.breaker_lock();
        if matches!(*state, BreakerState::HalfOpen { .. }) {
            *state = BreakerState::Closed;
            self.panics.store(0, Ordering::Release);
            self.quarantined.store(false, Ordering::Release);
            t2c_obs::counter_add("serve.breaker_recovered", 1);
        }
    }
}

/// Thread-safe registry of admitted models. See the module docs for the
/// admission contract.
#[derive(Debug, Default)]
pub struct ModelRegistry {
    /// Storage slots; `None` marks an evicted slot available for reuse.
    models: RwLock<Vec<Option<Arc<AdmittedModel>>>>,
    /// Monotonic batching-group allocator — never reused (see
    /// [`AdmittedModel::group`]).
    next_group: AtomicUsize,
    error_tolerance: Option<f64>,
}

/// Error-level rule ids in first-occurrence order, deduplicated.
fn error_rules(report: &LintReport) -> Vec<&'static str> {
    let mut rules = Vec::new();
    for d in &report.diagnostics {
        if d.severity == Severity::Error && !rules.contains(&d.rule.id()) {
            rules.push(d.rule.id());
        }
    }
    rules
}

/// Everything the gate derives from a model that survived it.
struct Gated {
    model: IntModel,
    plan: ExecPlan,
    lint: LintReport,
    input_scale: f32,
    input_spec: QuantSpec,
    certified_steps: Option<f64>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty registry whose admission gate additionally enforces a
    /// certified quantization-error budget: models whose certified
    /// end-to-end bound exceeds `tolerance_steps` (in final-output code
    /// units), or that are uncertifiable, are refused with the `T2C60x`
    /// finding (T2C602 names the worst-contributing layer).
    pub fn with_error_tolerance(tolerance_steps: f64) -> Self {
        ModelRegistry {
            models: RwLock::new(Vec::new()),
            next_group: AtomicUsize::new(0),
            error_tolerance: Some(tolerance_steps),
        }
    }

    /// Admits an in-memory model through the lint gate.
    ///
    /// `input_dims` is the single-sample input shape (batch axis must
    /// be 1); the lint pass runs against exactly this shape.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::LintGate`] when the verifier reports any
    /// error-level finding (the error names the rule ids);
    /// [`AdmissionError::Duplicate`] / [`AdmissionError::BadModel`] for
    /// structural problems, including an execution plan that does not
    /// compile.
    pub fn admit(
        &self,
        name: &str,
        model: IntModel,
        input_dims: &[usize],
    ) -> Result<Arc<AdmittedModel>, AdmissionError> {
        let report = lint_model(&model, input_dims, name);
        let gated = self.gate(name, model, input_dims, report, true)?;
        self.insert(name, input_dims, gated)
    }

    /// Admits a deployment package directory (as written by
    /// `t2c_export::export_package`): reads + checksum-verifies the
    /// binary model, re-derives and re-verifies the hex manifest, then
    /// runs both the graph lint *and* the manifest lint through the gate.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::Package`] when the package fails to read or
    /// verify; otherwise as [`Self::admit`].
    pub fn admit_package(
        &self,
        name: &str,
        dir: &Path,
        input_dims: &[usize],
    ) -> Result<Arc<AdmittedModel>, AdmissionError> {
        let (model, manifest) =
            t2c_export::read_package(dir).map_err(|e| AdmissionError::Package(e.to_string()))?;
        let mut report = lint_model(&model, input_dims, name);
        report.merge(lint_package(&model, &manifest, name));
        let gated = self.gate(name, model, input_dims, report, true)?;
        self.insert(name, input_dims, gated)
    }

    /// Admits a model **without** running the lint gate. Escape hatch for
    /// benchmarks and fault-injection tests; production callers should
    /// always go through [`Self::admit`] / [`Self::admit_package`].
    ///
    /// # Errors
    ///
    /// Structural checks ([`AdmissionError::Duplicate`] /
    /// [`AdmissionError::BadModel`]) still apply, and so does plan
    /// compilation: a model whose static shape walk or weight packing
    /// fails is refused with `BadModel`, never admitted.
    pub fn admit_unchecked(
        &self,
        name: &str,
        model: IntModel,
        input_dims: &[usize],
    ) -> Result<Arc<AdmittedModel>, AdmissionError> {
        let report = LintReport { tag: name.to_string(), ..Default::default() };
        let gated = self.gate(name, model, input_dims, report, false)?;
        self.insert(name, input_dims, gated)
    }

    /// Evicts a model, freeing its storage slot for reuse. Requests
    /// already queued against the evicted [`AdmittedModel`] hold their
    /// own `Arc` and still complete; new submissions see
    /// [`crate::ServeError::ModelNotFound`]. Returns the evicted handle,
    /// or `None` when no model has that name.
    pub fn remove(&self, name: &str) -> Option<Arc<AdmittedModel>> {
        let mut models = self.models.write().unwrap_or_else(PoisonError::into_inner);
        let slot = models.iter().position(|m| m.as_ref().is_some_and(|m| m.name == name))?;
        models[slot].take()
    }

    /// Replaces the named model's graph in place, re-running the full
    /// lint gate against the *existing* declared input shape. The new
    /// instance keeps the storage slot but gets a fresh batching group,
    /// so in-flight batches of the old version can never mix with the
    /// new one; old-`Arc` holders complete against the old graph.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::NotFound`] when no model has that name;
    /// otherwise the same gate errors as [`Self::admit`]. A refused swap
    /// leaves the old model serving, untouched.
    pub fn swap(&self, name: &str, model: IntModel) -> Result<Arc<AdmittedModel>, AdmissionError> {
        let old = self.get(name).ok_or_else(|| AdmissionError::NotFound(name.to_string()))?;
        let input_dims = old.input_dims().to_vec();
        let report = lint_model(&model, &input_dims, name);
        let gated = self.gate(name, model, &input_dims, report, true)?;
        let admitted = self.build(name, &input_dims, gated, old.slot());
        let mut models = self.models.write().unwrap_or_else(PoisonError::into_inner);
        // Re-locate by name under the write lock: a concurrent remove may
        // have raced us, in which case the swap target is gone.
        let Some(slot) = models.iter().position(|m| m.as_ref().is_some_and(|m| m.name == name))
        else {
            return Err(AdmissionError::NotFound(name.to_string()));
        };
        models[slot] = Some(Arc::clone(&admitted));
        Ok(admitted)
    }

    /// Runs the lint + certification gate, the structural checks and plan
    /// compilation; on success returns the model, its plan and its serving
    /// metadata.
    fn gate(
        &self,
        name: &str,
        model: IntModel,
        input_dims: &[usize],
        mut report: LintReport,
        certify: bool,
    ) -> Result<Gated, AdmissionError> {
        // Certify the float↔int divergence bound at admission: the walk is
        // cheap (one interval pass) and the resulting bound feeds the
        // dual-path audit's violation counter even when no tolerance is
        // configured. Its findings join the gate only when the registry
        // was built with an error budget — a report-only default keeps
        // existing admissions byte-identical.
        let mut certified_steps = None;
        if certify {
            let cfg =
                ErrorBoundConfig { tolerance_steps: self.error_tolerance.unwrap_or(f64::INFINITY) };
            let (cert, cert_lint) = certify_model(&model, input_dims, cfg, name);
            certified_steps = cert.certified().then_some(cert.end_to_end_steps);
            if self.error_tolerance.is_some() {
                report.merge(cert_lint);
            }
        }
        if report.error_count() > 0 {
            let first = report
                .diagnostics
                .iter()
                .find(|d| d.severity == Severity::Error)
                .map(|d| format!("{}: {}", d.rule.id(), d.message))
                .unwrap_or_default();
            return Err(AdmissionError::LintGate {
                model: name.to_string(),
                errors: report.error_count(),
                rules: error_rules(&report),
                first,
            });
        }
        if input_dims.is_empty() || input_dims[0] != 1 {
            return Err(AdmissionError::BadModel(format!(
                "input dims {input_dims:?} must lead with a batch axis of 1"
            )));
        }
        let Some(IntOp::Quantize { scale, spec }) = model.nodes.first().map(|n| &n.op) else {
            return Err(AdmissionError::BadModel("model must start with a Quantize node".into()));
        };
        let (input_scale, input_spec) = (*scale, *spec);
        // Compile or refuse: the plan (fused epilogues + arena layout,
        // packed dense weights) is the only serving executor, so a graph
        // that does not lower is not servable. The lint/certification
        // verdicts above apply verbatim — the graph is untouched. Compile
        // infers shapes statically and executes nothing, so a model that
        // skipped the lint gate (`admit_unchecked`) is refused with a
        // structured error, never a panic.
        let plan = model
            .compile(input_dims)
            .map_err(|e| AdmissionError::BadModel(format!("plan compilation failed: {e}")))?;
        if t2c_obs::enabled() {
            t2c_obs::counter_add("serve.plans_compiled", 1);
        }
        Ok(Gated { model, plan, lint: report, input_scale, input_spec, certified_steps })
    }

    fn build(
        &self,
        name: &str,
        input_dims: &[usize],
        gated: Gated,
        slot: usize,
    ) -> Arc<AdmittedModel> {
        Arc::new(AdmittedModel {
            name: name.to_string(),
            model: gated.model,
            plan: gated.plan,
            input_dims: input_dims.to_vec(),
            lint: gated.lint,
            slot,
            group: self.next_group.fetch_add(1, Ordering::Relaxed),
            input_scale: gated.input_scale,
            input_spec: gated.input_spec,
            certified_steps: gated.certified_steps,
            quarantined: AtomicBool::new(false),
            breaker: Mutex::new(BreakerState::Closed),
            panics: AtomicU32::new(0),
        })
    }

    fn insert(
        &self,
        name: &str,
        input_dims: &[usize],
        gated: Gated,
    ) -> Result<Arc<AdmittedModel>, AdmissionError> {
        let mut models = self.models.write().unwrap_or_else(PoisonError::into_inner);
        if models.iter().any(|m| m.as_ref().is_some_and(|m| m.name == name)) {
            return Err(AdmissionError::Duplicate(name.to_string()));
        }
        // Reuse the first evicted slot; extend the storage only when full.
        let slot = models.iter().position(Option::is_none).unwrap_or(models.len());
        let admitted = self.build(name, input_dims, gated, slot);
        if slot == models.len() {
            models.push(Some(Arc::clone(&admitted)));
        } else {
            models[slot] = Some(Arc::clone(&admitted));
        }
        Ok(admitted)
    }

    /// Looks a model up by name.
    pub fn get(&self, name: &str) -> Option<Arc<AdmittedModel>> {
        let models = self.models.read().unwrap_or_else(PoisonError::into_inner);
        models.iter().flatten().find(|m| m.name == name).cloned()
    }

    /// Looks a model up by storage slot.
    pub fn by_slot(&self, slot: usize) -> Option<Arc<AdmittedModel>> {
        let models = self.models.read().unwrap_or_else(PoisonError::into_inner);
        models.get(slot).and_then(Option::clone)
    }

    /// Admitted model names, in slot order.
    pub fn names(&self) -> Vec<String> {
        let models = self.models.read().unwrap_or_else(PoisonError::into_inner);
        models.iter().flatten().map(|m| m.name.clone()).collect()
    }

    /// Number of admitted models.
    pub fn len(&self) -> usize {
        let models = self.models.read().unwrap_or_else(PoisonError::into_inner);
        models.iter().flatten().count()
    }

    /// True when no model is admitted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-model health snapshot: `(name, poisoned, panic_count)`.
    pub fn health(&self) -> BTreeMap<String, (bool, u32)> {
        let models = self.models.read().unwrap_or_else(PoisonError::into_inner);
        models
            .iter()
            .flatten()
            .map(|m| (m.name.clone(), (m.is_poisoned(), m.panic_count())))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use t2c_core::intmodel::{LinearWeight, Src};
    use t2c_core::zoo;
    use t2c_tensor::ops::PoolSpec;

    #[test]
    fn clean_model_is_admitted_with_its_lint_report() {
        let reg = ModelRegistry::new();
        let (m, dims) = zoo::tiny_mlp();
        let admitted = reg.admit("mlp", m, &dims).expect("tiny_mlp must pass the gate");
        assert_eq!(admitted.name(), "mlp");
        assert_eq!(admitted.lint().error_count(), 0);
        assert_eq!(reg.names(), vec!["mlp".to_string()]);
        assert!(reg.get("mlp").is_some());
        assert!(reg.get("nope").is_none());
    }

    #[test]
    fn error_level_finding_is_refused_naming_the_rule_id() {
        // Inject a T2C002 (dangling source): fc1 reads node 5 which does
        // not exist.
        let (mut m, dims) = zoo::tiny_mlp();
        m.nodes[1].inputs = vec![Src::Node(5)];
        let reg = ModelRegistry::new();
        let err = reg.admit("bad", m, &dims).unwrap_err();
        let AdmissionError::LintGate { model, errors, rules, first } = err else {
            panic!("expected LintGate rejection");
        };
        assert_eq!(model, "bad");
        assert!(errors >= 1);
        assert!(rules.contains(&"T2C002"), "rules {rules:?} should name T2C002");
        assert!(first.contains("T2C002"), "first finding should carry the rule id: {first}");
        assert!(reg.is_empty(), "rejected model must not be registered");
    }

    #[test]
    fn sparse_model_is_admitted_through_the_same_gate() {
        let reg = ModelRegistry::new();
        for (name, (m, dims)) in
            [("mlp-sparse", zoo::tiny_mlp_pruned(0.8)), ("mlp-nm", zoo::tiny_mlp_nm(2, 4))]
        {
            let admitted = reg.admit(name, m, &dims).expect("sparse zoo model must pass the gate");
            assert_eq!(admitted.lint().error_count(), 0);
            assert_eq!(admitted.model().nodes[1].op.label(), "linear_sparse");
        }
    }

    #[test]
    fn sparse_package_is_admitted_from_disk() {
        let dir = std::env::temp_dir().join(format!("t2c_serve_sparse_{}", std::process::id()));
        let (m, dims) = zoo::tiny_mlp_pruned(0.8);
        t2c_export::export_package(&m, &dir).unwrap();
        let reg = ModelRegistry::new();
        let admitted = reg.admit_package("mlp-sparse-pkg", &dir, &dims).expect("package admission");
        // The served graph is the round-tripped one — same outputs.
        let x = Tensor::from_fn(&dims, |i| (i as f32) * 0.011 - 0.2);
        assert_eq!(m.run(&x).unwrap().as_slice(), admitted.model().run(&x).unwrap().as_slice());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drifted_sparsity_declaration_is_refused_with_t2c503() {
        let (mut m, dims) = zoo::tiny_mlp_pruned(0.8);
        if let IntOp::Linear { weight: LinearWeight::Sparse { declared_sparsity, .. }, .. } =
            &mut m.nodes[1].op
        {
            *declared_sparsity -= 0.3;
        } else {
            panic!("fc1 should be sparse");
        }
        let reg = ModelRegistry::new();
        let err = reg.admit("drift", m, &dims).unwrap_err();
        let AdmissionError::LintGate { rules, .. } = err else {
            panic!("expected LintGate rejection");
        };
        assert!(rules.contains(&"T2C503"), "rules {rules:?} should name T2C503");
        assert!(reg.is_empty());
    }

    #[test]
    fn admission_stores_the_certified_error_bound() {
        let reg = ModelRegistry::new();
        let (m, dims) = zoo::tiny_mlp();
        let admitted = reg.admit("mlp", m, &dims).unwrap();
        let steps = admitted.certified_error_steps().expect("tiny_mlp certifies finitely");
        assert!(steps.is_finite() && steps > 0.0);
        // The escape hatch skips certification entirely.
        let (m2, dims2) = zoo::tiny_mlp();
        let raw = reg.admit_unchecked("mlp-raw", m2, &dims2).unwrap();
        assert_eq!(raw.certified_error_steps(), None);
    }

    #[test]
    fn error_tolerance_gate_refuses_a_mis_scaled_model_with_t2c602() {
        // Derive the budget from the clean model's own certificate so the
        // test tracks the zoo rather than a magic number.
        let (clean, dims) = zoo::tiny_mlp();
        let (clean_cert, _) =
            t2c_lint::certify_model(&clean, &dims, t2c_lint::ErrorBoundConfig::default(), "clean");
        let tolerance = clean_cert.end_to_end_steps * 1.5;
        let reg = ModelRegistry::with_error_tolerance(tolerance);
        reg.admit("mlp", clean, &dims).expect("clean model fits its own budget");

        // A 4× mis-scaled fc1 requantizer passes the structural lint
        // (T2C201 only warns) but blows the certified error budget.
        let (mut bad, dims) = zoo::tiny_mlp();
        let IntOp::Linear { requant: Some(mq), .. } = &mut bad.nodes[1].op else {
            panic!("fc1 should be a requantized linear");
        };
        for s in &mut mq.scale_raw {
            *s *= 4;
        }
        let err = reg.admit("mlp-bad", bad, &dims).unwrap_err();
        let AdmissionError::LintGate { rules, first, .. } = err else {
            panic!("expected LintGate rejection");
        };
        assert!(rules.contains(&"T2C602"), "rules {rules:?} should name T2C602");
        assert!(first.contains("fc1"), "rejection should name the offending layer: {first}");
        assert_eq!(reg.names(), vec!["mlp".to_string()]);
    }

    #[test]
    fn admission_compiles_a_plan_that_matches_the_interpreter() {
        let reg = ModelRegistry::new();
        let (m, dims) = zoo::tiny_mlp();
        let admitted = reg.admit("mlp", m, &dims).unwrap();
        let plan = admitted.plan().expect("tiny_mlp must compile");
        let x = Tensor::from_fn(&[3usize, 256], |i| (i as f32) * 0.017 - 0.9);
        let codes = admitted.quantize(&x);
        let want = admitted.model().run_quantized(&codes).unwrap();
        let mut arena = t2c_core::Arena::new();
        let got = plan.run_quantized(&codes, &mut arena).unwrap();
        assert_eq!(got.as_slice(), want.as_slice());
        assert_eq!(got.dims(), want.dims());
    }

    /// A model whose GeluLut table holds one entry: every input code but
    /// −128 would index out of bounds. The lint gate refuses it (T2C301),
    /// and so does plan compilation.
    fn one_entry_lut_model() -> IntModel {
        let spec = QuantSpec::signed(8);
        let mut m = IntModel::new();
        m.push("input", IntOp::Quantize { scale: 0.01, spec }, vec![]);
        m.push(
            "boom",
            IntOp::GeluLut(t2c_core::lut::GeluLut {
                table: vec![0],
                in_spec: spec,
                in_scale: 0.01,
                out_spec: spec,
                out_scale: 0.01,
            }),
            vec![Src::Node(0)],
        );
        m
    }

    #[test]
    fn uncompilable_model_is_refused_through_admit_unchecked() {
        // Flatten → MaxPool: the pool reads a rank-2 tensor, which the
        // static shape walk inside compile refuses.
        let spec = QuantSpec::signed(8);
        let mut m = IntModel::new();
        m.push("input", IntOp::Quantize { scale: 0.01, spec }, vec![]);
        m.push("flat", IntOp::Flatten, vec![Src::Node(0)]);
        m.push("pool", IntOp::MaxPool2d { spec: PoolSpec::new(2) }, vec![Src::Node(1)]);
        let reg = ModelRegistry::new();
        let err = reg.admit_unchecked("boom", m, &[1, 1, 4, 4]).unwrap_err();
        let AdmissionError::BadModel(msg) = err else {
            panic!("expected BadModel, got {err:?}");
        };
        assert!(msg.starts_with("plan compilation failed"), "refusal must name the cause: {msg}");
        // A one-entry GELU table would index out of bounds in the worker;
        // compilation refuses it even without the lint gate.
        let err = reg.admit_unchecked("short-lut", one_entry_lut_model(), &[1, 8]).unwrap_err();
        let AdmissionError::BadModel(msg) = err else {
            panic!("expected BadModel, got {err:?}");
        };
        assert!(msg.contains("GELU table has 1 entries"), "refusal must name the table: {msg}");
        assert!(reg.is_empty(), "a refused model must not be registered");
    }

    #[test]
    fn swap_to_an_uncompilable_model_is_refused_and_the_old_version_serves() {
        let reg = ModelRegistry::new();
        let (v1, dims) = zoo::tiny_mlp();
        let old = reg.admit("mlp", v1, &dims).unwrap();
        // The 1-entry table is already refused by the lint gate (T2C301).
        let err = reg.swap("mlp", one_entry_lut_model()).unwrap_err();
        assert!(matches!(err, AdmissionError::LintGate { .. }), "got {err:?}");
        // A zero-width head is a shape error the lint gate names (T2C005);
        // skipping the gate, plan compilation refuses it with BadModel.
        let spec = QuantSpec::signed(8);
        let mut empty_head = IntModel::new();
        empty_head.push("input", IntOp::Quantize { scale: 0.01, spec }, vec![]);
        empty_head.push(
            "head",
            IntOp::Linear {
                weight: Tensor::zeros(&[0, dims[1]]).into(),
                bias: None,
                requant: None,
                relu: false,
                weight_spec: spec,
            },
            vec![Src::Node(0)],
        );
        let err = reg.swap("mlp", empty_head.clone()).unwrap_err();
        let AdmissionError::LintGate { rules, .. } = err else {
            panic!("expected LintGate, got {err:?}");
        };
        assert!(rules.contains(&"T2C005"), "rules {rules:?} should name T2C005");
        let err = reg.admit_unchecked("empty-head", empty_head, &dims).unwrap_err();
        let AdmissionError::BadModel(msg) = err else {
            panic!("expected BadModel, got {err:?}");
        };
        assert!(msg.starts_with("plan compilation failed"), "refusal must name the cause: {msg}");
        // Both refusals left the old version serving.
        let current = reg.get("mlp").unwrap();
        assert_eq!(current.group(), old.group(), "a refused swap must leave the old version");
        let codes = current.quantize(&Tensor::from_fn(&dims, |i| (i as f32) * 0.013 - 0.4));
        let want = old.model().run_quantized(&codes).unwrap();
        let got = current.plan().unwrap().run_quantized(&codes, &mut t2c_core::Arena::new());
        assert_eq!(got.unwrap().as_slice(), want.as_slice());
    }

    #[test]
    fn duplicate_names_are_refused() {
        let reg = ModelRegistry::new();
        let (m, dims) = zoo::tiny_mlp();
        reg.admit("mlp", m.clone(), &dims).unwrap();
        assert!(matches!(reg.admit("mlp", m, &dims), Err(AdmissionError::Duplicate(_))));
    }

    #[test]
    fn quantize_dequantize_round_trip_on_grid() {
        let reg = ModelRegistry::new();
        let (m, dims) = zoo::tiny_mlp();
        let admitted = reg.admit("mlp", m, &dims).unwrap();
        let x = Tensor::from_fn(&dims, |i| (i as f32) * 0.013 - 0.4);
        let codes = admitted.quantize(&x);
        let spec = admitted.input_spec();
        assert!(codes.as_slice().iter().all(|&c| c >= spec.qmin() && c <= spec.qmax()));
        // quantize(dequantize(codes)) is the identity on the grid.
        let again = admitted.quantize(&admitted.dequantize(&codes));
        assert_eq!(again.as_slice(), codes.as_slice());
    }

    #[test]
    fn remove_frees_the_slot_and_a_new_admission_reuses_it() {
        let reg = ModelRegistry::new();
        let (a, dims) = zoo::tiny_mlp();
        let (b, _) = zoo::tiny_mlp();
        let (c, _) = zoo::tiny_mlp();
        let first = reg.admit("a", a, &dims).unwrap();
        let second = reg.admit("b", b, &dims).unwrap();
        assert_eq!((first.slot(), second.slot()), (0, 1));
        let evicted = reg.remove("a").expect("a was admitted");
        assert_eq!(evicted.name(), "a");
        assert!(reg.get("a").is_none());
        assert_eq!(reg.len(), 1);
        assert!(reg.remove("a").is_none(), "double-remove is a no-op");
        // The freed slot is reused, but the batching group is fresh: the
        // batcher can never coalesce the evicted model's queued tickets
        // with the slot successor's.
        let third = reg.admit("c", c, &dims).unwrap();
        assert_eq!(third.slot(), 0, "slot 0 must be reused");
        assert_ne!(third.group(), evicted.group(), "groups must never be reused");
        // The evicted Arc still runs — in-flight work completes.
        let x = Tensor::from_fn(&dims, |i| (i as f32) * 0.01 - 0.3);
        assert!(evicted.model().run(&x).is_ok());
    }

    #[test]
    fn swap_replaces_in_place_through_the_gate_with_a_fresh_group() {
        let reg = ModelRegistry::new();
        let (v1, dims) = zoo::tiny_mlp();
        let old = reg.admit("mlp", v1, &dims).unwrap();
        // v2 is an actually-different graph (pruned fc1) with the same
        // input shape: outputs diverge, which is how the test tells the
        // versions apart.
        let (v2, _) = zoo::tiny_mlp_pruned(0.5);
        let new = reg.swap("mlp", v2).expect("pruned tiny_mlp passes the gate");
        assert_eq!(new.slot(), old.slot(), "swap keeps the storage slot");
        assert_ne!(new.group(), old.group(), "swap must issue a fresh batching group");
        assert_eq!(reg.len(), 1);
        let x = Tensor::from_fn(&dims, |i| (i as f32) * 0.013 - 0.4);
        let codes = old.quantize(&x);
        let old_out = old.model().run_quantized(&codes).unwrap();
        let new_out = reg.get("mlp").unwrap().model().run_quantized(&codes).unwrap();
        assert_ne!(old_out.as_slice(), new_out.as_slice(), "v2 must actually differ");
        // A failing swap leaves the current model untouched.
        let (mut broken, _) = zoo::tiny_mlp();
        broken.nodes[1].inputs = vec![Src::Node(9)];
        assert!(matches!(reg.swap("mlp", broken), Err(AdmissionError::LintGate { .. })));
        let (fresh, _) = zoo::tiny_mlp();
        assert!(matches!(reg.swap("ghost", fresh), Err(AdmissionError::NotFound(_))));
        assert_eq!(
            reg.get("mlp").unwrap().model().run_quantized(&codes).unwrap().as_slice(),
            new_out.as_slice()
        );
    }

    #[test]
    fn circuit_breaker_poisons_after_the_panic_budget() {
        let reg = ModelRegistry::new();
        let (m, dims) = zoo::tiny_mlp();
        let admitted = reg.admit("mlp", m, &dims).unwrap();
        assert!(!admitted.is_poisoned());
        assert_eq!(admitted.record_panic(3, 10), 1);
        assert_eq!(admitted.record_panic(3, 20), 2);
        assert!(!admitted.is_poisoned());
        assert_eq!(admitted.record_panic(3, 30), 3);
        assert!(admitted.is_poisoned());
        assert_eq!(reg.health()["mlp"], (true, 3));
    }

    #[test]
    fn breaker_walks_closed_open_half_open_closed_on_a_good_probe() {
        let reg = ModelRegistry::new();
        let (m, dims) = zoo::tiny_mlp();
        let admitted = reg.admit("mlp", m, &dims).unwrap();
        let cooldown = 1_000u64;
        // Closed: everything admits.
        assert_eq!(admitted.breaker_admit(0, cooldown), BreakerDecision::Admit);
        // Trip at t=100.
        admitted.record_panic(1, 100);
        assert!(admitted.is_poisoned() && admitted.breaker_is_open());
        // Open: rejected until the cooldown elapses.
        assert_eq!(admitted.breaker_admit(500, cooldown), BreakerDecision::Reject);
        assert_eq!(admitted.breaker_admit(1_099, cooldown), BreakerDecision::Reject);
        // Cooldown over: exactly one probe, everyone else still rejected.
        assert_eq!(admitted.breaker_admit(1_100, cooldown), BreakerDecision::Probe);
        assert!(!admitted.breaker_is_open(), "half-open must let the probe batch run");
        assert_eq!(admitted.breaker_admit(1_101, cooldown), BreakerDecision::Reject);
        // Probe succeeds: breaker closes, panic budget resets.
        admitted.breaker_on_success();
        assert!(!admitted.is_poisoned());
        assert_eq!(admitted.panic_count(), 0);
        assert_eq!(admitted.breaker_admit(1_200, cooldown), BreakerDecision::Admit);
    }

    #[test]
    fn failed_probe_reopens_for_another_cooldown() {
        let reg = ModelRegistry::new();
        let (m, dims) = zoo::tiny_mlp();
        let admitted = reg.admit("mlp", m, &dims).unwrap();
        let cooldown = 1_000u64;
        admitted.record_panic(1, 0);
        assert_eq!(admitted.breaker_admit(1_000, cooldown), BreakerDecision::Probe);
        // The probe itself panics: straight back to open, timed from the
        // failure — the next probe needs a full fresh cooldown.
        admitted.record_panic(1, 1_050);
        assert!(admitted.breaker_is_open());
        assert_eq!(admitted.breaker_admit(1_100, cooldown), BreakerDecision::Reject);
        assert_eq!(admitted.breaker_admit(2_050, cooldown), BreakerDecision::Probe);
        // A wedged half-open (probe lost in the queue) re-arms after
        // another cooldown instead of staying stuck forever.
        assert_eq!(admitted.breaker_admit(2_100, cooldown), BreakerDecision::Reject);
        assert_eq!(admitted.breaker_admit(3_050, cooldown), BreakerDecision::Probe);
        // Cooldown 0 never recovers (the pre-cooldown contract).
        admitted.record_panic(1, 3_060);
        assert_eq!(admitted.breaker_admit(u64::MAX, 0), BreakerDecision::Reject);
    }
}
