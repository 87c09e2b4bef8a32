//! Zero-cost-when-disabled observability for the Torch2Chip stack.
//!
//! The crate is a process-wide metrics registry with four primitive kinds:
//!
//! * **counters** — monotonically increasing `u64` totals (MACs, bytes
//!   moved, elements written, saturation events),
//! * **gauges** — last-write-wins `f64` values (observer ranges, dual-path
//!   error, MAC-array utilization),
//! * **histograms** — streaming log2-bucketed distributions (per-kernel and
//!   per-layer wall time in nanoseconds),
//! * **series** — bounded append-only `f64` sequences (per-epoch loss /
//!   accuracy / gradient-norm / step-time curves).
//!
//! Everything is gated behind the `T2C_PROFILE` environment variable (or an
//! explicit [`set_enabled`] call). The [`enabled`] fast path is a single
//! relaxed atomic load, so an instrumented scope on the disabled path costs
//! one branch — no allocation, no clock read, no lock. This is the contract
//! the tensor kernels rely on to keep their benchmarks honest.
//!
//! A snapshot of the registry is taken with [`report::Report::capture`] and
//! rendered as text or JSON; bench bins dump it under
//! `bench_results/profile_<tag>.json` via [`report::dump`].
//!
//! ```
//! t2c_obs::set_enabled(true);
//! t2c_obs::reset();
//! {
//!     let _t = t2c_obs::Timer::scoped("kernel.demo.time_ns");
//!     t2c_obs::counter_add("kernel.demo.macs", 1024);
//! }
//! let report = t2c_obs::report::Report::capture("doc");
//! assert_eq!(report.counters["kernel.demo.macs"], 1024);
//! assert!(report.histograms.contains_key("kernel.demo.time_ns"));
//! t2c_obs::set_enabled(false);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod rate;
pub mod report;

pub use rate::RateWindow;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Tri-state profile flag: 0 = unresolved, 1 = disabled, 2 = enabled.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// Cap on the number of points a single series retains (oldest kept).
const SERIES_CAP: usize = 4096;

/// Number of log2 buckets in a streaming histogram; covers `u64` magnitudes.
pub const HIST_BUCKETS: usize = 64;

/// Whether profiling is active.
///
/// Resolution: an explicit [`set_enabled`] call wins; otherwise the
/// `T2C_PROFILE` environment variable is consulted **once** and cached —
/// set (and not `""`/`"0"`/`"false"`/`"off"`) means enabled. After the
/// first call this is a single relaxed atomic load plus one branch, which
/// is the entire cost of every instrumented scope on the disabled path.
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => resolve_from_env(),
    }
}

#[cold]
fn resolve_from_env() -> bool {
    let on = std::env::var("T2C_PROFILE").is_ok_and(|v| {
        let v = v.trim().to_ascii_lowercase();
        !(v.is_empty() || v == "0" || v == "false" || v == "off")
    });
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    on
}

/// Forces profiling on or off, overriding `T2C_PROFILE`.
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Streaming histogram: count/sum/min/max plus log2 magnitude buckets.
#[derive(Debug, Clone)]
pub struct Hist {
    /// Number of recorded observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// `buckets[i]` counts observations whose integer magnitude has
    /// bit-length `i` (bucket 0 holds values below 1).
    pub buckets: [u64; HIST_BUCKETS],
}

impl Hist {
    fn new() -> Self {
        Hist { count: 0, sum: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY, buckets: [0; 64] }
    }

    fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        let mag = if v.is_finite() && v > 0.0 { v as u64 } else { 0 };
        let idx = (u64::BITS - mag.leading_zeros()) as usize;
        self.buckets[idx.min(HIST_BUCKETS - 1)] += 1;
    }

    /// Approximate quantile from the log2 buckets, clamped to the exact
    /// observed `[min, max]`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                // Geometric midpoint of bucket i: values in [2^(i-1), 2^i).
                let est = if i == 0 { 0.5 } else { 1.5 * (1u64 << (i - 1)) as f64 };
                return est.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Mean of all observations.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

#[derive(Default)]
struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Hist>,
    series: BTreeMap<String, Vec<f64>>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

fn with_registry(f: impl FnOnce(&mut Registry)) {
    if let Ok(mut reg) = registry().lock() {
        f(&mut reg);
    }
}

/// Adds `delta` to the named counter. No-op (one branch) when disabled.
#[inline]
pub fn counter_add(name: &str, delta: u64) {
    if enabled() {
        with_registry(|r| {
            *r.counters.entry(name.to_owned()).or_insert(0) += delta;
        });
    }
}

/// Sets the named gauge. No-op (one branch) when disabled.
#[inline]
pub fn gauge_set(name: &str, value: f64) {
    if enabled() {
        with_registry(|r| {
            r.gauges.insert(name.to_owned(), value);
        });
    }
}

/// Records one observation into the named histogram. No-op when disabled.
#[inline]
pub fn record(name: &str, value: f64) {
    if enabled() {
        with_registry(|r| {
            r.histograms.entry(name.to_owned()).or_insert_with(Hist::new).record(value);
        });
    }
}

/// Appends one point to the named series (capped at [`SERIES_CAP`] points).
/// No-op when disabled.
#[inline]
pub fn series_push(name: &str, value: f64) {
    if enabled() {
        with_registry(|r| {
            let s = r.series.entry(name.to_owned()).or_default();
            if s.len() < SERIES_CAP {
                s.push(value);
            }
        });
    }
}

/// Clears every metric; the enabled flag is untouched.
pub fn reset() {
    with_registry(|r| *r = Registry::default());
}

/// RAII scoped timer: on drop, records the elapsed wall time in nanoseconds
/// into the named histogram.
///
/// When profiling is disabled, construction is a single branch — no clock
/// read, no name materialization, no allocation.
#[must_use = "a timer measures the scope it is bound to; binding to _ drops it immediately"]
pub struct Timer(Option<(String, Instant)>);

impl Timer {
    /// Starts a timer recording into histogram `name`.
    #[inline]
    pub fn scoped(name: impl Into<String>) -> Timer {
        if enabled() {
            Timer(Some((name.into(), Instant::now())))
        } else {
            Timer(None)
        }
    }

    /// Starts a timer whose name is built lazily — the closure only runs
    /// when profiling is enabled, so dynamic names (e.g. per-layer) cost
    /// nothing on the disabled path.
    #[inline]
    pub fn scoped_with(name: impl FnOnce() -> String) -> Timer {
        if enabled() {
            Timer(Some((name(), Instant::now())))
        } else {
            Timer(None)
        }
    }
}

impl Drop for Timer {
    fn drop(&mut self) {
        if let Some((name, start)) = self.0.take() {
            record(&name, start.elapsed().as_nanos() as f64);
        }
    }
}

/// A 1-in-N sampler for expensive audit paths on hot request flows.
///
/// Production systems cannot afford to re-verify every request, but a
/// *sampled* re-verification turns steady traffic into a continuous
/// silent-corruption canary. `SampledAudit` is the counting half of that
/// pattern: every call to [`SampledAudit::should_sample`] increments an
/// atomic counter, and every `N`-th call returns `true` — the caller then
/// runs its expensive check (e.g. a dual-path divergence re-run) and
/// records the result as a gauge.
///
/// Unlike the metric primitives this is **not** gated on the profile flag:
/// sampling decisions must stay deterministic whether or not a report is
/// being captured. The gauge writes the caller makes remain gated as usual.
///
/// The serving runtime layers a second use on top: when the audited model
/// carries a static quantization-error certificate (DESIGN.md §6.11), the
/// sampled plan↔interpreter check also compares observed absolute
/// divergence against the certified bound
/// (`serve.audit_certificate_violations`). Both audited paths are
/// integer, so this catches plan or kernel faults, not quantization
/// error.
///
/// ```
/// let audit = t2c_obs::SampledAudit::new(3);
/// let fired: Vec<bool> = (0..6).map(|_| audit.should_sample()).collect();
/// assert_eq!(fired, [true, false, false, true, false, false]);
/// ```
#[derive(Debug)]
pub struct SampledAudit {
    every: u64,
    calls: std::sync::atomic::AtomicU64,
}

impl SampledAudit {
    /// Creates a sampler firing on the 1st, `N+1`-th, `2N+1`-th … call.
    /// `every = 0` is treated as "never sample".
    pub fn new(every: u64) -> Self {
        SampledAudit { every, calls: std::sync::atomic::AtomicU64::new(0) }
    }

    /// Counts one event; `true` when this event is in the 1-in-N sample.
    /// Thread-safe: concurrent callers each observe a distinct ticket.
    pub fn should_sample(&self) -> bool {
        if self.every == 0 {
            return false;
        }
        self.calls.fetch_add(1, Ordering::Relaxed).is_multiple_of(self.every)
    }

    /// Total events counted so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// The configured sampling period.
    pub fn period(&self) -> u64 {
        self.every
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the enabled-flag-sensitive tests; the flag and registry
    /// are process-wide.
    pub(crate) fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_path_records_nothing() {
        let _g = lock();
        set_enabled(false);
        reset();
        counter_add("c", 5);
        gauge_set("g", 1.0);
        record("h", 2.0);
        series_push("s", 3.0);
        let _t = Timer::scoped_with(|| panic!("name closure must not run when disabled"));
        set_enabled(true);
        let rep = report::Report::capture("t");
        set_enabled(false);
        assert!(rep.counters.is_empty() && rep.gauges.is_empty());
        assert!(rep.histograms.is_empty() && rep.series.is_empty());
    }

    #[test]
    fn metrics_accumulate_when_enabled() {
        let _g = lock();
        set_enabled(true);
        reset();
        counter_add("ops.macs", 10);
        counter_add("ops.macs", 32);
        gauge_set("util", 0.5);
        gauge_set("util", 0.75);
        for v in [1.0, 100.0, 10_000.0] {
            record("lat", v);
        }
        series_push("loss", 2.0);
        series_push("loss", 1.0);
        {
            let _t = Timer::scoped("timed");
        }
        let rep = report::Report::capture("t");
        set_enabled(false);
        assert_eq!(rep.counters["ops.macs"], 42);
        assert!((rep.gauges["util"] - 0.75).abs() < 1e-12);
        let h = &rep.histograms["lat"];
        assert_eq!(h.count, 3);
        assert!((h.min - 1.0).abs() < 1e-12 && (h.max - 10_000.0).abs() < 1e-12);
        assert!((h.mean() - 10_101.0 / 3.0).abs() < 1e-9);
        assert_eq!(rep.series["loss"], vec![2.0, 1.0]);
        assert_eq!(rep.histograms["timed"].count, 1);
    }

    #[test]
    fn sampled_audit_fires_one_in_n() {
        let audit = SampledAudit::new(4);
        let fired: Vec<bool> = (0..9).map(|_| audit.should_sample()).collect();
        assert_eq!(fired, [true, false, false, false, true, false, false, false, true]);
        assert_eq!(audit.calls(), 9);
        assert_eq!(audit.period(), 4);
        // every = 0 → never; every = 1 → always.
        let never = SampledAudit::new(0);
        assert!((0..5).all(|_| !never.should_sample()));
        let always = SampledAudit::new(1);
        assert!((0..5).all(|_| always.should_sample()));
    }

    #[test]
    fn sampled_audit_counts_across_threads() {
        let audit = std::sync::Arc::new(SampledAudit::new(10));
        let hits: u64 = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let a = audit.clone();
                    s.spawn(move || (0..25).filter(|_| a.should_sample()).count() as u64)
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        // 100 tickets at 1-in-10 → exactly 10 sampled, however the
        // tickets interleave.
        assert_eq!(audit.calls(), 100);
        assert_eq!(hits, 10);
    }

    #[test]
    fn quantiles_stay_within_observed_range() {
        let mut h = Hist::new();
        for v in [10.0, 20.0, 3000.0] {
            h.record(v);
        }
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            let p = h.quantile(q);
            assert!((10.0..=3000.0).contains(&p), "q={q} -> {p}");
        }
        assert!(h.quantile(0.5) <= h.quantile(0.99));
    }
}
