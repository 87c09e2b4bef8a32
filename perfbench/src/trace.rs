//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into each
//! layer's public API: name, start, end, parent span and request id. They
//! stay in memory while the run measures and are written out once at the
//! end. A layer's *self time* is its span's duration minus the part of that
//! interval its child spans cover.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. `parent == 0` marks a root; `req == 0` a span that
/// belongs to no request (set-up, the layer sweep, rolling updates).
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub model: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The span store. Recording is off until [`Tracer::set_enabled`]; while
/// off, [`Tracer::time`] costs one atomic load beyond the timed call.
pub struct Tracer {
    epoch: Instant,
    on: AtomicBool,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            on: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    pub fn set_enabled(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Nanoseconds since the tracer's epoch (process start).
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Reserves a span id, so a child recorded first (on another thread,
    /// across the wire) can name its parent.
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Stores a finished span under a reserved id.
    pub fn record(&self, span: Span) {
        if self.enabled() {
            self.spans.lock().expect("span store poisoned").push(span);
        }
    }

    /// Times `f` as a span named `name` and returns its result with the
    /// measured duration in milliseconds (measured whether or not
    /// recording is on).
    pub fn time<R>(
        &self,
        name: &'static str,
        model: &str,
        parent: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        if self.enabled() {
            let id = self.next_id();
            self.record(Span {
                id,
                parent,
                req: 0,
                name,
                model: model.to_string(),
                start_ns,
                end_ns,
            });
        }
        (out, end_ns.saturating_sub(start_ns) as f64 / 1e6)
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span store poisoned"))
    }
}

/// Self time of every span, in milliseconds, keyed by span id.
pub fn self_times(spans: &[Span]) -> HashMap<u64, f64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                // Union of the children's intervals, clipped to the parent.
                let mut cur: Option<(u64, u64)> = None;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                    if a >= b {
                        continue;
                    }
                    cur = match cur {
                        Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
            }
            let dur = s.end_ns.saturating_sub(s.start_ns);
            (s.id, dur.saturating_sub(covered) as f64 / 1e6)
        })
        .collect()
}

/// Self times grouped by `(span name, model)`.
pub fn self_times_by_name(spans: &[Span]) -> BTreeMap<(&'static str, String), Vec<f64>> {
    let own = self_times(spans);
    let mut out: BTreeMap<(&'static str, String), Vec<f64>> = BTreeMap::new();
    for s in spans {
        out.entry((s.name, s.model.clone())).or_default().push(own[&s.id]);
    }
    out
}

/// Writes the spans as one JSON document.
pub fn write_json(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut s = String::with_capacity(spans.len() * 120 + 64);
    s.push_str("{\"spans\": [\n");
    for (i, sp) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "  {{\"id\": {}, \"parent\": {}, \"req\": {}, \"name\": \"{}\", \"model\": \"{}\", \
             \"start_ns\": {}, \"end_ns\": {}}}{sep}",
            sp.id, sp.parent, sp.req, sp.name, sp.model, sp.start_ns, sp.end_ns
        );
    }
    s.push_str("]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, req: 1, name: "x", model: String::new(), start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent 0..100 with overlapping children 10..30 and 20..50, and a
        // disjoint child 60..70: covered = 40 + 10 = 50.
        let spans =
            vec![span(1, 0, 0, 100), span(2, 1, 10, 30), span(3, 1, 20, 50), span(4, 1, 60, 70)];
        let own = self_times(&spans);
        assert!((own[&1] - 50e-6).abs() < 1e-12);
        assert!((own[&2] - 20e-6).abs() < 1e-12);
    }
}
