//! Monotonic time source abstraction.
//!
//! The scheduler never reads wall time directly — every timing decision
//! (deadlines, breaker cooldowns, latency stamps) goes through a
//! [`Clock`], so tests can drive the runtime with a [`FakeClock`] and
//! assert expiry behavior deterministically, without sleeping.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic nanosecond counter. `0` is the clock's own epoch (process
/// start for [`SystemClock`]); only differences are meaningful.
pub trait Clock: Send + Sync {
    /// Nanoseconds since the clock's epoch.
    fn now_ns(&self) -> u64;
}

/// The production clock: `Instant`-based monotonic nanoseconds.
#[derive(Debug)]
pub struct SystemClock {
    origin: Instant,
}

impl SystemClock {
    /// A clock whose epoch is "now".
    pub fn new() -> Self {
        SystemClock { origin: Instant::now() }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for SystemClock {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A manually-advanced clock for deterministic scheduler tests.
#[derive(Debug, Default)]
pub struct FakeClock {
    now: AtomicU64,
}

impl FakeClock {
    /// A fake clock starting at `start_ns`.
    pub fn new(start_ns: u64) -> Self {
        FakeClock { now: AtomicU64::new(start_ns) }
    }

    /// Moves time forward by `delta_ns`.
    pub fn advance(&self, delta_ns: u64) {
        self.now.fetch_add(delta_ns, Ordering::SeqCst);
    }

    /// Jumps to an absolute timestamp.
    pub fn set(&self, now_ns: u64) {
        self.now.store(now_ns, Ordering::SeqCst);
    }
}

impl Clock for FakeClock {
    fn now_ns(&self) -> u64 {
        self.now.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_clock_is_monotonic() {
        let c = SystemClock::new();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn fake_clock_advances_only_on_demand() {
        let c = FakeClock::new(100);
        assert_eq!(c.now_ns(), 100);
        assert_eq!(c.now_ns(), 100);
        c.advance(50);
        assert_eq!(c.now_ns(), 150);
        c.set(1_000);
        assert_eq!(c.now_ns(), 1_000);
    }
}
