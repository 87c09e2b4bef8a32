//! The dynamic micro-batching scheduler core.
//!
//! [`MicroBatcher`] is a *pure* state machine: it owns the bounded
//! admission queue and decides, given an explicit `now` timestamp, whether
//! to dispatch a batch, sleep until a flush window closes, or idle. All
//! time flows in through parameters — no `Instant::now()`, no sleeping —
//! which is what makes flush timing, deadline expiry, backpressure and
//! drain ordering unit-testable with a fake clock and zero sleeps.
//!
//! The threaded runtime in [`crate::runtime`] wraps one of these behind a
//! mutex/condvar: each free worker polls it for its next batch and turns
//! `Decision::WaitUntil` into a timed condvar wait.
//!
//! Batching policy: requests coalesce per *group* (one group per admitted
//! model — tensors from different models can never be concatenated). A
//! batch dispatches as soon as the head group has [`BatchConfig::max_batch`]
//! rows queued, or when the head ticket has waited
//! [`BatchConfig::max_delay_ns`], whichever comes first. During drain the
//! delay window is ignored and everything flushes in FIFO order.

use std::collections::VecDeque;

use crate::error::ServeError;

/// Deadline sentinel: "no deadline".
pub const NO_DEADLINE: u64 = u64::MAX;

/// Scheduler policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Maximum rows per dispatched batch. A single request larger than
    /// this still dispatches (alone) — requests are never split.
    pub max_batch: usize,
    /// How long the oldest queued request may wait for co-batched work
    /// before the batch flushes anyway. `0` (the default) batches only
    /// work that queued up while every worker was busy.
    pub max_delay_ns: u64,
    /// Bound on queued *requests*; admission beyond this is rejected with
    /// [`ServeError::Busy`].
    pub queue_cap: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig { max_batch: 16, max_delay_ns: 0, queue_cap: 256 }
    }
}

/// A queued request plus its scheduling metadata.
#[derive(Debug)]
pub struct Ticket<T> {
    /// The caller's payload (the runtime stores the input tensor and the
    /// completion slot here).
    pub payload: T,
    /// Batching group — tickets only coalesce within a group.
    pub group: usize,
    /// Batch rows this request contributes.
    pub rows: usize,
    /// Admission timestamp.
    pub enqueued_ns: u64,
    /// Absolute expiry ([`NO_DEADLINE`] = none).
    pub deadline_ns: u64,
    /// Admission order (monotonic per batcher).
    pub seq: u64,
}

/// What the scheduler wants to happen next.
#[derive(Debug)]
pub enum Decision<T> {
    /// Run this batch now. All tickets share one group; total rows respect
    /// `max_batch` (unless a single oversized request).
    Dispatch(Vec<Ticket<T>>),
    /// Nothing is due; re-poll at this timestamp (or on new admission).
    WaitUntil(u64),
    /// The queue is empty.
    Idle,
}

/// Pure micro-batching state machine. See the module docs.
#[derive(Debug)]
pub struct MicroBatcher<T> {
    cfg: BatchConfig,
    queue: VecDeque<Ticket<T>>,
    /// Queued rows per group (indexed by group id) — kept incrementally so
    /// admission can decide in O(1) whether a batch just became full.
    rows_per_group: Vec<usize>,
    draining: bool,
    next_seq: u64,
}

impl<T> MicroBatcher<T> {
    /// A new batcher with the given policy. `max_batch` and `queue_cap`
    /// are clamped to at least 1.
    pub fn new(cfg: BatchConfig) -> Self {
        let cfg =
            BatchConfig { max_batch: cfg.max_batch.max(1), queue_cap: cfg.queue_cap.max(1), ..cfg };
        MicroBatcher {
            cfg,
            queue: VecDeque::new(),
            rows_per_group: Vec::new(),
            draining: false,
            next_seq: 0,
        }
    }

    /// The active policy.
    pub fn config(&self) -> &BatchConfig {
        &self.cfg
    }

    /// Queued request count.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Total queued rows (the queue-depth gauge).
    pub fn queued_rows(&self) -> usize {
        self.rows_per_group.iter().sum()
    }

    /// Queued rows for one batching group. The runtime uses this to
    /// coalesce worker wakeups: an admission only needs to wake a worker
    /// when the queue was empty or when this count reaches `max_batch` (a
    /// batch just became full) — any other admission joins a queue some
    /// worker already answers for.
    pub fn group_rows(&self, group: usize) -> usize {
        self.rows_per_group.get(group).copied().unwrap_or(0)
    }

    fn bump_group(&mut self, group: usize, delta_rows: isize) {
        if self.rows_per_group.len() <= group {
            self.rows_per_group.resize(group + 1, 0);
        }
        let slot = &mut self.rows_per_group[group];
        *slot = slot.saturating_add_signed(delta_rows);
    }

    /// True once [`Self::start_drain`] was called.
    pub fn is_draining(&self) -> bool {
        self.draining
    }

    /// Stops admission; queued work still dispatches (immediately — the
    /// delay window no longer applies).
    pub fn start_drain(&mut self) {
        self.draining = true;
    }

    /// Admits a request, or rejects it with [`ServeError::ShuttingDown`]
    /// (draining) / [`ServeError::DeadlineExceeded`] (already expired) /
    /// [`ServeError::Busy`] (queue full). Returns the admission sequence
    /// number.
    ///
    /// # Errors
    ///
    /// `ShuttingDown` after [`Self::start_drain`]; `DeadlineExceeded` when
    /// `deadline_ns <= now_ns` — a request that is dead on arrival must
    /// not consume a queue slot only for [`Self::take_expired`] to evict
    /// it later; `Busy` when the queue holds `queue_cap` requests. The
    /// expiry check runs *before* the capacity check so a saturated queue
    /// reports the caller's real problem (the deadline), not `Busy`.
    pub fn admit(
        &mut self,
        payload: T,
        group: usize,
        rows: usize,
        now_ns: u64,
        deadline_ns: u64,
    ) -> Result<u64, ServeError> {
        if self.draining {
            return Err(ServeError::ShuttingDown);
        }
        if deadline_ns <= now_ns {
            return Err(ServeError::DeadlineExceeded);
        }
        if self.queue.len() >= self.cfg.queue_cap {
            return Err(ServeError::Busy);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let rows = rows.max(1);
        self.bump_group(group, isize::try_from(rows).unwrap_or(isize::MAX));
        self.queue.push_back(Ticket {
            payload,
            group,
            rows,
            enqueued_ns: now_ns,
            deadline_ns,
            seq,
        });
        Ok(seq)
    }

    /// Removes and returns every queued ticket whose deadline has passed,
    /// in admission order. Call before [`Self::next_batch`] so expired
    /// requests never reach a worker.
    pub fn take_expired(&mut self, now_ns: u64) -> Vec<Ticket<T>> {
        let mut expired = Vec::new();
        let mut keep = VecDeque::with_capacity(self.queue.len());
        for t in self.queue.drain(..) {
            if t.deadline_ns <= now_ns {
                expired.push(t);
            } else {
                keep.push_back(t);
            }
        }
        self.queue = keep;
        for t in &expired {
            self.bump_group(t.group, -isize::try_from(t.rows).unwrap_or(isize::MAX));
        }
        expired
    }

    /// The scheduling decision at `now_ns`.
    ///
    /// Dispatch fires when the head group is full (`max_batch` rows ready,
    /// or the next same-group ticket would overflow the batch) or due (head
    /// ticket waited `max_delay_ns`, or the batcher is draining). The
    /// dispatched tickets are removed from the queue; tickets of *other*
    /// groups keep their relative order.
    pub fn next_batch(&mut self, now_ns: u64) -> Decision<T> {
        let Some(head) = self.queue.front() else {
            return Decision::Idle;
        };
        let flush_at = head.enqueued_ns.saturating_add(self.cfg.max_delay_ns);
        let due = self.draining || flush_at <= now_ns;

        // Collect the head group's tickets (FIFO) up to max_batch rows.
        let group = head.group;
        let mut picked: Vec<u64> = Vec::new();
        let mut rows = 0usize;
        let mut overflow = false;
        for t in &self.queue {
            if t.group != group {
                continue;
            }
            if !picked.is_empty() && rows + t.rows > self.cfg.max_batch {
                overflow = true;
                break;
            }
            rows += t.rows;
            picked.push(t.seq);
            if rows >= self.cfg.max_batch {
                overflow = true;
                break;
            }
        }
        if !(due || overflow) {
            return Decision::WaitUntil(flush_at);
        }
        let mut batch = Vec::with_capacity(picked.len());
        let mut keep = VecDeque::with_capacity(self.queue.len());
        for t in self.queue.drain(..) {
            if picked.contains(&t.seq) {
                batch.push(t);
            } else {
                keep.push_back(t);
            }
        }
        self.queue = keep;
        self.bump_group(group, -isize::try_from(rows).unwrap_or(isize::MAX));
        Decision::Dispatch(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(max_batch: usize, max_delay_ns: u64, queue_cap: usize) -> BatchConfig {
        BatchConfig { max_batch, max_delay_ns, queue_cap }
    }

    fn dispatch<T: std::fmt::Debug>(d: Decision<T>) -> Vec<Ticket<T>> {
        match d {
            Decision::Dispatch(b) => b,
            other => panic!("expected Dispatch, got {other:?}"),
        }
    }

    #[test]
    fn flushes_immediately_when_max_batch_rows_are_queued() {
        let mut b = MicroBatcher::new(cfg(4, 1_000_000, 64));
        for i in 0..4 {
            b.admit(i, 0, 1, 0, NO_DEADLINE).unwrap();
        }
        // t=0: the delay window is wide open, but the batch is full.
        let batch = dispatch(b.next_batch(0));
        assert_eq!(batch.iter().map(|t| t.payload).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        assert!(b.is_empty());
    }

    #[test]
    fn waits_for_the_delay_window_then_flushes_a_partial_batch() {
        let mut b = MicroBatcher::new(cfg(16, 1_000, 64));
        b.admit("a", 0, 1, 100, NO_DEADLINE).unwrap();
        b.admit("b", 0, 1, 400, NO_DEADLINE).unwrap();
        // Window closes at head.enqueued + delay = 1100, not 1400.
        match b.next_batch(500) {
            Decision::WaitUntil(t) => assert_eq!(t, 1_100),
            other => panic!("expected WaitUntil(1100), got {other:?}"),
        }
        match b.next_batch(1_099) {
            Decision::WaitUntil(t) => assert_eq!(t, 1_100),
            other => panic!("expected WaitUntil(1100), got {other:?}"),
        }
        let batch = dispatch(b.next_batch(1_100));
        assert_eq!(batch.len(), 2);
        assert!(matches!(b.next_batch(1_100), Decision::Idle));
    }

    #[test]
    fn rows_count_toward_max_batch_and_oversized_requests_go_alone() {
        let mut b = MicroBatcher::new(cfg(8, 1_000, 64));
        b.admit("big", 0, 32, 0, NO_DEADLINE).unwrap(); // > max_batch: never split
        b.admit("small", 0, 1, 0, NO_DEADLINE).unwrap();
        let first = dispatch(b.next_batch(0));
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].payload, "big");
        // The small one now waits for its own window.
        match b.next_batch(0) {
            Decision::WaitUntil(t) => assert_eq!(t, 1_000),
            other => panic!("expected WaitUntil, got {other:?}"),
        }
    }

    #[test]
    fn backpressure_rejects_with_busy_at_queue_cap() {
        let mut b = MicroBatcher::new(cfg(16, 1_000, 2));
        b.admit(1, 0, 1, 0, NO_DEADLINE).unwrap();
        b.admit(2, 0, 1, 0, NO_DEADLINE).unwrap();
        assert_eq!(b.admit(3, 0, 1, 0, NO_DEADLINE), Err(ServeError::Busy));
        // Dispatching frees capacity again.
        let _ = dispatch(b.next_batch(1_000));
        b.admit(4, 0, 1, 1_001, NO_DEADLINE).unwrap();
    }

    #[test]
    fn deadline_expiry_removes_exactly_the_overdue_tickets() {
        let mut b = MicroBatcher::new(cfg(16, 10_000, 64));
        b.admit("t800", 0, 1, 0, 800).unwrap();
        b.admit("t2000", 0, 1, 0, 2_000).unwrap();
        b.admit("never", 0, 1, 0, NO_DEADLINE).unwrap();
        assert!(b.take_expired(799).is_empty());
        let expired = b.take_expired(800);
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].payload, "t800");
        assert_eq!(b.len(), 2);
        let expired = b.take_expired(5_000);
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].payload, "t2000");
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn drain_rejects_new_work_and_flushes_fifo_without_waiting() {
        let mut b = MicroBatcher::new(cfg(2, u64::MAX, 64));
        for i in 0i32..5 {
            b.admit(i, 0, 1, i as u64, NO_DEADLINE).unwrap();
        }
        b.start_drain();
        assert_eq!(b.admit(99, 0, 1, 10, NO_DEADLINE), Err(ServeError::ShuttingDown));
        // The infinite delay window is ignored during drain; batches come
        // out in strict admission order.
        let mut order = Vec::new();
        loop {
            match b.next_batch(10) {
                Decision::Dispatch(batch) => {
                    assert!(batch.len() <= 2);
                    order.extend(batch.iter().map(|t| t.payload));
                }
                Decision::Idle => break,
                Decision::WaitUntil(t) => panic!("drain must not wait (until {t})"),
            }
        }
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn groups_never_mix_and_skipped_groups_keep_their_order() {
        let mut b = MicroBatcher::new(cfg(16, 0, 64)); // delay 0: always due
        b.admit("a0", 0, 1, 0, NO_DEADLINE).unwrap();
        b.admit("b0", 1, 1, 0, NO_DEADLINE).unwrap();
        b.admit("a1", 0, 1, 0, NO_DEADLINE).unwrap();
        b.admit("b1", 1, 1, 0, NO_DEADLINE).unwrap();
        let first = dispatch(b.next_batch(0));
        assert_eq!(first.iter().map(|t| t.payload).collect::<Vec<_>>(), vec!["a0", "a1"]);
        let second = dispatch(b.next_batch(0));
        assert_eq!(second.iter().map(|t| t.payload).collect::<Vec<_>>(), vec!["b0", "b1"]);
    }

    #[test]
    fn full_group_dispatches_even_if_a_different_group_is_at_the_head() {
        // Head is group 1 (not yet due, 1 row); group 0 fills max_batch
        // behind it. The head group decides the batch: group 1 waits, so
        // WaitUntil — then once due, group 1 dispatches alone and group 0
        // (now at head, full) flushes immediately.
        let mut b = MicroBatcher::new(cfg(2, 1_000, 64));
        b.admit("b0", 1, 1, 0, NO_DEADLINE).unwrap();
        b.admit("a0", 0, 1, 1, NO_DEADLINE).unwrap();
        b.admit("a1", 0, 1, 1, NO_DEADLINE).unwrap();
        match b.next_batch(500) {
            Decision::WaitUntil(t) => assert_eq!(t, 1_000),
            other => panic!("expected WaitUntil, got {other:?}"),
        }
        let first = dispatch(b.next_batch(1_000));
        assert_eq!(first[0].payload, "b0");
        let second = dispatch(b.next_batch(1_000));
        assert_eq!(second.iter().map(|t| t.payload).collect::<Vec<_>>(), vec!["a0", "a1"]);
    }
}
