//! The dynamic micro-batching scheduler core.
//!
//! [`MicroBatcher`] is a *pure* state machine: it owns the bounded
//! admission queue and cuts batches from it on request. All time flows in
//! through parameters — no `Instant::now()`, no sleeping — which is what
//! makes deadline expiry, backpressure and drain ordering unit-testable
//! with a fake clock and zero sleeps.
//!
//! The threaded runtime in [`crate::runtime`] wraps one of these behind a
//! mutex/condvar: each free worker asks it for its next batch and sleeps
//! only while the queue is empty.
//!
//! Batching policy: requests coalesce per *group* (one group per admitted
//! model — tensors from different models can never be concatenated).
//! Whenever the queue is non-empty, [`MicroBatcher::next_batch`] cuts a
//! batch from the head ticket's group: its queued tickets in FIFO order,
//! up to [`BatchConfig::max_batch`] rows. Batches therefore fill only
//! from work that queued up while every worker was busy; a request that
//! finds an idle worker runs at once. Drain stops admission and changes
//! nothing else.

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
    /// Bound on queued *requests*; admission beyond this is rejected with
    /// [`ServeError::Busy`].
    pub queue_cap: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig { max_batch: 16, queue_cap: 256 }
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
}

impl<T> MicroBatcher<T> {
    /// A new batcher with the given policy. `max_batch` and `queue_cap`
    /// are clamped to at least 1.
    pub fn new(cfg: BatchConfig) -> Self {
        let cfg = BatchConfig { max_batch: cfg.max_batch.max(1), queue_cap: cfg.queue_cap.max(1) };
        MicroBatcher { cfg, queue: VecDeque::new(), rows_per_group: Vec::new(), draining: false }
    }

    /// Queued request count.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
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

    /// Stops admission; queued work still dispatches.
    pub fn start_drain(&mut self) {
        self.draining = true;
    }

    /// True once [`Self::start_drain`] has run.
    #[cfg(test)]
    pub(crate) fn is_draining(&self) -> bool {
        self.draining
    }

    /// Admits a request, or rejects it with [`ServeError::ShuttingDown`]
    /// (draining) / [`ServeError::DeadlineExceeded`] (already expired) /
    /// [`ServeError::Busy`] (queue full).
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
    ) -> Result<(), ServeError> {
        if self.draining {
            return Err(ServeError::ShuttingDown);
        }
        if deadline_ns <= now_ns {
            return Err(ServeError::DeadlineExceeded);
        }
        if self.queue.len() >= self.cfg.queue_cap {
            return Err(ServeError::Busy);
        }
        let rows = rows.max(1);
        self.bump_group(group, isize::try_from(rows).unwrap_or(isize::MAX));
        self.queue.push_back(Ticket { payload, group, rows, enqueued_ns: now_ns, deadline_ns });
        Ok(())
    }

    /// Removes `queue[i]` and takes its rows off its group's count.
    fn remove_at(&mut self, i: usize) -> Ticket<T> {
        let t = self.queue.remove(i).expect("index within the queue");
        self.bump_group(t.group, -isize::try_from(t.rows).unwrap_or(isize::MAX));
        t
    }

    /// Removes and returns every queued ticket whose deadline has passed,
    /// in admission order. Call before [`Self::next_batch`] so expired
    /// requests never reach a worker. A poll with nothing expired only
    /// reads the queue; otherwise it is split in one pass.
    pub fn take_expired(&mut self, now_ns: u64) -> Vec<Ticket<T>> {
        if !self.queue.iter().any(|t| t.deadline_ns <= now_ns) {
            return Vec::new();
        }
        let (expired, keep): (VecDeque<_>, VecDeque<_>) =
            std::mem::take(&mut self.queue).into_iter().partition(|t| t.deadline_ns <= now_ns);
        self.queue = keep;
        for t in &expired {
            self.bump_group(t.group, -isize::try_from(t.rows).unwrap_or(isize::MAX));
        }
        expired.into()
    }

    /// Cuts the next batch, or `None` when the queue is empty.
    ///
    /// The batch is the head ticket's group: its queued tickets in FIFO
    /// order, up to `max_batch` rows, stopping at the first one that would
    /// overflow. A single request larger than `max_batch` goes alone. The
    /// dispatched tickets leave the queue; tickets of *other* groups keep
    /// their relative order.
    pub fn next_batch(&mut self) -> Option<Vec<Ticket<T>>> {
        if self.queue.is_empty() {
            return None;
        }
        let head = self.remove_at(0);
        let (group, mut rows) = (head.group, head.rows);
        let mut batch = vec![head];
        let mut i = 0;
        while rows < self.cfg.max_batch && i < self.queue.len() {
            let t = &self.queue[i];
            if t.group != group {
                i += 1;
                continue;
            }
            if rows + t.rows > self.cfg.max_batch {
                break;
            }
            rows += t.rows;
            batch.push(self.remove_at(i));
        }
        Some(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(max_batch: usize, queue_cap: usize) -> BatchConfig {
        BatchConfig { max_batch, queue_cap }
    }

    fn payloads<T: Copy>(batch: &[Ticket<T>]) -> Vec<T> {
        batch.iter().map(|t| t.payload).collect()
    }

    #[test]
    fn flushes_immediately_when_max_batch_rows_are_queued() {
        let mut b = MicroBatcher::new(cfg(4, 64));
        for i in 0..4 {
            b.admit(i, 0, 1, 0, NO_DEADLINE).unwrap();
        }
        let batch = b.next_batch().unwrap();
        assert_eq!(payloads(&batch), vec![0, 1, 2, 3]);
        assert!(b.is_empty());
    }

    #[test]
    fn next_batch_dispatches_a_lone_ticket_at_once() {
        let mut b = MicroBatcher::new(cfg(16, 64));
        assert!(b.next_batch().is_none());
        b.admit("lone", 0, 1, 0, NO_DEADLINE).unwrap();
        // One row of sixteen: nothing else is queued, so it goes as is.
        assert_eq!(payloads(&b.next_batch().unwrap()), vec!["lone"]);
        assert!(b.next_batch().is_none());
        assert_eq!(b.group_rows(0), 0);
    }

    #[test]
    fn rows_count_toward_max_batch_and_oversized_requests_go_alone() {
        let mut b = MicroBatcher::new(cfg(8, 64));
        b.admit("big", 0, 32, 0, NO_DEADLINE).unwrap(); // > max_batch: never split
        b.admit("small", 0, 1, 0, NO_DEADLINE).unwrap();
        let first = b.next_batch().unwrap();
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].payload, "big");
        assert_eq!(payloads(&b.next_batch().unwrap()), vec!["small"]);
    }

    #[test]
    fn backpressure_rejects_with_busy_at_queue_cap() {
        let mut b = MicroBatcher::new(cfg(16, 2));
        b.admit(1, 0, 1, 0, NO_DEADLINE).unwrap();
        b.admit(2, 0, 1, 0, NO_DEADLINE).unwrap();
        assert_eq!(b.admit(3, 0, 1, 0, NO_DEADLINE), Err(ServeError::Busy));
        // Dispatching frees capacity again.
        let _ = b.next_batch().unwrap();
        b.admit(4, 0, 1, 1_001, NO_DEADLINE).unwrap();
    }

    #[test]
    fn deadline_expiry_removes_exactly_the_overdue_tickets() {
        let mut b = MicroBatcher::new(cfg(16, 64));
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
        let mut b = MicroBatcher::new(cfg(2, 64));
        for i in 0i32..5 {
            b.admit(i, 0, 1, i as u64, NO_DEADLINE).unwrap();
        }
        b.start_drain();
        assert_eq!(b.admit(99, 0, 1, 10, NO_DEADLINE), Err(ServeError::ShuttingDown));
        // Batches come out in strict admission order.
        let mut order = Vec::new();
        while let Some(batch) = b.next_batch() {
            assert!(batch.len() <= 2);
            order.extend(payloads(&batch));
        }
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn groups_never_mix_and_skipped_groups_keep_their_order() {
        let mut b = MicroBatcher::new(cfg(16, 64));
        b.admit("a0", 0, 1, 0, NO_DEADLINE).unwrap();
        b.admit("b0", 1, 1, 0, NO_DEADLINE).unwrap();
        b.admit("a1", 0, 1, 0, NO_DEADLINE).unwrap();
        b.admit("b1", 1, 1, 0, NO_DEADLINE).unwrap();
        assert_eq!(payloads(&b.next_batch().unwrap()), vec!["a0", "a1"]);
        assert_eq!(payloads(&b.next_batch().unwrap()), vec!["b0", "b1"]);
    }

    #[test]
    fn the_head_group_goes_first_even_when_a_later_group_is_full() {
        // Head is group 1 (1 row); group 0 fills max_batch behind it. The
        // head group decides the batch: group 1 dispatches alone, then
        // group 0 (now at the head, full) goes whole.
        let mut b = MicroBatcher::new(cfg(2, 64));
        b.admit("b0", 1, 1, 0, NO_DEADLINE).unwrap();
        b.admit("a0", 0, 1, 1, NO_DEADLINE).unwrap();
        b.admit("a1", 0, 1, 1, NO_DEADLINE).unwrap();
        let first = b.next_batch().unwrap();
        assert_eq!(first[0].payload, "b0");
        assert_eq!(payloads(&b.next_batch().unwrap()), vec!["a0", "a1"]);
    }
}
