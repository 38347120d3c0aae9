//! The discrete-event core: a time-ordered queue with deterministic
//! FIFO tie-breaking.
//!
//! Determinism is the whole point — the same topology and inputs must
//! produce byte-identical traces on every run, which is what lets the
//! experiment harness assert exact results. Ties in time are broken by
//! insertion sequence number.
//!
//! # Storage model: a calendar queue over an arena
//!
//! The queue is a calendar queue (Brown 1988) rather than a binary
//! heap: simulated time is divided into fixed-width "days"
//! (`day = at >> width_shift`), events for future days sit unsorted in
//! `buckets[day & mask]`, and only the events of the day under the
//! cursor are kept in a small ordered heap (`current`). Enqueueing a
//! future event is an O(1) bucket push; dequeueing pays O(log d) for a
//! day of d events instead of O(log n) over the whole queue. Payloads
//! never move: each event is arena-allocated into a `u32`-indexed slot
//! (free-list reuse, mirroring `crates/rib`'s node arena) and the
//! buckets/heap shuffle 4-byte indices plus their `(at, seq)` keys.
//!
//! Ordering invariants (the determinism contract):
//!
//! - every live event is either in `current` or in exactly one bucket;
//! - bucketed events always belong to a day strictly after
//!   `cursor_day`, so `at >= (cursor_day + 1) << width_shift`, which is
//!   strictly greater than any event admissible to `current` — popping
//!   the `current` minimum is therefore always the global `(at, seq)`
//!   minimum;
//! - events scheduled for the cursor day go straight into `current`,
//!   keeping the previous invariant true without ever rescanning
//!   buckets;
//! - the day width is a pure performance knob: it decides which bucket
//!   an event waits in, never the `(at, seq)` order it pops in. The
//!   property suite replays identical schedules at several widths and
//!   asserts bit-identical pop sequences.
//!
//! When the cursor day empties, the cursor scans forward bucket by
//! bucket (cheap while the queue is dense: the next event is nearby).
//! If a whole calendar round finds nothing — a sparse queue whose next
//! event is a fault-plan entry millions of ticks out — it falls back to
//! one O(live) pass over the buckets to find the true next day and
//! jumps there directly, so huge idle gaps cost one scan, not one scan
//! per day.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulated milliseconds.
pub type SimTime = u64;

/// Default day width: 16 ticks. [`EventQueue::set_width_shift`] retunes
/// it from the link-delay distribution before a run.
const DEFAULT_WIDTH_SHIFT: u32 = 4;

/// Smallest bucket count; always a power of two so `day & mask` works.
const MIN_BUCKETS: usize = 64;

/// Grow the calendar when the live count exceeds this many events per
/// bucket on average (classic calendar-queue resize policy).
const GROW_FACTOR: usize = 4;

/// An arena slot. `event: None` marks a free slot awaiting reuse.
#[derive(Debug)]
struct Slot<E> {
    at: SimTime,
    seq: u64,
    event: Option<E>,
}

/// A deterministic event queue.
#[derive(Debug)]
pub struct EventQueue<E: Eq> {
    /// Event arena; `free` lists the reusable holes.
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    /// Unordered per-day bins for days after the cursor.
    buckets: Vec<Vec<u32>>,
    /// Power-of-two `buckets.len() - 1`.
    mask: u64,
    /// Ordered events admissible now: the cursor day and anything
    /// scheduled at or before it.
    current: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    cursor_day: u64,
    width_shift: u32,
    len: usize,
    now: SimTime,
    seq: u64,
    popped: u64,
}

impl<E: Eq> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Eq> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue with room for `cap` events before the arena has
    /// to regrow — large topologies pre-size from their edge count so
    /// warmup doesn't pay repeated reallocation.
    pub fn with_capacity(cap: usize) -> Self {
        let nbuckets = (cap / GROW_FACTOR).next_power_of_two().max(MIN_BUCKETS);
        EventQueue {
            slots: Vec::with_capacity(cap),
            free: Vec::new(),
            buckets: (0..nbuckets).map(|_| Vec::new()).collect(),
            mask: (nbuckets - 1) as u64,
            current: BinaryHeap::new(),
            cursor_day: 0,
            width_shift: DEFAULT_WIDTH_SHIFT,
            len: 0,
            now: 0,
            seq: 0,
            popped: 0,
        }
    }

    /// Reserve room for at least `additional` more events.
    pub fn reserve(&mut self, additional: usize) {
        self.slots.reserve(additional.saturating_sub(self.free.len()));
    }

    /// Current simulated time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Retune the calendar day width to `1 << shift` ticks and rebucket
    /// every queued event. The width is a throughput knob (ideally one
    /// day spans about one typical link delay's worth of events); it
    /// cannot affect pop order, which is always exact `(at, seq)`.
    pub fn set_width_shift(&mut self, shift: u32) {
        let shift = shift.min(SimTime::BITS - 1);
        if shift == self.width_shift {
            return;
        }
        self.width_shift = shift;
        self.cursor_day = self.now >> shift;
        for b in &mut self.buckets {
            b.clear();
        }
        self.current.clear();
        for idx in 0..self.slots.len() as u32 {
            if self.slots[idx as usize].event.is_some() {
                self.place(idx);
            }
        }
    }

    /// Schedule `event` to fire `delay` after the current time.
    pub fn schedule(&mut self, delay: SimTime, event: E) {
        let at = self.now.saturating_add(delay);
        self.schedule_at(at, event);
    }

    /// Schedule at an absolute time (clamped to never run backwards).
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        let idx = self.alloc(at, seq, event);
        self.place(idx);
        self.len += 1;
        if self.len > self.buckets.len() * GROW_FACTOR {
            self.grow();
        }
    }

    /// Pop the next event, advancing the clock.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.settle();
        let Reverse((at, _seq, idx)) = self.current.pop()?;
        let event = self.slots[idx as usize].event.take().expect("popped a freed slot");
        self.free.push(idx);
        self.len -= 1;
        self.now = at;
        self.popped += 1;
        Some((at, event))
    }

    /// Timestamp of the next event without popping it (and without
    /// advancing the clock). Lets callers honor a time horizon while
    /// leaving later events queued for a subsequent run. May advance
    /// the internal bucket cursor, hence `&mut`.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.settle();
        self.current.peek().map(|Reverse((at, _, _))| *at)
    }

    /// Events waiting.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total events processed so far.
    pub fn processed(&self) -> u64 {
        self.popped
    }

    fn alloc(&mut self, at: SimTime, seq: u64, event: E) -> u32 {
        if let Some(idx) = self.free.pop() {
            self.slots[idx as usize] = Slot { at, seq, event: Some(event) };
            idx
        } else {
            assert!(self.slots.len() < u32::MAX as usize, "event arena exhausted u32 indices");
            self.slots.push(Slot { at, seq, event: Some(event) });
            (self.slots.len() - 1) as u32
        }
    }

    /// File a live slot into `current` or its future-day bucket.
    fn place(&mut self, idx: u32) {
        let slot = &self.slots[idx as usize];
        let day = slot.at >> self.width_shift;
        if day <= self.cursor_day {
            self.current.push(Reverse((slot.at, slot.seq, idx)));
        } else {
            self.buckets[(day & self.mask) as usize].push(idx);
        }
    }

    /// Ensure `current` holds the global minimum whenever `len > 0`.
    fn settle(&mut self) {
        while self.current.is_empty() && self.len > 0 {
            self.advance_day();
        }
    }

    /// Move the cursor to the next day that has events and pull that
    /// day's events into `current`.
    fn advance_day(&mut self) {
        let nbuckets = self.buckets.len() as u64;
        // Dense phase: the next event is within one calendar round.
        for day in self.cursor_day + 1..=self.cursor_day + nbuckets {
            if !self.buckets[(day & self.mask) as usize].is_empty() {
                self.collect_day(day);
                if !self.current.is_empty() {
                    self.cursor_day = day;
                    return;
                }
            }
        }
        // Sparse phase: one pass over all live events to find the true
        // next day, then jump the cursor straight to it.
        let mut next_day = u64::MAX;
        for bucket in &self.buckets {
            for &idx in bucket {
                next_day = next_day.min(self.slots[idx as usize].at >> self.width_shift);
            }
        }
        debug_assert_ne!(next_day, u64::MAX, "len > 0 but no bucketed events");
        self.collect_day(next_day);
        self.cursor_day = next_day;
    }

    /// Move every event of `day` from its bucket into `current`.
    fn collect_day(&mut self, day: u64) {
        let b = (day & self.mask) as usize;
        let mut i = 0;
        while i < self.buckets[b].len() {
            let idx = self.buckets[b][i];
            let slot = &self.slots[idx as usize];
            if slot.at >> self.width_shift == day {
                self.current.push(Reverse((slot.at, slot.seq, idx)));
                self.buckets[b].swap_remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// Double the calendar and redistribute bucketed events (`current`
    /// is day-width-independent and stays put).
    fn grow(&mut self) {
        let nbuckets = self.buckets.len() * 2;
        let mask = (nbuckets - 1) as u64;
        let mut buckets: Vec<Vec<u32>> = (0..nbuckets).map(|_| Vec::new()).collect();
        for bucket in &mut self.buckets {
            for idx in bucket.drain(..) {
                let day = self.slots[idx as usize].at >> self.width_shift;
                buckets[(day & mask) as usize].push(idx);
            }
        }
        self.buckets = buckets;
        self.mask = mask;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, "c");
        q.schedule(10, "a");
        q.schedule(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(5, "first");
        q.schedule(5, "second");
        q.schedule(5, "third");
        assert_eq!(q.pop().unwrap().1, "first");
        assert_eq!(q.pop().unwrap().1, "second");
        assert_eq!(q.pop().unwrap().1, "third");
    }

    #[test]
    fn clock_advances_with_pops_and_relative_scheduling_compounds() {
        let mut q = EventQueue::new();
        q.schedule(10, 1u32);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, 10);
        assert_eq!(q.now(), 10);
        q.schedule(5, 2u32);
        assert_eq!(q.pop(), Some((15, 2u32)));
    }

    #[test]
    fn schedule_at_never_runs_backwards() {
        let mut q = EventQueue::new();
        q.schedule(10, 1u32);
        q.pop();
        q.schedule_at(3, 2u32); // in the past: clamped to now
        assert_eq!(q.pop(), Some((10, 2u32)));
    }

    #[test]
    fn peek_does_not_advance_clock_or_consume() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(10, "later");
        q.schedule(5, "sooner");
        assert_eq!(q.peek_time(), Some(5));
        assert_eq!(q.now(), 0, "peek must not advance the clock");
        assert_eq!(q.len(), 2, "peek must not consume");
        assert_eq!(q.pop(), Some((5, "sooner")));
        assert_eq!(q.peek_time(), Some(10));
    }

    /// The horizon contract a driver loop needs: peek-compare-pop keeps
    /// events beyond the horizon queued (a pop-then-check loop would
    /// silently discard the first event past the horizon and advance
    /// the clock to it).
    #[test]
    fn peek_based_horizon_preserves_future_events() {
        let mut q = EventQueue::new();
        q.schedule(10, "inside");
        q.schedule(20, "boundary");
        q.schedule(21, "beyond");
        let horizon = 20;
        let mut seen = Vec::new();
        while let Some(at) = q.peek_time() {
            if at > horizon {
                break;
            }
            seen.push(q.pop().unwrap().1);
        }
        // An event at exactly the horizon is processed, not dropped.
        assert_eq!(seen, vec!["inside", "boundary"]);
        // The event past the horizon is still there for the next run.
        assert_eq!(q.len(), 1);
        assert_eq!(q.now(), 20, "clock must not run past the horizon");
        assert_eq!(q.pop(), Some((21, "beyond")));
    }

    #[test]
    fn with_capacity_pre_sizes_without_changing_behavior() {
        let mut q = EventQueue::with_capacity(64);
        q.schedule(5, "only");
        q.reserve(128);
        assert_eq!(q.pop(), Some((5, "only")));
        assert!(q.is_empty());
    }

    #[test]
    fn counts_processed() {
        let mut q = EventQueue::new();
        for i in 0..5u32 {
            q.schedule(i as u64, i);
        }
        while q.pop().is_some() {}
        assert_eq!(q.processed(), 5);
        assert!(q.is_empty());
    }

    /// A sparse far-future gap (fault plans schedule events tens of
    /// millions of ticks out) must resolve through the jump fallback,
    /// not a day-by-day crawl, and still pop in exact order.
    #[test]
    fn sparse_far_future_events_pop_in_order() {
        let mut q = EventQueue::new();
        q.schedule_at(3, "soon");
        q.schedule_at(50_000_000, "flap");
        q.schedule_at(50_000_000, "flap2");
        q.schedule_at(210_000_777, "late");
        assert_eq!(q.pop(), Some((3, "soon")));
        assert_eq!(q.pop(), Some((50_000_000, "flap")));
        assert_eq!(q.pop(), Some((50_000_000, "flap2")));
        assert_eq!(q.peek_time(), Some(210_000_777));
        assert_eq!(q.pop(), Some((210_000_777, "late")));
        assert_eq!(q.pop(), None);
    }

    /// Retuning the day width rebuckets pending events without
    /// reordering them.
    #[test]
    fn width_retune_preserves_order_of_pending_events() {
        for shift in [0u32, 1, 4, 10, 20] {
            let mut q = EventQueue::new();
            for i in 0..200u32 {
                q.schedule_at(((i as u64) * 37) % 500, i);
            }
            q.set_width_shift(shift);
            let mut last: Option<(u64, u32)> = None;
            let mut n = 0;
            while let Some((at, e)) = q.pop() {
                if let Some((lat, le)) = last {
                    assert!(at >= lat, "time went backwards at width {shift}");
                    if at == lat {
                        // Same timestamp: insertion (seq) order.
                        assert!(e > le, "tie order broken at width {shift}");
                    }
                }
                last = Some((at, e));
                n += 1;
            }
            assert_eq!(n, 200);
        }
    }

    /// The calendar grows (rebuckets) under load without disturbing
    /// order or counts.
    #[test]
    fn grows_past_initial_bucket_count() {
        let mut q = EventQueue::with_capacity(0);
        let n = 10_000u32;
        for i in 0..n {
            q.schedule_at((i as u64 * 7919) % 100_000, i);
        }
        let mut popped = 0;
        // Track (at, seq) monotonicity via pop order: same at must keep
        // ascending insertion order, which for this schedule means the
        // payloads at one timestamp ascend.
        let mut at_last: Option<u64> = None;
        let mut payload_last = 0u32;
        while let Some((at, e)) = q.pop() {
            if at_last == Some(at) {
                assert!(e > payload_last, "FIFO tie broken after growth");
            } else {
                assert!(at_last.is_none_or(|p| at > p));
            }
            at_last = Some(at);
            payload_last = e;
            popped += 1;
        }
        assert_eq!(popped, n);
    }
}
