//! Time-ordered event queue.
//!
//! Every event is delivered in `(SimTime, sequence number)` order. The
//! sequence number makes the order of simultaneous events deterministic
//! (insertion order), which in turn makes whole simulations reproducible —
//! one of the requirements for the calibration experiments, where the same
//! trace must produce the same walltimes on every evaluation of a candidate
//! parameter vector.
//!
//! # Three sources, one order
//!
//! [`EventQueue::pop`], [`peek_time`](EventQueue::peek_time),
//! [`peek_key`](EventQueue::peek_key), [`len`](EventQueue::len) and
//! [`clear`](EventQueue::clear) merge three sources by that one key, the way
//! SimGrid's kernel takes the minimum over what each resource model reports
//! as its next event instead of pushing what it already knows through a
//! priority queue:
//!
//! * **The preloaded lane** ([`EventQueue::preload`]): events known before
//!   the run starts (a workload's submissions). They are sorted by time once
//!   — stably, so equal times keep their insertion order — and delivered
//!   from a cursor. `preload` must come before the first
//!   [`schedule`](EventQueue::schedule) or
//!   [`arm_timer`](EventQueue::arm_timer) (asserted): the lane thereby owns
//!   sequence numbers `0..n` in delivery order, so a lane event wins every
//!   time tie against a dynamic event — exactly the order `n` up-front
//!   `schedule` calls would have produced. Lane events carry no
//!   cancellation handle; `cancel` on a lane event's key (seen through
//!   `peek_key` or `pop`) reports `false`.
//! * **The timer slot** ([`EventQueue::arm_timer`] /
//!   [`EventQueue::disarm_timer`]): one re-armable event for a model that
//!   only ever has a single "my next completion" prediction pending (the
//!   fluid solver). Every arm draws a fresh sequence number from the *same*
//!   counter as `schedule`, so tie-breaks are those of cancel + schedule,
//!   but the heap and the tombstone machinery are never touched. Re-arming
//!   replaces the armed event; delivery disarms. The timer is disarmed only
//!   through `disarm_timer`: `cancel` on its key reports `false`.
//! * **The heap**: a binary heap for genuinely dynamic events
//!   ([`EventQueue::schedule`]), cancellable through the returned
//!   [`EventKey`]. Its depth is the number of in-flight dynamic events, not
//!   the size of the workload.
//!
//! `len()` counts all three: undelivered lane events, the armed timer and
//! pending heap events.
//!
//! # Cancellation and bounded memory
//!
//! Every pending heap event occupies one slot of a slab (`slots: Vec<u64>`
//! plus a free list): `schedule` writes the event's sequence number into a
//! free slot, and the returned [`EventKey`] — like the heap entry — carries
//! `(sequence, slot)`. An event is pending iff its slot still holds its
//! sequence number. Delivery and cancellation free the slot; sequence
//! numbers are never reused, so the key of a delivered, cancelled or
//! cleared event can never match again, even after its slot went to a new
//! event. Lane and timer keys name no slot at all. The slab therefore holds
//! exactly the pending heap events, however long one of them stays pending
//! while millions retire behind it, and it needs no sweep.
//!
//! Cancellation is lazy: it frees the slot and leaves the heap entry behind
//! as a tombstone, so it is O(1) amortised and does not disturb the heap.
//! Whenever tombstones outnumber live entries (beyond a small slack), the
//! heap is rebuilt from its live entries only (fault injection cancels
//! timers constantly). Rebuilding cannot change pop order: the
//! `(time, seq)` key is a total order, so the pop sequence is independent
//! of the heap's internal layout.
//!
//! The queue additionally maintains the invariant that the heap top is never
//! a tombstone (skimming happens inside `cancel`/`pop`, the only operations
//! that can put a tombstone on top). That makes [`EventQueue::peek_time`] an
//! honest `&self` accessor instead of a `&mut self` lazy skim.

use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Extra tombstones tolerated in the heap before compaction kicks in (avoids
/// rebuild thrash on tiny queues).
const COMPACT_SLACK: usize = 64;

/// Slot of the keys of lane and timer events, which occupy none.
const NO_SLOT: u32 = u32::MAX;

/// Content of a free slot: no sequence number is ever drawn this large.
const FREE: u64 = u64::MAX;

/// Opaque handle identifying a scheduled event, usable for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventKey {
    seq: u64,
    slot: u32,
}

impl EventKey {
    /// Raw sequence number (mostly useful in logs and tests).
    pub fn sequence(self) -> u64 {
        self.seq
    }
}

/// An event plus the time it is scheduled for.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub time: SimTime,
    /// Monotonic sequence number used to break ties deterministically.
    pub key: EventKey,
    /// The payload.
    pub event: E,
}

/// Which of the three sources holds the next event.
#[derive(Clone, Copy)]
enum Source {
    Lane,
    Timer,
    Heap,
}

/// Internal heap entry ordered so the `BinaryHeap` (a max-heap) pops the
/// earliest time / lowest sequence first.
struct HeapEntry<E> {
    time: SimTime,
    seq: u64,
    slot: u32,
    event: E,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for HeapEntry<E> {}
impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse: smallest (time, seq) should be the heap maximum.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic, cancellable, time-ordered event queue (see the module
/// docs for the three event sources it merges).
pub struct EventQueue<E> {
    /// Undelivered preloaded events, sorted by time (stable). The head's
    /// sequence number is `lane_total - lane.len()`.
    lane: std::vec::IntoIter<(SimTime, E)>,
    /// Number of events handed to [`EventQueue::preload`].
    lane_total: u64,
    /// The armed timer: fire time, sequence number of the arm, payload.
    timer: Option<(SimTime, u64, E)>,
    heap: BinaryHeap<HeapEntry<E>>,
    /// The slab: the sequence number of the pending heap event each slot
    /// tracks, or `FREE`.
    slots: Vec<u64>,
    /// Indices of the `FREE` slots, reused last-in first-out.
    free: Vec<u32>,
    /// The next sequence number: lane events, `schedule` calls and timer
    /// arms all draw from this one counter.
    next_seq: u64,
    scheduled_total: u64,
    cancelled_total: u64,
    heap_peak: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with pre-allocated capacity for `cap`
    /// dynamic events.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            lane: Vec::new().into_iter(),
            lane_total: 0,
            timer: None,
            heap: BinaryHeap::with_capacity(cap),
            slots: Vec::with_capacity(cap),
            free: Vec::new(),
            next_seq: 0,
            scheduled_total: 0,
            cancelled_total: 0,
            heap_peak: 0,
        }
    }

    /// Number of pending heap events (occupied slots).
    fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    fn is_pending(&self, seq: u64, slot: u32) -> bool {
        self.slots.get(slot as usize) == Some(&seq)
    }

    /// Frees the slot of a delivered or cancelled heap event.
    fn retire(&mut self, slot: u32) {
        self.slots[slot as usize] = FREE;
        self.free.push(slot);
    }

    /// Restores the invariant that the heap top is not a tombstone.
    fn skim(&mut self) {
        if self.heap.len() == self.live() {
            return; // every heap entry is pending: nothing to skim
        }
        while let Some(entry) = self.heap.peek() {
            if self.is_pending(entry.seq, entry.slot) {
                return;
            }
            self.heap.pop();
        }
    }

    /// Rebuilds the heap from its live entries once tombstones dominate.
    fn maybe_compact_heap(&mut self) {
        if self.heap.len() > 2 * self.live() + COMPACT_SLACK {
            let slots = &self.slots;
            self.heap
                .retain(|e| slots.get(e.slot as usize) == Some(&e.seq));
        }
    }

    /// Loads the events known before the run starts into the preloaded lane.
    /// They are delivered in time order, equal times in iteration order, and
    /// ahead of any dynamic event of the same time.
    ///
    /// # Panics
    /// Panics unless called on a queue that has drawn no sequence number
    /// yet, i.e. before any `preload`, `schedule` or `arm_timer`.
    pub fn preload(&mut self, events: impl IntoIterator<Item = (SimTime, E)>) {
        assert_eq!(
            self.next_seq, 0,
            "preload must come before the first schedule / arm_timer"
        );
        let mut lane: Vec<(SimTime, E)> = events.into_iter().collect();
        lane.sort_by_key(|&(time, _)| time);
        self.lane_total = lane.len() as u64;
        self.next_seq = self.lane_total;
        self.lane = lane.into_iter();
    }

    /// Schedules `event` at absolute time `time` and returns a cancellation key.
    pub fn schedule(&mut self, time: SimTime, event: E) -> EventKey {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = seq;
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("under 2^32 pending events");
                self.slots.push(seq);
                slot
            }
        };
        self.heap.push(HeapEntry {
            time,
            seq,
            slot,
            event,
        });
        self.heap_peak = self.heap_peak.max(self.heap.len());
        EventKey { seq, slot }
    }

    /// Arms the timer slot to deliver `event` at absolute time `time`,
    /// replacing whatever was armed. Ordered against every other event as if
    /// it had just been `schedule`d (it draws the next sequence number).
    pub fn arm_timer(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.timer = Some((time, seq, event));
    }

    /// Disarms the timer slot; returns whether it was armed.
    pub fn disarm_timer(&mut self) -> bool {
        self.timer.take().is_some()
    }

    /// Cancels a previously scheduled event. Returns `true` if the event was
    /// still pending — i.e. had not been popped or cancelled before. A key
    /// whose event was already delivered is a no-op reporting `false` (it
    /// must not leave a tombstone behind, or the live count would drift), and
    /// so is the key of a lane or timer event.
    pub fn cancel(&mut self, key: EventKey) -> bool {
        if !self.is_pending(key.seq, key.slot) {
            return false;
        }
        self.retire(key.slot);
        self.cancelled_total += 1;
        self.skim();
        self.maybe_compact_heap();
        true
    }

    /// Time, key and source of the next event: the minimum `(time, seq)`
    /// over the heap top (never a tombstone), the armed timer and the lane
    /// head.
    fn head(&self) -> Option<(SimTime, EventKey, Source)> {
        let mut best = self.heap.peek().map(|entry| {
            let key = EventKey {
                seq: entry.seq,
                slot: entry.slot,
            };
            (entry.time, key, Source::Heap)
        });
        let mut offer = |time: SimTime, seq: u64, source: Source| {
            if best.is_none_or(|(t, k, _)| (time, seq) < (t, k.seq)) {
                best = Some((time, EventKey { seq, slot: NO_SLOT }, source));
            }
        };
        if let Some((time, seq, _)) = &self.timer {
            offer(*time, *seq, Source::Timer);
        }
        if let Some((time, _)) = self.lane.as_slice().first() {
            offer(
                *time,
                self.lane_total - self.lane.len() as u64,
                Source::Lane,
            );
        }
        best
    }

    /// Removes and returns the next (earliest) non-cancelled event.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let (time, key, source) = self.head()?;
        let event = match source {
            Source::Lane => self.lane.next().expect("head saw a lane event").1,
            Source::Timer => self.timer.take().expect("head saw the timer").2,
            Source::Heap => self.pop_heap(),
        };
        Some(ScheduledEvent { time, key, event })
    }

    /// Takes the heap top (pending, by the skim invariant) and retires it.
    fn pop_heap(&mut self) -> E {
        let entry = self.heap.pop().expect("head saw a heap event");
        debug_assert!(
            self.is_pending(entry.seq, entry.slot),
            "tombstone surfaced on top"
        );
        self.retire(entry.slot);
        self.skim();
        self.maybe_compact_heap();
        entry.event
    }

    /// Returns the time of the next non-cancelled event without removing it.
    ///
    /// The skim invariant (tombstones never rest on top of the heap) makes
    /// this a plain `&self` read; it is exact, not an upper bound.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.head().map(|(time, _, _)| time)
    }

    /// Returns the time and key of the next non-cancelled event without
    /// removing it (cancellation-safe peek for callers that need to decide
    /// whether to cancel what they are looking at).
    pub fn peek_key(&self) -> Option<(SimTime, EventKey)> {
        self.head().map(|(time, key, _)| (time, key))
    }

    /// Number of events currently pending: undelivered lane events, the
    /// armed timer, and heap events not yet delivered or cancelled.
    pub fn len(&self) -> usize {
        self.live() + self.lane.len() + usize::from(self.timer.is_some())
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of `schedule` calls, i.e. heap pushes (preloaded events
    /// and timer arms never reach the heap and are not counted).
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Total number of events ever cancelled on this queue.
    pub fn cancelled_total(&self) -> u64 {
        self.cancelled_total
    }

    /// Number of entries physically held by the heap, live plus tombstones
    /// (diagnostics: compaction keeps this within `2·live + O(1)`).
    pub fn heap_entries(&self) -> usize {
        self.heap.len()
    }

    /// Largest `heap_entries()` ever reached.
    pub fn heap_peak(&self) -> usize {
        self.heap_peak
    }

    /// Occupied slab slots, i.e. pending heap events (diagnostics).
    pub fn status_entries(&self) -> usize {
        self.live()
    }

    /// Slots the slab holds, occupied or free: the most heap events pending
    /// at once since the queue was created or cleared (a slot is added only
    /// when every existing one is occupied).
    pub fn slab_slots(&self) -> usize {
        self.slots.len()
    }

    /// Removes every pending event from all three sources (keys of dropped
    /// heap events then behave like cancelled ones: a later `cancel` reports
    /// `false`).
    ///
    /// Sequence numbers keep growing monotonically across a clear, so an
    /// `EventKey` issued before the clear can never alias an event scheduled
    /// after it.
    pub fn clear(&mut self) {
        self.lane = Vec::new().into_iter();
        self.timer = None;
        self.heap.clear();
        self.slots.clear();
        self.free.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3.0), "c");
        q.schedule(SimTime::from_secs(1.0), "a");
        q.schedule(SimTime::from_secs(2.0), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5.0);
        for i in 0..10 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let k1 = q.schedule(SimTime::from_secs(1.0), "a");
        q.schedule(SimTime::from_secs(2.0), "b");
        assert!(q.cancel(k1));
        assert!(!q.cancel(k1), "double cancel reports false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().event, "b");
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_unknown_key_is_noop() {
        let mut q: EventQueue<&str> = EventQueue::new();
        assert!(!q.cancel(EventKey { seq: 99, slot: 0 }));
    }

    #[test]
    fn cancel_after_delivery_is_rejected() {
        // Regression: cancelling a key whose event was already popped used to
        // insert a permanent tombstone, making `len()` underflow (panic in
        // debug, a huge bogus count in release) on the next computation.
        let mut q = EventQueue::new();
        let k = q.schedule(SimTime::from_secs(1.0), "a");
        let delivered = q.pop().unwrap();
        assert_eq!(delivered.key, k);
        assert!(!q.cancel(k), "consumed key must not be cancellable");
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
        assert_eq!(q.cancelled_total(), 0);

        // The queue keeps functioning normally afterwards.
        let k2 = q.schedule(SimTime::from_secs(2.0), "b");
        assert_eq!(q.len(), 1);
        assert!(q.cancel(k2));
        assert_eq!(q.len(), 0);
        assert!(q.pop().is_none());
    }

    #[test]
    fn stale_key_misses_the_event_that_reused_its_slot() {
        let mut q = EventQueue::new();
        let old = q.schedule(SimTime::from_secs(1.0), "old");
        assert!(q.cancel(old));
        let new = q.schedule(SimTime::from_secs(2.0), "new");
        assert_eq!(new.slot, old.slot, "the freed slot is reused");
        assert!(!q.cancel(old), "the stale key names a retired sequence");
        assert_eq!(q.len(), 1);
        let delivered = q.pop().unwrap();
        assert_eq!((delivered.event, delivered.key), ("new", new));
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let k = q.schedule(SimTime::from_secs(1.0), "a");
        q.schedule(SimTime::from_secs(2.0), "b");
        q.cancel(k);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2.0)));
    }

    #[test]
    fn peek_key_identifies_the_next_event() {
        let mut q = EventQueue::new();
        let k1 = q.schedule(SimTime::from_secs(1.0), "a");
        let k2 = q.schedule(SimTime::from_secs(2.0), "b");
        assert_eq!(q.peek_key(), Some((SimTime::from_secs(1.0), k1)));
        // Cancelling exactly what was peeked is safe and exposes the next.
        assert!(q.cancel(k1));
        assert_eq!(q.peek_key(), Some((SimTime::from_secs(2.0), k2)));
        q.cancel(k2);
        assert_eq!(q.peek_key(), None);
    }

    #[test]
    fn counters_track_activity() {
        let mut q = EventQueue::new();
        let k = q.schedule(SimTime::ZERO, 1);
        q.schedule(SimTime::ZERO, 2);
        q.cancel(k);
        assert_eq!(q.scheduled_total(), 2);
        assert_eq!(q.cancelled_total(), 1);
        assert_eq!(q.len(), 1);
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn cleared_keys_cannot_be_cancelled() {
        let mut q = EventQueue::new();
        let k = q.schedule(SimTime::ZERO, 1);
        q.clear();
        assert!(!q.cancel(k));
        assert_eq!(q.len(), 0);
        assert!(q.pop().is_none());
        // Nor once a new event holds the slot again.
        q.schedule(SimTime::ZERO, 2);
        assert!(!q.cancel(k));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn tombstone_compaction_bounds_memory_and_preserves_pop_order() {
        // Heavy-cancellation regression: waves of schedule-then-cancel (the
        // fault injector's timer pattern) must not grow the heap or the slab
        // without bound, and the survivors must pop in exactly the order a
        // cancellation-free queue would produce.
        let mut q = EventQueue::new();
        let mut survivors = Vec::new();
        for wave in 0..100u64 {
            let mut keys = Vec::new();
            for i in 0..100u64 {
                let t = SimTime::from_secs((wave * 100 + (i * 37) % 100) as f64);
                let payload = wave * 100 + i;
                keys.push((q.schedule(t, payload), t, payload));
            }
            for (n, &(key, t, payload)) in keys.iter().enumerate() {
                if n % 100 < 99 {
                    assert!(q.cancel(key));
                } else {
                    survivors.push((t, key.sequence(), payload));
                }
                assert!(
                    q.heap_entries() <= 2 * q.len() + 64,
                    "heap grew unboundedly: {} entries for {} live",
                    q.heap_entries(),
                    q.len()
                );
            }
            assert!(q.slab_slots() <= 100 + q.len());
        }
        survivors.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut popped = Vec::new();
        while let Some(ev) = q.pop() {
            popped.push(ev.event);
        }
        let expected: Vec<u64> = survivors.iter().map(|&(_, _, p)| p).collect();
        assert_eq!(popped, expected);
        // Fully drained: the heap is empty and no slot is occupied.
        assert_eq!(q.heap_entries(), 0);
        assert_eq!(q.status_entries(), 0);
        assert_eq!(q.scheduled_total(), 10_000);
    }

    #[test]
    fn far_future_event_keeps_the_slab_o_live() {
        // Regression (PR 10): one far-future pending event must not make
        // resident bookkeeping grow with the total number of events
        // scheduled — at 10⁶ job events behind a single maintenance timer
        // that is a gigabyte-scale leak. The slab holds the pending events
        // and nothing else throughout, and everything delivers in order.
        let mut q = EventQueue::new();
        let far = q.schedule(SimTime::from_secs(1e12), u64::MAX);

        let mut next_expected = 0u64;
        let total: u64 = 1_000_000;
        let batch: u64 = 1_000;
        for wave in 0..(total / batch) {
            let mut keys = Vec::new();
            for i in 0..batch {
                let payload = wave * batch + i;
                keys.push(q.schedule(SimTime::from_secs(payload as f64), payload));
            }
            assert_eq!(q.status_entries(), q.len());
            // Cancel a few per wave so freed slots come from both paths.
            for (n, key) in keys.iter().enumerate() {
                if n % 250 == 0 {
                    assert!(q.cancel(*key));
                }
            }
            while q.len() > 1 {
                let ev = q.pop().unwrap();
                assert!(ev.event >= next_expected, "pop went backwards");
                next_expected = ev.event + 1;
            }
            assert_eq!(q.status_entries(), 1, "only the far event holds a slot");
            assert_eq!(q.slab_slots(), batch as usize + 1, "slots are reused");
        }

        // The far-future event is still pending, cancellable, and the queue
        // drains clean.
        assert_eq!(q.len(), 1);
        assert!(q.cancel(far));
        assert!(!q.cancel(far), "double cancel reports false");
        assert!(q.pop().is_none());
        assert_eq!(q.status_entries(), 0);
        assert_eq!(q.scheduled_total(), total + 1);
    }

    #[test]
    fn far_future_event_still_delivers_behind_reused_slots() {
        // The long-pending event must still deliver (not just cancel) after
        // thousands of events cycled through the slot beside it.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1e9), "far");
        for i in 0..10_000u64 {
            q.schedule(SimTime::from_secs(i as f64), "near");
            let ev = q.pop().unwrap();
            assert_eq!(ev.event, "near");
        }
        assert_eq!(q.slab_slots(), 2);
        let ev = q.pop().unwrap();
        assert_eq!(ev.event, "far");
        assert!(q.pop().is_none());
        assert!(q.is_empty());
        assert_eq!(q.status_entries(), 0);
    }

    fn drain<E>(q: &mut EventQueue<E>) -> Vec<E> {
        std::iter::from_fn(|| q.pop().map(|e| e.event)).collect()
    }

    #[test]
    fn preloaded_lane_sorts_stably_and_wins_time_ties() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs;
        q.preload([(t(2.0), "lane-2a"), (t(1.0), "lane-1"), (t(2.0), "lane-2b")]);
        q.schedule(t(2.0), "heap-2");
        q.schedule(t(1.0), "heap-1");
        q.arm_timer(t(2.0), "timer-2");
        assert_eq!(q.len(), 6);
        assert_eq!(q.scheduled_total(), 2, "only `schedule` reaches the heap");
        assert_eq!(q.peek_time(), Some(t(1.0)));
        assert_eq!(
            drain(&mut q),
            vec!["lane-1", "heap-1", "lane-2a", "lane-2b", "heap-2", "timer-2"]
        );
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "preload must come before")]
    fn preload_after_schedule_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, 0);
        q.preload([(SimTime::ZERO, 1)]);
    }

    #[test]
    fn timer_orders_like_cancel_plus_schedule() {
        // The same script against the heap (cancel + schedule, what the
        // fluid model used to do) and against the timer slot: every re-arm
        // lands among equal-time events exactly where a fresh `schedule`
        // would have, and keys drawn after an arm stay valid. Keys of the
        // two queues agree on their sequence numbers; their slots differ.
        let t = SimTime::from_secs;
        let mut heap = EventQueue::new();
        let mut slot = EventQueue::new();
        let mut heap_timer = None;
        for round in 0..50u32 {
            let at = t(f64::from(round / 3));
            if let Some(key) = heap_timer.take() {
                heap.cancel(key);
            }
            heap_timer = Some(heap.schedule(at, u32::MAX - round));
            slot.arm_timer(at, u32::MAX - round);
            let a = heap.schedule(at, round);
            let b = slot.schedule(at, round);
            assert_eq!(a.sequence(), b.sequence(), "same counter, same sequence");
            if round % 4 == 0 {
                assert_eq!(heap.cancel(a), slot.cancel(b));
            }
            if round % 5 == 0 {
                let popped = heap.pop().unwrap();
                heap_timer = heap_timer.filter(|&key| key != popped.key);
                assert_eq!(slot.pop().unwrap().event, popped.event);
            }
            assert_eq!(heap.len(), slot.len());
        }
        assert_eq!(drain(&mut heap), drain(&mut slot));
        assert_eq!(slot.cancelled_total(), 13, "arming cancels nothing");
        assert!(slot.scheduled_total() < heap.scheduled_total());
    }

    #[test]
    fn rearming_takes_no_slot() {
        let mut q = EventQueue::new();
        let far = q.schedule(SimTime::from_secs(1e12), 0u64);
        for i in 1..=100_000u64 {
            q.arm_timer(SimTime::from_secs(i as f64), i);
        }
        assert_eq!((q.status_entries(), q.slab_slots()), (1, 1));
        assert_eq!((q.len(), q.heap_entries(), q.heap_peak()), (2, 1, 1));
        let (_, timer_key) = q.peek_key().unwrap();
        assert!(!q.cancel(timer_key), "the timer's key cancels nothing");
        assert!(q.disarm_timer());
        assert!(!q.disarm_timer());
        assert!(q.cancel(far), "behind 100k arms, still cancellable");
        assert_eq!(q.status_entries(), 0);
    }

    #[test]
    fn clear_drops_all_three_sources() {
        let mut q = EventQueue::new();
        q.preload([(SimTime::ZERO, 1), (SimTime::ZERO, 2)]);
        assert_eq!(q.pop().unwrap().key.sequence(), 0);
        let key = q.schedule(SimTime::ZERO, 3);
        q.arm_timer(SimTime::ZERO, 4);
        assert_eq!(q.len(), 3);
        q.clear();
        assert!(q.is_empty() && q.pop().is_none() && q.peek_key().is_none());
        assert!(!q.cancel(key));
        assert_eq!(q.schedule(SimTime::ZERO, 5).sequence(), 4);
    }

    #[test]
    fn drained_queue_holds_no_slot() {
        let mut q = EventQueue::new();
        let first = q.schedule(SimTime::ZERO, 0);
        for i in 1..1000 {
            q.schedule(SimTime::from_secs(i as f64), i);
        }
        for _ in 0..1000 {
            q.pop().unwrap();
        }
        assert_eq!(q.status_entries(), 0, "a drained queue occupies no slot");
        // Delivered keys are not cancellable, and new events keep working.
        assert!(!q.cancel(first));
        let k = q.schedule(SimTime::ZERO, 1000);
        assert_eq!(k.sequence(), 1000);
        assert!(!q.cancel(first));
        assert!(q.cancel(k));
    }
}
