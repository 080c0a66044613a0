//! Lockstep equivalence test: [`EventQueue`] against a naive reference twin.
//!
//! The production queue merges a sorted lane, a timer slot and a heap with
//! lazy cancellation, a slot slab with a free list and tombstone compaction.
//! The twin knows none of that: every undelivered event of every source sits
//! in one unsorted `Vec`, the next event is found by a linear minimum scan,
//! and removal is `Vec::remove`. Random `preload` / `schedule` / `cancel` /
//! `arm_timer` / `disarm_timer` / `pop` / `clear` sequences over a handful of
//! distinct times (so most events tie) must then agree on every popped
//! `(time, key, payload)`, on `len`, `peek_time` and `peek_key` after every
//! step, and on every `cancel` / `disarm_timer` return value — including
//! cancels of stale keys whose slab slot a newer event has taken over.

use cgsim_des::{EventKey, EventQueue, SimTime};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Origin {
    /// Preloaded, with its position in the `preload` iteration. Sorts before
    /// `Dynamic`, so a lane event wins every time tie against the rest.
    Lane(usize),
    /// `schedule`d or armed, with the sequence number it drew.
    Dynamic(u64),
}

#[derive(Debug, Clone, Copy)]
struct RefEvent {
    time: SimTime,
    origin: Origin,
    is_timer: bool,
    payload: u32,
}

#[derive(Default)]
struct ReferenceQueue {
    events: Vec<RefEvent>,
    next_seq: u64,
    lane_delivered: u64,
}

impl ReferenceQueue {
    fn preload(&mut self, events: &[(SimTime, u32)]) {
        for (position, &(time, payload)) in events.iter().enumerate() {
            self.events.push(RefEvent {
                time,
                origin: Origin::Lane(position),
                is_timer: false,
                payload,
            });
        }
        self.next_seq = events.len() as u64;
    }

    fn push_dynamic(&mut self, time: SimTime, payload: u32, is_timer: bool) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push(RefEvent {
            time,
            origin: Origin::Dynamic(seq),
            is_timer,
            payload,
        });
        seq
    }

    fn disarm_timer(&mut self) -> bool {
        let armed = self.events.iter().position(|e| e.is_timer);
        armed.map(|i| self.events.remove(i)).is_some()
    }

    fn arm_timer(&mut self, time: SimTime, payload: u32) {
        self.disarm_timer();
        self.push_dynamic(time, payload, true);
    }

    /// Only heap events are cancellable by key.
    fn cancel(&mut self, seq: u64) -> bool {
        let found = self
            .events
            .iter()
            .position(|e| !e.is_timer && e.origin == Origin::Dynamic(seq));
        found.map(|i| self.events.remove(i)).is_some()
    }

    fn next_index(&self) -> Option<usize> {
        (0..self.events.len()).min_by_key(|&i| (self.events[i].time, self.events[i].origin))
    }

    /// The sequence number the production queue reports for an event: lane
    /// events are numbered in delivery order.
    fn seq_of(&self, event: &RefEvent) -> u64 {
        match event.origin {
            Origin::Lane(_) => self.lane_delivered,
            Origin::Dynamic(seq) => seq,
        }
    }

    /// Pending heap events: the ones a slab slot should be holding.
    fn heap_events(&self) -> usize {
        let on_heap = |e: &&RefEvent| !e.is_timer && matches!(e.origin, Origin::Dynamic(_));
        self.events.iter().filter(on_heap).count()
    }

    fn peek(&self) -> Option<(SimTime, u64)> {
        let event = &self.events[self.next_index()?];
        Some((event.time, self.seq_of(event)))
    }

    fn pop(&mut self) -> Option<(SimTime, u64, u32)> {
        let event = self.events.remove(self.next_index()?);
        let seq = self.seq_of(&event);
        if matches!(event.origin, Origin::Lane(_)) {
            self.lane_delivered += 1;
        }
        Some((event.time, seq, event.payload))
    }
}

/// Five near times that tie constantly, and now and then a far one that
/// stays pending while the slots beside it are freed and reused.
fn time_of(pick: usize) -> SimTime {
    const NEAR: [f64; 5] = [0.0, 1.0, 1.0 + f64::EPSILON, 2.0, 3.0];
    SimTime::from_secs(match pick {
        14 => 1e6,
        15 => 1e9,
        near => NEAR[near % NEAR.len()],
    })
}

fn check_heads(queue: &EventQueue<u32>, reference: &ReferenceQueue) {
    assert_eq!(queue.len(), reference.events.len());
    assert_eq!(queue.is_empty(), reference.events.is_empty());
    let head = queue.peek_key().map(|(t, k)| (t, k.sequence()));
    assert_eq!(head, reference.peek());
    assert_eq!(queue.peek_time(), reference.peek().map(|(t, _)| t));
}

proptest! {
    #[test]
    fn event_queue_matches_the_naive_twin(
        preloaded in prop::collection::vec(0usize..16, 0..40),
        ops in prop::collection::vec((0u8..32, 0usize..16, 0usize..1000), 1..1500),
    ) {
        let mut queue: EventQueue<u32> = EventQueue::new();
        let mut reference = ReferenceQueue::default();
        let mut payload = 0u32;
        let mut fresh = || {
            payload += 1;
            payload
        };

        let lane: Vec<(SimTime, u32)> = preloaded.iter().map(|&t| (time_of(t), fresh())).collect();
        reference.preload(&lane);
        queue.preload(lane);
        check_heads(&queue, &reference);

        // Every key the queue ever showed: schedule's, and — through peeks
        // and pops — lane and timer events' (never cancellable) and long
        // retired ones.
        let mut keys: Vec<EventKey> = Vec::new();
        let (mut scheduled, mut cancelled) = (0u64, 0u64);
        for &(op, time_pick, key_pick) in &ops {
            match op {
                0..=7 => {
                    let event = fresh();
                    let key = queue.schedule(time_of(time_pick), event);
                    let seq = reference.push_dynamic(time_of(time_pick), event, false);
                    prop_assert_eq!(key.sequence(), seq);
                    keys.push(key);
                    scheduled += 1;
                }
                8..=10 if !keys.is_empty() => {
                    let key = keys[key_pick % keys.len()];
                    let hit = queue.cancel(key);
                    prop_assert_eq!(hit, reference.cancel(key.sequence()), "cancel {:?}", key);
                    cancelled += u64::from(hit);
                    if hit && key_pick % 2 == 0 {
                        // The next schedule takes the freed slot over; the
                        // stale key must not reach the event now in it.
                        let event = fresh();
                        keys.push(queue.schedule(time_of(time_pick), event));
                        reference.push_dynamic(time_of(time_pick), event, false);
                        scheduled += 1;
                        prop_assert!(!queue.cancel(key), "stale {:?}", key);
                        prop_assert!(!reference.cancel(key.sequence()));
                    }
                }
                11..=16 => {
                    let event = fresh();
                    queue.arm_timer(time_of(time_pick), event);
                    reference.arm_timer(time_of(time_pick), event);
                }
                17..=18 => prop_assert_eq!(queue.disarm_timer(), reference.disarm_timer()),
                // Rare, so the queue grows deep between clears.
                31 if key_pick < 50 => {
                    queue.clear();
                    reference.events.clear();
                }
                19..=31 => {
                    if let Some((_, key)) = queue.peek_key() {
                        keys.push(key);
                    }
                    let popped = queue.pop().map(|e| (e.time, e.key.sequence(), e.event));
                    prop_assert_eq!(popped, reference.pop());
                }
                _ => {}
            }
            check_heads(&queue, &reference);
            prop_assert_eq!(queue.scheduled_total(), scheduled);
            prop_assert_eq!(queue.cancelled_total(), cancelled);
            prop_assert!(queue.heap_entries() <= 2 * queue.len() + 64);
            prop_assert_eq!(queue.status_entries(), reference.heap_events());
        }

        while let Some(event) = queue.pop() {
            let popped = (event.time, event.key.sequence(), event.event);
            prop_assert_eq!(Some(popped), reference.pop());
        }
        prop_assert!(reference.events.is_empty());
        prop_assert_eq!(queue.status_entries(), 0);
    }
}
