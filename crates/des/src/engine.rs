//! The discrete-event engine driving an [`EventHandler`].
//!
//! The engine owns the virtual clock and the event queue. A simulation model
//! (in CGSim-RS: the grid simulation in `cgsim-core`) implements
//! [`EventHandler`] and receives each event together with a [`Context`] that
//! lets it schedule follow-up events and cancel pending ones.
//!
//! This mirrors the structure of SimGrid's engine loop: the model never
//! blocks, it only reacts to events and posts new ones, so the loop is a plain
//! `while let Some(event) = queue.pop()`.
//!
//! Events reach the loop from three sources that the queue merges by one
//! `(time, sequence number)` key (contract in [`crate::event`]):
//!
//! * [`Engine::preload`] — the events known before the run (a workload's
//!   submissions), sorted once and delivered from a cursor. Call it before
//!   anything is scheduled; preloaded events win every time tie against
//!   dynamic ones, as if they had been scheduled first.
//! * [`Context::arm_timer`] / [`Context::disarm_timer`] — one re-armable
//!   slot for a model whose single "next completion" prediction moves on
//!   every mutation. Each arm draws a sequence number from the same counter
//!   as `schedule`, so it orders exactly like cancel + schedule, at the cost
//!   of neither.
//! * `schedule_in` / `schedule_at` — the heap, for everything else.
//!
//! [`EventQueue::len`] counts all three.

use crate::event::{EventKey, EventQueue};
use crate::time::SimTime;

/// Trait implemented by simulation models.
pub trait EventHandler<E> {
    /// Handles a single event at the context's current time.
    fn handle(&mut self, ctx: &mut Context<'_, E>, event: E);
}

/// Why an [`Engine::run`] call returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The event queue drained completely.
    QueueExhausted,
    /// The configured time horizon was reached.
    HorizonReached,
    /// The configured event budget was exhausted.
    EventBudgetExhausted,
}

/// Summary of a completed engine run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunReport {
    /// Number of events delivered to the handler.
    pub events_processed: u64,
    /// Virtual time at which the run ended.
    pub end_time: SimTime,
    /// Why the run ended.
    pub stop_reason: StopReason,
}

/// Scheduling facade handed to the event handler for each event.
pub struct Context<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
}

impl<'a, E> Context<'a, E> {
    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules an event `delay` after the current time.
    #[inline]
    pub fn schedule_in(&mut self, delay: SimTime, event: E) -> EventKey {
        self.queue.schedule(self.now + delay, event)
    }

    /// Schedules an event at an absolute time (clamped to now if in the past).
    #[inline]
    pub fn schedule_at(&mut self, time: SimTime, event: E) -> EventKey {
        self.queue.schedule(time.max(self.now), event)
    }

    /// Cancels a pending event.
    #[inline]
    pub fn cancel(&mut self, key: EventKey) -> bool {
        self.queue.cancel(key)
    }

    /// (Re-)arms the engine's timer slot to deliver `event` `delay` after
    /// the current time, replacing whatever was armed.
    #[inline]
    pub fn arm_timer(&mut self, delay: SimTime, event: E) {
        self.queue.arm_timer(self.now + delay, event);
    }

    /// Disarms the timer slot (a no-op when nothing is armed).
    #[inline]
    pub fn disarm_timer(&mut self) {
        self.queue.disarm_timer();
    }
}

/// The discrete-event engine: virtual clock + event queue + run loop.
pub struct Engine<E> {
    now: SimTime,
    queue: EventQueue<E>,
    processed: u64,
    horizon: Option<SimTime>,
    event_budget: Option<u64>,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Creates a fresh engine with the clock at zero.
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            processed: 0,
            horizon: None,
            event_budget: None,
        }
    }

    /// Sets a virtual-time horizon; the run stops before delivering any event
    /// scheduled strictly after the horizon.
    pub fn with_horizon(mut self, horizon: SimTime) -> Self {
        self.horizon = Some(horizon);
        self
    }

    /// Sets a maximum number of events to process in a single `run` call.
    pub fn with_event_budget(mut self, budget: u64) -> Self {
        self.event_budget = Some(budget);
        self
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events processed so far.
    #[inline]
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// The queue, for its diagnostics counters.
    pub fn queue(&self) -> &EventQueue<E> {
        &self.queue
    }

    /// Loads the events known up front, at absolute virtual times, into the
    /// queue's preloaded lane. Must come before anything is scheduled.
    pub fn preload(&mut self, events: impl IntoIterator<Item = (SimTime, E)>) {
        self.queue.preload(events);
    }

    /// Schedules an event at an absolute virtual time.
    pub fn schedule_at(&mut self, time: SimTime, event: E) -> EventKey {
        self.queue.schedule(time, event)
    }

    /// Schedules an event relative to the current virtual time.
    pub fn schedule_in(&mut self, delay: SimTime, event: E) -> EventKey {
        self.queue.schedule(self.now + delay, event)
    }

    /// Delivers the next event to `handler`; `false` when the queue is
    /// empty.
    pub fn step<H: EventHandler<E>>(&mut self, handler: &mut H) -> bool {
        let Some(scheduled) = self.queue.pop() else {
            return false;
        };
        debug_assert!(
            scheduled.time >= self.now,
            "event queue produced an event in the past"
        );
        self.now = scheduled.time.max(self.now);
        self.processed += 1;
        let mut ctx = Context {
            now: self.now,
            queue: &mut self.queue,
        };
        handler.handle(&mut ctx, scheduled.event);
        true
    }

    /// Runs until the queue drains or a configured horizon / event budget is
    /// hit.
    pub fn run<H: EventHandler<E>>(&mut self, handler: &mut H) -> RunReport {
        let start_processed = self.processed;
        let stop_reason = loop {
            if let Some(budget) = self.event_budget {
                if self.processed - start_processed >= budget {
                    break StopReason::EventBudgetExhausted;
                }
            }
            if let Some(horizon) = self.horizon {
                match self.queue.peek_time() {
                    Some(t) if t > horizon => break StopReason::HorizonReached,
                    None => break StopReason::QueueExhausted,
                    _ => {}
                }
            }
            if !self.step(handler) {
                break StopReason::QueueExhausted;
            }
        };
        RunReport {
            events_processed: self.processed - start_processed,
            end_time: self.now,
            stop_reason,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    enum Ev {
        Tick,
        Chain(u32),
        Stop,
    }

    #[derive(Default)]
    struct Recorder {
        times: Vec<f64>,
        chains: u32,
    }

    impl EventHandler<Ev> for Recorder {
        fn handle(&mut self, ctx: &mut Context<'_, Ev>, event: Ev) {
            self.times.push(ctx.now().as_secs());
            match event {
                Ev::Tick => {}
                Ev::Chain(n) => {
                    self.chains += 1;
                    if n > 0 {
                        ctx.schedule_in(SimTime::from_secs(2.0), Ev::Chain(n - 1));
                    }
                }
                Ev::Stop => {}
            }
        }
    }

    #[test]
    fn runs_until_queue_exhausted() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::from_secs(1.0), Ev::Tick);
        engine.schedule_at(SimTime::from_secs(5.0), Ev::Tick);
        let mut rec = Recorder::default();
        let report = engine.run(&mut rec);
        assert_eq!(report.stop_reason, StopReason::QueueExhausted);
        assert_eq!(report.events_processed, 2);
        assert_eq!(rec.times, vec![1.0, 5.0]);
        assert_eq!(engine.now(), SimTime::from_secs(5.0));
    }

    #[test]
    fn chained_events_advance_clock() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::ZERO, Ev::Chain(3));
        let mut rec = Recorder::default();
        engine.run(&mut rec);
        assert_eq!(rec.chains, 4);
        assert_eq!(engine.now(), SimTime::from_secs(6.0));
    }

    #[test]
    fn horizon_stops_before_future_events() {
        let mut engine = Engine::new().with_horizon(SimTime::from_secs(3.0));
        engine.schedule_at(SimTime::from_secs(1.0), Ev::Tick);
        engine.schedule_at(SimTime::from_secs(10.0), Ev::Tick);
        let mut rec = Recorder::default();
        let report = engine.run(&mut rec);
        assert_eq!(report.stop_reason, StopReason::HorizonReached);
        assert_eq!(rec.times, vec![1.0]);
    }

    #[test]
    fn event_budget_is_respected() {
        let mut engine = Engine::new().with_event_budget(2);
        for i in 0..5 {
            engine.schedule_at(SimTime::from_secs(i as f64), Ev::Tick);
        }
        let mut rec = Recorder::default();
        let report = engine.run(&mut rec);
        assert_eq!(report.stop_reason, StopReason::EventBudgetExhausted);
        assert_eq!(report.events_processed, 2);
    }

    #[test]
    fn preloaded_events_and_the_timer_merge_with_scheduled_ones() {
        /// Every tick re-arms the timer half a second out; only the arm that
        /// is still in place when its time comes fires.
        struct Rearm(Vec<(f64, Ev)>);
        impl EventHandler<Ev> for Rearm {
            fn handle(&mut self, ctx: &mut Context<'_, Ev>, event: Ev) {
                self.0.push((ctx.now().as_secs(), event.clone()));
                match event {
                    Ev::Tick => ctx.arm_timer(SimTime::from_secs(0.5), Ev::Chain(0)),
                    Ev::Stop => ctx.disarm_timer(),
                    Ev::Chain(_) => {}
                }
            }
        }
        let mut engine = Engine::new();
        let t = SimTime::from_secs;
        engine.preload([(t(2.0), Ev::Tick), (t(1.0), Ev::Tick), (t(1.2), Ev::Tick)]);
        engine.schedule_at(t(2.0), Ev::Tick);
        engine.schedule_at(t(2.25), Ev::Stop);
        assert_eq!(engine.queue().len(), 5);
        let mut rec = Rearm(Vec::new());
        let report = engine.run(&mut rec);
        assert_eq!(report.stop_reason, StopReason::QueueExhausted);
        assert_eq!(
            rec.0,
            vec![
                (1.0, Ev::Tick),
                (1.2, Ev::Tick), // re-arms 1.5 -> 1.7
                (1.7, Ev::Chain(0)),
                (2.0, Ev::Tick),
                (2.0, Ev::Tick),
                (2.25, Ev::Stop), // disarms the 2.5 timer
            ]
        );
        assert_eq!(engine.queue().scheduled_total(), 2);
    }

    #[test]
    fn step_returns_none_on_empty_queue() {
        let mut engine: Engine<Ev> = Engine::new();
        let mut rec = Recorder::default();
        assert!(!engine.step(&mut rec));
    }
}
