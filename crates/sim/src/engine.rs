//! The simulation driver.
//!
//! [`Engine`] owns the clock and the event queue; the orchestration layer
//! (the honeypot study) supplies the event type and dispatches each event
//! it takes with [`Engine::step`]. The engine enforces the fundamental
//! discrete-event invariant: the clock never moves backwards, and events
//! scheduled in the past are rejected loudly rather than silently
//! reordered.

use crate::queue::EventQueue;
use crate::time::SimTime;

/// A discrete-event simulation driver over an event type `E`.
pub struct Engine<E> {
    now: SimTime,
    queue: EventQueue<E>,
    fired: u64,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// A fresh engine with the clock at the study epoch.
    pub fn new() -> Self {
        Engine {
            now: SimTime::EPOCH,
            queue: EventQueue::new(),
            fired: 0,
        }
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events dispatched so far.
    pub fn fired(&self) -> u64 {
        self.fired
    }

    /// The underlying queue (read-only) — lets checkpointing snapshot the
    /// pending entries via [`EventQueue::entries`].
    pub fn queue(&self) -> &EventQueue<E> {
        &self.queue
    }

    /// Rebuild an engine from checkpointed parts: the clock, the fired
    /// counter, and a queue restored with [`EventQueue::from_entries`].
    /// Stepping the rebuilt engine is indistinguishable from stepping the
    /// original.
    pub fn from_parts(now: SimTime, fired: u64, queue: EventQueue<E>) -> Self {
        Engine { now, queue, fired }
    }

    /// Schedule `event` at the absolute instant `at`.
    ///
    /// # Panics
    /// Panics when `at` is before the current clock — an event in the past is
    /// always an orchestration bug, and silently clamping it would corrupt
    /// the temporal analyses.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "scheduling into the past: {at} < now {now}",
            now = self.now
        );
        self.queue.push(at, event);
    }

    /// Pop the next event, advancing the clock to its firing time.
    pub fn step(&mut self) -> Option<(SimTime, E)> {
        let (at, ev) = self.queue.pop()?;
        debug_assert!(at >= self.now, "queue yielded an event in the past");
        self.now = at;
        self.fired += 1;
        Some((at, ev))
    }

    /// The firing time of the next queued event, or `None` when nothing
    /// is queued.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Count a run of `events` events dispatched outside the queue, the
    /// last of them at `last`: the clock and the fired counter end where
    /// stepping each of them would have left them. The study fires its
    /// planned likes this way, one run at a time, from a time-sorted
    /// column it merges against [`peek_time`][Self::peek_time].
    pub fn fire_run(&mut self, last: SimTime, events: u64) {
        debug_assert!(last >= self.now, "a run fired in the past");
        self.now = last;
        self.fired += events;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[derive(Debug, PartialEq)]
    enum Ev {
        Tick(u32),
    }

    #[test]
    fn clock_advances_with_events() {
        let mut e = Engine::new();
        e.schedule(SimTime::at_day(1), Ev::Tick(1));
        e.schedule(SimTime::at_day(2), Ev::Tick(2));
        let mut seen = Vec::new();
        while let Some((at, ev)) = e.step() {
            assert_eq!(e.now(), at);
            seen.push((at.day(), ev));
        }
        assert_eq!(seen, vec![(1, Ev::Tick(1)), (2, Ev::Tick(2))]);
        assert_eq!(e.fired(), 2);
    }

    #[test]
    fn a_stepped_event_can_reschedule() {
        // A self-perpetuating 2-hour poll, the crawler's core pattern.
        let mut e: Engine<()> = Engine::new();
        e.schedule(SimTime::EPOCH, ());
        let mut polls = 0u32;
        while e.peek_time().is_some_and(|at| at <= SimTime::at_day(1)) {
            let Some((at, ())) = e.step() else { break };
            polls += 1;
            e.schedule(at + SimDuration::hours(2), ());
        }
        // Polls at 0h, 2h, ..., 24h inclusive = 13.
        assert_eq!(polls, 13);
        assert_eq!(e.now(), SimTime::at_day(1));
        assert_eq!(
            e.peek_time(),
            Some(SimTime::at_day(1) + SimDuration::hours(2)),
            "the 26h poll stays queued"
        );
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_the_past_panics() {
        let mut e = Engine::new();
        e.schedule(SimTime::at_day(1), Ev::Tick(1));
        e.step();
        e.schedule(SimTime::EPOCH, Ev::Tick(0));
    }

    #[test]
    fn checkpointed_engine_resumes_identically() {
        // Drive two engines through the same schedule; freeze one midway,
        // rebuild it from parts, and check the tails agree event for event.
        let schedule = |e: &mut Engine<u32>| {
            for i in 0..20u32 {
                e.schedule(SimTime::at_day(u64::from(i / 4)), i);
            }
        };
        let mut reference = Engine::new();
        schedule(&mut reference);
        let mut live = Engine::new();
        schedule(&mut live);
        let mut ref_seen = Vec::new();
        let mut live_seen = Vec::new();
        for _ in 0..7 {
            ref_seen.push(reference.step().unwrap());
            live_seen.push(live.step().unwrap());
        }
        let entries: Vec<(SimTime, u64, u32)> = live
            .queue()
            .entries()
            .into_iter()
            .map(|(at, seq, e)| (at, seq, *e))
            .collect();
        let queue = EventQueue::from_entries(entries, live.queue().pushed_total()).unwrap();
        let mut resumed = Engine::from_parts(live.now(), live.fired(), queue);
        assert_eq!(resumed.fired(), 7);
        while let Some(ev) = reference.step() {
            ref_seen.push(ev);
            live_seen.push(resumed.step().unwrap());
        }
        assert!(resumed.step().is_none());
        assert_eq!(ref_seen, live_seen);
        assert_eq!(resumed.fired(), reference.fired());
    }

    #[test]
    fn a_fired_run_leaves_the_clock_and_counter_where_steps_would() {
        let mut stepped: Engine<()> = Engine::new();
        for day in [1, 1, 2] {
            stepped.schedule(SimTime::at_day(day), ());
        }
        while stepped.step().is_some() {}
        let mut run: Engine<()> = Engine::new();
        run.fire_run(SimTime::at_day(2), 3);
        assert_eq!((run.now(), run.fired()), (stepped.now(), stepped.fired()));
        assert_eq!(run.peek_time(), None);
    }

    #[test]
    fn same_time_events_fire_in_schedule_order() {
        let mut e = Engine::new();
        for i in 0..10 {
            e.schedule(SimTime::at_day(1), Ev::Tick(i));
        }
        let mut order = Vec::new();
        while let Some((_, Ev::Tick(i))) = e.step() {
            order.push(i);
        }
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }
}
