//! The pending-event queue.
//!
//! Events fire keyed on `(time, sequence)`: time order, with events
//! scheduled for the same instant firing in the order they were pushed.
//! The stable tie-break matters for determinism — without it, queue
//! internals would decide the order of same-instant events and reruns could
//! diverge.
//!
//! The queue is one binary heap. The study keeps only its polls and sweeps
//! here, about 1.4 k events over a scale run; its planned likes wait in a
//! time-sorted column beside it, which the event loop merges against
//! [`peek_time`][EventQueue::peek_time].

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A time-ordered queue of pending events with FIFO tie-breaking.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedule `event` to fire at `at`.
    pub fn push(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Remove and return the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.at, e.event))
    }

    /// The firing time of the earliest event, or `None` when empty.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever pushed (monotone counter).
    pub fn pushed_total(&self) -> u64 {
        self.next_seq
    }

    /// Snapshot the pending entries as `(at, seq, event)` in firing order
    /// (time, then push order). The internal sequence numbers are exposed
    /// so [`from_entries`][Self::from_entries] can rebuild a queue whose
    /// FIFO tie-breaks match the original exactly — the checkpoint/resume
    /// path depends on that.
    pub fn entries(&self) -> Vec<(SimTime, u64, &E)> {
        let mut out: Vec<(SimTime, u64, &E)> =
            self.heap.iter().map(|e| (e.at, e.seq, &e.event)).collect();
        out.sort_by_key(|(at, seq, _)| (*at, *seq));
        out
    }

    /// Rebuild a queue from a snapshot taken with
    /// [`entries`][Self::entries], preserving the original sequence
    /// numbers. `next_seq` must be the original queue's
    /// [`pushed_total`][Self::pushed_total]. A snapshot is read back from
    /// a file, so an entry whose sequence number is not below `next_seq`
    /// (a future push would collide with it) is an error, not a panic.
    pub fn from_entries(
        entries: Vec<(SimTime, u64, E)>,
        next_seq: u64,
    ) -> Result<Self, SeqCollision> {
        let heap = entries
            .into_iter()
            .map(|(at, seq, event)| match seq < next_seq {
                true => Ok(Entry { at, seq, event }),
                false => Err(SeqCollision { seq, next_seq }),
            })
            .collect::<Result<_, _>>()?;
        Ok(EventQueue { heap, next_seq })
    }
}

/// Why [`EventQueue::from_entries`] refused a snapshot: an entry's sequence
/// number is not below the queue's next one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeqCollision {
    /// The entry's sequence number.
    pub seq: u64,
    /// The snapshot's next sequence number.
    pub next_seq: u64,
}

impl fmt::Display for SeqCollision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "restored entry seq {} >= next_seq {}",
            self.seq, self.next_seq
        )
    }
}

impl std::error::Error for SeqCollision {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::at_day(3), "c");
        q.push(SimTime::at_day(1), "a");
        q.push(SimTime::at_day(2), "b");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn same_instant_is_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::at_day(1);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            let (at, ev) = q.pop().unwrap();
            assert_eq!(at, t);
            assert_eq!(ev, i, "same-time events must pop in push order");
        }
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::at_day(5), 5);
        q.push(SimTime::at_day(1), 1);
        assert_eq!(q.pop().unwrap().1, 1);
        q.push(SimTime::at_day(2), 2);
        q.push(SimTime::at_day(4), 4);
        assert_eq!(q.pop().unwrap().1, 2);
        q.push(SimTime::at_day(3), 3);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 4);
        assert_eq!(q.pop().unwrap().1, 5);
    }

    #[test]
    fn pushes_after_a_pop_tie_behind_earlier_pushes() {
        // A push made after popping began, at the instant of a pending
        // entry, fires after it: global (time, push-order).
        let mut q = EventQueue::new();
        let t = SimTime::at_day(1);
        q.push(t, "early-a");
        q.push(SimTime::at_day(2), "early-b");
        q.push(t, "early-c");
        assert_eq!(q.pop().unwrap().1, "early-a");
        q.push(t, "late-same-t");
        q.push(SimTime::at_day(2), "late-d2");
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop().unwrap().1, "early-c"); // earlier push wins the tie
        assert_eq!(q.pop().unwrap().1, "late-same-t");
        assert_eq!(q.pop().unwrap().1, "early-b");
        assert_eq!(q.pop().unwrap().1, "late-d2");
        assert!(q.pop().is_none());
    }

    #[test]
    fn snapshot_restore_preserves_order_and_ties() {
        let mut q = EventQueue::new();
        let t = SimTime::at_day(2);
        q.push(SimTime::at_day(3), "late");
        q.push(t, "first");
        q.push(t, "second");
        q.pop(); // consume nothing at t yet? pops "first" (earliest is t)
        let entries: Vec<(SimTime, u64, &str)> = q
            .entries()
            .into_iter()
            .map(|(at, seq, e)| (at, seq, *e))
            .collect();
        let mut restored = EventQueue::from_entries(entries, q.pushed_total()).unwrap();
        assert_eq!(restored.pushed_total(), q.pushed_total());
        assert_eq!(restored.pop().unwrap().1, "second");
        restored.push(t + SimDuration::hours(1), "appended");
        assert_eq!(restored.pop().unwrap().1, "appended");
        assert_eq!(restored.pop().unwrap().1, "late");
        assert!(restored.pop().is_none());
    }

    #[test]
    fn restore_rejects_seq_collisions() {
        for (seq, next_seq) in [(3, 2), (2, 2), (0, 0), (1 << 63, 100)] {
            let restored = EventQueue::from_entries(vec![(SimTime::EPOCH, seq, ())], next_seq);
            let err = restored.err().expect("a colliding seq is refused");
            assert_eq!(err, SeqCollision { seq, next_seq });
            assert!(err.to_string().contains("restored entry seq"), "{err}");
        }
        assert!(EventQueue::from_entries(vec![(SimTime::EPOCH, 1, ())], 2).is_ok());
    }

    #[test]
    fn peek_time_names_the_front_without_consuming() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::at_day(2), "b");
        q.push(SimTime::at_day(1), "a");
        assert_eq!(q.peek_time(), Some(SimTime::at_day(1)));
        assert_eq!(q.len(), 2, "peeking must not consume");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.peek_time(), Some(SimTime::at_day(2)));
    }

    #[test]
    fn pushed_total_is_monotone() {
        let mut q = EventQueue::new();
        q.push(SimTime::EPOCH, ());
        q.push(SimTime::EPOCH, ());
        q.pop();
        assert_eq!(q.pushed_total(), 2);
        q.push(SimTime::EPOCH, ());
        assert_eq!(q.pushed_total(), 3);
    }
}
