//! The pending-event queue.
//!
//! Events fire keyed on `(time, sequence)`: time order, with events
//! scheduled for the same instant firing in the order they were pushed.
//! The stable tie-break matters for determinism — without it, queue
//! internals would decide the order of same-instant events and reruns could
//! diverge.
//!
//! ## Hybrid layout
//!
//! The study's workload is bimodal: setup bulk-schedules millions of events
//! (the organic like plan, farm deliveries, poll cadences) before the first
//! pop, then the event loop adds a trickle of reschedules while draining.
//! A binary heap pays `O(log n)` of cache-hostile sifting per operation on
//! the bulk; a sorted array cannot absorb the trickle. So the queue keeps
//! both:
//!
//! - everything pushed before the first pop lands in an unsorted `bulk`
//!   vector, sorted **once** (descending, so popping from the back yields
//!   ascending order) when draining starts;
//! - everything pushed after that goes to a small heap;
//! - `pop` takes whichever front has the smaller `(time, seq)` key.
//!
//! Bulk entries always carry smaller sequence numbers than heap entries
//! (they were pushed earlier), so comparing the full `(time, seq)` key
//! reproduces the exact pop order a single heap would have produced — the
//! layout is an invisible optimization, which the unit tests pin.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
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
    /// Events pushed before draining began, unsorted. Sorted into `run` on
    /// the first pop; empty forever after.
    bulk: Vec<Entry<E>>,
    /// The sorted bulk, *descending* by `(time, seq)` so the back is the
    /// earliest event and popping is `Vec::pop`.
    run: Vec<Entry<E>>,
    /// Events pushed after draining began.
    heap: BinaryHeap<Entry<E>>,
    /// True once the first pop happened; routes pushes to `heap`.
    draining: bool,
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
            bulk: Vec::new(),
            run: Vec::new(),
            heap: BinaryHeap::new(),
            draining: false,
            next_seq: 0,
        }
    }

    /// Schedule `event` to fire at `at`.
    pub fn push(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Entry { at, seq, event };
        if self.draining {
            self.heap.push(entry);
        } else {
            self.bulk.push(entry);
        }
    }

    /// Sort the pre-drain bulk into the consumable run. Runs at most once
    /// per queue lifetime (plus once more after a checkpoint restore): after
    /// draining starts, pushes go to the heap and `bulk` stays empty.
    fn flush_bulk(&mut self) {
        if !self.bulk.is_empty() {
            debug_assert!(self.run.is_empty(), "bulk refilled after the flush");
            self.bulk
                .sort_unstable_by_key(|e| (std::cmp::Reverse(e.at), std::cmp::Reverse(e.seq)));
            self.run = std::mem::take(&mut self.bulk);
        }
    }

    /// Remove and return the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_if(|_, _| true)
    }

    /// Remove and return the earliest event only when `pred` approves it;
    /// leave the queue untouched (and return `None`) otherwise.
    ///
    /// This is the coalescing primitive: the event loop peeks at the front
    /// through `pred` and keeps draining while consecutive events belong to
    /// the same batchable run, stopping — without consuming — at the first
    /// event of a different kind. Pop order is identical to calling
    /// [`pop`][Self::pop] under the same schedule.
    pub fn pop_if(&mut self, pred: impl FnOnce(SimTime, &E) -> bool) -> Option<(SimTime, E)> {
        self.flush_bulk();
        self.draining = true;
        // Equal keys are impossible (seq is unique); the earlier-pushed
        // entry — always the run's, its seq predates every heap seq — wins
        // equal times via the smaller seq.
        let from_run = match (self.run.last(), self.heap.peek()) {
            (None, None) => return None,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some(r), Some(h)) => (r.at, r.seq) < (h.at, h.seq),
        };
        let e = if from_run {
            let front = self.run.last()?;
            if !pred(front.at, &front.event) {
                return None;
            }
            self.run.pop()?
        } else {
            let front = self.heap.peek_mut()?;
            if !pred(front.at, &front.event) {
                return None;
            }
            PeekMut::pop(front)
        };
        Some((e.at, e.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.bulk.len() + self.run.len() + self.heap.len()
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
        let mut out: Vec<(SimTime, u64, &E)> = self
            .bulk
            .iter()
            .chain(self.run.iter())
            .chain(self.heap.iter())
            .map(|e| (e.at, e.seq, &e.event))
            .collect();
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
        let mut bulk = Vec::with_capacity(entries.len());
        for (at, seq, event) in entries {
            if seq >= next_seq {
                return Err(SeqCollision { seq, next_seq });
            }
            bulk.push(Entry { at, seq, event });
        }
        Ok(EventQueue {
            bulk,
            run: Vec::new(),
            heap: BinaryHeap::new(),
            draining: false,
            next_seq,
        })
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
    fn post_drain_pushes_interleave_with_bulk_fifo() {
        // Mixed layout: three bulk events, then draining starts, then two
        // heap events — one at the same instant as a pending bulk event.
        // Pops must follow global (time, push-order), oblivious to layout.
        let mut q = EventQueue::new();
        let t = SimTime::at_day(1);
        q.push(t, "bulk-a");
        q.push(SimTime::at_day(2), "bulk-b");
        q.push(t, "bulk-c");
        assert_eq!(q.pop().unwrap().1, "bulk-a");
        q.push(t, "late-same-t");
        q.push(SimTime::at_day(2), "late-d2");
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop().unwrap().1, "bulk-c"); // earlier push wins the tie
        assert_eq!(q.pop().unwrap().1, "late-same-t");
        assert_eq!(q.pop().unwrap().1, "bulk-b");
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
    fn pop_if_rejects_without_consuming() {
        let mut q = EventQueue::new();
        q.push(SimTime::at_day(1), "a");
        q.push(SimTime::at_day(2), "b");
        assert!(q.pop_if(|_, &e| e == "b").is_none());
        assert_eq!(q.len(), 2, "rejected pop_if must not consume");
        assert_eq!(q.pop_if(|at, _| at == SimTime::at_day(1)).unwrap().1, "a");
        // Post-drain pushes land in the heap; pop_if must gate that front too.
        q.push(SimTime::at_day(1) + SimDuration::hours(1), "late");
        assert!(q.pop_if(|_, &e| e == "b").is_none());
        assert_eq!(q.pop().unwrap().1, "late");
        assert_eq!(q.pop().unwrap().1, "b");
        assert!(q.pop_if(|_, _| true).is_none());
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
