//! Deterministic pending-event set.
//!
//! Events are ordered by `(time, rank, sequence)` where the sequence number
//! is the insertion order, so two runs that schedule the same events in the
//! same order pop them in the same order — a prerequisite for the
//! reproducible traces the simulator and testbed compare against each
//! other. The rank is a caller-chosen tie-break inside one instant
//! ([`EventQueue::schedule_ranked`]); plain [`EventQueue::schedule`] uses
//! rank 0, which leaves ties in insertion order.
//!
//! There is no cancellation: both schedulers that use the queue guard
//! against stale events with their own per-job generation counters and
//! drop them when popped.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Heap entry, ordered by `(time, rank, seq)` alone.
struct Entry<E> {
    time: SimTime,
    rank: u32,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.time, self.rank, self.seq).cmp(&(other.time, other.rank, other.seq))
    }
}

/// A time-ordered queue of future events.
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
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

    /// Schedules `event` at `time`, after every event already pending at
    /// that instant with rank 0.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        self.schedule_ranked(time, 0, event);
    }

    /// Schedules `event` at `time` with tie-break `rank`: at one instant,
    /// lower ranks pop first and equal ranks in insertion order.
    pub fn schedule_ranked(&mut self, time: SimTime, rank: u32, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Entry {
            time,
            rank,
            seq,
            event,
        }));
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|Reverse(e)| (e.time, e.event))
    }

    /// Time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn at(ns: u64) -> SimTime {
        SimTime(ns)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(at(30), "c");
        q.schedule(at(10), "a");
        q.schedule(at(20), "b");
        assert_eq!(q.peek_time(), Some(at(10)));
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((at(10), "a")));
        assert_eq!(q.pop(), Some((at(20), "b")));
        assert_eq!(q.pop(), Some((at(30), "c")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(at(5), 1);
        q.schedule(at(5), 2);
        q.schedule(at(5), 3);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn ranks_break_ties_before_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule_ranked(at(5), 3, "rank 3");
        q.schedule_ranked(at(5), 1, "rank 1, first");
        q.schedule_ranked(at(5), 1, "rank 1, second");
        q.schedule_ranked(at(4), 9, "earlier instant");
        assert_eq!(q.pop(), Some((at(4), "earlier instant")));
        assert_eq!(q.pop(), Some((at(5), "rank 1, first")));
        assert_eq!(q.pop(), Some((at(5), "rank 1, second")));
        assert_eq!(q.pop(), Some((at(5), "rank 3")));
        // Plain `schedule` is rank 0: FIFO at ties, ahead of higher ranks.
        q.schedule_ranked(at(7), 1, "ranked");
        q.schedule(at(7), "plain a");
        q.schedule(at(7), "plain b");
        assert_eq!(q.pop(), Some((at(7), "plain a")));
        assert_eq!(q.pop(), Some((at(7), "plain b")));
        assert_eq!(q.pop(), Some((at(7), "ranked")));
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(at(10), 10u64);
        q.schedule(at(5), 5);
        assert_eq!(q.pop(), Some((at(5), 5)));
        q.schedule(at(7), 7);
        q.schedule(at(6), 6);
        assert_eq!(q.pop(), Some((at(6), 6)));
        assert_eq!(q.pop(), Some((at(7), 7)));
        assert_eq!(q.pop(), Some((at(10), 10)));
    }

    #[test]
    fn large_volume_is_sorted() {
        let mut q = EventQueue::new();
        // Pseudo-random insertion order without a rand dependency.
        let mut x: u64 = 0x243F6A8885A308D3;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let t = x % 1_000;
            q.schedule(SimTime(t) + SimDuration::ZERO, t);
        }
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
        }
    }
}
