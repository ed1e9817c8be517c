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
//! Time, rank and sequence are packed into one `u128` key, `time << 64 |
//! rank << 32 | seq`, so two entries compare with one integer comparison —
//! the order of the `(time, rank, seq)` tuple, bit for bit. The sequence
//! field is 32 bits wide: the one time in 2³² insertions that it runs out,
//! the pending entries are renumbered `0, 1, …` in their current order,
//! which keeps every pending tie in insertion order and puts every later
//! insertion after them.
//!
//! There is no cancellation: both schedulers that use the queue guard
//! against stale events with their own per-job generation counters and
//! drop them when popped.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// The sequence bits of a key.
const SEQ_MASK: u128 = u32::MAX as u128;

/// Heap entry, ordered by its key alone: `time << 64 | rank << 32 | seq`.
struct Entry<E> {
    key: u128,
    event: E,
}

impl<E> Entry<E> {
    fn time(&self) -> SimTime {
        SimTime((self.key >> 64) as u64)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
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
        self.key.cmp(&other.key)
    }
}

/// A time-ordered queue of future events.
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    /// Sequence field of the next insertion.
    next_seq: u32,
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
        if self.next_seq == u32::MAX {
            self.renumber();
        }
        let key =
            u128::from(time.as_nanos()) << 64 | u128::from(rank) << 32 | u128::from(self.next_seq);
        self.next_seq += 1;
        self.heap.push(Reverse(Entry { key, event }));
    }

    /// Gives the pending entries the sequence numbers `0, 1, …` in key
    /// order, and the next insertion the one after them.
    #[cold]
    fn renumber(&mut self) {
        // Ascending `Reverse` order is descending key order.
        let mut entries = std::mem::take(&mut self.heap).into_sorted_vec();
        assert!(entries.len() < u32::MAX as usize, "event queue full");
        for (seq, Reverse(e)) in entries.iter_mut().rev().enumerate() {
            e.key = e.key & !SEQ_MASK | seq as u128;
        }
        self.next_seq = entries.len() as u32;
        self.heap = BinaryHeap::from(entries);
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|Reverse(e)| (e.time(), e.event))
    }

    /// Time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.time())
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

#[cfg(test)]
mod props {
    use super::*;
    use simrng::{Rng, Xoshiro256};

    /// The entry before its key was packed, ordered by the `(time, rank,
    /// seq)` tuple: the oracle for the packed order.
    struct TupleEntry<E> {
        time: SimTime,
        rank: u32,
        seq: u64,
        event: E,
    }

    impl<E> PartialEq for TupleEntry<E> {
        fn eq(&self, other: &Self) -> bool {
            self.seq == other.seq
        }
    }
    impl<E> Eq for TupleEntry<E> {}
    impl<E> PartialOrd for TupleEntry<E> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<E> Ord for TupleEntry<E> {
        fn cmp(&self, other: &Self) -> Ordering {
            (self.time, self.rank, self.seq).cmp(&(other.time, other.rank, other.seq))
        }
    }

    /// The queue over [`TupleEntry`].
    struct Reference<E> {
        heap: BinaryHeap<Reverse<TupleEntry<E>>>,
        next_seq: u64,
    }

    impl<E> Reference<E> {
        fn new() -> Self {
            Reference {
                heap: BinaryHeap::new(),
                next_seq: 0,
            }
        }

        fn schedule_ranked(&mut self, time: SimTime, rank: u32, event: E) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Reverse(TupleEntry {
                time,
                rank,
                seq,
                event,
            }));
        }

        fn pop(&mut self) -> Option<(SimTime, E)> {
            self.heap.pop().map(|Reverse(e)| (e.time, e.event))
        }

        fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|Reverse(e)| e.time)
        }
    }

    /// Seeded streams of `schedule` / `schedule_ranked` / `pop` /
    /// `peek_time` against the tuple-ordered reference. Times and ranks
    /// come from a few values each, both ends of their ranges included, so
    /// ties occur on the time alone and on time and rank, where the
    /// sequence decides. Now and then the sequence field is brought to the
    /// end of its range, so that pending entries are renumbered.
    #[test]
    fn packed_key_matches_the_tuple_order() {
        const TIMES: [u64; 7] = [0, 1, 7, 1 << 32, (1 << 32) + 1, u64::MAX - 1, u64::MAX];
        const RANKS: [u32; 6] = [0, 1, 2, 1 << 16, u32::MAX - 1, u32::MAX];
        let mut rng = Xoshiro256::seed_from_u64(0x9ACE);
        // Schedules that tied a pending entry on time only, on time and
        // rank, and pops compared.
        let (mut time_ties, mut key_ties, mut pops, mut renumbered) = (0u64, 0u64, 0u64, 0u64);
        for stream in 0..64 {
            let mut q = EventQueue::new();
            let mut r = Reference::new();
            for op in 0..500u64 {
                let roll = rng.gen_below(20);
                if roll < 12 {
                    let time = SimTime(TIMES[rng.gen_index(TIMES.len())]);
                    let rank = if roll < 4 {
                        0
                    } else {
                        RANKS[rng.gen_index(RANKS.len())]
                    };
                    for Reverse(e) in r.heap.iter() {
                        if e.time == time {
                            if e.rank == rank {
                                key_ties += 1;
                            } else {
                                time_ties += 1;
                            }
                        }
                    }
                    renumbered += u64::from(q.next_seq == u32::MAX);
                    if rank == 0 && roll < 2 {
                        q.schedule(time, op);
                    } else {
                        q.schedule_ranked(time, rank, op);
                    }
                    r.schedule_ranked(time, rank, op);
                } else if roll < 18 {
                    pops += 1;
                    assert_eq!(q.pop(), r.pop(), "stream {stream}, op {op}");
                } else if roll < 19 {
                    assert_eq!(q.peek_time(), r.peek_time(), "stream {stream}, op {op}");
                } else {
                    // Sequence numbers only ever grow.
                    q.next_seq = q.next_seq.max(u32::MAX - rng.gen_below(3) as u32);
                }
                assert_eq!(q.len(), r.heap.len());
            }
            while let Some(want) = r.pop() {
                assert_eq!(q.pop(), Some(want), "stream {stream}, drain");
            }
            assert!(q.is_empty());
        }
        assert!(time_ties > 1_000 && key_ties > 1_000 && pops > 5_000 && renumbered > 500);
    }
}
