//! Progress-sharing resources.
//!
//! A [`ProgressSet`] is a set of jobs, each carrying an amount of remaining
//! *work* (bytes, cpu-nanoseconds, …) that drains at an externally assigned
//! *rate* (work units per virtual second). Engines use it like this:
//!
//! 1. whenever the active set changes, `advance_to(now)` to account the work
//!    done at the old rates,
//! 2. assign the new rates (`set_rate`),
//! 3. query `earliest_completion()` and schedule a completion event there,
//! 4. when that event fires, `advance_to` again and `take_finished` the jobs
//!    that drained.
//!
//! Both the flow-level network model (concurrent transfers sharing link
//! bandwidth) and the CPU model (atomic steps under processor sharing) are
//! instances of this pattern, so the fiddly float/rounding logic lives here
//! exactly once.
//!
//! Progress is accounted **lazily**: `advance_to` only moves the clock
//! (O(1)); a job's remaining work is *settled* — materialized against the
//! clock — only when that job's own rate changes, when it is removed, or
//! when it completes. Between settlements the remaining work is implied by
//! `settled_remaining − rate·(now − settled_at)`. Completions come from an
//! *indexed* min-heap of announced finish times: at most one entry per job,
//! whose position the job records, so a rate change re-keys the entry where
//! it sits. Neither advancing time nor finding the next completion ever
//! scans the job set, and the heap never holds more entries than there are
//! jobs. Per-event cost is O(jobs whose rate changed), not O(all jobs in
//! flight).

use std::hash::Hash;

use crate::fxhash::FxHashMap;
use crate::time::{SimDuration, SimTime};

/// Work below this many units counts as finished; guards against float dust
/// left over by rate changes.
const WORK_EPS: f64 = 1e-6;

/// `f64::round` for `x ≥ 0` (and NaN), bit for bit, with no libm call: below
/// 2^52, `t` and `x − t` are exact, and the carry is a compare, not a branch
/// (the fraction is a coin flip to a predictor). Baseline x86-64 has no `roundsd`.
fn round_nonneg(x: f64) -> f64 {
    if x < 4_503_599_627_370_496.0 {
        let t = x as i64 as f64;
        t + f64::from(u8::from(x - t >= 0.5))
    } else {
        x
    }
}

#[derive(Clone, Copy, Debug)]
struct Job {
    /// Remaining work at `settled_at`.
    remaining: f64,
    rate: f64,
    /// Time at which `remaining` was last materialized.
    settled_at: SimTime,
    /// Where the job's announcement sits in the completion heap, if it has
    /// one.
    pos: Option<u32>,
}

/// Announced completion of the job in slab slot `slot`. The heap orders
/// these by `(at, key)`, so ties break by smallest key — the deterministic
/// ordering the engines rely on.
#[derive(Clone, Copy, Debug)]
struct Due<K> {
    at: SimTime,
    key: K,
    slot: u32,
}

/// A set of jobs draining remaining work at assigned rates.
///
/// `K` identifies jobs; `Ord` is required so that completion ties are broken
/// deterministically regardless of hash-map iteration order.
#[derive(Clone, Debug)]
pub struct ProgressSet<K: Eq + Hash + Copy + Ord> {
    /// Job slab; the slots listed in `free` are vacant.
    jobs: Vec<Job>,
    free: Vec<u32>,
    /// Slab slot of every live job.
    index: FxHashMap<K, u32>,
    /// Binary min-heap on `(at, key)` with one entry per announced job.
    heap: Vec<Due<K>>,
    last: SimTime,
}

impl<K: Eq + Hash + Copy + Ord> Default for ProgressSet<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Eq + Hash + Copy + Ord> ProgressSet<K> {
    /// An empty set anchored at time zero.
    pub fn new() -> Self {
        ProgressSet {
            jobs: Vec::new(),
            free: Vec::new(),
            index: FxHashMap::default(),
            heap: Vec::new(),
            last: SimTime::ZERO,
        }
    }

    /// Accounts work done between the last advance and `now` at the current
    /// rates. `now` must not precede the previous advance.
    ///
    /// O(1): only the clock moves; individual jobs are settled lazily when
    /// their own state is next touched.
    pub fn advance_to(&mut self, now: SimTime) {
        debug_assert!(now >= self.last, "ProgressSet time went backwards");
        if now > self.last {
            self.last = now;
        }
    }

    /// Remaining work of `job` as of the current clock, without mutating it.
    fn implied_remaining(&self, job: &Job) -> f64 {
        if job.rate <= 0.0 || self.last <= job.settled_at {
            return job.remaining;
        }
        let dt = (self.last - job.settled_at).as_secs_f64();
        (job.remaining - job.rate * dt).max(0.0)
    }

    /// Materializes `job`'s remaining work at the current clock.
    fn settle(last: SimTime, job: &mut Job) {
        if job.rate > 0.0 && last > job.settled_at {
            let dt = (last - job.settled_at).as_secs_f64();
            job.remaining = (job.remaining - job.rate * dt).max(0.0);
        }
        job.settled_at = last;
    }

    /// Writes `due` at heap position `i` and tells its job where it went.
    fn place(&mut self, i: usize, due: Due<K>) {
        self.heap[i] = due;
        self.jobs[due.slot as usize].pos = Some(i as u32);
    }

    /// Restores heap order after the entry at position `i` changed, moving
    /// it up or down as far as it has to go.
    fn sift(&mut self, mut i: usize) {
        let due = self.heap[i];
        let before = |a: &Due<K>, b: &Due<K>| (a.at, a.key) < (b.at, b.key);
        while i > 0 && before(&due, &self.heap[(i - 1) / 2]) {
            self.place(i, self.heap[(i - 1) / 2]);
            i = (i - 1) / 2;
        }
        loop {
            let mut child = 2 * i + 1;
            if child + 1 < self.heap.len() && before(&self.heap[child + 1], &self.heap[child]) {
                child += 1;
            }
            if child >= self.heap.len() || !before(&self.heap[child], &due) {
                break;
            }
            self.place(i, self.heap[child]);
            i = child;
        }
        self.place(i, due);
    }

    /// Withdraws the announcement at heap position `pos`.
    fn unannounce(&mut self, pos: u32) {
        let due = self.heap.swap_remove(pos as usize);
        self.jobs[due.slot as usize].pos = None;
        if (pos as usize) < self.heap.len() {
            self.sift(pos as usize);
        }
    }

    /// Brings the announcement of the just-settled job `key` in `slot` up
    /// to date: due immediately when already finished, at the rounded drain
    /// time when running, none when stalled at rate 0. An existing entry is
    /// re-keyed where it sits.
    fn announce(&mut self, key: K, slot: u32) {
        let Job {
            remaining,
            rate,
            pos,
            ..
        } = self.jobs[slot as usize];
        let at = if Self::finished_at(remaining, rate) {
            Some(self.last)
        } else if rate > 0.0 {
            // Round to the nearest nanosecond: the clock cannot resolve
            // finer, and `finished` tolerates up to one nanosecond of
            // residual drain, so nearest-rounding never strands a job.
            let secs = remaining / rate;
            let ns = round_nonneg(secs * 1e9).max(1.0);
            if ns >= u64::MAX as f64 {
                None
            } else {
                Some(self.last + SimDuration::from_nanos(ns as u64))
            }
        } else {
            None
        };
        match (at, pos) {
            (Some(at), Some(pos)) => {
                self.heap[pos as usize].at = at;
                self.sift(pos as usize);
            }
            (Some(at), None) => {
                self.heap.push(Due { at, key, slot });
                self.sift(self.heap.len() - 1);
            }
            (None, Some(pos)) => self.unannounce(pos),
            (None, None) => {}
        }
    }

    /// Adds a job with `work` units remaining and rate 0. Panics if the key
    /// is already present — reusing keys for live jobs is always an engine
    /// bug.
    pub fn insert(&mut self, now: SimTime, key: K, work: f64) {
        self.advance_to(now);
        assert!(work >= 0.0, "negative work");
        let job = Job {
            remaining: work,
            rate: 0.0,
            settled_at: now,
            pos: None,
        };
        let slot = self.free.pop().unwrap_or(self.jobs.len() as u32);
        match self.jobs.get_mut(slot as usize) {
            Some(vacant) => *vacant = job,
            None => self.jobs.push(job),
        }
        let prev = self.index.insert(key, slot);
        assert!(prev.is_none(), "duplicate ProgressSet job key");
        self.announce(key, slot);
    }

    /// Assigns a new drain rate to `key`. The caller is responsible for
    /// having advanced to `now` conceptually; this method does it for them.
    ///
    /// Every call settles the job, a bit-equal rate included: the settlement
    /// point is where `remaining` is rounded, so skipping one would move
    /// completion nanoseconds.
    pub fn set_rate(&mut self, now: SimTime, key: K, rate: f64) {
        self.advance_to(now);
        assert!(rate >= 0.0 && rate.is_finite(), "invalid rate {rate}");
        let slot = *self.index.get(&key).expect("set_rate on unknown job");
        let job = &mut self.jobs[slot as usize];
        Self::settle(self.last, job);
        job.rate = rate;
        self.announce(key, slot);
    }

    /// Forgets the job `key` in `slot` and its announcement, returning it.
    fn release(&mut self, key: K, slot: u32) -> Job {
        let job = self.jobs[slot as usize];
        if let Some(pos) = job.pos {
            self.unannounce(pos);
        }
        self.index.remove(&key);
        self.free.push(slot);
        job
    }

    /// Removes a job, returning its remaining work if it was present.
    pub fn remove(&mut self, now: SimTime, key: K) -> Option<f64> {
        self.advance_to(now);
        let slot = *self.index.get(&key)?;
        let mut job = self.release(key, slot);
        Self::settle(self.last, &mut job);
        Some(job.remaining)
    }

    fn job(&self, key: K) -> Option<&Job> {
        self.index.get(&key).map(|&slot| &self.jobs[slot as usize])
    }

    /// Remaining work of a job.
    pub fn remaining(&self, key: K) -> Option<f64> {
        self.job(key).map(|j| self.implied_remaining(j))
    }

    /// Current drain rate of a job.
    pub fn rate(&self, key: K) -> Option<f64> {
        self.job(key).map(|j| j.rate)
    }

    /// Whether `key` is a live job.
    pub fn contains(&self, key: K) -> bool {
        self.index.contains_key(&key)
    }

    /// Number of live jobs.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no jobs remain.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Iterates over live job keys in unspecified order.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.index.keys().copied()
    }

    /// The earliest time at which some job finishes under current rates,
    /// with its key. Jobs with rate 0 and positive work never finish. Ties
    /// are broken by smallest key.
    ///
    /// The returned time is rounded to the *nearest* nanosecond (see
    /// `announce`); a job counts as finished within one nanosecond of
    /// draining, so advancing to it is guaranteed to complete the job.
    pub fn earliest_completion(&mut self) -> Option<(K, SimTime)> {
        // Announcements never predate the clock by more than rounding;
        // clamp so callers never see time regress.
        let due = self.heap.first()?;
        Some((due.key, due.at.max(self.last)))
    }

    /// Whether a job counts as finished: fully drained, or within one
    /// nanosecond of draining at its current rate (below clock resolution).
    fn finished_at(remaining: f64, rate: f64) -> bool {
        remaining <= WORK_EPS || remaining <= rate * 1.5e-9
    }

    /// Advances to `now` and removes every job whose announced completion
    /// has come due, returning their keys sorted (deterministic order).
    pub fn take_finished(&mut self, now: SimTime) -> Vec<K> {
        let mut done = Vec::new();
        self.take_finished_into(now, &mut done);
        done
    }

    /// [`take_finished`](Self::take_finished) into a caller-owned buffer:
    /// the keys are appended to `out`, sorted among themselves.
    pub fn take_finished_into(&mut self, now: SimTime, out: &mut Vec<K>) {
        self.advance_to(now);
        let first = out.len();
        while let Some(&Due { at, key, slot }) = self.heap.first() {
            if at > now {
                break;
            }
            let job = &mut self.jobs[slot as usize];
            Self::settle(now, job);
            if Self::finished_at(job.remaining, job.rate) {
                self.release(key, slot);
                out.push(key);
            } else {
                // Rounding left residual work (possible only when the rate
                // dropped between announce and due time in the same
                // nanosecond); re-announce from the settled state.
                self.announce(key, slot);
            }
        }
        out[first..].sort_unstable();
    }

    /// Current virtual time of the set (time of the last advance).
    pub fn now(&self) -> SimTime {
        self.last
    }

    /// Completion-heap entries currently held, never more than
    /// [`len`](Self::len) — an implementation detail exposed for
    /// memory-bound regression tests.
    pub fn completion_heap_len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime(ns)
    }

    #[test]
    fn single_job_completes_at_work_over_rate() {
        let mut ps = ProgressSet::new();
        ps.insert(SimTime::ZERO, 1u32, 1000.0);
        ps.set_rate(SimTime::ZERO, 1, 1000.0); // 1000 units/s -> 1 s
        let (k, when) = ps.earliest_completion().unwrap();
        assert_eq!(k, 1);
        assert_eq!(when, t(1_000_000_000));
        let done = ps.take_finished(when);
        assert_eq!(done, vec![1]);
        assert!(ps.is_empty());
    }

    #[test]
    fn rate_change_midway() {
        let mut ps = ProgressSet::new();
        ps.insert(SimTime::ZERO, 7u32, 100.0);
        ps.set_rate(SimTime::ZERO, 7, 100.0); // would finish at 1s
        ps.set_rate(t(500_000_000), 7, 50.0); // half done, half rate
        let (_, when) = ps.earliest_completion().unwrap();
        assert_eq!(when, t(1_500_000_000));
    }

    #[test]
    fn zero_rate_never_finishes() {
        let mut ps = ProgressSet::new();
        ps.insert(SimTime::ZERO, 1u32, 5.0);
        assert!(ps.earliest_completion().is_none());
    }

    #[test]
    fn zero_work_finishes_immediately() {
        let mut ps = ProgressSet::new();
        ps.insert(t(10), 1u32, 0.0);
        let (k, when) = ps.earliest_completion().unwrap();
        assert_eq!((k, when), (1, t(10)));
    }

    #[test]
    fn completion_tie_breaks_by_key() {
        let mut ps = ProgressSet::new();
        ps.insert(SimTime::ZERO, 9u32, 100.0);
        ps.insert(SimTime::ZERO, 3u32, 100.0);
        ps.set_rate(SimTime::ZERO, 9, 100.0);
        ps.set_rate(SimTime::ZERO, 3, 100.0);
        let (k, _) = ps.earliest_completion().unwrap();
        assert_eq!(k, 3);
        let done = ps.take_finished(t(1_000_000_000));
        assert_eq!(done, vec![3, 9]);
    }

    #[test]
    fn remove_returns_remaining() {
        let mut ps = ProgressSet::new();
        ps.insert(SimTime::ZERO, 1u32, 100.0);
        ps.set_rate(SimTime::ZERO, 1, 100.0);
        let rem = ps.remove(t(250_000_000), 1).unwrap();
        assert!((rem - 75.0).abs() < 1e-6, "rem = {rem}");
        assert!(ps.remove(t(250_000_000), 1).is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_key_panics() {
        let mut ps = ProgressSet::new();
        ps.insert(SimTime::ZERO, 1u32, 1.0);
        ps.insert(SimTime::ZERO, 1u32, 1.0);
    }

    #[test]
    fn rounding_up_guarantees_completion() {
        let mut ps = ProgressSet::new();
        // Work/rate chosen so work/rate is not an integer number of ns.
        ps.insert(SimTime::ZERO, 1u32, 1.0);
        ps.set_rate(SimTime::ZERO, 1, 3.0);
        let (_, when) = ps.earliest_completion().unwrap();
        let done = ps.take_finished(when);
        assert_eq!(done, vec![1]);
    }

    #[test]
    fn withdrawn_announcements_do_not_resurrect_jobs() {
        let mut ps = ProgressSet::new();
        ps.insert(SimTime::ZERO, 1u32, 100.0);
        ps.set_rate(SimTime::ZERO, 1, 100.0); // announced at 1s
        ps.set_rate(t(100_000_000), 1, 0.0); // stalled; announcement withdrawn
        assert!(ps.earliest_completion().is_none());
        assert!(ps.take_finished(t(2_000_000_000)).is_empty());
        assert!((ps.remaining(1).unwrap() - 90.0).abs() < 1e-6);
    }

    #[test]
    fn lazy_advance_does_not_scan_jobs() {
        // Many stalled jobs; advancing and completing one job must not
        // disturb the others' remaining work.
        let mut ps = ProgressSet::new();
        for i in 0..1000u32 {
            ps.insert(SimTime::ZERO, i, 1000.0);
        }
        ps.set_rate(SimTime::ZERO, 500, 1000.0);
        let (k, when) = ps.earliest_completion().unwrap();
        assert_eq!(k, 500);
        assert_eq!(ps.take_finished(when), vec![500]);
        for i in (0..1000u32).filter(|&i| i != 500) {
            assert_eq!(ps.remaining(i), Some(1000.0));
        }
    }

    #[test]
    fn clone_after_rate_churn_behaves_identically() {
        let mut ps = ProgressSet::new();
        for i in 0..8u32 {
            ps.insert(SimTime::ZERO, i, 1e6);
        }
        for round in 0..1_000u64 {
            ps.set_rate(t(round), (round % 8) as u32, 1.0 + (round % 5) as f64);
        }
        let mut copy = ps.clone();
        assert_eq!(copy.completion_heap_len(), copy.len());
        // Identical evolution: same completions at the same instants.
        for step in 0..50u64 {
            let now = t(10_000 + step * 1_000_000_000);
            assert_eq!(ps.earliest_completion(), copy.earliest_completion());
            assert_eq!(ps.take_finished(now), copy.take_finished(now));
        }
        // Divergence after the copy stays independent.
        let first = ps.keys().next();
        if let Some(k) = first {
            ps.remove(t(1e18 as u64), k);
            assert_eq!(copy.len(), ps.len() + 1);
        }
    }

    #[test]
    fn overdue_completions_clamp_to_now() {
        let mut ps = ProgressSet::new();
        ps.insert(SimTime::ZERO, 1u32, 100.0);
        // Finishes at 1s. Advance past that without collecting it: the
        // reported time must clamp to `now`, never lie in the past.
        ps.set_rate(SimTime::ZERO, 1, 100.0);
        ps.advance_to(t(2_000_000_000));
        assert_eq!(ps.earliest_completion(), Some((1, t(2_000_000_000))));
    }

    #[test]
    fn round_nonneg_is_f64_round_bit_for_bit() {
        use simrng::{Rng, Xoshiro256};
        let same = |x: f64| {
            let (ours, std) = (round_nonneg(x), x.round());
            assert!(
                ours.to_bits() == std.to_bits() || (ours.is_nan() && std.is_nan()),
                "{x:e}: {ours:e} vs {std:e}"
            );
        };
        let two52 = 4_503_599_627_370_496.0_f64;
        let edges = [
            0.0,
            0.5,
            1.5,
            2.5,
            0.49999999999999994,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            two52 - 0.5,
            two52 - 1.0,
            two52,
            two52 + 1.0,
            2.0 * two52,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
        ];
        edges.into_iter().for_each(same);
        let mut rng = Xoshiro256::seed_from_u64(0x20DE);
        for _ in 0..200_000 {
            // Every exponent (the sign bit cleared), ties and their
            // neighbours, and the nanosecond counts `announce` rounds.
            same(f64::from_bits(rng.next_u64() >> 1));
            let tie = rng.gen_below(1 << 52) as f64 + 0.5;
            [tie, tie.next_down(), tie.next_up()]
                .into_iter()
                .for_each(same);
            same(rng.gen_range_f64(0.0, 1e13));
        }
    }

    #[test]
    fn completion_heap_is_bounded_under_rate_churn() {
        let mut ps = ProgressSet::new();
        for i in 0..8u32 {
            ps.insert(SimTime::ZERO, i, 1e12);
        }
        for round in 0..100_000u64 {
            let now = t(round);
            ps.set_rate(now, (round % 8) as u32, 1.0 + (round % 13) as f64);
            assert!(
                ps.completion_heap_len() <= ps.len(),
                "more than one announcement per job: {} entries for {} jobs",
                ps.completion_heap_len(),
                ps.len()
            );
        }
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use simrng::{Rng, Xoshiro256};

    /// Splitting an advance into arbitrary sub-steps conserves work.
    #[test]
    fn advance_is_additive() {
        let mut rng = Xoshiro256::seed_from_u64(0xA11D);
        for case in 0..256 {
            let work = rng.gen_range_f64(1.0, 1e6);
            let rate = rng.gen_range_f64(0.1, 1e6);
            let cut = rng.gen_range_u64(1, 999);
            let total = SimDuration::from_millis(1000);
            let mid = SimDuration::from_millis(cut);

            let mut one = ProgressSet::new();
            one.insert(SimTime::ZERO, 0u32, work);
            one.set_rate(SimTime::ZERO, 0, rate);
            one.advance_to(SimTime::ZERO + total);

            let mut two = ProgressSet::new();
            two.insert(SimTime::ZERO, 0u32, work);
            two.set_rate(SimTime::ZERO, 0, rate);
            two.advance_to(SimTime::ZERO + mid);
            two.advance_to(SimTime::ZERO + total);

            let a = one.remaining(0).unwrap();
            let b = two.remaining(0).unwrap();
            assert!(
                (a - b).abs() <= 1e-6 * work.max(1.0),
                "case {case}: split advance diverged: {a} vs {b}"
            );
        }
    }

    /// Completion always happens when the engine advances to the announced
    /// completion time, for arbitrary work/rate pairs.
    #[test]
    fn announced_completion_completes() {
        let mut rng = Xoshiro256::seed_from_u64(0xC0DE);
        for case in 0..256 {
            let work = rng.gen_range_f64(1e-3, 1e9);
            let rate = rng.gen_range_f64(1e-3, 1e9);
            let mut ps = ProgressSet::new();
            ps.insert(SimTime::ZERO, 0u32, work);
            ps.set_rate(SimTime::ZERO, 0, rate);
            if let Some((_, when)) = ps.earliest_completion() {
                let done = ps.take_finished(when);
                assert_eq!(done, vec![0], "case {case}: work {work}, rate {rate}");
            }
        }
    }

    /// Remaining work is monotonically non-increasing under advances.
    #[test]
    fn remaining_monotone() {
        let mut rng = Xoshiro256::seed_from_u64(0x310);
        for case in 0..256 {
            let work = rng.gen_range_f64(1.0, 1e6);
            let rate = rng.gen_range_f64(0.0, 1e6);
            let steps = 1 + rng.gen_index(19);
            let mut ps = ProgressSet::new();
            ps.insert(SimTime::ZERO, 0u32, work);
            ps.set_rate(SimTime::ZERO, 0, rate);
            let mut now = SimTime::ZERO;
            let mut prev = work;
            for _ in 0..steps {
                now += SimDuration::from_nanos(rng.gen_range_u64(1, 1_000_000));
                ps.advance_to(now);
                let r = ps.remaining(0).unwrap();
                assert!(r <= prev + 1e-9, "case {case}: remaining grew");
                assert!(r >= 0.0);
                prev = r;
            }
        }
    }

    /// The lazy implementation agrees with an eager reference model that
    /// drains every job at every advance, over random operation sequences.
    #[test]
    fn lazy_matches_eager_reference() {
        #[derive(Clone, Copy)]
        struct Ref {
            remaining: f64,
            rate: f64,
        }
        let mut rng = Xoshiro256::seed_from_u64(0x1A2);
        for case in 0..128 {
            let mut ps: ProgressSet<u32> = ProgressSet::new();
            let mut model: std::collections::BTreeMap<u32, Ref> = Default::default();
            let mut now = SimTime::ZERO;
            let mut next_key = 0u32;
            for _ in 0..200 {
                match rng.gen_index(4) {
                    0 => {
                        let work = rng.gen_range_f64(0.5, 1e4);
                        ps.insert(now, next_key, work);
                        model.insert(
                            next_key,
                            Ref {
                                remaining: work,
                                rate: 0.0,
                            },
                        );
                        next_key += 1;
                    }
                    1 if !model.is_empty() => {
                        let keys: Vec<u32> = model.keys().copied().collect();
                        let k = keys[rng.gen_index(keys.len())];
                        let rate = rng.gen_range_f64(0.0, 1e4);
                        ps.set_rate(now, k, rate);
                        model.get_mut(&k).unwrap().rate = rate;
                    }
                    2 if !model.is_empty() => {
                        let keys: Vec<u32> = model.keys().copied().collect();
                        let k = keys[rng.gen_index(keys.len())];
                        let got = ps.remove(now, k).unwrap();
                        let want = model.remove(&k).unwrap().remaining;
                        assert!(
                            (got - want).abs() <= 1e-6 * want.max(1.0) + 1e-6,
                            "case {case}: remove({k}) = {got}, want {want}"
                        );
                    }
                    _ => {
                        let dt = rng.gen_range_u64(1, 500_000_000);
                        let dt_secs = dt as f64 / 1e9;
                        now += SimDuration::from_nanos(dt);
                        for r in model.values_mut() {
                            r.remaining = (r.remaining - r.rate * dt_secs).max(0.0);
                        }
                        for k in ps.take_finished(now) {
                            let r = model.remove(&k).unwrap();
                            assert!(
                                r.remaining <= WORK_EPS.max(r.rate * 3e-9) + 1e-6,
                                "case {case}: premature completion of {k}: {} left",
                                r.remaining
                            );
                        }
                    }
                }
                for (&k, r) in &model {
                    let got = ps.remaining(k).unwrap();
                    assert!(
                        (got - r.remaining).abs() <= 1e-6 * r.remaining.max(1.0) + 1e-5,
                        "case {case}: remaining({k}) = {got}, want {}",
                        r.remaining
                    );
                }
            }
        }
    }

    /// The reference the indexed heap is checked against: jobs in a `Vec`,
    /// the next completion found by linear scan. It settles and announces
    /// with the same arithmetic, written out again here, so every answer
    /// must be `==`, not close.
    #[derive(Default)]
    struct Naive {
        jobs: Vec<NaiveJob>,
        last: SimTime,
    }

    struct NaiveJob {
        key: u32,
        remaining: f64,
        rate: f64,
        settled_at: SimTime,
        due: Option<SimTime>,
    }

    impl Naive {
        fn finished(j: &NaiveJob) -> bool {
            j.remaining <= 1e-6 || j.remaining <= j.rate * 1.5e-9
        }

        fn settle_and_announce(&mut self, i: usize) {
            let (last, j) = (self.last, &mut self.jobs[i]);
            if j.rate > 0.0 && last > j.settled_at {
                let dt = (last - j.settled_at).as_secs_f64();
                j.remaining = (j.remaining - j.rate * dt).max(0.0);
            }
            j.settled_at = last;
            j.due = if Self::finished(j) {
                Some(last)
            } else if j.rate > 0.0 {
                let ns = (j.remaining / j.rate * 1e9).round().max(1.0);
                (ns < u64::MAX as f64).then(|| last + SimDuration::from_nanos(ns as u64))
            } else {
                None
            };
        }

        fn find(&self, key: u32) -> usize {
            self.jobs.iter().position(|j| j.key == key).unwrap()
        }

        fn insert(&mut self, now: SimTime, key: u32, work: f64) {
            self.last = self.last.max(now);
            self.jobs.push(NaiveJob {
                key,
                remaining: work,
                rate: 0.0,
                settled_at: now,
                due: None,
            });
            self.settle_and_announce(self.jobs.len() - 1);
        }

        fn set_rate(&mut self, now: SimTime, key: u32, rate: f64) {
            self.last = self.last.max(now);
            let i = self.find(key);
            // Settle at the old rate, then announce at the new one.
            self.settle_and_announce(i);
            self.jobs[i].rate = rate;
            self.settle_and_announce(i);
        }

        fn remove(&mut self, now: SimTime, key: u32) -> f64 {
            self.last = self.last.max(now);
            let i = self.find(key);
            self.settle_and_announce(i);
            self.jobs.remove(i).remaining
        }

        fn earliest(&self) -> Option<(usize, SimTime)> {
            let due = |i: usize| self.jobs[i].due.map(|at| (at, self.jobs[i].key, i));
            let (at, _, i) = (0..self.jobs.len()).filter_map(due).min()?;
            Some((i, at))
        }

        fn earliest_completion(&self) -> Option<(u32, SimTime)> {
            let (i, at) = self.earliest()?;
            Some((self.jobs[i].key, at.max(self.last)))
        }

        fn take_finished(&mut self, now: SimTime) -> Vec<u32> {
            self.last = self.last.max(now);
            let mut done = Vec::new();
            while let Some((i, _)) = self.earliest().filter(|&(_, at)| at <= now) {
                self.settle_and_announce(i);
                if Self::finished(&self.jobs[i]) {
                    done.push(self.jobs.remove(i).key);
                }
            }
            done.sort_unstable();
            done
        }
    }

    /// Every live job's recorded heap position holds its own entry, every
    /// entry belongs to a live job, and the heap is in `(at, key)` order.
    fn assert_heap_indexed(ps: &ProgressSet<u32>) {
        assert!(ps.completion_heap_len() <= ps.len());
        let mut announced = 0;
        for (&key, &slot) in &ps.index {
            if let Some(pos) = ps.jobs[slot as usize].pos {
                let due = &ps.heap[pos as usize];
                assert_eq!((due.key, due.slot), (key, slot), "stale position");
                announced += 1;
            }
        }
        assert_eq!(announced, ps.heap.len(), "an entry without a live job");
        for (i, due) in ps.heap.iter().enumerate().skip(1) {
            let parent = &ps.heap[(i - 1) / 2];
            assert!((parent.at, parent.key) <= (due.at, due.key), "heap order");
        }
    }

    /// The indexed heap answers exactly as the naive reference does, over
    /// random streams built to collide: few distinct rates and amounts of
    /// work (completion ties), re-rates at an unchanged instant, zero rates,
    /// zero work, removals, and advances that overshoot several completions.
    #[test]
    fn indexed_heap_matches_naive_reference() {
        let mut rng = Xoshiro256::seed_from_u64(0x1DE7);
        for case in 0..128 {
            let mut ps: ProgressSet<u32> = ProgressSet::new();
            let mut naive = Naive::default();
            let mut now = SimTime::ZERO;
            let mut next_key = 0u32;
            for step in 0..300 {
                let live: Vec<u32> = naive.jobs.iter().map(|j| j.key).collect();
                let pick = |rng: &mut Xoshiro256| live[rng.gen_index(live.len())];
                match rng.gen_index(6) {
                    0 | 1 => {
                        let work = [0.0, 1.0, 1.0, 2.0, 1e3][rng.gen_index(5)];
                        ps.insert(now, next_key, work);
                        naive.insert(now, next_key, work);
                        next_key += 1;
                    }
                    2 | 3 if !live.is_empty() => {
                        // A burst re-rates at one instant, as a reassignment does.
                        for _ in 0..1 + rng.gen_index(3) {
                            let key = pick(&mut rng);
                            let rate = [0.0, 0.5, 1.0, 1.0, 2.0, 1e9][rng.gen_index(6)];
                            ps.set_rate(now, key, rate);
                            naive.set_rate(now, key, rate);
                        }
                    }
                    4 if !live.is_empty() => {
                        let key = pick(&mut rng);
                        assert_eq!(ps.remove(now, key), Some(naive.remove(now, key)));
                    }
                    _ => {
                        now = match ps.earliest_completion() {
                            Some((_, at)) if rng.gen_bool() => at,
                            _ => now + SimDuration::from_nanos(rng.gen_range_u64(0, 3_000_000_000)),
                        };
                        let done = ps.take_finished(now);
                        assert_eq!(done, naive.take_finished(now), "case {case} step {step}");
                    }
                }
                assert_eq!(
                    ps.earliest_completion(),
                    naive.earliest_completion(),
                    "case {case} step {step}"
                );
                assert_eq!(ps.len(), naive.jobs.len());
                assert_heap_indexed(&ps);
            }
        }
    }
}
