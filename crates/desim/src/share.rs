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
//! `settled_remaining − rate·(now − settled_at)`. Completions come from a
//! min-heap of announced finish times with generation-stamped entries, so
//! neither advancing time nor finding the next completion ever scans the
//! whole job set. Per-event cost is O(jobs whose rate changed), not O(all
//! jobs in flight).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hash::Hash;

use crate::fxhash::FxHashMap;
use crate::time::{SimDuration, SimTime};

/// Work below this many units counts as finished; guards against float dust
/// left over by rate changes.
const WORK_EPS: f64 = 1e-6;

/// Completion-heap size (relative to the live job count) beyond which stale
/// entries are compacted away.
const COMPACT_MIN: usize = 64;

#[derive(Clone, Copy, Debug)]
struct Job {
    /// Remaining work at `settled_at`.
    remaining: f64,
    rate: f64,
    /// Time at which `remaining` was last materialized.
    settled_at: SimTime,
    /// Stamp identifying the job's current (rate, remaining) epoch; heap
    /// entries carrying an older stamp are stale.
    gen: u64,
}

/// Announced completion: ordered by (time, key) so ties break by smallest
/// key, matching the deterministic ordering the engines rely on.
#[derive(Clone, Copy)]
struct Completion<K> {
    time: SimTime,
    key: K,
    gen: u64,
}

impl<K: Eq> PartialEq for Completion<K> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.key == other.key && self.gen == other.gen
    }
}
impl<K: Eq> Eq for Completion<K> {}
impl<K: Ord> PartialOrd for Completion<K> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<K: Ord> Ord for Completion<K> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, &self.key, self.gen).cmp(&(other.time, &other.key, other.gen))
    }
}

/// A set of jobs draining remaining work at assigned rates.
///
/// `K` identifies jobs; `Ord` is required so that completion ties are broken
/// deterministically regardless of hash-map iteration order.
#[derive(Clone)]
pub struct ProgressSet<K: Eq + Hash + Copy + Ord> {
    jobs: FxHashMap<K, Job>,
    completions: BinaryHeap<Reverse<Completion<K>>>,
    last: SimTime,
    next_gen: u64,
}

impl<K: Eq + Hash + Copy + Ord + std::fmt::Debug> std::fmt::Debug for ProgressSet<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgressSet")
            .field("jobs", &self.jobs)
            .field("last", &self.last)
            .finish_non_exhaustive()
    }
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
            jobs: FxHashMap::default(),
            completions: BinaryHeap::new(),
            last: SimTime::ZERO,
            next_gen: 0,
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

    /// Pushes the completion announcement for a just-settled job, if it has
    /// one: immediately when already finished, at the rounded drain time
    /// when running, never when stalled at rate 0.
    fn announce(&mut self, key: K, gen: u64, remaining: f64, rate: f64) {
        let time = if Self::finished_at(remaining, rate) {
            self.last
        } else if rate > 0.0 {
            // Round to the nearest nanosecond: the clock cannot resolve
            // finer, and `finished` tolerates up to one nanosecond of
            // residual drain, so nearest-rounding never strands a job.
            let secs = remaining / rate;
            let ns = (secs * 1e9).round().max(1.0);
            if ns >= u64::MAX as f64 {
                return;
            }
            self.last + SimDuration::from_nanos(ns as u64)
        } else {
            return;
        };
        self.completions
            .push(Reverse(Completion { time, key, gen }));
        self.maybe_compact();
    }

    /// Drops stale heap entries once they dominate; keeps completion-heap
    /// memory proportional to the live job count.
    fn maybe_compact(&mut self) {
        if self.completions.len() >= COMPACT_MIN && self.completions.len() > 2 * self.jobs.len() {
            let jobs = &self.jobs;
            self.completions
                .retain(|Reverse(c)| jobs.get(&c.key).is_some_and(|j| j.gen == c.gen));
        }
    }

    /// Adds a job with `work` units remaining and rate 0. Panics if the key
    /// is already present — reusing keys for live jobs is always an engine
    /// bug.
    pub fn insert(&mut self, now: SimTime, key: K, work: f64) {
        self.advance_to(now);
        assert!(work >= 0.0, "negative work");
        let gen = self.next_gen;
        self.next_gen += 1;
        let prev = self.jobs.insert(
            key,
            Job {
                remaining: work,
                rate: 0.0,
                settled_at: now,
                gen,
            },
        );
        assert!(prev.is_none(), "duplicate ProgressSet job key");
        self.announce(key, gen, work, 0.0);
    }

    /// Assigns a new drain rate to `key`. The caller is responsible for
    /// having advanced to `now` conceptually; this method does it for them.
    pub fn set_rate(&mut self, now: SimTime, key: K, rate: f64) {
        self.advance_to(now);
        assert!(rate >= 0.0 && rate.is_finite(), "invalid rate {rate}");
        let last = self.last;
        let gen = self.next_gen;
        self.next_gen += 1;
        let job = self.jobs.get_mut(&key).expect("set_rate on unknown job");
        Self::settle(last, job);
        job.rate = rate;
        job.gen = gen; // invalidates any previously announced completion
        let remaining = job.remaining;
        self.announce(key, gen, remaining, rate);
    }

    /// Removes a job, returning its remaining work if it was present.
    pub fn remove(&mut self, now: SimTime, key: K) -> Option<f64> {
        self.advance_to(now);
        let last = self.last;
        self.jobs.remove(&key).map(|mut j| {
            Self::settle(last, &mut j);
            j.remaining
        })
    }

    /// Remaining work of a job.
    pub fn remaining(&self, key: K) -> Option<f64> {
        self.jobs.get(&key).map(|j| self.implied_remaining(j))
    }

    /// Current drain rate of a job.
    pub fn rate(&self, key: K) -> Option<f64> {
        self.jobs.get(&key).map(|j| j.rate)
    }

    /// Whether `key` is a live job.
    pub fn contains(&self, key: K) -> bool {
        self.jobs.contains_key(&key)
    }

    /// Number of live jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether no jobs remain.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Iterates over live job keys in unspecified order.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.jobs.keys().copied()
    }

    /// The earliest time at which some job finishes under current rates,
    /// with its key. Jobs with rate 0 and positive work never finish. Ties
    /// are broken by smallest key.
    ///
    /// The returned time is rounded *up* to the next nanosecond so that
    /// advancing to it is guaranteed to drain the job to within the
    /// internal work epsilon.
    pub fn earliest_completion(&mut self) -> Option<(K, SimTime)> {
        loop {
            let c = *self.completions.peek().map(|Reverse(c)| c)?;
            if self.jobs.get(&c.key).is_some_and(|j| j.gen == c.gen) {
                // Announcements never predate the clock by more than
                // rounding; clamp so callers never see time regress.
                return Some((c.key, c.time.max(self.last)));
            }
            self.completions.pop();
        }
    }

    /// Whether a job counts as finished: fully drained, or within one
    /// nanosecond of draining at its current rate (below clock resolution).
    fn finished_at(remaining: f64, rate: f64) -> bool {
        remaining <= WORK_EPS || remaining <= rate * 1.5e-9
    }

    /// Advances to `now` and removes every job whose announced completion
    /// has come due, returning their keys sorted (deterministic order).
    pub fn take_finished(&mut self, now: SimTime) -> Vec<K> {
        self.advance_to(now);
        let mut done: Vec<K> = Vec::new();
        while let Some(Reverse(c)) = self.completions.peek() {
            if c.time > now {
                break;
            }
            let Reverse(c) = self.completions.pop().expect("just peeked");
            let Some(job) = self.jobs.get_mut(&c.key) else {
                continue; // stale: job re-keyed or removed
            };
            if job.gen != c.gen {
                continue; // stale: rate changed since the announcement
            }
            Self::settle(now, job);
            if Self::finished_at(job.remaining, job.rate) {
                self.jobs.remove(&c.key);
                done.push(c.key);
            } else {
                // Rounding left residual work (possible only when the rate
                // dropped between announce and due time in the same
                // nanosecond); re-announce from the settled state.
                let gen = self.next_gen;
                self.next_gen += 1;
                job.gen = gen;
                let (remaining, rate) = (job.remaining, job.rate);
                self.announce(c.key, gen, remaining, rate);
            }
        }
        done.sort_unstable();
        done
    }

    /// Current virtual time of the set (time of the last advance).
    pub fn now(&self) -> SimTime {
        self.last
    }

    /// Completion-heap entries currently held, live or stale — an
    /// implementation detail exposed for memory-bound regression tests.
    pub fn completion_heap_len(&self) -> usize {
        self.completions.len()
    }

    /// An O(live-state) copy for checkpoint/fork: stale completion-heap
    /// entries (from rate churn) are compacted away first — unconditionally,
    /// not via the amortized heuristic — so the snapshot holds exactly one
    /// announcement per announced job. The copy drains, announces and
    /// completes identically to the original.
    pub fn snapshot(&mut self) -> ProgressSet<K> {
        let jobs = &self.jobs;
        self.completions
            .retain(|Reverse(c)| jobs.get(&c.key).is_some_and(|j| j.gen == c.gen));
        self.clone()
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
    fn stale_announcements_do_not_resurrect_jobs() {
        let mut ps = ProgressSet::new();
        ps.insert(SimTime::ZERO, 1u32, 100.0);
        ps.set_rate(SimTime::ZERO, 1, 100.0); // announced at 1s
        ps.set_rate(t(100_000_000), 1, 0.0); // stalled; announcement stale
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
    fn snapshot_compacts_and_behaves_identically() {
        let mut ps = ProgressSet::new();
        for i in 0..8u32 {
            ps.insert(SimTime::ZERO, i, 1e6);
        }
        // Churn rates so the completion heap accumulates stale entries.
        for round in 0..1_000u64 {
            ps.set_rate(t(round), (round % 8) as u32, 1.0 + (round % 5) as f64);
        }
        let mut snap = ps.snapshot();
        assert!(
            snap.completion_heap_len() <= snap.len(),
            "snapshot kept stale announcements: {} for {} jobs",
            snap.completion_heap_len(),
            snap.len()
        );
        // Identical evolution: same completions at the same instants.
        for step in 0..50u64 {
            let now = t(10_000 + step * 1_000_000_000);
            assert_eq!(ps.earliest_completion(), snap.earliest_completion());
            assert_eq!(ps.take_finished(now), snap.take_finished(now));
        }
        // Divergence after the snapshot stays independent.
        let first = ps.keys().next();
        if let Some(k) = first {
            ps.remove(t(1e18 as u64), k);
            assert_eq!(snap.len(), ps.len() + 1);
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
    fn completion_heap_is_bounded_under_rate_churn() {
        let mut ps = ProgressSet::new();
        for i in 0..8u32 {
            ps.insert(SimTime::ZERO, i, 1e12);
        }
        for round in 0..100_000u64 {
            let now = t(round);
            ps.set_rate(now, (round % 8) as u32, 1.0 + (round % 13) as f64);
            assert!(
                ps.completion_heap_len() <= 2 * ps.len() + COMPACT_MIN,
                "completion heap grew unbounded: {} entries for {} jobs",
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
}
