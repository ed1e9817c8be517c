//! Progress-sharing resources.
//!
//! A [`ProgressSet`] is a set of jobs, each carrying an amount of remaining
//! *work* (bytes, cpu-nanoseconds, …) that drains at an externally assigned
//! *rate* (work units per virtual second). Jobs belong to *groups*, and a rate
//! is assigned to a whole group at once: every transfer between one pair of
//! nodes gets the same share of the links, and every step on one node the
//! same share of its processor. Engines use it like this:
//!
//! 1. whenever the active set changes, `advance_to(now)` to account the work
//!    done at the old rates,
//! 2. assign the new rates (`set_group_rate`),
//! 3. query `earliest_completion()` and schedule a completion event there,
//! 4. when that event fires, `advance_to` again and `take_finished` the jobs
//!    that drained.
//!
//! Both the flow-level network model (concurrent transfers sharing link
//! bandwidth) and the CPU model (atomic steps under processor sharing) are
//! instances of this pattern, so the fiddly float/rounding logic lives here
//! exactly once. With every job in a group of its own
//! ([`insert`](ProgressSet::insert), [`set_rate`](ProgressSet::set_rate)) it
//! is a plain per-job set.
//!
//! Progress is accounted **lazily**: `advance_to` only moves the clock
//! (O(1)); a job's remaining work is *settled* — materialized against the
//! clock — only when its group is re-rated or when the job comes due.
//! Between settlements the remaining work is implied by
//! `settled_remaining − rate·(now − settled_at)`. Completions come from an
//! *indexed* min-heap of announced finish times: at most one entry per
//! group, whose position the group records, so a re-rate re-keys the entry
//! where it sits. A re-rate settles every member at one instant and gives
//! each the same rate, and both settling and the announcement's rounding are
//! monotone in the remaining work, so the group's earliest completion is its
//! least-remaining member's: one division and one re-key per group, however
//! many members it has. Neither advancing time nor finding the next
//! completion ever scans the job set. Per-event cost is O(jobs whose rate
//! changed) settlements plus O(groups whose rate changed) heap re-keys.
//!
//! The bookkeeping around that arithmetic is kept to array indexing: a
//! group whose key has a small [`GroupKey::dense_index`] finds its slot in
//! an array, not a hash map; a re-rate that announces the instant the heap
//! already holds leaves the heap alone; a sift rewrites the position of
//! only the entries it moves; and members settled at one instant at one
//! rate share one `rate·dt` product.

use std::hash::Hash;

use crate::fxhash::FxHashMap;
use crate::time::SimTime;

/// Dense indices at and above this go to the hash map: the array index of
/// a set never outgrows this many entries, however sparse its keys.
const DENSE_LIMIT: usize = 1 << 12;

/// A group key. Keys with a small dense index are looked up in an array
/// sized by the largest index in use; the rest in a hash map.
pub trait GroupKey: Copy + Ord + Hash {
    /// A small integer naming this key and no other, if the type has one.
    /// The default, `None`, sends every key to the hash map.
    fn dense_index(self) -> Option<usize> {
        None
    }
}

impl GroupKey for u8 {
    fn dense_index(self) -> Option<usize> {
        Some(self as usize)
    }
}

impl GroupKey for u32 {
    fn dense_index(self) -> Option<usize> {
        Some(self as usize)
    }
}

/// Ids drawn from an unbounded counter: no small index.
impl GroupKey for u64 {}

/// A pair indexes by Szudzik's pairing of its parts' indices, which maps
/// the pairs with both parts below `m` onto `0..m²`: a pair index grows
/// with the largest part in use, not with the key space.
impl<A: GroupKey, B: GroupKey> GroupKey for (A, B) {
    fn dense_index(self) -> Option<usize> {
        let (a, b) = (self.0.dense_index()?, self.1.dense_index()?);
        let hi = a.max(b);
        hi.checked_mul(hi)?
            .checked_add(if a < b { a } else { a.checked_add(b)? })
    }
}

/// Slab slot of every live group: by array index for keys with a dense
/// index below [`DENSE_LIMIT`], by hash for the rest.
#[derive(Clone, Debug)]
struct GroupIndex<G> {
    /// Entry `i` holds the group whose dense index is `i`, with its slot.
    dense: Vec<Option<(G, u32)>>,
    hashed: FxHashMap<G, u32>,
}

impl<G: GroupKey> GroupIndex<G> {
    fn new() -> Self {
        GroupIndex {
            dense: Vec::new(),
            hashed: FxHashMap::default(),
        }
    }

    fn dense(group: G) -> Option<usize> {
        group.dense_index().filter(|&i| i < DENSE_LIMIT)
    }

    #[inline]
    fn get(&self, group: G) -> Option<u32> {
        match Self::dense(group) {
            Some(i) => self.dense.get(i).copied().flatten().map(|(_, slot)| slot),
            None => self.hashed.get(&group).copied(),
        }
    }

    fn insert(&mut self, group: G, slot: u32) {
        match Self::dense(group) {
            Some(i) => {
                if i >= self.dense.len() {
                    self.dense.resize(i + 1, None);
                }
                self.dense[i] = Some((group, slot));
            }
            None => {
                self.hashed.insert(group, slot);
            }
        }
    }

    fn remove(&mut self, group: G) {
        match Self::dense(group) {
            Some(i) => self.dense[i] = None,
            None => {
                self.hashed.remove(&group);
            }
        }
    }
}

/// Work below this many units counts as finished; guards against float dust
/// left over by rate changes.
const WORK_EPS: f64 = 1e-6;

/// A nanosecond count `x` (never NaN) rounded as `f64::round(x).max(1.0)`
/// rounds it, as an integer; `None` from `u64::MAX` up. No libm call and no
/// round trip through `f64`: below 2^52, `t` and `x − t` are exact, and the
/// carry is a compare, not a branch (the fraction is a coin flip to a
/// predictor); from 2^52 up every `f64` is an integer already. Baseline
/// x86-64 has no `roundsd`.
fn round_ns(x: f64) -> Option<u64> {
    if x < 4_503_599_627_370_496.0 {
        let t = x as i64;
        Some((t + i64::from(x - t as f64 >= 0.5)).max(1) as u64)
    } else {
        (x < u64::MAX as f64).then_some(x as u64)
    }
}

/// Whether a job counts as finished: fully drained, or within one
/// nanosecond of draining at its current rate (below clock resolution).
fn finished_at(remaining: f64, rate: f64) -> bool {
    remaining <= WORK_EPS || remaining <= rate * 1.5e-9
}

/// The completion a job settled at `at` announces: `at` itself when it has
/// finished, its drain time when it runs, none when it is stalled at rate 0
/// or would drain past the end of time. Monotone in `remaining` for one rate
/// and instant.
fn due(remaining: f64, rate: f64, at: SimTime) -> Option<SimTime> {
    if finished_at(remaining, rate) {
        Some(at)
    } else if rate > 0.0 {
        // Round to the nearest nanosecond: the clock cannot resolve
        // finer, and `finished_at` tolerates up to one nanosecond of
        // residual drain, so nearest-rounding never strands a job.
        let ns = round_ns(remaining / rate * 1e9)?;
        at.as_nanos().checked_add(ns).map(SimTime)
    } else {
        None
    }
}

#[derive(Clone, Copy, Debug)]
struct Job<K> {
    key: K,
    /// Remaining work at `settled_at`.
    remaining: f64,
    /// The group's rate as of its last re-rate; 0 for a job that joined
    /// since.
    rate: f64,
    /// Time at which `remaining` was last materialized.
    settled_at: SimTime,
}

impl<K> Job<K> {
    /// Materializes the remaining work at `now`.
    fn settle(&mut self, now: SimTime) {
        if self.rate > 0.0 && now > self.settled_at {
            let dt = (now - self.settled_at).as_secs_f64();
            self.remaining = (self.remaining - self.rate * dt).max(0.0);
        }
        self.settled_at = now;
    }

    fn due(&self) -> Option<SimTime> {
        due(self.remaining, self.rate, self.settled_at)
    }
}

#[derive(Clone, Debug)]
struct Group<K> {
    /// Never empty while the group is live.
    jobs: Vec<Job<K>>,
    /// Where the group's announcement sits in the completion heap, if it
    /// has one.
    pos: Option<u32>,
}

/// Announced completion of the group in slab slot `slot`: the earliest of
/// its jobs'. The heap orders these by `(at, group)`, so ties break by
/// smallest group — the deterministic ordering the engines rely on.
#[derive(Clone, Copy, Debug)]
struct Due<G> {
    at: SimTime,
    group: G,
    slot: u32,
}

/// A set of jobs draining remaining work at rates assigned per group.
///
/// `K` identifies jobs and `G` groups; by default every job is its own
/// group. `Ord` is required so that completion ties are broken
/// deterministically regardless of hash-map iteration order.
#[derive(Clone, Debug)]
pub struct ProgressSet<K, G = K> {
    /// Group slab; the slots listed in `free` are vacant.
    groups: Vec<Group<K>>,
    free: Vec<u32>,
    /// Slab slot of every live group.
    index: GroupIndex<G>,
    /// Binary min-heap on `(at, group)` with one entry per announced group.
    heap: Vec<Due<G>>,
    /// Live jobs, over all groups.
    len: usize,
    last: SimTime,
}

impl<K: Copy + Ord, G: GroupKey> Default for ProgressSet<K, G> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Copy + Ord, G: GroupKey> ProgressSet<K, G> {
    /// An empty set anchored at time zero.
    pub fn new() -> Self {
        ProgressSet {
            groups: Vec::new(),
            free: Vec::new(),
            index: GroupIndex::new(),
            heap: Vec::new(),
            len: 0,
            last: SimTime::ZERO,
        }
    }

    /// Accounts work done between the last advance and `now` at the current
    /// rates. `now` must not precede the previous advance.
    ///
    /// O(1): only the clock moves; individual jobs are settled lazily when
    /// their group is next touched.
    pub fn advance_to(&mut self, now: SimTime) {
        debug_assert!(now >= self.last, "ProgressSet time went backwards");
        if now > self.last {
            self.last = now;
        }
    }

    /// Writes `due` at heap position `i` and tells its group where it went.
    fn place(&mut self, i: usize, due: Due<G>) {
        self.heap[i] = due;
        self.groups[due.slot as usize].pos = Some(i as u32);
    }

    /// Restores heap order after the entry at position `i` changed, moving
    /// it up or down as far as it has to go. The entry's group must already
    /// record position `i`: only entries that move are rewritten.
    fn sift(&mut self, start: usize) {
        let due = self.heap[start];
        let before = |a: &Due<G>, b: &Due<G>| (a.at, a.group) < (b.at, b.group);
        let mut i = start;
        while i > 0 && before(&due, &self.heap[(i - 1) / 2]) {
            self.place(i, self.heap[(i - 1) / 2]);
            i = (i - 1) / 2;
        }
        // An entry that rose never sinks.
        while i >= start {
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
        if i != start {
            self.place(i, due);
        }
    }

    /// Withdraws the announcement at heap position `pos`.
    fn unannounce(&mut self, pos: u32) {
        let due = self.heap.swap_remove(pos as usize);
        self.groups[due.slot as usize].pos = None;
        if let Some(&moved) = self.heap.get(pos as usize) {
            self.groups[moved.slot as usize].pos = Some(pos);
            self.sift(pos as usize);
        }
    }

    /// Sets the announcement of `group` in `slot` to `at`: an existing entry
    /// is re-keyed where it sits (left alone when its instant is unchanged),
    /// and `None` withdraws it.
    fn announce(&mut self, group: G, slot: u32, at: Option<SimTime>) {
        match (at, self.groups[slot as usize].pos) {
            (Some(at), Some(pos)) => {
                let entry = &mut self.heap[pos as usize];
                if entry.at != at {
                    entry.at = at;
                    self.sift(pos as usize);
                }
            }
            (Some(at), None) => {
                let pos = self.heap.len();
                self.heap.push(Due { at, group, slot });
                self.groups[slot as usize].pos = Some(pos as u32);
                self.sift(pos);
            }
            (None, Some(pos)) => self.unannounce(pos),
            (None, None) => {}
        }
    }

    /// Announces `group` in `slot` at `at`, the earliest of its jobs' own
    /// announcements, or forgets the group once it has no jobs.
    fn refresh(&mut self, group: G, slot: u32, at: Option<SimTime>) {
        if self.groups[slot as usize].jobs.is_empty() {
            self.announce(group, slot, None);
            self.index.remove(group);
            self.free.push(slot);
        } else {
            self.announce(group, slot, at);
        }
    }

    /// Adds job `key` with `work` units remaining to `group`, at rate 0
    /// until the group's next re-rate. Panics if the group already holds
    /// `key` — reusing keys for live jobs is always an engine bug.
    pub fn insert_in(&mut self, now: SimTime, group: G, key: K, work: f64) {
        self.advance_to(now);
        assert!(work >= 0.0, "negative work");
        let slot = match self.index.get(group) {
            Some(slot) => slot,
            None => {
                let slot = self.free.pop().unwrap_or_else(|| {
                    self.groups.push(Group {
                        jobs: Vec::new(),
                        pos: None,
                    });
                    self.groups.len() as u32 - 1
                });
                self.index.insert(group, slot);
                slot
            }
        };
        let job = Job {
            key,
            remaining: work,
            rate: 0.0,
            settled_at: self.last,
        };
        let g = &mut self.groups[slot as usize];
        assert!(
            g.jobs.iter().all(|j| j.key != key),
            "duplicate ProgressSet job key"
        );
        g.jobs.push(job);
        self.len += 1;
        // At rate 0 only a job with no work left comes due: at once.
        if let Some(due) = job.due() {
            let pos = self.groups[slot as usize].pos;
            let at = pos.map_or(due, |pos| self.heap[pos as usize].at.min(due));
            self.announce(group, slot, Some(at));
        }
    }

    /// Assigns a new drain rate to every job of `group`. The caller is
    /// responsible for having advanced to `now` conceptually; this method
    /// does it for them.
    ///
    /// Every call settles every job, a bit-equal rate included: the
    /// settlement point is where `remaining` is rounded, so skipping one
    /// would move completion nanoseconds. Members settled at one instant at
    /// one rate drain the same `rate·dt`, computed once for them.
    pub fn set_group_rate(&mut self, now: SimTime, group: G, rate: f64) {
        self.advance_to(now);
        assert!(rate >= 0.0 && rate.is_finite(), "invalid rate {rate}");
        let slot = self.index.get(group).expect("set_rate on unknown group");
        let last = self.last;
        // `remaining` is never NaN (`insert_in` takes work ≥ 0, settling
        // clamps at 0), so a plain `<` finds the least.
        let mut least = f64::INFINITY;
        // The last product computed: `(settled_at, rate, rate·dt)`. It is
        // `settle`'s own arithmetic, so a reused product is bit-identical.
        let mut product: Option<(SimTime, f64, f64)> = None;
        for job in &mut self.groups[slot as usize].jobs {
            if job.rate > 0.0 && last > job.settled_at {
                let drained = match product {
                    Some((at, r, d)) if (at, r) == (job.settled_at, job.rate) => d,
                    _ => {
                        let d = job.rate * (last - job.settled_at).as_secs_f64();
                        product = Some((job.settled_at, job.rate, d));
                        d
                    }
                };
                job.remaining = (job.remaining - drained).max(0.0);
            }
            job.settled_at = last;
            job.rate = rate;
            if job.remaining < least {
                least = job.remaining;
            }
        }
        self.announce(group, slot, due(least, rate, last));
    }

    /// Current drain rate of job `key` in `group`.
    pub fn rate(&self, group: G, key: K) -> Option<f64> {
        let jobs = &self.groups[self.index.get(group)? as usize].jobs;
        jobs.iter().find(|j| j.key == key).map(|j| j.rate)
    }

    /// Iterates over live job keys in unspecified order.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        // A vacant slot holds no jobs.
        self.groups
            .iter()
            .flat_map(|g| g.jobs.iter().map(|j| j.key))
    }

    /// The earliest time at which some job finishes under current rates,
    /// with its group. Jobs with rate 0 and positive work never finish.
    /// Ties are broken by smallest group.
    ///
    /// The returned time is rounded to the *nearest* nanosecond (see
    /// `due`); a job counts as finished within one nanosecond of draining,
    /// so advancing to it is guaranteed to complete the job.
    pub fn earliest_completion(&mut self) -> Option<(G, SimTime)> {
        // Announcements never predate the clock by more than rounding;
        // clamp so callers never see time regress.
        let due = self.heap.first()?;
        Some((due.group, due.at.max(self.last)))
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
        while let Some(&Due { at, group, slot }) = self.heap.first() {
            if at > now {
                break;
            }
            let jobs = &mut self.groups[slot as usize].jobs;
            let (before, mut next) = (jobs.len(), None);
            jobs.retain_mut(|job| {
                let mut at = job.due();
                if at.is_some_and(|at| at <= now) {
                    job.settle(now);
                    if finished_at(job.remaining, job.rate) {
                        out.push(job.key);
                        return false;
                    }
                    // Rounding left residual work; the job stays,
                    // announced from its own settlement point until its
                    // group's next re-rate.
                    at = job.due();
                }
                next = SimTime::earlier(next, at);
                true
            });
            self.len -= before - jobs.len();
            self.refresh(group, slot, next);
        }
        out[first..].sort_unstable();
    }
}

impl<K, G> ProgressSet<K, G> {
    /// Number of live jobs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no jobs remain.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current virtual time of the set (time of the last advance).
    pub fn now(&self) -> SimTime {
        self.last
    }
}

impl<K: GroupKey> ProgressSet<K> {
    /// Adds job `key`, a group of its own, with `work` units remaining and
    /// rate 0. Panics if the key is already present.
    pub fn insert(&mut self, now: SimTime, key: K, work: f64) {
        self.insert_in(now, key, key, work);
    }

    /// Assigns a new drain rate to job `key`, a group of its own (see
    /// [`set_group_rate`](Self::set_group_rate)).
    pub fn set_rate(&mut self, now: SimTime, key: K, rate: f64) {
        self.set_group_rate(now, key, rate);
    }
}

#[cfg(test)]
impl<K, G> ProgressSet<K, G> {
    /// Completion-heap entries currently held, never more than the live
    /// groups.
    fn completion_heap_len(&self) -> usize {
        self.heap.len()
    }
}

/// The index read as a map from group to slot, for the invariant checks.
#[cfg(test)]
impl<G> GroupIndex<G> {
    fn iter(&self) -> impl Iterator<Item = (&G, &u32)> {
        let dense = self
            .dense
            .iter()
            .flatten()
            .map(|(group, slot)| (group, slot));
        dense.chain(&self.hashed)
    }

    fn len(&self) -> usize {
        self.iter().count()
    }
}

#[cfg(test)]
impl<'a, G> IntoIterator for &'a GroupIndex<G> {
    type Item = (&'a G, &'a u32);
    type IntoIter = Box<dyn Iterator<Item = (&'a G, &'a u32)> + 'a>;

    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

#[cfg(test)]
impl<G: GroupKey> std::ops::Index<&G> for GroupIndex<G> {
    type Output = u32;

    fn index(&self, group: &G) -> &u32 {
        match Self::dense(*group) {
            Some(i) => &self.dense[i].as_ref().expect("live group").1,
            None => &self.hashed[group],
        }
    }
}

#[cfg(test)]
impl<K: GroupKey> ProgressSet<K> {
    /// Remaining work of job `key`, a group of its own, as of the current
    /// clock.
    fn remaining(&self, key: K) -> Option<f64> {
        let jobs = &self.groups[self.index.get(key)? as usize].jobs;
        let mut job = *jobs.iter().find(|j| j.key == key)?;
        job.settle(self.last);
        Some(job.remaining)
    }

    /// Removes job `key`, a group of its own, returning its remaining work
    /// if it was present.
    fn remove(&mut self, now: SimTime, key: K) -> Option<f64> {
        self.advance_to(now);
        let slot = self.index.get(key)?;
        let jobs = &mut self.groups[slot as usize].jobs;
        let mut job = jobs.swap_remove(jobs.iter().position(|j| j.key == key)?);
        let at = jobs.iter().filter_map(Job::due).min();
        self.len -= 1;
        job.settle(self.last);
        self.refresh(key, slot, at);
        Some(job.remaining)
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
    fn completion_past_the_end_of_time_is_never_announced() {
        // A job that would drain past the last representable instant never
        // comes due, so collecting at that instant finds nothing instead of
        // re-announcing the job there forever.
        let start = SimTime(u64::MAX - 10);
        let mut ps = ProgressSet::new();
        ps.insert(start, 1u32, 1.0);
        ps.set_rate(start, 1, 1.0);
        assert_eq!(ps.earliest_completion(), None);
        assert!(ps.take_finished(SimTime(u64::MAX)).is_empty());
        assert_eq!(ps.remaining(1), Some(1.0 - 10.0 * 1e-9));
    }

    #[test]
    fn round_ns_is_f64_round_bit_for_bit() {
        use simrng::{Rng, Xoshiro256};
        let same = |x: f64| {
            if x.is_nan() {
                return; // a drain time is never NaN
            }
            let std = x.round().max(1.0);
            let std = (std < u64::MAX as f64).then_some(std as u64);
            assert_eq!(round_ns(x), std, "{x:e}");
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
            u64::MAX as f64,
            (u64::MAX as f64).next_down(),
            f64::MAX,
            f64::INFINITY,
        ];
        edges.into_iter().for_each(same);
        let mut rng = Xoshiro256::seed_from_u64(0x20DE);
        for _ in 0..200_000 {
            // Every exponent (the sign bit cleared), ties and their
            // neighbours, and the nanosecond counts `due` rounds.
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
    use crate::time::SimDuration;
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
        /// Jobs `take_finished` found due but, once settled, not finished.
        due_unfinished: usize,
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
                let ns = (ns < u64::MAX as f64).then_some(ns as u64);
                ns.and_then(|ns| last.as_nanos().checked_add(ns))
                    .map(SimTime)
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
                } else {
                    self.due_unfinished += 1;
                }
            }
            done.sort_unstable();
            done
        }
    }

    /// Every live group holds jobs, its recorded heap position holds its own
    /// entry, and that entry is the earliest of its jobs' own announcements
    /// (none at all when no job is due); every entry belongs to a live group;
    /// the heap is in `(at, group)` order; and the job count adds up.
    fn assert_heap_indexed<G: Copy + Ord + Hash + std::fmt::Debug>(ps: &ProgressSet<u32, G>) {
        assert!(ps.completion_heap_len() <= ps.index.len());
        let (mut announced, mut jobs) = (0, 0);
        for (&group, &slot) in &ps.index {
            let g = &ps.groups[slot as usize];
            assert!(!g.jobs.is_empty(), "a live group without jobs");
            jobs += g.jobs.len();
            let earliest = g.jobs.iter().filter_map(Job::due).min();
            let entry = g.pos.map(|pos| ps.heap[pos as usize]);
            if let Some(due) = entry {
                assert_eq!((due.group, due.slot), (group, slot), "stale position");
                announced += 1;
            }
            assert_eq!(
                entry.map(|due| due.at),
                earliest,
                "group {group:?} mis-announced"
            );
        }
        assert_eq!(jobs, ps.len());
        assert_eq!(announced, ps.heap.len(), "an entry without a live group");
        for (i, due) in ps.heap.iter().enumerate().skip(1) {
            let parent = &ps.heap[(i - 1) / 2];
            assert!(
                (parent.at, parent.group) <= (due.at, due.group),
                "heap order"
            );
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

    /// Re-rates every job of `group` in both sets, the reference one job at
    /// a time.
    fn re_rate(
        ps: &mut ProgressSet<u32, u8>,
        naive: &mut Naive,
        members: &[u32],
        (now, group, rate): (SimTime, u8, f64),
    ) {
        ps.set_group_rate(now, group, rate);
        for &key in members {
            naive.set_rate(now, key, rate);
        }
    }

    /// Groups of one to six jobs, each re-rated as a whole, answer exactly as
    /// the per-job reference does when it re-rates every member on its own:
    /// the same completions at the same instants, and every job settled to
    /// the same bits at the same instants. The streams mix zero work,
    /// same-instant re-rates and rate drops at the instant a group comes due.
    /// Every other stream drains work large enough, at rates slow enough,
    /// that float rounding can leave a due job unfinished — a path the
    /// streams must reach.
    #[test]
    fn grouped_set_matches_per_job_reference() {
        let mut rng = Xoshiro256::seed_from_u64(0x6209);
        let mut due_unfinished = 0;
        for case in 0..128 {
            let mut ps: ProgressSet<u32, u8> = ProgressSet::new();
            let mut naive = Naive::default();
            let mut group_of = std::collections::BTreeMap::<u32, u8>::new();
            let mut now = SimTime::ZERO;
            let mut next_key = 0u32;
            let (works, rates): (&[f64], &[f64]) = if case % 2 == 0 {
                (&[0.0, 1.0, 1.0, 2.0, 1e3], &[0.0, 0.5, 1.0, 1.0, 2.0, 1e9])
            } else {
                (&[0.0, 3e11, 3e11, 7e11], &[0.0, 40.0, 7e3, 7e3, 3e4])
            };
            for step in 0..300 {
                let members = |group_of: &std::collections::BTreeMap<u32, u8>, group: u8| {
                    let of = |(&key, &g): (&u32, &u8)| (g == group).then_some(key);
                    group_of.iter().filter_map(of).collect::<Vec<u32>>()
                };
                let group = rng.gen_below(5) as u8;
                match rng.gen_index(7) {
                    0 | 1 if members(&group_of, group).len() < 6 => {
                        let work = works[rng.gen_index(works.len())];
                        ps.insert_in(now, group, next_key, work);
                        naive.insert(now, next_key, work);
                        group_of.insert(next_key, group);
                        next_key += 1;
                    }
                    2 | 3 => {
                        // A burst re-rates whole groups at one instant, as a
                        // reassignment does.
                        for _ in 0..1 + rng.gen_index(3) {
                            let group = rng.gen_below(5) as u8;
                            let jobs = members(&group_of, group);
                            let rate = rates[rng.gen_index(rates.len())];
                            if !jobs.is_empty() {
                                re_rate(&mut ps, &mut naive, &jobs, (now, group, rate));
                            }
                        }
                    }
                    4 => {
                        // The group due next drops its rate at its due
                        // instant, before anything collects it.
                        if let Some((group, at)) = ps.earliest_completion() {
                            now = at;
                            let rate = rates[rng.gen_index(rates.len())] / 4.0;
                            let jobs = members(&group_of, group);
                            re_rate(&mut ps, &mut naive, &jobs, (now, group, rate));
                        }
                    }
                    _ => {
                        now = match ps.earliest_completion() {
                            Some((_, at)) if rng.gen_bool() => at,
                            _ => now + SimDuration::from_nanos(rng.gen_range_u64(0, 3_000_000_000)),
                        };
                        let done = ps.take_finished(now);
                        assert_eq!(done, naive.take_finished(now), "case {case} step {step}");
                        for key in done {
                            group_of.remove(&key);
                        }
                    }
                }
                assert_eq!(
                    ps.earliest_completion().map(|(_, at)| at),
                    naive.earliest_completion().map(|(_, at)| at),
                    "case {case} step {step}"
                );
                for want in &naive.jobs {
                    let slot = ps.index[&group_of[&want.key]];
                    let jobs = &ps.groups[slot as usize].jobs;
                    let got = jobs.iter().find(|j| j.key == want.key).unwrap();
                    assert_eq!(
                        (got.remaining.to_bits(), got.settled_at),
                        (want.remaining.to_bits(), want.settled_at),
                        "case {case} step {step}: job {}",
                        want.key
                    );
                }
                assert_eq!(ps.len(), naive.jobs.len());
                assert_heap_indexed(&ps);
            }
            due_unfinished += naive.due_unfinished;
        }
        println!("jobs found due but not finished: {due_unfinished}");
        assert!(due_unfinished >= 1, "no stream left a due job unfinished");
    }

    /// Groups on both sides of the dense bound — array-indexed and hashed
    /// in one set — answer exactly as the per-job reference does, settled
    /// bits included, and so do pair keys whose pairing index straddles it.
    #[test]
    fn dense_and_hashed_groups_match_per_job_reference() {
        let edge = DENSE_LIMIT as u32;
        let singles = [0, 1, edge - 1, edge, edge + 1, u32::MAX];
        // Szudzik indices 0, 4095 (the last dense one), 4160, 4096, and
        // pairs of large parts.
        let pairs: [(u32, u32); 6] = [(0, 0), (63, 63), (64, 0), (0, 64), (edge, 1), (u32::MAX, 7)];
        assert_eq!((63u32, 63u32).dense_index(), Some(DENSE_LIMIT - 1));
        assert_eq!((0u32, 64u32).dense_index(), Some(DENSE_LIMIT));
        assert_eq!((u32::MAX, u32::MAX).dense_index(), Some(usize::MAX));
        straddle_case(&singles, 0x57AD);
        straddle_case(&pairs, 0x9A1B);
    }

    fn straddle_case<G: GroupKey + std::fmt::Debug>(keys: &[G], seed: u64) {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        for case in 0..64 {
            let mut ps: ProgressSet<u32, G> = ProgressSet::new();
            let mut naive = Naive::default();
            let mut group_of = std::collections::BTreeMap::<u32, G>::new();
            let mut now = SimTime::ZERO;
            let mut next_key = 0u32;
            for step in 0..300 {
                let group = keys[rng.gen_index(keys.len())];
                let members: Vec<u32> = group_of
                    .iter()
                    .filter_map(|(&key, &g)| (g == group).then_some(key))
                    .collect();
                match rng.gen_index(6) {
                    0 | 1 if members.len() < 5 => {
                        let work = [0.0, 1.0, 2.0, 1e3, 3e11][rng.gen_index(5)];
                        ps.insert_in(now, group, next_key, work);
                        naive.insert(now, next_key, work);
                        group_of.insert(next_key, group);
                        next_key += 1;
                    }
                    2 | 3 if !members.is_empty() => {
                        let rate = [0.0, 0.5, 1.0, 7e3, 1e9][rng.gen_index(5)];
                        ps.set_group_rate(now, group, rate);
                        for &key in &members {
                            naive.set_rate(now, key, rate);
                        }
                    }
                    _ => {
                        now = match ps.earliest_completion() {
                            Some((_, at)) if rng.gen_bool() => at,
                            _ => now + SimDuration::from_nanos(rng.gen_range_u64(0, 3_000_000_000)),
                        };
                        let done = ps.take_finished(now);
                        assert_eq!(done, naive.take_finished(now), "case {case} step {step}");
                        for key in done {
                            group_of.remove(&key);
                        }
                    }
                }
                assert_eq!(
                    ps.earliest_completion().map(|(_, at)| at),
                    naive.earliest_completion().map(|(_, at)| at),
                    "case {case} step {step}"
                );
                for want in &naive.jobs {
                    let slot = ps.index.get(group_of[&want.key]).expect("live group");
                    let jobs = &ps.groups[slot as usize].jobs;
                    let got = jobs.iter().find(|j| j.key == want.key).unwrap();
                    assert_eq!(
                        (got.remaining.to_bits(), got.settled_at),
                        (want.remaining.to_bits(), want.settled_at),
                        "case {case} step {step}: job {}",
                        want.key
                    );
                }
                assert_heap_indexed(&ps);
            }
            assert!(
                ps.index.dense.len() <= DENSE_LIMIT,
                "array outgrew the bound"
            );
        }
    }
}
