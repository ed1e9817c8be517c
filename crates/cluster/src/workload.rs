//! The workload abstraction every malleable application implements.
//!
//! The cluster server schedules jobs whose compute-node allocation varies
//! at iteration boundaries. What it needs from an application is exactly
//! what the paper's simulator produces: a **per-iteration dynamic-efficiency
//! profile** at any candidate allocation. The [`Workload`] trait captures
//! that contract, so the server is agnostic to whether the profile comes
//! from
//!
//! * a full dps-sim run of a real DPS application (`LuWorkload` /
//!   `StencilWorkload` in the `workload` crate), or
//! * the cheap analytic Amdahl model ([`PhaseWorkload`], wrapping
//!   [`Phase`] sequences such as [`lu_like_job`]).
//!
//! Profiles are deterministic for a given `(workload, node count)` pair, so
//! the server memoizes them in a [`ProfileCache`] — simulator-backed
//! scheduling costs one engine run per distinct allocation probed, not one
//! per scheduling decision. Beyond profiles, the trait asks only for an
//! optional live what-if session; replaying a whole allocation schedule
//! as one run is the LU backend's own business (`LuWorkload::realize`).

use std::collections::VecDeque;
use std::hash::Hasher;

use desim::fxhash::{FxHashMap, FxHasher};
use desim::SimDuration;
use dps_sim::{SimError, SimResult};

use crate::efficiency::{EfficiencyProfile, IterationPoint};

/// A malleable application the cluster server can schedule.
///
/// Implementations must be deterministic: two calls to [`Workload::profile`]
/// with the same node count must return identical profiles, and two
/// workloads with equal [`Workload::key`]s must behave identically (the
/// server shares memoized profiles between them).
pub trait Workload: Send + Sync {
    /// Stable identity used to memoize profiles. Equal keys ⇒ identical
    /// profiles at every node count.
    fn key(&self) -> String;

    /// Number of iterations (phases) the application executes. Allocation
    /// changes happen only at iteration boundaries.
    fn iterations(&self) -> usize;

    /// Largest allocation [`Workload::profile`] accepts (e.g. the worker
    /// count of a DPS application). `u32::MAX` means "no intrinsic cap".
    fn max_nodes(&self) -> u32;

    /// Per-iteration dynamic-efficiency profile of a complete run at a
    /// fixed allocation of `nodes` compute nodes (`1..=max_nodes`). The
    /// returned profile has exactly [`Workload::iterations`] points.
    /// Simulator-backed implementations surface the run's typed failure
    /// (deadlock, blown budget, …) instead of panicking.
    fn profile(&self, nodes: u32) -> SimResult<EfficiencyProfile>;

    /// Opens a live what-if session for one job instance starting on
    /// `start_nodes` nodes: a warm paused simulation the scheduler can
    /// advance barrier-by-barrier and fork into candidate futures (see
    /// [`WhatIfSession`]). Returns `Ok(None)` when the backend cannot fork
    /// (the scheduler then falls back to profile-suffix scoring), `Err`
    /// when opening the run itself failed.
    fn whatif_session(&self, start_nodes: u32) -> SimResult<Option<Box<dyn WhatIfSession>>> {
        let _ = start_nodes;
        Ok(None)
    }
}

/// A job's live what-if session: a paused simulation advanced to the
/// job's current iteration barrier, from which candidate futures fork
/// without re-simulating the prefix. Implemented by
/// `workload::WhatIfEvaluator` over `SimCheckpoint::fork()`; the trait
/// lives here so `cluster-svc` can drive sessions without depending on
/// the app crates.
///
/// Sessions are engine-local (created and dropped inside one `serve`
/// call), so the trait is deliberately not `Send`: the underlying paused
/// simulation pins itself to the thread that runs the service loop.
pub trait WhatIfSession {
    /// Advances the warm base to (just before) 1-based barrier `barrier`.
    /// Barriers must be requested monotonically. Returns `false` when the
    /// underlying run finished first (the session is then exhausted).
    fn advance_to_barrier(&mut self, barrier: usize) -> SimResult<bool>;

    /// Forks the base and executes the full removal `plan` (entries at or
    /// before the current barrier having already executed in the base),
    /// returning the realized per-iteration profile. Requires a prior
    /// successful [`WhatIfSession::advance_to_barrier`]. May return a
    /// previously realized profile of the same effective plan (the
    /// removals that actually fire), charged as the fork would have been.
    fn score_plan(&mut self, plan: &[(usize, u32)]) -> SimResult<EfficiencyProfile>;

    /// Commits `plan` into the warm base so future forks inherit it. The
    /// plan replaces any previously committed plan.
    fn commit_plan(&mut self, plan: &[(usize, u32)]) -> SimResult<()>;

    /// Cumulative deterministic cost of this session: committed simulator
    /// steps spent advancing the warm base plus every forked suffix. The
    /// service's circuit breaker charges each decision the delta of this
    /// counter — virtual work, never host wall time, so budget breaches are
    /// reproducible per seed.
    fn steps_used(&self) -> u64;
}

/// One phase of an analytic job: `work` of serial computation with parallel
/// fraction `parallel_fraction` (Amdahl).
#[derive(Clone, Copy, Debug)]
pub struct Phase {
    /// Serial work of the phase.
    pub work: SimDuration,
    /// Amdahl parallel fraction.
    pub parallel_fraction: f64,
}

impl Phase {
    /// A phase of `work` serial computation, `parallel_fraction` of which
    /// parallelizes (must lie in `[0, 1]`).
    pub fn new(work: SimDuration, parallel_fraction: f64) -> Phase {
        assert!((0.0..=1.0).contains(&parallel_fraction));
        Phase {
            work,
            parallel_fraction,
        }
    }

    /// Amdahl speedup on `n` nodes.
    pub fn speedup(&self, n: u32) -> f64 {
        let p = self.parallel_fraction;
        1.0 / ((1.0 - p) + p / n as f64)
    }

    /// Wall time of the phase on `n` nodes.
    pub fn duration_on(&self, n: u32) -> SimDuration {
        self.work.mul_f64(1.0 / self.speedup(n))
    }

    /// Efficiency on `n` nodes.
    pub fn efficiency_on(&self, n: u32) -> f64 {
        self.speedup(n) / n as f64
    }
}

/// An LU-like analytic job: phase `k` of `kb` has work ∝ (kb−k)², and large
/// phases parallelize better than small ones. The parallel fractions are
/// fitted to the paper's Figure 11 (8-node efficiency starting around 38%
/// and decaying), so late iterations genuinely waste most of a large
/// allocation.
pub fn lu_like_job(total_work: SimDuration, kb: usize) -> Vec<Phase> {
    let sum: f64 = (0..kb).map(|k| ((kb - k) * (kb - k)) as f64).sum();
    (0..kb)
        .map(|k| {
            let w = ((kb - k) * (kb - k)) as f64 / sum;
            let frac = 0.45 + 0.35 * (kb - k) as f64 / kb as f64;
            Phase::new(total_work.mul_f64(w), frac.min(0.995))
        })
        .collect()
}

/// The analytic Amdahl backend: a [`Phase`] sequence as a [`Workload`] —
/// the cheap third backend beside the simulator-backed LU and stencil
/// workloads, whose profiles cost a few multiplications instead of an
/// engine run.
#[derive(Clone, Debug)]
pub struct PhaseWorkload {
    phases: Vec<Phase>,
    key: String,
}

impl PhaseWorkload {
    /// Wraps a phase sequence. The memo key is derived from the phase data,
    /// so structurally identical jobs share cached profiles.
    pub fn new(phases: Vec<Phase>) -> PhaseWorkload {
        assert!(!phases.is_empty(), "workload needs at least one phase");
        let mut h = FxHasher::default();
        for p in &phases {
            h.write_u64(p.work.as_nanos());
            h.write_u64(p.parallel_fraction.to_bits());
        }
        PhaseWorkload {
            key: format!("phases:{:016x}", h.finish()),
            phases,
        }
    }
}

impl Workload for PhaseWorkload {
    fn key(&self) -> String {
        self.key.clone()
    }

    fn iterations(&self) -> usize {
        self.phases.len()
    }

    fn max_nodes(&self) -> u32 {
        u32::MAX
    }

    fn profile(&self, nodes: u32) -> SimResult<EfficiencyProfile> {
        if nodes < 1 {
            return Err(SimError::protocol("profile at zero nodes"));
        }
        Ok(EfficiencyProfile {
            points: self
                .phases
                .iter()
                .enumerate()
                .map(|(k, p)| IterationPoint {
                    label: format!("iter:{}", k + 1),
                    span: p.duration_on(nodes),
                    cpu_work: p.work,
                    efficiency: p.efficiency_on(nodes),
                })
                .collect(),
        })
    }
}

/// Capacity of a [`ProfileCache`] (distinct profiles held).
const PROFILE_CAPACITY: usize = 4096;

/// Memoized `(workload key, node count) → profile` store.
///
/// Keyed with the simulator's [`FxHasher`] maps (the hot-map convention of
/// the engine crates): profile lookups sit on the server's event-loop hot
/// path, once per scheduling probe.
///
/// The memo is **bounded**: once `capacity` profiles are held, the oldest
/// *by insertion order* is evicted first. Insertion order is part of the
/// deterministic event order, so the hit/miss/eviction counters — and
/// everything downstream of a recomputed profile — are identical across
/// shard counts and engine thread counts.
pub struct ProfileCache {
    map: FxHashMap<(String, u32), EfficiencyProfile>,
    order: VecDeque<(String, u32)>,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Default for ProfileCache {
    fn default() -> ProfileCache {
        ProfileCache::new()
    }
}

impl ProfileCache {
    /// An empty cache holding at most 4096 profiles.
    pub fn new() -> ProfileCache {
        ProfileCache::with_capacity(PROFILE_CAPACITY)
    }

    /// An empty cache holding at most `capacity` profiles (floored at 1),
    /// evicting the oldest inserted profile once full.
    fn with_capacity(capacity: usize) -> ProfileCache {
        ProfileCache {
            map: FxHashMap::default(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Number of distinct `(workload, node count)` profiles currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Lookups served from the memo.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to compute (and store) a fresh profile.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Profiles evicted to stay within capacity.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// The profile of `w` at `nodes`, computing and memoizing it on first
    /// use. Failures are *not* memoized — a later retry recomputes.
    pub fn profile(&mut self, w: &dyn Workload, nodes: u32) -> SimResult<&EfficiencyProfile> {
        let key = (w.key(), nodes);
        if !self.map.contains_key(&key) {
            self.misses += 1;
            let p = w
                .profile(nodes)
                .map_err(|e| e.context(format!("profiling workload {} at {nodes} nodes", key.0)))?;
            if p.points.len() != w.iterations() {
                return Err(SimError::protocol(format!(
                    "workload {} profile at {nodes} nodes has {} points for {} iterations",
                    key.0,
                    p.points.len(),
                    w.iterations()
                )));
            }
            while self.map.len() >= self.capacity {
                let oldest = self.order.pop_front().expect("profiles tracked");
                self.map.remove(&oldest);
                self.evictions += 1;
            }
            self.order.push_back(key.clone());
            self.map.insert(key.clone(), p);
        } else {
            self.hits += 1;
        }
        Ok(self.map.get(&key).expect("just ensured"))
    }

    /// One iteration's point of `w` at `nodes` (cloned out of the cache).
    pub fn point(
        &mut self,
        w: &dyn Workload,
        nodes: u32,
        iter: usize,
    ) -> SimResult<IterationPoint> {
        Ok(self.profile(w, nodes)?.points[iter].clone())
    }

    /// Predicted dynamic efficiency of iteration `iter` of `w` at `nodes`.
    pub fn efficiency(&mut self, w: &dyn Workload, nodes: u32, iter: usize) -> SimResult<f64> {
        Ok(self.profile(w, nodes)?.points[iter].efficiency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_math_is_consistent() {
        let p = Phase::new(SimDuration::from_secs(100), 0.9);
        assert!((p.speedup(1) - 1.0).abs() < 1e-12);
        assert!(p.speedup(8) > 4.0 && p.speedup(8) < 8.0);
        assert!(p.efficiency_on(8) < p.efficiency_on(2));
        assert_eq!(p.duration_on(1), SimDuration::from_secs(100));
    }

    #[test]
    fn lu_like_job_phases_shrink() {
        let phases = lu_like_job(SimDuration::from_secs(100), 5);
        assert_eq!(phases.len(), 5);
        for w in phases.windows(2) {
            assert!(w[0].work > w[1].work);
            assert!(w[0].parallel_fraction >= w[1].parallel_fraction);
        }
        let total: f64 = phases.iter().map(|p| p.work.as_secs_f64()).sum();
        assert!((total - 100.0).abs() < 1e-3);
    }

    #[test]
    fn phase_workload_profile_matches_analytic_model() {
        let phases = lu_like_job(SimDuration::from_secs(100), 6);
        let w = PhaseWorkload::new(phases.clone());
        assert_eq!(w.iterations(), 6);
        for nodes in [1u32, 4, 8] {
            let p = w.profile(nodes).unwrap();
            assert_eq!(p.points.len(), 6);
            for (k, pt) in p.points.iter().enumerate() {
                assert_eq!(pt.span, phases[k].duration_on(nodes));
                assert_eq!(pt.cpu_work, phases[k].work);
                assert!((pt.efficiency - phases[k].efficiency_on(nodes)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn keys_identify_structurally_equal_jobs() {
        let a = PhaseWorkload::new(lu_like_job(SimDuration::from_secs(100), 5));
        let b = PhaseWorkload::new(lu_like_job(SimDuration::from_secs(100), 5));
        let c = PhaseWorkload::new(lu_like_job(SimDuration::from_secs(101), 5));
        assert_eq!(a.key(), b.key());
        assert_ne!(a.key(), c.key());
    }

    #[test]
    fn profile_cache_memoizes_per_workload_and_node_count() {
        let w = PhaseWorkload::new(lu_like_job(SimDuration::from_secs(100), 5));
        let mut cache = ProfileCache::new();
        assert!(cache.is_empty());
        let e1 = cache.efficiency(&w, 4, 0).unwrap();
        let e2 = cache.efficiency(&w, 4, 0).unwrap();
        assert_eq!(e1, e2);
        assert_eq!(cache.len(), 1);
        cache.efficiency(&w, 8, 0).unwrap();
        assert_eq!(cache.len(), 2);
        // A structurally identical workload hits the same entries.
        let w2 = PhaseWorkload::new(lu_like_job(SimDuration::from_secs(100), 5));
        cache.efficiency(&w2, 8, 2).unwrap();
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn profile_cache_counts_hits_and_misses() {
        let w = PhaseWorkload::new(lu_like_job(SimDuration::from_secs(100), 5));
        let mut cache = ProfileCache::new();
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        cache.profile(&w, 4).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        cache.profile(&w, 4).unwrap();
        cache.point(&w, 4, 2).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (2, 1));
        cache.profile(&w, 8).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (2, 2));
        // A structurally identical workload hits the shared entry.
        let w2 = PhaseWorkload::new(lu_like_job(SimDuration::from_secs(100), 5));
        cache.profile(&w2, 8).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (3, 2));
    }

    #[test]
    fn profile_cache_evicts_oldest_insertion_first() {
        let w = PhaseWorkload::new(lu_like_job(SimDuration::from_secs(100), 3));
        let mut cache = ProfileCache::with_capacity(2);
        cache.profile(&w, 1).unwrap();
        cache.profile(&w, 2).unwrap();
        assert_eq!((cache.len(), cache.evictions()), (2, 0));
        // Third profile evicts the oldest (nodes=1), deterministically.
        cache.profile(&w, 3).unwrap();
        assert_eq!((cache.len(), cache.evictions()), (2, 1));
        let misses = cache.misses();
        cache.profile(&w, 2).unwrap(); // survivor: hit
        assert_eq!(cache.misses(), misses);
        cache.profile(&w, 1).unwrap(); // evicted: recomputed
        assert_eq!(cache.misses(), misses + 1);
    }
}
