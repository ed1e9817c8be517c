//! Job payloads and the streaming submission model.
//!
//! The service consumes an *iterator* of compact [`JobSpec`]s and reports
//! aggregates only: per-job names and records would cost hundreds of
//! megabytes at millions of jobs before the first event fires.
//! [`SyntheticLoad`] generates specs lazily from a seed in O(1) memory;
//! [`random_jobs`] draws a small seeded batch for scheduler studies.
//!
//! Two payload kinds:
//!
//! * [`AnalyticJob`] — a closed-form Amdahl job whose per-iteration span,
//!   work and efficiency cost a few multiplications. The parallel fraction
//!   decays linearly across iterations (the LU shape: later iterations
//!   parallelize worse), so malleable policies shrink allocations over a
//!   job's lifetime. The policy target is inverted in closed form, keeping
//!   the scheduler hot path free of profile loops.
//! * [`JobPayload::Boxed`] — any [`cluster::Workload`] (e.g. the
//!   simulator-backed LU/stencil apps), memoized through the serve's
//!   [`cluster::ProfileCache`].

use std::sync::Arc;

use cluster::{lu_like_job, PhaseWorkload, Workload};
use desim::{SimDuration, SimTime};

use crate::candidate::CandidateScore;

/// A closed-form Amdahl job: `iterations` equal slices of `work`, with the
/// parallel fraction decaying linearly from `parallel_first` (iteration 0)
/// to `parallel_last` (last iteration).
#[derive(Clone, Copy, Debug)]
pub struct AnalyticJob {
    /// Total serial work across all iterations.
    pub work: SimDuration,
    /// Parallel fraction of the first iteration, in `[0, 1)`.
    pub parallel_first: f64,
    /// Parallel fraction of the last iteration, in `[0, 1)`.
    pub parallel_last: f64,
    /// Number of iterations (allocation changes only at boundaries).
    pub iterations: u32,
}

impl AnalyticJob {
    /// Parallel fraction of iteration `k`.
    fn fraction(&self, k: u32) -> f64 {
        if self.iterations <= 1 {
            return self.parallel_first;
        }
        let t = f64::from(k) / f64::from(self.iterations - 1);
        self.parallel_first + (self.parallel_last - self.parallel_first) * t
    }

    /// Iteration `k`: its serial work and parallel fraction.
    pub(crate) fn iteration(&self, k: u32) -> Iteration {
        Iteration {
            k,
            w: SimDuration(self.work.as_nanos() / u64::from(self.iterations.max(1))),
            p: self.fraction(k),
        }
    }

    /// `(span, work, efficiency)` of iteration `k` on `nodes` nodes —
    /// Amdahl: `span = w·((1−p) + p/n)`, `eff = w / (n·span)`.
    pub fn point(&self, k: u32, nodes: u32) -> (SimDuration, SimDuration, f64) {
        self.iteration(k).point(nodes)
    }

    /// Integer what-if score of running iterations `from..` at a constant
    /// allocation of `nodes` — the analytic closed-form counterpart of
    /// `realized_suffix` over a fixed-allocation profile, summed through
    /// the same accumulator and keeping the scale path free of caches and
    /// engine runs.
    pub(crate) fn suffix_score(&self, from: u32, nodes: u32) -> CandidateScore {
        let mut s = CandidateScore::default();
        for k in from..self.iterations {
            let (span, work, _) = self.point(k, nodes);
            s.add(nodes.max(1), span, work);
        }
        s
    }
}

/// One iteration of an [`AnalyticJob`]: what its points and its
/// efficiency target are derived from, computed once per iteration.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Iteration {
    /// The iteration's index.
    pub k: u32,
    /// Serial work (the same in every iteration of a job).
    w: SimDuration,
    /// Parallel fraction.
    p: f64,
}

impl Iteration {
    /// Iteration `k` of `job`, the job this iteration belongs to.
    pub fn next(self, job: &AnalyticJob, k: u32) -> Iteration {
        Iteration {
            k,
            p: job.fraction(k),
            ..self
        }
    }

    /// `(span, work, efficiency)` on `nodes` nodes.
    pub fn point(&self, nodes: u32) -> (SimDuration, SimDuration, f64) {
        let n = f64::from(nodes.max(1));
        let stretch = stretch(self.p, n);
        let span = SimDuration((self.w.as_nanos() as f64 * stretch).max(1.0) as u64);
        (span, self.w, efficiency(n, stretch))
    }

    /// Largest allocation in `1..=cap` whose efficiency clears `min_eff` —
    /// the Amdahl inversion of the malleable policy's linear profile scan.
    /// `eff(n) = 1/(n(1−p)+p) ≥ E ⇔ n ≤ (1/E−p)/(1−p)`, so the target is a
    /// floor division instead of a per-decision loop. A short exact
    /// correction absorbs float rounding at the boundary. The quotient is
    /// compared unfloored (`x ≥ cap ⇔ ⌊x⌋ ≥ cap`, `x ≥ 1 ⇔ ⌊x⌋ ≥ 1`, and
    /// `x as u32` truncates to `⌊x⌋` for `x ≥ 1`), and a NaN fraction lands
    /// on 1 rather than on `NaN as u32 = 0`.
    pub fn target(&self, min_eff: f64, cap: u32) -> u32 {
        let cap = cap.max(1);
        if min_eff <= 0.0 {
            return cap;
        }
        let p = self.p;
        if p >= 1.0 {
            return cap;
        }
        let raw = (1.0 / min_eff - p) / (1.0 - p);
        let mut n = if raw >= f64::from(cap) {
            cap
        } else if raw >= 1.0 {
            raw as u32
        } else {
            1 // below 1, or NaN
        };
        // `point(n).2` without the span: the same expression, so the same
        // bits.
        let eff = |n: u32| {
            let n = f64::from(n);
            efficiency(n, stretch(p, n))
        };
        while n < cap && eff(n + 1) >= min_eff {
            n += 1;
        }
        while n > 1 && eff(n) < min_eff {
            n -= 1;
        }
        n
    }
}

/// Amdahl stretch `span ÷ work` of an iteration with parallel fraction `p`
/// on `n` nodes.
fn stretch(p: f64, n: f64) -> f64 {
    (1.0 - p) + p / n
}

/// Efficiency `work ÷ (n · span)` on `n` nodes at `stretch`.
fn efficiency(n: f64, stretch: f64) -> f64 {
    1.0 / (n * stretch)
}

/// What a job executes.
#[derive(Clone)]
pub enum JobPayload {
    /// Closed-form Amdahl model (the scale path — no allocation, no cache).
    Analytic(AnalyticJob),
    /// Any [`cluster::Workload`], profiled through the shared cache. The
    /// `Arc` keeps specs cheaply cloneable in streams.
    Boxed(Arc<dyn Workload>),
}

impl JobPayload {
    /// Number of iterations.
    pub fn iterations(&self) -> u32 {
        match self {
            JobPayload::Analytic(a) => a.iterations,
            JobPayload::Boxed(w) => w.iterations() as u32,
        }
    }

    /// Largest allocation the payload supports.
    pub fn max_nodes(&self) -> u32 {
        match self {
            JobPayload::Analytic(_) => u32::MAX,
            JobPayload::Boxed(w) => w.max_nodes(),
        }
    }
}

impl std::fmt::Debug for JobPayload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobPayload::Analytic(a) => f.debug_tuple("Analytic").field(a).finish(),
            JobPayload::Boxed(w) => f.debug_tuple("Boxed").field(&w.key()).finish(),
        }
    }
}

/// One submitted job. Compact by design: no name, no per-job records —
/// identity is the service-assigned monotone submission index (visible in
/// the decision journal), attribution is per tenant and per cell.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Index into the service's tenant list.
    pub tenant: u32,
    /// Submission time; streams must be non-decreasing in arrival.
    pub arrival: SimTime,
    /// Requested allocation (capped by the cell size at admission).
    pub requested_nodes: u32,
    /// Cancel the job (pending, limbo or running) at this virtual time.
    pub cancel_at: Option<SimTime>,
    /// What to run.
    pub payload: JobPayload,
}

impl JobSpec {
    /// An analytic job.
    pub fn analytic(tenant: u32, arrival: SimTime, requested_nodes: u32, job: AnalyticJob) -> Self {
        JobSpec {
            tenant,
            arrival,
            requested_nodes,
            cancel_at: None,
            payload: JobPayload::Analytic(job),
        }
    }

    /// A job wrapping an arbitrary workload.
    pub fn boxed(
        tenant: u32,
        arrival: SimTime,
        requested_nodes: u32,
        workload: Arc<dyn Workload>,
    ) -> Self {
        JobSpec {
            tenant,
            arrival,
            requested_nodes,
            cancel_at: None,
            payload: JobPayload::Boxed(workload),
        }
    }

    /// Requests cancellation at `at` (builder style).
    pub fn with_cancel_at(mut self, at: SimTime) -> Self {
        self.cancel_at = Some(at);
        self
    }
}

/// A seeded lazy stream of analytic jobs — the million-job driver.
///
/// Uniform interarrival in `[0, 2·mean)`, per-job tenant / request /
/// iteration-count / parallel-fraction draws from one xorshift64 state, so
/// the whole load derives deterministically from `(jobs, seed)` and costs
/// O(1) memory no matter how long it runs. Arrivals, the interarrival
/// bound and job work saturate at the end of time.
#[derive(Clone, Debug)]
pub struct SyntheticLoad {
    remaining: u64,
    t: u64,
    state: u64,
    tenants: u32,
    max_request: u32,
    /// `2 · mean interarrival`, the exclusive bound of one interarrival.
    interarrival_bound_ns: u64,
    mean_work_ns: u64,
}

impl SyntheticLoad {
    /// A stream of `jobs` jobs over `tenants` tenants with requests in
    /// `1..=max_request`, derived from `seed`.
    pub fn new(
        jobs: u64,
        tenants: u32,
        max_request: u32,
        mean_interarrival: SimDuration,
        mean_work: SimDuration,
        seed: u64,
    ) -> SyntheticLoad {
        assert!(tenants > 0 && max_request > 0);
        SyntheticLoad {
            remaining: jobs,
            t: 0,
            state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
            tenants,
            max_request,
            interarrival_bound_ns: mean_interarrival.as_nanos().max(1).saturating_mul(2),
            mean_work_ns: mean_work.as_nanos().max(1),
        }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }
}

impl Iterator for SyntheticLoad {
    type Item = JobSpec;

    fn next(&mut self) -> Option<JobSpec> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let gap = self.next_u64() % self.interarrival_bound_ns;
        self.t = self.t.saturating_add(gap);
        let tenant = (self.next_u64() % u64::from(self.tenants)) as u32;
        let requested = 1 + (self.next_u64() % u64::from(self.max_request)) as u32;
        let iterations = 1 + (self.next_u64() % 4) as u32;
        let p0 = 0.60 + 0.38 * (self.next_u64() % 1000) as f64 / 1000.0;
        let p1 = (p0 - 0.25).max(0.30);
        // Work scales with the request so big jobs are also long jobs.
        let base = (self.mean_work_ns / 2).saturating_add(self.next_u64() % self.mean_work_ns);
        let work = (base / u64::from(self.max_request) * u64::from(requested)).saturating_add(1);
        Some(JobSpec::analytic(
            tenant,
            SimTime(self.t),
            requested,
            AnalyticJob {
                work: SimDuration(work),
                parallel_first: p0,
                parallel_last: p1,
                iterations,
            },
        ))
    }
}

/// A seeded batch of `count` tenant-0 jobs for scheduler studies: LU-like
/// [`PhaseWorkload`]s ([`lu_like_job`], 200–2 000 s of work in 4–11
/// phases) arriving up to two minutes apart, each requesting
/// `1..=max_nodes` nodes.
pub fn random_jobs(count: usize, max_nodes: u32, seed: u64) -> Vec<JobSpec> {
    // Splitmix-style seeding so adjacent seeds diverge immediately.
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut t = 0u64;
    (0..count)
        .map(|_| {
            t += next() % 120;
            let nodes = 1 + (next() % u64::from(max_nodes)) as u32;
            let work = 200 + next() % 1800;
            let phases = 4 + (next() % 8) as usize;
            let w = PhaseWorkload::new(lu_like_job(SimDuration::from_secs(work), phases));
            JobSpec::boxed(0, SimTime(t * 1_000_000_000), nodes, Arc::new(w))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_target_matches_linear_scan() {
        // The O(1) inversion must agree with the reference profile scan
        // ("largest n with eff ≥ threshold") for a grid of shapes.
        for pf in [0.0, 0.30, 0.55, 0.72, 0.90, 0.97, 0.999] {
            for pl in [0.0, 0.30, 0.55, 0.72, 0.90] {
                let job = AnalyticJob {
                    work: SimDuration::from_secs(8),
                    parallel_first: pf,
                    parallel_last: pl,
                    iterations: 4,
                };
                for k in 0..4 {
                    for min_eff in [0.3, 0.5, 0.7, 0.9] {
                        for cap in [1, 3, 8, 32] {
                            let mut best = 1;
                            for n in 1..=cap {
                                if job.point(k, n).2 >= min_eff {
                                    best = n;
                                }
                            }
                            assert_eq!(
                                job.iteration(k).target(min_eff, cap),
                                best,
                                "pf={pf} pl={pl} k={k} eff={min_eff} cap={cap}"
                            );
                        }
                    }
                }
            }
        }
        // Fractions outside [0, 1) — the fields are public and admission
        // does not check them — still land in 1..=cap.
        let odd = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.5, -3.0];
        for pf in odd {
            for pl in odd.into_iter().chain([0.5]) {
                let job = AnalyticJob {
                    work: SimDuration::from_secs(8),
                    parallel_first: pf,
                    parallel_last: pl,
                    iterations: 4,
                };
                for k in 0..4 {
                    for min_eff in [0.3, 0.5, 0.9] {
                        for cap in [1, 3, 8, 32] {
                            let n = job.iteration(k).target(min_eff, cap);
                            assert!((1..=cap).contains(&n), "pf={pf} pl={pl} k={k} n={n}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn target_matches_the_profile_scan_on_seeded_draws() {
        // 10⁵ seeded shapes, iterations, caps and floors against the linear
        // profile scan over `point`. Half the floors are exactly some
        // point's efficiency: there, a target computed with other rounding
        // keeps or drops that node differently.
        let mut x: u64 = 0x7A26_E7D5_0C4B_1F39;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let unit = |v: u64| (v >> 11) as f64 / (1u64 << 53) as f64;
        let mut on_edge = 0;
        for draw in 0..100_000 {
            let job = AnalyticJob {
                work: SimDuration(1 + next() % 100_000_000_000),
                parallel_first: unit(next()),
                parallel_last: unit(next()),
                iterations: 1 + (next() % 12) as u32,
            };
            let k = (next() % u64::from(job.iterations)) as u32;
            let cap = 1 + (next() % 64) as u32;
            let min_eff = if next() % 2 == 0 {
                on_edge += 1;
                job.point(k, 1 + (next() % u64::from(cap)) as u32).2
            } else {
                unit(next())
            };
            let scan = (1..=cap)
                .filter(|&n| job.point(k, n).2 >= min_eff)
                .max()
                .unwrap_or(1);
            assert_eq!(
                job.iteration(k).target(min_eff, cap),
                scan,
                "draw {draw}: {job:?} k={k} min_eff={min_eff} cap={cap}"
            );
            // The scorer's path: an earlier iteration carried forward.
            let carried = job.iteration(0).next(&job, k);
            assert_eq!(carried.target(min_eff, cap), scan, "draw {draw}");
            assert_eq!(carried.point(cap), job.point(k, cap), "draw {draw}");
        }
        assert!(on_edge > 45_000);
    }

    #[test]
    fn analytic_points_are_consistent() {
        let job = AnalyticJob {
            work: SimDuration::from_secs(4),
            parallel_first: 0.9,
            parallel_last: 0.5,
            iterations: 4,
        };
        let (span1, w, eff1) = job.point(0, 1);
        assert_eq!(span1, w, "serial span equals the work slice");
        assert!((eff1 - 1.0).abs() < 1e-12);
        let (span8, _, eff8) = job.point(0, 8);
        assert!(span8 < span1 && eff8 < 1.0);
        // Later iterations parallelize worse.
        assert!(job.point(3, 8).2 < job.point(0, 8).2);
    }

    #[test]
    fn synthetic_load_is_deterministic_and_bounded() {
        let a: Vec<JobSpec> = SyntheticLoad::new(
            500,
            4,
            8,
            SimDuration::from_millis(100),
            SimDuration::from_secs(2),
            7,
        )
        .collect();
        let b: Vec<JobSpec> = SyntheticLoad::new(
            500,
            4,
            8,
            SimDuration::from_millis(100),
            SimDuration::from_secs(2),
            7,
        )
        .collect();
        assert_eq!(a.len(), 500);
        let mut prev = SimTime::ZERO;
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.arrival, y.arrival);
            assert_eq!(x.tenant, y.tenant);
            assert_eq!(x.requested_nodes, y.requested_nodes);
            assert!(x.arrival >= prev, "arrivals must be non-decreasing");
            assert!(x.tenant < 4 && (1..=8).contains(&x.requested_nodes));
            prev = x.arrival;
        }
        let c: Vec<JobSpec> = SyntheticLoad::new(
            500,
            4,
            8,
            SimDuration::from_millis(100),
            SimDuration::from_secs(2),
            8,
        )
        .collect();
        assert!(
            a.iter().zip(&c).any(|(x, y)| x.arrival != y.arrival),
            "different seeds must draw different loads"
        );
    }

    #[test]
    fn synthetic_load_survives_means_near_the_end_of_time() {
        // A mean interarrival of 2⁶³ ns once wrapped `2 · mean` to 0 (a
        // remainder by zero), and arrivals past `u64::MAX` wrapped back to
        // the start of time. Both now saturate, as does the work of a job
        // whose mean work is the longest span.
        for mean in [SimDuration(1 << 63), SimDuration::MAX] {
            let load = SyntheticLoad::new(64, 3, 8, mean, mean, 5);
            let mut prev = SimTime::ZERO;
            for spec in load {
                assert!(spec.arrival >= prev, "{mean:?}: arrivals went backwards");
                prev = spec.arrival;
            }
            assert_eq!(
                prev,
                SimTime::MAX,
                "{mean:?}: 64 draws reach the end of time"
            );
        }
    }

    #[test]
    fn random_workloads_are_reproducible() {
        let a = random_jobs(10, 8, 42);
        let b = random_jobs(10, 8, 42);
        let c = random_jobs(10, 8, 43);
        assert_eq!(a.len(), 10);
        assert_eq!(
            a.iter().map(|j| j.arrival).collect::<Vec<_>>(),
            b.iter().map(|j| j.arrival).collect::<Vec<_>>()
        );
        assert_ne!(
            a.iter().map(|j| j.requested_nodes).collect::<Vec<_>>(),
            c.iter().map(|j| j.requested_nodes).collect::<Vec<_>>()
        );
        for j in &a {
            assert!(j.requested_nodes >= 1 && j.requested_nodes <= 8);
            assert!(j.payload.iterations() >= 1);
        }
    }
}
