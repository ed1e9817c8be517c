//! The paper's future work, built: a cluster server running multiple
//! applications whose node allocations vary dynamically.
//!
//! Jobs wrap a [`Workload`] — any malleable application that can report a
//! per-iteration dynamic-efficiency profile at a candidate allocation
//! (simulator-backed DPS applications such as the LU factorization and the
//! Jacobi stencil, or the cheap analytic Amdahl model
//! [`crate::workload::PhaseWorkload`]). The server owns `N` nodes and
//! schedules arriving jobs under one of four policies:
//!
//! * [`SchedulePolicy::Rigid`] — a job holds its requested allocation from
//!   start to finish (the classic static cluster);
//! * [`SchedulePolicy::Malleable`] — before each iteration, the job is
//!   resized to the largest allocation whose *predicted* dynamic efficiency
//!   (from the workload's profile, i.e. from simulator runs for the
//!   dps-sim-backed workloads) clears a threshold; freed nodes immediately
//!   serve the waiting queue;
//! * [`SchedulePolicy::ElasticRecovery`] — malleable scheduling plus
//!   fault-aware recovery: an interrupted job resumes from its last
//!   checkpoint (instead of restarting from scratch) after a capped
//!   exponential backoff, on whatever nodes remain;
//! * [`SchedulePolicy::WhatIf`] — a policy of the `cluster-svc` service,
//!   which scores candidate slates at every decision. This batch server
//!   has no slates: it runs the policy as `ElasticRecovery`.
//!
//! [`ClusterSim::run_with_faults`] plays a deterministic
//! [`faults::FaultPlan`] against the server: crashes permanently remove
//! nodes, preemptions take them away and give them back, and
//! slowdown/degrade windows stretch the iterations of jobs holding the
//! struck nodes. Interrupted work is accounted per job (`restarts`,
//! `lost_work`, `degraded`), and an empty plan reproduces the fault-free
//! simulation exactly.
//!
//! The simulation is a small discrete-event model on top of
//! [`desim::EventQueue`]; profiles are memoized per `(workload, node
//! count)` in a [`ProfileCache`] so simulator-backed scheduling stays fast.
//! It reports per-job completion times, the allocation actually granted at
//! every iteration, makespan and node utilization, quantifying the paper's
//! claim that deallocating compute nodes "significantly increases the
//! service rate of the cluster".

use std::collections::VecDeque;

use desim::{EventQueue, SimDuration, SimTime};
use faults::FaultPlan;

use crate::rules::{capped_backoff, efficiency_target, FaultPricing, NodePool, Strike};
use crate::workload::{PhaseWorkload, ProfileCache, Workload};

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

/// A job submitted to the server: arrival metadata plus the malleable
/// application to run.
pub struct Job {
    /// Job name.
    pub name: String,
    /// Submission time.
    pub arrival: SimTime,
    /// Nodes requested at submission.
    pub requested_nodes: u32,
    /// The application: any [`Workload`] backend.
    pub workload: Box<dyn Workload>,
}

impl Job {
    /// A job around an arbitrary workload backend.
    pub fn new(
        name: impl Into<String>,
        arrival: SimTime,
        requested_nodes: u32,
        workload: Box<dyn Workload>,
    ) -> Job {
        Job {
            name: name.into(),
            arrival,
            requested_nodes,
            workload,
        }
    }

    /// A job on the analytic [`Phase`] backend (the original `ClusterSim`
    /// job model).
    pub fn from_phases(
        name: impl Into<String>,
        arrival: SimTime,
        requested_nodes: u32,
        phases: Vec<Phase>,
    ) -> Job {
        Job::new(
            name,
            arrival,
            requested_nodes,
            Box::new(PhaseWorkload::new(phases)),
        )
    }
}

/// Scheduling policy of the server.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SchedulePolicy {
    /// Fixed allocation from start to finish.
    Rigid,
    /// Resize before any iteration to the largest allocation whose
    /// predicted efficiency clears `min_efficiency`.
    Malleable {
        /// Efficiency floor an iteration's allocation must clear.
        min_efficiency: f64,
    },
    /// Malleable scheduling plus fault-aware recovery: interrupted jobs
    /// resume from their last checkpoint after a capped exponential
    /// backoff instead of restarting from scratch.
    ElasticRecovery {
        /// Efficiency floor an iteration's allocation must clear.
        min_efficiency: f64,
        /// Requeue delay after a job's first interruption.
        base_backoff: SimDuration,
        /// Ceiling on the exponentially growing backoff.
        max_backoff: SimDuration,
    },
    /// Simulation-backed what-if scheduling: at every decision boundary
    /// the scheduler scores candidate futures (keep / shrink / grow /
    /// migrate / checkpoint-now) by predicted dynamic efficiency — forked
    /// from the job's live simulation where the backend supports it — and
    /// commits the winner (see [`crate::whatif`]). Recovery behaves like
    /// [`SchedulePolicy::ElasticRecovery`].
    WhatIf {
        /// Efficiency floor a candidate must clear to be preferred.
        min_efficiency: f64,
        /// Requeue delay after a job's first interruption.
        base_backoff: SimDuration,
        /// Ceiling on the exponentially growing backoff.
        max_backoff: SimDuration,
    },
}

impl SchedulePolicy {
    /// The efficiency floor allocations are resized against (`None` under
    /// [`SchedulePolicy::Rigid`], which never resizes).
    pub fn min_efficiency(&self) -> Option<f64> {
        match *self {
            SchedulePolicy::Rigid => None,
            SchedulePolicy::Malleable { min_efficiency }
            | SchedulePolicy::ElasticRecovery { min_efficiency, .. }
            | SchedulePolicy::WhatIf { min_efficiency, .. } => Some(min_efficiency),
        }
    }

    /// Smallest allocation a job requesting `request` nodes may start on.
    /// Under every policy but rigid jobs are *moldable*: they start on as
    /// little as half the request rather than wait for all of it.
    pub fn min_start(&self, request: u32) -> u32 {
        match self {
            SchedulePolicy::Rigid => request,
            _ => request.div_ceil(2),
        }
    }

    /// `(base, max)` of the requeue backoff under the policies that
    /// recover elastically — resuming from the last checkpoint instead of
    /// restarting from scratch; `None` otherwise.
    pub fn backoff(&self) -> Option<(SimDuration, SimDuration)> {
        match *self {
            SchedulePolicy::ElasticRecovery {
                base_backoff,
                max_backoff,
                ..
            }
            | SchedulePolicy::WhatIf {
                base_backoff,
                max_backoff,
                ..
            } => Some((base_backoff, max_backoff)),
            _ => None,
        }
    }
}

/// How a job left the server.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum JobOutcome {
    /// The job ran all its iterations.
    #[default]
    Completed,
    /// The job was rejected at admission or its workload failed (a typed
    /// simulation error while profiling); the server freed its nodes and
    /// kept serving the rest of the batch.
    Failed {
        /// Rendered [`dps_sim::SimError`] (or admission diagnostic).
        reason: String,
    },
}

impl JobOutcome {
    /// Whether this is a failure outcome.
    pub fn is_failed(&self) -> bool {
        matches!(self, JobOutcome::Failed { .. })
    }
}

/// Terminal record of one job (completed or failed).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobRecord {
    /// Job name.
    pub name: String,
    /// Time the job started executing.
    pub start: SimTime,
    /// Time the job completed (or failed).
    pub completion: SimTime,
    /// Node allocation actually granted for each executed iteration — the
    /// job's allocation trajectory under the policy. Restarted segments
    /// append to the trajectory.
    pub allocations: Vec<u32>,
    /// Times the job was interrupted by a fault and had to restart.
    pub restarts: u32,
    /// Work discarded by interruptions: completed iterations past the last
    /// usable checkpoint plus the in-flight fraction at the interrupt.
    pub lost_work: SimDuration,
    /// Extra wall time spent inside slowdown/degrade windows relative to
    /// the nominal iteration spans.
    pub degraded: SimDuration,
    /// Whether the job completed or failed (and why).
    pub outcome: JobOutcome,
}

/// Outcome of one server simulation.
#[derive(Clone, Debug, Default)]
pub struct ServerReport {
    /// Per-job terminal records (completed and failed) in completion order.
    pub jobs: Vec<JobRecord>,
    /// Completion time of the last job ([`SimTime::ZERO`] when no job ran).
    pub makespan: SimTime,
    /// Total node·seconds allocated to jobs.
    pub allocated_node_seconds: f64,
    /// Total serial work served (node·seconds of useful work).
    pub work_node_seconds: f64,
    /// Profile/score lookups the run served from its [`ProfileCache`]
    /// memo. Cumulative over the cache's lifetime when one cache is
    /// shared across runs.
    pub cache_hits: u64,
    /// Profile/score lookups that had to compute fresh entries.
    pub cache_misses: u64,
    /// Entries (profiles + memoized candidate scores) the cache held when
    /// the run finished.
    pub cache_entries: u64,
    /// Entries evicted to stay within the cache's fixed capacity.
    pub cache_evictions: u64,
}

impl ServerReport {
    /// Useful work over allocated capacity. Returns `0.0` for an empty
    /// report (no capacity was ever allocated).
    pub fn allocation_efficiency(&self) -> f64 {
        if self.allocated_node_seconds <= 0.0 {
            return 0.0;
        }
        self.work_node_seconds / self.allocated_node_seconds
    }

    /// The record of a job by name.
    pub fn job(&self, name: &str) -> Option<&JobRecord> {
        self.jobs.iter().find(|j| j.name == name)
    }

    /// Completion time of a job by name.
    pub fn completion_of(&self, name: &str) -> Option<SimTime> {
        self.job(name).map(|j| j.completion)
    }

    /// Start time of a job by name.
    pub fn start_of(&self, name: &str) -> Option<SimTime> {
        self.job(name).map(|j| j.start)
    }

    /// Total fault-induced restarts across all completed jobs.
    pub fn total_restarts(&self) -> u32 {
        self.jobs.iter().map(|j| j.restarts).sum()
    }

    /// Total work discarded by interruptions across all completed jobs.
    pub fn total_lost_work(&self) -> SimDuration {
        self.jobs
            .iter()
            .fold(SimDuration::ZERO, |acc, j| acc + j.lost_work)
    }

    /// Total degradation (extra wall time under slowdown/degrade windows)
    /// across all completed jobs.
    pub fn total_degraded(&self) -> SimDuration {
        self.jobs
            .iter()
            .fold(SimDuration::ZERO, |acc, j| acc + j.degraded)
    }

    /// Mean completion time over *completed* jobs (flow-time proxy for
    /// service rate). Returns `0.0` when no jobs completed — callers
    /// comparing policies on an empty workload see equal (not NaN) means.
    pub fn mean_completion_secs(&self) -> f64 {
        let done: Vec<f64> = self
            .jobs
            .iter()
            .filter(|j| !j.outcome.is_failed())
            .map(|j| j.completion.as_secs_f64())
            .collect();
        if done.is_empty() {
            return 0.0;
        }
        done.iter().sum::<f64>() / done.len() as f64
    }

    /// Number of jobs that failed (admission rejection or workload error)
    /// instead of completing.
    pub fn failed_jobs(&self) -> usize {
        self.jobs.iter().filter(|j| j.outcome.is_failed()).count()
    }

    /// Number of jobs that ran all their iterations.
    pub fn completed_jobs(&self) -> usize {
        self.jobs.len() - self.failed_jobs()
    }
}

#[derive(Clone, Debug)]
enum Ev {
    /// The job joins the waiting queue: on arrival, and again after the
    /// backoff of an elastic recovery.
    Enqueue(usize),
    PhaseEnd {
        job: usize,
        gen: u64,
    },
    /// Outage `i` of the fault plan fires.
    Fault(usize),
    /// A preempted node rejoins the free pool.
    Return(u32),
}

struct RunningJob {
    /// Identities of the nodes the job currently holds.
    held: Vec<u32>,
    phase: usize,
    gen: u64,
    iter_start: SimTime,
    iter_span: SimDuration,
    iter_work: SimDuration,
}

/// Per-job bookkeeping that survives interruptions.
#[derive(Default)]
struct JobState {
    restarts: u32,
    lost_work: SimDuration,
    degraded: SimDuration,
    /// Work of iterations completed and not discarded by a restart.
    done_work: SimDuration,
    /// Work completed since the last checkpoint boundary.
    since_ckpt: SimDuration,
    /// Iteration the next (re)start begins at.
    resume_phase: usize,
    /// Charge the checkpoint-read cost on the next start.
    pending_restart: bool,
    first_start: Option<SimTime>,
    allocations: Vec<u32>,
}

/// The cluster server simulation.
pub struct ClusterSim {
    total_nodes: u32,
    policy: SchedulePolicy,
}

impl ClusterSim {
    /// A server owning `total_nodes` under `policy`.
    pub fn new(total_nodes: u32, policy: SchedulePolicy) -> ClusterSim {
        assert!(total_nodes > 0);
        ClusterSim {
            total_nodes,
            policy,
        }
    }

    /// Simulates the submitted jobs to completion with a fresh profile
    /// cache.
    pub fn run(&self, jobs: &[Job]) -> ServerReport {
        self.run_with_cache(jobs, &mut ProfileCache::new())
    }

    /// Simulates the submitted jobs to completion, memoizing workload
    /// profiles in `cache` — callers comparing several policies over the
    /// same (simulator-backed) job set share one cache and pay for each
    /// engine run once.
    pub fn run_with_cache(&self, jobs: &[Job], cache: &mut ProfileCache) -> ServerReport {
        self.run_with_faults(jobs, &FaultPlan::none(), cache)
    }

    /// Simulates the submitted jobs under a [`FaultPlan`].
    ///
    /// Crashes remove nodes permanently; preemptions remove them until the
    /// outage's return time; slowdown/degrade windows stretch the
    /// iterations of jobs holding the struck nodes. A fault on a held node
    /// interrupts its job: the work since the last usable checkpoint (plus
    /// the in-flight fraction) is discarded, and the job re-enters the
    /// queue — immediately and from scratch under [`SchedulePolicy::Rigid`]
    /// and [`SchedulePolicy::Malleable`], from its last checkpoint after a
    /// capped exponential backoff under
    /// [`SchedulePolicy::ElasticRecovery`].
    ///
    /// An empty plan reproduces [`ClusterSim::run_with_cache`] exactly.
    /// Jobs that can never run again (e.g. every node crashed) are absent
    /// from the report.
    ///
    /// A job the server cannot admit (zero/oversized request, no phases)
    /// or whose workload errors while profiling gets a terminal
    /// [`JobOutcome::Failed`] record — its nodes return to the pool and
    /// the rest of the batch keeps running.
    pub fn run_with_faults(
        &self,
        jobs: &[Job],
        plan: &FaultPlan,
        cache: &mut ProfileCache,
    ) -> ServerReport {
        let mut report = ServerReport::default();
        let mut q: EventQueue<Ev> = EventQueue::new();
        for (i, j) in jobs.iter().enumerate() {
            let reason = if j.requested_nodes < 1 || j.requested_nodes > self.total_nodes {
                Some(format!(
                    "rejected at admission: requests {} of {} nodes",
                    j.requested_nodes, self.total_nodes
                ))
            } else if j.requested_nodes > j.workload.max_nodes() {
                Some(format!(
                    "rejected at admission: requests {} nodes but the workload supports at most {}",
                    j.requested_nodes,
                    j.workload.max_nodes()
                ))
            } else if j.workload.iterations() < 1 {
                Some("rejected at admission: the workload has no phases".to_string())
            } else {
                None
            };
            let Some(reason) = reason else {
                q.schedule(j.arrival, Ev::Enqueue(i));
                continue;
            };
            report.jobs.push(JobRecord {
                name: j.name.clone(),
                start: j.arrival,
                completion: j.arrival,
                allocations: Vec::new(),
                restarts: 0,
                lost_work: SimDuration::ZERO,
                degraded: SimDuration::ZERO,
                outcome: JobOutcome::Failed { reason },
            });
        }
        let pricing = FaultPricing::new(plan);
        let outages = plan.outages();
        let ckpt = plan.checkpoint;
        let backoff = self.policy.backoff();
        let elastic = backoff.is_some();
        for (i, o) in outages.iter().enumerate() {
            q.schedule(o.at, Ev::Fault(i));
        }
        // One cell holding every node; holders are job indices.
        let mut pool = NodePool::new(self.total_nodes, 1);
        let mut waiting: VecDeque<usize> = VecDeque::new();
        let mut running: Vec<Option<RunningJob>> = jobs.iter().map(|_| None).collect();
        let mut st: Vec<JobState> = jobs.iter().map(|_| JobState::default()).collect();
        #[allow(unused_assignments)]
        let mut now = SimTime::ZERO;
        let mut gen_counter = 0u64;

        // Records a job's terminal outcome: completed, or failed because
        // its workload errored. The caller has already returned the job's
        // nodes to the pool; the batch keeps running.
        macro_rules! finish_job {
            ($idx:expr, $outcome:expr) => {{
                let s = &mut st[$idx];
                report.jobs.push(JobRecord {
                    name: jobs[$idx].name.clone(),
                    start: s.first_start.unwrap_or(now),
                    completion: now,
                    allocations: std::mem::take(&mut s.allocations),
                    restarts: s.restarts,
                    lost_work: s.lost_work,
                    degraded: s.degraded,
                    outcome: $outcome,
                });
                report.makespan = report.makespan.max(now);
            }};
        }
        let failed = |e: dps_sim::SimError| JobOutcome::Failed {
            reason: e.to_string(),
        };

        // Starts any waiting jobs that now fit, in FCFS order. Requests are
        // capped at the surviving capacity so jobs stay schedulable after
        // crashes.
        macro_rules! start_waiting {
            () => {
                while let Some(&idx) = waiting.front() {
                    let req = jobs[idx].requested_nodes.min(pool.max_alive());
                    if req == 0 {
                        break;
                    }
                    if self.policy.min_start(req) > pool.free_in(0) {
                        break;
                    }
                    let grant = req.min(pool.free_in(0));
                    waiting.pop_front();
                    let mut held = Vec::new();
                    pool.grant(0, grant, idx as u32, &mut held);
                    gen_counter += 1;
                    let s = &mut st[idx];
                    let phase0 = s.resume_phase;
                    let restart_cost = if s.pending_restart {
                        ckpt.restart_cost
                    } else {
                        SimDuration::ZERO
                    };
                    s.pending_restart = false;
                    let point = match cache.point(&*jobs[idx].workload, grant, phase0) {
                        Ok(p) => p,
                        Err(e) => {
                            pool.release_all(&mut held);
                            finish_job!(idx, failed(e));
                            continue;
                        }
                    };
                    let (span, extra) =
                        pricing.span(&held, point.span, point.cpu_work, now, phase0, restart_cost);
                    s.degraded += extra;
                    if s.first_start.is_none() {
                        s.first_start = Some(now);
                    }
                    s.allocations.push(grant);
                    q.schedule(
                        now + span,
                        Ev::PhaseEnd {
                            job: idx,
                            gen: gen_counter,
                        },
                    );
                    report.allocated_node_seconds += grant as f64 * span.as_secs_f64();
                    report.work_node_seconds += point.cpu_work.as_secs_f64();
                    running[idx] = Some(RunningJob {
                        held,
                        phase: phase0,
                        gen: gen_counter,
                        iter_start: now,
                        iter_span: span,
                        iter_work: point.cpu_work,
                    });
                }
            };
        }

        while let Some((t, ev)) = q.pop() {
            now = t;
            match ev {
                Ev::Enqueue(idx) => {
                    waiting.push_back(idx);
                    start_waiting!();
                }
                Ev::PhaseEnd { job, gen } => {
                    let stale = running[job].as_ref().is_none_or(|rj| rj.gen != gen);
                    if stale {
                        continue;
                    }
                    let rj = running[job].as_mut().expect("job running");
                    let completed = rj.phase;
                    rj.phase += 1;
                    st[job].done_work += rj.iter_work;
                    st[job].since_ckpt += rj.iter_work;
                    if ckpt.checkpoints_after(completed) {
                        st[job].since_ckpt = SimDuration::ZERO;
                    }
                    if rj.phase == jobs[job].workload.iterations() {
                        // Job done: free everything.
                        let mut done = running[job].take().expect("job running");
                        pool.release_all(&mut done.held);
                        finish_job!(job, JobOutcome::Completed);
                        start_waiting!();
                        continue;
                    }
                    // Next iteration: resize at the boundary to the largest
                    // allocation (up to the request and what is available)
                    // whose predicted efficiency clears the policy's floor —
                    // so jobs both release wasted nodes and grow back when
                    // capacity frees up.
                    let w = &*jobs[job].workload;
                    let iter = rj.phase;
                    let nodes = rj.held.len() as u32;
                    let cap = jobs[job]
                        .requested_nodes
                        .min(nodes + pool.free_in(0))
                        .min(w.max_nodes());
                    let next = match self.policy.min_efficiency() {
                        None => Ok(cap),
                        Some(min_eff) => efficiency_target(cache, w, iter, cap, min_eff),
                    }
                    .and_then(|target| {
                        if target < nodes {
                            pool.shrink(&mut rj.held, target);
                        } else if target > nodes {
                            pool.grant(0, target - nodes, job as u32, &mut rj.held);
                        }
                        st[job].allocations.push(target);
                        Ok((target, cache.point(w, target, iter)?))
                    });
                    let (target, point) = match next {
                        Ok(next) => next,
                        Err(e) => {
                            let mut rj = running[job].take().expect("job running");
                            pool.release_all(&mut rj.held);
                            finish_job!(job, failed(e));
                            start_waiting!();
                            continue;
                        }
                    };
                    let rj = running[job].as_mut().expect("job running");
                    let (span, extra) = pricing.span(
                        &rj.held,
                        point.span,
                        point.cpu_work,
                        now,
                        iter,
                        SimDuration::ZERO,
                    );
                    st[job].degraded += extra;
                    gen_counter += 1;
                    rj.gen = gen_counter;
                    rj.iter_start = now;
                    rj.iter_span = span;
                    rj.iter_work = point.cpu_work;
                    report.allocated_node_seconds += target as f64 * span.as_secs_f64();
                    report.work_node_seconds += point.cpu_work.as_secs_f64();
                    q.schedule(
                        now + span,
                        Ev::PhaseEnd {
                            job,
                            gen: gen_counter,
                        },
                    );
                    start_waiting!();
                }
                Ev::Fault(i) => {
                    let o = &outages[i];
                    match pool.strike(o.node, o.returns.is_none()) {
                        Strike::Ignored => continue,
                        Strike::Idle => {}
                        Strike::Held(job) => {
                            // Interrupt the holder: refund the unfinished part
                            // of the iteration and the work that will replay,
                            // then requeue the job per policy.
                            let job = job as usize;
                            let mut rj = running[job].take().expect("holder is running");
                            let s = &mut st[job];
                            let elapsed = now - rj.iter_start;
                            let remaining = rj.iter_span.saturating_sub(elapsed);
                            report.allocated_node_seconds -=
                                rj.held.len() as f64 * remaining.as_secs_f64();
                            let partial = if rj.iter_span.is_zero() {
                                SimDuration::ZERO
                            } else {
                                rj.iter_work
                                    .mul_f64(elapsed.as_secs_f64() / rj.iter_span.as_secs_f64())
                            };
                            let replay = if elastic { s.since_ckpt } else { s.done_work };
                            report.work_node_seconds -= (replay + rj.iter_work).as_secs_f64();
                            s.lost_work += replay + partial;
                            s.restarts += 1;
                            s.done_work -= replay;
                            s.since_ckpt = SimDuration::ZERO;
                            s.resume_phase = if elastic {
                                ckpt.resume_point(rj.phase)
                            } else {
                                0
                            };
                            s.pending_restart = elastic && s.resume_phase > 0;
                            // Surviving nodes return to the pool; the struck
                            // one does not.
                            pool.release_all(&mut rj.held);
                            match backoff {
                                Some((base, max)) => q.schedule(
                                    now + capped_backoff(base, max, s.restarts - 1),
                                    Ev::Enqueue(job),
                                ),
                                None => waiting.push_back(job),
                            }
                        }
                    }
                    if let Some(at) = o.returns {
                        q.schedule(at, Ev::Return(o.node));
                    }
                    start_waiting!();
                }
                Ev::Return(node) => {
                    if pool.rejoin(node) {
                        start_waiting!();
                    }
                }
            }
        }
        report.jobs.sort_by_key(|j| j.completion);
        report.cache_hits = cache.hits();
        report.cache_misses = cache.misses();
        report.cache_entries = (cache.len() + cache.scores_len()) as u64;
        report.cache_evictions = cache.evictions();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faults::CheckpointSpec;

    fn lu_job(name: &str, arrival_s: u64, nodes: u32) -> Job {
        Job::from_phases(
            name,
            SimTime(arrival_s * 1_000_000_000),
            nodes,
            lu_like_job(SimDuration::from_secs(400), 8),
        )
    }

    #[test]
    fn single_job_runs_to_completion() {
        let sim = ClusterSim::new(8, SchedulePolicy::Rigid);
        let r = sim.run(&[lu_job("a", 0, 8)]);
        assert_eq!(r.jobs.len(), 1);
        assert!(r.makespan > SimTime::ZERO);
        // 400s of work on 8 nodes: at least 50s, at most 400s.
        let t = r.makespan.as_secs_f64();
        assert!((50.0..400.0).contains(&t), "makespan {t}");
        // Rigid: every iteration ran on the full request.
        assert_eq!(r.jobs[0].allocations, vec![8; 8]);
    }

    #[test]
    fn rigid_jobs_queue_for_nodes() {
        let sim = ClusterSim::new(8, SchedulePolicy::Rigid);
        let r = sim.run(&[lu_job("a", 0, 8), lu_job("b", 1, 8)]);
        let ca = r.completion_of("a").unwrap();
        assert!(
            r.start_of("b").unwrap() >= ca,
            "b must wait for a's full allocation"
        );
    }

    #[test]
    fn malleable_improves_mean_completion_under_contention() {
        // Two 8-node LU jobs arriving close together on an 8-node cluster:
        // the malleable policy lets job b start on the nodes a releases as
        // its iterations shrink.
        let jobs = [lu_job("a", 0, 8), lu_job("b", 1, 8)];
        let rigid = ClusterSim::new(8, SchedulePolicy::Rigid).run(&jobs);
        let mall = ClusterSim::new(
            8,
            SchedulePolicy::Malleable {
                min_efficiency: 0.5,
            },
        )
        .run(&jobs);
        // b can only start after a finishes in the rigid case...
        assert!(
            mall.start_of("b").unwrap() < rigid.start_of("b").unwrap(),
            "malleable must start b earlier"
        );
        assert!(
            mall.mean_completion_secs() < rigid.mean_completion_secs(),
            "malleable mean completion {:.1}s !< rigid {:.1}s",
            mall.mean_completion_secs(),
            rigid.mean_completion_secs()
        );
        // ...and capacity is used more efficiently.
        assert!(mall.allocation_efficiency() > rigid.allocation_efficiency());
    }

    #[test]
    fn malleable_never_starves_a_job_to_zero_nodes() {
        let sim = ClusterSim::new(
            4,
            SchedulePolicy::Malleable {
                min_efficiency: 0.99,
            },
        );
        let r = sim.run(&[lu_job("a", 0, 4)]);
        assert_eq!(r.jobs.len(), 1, "job finishes even at brutal thresholds");
        assert!(r.jobs[0].allocations.iter().all(|&n| n >= 1));
    }

    #[test]
    fn empty_workload_yields_empty_but_finite_report() {
        let sim = ClusterSim::new(8, SchedulePolicy::Rigid);
        let r = sim.run(&[]);
        assert!(r.jobs.is_empty());
        assert_eq!(r.makespan, SimTime::ZERO);
        // Aggregate accessors must stay finite (no 0/0 NaNs) on an empty
        // job list.
        assert_eq!(r.mean_completion_secs(), 0.0);
        assert_eq!(r.allocation_efficiency(), 0.0);
        assert_eq!(r.completion_of("nope"), None);
        assert_eq!(r.start_of("nope"), None);
    }

    #[test]
    fn aggregate_accessors_survive_zero_denominators() {
        // A hand-built report with zero allocated capacity must not divide
        // by zero even with job records present.
        let r = ServerReport {
            jobs: vec![JobRecord {
                name: "a".into(),
                start: SimTime::ZERO,
                completion: SimTime::ZERO,
                allocations: Vec::new(),
                restarts: 0,
                lost_work: SimDuration::ZERO,
                degraded: SimDuration::ZERO,
                outcome: JobOutcome::Completed,
            }],
            makespan: SimTime::ZERO,
            allocated_node_seconds: 0.0,
            work_node_seconds: 0.0,
            ..ServerReport::default()
        };
        assert_eq!(r.allocation_efficiency(), 0.0);
        assert_eq!(r.mean_completion_secs(), 0.0);
        assert!(r.allocation_efficiency().is_finite());
    }

    /// A workload whose profile always fails with a typed error — stands in
    /// for a mis-wired DPS application that deadlocks under simulation.
    struct PoisonWorkload;

    impl Workload for PoisonWorkload {
        fn key(&self) -> String {
            "poison".into()
        }
        fn iterations(&self) -> usize {
            4
        }
        fn max_nodes(&self) -> u32 {
            u32::MAX
        }
        fn profile(&self, _nodes: u32) -> dps_sim::SimResult<crate::EfficiencyProfile> {
            Err(dps_sim::SimError::protocol("poisoned workload"))
        }
    }

    #[test]
    fn failed_workload_becomes_terminal_record_not_abort() {
        let sim = ClusterSim::new(8, SchedulePolicy::Rigid);
        let jobs = [
            lu_job("a", 0, 4),
            Job::new("bad", SimTime(2_000_000_000), 4, Box::new(PoisonWorkload)),
            lu_job("c", 3, 4),
        ];
        let r = sim.run(&jobs);
        assert_eq!(r.jobs.len(), 3, "every job gets a terminal record");
        assert_eq!(r.failed_jobs(), 1);
        assert_eq!(r.completed_jobs(), 2);
        let bad = r.job("bad").unwrap();
        assert!(bad.outcome.is_failed());
        let JobOutcome::Failed { reason } = &bad.outcome else {
            panic!("bad must fail");
        };
        assert!(reason.contains("poisoned workload"), "reason: {reason}");
        // The healthy jobs still run to completion, and the mean only
        // averages over them.
        assert!(!r.job("a").unwrap().outcome.is_failed());
        assert!(!r.job("c").unwrap().outcome.is_failed());
        assert!(r.mean_completion_secs() > 0.0);
    }

    #[test]
    fn inadmissible_job_is_rejected_not_panicked() {
        let sim = ClusterSim::new(4, SchedulePolicy::Rigid);
        // Requests more nodes than the server owns: rejected at admission,
        // while the rest of the batch runs normally.
        let r = sim.run(&[lu_job("big", 0, 16), lu_job("ok", 0, 4)]);
        assert_eq!(r.failed_jobs(), 1);
        let big = r.job("big").unwrap();
        let JobOutcome::Failed { reason } = &big.outcome else {
            panic!("big must be rejected");
        };
        assert!(reason.contains("admission"), "reason: {reason}");
        assert_eq!(big.completion, SimTime::ZERO);
        assert!(!r.job("ok").unwrap().outcome.is_failed());
    }

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
    fn deterministic_server_runs() {
        let p = SchedulePolicy::Malleable {
            min_efficiency: 0.6,
        };
        let mk = || [lu_job("a", 0, 6), lu_job("b", 3, 4), lu_job("c", 5, 2)];
        let r1 = ClusterSim::new(8, p).run(&mk());
        let r2 = ClusterSim::new(8, p).run(&mk());
        assert_eq!(r1.makespan, r2.makespan);
        assert_eq!(r1.jobs, r2.jobs);
    }

    #[test]
    fn shared_cache_is_reused_across_policies() {
        let mut cache = ProfileCache::new();
        let jobs = [lu_job("a", 0, 8)];
        ClusterSim::new(8, SchedulePolicy::Rigid).run_with_cache(&jobs, &mut cache);
        let after_rigid = cache.len();
        assert!(after_rigid >= 1);
        ClusterSim::new(8, SchedulePolicy::Rigid).run_with_cache(&jobs, &mut cache);
        assert_eq!(cache.len(), after_rigid, "second run hits the memo");
    }

    fn crash_plan(at_s: u64, node: u32) -> FaultPlan {
        use faults::{FaultEvent, FaultKind};
        FaultPlan::new(
            vec![FaultEvent {
                at: SimTime(at_s * 1_000_000_000),
                node,
                kind: FaultKind::NodeCrash,
            }],
            CheckpointSpec::none(),
        )
    }

    fn elastic(min_efficiency: f64) -> SchedulePolicy {
        SchedulePolicy::ElasticRecovery {
            min_efficiency,
            base_backoff: SimDuration::from_secs(2),
            max_backoff: SimDuration::from_secs(60),
        }
    }

    #[test]
    fn empty_plan_reproduces_the_fault_free_run() {
        for policy in [
            SchedulePolicy::Rigid,
            SchedulePolicy::Malleable {
                min_efficiency: 0.5,
            },
            elastic(0.5),
        ] {
            let jobs = [lu_job("a", 0, 6), lu_job("b", 3, 4)];
            let base = ClusterSim::new(8, policy).run(&jobs);
            let faulted = ClusterSim::new(8, policy).run_with_faults(
                &jobs,
                &FaultPlan::none(),
                &mut ProfileCache::new(),
            );
            assert_eq!(base.jobs, faulted.jobs);
            assert_eq!(base.makespan, faulted.makespan);
            assert_eq!(base.allocated_node_seconds, faulted.allocated_node_seconds);
            assert_eq!(base.work_node_seconds, faulted.work_node_seconds);
            assert_eq!(faulted.total_restarts(), 0);
            assert_eq!(faulted.total_lost_work(), SimDuration::ZERO);
        }
    }

    #[test]
    fn crash_on_a_held_node_restarts_the_job() {
        let jobs = [lu_job("a", 0, 4)];
        let quiet = ClusterSim::new(8, SchedulePolicy::Rigid).run(&jobs);
        // Strike node 0 (held by the only job) mid-run.
        let mid = quiet.makespan.as_secs_f64() as u64 / 2;
        let r = ClusterSim::new(8, SchedulePolicy::Rigid).run_with_faults(
            &jobs,
            &crash_plan(mid.max(1), 0),
            &mut ProfileCache::new(),
        );
        assert_eq!(r.jobs.len(), 1, "job still completes on surviving nodes");
        assert_eq!(r.jobs[0].restarts, 1);
        assert!(r.jobs[0].lost_work > SimDuration::ZERO);
        assert!(
            r.jobs[0].completion > quiet.jobs[0].completion,
            "replaying lost work delays completion"
        );
    }

    #[test]
    fn crash_on_a_free_node_only_shrinks_capacity() {
        let jobs = [lu_job("a", 0, 4)];
        let quiet = ClusterSim::new(8, SchedulePolicy::Rigid).run(&jobs);
        // Nodes 0..4 are held; node 7 is free for the whole run.
        let r = ClusterSim::new(8, SchedulePolicy::Rigid).run_with_faults(
            &jobs,
            &crash_plan(1, 7),
            &mut ProfileCache::new(),
        );
        assert_eq!(r.jobs, quiet.jobs, "the job never notices");
    }

    #[test]
    fn elastic_recovery_resumes_from_checkpoint_and_beats_full_restart() {
        use faults::{FaultEvent, FaultKind};
        // Checkpoint every iteration with tiny costs; crash after a couple
        // of iterations completed. The elastic policy replays only the
        // in-flight iteration, the malleable policy replays everything.
        let plan = FaultPlan::new(
            vec![FaultEvent {
                at: SimTime(100 * 1_000_000_000),
                node: 0,
                kind: FaultKind::NodeCrash,
            }],
            CheckpointSpec::every(
                1,
                SimDuration::from_millis(10),
                SimDuration::from_millis(10),
            ),
        );
        let jobs = || [lu_job("a", 0, 4)];
        let mall = ClusterSim::new(
            8,
            SchedulePolicy::Malleable {
                min_efficiency: 0.5,
            },
        )
        .run_with_faults(&jobs(), &plan, &mut ProfileCache::new());
        let el = ClusterSim::new(8, elastic(0.5)).run_with_faults(
            &jobs(),
            &plan,
            &mut ProfileCache::new(),
        );
        assert_eq!(mall.jobs.len(), 1);
        assert_eq!(el.jobs.len(), 1);
        assert_eq!(el.total_restarts(), 1);
        assert!(
            el.total_lost_work() < mall.total_lost_work(),
            "checkpoint resume loses less work ({:?} !< {:?})",
            el.total_lost_work(),
            mall.total_lost_work()
        );
        assert!(
            el.jobs[0].completion < mall.jobs[0].completion,
            "elastic recovery finishes earlier"
        );
    }

    #[test]
    fn preempted_node_returns_to_service() {
        use faults::{FaultEvent, FaultKind};
        // Preempt a free node across the whole horizon minus a bit: after
        // it returns, a waiting rigid job that needs all 4 nodes can start.
        let plan = FaultPlan::new(
            vec![FaultEvent {
                at: SimTime(1_000_000_000),
                node: 3,
                kind: FaultKind::NodePreempt {
                    return_after: SimDuration::from_secs(30),
                },
            }],
            CheckpointSpec::none(),
        );
        let jobs = [lu_job("a", 2, 4)];
        let r = ClusterSim::new(4, SchedulePolicy::Rigid).run_with_faults(
            &jobs,
            &plan,
            &mut ProfileCache::new(),
        );
        assert_eq!(r.jobs.len(), 1, "job runs once the node returns");
        // The rigid job could not start before the node returned at t=31.
        assert_eq!(r.jobs[0].start, SimTime(31 * 1_000_000_000));
        assert_eq!(r.jobs[0].restarts, 0);
    }

    #[test]
    fn slowdown_window_stretches_iterations_of_the_holder() {
        use faults::{FaultEvent, FaultKind};
        let jobs = || [lu_job("a", 0, 4)];
        let quiet = ClusterSim::new(8, SchedulePolicy::Rigid).run(&jobs());
        let plan = FaultPlan::new(
            vec![FaultEvent {
                at: SimTime::ZERO,
                node: 0,
                kind: FaultKind::NodeSlowdown {
                    factor: 0.5,
                    window: SimDuration::from_secs(1_000),
                },
            }],
            CheckpointSpec::none(),
        );
        let r = ClusterSim::new(8, SchedulePolicy::Rigid).run_with_faults(
            &jobs(),
            &plan,
            &mut ProfileCache::new(),
        );
        assert_eq!(r.jobs.len(), 1);
        assert_eq!(r.total_restarts(), 0, "a slowdown is not an interruption");
        assert!(r.jobs[0].degraded > SimDuration::ZERO);
        assert!(r.jobs[0].completion > quiet.jobs[0].completion);
        assert_eq!(
            r.jobs[0].completion,
            quiet.jobs[0].completion + r.jobs[0].degraded,
            "all extra wall time is accounted as degradation"
        );
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        use faults::FaultGenConfig;
        let cfg = FaultGenConfig {
            crashes: 1,
            preempts: 1,
            slowdowns: 2,
            degrades: 1,
            checkpoint: CheckpointSpec::every(
                2,
                SimDuration::from_millis(50),
                SimDuration::from_millis(100),
            ),
            ..FaultGenConfig::quiet(8, SimDuration::from_secs(300))
        };
        let plan = cfg.generate(7);
        let mk = || [lu_job("a", 0, 6), lu_job("b", 3, 4), lu_job("c", 5, 2)];
        let r1 = ClusterSim::new(8, elastic(0.5)).run_with_faults(
            &mk(),
            &plan,
            &mut ProfileCache::new(),
        );
        let r2 = ClusterSim::new(8, elastic(0.5)).run_with_faults(
            &mk(),
            &plan,
            &mut ProfileCache::new(),
        );
        assert_eq!(r1.jobs, r2.jobs);
        assert_eq!(r1.makespan, r2.makespan);
    }

    #[test]
    fn malleable_scheduling_wins_on_average_over_random_workloads() {
        use crate::workload::random_jobs;
        // Across several seeded workloads, the malleable policy must not
        // lose on mean completion time and must use capacity better.
        let mut wins = 0;
        let mut eff_wins = 0;
        const SEEDS: u64 = 8;
        for seed in 0..SEEDS {
            let jobs = random_jobs(8, 8, 1000 + seed);
            let rigid = ClusterSim::new(8, SchedulePolicy::Rigid).run(&jobs);
            let mall = ClusterSim::new(
                8,
                SchedulePolicy::Malleable {
                    min_efficiency: 0.5,
                },
            )
            .run(&jobs);
            assert_eq!(rigid.jobs.len(), 8);
            assert_eq!(mall.jobs.len(), 8);
            if mall.mean_completion_secs() <= rigid.mean_completion_secs() {
                wins += 1;
            }
            if mall.allocation_efficiency() >= rigid.allocation_efficiency() {
                eff_wins += 1;
            }
        }
        assert!(
            wins >= SEEDS - 2,
            "malleable lost mean completion on {} of {SEEDS} workloads",
            SEEDS - wins
        );
        assert!(
            eff_wins >= SEEDS - 1,
            "malleable lost allocation efficiency on {} of {SEEDS} workloads",
            SEEDS - eff_wins
        );
    }
}
