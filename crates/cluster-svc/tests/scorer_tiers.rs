//! Which tier scores each what-if candidate: analytic, the score memo, a
//! fork of the job's warm session, or a profile suffix. Each case serves
//! probe jobs whose sessions are fakes, and reads the tier counters off
//! the report.

use std::sync::{Arc, Mutex};

use cluster::*;
use cluster_svc::*;
use desim::{SimDuration, SimTime};
use dps_sim::{SimError, SimResult};
use faults::FaultPlan;

/// What a probe's backend does when asked for a session.
#[derive(Clone, Copy)]
enum Fork {
    /// It cannot fork: `whatif_session` returns `None`.
    None,
    /// Every fork succeeds.
    Ok,
    /// Sessions open, but every fork is refused.
    Refused,
}

/// What a probe's backend was asked.
#[derive(Default)]
struct Calls {
    /// `whatif_session` calls.
    opened: u32,
    /// Every `commit_plan`: the session's start allocation and the plan.
    commits: Vec<(u32, Vec<(usize, u32)>)>,
}

/// A workload whose iteration `k` does `iters[k].0` ms of work, a fraction
/// `iters[k].1` of it perfectly parallel. Its sessions are clones that
/// fork by recomputing the profile under the plan from `start` nodes.
#[derive(Clone)]
struct Probe {
    key: String,
    iters: Vec<(u64, f64)>,
    fork: Fork,
    calls: Arc<Mutex<Calls>>,
    start: u32,
}

impl Probe {
    /// The profile from `start` nodes under a removal plan.
    fn profile_under(&self, start: u32, plan: &[(usize, u32)]) -> EfficiencyProfile {
        let points = self.iters.iter().enumerate().map(|(k, &(work_ms, p))| {
            let removed: u32 = plan.iter().filter(|e| e.0 <= k).map(|e| e.1).sum();
            let n = f64::from(start.saturating_sub(removed).max(1));
            let work = SimDuration::from_millis(work_ms);
            let span = work.mul_f64((1.0 - p) + p / n);
            let efficiency = work.as_secs_f64() / (n * span.as_secs_f64());
            let label = format!("iter:{}", k + 1);
            IterationPoint {
                label,
                span,
                cpu_work: work,
                efficiency,
            }
        });
        EfficiencyProfile {
            points: points.collect(),
        }
    }
}

impl Workload for Probe {
    fn key(&self) -> String {
        self.key.clone()
    }
    fn iterations(&self) -> usize {
        self.iters.len()
    }
    fn max_nodes(&self) -> u32 {
        u32::MAX
    }
    fn profile(&self, nodes: u32) -> SimResult<EfficiencyProfile> {
        Ok(self.profile_under(nodes, &[]))
    }
    fn whatif_session(&self, start: u32) -> SimResult<Option<Box<dyn WhatIfSession>>> {
        self.calls.lock().unwrap().opened += 1;
        let session = Probe {
            start,
            ..self.clone()
        };
        Ok((!matches!(self.fork, Fork::None)).then(|| Box::new(session) as _))
    }
}

impl WhatIfSession for Probe {
    fn advance_to_barrier(&mut self, _barrier: usize) -> SimResult<bool> {
        Ok(true)
    }
    fn score_plan(&mut self, plan: &[(usize, u32)]) -> SimResult<EfficiencyProfile> {
        if !matches!(self.fork, Fork::Ok) {
            return Err(SimError::fork_refused("probe"));
        }
        Ok(self.profile_under(self.start, plan))
    }
    fn commit_plan(&mut self, plan: &[(usize, u32)]) -> SimResult<()> {
        let commit = (self.start, plan.to_vec());
        self.calls.lock().unwrap().commits.push(commit);
        Ok(())
    }
}

/// A probe job requesting `nodes` at time zero, and what its backend sees.
fn probe(key: &str, iters: &[(u64, f64)], fork: Fork, nodes: u32) -> (JobSpec, Arc<Mutex<Calls>>) {
    let calls = Arc::new(Mutex::new(Calls::default()));
    let w = Probe {
        key: key.into(),
        iters: iters.to_vec(),
        fork,
        calls: calls.clone(),
        start: 0,
    };
    (JobSpec::boxed(0, SimTime::ZERO, nodes, Arc::new(w)), calls)
}

/// Serves `jobs` to completion on one cell of `nodes` nodes under
/// what-if scheduling with an 0.8 efficiency floor.
fn serve(nodes: u32, jobs: Vec<JobSpec>) -> ServiceReport {
    let policy = SchedulePolicy::WhatIf {
        min_efficiency: 0.8,
        base_backoff: SimDuration::from_secs(1),
        max_backoff: SimDuration::from_secs(1),
    };
    let cfg = ServiceConfig::new(nodes, 1, 1, policy).with_tenant(TenantSpec::new("t", 1));
    let opts = ServeOptions::default();
    let r = ClusterService::new(cfg)
        .unwrap()
        .serve(jobs, &FaultPlan::none(), &opts);
    let r = r.unwrap().report;
    assert_eq!(r.completed_jobs(), r.submitted);
    r
}

/// `[decisions, candidates, analytic, profile, memo, fork, sessions
/// opened]`.
fn tiers(r: &ServiceReport) -> [u64; 7] {
    let w = r.whatif;
    let (a, p, m, f) = (
        w.analytic_scored,
        w.profile_scored,
        w.memo_scored,
        w.fork_scored,
    );
    [w.decisions, w.candidates, a, p, m, f, w.sessions_opened]
}

/// A perfectly parallel 1 s iteration: every allocation clears the floor,
/// so each slate is keep-all (the winner) versus half.
const PARALLEL: (u64, f64) = (1_000, 1.0);

#[test]
fn an_analytic_job_scores_every_candidate_in_closed_form() {
    let job = AnalyticJob {
        work: SimDuration::from_secs(4),
        parallel_first: 0.999,
        parallel_last: 0.999,
        iterations: 4,
    };
    let r = serve(8, vec![JobSpec::analytic(0, SimTime::ZERO, 8, job)]);
    // One placement and three boundaries, two candidates each.
    assert_eq!(tiers(&r), [4, 8, 8, 0, 0, 0, 0]);
}

#[test]
fn a_job_before_its_first_start_is_scored_from_the_profile_then_the_memo() {
    // One-iteration jobs decide only at placement, where nothing forks.
    let (a, calls) = probe("once", &[PARALLEL], Fork::Ok, 8);
    let (b, _) = probe("once", &[PARALLEL], Fork::Ok, 8);
    assert_eq!(tiers(&serve(8, vec![a, b])), [2, 4, 0, 2, 2, 0, 0]);
    assert_eq!(calls.lock().unwrap().opened, 0);
}

#[test]
fn a_forked_score_answers_the_same_barrier_and_plan_from_the_memo() {
    // The second job waits for the first's nodes, then meets the same
    // placement and the same barrier under the same (empty) plan.
    let (a, calls_a) = probe("twice", &[PARALLEL; 2], Fork::Ok, 8);
    let (b, calls_b) = probe("twice", &[PARALLEL; 2], Fork::Ok, 8);
    assert_eq!(tiers(&serve(8, vec![a, b])), [4, 8, 0, 2, 4, 2, 1]);
    assert_eq!(calls_a.lock().unwrap().opened, 1);
    assert_eq!(calls_b.lock().unwrap().opened, 0);
}

#[test]
fn a_refused_fork_falls_back_to_the_profile_for_good() {
    for (fork, opened) in [(Fork::None, 0), (Fork::Refused, 1)] {
        let (job, calls) = probe("refused", &[PARALLEL; 3], fork, 8);
        let r = serve(8, vec![job]);
        // Placement and two boundaries: the first boundary's keep
        // candidate asks for the one session, and every candidate is
        // priced from the profile.
        assert_eq!(tiers(&r), [3, 6, 0, 6, 0, 0, opened]);
        assert_eq!(calls.lock().unwrap().opened, 1);
    }
}

#[test]
fn the_33rd_session_evicts_the_oldest_which_reopens_with_its_plan() {
    // A 10 s parallel iteration, then serial ones: placement keeps both
    // requested nodes, and the first boundary forks and commits a shrink
    // to one node ("kill 1 after iteration 1"). Job 0 runs one serial
    // iteration more than the 32 others, so it alone meets a second
    // boundary, after the 33rd session evicted its own.
    let (parallel, serial) = ((10_000, 1.0), (1_000, 0.0));
    let (first, calls) = probe("job-0", &[parallel, serial, serial], Fork::Ok, 2);
    let (mut jobs, mut others) = (vec![first], Vec::new());
    for i in 1..33 {
        let (job, c) = probe(&format!("job-{i}"), &[parallel, serial], Fork::Ok, 2);
        jobs.push(job);
        others.push(c);
    }
    // 33 placements and 33 first boundaries of two candidates each, then
    // job 0's second boundary: keep its one node (forked in the reopened
    // session) or grow back to two (priced from the profile).
    assert_eq!(tiers(&serve(66, jobs)), [67, 134, 0, 67, 0, 67, 34]);
    let shrunk = (2, vec![(1, 1)]);
    let calls = calls.lock().unwrap();
    assert_eq!(calls.opened, 2);
    assert_eq!(calls.commits, [shrunk.clone(), shrunk.clone()]);
    for c in others {
        let c = c.lock().unwrap();
        assert_eq!((c.opened, &c.commits[..]), (1, &[shrunk.clone()][..]));
    }
}
