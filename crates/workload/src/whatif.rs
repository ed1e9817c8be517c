//! The live what-if session over a checkpointed LU run: fork-based
//! candidate scoring for the service's `SchedulePolicy::WhatIf`.
//!
//! [`WhatIfEvaluator`] implements [`cluster::WhatIfSession`] by keeping one
//! warm [`lu_app::LuCheckpoint`] per job — the job's *actual* allocation
//! history replayed as a removal plan — paused at the job's current
//! iteration barrier. Scoring a candidate forks the warm base
//! (`SimCheckpoint::fork`, a deep copy of the paused engine), rewrites the
//! fork's removal plan to the candidate's future, and finishes only the
//! divergent suffix: the prefix is simulated **once per job**, and each
//! distinct future once per session, not once per candidate.
//!
//! The module also hosts [`fork_vs_fresh_bench`], the driver behind the
//! `benchmark/` package's `dps-sim.fork_vs_fresh` layer metric.

use std::time::Instant;

use cluster::{profile_from_report, EfficiencyProfile, WhatIfSession};
use dps_sim::{SimError, SimResult};
use lu_app::{predict_lu, LuCheckpoint, LuConfig};
use netmodel::NetParams;

use dps_sim::SimConfig;

/// A job's warm what-if session: a paused LU prediction run advanced
/// lazily to the job's current barrier, holding the removal plan the
/// scheduler has committed so far.
///
/// A fork before barrier `b` runs the **effective plan**: the committed
/// entries before `b` (the base fired them), then the candidate's from `b`
/// on. Runs depend only on the removals that fire, so a repeat is not forked.
pub struct WhatIfEvaluator {
    base: LuCheckpoint,
    /// Last barrier successfully paused at (1-based; 0 = still at t=0).
    barrier: usize,
    /// The committed removal plan (the job's realized allocation history).
    committed: Plan,
    /// Whether `committed` has been installed into the base coordinator
    /// (possible only once the coordinator has started, i.e. barrier ≥ 1).
    installed: bool,
    /// The base run completed before a requested barrier; the session is
    /// exhausted.
    finished: bool,
    /// Committed simulator steps of forked suffixes, remembered ones charged
    /// as forked (the base's own are read off the checkpoint); together
    /// they are the session's deterministic cost, `steps_used`.
    fork_steps: u64,
    /// Realized runs as `(effective plan, profile, total committed steps)`,
    /// only those whose past agrees with the committed plan's.
    realized: Vec<(Plan, EfficiencyProfile, u64)>,
}

type Plan = Vec<(usize, u32)>;

/// Rejects a plan `LuConfig::validate` would: iterations must start at 1
/// and increase (the coordinator only consults the head of its queue).
fn check_order(plan: &[(usize, u32)]) -> SimResult<()> {
    if plan.first().is_some_and(|e| e.0 == 0) || !plan.is_sorted_by(|a, b| a.0 < b.0) {
        return Err(SimError::protocol("removal plan out of iteration order"));
    }
    Ok(())
}

/// The entries of `plan` that fire before barrier `b`.
fn before(plan: &[(usize, u32)], b: usize) -> impl Iterator<Item = &(usize, u32)> {
    plan.iter().filter(move |e| e.0 < b)
}

impl WhatIfEvaluator {
    /// Wraps a run paused at virtual time zero.
    pub fn new(base: LuCheckpoint) -> WhatIfEvaluator {
        WhatIfEvaluator {
            base,
            barrier: 0,
            committed: Vec::new(),
            installed: false,
            finished: false,
            fork_steps: 0,
            realized: Vec::new(),
        }
    }

    /// What a fork at the current barrier with `plan` executes: the
    /// committed entries before the barrier, then `plan`'s from it on.
    fn effective(&self, plan: &[(usize, u32)]) -> Plan {
        let b = self.barrier;
        let from = plan.iter().filter(|e| e.0 >= b);
        before(&self.committed, b).chain(from).copied().collect()
    }

    /// Installs the committed plan into the base coordinator, pausing at
    /// barrier 1 first if the coordinator has not run yet (the rewrite
    /// needs live coordinator state). Returns `false` if the run finished
    /// before barrier 1.
    fn install(&mut self) -> SimResult<bool> {
        if self.installed || self.committed.is_empty() {
            self.installed = true;
            return Ok(true);
        }
        if self.barrier == 0 {
            if !self.base.pause_before_barrier(1)? {
                self.finished = true;
                return Ok(false);
            }
            self.barrier = 1;
        }
        self.base.set_removal_plan(self.committed.clone());
        self.installed = true;
        Ok(true)
    }
}

impl WhatIfSession for WhatIfEvaluator {
    fn advance_to_barrier(&mut self, barrier: usize) -> SimResult<bool> {
        if self.finished {
            return Ok(false);
        }
        if barrier == 0 {
            return Err(SimError::protocol("what-if barriers are 1-based"));
        }
        if barrier < self.barrier {
            return Err(SimError::protocol(format!(
                "what-if barriers must be monotone: at {}, asked for {barrier}",
                self.barrier
            )));
        }
        if barrier == self.barrier {
            // Already paused exactly there; re-running the pause predicate
            // would step past the barrier.
            return Ok(true);
        }
        // Install the committed plan before the base can run past its
        // earliest entry — removals must fire at their barriers for the
        // base to model the job's actual allocation.
        if !self.install()? {
            return Ok(false);
        }
        if barrier == self.barrier {
            return Ok(true);
        }
        if !self.base.pause_before_barrier(barrier)? {
            self.finished = true;
            return Ok(false);
        }
        self.barrier = barrier;
        // A run whose past differs from the base's is never asked for again.
        let committed = &self.committed;
        self.realized
            .retain(|(plan, ..)| before(plan, barrier).eq(before(committed, barrier)));
        Ok(true)
    }

    fn score_plan(&mut self, plan: &[(usize, u32)]) -> SimResult<EfficiencyProfile> {
        if self.barrier == 0 {
            return Err(SimError::protocol(
                "score_plan needs a prior advance_to_barrier",
            ));
        }
        check_order(plan)?;
        // A fork's report counts the committed prefix it inherits; only the
        // divergent suffix is this decision's cost.
        let prefix = self.base.steps();
        let key = self.effective(plan);
        if let Some((_, profile, steps)) = self.realized.iter().find(|r| r.0 == key) {
            self.fork_steps += steps.saturating_sub(prefix);
            return Ok(profile.clone());
        }
        let mut f = self.base.fork()?;
        // Entries before the current barrier are dropped by the rewrite —
        // they already executed in the shared prefix.
        f.set_removal_plan(plan.to_vec());
        let run = f.finish()?;
        self.fork_steps += run.report.steps.saturating_sub(prefix);
        let profile = profile_from_report(&run.report);
        self.realized.push((key, profile.clone(), run.report.steps));
        Ok(profile)
    }

    fn commit_plan(&mut self, plan: &[(usize, u32)]) -> SimResult<()> {
        check_order(plan)?;
        // The base's past cannot be rewritten, only its future.
        self.committed = self.effective(plan);
        if self.barrier >= 1 {
            self.base.set_removal_plan(self.committed.clone());
            self.installed = true;
        } else {
            self.installed = false;
        }
        Ok(())
    }

    fn steps_used(&self) -> u64 {
        self.base.steps() + self.fork_steps
    }
}

/// Result of [`fork_vs_fresh_bench`]: the same candidate evaluations
/// answered by forking one warm base versus fresh full runs.
#[derive(Clone, Copy, Debug, Default)]
pub struct ForkVsFresh {
    /// Candidate futures scored.
    pub candidates: usize,
    /// Wall seconds forking a shared warm base per decision barrier.
    pub forked_secs: f64,
    /// Wall seconds running every candidate as a fresh full simulation.
    pub fresh_secs: f64,
}

impl ForkVsFresh {
    /// Fresh-over-forked wall-clock ratio (the headline speedup).
    pub fn speedup(&self) -> f64 {
        if self.forked_secs > 0.0 {
            self.fresh_secs / self.forked_secs
        } else {
            0.0
        }
    }
}

/// Candidate shrink plans evaluated at 1-based barrier `b` of a
/// `start`-node job: the slate the service's boundary decision scores
/// (shrink to target, shrink to half, keep).
fn candidate_plans(start: u32, b: usize) -> Vec<Vec<(usize, u32)>> {
    let mut plans = vec![Vec::new()]; // keep
    if start > 1 {
        plans.push(vec![(b, start / 2)]); // shrink to half
        plans.push(vec![(b, start - 1)]); // shrink to one node
    }
    plans
}

/// Benchmarks fork-based candidate scoring against fresh full runs: one
/// warm checkpoint advanced barrier by barrier, scoring the boundary
/// slate at each, versus a `predict_lu` per candidate. Both paths execute
/// identical physics, so the ratio is pure prefix-sharing.
pub fn fork_vs_fresh_bench(
    cfg: &LuConfig,
    net: NetParams,
    simcfg: &SimConfig,
    barriers: &[usize],
) -> SimResult<ForkVsFresh> {
    let start = cfg.nodes;
    let mut out = ForkVsFresh::default();

    let t0 = Instant::now();
    let mut base = LuCheckpoint::start(cfg, net, simcfg)?;
    for &b in barriers {
        if !base.pause_before_barrier(b)? {
            break;
        }
        for plan in candidate_plans(start, b) {
            let mut f = base.fork()?;
            f.set_removal_plan(plan);
            f.finish()?;
            out.candidates += 1;
        }
    }
    out.forked_secs = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    for &b in barriers {
        for plan in candidate_plans(start, b) {
            let mut c = cfg.clone();
            c.removal = plan;
            predict_lu(&c, net, simcfg)?;
        }
    }
    out.fresh_secs = t1.elapsed().as_secs_f64();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::SimEnv;
    use cluster::IterationPoint;
    use desim::SimDuration;

    fn small_cfg(env: &SimEnv, nodes: u32) -> LuConfig {
        let mut c = env.lu_sized(324, 81, nodes);
        c.workers = nodes;
        c
    }

    #[test]
    fn fork_scores_match_fresh_runs() {
        let env = SimEnv::paper();
        let cfg = small_cfg(&env, 4);
        let mut sess =
            WhatIfEvaluator::new(LuCheckpoint::start(&cfg, env.net, &env.simcfg).unwrap());
        assert!(sess.advance_to_barrier(2).unwrap());
        let plan = vec![(2usize, 2u32)];
        let forked = sess.score_plan(&plan).unwrap();
        let mut fresh_cfg = cfg.clone();
        fresh_cfg.removal = plan.clone();
        let fresh =
            profile_from_report(&predict_lu(&fresh_cfg, env.net, &env.simcfg).unwrap().report);
        assert_eq!(forked.points.len(), fresh.points.len());
        for (a, b) in forked.points.iter().zip(&fresh.points) {
            assert_eq!(a.span, b.span, "{}", a.label);
            assert_eq!(a.cpu_work, b.cpu_work, "{}", a.label);
        }
    }

    #[test]
    fn committed_plans_install_lazily() {
        let env = SimEnv::paper();
        let cfg = small_cfg(&env, 4);
        // Commit before the coordinator ever ran: the plan must still fire
        // at its barrier once the session advances past it.
        let mut sess =
            WhatIfEvaluator::new(LuCheckpoint::start(&cfg, env.net, &env.simcfg).unwrap());
        let committed = vec![(1usize, 2u32)];
        sess.commit_plan(&committed).unwrap();
        assert!(sess.advance_to_barrier(3).unwrap());
        let forked = sess.score_plan(&committed).unwrap();
        let mut fresh_cfg = cfg.clone();
        fresh_cfg.removal = committed.clone();
        let fresh =
            profile_from_report(&predict_lu(&fresh_cfg, env.net, &env.simcfg).unwrap().report);
        for (a, b) in forked.points.iter().zip(&fresh.points) {
            assert_eq!(a.span, b.span, "{}", a.label);
        }
    }

    #[test]
    fn barriers_are_validated() {
        let env = SimEnv::paper();
        let cfg = small_cfg(&env, 2);
        let mut sess =
            WhatIfEvaluator::new(LuCheckpoint::start(&cfg, env.net, &env.simcfg).unwrap());
        assert!(sess.advance_to_barrier(0).is_err(), "barriers are 1-based");
        assert!(sess.score_plan(&[]).is_err(), "must advance first");
        assert!(sess.advance_to_barrier(2).unwrap());
        assert!(sess.advance_to_barrier(2).unwrap(), "re-pausing is a no-op");
        assert!(sess.advance_to_barrier(1).is_err(), "monotone barriers");
        // Plans are removal plans: iterations from 1, strictly increasing.
        assert!(sess.commit_plan(&[(0, 1)]).is_err());
        assert!(sess.commit_plan(&[(3, 1), (3, 1)]).is_err());
        assert!(sess.score_plan(&[(4, 1), (3, 1)]).is_err());
        // Past the end: the session reports exhaustion, not an error.
        assert!(!sess.advance_to_barrier(10_000).unwrap());
        assert!(!sess.advance_to_barrier(10_001).unwrap());
    }

    #[test]
    fn steps_used_counts_base_and_fork_work_deterministically() {
        let env = SimEnv::paper();
        let cfg = small_cfg(&env, 4);
        let run_once = || {
            let mut sess =
                WhatIfEvaluator::new(LuCheckpoint::start(&cfg, env.net, &env.simcfg).unwrap());
            assert_eq!(sess.steps_used(), 0, "no work before the first advance");
            assert!(sess.advance_to_barrier(2).unwrap());
            let after_advance = sess.steps_used();
            assert!(after_advance > 0, "advancing the base costs steps");
            sess.score_plan(&[(2usize, 2u32)]).unwrap();
            let after_score = sess.steps_used();
            assert!(after_score > after_advance, "forked suffixes cost steps");
            (after_advance, after_score)
        };
        // The breaker's budget metric must be a pure function of the run.
        assert_eq!(run_once(), run_once());
    }

    fn open(env: &SimEnv, cfg: &LuConfig) -> WhatIfEvaluator {
        WhatIfEvaluator::new(LuCheckpoint::start(cfg, env.net, &env.simcfg).unwrap())
    }

    /// Scores `plan`, returning the profile and the steps it charged.
    fn charged(sess: &mut WhatIfEvaluator, plan: &[(usize, u32)]) -> (EfficiencyProfile, u64) {
        let before = sess.steps_used();
        let profile = sess.score_plan(plan).unwrap();
        (profile, sess.steps_used() - before)
    }

    fn points(p: &EfficiencyProfile) -> Vec<(String, SimDuration, SimDuration, u64)> {
        let point =
            |q: &IterationPoint| (q.label.clone(), q.span, q.cpu_work, q.efficiency.to_bits());
        p.points.iter().map(point).collect()
    }

    /// `plan` scored at `barrier` by a session that committed `committed`
    /// at barrier 0 and advanced straight there: what a real fork answers.
    fn fresh_fork(
        env: &SimEnv,
        cfg: &LuConfig,
        committed: &[(usize, u32)],
        barrier: usize,
        plan: &[(usize, u32)],
    ) -> (EfficiencyProfile, u64) {
        let mut sess = open(env, cfg);
        sess.commit_plan(committed).unwrap();
        assert!(sess.advance_to_barrier(barrier).unwrap());
        charged(&mut sess, plan)
    }

    #[test]
    fn a_repeated_keep_is_answered_from_the_memo_as_a_fork_would() {
        let env = SimEnv::paper();
        let cfg = small_cfg(&env, 4);
        let mut sess = open(&env, &cfg);
        assert!(sess.advance_to_barrier(2).unwrap());
        charged(&mut sess, &[]);
        assert!(sess.advance_to_barrier(3).unwrap());
        let hit = charged(&mut sess, &[]);
        assert_eq!(sess.realized.len(), 1, "the second keep must not fork");
        let fresh = fresh_fork(&env, &cfg, &[], 3, &[]);
        assert_eq!((points(&hit.0), hit.1), (points(&fresh.0), fresh.1));
    }

    #[test]
    fn a_committed_shrink_is_answered_from_the_memo_as_a_fork_would() {
        let env = SimEnv::paper();
        let cfg = small_cfg(&env, 4);
        let plan = [(2usize, 2u32)];
        let mut sess = open(&env, &cfg);
        assert!(sess.advance_to_barrier(2).unwrap());
        charged(&mut sess, &plan);
        sess.commit_plan(&plan).unwrap();
        assert!(sess.advance_to_barrier(4).unwrap());
        let hit = charged(&mut sess, &plan);
        assert_eq!(sess.realized.len(), 1, "the committed future must not fork");
        let fresh = fresh_fork(&env, &cfg, &plan, 4, &plan);
        assert_eq!((points(&hit.0), hit.1), (points(&fresh.0), fresh.1));
    }

    #[test]
    fn an_uncommitted_past_entry_is_not_the_removal_run() {
        // Scored at barrier 2, `(2, 2)` removes two workers; asked for
        // again at barrier 3 without a commit, a fork drops the entry, so
        // the answer is the keep run — a memo keyed on the plan alone
        // would return the removal run.
        let env = SimEnv::paper();
        let cfg = small_cfg(&env, 4);
        let plan = [(2usize, 2u32)];
        let mut sess = open(&env, &cfg);
        assert!(sess.advance_to_barrier(2).unwrap());
        let removal = charged(&mut sess, &plan);
        assert!(sess.advance_to_barrier(3).unwrap());
        let again = charged(&mut sess, &plan);
        let fresh = fresh_fork(&env, &cfg, &[], 3, &plan);
        assert_eq!((points(&again.0), again.1), (points(&fresh.0), fresh.1));
        let ns = |p: &EfficiencyProfile| -> Vec<u64> {
            p.points[2..].iter().map(|q| q.span.as_nanos()).collect()
        };
        assert_eq!(ns(&again.0), [71_841_424, 10_154_159], "iterations 3-4");
        assert_eq!(ns(&removal.0), [86_732_900, 11_017_387], "iterations 3-4");
    }

    #[test]
    fn fork_beats_fresh_on_shared_prefixes() {
        let env = SimEnv::paper();
        let cfg = small_cfg(&env, 4);
        let k = cfg.k_blocks();
        let barriers: Vec<usize> = (1..k).collect();
        let r = fork_vs_fresh_bench(&cfg, env.net, &env.simcfg, &barriers).unwrap();
        assert!(r.candidates > 0);
        assert!(r.forked_secs > 0.0 && r.fresh_secs > 0.0);
        // Not asserting a ratio here (debug builds and CI noise); the bench
        // binary records the measured speedup.
    }
}
