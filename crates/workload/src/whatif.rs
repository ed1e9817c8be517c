//! The live what-if session over a checkpointed LU run: fork-based
//! candidate scoring for the service's `SchedulePolicy::WhatIf`.
//!
//! [`WhatIfEvaluator`] implements [`cluster::WhatIfSession`] by keeping one
//! warm [`lu_app::LuCheckpoint`] per job — the job's *actual* allocation
//! history replayed as a removal plan — paused at the job's current
//! iteration barrier. Scoring a candidate forks the warm base
//! (`SimCheckpoint::fork`, copy-on-write), rewrites the fork's removal plan
//! to the candidate's future, and finishes only the divergent suffix: the
//! prefix is simulated **once per job**, not once per candidate, which is
//! where the fork-vs-fresh speedup comes from.
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
pub struct WhatIfEvaluator {
    base: LuCheckpoint,
    /// Last barrier successfully paused at (1-based; 0 = still at t=0).
    barrier: usize,
    /// The committed removal plan (the job's realized allocation history).
    committed: Vec<(usize, u32)>,
    /// Whether `committed` has been installed into the base coordinator
    /// (possible only once the coordinator has started, i.e. barrier ≥ 1).
    installed: bool,
    /// The base run completed before a requested barrier; the session is
    /// exhausted.
    finished: bool,
    /// Committed simulator steps spent in forked suffixes (the base's own
    /// steps are read off the checkpoint); together they are the session's
    /// deterministic cost, `steps_used`.
    fork_steps: u64,
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
        }
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
        Ok(true)
    }

    fn score_plan(&mut self, plan: &[(usize, u32)]) -> SimResult<EfficiencyProfile> {
        if self.barrier == 0 {
            return Err(SimError::protocol(
                "score_plan needs a prior advance_to_barrier",
            ));
        }
        let mut f = self.base.fork()?;
        // Entries at or before the current iteration are dropped by the
        // rewrite — they already executed in the shared prefix.
        f.set_removal_plan(plan.to_vec());
        let prefix = self.base.steps();
        let run = f.finish()?;
        // The fork inherits the base's committed prefix count; only the
        // divergent suffix is this decision's cost.
        self.fork_steps += run.report.steps.saturating_sub(prefix);
        Ok(profile_from_report(&run.report))
    }

    fn commit_plan(&mut self, plan: &[(usize, u32)]) -> SimResult<()> {
        self.committed = plan.to_vec();
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
        plans.push(vec![(b, start - 1)]); // shrink to one below
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
    use cluster::realized_suffix;

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
        // And the suffix scorer prices both identically.
        assert_eq!(
            realized_suffix(&forked, 4, &plan, 2),
            realized_suffix(&fresh, 4, &plan, 2),
        );
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
