//! The scorer: everything the service asks of a job's workload.
//!
//! It prices iterations, finds efficiency targets and, under
//! [`SchedulePolicy::WhatIf`], takes the decisions: it builds the
//! candidate slate of a placement ([`Scorer::grant`]) or an iteration
//! boundary ([`Scorer::boundary`]) — keep the allocation, shrink to the
//! efficiency target, halve it, grow, migrate to another cell, or
//! checkpoint now — scores every candidate by predicted dynamic
//! efficiency over the job's remaining iterations (the paper's
//! `work / (nodes · span)`), journals the slate and commits the winner
//! ([`Scorer::decide`] is the one loop behind both).
//!
//! [`Scorer::score`] picks each candidate's tier. In order:
//!
//! 1. **analytic** — an [`AnalyticJob`]'s closed form;
//! 2. **fork memo** — the score of an earlier fork with the same
//!    fingerprint;
//! 3. **fork** — a real run of the candidate's removal plan, forked from
//!    the job's warm [`WhatIfSession`] at the current barrier;
//! 4. **profile memo**, then
//! 5. **profile** — the suffix of a memoized fixed-allocation profile.
//!
//! Steps 2 and 3 are tried only for a candidate that does not grow the
//! job, while the job never grew, migrated or restarted. A runaway fork
//! needs no budget of its own: the engine's `SimConfig::max_steps` fails
//! it with `BudgetExceeded`, which fails that one job.
//!
//! Each of the three memos answers one question. The [`ProfileCache`]:
//! what is this workload's profile at this allocation? The score memo:
//! what did this candidate score, keyed by a [`score_fingerprint`] of
//! workload, start allocation, committed removal plan, barrier and
//! candidate? The warm sessions: where does this job's next fork start?
//!
//! Workload code is tenant code: every call into it goes through
//! [`shielded`], so a panic there costs one job, never the service. The
//! scorer owns the profile cache, the score memo, the warm sessions, the
//! decision counters and each job's [`ScoreState`]; nothing else touches
//! them.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use cluster::{ProfileCache, WhatIfSession, Workload};
use desim::fxhash::FxHashMap;
use desim::{SimDuration, SimTime};
use dps_sim::{SimError, SimResult};
use faults::{CheckpointSpec, FaultPlan};

use crate::candidate::{realized_suffix, score_fingerprint, CandidateKind, CandidateScore};
use crate::config::{SchedulePolicy, ServiceConfig};
use crate::job::{AnalyticJob, Iteration, JobPayload};
use crate::journal::{decision, DecisionLog};
use crate::live::LiveJob;
use crate::report::{LatencyHist, ServiceReport, WhatIfStats};
use crate::rules::{capped_backoff, efficiency_target, NodePool};

/// Live what-if sessions kept warm at once (each holds a paused engine
/// run); the oldest-opened is dropped first and reopened on demand.
const MAX_SESSIONS: usize = 32;
/// Candidate scores the score memo holds: 16 for each of the 4096
/// profiles a [`ProfileCache`] holds.
const MEMO_CAPACITY: usize = 16 * 4096;
/// Score-fingerprint discriminant for fork-realized scores. Profile-suffix
/// scores use `CandidateKind::Keep as u32`; this tag keeps the two
/// semantics apart in the memo.
const FORK_TAG: u32 = 6;
/// Profiling-panic retries per phase schedule before the job fails.
const RETRY_MAX: u32 = 3;
/// Base of the profiling-retry exponential backoff (10 ms virtual).
const RETRY_BASE: SimDuration = SimDuration(10_000_000);
/// Cap of the profiling-retry backoff (1 s virtual).
const RETRY_CAP: SimDuration = SimDuration(1_000_000_000);
/// Bound (exclusive) on the deterministic retry jitter (1 ms virtual).
const RETRY_JITTER_NS: u64 = 1_000_000;

/// The score memo: fingerprint → candidate score, FIFO-bounded at
/// [`MEMO_CAPACITY`] like the profile cache, whose counters the report
/// adds these to.
#[derive(Default)]
struct ScoreMemo {
    map: FxHashMap<u64, CandidateScore>,
    order: VecDeque<u64>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl ScoreMemo {
    /// The memoized score of `fingerprint`, counted as a hit or a miss.
    fn get(&mut self, fingerprint: u64) -> Option<CandidateScore> {
        let found = self.map.get(&fingerprint).copied();
        match found {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        found
    }

    /// Memoizes a computed score, evicting the oldest once full.
    fn insert(&mut self, fingerprint: u64, score: CandidateScore) {
        if self.map.insert(fingerprint, score).is_none() {
            self.order.push_back(fingerprint);
            if self.map.len() > MEMO_CAPACITY {
                let oldest = self.order.pop_front().expect("scores tracked");
                self.map.remove(&oldest);
                self.evictions += 1;
            }
        }
    }
}

/// Why a call into a workload failed: a typed workload error is terminal;
/// a panic (already reported by the panic hook) is retryable.
enum ProfileError {
    Failed(SimError),
    Panicked,
}

impl ProfileError {
    /// The terminal error of a call that is not retried.
    fn terminal(self, what: &str) -> SimError {
        match self {
            ProfileError::Failed(e) => e,
            ProfileError::Panicked => SimError::protocol(format!("{what} panicked")),
        }
    }
}

/// The service's one panic shield: runs workload code, turning a panic
/// into a value.
fn shielded<T>(f: impl FnOnce() -> SimResult<T>) -> Result<T, ProfileError> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(ProfileError::Failed(e)),
        Err(_) => Err(ProfileError::Panicked),
    }
}

/// What the scorer remembers about one job.
#[derive(Default)]
pub(crate) struct ScoreState {
    /// Allocation of the job's first start — the baseline every committed
    /// removal-plan entry shrinks from.
    start_nodes: u32,
    /// Removal-plan entries committed so far (`(after, count)`, 1-based).
    plan: Vec<(usize, u32)>,
    /// Whether fork-based scoring is still exact for this job: true from
    /// its first start until it grows, migrates, restarts, or its backend
    /// refuses to fork.
    fork_ok: bool,
    /// Profiling-panic attempts for the iteration currently being priced
    /// (reset by the first successful profile point).
    panics: u32,
    /// An analytic job's latest iteration, so that pricing reuses what the
    /// boundary's efficiency target computed.
    iteration: Option<Iteration>,
}

impl ScoreState {
    /// Iteration `k` of the analytic job `a`, which this state belongs to.
    fn iteration(&mut self, a: &AnalyticJob, k: u32) -> Iteration {
        let it = match self.iteration {
            Some(it) if it.k == k => it,
            Some(it) => it.next(a, k),
            None => a.iteration(k),
        };
        self.iteration = Some(it);
        it
    }
}

/// What pricing a job's next iteration came to.
pub(crate) enum Priced {
    /// `(span, work)` on the job's current allocation.
    Point(SimDuration, SimDuration),
    /// The workload panicked: ask again after this backoff.
    Retry(SimDuration),
    /// The workload errored, or panicked once too often.
    Failed,
}

/// What a boundary decision commits.
#[derive(Clone, Copy, Debug)]
pub(crate) enum WhatIfAction {
    /// Run the next iteration on this many nodes in the current cell.
    Resize(u32),
    /// Checkpoint, move to `cell`, and restart there on `nodes`.
    Migrate { cell: u32, nodes: u32 },
    /// Keep the allocation and charge one extra checkpoint to the next
    /// iteration.
    Checkpoint,
}

/// One candidate future of a slate.
#[derive(Clone, Copy)]
struct Candidate {
    kind: CandidateKind,
    nodes: u32,
    cell: u32,
}

/// Adds a candidate unless the slate already holds its `(nodes, cell)`;
/// enumeration order breaks exact score ties.
fn propose(slate: &mut Vec<Candidate>, kind: CandidateKind, nodes: u32, cell: u32) {
    if !slate.iter().any(|c| c.nodes == nodes && c.cell == cell) {
        slate.push(Candidate { kind, nodes, cell });
    }
}

/// The candidates every slate opens with, for a job on (or offered) `n`
/// nodes in `cell`: keep them, shrink to the efficiency target, halve.
fn opening_slate(n: u32, target: u32, cell: u32) -> Vec<Candidate> {
    let mut slate = Vec::with_capacity(7);
    propose(&mut slate, CandidateKind::Keep, n, cell);
    let to_target = target.min(n).max(1);
    propose(&mut slate, CandidateKind::ShrinkTarget, to_target, cell);
    propose(&mut slate, CandidateKind::ShrinkHalf, (n / 2).max(1), cell);
    slate
}

pub(crate) struct Scorer {
    cache: ProfileCache,
    memo: ScoreMemo,
    /// Whether the policy is [`SchedulePolicy::WhatIf`]; otherwise
    /// placements take what is free and boundaries resize to the target.
    whatif: bool,
    min_eff: Option<f64>,
    ckpt: CheckpointSpec,
    /// Whether the fault plan can interrupt jobs (gates checkpoint-now).
    has_faults: bool,
    /// Warm per-job what-if sessions by job slot, in open order (FIFO
    /// eviction at [`MAX_SESSIONS`]).
    sessions: Vec<(u32, Box<dyn WhatIfSession>)>,
    stats: WhatIfStats,
    /// Host-measure decision latency
    /// ([`crate::ServeOptions::measure_decisions`]).
    measure: bool,
    decision_hist: LatencyHist,
    /// Profiling-panic retries granted so far.
    profile_retries: u64,
}

impl Scorer {
    pub fn new(cfg: &ServiceConfig, plan: &FaultPlan, measure: bool) -> Scorer {
        Scorer {
            cache: ProfileCache::new(),
            memo: ScoreMemo::default(),
            whatif: matches!(cfg.policy, SchedulePolicy::WhatIf { .. }),
            min_eff: cfg.policy.min_efficiency(),
            ckpt: plan.checkpoint,
            has_faults: !plan.outages().is_empty(),
            sessions: Vec::new(),
            stats: WhatIfStats::default(),
            measure,
            decision_hist: LatencyHist::new(),
            profile_retries: 0,
        }
    }

    /// Writes the cache, decision and retry counters into
    /// `report`; the cache counters sum the profile cache and the score
    /// memo.
    pub fn fill_report(self, report: &mut ServiceReport) {
        let (cache, memo) = (&self.cache, &self.memo);
        report.cache_hits = cache.hits() + memo.hits;
        report.cache_misses = cache.misses() + memo.misses;
        report.cache_entries = (cache.len() + memo.map.len()) as u64;
        report.cache_evictions = cache.evictions() + memo.evictions;
        report.whatif = self.stats;
        report.decision_hist = self.decision_hist;
        report.profile_retries = self.profile_retries;
    }

    // ----- pricing and targets ----------------------------------------------

    /// Prices the job's next iteration on its current allocation. A
    /// workload panic is retried after a capped exponential backoff with
    /// deterministic jitter, up to [`RETRY_MAX`] times per iteration.
    pub fn price(&mut self, job: &mut LiveJob) -> Priced {
        let (phase, n) = (job.phase, job.held.len() as u32);
        let point = match &job.payload {
            JobPayload::Analytic(a) => {
                let (span, work, _) = job.scoring.iteration(a, phase).point(n);
                Ok((span, work))
            }
            JobPayload::Boxed(w) => {
                let cache = &mut self.cache;
                shielded(|| cache.point(&**w, n, phase as usize)).map(|p| (p.span, p.cpu_work))
            }
        };
        let attempt = job.scoring.panics;
        match point {
            Ok((span, work)) => {
                job.scoring.panics = 0;
                Priced::Point(span, work)
            }
            Err(ProfileError::Panicked) if attempt < RETRY_MAX => {
                job.scoring.panics += 1;
                self.profile_retries += 1;
                // A mix of the job id and the attempt number: backoff
                // instants never depend on host state, yet jobs that
                // panicked at the same instant de-synchronize.
                let mut x = job.id.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ u64::from(attempt).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x ^= x >> 33;
                x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
                x ^= x >> 29;
                let jitter = SimDuration(x % RETRY_JITTER_NS);
                Priced::Retry(capped_backoff(RETRY_BASE, RETRY_CAP, attempt) + jitter)
            }
            Err(_) => Priced::Failed,
        }
    }

    /// Allocation the job's next iteration should run on (the malleable
    /// target), capped at `cap`.
    pub fn target(&mut self, job: &mut LiveJob, cap: u32) -> SimResult<u32> {
        let Some(min_eff) = self.min_eff else {
            return Ok(cap);
        };
        let phase = job.phase;
        match &job.payload {
            JobPayload::Analytic(a) => Ok(job.scoring.iteration(a, phase).target(min_eff, cap)),
            JobPayload::Boxed(w) => {
                let cache = &mut self.cache;
                shielded(|| efficiency_target(cache, &**w, phase as usize, cap, min_eff))
                    .map_err(|e| e.terminal("workload profile"))
            }
        }
    }

    // ----- job lifecycle ----------------------------------------------------

    /// The job starts for the first time, on `grant` nodes.
    pub fn started(&self, job: &mut LiveJob, grant: u32) {
        job.scoring.start_nodes = grant;
        job.scoring.fork_ok = self.whatif && matches!(job.payload, JobPayload::Boxed(_));
    }

    /// The job's forked future stopped being exact (it was interrupted —
    /// the live session does not model replay — or left its slot): drop
    /// its session and score from profiles from here on.
    pub fn forget(&mut self, slot: u32, job: &mut LiveJob) {
        self.sessions.retain(|s| s.0 != slot);
        job.scoring.fork_ok = false;
    }

    // ----- what-if decisions ------------------------------------------------

    /// Placement sizing, given the `full` allocation `cell` can offer.
    /// Under what-if: score granting it all against the efficiency target
    /// and a half grant, and return the winner. Falls back to the full
    /// grant if any candidate fails to score — the job then fails at start
    /// with the same error, deterministically, on its own slot.
    pub fn grant(
        &mut self,
        log: &mut DecisionLog,
        now: SimTime,
        slot: u32,
        job: &mut LiveJob,
        full: u32,
        cell: u32,
    ) -> u32 {
        if !self.whatif {
            return full;
        }
        let started = self.measure.then(Instant::now);
        let Ok(target) = self.target(job, full) else {
            return full;
        };
        // A job being placed holds no nodes and has no exact fork (before
        // its first start, or after a restart), so this scores
        // analytically or from profiles — no forking on the placement
        // path.
        let slate = opening_slate(full, target, cell);
        let Ok(win) = self.decide(log, now, slot, job, &slate) else {
            return full;
        };
        self.clock(started);
        win.nodes
    }

    /// The boundary decision for `job`, about to run iteration `job.phase`
    /// with in-place cap `cap`: resize to the efficiency target — or, under
    /// what-if, enumerate candidate futures, score each by predicted
    /// dynamic efficiency, journal the slate and commit the winner.
    pub fn boundary(
        &mut self,
        log: &mut DecisionLog,
        now: SimTime,
        slot: u32,
        job: &mut LiveJob,
        cap: u32,
        pool: &NodePool,
    ) -> SimResult<WhatIfAction> {
        let started = self.measure.then(Instant::now);
        let (n, cell) = (job.held.len() as u32, job.cell);
        let target = self.target(job, cap)?;
        if !self.whatif {
            return Ok(WhatIfAction::Resize(target));
        }
        let mut slate = opening_slate(n, target, cell);
        if cap > n {
            propose(&mut slate, CandidateKind::Grow, cap, cell);
            if target > n {
                propose(&mut slate, CandidateKind::Grow, target, cell);
            }
        }
        // Migration: the roomiest *other* cell, considered only when it
        // offers more than any in-place allocation can (`m > cap`, so
        // migration always grows).
        if let Some((to, free)) = pool.roomiest(Some(cell)) {
            let m = job.requested.min(free).min(job.payload.max_nodes());
            if m > cap {
                propose(&mut slate, CandidateKind::Migrate, m, to);
            }
        }
        // Checkpoint-now: only worth considering while faults can still
        // strike and the uncheckpointed work exceeds the checkpoint's own
        // cost. Always last, and never a duplicate of Keep.
        if self.has_faults
            && !self.ckpt.checkpoint_cost.is_zero()
            && job.since_ckpt > self.ckpt.checkpoint_cost
        {
            slate.push(Candidate {
                kind: CandidateKind::CheckpointNow,
                nodes: n,
                cell,
            });
        }
        let win = self.decide(log, now, slot, job, &slate)?;
        let action = match win.kind {
            CandidateKind::Keep => WhatIfAction::Resize(n),
            CandidateKind::ShrinkTarget | CandidateKind::ShrinkHalf => {
                self.commit_shrink(slot, job, n - win.nodes);
                WhatIfAction::Resize(win.nodes)
            }
            CandidateKind::Grow => {
                // The removal-plan language cannot express growth; from
                // here this job scores via profile suffixes.
                self.forget(slot, job);
                WhatIfAction::Resize(win.nodes)
            }
            CandidateKind::Migrate => {
                self.forget(slot, job);
                self.stats.migrations += 1;
                WhatIfAction::Migrate {
                    cell: win.cell,
                    nodes: win.nodes,
                }
            }
            CandidateKind::CheckpointNow => {
                self.stats.extra_checkpoints += 1;
                WhatIfAction::Checkpoint
            }
        };
        self.clock(started);
        Ok(action)
    }

    fn clock(&mut self, started: Option<Instant>) {
        if let Some(t0) = started {
            self.decision_hist.record(t0.elapsed().as_nanos() as u64);
        }
    }

    /// Scores `slate` for `job`, journals every candidate and the winner,
    /// and returns the winner: the first candidate no later one
    /// [`CandidateScore::beats`].
    fn decide(
        &mut self,
        log: &mut DecisionLog,
        now: SimTime,
        slot: u32,
        job: &mut LiveJob,
        slate: &[Candidate],
    ) -> SimResult<Candidate> {
        let min_eff = self.min_eff.unwrap_or(0.0);
        let mut scored: Vec<(Candidate, CandidateScore)> = Vec::with_capacity(slate.len());
        for &c in slate {
            let keep = scored.first().map(|&(_, s)| s);
            let s = self.score(slot, job, c, keep)?;
            scored.push((c, s));
        }
        let (tag, mut win) = (job.tag(), 0);
        for (i, &(c, s)) in scored.iter().enumerate() {
            log.record(now, decision::CANDIDATE, tag, c.cell, c.nodes, s.span_ns);
            if i > 0 && s.beats(&scored[win].1, min_eff) {
                win = i;
            }
        }
        let (c, _) = scored[win];
        let kind = c.kind as u32 as u64;
        log.record(now, decision::WHATIF, tag, c.cell, c.nodes, kind);
        self.stats.decisions += 1;
        self.stats.candidates += scored.len() as u64;
        Ok(c)
    }

    /// Scores candidate `c` for `job`: its remaining iterations from
    /// `job.phase` on `c.nodes` nodes, by the first tier that answers (see
    /// the module docs), plus what the move itself costs. `keep` is the
    /// slate's opening keep score, which checkpoint-now adjusts.
    fn score(
        &mut self,
        slot: u32,
        job: &mut LiveJob,
        c: Candidate,
        keep: Option<CandidateScore>,
    ) -> SimResult<CandidateScore> {
        let (m, n, from) = (c.nodes, job.held.len() as u32, job.phase as usize);
        let upfront = match c.kind {
            CandidateKind::CheckpointNow => {
                // Keep's future, plus one checkpoint next iteration, minus
                // the replay a future fault would no longer cost.
                let keep = keep.expect("keep opens every slate");
                let cost = self.ckpt.checkpoint_cost.as_nanos();
                return Ok(CandidateScore {
                    span_ns: keep
                        .span_ns
                        .saturating_add(cost)
                        .saturating_sub(job.since_ckpt.as_nanos()),
                    work_ns: keep.work_ns,
                    alloc_node_ns: keep.alloc_node_ns + u128::from(m) * u128::from(cost),
                });
            }
            // Migration pays its checkpoint + restart up front.
            CandidateKind::Migrate => {
                (self.ckpt.checkpoint_cost + self.ckpt.restart_cost).as_nanos()
            }
            _ => 0,
        };
        let mut s = 'tier: {
            let w = match &job.payload {
                JobPayload::Analytic(a) => {
                    self.stats.analytic_scored += 1;
                    break 'tier a.suffix_score(job.phase, m);
                }
                JobPayload::Boxed(w) => w.clone(),
            };
            if m <= n && job.scoring.fork_ok {
                let mut plan = job.scoring.plan.clone();
                if m < n {
                    plan.push((from, n - m));
                }
                let start = job.scoring.start_nodes;
                let fp = score_fingerprint(&w.key(), start, &plan, from, m, FORK_TAG);
                // Steps 2 and 3: the fork memo, then the fork.
                if let Some(s) = self.memo.get(fp) {
                    self.stats.memo_scored += 1;
                    break 'tier s;
                }
                if let Some(s) = self.fork(slot, job, &*w, &plan, fp)? {
                    break 'tier s;
                }
            }
            // Steps 4 and 5: the profile memo, then the profile.
            let fp = score_fingerprint(&w.key(), m, &[], from, m, CandidateKind::Keep as u32);
            if let Some(s) = self.memo.get(fp) {
                self.stats.memo_scored += 1;
                break 'tier s;
            }
            let cache = &mut self.cache;
            let s = shielded(|| Ok(realized_suffix(cache.profile(&*w, m)?, m, &[], from)))
                .map_err(|e| e.terminal("workload profile"))?;
            self.memo.insert(fp, s);
            self.stats.profile_scored += 1;
            s
        };
        s.span_ns = s.span_ns.saturating_add(upfront);
        s.alloc_node_ns += u128::from(m) * u128::from(upfront);
        Ok(s)
    }

    /// Forks the job's warm session at the current barrier and runs `plan`
    /// for real, memoizing the score under `fp`. `None` when forking is
    /// unavailable: the backend refused, the run already finished, or no
    /// session could be opened.
    fn fork(
        &mut self,
        slot: u32,
        job: &mut LiveJob,
        w: &dyn Workload,
        plan: &[(usize, u32)],
        fp: u64,
    ) -> SimResult<Option<CandidateScore>> {
        let Some(i) = self.session(slot, job, w) else {
            return Ok(None);
        };
        let (barrier, sess) = (job.phase as usize, &mut self.sessions[i].1);
        let realized = shielded(|| {
            if !sess.advance_to_barrier(barrier)? {
                return Ok(None);
            }
            Ok(Some(sess.score_plan(plan)?))
        });
        if let Ok(Some(profile)) = realized {
            let score = realized_suffix(&profile, job.scoring.start_nodes, plan, barrier);
            self.memo.insert(fp, score);
            self.stats.fork_scored += 1;
            return Ok(Some(score));
        }
        // The session is spent or broken either way.
        self.sessions.remove(i);
        match realized {
            // The warm base finished the whole run first (nothing left to
            // fork for this job, ever), or the backend refused.
            Ok(_) => job.scoring.fork_ok = false,
            Err(ProfileError::Failed(e)) if e.is_fork_refused() => job.scoring.fork_ok = false,
            Err(e) => return Err(e.terminal("what-if session")),
        }
        Ok(None)
    }

    /// Records a committed shrink in the job's removal plan and re-commits
    /// the full plan into its live session so future forks inherit it. A
    /// session that errors here degrades the job to profile scoring — a
    /// bookkeeping fork must never fail the job.
    fn commit_shrink(&mut self, slot: u32, job: &mut LiveJob, count: u32) {
        if !job.scoring.fork_ok {
            return;
        }
        job.scoring.plan.push((job.phase as usize, count));
        let Some(i) = self.warm(slot) else {
            return; // reopened lazily with the full plan on the next fork
        };
        let (sess, plan) = (&mut self.sessions[i].1, &job.scoring.plan);
        if shielded(|| sess.commit_plan(plan)).is_err() {
            self.sessions.remove(i);
            job.scoring.fork_ok = false;
        }
    }

    /// Index of `slot`'s warm session, if it has one.
    fn warm(&self, slot: u32) -> Option<usize> {
        self.sessions.iter().position(|s| s.0 == slot)
    }

    /// Index of `slot`'s warm session, opening it — with the job's removal
    /// plan so far committed — when there is none, and FIFO-evicting the
    /// oldest at [`MAX_SESSIONS`]. `None` (and `scoring.fork_ok` cleared)
    /// when the backend cannot provide one.
    fn session(&mut self, slot: u32, job: &mut LiveJob, w: &dyn Workload) -> Option<usize> {
        if let Some(i) = self.warm(slot) {
            return Some(i);
        }
        let scoring = &job.scoring;
        let opened = shielded(|| {
            let Some(mut s) = w.whatif_session(scoring.start_nodes)? else {
                return Ok(None);
            };
            if !scoring.plan.is_empty() {
                s.commit_plan(&scoring.plan)?;
            }
            Ok(Some(s))
        });
        let Ok(Some(s)) = opened else {
            job.scoring.fork_ok = false;
            return None;
        };
        if self.sessions.len() == MAX_SESSIONS {
            self.sessions.remove(0);
        }
        self.sessions.push((slot, s));
        self.stats.sessions_opened += 1;
        Some(self.sessions.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn score_memo_is_bounded_and_counts() {
        let mut memo = ScoreMemo::default();
        assert!(memo.get(7).is_none());
        let one = CandidateScore {
            span_ns: 1,
            work_ns: 1,
            alloc_node_ns: 1,
        };
        memo.insert(7, one);
        assert_eq!(memo.get(7), Some(one));
        assert_eq!((memo.hits, memo.misses), (1, 1));
        for fp in 100..100 + MEMO_CAPACITY as u64 {
            memo.insert(fp, CandidateScore::default());
        }
        assert_eq!((memo.map.len(), memo.evictions), (MEMO_CAPACITY, 1));
        // The earliest inserted fingerprint is the one gone.
        assert!(memo.get(7).is_none());
        assert!(memo.get(100).is_some());
    }
}
