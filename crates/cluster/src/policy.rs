//! Allocation policies: turning predicted dynamic-efficiency profiles into
//! thread-removal plans, and the scheduling policies of the cluster
//! service.
//!
//! This closes the loop the paper motivates: *simulate* the application
//! once, obtain its dynamic efficiency per iteration, and decide ahead of
//! time when nodes should be handed back to the cluster.

use crate::efficiency::EfficiencyProfile;
use desim::{SimDuration, SimTime};

/// Scheduling policy of a cluster server.
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

/// Release resources once predicted efficiency sinks below a threshold.
#[derive(Clone, Copy, Debug)]
pub struct ThresholdPolicy {
    /// Efficiency below which the allocation is considered wasteful.
    pub min_efficiency: f64,
    /// Fraction of the workers to release when the threshold trips
    /// (0.5 = the paper's "kill 4 of 8").
    pub release_fraction: f64,
}

impl Default for ThresholdPolicy {
    fn default() -> Self {
        ThresholdPolicy {
            min_efficiency: 0.4,
            release_fraction: 0.5,
        }
    }
}

/// Derives a removal plan `(after 1-based iteration, kill count)` from a
/// predicted profile at `workers` threads. Returns an empty plan when the
/// efficiency never drops below the threshold (or only does so on the very
/// last iteration, where releasing cannot pay off any more), and when fewer
/// than two workers leave none to release.
pub fn recommend_removal(
    profile: &EfficiencyProfile,
    workers: u32,
    policy: ThresholdPolicy,
) -> Vec<(usize, u32)> {
    assert!((0.0..=1.0).contains(&policy.release_fraction));
    if workers < 2 {
        return Vec::new();
    }
    let n_iters = profile.points.len();
    match profile.first_below(policy.min_efficiency) {
        // `first_below` is 0-based; removing *after* iteration i means the
        // plan entry (i, count) in the app's 1-based convention — releasing
        // right before the inefficient iteration starts.
        Some(i) if i > 0 && i < n_iters.saturating_sub(1) => {
            let kill = ((workers as f64) * policy.release_fraction).round() as u32;
            let kill = kill.clamp(1, workers - 1);
            vec![(i, kill)]
        }
        _ => Vec::new(),
    }
}

// ----- what-if circuit breaker ---------------------------------------------

/// Budget and trip/recovery parameters of the what-if [`CircuitBreaker`].
///
/// The budget is counted in *deterministic simulator steps* (the forked
/// engine's committed atomic steps), never host wall time — a breach is a
/// property of the run, not of the machine it happened to execute on, so
/// breaker-degraded runs stay byte-identical per seed.
#[derive(Clone, Copy, Debug)]
pub struct BreakerSpec {
    /// Committed engine steps one fork-scored decision may cost before it
    /// counts as a breach.
    pub max_steps_per_decision: u64,
    /// Consecutive breaches (or fork refusals) that trip the breaker open.
    pub trip_after: u32,
    /// Virtual-time cooldown an open breaker waits before letting one
    /// half-open probe through.
    pub cooldown: SimDuration,
}

impl Default for BreakerSpec {
    fn default() -> Self {
        BreakerSpec {
            max_steps_per_decision: 5_000_000,
            trip_after: 3,
            cooldown: SimDuration::from_secs(60),
        }
    }
}

/// The three breaker states, in the classic closed/open/half-open pattern.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: fork-based scoring allowed.
    Closed,
    /// Tripped: fork scoring suppressed, decisions fall back to
    /// profile-priced scoring until the cooldown elapses.
    Open,
    /// Cooldown elapsed: exactly one probe fork is in flight; its outcome
    /// recloses or re-opens the breaker.
    HalfOpen,
}

impl BreakerState {
    /// Stable integer code (journaled as a decision field).
    pub fn code(self) -> u32 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        }
    }

    /// Stable lowercase name (rendered in canonical report strings).
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// Counters a [`CircuitBreaker`] accumulates over a run; surfaced in the
/// service's canonical report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BreakerStats {
    /// Decisions that blew the step budget (or refused to fork).
    pub breaches: u64,
    /// Closed→Open transitions (including a failed probe re-opening).
    pub trips: u64,
    /// Open→HalfOpen probe grants.
    pub probes: u64,
    /// HalfOpen→Closed recoveries.
    pub recloses: u64,
    /// Decisions answered by the profile-priced fallback while open.
    pub fallback_decisions: u64,
}

/// Deterministic circuit breaker guarding an expensive (fork-based) scoring
/// path. Drive it with [`CircuitBreaker::allow_fork`] before each decision
/// and [`CircuitBreaker::record_ok`] / [`CircuitBreaker::record_breach`]
/// after; every transition is a pure function of the decision stream and
/// virtual time.
#[derive(Clone, Debug)]
pub struct CircuitBreaker {
    spec: BreakerSpec,
    state: BreakerState,
    /// Consecutive breaches while closed.
    consecutive: u32,
    /// Virtual instant the breaker last opened.
    opened_at: SimTime,
    stats: BreakerStats,
}

impl CircuitBreaker {
    /// A closed breaker with the given spec.
    pub fn new(spec: BreakerSpec) -> CircuitBreaker {
        CircuitBreaker {
            spec,
            state: BreakerState::Closed,
            consecutive: 0,
            opened_at: SimTime::ZERO,
            stats: BreakerStats::default(),
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// The spec the breaker was built with.
    pub fn spec(&self) -> &BreakerSpec {
        &self.spec
    }

    /// Accumulated counters.
    pub fn stats(&self) -> BreakerStats {
        self.stats
    }

    /// Asks whether a fork-scored decision may proceed at virtual time
    /// `now`. Returns `false` while open (counting a fallback decision);
    /// once the cooldown has elapsed the breaker moves to half-open and
    /// grants the probe. Returns the state change, if any.
    pub fn allow_fork(&mut self, now: SimTime) -> (bool, Option<BreakerState>) {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => (true, None),
            BreakerState::Open => {
                if now >= self.opened_at + self.spec.cooldown {
                    self.state = BreakerState::HalfOpen;
                    self.stats.probes += 1;
                    (true, Some(BreakerState::HalfOpen))
                } else {
                    self.stats.fallback_decisions += 1;
                    (false, None)
                }
            }
        }
    }

    /// Records a decision that stayed within budget. A half-open probe
    /// success recloses the breaker. Returns the state change, if any.
    pub fn record_ok(&mut self) -> Option<BreakerState> {
        self.consecutive = 0;
        match self.state {
            BreakerState::HalfOpen => {
                self.state = BreakerState::Closed;
                self.stats.recloses += 1;
                Some(BreakerState::Closed)
            }
            _ => None,
        }
    }

    /// Records a budget breach (or fork refusal) at virtual time `now`.
    /// Trips after `trip_after` consecutive breaches; a breached half-open
    /// probe re-opens immediately. Returns the state change, if any.
    pub fn record_breach(&mut self, now: SimTime) -> Option<BreakerState> {
        self.stats.breaches += 1;
        match self.state {
            BreakerState::Closed => {
                self.consecutive += 1;
                if self.consecutive >= self.spec.trip_after {
                    self.consecutive = 0;
                    self.state = BreakerState::Open;
                    self.opened_at = now;
                    self.stats.trips += 1;
                    Some(BreakerState::Open)
                } else {
                    None
                }
            }
            BreakerState::HalfOpen => {
                self.state = BreakerState::Open;
                self.opened_at = now;
                self.stats.trips += 1;
                Some(BreakerState::Open)
            }
            BreakerState::Open => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::efficiency::IterationPoint;
    use desim::SimDuration;

    fn profile(effs: &[f64]) -> EfficiencyProfile {
        EfficiencyProfile {
            points: effs
                .iter()
                .enumerate()
                .map(|(i, &e)| IterationPoint {
                    label: format!("iter:{}", i + 1),
                    span: SimDuration::from_secs(10),
                    cpu_work: SimDuration::from_secs_f64(40.0 * e),
                    efficiency: e,
                })
                .collect(),
        }
    }

    #[test]
    fn recommends_release_at_decay_point() {
        let p = profile(&[0.7, 0.6, 0.45, 0.3, 0.2, 0.1]);
        let plan = recommend_removal(&p, 8, ThresholdPolicy::default());
        // Efficiency first dips below 0.4 at iteration index 3 (0-based) →
        // release after 1-based iteration 3.
        assert_eq!(plan, vec![(3, 4)]);
    }

    #[test]
    fn no_release_when_always_efficient() {
        let p = profile(&[0.8, 0.75, 0.7]);
        assert!(recommend_removal(&p, 8, ThresholdPolicy::default()).is_empty());
    }

    #[test]
    fn no_release_on_first_or_last_iteration() {
        // Drop on the first iteration: removing "after iteration 0" is not
        // expressible (the app would simply request fewer nodes).
        let p = profile(&[0.2, 0.1, 0.05]);
        assert!(recommend_removal(&p, 8, ThresholdPolicy::default()).is_empty());
        // Drop only on the last: nothing left to save.
        let p = profile(&[0.9, 0.8, 0.1]);
        assert!(recommend_removal(&p, 8, ThresholdPolicy::default()).is_empty());
    }

    #[test]
    fn kill_count_respects_bounds() {
        let p = profile(&[0.9, 0.3, 0.2, 0.1]);
        let plan = recommend_removal(
            &p,
            2,
            ThresholdPolicy {
                min_efficiency: 0.4,
                release_fraction: 0.9,
            },
        );
        assert_eq!(plan, vec![(1, 1)], "cannot kill every worker");
    }

    #[test]
    fn fewer_than_two_workers_release_nothing() {
        let p = profile(&[0.9, 0.3, 0.2, 0.1]);
        for workers in [0, 1] {
            let plan = recommend_removal(&p, workers, ThresholdPolicy::default());
            assert!(plan.is_empty(), "{workers} workers: {plan:?}");
        }
    }

    fn breaker() -> CircuitBreaker {
        CircuitBreaker::new(BreakerSpec {
            max_steps_per_decision: 100,
            trip_after: 2,
            cooldown: SimDuration::from_secs(10),
        })
    }

    #[test]
    fn breaker_trips_after_consecutive_breaches_only() {
        let mut b = breaker();
        assert_eq!(b.record_breach(SimTime(1)), None);
        assert_eq!(b.record_ok(), None, "an ok resets the streak");
        assert_eq!(b.record_breach(SimTime(2)), None);
        assert_eq!(b.record_breach(SimTime(3)), Some(BreakerState::Open));
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.stats().trips, 1);
        assert_eq!(b.stats().breaches, 3);
    }

    #[test]
    fn open_breaker_falls_back_until_cooldown_then_probes() {
        let mut b = breaker();
        b.record_breach(SimTime(0));
        b.record_breach(SimTime(0));
        assert_eq!(b.state(), BreakerState::Open);
        // Before the cooldown: fallback, state unchanged.
        let (allowed, change) = b.allow_fork(SimTime(5_000_000_000));
        assert!(!allowed);
        assert_eq!(change, None);
        assert_eq!(b.stats().fallback_decisions, 1);
        // At the cooldown boundary: exactly one probe is granted.
        let (allowed, change) = b.allow_fork(SimTime(10_000_000_000));
        assert!(allowed);
        assert_eq!(change, Some(BreakerState::HalfOpen));
        assert_eq!(b.stats().probes, 1);
    }

    #[test]
    fn probe_outcome_recloses_or_reopens() {
        let mut b = breaker();
        b.record_breach(SimTime(0));
        b.record_breach(SimTime(0));
        b.allow_fork(SimTime(10_000_000_000));
        assert_eq!(b.record_ok(), Some(BreakerState::Closed));
        assert_eq!(b.stats().recloses, 1);
        // Trip again; this time the probe breaches and re-opens.
        b.record_breach(SimTime(20_000_000_000));
        b.record_breach(SimTime(20_000_000_000));
        b.allow_fork(SimTime(40_000_000_000));
        assert_eq!(
            b.record_breach(SimTime(40_000_000_000)),
            Some(BreakerState::Open)
        );
        assert_eq!(b.stats().trips, 3);
        // The cooldown restarts from the re-open instant.
        assert!(!b.allow_fork(SimTime(45_000_000_000)).0);
        assert!(b.allow_fork(SimTime(50_000_000_000)).0);
    }

    #[test]
    fn breaker_state_codes_and_names_are_stable() {
        assert_eq!(BreakerState::Closed.code(), 0);
        assert_eq!(BreakerState::Open.code(), 1);
        assert_eq!(BreakerState::HalfOpen.code(), 2);
        assert_eq!(BreakerState::Open.name(), "open");
        assert_eq!(BreakerState::HalfOpen.name(), "half-open");
    }
}
