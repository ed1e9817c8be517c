//! The circuit breaker around fork-based what-if scoring: a
//! closed/open/half-open state machine driven by the decision stream and
//! virtual time alone.

use desim::{SimDuration, SimTime};

/// Budget and trip/recovery parameters of the what-if circuit breaker.
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
pub(crate) enum BreakerState {
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
}

/// Counters the circuit breaker accumulates over a run; surfaced in the
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
/// and [`CircuitBreaker::record`] after; every transition is a pure
/// function of the decision stream and virtual time.
#[derive(Clone, Debug)]
pub(crate) struct CircuitBreaker {
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

    /// Records the fork a decision wanted at `now`: the steps it cost, or
    /// `None` when it could not be had. Within budget, a half-open probe
    /// recloses the breaker. Over budget or missing, it is a breach: the
    /// breaker trips after `trip_after` consecutive breaches, and a
    /// breached probe re-opens it at once. Returns the state change, if
    /// any.
    pub fn record(&mut self, now: SimTime, steps: Option<u64>) -> Option<BreakerState> {
        if steps.is_some_and(|s| s <= self.spec.max_steps_per_decision) {
            self.consecutive = 0;
            if self.state != BreakerState::HalfOpen {
                return None;
            }
            self.state = BreakerState::Closed;
            self.stats.recloses += 1;
            return Some(BreakerState::Closed);
        }
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
        assert_eq!(b.record(SimTime(1), None), None);
        let ok = b.record(SimTime(1), Some(100));
        assert_eq!(ok, None, "a fork within budget resets the streak");
        let over = b.record(SimTime(2), Some(101));
        assert_eq!(over, None, "a fork over budget is a breach");
        assert_eq!(b.record(SimTime(3), None), Some(BreakerState::Open));
        assert_eq!(b.state, BreakerState::Open);
        assert_eq!(b.stats().trips, 1);
        assert_eq!(b.stats().breaches, 3);
    }

    #[test]
    fn open_breaker_falls_back_until_cooldown_then_probes() {
        let mut b = breaker();
        b.record(SimTime(0), None);
        b.record(SimTime(0), None);
        assert_eq!(b.state, BreakerState::Open);
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
        b.record(SimTime(0), None);
        b.record(SimTime(0), None);
        b.allow_fork(SimTime(10_000_000_000));
        let ok = b.record(SimTime(10_000_000_000), Some(100));
        assert_eq!(ok, Some(BreakerState::Closed));
        assert_eq!(b.stats().recloses, 1);
        // Trip again; this time the probe breaches and re-opens.
        b.record(SimTime(20_000_000_000), None);
        b.record(SimTime(20_000_000_000), None);
        b.allow_fork(SimTime(40_000_000_000));
        assert_eq!(
            b.record(SimTime(40_000_000_000), None),
            Some(BreakerState::Open)
        );
        assert_eq!(b.stats().trips, 3);
        // The cooldown restarts from the re-open instant.
        assert!(!b.allow_fork(SimTime(45_000_000_000)).0);
        assert!(b.allow_fork(SimTime(50_000_000_000)).0);
    }

    #[test]
    fn breaker_state_codes_are_stable() {
        assert_eq!(BreakerState::Closed.code(), 0);
        assert_eq!(BreakerState::Open.code(), 1);
        assert_eq!(BreakerState::HalfOpen.code(), 2);
    }
}
