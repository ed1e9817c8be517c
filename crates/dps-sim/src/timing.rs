//! Atomic-step timing: direct execution and partial direct execution.
//!
//! The engine runs an operation's Rust code once, splitting it into atomic
//! steps at every post (the paper's suspension points). Each step needs a
//! duration:
//!
//! * **Direct execution** ([`TimingMode::Measured`]) — the host wall-clock
//!   time of the step's code, measured with [`std::time::Instant`]. This is
//!   the paper's direct execution: accurate on the machine the application
//!   targets, non-portable elsewhere.
//! * **Partial direct execution** — any step that called
//!   `OpCtx::charge` uses the charged duration instead of the measurement;
//!   uncharged steps still fall back to measurement, so direct and modeled
//!   timing mix per atomic step.
//! * [`TimingMode::ChargedOnly`] — uncharged steps cost zero. Fully
//!   deterministic; used by tests and by PDEXEC runs where every kernel is
//!   modeled.

use std::time::Instant;

use desim::SimDuration;

/// How the engine prices atomic steps that carry no explicit charge.
#[derive(Clone, Copy, Debug, Default)]
pub enum TimingMode {
    /// Host wall-clock measurement (direct execution).
    Measured,
    /// Zero cost for uncharged steps (strict PDEXEC; deterministic).
    #[default]
    ChargedOnly,
}

/// Wall-clock stopwatch over the host, yielding per-step measurements.
///
/// A *disabled* stopwatch reports every lap as zero without touching the
/// host clock, which is exactly how [`TimingMode::ChargedOnly`] prices an
/// uncharged step — so pricing steps under it does not pay two
/// `Instant::now` calls per atomic step.
pub(crate) struct Stopwatch {
    last: Option<Instant>,
}

impl Stopwatch {
    /// Starts timing now under [`TimingMode::Measured`]; disabled under
    /// [`TimingMode::ChargedOnly`].
    pub(crate) fn for_mode(mode: TimingMode) -> Stopwatch {
        let last = match mode {
            TimingMode::Measured => Some(Instant::now()),
            TimingMode::ChargedOnly => None,
        };
        Stopwatch { last }
    }

    /// Duration since start or last lap, resetting the lap point. Zero for
    /// a disabled stopwatch.
    pub(crate) fn lap(&mut self) -> SimDuration {
        let Some(last) = &mut self.last else {
            return SimDuration::ZERO;
        };
        let now = Instant::now();
        let d = now.duration_since(*last);
        *last = now;
        SimDuration::from_nanos(d.as_nanos().min(u128::from(u64::MAX)) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_for_mode_disables_only_charged_only() {
        let mut sw = Stopwatch::for_mode(TimingMode::ChargedOnly);
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert_eq!(sw.lap(), SimDuration::ZERO);
        let mut sw = Stopwatch::for_mode(TimingMode::Measured);
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert!(sw.lap() > SimDuration::ZERO);
    }

    #[test]
    fn stopwatch_measures_nonnegative_laps() {
        let mut sw = Stopwatch::for_mode(TimingMode::Measured);
        let a = sw.lap();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = sw.lap();
        assert!(b >= a);
        assert!(b >= SimDuration::from_millis(1));
    }
}
