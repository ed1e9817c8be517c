//! Atomic-step timing: direct execution, partial direct execution,
//! calibration.
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
//! * [`TimingMode::Calibrated`] — measure the first `warmup` instances of
//!   each (operation, step index) and reuse the running average afterwards
//!   (the paper's "measure the running times of the first *n* instances of
//!   an operation and reuse the averaged measure").

use std::collections::HashMap;
use std::time::Instant;

use desim::SimDuration;
use dps::OpId;

/// How the engine prices atomic steps that carry no explicit charge.
#[derive(Clone, Copy, Debug, Default)]
pub enum TimingMode {
    /// Host wall-clock measurement (direct execution).
    Measured,
    /// Zero cost for uncharged steps (strict PDEXEC; deterministic).
    #[default]
    ChargedOnly,
    /// Measure the first `warmup` instances per (op, step), then reuse the
    /// average.
    Calibrated {
        /// Instances measured before the average takes over.
        warmup: u32,
    },
}

#[derive(Clone, Default)]
struct CalEntry {
    count: u64,
    total: SimDuration,
}

/// Mutable timing state shared across the run (calibration averages).
#[derive(Clone, Default)]
pub struct TimingState {
    cal: HashMap<(OpId, u32), CalEntry>,
}

impl TimingState {
    /// Creates an empty instance.
    pub fn new() -> TimingState {
        TimingState::default()
    }

    /// Resolves the duration of one atomic step.
    pub fn step_duration(
        &mut self,
        mode: TimingMode,
        op: OpId,
        step_index: u32,
        charged: Option<SimDuration>,
        measured: SimDuration,
    ) -> SimDuration {
        if let Some(c) = charged {
            return c;
        }
        match mode {
            TimingMode::Measured => measured,
            TimingMode::ChargedOnly => SimDuration::ZERO,
            TimingMode::Calibrated { warmup } => {
                let e = self.cal.entry((op, step_index)).or_default();
                if e.count < warmup as u64 {
                    e.count += 1;
                    e.total += measured;
                    measured
                } else if e.count == 0 {
                    measured
                } else {
                    e.total / e.count
                }
            }
        }
    }
}

/// Wall-clock stopwatch over the host, yielding per-step measurements.
///
/// A *disabled* stopwatch reports every lap as zero without touching the
/// host clock: [`TimingMode::ChargedOnly`] ignores measurements entirely,
/// so pricing steps under it should not pay two `Instant::now` calls per
/// atomic step.
pub struct Stopwatch {
    last: Option<Instant>,
}

impl Stopwatch {
    /// Starts timing from now.
    pub fn start() -> Stopwatch {
        Stopwatch {
            last: Some(Instant::now()),
        }
    }

    /// A stopwatch whose laps are all [`SimDuration::ZERO`].
    pub fn disabled() -> Stopwatch {
        Stopwatch { last: None }
    }

    /// [`Stopwatch::start`] when `mode` consumes measurements,
    /// [`Stopwatch::disabled`] when it provably never does.
    pub fn for_mode(mode: TimingMode) -> Stopwatch {
        match mode {
            TimingMode::ChargedOnly => Stopwatch::disabled(),
            TimingMode::Measured | TimingMode::Calibrated { .. } => Stopwatch::start(),
        }
    }

    /// Duration since start or last lap, resetting the lap point. Zero for
    /// a disabled stopwatch.
    pub fn lap(&mut self) -> SimDuration {
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

    const MS: SimDuration = SimDuration(1_000_000);

    #[test]
    fn charge_always_wins() {
        let mut st = TimingState::new();
        for mode in [
            TimingMode::Measured,
            TimingMode::ChargedOnly,
            TimingMode::Calibrated { warmup: 2 },
        ] {
            let d = st.step_duration(mode, OpId(0), 0, Some(MS * 3), MS);
            assert_eq!(d, MS * 3);
        }
    }

    #[test]
    fn measured_mode_uses_measurement() {
        let mut st = TimingState::new();
        assert_eq!(
            st.step_duration(TimingMode::Measured, OpId(0), 0, None, MS * 7),
            MS * 7
        );
    }

    #[test]
    fn charged_only_prices_uncharged_steps_at_zero() {
        let mut st = TimingState::new();
        assert_eq!(
            st.step_duration(TimingMode::ChargedOnly, OpId(0), 0, None, MS),
            SimDuration::ZERO
        );
    }

    #[test]
    fn calibration_averages_warmup_then_reuses() {
        let mut st = TimingState::new();
        let mode = TimingMode::Calibrated { warmup: 2 };
        // Two warmup instances measured 10ms and 20ms.
        assert_eq!(st.step_duration(mode, OpId(1), 0, None, MS * 10), MS * 10);
        assert_eq!(st.step_duration(mode, OpId(1), 0, None, MS * 20), MS * 20);
        // Subsequent instances use the 15ms average regardless of measurement.
        assert_eq!(st.step_duration(mode, OpId(1), 0, None, MS * 500), MS * 15);
        assert_eq!(st.step_duration(mode, OpId(1), 0, None, MS), MS * 15);
        // Other (op, step) keys calibrate independently.
        assert_eq!(st.step_duration(mode, OpId(1), 1, None, MS * 4), MS * 4);
        assert_eq!(st.step_duration(mode, OpId(2), 0, None, MS * 4), MS * 4);
    }

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
        let mut sw = Stopwatch::start();
        let a = sw.lap();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = sw.lap();
        assert!(b >= a);
        assert!(b >= SimDuration::from_millis(1));
    }
}
