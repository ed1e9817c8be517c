//! Engine configuration.

use desim::{SimDuration, SimTime};

use crate::error::CancelToken;
use crate::timing::TimingMode;

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// How uncharged atomic steps are priced (see [`TimingMode`]).
    pub timing: TimingMode,
    /// Fixed dispatch overhead added to every atomic step — the cost of the
    /// DPS runtime delivering an object and scheduling the operation.
    pub step_overhead: SimDuration,
    /// Record a full Gantt trace (costs memory on large runs). The trace is
    /// a derived view of the event journal: enabling it records the journal
    /// internally and renders [`crate::Trace`] from it at the end of the
    /// run.
    pub record_trace: bool,
    /// Record the committed-event journal into
    /// [`crate::RunReport::journal`]: one [`desim::journal::JournalEntry`]
    /// per committed event. The journal is the engine's determinism
    /// oracle — see [`crate::journal`] for replay and divergence
    /// pinpointing. Costs memory proportional to the event count.
    pub record_journal: bool,
    /// Determinism-fuzzing hook: after the *N*-th event batch in which two
    /// or more atomic steps finish at the same virtual instant, process the
    /// first two in swapped order. This deliberately violates the engine's
    /// job-id tie-break — a synthetic scheduling bug — so the journal
    /// divergence pinpointer can be exercised against a run that *should*
    /// diverge. `None` (the default) never perturbs anything.
    pub tie_break_swap: Option<u64>,
    /// Modeled baseline memory of the DPS runtime itself.
    pub baseline_memory: u64,
    /// Atomic-step budget: exceeding it fails the run with
    /// [`crate::SimErrorKind::BudgetExceeded`] instead of looping forever.
    pub max_steps: u64,
    /// Virtual-time budget: the run fails with
    /// [`crate::SimErrorKind::BudgetExceeded`] before advancing past this
    /// instant. `None` leaves virtual time unbounded.
    pub max_virtual_time: Option<SimTime>,
    /// Cooperative cancellation token checked between events; callers (the
    /// cluster server, the sweep planner) cancel it to abort a runaway job
    /// with [`crate::SimErrorKind::Cancelled`].
    pub cancel: Option<CancelToken>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            timing: TimingMode::ChargedOnly,
            step_overhead: SimDuration::from_micros(20),
            record_trace: false,
            record_journal: false,
            tie_break_swap: None,
            baseline_memory: 2 << 20,
            max_steps: 200_000_000,
            max_virtual_time: None,
            cancel: None,
        }
    }
}
