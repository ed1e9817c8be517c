//! Engine configuration.

use desim::SimDuration;

use crate::timing::TimingMode;

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// How uncharged atomic steps are priced (see [`TimingMode`]).
    pub timing: TimingMode,
    /// Fixed dispatch overhead added to every atomic step — the cost of the
    /// DPS runtime delivering an object and scheduling the operation.
    pub step_overhead: SimDuration,
    /// Record the committed-event journal into
    /// [`crate::RunReport::journal`]: one [`desim::journal::JournalEntry`]
    /// per committed event. The journal is the engine's determinism
    /// oracle — see [`crate::journal`] for divergence pinpointing. Costs
    /// memory proportional to the event count.
    pub record_journal: bool,
    /// Atomic-step budget: exceeding it fails the run with
    /// [`crate::SimErrorKind::BudgetExceeded`] instead of looping forever.
    pub max_steps: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            timing: TimingMode::ChargedOnly,
            step_overhead: SimDuration::from_micros(20),
            record_journal: false,
            max_steps: 200_000_000,
        }
    }
}
