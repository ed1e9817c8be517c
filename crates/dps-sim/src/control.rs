//! Run control: everything that can stop the event loop short of the end of
//! the run and let a later call pick up exactly where it stopped — the
//! checkpoint machinery's pause predicate and time limit, the replayer's
//! journal-prefix limit — and the buffer of same-instant events that makes
//! stopping *between* two of them possible.

use desim::SimTime;
use dps::{AnyDataObject, OpId, Operation, ThreadId};

use crate::engine::ServerKey;

/// What a checkpoint pause predicate sees: a server about to consume the
/// head object of its queue, *before* the operation's code runs. Pausing
/// here leaves the object queued, so a fork resumes by consuming it.
pub struct PausePoint<'e> {
    /// Operation about to run.
    pub op: OpId,
    /// Thread it runs on.
    pub thread: ThreadId,
    /// The data object about to be consumed.
    pub obj: &'e dyn AnyDataObject,
    /// The operation's behaviour state (`None` before its first
    /// invocation); inspect concrete state via [`Operation::as_any`].
    pub state: Option<&'e dyn Operation>,
}

/// Pause predicate for [`crate::checkpoint::SimCheckpoint::run_until`].
pub type PausePred = Box<dyn FnMut(&PausePoint<'_>) -> bool>;

/// The loop's stop conditions and event buffer. Drivers (checkpoints, the
/// replayer) set the limits between `Engine::resume` calls; none is ever
/// set during plain `simulate` runs.
#[derive(Default)]
pub(crate) struct RunControl {
    /// Completed transfers / finished steps not yet acted upon. The event
    /// loop buffers them so a pause can stop between same-instant events
    /// and a fork resumes with the remainder intact. The fabric and the CPU
    /// model fill them in place once per instant, so the loop allocates
    /// nothing per event; [`RunControl::order_batch`] then reverses them,
    /// and `pop` takes the events in the order they were reported.
    pub(crate) arrived: Vec<u64>,
    pub(crate) finished: Vec<u64>,
    /// Active pause predicate (checkpoint `run_until`).
    pub(crate) pause: Option<PausePred>,
    /// Servers stopped by the predicate, their triggering object still at
    /// the head of their queue. The loop stays stopped while any is parked.
    pub(crate) parked: Vec<ServerKey>,
    /// Virtual-time ceiling (checkpoint `advance_until`); the loop stops
    /// before advancing past it.
    pub(crate) time_limit: Option<SimTime>,
    /// Stop the loop once the journal holds at least this many entries
    /// (replay-to-prefix; granularity is the enclosing event batch).
    pub(crate) journal_limit: Option<usize>,
    /// Event batches seen so far in which ≥ 2 steps finished at the same
    /// instant (drives [`crate::SimConfig::tie_break_swap`]).
    tie_batches: u64,
}

impl RunControl {
    /// Readies the events one instant just reported for consumption.
    /// `tie_break_swap` is the fuzzing hook of that name: it perturbs the
    /// id tie-break of the n-th batch in which two or more steps finished
    /// together.
    pub(crate) fn order_batch(&mut self, tie_break_swap: Option<u64>) {
        if let Some(n) = tie_break_swap {
            if self.finished.len() >= 2 {
                if self.tie_batches == n {
                    self.finished.swap(0, 1);
                }
                self.tie_batches += 1;
            }
        }
        self.arrived.reverse();
        self.finished.reverse();
    }

    /// Asks the pause predicate, if one is set, about a server about to
    /// consume an object; parks the server when it fires.
    pub(crate) fn pauses(&mut self, key: ServerKey, point: &PausePoint<'_>) -> bool {
        let hit = self.pause.as_mut().is_some_and(|pred| pred(point));
        if hit && !self.parked.contains(&key) {
            self.parked.push(key);
        }
        hit
    }

    /// A fork's run control: the buffered events and parked servers carry
    /// over, the stop conditions belong to whoever drives the original.
    pub(crate) fn fork(&self) -> RunControl {
        RunControl {
            arrived: self.arrived.clone(),
            finished: self.finished.clone(),
            parked: self.parked.clone(),
            tie_batches: self.tie_batches,
            ..RunControl::default()
        }
    }
}
