//! Run control: everything that can stop the event loop short of the end of
//! the run and let a later call pick up exactly where it stopped — the
//! checkpoint machinery's pause predicate and time limit — and the buffer
//! of same-instant events that makes stopping *between* two of them
//! possible.

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

/// The loop's stop conditions and event buffer. Checkpoints set the stop
/// conditions between `Engine::resume` calls; neither is ever set during
/// plain `simulate` runs.
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
}

impl RunControl {
    /// Readies the events one instant just reported for consumption.
    pub(crate) fn order_batch(&mut self) {
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
            ..RunControl::default()
        }
    }
}
