//! Snapshot/fork simulation: pause a run at a safe point, clone the entire
//! engine state, and continue the copies along divergent what-if branches.
//!
//! A [`SimCheckpoint`] wraps a paused engine. Two pause mechanisms exist:
//!
//! * **Time-based** ([`simulate_until`], [`SimCheckpoint::advance_until`]) —
//!   stop before virtual time passes `t`. Always safe: the engine only
//!   pauses *between* discrete events, never inside application code.
//! * **Predicate-based** ([`SimCheckpoint::run_until`]) — stop when a
//!   chosen server is about to consume a chosen object, *before* the
//!   operation's code runs. This pins a fork right in front of an atomic
//!   decision step (e.g. the LU coordinator's barrier/removal decision), so
//!   a fork can rewrite the decision's inputs via
//!   [`SimCheckpoint::with_op_state`] and diverge from there.
//!
//! [`SimCheckpoint::fork`] deep-copies every piece of live state — queued
//! and in-flight data objects, behaviour state, recorded segments and
//! pending actions, CPU and network model state (a [`SimFabric`], fault
//! plan included), timing calibration, and accumulated report data.
//! Cloning is *fallible by design*: payloads and operations opt in via
//! [`dps::DataObject::try_clone_obj`] and [`dps::Operation::fork_op`]; if
//! anything live opts out, `fork` fails with
//! [`crate::SimErrorKind::ForkRefused`] and the caller falls back to a
//! fresh full run. A completed fork produces a [`RunReport`] identical
//! (modulo host wall time) to an uninterrupted simulation of the same
//! configuration — property tests assert byte-for-byte equality of
//! [`RunReport::canonical_string`].
//!
//! The point: a parameter sweep whose configurations share a common prefix
//! (same matrix, same cluster, different *removal plans* kicking in at
//! iteration `k`) pays for the shared prefix once and only re-simulates the
//! divergent suffixes.

use std::sync::Arc;
use std::time::Instant;

use desim::SimTime;
use dps::{Application, OpId, ThreadId};
use faults::FaultPlan;
use netmodel::NetParams;

use crate::engine::{Engine, PausePred, SimConfig};
use crate::error::{SimError, SimResult};
use crate::fabric::SimFabric;
use crate::report::RunReport;

pub use crate::engine::PausePoint;

/// A paused, forkable simulation (see module docs).
pub struct SimCheckpoint {
    eng: Engine<Arc<Application>, Box<SimFabric>>,
    /// Host wall time spent driving this branch so far (inherited by
    /// forks); folded into the final report's `host_wall`.
    host: std::time::Duration,
}

/// Starts a simulation of `app` on the paper's machine model and advances
/// it until the next event would pass `t`, returning the paused engine.
///
/// Advancing to [`SimTime::ZERO`] stops before the first event, i.e. right
/// after start injection. Parameters that fail [`NetParams::validate`] are
/// a protocol error.
pub fn simulate_until(
    app: Arc<Application>,
    params: NetParams,
    cfg: &SimConfig,
    t: SimTime,
) -> SimResult<SimCheckpoint> {
    let fabric = SimFabric::with_plan(params, &FaultPlan::none())?;
    let mut ck = SimCheckpoint::new(app, fabric, cfg);
    ck.advance_until(t)?;
    Ok(ck)
}

impl SimCheckpoint {
    /// A checkpoint at virtual time zero, before any event ran, over
    /// `fabric` (with or without a fault plan).
    pub fn new(app: Arc<Application>, fabric: SimFabric, cfg: &SimConfig) -> Self {
        SimCheckpoint {
            eng: Engine::start(app, Box::new(fabric), cfg),
            host: std::time::Duration::ZERO,
        }
    }

    /// Advances until the next event would land past `t`. Returns
    /// `Ok(true)` while the run still has work left, `Ok(false)` once it
    /// completed, and the typed failure if the run deadlocked, blew a
    /// budget, or was cancelled while advancing.
    pub fn advance_until(&mut self, t: SimTime) -> SimResult<bool> {
        let wall = Instant::now();
        self.eng.control.time_limit = Some(t);
        self.eng.resume();
        self.eng.control.time_limit = None;
        let live = self.eng.has_work();
        self.host += wall.elapsed();
        if let Some(err) = self.eng.error() {
            return Err(err.clone().context("advancing a checkpoint"));
        }
        Ok(live)
    }

    /// Advances until `pred` pauses a server about to consume an object
    /// (see [`PausePoint`]). Returns `Ok(true)` if the predicate fired,
    /// `Ok(false)` if the run finished first, and the typed failure if the
    /// run failed before either.
    pub fn run_until(&mut self, pred: PausePred) -> SimResult<bool> {
        let wall = Instant::now();
        self.eng.control.pause = Some(pred);
        self.eng.resume();
        self.eng.control.pause = None;
        let paused = !self.eng.control.parked.is_empty();
        self.host += wall.elapsed();
        if let Some(err) = self.eng.error() {
            return Err(err.clone().context("running a checkpoint to a pause point"));
        }
        Ok(paused)
    }

    /// Current virtual time of the paused engine.
    pub fn now(&self) -> SimTime {
        self.eng.current_time()
    }

    /// A fully independent copy of the paused simulation.
    /// [`crate::SimErrorKind::ForkRefused`] when some live payload or
    /// behaviour state opted out of cloning — callers fall back to a fresh
    /// run on exactly that variant ([`SimError::is_fork_refused`]).
    pub fn fork(&mut self) -> SimResult<SimCheckpoint> {
        match self.eng.try_fork() {
            Some(eng) => Ok(SimCheckpoint {
                eng,
                host: self.host,
            }),
            None => Err(SimError::fork_refused(
                "a live payload or behaviour state does not support cloning",
            )),
        }
    }

    /// Rewrites the behaviour state of `(op, thread)` — typically in a
    /// fresh fork, to diverge it from its siblings (e.g. install a
    /// different thread-removal plan). Returns `None` when the state is
    /// absent, opted out of [`dps::Operation::as_any_mut`], or is not a
    /// `T`.
    pub fn with_op_state<T: 'static, R>(
        &mut self,
        op: OpId,
        thread: ThreadId,
        f: impl FnOnce(&mut T) -> R,
    ) -> Option<R> {
        let any = self.eng.op_state_mut(op, thread)?;
        Some(f(any.downcast_mut::<T>()?))
    }

    /// Runs the simulation to completion and returns its report (or the
    /// typed failure that stopped it). The report's `host_wall` covers all
    /// drive phases of this branch, including time inherited from the
    /// checkpoint it was forked from.
    pub fn finish(mut self) -> SimResult<RunReport> {
        let wall = Instant::now();
        self.eng.resume();
        self.eng.into_result(self.host + wall.elapsed())
    }
}
