//! Admitted jobs: the slot table and each job's lifecycle state.
//!
//! A job lives in a reusable slot from admission to its terminal decision.
//! Events that outlive what they were scheduled for are dropped by two
//! counters: `epoch` (bumped when the slot is released, carried by global
//! events) and `gen` (bumped whenever the job's iteration is rescheduled,
//! carried by iteration-end events).

use std::ops::{Index, IndexMut};

use desim::{SimDuration, SimTime};
use faults::CheckpointSpec;

use crate::job::{AnalyticJob, JobPayload, JobSpec};
use crate::journal::JobTag;
use crate::scorer::ScoreState;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum JobState {
    /// In its tenant's fair-share queue.
    Pending,
    /// Placed on a cell.
    Running,
    /// Interrupted, waiting out an elastic backoff.
    Limbo,
}

pub(crate) struct LiveJob {
    /// Slot-reuse guard: bumped when the slot is released. Global events
    /// (requeues, cancellations) carry the epoch they were scheduled for.
    pub epoch: u32,
    /// Schedule guard for iteration-end events; monotone per slot.
    pub gen: u32,
    /// Service-assigned monotone submission id (journal identity).
    pub id: u64,
    pub tenant: u32,
    pub requested: u32,
    pub arrival: SimTime,
    pub payload: JobPayload,
    pub state: JobState,
    pub cell: u32,
    /// Held node ids (pooled buffer).
    pub held: Vec<u32>,
    pub phase: u32,
    pub iter_start: SimTime,
    pub iter_span: SimDuration,
    pub iter_work: SimDuration,
    pub restarts: u32,
    pub done_work: SimDuration,
    pub since_ckpt: SimDuration,
    pub pending_restart: bool,
    pub first_start: Option<SimTime>,
    /// Scoring state, owned by the scorer.
    pub scoring: ScoreState,
    /// Charge one extra checkpoint cost to the next scheduled phase (a
    /// committed checkpoint-now decision).
    pub extra_ckpt: bool,
    /// Resume point established by the latest extra checkpoint.
    pub extra_ckpt_phase: u32,
}

/// What a fault interruption cost a job (see [`LiveJob::interrupt`]).
pub(crate) struct Interrupted {
    /// Node-ns of the unfinished iteration remainder, refunded to the cell.
    pub refund: u128,
    /// Completed work that will replay.
    pub replay: SimDuration,
    /// Replay plus the in-flight fraction of the struck iteration.
    pub lost: SimDuration,
}

impl LiveJob {
    /// The job's journal identity.
    pub fn tag(&self) -> JobTag {
        JobTag {
            id: self.id,
            tenant: self.tenant,
        }
    }

    /// Node-ns the current iteration was charged for but will not use if
    /// it stops at `now`.
    pub fn unused_node_ns(&self, now: SimTime) -> u128 {
        let remaining = self.iter_span.saturating_sub(now - self.iter_start);
        u128::from(self.held.len() as u64) * u128::from(remaining.as_nanos())
    }

    /// The scheduled iteration finished: advance the phase and the work
    /// counters. Returns the iteration's work.
    pub fn finish_iteration(&mut self, ckpt: &CheckpointSpec) -> SimDuration {
        let completed = self.phase as usize;
        self.phase += 1;
        self.done_work += self.iter_work;
        self.since_ckpt += self.iter_work;
        if ckpt.checkpoints_after(completed) {
            self.since_ckpt = SimDuration::ZERO;
        }
        self.iter_work
    }

    /// A fault struck a held node at `now`: rewind to the resume point —
    /// the last checkpoint under elastic recovery, the start otherwise —
    /// and stale out the scheduled iteration end.
    pub fn interrupt(&mut self, now: SimTime, elastic: bool, ckpt: &CheckpointSpec) -> Interrupted {
        debug_assert_eq!(self.state, JobState::Running);
        let elapsed = now - self.iter_start;
        let partial = if self.iter_span.is_zero() {
            SimDuration::ZERO
        } else {
            SimDuration(
                (u128::from(self.iter_work.as_nanos()) * u128::from(elapsed.as_nanos())
                    / u128::from(self.iter_span.as_nanos())) as u64,
            )
        };
        let refund = self.unused_node_ns(now);
        let replay = if elastic {
            self.since_ckpt
        } else {
            self.done_work
        };
        self.restarts += 1;
        self.done_work -= replay;
        self.since_ckpt = SimDuration::ZERO;
        self.phase = if elastic {
            (ckpt.resume_point(self.phase as usize) as u32).max(self.extra_ckpt_phase)
        } else {
            0
        };
        self.extra_ckpt = false;
        self.pending_restart = elastic && self.phase > 0;
        self.gen += 1;
        Interrupted {
            refund,
            replay,
            lost: replay + partial,
        }
    }
}

/// The slot table of admitted jobs.
#[derive(Default)]
pub(crate) struct JobTable {
    slab: Vec<LiveJob>,
    free_slots: Vec<u32>,
    /// Recycled `held` buffers (no steady-state allocation on the
    /// start/complete path).
    vec_pool: Vec<Vec<u32>>,
}

impl JobTable {
    /// Puts a newly admitted job into a slot.
    pub fn alloc(&mut self, spec: &JobSpec, id: u64) -> u32 {
        let held = self.vec_pool.pop().unwrap_or_default();
        let fresh = |epoch: u32, gen: u32| LiveJob {
            epoch,
            gen,
            id,
            tenant: spec.tenant,
            requested: spec.requested_nodes,
            arrival: spec.arrival,
            payload: spec.payload.clone(),
            state: JobState::Pending,
            cell: 0,
            held,
            phase: 0,
            iter_start: SimTime::ZERO,
            iter_span: SimDuration::ZERO,
            iter_work: SimDuration::ZERO,
            restarts: 0,
            done_work: SimDuration::ZERO,
            since_ckpt: SimDuration::ZERO,
            pending_restart: false,
            first_start: None,
            scoring: ScoreState::default(),
            extra_ckpt: false,
            extra_ckpt_phase: 0,
        };
        if let Some(slot) = self.free_slots.pop() {
            let e = &mut self.slab[slot as usize];
            *e = fresh(e.epoch, e.gen);
            slot
        } else {
            self.slab.push(fresh(0, 0));
            (self.slab.len() - 1) as u32
        }
    }

    /// Returns a slot to the free list; bumps the epoch so any in-flight
    /// requeue/cancel events for the old occupant go stale.
    pub fn release(&mut self, slot: u32) {
        let e = &mut self.slab[slot as usize];
        e.epoch += 1;
        e.gen += 1;
        e.scoring = ScoreState::default();
        let mut held = std::mem::take(&mut e.held);
        held.clear();
        self.vec_pool.push(held);
        // Drop any boxed payload now (the slot may idle a long time).
        e.payload = JobPayload::Analytic(AnalyticJob {
            work: SimDuration::ZERO,
            parallel_first: 0.0,
            parallel_last: 0.0,
            iterations: 0,
        });
        self.free_slots.push(slot);
    }
}

impl Index<u32> for JobTable {
    type Output = LiveJob;
    fn index(&self, slot: u32) -> &LiveJob {
        &self.slab[slot as usize]
    }
}

impl IndexMut<u32> for JobTable {
    fn index_mut(&mut self, slot: u32) -> &mut LiveJob {
        &mut self.slab[slot as usize]
    }
}
