//! Step collection: an operation's Rust code runs once, when its server
//! starts consuming an object, and is cut into **atomic steps** at every
//! post. What it asked for between two cuts — posts, marks, credit
//! releases — is recorded as the [`Action`]s of the step that ends there,
//! to be carried out when that step's computation has drained in virtual
//! time. An invocation keeps every step's actions, in order, in one buffer
//! from recording to execution; nothing else ever holds them.

use std::collections::VecDeque;

use desim::{SimDuration, SimTime};
use dps::{ActiveSet, DataObj, Deployment, OpCtx, OpId, ThreadId};
use netmodel::NodeId;

use crate::engine::SimConfig;
use crate::timing::Stopwatch;

/// Something an operation asked the runtime to do at the end of a step.
pub(crate) enum Action {
    Post { to: OpId, obj: DataObj },
    Mark(String),
    Deactivate(ThreadId),
    Release(OpId),
    Account(i64),
    Terminate,
}

impl Action {
    /// Deep copy for checkpoint/fork; fails when a posted payload opted out
    /// of cloning (see [`dps::DataObject::try_clone_obj`]).
    fn try_clone(&self) -> Option<Action> {
        Some(match self {
            Action::Post { to, obj } => Action::Post {
                to: *to,
                obj: obj.clone_obj()?,
            },
            Action::Mark(l) => Action::Mark(l.clone()),
            Action::Deactivate(t) => Action::Deactivate(*t),
            Action::Release(op) => Action::Release(*op),
            Action::Account(d) => Action::Account(*d),
            Action::Terminate => Action::Terminate,
        })
    }
}

/// One atomic step: `work` of computation, then the next `actions` of its
/// invocation's buffer.
#[derive(Clone, Copy)]
struct Segment {
    work: SimDuration,
    actions: usize,
}

/// The recorded steps of one object consumption that have not played out
/// yet; the front one is running, or having its actions carried out.
pub(crate) struct Invocation {
    /// Heap bytes of the consumed object, freed when the invocation ends.
    pub(crate) consumed_heap: u64,
    steps: VecDeque<Segment>,
    /// The actions of every step not yet carried out, step after step.
    actions: VecDeque<Action>,
}

impl Invocation {
    /// Nominal work of the current step, or `None` when the invocation has
    /// played out.
    pub(crate) fn current_work(&self) -> Option<SimDuration> {
        self.steps.front().map(|s| s.work)
    }

    /// Takes the current step's next action not yet carried out, if any.
    pub(crate) fn next_action(&mut self) -> Option<Action> {
        let left = &mut self.steps.front_mut().expect("a current step").actions;
        *left = left.checked_sub(1)?;
        self.actions.pop_front()
    }

    /// Returns an action to the front of the current step: the post a
    /// server parks on while it waits for a flow-control credit.
    pub(crate) fn put_back(&mut self, action: Action) {
        self.steps.front_mut().expect("a current step").actions += 1;
        self.actions.push_front(action);
    }

    /// Drops the current step, its actions carried out.
    pub(crate) fn finish_step(&mut self) {
        self.steps.pop_front();
    }

    /// Target of the post the server is parked on, if it is parked.
    pub(crate) fn parked_post(&self) -> Option<OpId> {
        if self.steps.front()?.actions == 0 {
            return None;
        }
        match self.actions.front()? {
            Action::Post { to, .. } => Some(*to),
            _ => None,
        }
    }

    /// The emptied buffers of a played-out invocation, for the next one to
    /// record into.
    pub(crate) fn into_buffers(self) -> Buffers {
        debug_assert!(self.steps.is_empty() && self.actions.is_empty());
        Buffers(self.steps, self.actions)
    }

    /// Deep copy for checkpoint/fork (see [`Action::try_clone`]).
    pub(crate) fn try_clone(&self) -> Option<Invocation> {
        let actions = self.actions.iter().map(Action::try_clone);
        Some(Invocation {
            consumed_heap: self.consumed_heap,
            steps: self.steps.clone(),
            actions: actions.collect::<Option<_>>()?,
        })
    }
}

/// Empty step and action buffers, handed from a played-out invocation to
/// the next recording so that recording allocates only to grow them.
#[derive(Default)]
pub(crate) struct Buffers(VecDeque<Segment>, VecDeque<Action>);

/// The [`OpCtx`] handed to an operation while its code runs: answers its
/// questions about the deployment and records everything else.
pub(crate) struct CollectCtx<'a> {
    now: SimTime,
    thread: ThreadId,
    deployment: &'a Deployment,
    active: &'a ActiveSet,
    cfg: &'a SimConfig,
    segments: VecDeque<Segment>,
    actions: VecDeque<Action>,
    /// Actions recorded since the last cut.
    cur_actions: usize,
    cur_charge: Option<SimDuration>,
    sw: Stopwatch,
}

impl<'a> CollectCtx<'a> {
    pub(crate) fn new(
        now: SimTime,
        thread: ThreadId,
        deployment: &'a Deployment,
        active: &'a ActiveSet,
        cfg: &'a SimConfig,
        Buffers(segments, actions): Buffers,
    ) -> CollectCtx<'a> {
        CollectCtx {
            now,
            thread,
            deployment,
            active,
            cfg,
            segments,
            actions,
            cur_actions: 0,
            cur_charge: None,
            sw: Stopwatch::for_mode(cfg.timing),
        }
    }

    /// Prices the code that ran since the last cut: its charge if it
    /// called `charge`, else the stopwatch's lap (zero when disabled). The
    /// lap is taken either way, so the next step is timed from this cut.
    fn lap(&mut self) -> SimDuration {
        let measured = self.sw.lap();
        self.cur_charge.take().unwrap_or(measured)
    }

    fn record(&mut self, action: Action) {
        self.actions.push_back(action);
        self.cur_actions += 1;
    }

    fn close_segment(&mut self, closing: Action) {
        let work = self.lap() + self.cfg.step_overhead;
        self.record(closing);
        let actions = std::mem::take(&mut self.cur_actions);
        self.segments.push_back(Segment { work, actions });
    }

    /// Ends the recording. The result always holds at least one step: every
    /// object consumption costs the dispatch overhead, even if the
    /// operation body did nothing observable (e.g. a merge that only
    /// counted an arrival).
    pub(crate) fn finish(mut self, consumed_heap: u64) -> Invocation {
        // Trailing segment: only if it does something or costs something.
        let work = self.lap();
        if self.cur_actions > 0 || !work.is_zero() || self.segments.is_empty() {
            self.segments.push_back(Segment {
                work: work + self.cfg.step_overhead,
                actions: self.cur_actions,
            });
        }
        Invocation {
            consumed_heap,
            steps: self.segments,
            actions: self.actions,
        }
    }
}

impl OpCtx for CollectCtx<'_> {
    fn post(&mut self, to: OpId, obj: DataObj) {
        self.close_segment(Action::Post { to, obj });
    }

    fn charge(&mut self, d: SimDuration) {
        self.cur_charge = Some(self.cur_charge.unwrap_or(SimDuration::ZERO) + d);
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn self_thread(&self) -> ThreadId {
        self.thread
    }

    fn node_of(&self, t: ThreadId) -> NodeId {
        self.deployment.node_of(t)
    }

    fn active_threads(&self, group: &str) -> Vec<ThreadId> {
        self.active.active_in(self.deployment, group)
    }

    fn all_threads(&self, group: &str) -> Vec<ThreadId> {
        self.deployment.group(group).to_vec()
    }

    fn mark(&mut self, label: &str) {
        self.record(Action::Mark(label.to_string()));
    }

    fn deactivate_thread(&mut self, t: ThreadId) {
        self.record(Action::Deactivate(t));
    }

    fn fc_release(&mut self, source: OpId) {
        self.record(Action::Release(source));
    }

    fn account_state(&mut self, delta_bytes: i64) {
        self.record(Action::Account(delta_bytes));
    }

    fn terminate(&mut self) {
        self.record(Action::Terminate);
    }
}
