//! The direct-execution virtual-time engine.
//!
//! The engine executes a [`dps::Application`] exactly once, reconstructing
//! its parallel schedule in virtual time (the paper's §3):
//!
//! * Each *(operation, thread)* pair is a sequential server with a FIFO
//!   data-object queue — the macro-dataflow behaviour of DPS. Servers on the
//!   same node overlap under processor sharing (DPS runs operations on
//!   distinct execution threads).
//! * When a server starts consuming an object, the operation's Rust code
//!   runs once (exactly one piece of application code runs at a time, as in
//!   the paper's alternation between DPS execution threads and the simulator
//!   thread) and is decomposed into **atomic steps** at every post. Step
//!   durations come from host measurement (direct execution), charges
//!   (partial direct execution), or calibration — see [`crate::timing`].
//! * The recorded steps then play out in virtual time: compute segments
//!   drain under the node's processor-sharing rate (reduced by the CPU cost
//!   of concurrent communications), posts start network transfers through
//!   the [`Fabric`], arrivals enqueue at destination servers.
//! * Flow-control windows suspend a posting operation when its credits run
//!   out and resume it when the application returns a credit
//!   (`OpCtx::fc_release`), reproducing DPS's split suspension.
//! * Threads can be deactivated at runtime (dynamic node deallocation);
//!   routing helpers immediately stop selecting them and the allocated-node
//!   timeline feeds the dynamic-efficiency computation.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use desim::journal::{Journal, JournalEvent};
use desim::{FxHashMap, ProgressSet, SimDuration, SimTime};
use dps::{
    ActiveSet, AnyDataObject, Application, DataObj, OpCtx, OpId, Operation, RouteCtx, ThreadId,
    Window,
};
use netmodel::{NetParams, NodeId};

use crate::error::{BlockedOp, BudgetKind, CancelToken, DeadlockDiag, SimError, SimResult};
use crate::fabric::{Fabric, SimFabric};
use crate::memory::MemoryMeter;
use crate::report::{Interval, RunReport};
use crate::timing::{Stopwatch, TimingMode, TimingState};

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

type ServerKey = (OpId, ThreadId);

enum Action {
    Post { to: OpId, obj: DataObj },
    Mark(Arc<str>),
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
            Action::Mark(l) => Action::Mark(Arc::clone(l)),
            Action::Deactivate(t) => Action::Deactivate(*t),
            Action::Release(op) => Action::Release(*op),
            Action::Account(d) => Action::Account(*d),
            Action::Terminate => Action::Terminate,
        })
    }
}

fn fork_actions(q: &VecDeque<Action>) -> Option<VecDeque<Action>> {
    q.iter().map(Action::try_clone).collect()
}

struct Segment {
    work: SimDuration,
    actions: VecDeque<Action>,
}

impl Segment {
    fn try_clone(&self) -> Option<Segment> {
        Some(Segment {
            work: self.work,
            actions: fork_actions(&self.actions)?,
        })
    }
}

struct RunState {
    consumed_heap: u64,
    segments: Vec<Segment>,
    /// Next unconsumed entry of `segments`.
    next_seg: usize,
    /// Actions of the segment currently being finalized; non-empty only
    /// while executing them or while blocked on a flow-control credit.
    pending: VecDeque<Action>,
}

/// Mark labels are emitted once per application call site but recorded on
/// every invocation; interning makes the per-mark cost one `Arc` clone
/// instead of a `String` allocation. (`Arc`, not `Rc`, so forked engines
/// stay sendable to other threads.)
#[derive(Clone, Default)]
struct Interner {
    map: FxHashMap<Box<str>, Arc<str>>,
}

impl Interner {
    fn intern(&mut self, s: &str) -> Arc<str> {
        if let Some(r) = self.map.get(s) {
            return Arc::clone(r);
        }
        let r: Arc<str> = Arc::from(s);
        self.map.insert(Box::from(s), Arc::clone(&r));
        r
    }
}

/// Cap on recycled-buffer pools; beyond this, buffers just drop.
const POOL_CAP: usize = 256;

struct Server {
    op: Option<Box<dyn Operation>>,
    queue: VecDeque<DataObj>,
    run: Option<RunState>,
}

impl Server {
    fn try_clone(&self) -> Option<Server> {
        let op = match &self.op {
            Some(op) => Some(op.fork_op()?),
            None => None,
        };
        let queue = self
            .queue
            .iter()
            .map(|o| o.clone_obj())
            .collect::<Option<VecDeque<_>>>()?;
        let run = match &self.run {
            Some(r) => Some(RunState {
                consumed_heap: r.consumed_heap,
                segments: r
                    .segments
                    .iter()
                    .map(Segment::try_clone)
                    .collect::<Option<Vec<_>>>()?,
                next_seg: r.next_seg,
                pending: fork_actions(&r.pending)?,
            }),
            None => None,
        };
        Some(Server { op, queue, run })
    }
}

struct JobInfo {
    server: ServerKey,
    node: NodeId,
    start: SimTime,
    work: SimDuration,
    actions: VecDeque<Action>,
}

impl JobInfo {
    fn try_clone(&self) -> Option<JobInfo> {
        Some(JobInfo {
            server: self.server,
            node: self.node,
            start: self.start,
            work: self.work,
            actions: fork_actions(&self.actions)?,
        })
    }
}

struct Delivery {
    to: OpId,
    thread: ThreadId,
    obj: DataObj,
}

/// The application an engine executes: borrowed for plain runs, shared for
/// checkpoints (which outlive the calling frame and hand clones to forks).
enum AppRef<'a> {
    Borrowed(&'a Application),
    Shared(Arc<Application>),
}

impl<'a> AppRef<'a> {
    fn clone_ref(&self) -> AppRef<'a> {
        match self {
            AppRef::Borrowed(a) => AppRef::Borrowed(a),
            AppRef::Shared(a) => AppRef::Shared(Arc::clone(a)),
        }
    }
}

impl std::ops::Deref for AppRef<'_> {
    type Target = Application;
    fn deref(&self) -> &Application {
        match self {
            AppRef::Borrowed(a) => a,
            AppRef::Shared(a) => a,
        }
    }
}

/// The fabric an engine drives: borrowed for plain runs (the testbed plugs
/// in a `&mut dyn Fabric`), owned for checkpoints and forks.
enum FabricSlot<'a> {
    Borrowed(&'a mut dyn Fabric),
    Owned(Box<dyn Fabric + Send>),
}

impl<'a> std::ops::Deref for FabricSlot<'a> {
    type Target = dyn Fabric + 'a;
    fn deref(&self) -> &(dyn Fabric + 'a) {
        match self {
            FabricSlot::Borrowed(f) => &**f,
            FabricSlot::Owned(b) => &**b,
        }
    }
}

impl<'a> std::ops::DerefMut for FabricSlot<'a> {
    fn deref_mut(&mut self) -> &mut (dyn Fabric + 'a) {
        match self {
            FabricSlot::Borrowed(f) => &mut **f,
            FabricSlot::Owned(b) => &mut **b,
        }
    }
}

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

/// Runs `app` on the paper's machine model with the given network
/// parameters. Fails with a typed [`SimError`] on deadlock, a blown
/// budget, cancellation, or a wiring bug — never panics, never hangs.
pub fn simulate(app: &Application, params: NetParams, cfg: &SimConfig) -> SimResult<RunReport> {
    let mut fabric = SimFabric::new(params);
    simulate_with_fabric(app, &mut fabric, cfg)
}

/// Runs `app` against an arbitrary fabric (the testbed emulator plugs in
/// here).
pub fn simulate_with_fabric(
    app: &Application,
    fabric: &mut dyn Fabric,
    cfg: &SimConfig,
) -> SimResult<RunReport> {
    let wall = Instant::now();
    let mut eng = Engine::new(AppRef::Borrowed(app), FabricSlot::Borrowed(fabric), cfg);
    eng.inject_starts();
    eng.recompute_cpu();
    eng.event_loop();
    eng.into_result(wall.elapsed())
}

/// Re-executes `app` in two phases for the replayer (see
/// [`crate::journal::replay_with_fabric`]): first up to the batch boundary
/// at or past `prefix` journal entries — the reconstructed intermediate
/// state, whose virtual time and step count are returned — then to
/// completion. Journal recording is forced on.
pub(crate) fn run_replay(
    app: &Application,
    fabric: &mut dyn Fabric,
    cfg: &SimConfig,
    prefix: usize,
) -> SimResult<(RunReport, SimTime, u64)> {
    let wall = Instant::now();
    let mut cfg = cfg.clone();
    cfg.record_journal = true;
    let mut eng = Engine::new(AppRef::Borrowed(app), FabricSlot::Borrowed(fabric), &cfg);
    eng.inject_starts();
    eng.recompute_cpu();
    eng.journal_limit = Some(prefix);
    eng.event_loop();
    let prefix_time = eng.now;
    let prefix_steps = eng.steps_executed;
    eng.journal_limit = None;
    eng.event_loop();
    let report = eng.into_result(wall.elapsed())?;
    Ok((report, prefix_time, prefix_steps))
}

pub(crate) struct Engine<'a> {
    app: AppRef<'a>,
    fabric: FabricSlot<'a>,
    cfg: SimConfig,
    now: SimTime,

    /// Dense server table, indexed `op * thread_count + thread` — every
    /// delivery, step completion, and action touches it, so it must not go
    /// through a tree or hash lookup.
    servers: Vec<Server>,
    thread_count: usize,
    active: ActiveSet,
    edge_seq: Vec<u64>,

    cpu: ProgressSet<u64>,
    jobs: FxHashMap<u64, JobInfo>,
    jobs_by_node: BTreeMap<NodeId, Vec<u64>>,
    /// Last processor-sharing rate assigned to each node's jobs; rates are
    /// only re-pushed into `cpu` when this changes.
    node_rate: FxHashMap<NodeId, f64>,
    /// Nodes whose job population changed since the last CPU recompute —
    /// their jobs need fresh rates even if the per-node rate is unchanged
    /// (a new job still carries rate 0).
    dirty_nodes: BTreeSet<NodeId>,
    next_job: u64,

    /// Recycled empty action buffers (segment bodies, pending queues).
    action_pool: Vec<VecDeque<Action>>,
    /// Recycled empty segment buffers (one per invocation).
    segment_pool: Vec<Vec<Segment>>,
    interner: Interner,
    /// Scratch for `recompute_cpu`'s affected-node list.
    node_scratch: Vec<NodeId>,

    inflight: FxHashMap<u64, Delivery>,
    transfer_meta: FxHashMap<u64, (NodeId, NodeId, u64, SimTime)>,

    windows: BTreeMap<OpId, Window>,
    fc_waiters: BTreeMap<OpId, VecDeque<ServerKey>>,

    timing: TimingState,
    meter: MemoryMeter,

    terminated: bool,
    completion: SimTime,
    steps_executed: u64,
    max_queue_len: usize,
    /// First typed failure observed; once set, the event loop halts and the
    /// run reports `Err` instead of a report.
    error: Option<SimError>,

    marks: Vec<(String, SimTime)>,
    intervals: Vec<Interval>,
    interval_start: SimTime,
    interval_work: SimDuration,
    total_work: SimDuration,
    node_seconds_acc: f64,
    cur_nodes: usize,
    last_alloc_change: SimTime,
    alloc_timeline: Vec<(SimTime, usize)>,

    /// Committed-event journal; present when the run records a journal
    /// and/or a trace (the trace is derived from it at the end of the run).
    journal: Option<Journal>,
    /// Stop the event loop once the journal holds at least this many
    /// entries (replay-to-prefix machinery; granularity is the enclosing
    /// event batch). Never set during plain `simulate` runs.
    journal_limit: Option<usize>,
    /// Event batches seen so far in which ≥ 2 steps finished at the same
    /// instant (drives [`SimConfig::tie_break_swap`]).
    tie_batches: u64,

    // ----- checkpoint machinery ------------------------------------------
    /// Completed transfers / finished CPU jobs not yet acted upon. The
    /// event loop buffers them so a pause can stop *between* same-instant
    /// events and a fork resumes with the remainder intact.
    pending_net: VecDeque<u64>,
    pending_jobs: VecDeque<u64>,
    /// Active pause predicate (checkpoint `run_until`); never set during
    /// plain `simulate` runs.
    pause: Option<PausePred>,
    /// Servers stopped by the predicate, their triggering object still at
    /// the head of their queue.
    paused: Vec<ServerKey>,
    /// Virtual-time ceiling (checkpoint `advance_until`); the loop stops
    /// before advancing past it.
    time_limit: Option<SimTime>,
}

impl<'a> Engine<'a> {
    fn new(app: AppRef<'a>, fabric: FabricSlot<'a>, cfg: &SimConfig) -> Engine<'a> {
        // The journal opens with the fabric's scheduled rate-window edits
        // (a fault plan's link degradations), so differing plans produce
        // differing streams from entry zero.
        let journal = if cfg.record_journal || cfg.record_trace {
            let mut j = Journal::new();
            for (node, up, down, from, to) in fabric.scheduled_windows() {
                j.push(
                    SimTime::ZERO,
                    JournalEvent::RateWindow {
                        node: node.0,
                        up_bits: up.to_bits(),
                        down_bits: down.to_bits(),
                        from: from.as_nanos(),
                        to: to.as_nanos(),
                    },
                );
            }
            Some(j)
        } else {
            None
        };
        let thread_count = app.deployment().thread_count();
        let active = ActiveSet::all_active(thread_count);
        let cur_nodes = active.allocated_nodes(app.deployment()).len();
        let windows = app
            .flow_controls()
            .map(|fc| (fc.source, Window::new(fc.window)))
            .collect();
        let servers = (0..app.graph().op_count() * thread_count)
            .map(|_| Server {
                op: None,
                queue: VecDeque::new(),
                run: None,
            })
            .collect();
        let edge_count = app.graph().edge_count();
        Engine {
            app,
            fabric,
            cfg: cfg.clone(),
            now: SimTime::ZERO,
            servers,
            thread_count,
            active,
            edge_seq: vec![0; edge_count],
            cpu: ProgressSet::new(),
            jobs: FxHashMap::default(),
            jobs_by_node: BTreeMap::new(),
            node_rate: FxHashMap::default(),
            dirty_nodes: BTreeSet::new(),
            next_job: 0,
            action_pool: Vec::new(),
            segment_pool: Vec::new(),
            interner: Interner::default(),
            node_scratch: Vec::new(),
            inflight: FxHashMap::default(),
            transfer_meta: FxHashMap::default(),
            windows,
            fc_waiters: BTreeMap::new(),
            timing: TimingState::new(),
            meter: MemoryMeter::new(cfg.baseline_memory),
            terminated: false,
            completion: SimTime::ZERO,
            steps_executed: 0,
            max_queue_len: 0,
            error: None,
            marks: Vec::new(),
            intervals: Vec::new(),
            interval_start: SimTime::ZERO,
            interval_work: SimDuration::ZERO,
            total_work: SimDuration::ZERO,
            node_seconds_acc: 0.0,
            cur_nodes,
            last_alloc_change: SimTime::ZERO,
            alloc_timeline: vec![(SimTime::ZERO, cur_nodes)],
            journal,
            journal_limit: None,
            tie_batches: 0,
            pending_net: VecDeque::new(),
            pending_jobs: VecDeque::new(),
            pause: None,
            paused: Vec::new(),
            time_limit: None,
        }
    }

    fn inject_starts(&mut self) {
        let app = self.app.clone_ref();
        for s in app.starts() {
            let obj = (s.make)();
            self.meter.alloc(obj.heap_bytes());
            self.enqueue_delivery(s.op, s.thread, obj);
        }
    }

    // ----- event loop ---------------------------------------------------

    fn event_loop(&mut self) {
        while self.step_events() {}
    }

    /// Acts on every buffered event, then advances virtual time to the next
    /// one. Returns `false` when the run is over (terminated, quiescent,
    /// step budget blown) or stopped by the checkpoint machinery (pause
    /// predicate fired, time limit reached) — in the stopped cases the
    /// un-acted-on events stay buffered and a later call resumes exactly
    /// where this one left off.
    fn step_events(&mut self) -> bool {
        if self.terminated || self.error.is_some() {
            return false;
        }
        // Replay-to-prefix: stop at the first batch boundary at or past the
        // requested journal length. Buffered events stay put; clearing the
        // limit resumes exactly here.
        if self
            .journal_limit
            .is_some_and(|lim| self.journal.as_ref().is_some_and(|j| j.len() >= lim))
        {
            return false;
        }
        if self
            .cfg
            .cancel
            .as_ref()
            .is_some_and(CancelToken::is_cancelled)
        {
            self.fail(SimError::new(crate::error::SimErrorKind::Cancelled {
                at: self.now,
                steps: self.steps_executed,
            }));
            return false;
        }
        // Network first: arrivals may start new computations at `now`.
        while let Some(handle) = self.pending_net.pop_front() {
            self.deliver_transfer(handle);
            if self.terminated {
                self.completion = self.now;
                return false;
            }
            if !self.paused.is_empty() {
                return false;
            }
        }
        // Then completed atomic steps.
        while let Some(job) = self.pending_jobs.pop_front() {
            self.complete_job(job);
            if self.terminated {
                self.completion = self.now;
                return false;
            }
            if self.error.is_some() || !self.paused.is_empty() {
                return false;
            }
        }
        self.recompute_cpu();
        if self.steps_executed > self.cfg.max_steps {
            self.terminated = false;
            self.fail(SimError::new(crate::error::SimErrorKind::BudgetExceeded {
                kind: BudgetKind::Steps,
                at: self.now,
                steps: self.steps_executed,
            }));
            return false;
        }
        let t_net = self.fabric.next_event_time();
        let t_cpu = self.cpu.earliest_completion().map(|(_, t)| t);
        let t = match (t_net, t_cpu) {
            (None, None) => {
                self.completion = self.now;
                return false;
            }
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (Some(a), Some(b)) => a.min(b),
        };
        debug_assert!(t >= self.now);
        if self.cfg.max_virtual_time.is_some_and(|lim| t > lim) {
            self.fail(SimError::new(crate::error::SimErrorKind::BudgetExceeded {
                kind: BudgetKind::VirtualTime,
                at: self.now,
                steps: self.steps_executed,
            }));
            return false;
        }
        if self.time_limit.is_some_and(|lim| t > lim) {
            return false;
        }
        self.now = t;
        let arrived = self.fabric.advance(t);
        self.pending_net.extend(arrived);
        self.pending_jobs.extend(self.cpu.take_finished(t));
        // Fuzzing hook: perturb the job-id tie-break of one same-instant
        // completion batch (see `SimConfig::tie_break_swap`).
        if let Some(n) = self.cfg.tie_break_swap {
            if self.pending_jobs.len() >= 2 {
                if self.tie_batches == n {
                    self.pending_jobs.swap(0, 1);
                }
                self.tie_batches += 1;
            }
        }
        true
    }

    /// Appends one committed event to the journal, if one is being
    /// recorded, stamped with the current virtual time.
    #[inline]
    fn jot(&mut self, event: JournalEvent) {
        if let Some(j) = &mut self.journal {
            j.push(self.now, event);
        }
    }

    // ----- CPU model ------------------------------------------------------

    fn recompute_cpu(&mut self) {
        // Only two things move a node's per-job rate: its job population
        // (tracked in `dirty_nodes`) and its communication load (reported
        // by the fabric). When the fabric can enumerate the latter, the
        // per-event cost is O(nodes that changed); otherwise fall back to
        // scanning every node with jobs.
        let mut affected = std::mem::take(&mut self.node_scratch);
        affected.clear();
        if self.fabric.comm_dirty_nodes(&mut affected) {
            affected.extend(self.dirty_nodes.iter().copied());
            affected.sort_unstable();
            affected.dedup();
        } else {
            affected.clear();
            affected.extend(self.jobs_by_node.keys().copied());
        }
        for &node in &affected {
            self.update_node_rate(node);
        }
        self.node_scratch = affected;
        self.dirty_nodes.clear();
    }

    /// Recomputes one node's processor-sharing rate and pushes it to the
    /// node's jobs if it moved (or the population changed).
    fn update_node_rate(&mut self, node: NodeId) {
        let now = self.now;
        let Some(jobs) = self.jobs_by_node.get(&node) else {
            self.node_rate.remove(&node);
            return;
        };
        if jobs.is_empty() {
            self.node_rate.remove(&node);
            return;
        }
        let k = jobs.len();
        let avail = self.fabric.cpu_available(node);
        let rate = avail / (k as f64 * self.fabric.sharing_penalty(k));
        // Rates only need re-pushing when the node's share actually moved
        // or its job population changed; otherwise every live job already
        // drains at `rate` and touching it would cost a settle + heap push
        // per job per event.
        let unchanged = self.node_rate.get(&node) == Some(&rate);
        if unchanged && !self.dirty_nodes.contains(&node) {
            return;
        }
        self.node_rate.insert(node, rate);
        for &j in jobs {
            self.cpu.set_rate(now, j, rate);
        }
    }

    // ----- server machinery ----------------------------------------------

    fn sidx(&self, key: ServerKey) -> usize {
        key.0 .0 as usize * self.thread_count + key.1 .0 as usize
    }

    fn server_mut(&mut self, key: ServerKey) -> &mut Server {
        let i = self.sidx(key);
        &mut self.servers[i]
    }

    fn enqueue_delivery(&mut self, op: OpId, thread: ThreadId, obj: DataObj) {
        let (qlen, idle) = {
            let server = self.server_mut((op, thread));
            server.queue.push_back(obj);
            (server.queue.len(), server.run.is_none())
        };
        self.max_queue_len = self.max_queue_len.max(qlen);
        if idle {
            self.start_invocations((op, thread));
        }
    }

    fn deliver_transfer(&mut self, handle: u64) {
        let d = self
            .inflight
            .remove(&handle)
            .expect("unknown transfer completed");
        if let Some((src, dst, bytes, start)) = self.transfer_meta.remove(&handle) {
            self.jot(JournalEvent::Arrive {
                to: d.to.0,
                thread: d.thread.0,
                src: src.0,
                dst: dst.0,
                wire_bytes: bytes,
                start: start.as_nanos(),
            });
        }
        self.enqueue_delivery(d.to, d.thread, d.obj);
    }

    /// Consumes queued objects until one produces atomic steps (or the
    /// queue drains). Runs the operation's Rust code, decomposing it into
    /// segments.
    fn start_invocations(&mut self, key: ServerKey) {
        loop {
            // Checkpoint pause: consult the predicate *before* consuming, so
            // the triggering object is still queued in the snapshot and the
            // operation's code has not yet run.
            if let Some(mut pred) = self.pause.take() {
                let hit = {
                    let server = &self.servers[self.sidx(key)];
                    match server.queue.front() {
                        Some(obj) if server.run.is_none() => pred(&PausePoint {
                            op: key.0,
                            thread: key.1,
                            obj: obj.as_ref(),
                            state: server.op.as_deref(),
                        }),
                        _ => false,
                    }
                };
                self.pause = Some(pred);
                if hit {
                    if !self.paused.contains(&key) {
                        self.paused.push(key);
                    }
                    return;
                }
            }
            // Take what we need out of the server to keep borrows disjoint.
            let (obj, op) = {
                let server = self.server_mut(key);
                debug_assert!(server.run.is_none());
                let Some(obj) = server.queue.pop_front() else {
                    return;
                };
                let op = server.op.take();
                (obj, op)
            };
            let mut op = op.unwrap_or_else(|| self.app.make_op(key.0, key.1));
            let consumed_heap = obj.heap_bytes();
            // Reserve the invocation's first job id at dispatch, before the
            // operation's code runs: the journal's Invoke record carries it
            // as the ticket. (`CollectCtx::finish` guarantees at least one
            // segment per invocation, so the id is always consumed.)
            let ticket = self.next_job;
            self.next_job += 1;
            self.jot(JournalEvent::Invoke {
                ticket,
                op: key.0 .0,
                thread: key.1 .0,
                obj_bytes: consumed_heap,
            });

            let mut ctx = CollectCtx {
                now: self.now,
                op_id: key.0,
                thread: key.1,
                deployment: self.app.deployment(),
                active: &self.active,
                mode: self.cfg.timing,
                overhead: self.cfg.step_overhead,
                timing: &mut self.timing,
                segments: self.segment_pool.pop().unwrap_or_default(),
                cur_actions: self.action_pool.pop().unwrap_or_default(),
                pool: &mut self.action_pool,
                interner: &mut self.interner,
                cur_charge: None,
                seg_idx: 0,
                sw: Stopwatch::for_mode(self.cfg.timing),
            };
            op.on_object(obj, &mut ctx);
            let (segments, spare) = ctx.finish();
            self.recycle_actions(spare);

            let pending = self.action_pool.pop().unwrap_or_default();
            let server = self.server_mut(key);
            server.op = Some(op);

            if segments.is_empty() {
                self.segment_pool.push(segments);
                self.action_pool.push(pending);
                self.meter.free(consumed_heap);
                continue; // next queued object, same virtual instant
            }
            server.run = Some(RunState {
                consumed_heap,
                segments,
                next_seg: 0,
                pending,
            });
            self.begin_segment(key, Some(ticket));
            return;
        }
    }

    /// Starts the next recorded segment as a CPU job, or finishes the
    /// invocation when none remain. An invocation's first segment runs
    /// under the job id reserved at dispatch (`ticket`); later segments
    /// allocate theirs here.
    fn begin_segment(&mut self, key: ServerKey, ticket: Option<u64>) {
        let node = self.app.deployment().node_of(key.1);
        let server = self.server_mut(key);
        let run = server.run.as_mut().expect("running invocation");
        debug_assert!(run.pending.is_empty());
        if let Some(seg) = run.segments.get_mut(run.next_seg) {
            run.next_seg += 1;
            let nominal = seg.work;
            let actions = std::mem::take(&mut seg.actions);
            let work = self.fabric.compute_time(node, nominal);
            let job = ticket.unwrap_or_else(|| {
                let j = self.next_job;
                self.next_job += 1;
                j
            });
            self.cpu.insert(self.now, job, work.as_secs_f64());
            self.jobs.insert(
                job,
                JobInfo {
                    server: key,
                    node,
                    start: self.now,
                    work,
                    actions,
                },
            );
            self.jobs_by_node.entry(node).or_default().push(job);
            self.dirty_nodes.insert(node);
        } else {
            let heap = run.consumed_heap;
            let run = server.run.take().expect("running invocation");
            self.recycle_segments(run.segments);
            self.recycle_actions(run.pending);
            self.meter.free(heap);
            if !self.server_mut(key).queue.is_empty() {
                self.start_invocations(key);
            }
        }
    }

    fn recycle_actions(&mut self, mut buf: VecDeque<Action>) {
        if self.action_pool.len() < POOL_CAP {
            buf.clear();
            self.action_pool.push(buf);
        }
    }

    fn recycle_segments(&mut self, mut buf: Vec<Segment>) {
        if self.segment_pool.len() < POOL_CAP {
            buf.clear();
            self.segment_pool.push(buf);
        }
    }

    fn complete_job(&mut self, job: u64) {
        let info = self.jobs.remove(&job).expect("unknown job");
        if let Some(v) = self.jobs_by_node.get_mut(&info.node) {
            v.retain(|&j| j != job);
        }
        self.dirty_nodes.insert(info.node);
        self.steps_executed += 1;
        self.interval_work += info.work;
        self.total_work += info.work;
        self.jot(JournalEvent::Step {
            job,
            op: info.server.0 .0,
            thread: info.server.1 .0,
            node: info.node.0,
            start: info.start.as_nanos(),
            work: info.work.as_nanos(),
        });
        let key = info.server;
        let server = self.server_mut(key);
        let run = server.run.as_mut().expect("invocation in progress");
        let old = std::mem::replace(&mut run.pending, info.actions);
        self.recycle_actions(old);
        self.process_pending(key);
    }

    /// Executes the finalized segment's actions; stops early if a post
    /// blocks on a flow-control credit. When all actions are done, moves to
    /// the next segment.
    fn process_pending(&mut self, key: ServerKey) {
        loop {
            let action = {
                let server = self.server_mut(key);
                let run = server.run.as_mut().expect("invocation in progress");
                match run.pending.pop_front() {
                    Some(a) => a,
                    None => break,
                }
            };
            match action {
                Action::Post { to, obj } => {
                    // Flow control: a post from a windowed op needs a credit.
                    if let Some(w) = self.windows.get_mut(&key.0) {
                        if !w.try_acquire() {
                            // Park: put the post back and wait for a credit.
                            let server = self.server_mut(key);
                            server
                                .run
                                .as_mut()
                                .expect("invocation in progress")
                                .pending
                                .push_front(Action::Post { to, obj });
                            self.fc_waiters.entry(key.0).or_default().push_back(key);
                            return;
                        }
                    }
                    self.do_post(key, to, obj);
                }
                Action::Mark(label) => self.record_mark(&label),
                Action::Deactivate(t) => self.deactivate(t),
                Action::Release(op) => self.release_credit(op),
                Action::Account(delta) => {
                    self.jot(JournalEvent::Account { delta });
                    self.meter.adjust(delta);
                }
                Action::Terminate => {
                    self.jot(JournalEvent::Terminate);
                    self.terminated = true;
                    self.completion = self.now;
                    return;
                }
            }
            if self.terminated || self.error.is_some() {
                return;
            }
        }
        self.begin_segment(key, None);
    }

    /// Records the first typed failure; the event loop halts on it and the
    /// run reports `Err` from [`Engine::into_result`].
    fn fail(&mut self, err: SimError) {
        if self.error.is_none() {
            self.error = Some(err);
        }
        self.completion = self.now;
    }

    fn do_post(&mut self, from: ServerKey, to: OpId, obj: DataObj) {
        let edge = match self.app.graph().edge_between(from.0, to) {
            Some(e) => e,
            None => {
                let from_name = self.app.graph().op(from.0).name.clone();
                let to_name = self.app.graph().op(to).name.clone();
                self.fail(SimError::wiring(
                    from_name,
                    format!("posted to '{to_name}' but the flow graph has no such edge"),
                ));
                return;
            }
        };
        let seq = self.edge_seq[edge.0 as usize];
        self.edge_seq[edge.0 as usize] += 1;
        let dst_thread = {
            let ctx = RouteCtx {
                src_thread: from.1,
                edge_seq: seq,
                deployment: self.app.deployment(),
                active: &self.active,
            };
            (self.app.router(edge))(obj.as_ref(), &ctx)
        };
        self.meter.alloc(obj.heap_bytes());
        let src_node = self.app.deployment().node_of(from.1);
        let dst_node = self.app.deployment().node_of(dst_thread);
        let local = src_node == dst_node;
        self.jot(JournalEvent::Post {
            op: from.0 .0,
            thread: from.1 .0,
            to: to.0,
            dst_thread: dst_thread.0,
            wire_bytes: obj.wire_size(),
            local: local as u32,
        });
        if local {
            // Node-local move: pointer passing, no network involvement.
            self.enqueue_delivery(to, dst_thread, obj);
        } else {
            let bytes = obj.wire_size();
            let handle = self
                .fabric
                .start_transfer(self.now, src_node, dst_node, bytes);
            if self.journal.is_some() {
                self.transfer_meta
                    .insert(handle, (src_node, dst_node, bytes, self.now));
            }
            self.inflight.insert(
                handle,
                Delivery {
                    to,
                    thread: dst_thread,
                    obj,
                },
            );
        }
    }

    fn release_credit(&mut self, op: OpId) {
        let Some(w) = self.windows.get_mut(&op) else {
            let name = self.app.graph().op(op).name.clone();
            self.fail(SimError::wiring(
                name,
                "fc_release for an operation without a flow-control window",
            ));
            return;
        };
        w.release();
        self.jot(JournalEvent::Release { op: op.0 });
        if let Some(waiters) = self.fc_waiters.get_mut(&op) {
            if let Some(key) = waiters.pop_front() {
                self.process_pending(key);
            }
        }
    }

    fn record_mark(&mut self, label: &str) {
        if let Some(j) = &mut self.journal {
            let idx = j.intern_label(label);
            j.push(self.now, JournalEvent::Mark { label: idx });
        }
        self.flush_node_seconds();
        self.intervals.push(Interval {
            label: label.to_string(),
            start: self.interval_start,
            end: self.now,
            cpu_work: self.interval_work,
            node_seconds: self.node_seconds_acc,
        });
        self.marks.push((label.to_string(), self.now));
        self.interval_start = self.now;
        self.interval_work = SimDuration::ZERO;
        self.node_seconds_acc = 0.0;
    }

    fn flush_node_seconds(&mut self) {
        let span = (self.now - self.last_alloc_change).as_secs_f64();
        self.node_seconds_acc += span * self.cur_nodes as f64;
        self.last_alloc_change = self.now;
    }

    fn deactivate(&mut self, t: ThreadId) {
        self.jot(JournalEvent::Deactivate { thread: t.0 });
        self.flush_node_seconds();
        self.active.deactivate(t);
        let nodes = self.active.allocated_nodes(self.app.deployment()).len();
        if nodes != self.cur_nodes {
            self.cur_nodes = nodes;
            self.alloc_timeline.push((self.now, nodes));
        }
    }

    // ----- checkpoint machinery ------------------------------------------

    /// An engine that owns its application and fabric, for checkpoints.
    pub(crate) fn new_owned(
        app: Arc<Application>,
        fabric: Box<dyn Fabric + Send>,
        cfg: &SimConfig,
    ) -> Engine<'static> {
        let mut eng = Engine::new(AppRef::Shared(app), FabricSlot::Owned(fabric), cfg);
        eng.inject_starts();
        eng.recompute_cpu();
        eng
    }

    /// Runs until the next event would land past `limit` (leaving `now` at
    /// the last event at or before it). Returns `true` while the run still
    /// has work left, `false` once it terminated or went quiescent.
    pub(crate) fn drive_until(&mut self, limit: SimTime) -> bool {
        self.time_limit = Some(limit);
        self.resume_paused();
        if self.paused.is_empty() {
            self.event_loop();
        }
        self.time_limit = None;
        !self.terminated && self.has_pending_work()
    }

    /// Runs until `pred` pauses a server about to consume an object.
    /// Returns `true` if the predicate fired, `false` if the run finished
    /// first.
    pub(crate) fn drive_with_pause(&mut self, pred: PausePred) -> bool {
        self.pause = Some(pred);
        self.resume_paused();
        if self.paused.is_empty() {
            self.event_loop();
        }
        self.pause = None;
        !self.paused.is_empty()
    }

    /// Runs to completion and produces the report; `host_wall` is the
    /// caller-accumulated host cost of all drive phases.
    pub(crate) fn finish_run(mut self, host_accum: std::time::Duration) -> SimResult<RunReport> {
        let wall = Instant::now();
        self.resume_paused();
        self.event_loop();
        self.into_result(host_accum + wall.elapsed())
    }

    /// Re-attempts consumption at servers stopped by a pause predicate.
    /// With a new predicate in place some may immediately pause again (and
    /// block the rest); with none they consume and the run proceeds.
    fn resume_paused(&mut self) {
        let keys = std::mem::take(&mut self.paused);
        for key in keys {
            if !self.paused.is_empty() {
                // A fresh pause already fired; keep the rest parked.
                self.paused.push(key);
                continue;
            }
            if self.servers[self.sidx(key)].run.is_none() {
                self.start_invocations(key);
            }
        }
    }

    fn has_pending_work(&mut self) -> bool {
        !self.pending_net.is_empty()
            || !self.pending_jobs.is_empty()
            || !self.paused.is_empty()
            || self.cpu.earliest_completion().is_some()
            || self.fabric.next_event_time().is_some()
    }

    pub(crate) fn current_time(&self) -> SimTime {
        self.now
    }

    /// Committed atomic steps so far — the deterministic cost metric
    /// (surfaced as `RunReport::steps` at the end of a run).
    pub(crate) fn steps(&self) -> u64 {
        self.steps_executed
    }

    /// Mutable `Any` view of one server's behaviour state, for divergence
    /// rewrites in forks (see [`Operation::as_any_mut`]). `None` when the
    /// operation never ran or opted out.
    pub(crate) fn op_state_mut(
        &mut self,
        op: OpId,
        thread: ThreadId,
    ) -> Option<&mut dyn std::any::Any> {
        let i = self.sidx((op, thread));
        self.servers[i].op.as_mut()?.as_any_mut()
    }

    /// A fully independent deep copy of the running simulation, sharing
    /// only immutable structure (the application, interned labels) with the
    /// original. `None` when any live payload, behaviour state, or the
    /// fabric does not support cloning — callers then fall back to a fresh
    /// run.
    pub(crate) fn try_fork(&mut self) -> Option<Engine<'a>> {
        let fabric = self.fabric.fork_fabric()?;
        let servers = self
            .servers
            .iter()
            .map(Server::try_clone)
            .collect::<Option<Vec<_>>>()?;
        let jobs = self
            .jobs
            .iter()
            .map(|(&id, j)| Some((id, j.try_clone()?)))
            .collect::<Option<FxHashMap<_, _>>>()?;
        let inflight = self
            .inflight
            .iter()
            .map(|(&h, d)| {
                Some((
                    h,
                    Delivery {
                        to: d.to,
                        thread: d.thread,
                        obj: d.obj.clone_obj()?,
                    },
                ))
            })
            .collect::<Option<FxHashMap<_, _>>>()?;
        Some(Engine {
            app: self.app.clone_ref(),
            fabric: FabricSlot::Owned(fabric),
            cfg: self.cfg.clone(),
            now: self.now,
            servers,
            thread_count: self.thread_count,
            active: self.active.clone(),
            edge_seq: self.edge_seq.clone(),
            cpu: self.cpu.snapshot(),
            jobs,
            jobs_by_node: self.jobs_by_node.clone(),
            node_rate: self.node_rate.clone(),
            dirty_nodes: self.dirty_nodes.clone(),
            next_job: self.next_job,
            action_pool: Vec::new(),
            segment_pool: Vec::new(),
            interner: self.interner.clone(),
            node_scratch: Vec::new(),
            inflight,
            transfer_meta: self.transfer_meta.clone(),
            windows: self.windows.clone(),
            fc_waiters: self.fc_waiters.clone(),
            timing: self.timing.clone(),
            meter: self.meter,
            terminated: self.terminated,
            completion: self.completion,
            steps_executed: self.steps_executed,
            max_queue_len: self.max_queue_len,
            error: self.error.clone(),
            marks: self.marks.clone(),
            intervals: self.intervals.clone(),
            interval_start: self.interval_start,
            interval_work: self.interval_work,
            total_work: self.total_work,
            node_seconds_acc: self.node_seconds_acc,
            cur_nodes: self.cur_nodes,
            last_alloc_change: self.last_alloc_change,
            alloc_timeline: self.alloc_timeline.clone(),
            // The fork inherits the parent's committed prefix and keeps
            // appending — a forked continuation's journal is comparable
            // entry-for-entry against an uninterrupted fresh run's.
            journal: self.journal.clone(),
            journal_limit: None,
            tie_batches: self.tie_batches,
            pending_net: self.pending_net.clone(),
            pending_jobs: self.pending_jobs.clone(),
            pause: None,
            paused: self.paused.clone(),
            time_limit: None,
        })
    }

    // ----- reporting -----------------------------------------------------

    /// Objects queued at `op` across every thread.
    fn queued_at(&self, op: OpId) -> usize {
        let base = op.0 as usize * self.thread_count;
        self.servers[base..base + self.thread_count]
            .iter()
            .map(|s| s.queue.len())
            .sum()
    }

    /// Builds the wait-for diagnostic when the event queue drained with
    /// pending work. `None` on clean quiescence (an application that simply
    /// never called `terminate` but left no residual state).
    fn deadlock_diagnostic(&self) -> Option<DeadlockDiag> {
        if self.terminated {
            return None;
        }
        let mut queued = 0usize;
        let mut running = 0usize;
        for s in &self.servers {
            queued += s.queue.len();
            if s.run.is_some() {
                running += 1;
            }
        }
        let blocked_count: usize = self.fc_waiters.values().map(|w| w.len()).sum();
        if queued == 0 && running == 0 && self.inflight.is_empty() && blocked_count == 0 {
            return None; // clean quiescence without explicit terminate
        }
        // Wait-for graph over flow-control windows: each parked server
        // waits on a credit for its own window while its parked post
        // targets another operation — edge `blocked op -> post target`.
        let graph = self.app.graph();
        let mut blocked = Vec::new();
        let mut edges: BTreeMap<OpId, Vec<OpId>> = BTreeMap::new();
        for (&op, waiters) in &self.fc_waiters {
            for &key in waiters {
                let server = &self.servers[self.sidx(key)];
                let target = server
                    .run
                    .as_ref()
                    .and_then(|r| r.pending.front())
                    .and_then(|a| match a {
                        Action::Post { to, .. } => Some(*to),
                        _ => None,
                    });
                let (waiting_on, dest_queued) = match target {
                    Some(to) => {
                        edges.entry(op).or_default().push(to);
                        (graph.op(to).name.clone(), self.queued_at(to))
                    }
                    None => ("<unknown>".to_string(), 0),
                };
                let w = &self.windows[&op];
                blocked.push(BlockedOp {
                    op: graph.op(op).name.clone(),
                    thread: key.1 .0,
                    window: w.limit(),
                    in_flight: w.in_flight(),
                    waiting_on,
                    dest_queued,
                });
            }
        }
        let cycle = find_wait_cycle(&edges)
            .map(|ops| {
                ops.into_iter()
                    .map(|op| graph.op(op).name.clone())
                    .collect()
            })
            .unwrap_or_default();
        Some(DeadlockDiag {
            at: self.now,
            blocked,
            cycle,
            queued_objects: queued,
            busy_servers: running,
            inflight_transfers: self.inflight.len(),
        })
    }

    /// The typed failure recorded so far, if any — checkpoints poll this
    /// after every drive phase.
    pub(crate) fn error(&self) -> Option<&SimError> {
        self.error.as_ref()
    }

    fn into_result(mut self, host_wall: std::time::Duration) -> SimResult<RunReport> {
        if let Some(err) = self.error.take() {
            return Err(err);
        }
        if let Some(diag) = self.deadlock_diagnostic() {
            return Err(SimError::deadlock(diag));
        }
        // Close the trailing interval.
        self.flush_node_seconds();
        self.intervals.push(Interval {
            label: "end".to_string(),
            start: self.interval_start,
            end: self.now,
            cpu_work: self.interval_work,
            node_seconds: self.node_seconds_acc,
        });
        // The Gantt/chrome trace is a derived view of the journal.
        let journal = self.journal.take();
        let trace = if self.cfg.record_trace {
            journal
                .as_ref()
                .map(|j| crate::journal::trace_from_journal(j, &self.app))
        } else {
            None
        };
        Ok(RunReport {
            completion: self.completion,
            terminated: self.terminated,
            marks: self.marks,
            intervals: self.intervals,
            total_cpu_work: self.total_work,
            alloc_timeline: self.alloc_timeline,
            mem_peak_bytes: self.meter.peak_bytes(),
            steps: self.steps_executed,
            max_queue_len: self.max_queue_len,
            net: self.fabric.net_stats(),
            host_wall,
            trace,
            journal: if self.cfg.record_journal {
                journal
            } else {
                None
            },
        })
    }
}

/// Finds a directed cycle among the flow-control-blocked operations
/// (DFS three-colouring); only ops that are themselves blocked can extend
/// a cycle.
fn find_wait_cycle(edges: &BTreeMap<OpId, Vec<OpId>>) -> Option<Vec<OpId>> {
    fn dfs(
        op: OpId,
        edges: &BTreeMap<OpId, Vec<OpId>>,
        state: &mut BTreeMap<OpId, u8>, // 1 = on stack, 2 = done
        stack: &mut Vec<OpId>,
    ) -> Option<Vec<OpId>> {
        state.insert(op, 1);
        stack.push(op);
        if let Some(nexts) = edges.get(&op) {
            for &next in nexts {
                match state.get(&next) {
                    Some(1) => {
                        let start = stack.iter().position(|&o| o == next).unwrap_or(0);
                        return Some(stack[start..].to_vec());
                    }
                    Some(_) => {}
                    None => {
                        if edges.contains_key(&next) {
                            if let Some(c) = dfs(next, edges, state, stack) {
                                return Some(c);
                            }
                        }
                    }
                }
            }
        }
        stack.pop();
        state.insert(op, 2);
        None
    }
    let mut state = BTreeMap::new();
    let mut stack = Vec::new();
    for &op in edges.keys() {
        if !state.contains_key(&op) {
            if let Some(c) = dfs(op, edges, &mut state, &mut stack) {
                return Some(c);
            }
            stack.clear();
        }
    }
    None
}

// ----- atomic-step collection ---------------------------------------------

struct CollectCtx<'a> {
    now: SimTime,
    op_id: OpId,
    thread: ThreadId,
    deployment: &'a dps::Deployment,
    active: &'a ActiveSet,
    mode: TimingMode,
    overhead: SimDuration,
    timing: &'a mut TimingState,
    segments: Vec<Segment>,
    cur_actions: VecDeque<Action>,
    /// Recycled empty action buffers to refill `cur_actions` from.
    pool: &'a mut Vec<VecDeque<Action>>,
    interner: &'a mut Interner,
    cur_charge: Option<SimDuration>,
    seg_idx: u32,
    sw: Stopwatch,
}

impl<'a> CollectCtx<'a> {
    fn close_segment(&mut self, closing: Option<Action>) {
        let measured = self.sw.lap();
        let work = self.timing.step_duration(
            self.mode,
            self.op_id,
            self.seg_idx,
            self.cur_charge.take(),
            measured,
        ) + self.overhead;
        self.seg_idx += 1;
        let mut actions =
            std::mem::replace(&mut self.cur_actions, self.pool.pop().unwrap_or_default());
        if let Some(a) = closing {
            actions.push_back(a);
        }
        self.segments.push(Segment { work, actions });
    }

    /// Returns the collected segments and the unused action buffer (for the
    /// engine to recycle).
    fn finish(mut self) -> (Vec<Segment>, VecDeque<Action>) {
        // Trailing segment: only if it does something or costs something.
        let measured = self.sw.lap();
        let work = self.timing.step_duration(
            self.mode,
            self.op_id,
            self.seg_idx,
            self.cur_charge.take(),
            measured,
        );
        if !self.cur_actions.is_empty() || !work.is_zero() || self.segments.is_empty() {
            // Every object consumption costs at least the dispatch overhead,
            // even if the operation body did nothing observable (e.g. a
            // merge that only counted an arrival).
            let actions = std::mem::take(&mut self.cur_actions);
            self.segments.push(Segment {
                work: work + self.overhead,
                actions,
            });
        }
        (self.segments, self.cur_actions)
    }
}

impl<'a> OpCtx for CollectCtx<'a> {
    fn post(&mut self, to: OpId, obj: DataObj) {
        self.close_segment(Some(Action::Post { to, obj }));
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
        let label = self.interner.intern(label);
        self.cur_actions.push_back(Action::Mark(label));
    }

    fn deactivate_thread(&mut self, t: ThreadId) {
        self.cur_actions.push_back(Action::Deactivate(t));
    }

    fn fc_release(&mut self, source: OpId) {
        self.cur_actions.push_back(Action::Release(source));
    }

    fn account_state(&mut self, delta_bytes: i64) {
        self.cur_actions.push_back(Action::Account(delta_bytes));
    }

    fn terminate(&mut self) {
        self.cur_actions.push_back(Action::Terminate);
    }
}
