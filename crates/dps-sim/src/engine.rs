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
//!   (partial direct execution) — see [`crate::TimingMode`].
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

use std::collections::{BTreeMap, VecDeque};
use std::ops::{Deref, DerefMut};
use std::time::Instant;

use desim::journal::{Journal, JournalEvent};
use desim::SimTime;
use dps::{ActiveSet, Application, DataObj, OpId, Operation, RouteCtx, ThreadId, Window};
use faults::FaultPlan;
use netmodel::{NetParams, NodeId};

use crate::accounting::Accounting;
use crate::collect::{Action, Buffers, CollectCtx, Invocation};
use crate::control::RunControl;
use crate::cpu::{CpuModel, StepInfo};
use crate::error::{find_wait_cycle, BlockedOp, DeadlockDiag, SimError, SimErrorKind, SimResult};
use crate::fabric::{Fabric, SimFabric};
use crate::memory::MemoryMeter;
use crate::report::RunReport;

pub use crate::config::SimConfig;
pub use crate::control::{PausePoint, PausePred};

pub(crate) type ServerKey = (OpId, ThreadId);

/// Node ids an engine accepts are below this. The per-node tables (the
/// processors, the network's ports, the progress sets' group indexes) are
/// indexed by node id, so a larger one would balloon them.
pub const NODE_ID_LIMIT: u64 = 1 << 16;

/// One *(operation, thread)* pair: a sequential server with a FIFO queue.
#[derive(Default)]
struct Server {
    op: Option<Box<dyn Operation>>,
    queue: VecDeque<DataObj>,
    run: Option<Invocation>,
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
            Some(r) => Some(r.try_clone()?),
            None => None,
        };
        Some(Server { op, queue, run })
    }
}

/// A data object crossing the network: where it is going, and what the
/// journal's `Arrive` record will say about how it got there.
struct Delivery {
    to: OpId,
    thread: ThreadId,
    obj: DataObj,
    src: NodeId,
    dst: NodeId,
    wire_bytes: u64,
    start: SimTime,
}

impl Delivery {
    fn try_clone(&self) -> Option<Delivery> {
        Some(Delivery {
            obj: self.obj.clone_obj()?,
            ..*self
        })
    }
}

/// Runs `app` on the paper's machine model with the given network
/// parameters. Fails with a typed [`SimError`] on invalid parameters,
/// deadlock, a blown step budget, or a wiring bug — never panics, never
/// hangs.
pub fn simulate(app: &Application, params: NetParams, cfg: &SimConfig) -> SimResult<RunReport> {
    let mut fabric = SimFabric::with_plan(params, &FaultPlan::none())?;
    simulate_with_fabric(app, &mut fabric, cfg)
}

/// Runs `app` against an arbitrary fabric (the testbed emulator plugs in
/// here). [`simulate`] calls it with the concrete [`SimFabric`], so its
/// event loop calls the fabric directly rather than through a `dyn Fabric`.
pub fn simulate_with_fabric<M: Fabric + ?Sized>(
    app: &Application,
    fabric: &mut M,
    cfg: &SimConfig,
) -> SimResult<RunReport> {
    let wall = Instant::now();
    let mut eng = Engine::start(app, fabric, cfg);
    eng.resume();
    eng.into_result(wall.elapsed())
}

/// The DPS runtime — servers, queues, routing, flow control, deliveries —
/// and the event loop that advances it together with the components that
/// own the rest of the state: the fabric (network), the [`CpuModel`], the
/// [`Accounting`] books and the [`RunControl`].
///
/// Plain runs borrow the application and the fabric from the caller
/// (`A = &Application`, `F = &mut SimFabric` or `&mut dyn Fabric`);
/// checkpoints, which outlive the calling frame and hand copies to forks,
/// own them (`A = Arc<Application>`, `F = Box<SimFabric>`).
pub(crate) struct Engine<A, F> {
    app: A,
    fabric: F,
    cpu: CpuModel,
    acct: Accounting,
    /// How far the loop may run; checkpoints set its limits between
    /// [`Engine::resume`] calls.
    pub(crate) control: RunControl,
    /// Committed-event journal; present when the run records one.
    journal: Option<Journal>,
    cfg: SimConfig,
    now: SimTime,

    /// Dense server table, indexed `op * thread_count + thread` — every
    /// delivery, step completion, and action touches it, so it must not go
    /// through a tree or hash lookup.
    servers: Vec<Server>,
    thread_count: usize,
    active: ActiveSet,
    edge_seq: Vec<u64>,
    /// Deliveries crossing the network, in handle order; `None` once
    /// delivered, and the front is trimmed to an undelivered one. Handles
    /// increase (see [`Fabric::start_transfer`]) and are usually
    /// consecutive, so a handle's entry is found at its offset from the
    /// front, else by binary search.
    inflight: VecDeque<(u64, Option<Delivery>)>,
    /// The last handle the fabric returned.
    last_handle: Option<u64>,
    windows: BTreeMap<OpId, Window>,
    fc_waiters: BTreeMap<OpId, VecDeque<ServerKey>>,
    /// The buffers of the last invocation that played out, for the next
    /// recording.
    spare: Buffers,
    meter: MemoryMeter,

    terminated: bool,
    steps_executed: u64,
    max_queue_len: usize,
    /// First typed failure observed; once set, the event loop halts and the
    /// run reports `Err` instead of a report.
    error: Option<SimError>,
}

impl<A, F, M> Engine<A, F>
where
    A: Deref<Target = Application> + Clone,
    F: DerefMut<Target = M>,
    M: Fabric + ?Sized,
{
    /// An engine at time zero, its start objects injected.
    pub(crate) fn start(app: A, fabric: F, cfg: &SimConfig) -> Engine<A, F> {
        // The journal opens with the fabric's scheduled rate-window edits
        // (a fault plan's link degradations), so differing plans produce
        // differing streams from entry zero.
        let journal = cfg.record_journal.then(|| {
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
            j
        });
        let deployment = app.deployment();
        let thread_count = deployment.thread_count();
        let active = ActiveSet::all_active(thread_count);
        let acct = Accounting::new(active.allocated_nodes(deployment).len());
        let nodes = deployment.max_node_plus_one();
        let error = (nodes > NODE_ID_LIMIT).then(|| {
            SimError::protocol(format!(
                "node id {} out of range: an engine models nodes below {NODE_ID_LIMIT}",
                nodes - 1
            ))
        });
        let cpu = CpuModel::new(if error.is_some() { 0 } else { nodes as usize });
        let windows = app
            .flow_controls()
            .map(|fc| (fc.source, Window::new(fc.window)))
            .collect();
        let servers = (0..app.graph().op_count() * thread_count)
            .map(|_| Server::default())
            .collect();
        let edge_seq = vec![0; app.graph().edge_count()];
        let mut eng = Engine {
            app,
            fabric,
            cpu,
            acct,
            control: RunControl::default(),
            journal,
            cfg: cfg.clone(),
            now: SimTime::ZERO,
            servers,
            thread_count,
            active,
            edge_seq,
            inflight: VecDeque::new(),
            last_handle: None,
            windows,
            fc_waiters: BTreeMap::new(),
            spare: Buffers::default(),
            meter: MemoryMeter::new(),
            terminated: false,
            steps_executed: 0,
            max_queue_len: 0,
            error,
        };
        if eng.error.is_some() {
            return eng;
        }
        let app = eng.app.clone();
        for s in app.starts() {
            let obj = (s.make)();
            eng.meter.alloc(obj.heap_bytes());
            eng.enqueue_delivery(s.op, s.thread, obj);
        }
        eng.cpu.reprice(eng.now, &mut *eng.fabric);
        eng
    }

    // ----- event loop ---------------------------------------------------

    /// Acts on every buffered event, then advances virtual time to the next
    /// one. Returns `false` when the run is over (terminated, quiescent,
    /// step budget blown) or stopped by the run control (pause predicate
    /// fired, time limit reached) — in the stopped cases the un-acted-on
    /// events stay buffered and a later call resumes exactly where this one
    /// left off.
    fn step_events(&mut self) -> bool {
        if self.terminated || self.error.is_some() {
            return false;
        }
        // Network first: arrivals may start new computations at `now`.
        while let Some(handle) = self.control.arrived.pop() {
            self.deliver_transfer(handle);
            if self.terminated || !self.control.parked.is_empty() {
                return false;
            }
        }
        // Then completed atomic steps.
        while let Some(step) = self.control.finished.pop() {
            self.complete_step(step);
            if self.terminated || self.error.is_some() || !self.control.parked.is_empty() {
                return false;
            }
        }
        self.cpu.reprice(self.now, &mut *self.fabric);
        if self.steps_executed > self.cfg.max_steps {
            self.fail(SimError::new(SimErrorKind::BudgetExceeded {
                at: self.now,
                steps: self.steps_executed,
            }));
            return false;
        }
        let t = match (self.fabric.next_event_time(), self.cpu.next_completion()) {
            (None, None) => return false,
            (Some(t), None) | (None, Some(t)) => t,
            (Some(a), Some(b)) => a.min(b),
        };
        debug_assert!(t >= self.now);
        if self.control.time_limit.is_some_and(|lim| t > lim) {
            return false;
        }
        self.now = t;
        // Both buffers were drained above, so this instant's events are all
        // they will hold.
        debug_assert!(self.control.arrived.is_empty() && self.control.finished.is_empty());
        self.fabric.advance_into(t, &mut self.control.arrived);
        self.cpu.take_finished_into(t, &mut self.control.finished);
        self.control.order_batch();
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

    /// Records the first typed failure; the event loop halts on it and the
    /// run reports `Err` from [`Engine::into_result`].
    fn fail(&mut self, err: SimError) {
        if self.error.is_none() {
            self.error = Some(err);
        }
    }

    // ----- server machinery ----------------------------------------------

    fn sidx(&self, key: ServerKey) -> usize {
        key.0 .0 as usize * self.thread_count + key.1 .0 as usize
    }

    fn enqueue_delivery(&mut self, op: OpId, thread: ThreadId, obj: DataObj) {
        let i = self.sidx((op, thread));
        let server = &mut self.servers[i];
        server.queue.push_back(obj);
        self.max_queue_len = self.max_queue_len.max(server.queue.len());
        if server.run.is_none() {
            self.start_invocation((op, thread));
        }
    }

    /// Takes the delivery filed under `handle`, trimming delivered ones off
    /// the front.
    fn take_inflight(&mut self, handle: u64) -> Option<Delivery> {
        let front = self.inflight.front()?.0;
        let guess = usize::try_from(handle.checked_sub(front)?).ok()?;
        let i = match self.inflight.get(guess) {
            Some(&(h, _)) if h == handle => guess,
            _ => self.inflight.binary_search_by_key(&handle, |e| e.0).ok()?,
        };
        let d = self.inflight[i].1.take();
        while let Some((_, None)) = self.inflight.front() {
            self.inflight.pop_front();
        }
        d
    }

    fn deliver_transfer(&mut self, handle: u64) {
        let Some(d) = self.take_inflight(handle) else {
            return self.fail(SimError::protocol(format!(
                "the fabric completed transfer {handle}, which is not in flight"
            )));
        };
        self.jot(JournalEvent::Arrive {
            to: d.to.0,
            thread: d.thread.0,
            src: d.src.0,
            dst: d.dst.0,
            wire_bytes: d.wire_bytes,
            start: d.start.as_nanos(),
        });
        self.enqueue_delivery(d.to, d.thread, d.obj);
    }

    /// Has an idle server consume the head of its queue, if any: runs the
    /// operation's Rust code once, recording it as atomic steps, and starts
    /// the first.
    fn start_invocation(&mut self, key: ServerKey) {
        let i = self.sidx(key);
        let server = &mut self.servers[i];
        debug_assert!(server.run.is_none());
        let Some(head) = server.queue.front() else {
            return;
        };
        // Checkpoint pause: consult the predicate *before* consuming, so
        // the triggering object is still queued in the snapshot and the
        // operation's code has not yet run.
        let point = PausePoint {
            op: key.0,
            thread: key.1,
            obj: head.as_ref(),
            state: server.op.as_deref(),
        };
        if self.control.pauses(key, &point) {
            return;
        }
        let obj = server.queue.pop_front().expect("just seen");
        let op = server.op.take();
        let mut op = op.unwrap_or_else(|| self.app.make_op(key.0, key.1));
        let consumed_heap = obj.heap_bytes();
        // Reserve the invocation's first step id at dispatch, before the
        // operation's code runs: the journal's Invoke record carries it as
        // the ticket.
        let ticket = self.cpu.reserve_id();
        self.jot(JournalEvent::Invoke {
            ticket,
            op: key.0 .0,
            thread: key.1 .0,
            obj_bytes: consumed_heap,
        });
        let mut ctx = CollectCtx::new(
            self.now,
            key.1,
            self.app.deployment(),
            &self.active,
            &self.cfg,
            std::mem::take(&mut self.spare),
        );
        op.on_object(obj, &mut ctx);
        let run = ctx.finish(consumed_heap);
        let server = &mut self.servers[i];
        server.op = Some(op);
        server.run = Some(run);
        self.begin_step(key, Some(ticket));
    }

    /// Starts the invocation's next recorded step on the node's processor,
    /// or ends the invocation when none remain. An invocation's first step
    /// runs under the id reserved at dispatch (`ticket`); later steps
    /// reserve theirs here.
    fn begin_step(&mut self, key: ServerKey, ticket: Option<u64>) {
        let node = self.app.deployment().node_of(key.1);
        let i = self.sidx(key);
        let run = self.servers[i].run.as_ref().expect("running invocation");
        if let Some(nominal) = run.current_work() {
            let work = self.fabric.compute_time(node, nominal);
            let id = ticket.unwrap_or_else(|| self.cpu.reserve_id());
            let info = StepInfo {
                server: key,
                node,
                start: self.now,
                work,
            };
            self.cpu.start(id, info);
        } else {
            let run = self.servers[i].run.take().expect("running invocation");
            self.meter.free(run.consumed_heap);
            self.spare = run.into_buffers();
            if !self.servers[i].queue.is_empty() {
                self.start_invocation(key);
            }
        }
    }

    fn complete_step(&mut self, id: u64) {
        let info = self.cpu.retire(id);
        self.steps_executed += 1;
        self.acct.add_work(info.work);
        self.jot(JournalEvent::Step {
            job: id,
            op: info.server.0 .0,
            thread: info.server.1 .0,
            node: info.node.0,
            start: info.start.as_nanos(),
            work: info.work.as_nanos(),
        });
        self.run_actions(info.server);
    }

    /// Carries out the finished step's remaining actions; stops early if a
    /// post blocks on a flow-control credit (a returned credit re-enters
    /// here). When all are done, moves on to the next step.
    fn run_actions(&mut self, key: ServerKey) {
        let i = self.sidx(key);
        loop {
            let run = self.servers[i].run.as_mut();
            let run = run.expect("invocation in progress");
            let Some(action) = run.next_action() else {
                run.finish_step();
                break;
            };
            match action {
                Action::Post { to, obj } => {
                    // Flow control: a post from a windowed op needs a credit.
                    if self
                        .windows
                        .get_mut(&key.0)
                        .is_some_and(|w| !w.try_acquire())
                    {
                        // Park: put the post back and wait for a credit.
                        run.put_back(Action::Post { to, obj });
                        self.fc_waiters.entry(key.0).or_default().push_back(key);
                        return;
                    }
                    self.do_post(key, to, obj);
                }
                Action::Mark(label) => {
                    if let Some(j) = &mut self.journal {
                        let idx = j.intern_label(&label);
                        j.push(self.now, JournalEvent::Mark { label: idx });
                    }
                    self.acct.mark(self.now, label);
                }
                Action::Deactivate(t) => {
                    self.jot(JournalEvent::Deactivate { thread: t.0 });
                    self.active.deactivate(t);
                    let nodes = self.active.allocated_nodes(self.app.deployment());
                    self.acct.set_nodes(self.now, nodes.len());
                }
                Action::Release(op) => self.release_credit(op),
                Action::Account(delta) => {
                    self.jot(JournalEvent::Account { delta });
                    self.meter.adjust(delta);
                }
                Action::Terminate => {
                    self.jot(JournalEvent::Terminate);
                    self.terminated = true;
                    return;
                }
            }
            if self.terminated || self.error.is_some() {
                return;
            }
        }
        self.begin_step(key, None);
    }

    fn do_post(&mut self, from: ServerKey, to: OpId, obj: DataObj) {
        let graph = self.app.graph();
        let Some(edge) = graph.edge_between(from.0, to) else {
            let to_name = &graph.op(to).name;
            let err = SimError::wiring(
                graph.op(from.0).name.clone(),
                format!("posted to '{to_name}' but the flow graph has no such edge"),
            );
            return self.fail(err);
        };
        let seq = self.edge_seq[edge.0 as usize];
        self.edge_seq[edge.0 as usize] += 1;
        let deployment = self.app.deployment();
        let ctx = RouteCtx {
            src_thread: from.1,
            edge_seq: seq,
            deployment,
            active: &self.active,
        };
        let dst_thread = (self.app.router(edge))(obj.as_ref(), &ctx);
        self.meter.alloc(obj.heap_bytes());
        let src = deployment.node_of(from.1);
        let dst = deployment.node_of(dst_thread);
        let wire_bytes = obj.wire_size();
        self.jot(JournalEvent::Post {
            op: from.0 .0,
            thread: from.1 .0,
            to: to.0,
            dst_thread: dst_thread.0,
            wire_bytes,
            local: (src == dst) as u32,
        });
        if src == dst {
            // Node-local move: pointer passing, no network involvement.
            self.enqueue_delivery(to, dst_thread, obj);
        } else {
            let handle = self.fabric.start_transfer(self.now, src, dst, wire_bytes);
            if let Some(last) = self.last_handle.filter(|&last| handle <= last) {
                return self.fail(SimError::protocol(format!(
                    "the fabric returned transfer handle {handle} after {last}: handles must increase"
                )));
            }
            self.last_handle = Some(handle);
            let delivery = Delivery {
                to,
                thread: dst_thread,
                obj,
                src,
                dst,
                wire_bytes,
                start: self.now,
            };
            self.inflight.push_back((handle, Some(delivery)));
        }
    }

    fn release_credit(&mut self, op: OpId) {
        let Some(w) = self.windows.get_mut(&op) else {
            let name = self.app.graph().op(op).name.clone();
            return self.fail(SimError::wiring(
                name,
                "fc_release for an operation without a flow-control window",
            ));
        };
        w.release();
        self.jot(JournalEvent::Release { op: op.0 });
        if let Some(key) = self.fc_waiters.get_mut(&op).and_then(VecDeque::pop_front) {
            self.run_actions(key);
        }
    }

    // ----- driving ------------------------------------------------------

    /// Runs until the run is over or the run control stops it. Servers a
    /// pause predicate had stopped re-attempt consumption first: with a new
    /// predicate in place one may immediately pause again (which keeps the
    /// rest parked and the loop stopped); with none they consume and the
    /// run proceeds.
    pub(crate) fn resume(&mut self) {
        for key in std::mem::take(&mut self.control.parked) {
            if !self.control.parked.is_empty() {
                // A fresh pause already fired; keep the rest parked.
                self.control.parked.push(key);
            } else if self.servers[self.sidx(key)].run.is_none() {
                self.start_invocation(key);
            }
        }
        if self.control.parked.is_empty() {
            while self.step_events() {}
        }
    }

    /// Whether anything is left to do: `false` once the run terminated or
    /// went quiescent.
    pub(crate) fn has_work(&mut self) -> bool {
        !self.terminated
            && (!self.control.arrived.is_empty()
                || !self.control.finished.is_empty()
                || !self.control.parked.is_empty()
                || self.cpu.next_completion().is_some()
                || self.fabric.next_event_time().is_some())
    }

    /// The typed failure recorded so far, if any — checkpoints poll this
    /// after every drive phase.
    pub(crate) fn error(&self) -> Option<&SimError> {
        self.error.as_ref()
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

    // ----- reporting -----------------------------------------------------

    /// Objects queued at `op` across every thread.
    fn queued_at(&self, op: OpId) -> usize {
        let base = op.0 as usize * self.thread_count;
        self.servers[base..base + self.thread_count]
            .iter()
            .map(|s| s.queue.len())
            .sum()
    }

    /// Builds the wait-for diagnostic when the events ran out with work
    /// pending. `None` on clean quiescence (an application that simply
    /// never called `terminate` but left no residual state).
    fn deadlock_diagnostic(&self) -> Option<DeadlockDiag> {
        if self.terminated {
            return None;
        }
        let graph = self.app.graph();
        let name = |op: OpId| graph.op(op).name.clone();
        // Each parked server waits on a credit for its own window while its
        // parked post targets another operation.
        let mut blocked = Vec::new();
        let mut edges: BTreeMap<OpId, Vec<OpId>> = BTreeMap::new();
        for (&op, waiters) in &self.fc_waiters {
            let w = &self.windows[&op];
            for &key in waiters {
                let run = self.servers[self.sidx(key)].run.as_ref();
                let target = run.and_then(Invocation::parked_post);
                if let Some(to) = target {
                    edges.entry(op).or_default().push(to);
                }
                blocked.push(BlockedOp {
                    op: name(op),
                    thread: key.1 .0,
                    window: w.limit(),
                    in_flight: w.in_flight(),
                    waiting_on: target.map_or_else(|| "<unknown>".to_string(), name),
                    dest_queued: target.map_or(0, |to| self.queued_at(to)),
                });
            }
        }
        let diag = DeadlockDiag {
            at: self.now,
            cycle: find_wait_cycle(&edges)
                .map_or_else(Vec::new, |ops| ops.into_iter().map(name).collect()),
            queued_objects: self.servers.iter().map(|s| s.queue.len()).sum(),
            busy_servers: self.servers.iter().filter(|s| s.run.is_some()).count(),
            inflight_transfers: self.inflight.iter().filter(|e| e.1.is_some()).count(),
            blocked,
        };
        let quiescent = diag.blocked.is_empty()
            && diag.queued_objects + diag.busy_servers + diag.inflight_transfers == 0;
        (!quiescent).then_some(diag)
    }

    /// The report of a finished run (or the typed failure that stopped
    /// it); `host_wall` is the host cost of every drive phase.
    pub(crate) fn into_result(mut self, host_wall: std::time::Duration) -> SimResult<RunReport> {
        if let Some(err) = self.error.take() {
            return Err(err);
        }
        if let Some(diag) = self.deadlock_diagnostic() {
            return Err(SimError::deadlock(diag));
        }
        let mut report = RunReport {
            // The loop never advances past the event that ended the run.
            completion: self.now,
            terminated: self.terminated,
            mem_peak_bytes: self.meter.peak_bytes(),
            steps: self.steps_executed,
            max_queue_len: self.max_queue_len,
            net: self.fabric.net_stats(),
            host_wall,
            journal: self.journal.take(),
            ..RunReport::default()
        };
        self.acct.close_into(self.now, &mut report);
        Ok(report)
    }
}

impl<A: Clone> Engine<A, Box<SimFabric>> {
    /// A fully independent deep copy of the running simulation, sharing
    /// only the (immutable) application with the original. `None` when any
    /// live payload or behaviour state does not support cloning — callers
    /// then fall back to a fresh run.
    pub(crate) fn try_fork(&self) -> Option<Self> {
        let servers = self.servers.iter().map(Server::try_clone);
        let inflight = self.inflight.iter().map(|(h, d)| match d {
            Some(d) => Some((*h, Some(d.try_clone()?))),
            None => Some((*h, None)),
        });
        Some(Engine {
            app: self.app.clone(),
            fabric: self.fabric.clone(),
            cpu: self.cpu.clone(),
            acct: self.acct.clone(),
            control: self.control.fork(),
            // The fork inherits the parent's committed prefix and keeps
            // appending — a forked continuation's journal is comparable
            // entry-for-entry against an uninterrupted fresh run's.
            journal: self.journal.clone(),
            cfg: self.cfg.clone(),
            now: self.now,
            servers: servers.collect::<Option<_>>()?,
            thread_count: self.thread_count,
            active: self.active.clone(),
            edge_seq: self.edge_seq.clone(),
            inflight: inflight.collect::<Option<_>>()?,
            last_handle: self.last_handle,
            windows: self.windows.clone(),
            fc_waiters: self.fc_waiters.clone(),
            spare: Buffers::default(),
            meter: self.meter,
            terminated: self.terminated,
            steps_executed: self.steps_executed,
            max_queue_len: self.max_queue_len,
            error: self.error.clone(),
        })
    }
}
