//! The service engine: one deterministic event loop over components that
//! each own their state.
//!
//! # Components
//!
//! * `rules::NodePool` — which nodes are free, held (by which job
//!   slot), away or dead, per cell.
//! * `cells::Cells` — every cell's iteration ends in one cell-ranked
//!   queue, and the cell totals.
//! * `live::JobTable` — admitted jobs and their lifecycle state.
//! * `fairshare::FairShare` — per-tenant queues and stride passes.
//! * `scorer::Scorer` — everything asked of a workload: iteration
//!   pricing, efficiency targets, what-if slates, sessions, memos.
//! * `journal::DecisionLog` — the decision journal and replay check.
//!
//! The engine below owns the clock, the global event queue and the
//! per-tenant totals, and moves jobs between the components; it is the
//! only caller of each.
//!
//! # Determinism contract
//!
//! The committed outcome (every report byte, every journal entry) is a
//! function of `(config topology, policy, tenant set, job stream, fault
//! plan)` only — never of the shard count or the host's thread settings.
//! That holds structurally:
//!
//! * **Fixed cells.** The node pool is partitioned into cells by the
//!   config; the shard count is only echoed, never consulted by the loop.
//! * **Fixed global order.** Each virtual instant is processed in three
//!   stages: global events (faults, returns, requeues, job cancellations,
//!   in schedule order), then stream arrivals, then cell events in
//!   ascending cell id.
//! * **One cell-ranked queue.** Every iteration end sits in one queue
//!   ordered by `(time, cell, insertion)`. Spans are floored at 1 ns and
//!   an iteration must end before `SimTime::MAX` (else its job fails), so
//!   handling an instant never schedules into it: the events due at `t`
//!   are fixed before stage 3 and pop in ascending cell id, then in the
//!   order they were scheduled.
//! * **Placement at the end of a handler.** Every handler that frees
//!   capacity or queues a job runs one placement pass at its own end.
//!   Nothing inside the pass places: a job that fails at start gives back
//!   what it took in that pass, and a job leaves only through
//!   `Engine::end_job`, which never places.
//! * **Integer accounting.** All accumulated report state is integer
//!   nanoseconds / node-nanoseconds; `f64` appears only inside per-job
//!   pricing (identical inputs per job regardless of grouping) and in
//!   derived accessors computed once at the end.

use desim::{EventQueue, Journal, SimDuration, SimTime};
use dps_sim::{SimError, SimResult};
use faults::{FaultPlan, Outage};

use crate::cells::{Cells, PhaseEnd};
use crate::config::ServiceConfig;
use crate::fairshare::FairShare;
use crate::job::JobSpec;
use crate::journal::{decision, DecisionLog, JobTag, Link, ReplayStats, NO_CELL};
use crate::live::{JobState, JobTable};
use crate::report::{LatencyHist, ServiceReport, TenantReport};
use crate::rules::{capped_backoff, FaultPricing, NodePool, Strike};
use crate::scorer::{Priced, Scorer, WhatIfAction};

/// Options for one `serve` call.
#[derive(Clone, Debug, Default)]
pub struct ServeOptions {
    /// Record the scheduling-decision journal.
    pub journal: bool,
    /// Measure host wall-clock latency of each what-if decision into
    /// [`ServiceReport::decision_hist`]. Off by default: the measurement
    /// itself costs a couple of clock reads per decision, and the
    /// histogram is host data (never part of the canonical report).
    pub measure_decisions: bool,
}

/// What a completed `serve` returns.
#[derive(Clone, Debug)]
pub struct ServiceOutcome {
    /// Aggregate report.
    pub report: ServiceReport,
    /// The decision journal, when requested.
    pub journal: Option<Journal>,
    /// Validated-replay statistics, when `serve` resumed from a recovered
    /// prefix.
    pub replay: Option<ReplayStats>,
}

/// The long-lived multi-tenant job service.
pub struct ClusterService {
    cfg: ServiceConfig,
}

impl ClusterService {
    /// Validates the config and builds a service.
    pub fn new(cfg: ServiceConfig) -> SimResult<ClusterService> {
        cfg.validate()?;
        Ok(ClusterService { cfg })
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Serves a job stream to completion under a fault plan.
    ///
    /// Jobs are admitted per tenant (quotas, backpressure), placed on the
    /// least-loaded cell by the fair-share scheduler, resized at iteration
    /// boundaries per the policy, interrupted and re-queued (cross-cell)
    /// by outages, and accounted into the aggregate report. The serve ends
    /// when the stream drains; a workload that errors or panics fails only
    /// its own job. A `plan` that does not [`validate`](FaultPlan::validate)
    /// is a protocol error.
    pub fn serve(
        &self,
        stream: impl IntoIterator<Item = JobSpec>,
        plan: &FaultPlan,
        opts: &ServeOptions,
    ) -> SimResult<ServiceOutcome> {
        self.serve_linked(stream, plan, opts, Link::Off)
    }

    /// [`ClusterService::serve`] with its decision log `link`ed to a
    /// durable log: resuming from committed decisions streamed from one,
    /// which the re-execution must reproduce exactly before committing
    /// anything new, or streaming every committed decision to its writer.
    /// Either implies `journal`.
    pub(crate) fn serve_linked(
        &self,
        stream: impl IntoIterator<Item = JobSpec>,
        plan: &FaultPlan,
        opts: &ServeOptions,
        link: Link,
    ) -> SimResult<ServiceOutcome> {
        plan.validate()
            .map_err(|why| SimError::protocol(why).context("validating the fault plan"))?;
        let mut engine = Engine::new(&self.cfg, plan, opts, link);
        engine.run(stream.into_iter(), plan)?;
        Ok(engine.finish())
    }
}

// ----- internal engine ------------------------------------------------------

#[derive(Clone, Copy, Debug)]
enum GlobalEv {
    /// Outage `i` of the fault plan fires.
    Fault(u32),
    /// A preempted node rejoins its cell.
    Return(u32),
    /// An elastically recovering job re-enters its queue after backoff.
    Requeue { slot: u32, epoch: u32 },
    /// A job's requested cancellation time arrived.
    CancelJob { slot: u32, epoch: u32 },
    /// A profiling-panic backoff elapsed: try scheduling the phase again
    /// (`restart` re-carries the restart cost of the original attempt).
    RetryPhase {
        slot: u32,
        epoch: u32,
        gen: u32,
        restart: SimDuration,
    },
}

struct Engine<'a> {
    cfg: &'a ServiceConfig,
    pricing: FaultPricing,
    pool: NodePool,
    cells: Cells,
    jobs: JobTable,
    queues: FairShare,
    global: EventQueue<GlobalEv>,
    scorer: Scorer,
    log: DecisionLog,
    tenants: Vec<TenantReport>,
    wait_hist: LatencyHist,
    /// Jobs submitted so far; the next job's id.
    submitted: u64,
    makespan: SimTime,
    events: u64,
    now: SimTime,
    /// Reusable per-tenant capacity-blocked flags.
    blocked: Vec<bool>,
}

impl<'a> Engine<'a> {
    fn new(
        cfg: &'a ServiceConfig,
        plan: &FaultPlan,
        opts: &ServeOptions,
        link: Link,
    ) -> Engine<'a> {
        Engine {
            cfg,
            pricing: FaultPricing::new(plan, cfg.total_nodes()),
            pool: NodePool::new(cfg.nodes_per_cell, cfg.cells),
            cells: Cells::new(cfg.cells),
            jobs: JobTable::default(),
            queues: FairShare::new(&cfg.tenants),
            global: EventQueue::new(),
            scorer: Scorer::new(cfg, plan, opts.measure_decisions),
            log: DecisionLog::new(cfg, opts.journal, link),
            tenants: cfg
                .tenants
                .iter()
                .map(|t| TenantReport {
                    name: t.name.clone(),
                    ..TenantReport::default()
                })
                .collect(),
            wait_hist: LatencyHist::new(),
            submitted: 0,
            makespan: SimTime::ZERO,
            events: 0,
            now: SimTime::ZERO,
            blocked: Vec::new(),
        }
    }

    // ----- main loop -------------------------------------------------------

    fn run(
        &mut self,
        mut stream: impl Iterator<Item = JobSpec>,
        plan: &FaultPlan,
    ) -> SimResult<()> {
        let outages = plan.outages();
        for (i, o) in outages.iter().enumerate() {
            self.global.schedule(o.at, GlobalEv::Fault(i as u32));
        }
        let mut next_arrival = stream.next();
        let mut last_arrival = SimTime::ZERO;
        loop {
            self.log.check(false)?;
            // Next instant: the min over the global queue, the arrival
            // stream and the cells' queue, an empty one counting as the end
            // of time; all three can be empty only there.
            let end = SimTime::MAX;
            let t = self
                .global
                .peek_time()
                .unwrap_or(end)
                .min(next_arrival.as_ref().map_or(end, |a| a.arrival))
                .min(self.cells.next_time().unwrap_or(end));
            if t == end
                && self.global.is_empty()
                && next_arrival.is_none()
                && self.cells.next_time().is_none()
            {
                break;
            }
            self.now = t;
            // Stage 1: global events (faults, returns, requeues, cancels).
            while self.global.peek_time() == Some(t) {
                let (_, ev) = self.global.pop().expect("peeked");
                self.events += 1;
                match ev {
                    GlobalEv::Fault(i) => self.handle_fault(&outages[i as usize]),
                    GlobalEv::Return(node) => {
                        if self.pool.rejoin(node) {
                            self.place_pending();
                        }
                    }
                    GlobalEv::Requeue { slot, epoch } => self.handle_requeue(slot, epoch),
                    GlobalEv::CancelJob { slot, epoch } => self.handle_cancel(slot, epoch),
                    GlobalEv::RetryPhase {
                        slot,
                        epoch,
                        gen,
                        restart,
                    } => self.handle_retry(slot, epoch, gen, restart),
                }
            }
            // Stage 2: arrivals at this instant, in stream order.
            while next_arrival.as_ref().is_some_and(|a| a.arrival <= t) {
                let spec = next_arrival.take().expect("checked");
                if spec.arrival < last_arrival {
                    return Err(SimError::protocol(format!(
                        "job stream arrivals must be non-decreasing ({:?} after {:?})",
                        spec.arrival, last_arrival
                    )));
                }
                last_arrival = spec.arrival;
                next_arrival = stream.next();
                self.events += 1;
                self.admit(spec)?;
            }
            // Stage 3: cell events, in ascending cell id.
            while let Some(pe) = self.cells.pop_due(t) {
                self.events += 1;
                self.handle_phase_end(pe);
            }
        }
        self.log.check(true)
    }

    fn finish(self) -> ServiceOutcome {
        let mut report = ServiceReport {
            nodes_per_cell: self.cfg.nodes_per_cell,
            shards: self.cfg.shards,
            cells: self.cells.reports,
            tenants: self.tenants,
            submitted: self.submitted,
            events: self.events,
            makespan: self.makespan,
            wait_hist: self.wait_hist,
            ..ServiceReport::default()
        };
        self.scorer.fill_report(&mut report);
        let (journal, replay) = self.log.finish();
        ServiceOutcome {
            report,
            journal,
            replay,
        }
    }

    // ----- admission -------------------------------------------------------

    fn admit(&mut self, spec: JobSpec) -> SimResult<()> {
        let ti = spec.tenant as usize;
        if ti >= self.tenants.len() {
            return Err(SimError::protocol(format!(
                "job stream names tenant {} but only {} are registered",
                spec.tenant,
                self.tenants.len()
            )));
        }
        self.tenants[ti].submitted += 1;
        let tag = JobTag {
            id: self.submitted,
            tenant: spec.tenant,
        };
        self.submitted += 1;
        let req = spec.requested_nodes;
        let rejected = req == 0
            || req > self.cfg.nodes_per_cell
            || req > spec.payload.max_nodes()
            || spec.payload.iterations() == 0
            || self.queues.tenants[ti].over_pressure();
        if rejected {
            self.tenants[ti].rejected += 1;
            self.log
                .record(self.now, decision::REJECT, tag, NO_CELL, req, 0);
            return Ok(());
        }
        let slot = self.jobs.alloc(&spec, tag.id);
        self.queues.push_back(spec.tenant, slot);
        self.log
            .record(self.now, decision::ADMIT, tag, NO_CELL, req, 0);
        if let Some(at) = spec.cancel_at {
            let epoch = self.jobs[slot].epoch;
            self.global
                .schedule(at.max(self.now), GlobalEv::CancelJob { slot, epoch });
        }
        self.place_pending();
        Ok(())
    }

    // ----- placement -------------------------------------------------------

    /// One placement pass: serves the lowest-pass startable tenant until
    /// every remaining tenant is capacity-blocked or out of startable
    /// jobs. A tenant whose head job doesn't fit is skipped for the rest
    /// of the pass. A job that fails at start gives back exactly what it
    /// took, so no tenant blocked earlier in the pass could start now.
    fn place_pending(&mut self) {
        if self.queues.pending_total() == 0 {
            return;
        }
        let mut blocked = std::mem::take(&mut self.blocked);
        blocked.clear();
        blocked.resize(self.queues.tenants.len(), false);
        while self.queues.pending_total() > 0 {
            let Some(ti) = self.queues.next_candidate(&blocked) else {
                break;
            };
            if !self.try_place_head(ti) {
                blocked[ti] = true;
            }
        }
        self.blocked = blocked;
    }

    /// Places (or terminally fails) the head job of tenant `ti`. Returns
    /// `false` only when missing capacity is what prevents placement.
    fn try_place_head(&mut self, ti: usize) -> bool {
        let slot = *self.queues.tenants[ti].pending.front().expect("candidate");
        let req_eff = self.jobs[slot].requested.min(self.pool.max_alive());
        if req_eff == 0 {
            // No surviving cell can ever host it.
            self.end_job(slot, decision::FAIL);
            return true;
        }
        let min_grant = self.cfg.policy.min_start(req_eff);
        // Work-balancing placement: the cell with the most free nodes,
        // ties to the lowest cell id.
        let Some((cell, free)) = self.pool.roomiest(None).filter(|&(_, f)| f >= min_grant) else {
            return false;
        };
        let full = req_eff.min(free);
        let job = &mut self.jobs[slot];
        let grant = self
            .scorer
            .grant(&mut self.log, self.now, slot, job, full, cell);
        self.queues.pop_head(ti as u32);
        self.queues.charge(ti, grant);
        self.queues.tenants[ti].inflight += 1;
        self.start_job(slot, cell, grant);
        true
    }

    fn start_job(&mut self, slot: u32, cell_id: u32, grant: u32) {
        let now = self.now;
        let e = &mut self.jobs[slot];
        e.state = JobState::Running;
        e.cell = cell_id;
        e.held.clear();
        self.pool.grant(cell_id, grant, slot, &mut e.held);
        let restart_cost = if e.pending_restart {
            self.pricing.ckpt.restart_cost
        } else {
            SimDuration::ZERO
        };
        e.pending_restart = false;
        let mut wait_ns = 0;
        if e.first_start.is_none() {
            e.first_start = Some(now);
            self.scorer.started(e, grant);
            wait_ns = (now - e.arrival).as_nanos();
            self.wait_hist.record(wait_ns);
            let tr = &mut self.tenants[e.tenant as usize];
            tr.started += 1;
            tr.wait_ns_sum += u128::from(wait_ns);
            tr.max_wait_ns = tr.max_wait_ns.max(wait_ns);
        }
        let op = if e.restarts > 0 {
            decision::RECOVER
        } else {
            decision::PLACE
        };
        self.log.record(now, op, e.tag(), cell_id, grant, wait_ns);
        self.schedule_phase(slot, restart_cost);
    }

    // ----- iteration scheduling --------------------------------------------

    /// Prices the job's next iteration on its current allocation and
    /// schedules its end. A workload that errors fails the job; one that
    /// panics keeps its nodes while it waits to be asked again, and the
    /// idle window is charged as allocated time. Returns whether it failed
    /// the job, whose nodes the caller may then need to place.
    fn schedule_phase(&mut self, slot: u32, restart_cost: SimDuration) -> bool {
        let now = self.now;
        let e = &mut self.jobs[slot];
        let n = e.held.len() as u64;
        let report = &mut self.cells.reports[e.cell as usize];
        let (nominal, work) = match self.scorer.price(e) {
            Priced::Point(span, work) => (span, work),
            Priced::Failed => {
                self.end_job(slot, decision::FAIL);
                return true;
            }
            Priced::Retry(backoff) => {
                // The backoff is the job's current interval: a fault or a
                // cancellation inside it refunds only what is left of it.
                e.iter_start = now;
                e.iter_span = backoff;
                e.iter_work = SimDuration::ZERO;
                report.allocated_node_ns += u128::from(n) * u128::from(backoff.as_nanos());
                let retry = GlobalEv::RetryPhase {
                    slot,
                    epoch: e.epoch,
                    gen: e.gen,
                    restart: restart_cost,
                };
                self.global.schedule(now + backoff, retry);
                return false;
            }
        };
        let (mut span, degraded) =
            self.pricing
                .span(&e.held, nominal, work, now, e.phase as usize, restart_cost);
        if e.extra_ckpt {
            // A what-if checkpoint-now commit charges one extra checkpoint
            // to the iteration that follows the decision boundary.
            e.extra_ckpt = false;
            span += self.pricing.ckpt.checkpoint_cost;
        }
        // Zero-length iterations would stall the clock; floor at 1 ns.
        if span.is_zero() {
            span = SimDuration(1);
        }
        // An iteration that cannot end before the end of time would run in
        // zero virtual time: its job fails instead.
        let Some(end) = now.checked_add(span).filter(|&end| end < SimTime::MAX) else {
            self.end_job(slot, decision::FAIL);
            return true;
        };
        e.gen += 1;
        e.iter_start = now;
        e.iter_span = span;
        e.iter_work = work;
        report.degraded_ns += u128::from(degraded.as_nanos());
        report.allocated_node_ns += u128::from(n) * u128::from(span.as_nanos());
        let pe = PhaseEnd {
            cell: e.cell,
            slot,
            gen: e.gen,
        };
        self.cells.schedule(end, pe);
        false
    }

    /// A profiling retry came due. Stale retries — the job was meanwhile
    /// interrupted, cancelled, or its slot reused — are dropped by the
    /// epoch/gen guard.
    fn handle_retry(&mut self, slot: u32, epoch: u32, gen: u32, restart: SimDuration) {
        let e = &self.jobs[slot];
        let live = e.epoch == epoch && e.gen == gen && e.state == JobState::Running;
        if live && self.schedule_phase(slot, restart) {
            self.place_pending();
        }
    }

    fn handle_phase_end(&mut self, pe: PhaseEnd) {
        let (cell_id, slot) = (pe.cell, pe.slot);
        let e = &mut self.jobs[slot];
        if e.state != JobState::Running || e.gen != pe.gen {
            return; // stale (interrupted or cancelled meanwhile)
        }
        let iter_work = e.finish_iteration(&self.pricing.ckpt);
        let report = &mut self.cells.reports[cell_id as usize];
        report.iterations += 1;
        report.committed_work_ns += u128::from(iter_work.as_nanos());
        if e.phase >= e.payload.iterations() {
            self.end_job(slot, decision::COMPLETE);
            return self.place_pending();
        }
        // Resize at the boundary: shrink to the efficiency target, or grow
        // back into the cell's free nodes when capacity allows.
        let n = e.held.len() as u32;
        let cap = e
            .requested
            .min(n + self.pool.free_in(cell_id))
            .min(e.payload.max_nodes())
            .max(1);
        let decided = self
            .scorer
            .boundary(&mut self.log, self.now, slot, e, cap, &self.pool);
        let target = match decided {
            Err(_) => {
                self.end_job(slot, decision::FAIL);
                return self.place_pending();
            }
            Ok(WhatIfAction::Migrate { cell, nodes }) => {
                return self.migrate_job(slot, cell, nodes);
            }
            Ok(WhatIfAction::Checkpoint) => {
                e.extra_ckpt = true;
                e.extra_ckpt_phase = e.phase;
                e.since_ckpt = SimDuration::ZERO;
                n
            }
            Ok(WhatIfAction::Resize(t)) => t,
        };
        if target < n {
            self.pool.shrink(&mut e.held, target);
            self.log.record(
                self.now,
                decision::SHRINK,
                e.tag(),
                cell_id,
                target,
                u64::from(n - target),
            );
        } else if target > n {
            self.pool.grant(cell_id, target - n, slot, &mut e.held);
        }
        // Shrinking or failing freed capacity other tenants may be waiting
        // for.
        if self.schedule_phase(slot, SimDuration::ZERO) || target < n {
            self.place_pending();
        }
    }

    /// Commits a what-if migration: checkpoint here, restart on `nodes` in
    /// cell `to` (always a growth move — the scorer only proposes migration
    /// when the destination beats every in-place candidate).
    fn migrate_job(&mut self, slot: u32, to: u32, nodes: u32) {
        let e = &mut self.jobs[slot];
        self.pool.release_all(&mut e.held);
        e.cell = to;
        self.pool.grant(to, nodes, slot, &mut e.held);
        // The move checkpoints first: replay drops to zero and a post-move
        // fault resumes at this phase.
        e.since_ckpt = SimDuration::ZERO;
        e.extra_ckpt_phase = e.phase;
        let ckpt = self.pricing.ckpt;
        self.schedule_phase(slot, ckpt.checkpoint_cost + ckpt.restart_cost);
        // The vacated cell's nodes (or, if the job failed, all of them)
        // may unblock queued tenants.
        self.place_pending();
    }

    // ----- terminal transitions --------------------------------------------

    /// The one exit of an admitted job: `op` is `decision::COMPLETE`,
    /// `FAIL` or `CANCEL`. A placed job returns its nodes and its
    /// tenant's quota; a queued one leaves its queue. Journals the
    /// decision, frees the slot, and never places: the caller does.
    fn end_job(&mut self, slot: u32, op: u32) {
        debug_assert!(matches!(
            op,
            decision::COMPLETE | decision::FAIL | decision::CANCEL
        ));
        let now = self.now;
        let e = &mut self.jobs[slot];
        let tag = e.tag();
        let (cell, nodes, extra) = if e.state == JobState::Running {
            let report = &mut self.cells.reports[e.cell as usize];
            let mut turnaround = 0;
            match op {
                decision::COMPLETE => {
                    report.completed += 1;
                    turnaround = (now - e.arrival).as_nanos();
                }
                decision::FAIL => report.failed += 1,
                _ => {
                    report.allocated_node_ns -= e.unused_node_ns(now);
                    report.cancelled += 1;
                    e.gen += 1; // stale out the PhaseEnd
                }
            }
            let n = e.held.len() as u32;
            self.pool.release_all(&mut e.held);
            self.queues.tenants[e.tenant as usize].inflight -= 1;
            (e.cell, n, turnaround)
        } else {
            if e.state == JobState::Pending {
                let removed = self.queues.remove(tag.tenant, slot);
                debug_assert!(removed, "pending job must be queued");
            }
            // A queued failure journals its request, a cancellation none.
            let nodes = if op == decision::FAIL { e.requested } else { 0 };
            (NO_CELL, nodes, 0)
        };
        self.makespan = self.makespan.max(now);
        let tr = &mut self.tenants[tag.tenant as usize];
        match op {
            decision::COMPLETE => tr.completed += 1,
            decision::FAIL => tr.failed += 1,
            _ => tr.cancelled += 1,
        }
        self.log.record(now, op, tag, cell, nodes, extra);
        self.scorer.forget(slot, &mut self.jobs[slot]);
        self.jobs.release(slot);
    }

    // ----- faults, returns, requeues, cancellations ------------------------

    fn handle_fault(&mut self, o: &Outage) {
        match self.pool.strike(o.node, o.returns.is_none()) {
            Strike::Ignored => return,
            Strike::Idle => {}
            Strike::Held(slot) => self.interrupt(slot),
        }
        if let Some(at) = o.returns {
            self.global.schedule(at, GlobalEv::Return(o.node));
        }
        self.place_pending();
    }

    /// A fault struck a node the job holds: refund the unfinished remainder
    /// of the iteration (same cell), charge the replay + in-flight fraction
    /// as lost work, and re-queue the job — immediately (head of its
    /// tenant's queue) under rigid/malleable, after a capped exponential
    /// backoff under elastic recovery. The re-placed job may land in *any*
    /// cell: recovery is cross-cell by construction.
    fn interrupt(&mut self, slot: u32) {
        let now = self.now;
        let backoff = self.cfg.policy.backoff();
        let e = &mut self.jobs[slot];
        let grant = e.held.len() as u32;
        let hit = e.interrupt(now, backoff.is_some(), &self.pricing.ckpt);
        let report = &mut self.cells.reports[e.cell as usize];
        report.allocated_node_ns -= hit.refund;
        report.lost_work_ns += u128::from(hit.lost.as_nanos());
        report.replayed_work_ns += u128::from(hit.replay.as_nanos());
        report.restarts += 1;
        // The struck node is out of service, so it stays out of the pool.
        self.pool.release_all(&mut e.held);
        self.scorer.forget(slot, e);
        self.queues.tenants[e.tenant as usize].inflight -= 1;
        let lost_ns = hit.lost.as_nanos();
        self.log
            .record(now, decision::REQUEUE, e.tag(), e.cell, grant, lost_ns);
        if let Some((base, max)) = backoff {
            e.state = JobState::Limbo;
            let epoch = e.epoch;
            self.global.schedule(
                now + capped_backoff(base, max, e.restarts - 1),
                GlobalEv::Requeue { slot, epoch },
            );
        } else {
            e.state = JobState::Pending;
            self.queues.push_front(e.tenant, slot);
        }
    }

    fn handle_requeue(&mut self, slot: u32, epoch: u32) {
        let e = &mut self.jobs[slot];
        if e.epoch != epoch || e.state != JobState::Limbo {
            return; // cancelled while in limbo
        }
        e.state = JobState::Pending;
        self.queues.push_front(e.tenant, slot);
        self.place_pending();
    }

    fn handle_cancel(&mut self, slot: u32, epoch: u32) {
        let e = &self.jobs[slot];
        if e.epoch != epoch {
            return; // job already finished
        }
        let running = e.state == JobState::Running;
        self.end_job(slot, decision::CANCEL);
        if running {
            self.place_pending();
        }
    }
}
