//! Journal → layer operations.
//!
//! The program has no spans inside it yet, so a layer's cost is taken from
//! outside: the traced repetition's journal says what the layer was asked
//! to do, that operation stream is derived here once (untimed), and then
//! replayed against the layer alone (timed). Derivation and replay are
//! separate passes so the timed pass carries no bookkeeping of ours.
//!
//! What each stream is, and what it is not:
//!
//! * `desim::ProgressSet` (the engine's CPU set): every journal `Step`
//!   inserts its work at its start instant on its node; the node's jobs
//!   share it equally (`set_rate` to 1/k on every population change) and
//!   the set itself says when they finish. Communication load is not
//!   charged, so jobs finish no later than in the real run: populations,
//!   and with them `set_rate` counts, are a lower bound.
//! * `netmodel::Network`: every non-local `Post` starts a flow at its
//!   instant between the nodes of its threads; the network is advanced at
//!   every instant the engine visited (all journal instants, plus the
//!   network's own). This reproduces the real run's network exactly, and
//!   the replay checks that it delivers at the journal's `Arrive` instants.
//!   The `ProgressSet` inside the network is part of this layer.
//! * `desim::EventQueue` (the service's pending-event sets): every
//!   committed decision is one `schedule` at its instant and one `pop`,
//!   with as many events pending as the cluster has nodes (a running job
//!   holds at least one node and has one pending phase end).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use desim::{EventQueue, Journal, JournalEvent, ProgressSet, SimTime};
use netmodel::{NetEvent, NetParams, Network, NodeId, Sharing};

use crate::stats::median;

/// Times anything replayed or re-run alone is timed; the median counts.
const REPEATS: usize = 3;

/// Median host seconds of `REPEATS` runs of `f`, and the last result.
pub fn timed_median<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut samples = Vec::new();
    let mut last = None;
    for _ in 0..REPEATS {
        let t = Instant::now();
        let out = black_box(f());
        samples.push(t.elapsed().as_secs_f64());
        last = Some(out);
    }
    (median(&samples), last.expect("REPEATS > 0"))
}

/// A replayed stream: how many operations, and the host seconds they took
/// against the layer alone.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Replay {
    pub ops: u64,
    pub secs: f64,
}

impl Replay {
    pub fn ns_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.secs * 1e9 / self.ops as f64
        }
    }
}

impl std::ops::AddAssign for Replay {
    fn add_assign(&mut self, o: Replay) {
        self.ops += o.ops;
        self.secs += o.secs;
    }
}

// ----- desim::ProgressSet ---------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ShareOp {
    Insert(SimTime, u64, f64),
    SetRate(SimTime, u64, f64),
    Earliest,
    TakeFinished(SimTime),
}

/// Operation counts of a derived CPU-set stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShareCounts {
    pub inserts: u64,
    pub set_rates: u64,
}

/// Derives the CPU-set stream of one prediction (see the module docs).
pub fn derive_share_ops(journal: &Journal) -> (Vec<ShareOp>, ShareCounts) {
    // (start, job, node, work seconds), in start order; the journal is in
    // end order.
    let mut arrivals: Vec<(u64, u64, u32, f64)> = journal
        .entries
        .iter()
        .filter_map(|e| match e.event {
            JournalEvent::Step {
                job,
                node,
                start,
                work,
                ..
            } => Some((start, job, node, work as f64 / 1e9)),
            _ => None,
        })
        .collect();
    arrivals.sort_by_key(|&(start, job, ..)| (start, job));

    let mut ops = Vec::with_capacity(arrivals.len() * 5);
    let mut counts = ShareCounts::default();
    let mut set: ProgressSet<u64> = ProgressSet::new();
    let mut on_node: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    let mut node_of: BTreeMap<u64, u32> = BTreeMap::new();
    let mut next = 0;
    loop {
        ops.push(ShareOp::Earliest);
        let fin = set.earliest_completion().map(|(_, t)| t);
        let arr = arrivals.get(next).map(|a| SimTime(a.0));
        let now = match (fin, arr) {
            (None, None) => break,
            (Some(f), Some(a)) => f.min(a),
            (Some(t), None) | (None, Some(t)) => t,
        };
        let mut dirty: Vec<u32> = Vec::new();
        if fin.is_some_and(|f| f <= now) {
            ops.push(ShareOp::TakeFinished(now));
            for job in set.take_finished(now) {
                let node = node_of.remove(&job).expect("finished job has a node");
                on_node
                    .get_mut(&node)
                    .expect("node has jobs")
                    .retain(|&j| j != job);
                dirty.push(node);
            }
        }
        while let Some(&(start, job, node, work)) = arrivals.get(next) {
            if SimTime(start) > now {
                break;
            }
            next += 1;
            ops.push(ShareOp::Insert(now, job, work));
            counts.inserts += 1;
            set.insert(now, job, work);
            on_node.entry(node).or_default().push(job);
            node_of.insert(job, node);
            dirty.push(node);
        }
        dirty.sort_unstable();
        dirty.dedup();
        for node in dirty {
            let jobs = &on_node[&node];
            let rate = 1.0 / jobs.len().max(1) as f64;
            for &job in jobs {
                ops.push(ShareOp::SetRate(now, job, rate));
                counts.set_rates += 1;
                set.set_rate(now, job, rate);
            }
        }
    }
    (ops, counts)
}

pub fn replay_share(ops: &[ShareOp]) -> Replay {
    let (secs, ()) = timed_median(|| {
        let mut set: ProgressSet<u64> = ProgressSet::new();
        for op in black_box(ops) {
            match *op {
                ShareOp::Insert(t, job, work) => set.insert(t, job, work),
                ShareOp::SetRate(t, job, rate) => set.set_rate(t, job, rate),
                ShareOp::Earliest => {
                    black_box(set.earliest_completion());
                }
                ShareOp::TakeFinished(t) => {
                    black_box(set.take_finished(t));
                }
            }
        }
        black_box(set.len());
    });
    Replay {
        ops: ops.len() as u64,
        secs,
    }
}

// ----- netmodel::Network ----------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum NetOp {
    StartFlow(SimTime, NodeId, NodeId, u64),
    NextEventTime,
    Advance(SimTime),
}

/// What the derived network stream carries.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NetCounts {
    pub flows: u64,
    pub wire_bytes: u64,
    /// Whether the replayed network delivered every flow at the instant
    /// the journal's `Arrive` entries say it arrived.
    pub exact: bool,
}

/// Derives the network stream of one prediction (see the module docs).
pub fn derive_net_ops(journal: &Journal, params: NetParams) -> (Vec<NetOp>, NetCounts) {
    let mut node_of_thread: BTreeMap<u32, u32> = BTreeMap::new();
    let mut arrivals: Vec<u64> = Vec::new();
    for e in &journal.entries {
        match e.event {
            JournalEvent::Step { thread, node, .. } => {
                node_of_thread.insert(thread, node);
            }
            JournalEvent::Arrive { .. } => arrivals.push(e.vtime.as_nanos()),
            _ => {}
        }
    }
    // The engine's instants: it advances the fabric to every instant it
    // commits anything at. Posts start flows at theirs.
    let mut posts: Vec<(SimTime, NodeId, NodeId, u64)> = Vec::new();
    let mut instants: Vec<SimTime> = Vec::with_capacity(journal.entries.len());
    for e in &journal.entries {
        if instants.last() != Some(&e.vtime) {
            instants.push(e.vtime);
        }
        if let JournalEvent::Post {
            thread,
            dst_thread,
            wire_bytes,
            local: 0,
            ..
        } = e.event
        {
            // A thread that never ran a step hosts no operation that could
            // post or receive, so both lookups succeed on a whole journal.
            let (Some(&src), Some(&dst)) =
                (node_of_thread.get(&thread), node_of_thread.get(&dst_thread))
            else {
                continue;
            };
            posts.push((e.vtime, NodeId(src), NodeId(dst), wire_bytes));
        }
    }

    let mut counts = NetCounts {
        flows: posts.len() as u64,
        ..NetCounts::default()
    };
    let mut ops = Vec::with_capacity(instants.len() * 2 + posts.len());
    let mut net = Network::new(params, Sharing::EqualSplit);
    let mut delivered: Vec<u64> = Vec::with_capacity(posts.len());
    let (mut next_post, mut next_instant) = (0, 0);
    let mut now = SimTime::ZERO;
    loop {
        while let Some(&(t, src, dst, bytes)) = posts.get(next_post) {
            if t > now {
                break;
            }
            next_post += 1;
            ops.push(NetOp::StartFlow(now, src, dst, bytes));
            net.start_flow(now, src, dst, bytes);
        }
        while instants.get(next_instant).is_some_and(|&t| t <= now) {
            next_instant += 1;
        }
        ops.push(NetOp::NextEventTime);
        let t = match (net.next_event_time(), instants.get(next_instant).copied()) {
            (None, None) => break,
            (Some(a), Some(b)) => a.min(b),
            (Some(t), None) | (None, Some(t)) => t,
        };
        ops.push(NetOp::Advance(t));
        delivered.extend(net.advance(t).iter().map(|_| t.as_nanos()));
        now = t;
    }
    counts.wire_bytes = net.stats().wire_bytes;
    arrivals.sort_unstable();
    counts.exact = delivered == arrivals;
    (ops, counts)
}

pub fn replay_net(ops: &[NetOp], params: NetParams) -> Replay {
    let (secs, ()) = timed_median(|| {
        let mut net = Network::new(params, Sharing::EqualSplit);
        for op in black_box(ops) {
            match *op {
                NetOp::StartFlow(t, src, dst, bytes) => {
                    black_box(net.start_flow(t, src, dst, bytes));
                }
                NetOp::NextEventTime => {
                    black_box(net.next_event_time());
                }
                NetOp::Advance(t) => {
                    black_box::<Vec<NetEvent>>(net.advance(t));
                }
            }
        }
    });
    Replay {
        ops: ops.len() as u64,
        secs,
    }
}

// ----- desim::EventQueue ----------------------------------------------------

/// The service's queue stream: instants to schedule at, `pending` of them
/// ahead of the matching pops.
pub struct QueueOps {
    pub instants: Vec<SimTime>,
    pub pending: usize,
}

pub fn derive_queue_ops(decisions: &Journal, total_nodes: u32) -> QueueOps {
    QueueOps {
        instants: decisions.entries.iter().map(|e| e.vtime).collect(),
        pending: total_nodes as usize,
    }
}

pub fn replay_queue(q: &QueueOps) -> Replay {
    let (secs, ()) = timed_median(|| {
        let mut queue: EventQueue<u32> = EventQueue::new();
        let instants = black_box(&q.instants);
        for (i, &t) in instants.iter().enumerate() {
            queue.schedule(t, i as u32);
            if i >= q.pending {
                black_box(queue.pop());
            }
        }
        while let Some(e) = queue.pop() {
            black_box(e);
        }
    });
    Replay {
        ops: 2 * q.instants.len() as u64,
        secs,
    }
}

/// Committed decisions per decision code.
pub fn decision_counts(decisions: &Journal) -> [u64; cluster_svc::DECISION_LABELS.len()] {
    let mut counts = [0; cluster_svc::DECISION_LABELS.len()];
    for e in &decisions.entries {
        if let JournalEvent::Step { op, .. } = e.event {
            if let Some(c) = counts.get_mut(op as usize) {
                *c += 1;
            }
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs;

    fn small_lu_journal(removal: bool) -> (Journal, dps_sim::RunReport) {
        let mut env = inputs::env();
        env.simcfg.record_journal = true;
        let mut cfg = env.lu_sized(432, 54, 4);
        if removal {
            cfg.removal = vec![(3, 2)];
        }
        let mut report = env.predict(&cfg).unwrap().report;
        (report.journal.take().unwrap(), report)
    }

    #[test]
    fn derived_streams_count_what_the_engine_counted() {
        for removal in [false, true] {
            let (journal, report) = small_lu_journal(removal);
            let (share_ops, share) = derive_share_ops(&journal);
            assert_eq!(share.inserts, report.steps, "one insert per step");
            assert!(share.set_rates >= share.inserts);
            let takes = share_ops
                .iter()
                .filter(|o| matches!(o, ShareOp::TakeFinished(_)))
                .count() as u64;
            assert!(takes > 0 && takes <= report.steps);

            let (net_ops, net) = derive_net_ops(&journal, inputs::env().net);
            assert_eq!(net.flows, report.net.flows_completed);
            assert_eq!(net.wire_bytes, report.net.wire_bytes);
            assert!(
                net.exact,
                "replayed network must deliver at Arrive instants"
            );
            let starts = net_ops
                .iter()
                .filter(|o| matches!(o, NetOp::StartFlow(..)))
                .count() as u64;
            assert_eq!(starts, net.flows);
        }
    }

    #[test]
    fn replays_apply_every_operation() {
        let (journal, _) = small_lu_journal(false);
        let (share_ops, _) = derive_share_ops(&journal);
        let r = replay_share(&share_ops);
        assert_eq!(r.ops, share_ops.len() as u64);
        assert!(r.secs > 0.0 && r.ns_per_op() > 0.0);
        let (net_ops, _) = derive_net_ops(&journal, inputs::env().net);
        assert_eq!(
            replay_net(&net_ops, inputs::env().net).ops,
            net_ops.len() as u64
        );
        assert_eq!(Replay::default().ns_per_op(), 0.0);
    }

    #[test]
    fn queue_stream_is_two_ops_per_decision() {
        let mut j = Journal::new();
        for (i, op) in [0u32, 1, 6, 0, 1, 6, 5].into_iter().enumerate() {
            j.push(
                SimTime(i as u64 * 10),
                JournalEvent::Step {
                    job: i as u64,
                    op,
                    thread: 0,
                    node: 0,
                    start: 1,
                    work: 0,
                },
            );
        }
        let q = derive_queue_ops(&j, 4);
        assert_eq!(replay_queue(&q).ops, 14);
        let counts = decision_counts(&j);
        assert_eq!(counts[cluster_svc::decision::ADMIT as usize], 2);
        assert_eq!(counts[cluster_svc::decision::COMPLETE as usize], 2);
        assert_eq!(counts[cluster_svc::decision::REJECT as usize], 1);
    }
}
