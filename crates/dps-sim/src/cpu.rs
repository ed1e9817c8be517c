//! The CPU model: every node's runnable atomic steps share its processor
//! evenly, after the [`Fabric`] has taken what handling the node's
//! concurrent transfers costs (the paper's §3).
//!
//! The engine drives it like the fabric: [`CpuModel::next_completion`] says
//! when a step finishes on its own, [`CpuModel::take_finished_into`] collects the
//! steps due at an instant, and [`CpuModel::reprice`] re-splits the
//! processors whose population or communication load changed.

use desim::{FxHashMap, ProgressSet, SimDuration, SimTime};
use netmodel::NodeId;

use crate::engine::ServerKey;
use crate::fabric::Fabric;

/// What is known about a running atomic step.
#[derive(Clone, Copy)]
pub(crate) struct StepInfo {
    pub(crate) server: ServerKey,
    pub(crate) node: NodeId,
    pub(crate) start: SimTime,
    pub(crate) work: SimDuration,
}

/// One node's processor.
#[derive(Clone, Default)]
struct NodeCpu {
    /// Running steps, in start order.
    steps: Vec<u64>,
    /// Rate last pushed to every one of `steps`; they are only re-rated
    /// when the share moves or `dirty` is set, because touching a step
    /// settles it and re-keys its completion-heap entry.
    rate: f64,
    /// A step started or finished here since the last reprice — its steps
    /// need fresh rates even if the share is unchanged (a new step still
    /// carries rate 0).
    dirty: bool,
}

/// Cloning it gives a fork its own independent copy.
#[derive(Clone)]
pub(crate) struct CpuModel {
    progress: ProgressSet<u64>,
    steps: FxHashMap<u64, StepInfo>,
    /// Indexed by `NodeId`.
    nodes: Vec<NodeCpu>,
    /// Nodes with `dirty` set.
    dirty: Vec<NodeId>,
    next_id: u64,
    /// Scratch for `reprice`'s affected-node list.
    scratch: Vec<NodeId>,
}

impl CpuModel {
    pub(crate) fn new(node_count: usize) -> CpuModel {
        CpuModel {
            progress: ProgressSet::new(),
            steps: FxHashMap::default(),
            nodes: vec![NodeCpu::default(); node_count],
            dirty: Vec::new(),
            next_id: 0,
            scratch: Vec::new(),
        }
    }

    /// Hands out the next step id. Ids break same-instant completion ties,
    /// so the order they are taken in is part of the run's behaviour.
    pub(crate) fn reserve_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id - 1
    }

    fn touch(&mut self, node: NodeId) {
        if !std::mem::replace(&mut self.nodes[node.0 as usize].dirty, true) {
            self.dirty.push(node);
        }
    }

    /// Starts step `id` (at rate 0 until the next [`reprice`]).
    ///
    /// [`reprice`]: CpuModel::reprice
    pub(crate) fn start(&mut self, id: u64, info: StepInfo) {
        self.progress
            .insert(info.start, id, info.work.as_secs_f64());
        self.steps.insert(id, info);
        self.nodes[info.node.0 as usize].steps.push(id);
        self.touch(info.node);
    }

    /// When the next step finishes under the current rates.
    pub(crate) fn next_completion(&mut self) -> Option<SimTime> {
        self.progress.earliest_completion().map(|(_, t)| t)
    }

    /// Appends the steps whose computation has drained by `now`, in id
    /// order. Each stays on its node until it is
    /// [`retire`](CpuModel::retire)d.
    pub(crate) fn take_finished_into(&mut self, now: SimTime, out: &mut Vec<u64>) {
        self.progress.take_finished_into(now, out);
    }

    /// Forgets a finished step, freeing its share of the node.
    pub(crate) fn retire(&mut self, id: u64) -> StepInfo {
        let info = self.steps.remove(&id).expect("unknown step");
        let steps = &mut self.nodes[info.node.0 as usize].steps;
        let at = steps.iter().position(|&s| s == id);
        steps.remove(at.expect("running step is on its node"));
        self.touch(info.node);
        info
    }

    /// Re-splits processors. Only two things move a node's per-step rate:
    /// its step population (the `dirty` marks) and its communication load
    /// (reported by the fabric). When the fabric can enumerate the latter
    /// the cost is O(nodes that changed); otherwise every node is examined.
    pub(crate) fn reprice(&mut self, now: SimTime, fabric: &mut (impl Fabric + ?Sized)) {
        let mut affected = std::mem::take(&mut self.scratch);
        affected.clear();
        if fabric.comm_dirty_nodes(&mut affected) {
            affected.append(&mut self.dirty);
            affected.sort_unstable();
            affected.dedup();
        } else {
            affected.clear();
            self.dirty.clear();
            affected.extend((0..self.nodes.len() as u32).map(NodeId));
        }
        for &node in &affected {
            // The fabric may name nodes the application never deployed to.
            let Some(cpu) = self.nodes.get_mut(node.0 as usize) else {
                continue;
            };
            let repopulated = std::mem::take(&mut cpu.dirty);
            let k = cpu.steps.len();
            if k == 0 {
                continue;
            }
            let rate = fabric.cpu_available(node) / (k as f64 * fabric.sharing_penalty(k));
            if rate == cpu.rate && !repopulated {
                continue;
            }
            cpu.rate = rate;
            for &id in &cpu.steps {
                self.progress.set_rate(now, id, rate);
            }
        }
        self.scratch = affected;
    }
}
