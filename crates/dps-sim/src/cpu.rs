//! The CPU model: every node's runnable atomic steps share its processor
//! evenly, after the [`Fabric`] has taken what handling the node's
//! concurrent transfers costs (the paper's §3).
//!
//! The engine drives it like the fabric: [`CpuModel::next_completion`] says
//! when a step finishes on its own, [`CpuModel::take_finished_into`] collects the
//! steps due at an instant, and [`CpuModel::reprice`] re-splits the
//! processors whose population or communication load changed.

use std::collections::VecDeque;

use desim::{ProgressSet, SimDuration, SimTime};
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
    /// Running steps.
    steps: usize,
    /// Rate last pushed to the node's steps; they are only re-rated when
    /// the share moves or `repopulated` is set, because a re-rate settles
    /// every step and re-keys the node's completion-heap entry.
    rate: f64,
    /// A step started or finished here since the last reprice — its steps
    /// need fresh rates even if the share is unchanged (a new step still
    /// carries rate 0).
    repopulated: bool,
    /// Listed in [`CpuModel::affected`].
    listed: bool,
}

/// Cloning it gives a fork its own independent copy.
#[derive(Clone)]
pub(crate) struct CpuModel {
    /// Running steps, grouped by node: a node's steps share one rate.
    progress: ProgressSet<u64, NodeId>,
    /// Entry `i` describes step `base + i`, `None` once it retired. Every
    /// reserved id is started before the next is reserved, so ids arrive
    /// in order; they retire roughly so, and the front is trimmed to a
    /// running step.
    steps: VecDeque<Option<StepInfo>>,
    base: u64,
    /// Indexed by `NodeId`.
    nodes: Vec<NodeCpu>,
    /// Nodes to re-split at the next reprice, each listed once.
    affected: Vec<NodeId>,
    next_id: u64,
    /// Scratch for the fabric's report of changed nodes.
    scratch: Vec<NodeId>,
}

impl CpuModel {
    pub(crate) fn new(node_count: usize) -> CpuModel {
        CpuModel {
            progress: ProgressSet::new(),
            steps: VecDeque::new(),
            base: 0,
            nodes: vec![NodeCpu::default(); node_count],
            affected: Vec::new(),
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

    /// Lists `node` for the next reprice, unless it is listed already or
    /// runs nothing of the application's.
    fn list(&mut self, node: NodeId) {
        if let Some(cpu) = self.nodes.get_mut(node.0 as usize) {
            if !std::mem::replace(&mut cpu.listed, true) {
                self.affected.push(node);
            }
        }
    }

    fn touch(&mut self, node: NodeId) {
        self.nodes[node.0 as usize].repopulated = true;
        self.list(node);
    }

    /// Starts step `id` (at rate 0 until the next [`reprice`]).
    ///
    /// [`reprice`]: CpuModel::reprice
    pub(crate) fn start(&mut self, id: u64, info: StepInfo) {
        self.progress
            .insert_in(info.start, info.node, id, info.work.as_secs_f64());
        assert_eq!(
            id,
            self.base + self.steps.len() as u64,
            "steps start in id order"
        );
        self.steps.push_back(Some(info));
        self.nodes[info.node.0 as usize].steps += 1;
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
        let slot = id
            .checked_sub(self.base)
            .and_then(|i| self.steps.get_mut(i as usize));
        let info = slot.and_then(Option::take).expect("unknown step");
        while let Some(None) = self.steps.front() {
            self.steps.pop_front();
            self.base += 1;
        }
        self.nodes[info.node.0 as usize].steps -= 1;
        self.touch(info.node);
        info
    }

    /// Re-splits processors. Only two things move a node's per-step rate:
    /// its step population (the `repopulated` marks) and its available CPU
    /// (reported by the fabric), so the cost is O(nodes that changed). The
    /// order nodes are re-split in is immaterial: each re-rate settles only
    /// its own node's steps, and completions pop by `(instant, node)`.
    pub(crate) fn reprice(&mut self, now: SimTime, fabric: &mut (impl Fabric + ?Sized)) {
        let mut reported = std::mem::take(&mut self.scratch);
        fabric.comm_dirty_nodes(&mut reported);
        // The fabric may name nodes the application never deployed to.
        for node in reported.drain(..) {
            self.list(node);
        }
        self.scratch = reported;
        for &node in &self.affected {
            let cpu = &mut self.nodes[node.0 as usize];
            cpu.listed = false;
            let repopulated = std::mem::take(&mut cpu.repopulated);
            let k = cpu.steps;
            if k == 0 {
                continue;
            }
            let rate = fabric.cpu_available(node) / (k as f64 * fabric.sharing_penalty(k));
            if rate == cpu.rate && !repopulated {
                continue;
            }
            cpu.rate = rate;
            self.progress.set_group_rate(now, node, rate);
        }
        self.affected.clear();
    }
}

#[cfg(test)]
mod tests {
    //! Closed forms for processor sharing on one node: `k` steps share the
    //! processor evenly, so equal steps finish together and staggered ones
    //! at the partial sums of `(k − m + 1)·s`.

    use dps::{OpId, ThreadId};
    use netmodel::NetParams;

    use super::*;
    use crate::fabric::SimFabric;

    /// Starts steps of the given lengths together on node 0 of an idle
    /// machine and drives the model the way the engine does: collect,
    /// retire, re-split. Returns each step's completion instant.
    fn run_steps(works: &[SimDuration]) -> Vec<SimTime> {
        let mut fabric = SimFabric::new(NetParams::ideal());
        let mut cpu = CpuModel::new(1);
        for &work in works {
            let id = cpu.reserve_id();
            let server = (OpId(0), ThreadId(0));
            let (node, start) = (NodeId(0), SimTime::ZERO);
            cpu.start(
                id,
                StepInfo {
                    server,
                    node,
                    start,
                    work,
                },
            );
        }
        cpu.reprice(SimTime::ZERO, &mut fabric);
        let (mut done, mut finished) = (vec![SimTime::ZERO; works.len()], Vec::new());
        while let Some(t) = cpu.next_completion() {
            cpu.take_finished_into(t, &mut finished);
            for id in finished.drain(..) {
                cpu.retire(id);
                done[id as usize] = t;
            }
            cpu.reprice(t, &mut fabric);
        }
        done
    }

    fn assert_within_a_nanosecond(got: SimTime, want_ns: f64, what: &str) {
        let err = (got.as_nanos() as f64 - want_ns).abs();
        assert!(err <= 1.0, "{what}: {got} vs {want_ns} ns");
    }

    #[test]
    fn k_equal_steps_finish_together_at_k_times_their_length() {
        let s = SimDuration::from_nanos(1_234_567);
        for k in 1..=6 {
            for (i, got) in run_steps(&vec![s; k]).into_iter().enumerate() {
                let want = k as f64 * s.as_nanos() as f64;
                assert_within_a_nanosecond(got, want, &format!("k={k}, step {i}"));
            }
        }
    }

    #[test]
    fn k_staggered_steps_finish_at_processor_sharing_times() {
        let s = 1_234_567u64;
        for k in 1..=6u64 {
            let works: Vec<_> = (1..=k).map(|j| SimDuration::from_nanos(j * s)).collect();
            for (got, j) in run_steps(&works).into_iter().zip(1..) {
                let want: u64 = (1..=j).map(|m| (k - m + 1) * s).sum();
                assert_within_a_nanosecond(got, want as f64, &format!("k={k}, step {j}"));
            }
        }
    }
}
