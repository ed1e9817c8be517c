//! The scheduling rules the batch [`crate::ClusterSim`] and the
//! `cluster-svc` service engine share, each defined once here:
//!
//! * [`NodePool`] — sorted free lists per cell, with the crash/preempt
//!   strike semantics of a [`faults::FaultPlan`] outage;
//! * [`FaultPricing`] — an iteration's wall time under slowdown/degrade
//!   windows plus checkpoint and restart costs;
//! * [`capped_backoff`] — the capped exponential requeue/retry delay;
//! * [`efficiency_target`] — the malleable policy's allocation scan.
//!
//! The batch server is a pool of one cell; the service partitions its
//! nodes into several. Everything else about the two engines (queueing
//! discipline, accounting arithmetic, journaling) stays their own.

use desim::{SimDuration, SimTime};
use dps_sim::SimResult;
use faults::{CheckpointSpec, FaultPlan, RateTimeline};

use crate::workload::{ProfileCache, Workload};

/// `holder` entry of a node no job holds.
const NO_HOLDER: u32 = u32::MAX;

/// What an outage did to the node it struck (see [`NodePool::strike`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strike {
    /// Nothing left to take: the node is unknown, already crashed, or
    /// already away (a crash while away only makes the absence permanent).
    Ignored,
    /// The node was idle and left its cell's free list.
    Idle,
    /// The node was held by this holder, which the caller must interrupt;
    /// releasing the holder's nodes then skips the struck one.
    Held(u32),
}

/// The compute nodes of a server, partitioned into equal cells. Node ids
/// are dense: cell `c` owns `c * nodes_per_cell .. (c + 1) * nodes_per_cell`.
/// Each cell keeps its free ids sorted ascending and grants the lowest, so
/// allocations are a function of the grant/release sequence alone.
pub struct NodePool {
    nodes_per_cell: u32,
    free: Vec<Vec<u32>>,
    /// Per cell: nodes not permanently crashed.
    alive: Vec<u32>,
    /// Node id → caller-chosen holder tag, or `NO_HOLDER`.
    holder: Vec<u32>,
    dead: Vec<bool>,
    away: Vec<bool>,
}

impl NodePool {
    /// `cells` cells of `nodes_per_cell` nodes, all free
    /// (`nodes_per_cell * cells` must fit a `u32`).
    pub fn new(nodes_per_cell: u32, cells: u32) -> NodePool {
        let total = (nodes_per_cell * cells) as usize;
        NodePool {
            nodes_per_cell,
            free: (0..cells)
                .map(|c| (c * nodes_per_cell..(c + 1) * nodes_per_cell).collect())
                .collect(),
            alive: vec![nodes_per_cell; cells as usize],
            holder: vec![NO_HOLDER; total],
            dead: vec![false; total],
            away: vec![false; total],
        }
    }

    /// Free nodes in `cell` right now.
    pub fn free_in(&self, cell: u32) -> u32 {
        self.free[cell as usize].len() as u32
    }

    /// Largest per-cell surviving capacity — the cap that keeps requests
    /// schedulable after crashes shrink cells.
    pub fn max_alive(&self) -> u32 {
        self.alive.iter().copied().max().unwrap_or(0)
    }

    /// `(cell, free nodes)` of the cell with the most free nodes, ties to
    /// the lowest cell id, optionally leaving one cell out.
    pub fn roomiest(&self, except: Option<u32>) -> Option<(u32, u32)> {
        let mut best: Option<(u32, u32)> = None;
        for (c, free) in self.free.iter().enumerate() {
            let (c, free) = (c as u32, free.len() as u32);
            if Some(c) != except && best.is_none_or(|(_, f)| free > f) {
                best = Some((c, free));
            }
        }
        best
    }

    /// Moves the `n` lowest free ids of `cell` onto the end of `held`,
    /// recording `holder` for each.
    pub fn grant(&mut self, cell: u32, n: u32, holder: u32, held: &mut Vec<u32>) {
        let first = held.len();
        held.extend(self.free[cell as usize].drain(..n as usize));
        for &node in &held[first..] {
            self.holder[node as usize] = holder;
        }
    }

    /// Takes `node` back from its holder. It rejoins its cell's free list
    /// unless an outage has it out of service.
    fn release(&mut self, node: u32) {
        self.holder[node as usize] = NO_HOLDER;
        if !self.dead[node as usize] && !self.away[node as usize] {
            let free = &mut self.free[(node / self.nodes_per_cell) as usize];
            let pos = free.partition_point(|&n| n < node);
            free.insert(pos, node);
        }
    }

    /// Releases every node of `held`, leaving it empty.
    pub fn release_all(&mut self, held: &mut Vec<u32>) {
        for node in held.drain(..) {
            self.release(node);
        }
    }

    /// Shrinks `held` to its `target` lowest ids, releasing the rest.
    pub fn shrink(&mut self, held: &mut Vec<u32>, target: u32) {
        held.sort_unstable();
        for node in held.split_off(target as usize) {
            self.release(node);
        }
    }

    /// An outage strikes `node`: a crash removes it for good, a
    /// preemption until [`NodePool::rejoin`]. Unless the strike is
    /// [`Strike::Ignored`], the caller schedules a preempted node's return.
    pub fn strike(&mut self, node: u32, crash: bool) -> Strike {
        let i = node as usize;
        if i >= self.holder.len() || self.dead[i] {
            return Strike::Ignored;
        }
        let cell = (node / self.nodes_per_cell) as usize;
        if crash {
            self.dead[i] = true;
            self.alive[cell] -= 1;
        }
        if self.away[i] {
            return Strike::Ignored;
        }
        if !crash {
            self.away[i] = true;
        }
        if self.holder[i] != NO_HOLDER {
            return Strike::Held(self.holder[i]);
        }
        if let Ok(pos) = self.free[cell].binary_search(&node) {
            self.free[cell].remove(pos);
        }
        Strike::Idle
    }

    /// A preempted node's return time arrived. Returns whether it rejoined
    /// its free list (a node that crashed while away never does).
    pub fn rejoin(&mut self, node: u32) -> bool {
        self.away[node as usize] = false;
        let back = !self.dead[node as usize];
        if back {
            self.release(node);
        }
        back
    }
}

/// The plan-derived inputs that price an iteration: the slowdown/degrade
/// timelines plus the checkpoint spec, fixed for a whole server run.
pub struct FaultPricing {
    cpu: RateTimeline,
    link: RateTimeline,
    /// The checkpoint/restart cost model in force.
    pub ckpt: CheckpointSpec,
}

impl FaultPricing {
    /// The pricing inputs of `plan`.
    pub fn new(plan: &FaultPlan) -> FaultPricing {
        FaultPricing {
            cpu: RateTimeline::new(plan.cpu_windows()),
            link: RateTimeline::new(plan.link_windows()),
            ckpt: plan.checkpoint,
        }
    }

    /// Wall time of iteration `iter` on the node set `held` starting at
    /// `at`: the profile's `nominal` span stretched by any active slowdown
    /// (CPU) and degrade (link) windows — a window on *any* held node
    /// delays the whole iteration, matching the BSP-style synchronization
    /// of the workloads — plus the checkpoint write cost at checkpoint
    /// boundaries and `restart_cost` on a restart. Returns `(span,
    /// degradation extra)`. With no windows active the nominal span passes
    /// through untouched.
    pub fn span(
        &self,
        held: &[u32],
        nominal: SimDuration,
        work: SimDuration,
        at: SimTime,
        iter: usize,
        restart_cost: SimDuration,
    ) -> (SimDuration, SimDuration) {
        let mut span = nominal;
        let mut degraded = SimDuration::ZERO;
        if !self.cpu.is_empty() || !self.link.is_empty() {
            let slowest = |tl: &RateTimeline| {
                held.iter()
                    .map(|&n| tl.factor_at(n, at))
                    .fold(1.0f64, f64::min)
            };
            let (cpu_f, link_f) = (slowest(&self.cpu), slowest(&self.link));
            if cpu_f != 1.0 || link_f != 1.0 {
                // Split the span into a compute part (ideal work share) and a
                // communication/imbalance part, and stretch each by its factor.
                let compute = work.mul_f64(1.0 / held.len() as f64).min(span);
                let comm = span - compute;
                let slowed = compute.mul_f64(1.0 / cpu_f) + comm.mul_f64(1.0 / link_f);
                degraded = slowed.saturating_sub(span);
                span = slowed;
            }
        }
        if self.ckpt.checkpoints_after(iter) {
            span += self.ckpt.checkpoint_cost;
        }
        (span + restart_cost, degraded)
    }
}

/// Capped exponential backoff: `base · 2^attempt`, at most `max`.
pub fn capped_backoff(base: SimDuration, max: SimDuration, attempt: u32) -> SimDuration {
    SimDuration(
        base.as_nanos()
            .saturating_mul(1u64 << attempt.min(20))
            .min(max.as_nanos()),
    )
}

/// The malleable policy's allocation target: the largest allocation in
/// `1..=cap` whose predicted efficiency at iteration `iter` clears
/// `min_eff` (1 when none does). Every allocation is probed, so the
/// profile cache sees the same lookups whatever the answer.
pub fn efficiency_target(
    cache: &mut ProfileCache,
    w: &dyn Workload,
    iter: usize,
    cap: u32,
    min_eff: f64,
) -> SimResult<u32> {
    let mut best = 1;
    for n in 1..=cap {
        if cache.efficiency(w, n, iter)? >= min_eff {
            best = n;
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_lists_stay_sorted_and_grant_the_lowest_ids() {
        let mut p = NodePool::new(4, 3);
        assert_eq!(p.free_in(2), 4);
        let mut held = Vec::new();
        p.grant(2, 2, 7, &mut held);
        assert_eq!(held, vec![8, 9]);
        p.grant(2, 2, 7, &mut held);
        assert_eq!(held, vec![8, 9, 10, 11]);
        p.shrink(&mut held, 1);
        assert_eq!(held, vec![8]);
        let mut again = Vec::new();
        p.grant(2, 3, 9, &mut again);
        assert_eq!(again, vec![9, 10, 11], "released ids rejoin in order");
        p.release_all(&mut again);
        p.release_all(&mut held);
        assert_eq!(p.free_in(2), 4);
        assert_eq!(p.roomiest(None), Some((0, 4)), "ties go to the lowest id");
        assert_eq!(p.roomiest(Some(0)), Some((1, 4)));
    }

    #[test]
    fn strikes_follow_the_outage_semantics() {
        let mut p = NodePool::new(4, 2);
        let mut held = Vec::new();
        p.grant(0, 2, 5, &mut held);
        // Idle preempt: leaves the free list until it rejoins.
        assert_eq!(p.strike(3, false), Strike::Idle);
        assert_eq!(p.free_in(0), 1);
        assert_eq!(p.strike(3, false), Strike::Ignored, "already away");
        assert!(p.rejoin(3));
        assert_eq!(p.free_in(0), 2);
        // Held crash: the holder is named, and releasing its nodes skips
        // the dead one.
        assert_eq!(p.strike(0, true), Strike::Held(5));
        p.release_all(&mut held);
        assert_eq!(p.free_in(0), 3);
        assert_eq!(p.max_alive(), 4, "cell 1 is intact");
        assert_eq!(p.strike(0, true), Strike::Ignored, "already dead");
        // A crash while away is permanent: the node never rejoins.
        assert_eq!(p.strike(4, false), Strike::Idle);
        assert_eq!(p.strike(4, true), Strike::Ignored);
        assert!(!p.rejoin(4));
        assert_eq!((p.free_in(1), p.max_alive()), (3, 3));
        assert_eq!(p.strike(99, true), Strike::Ignored, "unknown node");
    }

    #[test]
    fn backoff_doubles_up_to_its_cap() {
        let (base, max) = (SimDuration::from_secs(2), SimDuration::from_secs(60));
        assert_eq!(capped_backoff(base, max, 0), base);
        assert_eq!(capped_backoff(base, max, 3), SimDuration::from_secs(16));
        assert_eq!(capped_backoff(base, max, 5), max);
        assert_eq!(capped_backoff(base, max, u32::MAX), max);
    }
}
