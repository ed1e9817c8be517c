//! The scheduling rules the service engine applies, each defined once
//! here:
//!
//! * [`NodePool`] — a free bitset with a free count per cell, lowest ids
//!   granted first, with the crash/preempt strike semantics of a
//!   [`faults::FaultPlan`] outage;
//! * [`FaultPricing`] — an iteration's wall time under slowdown/degrade
//!   windows plus checkpoint and restart costs;
//! * [`capped_backoff`] — the capped exponential requeue/retry delay;
//! * [`efficiency_target`] — the malleable policy's allocation scan (the
//!   `server-shrink` scenario also applies it to one job on its own).

use cluster::{ProfileCache, Workload};
use desim::{SimDuration, SimTime};
use dps_sim::SimResult;
use faults::{CheckpointSpec, FaultPlan, RateTimeline, RateWindow};

/// `holder` entry of a node no job holds.
const NO_HOLDER: u32 = u32::MAX;

/// What an outage did to the node it struck (see [`NodePool::strike`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Strike {
    /// Nothing left to take: the node is unknown, already crashed, or
    /// already away (a crash while away only makes the absence permanent).
    Ignored,
    /// The node was idle and left its cell's free set.
    Idle,
    /// The node was held by this holder, which the caller must interrupt;
    /// releasing the holder's nodes then skips the struck one.
    Held(u32),
}

/// The compute nodes of a server, partitioned into equal cells. Node ids
/// are dense: cell `c` owns `c * nodes_per_cell .. (c + 1) * nodes_per_cell`.
/// The free set is one bit per node id (cells may share or straddle
/// 64-bit words) plus a free count per cell; a grant takes the cell's
/// lowest free ids, so allocations are a function of the grant/release
/// sequence alone.
pub(crate) struct NodePool {
    nodes_per_cell: u32,
    /// Bit `id % 64` of word `id / 64` is set while node `id` is free.
    free: Vec<u64>,
    /// Per cell: set bits in its id range.
    free_count: Vec<u32>,
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
        let mut free = vec![0u64; total.div_ceil(64)];
        for i in 0..total {
            free[i / 64] |= 1 << (i % 64);
        }
        NodePool {
            nodes_per_cell,
            free,
            free_count: vec![nodes_per_cell; cells as usize],
            alive: vec![nodes_per_cell; cells as usize],
            holder: vec![NO_HOLDER; total],
            dead: vec![false; total],
            away: vec![false; total],
        }
    }

    /// Free nodes in `cell` right now.
    pub fn free_in(&self, cell: u32) -> u32 {
        self.free_count[cell as usize]
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
        for (c, &free) in self.free_count.iter().enumerate() {
            let c = c as u32;
            if Some(c) != except && best.is_none_or(|(_, f)| free > f) {
                best = Some((c, free));
            }
        }
        best
    }

    /// Moves the `n` lowest free ids of `cell` onto the end of `held`,
    /// recording `holder` for each. Panics if `cell` has fewer than `n`
    /// free nodes.
    pub fn grant(&mut self, cell: u32, n: u32, holder: u32, held: &mut Vec<u32>) {
        let free = &mut self.free_count[cell as usize];
        assert!(
            n <= *free,
            "grant of {n} nodes from cell {cell} with {free} free"
        );
        *free -= n;
        // The cell holds at least `n` set bits at or above its first id,
        // so the `n` lowest of those never leave the cell.
        let first = (cell * self.nodes_per_cell) as usize;
        let mut word = first / 64;
        let mut bits = self.free[word] & (u64::MAX << (first % 64));
        for _ in 0..n {
            while bits == 0 {
                word += 1;
                bits = self.free[word];
            }
            let bit = bits & bits.wrapping_neg();
            bits ^= bit;
            self.free[word] ^= bit;
            let node = word * 64 + bit.trailing_zeros() as usize;
            self.holder[node] = holder;
            held.push(node as u32);
        }
    }

    /// Takes `node` back from its holder. It rejoins its cell's free set
    /// unless an outage has it out of service.
    fn release(&mut self, node: u32) {
        let i = node as usize;
        self.holder[i] = NO_HOLDER;
        if !self.dead[i] && !self.away[i] {
            self.free[i / 64] |= 1 << (i % 64);
            self.free_count[(node / self.nodes_per_cell) as usize] += 1;
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
        for &node in &held[target as usize..] {
            self.release(node);
        }
        held.truncate(target as usize);
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
        let bit = 1 << (i % 64);
        if self.free[i / 64] & bit != 0 {
            self.free[i / 64] ^= bit;
            self.free_count[cell] -= 1;
        }
        Strike::Idle
    }

    /// A preempted node's return time arrived. Returns whether it rejoined
    /// its cell's free set (a node that crashed while away never does).
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
/// factors plus the checkpoint spec, fixed for a whole server run.
pub(crate) struct FaultPricing {
    cpu: Factors,
    link: Factors,
    /// The checkpoint/restart cost model in force.
    pub ckpt: CheckpointSpec,
}

/// One rate timeline's factor for every pool node, as of one instant and
/// until its next window boundary: pricing an iteration looks up its held
/// nodes instead of scanning the plan.
struct Factors {
    timeline: RateTimeline,
    /// `timeline.factor_at(n, from)` for node ids `n` up to the highest
    /// windowed pool node; every node past it runs at 1.
    table: Vec<f64>,
    /// The table holds on `[from, until)`: no window starts or ends inside.
    from: SimTime,
    until: SimTime,
    /// Whether some window covers a pool node; when none does, every
    /// factor is 1.
    active: bool,
}

impl Factors {
    /// The factors of `windows` for pool nodes `0..nodes`, filled at the
    /// first lookup.
    fn new(windows: Vec<RateWindow>, nodes: u32) -> Factors {
        let len = windows
            .iter()
            .filter(|w| w.node < nodes)
            .map(|w| w.node + 1)
            .max()
            .unwrap_or(0);
        Factors {
            timeline: RateTimeline::new(windows),
            table: vec![1.0; len as usize],
            from: SimTime::ZERO,
            until: SimTime::ZERO,
            active: false,
        }
    }

    /// The smallest factor over the nodes in `held` at `at` (1 for none):
    /// the rate a synchronized iteration on them runs at.
    fn slowest(&mut self, held: &[u32], at: SimTime) -> f64 {
        if at < self.from || at >= self.until {
            self.refill(at);
        }
        if !self.active {
            return 1.0;
        }
        let table = &self.table;
        held.iter()
            .map(|&n| table.get(n as usize).copied().unwrap_or(1.0))
            .fold(1.0f64, f64::min)
    }

    /// Fills the table as of `at`, for as long as it holds.
    fn refill(&mut self, at: SimTime) {
        self.table.fill(1.0);
        self.active = false;
        for w in self.timeline.windows() {
            if w.from <= at && at < w.to {
                if let Some(f) = self.table.get_mut(w.node as usize) {
                    *f = self.timeline.factor_at(w.node, at);
                    self.active = true;
                }
            }
        }
        self.from = at;
        self.until = self
            .timeline
            .next_boundary_after(at)
            .unwrap_or(SimTime::MAX);
    }
}

impl FaultPricing {
    /// The pricing inputs of `plan` on a pool of `nodes` nodes.
    pub fn new(plan: &FaultPlan, nodes: u32) -> FaultPricing {
        FaultPricing {
            cpu: Factors::new(plan.cpu_windows(), nodes),
            link: Factors::new(plan.link_windows(), nodes),
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
        &mut self,
        held: &[u32],
        nominal: SimDuration,
        work: SimDuration,
        at: SimTime,
        iter: usize,
        restart_cost: SimDuration,
    ) -> (SimDuration, SimDuration) {
        let mut span = nominal;
        let mut degraded = SimDuration::ZERO;
        let (cpu_f, link_f) = (self.cpu.slowest(held, at), self.link.slowest(held, at));
        if cpu_f != 1.0 || link_f != 1.0 {
            // Split the span into a compute part (ideal work share) and a
            // communication/imbalance part, and stretch each by its factor.
            let compute = work.mul_f64(1.0 / held.len() as f64).min(span);
            let comm = span - compute;
            let slowed = compute.mul_f64(1.0 / cpu_f) + comm.mul_f64(1.0 / link_f);
            degraded = slowed.saturating_sub(span);
            span = slowed;
        }
        if self.ckpt.checkpoints_after(iter) {
            span += self.ckpt.checkpoint_cost;
        }
        (span + restart_cost, degraded)
    }
}

/// Capped exponential backoff: `base · 2^attempt`, at most `max`.
pub(crate) fn capped_backoff(base: SimDuration, max: SimDuration, attempt: u32) -> SimDuration {
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
    fn cached_factors_are_the_timelines_at_every_instant() {
        let w = |node, factor, from, to| RateWindow {
            node,
            factor,
            from: SimTime(from),
            to: SimTime(to),
        };
        let windows = vec![
            w(1, 0.5, 10, 20),
            // Overlaps the first window on node 1, then abuts one on node 3.
            w(1, 0.7, 15, 30),
            w(3, 0.3, 5, 30),
            w(3, 0.9, 30, 40),
            w(9, 0.4, 0, 50),
            // Outside a pool of 16 nodes: no pool node is slowed by it.
            w(40, 0.2, 20, 45),
        ];
        let timeline = RateTimeline::new(windows.clone());
        let mut factors = Factors::new(windows, 16);
        assert_eq!(factors.table.len(), 10);
        // Every window edge and its neighbours, going forward, then random
        // instants, which also go backward.
        let mut instants: Vec<u64> = [0, 5, 10, 15, 20, 30, 40, 45, 50]
            .iter()
            .flat_map(|&t: &u64| [t.saturating_sub(1), t, t + 1])
            .collect();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..2000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            instants.push(x % 60);
        }
        for at in instants.into_iter().map(SimTime) {
            // Nodes 10..16 are past the highest windowed node.
            for n in 0..16 {
                let want = timeline.factor_at(n, at);
                let got = factors.slowest(&[n], at);
                assert_eq!(got.to_bits(), want.to_bits(), "node {n} at {at:?}");
            }
            let held = [(x % 16) as u32, 1, 3, 12];
            let want = held
                .iter()
                .map(|&n| timeline.factor_at(n, at))
                .fold(1.0f64, f64::min);
            assert_eq!(factors.slowest(&held, at).to_bits(), want.to_bits());
            assert_eq!(factors.slowest(&[], at), 1.0);
        }
    }

    /// The sorted-free-list pool the bitset replaced, kept as the
    /// reference the differential test checks against.
    struct ListPool {
        nodes_per_cell: u32,
        free: Vec<Vec<u32>>,
        alive: Vec<u32>,
        holder: Vec<u32>,
        dead: Vec<bool>,
        away: Vec<bool>,
    }

    impl ListPool {
        fn new(nodes_per_cell: u32, cells: u32) -> ListPool {
            let total = (nodes_per_cell * cells) as usize;
            ListPool {
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

        fn free_in(&self, cell: u32) -> u32 {
            self.free[cell as usize].len() as u32
        }

        fn max_alive(&self) -> u32 {
            self.alive.iter().copied().max().unwrap_or(0)
        }

        fn roomiest(&self, except: Option<u32>) -> Option<(u32, u32)> {
            let mut best: Option<(u32, u32)> = None;
            for (c, free) in self.free.iter().enumerate() {
                let (c, free) = (c as u32, free.len() as u32);
                if Some(c) != except && best.is_none_or(|(_, f)| free > f) {
                    best = Some((c, free));
                }
            }
            best
        }

        fn grant(&mut self, cell: u32, n: u32, holder: u32, held: &mut Vec<u32>) {
            let first = held.len();
            held.extend(self.free[cell as usize].drain(..n as usize));
            for &node in &held[first..] {
                self.holder[node as usize] = holder;
            }
        }

        fn release(&mut self, node: u32) {
            self.holder[node as usize] = NO_HOLDER;
            if !self.dead[node as usize] && !self.away[node as usize] {
                let free = &mut self.free[(node / self.nodes_per_cell) as usize];
                let pos = free.partition_point(|&n| n < node);
                free.insert(pos, node);
            }
        }

        fn release_all(&mut self, held: &mut Vec<u32>) {
            for node in held.drain(..) {
                self.release(node);
            }
        }

        fn shrink(&mut self, held: &mut Vec<u32>, target: u32) {
            held.sort_unstable();
            for node in held.split_off(target as usize) {
                self.release(node);
            }
        }

        fn strike(&mut self, node: u32, crash: bool) -> Strike {
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

        fn rejoin(&mut self, node: u32) -> bool {
            self.away[node as usize] = false;
            let back = !self.dead[node as usize];
            if back {
                self.release(node);
            }
            back
        }
    }

    /// One seeded run of random grant / release_all / shrink / strike /
    /// rejoin steps on both pools, compared after every step.
    fn differential_run(npc: u32, cells: u32, draw: &mut impl FnMut(u64) -> u64) {
        let total = npc * cells;
        let (mut pool, mut list) = (NodePool::new(npc, cells), ListPool::new(npc, cells));
        // Per holder: (cell, bitset pool's held, reference's held).
        let mut jobs = vec![(0u32, Vec::new(), Vec::new()); 6];
        let mut away: Vec<u32> = Vec::new();
        for step in 0..250 {
            let ctx = format!("npc {npc} cells {cells} step {step}");
            let j = draw(jobs.len() as u64) as usize;
            match draw(6) {
                0 | 1 => {
                    let cell = if jobs[j].1.is_empty() {
                        draw(u64::from(cells)) as u32
                    } else {
                        jobs[j].0
                    };
                    let n = draw(u64::from(list.free_in(cell)) + 1) as u32;
                    jobs[j].0 = cell;
                    pool.grant(cell, n, j as u32, &mut jobs[j].1);
                    list.grant(cell, n, j as u32, &mut jobs[j].2);
                }
                2 => {
                    pool.release_all(&mut jobs[j].1);
                    list.release_all(&mut jobs[j].2);
                }
                3 => {
                    let target = draw(jobs[j].2.len() as u64 + 1) as u32;
                    pool.shrink(&mut jobs[j].1, target);
                    list.shrink(&mut jobs[j].2, target);
                }
                4 => {
                    // Out-of-range ids too: those are ignored.
                    let node = draw(u64::from(total) + 2) as u32;
                    let crash = draw(3) == 0;
                    let hit = pool.strike(node, crash);
                    assert_eq!(hit, list.strike(node, crash), "{ctx}");
                    if hit != Strike::Ignored && !crash {
                        away.push(node);
                    }
                    if let Strike::Held(h) = hit {
                        // The engines interrupt the holder at once.
                        pool.release_all(&mut jobs[h as usize].1);
                        list.release_all(&mut jobs[h as usize].2);
                    }
                }
                _ if !away.is_empty() => {
                    let node = away.swap_remove(draw(away.len() as u64) as usize);
                    assert_eq!(pool.rejoin(node), list.rejoin(node), "{ctx}");
                }
                _ => {}
            }
            for (_, held, want) in &jobs {
                assert_eq!(held, want, "{ctx}");
            }
            for c in 0..cells {
                assert_eq!(pool.free_in(c), list.free_in(c), "{ctx}");
                assert_eq!(pool.roomiest(Some(c)), list.roomiest(Some(c)), "{ctx}");
            }
            assert_eq!(pool.roomiest(None), list.roomiest(None), "{ctx}");
            assert_eq!(pool.max_alive(), list.max_alive(), "{ctx}");
        }
    }

    #[test]
    fn bitset_pool_matches_the_sorted_list_reference() {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut draw = |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n.max(1)
        };
        for npc in [1, 3, 8, 63, 64, 65, 130] {
            for cells in [1, 2, 5] {
                // Several short runs: crashes would soon leave one long
                // run with no nodes to grant.
                for _ in 0..8 {
                    differential_run(npc, cells, &mut draw);
                }
            }
        }
    }

    #[test]
    fn a_grant_never_spills_into_the_next_cell() {
        // 65-node cells straddle the 64-bit words.
        let mut p = NodePool::new(65, 2);
        let mut held = Vec::new();
        p.grant(0, 65, 1, &mut held);
        assert_eq!(held, (0..65).collect::<Vec<u32>>());
        assert_eq!((p.free_in(0), p.free_in(1)), (0, 65));
        let mut next = Vec::new();
        p.grant(1, 65, 2, &mut next);
        assert_eq!(next, (65..130).collect::<Vec<u32>>());
        p.shrink(&mut held, 2);
        p.release_all(&mut next);
        assert_eq!((p.free_in(0), p.free_in(1)), (63, 65));
        let over = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.grant(0, 64, 3, &mut Vec::new())
        }));
        assert!(
            over.is_err(),
            "granting more than the cell's free nodes panics"
        );
        assert_eq!((p.free_in(0), p.free_in(1)), (63, 65));
        p.grant(1, 65, 4, &mut next);
        assert_eq!(
            next,
            (65..130).collect::<Vec<u32>>(),
            "cell 1 kept every id"
        );
    }

    #[test]
    fn grants_take_the_lowest_free_ids() {
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
        // Idle preempt: leaves the free set until it rejoins.
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
