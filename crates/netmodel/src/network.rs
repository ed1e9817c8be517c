//! The passive network model driven by a virtual-time engine.
//!
//! Transfers pass through two phases, matching `t = l + s/b`:
//!
//! 1. a **latency** phase of fixed duration `l` during which the flow
//!    consumes neither bandwidth nor CPU (the first byte is in flight);
//! 2. a **bandwidth** phase during which the flow's bytes drain at the rate
//!    assigned by the sharing discipline, recomputed whenever the set of
//!    concurrent flows changes.
//!
//! The engine drives the model with three calls: [`Network::start_flow`],
//! [`Network::next_event_time`], and [`Network::advance`].
//!
//! Rate updates are **incremental** under the equal-split discipline: on a
//! star topology a flow's rate is `min(up(src)/n_out(src),
//! down(dst)/n_in(dst))`, so an arrival or departure can only change the
//! rates of flows sharing its source's uplink or its destination's
//! downlink. `advance` therefore reassigns rates only for flows on those
//! *dirty* ports — O(port degree) per change — instead of recomputing the
//! whole flow set. Max-min sharing has no such locality (slack propagates
//! transitively through ports) and falls back to the full iterative
//! computation.

use std::collections::{BTreeSet, VecDeque};

use desim::{FxHashMap, ProgressSet, SimTime};

use crate::fairness::{compute_rates, FlowSpec, Sharing};
use crate::params::{NetParams, NodeId};

/// Identifies one data-object transfer.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FlowId(pub u64);

/// Events reported by [`Network::advance`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NetEvent {
    /// The transfer has fully arrived at its destination.
    Completed(FlowId),
}

/// Cumulative statistics, for reports and tests.
#[derive(Clone, Copy, Debug, Default)]
pub struct NetStats {
    /// Transfers begun.
    pub flows_started: u64,
    /// Transfers fully delivered.
    pub flows_completed: u64,
    /// Application bytes carried.
    pub payload_bytes: u64,
    /// Bytes including per-message overhead.
    pub wire_bytes: u64,
}

/// Active-flow counts on one node's two star ports.
#[derive(Clone, Copy, Debug, Default)]
struct PortLoad {
    n_in: usize,
    n_out: usize,
}

/// A scheduled per-node capacity multiplier, active on `[from, to)` —
/// degraded links during a fault window. Factors multiply the node's base
/// capacity (overridden or default) while active.
#[derive(Clone, Copy, Debug)]
struct CapWindow {
    node: NodeId,
    up_factor: f64,
    down_factor: f64,
    from: SimTime,
    to: SimTime,
    active: bool,
}

/// Flow-level star-topology network (see crate docs).
#[derive(Clone)]
pub struct Network {
    params: NetParams,
    sharing: Sharing,
    next_id: u64,
    /// Flows still in their latency phase. The latency is one constant per
    /// network, so expiries are monotone in start order and promotion pops
    /// a queue prefix — no ordered map needed. Equal expiries stay in
    /// FlowId order by construction.
    latent: VecDeque<(SimTime, FlowId, FlowSpec, f64)>,
    /// Flows draining bytes under the sharing discipline.
    active: ProgressSet<FlowId>,
    specs: FxHashMap<FlowId, FlowSpec>,
    /// Per-node active-flow counts — the only inputs to equal-split rates.
    load: FxHashMap<NodeId, PortLoad>,
    /// Active flows by source node (uplink users).
    by_src: FxHashMap<NodeId, Vec<FlowId>>,
    /// Active flows by destination node (downlink users).
    by_dst: FxHashMap<NodeId, Vec<FlowId>>,
    /// Nodes whose uplink / downlink population changed since the last rate
    /// assignment; drained by `advance`.
    dirty_src: BTreeSet<NodeId>,
    dirty_dst: BTreeSet<NodeId>,
    /// Nodes whose active-flow counts changed since the last
    /// [`Network::drain_comm_dirty`] — lets a CPU model recompute only the
    /// nodes whose communication load actually moved.
    comm_dirty: Vec<NodeId>,
    /// Scratch buffer for [`Network::reassign_rates`] (avoids a per-event
    /// allocation).
    scratch: Vec<FlowId>,
    stats: NetStats,
    /// Per-node (up, down) capacity overrides for heterogeneous clusters
    /// (straggler nodes, mixed link speeds).
    caps: FxHashMap<NodeId, (f64, f64)>,
    /// Scheduled time-windowed capacity multipliers (fault injection);
    /// windows whose end has passed are dropped.
    windows: Vec<CapWindow>,
    /// Cached product of the *active* windows' factors per node; absent
    /// means exactly (1, 1), so fault-free nodes keep bit-identical rates.
    window_factor: FxHashMap<NodeId, (f64, f64)>,
}

impl Network {
    /// A network with no flows in it, sharing link capacity per `sharing`.
    /// Panics if `params` do not validate.
    pub fn new(params: NetParams, sharing: Sharing) -> Network {
        params.validate().expect("invalid network parameters");
        Network {
            params,
            sharing,
            next_id: 0,
            latent: VecDeque::new(),
            active: ProgressSet::new(),
            specs: FxHashMap::default(),
            load: FxHashMap::default(),
            by_src: FxHashMap::default(),
            by_dst: FxHashMap::default(),
            dirty_src: BTreeSet::new(),
            dirty_dst: BTreeSet::new(),
            comm_dirty: Vec::new(),
            scratch: Vec::new(),
            stats: NetStats::default(),
            caps: FxHashMap::default(),
            windows: Vec::new(),
            window_factor: FxHashMap::default(),
        }
    }

    /// Overrides one node's link capacities (bytes/s). The star stays a
    /// star; only this node's up/down links change. Takes effect at the
    /// next rate recomputation.
    pub fn set_node_capacity(
        &mut self,
        node: NodeId,
        up_bytes_per_sec: f64,
        down_bytes_per_sec: f64,
    ) {
        assert!(up_bytes_per_sec > 0.0 && down_bytes_per_sec > 0.0);
        self.caps
            .insert(node, (up_bytes_per_sec, down_bytes_per_sec));
        self.dirty_src.insert(node);
        self.dirty_dst.insert(node);
    }

    /// Schedules a time-windowed capacity multiplier on one node's links:
    /// on `[from, to)` the node's up/down capacities are scaled by the
    /// given factors (in `(0, 1]`). Windows on the same node compose by
    /// multiplication. This is the link-level fault-injection hook — the
    /// equal-share fairness solver sees the degraded capacity and re-splits
    /// rates at the window boundaries.
    pub fn schedule_capacity_window(
        &mut self,
        node: NodeId,
        up_factor: f64,
        down_factor: f64,
        from: SimTime,
        to: SimTime,
    ) {
        assert!(
            up_factor > 0.0 && up_factor <= 1.0 && down_factor > 0.0 && down_factor <= 1.0,
            "capacity window factors must be in (0, 1]"
        );
        assert!(to > from, "empty capacity window");
        self.windows.push(CapWindow {
            node,
            up_factor,
            down_factor,
            from,
            to,
            active: false,
        });
    }

    /// An O(live-state) copy of the whole link/fairness state for
    /// checkpoint/fork: in-flight flows (latent and draining), per-port
    /// loads, pending dirty sets, accumulated statistics, capacity
    /// overrides and fault windows (elapsed ones are dropped, active ones
    /// keep their cached factors). The draining [`ProgressSet`] is
    /// compacted before cloning so the copy carries no stale
    /// completion-heap entries.
    pub fn snapshot(&mut self) -> Network {
        let now = self.active.now();
        self.windows.retain(|w| w.active || w.to > now);
        let mut copy = self.clone();
        copy.active = self.active.snapshot();
        copy.scratch = Vec::new();
        copy
    }

    /// Every capacity window currently scheduled (active or future), as
    /// `(node, up_factor, down_factor, from, to)` in scheduling order —
    /// lets an observer (the engine's event journal) record the rate edits
    /// this network will undergo.
    pub fn scheduled_windows(&self) -> Vec<(NodeId, f64, f64, SimTime, SimTime)> {
        self.windows
            .iter()
            .map(|w| (w.node, w.up_factor, w.down_factor, w.from, w.to))
            .collect()
    }

    /// Effective (up, down) capacity of a node, including any active
    /// fault-window multipliers.
    pub fn node_capacity(&self, node: NodeId) -> (f64, f64) {
        let (up, down) = self
            .caps
            .get(&node)
            .copied()
            .unwrap_or((self.params.up_bytes_per_sec, self.params.down_bytes_per_sec));
        match self.window_factor.get(&node) {
            Some(&(fu, fd)) => (up * fu, down * fd),
            None => (up, down),
        }
    }

    /// Earliest boundary of a not-yet-finished capacity window strictly
    /// relevant to the future: start of a pending window or end of an
    /// active one.
    fn next_window_boundary(&self) -> Option<SimTime> {
        self.windows
            .iter()
            .map(|w| if w.active { w.to } else { w.from })
            .min()
    }

    /// Applies window starts/ends up to `now`: flips states, drops finished
    /// windows, recomputes the cached per-node factors and marks affected
    /// ports dirty so `reassign_rates` re-splits their flows.
    fn apply_windows(&mut self, now: SimTime) {
        if self.windows.is_empty() {
            return;
        }
        let mut touched: Vec<NodeId> = Vec::new();
        for w in &mut self.windows {
            if !w.active && w.from <= now {
                w.active = true;
                touched.push(w.node);
            }
            if w.active && w.to <= now {
                w.active = false;
                w.from = SimTime::MAX; // finished: never reactivates
                touched.push(w.node);
            }
        }
        if touched.is_empty() {
            return;
        }
        self.windows.retain(|w| w.from != SimTime::MAX || w.active);
        touched.sort_unstable();
        touched.dedup();
        for node in touched {
            let mut f = (1.0, 1.0);
            let mut any = false;
            for w in self.windows.iter().filter(|w| w.active && w.node == node) {
                f.0 *= w.up_factor;
                f.1 *= w.down_factor;
                any = true;
            }
            if any {
                self.window_factor.insert(node, f);
            } else {
                self.window_factor.remove(&node);
            }
            self.dirty_src.insert(node);
            self.dirty_dst.insert(node);
        }
    }

    /// The platform parameters.
    pub fn params(&self) -> &NetParams {
        &self.params
    }

    /// The bandwidth-sharing discipline.
    pub fn sharing(&self) -> Sharing {
        self.sharing
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Number of transfers currently in flight (either phase).
    pub fn in_flight(&self) -> usize {
        self.latent.len() + self.active.len()
    }

    /// Current assigned rate (bytes/s) of a flow in its bandwidth phase.
    /// `None` for latent, completed, or unknown flows.
    pub fn flow_rate(&self, id: FlowId) -> Option<f64> {
        self.active.rate(id)
    }

    /// Starts a transfer of `payload_bytes` from `src` to `dst`.
    ///
    /// Node-local moves must be short-circuited by the caller; the star
    /// network only carries inter-node traffic.
    pub fn start_flow(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        payload_bytes: u64,
    ) -> FlowId {
        assert_ne!(src, dst, "node-local transfer must not enter the network");
        let id = FlowId(self.next_id);
        self.next_id += 1;
        let wire = payload_bytes + self.params.per_message_overhead_bytes;
        self.stats.flows_started += 1;
        self.stats.payload_bytes += payload_bytes;
        self.stats.wire_bytes += wire;
        let ready = now + self.params.latency;
        debug_assert!(
            self.latent.back().is_none_or(|&(r, ..)| r <= ready),
            "flow started in the past"
        );
        self.latent
            .push_back((ready, id, FlowSpec { src, dst }, wire as f64));
        id
    }

    /// The next time something changes inside the model: a latency phase
    /// ends or a transfer completes. The engine must call [`advance`] at (or
    /// before) this time.
    ///
    /// [`advance`]: Network::advance
    pub fn next_event_time(&mut self) -> Option<SimTime> {
        let lat = self.latent.front().map(|&(ready, ..)| ready);
        let fin = self.active.earliest_completion().map(|(_, t)| t);
        let min2 = |a: Option<SimTime>, b: Option<SimTime>| match (a, b) {
            (None, x) | (x, None) => x,
            (Some(a), Some(b)) => Some(a.min(b)),
        };
        min2(min2(lat, fin), self.next_window_boundary())
    }

    /// Advances the model to `now`, promoting flows out of their latency
    /// phase and collecting completed transfers (in deterministic order).
    pub fn advance(&mut self, now: SimTime) -> Vec<NetEvent> {
        // Drain bytes at the rates valid up to `now` first.
        self.active.advance_to(now);

        // Capacity-window boundaries crossed by this advance take effect
        // now: the affected ports get re-split below.
        self.apply_windows(now);

        // Promote latency-expired flows into the bandwidth phase.
        while let Some(&(ready, ..)) = self.latent.front() {
            if ready > now {
                break;
            }
            let (_, id, spec, bytes) = self.latent.pop_front().expect("just seen");
            self.specs.insert(id, spec);
            self.active.insert(now, id, bytes);
            self.load.entry(spec.src).or_default().n_out += 1;
            self.load.entry(spec.dst).or_default().n_in += 1;
            self.by_src.entry(spec.src).or_default().push(id);
            self.by_dst.entry(spec.dst).or_default().push(id);
            self.dirty_src.insert(spec.src);
            self.dirty_dst.insert(spec.dst);
            self.comm_dirty.push(spec.src);
            self.comm_dirty.push(spec.dst);
        }

        // Collect completions (at the rates assigned before this advance).
        let done = self.active.take_finished(now);
        let mut events = Vec::with_capacity(done.len());
        for id in done {
            let spec = self.specs.remove(&id).expect("active flow has a spec");
            self.load.entry(spec.src).or_default().n_out -= 1;
            self.load.entry(spec.dst).or_default().n_in -= 1;
            self.by_src
                .get_mut(&spec.src)
                .expect("indexed")
                .retain(|&f| f != id);
            self.by_dst
                .get_mut(&spec.dst)
                .expect("indexed")
                .retain(|&f| f != id);
            self.dirty_src.insert(spec.src);
            self.dirty_dst.insert(spec.dst);
            self.comm_dirty.push(spec.src);
            self.comm_dirty.push(spec.dst);
            self.stats.flows_completed += 1;
            events.push(NetEvent::Completed(id));
        }

        if !(self.dirty_src.is_empty() && self.dirty_dst.is_empty()) {
            self.reassign_rates(now);
        }
        events
    }

    /// Concurrent transfer counts `(incoming, outgoing)` for `node`, used by
    /// the CPU model to charge communication handling cost. Only flows in
    /// their bandwidth phase count — during the latency phase no data is
    /// being copied on either host.
    pub fn comm_counts(&self, node: NodeId) -> (usize, usize) {
        let l = self.load.get(&node).copied().unwrap_or_default();
        (l.n_in, l.n_out)
    }

    /// Appends to `out` every node whose active-flow counts changed since
    /// the previous drain, then forgets them. Nodes may repeat. A CPU model
    /// whose per-node availability depends only on [`Network::comm_counts`]
    /// need only recompute these nodes.
    pub fn drain_comm_dirty(&mut self, out: &mut Vec<NodeId>) {
        out.append(&mut self.comm_dirty);
    }

    /// Equal-split rate of one flow from the current port counts — the same
    /// expression `fairness::equal_split` evaluates, so incremental and
    /// from-scratch assignments agree bit-for-bit.
    fn equal_split_rate(&self, spec: FlowSpec) -> f64 {
        let up_share = self.node_capacity(spec.src).0 / self.load[&spec.src].n_out as f64;
        let down_share = self.node_capacity(spec.dst).1 / self.load[&spec.dst].n_in as f64;
        up_share.min(down_share)
    }

    /// Fair rates of every active flow, computed from scratch — a pure
    /// read of the current active set, specs and capacities, returned in
    /// ascending [`FlowId`] order. This is the rate assignment
    /// [`Network::advance`] installs (bit-for-bit: the incremental
    /// equal-split path evaluates the same expressions); exposing it as a
    /// pure function lets callers — engine compute phases running off the
    /// serial commit thread, oracle tests — price hypothetical states
    /// without mutating the model.
    pub fn rates_from_scratch(&self) -> Vec<(FlowId, f64)> {
        let mut ids: Vec<FlowId> = self.active.keys().collect();
        ids.sort_unstable();
        if ids.is_empty() {
            return Vec::new();
        }
        let flows: Vec<(u64, FlowSpec)> = ids.iter().map(|id| (id.0, self.specs[id])).collect();
        let rates = compute_rates(
            &flows,
            |n| self.node_capacity(n).0,
            |n| self.node_capacity(n).1,
            self.sharing,
        );
        ids.into_iter().map(|id| (id, rates[&id.0])).collect()
    }

    /// Reassigns rates after the active set (or a capacity) changed,
    /// draining the dirty-port sets.
    fn reassign_rates(&mut self, now: SimTime) {
        match self.sharing {
            Sharing::EqualSplit => {
                // Only flows crossing a dirty port can have changed rates.
                let mut affected = std::mem::take(&mut self.scratch);
                affected.clear();
                for src in std::mem::take(&mut self.dirty_src) {
                    if let Some(v) = self.by_src.get(&src) {
                        affected.extend_from_slice(v);
                    }
                }
                for dst in std::mem::take(&mut self.dirty_dst) {
                    if let Some(v) = self.by_dst.get(&dst) {
                        affected.extend_from_slice(v);
                    }
                }
                affected.sort_unstable();
                affected.dedup();
                for &id in &affected {
                    let rate = self.equal_split_rate(self.specs[&id]);
                    self.active.set_rate(now, id, rate);
                }
                self.scratch = affected;
            }
            Sharing::MaxMin => {
                // No locality: a departure's slack can cascade anywhere.
                self.dirty_src.clear();
                self.dirty_dst.clear();
                for (id, rate) in self.rates_from_scratch() {
                    self.active.set_rate(now, id, rate);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::SimDuration;

    fn net(lat_us: u64, bw: f64) -> Network {
        Network::new(
            NetParams {
                latency: SimDuration::from_micros(lat_us),
                up_bytes_per_sec: bw,
                down_bytes_per_sec: bw,
                cpu_in_cost: 0.0,
                cpu_out_cost: 0.0,
                per_message_overhead_bytes: 0,
            },
            Sharing::EqualSplit,
        )
    }

    /// Runs the model until quiescent, returning (completion time, flow) in
    /// completion order.
    fn drain(n: &mut Network) -> Vec<(SimTime, FlowId)> {
        let mut out = Vec::new();
        while let Some(t) = n.next_event_time() {
            for ev in n.advance(t) {
                let NetEvent::Completed(id) = ev;
                out.push((t, id));
            }
        }
        out
    }

    #[test]
    fn snapshot_mid_flight_drains_identically() {
        let mut n = net(50, 1e6);
        n.set_node_capacity(NodeId(2), 5e5, 5e5);
        n.schedule_capacity_window(NodeId(1), 0.5, 0.5, SimTime(0), SimTime(40_000_000));
        for i in 0..6u32 {
            n.start_flow(
                SimTime(i as u64 * 1_000),
                NodeId(i % 3),
                NodeId((i + 1) % 3),
                100_000 + i as u64 * 10_000,
            );
        }
        // Advance partway: some flows promoted, some still latent, the
        // capacity window active.
        let mid = SimTime(10_000_000);
        n.advance(mid);
        let mut copy = n.snapshot();
        assert_eq!(copy.in_flight(), n.in_flight());
        let a = drain(&mut n);
        let b = drain(&mut copy);
        assert_eq!(a, b, "snapshot must drain bit-identically");
        assert_eq!(n.stats().flows_completed, copy.stats().flows_completed);
    }

    #[test]
    fn single_flow_takes_latency_plus_bytes_over_bandwidth() {
        let mut n = net(100, 1e6);
        let id = n.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 1_000_000);
        let done = drain(&mut n);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].1, id);
        // 100us + 1s
        assert_eq!(done[0].0, SimTime(1_000_100_000));
    }

    #[test]
    fn two_flows_same_uplink_share_bandwidth() {
        let mut n = net(0, 1e6);
        n.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 500_000);
        n.start_flow(SimTime::ZERO, NodeId(0), NodeId(2), 500_000);
        let done = drain(&mut n);
        assert_eq!(done.len(), 2);
        // Each gets 0.5 MB/s, so both 0.5 MB payloads finish at t = 1 s.
        for (t, _) in done {
            assert_eq!(t, SimTime(1_000_000_000));
        }
    }

    #[test]
    fn disjoint_pairs_do_not_interfere() {
        let mut n = net(0, 1e6);
        n.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 1_000_000);
        n.start_flow(SimTime::ZERO, NodeId(2), NodeId(3), 1_000_000);
        let done = drain(&mut n);
        for (t, _) in done {
            assert_eq!(t, SimTime(1_000_000_000));
        }
    }

    #[test]
    fn late_flow_slows_down_running_flow() {
        let mut n = net(0, 1e6);
        let a = n.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 1_000_000);
        n.advance(SimTime::ZERO); // promote a into its bandwidth phase
        n.advance(SimTime(500_000_000)); // a is half done
        let b = n.start_flow(SimTime(500_000_000), NodeId(0), NodeId(2), 250_000);
        let done = drain(&mut n);
        // From 0.5s, both share the uplink at 0.5 MB/s. b needs 0.5s for
        // 0.25 MB, finishing at 1.0s; a's remaining 0.5 MB drains 0.25 MB by
        // then, and the final 0.25 MB at full speed: 1.25s total.
        let tb = done.iter().find(|(_, id)| *id == b).unwrap().0;
        let ta = done.iter().find(|(_, id)| *id == a).unwrap().0;
        assert_eq!(tb, SimTime(1_000_000_000));
        assert_eq!(ta, SimTime(1_250_000_000));
    }

    #[test]
    fn latency_phase_consumes_no_bandwidth() {
        let mut n = net(1_000_000, 1e6); // 1s latency
        let a = n.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 1_000_000);
        // Start b mid-way through a's bandwidth phase; b's latency phase
        // overlaps a's transfer without stealing bandwidth.
        n.advance(SimTime(1_000_000_000)); // a enters bandwidth phase
        let b = n.start_flow(SimTime(1_500_000_000), NodeId(0), NodeId(2), 1_000_000);
        let done = drain(&mut n);
        let ta = done.iter().find(|(_, id)| *id == a).unwrap().0;
        let tb = done.iter().find(|(_, id)| *id == b).unwrap().0;
        // a: latency 1s + transfer 1s = 2s (b only becomes active at 2.5s).
        assert_eq!(ta, SimTime(2_000_000_000));
        // b: ready at 2.5s, alone on the link, 1s transfer.
        assert_eq!(tb, SimTime(3_500_000_000));
    }

    #[test]
    fn comm_counts_track_active_flows() {
        let mut n = net(100, 1e6);
        n.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 1_000_000);
        n.start_flow(SimTime::ZERO, NodeId(2), NodeId(1), 1_000_000);
        assert_eq!(n.comm_counts(NodeId(1)), (0, 0)); // still latent
        n.advance(SimTime(100_000));
        assert_eq!(n.comm_counts(NodeId(1)), (2, 0));
        assert_eq!(n.comm_counts(NodeId(0)), (0, 1));
        drain(&mut n);
        assert_eq!(n.comm_counts(NodeId(1)), (0, 0));
    }

    #[test]
    fn zero_byte_flow_takes_exactly_latency() {
        let mut n = net(250, 1e6);
        n.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 0);
        let done = drain(&mut n);
        assert_eq!(done[0].0, SimTime(250_000));
    }

    #[test]
    #[should_panic(expected = "node-local")]
    fn local_transfer_rejected() {
        let mut n = net(0, 1e6);
        n.start_flow(SimTime::ZERO, NodeId(3), NodeId(3), 10);
    }

    #[test]
    fn stats_accumulate() {
        let mut n = Network::new(
            NetParams {
                per_message_overhead_bytes: 50,
                ..NetParams::ideal()
            },
            Sharing::EqualSplit,
        );
        n.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 1000);
        n.start_flow(SimTime::ZERO, NodeId(1), NodeId(0), 2000);
        drain(&mut n);
        let s = n.stats();
        assert_eq!(s.flows_started, 2);
        assert_eq!(s.flows_completed, 2);
        assert_eq!(s.payload_bytes, 3000);
        assert_eq!(s.wire_bytes, 3100);
    }

    #[test]
    fn straggler_node_slows_only_its_own_flows() {
        let mut n = net(0, 1e6);
        n.set_node_capacity(NodeId(1), 1e6, 0.25e6); // slow downlink
        let slow = n.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 250_000);
        let fast = n.start_flow(SimTime::ZERO, NodeId(2), NodeId(3), 250_000);
        let done = drain(&mut n);
        let t_slow = done.iter().find(|(_, id)| *id == slow).unwrap().0;
        let t_fast = done.iter().find(|(_, id)| *id == fast).unwrap().0;
        assert_eq!(t_fast, SimTime(250_000_000)); // 0.25 MB at 1 MB/s
        assert_eq!(t_slow, SimTime(1_000_000_000)); // at 0.25 MB/s
        assert_eq!(n.node_capacity(NodeId(1)), (1e6, 0.25e6));
        assert_eq!(n.node_capacity(NodeId(0)), (1e6, 1e6));
    }

    #[test]
    fn completion_order_is_deterministic_under_ties() {
        for _ in 0..5 {
            let mut n = net(0, 1e6);
            let ids: Vec<FlowId> = (0..4)
                .map(|i| n.start_flow(SimTime::ZERO, NodeId(i), NodeId(i + 4), 1000))
                .collect();
            let done = drain(&mut n);
            let order: Vec<FlowId> = done.iter().map(|(_, id)| *id).collect();
            assert_eq!(order, ids, "tie-broken by flow id");
        }
    }

    #[test]
    fn capacity_window_degrades_and_restores_bandwidth() {
        // 1 MB at 1 MB/s, but the uplink runs at 25% during [0.5s, 1.5s):
        // 0.5 MB delivered by 0.5s, 0.25 MB during the window, the final
        // 0.25 MB at full speed => done at 1.75s.
        let mut n = net(0, 1e6);
        n.schedule_capacity_window(
            NodeId(0),
            0.25,
            0.25,
            SimTime(500_000_000),
            SimTime(1_500_000_000),
        );
        let a = n.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 1_000_000);
        n.advance(SimTime::ZERO);
        assert_eq!(n.flow_rate(a), Some(1e6));
        // The window start is a reported event boundary.
        assert_eq!(n.next_event_time(), Some(SimTime(500_000_000)));
        n.advance(SimTime(500_000_000));
        assert_eq!(n.flow_rate(a), Some(0.25e6));
        assert_eq!(n.node_capacity(NodeId(0)), (0.25e6, 0.25e6));
        let done = drain(&mut n);
        assert_eq!(done[0].0, SimTime(1_750_000_000));
        // Window is gone: capacity restored, no further boundaries.
        assert_eq!(n.node_capacity(NodeId(0)), (1e6, 1e6));
        assert_eq!(n.next_event_time(), None);
    }

    #[test]
    fn overlapping_windows_compose_multiplicatively() {
        let mut n = net(0, 1e6);
        n.schedule_capacity_window(NodeId(0), 0.5, 1.0, SimTime(0), SimTime(10_000_000_000));
        n.schedule_capacity_window(NodeId(0), 0.5, 1.0, SimTime(0), SimTime(5_000_000_000));
        let a = n.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 1_000_000);
        n.advance(SimTime::ZERO);
        assert_eq!(n.flow_rate(a), Some(0.25e6));
        // Untouched nodes keep exactly the default capacity.
        assert_eq!(n.node_capacity(NodeId(1)), (1e6, 1e6));
    }

    #[test]
    fn windows_do_not_disturb_other_nodes_or_past_flows() {
        let mut n = net(0, 1e6);
        n.schedule_capacity_window(
            NodeId(5),
            0.1,
            0.1,
            SimTime(100_000_000),
            SimTime(200_000_000),
        );
        let a = n.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 1_000_000);
        let done = drain(&mut n);
        assert_eq!(
            done.iter().find(|(_, id)| *id == a).unwrap().0,
            SimTime(1_000_000_000)
        );
    }

    #[test]
    fn capacity_change_reaches_running_flows_at_next_advance() {
        let mut n = net(0, 1e6);
        let a = n.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 1_000_000);
        n.advance(SimTime::ZERO);
        assert_eq!(n.flow_rate(a), Some(1e6));
        n.set_node_capacity(NodeId(0), 0.5e6, 1e6); // uplink halved
        n.advance(SimTime(500_000_000)); // 0.5 MB already delivered
        assert_eq!(n.flow_rate(a), Some(0.5e6));
        let done = drain(&mut n);
        // Remaining 0.5 MB at 0.5 MB/s: one more second.
        assert_eq!(done[0].0, SimTime(1_500_000_000));
    }
}

#[cfg(test)]
mod props {
    //! Incremental equal-split assignments must match the from-scratch
    //! computation exactly (not approximately: they evaluate the same
    //! expression from the same counts).

    use super::*;
    use desim::SimDuration;
    use simrng::{Rng, Xoshiro256};

    #[test]
    fn incremental_rates_match_from_scratch_on_random_sequences() {
        let mut rng = Xoshiro256::seed_from_u64(0x1ACE);
        for case in 0..64 {
            let mut n = Network::new(
                NetParams {
                    latency: SimDuration::from_micros(50),
                    ..NetParams::fast_ethernet()
                },
                Sharing::EqualSplit,
            );
            let nodes = 2 + rng.gen_index(7) as u32;
            let mut now = SimTime::ZERO;
            for _ in 0..200 {
                // Random arrivals, random time steps; departures happen
                // naturally as transfers drain.
                if rng.gen_bool() {
                    let src = NodeId(rng.gen_below(nodes as u64) as u32);
                    let mut dst = NodeId(rng.gen_below(nodes as u64) as u32);
                    if dst == src {
                        dst = NodeId((dst.0 + 1) % nodes);
                    }
                    n.start_flow(now, src, dst, rng.gen_range_u64(0, 200_000));
                }
                now += SimDuration::from_nanos(rng.gen_range_u64(1, 2_000_000));
                n.advance(now);

                // Oracle: full equal_split over the current active set.
                let flows: Vec<(u64, FlowSpec)> = {
                    let mut v: Vec<FlowId> = n.active.keys().collect();
                    v.sort_unstable();
                    v.into_iter().map(|id| (id.0, n.specs[&id])).collect()
                };
                let want = compute_rates(
                    &flows,
                    |x| n.node_capacity(x).0,
                    |x| n.node_capacity(x).1,
                    Sharing::EqualSplit,
                );
                for (raw, _) in &flows {
                    let got = n.flow_rate(FlowId(*raw)).unwrap();
                    assert!(
                        got == want[raw],
                        "case {case}: flow {raw}: incremental {got} != full {}",
                        want[raw]
                    );
                }
            }
        }
    }

    /// The explicit boundary states of the pure rate read: an empty
    /// network prices nothing, flows still in their latency phase carry no
    /// rate at all, and a lone bandwidth-phase flow gets the full
    /// port-limited rate.
    #[test]
    fn pure_rates_edge_cases() {
        // Empty network: nothing to price.
        let mut n = Network::new(
            NetParams {
                latency: SimDuration::from_micros(100),
                up_bytes_per_sec: 1e6,
                down_bytes_per_sec: 1e6,
                cpu_in_cost: 0.0,
                cpu_out_cost: 0.0,
                per_message_overhead_bytes: 0,
            },
            Sharing::EqualSplit,
        );
        assert!(n.rates_from_scratch().is_empty());

        // All-latent queues: flows started but inside their 100 µs latency
        // phase occupy no port and must not appear in the assignment.
        let a = n.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 50_000);
        let b = n.start_flow(SimTime(1_000), NodeId(2), NodeId(1), 50_000);
        n.advance(SimTime(50_000)); // before either 100 µs latency expires
        assert_eq!(n.in_flight(), 2);
        assert!(n.rates_from_scratch().is_empty());
        assert_eq!(n.flow_rate(a), None);
        assert_eq!(n.flow_rate(b), None);

        // Single active flow: promoted alone, it gets the whole
        // min(up, down) capacity, bit-equal to the installed rate.
        n.advance(SimTime(100_000)); // a promoted; b latent for 1 µs more
        let pure = n.rates_from_scratch();
        assert_eq!(pure, vec![(a, 1e6)]);
        assert_eq!(n.flow_rate(a), Some(1e6));
        assert_eq!(n.flow_rate(b), None, "b is still latent");
    }

    /// The pure `rates_from_scratch` read agrees bit-for-bit with the rates
    /// `advance` actually installed, under both sharing disciplines.
    #[test]
    fn pure_rates_match_installed_rates() {
        for sharing in [Sharing::EqualSplit, Sharing::MaxMin] {
            let mut rng = Xoshiro256::seed_from_u64(0xF10);
            let mut n = Network::new(
                NetParams {
                    latency: SimDuration::from_micros(50),
                    ..NetParams::fast_ethernet()
                },
                sharing,
            );
            let mut now = SimTime::ZERO;
            for _ in 0..200 {
                if rng.gen_bool() {
                    let src = NodeId(rng.gen_below(6) as u32);
                    let mut dst = NodeId(rng.gen_below(6) as u32);
                    if dst == src {
                        dst = NodeId((dst.0 + 1) % 6);
                    }
                    n.start_flow(now, src, dst, rng.gen_range_u64(0, 200_000));
                }
                now += SimDuration::from_nanos(rng.gen_range_u64(1, 2_000_000));
                n.advance(now);

                let pure = n.rates_from_scratch();
                assert_eq!(pure.len(), n.active.len());
                for (id, rate) in pure {
                    let got = n.flow_rate(id).unwrap();
                    assert!(
                        got == rate,
                        "{sharing:?}: flow {}: installed {got} != pure {rate}",
                        id.0
                    );
                }
            }
        }
    }
}
