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
//! downlink. Every flow between one (source, destination) pair crosses the
//! same two links, so a rate belongs to the pair: the pair is the flows'
//! [`ProgressSet`] group. `advance` therefore re-rates only the pairs with
//! flows on those *dirty* links — one group re-rate per pair, from a
//! per-link share `capacity / n` that is refreshed once per dirty link —
//! instead of recomputing the whole flow set. Max-min sharing has no such
//! locality (slack propagates transitively through ports) and falls back
//! to the full iterative computation, which still freezes every flow of a
//! pair at one share.

use std::collections::VecDeque;

use desim::{ProgressSet, RateTimeline, RateWindow, SimTime};

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

/// A bandwidth-phase flow as the progress set keys it: its id, then its
/// endpoints, so keys order by id.
type ActiveFlow = (FlowId, NodeId, NodeId);

/// The two sides of a node's star port, as indices.
const UP: usize = 0;
const DOWN: usize = 1;

/// Everything the model keeps about one node, `[UP, DOWN]` where its two
/// links differ. The two flow counts are the only inputs to equal-split
/// rates.
#[derive(Clone, Debug, Default)]
struct Port {
    /// Bandwidth-phase flows leaving through the uplink / arriving through
    /// the downlink.
    flows: [usize; 2],
    /// The node at the other end of every pair with bandwidth-phase flows
    /// on the link, with the pair's flow count.
    pairs: [Vec<(NodeId, usize)>; 2],
    /// Equal share of each link, `link_capacity / flows`, as of the
    /// last rate assignment that found the link dirty. Whatever moves
    /// either input marks the link, so a clean link's share is current.
    share: [f64; 2],
    /// The link's population or capacity changed since the last rate
    /// assignment. One mark per link: re-rating a flow settles it even when
    /// its rate comes out the same, and a moved settlement point moves
    /// float rounding, so only the side that changed may be re-split.
    dirty: [bool; 2],
    /// The flow counts changed since the last [`Network::drain_comm_dirty`].
    load_dirty: bool,
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
    /// Flows draining bytes under the sharing discipline, grouped by
    /// (source, destination) pair.
    active: ProgressSet<ActiveFlow, (NodeId, NodeId)>,
    /// One record per node, indexed by `NodeId`; grown on first use.
    ports: Vec<Port>,
    /// Nodes with a `dirty` mark; drained by `advance`.
    rate_dirty: Vec<NodeId>,
    /// Nodes with `load_dirty` set — lets a CPU model recompute only the
    /// nodes whose communication load actually moved. One entry per node
    /// at most, however long nobody drains it.
    load_dirty: Vec<NodeId>,
    /// Buffer for the flows one [`Network::advance_into`] finds finished;
    /// empty between calls.
    finished: Vec<ActiveFlow>,
    stats: NetStats,
    /// Scheduled capacity multipliers (fault injection) of every node's
    /// uplink and downlink. Each [`Network::schedule_capacity_window`] call
    /// adds one window to both, so their spans always coincide.
    windows: [RateTimeline; 2],
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
            ports: Vec::new(),
            rate_dirty: Vec::new(),
            load_dirty: Vec::new(),
            finished: Vec::new(),
            stats: NetStats::default(),
            windows: Default::default(),
        }
    }

    fn port_mut(&mut self, node: NodeId) -> &mut Port {
        let i = node.0 as usize;
        if i >= self.ports.len() {
            self.ports.resize_with(i + 1, Port::default);
        }
        &mut self.ports[i]
    }

    /// Flags one link of `node` for re-splitting at the next rate
    /// assignment. A node without a port record never carried a flow, so
    /// there is nothing to re-split; and since a fault plan may name any
    /// node, a record must not be allocated just to flag it.
    fn mark_link(&mut self, node: NodeId, side: usize) {
        let Some(port) = self.ports.get_mut(node.0 as usize) else {
            return;
        };
        let listed = port.dirty[UP] || port.dirty[DOWN];
        port.dirty[side] = true;
        if !listed {
            self.rate_dirty.push(node);
        }
    }

    /// Counts a flow into (`joined`) or out of the bandwidth phase on both
    /// its links, listing its pair there while the pair has flows. Its
    /// source's uplink and its destination's downlink need re-splitting,
    /// and both nodes' communication load moved.
    fn population_changed(&mut self, spec: FlowSpec, joined: bool) {
        for (node, peer, side) in [(spec.src, spec.dst, UP), (spec.dst, spec.src, DOWN)] {
            let Port { flows, pairs, .. } = self.port_mut(node);
            let pairs = &mut pairs[side];
            let at = pairs.iter().position(|p| p.0 == peer);
            if joined {
                flows[side] += 1;
                match at {
                    Some(i) => pairs[i].1 += 1,
                    None => pairs.push((peer, 1)),
                }
            } else {
                flows[side] -= 1;
                let i = at.expect("a departing flow's pair is listed");
                pairs[i].1 -= 1;
                if pairs[i].1 == 0 {
                    pairs.swap_remove(i);
                }
            }
            self.mark_link(node, side);
            if !std::mem::replace(&mut self.port_mut(node).load_dirty, true) {
                self.load_dirty.push(node);
            }
        }
    }

    /// Schedules a time-windowed capacity multiplier on one node's links:
    /// on `[from, to)` the node's up/down capacities are scaled by the
    /// given factors (in `(0, 1]`). Windows on the same node compose by
    /// multiplication. This is the link-level fault-injection hook — the
    /// equal-share fairness solver sees the degraded capacity and re-splits
    /// rates at the window boundaries. Panics on a factor out of range or
    /// an empty window.
    pub fn schedule_capacity_window(
        &mut self,
        node: NodeId,
        up_factor: f64,
        down_factor: f64,
        from: SimTime,
        to: SimTime,
    ) {
        let node = node.0;
        let window = |factor| RateWindow {
            node,
            factor,
            from,
            to,
        };
        self.windows[UP].push(window(up_factor));
        self.windows[DOWN].push(window(down_factor));
        // A window that has already begun moves the capacities now.
        self.mark_link(NodeId(node), UP);
        self.mark_link(NodeId(node), DOWN);
    }

    /// Every capacity window scheduled so far, as
    /// `(node, up_factor, down_factor, from, to)` in scheduling order —
    /// lets an observer (the engine's event journal) record the rate edits
    /// this network will undergo.
    pub fn scheduled_windows(&self) -> Vec<(NodeId, f64, f64, SimTime, SimTime)> {
        let (up, down) = (self.windows[UP].windows(), self.windows[DOWN].windows());
        up.iter()
            .zip(down)
            .map(|(u, d)| (NodeId(u.node), u.factor, d.factor, u.from, u.to))
            .collect()
    }

    /// Effective (up, down) capacity of a node as of the last
    /// [`advance`](Network::advance), including the multipliers of every
    /// fault window active then. A node no window touches multiplies by
    /// exactly `1.0`, so fault-free capacities stay bit-identical.
    pub fn node_capacity(&self, node: NodeId) -> (f64, f64) {
        (self.link_capacity(node, UP), self.link_capacity(node, DOWN))
    }

    fn link_capacity(&self, node: NodeId, side: usize) -> f64 {
        let nominal = [self.params.up_bytes_per_sec, self.params.down_bytes_per_sec];
        nominal[side] * self.windows[side].factor_at(node.0, self.active.now())
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
        let key = self.active.keys().find(|key| key.0 == id)?;
        self.active.rate((key.1, key.2), key)
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
    /// ends, a transfer completes, or a capacity window starts or ends. The
    /// engine must call [`advance`] at (or before) this time.
    ///
    /// [`advance`]: Network::advance
    pub fn next_event_time(&mut self) -> Option<SimTime> {
        let lat = self.latent.front().map(|&(ready, ..)| ready);
        let fin = self.active.earliest_completion().map(|(_, t)| t);
        let next = SimTime::earlier(lat, fin);
        if self.windows[UP].is_empty() {
            return next;
        }
        SimTime::earlier(
            next,
            self.windows[UP].next_boundary_after(self.active.now()),
        )
    }

    /// Advances the model to `now`, promoting flows out of their latency
    /// phase and collecting completed transfers (in deterministic order).
    pub fn advance(&mut self, now: SimTime) -> Vec<NetEvent> {
        let mut events = Vec::new();
        self.advance_into(now, &mut events);
        events
    }

    /// [`advance`](Network::advance) into a caller-owned buffer: the
    /// completed transfers are appended to `events`.
    pub fn advance_into(&mut self, now: SimTime, events: &mut Vec<NetEvent>) {
        // Drain bytes at the rates valid up to `now` first.
        let prev = self.active.now();
        self.active.advance_to(now);

        // Capacity-window boundaries crossed by this advance take effect
        // now: both links of the affected nodes get re-split below.
        let mut crossed = Vec::new();
        self.windows[UP].changed_nodes(prev, now, &mut crossed);
        for node in crossed {
            self.mark_link(NodeId(node), UP);
            self.mark_link(NodeId(node), DOWN);
        }

        // Promote latency-expired flows into the bandwidth phase.
        while let Some(&(ready, ..)) = self.latent.front() {
            if ready > now {
                break;
            }
            let (_, id, spec, bytes) = self.latent.pop_front().expect("just seen");
            let pair = (spec.src, spec.dst);
            self.active
                .insert_in(now, pair, (id, spec.src, spec.dst), bytes);
            self.population_changed(spec, true);
        }

        // Collect completions (at the rates assigned before this advance).
        let mut done = std::mem::take(&mut self.finished);
        self.active.take_finished_into(now, &mut done);
        for (id, src, dst) in done.drain(..) {
            self.population_changed(FlowSpec { src, dst }, false);
            self.stats.flows_completed += 1;
            events.push(NetEvent::Completed(id));
        }
        self.finished = done;

        if !self.rate_dirty.is_empty() {
            self.reassign_rates(now);
        }
    }

    /// Concurrent transfer counts `(incoming, outgoing)` for `node`, used by
    /// the CPU model to charge communication handling cost. Only flows in
    /// their bandwidth phase count — during the latency phase no data is
    /// being copied on either host.
    pub fn comm_counts(&self, node: NodeId) -> (usize, usize) {
        self.ports
            .get(node.0 as usize)
            .map_or((0, 0), |p| (p.flows[DOWN], p.flows[UP]))
    }

    /// Fraction of `node`'s processor left for computation while it handles
    /// its current transfers — the paper's linear model: every concurrent
    /// incoming (outgoing) transfer costs `cpu_in_cost` (`cpu_out_cost`) of
    /// the processor. Communications are kernel work; they can consume most
    /// but never quite all of it, so running operations always make some
    /// progress.
    pub fn cpu_available(&self, node: NodeId) -> f64 {
        let (n_in, n_out) = self.comm_counts(node);
        let used = n_in as f64 * self.params.cpu_in_cost + n_out as f64 * self.params.cpu_out_cost;
        (1.0 - used).max(0.05)
    }

    /// Appends to `out` every node whose active-flow counts changed since
    /// the previous drain, then forgets them. A CPU model whose per-node
    /// availability depends only on [`Network::comm_counts`] need only
    /// recompute these nodes.
    pub fn drain_comm_dirty(&mut self, out: &mut Vec<NodeId>) {
        for &node in &self.load_dirty {
            self.ports[node.0 as usize].load_dirty = false;
        }
        out.append(&mut self.load_dirty);
    }

    /// Equal-split rate of one flow from the current port counts — the same
    /// expression `fairness::equal_split` evaluates, so incremental and
    /// from-scratch assignments agree bit-for-bit. The incremental path
    /// reads the two quotients from [`Port::share`]; debug builds check every
    /// rate it installs against this.
    fn equal_split_rate(&self, spec: FlowSpec) -> f64 {
        let n_out = self.ports[spec.src.0 as usize].flows[UP];
        let n_in = self.ports[spec.dst.0 as usize].flows[DOWN];
        let up_share = self.link_capacity(spec.src, UP) / n_out as f64;
        let down_share = self.link_capacity(spec.dst, DOWN) / n_in as f64;
        up_share.min(down_share)
    }

    /// Fair rates of every active flow, computed from scratch — a pure
    /// read of the current active set, specs and capacities, returned in
    /// ascending [`FlowId`] order. This is the rate assignment
    /// [`Network::advance`] installs (bit-for-bit: the incremental
    /// equal-split path evaluates the same expressions), which makes it the
    /// oracle the incremental path is tested against.
    pub fn rates_from_scratch(&self) -> Vec<(FlowId, f64)> {
        let rates = self.fair_rates().into_iter();
        rates.map(|((id, ..), rate)| (id, rate)).collect()
    }

    /// [`rates_from_scratch`](Network::rates_from_scratch), keyed by the
    /// whole active flow.
    fn fair_rates(&self) -> Vec<(ActiveFlow, f64)> {
        let mut keys: Vec<ActiveFlow> = self.active.keys().collect();
        if keys.is_empty() {
            return Vec::new();
        }
        keys.sort_unstable();
        let flow = |&(id, src, dst): &ActiveFlow| (id.0, FlowSpec { src, dst });
        let flows: Vec<(u64, FlowSpec)> = keys.iter().map(flow).collect();
        let rates = compute_rates(
            &flows,
            |n| self.link_capacity(n, UP),
            |n| self.link_capacity(n, DOWN),
            self.sharing,
        );
        keys.into_iter()
            .map(|key| (key, rates[&key.0 .0]))
            .collect()
    }

    /// Reassigns rates after the active set (or a capacity) changed,
    /// clearing the links' dirty marks.
    ///
    /// Under equal split only pairs crossing a dirty link can have changed
    /// rates, and every one of them is re-rated exactly once — also when its
    /// rate comes out bit-equal, because the re-rate settles its flows and
    /// the settlement point is where their remaining bytes are rounded.
    /// Pairs that merely share a *node* with a dirty link (its other side)
    /// are left alone for the same reason.
    fn reassign_rates(&mut self, now: SimTime) {
        if self.sharing == Sharing::MaxMin {
            // No locality: a departure's slack can cascade anywhere. The
            // flows of a pair are frozen in one round at one share.
            let rates = self.fair_rates().into_iter();
            let mut pairs: Vec<_> = rates
                .map(|((_, src, dst), rate)| ((src, dst), rate))
                .collect();
            pairs.sort_unstable_by_key(|&(pair, _)| pair);
            pairs.dedup_by(|a, b| {
                debug_assert!(a.0 != b.0 || a.1 == b.1, "pair {:?} split", a.0);
                a.0 == b.0
            });
            for (pair, rate) in pairs {
                self.active.set_group_rate(now, pair, rate);
            }
        } else {
            for i in 0..self.rate_dirty.len() {
                let node = self.rate_dirty[i];
                for side in [UP, DOWN] {
                    let port = &self.ports[node.0 as usize];
                    if port.dirty[side] {
                        let n = port.flows[side] as f64;
                        self.ports[node.0 as usize].share[side] =
                            self.link_capacity(node, side) / n;
                    }
                }
            }
            for &node in &self.rate_dirty {
                let port = &self.ports[node.0 as usize];
                for side in [UP, DOWN].into_iter().filter(|&side| port.dirty[side]) {
                    for &(peer, _) in &port.pairs[side] {
                        let (src, dst) = [(node, peer), (peer, node)][side];
                        let (up, down) = (&self.ports[src.0 as usize], &self.ports[dst.0 as usize]);
                        if side == DOWN && up.dirty[UP] {
                            continue; // re-rated from its source's dirty uplink
                        }
                        let rate = up.share[UP].min(down.share[DOWN]);
                        debug_assert_eq!(
                            rate.to_bits(),
                            self.equal_split_rate(FlowSpec { src, dst }).to_bits(),
                            "stale link share"
                        );
                        self.active.set_group_rate(now, (src, dst), rate);
                    }
                }
            }
        }
        for node in self.rate_dirty.drain(..) {
            self.ports[node.0 as usize].dirty = [false; 2];
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
    fn clone_mid_flight_drains_identically() {
        let mut n = net(50, 1e6);
        n.schedule_capacity_window(NodeId(2), 0.5, 0.5, SimTime(0), SimTime::MAX);
        n.schedule_capacity_window(NodeId(1), 0.5, 0.5, SimTime(0), SimTime(40_000_000));
        for i in 0..6u32 {
            n.start_flow(
                SimTime(i as u64 * 1_000),
                NodeId(i % 3),
                NodeId((i + 1) % 3),
                100_000 + i as u64 * 10_000,
            );
        }
        // Advance partway: some flows promoted, some still latent, both
        // capacity windows active.
        let mid = SimTime(10_000_000);
        n.advance(mid);
        let mut copy = n.clone();
        assert_eq!(copy.in_flight(), n.in_flight());
        let a = drain(&mut n);
        let b = drain(&mut copy);
        assert_eq!(a, b, "the copy must drain bit-identically");
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

    /// The (source, destination) of the `i`-th of several flows.
    type Ends = fn(u32) -> (u32, u32);

    /// Where the `i`-th of `k` flows runs: all between one pair (one group
    /// of `k`), fanning out from node 0, or fanning in to node 0.
    const SHAPES: [(&str, Ends); 3] = [
        ("one pair", |_| (0, 1)),
        ("fan-out", |i| (0, i + 1)),
        ("fan-in", |i| (i + 1, 0)),
    ];

    /// Starts flows of the given sizes together, the `i`-th between the
    /// nodes `ends(i)` names, and returns each one's completion instant.
    fn run_flows(sizes: &[u64], ends: Ends) -> Vec<SimTime> {
        let mut n = net(70, 12.5e6);
        let ids: Vec<FlowId> = (0..sizes.len() as u32)
            .map(|i| {
                let (src, dst) = ends(i);
                n.start_flow(SimTime::ZERO, NodeId(src), NodeId(dst), sizes[i as usize])
            })
            .collect();
        let done = drain(&mut n);
        let at = |id| done.iter().find(|&&(_, f)| f == id).expect("delivered").0;
        ids.into_iter().map(at).collect()
    }

    fn assert_within_a_nanosecond(got: SimTime, want_ns: f64, what: &str) {
        let err = (got.as_nanos() as f64 - want_ns).abs();
        assert!(err <= 1.0, "{what}: {got} vs {want_ns} ns");
    }

    #[test]
    fn k_equal_flows_complete_together_at_latency_plus_k_shares() {
        // t = l + k·s/b under exact k-way contention, on one link.
        let (l, s, b) = (70_000.0, 123_457, 12.5e6);
        for (shape, ends) in SHAPES {
            for k in 1..=6 {
                for (i, got) in run_flows(&vec![s; k], ends).into_iter().enumerate() {
                    let want = l + k as f64 * s as f64 / b * 1e9;
                    assert_within_a_nanosecond(got, want, &format!("{shape}, k={k}, flow {i}"));
                }
            }
        }
    }

    #[test]
    fn staggered_flows_on_one_uplink_complete_at_processor_sharing_times() {
        // Sizes s, 2s, …, ks: the j-th completes at l + Σ_{m≤j} (k−m+1)·s/b.
        let (l, s, b) = (70_000.0, 123_457, 12.5e6);
        for (shape, ends) in &SHAPES[..2] {
            for k in 1..=6u64 {
                let sizes: Vec<u64> = (1..=k).map(|j| j * s).collect();
                for (got, j) in run_flows(&sizes, *ends).into_iter().zip(1..) {
                    let bytes: u64 = (1..=j).map(|m| (k - m + 1) * s).sum();
                    let want = l + bytes as f64 / b * 1e9;
                    assert_within_a_nanosecond(got, want, &format!("{shape}, k={k}, flow {j}"));
                }
            }
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
    fn undrained_load_marks_are_bounded_by_the_node_count() {
        // A caller that drives the model with `next_event_time` / `advance`
        // alone never drains the load marks; they must not grow with the
        // number of flows carried.
        let mut n = net(10, 1e8);
        let mut now = SimTime::ZERO;
        for i in 0..10_000u32 {
            n.start_flow(now, NodeId(i % 8), NodeId((3 * i + 1) % 8), 1_000);
            now = n.next_event_time().expect("a flow is in flight");
            n.advance(now);
        }
        drain(&mut n);
        assert_eq!(n.stats().flows_completed, 10_000);
        let mut dirty = Vec::new();
        n.drain_comm_dirty(&mut dirty);
        dirty.sort_unstable();
        assert_eq!(dirty, (0..8).map(NodeId).collect::<Vec<_>>());
        // Draining re-arms the marks.
        n.start_flow(now, NodeId(0), NodeId(1), 1_000);
        drain(&mut n);
        dirty.clear();
        n.drain_comm_dirty(&mut dirty);
        assert_eq!(dirty, vec![NodeId(0), NodeId(1)]);
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
        // A slow downlink for the whole run.
        n.schedule_capacity_window(NodeId(1), 1.0, 0.25, SimTime::ZERO, SimTime::MAX);
        let slow = n.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 250_000);
        let fast = n.start_flow(SimTime::ZERO, NodeId(2), NodeId(3), 250_000);
        assert_eq!(n.node_capacity(NodeId(1)), (1e6, 0.25e6));
        assert_eq!(n.node_capacity(NodeId(0)), (1e6, 1e6));
        let done = drain(&mut n);
        let t_slow = done.iter().find(|(_, id)| *id == slow).unwrap().0;
        let t_fast = done.iter().find(|(_, id)| *id == fast).unwrap().0;
        assert_eq!(t_fast, SimTime(250_000_000)); // 0.25 MB at 1 MB/s
        assert_eq!(t_slow, SimTime(1_000_000_000)); // at 0.25 MB/s
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
        // The uplink halved by a window that has already begun.
        n.schedule_capacity_window(NodeId(0), 0.5, 1.0, SimTime::ZERO, SimTime::MAX);
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

    /// After every advance the installed rates are exactly what a
    /// from-scratch computation gives, while capacity windows open and
    /// close inside the run (some scheduled after they began) — so a link
    /// share cached across any of those would show as a stale rate.
    #[test]
    fn incremental_rates_match_from_scratch_on_random_sequences() {
        let mut rng = Xoshiro256::seed_from_u64(0x1ACE);
        let params = NetParams {
            latency: SimDuration::from_micros(50),
            ..NetParams::fast_ethernet()
        };
        for case in 0..64 {
            let sharing = [Sharing::EqualSplit, Sharing::MaxMin][case % 2];
            let mut n = Network::new(params, sharing);
            let nodes = 2 + rng.gen_below(7) as u32;
            let mut now = SimTime::ZERO;
            // The run lasts about 0.2 s of virtual time.
            let window = |n: &mut Network, rng: &mut Xoshiro256| {
                let from = rng.gen_range_u64(0, 200_000_000);
                let to = from + rng.gen_range_u64(1, 100_000_000);
                let node = NodeId(rng.gen_below(nodes as u64) as u32);
                let factor = [0.25, 0.5, 1.0][rng.gen_index(3)];
                n.schedule_capacity_window(node, factor, 0.5, SimTime(from), SimTime(to));
            };
            for _ in 0..rng.gen_index(4) {
                window(&mut n, &mut rng);
            }
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
                if rng.gen_index(32) < 3 {
                    window(&mut n, &mut rng);
                }
                now += SimDuration::from_nanos(rng.gen_range_u64(1, 2_000_000));
                n.advance(now);

                let want = n.rates_from_scratch();
                assert_eq!(want.len(), n.active.len());
                for (id, want) in want {
                    let got = n.flow_rate(id).unwrap();
                    assert!(
                        got == want,
                        "case {case} ({sharing:?}): flow {}: installed {got} != full {want}",
                        id.0
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
