//! The fabric abstraction: what the engine believes about the machine.
//!
//! The virtual-time engine in [`crate::engine`] is generic over a [`Fabric`]
//! that answers two questions: *how long do transfers take* and *how much
//! CPU is left for computation*. The simulator's fabric ([`SimFabric`])
//! implements the paper's models — flow-level `t = l + s/b` network with
//! equal bandwidth shares and a linear CPU cost per concurrent transfer. The
//! `testbed` crate implements a much more detailed, stochastic fabric; the
//! *difference* between the two is exactly what the paper's validation
//! measures.
//!
//! [`SimFabric::with_plan`] plays a [`FaultPlan`]'s *rate* perturbations
//! against the same models:
//!
//! * `LinkDegrade` windows become [`netmodel`] capacity windows — the
//!   equal-share fairness solver re-splits bandwidth at the window
//!   boundaries, so concurrent transfers through a degraded node slow down
//!   and everything sharing its ports feels it;
//! * `NodeSlowdown` windows scale [`Fabric::cpu_available`] — the engine's
//!   processor-sharing rates drop for the window's duration and recover
//!   afterwards. Window boundaries are reported through
//!   [`Fabric::next_event_time`] and [`Fabric::comm_dirty_nodes`], so the
//!   engine re-prices running steps exactly at the boundary.
//!
//! Crashes and preemptions are **not** fabric-level events: removing a node
//! under running atomic steps would deadlock the DPS graph (posts to dead
//! servers). They are realized at the application layer through the DPS
//! thread-removal machinery at the next iteration boundary (see the
//! `workload` crate) and at the cluster-server layer through job
//! interruption — the fabric only carries the continuous perturbations.
//!
//! Without a plan the CPU timeline is empty: every multiplier is exactly
//! `1.0` and no extra event time is reported.

use desim::{SimDuration, SimTime};
use faults::{FaultPlan, RateTimeline};
use netmodel::network::NetStats;
use netmodel::{NetEvent, NetParams, Network, NodeId, Sharing};

use crate::error::{SimError, SimResult};

/// Machine model behind the engine (see module docs).
pub trait Fabric {
    /// Begins a transfer of `bytes` payload bytes; returns a handle reported
    /// back by [`advance_into`](Fabric::advance_into) on completion.
    ///
    /// Handles increase: each is greater than every handle this fabric
    /// returned before (a [`netmodel::FlowId`] does). The engine files its
    /// in-flight deliveries by handle in that order, and a run over a fabric
    /// that breaks it fails with a protocol error.
    fn start_transfer(&mut self, now: SimTime, src: NodeId, dst: NodeId, bytes: u64) -> u64;

    /// Next instant at which the fabric's state changes on its own.
    fn next_event_time(&mut self) -> Option<SimTime>;

    /// Advances to `now`, appending the handles of completed transfers to
    /// `out` in deterministic order. The buffer is the caller's, so the
    /// engine's loop allocates nothing per event.
    fn advance_into(&mut self, now: SimTime, out: &mut Vec<u64>);

    /// Fraction of `node`'s processing power currently available to
    /// computation, after communication handling costs.
    fn cpu_available(&self, node: NodeId) -> f64;

    /// Appends to `out` every node whose [`cpu_available`] may have changed
    /// since the previous call (nodes may repeat), so the engine's per-event
    /// CPU recomputation is O(changed nodes), not O(all nodes).
    ///
    /// [`cpu_available`]: Fabric::cpu_available
    fn comm_dirty_nodes(&mut self, out: &mut Vec<NodeId>);

    /// Transforms a nominal computation duration into the duration this
    /// machine actually takes (noise/perturbation hook; identity for the
    /// simulator's idealized model).
    fn compute_time(&mut self, node: NodeId, nominal: SimDuration) -> SimDuration;

    /// Efficiency penalty when `k` atomic steps share one processor
    /// (context-switch overhead hook). The effective per-step rate is
    /// `available / (k * sharing_penalty(k))`; 1.0 means ideal processor
    /// sharing, the simulator's assumption.
    fn sharing_penalty(&self, k: usize) -> f64 {
        let _ = k;
        1.0
    }

    /// Cumulative transfer statistics.
    fn net_stats(&self) -> NetStats;

    /// Capacity windows scheduled on this fabric (fault plans, straggler
    /// studies), as `(node, up_factor, down_factor, from, to)` tuples in a
    /// deterministic order. The engine copies these into the event journal
    /// at start-up so a journal is self-describing about the rate edits the
    /// run was subjected to. Default: none.
    fn scheduled_windows(&self) -> Vec<(NodeId, f64, f64, SimTime, SimTime)> {
        Vec::new()
    }
}

/// The paper's machine model: [`netmodel`] flow network + linear CPU cost of
/// communications, with an optional fault plan's rate windows. Cloning it
/// gives a checkpoint's fork its own independent copy.
#[derive(Clone)]
pub struct SimFabric {
    net: Network,
    /// The plan's CPU-slowdown windows; empty without a plan.
    cpu: RateTimeline,
    /// Instant of the last advance: CPU multipliers are read there.
    now: SimTime,
    /// Nodes whose CPU multiplier changed since the last
    /// [`Fabric::comm_dirty_nodes`] drain.
    changed: Vec<u32>,
    /// Buffer for one [`Fabric::advance_into`]'s events; empty between calls.
    events: Vec<NetEvent>,
}

impl SimFabric {
    /// Creates an empty instance. Panics on parameters that fail
    /// [`NetParams::validate`]; [`SimFabric::with_plan`] returns them as a
    /// typed error instead.
    pub fn new(params: NetParams) -> SimFabric {
        SimFabric::with_sharing(params, Sharing::EqualSplit)
    }

    /// Variant with max-min fair bandwidth sharing (model ablation).
    pub fn with_sharing(params: NetParams, sharing: Sharing) -> SimFabric {
        SimFabric {
            net: Network::new(params, sharing),
            cpu: RateTimeline::default(),
            now: SimTime::ZERO,
            changed: Vec::new(),
            events: Vec::new(),
        }
    }

    /// A fabric with `plan`'s slowdown and degrade windows injected (see
    /// module docs). Parameters that fail [`NetParams::validate`] and a plan
    /// that fails [`FaultPlan::validate`] (its fields are public, so a
    /// literal can hold an empty or overflowing window) are protocol errors.
    pub fn with_plan(params: NetParams, plan: &FaultPlan) -> SimResult<SimFabric> {
        params
            .validate()
            .map_err(|e| SimError::protocol(format!("invalid network parameters: {e}")))?;
        plan.validate()
            .map_err(|e| SimError::protocol(format!("invalid fault plan: {e}")))?;
        let mut fabric = SimFabric::new(params);
        for w in plan.link_windows() {
            fabric
                .net
                .schedule_capacity_window(NodeId(w.node), w.factor, w.factor, w.from, w.to);
        }
        fabric.cpu = RateTimeline::new(plan.cpu_windows());
        Ok(fabric)
    }

    /// Overrides one node's link capacities (heterogeneous clusters,
    /// straggler studies).
    pub fn set_node_capacity(&mut self, node: NodeId, up: f64, down: f64) {
        self.net.set_node_capacity(node, up, down);
    }
}

impl Fabric for SimFabric {
    fn start_transfer(&mut self, now: SimTime, src: NodeId, dst: NodeId, bytes: u64) -> u64 {
        self.net.start_flow(now, src, dst, bytes).0
    }

    fn next_event_time(&mut self) -> Option<SimTime> {
        let net = self.net.next_event_time();
        if self.cpu.is_empty() {
            return net;
        }
        SimTime::earlier(net, self.cpu.next_boundary_after(self.now))
    }

    fn advance_into(&mut self, now: SimTime, out: &mut Vec<u64>) {
        // CPU windows crossed by this advance change those nodes' rates;
        // they are reported dirty so the engine re-prices their steps.
        self.cpu.changed_nodes(self.now, now, &mut self.changed);
        self.now = now;
        self.net.advance_into(now, &mut self.events);
        out.extend(self.events.drain(..).map(|NetEvent::Completed(id)| id.0));
    }

    fn cpu_available(&self, node: NodeId) -> f64 {
        let base = self.net.cpu_available(node);
        let f = self.cpu.factor_at(node.0, self.now);
        if f == 1.0 {
            base
        } else {
            base * f
        }
    }

    fn comm_dirty_nodes(&mut self, out: &mut Vec<NodeId>) {
        self.net.drain_comm_dirty(out);
        out.extend(self.changed.drain(..).map(NodeId));
    }

    fn compute_time(&mut self, _node: NodeId, nominal: SimDuration) -> SimDuration {
        // Slowdowns act through the processor-sharing *rate*
        // (cpu_available), which tracks window boundaries mid-step; the
        // nominal work itself is unchanged.
        nominal
    }

    fn net_stats(&self) -> NetStats {
        self.net.stats()
    }

    fn scheduled_windows(&self) -> Vec<(NodeId, f64, f64, SimTime, SimTime)> {
        // Link windows live in the network, CPU-slowdown windows in the
        // timeline. Both are journalled, slowdowns encoded as windows with
        // an unscaled up-link (`up_factor == 1.0` marks a CPU window; the
        // plan never schedules asymmetric link windows).
        let mut out = self.net.scheduled_windows();
        out.extend(
            self.cpu
                .windows()
                .iter()
                .map(|w| (NodeId(w.node), 1.0, w.factor, w.from, w.to)),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faults::{CheckpointSpec, FaultEvent, FaultKind};

    fn advance(f: &mut SimFabric, t: SimTime) -> Vec<u64> {
        let mut done = Vec::new();
        f.advance_into(t, &mut done);
        done
    }

    fn plan_with(events: Vec<FaultEvent>) -> FaultPlan {
        FaultPlan::new(events, CheckpointSpec::none())
    }

    #[test]
    fn cpu_available_decreases_with_comm_load() {
        let mut p = NetParams::fast_ethernet();
        p.latency = SimDuration::ZERO;
        let cin = p.cpu_in_cost;
        let mut f = SimFabric::new(p);
        assert_eq!(f.cpu_available(NodeId(1)), 1.0);
        f.start_transfer(SimTime::ZERO, NodeId(0), NodeId(1), 1_000_000);
        advance(&mut f, SimTime::ZERO); // promote into bandwidth phase
        let avail = f.cpu_available(NodeId(1));
        assert!((avail - (1.0 - cin)).abs() < 1e-12, "avail = {avail}");
        assert!(f.cpu_available(NodeId(0)) < 1.0);
        assert_eq!(f.cpu_available(NodeId(7)), 1.0);
    }

    #[test]
    fn cpu_available_floors_at_5_percent() {
        let mut p = NetParams::fast_ethernet();
        p.latency = SimDuration::ZERO;
        p.cpu_in_cost = 0.3;
        let mut f = SimFabric::new(p);
        for s in 1..6 {
            f.start_transfer(SimTime::ZERO, NodeId(s), NodeId(0), 1_000_000);
        }
        advance(&mut f, SimTime::ZERO);
        assert_eq!(f.cpu_available(NodeId(0)), 0.05);
    }

    #[test]
    fn transfers_complete_through_fabric_interface() {
        let mut f = SimFabric::new(NetParams::ideal());
        let h = f.start_transfer(SimTime::ZERO, NodeId(0), NodeId(1), 1234);
        let mut done = Vec::new();
        while let Some(t) = f.next_event_time() {
            f.advance_into(t, &mut done);
        }
        assert_eq!(done, vec![h]);
        assert_eq!(f.net_stats().flows_completed, 1);
    }

    #[test]
    fn identity_compute_time() {
        let mut f = SimFabric::new(NetParams::ideal());
        let d = SimDuration::from_millis(5);
        assert_eq!(f.compute_time(NodeId(0), d), d);
        assert_eq!(f.sharing_penalty(4), 1.0);
    }

    #[test]
    fn slowdown_window_scales_cpu_and_reports_boundaries() {
        let p = plan_with(vec![FaultEvent {
            at: SimTime(1_000),
            node: 2,
            kind: FaultKind::NodeSlowdown {
                factor: 0.5,
                window: SimDuration(500),
            },
        }]);
        let mut f = SimFabric::with_plan(NetParams::ideal(), &p).expect("valid plan");
        assert_eq!(f.cpu_available(NodeId(2)), 1.0);
        // The window start is the next fabric event.
        assert_eq!(f.next_event_time(), Some(SimTime(1_000)));
        advance(&mut f, SimTime(1_000));
        assert_eq!(f.cpu_available(NodeId(2)), 0.5);
        assert_eq!(f.cpu_available(NodeId(1)), 1.0);
        // The node is reported dirty so the engine re-prices its steps.
        let mut dirty = Vec::new();
        f.comm_dirty_nodes(&mut dirty);
        assert!(dirty.contains(&NodeId(2)));
        // Window end restores full speed.
        assert_eq!(f.next_event_time(), Some(SimTime(1_500)));
        advance(&mut f, SimTime(1_500));
        assert_eq!(f.cpu_available(NodeId(2)), 1.0);
        assert_eq!(f.next_event_time(), None);
        // Journalled as a window with an unscaled up-link.
        let w = (NodeId(2), 1.0, 0.5, SimTime(1_000), SimTime(1_500));
        assert_eq!(f.scheduled_windows(), vec![w]);
    }

    #[test]
    fn link_degrade_slows_transfers_through_netmodel() {
        let mut params = NetParams::ideal();
        params.up_bytes_per_sec = 1e6;
        params.down_bytes_per_sec = 1e6;
        let p = plan_with(vec![FaultEvent {
            at: SimTime(0),
            node: 0,
            kind: FaultKind::LinkDegrade {
                factor: 0.5,
                window: SimDuration::from_secs(100),
            },
        }]);
        let mut f = SimFabric::with_plan(params, &p).expect("valid plan");
        let h = f.start_transfer(SimTime::ZERO, NodeId(0), NodeId(1), 1_000_000);
        let mut done = Vec::new();
        let mut last = SimTime::ZERO;
        while let Some(t) = f.next_event_time() {
            last = t;
            f.advance_into(t, &mut done);
            if !done.is_empty() {
                break;
            }
        }
        assert_eq!(done, vec![h]);
        // 1 MB at 0.5 MB/s: 2 s instead of 1 s.
        assert_eq!(last, SimTime(2_000_000_000));
    }

    #[test]
    fn a_literal_plan_with_an_empty_window_is_a_typed_error() {
        let kind = FaultKind::NodeSlowdown {
            factor: 0.5,
            window: SimDuration::ZERO,
        };
        let plan = FaultPlan {
            events: vec![FaultEvent {
                at: SimTime(10),
                node: 0,
                kind,
            }],
            checkpoint: CheckpointSpec::none(),
        };
        let err = SimFabric::with_plan(NetParams::ideal(), &plan)
            .err()
            .expect("rejected");
        assert!(err.to_string().contains("empty fault window"), "{err}");
    }
}
