//! Fault injection at the machine-model layer: a fabric that plays a
//! [`FaultPlan`] against the paper's simulator.
//!
//! [`FaultFabric`] wraps [`SimFabric`] and injects the plan's *rate*
//! perturbations directly into the models the engine already consults:
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
//! servers). They are realized at the application layer through the
//! existing DPS thread-removal machinery at the next iteration boundary
//! (see the `workload` crate) and at the cluster-server layer through job
//! interruption — the fabric only carries the continuous perturbations.
//!
//! An empty plan degrades to the plain [`SimFabric`] bit-for-bit: every
//! multiplier is exactly `1.0` and no extra event times are reported.

use desim::{SimDuration, SimTime};
use faults::{FaultPlan, RateTimeline};
use netmodel::network::NetStats;
use netmodel::{NetParams, NodeId};

use crate::error::{SimError, SimResult};
use crate::fabric::{Fabric, SimFabric};

/// A [`SimFabric`] with a [`FaultPlan`]'s rate perturbations injected.
pub struct FaultFabric {
    inner: SimFabric,
    cpu: RateTimeline,
    now: SimTime,
    /// Nodes whose CPU multiplier changed since the last
    /// [`Fabric::comm_dirty_nodes`] drain.
    changed: Vec<NodeId>,
}

impl FaultFabric {
    /// A fabric over the paper's machine model with `plan` injected. A plan
    /// that fails [`FaultPlan::validate`] (its fields are public, so a
    /// literal can hold an empty or overflowing window) is a protocol error.
    pub fn new(params: NetParams, plan: &FaultPlan) -> SimResult<FaultFabric> {
        plan.validate()
            .map_err(|e| SimError::protocol(format!("invalid fault plan: {e}")))?;
        let mut inner = SimFabric::new(params);
        for w in plan.link_windows() {
            inner.schedule_capacity_window(NodeId(w.node), w.factor, w.factor, w.from, w.to);
        }
        Ok(FaultFabric {
            inner,
            cpu: RateTimeline::new(plan.cpu_windows()),
            now: SimTime::ZERO,
            changed: Vec::new(),
        })
    }
}

impl Fabric for FaultFabric {
    fn start_transfer(&mut self, now: SimTime, src: NodeId, dst: NodeId, bytes: u64) -> u64 {
        self.inner.start_transfer(now, src, dst, bytes)
    }

    fn next_event_time(&mut self) -> Option<SimTime> {
        let boundary = self.cpu.next_boundary_after(self.now);
        [self.inner.next_event_time(), boundary]
            .into_iter()
            .flatten()
            .min()
    }

    fn advance(&mut self, now: SimTime) -> Vec<u64> {
        let mut out = Vec::new();
        self.advance_into(now, &mut out);
        out
    }

    fn advance_into(&mut self, now: SimTime, out: &mut Vec<u64>) {
        // CPU windows crossed by this advance change those nodes' rates;
        // report them as dirty so the engine re-prices their steps.
        let mut crossed = Vec::new();
        self.cpu.changed_nodes(self.now, now, &mut crossed);
        self.changed.extend(crossed.into_iter().map(NodeId));
        self.now = now;
        self.inner.advance_into(now, out);
    }

    fn cpu_available(&self, node: NodeId) -> f64 {
        let base = self.inner.cpu_available(node);
        let f = self.cpu.factor_at(node.0, self.now);
        if f == 1.0 {
            base
        } else {
            base * f
        }
    }

    fn comm_dirty_nodes(&mut self, out: &mut Vec<NodeId>) -> bool {
        self.inner.comm_dirty_nodes(out);
        out.append(&mut self.changed);
        true
    }

    fn compute_time(&mut self, node: NodeId, nominal: SimDuration) -> SimDuration {
        // Slowdowns act through the processor-sharing *rate*
        // (cpu_available), which tracks window boundaries mid-step; the
        // nominal work itself is unchanged.
        self.inner.compute_time(node, nominal)
    }

    fn net_stats(&self) -> NetStats {
        self.inner.net_stats()
    }

    fn scheduled_windows(&self) -> Vec<(NodeId, f64, f64, SimTime, SimTime)> {
        // Link windows live in the wrapped network; CPU-slowdown windows
        // live in this wrapper's timeline. Journal both, slowdowns encoded
        // as windows with an unscaled up-link (`up_factor == 1.0` marks a
        // CPU window; the plan never schedules asymmetric link windows).
        let mut out = self.inner.scheduled_windows();
        out.extend(
            self.cpu
                .windows()
                .iter()
                .map(|w| (NodeId(w.node), 1.0, w.factor, w.from, w.to)),
        );
        out
    }

    fn fork_fabric(&mut self) -> Option<Box<dyn Fabric + Send>> {
        Some(Box::new(FaultFabric {
            inner: self.inner.fork_sim(),
            cpu: self.cpu.clone(),
            now: self.now,
            changed: self.changed.clone(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faults::{CheckpointSpec, FaultEvent, FaultKind};

    fn plan_with(events: Vec<FaultEvent>) -> FaultPlan {
        FaultPlan::new(events, CheckpointSpec::none())
    }

    #[test]
    fn empty_plan_matches_plain_fabric() {
        let params = NetParams::fast_ethernet();
        let mut plain = SimFabric::new(params);
        let mut faulty = FaultFabric::new(params, &FaultPlan::none()).expect("empty plan");
        for f in [&mut plain as &mut dyn Fabric, &mut faulty] {
            f.start_transfer(SimTime::ZERO, NodeId(0), NodeId(1), 100_000);
        }
        loop {
            let a = plain.next_event_time();
            let b = faulty.next_event_time();
            assert_eq!(a, b);
            let Some(t) = a else { break };
            assert_eq!(plain.advance(t), faulty.advance(t));
            for n in 0..4 {
                assert_eq!(
                    plain.cpu_available(NodeId(n)),
                    faulty.cpu_available(NodeId(n))
                );
            }
        }
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
        let mut f = FaultFabric::new(NetParams::ideal(), &p).expect("valid plan");
        assert_eq!(f.cpu_available(NodeId(2)), 1.0);
        // The window start is the next fabric event.
        assert_eq!(f.next_event_time(), Some(SimTime(1_000)));
        f.advance(SimTime(1_000));
        assert_eq!(f.cpu_available(NodeId(2)), 0.5);
        assert_eq!(f.cpu_available(NodeId(1)), 1.0);
        // The node is reported dirty so the engine re-prices its steps.
        let mut dirty = Vec::new();
        assert!(f.comm_dirty_nodes(&mut dirty));
        assert!(dirty.contains(&NodeId(2)));
        // Window end restores full speed.
        assert_eq!(f.next_event_time(), Some(SimTime(1_500)));
        f.advance(SimTime(1_500));
        assert_eq!(f.cpu_available(NodeId(2)), 1.0);
        assert_eq!(f.next_event_time(), None);
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
        let mut f = FaultFabric::new(params, &p).expect("valid plan");
        let h = f.start_transfer(SimTime::ZERO, NodeId(0), NodeId(1), 1_000_000);
        let mut done = Vec::new();
        let mut last = SimTime::ZERO;
        while let Some(t) = f.next_event_time() {
            last = t;
            done.extend(f.advance(t));
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
        let err = FaultFabric::new(NetParams::ideal(), &plan)
            .err()
            .expect("rejected");
        assert!(err.to_string().contains("empty fault window"), "{err}");
    }
}
