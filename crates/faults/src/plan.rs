//! Fault schedules: what goes wrong, where, and when.
//!
//! A [`FaultPlan`] is a deterministic, pre-computed schedule of involuntary
//! events on a cluster — the counterpoint to the voluntary shrink/grow
//! schedules the rest of the workspace models. Plans are plain data: the
//! injection layers (`dps-sim`'s `SimFabric::with_plan`, `netmodel`'s
//! capacity windows, `cluster-svc`'s recovering server) each consume the
//! projection relevant to them ([`FaultPlan::cpu_windows`],
//! [`FaultPlan::link_windows`], [`FaultPlan::outages`]).
//!
//! Node indices are plain `u32`s counted from zero, matching the star
//! network's `NodeId` numbering and the cluster server's node pool.

use desim::{RateWindow, SimDuration, SimTime};

/// What kind of fault strikes a node.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// The node dies and never returns.
    NodeCrash,
    /// The node computes at `factor` of its nominal speed for `window`.
    NodeSlowdown {
        /// Remaining fraction of compute speed, in `(0, 1]`.
        factor: f64,
        /// How long the slowdown lasts.
        window: SimDuration,
    },
    /// The node's network links carry `factor` of their nominal bandwidth
    /// for `window`.
    LinkDegrade {
        /// Remaining fraction of link bandwidth, in `(0, 1]`.
        factor: f64,
        /// How long the degradation lasts.
        window: SimDuration,
    },
    /// The node is taken away (e.g. by a higher-priority tenant) and handed
    /// back after `return_after`.
    NodePreempt {
        /// Delay until the node rejoins the pool.
        return_after: SimDuration,
    },
}

impl FaultKind {
    /// Stable ordering rank used to sort simultaneous events
    /// deterministically.
    fn rank(&self) -> u8 {
        match self {
            FaultKind::NodeCrash => 0,
            FaultKind::NodePreempt { .. } => 1,
            FaultKind::NodeSlowdown { .. } => 2,
            FaultKind::LinkDegrade { .. } => 3,
        }
    }
}

/// One scheduled fault.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    /// Virtual time the fault strikes.
    pub at: SimTime,
    /// Node it strikes (zero-based).
    pub node: u32,
    /// What happens.
    pub kind: FaultKind,
}

/// Checkpoint/restart cost model.
///
/// Applications checkpoint at iteration boundaries every `interval`
/// iterations (`0` disables checkpointing). Writing a checkpoint stretches
/// the checkpointed iteration by `checkpoint_cost`; recovering from a fault
/// costs `restart_cost` plus the replay of all work since the last
/// checkpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointSpec {
    /// Checkpoint every this many iterations; `0` = never.
    pub interval: usize,
    /// Extra wall time added to each checkpointed iteration.
    pub checkpoint_cost: SimDuration,
    /// Fixed recovery cost paid when resuming from a checkpoint.
    pub restart_cost: SimDuration,
}

impl CheckpointSpec {
    /// No checkpointing at all.
    pub fn none() -> CheckpointSpec {
        CheckpointSpec {
            interval: 0,
            checkpoint_cost: SimDuration::ZERO,
            restart_cost: SimDuration::ZERO,
        }
    }

    /// Checkpoint every `interval` iterations with the given costs.
    pub fn every(
        interval: usize,
        checkpoint_cost: SimDuration,
        restart_cost: SimDuration,
    ) -> CheckpointSpec {
        assert!(
            interval > 0,
            "use CheckpointSpec::none() for no checkpoints"
        );
        CheckpointSpec {
            interval,
            checkpoint_cost,
            restart_cost,
        }
    }

    /// Index of the last checkpointed iteration boundary at or before
    /// `completed` finished iterations (the phase a recovering job resumes
    /// from). Without checkpointing everything replays from iteration 0.
    pub fn resume_point(&self, completed: usize) -> usize {
        if self.interval == 0 {
            0
        } else {
            completed - completed % self.interval
        }
    }

    /// Whether finishing (0-based) iteration `iter` writes a checkpoint.
    pub fn checkpoints_after(&self, iter: usize) -> bool {
        self.interval != 0 && (iter + 1).is_multiple_of(self.interval)
    }
}

/// A node leaving the pool: a crash (never returns) or a preemption
/// (returns at a known time).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Outage {
    /// When the node goes away.
    pub at: SimTime,
    /// Which node.
    pub node: u32,
    /// When it comes back — `None` for crashes.
    pub returns: Option<SimTime>,
}

/// A complete, deterministic fault schedule plus the checkpoint/restart
/// cost model in force while it plays out.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Scheduled faults, sorted by `(time, node, kind)`.
    pub events: Vec<FaultEvent>,
    /// Checkpoint/restart cost model.
    pub checkpoint: CheckpointSpec,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The empty plan: nothing fails, nothing checkpoints. Every injection
    /// layer treats this plan as a strict no-op (bit-identical results to
    /// the fault-free code path).
    pub fn none() -> FaultPlan {
        FaultPlan {
            events: Vec::new(),
            checkpoint: CheckpointSpec::none(),
        }
    }

    /// A plan from explicit events (sorted deterministically) and a
    /// checkpoint model. Panics on a plan that does not
    /// [`validate`](FaultPlan::validate).
    pub fn new(mut events: Vec<FaultEvent>, checkpoint: CheckpointSpec) -> FaultPlan {
        events.sort_by_key(|e| (e.at, e.node, e.kind.rank()));
        let plan = FaultPlan { events, checkpoint };
        if let Err(why) = plan.validate() {
            panic!("{why}");
        }
        plan
    }

    /// Checks every slowdown and degrade window: factor in `(0, 1]`,
    /// non-zero length, and an end that fits in [`SimTime`] (`at + window`
    /// saturates, which would leave the empty interval `[at, at)`).
    /// [`events`](FaultPlan::events) is a public field, so consumers that
    /// take plans from outside call this before projecting windows out of
    /// one.
    pub fn validate(&self) -> Result<(), String> {
        for e in &self.events {
            if let FaultKind::NodeSlowdown { factor, window }
            | FaultKind::LinkDegrade { factor, window } = e.kind
            {
                if !(factor > 0.0 && factor <= 1.0) {
                    return Err(format!("fault factor {factor} outside (0, 1]"));
                }
                if window.is_zero() {
                    return Err(format!("empty fault window at {} on node {}", e.at, e.node));
                }
                if e.at.checked_add(window).is_none() {
                    return Err(format!(
                        "fault window at {} on node {} ends past the end of virtual time",
                        e.at, e.node
                    ));
                }
            }
        }
        Ok(())
    }

    /// Whether the plan schedules no faults (the checkpoint model may still
    /// charge checkpoint costs).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The CPU-speed windows of the plan (from `NodeSlowdown` events).
    pub fn cpu_windows(&self) -> Vec<RateWindow> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::NodeSlowdown { factor, window } => Some(RateWindow {
                    node: e.node,
                    factor,
                    from: e.at,
                    to: e.at + window,
                }),
                _ => None,
            })
            .collect()
    }

    /// The link-bandwidth windows of the plan (from `LinkDegrade` events).
    pub fn link_windows(&self) -> Vec<RateWindow> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::LinkDegrade { factor, window } => Some(RateWindow {
                    node: e.node,
                    factor,
                    from: e.at,
                    to: e.at + window,
                }),
                _ => None,
            })
            .collect()
    }

    /// The node outages of the plan (crashes and preemptions), in schedule
    /// order.
    pub fn outages(&self) -> Vec<Outage> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::NodeCrash => Some(Outage {
                    at: e.at,
                    node: e.node,
                    returns: None,
                }),
                FaultKind::NodePreempt { return_after } => Some(Outage {
                    at: e.at,
                    node: e.node,
                    returns: Some(e.at + return_after),
                }),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_a_no_op() {
        let p = FaultPlan::none();
        assert!(p.is_empty());
        assert!(p.cpu_windows().is_empty());
        assert!(p.link_windows().is_empty());
        assert!(p.outages().is_empty());
        assert_eq!(p, FaultPlan::default());
    }

    #[test]
    fn projections_split_by_kind() {
        let p = FaultPlan::new(
            vec![
                FaultEvent {
                    at: SimTime(30),
                    node: 2,
                    kind: FaultKind::NodeSlowdown {
                        factor: 0.5,
                        window: SimDuration(10),
                    },
                },
                FaultEvent {
                    at: SimTime(10),
                    node: 0,
                    kind: FaultKind::NodeCrash,
                },
                FaultEvent {
                    at: SimTime(20),
                    node: 1,
                    kind: FaultKind::NodePreempt {
                        return_after: SimDuration(5),
                    },
                },
                FaultEvent {
                    at: SimTime(40),
                    node: 3,
                    kind: FaultKind::LinkDegrade {
                        factor: 0.25,
                        window: SimDuration(100),
                    },
                },
            ],
            CheckpointSpec::none(),
        );
        // Sorted by time regardless of construction order.
        assert_eq!(p.events[0].at, SimTime(10));
        let out = p.outages();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].returns, None);
        assert_eq!(out[1].returns, Some(SimTime(25)));
        assert_eq!(p.cpu_windows().len(), 1);
        assert_eq!(p.cpu_windows()[0].to, SimTime(40));
        assert_eq!(p.link_windows().len(), 1);
    }

    #[test]
    fn checkpoint_resume_points() {
        let c = CheckpointSpec::every(3, SimDuration::ZERO, SimDuration::ZERO);
        assert_eq!(c.resume_point(0), 0);
        assert_eq!(c.resume_point(2), 0);
        assert_eq!(c.resume_point(3), 3);
        assert_eq!(c.resume_point(7), 6);
        assert!(c.checkpoints_after(2));
        assert!(!c.checkpoints_after(3));
        let none = CheckpointSpec::none();
        assert_eq!(none.resume_point(7), 0);
        assert!(!none.checkpoints_after(0));
    }

    #[test]
    fn validate_rejects_what_a_literal_plan_can_smuggle_in() {
        let check = |at, factor, window| {
            let kind = FaultKind::LinkDegrade { factor, window };
            let events = vec![FaultEvent { at, node: 0, kind }];
            let checkpoint = CheckpointSpec::none();
            FaultPlan { events, checkpoint }.validate()
        };
        assert!(check(SimTime(u64::MAX - 1), 0.5, SimDuration(1)).is_ok());
        assert!(check(SimTime(u64::MAX), 0.5, SimDuration(1)).is_err());
        assert!(check(SimTime(5), 0.5, SimDuration::ZERO).is_err());
        assert!(check(SimTime(5), f64::NAN, SimDuration(1)).is_err());
    }

    #[test]
    #[should_panic(expected = "outside (0, 1]")]
    fn invalid_factor_rejected() {
        FaultPlan::new(
            vec![FaultEvent {
                at: SimTime(0),
                node: 0,
                kind: FaultKind::NodeSlowdown {
                    factor: 1.5,
                    window: SimDuration(1),
                },
            }],
            CheckpointSpec::none(),
        );
    }
}
