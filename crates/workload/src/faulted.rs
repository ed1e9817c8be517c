//! Fault injection at the application layer: playing a [`FaultPlan`]
//! against a single simulated DPS application.
//!
//! The fabric-level injection (`dps_sim::SimFabric::with_plan`) covers the
//! *continuous* perturbations — CPU slowdown and link degradation windows.
//! Crashes and preemptions cannot be fabric events (removing a node under
//! running atomic steps would deadlock the DPS graph), so this module maps
//! them onto the machinery the paper already has: each outage becomes a
//! **thread removal at the next iteration boundary**, exactly like a
//! voluntary shrink decision, and the work lost since the last checkpoint
//! is replayed as extra wall time per the plan's [`faults::CheckpointSpec`].
//!
//! [`LuWorkload::realize_under_faults`] runs the whole story as one engine
//! run; [`StencilWorkload::profile_under_faults`] injects only the windows
//! and checkpoint costs, since the stencil's workers are not removable.

use cluster::{EfficiencyProfile, Workload};
use desim::{SimDuration, SimTime};
use dps_sim::{SimError, SimFabric, SimResult};
use faults::FaultPlan;
use lu_app::predict_lu_with_fabric;
use stencil_app::predict_stencil_with_fabric;

use crate::apps::{removal_plan, LuWorkload, StencilWorkload};

/// Outcome of realizing a fault plan against one application run.
pub struct FaultedRun {
    /// Per-iteration profile of the faulted run, including replay and
    /// checkpoint costs.
    pub profile: EfficiencyProfile,
    /// Node allocation actually in effect at each iteration after the
    /// plan's outages.
    pub schedule: Vec<u32>,
    /// Outages that struck a held node and forced a restart-from-checkpoint.
    pub restarts: u32,
    /// Computed work discarded and replayed because of those outages.
    pub lost_work: SimDuration,
}

/// Maps the plan's outages onto iteration boundaries of a baseline profile:
/// returns the shrink schedule plus per-iteration span additions (replay +
/// restart cost), the restart count and the lost work. An outage striking
/// node `>= nodes`, landing after the last boundary, or hitting a node
/// already removed is a no-op.
struct OutageMapping {
    schedule: Vec<u32>,
    extra: Vec<SimDuration>,
    restarts: u32,
    lost_work: SimDuration,
}

fn map_outages(base: &EfficiencyProfile, nodes: u32, plan: &FaultPlan) -> OutageMapping {
    let iters = base.points.len();
    let spans: Vec<SimDuration> = base.points.iter().map(|p| p.span).collect();
    let works: Vec<SimDuration> = base.points.iter().map(|p| p.cpu_work).collect();
    let mut starts = Vec::with_capacity(iters);
    let mut t = SimTime::ZERO;
    for s in &spans {
        starts.push(t);
        t += *s;
    }
    let end = t;

    let mut m = OutageMapping {
        schedule: vec![nodes; iters],
        extra: vec![SimDuration::ZERO; iters],
        restarts: 0,
        lost_work: SimDuration::ZERO,
    };
    let mut struck = vec![false; nodes as usize];
    let mut alive = nodes;
    let ck = &plan.checkpoint;
    for o in plan.outages() {
        if o.node >= nodes || struck[o.node as usize] || alive <= 1 || o.at >= end {
            continue;
        }
        // Iteration containing the outage, and the boundary the removal
        // fires at. An outage exactly on a boundary removes the node
        // *before* that iteration starts — identical to a voluntary shrink.
        let j = starts.partition_point(|&s| s <= o.at) - 1;
        let k = if o.at == starts[j] { j } else { j + 1 };
        if k >= iters {
            continue; // no boundary left to shrink at
        }
        struck[o.node as usize] = true;
        alive -= 1;
        m.restarts += 1;
        // Replay: iterations completed since the last checkpoint, plus the
        // in-flight fraction of iteration j, are computed again.
        let resume = ck.resume_point(j);
        let mut replay_span = SimDuration::ZERO;
        let mut replay_work = SimDuration::ZERO;
        for i in resume..j {
            replay_span += spans[i];
            replay_work += works[i];
        }
        let partial_span = o.at - starts[j];
        if !spans[j].is_zero() {
            replay_work += works[j].mul_f64(partial_span.as_secs_f64() / spans[j].as_secs_f64());
        }
        replay_span += partial_span;
        m.lost_work += replay_work;
        m.extra[k] += replay_span + ck.restart_cost;
        for s in &mut m.schedule[k..] {
            *s -= 1;
        }
    }
    m
}

/// Stretches profile points by per-iteration span additions (replay,
/// restart cost, checkpoint writes), rescaling efficiency with the span.
/// A zero addition leaves the point bit-identical.
fn apply_extras(profile: &mut EfficiencyProfile, extra: &[SimDuration], plan: &FaultPlan) {
    for (i, pt) in profile.points.iter_mut().enumerate() {
        let mut add = extra.get(i).copied().unwrap_or(SimDuration::ZERO);
        if plan.checkpoint.checkpoints_after(i) {
            add += plan.checkpoint.checkpoint_cost;
        }
        if !add.is_zero() {
            let old = pt.span;
            pt.span += add;
            if !pt.span.is_zero() {
                pt.efficiency *= old.as_secs_f64() / pt.span.as_secs_f64();
            }
        }
    }
}

impl LuWorkload {
    /// Realizes `plan` against one LU run starting on `nodes` nodes.
    ///
    /// Outages map to thread removals at the next iteration boundary (a
    /// preemption cannot re-add a worker within one run, so it removes like
    /// a crash); slowdown/degrade windows are injected through
    /// [`SimFabric::with_plan`] so the engine feels them on the wire and in
    /// the CPU rates; checkpoint writes, restart reads and since-checkpoint
    /// replay are added to the affected iterations' spans analytically. Returns
    /// `None` for pipelined configurations (the paper restricts thread
    /// removal to the basic flow graph); `Err` when the underlying engine
    /// runs fail.
    ///
    /// Timeline semantics: **outage** times are interpreted on the
    /// *iteration* timeline (time 0 = first iteration start), matching the
    /// per-iteration profile the crash is mapped onto; **window** times go
    /// to the fabric verbatim on the engine's absolute timeline, which
    /// includes any distribution prefix before the first iteration.
    ///
    /// With a crash exactly on an iteration boundary, a checkpoint interval
    /// of 1 and zero costs, the result is identical to
    /// [`LuWorkload::realize`] on the equivalent voluntary shrink schedule.
    pub fn realize_under_faults(
        &self,
        nodes: u32,
        plan: &FaultPlan,
    ) -> SimResult<Option<FaultedRun>> {
        if nodes < 1 || nodes > self.max_nodes() {
            return Err(SimError::protocol(format!(
                "LU faulted run needs 1..={} nodes, got {nodes}",
                self.max_nodes()
            )));
        }
        if self.cfg.pipelined {
            return Ok(None);
        }
        let base = self.profile(nodes)?;
        let m = map_outages(&base, nodes, plan);
        let rplan = removal_plan(&m.schedule).expect("outage schedules only shrink");
        let cfg = self.one_worker_per_node(m.schedule[0], rplan);
        cfg.validate()
            .map_err(|e| SimError::protocol(format!("faulted schedule is invalid: {e}")))?;
        let mut fabric = SimFabric::with_plan(self.net, plan)?;
        let run = predict_lu_with_fabric(&cfg, &mut fabric, &self.simcfg)?;
        let mut profile = cluster::profile_from_report(&run.report);
        apply_extras(&mut profile, &m.extra, plan);
        Ok(Some(FaultedRun {
            profile,
            schedule: m.schedule,
            restarts: m.restarts,
            lost_work: m.lost_work,
        }))
    }
}

impl StencilWorkload {
    /// Per-iteration profile at a fixed allocation with `plan`'s
    /// slowdown/degrade windows injected through [`SimFabric::with_plan`] and
    /// checkpoint write costs added per the plan's [`CheckpointSpec`]
    /// (outages are a cluster-server concern for the stencil — its workers
    /// are not removable mid-run).
    ///
    /// [`CheckpointSpec`]: faults::CheckpointSpec
    pub fn profile_under_faults(
        &self,
        nodes: u32,
        plan: &FaultPlan,
    ) -> SimResult<EfficiencyProfile> {
        if nodes < 1 || nodes > self.max_nodes() {
            return Err(SimError::protocol(format!(
                "stencil faulted profile needs 1..={} nodes, got {nodes}",
                self.max_nodes()
            )));
        }
        let mut cfg = self.cfg.clone();
        cfg.nodes = nodes;
        let mut fabric = SimFabric::with_plan(self.net, plan)?;
        let run = predict_stencil_with_fabric(&cfg, &mut fabric, &self.simcfg)?;
        let mut profile = cluster::profile_from_report(&run.report);
        apply_extras(&mut profile, &[], plan);
        Ok(profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::SimEnv;
    use faults::{CheckpointSpec, FaultEvent, FaultKind};

    fn small_lu() -> LuWorkload {
        let env = SimEnv::paper();
        env.lu_workload(env.lu_sized(144, 36, 4))
    }

    #[test]
    fn empty_plan_realization_matches_the_flat_profile() {
        let w = small_lu();
        let run = w
            .realize_under_faults(4, &FaultPlan::none())
            .unwrap()
            .expect("basic graph realizes");
        assert_eq!(run.schedule, vec![4; 4]);
        assert_eq!(run.restarts, 0);
        assert_eq!(run.lost_work, SimDuration::ZERO);
        let flat = w
            .realize(&[4, 4, 4, 4])
            .unwrap()
            .expect("flat schedule realizes");
        for (a, b) in run.profile.points.iter().zip(&flat.points) {
            assert_eq!(a.span, b.span, "{}", a.label);
            assert_eq!(a.efficiency, b.efficiency);
        }
    }

    #[test]
    fn crash_shrinks_the_schedule_and_costs_replay() {
        let w = small_lu();
        let base = w.profile(4).unwrap();
        // Crash node 3 strictly inside iteration 2.
        let t = base.points[0].span + base.points[1].span + base.points[2].span.mul_f64(0.5);
        let plan = FaultPlan::new(
            vec![FaultEvent {
                at: SimTime::ZERO + t,
                node: 3,
                kind: FaultKind::NodeCrash,
            }],
            CheckpointSpec::every(1, SimDuration::ZERO, SimDuration::from_millis(100)),
        );
        let run = w
            .realize_under_faults(4, &plan)
            .unwrap()
            .expect("realizable");
        assert_eq!(run.schedule, vec![4, 4, 4, 3]);
        assert_eq!(run.restarts, 1);
        assert!(run.lost_work > SimDuration::ZERO, "in-flight work is lost");
        // The restart iteration pays the replay plus the checkpoint read.
        let voluntary = w.realize(&[4, 4, 4, 3]).unwrap().expect("shrink realizes");
        assert!(run.profile.points[3].span > voluntary.points[3].span);
        assert_eq!(run.profile.points[0].span, voluntary.points[0].span);
    }

    #[test]
    fn stencil_faulted_profile_is_the_plain_one_until_a_window_slows_it() {
        let env = SimEnv::paper();
        let w = env.stencil_workload(env.stencil(128, 4, 4));
        let plain = w.profile(4).unwrap();
        let quiet = w.profile_under_faults(4, &FaultPlan::none()).unwrap();
        assert_eq!(quiet.points.len(), plain.points.len());
        for (a, b) in quiet.points.iter().zip(&plain.points) {
            assert_eq!(a.span, b.span, "{}", a.label);
            assert_eq!(a.cpu_work, b.cpu_work, "{}", a.label);
            assert_eq!(a.efficiency, b.efficiency, "{}", a.label);
        }
        // Halve node 1's speed over the whole sweep (windows run on the
        // engine's timeline, where the sweep starts after distribution).
        let mut cfg = w.config().clone();
        cfg.nodes = 4;
        let run = env.predict_stencil(&cfg).unwrap();
        let dist = run.report.mark_time("dist").expect("distribution mark");
        let kind = FaultKind::NodeSlowdown {
            factor: 0.5,
            window: run.sweep_time,
        };
        let plan = FaultPlan::new(
            vec![FaultEvent {
                at: dist,
                node: 1,
                kind,
            }],
            CheckpointSpec::none(),
        );
        let slow = w.profile_under_faults(4, &plan).unwrap();
        let pairs = || slow.points.iter().zip(&plain.points);
        assert!(pairs().all(|(a, b)| a.span >= b.span), "no span shortens");
        assert!(
            pairs().any(|(a, b)| a.span > b.span),
            "the window stretches a span"
        );
    }
}
