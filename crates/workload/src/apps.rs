//! Simulator-backed [`Workload`] implementations: the cluster server's
//! malleable applications are *real* DPS applications whose per-iteration
//! profiles come from dps-sim runs.
//!
//! [`LuWorkload`] wraps the block LU factorization, [`StencilWorkload`] the
//! Jacobi heat-diffusion stencil. Both answer [`Workload::profile`] by
//! running the paper's simulator at the candidate allocation and extracting
//! the dynamic-efficiency profile ([`cluster::profile_from_report`]); the
//! server memoizes those runs per `(workload, node count)`.
//!
//! [`LuWorkload::realize`] additionally replays a whole allocation
//! *schedule* (one node count per iteration) as a **single** simulator run
//! using the DPS dynamic thread-removal machinery — the same mechanism the
//! paper's Figures 11–12 exercise — so a server decision like "shrink from
//! 8 to 4 nodes after iteration 2" becomes an actual mid-run reallocation
//! inside the simulated application.

use std::hash::Hasher;

use cluster::{profile_from_report, EfficiencyProfile, WhatIfSession, Workload};
use desim::fxhash::FxHasher;
use dps_sim::{SimConfig, SimError, SimResult};
use lu_app::{predict_lu, DataMode, LuCheckpoint, LuConfig};
use netmodel::NetParams;
use stencil_app::{predict_stencil, StencilConfig};

fn env_fingerprint(net: &NetParams, simcfg: &SimConfig) -> u64 {
    let mut h = FxHasher::default();
    h.write(format!("{net:?}").as_bytes());
    h.write(format!("{simcfg:?}").as_bytes());
    h.finish()
}

/// Builds a thread-removal plan realizing a per-iteration allocation
/// schedule, or `None` when the schedule grows (removal cannot re-add).
pub(crate) fn removal_plan(allocs: &[u32]) -> Option<Vec<(usize, u32)>> {
    let mut plan = Vec::new();
    for (k, w) in allocs.windows(2).enumerate() {
        if w[1] > w[0] {
            return None;
        }
        if w[1] < w[0] {
            // Shrinking before (0-based) iteration k+1 is the plan entry
            // "kill after 1-based iteration k+1".
            plan.push((k + 1, w[0] - w[1]));
        }
    }
    Some(plan)
}

/// The block LU factorization as a malleable cluster workload.
///
/// `cfg.workers` is the workload's intrinsic parallelism cap
/// ([`Workload::max_nodes`]); a profile at `n` nodes runs the same worker
/// set packed onto `n` nodes, like the paper's "eight column blocks on four
/// nodes".
pub struct LuWorkload {
    pub(crate) cfg: LuConfig,
    pub(crate) net: NetParams,
    pub(crate) simcfg: SimConfig,
    key: String,
}

impl LuWorkload {
    /// Wraps a validated LU configuration. The configuration's `nodes`
    /// field is ignored (the server decides allocations); its `removal`
    /// plan must be empty (reallocation is the server's job now).
    pub fn new(cfg: LuConfig, net: NetParams, simcfg: SimConfig) -> LuWorkload {
        assert!(
            cfg.removal.is_empty(),
            "removal plans are driven by the server, not the config"
        );
        cfg.validate().expect("valid LU configuration");
        let key = format!(
            "lu:n={},r={},w={},variant={},mode={:?},cost={},env={:016x}",
            cfg.n,
            cfg.r,
            cfg.workers,
            cfg.variant_label(),
            cfg.mode,
            cfg.cost.map_or("none".into(), |c| format!("{c:?}")),
            env_fingerprint(&net, &simcfg),
        );
        LuWorkload {
            cfg,
            net,
            simcfg,
            key,
        }
    }

    /// The wrapped configuration.
    pub fn config(&self) -> &LuConfig {
        &self.cfg
    }

    /// This job on `nodes` nodes with one worker per node, so removing a
    /// worker vacates its node, running the thread-removal plan `removal`.
    /// Not validated: each caller has its own policy for an invalid shape.
    pub(crate) fn one_worker_per_node(&self, nodes: u32, removal: Vec<(usize, u32)>) -> LuConfig {
        let mut cfg = self.cfg.clone();
        cfg.nodes = nodes;
        cfg.workers = nodes;
        cfg.removal = removal;
        cfg
    }

    /// One simulator run with the node count genuinely varying mid-job: the
    /// schedule (`allocs[k]` nodes during iteration `k`, one entry per
    /// iteration) is translated into the DPS thread-removal plan the LU
    /// application already supports, so iteration `k` really executes on
    /// `allocs[k]` nodes inside the engine. Growing schedules return `None`
    /// — thread removal cannot re-add workers — as do pipelined flow graphs
    /// (the paper restricts removal to the basic graph).
    pub fn realize(&self, allocs: &[u32]) -> SimResult<Option<EfficiencyProfile>> {
        if allocs.len() != self.iterations() {
            return Err(SimError::protocol(format!(
                "schedule has {} entries for {} iterations",
                allocs.len(),
                self.iterations()
            )));
        }
        if allocs.iter().any(|&n| n < 1) {
            return Err(SimError::protocol(
                "schedule grants zero nodes to an iteration",
            ));
        }
        if self.cfg.pipelined {
            return Ok(None);
        }
        let Some(plan) = removal_plan(allocs) else {
            return Ok(None);
        };
        let cfg = self.one_worker_per_node(allocs[0], plan);
        cfg.validate()
            .map_err(|e| SimError::protocol(format!("realized schedule is invalid: {e}")))?;
        let run = predict_lu(&cfg, self.net, &self.simcfg)?;
        Ok(Some(profile_from_report(&run.report)))
    }

    fn at_nodes(&self, nodes: u32) -> SimResult<LuConfig> {
        if nodes < 1 || nodes > self.cfg.workers {
            return Err(SimError::protocol(format!(
                "LU profile needs 1..={} nodes, got {nodes}",
                self.cfg.workers
            )));
        }
        let mut cfg = self.cfg.clone();
        cfg.nodes = nodes;
        Ok(cfg)
    }
}

impl Workload for LuWorkload {
    fn key(&self) -> String {
        self.key.clone()
    }

    fn iterations(&self) -> usize {
        self.cfg.k_blocks()
    }

    fn max_nodes(&self) -> u32 {
        self.cfg.workers
    }

    fn profile(&self, nodes: u32) -> SimResult<EfficiencyProfile> {
        let run = predict_lu(&self.at_nodes(nodes)?, self.net, &self.simcfg)?;
        Ok(profile_from_report(&run.report))
    }

    /// A warm checkpointed run of this job at `start_nodes` (one worker
    /// per node, like [`LuWorkload::realize`]), for fork-based candidate
    /// scoring. Pipelined graphs have no barrier to pause at and `Real`
    /// mode refuses to fork — both fall back to profile scoring.
    fn whatif_session(&self, start_nodes: u32) -> SimResult<Option<Box<dyn WhatIfSession>>> {
        if self.cfg.pipelined || !matches!(self.cfg.mode, DataMode::Alloc | DataMode::Ghost) {
            return Ok(None);
        }
        if start_nodes < 1 || start_nodes > self.cfg.workers {
            return Err(SimError::protocol(format!(
                "what-if session needs 1..={} start nodes, got {start_nodes}",
                self.cfg.workers
            )));
        }
        let cfg = self.one_worker_per_node(start_nodes, Vec::new());
        if cfg.validate().is_err() {
            return Ok(None);
        }
        match LuCheckpoint::start(&cfg, self.net, &self.simcfg) {
            Ok(base) => Ok(Some(Box::new(crate::whatif::WhatIfEvaluator::new(base)))),
            Err(e) if e.is_fork_refused() => Ok(None),
            Err(e) => Err(e),
        }
    }
}

/// The Jacobi heat-diffusion stencil as a malleable cluster workload.
///
/// Its flat dynamic-efficiency profile is the counterpoint to LU's decay:
/// an efficiency-driven server keeps the stencil's nodes and harvests LU's.
pub struct StencilWorkload {
    pub(crate) cfg: StencilConfig,
    pub(crate) net: NetParams,
    pub(crate) simcfg: SimConfig,
    key: String,
}

impl StencilWorkload {
    /// Wraps a validated stencil configuration. The configuration's `nodes`
    /// field is ignored (the server decides allocations).
    pub fn new(cfg: StencilConfig, net: NetParams, simcfg: SimConfig) -> StencilWorkload {
        cfg.validate().expect("valid stencil configuration");
        let key = format!(
            "stencil:n={},iters={},w={},sync={},mode={:?},env={:016x}",
            cfg.n,
            cfg.iters,
            cfg.workers,
            cfg.synchronized,
            cfg.mode,
            env_fingerprint(&net, &simcfg),
        );
        StencilWorkload {
            cfg,
            net,
            simcfg,
            key,
        }
    }

    /// The wrapped configuration.
    pub fn config(&self) -> &StencilConfig {
        &self.cfg
    }
}

impl Workload for StencilWorkload {
    fn key(&self) -> String {
        self.key.clone()
    }

    fn iterations(&self) -> usize {
        self.cfg.iters
    }

    fn max_nodes(&self) -> u32 {
        self.cfg.workers
    }

    fn profile(&self, nodes: u32) -> SimResult<EfficiencyProfile> {
        if nodes < 1 || nodes > self.cfg.workers {
            return Err(SimError::protocol(format!(
                "stencil profile needs 1..={} nodes, got {nodes}",
                self.cfg.workers
            )));
        }
        let mut cfg = self.cfg.clone();
        cfg.nodes = nodes;
        let run = predict_stencil(&cfg, self.net, &self.simcfg)?;
        Ok(profile_from_report(&run.report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn removal_plans_from_schedules() {
        assert_eq!(removal_plan(&[8, 8, 8]), Some(vec![]));
        assert_eq!(removal_plan(&[8, 4, 4]), Some(vec![(1, 4)]));
        assert_eq!(removal_plan(&[8, 6, 6, 3]), Some(vec![(1, 2), (3, 3)]));
        assert_eq!(removal_plan(&[4, 8]), None, "growth is unrealizable");
    }
}
