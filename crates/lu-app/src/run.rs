//! Running the LU application on the simulator or the testbed, and
//! extracting the paper's quantities from the run report.

use std::sync::Arc;

use desim::{SimDuration, SimTime};
use dps_sim::{RunReport, SimCheckpoint, SimConfig, SimError, SimResult};
use linalg::blocked::LuFactors;
use linalg::{lu_residual, Matrix};
use netmodel::NetParams;
use testbed::TestbedParams;

use crate::builder::build_lu_app;
use crate::config::{DataMode, LuConfig};
use crate::ops::coord::CoordOp;
use crate::payload::CoordMsg;

/// Outcome of one LU run.
pub struct LuRun {
    /// The engine's run report.
    pub report: RunReport,
    /// Factorization time: completion minus the end of the initial matrix
    /// distribution (the paper's measured quantity).
    pub factorization_time: SimDuration,
    /// Relative residual `max|P·A − L·U| / max|A|` (Real mode only).
    pub residual: Option<f64>,
}

fn finish(cfg: &LuConfig, sh: &crate::ops::LuShared, report: RunReport) -> SimResult<LuRun> {
    if !report.terminated {
        return Err(SimError::protocol(
            "LU run went quiescent without terminating",
        ));
    }
    let dist = report
        .mark_time("dist")
        .ok_or_else(|| SimError::protocol("LU run recorded no 'dist' mark"))?;
    // The factorization ends at the final iteration mark; in Real mode the
    // run continues past it with the verification dump, which is not part
    // of the measured quantity.
    let final_mark = format!("iter:{}", cfg.k_blocks());
    let end = report
        .mark_time(&final_mark)
        .ok_or_else(|| SimError::protocol(format!("LU run recorded no '{final_mark}' mark")))?;
    let factorization_time = end - dist;
    let residual = if cfg.mode == DataMode::Real {
        let out = sh
            .result
            .lock()
            .expect("result lock")
            .take()
            .ok_or_else(|| SimError::protocol("Real mode run produced no factorization"))?;
        let a = Matrix::random(cfg.n, cfg.n, cfg.seed);
        let f = LuFactors {
            lu: out.lu,
            pivots: out.pivots,
        };
        Some(lu_residual(&a, &f))
    } else {
        None
    };
    Ok(LuRun {
        report,
        factorization_time,
        residual,
    })
}

/// One-line context for errors surfacing from an LU run.
fn lu_context(cfg: &LuConfig) -> String {
    format!(
        "running LU n={} r={} on {} nodes ({} workers)",
        cfg.n, cfg.r, cfg.nodes, cfg.workers
    )
}

/// Predicts the run on the paper's machine model (the simulator).
pub fn predict_lu(cfg: &LuConfig, net: NetParams, simcfg: &SimConfig) -> SimResult<LuRun> {
    let (app, sh) = build_lu_app(cfg.clone());
    let report = dps_sim::simulate(&app, net, simcfg).map_err(|e| e.context(lu_context(cfg)))?;
    finish(cfg, &sh, report).map_err(|e| e.context(lu_context(cfg)))
}

/// Predicts the run against an arbitrary machine model (e.g. a
/// `dps_sim::SimFabric::with_plan` fabric with injected slowdowns and link
/// degradations, or the testbed emulator).
pub fn predict_lu_with_fabric(
    cfg: &LuConfig,
    fabric: &mut dyn dps_sim::Fabric,
    simcfg: &SimConfig,
) -> SimResult<LuRun> {
    let (app, sh) = build_lu_app(cfg.clone());
    let report = dps_sim::simulate_with_fabric(&app, fabric, simcfg)
        .map_err(|e| e.context(lu_context(cfg)))?;
    finish(cfg, &sh, report).map_err(|e| e.context(lu_context(cfg)))
}

/// A pausable/forkable LU prediction run: the building block of
/// shared-prefix sweeps (one common prefix, N divergent removal plans).
///
/// Only prediction (`DataMode::Alloc`/`Ghost`) runs fork — `Real` mode
/// behaviours opt out of cloning and [`LuCheckpoint::fork`] fails with
/// `ForkRefused`.
pub struct LuCheckpoint {
    ck: SimCheckpoint,
    cfg: LuConfig,
    sh: Arc<crate::ops::LuShared>,
}

impl LuCheckpoint {
    /// Builds the application and pauses it at virtual time zero.
    pub fn start(cfg: &LuConfig, net: NetParams, simcfg: &SimConfig) -> SimResult<LuCheckpoint> {
        let (app, sh) = build_lu_app(cfg.clone());
        Ok(LuCheckpoint {
            ck: dps_sim::simulate_until(Arc::new(app), net, simcfg, SimTime::ZERO)
                .map_err(|e| e.context(lu_context(cfg)))?,
            cfg: cfg.clone(),
            sh,
        })
    }

    /// Advances until the next event would pass `t` (see
    /// [`SimCheckpoint::advance_until`]).
    pub fn advance_until(&mut self, t: SimTime) -> SimResult<bool> {
        self.ck.advance_until(t)
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.ck.now()
    }

    /// Advances until the coordinator is about to close iteration
    /// `after`'s barrier (1-based, matching removal-plan notation: the
    /// decision step that records `iter:{after}` and consults the removal
    /// plan for removals "after iteration `after`"). Returns `Ok(false)` if
    /// the run finished first — e.g. `after` is past the last barrier.
    pub fn pause_before_barrier(&mut self, after: usize) -> SimResult<bool> {
        assert!(after >= 1, "barriers are 1-based");
        let coord = self.sh.ids.coord;
        let target = after - 1;
        self.ck.run_until(Box::new(move |p| {
            if p.op != coord {
                return false;
            }
            let Some(state) = p.state.and_then(|s| s.as_any()) else {
                return false;
            };
            let Some(c) = state.downcast_ref::<CoordOp>() else {
                return false;
            };
            c.current_iteration() == target
                && c.barrier_closing(dps::downcast_ref::<CoordMsg>(p.obj))
        }))
    }

    /// An independent copy of the paused run; fails with `ForkRefused` when
    /// the configuration cannot fork (Real mode).
    pub fn fork(&mut self) -> SimResult<LuCheckpoint> {
        Ok(LuCheckpoint {
            ck: self.ck.fork()?,
            cfg: self.cfg.clone(),
            sh: Arc::clone(&self.sh),
        })
    }

    /// Installs a different removal plan in this branch's coordinator —
    /// the divergence rewrite applied to a fresh fork. Entries at or
    /// before the current iteration are dropped. Panics if the coordinator
    /// never ran (pause the checkpoint after `dist` first).
    pub fn set_removal_plan(&mut self, plan: Vec<(usize, u32)>) {
        let (coord, thread) = (self.sh.ids.coord, self.main_thread());
        self.ck
            .with_op_state::<CoordOp, _>(coord, thread, |c| c.set_removal_plan(plan))
            .expect("coordinator state available for rewrite");
    }

    /// Runs to completion and extracts the paper's quantities.
    pub fn finish(self) -> SimResult<LuRun> {
        let ctx = lu_context(&self.cfg);
        let report = self.ck.finish().map_err(|e| e.context(ctx.clone()))?;
        finish(&self.cfg, &self.sh, report).map_err(|e| e.context(ctx))
    }

    fn main_thread(&self) -> dps::ThreadId {
        // The coordinator runs on the deployment's "main" group, a single
        // thread the builder places after the workers.
        dps::ThreadId(self.cfg.workers)
    }
}

/// "Measures" the run on the ground-truth testbed emulator.
pub fn measure_lu(
    cfg: &LuConfig,
    tb: TestbedParams,
    seed: u64,
    simcfg: &SimConfig,
) -> SimResult<LuRun> {
    let (app, sh) = build_lu_app(cfg.clone());
    let report =
        testbed::measure(&app, tb, seed, simcfg).map_err(|e| e.context(lu_context(cfg)))?;
    finish(cfg, &sh, report).map_err(|e| e.context(lu_context(cfg)))
}
