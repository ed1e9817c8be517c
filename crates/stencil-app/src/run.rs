//! Running the stencil on the simulator or testbed, with verification.

use desim::SimDuration;
use dps_sim::{RunReport, SimConfig, SimError, SimResult};
use linalg::{max_abs_diff, Matrix};
use lu_app::DataMode;
use netmodel::NetParams;
use testbed::TestbedParams;

use crate::builder::build_stencil_app;
use crate::config::StencilConfig;
use crate::reference::jacobi;

/// Outcome of one stencil run.
pub struct StencilRun {
    /// The engine's run report.
    pub report: RunReport,
    /// Sweep time: completion minus the distribution mark.
    pub sweep_time: SimDuration,
    /// Max abs deviation from the sequential Jacobi reference (Real mode).
    pub error: Option<f64>,
}

fn finish(
    cfg: &StencilConfig,
    sh: &crate::ops::StShared,
    report: RunReport,
) -> SimResult<StencilRun> {
    if !report.terminated {
        return Err(SimError::protocol(
            "stencil run went quiescent without terminating",
        ));
    }
    let dist = report
        .mark_time("dist")
        .ok_or_else(|| SimError::protocol("stencil run recorded no 'dist' mark"))?;
    let final_mark = format!("iter:{}", cfg.iters);
    let end = report.mark_time(&final_mark).ok_or_else(|| {
        SimError::protocol(format!("stencil run recorded no '{final_mark}' mark"))
    })?;
    let error = if cfg.mode == DataMode::Real {
        let got = sh
            .result
            .lock()
            .expect("result lock")
            .take()
            .ok_or_else(|| SimError::protocol("Real mode run produced no grid"))?;
        let reference = jacobi(&Matrix::random(cfg.n, cfg.n, cfg.seed), cfg.iters);
        Some(max_abs_diff(&got, &reference))
    } else {
        None
    };
    Ok(StencilRun {
        sweep_time: end - dist,
        report,
        error,
    })
}

/// One-line context for errors surfacing from a stencil run.
fn st_context(cfg: &StencilConfig) -> String {
    format!(
        "running stencil n={} iters={} on {} nodes",
        cfg.n, cfg.iters, cfg.nodes
    )
}

/// Predicts the run on the simulator.
pub fn predict_stencil(
    cfg: &StencilConfig,
    net: NetParams,
    simcfg: &SimConfig,
) -> SimResult<StencilRun> {
    let (app, sh) = build_stencil_app(cfg.clone());
    let report = dps_sim::simulate(&app, net, simcfg).map_err(|e| e.context(st_context(cfg)))?;
    finish(cfg, &sh, report).map_err(|e| e.context(st_context(cfg)))
}

/// Predicts the run against an arbitrary machine model (e.g. a
/// `dps_sim::SimFabric::with_plan` fabric with injected slowdowns and link
/// degradations, or the testbed emulator).
pub fn predict_stencil_with_fabric(
    cfg: &StencilConfig,
    fabric: &mut dyn dps_sim::Fabric,
    simcfg: &SimConfig,
) -> SimResult<StencilRun> {
    let (app, sh) = build_stencil_app(cfg.clone());
    let report = dps_sim::simulate_with_fabric(&app, fabric, simcfg)
        .map_err(|e| e.context(st_context(cfg)))?;
    finish(cfg, &sh, report).map_err(|e| e.context(st_context(cfg)))
}

/// "Measures" the run on the testbed emulator.
pub fn measure_stencil(
    cfg: &StencilConfig,
    tb: TestbedParams,
    seed: u64,
    simcfg: &SimConfig,
) -> SimResult<StencilRun> {
    let (app, sh) = build_stencil_app(cfg.clone());
    let report =
        testbed::measure(&app, tb, seed, simcfg).map_err(|e| e.context(st_context(cfg)))?;
    finish(cfg, &sh, report).map_err(|e| e.context(st_context(cfg)))
}
