//! End-to-end validation of the distributed LU application: running the DPS
//! flow graph through the virtual-time engine must produce exactly the same
//! factorization as the sequential blocked reference, for every flow-graph
//! variant and under thread removal.

use desim::SimDuration;
use dps_sim::{SimConfig, TimingMode};
use lu_app::{build_lu_app, measure_lu, predict_lu, DataMode, LuConfig};
use netmodel::NetParams;
use perfmodel::{LuCost, PlatformProfile};
use testbed::TestbedParams;

fn simcfg() -> SimConfig {
    SimConfig {
        timing: TimingMode::ChargedOnly,
        step_overhead: SimDuration::from_micros(5),
        ..SimConfig::default()
    }
}

fn real_cfg(n: usize, r: usize, nodes: u32) -> LuConfig {
    let mut cfg = LuConfig::new(n, r, nodes);
    cfg.mode = DataMode::Real;
    cfg.cost = Some(LuCost::new(PlatformProfile::modern_x86()));
    cfg
}

#[test]
fn basic_graph_factorizes_correctly() {
    let cfg = real_cfg(96, 24, 3);
    let run = predict_lu(&cfg, NetParams::fast_ethernet(), &simcfg()).unwrap();
    let res = run.residual.expect("real mode verifies");
    assert!(res < 1e-10, "residual {res}");
    assert!(run.factorization_time > SimDuration::ZERO);
}

#[test]
fn pipelined_graph_factorizes_correctly() {
    let mut cfg = real_cfg(96, 24, 3);
    cfg.pipelined = true;
    let run = predict_lu(&cfg, NetParams::fast_ethernet(), &simcfg()).unwrap();
    assert!(run.residual.unwrap() < 1e-10);
}

#[test]
fn flow_control_graph_factorizes_correctly() {
    let mut cfg = real_cfg(96, 24, 3);
    cfg.pipelined = true;
    cfg.flow_control = Some(3);
    let run = predict_lu(&cfg, NetParams::fast_ethernet(), &simcfg()).unwrap();
    assert!(run.residual.unwrap() < 1e-10);
}

#[test]
fn parallel_submul_graph_factorizes_correctly() {
    let mut cfg = real_cfg(96, 24, 3);
    cfg.parallel_mul = Some(12);
    let run = predict_lu(&cfg, NetParams::fast_ethernet(), &simcfg()).unwrap();
    assert!(run.residual.unwrap() < 1e-10);
}

#[test]
fn all_variants_combined_factorize_correctly() {
    let mut cfg = real_cfg(96, 24, 3);
    cfg.pipelined = true;
    cfg.flow_control = Some(4);
    cfg.parallel_mul = Some(8);
    let run = predict_lu(&cfg, NetParams::fast_ethernet(), &simcfg()).unwrap();
    assert!(run.residual.unwrap() < 1e-10);
}

#[test]
fn thread_removal_preserves_correctness() {
    // 8 workers on 4 nodes, kill 4 after iteration 1, then 2 after 2.
    let mut cfg = real_cfg(128, 16, 4);
    cfg.workers = 8;
    cfg.removal = vec![(1, 4), (2, 2)];
    let run = predict_lu(&cfg, NetParams::fast_ethernet(), &simcfg()).unwrap();
    assert!(run.residual.unwrap() < 1e-10);
    // The allocation timeline shrank twice.
    assert!(run.report.alloc_timeline.len() >= 3);
    let final_nodes = run.report.alloc_timeline.last().unwrap().1;
    let initial_nodes = run.report.alloc_timeline.first().unwrap().1;
    assert!(final_nodes < initial_nodes);
}

#[test]
fn testbed_measurement_factorizes_correctly() {
    let cfg = real_cfg(64, 16, 2);
    let run = measure_lu(&cfg, TestbedParams::sun_cluster(), 9, &simcfg()).unwrap();
    assert!(run.residual.unwrap() < 1e-10);
}

#[test]
fn more_workers_than_nodes_factorizes_correctly() {
    // The paper's "eight column blocks on four nodes".
    let mut cfg = real_cfg(128, 16, 4);
    cfg.workers = 8;
    let run = predict_lu(&cfg, NetParams::fast_ethernet(), &simcfg()).unwrap();
    assert!(run.residual.unwrap() < 1e-10);
}

#[test]
fn ghost_and_real_modes_predict_identical_times() {
    // PDEXEC claim: replacing data by ghosts must not change the predicted
    // schedule at all (charges and sizes are identical).
    let mut real = real_cfg(96, 24, 3);
    real.pipelined = true;
    let mut ghost = real.clone();
    ghost.mode = DataMode::Ghost;
    let mut alloc = real.clone();
    alloc.mode = DataMode::Alloc;

    let rr = predict_lu(&real, NetParams::fast_ethernet(), &simcfg()).unwrap();
    let rg = predict_lu(&ghost, NetParams::fast_ethernet(), &simcfg()).unwrap();
    let ra = predict_lu(&alloc, NetParams::fast_ethernet(), &simcfg()).unwrap();
    // Completion differs (Real mode appends the verification dump), but the
    // factorization itself must take identical virtual time in all modes.
    assert_eq!(rr.factorization_time, rg.factorization_time);
    assert_eq!(rr.factorization_time, ra.factorization_time);
    // ...but memory differs: ghosts hold no heap.
    assert!(rg.report.mem_peak_bytes < ra.report.mem_peak_bytes);
}

#[test]
fn iteration_marks_cover_every_iteration() {
    let mut cfg = LuConfig::new(96, 16, 3); // K = 6
    cfg.mode = DataMode::Ghost;
    cfg.cost = Some(LuCost::new(PlatformProfile::ultrasparc_ii_440()));
    let run = predict_lu(&cfg, NetParams::fast_ethernet(), &simcfg()).unwrap();
    let iters: Vec<_> = run
        .report
        .intervals
        .iter()
        .filter(|i| i.label.starts_with("iter:"))
        .collect();
    assert_eq!(iters.len(), 6);
    for i in &iters {
        let (label, eff) = (&i.label, i.efficiency());
        assert!(i.span().as_nanos() > 0, "{label} has zero span");
        assert!((0.0..=1.0).contains(&eff), "{label} efficiency {eff}");
    }
    // Later iterations are cheaper (shrinking trailing matrix).
    let first = iters.first().unwrap().span();
    let last = iters.last().unwrap().span();
    assert!(
        first > last,
        "iteration times must shrink: {first} vs {last}"
    );
}

#[test]
fn deterministic_predictions() {
    let mut cfg = LuConfig::new(192, 24, 4);
    cfg.mode = DataMode::Ghost;
    cfg.pipelined = true;
    cfg.flow_control = Some(8);
    cfg.cost = Some(LuCost::new(PlatformProfile::ultrasparc_ii_440()));
    let a = predict_lu(&cfg, NetParams::fast_ethernet(), &simcfg()).unwrap();
    let b = predict_lu(&cfg, NetParams::fast_ethernet(), &simcfg()).unwrap();
    assert_eq!(a.report.completion, b.report.completion);
    assert_eq!(a.report.steps, b.report.steps);
}

#[test]
fn native_runner_executes_the_same_application() {
    let cfg = real_cfg(64, 16, 2);
    let (app, sh) = build_lu_app(cfg.clone());
    let r = testbed::run_native(&app, std::time::Duration::from_secs(120));
    assert!(r.terminated, "native LU run did not terminate");
    let out = sh.result.lock().unwrap().take().expect("output");
    let a = linalg::Matrix::random(cfg.n, cfg.n, cfg.seed);
    let f = linalg::blocked::LuFactors {
        lu: out.lu,
        pivots: out.pivots,
    };
    assert!(linalg::lu_residual(&a, &f) < 1e-10);
}
