//! Engine invariants that must hold regardless of calibration: work
//! conservation, monotonicity in platform resources, step-overhead and
//! flow-control relationships.

use dvns::desim::SimDuration;
use dvns::lu_app::{predict_lu, DataMode, LuConfig};
use dvns::netmodel::NetParams;
use dvns::perfmodel::{LuCost, PlatformProfile};
use dvns::sim::{SimConfig, TimingMode};

fn simcfg() -> SimConfig {
    SimConfig {
        timing: TimingMode::ChargedOnly,
        step_overhead: SimDuration::from_micros(50),
        ..SimConfig::default()
    }
}

fn lu(r: usize, nodes: u32) -> LuConfig {
    let mut cfg = LuConfig::new(1296, r, nodes);
    cfg.mode = DataMode::Ghost;
    cfg.cost = Some(LuCost::new(PlatformProfile::ultrasparc_ii_440()));
    cfg
}

#[test]
fn total_work_is_conserved_across_allocations() {
    // Under pure charges, the computation performed is a property of the
    // algorithm, not of the schedule: the same charges execute no matter
    // how many nodes share them.
    let runs: Vec<_> = [1u32, 2, 4, 8]
        .into_iter()
        .map(|nodes| {
            let mut cfg = lu(162, nodes);
            cfg.workers = 8; // fixed decomposition, varying hardware
            predict_lu(&cfg, NetParams::fast_ethernet(), &simcfg()).unwrap()
        })
        .collect();
    let works: Vec<f64> = runs
        .iter()
        .map(|r| r.report.total_cpu_work.as_secs_f64())
        .collect();
    for w in &works[1..] {
        let rel = (w - works[0]).abs() / works[0];
        assert!(rel < 1e-9, "work not conserved: {works:?}");
    }
    // ...while wall time strictly improves with nodes.
    let times: Vec<f64> = runs
        .iter()
        .map(|r| r.factorization_time.as_secs_f64())
        .collect();
    for pair in times.windows(2) {
        assert!(pair[1] < pair[0], "more nodes must be faster: {times:?}");
    }
}

#[test]
fn steps_and_transfers_are_schedule_invariant() {
    // The number of atomic steps and data transfers depends on the
    // decomposition, not on the network speed — up to the termination
    // instant: the engine stops the moment `terminate` executes, so a
    // handful of steps/transfers co-completing right then may or may not be
    // counted depending on event ordering.
    let cfg = lu(162, 4);
    let slow = predict_lu(&cfg, NetParams::fast_ethernet(), &simcfg()).unwrap();
    let fast = predict_lu(&cfg, NetParams::gigabit_ethernet(), &simcfg()).unwrap();
    let d_steps = slow.report.steps.abs_diff(fast.report.steps);
    assert!(d_steps <= 8, "step counts diverged: {d_steps}");
    let d_flows = slow
        .report
        .net
        .flows_started
        .abs_diff(fast.report.net.flows_started);
    assert!(d_flows <= 8, "transfer counts diverged: {d_flows}");
}

#[test]
fn completion_is_monotone_in_bandwidth() {
    let cfg = lu(108, 8);
    let mut last = f64::MAX;
    for mbps in [25.0, 50.0, 100.0, 400.0, 10_000.0] {
        let mut p = NetParams::fast_ethernet();
        p.up_bytes_per_sec = mbps * 1e6 / 8.0;
        p.down_bytes_per_sec = p.up_bytes_per_sec;
        let t = predict_lu(&cfg, p, &simcfg())
            .unwrap()
            .factorization_time
            .as_secs_f64();
        assert!(
            t <= last * (1.0 + 1e-9),
            "slower at {mbps} Mb/s: {t:.2}s after {last:.2}s"
        );
        last = t;
    }
}

#[test]
fn completion_is_monotone_in_latency() {
    let cfg = lu(108, 8);
    let mut last = 0.0;
    for lat_us in [0u64, 50, 200, 1000, 5000] {
        let mut p = NetParams::fast_ethernet();
        p.latency = SimDuration::from_micros(lat_us);
        let t = predict_lu(&cfg, p, &simcfg())
            .unwrap()
            .factorization_time
            .as_secs_f64();
        assert!(
            t >= last * (1.0 - 1e-9),
            "faster at {lat_us}us latency: {t:.2}s after {last:.2}s"
        );
        last = t;
    }
}

#[test]
fn substantial_step_overhead_increases_predictions() {
    // NB: *small* overhead changes can legitimately go either way — greedy
    // FIFO schedules exhibit Graham's anomalies, where lengthening a task
    // shortens the makespan. A 10 ms per-step overhead (~30% of total load
    // here) must dominate any anomaly.
    let cfg = lu(108, 8);
    let mut cheap = simcfg();
    cheap.step_overhead = SimDuration::ZERO;
    let mut costly = simcfg();
    costly.step_overhead = SimDuration::from_millis(10);
    let t0 = predict_lu(&cfg, NetParams::fast_ethernet(), &cheap)
        .unwrap()
        .factorization_time
        .as_secs_f64();
    let t1 = predict_lu(&cfg, NetParams::fast_ethernet(), &costly)
        .unwrap()
        .factorization_time
        .as_secs_f64();
    assert!(
        t1 > t0 * 1.05,
        "dispatch overhead must cost time: {t0} vs {t1}"
    );
}

#[test]
fn tighter_flow_control_never_speeds_things_up() {
    let mk = |w: Option<usize>| {
        let mut cfg = lu(108, 8);
        cfg.pipelined = true;
        cfg.flow_control = w;
        predict_lu(&cfg, NetParams::fast_ethernet(), &simcfg())
            .unwrap()
            .factorization_time
            .as_secs_f64()
    };
    let t1 = mk(Some(1));
    let t4 = mk(Some(4));
    let t16 = mk(Some(16));
    assert!(
        t1 >= t4 && t4 >= t16 * 0.8,
        "window ordering: {t1} {t4} {t16}"
    );
}
