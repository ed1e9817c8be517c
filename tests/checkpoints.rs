//! Property tests for snapshot/fork simulation: a run paused at an
//! arbitrary point, forked, and driven to completion must produce a
//! `RunReport` byte-identical (modulo host wall time) to an uninterrupted
//! run of the same configuration. This is the guarantee the what-if
//! evaluator's fork-based scoring is built on.

use std::sync::Arc;

use dvns::desim::{SimDuration, SimTime};
use dvns::faults::FaultPlan;
use dvns::lu_app::{predict_lu, DataMode, LuCheckpoint, LuConfig};
use dvns::netmodel::NetParams;
use dvns::perfmodel::{LuCost, PlatformProfile};
use dvns::sim::{check_equivalent, RunReport, SimCheckpoint, SimConfig, SimFabric, TimingMode};
use simrng::{Rng, Xoshiro256};

fn simcfg() -> SimConfig {
    SimConfig {
        timing: TimingMode::ChargedOnly,
        step_overhead: SimDuration::from_micros(50),
        // Journals turn any fork≢fresh failure into a pinpointed
        // first-diverging-event diagnostic instead of a canonical diff.
        record_journal: true,
        ..SimConfig::default()
    }
}

/// Asserts run equivalence with the journal pinpointer: a failure names
/// the first diverging event (ticket, vtime, op, field).
#[track_caller]
fn assert_equivalent(ours: &RunReport, theirs: &RunReport, ctx: &str) {
    if let Err(msg) = check_equivalent(ours, theirs) {
        panic!("{ctx}: {msg}");
    }
}

fn random_cfg(rng: &mut Xoshiro256) -> LuConfig {
    let r = [64usize, 96, 128][rng.gen_range_u64(0, 3) as usize];
    let k = 4 + rng.gen_range_u64(0, 4) as usize;
    let nodes = 2 + rng.gen_range_u64(0, 3) as u32;
    let mut cfg = LuConfig::new(r * k, r, nodes);
    cfg.workers = nodes + rng.gen_range_u64(0, 2) as u32 * nodes;
    cfg.mode = if rng.gen_range_u64(0, 2) == 0 {
        DataMode::Ghost
    } else {
        DataMode::Alloc
    };
    cfg.cost = Some(LuCost::new(PlatformProfile::ultrasparc_ii_440()));
    cfg.validate().expect("generated config is valid");
    cfg
}

/// Random configurations, random checkpoint times: both the fork and the
/// paused original must finish byte-identical to a fresh full run.
#[test]
fn fork_at_random_times_matches_fresh_run() {
    let mut rng = Xoshiro256::seed_from_u64(0x5EED_C0DE);
    let net = NetParams::fast_ethernet();
    for _ in 0..4 {
        let cfg = random_cfg(&mut rng);
        let fresh = predict_lu(&cfg, net, &simcfg()).unwrap();
        let span = fresh.report.completion.as_nanos();
        for _ in 0..2 {
            let t = SimTime(rng.gen_range_u64(1, span));
            let mut base = LuCheckpoint::start(&cfg, net, &simcfg()).unwrap();
            base.advance_until(t).unwrap();
            let forked = base.fork().expect("prediction modes fork");
            // Finish the fork before the original: divergent branch order
            // must not matter.
            let a = forked.finish().unwrap();
            let b = base.finish().unwrap();
            let ctx = format!(
                "n={} r={} nodes={} workers={} mode={:?} t={}ns",
                cfg.n, cfg.r, cfg.nodes, cfg.workers, cfg.mode, t.0
            );
            assert_equivalent(&a.report, &fresh.report, &format!("fork ({ctx})"));
            assert_equivalent(&b.report, &fresh.report, &format!("original ({ctx})"));
            assert_eq!(a.factorization_time, fresh.factorization_time, "{ctx}");
        }
    }
}

/// Chained forking: one shared prefix advanced barrier to barrier, each
/// branch rewriting the coordinator's removal plan, must reproduce fresh
/// runs of the corresponding removal configurations exactly.
#[test]
fn removal_rewritten_forks_match_fresh_removal_runs() {
    let mut base_cfg = LuConfig::new(768, 96, 8);
    base_cfg.mode = DataMode::Ghost;
    base_cfg.cost = Some(LuCost::new(PlatformProfile::ultrasparc_ii_440()));
    let net = NetParams::fast_ethernet();

    // Ascending first-removal iterations so one prefix serves all plans.
    let plans: Vec<Vec<(usize, u32)>> = vec![
        vec![(2, 2)],
        vec![(2, 1), (5, 2)],
        vec![(3, 4)],
        vec![(5, 7)],
    ];

    let mut base = LuCheckpoint::start(&base_cfg, net, &simcfg()).unwrap();
    for plan in &plans {
        let after = plan[0].0;
        assert!(
            base.pause_before_barrier(after).unwrap(),
            "run ended before barrier {after}"
        );
        let mut branch = base.fork().expect("ghost mode forks");
        branch.set_removal_plan(plan.clone());
        let run = branch.finish().unwrap();

        let mut fresh_cfg = base_cfg.clone();
        fresh_cfg.removal = plan.clone();
        fresh_cfg.validate().expect("removal plan is valid");
        let fresh = predict_lu(&fresh_cfg, net, &simcfg()).unwrap();
        assert_equivalent(&run.report, &fresh.report, &format!("plan {plan:?}"));
    }

    // The shared prefix itself, driven to the end, is the no-removal run.
    let run = base.finish().unwrap();
    let fresh = predict_lu(&base_cfg, net, &simcfg()).unwrap();
    assert_equivalent(&run.report, &fresh.report, "no-removal base");
}

/// The same fork≡fresh property for the stencil application, random
/// configurations and checkpoint times.
#[test]
fn stencil_forks_match_fresh_runs() {
    use dvns::stencil_app::{build_stencil_app, predict_stencil, StencilConfig};
    let mut rng = Xoshiro256::seed_from_u64(0xBAD5_EED5);
    let net = NetParams::fast_ethernet();
    for _ in 0..3 {
        let mut cfg = StencilConfig::new(
            256 * (1 + rng.gen_range_u64(0, 2) as usize),
            3 + rng.gen_range_u64(0, 4) as usize,
            2u32 << rng.gen_range_u64(0, 3),
        );
        cfg.synchronized = rng.gen_range_u64(0, 2) == 0;
        cfg.validate().expect("generated config is valid");
        let fresh = predict_stencil(&cfg, net, &simcfg()).unwrap();
        let t = SimTime(rng.gen_range_u64(1, fresh.report.completion.as_nanos()));
        let app = Arc::new(build_stencil_app(cfg.clone()).0);
        let fabric = SimFabric::with_plan(net, &FaultPlan::none()).unwrap();
        let mut base = SimCheckpoint::new(app, fabric, &simcfg());
        base.advance_until(t).unwrap();
        let forked = base.fork().expect("ghost mode forks");
        let a = forked.finish().unwrap();
        let b = base.finish().unwrap();
        let ctx = format!(
            "n={} iters={} nodes={} sync={} t={}ns",
            cfg.n, cfg.iters, cfg.nodes, cfg.synchronized, t.0
        );
        assert_equivalent(&a, &fresh.report, &format!("fork ({ctx})"));
        assert_equivalent(&b, &fresh.report, &format!("original ({ctx})"));
    }
}

/// A fault plan travels with its fabric into every fork: a faulted LU run
/// checkpointed at random instants, one of them inside a slowdown window,
/// forks into copies that finish equivalent to an uninterrupted faulted run.
#[test]
fn faulted_forks_match_fresh_faulted_run() {
    use dvns::faults::FaultGenConfig;
    use dvns::lu_app::build_lu_app;
    use dvns::sim::{simulate_with_fabric, SimCheckpoint, SimFabric};
    let net = NetParams::fast_ethernet();
    let mut cfg = LuConfig::new(576, 96, 3);
    cfg.mode = DataMode::Ghost;
    cfg.cost = Some(LuCost::new(PlatformProfile::ultrasparc_ii_440()));
    cfg.validate().expect("config is valid");
    let quiet = predict_lu(&cfg, net, &simcfg()).unwrap().report.completion;

    let mut gen = FaultGenConfig::quiet(cfg.nodes, SimDuration::from_nanos(quiet.as_nanos()));
    gen.slowdowns = 3;
    gen.degrades = 2;
    let plan = gen.generate(0xF0_4C);
    let fabric = || SimFabric::with_plan(net, &plan).expect("generated plan");
    let app = Arc::new(build_lu_app(cfg.clone()).0);
    let fresh = simulate_with_fabric(&app, &mut fabric(), &simcfg()).unwrap();
    assert_ne!(fresh.completion, quiet, "the plan moves the run");
    // The plan's rate windows open the stream (RateWindow entries at t=0).
    let journal = fresh.journal.as_ref().expect("journal recorded");
    assert!(journal
        .entries
        .iter()
        .take_while(|e| e.vtime == SimTime::ZERO)
        .any(|e| e.event.kind_name() == "RateWindow"));

    let slow = plan.cpu_windows()[0];
    let inside = SimTime(slow.from.0 + (slow.to.0 - slow.from.0) / 2);
    assert!(
        inside < fresh.completion,
        "window at {inside} falls in the run"
    );
    let mut rng = Xoshiro256::seed_from_u64(0xFA_17ED);
    let span = fresh.completion.as_nanos();
    let mut random = || SimTime(rng.gen_range_u64(1, span));
    for t in [inside, random(), random()] {
        let mut base = SimCheckpoint::new(Arc::clone(&app), fabric(), &simcfg());
        assert!(base.advance_until(t).unwrap(), "run still live at {t}");
        let forked = base.fork().expect("ghost mode forks");
        assert_equivalent(&forked.finish().unwrap(), &fresh, &format!("fork at {t}"));
        assert_equivalent(&base.finish().unwrap(), &fresh, &format!("original at {t}"));
    }
}

/// Real mode must refuse to fork (its branches would share result
/// channels) rather than silently corrupt output.
#[test]
fn real_mode_refuses_to_fork() {
    let mut cfg = LuConfig::new(256, 64, 2);
    cfg.mode = DataMode::Real;
    let mut ck = LuCheckpoint::start(&cfg, NetParams::fast_ethernet(), &simcfg()).unwrap();
    ck.advance_until(SimTime(u64::MAX / 2)).unwrap();
    match ck.fork() {
        Err(e) => assert!(e.is_fork_refused(), "unexpected error: {e}"),
        Ok(_) => panic!("Real mode forks must be refused"),
    }
}
