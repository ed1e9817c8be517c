//! Cross-engine integration tests: the simulator, the testbed emulator and
//! the native runner all execute the *same* application value, and agree
//! where they must.

use std::hash::Hasher;
use std::time::Duration;

use dvns::desim::SimDuration;
use dvns::fxhash::FxHasher;
use dvns::lu_app::{build_lu_app, measure_lu, predict_lu, DataMode, LuConfig};
use dvns::netmodel::NetParams;
use dvns::perfmodel::{LuCost, PlatformProfile};
use dvns::sim::{RunReport, SimConfig, TimingMode};
use dvns::stencil_app::{predict_stencil, StencilConfig};
use dvns::testbed::TestbedParams;

fn simcfg() -> SimConfig {
    SimConfig {
        timing: TimingMode::ChargedOnly,
        step_overhead: SimDuration::from_micros(50),
        ..SimConfig::default()
    }
}

fn small_lu() -> LuConfig {
    let mut cfg = LuConfig::new(768, 96, 4);
    cfg.mode = DataMode::Ghost;
    cfg.cost = Some(LuCost::new(PlatformProfile::ultrasparc_ii_440()));
    cfg
}

#[test]
fn calm_testbed_reproduces_simulator_exactly() {
    // With the testbed's true parameters equal to the simulator's measured
    // ones and every noise source disabled, the two engines are the same
    // machine: predictions must agree to the nanosecond.
    let cfg = small_lu();
    let net = NetParams::fast_ethernet();
    let predicted = predict_lu(&cfg, net, &simcfg()).unwrap();
    let calm = measure_lu(&cfg, TestbedParams::calm(net), 7, &simcfg()).unwrap();
    assert_eq!(
        predicted.report.completion, calm.report.completion,
        "calm testbed must equal the simulator exactly"
    );
    assert_eq!(predicted.report.steps, calm.report.steps);
}

#[test]
fn invalid_testbed_parameters_are_a_typed_error() {
    // Not a panic inside `Network::new`: `testbed::measure` checks first.
    let mut tb = TestbedParams::calm(NetParams::fast_ethernet());
    tb.true_net.up_bytes_per_sec = 0.0;
    let err = measure_lu(&small_lu(), tb, 7, &simcfg())
        .err()
        .expect("rejected");
    assert!(
        err.to_string().contains("bandwidth must be positive"),
        "{err}"
    );
}

#[test]
fn noisy_testbed_differs_but_stays_close() {
    let cfg = small_lu();
    let predicted = predict_lu(&cfg, NetParams::fast_ethernet(), &simcfg()).unwrap();
    let measured = measure_lu(&cfg, TestbedParams::sun_cluster(), 3, &simcfg()).unwrap();
    assert_ne!(predicted.report.completion, measured.report.completion);
    let p = predicted.factorization_time.as_secs_f64();
    let m = measured.factorization_time.as_secs_f64();
    assert!(((p - m) / m).abs() < 0.15, "p={p:.2}s m={m:.2}s");
}

#[test]
fn testbed_seeds_vary_measurements() {
    let cfg = small_lu();
    let a = measure_lu(&cfg, TestbedParams::sun_cluster(), 1, &simcfg()).unwrap();
    let b = measure_lu(&cfg, TestbedParams::sun_cluster(), 2, &simcfg()).unwrap();
    let c = measure_lu(&cfg, TestbedParams::sun_cluster(), 1, &simcfg()).unwrap();
    assert_ne!(
        a.report.completion, b.report.completion,
        "seeds must differ"
    );
    assert_eq!(
        a.report.completion, c.report.completion,
        "same seed, same run"
    );
}

#[test]
fn all_variants_run_on_both_engines() {
    for (p, fc, pm) in [
        (false, None, None),
        (true, None, None),
        (false, None, Some(48)),
        (true, Some(6), None),
        (true, Some(6), Some(48)),
    ] {
        let mut cfg = small_lu();
        cfg.pipelined = p;
        cfg.flow_control = fc;
        cfg.parallel_mul = pm;
        let pr = predict_lu(&cfg, NetParams::fast_ethernet(), &simcfg()).unwrap();
        let me = measure_lu(&cfg, TestbedParams::sun_cluster(), 5, &simcfg()).unwrap();
        assert!(
            pr.report.terminated && me.report.terminated,
            "{:?}",
            (p, fc, pm)
        );
    }
}

#[test]
fn native_runner_agrees_with_simulator_on_results() {
    // Real data, every variant feature at once, executed natively (true OS
    // concurrency) and in virtual time: identical factorizations.
    let mut cfg = LuConfig::new(96, 16, 3);
    cfg.workers = 6;
    cfg.mode = DataMode::Real;
    cfg.pipelined = true;
    cfg.flow_control = Some(4);
    cfg.cost = Some(LuCost::new(PlatformProfile::modern_x86()));

    let sim_run = predict_lu(&cfg, NetParams::fast_ethernet(), &simcfg()).unwrap();
    let sim_res = sim_run.residual.expect("verified");

    let (app, sh) = build_lu_app(cfg.clone());
    let native = dvns::testbed::run_native(&app, Duration::from_secs(120));
    assert!(native.terminated);
    let out = sh.result.lock().unwrap().take().expect("output");
    let a = dvns::linalg::Matrix::random(cfg.n, cfg.n, cfg.seed);
    let f = dvns::linalg::blocked::LuFactors {
        lu: out.lu,
        pivots: out.pivots,
    };
    let native_res = dvns::linalg::lu_residual(&a, &f);
    assert!(sim_res < 1e-10 && native_res < 1e-10);
}

#[test]
fn simulator_memory_modes_ordered() {
    // Table 1 relation: Real/Alloc peaks ≫ Ghost peak.
    let mut cfg = small_lu();
    cfg.mode = DataMode::Alloc;
    let alloc = predict_lu(&cfg, NetParams::fast_ethernet(), &simcfg()).unwrap();
    cfg.mode = DataMode::Ghost;
    let ghost = predict_lu(&cfg, NetParams::fast_ethernet(), &simcfg()).unwrap();
    assert!(
        alloc.report.mem_peak_bytes > 4 * ghost.report.mem_peak_bytes,
        "alloc {} vs ghost {}",
        alloc.report.mem_peak_bytes,
        ghost.report.mem_peak_bytes
    );
    // The ghost run still knows how many bytes crossed the network.
    assert_eq!(
        alloc.report.net.payload_bytes,
        ghost.report.net.payload_bytes
    );
}

#[test]
fn max_min_sharing_ablation_changes_little_here() {
    // The paper's equal-share assumption vs true max-min fairness: for the
    // LU traffic pattern the difference is small — evidence the simple
    // model suffices (DESIGN.md ablation).
    let cfg = small_lu();
    let net = NetParams::fast_ethernet();
    let eq = predict_lu(&cfg, net, &simcfg()).unwrap();
    let mut fabric = dvns::sim::SimFabric::with_sharing(net, dvns::netmodel::Sharing::MaxMin);
    let (app, _sh) = build_lu_app(cfg.clone());
    let mm = dvns::sim::simulate_with_fabric(&app, &mut fabric, &simcfg()).unwrap();
    let a = eq.report.completion.as_secs_f64();
    let b = mm.completion.as_secs_f64();
    assert!(
        ((a - b) / a).abs() < 0.05,
        "equal-share {a:.2}s vs max-min {b:.2}s"
    );
}

#[test]
fn straggler_node_slows_the_whole_factorization() {
    // Heterogeneous cluster: node 2's links run at a quarter speed. Both
    // engines see it; the LU (whose multiplications round-robin over every
    // node) slows down, and the simulator still tracks the testbed.
    let cfg = small_lu();
    let net = NetParams::fast_ethernet();
    let cripple = |fabric: &mut dvns::sim::SimFabric| {
        fabric.set_node_capacity(
            dvns::netmodel::NodeId(2),
            net.up_bytes_per_sec / 4.0,
            net.down_bytes_per_sec / 4.0,
        );
    };

    let (app, _sh) = build_lu_app(cfg.clone());
    let mut uniform = dvns::sim::SimFabric::new(net);
    let base = dvns::sim::simulate_with_fabric(&app, &mut uniform, &simcfg()).unwrap();

    let (app2, _sh2) = build_lu_app(cfg.clone());
    let mut slow = dvns::sim::SimFabric::new(net);
    cripple(&mut slow);
    let degraded = dvns::sim::simulate_with_fabric(&app2, &mut slow, &simcfg()).unwrap();

    assert!(
        degraded.completion > base.completion,
        "a straggler must slow the run: {} vs {}",
        degraded.completion,
        base.completion
    );
    let ratio = degraded.completion.as_secs_f64() / base.completion.as_secs_f64();
    assert!(
        ratio < 4.0,
        "one slow link must not quarter the whole run ({ratio:.2}x)"
    );
}

/// FxHash of the canonical report followed by the encoded journal. Journal
/// metadata describes how a run was configured, not what the engine did,
/// so it stays out of the digest.
fn output_digest(mut report: RunReport) -> u64 {
    let mut journal = report.journal.take().expect("journal recorded");
    journal.meta.clear();
    let mut h = FxHasher::default();
    h.write(report.canonical_string().as_bytes());
    h.write(&journal.encode());
    h.finish()
}

#[test]
fn engine_output_is_pinned() {
    // Every other equivalence test compares two runs of the same build;
    // these digests pin the engine's absolute output (report and committed
    // event stream) at the paper's matrix order, so a change that moves
    // both sides of such a comparison together still fails here. Update
    // them only with a change that is meant to alter simulated behaviour.
    let sc = SimConfig {
        record_journal: true,
        ..simcfg()
    };
    let net = NetParams::fast_ethernet();
    let lu = |edit: &dyn Fn(&mut LuConfig)| {
        let mut cfg = LuConfig::new(2592, 216, 8);
        cfg.cost = Some(LuCost::new(PlatformProfile::ultrasparc_ii_440()));
        edit(&mut cfg);
        cfg.validate().unwrap();
        output_digest(predict_lu(&cfg, net, &sc).unwrap().report)
    };
    let got = [
        ("lu basic", lu(&|_| {})),
        (
            "lu pipelined fc=8",
            lu(&|c| {
                c.pipelined = true;
                c.flow_control = Some(8);
            }),
        ),
        ("lu removal (6,4)", lu(&|c| c.removal = vec![(6, 4)])),
        (
            "stencil 512x8 on 8",
            output_digest(
                predict_stencil(&StencilConfig::new(512, 8, 8), net, &sc)
                    .unwrap()
                    .report,
            ),
        ),
    ]
    .map(|(name, digest)| format!("{name}: {digest:016x}"));
    let pinned = [
        "lu basic: f811831ace5d94d0",
        "lu pipelined fc=8: 7be7948108ca2b40",
        "lu removal (6,4): 7302834874f3a134",
        "stencil 512x8 on 8: 1f7221a232908e12",
    ];
    assert_eq!(got, pinned);
}

#[test]
fn max_min_and_testbed_output_is_pinned() {
    // The quiet pins above all run `SimFabric` under equal split. These
    // pin the two other machine models the engine drives at paper size:
    // max-min sharing, which re-rates every flow from scratch, and the
    // stochastic testbed, whose network carries noise-inflated transfers.
    use dvns::lu_app::predict_lu_with_fabric;
    use dvns::netmodel::Sharing;
    use dvns::sim::{Fabric, SimFabric};
    use dvns::testbed::TestbedFabric;
    let sc = SimConfig {
        record_journal: true,
        ..simcfg()
    };
    let net = NetParams::fast_ethernet();
    let mut cfg = LuConfig::new(2592, 216, 8);
    cfg.cost = Some(LuCost::new(PlatformProfile::ultrasparc_ii_440()));
    cfg.validate().unwrap();
    let mut max_min = SimFabric::with_sharing(net, Sharing::MaxMin);
    let mut testbed = TestbedFabric::new(TestbedParams::sun_cluster(), 0);
    let got = [
        ("lu basic, max-min", &mut max_min as &mut dyn Fabric),
        ("lu basic, testbed seed 0", &mut testbed),
    ]
    .map(|(name, fabric)| {
        let run = predict_lu_with_fabric(&cfg, fabric, &sc).unwrap();
        format!("{name}: {:016x}", output_digest(run.report))
    });
    let pinned = [
        "lu basic, max-min: 2b3c58a66d5f1956",
        "lu basic, testbed seed 0: f8ee7920dbca26c9",
    ];
    assert_eq!(got, pinned);
}

#[test]
fn faulted_engine_output_is_pinned() {
    // The quiet pins above never cross a capacity or slowdown window. These
    // do: LU under `SimFabric::with_plan`, with link windows that start at t = 0,
    // overlap on one node and run alongside one on another node, two
    // slowdowns that overlap in time, and a 100-ms window; then six
    // generated plans on the paper-sized run.
    use dvns::desim::SimTime;
    use dvns::faults::{CheckpointSpec, FaultEvent, FaultGenConfig, FaultKind, FaultPlan};
    use dvns::sim::{simulate_with_fabric, SimFabric};
    let sc = SimConfig {
        record_journal: true,
        ..simcfg()
    };
    let run = |mut cfg: LuConfig, plan: &FaultPlan| {
        cfg.cost = Some(LuCost::new(PlatformProfile::ultrasparc_ii_440()));
        cfg.validate().unwrap();
        let (app, _sh) = build_lu_app(cfg);
        let mut fabric =
            SimFabric::with_plan(NetParams::fast_ethernet(), plan).expect("valid plan");
        output_digest(simulate_with_fabric(&app, &mut fabric, &sc).unwrap())
    };
    let ms = SimDuration::from_millis;
    let event = |at_ms: u64, node, kind| FaultEvent {
        at: SimTime::ZERO + ms(at_ms),
        node,
        kind,
    };
    let degrade = |factor, len_ms| FaultKind::LinkDegrade {
        factor,
        window: ms(len_ms),
    };
    let slowdown = |factor, len_ms| FaultKind::NodeSlowdown {
        factor,
        window: ms(len_ms),
    };
    let by_hand = FaultPlan::new(
        vec![
            event(0, 1, degrade(0.5, 4_500)),
            event(1_800, 1, degrade(0.25, 3_600)),
            event(2_700, 2, degrade(0.6, 6_000)),
            event(1_200, 0, slowdown(0.5, 4_800)),
            event(3_000, 3, slowdown(0.7, 7_500)),
            event(6_600, 0, degrade(0.3, 100)),
        ],
        CheckpointSpec::none(),
    );
    let small = |edit: &dyn Fn(&mut LuConfig)| {
        let mut cfg = LuConfig::new(1296, 108, 4);
        edit(&mut cfg);
        run(cfg, &by_hand)
    };
    let gen = FaultGenConfig {
        slowdowns: 3,
        degrades: 4,
        ..FaultGenConfig::quiet(8, SimDuration::from_secs(20))
    };
    let mut got = vec![
        format!("by hand, basic: {:016x}", small(&|_| {})),
        format!(
            "by hand, pipelined fc=6: {:016x}",
            small(&|c| {
                c.pipelined = true;
                c.flow_control = Some(6);
            })
        ),
    ];
    for seed in 0..6 {
        let digest = run(LuConfig::new(2592, 216, 8), &gen.generate(seed));
        got.push(format!("generated, seed {seed}: {digest:016x}"));
    }
    let pinned = [
        "by hand, basic: efd823d41e75a30a",
        "by hand, pipelined fc=6: 14cbbda794783647",
        "generated, seed 0: 0264e1bc9f408348",
        "generated, seed 1: cf65b6b90782544c",
        "generated, seed 2: 34c25b859b2e16d1",
        "generated, seed 3: 9c7f592c296f6a9c",
        "generated, seed 4: 2e85f09f70ffbc7f",
        "generated, seed 5: 8eac1155fe5382b3",
    ];
    assert_eq!(got, pinned);
}

#[test]
fn service_output_is_pinned() {
    // The same contract for the cluster service: the `server-scale` and
    // `server-whatif` smoke configurations at two shards, quiet and under
    // the seeded fault plan, pinned by absolute output (canonical report
    // plus decision-journal bytes) before anyone restructures the engine.
    // Shard-count invariance is asserted elsewhere, so one count suffices.
    use dvns::cluster_svc::{ClusterService, JobSpec, ServeOptions, ServiceConfig};
    use dvns::faults::FaultPlan;
    use dvns::workload::scale::WHATIF_SMOKE_BOXED;
    use dvns::workload::{
        server_scale_config, server_scale_load, server_scale_plan, server_whatif_config,
        server_whatif_load, DEFAULT_SEED, SCALE_SMOKE_JOBS, WHATIF_SMOKE_JOBS,
    };
    const SHARDS: u32 = 2;
    let opts = ServeOptions {
        journal: true,
        ..ServeOptions::default()
    };
    let digest = |cfg: ServiceConfig, load: Vec<JobSpec>, jobs: u64, faulted: bool| {
        let plan = if faulted {
            server_scale_plan(jobs, DEFAULT_SEED)
        } else {
            FaultPlan::none()
        };
        let out = ClusterService::new(cfg)
            .unwrap()
            .serve(load, &plan, &opts)
            .unwrap();
        let mut h = FxHasher::default();
        h.write(out.report.canonical_string().as_bytes());
        h.write(&out.journal.expect("journal requested").encode());
        h.finish()
    };
    let scale = |faulted| {
        let load = server_scale_load(SCALE_SMOKE_JOBS, DEFAULT_SEED).collect();
        digest(server_scale_config(SHARDS), load, SCALE_SMOKE_JOBS, faulted)
    };
    let whatif = |faulted| {
        let load = server_whatif_load(WHATIF_SMOKE_JOBS, WHATIF_SMOKE_BOXED, DEFAULT_SEED);
        digest(
            server_whatif_config(SHARDS),
            load,
            WHATIF_SMOKE_JOBS,
            faulted,
        )
    };
    let got = [
        ("server-scale quiet", scale(false)),
        ("server-scale faulted", scale(true)),
        ("server-whatif quiet", whatif(false)),
        ("server-whatif faulted", whatif(true)),
    ]
    .map(|(name, digest)| format!("{name}: {digest:016x}"));
    let pinned = [
        "server-scale quiet: 4a67dba02b6cd51a",
        "server-scale faulted: 29674f016134725b",
        "server-whatif quiet: 62e3cd2899d29f91",
        "server-whatif faulted: 84289b278eecb5e3",
    ];
    assert_eq!(got, pinned);
}

#[test]
fn service_stage_order_is_pinned() {
    // The pins above serve streams without `cancel_at`, and only under
    // elastic recovery or what-if. This serve puts `CancelJob` global
    // events on the same instants as phase ends and arrivals, on pending,
    // running and limbo jobs, over 3 cells × 4 nodes and three tenants
    // (one with an inflight quota, one with a pending bound), under rigid,
    // malleable and elastic recovery, quiet and under a seeded fault plan.
    // It pins the per-instant stage order: global events, then arrivals,
    // then phase ends in cell order.
    use dvns::cluster_svc::SchedulePolicy;
    use dvns::cluster_svc::{
        decision, AnalyticJob, ClusterService, JobSpec, ServeOptions, ServiceConfig, SyntheticLoad,
        TenantSpec, NO_CELL,
    };
    use dvns::desim::{Journal, JournalEvent, SimTime};
    use dvns::faults::{CheckpointSpec, FaultGenConfig, FaultPlan};

    const JOBS: u64 = 240;
    let gap = SimDuration::from_millis(150);
    let cfg = |policy| {
        ServiceConfig::new(4, 3, 1, policy)
            .with_tenant(TenantSpec::new("gold", 3).with_max_inflight(3))
            .with_tenant(TenantSpec::new("silver", 2).with_max_pending(4))
            .with_tenant(TenantSpec::new("bronze", 1))
    };
    let policies = [
        ("rigid", SchedulePolicy::Rigid),
        (
            "malleable",
            SchedulePolicy::Malleable {
                min_efficiency: 0.5,
            },
        ),
        (
            "elastic",
            SchedulePolicy::ElasticRecovery {
                min_efficiency: 0.5,
                base_backoff: SimDuration::from_secs(1),
                max_backoff: SimDuration::from_secs(8),
            },
        ),
    ];
    let faulted = FaultGenConfig {
        crashes: 2,
        preempts: 4,
        slowdowns: 2,
        degrades: 1,
        checkpoint: CheckpointSpec::every(
            2,
            SimDuration::from_millis(20),
            SimDuration::from_millis(50),
        ),
        ..FaultGenConfig::quiet(12, gap * JOBS)
    }
    .generate(3);
    // Job ids are stream positions. Jobs 0 and 1 start at t = 0 on an idle
    // service and are serial (p = 0), so their iterations end exactly at
    // 0.5 s; job 1 is cancelled at that instant. Synthetic jobs carry
    // cancels shortly after arrival, at a later job's arrival instant, and
    // long after they finished. `limbo` moves one job's cancel.
    let stream = |limbo: Option<(u64, SimTime)>| {
        let serial = AnalyticJob {
            work: SimDuration::from_secs(1),
            parallel_first: 0.0,
            parallel_last: 0.0,
            iterations: 2,
        };
        let mut specs = vec![
            JobSpec::analytic(0, SimTime::ZERO, 2, serial),
            JobSpec::analytic(1, SimTime::ZERO, 2, serial)
                .with_cancel_at(SimTime::ZERO + SimDuration::from_millis(500)),
        ];
        let synth: Vec<JobSpec> =
            SyntheticLoad::new(JOBS, 3, 4, gap, SimDuration::from_secs(2), 31).collect();
        for (i, spec) in synth.iter().enumerate() {
            let cancel = match i % 8 {
                3 => Some(spec.arrival + SimDuration::from_millis(100)),
                6 => synth.get(i + 3).map(|later| later.arrival),
                _ if i % 19 == 11 => Some(spec.arrival + SimDuration::from_secs(60)),
                _ => None,
            };
            specs.push(match cancel {
                Some(at) => spec.clone().with_cancel_at(at),
                None => spec.clone(),
            });
        }
        if let Some((id, at)) = limbo {
            specs[id as usize].cancel_at = Some(at);
        }
        specs
    };
    let opts = ServeOptions {
        journal: true,
        ..ServeOptions::default()
    };
    let serve = |policy, plan: &FaultPlan, limbo| {
        let out = ClusterService::new(cfg(policy))
            .unwrap()
            .serve(stream(limbo), plan, &opts)
            .unwrap();
        let journal = out.journal.expect("journal requested");
        let mut h = FxHasher::default();
        h.write(out.report.canonical_string().as_bytes());
        h.write(&journal.encode());
        (h.finish(), journal)
    };
    let steps = |j: &Journal| -> Vec<(SimTime, u32, u64, u32)> {
        j.entries
            .iter()
            .filter_map(|e| match e.event {
                JournalEvent::Step { job, op, node, .. } => Some((e.vtime, op, job, node)),
                _ => None,
            })
            .collect()
    };
    let (mut got, mut running, mut queued, mut at_arrival) = (Vec::new(), 0, 0, 0);
    for (name, policy) in policies {
        for (fault_name, plan) in [("quiet", FaultPlan::none()), ("faulted", faulted.clone())] {
            let (mut digest, mut journal) = serve(policy, &plan, None);
            if policy.backoff().is_some() && fault_name == "faulted" {
                // Cancel the first interrupted job 1 ns into its backoff,
                // which moves nothing before that instant.
                let (t, _, id, _) = *steps(&journal)
                    .iter()
                    .find(|s| s.1 == decision::REQUEUE)
                    .expect("the fault plan interrupts a job");
                let limbo = (id, t + SimDuration(1));
                (digest, journal) = serve(policy, &plan, Some(limbo));
                let cancels: Vec<_> = steps(&journal)
                    .into_iter()
                    .filter(|s| s.1 == decision::CANCEL && s.2 == id)
                    .collect();
                assert_eq!(cancels, [(limbo.1, decision::CANCEL, id, NO_CELL)]);
            }
            let s = steps(&journal);
            let half_second = SimTime::ZERO + SimDuration::from_millis(500);
            assert!(
                s.iter().any(|&(t, op, id, node)| {
                    (t, op, id) == (half_second, decision::CANCEL, 1) && node != NO_CELL
                }),
                "{name} {fault_name}: job 1 is cancelled running, at its phase end"
            );
            for &(t, op, id, node) in &s {
                if op != decision::CANCEL {
                    continue;
                }
                if node == NO_CELL {
                    queued += 1;
                } else {
                    running += 1;
                }
                let arrival = |&(u, o, other, _): &(SimTime, u32, u64, u32)| {
                    u == t && other != id && (o == decision::ADMIT || o == decision::REJECT)
                };
                at_arrival += usize::from(s.iter().any(arrival));
            }
            got.push(format!("{name} {fault_name}: {digest:016x}"));
        }
    }
    // 219 running, 120 queued, 152 at an arrival instant when pinned.
    assert!(running >= 100 && queued >= 60 && at_arrival >= 60);
    let pinned = [
        "rigid quiet: f7c0b955960158fa",
        "rigid faulted: e50d436c76f64a10",
        "malleable quiet: 0710faac0913483b",
        "malleable faulted: 446576a967c30cf8",
        "elastic quiet: c22a22319b24097c",
        "elastic faulted: 7ad257b5fcc2f85f",
    ];
    assert_eq!(got, pinned);
}

#[test]
fn one_cell_service_schedule_is_pinned() {
    // The batch experiments run on the service as one cell, one tenant, no
    // quotas. This digest of every (seed, policy, job, completion instant)
    // was taken from the former batch engine, which the service matched on
    // these quiet runs, so the one-cell schedule stays pinned to it.
    use dvns::cluster_svc::SchedulePolicy;
    use dvns::cluster_svc::{completions, random_jobs, ClusterService, ServeOptions};
    use dvns::faults::FaultPlan;
    use dvns::workload::one_cell_config;

    const NODES: u32 = 8;
    const JOBS: usize = 16;
    let policies = [
        SchedulePolicy::Rigid,
        SchedulePolicy::Malleable {
            min_efficiency: 0.5,
        },
        SchedulePolicy::ElasticRecovery {
            min_efficiency: 0.5,
            base_backoff: SimDuration::from_secs(2),
            max_backoff: SimDuration::from_secs(60),
        },
    ];
    let opts = ServeOptions {
        journal: true,
        ..ServeOptions::default()
    };
    let mut h = FxHasher::default();
    for seed in 1000..1008u64 {
        for (p, policy) in policies.into_iter().enumerate() {
            let out = ClusterService::new(one_cell_config(NODES, policy))
                .unwrap()
                .serve(random_jobs(JOBS, NODES, seed), &FaultPlan::none(), &opts)
                .unwrap();
            let mut done: Vec<_> = completions(out.journal.as_ref().unwrap()).collect();
            done.sort_unstable_by_key(|&(job, _)| job);
            assert_eq!(done.len(), JOBS, "seed {seed}, {policy:?}");
            for (job, at) in done {
                for v in [seed, p as u64, job, at.as_nanos()] {
                    h.write_u64(v);
                }
            }
        }
    }
    assert_eq!(format!("{:016x}", h.finish()), "738a7d72abc2e45f");
}
