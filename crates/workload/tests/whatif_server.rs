//! Determinism property tests for the fork-based what-if policy: the
//! decision journal (every placement, every candidate score, every
//! committed winner) and the canonical report must be identical across
//! shard counts, quiet and under a seeded fault plan
//! (`cluster_svc::check_equivalent`).
//!
//! The streams mix analytic synthetic jobs with simulator-backed LU jobs,
//! so the compare covers the fork-scoring path, the profile-memo path and
//! the analytic path at once.

use std::sync::Arc;

use cluster::Workload;
use cluster_svc::{
    check_equivalent, BreakerSpec, ClusterService, JobSpec, ServeOptions, ServiceOutcome,
};
use desim::{SimDuration, SimTime};
use faults::FaultPlan;
use workload::{server_scale_load, server_scale_plan, server_whatif_config, LuWorkload, SimEnv};

const JOBS: u64 = 300;
const BOXED: u64 = 2;
const SEED: u64 = 7;

/// A small mixed stream: analytic jobs plus boxed simulator-backed LU jobs.
fn mixed_load() -> Vec<JobSpec> {
    let env = SimEnv::paper();
    let mut cfg = env.lu_sized(324, 81, 4);
    cfg.workers = 4;
    let lu: Arc<dyn Workload> = Arc::new(LuWorkload::new(cfg, env.net, env.simcfg));
    let mut specs: Vec<JobSpec> = server_scale_load(JOBS, SEED).collect();
    let horizon = specs.last().expect("non-empty stream").arrival.as_nanos();
    for i in 0..BOXED {
        let arrival = SimTime(horizon * (i + 1) / (BOXED + 1));
        specs.push(JobSpec::boxed(0, arrival, 4, lu.clone()));
    }
    specs.sort_by_key(|s| s.arrival);
    specs
}

fn run(shards: u32, faulted: bool) -> ServiceOutcome {
    let svc = ClusterService::new(server_whatif_config(shards)).expect("valid config");
    let plan = if faulted {
        server_scale_plan(JOBS, SEED)
    } else {
        FaultPlan::none()
    };
    let opts = ServeOptions {
        journal: true,
        ..ServeOptions::default()
    };
    svc.serve(mixed_load(), &plan, &opts)
        .expect("what-if serve")
}

#[test]
fn quiet_decisions_are_invariant_across_shards() {
    let reference = run(1, false);
    let r = &reference.report;
    assert!(
        r.whatif.decisions > 0,
        "the byte-compare must not be vacuous"
    );
    assert!(r.whatif.fork_scored > 0, "boxed jobs must be fork-scored");
    assert!(r.whatif.analytic_scored > 0);
    for shards in [2, 4] {
        let other = run(shards, false);
        check_equivalent(&reference, &other)
            .unwrap_or_else(|e| panic!("quiet, {shards} shards: {e}"));
    }
}

#[test]
fn faulted_decisions_are_invariant_across_shards() {
    let reference = run(1, true);
    let r = &reference.report;
    assert!(r.whatif.decisions > 0);
    assert!(
        r.total_restarts() > 0,
        "the seeded plan must interrupt jobs for the faulted compare to bite"
    );
    for shards in [2, 4] {
        let other = run(shards, true);
        check_equivalent(&reference, &other)
            .unwrap_or_else(|e| panic!("faulted, {shards} shards: {e}"));
    }
}

/// A breaker-wrapped run with a step budget tiny enough that every
/// non-memoized fork breaches: trips, profile-priced fallback, and
/// half-open probes after the deterministic cooldown are all exercised.
fn run_breaker(shards: u32) -> ServiceOutcome {
    let cfg = server_whatif_config(shards).with_breaker(BreakerSpec {
        max_steps_per_decision: 1,
        trip_after: 2,
        cooldown: SimDuration::from_secs(30),
    });
    let svc = ClusterService::new(cfg).expect("valid breaker config");
    let opts = ServeOptions {
        journal: true,
        ..ServeOptions::default()
    };
    svc.serve(mixed_load(), &FaultPlan::none(), &opts)
        .expect("breaker serve")
}

#[test]
fn tripped_breaker_degrades_and_probes_deterministically() {
    let reference = run_breaker(1);
    let b = &reference.report.breaker;
    assert!(b.breaches > 0, "the tiny budget must be breached: {b:?}");
    assert!(b.trips > 0, "consecutive breaches must trip: {b:?}");
    assert!(
        b.fallback_decisions > 0,
        "an open breaker must fall back to profile pricing: {b:?}"
    );
    assert!(
        reference.report.whatif.profile_scored > 0,
        "degraded decisions are profile-priced"
    );
    // The breaker's life cycle is part of the determinism contract: its
    // journaled transitions and counters must be byte-identical across
    // shard counts.
    let other = run_breaker(2);
    assert_eq!(&other.report.breaker, b, "2 shards");
    check_equivalent(&reference, &other).unwrap_or_else(|e| panic!("breaker, 2 shards: {e}"));
    // Degraded mode is visible against the unbroken run: the breaker
    // diverts fork-scored decisions to the profile path.
    let unbroken = run(1, false);
    assert!(
        reference.report.whatif.fork_scored < unbroken.report.whatif.fork_scored,
        "breaker={} unbroken={}",
        reference.report.whatif.fork_scored,
        unbroken.report.whatif.fork_scored
    );
}

#[test]
fn repeat_runs_are_byte_identical() {
    let a = run(2, false);
    let b = run(2, false);
    let bytes = |o: &ServiceOutcome| o.journal.as_ref().expect("journal requested").encode();
    assert_eq!(bytes(&a), bytes(&b));
    assert_eq!(a.report.canonical_string(), b.report.canonical_string());
}

/// The step charge of every fork-scored decision, pinned by absolute
/// output. The fork tier's decisions here cost 123, 67, 60, 36 and 36
/// committed steps (base advance plus forked suffix), so a 40-step budget
/// lands three breaches and two within-budget records; four breaches
/// would trip, so the count alone moves the report. A session that
/// answered a repeated future without charging its suffix would turn the
/// 60-step keep into a 31-step one and drop a breach.
#[test]
fn breaker_step_charges_are_pinned() {
    use std::hash::Hasher;
    let cfg = server_whatif_config(1).with_breaker(BreakerSpec {
        max_steps_per_decision: 40,
        trip_after: 4,
        cooldown: SimDuration::from_secs(30),
    });
    let opts = ServeOptions {
        journal: true,
        ..ServeOptions::default()
    };
    let out = ClusterService::new(cfg)
        .expect("valid breaker config")
        .serve(mixed_load(), &FaultPlan::none(), &opts)
        .expect("breaker serve");
    let (b, w) = (&out.report.breaker, &out.report.whatif);
    assert!(b.breaches > 0 && b.breaches < w.fork_scored, "{b:?} {w:?}");
    assert_eq!(b.trips, 0, "{b:?}");
    let mut h = desim::FxHasher::default();
    h.write(out.report.canonical_string().as_bytes());
    h.write(&out.journal.expect("journal requested").encode());
    assert_eq!(format!("{:016x}", h.finish()), "dfbc11a378e5f841");
}
