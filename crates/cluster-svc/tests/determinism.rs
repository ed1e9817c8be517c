//! The service's determinism contract, end to end: byte-identical reports
//! and decision journals across shard counts, under quiet and seeded
//! faulted runs, and journal divergence pinpointing across seeds.

use cluster_svc::{
    check_equivalent, ClusterService, JobSpec, SchedulePolicy, ServeOptions, ServiceConfig,
    ServiceOutcome, SyntheticLoad, TenantSpec,
};
use desim::{SimDuration, SimTime};
use faults::{CheckpointSpec, FaultEvent, FaultGenConfig, FaultKind, FaultPlan};

const JOBS: u64 = 5_000;

fn scale_cfg(shards: u32) -> ServiceConfig {
    ServiceConfig::new(
        8,
        8,
        shards,
        SchedulePolicy::ElasticRecovery {
            min_efficiency: 0.5,
            base_backoff: SimDuration::from_secs(2),
            max_backoff: SimDuration::from_secs(60),
        },
    )
    .with_tenant(TenantSpec::new("batch", 4))
    .with_tenant(TenantSpec::new("service", 2))
    .with_tenant(TenantSpec::new("interactive", 1).with_max_inflight(24))
    .with_tenant(TenantSpec::new("scavenger", 1).with_max_pending(50_000))
}

fn load(seed: u64) -> SyntheticLoad {
    SyntheticLoad::new(
        JOBS,
        4,
        8,
        SimDuration::from_millis(400),
        SimDuration::from_secs(20),
        seed,
    )
}

fn seeded_plan(seed: u64) -> FaultPlan {
    FaultGenConfig {
        crashes: 2,
        preempts: 4,
        slowdowns: 3,
        degrades: 2,
        checkpoint: CheckpointSpec::every(
            2,
            SimDuration::from_millis(50),
            SimDuration::from_millis(200),
        ),
        ..FaultGenConfig::quiet(64, SimDuration(JOBS * 400_000_000))
    }
    .generate(seed)
}

fn run(shards: u32, seed: u64, plan: &FaultPlan) -> ServiceOutcome {
    let svc = ClusterService::new(scale_cfg(shards)).unwrap();
    let opts = ServeOptions {
        journal: true,
        ..ServeOptions::default()
    };
    svc.serve(load(seed), plan, &opts).unwrap()
}

/// Runs at shard counts 1, 2 and 4 and checks each against the first: the
/// journal's shard echo is metadata, which the check leaves out.
fn assert_invariant_across_shards(plan: &FaultPlan) -> ServiceOutcome {
    let one = run(1, 42, plan);
    for shards in [2, 4] {
        check_equivalent(&one, &run(shards, 42, plan))
            .unwrap_or_else(|e| panic!("{shards} shards: {e}"));
    }
    one
}

#[test]
fn quiet_reports_are_byte_identical_across_shard_counts() {
    let one = assert_invariant_across_shards(&FaultPlan::none());
    assert_eq!(one.report.completed_jobs(), JOBS);
}

#[test]
fn faulted_reports_are_byte_identical_across_shard_counts() {
    let one = assert_invariant_across_shards(&seeded_plan(42));
    assert!(
        one.report.total_restarts() > 0,
        "the seeded plan must interrupt jobs"
    );
}

#[test]
fn different_seeds_diverge_and_the_journal_pinpoints_where() {
    let (mut a, mut b) = (
        run(2, 42, &FaultPlan::none()),
        run(2, 43, &FaultPlan::none()),
    );
    let err = check_equivalent(&a, &b).expect_err("different seeds must diverge");
    assert!(err.starts_with("first diverging event #"), "{err}");
    // Without journals the canonical reports are compared line by line.
    (a.journal, b.journal) = (None, None);
    let err = check_equivalent(&a, &b).expect_err("different seeds must diverge");
    assert!(err.starts_with("canonical reports differ"), "{err}");
}

#[test]
fn reruns_at_the_same_seed_are_byte_identical() {
    let plan = seeded_plan(7);
    let (a, b) = (run(4, 7, &plan), run(4, 7, &plan));
    assert_eq!(a.report.canonical_string(), b.report.canonical_string());
    let bytes = |o: &ServiceOutcome| o.journal.as_ref().expect("journal").encode();
    assert_eq!(bytes(&a), bytes(&b), "same config ⇒ same bytes");
}

#[test]
fn empty_fault_plan_is_a_strict_no_op() {
    let quiet_cfg = FaultGenConfig::quiet(64, SimDuration::from_secs(1));
    let empty_generated = quiet_cfg.generate(42);
    let a = run(2, 42, &FaultPlan::none());
    check_equivalent(&a, &run(2, 42, &empty_generated)).unwrap();
    assert_eq!(a.report.total_restarts(), 0);
}

#[test]
fn crashing_a_whole_cell_requeues_its_jobs_into_other_cells() {
    // Kill every node of cell 0 (nodes 0..8) early: its running jobs must
    // drain, requeue and complete in surviving cells — recovery crosses
    // the shard boundary when cell 0 is the only cell of shard 0.
    let events = (0..8)
        .map(|node| FaultEvent {
            at: SimTime(30_000_000_000),
            node,
            kind: FaultKind::NodeCrash,
        })
        .collect();
    let plan = FaultPlan::new(events, CheckpointSpec::none());
    let mk = |shards| {
        let svc = ClusterService::new(scale_cfg(shards)).unwrap();
        svc.serve(load(42), &plan, &ServeOptions::default())
            .unwrap()
            .report
    };
    let r = mk(8); // shard 0 owns exactly cell 0
    assert_eq!(r.submitted, JOBS);
    assert_eq!(
        r.completed_jobs() + r.failed_jobs() + r.rejected_jobs(),
        JOBS
    );
    assert_eq!(r.failed_jobs(), 0, "all jobs fit in surviving cells");
    assert_eq!(r.completed_jobs(), JOBS);
    // Cell 0 stops accumulating after the crash; later work lands
    // elsewhere, and the totals still match every other shard count.
    let r1 = mk(1);
    assert_eq!(r.canonical_string(), r1.canonical_string());
    assert!(r.cells[0].completed < r.cells[1].completed);
}

#[test]
fn per_job_cancellation_hits_pending_and_running_jobs() {
    let cfg =
        ServiceConfig::new(4, 2, 2, SchedulePolicy::Rigid).with_tenant(TenantSpec::new("t", 1));
    let svc = ClusterService::new(cfg).unwrap();
    let job = |at: u64, work_ms: u64, cancel: Option<u64>| {
        let spec = JobSpec::analytic(
            0,
            SimTime(at),
            4,
            cluster_svc::AnalyticJob {
                work: SimDuration::from_millis(work_ms),
                parallel_first: 0.9,
                parallel_last: 0.9,
                iterations: 2,
            },
        );
        match cancel {
            Some(c) => spec.with_cancel_at(SimTime(c)),
            None => spec,
        }
    };
    // Three long jobs fill both cells; the third waits and is cancelled
    // while pending, the first is cancelled mid-run.
    let stream = vec![
        job(0, 10_000, Some(1_000_000_000)), // cancelled running at 1 s
        job(0, 10_000, None),
        job(0, 10_000, Some(500_000_000)), // cancelled pending at 0.5 s
        job(0, 10, None),
    ];
    let out = svc
        .serve(stream, &FaultPlan::none(), &ServeOptions::default())
        .unwrap();
    let r = out.report;
    assert_eq!(r.cancelled_jobs(), 2);
    assert_eq!(r.completed_jobs(), 2);
    assert_eq!(r.failed_jobs(), 0);
}

/// Taken on the commit before the per-cell queues merged into one
/// cell-ranked queue: at one instant, cell order still beats the order the
/// events were scheduled in.
#[test]
fn same_instant_phase_ends_pop_in_cell_order() {
    use std::hash::Hasher;
    // Two 4-node cells. B's end (cell 1, at 3 s) is scheduled at t=0; C
    // takes cell 0 when A leaves it at 1 s and also ends at 3 s. Cell 0
    // must still go first at 3 s, so the waiting D lands in cell 0.
    let cfg =
        ServiceConfig::new(4, 2, 2, SchedulePolicy::Rigid).with_tenant(TenantSpec::new("t", 1));
    let job = |at: u64, work_secs: u64| {
        JobSpec::analytic(
            0,
            SimTime(at),
            4,
            cluster_svc::AnalyticJob {
                work: SimDuration::from_secs(work_secs),
                parallel_first: 1.0,
                parallel_last: 1.0,
                iterations: 1,
            },
        )
    };
    let stream = vec![
        job(0, 4),             // A: cell 0, ends at 1 s
        job(0, 12),            // B: cell 1, ends at 3 s
        job(1_000_000_000, 8), // C: cell 0 from 1 s, ends at 3 s
        job(2_000_000_000, 4), // D: waits for the first cell freed at 3 s
    ];
    let opts = ServeOptions {
        journal: true,
        ..ServeOptions::default()
    };
    let out = ClusterService::new(cfg)
        .unwrap()
        .serve(stream, &FaultPlan::none(), &opts)
        .unwrap();
    assert_eq!(out.report.completed_jobs(), 4);
    assert_eq!(out.report.cells[0].completed, 3, "D ran in cell 0");
    let bytes = out.journal.expect("journal").encode();
    let mut h = desim::FxHasher::default();
    h.write(&bytes);
    assert_eq!((bytes.len(), h.finish()), (323, 0x5338_8e04_d815_f389));
}
