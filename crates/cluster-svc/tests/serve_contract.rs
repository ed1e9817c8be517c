//! The `serve` contract, black-box: completion accounting, the decision
//! journal's shape, and stream validation.

use cluster_svc::{
    decision, AnalyticJob, ClusterService, JobSpec, SchedulePolicy, ServeOptions, ServiceConfig,
    SyntheticLoad, TenantSpec, DECISION_LABELS,
};
use desim::{Journal, JournalEvent, SimDuration, SimTime};
use dps_sim::SimErrorKind;
use faults::FaultPlan;

fn small_cfg(shards: u32) -> ServiceConfig {
    ServiceConfig::new(
        4,
        4,
        shards,
        SchedulePolicy::Malleable {
            min_efficiency: 0.5,
        },
    )
    .with_tenant(TenantSpec::new("a", 2))
    .with_tenant(TenantSpec::new("b", 1))
}

fn small_load(jobs: u64) -> SyntheticLoad {
    SyntheticLoad::new(
        jobs,
        2,
        4,
        SimDuration::from_millis(50),
        SimDuration::from_millis(400),
        11,
    )
}

#[test]
fn quiet_run_completes_every_admitted_job() {
    let svc = ClusterService::new(small_cfg(2)).unwrap();
    let out = svc
        .serve(
            small_load(300),
            &FaultPlan::none(),
            &ServeOptions::default(),
        )
        .unwrap();
    let r = &out.report;
    assert_eq!(r.submitted, 300);
    assert_eq!(r.rejected_jobs(), 0);
    assert_eq!(r.completed_jobs(), 300);
    assert_eq!(r.failed_jobs(), 0);
    assert!(r.makespan > SimTime::ZERO);
    assert!(r.events > 300);
    assert!(r.allocation_efficiency() > 0.0);
}

#[test]
fn decision_journal_names_every_kind() {
    let svc = ClusterService::new(small_cfg(2)).unwrap();
    let opts = ServeOptions {
        journal: true,
        ..ServeOptions::default()
    };
    let out = svc
        .serve(small_load(200), &FaultPlan::none(), &opts)
        .unwrap();
    let j = out.journal.expect("journal requested");
    assert_eq!(&j.labels[..], &DECISION_LABELS[..]);
    assert!(j.len() > 400, "admit + place + complete per job");
    let mut ops = vec![0u64; DECISION_LABELS.len()];
    for entry in &j.entries {
        if let JournalEvent::Step { op, .. } = entry.event {
            ops[op as usize] += 1;
        }
    }
    assert_eq!(ops[decision::ADMIT as usize], 200);
    assert_eq!(ops[decision::PLACE as usize], 200);
    assert_eq!(ops[decision::COMPLETE as usize], 200);
    // Round-trips through the binary format.
    let decoded = Journal::decode(&j.encode()).unwrap();
    assert_eq!(decoded.entries, j.entries);
}

#[test]
fn stream_with_decreasing_arrivals_is_a_protocol_error() {
    let svc = ClusterService::new(small_cfg(1)).unwrap();
    let job = |at: u64| {
        JobSpec::analytic(
            0,
            SimTime(at),
            2,
            AnalyticJob {
                work: SimDuration::from_millis(10),
                parallel_first: 0.8,
                parallel_last: 0.8,
                iterations: 1,
            },
        )
    };
    let err = svc
        .serve(
            vec![job(100), job(50)],
            &FaultPlan::none(),
            &ServeOptions::default(),
        )
        .unwrap_err();
    assert!(matches!(err.kind, SimErrorKind::Protocol { .. }));
}

#[test]
fn hostile_fault_windows_are_protocol_errors() {
    // `FaultPlan::events` is a public field, so a literal plan skips the
    // checks of `FaultPlan::new`; and a window that starts within its own
    // length of the end of virtual time passes them, then saturates to the
    // empty interval. Neither may reach the pricing timelines' asserts.
    use faults::{CheckpointSpec, FaultEvent, FaultKind};
    let svc = ClusterService::new(small_cfg(1)).unwrap();
    for (at, window) in [
        (SimTime(1_000), SimDuration::ZERO),
        (SimTime(u64::MAX), SimDuration::from_secs(1)),
    ] {
        let kind = FaultKind::LinkDegrade {
            factor: 0.5,
            window,
        };
        let plan = FaultPlan {
            events: vec![FaultEvent { at, node: 0, kind }],
            checkpoint: CheckpointSpec::none(),
        };
        let err = svc
            .serve(small_load(10), &plan, &ServeOptions::default())
            .unwrap_err();
        assert!(matches!(err.kind, SimErrorKind::Protocol { .. }), "{err}");
    }
}

#[test]
fn no_iteration_ends_at_the_end_of_time() {
    // Two serial jobs of `u64::MAX` ns in two iterations fill both cells:
    // their second iterations would end past the end of time. They fail
    // where that iteration would be scheduled, and the 10-ns job
    // queued behind them runs in the time that is left, instead of all of
    // it happening at `SimTime::MAX` in zero virtual time. A job that
    // arrives at the end of time is still served, and fails the same way.
    let cfg = ServiceConfig::new(
        2,
        2,
        1,
        SchedulePolicy::Malleable {
            min_efficiency: 0.5,
        },
    )
    .with_tenant(TenantSpec::new("a", 1));
    let serial = |work, iterations| AnalyticJob {
        work: SimDuration(work),
        parallel_first: 0.0,
        parallel_last: 0.0,
        iterations,
    };
    let stream = vec![
        JobSpec::analytic(0, SimTime::ZERO, 2, serial(u64::MAX, 2)),
        JobSpec::analytic(0, SimTime::ZERO, 2, serial(u64::MAX, 2)),
        JobSpec::analytic(0, SimTime(1), 2, serial(10, 2)),
        JobSpec::analytic(0, SimTime::MAX, 1, serial(10, 1)),
    ];
    let opts = ServeOptions {
        journal: true,
        ..ServeOptions::default()
    };
    let out = ClusterService::new(cfg)
        .unwrap()
        .serve(stream, &FaultPlan::none(), &opts)
        .unwrap();
    let decisions: Vec<(u64, u64, &str)> = out
        .journal
        .as_ref()
        .unwrap()
        .entries
        .iter()
        .filter_map(|e| match e.event {
            JournalEvent::Step { job, op, .. } => {
                Some((e.vtime.as_nanos(), job, DECISION_LABELS[op as usize]))
            }
            _ => None,
        })
        .filter(|&(_, _, label)| label != "admit")
        .collect();
    // One iteration of ⌊u64::MAX / 2⌋ ns, rounded through `f64`.
    let first = 1 << 63;
    let max = u64::MAX;
    assert_eq!(
        decisions,
        [
            (0, 0, "place"),
            (0, 1, "place"),
            (first, 0, "fail"),
            (first, 2, "place"),
            (first, 1, "fail"),
            (first + 10, 2, "complete"),
            (max, 3, "place"),
            (max, 3, "fail"),
        ]
    );
    let r = &out.report;
    assert_eq!((r.completed_jobs(), r.failed_jobs()), (1, 3));
    assert_eq!(r.makespan, SimTime::MAX, "the last job arrived at the end");
}
