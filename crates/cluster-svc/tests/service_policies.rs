//! Fair-share, quota, backpressure and tenant-isolation behavior of the
//! service: the multi-tenant guarantees that hold *inside* one
//! deterministic run.

use std::sync::Arc;

use cluster::{EfficiencyProfile, SchedulePolicy, Workload};
use cluster_svc::{
    decision, AnalyticJob, ClusterService, JobSpec, ServeOptions, ServiceConfig, TenantSpec,
};
use desim::{JournalEvent, SimDuration, SimTime};
use dps_sim::{SimError, SimResult};
use faults::FaultPlan;

fn unit_job(tenant: u32, at: u64, nodes: u32, work_secs: u64) -> JobSpec {
    JobSpec::analytic(
        tenant,
        SimTime(at),
        nodes,
        AnalyticJob {
            work: SimDuration::from_secs(work_secs),
            parallel_first: 1.0,
            parallel_last: 1.0,
            iterations: 1,
        },
    )
}

#[test]
fn fair_share_weights_shape_waiting_time() {
    // One 8-node cell, two tenants with 8:1 weights, each submitting 40
    // identical 4-node jobs at t=0 — only two run at a time, so the
    // stride weights decide who waits.
    let cfg = ServiceConfig::new(8, 1, 1, SchedulePolicy::Rigid)
        .with_tenant(TenantSpec::new("heavy", 8))
        .with_tenant(TenantSpec::new("light", 1));
    let svc = ClusterService::new(cfg).unwrap();
    let stream: Vec<JobSpec> = (0..40)
        .flat_map(|_| [unit_job(0, 0, 4, 8), unit_job(1, 0, 4, 8)])
        .collect();
    let r = svc
        .serve(stream, &FaultPlan::none(), &ServeOptions::default())
        .unwrap()
        .report;
    assert_eq!(r.completed_jobs(), 80);
    let heavy = &r.tenants[0];
    let light = &r.tenants[1];
    assert_eq!(heavy.completed, 40);
    assert_eq!(light.completed, 40);
    let mean = |t: &cluster_svc::TenantReport| t.wait_ns_sum / u128::from(t.started);
    assert!(
        mean(heavy) * 2 < mean(light),
        "weight 8 tenant must wait far less: heavy={} light={}",
        mean(heavy),
        mean(light)
    );
}

#[test]
fn inflight_quota_serializes_a_tenants_jobs() {
    // Three 1-second jobs fit the cell two at a time, but max_inflight=1
    // forces them to run one after another: makespan = exactly 3 s.
    let cfg = ServiceConfig::new(8, 1, 1, SchedulePolicy::Rigid)
        .with_tenant(TenantSpec::new("q", 1).with_max_inflight(1));
    let svc = ClusterService::new(cfg).unwrap();
    let stream = vec![
        unit_job(0, 0, 4, 4),
        unit_job(0, 0, 4, 4),
        unit_job(0, 0, 4, 4),
    ];
    let r = svc
        .serve(stream, &FaultPlan::none(), &ServeOptions::default())
        .unwrap()
        .report;
    assert_eq!(r.completed_jobs(), 3);
    assert_eq!(r.makespan, SimTime(3_000_000_000));
}

#[test]
fn pending_backpressure_rejects_the_overflow() {
    // A full cell plus max_pending=2: of six follow-up submissions, two
    // queue and four are rejected at admission.
    let cfg = ServiceConfig::new(4, 1, 1, SchedulePolicy::Rigid)
        .with_tenant(TenantSpec::new("bp", 1).with_max_pending(2));
    let svc = ClusterService::new(cfg).unwrap();
    let mut stream = vec![unit_job(0, 0, 4, 100)];
    stream.extend((0..6).map(|_| unit_job(0, 1, 4, 1)));
    let r = svc
        .serve(stream, &FaultPlan::none(), &ServeOptions::default())
        .unwrap()
        .report;
    assert_eq!(r.rejected_jobs(), 4);
    assert_eq!(r.completed_jobs(), 3);
    assert_eq!(r.submitted, 7);
}

struct PanicWorkload;

impl Workload for PanicWorkload {
    fn key(&self) -> String {
        "panic-workload".into()
    }
    fn iterations(&self) -> usize {
        1
    }
    fn max_nodes(&self) -> u32 {
        u32::MAX
    }
    fn profile(&self, _nodes: u32) -> SimResult<EfficiencyProfile> {
        panic!("tenant workload exploded")
    }
}

struct ErrWorkload;

impl Workload for ErrWorkload {
    fn key(&self) -> String {
        "err-workload".into()
    }
    fn iterations(&self) -> usize {
        1
    }
    fn max_nodes(&self) -> u32 {
        u32::MAX
    }
    fn profile(&self, _nodes: u32) -> SimResult<EfficiencyProfile> {
        Err(SimError::protocol("simulated backend failure"))
    }
}

#[test]
fn panicking_tenant_workload_is_quarantined() {
    // Mirrors the sweep isolation guarantee: a tenant whose workload
    // panics while profiling loses that job (marked failed), and the
    // service keeps serving every other tenant.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // keep the test log quiet
    let result = std::panic::catch_unwind(|| {
        let cfg = ServiceConfig::new(8, 2, 2, SchedulePolicy::Rigid)
            .with_tenant(TenantSpec::new("broken", 1))
            .with_tenant(TenantSpec::new("healthy", 1));
        let svc = ClusterService::new(cfg).unwrap();
        let mut stream = vec![
            JobSpec::boxed(0, SimTime::ZERO, 4, Arc::new(PanicWorkload)),
            JobSpec::boxed(0, SimTime(1), 4, Arc::new(ErrWorkload)),
        ];
        stream.extend((0..20).map(|i| unit_job(1, 2 + i, 4, 1)));
        svc.serve(stream, &FaultPlan::none(), &ServeOptions::default())
            .unwrap()
            .report
    });
    std::panic::set_hook(prev);
    let r = result.expect("the panic must not escape the service");
    assert_eq!(r.tenants[0].failed, 2, "panic and error both fail the job");
    assert_eq!(r.tenants[0].completed, 0);
    assert_eq!(
        r.tenants[1].completed, 20,
        "other tenants keep being served"
    );
    assert_eq!(r.failed_jobs(), 2);
}

#[test]
fn oversized_and_degenerate_requests_are_rejected_not_fatal() {
    let cfg =
        ServiceConfig::new(4, 1, 1, SchedulePolicy::Rigid).with_tenant(TenantSpec::new("t", 1));
    let svc = ClusterService::new(cfg).unwrap();
    let stream = vec![
        unit_job(0, 0, 0, 1), // zero nodes
        unit_job(0, 0, 5, 1), // larger than a cell
        unit_job(0, 0, 4, 1), // fine
        JobSpec::analytic(
            0,
            SimTime(0),
            2,
            AnalyticJob {
                work: SimDuration::from_secs(1),
                parallel_first: 0.9,
                parallel_last: 0.9,
                iterations: 0, // degenerate
            },
        ),
    ];
    let r = svc
        .serve(stream, &FaultPlan::none(), &ServeOptions::default())
        .unwrap()
        .report;
    assert_eq!(r.rejected_jobs(), 3);
    assert_eq!(r.completed_jobs(), 1);
}

#[test]
fn unknown_tenant_is_a_protocol_error() {
    let cfg =
        ServiceConfig::new(4, 1, 1, SchedulePolicy::Rigid).with_tenant(TenantSpec::new("t", 1));
    let svc = ClusterService::new(cfg).unwrap();
    let err = svc
        .serve(
            vec![unit_job(3, 0, 2, 1)],
            &FaultPlan::none(),
            &ServeOptions::default(),
        )
        .unwrap_err();
    assert!(matches!(err.kind, dps_sim::SimErrorKind::Protocol { .. }));
}

#[test]
fn a_nan_parallel_fraction_never_shrinks_a_job_to_zero_nodes() {
    // The fields are public and admission does not check them: a NaN
    // fraction must still target an allocation in 1..=cap.
    let cfg = ServiceConfig::new(
        8,
        1,
        1,
        SchedulePolicy::ElasticRecovery {
            min_efficiency: 0.5,
            base_backoff: SimDuration::from_secs(2),
            max_backoff: SimDuration::from_secs(60),
        },
    )
    .with_tenant(TenantSpec::new("t", 1));
    let stream = vec![JobSpec::analytic(
        0,
        SimTime::ZERO,
        4,
        AnalyticJob {
            work: SimDuration::from_secs(8),
            parallel_first: f64::NAN,
            parallel_last: 0.5,
            iterations: 4,
        },
    )];
    let opts = ServeOptions {
        journal: true,
        ..ServeOptions::default()
    };
    let out = ClusterService::new(cfg)
        .unwrap()
        .serve(stream, &FaultPlan::none(), &opts)
        .unwrap();
    assert_eq!(out.report.completed_jobs(), 1);
    let shrinks: Vec<u64> = out
        .journal
        .expect("journal")
        .entries
        .iter()
        .filter_map(|e| match e.event {
            JournalEvent::Step { op, start, .. } if op == decision::SHRINK => Some(start),
            _ => None,
        })
        .collect();
    assert!(!shrinks.is_empty(), "the job shrinks at a boundary");
    assert!(
        shrinks.iter().all(|&n| n >= 1),
        "shrink grants: {shrinks:?}"
    );
}
