//! Fair-share, quota, backpressure and tenant-isolation behavior of the
//! service: the multi-tenant guarantees that hold *inside* one
//! deterministic run. Then the policies and fault handling on one cell
//! with one tenant, the configuration batch experiments run on.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use cluster::{lu_like_job, EfficiencyProfile, Phase, PhaseWorkload, Workload};
use cluster_svc::{
    completions, decision, random_jobs, AnalyticJob, ClusterService, JobSpec, SchedulePolicy,
    ServeOptions, ServiceConfig, ServiceReport, TenantSpec,
};
use desim::{Journal, JournalEvent, SimDuration, SimTime};
use dps_sim::{SimError, SimResult};
use faults::{CheckpointSpec, FaultEvent, FaultKind, FaultPlan};

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
fn a_failed_start_gives_back_only_what_it_took() {
    // Tenant a's job holds 4 of 8 nodes. At t = 1 s tenant b asks for all
    // 8, then tenant a for 4 with a workload that errors at start: b stays
    // blocked, a's job takes the 4 free nodes and fails at once, and b
    // starts only when the first job completes.
    let cfg = ServiceConfig::new(8, 1, 1, SchedulePolicy::Rigid)
        .with_tenant(TenantSpec::new("a", 1))
        .with_tenant(TenantSpec::new("b", 1));
    let t1 = 1_000_000_000;
    let stream = vec![
        unit_job(0, 0, 4, 20),
        unit_job(1, t1, 8, 8),
        JobSpec::boxed(0, SimTime(t1), 4, Arc::new(ErrWorkload)),
    ];
    let opts = ServeOptions {
        journal: true,
        ..ServeOptions::default()
    };
    let out = ClusterService::new(cfg)
        .unwrap()
        .serve(stream, &FaultPlan::none(), &opts)
        .unwrap();
    let (r, j) = (out.report, out.journal.unwrap());
    // `(instant, cell, nodes)` of every `want` decision about `id`.
    let on = |id: u64, want: u32| -> Vec<(SimTime, u32, u64)> {
        j.entries
            .iter()
            .filter_map(|e| match e.event {
                JournalEvent::Step {
                    job,
                    op,
                    node,
                    start,
                    ..
                } if job == id && op == want => Some((e.vtime, node, start)),
                _ => None,
            })
            .collect()
    };
    let first_done = on(0, decision::COMPLETE);
    assert_eq!(first_done.len(), 1);
    let done_at = first_done[0].0;
    assert!(done_at > SimTime(t1));
    assert_eq!(on(2, decision::PLACE), [(SimTime(t1), 0, 4)]);
    assert_eq!(on(2, decision::FAIL), [(SimTime(t1), 0, 4)]);
    assert_eq!(on(1, decision::PLACE), [(done_at, 0, 8)], "b waits for 8");
    let b_done = on(1, decision::COMPLETE)[0].0;
    // Allocated time: the first job's 4 nodes and b's 8, nothing for the
    // failed start.
    let node_ns = |n: u128, from: SimTime, to: SimTime| n * u128::from((to - from).as_nanos());
    assert_eq!(
        r.cells[0].allocated_node_ns,
        node_ns(4, SimTime::ZERO, done_at) + node_ns(8, done_at, b_done)
    );
    assert_eq!((r.completed_jobs(), r.failed_jobs()), (2, 1));
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

// ----- one cell, one tenant --------------------------------------------------

const MALLEABLE: SchedulePolicy = SchedulePolicy::Malleable {
    min_efficiency: 0.5,
};

fn elastic(min_efficiency: f64) -> SchedulePolicy {
    SchedulePolicy::ElasticRecovery {
        min_efficiency,
        base_backoff: SimDuration::from_secs(2),
        max_backoff: SimDuration::from_secs(60),
    }
}

/// An LU-like analytic job: 400 s of work in 8 phases of decaying size and
/// parallel fraction.
fn lu_job(at_secs: u64, nodes: u32) -> JobSpec {
    let w = PhaseWorkload::new(lu_like_job(SimDuration::from_secs(400), 8));
    JobSpec::boxed(0, SimTime(at_secs * 1_000_000_000), nodes, Arc::new(w))
}

/// Serves `stream` on one cell of `nodes` nodes with one tenant, journal
/// on.
fn one_cell(
    nodes: u32,
    policy: SchedulePolicy,
    stream: Vec<JobSpec>,
    plan: &FaultPlan,
) -> (ServiceReport, Journal) {
    let cfg = ServiceConfig::new(nodes, 1, 1, policy).with_tenant(TenantSpec::new("t", 1));
    let opts = ServeOptions {
        journal: true,
        ..ServeOptions::default()
    };
    let out = ClusterService::new(cfg)
        .unwrap()
        .serve(stream, plan, &opts)
        .unwrap();
    (out.report, out.journal.unwrap())
}

/// `(instant, nodes)` of every `want` decision about submission `id`.
fn decisions(j: &Journal, id: u64, want: u32) -> Vec<(SimTime, u64)> {
    j.entries
        .iter()
        .filter_map(|e| match e.event {
            JournalEvent::Step { job, op, start, .. } if job == id && op == want => {
                Some((e.vtime, start))
            }
            _ => None,
        })
        .collect()
}

fn mean_completion(j: &Journal) -> f64 {
    let done: Vec<f64> = completions(j).map(|(_, t)| t.as_secs_f64()).collect();
    done.iter().sum::<f64>() / done.len() as f64
}

fn fault(at_secs: u64, node: u32, kind: FaultKind, checkpoint: CheckpointSpec) -> FaultPlan {
    let at = SimTime(at_secs * 1_000_000_000);
    FaultPlan::new(vec![FaultEvent { at, node, kind }], checkpoint)
}

#[test]
fn a_job_never_shrinks_to_zero_nodes() {
    // A NaN fraction (the fields are public and admission does not check
    // them) and a brutal efficiency floor must both still target an
    // allocation in 1..=cap.
    let nan = JobSpec::analytic(
        0,
        SimTime::ZERO,
        4,
        AnalyticJob {
            work: SimDuration::from_secs(8),
            parallel_first: f64::NAN,
            parallel_last: 0.5,
            iterations: 4,
        },
    );
    let brutal = SchedulePolicy::Malleable {
        min_efficiency: 0.99,
    };
    for (policy, job) in [(elastic(0.5), nan), (brutal, lu_job(0, 4))] {
        let (r, j) = one_cell(8, policy, vec![job], &FaultPlan::none());
        assert_eq!(r.completed_jobs(), 1, "{policy:?}");
        let shrinks = decisions(&j, 0, decision::SHRINK);
        assert!(!shrinks.is_empty(), "the job shrinks at a boundary");
        assert!(shrinks.iter().all(|&(_, n)| n >= 1), "{shrinks:?}");
    }
}

#[test]
fn an_empty_stream_yields_a_finite_empty_report() {
    let (r, j) = one_cell(8, SchedulePolicy::Rigid, Vec::new(), &FaultPlan::none());
    assert_eq!((r.submitted, r.makespan), (0, SimTime::ZERO));
    // No 0/0 NaNs in the derived accessors.
    assert_eq!(r.allocation_efficiency(), 0.0);
    assert_eq!(r.utilization(), 0.0);
    assert_eq!(completions(&j).count(), 0);
}

#[test]
fn malleable_improves_mean_completion_under_contention() {
    // Two 8-node LU jobs arriving close together on an 8-node cell: the
    // rigid b waits for all of a's nodes, the malleable b starts on the
    // nodes a releases as its iterations shrink.
    let jobs = || vec![lu_job(0, 8), lu_job(1, 8)];
    let (rigid, rj) = one_cell(8, SchedulePolicy::Rigid, jobs(), &FaultPlan::none());
    let (mall, mj) = one_cell(8, MALLEABLE, jobs(), &FaultPlan::none());
    let start_b = |j: &Journal| decisions(j, 1, decision::PLACE)[0].0;
    assert!(start_b(&rj) >= decisions(&rj, 0, decision::COMPLETE)[0].0);
    assert!(
        start_b(&mj) < start_b(&rj),
        "malleable must start b earlier"
    );
    let (m, r) = (mean_completion(&mj), mean_completion(&rj));
    assert!(m < r, "malleable mean completion {m:.1}s !< rigid {r:.1}s");
    // ...and capacity is used more efficiently.
    assert!(mall.allocation_efficiency() > rigid.allocation_efficiency());
}

#[test]
fn malleable_scheduling_wins_on_average_over_random_workloads() {
    // Across several seeded workloads, the malleable policy must not lose
    // on mean completion time and must use capacity better.
    const SEEDS: u64 = 8;
    let (mut wins, mut eff_wins) = (0, 0);
    for seed in 1000..1000 + SEEDS {
        let serve = |policy| one_cell(8, policy, random_jobs(8, 8, seed), &FaultPlan::none());
        let (rigid, rj) = serve(SchedulePolicy::Rigid);
        let (mall, mj) = serve(MALLEABLE);
        assert_eq!((rigid.completed_jobs(), mall.completed_jobs()), (8, 8));
        if mean_completion(&mj) <= mean_completion(&rj) {
            wins += 1;
        }
        if mall.allocation_efficiency() >= rigid.allocation_efficiency() {
            eff_wins += 1;
        }
    }
    assert!(
        wins >= SEEDS - 2,
        "malleable lost {} of {SEEDS}",
        SEEDS - wins
    );
    assert!(
        eff_wins >= SEEDS - 1,
        "less efficient on {}",
        SEEDS - eff_wins
    );
}

#[test]
fn crashes_interrupt_the_holder_and_spare_everyone_else() {
    let none = CheckpointSpec::none();
    let job = || vec![lu_job(0, 4)];
    let (quiet, qj) = one_cell(8, SchedulePolicy::Rigid, job(), &FaultPlan::none());
    // Strike node 0, held by the only job, mid-run: it restarts on the
    // surviving nodes, and replaying the lost work delays it.
    let mid = (quiet.makespan.as_secs_f64() as u64 / 2).max(1);
    let held = fault(mid, 0, FaultKind::NodeCrash, none);
    let (r, _) = one_cell(8, SchedulePolicy::Rigid, job(), &held);
    assert_eq!((r.completed_jobs(), r.total_restarts()), (1, 1));
    assert!(r.total_lost_work() > SimDuration::ZERO);
    assert!(r.makespan > quiet.makespan);
    // Nodes 0..4 are held; node 7 is free for the whole run, so crashing
    // it only shrinks capacity and the job never notices.
    let (r, j) = one_cell(
        8,
        SchedulePolicy::Rigid,
        job(),
        &fault(1, 7, FaultKind::NodeCrash, none),
    );
    assert_eq!(r.total_restarts(), 0);
    assert_eq!(j.first_divergence(&qj).map(|d| d.to_string()), None);
}

#[test]
fn elastic_recovery_resumes_from_checkpoint_and_beats_full_restart() {
    // Checkpoint every iteration with tiny costs; crash after a couple of
    // iterations completed. The elastic policy replays only the in-flight
    // iteration, the malleable policy replays everything.
    let ms10 = SimDuration::from_millis(10);
    let plan = fault(
        100,
        0,
        FaultKind::NodeCrash,
        CheckpointSpec::every(1, ms10, ms10),
    );
    let (mall, _) = one_cell(8, MALLEABLE, vec![lu_job(0, 4)], &plan);
    let (el, _) = one_cell(8, elastic(0.5), vec![lu_job(0, 4)], &plan);
    assert_eq!((mall.completed_jobs(), el.completed_jobs()), (1, 1));
    assert_eq!(el.total_restarts(), 1);
    assert!(
        el.total_lost_work() < mall.total_lost_work(),
        "checkpoint resume loses less work ({:?} !< {:?})",
        el.total_lost_work(),
        mall.total_lost_work()
    );
    assert!(
        el.makespan < mall.makespan,
        "elastic recovery finishes earlier"
    );
}

#[test]
fn a_preempted_node_returns_to_service() {
    // Preempt node 3 of a 4-node cell from t=1 to t=31: the rigid job
    // arriving at t=2 needs all 4 nodes, so it starts when the node returns.
    let away = FaultKind::NodePreempt {
        return_after: SimDuration::from_secs(30),
    };
    let plan = fault(1, 3, away, CheckpointSpec::none());
    let (r, j) = one_cell(4, SchedulePolicy::Rigid, vec![lu_job(2, 4)], &plan);
    assert_eq!((r.completed_jobs(), r.total_restarts()), (1, 0));
    let start = decisions(&j, 0, decision::PLACE)[0].0;
    assert_eq!(start, SimTime(31 * 1_000_000_000));
}

#[test]
fn a_slowdown_window_stretches_the_holders_iterations() {
    let job = || vec![lu_job(0, 4)];
    let (quiet, _) = one_cell(8, SchedulePolicy::Rigid, job(), &FaultPlan::none());
    let slow = FaultKind::NodeSlowdown {
        factor: 0.5,
        window: SimDuration::from_secs(1_000),
    };
    let plan = fault(0, 0, slow, CheckpointSpec::none());
    let (r, _) = one_cell(8, SchedulePolicy::Rigid, job(), &plan);
    assert_eq!(r.total_restarts(), 0, "a slowdown is not an interruption");
    assert!(r.total_degraded() > SimDuration::ZERO);
    assert_eq!(
        r.makespan,
        quiet.makespan + r.total_degraded(),
        "all extra wall time is accounted as degradation"
    );
}

/// Two 2 s iterations that parallelize perfectly, whose profile panics
/// the first time it is asked for 3 nodes.
struct PanicsOnceAtThree(AtomicBool);

impl Workload for PanicsOnceAtThree {
    fn key(&self) -> String {
        "panics-once-at-three".into()
    }
    fn iterations(&self) -> usize {
        2
    }
    fn max_nodes(&self) -> u32 {
        u32::MAX
    }
    fn profile(&self, nodes: u32) -> SimResult<EfficiencyProfile> {
        if nodes == 3 && !self.0.swap(true, Ordering::Relaxed) {
            panic!("first profile at 3 nodes");
        }
        let phase = Phase::new(SimDuration::from_secs(2), 1.0);
        PhaseWorkload::new(vec![phase; 2]).profile(nodes)
    }
}

/// One malleable 4-node cell with no efficiency floor runs one
/// `PanicsOnceAtThree` job. Node 3 crashes at 50 ms, 50 ms into the first
/// 500 ms iteration, which loses 0.2 s of work. The job restarts on three
/// nodes, its profile panics, and it holds them through a ~10 ms retry
/// backoff; at 52 ms node 0 is preempted for 5 s, or the job is cancelled.
fn struck_in_retry_backoff(cancel: bool) -> ServiceReport {
    let w = PanicsOnceAtThree(AtomicBool::new(false));
    let mut job = JobSpec::boxed(0, SimTime::ZERO, 4, Arc::new(w));
    let mut events = vec![FaultEvent {
        at: SimTime(50_000_000),
        node: 3,
        kind: FaultKind::NodeCrash,
    }];
    let second = SimTime(52_000_000);
    if cancel {
        job = job.with_cancel_at(second);
    } else {
        let return_after = SimDuration::from_secs(5);
        let kind = FaultKind::NodePreempt { return_after };
        events.push(FaultEvent {
            at: second,
            node: 0,
            kind,
        });
    }
    let plan = FaultPlan::new(events, CheckpointSpec::none());
    let malleable = SchedulePolicy::Malleable {
        min_efficiency: 0.0,
    };
    let (r, _) = one_cell(4, malleable, vec![job], &plan);
    assert_eq!(r.profile_retries, 1);
    assert_eq!(r.total_lost_work(), SimDuration::from_millis(200));
    r
}

#[test]
fn a_fault_in_a_retry_backoff_refunds_only_the_backoff() {
    let r = struck_in_retry_backoff(false);
    assert_eq!((r.completed_jobs(), r.total_restarts()), (1, 2));
    // 4 nodes × 50 ms, 3 × the 2 ms of backoff before the preemption,
    // then both 1 s iterations on the two nodes left.
    assert_eq!(r.cells[0].allocated_node_ns, 4_206_000_000);
}

#[test]
fn a_cancellation_in_a_retry_backoff_refunds_only_the_backoff() {
    let r = struck_in_retry_backoff(true);
    assert_eq!(r.cancelled_jobs(), 1);
    // 4 nodes × 50 ms, then 3 × the 2 ms of backoff before the cancel.
    assert_eq!(r.cells[0].allocated_node_ns, 206_000_000);
}
