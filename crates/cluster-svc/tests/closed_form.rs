//! A closed-form oracle for the engine's queueing and pricing: rigid jobs
//! that all arrive at t = 0 on one cell run back to back, so their
//! completion instants follow from the per-iteration spans alone, without
//! any event loop.

use cluster_svc::{
    completions, AnalyticJob, ClusterService, JobSpec, SchedulePolicy, ServeOptions, ServiceConfig,
    TenantSpec,
};
use desim::{SimDuration, SimTime};
use faults::FaultPlan;

/// `T` of `job` on `nodes` nodes: its per-iteration spans, each floored at
/// 1 ns, summed in integer ns.
fn closed_form_span(job: &AnalyticJob, nodes: u32) -> u64 {
    (0..job.iterations)
        .map(|k| job.point(k, nodes).0.as_nanos().max(1))
        .sum()
}

/// Completion instant (ns) of each of `k` copies of `job` requesting
/// `request` nodes at t = 0, served rigidly on one cell of `n` nodes.
fn served(job: AnalyticJob, n: u32, request: u32, k: u64) -> Vec<u64> {
    let cfg =
        ServiceConfig::new(n, 1, 1, SchedulePolicy::Rigid).with_tenant(TenantSpec::new("t", 1));
    let stream = (0..k).map(|_| JobSpec::analytic(0, SimTime::ZERO, request, job));
    let opts = ServeOptions {
        journal: true,
        ..ServeOptions::default()
    };
    let out = ClusterService::new(cfg)
        .unwrap()
        .serve(stream, &FaultPlan::none(), &opts)
        .unwrap();
    let mut at = vec![0; k as usize];
    for (id, t) in completions(&out.journal.unwrap()) {
        at[id as usize] = t.as_nanos();
    }
    at
}

#[test]
fn rigid_jobs_arriving_together_complete_in_closed_form() {
    let shapes = [
        (SimDuration::from_secs(8), 0.9, 0.5, 4),
        (SimDuration(1_234_567_891), 0.75, 0.3, 7),
        (SimDuration::from_secs(1), 1.0, 1.0, 1),
        // 3 ns over 5 iterations: every span is the 1 ns floor.
        (SimDuration(3), 0.99, 0.0, 5),
    ];
    for (work, parallel_first, parallel_last, iterations) in shapes {
        let job = AnalyticJob {
            work,
            parallel_first,
            parallel_last,
            iterations,
        };
        for n in [2, 8, 16] {
            for k in [1, 2, 5, 6] {
                let ctx = format!("{job:?} on {n} nodes, {k} jobs");
                // All N nodes each: one at a time, at T, 2T, …, kT.
                let t = closed_form_span(&job, n);
                let want: Vec<u64> = (1..=k).map(|i| i * t).collect();
                assert_eq!(served(job, n, n, k), want, "{ctx}");
                // N/2 nodes each: two at a time, at ⌈(i+1)/2⌉·T.
                let t = closed_form_span(&job, n / 2);
                let want: Vec<u64> = (0..k).map(|i| (i + 1).div_ceil(2) * t).collect();
                assert_eq!(served(job, n, n / 2, k), want, "{ctx}, half");
            }
        }
    }
}
