//! Integration tests for the simulator-backed cluster server: LU and
//! stencil DPS applications scheduled through the `Workload` trait on a
//! one-cell service, with reallocation decisions driven by dps-sim
//! efficiency profiles.

use std::sync::Arc;

use cluster::{IterationPoint, ProfileCache, Workload};
use cluster_svc::{
    completions, decision, ClusterService, JobSpec, SchedulePolicy, ServeOptions, ServiceOutcome,
};
use desim::{Journal, JournalEvent, SimTime};
use faults::FaultPlan;
use workload::{lone_job_schedule, one_cell_config, shrink_schedule, sim_job_set, SimEnv};

const MALLEABLE: SchedulePolicy = SchedulePolicy::Malleable {
    min_efficiency: 0.5,
};

fn serve(policy: SchedulePolicy, jobs: Vec<JobSpec>) -> ServiceOutcome {
    let opts = ServeOptions {
        journal: true,
        ..ServeOptions::default()
    };
    ClusterService::new(one_cell_config(8, policy))
        .unwrap()
        .serve(jobs, &FaultPlan::none(), &opts)
        .unwrap()
}

/// `(instant, nodes)` of every `op` decision about submission `id`.
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

/// Node count implied by an iteration point: the engine computed
/// `efficiency = cpu_work / (nodes × span)`, so invert it.
fn implied_nodes(p: &IterationPoint) -> f64 {
    p.cpu_work.as_secs_f64() / (p.efficiency * p.span.as_secs_f64())
}

#[test]
fn lu_and_stencil_schedule_through_the_workload_trait() {
    let env = SimEnv::paper();
    let jobs = sim_job_set(&env);
    assert_eq!(jobs.len(), 3, "two LU jobs and one stencil");
    let out = serve(MALLEABLE, jobs);
    assert_eq!(
        out.report.completed_jobs(),
        3,
        "every simulator-backed job completes"
    );
    // The LU jobs' poor large-allocation efficiency makes the server shrink
    // them mid-job; the stencil's flat profile keeps its nodes.
    let j = out.journal.unwrap();
    let lu = decisions(&j, 0, decision::SHRINK);
    assert!(!lu.is_empty(), "LU allocation must change mid-job");
    assert!(lu.iter().all(|&(_, n)| n >= 1), "{lu:?}");
    assert_eq!(decisions(&j, 1, decision::PLACE)[0].1, 4);
    assert!(
        decisions(&j, 1, decision::SHRINK).is_empty(),
        "flat stencil profile keeps its allocation"
    );
}

#[test]
fn malleable_preserves_paper_ordering_on_sim_backed_jobs() {
    let env = SimEnv::paper();
    let rigid = serve(SchedulePolicy::Rigid, sim_job_set(&env));
    let mall = serve(MALLEABLE, sim_job_set(&env));
    let (rj, mj) = (rigid.journal.unwrap(), mall.journal.unwrap());
    assert_eq!(rigid.report.completed_jobs(), 3);
    assert_eq!(mall.report.completed_jobs(), 3);
    let (r, m) = (mean_completion(&rj), mean_completion(&mj));
    assert!(m < r, "malleable mean completion {m:.2}s !< rigid {r:.2}s");
    let (r, m) = (
        rigid.report.allocation_efficiency(),
        mall.report.allocation_efficiency(),
    );
    assert!(m > r, "malleable efficiency {m:.2} !> rigid {r:.2}");
    // Released nodes serve the queue: no job starts later than it would
    // under the rigid policy.
    for id in 0..3 {
        let start = |j: &Journal| decisions(j, id, decision::PLACE)[0].0;
        assert!(start(&mj) <= start(&rj), "job {id}");
    }
}

#[test]
fn reallocation_mid_job_changes_the_simulated_applications_node_count() {
    let env = SimEnv::paper();
    let w = Arc::new(env.lu_workload(env.lu_sized(288, 36, 8)));
    let (allocs, composed) = lone_job_schedule(&*w, 8, 0.5).unwrap();
    assert_eq!(allocs[0], 8, "job starts on its full request");
    assert!(
        allocs[1] < allocs[0],
        "low simulated efficiency shrinks the job: {allocs:?}"
    );
    // It is the schedule the service runs a lone job on.
    let out = serve(
        MALLEABLE,
        vec![JobSpec::boxed(0, SimTime::ZERO, 8, w.clone())],
    );
    assert_eq!(out.report.makespan, SimTime::ZERO + composed);
    let shrinks: Vec<u64> = decisions(&out.journal.unwrap(), 0, decision::SHRINK)
        .into_iter()
        .map(|(_, n)| n)
        .collect();
    let want: Vec<u64> = allocs
        .windows(2)
        .filter(|p| p[1] < p[0])
        .map(|p| u64::from(p[1]))
        .collect();
    assert_eq!(shrinks, want, "schedule {allocs:?}");

    // Replay the (shrink-only projection of the) server's schedule as ONE
    // dps-sim run through the DPS thread-removal machinery and check the
    // engine really ran later iterations on fewer nodes.
    let schedule = shrink_schedule(&allocs);
    let realized = w
        .realize(&schedule)
        .unwrap()
        .expect("shrink-only schedule is realizable");
    assert_eq!(realized.points.len(), w.iterations());
    let first = implied_nodes(&realized.points[0]);
    let late = implied_nodes(&realized.points[5]);
    assert!(
        (first - f64::from(schedule[0])).abs() < 0.51,
        "iteration 1 ran on ~{} nodes, engine says {first:.2}",
        schedule[0]
    );
    assert!(
        (late - f64::from(schedule[5])).abs() < 0.51,
        "iteration 6 ran on ~{} nodes, engine says {late:.2}",
        schedule[5]
    );
    assert!(
        late < first,
        "node count must drop mid-run ({first:.2} -> {late:.2})"
    );

    // Fewer nodes on the shrunk iterations means higher dynamic efficiency
    // than the same iterations at the full allocation.
    let full = w.profile(8).unwrap();
    assert!(realized.points[5].efficiency > full.points[5].efficiency);
}

#[test]
fn lu_profile_decays_and_stencil_profile_is_flat() {
    let env = SimEnv::paper();
    let lu = env.lu_workload(env.lu_sized(288, 36, 8));
    let p = lu.profile(4).unwrap();
    // LU's trailing matrix shrinks: mid-run efficiency decays (the last
    // iteration's cleanup spike is excluded, as in the paper's Figure 11).
    assert!(
        p.points[0].efficiency > p.points[6].efficiency,
        "LU efficiency must decay: {:.2} -> {:.2}",
        p.points[0].efficiency,
        p.points[6].efficiency
    );

    let st = env.stencil_workload(env.stencil(768, 12, 8));
    let p = st.profile(4).unwrap();
    let effs: Vec<f64> = p.points.iter().map(|pt| pt.efficiency).collect();
    let (min, max) = effs
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &e| (lo.min(e), hi.max(e)));
    assert!(
        max - min < 0.1,
        "stencil efficiency must be flat, spread {min:.2}..{max:.2}"
    );
}

#[test]
fn profiles_are_memoized_per_workload_and_node_count() {
    let env = SimEnv::paper();
    let r = serve(MALLEABLE, sim_job_set(&env)).report;
    assert!(r.cache_entries >= 3, "profiles were computed");
    assert!(
        r.cache_hits > r.cache_misses,
        "boundaries re-read memoized profiles: {} hits, {} misses",
        r.cache_hits,
        r.cache_misses
    );
    // Identically configured workloads share cache entries by key.
    let mut cache = ProfileCache::new();
    cache
        .profile(&env.lu_workload(env.lu_sized(288, 36, 8)), 8)
        .unwrap();
    let dup = env.lu_workload(env.lu_sized(288, 36, 8));
    cache.profile(&dup, 8).unwrap();
    assert_eq!(cache.len(), 1, "equal keys share memoized profiles");
}

#[test]
fn sim_backed_reports_are_deterministic() {
    let env = SimEnv::paper();
    let a = serve(MALLEABLE, sim_job_set(&env));
    let b = serve(MALLEABLE, sim_job_set(&env));
    assert_eq!(a.report.canonical_string(), b.report.canonical_string());
    assert_eq!(a.journal.unwrap().encode(), b.journal.unwrap().encode());
}
