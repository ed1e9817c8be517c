//! The `server-scale` and `server-whatif` experiments: the sharded
//! cluster service driven by large synthetic streams.
//!
//! `server-scale`: one configuration (8 cells × 8 nodes, four weighted
//! tenants, elastic recovery) is served the same seeded [`SyntheticLoad`]
//! at several shard counts — the CSV rows demonstrate that every
//! virtual-time metric is identical across shard counts, which is the
//! service's determinism contract — plus one row under a seeded
//! cross-shard fault plan.
//!
//! `server-whatif`: the same topology under [`SchedulePolicy::WhatIf`],
//! with simulator-backed LU jobs mixed into the analytic stream so
//! placement and boundary decisions are scored by forking the jobs' live
//! simulations. Its rows additionally surface the [`cluster::ProfileCache`]
//! hit/miss/eviction counters and the what-if decision counters.
//!
//! Only virtual-time metrics go into scenario fields (they are
//! byte-compared); host throughput and decision latency are measured by
//! the `benchmark/` package's `server_scale` and `server_whatif` workloads.

use std::sync::Arc;

use cluster::Workload;
use cluster_svc::{
    ClusterService, JobSpec, SchedulePolicy, ServeOptions, ServiceConfig, ServiceOutcome,
    ServiceReport, SyntheticLoad, TenantSpec,
};
use desim::{SimDuration, SimTime};
use faults::{CheckpointSpec, FaultGenConfig, FaultPlan};

use crate::apps::LuWorkload;
use crate::env::SimEnv;
use crate::scenarios::{ScenarioCtx, ScenarioPoint};

/// Jobs per full-scale run (the ISSUE's ≥1M floor, with headroom).
pub const SCALE_JOBS: u64 = 1_050_000;
/// Jobs per CI smoke run.
pub const SCALE_SMOKE_JOBS: u64 = 20_000;

/// Mean interarrival of the synthetic stream (400 ms).
const MEAN_INTERARRIVAL: SimDuration = SimDuration(400_000_000);
/// Mean serial work per max-size job (20 s, scaled down with the request).
const MEAN_WORK: SimDuration = SimDuration(20_000_000_000);
/// Tenants in the stream (must match the config's tenant count).
const TENANTS: u32 = 4;
/// Largest node request in the stream (= nodes per cell).
const MAX_REQUEST: u32 = 8;

/// The service topology the experiment runs: 8 cells of 8 nodes under
/// elastic recovery, four tenants with 4:2:1:1 fair-share weights, an
/// inflight quota on the interactive tenant and admission backpressure on
/// the scavenger.
pub fn server_scale_config(shards: u32) -> ServiceConfig {
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

/// The batch configuration of the `server-sim`, `server-analytic` and
/// `server-elastic` scenarios: one cell of `nodes` nodes, one shard, one
/// tenant, no quotas — a single FCFS queue in front of one node pool.
pub fn one_cell_config(nodes: u32, policy: SchedulePolicy) -> ServiceConfig {
    ServiceConfig::new(nodes, 1, 1, policy).with_tenant(TenantSpec::new("batch", 1))
}

/// The seeded synthetic job stream (`jobs` jobs, O(1) memory).
pub fn server_scale_load(jobs: u64, seed: u64) -> SyntheticLoad {
    SyntheticLoad::new(
        jobs,
        TENANTS,
        MAX_REQUEST,
        MEAN_INTERARRIVAL,
        MEAN_WORK,
        seed,
    )
}

/// The seeded cross-shard fault plan for the faulted row: a few crashes
/// and preemptions (drain + requeue across cells), slowdown and degrade
/// windows, under a periodic checkpoint model.
pub fn server_scale_plan(jobs: u64, seed: u64) -> FaultPlan {
    let horizon = SimDuration(MEAN_INTERARRIVAL.as_nanos().saturating_mul(jobs));
    FaultGenConfig {
        crashes: 3,
        preempts: 6,
        slowdowns: 4,
        degrades: 2,
        checkpoint: CheckpointSpec::every(
            2,
            SimDuration::from_millis(50),
            SimDuration::from_millis(200),
        ),
        ..FaultGenConfig::quiet(server_scale_config(1).total_nodes(), horizon)
    }
    .generate(seed)
}

/// Runs the experiment once and returns the service report.
pub fn run_server_scale(shards: u32, jobs: u64, seed: u64, faulted: bool) -> ServiceReport {
    let svc = ClusterService::new(server_scale_config(shards)).expect("valid scale config");
    let plan = if faulted {
        server_scale_plan(jobs, seed)
    } else {
        FaultPlan::none()
    };
    svc.serve(
        server_scale_load(jobs, seed),
        &plan,
        &ServeOptions::default(),
    )
    .expect("scale serve run")
    .report
}

fn scale_fields(r: &ServiceReport) -> Vec<(&'static str, f64)> {
    vec![
        ("submitted", r.submitted as f64),
        ("completed", r.completed_jobs() as f64),
        ("rejected", r.rejected_jobs() as f64),
        ("failed", r.failed_jobs() as f64),
        ("restarts", r.total_restarts() as f64),
        ("makespan_secs", r.makespan.as_secs_f64()),
        ("jobs_per_vsec", r.jobs_per_virtual_sec()),
        ("p99_wait_ms", r.p99_wait().as_secs_f64() * 1e3),
        ("mean_wait_ms", r.mean_wait().as_secs_f64() * 1e3),
        ("alloc_eff_pct", r.allocation_efficiency() * 100.0),
        ("utilization_pct", r.utilization() * 100.0),
        ("lost_work_secs", r.total_lost_work().as_secs_f64()),
    ]
}

/// The scenario's points: quiet rows at several shard counts (identical
/// virtual metrics — the determinism contract rendered as data) plus a
/// faulted row.
pub fn server_scale_points(ctx: &ScenarioCtx) -> Vec<ScenarioPoint> {
    let jobs = if ctx.smoke {
        SCALE_SMOKE_JOBS
    } else {
        SCALE_JOBS
    };
    let quiet_shards: &[u32] = if ctx.smoke { &[1, 2] } else { &[1, 2, 4] };
    let fault_shards = if ctx.smoke { 2 } else { 4 };
    let seed = ctx.seed;
    let mut points: Vec<ScenarioPoint> = quiet_shards
        .iter()
        .map(|&shards| {
            ScenarioPoint::new(format!("scale {shards} shard quiet"), move || {
                scale_fields(&run_server_scale(shards, jobs, seed, false))
            })
        })
        .collect();
    points.push(ScenarioPoint::new(
        format!("scale {fault_shards} shard faulted"),
        move || scale_fields(&run_server_scale(fault_shards, jobs, seed, true)),
    ));
    points
}

// ----- the server-whatif experiment -----------------------------------------

/// Synthetic jobs per full-scale what-if run. Smaller than [`SCALE_JOBS`]:
/// every placement and boundary decision scores a candidate slate, so the
/// per-job work is an order of magnitude higher than the elastic policy's.
pub const WHATIF_JOBS: u64 = 60_000;
/// Synthetic jobs per CI smoke what-if run.
pub const WHATIF_SMOKE_JOBS: u64 = 6_000;
/// Simulator-backed LU jobs mixed into a full-scale what-if stream.
pub const WHATIF_BOXED: usize = 24;
/// Simulator-backed LU jobs in a smoke what-if stream.
pub const WHATIF_SMOKE_BOXED: usize = 8;

/// The what-if service topology: identical to [`server_scale_config`]
/// except the policy, so the two experiments differ only in how decisions
/// are made.
pub fn server_whatif_config(shards: u32) -> ServiceConfig {
    ServiceConfig::new(
        8,
        8,
        shards,
        SchedulePolicy::WhatIf {
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

/// The shared simulator-backed LU job the what-if stream mixes in: a
/// 648×648 blocked factorization with eight column blocks, one worker per
/// node so the what-if machinery can fork and shrink it mid-run.
fn whatif_lu_workload() -> Arc<dyn Workload> {
    let env = SimEnv::paper();
    let mut cfg = env.lu_sized(648, 81, MAX_REQUEST);
    cfg.workers = MAX_REQUEST;
    Arc::new(LuWorkload::new(cfg, env.net, env.simcfg))
}

/// The what-if job stream: the seeded synthetic stream with `boxed`
/// simulator-backed LU jobs (all sharing one [`LuWorkload`], so profile
/// and score memoization across jobs is visible in the cache counters)
/// spread evenly over its span, merged in arrival order.
pub fn server_whatif_load(jobs: u64, boxed: usize, seed: u64) -> Vec<JobSpec> {
    let mut specs: Vec<JobSpec> = server_scale_load(jobs, seed).collect();
    let horizon = specs.last().map_or(0, |s| s.arrival.as_nanos());
    let lu = whatif_lu_workload();
    for i in 0..boxed {
        let arrival = SimTime(horizon.saturating_mul(i as u64 + 1) / (boxed as u64 + 1));
        specs.push(JobSpec::boxed(0, arrival, MAX_REQUEST, lu.clone()));
    }
    // Stable: equal arrivals keep synthetic-before-boxed submission order.
    specs.sort_by_key(|s| s.arrival);
    specs
}

/// Runs the what-if experiment once. Returns the full [`ServiceOutcome`]
/// so determinism tests can byte-compare the decision journal.
pub fn run_server_whatif(
    shards: u32,
    jobs: u64,
    boxed: usize,
    seed: u64,
    faulted: bool,
    opts: &ServeOptions,
) -> ServiceOutcome {
    let svc = ClusterService::new(server_whatif_config(shards)).expect("valid what-if config");
    let plan = if faulted {
        server_scale_plan(jobs, seed)
    } else {
        FaultPlan::none()
    };
    svc.serve(server_whatif_load(jobs, boxed, seed), &plan, opts)
        .expect("what-if serve run")
}

/// The scale fields plus the profile-cache and what-if decision counters
/// (all deterministic, so they participate in the byte-compare).
fn whatif_fields(r: &ServiceReport) -> Vec<(&'static str, f64)> {
    let mut f = scale_fields(r);
    f.extend([
        ("cache_hits", r.cache_hits as f64),
        ("cache_misses", r.cache_misses as f64),
        ("cache_entries", r.cache_entries as f64),
        ("cache_evictions", r.cache_evictions as f64),
        ("wi_decisions", r.whatif.decisions as f64),
        ("wi_candidates", r.whatif.candidates as f64),
        ("wi_fork_scored", r.whatif.fork_scored as f64),
        ("wi_memo_scored", r.whatif.memo_scored as f64),
        ("wi_profile_scored", r.whatif.profile_scored as f64),
        ("wi_analytic_scored", r.whatif.analytic_scored as f64),
        ("wi_sessions", r.whatif.sessions_opened as f64),
        ("wi_migrations", r.whatif.migrations as f64),
        ("wi_extra_ckpts", r.whatif.extra_checkpoints as f64),
    ]);
    f
}

/// The `server-whatif` scenario's points: quiet rows at several shard
/// counts (byte-identical, like `server-scale`) plus a faulted row.
pub fn server_whatif_points(ctx: &ScenarioCtx) -> Vec<ScenarioPoint> {
    let (jobs, boxed) = if ctx.smoke {
        (WHATIF_SMOKE_JOBS, WHATIF_SMOKE_BOXED)
    } else {
        (WHATIF_JOBS, WHATIF_BOXED)
    };
    let quiet_shards: &[u32] = if ctx.smoke { &[1, 2] } else { &[1, 2, 4] };
    let fault_shards = if ctx.smoke { 2 } else { 4 };
    let seed = ctx.seed;
    let mut points: Vec<ScenarioPoint> = quiet_shards
        .iter()
        .map(|&shards| {
            ScenarioPoint::new(format!("whatif {shards} shard quiet"), move || {
                let out =
                    run_server_whatif(shards, jobs, boxed, seed, false, &ServeOptions::default());
                whatif_fields(&out.report)
            })
        })
        .collect();
    points.push(ScenarioPoint::new(
        format!("whatif {fault_shards} shard faulted"),
        move || {
            let out = run_server_whatif(
                fault_shards,
                jobs,
                boxed,
                seed,
                true,
                &ServeOptions::default(),
            );
            whatif_fields(&out.report)
        },
    ));
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_scale_run_completes_the_stream() {
        let r = run_server_scale(2, 2_000, 7, false);
        assert_eq!(r.submitted, 2_000);
        assert_eq!(
            r.completed_jobs() + r.failed_jobs() + r.rejected_jobs(),
            2_000
        );
        assert!(r.completed_jobs() > 1_900, "quiet runs complete nearly all");
        assert!(r.p99_wait() >= r.mean_wait());
    }

    #[test]
    fn faulted_scale_run_restarts_and_still_serves() {
        let r = run_server_scale(2, 2_000, 7, true);
        assert!(
            r.total_restarts() > 0,
            "the seeded plan must interrupt jobs"
        );
        assert!(r.completed_jobs() > 1_800);
        assert!(r.total_lost_work() > SimDuration::ZERO);
    }

    #[test]
    fn whatif_load_interleaves_boxed_jobs_in_arrival_order() {
        let specs = server_whatif_load(500, 4, 7);
        assert_eq!(specs.len(), 504);
        assert!(specs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        let boxed = specs
            .iter()
            .filter(|s| matches!(s.payload, cluster_svc::JobPayload::Boxed(_)))
            .count();
        assert_eq!(boxed, 4);
    }

    #[test]
    fn smoke_whatif_run_scores_forks_and_fills_the_cache() {
        let out = run_server_whatif(2, 800, 4, 7, false, &ServeOptions::default());
        let r = &out.report;
        assert_eq!(r.submitted, 804);
        assert!(r.completed_jobs() > 700, "most jobs complete");
        assert!(r.whatif.decisions > 0, "the policy must actually decide");
        assert!(r.whatif.candidates > r.whatif.decisions);
        assert!(
            r.whatif.fork_scored > 0,
            "boxed LU jobs must be fork-scored"
        );
        assert!(
            r.whatif.analytic_scored > 0,
            "synthetic jobs score analytically"
        );
        assert!(r.cache_hits + r.cache_misses > 0, "cache counters surface");
    }
}
