//! Determinism property tests for the fork-based what-if policy: the
//! decision journal (every placement, every candidate score, every
//! committed winner) and the canonical report must be identical across
//! shard counts, quiet and under a seeded fault plan
//! (`cluster_svc::check_equivalent`), and a crashed durable serve must
//! recover to the same outcome.
//!
//! The streams mix analytic synthetic jobs with simulator-backed LU jobs,
//! so the compare covers the fork-scoring path, the profile-memo path and
//! the analytic path at once.

use std::sync::Arc;

use cluster::{EfficiencyProfile, Workload};
use cluster_svc::{
    check_equivalent, ClusterService, CrashPlan, DurabilitySpec, JobPayload, JobSpec, ServeOptions,
    ServiceOutcome,
};
use desim::{JournalEntry, SimTime};
use dps_sim::SimResult;
use faults::FaultPlan;
use workload::{server_scale_load, server_scale_plan, server_whatif_config, LuWorkload, SimEnv};

const JOBS: u64 = 300;
const BOXED: u64 = 2;
const SEED: u64 = 7;

/// The small LU job both boxed submissions run.
fn lu() -> LuWorkload {
    let env = SimEnv::paper();
    let mut cfg = env.lu_sized(324, 81, 4);
    cfg.workers = 4;
    LuWorkload::new(cfg, env.net, env.simcfg)
}

/// A small mixed stream: analytic jobs plus boxed simulator-backed LU jobs.
fn mixed_load() -> Vec<JobSpec> {
    load_with(Arc::new(lu()))
}

/// The analytic stream with `BOXED` submissions of `lu` spread across it.
fn load_with(lu: Arc<dyn Workload>) -> Vec<JobSpec> {
    let mut specs: Vec<JobSpec> = server_scale_load(JOBS, SEED).collect();
    let horizon = specs.last().expect("non-empty stream").arrival.as_nanos();
    for i in 0..BOXED {
        let arrival = SimTime(horizon * (i + 1) / (BOXED + 1));
        specs.push(JobSpec::boxed(0, arrival, 4, lu.clone()));
    }
    specs.sort_by_key(|s| s.arrival);
    specs
}

fn plan(faulted: bool) -> FaultPlan {
    if faulted {
        server_scale_plan(JOBS, SEED)
    } else {
        FaultPlan::none()
    }
}

fn service(shards: u32) -> ClusterService {
    ClusterService::new(server_whatif_config(shards)).expect("valid config")
}

fn serve(shards: u32, faulted: bool, load: Vec<JobSpec>) -> ServiceOutcome {
    let opts = ServeOptions {
        journal: true,
        ..ServeOptions::default()
    };
    service(shards)
        .serve(load, &plan(faulted), &opts)
        .expect("what-if serve")
}

fn run(shards: u32, faulted: bool) -> ServiceOutcome {
    serve(shards, faulted, mixed_load())
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

#[test]
fn repeat_runs_are_byte_identical() {
    let a = run(2, false);
    let b = run(2, false);
    let bytes = |o: &ServiceOutcome| o.journal.as_ref().expect("journal requested").encode();
    assert_eq!(bytes(&a), bytes(&b));
    assert_eq!(a.report.canonical_string(), b.report.canonical_string());
}

/// The LU job behind a backend that cannot fork: it keeps the trait's
/// default `whatif_session` (`Ok(None)`), so the service prices every
/// candidate of it from profiles.
struct NoFork(LuWorkload);

impl Workload for NoFork {
    fn key(&self) -> String {
        self.0.key()
    }
    fn iterations(&self) -> usize {
        self.0.iterations()
    }
    fn max_nodes(&self) -> u32 {
        self.0.max_nodes()
    }
    fn profile(&self, nodes: u32) -> SimResult<EfficiencyProfile> {
        self.0.profile(nodes)
    }
}

#[test]
fn fork_off_serves_are_profile_priced_and_invariant_across_shards() {
    for faulted in [false, true] {
        let load = || load_with(Arc::new(NoFork(lu())));
        let reference = serve(1, faulted, load());
        let w = &reference.report.whatif;
        assert_eq!(
            (w.fork_scored, w.sessions_opened),
            (0, 0),
            "faulted={faulted}"
        );
        assert!(w.profile_scored > 0, "faulted={faulted}: {w:?}");
        let other = serve(2, faulted, load());
        check_equivalent(&reference, &other)
            .unwrap_or_else(|e| panic!("fork off, faulted={faulted}, 2 shards: {e}"));
        let forked = run(1, faulted).report.whatif.fork_scored;
        assert!(forked > 0, "faulted={faulted}: the unwrapped serve forks");
    }
}

#[test]
fn durable_whatif_serves_recover_to_the_uninterrupted_run() {
    let spec = DurabilitySpec::group_commit(64);
    // Submission ids are stream positions.
    let ids: Vec<u64> = (0..)
        .zip(mixed_load())
        .filter(|(_, s)| matches!(s.payload, JobPayload::Boxed(_)))
        .map(|(id, _)| id)
        .collect();
    assert_eq!(ids.len(), BOXED as usize);
    for faulted in [false, true] {
        let (baseline, wal) = service(1)
            .serve_durable(
                mixed_load(),
                &plan(faulted),
                &ServeOptions::default(),
                &spec,
            )
            .expect("durable what-if serve");
        assert!(baseline.report.whatif.fork_scored > 0, "faulted={faulted}");
        let recover = |bytes: &[u8], what: &str| {
            let (out, crash) = service(2)
                .recover(
                    mixed_load(),
                    &plan(faulted),
                    &ServeOptions::default(),
                    bytes,
                )
                .unwrap_or_else(|e| panic!("faulted={faulted}, {what}: recovery failed: {e}"));
            check_equivalent(&out, &baseline)
                .unwrap_or_else(|e| panic!("faulted={faulted}, {what}: {e}"));
            let replay = out.replay.expect("resumed runs report replay stats");
            assert_eq!(replay.prefix_entries, crash.recovered_entries, "{what}");
            assert_eq!(replay.matched, replay.prefix_entries, "{what}");
        };
        // Every clean frame prefix, one of them ending between the two LU
        // jobs: the first job's forks and memos are rebuilt by re-execution,
        // the second's built fresh past the prefix.
        let entries = &baseline.journal.as_ref().expect("journal").entries;
        let of = |id: u64| move |e: &JournalEntry| e.event.ticket() == Some(id);
        let first_done = entries.iter().rposition(of(ids[0])).expect("journaled") as u64 + 1;
        let second_seen = entries.iter().position(of(ids[1])).expect("journaled") as u64;
        let between = |k| (first_done..=second_seen).contains(&wal.entries_through(k));
        assert!((1..=wal.frames()).any(between), "faulted={faulted}");
        for k in 1..=wal.frames() {
            recover(
                wal.frame_prefix(k),
                &format!("{k} of {} frames", wal.frames()),
            );
        }
        for seed in 0..3 {
            let crash = CrashPlan::new(seed);
            recover(&crash.crashed_bytes(&wal), &format!("crash seed {seed}"));
        }
    }
}
