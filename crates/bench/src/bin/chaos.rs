//! Chaos harness CLI: crash the durable sharded cluster service at
//! seeded commit boundaries, recover each crash, and require the
//! recovered run to be equivalent to the uninterrupted one.
//!
//! ```text
//! chaos [--points N] [--seed N] [--faulted] [--quiet]
//! ```
//!
//! The baseline is one durable `server-scale` run (2 shards, a WAL frame
//! sealed every 4 096 decisions). Each crash point truncates its WAL at a
//! seeded frame boundary (tearing the in-flight frame), recovers by
//! validated replay, and checks the recovered run against the baseline
//! with `cluster_svc::check_equivalent`, which names the first diverging
//! decision. Exits 1 if any crash point diverged. `DVNS_SMOKE=1` shrinks
//! the run to CI size; `--points` sets the number of crash points
//! (default 8).

use cluster_svc::{check_equivalent, ClusterService, CrashPlan, DurabilitySpec, ServeOptions};
use dps_bench::smoke;
use faults::FaultPlan;
use workload::{
    server_scale_config, server_scale_load, server_scale_plan, SCALE_JOBS, SCALE_SMOKE_JOBS,
};

/// Shard count chaos runs at: crashes and recoveries must cross shards.
const SHARDS: u32 = 2;

/// Committed decisions per sealed WAL frame: small enough that a smoke run
/// yields many distinct crash boundaries, large enough that the WAL stays
/// compact at full scale.
const GROUP_EVENTS: u64 = 4_096;

struct Args {
    points: u64,
    seed: u64,
    faulted: bool,
    quiet: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        points: 8,
        seed: 42,
        faulted: false,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut num = |name: &str| -> u64 {
            it.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{name} expects a number"))
        };
        match a.as_str() {
            "--points" => args.points = num("--points"),
            "--seed" => args.seed = num("--seed"),
            "--faulted" => args.faulted = true,
            "--quiet" => args.quiet = true,
            "--help" | "-h" => {
                println!("usage: chaos [--points N] [--seed N] [--faulted] [--quiet]");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let jobs = if smoke() {
        SCALE_SMOKE_JOBS
    } else {
        SCALE_JOBS
    };
    let plan = if args.faulted {
        server_scale_plan(jobs, args.seed)
    } else {
        FaultPlan::none()
    };
    let service = || ClusterService::new(server_scale_config(SHARDS)).expect("valid scale config");
    let log = |line: String| {
        if !args.quiet {
            println!("{line}");
        }
    };

    let (base, wal) = service()
        .serve_durable(
            server_scale_load(jobs, args.seed),
            &plan,
            &ServeOptions::default(),
            &DurabilitySpec::group_commit(GROUP_EVENTS),
        )
        .expect("durable scale run");
    log(format!(
        "chaos: baseline {jobs} jobs, {SHARDS} shards, faulted={} — {} WAL frames, {} committed entries",
        args.faulted,
        wal.frames(),
        wal.entries(),
    ));

    let mut failures = Vec::new();
    let (mut torn_tails, mut catch_up_sum, mut catch_up_max) = (0u64, 0.0f64, 0.0f64);
    let crash_base = args.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for i in 0..args.points {
        let crash = CrashPlan::new(crash_base.wrapping_add(i));
        let kept = crash.keep_frames(&wal);
        let recovered = service().recover(
            server_scale_load(jobs, args.seed),
            &plan,
            &ServeOptions::default(),
            &crash.crashed_bytes(&wal),
        );
        let (torn, catch_up, verdict) = match &recovered {
            Ok((out, report)) => (
                report.torn.is_some(),
                out.replay.map_or(0.0, |r| r.catch_up_secs),
                check_equivalent(out, &base),
            ),
            Err(e) => (kept < wal.frames(), 0.0, Err(e.to_string())),
        };
        torn_tails += u64::from(torn);
        catch_up_sum += catch_up;
        catch_up_max = catch_up_max.max(catch_up);
        let verdict = match verdict {
            Ok(()) => "ok".to_string(),
            Err(d) => {
                failures.push(format!("crash seed {}: {d}", crash.seed));
                format!("DIVERGED: {d}")
            }
        };
        log(format!(
            "  crash seed {}: kept {kept}/{} frames, recovered {}/{} entries{}, caught up in {catch_up:.2}s — {verdict}",
            crash.seed,
            wal.frames(),
            wal.entries_through(kept),
            wal.entries(),
            if torn { " (torn tail truncated)" } else { "" },
        ));
    }

    for f in &failures {
        eprintln!("FAIL {f}");
    }
    let catch_up_mean = catch_up_sum / args.points.max(1) as f64;
    println!(
        "chaos: {}/{} crash points recovered byte-identically ({torn_tails} torn tails), \
         catch-up mean {catch_up_mean:.2}s max {catch_up_max:.2}s",
        args.points - failures.len() as u64,
        args.points,
    );
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
