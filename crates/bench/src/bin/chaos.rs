//! Chaos harness CLI: crash the durable sharded cluster service at
//! seeded commit boundaries, recover each crash, and require the
//! recovered run to be byte-identical to the uninterrupted one.
//!
//! ```text
//! chaos [--points N] [--seed N] [--faulted] [--quiet]
//! ```
//!
//! Each crash point truncates the write-ahead log at a seeded frame
//! boundary (tearing the in-flight frame), recovers by validated replay,
//! and pinpoint-diffs the recovered decision journal and report against
//! the baseline. Exits non-zero if any crash point diverged.
//! `DVNS_SMOKE=1` shrinks the run to CI size; `--points` sets the number
//! of crash points (default 8).

use dps_bench::chaos::{run_chaos, ChaosConfig};
use dps_bench::smoke;

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
    let cfg = ChaosConfig {
        points: args.points,
        seed: args.seed,
        faulted: args.faulted,
        smoke: smoke(),
    };
    let out = run_chaos(&cfg, |l| {
        if !args.quiet {
            println!("{l}");
        }
    });
    for f in &out.failures {
        eprintln!("FAIL {f}");
    }
    let s = &out.summary;
    println!(
        "chaos: {}/{} crash points recovered byte-identically ({} torn tails), \
         catch-up mean {:.2}s max {:.2}s",
        s.passed, s.points, s.torn, s.mean_catch_up_secs, s.max_catch_up_secs
    );
    if !out.passed() {
        std::process::exit(1);
    }
}
