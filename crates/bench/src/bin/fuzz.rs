//! Determinism fuzzer CLI (see `dps_bench::fuzz` for what each case
//! checks).
//!
//! ```text
//! fuzz [--seed N] [--cases N] [--budget-secs N] [--quiet]
//! fuzz --journal [--seed N] [--flips N]
//! ```
//!
//! Runs seeded randomized determinism cases until the case count or the
//! wall-clock budget is exhausted, printing one line per case and a final
//! summary. Exits non-zero if any case failed; the failure lines carry the
//! pinpointed first-diverging-event diagnostics.
//!
//! `--journal` instead fuzzes the journal *codec*: every truncated prefix
//! of a seeded reference journal must come back as a typed decode error
//! (never a panic, never a silent success), seeded bit flips must never
//! panic the decoder, truncated entry batches must be rejected by the
//! incremental appender, and the same journal framed as a WAL must scan
//! back to whole frames (at most one torn tail) at every truncation and
//! under seeded bit flips.

use std::time::{Duration, Instant};

use dps_bench::fuzz::{fuzz_journal_decode, fuzz_with, FuzzConfig};

struct Args {
    seed: u64,
    cases: usize,
    budget: Option<Duration>,
    quiet: bool,
    journal: bool,
    flips: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        seed: 42,
        cases: 100,
        budget: None,
        quiet: false,
        journal: false,
        flips: 512,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut num = |name: &str| -> u64 {
            it.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{name} expects a number"))
        };
        match a.as_str() {
            "--seed" => args.seed = num("--seed"),
            "--cases" => args.cases = num("--cases") as usize,
            "--budget-secs" => args.budget = Some(Duration::from_secs(num("--budget-secs"))),
            "--quiet" => args.quiet = true,
            "--journal" => args.journal = true,
            "--flips" => args.flips = num("--flips") as usize,
            "--help" | "-h" => {
                println!(
                    "usage: fuzz [--seed N] [--cases N] [--budget-secs N] [--quiet]\n\
                            fuzz --journal [--seed N] [--flips N]"
                );
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

fn fuzz_journal(args: &Args) {
    let start = Instant::now();
    println!("fuzz --journal: seed={} flips={}", args.seed, args.flips);
    match fuzz_journal_decode(args.seed, args.flips) {
        Ok(r) => println!(
            "fuzz --journal: ok — {} byte journal, {} truncations, {} bit flips, \
             {} batch truncations, {} WAL truncations, {} WAL bit flips in {:.1}s",
            r.bytes,
            r.truncations,
            r.flips,
            r.batch_truncations,
            r.wal_truncations,
            r.wal_flips,
            start.elapsed().as_secs_f64()
        ),
        Err(failures) => {
            for f in &failures {
                eprintln!("FAIL {f}");
            }
            eprintln!("fuzz --journal: {} failures", failures.len());
            std::process::exit(1);
        }
    }
}

fn main() {
    let args = parse_args();
    if args.journal {
        fuzz_journal(&args);
        return;
    }
    let start = Instant::now();
    println!(
        "fuzz: seed={} cases={} budget={:?}",
        args.seed, args.cases, args.budget
    );

    let mut seen_ok = 0usize;
    let mut seen_fail = 0usize;
    let out = fuzz_with(
        &FuzzConfig {
            seed: args.seed,
            cases: args.cases,
        },
        |out| {
            if !args.quiet && out.cases.len() > seen_ok {
                let c = &out.cases[out.cases.len() - 1];
                println!(
                    "  case {}: ok ({}, {} events)",
                    c.index, c.what, c.journal_len
                );
            }
            if out.failures.len() > seen_fail {
                eprintln!("  {}", out.failures[out.failures.len() - 1]);
            }
            seen_ok = out.cases.len();
            seen_fail = out.failures.len();
            args.budget.is_none_or(|b| start.elapsed() < b)
        },
    );

    for f in &out.failures {
        eprintln!("FAIL {f}");
    }
    println!(
        "fuzz: out-of-range node ids {:?} rejected with typed errors",
        out.rejected_nodes
    );
    println!(
        "fuzz: {} ok, {} failed in {:.1}s",
        out.cases.len(),
        out.failures.len(),
        start.elapsed().as_secs_f64()
    );
    if !out.failures.is_empty() {
        std::process::exit(1);
    }
}
