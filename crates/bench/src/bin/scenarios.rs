//! Scenario runner: lists and executes any registered scenario —
//! the workload crate's built-ins (efficiency profiles, the simulator-
//! backed cluster server) plus this crate's figure reproductions and
//! model ablations — through the bench harness.
//!
//! ```text
//! scenarios --list          # every registered scenario
//! scenarios server-sim      # run one (or several) by name
//! scenarios --all           # run everything
//! scenarios server-elastic --seed 7   # re-seed the stochastic inputs
//! ```
//!
//! `--seed N` (default 42) is the root seed every stochastic ingredient —
//! analytic job sets, fault schedules — derives from; two invocations with
//! the same seed emit byte-identical CSVs. `DVNS_SMOKE=1` (or the
//! `--smoke` flag) shrinks every scenario to its CI-sized subset and
//! `DVNS_THREADS` bounds the fan-out.
//!
//! `--journal` additionally records the committed-event journal of the
//! reference LU run at the session seed and writes it (with replay
//! metadata) to `results/lu_reference.journal`.
//!
//! `--replay [path]` instead verifies such a journal (default
//! `results/lu_reference.journal`): the run is rebuilt from the journal's
//! own metadata and simulated once, and it must re-emit the recorded event
//! stream and canonical digest byte-for-byte. A mismatch exits non-zero
//! naming the first diverging event.
//!
//! Only virtual-time values are written here. Host-time numbers (jobs/s,
//! decision latency, fork-vs-fresh) come from `benchmark run` / `trace`;
//! the crash/recovery sweep is the `chaos` binary.

use dps_bench::{
    default_journal_path, emit, figure_scenarios, record_reference_journal, replay_journal_file,
    run_scenario, smoke,
};
use workload::{builtin_scenarios, find_scenario, ScenarioCtx, ScenarioSpec, DEFAULT_SEED};

fn registry() -> Vec<ScenarioSpec> {
    let mut specs = builtin_scenarios();
    specs.extend(figure_scenarios());
    specs
}

fn list(specs: &[ScenarioSpec]) {
    let width = specs.iter().map(|s| s.name.len()).max().unwrap_or(0);
    println!("registered scenarios:");
    for s in specs {
        println!("  {:width$}  {}", s.name, s.summary);
    }
    println!("\nrun with: scenarios <name>... | --all   (DVNS_SMOKE=1 for the CI-sized subset)");
}

fn run(spec: &ScenarioSpec, ctx: &ScenarioCtx) {
    let outcome = run_scenario(spec, ctx);
    emit(
        &format!("scenario_{}", spec.name),
        &outcome.text,
        Some(&outcome.csv),
    );
}

/// The `--replay` mode: verify a recorded reference journal end to end.
/// Exits the process (0 on a faithful replay, 1 with a pinpointed
/// diagnostic otherwise).
fn replay_mode(path_arg: Option<String>) -> ! {
    let path = path_arg.map_or_else(default_journal_path, std::path::PathBuf::from);
    match replay_journal_file(&path) {
        Ok(r) => {
            println!(
                "replay: {} ({} events) byte-identical",
                path.display(),
                r.events
            );
            std::process::exit(0);
        }
        Err(msg) => {
            eprintln!("replay: {msg}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--replay") {
        replay_mode(args.get(i + 1).cloned());
    }
    let mut seed = DEFAULT_SEED;
    if let Some(i) = args.iter().position(|a| a == "--seed") {
        let value = args.get(i + 1).unwrap_or_else(|| {
            eprintln!("--seed needs a value");
            std::process::exit(2);
        });
        seed = value.parse().unwrap_or_else(|_| {
            eprintln!("--seed needs an unsigned integer, got `{value}`");
            std::process::exit(2);
        });
        args.drain(i..=i + 1);
    }
    let mut journal = false;
    if let Some(i) = args.iter().position(|a| a == "--journal") {
        journal = true;
        args.remove(i);
    }
    let mut force_smoke = false;
    if let Some(i) = args.iter().position(|a| a == "--smoke") {
        force_smoke = true;
        args.remove(i);
    }
    let ctx = ScenarioCtx::new(smoke() || force_smoke, seed);
    let specs = registry();
    if !journal && (args.is_empty() || args.iter().any(|a| a == "--list")) {
        list(&specs);
        return;
    }

    let selected: Vec<&ScenarioSpec> = if args.iter().any(|a| a == "--all") {
        specs.iter().collect()
    } else {
        args.iter()
            .map(|name| {
                find_scenario(&specs, name).unwrap_or_else(|| {
                    eprintln!("unknown scenario `{name}` — try --list");
                    std::process::exit(2);
                })
            })
            .collect()
    };

    for spec in selected {
        run(spec, &ctx);
    }
    if journal {
        let path = default_journal_path();
        match record_reference_journal(seed, ctx.smoke, &path) {
            Ok(probe) => println!(
                "journal: {} events recorded to {} (canonical {})",
                probe.events,
                path.display(),
                probe.digest
            ),
            Err(msg) => {
                eprintln!("journal: {msg}");
                std::process::exit(1);
            }
        }
    }
}
