//! Scenario runner: lists and executes any registered scenario —
//! the workload crate's built-ins (efficiency profiles, the simulator-
//! backed cluster server) plus this crate's figure reproductions —
//! through the bench harness.
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
//! `DVNS_THREADS` bounds the fan-out, exactly as for the figure binaries.
//!
//! Selecting `server-scale` additionally times one more run of the
//! sharded cluster service and records host throughput (jobs/s, events/s)
//! and the P99 scheduling latency in `results/BENCH_engine.json`.
//! Selecting `server-whatif` records the what-if decision-latency
//! histogram (`whatif_decision_latency`: p50/p99/max microseconds per
//! decision) and the fork-vs-fresh candidate-scoring speedup
//! (`fork_vs_fresh_speedup`) the same way.
//!
//! `--journal` additionally records the committed-event journal of the
//! reference LU run at the session seed and writes it (with replay
//! metadata) to `results/lu_reference.journal` for `perf --replay`.
//!
//! `--chaos` additionally runs the seeded crash/recovery sweep (see the
//! `chaos` binary): the durable server-scale run is crashed at several
//! seeded commit boundaries and each recovery must be byte-identical to
//! the uninterrupted run. Records the `chaos_recovery` and
//! `recovery_latency` rows; any divergence exits non-zero, pinpointed.

use dps_bench::chaos::{record_chaos, run_chaos, ChaosConfig};
use dps_bench::{
    default_journal_path, emit, figure_scenarios, record_reference_journal, run_scenario, smoke,
    time, BenchJson,
};
use workload::{
    builtin_scenarios, find_scenario, fork_vs_fresh_bench, server_scale_bench, server_whatif_bench,
    ScenarioCtx, ScenarioSpec, SimEnv, DEFAULT_SEED,
};

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

fn run(spec: &ScenarioSpec, ctx: &ScenarioCtx, json: &mut BenchJson) {
    let (outcome, wall) = time(|| run_scenario(spec, ctx));
    emit(
        &format!("scenario_{}", spec.name),
        &outcome.text,
        Some(&outcome.csv),
    );
    json.record(&format!("scenario_{}", spec.name), &[("wall_secs", wall)]);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
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
    let mut chaos = false;
    if let Some(i) = args.iter().position(|a| a == "--chaos") {
        chaos = true;
        args.remove(i);
    }
    let mut force_smoke = false;
    if let Some(i) = args.iter().position(|a| a == "--smoke") {
        force_smoke = true;
        args.remove(i);
    }
    let ctx = ScenarioCtx::new(smoke() || force_smoke, seed);
    let specs = registry();
    if !journal && !chaos && (args.is_empty() || args.iter().any(|a| a == "--list")) {
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

    let mut json = BenchJson::new();
    let mut bench_scale = false;
    let mut bench_whatif = false;
    for spec in selected {
        run(spec, &ctx, &mut json);
        bench_scale |= spec.name == "server-scale";
        bench_whatif |= spec.name == "server-whatif";
    }
    if bench_scale {
        // Host-throughput row: one timed run at the highest shard count.
        // Virtual-time metrics live in the scenario CSV (they are
        // byte-compared); wall-clock numbers belong here.
        let (b, wall) = time(|| server_scale_bench(&ctx));
        json.record(
            "server_scale",
            &[
                ("jobs", b.jobs as f64),
                ("jobs_per_sec", b.jobs as f64 / wall.max(1e-9)),
                ("events", b.events as f64),
                ("events_per_sec", b.events as f64 / wall.max(1e-9)),
                ("p99_sched_latency_ms", b.p99_sched_latency_ms),
                ("wall_secs", wall),
            ],
        );
    }
    if bench_whatif {
        // Decision-latency row: one run with the per-decision wall-clock
        // histogram enabled.
        let (b, wall) = time(|| server_whatif_bench(&ctx));
        json.record(
            "whatif_decision_latency",
            &[
                ("jobs", b.jobs as f64),
                ("decisions", b.decisions as f64),
                ("decisions_per_sec", b.decisions as f64 / wall.max(1e-9)),
                ("p50_us", b.p50_us),
                ("p99_us", b.p99_us),
                ("max_us", b.max_us),
                ("wall_secs", wall),
            ],
        );
        // Fork-vs-fresh row: the same candidate slate answered by forking
        // one warm checkpointed base versus fresh full simulations.
        let env = SimEnv::paper();
        let mut cfg = if ctx.smoke {
            env.lu_sized(324, 81, 4)
        } else {
            env.lu_sized(648, 81, 8)
        };
        cfg.workers = cfg.nodes;
        let barriers: Vec<usize> = (1..cfg.k_blocks()).collect();
        match fork_vs_fresh_bench(&cfg, env.net, &env.simcfg, &barriers) {
            Ok(r) => json.record(
                "fork_vs_fresh_speedup",
                &[
                    ("candidates", r.candidates as f64),
                    ("forked_secs", r.forked_secs),
                    ("fresh_secs", r.fresh_secs),
                    ("speedup", r.speedup()),
                ],
            ),
            Err(e) => eprintln!("fork_vs_fresh bench failed: {e}"),
        }
    }
    if journal {
        let path = default_journal_path();
        let (res, wall) = time(|| record_reference_journal(seed, ctx.smoke, &path));
        match res {
            Ok(probe) => {
                println!(
                    "journal: {} events recorded to {} (canonical {})",
                    probe.events,
                    path.display(),
                    probe.digest
                );
                json.record(
                    "journal_probe",
                    &[("events", probe.events as f64), ("wall_secs", wall)],
                );
            }
            Err(msg) => {
                eprintln!("journal: {msg}");
                std::process::exit(1);
            }
        }
    }
    if chaos {
        // Crash/recovery sweep: fewer points than the dedicated `chaos`
        // binary — this is the "ride-along" smoke, not the full harness.
        let out = run_chaos(
            &ChaosConfig {
                points: 4,
                seed,
                faulted: true,
                smoke: ctx.smoke,
            },
            |l| println!("{l}"),
        );
        record_chaos(&mut json, &out);
        if !out.passed() {
            for f in &out.failures {
                eprintln!("chaos: {f}");
            }
            json.write();
            std::process::exit(1);
        }
    }
    json.write();
}
