//! `lurun` — run the LU application with identical command-line arguments
//! on any engine, the property the paper highlights: "the real and
//! simulated applications may be run identically, and the command line
//! arguments (which may for instance specify the number of nodes to be used
//! or the decomposition granularity) will have the same effect on both
//! versions of the program."
//!
//! ```text
//! lurun [--engine sim|testbed|native] [--n 2592] [--r 216] [--nodes 8]
//!       [--workers W] [--pipelined] [--fc WINDOW] [--pm SUBBLOCK]
//!       [--kill AFTER:COUNT]... [--mode real|alloc|ghost] [--seed S]
//!       [--target us2|p4|x86] [--net fast|gig|ideal] [--gantt]
//! ```

use desim::SimDuration;
use dps_sim::{trace_from_journal, SimConfig, TimingMode};
use lu_app::{build_lu_app, DataMode, LuConfig};
use netmodel::NetParams;
use perfmodel::{LuCost, PlatformProfile};
use testbed::TestbedParams;

fn usage() -> ! {
    eprintln!(
        "usage: lurun [--engine sim|testbed|native] [--n N] [--r R] [--nodes K]\n\
         \x20            [--workers W] [--pipelined] [--fc WINDOW] [--pm SUBBLOCK]\n\
         \x20            [--kill AFTER:COUNT]... [--mode real|alloc|ghost] [--seed S]\n\
         \x20            [--target us2|p4|x86] [--net fast|gig|ideal] [--gantt]"
    );
    std::process::exit(2);
}

fn main() {
    let mut engine = "sim".to_string();
    let mut net_name = "fast".to_string();
    let mut target = "us2".to_string();
    let mut gantt = false;
    let mut workers_set = false;
    let mut cfg = LuConfig::new(2592, 216, 8);
    cfg.mode = DataMode::Ghost;

    let mut args = std::env::args().skip(1);
    let next_val = |args: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        args.next().unwrap_or_else(|| {
            eprintln!("missing value for {flag}");
            usage()
        })
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--engine" => engine = next_val(&mut args, "--engine"),
            "--n" => {
                cfg.n = next_val(&mut args, "--n")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--r" => {
                cfg.r = next_val(&mut args, "--r")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--nodes" => {
                cfg.nodes = next_val(&mut args, "--nodes")
                    .parse()
                    .unwrap_or_else(|_| usage());
            }
            "--workers" => {
                cfg.workers = next_val(&mut args, "--workers")
                    .parse()
                    .unwrap_or_else(|_| usage());
                workers_set = true;
            }
            "--pipelined" => cfg.pipelined = true,
            "--fc" => {
                cfg.flow_control = Some(
                    next_val(&mut args, "--fc")
                        .parse()
                        .unwrap_or_else(|_| usage()),
                )
            }
            "--pm" => {
                cfg.parallel_mul = Some(
                    next_val(&mut args, "--pm")
                        .parse()
                        .unwrap_or_else(|_| usage()),
                )
            }
            "--kill" => {
                let v = next_val(&mut args, "--kill");
                let (a, c) = v.split_once(':').unwrap_or_else(|| usage());
                cfg.removal.push((
                    a.parse().unwrap_or_else(|_| usage()),
                    c.parse().unwrap_or_else(|_| usage()),
                ));
            }
            "--mode" => {
                cfg.mode = match next_val(&mut args, "--mode").as_str() {
                    "real" => DataMode::Real,
                    "alloc" => DataMode::Alloc,
                    "ghost" => DataMode::Ghost,
                    _ => usage(),
                }
            }
            "--seed" => {
                cfg.seed = next_val(&mut args, "--seed")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--target" => target = next_val(&mut args, "--target"),
            "--net" => net_name = next_val(&mut args, "--net"),
            "--gantt" => gantt = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other}");
                usage();
            }
        }
    }

    let profile = match target.as_str() {
        "us2" => PlatformProfile::ultrasparc_ii_440(),
        "p4" => PlatformProfile::pentium4_2800(),
        "x86" => PlatformProfile::modern_x86(),
        _ => usage(),
    };
    cfg.cost = Some(LuCost::new(profile));
    let net = match net_name.as_str() {
        "fast" => NetParams::fast_ethernet(),
        "gig" => NetParams::gigabit_ethernet(),
        "ideal" => NetParams::ideal(),
        _ => usage(),
    };
    if !workers_set {
        cfg.workers = cfg.nodes;
    }
    if let Err(e) = cfg.validate() {
        eprintln!("invalid configuration: {e}");
        std::process::exit(2);
    }

    let simcfg = SimConfig {
        timing: if cfg.mode == DataMode::Real && engine != "testbed" {
            TimingMode::Measured
        } else {
            TimingMode::ChargedOnly
        },
        step_overhead: SimDuration::from_micros(50),
        record_journal: gantt,
        ..SimConfig::default()
    };

    println!(
        "LU {n}x{n}, r={r}, {nodes} nodes / {workers} workers, {variant}, mode {mode:?}, \
         target {target}, net {net_name}, engine {engine}",
        n = cfg.n,
        r = cfg.r,
        nodes = cfg.nodes,
        workers = cfg.workers,
        variant = cfg.variant_label(),
        mode = cfg.mode,
    );

    match engine.as_str() {
        "sim" => match lu_app::predict_lu(&cfg, net, &simcfg) {
            Ok(run) => report(&run, &cfg, gantt),
            Err(e) => {
                eprintln!("simulation failed: {e}");
                std::process::exit(1);
            }
        },
        "testbed" => {
            match lu_app::measure_lu(&cfg, TestbedParams::sun_cluster(), cfg.seed, &simcfg) {
                Ok(run) => report(&run, &cfg, gantt),
                Err(e) => {
                    eprintln!("testbed run failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        "native" => {
            let (app, sh) = build_lu_app(cfg.clone());
            let r = testbed::run_native(&app, std::time::Duration::from_secs(3600));
            assert!(r.terminated, "native run did not terminate");
            println!("native wall time: {:.3}s", r.wall.as_secs_f64());
            if cfg.mode == DataMode::Real {
                let out = sh.result.lock().unwrap().take().expect("output");
                let a = linalg::Matrix::random(cfg.n, cfg.n, cfg.seed);
                let f = linalg::blocked::LuFactors {
                    lu: out.lu,
                    pivots: out.pivots,
                };
                println!("residual: {:.2e}", linalg::lu_residual(&a, &f));
            }
        }
        _ => usage(),
    }
}

fn report(run: &lu_app::LuRun, cfg: &LuConfig, gantt: bool) {
    println!(
        "factorization time: {:.3}s   (completion {:.3}s, host {:?})",
        run.factorization_time.as_secs_f64(),
        run.report.completion.as_secs_f64(),
        run.report.host_wall
    );
    println!(
        "steps: {}   transfers: {}   peak modeled memory: {:.1} MB   max queue: {}",
        run.report.steps,
        run.report.net.flows_completed,
        run.report.mem_peak_bytes as f64 / 1e6,
        run.report.max_queue_len
    );
    if let Some(res) = run.residual {
        println!("residual: {res:.2e}");
    }
    println!("per-iteration times and dynamic efficiency:");
    for p in cluster::profile_from_report(&run.report).points {
        println!(
            "  {:>8}  {:8.2}s   {:5.1}%",
            p.label,
            p.span.as_secs_f64(),
            p.efficiency * 100.0
        );
    }
    if gantt {
        if let Some(journal) = &run.report.journal {
            let app = build_lu_app(cfg.clone()).0;
            println!("\n{}", trace_from_journal(journal, &app).gantt(100));
        }
    }
}
