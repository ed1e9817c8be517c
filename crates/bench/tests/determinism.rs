//! The parallel harness must be invisible in the output: a scenario's
//! points fanned across threads render **byte-identical** CSV to the
//! serial run.
//! This holds because (a) every point's simulation is seeded and
//! self-contained, and (b) [`dps_bench::run_parallel_with`] merges results
//! in input order regardless of completion order.

use cluster_svc::{ClusterService, ServeOptions};
use dps_bench::{run_pair, run_parallel_with, run_scenario_with, Env};
use faults::FaultPlan;
use lu_app::{DataMode, LuConfig};
use workload::{
    one_cell_config, server_policies, sim_job_set, ScenarioCtx, ScenarioPoint, ScenarioSpec, SimEnv,
};

/// A miniature fig-10-shaped scenario: small matrix so debug-mode tests
/// stay fast, several block sizes, fixed per-point seeds.
fn probe_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "determinism-probe",
        summary: "block-size sweep, measured and predicted",
        points: |_| {
            [54usize, 72, 108, 216]
                .into_iter()
                .enumerate()
                .map(|(i, r)| {
                    ScenarioPoint::new(format!("r={r}"), move || {
                        let env = Env::paper();
                        let mut cfg = LuConfig::new(432, r, 4);
                        cfg.mode = DataMode::Ghost;
                        cfg.cost = Some(env.cost);
                        let pair = run_pair(&env, &cfg, 900 + i as u64);
                        vec![
                            ("measured_secs", pair.measured_secs),
                            ("predicted_secs", pair.predicted_secs),
                        ]
                    })
                })
                .collect()
        },
    }
}

fn sweep_csv(threads: usize) -> String {
    run_scenario_with(&probe_spec(), &ScenarioCtx::default(), threads).csv
}

#[test]
fn parallel_sweep_csv_is_byte_identical_to_serial() {
    let serial = sweep_csv(1);
    let parallel = sweep_csv(4);
    assert_eq!(serial.lines().count(), 5, "header plus four points");
    assert_eq!(serial, parallel, "parallel harness changed scenario output");
    // And it is stable across repeated parallel runs, too.
    assert_eq!(parallel, sweep_csv(4));
}

/// The simulator-backed one-cell server under the same contract: both
/// policies run over the sim-backed job set on one worker thread and on
/// four (the harness's explicit thread-count entry point stands in for
/// `DVNS_THREADS=1` vs `DVNS_THREADS=4` without mutating the
/// environment), and every report and decision journal must be
/// bit-identical.
fn server_sweep(threads: usize) -> Vec<(String, Vec<u8>)> {
    let points = server_policies();
    let opts = ServeOptions {
        journal: true,
        ..ServeOptions::default()
    };
    run_parallel_with(&points, threads, |_, (_, policy)| {
        let env = SimEnv::paper();
        let out = ClusterService::new(one_cell_config(8, *policy))
            .unwrap()
            .serve(sim_job_set(&env), &FaultPlan::none(), &opts)
            .unwrap();
        (out.report.canonical_string(), out.journal.unwrap().encode())
    })
}

#[test]
fn sim_backed_server_reports_are_thread_count_invariant() {
    let serial = server_sweep(1);
    let parallel = server_sweep(4);
    assert!(!serial.is_empty());
    assert_eq!(
        serial, parallel,
        "server output differs between 1 and 4 harness threads"
    );
}
