//! Panic isolation in the sweep harness: one poisoned point must become an
//! `!error` row while every other point's rendered CSV bytes stay identical
//! to a clean sweep — under serial and parallel thread counts alike.

use dps_bench::{run_scenario, run_scenario_with};
use workload::{ScenarioCtx, ScenarioPoint, ScenarioSpec};

fn poisoned_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "poisoned",
        summary: "sweep with one panicking point",
        points: |ctx| {
            let seed = ctx.seed;
            vec![
                ScenarioPoint::new("alpha", move || {
                    vec![("value", seed as f64), ("twice", 2.0 * seed as f64)]
                }),
                ScenarioPoint::new("boom", || panic!("injected failure for isolation test")),
                ScenarioPoint::new("gamma", move || {
                    vec![
                        ("value", seed as f64 + 1.0),
                        ("twice", 2.0 * seed as f64 + 2.0),
                    ]
                }),
            ]
        },
    }
}

fn clean_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "poisoned",
        summary: "sweep with one panicking point",
        points: |ctx| {
            let seed = ctx.seed;
            vec![
                ScenarioPoint::new("alpha", move || {
                    vec![("value", seed as f64), ("twice", 2.0 * seed as f64)]
                }),
                ScenarioPoint::new("gamma", move || {
                    vec![
                        ("value", seed as f64 + 1.0),
                        ("twice", 2.0 * seed as f64 + 2.0),
                    ]
                }),
            ]
        },
    }
}

fn sweep_csv(spec: &ScenarioSpec, ctx: &ScenarioCtx, threads: usize) -> String {
    run_scenario_with(spec, ctx, threads).csv
}

#[test]
fn panicking_point_leaves_other_rows_byte_identical() {
    let ctx = ScenarioCtx::new(true, 42);
    let serial = sweep_csv(&poisoned_spec(), &ctx, 1);
    let parallel = sweep_csv(&poisoned_spec(), &ctx, 4);
    assert_eq!(
        serial, parallel,
        "isolation must not depend on thread count"
    );

    // Every non-poisoned row is byte-identical to the clean sweep's row.
    let clean = sweep_csv(&clean_spec(), &ctx, 1);
    let clean_rows: Vec<&str> = clean.lines().collect();
    let poisoned_rows: Vec<&str> = serial.lines().collect();
    assert_eq!(poisoned_rows.len(), clean_rows.len() + 1);
    assert_eq!(poisoned_rows[0], clean_rows[0], "same headers");
    assert_eq!(poisoned_rows[1], clean_rows[1], "alpha row unchanged");
    assert_eq!(poisoned_rows[3], clean_rows[2], "gamma row unchanged");
    assert!(
        poisoned_rows[2].starts_with("boom,!error,"),
        "poisoned row must carry the panic: {}",
        poisoned_rows[2]
    );
    assert!(poisoned_rows[2].contains("injected failure"));
}

#[test]
fn poisoned_scenario_still_flows_through_the_runner() {
    // End to end through run_scenario: the error row is part of the
    // deterministic output, next to the surviving points' rows.
    let out = run_scenario(&poisoned_spec(), &ScenarioCtx::new(true, 7));
    assert!(out.csv.contains("boom,!error,"));
    assert!(out.csv.contains("alpha,"));
    assert!(out.csv.contains("gamma,"));
}
