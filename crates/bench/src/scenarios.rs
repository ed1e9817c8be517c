//! The paper's exhibits registered as scenarios.
//!
//! Wraps the figure configuration sets ([`crate::experiments`]) into
//! [`ScenarioSpec`] entries, so the `scenarios` runner lists and executes
//! Figures 8–13 and the model ablations next to the workload crate's
//! built-in scenarios, under the same drift gate. "Measured" values come
//! from the seeded testbed emulator, "predicted" ones from the simulator.
//!
//! The figure points keep fixed measurement seeds (the paper's curves are
//! specific runs, not a seed sweep), so only the smoke flag of the context
//! matters here; it is handed to the configuration builders, which shrink
//! each list exactly once.

use cluster::profile_from_report;
use dps_sim::SimFabric;
use lu_app::{build_lu_app, LuConfig, LuRun};
use netmodel::Sharing;
use workload::{ScenarioCtx, ScenarioPoint, ScenarioSpec};

use crate::experiments::{
    all_configs, fig10_configs, fig13_seeds, fig8_configs, fig9_configs, rel_error,
    removal_configs, run_pair, Env,
};

type Fields = Vec<(&'static str, f64)>;

fn pair_point(label: String, cfg: LuConfig, seed: u64) -> ScenarioPoint {
    ScenarioPoint::new(label, move || {
        let env = Env::paper();
        let pair = run_pair(&env, &cfg, seed);
        vec![
            ("measured_secs", pair.measured_secs),
            ("predicted_secs", pair.predicted_secs),
            ("rel_error_pct", pair.rel_error() * 100.0),
        ]
    })
}

/// One measured/predicted row per configuration, measured at `seed + i`.
/// Figures 8–10 put a `reference` configuration first: the paper's
/// improvement factors are that row's seconds over a variant row's.
fn pair_points(seed: u64, configs: Vec<(String, LuConfig)>) -> Vec<ScenarioPoint> {
    configs
        .into_iter()
        .enumerate()
        .map(|(i, (label, cfg))| pair_point(label, cfg, seed + i as u64))
        .collect()
}

fn with_reference(
    reference: LuConfig,
    configs: Vec<(String, LuConfig)>,
) -> Vec<(String, LuConfig)> {
    let mut out = vec![("reference".to_string(), reference)];
    out.extend(configs);
    out
}

fn predict(env: &Env, cfg: &LuConfig) -> LuRun {
    env.predict(cfg)
        .unwrap_or_else(|e| panic!("predicted run failed: {e}"))
}

fn measure(env: &Env, cfg: &LuConfig, seed: u64) -> LuRun {
    env.measure(cfg, seed)
        .unwrap_or_else(|e| panic!("measured run failed: {e}"))
}

fn fig8_points(ctx: &ScenarioCtx) -> Vec<ScenarioPoint> {
    let env = Env::paper();
    let configs = fig8_configs(&env, ctx.smoke);
    pair_points(100, with_reference(env.lu(648, 4), configs))
}

fn fig9_points(ctx: &ScenarioCtx) -> Vec<ScenarioPoint> {
    let env = Env::paper();
    let configs = fig9_configs(&env, ctx.smoke);
    pair_points(200, with_reference(env.lu(324, 4), configs))
}

fn fig10_points(ctx: &ScenarioCtx) -> Vec<ScenarioPoint> {
    let env = Env::paper();
    let mut reference = env.lu(324, 8);
    reference.workers = 8;
    let configs = fig10_configs(&env, ctx.smoke)
        .into_iter()
        .map(|(strat, r, cfg)| (format!("{strat} r={r}"), cfg))
        .collect();
    pair_points(300, with_reference(reference, configs))
}

/// Measurement seed of the first removal configuration, shared by Figures
/// 11 and 12 so both describe the same measured runs.
const REMOVAL_SEED: u64 = 401;

fn removal_points(ctx: &ScenarioCtx) -> Vec<ScenarioPoint> {
    let env = Env::paper();
    pair_points(REMOVAL_SEED, removal_configs(&env, ctx.smoke))
}

/// Figure 11's eight iterations (r = 324 gives eight column blocks).
const ITERATION_FIELDS: [&str; 8] = [
    "it1_eff_pct",
    "it2_eff_pct",
    "it3_eff_pct",
    "it4_eff_pct",
    "it5_eff_pct",
    "it6_eff_pct",
    "it7_eff_pct",
    "it8_eff_pct",
];

fn efficiency_fields(run: &LuRun) -> Fields {
    let profile = profile_from_report(&run.report);
    assert_eq!(profile.points.len(), ITERATION_FIELDS.len());
    ITERATION_FIELDS
        .into_iter()
        .zip(&profile.points)
        .map(|(k, p)| (k, p.efficiency * 100.0))
        .collect()
}

fn fig11_points(ctx: &ScenarioCtx) -> Vec<ScenarioPoint> {
    // The paper's three allocations: 4 threads, 8 threads, kill-4-after-1,
    // each measured (testbed) and simulated.
    let wanted = ["4 nodes", "8 nodes", "8 nodes, kill 4 after it. 1"];
    let env = Env::paper();
    removal_configs(&env, ctx.smoke)
        .into_iter()
        .enumerate()
        .filter(|(_, (label, _))| wanted.contains(&label.as_str()))
        .flat_map(|(i, (label, cfg))| {
            let sim_cfg = cfg.clone();
            [
                ScenarioPoint::new(label.clone(), move || {
                    efficiency_fields(&measure(&Env::paper(), &cfg, REMOVAL_SEED + i as u64))
                }),
                ScenarioPoint::new(format!("{label} sim"), move || {
                    efficiency_fields(&predict(&Env::paper(), &sim_cfg))
                }),
            ]
        })
        .collect()
}

/// One Figure 13 row: how many of a configuration's relative prediction
/// errors fall within the paper's three bounds. The figure's headline
/// fractions are column sums over `samples`.
fn error_fields(errors: &[f64]) -> Fields {
    let within = |bound: f64| errors.iter().filter(|e| e.abs() <= bound).count() as f64;
    let n = errors.len().max(1) as f64;
    vec![
        ("samples", errors.len() as f64),
        ("within_4", within(0.04)),
        ("within_6", within(0.06)),
        ("within_12", within(0.12)),
        ("mean_err_pct", errors.iter().sum::<f64>() / n * 100.0),
        (
            "mean_abs_err_pct",
            errors.iter().map(|e| e.abs()).sum::<f64>() / n * 100.0,
        ),
    ]
}

fn fig13_points(ctx: &ScenarioCtx) -> Vec<ScenarioPoint> {
    let env = Env::paper();
    let seeds = fig13_seeds(ctx.smoke);
    let mut points = Vec::new();

    // Whole-run errors of every configuration of Figures 8–12.
    for (i, (label, cfg)) in all_configs(&env, ctx.smoke).into_iter().enumerate() {
        points.push(ScenarioPoint::new(label, move || {
            let env = Env::paper();
            let predicted = predict(&env, &cfg).factorization_time.as_secs_f64();
            let errors: Vec<f64> = (0..seeds)
                .map(|s| {
                    let measured = measure(&env, &cfg, 1000 + 31 * i as u64 + s);
                    rel_error(measured.factorization_time.as_secs_f64(), predicted)
                })
                .collect();
            error_fields(&errors)
        }));
    }

    // A second application (the Jacobi stencil) broadens the sample beyond
    // LU — the simulator is application-independent.
    for (i, (label, sync)) in [("stencil sync", true), ("stencil async", false)]
        .into_iter()
        .enumerate()
    {
        points.push(ScenarioPoint::new(label, move || {
            let env = Env::paper();
            let mut cfg = stencil_app::StencilConfig::new(4096, 24, 8);
            cfg.mode = lu_app::DataMode::Ghost;
            cfg.synchronized = sync;
            let predicted = stencil_app::predict_stencil(&cfg, env.net, &env.simcfg)
                .unwrap_or_else(|e| panic!("predicted stencil run failed: {e}"))
                .sweep_time
                .as_secs_f64();
            let errors: Vec<f64> = (0..seeds)
                .map(|s| {
                    let seed = 3000 + 7 * i as u64 + s;
                    let measured = stencil_app::measure_stencil(&cfg, env.tb, seed, &env.simcfg)
                        .unwrap_or_else(|e| panic!("measured stencil run failed: {e}"))
                        .sweep_time
                        .as_secs_f64();
                    rel_error(measured, predicted)
                })
                .collect();
            error_fields(&errors)
        }));
    }

    // Per-iteration errors of the removal study (the dynamic-efficiency
    // validation adds finer-grained samples, like the paper's 168).
    for (i, (label, cfg)) in removal_configs(&env, ctx.smoke).into_iter().enumerate() {
        points.push(ScenarioPoint::new(
            format!("iterations:{label}"),
            move || {
                let env = Env::paper();
                let predicted = profile_from_report(&predict(&env, &cfg).report);
                let mut errors = Vec::new();
                for s in 0..seeds.min(2) {
                    let measured = measure(&env, &cfg, 2000 + 17 * i as u64 + s);
                    let measured = profile_from_report(&measured.report);
                    for (p, m) in predicted.points.iter().zip(&measured.points) {
                        // Skip sub-millisecond iterations: relative error on a
                        // near-zero denominator is noise, not signal.
                        let m_secs = m.span.as_secs_f64();
                        if m_secs > 1e-3 {
                            errors.push(rel_error(m_secs, p.span.as_secs_f64()));
                        }
                    }
                }
                error_fields(&errors)
            },
        ));
    }
    points
}

// ----- model ablations (beyond the paper, prediction-only) ------------------

/// The serialize/pipeline/flood U-shape behind the paper's flow-control
/// recommendation (its Figure 6).
fn ablation_window_points(_ctx: &ScenarioCtx) -> Vec<ScenarioPoint> {
    [1usize, 2, 4, 8, 16, 32, 64]
        .into_iter()
        .map(Some)
        .chain([None])
        .map(|window| {
            let label = window.map_or("none".to_string(), |w| w.to_string());
            ScenarioPoint::new(format!("window {label}"), move || {
                let env = Env::paper();
                let mut cfg = env.lu(162, 8);
                cfg.pipelined = true;
                cfg.flow_control = window;
                let run = predict(&env, &cfg);
                vec![
                    ("running_time_secs", run.factorization_time.as_secs_f64()),
                    ("max_queue", run.report.max_queue_len as f64),
                ]
            })
        })
        .collect()
}

/// How much accuracy the paper's simpler equal-share assumption gives away
/// against max-min fair bandwidth sharing.
fn ablation_sharing_points(_ctx: &ScenarioCtx) -> Vec<ScenarioPoint> {
    [
        ("Basic r=324 4n", 324usize, 4u32, false),
        ("Basic r=162 8n", 162, 8, false),
        ("P r=108 8n", 108, 8, true),
    ]
    .into_iter()
    .map(|(label, r, nodes, pipelined)| {
        ScenarioPoint::new(label, move || {
            let env = Env::paper();
            let mut cfg = env.lu(r, nodes);
            cfg.pipelined = pipelined;
            let equal = predict(&env, &cfg).factorization_time.as_secs_f64();
            let (app, _shared) = build_lu_app(cfg.clone());
            let mut fabric = SimFabric::with_sharing(env.net, Sharing::MaxMin);
            let report = dps_sim::simulate_with_fabric(&app, &mut fabric, &env.simcfg)
                .unwrap_or_else(|e| panic!("max-min run failed: {e}"));
            let dist = report.mark_time("dist").expect("dist mark");
            let end = report
                .mark_time(&format!("iter:{}", cfg.k_blocks()))
                .expect("final mark");
            let max_min = (end - dist).as_secs_f64();
            vec![
                ("equal_share_secs", equal),
                ("max_min_secs", max_min),
                ("delta_pct", (max_min - equal) / equal * 100.0),
            ]
        })
    })
    .collect()
}

/// The paper's argument for modeling the processing power consumed by
/// transfers (§4): the same run with communication CPU cost zeroed.
fn ablation_commcpu_points(_ctx: &ScenarioCtx) -> Vec<ScenarioPoint> {
    [("Basic r=162 8n", 162usize), ("Basic r=108 8n", 108)]
        .into_iter()
        .map(|(label, r)| {
            ScenarioPoint::new(label, move || {
                let env = Env::paper();
                let cfg = env.lu(r, 8);
                let with = predict(&env, &cfg).factorization_time.as_secs_f64();
                let mut free_net = env.net;
                free_net.cpu_in_cost = 0.0;
                free_net.cpu_out_cost = 0.0;
                let without = lu_app::predict_lu(&cfg, free_net, &env.simcfg)
                    .unwrap_or_else(|e| panic!("predicted run failed: {e}"))
                    .factorization_time
                    .as_secs_f64();
                vec![
                    ("with_comm_cpu_secs", with),
                    ("without_secs", without),
                    ("delta_pct", (without - with) / with * 100.0),
                ]
            })
        })
        .collect()
}

/// How strongly predictions depend on the one non-physical engine
/// parameter, the per-step dispatch overhead.
fn ablation_overhead_points(_ctx: &ScenarioCtx) -> Vec<ScenarioPoint> {
    [0u64, 20, 50, 100, 200, 500]
        .into_iter()
        .map(|us| {
            ScenarioPoint::new(format!("{us}us"), move || {
                let env = Env::paper();
                let mut simcfg = env.simcfg.clone();
                simcfg.step_overhead = desim::SimDuration::from_micros(us);
                let predicted = lu_app::predict_lu(&env.lu(108, 8), env.net, &simcfg)
                    .unwrap_or_else(|e| panic!("predicted run failed: {e}"))
                    .factorization_time
                    .as_secs_f64();
                vec![("predicted_secs", predicted)]
            })
        })
        .collect()
}

/// The paper's exhibits and the model ablations as scenarios, appended to
/// [`workload::builtin_scenarios`] by the runner binary.
pub fn figure_scenarios() -> Vec<ScenarioSpec> {
    vec![
        ScenarioSpec {
            name: "fig8-variants",
            summary: "Figure 8: modification impact at r=648 plus granularity, 4 nodes",
            points: fig8_points,
        },
        ScenarioSpec {
            name: "fig9-variants",
            summary: "Figure 9: modification impact at r=324, 4 nodes",
            points: fig9_points,
        },
        ScenarioSpec {
            name: "fig10-granularity",
            summary: "Figure 10: granularity sweep x pipelining strategies, 8 nodes",
            points: fig10_points,
        },
        ScenarioSpec {
            name: "fig11-efficiency",
            summary: "Figure 11: dynamic efficiency per LU iteration, measured and simulated",
            points: fig11_points,
        },
        ScenarioSpec {
            name: "fig11-12-removal",
            summary: "Figures 11-12: thread-removal strategies at r=324",
            points: removal_points,
        },
        ScenarioSpec {
            name: "fig13-errors",
            summary: "Figure 13: prediction errors per configuration within +-4/6/12 %",
            points: fig13_points,
        },
        ScenarioSpec {
            name: "ablation-window",
            summary: "ablation: flow-control window sweep (P, r=162, 8 nodes)",
            points: ablation_window_points,
        },
        ScenarioSpec {
            name: "ablation-sharing",
            summary: "ablation: equal-share (paper) vs max-min fair bandwidth",
            points: ablation_sharing_points,
        },
        ScenarioSpec {
            name: "ablation-commcpu",
            summary: "ablation: CPU cost of communications on/off (paper section 4)",
            points: ablation_commcpu_points,
        },
        ScenarioSpec {
            name: "ablation-overhead",
            summary: "ablation: per-step dispatch overhead sensitivity (Basic r=108, 8 nodes)",
            points: ablation_overhead_points,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_scenarios_expand_to_points() {
        let ctx = ScenarioCtx::new(true, workload::DEFAULT_SEED);
        for s in figure_scenarios() {
            let pts = (s.points)(&ctx);
            assert!(!pts.is_empty(), "{} has no smoke points", s.name);
            for p in &pts {
                assert!(!p.label.is_empty());
            }
        }
    }

    #[test]
    fn error_rows_count_samples_inside_each_bound() {
        let fields = error_fields(&[-0.15, -0.05, -0.01, 0.0, 0.02, 0.03, 0.05, 0.11]);
        let get = |k: &str| fields.iter().find(|(f, _)| *f == k).unwrap().1;
        assert_eq!(get("samples"), 8.0);
        assert_eq!(get("within_4"), 4.0);
        assert_eq!(get("within_6"), 6.0);
        assert_eq!(get("within_12"), 7.0);
        assert!((get("mean_abs_err_pct") - 5.25).abs() < 1e-9);
        assert!(get("mean_err_pct").abs() < 1e-9);
    }
}
