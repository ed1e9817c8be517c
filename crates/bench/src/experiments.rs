//! Shared experiment definitions: the paper's workload configurations and
//! measured/predicted run pairs.
//!
//! Every configuration builder takes the `smoke` flag of the expanding
//! [`workload::ScenarioCtx`] and shrinks to a CI-sized subset (fewer
//! points, one seed where figures sweep several) that still exercises
//! every code path — variants, granularity, flow control, thread removal —
//! in seconds instead of minutes. Nothing here reads the environment.

use lu_app::LuConfig;

pub use workload::{SimEnv as Env, N};

/// Truncates a configuration list in smoke mode, keeping the first
/// `keep` entries (the list shapes put one of each regime up front).
fn smoke_truncate<T>(mut v: Vec<T>, smoke: bool, keep: usize) -> Vec<T> {
    if smoke {
        v.truncate(keep);
    }
    v
}

/// Relative prediction error `(predicted − measured) / measured`.
pub(crate) fn rel_error(measured: f64, predicted: f64) -> f64 {
    (predicted - measured) / measured
}

/// One measured/predicted pair of factorization times.
#[derive(Clone, Copy, Debug)]
pub struct Pair {
    pub measured_secs: f64,
    pub predicted_secs: f64,
}

impl Pair {
    pub fn rel_error(&self) -> f64 {
        rel_error(self.measured_secs, self.predicted_secs)
    }
}

/// Runs one configuration through both engines. A failing run panics with
/// the typed simulation error; sweep drivers running points through
/// [`crate::harness::run_parallel_isolated_with`] turn that into an error row.
pub fn run_pair(env: &Env, cfg: &LuConfig, seed: u64) -> Pair {
    let measured = env
        .measure(cfg, seed)
        .unwrap_or_else(|e| panic!("measured run failed: {e}"));
    let predicted = env
        .predict(cfg)
        .unwrap_or_else(|e| panic!("predicted run failed: {e}"));
    Pair {
        measured_secs: measured.factorization_time.as_secs_f64(),
        predicted_secs: predicted.factorization_time.as_secs_f64(),
    }
}

/// Applies a variant tag ("P", "PM", "FC" combination) to a configuration.
/// The PM sub-block size follows the paper's row/column decomposition with
/// `s = r/2`.
pub fn apply_variant(cfg: &mut LuConfig, pipelined: bool, pm: bool, fc: bool) {
    cfg.pipelined = pipelined;
    cfg.parallel_mul = if pm { Some(cfg.r / 2) } else { None };
    cfg.flow_control = if fc { Some(8) } else { None };
}

/// The variant set of Figures 8 and 9, in the paper's order.
pub fn variant_set() -> Vec<(&'static str, bool, bool, bool)> {
    vec![
        ("PM", false, true, false),
        ("P", true, false, false),
        ("P+PM", true, true, false),
        ("P+FC", true, false, true),
        ("P+PM+FC", true, true, true),
    ]
}

/// Figure 8 configurations: variants at r = 648 plus granularity changes,
/// 4 nodes. Returns (label, config).
pub fn fig8_configs(env: &Env, smoke: bool) -> Vec<(String, LuConfig)> {
    let mut out = Vec::new();
    for (label, p, pm, fc) in smoke_truncate(variant_set(), smoke, 2) {
        let mut cfg = env.lu(648, 4);
        apply_variant(&mut cfg, p, pm, fc);
        out.push((label.to_string(), cfg));
    }
    let rs: &[usize] = if smoke {
        &[324, 216]
    } else {
        &[324, 216, 162, 108]
    };
    for &r in rs {
        out.push((format!("r={r}"), env.lu(r, 4)));
    }
    out
}

/// Figure 9 configurations: variants at r = 324, 4 nodes.
pub fn fig9_configs(env: &Env, smoke: bool) -> Vec<(String, LuConfig)> {
    smoke_truncate(variant_set(), smoke, 2)
        .into_iter()
        .map(|(label, p, pm, fc)| {
            let mut cfg = env.lu(324, 4);
            apply_variant(&mut cfg, p, pm, fc);
            (label.to_string(), cfg)
        })
        .collect()
}

/// Figure 10 configurations: (strategy, r, config) on 8 nodes.
pub fn fig10_configs(env: &Env, smoke: bool) -> Vec<(String, usize, LuConfig)> {
    let mut out = Vec::new();
    let rs: &[usize] = if smoke {
        &[216]
    } else {
        &[81, 108, 162, 216, 324]
    };
    for (strat, p, fc) in [
        ("Basic", false, false),
        ("P", true, false),
        ("P+FC", true, true),
    ] {
        for &r in rs {
            let mut cfg = env.lu(r, 8);
            apply_variant(&mut cfg, p, false, fc);
            out.push((strat.to_string(), r, cfg));
        }
    }
    out
}

/// Figure 11/12 configurations (r = 324, basic graph): the removal
/// strategies. Returns (label, config).
pub fn removal_configs(env: &Env, smoke: bool) -> Vec<(String, LuConfig)> {
    let mut out = Vec::new();
    {
        let mut cfg = env.lu(324, 4);
        cfg.workers = 8; // eight column blocks on four nodes
        out.push(("4 nodes".to_string(), cfg));
    }
    {
        let cfg8 = {
            let mut c = env.lu(324, 8);
            c.workers = 8;
            c
        };
        out.push(("8 nodes".to_string(), cfg8));
    }
    for (label, plan) in [
        ("8 nodes, kill 4 after it. 1", vec![(1usize, 4u32)]),
        ("8 nodes, kill 4 after it. 4", vec![(4, 4)]),
        (
            "8 nodes, kill 2 after it. 2 + 2 after it. 3",
            vec![(2, 2), (3, 2)],
        ),
    ] {
        let mut cfg = env.lu(324, 8);
        cfg.workers = 8;
        cfg.removal = plan;
        out.push((label.to_string(), cfg));
    }
    smoke_truncate(out, smoke, 3)
}

/// Measurement seeds per configuration for the Figure 13 error histogram.
pub fn fig13_seeds(smoke: bool) -> u64 {
    if smoke {
        1
    } else {
        3
    }
}

/// Every (label, config) pair of the evaluation, for the Figure 13 error
/// sweep.
pub fn all_configs(env: &Env, smoke: bool) -> Vec<(String, LuConfig)> {
    let mut out = Vec::new();
    for (l, c) in fig8_configs(env, smoke) {
        out.push((format!("fig8:{l}"), c));
    }
    for (l, c) in fig9_configs(env, smoke) {
        out.push((format!("fig9:{l}"), c));
    }
    for (s, r, c) in fig10_configs(env, smoke) {
        out.push((format!("fig10:{s}:r={r}"), c));
    }
    for (l, c) in removal_configs(env, smoke) {
        out.push((format!("fig11-12:{l}"), c));
    }
    out
}

/// Writes rendered output both to stdout and to `results/<name>`.
pub fn emit(name: &str, rendered: &str, csv: Option<&str>) {
    println!("{rendered}");
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_ok() {
        let _ = std::fs::write(dir.join(format!("{name}.txt")), rendered);
        if let Some(csv) = csv {
            let _ = std::fs::write(dir.join(format!("{name}.csv")), csv);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_sets_have_paper_shapes() {
        let env = Env::paper();
        assert_eq!(fig8_configs(&env, false).len(), 9);
        assert_eq!(fig9_configs(&env, false).len(), 5);
        assert_eq!(fig10_configs(&env, false).len(), 15);
        assert_eq!(removal_configs(&env, false).len(), 5);
        assert_eq!(all_configs(&env, false).len(), 34);
        for (label, cfg) in all_configs(&env, false) {
            cfg.validate().unwrap_or_else(|e| panic!("{label}: {e}"));
        }
        // Smoke keeps one of each regime: variants and granularity, every
        // pipelining strategy, a static pair and a removal.
        assert_eq!(fig8_configs(&env, true).len(), 4);
        assert_eq!(fig9_configs(&env, true).len(), 2);
        assert_eq!(fig10_configs(&env, true).len(), 3);
        assert_eq!(removal_configs(&env, true).len(), 3);
    }

    #[test]
    fn pair_error_is_relative() {
        let p = Pair {
            measured_secs: 100.0,
            predicted_secs: 97.0,
        };
        assert!((p.rel_error() + 0.03).abs() < 1e-12);
        assert!((rel_error(100.0, 104.0) - 0.04).abs() < 1e-12);
    }

    #[test]
    fn variant_application() {
        let env = Env::paper();
        let mut cfg = env.lu(324, 4);
        apply_variant(&mut cfg, true, true, true);
        assert!(cfg.pipelined);
        assert_eq!(cfg.parallel_mul, Some(162));
        assert_eq!(cfg.flow_control, Some(8));
        assert_eq!(cfg.variant_label(), "P+PM+FC");
    }
}
