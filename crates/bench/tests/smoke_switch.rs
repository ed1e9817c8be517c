//! One smoke switch: the `--smoke` flag and `DVNS_SMOKE=1` both reach the
//! scenarios only through [`ScenarioCtx::smoke`], so a flag-only and an
//! env-only invocation expand every registered scenario to the same
//! points. (Builders that also consulted the environment used to truncate
//! a second time: `fig10-granularity --smoke` ran three Basic block sizes
//! where `DVNS_SMOKE=1` ran one block size of each strategy.)
//!
//! Kept in its own test binary: it mutates the process environment.

use dps_bench::{figure_scenarios, smoke};
use workload::{builtin_scenarios, ScenarioCtx, DEFAULT_SEED};

fn labels(ctx: &ScenarioCtx) -> Vec<(&'static str, Vec<String>)> {
    builtin_scenarios()
        .into_iter()
        .chain(figure_scenarios())
        .map(|s| {
            let labels = (s.points)(ctx).into_iter().map(|p| p.label).collect();
            (s.name, labels)
        })
        .collect()
}

#[test]
fn flag_only_and_env_only_contexts_expand_to_the_same_points() {
    std::env::remove_var("DVNS_SMOKE");
    // `scenarios --smoke` with the variable unset.
    let flag_only = labels(&ScenarioCtx::new(true, DEFAULT_SEED));
    // `DVNS_SMOKE=1 scenarios`: main reads the variable into the context.
    std::env::set_var("DVNS_SMOKE", "1");
    let env_only = labels(&ScenarioCtx::new(smoke(), DEFAULT_SEED));
    std::env::remove_var("DVNS_SMOKE");
    for ((name, a), (_, b)) in flag_only.iter().zip(&env_only) {
        assert_eq!(a, b, "{name}: --smoke and DVNS_SMOKE=1 disagree");
    }
    let full = labels(&ScenarioCtx::new(false, DEFAULT_SEED));
    assert!(
        flag_only
            .iter()
            .zip(&full)
            .any(|(s, f)| s.1.len() < f.1.len()),
        "smoke contexts must actually shrink something"
    );
}
