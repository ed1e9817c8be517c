//! Allocation policies: turning predicted dynamic-efficiency profiles into
//! thread-removal plans.
//!
//! This closes the loop the paper motivates: *simulate* the application
//! once, obtain its dynamic efficiency per iteration, and decide ahead of
//! time when nodes should be handed back to the cluster.

use crate::efficiency::EfficiencyProfile;

/// Release resources once predicted efficiency sinks below a threshold.
#[derive(Clone, Copy, Debug)]
pub struct ThresholdPolicy {
    /// Efficiency below which the allocation is considered wasteful.
    pub min_efficiency: f64,
    /// Fraction of the workers to release when the threshold trips
    /// (0.5 = the paper's "kill 4 of 8").
    pub release_fraction: f64,
}

impl Default for ThresholdPolicy {
    fn default() -> Self {
        ThresholdPolicy {
            min_efficiency: 0.4,
            release_fraction: 0.5,
        }
    }
}

/// Derives a removal plan `(after 1-based iteration, kill count)` from a
/// predicted profile at `workers` threads. Returns an empty plan when the
/// efficiency never drops below the threshold (or only does so on the very
/// last iteration, where releasing cannot pay off any more), and when fewer
/// than two workers leave none to release.
pub fn recommend_removal(
    profile: &EfficiencyProfile,
    workers: u32,
    policy: ThresholdPolicy,
) -> Vec<(usize, u32)> {
    assert!((0.0..=1.0).contains(&policy.release_fraction));
    if workers < 2 {
        return Vec::new();
    }
    let n_iters = profile.points.len();
    match profile.first_below(policy.min_efficiency) {
        // `first_below` is 0-based; removing *after* iteration i means the
        // plan entry (i, count) in the app's 1-based convention — releasing
        // right before the inefficient iteration starts.
        Some(i) if i > 0 && i < n_iters.saturating_sub(1) => {
            let kill = ((workers as f64) * policy.release_fraction).round() as u32;
            let kill = kill.clamp(1, workers - 1);
            vec![(i, kill)]
        }
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::efficiency::IterationPoint;
    use desim::SimDuration;

    fn profile(effs: &[f64]) -> EfficiencyProfile {
        EfficiencyProfile {
            points: effs
                .iter()
                .enumerate()
                .map(|(i, &e)| IterationPoint {
                    label: format!("iter:{}", i + 1),
                    span: SimDuration::from_secs(10),
                    cpu_work: SimDuration::from_secs_f64(40.0 * e),
                    efficiency: e,
                })
                .collect(),
        }
    }

    #[test]
    fn recommends_release_at_decay_point() {
        let p = profile(&[0.7, 0.6, 0.45, 0.3, 0.2, 0.1]);
        let plan = recommend_removal(&p, 8, ThresholdPolicy::default());
        // Efficiency first dips below 0.4 at iteration index 3 (0-based) →
        // release after 1-based iteration 3.
        assert_eq!(plan, vec![(3, 4)]);
    }

    #[test]
    fn no_release_when_always_efficient() {
        let p = profile(&[0.8, 0.75, 0.7]);
        assert!(recommend_removal(&p, 8, ThresholdPolicy::default()).is_empty());
    }

    #[test]
    fn no_release_on_first_or_last_iteration() {
        // Drop on the first iteration: removing "after iteration 0" is not
        // expressible (the app would simply request fewer nodes).
        let p = profile(&[0.2, 0.1, 0.05]);
        assert!(recommend_removal(&p, 8, ThresholdPolicy::default()).is_empty());
        // Drop only on the last: nothing left to save.
        let p = profile(&[0.9, 0.8, 0.1]);
        assert!(recommend_removal(&p, 8, ThresholdPolicy::default()).is_empty());
    }

    #[test]
    fn kill_count_respects_bounds() {
        let p = profile(&[0.9, 0.3, 0.2, 0.1]);
        let plan = recommend_removal(
            &p,
            2,
            ThresholdPolicy {
                min_efficiency: 0.4,
                release_fraction: 0.9,
            },
        );
        assert_eq!(plan, vec![(1, 1)], "cannot kill every worker");
    }

    #[test]
    fn fewer_than_two_workers_release_nothing() {
        let p = profile(&[0.9, 0.3, 0.2, 0.1]);
        for workers in [0, 1] {
            let plan = recommend_removal(&p, workers, ThresholdPolicy::default());
            assert!(plan.is_empty(), "{workers} workers: {plan:?}");
        }
    }
}
