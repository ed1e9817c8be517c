//! Dynamic-efficiency profiles extracted from run reports.

use desim::SimDuration;
use dps_sim::RunReport;

/// One iteration's share of the dynamic-efficiency curve.
#[derive(Clone, Debug)]
pub struct IterationPoint {
    /// Interval label.
    pub label: String,
    /// Wall-clock span of the iteration.
    pub span: SimDuration,
    /// Serial computation work executed during it.
    pub cpu_work: SimDuration,
    /// `cpu_work / (allocated nodes × span)` — the paper's efficiency.
    pub efficiency: f64,
}

/// Per-iteration dynamic efficiency of one run (the paper's Figure 11 data).
#[derive(Clone, Debug)]
pub struct EfficiencyProfile {
    /// Per-iteration samples in run order.
    pub points: Vec<IterationPoint>,
}

impl EfficiencyProfile {
    /// Sum of iteration spans.
    pub fn total_span(&self) -> SimDuration {
        self.points
            .iter()
            .fold(SimDuration::ZERO, |acc, p| acc + p.span)
    }

    /// First iteration (0-based) whose efficiency drops below `threshold`,
    /// if any.
    pub fn first_below(&self, threshold: f64) -> Option<usize> {
        self.points.iter().position(|p| p.efficiency < threshold)
    }
}

/// Builds the profile from a run report's `iter:*` intervals.
pub fn profile_from_report(report: &RunReport) -> EfficiencyProfile {
    let points = report
        .intervals
        .iter()
        .filter(|i| i.label.starts_with("iter:"))
        .map(|i| IterationPoint {
            label: i.label.clone(),
            span: i.span(),
            cpu_work: i.cpu_work,
            efficiency: i.efficiency(),
        })
        .collect();
    EfficiencyProfile { points }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::SimTime;
    use dps_sim::Interval;

    fn report_with(effs: &[(f64, u64)]) -> RunReport {
        let mut t = 0u64;
        let mut intervals = Vec::new();
        for (idx, &(eff, span_s)) in effs.iter().enumerate() {
            let span = SimDuration::from_secs(span_s);
            let nodes = 4.0;
            let node_seconds = nodes * span.as_secs_f64();
            intervals.push(Interval {
                label: format!("iter:{}", idx + 1),
                start: SimTime(t),
                end: SimTime(t) + span,
                cpu_work: SimDuration::from_secs_f64(eff * node_seconds),
                node_seconds,
            });
            t += span.as_nanos();
        }
        RunReport {
            intervals,
            ..Default::default()
        }
    }

    #[test]
    fn profile_extracts_iterations_only() {
        let mut r = report_with(&[(0.6, 10), (0.4, 5)]);
        r.intervals.insert(
            0,
            Interval {
                label: "dist".into(),
                start: SimTime(0),
                end: SimTime(0),
                cpu_work: SimDuration::ZERO,
                node_seconds: 0.0,
            },
        );
        let p = profile_from_report(&r);
        assert_eq!(p.points.len(), 2);
        assert!((p.points[0].efficiency - 0.6).abs() < 1e-9);
        assert_eq!(p.total_span(), SimDuration::from_secs(15));
    }

    #[test]
    fn first_below_finds_decay_point() {
        let r = report_with(&[(0.7, 10), (0.55, 8), (0.35, 5), (0.2, 2)]);
        let p = profile_from_report(&r);
        assert_eq!(p.first_below(0.5), Some(2));
        assert_eq!(p.first_below(0.1), None);
        assert_eq!(p.first_below(0.9), Some(0));
    }
}
