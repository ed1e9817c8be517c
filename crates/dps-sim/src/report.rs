//! Run reports: what a simulation (or testbed emulation) run produces.

use desim::{SimDuration, SimTime};
use netmodel::network::NetStats;

/// A span of the run delimited by consecutive marks, with the resource usage
/// needed to compute **dynamic efficiency** over it.
#[derive(Clone, Debug)]
pub struct Interval {
    /// Label of the mark *ending* this interval (`"end"` for the tail).
    pub label: String,
    /// Step start (virtual time).
    pub start: SimTime,
    /// Step end (virtual time).
    pub end: SimTime,
    /// Pure computation work executed during the interval, in cpu-time —
    /// what a single processor would have needed (the numerator of the
    /// paper's efficiency).
    pub cpu_work: SimDuration,
    /// Integral of allocated nodes over the interval (node·seconds) — the
    /// denominator of the paper's efficiency.
    pub node_seconds: f64,
}

impl Interval {
    /// Wall-clock span of the interval.
    pub fn span(&self) -> SimDuration {
        self.end - self.start
    }

    /// Dynamic efficiency over this interval:
    /// `cpu_work / (allocated nodes × elapsed time)`.
    pub fn efficiency(&self) -> f64 {
        if self.node_seconds <= 0.0 {
            return 0.0;
        }
        self.cpu_work.as_secs_f64() / self.node_seconds
    }
}

/// Result of one run.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Virtual time at which the application terminated (or the engine went
    /// quiescent).
    pub completion: SimTime,
    /// Whether the application called `terminate`. `false` means the run
    /// went cleanly quiescent without an explicit terminate — runs that
    /// stall with pending work now fail with
    /// [`crate::SimErrorKind::DeadlockDetected`] instead of producing a
    /// report.
    pub terminated: bool,
    /// Named instants recorded by the application, in time order.
    pub marks: Vec<(String, SimTime)>,
    /// Mark-delimited intervals with efficiency data.
    pub intervals: Vec<Interval>,
    /// Total computation work of the run (cpu-time).
    pub total_cpu_work: SimDuration,
    /// Timeline of (time, allocated node count) changes; first entry at 0.
    pub alloc_timeline: Vec<(SimTime, usize)>,
    /// Peak modeled memory.
    pub mem_peak_bytes: u64,
    /// Atomic steps executed.
    pub steps: u64,
    /// Largest data-object queue observed at any (operation, thread)
    /// server — what DPS flow control exists to bound (paper §2).
    pub max_queue_len: usize,
    /// Network transfer statistics.
    pub net: NetStats,
    /// Host wall-clock cost of performing the simulation (Table 1's
    /// "running time" column).
    pub host_wall: std::time::Duration,
    /// Optional event journal (see [`crate::journal`]). Deliberately
    /// excluded from [`canonical_string`](RunReport::canonical_string): the
    /// journal is the *instrument* equivalence is measured with, not part of
    /// the measured state.
    pub journal: Option<desim::Journal>,
}

impl RunReport {
    /// Time of a mark by label, if recorded.
    pub fn mark_time(&self, label: &str) -> Option<SimTime> {
        self.marks.iter().find(|(l, _)| l == label).map(|&(_, t)| t)
    }

    /// Overall efficiency of the whole run.
    pub fn overall_efficiency(&self) -> f64 {
        let node_seconds: f64 = self.intervals.iter().map(|i| i.node_seconds).sum();
        if node_seconds <= 0.0 {
            return 0.0;
        }
        self.total_cpu_work.as_secs_f64() / node_seconds
    }

    /// A canonical rendering of every *simulation-determined* field — i.e.
    /// everything except `host_wall`, which measures the host machine, not
    /// the simulated one. Two runs of the same configuration are equivalent
    /// iff their canonical strings are byte-identical; the checkpoint/fork
    /// property tests compare forked continuations against uninterrupted
    /// runs with exactly this.
    pub fn canonical_string(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = write!(
            s,
            "completion={:?} terminated={} marks={:?} \
             total_cpu_work={:?} alloc_timeline={:?} mem_peak_bytes={} \
             steps={} max_queue_len={} net={:?}",
            self.completion,
            self.terminated,
            self.marks,
            self.total_cpu_work,
            self.alloc_timeline,
            self.mem_peak_bytes,
            self.steps,
            self.max_queue_len,
            self.net,
        );
        for i in &self.intervals {
            let _ = write!(
                s,
                " [{} {:?}..{:?} work={:?} ns={}]",
                i.label,
                i.start,
                i.end,
                i.cpu_work,
                i.node_seconds.to_bits(),
            );
        }
        // A leftover of the retired trace field: the digests pinned in
        // `tests/engines.rs` hash this string, so the suffix stays until
        // the ROADMAP 1 re-pin window drops it.
        s.push_str(" trace=false");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_efficiency() {
        let i = Interval {
            label: "iter:1".into(),
            start: SimTime::ZERO,
            end: SimTime(10_000_000_000),
            cpu_work: SimDuration::from_secs(24),
            node_seconds: 40.0, // 4 nodes for 10 s
        };
        assert!((i.efficiency() - 0.6).abs() < 1e-12);
        assert_eq!(i.span(), SimDuration::from_secs(10));
    }

    #[test]
    fn zero_nodes_is_zero_efficiency() {
        let i = Interval {
            label: "x".into(),
            start: SimTime::ZERO,
            end: SimTime::ZERO,
            cpu_work: SimDuration::ZERO,
            node_seconds: 0.0,
        };
        assert_eq!(i.efficiency(), 0.0);
    }

    #[test]
    fn report_mark_lookup() {
        let r = RunReport {
            marks: vec![("a".into(), SimTime(5)), ("b".into(), SimTime(9))],
            ..Default::default()
        };
        assert_eq!(r.mark_time("b"), Some(SimTime(9)));
        assert_eq!(r.mark_time("c"), None);
    }
}
