//! Accounting: the computation work done and the node·seconds held between
//! consecutive marks — the numerator and denominator of the paper's
//! **dynamic efficiency** — plus the allocation timeline.

use desim::{SimDuration, SimTime};

use crate::report::{Interval, RunReport};

#[derive(Clone)]
pub(crate) struct Accounting {
    /// Closed intervals, one per mark so far.
    intervals: Vec<Interval>,
    /// The open interval: where it began, and the work and node·seconds
    /// (up to `last_alloc_change`) accrued in it.
    interval_start: SimTime,
    interval_work: SimDuration,
    node_seconds: f64,
    total_work: SimDuration,
    cur_nodes: usize,
    last_alloc_change: SimTime,
    alloc_timeline: Vec<(SimTime, usize)>,
}

impl Accounting {
    /// Starts the books at time zero with `nodes` allocated.
    pub(crate) fn new(nodes: usize) -> Accounting {
        Accounting {
            intervals: Vec::new(),
            interval_start: SimTime::ZERO,
            interval_work: SimDuration::ZERO,
            node_seconds: 0.0,
            total_work: SimDuration::ZERO,
            cur_nodes: nodes,
            last_alloc_change: SimTime::ZERO,
            alloc_timeline: vec![(SimTime::ZERO, nodes)],
        }
    }

    /// Credits a finished atomic step's computation.
    pub(crate) fn add_work(&mut self, work: SimDuration) {
        self.interval_work += work;
        self.total_work += work;
    }

    /// Charges the current allocation for the time since it last changed.
    fn flush_node_seconds(&mut self, now: SimTime) {
        let span = (now - self.last_alloc_change).as_secs_f64();
        self.node_seconds += span * self.cur_nodes as f64;
        self.last_alloc_change = now;
    }

    /// Closes the open interval at a mark and opens the next one.
    pub(crate) fn mark(&mut self, now: SimTime, label: String) {
        self.flush_node_seconds(now);
        self.intervals.push(Interval {
            label,
            start: self.interval_start,
            end: now,
            cpu_work: std::mem::take(&mut self.interval_work),
            node_seconds: std::mem::take(&mut self.node_seconds),
        });
        self.interval_start = now;
    }

    /// Records the allocation after a thread was deactivated.
    pub(crate) fn set_nodes(&mut self, now: SimTime, nodes: usize) {
        self.flush_node_seconds(now);
        if nodes != self.cur_nodes {
            self.cur_nodes = nodes;
            self.alloc_timeline.push((now, nodes));
        }
    }

    /// Closes the trailing interval and writes the books into `report`:
    /// one mark per interval but the trailing one, the intervals, the total
    /// work and the allocation timeline.
    pub(crate) fn close_into(mut self, now: SimTime, report: &mut RunReport) {
        report.marks = self
            .intervals
            .iter()
            .map(|i| (i.label.clone(), i.end))
            .collect();
        self.mark(now, "end".to_string());
        report.intervals = self.intervals;
        report.total_cpu_work = self.total_work;
        report.alloc_timeline = self.alloc_timeline;
    }
}
