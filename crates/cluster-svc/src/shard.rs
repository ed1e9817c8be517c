//! Cells and shard executors.
//!
//! A [`Cell`] is the semantic partition unit: a fixed node slice (its
//! free list lives in the engine's [`cluster::NodePool`]) with its own
//! [`EventQueue`] of iteration-end events and its own [`CellReport`]. A
//! shard owns a contiguous range of cells; [`Shards`] is the set of
//! them. Determinism across shard counts comes from two structural facts:
//!
//! * per-**cell** event queues: insertion sequence numbers (the queue's
//!   tie-break) are cell-local, so they cannot depend on how cells are
//!   grouped into shards;
//! * contiguous shard ranges in ascending cell order: iterating shards,
//!   then each shard's cells, visits cells in the same global order at
//!   every shard count.

use desim::{EventQueue, SimTime};

use crate::config::ServiceConfig;
use crate::report::CellReport;

/// An iteration-end event inside one cell. `gen` guards against stale
/// events after an interruption rescheduled the job (lazy cancellation,
/// as in the batch server).
#[derive(Clone, Copy, Debug)]
pub(crate) struct PhaseEnd {
    /// Slot of the running job.
    pub slot: u32,
    /// Job generation the event was scheduled for.
    pub gen: u32,
}

/// The events and totals of one fixed slice of the node pool.
#[derive(Default)]
pub(crate) struct Cell {
    /// Iteration-end events of jobs placed here.
    pub queue: EventQueue<PhaseEnd>,
    /// Shard-locally accumulated totals.
    pub report: CellReport,
}

/// Every cell, grouped into the configured shards.
pub(crate) struct Shards {
    /// Per shard: its contiguous range of cells, ascending.
    shards: Vec<Vec<Cell>>,
    /// Cell id → (shard index, local index).
    cell_loc: Vec<(u32, u32)>,
}

impl Shards {
    pub fn new(cfg: &ServiceConfig) -> Shards {
        let mut cell_loc = Vec::with_capacity(cfg.cells as usize);
        let shards = (0..cfg.shards)
            .map(|s| {
                let range = cfg.shard_cells(s);
                cell_loc.extend(range.clone().map(|c| (s, c - range.start)));
                range.map(|_| Cell::default()).collect()
            })
            .collect();
        Shards { shards, cell_loc }
    }

    pub fn cell(&mut self, cell: u32) -> &mut Cell {
        let (s, l) = self.cell_loc[cell as usize];
        &mut self.shards[s as usize][l as usize]
    }

    /// Earliest pending iteration-end across all cells.
    pub fn next_time(&self) -> Option<SimTime> {
        self.shards
            .iter()
            .flatten()
            .filter_map(|c| c.queue.peek_time())
            .min()
    }

    /// The next iteration-end of `cell` due exactly at `t`, if any.
    pub fn pop_due(&mut self, cell: u32, t: SimTime) -> Option<PhaseEnd> {
        let queue = &mut self.cell(cell).queue;
        if queue.peek_time() == Some(t) {
            queue.pop().map(|(_, pe)| pe)
        } else {
            None
        }
    }

    /// Per-cell totals, in cell order.
    pub fn into_reports(self) -> Vec<CellReport> {
        self.shards
            .into_iter()
            .flatten()
            .map(|c| c.report)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TenantSpec;
    use cluster::SchedulePolicy;

    #[test]
    fn cells_keep_global_order_and_report_the_earliest_event() {
        let cfg =
            ServiceConfig::new(2, 5, 3, SchedulePolicy::Rigid).with_tenant(TenantSpec::new("t", 1));
        let mut s = Shards::new(&cfg);
        assert_eq!(s.next_time(), None);
        s.cell(4)
            .queue
            .schedule(SimTime(50), PhaseEnd { slot: 1, gen: 1 });
        s.cell(1)
            .queue
            .schedule(SimTime(90), PhaseEnd { slot: 2, gen: 1 });
        assert_eq!(s.next_time(), Some(SimTime(50)));
        assert!(s.pop_due(1, SimTime(50)).is_none());
        assert_eq!(s.pop_due(4, SimTime(50)).map(|pe| pe.slot), Some(1));
        assert_eq!(s.next_time(), Some(SimTime(90)));
        for c in 0..5 {
            s.cell(c).report.completed = u64::from(c);
        }
        let order: Vec<u64> = s.into_reports().iter().map(|r| r.completed).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }
}
