//! The cells' iteration-end events and totals.
//!
//! A cell is the semantic partition unit: a fixed node slice (its free
//! set lives in the engine's `rules::NodePool`) with its own
//! [`CellReport`]. Every cell's iteration ends share one [`EventQueue`]
//! ranked by cell id, so one instant's events pop in ascending cell id
//! and, inside a cell, in insertion order.

use desim::{EventQueue, SimTime};

use crate::report::CellReport;

/// An iteration-end event. `gen` guards against stale events after an
/// interruption rescheduled the job (lazy cancellation, as in the batch
/// server).
#[derive(Clone, Copy, Debug)]
pub(crate) struct PhaseEnd {
    /// Cell the job runs in (the event's rank).
    pub cell: u32,
    /// Slot of the running job.
    pub slot: u32,
    /// Job generation the event was scheduled for.
    pub gen: u32,
}

/// Pending iteration ends of every cell, plus each cell's totals.
pub(crate) struct Cells {
    queue: EventQueue<PhaseEnd>,
    /// Per-cell totals, in cell order.
    pub reports: Vec<CellReport>,
}

impl Cells {
    pub fn new(cells: u32) -> Cells {
        Cells {
            queue: EventQueue::new(),
            reports: vec![CellReport::default(); cells as usize],
        }
    }

    /// Schedules `pe` at `at`, ranked by its cell.
    pub fn schedule(&mut self, at: SimTime, pe: PhaseEnd) {
        self.queue.schedule_ranked(at, pe.cell, pe);
    }

    /// Earliest pending iteration end.
    pub fn next_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// The next iteration end due exactly at `t`, if any.
    pub fn pop_due(&mut self, t: SimTime) -> Option<PhaseEnd> {
        if self.queue.peek_time() == Some(t) {
            self.queue.pop().map(|(_, pe)| pe)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_instant_pops_in_cell_order_then_insertion_order() {
        let mut c = Cells::new(5);
        assert_eq!(c.next_time(), None);
        let pe = |cell, slot| PhaseEnd { cell, slot, gen: 1 };
        c.schedule(SimTime(90), pe(0, 9));
        c.schedule(SimTime(50), pe(4, 1));
        c.schedule(SimTime(50), pe(1, 2));
        c.schedule(SimTime(50), pe(4, 3));
        assert_eq!(c.next_time(), Some(SimTime(50)));
        assert!(c.pop_due(SimTime(49)).is_none());
        let due: Vec<(u32, u32)> = std::iter::from_fn(|| c.pop_due(SimTime(50)))
            .map(|pe| (pe.cell, pe.slot))
            .collect();
        assert_eq!(due, [(1, 2), (4, 1), (4, 3)]);
        assert_eq!(c.next_time(), Some(SimTime(90)));
    }
}
