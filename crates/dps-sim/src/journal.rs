//! Journal consumers: divergence pinpointing and the trace view.
//!
//! The engine emits the committed-event journal (schema and encoding in
//! [`desim::journal`]); this module holds everything built *on top* of it
//! within the simulator:
//!
//! * [`trace_from_journal`] — the Gantt/chrome [`Trace`] is a derived view
//!   of the journal (`Step` entries become step records, `Arrive` entries
//!   become transfer records), not a second instrumentation path;
//! * [`check_equivalent`] — the property tests' comparison: when both
//!   reports carry journals, a mismatch names the first diverging event
//!   (ticket, virtual time, op, field) instead of diffing canonical
//!   strings.
//!
//! # Replay contract
//!
//! A journal does not serialize engine state; it serializes the *committed
//! decisions* of a run. Because the engine is deterministic, re-executing
//! the same application/fabric/config re-takes exactly those decisions, so
//! replaying a recording is running it again with `record_journal` set and
//! comparing the two streams ([`Journal::first_divergence`], or
//! [`check_equivalent`] for whole reports). State at an intermediate point
//! comes from a checkpoint ([`crate::SimCheckpoint`]), whose paused runs
//! must finish identical to uninterrupted ones.

use desim::SimTime;
use dps::{Application, OpId, ThreadId};
use netmodel::NodeId;

pub use desim::journal::{
    Divergence, Journal, JournalDecodeError, JournalEntry, JournalEvent, JOURNAL_MAGIC,
};

use desim::journal::first_text_divergence;

use crate::report::RunReport;
use crate::trace::{StepRecord, Trace, TransferRecord};

/// Derives the execution [`Trace`] from a journal: `Step` entries become
/// [`StepRecord`]s (in commit order, with operation names resolved against
/// `app`'s flow graph) and `Arrive` entries become [`TransferRecord`]s.
pub fn trace_from_journal(j: &Journal, app: &Application) -> Trace {
    let mut trace = Trace::default();
    for e in &j.entries {
        match e.event {
            JournalEvent::Step {
                op,
                thread,
                node,
                start,
                ..
            } => trace.steps.push(StepRecord {
                thread: ThreadId(thread),
                node: NodeId(node),
                op: OpId(op),
                op_name: app.graph().op(OpId(op)).name.clone(),
                start: SimTime(start),
                end: e.vtime,
            }),
            JournalEvent::Arrive {
                src,
                dst,
                wire_bytes,
                start,
                ..
            } => trace.transfers.push(TransferRecord {
                src: NodeId(src),
                dst: NodeId(dst),
                bytes: wire_bytes,
                start: SimTime(start),
                end: e.vtime,
            }),
            _ => {}
        }
    }
    trace
}

/// Compares two reports of supposedly equivalent runs. On mismatch the
/// error pinpoints the first diverging journal event when both reports
/// carry journals (`first diverging event #N at vtime T ticket K op O:
/// field F: ours=... theirs=...`); otherwise it falls back to the first
/// differing line of the canonical strings
/// ([`first_text_divergence`]). The journal check runs first: the event
/// stream diverges at (or before) whatever made the aggregate report
/// differ, and names the exact event. `cluster_svc::check_equivalent` is
/// the same check for service runs.
pub fn check_equivalent(ours: &RunReport, theirs: &RunReport) -> Result<(), String> {
    if let (Some(a), Some(b)) = (&ours.journal, &theirs.journal) {
        if let Some(d) = a.first_divergence(b) {
            return Err(d.to_string());
        }
    }
    match first_text_divergence(&ours.canonical_string(), &theirs.canonical_string()) {
        Some(d) => Err(format!("canonical reports differ: {d}")),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_equivalent_falls_back_to_canonical_diff() {
        let a = RunReport {
            steps: 10,
            ..Default::default()
        };
        let b = RunReport {
            steps: 11,
            ..Default::default()
        };
        assert!(check_equivalent(&a, &a).is_ok());
        let err = check_equivalent(&a, &b).unwrap_err();
        assert!(err.contains("canonical reports differ"), "{err}");
    }

    #[test]
    fn check_equivalent_prefers_journal_pinpoint() {
        let mut ja = Journal::new();
        ja.push(SimTime(5), JournalEvent::Terminate);
        let mut jb = Journal::new();
        jb.push(SimTime(6), JournalEvent::Terminate);
        let a = RunReport {
            journal: Some(ja),
            ..Default::default()
        };
        let b = RunReport {
            journal: Some(jb),
            ..Default::default()
        };
        let err = check_equivalent(&a, &b).unwrap_err();
        assert!(err.contains("first diverging event #0"), "{err}");
        assert!(err.contains("vtime"), "{err}");
    }
}
