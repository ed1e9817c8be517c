//! Journal consumers: replay, divergence pinpointing, and the trace view.
//!
//! The engine emits the committed-event journal (schema and encoding in
//! [`desim::journal`]); this module holds everything built *on top* of it
//! within the simulator:
//!
//! * [`trace_from_journal`] — the Gantt/chrome [`Trace`] is a derived view
//!   of the journal (`Step` entries become step records, `Arrive` entries
//!   become transfer records), not a second instrumentation path;
//! * [`replay`] / [`replay_with_fabric`] — re-execute a run against a
//!   recorded journal: drive the engine to the batch boundary at a chosen
//!   prefix length (the reconstructed intermediate state), resume to
//!   completion, and check every re-emitted event against the recorded one.
//!   A deterministic engine replays any prefix to a byte-identical report;
//!   the first mismatch comes back as a pinpointed [`Divergence`];
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
//! "reconstructing state at prefix k" is: re-execute until k events have
//! been committed. The engine pauses at the first event-batch boundary at
//! or past k (events within one virtual instant commit atomically), hands
//! back the reconstructed state's virtual time and step count, then
//! resumes. Replay therefore doubles as verification — every event after
//! the pause is checked against the recorded stream too.

use std::time::Instant;

use desim::SimTime;
use dps::{Application, OpId, ThreadId};
use faults::FaultPlan;
use netmodel::{NetParams, NodeId};

pub use desim::journal::{
    Divergence, Journal, JournalDecodeError, JournalEntry, JournalEvent, JOURNAL_MAGIC,
};

use desim::journal::first_text_divergence;

use crate::engine::{Engine, SimConfig};
use crate::error::SimResult;
use crate::fabric::{Fabric, SimFabric};
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

/// What a replay produced: the full re-executed report (journal included),
/// the virtual time and step count of the reconstructed intermediate state
/// at the requested prefix, and the first divergence between the
/// re-emitted stream and the recorded one (`None` for a faithful replay).
#[derive(Debug)]
pub struct ReplayOutcome {
    /// Report of the re-executed run, resumed to completion.
    pub report: RunReport,
    /// Virtual time of the reconstructed state at the prefix boundary.
    pub prefix_time: SimTime,
    /// Atomic steps executed up to the prefix boundary.
    pub prefix_steps: u64,
    /// First disagreement between the replayed stream and `recorded`.
    pub divergence: Option<Divergence>,
}

/// Replays `recorded` on the paper's machine model: re-executes `app`,
/// pausing at the reconstructed state `prefix` events in, then resumes to
/// completion and compares the re-emitted journal against `recorded`.
/// Parameters that fail [`NetParams::validate`] are a protocol error.
pub fn replay(
    app: &Application,
    params: NetParams,
    cfg: &SimConfig,
    recorded: &Journal,
    prefix: usize,
) -> SimResult<ReplayOutcome> {
    let mut fabric = SimFabric::with_plan(params, &FaultPlan::none())?;
    replay_with_fabric(app, &mut fabric, cfg, recorded, prefix)
}

/// [`replay`] against an arbitrary fabric (fault-injected runs replay over
/// a [`SimFabric::with_plan`] built from the same plan).
pub fn replay_with_fabric(
    app: &Application,
    fabric: &mut dyn Fabric,
    cfg: &SimConfig,
    recorded: &Journal,
    prefix: usize,
) -> SimResult<ReplayOutcome> {
    // Two phases: first up to the batch boundary at or past `prefix` journal
    // entries (the reconstructed intermediate state), then to completion.
    let wall = Instant::now();
    let cfg = SimConfig {
        record_journal: true,
        ..cfg.clone()
    };
    let mut eng = Engine::start(app, fabric, &cfg);
    eng.control.journal_limit = Some(prefix);
    eng.resume();
    let (prefix_time, prefix_steps) = (eng.current_time(), eng.steps());
    eng.control.journal_limit = None;
    eng.resume();
    let report = eng.into_result(wall.elapsed())?;
    let divergence = report
        .journal
        .as_ref()
        .and_then(|ours| ours.first_divergence(recorded));
    Ok(ReplayOutcome {
        report,
        prefix_time,
        prefix_steps,
        divergence,
    })
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
