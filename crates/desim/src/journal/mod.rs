//! The event journal: a compact binary record stream of everything a
//! deterministic engine *commits*.
//!
//! Determinism in this workspace means: the same configuration produces the
//! same committed event sequence, byte for byte, no matter how it was
//! reached (fresh run, forked continuation, or replay from a prefix). The
//! journal makes that sequence first-class. An engine appends one
//! [`JournalEntry`] per committed event — invocation dispatch, atomic-step
//! completion, post, transfer arrival, mark, deactivation, credit release,
//! memory accounting, termination, and the rate windows a fault plan edits
//! into the fabric — and two runs are equivalent iff their journals match.
//!
//! This crate holds the schema, the binary encoding and the comparison
//! machinery; it knows nothing about DPS. Field names like `op` and
//! `ticket` are documented contracts for the engines that emit them
//! (`dps-sim` maps `OpId`/`ThreadId`/`NodeId` to the raw integers here).
//!
//! Three consumers are built on top (in `dps-sim` and `bench`):
//!
//! * a **replayer** that re-executes a run against a journal prefix and
//!   checks every re-emitted event against the recorded one;
//! * a **divergence pinpointer** ([`Journal::first_divergence`]) that turns
//!   "two 40 kB canonical reports differ somewhere" into "event #1234 at
//!   vtime 3.2s: Step.job ours=88 theirs=91";
//! * a **fuzzing harness** that perturbs schedules under a seed and asserts
//!   journal equivalence.
//!
//! # Binary format
//!
//! Little-endian LEB128 varints throughout; `i64` fields are zigzag-encoded
//! first, `f64` fields travel as their IEEE-754 bit patterns (bit-exact,
//! like the rest of the workspace's determinism story).
//!
//! ```text
//! magic   b"DVNSJ1\n"
//! meta    varint count, then per pair: varint len + UTF-8 key,
//!                                       varint len + UTF-8 value
//! labels  varint count, then per label: varint len + UTF-8 bytes
//! entries varint count, then per entry:
//!         u8 kind tag, varint vtime delta (vs previous entry),
//!         the kind's fields as varints
//! ```
//!
//! Virtual time is monotone over committed events, so the per-entry delta
//! is non-negative and small — the stream stays compact even for
//! million-event runs. Metadata (key/value strings describing the run
//! configuration) and the mark-label table ride in the header; entries
//! refer to labels by index.

use crate::time::SimTime;

mod codec;

pub use codec::{crc32, MAX_ENTRY_BYTES};

/// Magic bytes opening every encoded journal (format version 1).
pub const JOURNAL_MAGIC: &[u8; 7] = b"DVNSJ1\n";

/// One committed engine event. Integer fields are the raw values of the
/// emitting engine's typed ids (`op` = operation id, `thread` = DPS thread
/// id, `node` = cluster node id); `ticket`/`job` are the engine's monotone
/// atomic-step ids.
#[derive(Clone, Debug, PartialEq)]
pub enum JournalEvent {
    /// A scheduled capacity window on one node's links — a fault plan's
    /// rate edit, recorded up front so plans are part of the stream.
    RateWindow {
        /// Affected node.
        node: u32,
        /// Uplink capacity multiplier, as IEEE-754 bits.
        up_bits: u64,
        /// Downlink capacity multiplier, as IEEE-754 bits.
        down_bits: u64,
        /// Window start (ns).
        from: u64,
        /// Window end (ns, exclusive).
        to: u64,
    },
    /// An invocation dispatched: a server began consuming a data object.
    /// `ticket` is the job id reserved for the invocation's first atomic
    /// step — the committer applies results in this order.
    Invoke {
        /// Reserved job id of the invocation's first segment.
        ticket: u64,
        /// Consuming operation.
        op: u32,
        /// Consuming thread.
        thread: u32,
        /// Heap bytes of the consumed object.
        obj_bytes: u64,
    },
    /// An atomic step completed and its effects committed.
    Step {
        /// The step's job id (the invocation ticket for first segments).
        job: u64,
        /// Operation the step belongs to.
        op: u32,
        /// Thread it ran on.
        thread: u32,
        /// Node hosting the thread.
        node: u32,
        /// Step start (ns); the entry's vtime is the end.
        start: u64,
        /// Virtual CPU work of the step (ns).
        work: u64,
    },
    /// A data object posted along a graph edge (the commit footprint of a
    /// post action, after routing).
    Post {
        /// Posting operation.
        op: u32,
        /// Posting thread.
        thread: u32,
        /// Destination operation.
        to: u32,
        /// Routed destination thread.
        dst_thread: u32,
        /// Serialized payload size (wire bytes).
        wire_bytes: u64,
        /// 1 if the move was node-local (no network), else 0.
        local: u32,
    },
    /// A network transfer delivered its object to the destination server.
    Arrive {
        /// Destination operation.
        to: u32,
        /// Destination thread.
        thread: u32,
        /// Sending node.
        src: u32,
        /// Receiving node.
        dst: u32,
        /// Wire bytes transferred.
        wire_bytes: u64,
        /// Transfer start (ns); the entry's vtime is the delivery.
        start: u64,
    },
    /// An application mark (label index into [`Journal::labels`]).
    Mark {
        /// Index into the journal's label table.
        label: u32,
    },
    /// A thread deactivated (dynamic node deallocation).
    Deactivate {
        /// Deactivated thread.
        thread: u32,
    },
    /// A flow-control credit returned to an operation's window.
    Release {
        /// Operation whose window got the credit back.
        op: u32,
    },
    /// Modeled application memory adjusted by `delta` bytes.
    Account {
        /// Signed byte delta.
        delta: i64,
    },
    /// The application called terminate.
    Terminate,
}

impl JournalEvent {
    /// Stable name of the event kind.
    pub fn kind_name(&self) -> &'static str {
        match self {
            JournalEvent::RateWindow { .. } => "RateWindow",
            JournalEvent::Invoke { .. } => "Invoke",
            JournalEvent::Step { .. } => "Step",
            JournalEvent::Post { .. } => "Post",
            JournalEvent::Arrive { .. } => "Arrive",
            JournalEvent::Mark { .. } => "Mark",
            JournalEvent::Deactivate { .. } => "Deactivate",
            JournalEvent::Release { .. } => "Release",
            JournalEvent::Account { .. } => "Account",
            JournalEvent::Terminate => "Terminate",
        }
    }

    /// The commit ticket / job id carried by the event, if any.
    pub fn ticket(&self) -> Option<u64> {
        match self {
            JournalEvent::Invoke { ticket, .. } => Some(*ticket),
            JournalEvent::Step { job, .. } => Some(*job),
            _ => None,
        }
    }

    /// The operation id the event concerns, if any.
    pub fn op(&self) -> Option<u32> {
        match self {
            JournalEvent::Invoke { op, .. }
            | JournalEvent::Step { op, .. }
            | JournalEvent::Post { op, .. }
            | JournalEvent::Release { op } => Some(*op),
            JournalEvent::Arrive { to, .. } => Some(*to),
            _ => None,
        }
    }

    /// `(field name, rendered value)` pairs, for field-level divergence
    /// reporting. `labels` resolves mark indices to their strings.
    pub fn fields(&self, labels: &[String]) -> Vec<(&'static str, String)> {
        match self {
            JournalEvent::RateWindow {
                node,
                up_bits,
                down_bits,
                from,
                to,
            } => vec![
                ("node", node.to_string()),
                ("up", f64::from_bits(*up_bits).to_string()),
                ("down", f64::from_bits(*down_bits).to_string()),
                ("from", from.to_string()),
                ("to", to.to_string()),
            ],
            JournalEvent::Invoke {
                ticket,
                op,
                thread,
                obj_bytes,
            } => vec![
                ("ticket", ticket.to_string()),
                ("op", op.to_string()),
                ("thread", thread.to_string()),
                ("obj_bytes", obj_bytes.to_string()),
            ],
            JournalEvent::Step {
                job,
                op,
                thread,
                node,
                start,
                work,
            } => vec![
                ("job", job.to_string()),
                ("op", op.to_string()),
                ("thread", thread.to_string()),
                ("node", node.to_string()),
                ("start", start.to_string()),
                ("work", work.to_string()),
            ],
            JournalEvent::Post {
                op,
                thread,
                to,
                dst_thread,
                wire_bytes,
                local,
            } => vec![
                ("op", op.to_string()),
                ("thread", thread.to_string()),
                ("to", to.to_string()),
                ("dst_thread", dst_thread.to_string()),
                ("wire_bytes", wire_bytes.to_string()),
                ("local", local.to_string()),
            ],
            JournalEvent::Arrive {
                to,
                thread,
                src,
                dst,
                wire_bytes,
                start,
            } => vec![
                ("to", to.to_string()),
                ("thread", thread.to_string()),
                ("src", src.to_string()),
                ("dst", dst.to_string()),
                ("wire_bytes", wire_bytes.to_string()),
                ("start", start.to_string()),
            ],
            JournalEvent::Mark { label } => vec![(
                "label",
                labels
                    .get(*label as usize)
                    .cloned()
                    .unwrap_or_else(|| format!("<label #{label}>")),
            )],
            JournalEvent::Deactivate { thread } => vec![("thread", thread.to_string())],
            JournalEvent::Release { op } => vec![("op", op.to_string())],
            JournalEvent::Account { delta } => vec![("delta", delta.to_string())],
            JournalEvent::Terminate => Vec::new(),
        }
    }
}

/// One journal entry: the virtual instant an event committed at, plus the
/// event itself. An entry's *event id* is its index in the stream.
#[derive(Clone, Debug, PartialEq)]
pub struct JournalEntry {
    /// Commit instant.
    pub vtime: SimTime,
    /// The committed event.
    pub event: JournalEvent,
}

impl JournalEntry {
    /// One-line rendering (`kind@vtime{field=value ...}`).
    pub fn render(&self, labels: &[String]) -> String {
        let fields: Vec<String> = self
            .event
            .fields(labels)
            .into_iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        format!(
            "{}@{:?}{{{}}}",
            self.event.kind_name(),
            self.vtime,
            fields.join(" ")
        )
    }
}

/// The first point at which two journals disagree. Produced by
/// [`Journal::first_divergence`]; names the event id, both virtual times,
/// the first differing field, and — where the events carry them — the
/// commit ticket and operation id, so a determinism failure is a one-line
/// diagnostic instead of a whole-file diff.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Index of the first diverging entry (its event id).
    pub index: u64,
    /// First differing field: `"kind"`, `"vtime"`, `"length"`, or
    /// `"<Kind>.<field>"`.
    pub field: String,
    /// Virtual time of our entry (absent past our end).
    pub vtime_ours: Option<SimTime>,
    /// Virtual time of the other entry (absent past its end).
    pub vtime_theirs: Option<SimTime>,
    /// Commit ticket / job id at the divergence, if the entries carry one.
    pub ticket: Option<u64>,
    /// Operation id at the divergence, if the entries carry one.
    pub op: Option<u32>,
    /// Our entry, rendered (or `<end of journal>`).
    pub ours: String,
    /// Their entry, rendered (or `<end of journal>`).
    pub theirs: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "first diverging event #{}", self.index)?;
        if let Some(t) = self.vtime_ours.or(self.vtime_theirs) {
            write!(f, " at vtime {t:?}")?;
        }
        if let Some(ticket) = self.ticket {
            write!(f, " ticket {ticket}")?;
        }
        if let Some(op) = self.op {
            write!(f, " op {op}")?;
        }
        write!(
            f,
            ": field {}: ours={} theirs={}",
            self.field, self.ours, self.theirs
        )
    }
}

/// Pinpoints the first difference between two texts as
/// `line L, column C: ours=... theirs=...` — the text-level analogue of
/// [`Divergence`], for outputs that are rendered bytes (canonical reports,
/// CSVs) rather than event streams. Returns `None` when the texts are equal.
pub fn first_text_divergence(ours: &str, theirs: &str) -> Option<String> {
    if ours == theirs {
        return None;
    }
    let at = ours
        .bytes()
        .zip(theirs.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(ours.len().min(theirs.len()));
    let head = &ours.as_bytes()[..at];
    let line = head.iter().filter(|&&b| b == b'\n').count() + 1;
    let col = at - head.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
    let excerpt = |s: &str| {
        s.lines()
            .nth(line - 1)
            .unwrap_or("<end of text>")
            .chars()
            .take(120)
            .collect::<String>()
    };
    Some(format!(
        "first differing byte at line {line}, column {col}: ours={:?} theirs={:?}",
        excerpt(ours),
        excerpt(theirs)
    ))
}

/// Decoding failure: offset and reason.
#[derive(Clone, Debug)]
pub struct JournalDecodeError {
    /// Byte offset the decoder failed at.
    pub offset: usize,
    /// What went wrong.
    pub reason: String,
}

impl std::fmt::Display for JournalDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "journal decode error at byte {}: {}",
            self.offset, self.reason
        )
    }
}

impl std::error::Error for JournalDecodeError {}

/// The committed event stream of one run. See the module docs for the
/// format and the determinism contract.
#[derive(Clone, Debug, Default)]
pub struct Journal {
    /// Run-configuration metadata (key/value). Describes how to re-execute
    /// the run (application, sizes, seed); deliberately *excluded* from
    /// [`Journal::first_divergence`] so journals recorded at different
    /// engine thread counts still compare equal.
    pub meta: Vec<(String, String)>,
    /// Interned mark labels; `Mark` entries index into this table.
    pub labels: Vec<String>,
    /// The committed events, in commit order.
    pub entries: Vec<JournalEntry>,
}

impl Journal {
    /// An empty journal.
    pub fn new() -> Journal {
        Journal::default()
    }

    /// Appends one committed event at `vtime`.
    #[inline]
    pub fn push(&mut self, vtime: SimTime, event: JournalEvent) {
        self.entries.push(JournalEntry { vtime, event });
    }

    /// Number of committed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no events have been committed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Interns a mark label, returning its index. Labels are few (one per
    /// application call site) so a linear scan beats carrying a side map
    /// through clone/encode.
    pub fn intern_label(&mut self, label: &str) -> u32 {
        if let Some(i) = self.labels.iter().position(|l| l == label) {
            return i as u32;
        }
        self.labels.push(label.to_string());
        (self.labels.len() - 1) as u32
    }

    /// Sets (or replaces) a metadata key.
    pub fn set_meta(&mut self, key: &str, value: impl Into<String>) {
        let value = value.into();
        if let Some(slot) = self.meta.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            self.meta.push((key.to_string(), value));
        }
    }

    /// Looks up a metadata key.
    pub fn meta_get(&self, key: &str) -> Option<&str> {
        self.meta
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Finds the first entry at which the two streams disagree — by kind,
    /// virtual time, or any field — or a `"length"` divergence when one
    /// stream is a strict prefix of the other. Mark labels are compared by
    /// *string*, so two journals that interned labels in different orders
    /// still compare by content. Metadata is not compared.
    pub fn first_divergence(&self, other: &Journal) -> Option<Divergence> {
        let n = self.entries.len().min(other.entries.len());
        for i in 0..n {
            let a = &self.entries[i];
            let b = &other.entries[i];
            if let Some(field) = entry_divergence(a, b, &self.labels, &other.labels) {
                return Some(Divergence {
                    index: i as u64,
                    field,
                    vtime_ours: Some(a.vtime),
                    vtime_theirs: Some(b.vtime),
                    ticket: a.event.ticket().or_else(|| b.event.ticket()),
                    op: a.event.op().or_else(|| b.event.op()),
                    ours: a.render(&self.labels),
                    theirs: b.render(&other.labels),
                });
            }
        }
        if self.entries.len() != other.entries.len() {
            let a = self.entries.get(n);
            let b = other.entries.get(n);
            return Some(Divergence {
                index: n as u64,
                field: "length".to_string(),
                vtime_ours: a.map(|e| e.vtime),
                vtime_theirs: b.map(|e| e.vtime),
                ticket: a
                    .and_then(|e| e.event.ticket())
                    .or_else(|| b.and_then(|e| e.event.ticket())),
                op: a
                    .and_then(|e| e.event.op())
                    .or_else(|| b.and_then(|e| e.event.op())),
                ours: a
                    .map(|e| e.render(&self.labels))
                    .unwrap_or_else(|| format!("<end of journal: {} entries>", self.entries.len())),
                theirs: b.map(|e| e.render(&other.labels)).unwrap_or_else(|| {
                    format!("<end of journal: {} entries>", other.entries.len())
                }),
            });
        }
        None
    }
}

/// First differing field between two same-index entries, if any.
fn entry_divergence(
    a: &JournalEntry,
    b: &JournalEntry,
    labels_a: &[String],
    labels_b: &[String],
) -> Option<String> {
    if a.vtime != b.vtime {
        return Some("vtime".to_string());
    }
    if std::mem::discriminant(&a.event) != std::mem::discriminant(&b.event) {
        return Some("kind".to_string());
    }
    let fa = a.event.fields(labels_a);
    let fb = b.event.fields(labels_b);
    for ((name, va), (_, vb)) in fa.iter().zip(fb.iter()) {
        if va != vb {
            return Some(format!("{}.{}", a.event.kind_name(), name));
        }
    }
    None
}

/// A ten-entry journal covering every event kind, for this module's and
/// the codec's tests.
#[cfg(test)]
fn sample() -> Journal {
    let mut j = Journal::new();
    j.set_meta("app", "lu");
    j.set_meta("seed", "42");
    let l = j.intern_label("iter:1");
    j.push(
        SimTime(0),
        JournalEvent::RateWindow {
            node: 2,
            up_bits: 0.5f64.to_bits(),
            down_bits: 0.5f64.to_bits(),
            from: 1_000,
            to: 2_000,
        },
    );
    j.push(
        SimTime(10),
        JournalEvent::Invoke {
            ticket: 0,
            op: 3,
            thread: 1,
            obj_bytes: 4096,
        },
    );
    j.push(
        SimTime(50),
        JournalEvent::Step {
            job: 0,
            op: 3,
            thread: 1,
            node: 0,
            start: 10,
            work: 40,
        },
    );
    j.push(
        SimTime(50),
        JournalEvent::Post {
            op: 3,
            thread: 1,
            to: 4,
            dst_thread: 2,
            wire_bytes: 1024,
            local: 0,
        },
    );
    j.push(
        SimTime(90),
        JournalEvent::Arrive {
            to: 4,
            thread: 2,
            src: 0,
            dst: 1,
            wire_bytes: 1024,
            start: 50,
        },
    );
    j.push(SimTime(90), JournalEvent::Mark { label: l });
    j.push(SimTime(91), JournalEvent::Deactivate { thread: 3 });
    j.push(SimTime(92), JournalEvent::Release { op: 4 });
    j.push(SimTime(93), JournalEvent::Account { delta: -4096 });
    j.push(SimTime(100), JournalEvent::Terminate);
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_streams_have_no_divergence() {
        let j = sample();
        assert!(j.first_divergence(&j.clone()).is_none());
    }

    #[test]
    fn field_divergence_is_pinpointed() {
        let a = sample();
        let mut b = sample();
        if let JournalEvent::Step { job, .. } = &mut b.entries[2].event {
            *job = 7;
        }
        let d = a.first_divergence(&b).expect("must diverge");
        assert_eq!(d.index, 2);
        assert_eq!(d.field, "Step.job");
        assert_eq!(d.ticket, Some(0));
        assert_eq!(d.op, Some(3));
        let msg = d.to_string();
        assert!(msg.contains("event #2"), "{msg}");
        assert!(msg.contains("Step.job"), "{msg}");
        assert!(msg.contains("ticket 0"), "{msg}");
    }

    #[test]
    fn vtime_and_kind_divergences() {
        let a = sample();
        let mut b = sample();
        b.entries[1].vtime = SimTime(11);
        assert_eq!(a.first_divergence(&b).unwrap().field, "vtime");
        let mut c = sample();
        c.entries[1].event = JournalEvent::Terminate;
        assert_eq!(a.first_divergence(&c).unwrap().field, "kind");
    }

    #[test]
    fn length_divergence_points_past_shorter_stream() {
        let a = sample();
        let mut b = sample();
        b.entries.pop();
        let d = a.first_divergence(&b).unwrap();
        assert_eq!(d.field, "length");
        assert_eq!(d.index, a.entries.len() as u64 - 1);
        assert!(d.theirs.contains("end of journal"), "{}", d.theirs);
    }

    #[test]
    fn mark_labels_compare_by_string_not_index() {
        let mut a = Journal::new();
        let ai = a.intern_label("x");
        a.push(SimTime(1), JournalEvent::Mark { label: ai });
        let mut b = Journal::new();
        b.intern_label("unused");
        let bi = b.intern_label("x");
        b.push(SimTime(1), JournalEvent::Mark { label: bi });
        assert!(a.first_divergence(&b).is_none());
        let mut c = Journal::new();
        let ci = c.intern_label("y");
        c.push(SimTime(1), JournalEvent::Mark { label: ci });
        assert_eq!(a.first_divergence(&c).unwrap().field, "Mark.label");
    }

    #[test]
    fn metadata_does_not_affect_stream_equality() {
        let a = sample();
        let mut b = sample();
        b.set_meta("engine_threads", "4");
        b.set_meta("seed", "43");
        assert!(a.first_divergence(&b).is_none());
        assert_eq!(b.meta_get("seed"), Some("43"));
    }

    #[test]
    fn text_divergence_pinpoints_line_and_column() {
        assert!(first_text_divergence("a,b\nc,d\n", "a,b\nc,d\n").is_none());
        let d = first_text_divergence("a,b\nc,d\n", "a,b\nc,X\n").unwrap();
        assert!(d.contains("line 2"), "{d}");
        assert!(d.contains("column 2"), "{d}");
        let d = first_text_divergence("a,b\n", "a,b\nextra\n").unwrap();
        assert!(d.contains("line 2"), "{d}");
    }
}
