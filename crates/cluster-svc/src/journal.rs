//! The decision log: the scheduling-decision journal, its validated
//! replay, and the equivalence check between two runs
//! ([`check_equivalent`]).
//!
//! With [`crate::ServeOptions::journal`] set, every scheduling decision is
//! committed to a [`desim::Journal`] as a `Step` event whose `op` field
//! indexes the journal's Mark-label table ([`DECISION_LABELS`]):
//! `job` = the service-assigned monotone submission id, `thread` = tenant,
//! `node` = cell (`u32::MAX` when the decision concerns no cell),
//! `start` = nodes requested/granted, `work` = decision-specific extra
//! (queue wait on `place`, lost work on `requeue`, released nodes on
//! `shrink`, turnaround on `complete`). Two runs are equivalent iff their
//! decision streams match — [`desim::Journal::first_divergence`] pinpoints
//! the first disagreeing field, which is what lets what-if forks be
//! diffed decision-by-decision.
//!
//! [`DecisionLog`] is the only code that touches the journal, and
//! [`ChunkSender`] → [`PrefixFeed`] is the one channel between a run and
//! the durable log's helper thread, in chunks of recycled buffers. When
//! the run resumes from a recovered prefix it receives that prefix in
//! chunks of decoded entries while the WAL decoder is still reading the
//! rest. While the re-execution is inside the prefix, each decision is
//! built on the stack and compared with the next entry received, and
//! nothing is pushed — so a recovery that diverges fails instead of
//! silently rewriting history. Past the prefix the log appends as usual,
//! and the recovery puts the decoded prefix back in front: one journal,
//! not a recovered one and a re-recorded one. When the run writes a WAL
//! the channel runs the other way: every committed decision goes to the
//! writer thread, which appends it to the journal and seals the frames.

use std::sync::mpsc::{self, Receiver, Sender};
use std::time::Instant;

use desim::journal::first_text_divergence;
use desim::{Journal, JournalEntry, JournalEvent, SimTime};
use dps_sim::{SimError, SimResult};

use crate::config::ServiceConfig;
use crate::service::ServiceOutcome;

/// Decision codes recorded in journal `Step.op`, indexing
/// [`DECISION_LABELS`].
pub mod decision {
    /// Job admitted into its tenant's queue.
    pub const ADMIT: u32 = 0;
    /// Job placed on a cell (first start).
    pub const PLACE: u32 = 1;
    /// Allocation shrunk at an iteration boundary.
    pub const SHRINK: u32 = 2;
    /// Job interrupted by a fault and re-queued.
    pub const REQUEUE: u32 = 3;
    /// Interrupted job re-placed (restart).
    pub const RECOVER: u32 = 4;
    /// Job rejected at admission.
    pub const REJECT: u32 = 5;
    /// Job completed.
    pub const COMPLETE: u32 = 6;
    /// Job terminally failed after admission.
    pub const FAIL: u32 = 7;
    /// Job cancelled.
    pub const CANCEL: u32 = 8;
    /// A what-if candidate future was scored (`start` = nodes, `work` =
    /// predicted remaining span in ns).
    pub const CANDIDATE: u32 = 9;
    /// The winning what-if candidate was committed (`work` = its
    /// `candidate::CandidateKind` as an integer).
    pub const WHATIF: u32 = 10;
    // Code 11 is retired (the what-if circuit breaker's state changes);
    // its label stays in the table, which every journal interns.
}

/// Names of the decision codes, interned into the journal's label table in
/// code order (so `labels[op]` names a decision). `"breaker"` names the
/// retired code 11.
pub const DECISION_LABELS: [&str; 12] = [
    "admit",
    "place",
    "shrink",
    "requeue",
    "recover",
    "reject",
    "complete",
    "fail",
    "cancel",
    "candidate",
    "whatif",
    "breaker",
];

/// `Step.node` value for decisions that concern no cell.
pub const NO_CELL: u32 = u32::MAX;

/// `(submission id, instant)` of every `complete` decision in a decision
/// journal, in commit order: the per-job completion times of a run.
pub fn completions(journal: &Journal) -> impl Iterator<Item = (u64, SimTime)> + '_ {
    journal.entries.iter().filter_map(|e| match e.event {
        JournalEvent::Step { job, op, .. } if op == decision::COMPLETE => Some((job, e.vtime)),
        _ => None,
    })
}

/// Compares the outcomes of two supposedly equivalent service runs — the
/// counterpart of `dps_sim::check_equivalent`. When both carry decision
/// journals the first diverging decision is named
/// ([`desim::Journal::first_divergence`]); otherwise, or when the streams
/// agree, the first differing line of the canonical reports is. Journal
/// metadata is not compared, so runs at different shard counts (which the
/// journal echoes) compare equal.
pub fn check_equivalent(ours: &ServiceOutcome, theirs: &ServiceOutcome) -> Result<(), String> {
    if let (Some(a), Some(b)) = (&ours.journal, &theirs.journal) {
        if let Some(d) = a.first_divergence(b) {
            return Err(d.to_string());
        }
    }
    let (ca, cb) = (
        ours.report.canonical_string(),
        theirs.report.canonical_string(),
    );
    match first_text_divergence(&ca, &cb) {
        Some(d) => Err(format!("canonical reports differ: {d}")),
        None => Ok(()),
    }
}

/// How a validated replay went.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplayStats {
    /// Entries in the recovered committed prefix.
    pub prefix_entries: u64,
    /// Host wall seconds spent re-executing through the prefix — the
    /// recovery's catch-up latency.
    pub catch_up_secs: f64,
}

/// Journal identity of the job a decision concerns.
#[derive(Clone, Copy, Debug)]
pub(crate) struct JobTag {
    /// Service-assigned monotone submission id.
    pub id: u64,
    pub tenant: u32,
}

/// Entries handed across at a time, whatever the frame size: a few
/// hundred messages per million entries. Each message can wake the other
/// thread, which costs the sending thread tens of microseconds on a
/// virtual machine, so a chunk is worth many hundred microseconds of
/// serving.
pub(crate) const CHUNK_ENTRIES: usize = 4096;

/// Chunks filled ahead of the receiving side: enough to keep it fed, few
/// enough to hold little memory.
pub(crate) const CHUNKS_AHEAD: usize = 4;

/// The receiving end of the channel: journal entries in log order, in
/// non-empty chunks. `recover` streams the recovered committed prefix,
/// decoded by the WAL reader, to the re-execution that validates it;
/// `serve_durable` streams a run's committed decisions to the WAL writer.
pub(crate) struct PrefixFeed {
    /// The entries, chunk by chunk; `None` when the WAL scan failed (its
    /// error outranks the replay's). The channel closes after the last
    /// entry.
    pub chunks: Receiver<Option<Vec<JournalEntry>>>,
    /// Spent chunk buffers, back to the sender for reuse.
    pub spent: Sender<Vec<JournalEntry>>,
}

/// The sending end of a [`PrefixFeed`]: gathers entries into chunks, in
/// buffers the receiver hands back.
pub(crate) struct ChunkSender {
    chunks: mpsc::SyncSender<Option<Vec<JournalEntry>>>,
    spent: Receiver<Vec<JournalEntry>>,
    chunk: Vec<JournalEntry>,
    /// Cleared once the receiver has stopped; the sender goes on.
    open: bool,
}

impl ChunkSender {
    /// A sender and the feed it fills. Every chunk buffer is allocated
    /// here, on the calling thread: one being filled, one being read, and
    /// the channel's worth between them.
    pub fn new() -> (ChunkSender, PrefixFeed) {
        let (chunks_tx, chunks) = mpsc::sync_channel(CHUNKS_AHEAD);
        let (spent, spent_rx) = mpsc::channel();
        for _ in 0..=CHUNKS_AHEAD {
            let _ = spent.send(Vec::with_capacity(CHUNK_ENTRIES));
        }
        let sender = ChunkSender {
            chunks: chunks_tx,
            spent: spent_rx,
            chunk: Vec::with_capacity(CHUNK_ENTRIES),
            open: true,
        };
        (sender, PrefixFeed { chunks, spent })
    }

    /// Queues `entries`, sending each chunk as it fills.
    pub fn push(&mut self, mut entries: &[JournalEntry]) {
        while self.open && !entries.is_empty() {
            let take = entries.len().min(CHUNK_ENTRIES - self.chunk.len());
            self.chunk.extend_from_slice(&entries[..take]);
            entries = &entries[take..];
            if self.chunk.len() == CHUNK_ENTRIES {
                self.send();
                // Waits for a spent buffer; none comes once the receiver
                // has stopped.
                match self.spent.recv() {
                    Ok(buf) => self.chunk = buf,
                    Err(_) => self.open = false,
                }
                self.chunk.clear();
            }
        }
    }

    fn send(&mut self) {
        let chunk = std::mem::take(&mut self.chunk);
        self.open &= self.chunks.send(Some(chunk)).is_ok();
    }

    /// Sends the last partial chunk, or `None` when the WAL scan failed.
    pub fn finish(mut self, scanned: bool) {
        if !scanned {
            let _ = self.chunks.send(None);
        } else if self.open && !self.chunk.is_empty() {
            self.send();
        }
    }
}

/// What a run's decision log is joined to besides its own journal.
pub(crate) enum Link {
    /// Nothing: the run records only when asked to.
    Off,
    /// The recovered committed prefix, which the run must reproduce
    /// before it records anything; its journal holds only what follows.
    Resume(PrefixFeed),
    /// The WAL writer: every committed decision goes to it, and the run's
    /// own journal keeps only the tables.
    Write(ChunkSender),
}

/// Live state of a validated journal replay.
struct ResumeCheck {
    /// The rest of the prefix; `None` once it has all been matched.
    feed: Option<PrefixFeed>,
    /// The prefix chunk being matched, and its next entry.
    chunk: Vec<JournalEntry>,
    at: usize,
    /// Prefix entries matched so far.
    cursor: usize,
    /// Wall instant the replay started.
    started: Instant,
    /// Wall seconds to re-execute through the full prefix (an empty one
    /// is caught up before it starts).
    caught_up: Option<f64>,
    /// First divergence, surfaced as a protocol error by the main loop.
    error: Option<String>,
}

impl ResumeCheck {
    fn new(feed: PrefixFeed) -> ResumeCheck {
        let mut rc = ResumeCheck {
            feed: Some(feed),
            chunk: Vec::new(),
            at: 0,
            cursor: 0,
            started: Instant::now(),
            caught_up: None,
            error: None,
        };
        rc.receive();
        rc
    }

    /// Whether the re-execution is still inside the prefix.
    fn inside(&self) -> bool {
        self.feed.is_some()
    }

    /// Checks a re-executed decision against the prefix entry it must
    /// reproduce.
    fn validate(&mut self, got: &JournalEntry) {
        if self.error.is_some() {
            return;
        }
        let want = &self.chunk[self.at];
        if got == want {
            self.cursor += 1;
            self.at += 1;
            if self.at == self.chunk.len() {
                self.next_chunk();
            }
        } else {
            self.error = Some(format!(
                "re-execution diverged from the recovered prefix at \
                 entry {}: expected {want:?}, got {got:?}",
                self.cursor
            ));
        }
    }

    /// Hands the spent chunk back and waits for the next one; when the
    /// feed closes instead, the prefix is caught up.
    fn next_chunk(&mut self) {
        if let Some(feed) = &self.feed {
            // The decoder may have finished already; then the buffer is freed.
            let _ = feed.spent.send(std::mem::take(&mut self.chunk));
        }
        self.receive();
    }

    fn receive(&mut self) {
        let Some(feed) = &self.feed else { return };
        self.at = 0;
        match feed.chunks.recv() {
            Ok(Some(chunk)) => self.chunk = chunk,
            Ok(None) => self.error = Some("the WAL scan failed".to_string()),
            Err(_) => {
                self.feed = None;
                self.caught_up = Some(match self.cursor {
                    0 => 0.0,
                    _ => self.started.elapsed().as_secs_f64(),
                });
            }
        }
    }

    /// Length of the whole prefix: the entries matched plus every one
    /// still to come, waiting for the decoder to finish.
    fn prefix_len(&self) -> usize {
        let mut len = self.cursor + self.chunk.len() - self.at;
        if let Some(feed) = &self.feed {
            for chunk in feed.chunks.iter().flatten() {
                len += chunk.len();
                let _ = feed.spent.send(chunk);
            }
        }
        len
    }
}

/// The journal tap, and the replay check or the WAL writer behind it.
pub(crate) struct DecisionLog {
    journal: Option<Journal>,
    resume: Option<ResumeCheck>,
    writer: Option<ChunkSender>,
}

impl DecisionLog {
    /// A log that records when asked to or when `link`ed to anything.
    pub fn new(cfg: &ServiceConfig, record: bool, link: Link) -> DecisionLog {
        let journal = (record || !matches!(link, Link::Off)).then(|| journal_tables(cfg));
        let (resume, writer) = match link {
            Link::Off => (None, None),
            Link::Resume(prefix) => (Some(ResumeCheck::new(prefix)), None),
            Link::Write(sender) => (None, Some(sender)),
        };
        DecisionLog {
            journal,
            resume,
            writer,
        }
    }

    /// Commits one decision at `now`. Inlined, so that a serve without a
    /// journal pays one test per decision and no call.
    #[inline]
    pub fn record(
        &mut self,
        now: SimTime,
        op: u32,
        job: JobTag,
        cell: u32,
        nodes: u32,
        extra: u64,
    ) {
        if self.journal.is_some() {
            self.commit(JournalEntry {
                vtime: now,
                event: JournalEvent::Step {
                    job: job.id,
                    op,
                    thread: job.tenant,
                    node: cell,
                    start: u64::from(nodes),
                    work: extra,
                },
            });
        }
    }

    fn commit(&mut self, got: JournalEntry) {
        let Some(j) = &mut self.journal else { return };
        match (&mut self.resume, &mut self.writer) {
            // Inside the prefix the entry is already in the decoded WAL.
            (Some(rc), _) if rc.inside() => rc.validate(&got),
            (_, Some(writer)) => writer.push(std::slice::from_ref(&got)),
            _ => j.entries.push(got),
        }
    }

    /// Fails once a committed entry has diverged from the recovered
    /// prefix; with `finished`, also when the run ended short of it.
    /// Inlined, like [`DecisionLog::record`], for the serve that resumes
    /// nothing.
    #[inline]
    pub fn check(&mut self, finished: bool) -> SimResult<()> {
        match self.resume {
            None => Ok(()),
            Some(_) => self.check_resume(finished),
        }
    }

    fn check_resume(&mut self, finished: bool) -> SimResult<()> {
        let Some(rc) = &mut self.resume else {
            return Ok(());
        };
        let msg = match rc.error.take() {
            Some(msg) => msg,
            None if finished && rc.inside() => format!(
                "re-execution committed only {} of {} recovered decisions",
                rc.cursor,
                rc.prefix_len()
            ),
            None => return Ok(()),
        };
        Err(SimError::protocol(msg).context("validated journal replay"))
    }

    /// The journal (when recording; past the prefix, when resuming; the
    /// tables alone, when writing) and the replay statistics (when
    /// resuming, after a run that passed [`DecisionLog::check`], so every
    /// prefix entry was matched). The writer gets the last decisions.
    pub fn finish(self) -> (Option<Journal>, Option<ReplayStats>) {
        if let Some(writer) = self.writer {
            writer.finish(true);
        }
        let replay = self.resume.map(|rc| ReplayStats {
            prefix_entries: rc.cursor as u64,
            catch_up_secs: rc
                .caught_up
                .unwrap_or_else(|| rc.started.elapsed().as_secs_f64()),
        });
        (self.journal, replay)
    }
}

/// An entry-less journal with the metadata and label table this service
/// writes: the head of its decision journal and of its WAL's header frame.
pub(crate) fn journal_tables(cfg: &ServiceConfig) -> Journal {
    let mut j = Journal::new();
    for label in DECISION_LABELS {
        j.intern_label(label);
    }
    j.set_meta("service", "cluster-svc");
    j.set_meta("nodes_per_cell", cfg.nodes_per_cell.to_string());
    j.set_meta("cells", cfg.cells.to_string());
    j.set_meta("shards", cfg.shards.to_string());
    j.set_meta("policy", format!("{:?}", cfg.policy));
    j.set_meta("tenants", cfg.tenants.len().to_string());
    j
}
