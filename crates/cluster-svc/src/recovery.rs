//! Durable write-ahead logging and crash recovery for the decision
//! journal.
//!
//! # Durability model
//!
//! The service's committed decision stream (see [`crate::decision`]) is
//! made durable as a **segmented write-ahead log**: a magic header
//! followed by length-prefixed, CRC32-checksummed frames. Frame 0 holds
//! the journal header (meta table + interned labels, no entries); every
//! later frame holds one *group commit* — a delta-coded batch of journal
//! entries sealed by the [`DurabilitySpec`] (every K committed events).
//! A frame boundary models an `fsync`:
//! a crash loses only the unsealed tail, never a sealed frame.
//!
//! Because the sealing cadence is a pure function of the committed entry
//! stream, [`WriteAheadLog::build`] constructed *after* a run is
//! byte-identical to the log an online implementation would have written
//! frame-by-frame — which is what lets the crash harness snapshot "what
//! the disk held" at any commit boundary without threading I/O through
//! the hot loop.
//!
//! # Recovery
//!
//! [`WriteAheadLog::scan`] walks frames, verifying each length and
//! checksum. The first invalid frame ends the committed prefix: if it is
//! the trailing write it is a **torn tail** — recorded and truncated,
//! never replayed ([`TornTail`]); a WAL whose magic or header frame is
//! unreadable has no committed state at all and fails with a typed
//! [`WalError`], and so does a frame that passes its checksum but does
//! not decode.
//!
//! [`ClusterService::recover`] runs that walk beside the re-execution.
//! It reads the header frame itself, refuses a header whose tables this
//! service would not have written, allocates the prefix journal once (to
//! the entry count the frames declare) and hands the entry frames to one
//! scoped helper thread. The helper checks and decodes each frame into
//! the prefix journal and streams copies of the decoded entries, in
//! chunks of recycled buffers over a bounded channel, to the run's
//! decision log.
//! The re-execution starts at once and compares each decision with the
//! next entry received, pushing nothing (any divergence is a typed
//! protocol error); past the prefix it appends as usual and continues to
//! completion. The helper always walks the whole log, even after the
//! re-execution stopped, so the verdict is the serial one: header errors
//! first, then a frame that does not decode, then the re-execution's
//! own errors. At the end the decoded prefix becomes the head of the
//! run's journal, followed by what the run committed past it: one
//! journal, never a recovered copy beside a re-recorded one. A recovered
//! run's report and journal are byte-identical to an uninterrupted run —
//! the recover-at-every-prefix property tests assert exactly that.

use std::fmt;
use std::sync::mpsc;
use std::thread;

use desim::journal::MAX_ENTRY_BYTES;
use desim::{crc32, Journal, JournalEntry};
use dps_sim::{SimError, SimResult};
use faults::FaultPlan;

use crate::job::JobSpec;
use crate::journal::{journal_tables, PrefixFeed};
use crate::service::{ClusterService, ServeOptions, ServiceOutcome};

/// Magic bytes opening every WAL.
pub const WAL_MAGIC: &[u8] = b"DVNSWAL1\n";

/// Group-commit (modeled `fsync`) cadence: when a frame is sealed.
///
/// The cadence depends only on the committed entry stream — its entry
/// count — never on host state, so the log layout is as deterministic as
/// the journal itself.
#[derive(Clone, Copy, Debug)]
pub struct DurabilitySpec {
    /// Seal a frame after this many committed events (minimum 1).
    pub group_events: u64,
}

impl DurabilitySpec {
    /// A spec sealing every `events` committed events.
    pub fn group_commit(events: u64) -> DurabilitySpec {
        DurabilitySpec {
            group_events: events,
        }
    }

    /// Entry-index ranges `[start, end)` of each sealed frame — the pure
    /// function of the committed stream that makes post-hoc WAL
    /// construction equal online logging. A group that could outgrow a
    /// frame's 4-byte length prefix is sealed early.
    pub fn frame_ranges(&self, entries: &[JournalEntry]) -> Vec<(usize, usize)> {
        self.frame_ranges_under(entries.len(), MAX_FRAME_PAYLOAD)
    }

    /// [`DurabilitySpec::frame_ranges`] for frames of at most
    /// `max_payload` bytes: no group holds more entries than fit in that
    /// at their widest encoding, whatever their values turn out to be.
    fn frame_ranges_under(&self, entries: usize, max_payload: usize) -> Vec<(usize, usize)> {
        let fits = max_payload.saturating_sub(BATCH_COUNT_BYTES) / MAX_ENTRY_BYTES;
        let group = usize::try_from(self.group_events)
            .unwrap_or(usize::MAX)
            .clamp(1, fits.max(1));
        (0..entries)
            .step_by(group)
            .map(|start| (start, entries.min(start.saturating_add(group))))
            .collect()
    }
}

/// Largest payload a frame's `u32` length prefix can carry.
const MAX_FRAME_PAYLOAD: usize = u32::MAX as usize;

/// Most bytes a batch's leading entry-count varint can take.
const BATCH_COUNT_BYTES: usize = 10;

/// Unrecoverable WAL corruption: bad magic, or an unreadable header
/// frame — there is no committed state to recover.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalError {
    /// Byte offset of the corruption.
    pub offset: usize,
    /// What was wrong there.
    pub reason: String,
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unrecoverable WAL at offset {}: {}",
            self.offset, self.reason
        )
    }
}

impl std::error::Error for WalError {}

/// A trailing invalid frame, detected by its length prefix or checksum
/// and truncated by the scan — a torn write is never replayed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TornTail {
    /// Byte offset the torn frame starts at.
    pub offset: usize,
    /// Why the frame was rejected.
    pub reason: String,
}

/// What a [`WriteAheadLog::scan`] recovered.
#[derive(Clone, Debug)]
pub struct RecoveredPrefix {
    /// The committed journal prefix (header + every sealed entry batch).
    pub journal: Journal,
    /// Valid frames consumed (including the header frame).
    pub frames: usize,
    /// The torn tail, when one was detected and truncated.
    pub torn: Option<TornTail>,
}

/// How a [`ClusterService::recover`] found the crashed log.
#[derive(Clone, Debug)]
pub struct CrashReport {
    /// Committed decision entries recovered from the WAL.
    pub recovered_entries: u64,
    /// Valid frames consumed (including the header frame).
    pub frames: usize,
    /// The torn tail, when one was detected and truncated.
    pub torn: Option<TornTail>,
}

/// A segmented, checksummed write-ahead log of one run's decision
/// journal (see the module docs for the format).
#[derive(Clone, Debug)]
pub struct WriteAheadLog {
    bytes: Vec<u8>,
    /// Start offset of each frame, plus a final end-of-log sentinel.
    offsets: Vec<usize>,
    /// Cumulative committed entries after each frame.
    cum_entries: Vec<u64>,
}

/// Appends one frame whose payload `write` encodes straight into the log
/// after an 8-byte hole, then back-patches the hole with the payload's
/// length and checksum — no payload buffer, no copy.
fn push_frame(out: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) {
    let hole = out.len();
    out.extend_from_slice(&[0; 8]);
    write(out);
    let payload = &out[hole + 8..];
    let len = u32::try_from(payload.len()).expect("frame_ranges seals before 4 GiB");
    let crc = crc32(payload);
    out[hole..hole + 4].copy_from_slice(&len.to_le_bytes());
    out[hole + 4..hole + 8].copy_from_slice(&crc.to_le_bytes());
}

/// Splits the frame at `pos` into its checksum and payload, unverified;
/// an error is the reason the frame is short.
fn frame_at(bytes: &[u8], pos: usize) -> Result<(u32, &[u8], usize), String> {
    let Some(hdr) = bytes.get(pos..pos + 8) else {
        return Err(format!(
            "truncated frame header ({} of 8 bytes)",
            bytes.len() - pos
        ));
    };
    let len = u32::from_le_bytes(hdr[..4].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_le_bytes(hdr[4..8].try_into().expect("4 bytes"));
    let Some(payload) = bytes.get(pos + 8..pos + 8 + len) else {
        return Err(format!(
            "truncated frame payload ({} of {len} bytes)",
            bytes.len() - pos - 8
        ));
    };
    Ok((crc, payload, pos + 8 + len))
}

/// Reads the frame at `pos`; an error is the reason the frame is invalid
/// (short header, short payload, or checksum mismatch).
fn read_frame(bytes: &[u8], pos: usize) -> Result<(&[u8], usize), String> {
    let (crc, payload, next) = frame_at(bytes, pos)?;
    if crc32(payload) != crc {
        return Err("frame checksum mismatch".to_string());
    }
    Ok((payload, next))
}

/// Entries the frames from `pos` declare, read before any checksum: the
/// capacity the decoded prefix is allocated with up front. A forged count
/// reserves no more than decoding the payload could fill: an entry takes
/// at least two bytes, its kind and its vtime delta.
fn declared_entries(bytes: &[u8], mut pos: usize) -> usize {
    let mut entries = 0usize;
    while let Ok((_, payload, next)) = frame_at(bytes, pos) {
        let n = Journal::entry_batch_len(payload).unwrap_or(0);
        entries += usize::try_from(n)
            .unwrap_or(usize::MAX)
            .min(payload.len() / 2);
        pos = next;
    }
    entries
}

impl WriteAheadLog {
    /// Builds the WAL of a finished run's journal under `spec`. Frame 0
    /// is the journal header; each later frame is one sealed entry batch.
    pub fn build(journal: &Journal, spec: &DurabilitySpec) -> WriteAheadLog {
        Self::build_framed(journal, spec.frame_ranges(&journal.entries))
    }

    fn build_framed(journal: &Journal, ranges: Vec<(usize, usize)>) -> WriteAheadLog {
        let mut bytes = Vec::with_capacity(64 + journal.entries.len() * 8);
        bytes.extend_from_slice(WAL_MAGIC);
        let mut offsets = vec![bytes.len()];
        let mut cum_entries = vec![0u64];
        push_frame(&mut bytes, |out| {
            out.extend_from_slice(&journal.encode_header())
        });
        offsets.push(bytes.len());
        cum_entries.push(0);
        for (s, e) in ranges {
            push_frame(&mut bytes, |out| journal.encode_entries_into(out, s, e));
            offsets.push(bytes.len());
            cum_entries.push(e as u64);
        }
        WriteAheadLog {
            bytes,
            offsets,
            cum_entries,
        }
    }

    /// The full log bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Total frames (header frame included).
    pub fn frames(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Committed entries covered by the whole log.
    pub fn entries(&self) -> u64 {
        *self.cum_entries.last().expect("sentinel")
    }

    /// Committed entries covered by the first `frames` frames.
    pub fn entries_through(&self, frames: usize) -> u64 {
        self.cum_entries[frames]
    }

    /// The log truncated at a frame boundary — what a disk that synced
    /// exactly `frames` frames holds.
    pub fn frame_prefix(&self, frames: usize) -> &[u8] {
        &self.bytes[..self.offsets[frames]]
    }

    /// The raw bytes of frame `i` (length prefix and checksum included).
    pub fn frame_bytes(&self, i: usize) -> &[u8] {
        &self.bytes[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Validates `bytes` frame-by-frame and decodes the committed prefix.
    /// The first invalid frame past the header becomes a truncated
    /// [`TornTail`]; a broken magic or header frame is a [`WalError`].
    pub fn scan(bytes: &[u8]) -> Result<RecoveredPrefix, WalError> {
        let (mut journal, pos) = read_header(bytes)?;
        let (frames, torn) = walk_frames(bytes, pos, &mut journal, |_| {})?;
        Ok(RecoveredPrefix {
            journal,
            frames,
            torn,
        })
    }
}

/// Checks the magic and decodes the header frame: the journal's tables,
/// with no entries but room for every entry the frames declare (allocated
/// here, on the calling thread, and only faulted in by the walk), and the
/// offset its first entry frame starts at.
fn read_header(bytes: &[u8]) -> Result<(Journal, usize), WalError> {
    if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(WalError {
            offset: 0,
            reason: "bad WAL magic".to_string(),
        });
    }
    let pos = WAL_MAGIC.len();
    let err = |reason| {
        Err(WalError {
            offset: pos,
            reason,
        })
    };
    if pos == bytes.len() {
        return err("WAL has no header frame".to_string());
    }
    let (payload, next) = match read_frame(bytes, pos) {
        Ok(frame) => frame,
        Err(reason) => return err(reason),
    };
    match Journal::decode(payload) {
        Err(e) => err(format!("header frame does not decode: {e}")),
        Ok(j) if !j.is_empty() => err(format!("header frame carries {} entries", j.len())),
        Ok(mut j) => {
            j.entries.reserve_exact(declared_entries(bytes, next));
            Ok((j, next))
        }
    }
}

/// Walks the entry frames from `pos` to the end of `bytes`, appending
/// each frame's batch to `journal` and passing the entries it added to
/// `on_frame`. Returns the frames consumed (the header's included) and
/// the torn tail: the first frame whose length or checksum fails ends
/// the committed prefix. A frame that passes its checksum but does not
/// decode is corruption beyond a torn write, and refuses the whole log.
fn walk_frames(
    bytes: &[u8],
    mut pos: usize,
    journal: &mut Journal,
    mut on_frame: impl FnMut(&[JournalEntry]),
) -> Result<(usize, Option<TornTail>), WalError> {
    let mut frames = 1;
    while pos < bytes.len() {
        let (payload, next) = match read_frame(bytes, pos) {
            Ok(frame) => frame,
            Err(reason) => {
                return Ok((
                    frames,
                    Some(TornTail {
                        offset: pos,
                        reason,
                    }),
                ))
            }
        };
        let start = journal.len();
        if let Err(e) = journal.append_entry_batch(payload) {
            return Err(WalError {
                offset: pos,
                reason: format!("frame {frames} does not decode: {e}"),
            });
        }
        on_frame(&journal.entries[start..]);
        frames += 1;
        pos = next;
    }
    Ok((frames, None))
}

/// Prefix entries handed to the re-execution at a time, whatever the
/// frame size: a few hundred messages per million entries, in buffers
/// small enough to stay in the allocator's heap.
const CHUNK_ENTRIES: usize = 1024;

/// Chunks decoded ahead of the re-execution: enough to keep it fed, few
/// enough to hold little memory.
const CHUNKS_AHEAD: usize = 4;

/// The decoder's end of a [`PrefixFeed`]: gathers the decoded entries
/// into chunks, in buffers the re-execution hands back.
struct ChunkSender {
    chunks: mpsc::SyncSender<Option<Vec<JournalEntry>>>,
    spent: mpsc::Receiver<Vec<JournalEntry>>,
    chunk: Vec<JournalEntry>,
    /// Cleared once the re-execution has stopped; the scan goes on.
    open: bool,
}

impl ChunkSender {
    /// A sender and the feed it fills. Every chunk buffer is allocated
    /// here, on the calling thread: one being filled, one being matched,
    /// and the channel's worth between them.
    fn new() -> (ChunkSender, PrefixFeed) {
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

    fn push(&mut self, mut entries: &[JournalEntry]) {
        while self.open && !entries.is_empty() {
            let take = entries.len().min(CHUNK_ENTRIES - self.chunk.len());
            self.chunk.extend_from_slice(&entries[..take]);
            entries = &entries[take..];
            if self.chunk.len() == CHUNK_ENTRIES {
                self.send();
                // Waits for a spent buffer; none comes once the rerun ends.
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

    /// Sends the last partial chunk, or `None` when the scan failed.
    fn finish(mut self, scanned: bool) {
        if !scanned {
            let _ = self.chunks.send(None);
        } else if self.open && !self.chunk.is_empty() {
            self.send();
        }
    }
}

/// A seeded crash point: which sealed frames survive. The write in
/// flight at the crash leaves a torn partial of the next frame behind —
/// half its bytes with one bit flipped — exercising checksum truncation
/// on recovery.
#[derive(Clone, Copy, Debug)]
pub struct CrashPlan {
    /// Seed picking the crash boundary (and the torn bit position).
    pub seed: u64,
}

fn xorshift(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

impl CrashPlan {
    /// A crash plan with the given seed.
    pub fn new(seed: u64) -> CrashPlan {
        CrashPlan { seed }
    }

    /// Sealed frames surviving this crash: `1..=frames` (the header
    /// frame always lands before the first commit).
    pub fn keep_frames(&self, wal: &WriteAheadLog) -> usize {
        1 + (xorshift(self.seed) % wal.frames() as u64) as usize
    }

    /// What the disk holds after the crash: the surviving frame prefix,
    /// plus a corrupted partial of the next frame when there is one.
    pub fn crashed_bytes(&self, wal: &WriteAheadLog) -> Vec<u8> {
        let keep = self.keep_frames(wal);
        let mut out = wal.frame_prefix(keep).to_vec();
        if keep < wal.frames() {
            let next = wal.frame_bytes(keep);
            let take = (next.len() / 2).max(1);
            let mut part = next[..take].to_vec();
            let i = (xorshift(self.seed ^ 0xD6E8_FEB8_6659_FD93) % part.len() as u64) as usize;
            part[i] ^= 1 << (self.seed % 8);
            out.extend_from_slice(&part);
        }
        out
    }
}

impl ClusterService {
    /// Serves `stream` with the decision journal on and returns the
    /// outcome plus the durable WAL of its committed decision stream
    /// under `spec` — byte-identical to what online frame-by-frame
    /// logging would have written (see the module docs).
    pub fn serve_durable(
        &self,
        stream: impl IntoIterator<Item = JobSpec>,
        plan: &FaultPlan,
        opts: &ServeOptions,
        spec: &DurabilitySpec,
    ) -> SimResult<(ServiceOutcome, WriteAheadLog)> {
        let mut o = opts.clone();
        o.journal = true;
        let out = self.serve(stream, plan, &o)?;
        let wal = WriteAheadLog::build(out.journal.as_ref().expect("journal requested"), spec);
        Ok((out, wal))
    }

    /// Recovers from crashed WAL bytes: truncates the log at the last
    /// valid checksum, then re-serves `stream` against the recovered
    /// committed prefix — the rerun must reproduce every recovered
    /// decision before committing anything new, and continues to
    /// completion. The outcome's journal is the prefix followed by what
    /// the rerun committed past it; its `replay` carries the catch-up
    /// latency.
    ///
    /// One helper thread decodes the entry frames while the rerun
    /// validates the ones already decoded. The verdict is the one of
    /// scanning the whole log first: a corrupt header or a header this
    /// service would not have written, then a frame that passes its
    /// checksum but does not decode, then the rerun's own errors.
    pub fn recover(
        &self,
        stream: impl IntoIterator<Item = JobSpec>,
        plan: &FaultPlan,
        opts: &ServeOptions,
        wal_bytes: &[u8],
    ) -> SimResult<(ServiceOutcome, CrashReport)> {
        let wal_err = |e: WalError| SimError::protocol(e.to_string());
        let (mut head, pos) = read_header(wal_bytes).map_err(wal_err)?;
        check_tables(&head, &journal_tables(self.config()))?;
        let (mut sender, feed) = ChunkSender::new();
        let (served, walked) = thread::scope(|s| {
            let decoder = s.spawn(move || {
                let walked = walk_frames(wal_bytes, pos, &mut head, |e| sender.push(e));
                sender.finish(walked.is_ok());
                walked.map(|(frames, torn)| (head, frames, torn))
            });
            let served = self.serve_resumed(stream, plan, opts, Some(feed));
            let walked = decoder.join().expect("the WAL decoder does not panic");
            (served, walked)
        });
        let (head, frames, torn) = walked.map_err(wal_err)?;
        let mut out = served?;
        let report = CrashReport {
            recovered_entries: head.len() as u64,
            frames,
            torn,
        };
        let journal = out.journal.as_mut().expect("a resumed run records");
        let suffix = std::mem::replace(&mut journal.entries, head.entries);
        journal.entries.extend(suffix);
        Ok((out, report))
    }
}

/// Fails unless the WAL's header tables are the ones this service writes
/// (`ours`): every metadata key but `shards`, which is only echoed, and
/// the label table.
fn check_tables(wal: &Journal, ours: &Journal) -> SimResult<()> {
    let keys = ours.meta.iter().chain(&wal.meta).map(|(k, _)| k.as_str());
    for key in keys.filter(|&k| k != "shards") {
        let (theirs, mine) = (wal.meta_get(key), ours.meta_get(key));
        if theirs != mine {
            let show = |v: Option<&str>| v.map_or("nothing".to_string(), |v| format!("{v:?}"));
            return Err(SimError::protocol(format!(
                "WAL header meta `{key}` is {}, but this service writes {}",
                show(theirs),
                show(mine)
            )));
        }
    }
    if wal.labels != ours.labels {
        return Err(SimError::protocol(format!(
            "WAL header labels are {:?}, this service writes {:?}",
            wal.labels, ours.labels
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ServiceConfig, TenantSpec};
    use crate::job::SyntheticLoad;
    use crate::SchedulePolicy;
    use desim::SimDuration;

    fn svc(shards: u32) -> ClusterService {
        ClusterService::new(
            ServiceConfig::new(
                4,
                4,
                shards,
                SchedulePolicy::Malleable {
                    min_efficiency: 0.5,
                },
            )
            .with_tenant(TenantSpec::new("a", 2))
            .with_tenant(TenantSpec::new("b", 1)),
        )
        .unwrap()
    }

    fn load(jobs: u64) -> SyntheticLoad {
        SyntheticLoad::new(
            jobs,
            2,
            4,
            SimDuration::from_millis(50),
            SimDuration::from_millis(400),
            11,
        )
    }

    fn durable_run(shards: u32) -> (ServiceOutcome, WriteAheadLog) {
        svc(shards)
            .serve_durable(
                load(150),
                &FaultPlan::none(),
                &ServeOptions::default(),
                &DurabilitySpec::group_commit(64),
            )
            .unwrap()
    }

    #[test]
    fn every_frame_prefix_scans_back_to_its_committed_entries() {
        let (out, wal) = durable_run(2);
        let j = out.journal.expect("journal");
        assert!(
            wal.frames() > 4,
            "want several frames, got {}",
            wal.frames()
        );
        assert_eq!(wal.entries(), j.len() as u64);
        for k in 1..=wal.frames() {
            let rec = WriteAheadLog::scan(wal.frame_prefix(k)).unwrap();
            assert_eq!(rec.frames, k);
            assert!(rec.torn.is_none());
            assert_eq!(
                rec.journal.len() as u64,
                wal.entries_through(k),
                "frame {k}"
            );
            assert_eq!(&rec.journal.entries[..], &j.entries[..rec.journal.len()]);
            assert_eq!(rec.journal.labels, j.labels);
            assert_eq!(rec.journal.meta, j.meta);
        }
    }

    #[test]
    fn a_torn_tail_is_detected_and_truncated_never_replayed() {
        let (_, wal) = durable_run(1);
        for seed in 0..16 {
            let crash = CrashPlan::new(seed);
            let keep = crash.keep_frames(&wal);
            let bytes = crash.crashed_bytes(&wal);
            let rec = WriteAheadLog::scan(&bytes).unwrap();
            assert_eq!(rec.frames, keep, "seed {seed}");
            assert_eq!(rec.journal.len() as u64, wal.entries_through(keep));
            if keep < wal.frames() {
                let torn = rec.torn.expect("torn tail appended");
                assert_eq!(torn.offset, wal.frame_prefix(keep).len());
            } else {
                assert!(rec.torn.is_none());
            }
        }
    }

    #[test]
    fn a_bit_flip_inside_a_sealed_frame_truncates_at_its_checksum() {
        let (_, wal) = durable_run(1);
        assert!(wal.frames() >= 3);
        let mut bytes = wal.frame_prefix(3).to_vec();
        // Flip one payload bit of frame 2 (offset 8 skips its header).
        let frame2 = wal.frame_prefix(2).len();
        bytes[frame2 + 8] ^= 0x10;
        let rec = WriteAheadLog::scan(&bytes).unwrap();
        assert_eq!(rec.frames, 2);
        assert_eq!(rec.journal.len() as u64, wal.entries_through(2));
        let torn = rec.torn.expect("checksum mismatch becomes a torn tail");
        assert_eq!(torn.offset, frame2);
        assert!(torn.reason.contains("checksum"));
    }

    #[test]
    fn bad_magic_and_broken_header_frames_are_fatal() {
        let (_, wal) = durable_run(1);
        let err = WriteAheadLog::scan(b"NOTAWAL..").unwrap_err();
        assert_eq!(err.offset, 0);
        let mut torn_header = wal.bytes()[..WAL_MAGIC.len() + 5].to_vec();
        torn_header.push(0);
        assert!(WriteAheadLog::scan(&torn_header).is_err());
        assert!(WriteAheadLog::scan(WAL_MAGIC).is_err(), "no header frame");
    }

    #[test]
    fn recovery_from_every_crash_point_matches_the_uninterrupted_run() {
        let (full, wal) = durable_run(2);
        let full_j = full.journal.as_ref().expect("journal");
        let opts = ServeOptions {
            journal: true,
            ..ServeOptions::default()
        };
        for seed in 0..8 {
            let crash = CrashPlan::new(seed);
            let bytes = crash.crashed_bytes(&wal);
            let (out, cr) = svc(2)
                .recover(load(150), &FaultPlan::none(), &opts, &bytes)
                .unwrap();
            assert_eq!(
                cr.recovered_entries,
                wal.entries_through(crash.keep_frames(&wal))
            );
            crate::check_equivalent(&out, &full).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let j = out.journal.as_ref().expect("journal");
            assert_eq!(j.encode(), full_j.encode(), "seed {seed}");
            let replay = out.replay.expect("resumed run reports replay stats");
            assert_eq!(replay.prefix_entries, cr.recovered_entries);
            assert_eq!(replay.matched, replay.prefix_entries);
        }
    }

    #[test]
    fn a_foreign_prefix_fails_replay_validation_with_a_typed_error() {
        let (_, wal) = durable_run(1);
        // Recover against a *different* stream: the rerun diverges from
        // the recovered prefix and must fail, not silently rewrite it.
        let err = svc(1)
            .recover(
                load(40),
                &FaultPlan::none(),
                &ServeOptions::default(),
                wal.bytes(),
            )
            .unwrap_err();
        let msg = format!("{err}");
        assert!(msg.contains("recovered"), "unexpected error: {msg}");
    }

    /// Taken on the commit before frames were built in place: the log is
    /// the same bytes, not merely one that scans back clean.
    #[test]
    fn wal_bytes_are_pinned() {
        use std::hash::Hasher;
        let (_, wal) = durable_run(2);
        let mut h = desim::FxHasher::default();
        h.write(wal.bytes());
        assert_eq!(
            (wal.bytes().len(), wal.frames(), h.finish()),
            (6277, 9, 0xcc92_58c6_989d_ccc5)
        );
    }

    #[test]
    fn a_group_too_large_for_the_length_prefix_is_sealed_early() {
        let (out, _) = durable_run(1);
        let j = out.journal.expect("journal");
        let spec = DurabilitySpec::group_commit(u64::MAX);
        assert_eq!(spec.frame_ranges(&j.entries), [(0, j.len())]);
        // A stand-in for 4 GiB: frames that can be sure of eight entries.
        let cap = BATCH_COUNT_BYTES + 8 * MAX_ENTRY_BYTES;
        let ranges = spec.frame_ranges_under(j.len(), cap);
        assert_eq!(ranges.len(), j.len().div_ceil(8));
        assert!(ranges.iter().all(|&(s, e)| s < e && e - s <= 8));
        let wal = WriteAheadLog::build_framed(&j, ranges);
        for i in 0..wal.frames() {
            assert!(wal.frame_bytes(i).len() - 8 <= cap, "frame {i}");
        }
        let rec = WriteAheadLog::scan(wal.bytes()).unwrap();
        assert!(rec.torn.is_none());
        assert_eq!(rec.journal.entries, j.entries);
        // Groups that fit are left alone.
        let small = DurabilitySpec::group_commit(5);
        assert_eq!(
            small.frame_ranges_under(j.len(), cap),
            small.frame_ranges(&j.entries)
        );
    }

    #[test]
    fn an_empty_prefix_is_caught_up_at_once() {
        let (full, wal) = durable_run(2);
        let crash = (0..)
            .map(CrashPlan::new)
            .find(|c| c.keep_frames(&wal) == 1)
            .expect("some seed keeps only the header frame");
        let (out, cr) = svc(2)
            .recover(
                load(150),
                &FaultPlan::none(),
                &ServeOptions::default(),
                &crash.crashed_bytes(&wal),
            )
            .unwrap();
        assert_eq!((cr.recovered_entries, cr.frames), (0, 1));
        let replay = out.replay.expect("replay stats");
        assert_eq!((replay.prefix_entries, replay.matched), (0, 0));
        assert_eq!(replay.catch_up_secs, 0.0);
        assert_eq!(
            out.journal.expect("journal").encode(),
            full.journal.expect("journal").encode()
        );
    }

    #[test]
    fn a_divergence_inside_the_prefix_is_reported_at_its_entry() {
        let (out, _) = durable_run(1);
        let original = out.journal.expect("journal");
        let k = original.len() / 2;
        let mut planted = original.clone();
        match &mut planted.entries[k].event {
            desim::JournalEvent::Step { work, .. } => *work += 1,
            other => panic!("decisions are Step events, got {other:?}"),
        }
        let wal = WriteAheadLog::build(&planted, &DurabilitySpec::group_commit(64));
        let err = svc(1)
            .recover(
                load(150),
                &FaultPlan::none(),
                &ServeOptions::default(),
                wal.bytes(),
            )
            .unwrap_err();
        let want = format!(
            "re-execution diverged from the recovered prefix at entry {k}: \
             expected {:?}, got {:?}",
            planted.entries[k], original.entries[k]
        );
        assert!(format!("{err}").contains(&want), "{err}");
    }

    #[test]
    fn a_wal_from_a_differently_configured_service_is_refused() {
        let rigid = ClusterService::new(
            ServiceConfig::new(4, 4, 1, SchedulePolicy::Rigid)
                .with_tenant(TenantSpec::new("a", 2))
                .with_tenant(TenantSpec::new("b", 1)),
        )
        .unwrap();
        let (_, wal) = rigid
            .serve_durable(
                load(150),
                &FaultPlan::none(),
                &ServeOptions::default(),
                &DurabilitySpec::group_commit(64),
            )
            .unwrap();
        let two_cells = ClusterService::new(
            ServiceConfig::new(
                4,
                2,
                1,
                SchedulePolicy::Malleable {
                    min_efficiency: 0.5,
                },
            )
            .with_tenant(TenantSpec::new("a", 2))
            .with_tenant(TenantSpec::new("b", 1)),
        )
        .unwrap();
        for keep in [1, 2, wal.frames()] {
            let err = two_cells
                .recover(
                    load(150),
                    &FaultPlan::none(),
                    &ServeOptions::default(),
                    wal.frame_prefix(keep),
                )
                .unwrap_err();
            assert!(
                format!("{err}")
                    .contains(r#"WAL header meta `cells` is "4", but this service writes "2""#),
                "{keep} frames: {err}"
            );
        }
        // The shard count is only echoed: any service of the same
        // configuration recovers the log.
        let (full, wal) = durable_run(2);
        let (out, _) = svc(1)
            .recover(
                load(150),
                &FaultPlan::none(),
                &ServeOptions::default(),
                wal.bytes(),
            )
            .unwrap();
        crate::check_equivalent(&out, &full).unwrap();
    }

    #[test]
    fn a_header_frame_with_entries_is_fatal() {
        let (out, _) = durable_run(1);
        let mut bytes = WAL_MAGIC.to_vec();
        push_frame(&mut bytes, |b| {
            b.extend_from_slice(&out.journal.as_ref().unwrap().encode())
        });
        let err = WriteAheadLog::scan(&bytes).unwrap_err();
        assert_eq!(err.offset, WAL_MAGIC.len());
        assert!(err.reason.contains("header frame carries"), "{err}");
    }

    /// `recover` with the whole log scanned before the re-execution
    /// starts: the verdict the pipelined recovery must give.
    fn recover_serially(
        svc: &ClusterService,
        stream: SyntheticLoad,
        opts: &ServeOptions,
        bytes: &[u8],
    ) -> SimResult<(ServiceOutcome, CrashReport)> {
        let wal_err = |e: WalError| SimError::protocol(e.to_string());
        let (mut head, pos) = read_header(bytes).map_err(wal_err)?;
        check_tables(&head, &journal_tables(svc.config()))?;
        let (frames, torn) = walk_frames(bytes, pos, &mut head, |_| {}).map_err(wal_err)?;
        let (tx, chunks) = mpsc::sync_channel(1);
        if !head.is_empty() {
            tx.send(Some(head.entries.clone())).unwrap();
        }
        drop(tx);
        let spent = mpsc::channel().0;
        let feed = PrefixFeed { chunks, spent };
        let mut out = svc.serve_resumed(stream, &FaultPlan::none(), opts, Some(feed))?;
        let report = CrashReport {
            recovered_entries: head.len() as u64,
            frames,
            torn,
        };
        let journal = out.journal.as_mut().unwrap();
        let suffix = std::mem::replace(&mut journal.entries, head.entries);
        journal.entries.extend(suffix);
        Ok((out, report))
    }

    /// Everything a recovery returns, as comparable text.
    fn verdict(r: SimResult<(ServiceOutcome, CrashReport)>) -> String {
        match r {
            Ok((out, cr)) => {
                let replay = out.replay.map(|r| (r.prefix_entries, r.matched));
                format!(
                    "ok {cr:?} {replay:?}\n{}\n{:?}",
                    out.report.canonical_string(),
                    out.journal.map(|j| j.encode())
                )
            }
            Err(e) => format!("err {e}"),
        }
    }

    /// `wal`'s frames with frame `k` replaced by one that passes its
    /// checksum but does not decode.
    fn undecodable_at(wal: &WriteAheadLog, k: usize) -> Vec<u8> {
        let mut bytes = wal.frame_prefix(k).to_vec();
        push_frame(&mut bytes, |b| b.extend_from_slice(&[5, 0xff]));
        for i in k + 1..wal.frames() {
            bytes.extend_from_slice(wal.frame_bytes(i));
        }
        bytes
    }

    #[test]
    fn the_pipelined_verdict_is_the_serial_verdict() {
        // Enough decisions for several chunks, so that the re-execution
        // can stop while the decoder is still behind or ahead of it.
        let jobs = 1500;
        let spec = DurabilitySpec::group_commit(64);
        let none = FaultPlan::none();
        let opts = ServeOptions::default();
        let (out, wal) = svc(1)
            .serve_durable(load(jobs), &none, &opts, &spec)
            .unwrap();
        let original = out.journal.expect("journal");
        let frames = wal.frames();
        assert!(
            original.len() > 4 * CHUNK_ENTRIES,
            "{} entries",
            original.len()
        );
        // A decision planted in the second frame, where the rerun parts
        // from the log.
        let mut planted = original.clone();
        let k = 64 + 10;
        match &mut planted.entries[k].event {
            desim::JournalEvent::Step { work, .. } => *work += 1,
            other => panic!("decisions are Step events, got {other:?}"),
        }
        let planted = WriteAheadLog::build(&planted, &spec);
        // A prefix longer than anything the rerun commits, by more chunks
        // than the decoder may hold ahead of it.
        let extra = 2 * (CHUNKS_AHEAD + 2) * CHUNK_ENTRIES;
        let mut longer = original.clone();
        let last = longer.entries.last().cloned().unwrap();
        longer.entries.extend(std::iter::repeat_n(last, extra));
        let longer = WriteAheadLog::build(&longer, &spec);
        let budget = ServeOptions {
            budget: crate::ServiceBudget {
                max_events: 400,
                ..Default::default()
            },
            ..ServeOptions::default()
        };
        let recover = |bytes: &[u8], opts| verdict(svc(1).recover(load(jobs), &none, opts, bytes));
        for seed in 0..6 {
            let crash = CrashPlan::new(seed);
            let keep = crash.keep_frames(&wal).min(frames - 1);
            let mut flipped = wal.bytes().to_vec();
            flipped[wal.frame_prefix(keep).len() + 9] ^= 1 << seed;
            let late = frames - 1 - seed as usize;
            let cases = [
                ("torn", crash.crashed_bytes(&wal), &opts),
                ("bit flip", flipped, &opts),
                ("undecodable", undecodable_at(&wal, keep), &opts),
                ("divergence", crash.crashed_bytes(&planted), &opts),
                (
                    "divergence, then undecodable",
                    undecodable_at(&planted, late),
                    &opts,
                ),
                ("short stream", longer.bytes().to_vec(), &opts),
                ("budget", crash.crashed_bytes(&wal), &budget),
            ];
            for (what, bytes, opts) in cases {
                let serial = verdict(recover_serially(&svc(1), load(jobs), opts, &bytes));
                assert_eq!(recover(&bytes, opts), serial, "seed {seed}, {what}");
            }
        }
        // The cases say what they claim to.
        let late = frames - 2;
        let msg = recover(&undecodable_at(&planted, late), &opts);
        assert!(
            msg.contains(&format!("frame {late} does not decode")),
            "{msg}"
        );
        let msg = recover(planted.bytes(), &opts);
        assert!(msg.contains(&format!("prefix at entry {k}")), "{msg}");
        let n = original.len();
        let msg = recover(longer.bytes(), &opts);
        assert!(
            msg.contains(&format!("committed only {n} of {} recovered", n + extra)),
            "{msg}"
        );
        let msg = recover(wal.bytes(), &budget);
        assert!(msg.contains("budget exceeded"), "{msg}");
    }
}
