//! The journal's binary codec (format in the [module docs](super)):
//! LEB128 varints, the event ↔ field-list mapping, the monolithic and the
//! batched (WAL frame) encodings, and the CRC-32 that seals a frame.

use super::{Journal, JournalDecodeError, JournalEntry, JournalEvent, JOURNAL_MAGIC};
use crate::time::SimTime;

/// Most bytes one encoded entry can take: the kind tag, the vtime delta
/// and six fields, each a `u64` varint of at most ten bytes.
pub const MAX_ENTRY_BYTES: usize = 1 + 10 * 7;

impl Journal {
    /// Encodes the journal to its compact binary form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + self.entries.len() * 8);
        self.put_header(&mut out);
        self.encode_entries_into(&mut out, 0, self.entries.len());
        out
    }

    /// Decodes a journal previously produced by [`Journal::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Journal, JournalDecodeError> {
        let mut c = Cursor { bytes, pos: 0 };
        let magic = c.take(JOURNAL_MAGIC.len())?;
        if magic != JOURNAL_MAGIC {
            return Err(c.err("bad magic (not a dvns journal)"));
        }
        let meta_count = c.varint()? as usize;
        let mut meta = Vec::with_capacity(meta_count.min(1024));
        for _ in 0..meta_count {
            let k = c.string()?;
            let v = c.string()?;
            meta.push((k, v));
        }
        let label_count = c.varint()? as usize;
        let mut labels = Vec::with_capacity(label_count.min(1024));
        for _ in 0..label_count {
            labels.push(c.string()?);
        }
        let mut journal = Journal {
            meta,
            labels,
            entries: Vec::new(),
        };
        journal.append_entries(c, "trailing bytes after last entry")?;
        Ok(journal)
    }

    /// Magic, metadata and label table: everything before the entry count.
    fn put_header(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(JOURNAL_MAGIC);
        put_varint(out, self.meta.len() as u64);
        for (k, v) in &self.meta {
            put_str(out, k);
            put_str(out, v);
        }
        put_varint(out, self.labels.len() as u64);
        for l in &self.labels {
            put_str(out, l);
        }
    }

    // ----- segmented (WAL) framing primitives ------------------------------

    /// Encodes only the header — magic, metadata and label table, with an
    /// empty entry list. This is the payload of a segmented WAL's first
    /// frame: the entries follow in batches ([`Journal::encode_entry_batch`])
    /// so a torn tail loses events, never the tables they refer to.
    pub fn encode_header(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.put_header(&mut out);
        put_varint(&mut out, 0);
        out
    }

    /// Encodes `entries[start..end]` as a standalone delta-coded batch —
    /// the payload of one WAL entry frame. The first entry's vtime is
    /// delta-coded against `entries[start - 1]` (zero for `start == 0`), so
    /// concatenating the batches in order reproduces the exact bytes of the
    /// monolithic [`Journal::encode`] entry section.
    ///
    /// # Panics
    /// If `start..end` is not a valid, ordered range into the entries.
    pub fn encode_entry_batch(&self, start: usize, end: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + end.saturating_sub(start) * 8);
        self.encode_entries_into(&mut out, start, end);
        out
    }

    /// [`Journal::encode_entry_batch`] appended to `out` in place, so a
    /// caller framing the batch (the WAL) needs no intermediate buffer.
    ///
    /// # Panics
    /// If `start..end` is not a valid, ordered range into the entries.
    pub fn encode_entries_into(&self, out: &mut Vec<u8>, start: usize, end: usize) {
        assert!(start <= end && end <= self.entries.len(), "bad batch range");
        put_varint(out, (end - start) as u64);
        let mut prev = match start {
            0 => 0,
            _ => self.entries[start - 1].vtime.as_nanos(),
        };
        for e in &self.entries[start..end] {
            let t = e.vtime.as_nanos();
            debug_assert!(t >= prev, "journal entries must be time-ordered");
            put_entry(out, t.saturating_sub(prev), &e.event);
            prev = t;
        }
    }

    /// Decodes a batch produced by [`Journal::encode_entry_batch`] and
    /// appends its entries, delta-decoding vtimes against the current last
    /// entry. Returns how many entries were appended. On error the journal
    /// is left unchanged.
    pub fn append_entry_batch(&mut self, bytes: &[u8]) -> Result<usize, JournalDecodeError> {
        let c = Cursor { bytes, pos: 0 };
        self.append_entries(c, "trailing bytes after last batch entry")
    }

    /// The entry count a batch ([`Journal::encode_entry_batch`]) declares,
    /// read from its leading varint without decoding the entries.
    pub fn entry_batch_len(bytes: &[u8]) -> Result<u64, JournalDecodeError> {
        Cursor { bytes, pos: 0 }.varint()
    }

    /// Decodes a count-prefixed run of entries that must end the input
    /// straight onto `self.entries`; an error truncates them back.
    fn append_entries(
        &mut self,
        mut c: Cursor<'_>,
        trailing: &str,
    ) -> Result<usize, JournalDecodeError> {
        let old_len = self.entries.len();
        let appended = decode_entries(&mut self.entries, &mut c, trailing);
        if appended.is_err() {
            self.entries.truncate(old_len);
        }
        appended
    }
}

fn decode_entries(
    entries: &mut Vec<JournalEntry>,
    c: &mut Cursor<'_>,
    trailing: &str,
) -> Result<usize, JournalDecodeError> {
    let count = c.varint()? as usize;
    let mut prev = entries.last().map_or(0, |e| e.vtime.as_nanos());
    entries.reserve(count.min(1 << 20));
    for _ in 0..count {
        let kind = c.byte()?;
        let delta = c.varint()?;
        prev = prev
            .checked_add(delta)
            .ok_or_else(|| c.err("vtime overflow"))?;
        let event = decode_event(kind, c)?;
        entries.push(JournalEntry {
            vtime: SimTime(prev),
            event,
        });
    }
    if c.pos != c.bytes.len() {
        return Err(c.err(trailing));
    }
    Ok(count)
}

/// `t[0]` is the classic byte-at-a-time table; `t[k][b]` is the CRC of
/// byte `b` followed by `k` zero bytes, which is what lets [`crc32`] fold
/// eight input bytes per step.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 8 * 256 {
        let (k, b) = (i / 256, i % 256);
        if k == 0 {
            let (mut crc, mut bit) = (b as u32, 0);
            while bit < 8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
                bit += 1;
            }
            t[0][b] = crc;
        } else {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
        }
        i += 1;
    }
    t
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) of `bytes` — the
/// per-frame checksum of the segmented WAL built on this journal (see the
/// cluster service's recovery module). Slicing-by-8 over a table computed
/// at compile time, eight input bytes per step: a WAL frame is tens of
/// kilobytes and every byte of it is checksummed when written and again
/// on recovery, where a bit-at-a-time loop was a fifth of the durable
/// path's host time. Dependency-free.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = 0;
        for k in 0..4 {
            crc ^= t[7 - k][(lo >> (8 * k)) as u8 as usize] ^ t[3 - k][c[4 + k] as usize];
        }
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

// ----- event <-> field-list mapping ----------------------------------------

const K_RATE_WINDOW: u8 = 0;
const K_INVOKE: u8 = 1;
const K_STEP: u8 = 2;
const K_POST: u8 = 3;
const K_ARRIVE: u8 = 4;
const K_MARK: u8 = 5;
const K_DEACTIVATE: u8 = 6;
const K_RELEASE: u8 = 7;
const K_ACCOUNT: u8 = 8;
const K_TERMINATE: u8 = 9;

/// Writes one entry: kind tag, vtime delta, then the kind's fields.
#[inline]
fn put_entry(out: &mut Vec<u8>, delta: u64, e: &JournalEvent) {
    let mut put = |kind: u8, fields: &[u64]| {
        out.push(kind);
        put_varint(out, delta);
        for &f in fields {
            put_varint(out, f);
        }
    };
    match *e {
        JournalEvent::RateWindow {
            node,
            up_bits,
            down_bits,
            from,
            to,
        } => put(K_RATE_WINDOW, &[node as u64, up_bits, down_bits, from, to]),
        JournalEvent::Invoke {
            ticket,
            op,
            thread,
            obj_bytes,
        } => put(K_INVOKE, &[ticket, op as u64, thread as u64, obj_bytes]),
        JournalEvent::Step {
            job,
            op,
            thread,
            node,
            start,
            work,
        } => put(
            K_STEP,
            &[job, op as u64, thread as u64, node as u64, start, work],
        ),
        JournalEvent::Post {
            op,
            thread,
            to,
            dst_thread,
            wire_bytes,
            local,
        } => put(
            K_POST,
            &[
                op as u64,
                thread as u64,
                to as u64,
                dst_thread as u64,
                wire_bytes,
                local as u64,
            ],
        ),
        JournalEvent::Arrive {
            to,
            thread,
            src,
            dst,
            wire_bytes,
            start,
        } => put(
            K_ARRIVE,
            &[
                to as u64,
                thread as u64,
                src as u64,
                dst as u64,
                wire_bytes,
                start,
            ],
        ),
        JournalEvent::Mark { label } => put(K_MARK, &[label as u64]),
        JournalEvent::Deactivate { thread } => put(K_DEACTIVATE, &[thread as u64]),
        JournalEvent::Release { op } => put(K_RELEASE, &[op as u64]),
        JournalEvent::Account { delta } => put(K_ACCOUNT, &[zigzag(delta)]),
        JournalEvent::Terminate => put(K_TERMINATE, &[]),
    }
}

fn decode_event(kind: u8, c: &mut Cursor<'_>) -> Result<JournalEvent, JournalDecodeError> {
    fn u32_of(v: u64, c: &Cursor<'_>) -> Result<u32, JournalDecodeError> {
        u32::try_from(v).map_err(|_| c.err("field exceeds u32"))
    }
    Ok(match kind {
        K_RATE_WINDOW => JournalEvent::RateWindow {
            node: u32_of(c.varint()?, c)?,
            up_bits: c.varint()?,
            down_bits: c.varint()?,
            from: c.varint()?,
            to: c.varint()?,
        },
        K_INVOKE => JournalEvent::Invoke {
            ticket: c.varint()?,
            op: u32_of(c.varint()?, c)?,
            thread: u32_of(c.varint()?, c)?,
            obj_bytes: c.varint()?,
        },
        K_STEP => JournalEvent::Step {
            job: c.varint()?,
            op: u32_of(c.varint()?, c)?,
            thread: u32_of(c.varint()?, c)?,
            node: u32_of(c.varint()?, c)?,
            start: c.varint()?,
            work: c.varint()?,
        },
        K_POST => JournalEvent::Post {
            op: u32_of(c.varint()?, c)?,
            thread: u32_of(c.varint()?, c)?,
            to: u32_of(c.varint()?, c)?,
            dst_thread: u32_of(c.varint()?, c)?,
            wire_bytes: c.varint()?,
            local: u32_of(c.varint()?, c)?,
        },
        K_ARRIVE => JournalEvent::Arrive {
            to: u32_of(c.varint()?, c)?,
            thread: u32_of(c.varint()?, c)?,
            src: u32_of(c.varint()?, c)?,
            dst: u32_of(c.varint()?, c)?,
            wire_bytes: c.varint()?,
            start: c.varint()?,
        },
        K_MARK => JournalEvent::Mark {
            label: u32_of(c.varint()?, c)?,
        },
        K_DEACTIVATE => JournalEvent::Deactivate {
            thread: u32_of(c.varint()?, c)?,
        },
        K_RELEASE => JournalEvent::Release {
            op: u32_of(c.varint()?, c)?,
        },
        K_ACCOUNT => JournalEvent::Account {
            delta: unzigzag(c.varint()?),
        },
        K_TERMINATE => JournalEvent::Terminate,
        other => return Err(c.err(format!("unknown event kind {other}"))),
    })
}

// ----- varint plumbing ------------------------------------------------------

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn err(&self, reason: impl Into<String>) -> JournalDecodeError {
        JournalDecodeError {
            offset: self.pos,
            reason: reason.into(),
        }
    }

    fn byte(&mut self) -> Result<u8, JournalDecodeError> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| self.err("unexpected end of input"))?;
        self.pos += 1;
        Ok(b)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], JournalDecodeError> {
        // `n` comes from an untrusted varint: the addition must not wrap
        // (debug overflow panic / release wrap-around past the bounds
        // check) on a malformed length near `usize::MAX`.
        if self
            .pos
            .checked_add(n)
            .is_none_or(|end| end > self.bytes.len())
        {
            return Err(self.err("unexpected end of input"));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// One-byte values (most fields of most entries) return at once;
    /// everything longer, and every truncation and overflow check, is
    /// `varint_slow`.
    #[inline]
    fn varint(&mut self) -> Result<u64, JournalDecodeError> {
        match self.bytes.get(self.pos) {
            Some(&b) if b < 0x80 => {
                self.pos += 1;
                Ok(u64::from(b))
            }
            _ => self.varint_slow(),
        }
    }

    fn varint_slow(&mut self) -> Result<u64, JournalDecodeError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            if shift == 63 && b > 1 {
                return Err(self.err("varint overflows u64"));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(self.err("varint too long"));
            }
        }
    }

    fn string(&mut self) -> Result<String, JournalDecodeError> {
        let len = self.varint()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.err("invalid UTF-8 in string"))
    }
}

#[cfg(test)]
mod tests {
    use super::super::sample;
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let j = sample();
        let bytes = j.encode();
        let back = Journal::decode(&bytes).unwrap();
        assert_eq!(back.meta, j.meta);
        assert_eq!(back.labels, j.labels);
        assert_eq!(back.entries, j.entries);
    }

    #[test]
    fn encoding_is_compact() {
        let j = sample();
        // 10 entries with metadata in well under 200 bytes.
        assert!(j.encode().len() < 200, "len = {}", j.encode().len());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Journal::decode(b"not a journal").is_err());
        let mut bytes = sample().encode();
        bytes.push(0); // trailing byte
        assert!(Journal::decode(&bytes).is_err());
        let bytes = sample().encode();
        assert!(Journal::decode(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn decode_rejects_huge_length_without_panicking() {
        // A string length varint near u64::MAX must surface as a typed
        // error (offset + reason), not an overflow panic in the cursor.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(JOURNAL_MAGIC);
        put_varint(&mut bytes, 1); // one meta pair
        put_varint(&mut bytes, u64::MAX); // absurd key length
        let err = Journal::decode(&bytes).unwrap_err();
        assert!(err.offset <= bytes.len(), "offset {} in bounds", err.offset);
        assert!(err.reason.contains("end of input"), "{}", err.reason);
    }

    #[test]
    fn truncation_at_every_byte_is_a_typed_error() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            match Journal::decode(&bytes[..cut]) {
                Ok(j) => panic!("decoded {} entries from a {cut}-byte prefix", j.len()),
                Err(e) => assert!(e.offset <= cut),
            }
        }
    }

    #[test]
    fn entry_batches_reassemble_the_monolithic_encoding() {
        let j = sample();
        // Rebuild via header + arbitrary batch split points: entries and
        // tables must round-trip exactly.
        for split in 0..=j.len() {
            let mut back = Journal::decode(&j.encode_header()).unwrap();
            assert!(back.is_empty());
            back.append_entry_batch(&j.encode_entry_batch(0, split))
                .unwrap();
            back.append_entry_batch(&j.encode_entry_batch(split, j.len()))
                .unwrap();
            assert_eq!(back.entries, j.entries, "split at {split}");
            assert_eq!(back.encode(), j.encode(), "split at {split}");
        }
    }

    #[test]
    fn a_failed_batch_append_leaves_the_journal_unchanged() {
        let j = sample();
        let mut back = Journal::decode(&j.encode_header()).unwrap();
        let mut batch = j.encode_entry_batch(0, j.len());
        batch.pop(); // torn tail
        assert!(back.append_entry_batch(&batch).is_err());
        assert!(back.is_empty(), "partial batches must not be applied");
    }

    #[test]
    fn a_corrupt_batch_after_a_good_one_changes_nothing_and_the_next_still_appends() {
        let j = sample();
        let mid = 4;
        let mut back = Journal::decode(&j.encode_header()).unwrap();
        back.append_entry_batch(&j.encode_entry_batch(0, mid))
            .unwrap();
        let before = back.entries.clone();
        // An unknown kind tag on the batch's last entry: every entry
        // before it decodes (and is pushed) before the error is met.
        let good = j.encode_entry_batch(mid, j.len());
        let mut bad = good.clone();
        let last = bad.len() - 2; // Terminate = kind byte + one-byte delta
        assert_eq!(bad[last], K_TERMINATE);
        bad[last] = 0x7f;
        let err = back.append_entry_batch(&bad).unwrap_err();
        assert!(err.reason.contains("unknown event kind"), "{}", err.reason);
        assert_eq!(back.entries, before);
        assert_eq!(back.append_entry_batch(&good).unwrap(), j.len() - mid);
        assert_eq!(back.entries, j.entries);
        assert_eq!(back.encode(), j.encode());
    }

    #[test]
    fn the_widest_entry_fills_max_entry_bytes() {
        let mut j = Journal::new();
        j.push(
            SimTime(u64::MAX),
            JournalEvent::Step {
                job: u64::MAX,
                op: u32::MAX,
                thread: u32::MAX,
                node: u32::MAX,
                start: u64::MAX,
                work: u64::MAX,
            },
        );
        let widest = j.encode_entry_batch(0, 1).len() - 1; // minus the count
        assert_eq!(widest, 1 + 10 * 4 + 5 * 3);
        assert!(widest <= MAX_ENTRY_BYTES);
    }

    /// The bit-at-a-time definition `crc32` used to be, kept as the
    /// independent reference for the table-driven one.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The standard CRC-32 check vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        let j = sample().encode();
        assert_ne!(crc32(&j), crc32(&j[..j.len() - 1]));
    }

    #[test]
    fn crc32_equals_the_bitwise_reference_at_every_length() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut buf = vec![0u8; 65_536 + 9];
        for b in &mut buf {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *b = (x >> 32) as u8;
        }
        let around = |n: usize| n - 9..=n + 9;
        for len in (0..=300).chain(around(4_096)).chain(around(65_536)) {
            // Every alignment of the 8-byte steps against the buffer.
            let at = len % 7;
            let bytes = &buf[at.min(buf.len() - len)..][..len];
            assert_eq!(crc32(bytes), crc32_bitwise(bytes), "length {len}");
        }
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn varint_roundtrip_extremes() {
        for v in [0u64, 1, 127, 128, 300, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut c = Cursor {
                bytes: &buf,
                pos: 0,
            };
            assert_eq!(c.varint().unwrap(), v);
        }
    }

    #[test]
    fn overlong_and_overflowing_varints_are_typed_errors() {
        let varint = |bytes: &[u8]| Cursor { bytes, pos: 0 }.varint();
        let mut ten = [0xffu8; 10];
        ten[9] = 0x01;
        assert_eq!(varint(&ten).unwrap(), u64::MAX);
        ten[9] = 0x02;
        assert!(varint(&ten).unwrap_err().reason.contains("overflows"));
        assert!(varint(&[0x80; 11]).is_err());
        assert!(varint(&[0x80]).unwrap_err().reason.contains("end of input"));
        assert!(varint(&[]).unwrap_err().reason.contains("end of input"));
    }
}
