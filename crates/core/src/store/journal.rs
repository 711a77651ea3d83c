//! Append-only write-ahead journal of fleet deltas.
//!
//! `journal-<gen>.wal` holds every durable delta since snapshot
//! generation `gen` was written (`journal-0.wal` holds deltas since the
//! empty state). Each record is an independently checksummed frame,
//! the same framing (one shared `frame` module) the wire uses:
//!
//! ```text
//! # droidfuzz-store journal v1 base=<gen>
//! rec <seq> <len> <crc32 hex>
//! <len payload bytes>
//! ...
//! ```
//!
//! Sequence numbers start at 0 and increment by 1, so a scan can tell a
//! torn tail from a spliced file. Scanning is *prefix-tolerant*: it
//! accepts every valid frame up to the first corruption, then reports
//! the dropped byte count — a torn final append costs exactly the
//! records that were never durable, never the whole journal.
//!
//! Appends are group commits: [`Journal::append_batch`] frames a batch
//! of records into one medium append followed by one sync, and a single
//! record is a batch of one. The bytes on the medium are the same as
//! appending the records one by one.

use super::medium::StorageMedium;
use super::StoreError;
use crate::frame;

/// First line of every journal file (before the `base=` field).
pub const JOURNAL_HEADER: &str = "# droidfuzz-store journal v1";

const JOURNAL_SUFFIX: &str = ".wal";
const JOURNAL_PREFIX: &str = "journal-";

/// File name of the journal based on snapshot generation `gen`
/// (`journal-<gen>.wal`).
pub fn journal_name(gen: u64) -> String {
    format!("{JOURNAL_PREFIX}{gen}{JOURNAL_SUFFIX}")
}

/// Inverse of [`journal_name`]; `None` for other files.
pub fn parse_journal_name(name: &str) -> Option<u64> {
    name.strip_prefix(JOURNAL_PREFIX)?
        .strip_suffix(JOURNAL_SUFFIX)?
        .parse()
        .ok()
}

/// One validated journal record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// Position in the journal (0-based, strictly sequential).
    pub seq: u64,
    /// The delta payload (the fleet's single-line delta format; the
    /// frame is length-prefixed, so embedded newlines are legal).
    pub payload: String,
}

/// Result of scanning a journal file: the valid prefix plus what was
/// lost after it.
#[derive(Debug, Clone, Default)]
pub struct JournalScan {
    /// Snapshot generation this journal's deltas apply on top of.
    pub base: u64,
    /// Every record up to the first corruption.
    pub records: Vec<JournalRecord>,
    /// Bytes from the first corrupt frame to end of file (0 when clean).
    pub dropped_bytes: u64,
    /// Whether the scan stopped early at a corrupt or torn frame.
    pub truncated: bool,
}

/// Validates journal `bytes` (named for generation `base`) and returns
/// the longest valid record prefix. A corrupt header drops the whole
/// file; a corrupt frame drops only the tail.
pub fn decode_journal(bytes: &[u8], base: u64) -> JournalScan {
    let mut scan = JournalScan { base, ..Default::default() };
    let header_end = bytes.iter().position(|&b| b == b'\n').filter(|&end| {
        std::str::from_utf8(&bytes[..end])
            .ok()
            .and_then(|line| line.strip_prefix(JOURNAL_HEADER))
            .and_then(|rest| rest.trim().strip_prefix("base="))
            .and_then(|v| v.parse::<u64>().ok())
            == Some(base)
    });
    let Some(header_end) = header_end else {
        scan.dropped_bytes = bytes.len() as u64;
        scan.truncated = true;
        return scan;
    };

    let mut pos = header_end + 1;
    while pos < bytes.len() {
        let record = frame::decode(&bytes[pos..], usize::MAX)
            .ok()
            .filter(|f| f.seq == scan.records.len() as u64)
            .and_then(|f| Some((f.seq, std::str::from_utf8(f.payload).ok()?, f.len)));
        let Some((seq, payload, len)) = record else {
            scan.dropped_bytes = (bytes.len() - pos) as u64;
            scan.truncated = true;
            break;
        };
        scan.records.push(JournalRecord { seq, payload: payload.to_owned() });
        pos += len;
    }
    scan
}

/// An open journal being appended to.
#[derive(Debug, Clone)]
pub struct Journal<M: StorageMedium> {
    medium: M,
    base: u64,
    name: String,
    next_seq: u64,
}

impl<M: StorageMedium> Journal<M> {
    /// Creates (truncating any previous file) the journal for snapshot
    /// generation `base` and durably writes its header.
    pub fn create(mut medium: M, base: u64) -> Result<Self, StoreError> {
        let name = journal_name(base);
        medium.write(&name, format!("{JOURNAL_HEADER} base={base}\n").as_bytes())?;
        medium.sync(&name)?;
        Ok(Self { medium, base, name, next_seq: 0 })
    }

    /// The snapshot generation this journal applies on top of.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Sequence number the next [`append`](Self::append) will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Durably appends one delta record and returns its sequence number:
    /// a batch of one.
    pub fn append(&mut self, payload: &str) -> Result<u64, StoreError> {
        self.append_batch([payload])
    }

    /// Durably appends a batch of delta records (group commit): their
    /// frames, numbered in order, go to the medium as one append followed
    /// by one fsync. Returns the first record's sequence number; on any
    /// failure the sequence does not advance.
    pub fn append_batch<'p>(
        &mut self,
        payloads: impl IntoIterator<Item = &'p str>,
    ) -> Result<u64, StoreError> {
        let first = self.next_seq;
        let mut seq = first;
        let mut bytes = Vec::new();
        for payload in payloads {
            frame::encode_into(&mut bytes, seq, payload.as_bytes());
            seq += 1;
        }
        self.medium.append(&self.name, &bytes)?;
        self.medium.sync(&self.name)?;
        self.next_seq = seq;
        Ok(first)
    }

    /// Scans the on-medium journal for generation `base`.
    /// [`StoreError::NotFound`] when the file does not exist.
    pub fn scan(medium: &M, base: u64) -> Result<JournalScan, StoreError> {
        let bytes = medium.read(&journal_name(base))?;
        Ok(decode_journal(&bytes, base))
    }
}

#[cfg(test)]
mod tests {
    use super::super::crc32;
    use super::super::medium::{MediumFault, SimMedium, StorageMedium};
    use super::*;

    #[test]
    fn append_and_scan_round_trip() {
        let medium = SimMedium::new();
        let mut journal = Journal::create(medium.clone(), 3).unwrap();
        assert_eq!(journal.append("seed 2\tr0 = open()").unwrap(), 0);
        assert_eq!(journal.append("edge a\tb\t0.5").unwrap(), 1);
        let scan = Journal::scan(&medium, 3).unwrap();
        assert_eq!(scan.base, 3);
        assert!(!scan.truncated);
        assert_eq!(scan.dropped_bytes, 0);
        assert_eq!(
            scan.records,
            vec![
                JournalRecord { seq: 0, payload: "seed 2\tr0 = open()".into() },
                JournalRecord { seq: 1, payload: "edge a\tb\t0.5".into() },
            ]
        );
    }

    #[test]
    fn a_batch_is_one_append_and_one_sync_of_the_per_record_bytes() {
        let payloads = ["seed 2\tr0 = open()", "learns 3", "", "round 1 9"];
        let (batched, single) = (SimMedium::new(), SimMedium::new());
        let mut journal = Journal::create(batched.clone(), 1).unwrap();
        let ops = batched.ops();
        assert_eq!(journal.append_batch(payloads).unwrap(), 0);
        assert_eq!(batched.ops() - ops, 2, "one append, one sync");
        assert_eq!(journal.append_batch(["next"]).unwrap(), 4);
        let mut reference = Journal::create(single.clone(), 1).unwrap();
        for payload in payloads.into_iter().chain(["next"]) {
            reference.append(payload).unwrap();
        }
        assert_eq!(batched.read(&journal_name(1)).unwrap(), single.read(&journal_name(1)).unwrap());
        assert_eq!(journal.next_seq(), 5);
    }

    #[test]
    fn journal_bytes_are_pinned() {
        let medium = SimMedium::new();
        let mut journal = Journal::create(medium.clone(), 3).unwrap();
        journal.append("learns 3").unwrap();
        assert_eq!(
            medium.read(&journal_name(3)).unwrap(),
            b"# droidfuzz-store journal v1 base=3\nrec 0 8 dc487502\nlearns 3\n"
        );
    }

    #[test]
    fn missing_journal_is_not_found() {
        assert!(matches!(
            Journal::scan(&SimMedium::new(), 0),
            Err(StoreError::NotFound(_))
        ));
    }

    #[test]
    fn torn_tail_keeps_the_durable_prefix() {
        let medium = SimMedium::new();
        let mut journal = Journal::create(medium.clone(), 0).unwrap();
        journal.append("learns 4").unwrap();
        // Tear the next append (op index: write=0, sync=1, append=2,
        // sync=3, append=4) so only half its frame lands.
        medium.push_fault(MediumFault::TornWrite { op: 4, keep: 7 });
        journal.append("crash title\t1").unwrap();
        let scan = Journal::scan(&medium, 0).unwrap();
        assert!(scan.truncated);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].payload, "learns 4");
        assert_eq!(scan.dropped_bytes, 7);
    }

    #[test]
    fn every_prefix_of_a_journal_yields_a_record_prefix() {
        let medium = SimMedium::new();
        let mut journal = Journal::create(medium.clone(), 1).unwrap();
        let payloads = ["a", "bb\nwith newline", "ccc", ""];
        for p in payloads {
            journal.append(p).unwrap();
        }
        let full = medium.read(&journal_name(1)).unwrap();
        let mut seen = 0;
        for cut in 0..=full.len() {
            let scan = decode_journal(&full[..cut], 1);
            // Monotone: longer prefixes never lose records, and records
            // are always an exact prefix of what was appended.
            assert!(scan.records.len() >= seen, "cut={cut}");
            seen = seen.max(scan.records.len());
            for (i, rec) in scan.records.iter().enumerate() {
                assert_eq!(rec.payload, payloads[i], "cut={cut}");
            }
        }
        assert_eq!(seen, payloads.len());
    }

    #[test]
    fn bit_flip_in_payload_drops_the_tail() {
        let medium = SimMedium::new();
        let mut journal = Journal::create(medium.clone(), 0).unwrap();
        journal.append("first").unwrap();
        journal.append("second").unwrap();
        journal.append("third").unwrap();
        let clean = medium.read(&journal_name(0)).unwrap();
        // Flip a byte inside "second"'s payload.
        let offset = clean.windows(6).position(|w| w == b"second").unwrap();
        assert!(medium.corrupt(&journal_name(0), offset, 0x04));
        let scan = Journal::scan(&medium, 0).unwrap();
        assert!(scan.truncated);
        assert_eq!(scan.records.len(), 1);
        assert!(scan.dropped_bytes > 0);
    }

    #[test]
    fn spliced_sequence_numbers_are_rejected() {
        let medium = SimMedium::new();
        let mut journal = Journal::create(medium.clone(), 0).unwrap();
        journal.append("only").unwrap();
        // Forge a frame with seq 5 (skipping 1..4) and a valid CRC.
        let payload = b"forged";
        let frame = format!("rec 5 {} {:08x}\n", payload.len(), crc32(payload));
        let mut m = medium.clone();
        m.append(&journal_name(0), frame.as_bytes()).unwrap();
        m.append(&journal_name(0), payload).unwrap();
        m.append(&journal_name(0), b"\n").unwrap();
        let scan = Journal::scan(&medium, 0).unwrap();
        assert!(scan.truncated);
        assert_eq!(scan.records.len(), 1);
    }

    #[test]
    fn corrupt_header_drops_the_whole_file() {
        let medium = SimMedium::new();
        let mut journal = Journal::create(medium.clone(), 2).unwrap();
        journal.append("x").unwrap();
        assert!(medium.corrupt(&journal_name(2), 3, 0xFF));
        let scan = Journal::scan(&medium, 2).unwrap();
        assert!(scan.truncated);
        assert!(scan.records.is_empty());
        assert!(scan.dropped_bytes > 0);
    }
}
