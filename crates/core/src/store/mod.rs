//! Crash-safe durable state: the persistence layer under the fleet.
//!
//! The paper's headline campaigns run for 144 virtual hours with
//! reboot-on-bug (§V, Table II); the fleet survives *device* faults, but
//! before this module every durable artifact lived in a host-process
//! string that died with a `kill -9` of the daemon itself. `store` puts
//! the campaign's persistent data on disk behind three layers:
//!
//! 1. [`medium`] — a [`StorageMedium`] trait over the handful of file
//!    primitives the store needs, with a real [`FsMedium`] backend and a
//!    deterministic, fault-injectable [`SimMedium`] that models torn
//!    writes at byte N, partial fsyncs, bit flips, `ENOSPC`, and
//!    crash-before-rename — the substrate every recovery test sweeps.
//! 2. [`snapshot_store`] + [`journal`] — an atomic CRC-framed snapshot
//!    store (length-prefixed sections, per-section and whole-file
//!    checksums, write-temp-then-rename, a generation ring keeping the
//!    last K snapshots) and an append-only write-ahead journal of fleet
//!    deltas (seed admitted, relation edge update, crash found,
//!    fault/lint/store counters) compacted into a full snapshot at every
//!    checkpoint.
//! 3. [`recovery`] — a [`RecoveryManager`] with a stable taxonomy
//!    ([`RecoveryOutcome`]: `Clean` / `TailTruncated` / `CorruptSnapshot`
//!    / `Unrecoverable`) that loads the newest valid snapshot, replays
//!    the journal prefix up to the first corrupt record, and re-verifies
//!    the result through the `droidfuzz-analysis` auditors (the Eq. 1
//!    in-weight invariants must hold post-recovery).
//!
//! The fleet side of the wiring lives in
//! [`fleet::persist`](crate::fleet::persist): a [`FleetStore`] journals
//! hub deltas every sync round and rotates a snapshot generation at every
//! checkpoint.
//!
//! [`StorageMedium`]: medium::StorageMedium
//! [`FsMedium`]: medium::FsMedium
//! [`SimMedium`]: medium::SimMedium
//! [`RecoveryManager`]: recovery::RecoveryManager
//! [`RecoveryOutcome`]: recovery::RecoveryOutcome
//! [`FleetStore`]: crate::fleet::persist::FleetStore

pub mod delta;
pub mod journal;
pub mod medium;
pub mod recovery;
pub mod snapshot_store;

pub use delta::FleetDelta;
pub use journal::{
    decode_journal, journal_name, parse_journal_name, Journal, JournalRecord, JournalScan,
    JOURNAL_HEADER,
};
pub use medium::{FsMedium, MediumFault, SimMedium, StorageMedium};
pub use recovery::{
    Recovered, RecoveryManager, RecoveryOutcome, RecoveryReport, FLEET_SECTION,
};
pub use snapshot_store::{
    decode_snapshot, encode_snapshot, parse_snapshot_name, snapshot_name, SnapshotStore,
    STORE_SNAPSHOT_HEADER,
};

pub use droidfuzz_analysis::StoreCounters;

use std::fmt;

/// Errors surfaced by the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The named file does not exist on the medium.
    NotFound(String),
    /// The medium is out of space (`ENOSPC` on a real filesystem, an
    /// exhausted byte budget on the sim medium).
    NoSpace,
    /// An underlying I/O failure.
    Io(String),
    /// A frame failed its length or checksum validation.
    Corrupt(String),
    /// Recovery exhausted every snapshot generation and journal without
    /// producing a state that passes the auditors.
    Unrecoverable(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NotFound(path) => write!(f, "not found: {path}"),
            StoreError::NoSpace => write!(f, "no space left on storage medium"),
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::Corrupt(e) => write!(f, "corrupt frame: {e}"),
            StoreError::Unrecoverable(e) => write!(f, "unrecoverable state: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the byte-at-a-time table,
/// and `CRC_TABLES[k][i]` is the CRC state after `i` is followed by `k`
/// zero bytes, so eight table lookups advance the CRC by eight bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// IEEE CRC-32 over `data` — the checksum framing every snapshot section,
/// whole snapshot file, journal record and wire frame carries. Eight
/// bytes per step (slicing-by-8), the tail byte by byte.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let lo = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time CRC the sliced one replaced.
    fn reference_crc32(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in data {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
        }
        !crc
    }

    proptest! {
        #[test]
        fn sliced_crc32_matches_the_bytewise_reference(
            data in prop::collection::vec(any::<u8>(), 0..200),
            start in 0usize..8,
        ) {
            // Every length and every starting offset (tail sizes 0–7).
            let data = &data[start.min(data.len())..];
            prop_assert_eq!(crc32(data), reference_crc32(data));
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let data = b"# droidfuzz-store snapshot v1 gen=3 sections=2\n".to_vec();
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), clean, "flip at {byte}:{bit} undetected");
            }
        }
    }
}
