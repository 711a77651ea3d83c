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

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// IEEE CRC-32 over `data` — the checksum framing every snapshot section,
/// whole snapshot file, and journal record carries.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

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
