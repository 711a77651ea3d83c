//! Recovery: newest valid snapshot + journal prefix → a fleet snapshot.
//!
//! [`RecoveryManager::recover`] walks snapshot generations newest-first,
//! takes the first one whose framing and fleet text validate, then
//! replays the journal chain on top of it (`journal-<g>.wal`,
//! `journal-<g+1>.wal`, …) up to the first corrupt record. Every counter
//! delta is absolute and every edge/crash record an upsert, so replaying
//! a prefix always yields a state the fleet actually passed through —
//! never an invented one. When every snapshot generation is corrupt, the
//! from-empty journal (`journal-0.wal`) is the final fallback.
//!
//! The outcome taxonomy is stable and machine-matchable:
//!
//! * [`RecoveryOutcome::Clean`] — newest snapshot + whole journal.
//! * [`RecoveryOutcome::TailTruncated`] — a torn/corrupt journal tail was
//!   dropped; the prefix before it was replayed.
//! * [`RecoveryOutcome::CorruptSnapshot`] — one or more snapshot
//!   generations failed validation and recovery fell back to an older one
//!   (or to the from-empty journal).
//! * [`RecoveryOutcome::Unrecoverable`] — store files exist but no
//!   generation produced a usable state ([`recover`] surfaces this as
//!   [`StoreError::Unrecoverable`]).
//!
//! [`recover_verified`] additionally re-audits the recovered state
//! through the `droidfuzz-analysis` auditors and treats Error findings
//! (an Eq. 1 violation, unparseable seeds) like a corrupt snapshot,
//! falling back a generation.
//!
//! [`recover`]: RecoveryManager::recover
//! [`recover_verified`]: RecoveryManager::recover_verified

use super::delta::FleetDelta;
use super::journal::{parse_journal_name, Journal};
use super::medium::StorageMedium;
use super::snapshot_store::SnapshotStore;
use super::{StoreCounters, StoreError};
use crate::crashes::{dedup_key, CrashRecord};
use crate::fleet::snapshot::FleetSnapshot;
use droidfuzz_analysis::audit_snapshot;
use fuzzlang::desc::DescTable;
use std::collections::{BTreeMap, BTreeSet};

/// Name of the snapshot section holding the fleet snapshot text.
pub const FLEET_SECTION: &str = "fleet";

/// Stable classification of how a recovery went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryOutcome {
    /// Newest snapshot was valid and the whole journal replayed.
    Clean,
    /// The journal had a torn or corrupt tail; the valid prefix was
    /// replayed and the tail dropped.
    TailTruncated {
        /// Records replayed before the corruption.
        replayed: u64,
        /// Bytes dropped from the first corrupt frame onward.
        dropped: u64,
    },
    /// One or more snapshot generations failed validation; recovery fell
    /// back this many generations (the from-empty journal counts as one).
    CorruptSnapshot {
        /// Generations skipped over.
        fell_back_generations: u64,
    },
    /// Store files exist but nothing produced a usable state.
    Unrecoverable,
}

impl std::fmt::Display for RecoveryOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryOutcome::Clean => write!(f, "clean"),
            RecoveryOutcome::TailTruncated { replayed, dropped } => {
                write!(f, "tail-truncated (replayed {replayed} records, dropped {dropped} bytes)")
            }
            RecoveryOutcome::CorruptSnapshot { fell_back_generations } => {
                write!(f, "corrupt-snapshot (fell back {fell_back_generations} generations)")
            }
            RecoveryOutcome::Unrecoverable => write!(f, "unrecoverable"),
        }
    }
}

/// What recovery did, in numbers — carried into the fleet's store
/// counters and printed by the CLI.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// The stable outcome classification.
    pub outcome: RecoveryOutcome,
    /// Snapshot generation the state was based on (`None`: replayed from
    /// the empty state via `journal-0.wal`).
    pub base_generation: Option<u64>,
    /// Journal records replayed on top of the base snapshot.
    pub replayed_records: u64,
    /// Journal bytes dropped after the first corrupt record.
    pub dropped_bytes: u64,
    /// Snapshot generations skipped because they failed validation.
    pub fell_back_generations: u64,
    /// Malformed lines counted by the tolerant parsers (base snapshot
    /// text + undecodable journal payloads).
    pub malformed_lines: u64,
    /// The same numbers as [`StoreCounters`], ready to absorb into a
    /// fleet's durability counters.
    pub counters: StoreCounters,
}

impl RecoveryReport {
    /// One human-readable summary line.
    pub fn describe(&self) -> String {
        format!(
            "recovery: {} base={} replayed={} dropped_bytes={} malformed={}",
            self.outcome,
            self.base_generation.map_or_else(|| "empty".to_owned(), |g| g.to_string()),
            self.replayed_records,
            self.dropped_bytes,
            self.malformed_lines,
        )
    }
}

/// A successful recovery: the reconstructed fleet snapshot plus the
/// report describing how it was obtained.
#[derive(Debug, Clone)]
pub struct Recovered {
    /// The recovered state, ready for `Fleet`'s resume path.
    pub snapshot: FleetSnapshot,
    /// How recovery got there.
    pub report: RecoveryReport,
}

/// Tolerant parse of a relation-graph export into its learn count, its
/// `(from, to) → weight string` edges (verbatim export formatting) and
/// the number of malformed lines. Edge lines are `edge` journal deltas.
pub(crate) fn parse_relations(export: &str) -> (u64, BTreeMap<(String, String), String>, u64) {
    let (mut learns, mut edges, mut malformed) = (0, BTreeMap::new(), 0);
    for line in export.lines().map(str::trim_end).filter(|line| !line.is_empty()) {
        if let Some(header) = line.strip_prefix("# relation-graph ") {
            match header.split("learns=").nth(1).and_then(|v| v.trim().parse().ok()) {
                Some(n) => learns = learns.max(n),
                None => malformed += 1,
            }
        } else if !line.starts_with('#') {
            match FleetDelta::decode(line) {
                Some(FleetDelta::Edge { from, to, weight }) => {
                    edges.insert((from, to), weight);
                }
                _ => malformed += 1,
            }
        }
    }
    (learns, edges, malformed)
}

/// Mutable replay target: the base snapshot exploded into the maps the
/// delta upserts operate on.
struct ReplayState {
    snap: FleetSnapshot,
    /// `(from, to) → weight string` (verbatim export formatting).
    edges: BTreeMap<(String, String), String>,
    learns: u64,
    blocks: BTreeSet<u64>,
    /// `dedup key → record` — matches `CrashDb`'s internal ordering, so
    /// the rebuilt crash list serializes in the same order a live capture
    /// would.
    crashes: BTreeMap<String, CrashRecord>,
    seed_count: usize,
    malformed: u64,
}

impl ReplayState {
    fn from_snapshot(mut snap: FleetSnapshot) -> Self {
        let (learns, edges, malformed) = parse_relations(&std::mem::take(&mut snap.relations_text));
        let blocks = std::mem::take(&mut snap.coverage).into_iter().collect();
        let crashes = std::mem::take(&mut snap.crashes)
            .into_iter()
            .map(|r| (dedup_key(&r.title), r))
            .collect();
        let seed_count = snap.corpus_text.matches("# seed ").count();
        Self { snap, edges, learns, blocks, crashes, seed_count, malformed }
    }

    fn apply(&mut self, delta: FleetDelta) {
        match delta {
            FleetDelta::Seed { signals, body } => {
                self.snap
                    .corpus_text
                    .push_str(&format!("# seed {} signals={signals}\n{body}\n", self.seed_count));
                self.seed_count += 1;
            }
            FleetDelta::Edge { from, to, weight } => {
                self.edges.insert((from, to), weight);
            }
            FleetDelta::EdgeDel { from, to } => {
                self.edges.remove(&(from, to));
            }
            FleetDelta::Learns(n) => self.learns = self.learns.max(n),
            FleetDelta::Crash(record) => {
                self.crashes.insert(dedup_key(&record.title), record);
            }
            FleetDelta::Blocks(blocks) => self.blocks.extend(blocks),
            FleetDelta::Sample { t, v } => {
                // Series stay monotonic the same way `restore_series`
                // enforces downstream.
                if self.snap.series.last().is_none_or(|&(lt, _)| lt <= t) {
                    self.snap.series.push((t, v));
                } else {
                    self.malformed += 1;
                }
            }
            FleetDelta::Counters(record) => record.apply_to(self.snap.counters_mut()),
            FleetDelta::Round { round, clock_us } => {
                self.snap.round = round;
                self.snap.clock_us = clock_us;
            }
        }
    }

    /// Rebuilds the snapshot. With `table`, relation edges come out in
    /// [`RelationGraph::export`] order (source, then target [`DescId`]),
    /// so the text equals what a live capture of the same graph writes;
    /// without it they stay in name order.
    ///
    /// [`RelationGraph::export`]: crate::relation::RelationGraph::export
    /// [`DescId`]: fuzzlang::desc::DescId
    fn finish(mut self, table: Option<&DescTable>) -> (FleetSnapshot, u64) {
        if !self.edges.is_empty() || self.learns > 0 {
            let mut edges: Vec<_> = self.edges.iter().collect();
            if let Some(table) = table {
                edges.sort_by_key(|((from, to), _)| (table.id_of(from), table.id_of(to)));
            }
            let mut text = format!("# relation-graph learns={}\n", self.learns);
            for ((from, to), weight) in edges {
                text.push_str(&format!("edge {from}\t{to}\t{weight}\n"));
            }
            self.snap.relations_text = text;
        }
        self.snap.coverage = self.blocks.into_iter().collect();
        self.snap.crashes = self.crashes.into_values().collect();
        (self.snap, self.malformed)
    }
}

/// Loads durable state back into a resumable [`FleetSnapshot`].
#[derive(Debug, Clone)]
pub struct RecoveryManager<M: StorageMedium + Clone> {
    medium: M,
}

impl<M: StorageMedium + Clone> RecoveryManager<M> {
    /// A manager over `medium`.
    pub fn new(medium: M) -> Self {
        Self { medium }
    }

    /// Recovers without re-auditing. [`StoreError::NotFound`] when the
    /// medium holds no store files at all (a fresh start, not a failure);
    /// [`StoreError::Unrecoverable`] when files exist but nothing usable
    /// survives validation.
    pub fn recover(&self) -> Result<Recovered, StoreError> {
        self.recover_impl(None)
    }

    /// Recovers and re-verifies the result through the
    /// `droidfuzz-analysis` auditors (snapshot framing, corpus seeds, and
    /// the Eq. 1 in-weight invariants via the nested relations audit). A
    /// generation whose recovered state carries Error findings is treated
    /// like a corrupt snapshot: recovery falls back to the next one.
    pub fn recover_verified(&self, table: &DescTable) -> Result<Recovered, StoreError> {
        self.recover_impl(Some(table))
    }

    fn recover_impl(&self, audit: Option<&DescTable>) -> Result<Recovered, StoreError> {
        let store = SnapshotStore::new(self.medium.clone(), usize::MAX);
        let snapshot_gens = store.generations()?;
        let journal_gens: BTreeSet<u64> =
            self.medium.list()?.iter().filter_map(|n| parse_journal_name(n)).collect();
        if snapshot_gens.is_empty() && journal_gens.is_empty() {
            return Err(StoreError::NotFound("no snapshot or journal files".to_owned()));
        }

        let mut fell_back = 0u64;
        // Newest snapshot first; the from-empty journal is the last
        // resort (`None`).
        let candidates =
            snapshot_gens.iter().rev().map(|&g| Some(g)).chain(std::iter::once(None));
        for base in candidates {
            let (base_snap, base_malformed) = match base {
                Some(gen) => match Self::load_base(&store, gen) {
                    Ok(snap) => {
                        let malformed = snap.malformed_lines as u64;
                        (snap, malformed)
                    }
                    Err(_) => {
                        fell_back += 1;
                        continue;
                    }
                },
                None => {
                    if !journal_gens.contains(&0) {
                        continue;
                    }
                    (FleetSnapshot::default(), 0)
                }
            };

            let mut state = ReplayState::from_snapshot(base_snap);
            let mut replayed = 0u64;
            let mut dropped = 0u64;
            let mut truncated = false;
            let mut gen = base.unwrap_or(0);
            loop {
                match Journal::scan(&self.medium, gen) {
                    Ok(scan) => {
                        for record in &scan.records {
                            match FleetDelta::decode(&record.payload) {
                                Some(delta) => state.apply(delta),
                                None => state.malformed += 1,
                            }
                            replayed += 1;
                        }
                        dropped += scan.dropped_bytes;
                        if scan.truncated {
                            truncated = true;
                            break;
                        }
                    }
                    // No journal for this generation: zero deltas since
                    // its snapshot. A later journal without this one
                    // would leave a hole, so the chain stops either way.
                    Err(StoreError::NotFound(_)) => break,
                    Err(e) => return Err(e),
                }
                gen += 1;
                if !journal_gens.contains(&gen) {
                    break;
                }
            }

            let (snapshot, replay_malformed) = state.finish(audit);
            if let Some(table) = audit {
                if audit_snapshot(&snapshot.to_text(), table).has_errors() {
                    fell_back += 1;
                    continue;
                }
            }

            let malformed_lines = base_malformed + replay_malformed;
            let outcome = if fell_back > 0 {
                RecoveryOutcome::CorruptSnapshot { fell_back_generations: fell_back }
            } else if truncated || dropped > 0 {
                RecoveryOutcome::TailTruncated { replayed, dropped }
            } else {
                RecoveryOutcome::Clean
            };
            let counters = StoreCounters {
                recoveries: 1,
                replayed_records: replayed,
                dropped_bytes: dropped,
                fell_back_generations: fell_back,
                malformed_lines,
                ..Default::default()
            };
            return Ok(Recovered {
                snapshot,
                report: RecoveryReport {
                    outcome,
                    base_generation: base,
                    replayed_records: replayed,
                    dropped_bytes: dropped,
                    fell_back_generations: fell_back,
                    malformed_lines,
                    counters,
                },
            });
        }
        Err(StoreError::Unrecoverable(format!(
            "{} snapshot generation(s) and {} journal(s) present, none usable",
            snapshot_gens.len(),
            journal_gens.len()
        )))
    }

    fn load_base(
        store: &SnapshotStore<M>,
        gen: u64,
    ) -> Result<FleetSnapshot, StoreError> {
        let sections = store.read(gen)?;
        let fleet = sections
            .iter()
            .find(|(name, _)| name == FLEET_SECTION)
            .map(|(_, payload)| payload)
            .ok_or_else(|| {
                StoreError::Corrupt(format!("snapshot gen {gen}: no `{FLEET_SECTION}` section"))
            })?;
        let text = std::str::from_utf8(fleet)
            .map_err(|_| StoreError::Corrupt(format!("snapshot gen {gen}: non-utf8 fleet text")))?;
        FleetSnapshot::parse(text)
            .map_err(|e| StoreError::Corrupt(format!("snapshot gen {gen}: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::super::medium::SimMedium;
    use super::super::snapshot_store::encode_snapshot;
    use super::*;
    use crate::supervisor::FaultCounters;
    use droidfuzz_analysis::CounterRecord;
    use simkernel::report::{BugKind, Component};

    fn base_snapshot() -> FleetSnapshot {
        FleetSnapshot {
            round: 2,
            clock_us: 1_000,
            relations_text: "# relation-graph learns=2\nedge a\tb\t0.5\nedge c\tb\t0.5\n".into(),
            coverage: vec![0x10, 0x20],
            series: vec![(500, 1.0), (1_000, 2.0)],
            crashes: vec![CrashRecord {
                title: "WARNING in foo".into(),
                kind: BugKind::Warning,
                component: Component::KernelDriver,
                count: 1,
                first_seen_us: 600,
                repro: None,
            }],
            corpus_text: "# seed 0 signals=3\nr0 = open()\n\n".into(),
            ..Default::default()
        }
    }

    fn write_gen(medium: &SimMedium, gen: u64, snap: &FleetSnapshot) {
        let mut m = medium.clone();
        let bytes = encode_snapshot(gen, &[(FLEET_SECTION, snap.to_text().as_bytes())]);
        m.write(&format!("snapshot-{gen}.dfs"), &bytes).unwrap();
    }

    fn journal_with(medium: &SimMedium, gen: u64, deltas: &[FleetDelta]) {
        let mut journal = Journal::create(medium.clone(), gen).unwrap();
        for d in deltas {
            journal.append(&d.encode()).unwrap();
        }
    }

    #[test]
    fn empty_medium_is_not_found() {
        assert!(matches!(
            RecoveryManager::new(SimMedium::new()).recover(),
            Err(StoreError::NotFound(_))
        ));
    }

    #[test]
    fn clean_recovery_replays_the_whole_journal() {
        let medium = SimMedium::new();
        write_gen(&medium, 1, &base_snapshot());
        journal_with(
            &medium,
            1,
            &[
                FleetDelta::Seed { signals: 9, body: "r0 = close()\n".into() },
                FleetDelta::Blocks(vec![0x30]),
                FleetDelta::Edge { from: "a".into(), to: "d".into(), weight: "1".into() },
                FleetDelta::Learns(3),
                FleetDelta::Sample { t: 1_500, v: 3.0 },
                FleetDelta::Round { round: 3, clock_us: 1_500 },
            ],
        );
        let recovered = RecoveryManager::new(medium).recover().unwrap();
        assert_eq!(recovered.report.outcome, RecoveryOutcome::Clean);
        assert_eq!(recovered.report.base_generation, Some(1));
        assert_eq!(recovered.report.replayed_records, 6);
        let snap = &recovered.snapshot;
        assert_eq!(snap.round, 3);
        assert_eq!(snap.clock_us, 1_500);
        assert_eq!(snap.coverage, vec![0x10, 0x20, 0x30]);
        assert_eq!(snap.series.len(), 3);
        assert!(snap.corpus_text.contains("r0 = close()"));
        assert!(snap.relations_text.contains("edge a\td\t1\n"));
        assert!(snap.relations_text.starts_with("# relation-graph learns=3\n"));
    }

    #[test]
    fn torn_journal_tail_truncates_not_fails() {
        let medium = SimMedium::new();
        write_gen(&medium, 1, &base_snapshot());
        journal_with(&medium, 1, &[FleetDelta::Learns(5), FleetDelta::Blocks(vec![0x40])]);
        // Corrupt the second record's payload in place.
        let raw = medium.read("journal-1.wal").unwrap();
        let offset = raw.windows(6).position(|w| w == b"blocks").unwrap();
        assert!(medium.corrupt("journal-1.wal", offset, 0x08));
        let recovered = RecoveryManager::new(medium).recover().unwrap();
        match recovered.report.outcome {
            RecoveryOutcome::TailTruncated { replayed, dropped } => {
                assert_eq!(replayed, 1);
                assert!(dropped > 0);
            }
            other => panic!("expected TailTruncated, got {other:?}"),
        }
        assert!(!recovered.snapshot.coverage.contains(&0x40));
    }

    #[test]
    fn corrupt_snapshot_falls_back_a_generation_and_chains_journals() {
        let medium = SimMedium::new();
        write_gen(&medium, 1, &base_snapshot());
        journal_with(&medium, 1, &[FleetDelta::Blocks(vec![0x30])]);
        // Generation 2 exists but is corrupt (bad file crc).
        let mut m = medium.clone();
        m.write("snapshot-2.dfs", b"# droidfuzz-store snapshot v1 gen=2 sections=0\nfile-crc 00000000\n")
            .unwrap();
        journal_with(&medium, 2, &[FleetDelta::Blocks(vec![0x50])]);
        let recovered = RecoveryManager::new(medium).recover().unwrap();
        assert_eq!(
            recovered.report.outcome,
            RecoveryOutcome::CorruptSnapshot { fell_back_generations: 1 }
        );
        assert_eq!(recovered.report.base_generation, Some(1));
        // The journal chain carries past the corrupt generation: deltas
        // from both journal-1 and journal-2 land.
        assert!(recovered.snapshot.coverage.contains(&0x30));
        assert!(recovered.snapshot.coverage.contains(&0x50));
    }

    #[test]
    fn all_generations_corrupt_falls_back_to_empty_plus_journal_zero() {
        let medium = SimMedium::new();
        journal_with(
            &medium,
            0,
            &[
                FleetDelta::Seed { signals: 1, body: "r0 = open()\n".into() },
                FleetDelta::Round { round: 1, clock_us: 700 },
            ],
        );
        let mut m = medium.clone();
        m.write("snapshot-1.dfs", b"garbage").unwrap();
        let recovered = RecoveryManager::new(medium).recover().unwrap();
        assert_eq!(
            recovered.report.outcome,
            RecoveryOutcome::CorruptSnapshot { fell_back_generations: 1 }
        );
        assert_eq!(recovered.report.base_generation, None);
        assert_eq!(recovered.snapshot.round, 1);
        assert!(recovered.snapshot.corpus_text.contains("r0 = open()"));
    }

    #[test]
    fn nothing_usable_is_unrecoverable() {
        let medium = SimMedium::new();
        let mut m = medium.clone();
        m.write("snapshot-3.dfs", b"garbage").unwrap();
        assert!(matches!(
            RecoveryManager::new(medium).recover(),
            Err(StoreError::Unrecoverable(_))
        ));
    }

    #[test]
    fn undecodable_records_count_as_malformed_not_fatal() {
        let medium = SimMedium::new();
        write_gen(&medium, 1, &base_snapshot());
        let mut journal = Journal::create(medium.clone(), 1).unwrap();
        journal.append("from-the-future 123").unwrap();
        journal.append(&FleetDelta::Learns(9).encode()).unwrap();
        let recovered = RecoveryManager::new(medium).recover().unwrap();
        assert_eq!(recovered.report.outcome, RecoveryOutcome::Clean);
        assert_eq!(recovered.report.malformed_lines, 1);
        assert!(recovered.snapshot.relations_text.starts_with("# relation-graph learns=9\n"));
    }

    #[test]
    fn replayed_crash_and_counter_upserts_are_absolute() {
        let medium = SimMedium::new();
        write_gen(&medium, 1, &base_snapshot());
        let crash = CrashRecord {
            title: "WARNING in foo".into(),
            kind: BugKind::Warning,
            component: Component::KernelDriver,
            count: 7,
            first_seen_us: 600,
            repro: Some("r0 = open()\n".into()),
        };
        let faults = FaultCounters { injected: 11, ..Default::default() };
        journal_with(
            &medium,
            1,
            &[
                FleetDelta::Crash(crash.clone()),
                FleetDelta::Crash(crash.clone()), // replayed twice: still count 7
                FleetDelta::Counters(CounterRecord::of(&faults)),
                FleetDelta::Counters(CounterRecord::of(&faults)),
            ],
        );
        let recovered = RecoveryManager::new(medium).recover().unwrap();
        assert_eq!(recovered.snapshot.crashes.len(), 1);
        assert_eq!(recovered.snapshot.crashes[0].count, 7);
        assert_eq!(recovered.snapshot.crashes[0].repro.as_deref(), Some("r0 = open()\n"));
        assert_eq!(recovered.snapshot.fault_totals.injected, 11);
    }
}
