//! Fleet-side durability: mirrors the hub's state onto a
//! [`StorageMedium`] through the [`store`](crate::store) layer.
//!
//! The orchestrator drives a [`FleetPersist`] sink from its own thread:
//! after every sync round it hands over the hub so new seeds, relation
//! edges, coverage blocks, crashes, series samples, and counter totals
//! are appended to the write-ahead journal; at every checkpoint it hands
//! over the freshly captured [`FleetSnapshot`] so the journal is
//! compacted into a new snapshot generation. [`FleetStore`] is the real
//! implementation; tests can substitute their own sink.
//!
//! Durability is *best-effort by design*: every storage failure is
//! counted into [`StoreCounters::io_errors`] and the campaign keeps
//! fuzzing — a full disk degrades persistence, it never kills the fleet.

use super::hub::CorpusHub;
use super::snapshot::{crash_fields, FleetSnapshot};
use crate::crashes::dedup_key;
use crate::net::NetCounters;
use crate::store::journal::{journal_name, parse_journal_name, Journal};
use crate::store::recovery::{parse_relations, Recovered, FLEET_SECTION};
use crate::store::snapshot_store::{parse_snapshot_name, SnapshotStore};
use crate::store::{FleetDelta, StorageMedium, StoreCounters, StoreError};
use crate::supervisor::FaultCounters;
use droidfuzz_analysis::{CounterFamily, CounterRecord, LintCounters};
use fuzzlang::desc::DescTable;
use std::collections::{BTreeMap, BTreeSet};

/// Snapshot generations the ring keeps by default — enough to survive a
/// corrupt newest generation plus its predecessor.
pub const DEFAULT_KEEP: usize = 3;

/// The orchestrator's durability sink. All methods are infallible on
/// purpose: implementations absorb storage errors into their counters so
/// a failing disk can never abort a campaign.
pub trait FleetPersist {
    /// Called once before the first round, after any snapshot restore,
    /// so the sink can prime its diff mirrors from the hub (restored
    /// seeds must not be re-journaled).
    fn on_start(&mut self, hub: &CorpusHub, table: &DescTable);

    /// Called after every completed sync round with the hub and the
    /// campaign-cumulative counter totals (baseline + this run, the same
    /// values a snapshot would carry).
    #[allow(clippy::too_many_arguments)] // one positional slot per counter family
    fn on_round(
        &mut self,
        hub: &CorpusHub,
        table: &DescTable,
        round: usize,
        clock_us: u64,
        fault_totals: &FaultCounters,
        lint_totals: &LintCounters,
        net_totals: &NetCounters,
    );

    /// Called with every captured snapshot (checkpoint cadence, final
    /// round, and kill) so the journal can be compacted.
    fn on_checkpoint(&mut self, snapshot: &FleetSnapshot);

    /// Durability counters accumulated by this sink this run.
    fn counters(&self) -> StoreCounters;
}

/// The durable [`FleetPersist`] implementation: a write-ahead journal of
/// per-round hub deltas, compacted into a checksummed snapshot
/// generation at every checkpoint, on any [`StorageMedium`].
#[derive(Debug)]
pub struct FleetStore<M: StorageMedium + Clone> {
    medium: M,
    snapshots: SnapshotStore<M>,
    journal: Journal<M>,
    /// Current journal base generation.
    gen: u64,
    counters: StoreCounters,
    /// Pre-kill totals from the resumed snapshot (fresh runs: zero);
    /// journaled `store` deltas carry `baseline + counters`.
    baseline: StoreCounters,
    // Diff mirrors: what the journal already reflects.
    seed_cursor: u64,
    learns: u64,
    edges: BTreeMap<(String, String), String>,
    blocks: BTreeSet<u64>,
    /// `dedup key → rendered crash fields` — a change in any field
    /// re-journals the record (upsert semantics on replay).
    crashes: BTreeMap<String, String>,
    series_len: usize,
    /// `section → record` of the fault, lint and net totals last
    /// journaled (re-journaled only when they change).
    journaled_counters: BTreeMap<&'static str, CounterRecord>,
}

impl<M: StorageMedium + Clone> FleetStore<M> {
    /// Starts durable state for a *fresh* campaign: refuses a medium that
    /// already holds campaign files (resume instead), then opens the
    /// from-empty journal (`journal-0.wal`).
    pub fn create(medium: M, keep: usize) -> Result<Self, StoreError> {
        let occupied = medium.list()?.into_iter().any(|name| {
            parse_snapshot_name(&name).is_some() || parse_journal_name(&name).is_some()
        });
        if occupied {
            return Err(StoreError::Io(
                "store already holds campaign state; resume instead of overwriting".to_owned(),
            ));
        }
        let journal = Journal::create(medium.clone(), 0)?;
        Ok(Self {
            snapshots: SnapshotStore::new(medium.clone(), keep),
            medium,
            journal,
            gen: 0,
            counters: StoreCounters::default(),
            baseline: StoreCounters::default(),
            seed_cursor: 0,
            learns: 0,
            edges: BTreeMap::new(),
            blocks: BTreeSet::new(),
            crashes: BTreeMap::new(),
            series_len: 0,
            journaled_counters: BTreeMap::new(),
        })
    }

    /// Re-attaches durable state after a recovery. The recovered state is
    /// immediately *sealed* into a fresh snapshot generation with a clean
    /// journal — appends never continue behind a possibly-torn tail.
    pub fn resume(medium: M, keep: usize, recovered: &Recovered) -> Result<Self, StoreError> {
        let mut snapshots = SnapshotStore::new(medium.clone(), keep);
        let newest_snapshot = snapshots.newest()?.unwrap_or(0);
        let newest_journal = medium
            .list()?
            .into_iter()
            .filter_map(|n| parse_journal_name(&n))
            .max()
            .unwrap_or(0);
        let gen = newest_snapshot.max(newest_journal) + 1;

        let text = recovered.snapshot.to_text();
        snapshots.write(gen, &[(FLEET_SECTION, text.as_bytes())])?;
        let journal = Journal::create(medium.clone(), gen)?;
        let mut counters = recovered.report.counters;
        counters.snapshots_written += 1;
        counters.compactions += 1;
        let mut store = Self {
            snapshots,
            medium,
            journal,
            gen,
            counters,
            baseline: recovered.snapshot.store_totals,
            seed_cursor: 0,
            learns: 0,
            edges: BTreeMap::new(),
            blocks: BTreeSet::new(),
            crashes: BTreeMap::new(),
            series_len: 0,
            journaled_counters: BTreeMap::new(),
        };
        store.prune();
        Ok(store)
    }

    /// The journal's current base generation.
    pub fn generation(&self) -> u64 {
        self.gen
    }

    fn append(&mut self, delta: &FleetDelta) {
        let payload = delta.encode();
        match self.journal.append(&payload) {
            Ok(_) => {
                self.counters.journal_records += 1;
                self.counters.journal_bytes += payload.len() as u64;
            }
            Err(_) => self.counters.io_errors += 1,
        }
    }

    /// Prunes the snapshot ring and drops the journals of pruned
    /// generations (a journal without its base snapshot is dead weight).
    fn prune(&mut self) {
        match self.snapshots.prune() {
            Ok(pruned) => {
                for gen in pruned {
                    if self.medium.remove(&journal_name(gen)).is_err() {
                        self.counters.io_errors += 1;
                    }
                }
            }
            Err(_) => self.counters.io_errors += 1,
        }
        // Journals older than the oldest kept snapshot (e.g. the
        // pre-first-checkpoint journal-0) can never be replayed again.
        let Ok(Some(oldest)) = self.snapshots.generations().map(|g| g.first().copied()) else {
            return;
        };
        let Ok(names) = self.medium.list() else {
            self.counters.io_errors += 1;
            return;
        };
        for name in names {
            if let Some(gen) = crate::store::journal::parse_journal_name(&name) {
                if gen < oldest && self.medium.remove(&name).is_err() {
                    self.counters.io_errors += 1;
                }
            }
        }
    }
}

impl<M: StorageMedium + Clone> FleetPersist for FleetStore<M> {
    fn on_start(&mut self, hub: &CorpusHub, table: &DescTable) {
        // Prime every mirror from the (possibly snapshot-restored) hub:
        // the seal/initial state is already durable, only changes from
        // here on need journaling.
        self.seed_cursor = hub.tip();
        let export = hub.relations().map(|g| g.export(table)).unwrap_or_default();
        (self.learns, self.edges, _) = parse_relations(&export);
        self.blocks = hub.coverage_blocks().iter().map(|b| b.0).collect();
        self.crashes = hub
            .crashes()
            .records()
            .into_iter()
            .map(|r| (dedup_key(&r.title), crash_fields(r)))
            .collect();
        self.series_len = hub.series().points().len();
    }

    fn on_round(
        &mut self,
        hub: &CorpusHub,
        table: &DescTable,
        round: usize,
        clock_us: u64,
        fault_totals: &FaultCounters,
        lint_totals: &LintCounters,
        net_totals: &NetCounters,
    ) {
        let fresh_seeds: Vec<(usize, String)> = hub
            .seeds_since(self.seed_cursor)
            .map(|s| (s.signals, s.body.clone()))
            .collect();
        self.seed_cursor = hub.tip();
        for (signals, body) in fresh_seeds {
            self.append(&FleetDelta::Seed { signals, body });
        }

        let export = hub.relations().map(|g| g.export(table)).unwrap_or_default();
        let (learns, edges, _) = parse_relations(&export);
        if learns != self.learns {
            self.append(&FleetDelta::Learns(learns));
        }
        let dropped: Vec<(String, String)> =
            self.edges.keys().filter(|k| !edges.contains_key(*k)).cloned().collect();
        for (from, to) in dropped {
            self.append(&FleetDelta::EdgeDel { from: from.clone(), to: to.clone() });
        }
        let changed: Vec<((String, String), String)> = edges
            .iter()
            .filter(|(k, w)| self.edges.get(*k) != Some(w))
            .map(|(k, w)| (k.clone(), w.clone()))
            .collect();
        for ((from, to), weight) in changed {
            self.append(&FleetDelta::Edge { from, to, weight });
        }
        self.learns = learns;
        self.edges = edges;

        let fresh_blocks: Vec<u64> = hub
            .coverage_blocks()
            .iter()
            .map(|b| b.0)
            .filter(|b| !self.blocks.contains(b))
            .collect();
        if !fresh_blocks.is_empty() {
            self.blocks.extend(fresh_blocks.iter().copied());
            self.append(&FleetDelta::Blocks(fresh_blocks));
        }

        let changed_crashes: Vec<crate::crashes::CrashRecord> = hub
            .crashes()
            .records()
            .into_iter()
            .filter(|r| self.crashes.get(&dedup_key(&r.title)) != Some(&crash_fields(r)))
            .cloned()
            .collect();
        for record in changed_crashes {
            self.crashes.insert(dedup_key(&record.title), crash_fields(&record));
            self.append(&FleetDelta::Crash(record));
        }

        let samples: Vec<(u64, f64)> =
            hub.series().points().iter().skip(self.series_len).copied().collect();
        self.series_len = hub.series().points().len();
        for (t, v) in samples {
            self.append(&FleetDelta::Sample { t, v });
        }

        for totals in [fault_totals as &dyn CounterFamily, lint_totals, net_totals] {
            let record = CounterRecord::of(totals);
            if self.journaled_counters.get(totals.table().section) != Some(&record) {
                self.journaled_counters.insert(totals.table().section, record.clone());
                self.append(&FleetDelta::Counters(record));
            }
        }
        // Durability counters, campaign-cumulative like the snapshot's
        // store section (they trail by the bytes of this very record,
        // which is fine: the next checkpoint squares them up).
        let mut store_totals = self.baseline;
        store_totals.absorb(&self.counters);
        self.append(&FleetDelta::Counters(CounterRecord::of(&store_totals)));
        self.append(&FleetDelta::Round { round, clock_us });
    }

    fn on_checkpoint(&mut self, snapshot: &FleetSnapshot) {
        let next = self.gen + 1;
        let text = snapshot.to_text();
        if self.snapshots.write(next, &[(FLEET_SECTION, text.as_bytes())]).is_err() {
            self.counters.io_errors += 1;
            return;
        }
        self.counters.snapshots_written += 1;
        match Journal::create(self.medium.clone(), next) {
            Ok(journal) => {
                self.journal = journal;
                self.gen = next;
                self.counters.compactions += 1;
            }
            // The new generation's snapshot exists but its journal could
            // not be opened: keep appending to the old chain (recovery
            // still finds a consistent state either way).
            Err(_) => self.counters.io_errors += 1,
        }
        self.prune();
    }

    fn counters(&self) -> StoreCounters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{MediumFault, RecoveryManager, SimMedium};

    fn hub_with_state() -> CorpusHub {
        let mut hub = CorpusHub::new(64);
        hub.publish_corpus(0, "# seed 0 signals=5\nr0 = openat$/dev/video0()\n\n");
        hub.publish_coverage([simkernel::coverage::Block(0x10), simkernel::coverage::Block(0x20)]);
        hub.record_sample(1_000);
        hub
    }

    fn table() -> DescTable {
        let mut t = DescTable::new();
        t.add(fuzzlang::desc::CallDesc::syscall_open("/dev/video0"));
        t
    }

    #[test]
    fn create_refuses_an_occupied_medium() {
        let medium = SimMedium::new();
        FleetStore::create(medium.clone(), 2).unwrap();
        assert!(FleetStore::create(medium, 2).is_err());
    }

    #[test]
    fn rounds_journal_only_the_diff() {
        let medium = SimMedium::new();
        let mut store = FleetStore::create(medium.clone(), 2).unwrap();
        let t = table();
        let mut hub = CorpusHub::new(64);
        store.on_start(&hub, &t);

        hub.publish_corpus(0, "# seed 0 signals=5\nr0 = openat$/dev/video0()\n\n");
        hub.publish_coverage([simkernel::coverage::Block(0x10)]);
        hub.record_sample(1_000);
        store.on_round(&hub, &t, 1, 1_000, &FaultCounters::default(), &LintCounters::default(), &NetCounters::default());
        let after_first = store.counters().journal_records;
        // seed + blocks + sample + faults + lint + net + store + round = 8
        assert_eq!(after_first, 8);

        // Nothing changed: only the store totals and round marker append.
        store.on_round(&hub, &t, 2, 2_000, &FaultCounters::default(), &LintCounters::default(), &NetCounters::default());
        assert_eq!(store.counters().journal_records, after_first + 2);
    }

    #[test]
    fn checkpoint_rotates_generation_and_prunes() {
        let medium = SimMedium::new();
        let mut store = FleetStore::create(medium.clone(), 2).unwrap();
        let t = table();
        let hub = hub_with_state();
        store.on_start(&hub, &t);
        for round in 1..=4u64 {
            let snap = FleetSnapshot::capture(
                &hub,
                &t,
                round as usize,
                round * 1_000,
                FaultCounters::default(),
                LintCounters::default(),
                store.counters(),
                NetCounters::default(),
            );
            store.on_checkpoint(&snap);
            assert_eq!(store.generation(), round);
        }
        assert_eq!(store.counters().snapshots_written, 4);
        assert_eq!(store.counters().compactions, 4);
        // Ring of 2: generations 3 and 4 survive; journals of pruned
        // generations are gone with them.
        let names = medium.list().unwrap();
        assert!(names.contains(&"snapshot-3.dfs".to_owned()));
        assert!(names.contains(&"snapshot-4.dfs".to_owned()));
        assert!(!names.contains(&"snapshot-1.dfs".to_owned()));
        assert!(!names.contains(&"journal-1.wal".to_owned()));
        assert!(names.contains(&"journal-4.wal".to_owned()));
    }

    #[test]
    fn journaled_rounds_recover_without_a_checkpoint() {
        let medium = SimMedium::new();
        let mut store = FleetStore::create(medium.clone(), 2).unwrap();
        let t = table();
        let mut hub = CorpusHub::new(64);
        store.on_start(&hub, &t);
        hub.publish_corpus(0, "# seed 0 signals=5\nr0 = openat$/dev/video0()\n\n");
        hub.publish_coverage([simkernel::coverage::Block(0x42)]);
        hub.record_sample(9_000);
        store.on_round(&hub, &t, 1, 9_000, &FaultCounters::default(), &LintCounters::default(), &NetCounters::default());

        let recovered = RecoveryManager::new(medium).recover().unwrap();
        assert_eq!(recovered.snapshot.round, 1);
        assert_eq!(recovered.snapshot.clock_us, 9_000);
        assert!(recovered.snapshot.corpus_text.contains("r0 = openat$/dev/video0()"));
        assert_eq!(recovered.snapshot.coverage, vec![0x42]);
    }

    #[test]
    fn storage_failures_degrade_to_io_error_counters() {
        let medium = SimMedium::new();
        let mut store = FleetStore::create(medium.clone(), 2).unwrap();
        let t = table();
        let hub = hub_with_state();
        store.on_start(&hub, &t);
        // Exhaust the byte budget: every subsequent write/append fails
        // with NoSpace, but nothing panics and the campaign would go on.
        medium.push_fault(MediumFault::NoSpace { after_bytes: 0 });
        let mut full_hub = hub_with_state();
        full_hub.publish_coverage([simkernel::coverage::Block(0x99)]);
        full_hub.record_sample(2_000);
        store.on_round(&full_hub, &t, 1, 2_000, &FaultCounters::default(), &LintCounters::default(), &NetCounters::default());
        let snap = FleetSnapshot::capture(
            &full_hub,
            &t,
            1,
            2_000,
            FaultCounters::default(),
            LintCounters::default(),
            store.counters(),
            NetCounters::default(),
        );
        store.on_checkpoint(&snap);
        assert!(store.counters().io_errors > 0);
        assert_eq!(store.counters().snapshots_written, 0);
    }

    #[test]
    fn resume_seals_a_fresh_generation() {
        let medium = SimMedium::new();
        let mut store = FleetStore::create(medium.clone(), 3).unwrap();
        let t = table();
        let hub = hub_with_state();
        store.on_start(&CorpusHub::new(64), &t);
        store.on_round(&hub, &t, 1, 1_000, &FaultCounters::default(), &LintCounters::default(), &NetCounters::default());
        drop(store);

        let recovered = RecoveryManager::new(medium.clone()).recover().unwrap();
        let resumed = FleetStore::resume(medium.clone(), 3, &recovered).unwrap();
        assert_eq!(resumed.generation(), 1, "sealed past journal-0");
        assert!(resumed.counters().recoveries >= 1);
        let names = medium.list().unwrap();
        assert!(names.contains(&"snapshot-1.dfs".to_owned()));
        assert!(names.contains(&"journal-1.wal".to_owned()));
        // And the seal itself recovers clean.
        let again = RecoveryManager::new(medium).recover().unwrap();
        assert_eq!(again.snapshot.round, 1);
        assert_eq!(again.snapshot.clock_us, 1_000);
    }
}
