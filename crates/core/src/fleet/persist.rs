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
//! Each round journals only what changed since the mirrors the store
//! keeps of what it already wrote. The relation graph's mirror is
//! structural: every edge's weight bits keyed by the name ranks of its
//! ends, read straight from the graph. It yields the records diffing the
//! graph's export text would (the same records in the same name order)
//! without writing or parsing that text, and formats names and weights
//! only for the records it appends.
//!
//! A round reaches the medium as one group commit: its records are
//! encoded as before and written with one journal append and one sync at
//! the round marker, so the WAL holds the bytes a per-record writer
//! would leave while the medium sees one sync per round instead of one
//! per record. Records are counted once appended; a batch the medium
//! refuses is dropped whole, so recovery replays whole rounds only.
//!
//! Durability is *best-effort by design*: every storage failure is
//! counted into [`StoreCounters::io_errors`] and the campaign keeps
//! fuzzing — a full disk degrades persistence, it never kills the fleet.

use super::hub::CorpusHub;
use super::snapshot::{crash_fields, FleetSnapshot};
use crate::crashes::dedup_key;
use crate::net::NetCounters;
use crate::relation::RelationGraph;
use crate::store::journal::{journal_name, parse_journal_name, Journal};
use crate::store::recovery::{Recovered, FLEET_SECTION};
use crate::store::snapshot_store::{parse_snapshot_name, SnapshotStore};
use crate::store::{FleetDelta, StorageMedium, StoreCounters, StoreError};
use crate::supervisor::FaultCounters;
use droidfuzz_analysis::{CounterFamily, CounterRecord, LintCounters};
use fuzzlang::desc::{DescId, DescTable};
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
    relations: RelationMirror,
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
            relations: RelationMirror::default(),
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
            relations: RelationMirror::default(),
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

    /// Writes one round's records to the journal as a single batch (one
    /// append, one sync) and counts them only once they are appended: a
    /// failed batch is one io error, and a batch the medium has no space
    /// for is dropped whole, so recovery never sees half a round.
    fn commit(&mut self, batch: &[String]) {
        match self.journal.append_batch(batch.iter().map(String::as_str)) {
            Ok(_) => {
                self.counters.journal_records += batch.len() as u64;
                self.counters.journal_bytes += batch.iter().map(|p| p.len() as u64).sum::<u64>();
            }
            Err(_) => self.counters.io_errors += 1,
        }
    }

    /// Encodes one round's records: the hub's fresh seeds, the relation
    /// records already diffed, fresh coverage blocks, changed crashes,
    /// new series samples, changed counter families (faults, lint, net),
    /// the store totals and the round marker.
    fn journal_round(
        &mut self,
        hub: &CorpusHub,
        relations: Vec<FleetDelta>,
        round: usize,
        clock_us: u64,
        totals: [&dyn CounterFamily; 3],
    ) -> Vec<String> {
        let mut batch = Vec::new();
        let mut stage = |delta: &FleetDelta| batch.push(delta.encode());
        for seed in hub.seeds_since(self.seed_cursor) {
            stage(&FleetDelta::Seed { signals: seed.signals, body: seed.body.clone() });
        }
        self.seed_cursor = hub.tip();
        for delta in &relations {
            stage(delta);
        }

        let fresh_blocks: Vec<u64> = hub
            .coverage_blocks()
            .iter()
            .map(|b| b.0)
            .filter(|b| !self.blocks.contains(b))
            .collect();
        if !fresh_blocks.is_empty() {
            self.blocks.extend(fresh_blocks.iter().copied());
            stage(&FleetDelta::Blocks(fresh_blocks));
        }

        for record in hub.crashes().records() {
            let fields = crash_fields(record);
            if self.crashes.get(&dedup_key(&record.title)) != Some(&fields) {
                self.crashes.insert(dedup_key(&record.title), fields);
                stage(&FleetDelta::Crash(record.clone()));
            }
        }

        for &(t, v) in hub.series().points().iter().skip(self.series_len) {
            stage(&FleetDelta::Sample { t, v });
        }
        self.series_len = hub.series().points().len();

        for family in totals {
            let record = CounterRecord::of(family);
            if self.journaled_counters.get(family.table().section) != Some(&record) {
                self.journaled_counters.insert(family.table().section, record.clone());
                stage(&FleetDelta::Counters(record));
            }
        }
        // Durability counters, campaign-cumulative like the snapshot's
        // store section, counting the records staged ahead of this one as
        // appended (they trail by the bytes of this very record and the
        // round marker, which is fine: the next checkpoint squares them
        // up).
        let mut store_totals = self.baseline;
        store_totals.absorb(&self.counters);
        store_totals.journal_records += batch.len() as u64;
        store_totals.journal_bytes += batch.iter().map(|p| p.len() as u64).sum::<u64>();
        batch.push(FleetDelta::Counters(CounterRecord::of(&store_totals)).encode());
        batch.push(FleetDelta::Round { round, clock_us }.encode());
        batch
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

/// The journal's copy of the hub relation graph: its learn count and
/// every edge's weight bits, keyed by the name ranks of the edge's ends
/// so edges iterate in `(from, to)` name order, the order recovery
/// replays the text form in. Two weights differ exactly when their
/// shortest-roundtrip texts do, so comparing bits journals the same
/// records as comparing the export text; names and weights are
/// formatted only for the records written.
#[derive(Debug, Default)]
struct RelationMirror {
    /// `rank[id]`: where description `id`'s name sorts among all names;
    /// `None` for a name holding a tab or newline, which cannot sit in
    /// one tab-separated record (recovery could never resolve it).
    rank: Vec<Option<usize>>,
    learns: u64,
    /// `(rank of from, rank of to) → (from, to, weight bits)`.
    edges: BTreeMap<(usize, usize), (DescId, DescId, u64)>,
}

impl RelationMirror {
    /// Mirrors `graph` as already journaled.
    fn prime(&mut self, graph: Option<&RelationGraph>, table: &DescTable) {
        self.learns = graph.map_or(0, RelationGraph::learn_events);
        self.edges = self.edges_of(graph, table);
    }

    /// The records that bring the journal from the mirrored graph to
    /// `graph`, and mirrors it: the learn count if it moved, then every
    /// pruned edge, then every new or re-weighted edge, each in name
    /// order.
    fn diff(&mut self, graph: Option<&RelationGraph>, table: &DescTable) -> Vec<FleetDelta> {
        let learns = graph.map_or(0, RelationGraph::learn_events);
        let edges = self.edges_of(graph, table);
        let name = |id: DescId| table.get(id).name.clone();
        let mut records = Vec::new();
        if learns != self.learns {
            records.push(FleetDelta::Learns(learns));
        }
        let pruned = self.edges.iter().filter(|(key, _)| !edges.contains_key(key));
        records.extend(
            pruned
                .map(|(_, &(from, to, _))| FleetDelta::EdgeDel { from: name(from), to: name(to) }),
        );
        let changed =
            edges.iter().filter(|(key, e)| self.edges.get(key).map(|old| old.2) != Some(e.2));
        records.extend(changed.map(|(_, &(from, to, bits))| FleetDelta::Edge {
            from: name(from),
            to: name(to),
            weight: f64::from_bits(bits).to_string(),
        }));
        (self.learns, self.edges) = (learns, edges);
        records
    }

    /// `graph`'s journaled edges: those with both names ranked and a
    /// finite, non-negative weight (what recovery accepts).
    fn edges_of(
        &mut self,
        graph: Option<&RelationGraph>,
        table: &DescTable,
    ) -> BTreeMap<(usize, usize), (DescId, DescId, u64)> {
        if self.rank.len() != table.len() {
            self.rank = name_ranks(table);
        }
        let rank = |id: DescId| self.rank.get(id.0).copied().flatten();
        graph
            .into_iter()
            .flat_map(RelationGraph::edges)
            .filter(|&(_, _, w)| w.is_finite() && w >= 0.0)
            .filter_map(|(from, to, w)| Some(((rank(from)?, rank(to)?), (from, to, w.to_bits()))))
            .collect()
    }
}

/// Every description's position in name order (byte-wise, as `String`
/// sorts), `None` for names that cannot sit in a tab-separated record.
fn name_ranks(table: &DescTable) -> Vec<Option<usize>> {
    let mut order: Vec<usize> = (0..table.len()).collect();
    order.sort_unstable_by(|&x, &y| table.get(DescId(x)).name.cmp(&table.get(DescId(y)).name));
    let mut rank = vec![None; table.len()];
    for (position, id) in order.into_iter().enumerate() {
        let line_safe = !table.get(DescId(id)).name.contains(['\t', '\n']);
        rank[id] = line_safe.then_some(position);
    }
    rank
}

impl<M: StorageMedium + Clone> FleetPersist for FleetStore<M> {
    fn on_start(&mut self, hub: &CorpusHub, table: &DescTable) {
        // Prime every mirror from the (possibly snapshot-restored) hub:
        // the seal/initial state is already durable, only changes from
        // here on need journaling.
        self.seed_cursor = hub.tip();
        self.relations.prime(hub.relations(), table);
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
        let relations = self.relations.diff(hub.relations(), table);
        let totals = [fault_totals as &dyn CounterFamily, lint_totals, net_totals];
        let batch = self.journal_round(hub, relations, round, clock_us, totals);
        self.commit(&batch);
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
    use fuzzlang::desc::{CallDesc, CallKind};
    use proptest::prelude::*;

    /// The relation diff the structural mirror replaced: export the hub
    /// graph and parse every line back each round.
    mod reference {
        use super::super::*;
        use crate::store::recovery::parse_relations;

        #[derive(Default)]
        pub struct TextMirror {
            learns: u64,
            edges: BTreeMap<(String, String), String>,
        }

        impl TextMirror {
            pub fn prime(&mut self, hub: &CorpusHub, table: &DescTable) {
                let export = hub.relations().map(|g| g.export(table)).unwrap_or_default();
                (self.learns, self.edges, _) = parse_relations(&export);
            }

            pub fn diff(&mut self, hub: &CorpusHub, table: &DescTable) -> Vec<FleetDelta> {
                let export = hub.relations().map(|g| g.export(table)).unwrap_or_default();
                let (learns, edges, _) = parse_relations(&export);
                let mut records = Vec::new();
                if learns != self.learns {
                    records.push(FleetDelta::Learns(learns));
                }
                for (from, to) in self.edges.keys().filter(|k| !edges.contains_key(*k)) {
                    records.push(FleetDelta::EdgeDel { from: from.clone(), to: to.clone() });
                }
                for ((from, to), weight) in &edges {
                    if self.edges.get(&(from.clone(), to.clone())) != Some(weight) {
                        let (from, to, weight) = (from.clone(), to.clone(), weight.clone());
                        records.push(FleetDelta::Edge { from, to, weight });
                    }
                }
                (self.learns, self.edges) = (learns, edges);
                records
            }
        }
    }

    /// The journal writer group commit replaced: every record of a round
    /// is its own append and sync, and is counted as it lands.
    struct PerRecordStore(FleetStore<SimMedium>);

    impl FleetPersist for PerRecordStore {
        fn on_start(&mut self, hub: &CorpusHub, table: &DescTable) {
            self.0.on_start(hub, table);
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
            let store = &mut self.0;
            let relations = store.relations.diff(hub.relations(), table);
            let totals = [fault_totals as &dyn CounterFamily, lint_totals, net_totals];
            for payload in store.journal_round(hub, relations, round, clock_us, totals) {
                match store.journal.append(&payload) {
                    Ok(_) => {
                        store.counters.journal_records += 1;
                        store.counters.journal_bytes += payload.len() as u64;
                    }
                    Err(_) => store.counters.io_errors += 1,
                }
            }
        }

        fn on_checkpoint(&mut self, snapshot: &FleetSnapshot) {
            self.0.on_checkpoint(snapshot);
        }

        fn counters(&self) -> StoreCounters {
            self.0.counters()
        }
    }

    /// A fixed-seed durable campaign, killed after round 4 with
    /// checkpoints every third round, on its own medium.
    fn durable_campaign(persist: &mut dyn FleetPersist) -> crate::fleet::FleetResult {
        let cfg = crate::fleet::FleetConfig {
            shards: 2,
            hours: 0.3,
            sync_interval_hours: 0.05,
            kill_after_rounds: Some(4),
            checkpoint_interval_rounds: 3,
            threads: 1,
            ..Default::default()
        };
        let spec = simdevice::catalog::device_e();
        crate::fleet::Fleet::new(cfg).launch(
            &spec,
            &crate::config::FuzzerConfig::droidfuzz,
            None,
            Some(persist),
        )
    }

    #[test]
    fn group_commit_writes_what_the_per_record_writer_wrote() {
        let (group_medium, record_medium) = (SimMedium::new(), SimMedium::new());
        let mut group = FleetStore::create(group_medium.clone(), DEFAULT_KEEP).unwrap();
        let mut per_record =
            PerRecordStore(FleetStore::create(record_medium.clone(), DEFAULT_KEEP).unwrap());
        let grouped = durable_campaign(&mut group);
        let recorded = durable_campaign(&mut per_record);
        assert_eq!(grouped.snapshot, recorded.snapshot);
        assert_eq!(group.counters(), per_record.counters());
        assert!(group.counters().journal_records > 40, "{:?}", group.counters());
        let names = group_medium.list().unwrap();
        assert_eq!(names, record_medium.list().unwrap());
        assert!(names.iter().any(|n| parse_journal_name(n).is_some()));
        for name in &names {
            assert_eq!(group_medium.read(name).unwrap(), record_medium.read(name).unwrap(), "{name}");
        }
        // The same records, in fewer medium operations.
        assert!(group_medium.ops() < record_medium.ops());
    }

    #[test]
    fn a_round_reaches_the_medium_as_one_append_and_one_sync() {
        let medium = SimMedium::new();
        let mut store = FleetStore::create(medium.clone(), 2).unwrap();
        let t = table();
        let mut hub = CorpusHub::new(64);
        store.on_start(&hub, &t);
        let (faults, lint, net) =
            (FaultCounters::default(), LintCounters::default(), NetCounters::default());
        for round in 1..=3u64 {
            hub.publish_coverage([simkernel::coverage::Block(round)]);
            hub.record_sample(round * 1_000);
            let before = medium.ops();
            let (records, bytes) =
                (store.counters().journal_records, store.counters().journal_bytes);
            store.on_round(&hub, &t, round as usize, round * 1_000, &faults, &lint, &net);
            assert_eq!(medium.ops() - before, 2, "one append and one sync, round {round}");
            assert!(store.counters().journal_records >= records + 4, "round {round}");
            assert!(store.counters().journal_bytes > bytes, "round {round}");
        }
    }

    #[test]
    fn a_round_that_does_not_fit_is_dropped_whole() {
        let medium = SimMedium::new();
        let mut store = FleetStore::create(medium.clone(), 2).unwrap();
        let t = table();
        let mut hub = CorpusHub::new(64);
        store.on_start(&hub, &t);
        let (faults, lint, net) =
            (FaultCounters::default(), LintCounters::default(), NetCounters::default());
        hub.publish_coverage([simkernel::coverage::Block(0x42)]);
        store.on_round(&hub, &t, 1, 1_000, &faults, &lint, &net);
        let durable = store.counters();
        // Room for a record or two of the next round, not the whole round.
        medium.push_fault(MediumFault::NoSpace { after_bytes: medium.total_units() + 60 });
        hub.publish_corpus(0, "# seed 0 signals=5\nr0 = openat$/dev/video0()\n\n");
        hub.publish_coverage([simkernel::coverage::Block(0x43)]);
        hub.record_sample(2_000);
        store.on_round(&hub, &t, 2, 2_000, &faults, &lint, &net);
        let counters = store.counters();
        assert_eq!(counters.io_errors, 1, "one failed batch, one io error");
        assert_eq!(
            (counters.journal_records, counters.journal_bytes),
            (durable.journal_records, durable.journal_bytes),
            "nothing of the failed round counts as appended"
        );
        let recovered = RecoveryManager::new(medium).recover().unwrap();
        assert_eq!(recovered.snapshot.round, 1, "recovery sees round 1 whole, nothing of round 2");
        assert_eq!(recovered.snapshot.coverage, vec![0x42]);
        assert!(recovered.snapshot.corpus_text.is_empty());
    }

    /// Calls whose name order is not their id order; one name holds a
    /// tab, so its edges cannot be journaled by either diff.
    const NAMES: [&str; 8] = ["m", "c", "x$1", "a", "tab\tname", "q", "b", "zz"];

    fn shuffled_table() -> DescTable {
        let mut t = DescTable::new();
        for (code, name) in NAMES.into_iter().enumerate() {
            let kind = CallKind::Hal { service: "s".into(), code: code as u32 };
            t.add(CallDesc::new(name, kind, vec![], None));
        }
        t
    }

    proptest! {
        /// Random learn, decay (pruning), merge and prior sequences,
        /// journaled round by round through the structural mirror and
        /// through the text diff, leave byte-identical media and equal
        /// counters, whether the hub starts empty or snapshot-restored.
        #[test]
        fn structural_diff_journals_like_the_text_diff(
            ops in prop::collection::vec((0u8..10, 0usize..NAMES.len(), 0usize..NAMES.len()), 1..60),
            restored in 0u8..2,
        ) {
            let t = shuffled_table();
            let v = |i: usize| DescId(i);
            let (mut graph, mut peer) = (RelationGraph::new(&t), RelationGraph::new(&t));
            let mut hub = CorpusHub::new(64);
            if restored == 1 {
                for (a, b) in [(0, 1), (2, 1), (3, 5), (4, 0), (6, 7), (7, 6)] {
                    graph.learn(v(a), v(b));
                }
                let mut snapshot_graph = RelationGraph::new(&t);
                snapshot_graph.import(&graph.export(&t), &t);
                graph = snapshot_graph;
                hub.set_relations(graph.clone());
            }
            let (fast_medium, slow_medium) = (SimMedium::new(), SimMedium::new());
            let mut fast = FleetStore::create(fast_medium.clone(), 2).unwrap();
            let mut slow = FleetStore::create(slow_medium.clone(), 2).unwrap();
            let mut text = reference::TextMirror::default();
            fast.on_start(&hub, &t);
            slow.on_start(&hub, &t);
            text.prime(&hub, &t);
            let (faults, lint, net) =
                (FaultCounters::default(), LintCounters::default(), NetCounters::default());
            let mut round = 0;
            for (op, a, b) in ops.into_iter().chain([(9, 0, 0)]) {
                match op {
                    0..=3 => graph.learn(v(a), v(b)),
                    4 => peer.learn(v(a), v(b)),
                    5 => graph.decay([0.01, 0.5, 0.9][a % 3]),
                    6 => graph.merge_from(&peer),
                    7 => graph.seed_prior(&[(v(a), v(b)), (v(b), v((a + 1) % NAMES.len()))]),
                    _ => {
                        round += 1;
                        let clock_us = round as u64 * 1_000;
                        hub.set_relations(graph.clone());
                        fast.on_round(&hub, &t, round, clock_us, &faults, &lint, &net);
                        let records = text.diff(&hub, &t);
                        let batch =
                            slow.journal_round(&hub, records, round, clock_us, [&faults, &lint, &net]);
                        slow.commit(&batch);
                    }
                }
            }
            prop_assert_eq!(fast.counters(), slow.counters());
            let names = fast_medium.list().unwrap();
            prop_assert_eq!(&names, &slow_medium.list().unwrap());
            for name in &names {
                prop_assert_eq!(fast_medium.read(name).unwrap(), slow_medium.read(name).unwrap());
            }
        }
    }

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
