//! The corpus hub: the fleet's shared persistent data (§IV-A scaled to
//! many engines). Shards publish seeds that earned new signals and pull
//! their peers' seeds through the same text format the daemon uses on
//! disk, so hub traffic is exactly the corpus interchange format.
//!
//! The hub also owns the fleet-merged relation graph, the deduplicated
//! fleet crash database, and the union coverage series — everything the
//! snapshot serializes.

use crate::corpus::{push_program_lines, push_seed_header};
use crate::crashes::{CrashDb, CrashRecord};
use crate::relation::RelationGraph;
use crate::stats::Series;
use simkernel::coverage::{Block, CoverageMap};
use std::collections::BTreeSet;

/// Origin id used for seeds restored from a snapshot (no shard published
/// them in this process, so every shard may pull them).
pub const HUB_ORIGIN: usize = usize::MAX;

/// One published seed, stored in interchange-text form so the hub needs
/// no description table of its own.
#[derive(Debug, Clone)]
pub struct HubSeed {
    /// The program lines (`r<n> = call(...)`), newline-terminated.
    pub body: String,
    /// The admission score the publishing shard reported.
    pub signals: usize,
    /// Monotonic publication number; pull cursors compare against it.
    pub seq: u64,
    /// Publishing shard (or [`HUB_ORIGIN`] for snapshot restores) — a
    /// shard never pulls its own seeds back.
    pub origin: usize,
}

/// Appends one hub seed as record `index` of a corpus interchange text.
fn push_hub_seed(text: &mut String, index: usize, seed: &HubSeed) {
    push_seed_header(text, index, seed.signals);
    text.push_str(&seed.body);
    text.push('\n');
}

/// The fleet corpus hub.
#[derive(Debug)]
pub struct CorpusHub {
    capacity: usize,
    /// Live seeds, ascending `seq`.
    live: Vec<HubSeed>,
    /// Bodies ever accepted — evicted seeds stay here so low-value seeds
    /// cannot churn back in from a peer's republish.
    seen: BTreeSet<String>,
    next_seq: u64,
    accepted_total: usize,
    graph: Option<RelationGraph>,
    /// Crashes restored from a snapshot; per-round rebuilds start here.
    baseline_crashes: CrashDb,
    crashes: CrashDb,
    coverage: CoverageMap,
    series: Series,
}

impl CorpusHub {
    /// Creates an empty hub holding at most `capacity` live seeds.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            live: Vec::new(),
            seen: BTreeSet::new(),
            next_seq: 0,
            accepted_total: 0,
            graph: None,
            baseline_crashes: CrashDb::new(),
            crashes: CrashDb::new(),
            coverage: CoverageMap::new(),
            series: Series::new(),
        }
    }

    /// Publishes a shard's corpus dump (the
    /// [`Corpus::export`](crate::corpus::Corpus::export) text
    /// format). Seeds are deduplicated by program body; a body seen
    /// before — even one since evicted — is not re-accepted, and a live
    /// duplicate keeps the larger signal score. Returns newly accepted
    /// seeds.
    pub fn publish_corpus(&mut self, origin: usize, corpus_text: &str) -> usize {
        let mut accepted = 0;
        for chunk in corpus_text.split("# seed ") {
            if chunk.trim().is_empty() {
                continue;
            }
            let mut body = String::with_capacity(chunk.len());
            push_program_lines(&mut body, chunk);
            if body.is_empty() {
                continue;
            }
            let signals = chunk
                .lines()
                .next()
                .and_then(|header| header.split("signals=").nth(1))
                .and_then(|v| v.trim().parse::<usize>().ok())
                .unwrap_or(1);
            if self.seen.contains(&body) {
                if let Some(live) = self.live.iter_mut().find(|s| s.body == body) {
                    live.signals = live.signals.max(signals);
                }
                continue;
            }
            self.seen.insert(body.clone());
            let seq = self.next_seq;
            self.next_seq += 1;
            self.live.push(HubSeed { body, signals, seq, origin });
            self.accepted_total += 1;
            accepted += 1;
            while self.live.len() > self.capacity {
                // Never evict the seed just pushed (last slot): a full hub
                // must still rotate, not bounce every newcomer.
                let victim = self
                    .live
                    .iter()
                    .take(self.live.len() - 1)
                    .enumerate()
                    .min_by_key(|(_, s)| (s.signals, s.seq))
                    .map(|(i, _)| i)
                    .expect("non-empty");
                self.live.remove(victim);
            }
        }
        accepted
    }

    /// Renders the live seeds published after `cursor` by shards other
    /// than `origin`, in interchange-text form. Returns
    /// `(text, new cursor, seed count)`; feeding the cursor back on the
    /// next pull makes deliveries incremental.
    pub fn pull_corpus(&self, origin: usize, cursor: u64) -> (String, u64, usize) {
        let mut text = String::new();
        let mut count = 0;
        for seed in self.seeds_since(cursor).filter(|s| s.origin != origin) {
            push_hub_seed(&mut text, count, seed);
            count += 1;
        }
        (text, self.next_seq, count)
    }

    /// Every live seed in interchange-text form (snapshot body).
    pub fn corpus_text(&self) -> String {
        let mut text = String::new();
        for (i, seed) in self.live.iter().enumerate() {
            push_hub_seed(&mut text, i, seed);
        }
        text
    }

    /// Live seed count.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether the hub holds no live seed.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Seeds accepted over the hub's lifetime (including evicted ones).
    pub fn accepted_total(&self) -> usize {
        self.accepted_total
    }

    /// The pull cursor pointing past every current seed.
    pub fn tip(&self) -> u64 {
        self.next_seq
    }

    /// Live seeds published at or after `cursor`, ascending `seq` — the
    /// journal writer mirrors these to disk and advances its cursor to
    /// [`tip`](Self::tip).
    pub fn seeds_since(&self, cursor: u64) -> impl Iterator<Item = &HubSeed> {
        self.live.iter().filter(move |s| s.seq >= cursor)
    }

    /// Applies one shard's batched round update ([`ShardUpdate`]): corpus
    /// delta, relation graph (when the shard's changed), and new coverage
    /// blocks, in one call. The orchestrator applies updates in shard-id
    /// order, which is what keeps a parallel fleet deterministic.
    ///
    /// Returns the seeds newly accepted from the delta.
    ///
    /// [`ShardUpdate`]: super::shard::ShardUpdate
    pub fn apply_update(&mut self, update: &super::shard::ShardUpdate) -> usize {
        let accepted = self.publish_corpus(update.shard, &update.corpus_delta);
        if let Some(graph) = &update.relations {
            self.publish_relations(graph);
        }
        self.publish_coverage(update.new_blocks.iter().copied());
        accepted
    }

    /// Merges a shard's relation graph into the fleet graph (Eq. 1
    /// normalization preserved by [`RelationGraph::merge_from`]).
    pub fn publish_relations(&mut self, peer: &RelationGraph) {
        match &mut self.graph {
            Some(graph) => graph.merge_from(peer),
            None => self.graph = Some(peer.clone()),
        }
    }

    /// The fleet-merged relation graph, once any shard has published.
    pub fn relations(&self) -> Option<&RelationGraph> {
        self.graph.as_ref()
    }

    /// Installs a restored relation graph (snapshot resume).
    pub fn set_relations(&mut self, graph: RelationGraph) {
        self.graph = Some(graph);
    }

    /// Rebuilds the fleet crash database for the current round: snapshot
    /// baseline plus every shard's current records. Rebuilt from scratch
    /// each round so republishing a shard's full database never double
    /// counts.
    pub fn sync_crashes<'a>(&mut self, shard_dbs: impl IntoIterator<Item = &'a CrashDb>) {
        let mut db = self.baseline_crashes.clone();
        for shard_db in shard_dbs {
            for record in shard_db.records() {
                db.merge_record(record);
            }
        }
        self.crashes = db;
    }

    /// The fleet crash database as of the last [`sync_crashes`].
    ///
    /// [`sync_crashes`]: Self::sync_crashes
    pub fn crashes(&self) -> &CrashDb {
        &self.crashes
    }

    /// Seeds the crash baseline from snapshot records (resume).
    pub fn set_baseline_crashes(&mut self, records: &[CrashRecord]) {
        let mut db = CrashDb::new();
        for record in records {
            db.merge_record(record);
        }
        self.crashes = db.clone();
        self.baseline_crashes = db;
    }

    /// Folds shard-observed kernel blocks into the fleet union coverage.
    pub fn publish_coverage(&mut self, blocks: impl IntoIterator<Item = Block>) {
        self.coverage.extend(blocks);
    }

    /// Distinct kernel blocks observed fleet-wide.
    pub fn union_coverage(&self) -> usize {
        self.coverage.len()
    }

    /// The union coverage blocks, sorted (snapshot body).
    pub fn coverage_blocks(&self) -> Vec<Block> {
        // The paged-bitmap map iterates in ascending order already.
        self.coverage.iter().collect()
    }

    /// Appends a `(fleet clock, union coverage)` sample to the series.
    pub fn record_sample(&mut self, clock_us: u64) {
        self.series.push(clock_us, self.coverage.len() as f64);
    }

    /// The union-coverage-over-time series.
    pub fn series(&self) -> &Series {
        &self.series
    }

    /// Restores series points from a snapshot (resume). Points come from
    /// external text, so out-of-order timestamps are dropped rather than
    /// asserted on; returns how many points were rejected.
    pub fn restore_series(&mut self, points: &[(u64, f64)]) -> usize {
        let mut rejected = 0;
        for &(t, v) in points {
            if !self.series.push_monotonic(t, v) {
                rejected += 1;
            }
        }
        rejected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Corpus;
    use fuzzlang::desc::{CallDesc, DescTable};

    fn table() -> DescTable {
        let mut t = DescTable::new();
        t.add(CallDesc::syscall_open("/dev/x"));
        t.add(CallDesc::syscall_open("/dev/y"));
        t
    }

    fn seed_text(dev: &str, signals: usize) -> String {
        format!("# seed 0 signals={signals}\nr0 = openat${dev}()\n\n")
    }

    #[test]
    fn publish_deduplicates_by_body() {
        let mut hub = CorpusHub::new(16);
        assert_eq!(hub.publish_corpus(0, &seed_text("/dev/x", 5)), 1);
        assert_eq!(hub.publish_corpus(1, &seed_text("/dev/x", 9)), 0, "same body, no new seed");
        assert_eq!(hub.publish_corpus(1, &seed_text("/dev/y", 2)), 1);
        assert_eq!(hub.len(), 2);
        assert_eq!(hub.accepted_total(), 2);
    }

    #[test]
    fn pull_is_incremental_and_skips_own_seeds() {
        let mut hub = CorpusHub::new(16);
        hub.publish_corpus(0, &seed_text("/dev/x", 5));
        hub.publish_corpus(1, &seed_text("/dev/y", 3));
        // Shard 0 sees only shard 1's seed.
        let (text, cursor, n) = hub.pull_corpus(0, 0);
        assert_eq!(n, 1);
        assert!(text.contains("/dev/y") && !text.contains("/dev/x"));
        // Nothing new after the cursor advances.
        let (_, _, n2) = hub.pull_corpus(0, cursor);
        assert_eq!(n2, 0);
        // Snapshot-restored seeds are pulled by everyone.
        let mut hub2 = CorpusHub::new(16);
        hub2.publish_corpus(HUB_ORIGIN, &seed_text("/dev/x", 5));
        assert_eq!(hub2.pull_corpus(0, 0).2, 1);
    }

    #[test]
    fn pulled_text_reimports_into_a_corpus() {
        let mut hub = CorpusHub::new(16);
        hub.publish_corpus(0, &seed_text("/dev/x", 5));
        let (text, _, _) = hub.pull_corpus(1, 0);
        let t = table();
        let mut corpus = Corpus::new();
        assert_eq!(corpus.import(&text, &t), (1, 0));
    }

    #[test]
    fn eviction_bounds_live_seeds_and_blocks_churn() {
        let mut hub = CorpusHub::new(2);
        hub.publish_corpus(0, &seed_text("/dev/a", 1));
        hub.publish_corpus(0, &seed_text("/dev/b", 9));
        hub.publish_corpus(0, &seed_text("/dev/c", 5));
        assert_eq!(hub.len(), 2, "capacity enforced");
        let text = hub.corpus_text();
        assert!(!text.contains("/dev/a"), "lowest-signal seed evicted");
        assert!(text.contains("/dev/c"), "the just-published seed survives");
        // The evicted body cannot churn back in.
        assert_eq!(hub.publish_corpus(1, &seed_text("/dev/a", 1)), 0);
    }

    #[test]
    fn crash_sync_rebuilds_without_double_counting() {
        use simkernel::report::{BugKind, BugReport, Component};
        let mut shard_db = CrashDb::new();
        shard_db.record(
            &BugReport::with_title(BugKind::Warning, "WARNING in foo", Component::KernelDriver),
            10,
        );
        let mut hub = CorpusHub::new(4);
        hub.sync_crashes([&shard_db]);
        hub.sync_crashes([&shard_db]); // republish of the same database
        assert_eq!(hub.crashes().len(), 1);
        assert_eq!(hub.crashes().records()[0].count, 1, "rebuild, not accumulate");
    }

    #[test]
    fn restore_series_drops_backwards_points() {
        let mut hub = CorpusHub::new(4);
        assert_eq!(hub.restore_series(&[(100, 1.0), (50, 9.0), (200, 2.0)]), 1);
        assert_eq!(hub.series().points(), &[(100, 1.0), (200, 2.0)]);
    }

    #[test]
    fn coverage_union_and_series() {
        let mut hub = CorpusHub::new(4);
        hub.publish_coverage([Block(1), Block(2)]);
        hub.publish_coverage([Block(2), Block(3)]);
        assert_eq!(hub.union_coverage(), 3);
        hub.record_sample(100);
        assert_eq!(hub.series().points(), &[(100, 3.0)]);
        assert_eq!(hub.coverage_blocks(), vec![Block(1), Block(2), Block(3)]);
    }
}
