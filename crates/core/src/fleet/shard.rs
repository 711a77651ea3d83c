//! One fleet shard: a [`FuzzingEngine`] plus the bookkeeping that ties it
//! to the hub — a pull cursor, the clock offset carried over a resume,
//! and an [`EventBus`] handle for telemetry.
//!
//! Shard slices run on worker threads. Everything that writes the hub
//! (applying a [`ShardUpdate`]) runs on the orchestrator thread,
//! sequentially in shard order. What only reads it
//! ([`pull`](Shard::pull), [`restore_from_hub`](Shard::restore_from_hub))
//! runs on the worker threads again once the hub is complete for the
//! round: each reads the hub and changes only its own shard. Together
//! that makes a whole fleet campaign deterministic for a fixed seed.

use super::events::{EventBus, FleetEvent};
use super::hub::CorpusHub;
use crate::engine::FuzzingEngine;
use crate::relation::RelationGraph;
use crate::supervisor::FaultCounters;
use droidfuzz_analysis::LintCounters;
use simkernel::coverage::Block;

/// One shard's batched round traffic: everything the shard wants the hub
/// to see, assembled on the worker thread at the end of a slice
/// ([`Shard::prepare_update`]) and applied on the orchestrator thread in
/// shard-id order ([`CorpusHub::apply_update`]). Deltas, not dumps: only
/// seeds admitted, blocks first observed, and (when dirty) the relation
/// graph since the shard's last update.
#[derive(Debug)]
pub struct ShardUpdate {
    /// Publishing shard.
    pub shard: usize,
    /// Seeds admitted since the last update, in corpus interchange text.
    pub corpus_delta: String,
    /// Kernel blocks first observed since the last update.
    pub new_blocks: Vec<Block>,
    /// The shard's relation graph, cloned only when its revision moved
    /// since the last update.
    pub relations: Option<RelationGraph>,
}

/// A fleet shard.
#[derive(Debug)]
pub struct Shard {
    /// Shard index (also the engine's seed lane).
    pub id: usize,
    engine: FuzzingEngine,
    /// Hub pull cursor: seeds with `seq >= cursor` are news to us.
    cursor: u64,
    bus: EventBus,
    /// Fleet virtual time that elapsed before this engine booted: the
    /// resume offset, plus any slices this shard skipped (restart after a
    /// lost device, quarantine rounds).
    clock_offset_us: u64,
    /// Executions retired with previous engines (lost-device restarts).
    retired_executions: u64,
    /// Fault counters retired with previous engines.
    retired_faults: FaultCounters,
    /// Lint-gate counters retired with previous engines.
    retired_lint: LintCounters,
    /// Lost-device restarts performed on this shard.
    restarts: u32,
    /// Device losses since the shard last completed a healthy slice.
    consecutive_losses: u32,
    /// Times the shard has been quarantined for flapping.
    quarantines: u32,
    /// First round the shard may run again after a quarantine.
    quarantined_until: usize,
    /// Corpus admission sequence already covered by a published update.
    corpus_pub_seq: u64,
    /// Coverage-log length already covered by a published update.
    blocks_pub: usize,
    /// Relation-graph revision already covered by a published update.
    relations_pub_rev: u64,
}

impl Shard {
    /// Wraps a freshly booted engine.
    pub fn new(id: usize, engine: FuzzingEngine, bus: EventBus, clock_offset_us: u64) -> Self {
        Self {
            id,
            engine,
            cursor: 0,
            bus,
            clock_offset_us,
            retired_executions: 0,
            retired_faults: FaultCounters::default(),
            retired_lint: LintCounters::default(),
            restarts: 0,
            consecutive_losses: 0,
            quarantines: 0,
            quarantined_until: 0,
            corpus_pub_seq: 0,
            blocks_pub: 0,
            relations_pub_rev: 0,
        }
    }

    /// Primes the shard from the hub at campaign start: imports the whole
    /// hub corpus, merges the hub relation graph, and fast-forwards the
    /// pull cursor past everything just taken. Emits `ShardStarted`.
    /// Returns the number of seeds restored.
    pub fn restore_from_hub(&mut self, hub: &CorpusHub) -> usize {
        let (text, cursor, _) = hub.pull_corpus(self.id, self.cursor);
        self.apply_restore(&text, cursor, hub.relations())
    }

    /// The hub-delivery half of [`restore_from_hub`](Self::restore_from_hub)
    /// and [`restore_all_from_hub`](Self::restore_all_from_hub), split out
    /// so a remote worker can apply a hub's answer received over the wire
    /// with byte-identical effect: imports `text` unconditionally,
    /// advances the pull cursor to `cursor`, merges `graph` when present,
    /// and emits `ShardStarted`. Returns the seeds restored.
    pub fn apply_restore(
        &mut self,
        text: &str,
        cursor: u64,
        graph: Option<&RelationGraph>,
    ) -> usize {
        let (accepted, _) = self.engine.import_corpus(text);
        self.cursor = cursor;
        if let Some(graph) = graph {
            self.engine.merge_relations(graph);
        }
        self.mark_published();
        self.bus.emit(FleetEvent::ShardStarted { shard: self.id, restored_seeds: accepted });
        accepted
    }

    /// Runs the engine until the shard's position on the *fleet* clock
    /// reaches `global_target_us` (the shard subtracts its own offset),
    /// then emits a heartbeat. Safe to call from a worker thread; the
    /// shard owns everything it touches.
    pub fn run_slice(&mut self, global_target_us: u64, round: usize) {
        let local_target_us = global_target_us.saturating_sub(self.clock_offset_us);
        self.engine.run_until(local_target_us);
        self.bus.emit(FleetEvent::Heartbeat {
            shard: self.id,
            round,
            clock_us: self.global_clock_us(),
            executions: self.total_executions(),
            corpus_len: self.engine.corpus().len(),
            coverage: self.engine.kernel_coverage(),
            crashes: self.engine.crash_db().len(),
        });
    }

    /// Re-primes the shard with the *entire* hub corpus — including the
    /// seeds this shard itself published before losing its device, which
    /// an ordinary [`pull`](Self::pull) would skip as own-origin — plus
    /// the hub relation graph. This is the lost-device restart path: the
    /// replacement engine inherits everything the fleet knows. Emits
    /// `ShardStarted`; returns the seeds restored.
    pub fn restore_all_from_hub(&mut self, hub: &CorpusHub) -> usize {
        self.apply_restore(&hub.corpus_text(), hub.tip(), hub.relations())
    }

    /// Skips a quarantined slice: the shard does not run, but its clock
    /// offset absorbs the slice so it rejoins the fleet clock without a
    /// giant catch-up slice afterwards.
    pub fn skip_slice(&mut self, slice_us: u64) {
        self.clock_offset_us += slice_us;
    }

    /// Retires the current (lost-device) engine into the shard's
    /// accumulators and installs a replacement booted at fleet time
    /// `clock_offset_us`. Follow with
    /// [`restore_all_from_hub`](Self::restore_all_from_hub) to re-prime
    /// the fresh engine with the whole hub corpus — nothing the old
    /// engine published is lost.
    pub fn replace_engine(&mut self, engine: FuzzingEngine, clock_offset_us: u64) {
        self.retired_executions += self.engine.executions();
        self.retired_faults.absorb(&self.engine.fault_counters());
        self.retired_lint.absorb(&self.engine.lint_counters());
        self.engine = engine;
        self.cursor = 0;
        self.corpus_pub_seq = 0;
        self.blocks_pub = 0;
        self.relations_pub_rev = 0;
        self.clock_offset_us = clock_offset_us;
        self.restarts += 1;
        self.consecutive_losses += 1;
    }

    /// Records a healthy (device survived) slice, resetting the flap
    /// streak that drives quarantine.
    pub fn note_healthy(&mut self) {
        self.consecutive_losses = 0;
    }

    /// Device losses since the last healthy slice.
    pub fn consecutive_losses(&self) -> u32 {
        self.consecutive_losses
    }

    /// Benches the shard until `round`: [`is_quarantined`] stays true for
    /// every earlier round. Bumps the quarantine count (which the fleet
    /// uses to double successive benchings).
    ///
    /// [`is_quarantined`]: Self::is_quarantined
    pub fn quarantine_until(&mut self, round: usize) {
        self.quarantined_until = self.quarantined_until.max(round);
        self.quarantines += 1;
    }

    /// Whether the shard sits out `round`.
    pub fn is_quarantined(&self, round: usize) -> bool {
        round < self.quarantined_until
    }

    /// Lost-device restarts performed on this shard.
    pub fn restarts(&self) -> u32 {
        self.restarts
    }

    /// Times this shard has been quarantined for flapping.
    pub fn quarantines(&self) -> u32 {
        self.quarantines
    }

    /// Executions across every engine this shard has owned (this run).
    pub fn total_executions(&self) -> u64 {
        self.retired_executions + self.engine.executions()
    }

    /// Fault counters across every engine this shard has owned.
    pub fn fault_totals(&self) -> FaultCounters {
        let mut totals = self.retired_faults;
        totals.absorb(&self.engine.fault_counters());
        totals
    }

    /// Lint-gate counters across every engine this shard has owned.
    pub fn lint_totals(&self) -> LintCounters {
        let mut totals = self.retired_lint;
        totals.absorb(&self.engine.lint_counters());
        totals
    }

    /// Assembles this shard's batched hub traffic since the last update
    /// (or hub import): the corpus delta by admission
    /// sequence, the newly observed kernel blocks, and — only when the
    /// graph's revision moved — a relation-graph clone. Runs on the worker
    /// thread at the end of a slice, so the orchestrator's sequential sync
    /// section only applies pre-built messages.
    pub fn prepare_update(&mut self) -> ShardUpdate {
        let corpus_delta = self.engine.export_corpus_since(self.corpus_pub_seq);
        self.corpus_pub_seq = self.engine.corpus_seq();
        let new_blocks = self.engine.observed_blocks_since(self.blocks_pub).to_vec();
        self.blocks_pub = self.engine.observed_blocks_len();
        let rev = self.engine.relation_graph().revision();
        let relations = if rev != self.relations_pub_rev {
            self.relations_pub_rev = rev;
            Some(self.engine.relation_graph().clone())
        } else {
            None
        };
        ShardUpdate { shard: self.id, corpus_delta, new_blocks, relations }
    }

    /// Fast-forwards the update cursors to the engine's current state —
    /// after a hub import, nothing current is pending.
    fn mark_published(&mut self) {
        self.corpus_pub_seq = self.engine.corpus_seq();
        self.blocks_pub = self.engine.observed_blocks_len();
        self.relations_pub_rev = self.engine.relation_graph().revision();
    }

    /// Pulls peers' seeds published since the last pull and merges the
    /// hub relation graph. Returns seeds accepted into the engine corpus.
    pub fn pull(&mut self, hub: &CorpusHub) -> usize {
        let (text, cursor, delivered) = hub.pull_corpus(self.id, self.cursor);
        self.apply_pull(&text, cursor, delivered, hub.relations())
    }

    /// The delivery half of [`pull`](Self::pull) for remote workers:
    /// applies a hub pull answer received over the wire. Unlike
    /// [`apply_restore`](Self::apply_restore), the corpus import is
    /// gated on `delivered > 0` — exactly mirroring the local path, so
    /// distributed and local campaigns stay bit-identical.
    pub fn apply_pull(
        &mut self,
        text: &str,
        cursor: u64,
        delivered: usize,
        graph: Option<&RelationGraph>,
    ) -> usize {
        self.cursor = cursor;
        let mut accepted = 0;
        if delivered > 0 {
            accepted = self.engine.import_corpus(text).0;
        }
        if let Some(graph) = graph {
            self.engine.merge_relations(graph);
        }
        // Everything just imported came *from* the hub; pushing it back
        // next round would be pure dedup traffic.
        self.mark_published();
        accepted
    }

    /// Emits the final `ShardFinished` event.
    pub fn finish(&self) {
        self.bus.emit(FleetEvent::ShardFinished {
            shard: self.id,
            clock_us: self.global_clock_us(),
            executions: self.total_executions(),
            coverage: self.engine.kernel_coverage(),
            crashes: self.engine.crash_db().len(),
            faults: self.fault_totals(),
            lint: self.lint_totals(),
            restarts: self.restarts,
        });
    }

    /// The shard's position on the fleet clock (offset + engine local).
    pub fn global_clock_us(&self) -> u64 {
        self.clock_offset_us + self.engine.virtual_time_us()
    }

    /// Fleet time at which the current engine booted (resume offset plus
    /// skipped/restarted slices).
    pub fn clock_offset_us(&self) -> u64 {
        self.clock_offset_us
    }

    /// The shard's hub pull cursor (seeds with `seq >= cursor` are news).
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &FuzzingEngine {
        &self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FuzzerConfig;
    use simdevice::catalog;

    #[test]
    fn publish_then_pull_moves_seeds_between_shards() {
        let (bus, _rx) = EventBus::new();
        let spec = catalog::device_a1();
        let mut a = Shard::new(
            0,
            FuzzingEngine::new(spec.clone().boot(), FuzzerConfig::droidfuzz(1)),
            bus.clone(),
            0,
        );
        let mut b = Shard::new(
            1,
            FuzzingEngine::new(spec.clone().boot(), FuzzerConfig::droidfuzz(2)),
            bus.clone(),
            0,
        );
        let mut hub = CorpusHub::new(512);
        a.run_slice(0, 0); // no-op slice, just exercises the heartbeat path
        a.engine.run_iterations(150);
        assert!(!a.engine().corpus().is_empty());
        let published = hub.apply_update(&a.prepare_update());
        assert!(published > 0);
        let before = b.engine().corpus().len();
        let pulled = b.pull(&hub);
        assert!(pulled > 0, "peer seeds should import cleanly");
        assert_eq!(b.engine().corpus().len(), before + pulled);
        // A second pull with nothing new delivers nothing.
        assert_eq!(b.pull(&hub), 0);
        // The publisher never pulls its own seeds back.
        assert_eq!(a.pull(&hub), 0);
    }

    #[test]
    fn replace_engine_retires_counters_and_reprimes_from_hub() {
        let (bus, _rx) = EventBus::new();
        let spec = catalog::device_a1();
        let mut shard = Shard::new(
            0,
            FuzzingEngine::new(spec.clone().boot(), FuzzerConfig::droidfuzz(5)),
            bus.clone(),
            0,
        );
        shard.engine.run_iterations(150);
        let execs = shard.engine().executions();
        assert!(execs > 0);
        let mut hub = CorpusHub::new(512);
        assert!(hub.apply_update(&shard.prepare_update()) > 0);
        let replacement = FuzzingEngine::new(spec.clone().boot(), FuzzerConfig::droidfuzz(7));
        shard.replace_engine(replacement, 5_000_000);
        assert_eq!(shard.restarts(), 1);
        assert_eq!(shard.consecutive_losses(), 1);
        assert_eq!(shard.total_executions(), execs, "retired executions survive the swap");
        assert_eq!(shard.engine().executions(), 0);
        assert_eq!(shard.global_clock_us(), 5_000_000);
        // The fresh engine re-primes with everything the old one
        // published — including its own seeds, which a plain pull skips.
        assert_eq!(shard.pull(&hub), 0, "a pull cannot recover own-origin seeds");
        assert!(shard.restore_all_from_hub(&hub) > 0, "hub seeds flow back into the replacement");
        shard.note_healthy();
        assert_eq!(shard.consecutive_losses(), 0);
    }

    #[test]
    fn quarantine_benches_exact_rounds_and_skip_slices_keep_the_clock() {
        let (bus, _rx) = EventBus::new();
        let spec = catalog::device_a1();
        let mut shard = Shard::new(
            0,
            FuzzingEngine::new(spec.boot(), FuzzerConfig::droidfuzz(9)),
            bus.clone(),
            0,
        );
        assert!(!shard.is_quarantined(0));
        shard.quarantine_until(3);
        assert_eq!(shard.quarantines(), 1);
        assert!(shard.is_quarantined(2));
        assert!(!shard.is_quarantined(3));
        shard.skip_slice(1_000);
        shard.skip_slice(2_000);
        assert_eq!(shard.clock_offset_us(), 3_000);
        assert_eq!(shard.global_clock_us(), 3_000, "skipped time counts on the fleet clock");
    }

    #[test]
    fn relations_propagate_through_the_hub() {
        let (bus, _rx) = EventBus::new();
        let spec = catalog::device_a1();
        let mut a = Shard::new(
            0,
            FuzzingEngine::new(spec.clone().boot(), FuzzerConfig::droidfuzz(3)),
            bus.clone(),
            0,
        );
        let mut b = Shard::new(
            1,
            FuzzingEngine::new(spec.clone().boot(), FuzzerConfig::droidfuzz(4)),
            bus.clone(),
            0,
        );
        a.engine.run_iterations(400);
        assert!(a.engine().relation_graph().edge_count() > 0);
        let mut hub = CorpusHub::new(512);
        hub.apply_update(&a.prepare_update());
        let before = b.engine().relation_graph().edge_count();
        b.pull(&hub);
        assert!(
            b.engine().relation_graph().edge_count() >= before,
            "merging the hub graph never loses edges"
        );
        assert!(b.engine().relation_graph().edge_count() > 0);
    }
}
