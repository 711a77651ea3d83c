//! The fleet's round loop, shared by the local [`Fleet`], the hub server
//! and the worker runtime: the [`Schedule`] of sync rounds, the
//! [`ShardRound`] (boot, slice and self-heal on a worker pool) and the
//! [`HubRound`] (apply, crash sync, persist sink, checkpoint cadence).
//! Each caller adds only its own glue: the hub in process, sessions and
//! barriers, or a link's push, pull and round report.
//!
//! [`Fleet`]: super::Fleet

use std::ops::Range;
use std::sync::mpsc::Receiver;
use std::thread;

use fuzzlang::desc::DescTable;
use simdevice::firmware::FirmwareSpec;

use super::{
    CorpusHub, EventBus, FleetConfig, FleetEvent, FleetPersist, FleetSnapshot, FleetStats, Shard,
    ShardUpdate,
};
use crate::config::FuzzerConfig;
use crate::crashes::CrashDb;
use crate::engine::{FuzzingEngine, HOUR_US};
use crate::net::NetCounters;
use crate::relation::RelationGraph;
use crate::store::StoreCounters;
use crate::supervisor::FaultCounters;
use droidfuzz_analysis::LintCounters;

/// The campaign's sync rounds on the fleet clock, in µs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Schedule {
    pub total_us: u64,
    /// At least 1.
    pub interval_us: u64,
    /// At least 1.
    pub total_rounds: usize,
    /// The resume round, clamped to `total_rounds`.
    pub start_round: usize,
    /// The resume clock, clamped to `total_us`.
    pub clock_offset_us: u64,
}

impl Schedule {
    /// An `hours`-long campaign syncing every `sync_interval_hours`,
    /// (re)starting at `(round, fleet clock)` — `(0, 0)` when fresh.
    pub fn new(hours: f64, sync_interval_hours: f64, (round, clock_us): (usize, u64)) -> Self {
        let total_us = (hours * HOUR_US as f64) as u64;
        let interval_us = ((sync_interval_hours * HOUR_US as f64) as u64).max(1);
        let total_rounds = (total_us.div_ceil(interval_us) as usize).max(1);
        let (start_round, clock_offset_us) = (round.min(total_rounds), clock_us.min(total_us));
        Self { total_us, interval_us, total_rounds, start_round, clock_offset_us }
    }

    /// The rounds this run executes.
    pub fn rounds(&self) -> Range<usize> {
        self.start_round..self.total_rounds
    }

    /// Fleet time at the end of `round`.
    pub fn global_target(&self, round: usize) -> u64 {
        (self.interval_us * (round as u64 + 1)).min(self.total_us)
    }

    /// Fleet time `round` fuzzes: from the previous round's target (or
    /// the resume clock) to its own.
    pub fn slice_us(&self, round: usize) -> u64 {
        let start = if round == self.start_round {
            self.clock_offset_us
        } else {
            self.global_target(round - 1)
        };
        self.global_target(round).saturating_sub(start)
    }
}

/// Runs `work` on every item, split into contiguous chunks of
/// `chunk_len` with one scoped worker thread per chunk, and returns the
/// results in item order whichever worker finishes first.
pub(crate) fn on_workers<T: Send, R: Send>(
    items: &mut [T],
    chunk_len: usize,
    work: impl Fn(&mut T) -> R + Sync,
) -> Vec<R> {
    let work = &work;
    thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks_mut(chunk_len)
            .map(|chunk| scope.spawn(move || chunk.iter_mut().map(work).collect::<Vec<_>>()))
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("fleet worker")).collect()
    })
}

/// Shards on a worker pool, by ascending global id, and the bus they
/// report on. Every pooled phase (boot, restore, slice, pull) splits them
/// into the same contiguous chunks.
pub(crate) struct ShardRound<'a> {
    spec: &'a FirmwareSpec,
    make_config: &'a (dyn Fn(u64) -> FuzzerConfig + Sync),
    flap_limit: u32,
    schedule: Schedule,
    pub bus: EventBus,
    rx: Receiver<FleetEvent>,
    /// Worker threads per pooled phase.
    pub workers: usize,
    chunk_len: usize,
    pub shards: Vec<Shard>,
}

impl<'a> ShardRound<'a> {
    /// Boots global shards `ids` at the start of `schedule`, shard `g`
    /// with `make_config(g + 1)`. `threads: 0` is one worker per shard;
    /// anything else is clamped to the shard count.
    pub fn boot(
        spec: &'a FirmwareSpec,
        make_config: &'a (dyn Fn(u64) -> FuzzerConfig + Sync),
        ids: Range<usize>,
        threads: usize,
        flap_limit: u32,
        schedule: Schedule,
    ) -> Self {
        let (bus, rx) = EventBus::new();
        let workers = if threads == 0 { ids.len() } else { threads.clamp(1, ids.len()) };
        let chunk_len = ids.len().div_ceil(workers);
        let mut ids: Vec<usize> = ids.collect();
        let engines = on_workers(&mut ids, chunk_len, |&mut g| {
            FuzzingEngine::new(spec.clone().boot(), make_config(g as u64 + 1))
        });
        let shards = ids
            .into_iter()
            .zip(engines)
            .map(|(g, engine)| Shard::new(g, engine, bus.clone(), schedule.clock_offset_us))
            .collect();
        Self { spec, make_config, flap_limit, schedule, bus, rx, workers, chunk_len, shards }
    }

    /// Runs `work` on every shard on the pool; results in shard order.
    pub fn each<R: Send>(&mut self, work: impl Fn(&mut Shard) -> R + Sync) -> Vec<R> {
        on_workers(&mut self.shards, self.chunk_len, work)
    }

    /// Runs `work` on every shard with its input (`inputs[i]` goes with
    /// the `i`-th shard) on the pool; results in shard order.
    pub fn each_with<A: Send, R: Send>(
        &mut self,
        inputs: &mut [A],
        work: impl Fn(&mut Shard, &mut A) -> R + Sync,
    ) -> Vec<R> {
        assert_eq!(inputs.len(), self.shards.len(), "one input per shard");
        let mut pairs: Vec<(&mut Shard, &mut A)> = self.shards.iter_mut().zip(inputs).collect();
        on_workers(&mut pairs, self.chunk_len, |(shard, input)| work(shard, input))
    }

    /// Announces shards that start without a hub restore (unsynced
    /// repeats keep their corpora private).
    pub fn announce(&self) {
        for shard in &self.shards {
            self.bus.emit(FleetEvent::ShardStarted { shard: shard.id, restored_seeds: 0 });
        }
    }

    /// Fuzzes `round`'s slice on the pool, each shard ending with its
    /// batched hub update. Quarantined shards sit the slice out (their
    /// clock offset absorbs it) but still report an update.
    pub fn slice(&mut self, round: usize) -> Vec<ShardUpdate> {
        let (target, slice_us) =
            (self.schedule.global_target(round), self.schedule.slice_us(round));
        self.each(|shard| {
            if shard.is_quarantined(round) {
                shard.skip_slice(slice_us);
            } else {
                shard.run_slice(target, round);
            }
            shard.prepare_update()
        })
    }

    /// Self-heal after `round`'s sync, in shard order: a shard whose
    /// device is permanently lost restarts with a fresh engine seeded from
    /// `(shard, restarts)`, and `restore` re-primes it with the whole hub
    /// corpus (everything it knew was published this round). A flapping
    /// shard is then benched for an exponentially growing window.
    pub fn heal<E>(
        &mut self,
        round: usize,
        mut restore: impl FnMut(&mut Shard) -> Result<(), E>,
    ) -> Result<(), E> {
        for shard in &mut self.shards {
            if shard.is_quarantined(round) {
                continue;
            }
            if !shard.engine().device_lost() {
                shard.note_healthy();
                continue;
            }
            let restarts = u64::from(shard.restarts()) + 1;
            let config = (self.make_config)(shard.id as u64 + 1 + restarts * 1009);
            shard.replace_engine(
                FuzzingEngine::new(self.spec.clone().boot(), config),
                self.schedule.global_target(round),
            );
            let (id, restarts) = (shard.id, shard.restarts());
            self.bus.emit(FleetEvent::ShardRestarted { shard: id, round, restarts });
            restore(shard)?;
            if shard.consecutive_losses() >= self.flap_limit.max(1) {
                let until_round = round + 1 + (1usize << shard.quarantines().min(8));
                shard.quarantine_until(until_round);
                self.bus.emit(FleetEvent::ShardQuarantined { shard: id, round, until_round });
            }
        }
        Ok(())
    }

    /// Emits every shard's `ShardFinished` and drains the bus into stats
    /// for a fleet of `fleet_shards` shards.
    pub fn finish(&self, fleet_shards: usize) -> FleetStats {
        for shard in &self.shards {
            shard.finish();
        }
        FleetStats::drain(&self.rx, fleet_shards)
    }
}

/// Campaign-wide fault and lint-gate counters.
pub(crate) type Totals = (FaultCounters, LintCounters);

/// The hub's side of every round: the authoritative hub, the persist
/// sink and the checkpoint cadence, with the resume snapshot (borrowed
/// for `'r`) as the baseline of every campaign-wide counter.
pub(crate) struct HubRound<'r, 'p> {
    pub hub: CorpusHub,
    schedule: Schedule,
    kill_after_rounds: Option<usize>,
    checkpoint_interval: usize,
    resume: Option<&'r FleetSnapshot>,
    persist: Option<&'r mut (dyn FleetPersist + 'p)>,
    /// Rounds this run that skipped the snapshot.
    pub snapshots_skipped: u64,
    snapshot_text: Option<String>,
    /// Rounds completed over the campaign, resume included.
    pub rounds_completed: usize,
    pub clock_us: u64,
    killed: bool,
}

impl<'r, 'p> HubRound<'r, 'p> {
    /// A hub with `cfg`'s capacity and cadence, restored from `resume`
    /// (the relation graph rebuilt against `table`) and handed to the
    /// persist sink's `on_start`.
    pub fn new(
        cfg: &FleetConfig,
        schedule: Schedule,
        table: &DescTable,
        resume: Option<&'r FleetSnapshot>,
        mut persist: Option<&'r mut (dyn FleetPersist + 'p)>,
    ) -> Self {
        let mut hub = CorpusHub::new(cfg.hub_capacity);
        if let Some(snap) = resume {
            snap.restore_into(&mut hub);
            if !snap.relations_text.is_empty() {
                let mut graph = RelationGraph::new(table);
                graph.import(&snap.relations_text, table);
                hub.set_relations(graph);
            }
        }
        if let Some(sink) = persist.as_deref_mut() {
            sink.on_start(&hub, table);
        }
        Self {
            hub,
            schedule,
            kill_after_rounds: cfg.kill_after_rounds,
            checkpoint_interval: cfg.checkpoint_interval_rounds.max(1),
            resume,
            persist,
            snapshots_skipped: 0,
            snapshot_text: None,
            rounds_completed: schedule.start_round,
            clock_us: schedule.clock_offset_us,
            killed: false,
        }
    }

    /// Applies `round`'s updates in the order given (shard order), syncs
    /// the shards' crash databases and samples the union coverage.
    /// Returns seeds accepted.
    pub fn apply<'d>(
        &mut self,
        round: usize,
        updates: impl IntoIterator<Item = ShardUpdate>,
        crash_dbs: impl IntoIterator<Item = &'d CrashDb>,
    ) -> usize {
        let published = updates.into_iter().map(|update| self.hub.apply_update(&update)).sum();
        self.hub.sync_crashes(crash_dbs);
        self.hub.record_sample(self.schedule.global_target(round));
        published
    }

    /// `(is_kill, is_final)` for `round`. Pure, so a replayed round
    /// report gets the same answer.
    pub fn fate(&self, round: usize) -> (bool, bool) {
        let is_kill = self.kill_after_rounds == Some(round + 1 - self.schedule.start_round);
        (is_kill, is_kill || round + 1 == self.schedule.total_rounds)
    }

    /// The resume baseline plus every shard's counters.
    pub fn totals(&self, shards: impl IntoIterator<Item = Totals>) -> Totals {
        let mut totals =
            self.resume.map_or_else(Totals::default, |s| (s.fault_totals, s.lint_totals));
        for (faults, lint) in shards {
            totals.0.absorb(&faults);
            totals.1.absorb(&lint);
        }
        totals
    }

    /// The wire counters the campaign resumed with.
    pub fn baseline_net(&self) -> NetCounters {
        self.resume.map_or_else(NetCounters::default, |s| s.net_totals)
    }

    /// The resume baseline plus the persist sink's counters and this
    /// run's skipped snapshots.
    pub fn store_totals(&self) -> StoreCounters {
        let mut totals = self.resume.map_or_else(StoreCounters::default, |s| s.store_totals);
        if let Some(sink) = self.persist.as_deref() {
            totals.absorb(&sink.counters());
        }
        totals.snapshots_skipped += self.snapshots_skipped;
        totals
    }

    /// Closes `round`: hands it to the persist sink, then checkpoints.
    /// Rounds off the cadence skip the snapshot (the journal carries
    /// their deltas); the final round and a kill always checkpoint.
    /// Without a persist sink only the final (or kill) snapshot is ever
    /// read, so the cadence rounds before it build nothing and are not
    /// counted as skipped. The snapshot's net section carries
    /// `net_totals`. Returns whether the campaign goes on.
    pub fn finish(
        &mut self,
        round: usize,
        table: &DescTable,
        (faults, lint): Totals,
        net_totals: NetCounters,
    ) -> bool {
        self.rounds_completed = round + 1;
        self.clock_us = self.schedule.global_target(round);
        let (rounds, clock_us, baseline_net) =
            (self.rounds_completed, self.clock_us, self.baseline_net());
        if let Some(sink) = self.persist.as_deref_mut() {
            sink.on_round(&self.hub, table, rounds, clock_us, &faults, &lint, &baseline_net);
        }
        let (is_kill, is_final) = self.fate(round);
        let (rounds_this_run, checkpoint_interval) =
            (rounds - self.schedule.start_round, self.checkpoint_interval);
        if !is_final && !rounds_this_run.is_multiple_of(checkpoint_interval) {
            self.snapshots_skipped += 1;
        } else if is_final || self.persist.is_some() {
            let store = self.store_totals();
            let snap = FleetSnapshot::capture(
                &self.hub, table, rounds, clock_us, faults, lint, store, net_totals,
            );
            self.snapshot_text = Some(snap.to_text());
            if let Some(sink) = self.persist.as_deref_mut() {
                sink.on_checkpoint(&snap);
            }
        }
        self.killed = is_kill;
        !is_final
    }

    /// Whether the campaign ran its full length.
    pub fn finished(&self) -> bool {
        !self.killed && self.rounds_completed == self.schedule.total_rounds
    }

    /// The last checkpoint's text; a resume with no round left to run
    /// hands its snapshot back unchanged.
    pub fn snapshot_text(&mut self) -> String {
        self.snapshot_text
            .take()
            .unwrap_or_else(|| self.resume.map_or_else(String::new, FleetSnapshot::to_text))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_clamps_the_last_round_of_an_uneven_split() {
        // 0.25 h in 0.1 h rounds: 2.5 intervals round up to 3 rounds.
        let s = Schedule::new(0.25, 0.1, (0, 0));
        assert_eq!(s.total_us, 900_000_000);
        assert_eq!(s.interval_us, 360_000_000);
        assert_eq!(s.total_rounds, 3);
        assert_eq!(s.rounds(), 0..3);
        assert_eq!(s.global_target(0), 360_000_000);
        assert_eq!(s.global_target(1), 720_000_000);
        assert_eq!(s.global_target(2), s.total_us, "the last target clamps to the campaign");
        assert_eq!(s.slice_us(0), 360_000_000);
        assert_eq!(s.slice_us(2), 180_000_000, "the last slice is the remainder");
    }

    #[test]
    fn schedule_resumes_from_the_snapshot_clock_and_clamps_past_the_end() {
        let s = Schedule::new(0.25, 0.1, (1, 360_000_000));
        assert_eq!(s.rounds(), 1..3);
        assert_eq!(s.slice_us(1), 360_000_000);
        // A resume clock off the round grid still ends on the grid.
        let off_grid = Schedule::new(0.25, 0.1, (1, 400_000_000));
        assert_eq!(off_grid.slice_us(1), 320_000_000);
        // A snapshot from a longer campaign: clamped, zero rounds run.
        let past = Schedule::new(0.25, 0.1, (7, u64::MAX));
        assert_eq!(past.start_round, 3);
        assert_eq!(past.clock_offset_us, past.total_us);
        assert!(past.rounds().is_empty());
    }

    #[test]
    fn schedule_clamps_a_zero_interval_to_one_microsecond() {
        let s = Schedule::new(1e-9, 0.0, (0, 0));
        assert_eq!(s.interval_us, 1);
        assert_eq!(s.total_us, 3);
        assert_eq!(s.total_rounds, 3);
        assert_eq!((0..3).map(|r| s.slice_us(r)).collect::<Vec<_>>(), [1, 1, 1]);
        // Even an empty campaign runs one round.
        let empty = Schedule::new(0.0, 0.0, (0, 0));
        assert_eq!((empty.interval_us, empty.total_rounds), (1, 1));
        assert_eq!(empty.global_target(0), 0);
    }
}
