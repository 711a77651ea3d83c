//! Fleet orchestration: sharded multi-engine campaigns with corpus sync,
//! relation-graph sync, checkpoint/resume, and a metrics bus.
//!
//! The paper's daemon (§IV-A) coordinates one fuzzing engine per attached
//! device and owns their persistent data. This module scales that design
//! to a *fleet*: `n` shards (engine + device model) fuzz concurrently,
//! and between virtual-time slices the orchestrator runs a sync round
//! through the [`CorpusHub`] — shards publish seeds that earned new
//! signals, pull their peers' seeds, and merge relation graphs under the
//! Eq. 1 normalization. At every checkpoint
//! ([`FleetConfig::checkpoint_interval_rounds`], plus the final round and
//! any kill) the hub state is serialized to a [`FleetSnapshot`], so a
//! killed campaign resumes from its last checkpoint. An in-memory
//! campaign has no reader for the cadence checkpoints and builds only the
//! final (or kill) one, which becomes [`FleetResult::snapshot`] — and with
//! [`Fleet::run_durable`] the rounds in between are covered too: a
//! [`FleetStore`] journals every round's hub deltas to a
//! [`StorageMedium`] and [`Fleet::resume_durable`] recovers snapshot +
//! journal prefix from disk after a `kill -9`.
//!
//! The fleet is also *self-healing*: every engine runs under the
//! [`Supervisor`](crate::supervisor::Supervisor), and a shard whose
//! device is permanently lost (injected `vanish` faults, exhausted
//! re-provisioning) is restarted at the next sync boundary with a fresh
//! engine restored from hub state — its corpus, relation graph, and
//! crashes were published the same round, so nothing is lost. A shard
//! that keeps losing devices ([`FleetConfig::flap_limit`] consecutive
//! losses) is quarantined for an exponentially growing window of rounds
//! before it may rejoin.
//!
//! The round loop itself lives in one place, `round`: the schedule of
//! sync rounds, the shard round (boot, slice, self-heal on a worker pool)
//! and the hub round (apply, crash sync, persist, checkpoint cadence).
//! [`Fleet`] drives it with the hub in process; the distributed hub
//! server and worker runtime ([`crate::net`]) drive the same pieces with
//! the hub on the far side of a link, which is why a distributed campaign
//! is bit-identical to a local one.
//!
//! Execution is parallel: the shards are split into
//! [`FleetConfig::threads`] contiguous chunks, and every pooled phase
//! runs each chunk on its own `std::thread::scope` worker — engine boot,
//! the start-of-campaign restore from the hub, each round's slice, and
//! each round's pull. A phase ends at its scope join, the only barrier.
//! At the end of its slice each shard assembles a batched [`ShardUpdate`]
//! *on the worker thread* (corpus delta by admission sequence, newly
//! observed coverage blocks, and a relation graph only when its revision
//! moved), so the orchestrator's sequential section is reduced to
//! applying pre-built messages.
//!
//! Determinism: worker threads only ever touch their own shards, and
//! everything that writes the hub — applying the batched updates, crash
//! sync, the coverage sample — happens on the orchestrator thread in
//! shard-index order regardless of which worker finished first. Pulls go
//! back to the pool only once the hub holds the whole round, and only
//! read it, so no shard's pull can see another's. Restarts, quarantines,
//! persist sink calls and checkpoints also run on the orchestrator thread
//! in shard order, and replacement engines are seeded from `(shard,
//! restarts)`, so a fixed `(seed, shard count, fault profile)` produces
//! identical results run-to-run and for every `threads` value:
//! `threads: 1` runs the shards sequentially in ascending order and any
//! other worker count is bit-identical to it.

pub mod events;
pub mod hub;
pub mod persist;
mod round;
pub mod shard;
pub mod snapshot;

pub use events::{EventBus, FleetEvent, FleetStats, ShardStats};
pub use hub::{CorpusHub, HubSeed, HUB_ORIGIN};
pub use persist::{FleetPersist, FleetStore, DEFAULT_KEEP};
pub use shard::{Shard, ShardUpdate};
pub use snapshot::{FleetSnapshot, SNAPSHOT_HEADER};

pub(crate) use round::{on_workers, HubRound, Schedule, ShardRound, Totals};

use crate::config::FuzzerConfig;
use crate::crashes::CrashRecord;
use crate::engine::FuzzingEngine;
use crate::relation::RelationGraph;
use crate::stats::{mean_series, Series};
use crate::store::{RecoveryManager, RecoveryReport, StorageMedium, StoreCounters, StoreError};
use crate::supervisor::FaultCounters;
use droidfuzz_analysis::LintCounters;
use simdevice::firmware::FirmwareSpec;
use std::convert::Infallible;

/// Fleet campaign parameters.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of shards (engines fuzzing concurrently).
    pub shards: usize,
    /// Campaign length in virtual hours (fleet clock, shared by shards).
    pub hours: f64,
    /// Virtual hours between sync rounds (also the checkpoint cadence).
    pub sync_interval_hours: f64,
    /// Whether shards pull from the hub. With `false` the shards run as
    /// independent repeats — the control arm for measuring sync speedup —
    /// while the hub still aggregates coverage, crashes, and snapshots.
    pub sync: bool,
    /// Live-seed bound on the hub corpus.
    pub hub_capacity: usize,
    /// Fault injection: stop after this many rounds *of this run*, as if
    /// the daemon were killed, leaving the snapshot behind for resume.
    pub kill_after_rounds: Option<usize>,
    /// Consecutive device losses before a shard is quarantined instead of
    /// immediately restarted (clamped to at least 1). Each quarantine
    /// benches the shard for `2^(quarantines-1)` sync rounds.
    pub flap_limit: u32,
    /// Sync rounds between full snapshot serializations (clamped to at
    /// least 1). Rounds in between skip the re-serialization entirely —
    /// the journal already carries their deltas — and are counted in
    /// [`FleetStats::snapshots_skipped`]. The final round and a
    /// `kill_after_rounds` kill always checkpoint. An in-memory run (no
    /// persist sink) only builds the snapshots someone reads: the final
    /// or kill round's, which becomes [`FleetResult::snapshot`]. Its
    /// cadence rounds build nothing but still do not count as skipped, so
    /// the counters match a durable run's.
    pub checkpoint_interval_rounds: usize,
    /// Worker threads per round: the shards are split into this many
    /// contiguous chunks, each run by one scoped thread. `0` (the
    /// default) means one worker per shard; `1` runs the shards
    /// sequentially in ascending order; any value is clamped to the shard
    /// count. Every setting produces bit-identical campaign results —
    /// the knob trades wall-clock speed only.
    pub threads: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            hours: 1.0,
            sync_interval_hours: 0.25,
            sync: true,
            hub_capacity: 512,
            kill_after_rounds: None,
            flap_limit: 2,
            checkpoint_interval_rounds: 1,
            threads: 0,
        }
    }
}

/// Per-shard outcome of a fleet campaign.
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// Shard index.
    pub shard: usize,
    /// Final distinct kernel blocks this shard observed.
    pub final_coverage: f64,
    /// Test cases this shard executed this run, across every engine it
    /// owned (lost-device restarts retire their counts into this total;
    /// resumes restart at 0).
    pub executions: u64,
    /// Fault/recovery counters across every engine the shard owned.
    pub faults: FaultCounters,
    /// Lost-device restarts performed on the shard this run.
    pub restarts: u32,
    /// Coverage-over-time on the fleet clock.
    pub series: Series,
    /// Titles of the crashes this shard found.
    pub crash_titles: Vec<String>,
}

/// Aggregate result of a fleet campaign.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// Table I device id.
    pub device_id: String,
    /// Variant label.
    pub fuzzer: String,
    /// Per-shard outcomes, indexed by shard id.
    pub shards: Vec<ShardOutcome>,
    /// Fleet-deduplicated crashes (includes any snapshot baseline).
    pub crashes: Vec<CrashRecord>,
    /// Distinct kernel blocks observed fleet-wide.
    pub union_coverage: usize,
    /// Executions across all shards (this run).
    pub executions: u64,
    /// Mean per-shard coverage series on the fleet clock.
    pub mean_series: Series,
    /// Hub union-coverage series (the fleet's headline curve).
    pub union_series: Series,
    /// Fault/recovery counters over the whole campaign, including any
    /// snapshot baseline carried across a kill/resume.
    pub fault_totals: FaultCounters,
    /// Lint-gate counters over the whole campaign, including any snapshot
    /// baseline carried across a kill/resume.
    pub lint_totals: LintCounters,
    /// Durability counters over the whole campaign, including any
    /// snapshot baseline carried across a kill/resume (all zero for an
    /// in-memory campaign except `snapshots_skipped`).
    pub store_totals: StoreCounters,
    /// Wire-layer counters over the whole campaign (all zero for a
    /// purely local campaign; a snapshot baseline carries them across a
    /// kill/resume).
    pub net_totals: crate::net::NetCounters,
    /// Metrics drained from the event bus.
    pub stats: FleetStats,
    /// Sync rounds completed over the campaign (including pre-resume).
    pub rounds_completed: usize,
    /// Fleet virtual clock reached, µs.
    pub clock_us: u64,
    /// Snapshot text as of the last completed round; feed to
    /// [`Fleet::resume`] to continue a killed campaign.
    pub snapshot: String,
    /// Whether the campaign ran to its full length (false after a
    /// `kill_after_rounds` fault injection).
    pub finished: bool,
}

impl FleetResult {
    /// Mean of the shards' final coverage values.
    pub fn mean_final_coverage(&self) -> f64 {
        crate::stats::mean(
            &self.shards.iter().map(|s| s.final_coverage).collect::<Vec<_>>(),
        )
    }
}

/// The fleet orchestrator.
#[derive(Debug, Clone)]
pub struct Fleet {
    config: FleetConfig,
}

impl Fleet {
    /// Creates an orchestrator for `config` (shard count is clamped to at
    /// least 1).
    pub fn new(mut config: FleetConfig) -> Self {
        config.shards = config.shards.max(1);
        Self { config }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Runs a fresh fleet campaign: shard `i` boots `spec` with
    /// `make_config(i + 1)`.
    pub fn run<F>(&self, spec: &FirmwareSpec, make_config: F) -> FleetResult
    where
        F: Fn(u64) -> FuzzerConfig + Sync,
    {
        self.launch(spec, &make_config, None, None)
    }

    /// Runs a fresh *durable* campaign: every sync round's hub deltas are
    /// journaled to `medium` and every checkpoint compacts them into a
    /// checksummed snapshot generation, so a `kill -9` at any point
    /// resumes via [`resume_durable`](Self::resume_durable) with zero
    /// lost corpus/relation/crash records up to the last durable journal
    /// entry. Fails only if `medium` is unusable or already holds
    /// campaign state.
    pub fn run_durable<F, M>(
        &self,
        spec: &FirmwareSpec,
        make_config: F,
        medium: M,
    ) -> Result<FleetResult, StoreError>
    where
        F: Fn(u64) -> FuzzerConfig + Sync,
        M: StorageMedium + Clone,
    {
        let mut store = FleetStore::create(medium, DEFAULT_KEEP)?;
        Ok(self.launch(spec, &make_config, None, Some(&mut store)))
    }

    /// Resumes a durable campaign from `medium`: recovers the newest
    /// valid snapshot plus journal prefix ([`RecoveryManager`]),
    /// re-verifies it through the analysis auditors, seals it into a
    /// fresh generation, and runs the remaining rounds durably. Returns
    /// the result along with the recovery report.
    pub fn resume_durable<F, M>(
        &self,
        spec: &FirmwareSpec,
        make_config: F,
        medium: M,
    ) -> Result<(FleetResult, RecoveryReport), StoreError>
    where
        F: Fn(u64) -> FuzzerConfig + Sync,
        M: StorageMedium + Clone,
    {
        // A probe engine supplies the description table the auditors
        // verify Eq. 1 against.
        let probe = FuzzingEngine::new(spec.clone().boot(), make_config(0));
        let recovered =
            RecoveryManager::new(medium.clone()).recover_verified(probe.desc_table())?;
        let mut store = FleetStore::resume(medium, DEFAULT_KEEP, &recovered)?;
        let result =
            self.launch(spec, &make_config, Some(recovered.snapshot), Some(&mut store));
        Ok((result, recovered.report))
    }

    /// Resumes a killed campaign from [`FleetResult::snapshot`] text:
    /// restores the hub (corpus, relation graph, coverage, series,
    /// crashes), primes fresh shards from it, and runs the remaining
    /// rounds on the fleet clock.
    pub fn resume<F>(
        &self,
        spec: &FirmwareSpec,
        make_config: F,
        snapshot_text: &str,
    ) -> Result<FleetResult, String>
    where
        F: Fn(u64) -> FuzzerConfig + Sync,
    {
        let snap = FleetSnapshot::parse(snapshot_text)?;
        Ok(self.launch(spec, &make_config, Some(snap), None))
    }

    fn launch<F>(
        &self,
        spec: &FirmwareSpec,
        make_config: &F,
        resume: Option<FleetSnapshot>,
        persist: Option<&mut dyn FleetPersist>,
    ) -> FleetResult
    where
        F: Fn(u64) -> FuzzerConfig + Sync,
    {
        let cfg = &self.config;
        let resume = resume.as_ref();
        let start = resume.map_or((0, 0), |s| (s.round, s.clock_us));
        let schedule = Schedule::new(cfg.hours, cfg.sync_interval_hours, start);
        let (ids, threads) = (0..cfg.shards, cfg.threads);
        let mut pool = ShardRound::boot(spec, make_config, ids, threads, cfg.flap_limit, schedule);
        let table = pool.shards[0].engine().desc_table();
        let mut sync = HubRound::new(cfg, schedule, table, resume, persist);
        if cfg.sync {
            pool.each(|shard| shard.restore_from_hub(&sync.hub));
        } else {
            pool.announce();
        }

        for round in schedule.rounds() {
            let updates = pool.slice(round);
            // Everything that writes the hub runs here, in shard order;
            // pulls only read it, so they go back to the worker pool once
            // the hub holds the whole round.
            let crash_dbs = pool.shards.iter().map(|s| s.engine().crash_db());
            let published = sync.apply(round, updates, crash_dbs);
            let hub = &sync.hub;
            let pulled: usize =
                if cfg.sync { pool.each(|shard| shard.pull(hub)).into_iter().sum() } else { 0 };
            pool.bus.emit(FleetEvent::SyncCompleted {
                round,
                published,
                pulled,
                hub_seeds: hub.len(),
                hub_edges: hub.relations().map_or(0, RelationGraph::edge_count),
                union_coverage: hub.union_coverage(),
                workers: pool.workers,
            });
            let Ok(()) = pool.heal(round, |shard| {
                shard.restore_all_from_hub(hub);
                Ok::<(), Infallible>(())
            });

            let totals =
                sync.totals(pool.shards.iter().map(|s| (s.fault_totals(), s.lint_totals())));
            let table = pool.shards[0].engine().desc_table();
            if !sync.finish(round, table, totals, sync.baseline_net()) {
                break;
            }
        }

        let mut stats = pool.finish(cfg.shards);
        stats.snapshots_skipped = sync.snapshots_skipped;
        stats.net_totals = sync.baseline_net();
        let outcomes: Vec<ShardOutcome> = pool
            .shards
            .iter()
            .map(|shard| {
                // The shard's own offset, not the fleet resume offset: a
                // restarted shard's current engine booted mid-campaign.
                let mut series = Series::new();
                for &(t, v) in shard.engine().coverage_series().points() {
                    series.push(shard.clock_offset_us() + t, v);
                }
                let crashes = shard.engine().crash_db().records();
                ShardOutcome {
                    shard: shard.id,
                    final_coverage: shard.engine().kernel_coverage() as f64,
                    executions: shard.total_executions(),
                    faults: shard.fault_totals(),
                    restarts: shard.restarts(),
                    series,
                    crash_titles: crashes.iter().map(|r| r.title.clone()).collect(),
                }
            })
            .collect();
        let shard_series: Vec<Series> = outcomes.iter().map(|o| o.series.clone()).collect();
        let (fault_totals, lint_totals) =
            sync.totals(pool.shards.iter().map(|s| (s.fault_totals(), s.lint_totals())));

        FleetResult {
            device_id: spec.meta.id.clone(),
            fuzzer: make_config(0).variant.to_string(),
            crashes: sync.hub.crashes().records().into_iter().cloned().collect(),
            union_coverage: sync.hub.union_coverage(),
            executions: outcomes.iter().map(|o| o.executions).sum(),
            mean_series: mean_series(&shard_series, schedule.total_us, 48),
            union_series: sync.hub.series().clone(),
            fault_totals,
            lint_totals,
            store_totals: sync.store_totals(),
            net_totals: sync.baseline_net(),
            shards: outcomes,
            stats,
            rounds_completed: sync.rounds_completed,
            clock_us: sync.clock_us,
            snapshot: sync.snapshot_text(),
            finished: sync.finished(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::HOUR_US;
    use simdevice::catalog;
    use simdevice::faults::{FaultProfile, FaultRates};

    fn quick_fleet(sync: bool, kill_after_rounds: Option<usize>) -> Fleet {
        Fleet::new(FleetConfig {
            shards: 2,
            hours: 0.2,
            sync_interval_hours: 0.05,
            sync,
            hub_capacity: 256,
            kill_after_rounds,
            flap_limit: 2,
            checkpoint_interval_rounds: 1,
            threads: 0,
        })
    }

    /// Everything that must be identical between two runs of the same
    /// `(seed, shard count, fault profile)` campaign.
    fn fingerprint(r: &FleetResult) -> (usize, u64, u64, usize, String) {
        (
            r.union_coverage,
            r.executions,
            r.fault_totals.total(),
            r.crashes.len(),
            r.snapshot.clone(),
        )
    }

    #[test]
    fn fleet_campaign_completes_and_aggregates() {
        let result = quick_fleet(true, None).run(&catalog::device_a1(), FuzzerConfig::droidfuzz);
        assert_eq!(result.device_id, "A1");
        assert_eq!(result.fuzzer, "DroidFuzz");
        assert_eq!(result.shards.len(), 2);
        assert!(result.finished);
        assert_eq!(result.rounds_completed, 4);
        assert!(result.executions > 0);
        assert!(result.union_coverage > 0);
        // The union dominates every single shard.
        for shard in &result.shards {
            assert!(result.union_coverage as f64 >= shard.final_coverage);
        }
        assert!(!result.mean_series.is_empty());
        assert_eq!(result.union_series.len(), 4, "one union sample per round");
        assert!(result.stats.sync_rounds == 4);
        assert!(result.stats.seeds_published > 0);
        assert!(result.stats.seeds_pulled > 0, "synced shards exchange seeds");
        assert!(result.snapshot.starts_with(SNAPSHOT_HEADER));
        // The default (reliable) profile injects nothing and never
        // restarts a shard.
        assert_eq!(result.fault_totals.total(), 0);
        assert_eq!(result.stats.shard_restarts, 0);
        assert_eq!(result.stats.shard_quarantines, 0);
    }

    #[test]
    fn hostile_fleet_is_deterministic_and_completes() {
        let spec = catalog::device_a1();
        let mk = |seed| FuzzerConfig::droidfuzz(seed).with_fault_profile(FaultProfile::Hostile);
        let a = quick_fleet(true, None).run(&spec, mk);
        let b = quick_fleet(true, None).run(&spec, mk);
        assert!(a.finished, "a hostile campaign still runs to full length");
        assert!(a.fault_totals.injected > 0, "the hostile profile injects faults");
        assert!(a.union_coverage > 0, "progress despite the faults");
        assert_eq!(
            fingerprint(&a),
            fingerprint(&b),
            "same (seed, shards, fault profile) must replay identically"
        );
        // The final snapshot carries the campaign's exact fault totals.
        let snap = FleetSnapshot::parse(&a.snapshot).expect("snapshot parses");
        assert_eq!(snap.fault_totals, a.fault_totals);
    }

    #[test]
    fn fault_counters_round_trip_through_kill_and_resume() {
        let spec = catalog::device_a1();
        let mk = |seed| FuzzerConfig::droidfuzz(seed).with_fault_profile(FaultProfile::Flaky);
        let killed = quick_fleet(true, Some(2)).run(&spec, mk);
        assert!(!killed.finished);
        assert!(killed.fault_totals.injected > 0, "flaky faults landed before the kill");
        let resumed = quick_fleet(true, None)
            .resume(&spec, mk, &killed.snapshot)
            .expect("snapshot parses");
        assert!(resumed.finished);
        // The pre-kill counters are the resume's baseline; the resumed
        // rounds only add to them.
        assert!(resumed.fault_totals.injected >= killed.fault_totals.injected);
        assert!(resumed.fault_totals.total() >= killed.fault_totals.total());
        let snap = FleetSnapshot::parse(&resumed.snapshot).expect("snapshot parses");
        assert_eq!(snap.fault_totals, resumed.fault_totals);
        // Lint counters cross the kill the same way (baseline + new
        // rounds), whether or not the gate ever fired.
        assert!(resumed.lint_totals.total() >= killed.lint_totals.total());
        assert_eq!(snap.lint_totals, resumed.lint_totals);
    }

    #[test]
    fn vanishing_devices_restart_then_quarantine() {
        // Every execution attempt vanishes the device permanently, so
        // each shard loses its device every round it is allowed to run.
        let rates = FaultRates { vanish: 1.0, ..FaultRates::for_profile(FaultProfile::Reliable) };
        let mk = move |seed| FuzzerConfig::droidfuzz(seed).with_fault_rates(rates);
        let fleet = Fleet::new(FleetConfig {
            shards: 2,
            hours: 0.2,
            sync_interval_hours: 0.05,
            sync: true,
            hub_capacity: 256,
            kill_after_rounds: None,
            flap_limit: 1,
            checkpoint_interval_rounds: 1,
            threads: 0,
        });
        let result = fleet.run(&catalog::device_a1(), mk);
        assert!(result.finished, "a fleet of vanishing devices still completes");
        assert!(result.stats.shard_restarts >= 2, "every shard restarts at least once");
        assert!(result.stats.shard_quarantines >= 2, "flapping shards are benched");
        assert!(result.fault_totals.device_lost >= 2);
        for shard in &result.shards {
            assert!(shard.restarts >= 1, "shard {} never restarted", shard.shard);
            assert!(shard.faults.device_lost >= 1);
        }
        // The snapshot still reflects the full fleet clock.
        assert_eq!(result.clock_us, (0.2 * HOUR_US as f64) as u64);
    }

    #[test]
    fn unsynced_fleet_exchanges_no_seeds() {
        let result = quick_fleet(false, None).run(&catalog::device_a1(), FuzzerConfig::droidfuzz);
        assert!(result.finished);
        assert_eq!(result.stats.seeds_pulled, 0);
        assert!(result.stats.seeds_published > 0, "the hub still aggregates for snapshots");
        assert!(result.union_coverage > 0);
    }

    #[test]
    fn kill_leaves_a_resumable_snapshot() {
        let fleet = quick_fleet(true, Some(2));
        let spec = catalog::device_a1();
        let killed = fleet.run(&spec, FuzzerConfig::droidfuzz);
        assert!(!killed.finished);
        assert_eq!(killed.rounds_completed, 2);

        let resumed = quick_fleet(true, None)
            .resume(&spec, FuzzerConfig::droidfuzz, &killed.snapshot)
            .expect("snapshot parses");
        assert!(resumed.finished);
        assert_eq!(resumed.rounds_completed, 4);
        assert_eq!(resumed.clock_us, (0.2 * HOUR_US as f64) as u64);
        // The union coverage can only grow across the kill.
        assert!(resumed.union_coverage >= killed.union_coverage);
        // Shards were primed from the snapshot corpus.
        assert!(resumed.stats.shards.iter().any(|s| s.restored_seeds > 0));
        // The union series carries the pre-kill samples forward.
        assert_eq!(resumed.union_series.len(), 4);
    }

    #[test]
    fn checkpoint_cadence_skips_intermediate_serializations() {
        let spec = catalog::device_a1();
        let mut cfg = quick_fleet(true, None).config().clone();
        cfg.checkpoint_interval_rounds = 3;
        let result = Fleet::new(cfg).run(&spec, FuzzerConfig::droidfuzz);
        assert!(result.finished);
        // 4 rounds, cadence 3: rounds 1 and 2 skip, round 3 checkpoints,
        // round 4 checkpoints because it is the last.
        assert_eq!(result.stats.snapshots_skipped, 2);
        assert_eq!(result.store_totals.snapshots_skipped, 2);
        // The final snapshot is still current (last round checkpoints).
        let snap = FleetSnapshot::parse(&result.snapshot).expect("snapshot parses");
        assert_eq!(snap.round, 4);
        // Semantic state matches an every-round-checkpoint run.
        let every = quick_fleet(true, None).run(&spec, FuzzerConfig::droidfuzz);
        assert_eq!(result.union_coverage, every.union_coverage);
        assert_eq!(result.executions, every.executions);
        assert_eq!(result.crashes.len(), every.crashes.len());
    }

    #[test]
    fn durable_campaign_killed_midway_resumes_from_disk() {
        use crate::store::SimMedium;
        let spec = catalog::device_a1();
        let medium = SimMedium::new();
        let killed = quick_fleet(true, Some(2))
            .run_durable(&spec, FuzzerConfig::droidfuzz, medium.clone())
            .expect("fresh durable campaign starts");
        assert!(!killed.finished);
        assert!(killed.store_totals.journal_records > 0);
        assert!(killed.store_totals.snapshots_written > 0);

        let (resumed, report) = quick_fleet(true, None)
            .resume_durable(&spec, FuzzerConfig::droidfuzz, medium.clone())
            .expect("disk state recovers");
        assert!(resumed.finished);
        assert_eq!(resumed.rounds_completed, 4);
        assert!(resumed.union_coverage >= killed.union_coverage);
        assert!(resumed.fault_totals.total() >= killed.fault_totals.total());
        assert!(report.replayed_records > 0 || report.base_generation.is_some());
        assert!(resumed.store_totals.recoveries >= 1, "recovery counted in totals");

        // The resumed campaign's disk state recovers clean in turn.
        let end = crate::store::RecoveryManager::new(medium).recover().expect("final state");
        assert_eq!(end.snapshot.round, 4);

        // Zero loss: everything the killed run reported is in the
        // resumed run's final state.
        for crash in &killed.crashes {
            assert!(resumed.crashes.iter().any(|c| c.title == crash.title));
        }
    }

    #[test]
    fn durable_run_refuses_an_occupied_store() {
        use crate::store::SimMedium;
        let spec = catalog::device_a1();
        let medium = SimMedium::new();
        quick_fleet(true, Some(1))
            .run_durable(&spec, FuzzerConfig::droidfuzz, medium.clone())
            .expect("first campaign starts");
        assert!(
            quick_fleet(true, None)
                .run_durable(&spec, FuzzerConfig::droidfuzz, medium)
                .is_err(),
            "a fresh run must not clobber resumable state"
        );
    }

    #[test]
    fn resume_rejects_garbage() {
        let fleet = quick_fleet(true, None);
        assert!(fleet
            .resume(&catalog::device_a1(), FuzzerConfig::droidfuzz, "not a snapshot")
            .is_err());
    }
}
