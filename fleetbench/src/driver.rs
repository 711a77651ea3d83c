//! The traced round-loop driver: `Fleet::launch`'s orchestration
//! re-driven through the fleet's public API (`Shard::run_slice`,
//! `prepare_update`, `CorpusHub::apply_update`, `sync_crashes`, pulls,
//! restarts and quarantines, `FleetSnapshot::capture` and `to_text`),
//! with a timer around every call. Shards are split into the same
//! contiguous chunks over the same number of scoped workers, and hub
//! traffic is applied in shard order, so the driver reproduces
//! `Fleet::run`'s final snapshot byte for byte — the benchmark checks
//! that on every traced campaign.

use std::thread;
use std::time::Instant;

use droidfuzz::config::FuzzerConfig;
use droidfuzz::engine::{FuzzingEngine, HOUR_US};
use droidfuzz::fleet::{CorpusHub, EventBus, FleetConfig, FleetSnapshot, Shard, ShardUpdate};
use droidfuzz::net::NetCounters;
use droidfuzz::relation::RelationGraph;
use droidfuzz::store::StoreCounters;
use droidfuzz::supervisor::FaultCounters;
use droidfuzz_analysis::LintCounters;
use fuzzlang::desc::DescTable;
use simdevice::FirmwareSpec;

use crate::recipe::Workload;

/// Wall time spent at each boundary of one traced campaign, seconds,
/// plus the counts the per-layer ratios are built from.
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    /// Booting every shard's engine (`FuzzingEngine::new` on the pool).
    pub boot_s: f64,
    /// Wall time of the parallel slice phase (scope spawn to join).
    pub slice_wall_s: f64,
    /// `Shard::run_slice`, summed over shards.
    pub slice_busy_s: f64,
    /// `Shard::prepare_update`, summed over shards.
    pub prepare_s: f64,
    /// Per round, each worker's wall time minus its busy time, summed.
    pub barrier_wait_s: f64,
    /// `CorpusHub::apply_update`.
    pub apply_s: f64,
    /// `CorpusHub::sync_crashes` and `record_sample`.
    pub crash_sync_s: f64,
    /// Hub pull plus `Shard::apply_pull`.
    pub pull_s: f64,
    /// Restart and quarantine steps, including replacement boots.
    pub restart_s: f64,
    /// `FleetSnapshot::capture`.
    pub capture_s: f64,
    /// `FleetSnapshot::to_text`.
    pub to_text_s: f64,
    /// Whole traced campaign, from the first boot to the final snapshot.
    pub total_s: f64,
    /// Seeds the shards offered the hub (their local admissions).
    pub offered: u64,
    /// Offered seeds the hub accepted.
    pub accepted: u64,
    /// Seeds delivered to shards by pulls.
    pub delivered: u64,
    /// Delivered seeds the shards' corpora accepted.
    pub pulled: u64,
    /// Snapshots captured.
    pub snapshots: u64,
    /// Sync rounds run.
    pub rounds: u64,
}

impl LayerTimes {
    /// Adds `other` into `self`.
    pub fn absorb(&mut self, o: &LayerTimes) {
        self.boot_s += o.boot_s;
        self.slice_wall_s += o.slice_wall_s;
        self.slice_busy_s += o.slice_busy_s;
        self.prepare_s += o.prepare_s;
        self.barrier_wait_s += o.barrier_wait_s;
        self.apply_s += o.apply_s;
        self.crash_sync_s += o.crash_sync_s;
        self.pull_s += o.pull_s;
        self.restart_s += o.restart_s;
        self.capture_s += o.capture_s;
        self.to_text_s += o.to_text_s;
        self.total_s += o.total_s;
        self.offered += o.offered;
        self.accepted += o.accepted;
        self.delivered += o.delivered;
        self.pulled += o.pulled;
        self.snapshots += o.snapshots;
        self.rounds += o.rounds;
    }

    /// Share of the campaign's wall time spent inside the named
    /// boundaries (the remainder is the driver's own bookkeeping).
    pub fn accounted_share(&self) -> f64 {
        let named = self.boot_s
            + self.slice_wall_s
            + self.apply_s
            + self.crash_sync_s
            + self.pull_s
            + self.restart_s
            + self.capture_s
            + self.to_text_s;
        named / self.total_s.max(1e-12)
    }
}

/// One traced campaign's result.
#[derive(Debug)]
pub struct TracedRun {
    /// The final snapshot text, as `Fleet::run` would return it.
    pub snapshot: String,
    /// Executions across all shards this run.
    pub executions: u64,
    /// Fault counters including any resume baseline.
    pub faults: FaultCounters,
    /// Lint-gate counters including any resume baseline.
    pub lint: LintCounters,
    /// Lost-device shard restarts.
    pub restarts: u64,
    /// Whether the campaign ran to its full length.
    pub finished: bool,
    /// The final hub (corpus and relation graph for the hot-loop probes).
    pub hub: CorpusHub,
    /// The campaign's description table.
    pub table: DescTable,
    /// Boundary timings.
    pub times: LayerTimes,
}

fn seeds_in(corpus_text: &str) -> u64 {
    corpus_text
        .lines()
        .filter(|l| l.starts_with("# seed "))
        .count() as u64
}

/// Engine config for absolute engine seed `s`, as `Fleet::run` takes it.
pub type MakeConfig<'a> = &'a (dyn Fn(u64) -> FuzzerConfig + Sync);

/// Boots shards `0..shards` in contiguous chunks of `chunk_len` on
/// scoped workers, shard `i` with `make_config(i + 1)`.
fn boot(
    spec: &FirmwareSpec,
    make_config: MakeConfig,
    shards: usize,
    chunk_len: usize,
) -> Vec<FuzzingEngine> {
    let ids: Vec<usize> = (0..shards).collect();
    thread::scope(|scope| {
        let handles: Vec<_> = ids
            .chunks(chunk_len)
            .map(|ids| {
                scope.spawn(move || {
                    ids.iter()
                        .map(|&i| {
                            FuzzingEngine::new(spec.clone().boot(), make_config(i as u64 + 1))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("shard boot"))
            .collect()
    })
}

/// Boots every shard of `workload` the way `Fleet::launch` does — the
/// work `setup_s` measures.
pub fn boot_shards(workload: Workload, spec: &FirmwareSpec, base: u64) -> Vec<FuzzingEngine> {
    let cfg = workload.fleet_config();
    boot(
        spec,
        &|s| workload.engine_config(base + s),
        cfg.shards,
        chunk_len(&cfg),
    )
}

/// Shards per worker chunk, as `Fleet::launch` splits them.
fn chunk_len(cfg: &FleetConfig) -> usize {
    let workers = if cfg.threads == 0 {
        cfg.shards
    } else {
        cfg.threads.clamp(1, cfg.shards)
    };
    cfg.shards.div_ceil(workers)
}

/// Runs a fleet campaign shaped by `cfg` through the traced round loop;
/// shard `i` boots with `make_config(i + 1)` as in `Fleet::run`.
/// `kill_after` stops after that many rounds of this run (always
/// checkpointing); `resume` continues from a snapshot.
pub fn run_traced(
    cfg: &FleetConfig,
    spec: &FirmwareSpec,
    make_config: MakeConfig,
    kill_after: Option<usize>,
    resume: Option<&FleetSnapshot>,
) -> TracedRun {
    let cfg = FleetConfig {
        shards: cfg.shards.max(1),
        ..cfg.clone()
    };
    let mut t = LayerTimes::default();
    let campaign_start = Instant::now();
    let total_us = (cfg.hours * HOUR_US as f64) as u64;
    let interval_us = ((cfg.sync_interval_hours * HOUR_US as f64) as u64).max(1);
    let total_rounds = (total_us.div_ceil(interval_us) as usize).max(1);
    let start_round = resume.map_or(0, |s| s.round.min(total_rounds));
    let clock_offset_us = resume.map_or(0, |s| s.clock_us.min(total_us));
    let chunk_len = chunk_len(&cfg);

    let (bus, rx) = EventBus::new();
    let start = Instant::now();
    let engines = boot(spec, make_config, cfg.shards, chunk_len);
    t.boot_s += start.elapsed().as_secs_f64();
    let mut shards: Vec<Shard> = engines
        .into_iter()
        .enumerate()
        .map(|(i, engine)| Shard::new(i, engine, bus.clone(), clock_offset_us))
        .collect();
    let table = shards[0].engine().desc_table().clone();

    let mut hub = CorpusHub::new(cfg.hub_capacity);
    if let Some(snap) = resume {
        snap.restore_into(&mut hub);
        if !snap.relations_text.is_empty() {
            let mut graph = RelationGraph::new(&table);
            graph.import(&snap.relations_text, &table);
            hub.set_relations(graph);
        }
    }
    let start = Instant::now();
    for shard in &mut shards {
        shard.restore_from_hub(&hub);
    }
    t.pull_s += start.elapsed().as_secs_f64();

    let baseline_faults = resume.map_or_else(FaultCounters::default, |s| s.fault_totals);
    let baseline_lint = resume.map_or_else(LintCounters::default, |s| s.lint_totals);
    let baseline_store = resume.map_or_else(StoreCounters::default, |s| s.store_totals);
    let baseline_net = resume.map_or_else(NetCounters::default, |s| s.net_totals);
    let fault_totals = |shards: &[Shard]| {
        let mut totals = baseline_faults;
        shards.iter().for_each(|s| totals.absorb(&s.fault_totals()));
        totals
    };
    let lint_totals = |shards: &[Shard]| {
        let mut totals = baseline_lint;
        shards.iter().for_each(|s| totals.absorb(&s.lint_totals()));
        totals
    };

    let mut snapshot_text = resume.map_or_else(String::new, FleetSnapshot::to_text);
    let mut snapshots_skipped = 0u64;
    let mut finished = true;
    let checkpoint_interval = cfg.checkpoint_interval_rounds.max(1);
    let mut clock_us = clock_offset_us;
    for round in start_round..total_rounds {
        let global_target = (interval_us * (round as u64 + 1)).min(total_us);
        let slice_us = global_target.saturating_sub(clock_us);
        t.rounds += 1;

        let start = Instant::now();
        let chunks: Vec<(Vec<ShardUpdate>, f64, f64)> = thread::scope(|scope| {
            let handles: Vec<_> = shards
                .chunks_mut(chunk_len)
                .map(|chunk| {
                    scope.spawn(move || {
                        let (mut slice_s, mut prepare_s) = (0.0, 0.0);
                        let mut updates = Vec::with_capacity(chunk.len());
                        for shard in chunk {
                            let start = Instant::now();
                            if shard.is_quarantined(round) {
                                shard.skip_slice(slice_us);
                            } else {
                                shard.run_slice(global_target, round);
                            }
                            let mid = Instant::now();
                            updates.push(shard.prepare_update());
                            slice_s += (mid - start).as_secs_f64();
                            prepare_s += mid.elapsed().as_secs_f64();
                        }
                        (updates, slice_s, prepare_s)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker"))
                .collect()
        });
        let wall = start.elapsed().as_secs_f64();
        t.slice_wall_s += wall;
        let mut updates = Vec::with_capacity(cfg.shards);
        for (chunk_updates, slice_s, prepare_s) in chunks {
            t.slice_busy_s += slice_s;
            t.prepare_s += prepare_s;
            t.barrier_wait_s += (wall - slice_s - prepare_s).max(0.0);
            updates.extend(chunk_updates);
        }

        let start = Instant::now();
        for update in &updates {
            t.offered += seeds_in(&update.corpus_delta);
            t.accepted += hub.apply_update(update) as u64;
        }
        t.apply_s += start.elapsed().as_secs_f64();
        let start = Instant::now();
        hub.sync_crashes(shards.iter().map(|s| s.engine().crash_db()));
        t.crash_sync_s += start.elapsed().as_secs_f64();
        let start = Instant::now();
        for shard in &mut shards {
            let (text, cursor, delivered) = hub.pull_corpus(shard.id, shard.cursor());
            t.delivered += delivered as u64;
            t.pulled += shard.apply_pull(&text, cursor, delivered, hub.relations()) as u64;
        }
        t.pull_s += start.elapsed().as_secs_f64();
        let start = Instant::now();
        hub.record_sample(global_target);
        t.crash_sync_s += start.elapsed().as_secs_f64();

        let start = Instant::now();
        for (i, shard) in shards.iter_mut().enumerate() {
            if shard.is_quarantined(round) {
                continue;
            }
            if !shard.engine().device_lost() {
                shard.note_healthy();
                continue;
            }
            let restarts = u64::from(shard.restarts()) + 1;
            let engine = FuzzingEngine::new(
                spec.clone().boot(),
                make_config(i as u64 + 1 + restarts * 1009),
            );
            shard.replace_engine(engine, global_target);
            shard.restore_all_from_hub(&hub);
            if shard.consecutive_losses() >= cfg.flap_limit.max(1) {
                let window = 1usize << shard.quarantines().min(8);
                shard.quarantine_until(round + 1 + window);
            }
        }
        t.restart_s += start.elapsed().as_secs_f64();

        let rounds_completed = round + 1;
        clock_us = global_target;
        let rounds_this_run = rounds_completed - start_round;
        let is_kill = kill_after == Some(rounds_this_run);
        if is_kill
            || rounds_completed == total_rounds
            || rounds_this_run.is_multiple_of(checkpoint_interval)
        {
            let mut store_totals = baseline_store;
            store_totals.snapshots_skipped += snapshots_skipped;
            let start = Instant::now();
            let snap = FleetSnapshot::capture(
                &hub,
                &table,
                rounds_completed,
                clock_us,
                fault_totals(&shards),
                lint_totals(&shards),
                store_totals,
                baseline_net,
            );
            let mid = Instant::now();
            snapshot_text = snap.to_text();
            t.capture_s += (mid - start).as_secs_f64();
            t.to_text_s += mid.elapsed().as_secs_f64();
            t.snapshots += 1;
        } else {
            snapshots_skipped += 1;
        }
        if is_kill {
            finished = false;
            break;
        }
    }
    t.total_s = campaign_start.elapsed().as_secs_f64();
    drop(rx);

    TracedRun {
        snapshot: snapshot_text,
        executions: shards.iter().map(Shard::total_executions).sum(),
        faults: fault_totals(&shards),
        lint: lint_totals(&shards),
        restarts: shards.iter().map(|s| u64::from(s.restarts())).sum(),
        finished,
        hub,
        table,
        times: t,
    }
}
