//! The hub server: the authoritative [`CorpusHub`] behind a session
//! layer.
//!
//! The server owns no engines. Workers run the shards; the hub buffers
//! each round's [`PushUpdate`]s keyed by shard id and, once *every* shard
//! has reported, hands them in ascending shard order to the fleet's
//! shared hub round (`fleet::round`) — the same apply, crash sync,
//! persist sink and checkpoint cadence a local [`Fleet`] runs — so a
//! fixed-seed distributed campaign reproduces the local `--threads` path
//! bit for bit (the snapshot differs only in its `net` counter lines).
//! The round's shard graphs are rebuilt from their wire form on scoped
//! threads, one per core and at most one per update, before that
//! in-order apply. Pull requests carry a *barrier* (how many rounds the
//! hub must have applied before answering); requests arriving early are
//! parked and answered the moment the barrier round lands. A round is
//! closed once every worker has sent its `RoundDone`.
//!
//! Reconnects are cheap because every mutating message is idempotent at
//! the session layer: a replayed push for an applied round (or an
//! already-buffered shard) is acknowledged as a duplicate, a replayed
//! `RoundDone` just re-sends the `RoundAck`, and pulls are pure reads.
//! A worker that lost its link reclaims its shard range with
//! `Hello { claim }` and resumes from its first unacknowledged step.
//!
//! [`PushUpdate`]: super::Message::PushUpdate
//! [`CorpusHub`]: crate::fleet::CorpusHub
//! [`Fleet`]: crate::fleet::Fleet

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TrySendError};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use fuzzlang::desc::DescTable;
use simdevice::catalog;
use simkernel::coverage::Block;

use super::codec::{
    encode_frame, encode_message, table_digest, variant_config, CampaignSpec, Message,
    WireShardStats, WireUpdate, PROTOCOL_VERSION,
};
use super::transport::{ChannelReceiver, Listener, Transport};
use super::{NetCounters, NetError};
use crate::crashes::{CrashDb, CrashRecord};
use crate::engine::FuzzingEngine;
use crate::fleet::{
    on_workers, FleetConfig, FleetPersist, FleetSnapshot, FleetStats, HubRound, Schedule,
    ShardStats, ShardUpdate, Totals,
};
use crate::relation::RelationGraph;
use crate::store::StoreCounters;
use crate::supervisor::FaultCounters;
use droidfuzz_analysis::LintCounters;

/// How long the hub waits for *any* session event before declaring the
/// campaign stuck (no workers, all workers dead and not reconnecting).
const IDLE_TIMEOUT: Duration = Duration::from_secs(120);

/// Bounded per-session outbound queue, in frames, at least. A worker that
/// stops draining its socket hits this bound and is disconnected
/// (backpressure as session death — it can reconnect and resume). A
/// session's queue also holds a whole request window's answers — a push
/// ack and a pull answer per shard, which a round releases at once — so
/// it is sized up to `2 * shards + 2` for campaigns with many shards.
const SESSION_QUEUE: usize = 64;

/// What the hub serves: a fleet campaign (the same knobs as the local
/// orchestrator) on a named catalog device and variant.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Campaign shape. `threads` is ignored — workers choose their own
    /// thread counts; determinism is per-shard, not per-thread.
    pub fleet: FleetConfig,
    /// Table I device id (`A1`, `E`, ...).
    pub device: String,
    /// Variant label (`droidfuzz`, `syzkaller`, ...).
    pub variant: String,
    /// Base campaign seed; global shard `i` boots with `seed + i + 1`.
    pub seed: u64,
}

/// Campaign outcome from the hub's perspective — the distributed
/// counterpart of [`crate::fleet::FleetResult`] (the hub has no engines,
/// so per-shard series live on the workers).
#[derive(Debug, Clone)]
pub struct HubResult {
    /// Table I device id.
    pub device_id: String,
    /// Variant label.
    pub fuzzer: String,
    /// Fleet-deduplicated crashes (includes any snapshot baseline).
    pub crashes: Vec<CrashRecord>,
    /// Distinct kernel blocks observed fleet-wide.
    pub union_coverage: usize,
    /// Executions across all shards (worker-reported).
    pub executions: u64,
    /// Sync rounds completed over the campaign (including pre-resume).
    pub rounds_completed: usize,
    /// Fleet virtual clock reached, µs.
    pub clock_us: u64,
    /// Snapshot text as of the last checkpoint; feed to a resumed
    /// `--serve` (or a local [`Fleet::resume`]) to continue.
    ///
    /// [`Fleet::resume`]: crate::fleet::Fleet::resume
    pub snapshot: String,
    /// Whether the campaign ran to its full length.
    pub finished: bool,
    /// Worker slots that served shards.
    pub workers: usize,
    /// Fleet-wide telemetry assembled from worker round reports.
    pub stats: FleetStats,
    /// Fault/recovery counters over the whole campaign (with baseline).
    pub fault_totals: FaultCounters,
    /// Lint-gate counters over the whole campaign (with baseline).
    pub lint_totals: LintCounters,
    /// Durability counters over the whole campaign (with baseline).
    pub store_totals: StoreCounters,
    /// Wire counters over the whole campaign: hub sessions + hub
    /// protocol accounting + worker-reported link counters.
    pub net_totals: NetCounters,
}

/// One live connection.
struct Session {
    alive: bool,
    out: Option<SyncSender<Vec<u8>>>,
    next_tx_seq: u64,
    tx: NetCounters,
    rx: NetCounters,
    slot: Option<usize>,
    /// Hub relation-graph revision this session last received; gates
    /// re-sending the (large) export on every pull.
    relations_rev_sent: u64,
}

/// One worker's shard range — survives session death for reconnects.
struct Slot {
    base_shard: usize,
    shards: usize,
    session: Option<usize>,
    /// Highest round this slot has reported `RoundDone` for.
    done_round: Option<usize>,
    /// Latest cumulative per-shard telemetry.
    stats: BTreeMap<usize, WireShardStats>,
    /// Latest cumulative worker-side wire counters.
    net: NetCounters,
}

/// What reader threads feed the core loop.
enum Event {
    Connected(Box<dyn Transport>),
    Msg { session: usize, msg: Message, rx: NetCounters },
    Gone { session: usize, rx: NetCounters },
}

/// A parked pull waiting for its barrier round to be applied.
struct ParkedPull {
    session: usize,
    barrier: usize,
    shard: usize,
    cursor: u64,
    full: bool,
}

/// The hub: accepts worker sessions, sequences their pushes into the
/// [`CorpusHub`](crate::fleet::CorpusHub), and runs the campaign's
/// persistence cadence.
pub struct HubServer {
    cfg: ServeConfig,
}

impl HubServer {
    /// A hub for `cfg`. Validation (device, variant) happens in
    /// [`serve`](Self::serve) where errors have a transport to fail.
    pub fn new(cfg: ServeConfig) -> Self {
        Self { cfg }
    }

    /// Runs the campaign to completion (or kill) over `listener`,
    /// blocking the calling thread. `resume` continues a checkpointed
    /// campaign; `persist` receives the same `on_start`/`on_round`/
    /// `on_checkpoint` cadence as a local [`Fleet`] run.
    ///
    /// [`Fleet`]: crate::fleet::Fleet
    pub fn serve<'a, L: Listener + 'static>(
        &'a self,
        listener: L,
        persist: Option<&'a mut dyn FleetPersist>,
        resume: Option<&FleetSnapshot>,
    ) -> Result<HubResult, NetError> {
        let spec = catalog::by_id(&self.cfg.device)
            .ok_or_else(|| NetError::Protocol(format!("unknown device {:?}", self.cfg.device)))?;
        let fleet = &self.cfg.fleet;
        let start = resume.map_or((0, 0), |s| (s.round, s.clock_us));
        let schedule = Schedule::new(fleet.hours, fleet.sync_interval_hours, start);
        // The campaign's engine config at offset 0 (`CampaignSpec::engine_config(0)`).
        let probe_cfg = variant_config(&self.cfg.variant, self.cfg.seed)
            .ok_or_else(|| NetError::Protocol(format!("unknown variant {:?}", self.cfg.variant)))?;
        // One probe engine, booted once: the campaign's interface table
        // (the id space of wire relation graphs) and the reporting label.
        // Seed-independent, like `Fleet::resume_durable`'s recovery probe.
        let table = FuzzingEngine::new(spec.clone().boot(), probe_cfg.clone()).desc_table().clone();
        let campaign = CampaignSpec {
            device: self.cfg.device.clone(),
            variant: self.cfg.variant.clone(),
            seed: self.cfg.seed,
            hours: fleet.hours,
            sync_interval_hours: fleet.sync_interval_hours,
            sync: fleet.sync,
            shards: fleet.shards.max(1),
            hub_capacity: fleet.hub_capacity,
            flap_limit: fleet.flap_limit,
            start_round: schedule.start_round,
            clock_us: schedule.clock_offset_us,
            table_digest: table_digest(&table),
        };
        let sync = HubRound::new(fleet, schedule, &table, resume, persist);

        let (events_tx, events_rx) = mpsc::channel::<Event>();
        let stop = Arc::new(AtomicBool::new(false));
        let accept = spawn_accept_thread(listener, events_tx.clone(), Arc::clone(&stop));

        let mut core = HubCore {
            campaign,
            table,
            fuzzer: probe_cfg.variant.to_string(),
            device_id: spec.meta.id.clone(),
            sync,
            sessions: Vec::new(),
            slots: Vec::new(),
            pending: BTreeMap::new(),
            parked_pulls: Vec::new(),
            crash_lists: BTreeMap::new(),
            applied_next: schedule.start_round,
            seeds_published: 0,
            seeds_pulled: 0,
            retired_net: NetCounters::default(),
            hub_net: NetCounters::default(),
            final_net: None,
            events_tx,
        };

        let outcome = core.run(&events_rx);
        stop.store(true, Ordering::SeqCst);
        // Unblock and retire the reader/writer threads: dropping the
        // session senders flushes queued frames and closes the links.
        for session in &mut core.sessions {
            session.out = None;
        }
        let _ = accept.join();
        outcome?;
        Ok(core.into_result())
    }
}

/// Polls the listener until told to stop, handing every fresh transport
/// to the core loop.
fn spawn_accept_thread<L: Listener + 'static>(
    mut listener: L,
    events: Sender<Event>,
    stop: Arc<AtomicBool>,
) -> thread::JoinHandle<()> {
    thread::spawn(move || {
        while !stop.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok(Some(transport)) => {
                    if events.send(Event::Connected(transport)).is_err() {
                        break;
                    }
                }
                Ok(None) => {}
                Err(_) => break,
            }
        }
    })
}

struct HubCore<'r, 'p> {
    campaign: CampaignSpec,
    table: DescTable,
    fuzzer: String,
    device_id: String,
    /// The hub, its persist sink and checkpoint cadence.
    sync: HubRound<'r, 'p>,
    sessions: Vec<Session>,
    slots: Vec<Slot>,
    /// Buffered pushes: round → shard → update.
    pending: BTreeMap<usize, BTreeMap<usize, WireUpdate>>,
    parked_pulls: Vec<ParkedPull>,
    /// Latest full crash list per shard (pushes carry the whole list,
    /// so rebuilds mirror the local engine-sourced `sync_crashes`).
    crash_lists: BTreeMap<usize, Vec<CrashRecord>>,
    /// Next round to apply (all rounds below are in the hub).
    applied_next: usize,
    seeds_published: usize,
    seeds_pulled: usize,
    /// Counters of sessions that have died (absorbed at death).
    retired_net: NetCounters,
    /// Hub-level protocol accounting: sessions accepted, duplicate
    /// messages suppressed above the frame layer.
    hub_net: NetCounters,
    /// Net totals frozen at the final round — what the final snapshot
    /// carried, kept deterministic by excluding drain traffic. Set once
    /// the campaign is done.
    final_net: Option<NetCounters>,
    events_tx: Sender<Event>,
}

impl HubCore<'_, '_> {
    fn run(&mut self, events: &Receiver<Event>) -> Result<(), NetError> {
        while self.final_net.is_none() {
            let event = events
                .recv_timeout(IDLE_TIMEOUT)
                .map_err(|_| NetError::Io("hub idle timeout: no worker activity".into()))?;
            match event {
                Event::Connected(transport) => self.on_connected(transport),
                Event::Msg { session, msg, rx } => {
                    if let Some(s) = self.sessions.get_mut(session) {
                        s.rx = rx;
                    }
                    self.on_message(session, msg);
                }
                Event::Gone { session, rx } => {
                    if let Some(s) = self.sessions.get_mut(session) {
                        s.rx = rx;
                    }
                    self.drop_session(session);
                }
            }
        }
        Ok(())
    }

    fn on_connected(&mut self, transport: Box<dyn Transport>) {
        let id = self.sessions.len();
        let (sink, source) = transport.split();
        let queue = SESSION_QUEUE.max(2 * self.campaign.shards + 2);
        let (out_tx, out_rx) = mpsc::sync_channel::<Vec<u8>>(queue);
        thread::spawn(move || {
            let mut sink = sink;
            while let Ok(frame) = out_rx.recv() {
                if sink.send_frame(&frame).is_err() {
                    break;
                }
            }
        });
        let events = self.events_tx.clone();
        thread::spawn(move || {
            let mut rx = ChannelReceiver::new(source);
            loop {
                match rx.recv() {
                    Ok(msg) => {
                        let event = Event::Msg { session: id, msg, rx: rx.counters };
                        if events.send(event).is_err() {
                            return;
                        }
                    }
                    Err(_) => {
                        let _ = events.send(Event::Gone { session: id, rx: rx.counters });
                        return;
                    }
                }
            }
        });
        self.sessions.push(Session {
            alive: true,
            out: Some(out_tx),
            next_tx_seq: 0,
            tx: NetCounters::default(),
            rx: NetCounters::default(),
            slot: None,
            relations_rev_sent: 0,
        });
    }

    /// Frames, counts, and queues one message; a full or closed queue
    /// kills the session (backpressure policy).
    fn enqueue(&mut self, session: usize, msg: &Message) {
        let Some(s) = self.sessions.get_mut(session) else { return };
        if !s.alive {
            return;
        }
        let payload = encode_message(msg);
        let frame = encode_frame(s.next_tx_seq, payload.as_bytes());
        let sent = match s.out.as_ref() {
            Some(out) => match out.try_send(frame) {
                Ok(()) => true,
                Err(TrySendError::Full(_) | TrySendError::Disconnected(_)) => false,
            },
            None => false,
        };
        if sent {
            s.next_tx_seq += 1;
            s.tx.frames_sent += 1;
            s.tx.bytes_sent += payload.len() as u64;
        } else {
            self.drop_session(session);
        }
    }

    fn drop_session(&mut self, session: usize) {
        let Some(s) = self.sessions.get_mut(session) else { return };
        if !s.alive {
            return;
        }
        s.alive = false;
        s.out = None;
        self.retired_net.absorb(&s.tx);
        self.retired_net.absorb(&s.rx);
        if let Some(slot) = s.slot.take() {
            self.slots[slot].session = None;
        }
        self.parked_pulls.retain(|p| p.session != session);
    }

    fn on_message(&mut self, session: usize, msg: Message) {
        match msg {
            Message::Hello { version, worker, shards, claim } => {
                self.on_hello(session, version, &worker, shards, claim);
            }
            Message::PushUpdate { round, update } => self.on_push(session, round, update),
            Message::PullRequest { barrier, shard, cursor, full } => {
                let pull = ParkedPull { session, barrier, shard, cursor, full };
                if pull.barrier <= self.applied_next {
                    self.answer_pull(pull);
                } else {
                    self.parked_pulls.push(pull);
                }
            }
            Message::RoundDone { round, stats, net } => {
                self.on_round_done(session, round, stats, net);
            }
            Message::Heartbeat { .. } => {}
            Message::Bye { .. } => self.drop_session(session),
            // Hub-to-worker messages arriving at the hub are protocol
            // violations; the session is not recoverable.
            Message::HelloAck { .. }
            | Message::PushAck { .. }
            | Message::PullResponse { .. }
            | Message::RoundAck { .. } => {
                self.enqueue(session, &Message::Bye { reason: "unexpected message".into() });
                self.drop_session(session);
            }
        }
    }

    fn on_hello(
        &mut self,
        session: usize,
        version: u32,
        worker: &str,
        shards: usize,
        claim: Option<usize>,
    ) {
        if version != PROTOCOL_VERSION {
            let reason = format!(
                "protocol version mismatch: hub v{PROTOCOL_VERSION}, worker {worker} v{version}"
            );
            self.enqueue(session, &Message::Bye { reason });
            self.drop_session(session);
            return;
        }
        let slot_idx = if let Some(base) = claim {
            // Reconnect: rebind the slot that owns this shard range.
            let found = self
                .slots
                .iter()
                .position(|slot| slot.base_shard == base && slot.shards == shards);
            let Some(idx) = found else {
                let reason = format!("unknown claim: base shard {base} x{shards}");
                self.enqueue(session, &Message::Bye { reason });
                self.drop_session(session);
                return;
            };
            // A stale session may still hold the slot (the hub has not
            // yet seen its death); the reconnect supersedes it.
            if let Some(old) = self.slots[idx].session.take() {
                self.drop_session(old);
            }
            idx
        } else {
            let assigned: usize = self.slots.iter().map(|s| s.shards).sum();
            let remaining = self.campaign.shards.saturating_sub(assigned);
            if shards == 0 || shards > remaining {
                let reason =
                    format!("no shard slots: requested {shards}, {remaining} remaining");
                self.enqueue(session, &Message::Bye { reason });
                self.drop_session(session);
                return;
            }
            self.slots.push(Slot {
                base_shard: assigned,
                shards,
                session: None,
                done_round: None,
                stats: BTreeMap::new(),
                net: NetCounters::default(),
            });
            self.slots.len() - 1
        };
        self.slots[slot_idx].session = Some(session);
        if let Some(s) = self.sessions.get_mut(session) {
            s.slot = Some(slot_idx);
        }
        self.hub_net.sessions += 1;
        let ack = Message::HelloAck {
            version: PROTOCOL_VERSION,
            base_shard: self.slots[slot_idx].base_shard,
            campaign: self.campaign.clone(),
        };
        self.enqueue(session, &ack);
    }

    fn on_push(&mut self, session: usize, round: usize, update: WireUpdate) {
        let shard = update.shard;
        if self.session_shard_invalid(session, shard) {
            return;
        }
        let duplicate = round < self.applied_next
            || self.pending.get(&round).is_some_and(|r| r.contains_key(&shard));
        if duplicate {
            self.hub_net.dup_frames += 1;
        } else {
            self.pending.entry(round).or_default().insert(shard, update);
        }
        self.enqueue(session, &Message::PushAck { round, shard, duplicate });
        self.apply_ready_rounds();
    }

    fn session_shard_invalid(&mut self, session: usize, shard: usize) -> bool {
        let ok = self
            .sessions
            .get(session)
            .and_then(|s| s.slot)
            .map(|i| &self.slots[i])
            .is_some_and(|slot| (slot.base_shard..slot.base_shard + slot.shards).contains(&shard));
        if !ok {
            self.enqueue(session, &Message::Bye { reason: format!("shard {shard} not yours") });
            self.drop_session(session);
        }
        !ok
    }

    /// Applies every fully-reported round in order, then releases any
    /// pulls whose barrier just landed.
    fn apply_ready_rounds(&mut self) {
        while self
            .pending
            .get(&self.applied_next)
            .is_some_and(|r| r.len() == self.campaign.shards)
        {
            let round = self.applied_next;
            let mut pushed = self.pending.remove(&round).expect("checked above");
            for (&shard, wire) in &mut pushed {
                self.crash_lists.insert(shard, std::mem::take(&mut wire.crashes));
            }
            let dbs: Vec<CrashDb> = (0..self.campaign.shards)
                .map(|shard| {
                    let mut db = CrashDb::new();
                    for record in self.crash_lists.get(&shard).map_or(&[][..], Vec::as_slice) {
                        db.merge_record(record);
                    }
                    db
                })
                .collect();
            // The shards' graphs are rebuilt on scoped threads
            // (`ServeConfig` has no thread count: one per core, at most
            // one per update), then applied in shard-id order (BTreeMap
            // iteration), as the local fleet applies its updates.
            let table = &self.table;
            let mut wires: Vec<(usize, WireUpdate)> = pushed.into_iter().collect();
            let workers = thread::available_parallelism().map_or(1, usize::from).min(wires.len());
            let chunk_len = wires.len().div_ceil(workers.max(1)).max(1);
            let graphs = on_workers(&mut wires, chunk_len, |(_, wire)| {
                wire.relations.as_ref().map(|wire| {
                    let mut graph = RelationGraph::new(table);
                    graph.import_wire(wire, table);
                    graph
                })
            });
            let updates =
                wires.into_iter().zip(graphs).map(|((shard, wire), relations)| ShardUpdate {
                    shard,
                    corpus_delta: wire.corpus_delta,
                    new_blocks: wire.new_blocks.into_iter().map(Block).collect(),
                    relations,
                });
            self.seeds_published += self.sync.apply(round, updates, &dbs);
            self.applied_next = round + 1;
        }
        let applied = self.applied_next;
        let ready: Vec<ParkedPull> =
            self.parked_pulls.extract_if(.., |p| p.barrier <= applied).collect();
        for pull in ready {
            self.answer_pull(pull);
        }
    }

    fn answer_pull(&mut self, pull: ParkedPull) {
        if self.session_shard_invalid(pull.session, pull.shard) {
            return;
        }
        let (corpus_text, cursor, delivered) = if pull.full {
            let hub = &self.sync.hub;
            (hub.corpus_text(), hub.tip(), hub.len() as u64)
        } else {
            let (text, cursor, count) = self.sync.hub.pull_corpus(pull.shard, pull.cursor);
            (text, cursor, count as u64)
        };
        self.seeds_pulled += delivered as usize;
        let rev = self.sync.hub.relations().map_or(0, RelationGraph::revision);
        let sent_rev = self.sessions[pull.session].relations_rev_sent;
        let relations = if rev > sent_rev {
            self.sessions[pull.session].relations_rev_sent = rev;
            self.sync.hub.relations().map(RelationGraph::to_wire)
        } else {
            None
        };
        let response = Message::PullResponse {
            barrier: pull.barrier,
            shard: pull.shard,
            corpus_text,
            cursor,
            delivered,
            relations,
        };
        self.enqueue(pull.session, &response);
    }

    fn on_round_done(
        &mut self,
        session: usize,
        round: usize,
        stats: Vec<WireShardStats>,
        net: NetCounters,
    ) {
        let Some(slot_idx) = self.sessions.get(session).and_then(|s| s.slot) else {
            self.drop_session(session);
            return;
        };
        let slot = &mut self.slots[slot_idx];
        if slot.done_round.is_some_and(|done| done >= round) {
            // Reconnect replay of a finalized round: just re-ack it.
            self.hub_net.dup_frames += 1;
            let continue_campaign = !self.sync.fate(round).1;
            self.enqueue(session, &Message::RoundAck { round, continue_campaign });
            return;
        }
        for stat in stats {
            slot.stats.insert(stat.shard, stat);
        }
        slot.net = net;
        slot.done_round = Some(round);
        self.finalize_ready_rounds();
    }

    /// Closes every applied round all workers have reported, in order;
    /// the next one to close is the first round not yet completed.
    fn finalize_ready_rounds(&mut self) {
        while self.final_net.is_none() {
            let round = self.sync.rounds_completed;
            let assigned: usize = self.slots.iter().map(|s| s.shards).sum();
            let all_done = assigned == self.campaign.shards
                && !self.slots.is_empty()
                && self.slots.iter().all(|s| s.done_round.is_some_and(|d| d >= round));
            if round >= self.applied_next || !all_done {
                return;
            }
            self.finalize_round(round);
        }
    }

    fn finalize_round(&mut self, round: usize) {
        let totals = self.totals();
        // The snapshot's net section carries the live wire totals, frozen
        // *before* the round-acks go out so the value is deterministic.
        let net_now = self.net_totals_now();
        let continue_campaign = self.sync.finish(round, &self.table, totals, net_now);
        let live: Vec<usize> =
            self.sessions.iter().enumerate().filter(|(_, s)| s.alive).map(|(i, _)| i).collect();
        for session in live {
            self.enqueue(session, &Message::RoundAck { round, continue_campaign });
        }
        if !continue_campaign {
            self.final_net = Some(net_now);
        }
    }

    /// Campaign-wide fault and lint-gate counters from the latest
    /// worker round reports.
    fn totals(&self) -> Totals {
        let reports = self.slots.iter().flat_map(|slot| slot.stats.values());
        self.sync.totals(reports.map(|w| (w.faults, w.lint)))
    }

    /// Current fleet-wide wire totals: resume baseline, dead-session
    /// counters, live-session counters, worker-reported counters, and
    /// the hub's own protocol accounting.
    fn net_totals_now(&self) -> NetCounters {
        let mut totals = self.sync.baseline_net();
        totals.absorb(&self.retired_net);
        for session in self.sessions.iter().filter(|s| s.alive) {
            totals.absorb(&session.tx);
            totals.absorb(&session.rx);
        }
        for slot in &self.slots {
            totals.absorb(&slot.net);
        }
        totals.absorb(&self.hub_net);
        totals
    }

    fn into_result(mut self) -> HubResult {
        let net_totals = self.final_net.unwrap_or_else(|| self.net_totals_now());
        let mut shard_stats: Vec<ShardStats> = (0..self.campaign.shards)
            .map(|shard| ShardStats { shard, ..ShardStats::default() })
            .collect();
        for w in self.slots.iter().flat_map(|slot| slot.stats.values()) {
            if let Some(s) = shard_stats.get_mut(w.shard) {
                *s = ShardStats {
                    shard: w.shard,
                    heartbeats: w.heartbeats as usize,
                    executions: w.executions,
                    clock_us: w.clock_us,
                    corpus_len: w.corpus_len,
                    coverage: w.coverage,
                    crashes: w.crashes,
                    restored_seeds: w.restored_seeds,
                    faults: w.faults,
                    lint: w.lint,
                    restarts: w.restarts,
                    quarantines: w.quarantines,
                };
            }
        }
        let executions = shard_stats.iter().map(|s| s.executions).sum();
        let shard_restarts = shard_stats.iter().map(|s| u64::from(s.restarts)).sum();
        let shard_quarantines = shard_stats.iter().map(|s| u64::from(s.quarantines)).sum();
        let (fault_totals, lint_totals) = self.totals();
        let hub = &self.sync.hub;
        let stats = FleetStats {
            sync_rounds: self.sync.rounds_completed - self.campaign.start_round,
            seeds_published: self.seeds_published,
            seeds_pulled: self.seeds_pulled,
            hub_seeds: hub.len(),
            hub_edges: hub.relations().map_or(0, RelationGraph::edge_count),
            union_coverage: hub.union_coverage(),
            workers: self.slots.len(),
            fault_totals,
            lint_totals,
            shard_restarts,
            shard_quarantines,
            snapshots_skipped: self.sync.snapshots_skipped,
            net_totals,
            events: 0,
            shards: shard_stats,
        };
        HubResult {
            device_id: self.device_id,
            fuzzer: self.fuzzer,
            crashes: hub.crashes().records().into_iter().cloned().collect(),
            union_coverage: hub.union_coverage(),
            executions,
            rounds_completed: self.sync.rounds_completed,
            clock_us: self.sync.clock_us,
            snapshot: self.sync.snapshot_text(),
            finished: self.sync.finished(),
            workers: stats.workers,
            fault_totals,
            lint_totals,
            store_totals: self.sync.store_totals(),
            net_totals,
            stats,
        }
    }
}
