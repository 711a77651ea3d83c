//! The worker runtime: N local shards against a remote hub.
//!
//! [`WorkerRuntime::run`] drives the fleet's shared shard round — the
//! same boot, slice and self-heal a local [`Fleet`] runs — with the hub
//! on the far side of a [`Connector`]. The worker boots its engines from
//! the [`CampaignSpec`] the hub hands back in `HelloAck` and replaces the
//! in-process hub calls with their wire twins: `prepare_update` →
//! `PushUpdate`, `pull` → `PullRequest` + [`Shard::apply_pull`], and a
//! restarted shard's `restore_all_from_hub` → a `full` pull +
//! [`Shard::apply_restore`]. Relation graphs arrive revision-gated (the
//! hub resends its export only when the graph actually changed) and are
//! cached; the cache is merged on *every* pull, exactly as local shards
//! merge `hub.relations()` every round, so the distributed campaign stays
//! bit-identical.
//!
//! The link is serial, the shard work is not: each round's pushes are
//! built on the worker pool (the relation graph's text export
//! included), and the pull answers, which arrive over the link one
//! after another in shard order, are applied on the pool once the last
//! one is in. The start-of-campaign restores run the same way. This is
//! the split the local fleet uses for its pulls and restores.
//!
//! The supervisor's backoff/quarantine taxonomy extends to the link:
//! any send/recv failure retires the connection, and the worker
//! re-dials with capped exponential backoff, reclaiming its shard
//! range with `Hello { claim }`. Every protocol step is then replayed
//! from its first unacknowledged message — safe because the hub
//! deduplicates pushes and round reports, and pulls are pure reads.
//!
//! [`Fleet`]: crate::fleet::Fleet
//! [`Shard::apply_pull`]: crate::fleet::Shard::apply_pull
//! [`Shard::apply_restore`]: crate::fleet::Shard::apply_restore

use std::thread;
use std::time::Duration;

use fuzzlang::desc::DescTable;
use simdevice::catalog;
use simdevice::FirmwareSpec;

use super::codec::{CampaignSpec, Message, WireShardStats, WireUpdate, PROTOCOL_VERSION};
use super::transport::{Channel, Connector};
use super::{NetCounters, NetError};
use crate::fleet::{FleetStats, Schedule, Shard, ShardRound};
use crate::relation::RelationGraph;

/// Worker knobs — everything else comes from the hub's campaign spec.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Local shards to run (the hub assigns the global id range).
    pub shards: usize,
    /// Worker threads per slice: `0` = one per shard, otherwise clamped
    /// to `[1, shards]`. Any value is bit-identical (same contract as
    /// [`FleetConfig::threads`]).
    ///
    /// [`FleetConfig::threads`]: crate::fleet::FleetConfig::threads
    pub threads: usize,
    /// Worker name, for the hub's diagnostics.
    pub name: String,
    /// Reconnect attempts before the campaign is abandoned.
    pub max_link_retries: u32,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        Self { shards: 1, threads: 0, name: "worker".into(), max_link_retries: 10 }
    }
}

/// Campaign outcome from one worker's perspective.
#[derive(Debug, Clone)]
pub struct WorkerResult {
    /// First global shard id this worker ran.
    pub base_shard: usize,
    /// Local shard count.
    pub shards: usize,
    /// Sync rounds this worker completed (including pre-resume).
    pub rounds_completed: usize,
    /// Executions across this worker's shards (this run).
    pub executions: u64,
    /// Whether the hub declared the campaign complete (`false` after a
    /// kill-after-rounds stop).
    pub finished: bool,
    /// Metrics drained from the worker-local event bus (indexed by
    /// *global* shard id; remote shards stay zeroed).
    pub stats: FleetStats,
    /// This worker's wire counters (also reported to the hub with
    /// every `RoundDone`).
    pub net_totals: NetCounters,
}

/// The hub connection with reconnect/replay semantics.
struct Link {
    connector: Box<dyn Connector>,
    channel: Option<Channel>,
    /// Counters of retired (failed) channels plus link bookkeeping.
    retired: NetCounters,
    name: String,
    shards: usize,
    /// Set after the first `HelloAck`; re-sent as `claim` on reconnect.
    base_shard: Option<usize>,
    max_link_retries: u32,
    /// The hub relation graph, rebuilt whenever the hub resends its
    /// (revision-gated) export and merged on every pull — the same graph
    /// value local shards see in `hub.relations()`.
    hub_graph: Option<RelationGraph>,
}

impl Link {
    /// Current cumulative wire counters (retired + live channel).
    fn counters(&self) -> NetCounters {
        let mut totals = self.retired;
        if let Some(ch) = &self.channel {
            totals.absorb(&ch.counters());
        }
        totals
    }

    fn retire_channel(&mut self) {
        if let Some(ch) = self.channel.take() {
            self.retired.absorb(&ch.counters());
        }
    }

    /// One dial + handshake attempt. On success the channel is live and
    /// the campaign spec is returned.
    fn handshake(&mut self) -> Result<CampaignSpec, NetError> {
        let transport = self.connector.connect()?;
        let mut ch = Channel::new(transport);
        let hello = Message::Hello {
            version: PROTOCOL_VERSION,
            worker: self.name.clone(),
            shards: self.shards,
            claim: self.base_shard,
        };
        let outcome = ch.send(&hello).and_then(|()| ch.recv());
        let result = match outcome {
            Ok(Message::HelloAck { version, base_shard, campaign }) => {
                if version != PROTOCOL_VERSION {
                    Err(NetError::Version { ours: PROTOCOL_VERSION, theirs: version })
                } else if self.base_shard.is_some_and(|claimed| claimed != base_shard) {
                    Err(NetError::Protocol(format!(
                        "hub reassigned base shard {base_shard}, claimed {:?}",
                        self.base_shard
                    )))
                } else {
                    self.base_shard = Some(base_shard);
                    Ok(campaign)
                }
            }
            Ok(Message::Bye { reason }) => Err(NetError::Protocol(format!("hub refused: {reason}"))),
            Ok(other) => {
                Err(NetError::Protocol(format!("expected hello-ack, got {other:?}")))
            }
            Err(e) => Err(e),
        };
        match result {
            Ok(campaign) => {
                self.channel = Some(ch);
                Ok(campaign)
            }
            Err(e) => {
                self.retired.absorb(&ch.counters());
                Err(e)
            }
        }
    }

    /// Re-dials with capped exponential backoff until the handshake
    /// lands or the retry budget is spent. Returns the (re-confirmed)
    /// campaign spec.
    fn reconnect(&mut self) -> Result<CampaignSpec, NetError> {
        self.retire_channel();
        let mut delay = Duration::from_millis(10);
        let mut last = NetError::Closed;
        for _ in 0..self.max_link_retries.max(1) {
            self.retired.link_retries += 1;
            match self.handshake() {
                Ok(campaign) => {
                    self.retired.reconnects += 1;
                    return Ok(campaign);
                }
                Err(e) => last = e,
            }
            thread::sleep(delay);
            delay = (delay * 2).min(Duration::from_millis(500));
        }
        Err(NetError::Io(format!(
            "reconnect failed after {} retries: {last}",
            self.max_link_retries.max(1)
        )))
    }

    /// Sends `msg` and awaits the answer `expect` recognizes,
    /// transparently reconnecting and replaying on any link failure
    /// (the hub deduplicates pushes and round reports; pulls are pure
    /// reads). Residual messages from a reconnect replay — e.g. a
    /// second `RoundAck` when the round-done raced the fleet-wide
    /// barrier broadcast — are counted as duplicates and skipped.
    fn request_where(
        &mut self,
        msg: &Message,
        expect: impl Fn(&Message) -> bool,
    ) -> Result<Message, NetError> {
        'attempt: loop {
            if self.channel.is_none() {
                self.reconnect()?;
            }
            let ch = self.channel.as_mut().expect("just reconnected");
            if ch.send(msg).is_err() {
                self.retire_channel();
                continue 'attempt;
            }
            loop {
                match self.channel.as_mut().expect("live channel").recv() {
                    Ok(response) if expect(&response) => return Ok(response),
                    Ok(Message::Bye { reason }) => {
                        self.retire_channel();
                        return Err(NetError::Protocol(format!("hub closed session: {reason}")));
                    }
                    Ok(_replay_residue) => {
                        self.retired.dup_frames += 1;
                    }
                    Err(_) => {
                        self.retire_channel();
                        continue 'attempt;
                    }
                }
            }
        }
    }

    /// One push step: replayed through reconnects until acknowledged.
    fn push(&mut self, round: usize, wire: WireUpdate) -> Result<(), NetError> {
        let shard = wire.shard;
        let msg = Message::PushUpdate { round, update: wire };
        self.request_where(&msg, |m| {
            matches!(m, Message::PushAck { round: r, shard: s, .. } if *r == round && *s == shard)
        })?;
        Ok(())
    }

    /// One pull step for `shard` (from its cursor, or the whole hub
    /// corpus when `full`): updates the cached hub relation graph when
    /// the hub sent a fresh export, then hands back the corpus answer.
    fn pull(
        &mut self,
        barrier: usize,
        shard: &Shard,
        full: bool,
        table: &DescTable,
    ) -> Result<(String, u64, u64), NetError> {
        let (shard, cursor) = (shard.id, if full { 0 } else { shard.cursor() });
        let msg = Message::PullRequest { barrier, shard, cursor, full };
        let response = self.request_where(&msg, |m| {
            matches!(
                m,
                Message::PullResponse { barrier: b, shard: s, .. } if *b == barrier && *s == shard
            )
        })?;
        let Message::PullResponse { corpus_text, cursor, delivered, relations_text, .. } =
            response
        else {
            unreachable!()
        };
        if let Some(text) = relations_text {
            let mut graph = RelationGraph::new(table);
            graph.import(&text, table);
            self.hub_graph = Some(graph);
        }
        Ok((corpus_text, cursor, delivered))
    }

    /// One pull per shard at `barrier`, in shard order: the corpus
    /// answers, ready to apply. Applying them after the last answer is
    /// the same as applying each on arrival: the hub graph only changes
    /// when a round is applied, and the hub cannot apply the next round
    /// before these shards push it, so every answer at one barrier
    /// carries the same graph.
    fn pull_each(
        &mut self,
        barrier: usize,
        shards: &[Shard],
        table: &DescTable,
    ) -> Result<Vec<(String, u64, u64)>, NetError> {
        shards.iter().map(|shard| self.pull(barrier, shard, false, table)).collect()
    }

    /// Fire-and-forget close; the campaign is already complete.
    fn bye(&mut self, reason: &str) {
        if let Some(ch) = self.channel.as_mut() {
            let _ = ch.send(&Message::Bye { reason: reason.into() });
        }
        self.retire_channel();
    }
}

/// Runs this host's slice of a distributed campaign against a hub.
pub struct WorkerRuntime {
    cfg: WorkerConfig,
}

impl WorkerRuntime {
    /// A runtime for `cfg` (shard count clamped to at least 1).
    pub fn new(cfg: WorkerConfig) -> Self {
        let shards = cfg.shards.max(1);
        Self { cfg: WorkerConfig { shards, ..cfg } }
    }

    /// Connects, claims a shard range, and runs the campaign to the
    /// hub's `RoundAck { continue_campaign: false }`.
    pub fn run(&self, connector: Box<dyn Connector>) -> Result<WorkerResult, NetError> {
        let mut link = Link {
            connector,
            channel: None,
            retired: NetCounters::default(),
            name: self.cfg.name.clone(),
            shards: self.cfg.shards,
            base_shard: None,
            max_link_retries: self.cfg.max_link_retries,
            hub_graph: None,
        };
        let campaign = match link.handshake() {
            Ok(campaign) => campaign,
            // The very first dial also deserves the backoff loop (a hub
            // still binding its socket), but a refusal is final.
            Err(e @ (NetError::Protocol(_) | NetError::Version { .. })) => return Err(e),
            Err(_) => link.reconnect()?,
        };
        let base_shard = link.base_shard.expect("handshake sets base");
        let spec = catalog::by_id(&campaign.device).ok_or_else(|| {
            NetError::Protocol(format!("hub campaign names unknown device {:?}", campaign.device))
        })?;
        if campaign.engine_config(0).is_none() {
            return Err(NetError::Protocol(format!(
                "hub campaign names unknown variant {:?}",
                campaign.variant
            )));
        }
        self.run_campaign(&mut link, &campaign, &spec, base_shard)
    }

    fn run_campaign(
        &self,
        link: &mut Link,
        campaign: &CampaignSpec,
        spec: &FirmwareSpec,
        base_shard: usize,
    ) -> Result<WorkerResult, NetError> {
        let start = (campaign.start_round, campaign.clock_us);
        let schedule = Schedule::new(campaign.hours, campaign.sync_interval_hours, start);
        let local = self.cfg.shards;
        let make_config = |s: u64| campaign.engine_config(s).expect("variant validated");
        let ids = base_shard..base_shard + local;
        let threads = self.cfg.threads;
        let mut pool =
            ShardRound::boot(spec, &make_config, ids, threads, campaign.flap_limit, schedule);
        let table = pool.shards[0].engine().desc_table().clone();
        let mut restored = vec![0usize; local];
        let mut pulled = vec![0u64; local];
        let mut heartbeats = vec![0u64; local];

        // Initial restore: what `restore_from_hub` does locally, over
        // the wire. On a fresh campaign the hub is empty and this is a
        // no-op import; on resume it delivers the snapshot corpus.
        if campaign.sync {
            let mut answers = link.pull_each(schedule.start_round, &pool.shards, &table)?;
            let graph = link.hub_graph.as_ref();
            restored = pool.each_with(&mut answers, |shard, (text, cursor, _)| {
                shard.apply_restore(text, *cursor, graph)
            });
        } else {
            pool.announce();
        }

        let mut rounds_completed = schedule.start_round;
        let mut finished = false;

        for round in schedule.rounds() {
            for (beats, shard) in heartbeats.iter_mut().zip(&pool.shards) {
                *beats += u64::from(!shard.is_quarantined(round));
            }
            let mut updates = pool.slice(round);

            // Push every shard's update, built on the pool; the hub
            // applies them in global shard-id order once all fleet
            // shards have reported.
            let wires = pool.each_with(&mut updates, |shard, update| WireUpdate {
                shard: update.shard,
                corpus_delta: std::mem::take(&mut update.corpus_delta),
                new_blocks: update.new_blocks.iter().map(|b| b.0).collect(),
                relations_text: update.relations.as_ref().map(|g| g.export(&table)),
                crashes: shard.engine().crash_db().records().into_iter().cloned().collect(),
            });
            for wire in wires {
                link.push(round, wire)?;
            }

            // Pull the peers' seeds published this round (barrier
            // `round + 1`: the hub answers once the round is applied),
            // then apply the answers on the pool.
            if campaign.sync {
                let mut answers = link.pull_each(round + 1, &pool.shards, &table)?;
                let graph = link.hub_graph.as_ref();
                let accepted = pool.each_with(&mut answers, |shard, (text, cursor, delivered)| {
                    shard.apply_pull(text, *cursor, *delivered as usize, graph)
                });
                for (pulled, accepted) in pulled.iter_mut().zip(accepted) {
                    *pulled += accepted as u64;
                }
            }

            // A restarted shard re-primes from the whole hub corpus: a
            // `full` pull at the same barrier.
            pool.heal(round, |shard| {
                let (text, cursor, _) = link.pull(round + 1, shard, true, &table)?;
                shard.apply_restore(&text, cursor, link.hub_graph.as_ref());
                Ok::<(), NetError>(())
            })?;
            rounds_completed = round + 1;

            // Sync barrier: report telemetry, wait for the fleet-wide
            // ack, and learn whether the campaign goes on.
            let stats: Vec<WireShardStats> = pool
                .shards
                .iter()
                .enumerate()
                .map(|(i, shard)| WireShardStats {
                    shard: shard.id,
                    heartbeats: heartbeats[i],
                    executions: shard.total_executions(),
                    clock_us: shard.global_clock_us(),
                    corpus_len: shard.engine().corpus().len(),
                    coverage: shard.engine().kernel_coverage(),
                    crashes: shard.engine().crash_db().len(),
                    restored_seeds: restored[i],
                    restarts: shard.restarts(),
                    quarantines: shard.quarantines(),
                    pulled: pulled[i],
                    faults: shard.fault_totals(),
                    lint: shard.lint_totals(),
                })
                .collect();
            let net = link.counters();
            let done = Message::RoundDone { round, stats, net };
            let ack = link.request_where(&done, |m| {
                matches!(m, Message::RoundAck { round: acked, .. } if *acked == round)
            })?;
            let Message::RoundAck { continue_campaign, .. } = ack else { unreachable!() };
            if !continue_campaign {
                finished = rounds_completed == schedule.total_rounds;
                break;
            }
        }

        link.bye("campaign complete");
        let net_totals = link.counters();
        let mut stats = pool.finish(campaign.shards);
        stats.net_totals = net_totals;
        Ok(WorkerResult {
            base_shard,
            shards: local,
            rounds_completed,
            executions: pool.shards.iter().map(Shard::total_executions).sum(),
            finished,
            stats,
            net_totals,
        })
    }
}
