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
//! hub resends its graph only when it actually changed) and are cached;
//! the cache is merged on *every* pull, exactly as local shards merge
//! `hub.relations()` every round, so the distributed campaign stays
//! bit-identical.
//!
//! The link is pipelined: each round is one *request window*. The worker
//! sends every shard's `PushUpdate` and then every shard's `PullRequest`
//! (barrier `round + 1`) back to back, and only then collects the
//! answers, matching each `PushAck` by `(round, shard)` and each
//! `PullResponse` by `(barrier, shard)`. The hub parks the pulls until
//! the round is applied, so one window costs one round trip instead of
//! one per message. The start-of-campaign restore pulls are one window
//! too. `RoundDone` stays its own request, sent once the pull answers are
//! applied and heal has run. The shard work around the link runs on the
//! worker pool: pushes are built there (the relation graph's wire form
//! included) and the pull answers are applied there once the last one is
//! in — the split the local fleet uses for its pulls and restores.
//!
//! The supervisor's backoff/quarantine taxonomy extends to the link:
//! any send/recv failure retires the connection, and the worker
//! re-dials with capped exponential backoff, reclaiming its shard
//! range with `Hello { claim }`. It then resends, in order, every
//! message of the window that has no answer yet — safe because the hub
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

use super::codec::{
    table_digest, CampaignSpec, Message, WireShardStats, WireUpdate, PROTOCOL_VERSION,
};
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
    /// (revision-gated) graph and merged on every pull — the same graph
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

    /// Sends a request window and returns one answer per request, in
    /// request order. The requests go out back to back before any answer
    /// is read; answers are matched to requests whatever order they come
    /// in. On any link failure the worker reconnects and resends, in
    /// order, every request still unanswered (the hub deduplicates pushes
    /// and round reports; pulls are pure reads). Residual messages from a
    /// reconnect replay — e.g. a second `RoundAck` when the round-done
    /// raced the fleet-wide barrier broadcast — are counted as duplicates
    /// and skipped.
    fn exchange(&mut self, requests: &[Message]) -> Result<Vec<Message>, NetError> {
        let mut answers: Vec<Option<Message>> = requests.iter().map(|_| None).collect();
        let mut open = requests.len();
        'attempt: while open > 0 {
            if self.channel.is_none() {
                self.reconnect()?;
            }
            let ch = self.channel.as_mut().expect("just reconnected");
            let unanswered = requests.iter().zip(&answers).filter(|(_, a)| a.is_none());
            if unanswered.map(|(request, _)| ch.send(request)).any(|sent| sent.is_err()) {
                self.retire_channel();
                continue 'attempt;
            }
            while open > 0 {
                match self.channel.as_mut().expect("live channel").recv() {
                    Ok(Message::Bye { reason }) => {
                        self.retire_channel();
                        return Err(NetError::Protocol(format!("hub closed session: {reason}")));
                    }
                    Ok(answer) => {
                        let slot = requests
                            .iter()
                            .zip(&answers)
                            .position(|(request, a)| a.is_none() && answers_to(request, &answer));
                        match slot {
                            Some(i) => {
                                answers[i] = Some(answer);
                                open -= 1;
                            }
                            None => self.retired.dup_frames += 1,
                        }
                    }
                    Err(_) => {
                        self.retire_channel();
                        continue 'attempt;
                    }
                }
            }
        }
        Ok(answers.into_iter().map(|a| a.expect("every request answered")).collect())
    }

    /// The corpus part of each pull answer, ready to apply; a fresh hub
    /// graph in any of them replaces the cached one. Applying them after
    /// the last answer is the same as applying each on arrival: the hub
    /// graph only changes when a round is applied, and the hub cannot
    /// apply the next round before these shards push it, so every answer
    /// at one barrier carries the same graph.
    fn pull_answers(
        &mut self,
        answers: impl IntoIterator<Item = Message>,
        table: &DescTable,
    ) -> Vec<(String, u64, u64)> {
        answers
            .into_iter()
            .map(|answer| {
                let Message::PullResponse { corpus_text, cursor, delivered, relations, .. } =
                    answer
                else {
                    unreachable!("matched as a pull answer")
                };
                if let Some(wire) = relations {
                    let mut graph = RelationGraph::new(table);
                    graph.import_wire(&wire, table);
                    self.hub_graph = Some(graph);
                }
                (corpus_text, cursor, delivered)
            })
            .collect()
    }

    /// Fire-and-forget close; the campaign is already complete.
    fn bye(&mut self, reason: &str) {
        if let Some(ch) = self.channel.as_mut() {
            let _ = ch.send(&Message::Bye { reason: reason.into() });
        }
        self.retire_channel();
    }
}

/// Whether `answer` is the hub's reply to `request`: a push is acked by
/// `(round, shard)`, a pull answered by `(barrier, shard)` and a round
/// report by its round.
fn answers_to(request: &Message, answer: &Message) -> bool {
    match (request, answer) {
        (Message::PushUpdate { round, update }, Message::PushAck { round: r, shard, .. }) => {
            r == round && *shard == update.shard
        }
        (
            Message::PullRequest { barrier, shard, .. },
            Message::PullResponse { barrier: b, shard: s, .. },
        ) => b == barrier && s == shard,
        (Message::RoundDone { round, .. }, Message::RoundAck { round: r, .. }) => r == round,
        _ => false,
    }
}

/// `shard`'s pull at `barrier`: from its cursor, or the whole hub corpus
/// when `full`.
fn pull_request(barrier: usize, shard: &Shard, full: bool) -> Message {
    let cursor = if full { 0 } else { shard.cursor() };
    Message::PullRequest { barrier, shard: shard.id, cursor, full }
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
        if table_digest(&table) != campaign.table_digest {
            link.bye("description table mismatch");
            return Err(NetError::Protocol(format!(
                "hub description table digest {:x} differs from ours {:x}",
                campaign.table_digest,
                table_digest(&table)
            )));
        }
        let mut restored = vec![0usize; local];
        let mut pulled = vec![0u64; local];
        let mut heartbeats = vec![0u64; local];

        // Initial restore: what `restore_from_hub` does locally, over
        // the wire. On a fresh campaign the hub is empty and this is a
        // no-op import; on resume it delivers the snapshot corpus.
        if campaign.sync {
            let pulls: Vec<Message> = pool
                .shards
                .iter()
                .map(|shard| pull_request(schedule.start_round, shard, false))
                .collect();
            let answers = link.exchange(&pulls)?;
            let mut answers = link.pull_answers(answers, &table);
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

            // One window: every shard's update, built on the pool (the
            // hub applies them in global shard-id order once all fleet
            // shards have reported), then every shard's pull of the peers'
            // seeds published this round (barrier `round + 1`: the hub
            // answers once the round is applied).
            let mut window: Vec<Message> = pool.each_with(&mut updates, |shard, update| {
                let update = WireUpdate {
                    shard: update.shard,
                    corpus_delta: std::mem::take(&mut update.corpus_delta),
                    new_blocks: update.new_blocks.iter().map(|b| b.0).collect(),
                    relations: update.relations.as_ref().map(RelationGraph::to_wire),
                    crashes: shard.engine().crash_db().records().into_iter().cloned().collect(),
                };
                Message::PushUpdate { round, update }
            });
            if campaign.sync {
                window.extend(pool.shards.iter().map(|shard| pull_request(round + 1, shard, false)));
            }
            let answers = link.exchange(&window)?;

            // Apply the pull answers on the pool.
            if campaign.sync {
                let answers = answers.into_iter().skip(local);
                let mut answers = link.pull_answers(answers, &table);
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
                let answer = link.exchange(&[pull_request(round + 1, shard, true)])?;
                let (text, cursor, _) = link.pull_answers(answer, &table).remove(0);
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
            let ack = link.exchange(&[done])?.remove(0);
            let Message::RoundAck { continue_campaign, .. } = ack else {
                unreachable!("matched as a round ack")
            };
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
