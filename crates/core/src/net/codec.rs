//! The wire codec: length-prefixed, CRC-framed messages.
//!
//! Frames are the write-ahead journal's record framing byte for byte
//! (`rec <seq> <len> <crc32 hex>\n<payload>\n`, one shared `frame`
//! module), so a captured stream is auditable by `droidfuzz-lint` with
//! the same machinery that audits WALs. A stream capture file is
//! [`NET_STREAM_HEADER`] followed by frames with strictly sequential
//! per-connection sequence numbers:
//!
//! ```text
//! # droidfuzz-net stream v1
//! rec 0 24 1a2b3c4d
//! msg hello
//! version 1
//! ...
//! ```
//!
//! Message payloads are line-oriented `key value` text (first line
//! `msg <kind>`), with embedded strings escaped exactly like snapshot
//! fields. Unknown keys are tolerated on decode (forward compatibility);
//! missing required keys, bad numbers, torn frames, oversized lengths,
//! and checksum mismatches each surface as their own typed
//! [`NetError`] and feed their own [`NetCounters`] key.
//!
//! Protocol v2 carries relation graphs as data, not as export text: the
//! `relations` field of a push or pull answer is `-` (no graph) or one
//! line of the learn count and the edges as hex id/id/weight-bits
//! triples ([`WireGraph`]),
//!
//! ```text
//! relations learns=42 3,1f,3fe0000000000000 4,2,3fd0000000000000
//! ```
//!
//! Ids index the description table, so the `HelloAck` campaign carries
//! a digest of the table's names ([`table_digest`]) and a worker whose
//! table differs refuses the session. A malformed triple fails the
//! message like any other malformed field; ids and weights are checked
//! against the table when the graph is rebuilt
//! ([`RelationGraph::import_wire`]).
//!
//! [`RelationGraph::import_wire`]: crate::relation::RelationGraph::import_wire

use super::{NetCounters, NetError};
use crate::config::FuzzerConfig;
use crate::crashes::CrashRecord;
use crate::fleet::snapshot::{crash_fields, escape, escape_into, parse_crash_line, unescape};
use crate::frame::{self, FrameError};
use crate::relation::WireGraph;
use crate::supervisor::FaultCounters;
use droidfuzz_analysis::counters::{parse_tokens, CounterFamily};
use droidfuzz_analysis::LintCounters;
use fuzzlang::desc::DescTable;
use std::fmt::Write;

/// First line of a captured net stream (one direction of one
/// connection) — what `droidfuzz-lint` keys its audit on.
pub const NET_STREAM_HEADER: &str = "# droidfuzz-net stream v1";

/// Protocol version carried in `Hello`/`HelloAck`. Peers with different
/// versions refuse the session with [`NetError::Version`].
pub const PROTOCOL_VERSION: u32 = 2;

/// Upper bound on a frame's declared payload length. A header declaring
/// more is rejected before any allocation ([`NetError::Oversized`]).
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Everything a worker needs to run its slice of the campaign
/// bit-identically to the hub's local `--threads` path: the firmware
/// target, the engine-config recipe, and the fleet clock position.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Table I device id (`A1`, `E`, ...).
    pub device: String,
    /// Fuzzer variant label (`droidfuzz`, `norel`, ...).
    pub variant: String,
    /// Base campaign seed; shard `i` boots with `seed + i + 1`.
    pub seed: u64,
    /// Campaign length in virtual hours.
    pub hours: f64,
    /// Virtual hours between sync rounds.
    pub sync_interval_hours: f64,
    /// Whether shards pull peer seeds from the hub.
    pub sync: bool,
    /// Total shard count across all workers.
    pub shards: usize,
    /// Hub live-seed capacity (workers mirror it locally).
    pub hub_capacity: usize,
    /// Consecutive device losses before quarantine.
    pub flap_limit: u32,
    /// Round the campaign (re)starts from (resume support).
    pub start_round: usize,
    /// Fleet clock at `start_round`, µs.
    pub clock_us: u64,
    /// [`table_digest`] of the hub's description table: relation graphs
    /// travel as description ids, which mean the same calls only on
    /// equal tables.
    pub table_digest: u64,
}

/// FNV-1a digest of a description table's names in id order (each name
/// length-prefixed), the identity of the id space wire graphs use.
pub fn table_digest(table: &DescTable) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for (_, desc) in table.iter() {
        let name = desc.name.as_bytes();
        for &byte in (name.len() as u64).to_le_bytes().iter().chain(name) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

impl CampaignSpec {
    /// The engine config for absolute engine seed `s` — the same recipe
    /// the CLI's variant table uses. `None` for an unknown variant.
    pub fn engine_config(&self, s: u64) -> Option<FuzzerConfig> {
        variant_config(&self.variant, self.seed.wrapping_add(s))
    }
}

/// The CLI's variant table as a reusable lookup: the config behind a
/// variant label, or `None` for an unknown label.
pub fn variant_config(variant: &str, seed: u64) -> Option<FuzzerConfig> {
    Some(match variant {
        "droidfuzz" => FuzzerConfig::droidfuzz(seed),
        "norel" => FuzzerConfig::droidfuzz_norel(seed),
        "nohcov" => FuzzerConfig::droidfuzz_nohcov(seed),
        "droidfuzz-d" => FuzzerConfig::droidfuzz_d(seed),
        "syzkaller" => FuzzerConfig::syzkaller(seed),
        "difuze" => FuzzerConfig::difuze(seed),
        _ => return None,
    })
}

/// A [`crate::fleet::ShardUpdate`] in wire form: the relation graph
/// travels as a [`WireGraph`] (rebuilt against the receiver's
/// [`DescTable`]) and the shard's full crash-record list rides along so
/// the hub can run crash sync exactly like the local orchestrator.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WireUpdate {
    /// Global shard id.
    pub shard: usize,
    /// Corpus delta since the shard's publish cursor.
    pub corpus_delta: String,
    /// Newly observed coverage block ids.
    pub new_blocks: Vec<u64>,
    /// The shard's relation graph, present only when its revision moved
    /// since its last publish.
    pub relations: Option<WireGraph>,
    /// The shard's full deduplicated crash list (stable
    /// first-seen order).
    pub crashes: Vec<CrashRecord>,
}

/// Cumulative per-shard telemetry reported at each sync barrier — the
/// wire form of [`crate::fleet::ShardStats`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WireShardStats {
    /// Global shard id.
    pub shard: usize,
    /// Heartbeats (slices) the shard has run.
    pub heartbeats: u64,
    /// Test cases executed.
    pub executions: u64,
    /// Shard-local virtual clock, µs.
    pub clock_us: u64,
    /// Seeds in the shard corpus.
    pub corpus_len: usize,
    /// Distinct kernel blocks observed.
    pub coverage: usize,
    /// Distinct crashes in the shard database.
    pub crashes: usize,
    /// Seeds restored from the hub at start.
    pub restored_seeds: usize,
    /// Lost-device restarts performed.
    pub restarts: u32,
    /// Flap quarantines imposed.
    pub quarantines: u32,
    /// Seeds pulled from the hub this round.
    pub pulled: u64,
    /// Cumulative fault/recovery counters.
    pub faults: FaultCounters,
    /// Cumulative lint-gate counters.
    pub lint: LintCounters,
}

impl WireShardStats {
    /// The counter families the stat line carries, as `<tag>.<key>` tokens.
    fn counters(&self) -> [&dyn CounterFamily; 2] {
        [&self.faults, &self.lint]
    }

    fn counters_mut(&mut self) -> [&mut dyn CounterFamily; 2] {
        [&mut self.faults, &mut self.lint]
    }
}

/// One protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Worker → hub: session open. `claim` resumes a previous shard
    /// range after a reconnect.
    Hello {
        /// Speaker's protocol version.
        version: u32,
        /// Worker name (diagnostics only).
        worker: String,
        /// Local shard count the worker wants to run.
        shards: usize,
        /// Base shard id to re-claim after a reconnect.
        claim: Option<usize>,
    },
    /// Hub → worker: session accepted; here is your shard range and the
    /// campaign to run.
    HelloAck {
        /// Hub's protocol version.
        version: u32,
        /// First global shard id assigned to this worker.
        base_shard: usize,
        /// The campaign the worker must run.
        campaign: CampaignSpec,
    },
    /// Worker → hub: one shard's batched update for a sync round.
    PushUpdate {
        /// Sync round the update belongs to.
        round: usize,
        /// The update.
        update: WireUpdate,
    },
    /// Hub → worker: the push was received (and possibly detected as a
    /// reconnect replay).
    PushAck {
        /// Echoed round.
        round: usize,
        /// Echoed shard id.
        shard: usize,
        /// Whether this was a replay of an already-applied push.
        duplicate: bool,
    },
    /// Worker → hub: a shard's seq-cursor pull. Answered once the hub
    /// has applied `barrier` rounds; `full` requests the entire live
    /// corpus (lost-device restore).
    PullRequest {
        /// Rounds the hub must have applied before answering.
        barrier: usize,
        /// Global shard id pulling.
        shard: usize,
        /// The shard's hub-seq cursor.
        cursor: u64,
        /// Whether to send the full live corpus instead of the delta.
        full: bool,
    },
    /// Hub → worker: the pull answer.
    PullResponse {
        /// Echoed barrier.
        barrier: usize,
        /// Echoed shard id.
        shard: usize,
        /// Seed text (delta or full corpus).
        corpus_text: String,
        /// New cursor for the shard.
        cursor: u64,
        /// Seeds delivered in `corpus_text`.
        delivered: u64,
        /// The hub relation graph, present only when its revision moved
        /// since this session last received it.
        relations: Option<WireGraph>,
    },
    /// Worker → hub: all local shards finished the round (pushes acked,
    /// pulls applied); telemetry attached.
    RoundDone {
        /// The round.
        round: usize,
        /// Per-shard cumulative telemetry.
        stats: Vec<WireShardStats>,
        /// The worker's wire counters (absorbed into hub totals).
        net: NetCounters,
    },
    /// Hub → worker: the round is finalized fleet-wide; proceed.
    RoundAck {
        /// The finalized round.
        round: usize,
        /// `false` when the campaign is over (or killed) — drain and
        /// disconnect.
        continue_campaign: bool,
    },
    /// Reconnect probe (never timer-driven: frame counts stay
    /// deterministic).
    Heartbeat {
        /// Last round the sender completed.
        round: usize,
    },
    /// Clean session close.
    Bye {
        /// Human-readable reason.
        reason: String,
    },
}

// ---------------------------------------------------------------------
// Frame layer
// ---------------------------------------------------------------------

pub use crate::frame::encode as encode_frame;

impl From<FrameError> for NetError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::TruncatedHeader => NetError::Truncated("frame header".into()),
            FrameError::NonUtf8Header => NetError::Garbage("non-utf8 frame header".into()),
            FrameError::BadHeader(line) => NetError::Garbage(format!("bad frame header {line:?}")),
            FrameError::Oversized(len) => NetError::Oversized(len as u64),
            FrameError::TruncatedPayload { declared, have } => {
                NetError::Truncated(format!("payload: declared {declared}, have {have}"))
            }
            FrameError::Crc { expected, found } => NetError::Crc { expected, found },
            FrameError::MissingTerminator => NetError::Garbage("missing frame terminator".into()),
        }
    }
}

/// Validates one frame at the start of `bytes` and returns
/// `(seq, payload, bytes consumed)`. The sequence number is returned,
/// not checked — duplicate/ordering policy belongs to the session
/// layer.
pub fn decode_frame(bytes: &[u8]) -> Result<(u64, Vec<u8>, usize), NetError> {
    let frame = frame::decode(bytes, MAX_FRAME_LEN)?;
    Ok((frame.seq, frame.payload.to_vec(), frame.len))
}

// ---------------------------------------------------------------------
// Message layer
// ---------------------------------------------------------------------

/// Appends the `key value` line of a large text field, escaped in place.
fn text_line(out: &mut String, key: &str, value: &str) {
    out.push_str(key);
    out.push(' ');
    escape_into(out, value);
    out.push('\n');
}

/// The `relations` line: `-` without a graph, otherwise
/// `learns=<n>` and one `<from>,<to>,<weight bits>` hex triple per edge.
fn relations_line(out: &mut String, graph: Option<&WireGraph>) {
    out.push_str("relations");
    match graph {
        None => out.push_str(" -"),
        Some(graph) => {
            write!(out, " learns={}", graph.learn_events).expect("write to String");
            out.reserve(graph.edges.len() * 24);
            for &(from, to, bits) in &graph.edges {
                out.push(' ');
                push_hex(out, from as u64);
                out.push(',');
                push_hex(out, to as u64);
                out.push(',');
                push_hex(out, bits);
            }
        }
    }
    out.push('\n');
}

/// Appends `value` in lowercase hex without leading zeros, as `{:x}`
/// writes it. A graph's triples are most of a pull answer: written with
/// `write!(out, " {from:x},{to:x},{bits:x}")` the 1,702-edge
/// `sync_hot_paths` graph encodes in about 230 µs, with this in about
/// 125 µs (2 vCPUs).
fn push_hex(out: &mut String, value: u64) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let nibbles = ((64 - value.leading_zeros() as usize).div_ceil(4)).max(1);
    for i in (0..nibbles).rev() {
        out.push(char::from(DIGITS[((value >> (4 * i)) & 0xf) as usize]));
    }
}

/// Parses 1 to 16 hex digits (either case, nothing else) — the one hex
/// rule for every hex field of a message.
fn parse_hex(digits: &str) -> Option<u64> {
    if digits.is_empty() || digits.len() > 16 {
        return None;
    }
    digits.bytes().try_fold(0u64, |value, byte| {
        let nibble = char::from(byte).to_digit(16)?;
        Some(value << 4 | u64::from(nibble))
    })
}

/// One `<from>,<to>,<weight bits>` hex triple.
fn parse_triple(token: &str) -> Option<(usize, usize, u64)> {
    let mut fields = token.split(',');
    let mut hex = || parse_hex(fields.next()?);
    let triple = (usize::try_from(hex()?).ok()?, usize::try_from(hex()?).ok()?, hex()?);
    fields.next().is_none().then_some(triple)
}

/// Parses a `relations` value; a malformed token is garbage.
fn parse_relations(value: &str) -> Result<Option<WireGraph>, NetError> {
    if value == "-" {
        return Ok(None);
    }
    let bad = |what: &str| NetError::Garbage(format!("bad relations {what}"));
    let mut tokens = value.split(' ');
    let learn_events = tokens
        .next()
        .and_then(|t| t.strip_prefix("learns="))
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| bad("learn count"))?;
    let edges = tokens
        .map(|token| parse_triple(token).ok_or_else(|| bad(&format!("triple {token:?}"))))
        .collect::<Result<_, _>>()?;
    Ok(Some(WireGraph { learn_events, edges }))
}

fn encode_stat_line(out: &mut String, s: &WireShardStats) {
    out.push_str(&format!(
        "stat shard={} heartbeats={} execs={} clock={} corpus={} coverage={} \
         crashes={} restored={} restarts={} quarantines={} pulled={}",
        s.shard,
        s.heartbeats,
        s.executions,
        s.clock_us,
        s.corpus_len,
        s.coverage,
        s.crashes,
        s.restored_seeds,
        s.restarts,
        s.quarantines,
        s.pulled,
    ));
    for counters in s.counters() {
        counters.write_tokens(out, true);
    }
    out.push('\n');
}

fn decode_stat_line(rest: &str) -> Option<WireShardStats> {
    let mut s = WireShardStats::default();
    parse_tokens(rest, |key, value| {
        if let Some((tag, key)) = key.split_once('.') {
            return s.counters_mut().into_iter().any(|c| c.table().tag == tag && c.set(key, value));
        }
        match key {
            "shard" => s.shard = value as usize,
            "heartbeats" => s.heartbeats = value,
            "execs" => s.executions = value,
            "clock" => s.clock_us = value,
            "corpus" => s.corpus_len = value as usize,
            "coverage" => s.coverage = value as usize,
            "crashes" => s.crashes = value as usize,
            "restored" => s.restored_seeds = value as usize,
            "restarts" => s.restarts = value as u32,
            "quarantines" => s.quarantines = value as u32,
            "pulled" => s.pulled = value,
            _ => return false,
        }
        true
    })?;
    Some(s)
}

/// Serializes a message to its line-oriented payload text.
pub fn encode_message(msg: &Message) -> String {
    let mut out = String::new();
    match msg {
        Message::Hello { version, worker, shards, claim } => {
            out.push_str("msg hello\n");
            out.push_str(&format!("version {version}\n"));
            out.push_str(&format!("worker {}\n", escape(worker)));
            out.push_str(&format!("shards {shards}\n"));
            out.push_str(&format!(
                "claim {}\n",
                claim.map_or_else(|| "-".to_owned(), |c| c.to_string())
            ));
        }
        Message::HelloAck { version, base_shard, campaign } => {
            out.push_str("msg hello-ack\n");
            out.push_str(&format!("version {version}\n"));
            out.push_str(&format!("base-shard {base_shard}\n"));
            out.push_str(&format!("device {}\n", escape(&campaign.device)));
            out.push_str(&format!("variant {}\n", escape(&campaign.variant)));
            out.push_str(&format!("seed {}\n", campaign.seed));
            out.push_str(&format!("hours {}\n", campaign.hours));
            out.push_str(&format!("sync-interval {}\n", campaign.sync_interval_hours));
            out.push_str(&format!("sync {}\n", u8::from(campaign.sync)));
            out.push_str(&format!("shards {}\n", campaign.shards));
            out.push_str(&format!("hub-capacity {}\n", campaign.hub_capacity));
            out.push_str(&format!("flap-limit {}\n", campaign.flap_limit));
            out.push_str(&format!("start-round {}\n", campaign.start_round));
            out.push_str(&format!("clock-us {}\n", campaign.clock_us));
            out.push_str(&format!("table-digest {:x}\n", campaign.table_digest));
        }
        Message::PushUpdate { round, update } => {
            out.push_str("msg push\n");
            out.push_str(&format!("round {round}\n"));
            out.push_str(&format!("shard {}\n", update.shard));
            text_line(&mut out, "corpus", &update.corpus_delta);
            out.push_str("blocks");
            for block in &update.new_blocks {
                write!(out, " {block:x}").expect("write to String");
            }
            out.push('\n');
            relations_line(&mut out, update.relations.as_ref());
            for crash in &update.crashes {
                out.push_str(&format!("crash {}\n", crash_fields(crash)));
            }
        }
        Message::PushAck { round, shard, duplicate } => {
            out.push_str("msg push-ack\n");
            out.push_str(&format!("round {round}\n"));
            out.push_str(&format!("shard {shard}\n"));
            out.push_str(&format!("duplicate {}\n", u8::from(*duplicate)));
        }
        Message::PullRequest { barrier, shard, cursor, full } => {
            out.push_str("msg pull\n");
            out.push_str(&format!("barrier {barrier}\n"));
            out.push_str(&format!("shard {shard}\n"));
            out.push_str(&format!("cursor {cursor}\n"));
            out.push_str(&format!("full {}\n", u8::from(*full)));
        }
        Message::PullResponse { barrier, shard, corpus_text, cursor, delivered, relations } => {
            out.push_str("msg pull-resp\n");
            out.push_str(&format!("barrier {barrier}\n"));
            out.push_str(&format!("shard {shard}\n"));
            out.push_str(&format!("cursor {cursor}\n"));
            out.push_str(&format!("delivered {delivered}\n"));
            relations_line(&mut out, relations.as_ref());
            text_line(&mut out, "corpus", corpus_text);
        }
        Message::RoundDone { round, stats, net } => {
            out.push_str("msg round-done\n");
            out.push_str(&format!("round {round}\n"));
            net.write_record(&mut out);
            out.push('\n');
            for s in stats {
                encode_stat_line(&mut out, s);
            }
        }
        Message::RoundAck { round, continue_campaign } => {
            out.push_str("msg round-ack\n");
            out.push_str(&format!("round {round}\n"));
            out.push_str(&format!("continue {}\n", u8::from(*continue_campaign)));
        }
        Message::Heartbeat { round } => {
            out.push_str("msg heartbeat\n");
            out.push_str(&format!("round {round}\n"));
        }
        Message::Bye { reason } => {
            out.push_str("msg bye\n");
            out.push_str(&format!("reason {}\n", escape(reason)));
        }
    }
    out
}

/// Key/value view over a message payload: `fields` holds the last value
/// per key, `crashes`/`stats` the repeated lines in order.
struct Lines<'a> {
    fields: std::collections::BTreeMap<&'a str, &'a str>,
    crashes: Vec<CrashRecord>,
    stats: Vec<WireShardStats>,
    net: NetCounters,
}

impl<'a> Lines<'a> {
    fn parse(body: impl Iterator<Item = &'a str>) -> Result<Self, NetError> {
        let mut lines = Lines {
            fields: std::collections::BTreeMap::new(),
            crashes: Vec::new(),
            stats: Vec::new(),
            net: NetCounters::default(),
        };
        for line in body {
            if line.is_empty() {
                continue;
            }
            let (key, value) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "crash" => {
                    let record = parse_crash_line(line)
                        .ok_or_else(|| NetError::Garbage(format!("bad crash line {line:?}")))?;
                    lines.crashes.push(record);
                }
                "stat" => {
                    let stat = decode_stat_line(value)
                        .ok_or_else(|| NetError::Garbage(format!("bad stat line {line:?}")))?;
                    lines.stats.push(stat);
                }
                _ if key == NetCounters::TABLE.section => {
                    parse_tokens(value, |k, v| lines.net.set(k, v))
                        .ok_or_else(|| NetError::Garbage(format!("bad net line {line:?}")))?;
                }
                _ => {
                    lines.fields.insert(key, value);
                }
            }
        }
        Ok(lines)
    }

    fn str_field(&self, key: &str) -> Result<String, NetError> {
        self.fields
            .get(key)
            .map(|v| unescape(v))
            .ok_or_else(|| NetError::Garbage(format!("missing field {key}")))
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, NetError> {
        self.fields
            .get(key)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| NetError::Garbage(format!("missing/bad numeric field {key}")))
    }

    fn float(&self, key: &str) -> Result<f64, NetError> {
        let value: f64 = self.num(key)?;
        if value.is_finite() {
            Ok(value)
        } else {
            Err(NetError::Garbage(format!("non-finite field {key}")))
        }
    }

    fn flag(&self, key: &str) -> Result<bool, NetError> {
        Ok(self.num::<u8>(key)? != 0)
    }

    fn relations(&self) -> Result<Option<WireGraph>, NetError> {
        let value = self
            .fields
            .get("relations")
            .ok_or_else(|| NetError::Garbage("missing field relations".into()))?;
        parse_relations(value)
    }

    fn hex(&self, key: &str) -> Result<u64, NetError> {
        self.fields
            .get(key)
            .and_then(|v| parse_hex(v))
            .ok_or_else(|| NetError::Garbage(format!("missing/bad hex field {key}")))
    }
}

/// Parses a message payload. Every malformation is a typed
/// [`NetError::Garbage`]; unknown `key value` lines are tolerated.
pub fn decode_message(text: &str) -> Result<Message, NetError> {
    let mut lines = text.lines();
    let kind = lines
        .next()
        .and_then(|first| first.strip_prefix("msg "))
        .ok_or_else(|| NetError::Garbage("payload does not start with `msg `".into()))?
        .to_owned();
    let body = Lines::parse(lines)?;
    match kind.as_str() {
        "hello" => Ok(Message::Hello {
            version: body.num("version")?,
            worker: body.str_field("worker")?,
            shards: body.num("shards")?,
            claim: match body.fields.get("claim") {
                None | Some(&"-") => None,
                Some(v) => Some(v.parse().map_err(|_| {
                    NetError::Garbage("bad claim field".into())
                })?),
            },
        }),
        "hello-ack" => Ok(Message::HelloAck {
            version: body.num("version")?,
            base_shard: body.num("base-shard")?,
            campaign: CampaignSpec {
                device: body.str_field("device")?,
                variant: body.str_field("variant")?,
                seed: body.num("seed")?,
                hours: body.float("hours")?,
                sync_interval_hours: body.float("sync-interval")?,
                sync: body.flag("sync")?,
                shards: body.num("shards")?,
                hub_capacity: body.num("hub-capacity")?,
                flap_limit: body.num("flap-limit")?,
                start_round: body.num("start-round")?,
                clock_us: body.num("clock-us")?,
                table_digest: body.hex("table-digest")?,
            },
        }),
        "push" => {
            let mut blocks = Vec::new();
            for token in body.fields.get("blocks").copied().unwrap_or("").split(' ') {
                if token.is_empty() {
                    continue;
                }
                blocks.push(parse_hex(token).ok_or_else(|| {
                    NetError::Garbage(format!("bad block id {token:?}"))
                })?);
            }
            Ok(Message::PushUpdate {
                round: body.num("round")?,
                update: WireUpdate {
                    shard: body.num("shard")?,
                    corpus_delta: body.str_field("corpus")?,
                    new_blocks: blocks,
                    relations: body.relations()?,
                    crashes: body.crashes,
                },
            })
        }
        "push-ack" => Ok(Message::PushAck {
            round: body.num("round")?,
            shard: body.num("shard")?,
            duplicate: body.flag("duplicate")?,
        }),
        "pull" => Ok(Message::PullRequest {
            barrier: body.num("barrier")?,
            shard: body.num("shard")?,
            cursor: body.num("cursor")?,
            full: body.flag("full")?,
        }),
        "pull-resp" => Ok(Message::PullResponse {
            barrier: body.num("barrier")?,
            shard: body.num("shard")?,
            corpus_text: body.str_field("corpus")?,
            cursor: body.num("cursor")?,
            delivered: body.num("delivered")?,
            relations: body.relations()?,
        }),
        "round-done" => Ok(Message::RoundDone {
            round: body.num("round")?,
            stats: body.stats,
            net: body.net,
        }),
        "round-ack" => Ok(Message::RoundAck {
            round: body.num("round")?,
            continue_campaign: body.flag("continue")?,
        }),
        "heartbeat" => Ok(Message::Heartbeat { round: body.num("round")? }),
        "bye" => Ok(Message::Bye { reason: body.str_field("reason")? }),
        other => Err(NetError::Garbage(format!("unknown message kind {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkernel::report::{BugKind, Component};

    fn round_trip(msg: Message) {
        let text = encode_message(&msg);
        assert_eq!(decode_message(&text).as_ref(), Ok(&msg), "{text:?}");
        // And through the frame layer.
        let frame = encode_frame(3, text.as_bytes());
        let (seq, payload, consumed) = decode_frame(&frame).unwrap();
        assert_eq!(seq, 3);
        assert_eq!(consumed, frame.len());
        assert_eq!(decode_message(std::str::from_utf8(&payload).unwrap()), Ok(msg));
    }

    fn sample_campaign() -> CampaignSpec {
        CampaignSpec {
            device: "E".into(),
            variant: "droidfuzz".into(),
            seed: 41,
            hours: 0.15,
            sync_interval_hours: 0.05,
            sync: true,
            shards: 4,
            hub_capacity: 256,
            flap_limit: 2,
            start_round: 1,
            clock_us: 180_000_000,
            table_digest: 0x1234_5678_9abc_def0,
        }
    }

    #[test]
    fn every_message_round_trips() {
        round_trip(Message::Hello {
            version: PROTOCOL_VERSION,
            worker: "bench\thost\n2".into(),
            shards: 2,
            claim: None,
        });
        round_trip(Message::Hello {
            version: PROTOCOL_VERSION,
            worker: "w".into(),
            shards: 2,
            claim: Some(2),
        });
        round_trip(Message::HelloAck {
            version: PROTOCOL_VERSION,
            base_shard: 2,
            campaign: sample_campaign(),
        });
        round_trip(Message::PushUpdate {
            round: 4,
            update: WireUpdate {
                shard: 3,
                corpus_delta: "# seed 1 signals=2\nr0 = openat$/dev/video0()\n".into(),
                new_blocks: vec![0x10, 0xff43, 0],
                relations: Some(WireGraph {
                    learn_events: 7,
                    edges: vec![(0, 2, 0.5f64.to_bits()), (0x1f, 3, (-0.0f64).to_bits())],
                }),
                crashes: vec![CrashRecord {
                    title: "KASAN: uaf\tin v4l".into(),
                    kind: BugKind::KasanUseAfterFree,
                    component: Component::KernelDriver,
                    count: 2,
                    first_seen_us: 99,
                    repro: Some("r0 = openat$/dev/video0()\n".into()),
                }],
            },
        });
        round_trip(Message::PushAck { round: 4, shard: 3, duplicate: true });
        round_trip(Message::PullRequest { barrier: 5, shard: 1, cursor: 17, full: false });
        round_trip(Message::PullResponse {
            barrier: 5,
            shard: 1,
            corpus_text: "# seed 3 signals=1\nr0 = x()\n".into(),
            cursor: 20,
            delivered: 3,
            relations: None,
        });
        round_trip(Message::PullResponse {
            barrier: 5,
            shard: 1,
            corpus_text: String::new(),
            cursor: 20,
            delivered: 0,
            relations: Some(WireGraph { learn_events: 0, edges: Vec::new() }),
        });
        round_trip(Message::RoundDone {
            round: 5,
            stats: vec![WireShardStats {
                shard: 1,
                heartbeats: 6,
                executions: 1234,
                clock_us: 180_000_000,
                corpus_len: 12,
                coverage: 340,
                crashes: 1,
                restored_seeds: 3,
                restarts: 1,
                quarantines: 1,
                pulled: 4,
                faults: crate::supervisor::FaultCounters {
                    injected: 7,
                    device_lost: 1,
                    ..Default::default()
                },
                lint: droidfuzz_analysis::LintCounters {
                    rejected: 2,
                    repaired: 5,
                    absint_rejected: 1,
                    absint_repaired: 3,
                },
            }],
            net: crate::net::NetCounters { frames_sent: 9, ..Default::default() },
        });
        round_trip(Message::RoundAck { round: 5, continue_campaign: false });
        round_trip(Message::Heartbeat { round: 7 });
        round_trip(Message::Bye { reason: "campaign complete".into() });
    }

    #[test]
    fn round_done_payload_is_pinned() {
        let msg = Message::RoundDone {
            round: 5,
            stats: vec![WireShardStats {
                shard: 1,
                heartbeats: 6,
                executions: 1234,
                clock_us: 180_000_000,
                corpus_len: 12,
                coverage: 340,
                crashes: 1,
                restored_seeds: 3,
                restarts: 1,
                quarantines: 1,
                pulled: 4,
                faults: FaultCounters { injected: 7, device_lost: 1, ..Default::default() },
                lint: LintCounters {
                    rejected: 2,
                    repaired: 5,
                    absint_rejected: 1,
                    absint_repaired: 3,
                },
            }],
            net: NetCounters { frames_sent: 9, ..Default::default() },
        };
        assert_eq!(
            encode_message(&msg),
            "msg round-done\n\
             round 5\n\
             net frames_sent=9 frames_received=0 bytes_sent=0 bytes_received=0 \
             malformed_frames=0 truncated_frames=0 oversized_frames=0 dup_frames=0 \
             link_retries=0 reconnects=0 sessions=0\n\
             stat shard=1 heartbeats=6 execs=1234 clock=180000000 corpus=12 coverage=340 \
             crashes=1 restored=3 restarts=1 quarantines=1 pulled=4 f.injected=7 \
             f.link_drops=0 f.truncated_replies=0 f.transient_retries=0 f.gave_up=0 \
             f.hangs=0 f.quarantined_programs=0 f.device_lost=1 f.reprovisions=0 \
             f.spontaneous_reboots=0 l.rejected=2 l.repaired=5 l.absint_rejected=1 \
             l.absint_repaired=3\n"
        );
        assert_eq!(
            encode_frame(0, b"msg heartbeat\nround 1\n"),
            b"rec 0 22 7fab3a1d\nmsg heartbeat\nround 1\n\n"
        );
    }

    #[test]
    fn campaign_float_fields_round_trip_exactly() {
        for hours in [0.15, 0.05, 1.0 / 3.0, 144.0, 1e-9] {
            let campaign = CampaignSpec { hours, sync_interval_hours: hours / 3.0, ..sample_campaign() };
            let msg = Message::HelloAck {
                version: 1,
                base_shard: 0,
                campaign: campaign.clone(),
            };
            match decode_message(&encode_message(&msg)).unwrap() {
                Message::HelloAck { campaign: decoded, .. } => {
                    assert_eq!(decoded.hours.to_bits(), campaign.hours.to_bits());
                    assert_eq!(
                        decoded.sync_interval_hours.to_bits(),
                        campaign.sync_interval_hours.to_bits()
                    );
                }
                other => panic!("wrong decode: {other:?}"),
            }
        }
    }

    #[test]
    fn malformed_frames_get_typed_errors() {
        let good = encode_frame(0, b"msg heartbeat\nround 1\n");
        // Truncated: cut anywhere strictly inside the frame.
        for cut in 1..good.len() {
            let err = decode_frame(&good[..cut]).unwrap_err();
            assert!(
                matches!(err, NetError::Truncated(_) | NetError::Crc { .. } | NetError::Garbage(_)),
                "cut={cut}: {err}"
            );
        }
        // Garbage header.
        assert!(matches!(
            decode_frame(b"not a frame\nxx\n"),
            Err(NetError::Garbage(_))
        ));
        // Oversized declared length.
        let huge = format!("rec 0 {} 00000000\n", MAX_FRAME_LEN + 1);
        assert!(matches!(
            decode_frame(huge.as_bytes()),
            Err(NetError::Oversized(_))
        ));
        // Bit flip in the payload.
        let mut flipped = good.clone();
        let payload_at = good.iter().position(|&b| b == b'\n').unwrap() + 3;
        flipped[payload_at] ^= 0x20;
        assert!(matches!(decode_frame(&flipped), Err(NetError::Crc { .. })));
        // Non-utf8 header bytes.
        assert!(matches!(
            decode_frame(&[0xFF, 0xFE, b'\n', b'\n']),
            Err(NetError::Garbage(_))
        ));
    }

    #[test]
    fn garbage_messages_get_typed_errors() {
        for bad in [
            "",
            "hello\nversion 1\n",
            "msg frobnicate\n",
            "msg hello\nversion x\n",
            "msg push\nround 1\nshard 0\ncorpus x\nblocks zz\nrelations -\n",
            "msg push\nround 1\nshard 0\ncorpus x\nblocks\nrelations -\ncrash bad\n",
            "msg round-done\nround 1\nstat shard=x\n",
            "msg hello-ack\nversion 1\nbase-shard 0\ndevice E\nvariant v\nseed 1\nhours inf\n",
        ] {
            assert!(
                matches!(decode_message(bad), Err(NetError::Garbage(_))),
                "{bad:?} decoded"
            );
        }
    }

    #[test]
    fn relation_triples_are_hex_and_pinned() {
        let msg = Message::PullResponse {
            barrier: 2,
            shard: 0,
            corpus_text: String::new(),
            cursor: 0,
            delivered: 0,
            relations: Some(WireGraph {
                learn_events: 42,
                edges: vec![(3, 0x1f, 0.5f64.to_bits()), (0, 2, 0)],
            }),
        };
        let text = encode_message(&msg);
        assert!(text.contains("\nrelations learns=42 3,1f,3fe0000000000000 0,2,0\n"), "{text}");
        for value in [0, 1, 0xf, 0x10, 0xdead_beef, u64::MAX, 1 << 63] {
            let mut out = String::new();
            push_hex(&mut out, value);
            assert_eq!(out, format!("{value:x}"));
            assert_eq!(parse_hex(&out), Some(value));
        }
        for bad in ["", "g", "+1", "-1", "0x1", "1_0", "10000000000000000"] {
            assert_eq!(parse_hex(bad), None, "{bad:?}");
        }
    }

    /// A push payload whose `relations` line is `value`.
    fn push_with_relations(value: &str) -> String {
        format!("msg push\nround 1\nshard 0\ncorpus x\nblocks\nrelations {value}\n")
    }

    #[test]
    fn malformed_relations_are_garbage() {
        for bad in [
            "",
            "learns=",
            "learns=x",
            "3,1f,0",
            "learns=1 3,1f",
            "learns=1 3,1f,0,0",
            "learns=1 3,,0",
            "learns=1 3,1f,zz",
            "learns=1 3,1f,10000000000000000",
            "learns=1  3,1f,0",
            "learns=1 3,1f,0 ",
        ] {
            assert!(
                matches!(decode_message(&push_with_relations(bad)), Err(NetError::Garbage(_))),
                "{bad:?} decoded"
            );
        }
        let ok = decode_message(&push_with_relations("learns=1 ffffffff,0,7ff8000000000000"));
        let Ok(Message::PushUpdate { update, .. }) = ok else { panic!("{ok:?}") };
        assert_eq!(
            update.relations,
            Some(WireGraph { learn_events: 1, edges: vec![(0xffff_ffff, 0, f64::NAN.to_bits())] })
        );
    }

    proptest::proptest! {
        /// Arbitrary `relations` values and single-byte mutations of a
        /// valid one decode or fail as typed garbage, never panic; what
        /// decodes re-encodes to a message that decodes the same.
        #[test]
        fn arbitrary_relations_decode_or_fail_typed(
            value in "[ -~]{0,64}",
            at in proptest::prelude::any::<usize>(),
            byte in proptest::prelude::any::<u8>(),
        ) {
            let valid = "learns=7 3,1f,3fe0000000000000 0,2,0 a,b,8000000000000000".to_owned();
            let mut mutated = valid.into_bytes();
            let at = at % mutated.len();
            mutated[at] = byte;
            let mutated = String::from_utf8_lossy(&mutated).replace('\n', " ");
            for value in [value, mutated] {
                match decode_message(&push_with_relations(&value)) {
                    Ok(msg) => {
                        let again = decode_message(&encode_message(&msg));
                        proptest::prop_assert_eq!(again, Ok(msg));
                    }
                    Err(e) => proptest::prop_assert!(matches!(e, NetError::Garbage(_)), "{e}"),
                }
            }
        }
    }

    #[test]
    fn unknown_fields_are_tolerated() {
        let text = "msg heartbeat\nround 9\nfrom-the-future yes\n";
        assert_eq!(decode_message(text), Ok(Message::Heartbeat { round: 9 }));
    }

    #[test]
    fn variant_table_matches_the_cli() {
        for v in ["droidfuzz", "norel", "nohcov", "droidfuzz-d", "syzkaller", "difuze"] {
            assert!(variant_config(v, 1).is_some(), "{v} missing");
        }
        assert!(variant_config("chaos", 1).is_none());
    }
}
