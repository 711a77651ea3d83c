//! Distributed fleet integration tests: wire-codec round trips, the
//! tentpole bit-identity guarantee (a fixed-seed distributed campaign
//! over loopback equals the local `--threads` run), reliable-link
//! reproducibility including net counters, hostile-link reconnects with
//! zero lost corpus/crash state, scripted link cuts inside a round's
//! request window (only unanswered requests are resent), a worker that
//! refuses a hub with another description table, distributed
//! kill/resume, and a durable hub whose store does not depend on the
//! workers' pool size.

use droidfuzz_repro::droidfuzz::config::FuzzerConfig;
use droidfuzz_repro::droidfuzz::crashes::CrashRecord;
use droidfuzz_repro::droidfuzz::fleet::{
    Fleet, FleetConfig, FleetSnapshot, FleetStore, DEFAULT_KEEP, SNAPSHOT_HEADER,
};
use droidfuzz_repro::droidfuzz::net::{
    decode_frame, decode_message, encode_frame, encode_message, CampaignSpec, Channel,
    Connector, FrameSink, FrameSource, HubResult, HubServer, Listener, LoopbackConnector,
    Message, NetCounters, NetError, ServeConfig, Transport, WireShardStats, WireUpdate,
    WorkerConfig, WorkerResult, WorkerRuntime, PROTOCOL_VERSION,
};
use droidfuzz_repro::droidfuzz::relation::WireGraph;
use droidfuzz_repro::droidfuzz::store::{SimMedium, StorageMedium};
use droidfuzz_repro::simdevice::catalog;
use droidfuzz_repro::simdevice::faults::{FaultProfile, LinkFaultRates};
use droidfuzz_repro::simkernel::report::{BugKind, Component};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};
use std::thread;

/// Same campaign shape as `tests/fleet.rs` — 3 sync rounds of 0.05
/// virtual hours each, checkpoint every round.
fn quick_fleet(shards: usize, kill_after_rounds: Option<usize>) -> FleetConfig {
    FleetConfig {
        shards,
        hours: 0.15,
        sync_interval_hours: 0.05,
        sync: true,
        hub_capacity: 256,
        kill_after_rounds,
        flap_limit: 2,
        checkpoint_interval_rounds: 1,
        threads: 0,
    }
}

/// Hub config matching the local `FuzzerConfig::droidfuzz` recipe:
/// `engine_config(s) = variant_config("droidfuzz", 0 + s)`.
fn serve_config(fleet: FleetConfig) -> ServeConfig {
    ServeConfig { fleet, device: "A1".into(), variant: "droidfuzz".into(), seed: 0 }
}

/// Drops the `net <counter> <value>` lines from a snapshot. A local
/// run's snapshot carries its resume baseline (zeros on a fresh run)
/// while a hub's carries live wire totals, so cross-mode comparisons go
/// modulo the net section; everything else must match byte for byte.
fn strip_net(snapshot: &str) -> String {
    snapshot
        .lines()
        .filter(|line| !line.starts_with("net "))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Boots a loopback hub plus one worker per entry in `splits` (each
/// entry is that worker's local shard count) and runs the campaign to
/// completion on plain threads.
fn run_distributed(
    fleet: FleetConfig,
    splits: &[usize],
    rates: LinkFaultRates,
    seed: u64,
    resume: Option<FleetSnapshot>,
) -> (HubResult, Vec<WorkerResult>) {
    let (connector, listener) = LoopbackConnector::with_rates(rates, seed);
    let cfg = serve_config(fleet);
    let hub = thread::spawn(move || HubServer::new(cfg).serve(listener, None, resume.as_ref()));
    let workers: Vec<_> = splits
        .iter()
        .enumerate()
        .map(|(i, &shards)| {
            let conn =
                connector.sibling_with_rates(rates, seed.wrapping_add(1000 * (i as u64 + 1)));
            let cfg = WorkerConfig {
                shards,
                threads: 0,
                name: format!("w{i}"),
                max_link_retries: 50,
            };
            thread::spawn(move || WorkerRuntime::new(cfg).run(Box::new(conn)))
        })
        .collect();
    drop(connector);
    let worker_results: Vec<WorkerResult> = workers
        .into_iter()
        .map(|h| h.join().expect("worker thread").expect("worker completes"))
        .collect();
    let hub_result = hub.join().expect("hub thread").expect("hub completes");
    (hub_result, worker_results)
}

fn reliable() -> LinkFaultRates {
    LinkFaultRates::for_profile(FaultProfile::Reliable)
}

fn crash_titles(crashes: &[CrashRecord]) -> Vec<String> {
    crashes.iter().map(|c| c.title.clone()).collect()
}

// ---------------------------------------------------------------------
// Codec round trips
// ---------------------------------------------------------------------

/// Every message variant survives encode → decode unchanged, including
/// embedded newlines, escapes, and optional fields in both states.
#[test]
fn every_message_variant_round_trips_through_the_codec() {
    let crash = CrashRecord {
        title: "KASAN: slab-use-after-free in gpu_job_submit".into(),
        kind: BugKind::KasanUseAfterFree,
        component: Component::KernelDriver,
        count: 3,
        first_seen_us: 123_456,
        repro: Some("open dev=\"gpu\"\nioctl cmd=0x1f\n".into()),
    };
    let update = WireUpdate {
        shard: 2,
        corpus_delta: "# seed 1\nopen dev=\"npu\"\n\nclose fd=3\n".into(),
        new_blocks: vec![1, 99, 1 << 40],
        relations: Some(WireGraph { learn_events: 3, edges: vec![(0, 1, 0.5f64.to_bits())] }),
        crashes: vec![crash],
    };
    let stats = WireShardStats {
        shard: 1,
        heartbeats: 3,
        executions: 1017,
        clock_us: 180_000_000,
        corpus_len: 41,
        coverage: 912,
        crashes: 2,
        restored_seeds: 7,
        restarts: 1,
        quarantines: 0,
        pulled: 5,
        faults: Default::default(),
        lint: Default::default(),
    };
    let campaign = CampaignSpec {
        device: "A1".into(),
        variant: "droidfuzz".into(),
        seed: 0,
        hours: 0.15,
        sync_interval_hours: 0.05,
        sync: true,
        shards: 3,
        hub_capacity: 256,
        flap_limit: 2,
        start_round: 1,
        clock_us: 180_000_000,
        table_digest: 0xfeed,
    };
    let net = NetCounters { frames_sent: 12, reconnects: 1, ..Default::default() };
    let messages = vec![
        Message::Hello { version: 1, worker: "w0".into(), shards: 2, claim: None },
        Message::Hello { version: 1, worker: "w \"q\"".into(), shards: 2, claim: Some(4) },
        Message::HelloAck { version: 1, base_shard: 1, campaign },
        Message::PushUpdate { round: 0, update },
        Message::PushAck { round: 0, shard: 2, duplicate: true },
        Message::PullRequest { barrier: 1, shard: 0, cursor: 9, full: false },
        Message::PullResponse {
            barrier: 1,
            shard: 0,
            corpus_text: "# seed 2\nmmap len=4096\n".into(),
            cursor: 12,
            delivered: 3,
            relations: None,
        },
        Message::RoundDone { round: 2, stats: vec![stats], net },
        Message::RoundAck { round: 2, continue_campaign: false },
        Message::Heartbeat { round: 1 },
        Message::Bye { reason: "campaign complete".into() },
    ];
    for msg in messages {
        let text = encode_message(&msg);
        let back = decode_message(&text).unwrap_or_else(|e| panic!("decode {text:?}: {e}"));
        assert_eq!(back, msg);
    }
}

proptest! {
    /// Frames round-trip for arbitrary binary payloads and sequence
    /// numbers, and the decoder reports exactly the bytes it consumed.
    #[test]
    fn frames_round_trip(seq in any::<u64>(),
                         payload in prop::collection::vec(any::<u8>(), 0..512)) {
        let frame = encode_frame(seq, &payload);
        let (got_seq, got_payload, used) = decode_frame(&frame).expect("well-formed frame");
        assert_eq!(got_seq, seq);
        assert_eq!(got_payload, payload);
        assert_eq!(used, frame.len());
    }

    /// A single flipped byte anywhere in a frame is either caught by a
    /// typed decode error or decodes to something observably different —
    /// never silently accepted as the original.
    #[test]
    fn corrupted_frames_never_pass_as_the_original(
        payload in prop::collection::vec(any::<u8>(), 1..256),
        flip in any::<usize>(),
    ) {
        let mut frame = encode_frame(7, &payload);
        let idx = flip % frame.len();
        frame[idx] ^= 0x01;
        match decode_frame(&frame) {
            Ok((seq, body, _)) => assert!(
                seq != 7 || body != payload,
                "flipped byte {idx} decoded as the original frame"
            ),
            Err(NetError::Crc { .. })
            | Err(NetError::Garbage(_))
            | Err(NetError::Truncated(_))
            | Err(NetError::Oversized(_)) => {}
            Err(e) => panic!("unexpected error class for a flipped byte: {e}"),
        }
    }

    /// Wire updates with arbitrary printable-plus-newline corpus text,
    /// coverage blocks, and optional relation triples (any ids, any
    /// weight bits) survive a message-level round trip.
    #[test]
    fn wire_updates_round_trip(
        shard in 0usize..8,
        head in "[ -~]{0,48}",
        lines in prop::collection::vec("[ -~]{0,24}", 0..4),
        blocks in prop::collection::vec(any::<u64>(), 0..16),
        round in 0usize..64,
        with_relations in any::<bool>(),
        learn_events in any::<u64>(),
        edges in prop::collection::vec((any::<usize>(), any::<usize>(), any::<u64>()), 0..8),
    ) {
        let mut corpus_delta = head;
        for line in &lines {
            corpus_delta.push('\n');
            corpus_delta.push_str(line);
        }
        let relations = with_relations.then_some(WireGraph { learn_events, edges });
        let update = WireUpdate {
            shard,
            corpus_delta,
            new_blocks: blocks,
            relations,
            crashes: Vec::new(),
        };
        let msg = Message::PushUpdate { round, update };
        let back = decode_message(&encode_message(&msg)).expect("decodes");
        assert_eq!(back, msg);
    }
}

// ---------------------------------------------------------------------
// Distributed vs local bit-identity (the tentpole guarantee)
// ---------------------------------------------------------------------

/// A fixed-seed distributed campaign over loopback — one worker or the
/// same shards split across two workers — must reproduce the local
/// `--threads` run byte for byte modulo the snapshot's net section,
/// with identical coverage, executions, and crash set.
#[test]
fn loopback_distributed_campaign_matches_local_run_bit_for_bit() {
    let shards = 3;
    let spec = catalog::device_a1();
    let local = Fleet::new(quick_fleet(shards, None)).run(&spec, FuzzerConfig::droidfuzz);
    assert!(local.finished);

    let (one_worker, workers_a) =
        run_distributed(quick_fleet(shards, None), &[3], reliable(), 11, None);
    let (two_workers, workers_b) =
        run_distributed(quick_fleet(shards, None), &[2, 1], reliable(), 22, None);

    for (label, hub, workers) in
        [("1x3", &one_worker, &workers_a), ("2+1", &two_workers, &workers_b)]
    {
        assert!(hub.finished, "{label}: hub must finish");
        assert!(workers.iter().all(|w| w.finished), "{label}: workers must finish");
        assert!(hub.snapshot.starts_with(SNAPSHOT_HEADER), "{label}: snapshot header");
        assert_eq!(
            strip_net(&hub.snapshot),
            strip_net(&local.snapshot),
            "{label}: distributed snapshot diverged from the local run"
        );
        assert_eq!(hub.union_coverage, local.union_coverage, "{label}: coverage");
        assert_eq!(hub.executions, local.executions, "{label}: executions");
        assert_eq!(hub.rounds_completed, local.rounds_completed, "{label}: rounds");
        assert_eq!(hub.clock_us, local.clock_us, "{label}: clock");
        assert_eq!(
            crash_titles(&hub.crashes),
            crash_titles(&local.crashes),
            "{label}: crash set"
        );
        assert_eq!(hub.stats.union_coverage, local.stats.union_coverage, "{label}: stats");
    }
    assert_eq!(one_worker.workers, 1);
    assert_eq!(two_workers.workers, 2);
}

/// On a reliable link no message is timer-driven, so two identical
/// single-worker distributed runs agree on *everything* — including the
/// snapshot's net section and the wire counters themselves.
#[test]
fn reliable_link_distributed_runs_reproduce_net_counters_bit_for_bit() {
    let first = run_distributed(quick_fleet(2, None), &[2], reliable(), 7, None);
    let second = run_distributed(quick_fleet(2, None), &[2], reliable(), 7, None);
    assert!(first.0.finished && second.0.finished);
    assert_eq!(first.0.snapshot, second.0.snapshot, "full snapshot incl. net section");
    assert_eq!(first.0.net_totals, second.0.net_totals);
    assert_eq!(first.1[0].net_totals, second.1[0].net_totals);
    assert!(first.0.net_totals.frames_sent > 0, "hub must have sent frames");
    assert_eq!(first.0.net_totals.sessions, 1);
    assert_eq!(first.0.net_totals.reconnects, 0, "reliable link never reconnects");
}

// ---------------------------------------------------------------------
// Hostile links
// ---------------------------------------------------------------------

/// A link that tears frames, flips bytes, and drops the connection
/// mid-campaign forces reconnects — and the final hub state must still
/// equal the local run's: zero lost corpus, coverage, or crash state.
#[test]
fn hostile_link_reconnects_without_losing_corpus_or_crash_state() {
    let rates = LinkFaultRates {
        truncate: 0.02,
        corrupt: 0.02,
        duplicate: 0.02,
        disconnect: 0.04,
        stall: 0.05,
    };
    let spec = catalog::device_a1();
    let local = Fleet::new(quick_fleet(2, None)).run(&spec, FuzzerConfig::droidfuzz);
    let (hub, workers) = run_distributed(quick_fleet(2, None), &[2], rates, 31, None);

    assert!(hub.finished && workers[0].finished);
    assert_eq!(
        strip_net(&hub.snapshot),
        strip_net(&local.snapshot),
        "hostile link must not change campaign state"
    );
    assert_eq!(hub.union_coverage, local.union_coverage);
    assert_eq!(hub.executions, local.executions);
    assert_eq!(crash_titles(&hub.crashes), crash_titles(&local.crashes));
    let net = hub.net_totals;
    assert!(net.reconnects >= 1, "fault rates should force at least one reconnect: {net:?}");
    assert!(net.sessions > 1, "each reconnect opens a fresh session: {net:?}");
    assert!(
        net.malformed_frames + net.truncated_frames + net.dup_frames > 0,
        "fault injection should surface in the typed counters: {net:?}"
    );
}

// ---------------------------------------------------------------------
// Distributed kill/resume
// ---------------------------------------------------------------------

/// A hub killed after round 1 leaves a snapshot that a fresh hub (and a
/// fresh worker) resumes to the same final state as the equivalent
/// local kill/resume pair.
#[test]
fn distributed_kill_resume_matches_local_kill_resume() {
    let spec = catalog::device_a1();
    let killed_local =
        Fleet::new(quick_fleet(2, Some(1))).run(&spec, FuzzerConfig::droidfuzz);
    assert!(!killed_local.finished);
    let resumed_local = Fleet::new(quick_fleet(2, None))
        .resume(&spec, FuzzerConfig::droidfuzz, &killed_local.snapshot)
        .expect("local snapshot parses");
    assert!(resumed_local.finished);

    let (killed_hub, killed_workers) =
        run_distributed(quick_fleet(2, Some(1)), &[2], reliable(), 5, None);
    assert!(!killed_hub.finished);
    assert!(!killed_workers[0].finished, "worker must observe the kill");
    assert_eq!(killed_hub.rounds_completed, 1);
    assert_eq!(
        strip_net(&killed_hub.snapshot),
        strip_net(&killed_local.snapshot),
        "kill-point snapshots must agree"
    );

    let snap = FleetSnapshot::parse(&killed_hub.snapshot).expect("hub snapshot parses");
    let (resumed_hub, resumed_workers) =
        run_distributed(quick_fleet(2, None), &[2], reliable(), 6, Some(snap));
    assert!(resumed_hub.finished && resumed_workers[0].finished);
    assert_eq!(resumed_hub.rounds_completed, 3);
    assert_eq!(
        strip_net(&resumed_hub.snapshot),
        strip_net(&resumed_local.snapshot),
        "resumed distributed campaign diverged from the local resume"
    );
    assert_eq!(resumed_hub.union_coverage, resumed_local.union_coverage);
    assert_eq!(crash_titles(&resumed_hub.crashes), crash_titles(&resumed_local.crashes));
    // The resumed hub's baseline carries the killed run's wire totals.
    assert!(
        resumed_hub.net_totals.frames_sent > killed_hub.net_totals.frames_sent,
        "resume must absorb the killed run's net baseline"
    );
}

// ---------------------------------------------------------------------
// Campaign shapes
// ---------------------------------------------------------------------

/// The hub's round loop agrees with the local fleet's on every campaign
/// shape: unsynced repeats, a coarse checkpoint cadence, a kill between
/// cadence checkpoints, and all three at once. Five rounds of 0.05 h,
/// three shards split 2+1 over two workers.
#[test]
fn hub_matches_local_fleet_across_campaign_shapes() {
    let spec = catalog::device_a1();
    // (sync, checkpoint cadence, kill after, snapshots skipped)
    let shapes = [
        (false, 1, None, 0),
        (true, 3, None, 3),
        (true, 3, Some(2), 1),
        (false, 2, Some(4), 2),
    ];
    for (i, &(sync, cadence, kill_after_rounds, skipped)) in shapes.iter().enumerate() {
        let fleet = FleetConfig {
            hours: 0.25,
            sync,
            checkpoint_interval_rounds: cadence,
            ..quick_fleet(3, kill_after_rounds)
        };
        let label = format!("sync={sync} cadence={cadence} kill={kill_after_rounds:?}");
        let local = Fleet::new(fleet.clone()).run(&spec, FuzzerConfig::droidfuzz);
        let (hub, workers) = run_distributed(fleet, &[2, 1], reliable(), 40 + i as u64, None);
        assert_eq!(strip_net(&hub.snapshot), strip_net(&local.snapshot), "{label}: snapshot");
        assert_eq!(hub.executions, local.executions, "{label}: executions");
        assert_eq!(hub.finished, local.finished, "{label}: finished");
        assert_eq!(hub.finished, kill_after_rounds.is_none(), "{label}: only a kill stops early");
        assert!(workers.iter().all(|w| w.finished == hub.finished), "{label}: workers agree");
        assert_eq!(hub.store_totals.snapshots_skipped, skipped, "{label}: store skipped");
        assert_eq!(local.store_totals.snapshots_skipped, skipped, "{label}: local skipped");
        assert_eq!(hub.stats.snapshots_skipped, local.stats.snapshots_skipped, "{label}");
        assert_eq!(hub.stats.seeds_published, local.stats.seeds_published, "{label}: published");
        assert_eq!(hub.stats.seeds_pulled, local.stats.seeds_pulled, "{label}: pulled");
    }
}

// ---------------------------------------------------------------------
// Durable hub
// ---------------------------------------------------------------------

/// Runs a durable hub on a fresh `SimMedium` with a 3+1 worker split,
/// every worker on `threads` pool threads; returns the hub result and
/// every medium file.
fn run_durable_split(threads: usize) -> (HubResult, Vec<(String, Vec<u8>)>) {
    let medium = SimMedium::new();
    let mut store = FleetStore::create(medium.clone(), DEFAULT_KEEP).expect("fresh medium");
    let (connector, listener) = LoopbackConnector::with_rates(reliable(), 13);
    // The hub hands out shard ranges in `Hello` order; the second worker
    // dials once the first holds its range, so every run splits alike
    // (the net counters, and so the checkpoints, depend on the split).
    let (claimed, first_claimed) = std::sync::mpsc::channel();
    let conns = [
        InOrder { inner: connector.sibling_with_rates(reliable(), 1013), after: None, then: Some(claimed) },
        InOrder {
            inner: connector.sibling_with_rates(reliable(), 2013),
            after: Some(first_claimed),
            then: None,
        },
    ];
    drop(connector);
    let fleet = FleetConfig { hours: 0.25, checkpoint_interval_rounds: 2, ..quick_fleet(4, None) };
    let server = HubServer::new(serve_config(fleet));
    let hub = thread::scope(|scope| {
        let hub = scope.spawn(|| server.serve(listener, Some(&mut store), None));
        let workers: Vec<_> = [3, 1]
            .into_iter()
            .zip(conns)
            .enumerate()
            .map(|(i, (shards, conn))| {
                let cfg =
                    WorkerConfig { shards, threads, name: format!("w{i}"), max_link_retries: 50 };
                scope.spawn(move || WorkerRuntime::new(cfg).run(Box::new(conn)))
            })
            .collect();
        for (base, worker) in [0, 3].into_iter().zip(workers) {
            let worker = worker.join().expect("worker thread").expect("worker completes");
            assert!(worker.finished);
            assert_eq!(worker.base_shard, base, "shard ranges are claimed in spawn order");
        }
        hub.join().expect("hub thread").expect("hub completes")
    });
    let files = medium
        .list()
        .expect("sim medium lists")
        .into_iter()
        .map(|name| {
            let bytes = medium.read(&name).expect("listed file reads");
            (name, bytes)
        })
        .collect();
    (hub, files)
}

/// A loopback dialer that dials only once `after` fires (when set) and
/// fires `then` when its first frame, the `HelloAck`, arrives.
struct InOrder {
    inner: LoopbackConnector,
    after: Option<std::sync::mpsc::Receiver<()>>,
    then: Option<std::sync::mpsc::Sender<()>>,
}

impl Connector for InOrder {
    fn connect(&mut self) -> Result<Box<dyn Transport>, NetError> {
        if let Some(after) = self.after.take() {
            let _ = after.recv();
        }
        let (sink, source) = self.inner.connect()?.split();
        let source = SignalSource { inner: source, then: self.then.take() };
        Ok(Box::new(Signalling { sink, source }))
    }
}

/// A receive half that fires `then` on its first frame.
struct SignalSource {
    inner: Box<dyn FrameSource>,
    then: Option<std::sync::mpsc::Sender<()>>,
}

impl FrameSource for SignalSource {
    fn recv_frame(&mut self) -> Result<Vec<u8>, NetError> {
        let frame = self.inner.recv_frame()?;
        if let Some(then) = self.then.take() {
            let _ = then.send(());
        }
        Ok(frame)
    }
}

struct Signalling {
    sink: Box<dyn FrameSink>,
    source: SignalSource,
}

impl FrameSink for Signalling {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), NetError> {
        self.sink.send_frame(frame)
    }
}

impl FrameSource for Signalling {
    fn recv_frame(&mut self) -> Result<Vec<u8>, NetError> {
        self.source.recv_frame()
    }
}

impl Transport for Signalling {
    fn split(self: Box<Self>) -> (Box<dyn FrameSink>, Box<dyn FrameSource>) {
        (self.sink, Box::new(self.source))
    }
}

/// The workers' pool size is invisible on the wire and on disk: a
/// durable hub with a 3+1 split leaves byte-identical medium files and
/// an identical snapshot, net lines included, whether each worker runs
/// its shards on one thread or one thread per shard.
#[test]
fn durable_hub_store_is_worker_pool_size_invariant() {
    let (sequential, sequential_files) = run_durable_split(1);
    let (pooled, pooled_files) = run_durable_split(0);
    assert!(sequential.finished && pooled.finished);
    assert!(sequential.store_totals.journal_records > 0, "rounds were journaled");
    assert!(
        sequential_files.iter().any(|(name, _)| name.starts_with("snapshot-")),
        "checkpoints were written: {:?}",
        sequential_files.iter().map(|(name, _)| name).collect::<Vec<_>>()
    );
    assert_eq!(sequential.snapshot, pooled.snapshot, "full snapshot incl. net section");
    assert_eq!(sequential_files, pooled_files, "every medium file byte for byte");
}

// ---------------------------------------------------------------------
// Link cuts inside a request window
// ---------------------------------------------------------------------

/// Where a scripted cut lands on a worker's first connection.
#[derive(Debug, Clone, Copy)]
enum Cut {
    /// Once the hub has acknowledged the second push of `round`'s
    /// window, the link drops and both acks are lost with it.
    AfterSecondPush { round: usize },
    /// The second pull answer at `barrier` is lost with the link.
    SecondPullAnswer { barrier: usize },
}

fn message_of(frame: &[u8]) -> Message {
    let (_, payload, _) = decode_frame(frame).expect("loopback frames are whole");
    decode_message(std::str::from_utf8(&payload).expect("utf-8")).expect("valid message")
}

/// One scripted connection: the loopback halves until the cut.
struct ScriptedLink {
    sink: Option<Box<dyn FrameSink>>,
    source: Option<Box<dyn FrameSource>>,
    cut: Option<Cut>,
    seen: usize,
}

impl ScriptedLink {
    fn drop_link(&mut self) {
        (self.sink, self.source) = (None, None);
    }
}

/// Both halves of a scripted connection share one link; every message
/// the worker got onto the wire is logged with its connection index.
#[derive(Clone)]
struct ScriptedTransport {
    link: Arc<Mutex<ScriptedLink>>,
    conn: usize,
    sent: Arc<Mutex<Vec<(usize, Message)>>>,
}

impl FrameSink for ScriptedTransport {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), NetError> {
        let mut link = self.link.lock().unwrap();
        link.sink.as_mut().ok_or(NetError::Closed)?.send_frame(frame)?;
        let msg = message_of(frame);
        self.sent.lock().unwrap().push((self.conn, msg.clone()));
        if let (Some(Cut::AfterSecondPush { round }), Message::PushUpdate { round: r, .. }) =
            (link.cut, &msg)
        {
            if *r == round {
                link.seen += 1;
                if link.seen == 2 {
                    // Let the hub take and acknowledge both pushes, then
                    // drop the link with the acks unread.
                    let source = link.source.as_mut().expect("live link");
                    let mut acks = 0;
                    while acks < 2 {
                        acks += usize::from(matches!(
                            message_of(&source.recv_frame()?),
                            Message::PushAck { .. }
                        ));
                    }
                    link.drop_link();
                }
            }
        }
        Ok(())
    }
}

impl FrameSource for ScriptedTransport {
    fn recv_frame(&mut self) -> Result<Vec<u8>, NetError> {
        let mut link = self.link.lock().unwrap();
        let frame = link.source.as_mut().ok_or(NetError::Closed)?.recv_frame()?;
        if let Some(Cut::SecondPullAnswer { barrier }) = link.cut {
            if matches!(message_of(&frame), Message::PullResponse { barrier: b, .. } if b == barrier)
            {
                link.seen += 1;
                if link.seen == 2 {
                    link.drop_link();
                    return Err(NetError::Closed);
                }
            }
        }
        Ok(frame)
    }
}

impl Transport for ScriptedTransport {
    fn split(self: Box<Self>) -> (Box<dyn FrameSink>, Box<dyn FrameSource>) {
        (Box::new((*self).clone()), self)
    }
}

/// A reliable loopback dialer whose first connection is cut as scripted.
struct ScriptedConnector {
    inner: LoopbackConnector,
    cut: Cut,
    connections: usize,
    sent: Arc<Mutex<Vec<(usize, Message)>>>,
}

impl Connector for ScriptedConnector {
    fn connect(&mut self) -> Result<Box<dyn Transport>, NetError> {
        let conn = self.connections;
        self.connections += 1;
        let (sink, source) = self.inner.connect()?.split();
        let cut = (conn == 0).then_some(self.cut);
        let link = ScriptedLink { sink: Some(sink), source: Some(source), cut, seen: 0 };
        let link = Arc::new(Mutex::new(link));
        Ok(Box::new(ScriptedTransport { link, conn, sent: Arc::clone(&self.sent) }))
    }
}

/// One worker running all three shards on `threads` pool threads over a
/// link cut as `cut`; returns the hub result and every message the
/// worker sent, with its connection index.
fn run_with_cut(cut: Cut, threads: usize) -> (HubResult, Vec<(usize, Message)>) {
    let (inner, listener) = LoopbackConnector::with_rates(reliable(), 17);
    let sent = Arc::new(Mutex::new(Vec::new()));
    let connector = ScriptedConnector { inner, cut, connections: 0, sent: Arc::clone(&sent) };
    let server = HubServer::new(serve_config(quick_fleet(3, None)));
    let hub = thread::scope(|scope| {
        let hub = scope.spawn(|| server.serve(listener, None, None));
        let cfg = WorkerConfig { shards: 3, threads, name: "cut".into(), max_link_retries: 5 };
        let worker = WorkerRuntime::new(cfg).run(Box::new(connector)).expect("worker completes");
        assert!(worker.finished);
        hub.join().expect("hub thread").expect("hub completes")
    });
    let sent = sent.lock().unwrap().clone();
    (hub, sent)
}

/// Round 1's pushes and pulls (barrier 2) the worker sent on its second
/// connection: what the reconnect resent.
fn resent_window(sent: &[(usize, Message)]) -> (Vec<usize>, Vec<usize>) {
    let on_second = sent.iter().filter(|(conn, _)| *conn == 1).map(|(_, msg)| msg);
    let (mut pushes, mut pulls) = (Vec::new(), Vec::new());
    for msg in on_second {
        match msg {
            Message::PushUpdate { round: 1, update } => pushes.push(update.shard),
            Message::PullRequest { barrier: 2, shard, .. } => pulls.push(*shard),
            _ => {}
        }
    }
    (pushes, pulls)
}

/// A link dropped inside a round's window — after the hub took two of
/// the three pushes, or with a pull answer lost in flight — costs one
/// reconnect and a resend of exactly the requests left unanswered. The
/// hub ends in the local fleet's state at either worker pool size, and
/// its `dup_frames` counts only the pushes it had already taken.
#[test]
fn a_link_cut_inside_a_window_resends_only_unanswered_requests() {
    let spec = catalog::device_a1();
    let local = Fleet::new(quick_fleet(3, None)).run(&spec, FuzzerConfig::droidfuzz);
    for threads in [1, 0] {
        // Cut after the second push: the worker read no answer of the
        // window, so every request goes again; the hub had buffered the
        // first two pushes and acknowledges them as duplicates.
        let (hub, sent) = run_with_cut(Cut::AfterSecondPush { round: 1 }, threads);
        assert_eq!(strip_net(&hub.snapshot), strip_net(&local.snapshot), "threads={threads}");
        assert_eq!(hub.net_totals.reconnects, 1, "threads={threads}");
        assert_eq!(resent_window(&sent), (vec![0, 1, 2], vec![0, 1, 2]), "threads={threads}");
        assert_eq!(hub.net_totals.dup_frames, 2, "threads={threads}: two pushes replayed");

        // Lose the second pull answer: every push and the first pull
        // were answered, so only the pulls of shards 1 and 2 go again.
        let (hub, sent) = run_with_cut(Cut::SecondPullAnswer { barrier: 2 }, threads);
        assert_eq!(strip_net(&hub.snapshot), strip_net(&local.snapshot), "threads={threads}");
        assert_eq!(hub.net_totals.reconnects, 1, "threads={threads}");
        assert_eq!(resent_window(&sent), (vec![], vec![1, 2]), "threads={threads}");
        assert_eq!(hub.net_totals.dup_frames, 0, "threads={threads}: nothing replayed");
    }
}

/// Relation graphs travel as description ids, so a worker whose table
/// differs from the hub's (by the `HelloAck` digest) refuses the session
/// with a protocol error and says why in a `Bye`.
#[test]
fn worker_refuses_a_hub_with_another_description_table() {
    let (connector, mut listener) = LoopbackConnector::with_rates(reliable(), 3);
    let hub = thread::spawn(move || {
        let transport = loop {
            if let Some(transport) = listener.accept().expect("listener") {
                break transport;
            }
        };
        let mut ch = Channel::new(transport);
        assert!(matches!(ch.recv(), Ok(Message::Hello { .. })));
        let campaign = CampaignSpec {
            device: "A1".into(),
            variant: "droidfuzz".into(),
            seed: 0,
            hours: 0.05,
            sync_interval_hours: 0.05,
            sync: true,
            shards: 1,
            hub_capacity: 256,
            flap_limit: 2,
            start_round: 0,
            clock_us: 0,
            table_digest: 0xbad,
        };
        ch.send(&Message::HelloAck { version: PROTOCOL_VERSION, base_shard: 0, campaign })
            .expect("send hello-ack");
        ch.recv()
    });
    let cfg = WorkerConfig { shards: 1, threads: 1, name: "w".into(), max_link_retries: 1 };
    let refused = WorkerRuntime::new(cfg).run(Box::new(connector));
    assert!(
        matches!(&refused, Err(NetError::Protocol(why)) if why.contains("digest")),
        "{:?}",
        refused.map(|r| r.rounds_completed)
    );
    assert!(matches!(hub.join().expect("hub thread"), Ok(Message::Bye { .. })));
}

/// A hub listener whose sessions drain their outbound frames slowly
/// (one frame per millisecond), so the hub's per-session queue fills.
struct SlowDrain<L>(L);

impl<L: Listener> Listener for SlowDrain<L> {
    fn accept(&mut self) -> Result<Option<Box<dyn Transport>>, NetError> {
        Ok(self.0.accept()?.map(|t| {
            let (sink, source) = t.split();
            Box::new(SlowTransport { sink: SlowSink(sink), source }) as Box<dyn Transport>
        }))
    }
}

struct SlowSink(Box<dyn FrameSink>);

impl FrameSink for SlowSink {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), NetError> {
        thread::sleep(std::time::Duration::from_millis(1));
        self.0.send_frame(frame)
    }
}

struct SlowTransport {
    sink: SlowSink,
    source: Box<dyn FrameSource>,
}

impl FrameSink for SlowTransport {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), NetError> {
        self.sink.send_frame(frame)
    }
}

impl FrameSource for SlowTransport {
    fn recv_frame(&mut self) -> Result<Vec<u8>, NetError> {
        self.source.recv_frame()
    }
}

impl Transport for SlowTransport {
    fn split(self: Box<Self>) -> (Box<dyn FrameSink>, Box<dyn FrameSource>) {
        (Box::new(self.sink), self.source)
    }
}

/// One worker holding more shards than 64 frames: each round's window
/// leaves a push ack and a pull answer per shard queued at the hub at
/// once, behind a slow socket. The session must hold all of them — an
/// overflow would drop it, and the resent window would overflow again.
#[test]
fn a_worker_with_many_shards_keeps_its_session_behind_a_slow_socket() {
    let fleet = FleetConfig {
        hours: 0.02,
        sync_interval_hours: 0.01,
        ..quick_fleet(72, None)
    };
    let (connector, listener) = LoopbackConnector::with_rates(reliable(), 5);
    let cfg = serve_config(fleet);
    let hub = thread::spawn(move || HubServer::new(cfg).serve(SlowDrain(listener), None, None));
    let cfg = WorkerConfig { shards: 72, threads: 0, name: "w".into(), max_link_retries: 2 };
    let worker = WorkerRuntime::new(cfg).run(Box::new(connector)).expect("worker completes");
    let hub = hub.join().expect("hub thread").expect("hub completes");
    assert!(hub.finished && worker.finished);
    assert_eq!(hub.rounds_completed, 2);
    assert_eq!(hub.net_totals.sessions, 1);
    assert_eq!(hub.net_totals.reconnects, 0, "the session must not overflow its queue");
}
