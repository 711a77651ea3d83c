//! Wire-layer microbenchmarks: codec encode/decode throughput on
//! realistic corpus-bearing messages, and the end-to-end cost of a
//! distributed sync round over the in-process loopback transport.
//!
//! Scale: `DF_HOURS` (default 0.15 virtual hours for the campaign arm),
//! `DF_SHARDS` (falls back to `DF_REPEATS`, then 2), `DF_SYNC_MIN`
//! (default 3), `DF_DEVICE` (default A1), `DF_CODEC_MSGS` (messages per
//! codec arm, default 5000).
//!
//! Ends with two machine-readable JSON lines (`"bench":"net_codec"` and
//! `"bench":"net_sync_roundtrip"`).

use droidfuzz::config::FuzzerConfig;
use droidfuzz::engine::FuzzingEngine;
use droidfuzz::fleet::FleetConfig;
use droidfuzz::net::{
    decode_frame, decode_message, encode_frame, encode_message, HubServer, LoopbackConnector,
    Message, ServeConfig, WireUpdate, WorkerConfig, WorkerRuntime,
};
use droidfuzz_bench::{env_f64, env_u64};
use simdevice::catalog;
use simdevice::faults::FaultProfile;
use std::thread;
use std::time::Instant;

fn main() {
    let hours = env_f64("DF_HOURS", 0.15);
    let shards = env_u64("DF_SHARDS", env_u64("DF_REPEATS", 2)).max(1) as usize;
    let sync_min = env_f64("DF_SYNC_MIN", 3.0);
    let codec_msgs = env_u64("DF_CODEC_MSGS", 5_000).max(1);
    let device = std::env::var("DF_DEVICE").unwrap_or_else(|_| "A1".into());
    let Some(spec) = catalog::by_id(&device) else {
        eprintln!("unknown device {device}; known: A1 A2 B C1 C2 D E");
        std::process::exit(2);
    };

    println!(
        "wire bench on device {device}: {codec_msgs} codec messages, then a \
         {shards}-shard x {hours} h loopback campaign\n"
    );

    // -- codec throughput -------------------------------------------
    // Realistic payloads: push updates carrying real corpus deltas and
    // crash records from a briefly-fuzzed engine, not synthetic strings.
    let mut engine = FuzzingEngine::new(spec.clone().boot(), FuzzerConfig::droidfuzz(1));
    engine.run_for_virtual_hours(0.02);
    let corpus = engine.export_corpus();
    let crashes: Vec<_> = engine.crash_db().records().into_iter().cloned().collect();
    let chunks: Vec<&str> = corpus.split("# seed ").filter(|c| !c.is_empty()).collect();
    let messages: Vec<Message> = (0..codec_msgs)
        .map(|i| Message::PushUpdate {
            round: i as usize % 8,
            update: WireUpdate {
                shard: i as usize % shards,
                corpus_delta: format!("# seed {}", chunks[i as usize % chunks.len().max(1)]),
                new_blocks: (0..16).map(|b| i * 131 + b).collect(),
                relations: (i % 4 == 0).then(|| engine.relation_graph().to_wire()),
                crashes: crashes.clone(),
            },
        })
        .collect();

    let start = Instant::now();
    let frames: Vec<Vec<u8>> = messages
        .iter()
        .enumerate()
        .map(|(seq, msg)| encode_frame(seq as u64, encode_message(msg).as_bytes()))
        .collect();
    let encode_secs = start.elapsed().as_secs_f64();
    let wire_bytes: usize = frames.iter().map(Vec::len).sum();

    let start = Instant::now();
    let mut decoded = 0u64;
    for frame in &frames {
        let (_, payload, _) = decode_frame(frame).expect("frame decodes");
        let text = std::str::from_utf8(&payload).expect("payload is UTF-8");
        decode_message(text).expect("message decodes");
        decoded += 1;
    }
    let decode_secs = start.elapsed().as_secs_f64();
    assert_eq!(decoded, codec_msgs);
    let encode_rate = codec_msgs as f64 / encode_secs.max(1e-9);
    let decode_rate = codec_msgs as f64 / decode_secs.max(1e-9);
    let mib = |secs: f64| wire_bytes as f64 / secs.max(1e-9) / (1024.0 * 1024.0);
    println!(
        "codec: {codec_msgs} push updates ({} KiB framed) encode {encode_rate:.0} msg/s \
         ({:.1} MiB/s), decode {decode_rate:.0} msg/s ({:.1} MiB/s)",
        wire_bytes / 1024,
        mib(encode_secs),
        mib(decode_secs),
    );

    // -- distributed sync round trip --------------------------------
    // A real hub + one worker over reliable loopback: what a sync
    // barrier costs end to end (pushes, ordered apply, pulls, round
    // finalize) beyond the engines' own fuzzing time.
    let fleet = FleetConfig {
        shards,
        hours,
        sync_interval_hours: sync_min / 60.0,
        ..FleetConfig::default()
    };
    let serve = ServeConfig {
        fleet,
        device: device.clone(),
        variant: "droidfuzz".into(),
        seed: 1,
    };
    let (connector, listener) = LoopbackConnector::new(FaultProfile::Reliable, 1);
    let start = Instant::now();
    let hub = thread::spawn(move || HubServer::new(serve).serve(listener, None, None));
    let worker = WorkerRuntime::new(WorkerConfig {
        shards,
        threads: 0,
        name: "bench".into(),
        max_link_retries: 3,
    })
    .run(Box::new(connector))
    .expect("worker completes");
    let hub = hub.join().expect("hub thread").expect("hub completes");
    let campaign_secs = start.elapsed().as_secs_f64();
    let rounds = hub.rounds_completed.max(1);
    let net = hub.net_totals;
    let round_ms = campaign_secs / rounds as f64 * 1e3;
    let frames_total = net.frames_sent + net.frames_received;
    println!(
        "sync round trip: {} round(s) of {shards} shard(s) in {campaign_secs:.3} s \
         -> {round_ms:.2} ms per round, {} frames ({} KiB) on the wire, cov={}",
        rounds,
        frames_total,
        (net.bytes_sent + net.bytes_received) / 1024,
        hub.union_coverage,
    );
    assert!(worker.finished && hub.finished);

    println!(
        "\n{{\"bench\":\"net_codec\",\"device\":\"{device}\",\"messages\":{codec_msgs},\
         \"wire_bytes\":{wire_bytes},\"encode_msgs_per_sec\":{encode_rate:.0},\
         \"decode_msgs_per_sec\":{decode_rate:.0},\"encode_secs\":{encode_secs:.6},\
         \"decode_secs\":{decode_secs:.6}}}"
    );
    println!(
        "{{\"bench\":\"net_sync_roundtrip\",\"device\":\"{device}\",\"shards\":{shards},\
         \"hours\":{hours},\"rounds\":{rounds},\"campaign_secs\":{campaign_secs:.6},\
         \"round_ms\":{round_ms:.3},\"frames\":{frames_total},\
         \"wire_bytes\":{},\"executions\":{},\"union_coverage\":{}}}",
        net.bytes_sent + net.bytes_received,
        hub.executions,
        hub.union_coverage,
    );
}
