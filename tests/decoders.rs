//! Decoder robustness: every parser of untrusted bytes — fleet snapshot,
//! journal delta, journal file, wire frame, wire message, the snapshot
//! auditor, corpus import (plain and gated), relation-graph import and
//! program text — must answer random bytes and single-byte mutations of
//! valid encodings with `Ok`, a typed error or a counted rejection, and
//! never panic. An imported relation graph, alone and merged into a
//! learned one, must also audit clean for Eq. 1, and so must one rebuilt
//! from a decoded message's wire relations (every triple accepted or
//! counted as rejected).

use std::sync::OnceLock;

use droidfuzz_repro::droidfuzz::corpus::Corpus;
use droidfuzz_repro::droidfuzz::crashes::CrashRecord;
use droidfuzz_repro::droidfuzz::fleet::FleetSnapshot;
use droidfuzz_repro::droidfuzz::net::{
    decode_frame, decode_message, encode_frame, encode_message, Message, NetCounters,
    WireShardStats, WireUpdate,
};
use droidfuzz_repro::droidfuzz::store::{decode_journal, FleetDelta, Journal, SimMedium};
use droidfuzz_repro::droidfuzz::relation::RelationGraph;
use droidfuzz_repro::droidfuzz::store::{journal_name, StorageMedium, StoreCounters};
use droidfuzz_repro::droidfuzz::supervisor::FaultCounters;
use droidfuzz_repro::droidfuzz_analysis::{
    audit_relations, audit_snapshot, CounterRecord, LintCounters,
};
use droidfuzz_repro::fuzzlang::desc::{
    ArgDesc, CallDesc, CallKind, DescId, DescTable, SyscallTemplate,
};
use droidfuzz_repro::fuzzlang::text::{format_prog, parse_prog};
use droidfuzz_repro::fuzzlang::types::TypeDesc;
use droidfuzz_repro::simkernel::report::{BugKind, Component};
use proptest::prelude::*;

fn table() -> DescTable {
    let mut t = DescTable::new();
    t.add(CallDesc::syscall_open("/dev/video0"));
    t.add(CallDesc::syscall_close());
    t.add(CallDesc::syscall_open("/dev/ion"));
    t.add(CallDesc::new(
        "write$/dev/ion",
        CallKind::Syscall(SyscallTemplate::Write),
        vec![
            ArgDesc::new("fd", TypeDesc::Resource { kind: "fd:/dev/ion".into() }),
            ArgDesc::new("buf", TypeDesc::Buffer { min_len: 0, max_len: 16 }),
        ],
        None,
    ));
    t
}

/// A graph with learned and decayed in-edges over [`table`].
fn learned_graph(table: &DescTable) -> RelationGraph {
    let mut g = RelationGraph::new(table);
    g.learn(DescId(0), DescId(1));
    g.learn(DescId(2), DescId(1));
    g.decay(0.7);
    g.learn(DescId(1), DescId(0));
    g
}

fn crash() -> CrashRecord {
    CrashRecord {
        title: "KASAN: use-after-free\tin v4l_qbuf".into(),
        kind: BugKind::KasanUseAfterFree,
        component: Component::KernelDriver,
        count: 2,
        first_seen_us: 99,
        repro: Some("r0 = openat$/dev/video0()\n".into()),
    }
}

/// Valid encodings the mutation half of the property starts from: a
/// snapshot, a journal file, delta payloads, message payloads and framed
/// messages.
fn valid_encodings() -> &'static [Vec<u8>] {
    static SAMPLES: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    SAMPLES.get_or_init(|| {
        let snapshot = FleetSnapshot {
            round: 2,
            clock_us: 1_800,
            relations_text: "# relation-graph learns=3\nedge openat$/dev/video0\tclose\t0.5\n"
                .into(),
            coverage: vec![0x10, 0x2f],
            series: vec![(900, 1.0), (1_800, 2.0)],
            crashes: vec![crash()],
            fault_totals: FaultCounters { injected: 4, hangs: 1, ..Default::default() },
            lint_totals: LintCounters { rejected: 1, ..Default::default() },
            store_totals: StoreCounters { journal_records: 9, ..Default::default() },
            net_totals: NetCounters { frames_sent: 3, ..Default::default() },
            corpus_text: "# seed 0 signals=2\nr0 = openat$/dev/video0()\nclose(r0)\n\n".into(),
            malformed_lines: 0,
        };
        let deltas = [
            FleetDelta::Seed { signals: 2, body: "r0 = openat$/dev/video0()\n".into() },
            FleetDelta::Edge { from: "a".into(), to: "b".into(), weight: "0.25".into() },
            FleetDelta::EdgeDel { from: "a".into(), to: "b".into() },
            FleetDelta::Learns(3),
            FleetDelta::Crash(crash()),
            FleetDelta::Blocks(vec![0x10, 0xff]),
            FleetDelta::Sample { t: 900, v: 1.0 },
            FleetDelta::Counters(CounterRecord::of(&snapshot.fault_totals)),
            FleetDelta::Round { round: 2, clock_us: 1_800 },
        ];
        let table = table();
        let medium = SimMedium::new();
        let mut journal = Journal::create(medium.clone(), 0).unwrap();
        for delta in &deltas {
            journal.append(&delta.encode()).unwrap();
        }
        let messages = [
            Message::PushUpdate {
                round: 2,
                update: WireUpdate {
                    shard: 1,
                    corpus_delta: snapshot.corpus_text.clone(),
                    new_blocks: vec![0x10],
                    relations: Some(learned_graph(&table).to_wire()),
                    crashes: vec![crash()],
                },
            },
            Message::RoundDone {
                round: 2,
                stats: vec![WireShardStats {
                    shard: 1,
                    executions: 40,
                    faults: snapshot.fault_totals,
                    lint: snapshot.lint_totals,
                    ..Default::default()
                }],
                net: snapshot.net_totals,
            },
            Message::Hello { version: 1, worker: "w0".into(), shards: 2, claim: Some(1) },
        ];

        let mut samples = vec![
            snapshot.to_text().into_bytes(),
            snapshot.corpus_text.clone().into_bytes(),
            learned_graph(&table).export(&table).into_bytes(),
            "r0 = openat$/dev/video0()\nr1 = openat$/dev/ion()\nclose(r1)\nclose(r0)\n".into(),
            // A blob: a mutated byte at or above 0x80 decodes to a
            // multi-byte character inside the hex digits.
            "r0 = openat$/dev/ion()\nr1 = write$/dev/ion(r0, hex:00ff12ab)\nr2 = close(r0)\n".into(),
        ];
        samples.push(medium.read(&journal_name(0)).unwrap());
        samples.extend(deltas.iter().map(|d| d.encode().into_bytes()));
        for (seq, message) in messages.iter().enumerate() {
            let payload = encode_message(message);
            samples.push(encode_frame(seq as u64, payload.as_bytes()));
            samples.push(payload.into_bytes());
        }
        samples
    })
}

/// Runs every decoder over `bytes`; any panic fails the property.
fn decode_everything(bytes: &[u8], table: &DescTable) -> Result<(), String> {
    let text = String::from_utf8_lossy(bytes);
    if let Ok(snapshot) = FleetSnapshot::parse(&text) {
        prop_assert!(FleetSnapshot::parse(&snapshot.to_text()).is_ok());
    }
    for line in std::iter::once(text.as_ref()).chain(text.lines()) {
        if let Some(delta) = FleetDelta::decode(line) {
            prop_assert_eq!(FleetDelta::decode(&delta.encode()), Some(delta));
        }
    }
    let scan = decode_journal(bytes, 0);
    prop_assert!(scan.dropped_bytes <= bytes.len() as u64);
    prop_assert!(scan.truncated || scan.dropped_bytes == 0);
    if let Ok((_, payload, consumed)) = decode_frame(bytes) {
        prop_assert!(payload.len() < consumed && consumed <= bytes.len());
    }
    if let Ok(message) = decode_message(&text) {
        let again = decode_message(&encode_message(&message));
        prop_assert_eq!(again.as_ref(), Ok(&message));
        let wire = match &message {
            Message::PushUpdate { update, .. } => update.relations.as_ref(),
            Message::PullResponse { relations, .. } => relations.as_ref(),
            _ => None,
        };
        if let Some(wire) = wire {
            let mut graph = RelationGraph::new(table);
            let (accepted, rejected) = graph.import_wire(wire, table);
            prop_assert_eq!(accepted + rejected, wire.edges.len());
            prop_assert!(graph.edge_count() <= accepted);
            let report = audit_relations(&graph.export(table), table);
            prop_assert!(!report.has_errors(), "wire graph: {:?}", report.diagnostics);
        }
    }
    let _ = audit_snapshot(&text, table);

    let seed_records = text.matches("# seed ").count() + 1;
    let (accepted, rejected) = Corpus::new().import(&text, table);
    prop_assert!(accepted + rejected <= seed_records);
    let mut counters = LintCounters::default();
    let (accepted, rejected) = Corpus::new().import_gated(&text, table, &mut counters);
    prop_assert!(accepted + rejected <= seed_records);

    let mut graph = RelationGraph::new(table);
    let (accepted, rejected) = graph.import(&text, table);
    prop_assert!(accepted + rejected <= text.lines().count());
    prop_assert!(graph.edge_count() <= accepted);
    let report = audit_relations(&graph.export(table), table);
    prop_assert!(!report.has_errors(), "imported graph: {:?}", report.diagnostics);
    let mut merged = learned_graph(table);
    merged.merge_from(&graph);
    let report = audit_relations(&merged.export(table), table);
    prop_assert!(!report.has_errors(), "merged graph: {:?}", report.diagnostics);

    if let Ok(prog) = parse_prog(&text, table) {
        prop_assert_eq!(parse_prog(&format_prog(&prog, table), table), Ok(prog));
    }
    Ok(())
}

proptest! {
    #[test]
    fn decoders_survive_random_and_mutated_bytes(
        random in prop::collection::vec(any::<u8>(), 0..384),
        at in any::<u64>(),
        byte in any::<u8>(),
    ) {
        let table = table();
        decode_everything(&random, &table)?;
        // One mutation of every sample per case, each at its own offset.
        for (i, sample) in valid_encodings().iter().enumerate() {
            let mut mutated = sample.clone();
            let offset = (at.rotate_left(i as u32 * 7) % mutated.len() as u64) as usize;
            mutated[offset] = byte;
            decode_everything(&mutated, &table)?;
        }
    }
}

