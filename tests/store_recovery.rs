//! Crash-safety integration tests for the durable store: a deterministic
//! crash-point sweep over *every byte offset* of a journal + snapshot
//! write sequence, a property sweep with random crash points and at-rest
//! corruption on top, and kill/resume round trips over both the
//! fault-injectable sim medium and the real filesystem backend.
//!
//! The invariant under test everywhere: whatever prefix of the write
//! sequence survives a crash, recovery yields a *prefix-consistent* hub
//! state — every recovered seed is one the campaign actually admitted
//! (never invented, never reordered past the crash point), and the
//! recovered snapshot passes the full analysis audit (Eq. 1 in-weight
//! invariants included).

use std::sync::OnceLock;

use droidfuzz_repro::droidfuzz::config::FuzzerConfig;
use droidfuzz_repro::droidfuzz::engine::FuzzingEngine;
use droidfuzz_repro::droidfuzz::fleet::{Fleet, FleetConfig, FleetSnapshot};
use droidfuzz_repro::droidfuzz::store::{
    parse_snapshot_name, FleetDelta, FsMedium, Journal, RecoveryManager, RecoveryOutcome,
    SimMedium, SnapshotStore, StorageMedium, StoreError, FLEET_SECTION,
};
use droidfuzz_repro::fuzzlang::desc::DescTable;
use droidfuzz_repro::simdevice::catalog;
use proptest::prelude::*;

fn fleet_config(kill_after_rounds: Option<usize>) -> FleetConfig {
    FleetConfig {
        shards: 2,
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

/// Extracts the program bodies of a corpus export, in order.
fn seed_bodies(corpus_text: &str) -> Vec<String> {
    let mut bodies = Vec::new();
    let mut current: Option<String> = None;
    for line in corpus_text.lines() {
        if line.starts_with("# seed ") {
            if let Some(body) = current.take() {
                bodies.push(body);
            }
            current = Some(String::new());
        } else if let Some(body) = current.as_mut() {
            if !body.is_empty() {
                body.push('\n');
            }
            body.push_str(line);
        }
    }
    if let Some(body) = current {
        bodies.push(body);
    }
    bodies
}

/// A small but real write sequence: journal-0 with three seed deltas, a
/// compaction into snapshot generation 1, then journal-1 with two more
/// seeds — the exact shape `FleetStore` produces round to round.
struct Sequence {
    medium: SimMedium,
    table: DescTable,
    /// Seed-body lists of every crash-consistent state, in write order.
    valid_states: Vec<Vec<String>>,
}

fn build_sequence() -> Sequence {
    let spec = catalog::device_e();
    let mut engine = FuzzingEngine::new(spec.clone().boot(), FuzzerConfig::droidfuzz(1));
    let table = engine.desc_table().clone();

    // Real, lint-clean programs to journal as admitted seeds (a short
    // burst of fuzzing grows the probe corpus past the 5 we need).
    engine.run_for_virtual_hours(0.05);
    let bodies = seed_bodies(&engine.export_corpus());
    assert!(bodies.len() >= 5, "corpus too small for the sweep: {}", bodies.len());

    // A real (tiny) campaign supplies an audit-clean base snapshot; its
    // corpus is cut down to three seeds to keep the byte sweep fast.
    let result = Fleet::new(FleetConfig {
        hours: 0.05,
        ..fleet_config(None)
    })
    .run(&spec, FuzzerConfig::droidfuzz);
    let mut snap = FleetSnapshot::parse(&result.snapshot).expect("campaign snapshot parses");
    let snap_bodies: Vec<String> = seed_bodies(&snap.corpus_text).into_iter().take(3).collect();
    snap.corpus_text = snap_bodies
        .iter()
        .enumerate()
        .map(|(i, b)| format!("# seed {i} signals=1\n{b}\n"))
        .collect();

    let medium = SimMedium::new();
    let mut valid_states: Vec<Vec<String>> = vec![Vec::new()];

    let mut journal0 = Journal::create(medium.clone(), 0).unwrap();
    let mut journaled: Vec<String> = Vec::new();
    for body in &bodies[..3] {
        journal0.append(&FleetDelta::Seed { signals: 1, body: body.clone() }.encode()).unwrap();
        journaled.push(body.clone());
        valid_states.push(journaled.clone());
    }
    journal0.append(&FleetDelta::Round { round: 1, clock_us: 180_000_000 }.encode()).unwrap();

    let mut snapshots = SnapshotStore::new(medium.clone(), 3);
    snapshots.write(1, &[(FLEET_SECTION, snap.to_text().as_bytes())]).unwrap();
    valid_states.push(snap_bodies.clone());

    let mut journal1 = Journal::create(medium.clone(), 1).unwrap();
    let mut journaled = snap_bodies.clone();
    for body in &bodies[3..5] {
        journal1.append(&FleetDelta::Seed { signals: 2, body: body.clone() }.encode()).unwrap();
        journaled.push(body.clone());
        valid_states.push(journaled.clone());
    }
    journal1.append(&FleetDelta::Round { round: 2, clock_us: 360_000_000 }.encode()).unwrap();

    Sequence { medium, table, valid_states }
}

fn sequence() -> &'static Sequence {
    static SEQ: OnceLock<Sequence> = OnceLock::new();
    SEQ.get_or_init(build_sequence)
}

/// Recovery after a crash must yield exactly one of the crash-consistent
/// seed lists — a prefix of what was durably written, never more.
fn assert_prefix_consistent(crashed: SimMedium, seq: &Sequence, context: &str) {
    let recovered = match RecoveryManager::new(crashed).recover_verified(&seq.table) {
        Ok(recovered) => recovered,
        Err(StoreError::NotFound(_)) => return, // nothing durable yet
        Err(e) => panic!("{context}: recovery failed hard: {e}"),
    };
    assert_ne!(
        recovered.report.outcome,
        RecoveryOutcome::Unrecoverable,
        "{context}: unrecoverable"
    );
    let got = seed_bodies(&recovered.snapshot.corpus_text);
    assert!(
        seq.valid_states.contains(&got),
        "{context}: recovered {} seed(s) matching no crash-consistent prefix (outcome {})",
        got.len(),
        recovered.report.outcome,
    );
}

/// The tentpole sweep: simulate a host crash after *every* byte of the
/// journal + snapshot write sequence and require prefix-consistent,
/// audit-clean recovery at each offset.
#[test]
fn crash_at_every_byte_offset_recovers_prefix_consistent_state() {
    let seq = sequence();
    let total = seq.medium.total_units();
    assert!(total > 500, "sequence suspiciously small: {total} units");
    for units in 0..=total {
        assert_prefix_consistent(seq.medium.crash_at(units), seq, &format!("crash at {units}"));
    }
}

proptest! {
    /// Random crash points with a random bit flipped somewhere in the
    /// surviving files: recovery may fall back a generation or truncate
    /// a tail, but must stay prefix-consistent and never invent state.
    #[test]
    fn random_crash_plus_bit_flip_stays_prefix_consistent(
        units_seed in any::<u64>(),
        flip_seed in any::<u64>(),
        mask in any::<u8>(),
    ) {
        let mask = mask | 1; // a zero mask would flip nothing
        let seq = sequence();
        let total = seq.medium.total_units();
        let crashed = seq.medium.crash_at(units_seed % (total + 1));
        let files = crashed.list().unwrap();
        if !files.is_empty() {
            let name = files[flip_seed as usize % files.len()].clone();
            let len = crashed.read(&name).map(|b| b.len()).unwrap_or(0);
            if len > 0 {
                crashed.corrupt(&name, (flip_seed >> 8) as usize % len, mask);
            }
        }
        assert_prefix_consistent(crashed, seq, "random crash + flip");
    }
}

/// Journal replay rebuilds exactly the state the campaign captured. The
/// last crash image before the kill checkpoint's snapshot lands holds
/// only the from-empty journal; replaying it must give the killed run's
/// snapshot text, relation edges in export order included (durability
/// counters aside: they count the checkpoint itself).
#[test]
fn journal_replay_reproduces_the_killed_runs_snapshot() {
    let spec = catalog::device_e();
    let medium = SimMedium::new();
    let config =
        FleetConfig { hours: 0.3, checkpoint_interval_rounds: 100, ..fleet_config(Some(3)) };
    let killed = Fleet::new(config)
        .run_durable(&spec, FuzzerConfig::droidfuzz, medium.clone())
        .unwrap();
    assert_eq!(killed.rounds_completed, 3);
    assert!(killed.snapshot.matches("\nedge ").count() > 10, "the graph learned edges");

    let has_snapshot = |units| {
        medium.crash_at(units).list().unwrap().iter().any(|n| parse_snapshot_name(n).is_some())
    };
    let (mut lo, mut hi) = (0, medium.total_units());
    assert!(has_snapshot(hi), "the kill checkpoint writes a snapshot");
    while lo + 1 < hi {
        let mid = (lo + hi) / 2;
        if has_snapshot(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }

    let engine = FuzzingEngine::new(spec.clone().boot(), FuzzerConfig::droidfuzz(0));
    let recovered =
        RecoveryManager::new(medium.crash_at(lo)).recover_verified(engine.desc_table()).unwrap();
    assert_eq!(recovered.report.base_generation, None, "replayed from the empty state");
    assert!(recovered.report.replayed_records > 100, "{}", recovered.report.describe());
    let without_store = |text: &str| -> Vec<String> {
        text.lines().filter(|l| !l.starts_with("store ")).map(str::to_owned).collect()
    };
    assert_eq!(without_store(&recovered.snapshot.to_text()), without_store(&killed.snapshot));
}

/// A durable campaign killed mid-run resumes from the real filesystem
/// with zero lost crash records and continues to the full horizon.
#[test]
fn killed_campaign_resumes_losslessly_from_the_filesystem() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("droidfuzz-store-resume");
    let _ = std::fs::remove_dir_all(&dir);
    let spec = catalog::device_e();
    let medium = FsMedium::new(&dir).unwrap();

    let killed = Fleet::new(fleet_config(Some(2)))
        .run_durable(&spec, FuzzerConfig::droidfuzz, medium.clone())
        .unwrap();
    assert_eq!(killed.rounds_completed, 2);
    assert!(killed.store_totals.snapshots_written >= 1);

    let (resumed, report) = Fleet::new(fleet_config(None))
        .resume_durable(&spec, FuzzerConfig::droidfuzz, medium)
        .unwrap();
    assert_eq!(report.outcome, RecoveryOutcome::Clean);
    assert_eq!(resumed.rounds_completed, 3);
    assert!(resumed.union_coverage >= killed.union_coverage);
    for crash in &killed.crashes {
        assert!(
            resumed.crashes.iter().any(|c| c.title == crash.title),
            "crash lost across kill/resume: {}",
            crash.title
        );
    }
    // The unkilled reference run finds the same crash set.
    let reference = Fleet::new(fleet_config(None)).run(&spec, FuzzerConfig::droidfuzz);
    assert_eq!(reference.rounds_completed, resumed.rounds_completed);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill/resume under parallelism: a durable campaign killed mid-run on a
/// multi-worker fleet leaves byte-identical store state to the
/// single-worker run, and resuming with a *different* worker count picks
/// up from it to the same final state — durability and the worker pool
/// compose without either observing the other.
#[test]
fn parallel_kill_resume_matches_sequential_durable_run() {
    let spec = catalog::device_e();
    let config = |threads: usize, kill| FleetConfig { threads, ..fleet_config(kill) };

    // Phase 1: the same campaign killed at round 2, once sequentially and
    // once on 4 workers, onto separate media. The media must end byte-
    // identical: same snapshot generations, same journal records.
    let medium_seq = SimMedium::new();
    let medium_par = SimMedium::new();
    let killed_seq = Fleet::new(config(1, Some(2)))
        .run_durable(&spec, FuzzerConfig::droidfuzz, medium_seq.clone())
        .unwrap();
    let killed_par = Fleet::new(config(4, Some(2)))
        .run_durable(&spec, FuzzerConfig::droidfuzz, medium_par.clone())
        .unwrap();
    assert_eq!(killed_seq.rounds_completed, 2);
    assert_eq!(killed_seq.snapshot, killed_par.snapshot, "kill-point snapshots diverged");
    let names_seq = medium_seq.list().unwrap();
    let names_par = medium_par.list().unwrap();
    assert_eq!(names_seq, names_par, "store object lists diverged");
    for name in &names_seq {
        assert_eq!(
            medium_seq.read(name).unwrap(),
            medium_par.read(name).unwrap(),
            "store object {name} diverged between thread counts"
        );
    }

    // Phase 2: resume the parallel medium sequentially and the sequential
    // medium on 4 workers — crossing thread counts over the kill point
    // must still converge on the same completed campaign.
    let (resumed_a, report_a) = Fleet::new(config(1, None))
        .resume_durable(&spec, FuzzerConfig::droidfuzz, medium_par)
        .unwrap();
    let (resumed_b, report_b) = Fleet::new(config(4, None))
        .resume_durable(&spec, FuzzerConfig::droidfuzz, medium_seq)
        .unwrap();
    assert_eq!(report_a.outcome, RecoveryOutcome::Clean);
    assert_eq!(report_b.outcome, RecoveryOutcome::Clean);
    assert_eq!(resumed_a.rounds_completed, 3);
    assert_eq!(resumed_a.snapshot, resumed_b.snapshot, "post-resume snapshots diverged");
    assert_eq!(
        resumed_a.crashes.iter().map(|c| &c.title).collect::<Vec<_>>(),
        resumed_b.crashes.iter().map(|c| &c.title).collect::<Vec<_>>()
    );
}

/// The same zero-loss property under an actively hostile medium: a torn
/// journal append and a bit-flipped snapshot write degrade the store
/// (torn-tail drop, generation fallback) but never kill the campaign or
/// corrupt the resumed state.
#[test]
fn hostile_medium_degrades_but_never_corrupts() {
    use droidfuzz_repro::droidfuzz::store::MediumFault;
    let spec = catalog::device_e();
    // The fault-free run's mutating ops, one checkpoint per round:
    //   0-1   write + sync journal-0 (header)
    //   2-3   round 1: one batch append + one sync of its records
    //   4-6   snapshot-1: tmp write, sync, rename
    //   7-9   journal-1: write + sync header, remove journal-0
    //   10-11 round 2: batch append + sync into journal-1
    //   12-14 snapshot-2: tmp write, sync, rename
    // So op 10 tears round 2's batch and op 12 corrupts snapshot-2:
    // recovery must fall back to snapshot-1 and drop the torn batch.
    let medium = SimMedium::with_plan(vec![
        MediumFault::TornWrite { op: 10, keep: 11 },
        MediumFault::BitFlip { op: 12, offset: 5, mask: 0x10 },
        MediumFault::NoSpace { after_bytes: 400_000 },
    ]);
    let killed = Fleet::new(fleet_config(Some(2)))
        .run_durable(&spec, FuzzerConfig::droidfuzz, medium.clone())
        .unwrap();
    assert_eq!(killed.rounds_completed, 2, "campaign must survive storage faults");
    let fired = medium.faults_fired();
    assert_eq!(fired.len(), 2, "both scripted faults must land: {fired:?}");
    assert!(fired[0].starts_with("TornWrite { op: 10"), "{fired:?}");
    assert!(fired[1].starts_with("BitFlip { op: 12"), "{fired:?}");

    let engine = FuzzingEngine::new(spec.clone().boot(), FuzzerConfig::droidfuzz(0));
    // Whatever survived must replay into an audit-clean state —
    // recover_verified already gates on the analysis auditors.
    let recovered = RecoveryManager::new(medium.clone())
        .recover_verified(engine.desc_table())
        .expect("snapshot-1 survives the faults");
    assert_eq!(
        recovered.report.outcome,
        RecoveryOutcome::CorruptSnapshot { fell_back_generations: 1 },
        "the flipped snapshot-2 must be skipped"
    );
    assert_eq!(recovered.report.base_generation, Some(1));
    assert_eq!(recovered.report.dropped_bytes, 11, "the torn batch must be dropped");
    let (resumed, _) = Fleet::new(fleet_config(None))
        .resume_durable(&spec, FuzzerConfig::droidfuzz, medium)
        .unwrap();
    assert_eq!(resumed.rounds_completed, 3);
}
