//! Fleet orchestration integration tests: determinism of sharded synced
//! campaigns, fault-injection kill/resume through the text snapshot, and
//! the paper daemon's repeated campaigns — unsynced single-round fleets
//! with one shard per repeat — riding the same path.

use droidfuzz_repro::droidfuzz::config::FuzzerConfig;
use droidfuzz_repro::droidfuzz::fleet::{Fleet, FleetConfig, FleetResult, SNAPSHOT_HEADER};
use droidfuzz_repro::droidfuzz::store::{RecoveryOutcome, SimMedium};
use droidfuzz_repro::simdevice::catalog;
use droidfuzz_repro::simdevice::faults::{FaultProfile, FaultRates};
use proptest::prelude::*;

fn quick_config(sync: bool, kill_after_rounds: Option<usize>) -> FleetConfig {
    FleetConfig {
        shards: 2,
        hours: 0.15,
        sync_interval_hours: 0.05,
        sync,
        hub_capacity: 256,
        kill_after_rounds,
        flap_limit: 2,
        checkpoint_interval_rounds: 1,
        threads: 0,
    }
}

fn fingerprint(result: &FleetResult) -> (usize, u64, Vec<u64>, Vec<Vec<String>>, String) {
    (
        result.union_coverage,
        result.fault_totals.total(),
        result.shards.iter().map(|s| s.final_coverage as u64).collect(),
        result.shards.iter().map(|s| s.crash_titles.clone()).collect(),
        result.snapshot.clone(),
    )
}

/// Seeds pulled and published, snapshots skipped, and each shard's seeds
/// restored from the hub at start.
fn sync_counters(result: &FleetResult) -> (usize, usize, u64, Vec<usize>) {
    (
        result.stats.seeds_pulled,
        result.stats.seeds_published,
        result.stats.snapshots_skipped,
        result.stats.shards.iter().map(|s| s.restored_seeds).collect(),
    )
}

/// A fixed `(seed, shard count)` must give identical final coverage,
/// crash titles, and snapshot text across two runs — worker threads only
/// touch their own shard and all hub traffic is sequenced in shard order,
/// so scheduling noise must not leak into results.
#[test]
fn synced_fleet_is_deterministic_for_a_fixed_seed() {
    let spec = catalog::device_a1();
    let first = Fleet::new(quick_config(true, None)).run(&spec, FuzzerConfig::droidfuzz);
    let second = Fleet::new(quick_config(true, None)).run(&spec, FuzzerConfig::droidfuzz);
    assert!(first.finished && second.finished);
    assert_eq!(fingerprint(&first), fingerprint(&second));
    assert_eq!(first.executions, second.executions);
    // Distinct seeds do diverge (the determinism is not degeneracy).
    let other = Fleet::new(quick_config(true, None))
        .run(&spec, |lane| FuzzerConfig::droidfuzz(lane + 100));
    assert_ne!(first.snapshot, other.snapshot);
}

/// Killing a campaign mid-flight must leave a snapshot that resumes to a
/// completed campaign with all persistent state carried over.
#[test]
fn killed_fleet_resumes_from_its_snapshot() {
    let spec = catalog::device_e();
    let killed = Fleet::new(quick_config(true, Some(1))).run(&spec, FuzzerConfig::droidfuzz);
    assert!(!killed.finished);
    assert_eq!(killed.rounds_completed, 1);
    assert!(killed.snapshot.starts_with(SNAPSHOT_HEADER));

    let resumed = Fleet::new(quick_config(true, None))
        .resume(&spec, FuzzerConfig::droidfuzz, &killed.snapshot)
        .expect("snapshot must parse");
    assert!(resumed.finished);
    assert_eq!(resumed.rounds_completed, 3);
    assert!(
        resumed.union_coverage >= killed.union_coverage,
        "union coverage can only grow over a resume: {} -> {}",
        killed.union_coverage,
        resumed.union_coverage
    );
    // Crashes found before the kill survive in the fleet database even if
    // no shard rediscovers them after the resume.
    for crash in &killed.crashes {
        assert!(
            resumed.crashes.iter().any(|c| c.title == crash.title),
            "crash {:?} lost across the resume",
            crash.title
        );
    }
    // The hub corpus was handed back to the restarted shards.
    assert!(resumed.stats.shards.iter().any(|s| s.restored_seeds > 0));
}

/// A hostile-profile fleet — link drops, truncated replies, HAL deaths,
/// hangs, wedges, spontaneous reboots, vanishing devices — must run to
/// full length, replay bit-identically for the same seed, and lose no
/// crash state to the faults: everything the campaign found is in the
/// final snapshot.
#[test]
fn hostile_fleet_survives_and_replays_identically() {
    let spec = catalog::device_e();
    let mk = |seed| FuzzerConfig::droidfuzz(seed).with_fault_profile(FaultProfile::Hostile);
    let first = Fleet::new(quick_config(true, None)).run(&spec, mk);
    let second = Fleet::new(quick_config(true, None)).run(&spec, mk);
    assert!(first.finished, "the supervisor absorbs every injected fault");
    assert!(first.fault_totals.injected > 0, "hostile profile actually injects");
    assert!(first.union_coverage > 0, "coverage still accrues under hostility");
    assert_eq!(fingerprint(&first), fingerprint(&second));
    // Zero lost crash state: every fleet crash appears in the snapshot.
    for crash in &first.crashes {
        assert!(
            first.snapshot.contains(&crash.title.replace('\n', "\\n")),
            "crash {:?} missing from the snapshot",
            crash.title
        );
    }
}

/// A parallel run must be *bit-identical* to the sequential one: the
/// worker pool only changes which OS thread executes a shard's slice,
/// never the order hub state is touched in. `threads: 1` is the
/// sequential reference; every other worker count must reproduce its
/// snapshot, crash sets, and execution totals exactly.
#[test]
fn parallel_fleet_matches_sequential_bit_for_bit() {
    let spec = catalog::device_a1();
    let config = |threads| FleetConfig { shards: 4, threads, ..quick_config(true, None) };
    let sequential = Fleet::new(config(1)).run(&spec, FuzzerConfig::droidfuzz);
    assert!(sequential.finished);
    for threads in [2, 3, 4, 8] {
        let parallel = Fleet::new(config(threads)).run(&spec, FuzzerConfig::droidfuzz);
        assert_eq!(
            fingerprint(&sequential),
            fingerprint(&parallel),
            "threads={threads} diverged from the sequential run"
        );
        assert_eq!(sequential.executions, parallel.executions, "threads={threads}");
        assert_eq!(
            sequential.snapshot, parallel.snapshot,
            "threads={threads} snapshot not byte-identical"
        );
    }
}

/// The absint gate keeps fixed-seed campaigns bit-identical across
/// worker counts: a DroidFuzz-S fleet (state models loaded, relation
/// priors seeded, static gate and depth-energy active) must reproduce
/// the sequential snapshot — including the absint counters in its
/// `# section lint` — at any thread count.
#[test]
fn droidfuzz_s_fleet_matches_sequential_across_thread_counts() {
    let spec = catalog::device_a1();
    let config = |threads| FleetConfig { shards: 3, threads, ..quick_config(true, None) };
    let sequential = Fleet::new(config(1)).run(&spec, FuzzerConfig::droidfuzz_s);
    assert!(sequential.finished);
    assert!(
        sequential.snapshot.contains("absint_rejected"),
        "snapshot must carry the absint gate counters"
    );
    for threads in [2, 4] {
        let parallel = Fleet::new(config(threads)).run(&spec, FuzzerConfig::droidfuzz_s);
        assert_eq!(
            fingerprint(&sequential),
            fingerprint(&parallel),
            "threads={threads} diverged under the absint gate"
        );
        assert_eq!(sequential.executions, parallel.executions, "threads={threads}");
    }
}

/// Parallel determinism also holds under fault injection: restarts and
/// quarantines are orchestrator-side decisions made in shard order, so a
/// hostile campaign replays identically at any worker count.
#[test]
fn parallel_hostile_fleet_matches_sequential() {
    let spec = catalog::device_e();
    let mk = |seed| FuzzerConfig::droidfuzz(seed).with_fault_profile(FaultProfile::Hostile);
    let config = |threads| FleetConfig { shards: 3, threads, ..quick_config(true, None) };
    let sequential = Fleet::new(config(1)).run(&spec, mk);
    let parallel = Fleet::new(config(3)).run(&spec, mk);
    assert!(sequential.fault_totals.injected > 0, "hostile profile actually injects");
    assert_eq!(fingerprint(&sequential), fingerprint(&parallel));
}

/// The broker batch size is a pure host-side amortization: batch
/// boundaries draw no RNG and charge no virtual time, so fixed-seed
/// campaigns must produce byte-equal snapshots at every `exec_batch` ×
/// `threads` combination. `exec_batch: 1` is the per-program reference.
#[test]
fn exec_batch_size_is_invisible_to_campaign_results() {
    let spec = catalog::device_a1();
    let config = |threads| FleetConfig { shards: 3, threads, ..quick_config(true, None) };
    let mk = |batch: usize| {
        move |lane: u64| FuzzerConfig::droidfuzz(lane).with_exec_batch(batch)
    };
    let reference = Fleet::new(config(1)).run(&spec, mk(1));
    assert!(reference.finished);
    for batch in [4, 32] {
        for threads in [1, 4] {
            let batched = Fleet::new(config(threads)).run(&spec, mk(batch));
            assert_eq!(
                fingerprint(&reference),
                fingerprint(&batched),
                "batch={batch} threads={threads} diverged from the per-program path"
            );
            assert_eq!(reference.executions, batched.executions, "batch={batch}");
            assert_eq!(
                reference.snapshot, batched.snapshot,
                "batch={batch} threads={threads} snapshot not byte-identical"
            );
        }
    }
}

/// Faults landing mid-batch — HAL deaths, spontaneous reboots, wedges,
/// hangs, including on the last program of a slice — must salvage crash
/// reports and quarantine exactly like the per-program path: identical
/// fault taxonomy totals, identical crash sets, identical snapshots.
#[test]
fn mid_batch_faults_match_per_program_taxonomy() {
    let spec = catalog::device_e();
    // A mix dense enough that every batch of 32 sees several faults and
    // slices regularly end on a faulted program.
    let rates = FaultRates {
        hal_death: 0.04,
        reboot: 0.04,
        wedge: 0.03,
        hang: 0.03,
        truncated_reply: 0.03,
        link_drop: 0.03,
        ..FaultRates::for_profile(FaultProfile::Reliable)
    };
    let mk = |batch: usize| {
        move |lane: u64| {
            FuzzerConfig::droidfuzz(lane).with_fault_rates(rates).with_exec_batch(batch)
        }
    };
    let config = |threads| FleetConfig { shards: 2, threads, ..quick_config(true, None) };
    let reference = Fleet::new(config(1)).run(&spec, mk(1));
    assert!(reference.fault_totals.injected > 0, "the forced mix actually injects");
    for batch in [4, 32] {
        let batched = Fleet::new(config(1)).run(&spec, mk(batch));
        assert_eq!(
            reference.fault_totals, batched.fault_totals,
            "batch={batch}: fault classification must be batch-size-invariant"
        );
        assert_eq!(fingerprint(&reference), fingerprint(&batched), "batch={batch}");
    }
    // And the full hostile profile (vanishing devices, re-provisioning,
    // shard restarts) stays equal across batch sizes and threads too.
    let hostile = |batch: usize| {
        move |lane: u64| {
            FuzzerConfig::droidfuzz(lane)
                .with_fault_profile(FaultProfile::Hostile)
                .with_exec_batch(batch)
        }
    };
    let hostile_ref = Fleet::new(config(1)).run(&spec, hostile(1));
    let hostile_batched = Fleet::new(config(2)).run(&spec, hostile(32));
    assert_eq!(fingerprint(&hostile_ref), fingerprint(&hostile_batched));
}

proptest! {
    /// Sequential/parallel equivalence over random seeds, worker counts
    /// and checkpoint cadences: for any base seed, any `threads in 2..=8`
    /// and a cadence of 1 or 3 rounds, the final snapshot, crash sets and
    /// sync counters match the `threads: 1` run byte for byte — for a
    /// fresh four-round campaign and for one more round resumed from its
    /// snapshot, which restores every shard from the hub on the pool.
    #[test]
    fn any_worker_count_matches_sequential(
        seed in 0u64..4096,
        threads in 2u64..9,
        cadence_three in any::<bool>(),
    ) {
        let spec = catalog::device_a1();
        let config = |threads, hours| FleetConfig {
            shards: 3,
            hours,
            sync_interval_hours: 0.015,
            checkpoint_interval_rounds: if cadence_three { 3 } else { 1 },
            threads,
            ..quick_config(true, None)
        };
        let mk = move |lane: u64| FuzzerConfig::droidfuzz(lane.wrapping_add(seed));
        let run = |threads| {
            let fresh = Fleet::new(config(threads, 0.06)).run(&spec, mk);
            let resumed = Fleet::new(config(threads, 0.075))
                .resume(&spec, mk, &fresh.snapshot)
                .expect("snapshot parses");
            [fresh, resumed]
        };
        let sequential = run(1);
        let parallel = run(threads as usize);
        prop_assert!(sync_counters(&sequential[1]).3.iter().sum::<usize>() > 0);
        for (s, p) in sequential.iter().zip(&parallel) {
            prop_assert_eq!(fingerprint(s), fingerprint(p));
            prop_assert_eq!(s.executions, p.executions);
            prop_assert_eq!(sync_counters(s), sync_counters(p));
        }
    }

    /// Batch-size equivalence over random seeds, batch sizes, worker
    /// counts, and fault pressure: for any `exec_batch in 2..=32` the
    /// campaign matches the `exec_batch: 1` per-program reference byte
    /// for byte — faulted or not, parallel or not.
    #[test]
    fn any_batch_size_matches_per_program(
        seed in 0u64..4096,
        batch in 2usize..33,
        threads in 1usize..5,
        flaky in any::<bool>(),
    ) {
        let spec = catalog::device_a1();
        let config = |threads| FleetConfig {
            shards: 3,
            hours: 0.06,
            sync_interval_hours: 0.03,
            threads,
            ..quick_config(true, None)
        };
        let mk = move |b: usize| {
            move |lane: u64| {
                let cfg = FuzzerConfig::droidfuzz(lane.wrapping_add(seed)).with_exec_batch(b);
                if flaky { cfg.with_fault_profile(FaultProfile::Flaky) } else { cfg }
            }
        };
        let per_program = Fleet::new(config(1)).run(&spec, mk(1));
        let batched = Fleet::new(config(threads)).run(&spec, mk(batch));
        prop_assert_eq!(fingerprint(&per_program), fingerprint(&batched));
        prop_assert_eq!(per_program.executions, batched.executions);
    }
}

/// The paper daemon's repeated campaign on device E: `repeats`
/// independent repeats of `hours` virtual hours, as one unsynced fleet
/// round with one shard per repeat.
fn repeats(hours: f64, repeats: usize, threads: usize) -> Fleet {
    Fleet::new(FleetConfig {
        shards: repeats,
        hours,
        sync_interval_hours: hours,
        sync: false,
        threads,
        ..FleetConfig::default()
    })
}

fn final_coverage(result: &FleetResult) -> Vec<f64> {
    result.shards.iter().map(|s| s.final_coverage).collect()
}

/// The repeated campaign is the unsynced single-slice special case of the
/// fleet path and keeps its aggregate shape.
#[test]
fn daemon_campaign_rides_the_fleet_path() {
    let result = repeats(0.05, 2, 0).run(&catalog::device_e(), FuzzerConfig::droidfuzz);
    assert_eq!(result.device_id, "E");
    assert_eq!(result.fuzzer, "DroidFuzz");
    assert_eq!(final_coverage(&result).len(), 2);
    assert!(result.executions > 0);
    assert!(!result.mean_series.is_empty());
    assert_eq!(result.fault_totals.total(), 0, "reliable by default");
}

/// The repeats aggregate into one result: per-repeat final coverage,
/// their mean, and summed executions, in one round with no exchange.
#[test]
fn unsynced_repeats_aggregate_into_one_result() {
    let result = repeats(0.05, 3, 0).run(&catalog::device_e(), FuzzerConfig::droidfuzz);
    assert_eq!(result.device_id, "E");
    assert_eq!(result.fuzzer, "DroidFuzz");
    assert_eq!(final_coverage(&result).len(), 3);
    assert_eq!(result.rounds_completed, 1, "one round spans the whole campaign");
    assert!(result.mean_final_coverage() > 0.0);
    assert_eq!(result.executions, result.shards.iter().map(|s| s.executions).sum::<u64>());
    assert!(result.executions > 0);
    assert!(!result.mean_series.is_empty());
    assert_eq!(result.stats.seeds_pulled, 0, "repeats exchange nothing");
    assert_eq!(result.fault_totals.total(), 0, "default profile injects nothing");
}

/// The thread cap keeps the repeated campaign's results bit-identical.
#[test]
fn daemon_thread_cap_does_not_change_results() {
    let spec = catalog::device_e();
    let wide = repeats(0.05, 3, 0).run(&spec, FuzzerConfig::droidfuzz);
    let narrow = repeats(0.05, 3, 1).run(&spec, FuzzerConfig::droidfuzz);
    assert_eq!(final_coverage(&wide), final_coverage(&narrow));
    assert_eq!(wide.executions, narrow.executions);
    assert_eq!(
        wide.crashes.iter().map(|c| &c.title).collect::<Vec<_>>(),
        narrow.crashes.iter().map(|c| &c.title).collect::<Vec<_>>()
    );
}

/// Under the flaky profile the repeats report injected faults and still
/// make progress.
#[test]
fn unsynced_repeats_under_flaky_profile_report_faults() {
    let mk = |seed| FuzzerConfig::droidfuzz(seed).with_fault_profile(FaultProfile::Flaky);
    let result = repeats(0.1, 2, 0).run(&catalog::device_e(), mk);
    assert!(result.fault_totals.injected > 0, "flaky devices see injected faults");
    assert!(result.mean_final_coverage() > 0.0, "coverage still accrues under faults");
    assert!(result.executions > 0);
}

/// A crash found by several repeats appears once in the aggregate.
#[test]
fn unsynced_repeats_deduplicate_crashes() {
    // Device E's querycap bug is shallow enough to appear in most short
    // runs; across repeats it must appear once in the aggregate.
    let result = repeats(0.4, 2, 0).run(&catalog::device_e(), FuzzerConfig::droidfuzz);
    let querycaps = result.crashes.iter().filter(|c| c.title.contains("v4l_querycap")).count();
    assert!(querycaps <= 1, "dedup failed: {:?}", result.crashes);
    let found_by = result
        .shards
        .iter()
        .filter(|s| s.crash_titles.iter().any(|t| t.contains("v4l_querycap")))
        .count();
    assert_eq!(querycaps, found_by.min(1), "every repeat's crash reaches the aggregate");
}

/// A durable repeated campaign runs fresh on an empty medium, and a
/// second campaign on the now-occupied medium resumes cleanly from it.
#[test]
fn durable_repeats_run_fresh_then_resume_from_the_same_medium() {
    let spec = catalog::device_e();
    let medium = SimMedium::new();
    let first = repeats(0.05, 2, 0)
        .run_durable(&spec, FuzzerConfig::droidfuzz, medium.clone())
        .expect("fresh medium starts a campaign");
    assert!(first.store_totals.snapshots_written > 0);
    assert!(first.mean_final_coverage() > 0.0);
    assert!(
        repeats(0.05, 2, 0).run_durable(&spec, FuzzerConfig::droidfuzz, medium.clone()).is_err(),
        "an occupied medium must not restart from scratch"
    );
    let (second, report) = repeats(0.05, 2, 0)
        .resume_durable(&spec, FuzzerConfig::droidfuzz, medium)
        .expect("occupied medium resumes");
    assert_eq!(report.outcome, RecoveryOutcome::Clean);
    assert!(second.store_totals.recoveries >= 1);
}
