//! Fleet orchestration demo: a synced multi-shard campaign versus the
//! same shards running as independent repeats — the speedup the corpus
//! hub and relation-graph sync buy, measured as executions-to-coverage —
//! plus a mid-campaign kill/resume exercise of the snapshot path.
//!
//! Scale: `DF_HOURS` (default 2 virtual hours), `DF_SHARDS` (falls back
//! to `DF_REPEATS`, then 4),
//! `DF_SYNC_MIN` (sync round interval in virtual minutes, default 15),
//! `DF_DEVICE` (default A1), `DF_FAULTS` (fault profile every engine
//! runs under: `reliable`, `flaky`, or `hostile`; default reliable).
//! `DF_SNAPSHOT_OUT` writes the final fleet snapshot to a file.
//!
//! The run ends with a fault-overhead comparison — the same small fleet
//! under `reliable` vs `flaky` — reported as one machine-readable JSON
//! line (`"bench":"fleet_fault_overhead"`) — and a thread-scaling arm:
//! the same campaign at 1/2/4/8 workers (`DF_PAR_SHARDS` shards, default
//! 8; `DF_PAR_HOURS` virtual hours, default min(DF_HOURS, 0.5)), one
//! `"bench":"fleet_parallel"` JSON line per point with wall-clock
//! executions/second and the speedup over the single-worker run. Every
//! point's final snapshot is asserted byte-identical to the
//! single-worker snapshot — the parallel executor is exercised as a
//! pure wall-clock optimization.
//!
//! A batched-execution arm (`"bench":"exec_batch"`) then compares the
//! historical per-program broker flow against the batched session on an
//! identical program stream (`DF_BATCH_PROGS` programs, default 2000, in
//! batches of `DF_BATCH`, default 32), asserts outcome equality, measures
//! hostile-fault overhead at fleet granularity (`DF_BATCH_HOURS` virtual
//! hours, default 0.15), and sweeps batch {1,4,32} x threads {1,4} for
//! snapshot byte-identity. Its `allocs_per_prog` is the heap allocations
//! the batched arm makes per program, counted by this binary's global
//! allocator on the bench thread.
//!
//! A sync hot-path arm (`"bench":"sync_hot_paths"`) restores the hub
//! relation graph of a fixed-seed 4-shard, 6-virtual-hour campaign on the
//! device and times the §IV-C operations fleet sync and generation call
//! most: `merge_from` (`merge_us`), `learn` (`learn_us`) and
//! `relational_generate` (`generate_us`), plus one text `export`
//! (`export_us`) and one `import` (`import_us`) of the whole graph, the
//! form snapshots keep it in, and the same graph as the wire carries it:
//! written into a pull answer's `relations` triples (`wire_export_us`)
//! and decoded and rebuilt from them (`wire_import_us`); each the best of
//! eleven timed repetitions, next to the graph's `edges`. The same campaign's hub
//! corpus, restored into an engine corpus of `seeds` seeds, times the
//! program text every sync round moves seeds through: writing the corpus
//! text (`format_us`) and parsing each seed's program (`parse_us`), in µs
//! per seed, best of eleven.

use droidfuzz::config::FuzzerConfig;
use droidfuzz::corpus::Corpus;
use droidfuzz::descs::build_syscall_table;
use droidfuzz::exec::Broker;
use droidfuzz_bench::reference::ReferenceBroker;
use droidfuzz::fleet::{Fleet, FleetConfig, FleetResult, FleetSnapshot};
use droidfuzz::generate::{random_generate, relational_generate};
use droidfuzz::net::{decode_message, encode_message, Message};
use droidfuzz::relation::RelationGraph;
use droidfuzz::FuzzingEngine;
use droidfuzz::report::ascii_chart;
use droidfuzz_bench::{env_f64, env_u64};
use fuzzlang::desc::DescId;
use fuzzlang::text::{format_prog, parse_prog};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use simdevice::catalog;
use simdevice::faults::FaultProfile;
use simdevice::firmware::FirmwareSpec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting allocations per thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; the thread-local
// counter is a `const`-initialized `Cell` without a destructor, so it
// never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by the calling thread so far.
fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn fleet_config(shards: usize, hours: f64, sync_min: f64, sync: bool) -> FleetConfig {
    FleetConfig {
        shards,
        hours,
        sync_interval_hours: sync_min / 60.0,
        sync,
        ..FleetConfig::default()
    }
}

/// Executions spent per distinct kernel block — lower is better; the
/// fleet's cost metric for "executions-to-coverage".
fn execs_per_block(result: &FleetResult) -> f64 {
    result.executions as f64 / result.union_coverage.max(1) as f64
}

/// Best-of-eleven wall time of `run` on a fresh `setup()` state (setup
/// untimed), in µs per one of its `calls` operations.
fn best_us_per_call<S>(calls: usize, setup: impl Fn() -> S, run: impl Fn(&mut S)) -> f64 {
    (0..11)
        .map(|_| {
            let mut state = setup();
            let start = std::time::Instant::now();
            run(&mut state);
            let us = start.elapsed().as_secs_f64() * 1e6 / calls as f64;
            std::hint::black_box(state);
            us
        })
        .fold(f64::INFINITY, f64::min)
}

/// The `sync_hot_paths` arm: times relation-graph merge and learn,
/// relational generation and the graph's text export and import on a
/// campaign's hub graph, and the program text codec on its hub corpus.
fn sync_hot_paths(spec: &FirmwareSpec, device: &str) {
    const MERGES: usize = 100;
    const TEXTS: usize = 20;
    const LEARNS: usize = 20_000;
    const PROGS: usize = 2_000;
    let campaign = FleetConfig { shards: 4, hours: 6.0, ..FleetConfig::default() };
    let result = Fleet::new(campaign).run(spec, FuzzerConfig::droidfuzz);
    let snapshot = FleetSnapshot::parse(&result.snapshot).expect("own snapshot parses");
    let config = FuzzerConfig::droidfuzz(1);
    let engine = FuzzingEngine::new(spec.clone().boot(), config.clone());
    let table = engine.desc_table();
    let mut hub = RelationGraph::new(table);
    hub.import(&snapshot.relations_text, table);
    let edges = hub.edge_count();

    let merge_us = best_us_per_call(
        MERGES,
        || vec![hub.clone(); MERGES],
        |targets| targets.iter_mut().for_each(|target| target.merge_from(&hub)),
    );
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let pairs: Vec<(DescId, DescId)> =
        hub.top_edges(usize::MAX).into_iter().map(|(a, b, _)| (a, b)).collect();
    let learn_pairs: Vec<_> = (0..LEARNS)
        .map(|_| *pairs.choose(&mut rng).expect("the campaign learned edges"))
        .collect();
    let learn_us = best_us_per_call(
        LEARNS,
        || hub.clone(),
        |graph| learn_pairs.iter().for_each(|&(a, b)| graph.learn(a, b)),
    );
    let generate_us = best_us_per_call(
        PROGS,
        || StdRng::seed_from_u64(0x6E4),
        |rng| {
            for _ in 0..PROGS {
                std::hint::black_box(relational_generate(table, &hub, config.max_prog_calls, rng));
            }
        },
    );
    let export_us = best_us_per_call(TEXTS, || (), |()| {
        for _ in 0..TEXTS {
            std::hint::black_box(hub.export(table));
        }
    });
    let text = hub.export(table);
    let import_us = best_us_per_call(
        TEXTS,
        || vec![RelationGraph::new(table); TEXTS],
        |graphs| graphs.iter_mut().for_each(|graph| {
            graph.import(&text, table);
        }),
    );

    let answer = |relations| Message::PullResponse {
        barrier: 1,
        shard: 0,
        corpus_text: String::new(),
        cursor: 0,
        delivered: 0,
        relations,
    };
    let wire_export_us = best_us_per_call(TEXTS, || (), |()| {
        for _ in 0..TEXTS {
            std::hint::black_box(encode_message(&answer(Some(hub.to_wire()))));
        }
    });
    let payload = encode_message(&answer(Some(hub.to_wire())));
    let wire_import_us = best_us_per_call(
        TEXTS,
        || vec![RelationGraph::new(table); TEXTS],
        |graphs| {
            for graph in graphs {
                let Ok(Message::PullResponse { relations: Some(wire), .. }) =
                    decode_message(&payload)
                else {
                    panic!("own pull answer decodes with its graph");
                };
                graph.import_wire(&wire, table);
            }
        },
    );

    let mut corpus = Corpus::new();
    corpus.import(&snapshot.corpus_text, table);
    let seeds = corpus.len().max(1);
    let format_us = best_us_per_call(seeds, || (), |()| {
        std::hint::black_box(corpus.export(table));
    });
    let bodies: Vec<String> =
        corpus.seeds().iter().map(|seed| format_prog(&seed.prog, table)).collect();
    let parse_us = best_us_per_call(seeds, || (), |()| {
        for body in &bodies {
            std::hint::black_box(parse_prog(body, table).expect("own text parses"));
        }
    });
    println!(
        "\nsync hot paths ({edges}-edge hub graph, {seeds}-seed hub corpus): merge {merge_us:.1} us, \
         learn {learn_us:.3} us, relational_generate {generate_us:.2} us, \
         export {export_us:.1} us, import {import_us:.1} us, \
         wire export {wire_export_us:.1} us, wire import {wire_import_us:.1} us, \
         format {format_us:.2} us/seed, parse {parse_us:.2} us/seed"
    );
    println!(
        "{{\"bench\":\"sync_hot_paths\",\"device\":\"{device}\",\"edges\":{edges},\
         \"merge_us\":{merge_us:.2},\"learn_us\":{learn_us:.4},\"generate_us\":{generate_us:.3},\
         \"export_us\":{export_us:.2},\"import_us\":{import_us:.2},\
         \"wire_export_us\":{wire_export_us:.2},\"wire_import_us\":{wire_import_us:.2},\
         \"seeds\":{seeds},\"format_us\":{format_us:.3},\"parse_us\":{parse_us:.3}}}"
    );
}

fn main() {
    let hours = env_f64("DF_HOURS", 2.0);
    // DF_REPEATS (the knob the other bench binaries use) doubles as the
    // shard count so one env block drives the whole suite.
    let shards = env_u64("DF_SHARDS", env_u64("DF_REPEATS", 4)).max(1) as usize;
    let sync_min = env_f64("DF_SYNC_MIN", 15.0);
    let device = std::env::var("DF_DEVICE").unwrap_or_else(|_| "A1".into());
    let Some(spec) = catalog::by_id(&device) else {
        eprintln!("unknown device {device}; known: A1 A2 B C1 C2 D E");
        std::process::exit(2);
    };
    let profile: FaultProfile = match std::env::var("DF_FAULTS").unwrap_or_default().parse() {
        Ok(profile) => profile,
        Err(e) => {
            eprintln!("bad DF_FAULTS: {e}");
            std::process::exit(2);
        }
    };
    let make_config = move |seed| FuzzerConfig::droidfuzz(seed).with_fault_profile(profile);

    println!(
        "fleet campaign: {shards} shards x {hours} h on device {device}, sync every {sync_min} virtual min, fault profile {profile}\n"
    );

    let synced =
        Fleet::new(fleet_config(shards, hours, sync_min, true)).run(&spec, make_config);
    println!("== synced fleet ==");
    println!("{}", synced.stats.render());

    let independent =
        Fleet::new(fleet_config(shards, hours, sync_min, false)).run(&spec, make_config);
    println!("== independent repeats (no sync) ==");
    println!("{}", independent.stats.render());

    println!(
        "{}",
        ascii_chart(
            "union coverage over the campaign",
            &[("synced", &synced.union_series), ("independent", &independent.union_series)],
            64,
            12,
        )
    );

    let synced_cost = execs_per_block(&synced);
    let independent_cost = execs_per_block(&independent);
    println!(
        "executions-to-coverage: synced {:.1} execs/block ({} execs -> {} blocks), \
         independent {:.1} execs/block ({} execs -> {} blocks)",
        synced_cost,
        synced.executions,
        synced.union_coverage,
        independent_cost,
        independent.executions,
        independent.union_coverage,
    );
    if synced_cost < independent_cost {
        println!(
            "sync speedup: {:.2}x fewer executions per covered block",
            independent_cost / synced_cost
        );
    } else {
        println!("no speedup at this scale; longer campaigns amortize the sync better");
    }

    // Kill/resume exercise: kill the synced fleet after half its rounds,
    // then resume from the snapshot it left behind.
    let rounds = ((hours * 60.0) / sync_min).ceil() as usize;
    let kill_at = (rounds / 2).max(1);
    let fleet = Fleet::new(FleetConfig {
        kill_after_rounds: Some(kill_at),
        ..fleet_config(shards, hours, sync_min, true)
    });
    let killed = fleet.run(&spec, make_config);
    let resumed = Fleet::new(fleet_config(shards, hours, sync_min, true))
        .resume(&spec, make_config, &killed.snapshot)
        .expect("snapshot restores");
    println!(
        "\nkill/resume: killed after round {}/{} (union coverage {}), resumed to round {} \
         (union coverage {}, {} crashes carried over, finished: {})",
        killed.rounds_completed,
        rounds,
        killed.union_coverage,
        resumed.rounds_completed,
        resumed.union_coverage,
        resumed.crashes.len(),
        resumed.finished,
    );

    // Fault-overhead comparison: the same small fleet under reliable vs
    // flaky devices — how many extra executions a covered block costs
    // when links drop, HALs die, and devices hang. Capped at half a
    // virtual hour so the comparison stays cheap at any DF_HOURS.
    let overhead_hours = hours.min(0.5);
    let arm = |p: FaultProfile| {
        Fleet::new(fleet_config(shards, overhead_hours, sync_min.min(7.5), true))
            .run(&spec, move |seed| FuzzerConfig::droidfuzz(seed).with_fault_profile(p))
    };
    let reliable = arm(FaultProfile::Reliable);
    let flaky = arm(FaultProfile::Flaky);
    let reliable_cost = execs_per_block(&reliable);
    let flaky_cost = execs_per_block(&flaky);
    println!(
        "\nfault overhead ({shards} shards x {overhead_hours} h): reliable {:.1} execs/block, \
         flaky {:.1} execs/block ({} faults injected, {} retries, {} reprovisions)",
        reliable_cost,
        flaky_cost,
        flaky.fault_totals.injected,
        flaky.fault_totals.transient_retries,
        flaky.fault_totals.reprovisions,
    );
    println!(
        "{{\"bench\":\"fleet_fault_overhead\",\"device\":\"{device}\",\"shards\":{shards},\
         \"hours\":{overhead_hours},\"reliable_executions\":{},\"reliable_coverage\":{},\
         \"flaky_executions\":{},\"flaky_coverage\":{},\"flaky_faults_injected\":{},\
         \"reliable_execs_per_block\":{reliable_cost:.3},\"flaky_execs_per_block\":{flaky_cost:.3},\
         \"overhead_ratio\":{:.3}}}",
        reliable.executions,
        reliable.union_coverage,
        flaky.executions,
        flaky.union_coverage,
        flaky.fault_totals.injected,
        flaky_cost / reliable_cost.max(1e-9),
    );

    // Thread-scaling arm: the identical campaign run at 1/2/4/8 workers.
    // The virtual clock makes the *results* bit-identical across thread
    // counts (asserted below); the wall clock measures how well the shard
    // slices overlap on this host's cores.
    let par_shards = env_u64("DF_PAR_SHARDS", 8).max(1) as usize;
    let par_hours = env_f64("DF_PAR_HOURS", hours.min(0.5));
    let par_sync = env_f64("DF_PAR_SYNC_MIN", sync_min.min(7.5));
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "\nthread scaling: {par_shards} shards x {par_hours} h on device {device}, \
         {cores} core(s) available"
    );
    let par_arm = |threads: usize| {
        let cfg = FleetConfig { threads, ..fleet_config(par_shards, par_hours, par_sync, true) };
        let start = std::time::Instant::now();
        let result = Fleet::new(cfg).run(&spec, FuzzerConfig::droidfuzz);
        (result, start.elapsed().as_secs_f64())
    };
    let mut base_rate = 0.0_f64;
    let mut base_snapshot = String::new();
    let mut measured = Vec::new();
    for &threads in &[1_usize, 2, 4, 8] {
        let workers = threads.min(par_shards);
        if measured.contains(&workers) {
            continue; // clamped onto an already-measured point
        }
        measured.push(workers);
        let (result, wall) = par_arm(workers);
        let rate = result.executions as f64 / wall.max(1e-9);
        if threads == 1 {
            base_rate = rate;
            base_snapshot = result.snapshot.clone();
        }
        assert_eq!(
            result.snapshot, base_snapshot,
            "threads={workers} snapshot diverged from the single-worker run"
        );
        let speedup = rate / base_rate.max(1e-9);
        println!(
            "  threads={workers}: {} execs in {wall:.2} s wall = {rate:.0} execs/s \
             ({speedup:.2}x vs threads=1, snapshot identical)",
            result.executions,
        );
        println!(
            "{{\"bench\":\"fleet_parallel\",\"device\":\"{device}\",\"shards\":{par_shards},\
             \"hours\":{par_hours},\"threads\":{workers},\"cores\":{cores},\
             \"executions\":{},\"wall_secs\":{wall:.3},\"execs_per_sec\":{rate:.1},\
             \"speedup\":{speedup:.3}}}",
            result.executions,
        );
    }

    // Batched-execution arm: the historical per-program broker flow
    // (per-exec trace attach/detach, per-call descriptor clones, fresh
    // collection buffers, a full coverage-map scan against a HashSet seen
    // filter) versus the batched session (persistent trace, recycled
    // scratch, O(new) page-marked coverage delta) over the identical
    // program stream on identical devices. Outcome equality is asserted
    // program by program — the speedup is pure host-side amortization.
    let batch_progs = env_u64("DF_BATCH_PROGS", 2_000).max(1) as usize;
    let batch_size = env_u64("DF_BATCH", 32).max(1) as usize;
    let mut ref_device = catalog::by_id(&device).expect("known device").boot();
    let mut fast_device = catalog::by_id(&device).expect("known device").boot();
    let batch_table = build_syscall_table(ref_device.kernel());
    let mut prog_rng = StdRng::seed_from_u64(0xBA7C);
    let progs: Vec<_> =
        (0..batch_progs).map(|_| random_generate(&batch_table, 12, &mut prog_rng)).collect();

    let mut ref_broker = ReferenceBroker::new();
    let start = std::time::Instant::now();
    let ref_outcomes: Vec<_> =
        progs.iter().map(|p| ref_broker.execute(&mut ref_device, &batch_table, p)).collect();
    let ref_wall = start.elapsed().as_secs_f64();
    let ref_rate = batch_progs as f64 / ref_wall.max(1e-9);

    let mut fast_broker = Broker::new();
    let allocs_before = thread_allocs();
    let start = std::time::Instant::now();
    let mut fast_outcomes = Vec::with_capacity(batch_progs);
    for chunk in progs.chunks(batch_size) {
        fast_outcomes.extend(fast_broker.execute_batch(&mut fast_device, &batch_table, chunk));
    }
    let fast_wall = start.elapsed().as_secs_f64();
    let allocs_per_prog = (thread_allocs() - allocs_before) as f64 / batch_progs as f64;
    let fast_rate = batch_progs as f64 / fast_wall.max(1e-9);
    assert_eq!(ref_outcomes.len(), fast_outcomes.len());
    for (i, (a, b)) in ref_outcomes.iter().zip(&fast_outcomes).enumerate() {
        assert_eq!(a, b, "batched outcome {i} diverged from the reference path");
    }
    let exec_speedup = fast_rate / ref_rate.max(1e-9);
    println!(
        "\nbatched execution ({batch_progs} programs, batch={batch_size}): \
         reference {ref_rate:.0} progs/s, batched {fast_rate:.0} progs/s \
         ({exec_speedup:.2}x, outcomes identical, {allocs_per_prog:.2} allocations/prog)"
    );

    // The same comparison under hostile faults, at fleet granularity: a
    // hostile campaign with exec_batch=32 must produce the per-program
    // snapshot byte for byte, and its wall-clock overhead is measured
    // rather than assumed.
    let sweep_hours = env_f64("DF_BATCH_HOURS", 0.15);
    let sweep_cfg = |threads: usize| FleetConfig {
        threads,
        ..fleet_config(3, sweep_hours, sync_min.min(7.5), true)
    };
    let mk_batch = |batch: usize, p: FaultProfile| {
        move |seed: u64| {
            FuzzerConfig::droidfuzz(seed).with_fault_profile(p).with_exec_batch(batch)
        }
    };
    let timed = |threads: usize, batch: usize, p: FaultProfile| {
        let start = std::time::Instant::now();
        let result = Fleet::new(sweep_cfg(threads)).run(&spec, mk_batch(batch, p));
        (result, start.elapsed().as_secs_f64())
    };
    let (hostile_pp, hostile_pp_wall) = timed(1, 1, FaultProfile::Hostile);
    let (hostile_batched, hostile_batched_wall) = timed(1, 32, FaultProfile::Hostile);
    assert_eq!(
        hostile_pp.snapshot, hostile_batched.snapshot,
        "hostile batched snapshot diverged from per-program"
    );
    let hostile_pp_rate = hostile_pp.executions as f64 / hostile_pp_wall.max(1e-9);
    let hostile_batched_rate =
        hostile_batched.executions as f64 / hostile_batched_wall.max(1e-9);
    let hostile_speedup = hostile_batched_rate / hostile_pp_rate.max(1e-9);
    println!(
        "hostile fleet overhead: per-program {hostile_pp_rate:.0} execs/s, \
         batch=32 {hostile_batched_rate:.0} execs/s ({hostile_speedup:.2}x, \
         {} faults injected, snapshots identical)",
        hostile_batched.fault_totals.injected,
    );

    // Reliable-profile snapshot sweep: batch {1,4,32} x threads {1,4}
    // all byte-identical.
    let sweep_base = Fleet::new(sweep_cfg(1)).run(&spec, mk_batch(1, FaultProfile::Reliable));
    for &batch in &[4_usize, 32] {
        for &threads in &[1_usize, 4] {
            let run =
                Fleet::new(sweep_cfg(threads)).run(&spec, mk_batch(batch, FaultProfile::Reliable));
            assert_eq!(
                sweep_base.snapshot, run.snapshot,
                "batch={batch} threads={threads} snapshot diverged"
            );
        }
    }
    println!("snapshot sweep: batch {{1,4,32}} x threads {{1,4}} byte-identical");
    println!(
        "{{\"bench\":\"exec_batch\",\"device\":\"{device}\",\"progs\":{batch_progs},\
         \"batch\":{batch_size},\"reference_wall_secs\":{ref_wall:.3},\
         \"reference_progs_per_sec\":{ref_rate:.1},\"batched_wall_secs\":{fast_wall:.3},\
         \"batched_progs_per_sec\":{fast_rate:.1},\"speedup\":{exec_speedup:.3},\
         \"allocs_per_prog\":{allocs_per_prog:.2},\
         \"hostile_per_program_execs_per_sec\":{hostile_pp_rate:.1},\
         \"hostile_batched_execs_per_sec\":{hostile_batched_rate:.1},\
         \"hostile_speedup\":{hostile_speedup:.3},\
         \"hostile_faults_injected\":{}}}",
        hostile_batched.fault_totals.injected,
    );

    sync_hot_paths(&spec, &device);

    if let Ok(path) = std::env::var("DF_SNAPSHOT_OUT") {
        if let Err(e) = std::fs::write(&path, &synced.snapshot) {
            eprintln!("cannot write snapshot {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote fleet snapshot to {path}");
    }
}
