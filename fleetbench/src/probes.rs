//! Per-layer probes timed from outside the engine: the set-up stages of
//! `FuzzingEngine::new`, and the hot-loop layers (generation, mutation,
//! lint and abstract-interpretation gates, broker execution, feedback,
//! minimisation) replayed on a campaign's own final hub corpus and
//! relation graph.

use std::hint::black_box;
use std::time::Instant;

use droidfuzz::corpus::Corpus;
use droidfuzz::exec::Broker;
use droidfuzz::feedback::{signals_from_execution_into, SignalScratch, SignalSet, SyscallIdTable};
use droidfuzz::fleet::CorpusHub;
use droidfuzz::generate::relational_generate;
use droidfuzz::minimize::{minimize_with, MinimizeScratch};
use droidfuzz::probe::probe_device;
use droidfuzz::relation::RelationGraph;
use droidfuzz_analysis::{gate_prog, gate_prog_static, LintCounters, ModelSet};
use fuzzlang::desc::DescTable;
use fuzzlang::mutate::mutate_n;
use fuzzlang::prog::Prog;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simdevice::FirmwareSpec;

use crate::recipe::Workload;
use crate::sys::median;

/// Repetitions of each set-up stage.
const SETUP_REPS: usize = 31;
/// Programs per hot-loop probe.
const PROGS: usize = 2000;
/// Seeds the minimiser probe replays.
const MIN_SEEDS: usize = 200;

/// Median milliseconds per engine boot of each set-up stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupStages {
    /// `FirmwareSpec::boot` (device model boot).
    pub boot_ms: f64,
    /// `probe_device` (HAL probing) — 0 for variants without HAL access.
    pub probe_ms: f64,
    /// `ModelSet::for_kernel` (static models) — 0 outside DroidFuzz-S.
    pub models_ms: f64,
}

fn time_ms<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64() * 1e3, out)
}

/// Times the stages of one engine boot for `workload`.
pub fn setup_stages(workload: Workload, spec: &FirmwareSpec) -> SetupStages {
    let cfg = workload.engine_config(0);
    let (mut boot, mut probe, mut models) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SETUP_REPS {
        let (ms, mut device) = time_ms(|| spec.clone().boot());
        boot.push(ms);
        let ms = if cfg.hal_enabled {
            time_ms(|| black_box(probe_device(&mut device))).0
        } else {
            0.0
        };
        probe.push(ms);
        let ms = if cfg.static_models {
            time_ms(|| black_box(ModelSet::for_kernel(device.kernel()))).0
        } else {
            0.0
        };
        models.push(ms);
    }
    SetupStages {
        boot_ms: median(&boot),
        probe_ms: median(&probe),
        models_ms: median(&models),
    }
}

/// Microseconds per unit of each hot-loop layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct HotLoop {
    /// `relational_generate` per program.
    pub generate_us: f64,
    /// Seed copy plus `mutate_n` (1–3 mutations) per program.
    pub mutate_us: f64,
    /// `gate_prog` (lint and repair) per program.
    pub lint_us: f64,
    /// `gate_prog_static` (abstract interpretation and repair) per program.
    pub absint_us: f64,
    /// `Broker::execute_batch` per program.
    pub exec_us: f64,
    /// Signal extraction plus novelty check per execution.
    pub feedback_us: f64,
    /// `minimize_with` per seed, oracle replays included.
    pub minimize_us: f64,
    /// Oracle checks per minimised seed.
    pub minimize_checks: f64,
}

/// Replays the hot-loop layers on `hub`'s final corpus and relation
/// graph, with `workload`'s engine config and a freshly booted device.
pub fn hot_loop(
    workload: Workload,
    spec: &FirmwareSpec,
    table: &DescTable,
    hub: &CorpusHub,
    seed: u64,
) -> HotLoop {
    let cfg = workload.engine_config(seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut corpus = Corpus::new();
    corpus.import(&hub.corpus_text(), table);
    let seeds: Vec<Prog> = corpus.seeds().iter().map(|s| s.prog.clone()).collect();
    assert!(!seeds.is_empty(), "the campaign left an empty hub corpus");
    let empty = RelationGraph::new(table);
    let graph = hub.relations().unwrap_or(&empty);
    let mut device = spec.clone().boot();
    device.set_ioctl_only(cfg.ioctl_only);
    let mut out = HotLoop::default();
    let per = |ms: f64, n: usize| ms * 1e3 / n as f64;

    let (ms, generated) = time_ms(|| {
        (0..PROGS)
            .map(|_| relational_generate(table, graph, cfg.max_prog_calls, &mut rng))
            .collect::<Vec<_>>()
    });
    out.generate_us = per(ms, PROGS);

    let mut mutated = vec![Prog::new(); PROGS];
    let (ms, ()) = time_ms(|| {
        for (i, slot) in mutated.iter_mut().enumerate() {
            slot.assign_from(&seeds[i % seeds.len()]);
            let n = rng.gen_range(1..=3);
            mutate_n(slot, table, n, &mut rng);
        }
    });
    out.mutate_us = per(ms, PROGS);

    let mut candidates: Vec<Prog> = generated.iter().chain(&mutated).cloned().collect();
    let mut counters = LintCounters::default();
    let (ms, ()) = time_ms(|| {
        for prog in &mut candidates {
            black_box(gate_prog(prog, table, &mut counters));
        }
    });
    out.lint_us = per(ms, candidates.len());

    let models = ModelSet::for_kernel(device.kernel());
    let (ms, ()) = time_ms(|| {
        for prog in &mut candidates {
            black_box(gate_prog_static(prog, table, &models, &mut counters));
        }
    });
    out.absint_us = per(ms, candidates.len());

    let batch: Vec<Prog> = (0..PROGS).map(|i| seeds[i % seeds.len()].clone()).collect();
    let mut broker = Broker::new();
    let (ms, outcomes) = time_ms(|| broker.execute_batch(&mut device, table, &batch));
    out.exec_us = per(ms, batch.len());

    let mut id_table = SyscallIdTable::compile(device.kernel());
    let mut scratch = SignalScratch::default();
    let mut signals = SignalSet::new();
    let mut sigs = Vec::new();
    let (ms, ()) = time_ms(|| {
        for outcome in &outcomes {
            signals_from_execution_into(
                &outcome.kcov,
                &outcome.hal_events,
                &mut id_table,
                cfg.hal_coverage,
                &mut scratch,
                &mut sigs,
            );
            black_box(signals.count_new_split(&sigs));
            signals.merge(&sigs);
        }
    });
    out.feedback_us = per(ms, outcomes.len());
    for outcome in outcomes {
        broker.recycle(outcome);
    }

    // Minimise each seed against its own signals with the engine's
    // oracle: keep a reduction that still hits half of them.
    let mut min_scratch = MinimizeScratch::new();
    let mut cand_sigs = Vec::new();
    let mut checks = 0usize;
    let picked: Vec<&Prog> = seeds
        .iter()
        .filter(|p| p.len() > 2)
        .cycle()
        .take(MIN_SEEDS)
        .collect();
    let mut minimize_ms = 0.0;
    for prog in &picked {
        let outcome = broker.execute(&mut device, table, prog);
        signals_from_execution_into(
            &outcome.kcov,
            &outcome.hal_events,
            &mut id_table,
            cfg.hal_coverage,
            &mut scratch,
            &mut sigs,
        );
        broker.recycle(outcome);
        let target = sigs.clone();
        let required = target.len().div_ceil(2);
        let (ms, (_, n)) = time_ms(|| {
            minimize_with(prog, &mut min_scratch, |candidate| {
                let outcome = broker.execute(&mut device, table, candidate);
                if !outcome.bugs.is_empty() || device.is_wedged() {
                    device.reboot();
                }
                signals_from_execution_into(
                    &outcome.kcov,
                    &outcome.hal_events,
                    &mut id_table,
                    cfg.hal_coverage,
                    &mut scratch,
                    &mut cand_sigs,
                );
                let hits = target.iter().filter(|t| cand_sigs.contains(t)).count();
                broker.recycle(outcome);
                hits >= required
            })
        });
        minimize_ms += ms;
        checks += n;
    }
    if !picked.is_empty() {
        out.minimize_us = per(minimize_ms, picked.len());
        out.minimize_checks = checks as f64 / picked.len() as f64;
    }
    out
}
