//! Lint-gate benchmark: throughput of the static check without models
//! (the lint) over generated programs, gate throughput (lint + repair on
//! deliberately broken inputs), the end-to-end overhead the gate adds to
//! a fleet campaign (same campaign, gate on vs off), the cost of checking
//! with the state models (lint + abstract interpretation in one pass)
//! against the lint alone, and the static-prior warmup race (DroidFuzz-S
//! vs cold-start executions-to-first-deep-state).
//!
//! Scale: `DF_PROGS` (programs for the throughput phases, default 20000),
//! `DF_HOURS` (campaign length for the overhead phase, default 0.5),
//! `DF_SHARDS` (default 2), `DF_SYNC_MIN` (default 7.5), `DF_DEVICE`
//! (default A1), `DF_WARMUP_MAX` (execution cap per warmup arm, default
//! 4000), `DF_WARMUP_SEEDS` (campaigns per warmup arm, default 3),
//! `DF_DEEP_DEPTH` (static depth that counts as "deep", default 2). The
//! run emits three machine-readable JSON lines: `"bench":"lint_overhead"`,
//! `"bench":"absint_overhead"`, and `"bench":"static_prior_warmup"`.

use droidfuzz::analysis::{check_prog, gate_prog, gate_prog_static, LintCounters, ModelSet};
use droidfuzz::config::FuzzerConfig;
use droidfuzz::engine::FuzzingEngine;
use droidfuzz::fleet::{Fleet, FleetConfig};
use droidfuzz_bench::{env_f64, env_u64};
use fuzzlang::gen::generate;
use fuzzlang::prog::{ArgValue, Prog};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simdevice::catalog;
use std::time::Instant;

/// Breaks a program the way corruption reaches the gate in practice: the
/// last ref argument is re-pointed past the end of the program, forcing
/// the repair path instead of the fast lint-only path.
fn corrupt(prog: &Prog) -> Prog {
    let mut broken = prog.clone();
    let len = broken.calls.len();
    for call in broken.calls.iter_mut().rev() {
        if let Some(arg) = call
            .args
            .iter_mut()
            .rev()
            .find(|a| matches!(a, ArgValue::Ref(_)))
        {
            *arg = ArgValue::Ref(len + 7);
            return broken;
        }
    }
    broken
}

fn main() {
    let progs = env_u64("DF_PROGS", 20_000) as usize;
    let hours = env_f64("DF_HOURS", 0.5);
    let shards = env_u64("DF_SHARDS", 2).max(1) as usize;
    let sync_min = env_f64("DF_SYNC_MIN", 7.5);
    let device = std::env::var("DF_DEVICE").unwrap_or_else(|_| "A1".into());
    let Some(spec) = catalog::by_id(&device) else {
        eprintln!("unknown device {device}; known: A1 A2 B C1 C2 D E");
        std::process::exit(2);
    };

    // The campaign vocabulary (syscalls + probed HAL interfaces).
    let engine = FuzzingEngine::new(spec.clone().boot(), FuzzerConfig::droidfuzz(1));
    let table = engine.desc_table();
    let mut rng = StdRng::seed_from_u64(0x11A7);
    let inputs: Vec<Prog> = (0..progs).map(|_| generate(table, 12, &mut rng)).collect();

    // Phase 1: raw lint throughput (the check without models) on healthy
    // generator output.
    let start = Instant::now();
    let mut findings = 0usize;
    for prog in &inputs {
        findings += check_prog(prog, table, None).report.diagnostics.len();
    }
    let lint_secs = start.elapsed().as_secs_f64();
    let lint_rate = progs as f64 / lint_secs.max(1e-9);
    println!(
        "lint throughput: {progs} programs in {lint_secs:.3} s -> {lint_rate:.0} progs/sec \
         ({findings} findings, none gating)"
    );

    // Phase 2: gate throughput on broken inputs (lint + repair + re-lint).
    let mut counters = LintCounters::default();
    let mut broken: Vec<Prog> = inputs.iter().map(corrupt).collect();
    let start = Instant::now();
    let mut passed = 0usize;
    for prog in &mut broken {
        if gate_prog(prog, table, &mut counters) {
            passed += 1;
        }
    }
    let gate_secs = start.elapsed().as_secs_f64();
    let gate_rate = progs as f64 / gate_secs.max(1e-9);
    println!(
        "gate throughput on corrupted inputs: {gate_rate:.0} progs/sec \
         ({passed} passed, {} repaired, {} rejected)",
        counters.repaired, counters.rejected
    );

    // Phase 3: end-to-end overhead — the identical fleet campaign with
    // the gate on vs off. Same seeds, same fault-free devices; the only
    // difference is `lint_gate`.
    let fleet_config = FleetConfig {
        shards,
        hours,
        sync_interval_hours: sync_min / 60.0,
        ..FleetConfig::default()
    };
    let arm = |gated: bool| {
        let start = Instant::now();
        let result = Fleet::new(fleet_config.clone()).run(&spec, move |seed| {
            FuzzerConfig::droidfuzz(seed).with_lint_gate(gated)
        });
        (result, start.elapsed().as_secs_f64())
    };
    let (gated, gated_secs) = arm(true);
    let (ungated, ungated_secs) = arm(false);
    let overhead = gated_secs / ungated_secs.max(1e-9);
    println!(
        "end-to-end: gated {gated_secs:.2} s / ungated {ungated_secs:.2} s \
         ({:.1}% overhead) over {shards} shards x {hours} h; gated campaign \
         repaired {} and rejected {} programs",
        (overhead - 1.0) * 100.0,
        gated.lint_totals.repaired,
        gated.lint_totals.rejected,
    );

    println!(
        "{{\"bench\":\"lint_overhead\",\"device\":\"{device}\",\"progs\":{progs},\
         \"lint_progs_per_sec\":{lint_rate:.0},\"gate_progs_per_sec\":{gate_rate:.0},\
         \"repaired\":{},\"rejected\":{},\"shards\":{shards},\"hours\":{hours},\
         \"gated_wall_secs\":{gated_secs:.3},\"ungated_wall_secs\":{ungated_secs:.3},\
         \"gated_executions\":{},\"ungated_executions\":{},\"overhead_ratio\":{overhead:.3}}}",
        counters.repaired,
        counters.rejected,
        gated.executions,
        ungated.executions,
    );

    // Phase 4: abstract-interpretation overhead — the check with models
    // (lint + absint in one pass) and the full DroidFuzz-S gate (plus
    // prerequisite repair) over the same healthy inputs the raw linter
    // saw, so the rates are comparable.
    let models = ModelSet::for_kernel(engine.device().kernel_ref());
    let start = Instant::now();
    let mut depth_sum = 0u64;
    let mut flagged = 0usize;
    for prog in &inputs {
        let check = check_prog(prog, table, Some(&models));
        depth_sum += u64::from(check.depth);
        // Flagged by the interpreter, as distinct from the lint findings.
        flagged += usize::from(check.report.diagnostics.iter().any(|d| d.code.starts_with("absint-")));
    }
    let absint_secs = start.elapsed().as_secs_f64();
    let absint_rate = progs as f64 / absint_secs.max(1e-9);
    let mut static_counters = LintCounters::default();
    let mut gated_inputs: Vec<Prog> = inputs.clone();
    let start = Instant::now();
    let mut static_passed = 0usize;
    for prog in &mut gated_inputs {
        if gate_prog_static(prog, table, &models, &mut static_counters) {
            static_passed += 1;
        }
    }
    let static_gate_secs = start.elapsed().as_secs_f64();
    let static_gate_rate = progs as f64 / static_gate_secs.max(1e-9);
    let absint_vs_lint = absint_secs / lint_secs.max(1e-9);
    println!(
        "absint throughput: {absint_rate:.0} progs/sec ({:.2}x the raw lint), \
         mean static depth {:.2}, {flagged} programs flagged; static gate \
         {static_gate_rate:.0} progs/sec ({static_passed} passed, {} repaired, {} rejected)",
        absint_vs_lint,
        depth_sum as f64 / progs.max(1) as f64,
        static_counters.absint_repaired,
        static_counters.absint_rejected,
    );
    println!(
        "{{\"bench\":\"absint_overhead\",\"device\":\"{device}\",\"progs\":{progs},\
         \"lint_progs_per_sec\":{lint_rate:.0},\"absint_progs_per_sec\":{absint_rate:.0},\
         \"static_gate_progs_per_sec\":{static_gate_rate:.0},\
         \"absint_vs_lint_ratio\":{absint_vs_lint:.3},\
         \"mean_static_depth\":{:.3},\"flagged\":{flagged},\
         \"absint_repaired\":{},\"absint_rejected\":{}}}",
        depth_sum as f64 / progs.max(1) as f64,
        static_counters.absint_repaired,
        static_counters.absint_rejected,
    );

    // Phase 5: static-prior warmup — how many executions until a corpus
    // seed reaches a deep driver state, with the model-derived relation
    // prior (DroidFuzz-S) vs a cold-start relation graph (DroidFuzz).
    // Depth is measured by the same absint scorer for both arms, so the
    // only difference is how fast each campaign *finds* a deep program.
    let warmup_max = env_u64("DF_WARMUP_MAX", 4000);
    let warmup_seeds = env_u64("DF_WARMUP_SEEDS", 3).max(1);
    let deep = env_u64("DF_DEEP_DEPTH", 2) as u32;
    let warmup_arm = |mk: fn(u64) -> FuzzerConfig| -> (f64, u64) {
        let mut total = 0u64;
        let mut hits = 0u64;
        for seed in 1..=warmup_seeds {
            let mut engine = FuzzingEngine::new(spec.clone().boot(), mk(seed));
            let scorer = ModelSet::for_kernel(engine.device().kernel_ref());
            let mut checked = engine.corpus().admitted();
            let executions = loop {
                engine.step();
                if engine.corpus().admitted() != checked {
                    checked = engine.corpus().admitted();
                    let best = engine
                        .corpus()
                        .seeds()
                        .iter()
                        .map(|s| check_prog(&s.prog, engine.desc_table(), Some(&scorer)).depth)
                        .max()
                        .unwrap_or(0);
                    if best >= deep {
                        hits += 1;
                        break engine.executions();
                    }
                }
                if engine.executions() >= warmup_max {
                    break engine.executions();
                }
            };
            total += executions;
        }
        (total as f64 / warmup_seeds as f64, hits)
    };
    let (warm_execs, warm_hits) = warmup_arm(FuzzerConfig::droidfuzz_s);
    let (cold_execs, cold_hits) = warmup_arm(FuzzerConfig::droidfuzz);
    println!(
        "static-prior warmup to depth>={deep}: DroidFuzz-S {warm_execs:.0} executions \
         ({warm_hits}/{warmup_seeds} runs), cold start {cold_execs:.0} executions \
         ({cold_hits}/{warmup_seeds} runs)"
    );
    println!(
        "{{\"bench\":\"static_prior_warmup\",\"device\":\"{device}\",\
         \"deep_depth\":{deep},\"cap\":{warmup_max},\"runs\":{warmup_seeds},\
         \"prior_executions_to_deep\":{warm_execs:.1},\"prior_runs_reached\":{warm_hits},\
         \"cold_executions_to_deep\":{cold_execs:.1},\"cold_runs_reached\":{cold_hits},\
         \"speedup_ratio\":{:.3}}}",
        cold_execs / warm_execs.max(1e-9),
    );
}
