//! Cross-validation of the flow-sensitive abstract interpreter against
//! the real `simkernel` drivers.
//!
//! The soundness contract under test: absint only *claims* a call fires
//! (`fired[i]`) or counts depth when the model guarantees it, so for any
//! program — generated, mutated, or repaired — executed on a freshly
//! booted device,
//!
//! 1. every claimed call succeeds dynamically (`fired[i] ⇒ call_results[i]`),
//! 2. the static depth score is a lower bound on the number of successful
//!    calls (each depth point is a distinct claimed state-changing call),
//! 3. the analysis is invariant under a text round-trip:
//!    `absint(parse(print(p))) == absint(p)`.
//!
//! Fixture programs under `tests/fixtures/lint/absint/` pin one concrete
//! trigger per new diagnostic code; the CI `static-model` job runs
//! `droidfuzz-lint` over the same files.

use droidfuzz_repro::droidfuzz::config::FuzzerConfig;
use droidfuzz_repro::droidfuzz::descs::build_syscall_table;
use droidfuzz_repro::droidfuzz::exec::Broker;
use droidfuzz_repro::droidfuzz::generate::relational_generate;
use droidfuzz_repro::droidfuzz::relation::RelationGraph;
use droidfuzz_repro::droidfuzz::FuzzingEngine;
use droidfuzz_repro::droidfuzz_analysis::{
    check_prog, gate_prog, gate_prog_static, repair_prereqs, LintCounters, ModelSet, Severity,
};
use droidfuzz_repro::fuzzlang::desc::{DescId, DescTable};
use droidfuzz_repro::fuzzlang::prog::{ArgValue, Prog};
use droidfuzz_repro::fuzzlang::text::{format_prog, parse_prog};
use droidfuzz_repro::simdevice::{catalog, Device};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

/// Boots the catalog device at `idx` (mod 7) and derives the Syzlang
/// vocabulary plus its state models.
fn fresh_device(idx: usize) -> (Device, DescTable, ModelSet) {
    let specs = catalog::all_devices();
    let spec = specs.into_iter().cycle().nth(idx).expect("catalog is non-empty");
    let mut device = spec.boot();
    let table = build_syscall_table(device.kernel());
    let models = ModelSet::for_kernel(device.kernel());
    (device, table, models)
}

/// Each catalog device's DroidFuzz-S engine: description table (syscalls
/// plus probed HAL methods), prior-seeded relation graph, state models.
fn engines() -> &'static [(DescTable, RelationGraph, ModelSet)] {
    static ENGINES: OnceLock<Vec<(DescTable, RelationGraph, ModelSet)>> = OnceLock::new();
    ENGINES.get_or_init(|| {
        catalog::all_devices()
            .into_iter()
            .map(|spec| {
                let engine = FuzzingEngine::new(spec.boot(), FuzzerConfig::droidfuzz_s(1));
                let models = engine.model_set().expect("DroidFuzz-S loads state models").clone();
                (engine.desc_table().clone(), engine.relation_graph().clone(), models)
            })
            .collect()
    })
}

/// Breaks `prog` the ways corrupt imports do: dangling, forward and self
/// references, references in value slots, argument-count drift,
/// out-of-table description ids, and dropped or duplicated calls whose
/// later references are not shifted.
fn corrupt(prog: &mut Prog, table: &DescTable, rng: &mut StdRng) {
    let n = prog.calls.len();
    if n == 0 {
        return;
    }
    let i = rng.gen_range(0..n);
    let call = &mut prog.calls[i];
    let slot = (!call.args.is_empty()).then(|| rng.gen_range(0..call.args.len()));
    match (rng.gen_range(0..8), slot) {
        (0, Some(a)) => call.args[a] = ArgValue::Ref(n + rng.gen_range(0..3usize)),
        (1, Some(a)) => call.args[a] = ArgValue::Ref(rng.gen_range(i..n)),
        (2, Some(a)) => call.args[a] = ArgValue::Ref(rng.gen_range(0..=i)),
        (3, _) => call.args.push(ArgValue::Int(rng.gen_range(0..4))),
        (4, _) => {
            call.args.pop();
        }
        (5, _) => call.desc = DescId(table.len() + rng.gen_range(0..3usize)),
        (6, _) => {
            let copy = call.clone();
            prog.calls.insert(rng.gen_range(0..=n), copy);
        }
        _ => {
            prog.calls.remove(i);
        }
    }
}

/// Asserts the three soundness properties for `prog` on a fresh `device`.
fn assert_sound(
    device: &mut Device,
    table: &DescTable,
    models: &ModelSet,
    prog: &Prog,
) -> Result<(), String> {
    let result = check_prog(prog, table, Some(models));
    let text = format_prog(prog, table);

    // Round-trip invariance.
    let reparsed = parse_prog(&text, table).expect("own output reparses");
    prop_assert_eq!(&reparsed, prog, "text round-trip must be exact");
    prop_assert_eq!(
        check_prog(&reparsed, table, Some(models)),
        result.clone(),
        "absint must be invariant under print/parse"
    );

    // Dynamic cross-validation.
    let outcome = Broker::new().execute(device, table, prog);
    for (i, &fired) in result.fired.iter().enumerate() {
        if fired {
            prop_assert!(
                outcome.call_results[i],
                "call {i} was claimed to fire but failed at runtime\n\
                 program:\n{text}\ncall results: {:?}",
                outcome.call_results
            );
        }
    }
    let successes = outcome.call_results.iter().filter(|&&ok| ok).count();
    prop_assert!(
        successes >= result.depth as usize,
        "static depth {} exceeds the {successes} dynamic successes\nprogram:\n{text}",
        result.depth
    );
    Ok(())
}

proptest! {
    /// Generated programs: absint never over-claims on any catalog device.
    #[test]
    fn absint_is_sound_on_generated_programs(
        seed in any::<u64>(),
        device_idx in 0usize..7,
        len in 1usize..10,
    ) {
        let (mut device, table, models) = fresh_device(device_idx);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let prog = droidfuzz_repro::fuzzlang::gen::generate(&table, len, &mut rng);
        assert_sound(&mut device, &table, &models, &prog)?;
    }

    /// Mutation chains keep the bound: soundness is a property of the
    /// analysis, not of the generator's politeness.
    #[test]
    fn absint_is_sound_on_mutated_programs(
        seed in any::<u64>(),
        device_idx in 0usize..7,
        mutations in 1usize..24,
    ) {
        let (mut device, table, models) = fresh_device(device_idx);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut prog = droidfuzz_repro::fuzzlang::gen::generate(&table, 5, &mut rng);
        for _ in 0..mutations {
            droidfuzz_repro::fuzzlang::mutate::mutate(&mut prog, &table, &mut rng);
        }
        assert_sound(&mut device, &table, &models, &prog)?;
    }

    /// Prerequisite-repaired programs stay sound, and repair is
    /// deterministic: repairing the same program twice inserts the same
    /// calls at the same places.
    #[test]
    fn absint_is_sound_on_repaired_programs(
        seed in any::<u64>(),
        device_idx in 0usize..7,
        len in 1usize..8,
    ) {
        let (mut device, table, models) = fresh_device(device_idx);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let base = droidfuzz_repro::fuzzlang::gen::generate(&table, len, &mut rng);

        let mut repaired = base.clone();
        let inserted = repair_prereqs(&mut repaired, &table, &models);
        let mut again = base.clone();
        prop_assert_eq!(repair_prereqs(&mut again, &table, &models), inserted);
        prop_assert_eq!(&again, &repaired, "repair must be deterministic");
        prop_assert_eq!(repaired.validate(&table), Ok(()));
        assert_sound(&mut device, &table, &models, &repaired)?;
    }

    /// The static gate itself is deterministic and only ever lets valid
    /// programs through — the engine trusts both properties.
    #[test]
    fn static_gate_is_deterministic(
        seed in any::<u64>(),
        device_idx in 0usize..7,
        len in 1usize..8,
    ) {
        let (_, table, models) = fresh_device(device_idx);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let base = droidfuzz_repro::fuzzlang::gen::generate(&table, len, &mut rng);

        let mut first = base.clone();
        let mut second = base.clone();
        let mut counters = LintCounters::default();
        let pass_first = gate_prog_static(&mut first, &table, &models, &mut counters);
        let pass_second = gate_prog_static(&mut second, &table, &models, &mut counters);
        prop_assert_eq!(pass_first, pass_second);
        prop_assert_eq!(&first, &second);
        if pass_first {
            prop_assert_eq!(first.validate(&table), Ok(()));
        }
    }
}

proptest! {
    /// The DroidFuzz-S gate interprets a program before structural
    /// repair, so the interpreter sees broken input: on corrupted
    /// generated and relational programs on every device, the check with
    /// models and both gates never panic, a passing gate leaves a valid
    /// program without lint errors, and gating it again changes nothing.
    #[test]
    fn gates_survive_corrupted_programs_on_every_device(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for (table, graph, models) in engines() {
            let generated = droidfuzz_repro::fuzzlang::gen::generate(table, rng.gen_range(1..10), &mut rng);
            let relational = relational_generate(table, graph, rng.gen_range(1..12), &mut rng);
            for mut prog in [generated, relational] {
                for _ in 0..rng.gen_range(1..4) {
                    corrupt(&mut prog, table, &mut rng);
                }
                check_prog(&prog, table, Some(models));
                for with_models in [false, true] {
                    let gate = |prog: &mut Prog, counters: &mut LintCounters| match with_models {
                        true => gate_prog_static(prog, table, models, counters),
                        false => gate_prog(prog, table, counters),
                    };
                    let mut gated = prog.clone();
                    let mut counters = LintCounters::default();
                    if !gate(&mut gated, &mut counters) {
                        continue;
                    }
                    prop_assert_eq!(gated.validate(table), Ok(()), "gated {:?}", prog);
                    prop_assert!(!check_prog(&gated, table, None).malformed, "gated {:?}", prog);
                    let (once, counted_once) = (gated.clone(), counters);
                    prop_assert!(gate(&mut gated, &mut counters), "regating {:?}", once);
                    prop_assert_eq!(&gated, &once, "regating changed the program");
                    prop_assert_eq!(counters, counted_once, "regating counted");
                }
            }
        }
    }
}

/// Each fixture under `tests/fixtures/lint/absint/` pins one diagnostic
/// code, and its whole A1 report is pinned in order: lint findings
/// first, then the abstract interpreter's, as `(severity, code, call)`
/// (the directory must not grow unasserted files).
#[test]
fn absint_fixture_programs_trigger_their_codes() {
    let (_, table, models) = fresh_device(0); // device A1
    use Severity::{Error, Warning};
    type Finding = (Severity, &'static str, Option<usize>);
    let expected: [(&str, &[Finding]); 4] = [
        ("dead-call.prog", &[(Warning, "absint-dead-call", Some(2))]),
        (
            "guard-violation.prog",
            &[(Warning, "int-out-of-range", Some(2)), (Warning, "absint-guard-violation", Some(2))],
        ),
        (
            "consume-before-produce.prog",
            &[(Warning, "absint-consume-before-produce", Some(2))],
        ),
        (
            "dead-prog.prog",
            &[(Warning, "absint-dead-call", Some(1)), (Error, "absint-dead-prog", None)],
        ),
    ];
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/lint/absint");
    for (file, want) in expected {
        let text = std::fs::read_to_string(format!("{dir}/{file}"))
            .unwrap_or_else(|e| panic!("{file}: {e}"));
        let prog = parse_prog(&text, &table).unwrap_or_else(|e| panic!("{file}: {e}"));
        let report = check_prog(&prog, &table, Some(&models)).report;
        let got: Vec<Finding> = report.diagnostics.iter().map(|d| (d.severity, d.code, d.call)).collect();
        assert_eq!(got, want, "{file}: {:?}", report.diagnostics);
    }
    let files = std::fs::read_dir(dir).expect("fixture dir exists").count();
    assert_eq!(files, expected.len(), "every fixture must be asserted above");
}

/// The dead-prog fixture is the one the static gate must rescue or
/// reject — it rescues it, by inserting the missing prerequisites.
#[test]
fn static_gate_repairs_the_dead_prog_fixture() {
    let (mut device, table, models) = fresh_device(0);
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/lint/absint");
    let text = std::fs::read_to_string(format!("{dir}/dead-prog.prog")).unwrap();
    let mut prog = parse_prog(&text, &table).unwrap();
    let mut counters = LintCounters::default();
    assert!(
        gate_prog_static(&mut prog, &table, &models, &mut counters),
        "the dead program is rescuable: VIDIOC_S_FMT/REQBUFS are insertable"
    );
    assert_eq!(counters.absint_repaired, 1);
    assert_eq!(counters.absint_rejected, 0);
    let result = check_prog(&prog, &table, Some(&models));
    assert!(!result.report.has_errors(), "{:?}", result.report.diagnostics);
    assert!(result.depth > 0, "repair must unlock real state progress");
    let outcome = Broker::new().execute(&mut device, &table, &prog);
    assert!(
        outcome.call_results.iter().all(|&ok| ok),
        "repaired program must run clean: {:?}",
        outcome.call_results
    );
}
