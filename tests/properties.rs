//! Property-based tests (proptest) over the core data structures and
//! invariants of the reproduction.

use droidfuzz_repro::droidfuzz::analysis::{audit_corpus, check_prog, Report};
use droidfuzz_repro::droidfuzz::config::FuzzerConfig;
use droidfuzz_repro::droidfuzz::corpus::Corpus;
use droidfuzz_repro::droidfuzz::crashes::dedup_key;
use droidfuzz_repro::droidfuzz::engine::FuzzingEngine;
use droidfuzz_repro::droidfuzz::feedback::{signals_from_execution, SignalSet, SyscallIdTable};
use droidfuzz_repro::droidfuzz::fleet::FleetSnapshot;
use droidfuzz_repro::droidfuzz::relation::RelationGraph;
use droidfuzz_repro::fuzzlang::desc::{ArgDesc, CallDesc, CallKind, DescId, DescTable, SyscallTemplate};
use droidfuzz_repro::fuzzlang::prog::Prog;
use droidfuzz_repro::fuzzlang::text::{format_prog, parse_prog};
use droidfuzz_repro::fuzzlang::types::TypeDesc;
use droidfuzz_repro::simbinder::Parcel;
use droidfuzz_repro::simkernel::coverage::Block;
use droidfuzz_repro::simkernel::fd::{FdTable, OpenFileId};
use droidfuzz_repro::simkernel::syscall::SyscallNr;
use droidfuzz_repro::simkernel::trace::{Origin, SyscallEvent};
use proptest::prelude::*;
use rand::SeedableRng;

/// The models-free static check: the lint report alone.
fn lint(prog: &Prog, table: &DescTable) -> Report {
    check_prog(prog, table, None).report
}

fn test_table() -> DescTable {
    let mut t = DescTable::new();
    t.add(CallDesc::syscall_open("/dev/p"));
    t.add(CallDesc::syscall_close());
    t.add(CallDesc::new(
        "ioctl$P",
        CallKind::Syscall(SyscallTemplate::Ioctl { request: 0x11 }),
        vec![
            ArgDesc::new("fd", TypeDesc::Resource { kind: "fd:/dev/p".into() }),
            ArgDesc::new("v", TypeDesc::any_u32()),
            ArgDesc::new("blob", TypeDesc::Buffer { min_len: 0, max_len: 16 }),
        ],
        None,
    ));
    t.add(CallDesc::new(
        "hal$I$m",
        CallKind::Hal { service: "svc".into(), code: 1 },
        vec![ArgDesc::new(
            "s",
            // A choice with raw control characters exercises the text
            // layer's `\r`/`\t` escaping: the serialized form must never
            // carry them, or lint results would drift across a round-trip.
            TypeDesc::Str { choices: vec!["a\"b".into(), "".into(), "c\rd\te".into()] },
        )],
        None,
    ));
    t
}

proptest! {
    /// Parcel writes read back in order with the same values.
    #[test]
    fn parcel_roundtrip(ints in prop::collection::vec(any::<i32>(), 0..8),
                        s in "[ -~]{0,32}",
                        blob in prop::collection::vec(any::<u8>(), 0..64)) {
        let mut p = Parcel::new();
        for &v in &ints {
            p.write_i32(v);
        }
        p.write_string16(s.clone());
        p.write_blob(blob.clone());
        let mut r = p.reader();
        for &v in &ints {
            prop_assert_eq!(r.read_i32().unwrap(), v);
        }
        prop_assert_eq!(r.read_string16().unwrap(), s.as_str());
        prop_assert_eq!(r.read_blob().unwrap(), blob.as_slice());
        prop_assert_eq!(r.remaining(), 0);
    }

    /// Generated programs always validate, and survive a text round-trip
    /// exactly.
    #[test]
    fn generated_prog_text_roundtrip(seed in any::<u64>(), len in 1usize..12) {
        let table = test_table();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let prog = droidfuzz_repro::fuzzlang::gen::generate(&table, len, &mut rng);
        prop_assert_eq!(prog.validate(&table), Ok(()));
        let text = format_prog(&prog, &table);
        let reparsed = parse_prog(&text, &table).unwrap();
        prop_assert_eq!(prog, reparsed);
    }

    /// The linter is invariant under a text round-trip:
    /// `lint(parse(print(p))) == lint(p)` for every generated program,
    /// including ones whose string args carry control characters.
    #[test]
    fn lint_is_invariant_under_text_roundtrip(seed in any::<u64>(), len in 1usize..12) {
        let table = test_table();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let prog = droidfuzz_repro::fuzzlang::gen::generate(&table, len, &mut rng);
        let direct = lint(&prog, &table);
        let text = format_prog(&prog, &table);
        let reparsed = parse_prog(&text, &table).unwrap();
        prop_assert_eq!(lint(&reparsed, &table), direct);
    }

    /// Generator output never carries an `Error`-severity lint finding —
    /// the gate must be a no-op on the generator's own programs.
    #[test]
    fn generated_progs_are_lint_error_free(seed in any::<u64>(), len in 1usize..16) {
        let table = test_table();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let prog = droidfuzz_repro::fuzzlang::gen::generate(&table, len, &mut rng);
        let report = lint(&prog, &table);
        prop_assert_eq!(report.error_count(), 0, "unexpected errors: {:?}", report.diagnostics);
    }

    /// Every individual mutation step stays lint-error-free (warnings like
    /// double-close are expected; structural errors are not).
    #[test]
    fn mutation_steps_are_lint_error_free(seed in any::<u64>(), mutations in 1usize..40) {
        let table = test_table();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut prog = droidfuzz_repro::fuzzlang::gen::generate(&table, 5, &mut rng);
        for step in 0..mutations {
            droidfuzz_repro::fuzzlang::mutate::mutate(&mut prog, &table, &mut rng);
            let report = lint(&prog, &table);
            prop_assert_eq!(
                report.error_count(), 0,
                "errors after mutation step {}: {:?}", step, report.diagnostics
            );
        }
    }

    /// Mutation chains never produce invalid programs.
    #[test]
    fn mutation_preserves_validity(seed in any::<u64>(), mutations in 1usize..40) {
        let table = test_table();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut prog = droidfuzz_repro::fuzzlang::gen::generate(&table, 5, &mut rng);
        for _ in 0..mutations {
            droidfuzz_repro::fuzzlang::mutate::mutate(&mut prog, &table, &mut rng);
            prop_assert_eq!(prog.validate(&table), Ok(()));
        }
    }

    /// Removing any call keeps the program valid.
    #[test]
    fn remove_call_preserves_validity(seed in any::<u64>(), idx in 0usize..16) {
        let table = test_table();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut prog = droidfuzz_repro::fuzzlang::gen::generate(&table, 8, &mut rng);
        prog.remove_call(idx.min(prog.len().saturating_sub(1)));
        prop_assert_eq!(prog.validate(&table), Ok(()));
    }

    /// Eq. 1 invariant: after any learn sequence, the in-weights of every
    /// vertex sum to at most 1 (exactly 1 for any learn target).
    #[test]
    fn relation_in_weights_bounded(edges in prop::collection::vec((0usize..6, 0usize..6), 1..40)) {
        let mut t = DescTable::new();
        for i in 0..6 {
            t.add(CallDesc::new(
                format!("c{i}"),
                CallKind::Hal { service: "s".into(), code: i as u32 },
                vec![],
                None,
            ));
        }
        let mut g = RelationGraph::new(&t);
        let mut targets = std::collections::HashSet::new();
        for (a, b) in edges {
            if a != b {
                targets.insert(b);
            }
            g.learn(DescId(a), DescId(b));
        }
        for b in 0..6 {
            let sum = g.in_weight_sum(DescId(b));
            prop_assert!(sum <= 1.0 + 1e-9, "in-weights of {b} sum to {sum}");
            if targets.contains(&b) {
                prop_assert!((sum - 1.0).abs() < 1e-9, "learn target {b} sums to {sum}");
            }
        }
    }

    /// Decay never increases weights and never breaks sampling.
    #[test]
    fn relation_decay_monotone(factor in 0.1f64..0.99, rounds in 1usize..20) {
        let mut t = DescTable::new();
        for i in 0..4 {
            t.add(CallDesc::new(
                format!("c{i}"),
                CallKind::Hal { service: "s".into(), code: i as u32 },
                vec![],
                None,
            ));
        }
        let mut g = RelationGraph::new(&t);
        g.learn(DescId(0), DescId(1));
        g.learn(DescId(2), DescId(1));
        let before = g.in_weight_sum(DescId(1));
        for _ in 0..rounds {
            g.decay(factor);
        }
        prop_assert!(g.in_weight_sum(DescId(1)) <= before + 1e-9);
    }

    /// Fd tables allocate unique descriptors and never lose entries.
    #[test]
    fn fd_table_unique_and_consistent(ops in prop::collection::vec(any::<bool>(), 1..64)) {
        let mut table = FdTable::new();
        let mut live = std::collections::HashMap::new();
        let mut counter = 0u64;
        for install in ops {
            if install {
                counter += 1;
                if let Ok(fd) = table.install(OpenFileId(counter)) {
                    prop_assert!(live.insert(fd, counter).is_none(), "fd reused while live");
                }
            } else if let Some(&fd) = live.keys().next() {
                let expected = live.remove(&fd).unwrap();
                prop_assert_eq!(table.remove(fd).unwrap(), OpenFileId(expected));
            }
        }
        prop_assert_eq!(table.len(), live.len());
        for (&fd, &id) in &live {
            prop_assert_eq!(table.get(fd).unwrap(), OpenFileId(id));
        }
    }

    /// Signal merging is idempotent and order-insensitive in totals.
    #[test]
    fn signal_set_merge_idempotent(blocks in prop::collection::vec(any::<u32>(), 0..64)) {
        let mut id_table = SyscallIdTable::new();
        let kcov: Vec<Block> = blocks.iter().map(|&b| Block(u64::from(b))).collect();
        let sigs = signals_from_execution(&kcov, &[], &mut id_table, true);
        let mut set = SignalSet::new();
        let first = set.merge(&sigs);
        let second = set.merge(&sigs);
        prop_assert_eq!(second, 0, "second merge adds nothing");
        let distinct: std::collections::HashSet<_> = blocks.iter().collect();
        prop_assert_eq!(first, distinct.len());
        prop_assert_eq!(set.kernel_blocks(), distinct.len());
    }

    /// Directional coverage depends on order; undirected sets do not.
    #[test]
    fn directional_signals_are_order_sensitive(reqs in prop::collection::vec(1u64..50, 2..12)) {
        let mut sorted = reqs.clone();
        sorted.sort_unstable();
        let mut reversed = sorted.clone();
        reversed.reverse();
        prop_assume!(sorted != reversed);
        let ev = |critical: u64| SyscallEvent {
            origin: Origin::Hal(1),
            nr: SyscallNr::Ioctl,
            critical,
            path: None,
            ok: true,
        };
        // One shared lookup table, pre-populated in a canonical order (as
        // the compiled table of §IV-D would be) so IDs are stable across
        // both observations.
        let mut table = SyscallIdTable::new();
        let mut canonical = sorted.clone();
        canonical.dedup();
        let pre: Vec<_> = canonical.iter().map(|&c| ev(c)).collect();
        let _ = signals_from_execution(&[], &pre, &mut table, true);
        let a: Vec<_> = sorted.iter().map(|&c| ev(c)).collect();
        let sig_a = signals_from_execution(&[], &a, &mut table, true);
        let b: Vec<_> = reversed.iter().map(|&c| ev(c)).collect();
        let sig_b = signals_from_execution(&[], &b, &mut table, true);
        prop_assert_ne!(sig_a, sig_b);
    }

    /// Crash dedup keys are stable under KASAN access-direction noise.
    #[test]
    fn dedup_key_normalizes_direction(site in "[a-z_]{1,24}") {
        let read = format!("KASAN: slab-use-after-free Read in {site}");
        let write = format!("KASAN: slab-use-after-free Write in {site}");
        let plain = format!("KASAN: slab-use-after-free in {site}");
        prop_assert_eq!(dedup_key(&read), dedup_key(&plain));
        prop_assert_eq!(dedup_key(&write), dedup_key(&plain));
    }

    /// Adversarial seed text never panics corpus import, accounting stays
    /// bounded by the header count, and whatever was accepted re-exports
    /// byte-identically (the fleet hub relies on both properties).
    #[test]
    fn corpus_import_survives_adversarial_seed_text(
        segments in prop::collection::vec((0usize..6, "[ -~]{0,40}"), 0..10),
    ) {
        let table = test_table();
        let mut text = String::new();
        for (kind, junk) in &segments {
            match kind {
                0 => text.push_str("# seed 0 signals=7\nr0 = openat$/dev/p()\n\n"),
                1 => text.push_str(&format!("# seed 1 signals={junk}\nr0 = openat$/dev/p()\n")),
                2 => text.push_str(&format!("# seed 2 signals=3\nr0 = {junk}\n")),
                3 => text.push_str(&format!("# seed {junk}\n")),
                4 => text.push_str(junk),
                _ => text.push_str("r0 = openat$/dev/p()\n"),
            }
            text.push('\n');
        }
        let mut corpus = Corpus::new();
        let (accepted, rejected) = corpus.import(&text, &table);
        prop_assert_eq!(accepted, corpus.len());
        prop_assert!(
            accepted + rejected <= text.matches("# seed ").count() + 1,
            "{accepted}+{rejected} results from {} headers", text.matches("# seed ").count()
        );
        // Round-trip: a clean re-export imports with zero rejects and
        // re-exports byte-identically.
        let exported = corpus.export(&table);
        let mut restored = Corpus::new();
        prop_assert_eq!(restored.import(&exported, &table), (accepted, 0));
        prop_assert_eq!(restored.export(&table), exported);
    }

    /// Relation graphs survive a text round-trip byte-identically after
    /// arbitrary learn/decay histories.
    #[test]
    fn relation_export_import_roundtrip_identical(
        edges in prop::collection::vec((0usize..6, 0usize..6), 0..40),
        decays in 0usize..4,
    ) {
        let mut t = DescTable::new();
        for i in 0..6 {
            t.add(CallDesc::new(
                format!("c{i}"),
                CallKind::Hal { service: "s".into(), code: i as u32 },
                vec![],
                None,
            ));
        }
        let mut g = RelationGraph::new(&t);
        for (a, b) in edges {
            g.learn(DescId(a), DescId(b));
        }
        for _ in 0..decays {
            g.decay(0.7);
        }
        let text = g.export(&t);
        let mut restored = RelationGraph::new(&t);
        let (accepted, rejected) = restored.import(&text, &t);
        prop_assert_eq!(rejected, 0, "own exports always re-import");
        prop_assert_eq!(accepted, g.edge_count());
        prop_assert_eq!(restored.export(&t), text);
    }

    /// Arbitrary text never panics relation import, and the Eq. 1 bound
    /// holds afterwards no matter what the text claimed.
    #[test]
    fn relation_import_never_breaks_eq1(text in "[ -~\t\n]{0,256}") {
        let t = test_table();
        let mut g = RelationGraph::new(&t);
        let _ = g.import(&text, &t);
        for i in 0..t.len() {
            let sum = g.in_weight_sum(DescId(i));
            prop_assert!(sum <= 1.0 + 1e-9, "in-weights of {i} sum to {sum}");
        }
    }

    /// Fleet snapshot parsing never panics on arbitrary section bodies,
    /// and re-serializing a parse is a fixed point.
    #[test]
    fn snapshot_parse_tolerates_adversarial_text(text in "[ -~\t\n]{0,300}") {
        // Headerless garbage is an error, never a panic.
        let _ = FleetSnapshot::parse(&text);
        // With a valid header, any body parses and re-serializes stably.
        let mut full = String::from("# droidfuzz-fleet-snapshot v1 round=1 clock_us=2\n");
        full.push_str(&text);
        let snap = FleetSnapshot::parse(&full).unwrap();
        let rendered = snap.to_text();
        let reparsed = FleetSnapshot::parse(&rendered).unwrap();
        prop_assert_eq!(reparsed.to_text(), rendered);
    }
}

/// Regression fixtures: corpus files under `tests/fixtures/lint/` must
/// stay free of `Error`-severity findings against the device-A1
/// vocabulary (warnings and infos are allowed — one fixture exists to
/// pin warning-only behavior). The CI lint-gate job runs `droidfuzz-lint`
/// over the same files.
#[test]
fn lint_fixtures_stay_error_free() {
    let engine = FuzzingEngine::new(
        droidfuzz_repro::simdevice::catalog::device_a1().boot(),
        FuzzerConfig::droidfuzz(1),
    );
    let table = engine.desc_table();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/lint");
    let mut checked = 0;
    for entry in std::fs::read_dir(dir).expect("fixture dir exists") {
        let path = entry.expect("readable entry").path();
        if path.is_dir() {
            // `absint/` fixtures carry deliberate findings; `tests/absint.rs`
            // asserts their exact diagnostic codes instead.
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("readable fixture");
        let report = audit_corpus(&text, table);
        assert_eq!(
            report.error_count(),
            0,
            "{}: {:?}",
            path.display(),
            report.diagnostics
        );
        checked += 1;
    }
    assert!(checked >= 2, "expected at least two fixtures, found {checked}");
}
