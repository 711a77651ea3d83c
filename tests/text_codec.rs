//! Differential test of the program text codec. `format_prog` and
//! `parse_prog` are checked against the implementation they replaced,
//! kept in [`reference`]: one `format!` per argument and per blob byte,
//! one owned string per argument, blob digits sliced per pair.
//!
//! Over generated, mutated, repaired and arbitrary-argument programs on
//! every catalog device, the formatter must write the reference's bytes,
//! and the parser must return the reference's result on the text and on
//! single-byte mutations of it. Only two differences are allowed:
//!
//! - **blob panic**: the reference panics on a `hex:` blob whose digit
//!   pairs straddle a multi-byte character; the parser returns an error;
//! - **leading plus**: the reference takes a leading `+` in a `0x`
//!   integer, an `r` reference or a blob digit pair, as
//!   `from_str_radix`/`parse` do; the parser rejects it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use droidfuzz_repro::droidfuzz::config::FuzzerConfig;
use droidfuzz_repro::droidfuzz::generate::relational_generate;
use droidfuzz_repro::droidfuzz::relation::RelationGraph;
use droidfuzz_repro::droidfuzz::FuzzingEngine;
use droidfuzz_repro::droidfuzz_analysis::repair_prog;
use droidfuzz_repro::fuzzlang::desc::DescTable;
use droidfuzz_repro::fuzzlang::gen::generate;
use droidfuzz_repro::fuzzlang::mutate::mutate_n;
use droidfuzz_repro::fuzzlang::prog::{ArgValue, Prog};
use droidfuzz_repro::fuzzlang::text::{format_prog, parse_prog, ParseProgError};
use droidfuzz_repro::simdevice::catalog;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// The codec as it was before it wrote in place, verbatim apart from
/// imports.
mod reference {
    use droidfuzz_repro::fuzzlang::desc::DescTable;
    use droidfuzz_repro::fuzzlang::prog::{ArgValue, Call, Prog};
    use droidfuzz_repro::fuzzlang::text::ParseProgError;

    fn err(line: usize, message: impl Into<String>) -> ParseProgError {
        ParseProgError { line, message: message.into() }
    }

    pub fn format_prog(prog: &Prog, table: &DescTable) -> String {
        let mut out = String::new();
        for (i, call) in prog.calls.iter().enumerate() {
            let desc = table.get(call.desc);
            out.push_str(&format!("r{i} = {}(", desc.name));
            for (j, arg) in call.args.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                match arg {
                    ArgValue::Int(v) => out.push_str(&format!("0x{v:x}")),
                    ArgValue::Ref(t) => out.push_str(&format!("r{t}")),
                    ArgValue::Str(s) => {
                        out.push('"');
                        for c in s.chars() {
                            match c {
                                '"' => out.push_str("\\\""),
                                '\\' => out.push_str("\\\\"),
                                '\n' => out.push_str("\\n"),
                                '\r' => out.push_str("\\r"),
                                '\t' => out.push_str("\\t"),
                                c => out.push(c),
                            }
                        }
                        out.push('"');
                    }
                    ArgValue::Bytes(b) => {
                        out.push_str("hex:");
                        for byte in b {
                            out.push_str(&format!("{byte:02x}"));
                        }
                    }
                }
            }
            out.push_str(")\n");
        }
        out
    }

    fn split_args(s: &str) -> Vec<String> {
        let mut parts = Vec::new();
        let mut cur = String::new();
        let mut in_str = false;
        let mut escaped = false;
        for c in s.chars() {
            if in_str {
                cur.push(c);
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => {
                    in_str = true;
                    cur.push(c);
                }
                ',' => {
                    parts.push(cur.trim().to_owned());
                    cur.clear();
                }
                c => cur.push(c),
            }
        }
        let last = cur.trim();
        if !last.is_empty() {
            parts.push(last.to_owned());
        }
        parts
    }

    fn parse_string_literal(line: usize, token: &str) -> Result<String, ParseProgError> {
        let inner = token
            .strip_prefix('"')
            .and_then(|t| t.strip_suffix('"'))
            .ok_or_else(|| err(line, format!("bad string literal {token}")))?;
        let mut out = String::new();
        let mut chars = inner.chars();
        while let Some(c) = chars.next() {
            if c == '\\' {
                match chars.next() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    other => return Err(err(line, format!("bad escape {other:?}"))),
                }
            } else {
                out.push(c);
            }
        }
        Ok(out)
    }

    fn parse_arg(line: usize, token: &str) -> Result<ArgValue, ParseProgError> {
        if let Some(hexstr) = token.strip_prefix("0x") {
            let v = u64::from_str_radix(hexstr, 16)
                .map_err(|e| err(line, format!("bad int {token}: {e}")))?;
            return Ok(ArgValue::Int(v));
        }
        if let Some(refstr) = token.strip_prefix('r') {
            if let Ok(t) = refstr.parse::<usize>() {
                return Ok(ArgValue::Ref(t));
            }
        }
        if let Some(hexstr) = token.strip_prefix("hex:") {
            if hexstr.len() % 2 != 0 {
                return Err(err(line, "odd-length hex blob"));
            }
            let mut bytes = Vec::with_capacity(hexstr.len() / 2);
            for i in (0..hexstr.len()).step_by(2) {
                let byte = u8::from_str_radix(&hexstr[i..i + 2], 16)
                    .map_err(|e| err(line, format!("bad hex blob: {e}")))?;
                bytes.push(byte);
            }
            return Ok(ArgValue::Bytes(bytes));
        }
        if token.starts_with('"') {
            return parse_string_literal(line, token).map(ArgValue::Str);
        }
        Err(err(line, format!("unrecognized argument {token}")))
    }

    pub fn parse_prog(text: &str, table: &DescTable) -> Result<Prog, ParseProgError> {
        let mut prog = Prog::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = lineno + 1;
            let trimmed = raw.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let (label, rest) = trimmed
                .split_once('=')
                .ok_or_else(|| err(line, "missing `=`"))?;
            let label = label.trim();
            let expected = format!("r{}", prog.calls.len());
            if label != expected {
                return Err(err(line, format!("expected label {expected}, got {label}")));
            }
            let rest = rest.trim();
            let open = rest.find('(').ok_or_else(|| err(line, "missing `(`"))?;
            let name = &rest[..open];
            let close = rest.rfind(')').ok_or_else(|| err(line, "missing `)`"))?;
            if close < open {
                return Err(err(line, "`)` before `(`"));
            }
            let args_str = &rest[open + 1..close];
            let desc_id = table
                .id_of(name)
                .ok_or_else(|| err(line, format!("unknown call {name}")))?;
            let mut args = Vec::new();
            for token in split_args(args_str) {
                args.push(parse_arg(line, &token)?);
            }
            prog.calls.push(Call { desc: desc_id, args });
        }
        Ok(prog)
    }
}

/// Each catalog device's DroidFuzz engine: description table (syscalls
/// plus probed HAL methods) and seeded relation graph.
fn devices() -> &'static [(DescTable, RelationGraph)] {
    static DEVICES: OnceLock<Vec<(DescTable, RelationGraph)>> = OnceLock::new();
    DEVICES.get_or_init(|| {
        catalog::all_devices()
            .into_iter()
            .map(|spec| {
                let engine = FuzzingEngine::new(spec.boot(), FuzzerConfig::droidfuzz(1));
                (engine.desc_table().clone(), engine.relation_graph().clone())
            })
            .collect()
    })
}

/// A string drawn from characters the formatter escapes, multi-byte
/// characters and plain ASCII.
fn wild_string(rng: &mut StdRng) -> String {
    const CHARS: &[char] = &['"', '\\', '\n', '\r', '\t', ',', ')', 'a', ' ', 'é', '🦀', '\u{85}'];
    (0..rng.gen_range(0..8)).map(|_| CHARS[rng.gen_range(0..CHARS.len())]).collect()
}

/// `prog` with every argument replaced by a value of any variant,
/// whatever its description says: the formatter must not care.
fn wild_args(mut prog: Prog, rng: &mut StdRng) -> Prog {
    for call in &mut prog.calls {
        for arg in &mut call.args {
            *arg = match rng.gen_range(0..4) {
                0 => ArgValue::Int(if rng.gen_bool(0.5) { rng.next_u64() } else { rng.gen_range(0..20) }),
                1 => ArgValue::Ref(if rng.gen_bool(0.1) { usize::MAX } else { rng.gen_range(0..12) }),
                2 => ArgValue::Str(wild_string(rng)),
                _ => ArgValue::Bytes((0..rng.gen_range(0..6)).map(|_| rng.gen_range(0..=255)).collect()),
            };
        }
    }
    prog
}

/// Bytes a mutation writes: syntax the parser branches on, the sign the
/// reference accepted, the lead byte of a multi-byte character, and
/// anything else.
fn mutation_byte(rng: &mut StdRng) -> u8 {
    const SYNTAX: &[u8] = b"+,\"\\()=r#x0aF \n";
    match rng.gen_range(0..4) {
        0 => b'+',
        1 => SYNTAX[rng.gen_range(0..SYNTAX.len())],
        2 => 0xc3,
        _ => rng.gen_range(0..=255),
    }
}

/// Whether the reference fails (or panics) on `text`.
fn reference_rejects(text: &str, table: &DescTable) -> bool {
    !matches!(catch_unwind(|| reference::parse_prog(text, table)), Ok(Ok(_)))
}

/// The allowed difference that explains the reference answering
/// `reference` where the parser answered `parsed` on `text`, if any.
fn allowed_difference(
    text: &str,
    table: &DescTable,
    reference: &std::thread::Result<Result<Prog, ParseProgError>>,
    parsed: &Result<Prog, ParseProgError>,
) -> Option<&'static str> {
    match (reference, parsed) {
        (Err(_), Err(e)) if !text.is_ascii() && e.message.starts_with("bad hex blob") => {
            Some("blob panic")
        }
        // The reference took the text only because of a `+`: with every
        // `+` made an invalid digit, it fails too.
        (Ok(Ok(_)), Err(_)) if reference_rejects(&text.replace('+', "g"), table) => {
            Some("leading plus")
        }
        _ => None,
    }
}

fn check_parse(text: &str, table: &DescTable) -> Result<(), String> {
    let reference = catch_unwind(AssertUnwindSafe(|| reference::parse_prog(text, table)));
    let parsed = parse_prog(text, table);
    if matches!(&reference, Ok(r) if *r == parsed) {
        return Ok(());
    }
    prop_assert!(
        allowed_difference(text, table, &reference, &parsed).is_some(),
        "parse differs on {text:?}: reference {:?}, parser {parsed:?}",
        reference.as_ref().map_err(|_| "panic")
    );
    Ok(())
}

proptest! {
    #[test]
    fn codec_matches_reference_on_every_device(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for (table, graph) in devices() {
            let generated = generate(table, rng.gen_range(1..10), &mut rng);
            let relational = relational_generate(table, graph, rng.gen_range(1..12), &mut rng);
            let mut mutated = relational.clone();
            mutate_n(&mut mutated, table, rng.gen_range(1..6), &mut rng);
            let repaired = repair_prog(&mutated, table).unwrap_or_default();
            let wild = wild_args(generated.clone(), &mut rng);
            for prog in [generated, relational, mutated, repaired, wild] {
                let text = format_prog(&prog, table);
                prop_assert_eq!(&text, &reference::format_prog(&prog, table));
                check_parse(&text, table)?;
                for _ in 0..4 {
                    let mut bytes = text.clone().into_bytes();
                    if bytes.is_empty() {
                        break;
                    }
                    let at = rng.gen_range(0..bytes.len());
                    bytes[at] = mutation_byte(&mut rng);
                    check_parse(&String::from_utf8_lossy(&bytes), table)?;
                }
            }
        }
    }
}

/// The two allowed differences, by name, on the smallest inputs that
/// show them.
#[test]
fn allowed_differences_are_exactly_the_named_ones() {
    let (table, _) = &devices()[0];
    let open = table.iter().find(|(_, d)| d.name.starts_with("openat$")).unwrap().1.name.clone();
    let text = |args: &str| format!("r0 = {open}({args})\n");

    for args in ["hex:aéb", "hex:0\u{fffd}00", "hex:🦀"] {
        let text = text(args);
        let reference = catch_unwind(|| reference::parse_prog(&text, table));
        assert!(reference.is_err(), "reference panics on {args}");
        let parsed = parse_prog(&text, table);
        assert_eq!(allowed_difference(&text, table, &reference, &parsed), Some("blob panic"), "{args}");
    }
    for args in ["0x+5", "r+0", "hex:+f"] {
        let text = text(args);
        let reference = catch_unwind(|| reference::parse_prog(&text, table));
        assert!(matches!(reference, Ok(Ok(_))), "reference accepts {args}");
        let parsed = parse_prog(&text, table);
        assert_eq!(allowed_difference(&text, table, &reference, &parsed), Some("leading plus"), "{args}");
    }
    // Without a sign or a multi-byte character the two agree, errors
    // and their messages included.
    for args in ["0x5", "r0", "hex:0f", "hex:0g", "0x", "r", "hex:é0", "\"a", "0x1, , r0", "1"] {
        let text = text(args);
        assert_eq!(parse_prog(&text, table), reference::parse_prog(&text, table), "{args}");
    }
}
