//! Human-readable program serialization with full round-trip, used for
//! the persistent seed corpus and crash reproducers.
//!
//! Format, one call per line:
//!
//! ```text
//! r0 = openat$/dev/tcpc0()
//! r1 = ioctl$TCPC_SET_CC(r0, 0x1)
//! r2 = hal$IComposer$createLayer()
//! r3 = hal$IComposer$setLayerBuffer(r2, 0x40, "name", hex:00ff12)
//! ```
//!
//! Every call is labelled `r<index>`; arguments are hex integers, quoted
//! strings (with `\"`/`\\`/`\n`/`\r`/`\t` escapes), `hex:` byte blobs, or
//! `r<N>` references. The serialized form never contains a raw `\r` or
//! `\t`: the corpus and snapshot formats are line-oriented, and a bare
//! carriage return or tab inside a string would be silently mangled by
//! any line-trimming or CRLF-translating consumer — normalization drift
//! the lint gate would then misattribute to the program itself.

use crate::desc::DescTable;
use crate::prog::{ArgValue, Call, Prog};
use std::fmt;

/// Error parsing the text format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseProgError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseProgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseProgError {}

fn err(line: usize, message: impl Into<String>) -> ParseProgError {
    ParseProgError { line, message: message.into() }
}

/// Lower-case hex digits, indexed by nibble.
const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Appends `v` in lower-case hex without leading zeros (`0` for zero).
fn push_hex_u64(out: &mut String, v: u64) {
    let digits = (64 - (v | 1).leading_zeros()).div_ceil(4);
    for shift in (0..digits).rev() {
        out.push(char::from(HEX_DIGITS[((v >> (shift * 4)) & 0xf) as usize]));
    }
}

/// Appends `n` in decimal.
fn push_decimal(out: &mut String, mut n: usize) {
    let mut buf = [0u8; 20];
    let mut start = buf.len();
    loop {
        start -= 1;
        buf[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(buf[start..].iter().map(|&b| char::from(b)));
}

/// Appends a quoted string literal, escaping `"`, `\\`, `\n`, `\r` and
/// `\t`. Runs without an escape are copied as one slice; every escaped
/// character is ASCII, so the byte scan never splits a UTF-8 sequence.
fn push_string_literal(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escaped = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        out.push_str(escaped);
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Appends the serialized form of `prog` to `out` — the allocation-free
/// core of [`format_prog`], for writers that build one text from many
/// programs.
pub fn format_prog_into(prog: &Prog, table: &DescTable, out: &mut String) {
    for (i, call) in prog.calls.iter().enumerate() {
        out.push('r');
        push_decimal(out, i);
        out.push_str(" = ");
        out.push_str(&table.get(call.desc).name);
        out.push('(');
        for (j, arg) in call.args.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            match arg {
                ArgValue::Int(v) => {
                    out.push_str("0x");
                    push_hex_u64(out, *v);
                }
                ArgValue::Ref(t) => {
                    out.push('r');
                    push_decimal(out, *t);
                }
                ArgValue::Str(s) => push_string_literal(out, s),
                ArgValue::Bytes(b) => {
                    out.push_str("hex:");
                    out.reserve(2 * b.len());
                    for &byte in b {
                        out.push(char::from(HEX_DIGITS[usize::from(byte >> 4)]));
                        out.push(char::from(HEX_DIGITS[usize::from(byte & 0xf)]));
                    }
                }
            }
        }
        out.push_str(")\n");
    }
}

/// Serializes a program.
pub fn format_prog(prog: &Prog, table: &DescTable) -> String {
    let mut out = String::new();
    format_prog_into(prog, table, &mut out);
    out
}

/// Splits a call's argument list on top-level commas (commas inside
/// quoted strings don't count) into trimmed slices of `s`. A trailing
/// empty argument is dropped; an empty one before a comma is kept (and
/// rejected by [`parse_arg`]). The separators are ASCII, so scanning
/// bytes never splits a UTF-8 sequence.
fn split_args(s: &str) -> impl Iterator<Item = &str> {
    let bytes = s.as_bytes();
    let mut start = 0;
    let mut done = false;
    std::iter::from_fn(move || {
        if done {
            return None;
        }
        let mut in_str = false;
        let mut escaped = false;
        for (i, &b) in bytes.iter().enumerate().skip(start) {
            if in_str {
                if escaped {
                    escaped = false;
                } else if b == b'\\' {
                    escaped = true;
                } else if b == b'"' {
                    in_str = false;
                }
            } else if b == b'"' {
                in_str = true;
            } else if b == b',' {
                let part = s[start..i].trim();
                start = i + 1;
                return Some(part);
            }
        }
        done = true;
        Some(s[start..].trim()).filter(|last| !last.is_empty())
    })
}

fn parse_string_literal(line: usize, token: &str) -> Result<String, ParseProgError> {
    let inner = token
        .strip_prefix('"')
        .and_then(|t| t.strip_suffix('"'))
        .ok_or_else(|| err(line, format!("bad string literal {token}")))?;
    let mut out = String::with_capacity(inner.len());
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

/// `ParseIntError`'s message for a bad digit, kept for the digit errors
/// the parser raises itself.
const INVALID_DIGIT: &str = "invalid digit found in string";

/// The value of every byte as a hex digit, `0xff` where it is none.
const HEX_VALUES: [u8; 256] = {
    let mut values = [0xff; 256];
    let mut i = 0;
    while i < 16 {
        values[HEX_DIGITS[i] as usize] = i as u8;
        values[HEX_DIGITS[i].to_ascii_uppercase() as usize] = i as u8;
        i += 1;
    }
    values
};

fn parse_arg(line: usize, token: &str) -> Result<ArgValue, ParseProgError> {
    if let Some(hexstr) = token.strip_prefix("0x") {
        // `from_str_radix` would also take a leading `+`, which the
        // formatter never writes.
        if hexstr.starts_with('+') {
            return Err(err(line, format!("bad int {token}: {INVALID_DIGIT}")));
        }
        let v = u64::from_str_radix(hexstr, 16)
            .map_err(|e| err(line, format!("bad int {token}: {e}")))?;
        return Ok(ArgValue::Int(v));
    }
    if let Some(refstr) = token.strip_prefix('r') {
        if !refstr.starts_with('+') {
            if let Ok(t) = refstr.parse::<usize>() {
                return Ok(ArgValue::Ref(t));
            }
        }
    }
    if let Some(hexstr) = token.strip_prefix("hex:") {
        if hexstr.len() % 2 != 0 {
            return Err(err(line, "odd-length hex blob"));
        }
        // Decoded over bytes: a multi-byte character is two or more
        // invalid digits, never a slice through a UTF-8 sequence.
        let mut bytes = Vec::with_capacity(hexstr.len() / 2);
        for pair in hexstr.as_bytes().chunks_exact(2) {
            let hi = HEX_VALUES[usize::from(pair[0])];
            let lo = HEX_VALUES[usize::from(pair[1])];
            if (hi | lo) > 0xf {
                return Err(err(line, format!("bad hex blob: {INVALID_DIGIT}")));
            }
            bytes.push(hi << 4 | lo);
        }
        return Ok(ArgValue::Bytes(bytes));
    }
    if token.starts_with('"') {
        return parse_string_literal(line, token).map(ArgValue::Str);
    }
    Err(err(line, format!("unrecognized argument {token}")))
}

/// Parses the text format back into a program.
///
/// # Errors
///
/// Returns a [`ParseProgError`] on malformed lines, unknown call names,
/// or label/index mismatches. The result is *not* validated against arg
/// types — callers should run [`Prog::validate`].
pub fn parse_prog(text: &str, table: &DescTable) -> Result<Prog, ParseProgError> {
    let mut prog = Prog::new();
    // The label each line must carry, rebuilt in place per call.
    let mut expected = String::new();
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
        expected.clear();
        expected.push('r');
        push_decimal(&mut expected, prog.calls.len());
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
        let mut args = Vec::with_capacity(table.get(desc_id).args.len());
        for token in split_args(args_str) {
            args.push(parse_arg(line, token)?);
        }
        prog.calls.push(Call { desc: desc_id, args });
    }
    Ok(prog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::desc::{ArgDesc, CallDesc, CallKind, DescId, SyscallTemplate};
    use crate::types::TypeDesc;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn table() -> DescTable {
        let mut t = DescTable::new();
        t.add(CallDesc::syscall_open("/dev/x"));
        t.add(CallDesc::syscall_close());
        t.add(CallDesc::new(
            "ioctl$X",
            CallKind::Syscall(SyscallTemplate::Ioctl { request: 7 }),
            vec![
                ArgDesc::new("fd", TypeDesc::Resource { kind: "fd:/dev/x".into() }),
                ArgDesc::new("mode", TypeDesc::any_u32()),
            ],
            None,
        ));
        t.add(CallDesc::new(
            "hal$ISvc$method",
            CallKind::Hal { service: "svc".into(), code: 3 },
            vec![
                ArgDesc::new("name", TypeDesc::Str { choices: vec!["a".into()] }),
                ArgDesc::new("data", TypeDesc::Buffer { min_len: 0, max_len: 8 }),
            ],
            None,
        ));
        t
    }

    #[test]
    fn roundtrip_hand_written() {
        let t = table();
        let text = "r0 = openat$/dev/x()\nr1 = ioctl$X(r0, 0x2a)\nr2 = hal$ISvc$method(\"he\\\"y, you\", hex:00ff12)\n";
        let prog = parse_prog(text, &t).unwrap();
        assert_eq!(prog.len(), 3);
        assert_eq!(prog.calls[1].args[1], ArgValue::Int(0x2a));
        assert_eq!(prog.calls[2].args[0], ArgValue::Str("he\"y, you".into()));
        assert_eq!(prog.calls[2].args[1], ArgValue::Bytes(vec![0, 0xff, 0x12]));
        let formatted = format_prog(&prog, &t);
        let reparsed = parse_prog(&formatted, &t).unwrap();
        assert_eq!(prog, reparsed);
    }

    #[test]
    fn roundtrip_generated_programs() {
        let t = table();
        for seed in 0..30 {
            let mut rng = StdRng::seed_from_u64(seed);
            let prog = crate::gen::generate(&t, 6, &mut rng);
            let text = format_prog(&prog, &t);
            let reparsed = parse_prog(&text, &t).unwrap();
            assert_eq!(prog, reparsed, "seed {seed}\n{text}");
        }
    }

    #[test]
    fn control_characters_in_strings_roundtrip_escaped() {
        let mut t = DescTable::new();
        t.add(CallDesc::new(
            "f",
            CallKind::Syscall(SyscallTemplate::Write),
            vec![ArgDesc::new("s", TypeDesc::Str { choices: vec![] })],
            None,
        ));
        // Every ASCII char (plus some multibyte ones) survives, and the
        // serialized form never carries a raw `\r` or `\t`.
        for c in (0u32..0x80).filter_map(char::from_u32).chain(['\u{85}', '\u{2028}', '🦀']) {
            let s = format!("a{c}b{c}");
            let prog = Prog {
                calls: vec![Call { desc: DescId(0), args: vec![ArgValue::Str(s.clone())] }],
            };
            let text = format_prog(&prog, &t);
            assert!(!text.contains('\r') && !text.contains('\t'), "raw control char for {c:?}");
            let reparsed = parse_prog(&text, &t).unwrap_or_else(|e| panic!("{c:?}: {e}"));
            assert_eq!(prog, reparsed, "char {c:?} via {text:?}");
        }
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let t = table();
        let text = "# corpus entry 1\n\nr0 = openat$/dev/x()\n";
        assert_eq!(parse_prog(text, &t).unwrap().len(), 1);
    }

    #[test]
    fn malformed_lines_error_instead_of_panicking() {
        let t = table();
        // `)` before `(` used to hit an out-of-range slice.
        for bad in ["r0 = )junk(", "r0 = )(", "r0 = x)y(z", "r0 = ="] {
            assert!(parse_prog(bad, &t).is_err(), "{bad:?} must be a parse error");
        }
    }

    #[test]
    fn multibyte_characters_in_hex_blobs_are_errors() {
        let t = table();
        // `é` straddles the second digit pair: slicing the blob per pair
        // used to panic on a non-char boundary.
        for bad in ["hex:aéb", "hex:é00", "hex:0\u{fffd}00", "hex:🦀"] {
            let text = format!("r0 = hal$ISvc$method(\"a\", {bad})\n");
            let e = parse_prog(&text, &t).unwrap_err();
            assert_eq!(e.message, "bad hex blob: invalid digit found in string", "{bad}");
        }
    }

    #[test]
    fn signed_numbers_are_rejected() {
        let t = table();
        let parse = |args: &str| parse_prog(&format!("r0 = openat$/dev/x()\nr1 = ioctl$X({args})\n"), &t);
        assert!(parse("r0, 0x5").is_ok());
        assert_eq!(parse("r0, 0x+5").unwrap_err().message, "bad int 0x+5: invalid digit found in string");
        assert_eq!(parse("r+0, 0x5").unwrap_err().message, "unrecognized argument r+0");
        let blob = |hex: &str| {
            parse_prog(&format!("r0 = hal$ISvc$method(\"a\", hex:{hex})\n"), &t)
        };
        assert!(blob("0f").is_ok());
        assert_eq!(blob("+f").unwrap_err().message, "bad hex blob: invalid digit found in string");
        assert_eq!(blob("00+f").unwrap_err().message, "bad hex blob: invalid digit found in string");
    }

    #[test]
    fn formatter_writes_minimal_lowercase_hex_and_decimal_labels() {
        let mut t = DescTable::new();
        t.add(CallDesc::new(
            "f",
            CallKind::Syscall(SyscallTemplate::Write),
            vec![
                ArgDesc::new("a", TypeDesc::any_u32()),
                ArgDesc::new("b", TypeDesc::Buffer { min_len: 0, max_len: 8 }),
            ],
            None,
        ));
        let call = |args| Call { desc: DescId(0), args };
        let mut prog = Prog::new();
        for v in [0, 1, 0xf, 0x10, 0xdead_beef, u64::MAX] {
            prog.calls.push(call(vec![ArgValue::Int(v), ArgValue::Bytes(vec![0, 0x0a, 0xff])]));
        }
        prog.calls.push(call(vec![ArgValue::Ref(usize::MAX), ArgValue::Bytes(vec![])]));
        let text = format_prog(&prog, &t);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "r0 = f(0x0, hex:000aff)");
        assert_eq!(lines[4], "r4 = f(0xdeadbeef, hex:000aff)");
        assert_eq!(lines[5], "r5 = f(0xffffffffffffffff, hex:000aff)");
        assert_eq!(lines[6], format!("r6 = f(r{}, hex:)", usize::MAX));
        let mut appended = String::from("keep\n");
        format_prog_into(&prog, &t, &mut appended);
        assert_eq!(appended, format!("keep\n{text}"));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let t = table();
        let bad = "r0 = openat$/dev/x()\nr1 = nosuchcall()\n";
        let e = parse_prog(bad, &t).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("nosuchcall"));
        let bad_label = "r7 = openat$/dev/x()\n";
        assert!(parse_prog(bad_label, &t).unwrap_err().message.contains("expected label"));
    }
}
