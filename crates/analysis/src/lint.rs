//! The program linter: typed def-use / resource-lifetime analysis plus
//! semantic lints against the description table. It runs inside
//! [`crate::check::check_prog`], one call at a time.
//!
//! Severity policy (see [`Severity`]):
//!
//! * **Error** — structural defects [`Prog::validate`] would reject, plus
//!   the ones it cannot see (unknown description ids, references or
//!   non-reference values in slots of the wrong class, references past
//!   the end of the program). These programs would misexecute or panic
//!   downstream code; the gate repairs or rejects them.
//! * **Warning** — lifetime and value drift: use-after-close,
//!   double-close, integers outside their described range/choice/flag
//!   sets, buffer lengths off-description. Mutation creates these
//!   routinely (duplicating a `close` *is* a double-close), and they are
//!   exactly the off-nominal inputs a fuzzer wants, so they never gate.
//! * **Info** — dead producer calls whose result nothing consumes, and
//!   raw `ioctl` calls whose request code matches a typed description
//!   (the §IV-D specialization table knows a better vocabulary entry).

use crate::diag::{Report, Severity};
use fuzzlang::desc::{CallKind, DescTable, SyscallTemplate};
use fuzzlang::prog::{ArgValue, Prog};
use fuzzlang::types::TypeDesc;
use std::collections::HashMap;

/// The lint half of [`crate::check::check_prog`]: the walk feeds it one
/// call at a time, then [`finish`](Self::finish) adds the findings that
/// need the whole program. Never panics, whatever the program holds —
/// corrupt imports are exactly what the pass exists to catch.
pub(crate) struct Lint {
    report: Report,
    /// Producer index → index of the call that closed it first.
    closed_at: HashMap<usize, usize>,
    /// Defensive "is referenced" map (unlike `Prog::unreferenced`, out of
    /// range references must not panic here).
    referenced: Vec<bool>,
}

impl Lint {
    pub(crate) fn new(n: usize) -> Self {
        Self { report: Report::new(), closed_at: HashMap::new(), referenced: vec![false; n] }
    }

    /// Lints call `i` of `prog`.
    pub(crate) fn step(&mut self, prog: &Prog, table: &DescTable, i: usize) {
        let Self { report, closed_at, referenced } = self;
        let n = prog.calls.len();
        let call = &prog.calls[i];
        let mut push = |severity, code, message: String| report.push(severity, code, Some(i), message);
        for arg in &call.args {
            if let ArgValue::Ref(t) = arg {
                if let Some(slot) = referenced.get_mut(*t) {
                    *slot = true;
                }
            }
        }
        if call.desc.0 >= table.len() {
            push(
                Severity::Error,
                "unknown-desc",
                format!("description id {} is outside the table ({} entries)", call.desc.0, table.len()),
            );
            return;
        }
        let desc = table.get(call.desc);
        if call.args.len() != desc.args.len() {
            push(
                Severity::Error,
                "arg-count",
                format!("{} takes {} args, got {}", desc.name, desc.args.len(), call.args.len()),
            );
            return;
        }
        let is_close = matches!(desc.kind, CallKind::Syscall(SyscallTemplate::Close));
        for (a, (value, arg_desc)) in call.args.iter().zip(&desc.args).enumerate() {
            match (&arg_desc.ty, value) {
                (TypeDesc::Resource { kind }, ArgValue::Ref(t)) => {
                    if *t >= n {
                        push(
                            Severity::Error,
                            "dangling-ref",
                            format!("{} arg {a} references r{t}, past the end of the program", desc.name),
                        );
                    } else if *t >= i {
                        push(
                            Severity::Error,
                            "forward-ref",
                            format!("{} arg {a} references r{t}, which does not precede it", desc.name),
                        );
                    } else {
                        let target = &prog.calls[*t];
                        let produces = (target.desc.0 < table.len())
                            .then(|| table.get(target.desc).produces.as_ref())
                            .flatten();
                        if !produces.is_some_and(|p| kind.accepts(p)) {
                            push(
                                Severity::Error,
                                "bad-producer",
                                format!("{} arg {a} wants {kind}, but r{t} does not produce it", desc.name),
                            );
                        } else if let Some(&closer) = closed_at.get(t) {
                            let (code, what) = if is_close {
                                ("double-close", "closes")
                            } else {
                                ("use-after-close", "uses")
                            };
                            push(
                                Severity::Warning,
                                code,
                                format!("{} {what} r{t}, already closed by call {closer}", desc.name),
                            );
                        }
                    }
                }
                (TypeDesc::Resource { kind }, other) => {
                    push(
                        Severity::Error,
                        "not-a-ref",
                        format!("{} arg {a} wants a {kind} reference, got {}", desc.name, class_of(other)),
                    );
                }
                (_, ArgValue::Ref(t)) => {
                    push(
                        Severity::Error,
                        "value-class",
                        format!("{} arg {a} is not a resource slot but holds a reference to r{t}", desc.name),
                    );
                }
                (TypeDesc::Int { min, max }, ArgValue::Int(v)) => {
                    if v < min || v > max {
                        push(
                            Severity::Warning,
                            "int-out-of-range",
                            format!("{} arg {a}: {v:#x} outside [{min:#x}, {max:#x}]", desc.name),
                        );
                    }
                }
                (TypeDesc::Choice { values }, ArgValue::Int(v)) => {
                    if !values.contains(v) {
                        push(
                            Severity::Warning,
                            "not-in-choice",
                            format!("{} arg {a}: {v:#x} is not a described choice", desc.name),
                        );
                    }
                }
                (TypeDesc::Flags { values }, ArgValue::Int(v)) => {
                    let union: u64 = values.iter().fold(0, |acc, f| acc | f);
                    if v & !union != 0 {
                        push(
                            Severity::Warning,
                            "bad-flag-bits",
                            format!("{} arg {a}: {v:#x} sets bits outside the flag set {union:#x}", desc.name),
                        );
                    }
                }
                (TypeDesc::Buffer { min_len, max_len }, ArgValue::Bytes(b)) => {
                    if b.len() < *min_len || b.len() > *max_len {
                        push(
                            Severity::Warning,
                            "buffer-len",
                            format!("{} arg {a}: {} bytes outside [{min_len}, {max_len}]", desc.name, b.len()),
                        );
                    }
                }
                (TypeDesc::Str { choices }, ArgValue::Str(s)) => {
                    if !choices.is_empty() && !choices.contains(s) {
                        push(
                            Severity::Warning,
                            "str-not-in-choices",
                            format!("{} arg {a}: string is not a described choice", desc.name),
                        );
                    }
                }
                (ty, value) => {
                    push(
                        Severity::Error,
                        "value-class",
                        format!("{} arg {a} described as {}, got {}", desc.name, class_of_ty(ty), class_of(value)),
                    );
                }
            }
        }
        if is_close {
            if let Some(ArgValue::Ref(t)) = call.args.first() {
                if *t < i {
                    closed_at.entry(*t).or_insert(i);
                }
            }
        }
        // §IV-D: a raw (request-unknown) ioctl whose request word matches
        // a typed description should use the specialized vocabulary entry
        // instead — the feedback table resolves them to distinct ids.
        if matches!(desc.kind, CallKind::Syscall(SyscallTemplate::IoctlAny)) {
            let request = call.args.iter().find_map(|a| match a {
                ArgValue::Int(v) => Some(*v),
                _ => None,
            });
            if let Some(request) = request {
                let specialized = table.iter().find(|(_, d)| {
                    matches!(&d.kind, CallKind::Syscall(SyscallTemplate::Ioctl { request: r })
                        if u64::from(*r) == request)
                });
                if let Some((_, spec)) = specialized {
                    push(
                        Severity::Info,
                        "ioctl-specializable",
                        format!("{} sends request {request:#x}, which {} describes with types", desc.name, spec.name),
                    );
                }
            }
        }
    }

    /// Adds the whole-program findings — dead producer calls whose result
    /// nothing ever consumes — and returns the report.
    pub(crate) fn finish(mut self, prog: &Prog, table: &DescTable) -> Report {
        for (i, call) in prog.calls.iter().enumerate() {
            if self.referenced[i] || call.desc.0 >= table.len() {
                continue;
            }
            let desc = table.get(call.desc);
            if desc.produces.is_some() {
                self.report.push(
                    Severity::Info,
                    "dead-call",
                    Some(i),
                    format!("{} produces a resource no later call consumes", desc.name),
                );
            }
        }
        self.report
    }
}

fn class_of(value: &ArgValue) -> &'static str {
    match value {
        ArgValue::Int(_) => "an integer",
        ArgValue::Bytes(_) => "a byte blob",
        ArgValue::Str(_) => "a string",
        ArgValue::Ref(_) => "a reference",
    }
}

fn class_of_ty(ty: &TypeDesc) -> &'static str {
    match ty {
        TypeDesc::Int { .. } | TypeDesc::Choice { .. } | TypeDesc::Flags { .. } => "an integer",
        TypeDesc::Buffer { .. } => "a byte blob",
        TypeDesc::Str { .. } => "a string",
        TypeDesc::Resource { .. } => "a resource",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check_prog;
    use fuzzlang::desc::{ArgDesc, CallDesc, DescId};

    fn lint(prog: &Prog, table: &DescTable) -> Report {
        check_prog(prog, table, None).report
    }
    use fuzzlang::prog::Call;

    fn table() -> DescTable {
        let mut t = DescTable::new();
        t.add(CallDesc::syscall_open("/dev/x")); // 0
        t.add(CallDesc::syscall_close()); // 1
        t.add(CallDesc::new(
            "ioctl$X", // 2
            CallKind::Syscall(SyscallTemplate::Ioctl { request: 0x7 }),
            vec![
                ArgDesc::new("fd", TypeDesc::Resource { kind: "fd:/dev/x".into() }),
                ArgDesc::new("mode", TypeDesc::Choice { values: vec![1, 2] }),
                ArgDesc::new("flags", TypeDesc::Flags { values: vec![1, 4] }),
                ArgDesc::new("len", TypeDesc::Int { min: 0, max: 16 }),
                ArgDesc::new("blob", TypeDesc::Buffer { min_len: 0, max_len: 4 }),
            ],
            None,
        ));
        t.add(CallDesc::new(
            "ioctl$raw", // 3
            CallKind::Syscall(SyscallTemplate::IoctlAny),
            vec![
                ArgDesc::new("fd", TypeDesc::Resource { kind: "fd".into() }),
                ArgDesc::new("request", TypeDesc::any_u32()),
            ],
            None,
        ));
        t
    }

    fn call(desc: usize, args: Vec<ArgValue>) -> Call {
        Call { desc: DescId(desc), args }
    }

    fn good_ioctl_args() -> Vec<ArgValue> {
        vec![
            ArgValue::Ref(0),
            ArgValue::Int(1),
            ArgValue::Int(5),
            ArgValue::Int(8),
            ArgValue::Bytes(vec![1, 2]),
        ]
    }

    #[test]
    fn clean_program_lints_clean() {
        let t = table();
        let p = Prog {
            calls: vec![
                call(0, vec![]),
                call(2, good_ioctl_args()),
                call(1, vec![ArgValue::Ref(0)]),
            ],
        };
        let report = lint(&p, &t);
        assert!(report.is_clean(), "{:?}", report.diagnostics);
    }

    #[test]
    fn structural_defects_are_errors() {
        let t = table();
        let p = Prog {
            calls: vec![
                call(9, vec![]),                                 // unknown desc
                call(0, vec![ArgValue::Int(1)]),                 // arg count
                call(1, vec![ArgValue::Ref(99)]),                // dangling
                call(1, vec![ArgValue::Ref(3)]),                 // forward/self
                call(1, vec![ArgValue::Int(4)]),                 // not a ref
                call(1, vec![ArgValue::Ref(1)]),                 // bad producer (open w/ bad argc is target: still produces — use call 4 instead)
            ],
        };
        let report = lint(&p, &t);
        let codes: Vec<&str> = report.diagnostics.iter().map(|d| d.code).collect();
        for code in ["unknown-desc", "arg-count", "dangling-ref", "forward-ref", "not-a-ref"] {
            assert!(codes.contains(&code), "missing {code} in {codes:?}");
        }
        assert!(report.has_errors());
    }

    #[test]
    fn bad_producer_and_ref_in_value_slot_are_errors() {
        let t = table();
        let p = Prog {
            calls: vec![
                call(0, vec![]),
                call(1, vec![ArgValue::Ref(0)]), // close produces nothing
                call(1, vec![ArgValue::Ref(1)]), // ref at the close → bad producer (and double-close never fires: not a producer)
                call(2, {
                    let mut args = good_ioctl_args();
                    args[1] = ArgValue::Ref(0); // ref in a Choice slot
                    args
                }),
            ],
        };
        let report = lint(&p, &t);
        let codes: Vec<&str> = report.diagnostics.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"bad-producer"), "{codes:?}");
        assert!(codes.contains(&"value-class"), "{codes:?}");
    }

    #[test]
    fn lifetime_defects_are_warnings() {
        let t = table();
        let p = Prog {
            calls: vec![
                call(0, vec![]),
                call(1, vec![ArgValue::Ref(0)]),
                call(2, good_ioctl_args()),      // use after close
                call(1, vec![ArgValue::Ref(0)]), // double close
            ],
        };
        let report = lint(&p, &t);
        assert!(!report.has_errors(), "{:?}", report.diagnostics);
        let codes: Vec<&str> = report
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .map(|d| d.code)
            .collect();
        assert_eq!(codes, vec!["use-after-close", "double-close"]);
    }

    #[test]
    fn semantic_drift_is_warnings() {
        let t = table();
        let p = Prog {
            calls: vec![
                call(0, vec![]),
                call(
                    2,
                    vec![
                        ArgValue::Ref(0),
                        ArgValue::Int(9),             // not in choice
                        ArgValue::Int(2),             // bad flag bit
                        ArgValue::Int(99),            // out of range
                        ArgValue::Bytes(vec![0; 10]), // too long
                    ],
                ),
                call(1, vec![ArgValue::Ref(0)]),
            ],
        };
        let report = lint(&p, &t);
        assert!(!report.has_errors(), "{:?}", report.diagnostics);
        let codes: Vec<&str> = report.diagnostics.iter().map(|d| d.code).collect();
        assert_eq!(codes, vec!["not-in-choice", "bad-flag-bits", "int-out-of-range", "buffer-len"]);
    }

    #[test]
    fn dead_call_and_specializable_ioctl_are_info() {
        let t = table();
        let p = Prog {
            calls: vec![
                call(0, vec![]), // never consumed → dead
                call(0, vec![]),
                call(3, vec![ArgValue::Ref(1), ArgValue::Int(0x7)]), // request 7 has a typed desc
            ],
        };
        let report = lint(&p, &t);
        assert_eq!(report.max_severity(), Some(Severity::Info));
        let codes: Vec<&str> = report.diagnostics.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"ioctl-specializable"), "{codes:?}");
        assert!(codes.contains(&"dead-call"), "{codes:?}");
        // The consumed open is not dead.
        assert_eq!(codes.iter().filter(|c| **c == "dead-call").count(), 1);
    }

    #[test]
    fn wrong_value_class_in_typed_slot_is_error() {
        let t = table();
        let mut args = good_ioctl_args();
        args[4] = ArgValue::Str("x".into()); // Buffer slot holds a string
        let p = Prog { calls: vec![call(0, vec![]), call(2, args)] };
        let report = lint(&p, &t);
        assert!(report.has_errors());
        assert_eq!(report.diagnostics[0].code, "value-class");
    }
}
