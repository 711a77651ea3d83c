//! Deterministic auto-repair: rewrite fixable `Error`-severity defects
//! instead of discarding the program.
//!
//! The repairer rebuilds the program front to back, the same way §IV-C's
//! producer insertion does, but with every choice made deterministically
//! (lowest description id, nearest earlier producer, type-minimal default
//! values) so that gating it into a seeded engine consumes no randomness
//! and leaves campaign replay byte-identical.
//!
//! Per call:
//!
//! * unknown description id → the call is dropped (nothing to rebuild
//!   against); calls depending on it are re-pointed or dropped in turn,
//! * argument lists are conformed to the description: surplus arguments
//!   are truncated, missing or class-mismatched ones replaced by the
//!   type's minimal value,
//! * resource slots keep their reference when it still resolves to a
//!   producer of the right kind; otherwise they are re-pointed at the
//!   *nearest earlier* producer, and when none exists a producer chain is
//!   inserted (leaf producers preferred, so `dup`-style self-consuming
//!   producers cannot recurse forever). A resource no description can
//!   produce drops the call.
//!
//! Warnings are left alone on purpose: an out-of-range integer is an
//! interesting input, not a defect.

use fuzzlang::desc::{DescId, DescTable};
use fuzzlang::prog::{ArgValue, Call, Prog};
use fuzzlang::types::{ResourceKind, TypeDesc};

/// Producer-insertion recursion cap (mirrors `fuzzlang::gen`).
const MAX_PRODUCER_DEPTH: usize = 8;

/// Repairs every `Error`-severity defect in `prog`, returning the fixed
/// program, or `None` when nothing executable is left (every call was
/// structurally unrecoverable).
pub fn repair_prog(prog: &Prog, table: &DescTable) -> Option<Prog> {
    let mut out = Prog::new();
    // Original call index → rebuilt index (None when dropped).
    let mut remap: Vec<Option<usize>> = Vec::with_capacity(prog.calls.len());
    for call in &prog.calls {
        if call.desc.0 >= table.len() {
            remap.push(None);
            continue;
        }
        let desc = table.get(call.desc);
        let mut args = Vec::with_capacity(desc.args.len());
        let mut droppable = false;
        for (a, arg_desc) in desc.args.iter().enumerate() {
            let existing = call.args.get(a);
            match &arg_desc.ty {
                TypeDesc::Resource { kind } => {
                    let kept = match existing {
                        Some(ArgValue::Ref(t)) => remap
                            .get(*t)
                            .copied()
                            .flatten()
                            .filter(|&new_t| produces_wanted(&out, table, new_t, kind)),
                        _ => None,
                    };
                    let target = kept
                        .or_else(|| nearest_producer(&out, table, kind))
                        .or_else(|| insert_producer(&mut out, table, kind, 0));
                    match target {
                        Some(t) => args.push(ArgValue::Ref(t)),
                        None => {
                            droppable = true;
                            break;
                        }
                    }
                }
                ty => args.push(conform_value(ty, existing)),
            }
        }
        if droppable {
            remap.push(None);
        } else {
            out.calls.push(Call { desc: call.desc, args });
            remap.push(Some(out.calls.len() - 1));
        }
    }
    (!out.calls.is_empty()).then_some(out)
}

/// Whether rebuilt call `t` produces a resource accepted as `kind`.
fn produces_wanted(out: &Prog, table: &DescTable, t: usize, kind: &ResourceKind) -> bool {
    out.calls
        .get(t)
        .map(|c| table.get(c.desc))
        .and_then(|d| d.produces.as_ref())
        .is_some_and(|p| kind.accepts(p))
}

/// Nearest earlier producer of `kind` in the rebuilt program.
fn nearest_producer(out: &Prog, table: &DescTable, kind: &ResourceKind) -> Option<usize> {
    (0..out.calls.len())
        .rev()
        .find(|&t| produces_wanted(out, table, t, kind))
}

/// Appends a producer chain for `kind`, preferring producers without
/// resource arguments of their own (a `dup`-style producer that consumes
/// what it produces would otherwise recurse forever).
fn insert_producer(out: &mut Prog, table: &DescTable, kind: &ResourceKind, depth: usize) -> Option<usize> {
    if depth > MAX_PRODUCER_DEPTH {
        return None;
    }
    let producers = table.producers_of(kind);
    let chosen = producers
        .iter()
        .copied()
        .find(|&id| table.get(id).args.iter().all(|a| !a.ty.is_resource()))
        .or_else(|| producers.first().copied())?;
    append_leafwards(out, table, chosen, depth)
}

fn append_leafwards(out: &mut Prog, table: &DescTable, desc_id: DescId, depth: usize) -> Option<usize> {
    let desc = table.get(desc_id);
    let mut args = Vec::with_capacity(desc.args.len());
    for arg_desc in &desc.args {
        match &arg_desc.ty {
            TypeDesc::Resource { kind } => {
                let t = nearest_producer(out, table, kind)
                    .or_else(|| insert_producer(out, table, kind, depth + 1))?;
                args.push(ArgValue::Ref(t));
            }
            ty => args.push(conform_value(ty, None)),
        }
    }
    out.calls.push(Call { desc: desc_id, args });
    Some(out.calls.len() - 1)
}

/// Keeps `existing` when its value class matches the described type,
/// otherwise substitutes the type's minimal value.
fn conform_value(ty: &TypeDesc, existing: Option<&ArgValue>) -> ArgValue {
    match (ty, existing) {
        (TypeDesc::Int { .. } | TypeDesc::Choice { .. } | TypeDesc::Flags { .. }, Some(v @ ArgValue::Int(_)))
        | (TypeDesc::Buffer { .. }, Some(v @ ArgValue::Bytes(_)))
        | (TypeDesc::Str { .. }, Some(v @ ArgValue::Str(_))) => (*v).clone(),
        (TypeDesc::Int { min, .. }, _) => ArgValue::Int(*min),
        (TypeDesc::Choice { values }, _) => ArgValue::Int(values.first().copied().unwrap_or_default()),
        (TypeDesc::Flags { .. }, _) => ArgValue::Int(0),
        (TypeDesc::Buffer { min_len, .. }, _) => ArgValue::Bytes(vec![0; *min_len]),
        (TypeDesc::Str { choices }, _) => ArgValue::Str(choices.first().cloned().unwrap_or_default()),
        (TypeDesc::Resource { .. }, _) => unreachable!("resource slots are resolved, not conformed"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{check_prog, gate_prog};
    use crate::counters::LintCounters;
    use crate::diag::Report;
    use fuzzlang::desc::{ArgDesc, CallDesc, CallKind, SyscallTemplate};

    fn lint(prog: &Prog, table: &DescTable) -> Report {
        check_prog(prog, table, None).report
    }

    fn table() -> DescTable {
        let mut t = DescTable::new();
        t.add(CallDesc::syscall_close()); // 0 (before any producer, like the real tables)
        t.add(CallDesc::syscall_dup()); // 1: produces fd, consumes fd
        t.add(CallDesc::syscall_open("/dev/x")); // 2
        t.add(CallDesc::new(
            "ioctl$X", // 3
            CallKind::Syscall(SyscallTemplate::Ioctl { request: 7 }),
            vec![
                ArgDesc::new("fd", TypeDesc::Resource { kind: "fd:/dev/x".into() }),
                ArgDesc::new("mode", TypeDesc::Choice { values: vec![2, 4] }),
            ],
            None,
        ));
        t
    }

    fn call(desc: usize, args: Vec<ArgValue>) -> Call {
        Call { desc: DescId(desc), args }
    }

    #[test]
    fn dangling_ref_repointed_to_nearest_producer() {
        let t = table();
        // Two opens; the ioctl references a dangling r9.
        let p = Prog {
            calls: vec![
                call(2, vec![]),
                call(2, vec![]),
                call(3, vec![ArgValue::Ref(9), ArgValue::Int(2)]),
            ],
        };
        let fixed = repair_prog(&p, &t).expect("repairable");
        assert!(!lint(&fixed, &t).has_errors());
        assert_eq!(fixed.calls[2].args[0], ArgValue::Ref(1), "nearest earlier producer wins");
    }

    #[test]
    fn missing_producer_inserted_deterministically() {
        let t = table();
        let p = Prog { calls: vec![call(3, vec![ArgValue::Ref(0), ArgValue::Int(2)])] };
        let fixed = repair_prog(&p, &t).expect("repairable");
        assert!(!lint(&fixed, &t).has_errors());
        assert_eq!(fixed.calls.len(), 2);
        assert_eq!(fixed.calls[0].desc, DescId(2), "leaf producer (open), not dup");
        assert_eq!(fixed.calls[1].args[0], ArgValue::Ref(0));
        // Determinism: repairing again yields the identical program.
        assert_eq!(repair_prog(&p, &t).unwrap(), fixed);
    }

    #[test]
    fn self_consuming_producer_does_not_recurse_forever() {
        let mut t = DescTable::new();
        // Only producer of "fd" is dup, which consumes "fd": unrepairable.
        t.add(CallDesc::syscall_dup());
        let p = Prog { calls: vec![call(0, vec![ArgValue::Ref(5)])] };
        assert_eq!(repair_prog(&p, &t), None);
    }

    #[test]
    fn unknown_desc_dropped_and_dependents_repointed() {
        let t = table();
        let p = Prog {
            calls: vec![
                call(2, vec![]),
                call(42, vec![]), // unknown
                call(3, vec![ArgValue::Ref(1), ArgValue::Int(4)]),
            ],
        };
        let fixed = repair_prog(&p, &t).expect("repairable");
        assert!(!lint(&fixed, &t).has_errors());
        assert_eq!(fixed.calls.len(), 2);
        assert_eq!(fixed.calls[1].args[0], ArgValue::Ref(0), "re-pointed at the surviving open");
    }

    #[test]
    fn arg_lists_conformed_to_description() {
        let t = table();
        let p = Prog {
            calls: vec![
                call(2, vec![ArgValue::Int(9)]), // surplus arg
                call(3, vec![ArgValue::Ref(0)]), // missing mode
            ],
        };
        let fixed = repair_prog(&p, &t).expect("repairable");
        assert!(!lint(&fixed, &t).has_errors());
        assert!(fixed.calls[0].args.is_empty());
        assert_eq!(fixed.calls[1].args[1], ArgValue::Int(2), "first described choice");
    }

    #[test]
    fn kept_values_and_warnings_survive_repair() {
        let t = table();
        // Valid ref, out-of-choice mode (warning) + a dangling second use.
        let p = Prog {
            calls: vec![
                call(2, vec![]),
                call(3, vec![ArgValue::Ref(0), ArgValue::Int(99)]),
                call(3, vec![ArgValue::Ref(7), ArgValue::Int(4)]),
            ],
        };
        let fixed = repair_prog(&p, &t).expect("repairable");
        let report = lint(&fixed, &t);
        assert!(!report.has_errors());
        assert_eq!(fixed.calls[1].args[1], ArgValue::Int(99), "warning value untouched");
        assert!(report.diagnostics.iter().any(|d| d.code == "not-in-choice"));
    }

    #[test]
    fn gate_counts_outcomes() {
        let t = table();
        let mut counters = LintCounters::default();
        // Clean program: passes uncounted.
        let mut clean = Prog { calls: vec![call(2, vec![])] };
        assert!(gate_prog(&mut clean, &t, &mut counters));
        assert_eq!(counters.total(), 0);
        // Repairable program.
        let mut broken = Prog { calls: vec![call(3, vec![ArgValue::Ref(9), ArgValue::Int(2)])] };
        assert!(gate_prog(&mut broken, &t, &mut counters));
        assert_eq!(counters.repaired, 1);
        assert!(!lint(&broken, &t).has_errors());
        // Unrepairable program.
        let mut hopeless = Prog { calls: vec![call(42, vec![])] };
        assert!(!gate_prog(&mut hopeless, &t, &mut counters));
        assert_eq!(counters.rejected, 1);
    }
}
