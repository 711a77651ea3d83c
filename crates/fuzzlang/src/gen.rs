//! Syntax-directed generation: instantiate calls from their descriptions,
//! inserting producer calls for unresolved resource arguments (the
//! "find producer calls … and insert it into the call sequence as a
//! prefix" step of §IV-C).

use crate::desc::{DescId, DescTable};
use crate::prog::{ArgValue, Call, Prog};
use crate::types::TypeDesc;
use rand::seq::SliceRandom;
use rand::Rng;

/// Generates a value for a non-resource type.
///
/// # Panics
///
/// Panics on [`TypeDesc::Resource`] — resources are resolved by
/// [`append_call`], not generated.
pub fn gen_value<R: Rng>(ty: &TypeDesc, rng: &mut R) -> ArgValue {
    match ty {
        TypeDesc::Int { min, max } => ArgValue::Int(rng.gen_range(*min..=*max)),
        TypeDesc::Choice { values } => {
            ArgValue::Int(values.choose(rng).copied().unwrap_or_default())
        }
        TypeDesc::Flags { values } => {
            let mut v = 0;
            for &flag in values {
                if rng.gen_bool(0.5) {
                    v |= flag;
                }
            }
            ArgValue::Int(v)
        }
        TypeDesc::Buffer { min_len, max_len } => {
            let len = rng.gen_range(*min_len..=*max_len);
            let mut bytes = vec![0u8; len];
            rng.fill(&mut bytes[..]);
            ArgValue::Bytes(bytes)
        }
        TypeDesc::Str { choices } => {
            ArgValue::Str(choices.choose(rng).cloned().unwrap_or_default())
        }
        TypeDesc::Resource { .. } => panic!("resources are resolved, not generated"),
    }
}

/// Maximum producer-insertion recursion (guards against cyclic resource
/// descriptions).
const MAX_PRODUCER_DEPTH: usize = 8;

/// Appends an instance of `desc_id` to `prog`, recursively appending
/// producer calls for resource arguments that no earlier call satisfies.
/// Returns the index of the appended call, or `None` when a required
/// resource has no producer in the table.
pub fn append_call<R: Rng>(
    prog: &mut Prog,
    table: &DescTable,
    desc_id: DescId,
    rng: &mut R,
) -> Option<usize> {
    append_call_depth(prog, table, desc_id, rng, 0)
}

fn append_call_depth<R: Rng>(
    prog: &mut Prog,
    table: &DescTable,
    desc_id: DescId,
    rng: &mut R,
    depth: usize,
) -> Option<usize> {
    if depth > MAX_PRODUCER_DEPTH {
        return None;
    }
    let desc = table.get(desc_id);
    let mut args = Vec::with_capacity(desc.args.len());
    for arg in &desc.args {
        match &arg.ty {
            TypeDesc::Resource { kind } => {
                // Prefer reusing an existing producer (mirrors real
                // workloads, which share fds); otherwise insert one.
                let existing: Vec<usize> = prog
                    .calls
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| {
                        table
                            .get(c.desc)
                            .produces
                            .as_ref()
                            .is_some_and(|p| kind.accepts(p))
                    })
                    .map(|(i, _)| i)
                    .collect();
                let target = if !existing.is_empty() && rng.gen_bool(0.8) {
                    *existing.choose(rng).expect("non-empty")
                } else {
                    let producers = table.producers_of(kind);
                    let &producer = producers.choose(rng)?;
                    append_call_depth(prog, table, producer, rng, depth + 1)?
                };
                args.push(ArgValue::Ref(target));
            }
            other => args.push(gen_value(other, rng)),
        }
    }
    prog.calls.push(Call { desc: desc_id, args });
    Some(prog.calls.len() - 1)
}

/// Generates a program of roughly `target_calls` randomly chosen calls
/// (the non-relational baseline generator; DroidFuzz's relational
/// generator lives in the fuzzer crate and composes [`append_call`]).
pub fn generate<R: Rng>(table: &DescTable, target_calls: usize, rng: &mut R) -> Prog {
    let mut prog = Prog::new();
    let ids: Vec<DescId> = table.iter().map(|(id, _)| id).collect();
    if ids.is_empty() {
        return prog;
    }
    for _ in 0..target_calls {
        let &id = ids.choose(rng).expect("non-empty");
        let _ = append_call(&mut prog, table, id, rng);
        if prog.len() >= target_calls * 2 {
            break;
        }
    }
    prog
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::desc::{ArgDesc, CallDesc, CallKind, SyscallTemplate};
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
                ArgDesc::new("mode", TypeDesc::Choice { values: vec![2, 4, 8] }),
            ],
            None,
        ));
        t
    }

    #[test]
    fn gen_value_respects_ranges_and_choices() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            match gen_value(&TypeDesc::Int { min: 5, max: 9 }, &mut rng) {
                ArgValue::Int(v) => assert!((5..=9).contains(&v)),
                other => panic!("unexpected {other:?}"),
            }
            match gen_value(&TypeDesc::Choice { values: vec![2, 4, 8] }, &mut rng) {
                ArgValue::Int(v) => assert!([2, 4, 8].contains(&v)),
                other => panic!("unexpected {other:?}"),
            }
            match gen_value(&TypeDesc::Flags { values: vec![1, 2, 4] }, &mut rng) {
                ArgValue::Int(v) => assert!(v <= 7),
                other => panic!("unexpected {other:?}"),
            }
            match gen_value(&TypeDesc::Buffer { min_len: 2, max_len: 6 }, &mut rng) {
                ArgValue::Bytes(b) => assert!((2..=6).contains(&b.len())),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn append_call_inserts_producers() {
        let t = table();
        let ioctl = t.id_of("ioctl$X").unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let mut prog = Prog::new();
        let idx = append_call(&mut prog, &t, ioctl, &mut rng).unwrap();
        assert_eq!(idx, 1, "producer open inserted first");
        assert_eq!(prog.len(), 2);
        assert_eq!(prog.validate(&t), Ok(()));
    }

    #[test]
    fn append_call_reuses_existing_producer_often() {
        let t = table();
        let ioctl = t.id_of("ioctl$X").unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut prog = Prog::new();
        for _ in 0..10 {
            append_call(&mut prog, &t, ioctl, &mut rng).unwrap();
        }
        let opens = prog
            .calls
            .iter()
            .filter(|c| t.get(c.desc).name.starts_with("openat"))
            .count();
        assert!(opens < 10, "most calls should reuse an fd (got {opens} opens)");
    }

    #[test]
    fn append_call_fails_without_producer() {
        let mut t = DescTable::new();
        let orphan = t.add(CallDesc::new(
            "needs_handle",
            CallKind::Syscall(SyscallTemplate::Ioctl { request: 1 }),
            vec![ArgDesc::new("h", TypeDesc::Resource { kind: "handle:none".into() })],
            None,
        ));
        let mut rng = StdRng::seed_from_u64(4);
        let mut prog = Prog::new();
        assert_eq!(append_call(&mut prog, &t, orphan, &mut rng), None);
        assert!(prog.calls.len() <= 1, "no dangling call committed with bad refs");
    }

    #[test]
    fn generated_programs_always_validate() {
        let t = table();
        for seed in 0..50 {
            let mut rng = StdRng::seed_from_u64(seed);
            let prog = generate(&t, 8, &mut rng);
            assert_eq!(prog.validate(&t), Ok(()), "seed {seed}");
        }
    }
}
