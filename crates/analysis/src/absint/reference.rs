//! The oracle for [`check_prog`] and the gate: the linter, the abstract
//! interpreter with both of its driver loops, prerequisite repair and
//! both gates as they were before the single pass replaced them, kept
//! verbatim. Only code the single pass left unchanged is shared: the
//! argument lowering (`CallCtx`), the abstract domain and verdict types,
//! call synthesis and splicing, `op_label`, and [`repair_prog`].
//!
//! `check_prog_and_gates_match_reference` builds small random state
//! models, derives a description table from them, corrupts generated
//! programs (dangling, forward and self references, argument-count
//! drift, out-of-table description ids, guard-word and payload pokes,
//! dropped and duplicated calls) and asserts that reports, `depth`,
//! `fired`, both verdicts, prerequisite repair, gate outcomes, resulting
//! programs and [`LintCounters`] are equal. Run it longer with
//! `PROPTEST_CASES`.

use super::*;
use crate::check::{check_prog, gate_prog as gate_prog_now, gate_prog_static as gate_prog_static_now, Check};
use crate::counters::LintCounters;
use crate::repair::repair_prog;
use fuzzlang::desc::{ArgDesc, CallDesc};
use fuzzlang::types::ResourceKind;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Lints one program against `table`. Never panics, whatever the program
/// holds — corrupt imports are exactly what the pass exists to catch.
fn lint_prog(prog: &Prog, table: &DescTable) -> Report {
    let mut report = Report::new();
    let n = prog.calls.len();
    // Producer index → index of the call that closed it first.
    let mut closed_at: HashMap<usize, usize> = HashMap::new();
    // Defensive "is referenced" map (unlike `Prog::unreferenced`, out of
    // range references must not panic here).
    let mut referenced = vec![false; n];

    for (i, call) in prog.calls.iter().enumerate() {
        for arg in &call.args {
            if let ArgValue::Ref(t) = arg {
                if let Some(slot) = referenced.get_mut(*t) {
                    *slot = true;
                }
            }
        }
        if call.desc.0 >= table.len() {
            report.push(
                Severity::Error,
                "unknown-desc",
                Some(i),
                format!("description id {} is outside the table ({} entries)", call.desc.0, table.len()),
            );
            continue;
        }
        let desc = table.get(call.desc);
        if call.args.len() != desc.args.len() {
            report.push(
                Severity::Error,
                "arg-count",
                Some(i),
                format!("{} takes {} args, got {}", desc.name, desc.args.len(), call.args.len()),
            );
            continue;
        }
        let is_close = matches!(desc.kind, CallKind::Syscall(SyscallTemplate::Close));
        for (a, (value, arg_desc)) in call.args.iter().zip(&desc.args).enumerate() {
            match (&arg_desc.ty, value) {
                (TypeDesc::Resource { kind }, ArgValue::Ref(t)) => {
                    if *t >= n {
                        report.push(
                            Severity::Error,
                            "dangling-ref",
                            Some(i),
                            format!("{} arg {a} references r{t}, past the end of the program", desc.name),
                        );
                    } else if *t >= i {
                        report.push(
                            Severity::Error,
                            "forward-ref",
                            Some(i),
                            format!("{} arg {a} references r{t}, which does not precede it", desc.name),
                        );
                    } else {
                        let target = &prog.calls[*t];
                        let produces = (target.desc.0 < table.len())
                            .then(|| table.get(target.desc).produces.as_ref())
                            .flatten();
                        if !produces.is_some_and(|p| kind.accepts(p)) {
                            report.push(
                                Severity::Error,
                                "bad-producer",
                                Some(i),
                                format!("{} arg {a} wants {kind}, but r{t} does not produce it", desc.name),
                            );
                        } else if let Some(&closer) = closed_at.get(t) {
                            let (code, what) = if is_close {
                                ("double-close", "closes")
                            } else {
                                ("use-after-close", "uses")
                            };
                            report.push(
                                Severity::Warning,
                                code,
                                Some(i),
                                format!("{} {what} r{t}, already closed by call {closer}", desc.name),
                            );
                        }
                    }
                }
                (TypeDesc::Resource { kind }, other) => {
                    report.push(
                        Severity::Error,
                        "not-a-ref",
                        Some(i),
                        format!("{} arg {a} wants a {kind} reference, got {}", desc.name, class_of(other)),
                    );
                }
                (_, ArgValue::Ref(t)) => {
                    report.push(
                        Severity::Error,
                        "value-class",
                        Some(i),
                        format!("{} arg {a} is not a resource slot but holds a reference to r{t}", desc.name),
                    );
                }
                (TypeDesc::Int { min, max }, ArgValue::Int(v)) => {
                    if v < min || v > max {
                        report.push(
                            Severity::Warning,
                            "int-out-of-range",
                            Some(i),
                            format!("{} arg {a}: {v:#x} outside [{min:#x}, {max:#x}]", desc.name),
                        );
                    }
                }
                (TypeDesc::Choice { values }, ArgValue::Int(v)) => {
                    if !values.contains(v) {
                        report.push(
                            Severity::Warning,
                            "not-in-choice",
                            Some(i),
                            format!("{} arg {a}: {v:#x} is not a described choice", desc.name),
                        );
                    }
                }
                (TypeDesc::Flags { values }, ArgValue::Int(v)) => {
                    let union: u64 = values.iter().fold(0, |acc, f| acc | f);
                    if v & !union != 0 {
                        report.push(
                            Severity::Warning,
                            "bad-flag-bits",
                            Some(i),
                            format!("{} arg {a}: {v:#x} sets bits outside the flag set {union:#x}", desc.name),
                        );
                    }
                }
                (TypeDesc::Buffer { min_len, max_len }, ArgValue::Bytes(b)) => {
                    if b.len() < *min_len || b.len() > *max_len {
                        report.push(
                            Severity::Warning,
                            "buffer-len",
                            Some(i),
                            format!("{} arg {a}: {} bytes outside [{min_len}, {max_len}]", desc.name, b.len()),
                        );
                    }
                }
                (TypeDesc::Str { choices }, ArgValue::Str(s)) => {
                    if !choices.is_empty() && !choices.contains(s) {
                        report.push(
                            Severity::Warning,
                            "str-not-in-choices",
                            Some(i),
                            format!("{} arg {a}: string is not a described choice", desc.name),
                        );
                    }
                }
                (ty, value) => {
                    report.push(
                        Severity::Error,
                        "value-class",
                        Some(i),
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
                    report.push(
                        Severity::Info,
                        "ioctl-specializable",
                        Some(i),
                        format!("{} sends request {request:#x}, which {} describes with types", desc.name, spec.name),
                    );
                }
            }
        }
    }

    // Dead calls: producers whose result nothing ever consumes.
    for (i, call) in prog.calls.iter().enumerate() {
        if referenced[i] || call.desc.0 >= table.len() {
            continue;
        }
        let desc = table.get(call.desc);
        if desc.produces.is_some() {
            report.push(
                Severity::Info,
                "dead-call",
                Some(i),
                format!("{} produces a resource no later call consumes", desc.name),
            );
        }
    }
    report
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

/// Outcome of abstractly interpreting one program.
#[derive(Debug, Clone, PartialEq)]
struct AbsintResult {
    /// Diagnostics, in call order.
    pub report: Report,
    /// Definite state-changing transitions: a lower bound on the dynamic
    /// depth the program reaches on a fresh device.
    pub depth: u32,
    /// Per-call claims: `fired[i]` means call `i` definitely succeeds.
    pub fired: Vec<bool>,
}

/// Abstractly interprets `prog` against `models`.
fn absint_prog(prog: &Prog, table: &DescTable, models: &ModelSet) -> AbsintResult {
    Interp::new(table, models).run(prog)
}

/// Tri-state match of transition `t` against the call, from state
/// `state_name`.
fn match_transition(t: &Transition, state_name: &str, ctx: &CallCtx<'_>) -> MatchKind {
    let op = match (&t.op, ctx.template) {
        (TransOp::Ioctl(req), SyscallTemplate::Ioctl { .. })
        | (TransOp::Ioctl(req), SyscallTemplate::IoctlAny) => match ctx.request() {
            Some(r) if r == *req => MatchKind::Definite,
            Some(_) => MatchKind::No,
            None => MatchKind::Possible,
        },
        (TransOp::Read, SyscallTemplate::Read)
        | (TransOp::Write, SyscallTemplate::Write)
        | (TransOp::Mmap, SyscallTemplate::Mmap)
        | (TransOp::Bind, SyscallTemplate::Bind)
        | (TransOp::Connect, SyscallTemplate::Connect)
        | (TransOp::Listen, SyscallTemplate::Listen)
        | (TransOp::Accept, SyscallTemplate::Accept) => MatchKind::Definite,
        _ => MatchKind::No,
    };
    if op == MatchKind::No {
        return MatchKind::No;
    }
    if !t.from.is_empty() && !t.from.iter().any(|s| s == state_name) {
        return MatchKind::No;
    }
    let mut verdict = op;
    for (i, g) in t.guards.iter().enumerate() {
        if matches!(g, WordGuard::Any) {
            continue;
        }
        match ctx.word_at(i) {
            Some(w) if g.admits(w) => {}
            Some(_) => return MatchKind::No,
            None => verdict = MatchKind::Possible,
        }
    }
    if let Some(prefix) = &t.payload_prefix {
        match ctx.prefix_match(prefix) {
            MatchKind::No => return MatchKind::No,
            MatchKind::Possible => verdict = MatchKind::Possible,
            MatchKind::Definite => {}
        }
    }
    verdict
}

/// Evaluates a modeled op from one known state.
fn evaluate(model: &StateModel, s: usize, ctx: &CallCtx<'_>) -> Verdict {
    let state_name = &model.states[s];
    let state_idx = |name: &str| model.states.iter().position(|x| x == name).unwrap_or(s);
    let matched: Vec<(&Transition, MatchKind)> = model
        .transitions
        .iter()
        .filter_map(|t| {
            let m = match_transition(t, state_name, ctx);
            (m != MatchKind::No).then_some((t, m))
        })
        .collect();
    if matched.is_empty() {
        let op_from_state = model.transitions.iter().any(|t| {
            let op_only = match (&t.op, ctx.template) {
                (TransOp::Ioctl(req), _) => ctx.request() == Some(*req),
                (TransOp::Read, SyscallTemplate::Read)
                | (TransOp::Write, SyscallTemplate::Write)
                | (TransOp::Mmap, SyscallTemplate::Mmap)
                | (TransOp::Bind, SyscallTemplate::Bind)
                | (TransOp::Connect, SyscallTemplate::Connect)
                | (TransOp::Listen, SyscallTemplate::Listen)
                | (TransOp::Accept, SyscallTemplate::Accept) => true,
                _ => false,
            };
            op_only && (t.from.is_empty() || t.from.iter().any(|x| x == state_name))
        });
        return Verdict::Fail { op_from_state };
    }
    let all_definite_guaranteed = matched.iter().all(|(t, m)| {
        *m == MatchKind::Definite && t.reliability == Reliability::Guaranteed && !t.hazard
    });
    let targets: BTreeSet<usize> = matched
        .iter()
        .map(|(t, _)| t.to.as_deref().map_or(s, &state_idx))
        .collect();
    if all_definite_guaranteed && targets.len() == 1 {
        let target = *targets.iter().next().expect("one target");
        return Verdict::Fire {
            target,
            produces: matched.iter().filter_map(|(t, _)| t.produces.clone()).collect(),
            consumes: matched.iter().filter_map(|(t, _)| t.consumes.clone()).collect(),
            spawns: matched
                .iter()
                .find_map(|(t, _)| t.spawns.as_deref())
                .map(&state_idx),
        };
    }
    let mut outcomes = targets;
    outcomes.insert(s); // any non-definite transition may simply not fire
    Verdict::Ambiguous { outcomes, hazard: matched.iter().any(|(t, _)| t.hazard) }
}

struct Interp<'a> {
    table: &'a DescTable,
    models: &'a ModelSet,
    cells: Vec<Cell>,
    /// Producing call index → cell.
    call_cell: Vec<Option<usize>>,
    /// Shared cell per device-global entry.
    device_cells: Vec<Option<usize>>,
    /// Calls statically known to have produced no usable fd.
    dead_refs: Vec<bool>,
    produced_tags: BTreeSet<String>,
    tainted: bool,
    report: Report,
    depth: u32,
    fired: Vec<bool>,
    modeled_attempts: usize,
    modeled_failures: usize,
    failures: Vec<FailureCtx>,
}

impl<'a> Interp<'a> {
    fn new(table: &'a DescTable, models: &'a ModelSet) -> Self {
        Self {
            table,
            models,
            cells: Vec::new(),
            call_cell: Vec::new(),
            device_cells: vec![None; models.entries().len()],
            dead_refs: Vec::new(),
            produced_tags: BTreeSet::new(),
            tainted: false,
            report: Report::new(),
            depth: 0,
            fired: Vec::new(),
            modeled_attempts: 0,
            modeled_failures: 0,
            failures: Vec::new(),
        }
    }

    fn run(mut self, prog: &Prog) -> AbsintResult {
        self.call_cell = vec![None; prog.calls.len()];
        self.dead_refs = vec![false; prog.calls.len()];
        self.fired = vec![false; prog.calls.len()];
        for (i, call) in prog.calls.iter().enumerate() {
            if call.desc.0 >= self.table.len() {
                continue; // foreign program; lint reports unknown-desc
            }
            let desc = self.table.get(call.desc);
            match &desc.kind {
                CallKind::Hal { .. } => {
                    self.taint_all();
                }
                CallKind::Syscall(template) => self.step_syscall(i, call, template),
            }
        }
        if self.modeled_attempts > 0 && self.modeled_failures == self.modeled_attempts {
            self.report.push(
                Severity::Error,
                "absint-dead-prog",
                None,
                format!(
                    "all {} modeled driver calls provably fail; the program cannot \
                     advance any driver state machine",
                    self.modeled_attempts
                ),
            );
        }
        AbsintResult { report: self.report, depth: self.depth, fired: self.fired }
    }

    fn taint_all(&mut self) {
        self.tainted = true;
        for cell in &mut self.cells {
            cell.state = Abs::Top;
        }
    }

    fn entry(&self, cell: usize) -> &ModelEntry {
        &self.models.entries()[self.cells[cell].entry]
    }

    /// Resolves the first argument to a live tracked cell.
    /// `Err(true)` = the call provably fails with `EBADF` (stale alias or
    /// dead producer); `Err(false)` = not tracked (unmodeled interface).
    fn resolve_cell(&self, call: &Call) -> Result<usize, bool> {
        match call.args.first() {
            Some(ArgValue::Ref(t)) => {
                if let Some(&cell) = self.call_cell.get(*t).and_then(|c| c.as_ref()) {
                    if self.cells[cell].aliases.contains(t) {
                        Ok(cell)
                    } else {
                        Err(true) // fd closed: EBADF
                    }
                } else if self.dead_refs.get(*t).copied().unwrap_or(false) {
                    Err(true)
                } else {
                    Err(false)
                }
            }
            _ => Err(false),
        }
    }

    fn open_cell(&mut self, call_idx: usize, entry: usize) {
        let model = &self.models.entries()[entry].model;
        let initial = model
            .states
            .iter()
            .position(|s| *s == model.initial)
            .unwrap_or(0);
        let cell = if model.per_open {
            self.cells.push(Cell {
                entry,
                state: Abs::Known(initial),
                aliases: BTreeSet::new(),
                orphan: false,
                parent: None,
            });
            self.cells.len() - 1
        } else {
            match self.device_cells[entry] {
                Some(cell) => cell,
                None => {
                    self.cells.push(Cell {
                        entry,
                        state: Abs::Known(initial),
                        aliases: BTreeSet::new(),
                        orphan: false,
                        parent: None,
                    });
                    let cell = self.cells.len() - 1;
                    self.device_cells[entry] = Some(cell);
                    cell
                }
            }
        };
        self.cells[cell].aliases.insert(call_idx);
        self.call_cell[call_idx] = Some(cell);
        // Hidden shared state (the HCI adapter): a second live cell of
        // the same interface makes every one of them unknown.
        if model.global_backing {
            let live: Vec<usize> = self
                .cells
                .iter()
                .enumerate()
                .filter(|(_, c)| c.entry == entry && !c.aliases.is_empty())
                .map(|(i, _)| i)
                .collect();
            if live.len() > 1 {
                for i in live {
                    self.cells[i].state = Abs::Top;
                }
            }
        }
    }

    fn step_syscall(&mut self, i: usize, call: &Call, template: &SyscallTemplate) {
        match template {
            SyscallTemplate::Openat { path } => {
                if let Some(entry) = self.models.entry_for_node(path) {
                    self.open_cell(i, entry);
                }
            }
            SyscallTemplate::Socket { .. } => {
                let produced = self.table.get(call.desc).produces.clone();
                if let Some(entry) =
                    produced.and_then(|k| self.models.entry_for_produced(&k.0))
                {
                    self.open_cell(i, entry);
                }
            }
            SyscallTemplate::Dup => match self.resolve_cell(call) {
                Ok(cell) => {
                    if self.cells[cell].orphan {
                        self.taint_all();
                        return;
                    }
                    self.cells[cell].aliases.insert(i);
                    self.call_cell[i] = Some(cell);
                }
                Err(stale) => {
                    if stale {
                        self.dead_refs[i] = true;
                    }
                }
            },
            SyscallTemplate::Close => {
                if let Ok(cell) = self.resolve_cell(call) {
                    if self.cells[cell].orphan {
                        self.taint_all();
                    }
                    let target = match call.args.first() {
                        Some(ArgValue::Ref(t)) => *t,
                        _ => return,
                    };
                    self.cells[cell].aliases.remove(&target);
                    let model = &self.entry(cell).model;
                    let (clobbers, orphans) = (model.close_clobbers, model.close_orphans);
                    if clobbers {
                        self.cells[cell].state = Abs::Top;
                    }
                    if orphans {
                        for c in 0..self.cells.len() {
                            if self.cells[c].parent == Some(cell) {
                                self.cells[c].orphan = true;
                            }
                        }
                    }
                }
            }
            SyscallTemplate::Poll => {}
            SyscallTemplate::Read
            | SyscallTemplate::Write
            | SyscallTemplate::Mmap
            | SyscallTemplate::Bind
            | SyscallTemplate::Connect
            | SyscallTemplate::Listen
            | SyscallTemplate::Accept
            | SyscallTemplate::Ioctl { .. }
            | SyscallTemplate::IoctlAny => self.step_modeled_op(i, call, template),
        }
    }

    fn step_modeled_op(&mut self, i: usize, call: &Call, template: &SyscallTemplate) {
        let cell = match self.resolve_cell(call) {
            Ok(cell) => cell,
            Err(true) => {
                // Stale or dead fd: provable EBADF. Lint already warns
                // about the use-after-close; just count the dead call.
                if !self.tainted {
                    self.modeled_attempts += 1;
                    self.modeled_failures += 1;
                    self.failures.push(FailureCtx {
                        call: i,
                        entry: 0,
                        state: None,
                        aliases: BTreeSet::new(),
                    });
                }
                return;
            }
            Err(false) => return,
        };
        if self.cells[cell].orphan {
            // Bug-class: touching an accept child after its listener was
            // freed may be a use-after-free; nothing after is provable.
            self.taint_all();
            return;
        }
        if self.tainted {
            return;
        }
        let ctx = CallCtx::new(template, call);
        let entry_idx = self.cells[cell].entry;
        let model = &self.models.entries()[entry_idx].model;
        let label = self.models.entries()[entry_idx].label.clone();
        self.modeled_attempts += 1;
        let aliases = self.cells[cell].aliases.clone();
        match self.cells[cell].state {
            Abs::Known(s) => match evaluate(model, s, &ctx) {
                Verdict::Fail { op_from_state } => {
                    self.modeled_failures += 1;
                    self.failures.push(FailureCtx {
                        call: i,
                        entry: entry_idx,
                        state: Some(s),
                        aliases,
                    });
                    let state_name = &model.states[s];
                    if op_from_state {
                        self.report.push(
                            Severity::Warning,
                            "absint-guard-violation",
                            Some(i),
                            format!(
                                "{label}: {} provably fails from state {state_name:?}: \
                                 argument words violate every matching guard",
                                op_label(&ctx)
                            ),
                        );
                    } else {
                        self.report.push(
                            Severity::Warning,
                            "absint-dead-call",
                            Some(i),
                            format!(
                                "{label}: no transition for {} from state {state_name:?}; \
                                 the call provably fails",
                                op_label(&ctx)
                            ),
                        );
                    }
                }
                Verdict::Fire { target, produces, consumes, spawns } => {
                    self.claim_fire(i, cell, Some(s), target, produces, consumes, spawns, &label);
                }
                Verdict::Ambiguous { outcomes, hazard } => {
                    self.join(cell, outcomes, hazard);
                }
            },
            Abs::Top => {
                // Simulate every state; claims need unanimity.
                let verdicts: Vec<Verdict> =
                    (0..model.states.len()).map(|s| evaluate(model, s, &ctx)).collect();
                let all_fail = verdicts.iter().all(|v| matches!(v, Verdict::Fail { .. }));
                if all_fail {
                    self.modeled_failures += 1;
                    self.failures.push(FailureCtx {
                        call: i,
                        entry: entry_idx,
                        state: None,
                        aliases,
                    });
                    let op_anywhere = verdicts
                        .iter()
                        .any(|v| matches!(v, Verdict::Fail { op_from_state: true }));
                    let (code, detail) = if op_anywhere {
                        ("absint-guard-violation", "argument words violate every guard")
                    } else {
                        ("absint-dead-call", "no transition matches the call")
                    };
                    self.report.push(
                        Severity::Warning,
                        code,
                        Some(i),
                        format!("{label}: {} provably fails from every state: {detail}",
                                op_label(&ctx)),
                    );
                    return;
                }
                let fires: Vec<&Verdict> = verdicts
                    .iter()
                    .filter(|v| matches!(v, Verdict::Fire { .. }))
                    .collect();
                let targets: BTreeSet<usize> = fires
                    .iter()
                    .filter_map(|v| match v {
                        Verdict::Fire { target, .. } => Some(*target),
                        _ => None,
                    })
                    .collect();
                if fires.len() == verdicts.len() && targets.len() == 1 {
                    let target = *targets.iter().next().expect("one target");
                    let (mut produces, mut consumes, mut spawns) = (Vec::new(), Vec::new(), None);
                    for v in fires {
                        if let Verdict::Fire { produces: p, consumes: c, spawns: sp, .. } = v {
                            produces.extend(p.iter().cloned());
                            consumes.extend(c.iter().cloned());
                            spawns = spawns.or(*sp);
                        }
                    }
                    self.claim_fire(i, cell, None, target, produces, consumes, spawns, &label);
                } else {
                    let hazard = verdicts.iter().any(|v| match v {
                        Verdict::Ambiguous { hazard, .. } => *hazard,
                        _ => false,
                    });
                    if hazard {
                        self.tainted = true;
                    }
                    // Stays Top.
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn claim_fire(
        &mut self,
        i: usize,
        cell: usize,
        from: Option<usize>,
        target: usize,
        produces: Vec<String>,
        consumes: Vec<String>,
        spawns: Option<usize>,
        label: &str,
    ) {
        self.fired[i] = true;
        for tag in &consumes {
            if !self.produced_tags.contains(tag) {
                self.report.push(
                    Severity::Warning,
                    "absint-consume-before-produce",
                    Some(i),
                    format!(
                        "{label}: call consumes {tag:?} before any call produces it; \
                         it succeeds but exercises a degenerate path"
                    ),
                );
            }
        }
        for tag in produces {
            self.produced_tags.insert(tag);
        }
        // Self-loops and fires out of ⊤ add no depth: depth lower-bounds
        // the number of *state-changing* transitions.
        if from.is_some_and(|f| f != target) {
            self.depth += 1;
        }
        self.cells[cell].state = Abs::Known(target);
        if let Some(spawn_state) = spawns {
            self.cells.push(Cell {
                entry: self.cells[cell].entry,
                state: Abs::Known(spawn_state),
                aliases: BTreeSet::from([i]),
                orphan: false,
                parent: Some(cell),
            });
            self.call_cell[i] = Some(self.cells.len() - 1);
        }
    }

    fn join(&mut self, cell: usize, outcomes: BTreeSet<usize>, hazard: bool) {
        if hazard {
            self.tainted = true;
        }
        self.cells[cell].state = if outcomes.len() == 1 {
            Abs::Known(*outcomes.iter().next().expect("one outcome"))
        } else {
            Abs::Top
        };
    }
}

/// Inserts prerequisite transitions before provably-failing calls so the
/// program reaches a state its calls fire from: for the first repairable
/// failure, a shortest chain of guaranteed, hazard-free, synthesizable
/// transitions is constructed from the cell's known state to any state
/// the failing call definitely fires from. Deterministic (no randomness;
/// ties break in model and table order). Returns the number of inserted
/// calls.
fn repair_prereqs(prog: &mut Prog, table: &DescTable, models: &ModelSet) -> usize {
    let mut inserted_total = 0usize;
    while inserted_total < MAX_PREREQ_INSERTIONS {
        let mut interp = Interp::new(table, models);
        interp.call_cell = vec![None; prog.calls.len()];
        interp.dead_refs = vec![false; prog.calls.len()];
        interp.fired = vec![false; prog.calls.len()];
        for (i, call) in prog.calls.iter().enumerate() {
            if call.desc.0 >= table.len() {
                continue;
            }
            match &table.get(call.desc).kind {
                CallKind::Hal { .. } => interp.taint_all(),
                CallKind::Syscall(template) => interp.step_syscall(i, call, template),
            }
        }
        let mut progressed = false;
        for failure in &interp.failures {
            let Some(source) = failure.state else { continue };
            let call = &prog.calls[failure.call];
            let CallKind::Syscall(template) = &table.get(call.desc).kind else { continue };
            let ctx = CallCtx::new(template, call);
            let entry = &models.entries()[failure.entry];
            let model = &entry.model;
            let goals: BTreeSet<usize> = (0..model.states.len())
                .filter(|s| matches!(evaluate(model, *s, &ctx), Verdict::Fire { .. }))
                .collect();
            if goals.is_empty() {
                continue; // fails from every state: not fixable by prereqs
            }
            let Some(fd_alias) =
                failure.aliases.iter().copied().find(|a| *a < failure.call)
            else {
                continue;
            };
            let Some(path) = prereq_path(entry, model, source, &goals, table) else {
                continue;
            };
            if inserted_total + path.len() > MAX_PREREQ_INSERTIONS {
                break;
            }
            let new_calls: Vec<Call> = path
                .iter()
                .map(|(t, desc_id)| synthesize_call(*desc_id, t, table, fd_alias))
                .collect();
            insert_calls(prog, failure.call, new_calls);
            inserted_total += path.len();
            progressed = true;
            break; // re-interpret from scratch
        }
        if !progressed {
            break;
        }
    }
    inserted_total
}

/// Shortest chain of synthesizable transitions from `source` to any goal
/// state, as `(transition, desc)` pairs.
fn prereq_path<'m>(
    entry: &ModelEntry,
    model: &'m StateModel,
    source: usize,
    goals: &BTreeSet<usize>,
    table: &DescTable,
) -> Option<Vec<(&'m Transition, DescId)>> {
    let n = model.states.len();
    let mut prev: Vec<Option<(usize, &Transition, DescId)>> = vec![None; n];
    let mut visited = vec![false; n];
    visited[source] = true;
    let mut frontier = vec![source];
    while !frontier.is_empty() {
        if let Some(&goal) = goals.iter().find(|g| visited[**g]) {
            let mut chain = Vec::new();
            let mut at = goal;
            while at != source {
                let (from, t, desc) = prev[at]?;
                chain.push((t, desc));
                at = from;
            }
            chain.reverse();
            return Some(chain);
        }
        let mut next = Vec::new();
        for &a in &frontier {
            let a_name = &model.states[a];
            for t in &model.transitions {
                if t.reliability != Reliability::Guaranteed || t.hazard || t.spawns.is_some() {
                    continue;
                }
                if !t.from.is_empty() && !t.from.iter().any(|s| s == a_name) {
                    continue;
                }
                let Some(to) = &t.to else { continue };
                let Some(b) = model.states.iter().position(|s| s == to) else { continue };
                if visited[b] {
                    continue;
                }
                if t.guards.iter().any(|g| g.example().is_none()) {
                    continue;
                }
                let Some(desc) = synth_desc(entry, t, table) else { continue };
                visited[b] = true;
                prev[b] = Some((a, t, desc));
                next.push(b);
            }
        }
        frontier = next;
    }
    None
}

/// A typed description that lowers to transition `t` on `entry`'s
/// interface and whose arguments we can synthesize (first table match;
/// raw `IoctlAny` descriptions are excluded — their word mapping shifts).
fn synth_desc(entry: &ModelEntry, t: &Transition, table: &DescTable) -> Option<DescId> {
    let produced = entry.produced_kind();
    table
        .iter()
        .find(|(_, desc)| {
            let CallKind::Syscall(template) = &desc.kind else { return false };
            let op_matches = match (&t.op, template) {
                (TransOp::Ioctl(req), SyscallTemplate::Ioctl { request }) => req == request,
                (TransOp::Read, SyscallTemplate::Read)
                | (TransOp::Write, SyscallTemplate::Write)
                | (TransOp::Mmap, SyscallTemplate::Mmap)
                | (TransOp::Bind, SyscallTemplate::Bind)
                | (TransOp::Connect, SyscallTemplate::Connect)
                | (TransOp::Listen, SyscallTemplate::Listen) => true,
                _ => false,
            };
            op_matches
                && desc
                    .args
                    .iter()
                    .find_map(|a| a.ty.resource_kind())
                    .is_some_and(|k| k.accepts(&produced))
        })
        .map(|(id, _)| id)
}

/// Lints `prog` and, on errors, repairs it in place. Returns whether the
/// program may proceed to execution; `counters` records the outcome
/// (`repaired` when the rewrite cleared every error, `rejected` when the
/// program had to be discarded). Clean programs pass through untouched
/// and uncounted.
fn gate_prog(prog: &mut Prog, table: &DescTable, counters: &mut LintCounters) -> bool {
    if !lint_prog(prog, table).has_errors() {
        return true;
    }
    if let Some(fixed) = repair_prog(prog, table) {
        if !lint_prog(&fixed, table).has_errors() {
            *prog = fixed;
            counters.repaired += 1;
            return true;
        }
    }
    counters.rejected += 1;
    false
}

/// Reachability gate: passes programs whose abstract interpretation is
/// error-free; programs where every modeled driver call provably fails
/// are first repaired ([`repair_prereqs`]) and re-checked, then rejected.
/// Deterministic, so seeded campaigns stay reproducible.
fn gate_prog_static(
    prog: &mut Prog,
    table: &DescTable,
    models: &ModelSet,
    counters: &mut LintCounters,
) -> bool {
    if !absint_prog(prog, table, models).report.has_errors() {
        return true;
    }
    let inserted = repair_prereqs(prog, table, models);
    if inserted > 0 && !absint_prog(prog, table, models).report.has_errors() {
        counters.absint_repaired += 1;
        return true;
    }
    counters.absint_rejected += 1;
    false
}

// ---------------------------------------------------------------------------
// The oracle property
// ---------------------------------------------------------------------------

/// Request codes the random models and tables share.
const REQUESTS: [u32; 4] = [0x10, 0x11, 0x12, 0x13];
/// Tags transitions produce and consume.
const TAGS: [&str; 2] = ["tag:a", "tag:b"];

fn pick<'a, T>(rng: &mut StdRng, items: &'a [T]) -> &'a T {
    &items[rng.gen_range(0..items.len())]
}

fn random_guard(rng: &mut StdRng) -> WordGuard {
    let v = rng.gen_range(0..4u32);
    match rng.gen_range(0..6) {
        0 => WordGuard::Eq(v),
        // Sometimes empty (min > max): the guard has no example.
        1 => WordGuard::In(v, rng.gen_range(0..4u32)),
        2 => WordGuard::OneOf((0..rng.gen_range(0..3)).map(|_| rng.gen_range(0..4u32)).collect()),
        3 => WordGuard::MaskEq(rng.gen_range(0..4u32), v),
        4 => WordGuard::MaskNonZero(rng.gen_range(0..4u32)),
        _ => WordGuard::Any,
    }
}

/// A small random state machine: 1-4 states, often a guaranteed ioctl
/// chain through them (so prerequisite repair has paths to find), then
/// 0-5 transitions over every op, with guards, payload prefixes,
/// `may_fail`, hazards, tags and spawns, under random scope flags.
fn random_model(rng: &mut StdRng) -> StateModel {
    let states: Vec<String> = (0..rng.gen_range(1..=4)).map(|s| format!("S{s}")).collect();
    let names: Vec<&str> = states.iter().map(String::as_str).collect();
    let mut model = StateModel::new(names[0], &names);
    model.per_open = rng.gen_bool(0.6);
    model.close_clobbers = rng.gen_bool(0.3);
    model.close_orphans = rng.gen_bool(0.3);
    model.global_backing = rng.gen_bool(0.3);
    if rng.gen_bool(0.6) {
        for (k, pair) in names.windows(2).enumerate() {
            let mut t = Transition::ioctl(REQUESTS[k % REQUESTS.len()]).from(&pair[..1]).to(pair[1]);
            if rng.gen_bool(0.5) {
                t = t.guard(WordGuard::Eq(rng.gen_range(0..3u32)));
            }
            model.transitions.push(t);
        }
    }
    for _ in 0..rng.gen_range(0..=5) {
        let mut t = match rng.gen_range(0..11) {
            0..=3 => Transition::ioctl(*pick(rng, &REQUESTS)),
            4 => Transition::read(),
            5 => Transition::write(),
            6 => Transition::mmap(),
            7 => Transition::bind(),
            8 => Transition::connect(),
            9 => Transition::listen(),
            _ => Transition::accept(),
        };
        if rng.gen_bool(0.6) {
            let from: Vec<&str> = (0..rng.gen_range(1..=2)).map(|_| *pick(rng, &names)).collect();
            t = t.from(&from);
        }
        if rng.gen_bool(0.7) {
            t = t.to(pick::<&str>(rng, &names));
        }
        for _ in 0..rng.gen_range(0..3) {
            t = t.guard(random_guard(rng));
        }
        if rng.gen_bool(0.2) {
            t = t.prefix(&vec![rng.gen_range(0..3u8); rng.gen_range(1..3)]);
        }
        if rng.gen_bool(0.25) {
            t = t.may_fail();
        }
        if rng.gen_bool(0.15) {
            t = t.hazard();
        }
        if rng.gen_bool(0.2) {
            t = t.produces(pick::<&str>(rng, &TAGS));
        }
        if rng.gen_bool(0.2) {
            t = t.consumes(pick::<&str>(rng, &TAGS));
        }
        if rng.gen_bool(0.15) {
            t = t.spawns(pick::<&str>(rng, &names));
        }
        model.transitions.push(t);
    }
    model
}

/// Descriptions of every op on the interface whose handles carry `kind`:
/// typed ioctls with random word shapes, a raw `IoctlAny`, the
/// read/write/mmap/socket ops, a producing `accept` and `poll`.
fn add_interface_descs(table: &mut DescTable, name: &str, kind: &ResourceKind, rng: &mut StdRng) {
    let fd = || ArgDesc::new("fd", TypeDesc::Resource { kind: kind.clone() });
    let small = || TypeDesc::Int { min: 0, max: 3 };
    for request in REQUESTS {
        if rng.gen_bool(0.2) {
            continue;
        }
        let mut args = vec![fd()];
        for w in 0..rng.gen_range(0..3) {
            let ty = match rng.gen_range(0..3) {
                0 => small(),
                1 => TypeDesc::Choice { values: vec![0, 1, 2] },
                _ => TypeDesc::Flags { values: vec![1, 2] },
            };
            args.push(ArgDesc::new(&format!("w{w}"), ty));
        }
        if rng.gen_bool(0.5) {
            args.push(ArgDesc::new("payload", TypeDesc::Buffer { min_len: 0, max_len: 6 }));
        }
        let kind = CallKind::Syscall(SyscallTemplate::Ioctl { request });
        table.add(CallDesc::new(format!("ioctl${name}_{request:x}"), kind, args, None));
    }
    table.add(CallDesc::new(
        format!("ioctl$raw_{name}"),
        CallKind::Syscall(SyscallTemplate::IoctlAny),
        vec![
            fd(),
            ArgDesc::new("request", TypeDesc::Int { min: 0x0e, max: 0x15 }),
            ArgDesc::new("payload", TypeDesc::Buffer { min_len: 0, max_len: 6 }),
        ],
        None,
    ));
    let ops = [
        ("read", SyscallTemplate::Read, small()),
        ("write", SyscallTemplate::Write, TypeDesc::Buffer { min_len: 0, max_len: 4 }),
        ("mmap", SyscallTemplate::Mmap, small()),
        ("bind", SyscallTemplate::Bind, small()),
        ("connect", SyscallTemplate::Connect, small()),
        ("listen", SyscallTemplate::Listen, small()),
        ("poll", SyscallTemplate::Poll, TypeDesc::Flags { values: vec![1, 4] }),
    ];
    for (op, template, ty) in ops {
        let args = vec![fd(), ArgDesc::new("arg", ty)];
        table.add(CallDesc::new(format!("{op}${name}"), CallKind::Syscall(template), args, None));
    }
    let accept = CallKind::Syscall(SyscallTemplate::Accept);
    table.add(CallDesc::new(format!("accept${name}"), accept, vec![fd()], Some(kind.clone())));
}

/// 1-3 random models on devfs nodes or socket families, and the table
/// derived from them, plus an unmodeled node and a HAL method.
fn random_world(rng: &mut StdRng) -> (DescTable, ModelSet) {
    let mut table = DescTable::new();
    table.add(CallDesc::syscall_close());
    table.add(CallDesc::syscall_dup());
    let mut entries = Vec::new();
    for e in 0..rng.gen_range(1..=3) {
        let socket = rng.gen_bool(0.3);
        let entry = ModelEntry {
            label: format!("m{e}"),
            node: (!socket).then(|| format!("/dev/m{e}")),
            sock_kind: socket.then(|| format!("sock:k{e}")),
            model: random_model(rng),
        };
        let kind = entry.produced_kind();
        match &entry.node {
            Some(node) => table.add(CallDesc::syscall_open(node)),
            None => table.add(CallDesc::new(
                format!("socket$k{e}"),
                CallKind::Syscall(SyscallTemplate::Socket { domain: 31, ty: e, proto: 0 }),
                vec![],
                Some(kind.clone()),
            )),
        };
        add_interface_descs(&mut table, &format!("m{e}"), &kind, rng);
        entries.push(entry);
    }
    table.add(CallDesc::syscall_open("/dev/plain"));
    add_interface_descs(&mut table, "plain", &CallDesc::fd_kind("/dev/plain"), rng);
    table.add(CallDesc::new(
        "hal$m",
        CallKind::Hal { service: "vendor.m".into(), code: 1 },
        vec![ArgDesc::new("name", TypeDesc::Str { choices: vec!["a".into(), "b".into()] })],
        None,
    ));
    (table, ModelSet::from_entries(entries))
}

/// One random corruption: dangling, forward, self or arbitrary earlier
/// references, argument-count drift, an out-of-table description id,
/// guard-word, payload and string pokes, or a duplicated or dropped call
/// (later references are not shifted).
fn corrupt(prog: &mut Prog, table: &DescTable, rng: &mut StdRng) {
    let n = prog.calls.len();
    if n == 0 {
        return;
    }
    let i = rng.gen_range(0..n);
    match rng.gen_range(0..11) {
        0 => {
            let copy = prog.calls[i].clone();
            prog.calls.insert(rng.gen_range(0..=n), copy);
            return;
        }
        1 => {
            prog.calls.remove(i);
            return;
        }
        _ => {}
    }
    let call = &mut prog.calls[i];
    let slot = (!call.args.is_empty()).then(|| rng.gen_range(0..call.args.len()));
    let value = match rng.gen_range(0..9) {
        0 => ArgValue::Ref(n + rng.gen_range(0..3usize)),
        1 => ArgValue::Ref(rng.gen_range(i..n)),
        2 => ArgValue::Ref(rng.gen_range(0..=i)),
        3 => ArgValue::Int(*pick(rng, &[0, 1, 2, 3, 0x10, 0x11, 0x12, 0x13, 1 << 40])),
        4 => ArgValue::Bytes(vec![rng.gen_range(0..3u8); rng.gen_range(0..6)]),
        5 => ArgValue::Str("a".into()),
        6 => {
            call.desc = DescId(table.len() + rng.gen_range(0..3usize));
            return;
        }
        7 => {
            call.args.pop();
            return;
        }
        _ => {
            call.args.push(ArgValue::Int(1));
            return;
        }
    };
    if let Some(slot) = slot {
        call.args[slot] = value;
    }
}

/// Asserts the single pass and the gates agree with the reference on
/// `prog`, with and without models.
fn assert_matches_reference(prog: &Prog, table: &DescTable, models: &ModelSet) -> Result<(), String> {
    let lint = lint_prog(prog, table);
    let absint = absint_prog(prog, table, models);
    let plain = Check { malformed: lint.has_errors(), report: lint.clone(), ..Check::default() };
    prop_assert_eq!(check_prog(prog, table, None), plain, "models-free check of {:?}", prog);
    let mut report = lint;
    report.merge(absint.report.clone());
    let full = Check {
        report,
        malformed: plain.malformed,
        dead: absint.report.has_errors(),
        depth: absint.depth,
        fired: absint.fired,
    };
    prop_assert_eq!(check_prog(prog, table, Some(models)), full, "check of {:?}", prog);

    let (mut now, mut then) = (prog.clone(), prog.clone());
    prop_assert_eq!(
        super::repair_prereqs(&mut now, table, models),
        repair_prereqs(&mut then, table, models),
        "prerequisite repair of {:?}",
        prog
    );
    prop_assert_eq!(&now, &then, "prerequisite repair of {:?}", prog);

    for with_models in [false, true] {
        let (mut now, mut then) = (prog.clone(), prog.clone());
        let (mut counted_now, mut counted_then) = (LintCounters::default(), LintCounters::default());
        let (passed_now, passed_then) = if with_models {
            (
                gate_prog_static_now(&mut now, table, models, &mut counted_now),
                gate_prog(&mut then, table, &mut counted_then)
                    && gate_prog_static(&mut then, table, models, &mut counted_then),
            )
        } else {
            (gate_prog_now(&mut now, table, &mut counted_now), gate_prog(&mut then, table, &mut counted_then))
        };
        prop_assert_eq!(passed_now, passed_then, "gate (models: {}) of {:?}", with_models, prog);
        prop_assert_eq!(&now, &then, "gated program (models: {}) of {:?}", with_models, prog);
        prop_assert_eq!(counted_now, counted_then, "gate counters (models: {}) of {:?}", with_models, prog);
    }
    Ok(())
}

proptest! {
    /// The single pass and the gate behind it agree with the reference
    /// on random models and randomly corrupted programs.
    #[test]
    fn check_prog_and_gates_match_reference(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (table, models) = random_world(&mut rng);
        for _ in 0..8 {
            let mut prog = fuzzlang::gen::generate(&table, rng.gen_range(1..10), &mut rng);
            for _ in 0..rng.gen_range(0..4) {
                corrupt(&mut prog, &table, &mut rng);
            }
            assert_matches_reference(&prog, &table, &models)?;
        }
    }
}
