//! Flow-sensitive abstract interpretation of fuzzlang programs over the
//! static interface models of [`crate::model`]. The interpreter is the
//! model half of [`crate::check::check_prog`]: the single walk feeds it
//! one call at a time next to the lint.
//!
//! The interpreter tracks an abstract driver state per open file (or per
//! device, for device-global models), constant-folds known argument words
//! against transition guards, and classifies every modeled driver call as
//! *definitely fires*, *possibly fires*, or *provably fails*. Three
//! outputs feed the fuzzing loop:
//!
//! * **Diagnostics** — `absint-dead-call` / `absint-guard-violation`
//!   warnings for provably-failing calls, `absint-consume-before-produce`
//!   for ordering violations of `produces`/`consumes` tags, and an
//!   `absint-dead-prog` error when *every* modeled driver call in the
//!   program provably fails (such a program cannot advance any driver
//!   state machine and is worthless to execute).
//! * **`fired` claims** — per-call "this call definitely succeeds" bits.
//!   These are sound against the concrete broker under the fresh-boot
//!   assumption (the program runs as the first process of a freshly
//!   booted device; campaigns re-use devices, so the engine treats the
//!   gate as a heuristic for device-global models there).
//! * **Static depth** — the number of definite *state-changing*
//!   transitions, a lower bound on the dynamic depth the program reaches;
//!   the corpus uses it as seed energy.
//!
//! Soundness discipline: a claim is made only when every possibly-matching
//! transition definitely matches (all guarded words known and admitted),
//! all of them are [`Reliability::Guaranteed`], none is a hazard, and all
//! agree on the target state. Anything else joins the abstract state
//! (to ⊤ when outcomes diverge). HAL calls and possible hazards *taint*
//! the interpretation: the kernel may be wedged from that point on, so no
//! further claims or provable-failure verdicts are issued.

use crate::check::{walk, Check};
use crate::diag::{Report, Severity};
use crate::model::{ModelEntry, ModelSet};
use fuzzlang::desc::{CallKind, DescId, DescTable, SyscallTemplate};
use fuzzlang::prog::{ArgValue, Call, Prog};
use fuzzlang::types::TypeDesc;
use simkernel::driver::{Reliability, StateModel, TransOp, Transition, WordGuard};
use std::collections::BTreeSet;

/// Maximum prerequisite calls [`repair_prereqs`] will insert per program.
const MAX_PREREQ_INSERTIONS: usize = 12;

/// Abstract state of one cell.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Abs {
    /// Exactly this state (index into the model's state list).
    Known(usize),
    /// Unknown.
    Top,
}

/// One tracked open file (or device-global interface).
#[derive(Debug)]
struct Cell {
    entry: usize,
    state: Abs,
    /// Call indices whose result is a live fd for this cell.
    aliases: BTreeSet<usize>,
    /// Parent freed (accept child of a closed listener): any further use
    /// may be a use-after-free.
    orphan: bool,
    parent: Option<usize>,
}

/// Tri-state transition match.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum MatchKind {
    No,
    Possible,
    Definite,
}

/// Verdict for one modeled op from one known state.
#[derive(Debug, Clone)]
enum Verdict {
    /// Provably fails. `op_from_state` records whether a transition for
    /// this op exists from the state (guards refuted) — it selects the
    /// diagnostic code.
    Fail { op_from_state: bool },
    /// Definitely succeeds and lands in `target`.
    Fire {
        target: usize,
        produces: Vec<String>,
        consumes: Vec<String>,
        spawns: Option<usize>,
    },
    /// May or may not fire.
    Ambiguous { outcomes: BTreeSet<usize>, hazard: bool },
}

/// Lowered view of one call's arguments, mirroring the broker's arg
/// partition: first `Ref` is the fd, remaining scalars in order, first
/// byte blob is the payload.
struct CallCtx<'a> {
    template: &'a SyscallTemplate,
    /// Scalar args after the fd slot; `None` = statically unknown (a
    /// reference resolved at runtime).
    ints: Vec<Option<u64>>,
    payload: &'a [u8],
}

impl<'a> CallCtx<'a> {
    fn new(template: &'a SyscallTemplate, call: &'a Call) -> Self {
        let ints = call
            .args
            .iter()
            .skip(1)
            .filter_map(|a| match a {
                ArgValue::Int(v) => Some(Some(*v)),
                ArgValue::Ref(_) => Some(None),
                _ => None,
            })
            .collect();
        let payload = call
            .args
            .iter()
            .find_map(|a| match a {
                ArgValue::Bytes(b) => Some(b.as_slice()),
                _ => None,
            })
            .unwrap_or(&[]);
        Self { template, ints, payload }
    }

    fn int(&self, i: usize) -> Option<u64> {
        self.ints.get(i).copied().unwrap_or(Some(0))
    }

    /// The ioctl request code, when statically known.
    fn request(&self) -> Option<u32> {
        match self.template {
            SyscallTemplate::Ioctl { request } => Some(*request),
            SyscallTemplate::IoctlAny => self.int(0).map(|v| v as u32),
            _ => None,
        }
    }

    /// The scalar words preceding the payload in the driver's view of the
    /// argument buffer.
    fn scalar_words(&self) -> &[Option<u64>] {
        match self.template {
            SyscallTemplate::Ioctl { .. } => &self.ints,
            SyscallTemplate::IoctlAny => self.ints.get(1..).unwrap_or(&[]),
            _ => &[],
        }
    }

    /// Argument word `i` as the driver observes it, `None` when unknown.
    /// Mirrors the broker's lowering (length clamps, u32 truncation,
    /// zero-padding past the buffer).
    fn word_at(&self, i: usize) -> Option<u32> {
        match self.template {
            SyscallTemplate::Ioctl { .. } | SyscallTemplate::IoctlAny => {
                let scalars = self.scalar_words();
                if i < scalars.len() {
                    scalars[i].map(|v| v as u32)
                } else {
                    Some(payload_word(self.payload, i - scalars.len()))
                }
            }
            SyscallTemplate::Read => match i {
                0 => self.int(0).map(|v| v.min(1 << 16) as u32),
                _ => Some(0),
            },
            SyscallTemplate::Write => Some(payload_word(self.payload, i)),
            SyscallTemplate::Mmap => match i {
                0 => self.int(0).map(|v| v.min(1 << 24) as u32),
                1 => self.int(1).map(|v| v as u32),
                _ => Some(0),
            },
            // The address stays 64-bit in the kernel ABI; a value above
            // u32 range cannot be compared against a word guard.
            SyscallTemplate::Bind | SyscallTemplate::Connect => match i {
                0 => self.int(0).filter(|v| *v <= u64::from(u32::MAX)).map(|v| v as u32),
                _ => Some(0),
            },
            SyscallTemplate::Listen => match i {
                0 => self.int(0).map(|v| v as u32),
                _ => Some(0),
            },
            _ => Some(0),
        }
    }

    /// Whether the transition's required payload prefix matches:
    /// `Definite` / `No` when decidable, `Possible` when an unknown word
    /// overlaps the prefix.
    fn prefix_match(&self, prefix: &[u8]) -> MatchKind {
        match self.template {
            SyscallTemplate::Write => {
                if self.payload.starts_with(prefix) {
                    MatchKind::Definite
                } else {
                    MatchKind::No
                }
            }
            SyscallTemplate::Ioctl { .. } | SyscallTemplate::IoctlAny => {
                let scalars = self.scalar_words();
                let mut verdict = MatchKind::Definite;
                for (off, want) in prefix.iter().enumerate() {
                    let got = if off / 4 < scalars.len() {
                        scalars[off / 4].map(|v| (v as u32).to_le_bytes()[off % 4])
                    } else {
                        let p = off - scalars.len() * 4;
                        Some(self.payload.get(p).copied().unwrap_or(0))
                    };
                    match got {
                        Some(b) if b == *want => {}
                        Some(_) => return MatchKind::No,
                        None => verdict = MatchKind::Possible,
                    }
                }
                verdict
            }
            _ => MatchKind::Possible,
        }
    }
}

fn payload_word(payload: &[u8], i: usize) -> u32 {
    let off = i * 4;
    let mut buf = [0u8; 4];
    for (j, slot) in buf.iter_mut().enumerate() {
        *slot = payload.get(off + j).copied().unwrap_or(0);
    }
    u32::from_le_bytes(buf)
}

/// Whether a non-ioctl transition op is keyed on `template`.
fn same_op(op: &TransOp, template: &SyscallTemplate) -> bool {
    matches!(
        (op, template),
        (TransOp::Read, SyscallTemplate::Read)
            | (TransOp::Write, SyscallTemplate::Write)
            | (TransOp::Mmap, SyscallTemplate::Mmap)
            | (TransOp::Bind, SyscallTemplate::Bind)
            | (TransOp::Connect, SyscallTemplate::Connect)
            | (TransOp::Listen, SyscallTemplate::Listen)
            | (TransOp::Accept, SyscallTemplate::Accept)
    )
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
        (op, template) if same_op(op, template) => MatchKind::Definite,
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
            let op_only = match &t.op {
                TransOp::Ioctl(req) => ctx.request() == Some(*req),
                op => same_op(op, ctx.template),
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

/// Evaluation context of one provably-failing call, for prerequisite
/// repair.
struct FailureCtx {
    call: usize,
    entry: usize,
    /// Known source state, when the failure is state/guard-based (stale
    /// fd failures carry `None` and are not repairable here).
    state: Option<usize>,
    /// Live aliases of the cell before this call, for fd synthesis.
    aliases: BTreeSet<usize>,
}

/// The abstract-interpretation half of [`crate::check::check_prog`]: the
/// walk feeds it one call at a time.
pub(crate) struct Interp<'a> {
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
    /// An interpreter for a program of `n` calls.
    pub(crate) fn new(table: &'a DescTable, models: &'a ModelSet, n: usize) -> Self {
        Self {
            table,
            models,
            cells: Vec::new(),
            call_cell: vec![None; n],
            device_cells: vec![None; models.entries().len()],
            dead_refs: vec![false; n],
            produced_tags: BTreeSet::new(),
            tainted: false,
            report: Report::new(),
            depth: 0,
            fired: vec![false; n],
            modeled_attempts: 0,
            modeled_failures: 0,
            failures: Vec::new(),
        }
    }

    /// Interprets call `i`.
    pub(crate) fn step(&mut self, i: usize, call: &Call) {
        if call.desc.0 >= self.table.len() {
            return; // foreign program; lint reports unknown-desc
        }
        match &self.table.get(call.desc).kind {
            CallKind::Hal { .. } => self.taint_all(),
            CallKind::Syscall(template) => self.step_syscall(i, call, template),
        }
    }

    /// Closes the interpretation into `check`: the model verdict and its
    /// findings (after the lint's), the depth and the claims.
    pub(crate) fn finish(mut self, check: &mut Check) {
        check.dead = self.modeled_attempts > 0 && self.modeled_failures == self.modeled_attempts;
        if check.dead {
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
        check.report.merge(self.report);
        check.depth = self.depth;
        check.fired = self.fired;
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
        let initial = model.states.iter().position(|s| *s == model.initial).unwrap_or(0);
        // Device-global models share one cell per interface.
        let cell = match self.device_cells[entry].filter(|_| !model.per_open) {
            Some(cell) => cell,
            None => {
                self.cells.push(Cell {
                    entry,
                    state: Abs::Known(initial),
                    aliases: BTreeSet::new(),
                    orphan: false,
                    parent: None,
                });
                self.cells.len() - 1
            }
        };
        if !model.per_open {
            self.device_cells[entry] = Some(cell);
        }
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
                    self.fail(i, 0, None, BTreeSet::new());
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
                    self.fail(i, entry_idx, Some(s), aliases);
                    let (op, state_name) = (op_label(&ctx), &model.states[s]);
                    let (code, message) = if op_from_state {
                        ("absint-guard-violation", format!(
                            "{label}: {op} provably fails from state {state_name:?}: \
                             argument words violate every matching guard"
                        ))
                    } else {
                        ("absint-dead-call", format!(
                            "{label}: no transition for {op} from state {state_name:?}; \
                             the call provably fails"
                        ))
                    };
                    self.report.push(Severity::Warning, code, Some(i), message);
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
                if verdicts.iter().all(|v| matches!(v, Verdict::Fail { .. })) {
                    self.fail(i, entry_idx, None, aliases);
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
                let targets: BTreeSet<usize> = verdicts
                    .iter()
                    .filter_map(|v| match v {
                        Verdict::Fire { target, .. } => Some(*target),
                        _ => None,
                    })
                    .collect();
                let all_fire = verdicts.iter().all(|v| matches!(v, Verdict::Fire { .. }));
                if all_fire && targets.len() == 1 {
                    let target = *targets.iter().next().expect("one target");
                    let (mut produces, mut consumes, mut spawns) = (Vec::new(), Vec::new(), None);
                    for v in verdicts {
                        if let Verdict::Fire { produces: p, consumes: c, spawns: sp, .. } = v {
                            produces.extend(p);
                            consumes.extend(c);
                            spawns = spawns.or(sp);
                        }
                    }
                    self.claim_fire(i, cell, None, target, produces, consumes, spawns, &label);
                } else if verdicts.iter().any(|v| matches!(v, Verdict::Ambiguous { hazard: true, .. })) {
                    self.tainted = true; // stays Top
                }
            }
        }
    }

    /// Records provably-failing call `call` for the dead-program verdict
    /// and prerequisite repair.
    fn fail(&mut self, call: usize, entry: usize, state: Option<usize>, aliases: BTreeSet<usize>) {
        self.modeled_failures += 1;
        self.failures.push(FailureCtx { call, entry, state, aliases });
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

fn op_label(ctx: &CallCtx<'_>) -> String {
    match ctx.template {
        SyscallTemplate::Ioctl { request } => format!("ioctl {request:#010x}"),
        SyscallTemplate::IoctlAny => match ctx.request() {
            Some(r) => format!("ioctl {r:#010x}"),
            None => "ioctl (unknown request)".into(),
        },
        SyscallTemplate::Read => "read".into(),
        SyscallTemplate::Write => "write".into(),
        SyscallTemplate::Mmap => "mmap".into(),
        SyscallTemplate::Bind => "bind".into(),
        SyscallTemplate::Connect => "connect".into(),
        SyscallTemplate::Listen => "listen".into(),
        SyscallTemplate::Accept => "accept".into(),
        _ => "call".into(),
    }
}

// ---------------------------------------------------------------------------
// Prerequisite repair
// ---------------------------------------------------------------------------

/// Inserts prerequisite transitions before provably-failing calls so the
/// program reaches a state its calls fire from: for the first repairable
/// failure, a shortest chain of guaranteed, hazard-free, synthesizable
/// transitions is constructed from the cell's known state to any state
/// the failing call definitely fires from. Deterministic (no randomness;
/// ties break in model and table order). Returns the number of inserted
/// calls.
pub fn repair_prereqs(prog: &mut Prog, table: &DescTable, models: &ModelSet) -> usize {
    let mut inserted_total = 0usize;
    while inserted_total < MAX_PREREQ_INSERTIONS {
        let mut interp = Interp::new(table, models, prog.calls.len());
        walk(prog, table, None, Some(&mut interp));
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
                (TransOp::Accept, _) => false,
                (op, template) => same_op(op, template),
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

/// Builds one prerequisite call: the fd slot references `fd_alias`,
/// scalar words take the transition's guard examples (shape defaults
/// otherwise), and byte buffers carry the required payload prefix.
fn synthesize_call(desc_id: DescId, t: &Transition, table: &DescTable, fd_alias: usize) -> Call {
    let desc = table.get(desc_id);
    let mut word = 0usize;
    let args = desc
        .args
        .iter()
        .map(|a| match &a.ty {
            TypeDesc::Resource { .. } => ArgValue::Ref(fd_alias),
            TypeDesc::Buffer { min_len, .. } => {
                let mut data = t.payload_prefix.clone().unwrap_or_default();
                if data.len() < *min_len {
                    data.resize(*min_len, 0);
                }
                ArgValue::Bytes(data)
            }
            TypeDesc::Str { choices } => {
                ArgValue::Str(choices.first().cloned().unwrap_or_default())
            }
            scalar => {
                let guard_example =
                    t.guards.get(word).and_then(WordGuard::example).map(u64::from);
                word += 1;
                let value = guard_example.unwrap_or(match scalar {
                    TypeDesc::Int { min, .. } => *min,
                    TypeDesc::Choice { values } | TypeDesc::Flags { values } => {
                        values.first().copied().unwrap_or(0)
                    }
                    _ => 0,
                });
                ArgValue::Int(value)
            }
        })
        .collect();
    Call { desc: desc_id, args }
}

/// Splices `new_calls` (whose `Ref`s are absolute indices `< at`) in
/// front of call `at`, shifting later references.
fn insert_calls(prog: &mut Prog, at: usize, new_calls: Vec<Call>) {
    let shift = new_calls.len();
    for call in &mut prog.calls[at..] {
        for arg in &mut call.args {
            if let ArgValue::Ref(t) = arg {
                if *t >= at {
                    *t += shift;
                }
            }
        }
    }
    prog.calls.splice(at..at, new_calls);
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{check_prog, gate_prog_static};
    use crate::counters::LintCounters;
    use fuzzlang::desc::{ArgDesc, CallDesc};
    use simkernel::driver::Transition as T;

    const T_ON: u32 = 0x10;
    const T_USE: u32 = 0x11;
    const T_OFF: u32 = 0x12;
    const T_RISKY: u32 = 0x13;

    /// Off →(T_ON =1)→ On; T_USE self-loops on On and produces a tag;
    /// T_OFF returns to Off; T_RISKY is a hazard reachable from On.
    fn toy_model() -> StateModel {
        StateModel::new("Off", &["Off", "On"]).per_open().with(vec![
            T::ioctl(T_ON).guard(WordGuard::Eq(1)).from(&["Off"]).to("On"),
            T::ioctl(T_USE).from(&["On"]).produces("toy:token"),
            T::ioctl(T_OFF).from(&["On"]).to("Off"),
            T::ioctl(T_RISKY).from(&["On"]).may_fail().hazard(),
        ])
    }

    fn toy_models() -> ModelSet {
        ModelSet::from_entries(vec![ModelEntry {
            label: "toy".into(),
            node: Some("/dev/toy".into()),
            sock_kind: None,
            model: toy_model(),
        }])
    }

    fn toy_table() -> DescTable {
        let mut t = DescTable::new();
        t.add(CallDesc::syscall_open("/dev/toy")); // 0
        t.add(CallDesc::syscall_close()); // 1
        t.add(CallDesc::syscall_dup()); // 2
        for (name, req) in
            [("ioctl$T_ON", T_ON), ("ioctl$T_USE", T_USE), ("ioctl$T_OFF", T_OFF), ("ioctl$T_RISKY", T_RISKY)]
        {
            t.add(CallDesc::new(
                name,
                CallKind::Syscall(SyscallTemplate::Ioctl { request: req }),
                vec![
                    ArgDesc::new("fd", TypeDesc::Resource { kind: "fd:/dev/toy".into() }),
                    ArgDesc::new("v", TypeDesc::Int { min: 0, max: 10 }),
                ],
                None,
            ));
        }
        t
    }

    fn prog(table: &DescTable, lines: &[(&str, Vec<ArgValue>)]) -> Prog {
        Prog::from_named(table, lines).expect("known calls")
    }

    #[test]
    fn happy_chain_fires_and_counts_depth() {
        let (table, models) = (toy_table(), toy_models());
        let p = prog(&table, &[
            ("openat$/dev/toy", vec![]),
            ("ioctl$T_ON", vec![ArgValue::Ref(0), ArgValue::Int(1)]),
            ("ioctl$T_USE", vec![ArgValue::Ref(0), ArgValue::Int(0)]),
        ]);
        let r = check_prog(&p, &table, Some(&models));
        assert!(r.report.is_clean(), "{:?}", r.report);
        assert_eq!(r.fired, vec![false, true, true]);
        assert_eq!(r.depth, 1, "only the Off→On transition changes state");
    }

    #[test]
    fn use_without_prereq_is_dead_call_and_dead_prog() {
        let (table, models) = (toy_table(), toy_models());
        let p = prog(&table, &[
            ("openat$/dev/toy", vec![]),
            ("ioctl$T_USE", vec![ArgValue::Ref(0), ArgValue::Int(0)]),
        ]);
        let r = check_prog(&p, &table, Some(&models));
        assert!(r.report.diagnostics.iter().any(|d| d.code == "absint-dead-call"));
        assert!(r.report.diagnostics.iter().any(|d| d.code == "absint-dead-prog"));
        assert!(r.report.has_errors());
        assert_eq!(r.fired, vec![false, false]);
        assert_eq!(r.depth, 0);
    }

    #[test]
    fn guard_violation_is_distinguished_from_dead_call() {
        let (table, models) = (toy_table(), toy_models());
        let p = prog(&table, &[
            ("openat$/dev/toy", vec![]),
            ("ioctl$T_ON", vec![ArgValue::Ref(0), ArgValue::Int(5)]),
        ]);
        let r = check_prog(&p, &table, Some(&models));
        assert!(r.report.diagnostics.iter().any(|d| d.code == "absint-guard-violation"));
    }

    #[test]
    fn stale_fd_calls_provably_fail() {
        let (table, models) = (toy_table(), toy_models());
        let p = prog(&table, &[
            ("openat$/dev/toy", vec![]),
            ("close", vec![ArgValue::Ref(0)]),
            ("ioctl$T_ON", vec![ArgValue::Ref(0), ArgValue::Int(1)]),
        ]);
        let r = check_prog(&p, &table, Some(&models));
        assert_eq!(r.fired, vec![false, false, false]);
        assert!(r.report.diagnostics.iter().any(|d| d.code == "absint-dead-prog"));
    }

    #[test]
    fn dup_alias_keeps_cell_alive_after_original_close() {
        let (table, models) = (toy_table(), toy_models());
        let p = prog(&table, &[
            ("openat$/dev/toy", vec![]),
            ("dup", vec![ArgValue::Ref(0)]),
            ("close", vec![ArgValue::Ref(0)]),
            ("ioctl$T_ON", vec![ArgValue::Ref(1), ArgValue::Int(1)]),
        ]);
        let r = check_prog(&p, &table, Some(&models));
        // The lint flags `dup`'s generic fd as a bad producer; the
        // interpreter itself has nothing to say.
        assert!(r.report.diagnostics.iter().all(|d| d.code == "bad-producer"), "{:?}", r.report);
        assert!(r.fired[3]);
        assert_eq!(r.depth, 1);
    }

    #[test]
    fn hazard_taints_and_blocks_later_claims() {
        let (table, models) = (toy_table(), toy_models());
        let p = prog(&table, &[
            ("openat$/dev/toy", vec![]),
            ("ioctl$T_ON", vec![ArgValue::Ref(0), ArgValue::Int(1)]),
            ("ioctl$T_RISKY", vec![ArgValue::Ref(0), ArgValue::Int(0)]),
            ("ioctl$T_USE", vec![ArgValue::Ref(0), ArgValue::Int(0)]),
        ]);
        let r = check_prog(&p, &table, Some(&models));
        assert!(r.fired[1]);
        assert!(!r.fired[2], "hazardous call is never claimed");
        assert!(!r.fired[3], "claims stop after a possible kernel wedge");
        assert_eq!(r.depth, 1);
    }

    #[test]
    fn unknown_words_join_instead_of_claiming() {
        let (table, models) = (toy_table(), toy_models());
        // T_ON's word comes from a runtime value (a ref): the state joins
        // {Off, On} → ⊤, and the following T_USE neither fires nor fails.
        let p = prog(&table, &[
            ("openat$/dev/toy", vec![]),
            ("openat$/dev/toy", vec![]),
            ("ioctl$T_ON", vec![ArgValue::Ref(0), ArgValue::Ref(1)]),
            ("ioctl$T_USE", vec![ArgValue::Ref(0), ArgValue::Int(0)]),
        ]);
        let r = check_prog(&p, &table, Some(&models));
        assert_eq!(r.fired, vec![false, false, false, false]);
        assert!(!r.dead, "possible success is not an error: {:?}", r.report);
        assert_eq!(r.depth, 0);
    }

    #[test]
    fn top_state_claims_keep_the_first_spawn() {
        // From ⊤ both states accept into On, spawning children in
        // different states: the claim keeps the first in state order.
        let model = StateModel::new("Off", &["Off", "On"]).per_open().with(vec![
            T::ioctl(T_ON).guard(WordGuard::Eq(1)).from(&["Off"]).to("On"),
            T::accept().from(&["Off"]).to("On").spawns("Off"),
            T::accept().from(&["On"]).to("On").spawns("On"),
            T::ioctl(T_USE).from(&["On"]),
        ]);
        let models = ModelSet::from_entries(vec![ModelEntry {
            label: "toy".into(),
            node: Some("/dev/toy".into()),
            sock_kind: None,
            model,
        }]);
        let mut table = toy_table();
        table.add(CallDesc::new(
            "accept$toy",
            CallKind::Syscall(SyscallTemplate::Accept),
            vec![ArgDesc::new("fd", TypeDesc::Resource { kind: "fd:/dev/toy".into() })],
            Some(CallDesc::fd_kind("/dev/toy")),
        ));
        let p = prog(&table, &[
            ("openat$/dev/toy", vec![]),
            ("openat$/dev/toy", vec![]),
            ("ioctl$T_ON", vec![ArgValue::Ref(0), ArgValue::Ref(1)]), // unknown word: ⊤
            ("accept$toy", vec![ArgValue::Ref(0)]),
            ("ioctl$T_USE", vec![ArgValue::Ref(3), ArgValue::Int(0)]),
        ]);
        let r = check_prog(&p, &table, Some(&models));
        assert_eq!(r.fired, vec![false, false, false, true, false]);
        let absint: Vec<_> =
            r.report.diagnostics.iter().filter(|d| d.code.starts_with("absint-")).map(|d| (d.code, d.call)).collect();
        assert_eq!(absint, vec![("absint-dead-call", Some(4))], "the child starts in Off");
    }

    #[test]
    fn consume_before_produce_warns_but_still_fires() {
        let model = StateModel::new("S", &["S"]).per_open().with(vec![
            T::ioctl(T_USE).consumes("toy:token"),
        ]);
        let models = ModelSet::from_entries(vec![ModelEntry {
            label: "toy".into(),
            node: Some("/dev/toy".into()),
            sock_kind: None,
            model,
        }]);
        let table = toy_table();
        let p = prog(&table, &[
            ("openat$/dev/toy", vec![]),
            ("ioctl$T_USE", vec![ArgValue::Ref(0), ArgValue::Int(0)]),
        ]);
        let r = check_prog(&p, &table, Some(&models));
        assert!(r.fired[1], "consumption is advisory; success is still guaranteed");
        assert!(r
            .report
            .diagnostics
            .iter()
            .any(|d| d.code == "absint-consume-before-produce"));
    }

    #[test]
    fn repair_inserts_missing_prerequisite() {
        let (table, models) = (toy_table(), toy_models());
        let mut p = prog(&table, &[
            ("openat$/dev/toy", vec![]),
            ("ioctl$T_USE", vec![ArgValue::Ref(0), ArgValue::Int(0)]),
        ]);
        let inserted = repair_prereqs(&mut p, &table, &models);
        assert_eq!(inserted, 1);
        assert_eq!(p.len(), 3);
        assert_eq!(p.validate(&table), Ok(()));
        let r = check_prog(&p, &table, Some(&models));
        assert!(r.report.is_clean(), "{:?}", r.report);
        assert_eq!(r.fired, vec![false, true, true]);
        // The synthesized T_ON carries the guard's example value.
        assert_eq!(p.calls[1].args[1], ArgValue::Int(1));
    }

    #[test]
    fn repair_is_deterministic_and_idempotent_on_clean_programs() {
        let (table, models) = (toy_table(), toy_models());
        let base = prog(&table, &[
            ("openat$/dev/toy", vec![]),
            ("ioctl$T_USE", vec![ArgValue::Ref(0), ArgValue::Int(0)]),
        ]);
        let mut a = base.clone();
        let mut b = base.clone();
        repair_prereqs(&mut a, &table, &models);
        repair_prereqs(&mut b, &table, &models);
        assert_eq!(a, b);
        let snapshot = a.clone();
        assert_eq!(repair_prereqs(&mut a, &table, &models), 0);
        assert_eq!(a, snapshot);
    }

    #[test]
    fn gate_repairs_then_rejects_unfixable() {
        let (table, models) = (toy_table(), toy_models());
        let mut counters = LintCounters::default();
        let mut fixable = prog(&table, &[
            ("openat$/dev/toy", vec![]),
            ("ioctl$T_USE", vec![ArgValue::Ref(0), ArgValue::Int(0)]),
        ]);
        assert!(gate_prog_static(&mut fixable, &table, &models, &mut counters));
        assert_eq!(counters.absint_repaired, 1);
        // A guard violation from every state has no prerequisite fix.
        let mut hopeless = prog(&table, &[
            ("openat$/dev/toy", vec![]),
            ("ioctl$T_ON", vec![ArgValue::Ref(0), ArgValue::Int(7)]),
        ]);
        assert!(!gate_prog_static(&mut hopeless, &table, &models, &mut counters));
        assert_eq!(counters.absint_rejected, 1);
    }

    #[test]
    fn result_is_reference_equal_for_identical_programs() {
        let (table, models) = (toy_table(), toy_models());
        let p = prog(&table, &[
            ("openat$/dev/toy", vec![]),
            ("ioctl$T_ON", vec![ArgValue::Ref(0), ArgValue::Int(1)]),
        ]);
        assert_eq!(check_prog(&p, &table, Some(&models)), check_prog(&p, &table, Some(&models)));
    }
}
