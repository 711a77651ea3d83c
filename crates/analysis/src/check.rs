//! The static check — one pass over a program — and the one gate behind
//! it. [`check_prog`] feeds each call to the lint ([`crate::lint`]) and,
//! with models, to the abstract interpreter ([`crate::absint`]). The gate
//! repairs structure first ([`repair_prog`]), then, with models,
//! reachability ([`repair_prereqs`]), checking again after each repair.
//! It consumes no randomness, so seeded campaigns replay identically.

use crate::absint::{repair_prereqs, Interp};
use crate::counters::LintCounters;
use crate::diag::Report;
use crate::lint::Lint;
use crate::model::ModelSet;
use crate::repair::repair_prog;
use fuzzlang::desc::DescTable;
use fuzzlang::prog::Prog;

/// Outcome of [`check_prog`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Check {
    /// The lint findings in call order, then (with models) the abstract
    /// interpreter's in call order.
    pub report: Report,
    /// Whether the lint found an `Error`: the program is structurally
    /// broken.
    pub malformed: bool,
    /// With models: whether every modeled driver call provably fails
    /// (`absint-dead-prog`).
    pub dead: bool,
    /// With models: definite state-changing transitions, a lower bound on
    /// the dynamic depth the program reaches on a fresh device.
    pub depth: u32,
    /// With models: `fired[i]` means call `i` definitely succeeds. Empty
    /// without models.
    pub fired: Vec<bool>,
}

/// Checks `prog` against `table` and, when given, the static `models`, in
/// one pass over its calls. Never panics, whatever the program holds.
pub fn check_prog(prog: &Prog, table: &DescTable, models: Option<&ModelSet>) -> Check {
    let mut lint = Lint::new(prog.calls.len());
    let mut interp = models.map(|models| Interp::new(table, models, prog.calls.len()));
    walk(prog, table, Some(&mut lint), interp.as_mut());
    let report = lint.finish(prog, table);
    let mut check = Check { malformed: report.has_errors(), report, ..Check::default() };
    if let Some(interp) = interp {
        interp.finish(&mut check);
    }
    check
}

/// The one walk over a program: each call goes to the lint and to the
/// interpreter, whichever are given. Prerequisite repair walks with the
/// interpreter alone.
pub(crate) fn walk(prog: &Prog, table: &DescTable, mut lint: Option<&mut Lint>, mut interp: Option<&mut Interp>) {
    for (i, call) in prog.calls.iter().enumerate() {
        if let Some(lint) = lint.as_deref_mut() {
            lint.step(prog, table, i);
        }
        if let Some(interp) = interp.as_deref_mut() {
            interp.step(i, call);
        }
    }
}

/// Lints `prog` and, on errors, repairs it in place. Returns whether the
/// program may proceed to execution; `counters` records the outcome
/// (`repaired` when the rewrite cleared every error, `rejected` when the
/// program had to be discarded). Clean programs pass through untouched
/// and uncounted.
pub fn gate_prog(prog: &mut Prog, table: &DescTable, counters: &mut LintCounters) -> bool {
    gate(prog, table, None, counters)
}

/// The DroidFuzz-S gate: [`gate_prog`], then the reachability gate over
/// `models`. A program where every modeled driver call provably fails is
/// repaired by [`repair_prereqs`] and checked again (`absint_repaired`),
/// or rejected (`absint_rejected`).
pub fn gate_prog_static(
    prog: &mut Prog,
    table: &DescTable,
    models: &ModelSet,
    counters: &mut LintCounters,
) -> bool {
    gate(prog, table, Some(models), counters)
}

fn gate(prog: &mut Prog, table: &DescTable, models: Option<&ModelSet>, counters: &mut LintCounters) -> bool {
    let mut check = check_prog(prog, table, models);
    if check.malformed {
        match repair_prog(prog, table).map(|fixed| (check_prog(&fixed, table, models), fixed)) {
            Some((recheck, fixed)) if !recheck.malformed => {
                *prog = fixed;
                counters.repaired += 1;
                check = recheck;
            }
            _ => {
                counters.rejected += 1;
                return false;
            }
        }
    }
    let Some(models) = models else { return true };
    if !check.dead {
        return true;
    }
    let rescued = repair_prereqs(prog, table, models) > 0 && !check_prog(prog, table, Some(models)).dead;
    if rescued {
        counters.absint_repaired += 1;
    } else {
        counters.absint_rejected += 1;
    }
    rescued
}
