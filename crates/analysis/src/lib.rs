//! # droidfuzz-analysis — static analysis for programs and engine state
//!
//! DroidFuzz's relational payload generator (§IV-C) only pays off when
//! every program it executes is semantically well-formed: resource `Ref`s
//! must point at earlier producers of the right kind, argument values
//! should stay inside their described ranges, and the relation graph must
//! keep the Eq. 1 invariant (in-weights of every vertex summing to ≤ 1)
//! or weighted sampling silently degrades. This crate is the pass that
//! checks all of that *before* execution:
//!
//! * [`check`] — the one pass over a program ([`check_prog`]: the lint
//!   and, given state models, the abstract interpreter, call by call)
//!   and the one gate behind it ([`gate_prog`], [`gate_prog_static`]).
//! * [`lint`] — the typed def-use / resource-lifetime rules over
//!   [`fuzzlang::prog::Prog`]: structural defects (dangling or forward
//!   references, wrong producer kinds, argument-class mismatches) are
//!   [`Severity::Error`]s; semantic drift (out-of-range ints, unknown
//!   flag bits, use-after-close) is a [`Severity::Warning`]; stylistic
//!   observations (dead producer calls, specializable raw ioctls per the
//!   §IV-D lookup table) are [`Severity::Info`].
//! * [`repair`] — a deterministic auto-repair pass that rewrites fixable
//!   errors instead of discarding the program: dangling references are
//!   re-pointed at the nearest earlier producer and missing producers are
//!   inserted, the same machinery §IV-C uses for unresolved resource
//!   arguments. Repair consumes no randomness, so gating it into a
//!   seeded engine preserves determinism.
//! * [`audit`] — a second analyzer over *engine state* in its persistent
//!   text forms: relation-graph exports (Eq. 1 in-weight sums, decay
//!   bounds, orphan vertices), corpus exports, and fleet snapshots.
//! * [`model`] — the static interface models: every state machine a
//!   booted device self-describes ([`model::ModelSet::for_kernel`]), a
//!   structural auditor over them (`model-invalid`,
//!   `model-unreachable-state`, `model-dead-transition`,
//!   `model-nondeterministic`), and the `produces`/`consumes` cross-driver
//!   pairs used to seed the relation graph before the first execution.
//! * [`absint`] — a flow-sensitive abstract interpreter that runs
//!   programs over those models inside [`check_prog`]: per-call
//!   *definitely-fires* / *provably-fails* verdicts (`absint-dead-call`,
//!   `absint-guard-violation`, `absint-consume-before-produce`,
//!   `absint-dead-prog`), a static depth score the corpus uses as seed
//!   energy, and a deterministic prerequisite-insertion repair
//!   ([`repair_prereqs`]) behind the reachability half of
//!   [`gate_prog_static`].
//! * [`counters`] — the counter table: the fault, lint, store and net
//!   counter families, each declared once with its section name, line
//!   keyword and keys, plus the snapshot, journal and wire text forms
//!   derived from that declaration.
//!
//! The crate depends only on `fuzzlang` and `simkernel` (for the driver
//! model types), so the fuzzer core, the bench harness, and the
//! `droidfuzz-lint` CLI can all gate on it without dependency cycles.

pub mod absint;
pub mod audit;
pub mod check;
pub mod counters;
pub mod diag;
pub mod lint;
pub mod model;
pub mod repair;

pub use absint::repair_prereqs;
pub use audit::{audit_corpus, audit_relations, audit_snapshot};
pub use check::{check_prog, gate_prog, gate_prog_static, Check};
pub use counters::{
    CounterFamily, CounterRecord, CounterTable, FaultCounters, LintCounters, NetCounters,
    StoreCounters,
};
pub use diag::{Diagnostic, Report, Severity};
pub use model::{ModelEntry, ModelSet};
pub use repair::repair_prog;
