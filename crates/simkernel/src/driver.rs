//! The character-driver framework: the trait vendor drivers implement, the
//! execution context handed to them, and the self-description metadata the
//! fuzzer turns into syscall descriptions (standing in for syzkaller's
//! hand-written syzlang files, which DroidFuzz borrows).

use crate::coverage::{block_for, CoverageMap, KcovBuffer};
use crate::errno::Errno;
use crate::report::{BugKind, BugReport, BugSink, Component};

/// Loop budget charged by [`DriverCtx::spin`]; exceeding it fires the
/// soft-lockup watchdog, modelling `watchdog: BUG: soft lockup`.
pub const WATCHDOG_BUDGET: u64 = 10_000;

/// Execution context passed to driver entry points.
///
/// Carries the coverage recorders, the bug sink, and the watchdog budget for
/// this syscall. Drivers report state fingerprints through [`hit`], raise
/// injected defects through the `warn`/`kasan_*`/`bug_msg` helpers, and
/// charge loop iterations through [`spin`].
///
/// [`hit`]: DriverCtx::hit
/// [`spin`]: DriverCtx::spin
#[derive(Debug)]
pub struct DriverCtx<'a> {
    /// Coverage-region base of the driver being executed.
    base: u64,
    /// Short driver name for watchdog reports.
    driver: &'a str,
    kcov: Option<&'a mut KcovBuffer>,
    global: &'a mut CoverageMap,
    bugs: &'a mut BugSink,
    budget: u64,
    /// Identity of the open file this call arrived through; lets drivers
    /// keep per-open state.
    pub open_id: u64,
}

impl<'a> DriverCtx<'a> {
    /// Builds a context. Used by the kernel dispatcher and by tests that
    /// poke drivers directly.
    pub fn new(
        base: u64,
        driver: &'a str,
        kcov: Option<&'a mut KcovBuffer>,
        global: &'a mut CoverageMap,
        bugs: &'a mut BugSink,
        open_id: u64,
    ) -> Self {
        Self {
            base,
            driver,
            kcov,
            global,
            bugs,
            budget: WATCHDOG_BUDGET,
            open_id,
        }
    }

    /// Records the basic block identified by the state fingerprint `parts`
    /// (operation code, state-machine fields, branch tags, …).
    pub fn hit(&mut self, parts: &[u64]) {
        self.hit_raw(block_for(self.base, parts));
    }

    /// Records a *path* of `weight` related blocks for the state
    /// fingerprint `parts`. Deep, state-gated driver paths execute many
    /// basic blocks; shallow queries and error returns execute few — this
    /// is what makes kernel coverage reward stateful exploration over
    /// argument spraying.
    pub fn hit_path(&mut self, weight: u64, parts: &[u64]) {
        // Fingerprints are short (opcode + a few state fields); build them
        // in a stack buffer so the per-block hot loop never touches the
        // heap. The spill path keeps arbitrary lengths correct.
        let mut stack = [0u64; 16];
        let mut heap;
        let fp: &mut [u64] = if parts.len() < stack.len() {
            &mut stack[..parts.len() + 1]
        } else {
            heap = vec![0u64; parts.len() + 1];
            &mut heap
        };
        fp[..parts.len()].copy_from_slice(parts);
        for i in 0..weight.max(1) {
            fp[parts.len()] = 0xBB00 + i;
            self.hit_raw(block_for(self.base, fp));
        }
    }

    /// Records a precomputed block (for stacks like Bluetooth that span
    /// multiple coverage regions and compute their own blocks).
    pub fn hit_raw(&mut self, block: crate::coverage::Block) {
        if let Some(kcov) = self.kcov.as_deref_mut() {
            kcov.record(block);
        }
        self.global.insert(block);
    }

    /// Raises a `WARNING in <site>` report (recoverable logic error).
    pub fn warn(&mut self, site: &str) {
        self.bugs
            .push(BugReport::at_site(BugKind::Warning, site, Component::KernelDriver));
    }

    /// Raises a `WARNING in <site>` attributed to a shared kernel subsystem.
    pub fn warn_subsystem(&mut self, site: &str) {
        self.bugs.push(BugReport::at_site(
            BugKind::Warning,
            site,
            Component::KernelSubsystem,
        ));
    }

    /// Raises a verbatim `BUG:`-style report attributed to a subsystem.
    pub fn bug_msg(&mut self, title: &str) {
        self.bugs.push(BugReport::with_title(
            BugKind::Bug,
            title,
            Component::KernelSubsystem,
        ));
    }

    /// Raises `KASAN: slab-use-after-free Read in <site>`.
    pub fn kasan_uaf(&mut self, site: &str) {
        self.bugs.push(BugReport::at_site(
            BugKind::KasanUseAfterFree,
            site,
            Component::KernelDriver,
        ));
    }

    /// Raises `KASAN: invalid-access in <site>`.
    pub fn kasan_invalid(&mut self, site: &str) {
        self.bugs.push(BugReport::at_site(
            BugKind::KasanInvalidAccess,
            site,
            Component::KernelDriver,
        ));
    }

    /// Charges `n` loop iterations against the watchdog budget. Returns
    /// `false` — after raising a soft-lockup report — once the budget is
    /// exhausted; the driver must then bail out of its loop.
    pub fn spin(&mut self, n: u64) -> bool {
        if self.budget <= n {
            self.budget = 0;
            self.bugs.push(BugReport::with_title(
                BugKind::SoftLockup,
                format!("Infinite Loop in driver {}", self.driver),
                Component::KernelDriver,
            ));
            false
        } else {
            self.budget -= n;
            true
        }
    }

    /// Remaining watchdog budget (mostly for tests).
    pub fn budget_left(&self) -> u64 {
        self.budget
    }
}

/// Result of a successful `ioctl`: a scalar or an out-buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IoctlOut {
    /// Scalar return (often 0).
    Val(u64),
    /// Data copied back to userspace.
    Out(Vec<u8>),
}

/// A character device driver bound to a devfs node.
///
/// All entry points receive a [`DriverCtx`] for coverage/bug reporting.
/// Default implementations return `EOPNOTSUPP`/`ENOTTY` like a real driver
/// with unimplemented file operations.
pub trait CharDevice: Send {
    /// Short driver name (e.g. `"tcpc"`), used in logs and per-driver
    /// coverage accounting.
    fn name(&self) -> &'static str;

    /// The `/dev/...` node this driver is mounted at.
    fn node(&self) -> String;

    /// Machine-readable interface description, the stand-in for the
    /// syzlang descriptions DroidFuzz borrows from syzkaller.
    fn api(&self) -> DriverApi;

    /// `open(2)` on the node. `ctx.open_id` identifies the new open file.
    fn open(&mut self, ctx: &mut DriverCtx<'_>) -> Result<(), Errno> {
        ctx.hit(&[0x10]);
        Ok(())
    }

    /// Last close of an open file.
    fn release(&mut self, ctx: &mut DriverCtx<'_>) {
        ctx.hit(&[0x11]);
    }

    /// `read(2)`.
    fn read(&mut self, ctx: &mut DriverCtx<'_>, len: usize) -> Result<Vec<u8>, Errno> {
        let _ = (ctx, len);
        Err(Errno::EOPNOTSUPP)
    }

    /// `write(2)`.
    fn write(&mut self, ctx: &mut DriverCtx<'_>, data: &[u8]) -> Result<usize, Errno> {
        let _ = (ctx, data);
        Err(Errno::EOPNOTSUPP)
    }

    /// `ioctl(2)`.
    fn ioctl(
        &mut self,
        ctx: &mut DriverCtx<'_>,
        request: u32,
        arg: &[u8],
    ) -> Result<IoctlOut, Errno> {
        let _ = (ctx, request, arg);
        Err(Errno::ENOTTY)
    }

    /// `mmap(2)`.
    fn mmap(&mut self, ctx: &mut DriverCtx<'_>, len: usize, prot: u32) -> Result<(), Errno> {
        let _ = (ctx, len, prot);
        Err(Errno::ENODEV)
    }

    /// `poll(2)`; returns the ready-event mask.
    fn poll(&mut self, ctx: &mut DriverCtx<'_>, events: u32) -> Result<u32, Errno> {
        ctx.hit(&[0x12, u64::from(events)]);
        Ok(0)
    }
}

/// Shape of one 32-bit word inside an ioctl argument structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WordShape {
    /// Any value in `[min, max]`.
    Range {
        /// Inclusive lower bound.
        min: u32,
        /// Inclusive upper bound.
        max: u32,
    },
    /// One of an enumerated set of meaningful values.
    Choice(Vec<u32>),
    /// A bitwise OR of a subset of these flags.
    Flags(Vec<u32>),
    /// Uninterpreted word.
    Any,
}

/// Description of one ioctl command: name, request code, and the word-wise
/// shape of its argument structure (arguments here are sequences of
/// little-endian `u32` words, optionally followed by a raw byte payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoctlDesc {
    /// Symbolic command name (e.g. `"VIDIOC_S_FMT"`).
    pub name: String,
    /// Request code passed as the `ioctl` second argument.
    pub request: u32,
    /// Shapes of the leading argument words.
    pub words: Vec<WordShape>,
    /// Maximum trailing payload bytes (0 = none).
    pub trailing_bytes: usize,
}

impl IoctlDesc {
    /// Convenience constructor for an ioctl without argument payload.
    pub fn bare(name: &str, request: u32) -> Self {
        Self {
            name: name.to_owned(),
            request,
            words: Vec::new(),
            trailing_bytes: 0,
        }
    }

    /// Convenience constructor for an ioctl taking `words` and no blob.
    pub fn with_words(name: &str, request: u32, words: Vec<WordShape>) -> Self {
        Self {
            name: name.to_owned(),
            request,
            words,
            trailing_bytes: 0,
        }
    }
}

/// Self-description of a driver's syscall surface.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DriverApi {
    /// Supported ioctl commands.
    pub ioctls: Vec<IoctlDesc>,
    /// Whether `read(2)` does something useful.
    pub supports_read: bool,
    /// Whether `write(2)` does something useful.
    pub supports_write: bool,
    /// Whether `mmap(2)` does something useful.
    pub supports_mmap: bool,
    /// Whether this is a proprietary vendor driver. Upstream interfaces
    /// (V4L2, DRM, ALSA, evdev, …) have public syzlang descriptions;
    /// vendor drivers do not — a syscall fuzzer only sees an opaque
    /// ioctl surface for them, while their interface knowledge lives in
    /// the (closed-source) HAL. This asymmetry is the core premise of
    /// the DroidFuzz paper.
    pub vendor: bool,
    /// Declarative state machine of the driver, when one is authored.
    /// This is analysis-side knowledge (what a static pass over the
    /// driver source would recover), not something the fuzzer's syscall
    /// surface exposes.
    pub state_model: Option<StateModel>,
}

/// Guard over one little-endian `u32` argument word of a transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WordGuard {
    /// Exactly this value.
    Eq(u32),
    /// Any value in `[min, max]` inclusive.
    In(u32, u32),
    /// One of an enumerated set.
    OneOf(Vec<u32>),
    /// `word & mask == value`.
    MaskEq(u32, u32),
    /// `word & mask != 0`.
    MaskNonZero(u32),
    /// Unconstrained.
    Any,
}

impl WordGuard {
    /// Whether `w` satisfies the guard.
    pub fn admits(&self, w: u32) -> bool {
        match self {
            WordGuard::Eq(v) => w == *v,
            WordGuard::In(min, max) => (*min..=*max).contains(&w),
            WordGuard::OneOf(values) => values.contains(&w),
            WordGuard::MaskEq(mask, value) => w & mask == *value,
            WordGuard::MaskNonZero(mask) => w & mask != 0,
            WordGuard::Any => true,
        }
    }

    /// A minimal satisfying value, used when synthesizing prerequisite
    /// calls. Returns `None` for unsatisfiable guards.
    pub fn example(&self) -> Option<u32> {
        match self {
            WordGuard::Eq(v) => Some(*v),
            WordGuard::In(min, max) => (min <= max).then_some(*min),
            WordGuard::OneOf(values) => values.first().copied(),
            WordGuard::MaskEq(mask, value) => (value & mask == *value).then_some(*value),
            WordGuard::MaskNonZero(mask) => {
                (*mask != 0).then(|| 1u32 << mask.trailing_zeros())
            }
            WordGuard::Any => Some(0),
        }
    }
}

/// The syscall entry point a transition is keyed on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransOp {
    /// `ioctl(2)` with this request code.
    Ioctl(u32),
    /// `read(2)` (guard 0 constrains the length).
    Read,
    /// `write(2)` (constrained by [`Transition::payload_prefix`]).
    Write,
    /// `mmap(2)` (guards constrain `len`, `prot`).
    Mmap,
    /// `bind(2)` on a socket (guard 0 constrains the address).
    Bind,
    /// `connect(2)` on a socket.
    Connect,
    /// `listen(2)` on a socket.
    Listen,
    /// `accept(2)` on a socket; usually paired with [`Transition::spawns`].
    Accept,
}

/// Whether a transition is certain to succeed when its source state and
/// guards match, or merely allowed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reliability {
    /// Matching state + satisfied guards imply the syscall succeeds and
    /// lands in the target state. The abstract interpreter counts only
    /// these toward the static depth score (soundness: static depth must
    /// lower-bound dynamic depth).
    Guaranteed,
    /// The outcome depends on state the model does not track; the
    /// abstract state joins to ⊤ unless the transition is a self-loop.
    MayFail,
}

/// One guarded transition of a driver state machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transition {
    /// Triggering entry point.
    pub op: TransOp,
    /// Source states; empty = applies from any state.
    pub from: Vec<String>,
    /// Target state; `None` = state unchanged (self-loop).
    pub to: Option<String>,
    /// Word guards, aligned with the call's scalar argument words
    /// (missing trailing guards mean "any").
    pub guards: Vec<WordGuard>,
    /// Required byte-payload prefix (for [`TransOp::Write`] firmware
    /// blobs and the like).
    pub payload_prefix: Option<Vec<u8>>,
    /// Success certainty.
    pub reliability: Reliability,
    /// Whether firing (or attempting) this transition can raise a fatal,
    /// kernel-wedging bug; the abstract interpreter stops counting depth
    /// after any call that may take a hazardous path.
    pub hazard: bool,
    /// Abstract resource this transition produces (e.g. `"ion:token"`),
    /// used for consume-before-produce checks and relation-graph priors.
    pub produces: Option<String>,
    /// Abstract resource this transition consumes.
    pub consumes: Option<String>,
    /// Initial state of a freshly spawned cell (an `accept(2)` child).
    pub spawns: Option<String>,
}

impl Transition {
    fn op(op: TransOp) -> Self {
        Self {
            op,
            from: Vec::new(),
            to: None,
            guards: Vec::new(),
            payload_prefix: None,
            reliability: Reliability::Guaranteed,
            hazard: false,
            produces: None,
            consumes: None,
            spawns: None,
        }
    }

    /// An ioctl-triggered transition.
    pub fn ioctl(request: u32) -> Self {
        Self::op(TransOp::Ioctl(request))
    }

    /// A `read(2)`-triggered transition.
    pub fn read() -> Self {
        Self::op(TransOp::Read)
    }

    /// A `write(2)`-triggered transition.
    pub fn write() -> Self {
        Self::op(TransOp::Write)
    }

    /// An `mmap(2)`-triggered transition.
    pub fn mmap() -> Self {
        Self::op(TransOp::Mmap)
    }

    /// A `bind(2)`-triggered transition.
    pub fn bind() -> Self {
        Self::op(TransOp::Bind)
    }

    /// A `connect(2)`-triggered transition.
    pub fn connect() -> Self {
        Self::op(TransOp::Connect)
    }

    /// A `listen(2)`-triggered transition.
    pub fn listen() -> Self {
        Self::op(TransOp::Listen)
    }

    /// An `accept(2)`-triggered transition.
    pub fn accept() -> Self {
        Self::op(TransOp::Accept)
    }

    /// Restricts the source states.
    pub fn from(mut self, states: &[&str]) -> Self {
        self.from = states.iter().map(|s| (*s).to_owned()).collect();
        self
    }

    /// Sets the target state.
    pub fn to(mut self, state: &str) -> Self {
        self.to = Some(state.to_owned());
        self
    }

    /// Appends one word guard.
    pub fn guard(mut self, g: WordGuard) -> Self {
        self.guards.push(g);
        self
    }

    /// Requires the byte payload to start with `prefix`.
    pub fn prefix(mut self, prefix: &[u8]) -> Self {
        self.payload_prefix = Some(prefix.to_vec());
        self
    }

    /// Marks the outcome as uncertain.
    pub fn may_fail(mut self) -> Self {
        self.reliability = Reliability::MayFail;
        self
    }

    /// Marks the transition as possibly raising a fatal bug.
    pub fn hazard(mut self) -> Self {
        self.hazard = true;
        self
    }

    /// Declares a produced abstract resource.
    pub fn produces(mut self, tag: &str) -> Self {
        self.produces = Some(tag.to_owned());
        self
    }

    /// Declares a consumed abstract resource.
    pub fn consumes(mut self, tag: &str) -> Self {
        self.consumes = Some(tag.to_owned());
        self
    }

    /// Declares a spawned cell (accept child) and its initial state.
    pub fn spawns(mut self, state: &str) -> Self {
        self.spawns = Some(state.to_owned());
        self
    }
}

/// Declarative state machine of a driver: the abstract states its
/// behaviour is conditioned on and the guarded transitions between them.
///
/// Models must be *success-complete* per listed entry point: every way a
/// listed op can succeed appears as a transition. The abstract
/// interpreter relies on this to conclude that a call matching no
/// transition from a known state provably fails without changing state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateModel {
    /// State at boot (device-scoped) or at `open(2)` (per-open).
    pub initial: String,
    /// All named abstract states.
    pub states: Vec<String>,
    /// Guarded transitions.
    pub transitions: Vec<Transition>,
    /// Whether state lives per open file (fresh open = fresh `initial`)
    /// rather than in the device itself.
    pub per_open: bool,
    /// Whether closing *any* fd perturbs device-global state (release
    /// frees per-owner resources), leaving the abstract state unknown.
    pub close_clobbers: bool,
    /// Whether close orphans cells spawned from this one (listening
    /// Bluetooth sockets orphan their accept children; using an orphan
    /// can fire a use-after-free).
    pub close_orphans: bool,
    /// Whether per-open cells share hidden global state (the HCI
    /// adapter); more than one live cell makes every one unknown.
    pub global_backing: bool,
}

impl StateModel {
    /// Creates a model with no transitions yet.
    pub fn new(initial: &str, states: &[&str]) -> Self {
        Self {
            initial: initial.to_owned(),
            states: states.iter().map(|s| (*s).to_owned()).collect(),
            transitions: Vec::new(),
            per_open: false,
            close_clobbers: false,
            close_orphans: false,
            global_backing: false,
        }
    }

    /// Marks state as per-open-file.
    pub fn per_open(mut self) -> Self {
        self.per_open = true;
        self
    }

    /// Marks close as perturbing device-global state.
    pub fn close_clobbers(mut self) -> Self {
        self.close_clobbers = true;
        self
    }

    /// Marks close as orphaning spawned children.
    pub fn close_orphans(mut self) -> Self {
        self.close_orphans = true;
        self
    }

    /// Marks per-open cells as sharing hidden global state.
    pub fn global_backing(mut self) -> Self {
        self.global_backing = true;
        self
    }

    /// Appends transitions.
    pub fn with(mut self, transitions: Vec<Transition>) -> Self {
        self.transitions.extend(transitions);
        self
    }
}

/// Structural problems in a [`StateModel`] (unknown state references,
/// unsatisfiable guards). Returns human-readable findings; empty = valid.
pub fn validate_model(label: &str, model: &StateModel) -> Vec<String> {
    let mut problems = Vec::new();
    let known = |s: &String| model.states.contains(s);
    if !known(&model.initial) {
        problems.push(format!("{label}: initial state {:?} not in state list", model.initial));
    }
    for (i, t) in model.transitions.iter().enumerate() {
        for s in &t.from {
            if !known(s) {
                problems.push(format!("{label}: transition {i} from unknown state {s:?}"));
            }
        }
        if let Some(to) = &t.to {
            if !known(to) {
                problems.push(format!("{label}: transition {i} to unknown state {to:?}"));
            }
        }
        if let Some(sp) = &t.spawns {
            if !known(sp) {
                problems.push(format!("{label}: transition {i} spawns unknown state {sp:?}"));
            }
        }
        for (j, g) in t.guards.iter().enumerate() {
            if g.example().is_none() {
                problems.push(format!("{label}: transition {i} guard {j} is unsatisfiable"));
            }
        }
    }
    problems
}

/// Boot-time validation of a driver's self-description: duplicate ioctl
/// request codes, empty `Choice`/`Flags` word shapes, and state-model
/// structure. Returns human-readable findings; empty = valid.
pub fn validate_api(name: &str, api: &DriverApi) -> Vec<String> {
    let mut problems = Vec::new();
    let mut seen = std::collections::BTreeMap::new();
    for ioctl in &api.ioctls {
        if let Some(prev) = seen.insert(ioctl.request, &ioctl.name) {
            problems.push(format!(
                "{name}: duplicate ioctl request {:#010x} ({prev} vs {})",
                ioctl.request, ioctl.name
            ));
        }
        for (i, shape) in ioctl.words.iter().enumerate() {
            match shape {
                WordShape::Choice(values) if values.is_empty() => {
                    problems.push(format!("{name}: {} word {i} has an empty Choice", ioctl.name));
                }
                WordShape::Flags(values) if values.is_empty() => {
                    problems.push(format!("{name}: {} word {i} has an empty Flags", ioctl.name));
                }
                WordShape::Range { min, max } if min > max => {
                    problems.push(format!("{name}: {} word {i} has min > max", ioctl.name));
                }
                _ => {}
            }
        }
    }
    if let Some(model) = &api.state_model {
        problems.extend(validate_model(name, model));
        let requests: Vec<u32> = api.ioctls.iter().map(|i| i.request).collect();
        for (i, t) in model.transitions.iter().enumerate() {
            if let TransOp::Ioctl(req) = t.op {
                if !requests.contains(&req) {
                    problems.push(format!(
                        "{name}: transition {i} references unlisted ioctl request {req:#010x}"
                    ));
                }
            }
        }
    }
    problems
}

/// Reads little-endian word `i` of an ioctl argument, 0 when out of range
/// (mirrors a kernel copying a short user buffer padded with zeroes).
pub fn word(arg: &[u8], i: usize) -> u32 {
    let off = i * 4;
    if off + 4 <= arg.len() {
        u32::from_le_bytes([arg[off], arg[off + 1], arg[off + 2], arg[off + 3]])
    } else if off < arg.len() {
        let mut buf = [0u8; 4];
        buf[..arg.len() - off].copy_from_slice(&arg[off..]);
        u32::from_le_bytes(buf)
    } else {
        0
    }
}

/// Encodes words into a little-endian byte buffer (the inverse of [`word`]).
pub fn encode_words(words: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(words.len() * 4);
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_decoding_handles_short_buffers() {
        let buf = encode_words(&[0xdead_beef, 0x1234_5678]);
        assert_eq!(word(&buf, 0), 0xdead_beef);
        assert_eq!(word(&buf, 1), 0x1234_5678);
        assert_eq!(word(&buf, 2), 0);
        assert_eq!(word(&buf[..6], 1), 0x5678);
    }

    #[test]
    fn ctx_hit_records_to_kcov_and_global() {
        let mut kcov = KcovBuffer::new();
        kcov.enable();
        let mut global = CoverageMap::new();
        let mut bugs = BugSink::new();
        let mut ctx = DriverCtx::new(0x100, "t", Some(&mut kcov), &mut global, &mut bugs, 1);
        ctx.hit(&[1, 2]);
        ctx.hit(&[1, 2]);
        ctx.hit(&[3]);
        assert_eq!(kcov.len(), 3, "kcov keeps duplicates");
        assert_eq!(global.len(), 2, "global map deduplicates");
    }

    #[test]
    fn ctx_spin_fires_watchdog_once_budget_exhausted() {
        let mut global = CoverageMap::new();
        let mut bugs = BugSink::new();
        let mut ctx = DriverCtx::new(0, "sensorhub", None, &mut global, &mut bugs, 1);
        assert!(ctx.spin(WATCHDOG_BUDGET - 1));
        assert!(!ctx.spin(10));
        let reports = bugs.take();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].kind, BugKind::SoftLockup);
        assert!(reports[0].title.contains("sensorhub"));
    }

    #[test]
    fn ctx_bug_helpers_classify_components() {
        let mut global = CoverageMap::new();
        let mut bugs = BugSink::new();
        let mut ctx = DriverCtx::new(0, "d", None, &mut global, &mut bugs, 1);
        ctx.warn("a");
        ctx.warn_subsystem("b");
        ctx.kasan_uaf("c");
        ctx.kasan_invalid("d");
        ctx.bug_msg("BUG: looking up invalid subclass: 8");
        let reports = bugs.take();
        assert_eq!(reports[0].component, Component::KernelDriver);
        assert_eq!(reports[1].component, Component::KernelSubsystem);
        assert_eq!(reports[2].kind, BugKind::KasanUseAfterFree);
        assert_eq!(reports[3].kind, BugKind::KasanInvalidAccess);
        assert_eq!(reports[4].kind, BugKind::Bug);
    }
}
