//! Execution agents (§IV-A): the Execution Broker with its HAL and Native
//! executors, compiled into one component that runs a DSL program against
//! a device and bonds the feedback into a uniform record.
//!
//! The broker executes in two modes with bit-identical results:
//!
//! * **One-shot** ([`Broker::execute`] outside a batch): a trace filter is
//!   installed and torn down around each program, as a standalone run would.
//! * **Batched** ([`Broker::begin_batch`]/[`Broker::end_batch`], or the
//!   [`Broker::execute_batch`] convenience): one `TraceFilter` install, one
//!   persistent seen-coverage map, and recycled feedback buffers amortized
//!   across a slice of programs. Residue the persistent session picks up
//!   *between* execution windows (executor teardown, fault arms, reprovision
//!   probing) is drained and discarded at the exact point where the
//!   per-program path would have attached a fresh session, so the captured
//!   event window — and therefore every outcome — is identical.
//!
//! Device-wide coverage deltas are computed in O(new blocks): the broker
//! marks each kernel coverage page's live count after a scan and word-diffs
//! only pages that grew since (see [`simkernel::coverage::CovPage::diff_into`]), instead of
//! filtering the whole map per execution.
//!
//! Once warm, a call costs no heap allocation on the broker side: syscall
//! arguments borrow the program's payload bytes and the template's node
//! path, ioctl arguments are packed into one reused buffer, and HAL
//! arguments into one reused parcel.

use std::collections::BTreeMap;

use fuzzlang::desc::{CallKind, DescTable, SyscallTemplate};
use fuzzlang::prog::{ArgValue, Prog};
use fuzzlang::types::TypeDesc;
use simbinder::{Parcel, Transaction, TransactionError};
use simdevice::Device;
use simkernel::coverage::{Block, CoverageMap, COV_PAGE_SHIFT};
use simkernel::fd::Fd;
use simkernel::report::BugReport;
use simkernel::trace::{Origin, SyscallEvent, TraceFilter, TraceId};
use simkernel::{Syscall, SyscallRet};

/// What one call produced at runtime (for later `Ref` resolution).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Produced {
    Fd(Fd),
    Scalar(u64),
    Nothing,
    Failed,
}

/// Bonded feedback from one program execution (§IV-A: "the feedback is
/// then bonded to form a uniform feedback statistic").
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecOutcome {
    /// kcov blocks hit by the *native executor task*. kcov is per-task:
    /// kernel work done by HAL service processes is invisible here — the
    /// blind spot DroidFuzz's directional HAL coverage exists to fill.
    pub kcov: Vec<Block>,
    /// Kernel blocks newly reached device-wide during this execution
    /// (any task, including HAL services). This is *measurement
    /// infrastructure* for the evaluation's coverage metric — a real
    /// fuzzer's feedback loop does not see it.
    pub observed_new_blocks: Vec<Block>,
    /// HAL-originated syscall events, in order (directional coverage).
    pub hal_events: Vec<SyscallEvent>,
    /// Bug reports raised during the execution (kernel + HAL).
    pub bugs: Vec<BugReport>,
    /// Per-call success flags (relation learning, minimization).
    pub call_results: Vec<bool>,
    /// Calls actually dispatched.
    pub calls_executed: usize,
    /// Approximate feedback payload size pulled back over ADB.
    pub reply_bytes: usize,
}

impl ExecOutcome {
    /// Empties every field, keeping buffer capacity for reuse.
    fn reset(&mut self) {
        self.kcov.clear();
        self.observed_new_blocks.clear();
        self.hal_events.clear();
        self.bugs.clear();
        self.call_results.clear();
        self.calls_executed = 0;
        self.reply_bytes = 0;
    }
}

/// The device-side execution broker.
///
/// Forks a fresh native-executor process per program (so descriptor state
/// never leaks between test cases, as with the paper's per-payload
/// executor processes) and dispatches each call of a program to the
/// native or HAL executor by its kind.
#[derive(Debug, Default)]
pub struct Broker {
    executions: u64,
    /// Every block already attributed to an earlier execution (or present
    /// before the first one). Persisting this across executions lets each
    /// run compute its device-wide delta against prior art only.
    seen_global: CoverageMap,
    seen_primed: bool,
    /// Per-page live counts of the kernel's coverage map at the last delta
    /// scan (valid for `marks_boot`). A page whose live count has not
    /// moved cannot hold new blocks, so the delta pass skips it entirely.
    page_marks: BTreeMap<u64, u32>,
    marks_boot: u32,
    marks_total: usize,
    /// Whether a batch session is open (`begin_batch`..`end_batch`).
    batch_open: bool,
    /// The persistent trace session and the boot count it was attached
    /// under — a reboot replaces the kernel and kills the session with it.
    session: Option<(TraceId, u32)>,
    /// Scratch buffers reused across executions and calls.
    produced: Vec<Produced>,
    ints: Vec<u64>,
    ioctl_arg: Vec<u8>,
    parcel: Parcel,
    discard: Vec<SyscallEvent>,
    outcome_pool: Vec<ExecOutcome>,
}

/// Cap on pooled [`ExecOutcome`] scratch objects.
const OUTCOME_POOL_CAP: usize = 8;

impl Broker {
    /// Creates a broker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Programs executed so far.
    pub fn executions(&self) -> u64 {
        self.executions
    }

    /// Opens a batch: installs one persistent HAL trace filter and keeps
    /// it (plus the seen-coverage marks and feedback scratch) live across
    /// every [`execute`](Self::execute) until [`end_batch`](Self::end_batch).
    /// Batch boundaries are invisible to results — they only amortize
    /// per-program setup.
    pub fn begin_batch(&mut self, device: &mut Device) {
        if self.batch_open {
            return;
        }
        self.batch_open = true;
        let boot = device.boot_count();
        let id = device.kernel().attach_trace(TraceFilter::HalOnly);
        self.session = Some((id, boot));
    }

    /// Closes the current batch, detaching the persistent trace session
    /// (when the kernel it was attached to is still the live one).
    pub fn end_batch(&mut self, device: &mut Device) {
        self.batch_open = false;
        if let Some((id, boot)) = self.session.take() {
            if device.boot_count() == boot {
                device.kernel().detach_trace(id);
            }
        }
    }

    /// Executes a slice of programs under one batch session, returning one
    /// outcome per program. Equivalent to (but cheaper than) calling
    /// [`execute`](Self::execute) per program outside a batch.
    pub fn execute_batch(
        &mut self,
        device: &mut Device,
        table: &DescTable,
        progs: &[Prog],
    ) -> Vec<ExecOutcome> {
        self.begin_batch(device);
        let outcomes = progs.iter().map(|p| self.execute(device, table, p)).collect();
        self.end_batch(device);
        outcomes
    }

    /// Returns an outcome's buffers to the broker's recycle pool. Purely
    /// an allocation optimization — dropping outcomes instead is always
    /// correct.
    pub fn recycle(&mut self, mut outcome: ExecOutcome) {
        if self.outcome_pool.len() < OUTCOME_POOL_CAP {
            outcome.reset();
            self.outcome_pool.push(outcome);
        }
    }

    /// Executes `prog` against `device`, returning the bonded feedback.
    ///
    /// Coverage is collected per-execution: the native executor's kcov
    /// buffer captures native-call driver coverage, and the global
    /// coverage delta captures HAL-side driver coverage; HAL-originated
    /// syscalls are additionally recorded *in order* by an eBPF-style
    /// trace session for the directional feedback of §IV-D.
    pub fn execute(&mut self, device: &mut Device, table: &DescTable, prog: &Prog) -> ExecOutcome {
        let mut outcome = self.outcome_pool.pop().unwrap_or_default();
        self.execute_into(device, table, prog, &mut outcome);
        outcome
    }

    fn execute_into(
        &mut self,
        device: &mut Device,
        table: &DescTable,
        prog: &Prog,
        out: &mut ExecOutcome,
    ) {
        out.reset();
        self.executions += 1;
        if !self.seen_primed {
            // Coverage present before the first execution (boot, probing)
            // is prior art, not this run's delta. Kept lazy — a fault arm
            // may mutate device coverage between batch open and the first
            // execution, and that too is prior art.
            self.seen_global.union_from(device.kernel_ref().global_coverage());
            self.seen_primed = true;
        }
        let pid = device.kernel().spawn_process(Origin::Native);
        let _ = device.kernel().kcov_enable(pid);
        let trace = self.install_trace(device);

        let mut produced = std::mem::take(&mut self.produced);
        produced.clear();
        for call in &prog.calls {
            let desc = table.get(call.desc);
            let (result, value) = match &desc.kind {
                CallKind::Syscall(template) => {
                    self.run_syscall(device, pid, template, &call.args, &produced)
                }
                CallKind::Hal { service, code } => {
                    self.run_hal(device, service, *code, &desc.args, &call.args, &produced)
                }
            };
            out.call_results.push(result);
            produced.push(value);
        }
        self.produced = produced;

        let _ = device.kernel().kcov_collect_into(pid, &mut out.kcov);
        device.kernel().trace_drain_into(trace, &mut out.hal_events);
        if !self.batch_open {
            device.kernel().detach_trace(trace);
        }
        let _ = device.kernel().exit_process(pid);
        // The executor (the HAL services' Binder client) is gone: services
        // drop its sessions, closing their kernel resources. (Under a batch
        // session those closes are recorded as residue and discarded at the
        // next execution's install point.)
        device.end_hal_client();
        self.collect_new_blocks(device, &mut out.observed_new_blocks);
        let mut bugs = device.take_bug_reports();
        out.bugs.append(&mut bugs);
        out.calls_executed = out.call_results.len();
        out.reply_bytes = out.kcov.len() * 8 + out.hal_events.len() * 16;
    }

    /// Returns the trace session this execution captures through. Outside
    /// a batch: a fresh per-program session. Inside one: the persistent
    /// session, first drained of any residue recorded since the previous
    /// capture window closed — exactly the events a fresh attach would
    /// never have seen. A reboot replaces the kernel (killing the session),
    /// so the session is revalidated against the boot count and reattached
    /// on the new kernel when stale.
    fn install_trace(&mut self, device: &mut Device) -> TraceId {
        if !self.batch_open {
            return device.kernel().attach_trace(TraceFilter::HalOnly);
        }
        let boot = device.boot_count();
        match self.session {
            Some((id, b)) if b == boot => {
                device.kernel().trace_drain_into(id, &mut self.discard);
                self.discard.clear();
                id
            }
            _ => {
                let id = device.kernel().attach_trace(TraceFilter::HalOnly);
                self.session = Some((id, boot));
                id
            }
        }
    }

    /// Appends every kernel coverage block not yet attributed to an
    /// earlier execution to `out` (ascending order), then marks them seen.
    ///
    /// O(new blocks): pages whose live count equals their mark are skipped
    /// without reading a word, and changed pages are word-diffed against
    /// the seen map. Reboots reset the kernel map, so marks are keyed to
    /// the boot count; `seen_global` itself persists across reboots (a
    /// re-hit block after reboot is not new, same as the historical
    /// whole-map filter).
    fn collect_new_blocks(&mut self, device: &mut Device, out: &mut Vec<Block>) {
        let boot = device.boot_count();
        if boot != self.marks_boot {
            self.page_marks.clear();
            self.marks_total = 0;
            self.marks_boot = boot;
        }
        let cov = device.kernel_ref().global_coverage();
        if cov.len() == self.marks_total {
            return;
        }
        self.marks_total = cov.len();
        let start = out.len();
        for (key, page) in cov.pages() {
            if self.page_marks.get(&key) == Some(&page.live()) {
                continue;
            }
            page.diff_into(self.seen_global.page(key), key << COV_PAGE_SHIFT, out);
            self.page_marks.insert(key, page.live());
        }
        for &block in &out[start..] {
            self.seen_global.insert(block);
        }
    }

    fn resolve_fd(args_value: &ArgValue, produced: &[Produced]) -> Fd {
        match args_value {
            ArgValue::Ref(t) => match produced.get(*t) {
                Some(Produced::Fd(fd)) => *fd,
                // Stale/failed producer: use an invalid descriptor, which
                // fails with EBADF like a real stale handle.
                _ => Fd(0xFFFF),
            },
            _ => Fd(0xFFFF),
        }
    }

    fn resolve_scalar(value: &ArgValue, produced: &[Produced]) -> u64 {
        match value {
            ArgValue::Int(v) => *v,
            ArgValue::Ref(t) => match produced.get(*t) {
                Some(Produced::Scalar(v)) => *v,
                Some(Produced::Fd(fd)) => u64::from(fd.0),
                _ => 0,
            },
            _ => 0,
        }
    }

    fn run_syscall(
        &mut self,
        device: &mut Device,
        pid: simkernel::Pid,
        template: &SyscallTemplate,
        args: &[ArgValue],
        produced: &[Produced],
    ) -> (bool, Produced) {
        // Partition concrete args: first Ref is the fd; remaining ints in
        // order; first byte blob is the payload.
        let fd = args.first().map(|a| Self::resolve_fd(a, produced));
        let mut ints = std::mem::take(&mut self.ints);
        ints.clear();
        ints.extend(args.iter().skip(1).filter_map(|a| match a {
            ArgValue::Int(v) => Some(*v),
            ArgValue::Ref(_) => Some(Self::resolve_scalar(a, produced)),
            _ => None,
        }));
        let bytes: &[u8] = args
            .iter()
            .find_map(|a| match a {
                ArgValue::Bytes(b) => Some(b.as_slice()),
                _ => None,
            })
            .unwrap_or_default();
        let int = |i: usize| ints.get(i).copied().unwrap_or(0);
        let fd = fd.unwrap_or(Fd(0xFFFF));
        let mut ioctl_arg = std::mem::take(&mut self.ioctl_arg);
        ioctl_arg.clear();
        let mut pack = |words: &[u64]| {
            for v in words {
                ioctl_arg.extend_from_slice(&(*v as u32).to_le_bytes());
            }
            ioctl_arg.extend_from_slice(bytes);
        };

        let call = match template {
            SyscallTemplate::Openat { path } => Syscall::Openat { path },
            SyscallTemplate::Close => Syscall::Close { fd },
            SyscallTemplate::Read => Syscall::Read { fd, len: (int(0) as usize).min(1 << 16) },
            SyscallTemplate::Write => Syscall::Write { fd, data: bytes },
            SyscallTemplate::Ioctl { request } => {
                pack(&ints);
                Syscall::Ioctl { fd, request: *request, arg: &ioctl_arg }
            }
            SyscallTemplate::IoctlAny => {
                pack(ints.get(1..).unwrap_or_default());
                Syscall::Ioctl { fd, request: int(0) as u32, arg: &ioctl_arg }
            }
            SyscallTemplate::Mmap => Syscall::Mmap {
                fd,
                len: (int(0) as usize).min(1 << 24),
                prot: int(1) as u32,
            },
            SyscallTemplate::Poll => Syscall::Poll { fd, events: int(0) as u32 },
            SyscallTemplate::Dup => Syscall::Dup { fd },
            SyscallTemplate::Socket { domain, ty, proto } => {
                Syscall::Socket { domain: *domain, ty: *ty, proto: *proto }
            }
            SyscallTemplate::Bind => Syscall::Bind { fd, addr: int(0) },
            SyscallTemplate::Connect => Syscall::Connect { fd, addr: int(0) },
            SyscallTemplate::Listen => Syscall::Listen { fd, backlog: int(0) as u32 },
            SyscallTemplate::Accept => Syscall::Accept { fd },
        };
        let ret = device.kernel().syscall(pid, call);
        self.ints = ints;
        self.ioctl_arg = ioctl_arg;
        match ret {
            SyscallRet::NewFd(fd) => (true, Produced::Fd(fd)),
            SyscallRet::Ok(v) => (true, Produced::Scalar(v)),
            SyscallRet::Data(d) => (true, Produced::Scalar(d.len() as u64)),
            SyscallRet::Err(_) => (false, Produced::Failed),
        }
    }

    fn run_hal(
        &mut self,
        device: &mut Device,
        service: &str,
        code: u32,
        arg_descs: &[fuzzlang::desc::ArgDesc],
        args: &[ArgValue],
        produced: &[Produced],
    ) -> (bool, Produced) {
        let mut parcel = std::mem::take(&mut self.parcel);
        parcel.clear();
        for (desc, value) in arg_descs.iter().zip(args) {
            match (&desc.ty, value) {
                (TypeDesc::Resource { kind }, _) if kind.0.starts_with("hal:") => {
                    parcel.write_i32(Self::resolve_scalar(value, produced) as i32);
                }
                (TypeDesc::Resource { .. }, _) => {
                    parcel.write_fd(Self::resolve_fd(value, produced).0);
                }
                (TypeDesc::Int { max, .. }, _) if *max > u64::from(u32::MAX) => {
                    parcel.write_i64(Self::resolve_scalar(value, produced) as i64);
                }
                (_, ArgValue::Int(v)) => {
                    parcel.write_i32(*v as i32);
                }
                (_, ArgValue::Ref(_)) => {
                    parcel.write_i32(Self::resolve_scalar(value, produced) as i32);
                }
                (_, ArgValue::Bytes(b)) => {
                    parcel.write_blob(b);
                }
                (_, ArgValue::Str(s)) => {
                    parcel.write_string16(s);
                }
            }
        }
        let txn = Transaction::new(code, parcel);
        let result = device.transact(service, &txn);
        self.parcel = txn.data;
        match result {
            Ok(reply) => {
                let value = reply
                    .reader()
                    .read_i32()
                    .map(|v| Produced::Scalar(v as u64 & 0xFFFF_FFFF))
                    .or_else(|_| reply.reader().read_i64().map(|v| Produced::Scalar(v as u64)))
                    .unwrap_or(Produced::Nothing);
                (true, value)
            }
            Err(TransactionError::DeadObject { .. }) => (false, Produced::Failed),
            Err(_) => (false, Produced::Failed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descs::build_syscall_table;
    use fuzzlang::prog::Call;
    use simdevice::catalog;

    fn prog_of(table: &DescTable, lines: &[(&str, Vec<ArgValue>)]) -> Prog {
        match Prog::from_named(table, lines) {
            Ok(prog) => prog,
            Err(e) => panic!("test program: {e}"),
        }
    }

    #[test]
    fn unknown_call_name_is_an_error_not_a_panic() {
        let mut device = catalog::device_a1().boot();
        let table = build_syscall_table(device.kernel());
        let err = Prog::from_named(&table, &[("ioctl$NOT_A_REAL_CALL", vec![])])
            .expect_err("unknown names must be reported");
        assert_eq!(err.index, 0);
        assert_eq!(err.name, "ioctl$NOT_A_REAL_CALL");
        assert!(err.to_string().contains("NOT_A_REAL_CALL"));
    }

    #[test]
    fn native_open_ioctl_sequence_yields_kcov() {
        let mut device = catalog::device_a1().boot();
        let table = build_syscall_table(device.kernel());
        let mut broker = Broker::new();
        let prog = prog_of(
            &table,
            &[
                ("openat$/dev/video0", vec![]),
                (
                    "ioctl$VIDIOC_S_FMT",
                    vec![
                        ArgValue::Ref(0),
                        ArgValue::Int(640),
                        ArgValue::Int(480),
                        ArgValue::Int(u64::from(simkernel::drivers::v4l2::PIXFMTS[0])),
                    ],
                ),
                ("ioctl$VIDIOC_QUERYCAP", vec![ArgValue::Ref(0), ArgValue::Int(0)]),
            ],
        );
        let outcome = broker.execute(&mut device, &table, &prog);
        assert_eq!(outcome.call_results, vec![true, true, true]);
        assert!(outcome.kcov.len() >= 3);
        assert!(outcome.hal_events.is_empty());
        assert!(outcome.bugs.is_empty());
    }

    #[test]
    fn socket_sequence_triggers_shallow_l2cap_bug_on_pi() {
        let mut device = catalog::device_b().boot();
        let table = build_syscall_table(device.kernel());
        let mut broker = Broker::new();
        let prog = prog_of(
            &table,
            &[
                ("socket$l2cap_dgram", vec![]),
                ("connect$l2cap", vec![ArgValue::Ref(0), ArgValue::Int(0x99)]),
                ("ioctl$L2CAP_DISCONN_REQ", vec![ArgValue::Ref(0)]),
            ],
        );
        let outcome = broker.execute(&mut device, &table, &prog);
        assert_eq!(outcome.bugs.len(), 1);
        assert!(outcome.bugs[0].title.contains("l2cap_send_disconn_req"));
    }

    #[test]
    fn stale_ref_after_failed_producer_is_graceful() {
        let mut device = catalog::device_a1().boot();
        let table = build_syscall_table(device.kernel());
        let mut broker = Broker::new();
        // The second close references an already-closed socket; the broker
        // must degrade to EBADF semantics rather than panic.
        let prog = Prog {
            calls: vec![
                Call { desc: table.id_of("socket$hci").unwrap(), args: vec![] },
                Call {
                    desc: table.id_of("close").unwrap(),
                    args: vec![ArgValue::Ref(0)],
                },
                Call {
                    desc: table.id_of("close").unwrap(),
                    args: vec![ArgValue::Ref(0)],
                },
            ],
        };
        let outcome = broker.execute(&mut device, &table, &prog);
        assert_eq!(outcome.call_results, vec![true, true, false]);
    }

    #[test]
    fn broker_respawns_executor_after_reboot() {
        let mut device = catalog::device_a1().boot();
        let table = build_syscall_table(device.kernel());
        let mut broker = Broker::new();
        let prog = prog_of(&table, &[("openat$/dev/ion", vec![])]);
        assert!(broker.execute(&mut device, &table, &prog).call_results[0]);
        device.reboot();
        let outcome = broker.execute(&mut device, &table, &prog);
        assert!(outcome.call_results[0], "executor must follow the reboot");
    }

    #[test]
    fn hal_call_produces_directional_events() {
        let mut device = catalog::device_a1().boot();
        let mut table = build_syscall_table(device.kernel());
        // Hand-register a HAL desc for lights.setLight.
        table.add(fuzzlang::desc::CallDesc::new(
            "hal$ILight$setLight",
            CallKind::Hal {
                service: "android.hardware.lights@2.0::ILight/default".into(),
                code: 1,
            },
            vec![
                fuzzlang::desc::ArgDesc::new("id", TypeDesc::Choice { values: vec![0] }),
                fuzzlang::desc::ArgDesc::new("level", TypeDesc::Int { min: 0, max: 255 }),
            ],
            None,
        ));
        let mut broker = Broker::new();
        let prog = prog_of(
            &table,
            &[("hal$ILight$setLight", vec![ArgValue::Int(0), ArgValue::Int(200)])],
        );
        let outcome = broker.execute(&mut device, &table, &prog);
        assert_eq!(outcome.call_results, vec![true]);
        assert!(!outcome.hal_events.is_empty(), "HAL syscalls must be traced");
        assert!(outcome.hal_events.iter().all(|e| matches!(e.origin, Origin::Hal(_))));
        assert!(
            outcome.kcov.is_empty(),
            "per-task kcov must NOT see HAL-side kernel work"
        );
        assert!(
            !outcome.observed_new_blocks.is_empty(),
            "the measurement channel does see it"
        );
    }

    /// Recycled outcomes must be indistinguishable from fresh ones.
    #[test]
    fn recycled_outcomes_are_reset() {
        let mut device = catalog::device_a1().boot();
        let table = build_syscall_table(device.kernel());
        let mut broker = Broker::new();
        let prog = prog_of(&table, &[("openat$/dev/video0", vec![])]);
        let first = broker.execute(&mut device, &table, &prog);
        let reference = first.clone();
        broker.recycle(first);
        let again = broker.execute(&mut device, &table, &prog);
        assert_eq!(again.call_results, reference.call_results);
        assert_eq!(again.kcov, reference.kcov);
        assert!(again.observed_new_blocks.is_empty(), "nothing new the second time");
    }
}
