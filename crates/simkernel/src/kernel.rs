//! The kernel proper: process table, devfs, syscall dispatch, kcov,
//! bug collection, and trace sessions.
//!
//! Dispatch allocates nothing once warm. Syscall arguments are borrowed
//! from the caller; each devfs node is one shared handle created at
//! registration, which open files and trace events point at instead of
//! copying the path; processes and open files live in vectors sorted by
//! their never-reused ids, and an exited process's descriptor table and
//! kcov buffer are kept for the next spawn; a trace event is built only
//! when an attached session wants it.

use crate::coverage::{Block, CoverageMap, DRIVER_REGION, KcovBuffer};
use crate::driver::{CharDevice, DriverApi, DriverCtx, IoctlOut};
use crate::drivers::bt::BtStack;
use crate::errno::Errno;
use crate::fd::{Fd, FdTable, FileKind, OpenFile, OpenFileId};
use crate::report::{BugReport, BugSink};
use crate::syscall::{af, Syscall, SyscallNr, SyscallRet};
use crate::trace::{Origin, SyscallEvent, TraceFilter, TraceId, TraceSession};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Process identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(pub u32);

#[derive(Debug)]
struct Process {
    pid: u32,
    origin: Origin,
    fds: FdTable,
    kcov: KcovBuffer,
}

/// Base of the coverage region assigned to the first registered device;
/// subsequent devices get consecutive regions.
pub const DEVICE_COV_BASE: u64 = 0x1000_0000;
/// Coverage region of the HCI part of the Bluetooth stack.
pub const HCI_COV_BASE: u64 = 0x0800_0000;
/// Coverage region of the L2CAP part of the Bluetooth stack.
pub const L2CAP_COV_BASE: u64 = 0x0900_0000;

struct DeviceSlot {
    base: u64,
    /// The devfs node handle (also the map key).
    node: Arc<str>,
    dev: Box<dyn CharDevice>,
}

impl std::fmt::Debug for DeviceSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceSlot")
            .field("base", &self.base)
            .field("dev", &self.dev.name())
            .finish()
    }
}

/// The driver an open file reaches, handed to syscall bodies.
enum Target<'k> {
    Dev(&'k mut dyn CharDevice),
    Bt(&'k mut BtStack),
}

/// The simulated kernel.
///
/// Holds registered character devices, the Bluetooth socket stack, process
/// and open-file tables, accumulated coverage, pending bug reports, and
/// attached trace sessions. See the [crate docs](crate) for an end-to-end
/// example.
#[derive(Debug)]
pub struct Kernel {
    devices: BTreeMap<Arc<str>, DeviceSlot>,
    bt: BtStack,
    /// Live processes in ascending pid order (pids are never reused, so a
    /// spawn appends).
    procs: Vec<Process>,
    /// Exited processes, kept so a spawn reuses their descriptor table
    /// and kcov buffer.
    spare_procs: Vec<Process>,
    /// Open-file objects in ascending open-id order (ids are never
    /// reused, so an open appends).
    files: Vec<(u64, OpenFile)>,
    /// The descriptors an exiting process still holds.
    exit_fds: Vec<Fd>,
    global_cov: CoverageMap,
    bugs: BugSink,
    sessions: Vec<Option<TraceSession>>,
    next_pid: u32,
    next_open: u64,
    syscalls_executed: u64,
    ioctl_only: bool,
}

fn proc_index(procs: &[Process], pid: Pid) -> Option<usize> {
    procs.binary_search_by_key(&pid.0, |p| p.pid).ok()
}

fn proc_mut(procs: &mut [Process], pid: Pid) -> Option<&mut Process> {
    proc_index(procs, pid).map(|i| &mut procs[i])
}

fn file_index(files: &[(u64, OpenFile)], id: OpenFileId) -> Option<usize> {
    files.binary_search_by_key(&id.0, |&(k, _)| k).ok()
}

/// Adds a new open file under `open_id` (ids only grow, so `files` stays
/// sorted) and installs it in the descriptor table `fds`.
fn install_file(
    files: &mut Vec<(u64, OpenFile)>,
    fds: &mut FdTable,
    open_id: u64,
    kind: FileKind,
) -> SyscallRet {
    files.push((open_id, OpenFile { kind, refs: 1 }));
    match fds.install(OpenFileId(open_id)) {
        Ok(fd) => SyscallRet::NewFd(fd),
        Err(e) => {
            files.pop();
            SyscallRet::Err(e)
        }
    }
}

impl Kernel {
    /// Creates a kernel with an empty devfs and a default (no bugs armed)
    /// Bluetooth stack.
    pub fn new() -> Self {
        Self::with_bt(BtStack::new())
    }

    /// Creates a kernel with a specific Bluetooth stack configuration
    /// (device firmware decides which injected bugs are armed).
    pub fn with_bt(bt: BtStack) -> Self {
        Self {
            devices: BTreeMap::new(),
            bt,
            procs: Vec::new(),
            spare_procs: Vec::new(),
            files: Vec::new(),
            exit_fds: Vec::new(),
            global_cov: CoverageMap::new(),
            bugs: BugSink::new(),
            sessions: Vec::new(),
            next_pid: 100,
            next_open: 1,
            syscalls_executed: 0,
            ioctl_only: false,
        }
    }

    /// Restricts the syscall surface to `openat`/`ioctl`/`close` (plus
    /// `dup`), failing everything else with `EPERM`. This models the
    /// DroidFuzz-D / Difuze experiment setup where "other requests will be
    /// blocked" (paper §V-C2) — it applies to *all* processes, including
    /// HAL services.
    pub fn set_ioctl_only(&mut self, on: bool) {
        self.ioctl_only = on;
    }

    /// Whether the ioctl-only restriction is active.
    pub fn ioctl_only(&self) -> bool {
        self.ioctl_only
    }

    /// Registers a character device, returning its coverage-region base.
    /// The node path becomes the shared handle that open files and trace
    /// events on the device carry.
    ///
    /// # Panics
    ///
    /// Panics if a device is already mounted at the same node — firmware
    /// specs must not double-mount.
    pub fn register_device(&mut self, dev: Box<dyn CharDevice>) -> u64 {
        let node: Arc<str> = Arc::from(dev.node());
        assert!(
            !self.devices.contains_key(&node),
            "device node {node} already registered"
        );
        // Debug builds validate the driver's self-description at mount
        // time: duplicate ioctl request codes, empty Choice/Flags word
        // shapes, and malformed state models are firmware bugs.
        #[cfg(debug_assertions)]
        {
            let problems = crate::driver::validate_api(dev.name(), &dev.api());
            assert!(problems.is_empty(), "invalid DriverApi: {problems:?}");
        }
        let base = DEVICE_COV_BASE + self.devices.len() as u64 * DRIVER_REGION;
        self.devices.insert(node.clone(), DeviceSlot { base, node, dev });
        base
    }

    /// The `/dev` nodes currently registered, in sorted order.
    pub fn device_nodes(&self) -> Vec<String> {
        self.devices.keys().map(|node| node.to_string()).collect()
    }

    /// The self-described syscall surface of the driver at `node`.
    pub fn device_api(&self, node: &str) -> Option<DriverApi> {
        self.devices.get(node).map(|s| s.dev.api())
    }

    /// Driver name and coverage-region base for every driver (devices plus
    /// the two Bluetooth stack halves), for per-driver coverage accounting.
    pub fn driver_regions(&self) -> Vec<(String, u64)> {
        let mut regions: Vec<(String, u64)> = self
            .devices
            .values()
            .map(|s| (s.dev.name().to_owned(), s.base))
            .collect();
        regions.push(("hci".to_owned(), HCI_COV_BASE));
        regions.push(("l2cap".to_owned(), L2CAP_COV_BASE));
        regions.sort();
        regions
    }

    /// Spawns a process with the given origin tag.
    pub fn spawn_process(&mut self, origin: Origin) -> Pid {
        let pid = self.next_pid;
        self.next_pid += 1;
        let mut proc = self.spare_procs.pop().unwrap_or_else(|| Process {
            pid,
            origin,
            fds: FdTable::new(),
            kcov: KcovBuffer::new(),
        });
        proc.pid = pid;
        proc.origin = origin;
        self.procs.push(proc);
        Pid(pid)
    }

    /// Terminates a process: closes every descriptor it still holds, in
    /// ascending order (running driver `release` handlers, exactly as
    /// `do_exit` would) and removes it from the process table.
    ///
    /// # Errors
    ///
    /// Returns `ENOENT` for unknown processes.
    pub fn exit_process(&mut self, pid: Pid) -> Result<(), Errno> {
        let Some(idx) = proc_index(&self.procs, pid) else {
            return Err(Errno::ENOENT);
        };
        let mut fds = std::mem::take(&mut self.exit_fds);
        fds.clear();
        fds.extend(self.procs[idx].fds.iter().map(|(fd, _)| fd));
        for &fd in &fds {
            let _ = self.sys_close(pid, fd);
        }
        self.exit_fds = fds;
        let mut proc = self.procs.remove(idx);
        proc.fds.clear();
        proc.kcov.reset();
        self.spare_procs.push(proc);
        Ok(())
    }

    /// Starts kcov collection for `pid` (clears the previous buffer).
    ///
    /// # Errors
    ///
    /// Returns `ENOENT` for unknown processes.
    pub fn kcov_enable(&mut self, pid: Pid) -> Result<(), Errno> {
        proc_mut(&mut self.procs, pid).ok_or(Errno::ENOENT)?.kcov.enable();
        Ok(())
    }

    /// Stops kcov collection for `pid` and returns the recorded blocks.
    ///
    /// # Errors
    ///
    /// Returns `ENOENT` for unknown processes.
    pub fn kcov_collect(&mut self, pid: Pid) -> Result<Vec<Block>, Errno> {
        Ok(proc_mut(&mut self.procs, pid).ok_or(Errno::ENOENT)?.kcov.disable())
    }

    /// Stops kcov collection for `pid` and appends the recorded blocks to
    /// `out`, keeping the per-process buffer allocation. The reuse-friendly
    /// form of [`kcov_collect`](Self::kcov_collect).
    ///
    /// # Errors
    ///
    /// Returns `ENOENT` for unknown processes.
    pub fn kcov_collect_into(&mut self, pid: Pid, out: &mut Vec<Block>) -> Result<(), Errno> {
        proc_mut(&mut self.procs, pid)
            .ok_or(Errno::ENOENT)?
            .kcov
            .disable_into(out);
        Ok(())
    }

    /// Attaches a trace session; events matching `filter` accumulate until
    /// drained or detached.
    pub fn attach_trace(&mut self, filter: TraceFilter) -> TraceId {
        if let Some(idx) = self.sessions.iter().position(Option::is_none) {
            self.sessions[idx] = Some(TraceSession::new(filter));
            TraceId(idx as u32)
        } else {
            self.sessions.push(Some(TraceSession::new(filter)));
            TraceId(self.sessions.len() as u32 - 1)
        }
    }

    /// Drains buffered events from a session (empty for unknown ids).
    pub fn trace_drain(&mut self, id: TraceId) -> Vec<SyscallEvent> {
        self.sessions
            .get_mut(id.0 as usize)
            .and_then(Option::as_mut)
            .map(TraceSession::drain)
            .unwrap_or_default()
    }

    /// Drains buffered events from a session into `out`, keeping the
    /// session's buffer allocation (no-op for unknown ids). The
    /// reuse-friendly form of [`trace_drain`](Self::trace_drain).
    pub fn trace_drain_into(&mut self, id: TraceId, out: &mut Vec<SyscallEvent>) {
        if let Some(session) = self.sessions.get_mut(id.0 as usize).and_then(Option::as_mut) {
            session.drain_into(out);
        }
    }

    /// Detaches a session, discarding pending events.
    pub fn detach_trace(&mut self, id: TraceId) {
        if let Some(slot) = self.sessions.get_mut(id.0 as usize) {
            *slot = None;
        }
    }

    /// Drains all pending bug reports.
    pub fn take_bugs(&mut self) -> Vec<BugReport> {
        self.bugs.take()
    }

    /// Whether a fatal bug has wedged the kernel (device must reboot).
    pub fn is_wedged(&self) -> bool {
        self.bugs.is_wedged()
    }

    /// Wedges the kernel without raising any bug report — the
    /// fault-injection path for spontaneous device hangs (see
    /// [`crate::report::BugSink::force_wedge`]). Every subsequent syscall fails with
    /// `EIO` until the device reboots.
    pub fn force_wedge(&mut self) {
        self.bugs.force_wedge();
    }

    /// Coverage accumulated since boot across all tasks.
    pub fn global_coverage(&self) -> &CoverageMap {
        &self.global_cov
    }

    /// Total syscalls dispatched since boot.
    pub fn syscall_count(&self) -> u64 {
        self.syscalls_executed
    }

    /// Dispatches one system call on behalf of `pid`.
    ///
    /// A wedged kernel (after a fatal bug) fails everything with `EIO`,
    /// modelling a panicked/hung device; unknown pids fail with `EPERM`.
    /// The trace event is built only when an attached session's filter
    /// takes calls from the caller's origin.
    pub fn syscall(&mut self, pid: Pid, call: Syscall<'_>) -> SyscallRet {
        self.syscalls_executed += 1;
        if self.bugs.is_wedged() {
            return SyscallRet::Err(Errno::EIO);
        }
        if self.ioctl_only
            && !matches!(
                call.nr(),
                SyscallNr::Openat | SyscallNr::Ioctl | SyscallNr::Close | SyscallNr::Dup
            )
        {
            return SyscallRet::Err(Errno::EPERM);
        }
        let origin = match proc_index(&self.procs, pid) {
            Some(i) => self.procs[i].origin,
            None => return SyscallRet::Err(Errno::EPERM),
        };
        let (ret, node) = self.dispatch(pid, call);
        if self.sessions.iter().flatten().any(|s| s.filter.matches(origin)) {
            let path = match call {
                // The requested text, whether or not the node exists.
                Syscall::Openat { path } => Some(match self.devices.get(path) {
                    Some(slot) => slot.node.clone(),
                    None => Arc::from(path),
                }),
                _ => node,
            };
            let event = SyscallEvent {
                origin,
                nr: call.nr(),
                critical: call.critical_arg(),
                path,
                ok: ret.is_ok(),
            };
            for session in self.sessions.iter_mut().flatten() {
                session.record(&event);
            }
        }
        ret
    }

    /// Runs `call`; also returns the node handle of the char device the
    /// call went through, for the trace event (`openat` paths are
    /// resolved by the caller, only when traced).
    fn dispatch(&mut self, pid: Pid, call: Syscall<'_>) -> (SyscallRet, Option<Arc<str>>) {
        match call {
            Syscall::Openat { path } => (self.sys_open(pid, path), None),
            Syscall::Close { fd } => self.sys_close(pid, fd),
            Syscall::Read { fd, len } => self.on_file(pid, fd, |t, ctx| match t {
                Target::Dev(dev) => dev.read(ctx, len).map(SyscallRet::Data),
                Target::Bt(bt) => bt.read(ctx, len).map(SyscallRet::Data),
            }),
            Syscall::Write { fd, data } => self.on_file(pid, fd, |t, ctx| {
                match t {
                    Target::Dev(dev) => dev.write(ctx, data),
                    Target::Bt(bt) => bt.write(ctx, data),
                }
                .map(|n| SyscallRet::Ok(n as u64))
            }),
            Syscall::Ioctl { fd, request, arg } => self.on_file(pid, fd, |t, ctx| match t {
                Target::Dev(dev) => dev.ioctl(ctx, request, arg).map(|out| match out {
                    IoctlOut::Val(v) => SyscallRet::Ok(v),
                    IoctlOut::Out(data) => SyscallRet::Data(data),
                }),
                Target::Bt(bt) => bt.ioctl(ctx, request, arg).map(SyscallRet::Ok),
            }),
            Syscall::Mmap { fd, len, prot } => self.on_file(pid, fd, |t, ctx| match t {
                Target::Dev(dev) => dev.mmap(ctx, len, prot).map(|_| SyscallRet::Ok(0)),
                Target::Bt(_) => Err(Errno::ENODEV),
            }),
            Syscall::Poll { fd, events } => self.on_file(pid, fd, |t, ctx| {
                match t {
                    Target::Dev(dev) => dev.poll(ctx, events),
                    Target::Bt(bt) => bt.poll(ctx, events),
                }
                .map(|m| SyscallRet::Ok(u64::from(m)))
            }),
            Syscall::Dup { fd } => (self.sys_dup(pid, fd), None),
            Syscall::Socket { domain, ty, proto } => {
                (self.sys_socket(pid, domain, ty, proto), None)
            }
            Syscall::Bind { fd, addr } => {
                self.on_socket(pid, fd, |bt, ctx| bt.bind(ctx, addr).map(SyscallRet::Ok))
            }
            Syscall::Connect { fd, addr } => {
                self.on_socket(pid, fd, |bt, ctx| bt.connect(ctx, addr).map(SyscallRet::Ok))
            }
            Syscall::Listen { fd, backlog } => {
                self.on_socket(pid, fd, |bt, ctx| bt.listen(ctx, backlog).map(SyscallRet::Ok))
            }
            Syscall::Accept { fd } => (self.sys_accept(pid, fd), None),
        }
    }

    fn sys_open(&mut self, pid: Pid, path: &str) -> SyscallRet {
        let Some(slot) = self.devices.get_mut(path) else {
            return SyscallRet::Err(Errno::ENOENT);
        };
        let open_id = self.next_open;
        let Some(proc) = proc_mut(&mut self.procs, pid) else {
            return SyscallRet::Err(Errno::EPERM);
        };
        let mut ctx = DriverCtx::new(
            slot.base,
            "",
            Some(&mut proc.kcov),
            &mut self.global_cov,
            &mut self.bugs,
            open_id,
        );
        if let Err(e) = slot.dev.open(&mut ctx) {
            return SyscallRet::Err(e);
        }
        self.next_open += 1;
        let path = slot.node.clone();
        install_file(&mut self.files, &mut proc.fds, open_id, FileKind::CharDev { path })
    }

    fn sys_socket(&mut self, pid: Pid, domain: u32, ty: u32, proto: u32) -> SyscallRet {
        if domain != af::BLUETOOTH {
            return SyscallRet::Err(Errno::EPROTONOSUPPORT);
        }
        let open_id = self.next_open;
        let Some(proc) = proc_mut(&mut self.procs, pid) else {
            return SyscallRet::Err(Errno::EPERM);
        };
        let mut ctx = DriverCtx::new(
            0,
            "bt",
            Some(&mut proc.kcov),
            &mut self.global_cov,
            &mut self.bugs,
            open_id,
        );
        if let Err(e) = self.bt.socket(&mut ctx, ty, proto) {
            return SyscallRet::Err(e);
        }
        self.next_open += 1;
        install_file(&mut self.files, &mut proc.fds, open_id, FileKind::Socket { domain, ty, proto })
    }

    fn sys_accept(&mut self, pid: Pid, fd: Fd) -> SyscallRet {
        let Some(proc) = proc_mut(&mut self.procs, pid) else {
            return SyscallRet::Err(Errno::EPERM);
        };
        let parent_id = match proc.fds.get(fd) {
            Ok(id) => id,
            Err(e) => return SyscallRet::Err(e),
        };
        let Some(i) = file_index(&self.files, parent_id) else {
            return SyscallRet::Err(Errno::EBADF);
        };
        let FileKind::Socket { domain, ty, proto } = self.files[i].1.kind else {
            return SyscallRet::Err(Errno::EOPNOTSUPP);
        };
        let child_id = self.next_open;
        let mut ctx = DriverCtx::new(
            0,
            "bt",
            Some(&mut proc.kcov),
            &mut self.global_cov,
            &mut self.bugs,
            parent_id.0,
        );
        if let Err(e) = self.bt.accept(&mut ctx, child_id) {
            return SyscallRet::Err(e);
        }
        self.next_open += 1;
        install_file(&mut self.files, &mut proc.fds, child_id, FileKind::Socket { domain, ty, proto })
    }

    fn sys_close(&mut self, pid: Pid, fd: Fd) -> (SyscallRet, Option<Arc<str>>) {
        let Some(proc) = proc_mut(&mut self.procs, pid) else {
            return (SyscallRet::Err(Errno::EPERM), None);
        };
        let of_id = match proc.fds.remove(fd) {
            Ok(id) => id,
            Err(e) => return (SyscallRet::Err(e), None),
        };
        let Some(i) = file_index(&self.files, of_id) else {
            return (SyscallRet::Err(Errno::EBADF), None);
        };
        let file = &mut self.files[i].1;
        file.refs -= 1;
        if file.refs > 0 {
            return (SyscallRet::Ok(0), None);
        }
        let (_, file) = self.files.remove(i);
        match file.kind {
            FileKind::CharDev { path } => {
                if let Some(slot) = self.devices.get_mut(&*path) {
                    let mut ctx = DriverCtx::new(
                        slot.base,
                        "",
                        Some(&mut proc.kcov),
                        &mut self.global_cov,
                        &mut self.bugs,
                        of_id.0,
                    );
                    slot.dev.release(&mut ctx);
                }
                (SyscallRet::Ok(0), Some(path))
            }
            FileKind::Socket { .. } => {
                let mut ctx = DriverCtx::new(
                    0,
                    "bt",
                    Some(&mut proc.kcov),
                    &mut self.global_cov,
                    &mut self.bugs,
                    of_id.0,
                );
                self.bt.close(&mut ctx);
                (SyscallRet::Ok(0), None)
            }
        }
    }

    fn sys_dup(&mut self, pid: Pid, fd: Fd) -> SyscallRet {
        let Some(proc) = proc_mut(&mut self.procs, pid) else {
            return SyscallRet::Err(Errno::EPERM);
        };
        let of_id = match proc.fds.get(fd) {
            Ok(id) => id,
            Err(e) => return SyscallRet::Err(e),
        };
        let Some(i) = file_index(&self.files, of_id) else {
            return SyscallRet::Err(Errno::EBADF);
        };
        self.files[i].1.refs += 1;
        match proc.fds.install(of_id) {
            Ok(new_fd) => SyscallRet::NewFd(new_fd),
            Err(e) => {
                self.files[i].1.refs -= 1;
                SyscallRet::Err(e)
            }
        }
    }

    /// Runs `f` on the driver behind the open file for `(pid, fd)`, with a
    /// driver context whose `open_id` identifies that file. Returns the
    /// node handle for char devices so the trace event can carry it.
    fn on_file<F>(&mut self, pid: Pid, fd: Fd, f: F) -> (SyscallRet, Option<Arc<str>>)
    where
        F: FnOnce(Target<'_>, &mut DriverCtx<'_>) -> Result<SyscallRet, Errno>,
    {
        let Some(proc) = proc_mut(&mut self.procs, pid) else {
            return (SyscallRet::Err(Errno::EPERM), None);
        };
        let of_id = match proc.fds.get(fd) {
            Ok(id) => id,
            Err(e) => return (SyscallRet::Err(e), None),
        };
        let Some(i) = file_index(&self.files, of_id) else {
            return (SyscallRet::Err(Errno::EBADF), None);
        };
        let (target, base, name, path) = match &self.files[i].1.kind {
            FileKind::CharDev { path } => match self.devices.get_mut(&**path) {
                Some(slot) => {
                    let name = slot.dev.name();
                    (Target::Dev(slot.dev.as_mut()), slot.base, name, Some(path.clone()))
                }
                None => return (SyscallRet::Err(Errno::ENODEV), None),
            },
            FileKind::Socket { .. } => (Target::Bt(&mut self.bt), 0, "bt", None),
        };
        let mut ctx = DriverCtx::new(
            base,
            name,
            Some(&mut proc.kcov),
            &mut self.global_cov,
            &mut self.bugs,
            of_id.0,
        );
        let ret = f(target, &mut ctx).unwrap_or_else(SyscallRet::Err);
        (ret, path)
    }

    /// Like [`on_file`](Self::on_file) but requires the fd to be a socket.
    fn on_socket<F>(&mut self, pid: Pid, fd: Fd, f: F) -> (SyscallRet, Option<Arc<str>>)
    where
        F: FnOnce(&mut BtStack, &mut DriverCtx<'_>) -> Result<SyscallRet, Errno>,
    {
        self.on_file(pid, fd, |t, ctx| match t {
            Target::Bt(bt) => f(bt, ctx),
            Target::Dev(_) => Err(Errno::EOPNOTSUPP),
        })
    }
}

impl Default for Kernel {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{encode_words, IoctlDesc};

    /// Minimal test driver: one ioctl that echoes, coverage per request.
    #[derive(Debug, Default)]
    struct EchoDev {
        opens: u32,
    }

    impl CharDevice for EchoDev {
        fn name(&self) -> &'static str {
            "echo"
        }
        fn node(&self) -> String {
            "/dev/echo0".into()
        }
        fn api(&self) -> DriverApi {
            DriverApi {
                ioctls: vec![IoctlDesc::bare("ECHO", 0xE0)],
                supports_read: true,
                supports_write: true,
                supports_mmap: false,
                vendor: false,
                state_model: None,
            }
        }
        fn open(&mut self, ctx: &mut DriverCtx<'_>) -> Result<(), Errno> {
            self.opens += 1;
            ctx.hit(&[0, u64::from(self.opens.min(4))]);
            Ok(())
        }
        fn ioctl(
            &mut self,
            ctx: &mut DriverCtx<'_>,
            request: u32,
            arg: &[u8],
        ) -> Result<IoctlOut, Errno> {
            ctx.hit(&[1, u64::from(request)]);
            if request == 0xE0 {
                Ok(IoctlOut::Out(arg.to_vec()))
            } else {
                Err(Errno::ENOTTY)
            }
        }
    }

    fn kernel_with_echo() -> (Kernel, Pid) {
        let mut k = Kernel::new();
        k.register_device(Box::new(EchoDev::default()));
        let pid = k.spawn_process(Origin::Native);
        (k, pid)
    }

    #[test]
    fn open_ioctl_close_roundtrip() {
        let (mut k, pid) = kernel_with_echo();
        let fd = k
            .syscall(pid, Syscall::Openat { path: "/dev/echo0" })
            .fd()
            .unwrap();
        let payload = encode_words(&[42]);
        let ret = k.syscall(
            pid,
            Syscall::Ioctl { fd, request: 0xE0, arg: &payload },
        );
        assert_eq!(ret, SyscallRet::Data(payload));
        assert!(k.syscall(pid, Syscall::Close { fd }).is_ok());
        assert_eq!(
            k.syscall(pid, Syscall::Close { fd }).errno(),
            Some(Errno::EBADF)
        );
    }

    #[test]
    fn open_missing_node_is_enoent() {
        let (mut k, pid) = kernel_with_echo();
        let ret = k.syscall(pid, Syscall::Openat { path: "/dev/nope" });
        assert_eq!(ret.errno(), Some(Errno::ENOENT));
    }

    #[test]
    fn kcov_captures_per_task_coverage() {
        let (mut k, pid) = kernel_with_echo();
        k.kcov_enable(pid).unwrap();
        let fd = k
            .syscall(pid, Syscall::Openat { path: "/dev/echo0" })
            .fd()
            .unwrap();
        k.syscall(pid, Syscall::Ioctl { fd, request: 0xE0, arg: &[] });
        let blocks = k.kcov_collect(pid).unwrap();
        assert_eq!(blocks.len(), 2, "open + ioctl each hit one block");
        assert!(k.global_coverage().len() >= 2);
    }

    #[test]
    fn trace_session_observes_syscalls_with_critical_args() {
        let (mut k, pid) = kernel_with_echo();
        let tid = k.attach_trace(TraceFilter::NativeOnly);
        let fd = k
            .syscall(pid, Syscall::Openat { path: "/dev/echo0" })
            .fd()
            .unwrap();
        k.syscall(pid, Syscall::Ioctl { fd, request: 0xE0, arg: &[] });
        let events = k.trace_drain(tid);
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].nr, crate::syscall::SyscallNr::Ioctl);
        assert_eq!(events[1].critical, 0xE0);
        assert_eq!(events[1].path.as_deref(), Some("/dev/echo0"));
        k.detach_trace(tid);
        k.syscall(pid, Syscall::Close { fd });
        assert!(k.trace_drain(tid).is_empty());
    }

    #[test]
    fn dup_shares_open_file() {
        let (mut k, pid) = kernel_with_echo();
        let fd = k
            .syscall(pid, Syscall::Openat { path: "/dev/echo0" })
            .fd()
            .unwrap();
        let fd2 = k.syscall(pid, Syscall::Dup { fd }).fd().unwrap();
        assert_ne!(fd, fd2);
        assert!(k.syscall(pid, Syscall::Close { fd }).is_ok());
        // Original object still alive through fd2.
        assert!(k
            .syscall(pid, Syscall::Ioctl { fd: fd2, request: 0xE0, arg: &[] })
            .is_ok());
        assert!(k.syscall(pid, Syscall::Close { fd: fd2 }).is_ok());
    }

    #[test]
    fn unknown_pid_is_eperm() {
        let (mut k, _) = kernel_with_echo();
        let ret = k.syscall(Pid(9999), Syscall::Openat { path: "/dev/echo0" });
        assert_eq!(ret.errno(), Some(Errno::EPERM));
    }

    #[test]
    fn non_bluetooth_socket_unsupported() {
        let (mut k, pid) = kernel_with_echo();
        let ret = k.syscall(pid, Syscall::Socket { domain: 2, ty: 1, proto: 0 });
        assert_eq!(ret.errno(), Some(Errno::EPROTONOSUPPORT));
    }

    #[test]
    fn driver_regions_include_bt_halves() {
        let (k, _) = kernel_with_echo();
        let regions = k.driver_regions();
        let names: Vec<&str> = regions.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"echo"));
        assert!(names.contains(&"hci"));
        assert!(names.contains(&"l2cap"));
    }
}
