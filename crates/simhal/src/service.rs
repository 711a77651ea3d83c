//! The HAL service trait and the kernel handle services issue syscalls
//! through.

use simbinder::{InterfaceInfo, Transaction, TransactionResult};
use simkernel::{Kernel, Syscall, SyscallRet};

/// Handle a HAL service uses to reach the kernel. All syscalls go through
/// the service's own process, so kernel trace sessions attribute them to
/// `Origin::Hal(tag)` — exactly what DroidFuzz's cross-boundary feedback
/// (§IV-D) observes.
#[derive(Debug)]
pub struct KernelHandle<'a> {
    kernel: &'a mut Kernel,
    pid: simkernel::Pid,
}

impl<'a> KernelHandle<'a> {
    /// Builds a handle for the service process `pid`.
    pub fn new(kernel: &'a mut Kernel, pid: simkernel::Pid) -> Self {
        Self { kernel, pid }
    }

    /// Issues a syscall as the service process.
    pub fn sys(&mut self, call: Syscall<'_>) -> SyscallRet {
        self.kernel.syscall(self.pid, call)
    }

    /// The service's process id.
    pub fn pid(&self) -> simkernel::Pid {
        self.pid
    }
}

/// A vendor HAL service.
///
/// Implementations are *opaque to the fuzzer*: only [`info`](Self::info)
/// (Binder reflection) and kernel-side traces of what
/// [`on_transact`](Self::on_transact) does are observable.
///
/// A service signals its own crash (SIGSEGV/SIGABRT in the real world) by
/// returning [`simbinder::TransactionError::DeadObject`]; the runtime then
/// marks the process dead until the device reboots.
pub trait HalService: Send {
    /// Binder reflection data: descriptor and method table.
    fn info(&self) -> InterfaceInfo;

    /// Handles one transaction, possibly issuing syscalls through `sys`.
    fn on_transact(&mut self, sys: &mut KernelHandle<'_>, txn: &Transaction) -> TransactionResult;

    /// Resets all in-memory state (called on device reboot, when the
    /// service process is restarted by init).
    fn reset(&mut self);
}

/// Convenience: signal a native crash with a stable dedup headline.
pub fn native_crash(reason: impl Into<String>) -> simbinder::TransactionError {
    simbinder::TransactionError::DeadObject { reason: reason.into() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkernel::trace::Origin;

    #[test]
    fn kernel_handle_attributes_syscalls_to_hal_origin() {
        let mut kernel = Kernel::new();
        kernel.register_device(Box::new(simkernel::drivers::thermal::ThermalDevice::new()));
        let pid = kernel.spawn_process(Origin::Hal(7));
        let tid = kernel.attach_trace(simkernel::trace::TraceFilter::HalTag(7));
        {
            let mut handle = KernelHandle::new(&mut kernel, pid);
            assert_eq!(handle.pid(), pid);
            handle.sys(Syscall::Openat { path: "/dev/thermal" });
        }
        let events = kernel.trace_drain(tid);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].origin, Origin::Hal(7));
    }

    #[test]
    fn native_crash_builds_dead_object() {
        let err = native_crash("Native crash in Media HAL (redacted)");
        assert!(matches!(
            err,
            simbinder::TransactionError::DeadObject { .. }
        ));
    }
}
