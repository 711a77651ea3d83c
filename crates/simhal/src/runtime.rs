//! The HAL runtime: hosts service processes, routes transactions, and
//! turns service crashes into bug reports.

use crate::service::{HalService, KernelHandle};
use simbinder::{ServiceManager, Transaction, TransactionError, TransactionResult};
use simkernel::report::{BugKind, BugReport, Component};
use simkernel::trace::Origin;
use simkernel::Kernel;

struct ServiceSlot {
    tag: u32,
    pid: simkernel::Pid,
    descriptor: String,
    svc: Box<dyn HalService>,
    alive: bool,
}

impl std::fmt::Debug for ServiceSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceSlot")
            .field("tag", &self.tag)
            .field("descriptor", &self.descriptor)
            .field("alive", &self.alive)
            .finish()
    }
}

/// Hosts HAL services, each in its own (simulated) process, and exposes
/// them through a [`ServiceManager`].
#[derive(Debug, Default)]
pub struct HalRuntime {
    slots: Vec<ServiceSlot>,
    sm: ServiceManager,
    crashes: Vec<BugReport>,
}

impl HalRuntime {
    /// Creates an empty runtime.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a service: spawns its process in `kernel`, publishes its
    /// interface, and returns the HAL tag used in kernel trace events.
    pub fn register(&mut self, kernel: &mut Kernel, svc: Box<dyn HalService>) -> u32 {
        let tag = self.slots.len() as u32 + 1;
        let pid = kernel.spawn_process(Origin::Hal(tag));
        let info = svc.info();
        let descriptor = info.descriptor.clone();
        self.sm.register(info);
        self.slots.push(ServiceSlot { tag, pid, descriptor, svc, alive: true });
        tag
    }

    /// The registry the Poke app / prober enumerates.
    pub fn service_manager(&self) -> &ServiceManager {
        &self.sm
    }

    /// HAL tag of a service, if registered.
    pub fn tag_of(&self, descriptor: &str) -> Option<u32> {
        self.slots.iter().find(|s| s.descriptor == descriptor).map(|s| s.tag)
    }

    /// Whether the service process is alive (not crashed since last reboot).
    pub fn is_alive(&self, descriptor: &str) -> bool {
        self.slots
            .iter()
            .find(|s| s.descriptor == descriptor)
            .map(|s| s.alive)
            == Some(true)
    }

    /// Whether every registered service process is alive: one pass over
    /// the service slots.
    pub fn all_alive(&self) -> bool {
        self.slots.iter().all(|s| s.alive)
    }

    /// Routes a transaction to a service.
    ///
    /// # Errors
    ///
    /// `DeadObject` when the service is unknown or has crashed; otherwise
    /// whatever the service returns. A first crash is recorded as a
    /// [`BugReport`] with `NativeCrash` kind, retrievable through
    /// [`take_crashes`](Self::take_crashes).
    pub fn transact(
        &mut self,
        kernel: &mut Kernel,
        descriptor: &str,
        txn: &Transaction,
    ) -> TransactionResult {
        let Some(slot) = self.slots.iter_mut().find(|s| s.descriptor == descriptor) else {
            return Err(TransactionError::DeadObject { reason: "no such service".into() });
        };
        if !slot.alive {
            return Err(TransactionError::DeadObject { reason: "service has died".into() });
        }
        let mut handle = KernelHandle::new(kernel, slot.pid);
        let result = slot.svc.on_transact(&mut handle, txn);
        if let Err(TransactionError::DeadObject { reason }) = &result {
            slot.alive = false;
            self.crashes.push(BugReport {
                kind: BugKind::NativeCrash,
                title: reason.clone(),
                component: Component::Hal,
                log: format!(
                    "*** *** *** *** ***\npid: {}, name: {descriptor}\nsignal 11 (SIGSEGV)\n{reason}",
                    slot.pid.0
                ),
            });
        }
        result
    }

    /// Kills a service process *without* recording a crash report — the
    /// spontaneous-death fault: `lmkd` reaping, a vendor watchdog restart,
    /// or the service silently aborting between transactions. Subsequent
    /// transactions fail with `DEAD_OBJECT`, but — unlike a crash observed
    /// mid-call — no bug report ever appears, which is exactly what lets a
    /// host-side supervisor distinguish "device lost" from "bug found".
    /// Returns `false` for an unknown or already-dead service.
    pub fn kill_service(&mut self, kernel: &mut Kernel, descriptor: &str) -> bool {
        let Some(slot) = self.slots.iter_mut().find(|s| s.descriptor == descriptor) else {
            return false;
        };
        if !slot.alive {
            return false;
        }
        slot.alive = false;
        // The dying process drops its kernel resources (fds, sessions),
        // exactly as the binder driver's death cleanup would.
        let _ = kernel.exit_process(slot.pid);
        true
    }

    /// Drains recorded HAL crash reports.
    pub fn take_crashes(&mut self) -> Vec<BugReport> {
        std::mem::take(&mut self.crashes)
    }

    /// Drops per-client state in every (live) service: the fuzzer's
    /// executor process is one Binder client, and when it exits the
    /// services release that client's sessions, layers, streams and file
    /// descriptors — exactly as `binderDied` cleanup does. Implemented by
    /// tearing down the service's kernel process (running driver
    /// `release` handlers) and respawning it with fresh in-memory state.
    pub fn end_client(&mut self, kernel: &mut Kernel) {
        for slot in &mut self.slots {
            if !slot.alive {
                continue;
            }
            let _ = kernel.exit_process(slot.pid);
            slot.svc.reset();
            slot.pid = kernel.spawn_process(Origin::Hal(slot.tag));
        }
    }

    /// Restarts all services with fresh state and fresh processes in the
    /// (typically also fresh) `kernel` — the device-reboot path.
    pub fn reboot(&mut self, kernel: &mut Kernel) {
        for slot in &mut self.slots {
            slot.svc.reset();
            slot.pid = kernel.spawn_process(Origin::Hal(slot.tag));
            slot.alive = true;
        }
        self.crashes.clear();
    }

    /// Number of registered services.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no services are registered.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simbinder::{InterfaceInfo, MethodInfo, Parcel};

    /// Service that crashes on method 2 and echoes on method 1.
    struct Crashy {
        calls: u32,
    }

    impl HalService for Crashy {
        fn info(&self) -> InterfaceInfo {
            InterfaceInfo {
                descriptor: "test.crashy@1.0::ICrashy/default".into(),
                methods: vec![
                    MethodInfo { name: "echo".into(), code: 1, args: vec![] },
                    MethodInfo { name: "boom".into(), code: 2, args: vec![] },
                ],
            }
        }

        fn on_transact(
            &mut self,
            _sys: &mut KernelHandle<'_>,
            txn: &Transaction,
        ) -> TransactionResult {
            self.calls += 1;
            match txn.code {
                1 => Ok(Parcel::new()),
                2 => Err(crate::service::native_crash("Native crash in Crashy HAL")),
                c => Err(TransactionError::UnknownCode(c)),
            }
        }

        fn reset(&mut self) {
            self.calls = 0;
        }
    }

    #[test]
    fn crash_marks_service_dead_and_records_report() {
        let mut kernel = Kernel::new();
        let mut rt = HalRuntime::new();
        rt.register(&mut kernel, Box::new(Crashy { calls: 0 }));
        let d = "test.crashy@1.0::ICrashy/default";
        assert!(rt.transact(&mut kernel, d, &Transaction::new(1, Parcel::new())).is_ok());
        assert!(rt.is_alive(d));
        let err = rt.transact(&mut kernel, d, &Transaction::new(2, Parcel::new()));
        assert!(matches!(err, Err(TransactionError::DeadObject { .. })));
        assert!(!rt.is_alive(d));
        // Subsequent calls fail without re-recording a crash.
        let err2 = rt.transact(&mut kernel, d, &Transaction::new(1, Parcel::new()));
        assert!(matches!(err2, Err(TransactionError::DeadObject { .. })));
        let crashes = rt.take_crashes();
        assert_eq!(crashes.len(), 1);
        assert_eq!(crashes[0].kind, BugKind::NativeCrash);
        assert_eq!(crashes[0].component, Component::Hal);
        assert_eq!(crashes[0].title, "Native crash in Crashy HAL");
    }

    #[test]
    fn reboot_revives_services() {
        let mut kernel = Kernel::new();
        let mut rt = HalRuntime::new();
        rt.register(&mut kernel, Box::new(Crashy { calls: 0 }));
        let d = "test.crashy@1.0::ICrashy/default";
        rt.transact(&mut kernel, d, &Transaction::new(2, Parcel::new())).unwrap_err();
        assert!(!rt.is_alive(d));
        rt.reboot(&mut kernel);
        assert!(rt.is_alive(d));
        assert!(rt.transact(&mut kernel, d, &Transaction::new(1, Parcel::new())).is_ok());
    }

    #[test]
    fn kill_service_dies_silently_without_a_crash_report() {
        let mut kernel = Kernel::new();
        let mut rt = HalRuntime::new();
        rt.register(&mut kernel, Box::new(Crashy { calls: 0 }));
        let d = "test.crashy@1.0::ICrashy/default";
        assert!(rt.kill_service(&mut kernel, d));
        assert!(!rt.is_alive(d));
        let err = rt.transact(&mut kernel, d, &Transaction::new(1, Parcel::new()));
        assert!(matches!(err, Err(TransactionError::DeadObject { .. })));
        assert!(rt.take_crashes().is_empty(), "spontaneous death leaves no report");
        // Idempotent: a dead or unknown service cannot be killed again.
        assert!(!rt.kill_service(&mut kernel, d));
        assert!(!rt.kill_service(&mut kernel, "nope"));
        // A reboot revives it, as with any other death.
        rt.reboot(&mut kernel);
        assert!(rt.is_alive(d));
    }

    #[test]
    fn unknown_service_is_dead_object() {
        let mut kernel = Kernel::new();
        let mut rt = HalRuntime::new();
        let err = rt.transact(&mut kernel, "nope", &Transaction::new(1, Parcel::new()));
        assert!(matches!(err, Err(TransactionError::DeadObject { .. })));
    }

    #[test]
    fn tags_are_unique_and_resolvable() {
        let mut kernel = Kernel::new();
        let mut rt = HalRuntime::new();
        let t1 = rt.register(&mut kernel, Box::new(Crashy { calls: 0 }));
        assert_eq!(rt.tag_of("test.crashy@1.0::ICrashy/default"), Some(t1));
        assert_eq!(rt.tag_of("missing"), None);
        assert_eq!(rt.len(), 1);
    }
}
