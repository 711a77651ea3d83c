//! A booted device: kernel + HAL runtime per a firmware spec, with the
//! reboot semantics the paper's fuzzer relies on ("reboot the target
//! devices upon encountering any bugs").

use crate::firmware::{DriverKind, FirmwareSpec, ServiceKind};
use simbinder::{ServiceManager, Transaction, TransactionResult};
use simhal::runtime::HalRuntime;
use simhal::HalService;
use simkernel::drivers::bt::{BtBugs, BtStack};
use simkernel::report::BugReport;
use simkernel::Kernel;

/// A booted simulated device.
#[derive(Debug)]
pub struct Device {
    spec: FirmwareSpec,
    kernel: Kernel,
    hal: HalRuntime,
    boots: u32,
    ioctl_only: bool,
}

fn build_kernel(spec: &FirmwareSpec) -> Kernel {
    let bt = BtStack::with_bugs(BtBugs {
        hci_codecs_kasan: spec.bugs.hci_codecs_kasan,
        l2cap_disconn_warn: spec.bugs.l2cap_disconn_warn,
        accept_unlink_uaf: spec.bugs.accept_unlink_uaf,
    });
    let mut kernel = Kernel::with_bt(bt);
    use simkernel::drivers::*;
    for &driver in &spec.drivers {
        let dev: Box<dyn simkernel::driver::CharDevice> = match driver {
            DriverKind::Tcpc => Box::new(tcpc::TcpcDevice::new(tcpc::TcpcBugs {
                probe_warn: spec.bugs.tcpc_probe_warn,
                pr_swap_warn: spec.bugs.tcpc_pr_swap_warn,
            })),
            DriverKind::SensorHub => Box::new(sensorhub::SensorHubDevice::new(
                sensorhub::SensorHubBugs { calibration_lockup: spec.bugs.sensor_lockup },
            )),
            DriverKind::Wlan => Box::new(wlan::WlanDevice::new(wlan::WlanBugs {
                rate_init_warn: spec.bugs.rate_init_warn,
            })),
            DriverKind::V4l2 => Box::new(v4l2::V4l2Device::with_bugs(
                0,
                v4l2::V4l2Bugs { querycap_warn: spec.bugs.querycap_warn },
            )),
            DriverKind::Ion => Box::new(ion::IonDevice::new()),
            DriverKind::Gpu => Box::new(gpu::GpuDevice::new(gpu::GpuBugs {
                subclass_bug: spec.bugs.gpu_subclass_bug,
            })),
            DriverKind::Drm => Box::new(drm::DrmDevice::new()),
            DriverKind::Vcodec => Box::new(vcodec::VcodecDevice::new()),
            DriverKind::Pcm => Box::new(audio::PcmDevice::new()),
            DriverKind::I2c => Box::new(i2c::I2cDevice::new(0)),
            DriverKind::Input => Box::new(input::InputDevice::new(0)),
            DriverKind::Thermal => Box::new(thermal::ThermalDevice::new()),
            DriverKind::Leds => Box::new(leds::LedsDevice::new()),
        };
        kernel.register_device(dev);
    }
    kernel
}

fn build_service(kind: ServiceKind, spec: &FirmwareSpec) -> Box<dyn HalService> {
    use simhal::services::*;
    match kind {
        ServiceKind::Graphics => Box::new(graphics::ComposerHal::new(spec.bugs.graphics_crash)),
        ServiceKind::Media => Box::new(media::MediaHal::new(spec.bugs.media_crash)),
        ServiceKind::Camera => Box::new(camera::CameraHal::new(spec.bugs.camera_crash)),
        ServiceKind::Audio => Box::new(audio::AudioHal::new()),
        ServiceKind::Sensors => Box::new(sensors::SensorsHal::new()),
        ServiceKind::Bluetooth => Box::new(bluetooth::BluetoothHal::new()),
        ServiceKind::Wifi => Box::new(wifi::WifiHal::new()),
        ServiceKind::Lights => Box::new(lights::LightsHal::new()),
        ServiceKind::Power => Box::new(power::PowerHal::new()),
        ServiceKind::Usb => Box::new(usb::UsbHal::new()),
    }
}

impl Device {
    /// Boots a device from `spec`.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`FirmwareSpec::validate`] — a service
    /// without its kernel driver would brick a real image too.
    pub fn boot(spec: FirmwareSpec) -> Self {
        if let Err((svc, drv)) = spec.validate() {
            panic!("firmware spec for {}: service {svc:?} requires driver {drv:?}", spec.meta.id);
        }
        let mut kernel = build_kernel(&spec);
        let mut hal = HalRuntime::new();
        for &kind in &spec.services {
            hal.register(&mut kernel, build_service(kind, &spec));
        }
        Self { spec, kernel, hal, boots: 1, ioctl_only: false }
    }

    /// The firmware spec this device was booted from.
    pub fn spec(&self) -> &FirmwareSpec {
        &self.spec
    }

    /// Times the device has booted (1 after [`boot`](Self::boot)).
    pub fn boot_count(&self) -> u32 {
        self.boots
    }

    /// The kernel (mutable: syscalls mutate it).
    pub fn kernel(&mut self) -> &mut Kernel {
        &mut self.kernel
    }

    /// Read-only view of the kernel.
    pub fn kernel_ref(&self) -> &Kernel {
        &self.kernel
    }

    /// The service registry (`lshal` view).
    pub fn service_manager(&self) -> &ServiceManager {
        self.hal.service_manager()
    }

    /// The HAL tag for a service descriptor.
    pub fn hal_tag(&self, descriptor: &str) -> Option<u32> {
        self.hal.tag_of(descriptor)
    }

    /// Sends a Binder transaction to a HAL service.
    pub fn transact(&mut self, descriptor: &str, txn: &Transaction) -> TransactionResult {
        self.hal.transact(&mut self.kernel, descriptor, txn)
    }

    /// Drains bug reports from both the kernel log and HAL crash dumps.
    pub fn take_bug_reports(&mut self) -> Vec<BugReport> {
        let mut reports = self.kernel.take_bugs();
        reports.extend(self.hal.take_crashes());
        reports
    }

    /// Whether the device is unusable until rebooted (kernel wedged). The
    /// paper's fuzzer reboots on *any* bug; this flags the mandatory case.
    pub fn is_wedged(&self) -> bool {
        self.kernel.is_wedged()
    }

    /// Whether a HAL service is still alive.
    pub fn hal_alive(&self, descriptor: &str) -> bool {
        self.hal.is_alive(descriptor)
    }

    /// Whether every HAL service is alive: one pass over the runtime's
    /// service slots, with no descriptor copies or lookups.
    pub fn all_hal_alive(&self) -> bool {
        self.hal.all_alive()
    }

    /// Fault injection: kills a HAL service *silently* (no crash report,
    /// unlike a crash observed mid-transaction). Subsequent calls to it
    /// fail with `DEAD_OBJECT`; a reboot revives it. Returns `false` for
    /// an unknown or already-dead service.
    pub fn kill_hal_service(&mut self, descriptor: &str) -> bool {
        self.hal.kill_service(&mut self.kernel, descriptor)
    }

    /// Fault injection: wedges the kernel without any bug report — the
    /// spontaneous device hang. All syscalls fail with `EIO` and every
    /// undelivered feedback reply is lost until [`reboot`](Self::reboot).
    pub fn force_wedge(&mut self) {
        self.kernel.force_wedge();
    }

    /// Descriptors of all registered HAL services, in sorted order
    /// (deterministic — fault victims are picked by index into this). For
    /// a liveness check use [`all_hal_alive`](Self::all_hal_alive).
    pub fn hal_descriptors(&self) -> Vec<String> {
        self.service_manager().list().iter().map(|s| (*s).to_owned()).collect()
    }

    /// Ends the current Binder client session: every HAL service drops
    /// the state (and kernel resources) it held for that client. Called by
    /// the execution broker after each test case, mirroring executor
    /// process exit.
    pub fn end_hal_client(&mut self) {
        self.hal.end_client(&mut self.kernel);
    }

    /// Applies or lifts the ioctl-only syscall restriction (survives
    /// reboot; used by the DroidFuzz-D and Difuze experiment setups).
    pub fn set_ioctl_only(&mut self, on: bool) {
        self.ioctl_only = on;
        self.kernel.set_ioctl_only(on);
    }

    /// Reboots: fresh kernel state (coverage, driver state, sockets) and
    /// restarted HAL services. Host-side state (corpus, relations,
    /// accumulated coverage) is unaffected — it lives in the fuzzer.
    pub fn reboot(&mut self) {
        self.kernel = build_kernel(&self.spec);
        self.kernel.set_ioctl_only(self.ioctl_only);
        self.hal.reboot(&mut self.kernel);
        self.boots += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use simbinder::Parcel;

    #[test]
    fn boot_registers_drivers_and_services() {
        let mut dev = catalog::device_a1().boot();
        assert!(!dev.kernel().device_nodes().is_empty());
        assert!(!dev.service_manager().is_empty());
        assert_eq!(dev.boot_count(), 1);
    }

    #[test]
    fn reboot_clears_kernel_state_and_revives_hal() {
        let mut dev = catalog::device_c1().boot();
        // Crash the camera HAL (bug #9 armed on C1).
        let d = "android.hardware.camera.provider@2.6::ICameraProvider/internal/0";
        dev.transact(d, &Transaction::new(simhal::services::camera::OPEN_SESSION, Parcel::new()))
            .unwrap();
        let mut p = Parcel::new();
        p.write_i32(1).write_i32(640).write_i32(480);
        dev.transact(d, &Transaction::new(simhal::services::camera::CONFIGURE_STREAMS, p))
            .unwrap();
        dev.transact(d, &Transaction::new(simhal::services::camera::CLOSE_SESSION, Parcel::new()))
            .unwrap();
        let err = dev.transact(
            d,
            &Transaction::new(simhal::services::camera::PROCESS_CAPTURE_REQUEST, Parcel::new()),
        );
        assert!(err.is_err());
        assert!(!dev.hal_alive(d));
        let reports = dev.take_bug_reports();
        assert_eq!(reports.len(), 1);
        assert!(reports[0].title.contains("Camera HAL"));
        let cov_before = dev.kernel_ref().global_coverage().len();
        assert!(cov_before > 0);
        dev.reboot();
        assert!(dev.hal_alive(d));
        assert_eq!(dev.kernel_ref().global_coverage().len(), 0);
        assert_eq!(dev.boot_count(), 2);
    }

    #[test]
    fn service_manager_list_and_runtime_slots_agree_on_every_device() {
        for spec in catalog::all_devices() {
            let id = spec.meta.id.clone();
            let dev = spec.boot();
            // Every listed descriptor resolves to its own slot, and no
            // slot is unlisted: `all_hal_alive` (over slots) and a check
            // of each listed descriptor see the same services.
            let listed = dev.service_manager().list();
            let mut tags: Vec<u32> =
                listed.iter().map(|d| dev.hal_tag(d).expect("listed service has a slot")).collect();
            tags.sort_unstable();
            tags.dedup();
            assert_eq!(tags.len(), listed.len(), "device {id}: descriptors share a slot");
            assert_eq!(dev.hal.len(), listed.len(), "device {id}: unlisted slot");
            assert!(dev.all_hal_alive(), "device {id}");
        }
    }

    #[test]
    fn all_hal_alive_tracks_every_service() {
        let mut dev = catalog::device_a1().boot();
        for victim in dev.hal_descriptors() {
            assert!(dev.all_hal_alive());
            assert!(dev.kill_hal_service(&victim));
            assert!(!dev.all_hal_alive(), "{victim} is dead");
            dev.reboot();
        }
        assert!(dev.all_hal_alive());
    }

    #[test]
    fn kill_hal_service_is_silent_until_reboot() {
        let mut dev = catalog::device_a1().boot();
        let victim = dev.hal_descriptors().first().cloned().expect("A1 has services");
        assert!(dev.hal_alive(&victim));
        assert!(dev.kill_hal_service(&victim));
        assert!(!dev.hal_alive(&victim));
        assert!(
            dev.take_bug_reports().is_empty(),
            "spontaneous service death must not look like a fuzzer-found bug"
        );
        assert!(!dev.kill_hal_service(&victim), "already dead");
        dev.reboot();
        assert!(dev.hal_alive(&victim));
    }

    #[test]
    fn force_wedge_fails_syscalls_without_a_report() {
        let mut dev = catalog::device_a1().boot();
        assert!(!dev.is_wedged());
        dev.force_wedge();
        assert!(dev.is_wedged());
        assert!(dev.take_bug_reports().is_empty(), "no splat for a spontaneous hang");
        let pid = dev.kernel().spawn_process(simkernel::trace::Origin::Native);
        let ret = dev
            .kernel()
            .syscall(pid, simkernel::Syscall::Openat { path: "/dev/tcpc0" });
        assert!(matches!(ret, simkernel::SyscallRet::Err(_)));
        dev.reboot();
        assert!(!dev.is_wedged());
    }

    #[test]
    #[should_panic(expected = "requires driver")]
    fn invalid_spec_panics_at_boot() {
        let mut spec = catalog::device_a1();
        spec.drivers.clear();
        let _ = spec.boot();
    }
}
