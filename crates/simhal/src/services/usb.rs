//! USB Type-C HAL (`android.hardware.usb@1.3::IUsb/default`) — trigger
//! path for kernel bugs #1 (`rt1711_i2c_probe`) and #4 (`tcpc_pr_swap`).

use crate::service::{HalService, KernelHandle};
use crate::services::{ensure_open, expect_ok, words};
use simbinder::{ArgKind, InterfaceInfo, MethodInfo, Parcel, Transaction, TransactionError, TransactionResult};
use simkernel::drivers::tcpc;
use simkernel::fd::Fd;
use simkernel::Syscall;

/// Method code: read port status.
pub const QUERY_PORT_STATUS: u32 = 1;
/// Method code: simulate a cable attach (`cc`, `vbus`).
pub const SIMULATE_ATTACH: u32 = 2;
/// Method code: swap the power role.
pub const SWITCH_POWER_ROLE: u32 = 3;
/// Method code: detach the port.
pub const DETACH: u32 = 4;
/// Method code: force VBUS on/off.
pub const OVERRIDE_VBUS: u32 = 5;
/// Method code: raw vendor register access (`reg`, `len`).
pub const WRITE_VENDOR_REGISTER: u32 = 6;
/// Method code: re-run the controller probe.
pub const RECOVER_CONTROLLER: u32 = 7;

/// The USB Type-C HAL service.
#[derive(Debug, Default)]
pub struct UsbHal {
    fd: Option<Fd>,
}

impl UsbHal {
    /// Creates the service.
    pub fn new() -> Self {
        Self::default()
    }
}

impl HalService for UsbHal {
    fn info(&self) -> InterfaceInfo {
        InterfaceInfo {
            descriptor: "android.hardware.usb@1.3::IUsb/default".into(),
            methods: vec![
                MethodInfo { name: "queryPortStatus".into(), code: QUERY_PORT_STATUS, args: vec![] },
                MethodInfo {
                    name: "simulateAttach".into(),
                    code: SIMULATE_ATTACH,
                    args: vec![ArgKind::Int32, ArgKind::Int32],
                },
                MethodInfo { name: "switchPowerRole".into(), code: SWITCH_POWER_ROLE, args: vec![] },
                MethodInfo { name: "detach".into(), code: DETACH, args: vec![] },
                MethodInfo {
                    name: "overrideVbus".into(),
                    code: OVERRIDE_VBUS,
                    args: vec![ArgKind::Int32],
                },
                MethodInfo {
                    name: "writeVendorRegister".into(),
                    code: WRITE_VENDOR_REGISTER,
                    args: vec![ArgKind::Int32, ArgKind::Int32],
                },
                MethodInfo {
                    name: "recoverController".into(),
                    code: RECOVER_CONTROLLER,
                    args: vec![],
                },
            ],
        }
    }

    fn on_transact(&mut self, sys: &mut KernelHandle<'_>, txn: &Transaction) -> TransactionResult {
        let mut r = txn.data.reader();
        let fd = ensure_open(sys, &mut self.fd, "/dev/tcpc0")?;
        match txn.code {
            QUERY_PORT_STATUS => {
                expect_ok(
                    sys.sys(Syscall::Ioctl { fd, request: tcpc::TCPC_GET_STATUS, arg: &[] }),
                    "status",
                )?;
                Ok(Parcel::new())
            }
            SIMULATE_ATTACH => {
                let cc = r.read_i32()?.clamp(0, 3) as u32;
                let vbus = r.read_i32()?.clamp(0, 1) as u32;
                expect_ok(
                    sys.sys(Syscall::Ioctl { fd, request: tcpc::TCPC_SET_CC, arg: words([cc]).as_flattened() }),
                    "set cc",
                )?;
                expect_ok(
                    sys.sys(Syscall::Ioctl { fd, request: tcpc::TCPC_VBUS, arg: words([vbus]).as_flattened() }),
                    "vbus",
                )?;
                let mode = if cc >= 2 { 2 } else { 1 };
                expect_ok(
                    sys.sys(Syscall::Ioctl {
                        fd,
                        request: tcpc::TCPC_ATTACH,
                        arg: words([mode]).as_flattened(),
                    }),
                    "attach",
                )?;
                Ok(Parcel::new())
            }
            DETACH => {
                expect_ok(
                    sys.sys(Syscall::Ioctl { fd, request: tcpc::TCPC_DETACH, arg: &[] }),
                    "detach",
                )?;
                Ok(Parcel::new())
            }
            SWITCH_POWER_ROLE => {
                expect_ok(
                    sys.sys(Syscall::Ioctl { fd, request: tcpc::TCPC_PR_SWAP, arg: &[] }),
                    "pr swap",
                )?;
                Ok(Parcel::new())
            }
            OVERRIDE_VBUS => {
                let on = r.read_i32()?.clamp(0, 1) as u32;
                expect_ok(
                    sys.sys(Syscall::Ioctl { fd, request: tcpc::TCPC_VBUS, arg: words([on]).as_flattened() }),
                    "vbus",
                )?;
                Ok(Parcel::new())
            }
            WRITE_VENDOR_REGISTER => {
                let reg = r.read_i32()?;
                let len = r.read_i32()?;
                if !(0..=0xff).contains(&reg) || len < 0 {
                    return Err(TransactionError::BadParcel("register/len".into()));
                }
                // NOTE: len is passed through unclamped — a zero-length
                // transfer latches the chip's I²C error (bug #1 setup).
                expect_ok(
                    sys.sys(Syscall::Ioctl {
                        fd,
                        request: tcpc::TCPC_I2C_XFER,
                        arg: words([reg as u32, len as u32]).as_flattened(),
                    }),
                    "i2c xfer",
                )?;
                Ok(Parcel::new())
            }
            RECOVER_CONTROLLER => {
                expect_ok(
                    sys.sys(Syscall::Ioctl { fd, request: tcpc::TCPC_RESET_PROBE, arg: &[] }),
                    "probe",
                )?;
                Ok(Parcel::new())
            }
            c => Err(TransactionError::UnknownCode(c)),
        }
    }

    fn reset(&mut self) {
        *self = Self::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::HalRuntime;
    use simkernel::drivers::tcpc::{TcpcBugs, TcpcDevice};
    use simkernel::Kernel;

    const DESC: &str = "android.hardware.usb@1.3::IUsb/default";

    fn setup(bugs: TcpcBugs) -> (Kernel, HalRuntime) {
        let mut kernel = Kernel::new();
        kernel.register_device(Box::new(TcpcDevice::new(bugs)));
        let mut rt = HalRuntime::new();
        rt.register(&mut kernel, Box::new(UsbHal::new()));
        (kernel, rt)
    }

    fn call(k: &mut Kernel, rt: &mut HalRuntime, code: u32, vals: &[i32]) -> TransactionResult {
        let mut p = Parcel::new();
        for &v in vals {
            p.write_i32(v);
        }
        rt.transact(k, DESC, &Transaction::new(code, p))
    }

    #[test]
    fn bug1_path_vendor_register_then_recover() {
        let (mut k, mut rt) = setup(TcpcBugs { probe_warn: true, ..Default::default() });
        let _ = call(&mut k, &mut rt, WRITE_VENDOR_REGISTER, &[0x10, 0]);
        let _ = call(&mut k, &mut rt, RECOVER_CONTROLLER, &[]);
        let bugs = k.take_bugs();
        assert_eq!(bugs.len(), 1);
        assert_eq!(bugs[0].title, "WARNING in rt1711_i2c_probe");
    }

    #[test]
    fn bug4_path_vbus_override_then_role_swap() {
        let (mut k, mut rt) = setup(TcpcBugs { pr_swap_warn: true, ..Default::default() });
        call(&mut k, &mut rt, OVERRIDE_VBUS, &[1]).unwrap();
        let _ = call(&mut k, &mut rt, SWITCH_POWER_ROLE, &[]);
        let bugs = k.take_bugs();
        assert_eq!(bugs.len(), 1);
        assert!(bugs[0].title.contains("tcpc"));
    }

    #[test]
    fn attached_role_swap_is_clean() {
        let (mut k, mut rt) = setup(TcpcBugs { pr_swap_warn: true, probe_warn: true });
        call(&mut k, &mut rt, SIMULATE_ATTACH, &[1, 1]).unwrap();
        call(&mut k, &mut rt, SWITCH_POWER_ROLE, &[]).unwrap();
        call(&mut k, &mut rt, QUERY_PORT_STATUS, &[]).unwrap();
        call(&mut k, &mut rt, DETACH, &[]).unwrap();
        assert!(k.take_bugs().is_empty());
    }
}
