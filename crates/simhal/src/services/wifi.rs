//! Wi-Fi HAL (`android.hardware.wifi@1.6::IWifi/default`) — trigger path
//! for kernel bug #10 (`rate_control_rate_init`).

use crate::service::{HalService, KernelHandle};
use crate::services::{ensure_open, expect_ok, words};
use simbinder::{ArgKind, InterfaceInfo, MethodInfo, Parcel, Transaction, TransactionError, TransactionResult};
use simkernel::drivers::wlan;
use simkernel::fd::Fd;
use simkernel::Syscall;

/// Method code: start a scan.
pub const START_SCAN: u32 = 1;
/// Method code: fetch scan results.
pub const GET_SCAN_RESULTS: u32 = 2;
/// Method code: override the supported-rates bitmap.
pub const SET_SUPPORTED_RATES: u32 = 3;
/// Method code: associate with AP index.
pub const CONNECT: u32 = 4;
/// Method code: disassociate.
pub const DISCONNECT: u32 = 5;
/// Method code: set power-save mode.
pub const SET_POWER_MODE: u32 = 6;

/// The Wi-Fi HAL service.
#[derive(Debug, Default)]
pub struct WifiHal {
    fd: Option<Fd>,
}

impl WifiHal {
    /// Creates the service.
    pub fn new() -> Self {
        Self::default()
    }
}

impl HalService for WifiHal {
    fn info(&self) -> InterfaceInfo {
        InterfaceInfo {
            descriptor: "android.hardware.wifi@1.6::IWifi/default".into(),
            methods: vec![
                MethodInfo { name: "startScan".into(), code: START_SCAN, args: vec![] },
                MethodInfo { name: "getScanResults".into(), code: GET_SCAN_RESULTS, args: vec![] },
                MethodInfo {
                    name: "setSupportedRates".into(),
                    code: SET_SUPPORTED_RATES,
                    args: vec![ArgKind::Int32],
                },
                MethodInfo { name: "connect".into(), code: CONNECT, args: vec![ArgKind::Int32] },
                MethodInfo { name: "disconnect".into(), code: DISCONNECT, args: vec![] },
                MethodInfo {
                    name: "setPowerMode".into(),
                    code: SET_POWER_MODE,
                    args: vec![ArgKind::Int32],
                },
            ],
        }
    }

    fn on_transact(&mut self, sys: &mut KernelHandle<'_>, txn: &Transaction) -> TransactionResult {
        let mut r = txn.data.reader();
        let fd = ensure_open(sys, &mut self.fd, "/dev/wlan0")?;
        match txn.code {
            START_SCAN => {
                expect_ok(
                    sys.sys(Syscall::Ioctl { fd, request: wlan::WL_SCAN_START, arg: &[] }),
                    "scan",
                )?;
                Ok(Parcel::new())
            }
            GET_SCAN_RESULTS => {
                let n = expect_ok(
                    sys.sys(Syscall::Ioctl { fd, request: wlan::WL_SCAN_RESULTS, arg: &[] }),
                    "results",
                )?;
                let mut reply = Parcel::new();
                reply.write_i32(n as i32);
                Ok(reply)
            }
            SET_SUPPORTED_RATES => {
                let mask = r.read_i32()? as u32;
                expect_ok(
                    sys.sys(Syscall::Ioctl {
                        fd,
                        request: wlan::WL_SET_RATES,
                        arg: words([mask]).as_flattened(),
                    }),
                    "set rates",
                )?;
                Ok(Parcel::new())
            }
            CONNECT => {
                let idx = r.read_i32()?;
                if idx < 0 {
                    return Err(TransactionError::BadParcel("negative ap index".into()));
                }
                expect_ok(
                    sys.sys(Syscall::Ioctl {
                        fd,
                        request: wlan::WL_CONNECT,
                        arg: words([idx as u32]).as_flattened(),
                    }),
                    "connect",
                )?;
                Ok(Parcel::new())
            }
            DISCONNECT => {
                expect_ok(
                    sys.sys(Syscall::Ioctl { fd, request: wlan::WL_DISCONNECT, arg: &[] }),
                    "disconnect",
                )?;
                Ok(Parcel::new())
            }
            SET_POWER_MODE => {
                let level = r.read_i32()?.clamp(0, 3) as u32;
                expect_ok(
                    sys.sys(Syscall::Ioctl {
                        fd,
                        request: wlan::WL_SET_POWER,
                        arg: words([level]).as_flattened(),
                    }),
                    "power",
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
    use simkernel::drivers::wlan::{WlanBugs, WlanDevice};
    use simkernel::Kernel;

    const DESC: &str = "android.hardware.wifi@1.6::IWifi/default";

    fn setup(armed: bool) -> (Kernel, HalRuntime) {
        let mut kernel = Kernel::new();
        kernel.register_device(Box::new(WlanDevice::new(WlanBugs { rate_init_warn: armed })));
        let mut rt = HalRuntime::new();
        rt.register(&mut kernel, Box::new(WifiHal::new()));
        (kernel, rt)
    }

    fn call(k: &mut Kernel, rt: &mut HalRuntime, code: u32, v: Option<i32>) -> TransactionResult {
        let mut p = Parcel::new();
        if let Some(v) = v {
            p.write_i32(v);
        }
        rt.transact(k, DESC, &Transaction::new(code, p))
    }

    #[test]
    fn bug10_path_through_hal() {
        let (mut k, mut rt) = setup(true);
        call(&mut k, &mut rt, START_SCAN, None).unwrap();
        call(&mut k, &mut rt, GET_SCAN_RESULTS, None).unwrap();
        call(&mut k, &mut rt, SET_SUPPORTED_RATES, Some(0)).unwrap();
        let _ = call(&mut k, &mut rt, CONNECT, Some(0));
        let bugs = k.take_bugs();
        assert_eq!(bugs.len(), 1);
        assert!(bugs[0].title.contains("rate_control_rate_init"));
    }

    #[test]
    fn normal_association_cycle() {
        let (mut k, mut rt) = setup(true);
        call(&mut k, &mut rt, START_SCAN, None).unwrap();
        call(&mut k, &mut rt, GET_SCAN_RESULTS, None).unwrap();
        call(&mut k, &mut rt, CONNECT, Some(0)).unwrap();
        call(&mut k, &mut rt, DISCONNECT, None).unwrap();
        assert!(k.take_bugs().is_empty());
    }
}
