//! Power/Thermal HAL (`android.hardware.power@1.3::IPower/default`).

use crate::service::{HalService, KernelHandle};
use crate::services::{ensure_open, expect_ok, words};
use simbinder::{ArgKind, InterfaceInfo, MethodInfo, Parcel, Transaction, TransactionError, TransactionResult};
use simkernel::drivers::thermal;
use simkernel::fd::Fd;
use simkernel::Syscall;

/// Method code: set a power-hint mode.
pub const SET_MODE: u32 = 1;
/// Method code: set a performance boost level.
pub const SET_BOOST: u32 = 2;
/// Method code: read a thermal zone's temperature.
pub const GET_TEMPERATURE: u32 = 3;

/// The power HAL service.
#[derive(Debug, Default)]
pub struct PowerHal {
    fd: Option<Fd>,
}

impl PowerHal {
    /// Creates the service.
    pub fn new() -> Self {
        Self::default()
    }
}

impl HalService for PowerHal {
    fn info(&self) -> InterfaceInfo {
        InterfaceInfo {
            descriptor: "android.hardware.power@1.3::IPower/default".into(),
            methods: vec![
                MethodInfo { name: "setMode".into(), code: SET_MODE, args: vec![ArgKind::Int32] },
                MethodInfo { name: "setBoost".into(), code: SET_BOOST, args: vec![ArgKind::Int32] },
                MethodInfo {
                    name: "getTemperature".into(),
                    code: GET_TEMPERATURE,
                    args: vec![ArgKind::Int32],
                },
            ],
        }
    }

    fn on_transact(&mut self, sys: &mut KernelHandle<'_>, txn: &Transaction) -> TransactionResult {
        let mut r = txn.data.reader();
        let fd = ensure_open(sys, &mut self.fd, "/dev/thermal")?;
        match txn.code {
            SET_MODE => {
                let mode = r.read_i32()?;
                if !(0..=4).contains(&mode) {
                    return Err(TransactionError::BadParcel("mode".into()));
                }
                expect_ok(
                    sys.sys(Syscall::Ioctl {
                        fd,
                        request: thermal::TH_SET_COOLING,
                        arg: words([mode as u32]).as_flattened(),
                    }),
                    "cooling",
                )?;
                Ok(Parcel::new())
            }
            SET_BOOST => {
                let level = r.read_i32()?.clamp(0, 3) as u32;
                // Boost raises the trip point so throttling kicks in later.
                expect_ok(
                    sys.sys(Syscall::Ioctl {
                        fd,
                        request: thermal::TH_SET_TRIP,
                        arg: words([0, 80_000 + level * 10_000]).as_flattened(),
                    }),
                    "trip",
                )?;
                Ok(Parcel::new())
            }
            GET_TEMPERATURE => {
                let zone = r.read_i32()?;
                if zone < 0 {
                    return Err(TransactionError::BadParcel("zone".into()));
                }
                let milli = expect_ok(
                    sys.sys(Syscall::Ioctl {
                        fd,
                        request: thermal::TH_GET_TEMP,
                        arg: words([zone as u32]).as_flattened(),
                    }),
                    "temp",
                )?;
                let mut reply = Parcel::new();
                reply.write_i32(milli as i32);
                Ok(reply)
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
    use simkernel::Kernel;

    #[test]
    fn temperature_query_roundtrip() {
        let mut kernel = Kernel::new();
        kernel.register_device(Box::new(simkernel::drivers::thermal::ThermalDevice::new()));
        let mut rt = HalRuntime::new();
        rt.register(&mut kernel, Box::new(PowerHal::new()));
        let desc = "android.hardware.power@1.3::IPower/default";
        let mut p = Parcel::new();
        p.write_i32(1);
        let reply = rt.transact(&mut kernel, desc, &Transaction::new(GET_TEMPERATURE, p)).unwrap();
        assert!(reply.reader().read_i32().unwrap() >= 40_000);
        let mut p = Parcel::new();
        p.write_i32(2);
        rt.transact(&mut kernel, desc, &Transaction::new(SET_MODE, p)).unwrap();
    }
}
