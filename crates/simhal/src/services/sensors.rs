//! Sensors HAL (`android.hardware.sensors@2.1::ISensors/default`) —
//! trigger path for kernel bug #5 (calibration soft lockup).

use crate::service::{HalService, KernelHandle};
use crate::services::{ensure_open, expect_ok, words};
use simbinder::{ArgKind, InterfaceInfo, MethodInfo, Parcel, Transaction, TransactionError, TransactionResult};
use simkernel::drivers::sensorhub;
use simkernel::fd::Fd;
use simkernel::Syscall;

/// Method code: activate/deactivate a sensor.
pub const ACTIVATE: u32 = 1;
/// Method code: set the batching delay.
pub const BATCH: u32 = 2;
/// Method code: flush a sensor's FIFO.
pub const FLUSH: u32 = 3;
/// Method code: run calibration (`mode`, `step`).
pub const CALIBRATE: u32 = 4;
/// Method code: poll one event.
pub const POLL: u32 = 5;

/// The sensors HAL service.
#[derive(Debug, Default)]
pub struct SensorsHal {
    fd: Option<Fd>,
}

impl SensorsHal {
    /// Creates the service.
    pub fn new() -> Self {
        Self::default()
    }
}

impl HalService for SensorsHal {
    fn info(&self) -> InterfaceInfo {
        InterfaceInfo {
            descriptor: "android.hardware.sensors@2.1::ISensors/default".into(),
            methods: vec![
                MethodInfo {
                    name: "activate".into(),
                    code: ACTIVATE,
                    args: vec![ArgKind::Int32, ArgKind::Int32],
                },
                MethodInfo {
                    name: "batch".into(),
                    code: BATCH,
                    args: vec![ArgKind::Int32, ArgKind::Int32],
                },
                MethodInfo { name: "flush".into(), code: FLUSH, args: vec![ArgKind::Int32] },
                MethodInfo {
                    name: "calibrate".into(),
                    code: CALIBRATE,
                    args: vec![ArgKind::Int32, ArgKind::Int32],
                },
                MethodInfo { name: "poll".into(), code: POLL, args: vec![] },
            ],
        }
    }

    fn on_transact(&mut self, sys: &mut KernelHandle<'_>, txn: &Transaction) -> TransactionResult {
        let mut r = txn.data.reader();
        let fd = ensure_open(sys, &mut self.fd, "/dev/sensorhub")?;
        match txn.code {
            ACTIVATE => {
                let id = r.read_i32()?;
                let on = r.read_i32()?;
                if id < 0 || !(0..=1).contains(&on) {
                    return Err(TransactionError::BadParcel("sensor id / flag".into()));
                }
                expect_ok(
                    sys.sys(Syscall::Ioctl {
                        fd,
                        request: sensorhub::SH_ACTIVATE,
                        arg: words([id as u32, on as u32]).as_flattened(),
                    }),
                    "activate",
                )?;
                Ok(Parcel::new())
            }
            BATCH => {
                let id = r.read_i32()?;
                let delay = r.read_i32()?;
                if id < 0 {
                    return Err(TransactionError::BadParcel("sensor id".into()));
                }
                let delay = delay.clamp(1_000, 1_000_000) as u32;
                expect_ok(
                    sys.sys(Syscall::Ioctl {
                        fd,
                        request: sensorhub::SH_SET_DELAY,
                        arg: words([id as u32, delay]).as_flattened(),
                    }),
                    "batch",
                )?;
                Ok(Parcel::new())
            }
            FLUSH => {
                let id = r.read_i32()?;
                if id < 0 {
                    return Err(TransactionError::BadParcel("sensor id".into()));
                }
                expect_ok(
                    sys.sys(Syscall::Ioctl {
                        fd,
                        request: sensorhub::SH_FLUSH,
                        arg: words([id as u32]).as_flattened(),
                    }),
                    "flush",
                )?;
                Ok(Parcel::new())
            }
            CALIBRATE => {
                let mode = r.read_i32()?;
                let step = r.read_i32()?;
                if !(1..=2).contains(&mode) || step < 0 {
                    return Err(TransactionError::BadParcel("mode/step".into()));
                }
                // step passed through unclamped: step == 0 in continuous
                // mode is the kernel's bug #5 condition.
                expect_ok(
                    sys.sys(Syscall::Ioctl {
                        fd,
                        request: sensorhub::SH_CALIBRATE,
                        arg: words([mode as u32, step as u32]).as_flattened(),
                    }),
                    "calibrate",
                )?;
                Ok(Parcel::new())
            }
            POLL => {
                let seq = expect_ok(
                    sys.sys(Syscall::Ioctl {
                        fd,
                        request: sensorhub::SH_READ_EVENT,
                        arg: &[],
                    }),
                    "poll",
                )?;
                let mut reply = Parcel::new();
                reply.write_i64(seq as i64);
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
    use simkernel::drivers::sensorhub::{SensorHubBugs, SensorHubDevice};
    use simkernel::report::BugKind;
    use simkernel::Kernel;

    const DESC: &str = "android.hardware.sensors@2.1::ISensors/default";

    fn setup(armed: bool) -> (Kernel, HalRuntime) {
        let mut kernel = Kernel::new();
        kernel.register_device(Box::new(SensorHubDevice::new(SensorHubBugs {
            calibration_lockup: armed,
        })));
        let mut rt = HalRuntime::new();
        rt.register(&mut kernel, Box::new(SensorsHal::new()));
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
    fn bug5_path_continuous_zero_step_calibration() {
        let (mut k, mut rt) = setup(true);
        let _ = call(&mut k, &mut rt, CALIBRATE, &[2, 0]);
        let bugs = k.take_bugs();
        assert_eq!(bugs.len(), 1);
        assert_eq!(bugs[0].kind, BugKind::SoftLockup);
    }

    #[test]
    fn sensor_event_loop() {
        let (mut k, mut rt) = setup(false);
        call(&mut k, &mut rt, ACTIVATE, &[1, 1]).unwrap();
        call(&mut k, &mut rt, BATCH, &[1, 20_000]).unwrap();
        let reply = call(&mut k, &mut rt, POLL, &[]).unwrap();
        assert_eq!(reply.reader().read_i64().unwrap(), 1);
        call(&mut k, &mut rt, FLUSH, &[1]).unwrap();
        assert!(k.take_bugs().is_empty());
    }
}
