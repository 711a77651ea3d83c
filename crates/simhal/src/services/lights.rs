//! Lights HAL (`android.hardware.lights@2.0::ILight/default`).

use crate::service::{HalService, KernelHandle};
use crate::services::{ensure_open, expect_ok, words};
use simbinder::{ArgKind, InterfaceInfo, MethodInfo, Parcel, Transaction, TransactionError, TransactionResult};
use simkernel::drivers::leds;
use simkernel::fd::Fd;
use simkernel::Syscall;

/// Method code: set a light's brightness.
pub const SET_LIGHT: u32 = 1;
/// Method code: set a blink pattern.
pub const BLINK: u32 = 2;

/// The lights HAL service.
#[derive(Debug, Default)]
pub struct LightsHal {
    fd: Option<Fd>,
}

impl LightsHal {
    /// Creates the service.
    pub fn new() -> Self {
        Self::default()
    }
}

impl HalService for LightsHal {
    fn info(&self) -> InterfaceInfo {
        InterfaceInfo {
            descriptor: "android.hardware.lights@2.0::ILight/default".into(),
            methods: vec![
                MethodInfo {
                    name: "setLight".into(),
                    code: SET_LIGHT,
                    args: vec![ArgKind::Int32, ArgKind::Int32],
                },
                MethodInfo {
                    name: "blink".into(),
                    code: BLINK,
                    args: vec![ArgKind::Int32, ArgKind::Int32, ArgKind::Int32],
                },
            ],
        }
    }

    fn on_transact(&mut self, sys: &mut KernelHandle<'_>, txn: &Transaction) -> TransactionResult {
        let mut r = txn.data.reader();
        let fd = ensure_open(sys, &mut self.fd, "/dev/leds")?;
        match txn.code {
            SET_LIGHT => {
                let id = r.read_i32()?;
                let level = r.read_i32()?;
                if id < 0 || !(0..=255).contains(&level) {
                    return Err(TransactionError::BadParcel("led/level".into()));
                }
                expect_ok(
                    sys.sys(Syscall::Ioctl {
                        fd,
                        request: leds::LED_SET_BRIGHTNESS,
                        arg: words([id as u32, level as u32]).as_flattened(),
                    }),
                    "set brightness",
                )?;
                Ok(Parcel::new())
            }
            BLINK => {
                let id = r.read_i32()?;
                let on = r.read_i32()?.clamp(50, 5000) as u32;
                let off = r.read_i32()?.clamp(50, 5000) as u32;
                if id < 0 {
                    return Err(TransactionError::BadParcel("led".into()));
                }
                expect_ok(
                    sys.sys(Syscall::Ioctl {
                        fd,
                        request: leds::LED_SET_BLINK,
                        arg: words([id as u32, on, off]).as_flattened(),
                    }),
                    "blink",
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
    use simkernel::Kernel;

    #[test]
    fn set_light_reaches_kernel_driver() {
        let mut kernel = Kernel::new();
        kernel.register_device(Box::new(simkernel::drivers::leds::LedsDevice::new()));
        let mut rt = HalRuntime::new();
        rt.register(&mut kernel, Box::new(LightsHal::new()));
        let mut p = Parcel::new();
        p.write_i32(0).write_i32(255);
        rt.transact(
            &mut kernel,
            "android.hardware.lights@2.0::ILight/default",
            &Transaction::new(SET_LIGHT, p),
        )
        .unwrap();
        assert!(kernel.global_coverage().len() > 1);
    }
}
