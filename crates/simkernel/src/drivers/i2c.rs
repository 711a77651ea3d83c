//! Generic I²C adapter at `/dev/i2c-<N>`.

use crate::driver::{
    word, CharDevice, DriverApi, DriverCtx, IoctlDesc, IoctlOut, StateModel, Transition,
    WordGuard, WordShape,
};
use crate::errno::Errno;

/// Raw transfer (`arg[0]` = 7-bit address, `arg[1]` = length, `arg[2]` = dir).
pub const I2C_XFER: u32 = 0x400C_6901;
/// SMBus quick command (`arg[0]` = address).
pub const I2C_SMBUS_QUICK: u32 = 0x4004_6902;
/// Set bus speed (`arg[0]` = Hz).
pub const I2C_SET_SPEED: u32 = 0x4004_6903;

/// Addresses with a simulated peripheral behind them.
pub const PRESENT_ADDRS: [u32; 4] = [0x1C, 0x36, 0x50, 0x68];

/// Declarative state machine of the adapter — stateless: transfers to a
/// present peripheral with a legal length always succeed.
fn i2c_state_model() -> StateModel {
    StateModel::new("Ready", &["Ready"]).with(vec![
        Transition::ioctl(I2C_XFER)
            .guard(WordGuard::OneOf(PRESENT_ADDRS.to_vec()))
            .guard(WordGuard::In(1, 32))
            .guard(WordGuard::In(0, 1)),
        Transition::ioctl(I2C_SMBUS_QUICK).guard(WordGuard::In(0, 0x7f)),
        Transition::ioctl(I2C_SET_SPEED)
            .guard(WordGuard::OneOf(vec![100_000, 400_000, 1_000_000])),
    ])
}

/// The I²C adapter driver.
#[derive(Debug)]
pub struct I2cDevice {
    index: u32,
    speed: u32,
    xfers: u64,
}

impl I2cDevice {
    /// Creates adapter `/dev/i2c-<index>` at 100 kHz.
    pub fn new(index: u32) -> Self {
        Self {
            index,
            speed: 100_000,
            xfers: 0,
        }
    }
}

impl CharDevice for I2cDevice {
    fn name(&self) -> &'static str {
        "i2c"
    }

    fn node(&self) -> String {
        format!("/dev/i2c-{}", self.index)
    }

    fn api(&self) -> DriverApi {
        DriverApi {
            ioctls: vec![
                IoctlDesc::with_words(
                    "I2C_XFER",
                    I2C_XFER,
                    vec![
                        WordShape::Choice(PRESENT_ADDRS.to_vec()),
                        WordShape::Range { min: 1, max: 32 },
                        WordShape::Choice(vec![0, 1]),
                    ],
                ),
                IoctlDesc::with_words(
                    "I2C_SMBUS_QUICK",
                    I2C_SMBUS_QUICK,
                    vec![WordShape::Range { min: 0, max: 0x7f }],
                ),
                IoctlDesc::with_words(
                    "I2C_SET_SPEED",
                    I2C_SET_SPEED,
                    vec![WordShape::Choice(vec![100_000, 400_000, 1_000_000])],
                ),
            ],
            supports_read: false,
            supports_write: false,
            supports_mmap: false,
            vendor: false,
            state_model: Some(i2c_state_model()),
        }
    }

    fn ioctl(
        &mut self,
        ctx: &mut DriverCtx<'_>,
        request: u32,
        arg: &[u8],
    ) -> Result<IoctlOut, Errno> {
        match request {
            I2C_XFER => {
                let addr = word(arg, 0);
                let len = word(arg, 1);
                let dir = word(arg, 2);
                if addr > 0x7f || dir > 1 {
                    return Err(Errno::EINVAL);
                }
                if !(1..=32).contains(&len) {
                    return Err(Errno::EINVAL);
                }
                if !PRESENT_ADDRS.contains(&addr) {
                    ctx.hit(&[1, 0, u64::from(addr) / 16]);
                    return Err(Errno::ENXIO);
                }
                self.xfers += 1;
                ctx.hit(&[1, 1, u64::from(addr), u64::from(dir), u64::from(len) / 8]);
                if dir == 1 {
                    Ok(IoctlOut::Out(vec![0x5A; len as usize]))
                } else {
                    Ok(IoctlOut::Val(u64::from(len)))
                }
            }
            I2C_SMBUS_QUICK => {
                let addr = word(arg, 0);
                if addr > 0x7f {
                    return Err(Errno::EINVAL);
                }
                let present = PRESENT_ADDRS.contains(&addr);
                ctx.hit(&[2, u64::from(present)]);
                Ok(IoctlOut::Val(u64::from(present)))
            }
            I2C_SET_SPEED => {
                let hz = word(arg, 0);
                if ![100_000, 400_000, 1_000_000].contains(&hz) {
                    return Err(Errno::EINVAL);
                }
                self.speed = hz;
                ctx.hit(&[3, u64::from(hz) / 100_000]);
                Ok(IoctlOut::Val(0))
            }
            _ => Err(Errno::ENOTTY),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::CoverageMap;
    use crate::driver::encode_words;
    use crate::report::BugSink;

    fn run(dev: &mut I2cDevice, req: u32, words: &[u32]) -> Result<IoctlOut, Errno> {
        let (mut g, mut b) = (CoverageMap::new(), BugSink::new());
        let mut ctx = DriverCtx::new(0xA00, "i2c", None, &mut g, &mut b, 1);
        dev.ioctl(&mut ctx, req, &encode_words(words))
    }

    #[test]
    fn xfer_to_present_device_succeeds() {
        let mut dev = I2cDevice::new(0);
        let out = run(&mut dev, I2C_XFER, &[0x50, 8, 1]).unwrap();
        assert_eq!(out, IoctlOut::Out(vec![0x5A; 8]));
    }

    #[test]
    fn xfer_to_absent_device_is_enxio() {
        let mut dev = I2cDevice::new(0);
        assert_eq!(run(&mut dev, I2C_XFER, &[0x22, 8, 0]).unwrap_err(), Errno::ENXIO);
    }

    #[test]
    fn smbus_quick_probes_presence() {
        let mut dev = I2cDevice::new(1);
        assert_eq!(run(&mut dev, I2C_SMBUS_QUICK, &[0x68]).unwrap(), IoctlOut::Val(1));
        assert_eq!(run(&mut dev, I2C_SMBUS_QUICK, &[0x01]).unwrap(), IoctlOut::Val(0));
    }
}
