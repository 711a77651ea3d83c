//! LED-class driver at `/dev/leds` — the kernel side of the Lights HAL.

use crate::driver::{
    word, CharDevice, DriverApi, DriverCtx, IoctlDesc, IoctlOut, StateModel, Transition,
    WordGuard, WordShape,
};
use crate::errno::Errno;

/// Set brightness (`arg[0]` = led id, `arg[1]` = 0..=255).
pub const LED_SET_BRIGHTNESS: u32 = 0x4008_4C01;
/// Set blink pattern (`arg[0]` = led, `arg[1]` = on ms, `arg[2]` = off ms).
pub const LED_SET_BLINK: u32 = 0x400C_4C02;
/// Read brightness (`arg[0]` = led id).
pub const LED_GET_BRIGHTNESS: u32 = 0x4004_4C03;

/// Number of LEDs.
pub const LED_COUNT: u32 = 3;

/// Declarative state machine of the LED bank — stateless from the
/// caller's perspective: every in-range call succeeds from the single
/// `Ready` state.
fn leds_state_model() -> StateModel {
    let led = WordGuard::In(0, LED_COUNT - 1);
    StateModel::new("Ready", &["Ready"]).with(vec![
        Transition::ioctl(LED_SET_BRIGHTNESS)
            .guard(led.clone())
            .guard(WordGuard::In(0, 255)),
        Transition::ioctl(LED_SET_BLINK)
            .guard(led.clone())
            .guard(WordGuard::In(50, 5000))
            .guard(WordGuard::In(50, 5000)),
        Transition::ioctl(LED_GET_BRIGHTNESS).guard(led),
    ])
}

/// The LED driver.
#[derive(Debug, Default)]
pub struct LedsDevice {
    brightness: [u32; LED_COUNT as usize],
    blinking: [bool; LED_COUNT as usize],
}

impl LedsDevice {
    /// Creates the LED bank, all off.
    pub fn new() -> Self {
        Self::default()
    }
}

impl CharDevice for LedsDevice {
    fn name(&self) -> &'static str {
        "leds"
    }

    fn node(&self) -> String {
        "/dev/leds".into()
    }

    fn api(&self) -> DriverApi {
        let led = WordShape::Range { min: 0, max: LED_COUNT - 1 };
        DriverApi {
            ioctls: vec![
                IoctlDesc::with_words(
                    "LED_SET_BRIGHTNESS",
                    LED_SET_BRIGHTNESS,
                    vec![led.clone(), WordShape::Range { min: 0, max: 255 }],
                ),
                IoctlDesc::with_words(
                    "LED_SET_BLINK",
                    LED_SET_BLINK,
                    vec![
                        led.clone(),
                        WordShape::Range { min: 50, max: 5000 },
                        WordShape::Range { min: 50, max: 5000 },
                    ],
                ),
                IoctlDesc::with_words("LED_GET_BRIGHTNESS", LED_GET_BRIGHTNESS, vec![led]),
            ],
            supports_read: false,
            supports_write: false,
            supports_mmap: false,
            vendor: false,
            state_model: Some(leds_state_model()),
        }
    }

    fn ioctl(
        &mut self,
        ctx: &mut DriverCtx<'_>,
        request: u32,
        arg: &[u8],
    ) -> Result<IoctlOut, Errno> {
        let led = word(arg, 0);
        if led >= LED_COUNT {
            return Err(Errno::EINVAL);
        }
        match request {
            LED_SET_BRIGHTNESS => {
                let level = word(arg, 1);
                if level > 255 {
                    return Err(Errno::EINVAL);
                }
                self.brightness[led as usize] = level;
                self.blinking[led as usize] = false;
                ctx.hit(&[1, u64::from(led), u64::from(level) / 64]);
                Ok(IoctlOut::Val(0))
            }
            LED_SET_BLINK => {
                let (on, off) = (word(arg, 1), word(arg, 2));
                if !(50..=5000).contains(&on) || !(50..=5000).contains(&off) {
                    return Err(Errno::EINVAL);
                }
                self.blinking[led as usize] = true;
                ctx.hit(&[2, u64::from(led), u64::from(on) / 1000, u64::from(off) / 1000]);
                Ok(IoctlOut::Val(0))
            }
            LED_GET_BRIGHTNESS => {
                ctx.hit(&[3, u64::from(led), u64::from(self.blinking[led as usize])]);
                Ok(IoctlOut::Val(u64::from(self.brightness[led as usize])))
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

    #[test]
    fn set_and_get_brightness() {
        let mut dev = LedsDevice::new();
        let (mut g, mut b) = (CoverageMap::new(), BugSink::new());
        let mut ctx = DriverCtx::new(0, "leds", None, &mut g, &mut b, 1);
        dev.ioctl(&mut ctx, LED_SET_BRIGHTNESS, &encode_words(&[1, 128])).unwrap();
        assert_eq!(
            dev.ioctl(&mut ctx, LED_GET_BRIGHTNESS, &encode_words(&[1])).unwrap(),
            IoctlOut::Val(128)
        );
        assert_eq!(
            dev.ioctl(&mut ctx, LED_SET_BRIGHTNESS, &encode_words(&[7, 1])).unwrap_err(),
            Errno::EINVAL
        );
    }

    #[test]
    fn blink_validates_periods() {
        let mut dev = LedsDevice::new();
        let (mut g, mut b) = (CoverageMap::new(), BugSink::new());
        let mut ctx = DriverCtx::new(0, "leds", None, &mut g, &mut b, 1);
        assert_eq!(
            dev.ioctl(&mut ctx, LED_SET_BLINK, &encode_words(&[0, 10, 500])).unwrap_err(),
            Errno::EINVAL
        );
        dev.ioctl(&mut ctx, LED_SET_BLINK, &encode_words(&[0, 500, 500])).unwrap();
    }
}
