//! evdev-style input device at `/dev/input<N>`.

use crate::driver::{
    word, CharDevice, DriverApi, DriverCtx, IoctlDesc, IoctlOut, StateModel, Transition,
    WordGuard, WordShape,
};
use crate::errno::Errno;

/// Query supported event bits (`arg[0]` = event type).
pub const EVIOCGBIT: u32 = 0x8004_4502;
/// Grab (`arg[0]` = 1) / release (`arg[0]` = 0) the device.
pub const EVIOCGRAB: u32 = 0x4004_4590;
/// Query device identity.
pub const EVIOCGID: u32 = 0x8008_4502;

/// Declarative state machine of the grab flag. The flag lives on the
/// device (not the open file), so the model is device-global: a second
/// client's grab changes what this fd may do.
fn input_state_model() -> StateModel {
    StateModel::new("Released", &["Released", "Grabbed"]).with(vec![
        Transition::ioctl(EVIOCGBIT).guard(WordGuard::In(0, 5)),
        Transition::ioctl(EVIOCGRAB)
            .guard(WordGuard::Eq(1))
            .from(&["Released"])
            .to("Grabbed"),
        Transition::ioctl(EVIOCGRAB)
            .guard(WordGuard::Eq(0))
            .from(&["Grabbed"])
            .to("Released"),
        Transition::ioctl(EVIOCGID),
        Transition::read().guard(WordGuard::In(8, u32::MAX)),
    ])
}

/// The input driver.
#[derive(Debug)]
pub struct InputDevice {
    index: u32,
    grabbed: bool,
    events: u64,
}

impl InputDevice {
    /// Creates `/dev/input<index>`.
    pub fn new(index: u32) -> Self {
        Self {
            index,
            grabbed: false,
            events: 0,
        }
    }
}

impl CharDevice for InputDevice {
    fn name(&self) -> &'static str {
        "input"
    }

    fn node(&self) -> String {
        format!("/dev/input{}", self.index)
    }

    fn api(&self) -> DriverApi {
        DriverApi {
            ioctls: vec![
                IoctlDesc::with_words(
                    "EVIOCGBIT",
                    EVIOCGBIT,
                    vec![WordShape::Range { min: 0, max: 5 }],
                ),
                IoctlDesc::with_words("EVIOCGRAB", EVIOCGRAB, vec![WordShape::Choice(vec![0, 1])]),
                IoctlDesc::bare("EVIOCGID", EVIOCGID),
            ],
            supports_read: true,
            supports_write: false,
            supports_mmap: false,
            vendor: false,
            state_model: Some(input_state_model()),
        }
    }

    fn read(&mut self, ctx: &mut DriverCtx<'_>, len: usize) -> Result<Vec<u8>, Errno> {
        if len < 8 {
            return Err(Errno::EINVAL);
        }
        self.events += 1;
        ctx.hit(&[1, u64::from(self.grabbed), self.events.min(8)]);
        Ok(vec![0u8; 8])
    }

    fn ioctl(
        &mut self,
        ctx: &mut DriverCtx<'_>,
        request: u32,
        arg: &[u8],
    ) -> Result<IoctlOut, Errno> {
        match request {
            EVIOCGBIT => {
                let ty = word(arg, 0);
                if ty > 5 {
                    return Err(Errno::EINVAL);
                }
                ctx.hit(&[2, u64::from(ty)]);
                Ok(IoctlOut::Val(0x3 << ty))
            }
            EVIOCGRAB => {
                let grab = word(arg, 0);
                match (self.grabbed, grab) {
                    (false, 1) => self.grabbed = true,
                    (true, 0) => self.grabbed = false,
                    (true, 1) => return Err(Errno::EBUSY),
                    (false, 0) => return Err(Errno::EINVAL),
                    _ => return Err(Errno::EINVAL),
                }
                ctx.hit(&[3, u64::from(grab)]);
                Ok(IoctlOut::Val(0))
            }
            EVIOCGID => {
                ctx.hit(&[4]);
                Ok(IoctlOut::Out(vec![0x18, 0x27, self.index as u8, 1]))
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
    fn grab_release_cycle() {
        let mut dev = InputDevice::new(0);
        let (mut g, mut b) = (CoverageMap::new(), BugSink::new());
        let mut ctx = DriverCtx::new(0, "input", None, &mut g, &mut b, 1);
        dev.ioctl(&mut ctx, EVIOCGRAB, &encode_words(&[1])).unwrap();
        assert_eq!(
            dev.ioctl(&mut ctx, EVIOCGRAB, &encode_words(&[1])).unwrap_err(),
            Errno::EBUSY
        );
        dev.ioctl(&mut ctx, EVIOCGRAB, &encode_words(&[0])).unwrap();
    }

    #[test]
    fn short_read_rejected() {
        let mut dev = InputDevice::new(0);
        let (mut g, mut b) = (CoverageMap::new(), BugSink::new());
        let mut ctx = DriverCtx::new(0, "input", None, &mut g, &mut b, 1);
        assert_eq!(dev.read(&mut ctx, 4).unwrap_err(), Errno::EINVAL);
        assert_eq!(dev.read(&mut ctx, 16).unwrap().len(), 8);
    }
}
