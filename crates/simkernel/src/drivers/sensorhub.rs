//! Vendor sensor-hub driver at `/dev/sensorhub`.
//!
//! Carries Table II bug **#5** (device A2): the calibration loop spins
//! forever when asked for continuous-mode calibration with a zero step
//! size, tripping the soft-lockup watchdog.

use crate::driver::{
    word, CharDevice, DriverApi, DriverCtx, IoctlDesc, IoctlOut, StateModel, Transition,
    WordGuard, WordShape,
};
use crate::errno::Errno;

/// Activate sensor (`arg[0]` = sensor id, `arg[1]` = 0/1).
pub const SH_ACTIVATE: u32 = 0x4008_5301;
/// Set sampling delay (`arg[0]` = sensor id, `arg[1]` = delay µs).
pub const SH_SET_DELAY: u32 = 0x4008_5302;
/// Run calibration (`arg[0]` = mode, `arg[1]` = step).
pub const SH_CALIBRATE: u32 = 0x4008_5303;
/// Read one event (scalar timestamp returned).
pub const SH_READ_EVENT: u32 = 0x8004_5304;
/// Flush a sensor's FIFO (`arg[0]` = sensor id).
pub const SH_FLUSH: u32 = 0x4004_5305;
/// Query firmware version.
pub const SH_GET_VERSION: u32 = 0x8004_5306;

/// One-shot calibration mode.
pub const CAL_ONESHOT: u32 = 1;
/// Continuous calibration mode (the buggy path when `step == 0`).
pub const CAL_CONTINUOUS: u32 = 2;

/// Number of simulated sensors on the hub.
pub const SENSOR_COUNT: u32 = 6;

/// Declarative state machine of the hub, tracking the activation mask
/// coarsely:
///
/// - `Off`: every sensor inactive (boot);
/// - `A0`: sensor 0 is active, the rest untracked;
/// - `AX`: at least one sensor is active, identities untracked.
///
/// Continuous calibration with a zero step is the hazard transition —
/// armed firmware spins into the soft-lockup watchdog (bug #5), so the
/// interpreter stops trusting success claims after one. With step ≥ 1
/// it converges well inside the per-call watchdog budget.
fn sensorhub_state_model() -> StateModel {
    let id = || WordGuard::In(0, SENSOR_COUNT - 1);
    StateModel::new("Off", &["Off", "A0", "AX"]).with(vec![
        Transition::ioctl(SH_ACTIVATE).guard(id()).guard(WordGuard::Eq(0)).from(&["Off"]),
        Transition::ioctl(SH_ACTIVATE)
            .guard(WordGuard::Eq(0))
            .guard(WordGuard::Eq(1))
            .from(&["Off"])
            .to("A0"),
        Transition::ioctl(SH_ACTIVATE)
            .guard(WordGuard::In(1, SENSOR_COUNT - 1))
            .guard(WordGuard::Eq(1))
            .from(&["Off"])
            .to("AX"),
        Transition::ioctl(SH_ACTIVATE).guard(id()).guard(WordGuard::Eq(1)).from(&["A0", "AX"]),
        Transition::ioctl(SH_ACTIVATE)
            .guard(WordGuard::In(1, SENSOR_COUNT - 1))
            .guard(WordGuard::Eq(0))
            .from(&["A0"]),
        // Deactivation from a coarse state may empty the mask.
        Transition::ioctl(SH_ACTIVATE)
            .guard(WordGuard::Eq(0))
            .guard(WordGuard::Eq(0))
            .from(&["A0"])
            .to("Off")
            .may_fail(),
        Transition::ioctl(SH_ACTIVATE)
            .guard(id())
            .guard(WordGuard::Eq(0))
            .from(&["AX"])
            .to("Off")
            .may_fail(),
        Transition::ioctl(SH_SET_DELAY).guard(id()).guard(WordGuard::In(1000, 1_000_000)),
        Transition::ioctl(SH_CALIBRATE).guard(WordGuard::Eq(CAL_ONESHOT)),
        Transition::ioctl(SH_CALIBRATE)
            .guard(WordGuard::Eq(CAL_CONTINUOUS))
            .guard(WordGuard::In(1, u32::MAX)),
        Transition::ioctl(SH_CALIBRATE)
            .guard(WordGuard::Eq(CAL_CONTINUOUS))
            .guard(WordGuard::Eq(0))
            .may_fail()
            .hazard(),
        Transition::ioctl(SH_READ_EVENT).from(&["A0", "AX"]),
        Transition::ioctl(SH_FLUSH).guard(WordGuard::Eq(0)).from(&["A0"]),
        Transition::ioctl(SH_FLUSH)
            .guard(WordGuard::In(1, SENSOR_COUNT - 1))
            .from(&["A0"])
            .may_fail(),
        Transition::ioctl(SH_FLUSH).guard(id()).from(&["AX"]).may_fail(),
        Transition::ioctl(SH_GET_VERSION),
        Transition::read().from(&["A0", "AX"]),
    ])
}

/// Which injected sensor-hub bugs the firmware arms.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SensorHubBugs {
    /// Bug #5 (device A2): infinite calibration loop.
    pub calibration_lockup: bool,
}

/// The sensor-hub driver.
#[derive(Debug)]
pub struct SensorHubDevice {
    armed: SensorHubBugs,
    active: [bool; SENSOR_COUNT as usize],
    delay_us: [u32; SENSOR_COUNT as usize],
    calibrated: [bool; SENSOR_COUNT as usize],
    events_read: u64,
}

impl SensorHubDevice {
    /// Creates a hub with the given bugs armed.
    pub fn new(armed: SensorHubBugs) -> Self {
        Self {
            armed,
            active: [false; SENSOR_COUNT as usize],
            delay_us: [66_667; SENSOR_COUNT as usize],
            calibrated: [false; SENSOR_COUNT as usize],
            events_read: 0,
        }
    }

    fn active_mask(&self) -> u64 {
        self.active
            .iter()
            .enumerate()
            .fold(0u64, |m, (i, &a)| m | (u64::from(a) << i))
    }
}

impl CharDevice for SensorHubDevice {
    fn name(&self) -> &'static str {
        "sensorhub"
    }

    fn node(&self) -> String {
        "/dev/sensorhub".into()
    }

    fn api(&self) -> DriverApi {
        let sensor_id = WordShape::Range { min: 0, max: SENSOR_COUNT - 1 };
        DriverApi {
            ioctls: vec![
                IoctlDesc::with_words(
                    "SH_ACTIVATE",
                    SH_ACTIVATE,
                    vec![sensor_id.clone(), WordShape::Choice(vec![0, 1])],
                ),
                IoctlDesc::with_words(
                    "SH_SET_DELAY",
                    SH_SET_DELAY,
                    vec![sensor_id.clone(), WordShape::Range { min: 1000, max: 1_000_000 }],
                ),
                IoctlDesc::with_words(
                    "SH_CALIBRATE",
                    SH_CALIBRATE,
                    vec![
                        WordShape::Choice(vec![CAL_ONESHOT, CAL_CONTINUOUS]),
                        WordShape::Range { min: 0, max: 64 },
                    ],
                ),
                IoctlDesc::bare("SH_READ_EVENT", SH_READ_EVENT),
                IoctlDesc::with_words("SH_FLUSH", SH_FLUSH, vec![sensor_id]),
                IoctlDesc::bare("SH_GET_VERSION", SH_GET_VERSION),
            ],
            supports_read: true,
            supports_write: false,
            supports_mmap: false,
            vendor: true,
            state_model: Some(sensorhub_state_model()),
        }
    }

    fn read(&mut self, ctx: &mut DriverCtx<'_>, len: usize) -> Result<Vec<u8>, Errno> {
        if self.active_mask() == 0 {
            return Err(Errno::EAGAIN);
        }
        self.events_read += 1;
        let n = len.min(16);
        ctx.hit(&[1, self.active_mask(), self.events_read.min(8), n as u64 / 4]);
        Ok(vec![0u8; n])
    }

    fn ioctl(
        &mut self,
        ctx: &mut DriverCtx<'_>,
        request: u32,
        arg: &[u8],
    ) -> Result<IoctlOut, Errno> {
        match request {
            SH_ACTIVATE => {
                let id = word(arg, 0);
                let on = word(arg, 1);
                if id >= SENSOR_COUNT || on > 1 {
                    return Err(Errno::EINVAL);
                }
                self.active[id as usize] = on == 1;
                ctx.hit(&[2, u64::from(id), u64::from(on), self.active_mask()]);
                Ok(IoctlOut::Val(0))
            }
            SH_SET_DELAY => {
                let id = word(arg, 0);
                let delay = word(arg, 1);
                if id >= SENSOR_COUNT {
                    return Err(Errno::EINVAL);
                }
                if !(1000..=1_000_000).contains(&delay) {
                    return Err(Errno::EINVAL);
                }
                self.delay_us[id as usize] = delay;
                ctx.hit(&[3, u64::from(id), u64::from(delay) / 100_000]);
                Ok(IoctlOut::Val(0))
            }
            SH_CALIBRATE => {
                let mode = word(arg, 0);
                let step = word(arg, 1);
                match mode {
                    CAL_ONESHOT => {
                        ctx.hit(&[4, 1, u64::from(step).min(16)]);
                        for c in &mut self.calibrated {
                            *c = true;
                        }
                        Ok(IoctlOut::Val(1))
                    }
                    CAL_CONTINUOUS => {
                        ctx.hit(&[4, 2, u64::from(step).min(16)]);
                        if step == 0 {
                            if self.armed.calibration_lockup {
                                // Bug #5: convergence never advances with a
                                // zero step; spin until the watchdog fires.
                                while ctx.spin(64) {}
                                return Err(Errno::EINTR);
                            }
                            return Err(Errno::EINVAL);
                        }
                        // Converges after step-dependent iterations.
                        let iters = (256 / u64::from(step)).max(1);
                        if !ctx.spin(iters) {
                            return Err(Errno::EINTR);
                        }
                        for c in &mut self.calibrated {
                            *c = true;
                        }
                        ctx.hit_path(4, &[4, 3, iters.min(16)]);
                        Ok(IoctlOut::Val(iters))
                    }
                    _ => Err(Errno::EINVAL),
                }
            }
            SH_READ_EVENT => {
                if self.active_mask() == 0 {
                    return Err(Errno::EAGAIN);
                }
                self.events_read += 1;
                let calibrated = self.calibrated.iter().filter(|&&c| c).count() as u64;
                ctx.hit_path(3, &[5, self.active_mask(), calibrated]);
                Ok(IoctlOut::Val(self.events_read))
            }
            SH_FLUSH => {
                let id = word(arg, 0);
                if id >= SENSOR_COUNT {
                    return Err(Errno::EINVAL);
                }
                if !self.active[id as usize] {
                    return Err(Errno::ENODEV);
                }
                ctx.hit(&[6, u64::from(id)]);
                Ok(IoctlOut::Val(0))
            }
            SH_GET_VERSION => {
                ctx.hit(&[7]);
                Ok(IoctlOut::Out(vec![2, 1, 0, 0]))
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
    use crate::report::{BugKind, BugSink};

    fn run(
        dev: &mut SensorHubDevice,
        g: &mut CoverageMap,
        b: &mut BugSink,
        req: u32,
        words: &[u32],
    ) -> Result<IoctlOut, Errno> {
        let mut ctx = DriverCtx::new(0x200, "sensorhub", None, g, b, 1);
        dev.ioctl(&mut ctx, req, &encode_words(words))
    }

    #[test]
    fn bug5_zero_step_continuous_calibration_locks_up() {
        let mut dev = SensorHubDevice::new(SensorHubBugs { calibration_lockup: true });
        let (mut g, mut b) = (CoverageMap::new(), BugSink::new());
        assert_eq!(
            run(&mut dev, &mut g, &mut b, SH_CALIBRATE, &[CAL_CONTINUOUS, 0]).unwrap_err(),
            Errno::EINTR
        );
        let reports = b.take();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].kind, BugKind::SoftLockup);
        assert!(reports[0].title.contains("sensorhub"));
    }

    #[test]
    fn zero_step_is_rejected_when_unarmed() {
        let mut dev = SensorHubDevice::new(SensorHubBugs::default());
        let (mut g, mut b) = (CoverageMap::new(), BugSink::new());
        assert_eq!(
            run(&mut dev, &mut g, &mut b, SH_CALIBRATE, &[CAL_CONTINUOUS, 0]).unwrap_err(),
            Errno::EINVAL
        );
        assert!(b.take().is_empty());
    }

    #[test]
    fn continuous_calibration_with_step_converges() {
        let mut dev = SensorHubDevice::new(SensorHubBugs { calibration_lockup: true });
        let (mut g, mut b) = (CoverageMap::new(), BugSink::new());
        let out = run(&mut dev, &mut g, &mut b, SH_CALIBRATE, &[CAL_CONTINUOUS, 8]).unwrap();
        assert_eq!(out, IoctlOut::Val(32));
        assert!(b.take().is_empty());
    }

    #[test]
    fn read_requires_an_active_sensor() {
        let mut dev = SensorHubDevice::new(SensorHubBugs::default());
        let (mut g, mut b) = (CoverageMap::new(), BugSink::new());
        assert_eq!(
            run(&mut dev, &mut g, &mut b, SH_READ_EVENT, &[]).unwrap_err(),
            Errno::EAGAIN
        );
        run(&mut dev, &mut g, &mut b, SH_ACTIVATE, &[2, 1]).unwrap();
        assert_eq!(
            run(&mut dev, &mut g, &mut b, SH_READ_EVENT, &[]).unwrap(),
            IoctlOut::Val(1)
        );
    }

    #[test]
    fn delay_bounds_are_enforced() {
        let mut dev = SensorHubDevice::new(SensorHubBugs::default());
        let (mut g, mut b) = (CoverageMap::new(), BugSink::new());
        assert_eq!(
            run(&mut dev, &mut g, &mut b, SH_SET_DELAY, &[0, 10]).unwrap_err(),
            Errno::EINVAL
        );
        run(&mut dev, &mut g, &mut b, SH_SET_DELAY, &[0, 5000]).unwrap();
    }

    #[test]
    fn flush_inactive_sensor_is_enodev() {
        let mut dev = SensorHubDevice::new(SensorHubBugs::default());
        let (mut g, mut b) = (CoverageMap::new(), BugSink::new());
        assert_eq!(
            run(&mut dev, &mut g, &mut b, SH_FLUSH, &[1]).unwrap_err(),
            Errno::ENODEV
        );
    }
}
