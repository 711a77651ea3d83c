//! Thermal-zone driver at `/dev/thermal`.

use crate::driver::{
    word, CharDevice, DriverApi, DriverCtx, IoctlDesc, IoctlOut, StateModel, Transition,
    WordGuard, WordShape,
};
use crate::errno::Errno;

/// Read zone temperature (`arg[0]` = zone id), milli-°C returned.
pub const TH_GET_TEMP: u32 = 0x4004_5481;
/// Set a trip point (`arg[0]` = zone, `arg[1]` = milli-°C).
pub const TH_SET_TRIP: u32 = 0x4008_5482;
/// Set cooling-device throttle (`arg[0]` = level 0..=4).
pub const TH_SET_COOLING: u32 = 0x4004_5483;

/// Number of thermal zones.
pub const ZONES: u32 = 4;

/// Declarative state machine of the thermal driver — a single `Ready`
/// state; every in-range call (and any `read`) succeeds unconditionally.
fn thermal_state_model() -> StateModel {
    StateModel::new("Ready", &["Ready"]).with(vec![
        Transition::ioctl(TH_GET_TEMP).guard(WordGuard::In(0, ZONES - 1)),
        Transition::ioctl(TH_SET_TRIP)
            .guard(WordGuard::In(0, ZONES - 1))
            .guard(WordGuard::In(40_000, 120_000)),
        Transition::ioctl(TH_SET_COOLING).guard(WordGuard::In(0, 4)),
        Transition::read(),
    ])
}

/// The thermal driver.
#[derive(Debug)]
pub struct ThermalDevice {
    trips: [u32; ZONES as usize],
    cooling: u32,
    reads: u64,
}

impl ThermalDevice {
    /// Creates a thermal device with default 95 °C trips.
    pub fn new() -> Self {
        Self {
            trips: [95_000; ZONES as usize],
            cooling: 0,
            reads: 0,
        }
    }
}

impl Default for ThermalDevice {
    fn default() -> Self {
        Self::new()
    }
}

impl CharDevice for ThermalDevice {
    fn name(&self) -> &'static str {
        "thermal"
    }

    fn node(&self) -> String {
        "/dev/thermal".into()
    }

    fn api(&self) -> DriverApi {
        DriverApi {
            ioctls: vec![
                IoctlDesc::with_words(
                    "TH_GET_TEMP",
                    TH_GET_TEMP,
                    vec![WordShape::Range { min: 0, max: ZONES - 1 }],
                ),
                IoctlDesc::with_words(
                    "TH_SET_TRIP",
                    TH_SET_TRIP,
                    vec![
                        WordShape::Range { min: 0, max: ZONES - 1 },
                        WordShape::Range { min: 40_000, max: 120_000 },
                    ],
                ),
                IoctlDesc::with_words(
                    "TH_SET_COOLING",
                    TH_SET_COOLING,
                    vec![WordShape::Range { min: 0, max: 4 }],
                ),
            ],
            supports_read: true,
            supports_write: false,
            supports_mmap: false,
            vendor: false,
            state_model: Some(thermal_state_model()),
        }
    }

    fn read(&mut self, ctx: &mut DriverCtx<'_>, len: usize) -> Result<Vec<u8>, Errno> {
        self.reads += 1;
        ctx.hit(&[1, self.reads.min(4)]);
        Ok(vec![0x2A; len.min(4)])
    }

    fn ioctl(
        &mut self,
        ctx: &mut DriverCtx<'_>,
        request: u32,
        arg: &[u8],
    ) -> Result<IoctlOut, Errno> {
        match request {
            TH_GET_TEMP => {
                let zone = word(arg, 0);
                if zone >= ZONES {
                    return Err(Errno::EINVAL);
                }
                self.reads += 1;
                let temp = 40_000 + zone * 2_500 + self.cooling * 100;
                ctx.hit(&[2, u64::from(zone), u64::from(self.cooling)]);
                Ok(IoctlOut::Val(u64::from(temp)))
            }
            TH_SET_TRIP => {
                let zone = word(arg, 0);
                let trip = word(arg, 1);
                if zone >= ZONES || !(40_000..=120_000).contains(&trip) {
                    return Err(Errno::EINVAL);
                }
                self.trips[zone as usize] = trip;
                ctx.hit(&[3, u64::from(zone), u64::from(trip) / 20_000]);
                Ok(IoctlOut::Val(0))
            }
            TH_SET_COOLING => {
                let level = word(arg, 0);
                if level > 4 {
                    return Err(Errno::EINVAL);
                }
                self.cooling = level;
                ctx.hit(&[4, u64::from(level)]);
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

    #[test]
    fn temp_and_trip_bounds() {
        let mut dev = ThermalDevice::new();
        let (mut g, mut b) = (CoverageMap::new(), BugSink::new());
        let mut ctx = DriverCtx::new(0, "thermal", None, &mut g, &mut b, 1);
        assert!(dev.ioctl(&mut ctx, TH_GET_TEMP, &encode_words(&[0])).is_ok());
        assert_eq!(
            dev.ioctl(&mut ctx, TH_GET_TEMP, &encode_words(&[9])).unwrap_err(),
            Errno::EINVAL
        );
        assert!(dev.ioctl(&mut ctx, TH_SET_TRIP, &encode_words(&[1, 80_000])).is_ok());
        assert_eq!(
            dev.ioctl(&mut ctx, TH_SET_TRIP, &encode_words(&[1, 10_000])).unwrap_err(),
            Errno::EINVAL
        );
    }
}
