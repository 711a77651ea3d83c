//! mac80211-style wireless driver at `/dev/wlan0`.
//!
//! Carries Table II bug **#10** (device C2): `WARNING in
//! rate_control_rate_init` when an association is started with an empty
//! supported-rates bitmap.

use crate::driver::{
    word, CharDevice, DriverApi, DriverCtx, IoctlDesc, IoctlOut, StateModel, Transition,
    WordGuard, WordShape,
};
use crate::errno::Errno;

/// Start a scan.
pub const WL_SCAN_START: u32 = 0x4004_5701;
/// Fetch scan results (returns AP count).
pub const WL_SCAN_RESULTS: u32 = 0x8004_5702;
/// Set the supported-rates bitmap (`arg[0]`).
pub const WL_SET_RATES: u32 = 0x4004_5703;
/// Connect to AP index `arg[0]`.
pub const WL_CONNECT: u32 = 0x4004_5704;
/// Disconnect.
pub const WL_DISCONNECT: u32 = 0x4004_5705;
/// Read link status.
pub const WL_GET_STATUS: u32 = 0x8004_5706;
/// Set power-save level (`arg[0]` in 0..=3).
pub const WL_SET_POWER: u32 = 0x4004_5707;

/// Default supported-rates bitmap (802.11g basic set).
pub const DEFAULT_RATES: u32 = 0x0fff;

/// Declarative state machine of the link: `Idle → Scan → Done → Assoc`,
/// with every precise state carrying the invariant `rates != 0` (the
/// boot default). Zeroing the rates bitmap leaves the precise region —
/// a later `WL_CONNECT` would fail with bug #10's warning instead of
/// associating, so `Assoc` could no longer be trusted.
fn wlan_state_model() -> StateModel {
    StateModel::new("Idle", &["Idle", "Scan", "Done", "Assoc"]).with(vec![
        Transition::ioctl(WL_SCAN_START).from(&["Idle", "Done", "Assoc"]).to("Scan"),
        Transition::ioctl(WL_SCAN_RESULTS).from(&["Scan"]).to("Done").produces("wlan:scan"),
        Transition::ioctl(WL_SET_RATES).guard(WordGuard::MaskNonZero(0xffff)),
        Transition::ioctl(WL_SET_RATES)
            .guard(WordGuard::MaskEq(0xffff, 0))
            .to("Idle")
            .may_fail(),
        // Scans always report at least 3 APs, so indexes 0..=2 are safe;
        // 3..=5 depend on the scan counter.
        Transition::ioctl(WL_CONNECT)
            .guard(WordGuard::In(0, 2))
            .from(&["Done"])
            .to("Assoc")
            .consumes("wlan:scan"),
        Transition::ioctl(WL_CONNECT)
            .guard(WordGuard::In(3, 5))
            .from(&["Done"])
            .to("Assoc")
            .may_fail(),
        Transition::ioctl(WL_DISCONNECT).from(&["Assoc"]).to("Idle"),
        Transition::ioctl(WL_GET_STATUS),
        Transition::ioctl(WL_SET_POWER).guard(WordGuard::In(0, 3)),
        Transition::read().from(&["Assoc"]),
    ])
}

/// Which injected WLAN bugs the firmware arms.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WlanBugs {
    /// Bug #10 (device C2).
    pub rate_init_warn: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LinkState {
    Idle,
    Scanning,
    ScanDone,
    Associated,
}

/// The wireless driver.
#[derive(Debug)]
pub struct WlanDevice {
    armed: WlanBugs,
    state: LinkState,
    rates: u32,
    ap_count: u32,
    connected_ap: u32,
    power: u32,
    scans: u32,
}

impl WlanDevice {
    /// Creates a WLAN device with the given bugs armed.
    pub fn new(armed: WlanBugs) -> Self {
        Self {
            armed,
            state: LinkState::Idle,
            rates: DEFAULT_RATES,
            ap_count: 0,
            connected_ap: 0,
            power: 0,
            scans: 0,
        }
    }
}

impl CharDevice for WlanDevice {
    fn name(&self) -> &'static str {
        "wlan"
    }

    fn node(&self) -> String {
        "/dev/wlan0".into()
    }

    fn api(&self) -> DriverApi {
        DriverApi {
            ioctls: vec![
                IoctlDesc::bare("WL_SCAN_START", WL_SCAN_START),
                IoctlDesc::bare("WL_SCAN_RESULTS", WL_SCAN_RESULTS),
                IoctlDesc::with_words(
                    "WL_SET_RATES",
                    WL_SET_RATES,
                    vec![WordShape::Flags(vec![0x1, 0x2, 0x4, 0x8, 0x10, 0x100, 0x800])],
                ),
                IoctlDesc::with_words(
                    "WL_CONNECT",
                    WL_CONNECT,
                    vec![WordShape::Range { min: 0, max: 7 }],
                ),
                IoctlDesc::bare("WL_DISCONNECT", WL_DISCONNECT),
                IoctlDesc::bare("WL_GET_STATUS", WL_GET_STATUS),
                IoctlDesc::with_words(
                    "WL_SET_POWER",
                    WL_SET_POWER,
                    vec![WordShape::Choice(vec![0, 1, 2, 3])],
                ),
            ],
            supports_read: true,
            supports_write: false,
            supports_mmap: false,
            vendor: true,
            state_model: Some(wlan_state_model()),
        }
    }

    fn read(&mut self, ctx: &mut DriverCtx<'_>, len: usize) -> Result<Vec<u8>, Errno> {
        if self.state != LinkState::Associated {
            return Err(Errno::ENOTCONN);
        }
        let n = len.min(128);
        ctx.hit_path(3, &[1, u64::from(self.connected_ap), n as u64 / 32]);
        Ok(vec![0u8; n])
    }

    fn ioctl(
        &mut self,
        ctx: &mut DriverCtx<'_>,
        request: u32,
        arg: &[u8],
    ) -> Result<IoctlOut, Errno> {
        let state_tag = self.state as u64;
        match request {
            WL_SCAN_START => {
                if self.state == LinkState::Scanning {
                    return Err(Errno::EBUSY);
                }
                self.state = LinkState::Scanning;
                self.scans += 1;
                ctx.hit(&[2, state_tag, self.scans.min(4) as u64]);
                Ok(IoctlOut::Val(0))
            }
            WL_SCAN_RESULTS => {
                if self.state != LinkState::Scanning {
                    return Err(Errno::EAGAIN);
                }
                self.state = LinkState::ScanDone;
                self.ap_count = 3 + self.scans % 3;
                ctx.hit_path(3, &[3, u64::from(self.ap_count)]);
                Ok(IoctlOut::Val(u64::from(self.ap_count)))
            }
            WL_SET_RATES => {
                let rates = word(arg, 0);
                self.rates = rates & 0xffff;
                ctx.hit(&[4, u64::from(self.rates.count_ones())]);
                Ok(IoctlOut::Val(0))
            }
            WL_CONNECT => {
                let idx = word(arg, 0);
                if self.state != LinkState::ScanDone {
                    return Err(Errno::EAGAIN);
                }
                if idx >= self.ap_count {
                    return Err(Errno::EINVAL);
                }
                ctx.hit_path(6, &[5, u64::from(idx), u64::from(self.rates.count_ones().min(8))]);
                if self.rates == 0 {
                    // Bug #10: the rate-control init path assumes at least
                    // one basic rate survives intersection with the AP.
                    if self.armed.rate_init_warn {
                        ctx.warn("rate_control_rate_init");
                    }
                    return Err(Errno::EIO);
                }
                self.state = LinkState::Associated;
                self.connected_ap = idx;
                Ok(IoctlOut::Val(0))
            }
            WL_DISCONNECT => {
                if self.state != LinkState::Associated {
                    return Err(Errno::ENOTCONN);
                }
                self.state = LinkState::Idle;
                ctx.hit_path(2, &[6, u64::from(self.connected_ap)]);
                Ok(IoctlOut::Val(0))
            }
            WL_GET_STATUS => {
                ctx.hit(&[7, state_tag, u64::from(self.power)]);
                Ok(IoctlOut::Out(vec![self.state as u8, self.power as u8]))
            }
            WL_SET_POWER => {
                let level = word(arg, 0);
                if level > 3 {
                    return Err(Errno::EINVAL);
                }
                self.power = level;
                ctx.hit(&[8, state_tag, u64::from(level)]);
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

    fn run(
        dev: &mut WlanDevice,
        g: &mut CoverageMap,
        b: &mut BugSink,
        req: u32,
        words: &[u32],
    ) -> Result<IoctlOut, Errno> {
        let mut ctx = DriverCtx::new(0x300, "wlan", None, g, b, 1);
        dev.ioctl(&mut ctx, req, &encode_words(words))
    }

    #[test]
    fn bug10_connect_with_empty_rates_warns() {
        let mut dev = WlanDevice::new(WlanBugs { rate_init_warn: true });
        let (mut g, mut b) = (CoverageMap::new(), BugSink::new());
        run(&mut dev, &mut g, &mut b, WL_SCAN_START, &[]).unwrap();
        run(&mut dev, &mut g, &mut b, WL_SCAN_RESULTS, &[]).unwrap();
        run(&mut dev, &mut g, &mut b, WL_SET_RATES, &[0]).unwrap();
        assert_eq!(
            run(&mut dev, &mut g, &mut b, WL_CONNECT, &[0]).unwrap_err(),
            Errno::EIO
        );
        let reports = b.take();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].title, "WARNING in rate_control_rate_init");
    }

    #[test]
    fn empty_rates_benign_when_unarmed() {
        let mut dev = WlanDevice::new(WlanBugs::default());
        let (mut g, mut b) = (CoverageMap::new(), BugSink::new());
        run(&mut dev, &mut g, &mut b, WL_SCAN_START, &[]).unwrap();
        run(&mut dev, &mut g, &mut b, WL_SCAN_RESULTS, &[]).unwrap();
        run(&mut dev, &mut g, &mut b, WL_SET_RATES, &[0]).unwrap();
        run(&mut dev, &mut g, &mut b, WL_CONNECT, &[0]).unwrap_err();
        assert!(b.take().is_empty());
    }

    #[test]
    fn scan_connect_lifecycle() {
        let mut dev = WlanDevice::new(WlanBugs::default());
        let (mut g, mut b) = (CoverageMap::new(), BugSink::new());
        assert_eq!(
            run(&mut dev, &mut g, &mut b, WL_CONNECT, &[0]).unwrap_err(),
            Errno::EAGAIN,
            "connect before scan must fail"
        );
        run(&mut dev, &mut g, &mut b, WL_SCAN_START, &[]).unwrap();
        let aps = run(&mut dev, &mut g, &mut b, WL_SCAN_RESULTS, &[]).unwrap();
        let IoctlOut::Val(n) = aps else { panic!() };
        assert!(n >= 3);
        run(&mut dev, &mut g, &mut b, WL_CONNECT, &[0]).unwrap();
        run(&mut dev, &mut g, &mut b, WL_DISCONNECT, &[]).unwrap();
    }

    #[test]
    fn read_requires_association() {
        let mut dev = WlanDevice::new(WlanBugs::default());
        let (mut g, mut b) = (CoverageMap::new(), BugSink::new());
        let mut ctx = DriverCtx::new(0x300, "wlan", None, &mut g, &mut b, 1);
        assert_eq!(dev.read(&mut ctx, 64).unwrap_err(), Errno::ENOTCONN);
    }
}
