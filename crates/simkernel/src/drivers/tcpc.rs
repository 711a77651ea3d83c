//! USB Type-C port controller (TCPC) driver with an RT1711-style I²C chip
//! behind it, mounted at `/dev/tcpc0`.
//!
//! Carries Table II bugs **#1** (`WARNING in rt1711_i2c_probe` — re-probing
//! the chip while an I²C transfer error is latched) and **#4**
//! (`WARNING in tcpc_pr_swap` — power-role swap attempted while the port is
//! unattached but VBUS is driven).

use crate::driver::{
    word, CharDevice, DriverApi, DriverCtx, IoctlDesc, IoctlOut, StateModel, Transition,
    WordGuard, WordShape,
};
use crate::errno::Errno;

/// Set CC line pull (`arg[0]`: 0 = open, 1 = Rd, 2 = Rp1.5, 3 = Rp3.0).
pub const TCPC_SET_CC: u32 = 0x4004_5401;
/// Drive or release VBUS (`arg[0]`: 0/1).
pub const TCPC_VBUS: u32 = 0x4004_5402;
/// Begin attach as sink (1) or source (2).
pub const TCPC_ATTACH: u32 = 0x4004_5403;
/// Detach the port.
pub const TCPC_DETACH: u32 = 0x4004_5404;
/// Power-role swap.
pub const TCPC_PR_SWAP: u32 = 0x4004_5405;
/// Re-run chip probe (recovery path).
pub const TCPC_RESET_PROBE: u32 = 0x4004_5406;
/// Read port status.
pub const TCPC_GET_STATUS: u32 = 0x8004_5407;
/// Raw I²C register transfer (`arg[0]` = register, `arg[1]` = length).
pub const TCPC_I2C_XFER: u32 = 0x4008_5408;
/// VCONN enable/disable.
pub const TCPC_VCONN: u32 = 0x4004_5409;
/// Simulated alert interrupt (`arg[0]` = alert mask).
pub const TCPC_ALERT: u32 = 0x4004_540A;

/// Declarative state machine of the port controller, tracking the
/// `(attach state, cc, vbus)` triple through the precisely-modeled region
/// of the state space:
///
/// - `Boot`/`BootV`: unattached, cc open, vbus off/on;
/// - `Cc1`/`Cc1V`: unattached, Rd pull on CC, vbus off/on;
/// - `Wait`/`WaitV`: AttachWait.SNK, vbus off/on;
/// - `Snk`/`Src`: attached as sink/source (cc = Rd, vbus on).
///
/// `SET_CC` pulls ≥ 2 (the source path) and vbus/cc changes while
/// attached leave the precise region via `may_fail` clobber transitions;
/// bad-length `I2C_XFER` does the same because it latches the hidden
/// `i2c_error` flag that `RESET_PROBE` trips over.
fn tcpc_state_model() -> StateModel {
    const UNATTACHED: &[&str] = &["Boot", "BootV", "Cc1", "Cc1V"];
    StateModel::new("Boot", &["Boot", "BootV", "Cc1", "Cc1V", "Wait", "WaitV", "Snk", "Src"])
        .with(vec![
            // SET_CC(1): install the Rd pull; attach state untouched.
            Transition::ioctl(TCPC_SET_CC).guard(WordGuard::Eq(1)).from(&["Boot"]).to("Cc1"),
            Transition::ioctl(TCPC_SET_CC).guard(WordGuard::Eq(1)).from(&["BootV"]).to("Cc1V"),
            Transition::ioctl(TCPC_SET_CC)
                .guard(WordGuard::Eq(1))
                .from(&["Cc1", "Cc1V", "Wait", "WaitV", "Snk", "Src"]),
            // SET_CC(0): release the pull.
            Transition::ioctl(TCPC_SET_CC).guard(WordGuard::Eq(0)).from(&["Boot", "BootV"]),
            Transition::ioctl(TCPC_SET_CC).guard(WordGuard::Eq(0)).from(&["Cc1"]).to("Boot"),
            Transition::ioctl(TCPC_SET_CC).guard(WordGuard::Eq(0)).from(&["Cc1V"]).to("BootV"),
            Transition::ioctl(TCPC_SET_CC)
                .guard(WordGuard::Eq(0))
                .from(&["Wait", "WaitV", "Snk", "Src"])
                .to("Boot")
                .may_fail(),
            // SET_CC(2|3): the source-pull region is not tracked.
            Transition::ioctl(TCPC_SET_CC).guard(WordGuard::In(2, 3)).to("Boot").may_fail(),
            // VBUS on/off.
            Transition::ioctl(TCPC_VBUS).guard(WordGuard::Eq(1)).from(&["Boot"]).to("BootV"),
            Transition::ioctl(TCPC_VBUS).guard(WordGuard::Eq(1)).from(&["Cc1"]).to("Cc1V"),
            Transition::ioctl(TCPC_VBUS).guard(WordGuard::Eq(1)).from(&["Wait"]).to("WaitV"),
            Transition::ioctl(TCPC_VBUS)
                .guard(WordGuard::Eq(1))
                .from(&["BootV", "Cc1V", "WaitV", "Snk", "Src"]),
            Transition::ioctl(TCPC_VBUS).guard(WordGuard::Eq(0)).from(&["Boot", "Cc1", "Wait"]),
            Transition::ioctl(TCPC_VBUS).guard(WordGuard::Eq(0)).from(&["BootV"]).to("Boot"),
            Transition::ioctl(TCPC_VBUS).guard(WordGuard::Eq(0)).from(&["Cc1V"]).to("Cc1"),
            Transition::ioctl(TCPC_VBUS).guard(WordGuard::Eq(0)).from(&["WaitV"]).to("Wait"),
            Transition::ioctl(TCPC_VBUS)
                .guard(WordGuard::Eq(0))
                .from(&["Snk", "Src"])
                .to("Boot")
                .may_fail(),
            // ATTACH as sink: needs the pull, completes on vbus.
            Transition::ioctl(TCPC_ATTACH).guard(WordGuard::Eq(1)).from(&["Cc1"]).to("Wait"),
            Transition::ioctl(TCPC_ATTACH).guard(WordGuard::Eq(1)).from(&["Cc1V"]).to("Snk"),
            Transition::ioctl(TCPC_ATTACH).guard(WordGuard::Eq(1)).from(&["WaitV"]).to("Snk"),
            // DETACH: back to unattached; cc/vbus survive.
            Transition::ioctl(TCPC_DETACH).from(UNATTACHED),
            Transition::ioctl(TCPC_DETACH).from(&["Wait"]).to("Cc1"),
            Transition::ioctl(TCPC_DETACH).from(&["WaitV", "Snk", "Src"]).to("Cc1V"),
            // Power-role swap between the attached states.
            Transition::ioctl(TCPC_PR_SWAP).from(&["Snk"]).to("Src"),
            Transition::ioctl(TCPC_PR_SWAP).from(&["Src"]).to("Snk"),
            // Probe recovery succeeds whenever no I²C error is latched,
            // which the precise region guarantees.
            Transition::ioctl(TCPC_RESET_PROBE),
            Transition::ioctl(TCPC_GET_STATUS),
            // Well-formed I²C transfers are stateless; zero/oversized
            // lengths latch the hidden error flag even though the call
            // itself fails.
            Transition::ioctl(TCPC_I2C_XFER)
                .guard(WordGuard::In(0, 0xff))
                .guard(WordGuard::In(1, 32)),
            Transition::ioctl(TCPC_I2C_XFER)
                .guard(WordGuard::In(0, 0xff))
                .guard(WordGuard::Eq(0))
                .to("Boot")
                .may_fail(),
            Transition::ioctl(TCPC_I2C_XFER)
                .guard(WordGuard::In(0, 0xff))
                .guard(WordGuard::In(33, u32::MAX))
                .to("Boot")
                .may_fail(),
            // VCONN: off always works, on needs the source role.
            Transition::ioctl(TCPC_VCONN).guard(WordGuard::Eq(0)),
            Transition::ioctl(TCPC_VCONN).guard(WordGuard::Eq(1)).from(&["Src"]),
            // Alert interrupt: the 0x10 bit forces a detach.
            Transition::ioctl(TCPC_ALERT).guard(WordGuard::MaskEq(0x10, 0)),
            Transition::ioctl(TCPC_ALERT).guard(WordGuard::MaskEq(0x10, 0x10)).from(UNATTACHED),
            Transition::ioctl(TCPC_ALERT)
                .guard(WordGuard::MaskEq(0x10, 0x10))
                .from(&["Wait"])
                .to("Cc1"),
            Transition::ioctl(TCPC_ALERT)
                .guard(WordGuard::MaskEq(0x10, 0x10))
                .from(&["WaitV", "Snk", "Src"])
                .to("Cc1V"),
        ])
}

/// Which injected TCPC bugs the firmware arms.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpcBugs {
    /// Bug #1 (device A1).
    pub probe_warn: bool,
    /// Bug #4 (device A1).
    pub pr_swap_warn: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PortState {
    Unattached,
    AttachWaitSnk,
    AttachedSnk,
    AttachWaitSrc,
    AttachedSrc,
}

/// The TCPC driver.
#[derive(Debug)]
pub struct TcpcDevice {
    armed: TcpcBugs,
    state: PortState,
    cc: u32,
    vbus: bool,
    vconn: bool,
    /// Latched I²C failure from a bad raw transfer; cleared by detach.
    i2c_error: bool,
    probe_count: u32,
    swaps: u32,
}

impl TcpcDevice {
    /// Creates a port controller with the given bugs armed.
    pub fn new(armed: TcpcBugs) -> Self {
        Self {
            armed,
            state: PortState::Unattached,
            cc: 0,
            vbus: false,
            vconn: false,
            i2c_error: false,
            probe_count: 1,
            swaps: 0,
        }
    }

    fn state_tag(&self) -> u64 {
        self.state as u64
    }
}

impl CharDevice for TcpcDevice {
    fn name(&self) -> &'static str {
        "tcpc"
    }

    fn node(&self) -> String {
        "/dev/tcpc0".into()
    }

    fn api(&self) -> DriverApi {
        DriverApi {
            ioctls: vec![
                IoctlDesc::with_words(
                    "TCPC_SET_CC",
                    TCPC_SET_CC,
                    vec![WordShape::Choice(vec![0, 1, 2, 3])],
                ),
                IoctlDesc::with_words("TCPC_VBUS", TCPC_VBUS, vec![WordShape::Choice(vec![0, 1])]),
                IoctlDesc::with_words(
                    "TCPC_ATTACH",
                    TCPC_ATTACH,
                    vec![WordShape::Choice(vec![1, 2])],
                ),
                IoctlDesc::bare("TCPC_DETACH", TCPC_DETACH),
                IoctlDesc::bare("TCPC_PR_SWAP", TCPC_PR_SWAP),
                IoctlDesc::bare("TCPC_RESET_PROBE", TCPC_RESET_PROBE),
                IoctlDesc::bare("TCPC_GET_STATUS", TCPC_GET_STATUS),
                IoctlDesc::with_words(
                    "TCPC_I2C_XFER",
                    TCPC_I2C_XFER,
                    vec![
                        WordShape::Range { min: 0, max: 0xff },
                        WordShape::Range { min: 0, max: 64 },
                    ],
                ),
                IoctlDesc::with_words("TCPC_VCONN", TCPC_VCONN, vec![WordShape::Choice(vec![0, 1])]),
                IoctlDesc::with_words(
                    "TCPC_ALERT",
                    TCPC_ALERT,
                    vec![WordShape::Flags(vec![0x1, 0x2, 0x4, 0x8, 0x10])],
                ),
            ],
            supports_read: false,
            supports_write: false,
            supports_mmap: false,
            vendor: true,
            state_model: Some(tcpc_state_model()),
        }
    }

    fn ioctl(
        &mut self,
        ctx: &mut DriverCtx<'_>,
        request: u32,
        arg: &[u8],
    ) -> Result<IoctlOut, Errno> {
        match request {
            TCPC_SET_CC => {
                let pull = word(arg, 0);
                if pull > 3 {
                    return Err(Errno::EINVAL);
                }
                self.cc = pull;
                ctx.hit(&[1, self.state_tag(), u64::from(pull)]);
                Ok(IoctlOut::Val(0))
            }
            TCPC_VBUS => {
                let on = word(arg, 0);
                if on > 1 {
                    return Err(Errno::EINVAL);
                }
                self.vbus = on == 1;
                ctx.hit(&[2, self.state_tag(), u64::from(on)]);
                Ok(IoctlOut::Val(0))
            }
            TCPC_ATTACH => {
                let mode = word(arg, 0);
                match (self.state, mode) {
                    (PortState::Unattached, 1) => {
                        // Sink attach requires a CC pull and VBUS present.
                        if self.cc == 0 {
                            return Err(Errno::EAGAIN);
                        }
                        self.state = if self.vbus {
                            PortState::AttachedSnk
                        } else {
                            PortState::AttachWaitSnk
                        };
                    }
                    (PortState::AttachWaitSnk, 1) => {
                        if !self.vbus {
                            return Err(Errno::EAGAIN);
                        }
                        self.state = PortState::AttachedSnk;
                    }
                    (PortState::Unattached, 2) => {
                        if self.cc < 2 {
                            return Err(Errno::EAGAIN);
                        }
                        self.state = PortState::AttachWaitSrc;
                    }
                    (PortState::AttachWaitSrc, 2) => {
                        if !self.vbus {
                            return Err(Errno::EAGAIN);
                        }
                        self.state = PortState::AttachedSrc;
                    }
                    (_, 1 | 2) => return Err(Errno::EBUSY),
                    _ => return Err(Errno::EINVAL),
                }
                ctx.hit_path(4, &[3, self.state_tag(), u64::from(mode), u64::from(self.cc)]);
                Ok(IoctlOut::Val(0))
            }
            TCPC_DETACH => {
                ctx.hit(&[4, self.state_tag()]);
                self.state = PortState::Unattached;
                self.i2c_error = false;
                self.vconn = false;
                Ok(IoctlOut::Val(0))
            }
            TCPC_PR_SWAP => {
                match self.state {
                    PortState::AttachedSnk => {
                        self.state = PortState::AttachedSrc;
                        self.swaps += 1;
                        ctx.hit_path(5, &[5, 0, self.swaps.min(4) as u64]);
                        Ok(IoctlOut::Val(0))
                    }
                    PortState::AttachedSrc => {
                        self.state = PortState::AttachedSnk;
                        self.swaps += 1;
                        ctx.hit_path(5, &[5, 1, self.swaps.min(4) as u64]);
                        Ok(IoctlOut::Val(0))
                    }
                    PortState::Unattached if self.vbus => {
                        // Bug #4: the swap state machine runs without an
                        // attached partner because VBUS masks the check.
                        ctx.hit(&[5, 2]);
                        if self.armed.pr_swap_warn {
                            ctx.warn("tcpc_pr_swap");
                        }
                        Err(Errno::EIO)
                    }
                    _ => Err(Errno::ENOTCONN),
                }
            }
            TCPC_RESET_PROBE => {
                self.probe_count += 1;
                ctx.hit(&[6, u64::from(self.i2c_error), self.probe_count.min(4) as u64]);
                if self.i2c_error {
                    // Bug #1: probe re-runs against a chip whose register
                    // map is stale after the failed transfer.
                    if self.armed.probe_warn {
                        ctx.warn("rt1711_i2c_probe");
                    }
                    return Err(Errno::EIO);
                }
                Ok(IoctlOut::Val(u64::from(self.probe_count)))
            }
            TCPC_GET_STATUS => {
                ctx.hit(&[7, self.state_tag(), u64::from(self.vbus), u64::from(self.vconn)]);
                let status = (self.state_tag() as u32) | (u32::from(self.vbus) << 8);
                Ok(IoctlOut::Out(status.to_le_bytes().to_vec()))
            }
            TCPC_I2C_XFER => {
                let reg = word(arg, 0);
                let len = word(arg, 1);
                if reg > 0xff {
                    return Err(Errno::EINVAL);
                }
                if len == 0 || len > 32 {
                    // Transfer rejected by the chip: latch the error the
                    // recovery probe trips over.
                    self.i2c_error = true;
                    ctx.hit(&[8, 0, u64::from(reg) / 32]);
                    return Err(Errno::EIO);
                }
                ctx.hit(&[8, 1, self.state_tag(), u64::from(reg) / 32, u64::from(len) / 8]);
                Ok(IoctlOut::Out(vec![0xA5; len as usize]))
            }
            TCPC_VCONN => {
                let on = word(arg, 0);
                if on > 1 {
                    return Err(Errno::EINVAL);
                }
                if on == 1 && !matches!(self.state, PortState::AttachedSrc) {
                    return Err(Errno::EPERM);
                }
                self.vconn = on == 1;
                ctx.hit_path(3, &[9, self.state_tag(), u64::from(on)]);
                Ok(IoctlOut::Val(0))
            }
            TCPC_ALERT => {
                let mask = word(arg, 0) & 0x1f;
                ctx.hit(&[10, self.state_tag(), u64::from(mask & 0x7), u64::from(mask >> 4)]);
                if mask & 0x10 != 0 && self.state != PortState::Unattached {
                    // Hard-reset alert detaches the port.
                    self.state = PortState::Unattached;
                    ctx.hit(&[10, 9]);
                }
                Ok(IoctlOut::Val(u64::from(mask)))
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
        dev: &mut TcpcDevice,
        g: &mut CoverageMap,
        b: &mut BugSink,
        req: u32,
        words: &[u32],
    ) -> Result<IoctlOut, Errno> {
        let mut ctx = DriverCtx::new(0x100, "tcpc", None, g, b, 1);
        dev.ioctl(&mut ctx, req, &encode_words(words))
    }

    #[test]
    fn attach_sequence_reaches_attached_sink() {
        let mut dev = TcpcDevice::new(TcpcBugs::default());
        let (mut g, mut b) = (CoverageMap::new(), BugSink::new());
        run(&mut dev, &mut g, &mut b, TCPC_SET_CC, &[1]).unwrap();
        run(&mut dev, &mut g, &mut b, TCPC_VBUS, &[1]).unwrap();
        run(&mut dev, &mut g, &mut b, TCPC_ATTACH, &[1]).unwrap();
        let out = run(&mut dev, &mut g, &mut b, TCPC_GET_STATUS, &[]).unwrap();
        let IoctlOut::Out(bytes) = out else { panic!("status returns bytes") };
        let status = u32::from_le_bytes(bytes.try_into().unwrap());
        assert_eq!(status & 0xff, PortState::AttachedSnk as u32);
        assert!(b.take().is_empty());
    }

    #[test]
    fn attach_without_cc_fails() {
        let mut dev = TcpcDevice::new(TcpcBugs::default());
        let (mut g, mut b) = (CoverageMap::new(), BugSink::new());
        assert_eq!(
            run(&mut dev, &mut g, &mut b, TCPC_ATTACH, &[1]).unwrap_err(),
            Errno::EAGAIN
        );
    }

    #[test]
    fn bug1_probe_after_i2c_error_warns_when_armed() {
        let mut dev = TcpcDevice::new(TcpcBugs { probe_warn: true, ..Default::default() });
        let (mut g, mut b) = (CoverageMap::new(), BugSink::new());
        assert_eq!(
            run(&mut dev, &mut g, &mut b, TCPC_I2C_XFER, &[0x10, 0]).unwrap_err(),
            Errno::EIO
        );
        assert_eq!(
            run(&mut dev, &mut g, &mut b, TCPC_RESET_PROBE, &[]).unwrap_err(),
            Errno::EIO
        );
        let reports = b.take();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].title, "WARNING in rt1711_i2c_probe");
    }

    #[test]
    fn bug1_sequence_is_benign_when_unarmed() {
        let mut dev = TcpcDevice::new(TcpcBugs::default());
        let (mut g, mut b) = (CoverageMap::new(), BugSink::new());
        run(&mut dev, &mut g, &mut b, TCPC_I2C_XFER, &[0x10, 0]).unwrap_err();
        run(&mut dev, &mut g, &mut b, TCPC_RESET_PROBE, &[]).unwrap_err();
        assert!(b.take().is_empty());
    }

    #[test]
    fn bug4_pr_swap_unattached_with_vbus_warns() {
        let mut dev = TcpcDevice::new(TcpcBugs { pr_swap_warn: true, ..Default::default() });
        let (mut g, mut b) = (CoverageMap::new(), BugSink::new());
        run(&mut dev, &mut g, &mut b, TCPC_VBUS, &[1]).unwrap();
        assert_eq!(
            run(&mut dev, &mut g, &mut b, TCPC_PR_SWAP, &[]).unwrap_err(),
            Errno::EIO
        );
        let reports = b.take();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].kind, BugKind::Warning);
        assert!(reports[0].title.contains("tcpc"));
    }

    #[test]
    fn pr_swap_attached_toggles_roles() {
        let mut dev = TcpcDevice::new(TcpcBugs { pr_swap_warn: true, ..Default::default() });
        let (mut g, mut b) = (CoverageMap::new(), BugSink::new());
        run(&mut dev, &mut g, &mut b, TCPC_SET_CC, &[1]).unwrap();
        run(&mut dev, &mut g, &mut b, TCPC_VBUS, &[1]).unwrap();
        run(&mut dev, &mut g, &mut b, TCPC_ATTACH, &[1]).unwrap();
        run(&mut dev, &mut g, &mut b, TCPC_PR_SWAP, &[]).unwrap();
        run(&mut dev, &mut g, &mut b, TCPC_PR_SWAP, &[]).unwrap();
        assert!(b.take().is_empty());
    }

    #[test]
    fn detach_clears_i2c_error_latch() {
        let mut dev = TcpcDevice::new(TcpcBugs { probe_warn: true, ..Default::default() });
        let (mut g, mut b) = (CoverageMap::new(), BugSink::new());
        run(&mut dev, &mut g, &mut b, TCPC_I2C_XFER, &[0x10, 0]).unwrap_err();
        run(&mut dev, &mut g, &mut b, TCPC_DETACH, &[]).unwrap();
        run(&mut dev, &mut g, &mut b, TCPC_RESET_PROBE, &[]).unwrap();
        assert!(b.take().is_empty());
    }

    #[test]
    fn deeper_states_reveal_more_blocks() {
        let mut dev = TcpcDevice::new(TcpcBugs::default());
        let (mut g, mut b) = (CoverageMap::new(), BugSink::new());
        run(&mut dev, &mut g, &mut b, TCPC_GET_STATUS, &[]).unwrap();
        let shallow = g.len();
        run(&mut dev, &mut g, &mut b, TCPC_SET_CC, &[2]).unwrap();
        run(&mut dev, &mut g, &mut b, TCPC_VBUS, &[1]).unwrap();
        run(&mut dev, &mut g, &mut b, TCPC_ATTACH, &[1]).unwrap();
        run(&mut dev, &mut g, &mut b, TCPC_GET_STATUS, &[]).unwrap();
        run(&mut dev, &mut g, &mut b, TCPC_VCONN, &[1]).unwrap_err();
        assert!(g.len() > shallow + 2);
    }
}
