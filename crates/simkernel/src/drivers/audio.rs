//! ALSA-PCM-style audio driver at `/dev/snd_pcm0` — the kernel side of the
//! Audio HAL.

use crate::driver::{
    word, CharDevice, DriverApi, DriverCtx, IoctlDesc, IoctlOut, StateModel, Transition,
    WordGuard, WordShape,
};
use crate::errno::Errno;

/// Set hardware parameters (`arg[0]` = rate, `arg[1]` = channels,
/// `arg[2]` = format).
pub const PCM_HW_PARAMS: u32 = 0x400C_4101;
/// Prepare the stream.
pub const PCM_PREPARE: u32 = 0x4004_4102;
/// Start the stream.
pub const PCM_START: u32 = 0x4004_4103;
/// Pause (`arg[0]` = 1) / resume (`arg[0]` = 0).
pub const PCM_PAUSE: u32 = 0x4004_4104;
/// Drain pending frames and stop.
pub const PCM_DRAIN: u32 = 0x4004_4105;
/// Drop pending frames immediately.
pub const PCM_DROP: u32 = 0x4004_4106;
/// Read the hardware pointer.
pub const PCM_GET_HWPTR: u32 = 0x8004_4107;

/// Valid sample rates.
pub const RATES: [u32; 5] = [8000, 16000, 44100, 48000, 96000];
/// Valid sample formats.
pub const FORMATS: [u32; 3] = [1, 2, 10];

/// Declarative state machine of one substream (per open fd), mirroring
/// the ALSA PCM lifecycle: `Open → Setup → Prepared → Running ⇄ Paused`,
/// with `DRAIN`/`DROP` falling back to `Setup`. The first `write` from
/// `Prepared` auto-starts the stream, as ALSA does.
fn pcm_state_model() -> StateModel {
    StateModel::new("Open", &["Open", "Setup", "Prepared", "Running", "Paused"])
        .per_open()
        .with(vec![
            Transition::ioctl(PCM_HW_PARAMS)
                .guard(WordGuard::OneOf(RATES.to_vec()))
                .guard(WordGuard::In(1, 8))
                .guard(WordGuard::OneOf(FORMATS.to_vec()))
                .from(&["Open", "Setup", "Prepared"])
                .to("Setup"),
            Transition::ioctl(PCM_PREPARE)
                .from(&["Setup", "Prepared", "Running", "Paused"])
                .to("Prepared"),
            Transition::ioctl(PCM_START).from(&["Prepared"]).to("Running"),
            Transition::ioctl(PCM_PAUSE)
                .guard(WordGuard::Eq(1))
                .from(&["Running"])
                .to("Paused"),
            Transition::ioctl(PCM_PAUSE)
                .guard(WordGuard::Eq(0))
                .from(&["Paused"])
                .to("Running"),
            Transition::ioctl(PCM_DRAIN).from(&["Running", "Paused"]).to("Setup"),
            Transition::ioctl(PCM_DROP).from(&["Running", "Paused"]).to("Setup"),
            Transition::ioctl(PCM_GET_HWPTR),
            Transition::write().from(&["Prepared"]).to("Running"),
            Transition::write().from(&["Running"]),
            Transition::mmap().from(&["Setup", "Prepared", "Running", "Paused"]),
        ])
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PcmState {
    Open,
    Setup,
    Prepared,
    Running,
    Paused,
}

/// Per-open PCM substream (`substream->private_data`).
#[derive(Debug)]
struct PcmStream {
    state: PcmState,
    rate: u32,
    channels: u32,
    format: u32,
    hwptr: u64,
}

impl Default for PcmStream {
    fn default() -> Self {
        Self { state: PcmState::Open, rate: 0, channels: 0, format: 0, hwptr: 0 }
    }
}

/// The PCM audio driver; each open file is an independent substream.
#[derive(Debug, Default)]
pub struct PcmDevice {
    streams: std::collections::BTreeMap<u64, PcmStream>,
}

impl PcmDevice {
    /// Creates a PCM device with no substreams.
    pub fn new() -> Self {
        Self::default()
    }
}

impl CharDevice for PcmDevice {
    fn name(&self) -> &'static str {
        "pcm"
    }

    fn node(&self) -> String {
        "/dev/snd_pcm0".into()
    }

    fn api(&self) -> DriverApi {
        DriverApi {
            ioctls: vec![
                IoctlDesc::with_words(
                    "PCM_HW_PARAMS",
                    PCM_HW_PARAMS,
                    vec![
                        WordShape::Choice(RATES.to_vec()),
                        WordShape::Range { min: 1, max: 8 },
                        WordShape::Choice(FORMATS.to_vec()),
                    ],
                ),
                IoctlDesc::bare("PCM_PREPARE", PCM_PREPARE),
                IoctlDesc::bare("PCM_START", PCM_START),
                IoctlDesc::with_words("PCM_PAUSE", PCM_PAUSE, vec![WordShape::Choice(vec![0, 1])]),
                IoctlDesc::bare("PCM_DRAIN", PCM_DRAIN),
                IoctlDesc::bare("PCM_DROP", PCM_DROP),
                IoctlDesc::bare("PCM_GET_HWPTR", PCM_GET_HWPTR),
            ],
            supports_read: false,
            supports_write: true,
            supports_mmap: true,
            vendor: false,
            state_model: Some(pcm_state_model()),
        }
    }

    fn release(&mut self, ctx: &mut DriverCtx<'_>) {
        ctx.hit(&[0x11]);
        self.streams.remove(&ctx.open_id);
    }

    fn write(&mut self, ctx: &mut DriverCtx<'_>, data: &[u8]) -> Result<usize, Errno> {
        let s = self.streams.entry(ctx.open_id).or_default();
        if !matches!(s.state, PcmState::Running | PcmState::Prepared) {
            return Err(Errno::EPIPE);
        }
        if s.state == PcmState::Prepared {
            // First write auto-starts, as ALSA does.
            s.state = PcmState::Running;
            ctx.hit(&[1, 9]);
        }
        s.hwptr += data.len() as u64 / 4;
        ctx.hit_path(3, &[1, u64::from(s.rate) / 16000, u64::from(s.channels).min(4), data.len().min(8192) as u64 / 1024]);
        Ok(data.len())
    }

    fn mmap(&mut self, ctx: &mut DriverCtx<'_>, len: usize, prot: u32) -> Result<(), Errno> {
        let s = self.streams.entry(ctx.open_id).or_default();
        if s.state == PcmState::Open {
            return Err(Errno::EINVAL);
        }
        ctx.hit(&[2, len as u64 / 4096, u64::from(prot)]);
        Ok(())
    }

    fn ioctl(
        &mut self,
        ctx: &mut DriverCtx<'_>,
        request: u32,
        arg: &[u8],
    ) -> Result<IoctlOut, Errno> {
        let s = self.streams.entry(ctx.open_id).or_default();
        let state_tag = s.state as u64;
        match request {
            PCM_HW_PARAMS => {
                if matches!(s.state, PcmState::Running | PcmState::Paused) {
                    return Err(Errno::EBUSY);
                }
                let (rate, ch, fmt) = (word(arg, 0), word(arg, 1), word(arg, 2));
                if !RATES.contains(&rate) || !FORMATS.contains(&fmt) || !(1..=8).contains(&ch) {
                    return Err(Errno::EINVAL);
                }
                s.rate = rate;
                s.channels = ch;
                s.format = fmt;
                s.state = PcmState::Setup;
                ctx.hit(&[3, state_tag, u64::from(rate) / 16000, u64::from(ch).min(4), u64::from(fmt)]);
                Ok(IoctlOut::Val(0))
            }
            PCM_PREPARE => {
                if s.state == PcmState::Open {
                    return Err(Errno::EINVAL);
                }
                s.state = PcmState::Prepared;
                s.hwptr = 0;
                ctx.hit(&[4, state_tag]);
                Ok(IoctlOut::Val(0))
            }
            PCM_START => {
                if s.state != PcmState::Prepared {
                    return Err(Errno::EINVAL);
                }
                s.state = PcmState::Running;
                ctx.hit_path(3, &[5]);
                Ok(IoctlOut::Val(0))
            }
            PCM_PAUSE => {
                let on = word(arg, 0);
                match (s.state, on) {
                    (PcmState::Running, 1) => s.state = PcmState::Paused,
                    (PcmState::Paused, 0) => s.state = PcmState::Running,
                    _ => return Err(Errno::EINVAL),
                }
                ctx.hit(&[6, u64::from(on)]);
                Ok(IoctlOut::Val(0))
            }
            PCM_DRAIN => {
                if !matches!(s.state, PcmState::Running | PcmState::Paused) {
                    return Err(Errno::EINVAL);
                }
                s.state = PcmState::Setup;
                ctx.hit_path(3, &[7, s.hwptr.min(8)]);
                Ok(IoctlOut::Val(s.hwptr))
            }
            PCM_DROP => {
                if !matches!(s.state, PcmState::Running | PcmState::Paused) {
                    return Err(Errno::EINVAL);
                }
                s.state = PcmState::Setup;
                s.hwptr = 0;
                ctx.hit(&[8, state_tag]);
                Ok(IoctlOut::Val(0))
            }
            PCM_GET_HWPTR => {
                ctx.hit(&[9, state_tag]);
                Ok(IoctlOut::Val(s.hwptr))
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
        dev: &mut PcmDevice,
        g: &mut CoverageMap,
        b: &mut BugSink,
        req: u32,
        words: &[u32],
    ) -> Result<IoctlOut, Errno> {
        let mut ctx = DriverCtx::new(0x900, "pcm", None, g, b, 1);
        dev.ioctl(&mut ctx, req, &encode_words(words))
    }

    #[test]
    fn playback_lifecycle() {
        let mut dev = PcmDevice::new();
        let (mut g, mut b) = (CoverageMap::new(), BugSink::new());
        run(&mut dev, &mut g, &mut b, PCM_HW_PARAMS, &[48000, 2, 2]).unwrap();
        run(&mut dev, &mut g, &mut b, PCM_PREPARE, &[]).unwrap();
        run(&mut dev, &mut g, &mut b, PCM_START, &[]).unwrap();
        let mut ctx = DriverCtx::new(0x900, "pcm", None, &mut g, &mut b, 1);
        assert_eq!(dev.write(&mut ctx, &[0u8; 512]).unwrap(), 512);
        run(&mut dev, &mut g, &mut b, PCM_PAUSE, &[1]).unwrap();
        run(&mut dev, &mut g, &mut b, PCM_PAUSE, &[0]).unwrap();
        let IoctlOut::Val(drained) = run(&mut dev, &mut g, &mut b, PCM_DRAIN, &[]).unwrap()
        else {
            panic!()
        };
        assert_eq!(drained, 128);
    }

    #[test]
    fn write_auto_starts_from_prepared() {
        let mut dev = PcmDevice::new();
        let (mut g, mut b) = (CoverageMap::new(), BugSink::new());
        run(&mut dev, &mut g, &mut b, PCM_HW_PARAMS, &[44100, 2, 1]).unwrap();
        run(&mut dev, &mut g, &mut b, PCM_PREPARE, &[]).unwrap();
        let mut ctx = DriverCtx::new(0x900, "pcm", None, &mut g, &mut b, 1);
        dev.write(&mut ctx, &[0u8; 64]).unwrap();
        // Pause only valid when running — proves auto-start happened.
        run(&mut dev, &mut g, &mut b, PCM_PAUSE, &[1]).unwrap();
    }

    #[test]
    fn hw_params_rejected_while_running() {
        let mut dev = PcmDevice::new();
        let (mut g, mut b) = (CoverageMap::new(), BugSink::new());
        run(&mut dev, &mut g, &mut b, PCM_HW_PARAMS, &[16000, 1, 1]).unwrap();
        run(&mut dev, &mut g, &mut b, PCM_PREPARE, &[]).unwrap();
        run(&mut dev, &mut g, &mut b, PCM_START, &[]).unwrap();
        assert_eq!(
            run(&mut dev, &mut g, &mut b, PCM_HW_PARAMS, &[8000, 1, 1]).unwrap_err(),
            Errno::EBUSY
        );
    }

    #[test]
    fn invalid_rate_rejected() {
        let mut dev = PcmDevice::new();
        let (mut g, mut b) = (CoverageMap::new(), BugSink::new());
        assert_eq!(
            run(&mut dev, &mut g, &mut b, PCM_HW_PARAMS, &[12345, 2, 1]).unwrap_err(),
            Errno::EINVAL
        );
    }
}
