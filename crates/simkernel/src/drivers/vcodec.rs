//! Vendor video-codec driver at `/dev/vcodec` — the kernel side of the
//! Media HAL. The HAL-layer crash (Table II bug #6) lives in `simhal`; this
//! driver is a deep, bug-free state machine providing the coverage surface
//! that joint HAL/kernel fuzzing explores.

use crate::driver::{
    word, CharDevice, DriverApi, DriverCtx, IoctlDesc, IoctlOut, StateModel, Transition,
    WordGuard, WordShape,
};
use crate::errno::Errno;

/// Configure a session (`arg[0]` = codec, `arg[1]` = width, `arg[2]` = height).
pub const VC_CONFIGURE: u32 = 0x400C_5801;
/// Start the configured session.
pub const VC_START: u32 = 0x4004_5802;
/// Queue an input buffer (`arg[0]` = byte length).
pub const VC_QUEUE_IN: u32 = 0x4004_5803;
/// Dequeue an output buffer; returns its length.
pub const VC_DEQUEUE_OUT: u32 = 0x8004_5804;
/// Flush queued buffers.
pub const VC_FLUSH: u32 = 0x4004_5805;
/// Signal end-of-stream and drain.
pub const VC_DRAIN: u32 = 0x4004_5806;
/// Stop the session.
pub const VC_STOP: u32 = 0x4004_5807;
/// Hard reset.
pub const VC_RESET: u32 = 0x4004_5808;

/// Supported codec ids (H264, H265, VP9, AV1).
pub const CODECS: [u32; 4] = [1, 2, 3, 4];

/// Declarative state machine of one codec session (per open fd). Running
/// states `R<i><o>` track the exact `(in_queue, out_ready)` pair for small
/// queues (every second input mints an output frame), and draining states
/// `D<o>` track `out_ready` only — that is all `VC_DEQUEUE_OUT` needs.
/// Queues deeper than 3 inputs leave the precise region, encoded as
/// may-fail clobbers.
fn vcodec_state_model() -> StateModel {
    let queue = WordGuard::In(1, 1 << 20);
    StateModel::new(
        "Unconf",
        &[
            "Unconf", "Conf", "Stopped", "R00", "R10", "R20", "R30", "R21", "R31", "D0", "D1",
            "D2",
        ],
    )
    .per_open()
    .with(vec![
        Transition::ioctl(VC_CONFIGURE)
            .guard(WordGuard::OneOf(CODECS.to_vec()))
            .guard(WordGuard::In(64, 3840))
            .guard(WordGuard::In(64, 2160))
            .from(&["Unconf", "Stopped"])
            .to("Conf"),
        Transition::ioctl(VC_START).from(&["Conf"]).to("R00"),
        Transition::ioctl(VC_QUEUE_IN).guard(queue.clone()).from(&["R00"]).to("R10"),
        Transition::ioctl(VC_QUEUE_IN).guard(queue.clone()).from(&["R10"]).to("R21"),
        Transition::ioctl(VC_QUEUE_IN).guard(queue.clone()).from(&["R20"]).to("R30"),
        Transition::ioctl(VC_QUEUE_IN).guard(queue.clone()).from(&["R21"]).to("R31"),
        // A fourth input overflows the precise region (in_queue = 4).
        Transition::ioctl(VC_QUEUE_IN).guard(queue.clone()).from(&["R30", "R31"]).to("R00").may_fail(),
        Transition::ioctl(VC_DEQUEUE_OUT).from(&["R21"]).to("R20").produces("vcodec:frame"),
        Transition::ioctl(VC_DEQUEUE_OUT).from(&["R31"]).to("R30").produces("vcodec:frame"),
        Transition::ioctl(VC_DEQUEUE_OUT).from(&["D2"]).to("D1").produces("vcodec:frame"),
        Transition::ioctl(VC_DEQUEUE_OUT).from(&["D1"]).to("D0").produces("vcodec:frame"),
        Transition::ioctl(VC_FLUSH)
            .from(&["R00", "R10", "R20", "R30", "R21", "R31", "D0", "D1", "D2"])
            .to("R00"),
        Transition::ioctl(VC_DRAIN).from(&["R00", "R10"]).to("D0"),
        Transition::ioctl(VC_DRAIN).from(&["R20", "R30"]).to("D1"),
        Transition::ioctl(VC_DRAIN).from(&["R21", "R31"]).to("D2"),
        Transition::ioctl(VC_STOP)
            .from(&["Conf", "Stopped", "R00", "R10", "R20", "R30", "R21", "R31", "D0", "D1", "D2"])
            .to("Stopped"),
        Transition::ioctl(VC_RESET).to("Unconf"),
        Transition::write().from(&["R00"]).to("R10"),
        Transition::write().from(&["R10"]).to("R20"),
        Transition::write().from(&["R20"]).to("R30"),
        Transition::write().from(&["R21"]).to("R31"),
        Transition::write().from(&["R30", "R31"]).to("R00").may_fail(),
        Transition::mmap().from(&[
            "Conf", "Stopped", "R00", "R10", "R20", "R30", "R21", "R31", "D0", "D1", "D2",
        ]),
    ])
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CodecState {
    Unconfigured,
    Configured,
    Running,
    Draining,
    Stopped,
}

/// Per-open codec session (`file->private_data`).
#[derive(Debug)]
struct CodecSession {
    state: CodecState,
    codec: u32,
    dims: (u32, u32),
    in_queue: u32,
    out_ready: u32,
    frames: u64,
}

impl Default for CodecSession {
    fn default() -> Self {
        Self {
            state: CodecState::Unconfigured,
            codec: 0,
            dims: (0, 0),
            in_queue: 0,
            out_ready: 0,
            frames: 0,
        }
    }
}

/// The video-codec driver. Sessions live per open file; a fresh open is a
/// fresh unconfigured session.
#[derive(Debug, Default)]
pub struct VcodecDevice {
    sessions: std::collections::BTreeMap<u64, CodecSession>,
}

impl VcodecDevice {
    /// Creates the codec device with no sessions.
    pub fn new() -> Self {
        Self::default()
    }
}

impl CharDevice for VcodecDevice {
    fn name(&self) -> &'static str {
        "vcodec"
    }

    fn node(&self) -> String {
        "/dev/vcodec".into()
    }

    fn api(&self) -> DriverApi {
        DriverApi {
            ioctls: vec![
                IoctlDesc::with_words(
                    "VC_CONFIGURE",
                    VC_CONFIGURE,
                    vec![
                        WordShape::Choice(CODECS.to_vec()),
                        WordShape::Range { min: 64, max: 3840 },
                        WordShape::Range { min: 64, max: 2160 },
                    ],
                ),
                IoctlDesc::bare("VC_START", VC_START),
                IoctlDesc::with_words(
                    "VC_QUEUE_IN",
                    VC_QUEUE_IN,
                    vec![WordShape::Range { min: 1, max: 1 << 20 }],
                ),
                IoctlDesc::bare("VC_DEQUEUE_OUT", VC_DEQUEUE_OUT),
                IoctlDesc::bare("VC_FLUSH", VC_FLUSH),
                IoctlDesc::bare("VC_DRAIN", VC_DRAIN),
                IoctlDesc::bare("VC_STOP", VC_STOP),
                IoctlDesc::bare("VC_RESET", VC_RESET),
            ],
            supports_read: false,
            supports_write: true,
            supports_mmap: true,
            vendor: true,
            state_model: Some(vcodec_state_model()),
        }
    }

    fn release(&mut self, ctx: &mut DriverCtx<'_>) {
        ctx.hit(&[0x11]);
        self.sessions.remove(&ctx.open_id);
    }

    fn write(&mut self, ctx: &mut DriverCtx<'_>, data: &[u8]) -> Result<usize, Errno> {
        let s = self.sessions.entry(ctx.open_id).or_default();
        if s.state != CodecState::Running {
            return Err(Errno::EPIPE);
        }
        s.in_queue += 1;
        ctx.hit_path(3, &[1, u64::from(s.codec), data.len().min(4096) as u64 / 512]);
        Ok(data.len())
    }

    fn mmap(&mut self, ctx: &mut DriverCtx<'_>, len: usize, prot: u32) -> Result<(), Errno> {
        let s = self.sessions.entry(ctx.open_id).or_default();
        if s.state == CodecState::Unconfigured {
            return Err(Errno::EINVAL);
        }
        ctx.hit(&[2, s.state as u64, len as u64 / 4096, u64::from(prot)]);
        Ok(())
    }

    fn ioctl(
        &mut self,
        ctx: &mut DriverCtx<'_>,
        request: u32,
        arg: &[u8],
    ) -> Result<IoctlOut, Errno> {
        let s = self.sessions.entry(ctx.open_id).or_default();
        let state_tag = s.state as u64;
        match request {
            VC_CONFIGURE => {
                if !matches!(s.state, CodecState::Unconfigured | CodecState::Stopped) {
                    return Err(Errno::EBUSY);
                }
                let codec = word(arg, 0);
                let (w, h) = (word(arg, 1), word(arg, 2));
                if !CODECS.contains(&codec) {
                    return Err(Errno::EINVAL);
                }
                if !(64..=3840).contains(&w) || !(64..=2160).contains(&h) {
                    return Err(Errno::EINVAL);
                }
                s.codec = codec;
                s.dims = (w, h);
                s.state = CodecState::Configured;
                ctx.hit(&[3, state_tag, u64::from(codec), u64::from(w) / 640, u64::from(h) / 480]);
                Ok(IoctlOut::Val(0))
            }
            VC_START => {
                if s.state != CodecState::Configured {
                    return Err(Errno::EINVAL);
                }
                s.state = CodecState::Running;
                ctx.hit_path(3, &[4, u64::from(s.codec)]);
                Ok(IoctlOut::Val(0))
            }
            VC_QUEUE_IN => {
                if s.state != CodecState::Running {
                    return Err(Errno::EPIPE);
                }
                let len = word(arg, 0);
                if len == 0 || len > (1 << 20) {
                    return Err(Errno::EINVAL);
                }
                s.in_queue += 1;
                // Every second input produces an output frame.
                if s.in_queue.is_multiple_of(2) {
                    s.out_ready += 1;
                }
                ctx.hit_path(3, &[5, u64::from(s.codec), u64::from(s.in_queue.min(2)), u64::from(len) / (64 << 10)]);
                Ok(IoctlOut::Val(u64::from(s.in_queue)))
            }
            VC_DEQUEUE_OUT => {
                if !matches!(s.state, CodecState::Running | CodecState::Draining) {
                    return Err(Errno::EINVAL);
                }
                if s.out_ready == 0 {
                    return Err(Errno::EAGAIN);
                }
                s.out_ready -= 1;
                s.frames += 1;
                ctx.hit_path(6, &[6, state_tag, s.frames.min(8)]);
                Ok(IoctlOut::Val(s.frames))
            }
            VC_FLUSH => {
                if !matches!(s.state, CodecState::Running | CodecState::Draining) {
                    return Err(Errno::EINVAL);
                }
                ctx.hit_path(3, &[7, state_tag, u64::from(s.in_queue.min(8)), u64::from(s.out_ready.min(8))]);
                s.in_queue = 0;
                s.out_ready = 0;
                if s.state == CodecState::Draining {
                    s.state = CodecState::Running;
                }
                Ok(IoctlOut::Val(0))
            }
            VC_DRAIN => {
                if s.state != CodecState::Running {
                    return Err(Errno::EINVAL);
                }
                s.state = CodecState::Draining;
                s.out_ready += s.in_queue / 2;
                ctx.hit_path(4, &[8, u64::from(s.in_queue.min(8))]);
                Ok(IoctlOut::Val(0))
            }
            VC_STOP => {
                if s.state == CodecState::Unconfigured {
                    return Err(Errno::EINVAL);
                }
                ctx.hit(&[9, state_tag]);
                s.state = CodecState::Stopped;
                s.in_queue = 0;
                s.out_ready = 0;
                Ok(IoctlOut::Val(0))
            }
            VC_RESET => {
                ctx.hit(&[10, state_tag]);
                *s = CodecSession::default();
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
        dev: &mut VcodecDevice,
        g: &mut CoverageMap,
        b: &mut BugSink,
        req: u32,
        words: &[u32],
    ) -> Result<IoctlOut, Errno> {
        let mut ctx = DriverCtx::new(0x700, "vcodec", None, g, b, 1);
        dev.ioctl(&mut ctx, req, &encode_words(words))
    }

    #[test]
    fn decode_pipeline_produces_frames() {
        let mut dev = VcodecDevice::new();
        let (mut g, mut b) = (CoverageMap::new(), BugSink::new());
        run(&mut dev, &mut g, &mut b, VC_CONFIGURE, &[1, 1920, 1080]).unwrap();
        run(&mut dev, &mut g, &mut b, VC_START, &[]).unwrap();
        run(&mut dev, &mut g, &mut b, VC_QUEUE_IN, &[4096]).unwrap();
        assert_eq!(
            run(&mut dev, &mut g, &mut b, VC_DEQUEUE_OUT, &[]).unwrap_err(),
            Errno::EAGAIN
        );
        run(&mut dev, &mut g, &mut b, VC_QUEUE_IN, &[4096]).unwrap();
        assert_eq!(
            run(&mut dev, &mut g, &mut b, VC_DEQUEUE_OUT, &[]).unwrap(),
            IoctlOut::Val(1)
        );
        assert!(b.take().is_empty());
    }

    #[test]
    fn start_before_configure_fails() {
        let mut dev = VcodecDevice::new();
        let (mut g, mut b) = (CoverageMap::new(), BugSink::new());
        assert_eq!(run(&mut dev, &mut g, &mut b, VC_START, &[]).unwrap_err(), Errno::EINVAL);
        assert_eq!(run(&mut dev, &mut g, &mut b, VC_QUEUE_IN, &[1]).unwrap_err(), Errno::EPIPE);
    }

    #[test]
    fn drain_flush_cycle() {
        let mut dev = VcodecDevice::new();
        let (mut g, mut b) = (CoverageMap::new(), BugSink::new());
        run(&mut dev, &mut g, &mut b, VC_CONFIGURE, &[2, 640, 480]).unwrap();
        run(&mut dev, &mut g, &mut b, VC_START, &[]).unwrap();
        run(&mut dev, &mut g, &mut b, VC_QUEUE_IN, &[1024]).unwrap();
        run(&mut dev, &mut g, &mut b, VC_QUEUE_IN, &[1024]).unwrap();
        run(&mut dev, &mut g, &mut b, VC_DRAIN, &[]).unwrap();
        run(&mut dev, &mut g, &mut b, VC_FLUSH, &[]).unwrap();
        // Back to running after a drain-flush.
        run(&mut dev, &mut g, &mut b, VC_QUEUE_IN, &[1024]).unwrap();
        run(&mut dev, &mut g, &mut b, VC_STOP, &[]).unwrap();
    }

    #[test]
    fn reconfigure_after_stop_allowed() {
        let mut dev = VcodecDevice::new();
        let (mut g, mut b) = (CoverageMap::new(), BugSink::new());
        run(&mut dev, &mut g, &mut b, VC_CONFIGURE, &[1, 640, 480]).unwrap();
        assert_eq!(
            run(&mut dev, &mut g, &mut b, VC_CONFIGURE, &[1, 640, 480]).unwrap_err(),
            Errno::EBUSY
        );
        run(&mut dev, &mut g, &mut b, VC_STOP, &[]).unwrap();
        run(&mut dev, &mut g, &mut b, VC_CONFIGURE, &[3, 1280, 720]).unwrap();
    }
}
