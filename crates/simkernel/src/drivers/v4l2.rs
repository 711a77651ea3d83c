//! V4L2-style camera capture driver at `/dev/video<N>`.
//!
//! Carries Table II bug **#12** (device E): `WARNING in v4l_querycap` when
//! userspace passes a capabilities pointer of `0xffffffff`, which the
//! vendor's compat shim dereferences before validation. This bug is
//! intentionally *shallow* (one ioctl) — it is one of the two bugs the
//! paper reports syzkaller also finds.

use crate::driver::{
    word, CharDevice, DriverApi, DriverCtx, IoctlDesc, IoctlOut, StateModel, Transition,
    WordGuard, WordShape,
};
use crate::errno::Errno;

/// `VIDIOC_QUERYCAP`
pub const VIDIOC_QUERYCAP: u32 = 0x8068_5600;
/// `VIDIOC_ENUM_FMT` (`arg[0]` = index)
pub const VIDIOC_ENUM_FMT: u32 = 0xC040_5602;
/// `VIDIOC_S_FMT` (`arg[0]` = width, `arg[1]` = height, `arg[2]` = pixfmt)
pub const VIDIOC_S_FMT: u32 = 0xC0D0_5605;
/// `VIDIOC_G_FMT`
pub const VIDIOC_G_FMT: u32 = 0xC0D0_5604;
/// `VIDIOC_REQBUFS` (`arg[0]` = count)
pub const VIDIOC_REQBUFS: u32 = 0xC014_5608;
/// `VIDIOC_QBUF` (`arg[0]` = index)
pub const VIDIOC_QBUF: u32 = 0xC058_560F;
/// `VIDIOC_DQBUF`
pub const VIDIOC_DQBUF: u32 = 0xC058_5611;
/// `VIDIOC_STREAMON`
pub const VIDIOC_STREAMON: u32 = 0x4004_5612;
/// `VIDIOC_STREAMOFF`
pub const VIDIOC_STREAMOFF: u32 = 0x4004_5613;

/// Supported pixel formats (fourcc-ish tags).
pub const PIXFMTS: [u32; 4] = [0x5956_5559, 0x3231_564e, 0x4747_504a, 0x3442_4752];

/// Declarative state machine of one capture session (state is per open
/// file, like a real V4L2 `fh`):
///
/// - `Fresh`: no format negotiated;
/// - `Fmt`: format set, no buffers;
/// - `Buf`/`BufQ`: buffers allocated, queue empty / exactly buffer 0
///   queued;
/// - `Str`/`StrQ`: streaming with the same two queue shapes.
///
/// Queuing any index other than 0 leaves the precisely-tracked queue
/// shapes.
fn v4l2_state_model() -> StateModel {
    let dim = || WordGuard::In(16, 4096);
    let pix = || WordGuard::OneOf(PIXFMTS.to_vec());
    StateModel::new("Fresh", &["Fresh", "Fmt", "Buf", "BufQ", "Str", "StrQ"])
        .per_open()
        .with(vec![
            Transition::ioctl(VIDIOC_QUERYCAP).guard(WordGuard::OneOf(vec![0, 1])),
            Transition::ioctl(VIDIOC_ENUM_FMT).guard(WordGuard::In(0, PIXFMTS.len() as u32 - 1)),
            Transition::ioctl(VIDIOC_S_FMT)
                .guard(dim())
                .guard(dim())
                .guard(pix())
                .from(&["Fresh"])
                .to("Fmt"),
            Transition::ioctl(VIDIOC_S_FMT)
                .guard(dim())
                .guard(dim())
                .guard(pix())
                .from(&["Fmt", "Buf", "BufQ"]),
            Transition::ioctl(VIDIOC_G_FMT).from(&["Fmt", "Buf", "BufQ", "Str", "StrQ"]),
            Transition::ioctl(VIDIOC_REQBUFS)
                .guard(WordGuard::In(1, u32::MAX))
                .from(&["Fmt", "Buf", "BufQ"])
                .to("Buf")
                .produces("v4l2:buf"),
            Transition::ioctl(VIDIOC_REQBUFS)
                .guard(WordGuard::Eq(0))
                .from(&["Fmt", "Buf", "BufQ"])
                .to("Fmt"),
            Transition::ioctl(VIDIOC_QBUF).guard(WordGuard::Eq(0)).from(&["Buf"]).to("BufQ"),
            Transition::ioctl(VIDIOC_QBUF).guard(WordGuard::Eq(0)).from(&["Str"]).to("StrQ"),
            Transition::ioctl(VIDIOC_QBUF)
                .guard(WordGuard::In(1, 31))
                .from(&["Buf", "BufQ"])
                .to("Fmt")
                .may_fail(),
            Transition::ioctl(VIDIOC_QBUF)
                .guard(WordGuard::In(1, 31))
                .from(&["Str", "StrQ"])
                .to("Fmt")
                .may_fail(),
            Transition::ioctl(VIDIOC_DQBUF).from(&["StrQ"]).to("Str"),
            Transition::ioctl(VIDIOC_STREAMON).from(&["Buf"]).to("Str").consumes("v4l2:buf"),
            Transition::ioctl(VIDIOC_STREAMON).from(&["BufQ"]).to("StrQ").consumes("v4l2:buf"),
            Transition::ioctl(VIDIOC_STREAMOFF).from(&["Str", "StrQ"]).to("Buf"),
            Transition::read().from(&["Str", "StrQ"]),
            Transition::mmap().from(&["Buf", "BufQ", "Str", "StrQ"]),
        ])
}

/// Which injected V4L2 bugs the firmware arms.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct V4l2Bugs {
    /// Bug #12 (device E).
    pub querycap_warn: bool,
}

/// Per-open capture session (`file->private_data`).
#[derive(Debug, Default)]
struct V4l2Session {
    fmt: Option<(u32, u32, u32)>,
    buf_count: u32,
    queued: Vec<bool>,
    streaming: bool,
    frames: u64,
}

impl V4l2Session {
    fn phase(&self) -> u64 {
        match (self.fmt.is_some(), self.buf_count > 0, self.streaming) {
            (false, _, _) => 0,
            (true, false, _) => 1,
            (true, true, false) => 2,
            (true, true, true) => 3,
        }
    }
}

/// The camera capture driver. Capture state lives per open file, exactly
/// like a real V4L2 `fh` — a fresh open starts from scratch.
#[derive(Debug)]
pub struct V4l2Device {
    index: u32,
    armed: V4l2Bugs,
    sessions: std::collections::BTreeMap<u64, V4l2Session>,
}

impl V4l2Device {
    /// Creates `/dev/video<index>` with no bugs armed.
    pub fn new(index: u32) -> Self {
        Self::with_bugs(index, V4l2Bugs::default())
    }

    /// Creates `/dev/video<index>` with the given bugs armed.
    pub fn with_bugs(index: u32, armed: V4l2Bugs) -> Self {
        Self { index, armed, sessions: std::collections::BTreeMap::new() }
    }

    /// Live capture sessions (for tests/introspection).
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }
}

impl CharDevice for V4l2Device {
    fn name(&self) -> &'static str {
        "v4l2"
    }

    fn node(&self) -> String {
        format!("/dev/video{}", self.index)
    }

    fn api(&self) -> DriverApi {
        DriverApi {
            ioctls: vec![
                IoctlDesc::with_words(
                    "VIDIOC_QUERYCAP",
                    VIDIOC_QUERYCAP,
                    vec![WordShape::Choice(vec![0, 1, 0xffff_ffff])],
                ),
                IoctlDesc::with_words(
                    "VIDIOC_ENUM_FMT",
                    VIDIOC_ENUM_FMT,
                    vec![WordShape::Range { min: 0, max: 7 }],
                ),
                IoctlDesc::with_words(
                    "VIDIOC_S_FMT",
                    VIDIOC_S_FMT,
                    vec![
                        WordShape::Range { min: 16, max: 4096 },
                        WordShape::Range { min: 16, max: 4096 },
                        WordShape::Choice(PIXFMTS.to_vec()),
                    ],
                ),
                IoctlDesc::bare("VIDIOC_G_FMT", VIDIOC_G_FMT),
                IoctlDesc::with_words(
                    "VIDIOC_REQBUFS",
                    VIDIOC_REQBUFS,
                    vec![WordShape::Range { min: 0, max: 32 }],
                ),
                IoctlDesc::with_words(
                    "VIDIOC_QBUF",
                    VIDIOC_QBUF,
                    vec![WordShape::Range { min: 0, max: 31 }],
                ),
                IoctlDesc::bare("VIDIOC_DQBUF", VIDIOC_DQBUF),
                IoctlDesc::bare("VIDIOC_STREAMON", VIDIOC_STREAMON),
                IoctlDesc::bare("VIDIOC_STREAMOFF", VIDIOC_STREAMOFF),
            ],
            supports_read: true,
            supports_write: false,
            supports_mmap: true,
            vendor: false,
            state_model: Some(v4l2_state_model()),
        }
    }

    fn release(&mut self, ctx: &mut DriverCtx<'_>) {
        ctx.hit(&[0x11]);
        self.sessions.remove(&ctx.open_id);
    }

    fn read(&mut self, ctx: &mut DriverCtx<'_>, len: usize) -> Result<Vec<u8>, Errno> {
        let s = self.sessions.entry(ctx.open_id).or_default();
        if !s.streaming {
            return Err(Errno::EAGAIN);
        }
        s.frames += 1;
        let frames = s.frames;
        let n = len.min(256);
        ctx.hit_path(3, &[1, frames.min(8), n as u64 / 64]);
        Ok(vec![0u8; n])
    }

    fn mmap(&mut self, ctx: &mut DriverCtx<'_>, len: usize, prot: u32) -> Result<(), Errno> {
        let s = self.sessions.entry(ctx.open_id).or_default();
        if s.buf_count == 0 {
            return Err(Errno::EINVAL);
        }
        let phase = s.phase();
        ctx.hit(&[2, phase, len as u64 / 4096, u64::from(prot)]);
        Ok(())
    }

    fn ioctl(
        &mut self,
        ctx: &mut DriverCtx<'_>,
        request: u32,
        arg: &[u8],
    ) -> Result<IoctlOut, Errno> {
        let armed = self.armed;
        let open_id = ctx.open_id;
        let s = self.sessions.entry(open_id).or_default();
        match request {
            VIDIOC_QUERYCAP => {
                let cap_ptr = word(arg, 0);
                let phase = s.phase();
                ctx.hit(&[3, phase, u64::from(cap_ptr == 0xffff_ffff)]);
                if cap_ptr == 0xffff_ffff {
                    // Bug #12: the compat shim dereferences the raw pointer
                    // before copy_from_user validation.
                    if armed.querycap_warn {
                        ctx.warn("v4l_querycap");
                    }
                    return Err(Errno::EFAULT);
                }
                Ok(IoctlOut::Out(b"sim-cam\0".to_vec()))
            }
            VIDIOC_ENUM_FMT => {
                let idx = word(arg, 0) as usize;
                if idx >= PIXFMTS.len() {
                    return Err(Errno::EINVAL);
                }
                ctx.hit(&[4, s.phase(), idx as u64]);
                Ok(IoctlOut::Val(u64::from(PIXFMTS[idx])))
            }
            VIDIOC_S_FMT => {
                if s.streaming {
                    return Err(Errno::EBUSY);
                }
                let (w, h, pix) = (word(arg, 0), word(arg, 1), word(arg, 2));
                if !(16..=4096).contains(&w) || !(16..=4096).contains(&h) {
                    return Err(Errno::EINVAL);
                }
                if !PIXFMTS.contains(&pix) {
                    return Err(Errno::EINVAL);
                }
                s.fmt = Some((w, h, pix));
                ctx.hit(&[5, s.phase(), u64::from(w) / 1024, u64::from(h) / 1024, u64::from(pix) & 0xff]);
                Ok(IoctlOut::Val(0))
            }
            VIDIOC_G_FMT => match s.fmt {
                Some((w, h, pix)) => {
                    ctx.hit(&[6, 1]);
                    Ok(IoctlOut::Out(
                        [w.to_le_bytes(), h.to_le_bytes(), pix.to_le_bytes()].concat(),
                    ))
                }
                None => {
                    ctx.hit(&[6, 0]);
                    Err(Errno::EINVAL)
                }
            },
            VIDIOC_REQBUFS => {
                if s.streaming {
                    return Err(Errno::EBUSY);
                }
                if s.fmt.is_none() {
                    return Err(Errno::EINVAL);
                }
                let count = word(arg, 0).min(32);
                s.buf_count = count;
                s.queued = vec![false; count as usize];
                ctx.hit(&[7, s.phase(), u64::from(count) / 4]);
                Ok(IoctlOut::Val(u64::from(count)))
            }
            VIDIOC_QBUF => {
                let idx = word(arg, 0) as usize;
                if idx >= s.queued.len() {
                    return Err(Errno::EINVAL);
                }
                if s.queued[idx] {
                    return Err(Errno::EBUSY);
                }
                s.queued[idx] = true;
                let depth = s.queued.iter().filter(|&&q| q).count() as u64;
                ctx.hit_path(2, &[8, s.phase(), depth.min(8)]);
                Ok(IoctlOut::Val(0))
            }
            VIDIOC_DQBUF => {
                if !s.streaming {
                    return Err(Errno::EINVAL);
                }
                match s.queued.iter().position(|&q| q) {
                    Some(idx) => {
                        s.queued[idx] = false;
                        s.frames += 1;
                        ctx.hit_path(6, &[9, s.phase(), s.frames.min(8)]);
                        Ok(IoctlOut::Val(idx as u64))
                    }
                    None => Err(Errno::EAGAIN),
                }
            }
            VIDIOC_STREAMON => {
                if s.buf_count == 0 {
                    return Err(Errno::EINVAL);
                }
                if s.streaming {
                    return Err(Errno::EBUSY);
                }
                s.streaming = true;
                let depth = s.queued.iter().filter(|&&q| q).count() as u64;
                ctx.hit_path(4, &[10, depth.min(8)]);
                Ok(IoctlOut::Val(0))
            }
            VIDIOC_STREAMOFF => {
                if !s.streaming {
                    return Err(Errno::EINVAL);
                }
                s.streaming = false;
                s.queued.iter_mut().for_each(|q| *q = false);
                ctx.hit_path(3, &[11, s.phase(), s.frames.min(8)]);
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
        dev: &mut V4l2Device,
        g: &mut CoverageMap,
        b: &mut BugSink,
        req: u32,
        words: &[u32],
    ) -> Result<IoctlOut, Errno> {
        let mut ctx = DriverCtx::new(0x400, "v4l2", None, g, b, 1);
        dev.ioctl(&mut ctx, req, &encode_words(words))
    }

    #[test]
    fn bug12_querycap_with_bad_pointer_warns() {
        let mut dev = V4l2Device::with_bugs(0, V4l2Bugs { querycap_warn: true });
        let (mut g, mut b) = (CoverageMap::new(), BugSink::new());
        assert_eq!(
            run(&mut dev, &mut g, &mut b, VIDIOC_QUERYCAP, &[0xffff_ffff]).unwrap_err(),
            Errno::EFAULT
        );
        let reports = b.take();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].title, "WARNING in v4l_querycap");
    }

    #[test]
    fn querycap_normal_pointer_is_fine() {
        let mut dev = V4l2Device::with_bugs(0, V4l2Bugs { querycap_warn: true });
        let (mut g, mut b) = (CoverageMap::new(), BugSink::new());
        let out = run(&mut dev, &mut g, &mut b, VIDIOC_QUERYCAP, &[0]).unwrap();
        assert!(matches!(out, IoctlOut::Out(_)));
        assert!(b.take().is_empty());
    }

    #[test]
    fn capture_pipeline_ordering_enforced() {
        let mut dev = V4l2Device::new(0);
        let (mut g, mut b) = (CoverageMap::new(), BugSink::new());
        // REQBUFS before S_FMT fails.
        assert_eq!(
            run(&mut dev, &mut g, &mut b, VIDIOC_REQBUFS, &[4]).unwrap_err(),
            Errno::EINVAL
        );
        run(&mut dev, &mut g, &mut b, VIDIOC_S_FMT, &[640, 480, PIXFMTS[0]]).unwrap();
        run(&mut dev, &mut g, &mut b, VIDIOC_REQBUFS, &[4]).unwrap();
        run(&mut dev, &mut g, &mut b, VIDIOC_QBUF, &[0]).unwrap();
        run(&mut dev, &mut g, &mut b, VIDIOC_QBUF, &[1]).unwrap();
        run(&mut dev, &mut g, &mut b, VIDIOC_STREAMON, &[]).unwrap();
        assert_eq!(
            run(&mut dev, &mut g, &mut b, VIDIOC_DQBUF, &[]).unwrap(),
            IoctlOut::Val(0)
        );
        run(&mut dev, &mut g, &mut b, VIDIOC_STREAMOFF, &[]).unwrap();
        assert!(b.take().is_empty());
    }

    #[test]
    fn double_qbuf_same_index_is_ebusy() {
        let mut dev = V4l2Device::new(0);
        let (mut g, mut b) = (CoverageMap::new(), BugSink::new());
        run(&mut dev, &mut g, &mut b, VIDIOC_S_FMT, &[640, 480, PIXFMTS[1]]).unwrap();
        run(&mut dev, &mut g, &mut b, VIDIOC_REQBUFS, &[2]).unwrap();
        run(&mut dev, &mut g, &mut b, VIDIOC_QBUF, &[0]).unwrap();
        assert_eq!(
            run(&mut dev, &mut g, &mut b, VIDIOC_QBUF, &[0]).unwrap_err(),
            Errno::EBUSY
        );
    }

    #[test]
    fn full_pipeline_reveals_more_blocks_than_querycap_spam() {
        let mut shallow_dev = V4l2Device::new(0);
        let (mut g1, mut b1) = (CoverageMap::new(), BugSink::new());
        for _ in 0..20 {
            run(&mut shallow_dev, &mut g1, &mut b1, VIDIOC_QUERYCAP, &[0]).unwrap();
        }
        let mut deep_dev = V4l2Device::new(0);
        let (mut g2, mut b2) = (CoverageMap::new(), BugSink::new());
        run(&mut deep_dev, &mut g2, &mut b2, VIDIOC_S_FMT, &[1280, 720, PIXFMTS[0]]).unwrap();
        run(&mut deep_dev, &mut g2, &mut b2, VIDIOC_REQBUFS, &[4]).unwrap();
        for i in 0..4 {
            run(&mut deep_dev, &mut g2, &mut b2, VIDIOC_QBUF, &[i]).unwrap();
        }
        run(&mut deep_dev, &mut g2, &mut b2, VIDIOC_STREAMON, &[]).unwrap();
        for _ in 0..3 {
            run(&mut deep_dev, &mut g2, &mut b2, VIDIOC_DQBUF, &[]).unwrap();
        }
        assert!(g2.len() > g1.len());
    }

    #[test]
    fn node_name_tracks_index() {
        assert_eq!(V4l2Device::new(2).node(), "/dev/video2");
    }
}
