//! DRM/KMS-style display driver at `/dev/dri0` — the kernel side of the
//! Graphics (composer) HAL.

use crate::driver::{
    word, CharDevice, DriverApi, DriverCtx, IoctlDesc, IoctlOut, StateModel, Transition,
    WordGuard, WordShape,
};
use crate::errno::Errno;
use std::collections::BTreeMap;

/// Set the display mode (`arg[0]` = width, `arg[1]` = height, `arg[2]` = Hz).
pub const DRM_MODE_SET: u32 = 0x400C_6401;
/// Create a framebuffer (`arg[0]` = ION share token); returns an fb id.
pub const DRM_CREATE_FB: u32 = 0x4004_6402;
/// Destroy a framebuffer (`arg[0]` = fb id).
pub const DRM_DESTROY_FB: u32 = 0x4004_6403;
/// Queue a page flip to fb `arg[0]`.
pub const DRM_PAGE_FLIP: u32 = 0x4004_6404;
/// Commit `arg[0]` planes with flags `arg[1]`.
pub const DRM_PLANE_COMMIT: u32 = 0x4008_6405;
/// Wait for vblank.
pub const DRM_WAIT_VBLANK: u32 = 0x4004_6406;

/// Supported mode list (w, h, hz).
pub const MODES: [(u32, u32, u32); 4] =
    [(1920, 1080, 60), (1280, 720, 60), (3840, 2160, 30), (800, 480, 60)];

/// Maximum hardware planes.
pub const MAX_PLANES: u32 = 8;

/// Declarative state machine of the display controller. Framebuffer ids
/// are minted monotonically, so the model distinguishes `Mode0` (mode
/// set, fb id 1 still unminted) from `ModeN` (mode set, no live fbs but
/// ids spent): only from `Mode0` does `DRM_CREATE_FB` provably return fb
/// id 1, making the follow-up `DRM_PAGE_FLIP(1)` a guaranteed deep edge.
/// `DRM_CREATE_FB` consumes the ION share token — the second
/// cross-driver prior edge next to the GPU import path.
fn drm_state_model() -> StateModel {
    let mut t = vec![
        Transition::ioctl(DRM_CREATE_FB)
            .guard(WordGuard::MaskEq(0xFFFF_0000, super::ion::SHARE_TAG))
            .from(&["Mode0"])
            .to("MF1")
            .consumes("ion:token")
            .produces("drm:fb"),
        Transition::ioctl(DRM_CREATE_FB)
            .guard(WordGuard::MaskEq(0xFFFF_0000, super::ion::SHARE_TAG))
            .from(&["ModeN", "MF1"])
            .to("MFX")
            .consumes("ion:token"),
        Transition::ioctl(DRM_CREATE_FB)
            .guard(WordGuard::MaskEq(0xFFFF_0000, super::ion::SHARE_TAG))
            .from(&["MFX"])
            .may_fail(),
        Transition::ioctl(DRM_DESTROY_FB).guard(WordGuard::Eq(1)).from(&["MF1"]).to("ModeN"),
        Transition::ioctl(DRM_DESTROY_FB).from(&["MFX"]).to("ModeN").may_fail(),
        Transition::ioctl(DRM_PAGE_FLIP).guard(WordGuard::Eq(1)).from(&["MF1"]),
        Transition::ioctl(DRM_PAGE_FLIP).from(&["MFX"]).may_fail(),
        Transition::ioctl(DRM_PLANE_COMMIT)
            .guard(WordGuard::Eq(1))
            .from(&["MF1", "MFX"]),
        Transition::ioctl(DRM_PLANE_COMMIT)
            .guard(WordGuard::In(2, MAX_PLANES))
            .from(&["MFX"])
            .may_fail(),
        Transition::ioctl(DRM_WAIT_VBLANK).from(&["Mode0", "ModeN", "MF1", "MFX"]),
        Transition::mmap().from(&["MF1", "MFX"]),
    ];
    for (w, h, hz) in MODES {
        t.push(
            Transition::ioctl(DRM_MODE_SET)
                .guard(WordGuard::Eq(w))
                .guard(WordGuard::Eq(h))
                .guard(WordGuard::Eq(hz))
                .from(&["Boot"])
                .to("Mode0"),
        );
        t.push(
            Transition::ioctl(DRM_MODE_SET)
                .guard(WordGuard::Eq(w))
                .guard(WordGuard::Eq(h))
                .guard(WordGuard::Eq(hz))
                .from(&["Mode0", "ModeN", "MF1", "MFX"]),
        );
    }
    StateModel::new("Boot", &["Boot", "Mode0", "ModeN", "MF1", "MFX"])
        .close_clobbers()
        .with(t)
}

/// The display driver.
#[derive(Debug, Default)]
pub struct DrmDevice {
    mode: Option<(u32, u32, u32)>,
    /// fb id → owning open file.
    fbs: BTreeMap<u32, u64>,
    next_fb: u32,
    flips: u64,
    commits: u64,
}

impl DrmDevice {
    /// Creates a display controller with no mode set.
    pub fn new() -> Self {
        Self {
            next_fb: 1,
            ..Self::default()
        }
    }

    /// Live framebuffer count.
    pub fn framebuffers(&self) -> usize {
        self.fbs.len()
    }
}

impl CharDevice for DrmDevice {
    fn name(&self) -> &'static str {
        "drm"
    }

    fn node(&self) -> String {
        "/dev/dri0".into()
    }

    fn api(&self) -> DriverApi {
        DriverApi {
            ioctls: vec![
                IoctlDesc::with_words(
                    "DRM_MODE_SET",
                    DRM_MODE_SET,
                    vec![
                        WordShape::Choice(MODES.iter().map(|m| m.0).collect()),
                        WordShape::Choice(MODES.iter().map(|m| m.1).collect()),
                        WordShape::Choice(vec![30, 60]),
                    ],
                ),
                IoctlDesc::with_words("DRM_CREATE_FB", DRM_CREATE_FB, vec![WordShape::Any]),
                IoctlDesc::with_words(
                    "DRM_DESTROY_FB",
                    DRM_DESTROY_FB,
                    vec![WordShape::Range { min: 1, max: 32 }],
                ),
                IoctlDesc::with_words(
                    "DRM_PAGE_FLIP",
                    DRM_PAGE_FLIP,
                    vec![WordShape::Range { min: 1, max: 32 }],
                ),
                IoctlDesc::with_words(
                    "DRM_PLANE_COMMIT",
                    DRM_PLANE_COMMIT,
                    vec![
                        WordShape::Range { min: 1, max: MAX_PLANES },
                        WordShape::Flags(vec![0x1, 0x2, 0x4]),
                    ],
                ),
                IoctlDesc::bare("DRM_WAIT_VBLANK", DRM_WAIT_VBLANK),
            ],
            supports_read: false,
            supports_write: false,
            supports_mmap: true,
            vendor: false,
            state_model: Some(drm_state_model()),
        }
    }

    fn release(&mut self, ctx: &mut DriverCtx<'_>) {
        ctx.hit(&[0x11]);
        self.fbs.retain(|_, owner| *owner != ctx.open_id);
    }

    fn mmap(&mut self, ctx: &mut DriverCtx<'_>, len: usize, prot: u32) -> Result<(), Errno> {
        if self.fbs.is_empty() {
            return Err(Errno::EINVAL);
        }
        ctx.hit(&[7, len as u64 / 4096, u64::from(prot)]);
        Ok(())
    }

    fn ioctl(
        &mut self,
        ctx: &mut DriverCtx<'_>,
        request: u32,
        arg: &[u8],
    ) -> Result<IoctlOut, Errno> {
        match request {
            DRM_MODE_SET => {
                let m = (word(arg, 0), word(arg, 1), word(arg, 2));
                if !MODES.contains(&m) {
                    return Err(Errno::EINVAL);
                }
                self.mode = Some(m);
                ctx.hit(&[1, u64::from(m.0) / 640, u64::from(m.2)]);
                Ok(IoctlOut::Val(0))
            }
            DRM_CREATE_FB => {
                let token = word(arg, 0);
                if token & 0xFFFF_0000 != super::ion::SHARE_TAG {
                    return Err(Errno::EINVAL);
                }
                if self.mode.is_none() {
                    return Err(Errno::EINVAL);
                }
                if self.fbs.len() >= 32 {
                    return Err(Errno::ENOMEM);
                }
                let id = self.next_fb;
                self.next_fb += 1;
                self.fbs.insert(id, ctx.open_id);
                ctx.hit(&[2, self.fbs.len().min(2) as u64]);
                Ok(IoctlOut::Val(u64::from(id)))
            }
            DRM_DESTROY_FB => {
                let id = word(arg, 0);
                if self.fbs.remove(&id).is_none() {
                    return Err(Errno::ENOENT);
                }
                ctx.hit(&[3, self.fbs.len().min(2) as u64]);
                Ok(IoctlOut::Val(0))
            }
            DRM_PAGE_FLIP => {
                let id = word(arg, 0);
                if !self.fbs.contains_key(&id) {
                    return Err(Errno::ENOENT);
                }
                self.flips += 1;
                ctx.hit_path(3, &[4, self.flips.min(8)]);
                Ok(IoctlOut::Val(self.flips))
            }
            DRM_PLANE_COMMIT => {
                let planes = word(arg, 0);
                let flags = word(arg, 1) & 0x7;
                if planes == 0 || planes > MAX_PLANES {
                    return Err(Errno::EINVAL);
                }
                if (planes as usize) > self.fbs.len() {
                    return Err(Errno::EINVAL);
                }
                self.commits += 1;
                ctx.hit_path(4, &[5, u64::from(planes), u64::from(flags), self.commits.min(6)]);
                Ok(IoctlOut::Val(self.commits))
            }
            DRM_WAIT_VBLANK => {
                if self.mode.is_none() {
                    return Err(Errno::EINVAL);
                }
                ctx.hit(&[6, self.flips.min(4)]);
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
    use crate::drivers::ion::SHARE_TAG;
    use crate::report::BugSink;

    fn run(
        dev: &mut DrmDevice,
        g: &mut CoverageMap,
        b: &mut BugSink,
        req: u32,
        words: &[u32],
    ) -> Result<IoctlOut, Errno> {
        let mut ctx = DriverCtx::new(0x800, "drm", None, g, b, 1);
        dev.ioctl(&mut ctx, req, &encode_words(words))
    }

    #[test]
    fn fb_requires_mode_and_share_token() {
        let mut dev = DrmDevice::new();
        let (mut g, mut b) = (CoverageMap::new(), BugSink::new());
        assert_eq!(
            run(&mut dev, &mut g, &mut b, DRM_CREATE_FB, &[SHARE_TAG | 1]).unwrap_err(),
            Errno::EINVAL,
            "no mode set yet"
        );
        run(&mut dev, &mut g, &mut b, DRM_MODE_SET, &[1920, 1080, 60]).unwrap();
        assert_eq!(
            run(&mut dev, &mut g, &mut b, DRM_CREATE_FB, &[0x42]).unwrap_err(),
            Errno::EINVAL,
            "bad token"
        );
        let IoctlOut::Val(fb) =
            run(&mut dev, &mut g, &mut b, DRM_CREATE_FB, &[SHARE_TAG | 1]).unwrap()
        else {
            panic!()
        };
        run(&mut dev, &mut g, &mut b, DRM_PAGE_FLIP, &[fb as u32]).unwrap();
        run(&mut dev, &mut g, &mut b, DRM_WAIT_VBLANK, &[]).unwrap();
    }

    #[test]
    fn commit_bounded_by_planes_and_fbs() {
        let mut dev = DrmDevice::new();
        let (mut g, mut b) = (CoverageMap::new(), BugSink::new());
        run(&mut dev, &mut g, &mut b, DRM_MODE_SET, &[1280, 720, 60]).unwrap();
        run(&mut dev, &mut g, &mut b, DRM_CREATE_FB, &[SHARE_TAG | 1]).unwrap();
        run(&mut dev, &mut g, &mut b, DRM_CREATE_FB, &[SHARE_TAG | 2]).unwrap();
        run(&mut dev, &mut g, &mut b, DRM_PLANE_COMMIT, &[2, 1]).unwrap();
        assert_eq!(
            run(&mut dev, &mut g, &mut b, DRM_PLANE_COMMIT, &[3, 1]).unwrap_err(),
            Errno::EINVAL
        );
        assert_eq!(
            run(&mut dev, &mut g, &mut b, DRM_PLANE_COMMIT, &[9, 1]).unwrap_err(),
            Errno::EINVAL
        );
    }

    #[test]
    fn destroy_unknown_fb_is_enoent() {
        let mut dev = DrmDevice::new();
        let (mut g, mut b) = (CoverageMap::new(), BugSink::new());
        assert_eq!(
            run(&mut dev, &mut g, &mut b, DRM_DESTROY_FB, &[5]).unwrap_err(),
            Errno::ENOENT
        );
    }
}
