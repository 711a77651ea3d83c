//! Mali-style GPU driver at `/dev/gpu0`.
//!
//! Carries Table II bug **#3** (device A1): importing a dma-buf chain
//! deeper than the lockdep subclass limit raises
//! `BUG: looking up invalid subclass: NUM` in the locking subsystem.
//! Reaching it requires a context, a valid ION share token
//! ([`super::ion::SHARE_TAG`]), and an import chain of depth
//! [`SUBCLASS_LIMIT`] — the cross-driver flow the Graphics HAL performs
//! when composing many layers.

use crate::driver::{
    word, CharDevice, DriverApi, DriverCtx, IoctlDesc, IoctlOut, StateModel, Transition,
    WordGuard, WordShape,
};
use crate::errno::Errno;
use std::collections::BTreeMap;

/// Create a GPU context; returns a context id.
pub const GPU_CREATE_CTX: u32 = 0x4004_4701;
/// Destroy a context (`arg[0]`).
pub const GPU_DESTROY_CTX: u32 = 0x4004_4702;
/// Import a shared buffer (`arg[0]` = ctx, `arg[1]` = ION share token,
/// `arg[2]` = parent import id or 0); returns an import id.
pub const GPU_IMPORT: u32 = 0x400C_4703;
/// Submit a job (`arg[0]` = ctx, `arg[1]` = flags, `arg[2]` = buffer count).
pub const GPU_SUBMIT: u32 = 0x400C_4704;
/// Wait on a fence (`arg[0]` = ctx, `arg[1]` = fence).
pub const GPU_WAIT: u32 = 0x4008_4705;
/// Read GPU utilization counters.
pub const GPU_GET_COUNTERS: u32 = 0x8004_4706;

/// Maximum lockdep subclass; import chains of this depth trip bug #3.
pub const SUBCLASS_LIMIT: u32 = 8;

/// Declarative state machine of the GPU:
///
/// - `Boot`: no context has ever been created (ids unspent);
/// - `C1`: exactly context 1 is live with no imports;
/// - `C1I`: context 1 is live and holds import 1 at chain depth 1;
/// - `Busy`: at least one context is live but details are untracked;
/// - `NoCtx`: no context is live, ids spent.
///
/// Import chains with `parent ≥ 1` from any imprecise state are hazards:
/// an adversarial parent choice can reach [`SUBCLASS_LIMIT`] and raise
/// the fatal bug #3, so the interpreter stops trusting success after
/// them. `close` releases the owner's contexts, so the model clobbers.
fn gpu_state_model() -> StateModel {
    let tag = || WordGuard::MaskEq(0xFFFF_0000, super::ion::SHARE_TAG);
    StateModel::new("Boot", &["Boot", "C1", "C1I", "Busy", "NoCtx"])
        .close_clobbers()
        .with(vec![
            Transition::ioctl(GPU_CREATE_CTX).from(&["Boot"]).to("C1").produces("gpu:ctx"),
            Transition::ioctl(GPU_CREATE_CTX)
                .from(&["C1", "C1I", "NoCtx"])
                .to("Busy")
                .produces("gpu:ctx"),
            Transition::ioctl(GPU_CREATE_CTX).from(&["Busy"]).may_fail(),
            Transition::ioctl(GPU_DESTROY_CTX)
                .guard(WordGuard::Eq(1))
                .from(&["C1", "C1I"])
                .to("NoCtx"),
            Transition::ioctl(GPU_DESTROY_CTX).from(&["Busy"]).to("NoCtx").may_fail(),
            // Depth-1 imports are always safe; deeper chains from states
            // whose import depths are unknown can trip bug #3.
            Transition::ioctl(GPU_IMPORT)
                .guard(WordGuard::Eq(1))
                .guard(tag())
                .guard(WordGuard::Eq(0))
                .from(&["C1"])
                .to("C1I")
                .consumes("ion:token")
                .produces("gpu:import"),
            Transition::ioctl(GPU_IMPORT)
                .guard(WordGuard::Eq(1))
                .guard(tag())
                .guard(WordGuard::Eq(0))
                .from(&["C1I"])
                .consumes("ion:token"),
            Transition::ioctl(GPU_IMPORT)
                .guard(WordGuard::Eq(1))
                .guard(tag())
                .guard(WordGuard::Eq(1))
                .from(&["C1I"])
                .consumes("ion:token"),
            Transition::ioctl(GPU_IMPORT)
                .guard(WordGuard::Eq(1))
                .guard(tag())
                .guard(WordGuard::In(2, u32::MAX))
                .from(&["C1I"])
                .may_fail()
                .hazard(),
            Transition::ioctl(GPU_IMPORT)
                .guard(WordGuard::Any)
                .guard(tag())
                .guard(WordGuard::Eq(0))
                .from(&["Busy"])
                .may_fail(),
            Transition::ioctl(GPU_IMPORT)
                .guard(WordGuard::Any)
                .guard(tag())
                .guard(WordGuard::In(1, u32::MAX))
                .from(&["Busy"])
                .may_fail()
                .hazard(),
            Transition::ioctl(GPU_SUBMIT)
                .guard(WordGuard::Eq(1))
                .guard(WordGuard::Any)
                .guard(WordGuard::Eq(0))
                .from(&["C1", "C1I"]),
            Transition::ioctl(GPU_SUBMIT)
                .guard(WordGuard::Eq(1))
                .guard(WordGuard::Any)
                .guard(WordGuard::Eq(1))
                .from(&["C1I"]),
            Transition::ioctl(GPU_SUBMIT)
                .guard(WordGuard::Eq(1))
                .guard(WordGuard::Any)
                .guard(WordGuard::In(2, u32::MAX))
                .from(&["C1I"])
                .may_fail(),
            Transition::ioctl(GPU_SUBMIT).from(&["Busy"]).may_fail(),
            Transition::ioctl(GPU_WAIT)
                .guard(WordGuard::Eq(1))
                .guard(WordGuard::Eq(0))
                .from(&["C1", "C1I"]),
            Transition::ioctl(GPU_WAIT)
                .guard(WordGuard::Eq(1))
                .guard(WordGuard::In(1, u32::MAX))
                .from(&["C1", "C1I"])
                .may_fail(),
            Transition::ioctl(GPU_WAIT).from(&["Busy"]).may_fail(),
            Transition::ioctl(GPU_GET_COUNTERS),
            Transition::mmap().from(&["C1", "C1I", "Busy"]),
        ])
}

/// Which injected GPU bugs the firmware arms.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GpuBugs {
    /// Bug #3 (device A1).
    pub subclass_bug: bool,
}

#[derive(Debug)]
struct GpuContext {
    /// import id → chain depth.
    imports: BTreeMap<u32, u32>,
    submits: u64,
    /// Open file that created the context.
    owner: u64,
}

/// The GPU driver.
#[derive(Debug)]
pub struct GpuDevice {
    armed: GpuBugs,
    contexts: BTreeMap<u32, GpuContext>,
    next_ctx: u32,
    next_import: u32,
}

impl GpuDevice {
    /// Creates a GPU with the given bugs armed.
    pub fn new(armed: GpuBugs) -> Self {
        Self {
            armed,
            contexts: BTreeMap::new(),
            next_ctx: 1,
            next_import: 1,
        }
    }

    /// Number of live contexts.
    pub fn context_count(&self) -> usize {
        self.contexts.len()
    }
}

impl CharDevice for GpuDevice {
    fn name(&self) -> &'static str {
        "gpu"
    }

    fn node(&self) -> String {
        "/dev/gpu0".into()
    }

    fn api(&self) -> DriverApi {
        DriverApi {
            ioctls: vec![
                IoctlDesc::bare("GPU_CREATE_CTX", GPU_CREATE_CTX),
                IoctlDesc::with_words(
                    "GPU_DESTROY_CTX",
                    GPU_DESTROY_CTX,
                    vec![WordShape::Range { min: 1, max: 16 }],
                ),
                IoctlDesc::with_words(
                    "GPU_IMPORT",
                    GPU_IMPORT,
                    vec![
                        WordShape::Range { min: 1, max: 16 },
                        WordShape::Any,
                        WordShape::Range { min: 0, max: 256 },
                    ],
                ),
                IoctlDesc::with_words(
                    "GPU_SUBMIT",
                    GPU_SUBMIT,
                    vec![
                        WordShape::Range { min: 1, max: 16 },
                        WordShape::Flags(vec![0x1, 0x2, 0x4, 0x8]),
                        WordShape::Range { min: 0, max: 64 },
                    ],
                ),
                IoctlDesc::with_words(
                    "GPU_WAIT",
                    GPU_WAIT,
                    vec![WordShape::Range { min: 1, max: 16 }, WordShape::Any],
                ),
                IoctlDesc::bare("GPU_GET_COUNTERS", GPU_GET_COUNTERS),
            ],
            supports_read: false,
            supports_write: false,
            supports_mmap: true,
            vendor: true,
            state_model: Some(gpu_state_model()),
        }
    }

    fn release(&mut self, ctx: &mut DriverCtx<'_>) {
        ctx.hit(&[0x11]);
        self.contexts.retain(|_, c| c.owner != ctx.open_id);
    }

    fn mmap(&mut self, ctx: &mut DriverCtx<'_>, len: usize, prot: u32) -> Result<(), Errno> {
        if self.contexts.is_empty() {
            return Err(Errno::EINVAL);
        }
        ctx.hit(&[6, len as u64 / 4096, u64::from(prot)]);
        Ok(())
    }

    fn ioctl(
        &mut self,
        ctx: &mut DriverCtx<'_>,
        request: u32,
        arg: &[u8],
    ) -> Result<IoctlOut, Errno> {
        match request {
            GPU_CREATE_CTX => {
                if self.contexts.len() >= 16 {
                    return Err(Errno::ENOMEM);
                }
                let id = self.next_ctx;
                self.next_ctx += 1;
                self.contexts.insert(
                    id,
                    GpuContext { imports: BTreeMap::new(), submits: 0, owner: ctx.open_id },
                );
                ctx.hit(&[1, self.contexts.len() as u64]);
                Ok(IoctlOut::Val(u64::from(id)))
            }
            GPU_DESTROY_CTX => {
                let id = word(arg, 0);
                match self.contexts.remove(&id) {
                    Some(c) => {
                        ctx.hit(&[2, c.imports.len().min(8) as u64, c.submits.min(4)]);
                        Ok(IoctlOut::Val(0))
                    }
                    None => Err(Errno::ENOENT),
                }
            }
            GPU_IMPORT => {
                let ctx_id = word(arg, 0);
                let token = word(arg, 1);
                let parent = word(arg, 2);
                if token & 0xFFFF_0000 != super::ion::SHARE_TAG {
                    return Err(Errno::EINVAL);
                }
                let armed = self.armed.subclass_bug;
                let import_id = self.next_import;
                let Some(gpu_ctx) = self.contexts.get_mut(&ctx_id) else {
                    return Err(Errno::ENOENT);
                };
                let depth = if parent == 0 {
                    1
                } else {
                    match gpu_ctx.imports.get(&parent) {
                        Some(d) => d + 1,
                        None => return Err(Errno::ENOENT),
                    }
                };
                self.next_import += 1;
                gpu_ctx.imports.insert(import_id, depth);
                ctx.hit_path(3, &[3, u64::from(depth.min(SUBCLASS_LIMIT + 1)), u64::from(token & 0xF)]);
                if depth >= SUBCLASS_LIMIT {
                    // Bug #3: each nested import takes the reservation lock
                    // with subclass = depth; lockdep only has 8 subclasses.
                    if armed {
                        ctx.bug_msg("BUG: looking up invalid subclass: NUM");
                    }
                    return Err(Errno::EINVAL);
                }
                Ok(IoctlOut::Val(u64::from(import_id)))
            }
            GPU_SUBMIT => {
                let ctx_id = word(arg, 0);
                let flags = word(arg, 1) & 0xF;
                let nbuf = word(arg, 2);
                let Some(gpu_ctx) = self.contexts.get_mut(&ctx_id) else {
                    return Err(Errno::ENOENT);
                };
                if nbuf as usize > gpu_ctx.imports.len() {
                    return Err(Errno::EINVAL);
                }
                gpu_ctx.submits += 1;
                let submits = gpu_ctx.submits.min(6);
                ctx.hit_path(4, &[4, u64::from(flags), u64::from(nbuf.min(8)), submits]);
                Ok(IoctlOut::Val(gpu_ctx.submits))
            }
            GPU_WAIT => {
                let ctx_id = word(arg, 0);
                let fence = word(arg, 1);
                let Some(gpu_ctx) = self.contexts.get(&ctx_id) else {
                    return Err(Errno::ENOENT);
                };
                if u64::from(fence) > gpu_ctx.submits {
                    return Err(Errno::EAGAIN);
                }
                ctx.hit(&[5, u64::from(fence).min(6)]);
                Ok(IoctlOut::Val(0))
            }
            GPU_GET_COUNTERS => {
                ctx.hit(&[7, self.contexts.len() as u64]);
                Ok(IoctlOut::Val(self.contexts.values().map(|c| c.submits).sum()))
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
    use crate::report::{BugKind, BugSink};

    fn run(
        dev: &mut GpuDevice,
        g: &mut CoverageMap,
        b: &mut BugSink,
        req: u32,
        words: &[u32],
    ) -> Result<IoctlOut, Errno> {
        let mut ctx = DriverCtx::new(0x600, "gpu", None, g, b, 1);
        dev.ioctl(&mut ctx, req, &encode_words(words))
    }

    fn chain_import(
        dev: &mut GpuDevice,
        g: &mut CoverageMap,
        b: &mut BugSink,
        ctx_id: u32,
        depth: u32,
    ) -> Result<u32, Errno> {
        let token = SHARE_TAG | 1;
        let mut parent = 0u32;
        for _ in 0..depth {
            let out = run(dev, g, b, GPU_IMPORT, &[ctx_id, token, parent])?;
            let IoctlOut::Val(id) = out else { panic!() };
            parent = id as u32;
        }
        Ok(parent)
    }

    #[test]
    fn bug3_deep_import_chain_hits_subclass_limit() {
        let mut dev = GpuDevice::new(GpuBugs { subclass_bug: true });
        let (mut g, mut b) = (CoverageMap::new(), BugSink::new());
        let IoctlOut::Val(ctx_id) = run(&mut dev, &mut g, &mut b, GPU_CREATE_CTX, &[]).unwrap()
        else {
            panic!()
        };
        let err = chain_import(&mut dev, &mut g, &mut b, ctx_id as u32, SUBCLASS_LIMIT);
        assert_eq!(err.unwrap_err(), Errno::EINVAL);
        let reports = b.take();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].kind, BugKind::Bug);
        assert_eq!(reports[0].title, "BUG: looking up invalid subclass: NUM");
    }

    #[test]
    fn shallow_chains_are_benign() {
        let mut dev = GpuDevice::new(GpuBugs { subclass_bug: true });
        let (mut g, mut b) = (CoverageMap::new(), BugSink::new());
        let IoctlOut::Val(ctx_id) = run(&mut dev, &mut g, &mut b, GPU_CREATE_CTX, &[]).unwrap()
        else {
            panic!()
        };
        chain_import(&mut dev, &mut g, &mut b, ctx_id as u32, SUBCLASS_LIMIT - 1).unwrap();
        assert!(b.take().is_empty());
    }

    #[test]
    fn import_requires_share_tag_and_context() {
        let mut dev = GpuDevice::new(GpuBugs::default());
        let (mut g, mut b) = (CoverageMap::new(), BugSink::new());
        assert_eq!(
            run(&mut dev, &mut g, &mut b, GPU_IMPORT, &[1, 0x1234, 0]).unwrap_err(),
            Errno::EINVAL,
            "token without share tag rejected"
        );
        assert_eq!(
            run(&mut dev, &mut g, &mut b, GPU_IMPORT, &[1, SHARE_TAG | 1, 0]).unwrap_err(),
            Errno::ENOENT,
            "no such context"
        );
    }

    #[test]
    fn submit_validates_buffer_count() {
        let mut dev = GpuDevice::new(GpuBugs::default());
        let (mut g, mut b) = (CoverageMap::new(), BugSink::new());
        let IoctlOut::Val(ctx_id) = run(&mut dev, &mut g, &mut b, GPU_CREATE_CTX, &[]).unwrap()
        else {
            panic!()
        };
        assert_eq!(
            run(&mut dev, &mut g, &mut b, GPU_SUBMIT, &[ctx_id as u32, 1, 5]).unwrap_err(),
            Errno::EINVAL,
            "more buffers than imports"
        );
        run(&mut dev, &mut g, &mut b, GPU_SUBMIT, &[ctx_id as u32, 1, 0]).unwrap();
        run(&mut dev, &mut g, &mut b, GPU_WAIT, &[ctx_id as u32, 1]).unwrap();
        assert_eq!(
            run(&mut dev, &mut g, &mut b, GPU_WAIT, &[ctx_id as u32, 9]).unwrap_err(),
            Errno::EAGAIN
        );
    }

    #[test]
    fn destroy_ctx_frees_imports() {
        let mut dev = GpuDevice::new(GpuBugs::default());
        let (mut g, mut b) = (CoverageMap::new(), BugSink::new());
        let IoctlOut::Val(ctx_id) = run(&mut dev, &mut g, &mut b, GPU_CREATE_CTX, &[]).unwrap()
        else {
            panic!()
        };
        chain_import(&mut dev, &mut g, &mut b, ctx_id as u32, 3).unwrap();
        run(&mut dev, &mut g, &mut b, GPU_DESTROY_CTX, &[ctx_id as u32]).unwrap();
        assert_eq!(dev.context_count(), 0);
    }
}
