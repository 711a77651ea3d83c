//! ION-style memory allocator at `/dev/ion`.
//!
//! Produces buffer *handles* that the GPU driver imports — the cross-driver
//! resource flow that gates Table II bug #3 (in the GPU driver). Shared
//! handles carry a magic tag ([`SHARE_TAG`]) that random generation is
//! unlikely to synthesize, so reaching the deep import path requires a
//! correct `ION_ALLOC → ION_SHARE → GPU_IMPORT` chain.

use crate::driver::{
    word, CharDevice, DriverApi, DriverCtx, IoctlDesc, IoctlOut, StateModel, Transition,
    WordGuard, WordShape,
};
use crate::errno::Errno;
use std::collections::BTreeMap;

/// Allocate a buffer (`arg[0]` = length, `arg[1]` = heap mask, `arg[2]` =
/// flags); returns a handle id.
pub const ION_ALLOC: u32 = 0x4010_4900;
/// Free a handle (`arg[0]`).
pub const ION_FREE: u32 = 0x4004_4901;
/// Produce a shareable token for a handle (`arg[0]`); returns the token.
pub const ION_SHARE: u32 = 0x4004_4902;
/// Query heap information.
pub const ION_QUERY_HEAPS: u32 = 0x8004_4903;

/// High-bits tag embedded in shared-handle tokens.
pub const SHARE_TAG: u32 = 0x494F_0000;

/// Supported heap masks.
pub const HEAPS: [u32; 3] = [0x1, 0x2, 0x4];

/// Declarative state machine of the allocator:
///
/// - `Boot`: no buffer has ever been allocated (handle 1 unspent);
/// - `H1`: exactly handle 1 is live;
/// - `Live`: at least one buffer is live, set untracked;
/// - `Empty`: no buffer is live, handles spent.
///
/// `ION_SHARE` on handle 1 mints the tagged token the GPU and DRM
/// drivers consume — the cross-driver edge the relation-graph prior is
/// seeded with. `close` frees the client's buffers, so the model
/// clobbers.
fn ion_state_model() -> StateModel {
    StateModel::new("Boot", &["Boot", "H1", "Live", "Empty"])
        .close_clobbers()
        .with(vec![
            Transition::ioctl(ION_ALLOC)
                .guard(WordGuard::In(1, 1 << 24))
                .guard(WordGuard::OneOf(HEAPS.to_vec()))
                .from(&["Boot"])
                .to("H1")
                .produces("ion:buffer"),
            Transition::ioctl(ION_ALLOC)
                .guard(WordGuard::In(1, 1 << 24))
                .guard(WordGuard::OneOf(HEAPS.to_vec()))
                .from(&["H1", "Empty"])
                .to("Live")
                .produces("ion:buffer"),
            Transition::ioctl(ION_ALLOC)
                .guard(WordGuard::In(1, 1 << 24))
                .guard(WordGuard::OneOf(HEAPS.to_vec()))
                .from(&["Live"])
                .may_fail(),
            Transition::ioctl(ION_FREE).guard(WordGuard::Eq(1)).from(&["H1"]).to("Empty"),
            Transition::ioctl(ION_FREE).from(&["Live"]).to("Empty").may_fail(),
            Transition::ioctl(ION_SHARE)
                .guard(WordGuard::Eq(1))
                .from(&["H1"])
                .produces("ion:token"),
            Transition::ioctl(ION_SHARE).from(&["Live"]).may_fail(),
            Transition::ioctl(ION_QUERY_HEAPS),
            Transition::mmap().from(&["H1", "Live"]),
        ])
}

#[derive(Debug, Clone, Copy)]
struct IonBuffer {
    len: u32,
    heap: u32,
    flags: u32,
    shared: bool,
    /// Open file that allocated the buffer (ION clients are per-fd).
    owner: u64,
}

/// The ION allocator driver.
#[derive(Debug, Default)]
pub struct IonDevice {
    buffers: BTreeMap<u32, IonBuffer>,
    next_handle: u32,
}

impl IonDevice {
    /// Creates an allocator with no buffers.
    pub fn new() -> Self {
        Self {
            buffers: BTreeMap::new(),
            next_handle: 1,
        }
    }

    /// Whether `token` is a share token minted by [`ION_SHARE`], and for a
    /// still-live shared buffer. The GPU driver validates imports with this.
    pub fn is_valid_share_token(&self, token: u32) -> bool {
        if token & 0xFFFF_0000 != SHARE_TAG {
            return false;
        }
        let handle = token & 0xFFFF;
        self.buffers.get(&handle).map(|b| b.shared) == Some(true)
    }

    /// Number of live buffers.
    pub fn live_buffers(&self) -> usize {
        self.buffers.len()
    }
}

impl CharDevice for IonDevice {
    fn name(&self) -> &'static str {
        "ion"
    }

    fn node(&self) -> String {
        "/dev/ion".into()
    }

    fn api(&self) -> DriverApi {
        DriverApi {
            ioctls: vec![
                IoctlDesc::with_words(
                    "ION_ALLOC",
                    ION_ALLOC,
                    vec![
                        WordShape::Range { min: 4096, max: 1 << 24 },
                        WordShape::Choice(HEAPS.to_vec()),
                        WordShape::Flags(vec![0x1, 0x2]),
                    ],
                ),
                IoctlDesc::with_words(
                    "ION_FREE",
                    ION_FREE,
                    vec![WordShape::Range { min: 1, max: 64 }],
                ),
                IoctlDesc::with_words(
                    "ION_SHARE",
                    ION_SHARE,
                    vec![WordShape::Range { min: 1, max: 64 }],
                ),
                IoctlDesc::bare("ION_QUERY_HEAPS", ION_QUERY_HEAPS),
            ],
            supports_read: false,
            supports_write: false,
            supports_mmap: true,
            vendor: true,
            state_model: Some(ion_state_model()),
        }
    }

    fn release(&mut self, ctx: &mut DriverCtx<'_>) {
        ctx.hit(&[0x11]);
        // Client teardown frees its allocations (invalidating share
        // tokens), like dropping an ION client.
        self.buffers.retain(|_, b| b.owner != ctx.open_id);
    }

    fn mmap(&mut self, ctx: &mut DriverCtx<'_>, len: usize, prot: u32) -> Result<(), Errno> {
        if self.buffers.is_empty() {
            return Err(Errno::EINVAL);
        }
        ctx.hit(&[5, len as u64 / 4096, u64::from(prot)]);
        Ok(())
    }

    fn ioctl(
        &mut self,
        ctx: &mut DriverCtx<'_>,
        request: u32,
        arg: &[u8],
    ) -> Result<IoctlOut, Errno> {
        match request {
            ION_ALLOC => {
                let len = word(arg, 0);
                let heap = word(arg, 1);
                let flags = word(arg, 2);
                if len == 0 || len > (1 << 24) {
                    return Err(Errno::EINVAL);
                }
                if !HEAPS.contains(&heap) {
                    return Err(Errno::EINVAL);
                }
                if self.buffers.len() >= 64 {
                    return Err(Errno::ENOMEM);
                }
                let handle = self.next_handle;
                self.next_handle = self.next_handle % 0xFFFF + 1;
                self.buffers.insert(
                    handle,
                    IonBuffer { len, heap, flags, shared: false, owner: ctx.open_id },
                );
                ctx.hit_path(2, &[1, u64::from(heap), u64::from(flags), u64::from(len) / (1 << 20)]);
                Ok(IoctlOut::Val(u64::from(handle)))
            }
            ION_FREE => {
                let handle = word(arg, 0);
                match self.buffers.remove(&handle) {
                    Some(buf) => {
                        ctx.hit(&[2, u64::from(buf.heap), u64::from(buf.shared), u64::from(buf.flags)]);
                        Ok(IoctlOut::Val(0))
                    }
                    None => Err(Errno::ENOENT),
                }
            }
            ION_SHARE => {
                let handle = word(arg, 0);
                match self.buffers.get_mut(&handle) {
                    Some(buf) => {
                        buf.shared = true;
                        ctx.hit_path(2, &[3, u64::from(buf.heap), u64::from(buf.len) / (1 << 20)]);
                        Ok(IoctlOut::Val(u64::from(SHARE_TAG | (handle & 0xFFFF))))
                    }
                    None => Err(Errno::ENOENT),
                }
            }
            ION_QUERY_HEAPS => {
                ctx.hit(&[4, self.buffers.len().min(8) as u64]);
                Ok(IoctlOut::Val(HEAPS.len() as u64))
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
        dev: &mut IonDevice,
        g: &mut CoverageMap,
        b: &mut BugSink,
        req: u32,
        words: &[u32],
    ) -> Result<IoctlOut, Errno> {
        let mut ctx = DriverCtx::new(0x500, "ion", None, g, b, 1);
        dev.ioctl(&mut ctx, req, &encode_words(words))
    }

    #[test]
    fn alloc_share_token_validates() {
        let mut dev = IonDevice::new();
        let (mut g, mut b) = (CoverageMap::new(), BugSink::new());
        let IoctlOut::Val(handle) =
            run(&mut dev, &mut g, &mut b, ION_ALLOC, &[8192, 1, 0]).unwrap()
        else {
            panic!()
        };
        let IoctlOut::Val(token) =
            run(&mut dev, &mut g, &mut b, ION_SHARE, &[handle as u32]).unwrap()
        else {
            panic!()
        };
        assert!(dev.is_valid_share_token(token as u32));
        assert!(!dev.is_valid_share_token(handle as u32), "raw handle is not a token");
        assert!(!dev.is_valid_share_token(0xdead_beef));
    }

    #[test]
    fn unshared_handle_token_is_invalid() {
        let mut dev = IonDevice::new();
        let (mut g, mut b) = (CoverageMap::new(), BugSink::new());
        let IoctlOut::Val(handle) =
            run(&mut dev, &mut g, &mut b, ION_ALLOC, &[4096, 2, 0]).unwrap()
        else {
            panic!()
        };
        assert!(!dev.is_valid_share_token(SHARE_TAG | handle as u32 & 0xFFFF_0000));
    }

    #[test]
    fn free_invalidates_share_token() {
        let mut dev = IonDevice::new();
        let (mut g, mut b) = (CoverageMap::new(), BugSink::new());
        let IoctlOut::Val(handle) =
            run(&mut dev, &mut g, &mut b, ION_ALLOC, &[4096, 1, 1]).unwrap()
        else {
            panic!()
        };
        let IoctlOut::Val(token) =
            run(&mut dev, &mut g, &mut b, ION_SHARE, &[handle as u32]).unwrap()
        else {
            panic!()
        };
        run(&mut dev, &mut g, &mut b, ION_FREE, &[handle as u32]).unwrap();
        assert!(!dev.is_valid_share_token(token as u32));
        assert_eq!(dev.live_buffers(), 0);
    }

    #[test]
    fn alloc_validates_heap_and_len() {
        let mut dev = IonDevice::new();
        let (mut g, mut b) = (CoverageMap::new(), BugSink::new());
        assert_eq!(
            run(&mut dev, &mut g, &mut b, ION_ALLOC, &[4096, 8, 0]).unwrap_err(),
            Errno::EINVAL
        );
        assert_eq!(
            run(&mut dev, &mut g, &mut b, ION_ALLOC, &[0, 1, 0]).unwrap_err(),
            Errno::EINVAL
        );
    }

    #[test]
    fn alloc_limit_is_enforced() {
        let mut dev = IonDevice::new();
        let (mut g, mut b) = (CoverageMap::new(), BugSink::new());
        for _ in 0..64 {
            run(&mut dev, &mut g, &mut b, ION_ALLOC, &[4096, 1, 0]).unwrap();
        }
        assert_eq!(
            run(&mut dev, &mut g, &mut b, ION_ALLOC, &[4096, 1, 0]).unwrap_err(),
            Errno::ENOMEM
        );
    }
}
