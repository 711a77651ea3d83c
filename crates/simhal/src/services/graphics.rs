//! Graphics composer HAL
//! (`android.hardware.graphics.composer@2.4::IComposer/default`).
//!
//! Carries Table II bug **#2** (device A1): presenting a display while a
//! layer's buffer has been detached dereferences the stale buffer pointer
//! and segfaults, once enough layers are in flight to take the batched
//! commit path. Also the natural path to kernel bug #3: presenting many
//! buffered layers builds a GPU import chain whose depth equals the layer
//! count.

use crate::service::{native_crash, HalService, KernelHandle};
use crate::services::{ensure_open, expect_ok, words};
use simbinder::{ArgKind, InterfaceInfo, MethodInfo, Parcel, Transaction, TransactionError, TransactionResult};
use simkernel::drivers::{drm, gpu, ion};
use simkernel::fd::Fd;
use simkernel::Syscall;

/// Method code: initialize the composer (mode-set, GPU context).
pub const INIT: u32 = 1;
/// Method code: create a layer; returns its id.
pub const CREATE_LAYER: u32 = 2;
/// Method code: allocate and attach a buffer to a layer.
pub const SET_LAYER_BUFFER: u32 = 3;
/// Method code: detach (free) a layer's buffer, keeping the layer.
pub const DETACH_BUFFER: u32 = 4;
/// Method code: present all layers.
pub const PRESENT_DISPLAY: u32 = 5;
/// Method code: destroy a layer.
pub const DESTROY_LAYER: u32 = 6;
/// Method code: query the active display config.
pub const GET_DISPLAY_CONFIG: u32 = 7;

/// The maximum number of layers the composer tracks.
pub const MAX_LAYERS: usize = 12;

#[derive(Debug, Clone, Copy)]
struct Layer {
    id: i32,
    /// ION share token backing the layer, if attached.
    token: Option<u32>,
    /// DRM framebuffer id, kept (stale!) even after a detach.
    fb: Option<u32>,
    detached: bool,
}

/// The composer service.
pub struct ComposerHal {
    crash_armed: bool,
    drm_fd: Option<Fd>,
    ion_fd: Option<Fd>,
    gpu_fd: Option<Fd>,
    gpu_ctx: Option<u32>,
    layers: Vec<Layer>,
    next_layer: i32,
    presents: u64,
}

impl ComposerHal {
    /// Creates the composer; `crash_armed` arms bug #2.
    pub fn new(crash_armed: bool) -> Self {
        Self {
            crash_armed,
            drm_fd: None,
            ion_fd: None,
            gpu_fd: None,
            gpu_ctx: None,
            layers: Vec::new(),
            next_layer: 1,
            presents: 0,
        }
    }

    fn initialized(&self) -> Result<(), TransactionError> {
        if self.gpu_ctx.is_none() {
            return Err(TransactionError::InvalidOperation("composer not initialized".into()));
        }
        Ok(())
    }
}

impl HalService for ComposerHal {
    fn info(&self) -> InterfaceInfo {
        InterfaceInfo {
            descriptor: "android.hardware.graphics.composer@2.4::IComposer/default".into(),
            methods: vec![
                MethodInfo { name: "init".into(), code: INIT, args: vec![] },
                MethodInfo { name: "createLayer".into(), code: CREATE_LAYER, args: vec![] },
                MethodInfo {
                    name: "setLayerBuffer".into(),
                    code: SET_LAYER_BUFFER,
                    args: vec![ArgKind::Handle, ArgKind::Int32],
                },
                MethodInfo {
                    name: "detachBuffer".into(),
                    code: DETACH_BUFFER,
                    args: vec![ArgKind::Handle],
                },
                MethodInfo { name: "presentDisplay".into(), code: PRESENT_DISPLAY, args: vec![] },
                MethodInfo {
                    name: "destroyLayer".into(),
                    code: DESTROY_LAYER,
                    args: vec![ArgKind::Handle],
                },
                MethodInfo {
                    name: "getDisplayConfig".into(),
                    code: GET_DISPLAY_CONFIG,
                    args: vec![],
                },
            ],
        }
    }

    fn on_transact(&mut self, sys: &mut KernelHandle<'_>, txn: &Transaction) -> TransactionResult {
        let mut r = txn.data.reader();
        match txn.code {
            INIT => {
                let drm_fd = ensure_open(sys, &mut self.drm_fd, "/dev/dri0")?;
                ensure_open(sys, &mut self.ion_fd, "/dev/ion")?;
                let gpu_fd = ensure_open(sys, &mut self.gpu_fd, "/dev/gpu0")?;
                expect_ok(
                    sys.sys(Syscall::Ioctl {
                        fd: drm_fd,
                        request: drm::DRM_MODE_SET,
                        arg: words([1920, 1080, 60]).as_flattened(),
                    }),
                    "mode set",
                )?;
                if self.gpu_ctx.is_none() {
                    let ctx = expect_ok(
                        sys.sys(Syscall::Ioctl {
                            fd: gpu_fd,
                            request: gpu::GPU_CREATE_CTX,
                            arg: &[],
                        }),
                        "gpu ctx",
                    )?;
                    self.gpu_ctx = Some(ctx as u32);
                }
                Ok(Parcel::new())
            }
            CREATE_LAYER => {
                self.initialized()?;
                if self.layers.len() >= MAX_LAYERS {
                    return Err(TransactionError::InvalidOperation("too many layers".into()));
                }
                let id = self.next_layer;
                self.next_layer += 1;
                self.layers.push(Layer { id, token: None, fb: None, detached: false });
                let mut reply = Parcel::new();
                reply.write_i32(id);
                Ok(reply)
            }
            SET_LAYER_BUFFER => {
                self.initialized()?;
                let layer_id = r.read_i32()?;
                let size_kb = r.read_i32()?;
                if !(1..=16384).contains(&size_kb) {
                    return Err(TransactionError::BadParcel("buffer size out of range".into()));
                }
                let ion_fd = self.ion_fd.expect("initialized");
                let drm_fd = self.drm_fd.expect("initialized");
                let layer = self
                    .layers
                    .iter_mut()
                    .find(|l| l.id == layer_id)
                    .ok_or_else(|| TransactionError::InvalidOperation("no such layer".into()))?;
                let handle = expect_ok(
                    sys.sys(Syscall::Ioctl {
                        fd: ion_fd,
                        request: ion::ION_ALLOC,
                        arg: words([size_kb as u32 * 1024, 1, 0]).as_flattened(),
                    }),
                    "ion alloc",
                )?;
                let token = expect_ok(
                    sys.sys(Syscall::Ioctl {
                        fd: ion_fd,
                        request: ion::ION_SHARE,
                        arg: words([handle as u32]).as_flattened(),
                    }),
                    "ion share",
                )? as u32;
                let fb = expect_ok(
                    sys.sys(Syscall::Ioctl {
                        fd: drm_fd,
                        request: drm::DRM_CREATE_FB,
                        arg: words([token]).as_flattened(),
                    }),
                    "create fb",
                )? as u32;
                layer.token = Some(token);
                layer.fb = Some(fb);
                layer.detached = false;
                Ok(Parcel::new())
            }
            DETACH_BUFFER => {
                self.initialized()?;
                let layer_id = r.read_i32()?;
                let ion_fd = self.ion_fd.expect("initialized");
                let layer = self
                    .layers
                    .iter_mut()
                    .find(|l| l.id == layer_id)
                    .ok_or_else(|| TransactionError::InvalidOperation("no such layer".into()))?;
                let Some(token) = layer.token.take() else {
                    return Err(TransactionError::InvalidOperation("layer has no buffer".into()));
                };
                // Free the backing allocation but — vendor bug — keep the
                // DRM fb id and the layer on the present list.
                expect_ok(
                    sys.sys(Syscall::Ioctl {
                        fd: ion_fd,
                        request: ion::ION_FREE,
                        arg: words([token & 0xFFFF]).as_flattened(),
                    }),
                    "ion free",
                )?;
                layer.detached = true;
                Ok(Parcel::new())
            }
            PRESENT_DISPLAY => {
                self.initialized()?;
                let drm_fd = self.drm_fd.expect("initialized");
                let gpu_fd = self.gpu_fd.expect("initialized");
                let gpu_ctx = self.gpu_ctx.expect("initialized");
                let live = || self.layers.iter().filter(|l| l.fb.is_some());
                let live_count = live().count();
                if live_count == 0 {
                    return Err(TransactionError::InvalidOperation("nothing to present".into()));
                }
                let any_detached = live().any(|l| l.detached);
                if any_detached && live_count >= 3 && self.crash_armed {
                    // Bug #2: the batched-commit path walks the stale
                    // buffer pointer of the detached layer.
                    return Err(native_crash("Native crash in Graphics HAL (redacted)"));
                }
                // Import each live buffer twice (front + back buffer),
                // chaining imports as the blob compositor does — so the
                // chain depth is 2 × the live layer count, and kernel bug
                // #3's subclass limit is reached at 4 buffered layers.
                let mut parent = 0u32;
                'import: for layer in live().filter(|l| !l.detached) {
                    let token = layer.token.expect("attached layer has token");
                    for _ in 0..2 {
                        match sys.sys(Syscall::Ioctl {
                            fd: gpu_fd,
                            request: gpu::GPU_IMPORT,
                            arg: words([gpu_ctx, token, parent]).as_flattened(),
                        }) {
                            simkernel::SyscallRet::Ok(id) => parent = id as u32,
                            // Import-chain failure (e.g. subclass limit):
                            // composer falls back to a direct commit.
                            _ => break 'import,
                        }
                    }
                }
                let planes = live_count.min(8) as u32;
                expect_ok(
                    sys.sys(Syscall::Ioctl {
                        fd: drm_fd,
                        request: drm::DRM_PLANE_COMMIT,
                        arg: words([planes, 0x1]).as_flattened(),
                    }),
                    "plane commit",
                )?;
                if let Some(fb) = live().rev().find_map(|l| l.fb) {
                    expect_ok(
                        sys.sys(Syscall::Ioctl {
                            fd: drm_fd,
                            request: drm::DRM_PAGE_FLIP,
                            arg: words([fb]).as_flattened(),
                        }),
                        "page flip",
                    )?;
                }
                self.presents += 1;
                let mut reply = Parcel::new();
                reply.write_i64(self.presents as i64);
                Ok(reply)
            }
            DESTROY_LAYER => {
                self.initialized()?;
                let layer_id = r.read_i32()?;
                let drm_fd = self.drm_fd.expect("initialized");
                let pos = self
                    .layers
                    .iter()
                    .position(|l| l.id == layer_id)
                    .ok_or_else(|| TransactionError::InvalidOperation("no such layer".into()))?;
                let layer = self.layers.remove(pos);
                if let Some(fb) = layer.fb {
                    // Best effort; the fb may already be gone.
                    let _ = sys.sys(Syscall::Ioctl {
                        fd: drm_fd,
                        request: drm::DRM_DESTROY_FB,
                        arg: words([fb]).as_flattened(),
                    });
                }
                Ok(Parcel::new())
            }
            GET_DISPLAY_CONFIG => {
                let mut reply = Parcel::new();
                reply.write_i32(1920).write_i32(1080).write_i32(60);
                Ok(reply)
            }
            c => Err(TransactionError::UnknownCode(c)),
        }
    }

    fn reset(&mut self) {
        // Keep the layer table's storage for the next client.
        let mut layers = std::mem::take(&mut self.layers);
        layers.clear();
        *self = Self { layers, ..Self::new(self.crash_armed) };
    }
}

impl std::fmt::Debug for ComposerHal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ComposerHal")
            .field("layers", &self.layers.len())
            .field("presents", &self.presents)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::HalRuntime;
    use simkernel::drivers::gpu::GpuBugs;
    use simkernel::Kernel;

    const DESC: &str = "android.hardware.graphics.composer@2.4::IComposer/default";

    fn setup(crash_armed: bool, gpu_bug: bool) -> (Kernel, HalRuntime) {
        let mut kernel = Kernel::new();
        kernel.register_device(Box::new(simkernel::drivers::drm::DrmDevice::new()));
        kernel.register_device(Box::new(simkernel::drivers::ion::IonDevice::new()));
        kernel.register_device(Box::new(simkernel::drivers::gpu::GpuDevice::new(GpuBugs {
            subclass_bug: gpu_bug,
        })));
        let mut rt = HalRuntime::new();
        rt.register(&mut kernel, Box::new(ComposerHal::new(crash_armed)));
        (kernel, rt)
    }

    fn call(k: &mut Kernel, rt: &mut HalRuntime, code: u32, args: Parcel) -> TransactionResult {
        rt.transact(k, DESC, &Transaction::new(code, args))
    }

    fn create_buffered_layer(k: &mut Kernel, rt: &mut HalRuntime) -> i32 {
        let reply = call(k, rt, CREATE_LAYER, Parcel::new()).unwrap();
        let id = reply.reader().read_i32().unwrap();
        let mut p = Parcel::new();
        p.write_i32(id).write_i32(64);
        call(k, rt, SET_LAYER_BUFFER, p).unwrap();
        id
    }

    #[test]
    fn present_without_init_is_invalid_operation() {
        let (mut k, mut rt) = setup(true, false);
        let err = call(&mut k, &mut rt, PRESENT_DISPLAY, Parcel::new()).unwrap_err();
        assert!(matches!(err, TransactionError::InvalidOperation(_)));
        assert!(rt.is_alive(DESC));
    }

    #[test]
    fn bug2_present_with_detached_layer_crashes_when_armed() {
        let (mut k, mut rt) = setup(true, false);
        call(&mut k, &mut rt, INIT, Parcel::new()).unwrap();
        let first = create_buffered_layer(&mut k, &mut rt);
        for _ in 0..2 {
            create_buffered_layer(&mut k, &mut rt);
        }
        let mut p = Parcel::new();
        p.write_i32(first);
        call(&mut k, &mut rt, DETACH_BUFFER, p).unwrap();
        let err = call(&mut k, &mut rt, PRESENT_DISPLAY, Parcel::new()).unwrap_err();
        assert!(matches!(err, TransactionError::DeadObject { .. }));
        let crashes = rt.take_crashes();
        assert_eq!(crashes.len(), 1);
        assert_eq!(crashes[0].title, "Native crash in Graphics HAL (redacted)");
    }

    #[test]
    fn detached_present_is_benign_when_unarmed() {
        let (mut k, mut rt) = setup(false, false);
        call(&mut k, &mut rt, INIT, Parcel::new()).unwrap();
        let first = create_buffered_layer(&mut k, &mut rt);
        for _ in 0..2 {
            create_buffered_layer(&mut k, &mut rt);
        }
        let mut p = Parcel::new();
        p.write_i32(first);
        call(&mut k, &mut rt, DETACH_BUFFER, p).unwrap();
        call(&mut k, &mut rt, PRESENT_DISPLAY, Parcel::new()).unwrap();
        assert!(rt.take_crashes().is_empty());
    }

    #[test]
    fn eight_buffered_layers_reach_gpu_subclass_bug() {
        let (mut k, mut rt) = setup(false, true);
        call(&mut k, &mut rt, INIT, Parcel::new()).unwrap();
        for _ in 0..4 {
            create_buffered_layer(&mut k, &mut rt);
        }
        // The deep import chain trips the (fatal) lockdep BUG, wedging the
        // kernel, so the present itself fails with EIO afterwards.
        let _ = call(&mut k, &mut rt, PRESENT_DISPLAY, Parcel::new());
        assert!(k.is_wedged());
        let bugs = k.take_bugs();
        assert!(
            bugs.iter().any(|b| b.title.contains("invalid subclass")),
            "kernel bug #3 should fire through the HAL path: {bugs:?}"
        );
    }

    #[test]
    fn normal_present_flow_succeeds() {
        let (mut k, mut rt) = setup(true, false);
        call(&mut k, &mut rt, INIT, Parcel::new()).unwrap();
        create_buffered_layer(&mut k, &mut rt);
        create_buffered_layer(&mut k, &mut rt);
        let reply = call(&mut k, &mut rt, PRESENT_DISPLAY, Parcel::new()).unwrap();
        assert_eq!(reply.reader().read_i64().unwrap(), 1);
        assert!(k.take_bugs().is_empty());
    }
}
