//! Camera provider HAL
//! (`android.hardware.camera.provider@2.6::ICameraProvider/internal/0`).
//!
//! Carries Table II bug **#9** (device C1): submitting a capture request
//! after the session's streams were torn down dereferences the freed
//! stream configuration.

use crate::service::{native_crash, HalService, KernelHandle};
use crate::services::{ensure_open, expect_ok, words};
use simbinder::{ArgKind, InterfaceInfo, MethodInfo, Parcel, Transaction, TransactionError, TransactionResult};
use simkernel::drivers::v4l2;
use simkernel::fd::Fd;
use simkernel::Syscall;

/// Method code: open a capture session.
pub const OPEN_SESSION: u32 = 1;
/// Method code: configure capture streams.
pub const CONFIGURE_STREAMS: u32 = 2;
/// Method code: submit one capture request.
pub const PROCESS_CAPTURE_REQUEST: u32 = 3;
/// Method code: flush in-flight requests.
pub const FLUSH: u32 = 4;
/// Method code: close the session (tears down streams).
pub const CLOSE_SESSION: u32 = 5;

/// The camera provider service.
#[derive(Debug)]
pub struct CameraHal {
    crash_armed: bool,
    fd: Option<Fd>,
    session_open: bool,
    streams: u32,
    streaming: bool,
    /// Streams were torn down but the (vendor-buggy) HAL kept the stale
    /// stream table pointer.
    torn_down: bool,
    requests: u64,
}

impl CameraHal {
    /// Creates the camera service; `crash_armed` arms bug #9.
    pub fn new(crash_armed: bool) -> Self {
        Self {
            crash_armed,
            fd: None,
            session_open: false,
            streams: 0,
            streaming: false,
            torn_down: false,
            requests: 0,
        }
    }
}

impl HalService for CameraHal {
    fn info(&self) -> InterfaceInfo {
        InterfaceInfo {
            descriptor: "android.hardware.camera.provider@2.6::ICameraProvider/internal/0".into(),
            methods: vec![
                MethodInfo { name: "openSession".into(), code: OPEN_SESSION, args: vec![] },
                MethodInfo {
                    name: "configureStreams".into(),
                    code: CONFIGURE_STREAMS,
                    args: vec![ArgKind::Int32, ArgKind::Int32, ArgKind::Int32],
                },
                MethodInfo {
                    name: "processCaptureRequest".into(),
                    code: PROCESS_CAPTURE_REQUEST,
                    args: vec![],
                },
                MethodInfo { name: "flush".into(), code: FLUSH, args: vec![] },
                MethodInfo { name: "closeSession".into(), code: CLOSE_SESSION, args: vec![] },
            ],
        }
    }

    fn on_transact(&mut self, sys: &mut KernelHandle<'_>, txn: &Transaction) -> TransactionResult {
        let mut r = txn.data.reader();
        match txn.code {
            OPEN_SESSION => {
                if self.session_open {
                    return Err(TransactionError::InvalidOperation("session already open".into()));
                }
                ensure_open(sys, &mut self.fd, "/dev/video0")?;
                self.session_open = true;
                self.torn_down = false;
                Ok(Parcel::new())
            }
            CONFIGURE_STREAMS => {
                let n = r.read_i32()?;
                let (w, h) = (r.read_i32()?, r.read_i32()?);
                if !self.session_open {
                    return Err(TransactionError::InvalidOperation("no session".into()));
                }
                if !(1..=8).contains(&n) {
                    return Err(TransactionError::BadParcel("stream count out of range".into()));
                }
                let fd = self.fd.expect("session implies fd");
                let (w, h) = (w.clamp(16, 4096) as u32, h.clamp(16, 4096) as u32);
                expect_ok(
                    sys.sys(Syscall::Ioctl {
                        fd,
                        request: v4l2::VIDIOC_S_FMT,
                        arg: words([w, h, v4l2::PIXFMTS[0]]).as_flattened(),
                    }),
                    "set format",
                )?;
                expect_ok(
                    sys.sys(Syscall::Ioctl {
                        fd,
                        request: v4l2::VIDIOC_REQBUFS,
                        arg: words([n as u32 * 2]).as_flattened(),
                    }),
                    "request buffers",
                )?;
                self.streams = n as u32;
                self.torn_down = false;
                Ok(Parcel::new())
            }
            PROCESS_CAPTURE_REQUEST => {
                if !self.session_open {
                    return Err(TransactionError::InvalidOperation("no session".into()));
                }
                if self.torn_down {
                    if self.crash_armed {
                        // Bug #9: the request path walks the freed stream
                        // configuration table.
                        return Err(native_crash("Native crash in Camera HAL (redacted)"));
                    }
                    return Err(TransactionError::InvalidOperation("streams torn down".into()));
                }
                if self.streams == 0 {
                    return Err(TransactionError::InvalidOperation("no streams".into()));
                }
                let fd = self.fd.expect("session implies fd");
                let slot = (self.requests % u64::from(self.streams * 2)) as u32;
                expect_ok(
                    sys.sys(Syscall::Ioctl {
                        fd,
                        request: v4l2::VIDIOC_QBUF,
                        arg: words([slot]).as_flattened(),
                    }),
                    "queue buffer",
                )?;
                if !self.streaming {
                    expect_ok(
                        sys.sys(Syscall::Ioctl { fd, request: v4l2::VIDIOC_STREAMON, arg: &[] }),
                        "stream on",
                    )?;
                    self.streaming = true;
                }
                let idx = expect_ok(
                    sys.sys(Syscall::Ioctl { fd, request: v4l2::VIDIOC_DQBUF, arg: &[] }),
                    "dequeue buffer",
                )?;
                self.requests += 1;
                let mut reply = Parcel::new();
                reply.write_i64(idx as i64);
                Ok(reply)
            }
            FLUSH => {
                if !self.session_open || !self.streaming {
                    return Err(TransactionError::InvalidOperation("not streaming".into()));
                }
                let fd = self.fd.expect("session implies fd");
                expect_ok(
                    sys.sys(Syscall::Ioctl { fd, request: v4l2::VIDIOC_STREAMOFF, arg: &[] }),
                    "stream off",
                )?;
                self.streaming = false;
                Ok(Parcel::new())
            }
            CLOSE_SESSION => {
                if !self.session_open {
                    return Err(TransactionError::InvalidOperation("no session".into()));
                }
                let fd = self.fd.expect("session implies fd");
                if self.streaming {
                    let _ = sys.sys(Syscall::Ioctl {
                        fd,
                        request: v4l2::VIDIOC_STREAMOFF,
                        arg: &[],
                    });
                    self.streaming = false;
                }
                // Vendor bug setup: buffers are released and the stream
                // table freed, but the session object — and its dangling
                // stream pointer — stays "open" for further requests.
                let _ = sys.sys(Syscall::Ioctl {
                    fd,
                    request: v4l2::VIDIOC_REQBUFS,
                    arg: words([0]).as_flattened(),
                });
                self.streams = 0;
                self.torn_down = true;
                Ok(Parcel::new())
            }
            c => Err(TransactionError::UnknownCode(c)),
        }
    }

    fn reset(&mut self) {
        *self = Self::new(self.crash_armed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::HalRuntime;
    use simkernel::Kernel;

    const DESC: &str = "android.hardware.camera.provider@2.6::ICameraProvider/internal/0";

    fn setup(armed: bool) -> (Kernel, HalRuntime) {
        let mut kernel = Kernel::new();
        kernel.register_device(Box::new(simkernel::drivers::v4l2::V4l2Device::new(0)));
        let mut rt = HalRuntime::new();
        rt.register(&mut kernel, Box::new(CameraHal::new(armed)));
        (kernel, rt)
    }

    fn call(k: &mut Kernel, rt: &mut HalRuntime, code: u32, args: Parcel) -> TransactionResult {
        rt.transact(k, DESC, &Transaction::new(code, args))
    }

    fn configured(k: &mut Kernel, rt: &mut HalRuntime) {
        call(k, rt, OPEN_SESSION, Parcel::new()).unwrap();
        let mut p = Parcel::new();
        p.write_i32(2).write_i32(1280).write_i32(720);
        call(k, rt, CONFIGURE_STREAMS, p).unwrap();
    }

    #[test]
    fn bug9_capture_after_close_crashes_when_armed() {
        let (mut k, mut rt) = setup(true);
        configured(&mut k, &mut rt);
        call(&mut k, &mut rt, PROCESS_CAPTURE_REQUEST, Parcel::new()).unwrap();
        call(&mut k, &mut rt, CLOSE_SESSION, Parcel::new()).unwrap();
        let err = call(&mut k, &mut rt, PROCESS_CAPTURE_REQUEST, Parcel::new()).unwrap_err();
        assert!(matches!(err, TransactionError::DeadObject { .. }));
        assert_eq!(rt.take_crashes()[0].title, "Native crash in Camera HAL (redacted)");
    }

    #[test]
    fn capture_after_close_is_invalid_when_unarmed() {
        let (mut k, mut rt) = setup(false);
        configured(&mut k, &mut rt);
        call(&mut k, &mut rt, CLOSE_SESSION, Parcel::new()).unwrap();
        let err = call(&mut k, &mut rt, PROCESS_CAPTURE_REQUEST, Parcel::new()).unwrap_err();
        assert!(matches!(err, TransactionError::InvalidOperation(_)));
        assert!(rt.take_crashes().is_empty());
    }

    #[test]
    fn capture_pipeline_works() {
        let (mut k, mut rt) = setup(true);
        configured(&mut k, &mut rt);
        for _ in 0..3 {
            call(&mut k, &mut rt, PROCESS_CAPTURE_REQUEST, Parcel::new()).unwrap();
        }
        call(&mut k, &mut rt, FLUSH, Parcel::new()).unwrap();
        assert!(rt.take_crashes().is_empty());
    }

    #[test]
    fn reconfigure_after_close_restores_service() {
        let (mut k, mut rt) = setup(true);
        configured(&mut k, &mut rt);
        call(&mut k, &mut rt, CLOSE_SESSION, Parcel::new()).unwrap();
        let mut p = Parcel::new();
        p.write_i32(1).write_i32(640).write_i32(480);
        call(&mut k, &mut rt, CONFIGURE_STREAMS, p).unwrap();
        call(&mut k, &mut rt, PROCESS_CAPTURE_REQUEST, Parcel::new()).unwrap();
    }

    #[test]
    fn stream_count_validated() {
        let (mut k, mut rt) = setup(true);
        call(&mut k, &mut rt, OPEN_SESSION, Parcel::new()).unwrap();
        let mut p = Parcel::new();
        p.write_i32(0).write_i32(640).write_i32(480);
        let err = call(&mut k, &mut rt, CONFIGURE_STREAMS, p).unwrap_err();
        assert!(matches!(err, TransactionError::BadParcel(_)));
    }
}
