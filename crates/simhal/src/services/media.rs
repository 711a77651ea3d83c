//! Media codec HAL (`android.hardware.media.c2@1.2::IComponentStore/default`).
//!
//! Carries Table II bug **#6** (device A2): flushing while the component is
//! draining with output still queued corrupts the HAL's buffer bookkeeping
//! and segfaults.

use crate::service::{native_crash, HalService, KernelHandle};
use crate::services::{ensure_open, expect_ok, words};
use simbinder::{ArgKind, InterfaceInfo, MethodInfo, Parcel, Transaction, TransactionError, TransactionResult};
use simkernel::drivers::vcodec;
use simkernel::fd::Fd;
use simkernel::Syscall;

/// Method code: create a component for codec id.
pub const CREATE_COMPONENT: u32 = 1;
/// Method code: configure width/height.
pub const CONFIGURE: u32 = 2;
/// Method code: start the component.
pub const START: u32 = 3;
/// Method code: queue an input buffer.
pub const QUEUE_INPUT: u32 = 4;
/// Method code: dequeue an output frame.
pub const DEQUEUE_OUTPUT: u32 = 5;
/// Method code: flush all buffers.
pub const FLUSH: u32 = 6;
/// Method code: signal end-of-stream.
pub const DRAIN: u32 = 7;
/// Method code: stop the component.
pub const STOP: u32 = 8;
/// Method code: release the component.
pub const RELEASE: u32 = 9;

/// The media codec service.
#[derive(Debug)]
pub struct MediaHal {
    crash_armed: bool,
    fd: Option<Fd>,
    codec: Option<u32>,
    running: bool,
    draining: bool,
    /// HAL-side count of outputs believed queued in the kernel.
    out_pending: u32,
    /// Inputs queued since the last start/flush (work believed in flight).
    in_flight: u32,
}

impl MediaHal {
    /// Creates the media service; `crash_armed` arms bug #6.
    pub fn new(crash_armed: bool) -> Self {
        Self {
            crash_armed,
            fd: None,
            codec: None,
            running: false,
            draining: false,
            out_pending: 0,
            in_flight: 0,
        }
    }
}

impl HalService for MediaHal {
    fn info(&self) -> InterfaceInfo {
        InterfaceInfo {
            descriptor: "android.hardware.media.c2@1.2::IComponentStore/default".into(),
            methods: vec![
                MethodInfo {
                    name: "createComponent".into(),
                    code: CREATE_COMPONENT,
                    args: vec![ArgKind::Int32],
                },
                MethodInfo {
                    name: "configure".into(),
                    code: CONFIGURE,
                    args: vec![ArgKind::Int32, ArgKind::Int32],
                },
                MethodInfo { name: "start".into(), code: START, args: vec![] },
                MethodInfo { name: "queueInput".into(), code: QUEUE_INPUT, args: vec![ArgKind::Blob] },
                MethodInfo { name: "dequeueOutput".into(), code: DEQUEUE_OUTPUT, args: vec![] },
                MethodInfo { name: "flush".into(), code: FLUSH, args: vec![] },
                MethodInfo { name: "drain".into(), code: DRAIN, args: vec![] },
                MethodInfo { name: "stop".into(), code: STOP, args: vec![] },
                MethodInfo { name: "release".into(), code: RELEASE, args: vec![] },
            ],
        }
    }

    fn on_transact(&mut self, sys: &mut KernelHandle<'_>, txn: &Transaction) -> TransactionResult {
        let mut r = txn.data.reader();
        match txn.code {
            CREATE_COMPONENT => {
                let codec = r.read_i32()?;
                if !(1..=4).contains(&codec) {
                    return Err(TransactionError::BadParcel("unknown codec".into()));
                }
                ensure_open(sys, &mut self.fd, "/dev/vcodec")?;
                self.codec = Some(codec as u32);
                Ok(Parcel::new())
            }
            CONFIGURE => {
                let (w, h) = (r.read_i32()?, r.read_i32()?);
                let fd = self.fd.ok_or_else(|| {
                    TransactionError::InvalidOperation("no component".into())
                })?;
                let codec = self.codec.expect("component implies codec");
                let (w, h) = (w.clamp(64, 3840) as u32, h.clamp(64, 2160) as u32);
                expect_ok(
                    sys.sys(Syscall::Ioctl {
                        fd,
                        request: vcodec::VC_CONFIGURE,
                        arg: words([codec, w, h]).as_flattened(),
                    }),
                    "configure",
                )?;
                Ok(Parcel::new())
            }
            START => {
                let fd = self.fd.ok_or_else(|| {
                    TransactionError::InvalidOperation("no component".into())
                })?;
                expect_ok(
                    sys.sys(Syscall::Ioctl { fd, request: vcodec::VC_START, arg: &[] }),
                    "start",
                )?;
                self.running = true;
                self.draining = false;
                self.out_pending = 0;
                self.in_flight = 0;
                Ok(Parcel::new())
            }
            QUEUE_INPUT => {
                let blob = r.read_blob()?;
                if !self.running {
                    return Err(TransactionError::InvalidOperation("not running".into()));
                }
                let fd = self.fd.expect("running implies fd");
                let len = blob.len().clamp(1, 1 << 20) as u32;
                let seq = expect_ok(
                    sys.sys(Syscall::Ioctl {
                        fd,
                        request: vcodec::VC_QUEUE_IN,
                        arg: words([len]).as_flattened(),
                    }),
                    "queue input",
                )?;
                self.in_flight += 1;
                if seq % 2 == 0 {
                    self.out_pending += 1;
                }
                Ok(Parcel::new())
            }
            DEQUEUE_OUTPUT => {
                if !self.running {
                    return Err(TransactionError::InvalidOperation("not running".into()));
                }
                let fd = self.fd.expect("running implies fd");
                let frame = expect_ok(
                    sys.sys(Syscall::Ioctl { fd, request: vcodec::VC_DEQUEUE_OUT, arg: &[] }),
                    "dequeue",
                )?;
                self.out_pending = self.out_pending.saturating_sub(1);
                self.in_flight = self.in_flight.saturating_sub(2);
                let mut reply = Parcel::new();
                reply.write_i64(frame as i64);
                Ok(reply)
            }
            FLUSH => {
                if !self.running {
                    return Err(TransactionError::InvalidOperation("not running".into()));
                }
                if self.draining && (self.out_pending > 0 || self.in_flight > 0) && self.crash_armed
                {
                    // Bug #6: the flush path frees buffers the drain worker
                    // is still iterating over.
                    return Err(native_crash("Native crash in Media HAL (redacted)"));
                }
                let fd = self.fd.expect("running implies fd");
                expect_ok(
                    sys.sys(Syscall::Ioctl { fd, request: vcodec::VC_FLUSH, arg: &[] }),
                    "flush",
                )?;
                self.out_pending = 0;
                self.in_flight = 0;
                self.draining = false;
                Ok(Parcel::new())
            }
            DRAIN => {
                if !self.running {
                    return Err(TransactionError::InvalidOperation("not running".into()));
                }
                let fd = self.fd.expect("running implies fd");
                expect_ok(
                    sys.sys(Syscall::Ioctl { fd, request: vcodec::VC_DRAIN, arg: &[] }),
                    "drain",
                )?;
                self.draining = true;
                Ok(Parcel::new())
            }
            STOP => {
                let fd = self.fd.ok_or_else(|| {
                    TransactionError::InvalidOperation("no component".into())
                })?;
                expect_ok(
                    sys.sys(Syscall::Ioctl { fd, request: vcodec::VC_STOP, arg: &[] }),
                    "stop",
                )?;
                self.running = false;
                self.draining = false;
                self.out_pending = 0;
                self.in_flight = 0;
                Ok(Parcel::new())
            }
            RELEASE => {
                if let Some(fd) = self.fd.take() {
                    let _ = sys.sys(Syscall::Close { fd });
                }
                self.codec = None;
                self.running = false;
                self.draining = false;
                self.out_pending = 0;
                self.in_flight = 0;
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

    const DESC: &str = "android.hardware.media.c2@1.2::IComponentStore/default";

    fn setup(armed: bool) -> (Kernel, HalRuntime) {
        let mut kernel = Kernel::new();
        kernel.register_device(Box::new(simkernel::drivers::vcodec::VcodecDevice::new()));
        let mut rt = HalRuntime::new();
        rt.register(&mut kernel, Box::new(MediaHal::new(armed)));
        (kernel, rt)
    }

    fn call(k: &mut Kernel, rt: &mut HalRuntime, code: u32, args: Parcel) -> TransactionResult {
        rt.transact(k, DESC, &Transaction::new(code, args))
    }

    fn to_running(k: &mut Kernel, rt: &mut HalRuntime) {
        let mut p = Parcel::new();
        p.write_i32(1);
        call(k, rt, CREATE_COMPONENT, p).unwrap();
        let mut p = Parcel::new();
        p.write_i32(1280).write_i32(720);
        call(k, rt, CONFIGURE, p).unwrap();
        call(k, rt, START, Parcel::new()).unwrap();
    }

    fn queue(k: &mut Kernel, rt: &mut HalRuntime, n: usize) {
        for _ in 0..n {
            let mut p = Parcel::new();
            p.write_blob(vec![0u8; 512]);
            call(k, rt, QUEUE_INPUT, p).unwrap();
        }
    }

    #[test]
    fn bug6_flush_while_draining_with_pending_output_crashes() {
        let (mut k, mut rt) = setup(true);
        to_running(&mut k, &mut rt);
        queue(&mut k, &mut rt, 2); // second input produces a pending output
        call(&mut k, &mut rt, DRAIN, Parcel::new()).unwrap();
        let err = call(&mut k, &mut rt, FLUSH, Parcel::new()).unwrap_err();
        assert!(matches!(err, TransactionError::DeadObject { .. }));
        let crashes = rt.take_crashes();
        assert_eq!(crashes.len(), 1);
        assert_eq!(crashes[0].title, "Native crash in Media HAL (redacted)");
    }

    #[test]
    fn flush_while_draining_without_in_flight_work_is_fine() {
        let (mut k, mut rt) = setup(true);
        to_running(&mut k, &mut rt);
        queue(&mut k, &mut rt, 2);
        call(&mut k, &mut rt, DEQUEUE_OUTPUT, Parcel::new()).unwrap();
        call(&mut k, &mut rt, DRAIN, Parcel::new()).unwrap();
        call(&mut k, &mut rt, FLUSH, Parcel::new()).unwrap();
        assert!(rt.take_crashes().is_empty());
    }

    #[test]
    fn bug6_flush_while_draining_with_single_input_crashes() {
        let (mut k, mut rt) = setup(true);
        to_running(&mut k, &mut rt);
        queue(&mut k, &mut rt, 1);
        call(&mut k, &mut rt, DRAIN, Parcel::new()).unwrap();
        let err = call(&mut k, &mut rt, FLUSH, Parcel::new()).unwrap_err();
        assert!(matches!(err, TransactionError::DeadObject { .. }));
    }

    #[test]
    fn crash_sequence_benign_when_unarmed() {
        let (mut k, mut rt) = setup(false);
        to_running(&mut k, &mut rt);
        queue(&mut k, &mut rt, 2);
        call(&mut k, &mut rt, DRAIN, Parcel::new()).unwrap();
        call(&mut k, &mut rt, FLUSH, Parcel::new()).unwrap();
        assert!(rt.take_crashes().is_empty());
    }

    #[test]
    fn decode_roundtrip_produces_frame() {
        let (mut k, mut rt) = setup(true);
        to_running(&mut k, &mut rt);
        queue(&mut k, &mut rt, 2);
        let reply = call(&mut k, &mut rt, DEQUEUE_OUTPUT, Parcel::new()).unwrap();
        assert_eq!(reply.reader().read_i64().unwrap(), 1);
        call(&mut k, &mut rt, STOP, Parcel::new()).unwrap();
        call(&mut k, &mut rt, RELEASE, Parcel::new()).unwrap();
    }

    #[test]
    fn queue_before_start_is_invalid() {
        let (mut k, mut rt) = setup(true);
        let mut p = Parcel::new();
        p.write_blob(vec![1]);
        let err = call(&mut k, &mut rt, QUEUE_INPUT, p).unwrap_err();
        assert!(matches!(err, TransactionError::InvalidOperation(_)));
    }
}
