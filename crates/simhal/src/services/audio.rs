//! Audio HAL (`android.hardware.audio@7.1::IDevicesFactory/default`).

use crate::service::{HalService, KernelHandle};
use crate::services::{ensure_open, expect_ok, words};
use simbinder::{ArgKind, InterfaceInfo, MethodInfo, Parcel, Transaction, TransactionError, TransactionResult};
use simkernel::drivers::audio as pcm;
use simkernel::fd::Fd;
use simkernel::Syscall;

/// Method code: open an output stream (`rate`, `channels`).
pub const OPEN_OUTPUT_STREAM: u32 = 1;
/// Method code: write PCM frames.
pub const WRITE_FRAMES: u32 = 2;
/// Method code: pause playback.
pub const PAUSE: u32 = 3;
/// Method code: resume playback.
pub const RESUME: u32 = 4;
/// Method code: enter standby (drain).
pub const STANDBY: u32 = 5;
/// Method code: close the stream.
pub const CLOSE_STREAM: u32 = 6;

/// The audio HAL service.
#[derive(Debug, Default)]
pub struct AudioHal {
    fd: Option<Fd>,
    stream_open: bool,
}

impl AudioHal {
    /// Creates the service.
    pub fn new() -> Self {
        Self::default()
    }

    fn stream(&self) -> Result<Fd, TransactionError> {
        if !self.stream_open {
            return Err(TransactionError::InvalidOperation("no stream".into()));
        }
        self.fd
            .ok_or_else(|| TransactionError::InvalidOperation("no stream".into()))
    }
}

impl HalService for AudioHal {
    fn info(&self) -> InterfaceInfo {
        InterfaceInfo {
            descriptor: "android.hardware.audio@7.1::IDevicesFactory/default".into(),
            methods: vec![
                MethodInfo {
                    name: "openOutputStream".into(),
                    code: OPEN_OUTPUT_STREAM,
                    args: vec![ArgKind::Int32, ArgKind::Int32],
                },
                MethodInfo { name: "writeFrames".into(), code: WRITE_FRAMES, args: vec![ArgKind::Blob] },
                MethodInfo { name: "pause".into(), code: PAUSE, args: vec![] },
                MethodInfo { name: "resume".into(), code: RESUME, args: vec![] },
                MethodInfo { name: "standby".into(), code: STANDBY, args: vec![] },
                MethodInfo { name: "closeStream".into(), code: CLOSE_STREAM, args: vec![] },
            ],
        }
    }

    fn on_transact(&mut self, sys: &mut KernelHandle<'_>, txn: &Transaction) -> TransactionResult {
        let mut r = txn.data.reader();
        match txn.code {
            OPEN_OUTPUT_STREAM => {
                let rate = r.read_i32()?;
                let channels = r.read_i32()?;
                let rate = if pcm::RATES.contains(&(rate as u32)) { rate as u32 } else { 48000 };
                let channels = channels.clamp(1, 8) as u32;
                let fd = ensure_open(sys, &mut self.fd, "/dev/snd_pcm0")?;
                expect_ok(
                    sys.sys(Syscall::Ioctl {
                        fd,
                        request: pcm::PCM_HW_PARAMS,
                        arg: words([rate, channels, 2]).as_flattened(),
                    }),
                    "hw params",
                )?;
                expect_ok(
                    sys.sys(Syscall::Ioctl { fd, request: pcm::PCM_PREPARE, arg: &[] }),
                    "prepare",
                )?;
                self.stream_open = true;
                Ok(Parcel::new())
            }
            WRITE_FRAMES => {
                let blob = r.read_blob()?;
                let fd = self.stream()?;
                let n = expect_ok(
                    sys.sys(Syscall::Write { fd, data: blob }),
                    "write",
                )?;
                let mut reply = Parcel::new();
                reply.write_i32(n as i32);
                Ok(reply)
            }
            PAUSE => {
                let fd = self.stream()?;
                expect_ok(
                    sys.sys(Syscall::Ioctl { fd, request: pcm::PCM_PAUSE, arg: words([1]).as_flattened() }),
                    "pause",
                )?;
                Ok(Parcel::new())
            }
            RESUME => {
                let fd = self.stream()?;
                expect_ok(
                    sys.sys(Syscall::Ioctl { fd, request: pcm::PCM_PAUSE, arg: words([0]).as_flattened() }),
                    "resume",
                )?;
                Ok(Parcel::new())
            }
            STANDBY => {
                let fd = self.stream()?;
                expect_ok(
                    sys.sys(Syscall::Ioctl { fd, request: pcm::PCM_DRAIN, arg: &[] }),
                    "drain",
                )?;
                Ok(Parcel::new())
            }
            CLOSE_STREAM => {
                let fd = self.stream()?;
                let _ = sys.sys(Syscall::Close { fd });
                self.fd = None;
                self.stream_open = false;
                Ok(Parcel::new())
            }
            c => Err(TransactionError::UnknownCode(c)),
        }
    }

    fn reset(&mut self) {
        *self = Self::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::HalRuntime;
    use simkernel::Kernel;

    const DESC: &str = "android.hardware.audio@7.1::IDevicesFactory/default";

    fn setup() -> (Kernel, HalRuntime) {
        let mut kernel = Kernel::new();
        kernel.register_device(Box::new(simkernel::drivers::audio::PcmDevice::new()));
        let mut rt = HalRuntime::new();
        rt.register(&mut kernel, Box::new(AudioHal::new()));
        (kernel, rt)
    }

    #[test]
    fn playback_through_hal() {
        let (mut k, mut rt) = setup();
        let mut p = Parcel::new();
        p.write_i32(48000).write_i32(2);
        rt.transact(&mut k, DESC, &Transaction::new(OPEN_OUTPUT_STREAM, p)).unwrap();
        let mut p = Parcel::new();
        p.write_blob(vec![0u8; 256]);
        let reply = rt.transact(&mut k, DESC, &Transaction::new(WRITE_FRAMES, p)).unwrap();
        assert_eq!(reply.reader().read_i32().unwrap(), 256);
        rt.transact(&mut k, DESC, &Transaction::new(PAUSE, Parcel::new())).unwrap();
        rt.transact(&mut k, DESC, &Transaction::new(RESUME, Parcel::new())).unwrap();
        rt.transact(&mut k, DESC, &Transaction::new(STANDBY, Parcel::new())).unwrap();
        rt.transact(&mut k, DESC, &Transaction::new(CLOSE_STREAM, Parcel::new())).unwrap();
    }

    #[test]
    fn write_without_stream_is_invalid() {
        let (mut k, mut rt) = setup();
        let mut p = Parcel::new();
        p.write_blob(vec![0u8; 4]);
        let err = rt.transact(&mut k, DESC, &Transaction::new(WRITE_FRAMES, p)).unwrap_err();
        assert!(matches!(err, TransactionError::InvalidOperation(_)));
    }
}
