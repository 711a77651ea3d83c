//! Vendor HAL service implementations.
//!
//! Each service translates Binder methods into coherent syscall sequences
//! against its kernel driver. Services that carry injected HAL crashes
//! take an `armed` flag from the device firmware.

pub mod audio;
pub mod bluetooth;
pub mod camera;
pub mod graphics;
pub mod lights;
pub mod media;
pub mod power;
pub mod sensors;
pub mod usb;
pub mod wifi;

use crate::service::KernelHandle;
use simbinder::TransactionError;
use simkernel::fd::Fd;
use simkernel::{Syscall, SyscallRet};

/// Opens `path` once and caches the descriptor in `slot`.
pub(crate) fn ensure_open(
    sys: &mut KernelHandle<'_>,
    slot: &mut Option<Fd>,
    path: &str,
) -> Result<Fd, TransactionError> {
    if let Some(fd) = *slot {
        return Ok(fd);
    }
    match sys.sys(Syscall::Openat { path }) {
        SyscallRet::NewFd(fd) => {
            *slot = Some(fd);
            Ok(fd)
        }
        SyscallRet::Err(e) => Err(TransactionError::InvalidOperation(
            format!("open {path}: {e}").into(),
        )),
        _ => Err(TransactionError::InvalidOperation("open returned no fd".into())),
    }
}

/// Maps a syscall result to the scalar it produced, converting kernel
/// errors into `INVALID_OPERATION` Binder statuses.
pub(crate) fn expect_ok(ret: SyscallRet, what: &str) -> Result<u64, TransactionError> {
    match ret {
        SyscallRet::Err(e) => Err(TransactionError::InvalidOperation(format!("{what}: {e}").into())),
        other => Ok(other.ok().unwrap_or(0)),
    }
}

/// Encodes `ws` as an ioctl argument buffer on the stack, in the byte
/// order of [`simkernel::driver::encode_words`]; callers borrow it with
/// `as_flattened`.
pub(crate) fn words<const N: usize>(ws: [u32; N]) -> [[u8; 4]; N] {
    ws.map(u32::to_le_bytes)
}
