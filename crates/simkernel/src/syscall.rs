//! The system-call surface of the simulated kernel.
//!
//! Only the calls that matter for driver fuzzing are modelled: file
//! lifecycle (`openat`/`close`/`dup`), data plane (`read`/`write`/`mmap`),
//! the driver control plane (`ioctl`), readiness (`poll`), and the
//! Bluetooth socket family (`socket`/`bind`/`connect`/`listen`/`accept`)
//! that the HCI/L2CAP drivers are reached through.

use crate::errno::Errno;
use crate::fd::Fd;
use std::fmt;

/// Syscall numbers, used by trace events and by the fuzzer's specialized
/// syscall-ID lookup table (§IV-D of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SyscallNr {
    /// `openat(2)`
    Openat,
    /// `close(2)`
    Close,
    /// `read(2)`
    Read,
    /// `write(2)`
    Write,
    /// `ioctl(2)`
    Ioctl,
    /// `mmap(2)`
    Mmap,
    /// `poll(2)`
    Poll,
    /// `dup(2)`
    Dup,
    /// `socket(2)`
    Socket,
    /// `bind(2)`
    Bind,
    /// `connect(2)`
    Connect,
    /// `listen(2)`
    Listen,
    /// `accept(2)`
    Accept,
}

impl SyscallNr {
    /// All syscall numbers, in a stable order (used to compile the
    /// specialized-ID lookup table at fuzzer initialization).
    pub fn all() -> &'static [SyscallNr] {
        use SyscallNr::*;
        &[
            Openat, Close, Read, Write, Ioctl, Mmap, Poll, Dup, Socket, Bind, Connect, Listen,
            Accept,
        ]
    }

    /// The syscall's name as it appears in strace-style logs.
    pub fn name(self) -> &'static str {
        match self {
            SyscallNr::Openat => "openat",
            SyscallNr::Close => "close",
            SyscallNr::Read => "read",
            SyscallNr::Write => "write",
            SyscallNr::Ioctl => "ioctl",
            SyscallNr::Mmap => "mmap",
            SyscallNr::Poll => "poll",
            SyscallNr::Dup => "dup",
            SyscallNr::Socket => "socket",
            SyscallNr::Bind => "bind",
            SyscallNr::Connect => "connect",
            SyscallNr::Listen => "listen",
            SyscallNr::Accept => "accept",
        }
    }
}

impl fmt::Display for SyscallNr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Socket domain constants (only `AF_BLUETOOTH` reaches a driver here).
pub mod af {
    /// `AF_BLUETOOTH`
    pub const BLUETOOTH: u32 = 31;
}

/// Bluetooth socket protocols.
pub mod btproto {
    /// Raw HCI channel.
    pub const HCI: u32 = 1;
    /// L2CAP channel.
    pub const L2CAP: u32 = 0;
}

/// A system-call invocation with its arguments. Path and buffer
/// arguments are borrowed from the caller, as a real syscall reads them
/// from user memory: issuing a call copies nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Syscall<'a> {
    /// Open the device node at `path`.
    Openat {
        /// Absolute `/dev/...` path.
        path: &'a str,
    },
    /// Close a descriptor.
    Close {
        /// Descriptor to close.
        fd: Fd,
    },
    /// Read up to `len` bytes.
    Read {
        /// Source descriptor.
        fd: Fd,
        /// Maximum byte count.
        len: usize,
    },
    /// Write `data`.
    Write {
        /// Target descriptor.
        fd: Fd,
        /// Payload bytes.
        data: &'a [u8],
    },
    /// Driver control call.
    Ioctl {
        /// Target descriptor.
        fd: Fd,
        /// Request code (the paper's "critical position argument").
        request: u32,
        /// Serialized argument structure.
        arg: &'a [u8],
    },
    /// Map `len` bytes of the device.
    Mmap {
        /// Target descriptor.
        fd: Fd,
        /// Mapping length.
        len: usize,
        /// Protection bits (`PROT_READ`=1, `PROT_WRITE`=2).
        prot: u32,
    },
    /// Poll for readiness.
    Poll {
        /// Target descriptor.
        fd: Fd,
        /// Requested event mask.
        events: u32,
    },
    /// Duplicate a descriptor.
    Dup {
        /// Descriptor to duplicate.
        fd: Fd,
    },
    /// Create a socket.
    Socket {
        /// Address family (`af::*`).
        domain: u32,
        /// Socket type (1 = stream, 2 = dgram, 3 = raw).
        ty: u32,
        /// Protocol (`btproto::*`).
        proto: u32,
    },
    /// Bind a socket to a local address/device id.
    Bind {
        /// Socket descriptor.
        fd: Fd,
        /// Device index / PSM, family-specific.
        addr: u64,
    },
    /// Connect a socket to a remote address.
    Connect {
        /// Socket descriptor.
        fd: Fd,
        /// Remote address, family-specific.
        addr: u64,
    },
    /// Mark a socket as accepting connections.
    Listen {
        /// Socket descriptor.
        fd: Fd,
        /// Backlog length.
        backlog: u32,
    },
    /// Accept a pending connection; returns a new descriptor.
    Accept {
        /// Listening socket descriptor.
        fd: Fd,
    },
}

impl Syscall<'_> {
    /// The syscall number of this invocation.
    pub fn nr(&self) -> SyscallNr {
        match self {
            Syscall::Openat { .. } => SyscallNr::Openat,
            Syscall::Close { .. } => SyscallNr::Close,
            Syscall::Read { .. } => SyscallNr::Read,
            Syscall::Write { .. } => SyscallNr::Write,
            Syscall::Ioctl { .. } => SyscallNr::Ioctl,
            Syscall::Mmap { .. } => SyscallNr::Mmap,
            Syscall::Poll { .. } => SyscallNr::Poll,
            Syscall::Dup { .. } => SyscallNr::Dup,
            Syscall::Socket { .. } => SyscallNr::Socket,
            Syscall::Bind { .. } => SyscallNr::Bind,
            Syscall::Connect { .. } => SyscallNr::Connect,
            Syscall::Listen { .. } => SyscallNr::Listen,
            Syscall::Accept { .. } => SyscallNr::Accept,
        }
    }

    /// The "critical position argument" used to specialize generic
    /// syscalls into unique feedback IDs (§IV-D): the `request` code for
    /// `ioctl`, the protocol for `socket`, zero otherwise.
    pub fn critical_arg(&self) -> u64 {
        match self {
            Syscall::Ioctl { request, .. } => u64::from(*request),
            Syscall::Socket { domain, proto, .. } => (u64::from(*domain) << 32) | u64::from(*proto),
            _ => 0,
        }
    }
}

/// The result of a system call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyscallRet {
    /// Success with a scalar value (byte counts, poll masks, zero).
    Ok(u64),
    /// Success returning a new file descriptor.
    NewFd(Fd),
    /// Success returning data read from the device.
    Data(Vec<u8>),
    /// Failure with an errno.
    Err(Errno),
}

impl SyscallRet {
    /// Extracts the descriptor from a `NewFd` result.
    ///
    /// # Errors
    ///
    /// Returns the original errno for `Err` results, or `EINVAL` when the
    /// call succeeded but did not produce a descriptor.
    pub fn fd(self) -> Result<Fd, Errno> {
        match self {
            SyscallRet::NewFd(fd) => Ok(fd),
            SyscallRet::Err(e) => Err(e),
            _ => Err(Errno::EINVAL),
        }
    }

    /// Extracts the scalar from an `Ok` result (zero for `NewFd`/`Data`).
    ///
    /// # Errors
    ///
    /// Returns the errno for `Err` results.
    pub fn ok(self) -> Result<u64, Errno> {
        match self {
            SyscallRet::Ok(v) => Ok(v),
            SyscallRet::NewFd(fd) => Ok(u64::from(fd.0)),
            SyscallRet::Data(d) => Ok(d.len() as u64),
            SyscallRet::Err(e) => Err(e),
        }
    }

    /// Whether the call succeeded.
    pub fn is_ok(&self) -> bool {
        !matches!(self, SyscallRet::Err(_))
    }

    /// The errno of a failed call, if any.
    pub fn errno(&self) -> Option<Errno> {
        match self {
            SyscallRet::Err(e) => Some(*e),
            _ => None,
        }
    }
}

impl From<Errno> for SyscallRet {
    fn from(e: Errno) -> Self {
        SyscallRet::Err(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nr_roundtrip_covers_every_variant() {
        let calls = [
            Syscall::Openat { path: "/dev/null" },
            Syscall::Close { fd: Fd(3) },
            Syscall::Read { fd: Fd(3), len: 8 },
            Syscall::Write { fd: Fd(3), data: &[1] },
            Syscall::Ioctl { fd: Fd(3), request: 0xc0044901, arg: &[] },
            Syscall::Mmap { fd: Fd(3), len: 4096, prot: 3 },
            Syscall::Poll { fd: Fd(3), events: 1 },
            Syscall::Dup { fd: Fd(3) },
            Syscall::Socket { domain: af::BLUETOOTH, ty: 3, proto: btproto::HCI },
            Syscall::Bind { fd: Fd(3), addr: 0 },
            Syscall::Connect { fd: Fd(3), addr: 1 },
            Syscall::Listen { fd: Fd(3), backlog: 4 },
            Syscall::Accept { fd: Fd(3) },
        ];
        let nrs: Vec<SyscallNr> = calls.iter().map(Syscall::nr).collect();
        assert_eq!(nrs, SyscallNr::all());
    }

    #[test]
    fn critical_arg_specializes_ioctl_and_socket() {
        let io = Syscall::Ioctl { fd: Fd(0), request: 0xdead, arg: &[] };
        assert_eq!(io.critical_arg(), 0xdead);
        let so = Syscall::Socket { domain: af::BLUETOOTH, ty: 3, proto: btproto::L2CAP };
        assert_eq!(so.critical_arg(), (u64::from(af::BLUETOOTH) << 32));
        let rd = Syscall::Read { fd: Fd(0), len: 1 };
        assert_eq!(rd.critical_arg(), 0);
    }

    #[test]
    fn ret_accessors() {
        assert_eq!(SyscallRet::Ok(7).ok(), Ok(7));
        assert_eq!(SyscallRet::NewFd(Fd(5)).fd(), Ok(Fd(5)));
        assert_eq!(SyscallRet::Err(Errno::EBADF).fd(), Err(Errno::EBADF));
        assert_eq!(SyscallRet::Ok(0).fd(), Err(Errno::EINVAL));
        assert!(SyscallRet::Data(vec![1, 2]).is_ok());
        assert_eq!(SyscallRet::Data(vec![1, 2]).ok(), Ok(2));
        assert_eq!(SyscallRet::Err(Errno::EIO).errno(), Some(Errno::EIO));
    }
}
