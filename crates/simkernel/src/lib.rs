//! # simkernel — a simulated Linux kernel substrate for driver fuzzing
//!
//! This crate stands in for the rooted, kcov/KASAN-enabled Linux kernels that
//! the DroidFuzz paper (DAC'25) runs on seven physical embedded Android
//! devices. It provides the observable surface a kernel driver fuzzer needs:
//!
//! * a **syscall layer** ([`Syscall`], [`Kernel::syscall`]) with per-process
//!   file-descriptor tables,
//! * a **character-driver framework** ([`driver::CharDevice`]) with stateful
//!   vendor drivers under [`drivers`],
//! * **kcov-style coverage** ([`coverage`]): per-task collection of basic
//!   block identifiers emitted by driver state machines,
//! * **KASAN/WARNING/BUG-style bug reports** ([`report`]) raised by injected,
//!   state-gated defects, plus a soft-lockup watchdog,
//! * **trace hooks** ([`trace`]) standing in for the eBPF probes DroidFuzz
//!   inserts to observe HAL-originated syscalls.
//!
//! Coverage blocks are derived from driver state, so *deeper, semantically
//! correct call sequences reveal more blocks* — the property that makes
//! coverage a meaningful proxy for driver state exploration, exactly as the
//! paper uses it.
//!
//! ```
//! use simkernel::{Kernel, Syscall, trace::Origin};
//!
//! # fn main() -> Result<(), simkernel::Errno> {
//! let mut kernel = Kernel::new();
//! kernel.register_device(Box::new(simkernel::drivers::v4l2::V4l2Device::new(0)));
//! let pid = kernel.spawn_process(Origin::Native);
//! let fd = kernel.syscall(pid, Syscall::Openat { path: "/dev/video0" }).fd()?;
//! kernel.syscall(pid, Syscall::Ioctl { fd, request: simkernel::drivers::v4l2::VIDIOC_QUERYCAP, arg: &[] }).ok()?;
//! # Ok(())
//! # }
//! ```

pub mod coverage;
pub mod driver;
pub mod drivers;
pub mod errno;
pub mod fd;
pub mod kernel;
pub mod report;
pub mod syscall;
pub mod trace;

pub use coverage::{Block, CoverageMap, KcovBuffer};
pub use errno::Errno;
pub use kernel::{Kernel, Pid};
pub use report::{BugKind, BugReport, Component};
pub use syscall::{Syscall, SyscallNr, SyscallRet};
