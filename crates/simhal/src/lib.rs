//! # simhal — simulated Android HAL layer
//!
//! Stands in for the proprietary, closed-source vendor HAL blobs the
//! DroidFuzz paper targets. Each [`service::HalService`] is a stateful
//! state machine reachable only through Binder transactions; internally it
//! translates high-level methods into *semantically coherent* syscall
//! sequences against the [`simkernel`] drivers — the property that makes
//! joint HAL/kernel fuzzing cover more kernel driver state than raw
//! syscall fuzzing (paper §V-C).
//!
//! Crucially, nothing in this crate's service internals is visible to the
//! fuzzer: the fuzzer only sees [`simbinder::InterfaceInfo`] reflection
//! data and whatever its eBPF-style trace sessions observe in the kernel,
//! matching the paper's threat model for closed-source HALs.
//!
//! Five Table II bugs live here or are reached through here:
//! HAL-layer native crashes #2 (Graphics), #6 (Media), #9 (Camera), and
//! kernel bugs #1/#4/#5/#7/#10 whose natural trigger path runs through
//! the corresponding HAL service.
//!
//! ```
//! use simhal::runtime::HalRuntime;
//! use simhal::services::lights::LightsHal;
//! use simbinder::{Parcel, Transaction};
//! use simkernel::Kernel;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut kernel = Kernel::new();
//! kernel.register_device(Box::new(simkernel::drivers::leds::LedsDevice::new()));
//! let mut hal = HalRuntime::new();
//! hal.register(&mut kernel, Box::new(LightsHal::new()));
//!
//! let mut args = Parcel::new();
//! args.write_i32(0).write_i32(200);
//! let descriptor = hal.service_manager().list()[0].to_owned();
//! hal.transact(&mut kernel, &descriptor, &Transaction::new(1, args))?;
//! # Ok(())
//! # }
//! ```

pub mod runtime;
pub mod service;
pub mod services;

pub use runtime::HalRuntime;
pub use service::{HalService, KernelHandle};
