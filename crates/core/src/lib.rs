//! # droidfuzz — proprietary driver fuzzing for embedded Android devices
//!
//! A from-scratch Rust reproduction of **DroidFuzz** (DAC 2025): a fuzzer
//! that jointly tests the proprietary drivers of embedded Android devices
//! across the kernel/HAL boundary. The three techniques of the paper map
//! to three modules:
//!
//! 1. **Pre-testing HAL driver probing** (§IV-B) → [`probe`]: enumerate
//!    HAL services through the service manager, trial every method from a
//!    Poke-app stand-in while eBPF-style trace hooks record the resulting
//!    Binder/kernel activity, and derive typed interface descriptions plus
//!    normalized-occurrence weights.
//! 2. **Kernel-user relational payload generation** (§IV-C) →
//!    [`relation`] + [`generate`]: a weighted directed relation graph over
//!    {syscalls} ∪ {HAL interfaces}, learned from minimized
//!    coverage-increasing programs via Eq. 1, decayed periodically, and
//!    sampled to build call sequences with automatic producer insertion.
//! 3. **Cross-boundary execution state feedback** (§IV-D) → [`feedback`]:
//!    kcov kernel coverage merged with *directional* HAL syscall
//!    invocation coverage, specialized through a lookup table compiled at
//!    initialization.
//!
//! The remaining modules implement the fuzzing harness of §IV-A
//! ([`engine`], [`exec`], [`fleet`] — with [`supervisor`] wrapping every
//! execution in a watchdog/retry/recovery layer against injected device
//! faults, and [`fleet`] playing the daemon: sharded multi-engine
//! campaigns with corpus/relation sync, checkpoint/resume, self-healing
//! shard restarts, and a metrics bus — checkpoints made crash-safe on
//! disk by the [`store`] layer's checksummed snapshots, write-ahead
//! journal, and torn-write recovery), corpus and crash management
//! ([`corpus`], [`crashes`], [`minimize`]), the evaluation baselines
//! ([`baselines`]: syzkaller-like and Difuze-like fuzzers plus the
//! DroidFuzz-D / ablation configurations in [`config`]), and the
//! statistics of §V ([`stats`], including the Mann-Whitney U test).
//! Every program-producing path (generation, mutation, minimization,
//! corpus import, snapshot restore) runs behind the static-analysis gate
//! of the re-exported [`analysis`] crate, which lints, auto-repairs, and
//! counts defective programs before they reach the device.
//!
//! ```no_run
//! use droidfuzz::config::FuzzerConfig;
//! use droidfuzz::engine::FuzzingEngine;
//! use simdevice::catalog;
//!
//! let device = catalog::device_a1().boot();
//! let mut engine = FuzzingEngine::new(device, FuzzerConfig::droidfuzz(1));
//! engine.run_for_virtual_hours(1.0);
//! println!("coverage: {}", engine.kernel_coverage());
//! for crash in engine.crash_db().records() {
//!     println!("bug: {}", crash.title);
//! }
//! ```

pub mod arena;
pub mod baselines;
pub mod config;
pub mod corpus;
pub mod crashes;
pub mod descs;
pub mod engine;
pub mod exec;
pub mod feedback;
pub mod fleet;
pub(crate) mod frame;
pub mod generate;
pub mod minimize;
pub mod net;
pub mod probe;
pub mod relation;
pub mod report;
pub mod stats;
pub mod store;
pub mod supervisor;

pub use config::FuzzerConfig;
pub use droidfuzz_analysis as analysis;
pub use engine::FuzzingEngine;
pub use supervisor::{FailureClass, FaultCounters, SupervisedRun, Supervisor, SupervisorConfig};
