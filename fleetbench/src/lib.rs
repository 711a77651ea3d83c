//! `fleetbench`: the DroidFuzz fleet benchmark. Three fixed-recipe
//! fleet workloads, timed end to end with tracing off, plus a separate
//! traced run that times calls into the fleet's public API layer by
//! layer. See `README.md` beside this crate for why each workload
//! exists and which layer metric should move which end-to-end metric.

pub mod driver;
pub mod probes;
pub mod recipe;
pub mod report;
pub mod run;
pub mod sys;
pub mod wire;
