//! The three benchmark workloads: their campaign recipes, how a seed
//! turns into engine seeds, the untraced runners the timed phase uses,
//! and the output checks every run applies.

use droidfuzz::config::FuzzerConfig;
use droidfuzz::engine::HOUR_US;
use droidfuzz::fleet::{Fleet, FleetConfig, FleetResult};
use simdevice::faults::FaultProfile;
use simdevice::FirmwareSpec;

use crate::sys::fnv64;
use crate::wire;

/// The seed whose outputs are pinned in [`pinned`]. Every run replays
/// its first campaign as the process warm-up and checks it.
pub const DEFAULT_SEED: u64 = 1;

/// Distinct campaigns one `--seed` expands to. Coverage and throughput
/// depend on the campaign seed; averaging over a few campaigns keeps
/// the per-seed figures close together.
pub const CAMPAIGNS_PER_SEED: u64 = 4;

/// Fleet worker threads: `nproc` of the reference machine.
pub const THREADS: usize = 2;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// DroidFuzz on A1, reliable devices, in-process hub.
    Campaign,
    /// DroidFuzz-S on A1 under the hostile device-fault profile.
    HostileStatic,
    /// The campaign recipe over loopback with a durable store, killed
    /// halfway and resumed from the recovered store.
    DurableWire,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Campaign,
        Workload::HostileStatic,
        Workload::DurableWire,
    ];

    /// The workload named `name` on the command line.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Campaign => "campaign",
            Workload::HostileStatic => "hostile_static",
            Workload::DurableWire => "durable_wire",
        }
    }

    /// The fleet shape. `threads` is explicit: the default (one thread
    /// per shard) oversubscribes a two-core machine.
    pub fn fleet_config(self) -> FleetConfig {
        let base = FleetConfig {
            shards: 4,
            threads: THREADS,
            ..FleetConfig::default()
        };
        match self {
            Workload::Campaign => FleetConfig { hours: 6.0, ..base },
            Workload::HostileStatic => FleetConfig { hours: 8.0, ..base },
            Workload::DurableWire => FleetConfig {
                hours: 3.0,
                sync_interval_hours: 0.1,
                checkpoint_interval_rounds: 8,
                ..base
            },
        }
    }

    /// Engine config for absolute engine seed `s` (`Fleet::run` passes
    /// `base + shard + 1`; lost-device restarts add multiples of 1009).
    pub fn engine_config(self, s: u64) -> FuzzerConfig {
        match self {
            Workload::Campaign | Workload::DurableWire => FuzzerConfig::droidfuzz(s),
            Workload::HostileStatic => {
                FuzzerConfig::droidfuzz_s(s).with_fault_profile(FaultProfile::Hostile)
            }
        }
    }

    /// Sync rounds in one campaign.
    pub fn total_rounds(self) -> usize {
        let cfg = self.fleet_config();
        let total_us = (cfg.hours * HOUR_US as f64) as u64;
        let interval_us = ((cfg.sync_interval_hours * HOUR_US as f64) as u64).max(1);
        (total_us.div_ceil(interval_us) as usize).max(1)
    }

    /// Rounds `durable_wire` runs before it is killed.
    pub fn kill_round(self) -> usize {
        self.total_rounds() / 2
    }
}

/// Base engine seed of campaign `index` of `seed`. Shard engines seed
/// from `base + 1 ..= base + shards`.
pub fn campaign_base(seed: u64, index: u64) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(index * 100)
}

/// What one campaign produced, reduced to the values the checks compare.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Test-case executions across all shards (attempts, as the engine
    /// counts them).
    pub executions: u64,
    /// Distinct kernel blocks fleet-wide.
    pub union_coverage: usize,
    /// Unique crash titles.
    pub crashes: usize,
    /// Executions abandoned (`gave_up`) or aborted (`hangs`), plus failed
    /// link operations on the wire.
    pub failed_ops: u64,
    /// FNV-1a of the final snapshot text (without the `net` and `store`
    /// counter lines for `durable_wire`, whose reference is in-process).
    pub digest: u64,
}

impl Outcome {
    /// The checked values of an in-process fleet result.
    pub fn of_fleet(result: &FleetResult, strip: bool) -> Self {
        let text = if strip {
            strip_wire_counters(&result.snapshot)
        } else {
            result.snapshot.clone()
        };
        Outcome {
            executions: result.executions,
            union_coverage: result.union_coverage,
            crashes: result.crashes.len(),
            failed_ops: result.fault_totals.gave_up + result.fault_totals.hangs,
            digest: fnv64(&text),
        }
    }
}

/// Drops the `net <key> <n>` and `store <key> <n>` counter lines: a
/// distributed durable run carries live wire and store totals where the
/// in-process run of the same recipe carries zeros.
pub fn strip_wire_counters(snapshot: &str) -> String {
    snapshot
        .lines()
        .filter(|l| !l.starts_with("net ") && !l.starts_with("store "))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Runs campaign `base` of `workload` untraced, the way a user would,
/// and returns its outcome plus its final snapshot text.
pub fn run_untraced(
    workload: Workload,
    spec: &FirmwareSpec,
    base: u64,
) -> Result<(Outcome, String), String> {
    match workload {
        Workload::Campaign | Workload::HostileStatic => {
            let result =
                Fleet::new(workload.fleet_config()).run(spec, |s| workload.engine_config(base + s));
            if !result.finished {
                return Err(format!(
                    "{}: campaign {base} did not finish",
                    workload.name()
                ));
            }
            Ok((Outcome::of_fleet(&result, false), result.snapshot))
        }
        Workload::DurableWire => {
            let run = wire::run_durable(spec, base, None)?;
            Ok((run.outcome, run.snapshot))
        }
    }
}

/// The outcome of `durable_wire`'s recipe run in process: the same
/// campaign killed at the same round and resumed from its snapshot by
/// `Fleet`, without the wire or the store.
pub fn in_process_reference(spec: &FirmwareSpec, base: u64) -> Result<Outcome, String> {
    let w = Workload::DurableWire;
    let make_config = |s| w.engine_config(base + s);
    let killed = Fleet::new(FleetConfig {
        kill_after_rounds: Some(w.kill_round()),
        ..w.fleet_config()
    })
    .run(spec, make_config);
    let resumed = Fleet::new(w.fleet_config()).resume(spec, make_config, &killed.snapshot)?;
    if !resumed.finished {
        return Err("durable_wire: in-process reference did not finish".into());
    }
    let mut outcome = Outcome::of_fleet(&resumed, true);
    outcome.executions += killed.executions;
    Ok(outcome)
}

/// The outcome pinned for campaign 0 of [`DEFAULT_SEED`].
pub fn pinned(workload: Workload) -> Outcome {
    match workload {
        Workload::Campaign => Outcome {
            executions: 34_517,
            union_coverage: 2_289,
            crashes: 2,
            failed_ops: 0,
            digest: 12_919_673_701_890_708_066,
        },
        Workload::HostileStatic => Outcome {
            executions: 11_645,
            union_coverage: 1_965,
            crashes: 2,
            failed_ops: 101,
            digest: 9_753_833_520_608_267_185,
        },
        Workload::DurableWire => Outcome {
            executions: 10_748,
            union_coverage: 1_606,
            crashes: 2,
            failed_ops: 0,
            digest: 4_997_175_258_450_158_437,
        },
    }
}

/// Compares `got` with `want` field by field; the error names every
/// field that differs.
pub fn check_outcome(label: &str, got: &Outcome, want: &Outcome) -> Result<(), String> {
    let mut diffs = Vec::new();
    let mut cmp = |field: &str, g: u64, w: u64| {
        if g != w {
            diffs.push(format!("{field} {g} != {w}"));
        }
    };
    cmp("executions", got.executions, want.executions);
    cmp(
        "union_coverage",
        got.union_coverage as u64,
        want.union_coverage as u64,
    );
    cmp("crashes", got.crashes as u64, want.crashes as u64);
    cmp("failed_ops", got.failed_ops, want.failed_ops);
    cmp("digest", got.digest, want.digest);
    if diffs.is_empty() {
        Ok(())
    } else {
        Err(format!("{label}: {}", diffs.join(", ")))
    }
}
