//! # droidfuzz-bench — experiment harness
//!
//! One binary per table/figure of the DroidFuzz paper's evaluation (§V):
//!
//! | Binary       | Regenerates                                             |
//! |--------------|---------------------------------------------------------|
//! | `table1`     | Table I — the device list                               |
//! | `table2`     | Table II — bugs found (plus the syzkaller comparison)   |
//! | `fig4`       | Fig. 4 — coverage vs syzkaller over 48 h (A1, A2, B, C1)|
//! | `fig5`       | Fig. 5 — coverage vs Difuze and DroidFuzz-D (A1, A2)    |
//! | `table3`     | Table III — ablation coverage on all 7 devices          |
//! | `driver_cov` | §I claim — per-driver kernel coverage vs syzkaller      |
//! | `all`        | everything above, in sequence                           |
//!
//! Campaign scale is configurable through environment variables so CI can
//! run quick smoke versions:
//!
//! * `DF_HOURS` — virtual hours per campaign (default: the paper's value
//!   per experiment, 48 or 144),
//! * `DF_REPEATS` — repetitions per configuration (default 3–5; the paper
//!   uses 10).

pub mod reference;

use droidfuzz::config::FuzzerConfig;
use droidfuzz::fleet::{Fleet, FleetConfig, FleetResult};
use simdevice::firmware::FirmwareSpec;
use std::sync::Mutex;

/// Reads a scale parameter from the environment.
pub fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Reads an integer scale parameter from the environment.
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// A named fuzzer-variant constructor.
pub type MakeConfig = fn(u64) -> FuzzerConfig;

/// Runs `variants × devices` campaigns in parallel and returns results in
/// `(device, variant)` iteration order. Each campaign is an unsynced
/// fleet with one shard per repeat and a single round spanning the whole
/// campaign, so every repeat behaves exactly as a standalone run; the
/// per-repeat final coverage is in [`FleetResult::shards`].
pub fn run_matrix(
    devices: &[FirmwareSpec],
    variants: &[(&str, MakeConfig)],
    hours: f64,
    repeats: u64,
) -> Vec<FleetResult> {
    let fleet = Fleet::new(FleetConfig {
        shards: repeats as usize,
        hours,
        sync_interval_hours: hours,
        sync: false,
        ..FleetConfig::default()
    });
    let results: Mutex<Vec<(usize, FleetResult)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for (di, spec) in devices.iter().enumerate() {
            for (vi, (_, make)) in variants.iter().enumerate() {
                let results = &results;
                let (fleet, make) = (&fleet, *make);
                scope.spawn(move || {
                    let result = fleet.run(spec, make);
                    results
                        .lock()
                        .expect("no poisoning")
                        .push((di * variants.len() + vi, result));
                });
            }
        }
    });
    let mut out = results.into_inner().expect("no poisoning");
    out.sort_by_key(|(order, _)| *order);
    out.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdevice::catalog;

    #[test]
    fn env_parsing_falls_back() {
        assert_eq!(env_f64("DF_DOES_NOT_EXIST", 4.5), 4.5);
        assert_eq!(env_u64("DF_DOES_NOT_EXIST", 7), 7);
    }

    #[test]
    fn matrix_preserves_order() {
        let devices = vec![catalog::device_e()];
        let variants: Vec<(&str, MakeConfig)> = vec![
            ("DroidFuzz", FuzzerConfig::droidfuzz),
            ("Syzkaller", FuzzerConfig::syzkaller),
        ];
        let results = run_matrix(&devices, &variants, 0.02, 2);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].fuzzer, "DroidFuzz");
        assert_eq!(results[1].fuzzer, "Syzkaller");
        assert_eq!(results[0].device_id, "E");
    }
}
