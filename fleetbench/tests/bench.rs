//! Tests of the benchmark itself: the traced round-loop driver must
//! reproduce `Fleet::run`, metric names must be well formed and match
//! `BENCHMARK.json`, and the output check must reject a wrong value.

use droidfuzz::config::FuzzerConfig;
use droidfuzz::fleet::{Fleet, FleetConfig, FleetSnapshot};
use fleetbench::driver::run_traced;
use fleetbench::recipe::{check_outcome, pinned, Outcome, Workload};
use fleetbench::report::{valid_name, Report, END_TO_END, PER_LAYER};
use simdevice::catalog;
use simdevice::faults::{FaultProfile, FaultRates};

fn tiny(shards: usize, threads: usize) -> FleetConfig {
    FleetConfig {
        shards,
        hours: 0.3,
        sync_interval_hours: 0.05,
        threads,
        ..FleetConfig::default()
    }
}

/// Runs `cfg` through `Fleet::run` and the traced driver and demands
/// byte-equal final snapshots; returns the traced run's restarts.
fn assert_driver_matches(
    cfg: &FleetConfig,
    make_config: &(dyn Fn(u64) -> FuzzerConfig + Sync),
) -> u64 {
    let spec = catalog::device_a1();
    let fleet = Fleet::new(cfg.clone()).run(&spec, make_config);
    let traced = run_traced(cfg, &spec, make_config, None, None);
    assert!(fleet.finished && traced.finished);
    assert_eq!(
        traced.snapshot, fleet.snapshot,
        "traced driver diverged from Fleet::run"
    );
    assert_eq!(traced.executions, fleet.executions);
    assert_eq!(traced.faults, fleet.fault_totals);
    assert!(
        traced.times.accounted_share() > 0.5,
        "boundaries cover the run"
    );
    traced.restarts
}

#[test]
fn driver_reproduces_a_reliable_campaign() {
    assert_driver_matches(&tiny(3, 2), &FuzzerConfig::droidfuzz);
}

#[test]
fn driver_reproduces_a_hostile_static_campaign() {
    assert_driver_matches(&tiny(4, 2), &|s| {
        FuzzerConfig::droidfuzz_s(s).with_fault_profile(FaultProfile::Hostile)
    });
}

#[test]
fn driver_reproduces_restarts_and_quarantines() {
    let rates = FaultRates {
        vanish: 1.0,
        ..FaultRates::for_profile(FaultProfile::Reliable)
    };
    let cfg = FleetConfig {
        flap_limit: 1,
        ..tiny(2, 2)
    };
    let restarts = assert_driver_matches(&cfg, &move |s| {
        FuzzerConfig::droidfuzz(s).with_fault_rates(rates)
    });
    assert!(restarts >= 2, "every shard loses its device");
}

#[test]
fn driver_reproduces_a_kill_and_resume() {
    let spec = catalog::device_a1();
    let cfg = FleetConfig {
        checkpoint_interval_rounds: 4,
        ..tiny(2, 2)
    };
    let killed_cfg = FleetConfig {
        kill_after_rounds: Some(3),
        ..cfg.clone()
    };
    let killed = Fleet::new(killed_cfg).run(&spec, FuzzerConfig::droidfuzz);
    let resumed = Fleet::new(cfg.clone())
        .resume(&spec, FuzzerConfig::droidfuzz, &killed.snapshot)
        .unwrap();

    let traced_killed = run_traced(&cfg, &spec, &FuzzerConfig::droidfuzz, Some(3), None);
    assert!(!traced_killed.finished);
    assert_eq!(traced_killed.snapshot, killed.snapshot);
    let snap = FleetSnapshot::parse(&traced_killed.snapshot).unwrap();
    let traced = run_traced(&cfg, &spec, &FuzzerConfig::droidfuzz, None, Some(&snap));
    assert_eq!(traced.snapshot, resumed.snapshot);
}

#[test]
fn metric_names_are_well_formed_and_unique() {
    let names: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .map(|(n, _)| *n)
        .collect();
    for name in &names {
        assert!(valid_name(name), "bad metric name {name:?}");
    }
    let mut sorted = names.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), names.len(), "duplicate metric name");
    assert!(!valid_name("") && !valid_name("_x") && !valid_name("a b") && !valid_name("a/b"));
}

#[test]
fn benchmark_json_lists_every_metric_and_workload() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} ({unit}) missing"
        );
    }
    for w in Workload::ALL {
        assert!(
            json.contains(&format!("\"name\": \"{}\"", w.name())),
            "{} missing",
            w.name()
        );
    }
}

#[test]
fn output_check_rejects_a_wrong_pinned_value() {
    for w in Workload::ALL {
        let good = pinned(w);
        assert!(check_outcome("same", &good, &pinned(w)).is_ok());
        let wrong = [
            Outcome {
                executions: good.executions + 1,
                ..good.clone()
            },
            Outcome {
                union_coverage: good.union_coverage - 1,
                ..good.clone()
            },
            Outcome {
                crashes: good.crashes + 1,
                ..good.clone()
            },
            Outcome {
                failed_ops: good.failed_ops + 1,
                ..good.clone()
            },
            Outcome {
                digest: good.digest ^ 1,
                ..good.clone()
            },
        ];
        for bad in &wrong {
            assert!(
                check_outcome("wrong", bad, &good).is_err(),
                "{bad:?} passed as {good:?}"
            );
        }
    }
}

#[test]
fn report_renders_one_json_object() {
    let report = Report {
        correct: false,
        attempted: 3,
        failed: 1,
        metrics: vec![("execs_per_s", 1.5), ("setup_s", 0.25)],
    };
    assert_eq!(
        report.to_json(),
        "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": {\"execs_per_s\": \
         {\"value\": 1.5, \"unit\": \"1/s\"}, \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
    );
}
