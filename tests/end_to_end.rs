//! Cross-crate end-to-end tests: full fuzzing campaigns exercising
//! simkernel + simbinder + simhal + simdevice + fuzzlang + droidfuzz
//! together.

use droidfuzz_repro::droidfuzz::baselines::{difuze, syz};
use droidfuzz_repro::droidfuzz::fleet::{Fleet, FleetConfig};
use droidfuzz_repro::droidfuzz::{FuzzerConfig, FuzzingEngine};
use droidfuzz_repro::simdevice::catalog;

#[test]
fn droidfuzz_covers_and_learns_on_every_device() {
    for spec in catalog::all_devices() {
        let id = spec.meta.id.clone();
        let mut engine = FuzzingEngine::new(spec.boot(), FuzzerConfig::droidfuzz(17));
        engine.run_iterations(250);
        assert!(engine.kernel_coverage() > 100, "{id}: coverage {}", engine.kernel_coverage());
        assert!(!engine.corpus().is_empty(), "{id}: empty corpus");
        assert!(!engine.desc_table().hal_ids().is_empty(), "{id}: no HAL vocabulary");
    }
}

#[test]
fn probing_never_breaks_a_device() {
    for spec in catalog::all_devices() {
        let id = spec.meta.id.clone();
        let engine = FuzzingEngine::new(spec.boot(), FuzzerConfig::droidfuzz(1));
        let report = engine.probe_report().expect("droidfuzz probes");
        assert!(report.interface_count() > 20, "{id}: thin probe");
        assert!(!engine.device().is_wedged(), "{id}: probing wedged the device");
    }
}

#[test]
fn virtual_clock_and_series_are_monotonic() {
    let mut engine = FuzzingEngine::new(catalog::device_b().boot(), FuzzerConfig::droidfuzz(3));
    engine.run_for_virtual_hours(0.5);
    let t1 = engine.virtual_time_us();
    let c1 = engine.kernel_coverage();
    engine.run_for_virtual_hours(0.5);
    assert!(engine.virtual_time_us() > t1);
    assert!(engine.kernel_coverage() >= c1, "coverage never shrinks");
    let points = engine.coverage_series().points();
    assert!(points.windows(2).all(|w| w[0].0 <= w[1].0), "time sorted");
    assert!(points.windows(2).all(|w| w[0].1 <= w[1].1), "coverage monotonic");
}

#[test]
fn droidfuzz_beats_syzkaller_on_coverage_given_equal_budget() {
    // Short single-seed sanity version of Fig. 4 (the bench binaries run
    // the full comparison with repeats).
    let mut df = FuzzingEngine::new(catalog::device_a2().boot(), FuzzerConfig::droidfuzz(8));
    df.run_for_virtual_hours(4.0);
    let mut sz = syz::engine(catalog::device_a2().boot(), 8);
    sz.run_for_virtual_hours(4.0);
    assert!(
        df.kernel_coverage() as f64 > 1.15 * sz.kernel_coverage() as f64,
        "DroidFuzz {} vs Syzkaller {}",
        df.kernel_coverage(),
        sz.kernel_coverage()
    );
}

#[test]
fn difuze_extraction_and_generation_work() {
    let mut device = catalog::device_a1().boot();
    let extracted = difuze::extract_interfaces(&mut device);
    assert!(extracted > 50, "extracted {extracted}");
    let mut engine = difuze::engine(catalog::device_a1().boot(), 4);
    engine.run_iterations(200);
    assert!(engine.kernel_coverage() > 20);
    assert!(engine.corpus().is_empty(), "difuze is generation-only");
}

#[test]
fn daemon_campaign_is_reproducible_per_seed() {
    // The daemon's repeated campaign: two unsynced single-round repeats.
    let fleet = Fleet::new(FleetConfig {
        shards: 2,
        hours: 0.05,
        sync_interval_hours: 0.05,
        sync: false,
        ..FleetConfig::default()
    });
    let spec = catalog::device_e();
    let finals = || {
        let result = fleet.run(&spec, FuzzerConfig::droidfuzz);
        result.shards.iter().map(|s| s.final_coverage).collect::<Vec<_>>()
    };
    assert_eq!(finals(), finals(), "same seeds → same results");
}

#[test]
fn reboot_on_bug_keeps_fuzzing_productive() {
    // Device E's querycap warning fires early and often; the engine must
    // reboot and keep making progress rather than wedging.
    let mut engine = FuzzingEngine::new(catalog::device_e().boot(), FuzzerConfig::droidfuzz(21));
    engine.run_iterations(4000);
    assert!(engine.device().boot_count() > 1, "expected at least one reboot");
    assert!(engine.kernel_coverage() > 300);
    assert!(!engine.crash_db().is_empty());
    let record = &engine.crash_db().records()[0];
    assert!(record.repro.is_some(), "first crash gets a reproducer");
}

#[test]
fn ioctl_only_restriction_reaches_less_surface() {
    let mut full = FuzzingEngine::new(catalog::device_a1().boot(), FuzzerConfig::droidfuzz(9));
    full.run_for_virtual_hours(2.0);
    let mut restricted =
        FuzzingEngine::new(catalog::device_a1().boot(), FuzzerConfig::droidfuzz_d(9));
    restricted.run_for_virtual_hours(2.0);
    assert!(
        restricted.kernel_coverage() < full.kernel_coverage(),
        "DF-D {} should trail DF {}",
        restricted.kernel_coverage(),
        full.kernel_coverage()
    );
}
