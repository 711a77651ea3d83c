//! Generation goldens: fixed-seed batches of relational and randomized
//! payloads on device A1 must reproduce byte for byte. Payload text pins
//! the RNG draw order, producer order and resource matching of
//! `relational_generate` and `fuzzlang::gen::generate`, so a change that
//! drifts any of them fails here instead of only as a changed campaign.

use droidfuzz_repro::droidfuzz::config::FuzzerConfig;
use droidfuzz_repro::droidfuzz::generate::relational_generate;
use droidfuzz_repro::droidfuzz::relation::RelationGraph;
use droidfuzz_repro::droidfuzz::FuzzingEngine;
use droidfuzz_repro::fuzzlang::desc::{DescId, DescTable};
use droidfuzz_repro::fuzzlang::gen::generate;
use droidfuzz_repro::fuzzlang::prog::Prog;
use droidfuzz_repro::fuzzlang::text::format_prog;
use droidfuzz_repro::simdevice::catalog;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const BATCH: usize = 32;

/// The DroidFuzz description table of device A1 (syscalls plus probed
/// HAL methods), as the engine builds it.
fn a1_table() -> DescTable {
    let spec = catalog::by_id("A1").expect("A1 in catalog");
    FuzzingEngine::new(spec.boot(), FuzzerConfig::droidfuzz(1)).desc_table().clone()
}

/// FNV-1a 64 of `text`.
fn fnv(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn batch_text(progs: impl Iterator<Item = Prog>, table: &DescTable) -> String {
    progs.map(|p| format_prog(&p, table) + "\n").collect()
}

#[test]
fn relational_generate_batch_is_pinned() {
    let table = a1_table();
    // A graph learned from a fixed pseudo-random edge stream, so the
    // walk follows edges and restarts from fresh bases.
    let mut graph = RelationGraph::new(&table);
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..400 {
        let a = DescId(rng.gen_range(0..table.len()));
        let b = DescId(rng.gen_range(0..table.len()));
        graph.learn(a, b);
    }
    let mut rng = StdRng::seed_from_u64(11);
    let text =
        batch_text((0..BATCH).map(|_| relational_generate(&table, &graph, 16, &mut rng)), &table);
    assert!(
        text.starts_with(
            "r0 = hal$IPower$getTemperature(0x3)\nr1 = hal$IBluetoothHci$completeSetup()\n\
             r2 = hal$IComposer$init()\nr3 = openat$/dev/dri0()\n\
             r4 = ioctl$DRM_MODE_SET(r3, 0xf00, 0x438, 0x1e)\n"
        ),
        "{text}"
    );
    assert_eq!((text.len(), fnv(&text)), (25732, 18203345423583307650), "{text}");
}

#[test]
fn random_generate_batch_is_pinned() {
    let table = a1_table();
    let mut rng = StdRng::seed_from_u64(12);
    let text = batch_text((0..BATCH).map(|_| generate(&table, 8, &mut rng)), &table);
    assert!(
        text.starts_with(
            "r0 = hal$IComposer$getDisplayConfig()\nr1 = openat$/dev/dri0()\n\
             r2 = ioctl$DRM_WAIT_VBLANK(r1)\n"
        ),
        "{text}"
    );
    assert_eq!((text.len(), fnv(&text)), (21462, 12199968110967516016), "{text}");
}
