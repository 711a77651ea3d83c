//! All-device golden digests of the simulated device path.
//!
//! The broker's differential tests compare two brokers that share one
//! simulated kernel and HAL, so they cannot notice a change in what the
//! simulator itself does. This test pins it: on each of the seven catalog
//! devices, a fixed-seed stream of generated, mutated, HAL-heavy and
//! Bluetooth-socket programs runs through one batched broker with one
//! reboot in the middle of the batch, and every field of every
//! `ExecOutcome` is hashed — call results, kcov, device-wide new blocks,
//! HAL events with their node paths, bug titles and logs, and reply
//! sizes. A digest mismatch means the simulated device behaves
//! differently, not merely faster.

use droidfuzz_repro::droidfuzz::descs::build_syscall_table;
use droidfuzz_repro::droidfuzz::exec::{Broker, ExecOutcome};
use droidfuzz_repro::droidfuzz::generate::random_generate;
use droidfuzz_repro::droidfuzz::probe::{add_hal_descs, probe_device};
use droidfuzz_repro::fuzzlang::desc::{DescId, DescTable};
use droidfuzz_repro::fuzzlang::gen::append_call;
use droidfuzz_repro::fuzzlang::mutate::mutate_n;
use droidfuzz_repro::fuzzlang::prog::Prog;
use droidfuzz_repro::simdevice::{catalog, FirmwareSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Digests pinned before the allocation-free device path landed, per
/// device in catalog order: (device id, programs run, FNV-1a digest).
const PINNED: [(&str, usize, u64); 7] = [
    ("A1", 380, 0x44f9a96740d8fb54),
    ("A2", 380, 0xca666216971a6ee5),
    ("B", 380, 0x48bcd4c00104d5da),
    ("C1", 380, 0x5ed3d997a258463c),
    ("C2", 380, 0xaee310aacb3b0688),
    ("D", 380, 0x8487ad200c18081e),
    ("E", 380, 0xe41409a64b971946),
];

/// 64-bit FNV-1a over a canonical byte rendering of the outcomes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

fn hash_outcome(h: &mut Fnv, out: &ExecOutcome) {
    h.u64(out.call_results.len() as u64);
    for &ok in &out.call_results {
        h.u64(u64::from(ok));
    }
    h.u64(out.kcov.len() as u64);
    for b in &out.kcov {
        h.u64(b.0);
    }
    h.u64(out.observed_new_blocks.len() as u64);
    for b in &out.observed_new_blocks {
        h.u64(b.0);
    }
    h.u64(out.hal_events.len() as u64);
    for e in &out.hal_events {
        h.str(&e.origin.to_string());
        h.str(e.nr.name());
        h.u64(e.critical);
        match e.path.as_deref() {
            Some(p) => h.str(p),
            None => h.str("-"),
        }
        h.u64(u64::from(e.ok));
    }
    h.u64(out.bugs.len() as u64);
    for bug in &out.bugs {
        h.str(&format!("{:?}/{:?}", bug.kind, bug.component));
        h.str(&bug.title);
        h.str(&bug.log);
    }
    h.u64(out.calls_executed as u64);
    h.u64(out.reply_bytes as u64);
}

/// Programs built only from the given descriptions (producers are
/// prepended by `append_call` as needed).
fn focused(table: &DescTable, ids: &[DescId], n: usize, rng: &mut StdRng) -> Vec<Prog> {
    if ids.is_empty() {
        return Vec::new();
    }
    (0..n)
        .map(|_| {
            let mut prog = Prog::new();
            let len = rng.gen_range(2..10);
            for _ in 0..len {
                let id = ids[rng.gen_range(0..ids.len())];
                let _ = append_call(&mut prog, table, id, rng);
            }
            prog
        })
        .filter(|p| !p.is_empty())
        .collect()
}

/// The fixed program stream for one device: generated programs, mutants
/// of them, HAL-heavy programs and Bluetooth-socket programs.
fn programs(table: &DescTable, seed: u64) -> Vec<Prog> {
    let mut rng = StdRng::seed_from_u64(seed);
    let generated: Vec<Prog> = (0..120)
        .map(|_| random_generate(table, 10, &mut rng))
        .filter(|p| !p.is_empty())
        .collect();
    let mut progs = generated.clone();
    for base in generated.iter().take(80) {
        let mut mutant = base.clone();
        mutate_n(&mut mutant, table, 3, &mut rng);
        if !mutant.is_empty() {
            progs.push(mutant);
        }
    }
    let hal = table.hal_ids();
    progs.extend(focused(table, &hal, 120, &mut rng));
    let bt: Vec<DescId> = table
        .iter()
        .filter(|(_, d)| {
            let name = d.name.to_ascii_lowercase();
            name.contains("hci") || name.contains("l2cap")
        })
        .map(|(id, _)| id)
        .collect();
    progs.extend(focused(table, &bt, 60, &mut rng));
    progs
}

fn device_digest(spec: FirmwareSpec, seed: u64) -> (usize, u64) {
    let mut device = spec.boot();
    let mut table = build_syscall_table(device.kernel_ref());
    let report = probe_device(&mut device);
    add_hal_descs(&mut table, &report);
    let progs = programs(&table, seed);
    let mut broker = Broker::new();
    let mut h = Fnv::new();
    broker.begin_batch(&mut device);
    for (i, prog) in progs.iter().enumerate() {
        if i == progs.len() / 2 {
            device.reboot();
        }
        let out = broker.execute(&mut device, &table, prog);
        hash_outcome(&mut h, &out);
        broker.recycle(out);
    }
    broker.end_batch(&mut device);
    (progs.len(), h.0)
}

#[test]
fn every_catalog_device_matches_its_pinned_outcome_digest() {
    let mut got = Vec::new();
    for (i, spec) in catalog::all_devices().into_iter().enumerate() {
        let id = spec.meta.id.clone();
        let (n, digest) = device_digest(spec, 0x601D_0000 + i as u64);
        got.push((id, n, digest));
    }
    let rendered: Vec<String> = got
        .iter()
        .map(|(id, n, d)| format!("(\"{id}\", {n}, {d:#018x}),"))
        .collect();
    let want: Vec<(String, usize, u64)> = PINNED
        .iter()
        .map(|&(id, n, d)| (id.to_owned(), n, d))
        .collect();
    assert_eq!(
        got,
        want,
        "device outcome digests changed:\n{}",
        rendered.join("\n")
    );
}
