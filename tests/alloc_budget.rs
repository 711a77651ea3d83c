//! Allocation budget of the device execution path.
//!
//! This test binary installs a counting global allocator. Counts are kept
//! per thread, so tests running in parallel do not see each other's
//! allocations. Once warm, the broker → kernel → HAL path may allocate
//! only what driver replies and dynamic HAL error texts need, and the
//! supervisor must add nothing on top of the broker on a reliable device.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use droidfuzz_repro::droidfuzz::descs::build_syscall_table;
use droidfuzz_repro::droidfuzz::exec::Broker;
use droidfuzz_repro::droidfuzz::generate::random_generate;
use droidfuzz_repro::droidfuzz::probe::{add_hal_descs, probe_device};
use droidfuzz_repro::droidfuzz::supervisor::{Supervisor, SupervisorConfig};
use droidfuzz_repro::fuzzlang::desc::DescTable;
use droidfuzz_repro::fuzzlang::gen::append_call;
use droidfuzz_repro::fuzzlang::prog::Prog;
use droidfuzz_repro::simdevice::faults::{FaultPlan, FaultProfile};
use droidfuzz_repro::simdevice::{catalog, AdbLink, Device};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; the thread-local
// counter is a `const`-initialized `Cell` without a destructor, so it
// never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by this thread so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Most heap allocations one warm A1 execution of the fixed program set
/// may make, per program: what the drivers' data replies, HAL reply
/// parcels and HAL error texts that name an errno still need.
const BROKER_ALLOCS_PER_PROG: f64 = 2.5;

/// A1 with its probed HAL descriptions, and a fixed program set: half
/// generated programs, half programs of HAL calls only.
fn rig() -> (Device, DescTable, Vec<Prog>) {
    let mut device = catalog::device_a1().boot();
    let mut table = build_syscall_table(device.kernel_ref());
    let report = probe_device(&mut device);
    add_hal_descs(&mut table, &report);
    let mut rng = StdRng::seed_from_u64(0xA110C);
    let mut progs: Vec<Prog> = (0..100)
        .map(|_| random_generate(&table, 10, &mut rng))
        .collect();
    let hal = table.hal_ids();
    for _ in 0..100 {
        let mut prog = Prog::new();
        for _ in 0..rng.gen_range(2..8) {
            let id = hal[rng.gen_range(0..hal.len())];
            let _ = append_call(&mut prog, &table, id, &mut rng);
        }
        progs.push(prog);
    }
    progs.retain(|p| !p.is_empty());
    (device, table, progs)
}

/// Runs the program set once through `broker` in one batch, recycling
/// every outcome; returns the allocations made.
fn broker_pass(broker: &mut Broker, device: &mut Device, table: &DescTable, progs: &[Prog]) -> u64 {
    let before = allocs();
    broker.begin_batch(device);
    for prog in progs {
        let out = broker.execute(device, table, prog);
        broker.recycle(out);
    }
    broker.end_batch(device);
    allocs() - before
}

#[test]
fn warm_broker_stays_within_the_allocation_budget() {
    let (mut device, table, progs) = rig();
    let mut broker = Broker::new();
    for _ in 0..2 {
        broker_pass(&mut broker, &mut device, &table, &progs);
    }
    let spent = broker_pass(&mut broker, &mut device, &table, &progs);
    let per_prog = spent as f64 / progs.len() as f64;
    assert!(
        per_prog <= BROKER_ALLOCS_PER_PROG,
        "{per_prog:.2} allocations per program over {} programs, budget {BROKER_ALLOCS_PER_PROG}",
        progs.len()
    );
}

#[test]
fn supervision_on_a_reliable_device_adds_no_allocations() {
    let (mut plain_device, table, progs) = rig();
    let (mut sup_device, _, _) = rig();
    let mut plain = Broker::new();
    let mut sup_broker = Broker::new();
    let mut adb = AdbLink::usb();
    let plan = FaultPlan::for_profile(FaultProfile::Reliable, 7);
    let mut sup = Supervisor::new(plan, SupervisorConfig::default());
    let mut supervised_pass = |sup: &mut Supervisor, broker: &mut Broker, device: &mut Device| {
        let before = allocs();
        assert!(sup.begin_batch(broker, device));
        for prog in &progs {
            let run = sup.supervise(broker, device, &mut adb, &table, prog);
            let outcome = run
                .outcome
                .expect("a reliable device delivers every outcome");
            broker.recycle(outcome);
        }
        sup.end_batch(broker, device);
        allocs() - before
    };
    for _ in 0..2 {
        broker_pass(&mut plain, &mut plain_device, &table, &progs);
        supervised_pass(&mut sup, &mut sup_broker, &mut sup_device);
    }
    let plain_allocs = broker_pass(&mut plain, &mut plain_device, &table, &progs);
    let sup_allocs = supervised_pass(&mut sup, &mut sup_broker, &mut sup_device);
    assert_eq!(
        sup_allocs,
        plain_allocs,
        "supervise must add no allocations over the broker ({} programs)",
        progs.len()
    );
}
