//! Process-level readings (CPU time, peak memory) and small statistics.

// The `rusage` layout below and `malloc_trim` are those of 64-bit Linux
// with glibc; elsewhere the foreign calls would be unsound.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64", target_env = "gnu")))]
compile_error!("fleetbench supports 64-bit Linux with glibc only");

/// `struct timeval` as `getrusage` fills it on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs of
/// which the first is `ru_maxrss` (KiB).
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// `RUSAGE_SELF`: every thread of the calling process, exited ones too.
const RUSAGE_SELF: i32 = 0;

fn rusage() -> Rusage {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` with the C
    // layout of the target (64-bit Linux), and `getrusage` writes only
    // within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid buffer"
    );
    usage
}

/// CPU seconds (user + system) consumed so far by every thread of this
/// process, including threads that already exited.
pub fn cpu_seconds() -> f64 {
    let u = rusage();
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 / 1e6;
    secs(&u.ru_utime) + secs(&u.ru_stime)
}

/// Peak resident set size of this process so far, MiB.
pub fn peak_rss_mb() -> f64 {
    rusage().ru_maxrss as f64 / 1024.0
}

/// Returns the heap's free memory to the operating system (glibc
/// `malloc_trim`). Called between campaign runs, so memory one run freed
/// into another thread's arena cannot raise the next run's peak.
pub fn release_free_memory() {
    // SAFETY: `malloc_trim` only walks the allocator's own free lists;
    // it takes a plain integer and touches no memory the caller owns.
    unsafe {
        malloc_trim(0);
    }
}

/// The median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// 64-bit FNV-1a digest, used to pin snapshot text.
pub fn fnv64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// What [`gauge`] reads on the reference machine (two vCPUs of an Intel
/// Xeon host, uncontended): wall seconds and CPU seconds. Timings are
/// reported at this machine speed: a wall time taken next to a gauge
/// reading of `g` wall seconds is scaled by `GAUGE_REF.0 / g`, a CPU
/// time by the same ratio of CPU seconds.
pub const GAUGE_REF: (f64, f64) = (0.016, 0.032);

/// One pass of the machine gauge: a fixed integer and memory kernel,
/// independent of the code under test, run on two threads like the
/// fleet. Returns its (wall, CPU) seconds. Its cost changes only when
/// the machine does: wall time grows when other tenants of the host
/// steal time or contend for the cores, CPU time only with contention.
pub fn gauge() -> (f64, f64) {
    const WORDS: usize = 1 << 16;
    const STEPS: usize = 6 << 20;
    let (cpu0, start) = (cpu_seconds(), std::time::Instant::now());
    std::thread::scope(|scope| {
        for lane in 0..2u64 {
            scope.spawn(move || {
                let mut buf: Vec<u64> = (0..WORDS as u64)
                    .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ lane)
                    .collect();
                let mut x = lane + 1;
                for _ in 0..STEPS {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let i = (x as usize) & (WORDS - 1);
                    buf[i] = buf[i].wrapping_add(x).rotate_left(7);
                }
                std::hint::black_box(buf.iter().fold(0u64, |a, &b| a ^ b));
            });
        }
    });
    (start.elapsed().as_secs_f64(), cpu_seconds() - cpu0)
}
