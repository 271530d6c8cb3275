//! Host-side measurement: the process clock, `getrusage` CPU time, peak
//! resident memory, the calibration kernel, and the counting allocator
//! behind the `<span>.allocs` metrics.

// xxi-allow-file: determinism -- host time is what this benchmark
// measures; no simulated output depends on it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the rusage layout below is 64-bit Linux's");

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Host seconds since the first call (made first thing in `main`, so
/// this is time since process start up to the runtime's own set-up).
pub fn now() -> f64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn rusage() -> Rusage {
    let mut u = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `u` is a live, writable value with the C layout of
    // `struct rusage` on this target, and RUSAGE_SELF is a valid `who`;
    // getrusage writes only inside it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail on Linux");
    u
}

/// User plus system CPU seconds of every thread of this process so far.
pub fn cpu_seconds() -> f64 {
    let u = rusage();
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&u.utime) + secs(&u.stime)
}

/// The process's peak resident set (`VmHWM`), in MB. Not `ru_maxrss`:
/// that keeps the high-water mark of the process image before `exec`,
/// which under `cargo run` is cargo's.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib * 1024.0 / 1e6)
}

/// Seconds one run of the calibration kernel takes: the median of five
/// runs of a fixed, allocation-free integer-and-float chain. Recorded
/// beside every result so a slower host can be told from a slower commit.
pub fn calibrate() -> f64 {
    let mut times: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            black_box(kernel(black_box(4_000_000)));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[2]
}

fn kernel(n: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut f = 1.0f64;
    for _ in 0..n {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        f = (f + (x >> 11) as f64 * 1e-16).sqrt();
    }
    x ^ f.to_bits()
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// Turn allocation counting on (traced passes) or off (untraced ones).
pub fn set_counting(on: bool) {
    // ORDERING: SeqCst so the switch is ordered before the pass's first
    // allocation on this thread; workers see it at their next task
    // hand-off, which synchronizes through the pool's own SeqCst counters.
    COUNTING.store(on, Ordering::SeqCst);
}

/// Allocations (and bytes requested) counted so far, all threads.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

#[inline]
fn note(bytes: usize) {
    // ORDERING: the flag only gates a statistic; a stale read near a
    // switch miscounts at most a racing allocation.
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// The system allocator plus two counters. A `realloc` counts as one
/// allocation of the new size.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// each inherits `System`'s guarantees; the bookkeeping in `note` touches
// only atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    // SAFETY: forwarded unchanged; `ptr` came from this allocator, i.e.
    // from `System`, with this `layout`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: forwarded unchanged; `ptr` came from `System` with `layout`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}
