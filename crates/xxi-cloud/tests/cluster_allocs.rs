//! The serving DES recycles its per-request state: a run's heap
//! allocations must not grow with its request count. A counting global
//! allocator (this binary's only test, so nothing else allocates on its
//! thread) measures two runs that differ only in length.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use xxi_cloud::cluster::ClusterConfig;
use xxi_core::des::fault::{FaultMix, FaultPlan};
use xxi_core::SimTime;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call forwards to `System` with the caller's own layout
// and pointer; the only addition is bumping a const-initialized
// thread-local counter, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract for `alloc` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract for `realloc` is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by one run of `requests` requests under kills at
/// 0.3 per replica (the plan is built outside the count).
fn allocs_of_a_run(requests: u32) -> u64 {
    let cfg = ClusterConfig {
        requests,
        ..ClusterConfig::default()
    };
    let plan = FaultPlan::seeded(
        cfg.seed,
        SimTime::from_ms_f64(cfg.horizon_ms()),
        cfg.components(),
        0.3,
        FaultMix::kills_only(),
    );
    let before = ALLOCS.with(Cell::get);
    let out = cfg.run(&plan);
    let after = ALLOCS.with(Cell::get);
    assert_eq!(out.requests, requests);
    after - before
}

#[test]
fn a_run_allocates_less_than_once_per_added_request() {
    let short = allocs_of_a_run(3_000);
    let long = allocs_of_a_run(6_000);
    let per_request = long.saturating_sub(short) as f64 / 3_000.0;
    eprintln!("{short} allocations at 3 000 requests, {long} at 6 000: {per_request:.3} per added request");
    assert!(
        per_request < 1.0,
        "{per_request:.3} allocations per added request ({short} at 3 000, {long} at 6 000)"
    );
}
