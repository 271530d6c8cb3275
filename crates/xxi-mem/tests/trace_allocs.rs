//! A trace generator writes its trace once: E12's 300 000-access Zipf
//! trace must allocate no more bytes than its one `Vec<Access>` plus the
//! sampler's CDF and guide table. A counting global allocator (this
//! binary's only test, so nothing else allocates on its thread) sums the
//! bytes of every allocation and reallocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;

use xxi_mem::trace::{Access, TraceGen};

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call forwards to `System` with the caller's own layout
// and pointer; the only addition is bumping a const-initialized
// thread-local counter, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.with(|n| n.set(n.get() + layout.size() as u64));
        // SAFETY: the caller's contract for `alloc` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.with(|n| n.set(n.get() + new_size as u64));
        // SAFETY: the caller's contract for `realloc` is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_zipf_trace_allocates_one_access_buffer() {
    let (n, objects) = (300_000, 100_000);
    let before = BYTES.with(Cell::get);
    let trace = TraceGen::new(7).zipf(n, 0, objects, 4096, 1.1, 0.3);
    let bytes = BYTES.with(Cell::get) - before;
    assert_eq!(trace.len(), n);
    // The CDF holds one f64 per object; the guide table one rank per
    // bucket edge, with about objects/8 buckets, a power of two.
    let buckets = (objects / 8).next_power_of_two();
    let budget =
        n * size_of::<Access>() + objects * size_of::<f64>() + (buckets + 1) * size_of::<usize>();
    eprintln!("{bytes} bytes allocated, budget {budget}");
    assert!(
        bytes <= budget as u64,
        "{bytes} bytes allocated, budget {budget}"
    );
}
