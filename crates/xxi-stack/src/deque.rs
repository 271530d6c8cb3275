//! A lock-free work-stealing deque.
//!
//! The owner thread pushes and pops at the *bottom* (LIFO, cache-friendly
//! for fork/join recursion); thief threads steal from the *top* (FIFO,
//! taking the oldest — usually largest — tasks). This is the Chase–Lev
//! discipline with one engineering change: elements are boxed and the
//! buffer stores **atomic pointers**, so a value is transferred between
//! threads only through an atomic word. That removes the torn-read hazard
//! of the classical memcpy-based buffer at the cost of one allocation per
//! task — the right trade for a task queue whose payloads are boxed
//! closures anyway.
//!
//! The buffer is a fixed-capacity ring: `push` reports `Full` instead of
//! growing, and the pool layers a global injector above it.

use std::marker::PhantomData;
use std::ptr;
use std::sync::Arc;

use crate::sync::atomic::{AtomicIsize, AtomicPtr, Ordering};

struct Ring<T> {
    slots: Box<[AtomicPtr<T>]>,
    mask: usize,
    top: AtomicIsize,
    bottom: AtomicIsize,
}

// SAFETY: `Ring` owns `T` values only through raw pointers parked in the
// atomic slots; moving the ring to another thread moves those boxed values
// with it, which is sound exactly when `T: Send`. No `&T` is ever handed
// out, so `T: Sync` is not required.
unsafe impl<T: Send> Send for Ring<T> {}
// SAFETY: shared access to `Ring` only touches the atomic words (`slots`,
// `top`, `bottom`) plus the immutable `mask`. A `T` is transferred between
// threads solely by moving its box through an atomic pointer swap (each
// pointer is consumed by exactly one `Box::from_raw`, enforced by the
// null-swap protocol), so cross-thread sharing needs only `T: Send`.
unsafe impl<T: Send> Sync for Ring<T> {}

impl<T> Ring<T> {
    fn new(capacity: usize) -> Ring<T> {
        assert!(capacity.is_power_of_two() && capacity >= 2);
        let slots = (0..capacity)
            .map(|_| AtomicPtr::new(ptr::null_mut()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Ring {
            slots,
            mask: capacity - 1,
            top: AtomicIsize::new(0),
            bottom: AtomicIsize::new(0),
        }
    }

    #[inline]
    fn slot(&self, i: isize) -> &AtomicPtr<T> {
        &self.slots[(i as usize) & self.mask]
    }
}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        // Reclaim any un-popped items.
        let t = self.top.load(Ordering::Relaxed);
        let b = self.bottom.load(Ordering::Relaxed);
        for i in t..b {
            let p = self.slot(i).load(Ordering::Relaxed);
            if !p.is_null() {
                // SAFETY: `drop` takes `&mut self`, so no other handle to
                // this ring exists and no pop/steal can race us. Every
                // non-null pointer in `[top, bottom)` was created by
                // `Box::into_raw` in `push` and not yet consumed (pop and
                // steal null the slot before calling `Box::from_raw`), so
                // each box is freed exactly once.
                drop(unsafe { Box::from_raw(p) });
            }
        }
    }
}

/// The owner handle: push/pop at the bottom. Not `Clone` — exactly one
/// owner exists.
pub struct Worker<T> {
    ring: Arc<Ring<T>>,
    /// `Worker` must stay on one thread conceptually; it is `Send` (you
    /// may move it) but not `Sync`.
    _not_sync: PhantomData<*mut ()>,
}

// SAFETY: `Worker` is a handle to an `Arc<Ring<T>>` (Send+Sync for
// `T: Send`, see above) plus a `PhantomData<*mut ()>` used only to strip
// `Sync`; moving the handle to another thread is sound for `T: Send`.
// The single-owner discipline (push/pop from one thread at a time) is
// preserved because `Worker` is neither `Clone` nor `Sync`.
unsafe impl<T: Send> Send for Worker<T> {}

/// A thief handle: steal from the top. Cloneable and shareable.
pub struct Stealer<T> {
    ring: Arc<Ring<T>>,
}

impl<T> Clone for Stealer<T> {
    fn clone(&self) -> Self {
        Stealer {
            ring: Arc::clone(&self.ring),
        }
    }
}

/// Create a deque of the given power-of-two capacity.
pub fn deque<T: Send>(capacity: usize) -> (Worker<T>, Stealer<T>) {
    let ring = Arc::new(Ring::new(capacity));
    (
        Worker {
            ring: Arc::clone(&ring),
            _not_sync: PhantomData,
        },
        Stealer { ring },
    )
}

impl<T: Send> Worker<T> {
    /// Push a value at the bottom. When the ring is full the value is
    /// handed back in `Err` so the caller can run or re-route it.
    pub fn push(&self, value: T) -> Result<(), T> {
        let r = &self.ring;
        let b = r.bottom.load(Ordering::Relaxed);
        let t = r.top.load(Ordering::Acquire);
        if b - t >= r.slots.len() as isize {
            return Err(value);
        }
        // Wraparound guard: the physical slot may still hold a pointer
        // claimed (via the top CAS) by a thief that has not collected it
        // yet. Treat that as Full rather than overwrite.
        if !r.slot(b).load(Ordering::Acquire).is_null() {
            return Err(value);
        }
        let p = Box::into_raw(Box::new(value));
        r.slot(b).store(p, Ordering::Relaxed);
        // Publish the slot before publishing the new bottom.
        r.bottom.store(b + 1, Ordering::Release);
        Ok(())
    }

    /// Pop from the bottom (LIFO). Returns `None` when empty.
    pub fn pop(&self) -> Option<T> {
        let r = &self.ring;
        let b = r.bottom.load(Ordering::Relaxed) - 1;
        // ORDERING: the classic Chase–Lev SC pair — the bottom store must
        // be globally ordered before the top load, or a thief and the owner
        // could both take the last element.
        r.bottom.store(b, Ordering::SeqCst);
        let t = r.top.load(Ordering::SeqCst); // ORDERING: second half of the SC pair
        if t > b {
            // Empty: restore.
            r.bottom.store(b + 1, Ordering::Relaxed);
            return None;
        }
        if t == b {
            // Last element: race with thieves via CAS on top.
            // ORDERING: SeqCst success keeps the claim in the same total
            // order as the store/load pair above; Relaxed failure is fine —
            // losing the race publishes nothing.
            let won = r
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok();
            r.bottom.store(b + 1, Ordering::Relaxed);
            if !won {
                return None; // a thief got it
            }
            let p = r.slot(b).swap(ptr::null_mut(), Ordering::Acquire);
            debug_assert!(!p.is_null());
            if p.is_null() {
                return None;
            }
            // SAFETY: we won the SeqCst CAS on `top`, so no thief claimed
            // index `b`; the pointer came from `push`'s `Box::into_raw`
            // and the null swap above makes this the unique consumer.
            return Some(*unsafe { Box::from_raw(p) });
        }
        // More than one element: safe to take without CAS (SC ordering of
        // the bottom store and top load excludes any thief claiming `b`).
        let p = r.slot(b).swap(ptr::null_mut(), Ordering::Acquire);
        debug_assert!(!p.is_null());
        if p.is_null() {
            return None;
        }
        // SAFETY: `t < b` after the SeqCst store/load pair, so every thief
        // (which claims indices via the `top` CAS before touching a slot)
        // is confined to indices `< b`; index `b` is exclusively ours. The
        // pointer came from `push`'s `Box::into_raw`, and the null swap
        // above makes this the unique consumer.
        Some(*unsafe { Box::from_raw(p) })
    }

    /// Number of elements (approximate under concurrency).
    pub fn len(&self) -> usize {
        let r = &self.ring;
        let b = r.bottom.load(Ordering::Relaxed);
        let t = r.top.load(Ordering::Relaxed);
        (b - t).max(0) as usize
    }

    /// True when (approximately) empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T: Send> Stealer<T> {
    /// Steal from the top (FIFO). Returns `None` when empty or beaten by a
    /// race (callers retry).
    pub fn steal(&self) -> Option<T> {
        let r = &self.ring;
        // ORDERING: the thief-side SC pair mirroring `pop` — top must be
        // read before bottom in the same total order as the owner's
        // bottom-store/top-load, or both sides could claim the last slot.
        let t = r.top.load(Ordering::SeqCst);
        let b = r.bottom.load(Ordering::SeqCst); // ORDERING: second half of the SC pair
        if t >= b {
            return None;
        }
        // Claim index t first; only the CAS winner touches the slot.
        // ORDERING: SeqCst success joins the claim to that total order;
        // Relaxed failure publishes nothing (the loser walks away).
        if r.top
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
            .is_err()
        {
            return None;
        }
        // We own index t now: push's Release on bottom made the slot store
        // visible before we observed t < b, and push's wraparound guard
        // keeps the owner from overwriting the slot until we collect it.
        let p = r.slot(t).swap(ptr::null_mut(), Ordering::Acquire);
        debug_assert!(!p.is_null(), "stolen slot must be populated");
        if p.is_null() {
            return None;
        }
        // SAFETY: winning the `top` CAS grants exclusive claim to index
        // `t`: other thieves lose the CAS, the owner's pop abandons any
        // index a thief claimed, and `push`'s wraparound guard refuses to
        // reuse the slot until we null it. The pointer came from `push`'s
        // `Box::into_raw`; the null swap makes this the unique consumer.
        Some(*unsafe { Box::from_raw(p) })
    }

    /// Approximate length.
    pub fn len(&self) -> usize {
        let r = &self.ring;
        let b = r.bottom.load(Ordering::Relaxed);
        let t = r.top.load(Ordering::Relaxed);
        (b - t).max(0) as usize
    }

    /// True when (approximately) empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;
    use std::thread;

    #[test]
    fn lifo_for_owner() {
        let (w, _s) = deque::<u32>(64);
        w.push(1).unwrap();
        w.push(2).unwrap();
        w.push(3).unwrap();
        assert_eq!(w.pop(), Some(3));
        assert_eq!(w.pop(), Some(2));
        assert_eq!(w.pop(), Some(1));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn fifo_for_thief() {
        let (w, s) = deque::<u32>(64);
        w.push(1).unwrap();
        w.push(2).unwrap();
        w.push(3).unwrap();
        assert_eq!(s.steal(), Some(1));
        assert_eq!(s.steal(), Some(2));
        assert_eq!(w.pop(), Some(3));
        assert_eq!(s.steal(), None);
    }

    #[test]
    fn full_reported() {
        let (w, _s) = deque::<u32>(4);
        for i in 0..4 {
            w.push(i).unwrap();
        }
        assert_eq!(w.push(99), Err(99));
        assert_eq!(w.pop(), Some(3));
        assert!(w.push(99).is_ok());
    }

    #[test]
    fn len_tracks() {
        let (w, s) = deque::<u32>(16);
        assert!(w.is_empty());
        w.push(1).unwrap();
        w.push(2).unwrap();
        assert_eq!(w.len(), 2);
        assert_eq!(s.len(), 2);
        s.steal();
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn drop_reclaims_unconsumed_items() {
        // Run under the allocator: leaked boxes would show in Miri/ASan;
        // here we verify Drop runs via a counting type.
        static DROPS: AtomicU64 = AtomicU64::new(0);
        #[derive(Debug)]
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        {
            let (w, _s) = deque::<D>(8);
            for _ in 0..5 {
                w.push(D).unwrap();
            }
            let _ = w.pop(); // one dropped here
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn concurrent_thieves_take_each_item_exactly_once() {
        let n_items = 100_000u64;
        let n_thieves = 4;
        let (w, s) = deque::<u64>(1 << 18);
        for i in 0..n_items {
            w.push(i).unwrap();
        }
        let mut handles = Vec::new();
        for _ in 0..n_thieves {
            let s = s.clone();
            handles.push(thread::spawn(move || {
                let mut got = Vec::new();
                loop {
                    match s.steal() {
                        Some(v) => got.push(v),
                        None => {
                            if s.is_empty() {
                                break;
                            }
                        }
                    }
                }
                got
            }));
        }
        // Owner pops concurrently too.
        let mut owner_got = Vec::new();
        loop {
            match w.pop() {
                Some(v) => owner_got.push(v),
                None => {
                    if w.is_empty() {
                        break;
                    }
                }
            }
        }
        let mut all: Vec<u64> = owner_got;
        for h in handles {
            all.extend(h.join().unwrap());
        }
        assert_eq!(all.len() as u64, n_items, "lost or duplicated items");
        let set: HashSet<u64> = all.iter().copied().collect();
        assert_eq!(set.len() as u64, n_items, "duplicates detected");
    }

    #[test]
    fn concurrent_push_pop_steal_stress() {
        // Owner produces while thieves consume; count conservation.
        let total = 200_000u64;
        let (w, s) = deque::<u64>(1 << 12);
        let sum_stolen = Arc::new(AtomicU64::new(0));
        let n_stolen = Arc::new(AtomicU64::new(0));
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let s = s.clone();
            let sum = Arc::clone(&sum_stolen);
            let cnt = Arc::clone(&n_stolen);
            let done = Arc::clone(&done);
            handles.push(thread::spawn(move || loop {
                match s.steal() {
                    Some(v) => {
                        sum.fetch_add(v, Ordering::Relaxed);
                        cnt.fetch_add(1, Ordering::Relaxed);
                    }
                    None => {
                        if done.load(Ordering::Acquire) && s.is_empty() {
                            break;
                        }
                        std::hint::spin_loop();
                    }
                }
            }));
        }
        let mut sum_owner = 0u64;
        let mut n_owner = 0u64;
        for i in 0..total {
            loop {
                match w.push(i) {
                    Ok(()) => break,
                    Err(_rejected_i) => {
                        // Drain a little ourselves.
                        if let Some(v) = w.pop() {
                            sum_owner += v;
                            n_owner += 1;
                        }
                    }
                }
            }
        }
        while let Some(v) = w.pop() {
            sum_owner += v;
            n_owner += 1;
        }
        done.store(true, Ordering::Release);
        for h in handles {
            h.join().unwrap();
        }
        let n = n_owner + n_stolen.load(Ordering::Relaxed);
        let sum = sum_owner + sum_stolen.load(Ordering::Relaxed);
        assert_eq!(n, total, "count conservation");
        assert_eq!(sum, total * (total - 1) / 2, "sum conservation");
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_capacity_rejected() {
        deque::<u32>(100);
    }
}
