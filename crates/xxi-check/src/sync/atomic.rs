//! Shadow atomics: drop-in replacements for `std::sync::atomic` types.
//!
//! Inside a [`crate::Checker`] execution, every operation is a scheduling
//! point and goes through the happens-before model in `crate::sched`;
//! outside one (no execution context, or while unwinding during abort
//! teardown) every operation delegates to the embedded real atomic with
//! the caller's ordering, so the same binary runs tests both ways.
//!
//! The real atomic always mirrors the model's latest store, which keeps
//! destructors that run during teardown reading coherent values.

// xxi-allow-file: atomics-discipline -- shadow atomics: the embedded real
// atomic only mirrors the model's latest store for teardown coherence; the
// happens-before model, not these orderings, provides synchronization.
use std::sync::atomic as real;
use std::sync::atomic::Ordering as StdOrdering;

use crate::sched::{self, Meta};

pub use std::sync::atomic::Ordering;

#[inline]
fn u64_raw(v: u64) -> u64 {
    v
}
#[inline]
fn u64_val(r: u64) -> u64 {
    r
}
#[inline]
fn usize_raw(v: usize) -> u64 {
    v as u64
}
#[inline]
fn usize_val(r: u64) -> usize {
    r as usize
}
#[inline]
fn bool_raw(v: bool) -> u64 {
    v as u64
}
#[inline]
fn bool_val(r: u64) -> bool {
    r != 0
}

macro_rules! int_atomic {
    ($name:ident, $t:ty, $std:ty, $kind:literal, $raw:ident, $val:ident) => {
        /// Shadow version of the `std` atomic of the same name.
        #[derive(Debug)]
        pub struct $name {
            real: $std,
            meta: Meta,
        }

        impl $name {
            pub const fn new(v: $t) -> $name {
                $name {
                    real: <$std>::new(v),
                    meta: Meta::new(),
                }
            }

            #[inline]
            fn init(&self) -> u64 {
                $raw(self.real.load(StdOrdering::Relaxed))
            }

            pub fn load(&self, ord: Ordering) -> $t {
                match sched::op_load(&self.meta, self.init(), $kind, ord) {
                    Some(r) => $val(r),
                    None => self.real.load(ord),
                }
            }

            pub fn store(&self, v: $t, ord: Ordering) {
                if sched::op_store(&self.meta, self.init(), $kind, $raw(v), ord) {
                    self.real.store(v, StdOrdering::SeqCst);
                } else {
                    self.real.store(v, ord);
                }
            }

            pub fn swap(&self, v: $t, ord: Ordering) -> $t {
                match sched::op_rmw(&self.meta, self.init(), $kind, ord, "swap", |_| $raw(v)) {
                    Some((old, new)) => {
                        self.real.store($val(new), StdOrdering::SeqCst);
                        $val(old)
                    }
                    None => self.real.swap(v, ord),
                }
            }

            pub fn compare_exchange(
                &self,
                current: $t,
                new: $t,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$t, $t> {
                match sched::op_cas(
                    &self.meta,
                    self.init(),
                    $kind,
                    $raw(current),
                    $raw(new),
                    success,
                    failure,
                ) {
                    Some(Ok(old)) => {
                        self.real.store(new, StdOrdering::SeqCst);
                        Ok($val(old))
                    }
                    Some(Err(old)) => Err($val(old)),
                    None => self.real.compare_exchange(current, new, success, failure),
                }
            }

            pub fn compare_exchange_weak(
                &self,
                current: $t,
                new: $t,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$t, $t> {
                // The model has no spurious failures; weak == strong here.
                self.compare_exchange(current, new, success, failure)
            }

            int_atomic!(@arith $name, $t, $kind, $raw, $val);
        }
    };

    (@arith AtomicBool, $t:ty, $kind:literal, $raw:ident, $val:ident) => {
        pub fn fetch_and(&self, v: $t, ord: Ordering) -> $t {
            match sched::op_rmw(&self.meta, self.init(), $kind, ord, "fetch_and", |o| {
                $raw($val(o) & v)
            }) {
                Some((old, new)) => {
                    self.real.store($val(new), StdOrdering::SeqCst);
                    $val(old)
                }
                None => self.real.fetch_and(v, ord),
            }
        }

        pub fn fetch_or(&self, v: $t, ord: Ordering) -> $t {
            match sched::op_rmw(&self.meta, self.init(), $kind, ord, "fetch_or", |o| {
                $raw($val(o) | v)
            }) {
                Some((old, new)) => {
                    self.real.store($val(new), StdOrdering::SeqCst);
                    $val(old)
                }
                None => self.real.fetch_or(v, ord),
            }
        }
    };

    (@arith $name:ident, $t:ty, $kind:literal, $raw:ident, $val:ident) => {
        pub fn fetch_add(&self, v: $t, ord: Ordering) -> $t {
            match sched::op_rmw(&self.meta, self.init(), $kind, ord, "fetch_add", |o| {
                $raw($val(o).wrapping_add(v))
            }) {
                Some((old, new)) => {
                    self.real.store($val(new), StdOrdering::SeqCst);
                    $val(old)
                }
                None => self.real.fetch_add(v, ord),
            }
        }

        pub fn fetch_sub(&self, v: $t, ord: Ordering) -> $t {
            match sched::op_rmw(&self.meta, self.init(), $kind, ord, "fetch_sub", |o| {
                $raw($val(o).wrapping_sub(v))
            }) {
                Some((old, new)) => {
                    self.real.store($val(new), StdOrdering::SeqCst);
                    $val(old)
                }
                None => self.real.fetch_sub(v, ord),
            }
        }

        pub fn fetch_and(&self, v: $t, ord: Ordering) -> $t {
            match sched::op_rmw(&self.meta, self.init(), $kind, ord, "fetch_and", |o| {
                $raw($val(o) & v)
            }) {
                Some((old, new)) => {
                    self.real.store($val(new), StdOrdering::SeqCst);
                    $val(old)
                }
                None => self.real.fetch_and(v, ord),
            }
        }

        pub fn fetch_or(&self, v: $t, ord: Ordering) -> $t {
            match sched::op_rmw(&self.meta, self.init(), $kind, ord, "fetch_or", |o| {
                $raw($val(o) | v)
            }) {
                Some((old, new)) => {
                    self.real.store($val(new), StdOrdering::SeqCst);
                    $val(old)
                }
                None => self.real.fetch_or(v, ord),
            }
        }
    };
}

int_atomic!(AtomicU64, u64, real::AtomicU64, "u64", u64_raw, u64_val);
int_atomic!(
    AtomicUsize,
    usize,
    real::AtomicUsize,
    "usize",
    usize_raw,
    usize_val
);
int_atomic!(
    AtomicBool,
    bool,
    real::AtomicBool,
    "bool",
    bool_raw,
    bool_val
);
