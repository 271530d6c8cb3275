//! The event arena: recycled slots and inline closure storage for the DES.
//!
//! Every scheduled event owns a slot in this arena until it fires or is
//! cancelled. Slots are recycled through a free list, so
//! steady-state scheduling allocates nothing once the simulation reaches
//! its high-water mark. Closures up to [`INLINE_BYTES`] are stored
//! *inline* in the slot (the common case — DES events capture a few
//! indices); larger ones fall back to the cold `Box<dyn FnOnce>` path.
//!
//! The inline path is also *move-free*: [`Arena::insert`] writes the
//! closure directly into the slot's buffer, and firing hands the
//! [`Sim`](super::Sim) a raw thunk + buffer pointer ([`Fired::Inline`])
//! instead of moving the payload out — the thunk reads the closure's
//! actual captures (often zero bytes) off the buffer and calls it. An
//! event's cost is therefore its captures, never the full buffer.
//!
//! Generation counters make [`TimerHandle`](super::TimerHandle)s safe
//! across slot reuse: a handle resolves only while its slot still holds
//! the exact event it was issued for.

use std::mem::{self, MaybeUninit};
use std::ptr;

use super::{EventFn, Sim};

/// Closures up to this many bytes are stored inline in the arena slot
/// (no allocation). Chosen to cover the workspace's DES events — a
/// function pointer plus a handful of `usize`/`u32` captures — with room
/// to spare.
pub(crate) const INLINE_BYTES: usize = 64;

/// Inline closure storage, aligned for any capture the workspace uses.
#[repr(align(16))]
struct InlineBuf([MaybeUninit<u8>; INLINE_BYTES]);

/// What a slot currently holds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum State {
    /// Recycled or never used; on the free list.
    Free,
    /// A live closure written into the slot's inline buffer.
    Inline,
    /// A live oversized closure behind `boxed`.
    Boxed,
}

/// The outcome of draining a slot as its wheel entry pops.
pub(crate) enum Fired<S> {
    /// A live inline event: the call thunk and the slot's buffer
    /// pointer. The caller must invoke the thunk **before any other
    /// arena access** — the thunk immediately reads the closure out of
    /// the buffer (consuming it) and then runs it, after which the slot
    /// (already freed) may be safely reused by re-entrant scheduling.
    /// The `Sim` travels as a raw pointer so the closure read provably
    /// precedes any fresh `&mut Sim` over the arena.
    // SAFETY: callers uphold the `call_raw` contract — invoke at most
    // once, before any other arena access, with a valid exclusive `sim`.
    Inline(unsafe fn(*mut u8, *mut Sim<S>), *mut u8),
    /// A live oversized event.
    Boxed(EventFn<S>),
}

// SAFETY: `p` must point to a live `F` (written by `Arena::insert`),
// this must run at most once (it moves the closure out), and `sim` must
// be valid and exclusively reachable for the duration of the call.
unsafe fn call_raw<S, F: FnOnce(&mut Sim<S>)>(p: *mut u8, sim: *mut Sim<S>) {
    // SAFETY: the contract above; the read moves the closure onto this
    // stack frame *before* the `Sim` (which owns the slot buffer `p`
    // points into) is reborrowed, so user code may freely recycle the
    // already-freed slot.
    let f = unsafe { ptr::read(p.cast::<F>()) };
    // SAFETY: `sim` is valid and exclusively reachable per the contract.
    f(unsafe { &mut *sim });
}

// SAFETY: `p` must point to a live `F` that `call_raw` has not already
// consumed.
unsafe fn drop_raw<F>(p: *mut u8) {
    // SAFETY: the contract above.
    unsafe { ptr::drop_in_place(p.cast::<F>()) }
}

// SAFETY: placeholder thunk for freshly grown slots; never invoked (the
// slot is `State::Free` until `insert` overwrites both fields).
unsafe fn never_call<S>(_: *mut u8, _: *mut Sim<S>) {
    unreachable!("thunk of a Free arena slot invoked");
}

// SAFETY: placeholder like `never_call`.
unsafe fn never_drop(_: *mut u8) {
    unreachable!("drop thunk of a Free arena slot invoked");
}

struct Slot<S> {
    /// Bumped every time the slot is freed; handles carry the generation
    /// they were issued under and resolve only while it matches.
    gen: u32,
    state: State,
    /// The absolute tick the event is scheduled for — what lets
    /// [`Sim::cancel`](super::Sim::cancel) find the wheel entry to unlink.
    time: u64,
    /// Reads the closure out of `buf` (consuming it) and calls it.
    /// Valid while `state == Inline`.
    // SAFETY: always `call_raw::<S, F>` for the `F` currently in `buf`
    // (or the `never_call` placeholder while `Free`); see `call_raw`.
    call: unsafe fn(*mut u8, *mut Sim<S>),
    /// Drops the closure in `buf` without calling it. Valid while
    /// `state == Inline`.
    // SAFETY: always `drop_raw::<F>` for the `F` currently in `buf`
    // (or the `never_drop` placeholder while `Free`); see `drop_raw`.
    drop_fn: unsafe fn(*mut u8),
    /// The oversized-closure path. `Some` iff `state == Boxed`.
    boxed: Option<EventFn<S>>,
    buf: InlineBuf,
}

impl<S> Slot<S> {
    /// Drop whatever live closure the slot holds and mark it `Free`
    /// (without touching `gen` or the free list — callers own that).
    fn clear(&mut self) {
        match mem::replace(&mut self.state, State::Free) {
            // SAFETY: `state` was `Inline`, so `buf` holds the live
            // closure `insert` wrote and `call` has not consumed.
            State::Inline => unsafe { (self.drop_fn)(self.buf.0.as_mut_ptr().cast::<u8>()) },
            State::Boxed => self.boxed = None,
            State::Free => {}
        }
    }
}

impl<S> Drop for Slot<S> {
    fn drop(&mut self) {
        self.clear();
    }
}

/// Counters the arena exports through the `== Runtime ==` telemetry
/// (see [`Sim::stats`](super::Sim::stats)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Peak number of simultaneously occupied slots.
    pub high_water: u64,
    /// Events that reused a recycled slot (vs growing the arena).
    pub recycled: u64,
    /// Events whose closure was stored inline (allocation-free).
    pub inline_events: u64,
    /// Events that took the cold boxed path (closure over [`INLINE_BYTES`]).
    pub boxed_events: u64,
}

/// Slot storage for scheduled events. See the module docs.
pub(crate) struct Arena<S> {
    slots: Vec<Slot<S>>,
    free: Vec<u32>,
    stats: ArenaStats,
}

impl<S> Arena<S> {
    pub(crate) fn new() -> Arena<S> {
        Arena {
            slots: Vec::new(),
            free: Vec::new(),
            stats: ArenaStats::default(),
        }
    }

    /// Store `f`, scheduled for tick `time`, returning the slot index and
    /// its current generation. The closure is written straight into the
    /// slot — no staging copy.
    #[inline]
    pub(crate) fn insert(
        &mut self,
        time: u64,
        f: impl FnOnce(&mut Sim<S>) + 'static,
    ) -> (u32, u32) {
        let idx = match self.free.pop() {
            Some(idx) => {
                self.stats.recycled += 1;
                idx
            }
            None => {
                let idx = u32::try_from(self.slots.len()).expect("arena outgrew u32 indices"); // xxi-allow: panic-path -- see the expect message
                self.slots.push(Slot {
                    gen: 0,
                    state: State::Free,
                    time: 0,
                    call: never_call::<S>,
                    drop_fn: never_drop,
                    boxed: None,
                    buf: InlineBuf([MaybeUninit::uninit(); INLINE_BYTES]),
                });
                idx
            }
        };
        let gen = self.write(idx, time, f);
        let occupied = (self.slots.len() - self.free.len()) as u64;
        self.stats.high_water = self.stats.high_water.max(occupied);
        (idx, gen)
    }

    /// The monomorphized slot-fill half of [`Arena::insert`]; the
    /// size/alignment branch is resolved at compile time per closure
    /// type. Returns the slot's generation.
    fn write<F: FnOnce(&mut Sim<S>) + 'static>(&mut self, idx: u32, time: u64, f: F) -> u32 {
        let slot = &mut self.slots[idx as usize];
        debug_assert_eq!(slot.state, State::Free, "insert into an occupied slot");
        slot.time = time;
        if mem::size_of::<F>() <= INLINE_BYTES
            && mem::align_of::<F>() <= mem::align_of::<InlineBuf>()
        {
            // SAFETY: size and alignment were just checked against the
            // buffer, and a `Free` slot's buffer holds no live closure.
            unsafe { ptr::write(slot.buf.0.as_mut_ptr().cast::<F>(), f) };
            slot.call = call_raw::<S, F>;
            slot.drop_fn = drop_raw::<F>;
            slot.state = State::Inline;
            self.stats.inline_events += 1;
        } else {
            slot.boxed = Some(Box::new(f));
            slot.state = State::Boxed;
            self.stats.boxed_events += 1;
        }
        slot.gen
    }

    /// Drain slot `idx` as its wheel entry pops, freeing it. For a live
    /// inline event the closure is **not** moved: the returned
    /// [`Fired::Inline`] points into the slot buffer, and its thunk
    /// contract (read the closure out, then call it) is what makes the
    /// already-freed slot safe to recycle re-entrantly.
    #[inline]
    pub(crate) fn take(&mut self, idx: u32) -> Fired<S> {
        let slot = &mut self.slots[idx as usize];
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(idx);
        match mem::replace(&mut slot.state, State::Free) {
            State::Inline => Fired::Inline(slot.call, slot.buf.0.as_mut_ptr().cast::<u8>()),
            State::Boxed => Fired::Boxed(slot.boxed.take().expect("Boxed slot without a closure")), // xxi-allow: panic-path -- `write` set `boxed` with the state
            State::Free => unreachable!("wheel popped an entry for a free arena slot"),
        }
    }

    /// Free slot `idx` *without* running its closure — the cancellation
    /// path (the wheel entry was just unlinked).
    pub(crate) fn discard(&mut self, idx: u32) {
        let slot = &mut self.slots[idx as usize];
        slot.clear();
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(idx);
    }

    /// The scheduled tick of the event in slot `idx`, if `gen` still
    /// matches a live (neither fired nor cancelled) event — the
    /// cancellation path's handle-validity check.
    pub(crate) fn sched_time(&self, idx: u32, gen: u32) -> Option<u64> {
        match self.slots.get(idx as usize) {
            Some(slot) if slot.gen == gen && slot.state != State::Free => Some(slot.time),
            _ => None,
        }
    }

    pub(crate) fn stats(&self) -> ArenaStats {
        self.stats
    }
}
