//! Hierarchical timer wheel: the DES ready queue.
//!
//! Seven levels hash an event's absolute tick (picoseconds) by bit-field:
//! a 4096-slot level 0 resolves single ticks across the current 2^12-tick
//! window, and six 512-slot levels above it bucket geometrically coarser
//! spans (2^12, 2^21, 2^30, 2^39, 2^48, 2^57 ticks per slot; the top
//! level uses 7 of its 9 bits), so every `u64` tick — the whole
//! [`SimTime`](crate::time::SimTime) range, about 213 days — has a
//! bucket. An event lands in the level of the *highest bit-field in which
//! its tick differs from the wheel clock* — so nearby events sit directly
//! in level 0 and far ones coarsen gracefully. Buckets cascade toward
//! level 0 lazily, only when the wheel actually reaches them. The wide
//! level 0 exists to keep cascades short: a microsecond-scale timer
//! crosses one or two levels, not seven, and each level's lowest occupied
//! slot is found in O(1) through a per-level summary bitmap (one bit per
//! occupancy word).
//!
//! Sparse sims never touch that geometry at all: while the pending
//! population stays at or under [`NEAR_MAX`], entries live in one
//! sorted near list popped off the back — an M/G/1 queue holding two
//! events runs out of a single cache line, where the wheel's bucket
//! array would thrash. Outgrowing the list migrates everything into the
//! wheel, which hands back only once it fully drains (hysteresis, so
//! the modes cannot flap around the threshold).
//!
//! Ordering contract: [`Wheel::pop`] yields entries in exactly `(time,
//! seq)` order. Same-tick entries share a level-0 bucket and are drained
//! through a scratch batch sorted by `seq`, so FIFO ties cost one sort of
//! the burst instead of per-event heap comparisons; a tick holding a
//! single entry is popped straight out of its bucket.
//!
//! Cancellation contract: [`Wheel::remove`] unlinks any pending entry
//! without letting it cascade to level 0 first. Its bucket is
//! *computed*, not searched for: the placement invariant ("every stored
//! entry sits exactly where [`place`](Wheel::place) would put it against
//! the current clock") makes `(time, clock)` name the bucket directly. A
//! per-arena-slot location cache (`loc`), written only on insert so the
//! cascade hot path stays store-free, usually pins the exact position;
//! when the entry has cascaded since insert the cache misses and a scan
//! of the (lower-level, therefore smaller) computed bucket finds it.
//!
//! The wheel clock only moves when `pop` commits to a tick; the
//! [`Sim`](super::Sim) keeps its own clock equal to the wheel clock
//! whenever user code runs, which is what makes the bit-field hashing
//! invariant hold across re-entrant scheduling.

/// Wheel levels.
const LEVELS: usize = 7;
/// Bits resolved by level 0 (4096 single-tick slots).
const L0_BITS: u32 = 12;
/// Bits resolved by each level above 0 (512 slots each).
const LN_BITS: u32 = 9;
/// The tick shift where each level's bit-field starts.
const SHIFT: [u32; LEVELS] = [0, 12, 21, 30, 39, 48, 57];
/// Slot-index mask per level. A tick has only 7 bits above bit 57, so
/// the top level's slots past 127 stay empty.
const MASK: [u64; LEVELS] = [(1 << L0_BITS) - 1, 511, 511, 511, 511, 511, 511];
/// First bucket of each level in the flat bucket array.
const BASE: [usize; LEVELS] = [0, 4096, 4608, 5120, 5632, 6144, 6656];
const TOTAL_SLOTS: usize = 7168;
/// Occupancy words per level (level 0's 4096 slots need all 64).
const WORDS: usize = 64;

/// One pending event: absolute tick, FIFO tiebreak, arena slot.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Entry {
    pub time: u64,
    pub seq: u64,
    pub idx: u32,
}

/// Cached bucket position for an arena slot index: where `insert` placed
/// it. Best-effort — stale once the entry cascades or moves into the
/// batch — so consumers verify by matching `idx` (unique among live
/// entries) before trusting it.
#[derive(Clone, Copy, Default)]
struct Loc {
    level: u8,
    slot: u16,
    pos: u32,
}

/// Population at which the near list hands over to the wheel proper.
/// Sparse sims (an M/G/1 queue keeps ~2 events pending) never cross it
/// and run entirely out of one sorted line of entries.
const NEAR_MAX: usize = 16;

pub(crate) struct Wheel {
    /// The wheel clock: the tick of the most recently popped entry. All
    /// stored slot indices are relative to this.
    cur: u64,
    /// `TOTAL_SLOTS` buckets, level-major (see [`BASE`]).
    buckets: Vec<Vec<Entry>>,
    /// One occupancy bit per bucket.
    occupied: [[u64; WORDS]; LEVELS],
    /// One bit per *occupancy word* with any bit set, so the lowest
    /// occupied slot of a level is two trailing-zero counts away.
    summary: [u64; LEVELS],
    /// One bit per level with any occupied bucket.
    live: u8,
    /// Insert-time bucket position per arena slot index (see [`Loc`]).
    loc: Vec<Loc>,
    /// Current same-tick batch, sorted by `seq` *descending* (pop back).
    batch: Vec<Entry>,
    /// Reusable buffer for cascades, so steady state never allocates.
    scratch: Vec<Entry>,
    /// Small-population mode: while `small` is set every pending entry
    /// lives here, sorted `(time, seq)`-descending so the minimum pops
    /// off the back — one hot cache line instead of the wheel's slot
    /// geometry. Crossing [`NEAR_MAX`] migrates everything into the
    /// wheel; the wheel hands back only once it fully drains, so the
    /// modes never flap.
    near: Vec<Entry>,
    small: bool,
    len: usize,
}

impl Wheel {
    pub(crate) fn new() -> Wheel {
        Wheel {
            cur: 0,
            buckets: (0..TOTAL_SLOTS).map(|_| Vec::new()).collect(),
            occupied: [[0; WORDS]; LEVELS],
            summary: [0; LEVELS],
            live: 0,
            loc: Vec::new(),
            batch: Vec::new(),
            scratch: Vec::new(),
            near: Vec::new(),
            small: true,
            len: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The level/slot `place` resolves `time` to against the current
    /// clock.
    #[inline]
    fn slot_of(&self, time: u64) -> (usize, usize) {
        let d = time ^ self.cur;
        let level = if d >> L0_BITS == 0 {
            0
        } else {
            (1 + (63 - L0_BITS - d.leading_zeros()) / LN_BITS) as usize
        };
        let slot = ((time >> SHIFT[level]) & MASK[level]) as usize;
        (level, slot)
    }

    /// Insert an entry. `time` must be `>= self.cur`; the [`Sim`](super::Sim)
    /// guarantees this by clamping schedule times to its clock, which it
    /// keeps equal to the wheel clock. Records the placement in the `loc`
    /// cache so a cancellation before the first cascade is O(1).
    #[inline]
    pub(crate) fn insert(&mut self, time: u64, seq: u64, idx: u32) {
        debug_assert!(time >= self.cur, "insert below the wheel clock");
        self.len += 1;
        if self.small {
            if self.len <= NEAR_MAX {
                // Sorted insert, `(time, seq)` descending.
                let pos = self.near.partition_point(|e| (e.time, e.seq) > (time, seq));
                self.near.insert(pos, Entry { time, seq, idx });
                return;
            }
            // Population outgrew the near list: migrate into the wheel
            // and stay there until it fully drains.
            self.small = false;
            while let Some(e) = self.near.pop() {
                self.insert_wheel(e.time, e.seq, e.idx);
            }
        }
        self.insert_wheel(time, seq, idx);
    }

    /// The wheel-proper half of [`Wheel::insert`].
    fn insert_wheel(&mut self, time: u64, seq: u64, idx: u32) {
        let (level, slot) = self.slot_of(time);
        let pos = self.push_bucket(level, slot, Entry { time, seq, idx });
        let i = idx as usize;
        if i >= self.loc.len() {
            self.loc.resize(i + 1, Loc::default());
        }
        self.loc[i] = Loc {
            level: level as u8,
            slot: slot as u16,
            pos,
        };
    }

    /// Hash an entry into its level/slot without touching `len` or the
    /// `loc` cache — the store-free re-placement path for cascades.
    #[inline]
    fn place(&mut self, e: Entry) {
        let (level, slot) = self.slot_of(e.time);
        self.push_bucket(level, slot, e);
    }

    /// Append to a bucket, maintaining the occupancy bitmaps; returns the
    /// entry's position in the bucket.
    #[inline]
    fn push_bucket(&mut self, level: usize, slot: usize, e: Entry) -> u32 {
        let bucket = &mut self.buckets[BASE[level] + slot];
        let pos = bucket.len() as u32;
        bucket.push(e);
        self.occupied[level][slot / 64] |= 1u64 << (slot % 64);
        self.summary[level] |= 1u64 << (slot / 64);
        self.live |= 1 << level;
        pos
    }

    /// Clear the occupancy bit of a just-emptied bucket.
    #[inline]
    fn clear_bucket(&mut self, level: usize, slot: usize) {
        let word = &mut self.occupied[level][slot / 64];
        *word &= !(1u64 << (slot % 64));
        if *word == 0 {
            self.summary[level] &= !(1u64 << (slot / 64));
            if self.summary[level] == 0 {
                self.live &= !(1 << level);
            }
        }
    }

    /// Lowest occupied slot of the lowest live level; `None` when the
    /// wheel proper is empty. Two trailing-zero counts, no scanning.
    #[inline]
    fn lowest_live(&self) -> Option<(usize, usize)> {
        if self.live == 0 {
            return None;
        }
        let level = self.live.trailing_zeros() as usize;
        let word = self.summary[level].trailing_zeros() as usize;
        let slot = word * 64 + self.occupied[level][word].trailing_zeros() as usize;
        Some((level, slot))
    }

    fn take_bucket(&mut self, level: usize, slot: usize) -> Vec<Entry> {
        self.clear_bucket(level, slot);
        std::mem::replace(
            &mut self.buckets[BASE[level] + slot],
            std::mem::take(&mut self.scratch),
        )
    }

    /// Unlink the pending entry for arena slot `idx` (scheduled at
    /// `time`) from the near list, its bucket or the staged batch.
    pub(crate) fn remove(&mut self, time: u64, idx: u32) {
        if self.small {
            let pos = self
                .near
                .iter()
                .position(|e| e.idx == idx)
                .expect("cancelled entry missing from the near list"); // xxi-allow: panic-path -- the Sim proved the entry pending via its arena generation
            self.near.remove(pos);
            self.len -= 1;
            return;
        }
        // Fast path: the insert-time location cache. A live `idx` is
        // unique across the wheel, so matching it proves the hit even
        // though the cache goes stale on cascade.
        if let Some(&Loc { level, slot, pos }) = self.loc.get(idx as usize) {
            let (level, slot, pos) = (level as usize, slot as usize, pos as usize);
            if self.buckets[BASE[level] + slot]
                .get(pos)
                .is_some_and(|e| e.idx == idx)
            {
                self.unlink(level, slot, pos);
                return;
            }
        }
        // Cache miss: the entry cascaded since insert. Its bucket is still
        // *computed* — every stored entry sits where `place` would put it
        // against the current clock — and buckets shrink as entries
        // cascade down, so this scan is short.
        let (level, slot) = self.slot_of(time);
        if let Some(pos) = self.buckets[BASE[level] + slot]
            .iter()
            .position(|e| e.idx == idx)
        {
            self.unlink(level, slot, pos);
            return;
        }
        // Not in a bucket: the entry is staged in the current same-tick
        // batch. Preserve the batch's seq-descending order.
        let pos = self
            .batch
            .iter()
            .position(|e| e.idx == idx)
            .expect("cancelled entry in neither bucket nor batch"); // xxi-allow: panic-path -- the Sim proved the entry pending via its arena generation
        self.batch.remove(pos);
        self.len -= 1;
    }

    /// Swap-remove position `pos` of bucket `(level, slot)`, repairing
    /// the displaced entry's `loc` cache and the occupancy bits.
    fn unlink(&mut self, level: usize, slot: usize, pos: usize) {
        let bucket = &mut self.buckets[BASE[level] + slot];
        bucket.swap_remove(pos);
        if let Some(moved) = bucket.get(pos).copied() {
            self.loc[moved.idx as usize] = Loc {
                level: level as u8,
                slot: slot as u16,
                pos: pos as u32,
            };
        } else if bucket.is_empty() {
            self.clear_bucket(level, slot);
        }
        self.len -= 1;
    }

    /// Remove and return the earliest entry in `(time, seq)` order,
    /// advancing the wheel clock to its tick.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<Entry> {
        if self.small {
            let e = self.near.pop()?;
            debug_assert!(e.time >= self.cur);
            self.cur = e.time;
            self.len -= 1;
            return Some(e);
        }
        loop {
            if let Some(e) = self.batch.pop() {
                self.len -= 1;
                return Some(e);
            }
            let Some((level, slot)) = self.lowest_live() else {
                // Fully drained — hand back to the near list so the next
                // (possibly sparse) phase runs out of one cache line.
                debug_assert_eq!(self.len, 0);
                self.small = true;
                return None;
            };
            if level == 0 {
                let tick = (self.cur & !MASK[0]) | slot as u64;
                debug_assert!(tick >= self.cur);
                self.cur = tick;
                let bucket = &mut self.buckets[slot];
                if bucket.len() == 1 {
                    // Singleton tick — the sparse-schedule hot path: pop
                    // straight out of the bucket, skipping the batch swap.
                    let e = bucket.pop().expect("occupancy bit set on an empty bucket"); // xxi-allow: panic-path -- clear_bucket drops the bit with the last entry
                    self.clear_bucket(0, slot);
                    self.len -= 1;
                    return Some(e);
                }
                // Refill the batch — covers both fresh ticks and same-tick
                // events scheduled while the previous batch fired. Cascades
                // interleave seqs, so restore FIFO here: descending sort,
                // pop from the back.
                let mut b = self.take_bucket(0, slot);
                b.sort_unstable_by_key(|e| std::cmp::Reverse(e.seq));
                self.scratch = std::mem::replace(&mut self.batch, b);
                continue;
            }
            // Cascade the lowest occupied bucket of the lowest live level
            // down one step. Advance the clock to the bucket's base tick
            // (fields above `level` kept, field `level` = slot, lower fields
            // zeroed); levels below are empty, so no stored slot index goes
            // stale. The top level has no field above it: `shift + LN_BITS`
            // is 66 there, and the kept mask is empty.
            let shift = SHIFT[level];
            let high = u64::MAX.checked_shl(shift + LN_BITS).unwrap_or(0);
            self.cur = (self.cur & high) | ((slot as u64) << shift);
            let bucket = &mut self.buckets[BASE[level] + slot];
            if bucket.len() == 1 {
                // Singleton bucket at the lowest live level: its entry is
                // the global minimum — lower levels are empty, later slots
                // of this level and all higher levels differ from the clock
                // in a strictly larger bit-field (so fire later), and a
                // same-tick twin would share this very bucket. Commit the
                // clock to its tick and fire it directly instead of walking
                // it down one cascade step per level — the sparse-schedule
                // case (an M/G/1 queue keeps ~2 events pending) where
                // per-level hops would dominate.
                let e = bucket.pop().expect("occupancy bit set on an empty bucket"); // xxi-allow: panic-path -- clear_bucket drops the bit with the last entry
                self.clear_bucket(level, slot);
                debug_assert!(e.time >= self.cur);
                self.cur = e.time;
                self.len -= 1;
                return Some(e);
            }
            let mut b = self.take_bucket(level, slot);
            for e in b.drain(..) {
                debug_assert!(e.time >= self.cur);
                self.place(e);
            }
            self.scratch = b;
        }
    }
}
