//! A hierarchical timer wheel absorbing the MRAI/reuse timer flood.
//!
//! The wheel pops entries in strict `(time, key)` order, where the key
//! is supplied by the caller (see [`event_key`](crate::event_key)),
//! while keeping the schedule/pop flood cheap: scheduling hashes the
//! deadline into one of four levels of 64 slots (slot widths growing by
//! 64× per level, ~16 ms at level 0 to ~76 h of total span), and
//! popping drains one slot at a time into a small "front" heap that
//! provides the exact global ordering.
//!
//! * **Front heap** — all entries with `at < cursor` live in a
//!   `BinaryHeap` ordered by `(at, key)`. Because every wheel/overflow
//!   entry is `≥ cursor`, the front minimum is the global minimum, so
//!   pop order is identical to the reference
//!   [`HeapScheduler`](crate::HeapScheduler)'s. The heap only ever
//!   holds one drained slot's worth of entries (plus stragglers
//!   scheduled into the past), so its `log n` is tiny.
//! * **Slab** — payloads stay put in a slab; the slots, the front heap
//!   and the overflow map move only `u32` indices around.
//! * **Overflow** — deadlines beyond the top level's rotation go to an
//!   ordered map and are re-hashed into the wheel when the cursor
//!   reaches them (never at simulation scale: the span is ~76 hours).
//!
//! Nothing is ever cancelled: the simulator's timers are lazy (a stale
//! reuse or MRAI timer fires and is ignored by the router), so every
//! scheduled entry is eventually popped.

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// log2 of the level-0 slot width in µs (2^14 µs ≈ 16.4 ms).
const SHIFT0: u32 = 14;
/// log2 of the slots per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Number of levels. Total span 2^(14 + 6·4) µs ≈ 76 h.
const LEVELS: usize = 4;

const fn shift(level: usize) -> u32 {
    SHIFT0 + SLOT_BITS * level as u32
}

/// Width of one slot at `level`, in µs.
const fn slot_size(level: usize) -> u64 {
    1 << shift(level)
}

/// Width of one full rotation at `level`, in µs.
const fn span(level: usize) -> u64 {
    slot_size(level) << SLOT_BITS
}

#[derive(Debug)]
struct SlabEntry<E> {
    at: u64,
    key: u64,
    event: Option<E>,
}

/// The event queue behind [`ShardEngine`](crate::ShardEngine); public
/// so the property tests can pin it against the reference heap
/// directly.
#[derive(Debug)]
pub struct TimerWheel<E> {
    slab: Vec<SlabEntry<E>>,
    free: Vec<u32>,
    /// `slots[level][slot]` holds slab indices.
    slots: Vec<Vec<Vec<u32>>>,
    /// Per-level bitmap of non-empty slots.
    occupancy: [u64; LEVELS],
    /// Deadlines beyond the top rotation, ordered by `(at, key)`.
    overflow: BTreeMap<(u64, u64), u32>,
    /// Entries with `at < cur`, ordered by `(at, key)` ascending.
    front: BinaryHeap<Reverse<(u64, u64, u32)>>,
    /// Cursor in µs: the wheel never holds an entry earlier than this.
    cur: u64,
    live: usize,
}

impl<E> Default for TimerWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> TimerWheel<E> {
    /// Creates an empty wheel.
    pub fn new() -> Self {
        TimerWheel {
            slab: Vec::new(),
            free: Vec::new(),
            slots: (0..LEVELS)
                .map(|_| (0..SLOTS).map(|_| Vec::new()).collect())
                .collect(),
            occupancy: [0; LEVELS],
            overflow: BTreeMap::new(),
            front: BinaryHeap::new(),
            cur: 0,
            live: 0,
        }
    }

    /// Schedules `event` at `at` under a caller-supplied ordering key.
    ///
    /// Pop order is exactly `(at, key)` — the contract the sharded
    /// engine builds its canonical cross-shard order on. Callers must
    /// guarantee `(at, key)` pairs are unique (the overflow map would
    /// silently coalesce duplicates); the sharded engine's keys are
    /// globally unique by construction.
    pub fn schedule_keyed(&mut self, at: SimTime, key: u64, event: E) {
        let at_us = at.as_micros();
        let idx = self.alloc(at_us, key, event);
        if at_us < self.cur {
            // Behind the cursor (e.g. scheduling at "now" mid-slot):
            // straight to the front heap, preserving global order.
            self.front.push(Reverse((at_us, key, idx)));
        } else {
            self.place(idx, at_us, key);
        }
    }

    fn alloc(&mut self, at: u64, key: u64, event: E) -> u32 {
        self.live += 1;
        let entry = SlabEntry {
            at,
            key,
            event: Some(event),
        };
        if let Some(idx) = self.free.pop() {
            self.slab[idx as usize] = entry;
            return idx;
        }
        let idx = u32::try_from(self.slab.len()).expect("timer wheel slab exhausted");
        self.slab.push(entry);
        idx
    }

    /// Hashes an entry with `at >= self.cur` into its level/slot (or
    /// overflow).
    fn place(&mut self, idx: u32, at: u64, key: u64) {
        debug_assert!(at >= self.cur);
        for level in 0..LEVELS {
            // End of the cursor's current rotation at this level;
            // entries confined to it can never alias a wrapped slot.
            let rot_end = (self.cur | (span(level) - 1)) + 1;
            if at < rot_end {
                let slot = ((at >> shift(level)) & (SLOTS as u64 - 1)) as usize;
                self.slots[level][slot].push(idx);
                self.occupancy[level] |= 1 << slot;
                return;
            }
        }
        self.overflow.insert((at, key), idx);
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Ensures the front heap holds the global minimum, advancing the
    /// wheel as needed. Returns that entry's `(at, key, idx)`.
    fn settle(&mut self) -> Option<(u64, u64, u32)> {
        loop {
            if let Some(&Reverse(entry)) = self.front.peek() {
                return Some(entry);
            }
            if !self.advance() {
                return None;
            }
        }
    }

    /// Removes and returns the earliest event together with its
    /// ordering key.
    pub fn pop_keyed(&mut self) -> Option<(SimTime, u64, E)> {
        let (at, key, idx) = self.settle()?;
        self.front.pop();
        let event = self.slab[idx as usize].event.take().expect("live entry");
        self.free.push(idx);
        self.live -= 1;
        Some((SimTime::from_micros(at), key, event))
    }

    /// The timestamp of the earliest event.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.settle().map(|(at, _, _)| SimTime::from_micros(at))
    }

    /// Moves the wheel forward until the front heap has entries (one
    /// drained level-0 slot at a time) or everything is empty.
    ///
    /// The next slot to process is chosen across *all* levels by
    /// minimal absolute slot start — not "level 0 first". A higher
    /// level's slot can cover the cursor's own level-0 rotation (an
    /// entry parked there before the cursor crossed the rotation
    /// boundary), and its window then starts at or before the cursor,
    /// i.e. earlier than any level-0 candidate. Draining level 0 first
    /// would deliver newer entries ahead of it.
    fn advance(&mut self) -> bool {
        loop {
            if self.live == 0 {
                return false;
            }
            // (slot_start, level, slot) of the earliest occupied slot,
            // scanning each level from the cursor's slot (inclusive)
            // onward. Slots behind the cursor's rotation position are
            // provably empty: placement confines entries to the
            // cursor's rotation, and the cursor never passes an
            // occupied slot without processing it.
            let mut best: Option<(u64, usize, usize)> = None;
            for level in 0..LEVELS {
                let idx_l = ((self.cur >> shift(level)) & (SLOTS as u64 - 1)) as u32;
                let masked = self.occupancy[level] & (!0u64 << idx_l);
                if masked == 0 {
                    continue;
                }
                let slot = masked.trailing_zeros() as usize;
                let rot_base = self.cur & !(span(level) - 1);
                let slot_start = rot_base + slot as u64 * slot_size(level);
                // `<=`: on equal starts the higher (coarser) level
                // wins — its window contains the finer slot's, so it
                // must cascade before the finer slot drains.
                if best.is_none_or(|(start, _, _)| slot_start <= start) {
                    best = Some((slot_start, level, slot));
                }
            }
            // A slot whose window covers the cursor (start ≤ cur) may
            // hold entries earlier than anything else in the wheel —
            // including entries in *other* cursor-covering slots at
            // different levels — so every such slot must be cascaded
            // before any stray it spills into the front heap is allowed
            // to surface.
            if let Some((slot_start, level, slot)) = best {
                if level > 0 && slot_start <= self.cur {
                    self.cascade(slot_start, level, slot);
                    continue;
                }
            }
            if !self.front.is_empty() {
                // Strays from cursor-covering cascades; nothing in the
                // wheel precedes the cursor now, so they are the
                // global minimum.
                return true;
            }
            match best {
                Some((slot_start, 0, slot)) => {
                    // Drain the level-0 slot (occupied, so non-empty)
                    // into the front heap.
                    self.occupancy[0] &= !(1 << slot);
                    let mut drained = std::mem::take(&mut self.slots[0][slot]);
                    for idx in drained.drain(..) {
                        let entry = &self.slab[idx as usize];
                        self.front.push(Reverse((entry.at, entry.key, idx)));
                    }
                    self.slots[0][slot] = drained;
                    self.cur = slot_start + slot_size(0);
                    return true;
                }
                Some((slot_start, level, slot)) => {
                    // A future slot at a higher level: jump the cursor
                    // to its window and redistribute it downward.
                    self.cur = slot_start;
                    self.cascade(slot_start, level, slot);
                }
                None => {
                    // Wheel empty: pull the overflow horizon in. Every
                    // overflow key is beyond the cursor's top-level
                    // rotation, so no wheel entry can precede it.
                    let (&(at, _), _) = self
                        .overflow
                        .iter()
                        .next()
                        .expect("pending entries outside wheel and overflow");
                    self.cur = at;
                    let horizon = (self.cur | (span(LEVELS - 1) - 1)) + 1;
                    while let Some(entry) = self.overflow.first_entry() {
                        let &(at, key) = entry.key();
                        if at >= horizon {
                            break;
                        }
                        let idx = entry.remove();
                        self.place(idx, at, key);
                    }
                }
            }
        }
    }

    /// Redistributes one higher-level slot into lower levels. Entries
    /// already earlier than the cursor (possible only when the slot's
    /// window covers the cursor) go straight to the front heap.
    fn cascade(&mut self, slot_start: u64, level: usize, slot: usize) {
        debug_assert!(level > 0 && self.cur >= slot_start);
        self.occupancy[level] &= !(1 << slot);
        let mut moved = std::mem::take(&mut self.slots[level][slot]);
        for idx in moved.drain(..) {
            let entry = &self.slab[idx as usize];
            let (at, key) = (entry.at, entry.key);
            if at < self.cur {
                self.front.push(Reverse((at, key, idx)));
            } else {
                self.place(idx, at, key);
            }
        }
        self.slots[level][slot] = moved;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t_us(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn drain<E>(w: &mut TimerWheel<E>) -> Vec<(u64, u64, E)> {
        std::iter::from_fn(|| w.pop_keyed())
            .map(|(at, key, e)| (at.as_micros(), key, e))
            .collect()
    }

    #[test]
    fn pops_across_level_boundaries_in_order() {
        let mut w = TimerWheel::new();
        // One entry per level, plus overflow.
        let times = [
            1u64,                 // level 0
            slot_size(1) * 3 + 7, // level 1
            slot_size(2) * 5 + 9, // level 2
            slot_size(3) * 2 + 3, // level 3
            span(LEVELS - 1) + 1, // overflow
        ];
        for (i, &at) in times.iter().enumerate() {
            w.schedule_keyed(t_us(at), 0, i);
        }
        let expect: Vec<(u64, u64, usize)> =
            times.iter().enumerate().map(|(i, &a)| (a, 0, i)).collect();
        assert_eq!(drain(&mut w), expect);
        assert!(w.is_empty());
    }

    #[test]
    fn entries_pop_in_time_then_key_order() {
        let mut w = TimerWheel::new();
        // Same instant, keys deliberately scheduled out of order; plus
        // entries across level boundaries and in the overflow region.
        let entries = [
            (t_us(500), 9u64, "t500/k9"),
            (t_us(500), 2, "t500/k2"),
            (t_us(500), 5, "t500/k5"),
            (t_us(slot_size(2) + 3), 1, "far"),
            (t_us(span(LEVELS - 1) + 8), 0, "overflow"),
            (t_us(3), 77, "first"),
        ];
        for &(at, key, tag) in &entries {
            w.schedule_keyed(at, key, tag);
        }
        let mut expect: Vec<(u64, u64, &str)> = entries
            .iter()
            .map(|&(at, key, tag)| (at.as_micros(), key, tag))
            .collect();
        expect.sort_unstable_by_key(|&(at, key, _)| (at, key));
        assert_eq!(drain(&mut w), expect);
    }

    #[test]
    fn schedule_behind_cursor_keeps_time_and_key_order() {
        let mut w = TimerWheel::new();
        w.schedule_keyed(t_us(100), 1, "a");
        assert_eq!(w.pop_keyed().unwrap().2, "a");
        // The cursor has advanced past 100; stragglers at an earlier
        // instant must still pop first, smaller key first.
        w.schedule_keyed(t_us(10_000_000), 0, "future");
        w.schedule_keyed(t_us(50), 4, "late");
        w.schedule_keyed(t_us(50), 3, "early");
        assert_eq!(w.len(), 3);
        assert_eq!(w.peek_time(), Some(t_us(50)));
        assert_eq!(
            drain(&mut w),
            vec![(50, 3, "early"), (50, 4, "late"), (10_000_000, 0, "future")]
        );
    }

    #[test]
    fn dense_same_slot_entries_pop_in_key_order() {
        let mut w = TimerWheel::new();
        let t = t_us(slot_size(0) * 3 + 100);
        for k in (0..50u64).rev() {
            w.schedule_keyed(t, k, k);
        }
        let order: Vec<u64> = drain(&mut w).into_iter().map(|(_, _, e)| e).collect();
        assert_eq!(order, (0..50).collect::<Vec<_>>());
    }
}
