//! The world's event queue: pops in `(at, push order)`, the total order
//! every fixed-seed replay depends on.
//!
//! Events due within [`SLOTS`] slots of the last pop — nearly all of
//! them: link and control latencies are microseconds — sit in a timing
//! wheel: one chain of slab cells per [`SLOT_SHIFT`]-wide slot, sorted
//! by `(at, seq)`, found through a two-level occupancy bitmap. A push
//! appends at the chain's tail (a same-instant burst and monotone
//! arrivals never look further) and a pop takes the head of the first
//! occupied slot, so neither has a heap's log n chain of compares.
//! Events beyond the horizon (long timers) go to a small binary heap
//! and stay there: each pop compares the two heads, nothing migrates.
//!
//! The worst case is an insert that lands before its slot's tail: it
//! walks the chain, O(chain) against a heap's O(log n).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::Instant;

/// A slot is `1 << SLOT_SHIFT` = 64 ns of simulated time wide.
const SLOT_SHIFT: u32 = 6;
/// Slots in the wheel, one summary word's worth of bitmap words: the
/// wheel reaches ≈262 µs past the last pop. Constants, not options:
/// the delays nodes ask for leave a gap between 100 µs (link, control
/// and pacing delays) and 1 ms (timers), so any reach in it sends the
/// same events to the heap, and a slot narrower than the spacing of
/// the instants in a burst keeps inserts at chain tails (DESIGN.md,
/// "The event queue", has the counts).
const SLOTS: usize = 64 * 64;
/// "No cell": ends a chain and the free list.
const NIL: u32 = u32::MAX;
/// Sorts after every queued key: what an empty tier's head reads as.
const EMPTY: (Instant, u64) = (Instant::from_nanos(u64::MAX), u64::MAX);

struct Cell<T> {
    at: Instant,
    seq: u64,
    /// The next cell of this slot's chain, or of the free list.
    next: u32,
    item: Option<T>,
}

#[derive(Clone, Copy)]
struct Slot {
    head: u32,
    /// Meaningful only while `head` is a cell.
    tail: u32,
}

pub(crate) struct EventQueue<T> {
    /// Every queued item, near or far, and the free cells between them.
    cells: Vec<Cell<T>>,
    free: u32,
    seq: u64,
    /// The slot number (`at >> SLOT_SHIFT`) of the latest event popped.
    /// Every chained event's is in `[cursor, cursor + SLOTS)`, so slot
    /// indices (`number % SLOTS`) read circularly from the cursor's are
    /// in time order. Moves only when an event is popped — a refused
    /// pop leaves it behind the world's clock, not at the head it
    /// refused, so what is pushed next and due before that head still
    /// chains — and never back.
    cursor: u64,
    slots: Vec<Slot>,
    /// Bit `s % 64` of word `s / 64`: slot `s` has a chain.
    occupied: [u64; SLOTS / 64],
    /// Bit `w`: `occupied[w]` is not zero.
    summary: u64,
    /// `(at, seq, cell)` of each event pushed beyond the horizon.
    far: BinaryHeap<Reverse<(Instant, u64, u32)>>,
}

impl<T> EventQueue<T> {
    pub(crate) fn new() -> EventQueue<T> {
        EventQueue {
            cells: Vec::new(),
            free: NIL,
            seq: 0,
            cursor: 0,
            slots: vec![
                Slot {
                    head: NIL,
                    tail: NIL
                };
                SLOTS
            ],
            occupied: [0; SLOTS / 64],
            summary: 0,
            far: BinaryHeap::new(),
        }
    }

    /// Queue `item` for `at`, behind everything already queued for that
    /// instant. `at` is not before the last event popped (one that is
    /// still pops in order, by way of the heap).
    pub(crate) fn push(&mut self, at: Instant, item: T) {
        let seq = self.seq;
        self.seq += 1;
        let cell = Cell {
            at,
            seq,
            next: NIL,
            item: Some(item),
        };
        let id = match self.free {
            NIL => {
                let id = u32::try_from(self.cells.len()).expect("under 2^32 events queued at once");
                self.cells.push(cell);
                id
            }
            id => {
                let free = &mut self.cells[id as usize];
                self.free = free.next;
                *free = cell;
                id
            }
        };
        let number = at.as_nanos() >> SLOT_SHIFT;
        if number.wrapping_sub(self.cursor) >= SLOTS as u64 {
            self.far.push(Reverse((at, seq, id)));
            return;
        }
        let s = number as usize % SLOTS;
        let Slot { head, tail } = self.slots[s];
        if head == NIL {
            self.slots[s] = Slot { head: id, tail: id };
            self.occupied[s / 64] |= 1 << (s % 64);
            self.summary |= 1 << (s / 64);
        } else if self.cells[tail as usize].at <= at {
            // `seq` is the largest yet, so a tie on `at` also appends.
            self.cells[tail as usize].next = id;
            self.slots[s].tail = id;
        } else {
            // Due before the tail: goes in front of the first cell due
            // after it.
            let (mut prev, mut next) = (NIL, head);
            while self.cells[next as usize].at <= at {
                (prev, next) = (next, self.cells[next as usize].next);
            }
            self.cells[id as usize].next = next;
            match prev {
                NIL => self.slots[s].head = id,
                _ => self.cells[prev as usize].next = id,
            }
        }
    }

    /// Pop the first event in `(at, push order)` if it is due at or
    /// before `deadline`; otherwise change nothing.
    pub(crate) fn pop_at_most(&mut self, deadline: Instant) -> Option<(Instant, T)> {
        let slot = self.first_occupied();
        let near = slot.map_or(EMPTY, |s| {
            let head = &self.cells[self.slots[s].head as usize];
            (head.at, head.seq)
        });
        let far = self
            .far
            .peek()
            .map_or(EMPTY, |&Reverse((at, seq, _))| (at, seq));
        let (at, _) = near.min(far);
        if at > deadline || near == far {
            return None; // not due yet, or both tiers empty
        }
        let id = if far < near {
            self.far.pop().expect("peeked").0 .2
        } else {
            let s = slot.expect("the near head came from a slot");
            let id = self.slots[s].head;
            self.slots[s].head = self.cells[id as usize].next;
            if self.slots[s].head == NIL {
                self.occupied[s / 64] &= !(1 << (s % 64));
                if self.occupied[s / 64] == 0 {
                    self.summary &= !(1 << (s / 64));
                }
            }
            id
        };
        self.cursor = self.cursor.max(at.as_nanos() >> SLOT_SHIFT);
        let cell = &mut self.cells[id as usize];
        cell.next = std::mem::replace(&mut self.free, id);
        Some((at, cell.item.take().expect("a queued cell holds its item")))
    }

    /// The first occupied slot at or (circularly) after the cursor's.
    fn first_occupied(&self) -> Option<usize> {
        if self.summary == 0 {
            return None;
        }
        let start = self.cursor as usize % SLOTS;
        let (w, bit) = (start / 64, start % 64);
        // The cursor's word from its bit up, then the words after it,
        // then around to the lowest word — which is the cursor's own
        // low bits when nothing else is set.
        let rest = self.occupied[w] & (!0 << bit);
        if rest != 0 {
            return Some(w * 64 + rest.trailing_zeros() as usize);
        }
        let after = self.summary & (!0 << w << 1);
        let word = if after != 0 { after } else { self.summary }.trailing_zeros() as usize;
        Some(word * 64 + self.occupied[word].trailing_zeros() as usize)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use zen_wire::lcg::Lcg;

    const SLOT_NS: u64 = 1 << SLOT_SHIFT;
    /// How far past the last pop the wheel reaches.
    pub(crate) const HORIZON_NS: u64 = SLOT_NS * SLOTS as u64;
    /// Delays in nanoseconds on both sides of everything the wheel
    /// decides on (`world.rs` arms its timers with them too).
    pub(crate) const DELAYS: [u64; 9] = [
        0,
        1,
        SLOT_NS - 1,
        SLOT_NS,
        HORIZON_NS / 2,
        HORIZON_NS - 1,
        HORIZON_NS,
        HORIZON_NS + HORIZON_NS / 2,
        1_000 * HORIZON_NS,
    ];

    /// The queue beside the heap it replaced, fed the same pushes and
    /// asked the same questions.
    struct Pair {
        queue: EventQueue<u64>,
        oracle: BinaryHeap<Reverse<(Instant, u64)>>,
        /// The world's clock: the last pop or the last deadline run to.
        now: u64,
        pushed: u64,
        popped: u64,
    }

    impl Pair {
        fn new() -> Pair {
            Pair {
                queue: EventQueue::new(),
                oracle: BinaryHeap::new(),
                now: 0,
                pushed: 0,
                popped: 0,
            }
        }

        fn push(&mut self, at: u64) {
            let at = Instant::from_nanos(at);
            self.queue.push(at, self.pushed);
            self.oracle.push(Reverse((at, self.pushed)));
            self.pushed += 1;
        }

        fn push_after(&mut self, delay: u64) {
            self.push(self.now.saturating_add(delay));
        }

        /// One `pop_at_most(deadline)`, checked against the oracle;
        /// whether it popped.
        fn pop_at_most(&mut self, deadline: u64) -> bool {
            let deadline = Instant::from_nanos(deadline);
            let want = match self.oracle.peek() {
                Some(&Reverse((at, seq))) if at <= deadline => {
                    self.oracle.pop();
                    Some((at, seq))
                }
                _ => None,
            };
            let got = self.queue.pop_at_most(deadline);
            assert_eq!(got, want, "pop {} of {}", self.popped, self.pushed);
            if let Some((at, _)) = got {
                self.now = self.now.max(at.as_nanos());
                self.popped += 1;
            }
            got.is_some()
        }

        /// `World::run_until`: every event due, then the clock moves on.
        fn run_until(&mut self, deadline: u64) {
            while self.pop_at_most(deadline) {}
            self.now = self.now.max(deadline);
        }

        fn drain(&mut self) {
            while self.pop_at_most(u64::MAX) {}
            assert!(self.oracle.is_empty());
            assert_eq!(self.popped, self.pushed);
        }
    }

    /// ≥ 200 k seeded pushes and pops; every pop is the oracle's.
    #[test]
    fn pops_what_the_binary_heap_pops() {
        for seed in [0x51e1_u64, 0x51e2, 0x51e3] {
            let mut rng = Lcg::new(seed);
            let mut pair = Pair::new();
            for _ in 0..70_000 {
                match rng.gen_range(16) {
                    // Mostly: a delay of some magnitude up to 4× the
                    // horizon, so the wheel wraps many times over.
                    0..=5 => {
                        let span = 1 << rng.gen_range(u64::from(HORIZON_NS.ilog2()) + 3);
                        pair.push_after(rng.gen_range(span));
                    }
                    6..=7 => pair.push_after(DELAYS[rng.gen_index(DELAYS.len())]),
                    8 => {
                        // A burst for one instant.
                        let delay = DELAYS[rng.gen_index(DELAYS.len())];
                        for _ in 0..rng.gen_range(40) {
                            pair.push_after(delay);
                        }
                    }
                    9 => {
                        // Decreasing times inside one slot.
                        let base = (pair.now / SLOT_NS + 1 + rng.gen_range(8)) * SLOT_NS;
                        for back in 0..rng.gen_range(SLOT_NS) {
                            pair.push(base + SLOT_NS - 1 - back);
                        }
                    }
                    10..=14 => {
                        pair.pop_at_most(u64::MAX);
                    }
                    _ => {
                        // Run to a deadline that may fall short of the
                        // head, then push before the head it refused.
                        let span = 1 << rng.gen_range(u64::from(HORIZON_NS.ilog2()) + 2);
                        pair.run_until(pair.now + rng.gen_range(span));
                        pair.push_after(0);
                    }
                }
            }
            pair.drain();
            assert!(pair.pushed >= 100_000, "only {} events", pair.pushed);
            assert!(
                pair.now >= 10 * HORIZON_NS,
                "the wheel wrapped only {} times",
                pair.now / HORIZON_NS
            );
        }
    }

    /// The cases a random mix reaches rarely or never, one by one.
    #[test]
    fn pops_what_the_binary_heap_pops_at_the_edges() {
        let mut pair = Pair::new();
        // A same-instant burst, in the wheel and beyond it, with other
        // instants of the same slot pushed between its events.
        for delay in [0, 77, HORIZON_NS - 1, HORIZON_NS, 3 * HORIZON_NS] {
            for i in 0..1_500u32 {
                pair.push_after(delay);
                if i.is_multiple_of(100) {
                    pair.push_after(delay + 1);
                    pair.push_after(delay.saturating_sub(1));
                }
            }
        }
        // A refused pop does not move the cursor: events before the
        // refused head — the `run_until` then `schedule_link_state`
        // sequence — still come first.
        pair.run_until(40);
        assert!(!pair.pop_at_most(60));
        pair.push(50);
        pair.push(41);
        pair.push(76);
        pair.run_until(76);
        assert_eq!(pair.now, 76);
        pair.drain();

        // Exactly at the deadline pops, a nanosecond later does not.
        pair.push_after(10);
        assert!(!pair.pop_at_most(pair.now + 9));
        assert!(pair.pop_at_most(pair.now + 10));

        // A long idle jump, then pushes near the new now; twelve full
        // turns of the wheel, a slot at a time and a horizon at a time.
        pair.run_until(pair.now + 5_000 * HORIZON_NS + 17);
        for delay in DELAYS {
            pair.push_after(delay);
        }
        pair.drain();
        for step in 0..12 * SLOTS as u64 {
            pair.push_after(step % 3 * SLOT_NS);
            pair.push_after(HORIZON_NS - 1);
            assert!(pair.pop_at_most(u64::MAX));
        }
        for _ in 0..12 {
            pair.push_after(HORIZON_NS - 1);
            pair.push_after(HORIZON_NS);
            pair.run_until(pair.now + HORIZON_NS - 1);
        }
        pair.drain();

        // Where the horizon is, seen from a cursor at a slot's start:
        // one nanosecond short of it is chained, the horizon is not.
        pair.push((pair.now / SLOT_NS + 1) * SLOT_NS);
        pair.drain();
        pair.push_after(HORIZON_NS - 1);
        assert_eq!(pair.queue.far.len(), 0);
        pair.push_after(HORIZON_NS);
        assert_eq!(pair.queue.far.len(), 1);
        pair.drain();

        // The end of time, pushed from far away and from inside the
        // horizon, and again once the clock is there.
        pair.push(u64::MAX);
        pair.push(u64::MAX - 1);
        pair.push(u64::MAX - HORIZON_NS / 2);
        pair.run_until(u64::MAX - HORIZON_NS / 2);
        assert_eq!(pair.queue.far.len(), 2);
        pair.push(u64::MAX);
        pair.push(u64::MAX - 1);
        assert_eq!(pair.queue.far.len(), 2);
        pair.drain();
        assert_eq!(pair.now, u64::MAX);
        pair.push(u64::MAX);
        pair.push(u64::MAX);
        pair.drain();
    }

    /// The world clamps, so nothing is pushed before the last pop; the
    /// queue keeps its order even so (the cursor never moves back, or
    /// the two chained events here would read in the wrong order).
    #[test]
    fn a_push_before_the_last_pop_still_pops_in_order() {
        let mut pair = Pair::new();
        pair.push(10 * HORIZON_NS);
        assert!(pair.pop_at_most(u64::MAX));
        pair.push(10 * HORIZON_NS + 10 * SLOT_NS);
        pair.push(11 * HORIZON_NS - 10 * SLOT_NS);
        pair.push(10 * HORIZON_NS - 3_000 * SLOT_NS);
        pair.push(3);
        pair.drain();
    }

    /// Popped cells are reused: the slab is as large as the most events
    /// ever queued at once, not as the number pushed.
    #[test]
    fn the_slab_is_bounded_by_the_peak() {
        let mut queue = EventQueue::new();
        for round in 0..1_000u64 {
            for i in 0..10 {
                queue.push(Instant::from_nanos((round * 10 + i) * 300_000), i);
            }
            for _ in 0..10 {
                queue.pop_at_most(Instant::from_nanos(u64::MAX)).unwrap();
            }
        }
        assert_eq!(queue.cells.len(), 10);
    }
}
