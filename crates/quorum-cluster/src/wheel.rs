//! The workload engine's event queue: a timing wheel of one-microsecond
//! slots in front of an overflow heap.
//!
//! Events fire in `(time, schedule counter)` order, the order of a
//! `BinaryHeap<Reverse<(SimTime, u64, _)>>` that numbers its pushes. The
//! wheel gets that order without comparing counters, from three facts:
//!
//! * the engine never schedules an event before the current instant (the
//!   time of the last popped event);
//! * every push carries a larger counter than every earlier push, so
//!   appending to a slot's FIFO list keeps it in counter order;
//! * every event on the wheel lies in `[now, now + SPAN)`, so each slot
//!   holds a single instant. Later events wait in the overflow heap, and
//!   each pop moves the ones that have come within the span onto the wheel
//!   before anything else can be scheduled at their instants.
//!
//! The slots' lists live in one shared arena whose entries are recycled
//! through a free list, and a bitmap of occupied slots finds the next
//! event. A scan only passes over slots the clock then moves past, so all
//! scans together read one bitmap word per 64 µs of virtual time plus one
//! per pop.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::SimTime;

/// Slots on the wheel, one per microsecond of virtual time. Events this far
/// ahead of the clock or further wait in the overflow heap.
const SPAN: u64 = 1 << 14;

/// Words in the occupied-slot bitmap.
const WORDS: usize = (SPAN / 64) as usize;

/// Ends a slot's list and the free list.
const NIL: u32 = u32::MAX;

/// One arena entry: an event and the next entry of its slot (or of the free
/// list).
#[derive(Debug, Clone, Copy)]
struct Entry<T> {
    item: T,
    next: u32,
}

/// A min-queue of `(time, item)` pairs that pops in `(time, push order)`
/// order. Pushes must not precede the time of the last pop.
#[derive(Debug)]
pub(crate) struct TimingWheel<T> {
    /// The time of the last popped event.
    now: SimTime,
    /// Pushes so far: the tie-break of the overflow heap.
    pushed: u64,
    /// Per slot, the arena index of its first and last entry. Valid only
    /// where `occupied` has the slot's bit set.
    heads: Vec<u32>,
    tails: Vec<u32>,
    occupied: Vec<u64>,
    arena: Vec<Entry<T>>,
    /// Head of the list of recycled arena entries.
    free: u32,
    /// Events on the wheel.
    on_wheel: usize,
    /// Events at least `SPAN` ahead of the clock when they were pushed.
    overflow: BinaryHeap<Reverse<(SimTime, u64, T)>>,
}

impl<T: Copy + Ord> TimingWheel<T> {
    /// An empty queue with its clock at zero.
    pub(crate) fn new() -> Self {
        TimingWheel {
            now: SimTime::ZERO,
            pushed: 0,
            heads: vec![0; SPAN as usize],
            tails: vec![0; SPAN as usize],
            occupied: vec![0; WORDS],
            arena: Vec::new(),
            free: NIL,
            on_wheel: 0,
            overflow: BinaryHeap::new(),
        }
    }

    /// Schedules `item` at `at`.
    pub(crate) fn push(&mut self, at: SimTime, item: T) {
        let ahead = at
            .as_micros()
            .checked_sub(self.now.as_micros())
            .expect("events cannot be scheduled in the past");
        if ahead < SPAN {
            self.link(at, item);
        } else {
            self.overflow.push(Reverse((at, self.pushed, item)));
        }
        self.pushed += 1;
    }

    /// Removes and returns the earliest event, the earliest-pushed among
    /// simultaneous ones, and advances the clock to its time.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, T)> {
        if self.on_wheel == 0 {
            // Jump the clock to the overflow heap's earliest event.
            let &Reverse((at, _, _)) = self.overflow.peek()?;
            self.now = at;
            self.refill();
        }
        let start = self.slot(self.now);
        let slot = self.next_occupied(start);
        let at = self.now + SimTime::from_micros((slot as u64).wrapping_sub(start as u64) % SPAN);
        let index = self.heads[slot];
        let Entry { item, next } = self.arena[index as usize];
        if next == NIL {
            self.occupied[slot / 64] &= !(1 << (slot % 64));
        } else {
            self.heads[slot] = next;
        }
        self.arena[index as usize].next = self.free;
        self.free = index;
        self.on_wheel -= 1;
        self.now = at;
        self.refill();
        Some((at, item))
    }

    /// The wheel slot of instant `at`.
    fn slot(&self, at: SimTime) -> usize {
        (at.as_micros() % SPAN) as usize
    }

    /// Appends `item` to the list of `at`'s slot, which holds no other
    /// instant because `at` lies in `[now, now + SPAN)`.
    fn link(&mut self, at: SimTime, item: T) {
        let entry = Entry { item, next: NIL };
        let index = if self.free == NIL {
            self.arena.push(entry);
            u32::try_from(self.arena.len() - 1).expect("fewer than 2^32 pending events")
        } else {
            let index = self.free;
            self.free = self.arena[index as usize].next;
            self.arena[index as usize] = entry;
            index
        };
        let slot = self.slot(at);
        let bit = 1 << (slot % 64);
        if self.occupied[slot / 64] & bit == 0 {
            self.occupied[slot / 64] |= bit;
            self.heads[slot] = index;
        } else {
            self.arena[self.tails[slot] as usize].next = index;
        }
        self.tails[slot] = index;
        self.on_wheel += 1;
    }

    /// Moves the overflow events that now lie within the span onto the
    /// wheel, in the heap's `(time, push order)` order. No event already on
    /// the wheel shares their slots: every wheel event precedes the old
    /// `now + SPAN`, which no overflow event does, and none precedes the new
    /// `now`. Since this runs whenever the clock advances, later pushes at
    /// their instants queue behind them.
    fn refill(&mut self) {
        while let Some(&Reverse((at, _, item))) = self.overflow.peek() {
            if at.as_micros() - self.now.as_micros() >= SPAN {
                break;
            }
            self.overflow.pop();
            self.link(at, item);
        }
    }

    /// The first occupied slot at or after `start`, going round the wheel.
    /// The wheel must hold at least one event.
    fn next_occupied(&self, start: usize) -> usize {
        let mut word = start / 64;
        let mut bits = self.occupied[word] & (!0u64 << (start % 64));
        while bits == 0 {
            word = (word + 1) % WORDS;
            bits = self.occupied[word];
        }
        word * 64 + bits.trailing_zeros() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// How far ahead of the clock a scripted push lands.
    fn ahead(class: u8, raw: u64) -> u64 {
        match class {
            // The current instant.
            0 => 0,
            // A few microseconds: dense slots and same-instant ties.
            1 | 2 => raw % 16,
            // Anywhere on the wheel.
            3 => raw % SPAN,
            // Just inside and just outside the span.
            4 => SPAN - 3 + raw % 6,
            // Far beyond it, in the overflow heap.
            _ => SPAN * (2 + raw % 40) + raw % 97,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The wheel pops exactly the `(time, push order)` sequence of the
        /// binary heap it replaced, under any script of pushes at or after
        /// the clock, single pops and runs of pops that empty the wheel.
        #[test]
        fn wheel_pops_in_heap_order(
            script in prop::collection::vec((0u8..10, 0u64..1 << 20), 1..400)
        ) {
            let mut wheel = TimingWheel::new();
            let mut heap = BinaryHeap::new();
            let mut now = SimTime::ZERO;
            let mut pushed = 0u64;
            for (op, raw) in script {
                let pops = match op {
                    0..=5 => {
                        let at = now + SimTime::from_micros(ahead(op, raw));
                        wheel.push(at, pushed);
                        heap.push(Reverse((at, pushed, pushed)));
                        pushed += 1;
                        0
                    }
                    6 | 7 => 1,
                    // Empty the wheel, so that the next pop must jump the
                    // clock to the overflow heap (when it holds anything).
                    8 => wheel.on_wheel + 1,
                    _ => 2,
                };
                for _ in 0..pops {
                    let expected = heap.pop().map(|Reverse((at, _, item))| (at, item));
                    let popped = wheel.pop();
                    prop_assert_eq!(popped, expected);
                    if let Some((at, _)) = popped {
                        now = at;
                    }
                }
            }
            while let Some(Reverse((at, _, item))) = heap.pop() {
                prop_assert_eq!(wheel.pop(), Some((at, item)));
            }
            prop_assert_eq!(wheel.pop(), None);
        }
    }

    #[test]
    fn simultaneous_events_pop_in_push_order_across_the_overflow() {
        let mut wheel = TimingWheel::new();
        let far = SimTime::from_micros(3 * SPAN);
        wheel.push(far, 0);
        wheel.push(SimTime::from_micros(5), 1);
        wheel.push(far, 2);
        assert_eq!(wheel.pop(), Some((SimTime::from_micros(5), 1)));
        // The clock is still far from `far`: this push joins the overflow
        // heap behind the two earlier events at the same instant.
        wheel.push(far, 3);
        assert_eq!(wheel.pop(), Some((far, 0)));
        // Now on the wheel: a same-instant push queues behind the rest.
        wheel.push(far, 4);
        assert_eq!(wheel.pop(), Some((far, 2)));
        assert_eq!(wheel.pop(), Some((far, 3)));
        assert_eq!(wheel.pop(), Some((far, 4)));
        assert_eq!(wheel.pop(), None);
    }
}
