//! Work filed by the cycle it falls due.
//!
//! A [`Calendar`] is a priority queue specialised for simulated time: most
//! entries fall due a few cycles after they are filed (a link hop, a cache
//! bank lookup), so instead of a heap ordered by `(due, push order)` it keeps
//! one bucket per cycle of a short horizon and finds the next due bucket
//! from a bit mask. The horizon is sized to the longest delay the owner
//! expects, so the few buckets in use stay in cache. Entries due beyond it
//! wait in an overflow heap and move into their bucket once it comes in
//! range, so a far-future entry (a retry backoff) never grows the buckets.
//! A drain hands a due bucket's `Vec` to the caller in exchange for the
//! caller's empty one, so bucket buffers are recycled and a calendar in
//! steady state allocates nothing.
//!
//! Entries come back in ascending due cycle, and in push order among equal
//! dues — the order of a `BinaryHeap` over `(due, push sequence)`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::Cycle;

/// The most buckets a calendar keeps, one bit of [`Calendar::occupied`]
/// each.
const MAX_BUCKETS: usize = u64::BITS as usize;

/// A queue of `T`s, each due at a cycle, drained in due order.
///
/// Every entry is due at or after the calendar's current cycle, which is
/// the `now` of the last [`Calendar::drain_due`] (zero before the first).
/// Pushing an entry due earlier files it as due at that cycle.
#[derive(Debug)]
pub struct Calendar<T> {
    /// `buckets[c % buckets.len()]` holds the entries due at `c`, for `c`
    /// in `base..base + buckets.len()`, in push order. Their number is a
    /// power of two.
    buckets: Box<[Vec<T>]>,
    /// Bit `b` is set iff `buckets[b]` is non-empty.
    occupied: u64,
    /// The calendar's current cycle: no entry is due before it.
    base: Cycle,
    /// Entries due at or after `base + buckets.len()`, earliest (then first
    /// pushed) on top.
    overflow: BinaryHeap<Far<T>>,
    /// Entries pushed into the overflow so far: the tie-break of equal dues.
    far_pushed: u64,
}

/// An overflow entry, ordered so that the heap's top is the earliest due
/// and, among equal dues, the first pushed.
#[derive(Debug)]
struct Far<T> {
    due: Cycle,
    seq: u64,
    item: T,
}

impl<T> Ord for Far<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.due, other.seq).cmp(&(self.due, self.seq))
    }
}

impl<T> PartialOrd for Far<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> PartialEq for Far<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.due, self.seq) == (other.due, other.seq)
    }
}

impl<T> Eq for Far<T> {}

impl<T> Calendar<T> {
    /// An empty calendar at cycle 0 whose buckets hold every entry pushed
    /// at most `max_delay` cycles before it is due, when the calendar is
    /// drained every cycle. Later entries, and entries pushed after a gap
    /// in the drains, take the overflow.
    #[must_use]
    pub fn new(max_delay: Cycle) -> Self {
        // A push comes one cycle after the last drain, which is where the
        // buckets start.
        let buckets = usize::try_from(max_delay.saturating_add(2))
            .unwrap_or(MAX_BUCKETS)
            .next_power_of_two()
            .min(MAX_BUCKETS);
        Calendar {
            buckets: (0..buckets).map(|_| Vec::new()).collect(),
            occupied: 0,
            base: 0,
            overflow: BinaryHeap::new(),
            far_pushed: 0,
        }
    }

    /// Files `item` as due at `due`, behind everything already due then.
    pub fn push(&mut self, due: Cycle, item: T) {
        debug_assert!(due >= self.base, "entry due at {due} before {}", self.base);
        let due = due.max(self.base);
        if due - self.base < self.span() {
            self.file(due, item);
        } else {
            self.far_pushed += 1;
            self.overflow.push(Far {
                due,
                seq: self.far_pushed,
                item,
            });
        }
    }

    /// The earliest cycle an entry is due at, or `None` when empty.
    #[must_use]
    pub fn next_due(&self) -> Option<Cycle> {
        if self.occupied == 0 {
            return self.overflow.peek().map(|far| far.due);
        }
        // The occupied buckets from `base` on, around the ring once.
        let ring = u128::from(self.occupied) | (u128::from(self.occupied) << self.buckets.len());
        let ahead = ring >> self.bucket(self.base);
        Some(self.base + Cycle::from(ahead.trailing_zeros()))
    }

    /// Moves every entry due at or before `now` to the end of `out`:
    /// earliest due first, push order among equal dues. `now` becomes the
    /// calendar's current cycle.
    pub fn drain_due(&mut self, now: Cycle, out: &mut Vec<T>) {
        while let Some(due) = self.next_due().filter(|&due| due <= now) {
            self.advance(due);
            let b = self.bucket(due);
            if out.is_empty() {
                // Trade buffers instead of copying: the bucket keeps the
                // caller's empty one.
                std::mem::swap(out, &mut self.buckets[b]);
            } else {
                out.append(&mut self.buckets[b]);
            }
            self.occupied &= !(1 << b);
        }
        if now > self.base {
            self.advance(now);
        }
    }

    /// Every pending entry, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.buckets
            .iter()
            .flatten()
            .chain(self.overflow.iter().map(|far| &far.item))
    }

    /// Moves the current cycle to `to` (no entry is due before it) and
    /// files the overflow entries that come in range.
    fn advance(&mut self, to: Cycle) {
        self.base = to;
        while self
            .overflow
            .peek()
            .is_some_and(|far| far.due - self.base < self.span())
        {
            let far = self.overflow.pop().expect("checked peek");
            self.file(far.due, far.item);
        }
    }

    fn file(&mut self, due: Cycle, item: T) {
        let b = self.bucket(due);
        self.buckets[b].push(item);
        self.occupied |= 1 << b;
    }

    /// Cycles the buckets cover.
    fn span(&self) -> Cycle {
        self.buckets.len() as Cycle
    }

    fn bucket(&self, cycle: Cycle) -> usize {
        cycle as usize & (self.buckets.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{self, range_u64};
    use std::cmp::Reverse;

    /// Random pushes — due from now to well past the horizon — interleaved
    /// with drains over skipped cycles, against a heap over
    /// `(due, push sequence)`: both return the same entries in the same
    /// order, and agree on the next due cycle throughout.
    #[test]
    fn drains_like_a_heap_ordered_by_due_then_push_order() {
        check::cases(200, |rng| {
            let mut cal = Calendar::new(check::pick(rng, &[0, 1, 10, 70, 1_000]));
            let mut heap = BinaryHeap::new();
            let (mut now, mut seq) = (0, 0u64);
            let far = if rng.chance(0.5) { 200 } else { 70_000 };
            let (mut got, mut want) = (Vec::new(), Vec::new());
            for _ in 0..range_u64(rng, 1, 300) {
                for _ in 0..rng.below(6) {
                    let due = now
                        + if rng.chance(0.8) {
                            rng.below(12)
                        } else {
                            rng.below(far)
                        };
                    seq += 1;
                    cal.push(due, seq);
                    heap.push(Reverse((due, seq)));
                }
                assert_eq!(cal.next_due(), heap.peek().map(|Reverse((due, _))| *due));
                now += if rng.chance(0.2) {
                    rng.below(200)
                } else {
                    rng.below(3)
                };
                // Half the time the caller's buffer still holds entries of
                // its own, so a drain appends instead of trading buffers.
                if rng.chance(0.5) {
                    got.push(0);
                    want.push(0);
                }
                cal.drain_due(now, &mut got);
                while let Some(&Reverse((due, s))) = heap.peek() {
                    if due > now {
                        break;
                    }
                    heap.pop();
                    want.push(s);
                }
                assert_eq!(got, want, "at cycle {now}");
                got.clear();
                want.clear();
                // An entry filed for the cycle just drained comes out of
                // the next drain.
                if rng.chance(0.1) {
                    seq += 1;
                    cal.push(now, seq);
                    heap.push(Reverse((now, seq)));
                }
                let mut pending: Vec<u64> = cal.iter().copied().collect();
                let mut expected: Vec<u64> = heap.iter().map(|Reverse((_, s))| *s).collect();
                pending.sort_unstable();
                expected.sort_unstable();
                assert_eq!(pending, expected);
            }
        });
    }

    #[test]
    fn a_far_entry_waits_in_the_overflow_and_keeps_its_place() {
        let mut cal = Calendar::new(10);
        let mut out = Vec::new();
        cal.push(1_000, "far, first");
        assert_eq!(cal.next_due(), Some(1_000));
        cal.drain_due(999, &mut out);
        assert!(out.is_empty());
        cal.push(1_000, "near, second");
        cal.push(1_003, "near, later");
        assert_eq!(cal.next_due(), Some(1_000));
        cal.drain_due(2_000, &mut out);
        assert_eq!(out, ["far, first", "near, second", "near, later"]);
        assert_eq!(cal.next_due(), None);
    }
}
