//! Sets of small indices, walked in ascending order.
//!
//! The hot path keeps one of these for every "who holds work" question —
//! which routers buffer flits, which injectors stream packets, which input
//! VCs of a router wait for which pipeline stage or event — so a cycle
//! touches only the members instead of scanning every component. Ascending
//! iteration is what keeps arbitration order identical to a full index
//! scan. Network-wide sets are a boxed [`BitSet`]; a router's
//! sets fit one inline [`Bits`] word each.

/// An inline set over `0..Bits::CAPACITY`: a router's input VCs (whose
/// count `SystemConfig::validate` bounds by the capacity) or its ports.
/// Iterating walks a copy, so the loop body may mutate the set it came from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Bits(u128);

impl Bits {
    /// Indices one word holds.
    pub(crate) const CAPACITY: usize = u128::BITS as usize;

    pub(crate) fn insert(&mut self, i: usize) {
        self.0 |= 1 << i;
    }

    pub(crate) fn remove(&mut self, i: usize) {
        self.0 &= !(1 << i);
    }

    pub(crate) fn contains(self, i: usize) -> bool {
        self.0 & (1 << i) != 0
    }

    pub(crate) fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The only member, if there is exactly one.
    pub(crate) fn sole(self) -> Option<usize> {
        if self.0.is_power_of_two() {
            Some(self.0.trailing_zeros() as usize)
        } else {
            None
        }
    }

    /// Moves every member of `other` into this set.
    pub(crate) fn absorb(&mut self, other: Bits) {
        self.0 |= other.0;
    }

    /// Whether the two sets share a member.
    pub(crate) fn overlaps(self, other: Bits) -> bool {
        self.0 & other.0 != 0
    }

    /// The members in `lo..lo + len`, shifted down by `lo`.
    pub(crate) fn window(self, lo: usize, len: usize) -> Bits {
        Bits((self.0 >> lo) & Self::low_mask(len))
    }

    /// The smallest index in `lo..hi` that is *not* a member.
    pub(crate) fn first_absent(self, lo: usize, hi: usize) -> Option<usize> {
        Bits(!self.0 & (Self::low_mask(hi - lo) << lo)).next()
    }

    fn low_mask(len: usize) -> u128 {
        if len == 0 {
            0
        } else {
            u128::MAX >> (Self::CAPACITY - len)
        }
    }
}

impl Iterator for Bits {
    type Item = usize;

    /// Removes and returns the smallest member.
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let i = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(i)
    }
}

/// A set over `0..capacity`, one bit per index.
#[derive(Debug, Clone, Default)]
pub(crate) struct BitSet {
    words: Box<[u64]>,
}

impl BitSet {
    /// An empty set able to hold `0..capacity`.
    pub(crate) fn new(capacity: usize) -> Self {
        BitSet {
            words: vec![0; capacity.div_ceil(64)].into_boxed_slice(),
        }
    }

    pub(crate) fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    pub(crate) fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    pub(crate) fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The smallest member at or after `from`. Walking a set as
    /// `next = first_from(member + 1)` borrows it only per call, so the
    /// loop body is free to mutate the owner — including this set.
    pub(crate) fn first_from(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut bits = *self.words.get(w)? & (u64::MAX << (from % 64));
        while bits == 0 {
            w += 1;
            bits = *self.words.get(w)?;
        }
        Some(w * 64 + bits.trailing_zeros() as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn members_come_back_in_ascending_order_across_words() {
        let mut s = BitSet::new(200);
        assert!(s.is_empty());
        for i in [130, 3, 64, 199, 63] {
            s.insert(i);
        }
        let mut members = Vec::new();
        let mut next = s.first_from(0);
        while let Some(i) = next {
            members.push(i);
            next = s.first_from(i + 1);
        }
        assert_eq!(members, vec![3, 63, 64, 130, 199]);
        assert!(s.contains(64) && !s.contains(65));
        s.remove(64);
        assert_eq!(s.first_from(64), Some(130));
        assert_eq!(s.first_from(200), None);
    }

    #[test]
    fn inline_bits_walk_ascending_and_window_by_port() {
        let mut s = Bits::default();
        for i in [127, 3, 64, 9, 63] {
            s.insert(i);
        }
        assert_eq!(s.collect::<Vec<_>>(), vec![3, 9, 63, 64, 127]);
        assert!(s.contains(64) && !s.contains(65));
        assert_eq!(s.sole(), None);
        assert_eq!(s.window(60, 4).sole(), Some(3));
        assert_eq!(Bits::default().sole(), None);
        // The members of "port" 2 of 4-wide ports: 8..12, shifted down.
        assert_eq!(s.window(8, 4).collect::<Vec<_>>(), vec![1]);
        assert_eq!(s.window(0, 128), s);
        assert!(s.window(10, 0).is_empty());
        assert_eq!(s.first_absent(62, 66), Some(62));
        s.insert(62);
        assert_eq!(s.first_absent(62, 66), Some(65));
        assert_eq!(s.first_absent(63, 65), None);
        let mut t = Bits::default();
        assert!(!t.overlaps(s));
        t.absorb(s);
        assert!(t.overlaps(s));
        t.remove(127);
        assert_eq!(t.collect::<Vec<_>>(), vec![3, 9, 62, 63, 64]);
    }

    #[test]
    fn a_walk_may_mutate_the_set_it_walks() {
        let mut s = BitSet::new(10);
        for i in 0..10 {
            s.insert(i);
        }
        let mut seen = Vec::new();
        let mut next = s.first_from(0);
        while let Some(i) = next {
            seen.push(i);
            s.remove(i);
            s.remove(i + 1); // drops the odd members before they are reached
            next = s.first_from(i + 1);
        }
        assert_eq!(seen, vec![0, 2, 4, 6, 8]);
        assert!(s.is_empty());
    }
}
