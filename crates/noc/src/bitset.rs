//! A fixed-capacity set of small indices, walked in ascending order.
//!
//! The hot path keeps one of these for every "who holds work" question —
//! which input VCs of a router wait for which pipeline stage, which routers
//! buffer flits, which wires carry something — so a cycle touches only the
//! members instead of scanning every component. Ascending iteration is what
//! keeps arbitration and wire ordering identical to a full index scan.

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

    /// Members in ascending order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let mut next = self.first_from(0);
        std::iter::from_fn(move || {
            let i = next?;
            next = self.first_from(i + 1);
            Some(i)
        })
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
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 63, 64, 130, 199]);
        assert!(s.contains(64) && !s.contains(65));
        s.remove(64);
        assert_eq!(s.first_from(64), Some(130));
        assert_eq!(s.first_from(200), None);
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
