//! Key-count maps: the multiset representation the count-only join works
//! on.
//!
//! A [`KeyCounts`] maps fixed-width term tuples (one [`TermId`] per
//! projected variable) to their multiplicities. Keys live flattened in one
//! `Vec`, entries are addressed by index, and lookups go through an
//! open-addressing slot table — so building, probing and iterating allocate
//! nothing per key beyond amortized growth. Width 0 is legal: the map then
//! holds at most one entry, the empty tuple, whose count is a plain
//! multiplicity.

use specqp_common::{FxHasher, TermId};
use std::hash::Hasher;

/// Marks an empty slot in [`KeyCounts::slots`].
const EMPTY: u32 = u32::MAX;

/// A map from `width`-wide term tuples to saturating `u64` counts.
#[derive(Debug, Clone)]
pub(crate) struct KeyCounts {
    width: usize,
    /// Entry keys, flattened: entry `i` is `keys[i * width..(i + 1) * width]`.
    keys: Vec<TermId>,
    counts: Vec<u64>,
    /// Open-addressing table of entry indexes (linear probing); its length
    /// is a power of two.
    slots: Vec<u32>,
    /// `64 - log2(slots.len())`: slots are picked by the hash's top bits.
    shift: u32,
}

impl KeyCounts {
    /// An empty map over `width`-wide keys.
    pub(crate) fn new(width: usize) -> Self {
        Self::with_capacity(width, 0)
    }

    /// An empty map over `width`-wide keys, with slots for `n` keys.
    pub(crate) fn with_capacity(width: usize, n: usize) -> Self {
        let size = (n + n / 3 + 1).next_power_of_two().max(4);
        KeyCounts {
            width,
            keys: Vec::new(),
            counts: Vec::new(),
            slots: vec![EMPTY; size],
            shift: 64 - size.trailing_zeros(),
        }
    }

    /// Appends `key` with count `n` without indexing it. For building a map
    /// whose keys are known to be distinct and which is only ever iterated:
    /// the map drops its slot table, and probing it with
    /// [`find`](Self::find) or [`add`](Self::add) afterwards panics.
    #[inline]
    pub(crate) fn push_distinct(&mut self, key: &[TermId], n: u64) {
        debug_assert_eq!(key.len(), self.width);
        if !self.slots.is_empty() {
            debug_assert_eq!(self.len(), 0, "mixing indexed and distinct pushes");
            self.slots = Vec::new();
        }
        self.keys.extend_from_slice(key);
        self.counts.push(n);
    }

    /// Number of distinct keys.
    pub(crate) fn len(&self) -> usize {
        self.counts.len()
    }

    /// The key of entry `i`.
    #[inline]
    pub(crate) fn key(&self, i: usize) -> &[TermId] {
        &self.keys[i * self.width..(i + 1) * self.width]
    }

    /// The count of entry `i`.
    #[inline]
    pub(crate) fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Saturating sum of every count.
    pub(crate) fn total(&self) -> u64 {
        self.counts.iter().fold(0u64, |a, &c| a.saturating_add(c))
    }

    /// The entry holding `key`, if any.
    #[inline]
    pub(crate) fn find(&self, key: &[TermId]) -> Option<usize> {
        debug_assert_eq!(key.len(), self.width);
        assert!(
            !self.slots.is_empty(),
            "probe of an unindexed key-count map"
        );
        let mask = self.slots.len() - 1;
        let mut slot = self.home(key);
        loop {
            let e = self.slots[slot];
            if e == EMPTY {
                return None;
            }
            if self.key(e as usize) == key {
                return Some(e as usize);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Adds `n` to `key`'s count, saturating. A key not yet present is
    /// inserted only while the map holds fewer than `cap` keys; past that
    /// the addition is dropped, so every count stays a lower bound. Returns
    /// the key's entry, or `None` when the cap dropped it.
    #[inline]
    pub(crate) fn add(&mut self, key: &[TermId], n: u64, cap: usize) -> Option<usize> {
        debug_assert_eq!(key.len(), self.width);
        assert!(
            !self.slots.is_empty(),
            "probe of an unindexed key-count map"
        );
        let mask = self.slots.len() - 1;
        let mut slot = self.home(key);
        loop {
            let e = self.slots[slot];
            if e == EMPTY {
                break;
            }
            if self.key(e as usize) == key {
                let c = &mut self.counts[e as usize];
                *c = c.saturating_add(n);
                return Some(e as usize);
            }
            slot = (slot + 1) & mask;
        }
        if self.len() >= cap {
            return None;
        }
        let e = self.len();
        assert!(
            e < EMPTY as usize,
            "key-count map outgrew u32 entry indexes"
        );
        self.keys.extend_from_slice(key);
        self.counts.push(n);
        self.slots[slot] = e as u32;
        // Keep the load factor at or below 3/4.
        if 4 * self.len() > 3 * self.slots.len() {
            self.grow();
        }
        Some(e)
    }

    #[inline]
    fn home(&self, key: &[TermId]) -> usize {
        let mut h = FxHasher::default();
        for t in key {
            h.write_u32(t.0);
        }
        // Fibonacci-style: the multiply leaves its best bits at the top.
        (h.finish() >> self.shift) as usize
    }

    fn grow(&mut self) {
        let size = self.slots.len() * 2;
        self.slots = vec![EMPTY; size];
        self.shift -= 1;
        let mask = size - 1;
        for e in 0..self.len() {
            let mut slot = self.home(self.key(e));
            while self.slots[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = e as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(ids: &[u32]) -> Vec<TermId> {
        ids.iter().map(|&i| TermId(i)).collect()
    }

    impl KeyCounts {
        fn get(&self, key: &[TermId]) -> u64 {
            self.find(key).map_or(0, |e| self.count(e))
        }
    }

    #[test]
    fn counts_accumulate_per_key_across_growth() {
        let mut m = KeyCounts::new(2);
        for round in 0..3u64 {
            for i in 0..1_000u32 {
                m.add(&k(&[i, i % 7]), round + 1, usize::MAX);
            }
        }
        assert_eq!(m.len(), 1_000);
        assert_eq!(m.get(&k(&[5, 5])), 6);
        assert_eq!(m.get(&k(&[5, 4])), 0);
        assert_eq!(m.total(), 6_000);
        let e = m.find(&k(&[999, 999 % 7])).unwrap();
        assert_eq!(m.key(e), &k(&[999, 5])[..]);
    }

    #[test]
    fn width_zero_holds_one_multiplicity() {
        let mut m = KeyCounts::new(0);
        for _ in 0..5 {
            m.add(&[], 2, usize::MAX);
        }
        assert_eq!((m.len(), m.get(&[]), m.total()), (1, 10, 10));
    }

    #[test]
    fn distinct_pushes_iterate_but_refuse_probes() {
        let mut m = KeyCounts::new(1);
        m.push_distinct(&k(&[3]), 2);
        m.push_distinct(&k(&[4]), 5);
        assert_eq!(
            (m.len(), m.key(1), m.count(1), m.total()),
            (2, &k(&[4])[..], 5, 7)
        );
        let probe = std::panic::catch_unwind(|| m.find(&k(&[3])));
        assert!(probe.is_err(), "an unindexed map must not answer probes");
    }

    #[test]
    fn cap_bounds_keys_and_counts_saturate() {
        let mut m = KeyCounts::new(1);
        for i in 0..10u32 {
            m.add(&k(&[i]), 1, 3);
        }
        assert_eq!(m.len(), 3);
        assert_eq!(m.add(&k(&[1]), u64::MAX, 3), Some(1));
        assert_eq!(m.get(&k(&[1])), u64::MAX);
        assert_eq!(m.total(), u64::MAX);
        assert_eq!(
            m.add(&k(&[42]), 1, 3),
            None,
            "a new key past the cap is dropped"
        );
    }
}
