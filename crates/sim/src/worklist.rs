//! The engines' per-tick worklists: an ordered set of `u32` ids (nets,
//! groups, components) that lists its members ascending without a sort.
//!
//! The serial engine keeps one per worklist (`affected`,
//! `dirty_groups`, `to_eval`); every `ParSimulator` party keeps one for
//! the components it evaluates, one for the groups it settles and one
//! for the nets it merges in Apply, so the work a party hands to itself
//! never goes through a mailbox (DESIGN.md §10 and §12).

use std::ops::Range;

/// An ordered set of `u32` ids below a fixed capacity: one bit per id,
/// and one summary bit per 64-id word that says the word is non-zero.
/// Insert is a test-and-set; [`Self::sorted`] walks the summary bits,
/// then the word bits, so it lists ascending unique ids — the
/// `BTreeSet` order the golden traces pin — without a sort; and
/// [`Self::clear`] zeroes only the words the summary marks. Both cost
/// O(items + occupied words) plus the summary words between the lowest
/// and highest one touched since the last clear (at most one per 4 096
/// ids of that span), never O(capacity).
#[derive(Debug, Clone, Default)]
pub(crate) struct OrderedSet {
    /// Bit `id % 64` of word `id / 64` is set iff `id` is in the set.
    words: Vec<u64>,
    /// Bit `w % 64` of summary word `w / 64` is set iff `words[w] != 0`.
    summary: Vec<u64>,
    /// Summary words `lo..hi` hold every set summary bit; `hi == 0`
    /// iff the set is empty.
    lo: usize,
    hi: usize,
    /// The members as [`Self::sorted`] last listed them.
    items: Vec<u32>,
}

impl OrderedSet {
    /// Heap bytes the set holds.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        8 * (self.words.capacity() + self.summary.capacity()) + 4 * self.items.capacity()
    }

    /// An empty set of ids below `n`.
    pub(crate) fn with_capacity(n: usize) -> OrderedSet {
        let words = n.div_ceil(64);
        OrderedSet {
            words: vec![0; words],
            summary: vec![0; words.div_ceil(64)],
            lo: usize::MAX,
            hi: 0,
            items: Vec::new(),
        }
    }

    /// Adds `id`; returns whether it was new, as `BTreeSet::insert` does.
    #[inline]
    pub(crate) fn insert(&mut self, id: u32) -> bool {
        let w = id as usize / 64;
        let bit = 1 << (id % 64);
        let word = &mut self.words[w];
        let old = *word;
        *word = old | bit;
        if old == 0 {
            let s = w / 64;
            self.summary[s] |= 1 << (w % 64);
            self.lo = self.lo.min(s);
            self.hi = self.hi.max(s + 1);
        }
        old & bit == 0
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.hi == 0
    }

    /// The summary words that may be non-zero.
    fn summary_range(&self) -> Range<usize> {
        self.lo.min(self.hi)..self.hi
    }

    /// Empties the set, zeroing only the words the summary marks.
    pub(crate) fn clear(&mut self) {
        for s in self.summary_range() {
            let mut bits = std::mem::take(&mut self.summary[s]);
            while bits != 0 {
                self.words[s * 64 + bits.trailing_zeros() as usize] = 0;
                bits &= bits - 1;
            }
        }
        self.lo = usize::MAX;
        self.hi = 0;
    }

    /// Lists the members ascending and returns them; this is what makes
    /// an `OrderedSet` a drop-in for sorted `BTreeSet` iteration.
    pub(crate) fn sorted(&mut self) -> &[u32] {
        self.items.clear();
        for s in self.summary_range() {
            let mut summary = self.summary[s];
            while summary != 0 {
                let w = s * 64 + summary.trailing_zeros() as usize;
                summary &= summary - 1;
                let mut bits = self.words[w];
                while bits != 0 {
                    self.items.push(w as u32 * 64 + bits.trailing_zeros());
                    bits &= bits - 1;
                }
            }
        }
        &self.items
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Clear then reuse never leaks membership: ids inserted before a
    /// `clear()`, in summary words the next round touches and in ones it
    /// does not, never reappear.
    #[test]
    fn clear_then_reuse_never_leaks_membership() {
        let mut s = OrderedSet::with_capacity(3 * 4096);
        for id in [12_000, 2, 70, 4_100, 70] {
            s.insert(id);
        }
        assert_eq!(s.sorted(), [2, 70, 4_100, 12_000]);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.sorted(), []);
        assert!(s.insert(71));
        assert!(s.insert(1));
        assert!(!s.insert(71));
        assert_eq!(s.sorted(), [1, 71]);
    }

    /// Capacities on both sides of the word (64 ids) and summary-word
    /// (4 096 ids) boundaries.
    const CAPACITIES: [usize; 8] = [1, 63, 64, 65, 4_095, 4_096, 4_097, 262_145];
    /// Ids on those boundaries; `u32::MAX` stands for `n - 1`.
    const EDGE_IDS: [u32; 6] = [0, 63, 64, 4_095, 4_096, u32::MAX];

    proptest::proptest! {
        /// `OrderedSet` against `BTreeSet<u32>` over random insert /
        /// `sorted()` / `clear()` sequences on one reused set: duplicate
        /// inserts, `sorted()` twice without a clear and inserts after a
        /// `sorted()` all occur, and every insert reports newness as the
        /// `BTreeSet`'s does. Inserts draw either an edge id plus 0..=3
        /// (clamped to the capacity) or a uniform id.
        #[test]
        fn ordered_set_matches_btreeset(
            cap in 0..CAPACITIES.len(),
            ops in proptest::collection::vec((0u8..20, 0u32..u32::MAX, 0..EDGE_IDS.len()), 0..300),
        ) {
            let n = CAPACITIES[cap] as u32;
            let mut set = OrderedSet::with_capacity(n as usize);
            let mut want = std::collections::BTreeSet::new();
            let check = |set: &mut OrderedSet, want: &std::collections::BTreeSet<u32>| {
                assert_eq!(set.is_empty(), want.is_empty());
                let got = set.sorted().to_vec();
                assert!(got.iter().copied().eq(want.iter().copied()), "{got:?} vs {want:?}");
            };
            for (kind, raw, edge) in ops {
                match kind {
                    0..=7 => {
                        let id = (EDGE_IDS[edge].min(n - 1) + raw % 4).min(n - 1);
                        assert_eq!(set.insert(id), want.insert(id), "{id}");
                    }
                    8..=15 => assert_eq!(set.insert(raw % n), want.insert(raw % n)),
                    16..=18 => check(&mut set, &want),
                    _ => {
                        set.clear();
                        want.clear();
                    }
                }
            }
            check(&mut set, &want);
        }
    }
}
