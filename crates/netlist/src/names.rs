//! Arena-backed net-name storage.
//!
//! A million-component netlist has a million-plus net names; storing each
//! as its own `String` costs one heap allocation (and one cache-missing
//! pointer chase) per net. [`NetNames`] packs every name into a single
//! byte buffer addressed through an offsets array, so bulk construction
//! is one amortized `memcpy` per name and the whole table lives in two
//! contiguous allocations.
//!
//! Serialization round-trips as a plain sequence of strings, so the
//! [`crate::Netlist`] serialized shape is unchanged from the earlier
//! `Vec<String>` representation.

use serde::{Deserialize, Serialize, Value};
use std::fmt;
use std::fmt::Write as _;
use std::hash::{BuildHasher, RandomState};

/// A string arena indexed by dense net ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetNames {
    /// All names concatenated.
    buf: String,
    /// `offsets[i]..offsets[i + 1]` is name `i`; one more entry than names.
    offsets: Vec<u32>,
}

impl Default for NetNames {
    fn default() -> NetNames {
        NetNames {
            buf: String::new(),
            offsets: vec![0],
        }
    }
}

impl NetNames {
    /// An empty table with room for `names` names totalling `bytes` bytes.
    #[must_use]
    pub fn with_capacity(names: usize, bytes: usize) -> NetNames {
        let mut offsets = Vec::with_capacity(names + 1);
        offsets.push(0);
        NetNames {
            buf: String::with_capacity(bytes),
            offsets,
        }
    }

    /// Number of names stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Returns `true` when no names are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The name at index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    #[inline]
    pub fn get(&self, i: usize) -> &str {
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        &self.buf[lo..hi]
    }

    /// Appends a name, returning its index.
    ///
    /// # Panics
    ///
    /// Panics if the arena would exceed `u32::MAX` bytes.
    pub fn push(&mut self, name: &str) -> usize {
        self.buf.push_str(name);
        self.seal()
    }

    /// Appends a formatted name without materializing a temporary
    /// `String`, returning its index. This is the bulk-generation fast
    /// path: `names.push_fmt(format_args!("t{tile}|{base}"))`.
    ///
    /// # Panics
    ///
    /// Panics if the arena would exceed `u32::MAX` bytes.
    pub fn push_fmt(&mut self, args: fmt::Arguments<'_>) -> usize {
        self.buf.write_fmt(args).expect("writing to a String");
        self.seal()
    }

    /// Reserves room for `names` additional names of `bytes` total size.
    pub fn reserve(&mut self, names: usize, bytes: usize) {
        self.offsets.reserve(names);
        self.buf.reserve(bytes);
    }

    fn seal(&mut self) -> usize {
        let end = u32::try_from(self.buf.len()).expect("net-name arena exceeds u32 bytes");
        self.offsets.push(end);
        self.len() - 1
    }

    /// Iterates over the names in index order.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Index of the first name equal to `name` (linear scan).
    #[must_use]
    pub fn position(&self, name: &str) -> Option<usize> {
        self.iter().position(|n| n == name)
    }

    /// Heap bytes held by the arena.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.buf.capacity() + self.offsets.capacity() * std::mem::size_of::<u32>()
    }
}

/// Name → index look-up over a [`NetNames`] arena: the interner behind
/// [`crate::NetlistBuilder::net`].
///
/// An open-addressed table of name indices. A probe hashes the name it
/// looks for and compares it with names the arena already holds, so the
/// table keeps no copy of any name, interning one allocates nothing
/// beyond the arena's own growth, and dropping the table frees one
/// vector. Only names appended through [`NameIndex::intern`] are found;
/// names pushed onto the arena directly are never unified with.
///
/// Each slot keeps the high 32 bits of its name's hash (the *tag*)
/// beside the index, and a probe reads the arena only where the tags
/// match, in practice on the true hit alone. The probe sequence starts
/// at the tag's top bits, so growth re-seats every slot from the slot
/// itself, without hashing a name or reading the arena.
///
/// `S` is [`RandomState`] outside tests: names come from netlist files,
/// so probe sequences must not be predictable from the file.
#[derive(Debug, Clone, Default)]
pub(crate) struct NameIndex<S = RandomState> {
    /// An interned name's tag in the high half, its `index + 1` in the
    /// low half; 0 for an empty slot. Empty or a power of two long, and
    /// never more than half full.
    slots: Vec<u64>,
    /// Number of occupied slots.
    len: usize,
    hasher: S,
}

/// The bits of a hash (and of a slot) that hold the tag.
const TAG: u64 = !(u32::MAX as u64);

impl<S: BuildHasher> NameIndex<S> {
    /// The hash `name` is looked up by.
    pub(crate) fn hash(&self, name: &str) -> u64 {
        self.hasher.hash_one(name)
    }

    /// The index of `name` in `names`, appending it first if no interned
    /// name equals it.
    ///
    /// # Panics
    ///
    /// Panics if the arena would exceed its `u32` limits.
    pub(crate) fn intern(&mut self, names: &mut NetNames, name: &str) -> usize {
        self.intern_hashed(names, name, self.hash(name))
    }

    /// [`NameIndex::intern`] with `name`'s [`NameIndex::hash`] already
    /// taken.
    pub(crate) fn intern_hashed(&mut self, names: &mut NetNames, name: &str, hash: u64) -> usize {
        self.reserve(1);
        match self.probe(names, name, hash) {
            Ok(index) => index,
            Err(vacant) => {
                let index = names.push(name);
                let index_1 = u32::try_from(index + 1).expect("more than u32::MAX names");
                self.slots[vacant] = (hash & TAG) | u64::from(index_1);
                self.len += 1;
                index
            }
        }
    }

    /// The index of the interned name equal to `name`, if there is one.
    pub(crate) fn get(&self, names: &NetNames, name: &str) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(names, name, self.hash(name)).ok()
    }

    /// Reads the slot each of `hashes` starts its probe at, and does
    /// nothing with it. The loads do not depend on one another, so where
    /// the table is larger than the cache their misses overlap, and the
    /// probes that follow find the slots cached.
    pub(crate) fn touch(&self, hashes: impl IntoIterator<Item = u64>) {
        if self.slots.is_empty() {
            return;
        }
        let seen = hashes
            .into_iter()
            .fold(0, |seen, hash| seen | self.slots[self.start(hash)]);
        std::hint::black_box(seen);
    }

    /// The slot a probe for a name with this hash (or the slot that
    /// holds it) starts at in a non-empty table: the top bits of the tag.
    fn start(&self, hash: u64) -> usize {
        let shift = 64 - self.slots.len().trailing_zeros();
        ((hash & TAG) >> shift) as usize
    }

    /// Walks the probe sequence of `name` (whose hash is `hash`) through
    /// a non-empty table: the index of the equal name, or the empty slot
    /// where it belongs.
    fn probe(&self, names: &NetNames, name: &str, hash: u64) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut at = self.start(hash);
        loop {
            let slot = self.slots[at];
            if slot == 0 {
                return Err(at);
            }
            if slot & TAG == hash & TAG {
                let index = (slot & !TAG) as usize - 1;
                if names.get(index) == name {
                    return Ok(index);
                }
            }
            at = (at + 1) & mask;
        }
    }

    /// Makes room for `additional` more names to be interned without the
    /// table growing on the way (it at least doubles when it has to, so
    /// single interns are amortised constant time).
    pub(crate) fn reserve(&mut self, additional: usize) {
        let slots = ((self.len + additional) * 2).next_power_of_two().max(16);
        if slots <= self.slots.len() {
            return;
        }
        // Re-seat every slot in the larger table, where its tag says.
        let old = std::mem::replace(&mut self.slots, vec![0; slots]);
        let mask = slots - 1;
        for slot in old.into_iter().filter(|&slot| slot != 0) {
            let mut at = self.start(slot);
            while self.slots[at] != 0 {
                at = (at + 1) & mask;
            }
            self.slots[at] = slot;
        }
    }
}

impl<'a> FromIterator<&'a str> for NetNames {
    fn from_iter<T: IntoIterator<Item = &'a str>>(iter: T) -> NetNames {
        let mut names = NetNames::default();
        for n in iter {
            names.push(n);
        }
        names
    }
}

impl Serialize for NetNames {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(|n| Value::String(n.to_string())).collect())
    }
}

impl Deserialize for NetNames {
    fn from_value(value: &Value) -> Result<NetNames, serde::Error> {
        let rows = value
            .as_array()
            .ok_or_else(|| serde::Error::custom("expected an array of net names"))?;
        let mut names = NetNames::with_capacity(rows.len(), 0);
        for row in rows {
            let s = row
                .as_str()
                .ok_or_else(|| serde::Error::custom("net name must be a string"))?;
            names.push(s);
        }
        Ok(names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_round_trip() {
        let mut n = NetNames::default();
        assert!(n.is_empty());
        assert_eq!(n.push("clk"), 0);
        assert_eq!(n.push_fmt(format_args!("t{}|{}", 3, "reset")), 1);
        assert_eq!(n.push(""), 2);
        assert_eq!(n.len(), 3);
        assert_eq!(n.get(0), "clk");
        assert_eq!(n.get(1), "t3|reset");
        assert_eq!(n.get(2), "");
        assert_eq!(n.position("t3|reset"), Some(1));
        assert_eq!(n.position("nope"), None);
        let collected: Vec<&str> = n.iter().collect();
        assert_eq!(collected, vec!["clk", "t3|reset", ""]);
    }

    #[test]
    fn serde_shape_is_a_string_sequence() {
        let n: NetNames = ["a", "b", "c"].into_iter().collect();
        let json = serde_json::to_string(&n).unwrap();
        assert_eq!(json, r#"["a","b","c"]"#);
        let back: NetNames = serde_json::from_str(&json).unwrap();
        assert_eq!(back, n);
    }

    /// FNV-1a-style mixing of what is hashed, then `MASK` applied: a
    /// hasher whose hashes keep only the bits `MASK` leaves.
    #[derive(Default)]
    struct Masked<const MASK: u64>(u64);

    impl<const MASK: u64> std::hash::Hasher for Masked<MASK> {
        fn finish(&self) -> u64 {
            self.0 & MASK
        }

        fn write(&mut self, bytes: &[u8]) {
            for &byte in bytes {
                self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }

    /// Every name has the tag 0, so every name also starts its probe at
    /// slot 0 and every slot a probe passes has a matching tag: the arena
    /// is read at each step.
    type TagsCollide = std::hash::BuildHasherDefault<Masked<{ !TAG }>>;

    /// The top 12 bits are 0, so in a table of up to 4096 slots every
    /// name starts its probe at slot 0, but the tags differ: the probe
    /// passes a run of slots and reads the arena only at its own name.
    type StartsCollide = std::hash::BuildHasherDefault<Masked<{ u64::MAX >> 12 }>>;

    /// How many distinct tags, and how many distinct probe starts in a
    /// table of 4096 slots, `S` gives `spellings`.
    fn tags_and_starts<S: BuildHasher + Default>(spellings: &[String]) -> (usize, usize) {
        let hashes: Vec<u64> = spellings.iter().map(|n| S::default().hash_one(n)).collect();
        let distinct = |bits: fn(u64) -> u64| {
            let set: std::collections::BTreeSet<u64> = hashes.iter().map(|&h| bits(h)).collect();
            set.len()
        };
        (distinct(|h| h & TAG), distinct(|h| h >> 52))
    }

    fn intern_all<S: BuildHasher + Default>(spellings: &[String]) {
        let mut names = NetNames::default();
        let mut index = NameIndex::<S>::default();
        assert_eq!(index.get(&names, "a"), None, "an empty table finds nothing");
        for (i, name) in spellings.iter().enumerate() {
            assert_eq!(
                index.get(&names, name),
                None,
                "{name:?} before it is interned"
            );
            assert_eq!(index.intern(&mut names, name), i);
        }
        // Every name is still found after the table has grown around it,
        // and a second intern neither moves nor duplicates it.
        for (i, name) in spellings.iter().enumerate() {
            assert_eq!(index.get(&names, name), Some(i), "{name:?}");
            assert_eq!(index.intern(&mut names, name), i);
            assert_eq!(names.get(i), name);
        }
        assert_eq!(names.len(), spellings.len());
        assert_eq!(index.get(&names, "never interned"), None);
    }

    #[test]
    fn interner_survives_collisions_growth_and_awkward_names() {
        // The empty name, names that are prefixes of each other and of
        // the concatenation of their arena neighbors, then enough more
        // to outgrow the first 16 slots several times over.
        let mut spellings: Vec<String> = ["", "a", "ab", "abc", "b", "ca", "c", "a b"]
            .map(String::from)
            .to_vec();
        spellings.extend((0..200).map(|i| format!("t{i}|n")));
        assert_eq!(tags_and_starts::<TagsCollide>(&spellings), (1, 1));
        let (tags, starts) = tags_and_starts::<StartsCollide>(&spellings);
        assert!(tags > spellings.len() / 2 && starts == 1, "{tags} tags");
        intern_all::<TagsCollide>(&spellings);
        intern_all::<StartsCollide>(&spellings);
        intern_all::<RandomState>(&spellings);
    }

    #[test]
    fn interner_reserves_ahead_and_ignores_uninterned_names() {
        let mut names = NetNames::default();
        let mut index = NameIndex::<RandomState>::default();
        names.push("bulk"); // on the arena, not in the table
        assert_eq!(index.get(&names, "bulk"), None);
        assert_eq!(
            index.intern(&mut names, "bulk"),
            1,
            "not unified with the bulk name"
        );
        index.reserve(1000);
        let slots = index.slots.len();
        assert!(slots >= 2002 && slots.is_power_of_two());
        for i in 0..1000 {
            index.intern(&mut names, &format!("n{i}"));
        }
        assert_eq!(index.slots.len(), slots, "grew although room was reserved");
        assert_eq!(index.get(&names, "bulk"), Some(1));
        assert_eq!(index.get(&names, "n999"), Some(1001));
    }
}
