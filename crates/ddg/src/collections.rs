//! Hash collections with *deterministic* iteration order.
//!
//! The iterative scheduler walks hash maps and sets in several places
//! (ejection ordering, resource usage, recurrence bookkeeping). With the
//! standard library's randomly seeded `RandomState`, iteration order — and
//! therefore tie-breaking, and therefore the final schedule — would differ
//! from process to process, making the paper-table experiments
//! irreproducible and the test suite flaky.
//!
//! The hasher is pinned to [`FxHasher`], a local copy of the rustc-hash
//! algorithm, rather than a fixed-key `std` `DefaultHasher`: `std` documents
//! its hasher as unspecified across releases, so relying on it would trade
//! per-process randomness for per-toolchain-version instability. With the
//! algorithm vendored here, hash *values* are stable everywhere; iteration
//! order is then a function of the insertion sequence and the standard
//! library's table layout, making runs reproducible on a given
//! toolchain/target (and in practice far beyond — but table internals are
//! not a documented guarantee, so recorded numbers should be compared
//! within one toolchain).

use crate::ids::{NodeId, ValueId};
use std::hash::{BuildHasherDefault, Hasher};
use std::marker::PhantomData;

/// The rustc-hash ("FxHash") algorithm: a fast, non-cryptographic,
/// fully specified hash. Not DoS-resistant — fine for compiler-style
/// workloads where keys are small ids, tuples and short strings.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in chunks.by_ref() {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(tail) | ((rest.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Fixed-algorithm hasher state: no per-process or per-toolchain variation.
pub type DetState = BuildHasherDefault<FxHasher>;

/// `HashMap` with deterministic iteration order. Construct with
/// `HashMap::default()` (the `new()` constructor is specific to
/// `RandomState`).
pub type HashMap<K, V> = std::collections::HashMap<K, V, DetState>;

/// `HashSet` with deterministic iteration order. Construct with
/// `HashSet::default()`.
pub type HashSet<T> = std::collections::HashSet<T, DetState>;

/// An id allocated densely from zero, usable as an [`IdMap`] key.
pub trait DenseId: Copy {
    /// Position of the id in a dense table.
    fn index(self) -> usize;
    /// The id at position `index`.
    fn from_index(index: usize) -> Self;
}

impl DenseId for NodeId {
    fn index(self) -> usize {
        NodeId::index(self)
    }
    fn from_index(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index fits in u32"))
    }
}

impl DenseId for ValueId {
    fn index(self) -> usize {
        ValueId::index(self)
    }
    fn from_index(index: usize) -> Self {
        ValueId(u32::try_from(index).expect("value index fits in u32"))
    }
}

/// A map keyed by a dense id, stored as one slot per id: lookups are an
/// array read and iteration runs in id order, so it needs no hashing and
/// no iteration-order guarantee. [`IdMap::clear`] keeps the storage, so a
/// map reused across scheduling attempts stops allocating once it has
/// grown to the largest id it has seen.
#[derive(Debug, Clone)]
pub struct IdMap<K, V> {
    slots: Vec<Option<V>>,
    _key: PhantomData<K>,
}

impl<K, V> Default for IdMap<K, V> {
    fn default() -> Self {
        Self {
            slots: Vec::new(),
            _key: PhantomData,
        }
    }
}

impl<K: DenseId, V> IdMap<K, V> {
    /// Empty map.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Value stored for `key`, if any.
    #[must_use]
    pub fn get(&self, key: K) -> Option<&V> {
        self.slots.get(key.index()).and_then(Option::as_ref)
    }

    /// Whether `key` has a value.
    #[must_use]
    pub fn contains_key(&self, key: K) -> bool {
        self.get(key).is_some()
    }

    /// Store `value` for `key`, returning the value it replaces.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let i = key.index();
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        self.slots[i].replace(value)
    }

    /// Remove and return the value of `key`.
    pub fn remove(&mut self, key: K) -> Option<V> {
        self.slots.get_mut(key.index()).and_then(Option::take)
    }

    /// Remove every entry, keeping the storage.
    pub fn clear(&mut self) {
        self.slots.clear();
    }

    /// Whether the map has no entry (O(capacity)).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(Option::is_none)
    }

    /// Entries in id order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.as_ref().map(|v| (K::from_index(i), v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn id_map_stores_by_index_and_iterates_in_id_order() {
        let mut m: IdMap<NodeId, i64> = IdMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(NodeId(7), 70), None);
        assert_eq!(m.insert(NodeId(2), 20), None);
        assert_eq!(m.insert(NodeId(7), 71), Some(70));
        assert_eq!(m.get(NodeId(7)), Some(&71));
        assert_eq!(m.get(NodeId(3)), None);
        assert_eq!(m.get(NodeId(99)), None);
        let entries: Vec<(NodeId, i64)> = m.iter().map(|(k, &v)| (k, v)).collect();
        assert_eq!(entries, [(NodeId(2), 20), (NodeId(7), 71)]);
        assert_eq!(m.remove(NodeId(2)), Some(20));
        assert!(!m.contains_key(NodeId(2)));
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get(NodeId(7)), None);
    }

    const PINNED: [u64; 3] = [
        5_871_781_006_564_002_453,
        10_403_444_018_641_964_525,
        14_046_702_462_427_318_734,
    ];

    /// Pin the algorithm itself: these values must never change, on any
    /// toolchain, or previously recorded schedules stop being reproducible.
    #[test]
    fn algorithm_is_pinned() {
        let state = DetState::default();
        let got = [
            state.hash_one(1u32),
            state.hash_one((3u32, 7u32)),
            state.hash_one("spill0"),
        ];
        assert_eq!(got, PINNED, "FxHasher algorithm drifted: got {got:?}");
    }

    #[test]
    fn iteration_order_is_stable_for_a_given_insertion_sequence() {
        let build = |perm: &[u32]| -> Vec<u32> {
            let mut m: HashMap<u32, ()> = HashMap::default();
            for &k in perm {
                m.insert(k, ());
            }
            m.keys().copied().collect()
        };
        let a = build(&[5, 1, 9, 3, 7, 2, 8]);
        let b = build(&[5, 1, 9, 3, 7, 2, 8]);
        assert_eq!(a, b);
    }
}
