//! Dense and hash-based lookup tables for line-addressed kernel state.
//!
//! The simulator keys almost all protocol metadata by line address, and line
//! addresses are dense small integers (workload allocators hand out compact
//! address spaces starting at zero, and `LineAddr` is the byte address
//! shifted down by the line-size bits). Two structures exploit that:
//!
//! * [`LineMap`] — a 4-byte slot per key of range into values packed in
//!   insert order, for every table keyed by line, page or word number (the
//!   directory, whose entries are each line's whole home record, the page
//!   homes, the classifier's blocks, the race detector's words, the value
//!   tracker's home image and unflushed records). O(1) access with no hashing, O(1) removal by swap,
//!   and iteration in ascending key order, which the deterministic
//!   fingerprint and listing paths rely on.
//! * [`FxHashMap`] / [`FxHashSet`] — `std` maps with the Fx polynomial
//!   hash (the rustc hasher) instead of SipHash, for per-node tables that
//!   stay sparse (outstanding transactions, pending invalidations).
//!   Iteration order is arbitrary; every order-sensitive consumer sorts or
//!   folds the table as a [`MultisetHash`].
//!
//! The model checker's state fingerprints use [`FoldHasher`], a keyed
//! folded-multiply hash with a full-avalanche finish, and fold unordered
//! tables with [`MultisetHash`], which needs neither a sort nor a buffer.

use std::hash::{BuildHasherDefault, Hash, Hasher};

/// The Fx string/word hash used by rustc: a rotate-xor-multiply over
/// 64-bit words. Far cheaper than SipHash for small integer keys; not
/// DoS-resistant, which is irrelevant for simulator-internal tables.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// Keys of [`FoldHasher`]: the first 128 fraction bits of pi.
const FOLD_KEYS: [u64; 2] = [0x243f_6a88_85a3_08d3, 0x1319_8a2e_0370_7344];

/// The full 64×64→128-bit product of `a` and `b`, its halves xor-folded.
#[inline]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let full = u128::from(a) * u128::from(b);
    (full as u64) ^ ((full >> 64) as u64)
}

/// murmur3's 64-bit finalizer: every input bit flips each output bit with
/// probability close to one half.
#[inline]
fn fmix64(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
    k ^= k >> 33;
    k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    k ^= k >> 33;
    k
}

/// A 64-bit hasher for state fingerprints: each written word is folded
/// into the state by one 64×64→128-bit multiply of the keyed state and the
/// keyed word, and [`Hasher::finish`] applies murmur3's `fmix64`.
///
/// It costs a multiply per word, where SipHash-1-3 runs a permutation
/// round per 8 bytes plus three at the end. Like [`FxHasher`] it is not
/// DoS-resistant; unlike it, the finish avalanches, so the result can be
/// summed in a [`MultisetHash`] or compared as a 64-bit fingerprint.
#[derive(Debug, Default, Clone, Copy)]
pub struct FoldHasher {
    acc: u64,
}

impl FoldHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.acc = folded_multiply(self.acc ^ FOLD_KEYS[0], word ^ FOLD_KEYS[1]);
    }
}

impl Hasher for FoldHasher {
    #[inline]
    fn finish(&self) -> u64 {
        fmix64(self.acc)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// An order-independent hash of a multiset: the entry count and the
/// wrapping sum of every entry's [`FoldHasher`] hash. Equal multisets hash
/// equal whatever order they are folded in, so a hash table can be folded
/// straight from its iterator, without collecting and sorting it first.
///
/// ```
/// use lrc_sim::table::MultisetHash;
/// let a: MultisetHash = [3u64, 1, 2].iter().collect();
/// let b: MultisetHash = [2u64, 3, 1].iter().collect();
/// assert_eq!(a, b);
/// assert_ne!(a, [1u64, 2].iter().collect());
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MultisetHash {
    count: u64,
    sum: u64,
}

impl<T: Hash> FromIterator<T> for MultisetHash {
    fn from_iter<I: IntoIterator<Item = T>>(entries: I) -> Self {
        let mut m = MultisetHash::default();
        for e in entries {
            let mut h = FoldHasher::default();
            e.hash(&mut h);
            m.count += 1;
            m.sum = m.sum.wrapping_add(h.finish());
        }
        m
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;
/// `HashMap` with the Fx hash.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;
/// `HashSet` with the Fx hash.
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

/// The index slot marking a vacant key.
const VACANT: u32 = u32::MAX;

/// A map from dense `u64` keys (line, page or word numbers) to `V`: a
/// 4-byte slot per key of range, indexing values packed in insert order.
///
/// The index is sized to one past the largest key set since the map was
/// last empty, so it costs 4 bytes per key of range; each occupied key
/// adds its key and its value. Point operations are O(1) with no hashing.
/// [`LineMap::remove`] moves the last value into the freed slot, and a map
/// emptied by it clears its index, so a clone of an empty map allocates
/// nothing. [`LineMap::iter`] and [`LineMap::keys`] walk the index, so
/// they yield entries in ascending key order whatever order they were
/// inserted in, and two maps are equal when they hold the same entries.
#[derive(Debug, Clone)]
pub struct LineMap<V> {
    /// Per key, the slot of its value, or [`VACANT`].
    index: Vec<u32>,
    /// Per slot, its key.
    keys: Vec<u64>,
    /// Per slot, its value.
    vals: Vec<V>,
}

impl<V> Default for LineMap<V> {
    fn default() -> Self {
        LineMap::new()
    }
}

impl<V> LineMap<V> {
    /// An empty map.
    pub fn new() -> Self {
        LineMap { index: Vec::new(), keys: Vec::new(), vals: Vec::new() }
    }

    /// Number of occupied entries.
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// No occupied entries?
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// The slot of `key`'s value, if it has one.
    #[inline]
    fn slot(&self, key: u64) -> Option<usize> {
        match self.index.get(usize::try_from(key).ok()?) {
            Some(&slot) if slot != VACANT => Some(slot as usize),
            _ => None,
        }
    }

    /// Append `value` as the entry of the vacant `key`; returns its slot.
    fn push(&mut self, key: u64, value: V) -> usize {
        let i = usize::try_from(key).expect("LineMap key fits in usize");
        if i >= self.index.len() {
            // `Vec` grows its capacity geometrically, so a rising sweep of
            // keys costs amortized O(1) each, and the spare capacity is
            // never written.
            self.index.resize(i + 1, VACANT);
        }
        let slot = self.vals.len();
        assert!(slot < VACANT as usize, "LineMap holds under 2^32 - 1 entries");
        self.index[i] = slot as u32;
        self.keys.push(key);
        self.vals.push(value);
        slot
    }

    /// The value at `key`, if present.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&V> {
        self.slot(key).map(|s| &self.vals[s])
    }

    /// Mutable value at `key`, if present.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        self.slot(key).map(|s| &mut self.vals[s])
    }

    /// Is there an entry at `key`?
    #[inline]
    pub fn contains_key(&self, key: u64) -> bool {
        self.slot(key).is_some()
    }

    /// Insert `value` at `key`, returning the previous value if any.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        match self.slot(key) {
            Some(s) => Some(std::mem::replace(&mut self.vals[s], value)),
            None => {
                self.push(key, value);
                None
            }
        }
    }

    /// Remove and return the entry at `key`. The last value moves into its
    /// slot.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let s = self.slot(key)?;
        self.index[key as usize] = VACANT;
        self.keys.swap_remove(s);
        let value = self.vals.swap_remove(s);
        if let Some(&moved) = self.keys.get(s) {
            self.index[moved as usize] = s as u32;
        }
        if self.keys.is_empty() {
            // The index keeps its capacity, but a clone (the model
            // checker's, per state) copies nothing and a walk scans nothing.
            self.index.clear();
        }
        Some(value)
    }

    /// The entry at `key`, inserting `V::default()` first if vacant.
    #[inline]
    pub fn entry_or_default(&mut self, key: u64) -> &mut V
    where
        V: Default,
    {
        self.entry_or_insert_with(key, V::default)
    }

    /// The entry at `key`, inserting `make()` first if vacant.
    #[inline]
    pub fn entry_or_insert_with(&mut self, key: u64, make: impl FnOnce() -> V) -> &mut V {
        let s = match self.slot(key) {
            Some(s) => s,
            None => self.push(key, make()),
        };
        &mut self.vals[s]
    }

    /// Iterate `(key, &value)` in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        let set = self.index.iter().enumerate().filter(|&(_, &slot)| slot != VACANT);
        set.map(|(key, &slot)| (key as u64, &self.vals[slot as usize]))
    }

    /// Iterate occupied keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter().map(|(k, _)| k)
    }
}

impl<V: PartialEq> PartialEq for LineMap<V> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_map_point_operations() {
        let mut m: LineMap<u32> = LineMap::new();
        assert!(m.is_empty());
        assert_eq!(m.get(7), None);
        assert_eq!(m.insert(7, 70), None);
        assert_eq!(m.insert(7, 71), Some(70));
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(7), Some(&71));
        *m.get_mut(7).unwrap() += 1;
        assert_eq!(m.remove(7), Some(72));
        assert_eq!(m.remove(7), None);
        assert!(m.is_empty());
    }

    #[test]
    fn line_map_grows_to_key() {
        let mut m: LineMap<u8> = LineMap::new();
        m.insert(10_000, 1);
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(10_000), Some(&1));
        assert_eq!(m.get(9_999), None);
    }

    #[test]
    fn line_map_index_grows_exactly_to_the_largest_key() {
        let mut m: LineMap<u64> = LineMap::new();
        for k in 0..=999 {
            m.insert(k, k);
        }
        assert_eq!(m.index.len(), 1_000);
        assert_eq!((m.keys.len(), m.vals.len()), (1_000, 1_000));
    }

    #[test]
    fn emptied_line_map_clones_allocate_nothing() {
        let mut m: LineMap<u64> = LineMap::new();
        for k in [40, 3, 17] {
            m.insert(k, k);
        }
        for k in [3, 40, 17] {
            assert_eq!(m.remove(k), Some(k));
        }
        assert!(m.is_empty() && m.iter().next().is_none());
        let c = m.clone();
        assert_eq!(c.index.capacity() + c.keys.capacity() + c.vals.capacity(), 0);
        assert_eq!(m, LineMap::new());
    }

    #[test]
    fn line_maps_with_the_same_entries_are_equal_whatever_the_insert_order() {
        let mut a: LineMap<u8> = LineMap::new();
        let mut b: LineMap<u8> = LineMap::new();
        for k in [5, 1, 300] {
            a.insert(k, k as u8);
        }
        for k in [300, 5, 1, 7] {
            b.insert(k, k as u8);
        }
        assert_ne!(a, b);
        b.remove(7);
        assert_eq!(a, b);
        b.insert(1, 9);
        assert_ne!(a, b);
    }

    /// `LineMap` against `BTreeMap` over a seeded stream of inserts,
    /// overwrites, removals (of a middle, the last-inserted and an absent
    /// key), drains to empty and refills: after every step both agree on
    /// every point lookup, the length, the listing and equality.
    #[test]
    fn line_map_matches_a_btree_map_model() {
        use crate::rng::Rng;
        use std::collections::BTreeMap;
        const RANGE: u64 = 96;
        let mut rng = Rng::new(0x7ab1e);
        let (mut m, mut model) = (LineMap::<u64>::new(), BTreeMap::<u64, u64>::new());
        let mut last_inserted = 0;
        for step in 0..20_000u64 {
            let key = rng.below(RANGE);
            match rng.below(10) {
                // Insert a fresh key or overwrite a present one.
                0..=3 => {
                    assert_eq!(m.insert(key, step), model.insert(key, step), "step {step}");
                    last_inserted = key;
                }
                // Remove a present key from the middle of the listing.
                4 => {
                    let mid = model.keys().nth(model.len() / 2).copied();
                    if let Some(k) = mid {
                        assert_eq!(m.remove(k), model.remove(&k), "step {step}");
                    }
                }
                // Remove the key inserted last (the last packed slot, unless
                // a removal has moved it since).
                5 => assert_eq!(m.remove(last_inserted), model.remove(&last_inserted)),
                // Remove a key that may be absent, or lies past the index.
                6 => {
                    let k = key + RANGE * rng.below(2);
                    assert_eq!(m.remove(k), model.remove(&k), "step {step}");
                }
                7 => {
                    *m.entry_or_default(key) += 1;
                    *model.entry(key).or_default() += 1;
                }
                8 => {
                    if let (Some(v), Some(w)) = (m.get_mut(key), model.get_mut(&key)) {
                        *v ^= step;
                        *w ^= step;
                    }
                }
                // Drain to empty, in a random order, then refill.
                _ if step % 7 == 0 => {
                    let mut keys: Vec<u64> = model.keys().copied().collect();
                    rng.shuffle(&mut keys);
                    for k in keys {
                        assert_eq!(m.remove(k), model.remove(&k), "step {step}");
                    }
                    assert!(m.is_empty() && m.index.is_empty(), "step {step}");
                    assert_eq!(m, LineMap::new());
                }
                _ => {}
            }
            for k in 0..RANGE + 1 {
                assert_eq!(m.get(k), model.get(&k), "step {step}, key {k}");
                assert_eq!(m.contains_key(k), model.contains_key(&k));
            }
            assert_eq!(m.len(), model.len(), "step {step}");
            assert!(m.iter().eq(model.iter().map(|(&k, v)| (k, v))), "step {step}");
            let mut rebuilt = LineMap::new();
            for (&k, &v) in model.iter().rev() {
                rebuilt.insert(k, v);
            }
            assert_eq!(m, rebuilt, "step {step}");
        }
    }

    #[test]
    fn line_map_entry_or_default() {
        let mut m: LineMap<u64> = LineMap::new();
        *m.entry_or_default(3) |= 0b10;
        *m.entry_or_default(3) |= 0b01;
        assert_eq!(m.get(3), Some(&0b11));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn line_map_iterates_in_ascending_key_order() {
        let mut m: LineMap<&str> = LineMap::new();
        for k in [9, 2, 40, 0, 17] {
            m.insert(k, "x");
        }
        let keys: Vec<u64> = m.keys().collect();
        assert_eq!(keys, vec![0, 2, 9, 17, 40]);
        assert_eq!(m.iter().count(), 5);
    }

    #[test]
    fn fx_maps_work_with_u64_keys() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for k in 0..100u64 {
            m.insert(k, k * 2);
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m.get(&40), Some(&80));
        let mut s: FxHashSet<u64> = FxHashSet::default();
        s.insert(5);
        assert!(s.contains(&5) && !s.contains(&6));
    }

    fn fold_hash(entry: impl Hash) -> u64 {
        let mut h = FoldHasher::default();
        entry.hash(&mut h);
        h.finish()
    }

    #[test]
    fn fold_hash_has_no_collision_on_structured_tuples() {
        // 2^20 tuples of small integers, shaped like fingerprint inputs:
        // line numbers, node ids, flags and small counts.
        let mut hashes = Vec::with_capacity(1 << 20);
        for a in 0..64u64 {
            for b in 0..64u32 {
                for c in 0..16u8 {
                    for d in [false, true] {
                        for e in 0..8usize {
                            hashes.push(fold_hash((a, b, c, d, e)));
                        }
                    }
                }
            }
        }
        let n = hashes.len();
        assert_eq!(n, 1 << 20);
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), n, "{} colliding hashes", n - hashes.len());
    }

    #[test]
    fn fold_hash_flips_half_the_output_bits_per_input_bit() {
        // Flip each of the 128 bits of a two-word input, over 1,000 small
        // inputs: each flip must change 32 of the 64 output bits on
        // average (the standard error of each mean is about 0.13 bits).
        for bit in 0..128u32 {
            let mut flipped = 0u32;
            for i in 0..1000u64 {
                let (x, y) = (i % 37, i / 37);
                let (fx, fy) = if bit < 64 { (x ^ 1 << bit, y) } else { (x, y ^ 1 << (bit - 64)) };
                flipped += (fold_hash((x, y)) ^ fold_hash((fx, fy))).count_ones();
            }
            let mean = f64::from(flipped) / 1000.0;
            assert!((30.0..=34.0).contains(&mean), "input bit {bit} flips {mean} output bits");
        }
    }

    #[test]
    fn multiset_hash_ignores_order_and_counts_entries() {
        let fwd: MultisetHash = (0..100u64).map(|k| (k, k * 3)).collect();
        let rev: MultisetHash = (0..100u64).rev().map(|k| (k, k * 3)).collect();
        assert_eq!(fwd, rev);
        let missing: MultisetHash = (1..100u64).map(|k| (k, k * 3)).collect();
        let changed: MultisetHash = (0..100u64).map(|k| (k, k * 3 + u64::from(k == 50))).collect();
        assert_ne!(fwd, missing);
        assert_ne!(fwd, changed);
        assert_ne!(MultisetHash::default(), [0u64].iter().collect());
    }

    #[test]
    fn fx_hash_differs_across_keys() {
        use std::hash::BuildHasher;
        let b = FxBuildHasher::default();
        let hash = |k: u64| b.hash_one(k);
        assert_ne!(hash(1), hash(2));
        assert_eq!(hash(42), hash(42));
    }
}
