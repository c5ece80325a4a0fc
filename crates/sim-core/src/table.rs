//! Dense and hash-based lookup tables for line-addressed kernel state.
//!
//! The simulator keys almost all protocol metadata by line address, and line
//! addresses are dense small integers (workload allocators hand out compact
//! address spaces starting at zero, and `LineAddr` is the byte address
//! shifted down by the line-size bits). Three structures exploit that:
//!
//! * [`LineMap`] — a `Vec`-indexed slab for tables where most lines
//!   eventually get an entry (the directory). O(1) access with no hashing
//!   at all, and iteration is in ascending key order for free, which the
//!   deterministic fingerprint/diagnostic paths rely on.
//! * [`PackedMap`] — a [`SlotIndex`] of slot numbers into a packed `Vec`,
//!   for large values over keys only some of which get one (the race
//!   detector's per-word metadata, the value tracker's home image). Same
//!   O(1) access and ascending iteration, at 4 bytes per key of range plus
//!   one value per occupied key.
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

/// A map from dense `u64` keys (line or page indices) to `V`, stored as a
/// `Vec<Option<V>>` slab that grows to the largest key touched.
///
/// All point operations are O(1) with no hashing; [`LineMap::iter`] and
/// [`LineMap::keys`] walk the slab and therefore yield entries in ascending
/// key order — deterministic by construction.
#[derive(Debug, Clone)]
pub struct LineMap<V> {
    slots: Vec<Option<V>>,
    len: usize,
}

impl<V> Default for LineMap<V> {
    fn default() -> Self {
        LineMap::new()
    }
}

impl<V> LineMap<V> {
    /// An empty map.
    pub fn new() -> Self {
        LineMap { slots: Vec::new(), len: 0 }
    }

    /// Number of occupied entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// No occupied entries?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn slot_mut(&mut self, key: u64) -> &mut Option<V> {
        let idx = usize::try_from(key).expect("LineMap key fits in usize");
        if idx >= self.slots.len() {
            // Grow geometrically so a rising address sweep costs amortized
            // O(1) per new line rather than O(n) per insert.
            let cap = (idx + 1).max(self.slots.len() * 2).max(16);
            self.slots.resize_with(cap, || None);
        }
        &mut self.slots[idx]
    }

    /// The value at `key`, if present.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&V> {
        self.slots.get(key as usize).and_then(|s| s.as_ref())
    }

    /// Mutable value at `key`, if present.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        self.slots.get_mut(key as usize).and_then(|s| s.as_mut())
    }

    /// Is there an entry at `key`?
    #[inline]
    pub fn contains_key(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Insert `value` at `key`, returning the previous value if any.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        let slot = self.slot_mut(key);
        let old = slot.replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Remove and return the entry at `key`.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let old = self.slots.get_mut(key as usize).and_then(|s| s.take());
        if old.is_some() {
            self.len -= 1;
        }
        old
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
        if !self.contains_key(key) {
            self.insert(key, make());
        }
        self.get_mut(key).expect("slot just filled")
    }

    /// Iterate `(key, &value)` in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|v| (i as u64, v)))
    }

    /// Iterate occupied keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter().map(|(k, _)| k)
    }
}

/// A dense index from `u64` keys to `u32` slot numbers: a `Vec<u32>` that
/// grows to the largest key set and marks a vacant key with `u32::MAX`,
/// so a key of range costs 4 bytes where a `LineMap<u32>` spends 8.
/// [`SlotIndex::iter`] yields the set keys in ascending order.
#[derive(Debug, Clone, Default)]
pub struct SlotIndex {
    slots: Vec<u32>,
}

impl SlotIndex {
    /// The slot marking a vacant key.
    const VACANT: u32 = u32::MAX;

    /// An empty index.
    pub fn new() -> Self {
        SlotIndex { slots: Vec::new() }
    }

    /// The slot at `key`, if set.
    #[inline]
    pub fn get(&self, key: u64) -> Option<u32> {
        match self.slots.get(usize::try_from(key).ok()?) {
            Some(&slot) if slot != Self::VACANT => Some(slot),
            _ => None,
        }
    }

    /// Set `key`'s slot to `slot`, which must be below `u32::MAX`.
    pub fn set(&mut self, key: u64, slot: u32) {
        assert!(slot != Self::VACANT, "slot {slot} is the vacant marker");
        let i = usize::try_from(key).expect("SlotIndex key fits in usize");
        if i >= self.slots.len() {
            // `Vec` grows its capacity geometrically, so a rising sweep of
            // keys costs amortized O(1) each, and the spare capacity is
            // never written.
            self.slots.resize(i + 1, Self::VACANT);
        }
        self.slots[i] = slot;
    }

    /// Unset `key`'s slot.
    pub fn unset(&mut self, key: u64) {
        if let Some(slot) = usize::try_from(key).ok().and_then(|i| self.slots.get_mut(i)) {
            *slot = Self::VACANT;
        }
    }

    /// Unset every key. The index keeps its capacity, and a clone of it
    /// allocates nothing until a key is set again.
    pub fn clear(&mut self) {
        self.slots.clear();
    }

    /// Iterate `(key, slot)` over the set keys in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        let set = self.slots.iter().enumerate().filter(|&(_, &slot)| slot != Self::VACANT);
        set.map(|(key, &slot)| (key as u64, slot))
    }
}

/// A map from dense `u64` keys to `V`, stored as a [`SlotIndex`] into a
/// packed `Vec<V>` in first-insert order. Entries are never removed.
///
/// Point operations are O(1) with no hashing. [`PackedMap::iter`] walks the
/// index, so it yields entries in ascending key order whatever order they
/// were inserted in, and two maps are equal when they hold the same entries.
#[derive(Debug, Clone)]
pub struct PackedMap<V> {
    index: SlotIndex,
    vals: Vec<V>,
}

impl<V> Default for PackedMap<V> {
    fn default() -> Self {
        PackedMap::new()
    }
}

impl<V> PackedMap<V> {
    /// An empty map.
    pub fn new() -> Self {
        PackedMap { index: SlotIndex::new(), vals: Vec::new() }
    }

    /// Append `value` as the entry of the vacant `key`.
    fn push(&mut self, key: u64, value: V) -> usize {
        let slot = self.vals.len();
        self.index.set(key, u32::try_from(slot).expect("PackedMap holds under 2^32 - 1 entries"));
        self.vals.push(value);
        slot
    }

    /// The entry at `key`, inserting `make()` first if vacant.
    #[inline]
    pub fn get_or_insert_with(&mut self, key: u64, make: impl FnOnce() -> V) -> &mut V {
        let slot = match self.index.get(key) {
            Some(slot) => slot as usize,
            None => self.push(key, make()),
        };
        &mut self.vals[slot]
    }

    /// Set the entry at `key` to `value`.
    #[inline]
    pub fn insert(&mut self, key: u64, value: V) {
        match self.index.get(key) {
            Some(slot) => self.vals[slot as usize] = value,
            None => {
                self.push(key, value);
            }
        }
    }

    /// Iterate `(key, &value)` in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.index.iter().map(|(key, slot)| (key, &self.vals[slot as usize]))
    }
}

impl<V: PartialEq> PartialEq for PackedMap<V> {
    fn eq(&self, other: &Self) -> bool {
        self.vals.len() == other.vals.len() && self.iter().eq(other.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_index_sets_clears_and_iterates_in_key_order() {
        let mut ix = SlotIndex::new();
        assert_eq!(ix.get(3), None);
        for (k, slot) in [(9, 0), (2, 1), (40, 2)] {
            ix.set(k, slot);
        }
        ix.set(2, 7);
        ix.unset(9);
        ix.unset(1_000);
        assert_eq!((ix.get(2), ix.get(9), ix.get(41)), (Some(7), None, None));
        assert_eq!(ix.iter().collect::<Vec<_>>(), [(2, 7), (40, 2)]);
        ix.clear();
        assert_eq!((ix.get(2), ix.iter().count()), (None, 0));
    }

    #[test]
    fn packed_map_point_operations_and_key_order() {
        let mut m: PackedMap<u64> = PackedMap::new();
        assert_eq!(m.iter().count(), 0);
        for k in [9, 2, 40, 0, 17] {
            *m.get_or_insert_with(k, || 0) += k;
        }
        *m.get_or_insert_with(2, || unreachable!("occupied")) += 1;
        m.insert(40, 7);
        let entries: Vec<(u64, u64)> = m.iter().map(|(k, &v)| (k, v)).collect();
        assert_eq!(entries, vec![(0, 0), (2, 3), (9, 9), (17, 17), (40, 7)]);
    }

    #[test]
    fn packed_maps_with_the_same_entries_are_equal_whatever_the_insert_order() {
        let mut a: PackedMap<u8> = PackedMap::new();
        let mut b: PackedMap<u8> = PackedMap::new();
        for k in [5, 1, 300] {
            a.insert(k, k as u8);
        }
        for k in [300, 5, 1] {
            b.insert(k, k as u8);
        }
        assert_eq!(a, b);
        b.insert(1, 9);
        assert_ne!(a, b);
    }

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
