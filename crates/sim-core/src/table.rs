//! Dense and hash-based lookup tables for line-addressed kernel state.
//!
//! The simulator keys almost all protocol metadata by line address, and line
//! addresses are dense small integers (workload allocators hand out compact
//! address spaces starting at zero, and `LineAddr` is the byte address
//! shifted down by the line-size bits). Two structures exploit that:
//!
//! * [`LineMap`] — a `Vec`-indexed slab for tables where most lines
//!   eventually get an entry (the directory). O(1) access with no hashing
//!   at all, and iteration is in ascending key order for free, which the
//!   deterministic fingerprint/diagnostic paths rely on.
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
