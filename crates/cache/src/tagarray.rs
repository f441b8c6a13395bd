//! Externally-indexed tag arrays for DRAM-cache contents.
//!
//! Unlike [`crate::setassoc::SetAssocCache`], which hashes keys to sets
//! internally, a [`TagArray`] is indexed by a *slot* supplied by the caller —
//! the placement layer (shares, replication groups) decides where a key may
//! live, and the tag array only records what currently occupies each slot.
//! This models both the baselines' in-DRAM cacheline tags and NDPExt's
//! affine/indirect stream caches.

use ndpx_sim::fastdiv::Divisor;

use crate::setassoc::Outcome;

/// A resizable tag array of `slots` entries grouped into sets of `ways`.
///
/// Slot indices come from the placement layer. With `ways == 1` the array is
/// direct-mapped (the paper's default for indirect streams); higher
/// associativity groups consecutive slots into one set with LRU replacement
/// (evaluated in Fig. 9a).
///
/// A per-slot valid bitset tracks which slots hold a key, so enumerating,
/// counting, or emptying the resident set costs O(resident + slots / 64)
/// rather than a scan of every slot, and [`TagArray::reset`] re-sizes an
/// array in place for a reconfiguration instead of allocating a new one.
///
/// A slot costs 4 bytes of tag plus a valid and a dirty bit, so keys must
/// be below `u32::MAX`; `NdpSystem::new` rejects any stream whose keys
/// could reach it.
///
/// # Examples
///
/// ```
/// use ndpx_cache::tagarray::TagArray;
///
/// let mut tags = TagArray::new(64, 1);
/// assert!(!tags.access(5, 1000, false).is_hit());
/// assert!(tags.access(5, 1000, false).is_hit());
/// // Direct-mapped: a different key in the same slot evicts.
/// assert!(!tags.access(5, 2000, false).is_hit());
/// assert!(!tags.access(5, 1000, false).is_hit());
/// ```
#[derive(Debug, Clone)]
pub struct TagArray {
    ways: usize,
    sets: u64,
    /// Strength-reduced `% sets` for slot reduction (divisor 1 while the
    /// array is empty); rebuilt by [`TagArray::reset`].
    set_div: Divisor,
    /// Key + 1 per physical slot; 0 = invalid.
    tags: Vec<u32>,
    /// One bit per slot, set only while the slot is valid and dirty.
    dirty: Vec<u64>,
    /// LRU stamps, empty when direct-mapped: with one way the only
    /// candidate victim is the slot itself, so no stamp is ever compared.
    /// A stamp is written whenever its slot is filled and read only while
    /// the slot is valid, so stale stamps in empty slots are harmless.
    lru: Vec<u32>,
    /// One bit per slot, set exactly while the slot's tag is non-zero.
    valid: Vec<u64>,
    /// Number of set bits in `valid`.
    live: u64,
    tick: u32,
}

impl TagArray {
    /// Creates an array of `slots` entries at the given associativity.
    ///
    /// If `slots` is not a multiple of `ways` the remainder slots are
    /// dropped (a partition loses at most `ways - 1` slots).
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero.
    pub fn new(slots: u64, ways: usize) -> Self {
        let mut t = TagArray {
            ways: 1,
            sets: 0,
            set_div: Divisor::new(1),
            tags: Vec::new(),
            dirty: Vec::new(),
            lru: Vec::new(),
            valid: Vec::new(),
            live: 0,
            tick: 0,
        };
        t.reset(slots, ways);
        t
    }

    /// Empties the array and re-sizes it to `slots` entries at `ways`,
    /// reusing its buffers. Afterwards the array behaves exactly like
    /// `TagArray::new(slots, ways)`; the cost is O(resident + slots / 64)
    /// plus zeroing whatever the buffers grow by.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero.
    pub fn reset(&mut self, slots: u64, ways: usize) {
        assert!(ways > 0, "associativity must be at least 1");
        self.invalidate_all();
        // A tiny allocation (fewer slots than ways) degrades gracefully to
        // a fully-associative array over the available slots.
        let ways = ways.min(slots.max(1) as usize);
        let sets = slots / ways as u64;
        let n = (sets * ways as u64) as usize;
        // Every slot below the old length is empty now, so only growth is
        // zeroed.
        self.tags.resize(n, 0);
        self.dirty.resize(n.div_ceil(64), 0);
        self.lru.resize(if ways > 1 { n } else { 0 }, 0);
        self.valid.resize(n.div_ceil(64), 0);
        self.ways = ways;
        self.sets = sets;
        self.set_div = Divisor::new(sets.max(1));
        self.tick = 0;
    }

    /// Number of usable slots.
    pub fn slots(&self) -> u64 {
        self.sets * self.ways as u64
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.sets
    }

    /// Records that the empty slot `i` now holds a key.
    fn mark_valid(&mut self, i: usize) {
        self.valid[i / 64] |= 1 << (i % 64);
        self.live += 1;
    }

    fn is_dirty(&self, i: usize) -> bool {
        self.dirty[i / 64] >> (i % 64) & 1 != 0
    }

    fn set_dirty(&mut self, i: usize, dirty: bool) {
        let w = &mut self.dirty[i / 64];
        *w = *w & !(1 << (i % 64)) | u64::from(dirty) << (i % 64);
    }

    /// Marks slot `i` dirty on a write; a read leaves it as it was.
    fn or_dirty(&mut self, i: usize, write: bool) {
        self.dirty[i / 64] |= u64::from(write) << (i % 64);
    }

    /// Accesses `key` at placement `slot` (reduced mod the set count),
    /// filling on miss.
    pub fn access(&mut self, slot: u64, key: u64, write: bool) -> Outcome {
        if self.sets == 0 {
            return Outcome::Miss { evicted: None };
        }
        let set = self.set_div.rem(slot) as usize;
        let tag = tag_of(key);
        if self.ways == 1 {
            let old = self.tags[set];
            if old == tag {
                self.or_dirty(set, write);
                return Outcome::Hit;
            }
            let evicted = if old != 0 {
                Some((u64::from(old - 1), self.is_dirty(set)))
            } else {
                self.mark_valid(set);
                None
            };
            self.tags[set] = tag;
            self.set_dirty(set, write);
            return Outcome::Miss { evicted };
        }

        self.tick += 1;
        let base = set * self.ways;
        for i in base..base + self.ways {
            if self.tags[i] == tag {
                self.lru[i] = self.tick;
                self.or_dirty(i, write);
                return Outcome::Hit;
            }
        }

        let victim = (base..base + self.ways)
            .min_by_key(|&i| if self.tags[i] == 0 { (0, 0) } else { (1, self.lru[i]) })
            .expect("ways >= 1");
        let evicted = if self.tags[victim] != 0 {
            Some((u64::from(self.tags[victim] - 1), self.is_dirty(victim)))
        } else {
            self.mark_valid(victim);
            None
        };
        self.tags[victim] = tag;
        self.set_dirty(victim, write);
        self.lru[victim] = self.tick;
        Outcome::Miss { evicted }
    }

    /// Checks for `key` at `slot` without filling.
    pub fn probe(&self, slot: u64, key: u64) -> bool {
        if self.sets == 0 {
            return false;
        }
        let base = self.set_div.rem(slot) as usize * self.ways;
        self.tags[base..base + self.ways].contains(&tag_of(key))
    }

    /// Invalidates everything; returns `(valid, dirty)` counts. Touches
    /// only resident slots.
    pub fn invalidate_all(&mut self) -> (u64, u64) {
        let mut dirty = 0;
        for w in 0..self.valid.len() {
            let valid = std::mem::take(&mut self.valid[w]);
            dirty += u64::from(std::mem::take(&mut self.dirty[w]).count_ones());
            for b in SetBits(valid) {
                self.tags[w * 64 + b] = 0;
            }
        }
        (std::mem::take(&mut self.live), dirty)
    }

    /// Iterates over resident `(key, dirty)` entries in ascending slot
    /// order.
    pub fn entries(&self) -> impl Iterator<Item = (u64, bool)> + '_ {
        self.valid
            .iter()
            .enumerate()
            .flat_map(|(w, &bits)| SetBits(bits).map(move |b| w * 64 + b))
            .map(|i| (u64::from(self.tags[i] - 1), self.is_dirty(i)))
    }

    /// Installs `key` at `slot` only if a free way exists (no eviction);
    /// returns whether it was installed. Used when adopting entries across
    /// a reconfiguration. The entry ranks least recently used (stamp 0),
    /// as every way of a fresh array does.
    pub fn install_if_free(&mut self, slot: u64, key: u64, dirty: bool) -> bool {
        if self.sets == 0 {
            return false;
        }
        let base = self.set_div.rem(slot) as usize * self.ways;
        if let Some(j) = (base..base + self.ways).find(|&j| self.tags[j] == 0) {
            self.tags[j] = tag_of(key);
            self.set_dirty(j, dirty);
            if self.ways > 1 {
                self.lru[j] = 0;
            }
            self.mark_valid(j);
            true
        } else {
            false
        }
    }

    /// Number of valid entries.
    pub fn occupancy(&self) -> u64 {
        self.live
    }
}

/// The stored tag of `key`: key + 1, so that 0 marks an empty slot.
#[inline]
fn tag_of(key: u64) -> u32 {
    debug_assert!(key < u64::from(u32::MAX), "cache key {key} exceeds the 32-bit tag");
    key as u32 + 1
}

/// The indices of a word's set bits, ascending.
struct SetBits(u64);

impl Iterator for SetBits {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let b = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_mapped_conflicts() {
        let mut t = TagArray::new(4, 1);
        assert!(!t.access(0, 100, false).is_hit());
        assert!(t.access(0, 100, false).is_hit());
        match t.access(0, 200, true) {
            Outcome::Miss { evicted: Some((100, false)) } => {}
            other => panic!("unexpected {other:?}"),
        }
        assert!(t.probe(0, 200));
        assert!(!t.probe(0, 100));
    }

    #[test]
    fn associative_sets_avoid_conflicts() {
        let mut t = TagArray::new(8, 2);
        assert_eq!(t.sets(), 4);
        t.access(0, 100, false);
        t.access(0, 200, false);
        // Both fit in the 2-way set.
        assert!(t.access(0, 100, false).is_hit());
        assert!(t.access(0, 200, false).is_hit());
        // Third key evicts the least recently touched (100: the re-touches
        // above ended with 200).
        match t.access(0, 300, false) {
            Outcome::Miss { evicted: Some((k, _)) } => assert_eq!(k, 100),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn zero_slots_always_miss() {
        let mut t = TagArray::new(0, 1);
        assert_eq!(t.access(0, 1, false), Outcome::Miss { evicted: None });
        assert!(!t.probe(7, 1));
        assert_eq!(t.occupancy(), 0);
    }

    #[test]
    fn invalidate_all_reports_dirty() {
        let mut t = TagArray::new(8, 1);
        t.access(0, 1, true);
        t.access(1, 2, false);
        assert_eq!(t.invalidate_all(), (2, 1));
        assert_eq!(t.occupancy(), 0);
    }

    #[test]
    fn ways_truncation() {
        let t = TagArray::new(7, 2);
        assert_eq!(t.slots(), 6);
    }

    #[test]
    fn tiny_allocations_keep_capacity() {
        // One slot at 4-way must still cache one entry, not zero.
        let mut t = TagArray::new(1, 4);
        assert_eq!(t.slots(), 1);
        assert!(!t.access(0, 42, false).is_hit());
        assert!(t.access(0, 42, false).is_hit());
        let t3 = TagArray::new(3, 4);
        assert_eq!(t3.slots(), 3);
    }

    #[test]
    fn entries_and_install_if_free() {
        let mut t = TagArray::new(4, 2);
        t.access(0, 10, true);
        t.access(1, 20, false);
        let mut es: Vec<_> = t.entries().collect();
        es.sort_unstable();
        assert_eq!(es, vec![(10, true), (20, false)]);
        // Fill set 0's both ways, then a third install must fail.
        assert!(t.install_if_free(0, 30, false));
        assert!(!t.install_if_free(0, 40, false));
    }

    #[test]
    fn reset_empties_and_resizes_in_place() {
        let mut t = TagArray::new(8, 2);
        t.access(0, 1, true);
        t.access(3, 2, false);
        t.reset(130, 1);
        assert_eq!((t.slots(), t.sets(), t.occupancy()), (130, 130, 0));
        assert_eq!(t.entries().count(), 0);
        assert!(!t.probe(0, 1));
        assert!(t.install_if_free(129, 7, true));
        assert_eq!(t.entries().collect::<Vec<_>>(), vec![(7, true)]);
        assert_eq!(t.invalidate_all(), (1, 1));
    }
}
