//! Generic set-associative cache with LRU replacement.
//!
//! Used for the per-core L1 data caches, the baselines' SRAM metadata caches,
//! and NDPExt's affine tag array (ATA). The cache tracks presence and
//! dirtiness only — the simulator never stores data contents.

use ndpx_sim::rng::mix64;
use ndpx_sim::stats::Counter;

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The line was present.
    Hit,
    /// The line was filled; `evicted` reports a victim writeback if the
    /// victim was dirty.
    Miss {
        /// Evicted line's key and whether it was dirty.
        evicted: Option<(u64, bool)>,
    },
}

impl Outcome {
    /// True on [`Outcome::Hit`].
    pub const fn is_hit(&self) -> bool {
        matches!(self, Outcome::Hit)
    }
}

/// Cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: Counter,
    /// Accesses that missed.
    pub misses: Counter,
    /// Dirty evictions (writebacks).
    pub writebacks: Counter,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits.get() + self.misses.get()
    }

    /// Hit rate over all accesses (0 when empty).
    pub fn hit_rate(&self) -> f64 {
        self.hits.ratio_of(self.accesses())
    }
}

#[derive(Debug, Clone, Copy)]
struct Way {
    /// Key + 1; zero means invalid.
    tag: u64,
    dirty: bool,
    lru: u64,
}

impl Way {
    const EMPTY: Way = Way { tag: 0, dirty: false, lru: 0 };
}

/// A set-associative, LRU, write-back cache over opaque `u64` keys.
///
/// Callers supply *keys* (e.g. `addr / line_bytes`); the cache does not
/// interpret them beyond hashing to a set.
///
/// # Examples
///
/// ```
/// use ndpx_cache::setassoc::SetAssocCache;
///
/// let mut l1 = SetAssocCache::new(16, 4);
/// assert!(!l1.access(42, false).is_hit());
/// assert!(l1.access(42, false).is_hit());
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    sets: usize,
    /// `sets - 1` when `sets` is a power of two: `hash % sets` and
    /// `hash & mask` agree exactly, and the mask avoids a divide on every
    /// access.
    set_mask: Option<u64>,
    ways: usize,
    lines: Vec<Way>,
    tick: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates an empty cache of `sets × ways` lines.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0, "cache must have at least one line");
        SetAssocCache {
            sets,
            set_mask: if sets.is_power_of_two() { Some(sets as u64 - 1) } else { None },
            ways,
            lines: vec![Way::EMPTY; sets * ways],
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Creates a cache sized for `capacity_bytes` of `line_bytes` lines at
    /// the given associativity (sets rounded down, minimum 1).
    pub fn with_capacity(capacity_bytes: u64, line_bytes: u64, ways: usize) -> Self {
        let lines = (capacity_bytes / line_bytes).max(1) as usize;
        let sets = (lines / ways).max(1);
        Self::new(sets, ways)
    }

    #[inline]
    fn set_of(&self, key: u64) -> usize {
        let h = mix64(key);
        match self.set_mask {
            Some(mask) => (h & mask) as usize,
            None => (h % self.sets as u64) as usize,
        }
    }

    /// Accesses `key`, filling on miss. `write` marks the line dirty.
    pub fn access(&mut self, key: u64, write: bool) -> Outcome {
        let base = self.set_of(key) * self.ways;
        if self.hit_at(base, key, write) {
            return Outcome::Hit;
        }
        self.fill_at(base, key, write)
    }

    /// Accesses `key` only if it is present: on a hit this does exactly
    /// what [`access`](Self::access) does (recency, dirty bit, stats) and
    /// returns `true`; on a miss it leaves the cache untouched and returns
    /// `false`, so a later `access` of the same key sees the same state.
    #[inline]
    pub fn access_if_hit(&mut self, key: u64, write: bool) -> bool {
        let base = self.set_of(key) * self.ways;
        self.hit_at(base, key, write)
    }

    /// The hit half of an access to the set starting at `base`.
    #[inline]
    fn hit_at(&mut self, base: usize, key: u64, write: bool) -> bool {
        let Some(w) = self.lines[base..base + self.ways].iter_mut().find(|w| w.tag == key + 1)
        else {
            return false;
        };
        self.tick += 1;
        w.lru = self.tick;
        w.dirty |= write;
        self.stats.hits.inc();
        true
    }

    /// The miss half: fills `key` into the set starting at `base`.
    fn fill_at(&mut self, base: usize, key: u64, write: bool) -> Outcome {
        self.tick += 1;
        self.stats.misses.inc();
        let ways = &mut self.lines[base..base + self.ways];
        // Choose an invalid way, else the LRU way.
        let victim = ways
            .iter()
            .enumerate()
            .min_by_key(|(_, w)| if w.tag == 0 { (0, 0) } else { (1, w.lru) })
            .map(|(i, _)| i)
            .expect("ways is non-empty");
        let w = &mut ways[victim];
        let evicted = if w.tag != 0 {
            if w.dirty {
                self.stats.writebacks.inc();
            }
            Some((w.tag - 1, w.dirty))
        } else {
            None
        };
        *w = Way { tag: key + 1, dirty: write, lru: self.tick };
        Outcome::Miss { evicted }
    }

    /// Checks for `key` without filling or updating recency.
    pub fn probe(&self, key: u64) -> bool {
        let set = self.set_of(key);
        let base = set * self.ways;
        self.lines[base..base + self.ways].iter().any(|w| w.tag == key + 1)
    }

    /// Invalidates `key` if present; returns whether it was dirty.
    pub fn invalidate(&mut self, key: u64) -> Option<bool> {
        let set = self.set_of(key);
        let base = set * self.ways;
        for w in &mut self.lines[base..base + self.ways] {
            if w.tag == key + 1 {
                let dirty = w.dirty;
                *w = Way::EMPTY;
                return Some(dirty);
            }
        }
        None
    }

    /// Invalidates every line; returns the number that were valid.
    pub fn invalidate_all(&mut self) -> usize {
        let mut n = 0;
        for w in &mut self.lines {
            if w.tag != 0 {
                n += 1;
                *w = Way::EMPTY;
            }
        }
        n
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Publishes hit/miss/writeback counters and occupancy under `scope`.
    pub fn register_stats(&self, scope: &mut ndpx_sim::telemetry::StatScope<'_>) {
        scope.count("hits", self.stats.hits.get());
        scope.count("misses", self.stats.misses.get());
        scope.count("writebacks", self.stats.writebacks.get());
        scope.gauge("hit_rate", self.stats.hit_rate());
        scope.count("occupancy", self.occupancy() as u64);
    }

    /// Number of valid lines.
    pub fn occupancy(&self) -> usize {
        self.lines.iter().filter(|w| w.tag != 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut c = SetAssocCache::new(4, 2);
        assert_eq!(c.access(1, false), Outcome::Miss { evicted: None });
        assert!(c.access(1, false).is_hit());
        assert_eq!(c.stats().hits.get(), 1);
        assert_eq!(c.stats().misses.get(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // Single set, 2 ways: find three keys in the same set.
        let mut c = SetAssocCache::new(1, 2);
        c.access(10, false);
        c.access(20, false);
        c.access(10, false); // 20 is now LRU
        match c.access(30, false) {
            Outcome::Miss { evicted: Some((key, dirty)) } => {
                assert_eq!(key, 20);
                assert!(!dirty);
            }
            other => panic!("expected eviction of 20, got {other:?}"),
        }
        assert!(c.probe(10));
        assert!(!c.probe(20));
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = SetAssocCache::new(1, 1);
        c.access(1, true);
        let out = c.access(2, false);
        assert_eq!(out, Outcome::Miss { evicted: Some((1, true)) });
        assert_eq!(c.stats().writebacks.get(), 1);
    }

    #[test]
    fn write_marks_dirty_on_hit() {
        let mut c = SetAssocCache::new(1, 1);
        c.access(1, false);
        c.access(1, true);
        assert_eq!(c.invalidate(1), Some(true));
        assert_eq!(c.invalidate(1), None);
    }

    #[test]
    fn probe_does_not_fill() {
        let mut c = SetAssocCache::new(4, 2);
        assert!(!c.probe(99));
        assert!(!c.access(99, false).is_hit());
    }

    #[test]
    fn invalidate_matching_and_all() {
        let mut c = SetAssocCache::new(16, 4);
        for k in 0..32 {
            c.access(k, false);
        }
        // Hashed sets may conflict, so fewer than 32 keys can be resident.
        let before = c.occupancy();
        assert!(before > 0);
        let evens = (0..32).step_by(2).filter(|&k| c.invalidate(k).is_some()).count();
        assert!(evens > 0);
        assert_eq!(c.occupancy(), before - evens);
        assert_eq!(c.invalidate_all(), before - evens);
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn access_if_hit_matches_access_on_hits_and_is_inert_on_misses() {
        // Drive two caches with the same keys; one takes the `access_if_hit`
        // probe before every access. Whatever the probe says, the caches
        // must end up in the same state with the same stats.
        let mut plain = SetAssocCache::new(4, 2);
        let mut probed = SetAssocCache::new(4, 2);
        for i in 0..200u64 {
            let key = (i * 7 + i / 3) % 13;
            let write = i % 5 == 0;
            let expect = plain.access(key, write);
            if probed.access_if_hit(key, write) {
                assert_eq!(expect, Outcome::Hit);
            } else {
                assert_eq!(probed.access(key, write), expect);
            }
        }
        assert_eq!(plain.stats(), probed.stats());
        assert_eq!(plain.tick, probed.tick);
        for key in 0..13 {
            assert_eq!(plain.invalidate(key), probed.invalidate(key));
        }
    }

    #[test]
    fn with_capacity_sizing() {
        // 64 kB / 64 B lines / 4 ways = 256 sets (the paper's L1D).
        let c = SetAssocCache::with_capacity(64 << 10, 64, 4);
        assert_eq!(c.sets * c.ways, 1024);
    }

    #[test]
    fn hit_rate_reporting() {
        let mut c = SetAssocCache::new(64, 4);
        for _ in 0..3 {
            c.access(7, false);
        }
        assert!((c.stats().hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }
}
