//! Randomized property tests for the cache structures: set-associative LRU
//! caches, share placement, and tag arrays.
//!
//! Cases are driven by the workspace's seeded [`Xoshiro256`] so the suite is
//! deterministic and needs no external property-testing framework.

use ndpx_cache::placement::SharePlacement;
use ndpx_cache::setassoc::{Outcome, SetAssocCache, MEMO_SLOTS};
use ndpx_cache::tagarray::TagArray;
use ndpx_sim::rng::Xoshiro256;

#[test]
fn setassoc_occupancy_never_exceeds_capacity() {
    let mut rng = Xoshiro256::seed_from(0x0CC);
    for _ in 0..64 {
        let sets = 1 + rng.below(31) as usize;
        let ways = 1 + rng.below(7) as usize;
        let n = 1 + rng.below(399) as usize;
        let keys: Vec<u64> = (0..n).map(|_| rng.below(10_000)).collect();
        let mut c = SetAssocCache::new(sets, ways);
        for &k in &keys {
            c.access(k, false);
        }
        assert!(c.occupancy() <= sets * ways);
        assert_eq!(c.stats().accesses(), keys.len() as u64);
    }
}

#[test]
fn setassoc_access_then_probe_hits() {
    let mut rng = Xoshiro256::seed_from(0xF00);
    for _ in 0..128 {
        let sets = 1 + rng.below(31) as usize;
        let ways = 1 + rng.below(7) as usize;
        let key = rng.below(10_000);
        let mut c = SetAssocCache::new(sets, ways);
        c.access(key, false);
        assert!(c.probe(key), "just-inserted key must be resident");
        assert!(c.access(key, false).is_hit());
    }
}

#[test]
fn setassoc_invalidate_removes() {
    let mut rng = Xoshiro256::seed_from(0x1BAD);
    for _ in 0..64 {
        let n = 1 + rng.below(99) as usize;
        let keys: Vec<u64> = (0..n).map(|_| rng.below(1000)).collect();
        let mut c = SetAssocCache::new(64, 4);
        for &k in &keys {
            c.access(k, true);
        }
        for &k in &keys {
            c.invalidate(k);
            assert!(!c.probe(k));
        }
        assert_eq!(c.occupancy(), 0);
    }
}

#[test]
fn share_placement_is_total_and_bounded() {
    let mut rng = Xoshiro256::seed_from(0x51AB);
    for _ in 0..64 {
        let units = 1 + rng.below(15) as usize;
        let shares: Vec<u64> = (0..units).map(|_| rng.below(64)).collect();
        let p = SharePlacement::new(shares.clone());
        let total: u64 = shares.iter().sum();
        for _ in 0..200 {
            let k = rng.below(100_000);
            match p.locate(k) {
                Some((u, slot)) => {
                    assert!(total > 0);
                    assert!(u < shares.len());
                    assert!(slot < shares[u], "slot {slot} >= share {}", shares[u]);
                }
                None => assert_eq!(total, 0),
            }
        }
    }
}

#[test]
fn share_placement_distribution_tracks_shares() {
    let mut rng = Xoshiro256::seed_from(0xD157);
    for _ in 0..16 {
        let a = 1 + rng.below(31);
        let b = 1 + rng.below(31);
        let p = SharePlacement::new(vec![a * 64, b * 64]);
        let n = 40_000u64;
        let hits_a = (0..n).filter(|&k| p.locate(k).expect("non-empty").0 == 0).count() as f64;
        let expect = a as f64 / (a + b) as f64;
        let got = hits_a / n as f64;
        assert!((got - expect).abs() < 0.05, "expected {expect:.3}, got {got:.3}");
    }
}

#[test]
fn tagarray_hit_follows_miss_at_same_slot() {
    let mut rng = Xoshiro256::seed_from(0x7A6);
    for _ in 0..64 {
        let slots = 1 + rng.below(255);
        let ways = 1 + rng.below(7) as usize;
        let n = 1 + rng.below(99) as usize;
        let mut t = TagArray::new(slots, ways);
        for _ in 0..n {
            let slot = rng.below(slots);
            let key = rng.below(100_000);
            t.access(slot, key, false);
            assert!(t.probe(slot, key), "key must be resident right after access");
        }
        assert!(t.occupancy() <= t.slots());
    }
}

/// The dense-scan tag array the bitset-indexed [`TagArray`] replaced, kept
/// as an oracle: every query scans every slot. It drops the deleted hit and
/// miss counters, and one line differs from the original: `install_if_free`
/// stamps the entry 0. The original left the slot's previous stamp in
/// place, which equals 0 on a fresh array (the only place it was ever
/// called) but is stale after `invalidate_all`.
#[derive(Clone)]
struct DenseTags {
    ways: usize,
    sets: u64,
    tags: Vec<u64>,
    dirty: Vec<bool>,
    lru: Vec<u32>,
    tick: u32,
}

impl DenseTags {
    fn new(slots: u64, ways: usize) -> Self {
        let ways = ways.min(slots.max(1) as usize);
        let sets = slots / ways as u64;
        let n = (sets * ways as u64) as usize;
        DenseTags { ways, sets, tags: vec![0; n], dirty: vec![false; n], lru: vec![0; n], tick: 0 }
    }

    fn access(&mut self, slot: u64, key: u64, write: bool) -> Outcome {
        if self.sets == 0 {
            return Outcome::Miss { evicted: None };
        }
        self.tick += 1;
        let base = (slot % self.sets) as usize * self.ways;
        for i in base..base + self.ways {
            if self.tags[i] == key + 1 {
                self.lru[i] = self.tick;
                self.dirty[i] |= write;
                return Outcome::Hit;
            }
        }
        let victim = (base..base + self.ways)
            .min_by_key(|&i| if self.tags[i] == 0 { (0, 0) } else { (1, self.lru[i]) })
            .expect("ways >= 1");
        let evicted = (self.tags[victim] != 0).then(|| (self.tags[victim] - 1, self.dirty[victim]));
        self.tags[victim] = key + 1;
        self.dirty[victim] = write;
        self.lru[victim] = self.tick;
        Outcome::Miss { evicted }
    }

    fn probe(&self, slot: u64, key: u64) -> bool {
        if self.sets == 0 {
            return false;
        }
        let base = (slot % self.sets) as usize * self.ways;
        self.tags[base..base + self.ways].iter().any(|&t| t == key + 1)
    }

    fn invalidate_all(&mut self) -> (u64, u64) {
        let (mut valid, mut dirty) = (0, 0);
        for i in 0..self.tags.len() {
            if self.tags[i] != 0 {
                valid += 1;
                dirty += u64::from(self.dirty[i]);
            }
            self.tags[i] = 0;
            self.dirty[i] = false;
        }
        (valid, dirty)
    }

    fn entries(&self) -> Vec<(u64, bool)> {
        self.tags
            .iter()
            .zip(&self.dirty)
            .filter(|(&t, _)| t != 0)
            .map(|(&t, &d)| (t - 1, d))
            .collect()
    }

    fn install_if_free(&mut self, slot: u64, key: u64, dirty: bool) -> bool {
        if self.sets == 0 {
            return false;
        }
        let base = (slot % self.sets) as usize * self.ways;
        if let Some(j) = (base..base + self.ways).find(|&j| self.tags[j] == 0) {
            self.tags[j] = key + 1;
            self.dirty[j] = dirty;
            self.lru[j] = 0;
            true
        } else {
            false
        }
    }

    fn occupancy(&self) -> u64 {
        self.tags.iter().filter(|&&t| t != 0).count() as u64
    }
}

/// A random geometry: `ways` in 1..=8, slot counts including zero, fewer
/// slots than ways, and counts that are not a multiple of `ways`.
fn random_geometry(rng: &mut Xoshiro256) -> (u64, usize) {
    let ways = 1 + rng.below(8) as usize;
    let slots = match rng.below(4) {
        0 => 0,
        1 => rng.below(ways as u64 + 1),
        _ => rng.below(300),
    };
    (slots, ways)
}

fn assert_same(t: &TagArray, o: &DenseTags, ctx: &str) {
    assert_eq!((t.slots(), t.sets()), (o.sets * o.ways as u64, o.sets), "{ctx}: geometry");
    assert_eq!(t.occupancy(), o.occupancy(), "{ctx}: occupancy");
    assert_eq!(t.entries().collect::<Vec<_>>(), o.entries(), "{ctx}: entries");
}

/// Drives `t` and `o` through the same seeded mix of fills, installs and
/// probes, checking every outcome.
fn drive(rng: &mut Xoshiro256, t: &mut TagArray, o: &mut DenseTags, ops: usize, ctx: &str) {
    // A small key space so hits, conflicts and duplicates all occur; slots
    // range past the set count to exercise the modulo. Half the runs place
    // it at the top of the 32-bit tag range, ending at `u32::MAX - 1`.
    let keys = 1 + rng.below(400);
    let lowest = if rng.below(2) == 0 { 0 } else { u64::from(u32::MAX) - keys };
    for step in 0..ops {
        let (slot, key, flag) = (rng.below(400), lowest + rng.below(keys), rng.below(3) == 0);
        match rng.below(10) {
            0..=4 => {
                assert_eq!(t.access(slot, key, flag), o.access(slot, key, flag), "{ctx}@{step}")
            }
            5..=7 => assert_eq!(
                t.install_if_free(slot, key, flag),
                o.install_if_free(slot, key, flag),
                "{ctx}@{step}"
            ),
            _ => assert_eq!(t.probe(slot, key), o.probe(slot, key), "{ctx}@{step}"),
        }
    }
    assert_same(t, o, ctx);
}

#[test]
fn tagarray_matches_dense_scan_oracle() {
    let mut rng = Xoshiro256::seed_from(0xB175);
    for case in 0..200 {
        let (slots, ways) = random_geometry(&mut rng);
        let mut t = TagArray::new(slots, ways);
        let mut o = DenseTags::new(slots, ways);
        for round in 0..8 {
            let ctx = format!("case {case} round {round}");
            let ops = 1 + rng.below(300) as usize;
            drive(&mut rng, &mut t, &mut o, ops, &ctx);
            match rng.below(3) {
                0 => assert_eq!(t.invalidate_all(), o.invalidate_all(), "{ctx}: invalidate_all"),
                1 => {
                    let (slots, ways) = random_geometry(&mut rng);
                    t.reset(slots, ways);
                    o = DenseTags::new(slots, ways);
                }
                _ => {}
            }
            assert_same(&t, &o, &ctx);
        }
    }
}

#[test]
fn tagarray_reset_matches_fresh_array() {
    let mut rng = Xoshiro256::seed_from(0x2E5E7);
    for case in 0..200 {
        let ctx = format!("case {case}");
        let (slots, ways) = random_geometry(&mut rng);
        let mut reused = TagArray::new(slots, ways);
        let mut o = DenseTags::new(slots, ways);
        let ops = rng.below(500) as usize;
        drive(&mut rng, &mut reused, &mut o, ops, &ctx);
        let (slots, ways) = random_geometry(&mut rng);
        reused.reset(slots, ways);
        let mut fresh = TagArray::new(slots, ways);
        let mut o = DenseTags::new(slots, ways);
        // A reconfiguration's reinstall first, then a mixed epoch, the same
        // on both arrays: the reused buffers' stale LRU stamps must never
        // decide a victim.
        for _ in 0..rng.below(300) {
            let (slot, key, dirty) = (rng.below(400), rng.below(1000), rng.below(2) == 0);
            let installed = o.install_if_free(slot, key, dirty);
            assert_eq!(reused.install_if_free(slot, key, dirty), installed, "{ctx}");
            assert_eq!(fresh.install_if_free(slot, key, dirty), installed, "{ctx}");
        }
        assert_same(&reused, &o, &ctx);
        let mut fresh_rng = rng.clone();
        let mut fresh_o = o.clone();
        drive(&mut rng, &mut reused, &mut o, 400, &ctx);
        drive(&mut fresh_rng, &mut fresh, &mut fresh_o, 400, &ctx);
        assert_eq!(reused.entries().collect::<Vec<_>>(), fresh.entries().collect::<Vec<_>>());
    }
}

/// The set-associative cache before its way memo, kept as an oracle:
/// every access hashes the key to its set and scans the set's ways. The
/// code is the original's, without `with_capacity` and `register_stats`.
mod scan {
    use ndpx_cache::setassoc::{CacheStats, Outcome};
    use ndpx_sim::rng::mix64;

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

    #[derive(Debug, Clone)]
    pub struct SetAssocCache {
        sets: usize,
        set_mask: Option<u64>,
        ways: usize,
        lines: Vec<Way>,
        tick: u64,
        stats: CacheStats,
    }

    impl SetAssocCache {
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

        #[inline]
        fn set_of(&self, key: u64) -> usize {
            let h = mix64(key);
            match self.set_mask {
                Some(mask) => (h & mask) as usize,
                None => (h % self.sets as u64) as usize,
            }
        }

        pub fn access(&mut self, key: u64, write: bool) -> Outcome {
            let base = self.set_of(key) * self.ways;
            if self.hit_at(base, key, write) {
                return Outcome::Hit;
            }
            self.fill_at(base, key, write)
        }

        #[inline]
        pub fn access_if_hit(&mut self, key: u64, write: bool) -> bool {
            let base = self.set_of(key) * self.ways;
            self.hit_at(base, key, write)
        }

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

        pub fn probe(&self, key: u64) -> bool {
            let set = self.set_of(key);
            let base = set * self.ways;
            self.lines[base..base + self.ways].iter().any(|w| w.tag == key + 1)
        }

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

        pub fn stats(&self) -> &CacheStats {
            &self.stats
        }

        pub fn occupancy(&self) -> usize {
            self.lines.iter().filter(|w| w.tag != 0).count()
        }
    }
}

/// The next key of a seeded stream that mixes the memo's case (the same
/// or the next line, as a stream walk issues them) with jumps across a
/// small key space, so hits, conflicts, evictions and stale memos all
/// occur.
fn next_key(rng: &mut Xoshiro256, prev: u64, keys: u64) -> u64 {
    match rng.below(8) {
        0..=2 => prev,
        3..=4 => (prev + 1) % keys,
        _ => rng.below(keys),
    }
}

#[test]
fn memoized_cache_matches_the_set_scan_oracle() {
    let mut rng = Xoshiro256::seed_from(0x3E30);
    for case in 0..400 {
        let ways = 1 + rng.below(8) as usize;
        // One set (the SLB's shape), powers of two, and other set counts.
        let sets = match rng.below(3) {
            0 => 1,
            1 => 1 << rng.below(6),
            _ => 3 + 2 * rng.below(20) as usize,
        };
        let keys = 1 + rng.below(4 * (sets * ways) as u64);
        // Up to 20 interleaved walks, each hinted as the front end hints a
        // stream (its index, so walks past MEMO_SLOTS share a slot), with
        // random hints, or all through slot 0.
        let walks = 1 + rng.below(20) as usize;
        let hints = rng.below(3);
        let mut c = SetAssocCache::new(sets, ways);
        let mut o = scan::SetAssocCache::new(sets, ways);
        let mut at = vec![0; walks];
        for step in 0..1500 {
            let walk = rng.below(walks as u64) as usize;
            at[walk] = next_key(&mut rng, at[walk], keys);
            let key = at[walk];
            let hint = match hints {
                0 => walk,
                1 => rng.below(3 * MEMO_SLOTS as u64) as usize,
                _ => 0,
            };
            let ctx = format!("case {case} ({sets}x{ways}, {keys} keys) step {step} hint {hint}");
            let write = rng.chance(0.3);
            match rng.below(20) {
                0..=4 => assert_eq!(c.access(key, write), o.access(key, write), "{ctx}: access"),
                5..=9 => assert_eq!(
                    c.access_hinted(key, write, hint),
                    o.access(key, write),
                    "{ctx}: access_hinted"
                ),
                10..=14 => assert_eq!(
                    c.access_if_hit(key, write, hint),
                    o.access_if_hit(key, write),
                    "{ctx}: access_if_hit"
                ),
                15..=16 => assert_eq!(c.probe(key), o.probe(key), "{ctx}: probe"),
                17..=18 => assert_eq!(c.invalidate(key), o.invalidate(key), "{ctx}: invalidate"),
                _ if rng.chance(0.1) => {
                    assert_eq!(c.invalidate_all(), o.invalidate_all(), "{ctx}: invalidate_all")
                }
                _ => {}
            }
            assert_eq!(c.stats(), o.stats(), "{ctx}: stats");
            if step % 64 == 0 {
                assert_eq!(c.occupancy(), o.occupancy(), "{ctx}: occupancy");
            }
        }
        assert_eq!(c.occupancy(), o.occupancy(), "case {case}: occupancy");
    }
}
