//! Share-based distributed placement.
//!
//! Both NDPExt's stream caches (RShares, paper §IV-B) and the partitioned
//! baseline DRAM caches spread a partition's contents over per-unit *shares*
//! of cache slots: unit `u` contributes `shares[u]` slots, and each key is
//! hashed to one global slot, then mapped to the owning unit and the slot
//! offset within that unit's share.

use ndpx_sim::rng::{hash_range, mix64};

/// A partition's allocation of slots across units, with hashed placement.
///
/// # Examples
///
/// ```
/// use ndpx_cache::placement::SharePlacement;
///
/// // Units 0 and 1 contribute 8 and 6 slots (the paper's Fig. 3 example).
/// let p = SharePlacement::new(vec![8, 6]);
/// let (unit, slot) = p.locate(44).expect("non-empty");
/// assert!(unit < 2);
/// assert!(slot < p.shares()[unit]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharePlacement {
    shares: Vec<u64>,
    /// prefix[i] = sum of shares[..i]; prefix.len() == shares.len() + 1.
    prefix: Vec<u64>,
}

impl SharePlacement {
    /// Creates a placement from per-unit slot counts.
    pub fn new(shares: Vec<u64>) -> Self {
        let mut prefix = Vec::with_capacity(shares.len() + 1);
        let mut acc = 0;
        prefix.push(0);
        for &s in &shares {
            acc += s;
            prefix.push(acc);
        }
        SharePlacement { shares, prefix }
    }

    /// An empty placement over `units` units.
    pub fn empty(units: usize) -> Self {
        Self::new(vec![0; units])
    }

    /// Per-unit slot counts.
    pub fn shares(&self) -> &[u64] {
        &self.shares
    }

    /// Total slots across all units.
    pub fn total(&self) -> u64 {
        *self.prefix.last().expect("prefix is never empty")
    }

    /// Maps `key` to `(unit index, slot offset within that unit's share)`.
    ///
    /// Returns `None` when the placement has no slots.
    pub fn locate(&self, key: u64) -> Option<(usize, u64)> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        let global = hash_range(key, total);
        self.locate_global(global)
    }

    /// Maps an already-computed global slot to `(unit, offset)`.
    ///
    /// Exposed so consistent-hash remapping can reuse the share structure.
    pub fn locate_global(&self, global: u64) -> Option<(usize, u64)> {
        if global >= self.total() {
            return None;
        }
        // partition_point returns the first prefix entry > global; the unit
        // index is one before it.
        let unit = self.prefix.partition_point(|&p| p <= global) - 1;
        Some((unit, global - self.prefix[unit]))
    }

    /// A second-level hash distributing `key` within `n` slots; used to pick
    /// a replica among equivalent choices.
    pub fn subhash(key: u64, salt: u64, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            ((mix64(key ^ mix64(salt)) as u128 * n as u128) >> 64) as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locate_respects_share_sizes() {
        let p = SharePlacement::new(vec![8, 6, 0, 2]);
        assert_eq!(p.total(), 16);
        let mut counts = [0u64; 4];
        for key in 0..16_000 {
            let (unit, slot) = p.locate(key).unwrap();
            assert!(slot < p.shares()[unit], "slot {slot} exceeds share at unit {unit}");
            counts[unit] += 1;
        }
        // Distribution proportional to shares: 8:6:0:2.
        assert_eq!(counts[2], 0);
        assert!(counts[0] > counts[1] && counts[1] > counts[3]);
        let frac0 = counts[0] as f64 / 16_000.0;
        assert!((frac0 - 0.5).abs() < 0.05, "unit 0 got {frac0}");
    }

    #[test]
    fn empty_placement_locates_nothing() {
        let p = SharePlacement::empty(4);
        assert_eq!(p.total(), 0);
        assert_eq!(p.locate(123), None);
    }

    #[test]
    fn locate_global_round_trips() {
        let p = SharePlacement::new(vec![3, 5, 1]);
        for g in 0..9 {
            let (unit, off) = p.locate_global(g).unwrap();
            // Reconstruct the global index.
            let base: u64 = p.shares()[..unit].iter().sum();
            assert_eq!(base + off, g);
        }
        assert_eq!(p.locate_global(9), None);
    }

    #[test]
    fn placement_is_deterministic() {
        let p = SharePlacement::new(vec![4, 4]);
        let q = SharePlacement::new(vec![4, 4]);
        for key in 0..100 {
            assert_eq!(p.locate(key), q.locate(key));
        }
    }

    #[test]
    fn subhash_varies_with_salt() {
        let a = SharePlacement::subhash(42, 0, 100);
        let b = SharePlacement::subhash(42, 1, 100);
        assert!(a < 100 && b < 100);
        assert_ne!(a, b, "different salts should (almost surely) differ");
        assert_eq!(SharePlacement::subhash(42, 0, 0), 0);
    }
}
