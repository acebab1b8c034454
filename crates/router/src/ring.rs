//! The consistent-hash ring: canonical MLDG fingerprint → shard.
//!
//! Each shard owns `vnodes` points on a `u64` ring, placed by a seeded
//! splitmix64 hash of `(shard, vnode)` — deterministic across router
//! restarts, so a fingerprint always lands on the same shard for a given
//! fleet size. Lookup walks clockwise from the key to the first point
//! whose shard is *live*; dead shards are skipped in place rather than
//! removed, which is what gives the minimal-remap property: when a shard
//! dies, only the keys it owned move (to their next clockwise live
//! owner), and every other key keeps its shard. When it comes back, the
//! same keys move home again.

use mdf_chaos::splitmix64;

/// Default virtual nodes per shard. Enough to spread load within ~20% of
/// even for small fleets without making lookup tables large.
pub const DEFAULT_VNODES: u32 = 16;

/// A fixed-membership consistent-hash ring with per-shard liveness.
#[derive(Clone, Debug)]
pub struct Ring {
    /// `(point, shard)` sorted by point.
    points: Vec<(u64, u32)>,
    live: Vec<bool>,
}

impl Ring {
    /// Builds the ring for `shards` shards with `vnodes` points each
    /// (all live). `shards` must be ≥ 1.
    pub fn new(shards: u32, vnodes: u32) -> Ring {
        assert!(shards >= 1, "a ring needs at least one shard");
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity((shards * vnodes) as usize);
        for shard in 0..shards {
            for vnode in 0..vnodes {
                // Seed each point from (shard, vnode) so membership, not
                // insertion order, determines the layout.
                let mut state = ((shard as u64) << 32) | vnode as u64;
                points.push((splitmix64(&mut state), shard));
            }
        }
        points.sort_unstable();
        Ring {
            points,
            live: vec![true; shards as usize],
        }
    }

    /// Number of shards (live or not).
    pub fn shards(&self) -> u32 {
        self.live.len() as u32
    }

    /// Number of currently live shards.
    pub fn live_count(&self) -> usize {
        self.live.iter().filter(|l| **l).count()
    }

    /// Whether `shard` is currently live.
    pub fn is_live(&self, shard: u32) -> bool {
        self.live.get(shard as usize).copied().unwrap_or(false)
    }

    /// Marks a shard live or dead. Dead shards keep their points; they
    /// are skipped during lookup, so only their keys remap.
    pub fn set_live(&mut self, shard: u32, live: bool) {
        if let Some(l) = self.live.get_mut(shard as usize) {
            *l = live;
        }
    }

    /// The live shard owning `key`: the first clockwise point (wrapping)
    /// whose shard is live. `None` when every shard is dead.
    pub fn owner(&self, key: u64) -> Option<u32> {
        if self.points.is_empty() {
            return None;
        }
        let start = self.points.partition_point(|(p, _)| *p < key);
        for i in 0..self.points.len() {
            let (_, shard) = self.points[(start + i) % self.points.len()];
            if self.live[shard as usize] {
                return Some(shard);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_key_has_exactly_one_live_owner() {
        let ring = Ring::new(4, DEFAULT_VNODES);
        for k in 0..1000u64 {
            let key = k.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let owner = ring.owner(key).expect("all shards live");
            assert!(owner < 4);
            // Deterministic: same key, same owner.
            assert_eq!(ring.owner(key), Some(owner));
        }
    }

    #[test]
    fn death_remaps_only_the_dead_shards_keys() {
        let mut ring = Ring::new(4, DEFAULT_VNODES);
        let keys: Vec<u64> = (0..2000u64)
            .map(|k| k.wrapping_mul(0x517c_c1b7_2722_0a95))
            .collect();
        let before: Vec<u32> = keys.iter().map(|k| ring.owner(*k).unwrap()).collect();
        ring.set_live(2, false);
        for (k, owner_before) in keys.iter().zip(&before) {
            let owner_after = ring.owner(*k).unwrap();
            if *owner_before == 2 {
                assert_ne!(owner_after, 2, "dead shard still owns key {k:#x}");
            } else {
                assert_eq!(
                    owner_after, *owner_before,
                    "key {k:#x} moved although its shard survived"
                );
            }
        }
        // Revival moves exactly those keys home again.
        ring.set_live(2, true);
        let revived: Vec<u32> = keys.iter().map(|k| ring.owner(*k).unwrap()).collect();
        assert_eq!(revived, before);
    }

    #[test]
    fn all_dead_means_no_owner() {
        let mut ring = Ring::new(2, 4);
        ring.set_live(0, false);
        ring.set_live(1, false);
        assert_eq!(ring.owner(42), None);
        assert_eq!(ring.live_count(), 0);
    }
}
