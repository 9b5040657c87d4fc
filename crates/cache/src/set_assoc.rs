//! A generic set-associative, write-back / write-allocate cache.
//!
//! Tags are full 64-bit line addresses, so addresses from the overlay
//! address space (MSB set, §4.1 of the paper) are cached exactly like
//! regular physical addresses — the property that lets the paper's design
//! treat overlay cache accesses "very similarly to regular cache
//! accesses" (§3.3). The extra tag width is charged as hardware cost in
//! `po-sim::config::hardware_cost`.

use crate::config::CacheConfig;
use crate::replacement::Replacement;
use po_types::{Counter, PhysAddr};

/// A line evicted by a fill.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Evicted {
    /// Line base address of the victim.
    pub addr: PhysAddr,
    /// Whether the victim was dirty (must be written back).
    pub dirty: bool,
}

po_types::stats! {
    /// Per-cache statistics.
    #[derive(Clone, Debug, Default)]
    pub struct CacheStats: "cache_level" {
        /// Lookup hits.
        pub hits: Counter,
        /// Lookup misses.
        pub misses: Counter,
        /// Fills performed.
        pub fills: Counter,
        /// Dirty evictions (writebacks generated).
        pub writebacks: Counter,
    }
}

impl CacheStats {
    /// Hit rate over all lookups.
    pub fn hit_rate(&self) -> f64 {
        po_types::stats::ratio(self.hits.get(), self.hits.get() + self.misses.get())
    }
}

/// The cache structure.
///
/// The tag store is flat: one `u64` line address per way, set-major,
/// plus one valid and one dirty bitmask per set, so a lookup scans a
/// contiguous run of tags and a fill picks a free way from the mask.
///
/// # Example
///
/// ```
/// use po_cache::{CacheConfig, SetAssocCache};
/// use po_types::PhysAddr;
///
/// let mut c = SetAssocCache::new(CacheConfig::table2_l1());
/// let a = PhysAddr::new(0x1040);
/// assert!(!c.access(a, false));
/// c.fill(a, false);
/// assert!(c.access(a, true)); // write hit marks the line dirty
/// assert_eq!(c.invalidate_line(a), Some(true));
/// ```
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    config: CacheConfig,
    ways: usize,
    /// `sets - 1`; the set count is a power of two.
    set_mask: u64,
    /// Full line address per way, `set * ways + way`. An invalidated way
    /// keeps its stale tag (the snapshot encodes it).
    tags: Vec<u64>,
    /// Per-set valid bits, bit `w` = way `w`.
    valid: Vec<u64>,
    /// Per-set dirty bits, bit `w` = way `w`.
    dirty: Vec<u64>,
    replacement: Replacement,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration yields zero sets or ways, more than
    /// 64 ways, or a set count that is not a power of two.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let ways = config.ways;
        assert!(sets > 0 && ways > 0, "degenerate cache geometry");
        assert!(ways <= 64, "{ways} ways exceed the 64-bit per-set masks");
        assert!(sets.is_power_of_two(), "cache set count {sets} is not a power of two");
        let replacement = Replacement::new(config.policy, sets, ways);
        Self {
            ways,
            set_mask: sets as u64 - 1,
            tags: vec![0; sets * ways],
            valid: vec![0; sets],
            dirty: vec![0; sets],
            replacement,
            stats: CacheStats::default(),
            config,
        }
    }

    /// Returns the configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Returns accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    #[inline]
    fn line_tag(addr: PhysAddr) -> u64 {
        addr.line_base().raw()
    }

    #[inline]
    fn set_of(&self, addr: PhysAddr) -> usize {
        ((addr.raw() >> po_types::geometry::LINE_SHIFT) & self.set_mask) as usize
    }

    #[inline]
    fn find(&self, set: usize, tag: u64) -> Option<usize> {
        let base = set * self.ways;
        // Branch-free compare of the whole set, then the lowest valid match.
        let matches = self.tags[base..base + self.ways]
            .iter()
            .enumerate()
            .fold(0u64, |m, (w, &t)| m | ((t == tag) as u64) << w)
            & self.valid[set];
        (matches != 0).then(|| matches.trailing_zeros() as usize)
    }

    /// Looks up `addr`; on a hit updates replacement state and, if
    /// `is_write`, marks the line dirty. Returns whether the line was
    /// present.
    pub fn access(&mut self, addr: PhysAddr, is_write: bool) -> bool {
        let set = self.set_of(addr);
        match self.find(set, Self::line_tag(addr)) {
            Some(w) => {
                self.stats.hits.inc();
                self.replacement.on_hit(set, w);
                if is_write {
                    self.dirty[set] |= 1 << w;
                }
                true
            }
            None => {
                self.stats.misses.inc();
                false
            }
        }
    }

    /// Checks for presence without perturbing replacement state or stats.
    pub fn probe(&self, addr: PhysAddr) -> bool {
        let set = self.set_of(addr);
        self.find(set, Self::line_tag(addr)).is_some()
    }

    /// Installs the line containing `addr`, evicting a victim if the set
    /// is full. Returns the victim if one was displaced.
    pub fn fill(&mut self, addr: PhysAddr, dirty: bool) -> Option<Evicted> {
        let set = self.set_of(addr);
        let tag = Self::line_tag(addr);
        if let Some(w) = self.find(set, tag) {
            // Already present (e.g. racing prefetch): just update state.
            self.stats.fills.inc();
            if dirty {
                self.dirty[set] |= 1 << w;
            }
            self.replacement.on_hit(set, w);
            return None;
        }
        self.install(set, tag, dirty)
    }

    /// [`fill`](Self::fill) for a line the caller has just seen miss at
    /// this level: installs without searching the set again.
    pub(crate) fn fill_absent(&mut self, addr: PhysAddr, dirty: bool) -> Option<Evicted> {
        let set = self.set_of(addr);
        let tag = Self::line_tag(addr);
        debug_assert!(self.find(set, tag).is_none(), "fill_absent of a resident line");
        self.install(set, tag, dirty)
    }

    /// Puts `tag` into `set`: the lowest free way, else the replacement
    /// policy's victim.
    fn install(&mut self, set: usize, tag: u64, dirty: bool) -> Option<Evicted> {
        self.stats.fills.inc();
        let free = !self.valid[set] & (u64::MAX >> (64 - self.ways));
        let way =
            if free != 0 { free.trailing_zeros() as usize } else { self.replacement.victim(set) };
        let bit = 1u64 << way;
        let slot = set * self.ways + way;
        let victim = (self.valid[set] & bit != 0).then(|| Evicted {
            addr: PhysAddr::new(self.tags[slot]),
            dirty: self.dirty[set] & bit != 0,
        });
        if victim.is_some_and(|v| v.dirty) {
            self.stats.writebacks.inc();
        }
        self.tags[slot] = tag;
        self.valid[set] |= bit;
        if dirty {
            self.dirty[set] |= bit;
        } else {
            self.dirty[set] &= !bit;
        }
        self.replacement.on_fill(set, way);
        victim
    }

    /// Re-tags a resident line from `old` to `new` without moving data —
    /// the hardware operation the paper uses for an overlaying write
    /// (§4.3.3: "simply updating the cache tag to correspond to the
    /// overlay page number"). The dirty bit is preserved and the line is
    /// re-indexed into `new`'s set. Returns the victim displaced from the
    /// destination set, if any, or `None` if `old` was not resident.
    pub fn retag(&mut self, old: PhysAddr, new: PhysAddr) -> Option<Evicted> {
        let dirty = self.invalidate_line(old)?;
        self.fill(new, dirty)
    }

    /// Removes the line containing `addr`, returning `Some(dirty)` if it
    /// was present. (Primary invalidation entry point.) The way keeps its
    /// stale tag.
    pub fn invalidate_line(&mut self, addr: PhysAddr) -> Option<bool> {
        let set = self.set_of(addr);
        let bit = 1u64 << self.find(set, Self::line_tag(addr))?;
        let dirty = self.dirty[set] & bit != 0;
        self.valid[set] &= !bit;
        self.dirty[set] &= !bit;
        Some(dirty)
    }

    /// Iterates over all resident line addresses in set-major order
    /// (diagnostics and invariants).
    pub fn resident_lines(&self) -> impl Iterator<Item = PhysAddr> + '_ {
        self.tags
            .chunks_exact(self.ways)
            .zip(&self.valid)
            .flat_map(|(tags, &valid)| {
                tags.iter().enumerate().filter(move |&(w, _)| valid & (1 << w) != 0)
            })
            .map(|(_, &tag)| PhysAddr::new(tag))
    }

    /// Number of valid lines.
    pub fn occupancy(&self) -> usize {
        self.valid.iter().map(|v| v.count_ones() as usize).sum()
    }

    /// Serializes tags, valid/dirty bits, replacement state and stats.
    /// The layout is one `(tag, valid, dirty)` record per way, set-major,
    /// independent of the in-memory bitmasks.
    pub fn encode_snapshot(&self, w: &mut po_types::SnapshotWriter) {
        for ((tags, &valid), &dirty) in
            self.tags.chunks_exact(self.ways).zip(&self.valid).zip(&self.dirty)
        {
            for (way, &tag) in tags.iter().enumerate() {
                w.put_u64(tag);
                w.put_bool(valid & (1 << way) != 0);
                w.put_bool(dirty & (1 << way) != 0);
            }
        }
        self.replacement.encode_snapshot(w);
        self.stats.encode_snapshot(w);
    }

    /// Rebuilds a cache with `config` geometry from [`encode_snapshot`]
    /// bytes.
    ///
    /// # Errors
    ///
    /// Returns [`po_types::PoError::Corrupted`] on truncation or
    /// malformed data; pass the same config the snapshot was taken with.
    pub fn decode_snapshot(
        config: CacheConfig,
        r: &mut po_types::SnapshotReader,
    ) -> po_types::PoResult<Self> {
        let mut cache = Self::new(config);
        let ways = cache.ways;
        for ((tags, valid), dirty) in
            cache.tags.chunks_exact_mut(ways).zip(&mut cache.valid).zip(&mut cache.dirty)
        {
            for (way, tag) in tags.iter_mut().enumerate() {
                *tag = r.get_u64()?;
                *valid |= (r.get_bool()? as u64) << way;
                *dirty |= (r.get_bool()? as u64) << way;
            }
        }
        let sets = cache.valid.len();
        cache.replacement = Replacement::decode_snapshot(cache.config.policy, sets, ways, r)?;
        cache.stats = CacheStats::decode_snapshot(r)?;
        Ok(cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replacement::PolicyKind;

    fn small() -> SetAssocCache {
        SetAssocCache::new(CacheConfig {
            capacity_bytes: 1024, // 16 lines
            ways: 2,              // 8 sets
            tag_latency: 1,
            data_latency: 2,
            parallel_tag_data: true,
            policy: PolicyKind::Lru,
        })
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small();
        let a = PhysAddr::new(0x40);
        assert!(!c.access(a, false));
        assert!(c.fill(a, false).is_none());
        assert!(c.access(a, false));
        assert_eq!(c.stats().hits.get(), 1);
        assert_eq!(c.stats().misses.get(), 1);
    }

    #[test]
    fn write_hit_sets_dirty_and_eviction_reports_it() {
        let mut c = small();
        let a = PhysAddr::new(0x40);
        c.fill(a, false);
        c.access(a, true);
        // Force eviction: fill two more lines mapping to the same set.
        let sets = c.config().sets() as u64;
        let stride = sets * 64;
        let b = PhysAddr::new(0x40 + stride);
        let d = PhysAddr::new(0x40 + 2 * stride);
        c.fill(b, false);
        let evicted = c.fill(d, false).expect("set of 2 ways must evict");
        assert_eq!(evicted.addr, a.line_base());
        assert!(evicted.dirty);
        assert_eq!(c.stats().writebacks.get(), 1);
    }

    #[test]
    fn probe_does_not_touch_stats() {
        let mut c = small();
        let a = PhysAddr::new(0x100);
        c.fill(a, false);
        assert!(c.probe(a));
        assert!(!c.probe(PhysAddr::new(0x9000)));
        assert_eq!(c.stats().hits.get(), 0);
        assert_eq!(c.stats().misses.get(), 0);
    }

    #[test]
    fn invalidate_line_returns_dirty_state() {
        let mut c = small();
        let a = PhysAddr::new(0x200);
        c.fill(a, true);
        assert_eq!(c.invalidate_line(a), Some(true));
        assert_eq!(c.invalidate_line(a), None);
        assert!(!c.access(a, false));
    }

    #[test]
    fn retag_moves_line_and_preserves_dirty() {
        let mut c = small();
        let old = PhysAddr::new(0x40);
        let new = PhysAddr::new((1 << 63) | 0x40); // overlay-space twin
        c.fill(old, false);
        c.access(old, true); // dirty
        c.retag(old, new);
        assert!(!c.probe(old));
        assert!(c.probe(new));
        assert_eq!(c.invalidate_line(new), Some(true));
    }

    #[test]
    fn retag_of_absent_line_is_noop() {
        let mut c = small();
        assert!(c.retag(PhysAddr::new(0x40), PhysAddr::new(0x80)).is_none());
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn overlay_and_regular_twins_coexist() {
        // Same low bits, different MSB: both must be cacheable at once,
        // which is exactly why tags must be wide (§4.5).
        let mut c = small();
        let reg = PhysAddr::new(0x40);
        let ovl = PhysAddr::new((1 << 63) | 0x40);
        c.fill(reg, false);
        c.fill(ovl, false);
        assert!(c.probe(reg));
        assert!(c.probe(ovl));
    }

    #[test]
    fn duplicate_fill_does_not_duplicate() {
        let mut c = small();
        let a = PhysAddr::new(0x340);
        c.fill(a, false);
        c.fill(a, true);
        assert_eq!(c.occupancy(), 1);
        // dirty bit merged
        assert_eq!(c.invalidate_line(a), Some(true));
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn non_power_of_two_set_count_is_rejected() {
        SetAssocCache::new(CacheConfig {
            capacity_bytes: 3 * 2 * 64, // 3 sets of 2 ways
            ways: 2,
            ..CacheConfig::table2_l1()
        });
    }

    #[test]
    #[should_panic(expected = "64-bit per-set masks")]
    fn more_than_64_ways_is_rejected() {
        SetAssocCache::new(CacheConfig {
            capacity_bytes: 128 * 64,
            ways: 128,
            ..CacheConfig::table2_l1()
        });
    }

    #[test]
    fn invalid_ways_are_preferred_victims() {
        // One 4-way set: every line maps to it.
        for (policy, hole) in [(PolicyKind::Lru, 1), (PolicyKind::Drrip, 3)] {
            let mut c = SetAssocCache::new(CacheConfig {
                capacity_bytes: 4 * 64,
                ways: 4,
                policy,
                ..CacheConfig::table2_l1()
            });
            let line = |i: u64| PhysAddr::new(i * 64);
            for i in 0..4 {
                c.fill(line(i), false);
            }
            c.invalidate_line(line(hole));
            // The refill takes the freed way (lowest free first) and
            // evicts nothing.
            assert!(c.fill(line(9), false).is_none());
            let mut expect: Vec<_> = (0..4).map(line).collect();
            expect[hole as usize] = line(9);
            assert_eq!(c.resident_lines().collect::<Vec<_>>(), expect);
        }
    }

    #[test]
    fn occupancy_and_resident_iteration() {
        let mut c = small();
        for i in 0..5u64 {
            c.fill(PhysAddr::new(i * 64), false);
        }
        assert_eq!(c.occupancy(), 5);
        assert_eq!(c.resident_lines().count(), 5);
    }
}
