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

#[derive(Clone, Copy, Debug, Default)]
struct Way {
    tag: u64, // full line address
    valid: bool,
    dirty: bool,
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
    sets: usize,
    ways: Vec<Way>, // sets * config.ways
    replacement: Replacement,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration yields zero sets or ways.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        assert!(sets > 0 && config.ways > 0, "degenerate cache geometry");
        let replacement = Replacement::new(config.policy, sets, config.ways);
        Self {
            sets,
            ways: vec![Way::default(); sets * config.ways],
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
        ((addr.raw() >> po_types::geometry::LINE_SHIFT) % self.sets as u64) as usize
    }

    fn find(&self, set: usize, tag: u64) -> Option<usize> {
        let base = set * self.config.ways;
        (0..self.config.ways).find(|&w| {
            let way = &self.ways[base + w];
            way.valid && way.tag == tag
        })
    }

    /// Looks up `addr`; on a hit updates replacement state and, if
    /// `is_write`, marks the line dirty. Returns whether the line was
    /// present.
    pub fn access(&mut self, addr: PhysAddr, is_write: bool) -> bool {
        let set = self.set_of(addr);
        let tag = Self::line_tag(addr);
        match self.find(set, tag) {
            Some(w) => {
                self.stats.hits.inc();
                self.replacement.on_hit(set, w);
                if is_write {
                    self.ways[set * self.config.ways + w].dirty = true;
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
        self.stats.fills.inc();
        if let Some(w) = self.find(set, tag) {
            // Already present (e.g. racing prefetch): just update state.
            let way = &mut self.ways[set * self.config.ways + w];
            way.dirty |= dirty;
            self.replacement.on_hit(set, w);
            return None;
        }
        let base = set * self.config.ways;
        let valid: Vec<bool> = (0..self.config.ways).map(|w| self.ways[base + w].valid).collect();
        let victim_way = self.replacement.victim(set, &valid);
        let victim = {
            let way = &self.ways[base + victim_way];
            if way.valid {
                Some(Evicted { addr: PhysAddr::new(way.tag), dirty: way.dirty })
            } else {
                None
            }
        };
        if let Some(v) = victim {
            if v.dirty {
                self.stats.writebacks.inc();
            }
        }
        self.ways[base + victim_way] = Way { tag, valid: true, dirty };
        self.replacement.on_fill(set, victim_way);
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
    /// was present. (Primary invalidation entry point.)
    pub fn invalidate_line(&mut self, addr: PhysAddr) -> Option<bool> {
        let set = self.set_of(addr);
        let tag = Self::line_tag(addr);
        let w = self.find(set, tag)?;
        let way = &mut self.ways[set * self.config.ways + w];
        let dirty = way.dirty;
        way.valid = false;
        way.dirty = false;
        Some(dirty)
    }

    /// Iterates over all resident line addresses (diagnostics and
    /// invariants).
    pub fn resident_lines(&self) -> impl Iterator<Item = PhysAddr> + '_ {
        self.ways.iter().filter(|w| w.valid).map(|w| PhysAddr::new(w.tag))
    }

    /// Number of valid lines.
    pub fn occupancy(&self) -> usize {
        self.ways.iter().filter(|w| w.valid).count()
    }

    /// Serializes tags, valid/dirty bits, replacement state and stats.
    pub fn encode_snapshot(&self, w: &mut po_types::SnapshotWriter) {
        for way in &self.ways {
            w.put_u64(way.tag);
            w.put_bool(way.valid);
            w.put_bool(way.dirty);
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
        for way in cache.ways.iter_mut() {
            way.tag = r.get_u64()?;
            way.valid = r.get_bool()?;
            way.dirty = r.get_bool()?;
        }
        cache.replacement =
            Replacement::decode_snapshot(cache.config.policy, cache.sets, cache.config.ways, r)?;
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
    fn occupancy_and_resident_iteration() {
        let mut c = small();
        for i in 0..5u64 {
            c.fill(PhysAddr::new(i * 64), false);
        }
        assert_eq!(c.occupancy(), 5);
        assert_eq!(c.resident_lines().count(), 5);
    }
}
