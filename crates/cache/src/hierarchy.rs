//! The assembled three-level hierarchy.
//!
//! Per Table 2: 64 KB L1 (LRU) → 512 KB L2 (LRU) → 2 MB L3 (DRRIP), no
//! inclusion enforced, stream prefetcher trained by L2 misses filling
//! into L3. The hierarchy reports, per access: the level that serviced
//! it, the latency accumulated on the lookup path, dirty writebacks
//! displaced by fills, and prefetch addresses the memory system should
//! fetch into L3.

use crate::config::HierarchyConfig;
use crate::lines::{Prefetches, Writebacks};
use crate::prefetch::StreamPrefetcher;
use crate::set_assoc::{Evicted, SetAssocCache};
use po_telemetry::HitLevel;
use po_types::{AccessKind, Counter, PhysAddr};

/// Which cache level serviced an access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Level {
    /// First-level cache.
    L1,
    /// Second-level cache.
    L2,
    /// Last-level cache.
    L3,
}

/// Result of a hierarchy lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LookupResult {
    /// Serviced by a cache.
    Hit {
        /// The level that hit.
        level: Level,
    },
    /// Missed everywhere; memory must service the access.
    Miss,
}

impl LookupResult {
    /// The result as a journal hit level (`CacheAccess` events).
    pub fn hit_level(self) -> HitLevel {
        match self {
            LookupResult::Hit { level: Level::L1 } => HitLevel::L1,
            LookupResult::Hit { level: Level::L2 } => HitLevel::L2,
            LookupResult::Hit { level: Level::L3 } => HitLevel::L3,
            LookupResult::Miss => HitLevel::Miss,
        }
    }
}

/// Everything a single access produced.
#[derive(Clone, Copy, Debug)]
pub struct AccessOutcome {
    /// Hit level or miss.
    pub result: LookupResult,
    /// Cycles spent in the cache lookup path (for a miss: all three tag
    /// lookups; memory latency is added by the caller).
    pub latency: u64,
    /// Dirty lines displaced by fills during this access; the caller
    /// posts them to the memory controller.
    pub writebacks: Writebacks,
    /// Prefetch addresses generated (to be fetched into L3 off the
    /// critical path). Room is left for as many overlay-aware
    /// candidates as the stream prefetcher's degree.
    pub prefetches: Prefetches,
}

po_types::stats! {
    /// Hierarchy-wide statistics.
    #[derive(Clone, Debug, Default)]
    pub struct HierarchyStats: "cache" {
        /// Demand accesses.
        pub accesses: Counter,
        /// Hits per level.
        pub l1_hits: Counter,
        /// Hits per level.
        pub l2_hits: Counter,
        /// Hits per level.
        pub l3_hits: Counter,
        /// Full misses (to memory).
        pub misses: Counter,
        /// Prefetch fills installed into L3.
        pub prefetch_fills: Counter,
    }
}

/// The three-level cache hierarchy. See the [crate docs](crate) for an
/// example.
#[derive(Clone, Debug)]
pub struct CacheHierarchy {
    l1: SetAssocCache,
    l2: SetAssocCache,
    l3: SetAssocCache,
    prefetcher: StreamPrefetcher,
    stats: HierarchyStats,
}

impl CacheHierarchy {
    /// Creates an empty hierarchy.
    ///
    /// # Panics
    ///
    /// Panics on a cache geometry [`SetAssocCache::new`] rejects, and
    /// on a prefetch degree above
    /// [`PrefetcherConfig::MAX_DEGREE`](crate::PrefetcherConfig::MAX_DEGREE).
    pub fn new(config: HierarchyConfig) -> Self {
        Self {
            l1: SetAssocCache::new(config.l1),
            l2: SetAssocCache::new(config.l2),
            l3: SetAssocCache::new(config.l3),
            prefetcher: StreamPrefetcher::new(config.prefetcher),
            stats: HierarchyStats::default(),
        }
    }

    /// Returns hierarchy statistics.
    pub fn stats(&self) -> &HierarchyStats {
        &self.stats
    }

    /// Returns the individual level (for fine-grained stats).
    pub fn level(&self, level: Level) -> &SetAssocCache {
        match level {
            Level::L1 => &self.l1,
            Level::L2 => &self.l2,
            Level::L3 => &self.l3,
        }
    }

    /// Returns the prefetcher (stats access).
    pub fn prefetcher(&self) -> &StreamPrefetcher {
        &self.prefetcher
    }

    fn collect(evicted: Option<Evicted>, out: &mut Writebacks) {
        if let Some(e) = evicted {
            if e.dirty {
                out.push(e.addr);
            }
        }
    }

    /// Performs a demand access to the line containing `addr`.
    ///
    /// On an L2/L3 hit the line is also filled upward so subsequent
    /// accesses hit closer to the core; on a full miss the caller should
    /// obtain the line from memory and then call [`CacheHierarchy::fill`].
    pub fn access(&mut self, addr: PhysAddr, kind: AccessKind) -> AccessOutcome {
        self.stats.accesses.inc();
        let is_write = kind.is_write();
        let mut writebacks = Writebacks::new();
        let mut prefetches = Prefetches::new();
        let mut latency = 0;

        if self.l1.access(addr, is_write) {
            self.stats.l1_hits.inc();
            return AccessOutcome {
                result: LookupResult::Hit { level: Level::L1 },
                latency: self.l1.config().hit_latency(),
                writebacks,
                prefetches,
            };
        }
        latency += self.l1.config().miss_detect_latency();

        // Levels that just missed install the line without searching
        // their set again.
        if self.l2.access(addr, is_write) {
            self.stats.l2_hits.inc();
            latency += self.l2.config().hit_latency();
            Self::collect(self.l1.fill_absent(addr, is_write), &mut writebacks);
            return AccessOutcome {
                result: LookupResult::Hit { level: Level::L2 },
                latency,
                writebacks,
                prefetches,
            };
        }
        latency += self.l2.config().miss_detect_latency();
        // L2 miss trains the stream prefetcher (Table 2).
        self.prefetcher.train(addr, &mut prefetches);

        if self.l3.access(addr, is_write) {
            self.stats.l3_hits.inc();
            latency += self.l3.config().hit_latency();
            Self::collect(self.l2.fill_absent(addr, false), &mut writebacks);
            Self::collect(self.l1.fill_absent(addr, is_write), &mut writebacks);
            return AccessOutcome {
                result: LookupResult::Hit { level: Level::L3 },
                latency,
                writebacks,
                prefetches,
            };
        }
        latency += self.l3.config().miss_detect_latency();
        self.stats.misses.inc();

        AccessOutcome { result: LookupResult::Miss, latency, writebacks, prefetches }
    }

    /// Installs a line fetched from memory into all three levels (demand
    /// fill); returns dirty writebacks displaced by the fills.
    pub fn fill(&mut self, addr: PhysAddr, dirty: bool) -> Writebacks {
        let mut writebacks = Writebacks::new();
        Self::collect(self.l3.fill(addr, false), &mut writebacks);
        Self::collect(self.l2.fill(addr, false), &mut writebacks);
        Self::collect(self.l1.fill(addr, dirty), &mut writebacks);
        writebacks
    }

    /// Installs a prefetched line into L3 only (Table 2: "prefetch into
    /// L3"); returns dirty writebacks displaced.
    pub fn fill_prefetch(&mut self, addr: PhysAddr) -> Writebacks {
        self.stats.prefetch_fills.inc();
        let mut writebacks = Writebacks::new();
        Self::collect(self.l3.fill(addr, false), &mut writebacks);
        writebacks
    }

    /// Checks whether the line is resident at any level (no state change).
    pub fn probe(&self, addr: PhysAddr) -> bool {
        self.l1.probe(addr) || self.l2.probe(addr) || self.l3.probe(addr)
    }

    /// Invalidates the line everywhere; returns `true` if any copy was
    /// dirty.
    pub fn invalidate_line(&mut self, addr: PhysAddr) -> bool {
        let d1 = self.l1.invalidate_line(addr).unwrap_or(false);
        let d2 = self.l2.invalidate_line(addr).unwrap_or(false);
        let d3 = self.l3.invalidate_line(addr).unwrap_or(false);
        d1 || d2 || d3
    }

    /// Re-tags a resident line from `old` to `new` at every level where it
    /// is resident (the overlaying-write tag update, §4.3.3). Returns
    /// dirty writebacks displaced from destination sets, and whether any
    /// copy was moved.
    pub fn retag(&mut self, old: PhysAddr, new: PhysAddr) -> (Writebacks, bool) {
        let mut writebacks = Writebacks::new();
        let mut moved = false;
        for cache in [&mut self.l1, &mut self.l2, &mut self.l3] {
            if let Some(evicted) = cache.retag(old, new) {
                Self::collect(Some(evicted), &mut writebacks);
                moved = true;
            } else if cache.probe(new) {
                moved = true;
            }
        }
        (writebacks, moved)
    }

    /// Marks the line dirty wherever resident (used after retag-based
    /// overlaying writes, where the subsequent store must dirty the line).
    pub fn mark_dirty(&mut self, addr: PhysAddr) {
        for cache in [&mut self.l1, &mut self.l2, &mut self.l3] {
            if cache.probe(addr) {
                cache.access(addr, true);
            }
        }
    }

    /// Serializes all three levels, the prefetcher and hierarchy stats.
    pub fn encode_snapshot(&self, w: &mut po_types::SnapshotWriter) {
        self.l1.encode_snapshot(w);
        self.l2.encode_snapshot(w);
        self.l3.encode_snapshot(w);
        self.prefetcher.encode_snapshot(w);
        self.stats.encode_snapshot(w);
    }

    /// Rebuilds a hierarchy with `config` geometry from
    /// [`encode_snapshot`] bytes.
    ///
    /// # Errors
    ///
    /// Returns [`po_types::PoError::Corrupted`] on truncation or
    /// malformed data; pass the same config the snapshot was taken with.
    pub fn decode_snapshot(
        config: HierarchyConfig,
        r: &mut po_types::SnapshotReader,
    ) -> po_types::PoResult<Self> {
        let l1 = SetAssocCache::decode_snapshot(config.l1, r)?;
        let l2 = SetAssocCache::decode_snapshot(config.l2, r)?;
        let l3 = SetAssocCache::decode_snapshot(config.l3, r)?;
        let prefetcher = StreamPrefetcher::decode_snapshot(config.prefetcher, r)?;
        let stats = HierarchyStats::decode_snapshot(r)?;
        Ok(Self { l1, l2, l3, prefetcher, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HierarchyConfig;

    fn tiny() -> CacheHierarchy {
        CacheHierarchy::new(HierarchyConfig::tiny())
    }

    #[test]
    fn miss_then_hit_progression() {
        let mut h = tiny();
        let a = PhysAddr::new(0x1000);
        let o = h.access(a, AccessKind::Read);
        assert_eq!(o.result, LookupResult::Miss);
        h.fill(a, false);
        let o = h.access(a, AccessKind::Read);
        assert_eq!(o.result, LookupResult::Hit { level: Level::L1 });
    }

    #[test]
    fn l1_eviction_falls_back_to_l2() {
        let mut h = tiny();
        let a = PhysAddr::new(0x0);
        h.fill(a, false);
        // Evict from tiny L1 (16 lines) by filling 64 distinct lines that
        // alias across its 8 sets.
        for i in 1..=64u64 {
            h.fill(PhysAddr::new(i * 64), false);
        }
        assert!(!h.level(Level::L1).probe(a));
        let o = h.access(a, AccessKind::Read);
        // Must still hit somewhere below L1.
        assert!(matches!(
            o.result,
            LookupResult::Hit { level: Level::L2 } | LookupResult::Hit { level: Level::L3 }
        ));
    }

    #[test]
    fn miss_latency_is_sum_of_tag_lookups() {
        let mut h = tiny();
        let o = h.access(PhysAddr::new(0x5000), AccessKind::Read);
        // tag latencies: 1 (L1) + 2 (L2) + 10 (L3)
        assert_eq!(o.latency, 13);
    }

    #[test]
    fn l3_hit_latency_includes_serial_tag_data() {
        let mut h = tiny();
        let a = PhysAddr::new(0x2000);
        // Install into L3 only (prefetch path).
        h.fill_prefetch(a);
        let o = h.access(a, AccessKind::Read);
        assert_eq!(o.result, LookupResult::Hit { level: Level::L3 });
        // 1 (L1 tag) + 2 (L2 tag) + 34 (L3 serial hit)
        assert_eq!(o.latency, 37);
    }

    #[test]
    fn sequential_misses_generate_prefetches() {
        let mut h = tiny();
        let mut got = 0;
        for i in 0..8u64 {
            let o = h.access(PhysAddr::new(i * 64), AccessKind::Read);
            got += o.prefetches.len();
            h.fill(PhysAddr::new(i * 64), false);
        }
        assert!(got > 0, "ascending miss stream must trigger the prefetcher");
    }

    #[test]
    fn dirty_writeback_emerges_on_eviction() {
        let mut h = tiny();
        let a = PhysAddr::new(0x0);
        h.fill(a, true); // dirty in L1
        let mut wbs = Vec::new();
        for i in 1..=200u64 {
            wbs.extend(h.fill(PhysAddr::new(i * 64), false));
            let o = h.access(PhysAddr::new(i * 64), AccessKind::Read);
            wbs.extend(o.writebacks);
        }
        assert!(
            wbs.contains(&a.line_base()),
            "dirty line must be written back when evicted from every level"
        );
    }

    #[test]
    fn retag_preserves_residency_under_new_tag() {
        let mut h = tiny();
        let old = PhysAddr::new(0x3000);
        let new = PhysAddr::new((1 << 63) | 0x3000);
        h.fill(old, false);
        let (_, moved) = h.retag(old, new);
        assert!(moved);
        assert!(h.probe(new));
        assert!(!h.probe(old));
    }

    #[test]
    fn invalidate_line_reports_dirtiness() {
        let mut h = tiny();
        let a = PhysAddr::new(0x4000);
        h.fill(a, true);
        assert!(h.invalidate_line(a));
        assert!(!h.invalidate_line(a));
    }

    #[test]
    #[should_panic(expected = "exceeds the supported maximum")]
    fn prefetch_degree_above_the_inline_bound_is_rejected() {
        CacheHierarchy::new(HierarchyConfig {
            prefetcher: crate::PrefetcherConfig {
                degree: crate::PrefetcherConfig::MAX_DEGREE + 1,
                ..crate::PrefetcherConfig::table2()
            },
            ..HierarchyConfig::tiny()
        });
    }

    #[test]
    fn stats_accumulate() {
        let mut h = tiny();
        let a = PhysAddr::new(0x40);
        h.access(a, AccessKind::Read);
        h.fill(a, false);
        h.access(a, AccessKind::Read);
        assert_eq!(h.stats().accesses.get(), 2);
        assert_eq!(h.stats().misses.get(), 1);
        assert_eq!(h.stats().l1_hits.get(), 1);
    }
}
