//! Cache and prefetcher configuration (Table 2 of the paper).

use crate::replacement::PolicyKind;

/// Geometry and latency of one cache level.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Tag-lookup latency in cycles.
    pub tag_latency: u64,
    /// Data-array latency in cycles.
    pub data_latency: u64,
    /// `true` if tag and data are looked up in parallel (hit latency =
    /// max(tag, data)); `false` for serial lookup (hit latency = tag +
    /// data). Table 2: L1/L2 parallel, L3 serial.
    pub parallel_tag_data: bool,
    /// Replacement policy.
    pub policy: PolicyKind,
}

impl CacheConfig {
    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.capacity_bytes / po_types::geometry::LINE_SIZE / self.ways
    }

    /// Latency of a hit at this level.
    pub fn hit_latency(&self) -> u64 {
        if self.parallel_tag_data {
            self.tag_latency.max(self.data_latency)
        } else {
            self.tag_latency + self.data_latency
        }
    }

    /// Latency consumed determining a miss at this level (the tag lookup).
    pub fn miss_detect_latency(&self) -> u64 {
        self.tag_latency
    }

    /// Table 2 L1: 64 KB, 4-way, tag/data 1/2 cycles, parallel, LRU.
    pub fn table2_l1() -> Self {
        Self {
            capacity_bytes: 64 * 1024,
            ways: 4,
            tag_latency: 1,
            data_latency: 2,
            parallel_tag_data: true,
            policy: PolicyKind::Lru,
        }
    }

    /// Table 2 L2: 512 KB, 8-way, tag/data 2/8 cycles, parallel, LRU.
    pub fn table2_l2() -> Self {
        Self {
            capacity_bytes: 512 * 1024,
            ways: 8,
            tag_latency: 2,
            data_latency: 8,
            parallel_tag_data: true,
            policy: PolicyKind::Lru,
        }
    }

    /// Table 2 L3: 2 MB, 16-way, tag/data 10/24 cycles, serial, DRRIP.
    pub fn table2_l3() -> Self {
        Self {
            capacity_bytes: 2 * 1024 * 1024,
            ways: 16,
            tag_latency: 10,
            data_latency: 24,
            parallel_tag_data: false,
            policy: PolicyKind::Drrip,
        }
    }
}

/// Stream-prefetcher parameters (Table 2: 16 entries, degree 4,
/// distance 24, monitors L2 misses, prefetches into L3).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PrefetcherConfig {
    /// Number of concurrently tracked streams.
    pub streams: usize,
    /// Lines fetched per trigger.
    pub degree: usize,
    /// Maximum lines the stream may run ahead of demand.
    pub distance: usize,
    /// Whether the prefetcher is enabled (ablation hook).
    pub enabled: bool,
}

impl PrefetcherConfig {
    /// The largest `degree` a hierarchy accepts: one access's prefetch
    /// candidates travel in an inline
    /// [`Prefetches`](crate::lines::Prefetches) list of twice this many
    /// lines (stream plus overlay-aware candidates).
    pub const MAX_DEGREE: usize = 8;

    /// The Table 2 configuration.
    pub fn table2() -> Self {
        Self { streams: 16, degree: 4, distance: 24, enabled: true }
    }

    /// A disabled prefetcher (for ablations).
    pub fn disabled() -> Self {
        Self { enabled: false, ..Self::table2() }
    }
}

/// Configuration of the whole three-level hierarchy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// First-level cache.
    pub l1: CacheConfig,
    /// Second-level cache.
    pub l2: CacheConfig,
    /// Last-level cache.
    pub l3: CacheConfig,
    /// Stream prefetcher.
    pub prefetcher: PrefetcherConfig,
}

impl HierarchyConfig {
    /// The full Table 2 hierarchy.
    pub fn table2() -> Self {
        Self {
            l1: CacheConfig::table2_l1(),
            l2: CacheConfig::table2_l2(),
            l3: CacheConfig::table2_l3(),
            prefetcher: PrefetcherConfig::table2(),
        }
    }

    /// A tiny hierarchy for fast unit tests (same structure, 256x smaller).
    pub fn tiny() -> Self {
        Self {
            l1: CacheConfig { capacity_bytes: 1024, ways: 2, ..CacheConfig::table2_l1() },
            l2: CacheConfig { capacity_bytes: 4096, ways: 4, ..CacheConfig::table2_l2() },
            l3: CacheConfig { capacity_bytes: 16384, ways: 4, ..CacheConfig::table2_l3() },
            prefetcher: PrefetcherConfig::table2(),
        }
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        Self::table2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_geometry() {
        let h = HierarchyConfig::table2();
        assert_eq!(h.l1.sets(), 256);
        assert_eq!(h.l2.sets(), 1024);
        assert_eq!(h.l3.sets(), 2048);
    }

    #[test]
    fn hit_latencies_match_paper() {
        let h = HierarchyConfig::table2();
        assert_eq!(h.l1.hit_latency(), 2); // parallel 1/2
        assert_eq!(h.l2.hit_latency(), 8); // parallel 2/8
        assert_eq!(h.l3.hit_latency(), 34); // serial 10+24
    }

    #[test]
    fn prefetcher_table2() {
        let p = PrefetcherConfig::table2();
        assert_eq!((p.streams, p.degree, p.distance), (16, 4, 24));
        assert!(p.enabled);
        assert!(!PrefetcherConfig::disabled().enabled);
    }
}
