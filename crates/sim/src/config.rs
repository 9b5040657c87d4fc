//! System configuration (Table 2) and the §4.5 hardware-cost model.

use po_cache::HierarchyConfig;
use po_dram::DramConfig;
use po_overlay::OverlayConfig;
use po_tlb::TlbConfig;
use po_vm::VmConfig;

/// Full system configuration. Defaults reproduce Table 2 of the paper.
///
/// The derived `Debug` text is hashed into every machine snapshot's
/// header (see `Machine::save_snapshot`), so renaming, reordering or
/// adding a field — or renaming a [`BackendKind`] variant — changes
/// snapshot bytes and with them the fingerprints pinned in
/// `po_perf/expected.json` and `crates/sim/tests/snapshots.rs`.
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Cache hierarchy (64 KB / 512 KB / 2 MB, LRU/LRU/DRRIP, stream
    /// prefetcher).
    pub hierarchy: HierarchyConfig,
    /// TLBs (64-entry L1, 1024-entry L2, 1000-cycle miss).
    pub tlb: TlbConfig,
    /// DDR3-1066 memory system.
    pub dram: DramConfig,
    /// Overlay framework (64-entry OMT cache, 1000-cycle OMT walk).
    pub overlay: OverlayConfig,
    /// Physical memory size.
    pub vm: VmConfig,
    /// Out-of-order instruction window (Table 2: 64 entries).
    pub window_entries: usize,
    /// Number of cores (each with private TLBs; caches and memory are
    /// shared). The paper's simulator is multi-core; the evaluation runs
    /// single-threaded workloads, so the default is 1. Extra cores
    /// exercise the §4.3.3 cross-TLB coherence in the timed path.
    pub cores: usize,
    /// Trap + OS fault-handler + page-allocation overhead of a
    /// copy-on-write fault, cycles (a few microseconds at 2.67 GHz,
    /// consistent with measured Linux CoW fault costs [41, 43]).
    pub cow_fault_overhead: u64,
    /// Cost of a TLB shootdown for the CoW remap, cycles (the paper
    /// cites shootdowns as a major CoW cost [6, 40, 52, 54]).
    pub tlb_shootdown_latency: u64,
    /// Cost of the overlaying-read-exclusive coherence round (§4.3.3),
    /// cycles. Small: it rides the existing coherence network.
    pub coherence_update_latency: u64,
    /// Banks in the shared-L3 queueing model. Only exercised with more
    /// than one core: concurrent accesses mapping to the same bank
    /// serialize on its port (the `Layer::Contention` CPI slice).
    pub l3_banks: usize,
    /// Cycles one access occupies an L3 bank (tag + data port).
    pub l3_bank_occupancy: u64,
    /// Channel cycles one 64 B line transfer consumes in the multi-core
    /// DRAM-bandwidth token bucket (DDR3-1066, 8 B bus, burst 8 → 4
    /// bus clocks per line). Only exercised with more than one core.
    pub dram_bandwidth_cycles_per_line: u64,
    /// Which translation design the machine models: the paper's page
    /// tables plus OMT, or segmentation-over-paging (cheaper walks, no
    /// overlays) for comparison (`--backend` on the bench bins).
    pub backend: BackendKind,
    /// `true` = stores to shared pages use overlay-on-write;
    /// `false` = classic copy-on-write.
    pub overlay_mode: bool,
    /// Promote an overlay to a full page once this many lines are in it
    /// (§4.3.4); 64 = only when the whole page has diverged.
    pub promote_threshold: usize,
    /// Enable live OMS compaction (§4.4.2) as the middle rung of the
    /// memory-pressure ladder (reclaim → compact → grow). Disabling it
    /// models the paper's compaction-free allocator, whose free lists
    /// fragment irreversibly under segment-class churn.
    pub oms_compaction: bool,
}

impl SystemConfig {
    /// The Table 2 system with copy-on-write semantics (the baseline).
    pub fn table2() -> Self {
        Self {
            hierarchy: HierarchyConfig::table2(),
            tlb: TlbConfig::table2(),
            dram: DramConfig::table2(),
            overlay: OverlayConfig::default(),
            vm: VmConfig::default(),
            window_entries: 64,
            cores: 1,
            cow_fault_overhead: 5000,
            tlb_shootdown_latency: 5000,
            coherence_update_latency: 30,
            l3_banks: 8,
            l3_bank_occupancy: 4,
            dram_bandwidth_cycles_per_line: 4,
            backend: BackendKind::Overlay,
            overlay_mode: false,
            promote_threshold: 64,
            oms_compaction: true,
        }
    }

    /// The Table 2 system with overlay-on-write enabled.
    pub fn table2_overlay() -> Self {
        Self { overlay_mode: true, ..Self::table2() }
    }

    /// Whether overlay semantics are in effect: overlay mode is on
    /// *and* the selected design has overlays. `seg` degrades every
    /// divergence to classic page-granular copy-on-write, whatever
    /// `overlay_mode` says.
    pub fn overlay_semantics(&self) -> bool {
        self.overlay_mode && self.backend.supports_overlays()
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::table2()
    }
}

/// Names the translation design a machine models, in configurations,
/// CLI flags (`--backend overlay|seg`) and snapshot headers. Both run on
/// the same translation structure; they differ only in walk cost and
/// whether overlays exist.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// Page tables + the OMT overlay machinery (the paper's design).
    #[default]
    Overlay,
    /// Segmentation-over-paging (arXiv:2006.00380): flat single-step
    /// translation, cheap walks, no overlays — classic page-granular
    /// CoW on every divergence.
    Seg,
}

impl BackendKind {
    /// Every design, in a stable order (CLI help, summaries).
    pub const ALL: [BackendKind; 2] = [BackendKind::Overlay, BackendKind::Seg];

    /// Cycles a TLB-miss walk costs given the configured page-walk
    /// penalty: `Overlay` pays the full 4-level radix walk; `Seg`
    /// resolves in one flat segment lookup and pays a quarter of it,
    /// never less than one cycle.
    pub(crate) fn walk_cycles(self, tlb_miss_penalty: u64) -> u64 {
        match self {
            BackendKind::Overlay => tlb_miss_penalty,
            BackendKind::Seg => (tlb_miss_penalty / 4).max(1),
        }
    }

    /// Whether this design has overlays. A machine in overlay mode on
    /// a design without them degrades to classic CoW.
    pub(crate) fn supports_overlays(self) -> bool {
        matches!(self, BackendKind::Overlay)
    }

    /// Stable one-byte tag stored in snapshot headers.
    pub(crate) fn tag(self) -> u8 {
        match self {
            BackendKind::Overlay => 0,
            BackendKind::Seg => 1,
        }
    }

    /// The CLI / export name (`overlay`, `seg`).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Overlay => "overlay",
            BackendKind::Seg => "seg",
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "overlay" => Ok(BackendKind::Overlay),
            "seg" => Ok(BackendKind::Seg),
            other => Err(format!("unknown backend {other:?} (expected: overlay, seg)")),
        }
    }
}

/// Hardware storage cost of the framework (§4.5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HardwareCost {
    /// OMT cache: 64 entries × 512 bits.
    pub omt_cache_bytes: usize,
    /// TLB extension: OBitVector (64 bits) per L1+L2 TLB entry.
    pub tlb_extension_bytes: usize,
    /// Cache-tag extension: 16 extra tag bits per line across L1/L2/L3.
    pub tag_extension_bytes: usize,
}

impl HardwareCost {
    /// Total bytes of extra storage.
    pub fn total_bytes(&self) -> usize {
        self.omt_cache_bytes + self.tlb_extension_bytes + self.tag_extension_bytes
    }
}

/// Computes the §4.5 hardware cost for a configuration.
///
/// For Table 2 this reproduces the paper's numbers: 4 KB OMT cache,
/// 8.5 KB of TLB extensions, 82 KB of tag extensions — 94.5 KB total.
pub fn hardware_cost(config: &SystemConfig) -> HardwareCost {
    // Each OMT cache entry: OPN (48) + OMS address (48) + OBitVector (64)
    // + 64 slot pointers (320) + free vector (32) = 512 bits.
    let omt_cache_bytes = config.overlay.omt_cache_entries * 512 / 8;
    // 64 bits per TLB entry.
    let tlb_entries = config.tlb.l1_entries + config.tlb.l2_entries;
    let tlb_extension_bytes = tlb_entries * 64 / 8;
    // 16 extra tag bits per cache line.
    let lines = (config.hierarchy.l1.capacity_bytes
        + config.hierarchy.l2.capacity_bytes
        + config.hierarchy.l3.capacity_bytes)
        / po_types::geometry::LINE_SIZE;
    let tag_extension_bytes = lines * 16 / 8;
    HardwareCost { omt_cache_bytes, tlb_extension_bytes, tag_extension_bytes }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hardware_cost_matches_section_4_5() {
        let cost = hardware_cost(&SystemConfig::table2());
        assert_eq!(cost.omt_cache_bytes, 4 * 1024); // "4KB"
        assert_eq!(cost.tlb_extension_bytes, 8704); // "8.5KB"
        assert_eq!(cost.tag_extension_bytes, 82 * 1024); // "82KB"
                                                         // "the overall hardware storage cost is 94.5KB"
        assert_eq!(cost.total_bytes(), 96768);
        assert!((cost.total_bytes() as f64 / 1024.0 - 94.5).abs() < 0.01);
    }

    #[test]
    fn kind_round_trips_through_name() {
        for kind in BackendKind::ALL {
            assert_eq!(kind.name().parse::<BackendKind>().unwrap(), kind);
        }
        assert!("vax".parse::<BackendKind>().is_err());
    }

    #[test]
    fn seg_walks_are_cheaper_but_never_free() {
        assert_eq!(BackendKind::Overlay.walk_cycles(1000), 1000);
        assert_eq!(BackendKind::Seg.walk_cycles(1000), 250);
        assert_eq!(BackendKind::Seg.walk_cycles(2), 1, "floor at one cycle");
        assert!(!BackendKind::Seg.supports_overlays());
        assert!(BackendKind::Overlay.supports_overlays());
    }

    #[test]
    fn overlay_variant_differs_only_in_mode() {
        let a = SystemConfig::table2();
        let b = SystemConfig::table2_overlay();
        assert!(!a.overlay_mode);
        assert!(b.overlay_mode);
        assert_eq!(a.window_entries, b.window_entries);
    }
}
