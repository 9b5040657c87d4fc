//! The overlay manager: create / overlaying-write / read / evict /
//! promote (§4.3–§4.4).
//!
//! This is the functional state machine of the framework. The memory
//! controller and OS talk to it; `po-sim` layers Table 2 timing on top.
//!
//! Lazy allocation: an overlaying write only flips the OBitVector bit
//! and leaves the written line dirty *in the cache hierarchy* (modeled
//! by the `resident` map). Overlay Memory Store space is allocated when
//! the dirty line is evicted — "unlike copy-on-write, which must
//! allocate memory before the write operation, our mechanism allocates
//! memory space lazily upon the eviction of the dirty overlay cache
//! line" (§4.3.3).

use crate::omt::{Omt, OmtEntry, SegmentRef};
use crate::omt_cache::OmtCache;
use crate::segment::{SegmentClass, SegmentMeta};
use crate::store::OverlayMemoryStore;
use po_dram::DataStore;
use po_telemetry::{Event as TelemetryEvent, TelemetrySink};
use po_types::snapshot::{SnapshotReader, SnapshotWriter};
use po_types::{
    Counter, CrashStage, FaultInjector, FaultSite, FxHashMap, LineData, MainMemAddr, OBitVector,
    Opn, PoError, PoResult,
};
use std::collections::HashMap;

/// Framework configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OverlayConfig {
    /// OMT-cache entries at the memory controller (Table 2: 64).
    pub omt_cache_entries: usize,
    /// Latency of an OMT walk on an OMT-cache miss, in cycles (Table 2:
    /// 1000).
    pub omt_walk_latency: u64,
    /// 4 KB frames requested from the OS per OMS grow (§4.4.3).
    pub oms_chunk_frames: u64,
    /// Smallest segment class the store may use. The default (256 B)
    /// enables the full fine-grained set of §4.4.2; setting
    /// [`SegmentClass::K4`] models the simpler controller of §4.4 that
    /// "uses a full physical page to store each overlay", forgoing the
    /// memory-capacity benefit (ablation knob).
    pub min_segment_class: SegmentClass,
}

impl Default for OverlayConfig {
    fn default() -> Self {
        Self {
            omt_cache_entries: 64,
            omt_walk_latency: 1000,
            oms_chunk_frames: 64,
            min_segment_class: SegmentClass::B256,
        }
    }
}

po_types::stats! {
    /// Framework statistics.
    #[derive(Clone, Debug, Default)]
    pub struct OverlayStats: "overlay" {
        /// Overlays created.
        pub overlays_created: Counter,
        /// Overlaying writes (line remapped into the overlay).
        pub overlaying_writes: Counter,
        /// Simple writes to lines already in an overlay.
        pub simple_writes: Counter,
        /// Dirty overlay lines evicted into the OMS.
        pub evictions: Counter,
        /// Segments allocated (lazily).
        pub segment_allocs: Counter,
        /// Overlays migrated to a larger segment.
        pub migrations: Counter,
        /// Commit promotions.
        pub commits: Counter,
        /// Copy-and-commit promotions.
        pub copy_commits: Counter,
        /// Discard promotions.
        pub discards: Counter,
        /// Overlays collapsed back into physical pages under memory
        /// pressure ([`OverlayManager::collapse_overlay`]).
        pub reclaims: Counter,
        /// OMS bytes recovered by those collapses.
        pub reclaim_freed_bytes: Counter,
        /// Allocation attempts retried after reclaim or a transient fault.
        pub alloc_retries: Counter,
        /// Faults injected across all sites (synced from the
        /// [`FaultInjector`] by [`OverlayManager::sync_injected_faults`]).
        pub injected_faults: Counter,
    }
}

/// What an eviction had to do (timing hooks for `po-sim`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvictOutcome {
    /// A segment was allocated for this overlay.
    pub allocated_segment: bool,
    /// The overlay migrated to a larger segment (its lines were moved).
    pub migrated: bool,
    /// Lines rewritten by the migration (read-modify-write volume).
    pub lines_moved: usize,
    /// The OS was asked to grow the OMS.
    pub grew_store: bool,
}

/// Closure type used to obtain OMS chunks from the OS: called with a
/// frame count, returns the page-aligned base of a fresh chunk.
pub type GrantFn<'a> = dyn FnMut(u64) -> PoResult<MainMemAddr> + 'a;

/// The overlay manager. See the [crate docs](crate) for an example.
#[derive(Debug, Default)]
pub struct OverlayManager {
    config: OverlayConfig,
    omt: Omt,
    omt_cache: OmtCache,
    store: OverlayMemoryStore,
    /// Dirty overlay lines still in the cache hierarchy (written, not yet
    /// evicted): the lazy-allocation window.
    resident: FxHashMap<(Opn, usize), LineData>,
    stats: OverlayStats,
    faults: FaultInjector,
    /// Deliberately-injected bug for the refinement-oracle canary
    /// (DESIGN.md §13): when armed, the next overlay destroy skips its
    /// OMS free, orphaning the segment. Never serialized.
    inject_oms_leak: bool,
    /// Telemetry handle (never serialized; the machine re-installs it
    /// after a snapshot restore).
    sink: TelemetrySink,
}

impl Default for OmtCache {
    fn default() -> Self {
        OmtCache::new(OverlayConfig::default().omt_cache_entries)
    }
}

impl OverlayManager {
    /// Creates a manager with an empty OMS (grow it before evictions, or
    /// let [`OverlayManager::evict_line`] grow on demand).
    pub fn new(config: OverlayConfig) -> Self {
        let omt_cache = OmtCache::new(config.omt_cache_entries);
        Self {
            config,
            omt: Omt::new(),
            omt_cache,
            store: OverlayMemoryStore::new(),
            resident: FxHashMap::default(),
            stats: OverlayStats::default(),
            faults: FaultInjector::none(),
            inject_oms_leak: false,
            sink: TelemetrySink::noop(),
        }
    }

    /// Arms the canary bug: the next destroy with a live segment skips
    /// its OMS free (one-shot). Exists so the refinement oracle can be
    /// shown to catch a real accounting bug; never set in production
    /// paths.
    pub fn set_inject_oms_leak(&mut self, armed: bool) {
        self.inject_oms_leak = armed;
    }

    /// Installs a fault injector, shared with the OMS.
    /// [`FaultSite::OmtCacheCorruption`] is honored here;
    /// [`FaultSite::OmsAllocFailed`] in the store.
    pub fn set_fault_injector(&mut self, faults: FaultInjector) {
        self.store.set_fault_injector(faults.clone());
        self.faults = faults;
    }

    /// Installs the telemetry sink, shared with the OMS (a clone of the
    /// machine's sink).
    pub fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.store.set_telemetry(sink.clone());
        self.sink = sink;
    }

    /// Copies the injector-wide total of injected faults into
    /// [`OverlayStats::injected_faults`]. All layers share one injector,
    /// so this snapshot covers OS, DRAM, store and manager sites.
    pub fn sync_injected_faults(&mut self) {
        self.stats.injected_faults.reset();
        self.stats.injected_faults.add(self.faults.total_injected());
    }

    /// Records one allocation retry (called by the reclaim orchestration
    /// in `po-sim` when it re-attempts after freeing memory).
    pub fn note_alloc_retry(&mut self) {
        self.stats.alloc_retries.inc();
    }

    /// Returns the configuration.
    pub fn config(&self) -> &OverlayConfig {
        &self.config
    }

    /// Returns statistics.
    pub fn stats(&self) -> &OverlayStats {
        &self.stats
    }

    /// Returns the OMS (memory accounting, invariants).
    pub fn store(&self) -> &OverlayMemoryStore {
        &self.store
    }

    /// Returns the OMT cache (timing/statistics).
    pub fn omt_cache(&self) -> &OmtCache {
        &self.omt_cache
    }

    /// Returns the OMT (inspection in tests).
    pub fn omt(&self) -> &Omt {
        &self.omt
    }

    /// Asks the OS for one chunk of OMS pages.
    ///
    /// # Errors
    ///
    /// Propagates the grant failure.
    pub fn grow_store(&mut self, grant: &mut GrantFn<'_>) -> PoResult<()> {
        let frames = self.config.oms_chunk_frames;
        let base = grant(frames)?;
        self.store.add_chunk(base, frames);
        Ok(())
    }

    /// Creates an (empty) overlay for `opn`. Idempotent.
    ///
    /// # Errors
    ///
    /// Currently infallible; returns `PoResult` for forward compatibility
    /// with quota-limited configurations.
    pub fn create_overlay(&mut self, opn: Opn) -> PoResult<()> {
        if self.omt.get(opn).is_none() {
            self.omt.insert(opn, OmtEntry::empty());
            self.stats.overlays_created.inc();
        }
        Ok(())
    }

    /// Whether `opn` has an overlay.
    pub fn has_overlay(&self, opn: Opn) -> bool {
        self.omt.get(opn).is_some()
    }

    /// The page's OBitVector.
    ///
    /// # Errors
    ///
    /// [`PoError::NoOverlay`] if the page has no overlay.
    pub fn obitvec(&self, opn: Opn) -> PoResult<OBitVector> {
        Ok(self.omt.get(opn).ok_or(PoError::NoOverlay(opn))?.obitvec)
    }

    /// Performs an **overlaying write** (§4.3.3): remaps `line` into the
    /// overlay with `data` as its new contents. Creates the overlay if
    /// needed. The data stays cache-resident (dirty) until evicted.
    ///
    /// # Errors
    ///
    /// Propagates overlay-creation failures.
    pub fn overlaying_write(&mut self, opn: Opn, line: usize, data: LineData) -> PoResult<()> {
        self.create_overlay(opn)?;
        // Statically infallible: create_overlay inserted the entry above.
        let entry = self.omt.get_mut(opn).expect("entry inserted by create_overlay");
        if entry.obitvec.contains(line) {
            // Already remapped: this is just a simple write.
            self.stats.simple_writes.inc();
        } else {
            entry.obitvec.set(line);
            self.stats.overlaying_writes.inc();
            self.sink.emit(|| TelemetryEvent::OverlayingWrite { opn: opn.raw(), line: line as u8 });
        }
        self.resident.insert((opn, line), data);
        Ok(())
    }

    /// Performs a **simple write** (§4.3.2) to a line already present in
    /// the overlay.
    ///
    /// # Errors
    ///
    /// [`PoError::NoOverlay`] / [`PoError::LineNotInOverlay`] if the line
    /// is not mapped to the overlay (use
    /// [`OverlayManager::overlaying_write`] for that case).
    pub fn write_line(&mut self, opn: Opn, line: usize, data: LineData) -> PoResult<()> {
        let entry = self.omt.get(opn).ok_or(PoError::NoOverlay(opn))?;
        if !entry.obitvec.contains(line) {
            return Err(PoError::LineNotInOverlay { opn, line });
        }
        self.stats.simple_writes.inc();
        self.resident.insert((opn, line), data);
        Ok(())
    }

    /// Reads a line that the OBitVector maps to the overlay.
    ///
    /// # Errors
    ///
    /// [`PoError::NoOverlay`] / [`PoError::LineNotInOverlay`] if the line
    /// is not in the overlay.
    pub fn read_line(&self, opn: Opn, line: usize, mem: &DataStore) -> PoResult<LineData> {
        let entry = self.omt.get(opn).ok_or(PoError::NoOverlay(opn))?;
        if !entry.obitvec.contains(line) {
            return Err(PoError::LineNotInOverlay { opn, line });
        }
        if let Some(data) = self.resident.get(&(opn, line)) {
            return Ok(*data);
        }
        let seg = entry
            .segment
            .ok_or(PoError::Corrupted("overlay line neither cache-resident nor in the OMS"))?;
        let addr = seg
            .meta
            .line_addr(seg.base, line)
            .ok_or(PoError::Corrupted("OBitVector set but no slot allocated"))?;
        Ok(mem.read_line(addr))
    }

    /// The paper's access semantics (§2.1): read `line` from the overlay
    /// if present there, otherwise from the physical page at
    /// `phys_line_addr`.
    ///
    /// # Errors
    ///
    /// Propagates overlay read failures.
    pub fn resolve_read(
        &self,
        opn: Opn,
        line: usize,
        phys_line_addr: MainMemAddr,
        mem: &DataStore,
    ) -> PoResult<LineData> {
        match self.omt.get(opn) {
            Some(e) if e.obitvec.contains(line) => self.read_line(opn, line, mem),
            _ => Ok(mem.read_line(phys_line_addr)),
        }
    }

    fn allocate_segment(
        &mut self,
        class: SegmentClass,
        grant: &mut GrantFn<'_>,
        outcome: &mut EvictOutcome,
    ) -> PoResult<MainMemAddr> {
        match self.store.allocate(class) {
            Ok(base) => Ok(base),
            Err(PoError::OverlayStoreExhausted) => {
                // §4.4.3: ask the OS for more pages, then retry once.
                let frames = self.config.oms_chunk_frames;
                let chunk = grant(frames)?;
                self.store.add_chunk(chunk, frames);
                outcome.grew_store = true;
                self.store.allocate(class)
            }
            Err(e) => Err(e),
        }
    }

    /// Evicts a dirty overlay line from the cache into the OMS,
    /// allocating or migrating the overlay's segment as needed (§4.4.2).
    /// No-op if the line is not cache-resident.
    ///
    /// # Errors
    ///
    /// [`PoError::NoOverlay`] if the page has no overlay; allocation
    /// errors if the OMS cannot grow.
    pub fn evict_line(
        &mut self,
        opn: Opn,
        line: usize,
        mem: &mut DataStore,
        grant: &mut GrantFn<'_>,
    ) -> PoResult<EvictOutcome> {
        let mut outcome = EvictOutcome::default();
        if !self.omt.get(opn).map(|e| e.obitvec.contains(line)).unwrap_or(false) {
            return Err(self
                .omt
                .get(opn)
                .map(|_| PoError::LineNotInOverlay { opn, line })
                .unwrap_or(PoError::NoOverlay(opn)));
        }
        // Read (do not yet remove) the cache-resident copy: if segment
        // allocation fails below, the line must remain resident so no
        // data is lost (the grant can be retried later).
        let data = match self.resident.get(&(opn, line)) {
            Some(d) => *d,
            None => return Ok(outcome), // clean in OMS already
        };

        // The entry was checked present at function entry; a vanished
        // entry mid-eviction is state corruption, reported rather than
        // panicked on.
        const GONE: PoError = PoError::Corrupted("OMT entry vanished during eviction");

        // Ensure a segment exists with a slot for this line.
        let needed = self.omt.get(opn).ok_or(GONE)?.obitvec.len();
        if self.omt.get(opn).ok_or(GONE)?.segment.is_none() {
            let class = SegmentClass::for_lines(needed.max(1)).max(self.config.min_segment_class);
            let base = self.allocate_segment(class, grant, &mut outcome)?;
            let seg = SegmentRef { base, class, meta: SegmentMeta::new(class) };
            self.omt.get_mut(opn).ok_or(GONE)?.segment = Some(seg);
            self.stats.segment_allocs.inc();
            outcome.allocated_segment = true;
        }

        // Try to place the line; migrate to a larger segment if full.
        let mut seg = self.omt.get(opn).ok_or(GONE)?.segment.ok_or(GONE)?;
        if seg.meta.alloc_slot(line).is_none() {
            let target = {
                let by_count = SegmentClass::for_lines(needed.max(1));
                let by_growth = seg.class.next_larger().unwrap_or(SegmentClass::K4);
                by_count.max(by_growth).max(self.config.min_segment_class)
            };
            let new_base = self.allocate_segment(target, grant, &mut outcome)?;
            let mut new_meta = SegmentMeta::new(target);
            // Move every stored line to the new segment.
            for l in self.omt.get(opn).ok_or(GONE)?.obitvec.iter() {
                if let Some(old_addr) = seg.meta.line_addr(seg.base, l) {
                    if seg.meta.slot_of(l).is_some() && !self.resident.contains_key(&(opn, l)) {
                        let slot = new_meta
                            .alloc_slot(l)
                            .ok_or(PoError::Corrupted("migration target segment too small"))?;
                        let new_addr = new_base.add((slot * po_types::geometry::LINE_SIZE) as u64);
                        let d = mem.read_line(old_addr);
                        mem.write_line(new_addr, d);
                        outcome.lines_moved += 1;
                    }
                }
            }
            self.store.free(seg.base, seg.class)?;
            seg = SegmentRef { base: new_base, class: target, meta: new_meta };
            seg.meta
                .alloc_slot(line)
                .ok_or(PoError::Corrupted("fresh migration segment rejected a slot"))?;
            self.stats.migrations.inc();
            outcome.migrated = true;
        }

        let addr = seg
            .meta
            .line_addr(seg.base, line)
            .ok_or(PoError::Corrupted("evicted line lost its segment slot"))?;
        mem.write_line(addr, data);
        self.resident.remove(&(opn, line));
        self.omt.get_mut(opn).ok_or(GONE)?.segment = Some(seg);
        self.omt_cache.access(opn, true);
        self.stats.evictions.inc();
        Ok(outcome)
    }

    /// Evicts every cache-resident line of `opn` (checkpoint flush,
    /// promotion preparation).
    ///
    /// # Errors
    ///
    /// Propagates eviction failures.
    pub fn evict_all(
        &mut self,
        opn: Opn,
        mem: &mut DataStore,
        grant: &mut GrantFn<'_>,
    ) -> PoResult<usize> {
        let mut lines: Vec<usize> =
            self.resident.keys().filter(|(o, _)| *o == opn).map(|(_, l)| *l).collect();
        // Hash-ordered map: evict in line order so segment allocation and
        // migration (and any seeded fault plan) are reproducible.
        lines.sort_unstable();
        let n = lines.len();
        for line in lines {
            self.evict_line(opn, line, mem, grant)?;
        }
        Ok(n)
    }

    /// Memory-controller resolution (§4.3.1): on a full cache miss to an
    /// overlay address, consult the OMT cache and return the line's OMS
    /// address plus whether the OMT cache hit (a miss costs
    /// [`OverlayConfig::omt_walk_latency`]).
    ///
    /// # Errors
    ///
    /// [`PoError::NoOverlay`] / [`PoError::LineNotInOverlay`] /
    /// [`PoError::Corrupted`] if the line has no OMS backing (e.g. it is
    /// still dirty in the cache — such a request would not reach the
    /// controller in hardware).
    pub fn controller_resolve(
        &mut self,
        opn: Opn,
        line: usize,
        modify: bool,
    ) -> PoResult<(MainMemAddr, bool)> {
        let entry = self.omt.get(opn).ok_or(PoError::NoOverlay(opn))?;
        if !entry.obitvec.contains(line) {
            return Err(PoError::LineNotInOverlay { opn, line });
        }
        let seg = entry
            .segment
            .ok_or(PoError::Corrupted("controller asked for a line with no OMS segment"))?;
        let addr = seg
            .meta
            .line_addr(seg.base, line)
            .ok_or(PoError::Corrupted("controller asked for a line with no slot"))?;
        if self.faults.fire(FaultSite::OmtCacheCorruption) {
            // Detected-and-discarded ECC model: the corrupted entry is
            // dropped, forcing a miss and an OMT re-walk — extra latency,
            // never silent data corruption.
            self.omt_cache.invalidate(opn);
            self.sink.emit(|| TelemetryEvent::FaultInjected {
                site: FaultSite::OmtCacheCorruption.name(),
            });
        }
        let hit = self.omt_cache.access(opn, modify);
        self.sink.emit(|| TelemetryEvent::OmsResolve {
            opn: opn.raw(),
            line: line as u8,
            cache_hit: hit,
        });
        Ok((addr, hit))
    }

    /// Warms the OMT cache with `opn`'s entry, as the TLB-fill path does
    /// when it fetches the OBitVector from the OMT (Figure 6: one walk
    /// serves both the TLB and the controller cache). Returns whether the
    /// entry was already cached. No-op for pages without overlays.
    pub fn warm_omt_cache(&mut self, opn: Opn) -> bool {
        if self.omt.get(opn).is_some() {
            self.omt_cache.access(opn, false)
        } else {
            false
        }
    }

    fn destroy(&mut self, opn: Opn) -> PoResult<()> {
        if let Some(entry) = self.omt.remove(opn) {
            if let Some(seg) = entry.segment {
                // The OMT entry is gone but the segment is still
                // allocated: the OMT-write→OMS-free window the DST
                // harness crashes inside (the segment is orphaned until
                // recovery replays the op).
                if self.faults.fire_crash(CrashStage::OmtFreeWindow) {
                    return Err(PoError::Crashed(CrashStage::OmtFreeWindow));
                }
                if self.inject_oms_leak {
                    self.inject_oms_leak = false;
                } else {
                    self.store.free(seg.base, seg.class)?;
                }
            }
        }
        self.resident.retain(|(o, _), _| *o != opn);
        self.omt_cache.invalidate(opn);
        Ok(())
    }

    /// Promotion: **commit** (§4.3.4) — writes every overlay line into
    /// the physical page at `dst_frame`, then destroys the overlay.
    /// Returns the number of lines merged.
    ///
    /// # Errors
    ///
    /// [`PoError::NoOverlay`] if the page has no overlay.
    pub fn commit(
        &mut self,
        opn: Opn,
        dst_frame: MainMemAddr,
        mem: &mut DataStore,
    ) -> PoResult<usize> {
        let entry = *self.omt.get(opn).ok_or(PoError::NoOverlay(opn))?;
        let mut merged = 0;
        for line in entry.obitvec.iter() {
            let data = self.read_line(opn, line, mem)?;
            mem.write_line(dst_frame.add((line * po_types::geometry::LINE_SIZE) as u64), data);
            merged += 1;
        }
        self.destroy(opn)?;
        self.stats.commits.inc();
        Ok(merged)
    }

    /// Promotion: **copy-and-commit** (§4.3.4) — copies the page at
    /// `src_frame` to `dst_frame`, applies the overlay lines on top, then
    /// destroys the overlay (the overlay-on-write promotion path).
    ///
    /// # Errors
    ///
    /// [`PoError::NoOverlay`] if the page has no overlay.
    ///
    /// # Panics
    ///
    /// Panics if the frames are not page-aligned.
    pub fn copy_and_commit(
        &mut self,
        opn: Opn,
        src_frame: MainMemAddr,
        dst_frame: MainMemAddr,
        mem: &mut DataStore,
    ) -> PoResult<usize> {
        if !self.has_overlay(opn) {
            return Err(PoError::NoOverlay(opn));
        }
        mem.copy_frame(src_frame, dst_frame);
        let merged = self.commit(opn, dst_frame, mem)?;
        self.stats.copy_commits.inc();
        // `commit` counted itself too; keep the split visible by undoing
        // nothing — both counters are documented as overlapping for this
        // path.
        Ok(merged)
    }

    /// Promotion: **discard** (§4.3.4) — throws the overlay away; the
    /// page reverts to the physical page (speculation abort).
    ///
    /// # Errors
    ///
    /// [`PoError::NoOverlay`] if the page has no overlay.
    pub fn discard(&mut self, opn: Opn) -> PoResult<()> {
        if !self.has_overlay(opn) {
            return Err(PoError::NoOverlay(opn));
        }
        self.destroy(opn)?;
        self.stats.discards.inc();
        Ok(())
    }

    /// Number of dirty overlay lines currently cache-resident.
    pub fn resident_lines(&self) -> usize {
        self.resident.len()
    }

    /// Cache-resident dirty lines belonging to `opn`.
    pub fn resident_lines_of(&self, opn: Opn) -> usize {
        self.resident.keys().filter(|(o, _)| *o == opn).count()
    }

    /// `true` if `line` of `opn` has a cache-resident functional copy
    /// but no slot in the OMS yet — lazy allocation (§4.3.3) has not
    /// run, so the memory controller cannot resolve the line until it
    /// is materialized by an eviction.
    pub fn line_needs_materialization(&self, opn: Opn, line: usize) -> bool {
        self.resident.contains_key(&(opn, line))
            && self
                .omt
                .get(opn)
                .and_then(|e| e.segment)
                .and_then(|s| s.meta.line_addr(s.base, line))
                .is_none()
    }

    /// Total overlay memory footprint in bytes: OMS segments in use plus
    /// segment-metadata overhead is already inside the segment, so this
    /// is simply bytes in use (Figure 8's metric for overlay-on-write).
    pub fn overlay_memory_bytes(&self) -> u64 {
        self.store.bytes_in_use()
    }

    /// Pages that currently have overlays.
    pub fn overlay_count(&self) -> usize {
        self.omt.len()
    }

    /// Overlays worth collapsing under memory pressure, coldest first:
    /// pages whose OMS segment is allocated, preferring ones absent from
    /// the OMT cache (not recently touched by the controller), then in
    /// deterministic OPN order. `exempt` (the page whose access is being
    /// served) is never offered.
    pub fn reclaim_candidates(&self, exempt: Option<Opn>) -> Vec<Opn> {
        let mut v: Vec<Opn> = self
            .omt
            .iter()
            .filter(|(o, e)| Some(**o) != exempt && e.segment.is_some())
            .map(|(o, _)| *o)
            .collect();
        v.sort_by_key(|o| (self.omt_cache.contains(*o), o.raw()));
        v
    }

    /// Collapses `opn`'s overlay into the physical page at `dst_frame`
    /// (the §4.3.4 commit promotion, used here as the memory-pressure
    /// release valve) and returns the OMS bytes freed.
    ///
    /// # Errors
    ///
    /// Propagates commit failures.
    pub fn collapse_overlay(
        &mut self,
        opn: Opn,
        dst_frame: MainMemAddr,
        mem: &mut DataStore,
    ) -> PoResult<u64> {
        let before = self.store.bytes_in_use();
        self.commit(opn, dst_frame, mem)?;
        let freed = before.saturating_sub(self.store.bytes_in_use());
        self.stats.reclaims.inc();
        self.stats.reclaim_freed_bytes.add(freed);
        self.sink.emit(|| TelemetryEvent::Reclaim { opn: opn.raw(), freed_bytes: freed });
        Ok(freed)
    }

    /// Live OMS compaction (§4.4.2): collects every OMT-referenced
    /// segment and runs one [`OverlayMemoryStore::compact`] pass. For
    /// each improving move the relocation hook copies the segment's
    /// bytes line-by-line, polls the first [`CrashStage::MidCompaction`]
    /// window (bytes copied, OMT still pointing at the old segment),
    /// then atomically repoints the owner's OMT entry and invalidates
    /// its OMT-cache copy — the caller (po-sim) layers the TLB
    /// shootdown on top. Returns the pass outcome plus the pages whose
    /// segments moved (the shootdown set); relocation is invisible to
    /// overlay semantics (every line readable before is readable after,
    /// with identical bytes).
    ///
    /// A fired [`FaultSite::CompactionRelocationFailed`] makes the copy
    /// fail, which aborts the pass gracefully
    /// ([`crate::CompactionOutcome::aborted`]); the caller may retry.
    ///
    /// # Errors
    ///
    /// [`PoError::Crashed`] when an armed mid-compaction crash fires
    /// (state frozen for DST recovery); [`PoError::Corrupted`] if a live
    /// segment has no OMT owner (accounting bug).
    pub fn compact_store(
        &mut self,
        mem: &mut DataStore,
    ) -> PoResult<(crate::CompactionOutcome, Vec<Opn>)> {
        let mut owner: HashMap<u64, Opn> = HashMap::new();
        let mut live: Vec<(MainMemAddr, SegmentClass)> = Vec::new();
        for (opn, entry) in self.omt.iter() {
            if let Some(seg) = entry.segment {
                owner.insert(seg.base.raw(), *opn);
                live.push((seg.base, seg.class));
            }
        }
        // Split borrows: the store drives the pass while the hook
        // mutates the OMT and OMT cache.
        let mut moved: Vec<Opn> = Vec::new();
        let Self { store, omt, omt_cache, faults, sink, .. } = self;
        let outcome = store.compact(&live, |old, new, class| {
            if faults.fire(FaultSite::CompactionRelocationFailed) {
                sink.emit(|| TelemetryEvent::FaultInjected {
                    site: FaultSite::CompactionRelocationFailed.name(),
                });
                return Err(PoError::Corrupted("compaction relocation copy failed"));
            }
            let lines = class.bytes() / po_types::geometry::LINE_SIZE;
            for i in 0..lines as u64 {
                let off = i * po_types::geometry::LINE_SIZE as u64;
                let data = mem.read_line(old.add(off));
                mem.write_line(new.add(off), data);
            }
            // First MidCompaction window: destination holds a full copy,
            // the OMT entry still points at the old segment.
            if faults.fire_crash(CrashStage::MidCompaction) {
                return Err(PoError::Crashed(CrashStage::MidCompaction));
            }
            let opn = *owner
                .get(&old.raw())
                .ok_or(PoError::Corrupted("compaction moved a segment with no OMT owner"))?;
            let entry = omt
                .get_mut(opn)
                .ok_or(PoError::Corrupted("OMT entry vanished during compaction"))?;
            let seg = entry
                .segment
                .as_mut()
                .ok_or(PoError::Corrupted("OMT segment vanished during compaction"))?;
            seg.base = new;
            omt_cache.invalidate(opn);
            moved.push(opn);
            Ok(())
        })?;
        let frag = (self.store.fragmentation_ratio() * 1000.0).round() as i64;
        self.sink.gauge("oms.fragmentation_pmille", frag);
        Ok((outcome, moved))
    }

    /// Structural self-check of the manager + store (DESIGN.md "Fault
    /// model & degradation"):
    ///
    /// 1. the OMS's bytes-in-use equals the summed size of all live
    ///    segments referenced by OMT entries;
    /// 2. every OBitVector bit is backed by a cache-resident line or an
    ///    allocated segment slot (no unreadable overlay lines);
    /// 3. the store's free lists are disjoint, chunk-bounded, and byte
    ///    conservation holds ([`OverlayMemoryStore::verify_layout`]).
    ///
    /// # Errors
    ///
    /// [`PoError::Corrupted`] naming the violated invariant.
    pub fn verify_invariants(&self) -> PoResult<()> {
        let mut live_bytes = 0u64;
        for (opn, entry) in self.omt.iter() {
            if let Some(seg) = entry.segment {
                live_bytes += seg.class.bytes() as u64;
            }
            for line in entry.obitvec.iter() {
                let resident = self.resident.contains_key(&(*opn, line));
                let stored =
                    entry.segment.map(|seg| seg.meta.slot_of(line).is_some()).unwrap_or(false);
                if !resident && !stored {
                    return Err(PoError::Corrupted(
                        "OBitVector bit has neither a resident nor a stored line",
                    ));
                }
            }
        }
        if live_bytes != self.store.bytes_in_use() {
            return Err(PoError::Corrupted("live segment bytes disagree with OMS bytes-in-use"));
        }
        self.store.verify_layout()
    }

    /// Serializes OMT, OMT cache, OMS and the cache-resident dirty lines
    /// (sorted by `(opn, line)` — byte-stable), then statistics. The
    /// configuration and fault injector are not serialized: pass the
    /// config to [`OverlayManager::decode_snapshot`] and reinstall the
    /// injector via [`OverlayManager::set_fault_injector`].
    pub fn encode_snapshot(&self, w: &mut SnapshotWriter) {
        self.omt.encode_snapshot(w);
        self.omt_cache.encode_snapshot(w);
        self.store.encode_snapshot(w);
        let mut keys: Vec<(Opn, usize)> = self.resident.keys().copied().collect();
        keys.sort_unstable_by_key(|&(o, l)| (o.raw(), l));
        w.put_len(keys.len());
        for key in keys {
            w.put_u64(key.0.raw());
            w.put_u8(key.1 as u8);
            w.put_bytes(self.resident[&key].as_bytes());
        }
        self.stats.encode_snapshot(w);
    }

    /// Rebuilds a manager with `config` from
    /// [`OverlayManager::encode_snapshot`] bytes.
    ///
    /// # Errors
    ///
    /// [`PoError::Corrupted`] on truncation or structurally invalid
    /// state (an out-of-range line index, or store invariants violated).
    pub fn decode_snapshot(config: OverlayConfig, r: &mut SnapshotReader) -> PoResult<Self> {
        let omt = Omt::decode_snapshot(r)?;
        let omt_cache = OmtCache::decode_snapshot(config.omt_cache_entries, r)?;
        let store = OverlayMemoryStore::decode_snapshot(r)?;
        let n = r.get_len()?;
        let mut resident = FxHashMap::with_capacity_and_hasher(n, Default::default());
        for _ in 0..n {
            let opn = Opn::from_raw(r.get_u64()?);
            let line = r.get_u8()? as usize;
            if line >= po_types::geometry::LINES_PER_PAGE {
                return Err(PoError::Corrupted("snapshot resident line index out of range"));
            }
            let mut bytes = [0u8; po_types::geometry::LINE_SIZE];
            bytes.copy_from_slice(r.get_bytes(po_types::geometry::LINE_SIZE)?);
            resident.insert((opn, line), LineData::from_bytes(bytes));
        }
        let stats = OverlayStats::decode_snapshot(r)?;
        Ok(Self {
            config,
            omt,
            omt_cache,
            store,
            resident,
            stats,
            faults: FaultInjector::none(),
            inject_oms_leak: false,
            sink: TelemetrySink::noop(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use po_types::{Asid, Vpn};

    fn opn(v: u64) -> Opn {
        Opn::encode(Asid::new(1), Vpn::new(v))
    }

    /// An OS stand-in handing out sequential chunks.
    struct Granter {
        next: u64,
    }

    impl Granter {
        fn new() -> Self {
            Self { next: 0x1000_0000 }
        }

        fn grant(&mut self) -> impl FnMut(u64) -> PoResult<MainMemAddr> + '_ {
            move |frames| {
                let base = self.next;
                self.next += frames * 4096;
                Ok(MainMemAddr::new(base))
            }
        }
    }

    fn mgr() -> OverlayManager {
        OverlayManager::new(OverlayConfig::default())
    }

    #[test]
    fn create_is_idempotent() {
        let mut m = mgr();
        m.create_overlay(opn(1)).unwrap();
        m.create_overlay(opn(1)).unwrap();
        assert_eq!(m.stats().overlays_created.get(), 1);
        assert_eq!(m.overlay_count(), 1);
    }

    #[test]
    fn overlaying_write_sets_bit_and_is_readable() {
        let mut m = mgr();
        let mem = DataStore::new();
        m.overlaying_write(opn(1), 5, LineData::splat(0xAB)).unwrap();
        assert!(m.obitvec(opn(1)).unwrap().contains(5));
        assert_eq!(m.read_line(opn(1), 5, &mem).unwrap(), LineData::splat(0xAB));
        assert_eq!(m.stats().overlaying_writes.get(), 1);
    }

    #[test]
    fn lazy_allocation_only_on_eviction() {
        let mut m = mgr();
        let mut mem = DataStore::new();
        let mut g = Granter::new();
        m.overlaying_write(opn(1), 0, LineData::splat(1)).unwrap();
        assert_eq!(m.overlay_memory_bytes(), 0, "no OMS use before eviction");
        let out = m.evict_line(opn(1), 0, &mut mem, &mut g.grant()).unwrap();
        assert!(out.allocated_segment);
        assert!(out.grew_store, "empty store must grow on first eviction");
        assert_eq!(m.overlay_memory_bytes(), 256, "one line fits a 256 B segment");
        assert_eq!(m.read_line(opn(1), 0, &mem).unwrap(), LineData::splat(1));
        assert_eq!(m.resident_lines(), 0);
    }

    #[test]
    fn simple_write_requires_presence() {
        let mut m = mgr();
        m.create_overlay(opn(1)).unwrap();
        assert!(matches!(
            m.write_line(opn(1), 3, LineData::zeroed()),
            Err(PoError::LineNotInOverlay { .. })
        ));
        m.overlaying_write(opn(1), 3, LineData::splat(9)).unwrap();
        m.write_line(opn(1), 3, LineData::splat(10)).unwrap();
        let mem = DataStore::new();
        assert_eq!(m.read_line(opn(1), 3, &mem).unwrap(), LineData::splat(10));
    }

    #[test]
    fn resolve_read_merges_overlay_and_physical_page() {
        let mut m = mgr();
        let mut mem = DataStore::new();
        let phys = MainMemAddr::new(0x7000);
        mem.write_line(phys, LineData::splat(0x11)); // physical copy
        m.overlaying_write(opn(1), 0, LineData::splat(0x22)).unwrap();
        // Line 0 is in the overlay → overlay data wins.
        assert_eq!(m.resolve_read(opn(1), 0, phys, &mem).unwrap(), LineData::splat(0x22));
        // Line 1 is not → physical page data.
        let phys1 = MainMemAddr::new(0x7040);
        mem.write_line(phys1, LineData::splat(0x33));
        assert_eq!(m.resolve_read(opn(1), 1, phys1, &mem).unwrap(), LineData::splat(0x33));
    }

    #[test]
    fn growth_migrates_to_larger_segments() {
        let mut m = mgr();
        let mut mem = DataStore::new();
        let mut g = Granter::new();
        // Write and evict 4 lines: first eviction sizes for the current
        // OBitVector, so evicting one-by-one with increasing vectors
        // exercises migration.
        for l in 0..4usize {
            m.overlaying_write(opn(1), l, LineData::splat(l as u8)).unwrap();
            m.evict_line(opn(1), l, &mut mem, &mut g.grant()).unwrap();
        }
        // 4 lines no longer fit a 256 B segment (capacity 3): must have
        // migrated, and all data must survive.
        assert!(m.stats().migrations.get() >= 1);
        for l in 0..4usize {
            assert_eq!(m.read_line(opn(1), l, &mem).unwrap(), LineData::splat(l as u8));
        }
        m.store().check_conservation().unwrap();
    }

    #[test]
    fn eviction_sizes_segment_for_whole_obitvector() {
        let mut m = mgr();
        let mut mem = DataStore::new();
        let mut g = Granter::new();
        // 10 overlaying writes, then evict one line: segment must already
        // be sized for 10 lines (K1 = 15 capacity).
        for l in 0..10usize {
            m.overlaying_write(opn(1), l, LineData::splat(l as u8)).unwrap();
        }
        m.evict_line(opn(1), 0, &mut mem, &mut g.grant()).unwrap();
        assert_eq!(m.overlay_memory_bytes(), 1024);
        assert_eq!(m.stats().migrations.get(), 0);
    }

    #[test]
    fn evict_all_flushes_everything() {
        let mut m = mgr();
        let mut mem = DataStore::new();
        let mut g = Granter::new();
        for l in [3usize, 17, 42] {
            m.overlaying_write(opn(2), l, LineData::splat(l as u8)).unwrap();
        }
        assert_eq!(m.resident_lines_of(opn(2)), 3);
        let n = m.evict_all(opn(2), &mut mem, &mut g.grant()).unwrap();
        assert_eq!(n, 3);
        assert_eq!(m.resident_lines_of(opn(2)), 0);
        for l in [3usize, 17, 42] {
            assert_eq!(m.read_line(opn(2), l, &mem).unwrap(), LineData::splat(l as u8));
        }
    }

    #[test]
    fn commit_merges_into_destination_frame() {
        let mut m = mgr();
        let mut mem = DataStore::new();
        let mut g = Granter::new();
        let dst = MainMemAddr::new(0x9000);
        mem.write_line(dst, LineData::splat(0x01)); // pre-existing line 0
        m.overlaying_write(opn(1), 1, LineData::splat(0xBB)).unwrap();
        m.overlaying_write(opn(1), 2, LineData::splat(0xCC)).unwrap();
        m.evict_line(opn(1), 1, &mut mem, &mut g.grant()).unwrap();
        // Line 2 stays cache-resident: commit must still see it.
        let merged = m.commit(opn(1), dst, &mut mem).unwrap();
        assert_eq!(merged, 2);
        assert_eq!(mem.read_line(dst), LineData::splat(0x01)); // untouched
        assert_eq!(mem.read_line(dst.add(64)), LineData::splat(0xBB));
        assert_eq!(mem.read_line(dst.add(128)), LineData::splat(0xCC));
        // Overlay is gone and its memory reclaimed.
        assert!(!m.has_overlay(opn(1)));
        assert_eq!(m.overlay_memory_bytes(), 0);
        m.store().check_conservation().unwrap();
    }

    #[test]
    fn copy_and_commit_builds_merged_page() {
        let mut m = mgr();
        let mut mem = DataStore::new();
        let src = MainMemAddr::new(0x4000);
        let dst = MainMemAddr::new(0x8000);
        for l in 0..64u64 {
            mem.write_line(src.add(l * 64), LineData::splat(7));
        }
        m.overlaying_write(opn(1), 5, LineData::splat(9)).unwrap();
        m.copy_and_commit(opn(1), src, dst, &mut mem).unwrap();
        for l in 0..64u64 {
            let expect = if l == 5 { 9 } else { 7 };
            assert_eq!(mem.read_line(dst.add(l * 64)), LineData::splat(expect), "line {l}");
        }
        assert!(!m.has_overlay(opn(1)));
    }

    #[test]
    fn discard_reverts_and_frees() {
        let mut m = mgr();
        let mut mem = DataStore::new();
        let mut g = Granter::new();
        m.overlaying_write(opn(1), 0, LineData::splat(5)).unwrap();
        m.evict_line(opn(1), 0, &mut mem, &mut g.grant()).unwrap();
        m.discard(opn(1)).unwrap();
        assert!(!m.has_overlay(opn(1)));
        assert_eq!(m.overlay_memory_bytes(), 0);
        assert!(matches!(m.read_line(opn(1), 0, &mem), Err(PoError::NoOverlay(_))));
        m.store().check_conservation().unwrap();
    }

    #[test]
    fn controller_resolve_reports_omt_cache_hits() {
        let mut m = mgr();
        let mut mem = DataStore::new();
        let mut g = Granter::new();
        m.overlaying_write(opn(1), 0, LineData::splat(5)).unwrap();
        m.evict_line(opn(1), 0, &mut mem, &mut g.grant()).unwrap();
        // evict_line already touched the OMT cache: resolve now hits.
        let (addr, hit) = m.controller_resolve(opn(1), 0, false).unwrap();
        assert!(hit);
        assert_eq!(mem.read_line(addr), LineData::splat(5));
        // A different overlay page cold-misses.
        m.overlaying_write(opn(2), 0, LineData::splat(6)).unwrap();
        m.evict_line(opn(2), 0, &mut mem, &mut g.grant()).unwrap();
        assert!(m.omt_cache().stats().misses.get() >= 1);
    }

    #[test]
    fn snapshot_round_trip_is_byte_identical() {
        let mut m = mgr();
        let mut mem = DataStore::new();
        let mut g = Granter::new();
        // Build rich state: stored lines, resident lines, a migration.
        for l in 0..5usize {
            m.overlaying_write(opn(1), l, LineData::splat(l as u8)).unwrap();
            m.evict_line(opn(1), l, &mut mem, &mut g.grant()).unwrap();
        }
        m.overlaying_write(opn(2), 7, LineData::splat(0x77)).unwrap();
        m.overlaying_write(opn(3), 63, LineData::splat(0x63)).unwrap();
        m.evict_line(opn(3), 63, &mut mem, &mut g.grant()).unwrap();
        m.verify_invariants().unwrap();

        let mut w = po_types::SnapshotWriter::new();
        m.encode_snapshot(&mut w);
        let bytes = w.finish();
        let mut r = po_types::SnapshotReader::new(&bytes);
        let restored = OverlayManager::decode_snapshot(m.config().clone(), &mut r).unwrap();
        r.expect_end().unwrap();
        restored.verify_invariants().unwrap();

        // Re-encoding the restored manager yields identical bytes.
        let mut w2 = po_types::SnapshotWriter::new();
        restored.encode_snapshot(&mut w2);
        assert_eq!(bytes, w2.finish());

        // And the restored manager reads the same data.
        for l in 0..5usize {
            assert_eq!(restored.read_line(opn(1), l, &mem).unwrap(), LineData::splat(l as u8));
        }
        assert_eq!(restored.read_line(opn(2), 7, &mem).unwrap(), LineData::splat(0x77));
        assert_eq!(restored.stats().overlaying_writes.get(), m.stats().overlaying_writes.get());
        assert_eq!(restored.omt_cache().len(), m.omt_cache().len());
    }

    #[test]
    fn snapshot_rejects_corruption() {
        let mut m = mgr();
        m.overlaying_write(opn(1), 3, LineData::splat(1)).unwrap();
        let mut w = po_types::SnapshotWriter::new();
        m.encode_snapshot(&mut w);
        let mut bytes = w.finish();
        // Truncation is detected.
        let mut r = po_types::SnapshotReader::new(&bytes[..bytes.len() - 1]);
        assert!(OverlayManager::decode_snapshot(OverlayConfig::default(), &mut r).is_err());
        // A resident line index >= 64 is rejected. The index byte sits
        // right after the OMT/cache/store sections and the resident
        // count; find it by scanning for the known (opn, line) prefix.
        let opn_raw = opn(1).raw().to_le_bytes();
        let pos = bytes.windows(9).position(|win| win[..8] == opn_raw && win[8] == 3);
        if let Some(p) = pos {
            bytes[p + 8] = 64;
            let mut r = po_types::SnapshotReader::new(&bytes);
            assert!(OverlayManager::decode_snapshot(OverlayConfig::default(), &mut r).is_err());
        }
    }

    #[test]
    fn compaction_is_semantically_invisible() {
        let mut m = mgr();
        let mut mem = DataStore::new();
        let mut g = Granter::new();
        // Build fragmentation: many single-line overlays (256 B segments),
        // then destroy most of them so stragglers pin high pages.
        for v in 0..48u64 {
            m.overlaying_write(opn(v), 0, LineData::splat(v as u8)).unwrap();
            m.evict_line(opn(v), 0, &mut mem, &mut g.grant()).unwrap();
        }
        for v in 0..48u64 {
            if v % 7 != 0 {
                m.discard(opn(v)).unwrap();
            }
        }
        m.verify_invariants().unwrap();
        let before_bytes = m.overlay_memory_bytes();
        let (out, moved) = m.compact_store(&mut mem).unwrap();
        assert!(!out.aborted);
        assert!(out.moves > 0, "stragglers must relocate");
        assert_eq!(moved.len() as u64, out.moves);
        // Relocation is invisible: same footprint, same data.
        assert_eq!(m.overlay_memory_bytes(), before_bytes);
        m.verify_invariants().unwrap();
        for v in 0..48u64 {
            if v % 7 == 0 {
                assert_eq!(m.read_line(opn(v), 0, &mem).unwrap(), LineData::splat(v as u8));
            }
        }
        assert_eq!(m.store().stats().compaction_passes.get(), 1);
        assert!(m.store().stats().relocated_bytes.get() >= out.relocated_bytes);
    }

    #[test]
    fn compaction_relocation_fault_aborts_and_retries() {
        use po_types::FaultPlan;
        let mut m = mgr();
        let mut mem = DataStore::new();
        let mut g = Granter::new();
        for v in 0..32u64 {
            m.overlaying_write(opn(v), 0, LineData::splat(v as u8)).unwrap();
            m.evict_line(opn(v), 0, &mut mem, &mut g.grant()).unwrap();
        }
        for v in 0..31u64 {
            m.discard(opn(v)).unwrap();
        }
        m.set_fault_injector(FaultInjector::from_plan(
            FaultPlan::new(3).at_queries(FaultSite::CompactionRelocationFailed, [0]),
        ));
        let (out, _) = m.compact_store(&mut mem).unwrap();
        assert!(out.aborted, "fired fault must abort the pass");
        assert_eq!(out.moves, 0);
        m.verify_invariants().unwrap();
        // The schedule fired once; the retry goes through.
        let (out, _) = m.compact_store(&mut mem).unwrap();
        assert!(!out.aborted);
        assert!(out.moves > 0);
        m.verify_invariants().unwrap();
        assert_eq!(m.read_line(opn(31), 0, &mem).unwrap(), LineData::splat(31));
    }

    #[test]
    fn errors_are_specific() {
        let mut m = mgr();
        let mem = DataStore::new();
        assert!(matches!(m.obitvec(opn(9)), Err(PoError::NoOverlay(_))));
        assert!(matches!(m.read_line(opn(9), 0, &mem), Err(PoError::NoOverlay(_))));
        m.create_overlay(opn(9)).unwrap();
        assert!(matches!(m.read_line(opn(9), 0, &mem), Err(PoError::LineNotInOverlay { .. })));
        assert!(matches!(m.discard(opn(10)), Err(PoError::NoOverlay(_))));
    }
}
