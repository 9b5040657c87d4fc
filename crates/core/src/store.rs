//! The Overlay Memory Store (OMS): free-space management (§4.4.3).
//!
//! The memory controller manages a region of main memory holding every
//! overlay, split into segments of the five fixed sizes. Free segments
//! are kept on per-class free lists (the paper uses a grouped linked
//! list threaded through the free segments themselves; the management
//! structure here is equivalent, and the accounting — what is free,
//! what is allocated, what splits happened — matches). When a class
//! runs dry, a segment of the next larger class is split in two; when
//! the 4 KB class runs dry, the OS is asked for another chunk of pages.

use crate::segment::SegmentClass;
use po_telemetry::{Event as TelemetryEvent, TelemetrySink};
use po_types::geometry::PAGE_SIZE;
use po_types::snapshot::{SnapshotReader, SnapshotWriter};
use po_types::{Counter, CrashStage, FaultInjector, FaultSite, MainMemAddr, PoError, PoResult};
use std::collections::BTreeSet;

po_types::stats! {
    /// OMS statistics.
    #[derive(Clone, Debug, Default)]
    pub struct StoreStats: "oms" {
        /// Segment allocations served.
        pub allocations: Counter,
        /// Segments returned.
        pub frees: Counter,
        /// Splits of a larger segment into two smaller ones.
        pub splits: Counter,
        /// Chunks requested from the OS.
        pub os_grants: Counter,
        /// Compaction passes run (§4.4.2 memory compaction).
        pub compaction_passes: Counter,
        /// Total bytes moved by compaction relocations.
        pub relocated_bytes: Counter,
    }
}

/// What one [`OverlayMemoryStore::compact`] pass accomplished.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompactionOutcome {
    /// Bytes moved to lower addresses.
    pub relocated_bytes: u64,
    /// Live segments relocated.
    pub moves: u64,
    /// Buddy merges performed on the free lists.
    pub merges: u64,
    /// `true` when a relocation copy failed mid-pass and the pass
    /// aborted gracefully (the destination segment was released and the
    /// store is consistent; the caller may retry).
    pub aborted: bool,
}

/// The Overlay Memory Store allocator.
///
/// # Example
///
/// ```
/// use po_overlay::{OverlayMemoryStore, SegmentClass};
/// use po_types::MainMemAddr;
///
/// let mut oms = OverlayMemoryStore::new();
/// oms.add_chunk(MainMemAddr::new(0x10_0000), 1); // one 4 KB page
/// let seg = oms.allocate(SegmentClass::B256)?;
/// assert_eq!(oms.bytes_in_use(), 256);
/// oms.free(seg, SegmentClass::B256)?;
/// assert_eq!(oms.bytes_in_use(), 0);
/// # Ok::<(), po_types::PoError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct OverlayMemoryStore {
    /// Per-class free lists (sorted for determinism; the paper threads a
    /// grouped linked list through the segments themselves).
    free: [BTreeSet<u64>; 5],
    /// Total bytes under OMS management.
    managed_bytes: u64,
    /// Bytes currently allocated to overlays.
    used_bytes: u64,
    /// Chunks granted by the OS, as `(base, bytes)` spans; used by
    /// [`OverlayMemoryStore::verify_layout`] to bound the free lists.
    chunks: Vec<(u64, u64)>,
    stats: StoreStats,
    faults: FaultInjector,
    /// Telemetry handle (never serialized; the machine re-installs it
    /// after a snapshot restore).
    sink: TelemetrySink,
}

impl OverlayMemoryStore {
    /// Creates an empty store (no memory yet; add with
    /// [`OverlayMemoryStore::add_chunk`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns statistics.
    pub fn stats(&self) -> &StoreStats {
        &self.stats
    }

    /// Installs a fault injector; [`FaultSite::OmsAllocFailed`] is
    /// honored here.
    pub fn set_fault_injector(&mut self, faults: FaultInjector) {
        self.faults = faults;
    }

    /// Installs the telemetry sink (a clone sharing the machine's core).
    pub fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.sink = sink;
    }

    fn class_idx(class: SegmentClass) -> usize {
        // Statically infallible: ALL enumerates every SegmentClass variant.
        SegmentClass::ALL.iter().position(|&c| c == class).expect("ALL covers every class")
    }

    /// Adds `frames` 4 KB pages starting at page-aligned `base` to the
    /// store (the OS grant of §4.4.3).
    ///
    /// # Panics
    ///
    /// Panics if `base` is not page-aligned.
    pub fn add_chunk(&mut self, base: MainMemAddr, frames: u64) {
        assert_eq!(base.page_offset(), 0, "OMS chunks must be page-aligned");
        self.stats.os_grants.inc();
        for i in 0..frames {
            let addr = base.raw() + i * PAGE_SIZE as u64;
            self.free[Self::class_idx(SegmentClass::K4)].insert(addr);
        }
        self.chunks.push((base.raw(), frames * PAGE_SIZE as u64));
        self.managed_bytes += frames * PAGE_SIZE as u64;
    }

    /// Allocates a segment of `class`, splitting larger segments as
    /// needed.
    ///
    /// # Errors
    ///
    /// Returns [`PoError::OverlayStoreExhausted`] when no segment of this
    /// or any larger class is free — the caller should obtain an OS grant
    /// ([`OverlayMemoryStore::add_chunk`]) and retry.
    pub fn allocate(&mut self, class: SegmentClass) -> PoResult<MainMemAddr> {
        if self.faults.fire(FaultSite::OmsAllocFailed) {
            // Transient allocator glitch: report exhaustion without
            // consuming anything; the caller's grow/reclaim path retries.
            self.sink
                .emit(|| TelemetryEvent::FaultInjected { site: FaultSite::OmsAllocFailed.name() });
            return Err(PoError::OverlayStoreExhausted);
        }
        let idx = Self::class_idx(class);
        if let Some(&addr) = self.free[idx].iter().next() {
            self.free[idx].remove(&addr);
            self.used_bytes += class.bytes() as u64;
            self.stats.allocations.inc();
            return Ok(MainMemAddr::new(addr));
        }
        // Split a larger segment (recursively).
        let larger = class.next_larger().ok_or(PoError::OverlayStoreExhausted)?;
        let big = self.allocate_for_split(larger)?;
        self.stats.splits.inc();
        let half = class.bytes() as u64;
        debug_assert_eq!(larger.bytes() as u64, 2 * half);
        self.free[idx].insert(big.raw() + half);
        self.used_bytes += half;
        self.stats.allocations.inc();
        Ok(big)
    }

    /// Allocation used internally while splitting: does not count the
    /// larger segment as "in use" (its halves are accounted separately).
    fn allocate_for_split(&mut self, class: SegmentClass) -> PoResult<MainMemAddr> {
        let idx = Self::class_idx(class);
        if let Some(&addr) = self.free[idx].iter().next() {
            self.free[idx].remove(&addr);
            return Ok(MainMemAddr::new(addr));
        }
        let larger = class.next_larger().ok_or(PoError::OverlayStoreExhausted)?;
        let big = self.allocate_for_split(larger)?;
        self.stats.splits.inc();
        let half = class.bytes() as u64;
        self.free[idx].insert(big.raw() + half);
        Ok(big)
    }

    /// Returns a segment to its class's free list.
    ///
    /// # Errors
    ///
    /// Returns [`PoError::Corrupted`] on a double free or when the
    /// accounting would underflow; the store is left unchanged so the
    /// caller can report the corruption instead of compounding it.
    pub fn free(&mut self, base: MainMemAddr, class: SegmentClass) -> PoResult<()> {
        let idx = Self::class_idx(class);
        let bytes = class.bytes() as u64;
        let remaining = self
            .used_bytes
            .checked_sub(bytes)
            .ok_or(PoError::Corrupted("OMS free would underflow byte accounting"))?;
        if !self.free[idx].insert(base.raw()) {
            return Err(PoError::Corrupted("double free of OMS segment"));
        }
        self.used_bytes = remaining;
        self.stats.frees.inc();
        Ok(())
    }

    /// Bytes currently allocated to overlay segments — the memory-
    /// consumption metric for overlay-on-write (Figure 8).
    pub fn bytes_in_use(&self) -> u64 {
        self.used_bytes
    }

    /// Bytes handed to the store by the OS.
    pub fn bytes_managed(&self) -> u64 {
        self.managed_bytes
    }

    /// Bytes sitting on free lists.
    pub fn bytes_free(&self) -> u64 {
        SegmentClass::ALL
            .iter()
            .enumerate()
            .map(|(i, c)| self.free[i].len() as u64 * c.bytes() as u64)
            .sum()
    }

    /// Free segments of one class (diagnostics).
    pub fn free_count(&self, class: SegmentClass) -> usize {
        self.free[Self::class_idx(class)].len()
    }

    /// How badly the free space is shattered across the small segment
    /// classes: `1 − (4 KB-class free bytes / total free bytes)`.
    ///
    /// `0.0` means every free byte sits on the 4 KB list (any request
    /// can be served by splitting); `1.0` means no whole page is free —
    /// a 4 KB allocation fails even though `bytes_free()` may exceed
    /// 4 KB many times over. Returns `0.0` when nothing is free (an
    /// empty free list is not fragmented, just exhausted).
    pub fn fragmentation_ratio(&self) -> f64 {
        let free = self.bytes_free();
        if free == 0 {
            return 0.0;
        }
        let k4 = self.free[Self::class_idx(SegmentClass::K4)].len() as u64
            * SegmentClass::K4.bytes() as u64;
        1.0 - k4 as f64 / free as f64
    }

    /// Merges free buddy pairs upward through the class ladder
    /// (`buddy = base XOR size`; chunks are 4 KB-aligned so the XOR rule
    /// is exact for every class below 4 KB). Returns the merge count.
    ///
    /// The paper's allocator never coalesces (§4.4.3 keeps the free
    /// lists flat); this runs only as part of a compaction pass
    /// (§4.4.2), which is why long churn without compaction strands
    /// bytes in the small classes.
    fn coalesce(&mut self) -> u64 {
        let mut merges = 0;
        for idx in 0..SegmentClass::ALL.len() - 1 {
            let size = SegmentClass::ALL[idx].bytes() as u64;
            // One ascending pass per class suffices: buddies are adjacent
            // in the sorted set, and a merge feeds the *next* class.
            let bases: Vec<u64> = self.free[idx].iter().copied().collect();
            let mut i = 0;
            while i + 1 < bases.len() {
                let lo = bases[i];
                if lo.is_multiple_of(2 * size) && bases[i + 1] == lo + size {
                    self.free[idx].remove(&lo);
                    self.free[idx].remove(&(lo + size));
                    self.free[idx + 1].insert(lo);
                    merges += 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
        }
        merges
    }

    /// One live compaction pass (§4.4.2): coalesce free buddies, then
    /// relocate live segments — highest addresses first — into the
    /// lowest free slot of the same class, and coalesce again.
    ///
    /// `live` lists every allocated segment (base, class); the store
    /// has no segment-to-owner map, so the overlay manager supplies it.
    /// For each improving move the `relocate` hook must copy the
    /// segment bytes and atomically repoint the owner's OMT entry
    /// (shooting down cached copies); only after the hook returns `Ok`
    /// does the store free the old segment. A move that would not lower
    /// the segment's address is skipped (destination released), so the
    /// pass never ping-pongs.
    ///
    /// Crash semantics (DST): between the hook's `Ok` and the old
    /// segment's free lies the second [`CrashStage::MidCompaction`]
    /// window — if the armed crash fires there, the pass freezes with
    /// exactly one orphaned segment (old copy still allocated, OMT
    /// already repointed), which the refinement oracle admits. A
    /// [`PoError::Crashed`] from the hook itself (the first window:
    /// bytes copied, OMT not yet repointed) propagates the same way —
    /// nothing is rolled back, the orphan is the *new* segment.
    ///
    /// # Errors
    ///
    /// [`PoError::Crashed`] when an armed mid-compaction crash fires
    /// (state frozen, snapshot-restorable); [`PoError::Corrupted`] only
    /// if the store's own accounting is broken. A failed relocation
    /// copy is *not* an error: the pass aborts gracefully with
    /// [`CompactionOutcome::aborted`] set.
    pub fn compact(
        &mut self,
        live: &[(MainMemAddr, SegmentClass)],
        mut relocate: impl FnMut(MainMemAddr, MainMemAddr, SegmentClass) -> PoResult<()>,
    ) -> PoResult<CompactionOutcome> {
        self.stats.compaction_passes.inc();
        let mut outcome = CompactionOutcome { merges: self.coalesce(), ..Default::default() };
        let mut order: Vec<(u64, SegmentClass)> = live.iter().map(|&(a, c)| (a.raw(), c)).collect();
        order.sort_unstable_by_key(|&(base, _)| std::cmp::Reverse(base));
        for (old, class) in order {
            let new = match self.allocate(class) {
                Ok(n) => n,
                // Nothing free in this class or above — not a failure,
                // there is simply no slot to move into.
                Err(PoError::OverlayStoreExhausted) => continue,
                Err(e) => return Err(e),
            };
            if new.raw() >= old {
                self.free(new, class)?;
                continue;
            }
            match relocate(MainMemAddr::new(old), new, class) {
                Ok(()) => {
                    // OMT now points at `new`; `old` is the orphan until
                    // the free below lands. The second MidCompaction
                    // window (repoint done, old segment still allocated).
                    if self.faults.fire_crash(CrashStage::MidCompaction) {
                        self.stats.relocated_bytes.add(outcome.relocated_bytes);
                        return Err(PoError::Crashed(CrashStage::MidCompaction));
                    }
                    self.free(MainMemAddr::new(old), class)?;
                    outcome.moves += 1;
                    outcome.relocated_bytes += class.bytes() as u64;
                }
                // The hook froze inside its own window (bytes copied,
                // OMT untouched): propagate with nothing rolled back —
                // `new` stays allocated as the spec-legal orphan.
                Err(e @ PoError::Crashed(_)) => {
                    self.stats.relocated_bytes.add(outcome.relocated_bytes);
                    return Err(e);
                }
                // Copy failed (e.g. injected CompactionRelocationFailed):
                // release the destination and abort the pass cleanly.
                Err(_) => {
                    self.free(new, class)?;
                    outcome.aborted = true;
                    break;
                }
            }
        }
        outcome.merges += self.coalesce();
        self.stats.relocated_bytes.add(outcome.relocated_bytes);
        let (relocated_bytes, moves, aborted) =
            (outcome.relocated_bytes, outcome.moves, outcome.aborted);
        self.sink.emit(|| TelemetryEvent::Compaction { relocated_bytes, moves, aborted });
        Ok(outcome)
    }

    /// Invariant: every managed byte is either free or in use, exactly
    /// once. Checked by tests and property tests (DESIGN.md invariant 2).
    pub fn check_conservation(&self) -> PoResult<()> {
        if self.bytes_free() + self.bytes_in_use() == self.managed_bytes {
            Ok(())
        } else {
            Err(PoError::Corrupted("OMS byte conservation violated"))
        }
    }

    /// Structural self-check of the free lists:
    ///
    /// 1. byte conservation ([`OverlayMemoryStore::check_conservation`]);
    /// 2. free segments of all classes are pairwise disjoint spans;
    /// 3. every free span lies inside an OS-granted chunk.
    ///
    /// # Errors
    ///
    /// [`PoError::Corrupted`] naming the violated invariant.
    pub fn verify_layout(&self) -> PoResult<()> {
        self.check_conservation()?;
        let mut spans: Vec<(u64, u64)> = Vec::new();
        for (i, class) in SegmentClass::ALL.iter().enumerate() {
            for &base in &self.free[i] {
                spans.push((base, class.bytes() as u64));
            }
        }
        spans.sort_unstable();
        for w in spans.windows(2) {
            if w[0].0 + w[0].1 > w[1].0 {
                return Err(PoError::Corrupted("OMS free lists overlap"));
            }
        }
        for &(base, len) in &spans {
            let inside = self.chunks.iter().any(|&(cb, cl)| base >= cb && base + len <= cb + cl);
            if !inside {
                return Err(PoError::Corrupted("OMS free segment outside granted chunks"));
            }
        }
        Ok(())
    }

    /// Serializes free lists (BTreeSets iterate sorted — byte-stable),
    /// byte accounting, chunk spans and stats. The fault injector is
    /// deliberately not serialized; the machine-level snapshot owns it.
    pub fn encode_snapshot(&self, w: &mut SnapshotWriter) {
        for set in &self.free {
            w.put_len(set.len());
            for &addr in set {
                w.put_u64(addr);
            }
        }
        w.put_u64(self.managed_bytes);
        w.put_u64(self.used_bytes);
        w.put_len(self.chunks.len());
        for &(base, bytes) in &self.chunks {
            w.put_u64(base);
            w.put_u64(bytes);
        }
        self.stats.encode_snapshot(w);
    }

    /// Rebuilds a store from [`OverlayMemoryStore::encode_snapshot`]
    /// bytes, with an inert fault injector (reinstall via
    /// [`OverlayMemoryStore::set_fault_injector`]).
    ///
    /// # Errors
    ///
    /// [`PoError::Corrupted`] on truncation or when the decoded free
    /// lists violate the store's structural invariants
    /// ([`OverlayMemoryStore::verify_layout`]).
    pub fn decode_snapshot(r: &mut SnapshotReader) -> PoResult<Self> {
        let mut store = Self::new();
        for set in &mut store.free {
            let n = r.get_len()?;
            for _ in 0..n {
                set.insert(r.get_u64()?);
            }
        }
        store.managed_bytes = r.get_u64()?;
        store.used_bytes = r.get_u64()?;
        let n = r.get_len()?;
        for _ in 0..n {
            let base = r.get_u64()?;
            let bytes = r.get_u64()?;
            store.chunks.push((base, bytes));
        }
        store.stats = StoreStats::decode_snapshot(r)?;
        store.verify_layout()?;
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with(frames: u64) -> OverlayMemoryStore {
        let mut s = OverlayMemoryStore::new();
        s.add_chunk(MainMemAddr::new(0x100000), frames);
        s
    }

    #[test]
    fn empty_store_is_exhausted() {
        let mut s = OverlayMemoryStore::new();
        assert_eq!(s.allocate(SegmentClass::B256), Err(PoError::OverlayStoreExhausted));
    }

    #[test]
    fn allocate_splits_a_page_down_to_256b() {
        let mut s = store_with(1);
        let seg = s.allocate(SegmentClass::B256).unwrap();
        assert_eq!(seg.raw(), 0x100000);
        // Splits: 4K→2K→1K→512→256 = 4 splits.
        assert_eq!(s.stats().splits.get(), 4);
        // Buddies of every size are now free.
        assert_eq!(s.free_count(SegmentClass::B256), 1);
        assert_eq!(s.free_count(SegmentClass::B512), 1);
        assert_eq!(s.free_count(SegmentClass::K1), 1);
        assert_eq!(s.free_count(SegmentClass::K2), 1);
        assert_eq!(s.free_count(SegmentClass::K4), 0);
        s.check_conservation().unwrap();
        assert_eq!(s.bytes_in_use(), 256);
    }

    #[test]
    fn free_then_reallocate_reuses() {
        let mut s = store_with(1);
        let a = s.allocate(SegmentClass::B512).unwrap();
        s.free(a, SegmentClass::B512).unwrap();
        let b = s.allocate(SegmentClass::B512).unwrap();
        assert_eq!(a, b);
        s.check_conservation().unwrap();
    }

    #[test]
    fn exhaustion_reports_cleanly() {
        let mut s = store_with(1);
        let _a = s.allocate(SegmentClass::K4).unwrap();
        assert_eq!(s.allocate(SegmentClass::B256), Err(PoError::OverlayStoreExhausted));
        s.check_conservation().unwrap();
    }

    #[test]
    fn many_small_allocations_fill_the_page() {
        let mut s = store_with(1);
        let mut segs = Vec::new();
        for _ in 0..16 {
            segs.push(s.allocate(SegmentClass::B256).unwrap());
        }
        assert_eq!(s.allocate(SegmentClass::B256), Err(PoError::OverlayStoreExhausted));
        // All 16 segments are distinct and 256-byte aligned.
        let mut raws: Vec<u64> = segs.iter().map(|a| a.raw()).collect();
        raws.sort_unstable();
        raws.dedup();
        assert_eq!(raws.len(), 16);
        assert!(raws.iter().all(|r| r % 256 == 0));
        s.check_conservation().unwrap();
        // Free everything; the page is reusable as four 1K segments.
        for seg in segs {
            s.free(seg, SegmentClass::B256).unwrap();
        }
        assert_eq!(s.bytes_in_use(), 0);
        s.check_conservation().unwrap();
    }

    #[test]
    fn growth_after_exhaustion() {
        let mut s = store_with(1);
        s.allocate(SegmentClass::K4).unwrap();
        assert!(s.allocate(SegmentClass::K4).is_err());
        s.add_chunk(MainMemAddr::new(0x200000), 2);
        assert!(s.allocate(SegmentClass::K4).is_ok());
        assert!(s.allocate(SegmentClass::K2).is_ok());
        s.check_conservation().unwrap();
        assert_eq!(s.stats().os_grants.get(), 2);
    }

    #[test]
    #[should_panic(expected = "page-aligned")]
    fn chunk_must_be_aligned() {
        let mut s = OverlayMemoryStore::new();
        s.add_chunk(MainMemAddr::new(0x100), 1);
    }

    #[test]
    fn coalesce_restores_whole_pages() {
        let mut s = store_with(1);
        // Shatter the page into sixteen 256 B segments, free them all,
        // then compact with no live segments: the free lists must fold
        // back into one whole 4 KB page.
        let segs: Vec<_> = (0..16).map(|_| s.allocate(SegmentClass::B256).unwrap()).collect();
        for seg in segs {
            s.free(seg, SegmentClass::B256).unwrap();
        }
        assert_eq!(s.free_count(SegmentClass::K4), 0);
        assert!(s.fragmentation_ratio() > 0.99);
        let out = s.compact(&[], |_, _, _| Ok(())).unwrap();
        assert_eq!(out.moves, 0);
        assert_eq!(out.merges, 8 + 4 + 2 + 1);
        assert_eq!(s.free_count(SegmentClass::K4), 1);
        assert_eq!(s.fragmentation_ratio(), 0.0);
        s.verify_layout().unwrap();
    }

    #[test]
    fn compact_relocates_straggler_downward() {
        let mut s = store_with(2);
        // Fill both pages with 256 B segments, then free all but the
        // very last one: a classic straggler pinning the second page.
        let segs: Vec<_> = (0..32).map(|_| s.allocate(SegmentClass::B256).unwrap()).collect();
        let last = *segs.last().unwrap();
        for &seg in &segs[..31] {
            s.free(seg, SegmentClass::B256).unwrap();
        }
        assert_eq!(s.allocate(SegmentClass::K4), Err(PoError::OverlayStoreExhausted));
        let mut moved = Vec::new();
        let out = s
            .compact(&[(last, SegmentClass::B256)], |old, new, class| {
                moved.push((old, new, class));
                Ok(())
            })
            .unwrap();
        assert_eq!(out.moves, 1);
        assert_eq!(out.relocated_bytes, 256);
        assert!(!out.aborted);
        assert_eq!(moved.len(), 1);
        assert!(moved[0].1.raw() < moved[0].0.raw(), "relocation must lower the address");
        // The straggler now lives in the first page; a whole page frees up.
        assert!(s.allocate(SegmentClass::K4).is_ok());
        s.verify_layout().unwrap();
        assert_eq!(s.bytes_in_use(), 256 + 4096);
    }

    #[test]
    fn compact_skips_non_improving_moves() {
        let mut s = store_with(1);
        let a = s.allocate(SegmentClass::B256).unwrap();
        // `a` is already the lowest address; compaction must not move it.
        let out = s.compact(&[(a, SegmentClass::B256)], |_, _, _| panic!("no move")).unwrap();
        assert_eq!(out.moves, 0);
        s.verify_layout().unwrap();
    }

    #[test]
    fn failed_relocation_aborts_cleanly() {
        let mut s = store_with(2);
        let segs: Vec<_> = (0..32).map(|_| s.allocate(SegmentClass::B256).unwrap()).collect();
        let last = *segs.last().unwrap();
        for &seg in &segs[..31] {
            s.free(seg, SegmentClass::B256).unwrap();
        }
        let before_used = s.bytes_in_use();
        let out = s
            .compact(&[(last, SegmentClass::B256)], |_, _, _| {
                Err(PoError::Corrupted("injected copy failure"))
            })
            .unwrap();
        assert!(out.aborted);
        assert_eq!(out.moves, 0);
        // Destination released, straggler untouched, store consistent.
        assert_eq!(s.bytes_in_use(), before_used);
        s.verify_layout().unwrap();
        // A retry with a working copy succeeds.
        let out = s.compact(&[(last, SegmentClass::B256)], |_, _, _| Ok(())).unwrap();
        assert_eq!(out.moves, 1);
        s.verify_layout().unwrap();
    }

    #[test]
    fn mid_compaction_crash_freezes_one_orphan() {
        use po_types::{FaultPlan, FaultSite};
        let mut s = store_with(2);
        let segs: Vec<_> = (0..32).map(|_| s.allocate(SegmentClass::B256).unwrap()).collect();
        let last = *segs.last().unwrap();
        for &seg in &segs[..31] {
            s.free(seg, SegmentClass::B256).unwrap();
        }
        s.set_fault_injector(FaultInjector::from_plan(
            FaultPlan::new(7)
                .at_queries(FaultSite::CrashPoint, [0])
                .with_crash_stage(CrashStage::MidCompaction),
        ));
        let before_used = s.bytes_in_use();
        let err = s.compact(&[(last, SegmentClass::B256)], |_, _, _| Ok(())).unwrap_err();
        assert_eq!(err, PoError::Crashed(CrashStage::MidCompaction));
        // Window 2: OMT repointed (hook ran), old segment not yet freed —
        // exactly one extra live segment, conservation still holds.
        assert_eq!(s.bytes_in_use(), before_used + 256);
        s.verify_layout().unwrap();
    }

    #[test]
    fn mixed_sizes_conserve_bytes() {
        let mut s = store_with(4);
        let a = s.allocate(SegmentClass::K1).unwrap();
        let b = s.allocate(SegmentClass::B256).unwrap();
        let c = s.allocate(SegmentClass::K2).unwrap();
        s.check_conservation().unwrap();
        assert_eq!(s.bytes_in_use(), 1024 + 256 + 2048);
        s.free(b, SegmentClass::B256).unwrap();
        s.free(a, SegmentClass::K1).unwrap();
        s.free(c, SegmentClass::K2).unwrap();
        assert_eq!(s.bytes_in_use(), 0);
        s.check_conservation().unwrap();
    }
}
