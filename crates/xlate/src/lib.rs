//! # po-xlate — address translation: page tables plus the OMT
//!
//! [`Translation`] is the simulator's one translation structure: the OS
//! model (page tables, frame allocator), the overlay manager (OMT, OMT
//! cache, Overlay Memory Store) and the OMS grant ledger, behind one
//! concrete type whose fields are private. The timing machine in
//! `po-sim` reaches page-table and OMT state only through its methods
//! (walk, fill, protect, privatize, fork, overlay promotion hooks, OMS
//! grants, verification, serialization), so the compiler enforces the
//! seam.
//!
//! The crate knows nothing about timing or rival designs: walk costs
//! and whether overlays are enabled are decided by the machine's
//! configuration (`po_sim::BackendKind`). The segmentation-over-paging
//! comparison (arXiv:2006.00380) runs on this same type with overlays
//! off and a cheaper walk.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use po_dram::DataStore;
use po_overlay::{CompactionOutcome, EvictOutcome, OverlayConfig, OverlayManager, OverlayStats};
use po_telemetry::TelemetrySink;
use po_types::geometry::PAGE_SIZE;
use po_types::snapshot::{SnapshotReader, SnapshotWriter};
use po_types::{
    Asid, FaultInjector, LineData, MainMemAddr, OBitVector, Opn, PoError, PoResult, Ppn, VirtAddr,
    Vpn,
};
use po_vm::{OsModel, Pte, VmConfig, WriteOutcome};

/// What a `fork` decided: the new address space plus the shootdown
/// decision — which ASIDs now hold stale cached translations. The
/// caller (the machine) owns the TLBs and performs the flushes; the OS
/// model never mutates TLBs directly (the back-channel the ROADMAP
/// flagged).
#[derive(Clone, Debug)]
pub struct ForkOutcome {
    /// The child address space.
    pub child: Asid,
    /// Address spaces whose cached translations the fork invalidated.
    pub flush: Vec<Asid>,
}

/// The translation state: the OS model (page tables, frame allocator),
/// the overlay manager (inert when overlays are configured off), and
/// the OMS grant ledger.
#[derive(Debug)]
pub struct Translation {
    os: OsModel,
    overlay: OverlayManager,
    /// Frames granted to the OMS so far (excluded from the "regular
    /// frames" part of the memory metric; OMS consumption is counted at
    /// segment granularity instead).
    oms_frames: u64,
}

impl Translation {
    /// Fresh translation state: no address spaces, no overlays.
    pub fn new(overlay: OverlayConfig, vm: VmConfig) -> Self {
        Self { os: OsModel::new(vm), overlay: OverlayManager::new(overlay), oms_frames: 0 }
    }

    // --------------------------------------------------------------
    // Address-space lifecycle (walk / fill / protect / remap).
    // --------------------------------------------------------------

    /// Creates an address space.
    pub fn spawn(&mut self) -> PoResult<Asid> {
        self.os.spawn()
    }

    /// Maps `count` anonymous pages at `start`.
    pub fn map_range(
        &mut self,
        asid: Asid,
        start: Vpn,
        count: u64,
        writable: bool,
    ) -> PoResult<()> {
        self.os.map_range(asid, start, count, writable)
    }

    /// Allocates one physical frame.
    pub fn alloc_frame(&mut self) -> PoResult<Ppn> {
        self.os.alloc_frame()
    }

    /// Maps `vpn` onto an existing shared frame (read-only, CoW).
    pub fn map_shared_frame(&mut self, asid: Asid, vpn: Vpn, ppn: Ppn) -> PoResult<()> {
        self.os.map_shared_frame(asid, vpn, ppn)
    }

    /// Marks an existing mapping overlay-enabled — the protect step of
    /// sharing under overlay semantics. Callers skip it when overlays
    /// are configured off.
    pub fn protect_for_share(&mut self, asid: Asid, vpn: Vpn) -> PoResult<()> {
        self.os.enable_overlays(asid, vpn)
    }

    /// Translates `va` (the walk a TLB miss performs).
    pub fn walk(&self, asid: Asid, va: VirtAddr) -> PoResult<Pte> {
        self.os.translate(asid, va)
    }

    /// Privatizes the page under `va` for writing (classic CoW remap:
    /// sole owner flips flags, shared frame is copied), returning the
    /// shootdown decision.
    pub fn privatize(
        &mut self,
        asid: Asid,
        va: VirtAddr,
        mem: &mut DataStore,
    ) -> PoResult<WriteOutcome> {
        self.os.prepare_write(asid, va, mem)
    }

    /// Functional one-byte write through the OS path (privatizes if
    /// needed).
    pub fn write_byte(
        &mut self,
        asid: Asid,
        va: VirtAddr,
        value: u8,
        mem: &mut DataStore,
    ) -> PoResult<WriteOutcome> {
        self.os.write(asid, va, value, mem)
    }

    /// Every mapping of `asid`, in VPN order.
    pub fn pages(&self, asid: Asid) -> PoResult<impl Iterator<Item = (Vpn, Pte)> + '_> {
        self.os.pages(asid)
    }

    /// Physical frames currently allocated (including OMS grants).
    pub fn frames_allocated(&self) -> u64 {
        self.os.frames_allocated()
    }

    /// Forks `parent` copy-on-write. With `overlay` set (the machine is
    /// in overlay mode *and* its configuration enables overlays) every
    /// shared page is additionally overlay-enabled on both sides. The
    /// shootdown decision — which ASIDs hold stale translations —
    /// returns in the [`ForkOutcome`]; this method never touches TLBs.
    pub fn fork(&mut self, parent: Asid, overlay: bool) -> PoResult<ForkOutcome> {
        let child = self.os.fork(parent)?;
        if overlay {
            let vpns: Vec<Vpn> = self.os.pages(parent)?.map(|(vpn, _)| vpn).collect();
            for vpn in vpns {
                self.os.enable_overlays(parent, vpn)?;
                self.os.enable_overlays(child, vpn)?;
            }
        }
        Ok(ForkOutcome { child, flush: vec![parent, child] })
    }

    // --------------------------------------------------------------
    // Overlay lifecycle (inert when overlays are configured off).
    // --------------------------------------------------------------

    /// Whether `opn` currently has an overlay.
    pub fn has_overlay(&self, opn: Opn) -> bool {
        self.overlay.has_overlay(opn)
    }

    /// The OBitVector of `opn`'s overlay.
    pub fn obitvec(&self, opn: Opn) -> PoResult<OBitVector> {
        self.overlay.obitvec(opn)
    }

    /// The walk-time OBitVector fetch (Figure 6): warms the
    /// controller's OMT cache as a side effect and returns the vector
    /// (empty when the page has no overlay).
    pub fn fill_obitvec(&mut self, opn: Opn) -> OBitVector {
        self.overlay.warm_omt_cache(opn);
        self.overlay.obitvec(opn).unwrap_or(OBitVector::EMPTY)
    }

    /// Stages `data` as overlay line `line` of `opn` (creates the
    /// overlay on first touch; OMS backing is allocated lazily).
    pub fn overlaying_write(&mut self, opn: Opn, line: usize, data: LineData) -> PoResult<()> {
        self.overlay.overlaying_write(opn, line, data)
    }

    /// Rewrites a line already in `opn`'s overlay.
    pub fn write_overlay_line(&mut self, opn: Opn, line: usize, data: LineData) -> PoResult<()> {
        self.overlay.write_line(opn, line, data)
    }

    /// Reads `line` of the page with overlay semantics: from the
    /// overlay if the line is overlaid, else from `phys`.
    pub fn resolve_read(
        &self,
        opn: Opn,
        line: usize,
        phys: MainMemAddr,
        mem: &DataStore,
    ) -> PoResult<LineData> {
        self.overlay.resolve_read(opn, line, phys, mem)
    }

    /// Overlay half of a multi-line read: replaces each line of `out`
    /// (lines from `first` on, physical bytes on entry) that is in
    /// `opn`'s overlay by its overlay copy.
    pub fn resolve_lines(
        &self,
        opn: Opn,
        first: usize,
        out: &mut [u8],
        mem: &DataStore,
    ) -> PoResult<()> {
        self.overlay.resolve_lines(opn, first, out, mem)
    }

    /// Whether the controller must materialize OMS backing for `line`
    /// before resolving it.
    pub fn line_needs_materialization(&self, opn: Opn, line: usize) -> bool {
        self.overlay.line_needs_materialization(opn, line)
    }

    /// Memory-controller resolution of an overlay line address to its
    /// OMS home; the flag reports an OMT-cache hit.
    pub fn controller_resolve(
        &mut self,
        opn: Opn,
        line: usize,
        modify: bool,
    ) -> PoResult<(MainMemAddr, bool)> {
        self.overlay.controller_resolve(opn, line, modify)
    }

    /// Evicts one dirty overlay line into the OMS, granting the store
    /// fresh frames from the OS when it must grow (single attempt; the
    /// machine owns the reclaim/compact retry ladder).
    pub fn evict_line(
        &mut self,
        opn: Opn,
        line: usize,
        mem: &mut DataStore,
    ) -> PoResult<EvictOutcome> {
        let Self { os, overlay, oms_frames } = self;
        let mut grant = |frames: u64| {
            let base = os.grant_oms_chunk(frames)?;
            *oms_frames += frames;
            Ok(base)
        };
        overlay.evict_line(opn, line, mem, &mut grant)
    }

    /// Evicts every resident line of `opn` into the OMS (single
    /// attempt), returning how many lines moved.
    pub fn evict_all_of(&mut self, opn: Opn, mem: &mut DataStore) -> PoResult<usize> {
        let Self { os, overlay, oms_frames } = self;
        let mut grant = |frames: u64| {
            let base = os.grant_oms_chunk(frames)?;
            *oms_frames += frames;
            Ok(base)
        };
        overlay.evict_all(opn, mem, &mut grant)
    }

    /// Commits `opn`'s overlay onto the page at `frame` and destroys
    /// the overlay (§4.3.4 commit promotion).
    pub fn commit_overlay_to(
        &mut self,
        opn: Opn,
        frame: MainMemAddr,
        mem: &mut DataStore,
    ) -> PoResult<usize> {
        self.overlay.commit(opn, frame, mem)
    }

    /// Commits `opn`'s overlay onto `frame` and reports the OMS bytes
    /// freed (the §4.4.2 reclaim valve).
    pub fn collapse_overlay(
        &mut self,
        opn: Opn,
        frame: MainMemAddr,
        mem: &mut DataStore,
    ) -> PoResult<u64> {
        self.overlay.collapse_overlay(opn, frame, mem)
    }

    /// Discards `opn`'s overlay (§4.3.4 discard promotion).
    pub fn discard_overlay(&mut self, opn: Opn) -> PoResult<()> {
        self.overlay.discard(opn)
    }

    /// Every page that currently has an overlay, in OPN order (the OMT
    /// iterates hash-ordered; sorting keeps grant streams and fault
    /// plans reproducible).
    pub fn overlay_pages(&self) -> Vec<Opn> {
        let mut opns: Vec<Opn> = self.overlay.omt().iter().map(|(o, _)| *o).collect();
        opns.sort_by_key(|o| o.raw());
        opns
    }

    /// Reclaim candidates under memory pressure, coldest first.
    pub fn reclaim_candidates(&self, exempt: Option<Opn>) -> Vec<Opn> {
        self.overlay.reclaim_candidates(exempt)
    }

    /// Notes an allocation retry (pressure-ladder statistics).
    pub fn note_alloc_retry(&mut self) {
        self.overlay.note_alloc_retry();
    }

    /// One live OMS compaction pass; returns the outcome and the pages
    /// whose segments moved (their cached translations are stale).
    pub fn compact_store(
        &mut self,
        mem: &mut DataStore,
    ) -> PoResult<(CompactionOutcome, Vec<Opn>)> {
        self.overlay.compact_store(mem)
    }

    /// Overlay lines resident in the manager (not yet in the OMS).
    pub fn resident_lines(&self) -> usize {
        self.overlay.resident_lines()
    }

    /// Bytes of OMS segment capacity in use.
    pub fn overlay_memory_bytes(&self) -> u64 {
        self.overlay.overlay_memory_bytes()
    }

    /// Frames the OS has granted the OMS so far.
    pub fn oms_frames(&self) -> u64 {
        self.oms_frames
    }

    // --------------------------------------------------------------
    // Wiring, verification, serialization.
    // --------------------------------------------------------------

    /// Overlay statistics with injected-fault counters synced.
    pub fn overlay_stats(&mut self) -> OverlayStats {
        self.overlay.sync_injected_faults();
        self.overlay.stats().clone()
    }

    /// Distributes a fault injector to the OS model and overlay layers.
    pub fn set_fault_injector(&mut self, inj: FaultInjector) {
        self.os.set_fault_injector(inj.clone());
        self.overlay.set_fault_injector(inj);
    }

    /// Distributes a telemetry sink to the OS model and overlay layers.
    pub fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.os.set_telemetry(sink.clone());
        self.overlay.set_telemetry(sink);
    }

    /// Arms the deliberately-injected OMS-leak canary (DST).
    pub fn set_inject_oms_leak(&mut self, armed: bool) {
        self.overlay.set_inject_oms_leak(armed);
    }

    /// Structural self-check: overlay-manager invariants plus the grant
    /// ledger — the OMS must manage exactly the bytes of the frames the
    /// OS granted it.
    pub fn verify(&self) -> PoResult<()> {
        self.overlay.verify_invariants()?;
        if self.overlay.store().bytes_managed() != self.oms_frames * PAGE_SIZE as u64 {
            return Err(PoError::Corrupted(
                "OMS managed bytes disagree with the frames granted by the OS",
            ));
        }
        Ok(())
    }

    /// The OS model (read-only observation: stats, allocator, pages).
    pub fn os(&self) -> &OsModel {
        &self.os
    }

    /// The overlay manager (read-only observation: stats, OMT cache,
    /// store accounting).
    pub fn overlay(&self) -> &OverlayManager {
        &self.overlay
    }

    /// Serializes the translation state: OS model, overlay manager,
    /// grant ledger.
    pub fn encode_snapshot(&self, w: &mut SnapshotWriter) {
        self.os.encode_snapshot(w);
        self.overlay.encode_snapshot(w);
        w.put_u64(self.oms_frames);
    }

    /// Inverse of [`Translation::encode_snapshot`].
    ///
    /// # Errors
    ///
    /// Propagates snapshot corruption.
    pub fn decode_snapshot(overlay: OverlayConfig, r: &mut SnapshotReader) -> PoResult<Self> {
        let os = OsModel::decode_snapshot(r)?;
        let overlay = OverlayManager::decode_snapshot(overlay, r)?;
        let oms_frames = r.get_u64()?;
        Ok(Self { os, overlay, oms_frames })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn translation() -> Translation {
        Translation::new(OverlayConfig::default(), VmConfig::default())
    }

    #[test]
    fn fork_reports_shootdown_decision_without_touching_tlbs() {
        let mut t = translation();
        let parent = t.spawn().unwrap();
        t.map_range(parent, Vpn::new(0x10), 2, true).unwrap();
        let out = t.fork(parent, true).unwrap();
        assert_eq!(out.flush, vec![parent, out.child]);
        for (_, pte) in t.pages(parent).unwrap() {
            assert!(pte.flags.overlay_enabled);
        }
        for (_, pte) in t.pages(out.child).unwrap() {
            assert!(pte.flags.overlay_enabled);
        }
    }

    #[test]
    fn fork_without_overlays_leaves_them_disabled() {
        let mut t = translation();
        let parent = t.spawn().unwrap();
        t.map_range(parent, Vpn::new(0x10), 2, true).unwrap();
        let out = t.fork(parent, false).unwrap();
        for asid in [parent, out.child] {
            for (_, pte) in t.pages(asid).unwrap() {
                assert!(!pte.flags.overlay_enabled);
            }
        }
    }

    #[test]
    fn snapshot_round_trips_across_construction() {
        let mut t = translation();
        let pid = t.spawn().unwrap();
        t.map_range(pid, Vpn::new(0x10), 4, true).unwrap();
        let mut w = SnapshotWriter::new();
        t.encode_snapshot(&mut w);
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes);
        let restored = Translation::decode_snapshot(OverlayConfig::default(), &mut r).unwrap();
        r.expect_end().unwrap();
        let mut w2 = SnapshotWriter::new();
        restored.encode_snapshot(&mut w2);
        assert_eq!(w2.finish(), bytes);
    }

    #[test]
    fn grant_ledger_is_verified() {
        let mut t = translation();
        let pid = t.spawn().unwrap();
        t.map_range(pid, Vpn::new(0x10), 1, true).unwrap();
        let opn = Opn::encode(pid, Vpn::new(0x10));
        let mut mem = DataStore::new();
        t.overlaying_write(opn, 3, LineData::zeroed()).unwrap();
        t.evict_line(opn, 3, &mut mem).unwrap();
        assert!(t.oms_frames() > 0, "eviction must have granted OMS frames");
        t.verify().unwrap();
    }
}
